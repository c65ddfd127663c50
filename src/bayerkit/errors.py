"""Exception types raised by bayerkit operations."""

import json


class BayerKitError(Exception):
    """Base class for all bayerkit errors."""


class ImageTooSmall(BayerKitError):
    """Image dimensions are too small for the requested operation."""


class InconsistentSpec(BayerKitError):
    """A pad record does not match the image it is applied to."""


class IllegalTranspose(BayerKitError):
    """Transposition requested on a pattern whose greens are not diagonal."""

    def __init__(self, message, pattern=None):
        super().__init__(message)
        self.pattern = pattern


class OddOffset(BayerKitError):
    """Patch cropping was given an odd offset or size."""


class OutOfBounds(BayerKitError):
    """Patch cropping exceeds the image bounds."""


class PatchTooLarge(BayerKitError):
    """Requested patch size does not fit the image."""


class BadDimensions(BayerKitError):
    """Scene dimensions are odd or below the supported minimum."""


class BadFilterParam(BayerKitError):
    """Denoiser parameters are out of range."""


class ShapeMismatch(BayerKitError):
    """Two images passed to a metric differ in shape, pattern, or levels."""


class TooSmall(BayerKitError):
    """Image is smaller than the metric's window."""


class ParseError(BayerKitError):
    """A raw file or sidecar could not be parsed."""


class UnknownPattern(BayerKitError):
    """A pattern name is not one of RGGB, BGGR, GRBG, GBRG."""


class MissingSidecar(BayerKitError):
    """The JSON sidecar for a raw file does not exist."""


def json_int(obj: dict, key: str, prefix: str, default: int | None = None) -> int:
    """The integer at obj[key], else ParseError(prefix: ...); unlike ``int()``,
    it refuses 3.7, true, "1" and null instead of truncating or coercing them."""
    value = obj.get(key, default)
    if type(value) is not int:
        raise ParseError(f"{prefix}: {key!r} must be a JSON integer, got {json.dumps(value)}")
    return value
