"""Container types for raw mosaics and packed 4-plane images."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import BayerPattern


def _frozen_u16(samples, expect_ndim: int) -> np.ndarray:
    src = np.asarray(samples)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the round trip below
        arr = np.array(src, dtype=np.uint16, copy=True)
    if src.dtype != np.uint16 and not np.array_equal(arr, src):
        raise ValueError("samples must be integers in [0, 65535]")
    if arr.ndim != expect_ndim:
        raise ValueError(f"expected a {expect_ndim}-D sample array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _check_metadata(pattern, black_level: int, white_level: int) -> None:
    if not isinstance(pattern, BayerPattern):
        raise TypeError("pattern must be a BayerPattern")
    if not (0 <= black_level < white_level <= 65535):
        raise ValueError(f"need 0 <= black < white <= 65535, got {black_level}, {white_level}")


@dataclass(frozen=True, eq=False)
class RawImage:
    """An H x W single-plane Bayer mosaic with 16-bit samples.

    Dimensions must be even and at least 2; every real Bayer sensor satisfies
    this, and it keeps the pattern algebra total. Sample values may lie
    anywhere in the 16-bit range; only add_noise clips to [black, white].
    The sample array is copied and frozen, so instances are immutable values
    and safe to share across threads.
    """

    samples: np.ndarray
    pattern: BayerPattern
    black_level: int = 0
    white_level: int = 65535

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_u16(self.samples, 2))
        h, w = self.samples.shape
        if h < 2 or w < 2 or h % 2 or w % 2:
            raise ValueError(f"mosaic dimensions must be even and >= 2, got {h}x{w}")
        _check_metadata(self.pattern, self.black_level, self.white_level)

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    def with_samples(self, samples) -> "RawImage":
        """New image with the same metadata and different sample values."""
        return RawImage(samples, self.pattern, self.black_level, self.white_level)


@dataclass(frozen=True, eq=False)
class PackedImage:
    """The four half-resolution planes of a mosaic, in positional order.

    Plane k holds the mosaic sites with (row % 2, col % 2) == (k // 2, k % 2),
    i.e. the order is top-left, top-right, bottom-left, bottom-right
    regardless of which colors those positions carry; the pattern tag says
    what they carry. Keeping the order positional (instead of canonical
    R,G,G,B) is what lets the plane-permutation baseline exist as a distinct,
    observably wrong operation.
    """

    planes: np.ndarray  # (4, H/2, W/2) uint16
    pattern: BayerPattern
    black_level: int = 0
    white_level: int = 65535

    def __post_init__(self):
        object.__setattr__(self, "planes", _frozen_u16(self.planes, 3))
        if self.planes.shape[0] != 4:
            raise ValueError(f"expected 4 planes, got {self.planes.shape[0]}")
        _check_metadata(self.pattern, self.black_level, self.white_level)

    @property
    def plane_height(self) -> int:
        return self.planes.shape[1]

    @property
    def plane_width(self) -> int:
        return self.planes.shape[2]
