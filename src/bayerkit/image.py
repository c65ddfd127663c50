"""Container types for raw mosaics and packed 4-plane images."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import BayerPattern


def _frozen_u16(samples) -> np.ndarray:
    src = np.asarray(samples)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the round trip below
        arr = np.array(src, dtype=np.uint16, copy=True)
    if src.dtype != np.uint16 and not np.array_equal(arr, src):
        raise ValueError("samples must be integers in [0, 65535]")
    return arr


def _check_metadata(pattern, black_level: int, white_level: int) -> None:
    if not isinstance(pattern, BayerPattern):
        raise TypeError("pattern must be a BayerPattern")
    if not (0 <= black_level < white_level <= 65535):
        raise ValueError(f"need 0 <= black < white <= 65535, got {black_level}, {white_level}")


def _adopt(cls, arr: np.ndarray, *metadata):
    """A ``cls`` over ``arr`` itself, no copy; ``metadata`` fills the later fields in order and
    ``_store`` validates and freezes. In-package only, for a frozen view or a fresh result."""
    img = object.__new__(cls)
    vars(img).update(zip(cls.__match_args__[1:], metadata))
    img._store(arr)
    return img


def _reduce(self):
    """Pickle and copy rebuild through the public constructor, so the copy is frozen too."""
    return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, eq=False)
class RawImage:
    """An H x W single-plane Bayer mosaic with 16-bit samples.

    Dimensions must be even and at least 2; every real Bayer sensor satisfies
    this, and it keeps the pattern algebra total. Sample values may lie
    anywhere in the 16-bit range; only add_noise clips to [black, white].
    Constructors copy and freeze the samples, so instances are immutable and thread-safe;
    in-package results may share a frozen source's memory (a unify_crop crop is a view).
    """

    samples: np.ndarray
    pattern: BayerPattern
    black_level: int = 0
    white_level: int = 65535

    def __post_init__(self):
        self._store(_frozen_u16(self.samples))

    def _store(self, arr: np.ndarray) -> None:
        assert arr.dtype == np.uint16
        if arr.ndim != 2 or any(n < 2 or n % 2 for n in arr.shape):
            raise ValueError(f"need a 2-D mosaic, sides even and >= 2, got shape {arr.shape}")
        _check_metadata(self.pattern, self.black_level, self.white_level)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    __reduce__ = _reduce

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    def with_samples(self, samples) -> "RawImage":
        """New image with the same metadata and a copy of the given samples."""
        return RawImage(samples, self.pattern, self.black_level, self.white_level)


@dataclass(frozen=True, eq=False)
class PackedImage:
    """The four half-resolution planes of a mosaic, in positional order.

    Plane k holds the mosaic sites with (row % 2, col % 2) == (k // 2, k % 2),
    i.e. the order is top-left, top-right, bottom-left, bottom-right
    regardless of which colors those positions carry; the pattern tag says
    what they carry. Keeping the order positional (instead of canonical
    R,G,G,B) is what lets the plane-permutation baseline exist as a distinct,
    observably wrong operation. The constructor copies and freezes the planes;
    in-package results may share a frozen source's memory.
    """

    planes: np.ndarray  # (4, H/2, W/2) uint16
    pattern: BayerPattern
    black_level: int = 0
    white_level: int = 65535

    def __post_init__(self):
        self._store(_frozen_u16(self.planes))

    def _store(self, arr: np.ndarray) -> None:
        assert arr.dtype == np.uint16
        if arr.ndim != 3 or arr.shape[0] != 4:
            raise ValueError(f"expected (4, H/2, W/2) planes, got shape {arr.shape}")
        _check_metadata(self.pattern, self.black_level, self.white_level)
        arr.flags.writeable = False
        object.__setattr__(self, "planes", arr)

    __reduce__ = _reduce

    @property
    def plane_height(self) -> int:
        return self.planes.shape[1]

    @property
    def plane_width(self) -> int:
        return self.planes.shape[2]
