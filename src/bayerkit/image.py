"""Container types for raw mosaics, packed 4-plane images and RGB images, and the strip engine.

The three containers share one frozen-array base: each names only how its constructor copies
its array and what it checks. Each keeps its frame, or its planes, in the last two axes of its
array, so ``height`` and ``width`` are defined once, on the base.

The frame's geometry lives here too. Every full-frame kernel runs over the (r0, n) row strips
of ``_row_strips``, which also allocates the kernel's reused strip buffers, sized from
``STRIP_ROWS`` when the call starts; no other module reads ``STRIP_ROWS``. A kernel that reads
rows beneath its own slices them itself. Every kernel that reads past a plane's edge, the
Gaussian, the median and the bilinear demosaic, reads its planes through ``_halo_strips``, the
one place that builds such a halo, by one rule: the strip is the matching rows and columns of
np.pad(np.pad(planes, halo, "edge"), radius, "reflect"). SSIM stays outside it: it reads only
fully interior windows, so it has no edge rule, and slices the rows beneath its strip itself.
Every kernel that works on the four half-resolution planes of a mosaic reads and writes them
through one site view, ``_sites``. The Gaussian's row pass and the demosaic's means run their
elementwise steps on ``_span``, the flat span of a slice of a C-contiguous strip buffer: numpy
runs one 1-D loop over it, where the same step over the 2-D slice costs nearly twice as much.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import BayerPattern

# Rows per strip of every full-frame kernel. A strip's buffers grow with the frame's
# width, never its height, and they are in cache only at modest widths: at 2048x3072 the
# demosaic's halo strip of the four planes, (2, 2, 66, 1538), is 3.2 MB on its own, past the
# 2 MiB L2 of one core of a 2-core Xeon. SSIM alone also cuts its strips into column tiles.
STRIP_ROWS = 64


def _row_strips(h: int, *widths: int, dtype=np.float64):
    """(r0, n, *bufs) per strip of an h-row frame, top to bottom: it owns rows r0 .. r0 + n - 1,
    and n <= STRIP_ROWS. Each width asks for one strip buffer of ``dtype``, allocated once, at
    the first strip, with as many rows as the tallest strip, by STRIP_ROWS as it reads then;
    each strip gets its C-contiguous (n, width) head, which the next strip overwrites. With h
    alone it yields (r0, n). A caller that reads rows beneath its own slices them, and a slice
    stops at the frame."""
    bufs = [np.empty((min(STRIP_ROWS, h), width), dtype) for width in widths]
    for r0 in range(0, h, STRIP_ROWS):
        n = min(STRIP_ROWS, h - r0)
        yield (r0, n, *(buf[:n] for buf in bufs))


def _halo_strips(planes: np.ndarray, *widths: int, radius=1, halo=((1, 1), (1, 1)),
                 dtype=np.float64):
    """(r0, n, strip, *bufs) per strip of the uint16 planes (..., h, w), top to bottom: the
    strip is (..., n + 2 * radius, w + 2 * radius) of ``dtype``, the radius-wide window halo
    around plane rows r0 .. r0 + n - 1 and columns 0 .. w - 1. One rule sets what lies past the
    plane: the strip is those rows and columns of np.pad(np.pad(planes, halo, "edge"), radius,
    "reflect"), where ``halo`` is ((top, bottom), (left, right)) and plane sample (i, j) sits
    at (i + top + radius, j + left + radius). Mosaic reflect-101 keeps a sample's parity, so in
    plane space it is the edge halo a working pattern gives a plane; the default, radius 1 and
    one edge row and column on each side, is a one-sample edge-duplicated border. Each strip is
    C-contiguous in one reused buffer that the next strip overwrites; the caller may overwrite
    it too. ``widths`` asks ``_row_strips`` for strip buffers of ``dtype``, yielded after the
    strip."""
    *lead, h, w = planes.shape
    # the index maps of the rule: row i of the strip at r0 is plane row rows[r0 + i], and
    # strip column j is plane column cols[j], which the strip holds at cols[j] + radius
    rows, cols = (np.pad(np.arange(-a, size + b).clip(0, size - 1), radius, "reflect")[a:]
                  for size, (a, b) in zip((h, w), halo))
    buf = np.empty((*lead, min(STRIP_ROWS, h) + 2 * radius, w + 2 * radius), dtype)
    for r0, n, *bufs in _row_strips(h, *widths, dtype=dtype):
        strip = np.ndarray((*lead, n + 2 * radius, w + 2 * radius), dtype, buf)  # buf's head
        strip[..., radius : radius + n, radius : radius + w] = planes[..., r0 : r0 + n, :]
        for i in (*range(radius), *range(radius + n, n + 2 * radius)):  # the halo rows
            strip[..., i, radius : radius + w] = planes[..., rows[r0 + i], :]
        for j in (*range(radius), *range(radius + w, w + 2 * radius)):  # then the halo columns
            strip[..., j] = strip[..., cols[j] + radius]
        yield r0, n, strip, *bufs


def _span(buf: np.ndarray, i: int, j: int, n: int, w: int) -> np.ndarray:
    """The flat span of buf[i : i + n, j : j + w], where buf is a C-contiguous 2-D buffer with
    rows ``pitch`` long: span[r * pitch + c] is buf[i + r, j + c], so the slice one neighbour
    (di, dj) away is the same span shifted by di * pitch + dj. It runs from buf[i, j] to
    buf[i + n - 1, j + w - 1]; its positions c >= w are the buffer's samples between the
    slice's rows, junk that the caller keeps finite and never stores. A write through the
    span lands in buf. An elementwise step over a span is one 1-D loop, which numpy runs
    nearly twice as fast as the same step over the 2-D slice."""
    assert buf.flags.c_contiguous  # else the reshape would copy
    pitch = buf.shape[1]
    return buf.reshape(-1)[i * pitch + j : (i + n - 1) * pitch + j + w]


def _sites(arr: np.ndarray) -> np.ndarray:
    """The site view of an (h, w) mosaic: (2, 2, h/2, w/2), where [a, b] is arr[a::2, b::2],
    the plane of block position k = 2a + b. It only splits each axis in two, so it never
    copies, whatever the strides, and a write through it lands in arr."""
    h, w = arr.shape
    return arr.reshape(h // 2, 2, w // 2, 2).transpose(1, 3, 0, 2)


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


class _FrozenArray:
    """Base of the containers, whose first field is their array. The constructor copies it
    (``_copy``), and ``_store`` checks it (``_check``) and freezes it; an in-package result
    goes to ``_store`` without the copy (see ``_adopt``). Pickle and copy rebuild through the
    public constructor, so the copy is frozen too. ``height`` and ``width`` are the last two
    axes of the array: the mosaic's, or each plane's."""

    def __post_init__(self):
        self._store(self._copy(getattr(self, self.__match_args__[0])))

    def _store(self, arr: np.ndarray) -> None:
        self._check(arr)
        arr.flags.writeable = False
        object.__setattr__(self, self.__match_args__[0], arr)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    @property
    def height(self) -> int:
        return getattr(self, self.__match_args__[0]).shape[-2]

    @property
    def width(self) -> int:
        return getattr(self, self.__match_args__[0]).shape[-1]


@dataclass(frozen=True, eq=False)
class RawImage(_FrozenArray):
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

    _copy = staticmethod(_frozen_u16)

    def _check(self, arr: np.ndarray) -> None:
        assert arr.dtype == np.uint16
        if arr.ndim != 2 or any(n < 2 or n % 2 for n in arr.shape):
            raise ValueError(f"need a 2-D mosaic, sides even and >= 2, got shape {arr.shape}")
        _check_metadata(self.pattern, self.black_level, self.white_level)

    def with_samples(self, samples) -> "RawImage":
        """New image with the same metadata and a copy of the given samples."""
        return RawImage(samples, self.pattern, self.black_level, self.white_level)


@dataclass(frozen=True, eq=False)
class PackedImage(_FrozenArray):
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

    _copy = staticmethod(_frozen_u16)

    def _check(self, arr: np.ndarray) -> None:
        assert arr.dtype == np.uint16
        if arr.ndim != 3 or arr.shape[0] != 4 or min(arr.shape) < 1:
            raise ValueError(f"expected (4, H/2, W/2) planes, got shape {arr.shape}")
        _check_metadata(self.pattern, self.black_level, self.white_level)


@dataclass(frozen=True, eq=False)
class RgbImage(_FrozenArray):
    """Three full-resolution float planes (R, G, B) with values in [0, 1]. The constructor
    copies and freezes them; demosaic_bilinear freezes its fresh result instead."""

    planes: np.ndarray  # (3, H, W) float64

    @staticmethod
    def _copy(planes) -> np.ndarray:
        return np.array(planes, dtype=np.float64, copy=True)

    def _check(self, arr: np.ndarray) -> None:
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise ValueError(f"expected (3, H, W) planes, got shape {arr.shape}")
        h, w = arr.shape[1:]
        if h < 2 or w < 2 or h % 2 or w % 2:
            raise ValueError(f"dimensions must be even and >= 2, got {h}x{w}")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both
            raise ValueError("RGB values must lie in [0, 1]")
