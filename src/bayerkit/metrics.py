"""PSNR and SSIM on raw mosaics, computed in normalized units.

Both metrics normalize samples by (white - black) and treat the mosaic as a
single grayscale plane. PSNR uses peak 1 and is capped at 99 dB, which a
bit-identical pair reaches and a near-identical one cannot pass, so reports
stay total and ordered. SSIM follows the reference formulation: 11-tap Gaussian
window with sigma 1.5, K1 = 0.01, K2 = 0.03, L = 1, and the mean is taken over
windows that fit entirely inside the frame (no padding).

Each metric hands the strip pool (image._strip_map) the height of the rows it
strips, and the pool runs one task per row strip of image._row_strips on the
uint16 inputs, so memory is bounded by one buffer set per worker, allocated
for the tallest strip when the call starts, not by the frame, and each pays
only for its own reduction; metric_report runs both. The results are added in
strip order. MSE strips the frame rows: each strip is cast-copied into
two int64 buffers, and the exact integer sum of their squared differences does
not depend on the order, so the one division at the end, in Python integers,
gives the correctly rounded MSE. SSIM strips the H - _SSIM_WINDOW + 1 window
rows, the top rows of the fully interior windows, and cuts each strip into tiles
of window columns the same way: a tile of n window rows and t window columns
reads its n + _SSIM_WINDOW - 1 frame rows and t + _SSIM_WINDOW - 1 frame
columns, so every window lies in exactly one tile and every tile holds one. A
tile is at most as wide as a column-pass product within _BLAS_SERIAL_MNK, 630
frame columns, so each of its float64 arrays is at most 0.37 MB whatever the
frame width, and a worker's buffer set (_tile_bufs) about 2.7 MB. The tile sums
are added in tile order, so the result is bit-identical to one loop's whatever
the worker count. A tile is made float once, as samples less black in row-major
layout, and is not divided by the span: the SSIM map is invariant under a
common scale of x, y, C1 and C2, so the constants take the span instead,
C = (K * span)**2, which is the normalized L = 1 form. Its four windowed means
are banded block products for both passes (see _windowed_mean), and the map is
built in place on them. A task's casts are plain copies into its buffers, never
a mixed-type ufunc, which would allocate numpy's own buffers in the worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, TooSmall
from .image import RawImage, _strip_map

PSNR_CAP_DB = 99.0

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_BLOCK = 16  # output rows or columns per block product; 16 beat 32 and 64 in the row pass
# OpenBLAS runs a product with m * n * k above 4 * 65536 on all its threads. On a 2-core VM the
# first such product in a fresh process stalled for about a second in 6 of 16 `bayerkit
# metrics` runs at 2048x3072, so ssim's column tiles keep its column-pass products within it
_BLAS_SERIAL_MNK = 4 * 65536


@dataclass(frozen=True)
class MetricReport:
    mse: float
    psnr_db: float
    ssim: float

    def to_json(self) -> str:
        return (
            f'{{"mse": {self.mse:.6f}, "psnr_db": {self.psnr_db:.6f}, '
            f'"ssim": {self.ssim:.6f}}}'
        )


def _check_comparable(a: RawImage, b: RawImage) -> None:
    if a.samples.shape != b.samples.shape:
        raise ShapeMismatch(f"shape {a.samples.shape} vs {b.samples.shape}")
    if a.pattern is not b.pattern:
        raise ShapeMismatch(f"pattern {a.pattern.value} vs {b.pattern.value}")
    if (a.black_level, a.white_level) != (b.black_level, b.white_level):
        raise ShapeMismatch("black/white levels differ")


def mse(a: RawImage, b: RawImage) -> float:
    """Mean squared error in normalized units, correctly rounded."""
    _check_comparable(a, b)
    span = int(a.white_level) - int(a.black_level)  # exact, any int type
    sums = _strip_map(lambda r0, n, bufs: _square_sum(a, b, r0, n, bufs), a.height,
                      lambda rows: [np.empty(rows * a.width, np.int64) for _ in range(2)],
                      a.samples.size)
    return sum(sums) / (span * span * a.samples.size)


def _psnr_db(m: float) -> float:
    return PSNR_CAP_DB if m == 0.0 else min(PSNR_CAP_DB, float(10.0 * np.log10(1.0 / m)))


def psnr(a: RawImage, b: RawImage) -> float:
    """10 * log10(1 / MSE) with peak 1, capped at 99.0 dB; identical images read the cap."""
    return _psnr_db(mse(a, b))


def _gaussian_window(n: int, sigma: float) -> np.ndarray:
    offsets = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    w = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return w / w.sum()


_WINDOW = _gaussian_window(_SSIM_WINDOW, _SSIM_SIGMA)


def _band(cols: int) -> np.ndarray:
    """Read-only (cols + n - 1, cols) matrix whose column j holds the window in rows j .. j + n - 1;
    its top-left (t + n - 1, t) corner is the band of t < cols columns."""
    band = np.zeros((cols + _SSIM_WINDOW - 1, cols))
    for j in range(cols):
        band[j : j + _SSIM_WINDOW, j] = _WINDOW
    band.flags.writeable = False
    return band


_BAND = _band(_BLOCK)


def _head(buf: np.ndarray, shape) -> np.ndarray:
    """The C-contiguous array of ``shape`` over the first samples of the flat buffer buf."""
    return np.ndarray(shape, buf.dtype, buf)


def _windowed_mean(x: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Weighted local mean of the C-contiguous x over every fully interior window (valid mode),
    row-major (H-n+1, W-n+1), in the head of the flat buffer ``out``; the column pass goes to
    the head of the flat buffer ``rows``. Both passes are banded block products with
    b = _BLOCK: the column pass views x as (H-n+1) // b row blocks of b + n - 1 rows at
    stride b and multiplies the (b, b + n - 1) transposed band by each, one product per block
    over all W columns, which ssim's tiles keep within _BLAS_SERIAL_MNK; the row pass views
    that result as (W-n+1) // b column blocks of width b + n - 1 at stride b and multiplies
    each by the band. Both write straight into their results, and the last (H-n+1) % b rows and
    (W-n+1) % b columns take the band's corner. A tile then costs a few BLAS products per
    mean, not one per output line."""
    (h, wd), n, f, b, band = x.shape, _SSIM_WINDOW, x.itemsize, _BLOCK, _BAND
    m, k = h - n + 1, wd - n + 1  # output rows and columns
    rows = _head(rows, (m, wd))
    nb, tail = divmod(m, b)
    np.matmul(band.T, np.ndarray((nb, b + n - 1, wd), x.dtype, x, 0, (b * wd * f, wd * f, f)),
              out=rows[: nb * b].reshape(nb, b, wd))
    np.matmul(band[: tail + n - 1, :tail].T, x[nb * b :], out=rows[nb * b :])
    out = _head(out, (m, k))
    nb, tail = divmod(k, b)
    np.matmul(np.ndarray((nb, m, b + n - 1), x.dtype, rows, 0, (b * f, wd * f, f)), band,
              out=np.ndarray((nb, m, b), x.dtype, out, 0, (b * f, k * f, f)))
    np.matmul(rows[:, nb * b :], band[: tail + n - 1, :tail], out=out[:, nb * b :])
    return out


def _tile_bufs(n: int, t: int) -> tuple:
    """One SSIM task's buffer set, which each tile of its strip reuses: flat float64 buffers for
    tiles of at most n window rows and t window columns, x, y and x * y with their halo, the
    column pass, and the four windowed means of _ssim_map_sum. A ninth buffer made an inline
    512x512 ssim 2-4% slower."""
    halo = _SSIM_WINDOW - 1
    return (*(np.empty((n + halo) * (t + halo)) for _ in range(3)), np.empty(n * (t + halo)),
            *(np.empty(n * t) for _ in range(4)))


def _ssim_map_sum(x: np.ndarray, y: np.ndarray, span: int, bufs: tuple) -> float:
    """Sum of the SSIM map over the fully interior windows of x and y, two tiles of samples
    less black: the map is invariant under a common scale of x, y, C1 and C2, so the
    constants take the span, (K * span)**2, instead of the tiles being divided by it.
    Works in place on the four windowed means, in the buffers ``bufs`` after x and y of a
    _tile_bufs set; x and y are overwritten, and mu_x * mu_y goes where x * y was."""
    c1, c2 = (_SSIM_K1 * span) ** 2, (_SSIM_K2 * span) ** 2
    xy, rows, *maps = bufs
    mu_x, mu_y = _windowed_mean(x, rows, maps[0]), _windowed_mean(y, rows, maps[1])
    e_xy = _windowed_mean(np.multiply(x, y, out=_head(xy, x.shape)), rows, maps[2])
    # var_x + var_y appears only as a sum, so x*x + y*y is filtered once
    e_sq = _windowed_mean(np.add(np.square(x, out=x), np.square(y, out=y), out=x), rows, maps[3])
    mu_xy = np.multiply(mu_x, mu_y, out=_head(xy, mu_x.shape))
    mu_sq = np.add(np.square(mu_x, out=mu_x), np.square(mu_y, out=mu_y), out=mu_x)
    e_xy -= mu_xy
    e_xy *= 2.0
    e_xy += c2  # 2 cov + C2
    e_sq -= mu_sq
    e_sq += c2  # var_x + var_y + C2
    mu_xy *= 2.0
    mu_xy += c1
    mu_sq += c1
    num = np.multiply(mu_xy, e_xy, out=mu_xy)
    num /= np.multiply(mu_sq, e_sq, out=mu_sq)
    return float(np.sum(num))


def _square_sum(a: RawImage, b: RawImage, r0: int, n: int, bufs: list) -> int:
    """The exact sum of the squared differences of rows r0 .. r0 + n - 1 of the two mosaics, as
    a Python int: both are cast-copied into the int64 buffers ``bufs``, a copy that, unlike a
    mixed-type subtraction, needs no buffer of numpy's own."""
    d, e = (_head(buf, (n, a.width)) for buf in bufs)
    d[...], e[...] = a.samples[r0 : r0 + n], b.samples[r0 : r0 + n]
    np.subtract(d, e, out=d)
    return int(np.einsum("ij,ij->", d, d))  # exact: d*d < 2**32 per sample


def _ssim_tile(a: RawImage, b: RawImage, tile: tuple, bufs: tuple) -> float:
    """The SSIM map sum of one tile (r0, n, c0, t), n window rows from r0 by t window columns
    from c0, read with its halo into the head of the buffer set ``bufs`` (_tile_bufs), in C
    order whatever the samples' own: _windowed_mean views x with row-major strides."""
    r0, n, c0, t = tile
    halo, black = _SSIM_WINDOW - 1, int(a.black_level)
    x, y = (_head(buf, (n + halo, t + halo)) for buf in bufs[:2])
    for img, v in ((a, x), (b, y)):
        v[...] = img.samples[r0 : r0 + n + halo, c0 : c0 + t + halo]  # a cast copy: exact
        v -= black
    return _ssim_map_sum(x, y, int(a.white_level) - black, bufs[2:])


def ssim(a: RawImage, b: RawImage) -> float:
    """Mean local structural similarity of the two mosaics as gray planes. The map is summed
    over tiles of one row strip's window rows (image._row_strips of the H - 10 window rows) by
    at most 620 window columns, the widest whose column-pass products stay within
    _BLAS_SERIAL_MNK, each read with its halo, so memory and cache use follow the tile, not
    the frame. The tiles' columns are listed once per call; each strip's tiles are one task on
    the strip pool, which makes the strips, and their sums are added in tile order, so the
    result does not depend on the pool."""
    _check_comparable(a, b)
    if min(a.height, a.width) < _SSIM_WINDOW:
        raise TooSmall(f"SSIM needs at least {_SSIM_WINDOW}x{_SSIM_WINDOW}, got {a.height}x{a.width}")
    halo = _SSIM_WINDOW - 1  # rows or columns a window reads past its first
    wide = a.width - halo
    step = _BLAS_SERIAL_MNK // (_BLOCK * (_BLOCK + halo)) - halo  # window columns per tile
    cols = [(c0, min(step, wide - c0)) for c0 in range(0, wide, step)]  # each strip's tiles
    map_sum = 0.0
    # one task per strip of window rows
    for sums in _strip_map(lambda r0, n, bufs: [_ssim_tile(a, b, (r0, n, *c), bufs) for c in cols],
                           a.height - halo, lambda rows: _tile_bufs(rows, min(step, wide)),
                           a.samples.size):
        for tile_sum in sums:  # in tile order, as one loop would
            map_sum += tile_sum
    return map_sum / ((a.height - halo) * wide)


def metric_report(a: RawImage, b: RawImage) -> MetricReport:
    m = mse(a, b)
    return MetricReport(mse=m, psnr_db=_psnr_db(m), ssim=ssim(a, b))
