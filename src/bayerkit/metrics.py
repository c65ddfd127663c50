"""PSNR and SSIM on raw mosaics, computed in normalized units.

Both metrics normalize samples by (white - black) and treat the mosaic as a
single grayscale plane. PSNR uses peak 1 and is capped at 99 dB, which a
bit-identical pair reaches and a near-identical one cannot pass, so reports
stay total and ordered. SSIM follows the reference formulation: 11-tap Gaussian
window with sigma 1.5, K1 = 0.01, K2 = 0.03, L = 1, and the mean is taken over
windows that fit entirely inside the frame (no padding).

Each metric is its own loop over the row strips of image._row_strips on the
uint16 inputs, so memory is bounded by the strip, not the frame, and each pays
only for its own reduction; metric_report runs both loops. MSE strips the frame
rows: the exact integer sum of the squared uint16 differences, so the one
division at the end, in Python integers, gives the correctly rounded MSE. SSIM
strips the H - _SSIM_WINDOW + 1 window rows, the top rows of the fully interior
windows, and cuts each strip into tiles of window columns the same way: a tile
of n window rows and t window columns reads its n + _SSIM_WINDOW - 1 frame rows
and t + _SSIM_WINDOW - 1 frame columns, so every window lies in exactly one
tile and every tile holds one. A tile is at most as wide as a column-pass
product within _BLAS_SERIAL_MNK, 630 frame columns, so each of its float64
arrays is at most 0.37 MB whatever the frame width. A tile is made float once,
as samples less black in row-major layout, and is not divided by the span: the
SSIM map is invariant under a common scale of x, y, C1 and C2, so the constants
take the span instead, C = (K * span)**2, which is the normalized L = 1 form.
Its four windowed means are banded block products for both passes (see
_windowed_mean), and the map is built in place on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, TooSmall
from .image import RawImage, _row_strips

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
    return sum(_square_sum(a.samples[r0 : r0 + n], b.samples[r0 : r0 + n])
               for r0, n in _row_strips(a.height)) / (span * span * a.samples.size)


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


def _windowed_mean(x: np.ndarray) -> np.ndarray:
    """Weighted local mean of the C-contiguous x over every fully interior window (valid mode),
    row-major (H-n+1, W-n+1). Both passes are banded block products with b = _BLOCK: the
    column pass views x as (H-n+1) // b row blocks of b + n - 1 rows at stride b and multiplies
    the (b, b + n - 1) transposed band by each, one product per block over all W columns, which
    ssim's tiles keep within _BLAS_SERIAL_MNK; the row pass views that result as (W-n+1) // b
    column blocks of width b + n - 1 at stride b and multiplies each by the band. Both write
    straight into their results, and the last (H-n+1) % b rows and (W-n+1) % b columns take the
    band's corner. A tile then costs a few BLAS products per mean, not one per output line."""
    (h, wd), n, f, b, band = x.shape, _SSIM_WINDOW, x.itemsize, _BLOCK, _BAND
    m, k = h - n + 1, wd - n + 1  # output rows and columns
    rows = np.empty((m, wd))
    nb, tail = divmod(m, b)
    np.matmul(band.T, np.ndarray((nb, b + n - 1, wd), x.dtype, x, 0, (b * wd * f, wd * f, f)),
              out=rows[: nb * b].reshape(nb, b, wd))
    np.matmul(band[: tail + n - 1, :tail].T, x[nb * b :], out=rows[nb * b :])
    out = np.empty((m, k))
    nb, tail = divmod(k, b)
    np.matmul(np.ndarray((nb, m, b + n - 1), x.dtype, rows, 0, (b * f, wd * f, f)), band,
              out=np.ndarray((nb, m, b), x.dtype, out, 0, (b * f, k * f, f)))
    np.matmul(rows[:, nb * b :], band[: tail + n - 1, :tail], out=out[:, nb * b :])
    return out


def _ssim_map_sum(x: np.ndarray, y: np.ndarray, span: int) -> float:
    """Sum of the SSIM map over the fully interior windows of x and y, two tiles of samples
    less black: the map is invariant under a common scale of x, y, C1 and C2, so the
    constants take the span, (K * span)**2, instead of the tiles being divided by it.
    Works in place on the four windowed means; x and y are overwritten."""
    c1, c2 = (_SSIM_K1 * span) ** 2, (_SSIM_K2 * span) ** 2
    mu_x, mu_y, e_xy = _windowed_mean(x), _windowed_mean(y), _windowed_mean(x * y)
    # var_x + var_y appears only as a sum, so x*x + y*y is filtered once
    e_sq = _windowed_mean(np.add(np.square(x, out=x), np.square(y, out=y), out=x))
    mu_xy = mu_x * mu_y
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


def _square_sum(a: np.ndarray, b: np.ndarray) -> int:
    """The exact sum of the squared differences of two uint16 arrays, as a Python int."""
    d = np.subtract(a, b, dtype=np.int64)
    return int(np.einsum("ij,ij->", d, d))  # exact: d*d < 2**32 per sample


def ssim(a: RawImage, b: RawImage) -> float:
    """Mean local structural similarity of the two mosaics as gray planes. The map is summed
    over tiles of at most STRIP_ROWS window rows by 620 window columns, the widest whose
    column-pass products stay within _BLAS_SERIAL_MNK, each read with its halo, so memory and
    cache use follow the tile, not the frame."""
    _check_comparable(a, b)
    if min(a.height, a.width) < _SSIM_WINDOW:
        raise TooSmall(f"SSIM needs at least {_SSIM_WINDOW}x{_SSIM_WINDOW}, got {a.height}x{a.width}")
    black, span = int(a.black_level), int(a.white_level) - int(a.black_level)  # exact, any int type
    halo, map_sum = _SSIM_WINDOW - 1, 0.0  # rows or columns a window reads past its first
    tile = _BLAS_SERIAL_MNK // (_BLOCK * (_BLOCK + halo)) - halo  # window columns per tile
    for r0, n in _row_strips(a.height - halo):
        for c0 in range(0, a.width - halo, tile):
            # the tile's window rows and columns and their halo, in C order whatever the
            # samples' own: _windowed_mean views x with row-major strides
            x, y = (np.subtract(img.samples[r0 : r0 + n + halo, c0 : c0 + tile + halo], black,
                                dtype=np.float64, order="C") for img in (a, b))
            map_sum += _ssim_map_sum(x, y, span)
    return map_sum / ((a.height - halo) * (a.width - halo))


def metric_report(a: RawImage, b: RawImage) -> MetricReport:
    m = mse(a, b)
    return MetricReport(mse=m, psnr_db=_psnr_db(m), ssim=ssim(a, b))
