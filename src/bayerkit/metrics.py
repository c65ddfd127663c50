"""PSNR and SSIM on raw mosaics, computed in normalized units.

Both metrics normalize samples by (white - black) and treat the mosaic as a
single grayscale plane. PSNR uses peak 1 and caps at 99 dB for bit-identical
inputs so reports stay total. SSIM follows the reference formulation:
11-tap Gaussian window with sigma 1.5, K1 = 0.01, K2 = 0.03, L = 1, and the
mean is taken over windows that fit entirely inside the frame (no padding).

Both are computed in one pass over the row strips of image._row_strips on the
uint16 inputs, so memory is bounded by the strip, not the frame. Each strip
reads _SSIM_WINDOW - 1 rows below its own, so every fully interior window lies
in exactly one strip. Sums accumulate per strip and are divided once at the end.
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
    """Mean squared error in normalized units."""
    return _strip_pass(a, b, with_ssim=False)[0]


def _psnr_db(m: float) -> float:
    if m == 0.0:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(1.0 / m))


def psnr(a: RawImage, b: RawImage) -> float:
    """10 * log10(1 / MSE) with peak 1; 99.0 dB when the images are identical."""
    return _psnr_db(mse(a, b))


def _gaussian_window(n: int, sigma: float) -> np.ndarray:
    offsets = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    w = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return w / w.sum()


def _windowed_mean(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted local mean over every fully interior window (valid mode), transposed:
    (W-n+1, H-n+1). Both passes are then one matrix-vector product per output line."""
    n = w.size
    rows = np.lib.stride_tricks.sliding_window_view(x, n, axis=0) @ w  # (H-n+1, W)
    return np.lib.stride_tricks.sliding_window_view(rows.T, n, axis=0) @ w


def _ssim_map_sum(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """Sum of the SSIM map over the fully interior windows of x and y."""
    c1 = _SSIM_K1 * _SSIM_K1  # L = 1
    c2 = _SSIM_K2 * _SSIM_K2
    mu_x, mu_y = _windowed_mean(x, w), _windowed_mean(y, w)
    mu_xy, mu_sq = mu_x * mu_y, mu_x * mu_x + mu_y * mu_y
    del mu_x, mu_y  # the strip's peak: three window-sized arrays are held from here on
    num = (2.0 * mu_xy + c1) * (2.0 * (_windowed_mean(x * y, w) - mu_xy) + c2)
    # var_x + var_y appears only as a sum, so x*x + y*y is filtered once
    num /= (mu_sq + c1) * ((_windowed_mean(x * x + y * y, w) - mu_sq) + c2)
    return float(np.sum(num))


def _strip_pass(a: RawImage, b: RawImage, with_ssim: bool) -> tuple[float, float | None]:
    """(MSE, SSIM or None) from one pass over row strips of the two mosaics."""
    _check_comparable(a, b)
    if with_ssim and min(a.height, a.width) < _SSIM_WINDOW:
        raise TooSmall(f"SSIM needs at least {_SSIM_WINDOW}x{_SSIM_WINDOW}, got {a.height}x{a.width}")
    windows = (a.height - _SSIM_WINDOW + 1) * (a.width - _SSIM_WINDOW + 1)
    w = _gaussian_window(_SSIM_WINDOW, _SSIM_SIGMA)
    black, span = a.black_level, float(a.white_level - a.black_level)
    sq_sum = map_sum = 0.0
    for _, n, rows in _row_strips(a.height, (0, _SSIM_WINDOW - 1)):
        x, y = ((img.samples[rows].astype(np.float64) - black) / span for img in (a, b))
        d = x[:n] - y[:n]
        sq_sum += float(np.sum(d * d))
        if with_ssim and len(x) >= _SSIM_WINDOW:
            map_sum += _ssim_map_sum(x, y, w)
    return sq_sum / a.samples.size, (map_sum / windows if with_ssim else None)


def ssim(a: RawImage, b: RawImage) -> float:
    """Mean local structural similarity of the two mosaics as gray planes."""
    return _strip_pass(a, b, with_ssim=True)[1]


def metric_report(a: RawImage, b: RawImage) -> MetricReport:
    m, s = _strip_pass(a, b, with_ssim=True)
    return MetricReport(mse=m, psnr_db=_psnr_db(m), ssim=s)
