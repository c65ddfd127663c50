"""PSNR and SSIM on raw mosaics, computed in normalized units.

Both metrics normalize samples by (white - black) and treat the mosaic as a
single grayscale plane. PSNR uses peak 1 and caps at 99 dB for bit-identical
inputs so reports stay total. SSIM follows the reference formulation:
11-tap Gaussian window with sigma 1.5, K1 = 0.01, K2 = 0.03, L = 1, and the
mean is taken over windows that fit entirely inside the frame (no padding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, TooSmall
from .image import RawImage

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


def _normalized(img: RawImage) -> np.ndarray:
    span = float(img.white_level - img.black_level)
    return (img.samples.astype(np.float64) - img.black_level) / span


def mse(a: RawImage, b: RawImage) -> float:
    """Mean squared error in normalized units."""
    _check_comparable(a, b)
    d = _normalized(a) - _normalized(b)
    return float(np.mean(d * d))


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
    """Weighted local mean over every fully interior window (valid mode)."""
    n = w.size
    rows = np.lib.stride_tricks.sliding_window_view(x, n, axis=0)
    rows = rows @ w  # (H-n+1, W)
    cols = np.lib.stride_tricks.sliding_window_view(rows, n, axis=1)
    return cols @ w  # (H-n+1, W-n+1)


def ssim(a: RawImage, b: RawImage) -> float:
    """Mean local structural similarity of the two mosaics as gray planes."""
    _check_comparable(a, b)
    if a.height < _SSIM_WINDOW or a.width < _SSIM_WINDOW:
        raise TooSmall(
            f"SSIM needs at least {_SSIM_WINDOW}x{_SSIM_WINDOW}, got {a.height}x{a.width}"
        )
    x = _normalized(a)
    y = _normalized(b)
    w = _gaussian_window(_SSIM_WINDOW, _SSIM_SIGMA)

    mu_x = _windowed_mean(x, w)
    mu_y = _windowed_mean(y, w)
    var_x = _windowed_mean(x * x, w) - mu_x * mu_x
    var_y = _windowed_mean(y * y, w) - mu_y * mu_y
    cov = _windowed_mean(x * y, w) - mu_x * mu_y

    c1 = _SSIM_K1 * _SSIM_K1  # L = 1
    c2 = _SSIM_K2 * _SSIM_K2
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def metric_report(a: RawImage, b: RawImage) -> MetricReport:
    m = mse(a, b)
    return MetricReport(mse=m, psnr_db=_psnr_db(m), ssim=ssim(a, b))
