"""Synthetic scenes, mosaicing, sensor noise, and a bilinear demosaic.

This is the desk-scale test bed: generate a smooth, chroma-rich RGB scene,
sample it through any Bayer pattern, optionally add signal-dependent noise,
and reconstruct with bilinear demosaicing. Bilinear is chosen deliberately:
it is a linear operator that is exact for affine signals, each output pixel
depends only on a 3x3 neighborhood, and pass-through at a site's own channel
is bit-exact. Those three properties make it a sharp structural oracle: any
channel misassignment upstream shows up as a large, localized demosaic error
instead of vanishing into a clever reconstruction.

All randomized functions are pure functions of their seed (numpy PCG64 with
a pinned draw order). 16-bit output is quantized as floor(x + 0.5): that is
round-half-away-from-zero for x >= 0, and add_noise clips every x < 0 to black.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions
from .image import RawImage, _adopt, _reduce
from .patterns import CHANNEL_INDEX, BayerPattern, ColorChannel

# Per-channel base levels for gen_scene. Separated by 0.15 so that even after
# the +/-0.02 jitter the channel means stay at least 0.11 apart: channel
# misassignment must be numerically visible, not a coin toss.
_BASE_LEVELS = np.array([0.35, 0.50, 0.65])
_TERMS_PER_CHANNEL = 3
# demosaic: (XOR taking a block position to its neighbors', their (dy, dx) in summation order)
_NEIGHBORS = (
    (2, ((-1, 0), (1, 0))),
    (1, ((0, -1), (0, 1))),
    (3, ((-1, -1), (-1, 1), (1, -1), (1, 1))),
)


@dataclass(frozen=True, eq=False)
class RgbImage:
    """Three full-resolution float planes (R, G, B) with values in [0, 1]. The constructor
    copies and freezes them; demosaic_bilinear freezes its fresh result instead."""

    planes: np.ndarray  # (3, H, W) float64

    def __post_init__(self):
        self._store(np.array(self.planes, dtype=np.float64, copy=True))

    def _store(self, arr: np.ndarray) -> None:
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise ValueError(f"expected (3, H, W) planes, got shape {arr.shape}")
        h, w = arr.shape[1:]
        if h < 2 or w < 2 or h % 2 or w % 2:
            raise ValueError(f"dimensions must be even and >= 2, got {h}x{w}")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both
            raise ValueError("RGB values must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "planes", arr)

    __reduce__ = _reduce

    @property
    def height(self) -> int:
        return self.planes.shape[1]

    @property
    def width(self) -> int:
        return self.planes.shape[2]


@dataclass(frozen=True)
class NoiseParams:
    """Heteroscedastic Gaussian noise: variance sigma_read^2 + sigma_shot^2 * signal.

    Both sigmas are in normalized units (signal scaled to [0, 1]). This is
    the standard read+shot approximation of Poisson-Gaussian sensor noise.
    """

    sigma_read: float
    sigma_shot: float

    def __post_init__(self):
        for name in ("sigma_read", "sigma_shot"):
            v = getattr(self, name)
            if not math.isfinite(v * v) or v < 0:  # add_noise squares it
                raise ValueError(f"{name} must be >= 0 with a finite square, got {v}")
        # add_noise sees a normalized signal of at most 65535 (span 1)
        if not math.isfinite(self.sigma_read**2 + self.sigma_shot**2 * 65535):
            raise ValueError("sigma_read**2 + sigma_shot**2 * 65535 must be finite")


def gen_scene(seed: int, height: int, width: int) -> RgbImage:
    """Smooth, chroma-rich synthetic scene, deterministic in the seed.

    Each channel is a distinct base level plus a sum of low-frequency
    sinusoidal gradients with integer cycle counts and per-channel random
    orientations and phases. Integer cycles make every sinusoid average to
    zero over the frame, so the per-channel means stay pinned to the
    well-separated base levels; amplitudes are capped so the signal never
    leaves [0, 1] and the clamp is a no-op in practice.
    """
    if height < 8 or width < 8 or height % 2 or width % 2:
        raise BadDimensions(f"scene dimensions must be even and >= 8, got {height}x{width}")
    rng = np.random.Generator(np.random.PCG64(seed))
    bases = rng.permutation(_BASE_LEVELS) + rng.uniform(-0.02, 0.02, size=3)
    yy = np.arange(height, dtype=np.float64)[:, None] / height
    xx = np.arange(width, dtype=np.float64)[None, :] / width
    planes = np.empty((3, height, width))
    for c in range(3):
        plane = np.full((height, width), bases[c])
        for _ in range(_TERMS_PER_CHANNEL):
            k = int(rng.integers(1, 16))  # (ky, kx) in {0..3}^2 minus (0,0)
            ky, kx = divmod(k, 4)
            amp = rng.uniform(0.04, 0.10)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            plane = plane + amp * np.sin(2.0 * np.pi * (kx * xx + ky * yy) + phase)
        planes[c] = plane
    return RgbImage(np.clip(planes, 0.0, 1.0))


def mosaic(
    rgb: RgbImage,
    pattern: BayerPattern,
    black_level: int = 0,
    white_level: int = 65535,
) -> RawImage:
    """Sample the scene through a color filter array.

    out(r, c) = floor(rgb[channel at (r, c)](r, c) * (white - black) + 0.5) + black.
    The scaled value is never negative, so this is round-half-away-from-zero.
    """
    scale = float(white_level - black_level)
    out = np.empty((rgb.height, rgb.width), dtype=np.uint16)
    for k, letter in enumerate(pattern.value):  # block position k = 2a + b
        a, b = divmod(k, 2)
        plane = rgb.planes[CHANNEL_INDEX[ColorChannel(letter)], a::2, b::2]
        out[a::2, b::2] = np.floor(plane * scale + 0.5) + black_level
    return _adopt(RawImage, out, pattern, black_level, white_level)


def add_noise(img: RawImage, params: NoiseParams, seed: int) -> RawImage:
    """Add signal-dependent Gaussian noise; output clipped to [black, white].

    Per-pixel variance in normalized units is sigma_read^2 + sigma_shot^2 * x,
    where x is the normalized signal (clamped at 0 for samples below the
    black level, which otherwise would imply negative variance).
    """
    if params.sigma_read == 0.0 and params.sigma_shot == 0.0:
        return img
    span = float(img.white_level - img.black_level)
    x = (img.samples.astype(np.float64) - img.black_level) / span
    var = params.sigma_read**2 + params.sigma_shot**2 * np.clip(x, 0.0, None)
    rng = np.random.Generator(np.random.PCG64(seed))
    noisy = x + rng.standard_normal(x.shape) * np.sqrt(var)
    out = np.floor(noisy * span + 0.5) + img.black_level
    out = np.clip(out, img.black_level, img.white_level)
    return _adopt(RawImage, out.astype(np.uint16), img.pattern, img.black_level, img.white_level)


def demosaic_bilinear(img: RawImage) -> RgbImage:
    """Average the nearest same-channel neighbors at every site.

    Known channels pass through exactly. Missing ones are the mean of the
    available neighbors: 4 axial greens at an R/B site, 2 axial reds (blues)
    at a green site, 4 diagonal reds (blues) at the opposite site. Edges use
    reflect-101 neighbor indexing, which preserves index parity and hence
    channel identity. Output is normalized to [0, 1] by the image levels.
    """
    if img.height < 4 or img.width < 4:
        raise BadDimensions(f"demosaic needs at least 4x4, got {img.height}x{img.width}")
    span = float(img.white_level - img.black_level)
    # samples outside [black, white] are legal in RawImage; clamp so the
    # normalized plane honors the [0, 1] contract
    norm = np.clip((img.samples.astype(np.float64) - img.black_level) / span, 0.0, 1.0)
    p = np.pad(norm, 1, mode="reflect")
    h, w = img.height, img.width
    shifted = {(dy, dx): p[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
               for dy in (-1, 0, 1) for dx in (-1, 0, 1)}
    out = np.empty((3, h, w))
    for k, own in enumerate(img.pattern.value):  # block position k = 2a + b
        a, b = divmod(k, 2)
        for channel, ch in CHANNEL_INDEX.items():
            groups = ((0, ((0, 0),)),) if channel.value == own else _NEIGHBORS
            terms = [shifted[offset][a::2, b::2] for j, offsets in groups
                     if img.pattern.value[k ^ j] == channel.value for offset in offsets]
            out[ch, a::2, b::2] = sum(terms[1:], terms[0]) / len(terms)
    return _adopt(RgbImage, out)
