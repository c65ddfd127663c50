"""Synthetic scenes, mosaicing, sensor noise, and a bilinear demosaic.

This is the desk-scale test bed: generate a smooth, chroma-rich RGB scene,
sample it through any Bayer pattern, optionally add signal-dependent noise,
and reconstruct with bilinear demosaicing. Bilinear is chosen deliberately:
it is a linear operator that is exact for affine signals, each output pixel
depends only on a 3x3 neighborhood, and pass-through at a site's own channel
is bit-exact. Those three properties make it a sharp structural oracle: any
channel misassignment upstream shows up as a large, localized demosaic error
instead of vanishing into a clever reconstruction.

The simulator builds every frame in row strips of image._row_strips, which
also hands each function its reused strip buffers, and no whole-frame
float temporary exists. gen_scene allocates its three planes before
anything else, so a frame too large to hold is refused as BadDimensions
before any work, and then draws every term, since no draw depends on a
sample. Each 64-row strip of each plane is filled with its base, gets its
terms added in draw order and is clipped in place; the planes are then
adopted by the RgbImage, not copied. A term along one axis takes the sine
of the strip's column (or of the row) and broadcasts it; a term along both
axes fills one reused strip buffer. mosaic quantizes each 64-plane-row
strip of each block position in one reused float buffer: it reads the
sites [a, b] of the scene plane of the channel the pattern puts at block
position k = 2a + b and stores them into the same sites of its output,
both through the site view image._sites, built once per call. And
add_noise uses three strip buffers (the working strip, the deviations and
the normals): numpy's standard_normal drawn strip by strip into a buffer
gives the whole-frame stream. So gen_scene holds its planes and one strip,
and mosaic and add_noise hold their uint16 result and their strips.

The demosaic runs on the four packed half-resolution planes, read as the
site view image._sites of the mosaic through the edge-halo strips that
image._halo_fill makes: 64 plane rows with one edge-duplicated row and column
each side. Mosaic reflect-101 keeps a neighbor's parity, so in plane space
it is edge duplication, and every neighbor term is a shifted slice of one
plane, which the mean reads as its flat span (image._span) and sums into a
flat span of one strip buffer, rows as long as the strip's. Each strip is
clamped, less black and divided by the span in place, in float64; the clamp
and the subtraction are exact. Each (block position, channel) result is a
quarter of the strip's samples. There is one demosaic kernel, _demosaic, whose
strips are tasks on the strip pool (image._strip_map), each with its own halo
and mean buffers, and each finished in its task by its consumer: demosaic_bilinear
stores the strip's rows of its float frame, and ``bayerkit demosaic`` quantizes
them into the strip's PPM buffer, which the CLI writes in strip order.
Every sample of every function here takes the whole-frame float64 steps in
the same order, so neither the strip height nor the packing shows in the
bytes.

All randomized functions are pure functions of their seed (numpy PCG64 with
a pinned draw order). 16-bit output is quantized as floor(x + 0.5): that is
round-half-away-from-zero for x >= 0, and add_noise clips every x < 0 to black.
mosaic and add_noise run np.floor, as ``+ black`` or the clip follows it; the PPM writer of
``bayerkit demosaic`` leaves that floor to its uint16 cast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions
from .image import RawImage, RgbImage, _adopt, _halo_fill, _row_strips, _sites, _span, _strip_map
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
            try:  # add_noise squares it
                finite = math.isfinite(v * v)
            except OverflowError:  # an int whose square is beyond float range
                finite = False
            if not finite or v < 0:
                raise ValueError(f"{name} must be >= 0 with a finite square, got {v}")
        # add_noise sees a normalized signal of at most 65535 (span 1); past the loop both
        # squares fit a float, and float arithmetic overflows to inf, not OverflowError
        if not math.isfinite(float(self.sigma_read**2) + float(self.sigma_shot**2) * 65535):
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
    try:  # first: numpy refuses a shape it cannot index, the allocator one it cannot grant
        planes = np.empty((3, height, width))
    except (ValueError, MemoryError) as e:
        raise BadDimensions(f"a {height}x{width} scene is too large: {e}") from None
    rng = np.random.Generator(np.random.PCG64(seed))
    bases = rng.permutation(_BASE_LEVELS) + rng.uniform(-0.02, 0.02, size=3)
    yy = np.arange(height, dtype=np.float64)[:, None] / height
    xx = np.arange(width, dtype=np.float64)[None, :] / width
    # every term drawn first, in the pinned order: per channel and term, (ky, kx, amp, phase)
    draws = [[(*divmod(int(rng.integers(1, 16)), 4), rng.uniform(0.04, 0.10),
               rng.uniform(0.0, 2.0 * np.pi)) for _ in range(_TERMS_PER_CHANNEL)] for _ in bases]
    for r0, n, buf in _row_strips(height, width):  # each sample: the whole-frame steps, in order
        y = yy[r0 : r0 + n]
        for plane, base, terms in zip(planes[:, r0 : r0 + n], bases, draws):
            plane[...] = base
            for ky, kx, amp, phase in terms:  # (ky, kx) in {0..3}^2 minus (0,0)
                if not (kx and ky):  # one row or column, broadcast: 0 * xx + v adds 0.0 to v >= 0
                    plane += amp * np.sin(2.0 * np.pi * (kx * xx if kx else ky * y) + phase)
                    continue
                b = np.add(kx * xx, ky * y, out=buf)
                b *= 2.0 * np.pi
                b += phase
                np.sin(b, out=b)
                b *= amp
                plane += b
            np.clip(plane, 0.0, 1.0, out=plane)
    return _adopt(RgbImage, planes)


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
    # per block position k = 2a + b: the output's sites [a, b], and the same sites of the plane
    # of the channel the pattern puts there
    sites = [(_sites(out)[a, b], _sites(rgb.planes[CHANNEL_INDEX[ColorChannel(letter)]])[a, b])
             for (a, b), letter in zip(np.ndindex(2, 2), pattern.value)]
    for r0, n, buf in _row_strips(rgb.height // 2, rgb.width // 2):  # plane rows
        for dst, src in sites:
            x = np.multiply(src[r0 : r0 + n], scale, out=buf)
            x += 0.5
            np.floor(x, out=x)
            x += black_level
            dst[r0 : r0 + n] = x
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
    rng = np.random.Generator(np.random.PCG64(seed))
    out = np.empty((img.height, img.width), dtype=np.uint16)
    # the working strip, the deviations, the normals; chunked draws give the whole-frame stream
    for r0, n, xs, ss, zs in _row_strips(img.height, img.width, img.width, img.width):
        x = np.subtract(img.samples[r0 : r0 + n], img.black_level, out=xs, dtype=np.float64)
        x /= span
        s = np.clip(x, 0.0, None, out=ss)  # then the standard deviation, then the noise
        s *= params.sigma_shot**2
        s += params.sigma_read**2
        np.sqrt(s, out=s)
        s *= rng.standard_normal(out=zs)
        x += s
        x *= span
        x += 0.5
        np.floor(x, out=x)
        x += img.black_level
        np.clip(x, img.black_level, img.white_level, out=x)
        out[r0 : r0 + n] = x
    return _adopt(RawImage, out, img.pattern, img.black_level, img.white_level)


def demosaic_bilinear(img: RawImage) -> RgbImage:
    """Average the nearest same-channel neighbors at every site.

    Known channels pass through exactly. Missing ones are the mean of the
    available neighbors: 4 axial greens at an R/B site, 2 axial reds (blues)
    at a green site, 4 diagonal reds (blues) at the opposite site. Edges use
    reflect-101 neighbor indexing, which preserves index parity and hence
    channel identity. Output is normalized to [0, 1] by the image levels.
    """
    out = np.empty((3, img.height, img.width))

    def store(r0, n, results):  # each strip task stores its own rows
        for (ch, rows, cols), values in results:
            out[ch, r0 : r0 + n][rows, cols] = values

    for _ in _demosaic(img, store):
        pass
    return _adopt(RgbImage, out)


def _demosaic(img: RawImage, finish, new_bufs=lambda rows, width, size: ()):
    """The bilinear demosaic on the strip pool (image._strip_map): yields, in strip order,
    finish(r0, n, results, *bufs) for each strip of frame rows r0 .. r0 + n - 1, which runs in
    the strip's task. ``results`` are those of _demosaic_strip, read by ``finish`` before it
    returns. ``bufs`` is the caller's part of the task's buffer set, new_bufs(rows, width,
    size) for strips of at most ``rows`` frame rows of ``width`` samples whose results hold at
    most ``size`` samples each; the demosaic's own part is its halo strip and its mean's
    buffer. A frame under 4x4 is refused here, before any strip is made.
    """
    h, w = img.height, img.width
    if h < 4 or w < 4:
        raise BadDimensions(f"demosaic needs at least 4x4, got {h}x{w}")
    fill, new_buf = _halo_fill(_sites(img.samples))

    def task(r0, n, bufs):
        return finish(*_demosaic_strip(img, fill, r0, n, *bufs[:2]), *bufs[2:])

    # strips of the h / 2 plane rows; a strip of n plane rows is 2 * n frame rows
    return _strip_map(task, h // 2, lambda rows: (new_buf(rows), np.empty((rows, w // 2 + 2)),
                                                  *new_bufs(2 * rows, w, rows * w // 2)), h * w)


def _demosaic_strip(img: RawImage, fill, r0: int, n: int, buf: np.ndarray, acc: np.ndarray):
    """The bilinear demosaic of plane rows r0 .. r0 + n - 1 as (2 * r0, 2 * n, results), frame
    rows 2 * r0 .. 2 * (r0 + n) - 1. Each result is ((channel, rows, cols), values): the
    float64 values of one channel at one block position's sites [rows, cols] of the strip, a
    quarter of its samples.

    Works on the four packed planes, as the halo strip that ``fill`` (image._halo_fill of the
    site view image._sites(samples), which never copies) writes into ``buf``: a mosaic
    neighbor at reflect-101 is the strip's edge duplicate in plane space, so every term is a
    shifted slice of one plane. A mean of several terms is summed over their flat spans
    (image._span) in ``acc``, whose rows are as long as the strip's. The results are a
    generator of views of those two buffers, which the next result overwrites; read each
    before asking for the next.
    """
    span = float(img.white_level - img.black_level)
    pattern, pw = img.pattern.value, img.width // 2
    xs = fill(r0, n, buf)
    # samples outside [black, white] are legal in RawImage; clamp so the normalized plane
    # honors the [0, 1] contract. In float64 the clamp and the subtraction are exact, so the
    # bytes are those of a uint16 clamp
    np.clip(xs, img.black_level, img.white_level, out=xs)
    xs -= img.black_level
    xs /= span
    xs = xs.reshape(4, n + 2, pw + 2)

    def results():
        for k, own in enumerate(pattern):
            a, b = divmod(k, 2)
            for channel, ch in CHANNEL_INDEX.items():
                if channel.value == own:  # a pass-through: x / 1 is x
                    yield np.s_[ch, a::2, b::2], xs[k, 1:-1, 1:-1]
                    continue
                # the neighbor at (2i + a + dy, 2j + b + dx) is plane k ^ j's sample at
                # (i + (a + dy) // 2, j + (b + dx) // 2): each term is a flat span of the strip
                terms = [_span(xs[k ^ j], 1 + (a + dy) // 2, 1 + (b + dx) // 2, n, pw)
                         for j, offsets in _NEIGHBORS if pattern[k ^ j] == channel.value
                         for dy, dx in offsets]
                mean = np.add(terms[0], terms[1], out=_span(acc, 0, 0, n, pw))  # in term order
                for t in terms[2:]:
                    mean += t
                mean /= len(terms)
                yield np.s_[ch, a::2, b::2], acc[:n, :pw]

    return 2 * r0, 2 * n, results()
