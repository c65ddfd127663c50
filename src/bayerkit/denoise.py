"""The denoising pipeline: BayerUnify by padding, a per-plane filter, and the crop back.

The filter stage is pluggable and deliberately simple: classical per-plane
filters stand in for whatever learned model would sit there in production.
What this module actually guarantees is the plumbing around the filter:

* ``denoise_pipeline`` gives what unify_pad -> pack -> denoise_packed -> unpack
  -> disunify_crop would give, without building any of those frames. Each filter
  runs once per frame, as one strip task per strip of the mosaic's own
  contiguous rows (image._strip_map with step 2), on the halo strips of
  image._halo_fill, where a site's same-site neighbours sit two samples apart,
  and writes the strip's rows of one output mosaic. The working pattern only
  sets each site plane's halo: mosaic reflect-101 keeps a sample's parity, so
  in plane space a padded row is the plane's edge row duplicated. With
  (dy, dx) = unify_offsets(pattern, work pattern), plane (a, b) gets one such row
  on top when dy and a == 1, one at the bottom when dy and a == 0, and likewise a
  column on the left or right by dx and b: the engine's halo ((dy, dy), (dx, dx)).
  ``denoise_packed`` runs the same kernels on each of its planes, neighbours one
  sample apart, with no halo. The identity filter returns the input itself.
* With the Gaussian filter the output does not depend on the working pattern
  at all. This holds exactly, not approximately, and it pins two design
  choices: the kernel has radius 1 per plane, and plane borders are extended
  by edge duplication. A radius-1 kernel with duplicated edges sees identical
  windows with or without a duplicated edge row or column, so the Gaussian
  ignores the halo; a wider kernel, or mirror extension, sees different values
  near the border and the working pattern would leak into the result.

The Gaussian computes in float64 and rounds by floor(x + 0.5) (half away from
zero, as x >= 0). Its weights sum to 1, so x + 0.5 lies in [0.5, 65535.5 +
3e-11] for every sigma, and the truncating uint16 cast of the store is that
floor: no floor and no clip pass is run. It runs on the edge-halo strips of
image._halo_fill, which give every site plane one edge row and column; its
new_bufs adds the one strip buffer of its column pass, and that pass covers the
halo columns too, so they come out of it as the duplicated edge columns the row
pass needs. The row pass runs on flat spans (image._span) of that buffer, at
offsets 0, step and 2 * step, and writes a flat span of the spent strip; the
samples between the spans' rows are computed and never stored. Each sample takes
the same float64 steps as in the whole-plane formula, so neither the strip size,
the spans nor the interleaving of the site planes show in the bytes.
The median is exact selection on uint16: a median of an odd count of samples
is one of them. Its windows do see the halo: it reads the uint16 strips of
image._halo_fill with its radius and the planes' halo, whose rule is the edge
pad by the halo, then the reflect-101 pad by the radius, and takes the windows of
the planes' own samples, with offsets ``step`` samples apart. Each window offset
of a strip is copied into one of the lane buffers of its new_bufs, and a
pruned min/max network over the lanes selects the middle one, so the median
holds one strip's lanes, never a plane-sized copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadFilterParam
from .image import PackedImage, RawImage, _adopt, _halo_fill, _span, _strip_map
from .patterns import BayerPattern
from .unify import unify_offsets


def _gaussian_3tap(sigma: float) -> tuple[float, float]:
    """Center and side weights of the radius-1 discrete Gaussian."""
    g1 = math.exp(-0.5 / max(sigma * sigma, 1e-300))  # 0.0 for any sigma < 0.0259 anyway
    total = 1.0 + 2.0 * g1
    return 1.0 / total, g1 / total


def _smooth_plane(plane: np.ndarray, out: np.ndarray, sigma: float, halo, step: int) -> tuple:
    # separable 3x3 kernel over same-site neighbours ``step`` apart; edge-duplicated borders,
    # so the halo changes no window (see module docstring). Each sample takes the float64 steps
    # (w1*up + w0*mid) + w1*down, then the same along the row.
    w0, w1 = _gaussian_3tap(sigma)
    w, s = plane.shape[1], step
    fill, new_buf = _halo_fill(plane, halo=((s, s), (s, s)), step=s)  # one edge row and column

    def task(r0: int, n: int, bufs) -> None:
        xs, cols = fill(r0, n, bufs[0]), bufs[1][:n]
        mid = np.multiply(w0, xs[s:-s], out=cols)
        xs *= w1
        mid += xs[: -2 * s]
        mid += xs[2 * s :]
        # the row pass runs on flat spans of cols and writes the spent strip, both with rows
        # w + 2 * step long; acc lies in [0.5, 65536), where the uint16 cast is its floor
        acc = np.multiply(w0, _span(mid, 0, s, n, w), out=_span(xs, 0, 0, n, w))
        mid *= w1
        acc += _span(mid, 0, 0, n, w)
        acc += _span(mid, 0, 2 * s, n, w)
        acc += 0.5
        out[r0 : r0 + n] = xs[:n, :w]

    # the float64 halo strip, and the column pass's buffer, which includes the halo columns
    return task, lambda rows: (new_buf(rows), np.empty((rows, w + 2 * s)))


def _batcher_pairs(n: int):
    """Compare-exchanges (lo, hi) of Batcher's odd-even merge sort, truncated to n lanes.

    Dropping every pair that touches a lane >= n leaves a sorting network for n
    lanes: the missing lanes act as +inf, which no compare-exchange moves.
    """
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        yield i + j, i + j + k
            k //= 2
        p *= 2


def _median_network(n: int) -> tuple[tuple[int, int, bool, bool], ...]:
    """The sort of n lanes pruned backwards to what the middle lane depends on.

    Each step is (lo, hi, keep_min, keep_max): whether the min and the max it
    writes to lanes lo and hi are still read later.
    """
    needed = {n // 2}
    steps = []
    for lo, hi in reversed(list(_batcher_pairs(n))):
        if lo in needed or hi in needed:
            steps.append((lo, hi, lo in needed, hi in needed))
            needed |= {lo, hi}
    return tuple(reversed(steps))


# 3x3: 24 compare-exchanges, 5x5: 113 (of 28 and 140 in the full sorts)
_MEDIAN_NETWORKS = {r: _median_network((2 * r + 1) ** 2) for r in (1, 2)}


def _median_plane(plane: np.ndarray, out: np.ndarray, radius: int, halo, step: int) -> tuple:
    w, size = plane.shape[1], 2 * radius + 1
    fill, new_buf = _halo_fill(plane, radius, halo, step)

    def task(r0: int, n: int, bufs) -> None:
        strip, (spare, *lanes) = fill(r0, n, bufs[0]), bufs[1][:, :n]
        for lane, (dy, dx) in zip(lanes, np.ndindex(size, size)):
            lane[...] = strip[step * dy : step * dy + n, step * dx : step * dx + w]
        for lo, hi, keep_min, keep_max in _MEDIAN_NETWORKS[radius]:
            a, b = lanes[lo], lanes[hi]
            if keep_min:  # the min goes to the spare, which takes lane lo; a is the new spare
                lanes[lo], spare = np.minimum(a, b, out=spare), a
            if keep_max:  # a still holds lane lo's samples
                np.maximum(a, b, out=b)
        out[r0 : r0 + n] = lanes[len(lanes) // 2]

    # the uint16 halo strip, and the network's spare and one lane per window offset
    return task, lambda rows: (new_buf(rows, np.uint16),
                               np.empty((size * size + 1, rows, w), np.uint16))


class _Filter(NamedTuple):
    parse_arg: Callable[[str], float | int] | None  # None: takes no argument
    accepts: Callable[[object], bool]
    expects: str  # what accepts() checks, for error messages
    # (plane, out, param, halo, step) -> (task, new_bufs): the strip task (r0, n, bufs) of
    # image._strip_map that filters rows r0 .. r0 + n - 1 of the uint16 plane, whose same-site
    # neighbours sit step apart, into out, and its new_bufs(rows); None: identity
    plane: Callable[[np.ndarray, np.ndarray, float | int, tuple, int], tuple] | None


def _finite_positive(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v) and v > 0


_FILTERS = {
    "identity": _Filter(None, lambda v: v is None, "no parameter", None),
    "gaussian": _Filter(float, _finite_positive, "a finite sigma > 0", _smooth_plane),
    "median": _Filter(
        int, lambda v: type(v) is int and v in (1, 2), "radius 1 or 2", _median_plane
    ),
}


@dataclass(frozen=True)
class DenoiserSpec:
    """Which per-plane filter to run, plus its parameter.

    identity (no parameter); gaussian with sigma > 0; median with radius 1
    or 2. Construction rejects unknown names and bad parameters with
    BadFilterParam.
    """

    name: str
    param: float | int | None = None

    def __post_init__(self):
        entry = _FILTERS.get(self.name)
        if entry is None:
            raise BadFilterParam(f"unknown filter {self.name!r}, expected one of {list(_FILTERS)}")
        if not entry.accepts(self.param):
            raise BadFilterParam(f"{self.name} takes {entry.expects}, got {self.param}")

    @classmethod
    def parse(cls, text: str) -> "DenoiserSpec":
        """Parse the CLI syntax: identity | gaussian:<sigma> | median:<radius>."""
        name, _, arg = text.partition(":")
        entry = _FILTERS.get(name)
        if entry is None or (entry.parse_arg is None) != (arg == ""):
            raise BadFilterParam(f"cannot parse denoiser spec: {text!r}")
        try:
            return cls(name, entry.parse_arg(arg) if arg else None)
        except ValueError:
            raise BadFilterParam(f"bad {name} parameter: {arg!r}") from None


def _denoise(img, arr: np.ndarray, spec: DenoiserSpec, step: int, dy: int, dx: int):
    """A new ``type(img)`` with img's metadata, over an array like ``arr``, img's own array.

    Each (h, w) frame in arr's last two axes, a PackedImage's planes or a RawImage's mosaic,
    is filtered into the same frame of the result, its same-site neighbours ``step`` apart,
    with the engine's halo ((dy, dy), (dx, dx)) (see ``image._halo_fill``): on a mosaic, the
    edge rows and columns that unify_pad's reflect-101 pad by the origin shift (dy, dx) gives
    each site plane. The filter runs as one strip task per strip of the frame's rows, each
    writing its rows of the result, on the strip pool (``image._strip_map``), inline. The
    identity filter returns img itself.
    """
    plane_filter = _FILTERS[spec.name].plane
    if plane_filter is None:
        return img
    out = np.empty_like(arr)
    for i in np.ndindex(arr.shape[:-2]):
        task, new_bufs = plane_filter(arr[i], out[i], spec.param, ((dy, dy), (dx, dx)), step)
        # samples 0 keeps every filter call inline, in the caller's thread, with one buffer
        # set. Under the size gate a tall frame would take two lanes and two sets where a short
        # one of the same width takes one, so the memory would grow with the frame's height.
        # The frame's samples go here once the pool's gate follows a strip's work
        for _ in _strip_map(task, arr.shape[-2], new_bufs, 0, step):
            pass
    return _adopt(type(img), out, img.pattern, img.black_level, img.white_level)


def denoise_packed(p: PackedImage, spec: DenoiserSpec) -> PackedImage:
    """Filter each plane independently; shape, order, pattern, levels unchanged.

    The identity filter returns the input object untouched. Median uses
    reflect-101 borders; the Gaussian uses edge duplication (required for
    working-pattern invariance of the pipeline, see module docstring).
    """
    return _denoise(p, p.planes, spec, 1, 0, 0)  # a packed plane has no halo


def denoise_pipeline(
    img: RawImage, work_pattern: BayerPattern, spec: DenoiserSpec
) -> RawImage:
    """Filter the planes of the input as if unified to the working pattern, packed, and
    restored: equal to ``disunify_crop(unpack(denoise_packed(pack(u), spec)), pad)`` with
    ``u, pad = unify_pad(img, work_pattern)``.

    Each filter runs once, on strips of the mosaic's own rows, where a site's neighbours sit
    two samples apart; the working pattern only sets each site plane's halo. Output
    dimensions and pattern always equal the input's. The identity filter returns the input
    itself; with the Gaussian the result is independent of work_pattern.
    """
    return _denoise(img, img.samples, spec, 2, *unify_offsets(img.pattern, work_pattern))
