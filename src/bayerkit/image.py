"""Container types for raw mosaics, packed 4-plane images and RGB images, and the strip engine.

The three containers share one frozen-array base: each names only how its constructor copies
its array and what it checks. Each keeps its frame, or its planes, in the last two axes of its
array, so ``height`` and ``width`` are defined once, on the base.

The frame's geometry lives here too. Every full-frame kernel runs over the (r0, n) row strips
of ``_row_strips``, which also allocates the kernel's reused strip buffers, sized from
``STRIP_ROWS`` when the call starts; no other function reads ``STRIP_ROWS``. A kernel that reads
rows beneath its own slices them itself. Every kernel that reads past a plane's edge, the
Gaussian, the median and the bilinear demosaic, reads its planes through the strips that
``_halo_fill`` fills, the one place that builds such a halo, by one rule: the strip is the
matching rows and columns of np.pad(np.pad(planes, halo, "edge"), radius, "reflect"). With
step 2 the engine reads a mosaic's own rows, and its strip interleaves that rule's strips of
the four site planes, each with its own halo; ``denoise_pipeline`` runs each filter once per
frame so. SSIM stays outside the engine: it reads only fully interior windows, so it has no
edge rule, and slices the rows beneath its strip itself. ``pack``, ``unpack``, ``mosaic`` and
the demosaic, which keep their own strips of the four half-resolution planes, read and write
them through one site view, ``_sites``. The Gaussian's row pass and the demosaic's means run
their elementwise steps on ``_span``, the flat span of a slice of a C-contiguous strip buffer:
numpy runs one 1-D loop over it, where the same step over the 2-D slice costs nearly twice as
much.

SSIM's strips of tiles, MSE's strips, the demosaic's strips, each with its PPM quantize, and
the Gaussian's and the median's strips run on the strip pool, ``_strip_map``. A caller hands
it the height of the rows it strips, their step and the frame's samples; the pool makes the
strips of ``_row_strips`` from them and runs one task (r0, n, bufs) per strip on min(CPUs of
the process, POOL_WORKERS) worker threads, whose results are consumed in strip order, so a sum
or a file comes out as one loop would make it: ``bayerkit demosaic`` and ``bayerkit denoise``
store each strip big-endian in its task, and write it in strip order. numpy releases the GIL
inside its ufuncs and BLAS products, so the tasks overlap. Each worker writes into a buffer set
that the caller's new_bufs(rows) made for the tallest strip before any task ran, so a call's
memory does not depend on the threads' timing. A call of one task, whose tallest strip holds at most
POOL_MIN_SAMPLES samples, in a process of one CPU or made inside a strip task runs inline. The
gate reads one strip's samples, never the frame's, so a frame's lanes, and its buffer sets,
depend on its width and step, not on its height. The workers start on the first call that
needs them.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .patterns import BayerPattern

# Rows per strip of every full-frame kernel; a kernel on a mosaic's own rows takes
# STRIP_ROWS // 2 of them, STRIP_ROWS // 4 rows of each site plane, so its strip holds as many
# samples in all as one plane strip, a quarter of them of each plane. A strip's buffers grow
# with the frame's width, never its height, and they are in cache only at modest widths: at
# 2048x3072 the demosaic's halo strip of the four planes, (2, 2, 66, 1538), is 3.2 MB on its
# own, past the 2 MiB L2 of one core of a 2-core Xeon. SSIM alone also cuts its strips into
# column tiles. The Gaussian through denoise_pipeline on a 2048x3072 mosaic took 17.8-17.9 ms
# on 32-row mosaic strips and 30.1-31.1 ms on 64-row ones (2-core Xeon, numpy 2.4, best of 7 in
# two alternated rounds).
STRIP_ROWS = 64


def _row_strips(h: int, *widths: int, dtype=np.float64, step=1):
    """(r0, n, *bufs) per strip of an h-row frame, top to bottom: it owns rows r0 .. r0 + n - 1,
    and n <= max(1, STRIP_ROWS // step), so a frame whose site planes interleave with ``step``
    (2 on a mosaic) gets strips of STRIP_ROWS // 4 rows of each of its four planes: as many
    samples in all as one plane's own strip, a quarter of them of each plane. Each width asks
    for one strip buffer of ``dtype``, allocated once, at the first strip, with as many rows as
    the tallest strip, by STRIP_ROWS as it reads then; each strip gets its C-contiguous
    (n, width) head, which the next strip overwrites. With h alone it yields (r0, n). A caller
    that reads rows beneath its own slices them, and a slice stops at the frame."""
    rows = max(1, STRIP_ROWS // step)
    bufs = [np.empty((min(rows, h), width), dtype) for width in widths]
    for r0 in range(0, h, rows):
        n = min(rows, h - r0)
        yield (r0, n, *(buf[:n] for buf in bufs))


# Worker threads of the strip pool at most. Each worker's task writes into a buffer set of its
# own, so the cap also bounds the sets a call holds: two keep `bayerkit demosaic` of a
# 1024x1536 frame within its pinned peak, where three did not.
POOL_WORKERS = 2
# Samples of a call's tallest strip at or below which its strips run inline, at any frame
# height; a task that small is too short to pay for waking a worker. At 512x512 the pool made
# `eval_sweep` items 4.9 ms slower, mse 0.31-0.33 -> 0.46-0.51 ms and ssim only 4.2-4.4 ->
# 3.4-4.1 ms, and pooling the 512x512 demosaic, whose strips hold 65,536 samples, cut
# `eval_sweep` by 8-11% in four benchmark pairs; so those stay inline. Above it the pool
# gains: the Gaussian on a 2048x3072 mosaic, strips of 32 x 3,072 = 98,304 samples, took
# 14-18 ms pooled vs 20-21 ms inline, median:2 98-113 vs 171-180 ms, and ssim at 1024x1024
# 17.3-17.9 -> 14.5-16.3 ms (2-core Xeon, numpy 2.4, best of 7 to 15 in three alternated
# rounds).
POOL_MIN_SAMPLES = 1 << 16


def _cpus() -> set:
    """The CPUs this process may run on; all of them where the OS does not say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity(0) if affinity else set(range(os.cpu_count() or 1))


def _lanes(tasks: int, samples: int) -> int:
    """How many tasks of a call whose tallest strip holds ``samples`` samples run at once:
    min(CPUs this process may run on, POOL_WORKERS), and 1, inline, for a call of one task,
    of strips of at most POOL_MIN_SAMPLES samples, or made in a strip task, whose own worker
    would never run a task queued behind it."""
    if (tasks < 2 or samples <= POOL_MIN_SAMPLES
            or threading.current_thread().name.startswith("bayerkit-strip-")):
        return 1
    return min(len(_cpus()), POOL_WORKERS)


# the strip pool of each lane count: one single-thread executor per lane
_POOLS: dict = {}
# a pool inherited through fork has no threads, so a task submitted to it would never run
os.register_at_fork(after_in_child=_POOLS.clear)


def _workers(lanes: int) -> list:
    """One single-thread executor per lane, made on the first call that needs them, so importing
    bayerkit, and every call that runs inline, starts no thread and imports no executor. Racing
    first callers share one pool, with no lock: each may make a list, but setdefault keeps one,
    and an executor starts its thread only on its first task, so a list that loses starts
    none."""
    from concurrent.futures import ThreadPoolExecutor

    return _POOLS.get(lanes) or _POOLS.setdefault(
        lanes, [ThreadPoolExecutor(1, f"bayerkit-strip-{k}", _place, (k,)) for k in range(lanes)])


def _place(k: int) -> None:
    """Worker k's first step: it moves to the k-th of the process's CPUs, then takes them all
    back. Where the kernel does not balance load between CPUs (a cpuset with
    sched_load_balance 0), a thread stays on the CPU of the thread that started it, so every
    worker would share the caller's; elsewhere this only sets where the worker starts. Best
    effort: a refusal leaves the worker where it is."""
    cpus = sorted(_cpus())
    try:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})  # 0: this thread
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


def _strip_map(task, h: int, new_bufs, samples: int, step=1):
    """task(r0, n, bufs) for each strip (r0, n) of _row_strips(h, step=step), the strips of an
    h-row frame of ``samples`` samples whose site planes interleave with ``step``, yielded in
    strip order, on the strip pool.

    The call has _lanes(len(strips), samples * rows // h) lanes, where ``rows`` is the tallest
    strip's height, so the gate reads that strip's share of the frame's samples. Each lane has
    one worker thread and one buffer set, made by new_bufs(rows) in the caller's thread before
    any task runs; a task writes only into its lane's set, so the call's memory does not depend
    on the threads' timing, and a set stays in the cache of its worker's CPU.
    Task i runs in lane i % lanes, and starts only once the result of task i - lanes is
    yielded and the next one asked for, so a result may be a view of its set. With one lane
    every task runs inline, in the caller's thread. A task's exception is raised in its turn;
    on it, on an exception raised in the caller's thread while it waits on a task, such as a
    KeyboardInterrupt, or when the caller closes the generator, the tasks already started
    finish before it returns, so the pool is left idle."""
    strips = list(_row_strips(h, step=step))
    # the first strip is the tallest: the gate reads its samples, the sets are made for it
    lanes = _lanes(len(strips), samples * strips[0][1] // h)
    sets = [new_bufs(strips[0][1]) for _ in range(lanes)]
    if lanes == 1:
        for r0, n in strips:
            yield task(r0, n, sets[0])
        return
    workers, running = _workers(lanes), []
    # a task leaves ``running`` only once its result is taken, so the finally waits on it too
    # when an interrupt in the caller's thread ends the wait
    try:
        for i in range(len(strips) + lanes):
            if i >= lanes:  # lane i % lanes is free once the result of task i - lanes is taken
                yield running[0].result()
                del running[0]
            if i < len(strips):
                running.append(workers[i % lanes].submit(task, *strips[i], sets[i % lanes]))
    finally:  # every task started finishes before the call returns
        for future in running:
            future.exception()


def _halo_fill(planes: np.ndarray, radius=1, halo=((1, 1), (1, 1)), step=1):
    """(fill, new_buf) for the halo strips of the uint16 planes (..., h, w): new_buf(rows,
    dtype) makes a buffer for strips of at most ``rows`` rows, and fill(r0, n, buf) writes the
    strip of rows r0 .. r0 + n - 1 into the C-contiguous head of such a buffer and returns it,
    so fill is a strip task of ``_strip_map``. The strip is (..., n + 2 * pad, w + 2 * pad) of
    the buffer's dtype, pad = step * radius, the window halo around those rows and columns
    0 .. w - 1. One rule sets what lies past the plane: the strip is those rows and columns of
    np.pad(np.pad(planes, halo, "edge"), radius, "reflect"), where ``halo`` is ((top, bottom),
    (left, right)) and plane sample (i, j) sits at (i + top + radius, j + left + radius).
    Mosaic reflect-101 keeps a sample's parity, so in plane space it is the edge halo a
    working pattern gives a plane; the default, radius 1 and one edge row and column on each
    side, is a one-sample edge-duplicated border.

    With step 2, ``planes`` is an (h, w) mosaic, sides even, and the strip interleaves the
    strips of its four site planes [a::2, b::2], so same-site neighbours sit two samples apart;
    its strips are those of ``_strip_map(..., step=2)``, max(1, STRIP_ROWS // 2) mosaic rows
    tall. ``halo`` then counts mosaic rows and columns, each a copy of the nearest sample of
    its own site: plane [a, b] gets (top + a) // 2 edge rows on top and (bottom + 1 - a) // 2
    at the bottom, and its columns likewise by b. So ((dy, dy), (dx, dx)) is unify_pad's
    reflect-101 pad by an origin shift, and ((2, 2), (2, 2)) gives every plane one edge row and
    column.

    The index maps are made once, here, so strips may be filled in any order, each into a
    buffer of its own; the next strip filled into a buffer overwrites it, and the caller may
    overwrite it too."""
    *lead, h, w = planes.shape
    pad = step * radius
    # the index maps of the rule: row i of the strip at r0 is row rows[r0 + i], and strip
    # column j is column cols[j], which the strip holds at cols[j] + pad. Each axis holds m
    # samples of each phase a; phase a's map, made by the rule on its own halo, is interleaved
    # at a, a + step, ... as the samples step * map + a
    rows, cols = ((step * np.stack([
        np.pad(np.arange(-t, m + b).clip(0, m - 1), radius, "reflect")[t : t + m + 2 * radius]
        for t, b in (((top + a) // step, (bottom + step - 1 - a) // step) for a in range(step))
    ], -1) + np.arange(step)).ravel() for m, (top, bottom) in zip((h // step, w // step), halo))

    def fill(r0: int, n: int, buf: np.ndarray) -> np.ndarray:
        strip = np.ndarray((*lead, n + 2 * pad, w + 2 * pad), buf.dtype, buf)  # buf's head
        strip[..., pad : pad + n, pad : pad + w] = planes[..., r0 : r0 + n, :]
        for i in (*range(pad), *range(pad + n, n + 2 * pad)):  # the halo rows
            strip[..., i, pad : pad + w] = planes[..., rows[r0 + i], :]
        for j in (*range(pad), *range(pad + w, w + 2 * pad)):  # then the halo columns
            strip[..., j] = strip[..., cols[j] + pad]
        return strip

    def new_buf(rows: int, dtype=np.float64) -> np.ndarray:
        return np.empty((*lead, rows + 2 * pad, w + 2 * pad), dtype)

    return fill, new_buf


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
