"""Spans recorded by the benchmark around its calls into bayerkit.

Every layer call the benchmark makes goes through ``tracer.call(name, fn,
*args)``. The name is ``<layer>.<operation>``, where the layer is the
bayerkit module the function lives in. ``NoTrace`` calls the function and
records nothing; ``Tracer`` records a span per call (name, start, end,
parent, item id) and keeps everything in memory until the run writes it out.
``Tracer(memory=True)`` also records each span's tracemalloc peak. tracemalloc
slows Python-heavy calls several times over (``sample_plan``, argument
parsing), so span times come from a run without it and allocation peaks from
a separate run with it.

A span's self time is its duration minus the time its child spans cover.
Items are the root spans; their self time is the benchmark's own glue and is
reported as ``unattributed.share``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("rawfile", "unify", "packing", "denoise", "augment", "simulate", "metrics", "cli")
MB = 1024.0 * 1024.0


class NoTrace:
    """Untraced calls: the function is called directly."""

    def item(self, item_id: int):
        return contextlib.nullcontext()

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value):
        pass


@dataclass
class Span:
    sid: int
    name: str
    item: int
    parent: int | None
    start: float
    end: float = 0.0
    peak_bytes: int = 0
    child_s: float = 0.0
    # absolute tracemalloc high-water mark seen while the span was open
    high: int = field(default=0, repr=False)
    base: int = field(default=0, repr=False)


class Tracer:
    """Records spans and counters in memory; with memory=True, tracemalloc runs
    while the tracer is open."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.counters: dict[str, list[float]] = {}
        self._stack: list[Span] = []
        self._item = -1

    def __enter__(self):
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.memory:
            tracemalloc.stop()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.high = max(parent.high, peak)
            tracemalloc.reset_peak()
        span = Span(len(self.spans), name, self._item,
                    parent.sid if parent else None, time.perf_counter())
        span.base = span.high = cur
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if self.memory:
            span.high = max(span.high, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = span.high - span.base
            if parent is not None:
                parent.high = max(parent.high, span.high)
        if parent is not None:
            parent.child_s += span.end - span.start

    @contextlib.contextmanager
    def item(self, item_id: int):
        """The root span of one item; layer calls inside it are its children."""
        self._item = item_id
        span = self._open("item")
        try:
            yield span
        finally:
            self._close(span)

    def call(self, name, fn, *args):
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def count(self, name, value):
        self.counters.setdefault(name, []).append(float(value))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "item": s.item, "parent": s.parent,
                    "start": s.start, "end": s.end,
                    "peak_bytes": s.peak_bytes if self.memory else None,
                }) + "\n")


def _p50(values):
    return statistics.median(values) if values else 0.0


# (metric name, span name, scale): median span duration, scaled from seconds
SPAN_P50 = [
    ("augment.apply_plan.ms_p50", "augment.apply_plan", 1e3),
    ("augment.sample_plan.us_p50", "augment.sample_plan", 1e6),
    ("unify.unify_crop.ms_p50", "unify.unify_crop", 1e3),
    ("rawfile.load_raw.ms_p50", "rawfile.load_raw", 1e3),
    ("rawfile.save_raw.ms_p50", "rawfile.save_raw", 1e3),
    ("rawfile.write_ppm.ms_p50", "rawfile.write_ppm", 1e3),
    ("unify.unify_pad.ms_p50", "unify.unify_pad", 1e3),
    ("unify.disunify_crop.ms_p50", "unify.disunify_crop", 1e3),
    ("packing.pack.ms_p50", "packing.pack", 1e3),
    ("packing.unpack.ms_p50", "packing.unpack", 1e3),
    ("denoise.gaussian.ms_p50", "denoise.gaussian", 1e3),
    ("denoise.median1.ms_p50", "denoise.median1", 1e3),
    ("denoise.median2.ms_p50", "denoise.median2", 1e3),
    ("metrics.ssim.ms_p50", "metrics.ssim", 1e3),
    ("metrics.psnr.ms_p50", "metrics.psnr", 1e3),
    ("simulate.demosaic_bilinear.ms_p50", "simulate.demosaic_bilinear", 1e3),
    ("simulate.gen_scene.ms_p50", "simulate.gen_scene", 1e3),
    ("simulate.mosaic.ms_p50", "simulate.mosaic", 1e3),
    ("simulate.add_noise.ms_p50", "simulate.add_noise", 1e3),
    ("cli.parse.ms_p50", "cli.parse", 1e3),
]

# (metric name, counter name, scale, per): the counter's total per item
# ("item") or its mean over the calls that set it ("entry")
COUNTERS = [
    ("rawfile.mb_read", "rawfile.bytes_read", 1 / MB, "item"),
    ("rawfile.mb_written", "rawfile.bytes_written", 1 / MB, "item"),
    ("unify.pad_ratio", "unify.padded", 1.0, "entry"),
    ("denoise.computed_mb_in", "denoise.bytes_in", 1 / MB, "entry"),
    ("denoise.computed_mb_out", "denoise.bytes_out", 1 / MB, "entry"),
    ("simulate.demosaic_bilinear.computed_mb_in", "demosaic.bytes_in", 1 / MB, "entry"),
    ("simulate.demosaic_bilinear.computed_mb_out", "demosaic.bytes_out", 1 / MB, "entry"),
    ("metrics.ssim.computed_mb_in", "ssim.bytes_in", 1 / MB, "entry"),
    ("metrics.ssim.computed_mb_out", "ssim.bytes_out", 1 / MB, "entry"),
]


def summarize(tracer: Tracer, mem: Tracer, overhead_pct: float) -> dict[str, float]:
    """Per-layer figures: times and counts from ``tracer``, allocation peaks from
    ``mem`` (a memory tracer run over the same items). The names and units
    are those of ``per_layer`` in BENCHMARK.json."""
    items = [s for s in tracer.spans if s.parent is None]
    n_items = max(len(items), 1)
    item_s = sum(s.end - s.start for s in items) or 1.0
    glue_s = sum((s.end - s.start) - s.child_s for s in items)
    layer_calls = {layer: 0 for layer in LAYERS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    durations: dict[str, list[float]] = {}
    for s in tracer.spans:
        if s.parent is None:
            continue
        layer = s.name.split(".", 1)[0]
        layer_calls[layer] += 1
        layer_self[layer] += (s.end - s.start) - s.child_s
        durations.setdefault(s.name, []).append(s.end - s.start)
    layer_peak = {layer: 0 for layer in LAYERS}
    for s in mem.spans:
        if s.parent is not None:
            layer = s.name.split(".", 1)[0]
            layer_peak[layer] = max(layer_peak[layer], s.peak_bytes)
    apply_peak = max((s.peak_bytes for s in mem.spans if s.name == "augment.apply_plan"), default=0)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_calls[layer] / n_items
        out[f"{layer}.self_ms"] = 1e3 * layer_self[layer] / n_items
        out[f"{layer}.share"] = layer_self[layer] / item_s
        out[f"{layer}.peak_alloc_mb"] = layer_peak[layer] / MB
    for name, span_name, scale in SPAN_P50:
        out[name] = scale * _p50(durations.get(span_name, []))
    for name, counter, scale, per in COUNTERS:
        values = tracer.counters.get(counter, [])
        base = n_items if per == "item" else max(len(values), 1)
        out[name] = scale * sum(values) / base
    out["augment.apply_plan.peak_alloc_mb"] = apply_peak / MB
    out["unattributed.share"] = glue_s / item_s
    out["trace.overhead_pct"] = overhead_pct
    return out
