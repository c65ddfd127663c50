"""Host-speed probe: a fixed numpy kernel timed between items.

The benchmark runs on a few cores of a shared host, whose speed moves by a
fifth or more within a minute as other tenants load the caches and memory
bus. A run's raw item times follow that drift, so two runs of the same code
minutes apart can differ by more than any bound worth setting. The probe is
a 5x5 median over a fixed 256x256 float64 plane, the same kind of in-cache
numpy work as the program's kernels. It is the benchmark's own code and does
not call bayerkit, so a change to the program cannot change it.

``Probe.due()`` runs the probe before an item when PROBE_EVERY_S has
passed since the last one; ``Probe.run()`` runs it unconditionally, as after
the last item. ``Probe.scales(intervals)`` gives each timed interval
PROBE_REF_MS over the median time of the last RECENT probes before it and
the first probe after it, so a long interval is judged by the host speed on
both sides of it. An interval multiplied by its scale is the time it would
have taken on a host where the probe takes PROBE_REF_MS (its time on an
otherwise idle 2-core Xeon VM), so the same code reads the same whichever
way the host's speed has moved. Probes run outside every timed interval.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

PROBE_REF_MS = 40.0
PROBE_EVERY_S = 0.5
RECENT = 3


class Probe:
    def __init__(self):
        self.plane = np.random.default_rng(0).random((256, 256))
        self.ms: list[float] = []
        self.ends: list[float] = []  # perf_counter at the end of each probe
        self.run()  # the first call warms the probe's own code paths and caches
        self.ms.clear()
        self.ends.clear()
        for _ in range(RECENT):
            self.run()

    def run(self) -> None:
        t0 = time.perf_counter()
        p = np.pad(self.plane, 2, mode="reflect")
        np.median(np.lib.stride_tricks.sliding_window_view(p, (5, 5)), axis=(2, 3))
        self.ends.append(time.perf_counter())
        self.ms.append(1e3 * (self.ends[-1] - t0))

    def due(self) -> None:
        if time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.run()

    def scales(self, intervals: list[tuple[float, float]]) -> list[float]:
        """PROBE_REF_MS over the probe time around each (start, end) interval."""
        out = []
        for start, end in intervals:
            before = bisect.bisect_right(self.ends, start)
            around = self.ms[max(before - RECENT, 0) : before]
            after = bisect.bisect_left(self.ends, end)
            around += self.ms[after : after + 1]
            out.append(PROBE_REF_MS / statistics.median(around))
        return out
