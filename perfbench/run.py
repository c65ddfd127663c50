"""bayerkit benchmark: one workload per run, checked outputs, metrics as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: train_patches, denoise_files, eval_sweep, review_frames (see
workloads.py and README.md). The inputs depend only on the seed. Set-up runs
in fresh processes (see setup_child.py), at least SETUP_REPS times and until
SETUP_BUDGET_S have passed; ``setup_s`` is their median. This process then loads the inputs and runs one untimed
warm-up item, whose check counts like any other item's. The timed loop runs
items until ``--seconds`` of wall time have passed, checking every item's
output outside its timed interval.

``--trace 0`` prints the end-to-end metrics. Their times are scaled to a
reference host speed by a probe timed between items and around each set-up
(see hostspeed.py); the detail line keeps the raw times. ``--trace 1`` runs the same
items untraced, with spans, and with spans and tracemalloc, a third of the
time each, and prints the per-layer metrics (see tracing.py). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
``--corrupt`` flips one output byte of the first item before it is checked;
selftest.py uses it to show that the checker counts the corruption.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS and OpenMP pools must be capped before numpy is imported
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from tracing import NoTrace, Tracer, summarize  # noqa: E402

SETUP_REPS = 3
# short set-ups (eval_sweep's is the import alone) are repeated more often,
# so that their median holds still
SETUP_BUDGET_S = 3.0
SETUP_MAX_REPS = 15


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_limit": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_setups(name: str, seed: int, work: Path, probe) -> tuple[list[float], list[float]]:
    """Set up in fresh processes; keep the first copy's files and add the reference
    check's inputs to it. Returns the raw times and their host-speed scales."""
    times, intervals = [], []
    while len(times) < SETUP_REPS or (sum(times) < SETUP_BUDGET_S
                                       and len(times) < SETUP_MAX_REPS):
        rep = len(times)
        probe.run()
        t0 = time.perf_counter()
        d = work / f"setup{rep}"
        d.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), name, str(seed), str(d),
             str(int(rep == 0))],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip().splitlines()[-1:]}")
        intervals.append((t0, time.perf_counter()))
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        if rep:
            shutil.rmtree(d)
    probe.run()
    return times, probe.scales(intervals)


def measure(wl, st, tr, seconds: float, corrupt: bool, probe):
    """Run items 0, 1, ... until `seconds` of wall time pass.

    Returns the raw item times, each item's host-speed scale and the failures."""
    times, intervals, reasons = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        out, reason = None, None
        probe.due()
        t0 = time.perf_counter()
        try:
            with tr.item(i):
                out = wl.run(st, i, tr)
        except (Exception, SystemExit) as e:  # an item that raises counts as failed
            reason = f"item {i}: {type(e).__name__}: {e}"
        intervals.append((t0, time.perf_counter()))
        times.append(intervals[-1][1] - t0)
        if reason is None:
            if corrupt and i == 0:
                out = wl.corrupt(st, out)
            try:
                err = wl.check(st, i, out)
            except Exception as e:  # a check that cannot run counts as failed
                err = f"{type(e).__name__}: {e}"
            if err is not None:
                reason = f"item {i}: {err}"
        if reason is not None:
            reasons.append(reason)
        i += 1
        if time.perf_counter() - start >= seconds:
            probe.run()
            return times, probe.scales(intervals), reasons


def percentile(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of items slower than it."""
    ordered = sorted(times)
    rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def result_line(attempted: int, failed: int, metrics: dict, units: dict) -> str:
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bayerkit" / "__init__.py").is_file():
        print(f"perfbench: no bayerkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bayerkit
    from hostspeed import PROBE_REF_MS, Probe
    from workloads import WORKLOADS

    if Path(bayerkit.__file__).resolve().parent != ROOT / "src" / "bayerkit":
        print(f"perfbench: imported bayerkit from {bayerkit.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    try:
        probe = Probe()
        setup_times, setup_scales = run_setups(wl.name, args.seed, work, probe)
        t0 = time.perf_counter()
        st = wl.load(args.seed, work / "setup0")
        try:  # warm-up: fills caches and checks the committed reference, if any
            warm_fail = wl.warm_up(st)
        except (Exception, SystemExit) as e:
            warm_fail = f"{type(e).__name__}: {e}"
        warm_fail = [] if warm_fail is None else [f"warm-up: {warm_fail}"]
        warm_s = time.perf_counter() - t0

        if args.trace:
            third = args.seconds / 3
            plain, _, plain_fail = measure(wl, st, NoTrace(), third, args.corrupt, probe)
            with Tracer() as tr:
                traced, _, traced_fail = measure(wl, st, tr, third, args.corrupt, probe)
            with Tracer(memory=True) as mem:
                mem_times, _, mem_fail = measure(wl, st, mem, third, args.corrupt, probe)
            overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
            for tracer, kind in ((tr, "time"), (mem, "memory")):
                tracer.write(ROOT / ".bench_work" / f"spans-{wl.name}-seed{args.seed}-{kind}.jsonl")
            reasons = warm_fail + plain_fail + traced_fail + mem_fail
            attempted = 1 + len(plain) + len(traced) + len(mem_times)
            metrics = summarize(tr, mem, overhead)
            print(f"{wl.name} seed={args.seed}: {len(plain)} items untraced, {len(traced)} traced, "
                  f"{len(mem_times)} under tracemalloc; span overhead {overhead:.1f}%; "
                  f"spans in .bench_work/spans-{wl.name}-seed{args.seed}-*.jsonl")
        else:
            raw, item_scales, reasons = measure(wl, st, NoTrace(), args.seconds, args.corrupt,
                                                probe)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            reasons = warm_fail + reasons
            attempted = 1 + len(raw)
            times = [t * k for t, k in zip(raw, item_scales)]
            tail_s, beyond = percentile(times, wl.tail_pct)
            metrics = {
                "setup_s": statistics.median(t * k for t, k in zip(setup_times, setup_scales)),
                "items_per_s": len(times) / sum(times),
                "item_ms_p50": 1e3 * statistics.median(times),
                "item_ms_tail": 1e3 * tail_s,
                "peak_rss_mb": peak_rss_mb,
            }
            print(json.dumps({"detail": {
                "workload": wl.name, "seed": args.seed, "items": len(times),
                "item_ms_tail_percentile": wl.tail_pct, "items_beyond_tail": beyond,
                "failed_ratio": f"{len(reasons)}/{attempted}",
                "probe_ref_ms": PROBE_REF_MS, "probe_ms_p50": statistics.median(probe.ms),
                "raw_setup_s": statistics.median(setup_times),
                "raw_items_per_s": len(raw) / sum(raw),
                "raw_item_ms_p50": 1e3 * statistics.median(raw),
                "setup_runs_s": setup_times, "warm_s": warm_s,
                "item_ms_raw": [round(1e3 * t, 3) for t in raw],
                "item_scale": [round(k, 4) for k in item_scales],
            }}))
        print(json.dumps({"env": environment()}))
        for reason in reasons[:5]:
            print(f"failed: {reason}")
        print(result_line(attempted, len(reasons), metrics, units))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
