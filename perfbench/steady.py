"""Steadiness report: spread of each end-to-end metric over repeated runs.

Usage: python3 perfbench/steady.py [--workloads A,B] [--seeds 1-10]
                                   [--out runs.json] [--against earlier.json]

Runs the benchmark once per seed on each workload, at BENCHMARK.json's
run_seconds, and prints for every end-to-end metric its median, quartiles
and spread (interquartile distance over the median) next to the bound
BENCHMARK.json fixes for it. ``steady`` marks a spread below a third of the
bound. ``--against`` compares the medians with an earlier ``--out`` file:
``drift`` is how much worse the new median is, as a share of the old one.
Exits 1 when a spread is wider than its bound or a drift is worse than it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--out")
    p.add_argument("--against")
    args = p.parse_args()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads.split(","):
        results = runs[workload] = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']} "
                  f"failed {results[-1]['failed']}/{results[-1]['attempted']} "
                  f"wall {time.perf_counter() - t0:.1f} s", flush=True)
        print(f"\n{workload} ({len(results)} runs)")
        print(f"  {'metric':14s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} "
              f"{'bound':>6s}  verdict")
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO WIDE")
            ok &= spread <= m["bound"]
            line = (f"  {name:14s} {med:11.4f} {q1:11.4f} {q3:11.4f} {spread:7.3f} "
                    f"{m['bound']:6.2f}  {verdict}")
            if workload in earlier:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                ok &= worse <= m["bound"]
                line += f"; drift {worse:+.3f} {'ok' if worse <= m['bound'] else 'WORSE'}"
            print(line)
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
