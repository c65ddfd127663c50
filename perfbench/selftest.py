"""Checker self-test: one corrupted output byte per workload must be counted.

Usage: python3 perfbench/selftest.py

Runs every workload with ``--corrupt``, which flips one byte of the first
item's output before it is checked, and requires the result line to report
exactly one failed item. Each run lasts SECONDS on seed SEED. Exits 1 if any
workload's checker misses it.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

SEED = 1
SECONDS = 2.0


def main() -> int:
    missed = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(SEED),
             "--seconds", str(SECONDS), "--trace", "0", "--corrupt"],
            capture_output=True, text=True, timeout=300, cwd=BENCH.parent,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        counted = result is not None and result["failed"] == 1 and not result["correct"]
        missed += not counted
        reasons = [ln for ln in lines if ln.startswith("failed: ")]
        base = f"{result['failed']}/{result['attempted']}" if result else "no result"
        print(f"{name}: failed_ratio {base} -> {'counted' if counted else 'MISSED'}"
              f"{' (' + reasons[0][8:] + ')' if reasons else ''}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
