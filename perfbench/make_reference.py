"""Write the committed references that the benchmark's checks compare with.

Usage: python3 perfbench/make_reference.py

* eval_sweep_reference.json: the PSNR/SSIM table of the first cells of the
  eval_sweep workload on its reference seed.
* review_reference.json: the line ``bayerkit metrics`` prints for each
  pattern's frame pair of the review_frames workload on its reference seed.

Run it only when the program's outputs are meant to change. Every run of
those two workloads checks its warm-up item against these files, and a run
on the reference seed checks every item.
"""

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bayerkit import cli  # noqa: E402
from tracing import NoTrace  # noqa: E402
from workloads import PATTERNS, EvalSweep, ReviewFrames  # noqa: E402

CELLS = 64  # more than a run of the benchmark visits


def eval_sweep_reference() -> None:
    wl = EvalSweep()
    seed = wl.reference_seed
    st = wl.state(seed)
    cells = []
    for k in range(CELLS):
        scene_seed, pattern, level = wl.cell(seed, k)
        cells.append({"cell": k, "scene_seed": scene_seed, "pattern": pattern,
                      "noise": list(level), **wl.table(wl.run(st, k, NoTrace()))})
    head = json.dumps({"seed": seed, "size": wl.size, "work_pattern": wl.work})[:-1]
    body = ",\n  ".join(json.dumps(c) for c in cells)
    wl.reference_path.write_text(f'{head}, "cells": [\n  {body}\n]}}\n')
    print(f"wrote {len(cells)} cells to {wl.reference_path}")


def review_reference() -> None:
    wl = ReviewFrames()
    d = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    d.mkdir(parents=True)
    try:
        wl.setup(wl.reference_seed, d)
        lines = {}
        for p in PATTERNS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["metrics", "--ref", str(d / f"clean_{p}.pgm"),
                               str(d / f"noisy_{p}.pgm")])
            if rc != 0:
                raise RuntimeError(f"metrics failed for {p}")
            lines[p] = buf.getvalue().strip()
    finally:
        shutil.rmtree(d)
    doc = {"seed": wl.reference_seed, "lines": lines}
    wl.reference_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(lines)} printed lines to {wl.reference_path}")


def main() -> int:
    eval_sweep_reference()
    review_reference()
    return 0


if __name__ == "__main__":
    sys.exit(main())
