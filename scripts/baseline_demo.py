#!/usr/bin/env python3
"""Sweep synthetic scenes and tabulate correct-vs-naive transform error.

For each seeded scene this measures interior demosaic RMSE of the correct
unification/flip against the quarantined baselines that permute or flip
packed planes. The correct paths sit at (numerically) zero while the naive
paths err by hundreds of quantization steps; this script makes that gap
concrete.

Usage: python scripts/baseline_demo.py [--seeds N] [--size HxW] [--json out.json]
"""

import argparse
import json

import numpy as np

from bayerkit.baselines import QUANTIZATION_STEP, sweep


def run(seeds: int, height: int, width: int) -> dict:
    tables = [sweep(seed, height, width) for seed in range(seeds)]

    def stats(group: str) -> dict:
        correct = [p["correct_rmse"] for t in tables for p in t[group]["pairs"]]
        naive = [p["naive_rmse"] for t in tables for p in t[group]["pairs"]]
        return {
            "mean_correct_rmse": float(np.mean(correct)),
            "mean_naive_rmse": float(np.mean(naive)),
            "max_naive_rmse": float(np.max(naive)),
        }

    return {
        "seeds": seeds,
        "size": [height, width],
        "quantization_step": QUANTIZATION_STEP,
        "unify": stats("unify"),
        "flip": stats("flip"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--size", default="128x128")
    parser.add_argument("--json", help="also write the table to this path")
    args = parser.parse_args()
    height, width = (int(v) for v in args.size.split("x"))

    table = run(args.seeds, height, width)
    print(f"{args.seeds} scenes at {height}x{width} "
          f"(quantization step = {QUANTIZATION_STEP:.3e} normalized units)\n")
    print(f"{'path':28s}{'mean RMSE':>14s}{'in quant steps':>16s}")
    for group in ("unify", "flip"):
        for kind in ("correct", "naive"):
            rmse = table[group][f"mean_{kind}_rmse"]
            label = f"{group} / {kind}"
            print(f"{label:28s}{rmse:14.3e}{rmse / QUANTIZATION_STEP:16.1f}")
    def ratio(group):
        correct = table[group]["mean_correct_rmse"]
        if correct == 0.0:
            return "inf"
        return f"{table[group]['mean_naive_rmse'] / correct:.1e}"

    print(f"\nnaive/correct ratio: unify {ratio('unify')}, flip {ratio('flip')}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(table, fh, indent=2)
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
