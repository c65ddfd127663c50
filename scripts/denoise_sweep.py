#!/usr/bin/env python3
"""PSNR/SSIM sweep of the denoising pipeline over filters and noise levels.

Generates seeded noisy mosaics, runs denoise_pipeline with each configured
filter, and prints the metric table. The pipeline filters each site plane of
the mosaic as if it were pad-unified to the working pattern, packed, filtered
and restored, without building any of those frames. Also spot-checks that the
gaussian output is independent of the working pattern (it must be, bit for
bit).

Usage: python scripts/denoise_sweep.py [--seeds N] [--size HxW]
"""

import argparse

import numpy as np

from bayerkit import (
    BayerPattern,
    DenoiserSpec,
    NoiseParams,
    add_noise,
    denoise_pipeline,
    gen_scene,
    metric_report,
    mosaic,
    psnr,
)

FILTERS = ["identity", "gaussian:1.0", "median:1", "median:2"]
NOISE_LEVELS = [(0.01, 0.02), (0.02, 0.04), (0.04, 0.08)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=6)
    parser.add_argument("--size", default="128x128")
    parser.add_argument("--work-pattern", default="BGGR")
    args = parser.parse_args()
    height, width = (int(v) for v in args.size.split("x"))
    work = BayerPattern.from_name(args.work_pattern)
    patterns = list(BayerPattern)

    print(f"{args.seeds} scenes at {height}x{width}, working pattern {work.value}\n")
    header = f"{'noise (read, shot)':>20s}{'input':>12s}"
    for name in FILTERS:
        header += f"{name:>14s}"
    print(header + "   (PSNR dB / SSIM)")

    for read, shot in NOISE_LEVELS:
        params = NoiseParams(read, shot)
        noisy_psnr, rows = [], {name: ([], []) for name in FILTERS}
        for seed in range(args.seeds):
            scene = gen_scene(seed, height, width)
            pattern = patterns[seed % 4]
            clean = mosaic(scene, pattern)
            noisy = add_noise(clean, params, 900 + seed)
            noisy_psnr.append(psnr(noisy, clean))
            for name in FILTERS:
                out = denoise_pipeline(noisy, work, DenoiserSpec.parse(name))
                report = metric_report(out, clean)  # both figures: mse's strip loop, then ssim's
                rows[name][0].append(report.psnr_db)
                rows[name][1].append(report.ssim)
        line = f"{f'({read}, {shot})':>20s}{np.mean(noisy_psnr):>12.2f}"
        for name in FILTERS:
            line += f"{np.mean(rows[name][0]):>14.2f}"
        print(line)
        line = f"{'':>20s}{'':>12s}"
        for name in FILTERS:
            line += f"{np.mean(rows[name][1]):>14.4f}"
        print(line)

    # equivariance spot check: gaussian output must not depend on work pattern
    scene = gen_scene(0, height, width)
    noisy = add_noise(mosaic(scene, BayerPattern.GRBG), NoiseParams(0.02, 0.04), 1)
    outputs = [
        denoise_pipeline(noisy, wp, DenoiserSpec("gaussian", 1.0)) for wp in patterns
    ]
    deltas = [
        int(np.abs(outputs[0].samples.astype(np.int64) - o.samples.astype(np.int64)).max())
        for o in outputs[1:]
    ]
    print(f"\ngaussian work-pattern max sample deltas vs {patterns[0].value}: {deltas}")


if __name__ == "__main__":
    main()
