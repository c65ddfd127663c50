"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion. Every tolerance is pinned here, not in helper code.
"""

import itertools
import json
import time

import numpy as np
import pytest

from bayerkit import (
    AugPlan,
    BayerPattern,
    DenoiserSpec,
    IllegalTranspose,
    MissingSidecar,
    NoiseParams,
    OddOffset,
    ParseError,
    Patch,
    RawImage,
    Transpose,
    UnknownPattern,
    add_noise,
    apply_plan,
    channel_at,
    denoise_pipeline,
    disunify_crop,
    gen_scene,
    load_raw,
    mosaic,
    psnr,
    sample_plan,
    save_raw,
    ssim,
    unify_crop,
    unify_offsets,
    unify_pad,
)
from bayerkit.baselines import compare_flip_paths, compare_unify_paths
from bayerkit.cli import main
from bayerkit.patterns import CHANNEL_INDEX

from conftest import ALL_PATTERNS
from test_augment import compose_index_maps

PAIRS = list(itertools.product(ALL_PATTERNS, ALL_PATTERNS))
QUANT_STEP = 1.0 / 65535.0


def oracle_grid(pattern, height, width):
    """Channel index grid built directly from the scalar channel_at oracle."""
    block = np.array(
        [[CHANNEL_INDEX[channel_at(pattern, r, c)] for c in (0, 1)] for r in (0, 1)]
    )
    return np.tile(block, ((height + 1) // 2, (width + 1) // 2))[:height, :width]


def reflect101_indices(length, pad):
    idx = np.abs(np.arange(-pad, length + pad))
    return np.where(idx >= length, 2 * length - 2 - idx, idx)


def test_criterion_1_pattern_algebra_exhaustive():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for src, target in PAIRS:
        src_grid_cache = {}
        for _ in range(100):
            h = 2 * int(rng.integers(2, 33))
            w = 2 * int(rng.integers(2, 33))
            img = RawImage(
                rng.integers(0, 65536, size=(h, w), dtype=np.uint16), src
            )
            dy, dx = unify_offsets(src, target)
            if (h, w) not in src_grid_cache:
                src_grid_cache[(h, w)] = oracle_grid(src, h, w)
            src_grid = src_grid_cache[(h, w)]

            cropped = unify_crop(img, target)
            assert cropped.pattern is target
            np.testing.assert_array_equal(
                cropped.samples, img.samples[dy : h - dy, dx : w - dx]
            )
            np.testing.assert_array_equal(
                oracle_grid(target, *cropped.samples.shape),
                src_grid[dy : h - dy, dx : w - dx],
            )

            padded, spec = unify_pad(img, target)
            assert padded.pattern is target
            assert (spec.top, spec.left) == (dy, dx)
            rows = reflect101_indices(h, dy)
            cols = reflect101_indices(w, dx)
            np.testing.assert_array_equal(
                padded.samples, img.samples[np.ix_(rows, cols)]
            )
            np.testing.assert_array_equal(
                oracle_grid(target, *padded.samples.shape),
                src_grid[np.ix_(rows, cols)],
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\ncriterion 1 PASS: 16 pairs x 100 images, crop+pad match the "
          f"channel_at oracle exactly ({elapsed:.1f}s)")


def test_criterion_2_pad_round_trip_bit_exact():
    rng = np.random.default_rng(2)
    count = 0
    for src, target in PAIRS:
        for h in range(2, 65, 2):
            for w in range(2, 65, 2):
                img = RawImage(
                    rng.integers(0, 65536, size=(h, w), dtype=np.uint16), src
                )
                padded, spec = unify_pad(img, target)
                restored = disunify_crop(padded, spec)
                assert restored.pattern is src
                assert restored.samples.shape == (h, w)
                assert (restored.samples == img.samples).all()
                assert restored.black_level == img.black_level
                assert restored.white_level == img.white_level
                count += 1
    print(f"\ncriterion 2 PASS: disunify(unify_pad) bit-exact on {count} "
          "(pair, dims) combinations")


def test_criterion_3_identity_pipeline_bit_exact():
    rng = np.random.default_rng(3)
    spec = DenoiserSpec("identity")
    for pattern, work in PAIRS:
        img = RawImage(
            rng.integers(0, 65536, size=(24, 32), dtype=np.uint16),
            pattern, black_level=16, white_level=60000,
        )
        out = denoise_pipeline(img, work, spec)
        assert out.pattern is pattern
        assert (out.samples == img.samples).all()
        assert (out.black_level, out.white_level) == (16, 60000)
    print("\ncriterion 3 PASS: identity pipeline is a bit-exact no-op for all "
          "16 (pattern, work_pattern) pairs")


def test_criterion_4_augmentation_correctness():
    rng = np.random.default_rng(4)

    def check(img, steps, out):
        cy, cx = compose_index_maps(img.height, img.width, steps)
        assert out.pattern is img.pattern
        assert (out.samples == img.samples[cy, cx]).all()
        src_grid = oracle_grid(img.pattern, img.height, img.width)
        out_grid = oracle_grid(out.pattern, *out.samples.shape)
        assert (out_grid == src_grid[cy, cx]).all()

    from bayerkit import HFlip, VFlip

    for pattern in ALL_PATTERNS:
        img = RawImage(rng.integers(0, 65536, size=(12, 16), dtype=np.uint16), pattern)
        for step in (HFlip(), VFlip(), Patch(2, 4, 8, 8)):
            check(img, (step,), apply_plan(img, AugPlan((step,))))
        if pattern in (BayerPattern.RGGB, BayerPattern.BGGR):
            check(img, (Transpose(),), apply_plan(img, AugPlan((Transpose(),))))
        else:
            with pytest.raises(IllegalTranspose):
                apply_plan(img, AugPlan((Transpose(),)))
        with pytest.raises(OddOffset):
            apply_plan(img, AugPlan((Patch(1, 0, 2, 2),)))

    violations = 0
    for seed in range(1000):
        pattern = ALL_PATTERNS[seed % 4]
        h = 2 * int(16 + (seed % 5))
        w = 2 * int(14 + (seed % 7))
        img = RawImage(rng.integers(0, 65536, size=(h, w), dtype=np.uint16), pattern)
        plan = sample_plan(seed, 8, h, w, pattern)
        for step in plan.steps:
            if isinstance(step, Patch):
                if step.top % 2 or step.left % 2 or step.height % 2 or step.width % 2:
                    violations += 1
            if isinstance(step, Transpose) and pattern in (
                BayerPattern.GRBG, BayerPattern.GBRG,
            ):
                violations += 1
        out = apply_plan(img, plan)
        check(img, plan.steps, out)
    assert violations == 0
    print("\ncriterion 4 PASS: flips/transpose/patch and 1000 sampled plans "
          "preserve the pattern; zero violations")


def test_criterion_5_baseline_differential():
    start = time.perf_counter()
    unify_correct, unify_naive = [], []
    flip_correct, flip_naive = [], []
    for seed in range(20):
        scene = gen_scene(seed, 128, 128)
        for src in ALL_PATTERNS:
            img = mosaic(scene, src)
            for target in ALL_PATTERNS:
                c, n = compare_unify_paths(img, target)
                unify_correct.append(c)
                unify_naive.append(n)
            for axis in ("horizontal", "vertical"):
                c, n = compare_flip_paths(img, axis)
                flip_correct.append(c)
                flip_naive.append(n)
    mean_uc, mean_un = np.mean(unify_correct), np.mean(unify_naive)
    mean_fc, mean_fn = np.mean(flip_correct), np.mean(flip_naive)
    assert mean_uc <= 2 * QUANT_STEP
    assert mean_fc <= 2 * QUANT_STEP
    assert mean_un >= 10 * mean_uc
    assert mean_fn >= 10 * mean_fc
    # the naive paths must be wrong by a wide, visible margin
    assert mean_un >= 10 * QUANT_STEP
    assert mean_fn >= 10 * QUANT_STEP
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\ncriterion 5 PASS: naive/correct RMSE ratios "
          f"unify {mean_un:.2e}/{mean_uc:.2e}, flip {mean_fn:.2e}/{mean_fc:.2e} "
          f"({elapsed:.1f}s)")


def test_criterion_6_denoising_direction_and_equivariance():
    spec = DenoiserSpec("gaussian", 1.0)
    params = NoiseParams(0.02, 0.04)
    improvements = []
    max_step_diff = 0
    for i in range(8):
        scene = gen_scene(i, 128, 128)
        pattern = ALL_PATTERNS[i % 4]
        clean = mosaic(scene, pattern)
        noisy = add_noise(clean, params, 500 + i)
        outputs = [denoise_pipeline(noisy, wp, spec) for wp in ALL_PATTERNS]
        improvements.append(psnr(outputs[0], clean) - psnr(noisy, clean))
        base = outputs[0].samples.astype(np.int64)
        for other in outputs[1:]:
            diff = np.abs(base - other.samples.astype(np.int64)).max()
            max_step_diff = max(max_step_diff, int(diff))
    mean_gain = float(np.mean(improvements))
    assert mean_gain >= 2.0
    assert max_step_diff <= 1
    print(f"\ncriterion 6 PASS: gaussian pipeline gains {mean_gain:.2f} dB PSNR; "
          f"work-pattern outputs differ by at most {max_step_diff} step")


def test_criterion_7_metrics_against_references():
    rng = np.random.default_rng(7)
    for _ in range(100):
        h, w = 12, 14
        a = RawImage(rng.integers(0, 65536, size=(h, w), dtype=np.uint16),
                     BayerPattern.RGGB, black_level=3, white_level=64000)
        b = RawImage(rng.integers(0, 65536, size=(h, w), dtype=np.uint16),
                     BayerPattern.RGGB, black_level=3, white_level=64000)
        span = 64000 - 3
        total = 0.0
        for r in range(h):
            for c in range(w):
                da = (int(a.samples[r, c]) - 3) / span
                db = (int(b.samples[r, c]) - 3) / span
                total += (da - db) ** 2
        reference = 10.0 * np.log10(1.0 / (total / (h * w)))
        assert abs(psnr(a, b) - reference) <= 1e-9 * abs(reference)

    img = RawImage(rng.integers(0, 65536, size=(16, 16), dtype=np.uint16),
                   BayerPattern.GBRG)
    assert ssim(img, img) == 1.0

    a = RawImage(np.full((16, 16), 5, dtype=np.uint16), BayerPattern.RGGB,
                 black_level=0, white_level=10)
    b = RawImage(np.full((16, 16), 6, dtype=np.uint16), BayerPattern.RGGB,
                 black_level=0, white_level=10)
    analytic = (2.0 * 0.5 * 0.6 + 1e-4) / (0.5**2 + 0.6**2 + 1e-4)
    assert abs(ssim(a, b) - analytic) <= 1e-6
    print("\ncriterion 7 PASS: psnr matches the double-loop reference to 1e-9 "
          "on 100 pairs; ssim self-test exact; constant pair analytic to 1e-6")


def test_criterion_8_file_format_and_cli(tmp_path):
    rng = np.random.default_rng(8)
    img = RawImage(rng.integers(0, 65536, size=(16, 16), dtype=np.uint16),
                   BayerPattern.GRBG, black_level=10, white_level=60000)
    first = tmp_path / "a.pgm"
    second = tmp_path / "b.pgm"
    save_raw(img, None, first)
    loaded, _ = load_raw(first)
    save_raw(loaded, None, second)
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    bad = tmp_path / "bad.pgm"
    (tmp_path / "bad.json").write_text(json.dumps({"bayer_pattern": "GRBG"}))
    bad.write_bytes(b"Q5\n4 4\n65535\n" + b"\x00" * 32)
    with pytest.raises(ParseError):
        load_raw(bad)
    bad.write_bytes(b"P5\n3 4\n65535\n" + b"\x00" * 24)
    with pytest.raises(ParseError):
        load_raw(bad)
    bad.write_bytes(b"P5\n4 4\n65535\n" + b"\x00" * 32)
    (tmp_path / "bad.json").write_text(json.dumps({"bayer_pattern": "grbg"}))
    with pytest.raises(UnknownPattern):
        load_raw(bad)
    lonely = tmp_path / "lonely.pgm"
    lonely.write_bytes(b"P5\n4 4\n65535\n" + b"\x00" * 32)
    with pytest.raises(MissingSidecar):
        load_raw(lonely)

    # every documented command succeeds on its happy path
    src = tmp_path / "in.pgm"
    save_raw(img, None, src)
    out = tmp_path / "out.pgm"
    assert main(["unify", "--target", "BGGR", "--mode", "crop", str(src), "-o", str(out)]) == 0
    padded = tmp_path / "padded.pgm"
    assert main(["unify", "--target", "BGGR", "--mode", "pad", str(src), "-o", str(padded)]) == 0
    assert main(["disunify", str(padded), "-o", str(tmp_path / "restored.pgm")]) == 0
    assert main(["augment", "--hflip", "--patch", "2,2,8,8", str(src),
                 "-o", str(tmp_path / "aug1.pgm")]) == 0
    assert main(["augment", "--seed", "5", "--patch-size", "8", str(src),
                 "-o", str(tmp_path / "aug2.pgm")]) == 0
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(AugPlan((Patch(0, 0, 8, 8),)).to_json())
    assert main(["augment", "--plan", str(plan_path), str(src),
                 "-o", str(tmp_path / "aug3.pgm")]) == 0
    assert main(["pack-roundtrip", str(src)]) == 0
    assert main(["simulate", "--pattern", "RGGB", "--size", "32x32", "--seed", "1",
                 "--noise", "0.02,0.04", "--noise-seed", "2",
                 "-o", str(tmp_path / "sim.pgm"), "--clean", str(tmp_path / "clean.pgm")]) == 0
    assert main(["denoise", "--filter", "gaussian:1.0", "--work-pattern", "RGGB",
                 str(src), "-o", str(tmp_path / "den.pgm")]) == 0
    assert main(["demosaic", str(src), "-o", str(tmp_path / "out.ppm")]) == 0
    assert main(["metrics", "--ref", str(src), str(src)]) == 0
    assert main(["baseline-demo", "--seed", "0"]) == 0
    print("\ncriterion 8 PASS: byte-stable format, specified parse errors, "
          "all 9 CLI commands exit 0 on happy paths")
