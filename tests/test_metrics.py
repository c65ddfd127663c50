import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayerkit import image, metrics
from bayerkit import (
    AugPlan,
    BayerPattern,
    MetricReport,
    PSNR_CAP_DB,
    RawImage,
    ShapeMismatch,
    TooSmall,
    Transpose,
    apply_plan,
    metric_report,
    mse,
    psnr,
    ssim,
)

from conftest import rand_raw


def brute_force_mse(a: RawImage, b: RawImage) -> float:
    span = a.white_level - a.black_level
    total = 0.0
    for r in range(a.height):
        for c in range(a.width):
            da = (int(a.samples[r, c]) - a.black_level) / span
            db = (int(b.samples[r, c]) - b.black_level) / span
            total += (da - db) ** 2
    return total / (a.height * a.width)


def test_psnr_identical_images_hit_cap(rng):
    img = rand_raw(rng, 8, 8, BayerPattern.RGGB)
    assert psnr(img, img) == PSNR_CAP_DB


def test_psnr_is_capped_for_a_near_identical_pair(rng):
    # one LSB in one of 512*512 samples: the uncapped figure is about 150.5 dB
    a = rand_raw(rng, 512, 512, BayerPattern.RGGB)
    samples = a.samples.copy()
    samples[100, 200] ^= 1
    b = RawImage(samples, a.pattern, a.black_level, a.white_level)
    assert psnr(a, b) == PSNR_CAP_DB
    assert metric_report(a, b).psnr_db == PSNR_CAP_DB


@given(st.integers(1, 70).map(lambda n: 2 * n), st.integers(1, 40).map(lambda n: 2 * n),
       st.sampled_from([int, np.uint16, np.int64]), st.integers(0, 2**32 - 1))
@example(2, 2, np.uint16, 0)  # span * span would wrap at 2**16 in uint16
@settings(max_examples=60, deadline=None)
def test_mse_is_correctly_rounded(height, width, level_type, seed):
    # samples span the whole uint16 range, so many lie outside [black, white]
    rng = np.random.default_rng(seed)
    black = int(rng.integers(0, 65535))
    white = int(rng.integers(black + 1, 65536))
    a, b = (rand_raw(rng, height, width, BayerPattern.BGGR, level_type(black), level_type(white))
            for _ in range(2))
    sum_sq = sum((int(p) - int(q)) ** 2 for p, q in zip(a.samples.flat, b.samples.flat))
    span = white - black
    assert mse(a, b) == float(Fraction(sum_sq, span**2 * a.samples.size))


def test_psnr_constant_difference():
    a = RawImage(np.full((8, 8), 0, dtype=np.uint16), BayerPattern.BGGR,
                 black_level=0, white_level=10)
    b = RawImage(np.full((8, 8), 1, dtype=np.uint16), BayerPattern.BGGR,
                 black_level=0, white_level=10)
    # normalized difference 0.1 everywhere: MSE 0.01, PSNR 20 dB
    assert psnr(a, b) == pytest.approx(20.0, rel=1e-12)


def test_psnr_matches_brute_force(rng):
    for _ in range(10):
        a = rand_raw(rng, 10, 12, BayerPattern.GRBG, black=7, white=60001)
        b = rand_raw(rng, 10, 12, BayerPattern.GRBG, black=7, white=60001)
        reference = brute_force_mse(a, b)
        assert mse(a, b) == pytest.approx(reference, rel=1e-9)
        assert psnr(a, b) == pytest.approx(10.0 * np.log10(1.0 / reference), rel=1e-9)


def test_psnr_symmetry_and_monotonicity(rng):
    base = rand_raw(rng, 12, 12, BayerPattern.RGGB, black=0, white=40000)
    previous = PSNR_CAP_DB
    for amplitude in (100, 400, 1600, 6400):
        shifted = RawImage(
            np.clip(base.samples.astype(np.int64) + amplitude, 0, 40000).astype(np.uint16),
            base.pattern, 0, 40000,
        )
        assert psnr(base, shifted) == psnr(shifted, base)
        assert psnr(base, shifted) < previous
        previous = psnr(base, shifted)


def test_metric_shape_mismatch(rng):
    a = rand_raw(rng, 8, 8, BayerPattern.RGGB)
    with pytest.raises(ShapeMismatch):
        psnr(a, rand_raw(rng, 8, 10, BayerPattern.RGGB))
    with pytest.raises(ShapeMismatch):
        psnr(a, rand_raw(rng, 8, 8, BayerPattern.BGGR))
    with pytest.raises(ShapeMismatch):
        psnr(a, rand_raw(rng, 8, 8, BayerPattern.RGGB, black=1, white=65535))


def test_ssim_self_is_exactly_one(rng):
    img = rand_raw(rng, 16, 16, BayerPattern.GBRG)
    assert ssim(img, img) == 1.0


def test_ssim_constant_pair_analytic():
    a = RawImage(np.full((16, 16), 5, dtype=np.uint16), BayerPattern.RGGB,
                 black_level=0, white_level=10)
    b = RawImage(np.full((16, 16), 6, dtype=np.uint16), BayerPattern.RGGB,
                 black_level=0, white_level=10)
    # constants 0.5 and 0.6: contrast/structure terms are 1, luminance term is
    # (2*0.5*0.6 + C1) / (0.5^2 + 0.6^2 + C1) with C1 = 1e-4
    expected = (2.0 * 0.5 * 0.6 + 1e-4) / (0.5**2 + 0.6**2 + 1e-4)
    assert ssim(a, b) == pytest.approx(expected, abs=1e-6)
    assert expected == pytest.approx(0.9836092, abs=1e-6)


def test_ssim_symmetry(rng):
    a = rand_raw(rng, 14, 18, BayerPattern.GRBG)
    b = rand_raw(rng, 14, 18, BayerPattern.GRBG)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-15)


def test_ssim_range(rng):
    for _ in range(5):
        a = rand_raw(rng, 12, 12, BayerPattern.RGGB)
        b = rand_raw(rng, 12, 12, BayerPattern.RGGB)
        v = ssim(a, b)
        assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


def test_ssim_shift_invariance():
    # adding the same mid-range constant to both images leaves the contrast
    # and structure terms untouched; the luminance term moves only by the
    # squared local mean difference, which stays below 1e-6 for small noise
    rng = np.random.default_rng(4)
    base = rng.integers(20000, 30000, size=(16, 16), dtype=np.uint16)
    noise = rng.integers(-30, 31, size=(16, 16)).astype(np.int64)
    a = RawImage(base, BayerPattern.RGGB)
    b = RawImage((base.astype(np.int64) + noise).astype(np.uint16), BayerPattern.RGGB)
    shifted_a = RawImage(base + np.uint16(3000), BayerPattern.RGGB)
    shifted_b = RawImage(
        (base.astype(np.int64) + noise + 3000).astype(np.uint16), BayerPattern.RGGB
    )
    assert ssim(shifted_a, shifted_b) == pytest.approx(ssim(a, b), abs=1e-6)


def test_ssim_too_small(rng):
    a = rand_raw(rng, 10, 12, BayerPattern.RGGB)
    b = rand_raw(rng, 10, 12, BayerPattern.RGGB)
    with pytest.raises(TooSmall):
        ssim(a, b)


def test_metric_report_json(rng):
    img = rand_raw(rng, 16, 16, BayerPattern.RGGB)
    report = metric_report(img, img)
    assert report.mse == 0.0
    assert report.psnr_db == PSNR_CAP_DB
    assert report.ssim == 1.0
    assert report.to_json() == '{"mse": 0.000000, "psnr_db": 99.000000, "ssim": 1.000000}'


def full_frame_oracle(a: RawImage, b: RawImage) -> tuple[float, float]:
    """MSE and SSIM as computed before strips: whole normalized frames, five
    windowed means in (H-10, W-10) layout, and np.mean over each map."""
    span = float(a.white_level - a.black_level)
    x = (a.samples.astype(np.float64) - a.black_level) / span
    y = (b.samples.astype(np.float64) - b.black_level) / span
    offsets = np.arange(11, dtype=np.float64) - 5.0
    w = np.exp(-(offsets**2) / (2.0 * 1.5 * 1.5))
    w /= w.sum()

    def windowed_mean(v):
        rows = np.lib.stride_tricks.sliding_window_view(v, 11, axis=0) @ w
        return np.lib.stride_tricks.sliding_window_view(rows, 11, axis=1) @ w

    mu_x, mu_y = windowed_mean(x), windowed_mean(y)
    var_x = windowed_mean(x * x) - mu_x * mu_x
    var_y = windowed_mean(y * y) - mu_y * mu_y
    cov = windowed_mean(x * y) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + 1e-4) * (2.0 * cov + 9e-4)
    den = (mu_x * mu_x + mu_y * mu_y + 1e-4) * (var_x + var_y + 9e-4)
    d = x - y
    return float(np.mean(d * d)), float(np.mean(num / den))


@given(st.integers(6, 45).map(lambda n: 2 * n), st.integers(6, 48).map(lambda n: 2 * n),
       st.integers(1, 20), st.integers(1, 20), st.integers(0, 2**32 - 1),
       st.one_of(st.none(), st.tuples(st.integers(1, 30000), st.integers(1, 200))
                 .map(lambda t: (t[0], t[0] + t[1]))),
       st.integers(1, 100))
@example(12, 12, 64, 16, 0, None, 620)  # the smallest frame SSIM takes: 2 window rows, one strip
@example(12, 16, 1, 16, 1, None, 620)  # one row per strip: 12 MSE strips, 2 SSIM strips of 1 row
@example(16, 12, 5, 16, 2, None, 620)  # 6 window rows: strips of 5 and 1, the last reads 11 rows
@example(74, 14, 64, 16, 3, None, 620)  # 64 window rows: one full SSIM strip; MSE strips of 64, 10
@example(20, 24, 64, 16, 4, None, 620)  # 14 window columns: less than one block, all tail
@example(20, 26, 64, 16, 5, None, 620)  # exactly one block, no tail
@example(20, 42, 64, 16, 6, None, 620)  # exactly two blocks
@example(20, 48, 64, 16, 7, None, 620)  # two blocks and a tail of 6
@example(40, 20, 10, 16, 8, None, 620)  # 10 window rows per strip: less than one block, all tail
@example(42, 20, 16, 16, 9, None, 620)  # 16 window rows per full strip: exactly one block
@example(46, 20, 20, 16, 10, None, 620)  # 20 window rows in the first strip: one block, tail of 4
@example(40, 20, 8, 16, 11, (100, 160), 620)  # black > 0, small span: C1, C2 scaled by the span
@example(20, 42, 64, 16, 12, None, 32)  # 32 window columns: exactly one tile
@example(20, 44, 64, 16, 13, None, 32)  # 34 window columns: one tile and a tile of 2
@example(30, 96, 8, 16, 14, None, 20)  # 86 window columns: tiles of 20 and a last one of 6
@example(20, 40, 64, 16, 15, None, 7)  # tiles of 7 window columns, narrower than one block
@settings(max_examples=80, deadline=None)
def test_metrics_match_the_full_frame_oracle(height, width, strip_rows, block, seed, levels, tile):
    rng = np.random.default_rng(seed)
    if levels is None:
        black = int(rng.integers(0, 30000))
        white = int(rng.integers(black + 1, 65536))
    else:
        black, white = levels
    clean = rng.integers(black, white + 1, size=(height, width))
    amplitude = int(rng.integers(0, white - black + 1))
    noisy = np.clip(clean + rng.integers(-amplitude, amplitude + 1, size=clean.shape), black, white)
    a, b = (RawImage(v, BayerPattern.GRBG, black, white) for v in (clean, noisy))
    # ssim's tiles are the column ranges whose column-pass products fit _BLAS_SERIAL_MNK
    mnk = block * (block + 10) * (tile + 10)  # tile window columns, with their 10 halo columns
    with (patch.object(image, "STRIP_ROWS", strip_rows), patch.object(metrics, "_BLOCK", block),
          patch.object(metrics, "_BAND", metrics._band(block)),
          patch.object(metrics, "_BLAS_SERIAL_MNK", mnk)):
        got = mse(a, b), ssim(a, b), metric_report(a, b), psnr(a, b)
    want_mse, want_ssim = full_frame_oracle(a, b)
    for m, s in (got[:2], (got[2].mse, got[2].ssim)):
        assert abs(m - want_mse) <= 1e-12
        assert abs(s - want_ssim) <= 1e-12
    assert got[2].psnr_db == got[3]
    assert got[2] == MetricReport(got[0], got[3], got[1])  # the report is the composition


@pytest.mark.parametrize("layout", ["transpose", "fortran"])
def test_metrics_read_any_sample_layout(rng, layout):
    # RawImage keeps its source's memory order, so these samples are not C-contiguous; both
    # layouts give a 40x1300 frame, whose 1,290 window columns span three SSIM tiles
    shape = (1300, 40) if layout == "transpose" else (40, 1300)
    clean = rng.integers(1000, 60001, size=shape)
    noisy = np.clip(clean + rng.integers(-3000, 3001, size=clean.shape), 0, 65535)
    a, b = (RawImage(v, BayerPattern.RGGB) for v in (clean, noisy))
    if layout == "transpose":
        a, b = (apply_plan(v, AugPlan((Transpose(),))) for v in (a, b))
    else:
        a, b = (RawImage(np.asfortranarray(v.samples), v.pattern) for v in (a, b))
    assert not a.samples.flags.c_contiguous
    with patch.object(image, "STRIP_ROWS", 16):
        got = mse(a, b), ssim(a, b), metric_report(a, b)
    want_mse, want_ssim = full_frame_oracle(a, b)
    for m, s in (got[:2], (got[2].mse, got[2].ssim)):
        assert abs(m - want_mse) <= 1e-12
        assert abs(s - want_ssim) <= 1e-12


def test_ssim_computes_no_mse(rng):
    a, b = rand_raw(rng, 40, 30, BayerPattern.RGGB), rand_raw(rng, 40, 30, BayerPattern.RGGB)
    with patch.object(metrics, "_square_sum", side_effect=AssertionError("MSE reduction")):
        ssim(a, b)
        for metric in (mse, psnr, metric_report):
            with pytest.raises(AssertionError, match="MSE reduction"):
                metric(a, b)


def test_ssim_products_stay_within_the_serial_blas_size(rng):
    sizes = []

    def matmul(a, b, out):
        sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])  # m * k * n
        return real(a, b, out=out)

    real = np.matmul
    a, b = (rand_raw(rng, 74, 3072, BayerPattern.RGGB) for _ in range(2))  # one full strip
    with patch.object(np, "matmul", matmul):
        ssim(a, b)
    assert len(sizes) > 2 and max(sizes) <= metrics._BLAS_SERIAL_MNK


def test_ssim_memory_is_bounded_by_a_strip_not_the_frame(rng):
    for metric in (ssim, mse, metric_report):
        peaks = []
        for height in (1024, 2048):
            a = rand_raw(rng, height, 1536, BayerPattern.RGGB)
            b = rand_raw(rng, height, 1536, BayerPattern.RGGB)
            tracemalloc.start()
            try:
                metric(a, b)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        frame_bytes = 1024 * 1536 * 8  # one full-frame float64 array of the smaller pair
        assert peaks[0] < 0.75 * frame_bytes, metric.__name__
        assert peaks[1] < 1.05 * peaks[0], metric.__name__  # twice the rows, the same strips


def test_ssim_memory_is_bounded_by_a_tile_not_the_width(rng):
    peaks = []
    for width in (1536, 3072):  # 1,526 and 3,062 window columns: three and five tiles
        a, b = (rand_raw(rng, 138, width, BayerPattern.RGGB) for _ in range(2))
        tracemalloc.start()
        try:
            ssim(a, b)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0]  # twice the columns, the same tiles
