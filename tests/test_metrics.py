import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayerkit import metrics
from bayerkit import (
    BayerPattern,
    PSNR_CAP_DB,
    RawImage,
    ShapeMismatch,
    TooSmall,
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


@given(st.integers(6, 45).map(lambda n: 2 * n), st.integers(6, 24).map(lambda n: 2 * n),
       st.integers(1, 20), st.integers(0, 2**32 - 1))
@example(12, 12, 64, 0)  # the smallest frame SSIM takes, inside one strip
@example(12, 16, 1, 1)  # one window row, twelve strips
@example(16, 12, 5, 2)  # the second strip reads exactly 11 rows: one window row
@example(74, 14, 64, 3)  # a full strip, then a partial one of 10 rows and no window
@settings(max_examples=80, deadline=None)
def test_strip_pass_matches_the_full_frame_oracle(height, width, strip_rows, seed):
    rng = np.random.default_rng(seed)
    black = int(rng.integers(0, 30000))
    white = int(rng.integers(black + 1, 65536))
    clean = rng.integers(black, white + 1, size=(height, width))
    amplitude = int(rng.integers(0, white - black + 1))
    noisy = np.clip(clean + rng.integers(-amplitude, amplitude + 1, size=clean.shape), black, white)
    a, b = (RawImage(v, BayerPattern.GRBG, black, white) for v in (clean, noisy))
    with patch.object(metrics, "_STRIP_ROWS", strip_rows):
        got = mse(a, b), ssim(a, b), metric_report(a, b), psnr(a, b)
    want_mse, want_ssim = full_frame_oracle(a, b)
    for m, s in (got[:2], (got[2].mse, got[2].ssim)):
        assert abs(m - want_mse) <= 1e-12
        assert abs(s - want_ssim) <= 1e-12
    assert got[2].psnr_db == got[3]


def test_ssim_memory_is_bounded_by_a_strip_not_the_frame(rng):
    peaks = []
    for height in (1024, 2048):
        a = rand_raw(rng, height, 1536, BayerPattern.RGGB)
        b = rand_raw(rng, height, 1536, BayerPattern.RGGB)
        tracemalloc.start()
        try:
            ssim(a, b)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    frame_bytes = 1024 * 1536 * 8  # one full-frame float64 array of the smaller pair
    assert peaks[0] < 0.75 * frame_bytes
    assert peaks[1] < 1.05 * peaks[0]  # twice the rows, the same strips
