import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayerkit import (
    BadDimensions,
    BayerPattern,
    NoiseParams,
    RawImage,
    RgbImage,
    add_noise,
    channel_index_grid,
    demosaic_bilinear,
    gen_scene,
    mosaic,
)

from conftest import ALL_PATTERNS, rand_raw


def constant_rgb(r, g, b, height=8, width=8):
    planes = np.stack(
        [np.full((height, width), v, dtype=np.float64) for v in (r, g, b)]
    )
    return RgbImage(planes)


def test_gen_scene_deterministic():
    a = gen_scene(42, 32, 48)
    b = gen_scene(42, 32, 48)
    np.testing.assert_array_equal(a.planes, b.planes)
    c = gen_scene(43, 32, 48)
    assert (a.planes != c.planes).any()


def test_gen_scene_bounds_and_shape():
    scene = gen_scene(0, 16, 24)
    assert scene.planes.shape == (3, 16, 24)
    assert scene.planes.min() >= 0.0
    assert scene.planes.max() <= 1.0


def test_gen_scene_bad_dimensions():
    for h, w in ((7, 8), (8, 7), (6, 8), (8, 6), (0, 8)):
        with pytest.raises(BadDimensions):
            gen_scene(0, h, w)


def test_gen_scene_channel_means_are_separated():
    # chroma-rich guarantee: means pairwise >= 0.05 apart for >= 90% of seeds
    ok = 0
    for seed in range(100):
        m = gen_scene(seed, 64, 64).planes.mean(axis=(1, 2))
        sep = min(abs(m[0] - m[1]), abs(m[0] - m[2]), abs(m[1] - m[2]))
        ok += sep >= 0.05
    assert ok >= 90


def test_mosaic_constant_gray():
    img = mosaic(constant_rgb(0.5, 0.5, 0.5), BayerPattern.GBRG)
    assert (img.samples == 32768).all()
    assert img.black_level == 0 and img.white_level == 65535


def test_mosaic_pure_red_rggb():
    img = mosaic(constant_rgb(1.0, 0.0, 0.0), BayerPattern.RGGB)
    assert (img.samples[0::2, 0::2] == 65535).all()
    assert (img.samples[0::2, 1::2] == 0).all()
    assert (img.samples[1::2, :] == 0).all()


def test_mosaic_site_selection():
    scene = gen_scene(5, 8, 8)
    img = mosaic(scene, BayerPattern.GRBG)
    # channel at (0, 1) under GRBG is R
    expected = np.floor(scene.planes[0, 0, 1] * 65535.0 + 0.5)
    assert img.samples[0, 1] == expected


def test_mosaic_custom_levels():
    img = mosaic(constant_rgb(0.0, 0.0, 0.0), BayerPattern.RGGB, black_level=100, white_level=1100)
    assert (img.samples == 100).all()
    img = mosaic(constant_rgb(1.0, 1.0, 1.0), BayerPattern.RGGB, black_level=100, white_level=1100)
    assert (img.samples == 1100).all()


def test_add_noise_zero_params_is_identity(rng):
    img = rand_raw(rng, 8, 8, BayerPattern.RGGB)
    out = add_noise(img, NoiseParams(0.0, 0.0), 7)
    assert out is img


@pytest.mark.parametrize("read, shot", [(1e155, 0.0), (0.0, 1e155), (float("nan"), 0.0),
                                        (0.0, float("inf")), (-0.1, 0.0)])
def test_noise_params_refuse_a_sigma_add_noise_cannot_square(read, shot):
    with pytest.raises(ValueError, match="finite square"):
        NoiseParams(read, shot)


def test_add_noise_with_huge_sigmas_clips_to_the_levels(rng):
    img = rand_raw(rng, 8, 8, BayerPattern.RGGB, black=100, white=300)
    out = add_noise(img, NoiseParams(1e150, 1e150), 1)
    assert set(np.unique(out.samples)) <= {100, 300}


def test_add_noise_deterministic_and_clipped():
    img = RawImage(np.full((16, 16), 200, dtype=np.uint16), BayerPattern.BGGR,
                   black_level=100, white_level=300)
    a = add_noise(img, NoiseParams(0.2, 0.1), 5)
    b = add_noise(img, NoiseParams(0.2, 0.1), 5)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.samples.min() >= 100
    assert a.samples.max() <= 300
    c = add_noise(img, NoiseParams(0.2, 0.1), 6)
    assert (a.samples != c.samples).any()


def test_add_noise_empirical_std():
    img = RawImage(np.full((1000, 2000), 32768, dtype=np.uint16), BayerPattern.RGGB)
    params = NoiseParams(0.02, 0.04)
    noisy = add_noise(img, params, 123)
    delta = (noisy.samples.astype(np.float64) - 32768.0) / 65535.0
    x = 32768.0 / 65535.0
    expected = np.sqrt(params.sigma_read**2 + params.sigma_shot**2 * x)
    assert abs(delta.std() - expected) / expected < 0.03


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        NoiseParams(0.0, float("nan"))


def test_demosaic_constant():
    img = RawImage(np.full((8, 8), 32768, dtype=np.uint16), BayerPattern.GRBG)
    rgb = demosaic_bilinear(img)
    expected = 32768.0 / 65535.0
    assert np.allclose(rgb.planes, expected, atol=0)


def test_demosaic_interior_neighbor_averages(rng):
    img = rand_raw(rng, 6, 6, BayerPattern.RGGB)
    n = img.samples.astype(np.float64) / 65535.0
    rgb = demosaic_bilinear(img)
    # G at the R site (2,2): mean of the 4 axial greens
    assert rgb.planes[1, 2, 2] == pytest.approx(
        (n[1, 2] + n[3, 2] + n[2, 1] + n[2, 3]) / 4.0, abs=1e-15
    )
    # B at the R site (2,2): mean of the 4 diagonal blues
    assert rgb.planes[2, 2, 2] == pytest.approx(
        (n[1, 1] + n[1, 3] + n[3, 1] + n[3, 3]) / 4.0, abs=1e-15
    )
    # R at the G site (2,3): mean of the horizontal red pair
    assert rgb.planes[0, 2, 3] == pytest.approx((n[2, 2] + n[2, 4]) / 2.0, abs=1e-15)
    # B at the G site (2,3): mean of the vertical blue pair
    assert rgb.planes[2, 2, 3] == pytest.approx((n[1, 3] + n[3, 3]) / 2.0, abs=1e-15)


def test_demosaic_edges_reflect_101(rng):
    img = rand_raw(rng, 6, 6, BayerPattern.RGGB)
    n = img.samples.astype(np.float64) / 65535.0
    rgb = demosaic_bilinear(img)
    # G at corner R site (0,0): up and left reflect to (1,0) and (0,1)
    assert rgb.planes[1, 0, 0] == pytest.approx(
        (2.0 * n[1, 0] + 2.0 * n[0, 1]) / 4.0, abs=1e-15
    )
    # B at corner R site (0,0): all four diagonals reflect to (1,1)
    assert rgb.planes[2, 0, 0] == pytest.approx(n[1, 1], abs=1e-15)


def test_demosaic_pass_through_is_exact():
    scene = gen_scene(11, 16, 16)
    for pattern in ALL_PATTERNS:
        img = mosaic(scene, pattern)
        rgb = demosaic_bilinear(img)
        grid = channel_index_grid(pattern, 16, 16)
        norm = img.samples.astype(np.float64) / 65535.0
        for ch in range(3):
            sites = grid == ch
            assert (rgb.planes[ch][sites] == norm[sites]).all()


def test_demosaic_exact_for_affine_scene():
    h = w = 16
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    planes = np.stack(
        [
            0.20 + 0.30 * xx / (w - 1) + 0.25 * yy / (h - 1),
            0.10 + 0.40 * xx / (w - 1) + 0.10 * yy / (h - 1),
            0.30 + 0.20 * xx / (w - 1) + 0.30 * yy / (h - 1),
        ]
    )
    scene = RgbImage(planes)
    for pattern in ALL_PATTERNS:
        rgb = demosaic_bilinear(mosaic(scene, pattern))
        err = np.abs(rgb.planes - scene.planes)[:, 1:-1, 1:-1]
        assert err.max() <= 1.0 / 65535.0


def test_demosaic_too_small(rng):
    with pytest.raises(BadDimensions):
        demosaic_bilinear(rand_raw(rng, 2, 2, BayerPattern.RGGB))


def test_rgb_image_validation():
    with pytest.raises(ValueError):
        RgbImage(np.full((3, 4, 4), 1.5))
    with pytest.raises(ValueError):
        RgbImage(np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        RgbImage(np.zeros((3, 5, 4)))


@pytest.mark.parametrize("planes", [np.full((3, 4, 4), -1e-9), np.full((3, 4, 4), np.nan),
                                    np.zeros((4, 4)), np.zeros((3, 4, 2, 2)), np.zeros((3, 0, 4))])
def test_rgb_image_rejects_out_of_range_values_and_bad_shapes(planes):
    with pytest.raises(ValueError):
        RgbImage(planes)


def test_rgb_image_copies_its_input():
    planes = np.full((3, 4, 6), 0.5)
    rgb = RgbImage(planes)
    planes[:] = 0.25  # the caller's array stays writable and is not shared
    assert not np.shares_memory(rgb.planes, planes)
    assert (rgb.planes == 0.5).all() and not rgb.planes.flags.writeable


@pytest.mark.parametrize("read, shot", [(1e154, 1e154), (0.0, 1e152), (1e154, 3.9e151)])
def test_noise_params_refuse_a_variance_add_noise_cannot_hold(read, shot):
    with pytest.raises(ValueError, match="65535 must be finite"):
        NoiseParams(read, shot)


def test_add_noise_at_the_largest_variance_raises_no_warning():
    # span 1 puts a sample at the largest normalized signal, 65535; the suite
    # turns any numpy RuntimeWarning into an error
    img = RawImage(np.array([[0, 1], [65535, 9]], dtype=np.uint16), BayerPattern.RGGB, 0, 1)
    out = add_noise(img, NoiseParams(1e154, 3e151), 4)
    assert set(np.unique(out.samples)) <= {0, 1}


# Oracles: the kernels as they were written before they became per-block-position
# slices, with the round-half-away rule spelled sign(x) * floor(|x| + 0.5).
def _round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _mosaic_oracle(rgb, pattern, black, white):
    idx = channel_index_grid(pattern, rgb.height, rgb.width)
    values = np.take_along_axis(rgb.planes, idx[None].astype(np.intp), axis=0)[0]
    return (_round_half_away(values * float(white - black)) + black).astype(np.uint16)


def _add_noise_oracle(img, params, seed):
    span = float(img.white_level - img.black_level)
    x = (img.samples.astype(np.float64) - img.black_level) / span
    var = params.sigma_read**2 + params.sigma_shot**2 * np.clip(x, 0.0, None)
    rng = np.random.Generator(np.random.PCG64(seed))
    noisy = x + rng.standard_normal(x.shape) * np.sqrt(var)
    out = _round_half_away(noisy * span) + img.black_level
    return np.clip(out, img.black_level, img.white_level).astype(np.uint16)


def _demosaic_oracle(img):
    span = float(img.white_level - img.black_level)
    norm = np.clip((img.samples.astype(np.float64) - img.black_level) / span, 0.0, 1.0)
    idx = channel_index_grid(img.pattern, img.height, img.width)
    out = np.empty((3, img.height, img.width))
    for ch in range(3):
        p = np.pad(np.where(idx == ch, norm, 0.0), 1, mode="reflect")
        center = p[1:-1, 1:-1]
        up, down = p[:-2, 1:-1], p[2:, 1:-1]
        left, right = p[1:-1, :-2], p[1:-1, 2:]
        if ch == 1:
            out[ch] = (4.0 * center + (up + down + left + right)) / 4.0
        else:
            ul, ur = p[:-2, :-2], p[:-2, 2:]
            dl, dr = p[2:, :-2], p[2:, 2:]
            out[ch] = (
                4.0 * center + 2.0 * (up + down + left + right) + (ul + ur + dl + dr)
            ) / 4.0
    return out


@st.composite
def levels(draw):
    """(black, white); a power-of-two span makes k / (2 * span) land exactly on .5."""
    span = draw(st.one_of(st.integers(1, 65535), st.sampled_from([2**k for k in range(1, 16)])))
    black = draw(st.integers(0, 65535 - span))
    return black, black + span


EVEN_SIDES = st.integers(2, 12).map(lambda n: 2 * n)


@given(EVEN_SIDES, EVEN_SIDES, st.sampled_from(ALL_PATTERNS), levels(), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_demosaic_equals_sparse_plane_stencil(height, width, pattern, lv, seed):
    rng = np.random.default_rng(seed)
    black, white = lv
    # samples beyond [black, white] on both sides, and the levels themselves
    samples = rng.choice([0, black, white, 65535, *rng.integers(0, 65536, 8)],
                         size=(height, width)).astype(np.uint16)
    img = RawImage(samples, pattern, black, white)
    want = _demosaic_oracle(img)
    np.testing.assert_array_equal(demosaic_bilinear(img).planes, want)


@given(EVEN_SIDES, EVEN_SIDES, st.sampled_from(ALL_PATTERNS), levels(), st.integers(0, 2**32))
@example(4, 4, BayerPattern.GRBG, (0, 2), 0)
@settings(max_examples=200, deadline=None)
def test_mosaic_equals_index_grid_oracle(height, width, pattern, lv, seed):
    rng = np.random.default_rng(seed)
    black, white = lv
    span = white - black
    halves = rng.integers(0, 2 * span + 1, size=(3, height, width)) / (2 * span)
    planes = np.where(rng.random((3, height, width)) < 0.5, halves, rng.random((3, height, width)))
    planes[:, 0, 0] = 0.5 / span  # scales to exactly 0.5 at least when span is a power of two
    rgb = RgbImage(planes)
    out = mosaic(rgb, pattern, black, white)
    np.testing.assert_array_equal(out.samples, _mosaic_oracle(rgb, pattern, black, white))


@given(EVEN_SIDES, EVEN_SIDES, st.sampled_from(ALL_PATTERNS), st.integers(1, 30000),
       st.floats(0.05, 2.0), st.floats(0.0, 2.0), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_add_noise_equals_round_half_away_oracle(height, width, pattern, black, read, shot, seed):
    rng = np.random.default_rng(seed)
    white = int(rng.integers(black + 1, 65536))
    samples = rng.integers(0, 65536, size=(height, width), dtype=np.uint16)
    img = RawImage(samples, pattern, black, white)
    params = NoiseParams(read, shot)
    out = add_noise(img, params, seed)
    np.testing.assert_array_equal(out.samples, _add_noise_oracle(img, params, seed))


def test_add_noise_oracle_case_clips_many_samples():
    # heavy noise at black > 0 drives many values below zero before the clip
    img = RawImage(np.full((32, 32), 1100, dtype=np.uint16), BayerPattern.GBRG, 1000, 5000)
    params = NoiseParams(0.5, 0.5)
    out = add_noise(img, params, 3)
    np.testing.assert_array_equal(out.samples, _add_noise_oracle(img, params, 3))
    assert (out.samples == 1000).mean() > 0.3
