import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from bayerkit import (
    BadFilterParam,
    BayerPattern,
    DenoiserSpec,
    NoiseParams,
    RawImage,
    add_noise,
    denoise_packed,
    denoise_pipeline,
    disunify_crop,
    gen_scene,
    mosaic,
    pack,
    psnr,
    unify_pad,
    unpack,
)
import bayerkit.denoise as denoise
import bayerkit.image as image
from bayerkit.image import PackedImage

from conftest import ALL_PATTERNS, assert_same_image, rand_raw

PAIRS = list(itertools.product(ALL_PATTERNS, ALL_PATTERNS))
NO_HALO = ((0, 0), (0, 0))


def _smooth(plane: np.ndarray, out: np.ndarray, sigma: float, halo, step: int) -> None:
    """The Gaussian of ``plane`` into ``out``: the strip task that _smooth_plane returns, run
    on the strip pool over the plane's strips, inline, as _denoise runs it."""
    task, new_bufs = denoise._smooth_plane(plane, out, sigma, halo, step)
    for _ in image._strip_map(task, plane.shape[0], new_bufs, 0, step):
        pass


def test_spec_parse():
    assert DenoiserSpec.parse("identity") == DenoiserSpec("identity")
    g = DenoiserSpec.parse("gaussian:1.5")
    assert g.name == "gaussian" and g.param == 1.5
    m = DenoiserSpec.parse("median:2")
    assert m.name == "median" and m.param == 2
    assert DenoiserSpec.parse("gaussian:1.5") == DenoiserSpec("gaussian", 1.5)


@pytest.mark.parametrize(
    "text",
    ["", "identity:1", "gaussian", "gaussian:0", "gaussian:-1", "gaussian:abc",
     "median", "median:0", "median:3", "median:1.5", "blur:1"],
)
def test_spec_parse_rejects(text):
    with pytest.raises(BadFilterParam):
        DenoiserSpec.parse(text)


def test_identity_packed_is_bit_exact(rng):
    img = rand_raw(rng, 8, 8, BayerPattern.GRBG)
    p = pack(img)
    assert denoise_packed(p, DenoiserSpec("identity")) is p


def test_gaussian_preserves_constant_planes():
    planes = np.full((4, 5, 7), 1234, dtype=np.uint16)
    p = PackedImage(planes, BayerPattern.RGGB)
    out = denoise_packed(p, DenoiserSpec("gaussian", 1.0))
    np.testing.assert_array_equal(out.planes, planes)
    assert out.pattern is p.pattern


@pytest.mark.parametrize("value", [0, 65535])
@pytest.mark.parametrize("sigma", [0.02, 1.0, 1e6])
def test_gaussian_returns_constant_planes_at_both_ends_of_the_cast(value, sigma):
    # x + 0.5 lies in [0.5, 65535.5 + 3e-11], which the truncating uint16 cast takes to its floor
    planes = np.full((4, 67, 5), value, dtype=np.uint16)  # 67 rows: a 64-row strip and a tail
    out = np.empty_like(planes[0])
    _smooth(planes[0], out, sigma, ((1, 0), (0, 1)), 1)
    np.testing.assert_array_equal(out, planes[0])
    spec = DenoiserSpec("gaussian", sigma)
    np.testing.assert_array_equal(denoise_packed(PackedImage(planes, BayerPattern.RGGB), spec)
                                  .planes, planes)
    for pattern, work in PAIRS:
        img = RawImage(np.full((134, 10), value, dtype=np.uint16), pattern)
        assert_same_image(denoise_pipeline(img, work, spec), img)


@pytest.mark.parametrize("sigma", [0.02, 1e-160, 5e-324])
def test_gaussian_below_its_underflow_is_the_identity(rng, sigma):
    # the side weight exp(-0.5 / sigma^2) is 0.0 once sigma < 0.0259, even where sigma^2 is 0.0
    p = PackedImage(rng.integers(0, 65536, size=(4, 5, 7), dtype=np.uint16), BayerPattern.RGGB)
    np.testing.assert_array_equal(denoise_packed(p, DenoiserSpec("gaussian", sigma)).planes,
                                  p.planes)


def test_median_removes_impulse():
    planes = np.full((4, 6, 6), 500, dtype=np.uint16)
    planes[2, 3, 3] = 65535
    p = PackedImage(planes, BayerPattern.BGGR)
    out = denoise_packed(p, DenoiserSpec("median", 1))
    # the 3x3 window at the impulse holds eight 500s and one outlier
    assert out.planes[2, 3, 3] == 500
    np.testing.assert_array_equal(out.planes[0], planes[0])


def _median_oracle(plane: np.ndarray, radius: int) -> np.ndarray:
    size = 2 * radius + 1
    p = np.pad(plane.astype(np.float64), radius, mode="reflect")
    return np.median(sliding_window_view(p, (size, size)), axis=(2, 3))


# ties, both ends of the range and anything in between
SAMPLES = st.one_of(st.sampled_from([0, 1, 65534, 65535]), st.integers(0, 3),
                    st.integers(0, 65535))


# 9 rows in strips of 4: two whole strips and a 1-row tail, which radius 2 reads past on both
# sides, its lower halo reflected back into the strip above
TAIL_ROW_PLANES = (np.arange(4 * 9 * 5) * 7919 % 65536).astype(np.uint16).reshape(4, 9, 5)


@given(arrays(np.uint16, st.tuples(st.just(4), st.integers(1, 24), st.integers(1, 24)),
              elements=SAMPLES),
       st.sampled_from([1, 2]), st.integers(1, 6))
@example(TAIL_ROW_PLANES, 2, 4)
@settings(max_examples=150, deadline=None)
def test_median_equals_np_median_of_reflected_windows(planes, radius, strip_rows):
    p = PackedImage(planes, BayerPattern.RGGB)
    with mock.patch.object(image, "STRIP_ROWS", strip_rows):
        out = denoise_packed(p, DenoiserSpec("median", radius))
    assert out.planes.dtype == np.uint16
    want = np.stack([_median_oracle(pl, radius) for pl in planes])
    np.testing.assert_array_equal(out.planes, want)
    np.testing.assert_array_equal(p.planes, planes)


def _whole_plane_gaussian(plane: np.ndarray, sigma: float) -> np.ndarray:
    """The Gaussian as one whole-plane formula: edge rows by np.pad, three terms, then columns."""
    w0, w1 = denoise._gaussian_3tap(sigma)
    p = np.pad(plane.astype(np.float64), ((1, 1), (0, 0)), mode="edge")
    rows = w1 * p[:-2] + w0 * p[1:-1] + w1 * p[2:]
    p = np.pad(rows, ((0, 0), (1, 1)), mode="edge")
    out = w1 * p[:, :-2] + w0 * p[:, 1:-1] + w1 * p[:, 2:]
    return np.clip(np.floor(out + 0.5), 0, 65535).astype(np.uint16)


# both sides of the side weight's underflow at sigma ~ 0.0259, up to 1e6
SIGMAS = st.one_of(st.sampled_from([5e-324, 0.02, 0.0258, 0.026, 0.3, 1.0, 2.5, 1e6]),
                   st.floats(1e-3, 0.0258), st.floats(0.026, 1e6))


@given(st.integers(1, 4), st.data(), st.integers(1, 9), SIGMAS, st.booleans(),
       st.sampled_from([1, 2]))
@settings(max_examples=300, deadline=None)
def test_strip_gaussian_equals_the_whole_plane_formula(strip, data, width, sigma, strided, step):
    # heights of 1 and 2, whole multiples of the strip and a partial last strip. Step 1 filters
    # a plane; step 2 a mosaic of step x step site planes, in strips of `strip` mosaic rows, so
    # an odd strip ends inside a row pair, and each site plane must get the formula's result
    height = data.draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 5).map(strip.__mul__),
                                 st.integers(1, 5 * strip + 3)))
    wide = data.draw(arrays(np.uint16, (step * height, 2 * step * width), elements=SAMPLES))
    plane = wide[:, ::2] if strided else wide[:, : step * width]  # pack hands out strided planes
    got = np.empty_like(plane)
    with mock.patch.object(image, "STRIP_ROWS", step * strip):
        _smooth(plane, got, sigma, NO_HALO, step)
    for a, b in np.ndindex(step, step):
        np.testing.assert_array_equal(got[a::step, b::step],
                                      _whole_plane_gaussian(plane[a::step, b::step], sigma))
    assert got.dtype == np.uint16


def test_gaussian_working_set_stays_below_one_float64_plane():
    h, w = 1024, 1536
    planes = np.random.default_rng(5).integers(0, 65536, size=(4, h, w), dtype=np.uint16)
    p = PackedImage(planes, BayerPattern.RGGB)
    tracemalloc.start()
    try:
        out = denoise_packed(p, DenoiserSpec("gaussian", 1.0))
        packed_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        one = np.empty_like(planes[0])
        _smooth(planes[0], one, 1.0, NO_HALO, 1)
        plane_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # beyond twice the uint16 outputs
    assert packed_peak - 2 * out.planes.nbytes < h * w * 8
    assert plane_peak - one.nbytes < h * w * 8


def test_denoise_packed_holds_its_output_once():
    planes = np.random.default_rng(6).integers(0, 65536, size=(4, 1024, 1536), dtype=np.uint16)
    p = PackedImage(planes, BayerPattern.GBRG)
    tracemalloc.start()
    try:
        out = denoise_packed(p, DenoiserSpec("gaussian", 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output, one plane's result before it is stored and the strip buffers
    assert peak < 1.5 * out.planes.nbytes


def test_median_memory_does_not_grow_with_the_frame_height():
    # 27 plane-sized copies (two pads and 25 lanes) would grow with the height; the strip
    # median holds its output frame plus one mosaic strip and its 26 lane buffers
    width, spec = 512, DenoiserSpec("median", 2)
    lanes = 26 * (image.STRIP_ROWS // 2) * width * 2  # one mosaic strip's lanes, uint16
    beyond = []
    for height in (256, 2048):
        img = rand_raw(np.random.default_rng(height), height, width, BayerPattern.GBRG)
        tracemalloc.start()
        try:
            out = denoise_pipeline(img, BayerPattern.RGGB, spec)
            beyond.append(tracemalloc.get_traced_memory()[1] - out.samples.nbytes)
        finally:
            tracemalloc.stop()
    assert abs(beyond[1] - beyond[0]) < lanes


def test_filters_keep_shape_and_metadata(rng):
    img = rand_raw(rng, 12, 16, BayerPattern.GBRG, black=50, white=60000)
    p = pack(img)
    for spec in (DenoiserSpec("gaussian", 0.7), DenoiserSpec("median", 2)):
        out = denoise_packed(p, spec)
        assert out.planes.shape == p.planes.shape
        assert out.pattern is p.pattern
        assert (out.black_level, out.white_level) == (50, 60000)


def test_identity_pipeline_is_bit_exact_for_all_pairs(rng):
    spec = DenoiserSpec("identity")
    for pattern, work in PAIRS:
        img = rand_raw(rng, 10, 14, pattern)
        assert_same_image(denoise_pipeline(img, work, spec), img)


def test_pipeline_preserves_shape_and_pattern(rng):
    spec = DenoiserSpec("gaussian", 1.0)
    for pattern, work in PAIRS:
        img = rand_raw(rng, 10, 14, pattern)
        out = denoise_pipeline(img, work, spec)
        assert out.samples.shape == img.samples.shape
        assert out.pattern is pattern


def test_gaussian_pipeline_independent_of_work_pattern():
    # stronger than the acceptance tolerance: the choice of working pattern
    # must not leak into the output at all
    scene = gen_scene(21, 48, 64)
    spec = DenoiserSpec("gaussian", 1.0)
    for pattern in ALL_PATTERNS:
        noisy = add_noise(mosaic(scene, pattern), NoiseParams(0.02, 0.04), 3)
        outs = [denoise_pipeline(noisy, wp, spec) for wp in ALL_PATTERNS]
        for other in outs[1:]:
            np.testing.assert_array_equal(outs[0].samples, other.samples)


# identity, the Gaussian on both sides of its underflow, and both medians
SPECS = st.one_of(st.just(DenoiserSpec("identity")), SIGMAS.map(lambda s: DenoiserSpec("gaussian", s)),
                  st.sampled_from([DenoiserSpec("median", 1), DenoiserSpec("median", 2)]))
EVEN_SIDES = st.one_of(st.just(2), st.integers(1, 12).map(lambda n: 2 * n))


@given(EVEN_SIDES, EVEN_SIDES, SPECS, st.data())
@settings(max_examples=120, deadline=None)
def test_pipeline_equals_the_composed_public_path(height, width, spec, data):
    # pad, pack, filter, unpack and crop back: the pipeline's definition. With the identity
    # filter it checks that those steps are exact inverses, as the pipeline no longer runs them
    palette = data.draw(st.lists(st.integers(0, 65535), min_size=1, max_size=3))
    elements = data.draw(st.sampled_from([SAMPLES, st.sampled_from(palette)]))
    samples = data.draw(arrays(np.uint16, (height, width), elements=elements))
    black = data.draw(st.integers(0, 65534))
    white = data.draw(st.integers(black + 1, 65535))
    for pattern, work in PAIRS:
        img = RawImage(samples, pattern, black, white)
        u, pad = unify_pad(img, work)
        want = disunify_crop(unpack(denoise_packed(pack(u), spec)), pad)
        got = denoise_pipeline(img, work, spec)
        assert_same_image(got, want)
        assert got is img if spec.name == "identity" else got.samples.flags.owndata
        np.testing.assert_array_equal(img.samples, samples)


def test_gaussian_pipeline_improves_psnr():
    scene = gen_scene(2, 96, 96)
    clean = mosaic(scene, BayerPattern.GRBG)
    noisy = add_noise(clean, NoiseParams(0.02, 0.04), 77)
    out = denoise_pipeline(noisy, BayerPattern.BGGR, DenoiserSpec("gaussian", 1.0))
    assert psnr(out, clean) > psnr(noisy, clean) + 2.0


def test_spec_validation():
    with pytest.raises(BadFilterParam):
        DenoiserSpec("gaussian", 0.0)
    with pytest.raises(BadFilterParam):
        DenoiserSpec("median", 3)
    for name, param in [("blur", 1), ("identity", 1), ("gaussian", None),
                        ("gaussian", float("nan")), ("gaussian", True), ("median", 1.0),
                        ("median", True)]:
        with pytest.raises(BadFilterParam):
            DenoiserSpec(name, param)
    DenoiserSpec("median", 1)
    DenoiserSpec("median", 2)
