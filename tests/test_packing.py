import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayerkit import BayerPattern, PackedImage, RawImage, pack, unpack
from bayerkit.baselines import naive_flip, naive_unify
from bayerkit import (
    AugPlan,
    DenoiserSpec,
    NoiseParams,
    Transpose,
    add_noise,
    apply_plan,
    channel_index_grid,
    demosaic_bilinear,
    denoise_packed,
    flip_bayer,
    gen_scene,
    mosaic,
    transpose_is_legal,
    unify_crop,
    unify_pad,
)

from conftest import ALL_PATTERNS, assert_same_image, rand_raw


def test_pack_2x2_example():
    img = RawImage(np.array([[9, 5], [3, 7]], dtype=np.uint16), BayerPattern.BGGR)
    p = pack(img)
    np.testing.assert_array_equal(p.planes[0], [[9]])
    np.testing.assert_array_equal(p.planes[1], [[5]])
    np.testing.assert_array_equal(p.planes[2], [[3]])
    np.testing.assert_array_equal(p.planes[3], [[7]])
    assert p.pattern is BayerPattern.BGGR


def test_pack_plane_positions(rng):
    img = rand_raw(rng, 4, 4, BayerPattern.GRBG)
    p = pack(img)
    assert p.planes.shape == (4, 2, 2)
    np.testing.assert_array_equal(p.planes[0], img.samples[0::2, 0::2])
    np.testing.assert_array_equal(p.planes[3], img.samples[1::2, 1::2])


@given(st.sampled_from(ALL_PATTERNS), st.integers(1, 24), st.integers(1, 24),
       st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_pack_unpack_round_trip(pattern, half_h, half_w, seed):
    rng = np.random.default_rng(seed)
    img = rand_raw(rng, 2 * half_h, 2 * half_w, pattern, black=64, white=1023)
    assert_same_image(unpack(pack(img)), img)


def test_unpack_pack_round_trip(rng):
    planes = rng.integers(0, 65536, size=(4, 3, 5), dtype=np.uint16)
    p = PackedImage(planes, BayerPattern.RGGB, 10, 5000)
    q = pack(unpack(p))
    np.testing.assert_array_equal(q.planes, p.planes)
    assert q.pattern is p.pattern
    assert (q.black_level, q.white_level) == (10, 5000)


def test_packing_loses_no_channel_information(rng):
    # plane k of the packed layout carries channel pattern.cells[k//2][k%2]
    for pattern in ALL_PATTERNS:
        img = rand_raw(rng, 6, 6, pattern)
        p = pack(img)
        grid = channel_index_grid(pattern, 6, 6)
        for k in range(4):
            a, b = divmod(k, 2)
            assert (grid[a::2, b::2] == grid[a, b]).all()
            np.testing.assert_array_equal(p.planes[k], img.samples[a::2, b::2])


def test_naive_unify_plane_mapping():
    # GRBG planes [G,R,B,G] relabeled to BGGR order [B,G,G,R]
    planes = np.array([np.full((2, 2), v, dtype=np.uint16) for v in (10, 20, 30, 40)])
    p = PackedImage(planes, BayerPattern.GRBG)
    out = naive_unify(p, BayerPattern.BGGR)
    assert out.pattern is BayerPattern.BGGR
    np.testing.assert_array_equal(out.planes[:, 0, 0], [30, 10, 40, 20])


def test_naive_unify_preserves_plane_multiset(rng):
    img = rand_raw(rng, 8, 8, BayerPattern.GBRG)
    p = pack(img)
    out = naive_unify(p, BayerPattern.RGGB)
    got = {out.planes[k].tobytes() for k in range(4)}
    want = {p.planes[k].tobytes() for k in range(4)}
    assert got == want


def test_naive_unify_identity_target_is_noop(rng):
    img = rand_raw(rng, 6, 6, BayerPattern.BGGR)
    p = pack(img)
    out = naive_unify(p, BayerPattern.BGGR)
    np.testing.assert_array_equal(out.planes, p.planes)


def test_naive_unify_matches_correct_on_constant():
    # constant images hide spatial offsets, so relabeling looks correct
    img = RawImage(np.full((8, 8), 777, dtype=np.uint16), BayerPattern.GRBG)
    naive = unpack(naive_unify(pack(img), BayerPattern.BGGR))
    correct = unify_crop(img, BayerPattern.BGGR)
    assert (naive.samples == 777).all()
    assert (correct.samples == 777).all()
    assert naive.pattern is correct.pattern is BayerPattern.BGGR


def test_naive_unify_diverges_on_gradient():
    # a horizontal ramp exposes the uncompensated half-pixel shifts
    ramp = np.tile(np.arange(0, 1600, 100, dtype=np.uint16), (8, 1))
    img = RawImage(ramp, BayerPattern.GRBG)
    naive = unpack(naive_unify(pack(img), BayerPattern.GBRG))
    correct = unify_crop(img, BayerPattern.GBRG)  # offset (1,1) for this pair
    aligned_naive = naive.samples[1:-1, 1:-1]
    assert aligned_naive.shape == correct.samples.shape
    assert (aligned_naive != correct.samples).any()


def test_naive_flip_double_application_restores(rng):
    img = rand_raw(rng, 6, 10, BayerPattern.RGGB)
    p = pack(img)
    for axis in ("horizontal", "vertical"):
        np.testing.assert_array_equal(naive_flip(naive_flip(p, axis), axis).planes, p.planes)


def test_naive_flip_constant_matches_correct_up_to_shrink():
    img = RawImage(np.full((6, 8), 123, dtype=np.uint16), BayerPattern.BGGR)
    naive = unpack(naive_flip(pack(img), "horizontal"))
    correct = flip_bayer(img, "horizontal")
    assert (naive.samples == 123).all()
    assert (correct.samples == 123).all()


def test_naive_flip_diverges_on_gradient():
    ramp = np.tile(np.arange(0, 1200, 100, dtype=np.uint16), (6, 1))
    img = RawImage(ramp, BayerPattern.BGGR)
    naive = unpack(naive_flip(pack(img), "horizontal"))
    correct = flip_bayer(img, "horizontal")
    # compare on the naive output cropped to the correct frame
    assert (naive.samples[:, 1:-1] != correct.samples).any()


def test_naive_flip_rejects_unknown_axis(rng):
    with pytest.raises(ValueError):
        naive_flip(pack(rand_raw(rng, 4, 4, BayerPattern.RGGB)), "diag")


@pytest.mark.parametrize("bad", [70000, -1, 3.7, 65535.5, np.nan, np.inf])
def test_containers_reject_unrepresentable_samples(bad):
    samples = np.array([[bad, 1], [2, 3]])
    with pytest.raises(ValueError, match=r"integers in \[0, 65535\]"):
        RawImage(samples, BayerPattern.RGGB)
    with pytest.raises(ValueError, match=r"integers in \[0, 65535\]"):
        PackedImage(np.stack([samples] * 4)[:, :1, :1], BayerPattern.RGGB)


@given(st.lists(st.one_of(st.integers(-2**20, 2**20), st.floats()), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_raw_image_keeps_sample_values_or_rejects(values):
    samples = np.array(values).reshape(2, 2)
    try:
        img = RawImage(samples, BayerPattern.GRBG)
    except ValueError:
        assert not all(float(v).is_integer() and 0 <= v <= 65535 for v in values)
    else:
        assert img.samples.dtype == np.uint16
        np.testing.assert_array_equal(img.samples, samples)


@given(st.sampled_from(ALL_PATTERNS), st.integers(1, 12), st.integers(1, 12),
       st.sampled_from(["fresh", "transposed", "cropped"]), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_pack_makes_one_frozen_c_contiguous_copy(pattern, half_h, half_w, source, seed):
    img = rand_raw(np.random.default_rng(seed), 2 * half_h + 2, 2 * half_w + 2, pattern)
    if source == "transposed" and transpose_is_legal(pattern):
        img = apply_plan(img, AugPlan((Transpose(),)))  # an F-ordered patch
        assert img.samples.flags.f_contiguous
    elif source == "cropped":
        img = unify_crop(img, BayerPattern.RGGB)  # a strided view of a frame
    s = img.samples
    p = pack(img)
    np.testing.assert_array_equal(
        p.planes, np.stack([s[0::2, 0::2], s[0::2, 1::2], s[1::2, 0::2], s[1::2, 1::2]]))
    assert p.planes.flags.c_contiguous and not p.planes.flags.writeable
    assert not np.shares_memory(p.planes, s)
    assert (p.pattern, p.black_level, p.white_level) == (img.pattern, 0, 65535)


def test_public_constructors_copy_their_input(rng):
    arr = rng.integers(0, 65536, size=(4, 6), dtype=np.uint16)
    planes = rng.integers(0, 65536, size=(4, 2, 3), dtype=np.uint16)
    img = RawImage(arr, BayerPattern.GBRG)
    held = [(img.samples, arr.copy()), (img.with_samples(arr).samples, arr.copy()),
            (PackedImage(planes, BayerPattern.GBRG).planes, planes.copy())]
    arr ^= 0xFFFF  # every value changes; the caller's arrays are still writable
    planes ^= 0xFFFF
    for got, want in held:
        np.testing.assert_array_equal(got, want)


RESULTS = {
    "unify_pad": lambda img: unify_pad(img, BayerPattern.BGGR)[0].samples,
    "unpack": lambda img: unpack(pack(img)).samples,
    "denoise_packed": lambda img: denoise_packed(pack(img), DenoiserSpec("gaussian", 1.0)).planes,
    "mosaic": lambda img: mosaic(gen_scene(1, 8, 8), BayerPattern.GBRG).samples,
    "add_noise": lambda img: add_noise(img, NoiseParams(0.01, 0.02), 3).samples,
    "gen_scene": lambda img: gen_scene(1, 8, 8).planes,
    "demosaic_bilinear": lambda img: demosaic_bilinear(img).planes,
}


@pytest.mark.parametrize("name", RESULTS)
def test_in_package_results_refuse_writes(rng, name):
    arr = RESULTS[name](rand_raw(rng, 8, 8, BayerPattern.RGGB))
    with pytest.raises(ValueError):
        arr[0, 0] = 1


CONTAINERS = {
    "RawImage": lambda img: img,
    "crop view": lambda img: unify_crop(img, BayerPattern.BGGR),
    "PackedImage": pack,
    "RgbImage": demosaic_bilinear,
}
CLONES = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


@pytest.mark.parametrize("clone", CLONES)
@pytest.mark.parametrize("container", CONTAINERS)
def test_copies_of_a_container_are_frozen_equal_copies(rng, container, clone):
    img = CONTAINERS[container](rand_raw(rng, 8, 10, BayerPattern.GRBG, 5, 60000))
    got = CLONES[clone](img)
    assert type(got) is type(img)
    for field in dataclasses.fields(img):
        want, value = getattr(img, field.name), getattr(got, field.name)
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(value, want)
            assert not np.shares_memory(value, want)
            with pytest.raises(ValueError):
                value[0, 0] = 1
        else:
            assert value == want
