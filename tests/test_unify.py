import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayerkit import (
    BayerPattern,
    ImageTooSmall,
    InconsistentSpec,
    PadSpec,
    RawImage,
    channel_index_grid,
    disunify_crop,
    pattern_at_offset,
    unify_crop,
    unify_offsets,
    unify_pad,
)

from conftest import ALL_PATTERNS, assert_same_image, rand_raw

PAIRS = list(itertools.product(ALL_PATTERNS, ALL_PATTERNS))


def test_unify_offsets_documented_cases():
    assert unify_offsets(BayerPattern.GRBG, BayerPattern.BGGR) == (1, 0)
    assert unify_offsets(BayerPattern.BGGR, BayerPattern.BGGR) == (0, 0)
    assert unify_offsets(BayerPattern.RGGB, BayerPattern.GRBG) == (0, 1)


def test_unify_offsets_solves_every_pair():
    for src, target in PAIRS:
        dy, dx = unify_offsets(src, target)
        assert (dy, dx) in {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert pattern_at_offset(src, dy, dx) is target


def test_unify_crop_row_example():
    samples = np.array(
        [[10 * r + c for c in range(4)] for r in range(4)], dtype=np.uint16
    )
    img = RawImage(samples, BayerPattern.GRBG)
    out = unify_crop(img, BayerPattern.BGGR)
    assert out.pattern is BayerPattern.BGGR
    assert out.samples.shape == (2, 4)
    np.testing.assert_array_equal(out.samples, [[10, 11, 12, 13], [20, 21, 22, 23]])


def test_unify_crop_identity_target(rng):
    img = rand_raw(rng, 6, 8, BayerPattern.GBRG)
    assert_same_image(unify_crop(img, BayerPattern.GBRG), img)


def test_unify_crop_both_axes(rng):
    img = rand_raw(rng, 6, 6, BayerPattern.RGGB)
    out = unify_crop(img, BayerPattern.BGGR)
    assert out.samples.shape == (4, 4)
    np.testing.assert_array_equal(out.samples, img.samples[1:5, 1:5])


def test_unify_crop_channel_and_value_oracle(rng):
    for src, target in PAIRS:
        img = rand_raw(rng, 8, 10, src)
        dy, dx = unify_offsets(src, target)
        out = unify_crop(img, target)
        assert out.pattern is target
        assert out.samples.shape == (8 - 2 * dy, 10 - 2 * dx)
        np.testing.assert_array_equal(
            out.samples, img.samples[dy : 8 - dy, dx : 10 - dx]
        )
        # every output site carries the channel of the source site it came from
        src_grid = channel_index_grid(src, 8, 10)
        out_grid = channel_index_grid(target, *out.samples.shape)
        np.testing.assert_array_equal(out_grid, src_grid[dy : 8 - dy, dx : 10 - dx])


def test_unify_crop_too_small(rng):
    img = rand_raw(rng, 2, 2, BayerPattern.GRBG)
    with pytest.raises(ImageTooSmall):
        unify_crop(img, BayerPattern.BGGR)  # needs a row pair
    img = rand_raw(rng, 4, 2, BayerPattern.GBRG)
    with pytest.raises(ImageTooSmall):
        unify_crop(img, BayerPattern.BGGR)  # needs a column pair


def test_unify_pad_row_example():
    img = RawImage(np.array([[5, 7], [9, 3]], dtype=np.uint16), BayerPattern.GRBG)
    out, spec = unify_pad(img, BayerPattern.BGGR)
    np.testing.assert_array_equal(out.samples, [[9, 3], [5, 7], [9, 3], [5, 7]])
    assert out.pattern is BayerPattern.BGGR
    assert spec == PadSpec(1, 1, 0, 0, BayerPattern.GRBG)


def test_unify_pad_identity_target(rng):
    img = rand_raw(rng, 4, 4, BayerPattern.BGGR)
    out, spec = unify_pad(img, BayerPattern.BGGR)
    assert_same_image(out, img)
    assert spec == PadSpec(0, 0, 0, 0, BayerPattern.BGGR)


def test_unify_pad_corner_reflects_both_axes(rng):
    img = rand_raw(rng, 4, 4, BayerPattern.RGGB)
    out, _ = unify_pad(img, BayerPattern.BGGR)
    assert out.samples.shape == (6, 6)
    assert out.samples[0, 0] == img.samples[1, 1]
    # the input survives unmodified at offset (1, 1)
    np.testing.assert_array_equal(out.samples[1:5, 1:5], img.samples)


def test_unify_pad_channel_preservation(rng):
    # reflect-101 at distance 1 preserves index parity, hence the channel
    for src, target in PAIRS:
        img = rand_raw(rng, 6, 8, src)
        dy, dx = unify_offsets(src, target)
        out, _ = unify_pad(img, target)
        h, w = out.samples.shape

        def reflected_source_index(i, offset, size):
            j = i - offset  # back to source frame
            if j < 0:
                j = -j
            elif j >= size:
                j = 2 * size - 2 - j
            return j

        src_grid = channel_index_grid(src, 6, 8)
        out_grid = channel_index_grid(target, h, w)
        for r in range(h):
            for c in range(w):
                sr = reflected_source_index(r, dy, 6)
                sc = reflected_source_index(c, dx, 8)
                assert out.samples[r, c] == img.samples[sr, sc]
                assert out_grid[r, c] == src_grid[sr, sc]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(PAIRS),
    st.integers(1, 32),
    st.integers(1, 32),
    st.integers(0, 2**32 - 1),
)
def test_pad_then_disunify_is_identity(pair, half_h, half_w, seed):
    src, target = pair
    rng = np.random.default_rng(seed)
    img = rand_raw(rng, 2 * half_h, 2 * half_w, src)
    padded, spec = unify_pad(img, target)
    assert padded.pattern is target
    restored = disunify_crop(padded, spec)
    assert_same_image(restored, img)


def test_disunify_rejects_wrong_pattern(rng):
    img = rand_raw(rng, 4, 4, BayerPattern.RGGB)
    padded, spec = unify_pad(img, BayerPattern.BGGR)
    bad_spec = PadSpec(spec.top, spec.bottom, spec.left, spec.right, BayerPattern.GRBG)
    with pytest.raises(InconsistentSpec):
        disunify_crop(padded, bad_spec)


def test_disunify_rejects_underflow(rng):
    img = rand_raw(rng, 2, 2, BayerPattern.GRBG)
    spec = PadSpec(1, 1, 0, 0, BayerPattern.GBRG)
    with pytest.raises(InconsistentSpec):
        disunify_crop(img, spec)


def test_disunify_noop_spec(rng):
    img = rand_raw(rng, 4, 6, BayerPattern.GBRG)
    assert_same_image(disunify_crop(img, PadSpec(0, 0, 0, 0, BayerPattern.GBRG)), img)


def test_padspec_validation():
    with pytest.raises(ValueError):
        PadSpec(1, 0, 0, 0, BayerPattern.RGGB)  # asymmetric
    with pytest.raises(ValueError):
        PadSpec(2, 2, 0, 0, BayerPattern.RGGB)  # more than one row


def test_padspec_refuses_an_original_pattern_that_is_not_a_bayer_pattern():
    with pytest.raises(TypeError, match="original_pattern must be a BayerPattern"):
        PadSpec(0, 0, 0, 0, "RGGB")


def test_crop_and_pad_agree_on_pattern_and_parity(rng):
    for src, target in PAIRS:
        img = rand_raw(rng, 6, 10, src)
        cropped = unify_crop(img, target)
        padded, _ = unify_pad(img, target)
        assert cropped.samples.shape[0] % 2 == 0
        assert cropped.samples.shape[1] % 2 == 0
        assert padded.samples.shape[0] % 2 == 0
        assert padded.samples.shape[1] % 2 == 0
        assert cropped.pattern is padded.pattern is target


@pytest.mark.parametrize("src, target", [(s, t) for s, t in PAIRS if unify_offsets(s, t) != (0, 0)])
def test_crops_are_frozen_views_of_their_frame(rng, src, target):
    img = rand_raw(rng, 8, 10, src)
    crop = unify_crop(img, target)
    padded, spec = unify_pad(img, target)
    back = disunify_crop(padded, spec)
    for out, frame in ((crop, img), (back, padded)):
        assert np.shares_memory(out.samples, frame.samples)
        assert not out.samples.flags.writeable
        with pytest.raises(ValueError):
            out.samples[0, 0] = 1
