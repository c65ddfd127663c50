import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayerkit import (
    AugPlan,
    BayerPattern,
    HFlip,
    IllegalTranspose,
    ImageTooSmall,
    OddOffset,
    OutOfBounds,
    Patch,
    PatchTooLarge,
    RawImage,
    Transpose,
    VFlip,
    apply_plan,
    channel_index_grid,
    pack,
    sample_plan,
    transpose_is_legal,
)
from bayerkit.baselines import compare_flip_paths, naive_flip
from bayerkit.errors import ParseError

from conftest import ALL_PATTERNS, assert_same_image, rand_raw


def compose_index_maps(height, width, steps):
    """Independent oracle: track where every output pixel comes from.

    Index arithmetic follows the documented per-step formulas, written as
    explicit coordinate computation rather than array slicing.
    """
    cy = np.fromfunction(lambda r, c: r, (height, width), dtype=np.intp)
    cx = np.fromfunction(lambda r, c: c, (height, width), dtype=np.intp)
    for step in steps:
        h, w = cy.shape
        if isinstance(step, HFlip):
            cols = np.array([w - 2 - c for c in range(w - 2)])
            cy, cx = cy[:, cols], cx[:, cols]
        elif isinstance(step, VFlip):
            rows = np.array([h - 2 - r for r in range(h - 2)])
            cy, cx = cy[rows, :], cx[rows, :]
        elif isinstance(step, Transpose):
            cy, cx = cy.T, cx.T
        elif isinstance(step, Patch):
            cy = cy[step.top : step.top + step.height, step.left : step.left + step.width]
            cx = cx[step.top : step.top + step.height, step.left : step.left + step.width]
        else:
            raise AssertionError(step)
    return cy, cx


def apply_step(img, step):
    """``apply_plan`` of the one-step plan ``(step,)``."""
    return apply_plan(img, AugPlan((step,)))


def check_against_index_oracle(img, plan, out):
    cy, cx = compose_index_maps(img.height, img.width, plan.steps)
    assert out.samples.shape == cy.shape
    np.testing.assert_array_equal(out.samples, img.samples[cy, cx])
    # pattern preservation site by site
    src_grid = channel_index_grid(img.pattern, img.height, img.width)
    out_grid = channel_index_grid(out.pattern, *out.samples.shape)
    np.testing.assert_array_equal(out_grid, src_grid[cy, cx])


def test_hflip_example():
    img = RawImage(np.array([[1, 2, 3, 4], [5, 6, 7, 8]], dtype=np.uint16), BayerPattern.BGGR)
    out = apply_step(img, HFlip())
    np.testing.assert_array_equal(out.samples, [[3, 2], [7, 6]])
    assert out.pattern is BayerPattern.BGGR


def test_vflip_formula(rng):
    img = rand_raw(rng, 6, 4, BayerPattern.GRBG)
    out = apply_step(img, VFlip())
    assert out.samples.shape == (4, 4)
    for r in range(4):
        np.testing.assert_array_equal(out.samples[r], img.samples[6 - 2 - r])
    assert out.pattern is img.pattern


def test_double_flip_is_centered_crop(rng):
    img = rand_raw(rng, 8, 8, BayerPattern.RGGB)
    out = apply_step(apply_step(img, HFlip()), HFlip())
    np.testing.assert_array_equal(out.samples, img.samples[:, 2:-2])
    out = apply_step(apply_step(img, VFlip()), VFlip())
    np.testing.assert_array_equal(out.samples, img.samples[2:-2, :])


@given(st.sampled_from(ALL_PATTERNS), st.sampled_from([HFlip(), VFlip()]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_flip_preserves_pattern(pattern, step, seed):
    rng = np.random.default_rng(seed)
    img = rand_raw(rng, 6, 8, pattern)
    out = apply_step(img, step)
    assert out.pattern is pattern
    check_against_index_oracle(img, AugPlan((step,)), out)


def test_flip_too_small(rng):
    img = rand_raw(rng, 2, 2, BayerPattern.BGGR)
    with pytest.raises(ImageTooSmall):
        apply_step(img, HFlip())
    with pytest.raises(ImageTooSmall):
        apply_step(img, VFlip())
    # the baseline comparison runs the same step on the mosaic after its naive flip
    with pytest.raises(ImageTooSmall):
        compare_flip_paths(img, "horizontal")


def test_flip_rejects_unknown_axis(rng):
    img = rand_raw(rng, 4, 4, BayerPattern.RGGB)
    with pytest.raises(ValueError):
        naive_flip(pack(img), "diagonal")
    with pytest.raises(ValueError):
        compare_flip_paths(img, "diagonal")


def test_transpose_example():
    img = RawImage(np.array([[1, 2], [3, 4]], dtype=np.uint16), BayerPattern.RGGB)
    out = apply_step(img, Transpose())
    np.testing.assert_array_equal(out.samples, [[1, 3], [2, 4]])
    assert out.pattern is BayerPattern.RGGB


def test_transpose_illegal_patterns(rng):
    for pattern in (BayerPattern.GRBG, BayerPattern.GBRG):
        img = rand_raw(rng, 4, 4, pattern)
        with pytest.raises(IllegalTranspose) as exc:
            apply_step(img, Transpose())
        assert exc.value.pattern is pattern


def test_transpose_involution(rng):
    img = rand_raw(rng, 4, 6, BayerPattern.BGGR)
    assert_same_image(apply_step(apply_step(img, Transpose()), Transpose()), img)


def test_crop_patch_full_frame_identity(rng):
    img = rand_raw(rng, 6, 8, BayerPattern.GBRG)
    assert_same_image(apply_step(img, Patch(0, 0, 6, 8)), img)


def test_crop_patch_bottom_right(rng):
    img = rand_raw(rng, 4, 4, BayerPattern.GBRG)
    out = apply_step(img, Patch(2, 2, 2, 2))
    np.testing.assert_array_equal(out.samples, img.samples[2:, 2:])
    assert out.pattern is BayerPattern.GBRG


def test_crop_patch_odd_arguments(rng):
    img = rand_raw(rng, 6, 6, BayerPattern.RGGB)
    with pytest.raises(OddOffset):
        apply_step(img, Patch(1, 0, 2, 2))
    with pytest.raises(OddOffset):
        apply_step(img, Patch(0, 0, 3, 2))


def test_crop_patch_out_of_bounds(rng):
    img = rand_raw(rng, 4, 4, BayerPattern.RGGB)
    with pytest.raises(OutOfBounds):
        apply_step(img, Patch(2, 0, 4, 4))
    with pytest.raises(OutOfBounds):
        apply_step(img, Patch(0, 0, 0, 2))


def test_sample_plan_is_deterministic():
    a = sample_plan(1234, 8, 16, 20, BayerPattern.RGGB)
    b = sample_plan(1234, 8, 16, 20, BayerPattern.RGGB)
    assert a == b
    assert a.seed == 1234


def test_sample_plan_never_transposes_hv_patterns():
    for seed in range(200):
        plan = sample_plan(seed, 6, 16, 16, BayerPattern.GRBG)
        assert not any(isinstance(s, Transpose) for s in plan.steps)
        plan = sample_plan(seed, 6, 16, 16, BayerPattern.GBRG)
        assert not any(isinstance(s, Transpose) for s in plan.steps)


def test_sample_plan_patch_offsets_even_and_in_bounds():
    for seed in range(300):
        plan = sample_plan(seed, 8, 18, 24, BayerPattern.BGGR)
        patch = plan.steps[-1]
        assert isinstance(patch, Patch)
        assert patch.top % 2 == 0 and patch.left % 2 == 0
        assert patch.height == patch.width == 8


def test_sample_plan_too_large():
    with pytest.raises(PatchTooLarge):
        sample_plan(0, 14, 16, 16, BayerPattern.RGGB)
    with pytest.raises(OddOffset):
        sample_plan(0, 7, 16, 16, BayerPattern.RGGB)


def test_apply_plan_empty_is_identity(rng):
    img = rand_raw(rng, 6, 6, BayerPattern.GRBG)
    assert_same_image(apply_plan(img, AugPlan(())), img)


def test_apply_plan_single_step_equivalence(rng):
    img = rand_raw(rng, 6, 8, BayerPattern.BGGR)
    out = apply_plan(img, AugPlan((HFlip(),)))
    assert_same_image(out, img.with_samples(HFlip().view(img.samples, img.pattern)))


def test_apply_plan_matches_index_oracle(rng):
    for seed in range(50):
        pattern = ALL_PATTERNS[seed % 4]
        img = rand_raw(rng, 20, 16, pattern)
        plan = sample_plan(seed, 8, 20, 16, pattern)
        out = apply_plan(img, plan)
        assert out.pattern is pattern
        check_against_index_oracle(img, plan, out)


@st.composite
def arbitrary_plans(draw):
    """A pattern, an image size and a valid plan of 1-6 steps in any order."""
    pattern = draw(st.sampled_from(ALL_PATTERNS))
    height, width = 2 * draw(st.integers(1, 10)), 2 * draw(st.integers(1, 10))
    h, w, steps = height, width, []
    for _ in range(draw(st.integers(1, 6))):
        kinds = [Patch]
        kinds += [HFlip] if w >= 4 else []
        kinds += [VFlip] if h >= 4 else []
        kinds += [Transpose] if transpose_is_legal(pattern) else []
        kind = draw(st.sampled_from(kinds))
        if kind is Patch:
            ph, pw = 2 * draw(st.integers(1, h // 2)), 2 * draw(st.integers(1, w // 2))
            top = 2 * draw(st.integers(0, (h - ph) // 2))
            left = 2 * draw(st.integers(0, (w - pw) // 2))
            steps.append(Patch(top, left, ph, pw))
            h, w = ph, pw
        else:
            steps.append(kind())
            h, w = {HFlip: (h, w - 2), VFlip: (h - 2, w), Transpose: (w, h)}[kind]
    return pattern, height, width, AugPlan(tuple(steps))


@given(arbitrary_plans(), st.integers(0, 2**32 - 1))
@example((BayerPattern.RGGB, 12, 14, AugPlan((HFlip(), HFlip(), VFlip(), VFlip()))), 1)
@example((BayerPattern.BGGR, 12, 14, AugPlan((Patch(2, 4, 8, 6), Transpose(), HFlip()))), 2)
@example((BayerPattern.GRBG, 10, 12, AugPlan((Patch(0, 2, 8, 8), VFlip(), HFlip()))), 3)
@example((BayerPattern.GBRG, 8, 8, AugPlan((VFlip(), Patch(2, 0, 4, 8), HFlip()))), 4)
@settings(max_examples=150, deadline=None)
def test_apply_plan_matches_index_oracle_for_any_step_order(case, seed):
    pattern, height, width, plan = case
    img = rand_raw(np.random.default_rng(seed), height, width, pattern)
    out = apply_plan(img, plan)
    assert out.pattern is pattern
    check_against_index_oracle(img, plan, out)
    # the patch is a copy: it never keeps the full frame alive
    assert not np.shares_memory(out.samples, img.samples)


def test_apply_plan_attaches_step_index(rng):
    img = rand_raw(rng, 6, 6, BayerPattern.GRBG)
    plan = AugPlan((HFlip(), Transpose()))
    with pytest.raises(IllegalTranspose, match="plan step 1"):
        apply_plan(img, plan)


def test_plan_json_round_trip():
    plan = AugPlan((HFlip(), VFlip(), Transpose(), Patch(2, 4, 8, 8)), seed=99)
    text = plan.to_json()
    assert AugPlan.from_json(text) == plan
    import json

    payload = json.loads(text)
    assert payload["seed"] == 99
    assert payload["steps"][0] == {"op": "hflip"}
    assert payload["steps"][3] == {
        "op": "patch", "top": 2, "left": 4, "height": 8, "width": 8,
    }


def test_plan_json_rejects_garbage():
    with pytest.raises(ParseError):
        AugPlan.from_json("{not json")
    with pytest.raises(ParseError):
        AugPlan.from_json('{"seed": 0, "steps": [{"op": "rotate"}]}')
    patch = '{"op": "patch", "top": 0, "left": 0, "height": 4, "width": 4'
    for text in [
        "[1, 2]",
        '"plan"',
        "null",
        '{"steps": {"op": "hflip"}}',
        '{"steps": [1]}',
        '{"steps": ["hflip"]}',
        '{"steps": [{"op": ["hflip"]}]}',
        '{"steps": [{"top": 0}]}',
        '{"steps": [{"op": "patch", "top": 0, "left": 0, "height": 4}]}',
        '{"steps": [' + patch.replace('"height": 4', '"height": 4.9') + "}]}",
        '{"steps": [' + patch.replace('"top": 0', '"top": true') + "}]}",
        '{"steps": [' + patch.replace('"left": 0', '"left": "2"') + "}]}",
        '{"steps": [' + patch.replace('"width": 4', '"width": null') + "}]}",
        '{"seed": true, "steps": []}',
        '{"seed": 4.9, "steps": []}',
        '{"seed": "2", "steps": []}',
        # a plan without a 'steps' list is not an empty plan
        "{}",
        '{"seed": 3}',
        '{"step": [{"op": "hflip"}]}',
    ]:
        with pytest.raises(ParseError):
            AugPlan.from_json(text)
    # the same plan with integer fields parses
    assert AugPlan.from_json('{"seed": 2, "steps": [' + patch + "}]}") == AugPlan(
        (Patch(0, 0, 4, 4),), seed=2
    )


def test_plan_json_refuses_a_negative_seed():
    with pytest.raises(ParseError, match=r"^bad augmentation plan: 'seed' must be >= 0, got -1$"):
        AugPlan.from_json('{"seed": -1, "steps": [{"op": "hflip"}]}')
    assert AugPlan.from_json('{"seed": 0, "steps": []}') == AugPlan((), seed=0)


def test_plan_json_ignores_unknown_plan_and_step_keys():
    text = '{"seed": 3, "note": "x", "steps": [{"op": "hflip", "x": 1}]}'
    assert AugPlan.from_json(text) == AugPlan((HFlip(),), seed=3)


def test_plan_rejects_odd_patch():
    with pytest.raises(OddOffset):
        AugPlan((Patch(1, 0, 2, 2),))


def test_value_conservation(rng):
    # augmentation never invents sample values
    img = rand_raw(rng, 12, 12, BayerPattern.RGGB)
    plan = sample_plan(3, 6, 12, 12, BayerPattern.RGGB)
    out = apply_plan(img, plan)
    assert set(np.unique(out.samples)) <= set(np.unique(img.samples))
