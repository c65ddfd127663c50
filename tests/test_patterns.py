import itertools

import pytest
from hypothesis import given, strategies as st

from bayerkit import (
    BayerPattern,
    ColorChannel,
    TransformKind,
    channel_at,
    channel_index_grid,
    pattern_at_offset,
    pattern_transform,
    transpose_is_legal,
)
from bayerkit.errors import UnknownPattern
from bayerkit.patterns import CHANNEL_INDEX

from conftest import ALL_PATTERNS


def test_channel_at_documented_cases():
    assert channel_at(BayerPattern.BGGR, 0, 0) is ColorChannel.B
    assert channel_at(BayerPattern.RGGB, 0, 0) is ColorChannel.R
    # (3 mod 2, 2 mod 2) = (1, 0): bottom-left of GRBG is B
    assert channel_at(BayerPattern.GRBG, 3, 2) is ColorChannel.B


def test_cells_scan_order():
    # name order is top-left, top-right, bottom-left, bottom-right
    for p in ALL_PATTERNS:
        (c1, c2), (c3, c4) = p.cells
        assert "".join(c.value for c in (c1, c2, c3, c4)) == p.value


def test_pattern_composition():
    for p in ALL_PATTERNS:
        cells = [c for row in p.cells for c in row]
        assert cells.count(ColorChannel.R) == 1
        assert cells.count(ColorChannel.B) == 1
        assert cells.count(ColorChannel.G) == 2
        # the two greens are diagonal
        assert (p.cells[0][0] is ColorChannel.G) == (p.cells[1][1] is ColorChannel.G)
        assert (p.cells[0][1] is ColorChannel.G) == (p.cells[1][0] is ColorChannel.G)


@given(st.sampled_from(ALL_PATTERNS), st.integers(0, 500), st.integers(0, 500))
def test_channel_at_periodicity(pattern, row, col):
    assert channel_at(pattern, row, col) is channel_at(pattern, row + 2, col)
    assert channel_at(pattern, row, col) is channel_at(pattern, row, col + 2)


def test_channel_at_rejects_negative_indices():
    with pytest.raises(ValueError):
        channel_at(BayerPattern.RGGB, -1, 0)


def test_channel_index_grid_matches_channel_at():
    for p in ALL_PATTERNS:
        grid = channel_index_grid(p, 6, 8)
        for r in range(6):
            for c in range(8):
                assert grid[r, c] == CHANNEL_INDEX[channel_at(p, r, c)]


def test_pattern_at_offset_documented_cases():
    assert pattern_at_offset(BayerPattern.GRBG, 1, 0) is BayerPattern.BGGR
    assert pattern_at_offset(BayerPattern.GBRG, 0, 1) is BayerPattern.BGGR
    assert pattern_at_offset(BayerPattern.RGGB, 1, 1) is BayerPattern.BGGR


def test_pattern_at_offset_identity_and_involution():
    for p in ALL_PATTERNS:
        assert pattern_at_offset(p, 0, 0) is p
        for dy, dx in itertools.product((0, 1), repeat=2):
            assert pattern_at_offset(pattern_at_offset(p, dy, dx), dy, dx) is p


@pytest.mark.parametrize("dy, dx", [(2, 0), (0, 2)])
def test_pattern_at_offset_rejects_an_offset_outside_0_and_1(dy, dx):
    with pytest.raises(ValueError, match="dy and dx must be 0 or 1"):
        pattern_at_offset(BayerPattern.RGGB, dy, dx)


def test_offset_action_is_free_and_transitive():
    # every ordered (src, dst) pair is reached by exactly one offset
    for src in ALL_PATTERNS:
        images = [pattern_at_offset(src, dy, dx) for dy in (0, 1) for dx in (0, 1)]
        assert sorted(p.value for p in images) == sorted(p.value for p in ALL_PATTERNS)


def test_pattern_at_offset_agrees_with_channel_at():
    for src in ALL_PATTERNS:
        for dy, dx in itertools.product((0, 1), repeat=2):
            shifted = pattern_at_offset(src, dy, dx)
            for r in range(4):
                for c in range(4):
                    assert channel_at(shifted, r, c) is channel_at(src, r + dy, c + dx)


def test_pattern_transform_documented_cases():
    assert pattern_transform(BayerPattern.BGGR, TransformKind.HFLIP) is BayerPattern.GBRG
    assert pattern_transform(BayerPattern.RGGB, TransformKind.TRANSPOSE) is BayerPattern.RGGB
    assert pattern_transform(BayerPattern.GRBG, TransformKind.TRANSPOSE) is BayerPattern.GBRG


@pytest.mark.parametrize("kind", list(TransformKind))
def test_pattern_transform_is_involution(kind):
    for p in ALL_PATTERNS:
        assert pattern_transform(pattern_transform(p, kind), kind) is p


def test_flips_match_parity_shifts():
    # flipping an even-sized image shifts the origin parity by one
    for p in ALL_PATTERNS:
        assert pattern_transform(p, TransformKind.HFLIP) is pattern_at_offset(p, 0, 1)
        assert pattern_transform(p, TransformKind.VFLIP) is pattern_at_offset(p, 1, 0)


@pytest.mark.parametrize("kind", ["hflip", None, ["transpose"]])
def test_pattern_transform_rejects_non_kinds(kind):
    with pytest.raises(ValueError, match="unknown transform kind"):
        pattern_transform(BayerPattern.RGGB, kind)


def test_transpose_legality_is_diagonal_green():
    for p in ALL_PATTERNS:
        diag_green = (
            p.cells[0][1] is ColorChannel.G and p.cells[1][0] is ColorChannel.G
        )
        assert transpose_is_legal(p) == diag_green
        assert transpose_is_legal(p) == (pattern_transform(p, TransformKind.TRANSPOSE) is p)
    assert transpose_is_legal(BayerPattern.RGGB)
    assert transpose_is_legal(BayerPattern.BGGR)
    assert not transpose_is_legal(BayerPattern.GRBG)
    assert not transpose_is_legal(BayerPattern.GBRG)


def test_from_name_is_case_sensitive():
    assert BayerPattern.from_name("GBRG") is BayerPattern.GBRG
    for bad in ("rggb", "Rggb", "RGGBX", "", "XYZW", None):
        with pytest.raises(UnknownPattern):
            BayerPattern.from_name(bad)


def test_pattern_serialization_names():
    assert {p.value for p in ALL_PATTERNS} == {"RGGB", "BGGR", "GRBG", "GBRG"}
    for p in ALL_PATTERNS:
        assert p.value == p.name and len(p.value) == 4 and p.value.isupper()
