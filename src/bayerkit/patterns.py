"""Bayer pattern algebra.

A Bayer pattern is the 2x2 grid of color filters tiled across the sensor.
Naming follows scan order within the block: top-left, top-right, bottom-left,
bottom-right, so "GRBG" means G at (0,0), R at (0,1), B at (1,0), G at (1,1);
block position k = 2 * row + col indexes the name, as it indexes pack's planes.
Exactly four layouts exist on real sensors (one R, one B, two diagonal Gs), and
origin shifts, flips and transposition act on them by permuting positions.

``channel_at`` is deliberately the dumbest possible channel lookup; the rest
of the library and the whole test suite treat it as ground truth.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import UnknownPattern


class ColorChannel(enum.Enum):
    """One of the three color filters. The two greens are not distinguished."""

    R = "R"
    G = "G"
    B = "B"


class TransformKind(enum.Enum):
    """Geometric primitives that act on patterns."""

    HFLIP = "hflip"
    VFLIP = "vflip"
    TRANSPOSE = "transpose"


class BayerPattern(enum.Enum):
    RGGB = "RGGB"
    BGGR = "BGGR"
    GRBG = "GRBG"
    GBRG = "GBRG"

    @property
    def cells(self) -> tuple[tuple[ColorChannel, ColorChannel], tuple[ColorChannel, ColorChannel]]:
        """The 2x2 filter grid as ((top-left, top-right), (bottom-left, bottom-right))."""
        a, b, c, d = (ColorChannel(ch) for ch in self.value)
        return ((a, b), (c, d))

    @classmethod
    def from_name(cls, name: str) -> "BayerPattern":
        """Parse an exact uppercase pattern name; case-sensitive by contract."""
        try:
            return cls[name]
        except (KeyError, TypeError):
            raise UnknownPattern(f"not a Bayer pattern name: {name!r}") from None


# channel -> small int used by vectorized code (R=0, G=1, B=2)
CHANNEL_INDEX = {ColorChannel.R: 0, ColorChannel.G: 1, ColorChannel.B: 2}
# the input's block position read by each position of the result (see pattern_transform)
_TRANSFORM_ORDERS = {
    TransformKind.HFLIP: (1, 0, 3, 2),
    TransformKind.VFLIP: (2, 3, 0, 1),
    TransformKind.TRANSPOSE: (0, 2, 1, 3),
}


def channel_at(pattern: BayerPattern, row: int, col: int) -> ColorChannel:
    """Color filter at mosaic site (row, col); the 2x2 block extends periodically.

    This is the brute-force channel-tracking oracle: everything else in the
    library must agree with it.
    """
    if row < 0 or col < 0:
        raise ValueError("row and col must be non-negative")
    return pattern.cells[row % 2][col % 2]


def channel_index_grid(pattern: BayerPattern, height: int, width: int) -> np.ndarray:
    """(height, width) int8 grid of channel indices (R=0, G=1, B=2).

    Vectorized companion of channel_at; the two are cross-checked exhaustively
    in the test suite.
    """
    block = np.array(
        [[CHANNEL_INDEX[c] for c in row] for row in pattern.cells], dtype=np.int8
    )
    reps = (height + 1) // 2, (width + 1) // 2
    return np.tile(block, reps)[:height, :width]


def _permuted(pattern: BayerPattern, order: tuple[int, ...]) -> BayerPattern:
    """The pattern whose position k holds the filter at pattern's position order[k]."""
    return BayerPattern("".join(pattern.value[i] for i in order))


def pattern_at_offset(pattern: BayerPattern, dy: int, dx: int) -> BayerPattern:
    """Pattern seen when the origin moves to (dy, dx), dy/dx in {0, 1}.

    This is a free, transitive action of Z2 x Z2 on the four patterns:
    applying the same offset twice is the identity, and every ordered pair of
    patterns is connected by exactly one offset.
    """
    if dy not in (0, 1) or dx not in (0, 1):
        raise ValueError("dy and dx must be 0 or 1")
    return _permuted(pattern, tuple(k ^ (2 * dy + dx) for k in range(4)))


def pattern_transform(pattern: BayerPattern, kind: TransformKind) -> BayerPattern:
    """Pattern of the image after a flip or transposition (pattern level only).

    With C1..C4 in scan order: HFLIP gives C2C1C4C3, VFLIP gives C3C4C1C2,
    TRANSPOSE gives C1C3C2C4. Flip results assume even image dimensions,
    which RawImage guarantees.
    """
    if not isinstance(kind, TransformKind):
        raise ValueError(f"unknown transform kind: {kind!r}")
    return _permuted(pattern, _TRANSFORM_ORDERS[kind])


def transpose_is_legal(pattern: BayerPattern) -> bool:
    """True when the off-diagonal cells are both green (RGGB and BGGR only).

    Transposing such an image swaps the two greens but keeps the pattern
    name; transposing GRBG or GBRG would swap R and B outright.
    """
    return pattern.value[1] == pattern.value[2]  # one R and one B: equal letters are G
