"""Pattern unification: convert a mosaic from any Bayer pattern to any other.

Two modes exist because training and inference have different needs. Cropping
throws away one row and/or column from each side, which is fine for training
data. Padding adds a reflected row/column instead, so every input pixel
survives; after processing, ``disunify_crop`` removes exactly the added
border and restores the original pattern. Reflection is reflect-101 (the
edge pixel is not duplicated): mirroring about the edge pixel preserves the
parity of the source index, so every padded pixel lands on the channel the
target pattern expects. Reflect-with-duplication would not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImageTooSmall, InconsistentSpec
from .image import RawImage, _adopt
from .patterns import BayerPattern, pattern_at_offset


@dataclass(frozen=True)
class PadSpec:
    """Record of the rows/columns added by unify_pad; needed to undo it.

    Padding is always symmetric and at most one row/column per side, so
    top == bottom and left == right, each 0 or 1. Carrying the original
    pattern lets disunify_crop validate that it is undoing the right thing.
    """

    top: int
    bottom: int
    left: int
    right: int
    original_pattern: BayerPattern

    def __post_init__(self):
        if self.top != self.bottom or self.left != self.right:
            raise ValueError("padding must be symmetric (top == bottom, left == right)")
        if self.top not in (0, 1) or self.left not in (0, 1):
            raise ValueError("at most one padded row/column per side")
        if not isinstance(self.original_pattern, BayerPattern):
            raise TypeError("original_pattern must be a BayerPattern")


def unify_offsets(src: BayerPattern, target: BayerPattern) -> tuple[int, int]:
    """The unique (dy, dx) in {0,1}^2 with pattern_at_offset(src, dy, dx) == target.

    The offset moves block position k to k ^ (2 * dy + dx): the XOR of R's positions.
    """
    return divmod(src.value.index("R") ^ target.value.index("R"), 2)


def unify_crop(img: RawImage, target: BayerPattern) -> RawImage:
    """Convert to the target pattern by symmetric cropping.

    Removes the first AND last row when a row shift is needed (and likewise
    for columns), so output dimensions stay even. Output pixel (r, c) is
    input pixel (r + dy, c + dx): the result is a view of the input's frozen samples.
    """
    dy, dx = unify_offsets(img.pattern, target)
    if dy and img.height < 4:
        raise ImageTooSmall(f"height {img.height} < 4: cannot crop a row pair")
    if dx and img.width < 4:
        raise ImageTooSmall(f"width {img.width} < 4: cannot crop a column pair")
    if (dy, dx) == (0, 0):
        return img
    h, w = img.height, img.width
    out = img.samples[dy : h - dy, dx : w - dx]
    return _adopt(RawImage, out, target, img.black_level, img.white_level)


def unify_pad(img: RawImage, target: BayerPattern) -> tuple[RawImage, PadSpec]:
    """Convert to the target pattern by reflect-101 padding; fully reversible.

    Every input pixel appears unmodified at output position (r + dy, c + dx).
    The returned PadSpec is what disunify_crop needs to restore the input
    bit-exactly.
    """
    dy, dx = unify_offsets(img.pattern, target)
    spec = PadSpec(dy, dy, dx, dx, img.pattern)
    if (dy, dx) == (0, 0):
        return img, spec
    padded = np.pad(img.samples, ((dy, dy), (dx, dx)), mode="reflect")
    return _adopt(RawImage, padded, target, img.black_level, img.white_level), spec


def disunify_crop(img: RawImage, spec: PadSpec) -> RawImage:
    """Remove the border recorded in spec and restore the original pattern."""
    if img.height <= 2 * spec.top or img.width <= 2 * spec.left:
        raise InconsistentSpec(
            f"pad spec {spec.top}/{spec.left} does not fit a {img.height}x{img.width} image"
        )
    expected = pattern_at_offset(spec.original_pattern, spec.top, spec.left)
    if expected is not img.pattern:
        raise InconsistentSpec(
            f"image pattern {img.pattern.value} does not match pad spec "
            f"(expected {expected.value} from {spec.original_pattern.value})"
        )
    # the checks above make (top, left) the offset back to the original pattern
    return unify_crop(img, spec.original_pattern)
