"""Pattern-preserving augmentation for Bayer mosaics.

A plain flip of a mosaic changes its Bayer pattern, so each flip here is
fused with a compensating crop of the first and last column (or row): the
output is two pixels narrower (or shorter) and has the SAME pattern as the
input. The intermediate wrong-pattern image is never exposed.

Transposition keeps the pattern only when the off-diagonal cells are both
green, i.e. for RGGB and BGGR; for GRBG/GBRG it is refused outright.
Patch extraction must start at even offsets with even sizes, otherwise the
patch's pattern would silently shift.

Each step's ``view`` maps a sample array to a view of it, so ``apply_plan``
applies a whole plan as one strided slice of the source and copies the
result once, into the one RawImage it returns. No step turns a valid mosaic
into odd or sub-2 dimensions, so the intermediate views need no checks of
their own.

``sample_plan`` draws a random combination of these primitives from a seed;
the draw order is pinned (hflip, vflip, transpose, patch) and the generator
is numpy's PCG64, so a given seed yields the same plan on every run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import get_args

import numpy as np

from .errors import (
    BayerKitError,
    IllegalTranspose,
    ImageTooSmall,
    OddOffset,
    OutOfBounds,
    ParseError,
    PatchTooLarge,
    json_int,
)
from .image import RawImage
from .patterns import transpose_is_legal, BayerPattern


@dataclass(frozen=True)
class HFlip:
    """Mirror left-right and drop the boundary column pair: out(r, c) = a(r, w-2-c).

    The mirror alone would turn C1C2C3C4 into C2C1C4C3; dropping the first and
    last column of the mirrored image shifts the origin back to the input's pattern.
    """

    op = "hflip"

    def view(self, a: np.ndarray, pattern: BayerPattern) -> np.ndarray:
        if a.shape[1] < 4:
            raise ImageTooSmall(f"width {a.shape[1]} < 4: nothing would remain after flip+crop")
        return a[:, -2:0:-1]


@dataclass(frozen=True)
class VFlip:
    """Mirror top-bottom and drop the boundary row pair: out(r, c) = a(h-2-r, c).

    The mirror alone would turn C1C2C3C4 into C3C4C1C2; dropping the first and
    last row of the mirrored image shifts the origin back to the input's pattern.
    """

    op = "vflip"

    def view(self, a: np.ndarray, pattern: BayerPattern) -> np.ndarray:
        if a.shape[0] < 4:
            raise ImageTooSmall(f"height {a.shape[0]} < 4: nothing would remain after flip+crop")
        return a[-2:0:-1, :]


@dataclass(frozen=True)
class Transpose:
    """Swap rows and columns: out(r, c) = a(c, r).

    A transpose keeps the diagonal cells of the 2x2 block and swaps the
    off-diagonal ones, so it keeps the pattern only when both off-diagonal
    cells are green (RGGB, BGGR); for GRBG and GBRG it raises IllegalTranspose.
    """

    op = "transpose"

    def view(self, a: np.ndarray, pattern: BayerPattern) -> np.ndarray:
        if not transpose_is_legal(pattern):
            raise IllegalTranspose(
                f"transposing a {pattern.value} image would produce a different pattern",
                pattern=pattern,
            )
        return a.T


@dataclass(frozen=True)
class Patch:
    """The height x width window at (top, left); the pattern is unchanged.

    Every offset and size must be even, and an odd one raises OddOffset at
    construction: an odd offset is precisely the operation that unification
    uses to CHANGE a pattern, and must never happen here.
    """

    top: int
    left: int
    height: int
    width: int
    op = "patch"

    def __post_init__(self):
        if any(v % 2 for v in (self.top, self.left, self.height, self.width)):
            raise OddOffset(f"patch offsets and sizes must be even: {self}")

    def view(self, a: np.ndarray, pattern: BayerPattern) -> np.ndarray:
        top, left, height, width = self.top, self.left, self.height, self.width
        if top < 0 or left < 0 or height < 2 or width < 2:
            raise OutOfBounds(f"degenerate patch: top={top} left={left} {height}x{width}")
        if top + height > a.shape[0] or left + width > a.shape[1]:
            raise OutOfBounds(
                f"patch {top}+{height} x {left}+{width} exceeds image {a.shape[0]}x{a.shape[1]}"
            )
        return a[top : top + height, left : left + width]


Step = HFlip | VFlip | Transpose | Patch

# JSON "op" name -> step class; a step's other JSON keys are its dataclass fields
_STEPS = {kind.op: kind for kind in get_args(Step)}
_PLAN = "bad augmentation plan"


@dataclass(frozen=True)
class AugPlan:
    """An ordered, serializable sequence of augmentation steps.

    ``seed`` records how sampled plans were drawn; hand-built plans keep the
    default 0. Transpose steps are validated against the image pattern at
    apply time, not at construction.
    """

    steps: tuple[Step, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def to_json(self) -> str:
        payload = {"seed": self.seed, "steps": [{"op": s.op, **asdict(s)} for s in self.steps]}
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "AugPlan":
        """Parse a plan; bytes are decoded as UTF-8 inside the same error boundary."""
        try:
            payload = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        except (ValueError, RecursionError) as e:
            raise ParseError(f"{_PLAN}: {e}") from e
        entries = payload.get("steps") if isinstance(payload, dict) else None
        if not isinstance(entries, list):
            raise ParseError(f"{_PLAN}: expected an object with a 'steps' list")
        steps = []
        for i, entry in enumerate(entries):
            op = entry.get("op") if isinstance(entry, dict) else None
            kind = _STEPS.get(op) if isinstance(op, str) else None
            if kind is None:
                raise ParseError(f"{_PLAN}: step {i} has no known op: {json.dumps(entry)}")
            steps.append(kind(*(json_int(entry, f.name, _PLAN) for f in fields(kind))))
        seed = json_int(payload, "seed", _PLAN, 0)
        if seed < 0:  # it records what sample_plan was given, and PCG64 refuses a negative seed
            raise ParseError(f"{_PLAN}: 'seed' must be >= 0, got {seed}")
        return cls(tuple(steps), seed=seed)


def sample_plan(
    seed: int,
    patch_size: int,
    img_height: int,
    img_width: int,
    pattern: BayerPattern,
) -> AugPlan:
    """Draw a random augmentation plan, deterministically from the seed.

    Independent fair coins decide hflip and vflip; a third coin decides
    transpose, drawn only for patterns where transposition is legal. The
    final step is always a patch_size x patch_size patch whose top/left are
    drawn uniformly from the even offsets that keep the patch inside the
    (shrunk, possibly transposed) frame. patch_size must leave room for the
    flip shrinkage: patch_size <= min(height, width) - 4.
    """
    if patch_size % 2:
        raise OddOffset(f"patch_size must be even, got {patch_size}")
    if patch_size < 2 or patch_size > min(img_height, img_width) - 4:
        raise PatchTooLarge(
            f"patch_size {patch_size} does not fit a {img_height}x{img_width} image "
            "with room for flip shrinkage"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    steps: list[Step] = []
    h, w = img_height, img_width
    if rng.integers(0, 2):
        steps.append(HFlip())
        w -= 2
    if rng.integers(0, 2):
        steps.append(VFlip())
        h -= 2
    if transpose_is_legal(pattern) and rng.integers(0, 2):
        steps.append(Transpose())
        h, w = w, h
    top = 2 * int(rng.integers(0, (h - patch_size) // 2 + 1))
    left = 2 * int(rng.integers(0, (w - patch_size) // 2 + 1))
    steps.append(Patch(top, left, patch_size, patch_size))
    return AugPlan(tuple(steps), seed=seed)


def apply_plan(img: RawImage, plan: AugPlan) -> RawImage:
    """Apply the plan's steps in order; the output pattern equals the input's.

    Each step maps a view of the samples to a view, so the whole plan is one
    strided slice of the source, copied once into the returned image. Step
    errors propagate with the failing step index prepended to the message.
    """
    samples = img.samples
    for i, step in enumerate(plan.steps):
        try:
            samples = step.view(samples, img.pattern)
        except BayerKitError as e:
            e.args = (f"plan step {i} ({step.op}): {e}",)
            raise
    return img.with_samples(samples)
