"""Deliberately wrong baseline operations, kept for differential testing.

Both operations here reproduce well-documented mistakes in raw-image
pipelines. They type-check, they look plausible, and they quietly destroy
the half-pixel spatial relationship between the four planes:

* ``naive_unify`` permutes packed planes so the channel sequence matches the
  target pattern. The labels come out right, but each plane keeps the
  spatial phase of its old block position, so the mosaic it implies is not
  one a sensor could have produced.
* ``naive_flip`` flips each packed plane in place. Same story: after
  unpacking, pixel neighborhoods no longer interleave the way the pattern
  tag claims.

Neither function belongs in a processing pipeline; they exist so the test
suite and the ``baseline-demo`` command can show, numerically, how much
damage they do compared to the correct transforms.
"""

from __future__ import annotations

import numpy as np

from .augment import AugPlan, HFlip, VFlip, apply_plan
from .image import PackedImage, RawImage
from .packing import pack, unpack
from .patterns import BayerPattern
from .simulate import demosaic_bilinear, gen_scene, mosaic
from .unify import unify_crop, unify_offsets

# one 16-bit code value in the normalized [0, 1] units of the RMSE figures
QUANTIZATION_STEP = 1.0 / 65535.0

# axis -> (mirror, crop, step) of a (planes, H, W) stack: the mirror flips the packed
# planes or the demosaic reference, the crop drops the first and last column (row), and
# the step is the correct flip, which does both on the mosaic; the order is that of
# baseline-demo's JSON
_MIRRORS = {"horizontal": (np.s_[:, :, ::-1], np.s_[:, :, 1:-1], HFlip()),
            "vertical": (np.s_[:, ::-1], np.s_[:, 1:-1], VFlip())}


def naive_unify(p: PackedImage, target: BayerPattern) -> PackedImage:
    """Relabel planes to the target channel sequence WITHOUT moving any pixel.

    R goes to the target's R slot, B to the B slot, and the two greens fill
    the target's green slots in scan order. The plane multiset is preserved;
    the spatial phase of every plane is not compensated, which is exactly
    the error this baseline exists to demonstrate.
    """
    src_letters = list(p.pattern.value)
    src_greens = [i for i, ch in enumerate(src_letters) if ch == "G"]
    order = []
    for ch in target.value:
        if ch == "G":
            order.append(src_greens.pop(0))
        else:
            order.append(src_letters.index(ch))
    return PackedImage(p.planes[order], target, p.black_level, p.white_level)


def naive_flip(p: PackedImage, axis: str) -> PackedImage:
    """Flip each plane independently, keeping plane order and pattern tag.

    axis is "horizontal" or "vertical". Applying it twice restores the input
    exactly, but a single application yields planes whose implied mosaic is
    not a valid image of the tagged pattern.
    """
    if axis not in _MIRRORS:
        raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")
    return PackedImage(p.planes[_MIRRORS[axis][0]], p.pattern, p.black_level, p.white_level)


def _interior_rmse(a: np.ndarray, b: np.ndarray, margin: int = 2) -> float:
    da = a[:, margin:-margin, margin:-margin]
    db = b[:, margin:-margin, margin:-margin]
    return float(np.sqrt(np.mean((da - db) ** 2)))


def _compare(img: RawImage, correct: RawImage, naive: PackedImage, view, crop):
    """Interior demosaic RMSEs (correct, naive) against cuts of the input's demosaic.

    With ref the (3, H, W) demosaic of img, the naive path is held against
    ref[view] and the correct path against ref[view][crop].
    """
    ref = demosaic_bilinear(img).planes[view]
    return (_interior_rmse(demosaic_bilinear(correct).planes, ref[crop]),
            _interior_rmse(demosaic_bilinear(unpack(naive)).planes, ref))


def compare_unify_paths(img: RawImage, target: BayerPattern) -> tuple[float, float]:
    """Interior demosaic RMSE of the correct crop path vs the plane permutation.

    The reference is the demosaic of the untouched input. The correct path
    must agree with the matching spatial crop of the reference; the naive
    path is compared against the uncropped reference (it does not move the
    frame). Returns (correct_rmse, naive_rmse) in normalized units.
    """
    dy, dx = unify_offsets(img.pattern, target)
    h, w = img.height, img.width
    return _compare(img, unify_crop(img, target), naive_unify(pack(img), target),
                    np.s_[:], np.s_[:, dy : h - dy, dx : w - dx])


def compare_flip_paths(img: RawImage, axis: str) -> tuple[float, float]:
    """Interior demosaic RMSE of flip-with-boundary-crop vs per-plane flipping.

    Each path is compared against its own exact geometric reference derived
    from the demosaic of the input: the correct path against the mirrored
    reference minus its first and last column/row, the naive path against
    the full mirrored reference. Returns (correct_rmse, naive_rmse).
    """
    naive = naive_flip(pack(img), axis)  # refuses an unknown axis before any other work
    mirror, crop, step = _MIRRORS[axis]
    return _compare(img, apply_plan(img, AugPlan((step,))), naive, mirror, crop)


def _summary(rows: list[dict]) -> dict:
    correct = sum(r["correct_rmse"] for r in rows) / len(rows)
    naive = sum(r["naive_rmse"] for r in rows) / len(rows)
    return {
        "mean_correct_rmse": correct,
        "mean_naive_rmse": naive,
        "ratio": (naive / correct) if correct > 0 else None,
    }


def sweep(seed: int, height: int, width: int) -> dict:
    """Both comparisons on one seeded scene, mosaicked in each of the four patterns.

    ``unify.pairs`` holds every (src, target) unification and ``flip.pairs``
    every (pattern, axis) flip, each with its correct and naive RMSE; each
    group also carries the means and their naive/correct ratio.
    """
    scene = gen_scene(seed, height, width)
    unify_rows, flip_rows = [], []
    for src in BayerPattern:
        img = mosaic(scene, src)
        for target in BayerPattern:
            correct, naive = compare_unify_paths(img, target)
            unify_rows.append({"src": src.value, "target": target.value,
                               "correct_rmse": correct, "naive_rmse": naive})
        for axis in _MIRRORS:
            correct, naive = compare_flip_paths(img, axis)
            flip_rows.append({"pattern": src.value, "axis": axis,
                              "correct_rmse": correct, "naive_rmse": naive})
    return {
        "seed": seed,
        "size": [height, width],
        "quantization_step": QUANTIZATION_STEP,
        "unify": {**_summary(unify_rows), "pairs": unify_rows},
        "flip": {**_summary(flip_rows), "pairs": flip_rows},
    }
