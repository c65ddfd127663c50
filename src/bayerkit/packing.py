"""Space-to-depth packing between the mosaic and the 4-plane layout.

Denoisers consume the mosaic as four half-resolution planes, one per 2x2
block position. ``pack`` and ``unpack`` are exact inverses; no value is
touched, so the pair is a lossless relabeling of the same data.
"""

from __future__ import annotations

import numpy as np

from .image import PackedImage, RawImage, _adopt


def pack(img: RawImage) -> PackedImage:
    """Split the mosaic into planes TL, TR, BL, BR.

    planes[2a + b][r, c] == img.samples[2r + a, 2c + b] for a, b in {0, 1}.
    """
    h, w = img.height // 2, img.width // 2
    # one copy in C order: plane 2a + b is samples[a::2, b::2], C-contiguous
    planes = img.samples.reshape(h, 2, w, 2).transpose(1, 3, 0, 2).copy().reshape(4, h, w)
    return _adopt(PackedImage, planes, img.pattern, img.black_level, img.white_level)


def unpack(p: PackedImage) -> RawImage:
    """Exact inverse of pack; metadata is carried through unchanged."""
    h, w = p.height, p.width
    mosaic = np.empty((2 * h, 2 * w), dtype=np.uint16)
    # four slice assignments: one via pack's site view took 16-20 ms, not 3, on (4, 1025, 1537)
    mosaic[0::2, 0::2] = p.planes[0]
    mosaic[0::2, 1::2] = p.planes[1]
    mosaic[1::2, 0::2] = p.planes[2]
    mosaic[1::2, 1::2] = p.planes[3]
    return _adopt(RawImage, mosaic, p.pattern, p.black_level, p.white_level)
