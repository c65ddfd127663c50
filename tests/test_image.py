"""The strip engine of image.py: row strips and the plane-space edge-halo strips."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import bayerkit.image as image
from bayerkit.image import _halo_strips, _row_strips

SAMPLES = st.one_of(st.sampled_from([0, 1, 65534, 65535]), st.integers(0, 65535))


def _planes(draw, layout, height, width):
    """uint16 planes (..., height, width): contiguous, column-strided, or the (2, 2, h, w)
    site view of a mosaic that the demosaic reads."""
    if layout == "site view":
        mosaic = draw(arrays(np.uint16, (2 * height, 2 * width), elements=SAMPLES))
        return mosaic.reshape(height, 2, width, 2).transpose(1, 3, 0, 2)
    if layout == "strided":
        return draw(arrays(np.uint16, (height, 2 * width), elements=SAMPLES))[:, ::2]
    return draw(arrays(np.uint16, (height, width), elements=SAMPLES))


@given(st.integers(1, 4), st.data(), st.integers(1, 9),
       st.sampled_from(["contiguous", "strided", "site view"]))
@settings(max_examples=200, deadline=None)
def test_halo_strips_equal_the_edge_padded_planes(strip_rows, data, width, layout):
    # heights of 1, whole multiples of the strip and partial last strips
    height = data.draw(st.one_of(st.just(1), st.integers(1, 4).map(strip_rows.__mul__),
                                 st.integers(1, 4 * strip_rows + 3)))
    planes = _planes(data.draw, layout, height, width)
    lead = [(0, 0)] * (planes.ndim - 2)
    want = np.pad(planes.astype(np.float64), lead + [(1, 1), (1, 1)], mode="edge")
    owned = 0
    with mock.patch.object(image, "STRIP_ROWS", strip_rows):
        for r0, n, strip in _halo_strips(planes):
            assert (r0, n) == (owned, min(strip_rows, height - r0))
            assert strip.dtype == np.float64 and strip.flags.c_contiguous
            np.testing.assert_array_equal(strip, want[..., r0 : r0 + n + 2, :])
            strip[...] = -1.0  # the caller may overwrite it
            owned += n
    assert owned == height


@given(st.integers(1, 6), st.integers(1, 50))
def test_row_strips_own_every_row_once_and_read_none_past_the_frame(strip_rows, height):
    # top to bottom, each row once, none past the frame; the SSIM halo beneath a strip is
    # covered by test_metrics_match_the_full_frame_oracle, which shrinks STRIP_ROWS
    owned = 0
    with mock.patch.object(image, "STRIP_ROWS", strip_rows):
        for r0, n in _row_strips(height):
            assert (r0, n) == (owned, min(strip_rows, height - r0))  # so n <= STRIP_ROWS
            owned += n
    assert owned == height
