"""The frame's geometry in image.py: row strips and their buffers, the plane-space halo strips
of every neighbourhood kernel and their mosaic mode, and the site view. The halo strips are
those of _halo_fill's fill run as a strip task on the strip pool, as the filters run it."""

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import bayerkit.image as image
from bayerkit import (
    BayerPattern,
    DenoiserSpec,
    NoiseParams,
    RawImage,
    add_noise,
    demosaic_bilinear,
    denoise_pipeline,
    gen_scene,
    load_raw,
    metric_report,
    mosaic,
    save_raw,
    unify_crop,
    unify_offsets,
)
from bayerkit.cli import main
from bayerkit.image import _halo_fill, _row_strips, _sites, _span, _strip_map

from conftest import ALL_PATTERNS

SAMPLES = st.one_of(st.sampled_from([0, 1, 65534, 65535]), st.integers(0, 65535))


def _planes(draw, layout, height, width):
    """uint16 planes (..., height, width): contiguous, column-strided, column-major, or the
    (2, 2, h, w) site view of a mosaic that the demosaic reads."""
    if layout == "site view":
        return _sites(draw(arrays(np.uint16, (2 * height, 2 * width), elements=SAMPLES)))
    if layout == "strided":
        return draw(arrays(np.uint16, (height, 2 * width), elements=SAMPLES))[:, ::2]
    if layout == "F order":
        return np.asfortranarray(draw(arrays(np.uint16, (height, width), elements=SAMPLES)))
    return draw(arrays(np.uint16, (height, width), elements=SAMPLES))


# the engine's keywords: none (its defaults, radius 1 and one edge row and column a side, the
# strips of the Gaussian and the demosaic), or radius 1 or 2, any of the 16 per-side halos of
# 0 or 1 edge rows and columns, and either strip dtype
ENGINE_KWARGS = st.one_of(st.just({}), st.fixed_dictionaries({
    "radius": st.sampled_from([1, 2]),
    "halo": st.tuples(*[st.integers(0, 1)] * 4).map(lambda t: (t[:2], t[2:])),
    "dtype": st.sampled_from([np.uint16, np.float64]),
}))


@given(st.integers(1, 4), st.data(), st.integers(1, 9),
       st.sampled_from(["contiguous", "strided", "F order", "site view"]), ENGINE_KWARGS)
@settings(max_examples=400, deadline=None)
def test_halo_strips_equal_the_edge_padded_planes(strip_rows, data, width, layout, kwargs):
    # heights of 1 and 2, whole multiples of the strip and partial last strips
    height = data.draw(st.one_of(st.sampled_from([1, 2]),
                                 st.integers(1, 4).map(strip_rows.__mul__),
                                 st.integers(1, 4 * strip_rows + 3)))
    planes = _planes(data.draw, layout, height, width)
    radius, halo = kwargs.get("radius", 1), kwargs.get("halo", ((1, 1), (1, 1)))
    dtype = kwargs.get("dtype", np.float64)
    # the one rule: the edge pad by the halo, then the reflect pad by the radius, cut to the
    # strip's rows and the plane's columns, each with the radius around them
    lead = [(0, 0)] * (planes.ndim - 2)
    want = np.pad(np.pad(planes.astype(dtype), lead + list(halo), mode="edge"),
                  lead + [(radius, radius)] * 2, mode="reflect")
    (top, _), (left, _) = halo
    fill, new_buf = _halo_fill(planes, **{key: kwargs[key] for key in ("radius", "halo")
                                          if key in kwargs})
    new_bufs = functools.partial(new_buf, dtype=kwargs["dtype"]) if "dtype" in kwargs else new_buf
    owned = 0
    with mock.patch.object(image, "STRIP_ROWS", strip_rows):
        for strip in _strip_map(fill, height, new_bufs, 0):
            r0, n = owned, strip.shape[-2] - 2 * radius  # the strip of rows r0 .. r0 + n - 1
            assert n == min(strip_rows, height - r0)
            assert strip.dtype == dtype and strip.flags.c_contiguous
            np.testing.assert_array_equal(
                strip, want[..., top + r0 : top + r0 + n + 2 * radius,
                            left : left + width + 2 * radius])
            strip[...] = 7  # the caller may overwrite it
            owned += n
    assert owned == height


# the mosaic-mode halos: denoise_pipeline's for each of the 16 (pattern, work pattern) pairs,
# and None for the Gaussian's, which gives every site plane one edge row and column
MOSAIC_CASES = [*itertools.product(ALL_PATTERNS, ALL_PATTERNS), None]


@given(st.integers(1, 6), st.booleans(), st.data(), st.integers(1, 7),
       st.sampled_from(MOSAIC_CASES), st.sampled_from([1, 2]),
       st.sampled_from([np.uint16, np.float64]))
@settings(max_examples=400, deadline=None)
def test_mosaic_halo_strips_interleave_the_padded_site_planes(strip_rows, odd, data, width, case,
                                                              radius, dtype):
    # plane heights from 1; strips of STRIP_ROWS // 2 mosaic rows, odd ones included, so a
    # strip boundary may fall inside a row pair
    height = data.draw(st.one_of(st.sampled_from([1, 2]),
                                 st.integers(1, 4).map(strip_rows.__mul__),
                                 st.integers(1, 2 * strip_rows + 3)))
    mosaic = data.draw(arrays(np.uint16, (2 * height, 2 * width), elements=SAMPLES))
    dy, dx = (2, 2) if case is None else unify_offsets(*case)
    halo = ((dy, dy), (dx, dx))
    # the oracle: each site plane padded by the rule with its own halo, cut to its rows and
    # columns with the radius around them, and interleaved: row 2k + a of want is row k of
    # plane a's cut
    want = np.empty((2 * height + 4 * radius, 2 * width + 4 * radius), dtype)
    for a, b in np.ndindex(2, 2):
        # the Gaussian's halo is one edge row and column a side; unify_pad's reflect-101 pad by
        # (dy, dx) is one edge row on top of an odd-row plane, or at the bottom of an even one,
        # and likewise a column by b
        plane_halo = (((1, 1), (1, 1)) if case is None
                      else ((dy * a, dy - dy * a), (dx * b, dx - dx * b)))
        (top, _), (left, _) = plane_halo
        padded = np.pad(np.pad(mosaic[a::2, b::2].astype(dtype), plane_halo, mode="edge"),
                        radius, mode="reflect")
        want[a::2, b::2] = padded[top : top + height + 2 * radius,
                                  left : left + width + 2 * radius]
    # the row source: a float copy of the frame, whose rows outside a strip's window are set
    # to NaN before the strip is asked for, so a read of any of them shows in the strip. The
    # window is rows r0 - 2 * radius .. r0 + n + 2 * radius - 1; a 1-row strip may reach one
    # row further, where a site plane with no halo row reflects about its own edge row, the
    # far row of the frame's edge pair
    source = mosaic.astype(np.float64)
    fill, new_buf = _halo_fill(mosaic, radius, halo, 2)
    source_fill, source_buf = _halo_fill(source, radius, halo, 2)
    owned = 0
    with mock.patch.object(image, "STRIP_ROWS", 2 * strip_rows + odd):
        sourced = _strip_map(source_fill, 2 * height, source_buf, 0, 2)  # float64 strips
        for strip in _strip_map(fill, 2 * height, lambda rows: new_buf(rows, dtype), 0, 2):
            r0, n = owned, strip.shape[0] - 4 * radius  # the strip of rows r0 .. r0 + n - 1
            assert n == min(strip_rows, 2 * height - r0)
            assert strip.dtype == dtype and strip.flags.c_contiguous
            np.testing.assert_array_equal(strip, want[r0 : r0 + n + 4 * radius])
            window = slice(max(0, r0 - 2 * radius - (n == 1)), r0 + n + 2 * radius + (n == 1))
            source[...] = np.nan
            source[window] = mosaic[window]
            np.testing.assert_array_equal(next(sourced), want[r0 : r0 + n + 4 * radius])
            owned += n
    assert owned == 2 * height
    assert next(sourced, None) is None


@given(st.data(), st.sampled_from(["C order", "site view"]), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_span_rows_are_the_slices_rows(data, layout, pitch):
    # widths 1 and 2 included; a site view's halo strips hold planes of pitch + 2
    rows = data.draw(st.integers(1, 6))
    if layout == "C order":
        bufs = [data.draw(arrays(np.float64, (rows, pitch), elements=st.floats(-9, 9)))]
    else:
        mosaic = data.draw(arrays(np.uint16, (2 * rows, 2 * pitch), elements=SAMPLES))
        fill, new_buf = _halo_fill(_sites(mosaic))
        bufs = [plane for strip in _strip_map(fill, rows, new_buf, 0)
                for plane in strip.reshape(4, rows + 2, pitch + 2)]
    for buf in bufs:
        height, width = buf.shape
        i, j = data.draw(st.integers(0, height - 1)), data.draw(st.integers(0, width - 1))
        n, w = data.draw(st.integers(1, height - i)), data.draw(st.integers(1, width - j))
        span = _span(buf, i, j, n, w)
        assert span.size == (n - 1) * width + w and np.shares_memory(span, buf)
        for r in range(n):
            np.testing.assert_array_equal(span[r * width : r * width + w], buf[i + r, j : j + w])
        span[:] = -1.0  # a write through the span lands in the slice
        assert (buf[i : i + n, j : j + w] == -1.0).all()


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


@given(st.integers(1, 50), st.lists(st.integers(1, 9), max_size=3),
       st.sampled_from([np.float64, np.dtype(">u2")]))
def test_row_strips_hand_out_reused_strip_buffers(height, widths, dtype):
    addresses = set()
    with mock.patch.object(image, "STRIP_ROWS", 4):
        for r0, n, *bufs in _row_strips(height, *widths, dtype=dtype):
            assert [buf.shape for buf in bufs] == [(n, width) for width in widths]
            assert all(buf.dtype == dtype and buf.flags.c_contiguous for buf in bufs)
            for buf in bufs:  # each buffer is its own memory
                assert sum(np.shares_memory(buf, other) for other in bufs) == 1
            addresses.add(tuple(buf.__array_interface__["data"][0] for buf in bufs))
    assert len(addresses) == 1  # every strip reuses the first strip's buffers


def _in_layout(values, layout, writable=False):
    """An array equal to ``values`` (h, w) in the given memory layout, sharing nothing with it:
    C order, F order, a crop view of a larger frame, or a view with negative strides."""
    if layout == "C":
        return values.copy()
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "crop":  # unify_crop's view is frozen; a write goes to a slice of the same kind
        if writable:
            return np.pad(values, 1)[1:-1, 1:-1]
        return unify_crop(RawImage(np.pad(values, 1), BayerPattern.RGGB), BayerPattern.BGGR).samples
    return values[::-1, ::-1].copy()[::-1, ::-1]


@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from(["C", "F", "crop", "reversed"]),
       st.data())
def test_sites_is_the_copy_free_site_view_in_every_layout(h, w, layout, data):
    values = data.draw(arrays(np.uint16, (2 * h, 2 * w), elements=SAMPLES))
    arr = _in_layout(values, layout)
    np.testing.assert_array_equal(arr, values)
    sites = _sites(arr)
    assert sites.shape == (2, 2, h, w)
    out = _in_layout(np.zeros_like(values), layout, writable=True)
    for i in (0, 1):
        for j in (0, 1):
            np.testing.assert_array_equal(sites[i, j], arr[i::2, j::2])
            assert np.shares_memory(sites[i, j], arr)
            _sites(out)[i, j] = sites[i, j]
            np.testing.assert_array_equal(out[i::2, j::2], values[i::2, j::2])
    np.testing.assert_array_equal(out, values)


def _strip_kernel_outputs(tmp_path):
    """What every strip kernel makes of one 260x196 frame: 130 plane rows, so a strip height of
    64 leaves a 2-row tail, 65 cuts the planes in two, 100 leaves a 30-row tail, and 300 is
    taller than the frame."""
    scene = gen_scene(11, 260, 196)
    clean = mosaic(scene, BayerPattern.GBRG, 64, 4095)
    noisy = add_noise(clean, NoiseParams(0.02, 0.04), 12)
    pgm, ppm = tmp_path / "n.pgm", tmp_path / "n.ppm"
    save_raw(noisy, None, pgm)
    loaded, _ = load_raw(pgm)
    assert main(["demosaic", str(pgm), "-o", str(ppm)]) == 0
    report = metric_report(noisy, clean)
    gaussian, median = DenoiserSpec.parse("gaussian:1.0"), DenoiserSpec.parse("median:2")
    return {
        "gen_scene": scene.planes,
        "mosaic": clean.samples,
        "add_noise": noisy.samples,
        "save_raw": pgm.read_bytes(),
        "load_raw": loaded.samples,
        "gaussian:1.0": denoise_pipeline(noisy, BayerPattern.BGGR, gaussian).samples,
        "median:2": denoise_pipeline(noisy, BayerPattern.RGGB, median).samples,
        "demosaic_bilinear": demosaic_bilinear(noisy).planes,
        "demosaic PPM": ppm.read_bytes(),
        "mse": report.mse,
        "metrics JSON": report.to_json(),
    }, report.ssim


@pytest.mark.parametrize("strip_rows", [65, 100, 300])
def test_no_strip_kernel_output_depends_on_the_strip_height(tmp_path, strip_rows):
    want, want_ssim = _strip_kernel_outputs(tmp_path)
    with mock.patch.object(image, "STRIP_ROWS", strip_rows):
        got, got_ssim = _strip_kernel_outputs(tmp_path)
    for name, value in want.items():
        assert np.array_equal(got[name], value), name
    # SSIM sums its windows strip by strip, so the last bit may follow the strip boundaries
    assert abs(got_ssim - want_ssim) <= 1e-15
