import errno
import io
import json
import os
import re
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bayerkit.rawfile as rawfile
from bayerkit import image
from bayerkit import (
    BayerKitError,
    BayerPattern,
    MissingSidecar,
    PadSpec,
    ParseError,
    RawImage,
    RgbImage,
    UnknownPattern,
    gen_scene,
    load_raw,
    save_raw,
    unify_crop,
    write_ppm,
)

from bayerkit.cli import main

from conftest import assert_same_image, rand_raw


def test_save_load_round_trip(tmp_path, rng):
    img = rand_raw(rng, 6, 8, BayerPattern.GBRG, black=64, white=16383)
    path = tmp_path / "img.pgm"
    save_raw(img, None, path)
    loaded, pad = load_raw(path)
    assert pad is None
    assert_same_image(loaded, img)


def test_save_is_byte_stable(tmp_path, rng):
    img = rand_raw(rng, 4, 6, BayerPattern.RGGB)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    save_raw(img, None, a)
    save_raw(img, None, b)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_save_load_save_is_byte_identical(tmp_path, rng):
    img = rand_raw(rng, 6, 6, BayerPattern.GRBG, black=12, white=60000)
    pad = PadSpec(1, 1, 0, 0, BayerPattern.GBRG)
    first = tmp_path / "first.pgm"
    second = tmp_path / "second.pgm"
    save_raw(img, pad, first)
    loaded, loaded_pad = load_raw(first)
    save_raw(loaded, loaded_pad, second)
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()


def test_header_layout(tmp_path, rng):
    img = rand_raw(rng, 4, 6, BayerPattern.RGGB)
    path = tmp_path / "img.pgm"
    save_raw(img, None, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n6 4\n65535\n")
    payload = data[len(b"P5\n6 4\n65535\n"):]
    assert len(payload) == 6 * 4 * 2
    # big-endian sample order
    assert payload[:2] == np.array(img.samples[0, 0], dtype=">u2").tobytes()


def test_pad_spec_in_sidecar(tmp_path, rng):
    img = rand_raw(rng, 4, 4, BayerPattern.BGGR)
    pad = PadSpec(1, 1, 1, 1, BayerPattern.RGGB)
    path = tmp_path / "padded.pgm"
    save_raw(img, pad, path)
    sidecar = json.loads((tmp_path / "padded.json").read_text())
    assert sidecar["pad"] == {
        "top": 1, "bottom": 1, "left": 1, "right": 1, "original_pattern": "RGGB",
    }
    _, loaded_pad = load_raw(path)
    assert loaded_pad == pad


def write_pair(tmp_path, pgm_bytes, sidecar_obj):
    path = tmp_path / "img.pgm"
    path.write_bytes(pgm_bytes)
    (tmp_path / "img.json").write_text(json.dumps(sidecar_obj))
    return path


GOOD_SIDECAR = {"bayer_pattern": "RGGB"}


def good_pgm(width=4, height=4):
    return (
        f"P5\n{width} {height}\n65535\n".encode()
        + b"\x00\x01" * (width * height)
    )


def test_load_defaults_levels(tmp_path):
    path = write_pair(tmp_path, good_pgm(), GOOD_SIDECAR)
    img, _ = load_raw(path)
    assert img.black_level == 0 and img.white_level == 65535
    assert img.pattern is BayerPattern.RGGB
    assert (img.samples == 1).all()


def test_load_ignores_unknown_sidecar_and_pad_keys(tmp_path):
    pad = {"top": 1, "bottom": 1, "left": 0, "right": 0, "original_pattern": "GBRG", "x": 1}
    path = write_pair(tmp_path, good_pgm(), {**GOOD_SIDECAR, "pad": pad, "camera": [1, 2]})
    img, loaded_pad = load_raw(path)
    assert img.pattern is BayerPattern.RGGB and (img.samples == 1).all()
    assert loaded_pad == PadSpec(1, 1, 0, 0, BayerPattern.GBRG)


def test_load_rejects_bad_magic(tmp_path):
    path = write_pair(tmp_path, b"P6\n4 4\n65535\n" + b"\x00" * 32, GOOD_SIDECAR)
    with pytest.raises(ParseError):
        load_raw(path)


def test_load_rejects_odd_dimensions(tmp_path):
    path = write_pair(tmp_path, b"P5\n3 4\n65535\n" + b"\x00" * 24, GOOD_SIDECAR)
    with pytest.raises(ParseError):
        load_raw(path)


def test_load_rejects_bad_maxval(tmp_path):
    path = write_pair(tmp_path, b"P5\n4 4\n255\n" + b"\x00" * 16, GOOD_SIDECAR)
    with pytest.raises(ParseError):
        load_raw(path)


def test_load_rejects_truncated_payload(tmp_path):
    path = write_pair(tmp_path, good_pgm()[:-2], GOOD_SIDECAR)
    with pytest.raises(ParseError):
        load_raw(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = write_pair(tmp_path, good_pgm() + b"\x00", GOOD_SIDECAR)
    with pytest.raises(ParseError):
        load_raw(path)


def test_load_rejects_non_integer_dims(tmp_path):
    path = write_pair(tmp_path, b"P5\nfour 4\n65535\n" + b"\x00" * 32, GOOD_SIDECAR)
    with pytest.raises(ParseError):
        load_raw(path)


def test_load_rejects_lowercase_pattern(tmp_path):
    path = write_pair(tmp_path, good_pgm(), {"bayer_pattern": "rggb"})
    with pytest.raises(UnknownPattern):
        load_raw(path)


def test_load_rejects_missing_pattern_key(tmp_path):
    path = write_pair(tmp_path, good_pgm(), {"black_level": 0})
    with pytest.raises(ParseError):
        load_raw(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(good_pgm())
    (tmp_path / "img.json").write_text("{nope")
    with pytest.raises(ParseError):
        load_raw(path)


def test_load_missing_sidecar(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(good_pgm())
    with pytest.raises(MissingSidecar):
        load_raw(path)


def test_load_refuses_a_json_path(tmp_path):
    # a PGM path ending in .json would be its own sidecar, on load as on save
    path = tmp_path / "img.json"
    path.write_text(json.dumps(GOOD_SIDECAR))
    with pytest.raises(BayerKitError, match="the PGM path ends in .json"):
        load_raw(path)


def test_load_rejects_inverted_levels(tmp_path):
    path = write_pair(
        tmp_path, good_pgm(), {"bayer_pattern": "RGGB", "black_level": 10, "white_level": 5}
    )
    with pytest.raises(ParseError) as e:
        load_raw(path)
    assert str(e.value) == f"{path}: need 0 <= black < white <= 65535, got 10, 5"


@pytest.mark.parametrize("header, payload_bytes, message", [
    (b"P6\n4 4\n65535\n", 32, "not a binary PGM (bad magic)"),
    (b"P5 4 4 65535", 0, "not a binary PGM (bad magic)"),
    (b"P5\n4 4", 0, "header ends before the dimension line"),
    (b"P5\n" + b"4" * 63, 0, "header ends before the dimension line"),
    (b"P5\n" + b"4" * 64, 0, "dimension line has no newline in 64 bytes"),
    (b"P5\n4 " + b"4" * 64 + b"\n65535\n", 32, "dimension line has no newline in 64 bytes"),
    # a line of 64 bytes, its newline included, is read whole and parsed
    (b"P5\n4 " + b"0" * 61 + b"\n65535\n", 0, "dimensions must be even and >= 2, got 4x0"),
    (b"P5\n4\n65535\n", 32, "dimension line must be '<width> <height>'"),
    (b"P5\n4 4 4\n65535\n", 32, "dimension line must be '<width> <height>'"),
    (b"P5\n4  4\n65535\n", 32, "dimension line must be '<width> <height>'"),
    (b"P5\nfour 4\n65535\n", 32, "non-integer dimensions b'four 4'"),
    (b"P5\n4 4.0\n65535\n", 32, "non-integer dimensions b'4 4.0'"),
    (b"P5\n3 4\n65535\n", 24, "dimensions must be even and >= 2, got 3x4"),
    (b"P5\n4 0\n65535\n", 0, "dimensions must be even and >= 2, got 4x0"),
    (b"P5\n-2 4\n65535\n", 16, "dimensions must be even and >= 2, got -2x4"),
    (b"P5\n+4 4\n65535\n", 32, "dimension line must be plain decimals, got b'+4 4'"),
    (b"P5\n04 4\n65535\n", 32, "dimension line must be plain decimals, got b'04 4'"),
    (b"P5\n4\t 4\n65535\n", 32, "dimension line must be plain decimals, got b'4\\t 4'"),
    (b"P5\n4_0 4\n65535\n", 320, "dimension line must be plain decimals, got b'4_0 4'"),
    (b"P5\n4 4\n255\n", 16, "maxval must be 65535"),
    (b"P5\n4 4\n65535", 0, "maxval must be 65535"),
    (b"P5\n4 4\n65535\n", 30, "payload is 30 bytes, expected 32"),
    (b"P5\n4 4\n65535\n", 0, "payload is 0 bytes, expected 32"),
    (b"P5\n4 4\n65535\n", 33, "payload is 33 bytes, expected 32"),
])
def test_load_pgm_faults_name_the_file_and_the_fault(tmp_path, header, payload_bytes, message):
    path = write_pair(tmp_path, header + b"\x00" * payload_bytes, GOOD_SIDECAR)
    with pytest.raises(ParseError) as e:
        load_raw(path)
    assert str(e.value) == f"{path}: {message}"


def test_loaded_samples_are_native_read_only_and_own_their_memory(tmp_path, rng):
    img = rand_raw(rng, 6, 8, BayerPattern.GBRG)
    save_raw(img, None, tmp_path / "img.pgm")
    samples = load_raw(tmp_path / "img.pgm")[0].samples
    assert samples.dtype == np.uint16 and samples.dtype.isnative
    assert not samples.flags.writeable
    assert samples.flags.owndata and samples.base is None  # does not pin the file's bytes
    np.testing.assert_array_equal(samples, img.samples)


def test_a_huge_header_over_a_short_payload_is_refused_before_allocating(tmp_path):
    path = write_pair(tmp_path, b"P5\n100000 100000\n65535\n" + b"\x00" * 32, GOOD_SIDECAR)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as e:
            load_raw(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == f"{path}: payload is 32 bytes, expected 20000000000"
    assert peak < 2**20


def test_a_header_line_of_megabytes_is_refused_after_64_bytes(tmp_path):
    # without a newline, an unbounded readline would read the whole file before any check
    path = write_pair(tmp_path, b"P5\n" + b"4" * (8 << 20), GOOD_SIDECAR)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as e:
            load_raw(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == f"{path}: dimension line has no newline in 64 bytes"
    assert peak < 2**15


@pytest.mark.parametrize("kept", [10, 128, 134], ids=["first strip", "strip boundary", "third strip"])
def test_a_payload_that_shrank_after_the_fstat_check_names_the_bytes_read(
        tmp_path, rng, monkeypatch, kept):
    # 16 rows of 8 samples in 4-row strips of 64 bytes; fstat still reports the whole payload
    monkeypatch.setattr(image, "STRIP_ROWS", 4)
    path = tmp_path / "img.pgm"
    save_raw(rand_raw(rng, 16, 8, BayerPattern.RGGB), None, path)
    header = b"P5\n8 16\n65535\n"
    path.write_bytes(path.read_bytes()[: len(header) + kept])
    fstat = os.fstat
    monkeypatch.setattr(rawfile.os, "fstat", lambda fd: types.SimpleNamespace(
        st_size=fstat(fd).st_size + 256 - kept))
    with pytest.raises(ParseError) as e:
        load_raw(path)
    assert str(e.value) == f"{path}: payload is {kept} bytes, expected 256"


def test_load_raw_peaks_at_one_frame_and_one_strip_buffer(tmp_path, rng):
    path = tmp_path / "img.pgm"
    save_raw(rand_raw(rng, 512, 1536, BayerPattern.GBRG), None, path)
    frame, strip = 512 * 1536 * 2, image.STRIP_ROWS * 1536 * 2
    tracemalloc.start()
    try:
        load_raw(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame <= peak <= frame + strip + 2**16  # no whole-frame big-endian copy


@pytest.mark.parametrize("height", [62, 64, 66, 130])
def test_save_raw_writes_every_strip_of_a_frame_or_a_view(tmp_path, height):
    img = rand_raw(np.random.default_rng(height), height, 12, BayerPattern.GRBG)
    crop = unify_crop(img, BayerPattern.RGGB)  # a column crop: a strided view of img
    assert not crop.samples.flags.c_contiguous
    for k, x in enumerate((img, crop)):
        path = tmp_path / f"{k}.pgm"
        save_raw(x, None, path)
        header = f"P5\n{x.width} {height}\n65535\n".encode()
        assert path.read_bytes() == header + x.samples.astype(">u2").tobytes()


DIMENSION_LINES = st.one_of(
    st.binary(max_size=12),
    st.tuples(st.integers(-2, 6), st.integers(-2, 6)).map(lambda t: b"%d %d" % t),
)
PGM_HEADERS = st.one_of(
    st.binary(max_size=24),
    st.tuples(
        st.sampled_from([b"P5\n", b"P6\n", b"P5", b"p5\n"]) | st.binary(max_size=4),
        DIMENSION_LINES,
        st.sampled_from([b"\n65535\n", b"\n255\n", b"\n65535", b"\n", b" 65535\n"]),
    ).map(b"".join),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda t: b"P5\n%d %d\n65535\n" % (2 * t[0], 2 * t[1])),  # well-formed
)


@st.composite
def pgm_files(draw):
    header = draw(PGM_HEADERS)
    dims = re.fullmatch(rb"P5\n(\d+) (\d+)\n65535\n", header)
    size = min(int(dims[1]) * int(dims[2]) * 2, 256) if dims else 0
    # a payload of the header's own size, that size give or take a byte, or any other
    return header + draw(st.one_of(st.binary(min_size=size, max_size=size),
                                   st.binary(min_size=max(size - 1, 0), max_size=size + 1),
                                   st.binary(max_size=40)))


@given(pgm_files())
@example(b"P5\n2 2\n65535\n" + b"\x01\x02" * 4)
@example(b"P5\n2 2\n65535\n" + b"\x01\x02" * 5)
@example(b"P5\n04 4\n65535\n" + b"\x01\x02" * 16)  # a leading zero: not the canonical header
@settings(max_examples=300, deadline=None)
def test_load_raw_returns_an_image_or_raises_parse_error(pgm):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "img.pgm"
        path.write_bytes(pgm)
        path.with_suffix(".json").write_text(json.dumps(GOOD_SIDECAR))
        try:
            img, _ = load_raw(path)
        except ParseError:
            return
    header = b"P5\n%d %d\n65535\n" % (img.width, img.height)  # the format's, not the writer's
    assert pgm.startswith(header)
    want = np.frombuffer(pgm, ">u2", offset=len(header)).reshape(img.height, img.width)
    np.testing.assert_array_equal(img.samples, want)


PAD = {"top": 1, "bottom": 1, "left": 0, "right": 0, "original_pattern": "GBRG"}


@pytest.mark.parametrize(
    "fields",
    [
        {"black_level": 3.7},
        {"black_level": True},
        {"black_level": "1"},
        {"black_level": None},
        {"white_level": 60000.9},
        {"white_level": True},
        {"pad": {**PAD, "top": 1.0}},
        {"pad": {**PAD, "bottom": True}},
        {"pad": {**PAD, "left": "0"}},
        {"pad": {k: v for k, v in PAD.items() if k != "right"}},
        {"pad": 5},
    ],
)
def test_load_rejects_non_integer_levels_and_pad_fields(tmp_path, fields):
    path = write_pair(tmp_path, good_pgm(), {**GOOD_SIDECAR, **fields})
    with pytest.raises(ParseError, match="img.json: "):
        load_raw(path)
    # the same sidecar with integer values loads
    good = {"black_level": 1, "white_level": 60000, "pad": PAD}
    path = write_pair(tmp_path, good_pgm(), {**GOOD_SIDECAR, **{k: good[k] for k in fields}})
    load_raw(path)


def test_failed_write_removes_its_temp_file(tmp_path, rng, monkeypatch):
    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(rawfile.os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        save_raw(rand_raw(rng, 4, 4, BayerPattern.RGGB), None, tmp_path / "img.pgm")
    assert list(tmp_path.glob("*.tmp")) == []
    assert list(tmp_path.iterdir()) == []


def test_a_failed_sidecar_write_leaves_the_old_pair(tmp_path, rng, monkeypatch):
    path = tmp_path / "img.pgm"
    save_raw(rand_raw(rng, 4, 4, BayerPattern.RGGB), None, path)
    old_pair = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    class FullDisk(io.BufferedWriter):
        def write(self, chunk):
            raise OSError(errno.ENOSPC, "No space left on device")

    def open_(file, mode):  # the sidecar's temp file is created, then its write fails
        raw = io.FileIO(file, mode)
        return FullDisk(raw) if Path(file).name.startswith("img.json.") else io.BufferedWriter(raw)

    monkeypatch.setattr(rawfile, "open", open_, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_raw(rand_raw(rng, 4, 4, BayerPattern.GBRG, 16, 4000), None, path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old_pair  # and no *.tmp


def test_a_failed_second_rename_leaves_no_temp_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "img.pgm"
    save_raw(rand_raw(rng, 4, 4, BayerPattern.RGGB), None, path)
    old_sidecar = (tmp_path / "img.json").read_bytes()
    new = rand_raw(rng, 4, 4, BayerPattern.GBRG, 16, 4000)
    renamed, real_replace = [], os.replace

    def replace(src, dst):
        if renamed:
            raise OSError("rename failed")
        renamed.append(Path(dst).name)
        real_replace(src, dst)

    monkeypatch.setattr(rawfile.os, "replace", replace)
    with pytest.raises(OSError, match="rename failed"):
        save_raw(new, None, path)
    assert renamed == ["img.pgm"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img.json", "img.pgm"]
    # the window no two-file rename can close: the new PGM beside the old sidecar
    assert (tmp_path / "img.json").read_bytes() == old_sidecar
    np.testing.assert_array_equal(load_raw(path)[0].samples, new.samples)


def test_chunks_raising_after_the_header_leave_nothing(tmp_path):
    def chunks():
        yield b"P6\n4 4\n65535\n"
        assert list(tmp_path.glob("*.tmp")), "chunks are written as they come"
        raise RuntimeError("strip failed")

    with pytest.raises(RuntimeError, match="strip failed"):
        rawfile._atomic_write((tmp_path / "out.ppm", chunks()))
    assert list(tmp_path.iterdir()) == []


def test_write_leaves_another_writers_temp_file_alone(tmp_path, rng):
    img = rand_raw(rng, 4, 4, BayerPattern.RGGB)
    path = tmp_path / "img.pgm"
    other = tmp_path / "img.pgm.tmp"  # a fixed temp name another writer may be using
    other.write_bytes(b"in flight")
    save_raw(img, None, path)
    assert other.read_bytes() == b"in flight"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img.json", "img.pgm", "img.pgm.tmp"]
    assert_same_image(load_raw(path)[0], img)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _maybe(good, values=JSON_VALUES):
    return st.just(good) | values


SIDECARS = st.one_of(
    st.binary(max_size=64),
    st.dictionaries(st.text(max_size=16), JSON_VALUES, max_size=4).map(json.dumps).map(str.encode),
    st.fixed_dictionaries(
        {"bayer_pattern": _maybe("RGGB", JSON_VALUES | st.sampled_from(["GBRG", "rggb", "XYZW"]))},
        optional={
            "black_level": _maybe(0, JSON_VALUES | st.integers(0, 65535)),
            "white_level": _maybe(65535, JSON_VALUES | st.integers(0, 65535)),
            "pad": _maybe(PAD) | st.fixed_dictionaries(
                {},
                optional={k: _maybe(v, JSON_VALUES | st.integers(-1, 2)) for k, v in PAD.items()},
            ),
        },
    ).map(json.dumps).map(str.encode),
)


@given(SIDECARS)
@example(b"\xff\xfe{")
@example(json.dumps({**GOOD_SIDECAR, "pad": {**PAD, "original_pattern": "XYZW"}}).encode())
@example(json.dumps({"bayer_pattern": ["RGGB"]}).encode())
@example(json.dumps({**GOOD_SIDECAR, "pad": {k: v for k, v in PAD.items() if k != "original_pattern"}}).encode())
@example(b"[" * 100_000)
@settings(max_examples=300, deadline=None)
def test_load_raw_loads_or_names_the_faulty_file(sidecar):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "img.pgm"
        path.write_bytes(good_pgm())
        path.with_suffix(".json").write_bytes(sidecar)
        try:
            load_raw(path)
        except BayerKitError as e:
            message = str(e)
            assert message.splitlines() == [message]
            assert message.startswith((f"{path.with_suffix('.json')}: ", f"{path}: "))


@pytest.mark.parametrize("height", [2, 64, 66, 130])
def test_write_ppm_quantizes_every_strip_and_leaves_its_input(tmp_path, height):
    planes = np.random.default_rng(height).random((3, height, 6))
    planes[:, 0, :3] = [0.0, 0.5 / 65535, 1.0]  # both ends, and a value that scales to .5
    rgb = RgbImage(planes)
    path = tmp_path / "out.ppm"
    write_ppm(rgb, path)
    header = f"P6\n6 {height}\n65535\n".encode()
    data = path.read_bytes()
    assert data[: len(header)] == header
    want = np.floor(planes * 65535 + 0.5).transpose(1, 2, 0).astype(">u2")
    assert data[len(header):] == want.tobytes()
    np.testing.assert_array_equal(rgb.planes, planes)


def _ppm_payload(path, height, width) -> np.ndarray:
    data = path.read_bytes()
    header = f"P6\n{width} {height}\n65535\n".encode()
    assert data[: len(header)] == header
    return np.frombuffer(data[len(header):], dtype=">u2").reshape(height, width, 3)


@pytest.mark.parametrize("value, sample", [(0.0, 0), (1.0, 65535)])
def test_ppm_ends_of_the_range_quantize_to_0_and_65535(tmp_path, value, sample):
    # 65535 * 1.0 + 0.5 is 65535.5, which the truncating cast takes to 65535
    write_ppm(RgbImage(np.full((3, 130, 6), value)), tmp_path / "w.ppm")
    assert (_ppm_payload(tmp_path / "w.ppm", 130, 6) == sample).all()
    # the streamed demosaic: a frame below black or above white clamps to 0.0 or 1.0, and every
    # mean of those is the same value again
    img = RawImage(np.full((132, 8), 65535 * int(value)), BayerPattern.GRBG, 64, 1023)
    save_raw(img, None, tmp_path / "in.pgm")
    assert main(["demosaic", str(tmp_path / "in.pgm"), "-o", str(tmp_path / "d.ppm")]) == 0
    assert (_ppm_payload(tmp_path / "d.ppm", 132, 8) == sample).all()


def test_write_ppm_of_an_f_ordered_image_equals_the_c_ordered_one(tmp_path):
    planes = np.random.default_rng(3).random((3, 130, 10))
    f_ordered = RgbImage(np.asfortranarray(planes))
    assert f_ordered.planes.flags.f_contiguous and not f_ordered.planes.flags.c_contiguous
    write_ppm(RgbImage(planes), tmp_path / "c.ppm")
    write_ppm(f_ordered, tmp_path / "f.ppm")
    assert (tmp_path / "f.ppm").read_bytes() == (tmp_path / "c.ppm").read_bytes()


def test_write_ppm_layout(tmp_path):
    scene = gen_scene(1, 8, 10)
    path = tmp_path / "out.ppm"
    write_ppm(scene, path)
    data = path.read_bytes()
    header = b"P6\n10 8\n65535\n"
    assert data.startswith(header)
    payload = np.frombuffer(data[len(header):], dtype=">u2").reshape(8, 10, 3)
    expected = np.floor(scene.planes[0] * 65535.0 + 0.5)
    np.testing.assert_array_equal(payload[:, :, 0].astype(np.float64), expected)
