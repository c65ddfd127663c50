"""Bit-exact file format for raw mosaics: 16-bit PGM plus a JSON sidecar.

The PGM is the strict binary flavor::

    P5\\n<width> <height>\\n65535\\n

followed by width*height big-endian 16-bit samples in row-major order.
The sidecar is ``<stem>.json`` beside the PGM, read as UTF-8, and carries
"bayer_pattern" (required, one of the four uppercase names), "black_level"
and "white_level" (optional JSON integers, defaulting to 0 and 65535), and
optionally a "pad" object of JSON integers recording reversible pad-unification.
A key the layout does not name, in the sidecar or its "pad" object, is ignored;
anything else that deviates from this layout is rejected rather than guessed at:
the whole point of the format is that save -> load -> save is byte-identical.
``load_raw`` opens the PGM before it looks for the sidecar, so a missing PGM is reported as
itself. It reads and checks the header, of whose dimension line it reads at most 64 bytes, and
checks the payload's size against the file's size from fstat before it allocates anything. It
then reads the payload in row strips, each with ``readinto`` into one reused big-endian strip
buffer and cast-copied from it into the rows of one fresh native uint16 array, which it adopts
without another copy. The cast copy is right on a host of either byte order, and it is cheap:
at 2048x3072 the 32 strip copies out of the in-cache buffer take 0.7 ms, where numpy's
in-place byteswap of the frame took 4.4 ms (2-core Xeon, numpy 2.4.6). A payload that shrank
after the fstat check is reported with the number of bytes actually read. A fault in the
sidecar is reported with the sidecar's path. A PGM path that ends in ``.json`` names its own
sidecar; load and save refuse it up front.

A file is a (path, chunks) pair: ``_raw_files`` builds the PGM+sidecar pairs and
``_ppm_file`` a PPM's. ``_atomic_write`` writes each file of a unit to a temp file of its own
beside the target and completes every temp file before it renames the first over its path; on
a failure it closes every chunk generator first, so no strip task outlives the error.
``save_raw`` and ``write_ppm`` commit one image's files; the CLI commits all of a command's.
A PGM's or PPM's chunks are one protocol, ``_pnm_chunks``: the header, then the payload's
finished big-endian row strips, top to bottom. A PGM's strips are made by ``_pgm_strip``: by
default from an image's own samples, each converted in one reused buffer, so no big-endian
copy of the frame is made; ``bayerkit denoise`` instead stores each strip big-endian in the
filter's strip task on the strip pool, into its lane's buffer (``_pgm_bufs``), and the writer
takes them in strip order, so the command never builds its output frame.
A PPM's payload is written in row strips, each made by a task on the strip pool
(image._strip_map) and written in strip order: ``_ppm_strip`` quantizes each result of a strip,
the float samples of one channel at some of the strip's sites, straight into the interleaved
16-bit buffer of the task's buffer set, which is reused once the strip is written. A sample x
in [0, 1] becomes 65535 x + 0.5, in [0.5, 65535.5], whose truncating uint16 cast in that store
is its floor, so no floor pass is run. ``write_ppm`` feeds it views of an image's planes, and
``bayerkit demosaic`` the demosaic's results in the task that makes them, so a streamed
demosaic never holds its float frame.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import BayerKitError, MissingSidecar, ParseError, json_int
from .image import RawImage, RgbImage, _adopt, _row_strips, _strip_map
from .patterns import BayerPattern
from .unify import PadSpec

_PGM_MAGIC = b"P5\n"
_MAXVAL_LINE = b"65535\n"
# at most this many bytes of the dimension line are read: a valid one has at most 40, two sides
# of at most 19 digits (twice their product is a real file's payload size), a space and the newline
_DIMS_MAX = 64
_PAD = "bad pad record"


def sidecar_path(path) -> Path:
    """The ``<stem>.json`` beside a PGM path; a PGM path ending in .json is refused."""
    pgm = Path(path)
    if not pgm.name:
        raise BayerKitError(f"{str(path)!r} names no file")
    if pgm.with_suffix(".json") == pgm:
        raise BayerKitError(f"{pgm}: the PGM path ends in .json, which names its own sidecar")
    return pgm.with_suffix(".json")


def _read_pgm(fh, origin: str) -> np.ndarray:
    """The samples of the open PGM ``fh`` as a fresh native uint16 array: the header is read
    and checked, then the payload, whose size is checked from fstat first, strip by strip
    through one reused big-endian buffer, each strip cast-copied into the array's rows."""
    if fh.read(len(_PGM_MAGIC)) != _PGM_MAGIC:
        raise ParseError(f"{origin}: not a binary PGM (bad magic)")
    dims = fh.readline(_DIMS_MAX)  # bounded: a file need not hold a newline at all
    if not dims.endswith(b"\n"):
        raise ParseError(f"{origin}: header ends before the dimension line" if len(dims) < _DIMS_MAX
                         else f"{origin}: dimension line has no newline in {_DIMS_MAX} bytes")
    dims = dims[:-1]
    parts = dims.split(b" ")
    if len(parts) != 2:
        raise ParseError(f"{origin}: dimension line must be '<width> <height>'")
    try:
        width, height = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"{origin}: non-integer dimensions {dims!r}") from None
    if width < 2 or height < 2 or width % 2 or height % 2:
        raise ParseError(f"{origin}: dimensions must be even and >= 2, got {width}x{height}")
    if dims != b"%d %d" % (width, height):  # int() also takes a sign, leading zeros, _ and spaces
        raise ParseError(f"{origin}: dimension line must be plain decimals, got {dims!r}")
    if fh.read(len(_MAXVAL_LINE)) != _MAXVAL_LINE:
        raise ParseError(f"{origin}: maxval must be 65535")
    expected = width * height * 2
    size = os.fstat(fh.fileno()).st_size - fh.tell()  # before the array is allocated
    if size == expected:
        samples, size = np.empty((height, width), np.uint16), 0
        for r0, n, buf in _row_strips(height, width, dtype=">u2"):
            got = fh.readinto(buf)  # short only if the file shrank since the fstat
            size += got
            if got < buf.nbytes:
                break
            samples[r0 : r0 + n] = buf  # the cast copy to native order, on any host
    if size != expected:
        raise ParseError(f"{origin}: payload is {size} bytes, expected {expected}")
    return samples


def _parse_pad(obj) -> PadSpec:
    if not isinstance(obj, dict):
        raise ParseError(f"{_PAD}: expected an object, got {obj!r}")
    sides = [json_int(obj, k, _PAD) for k in ("top", "bottom", "left", "right")]
    if "original_pattern" not in obj:
        raise ParseError(f"{_PAD}: 'original_pattern'")
    try:
        return PadSpec(*sides, BayerPattern.from_name(obj["original_pattern"]))
    except ValueError as e:
        raise ParseError(f"{_PAD}: {e}") from e


def _parse_sidecar(data: bytes, origin: str) -> tuple[BayerPattern, int, int, PadSpec | None]:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # ValueError covers bad UTF-8 and huge ints
        raise ParseError(f"{origin}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError(f"{origin}: sidecar must be a JSON object")
    if "bayer_pattern" not in obj:
        raise ParseError(f"{origin}: sidecar is missing 'bayer_pattern'")
    try:
        pattern = BayerPattern.from_name(obj["bayer_pattern"])
        pad = _parse_pad(obj["pad"]) if "pad" in obj else None
    except BayerKitError as e:
        raise type(e)(f"{origin}: {e}") from e
    black = json_int(obj, "black_level", origin, 0)
    white = json_int(obj, "white_level", origin, 65535)
    return pattern, black, white, pad


def load_raw(path) -> tuple[RawImage, PadSpec | None]:
    """Read a PGM and its ``<stem>.json`` sidecar; returns the image and any recorded padding."""
    pgm = Path(path)
    sidecar = sidecar_path(pgm)
    with open(pgm, "rb") as fh:  # first, so that a missing PGM is reported as itself
        if not sidecar.exists():
            raise MissingSidecar(f"no sidecar at {sidecar}")
        samples = _read_pgm(fh, str(pgm))
    pattern, black, white, pad = _parse_sidecar(sidecar.read_bytes(), str(sidecar))
    try:
        img = _adopt(RawImage, samples, pattern, black, white)  # samples: a fresh array
    except ValueError as e:
        raise ParseError(f"{pgm}: {e}") from e
    return img, pad


def _atomic_write(*files) -> None:
    """Write each (path, chunks) pair's iterable of byte buffers in order to a temp file of
    its own, then, once every temp file is complete, rename each over its path in order.
    The chunks are written as they come. On any exception every chunk iterable that has a
    ``close`` is closed, so a strip generator's started tasks finish before the exception
    leaves, and every temp file goes. An OSError with an errno, from opening a temp file,
    writing it or renaming it, names the output's path instead, so the message is the same on
    every run and names no file that is gone."""
    tmps = []
    try:
        for path, chunks in files:
            if not path.name:
                raise BayerKitError(f"{str(path)!r} names no file")
            tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
            with open(tmp, "xb") as fh:  # unlike mkstemp, keeps the umask's permission bits
                tmps.append(tmp)
                fh.writelines(chunks)  # one write per chunk, as it comes
        for tmp, (path, _) in zip(tmps, files):
            os.replace(tmp, path)
    except BaseException as e:
        for _, chunks in files:
            getattr(chunks, "close", lambda: None)()
        for tmp in tmps:  # a renamed one is gone already
            tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.errno is not None:  # from the open, a write or the rename
            raise type(e)(e.errno, e.strerror, str(path)) from None  # the output, not a temp file
        raise


def _raw_files(img: RawImage, pad: PadSpec | None, path, strips=None) -> tuple:
    """The (path, chunks) pairs of the PGM and its ``<stem>.json`` sidecar, for _atomic_write,
    of a frame of img's size and metadata. The PGM's payload is ``strips``, the frame's
    big-endian row strips top to bottom, each made by ``_pgm_strip``; by default img's own,
    each converted in one reused buffer that the next strip overwrites once it is written."""
    pgm = Path(path)
    sidecar_file = sidecar_path(pgm)  # refuses a .json path before anything is written
    sidecar: dict = {
        "bayer_pattern": img.pattern.value,
        "black_level": img.black_level,
        "white_level": img.white_level,
    }
    if pad is not None:
        sidecar["pad"] = {**asdict(pad), "original_pattern": pad.original_pattern.value}
    text = (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode("ascii")
    strips = strips or (_pgm_strip(np.s_[r0 : r0 + n], img.samples[r0 : r0 + n], buf)
                        for r0, n, buf in _row_strips(img.height, img.width, dtype=">u2"))
    return (pgm, _pnm_chunks(_PGM_MAGIC, img.height, img.width, strips)), (sidecar_file, (text,))


def _pgm_bufs(rows: int, width: int) -> tuple:
    """A PGM strip task's buffer: the big-endian strip of at most ``rows`` rows."""
    return (np.empty((rows, width), dtype=">u2"),)


def _pgm_strip(index: slice, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The PGM payload of the strip of frame rows ``index``: ``rows``, stored big-endian by
    their uint16 cast into the head of out (``_pgm_bufs``), which is returned."""
    out[: len(rows)] = rows
    return out[: len(rows)]


def save_raw(img: RawImage, pad: PadSpec | None, path) -> None:
    """Write the PGM and its ``<stem>.json`` sidecar; byte-stable across runs and platforms."""
    _atomic_write(*_raw_files(img, pad, path))


def write_ppm(rgb: RgbImage, path) -> None:
    """Write an RGB image as binary PPM (P6, maxval 65535, big-endian)."""
    def task(r0, n, bufs):
        return _ppm_strip(r0, n, ((np.s_[c, :, :], rgb.planes[c, r0 : r0 + n]) for c in range(3)),
                          *bufs)

    chunks = _strip_map(task, rgb.height, lambda rows: _ppm_bufs(rows, rgb.width, rows * rgb.width),
                        rgb.height * rgb.width)
    _atomic_write(_ppm_file(path, rgb.height, rgb.width, chunks))


def _ppm_bufs(rows: int, width: int, size: int) -> tuple:
    """A PPM strip task's buffers: the interleaved 16-bit strip of at most ``rows`` rows, and
    the float buffer that scales a result of at most ``size`` samples."""
    return np.empty((rows, width, 3), dtype=">u2"), np.empty(size)


def _ppm_strip(r0: int, n: int, results, out: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """The PPM payload of a strip of n rows, quantized into out[:n] (``_ppm_bufs``) and
    returned. Each result is ((channel, rows, cols), values), float values in [0, 1] of the
    strip's samples [rows, cols] of one channel; it is scaled in ``scaled`` and quantized
    straight into ``out``, and is itself only read."""
    for (c, rows, cols), values in results:
        # RGB lies in [0, 1], where floor(x + 0.5) is round-half-away-from-zero; x + 0.5 lies
        # in [0.5, 65535.5], where the truncating uint16 cast is that floor
        x = np.multiply(values, 65535.0, out=scaled[: values.size].reshape(values.shape))
        x += 0.5
        out[:n][rows, cols, c] = x
    return out[:n]


def _ppm_file(path, height: int, width: int, strips) -> tuple:
    """The (path, chunks) pair, for _atomic_write, of a height x width PPM whose payload is the
    finished strips (``_ppm_strip``) that ``strips`` yields, top to bottom."""
    return Path(path), _pnm_chunks(b"P6\n", height, width, strips)


def _pnm_chunks(magic: bytes, height: int, width: int, strips):
    """A height x width PGM's or PPM's chunks: its header, then the big-endian row strips that
    ``strips`` yields, top to bottom. Closing it closes ``strips``, and with it a strip
    generator's tasks."""
    yield magic + f"{width} {height}\n".encode("ascii") + _MAXVAL_LINE
    yield from strips
