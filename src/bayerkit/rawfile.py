"""Bit-exact file format for raw mosaics: 16-bit PGM plus a JSON sidecar.

The PGM is the strict binary flavor::

    P5\\n<width> <height>\\n65535\\n

followed by width*height big-endian 16-bit samples in row-major order.
The sidecar shares the PGM's stem with a ``.json`` extension and carries
"bayer_pattern" (required, one of the four uppercase names), "black_level"
and "white_level" (optional JSON integers, defaulting to 0 and 65535), and
optionally a "pad" object of JSON integers recording reversible pad-unification.
Anything that deviates from this layout is rejected rather than guessed at:
the whole point of the format is that save -> load -> save is byte-identical.

Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MissingSidecar, ParseError, json_int
from .image import RawImage
from .patterns import BayerPattern
from .simulate import RgbImage, round_half_away
from .unify import PadSpec

_PGM_MAGIC = b"P5\n"
_MAXVAL_LINE = b"65535\n"


@dataclass(frozen=True)
class RawFilePair:
    """A PGM path and its JSON sidecar (same stem, .json extension)."""

    pgm_path: Path
    sidecar_path: Path

    @classmethod
    def for_pgm(cls, path) -> "RawFilePair":
        p = Path(path)
        return cls(pgm_path=p, sidecar_path=p.with_suffix(".json"))


def _coerce_pair(target) -> RawFilePair:
    if isinstance(target, RawFilePair):
        return target
    return RawFilePair.for_pgm(target)


def _parse_pgm(data: bytes, origin: str) -> np.ndarray:
    if not data.startswith(_PGM_MAGIC):
        raise ParseError(f"{origin}: not a binary PGM (bad magic)")
    rest = data[len(_PGM_MAGIC) :]
    dims, sep, rest = rest.partition(b"\n")
    if not sep:
        raise ParseError(f"{origin}: header ends before the dimension line")
    parts = dims.split(b" ")
    if len(parts) != 2:
        raise ParseError(f"{origin}: dimension line must be '<width> <height>'")
    try:
        width, height = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"{origin}: non-integer dimensions {dims!r}") from None
    if width < 2 or height < 2 or width % 2 or height % 2:
        raise ParseError(f"{origin}: dimensions must be even and >= 2, got {width}x{height}")
    if not rest.startswith(_MAXVAL_LINE):
        raise ParseError(f"{origin}: maxval must be 65535")
    payload = rest[len(_MAXVAL_LINE) :]
    expected = width * height * 2
    if len(payload) != expected:
        raise ParseError(
            f"{origin}: payload is {len(payload)} bytes, expected {expected}"
        )
    samples = np.frombuffer(payload, dtype=">u2").reshape(height, width)
    return samples.astype(np.uint16)


def _parse_sidecar(text: str, origin: str) -> tuple[BayerPattern, int, int, PadSpec | None]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{origin}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError(f"{origin}: sidecar must be a JSON object")
    if "bayer_pattern" not in obj:
        raise ParseError(f"{origin}: sidecar is missing 'bayer_pattern'")
    pattern = BayerPattern.from_name(obj["bayer_pattern"])
    black = json_int(obj, "black_level", origin, 0)
    white = json_int(obj, "white_level", origin, 65535)
    pad = None
    if "pad" in obj:
        try:
            pad = PadSpec.from_json_dict(obj["pad"])
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"{origin}: bad pad record: {e}") from e
        except ParseError as e:
            raise ParseError(f"{origin}: {e}") from e
    return pattern, black, white, pad


def load_raw(target) -> tuple[RawImage, PadSpec | None]:
    """Read a PGM + sidecar pair; returns the image and any recorded padding."""
    pair = _coerce_pair(target)
    if not pair.sidecar_path.exists():
        raise MissingSidecar(f"no sidecar at {pair.sidecar_path}")
    samples = _parse_pgm(pair.pgm_path.read_bytes(), str(pair.pgm_path))
    pattern, black, white, pad = _parse_sidecar(
        pair.sidecar_path.read_text(), str(pair.sidecar_path)
    )
    try:
        img = RawImage(samples, pattern, black, white)
    except ValueError as e:
        raise ParseError(f"{pair.pgm_path}: {e}") from e
    return img, pad


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def save_raw(img: RawImage, pad: PadSpec | None, target) -> None:
    """Write the PGM and sidecar; byte-stable across runs and platforms."""
    pair = _coerce_pair(target)
    header = _PGM_MAGIC + f"{img.width} {img.height}\n".encode("ascii") + _MAXVAL_LINE
    payload = img.samples.astype(">u2").tobytes()
    sidecar: dict = {
        "bayer_pattern": img.pattern.value,
        "black_level": img.black_level,
        "white_level": img.white_level,
    }
    if pad is not None:
        sidecar["pad"] = pad.to_json_dict()
    text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    _atomic_write(pair.pgm_path, header + payload)
    _atomic_write(pair.sidecar_path, text.encode("ascii"))


def write_ppm(rgb: RgbImage, path) -> None:
    """Write an RGB image as binary PPM (P6, maxval 65535, big-endian)."""
    header = f"P6\n{rgb.width} {rgb.height}\n65535\n".encode("ascii")
    interleaved = np.moveaxis(rgb.planes, 0, -1)  # (H, W, 3)
    quantized = round_half_away(interleaved * 65535.0).astype(">u2")
    _atomic_write(Path(path), header + quantized.tobytes())
