"""The four benchmark workloads: inputs, items, output checks and corruption.

Each workload has the same parts:

* ``setup(seed, d)`` builds the inputs and reference outputs into directory
  ``d``. It runs in a separate process (see ``setup_child.py``) so that its
  memory does not count in the measured process's peak RSS.
* ``setup_reference(d)`` builds, once and untimed, the inputs of the
  reference check that ``warm_up`` makes.
* ``load(seed, d)`` reads what the measured process keeps in memory.
* ``warm_up(st)`` runs one untimed item before the timed loop and returns
  its check. Where the benchmark keeps a committed reference (``eval_sweep``,
  ``review_frames``), that item runs on the reference seed's inputs and is
  compared with the reference, so every run checks the printed quality
  figures whatever its own seed.
* ``run(st, i, tr)`` is one item. With ``NoTrace`` it calls the program the
  way a user would (``cli.main`` or ``denoise_pipeline``); with a ``Tracer``
  it replays the same work as the layer calls those entry points make, each
  in its own span.
* ``check(st, i, out)`` returns None when the item's output is right, or a
  one-line reason. Checks use the benchmark's own index arithmetic and numpy,
  never the program's helpers.
* ``corrupt(st, out)`` flips one output byte; the checker self-test uses it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from bayerkit import (
    BayerPattern,
    DenoiserSpec,
    MetricReport,
    NoiseParams,
    RawImage,
    add_noise,
    apply_plan,
    demosaic_bilinear,
    denoise_packed,
    denoise_pipeline,
    disunify_crop,
    gen_scene,
    load_raw,
    mosaic,
    mse,
    pack,
    psnr,
    sample_plan,
    save_raw,
    ssim,
    unify_crop,
    unify_pad,
    unpack,
    write_ppm,
)
from bayerkit import cli

from tracing import NoTrace

PATTERNS = ("RGGB", "BGGR", "GRBG", "GBRG")
CHANNEL = {"R": 0, "G": 1, "B": 2}
FULL_H, FULL_W = 2048, 3072  # 6.3 MP
NOISE = (0.02, 0.04)
PSNR_TOL = 1e-6  # values are compared at 6 decimals


# ---------------------------------------------------------------- helpers

def pattern_at(name: str, dy: int, dx: int) -> str:
    """Pattern seen from origin (dy, dx) of a mosaic with pattern ``name``."""
    return "".join(name[((r + dy) % 2) * 2 + (c + dx) % 2] for r in (0, 1) for c in (0, 1))


def offset_to(name: str, target: str) -> tuple[int, int]:
    return next((dy, dx) for dy in (0, 1) for dx in (0, 1) if pattern_at(name, dy, dx) == target)


def read_pnm(path, channels: int) -> np.ndarray:
    """16-bit binary PGM (channels=1) or PPM (channels=3) samples."""
    magic, dims, maxval, payload = Path(path).read_bytes().split(b"\n", 3)
    width, height = (int(v) for v in dims.split())
    if magic != (b"P5" if channels == 1 else b"P6") or maxval != b"65535":
        raise ValueError(f"{path}: unexpected header")
    shape = (height, width) if channels == 1 else (height, width, channels)
    return np.frombuffer(payload, dtype=">u2").reshape(shape)


def consume(path: Path, channels: int | None = None):
    """Read an output file and delete it, so a later item cannot pass on it.

    Returns PNM samples (``channels`` given) or the text, or None if missing.
    """
    if not path.exists():
        return None
    data = read_pnm(path, channels) if channels else path.read_text()
    path.unlink()
    return data


def header_len(path) -> int:
    with open(path, "rb") as fh:
        data = fh.read(64)
    return len(b"\n".join(data.split(b"\n", 3)[:3])) + 1


def flip_file_byte(path, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        b = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([b[0] ^ 0x01]))


def flipped(img: RawImage) -> RawImage:
    samples = img.samples.copy()
    samples.view(np.uint8).reshape(-1)[0] ^= 0x01
    return img.with_samples(samples)


def own_mse(a: np.ndarray, b: np.ndarray) -> float:
    d = (a.astype(np.float64) - b.astype(np.float64)) / 65535.0
    return float(np.mean(d * d))


def own_psnr(a: np.ndarray, b: np.ndarray) -> float:
    m = own_mse(a, b)
    return 99.0 if m == 0.0 else 10.0 * math.log10(1.0 / m)


def own_channel_mismatch(rgb: np.ndarray, raw: np.ndarray, pattern: str) -> int:
    """Sites whose own channel in ``rgb`` (H, W, 3 in sample units) differs from raw."""
    bad = 0
    for a in (0, 1):
        for b in (0, 1):
            ch = CHANNEL[pattern[2 * a + b]]
            bad += int(np.count_nonzero(rgb[a::2, b::2, ch] != raw[a::2, b::2]))
    return bad


def big_crop(samples: np.ndarray, pattern: str) -> np.ndarray:
    """FULL_H x FULL_W window of a (FULL_H+2) x (FULL_W+2) RGGB mosaic with ``pattern``."""
    dy, dx = offset_to("RGGB", pattern)
    return samples[dy : dy + FULL_H, dx : dx + FULL_W]


def filter_span(spec_text: str) -> str:
    name, _, arg = spec_text.partition(":")
    return "denoise." + (name + arg if name == "median" else name)


def traced_pipeline(tr, img, work: BayerPattern, spec, spec_text: str):
    """denoise_pipeline as its layer calls."""
    unified, pad = tr.call("unify.unify_pad", unify_pad, img, work)
    tr.count("unify.padded", int(pad.top or pad.left))
    packed = tr.call("packing.pack", pack, unified)
    filtered = tr.call(filter_span(spec_text), denoise_packed, packed, spec)
    tr.count("denoise.bytes_in", packed.planes.nbytes)
    tr.count("denoise.bytes_out", filtered.planes.nbytes)
    restored = tr.call("packing.unpack", unpack, filtered)
    return tr.call("unify.disunify_crop", disunify_crop, restored, pad)


def traced_parse(tr, argv):
    return tr.call("cli.parse", lambda: cli.build_parser().parse_args(argv))


def traced_load(tr, path):
    img, pad = tr.call("rawfile.load_raw", load_raw, path)
    p = Path(path)
    tr.count("rawfile.bytes_read", p.stat().st_size + p.with_suffix(".json").stat().st_size)
    return img, pad


def count_kernel(tr, name: str, bytes_in: int, bytes_out: int) -> None:
    tr.count(f"{name}.bytes_in", bytes_in)
    tr.count(f"{name}.bytes_out", bytes_out)


class Workload:
    """Defaults: no reference inputs; the warm-up is item 0 with its usual check."""

    def setup_reference(self, d: Path):
        pass

    def warm_up(self, st):
        return self.check(st, 0, self.run(st, 0, NoTrace()))


# ---------------------------------------------------------------- train_patches

class TrainPatches(Workload):
    """The paper's training loop: BayerUnify by cropping, then BayerAug patches."""

    name = "train_patches"
    tail_pct = 90  # 145-220 items in an 18 s run: at least 14 beyond
    patch = 128
    patches_per_visit = 16

    def setup(self, seed, d: Path):
        scene = gen_scene(seed, FULL_H, FULL_W)
        for p in PATTERNS:
            np.save(d / f"{p}.npy", mosaic(scene, BayerPattern.from_name(p)).samples)

    def load(self, seed, d: Path):
        frames = [RawImage(np.load(d / f"{p}.npy"), BayerPattern.from_name(p)) for p in PATTERNS]
        return {"seed": seed, "frames": frames}

    def run(self, st, i, tr):
        src = st["frames"][i % len(PATTERNS)]
        unified = tr.call("unify.unify_crop", unify_crop, src, BayerPattern.RGGB)
        out = []
        for j in range(self.patches_per_visit):
            plan_seed = st["seed"] * 1_000_000 + self.patches_per_visit * i + j
            plan = tr.call("augment.sample_plan", sample_plan, plan_seed, self.patch,
                           unified.height, unified.width, unified.pattern)
            patch = tr.call("augment.apply_plan", apply_plan, unified, plan)
            packed = tr.call("packing.pack", pack, patch)
            out.append((plan, patch, packed))
        return out

    def check(self, st, i, out):
        src = st["frames"][i % len(PATTERNS)]
        name = PATTERNS[i % len(PATTERNS)]
        dy, dx = offset_to(name, "RGGB")
        base = src.samples[dy : FULL_H - dy, dx : FULL_W - dx]
        for j, (plan, patch, packed) in enumerate(out):
            a = base
            for step in plan.steps:
                if step.op == "hflip":
                    a = a[:, ::-1][:, 1:-1]
                elif step.op == "vflip":
                    a = a[::-1, :][1:-1, :]
                elif step.op == "transpose":
                    a = a.T
                else:
                    a = a[step.top : step.top + step.height, step.left : step.left + step.width]
            if a.shape != (self.patch, self.patch):
                return f"patch {j}: expected shape {a.shape}"
            if patch.pattern.value != "RGGB" or packed.pattern.value != "RGGB":
                return f"patch {j}: pattern tag changed"
            if not np.array_equal(patch.samples, a):
                return f"patch {j}: samples differ from the composed slice"
            planes = [a[0::2, 0::2], a[0::2, 1::2], a[1::2, 0::2], a[1::2, 1::2]]
            if not np.array_equal(packed.planes, np.stack(planes)):
                return f"patch {j}: packed planes differ"
        return None

    def corrupt(self, st, out):
        plan, patch, packed = out[0]
        out[0] = (plan, flipped(patch), packed)
        return out


# ---------------------------------------------------------------- denoise_files

class DenoiseFiles(Workload):
    """File-to-file inference through ``bayerkit denoise``, run in process."""

    name = "denoise_files"
    tail_pct = 65  # 33-38 items in an 18 s run: at least 11 beyond
    filter = "gaussian:1.0"
    work = "BGGR"

    def setup(self, seed, d: Path):
        scene = gen_scene(seed, FULL_H + 2, FULL_W + 2)
        noisy = add_noise(mosaic(scene, BayerPattern.RGGB), NoiseParams(*NOISE), seed + 1)
        for p in PATTERNS:
            img = RawImage(big_crop(noisy.samples, p), BayerPattern.from_name(p))
            save_raw(img, None, d / f"in_{p}.pgm")
            # the pipeline's output must not depend on the working pattern
            argv = ["denoise", "--filter", self.filter, "--work-pattern", p,
                    str(d / f"in_{p}.pgm"), "-o", str(d / f"ref_{p}.pgm")]
            if cli.main(argv) != 0:
                raise RuntimeError(f"reference denoise failed for {p}")

    def load(self, seed, d: Path):
        return {"dir": d}

    def run(self, st, i, tr):
        p = PATTERNS[i % len(PATTERNS)]
        d = st["dir"]
        argv = ["denoise", "--filter", self.filter, "--work-pattern", self.work,
                str(d / f"in_{p}.pgm"), "-o", str(d / f"out_{p}.pgm")]
        if isinstance(tr, NoTrace):
            return p, cli.main(argv)
        args = traced_parse(tr, argv)
        spec = tr.call("denoise.parse_spec", DenoiserSpec.parse, args.filter_spec)
        img, _ = traced_load(tr, args.input)
        out = traced_pipeline(tr, img, args.work_pattern, spec, self.filter)
        tr.call("rawfile.save_raw", save_raw, out, None, args.output)
        o = Path(args.output)
        tr.count("rawfile.bytes_written", o.stat().st_size + o.with_suffix(".json").stat().st_size)
        return p, 0

    def check(self, st, i, out):
        p, rc = out
        d = st["dir"]
        pgm, sidecar = d / f"out_{p}.pgm", d / f"out_{p}.json"
        got, meta = consume(pgm, 1), consume(sidecar)
        if rc != 0:
            return f"exit code {rc}"
        if got is None or meta is None:
            return "output pair missing"
        meta = json.loads(meta)
        if meta.get("bayer_pattern") != p:
            return f"sidecar pattern {meta.get('bayer_pattern')!r}, expected {p}"
        ref = read_pnm(d / f"ref_{p}.pgm", 1)
        if got.shape != ref.shape or not np.array_equal(got, ref):
            return f"{p}: output differs from the same filter run in pattern {p}"
        return None

    def corrupt(self, st, out):
        path = st["dir"] / f"out_{out[0]}.pgm"
        flip_file_byte(path, header_len(path) + 1)
        return out


# ---------------------------------------------------------------- eval_sweep

class EvalSweep(Workload):
    """The quality sweep of scripts/denoise_sweep.py on 512x512 frames."""

    name = "eval_sweep"
    tail_pct = 60  # 27-31 items in an 18 s run: at least 10 beyond
    size = 512
    filters = ("identity", "gaussian:1.0", "median:1", "median:2")
    noise_levels = ((0.01, 0.02), (0.02, 0.04), (0.04, 0.08))
    work = "BGGR"
    reference_seed = 0
    reference_path = Path(__file__).with_name("eval_sweep_reference.json")

    def setup(self, seed, d: Path):
        pass

    def load(self, seed, d: Path):
        st = self.state(seed)
        if seed == self.reference_seed:
            st["reference"] = json.loads(self.reference_path.read_text())["cells"]
        return st

    def state(self, seed):
        specs = {f: DenoiserSpec.parse(f) for f in self.filters}
        return {"seed": seed, "specs": specs, "reference": []}

    def warm_up(self, st):
        """Cells 0-3 of the reference seed, one per pattern, against the committed table."""
        ref = self.load(self.reference_seed, None)
        for k in range(len(PATTERNS)):
            err = self.check(ref, k, self.run(ref, k, NoTrace()))
            if err is not None:
                return f"reference seed {self.reference_seed}: {err}"
        return None

    def cell(self, seed, k):
        """(scene seed, pattern, (read, shot)) of cell k."""
        return (seed * 100_000 + k, PATTERNS[k % 4], self.noise_levels[(k // 4) % 3])

    def run(self, st, i, tr):
        scene_seed, pattern, level = self.cell(st["seed"], i)
        work = BayerPattern.from_name(self.work)
        scene = tr.call("simulate.gen_scene", gen_scene, scene_seed, self.size, self.size)
        clean = tr.call("simulate.mosaic", mosaic, scene, BayerPattern.from_name(pattern))
        noisy = tr.call("simulate.add_noise", add_noise, clean, NoiseParams(*level),
                        900 + scene_seed)
        outs = {}
        for f in self.filters:
            spec = st["specs"][f]
            if isinstance(tr, NoTrace):
                out = denoise_pipeline(noisy, work, spec)
            else:
                out = traced_pipeline(tr, noisy, work, spec, f)
            p = tr.call("metrics.psnr", psnr, out, clean)
            s = tr.call("metrics.ssim", ssim, out, clean)
            count_kernel(tr, "ssim", out.samples.nbytes + clean.samples.nbytes, 8)
            outs[f] = (out, p, s)
        rgb = tr.call("simulate.demosaic_bilinear", demosaic_bilinear, outs["gaussian:1.0"][0])
        count_kernel(tr, "demosaic", outs["gaussian:1.0"][0].samples.nbytes, rgb.planes.nbytes)
        return {"clean": clean, "noisy": noisy, "outs": outs, "rgb": rgb}

    def table(self, out) -> dict:
        return {
            "psnr": {f: round(v[1], 6) for f, v in out["outs"].items()},
            "ssim": {f: round(v[2], 6) for f, v in out["outs"].items()},
        }

    def check(self, st, i, out):
        clean, noisy = out["clean"], out["noisy"]
        ident = out["outs"]["identity"][0]
        if ident.pattern is not noisy.pattern or not np.array_equal(ident.samples, noisy.samples):
            return "identity output is not bit-identical to its input"
        for f, (img, p, s) in out["outs"].items():
            if img.samples.shape != clean.samples.shape or img.pattern is not clean.pattern:
                return f"{f}: output shape or pattern changed"
            if abs(p - own_psnr(img.samples, clean.samples)) > PSNR_TOL:
                return f"{f}: psnr {p} differs from the benchmark's own"
            if not -1.0 <= s <= 1.0:
                return f"{f}: ssim {s} out of range"
        gauss = out["outs"]["gaussian:1.0"][0]
        rgb = np.round(np.moveaxis(out["rgb"].planes, 0, -1) * 65535.0)
        if own_channel_mismatch(rgb, gauss.samples, gauss.pattern.value):
            return "demosaic changed a site's own channel"
        if i < len(st["reference"]):
            ref = st["reference"][i]
            got = self.table(out)
            for kind in ("psnr", "ssim"):
                for f in self.filters:
                    if abs(got[kind][f] - ref[kind][f]) > PSNR_TOL:
                        return f"cell {i}: {kind} {f} = {got[kind][f]}, reference {ref[kind][f]}"
        return None

    def corrupt(self, st, out):
        img, p, s = out["outs"]["identity"]
        out["outs"]["identity"] = (flipped(img), p, s)
        return out


# ---------------------------------------------------------------- review_frames

class ReviewFrames(Workload):
    """Full-frame review: ``bayerkit metrics`` then ``bayerkit demosaic``, in process."""

    name = "review_frames"
    tail_pct = 75  # 6-7 items in an 18 s run: no percentile has ten beyond it
    reference_seed = 0
    reference_path = Path(__file__).with_name("review_reference.json")

    def setup(self, seed, d: Path, patterns=PATTERNS):
        scene = gen_scene(seed, FULL_H + 2, FULL_W + 2)
        clean = mosaic(scene, BayerPattern.RGGB)
        noisy = add_noise(clean, NoiseParams(*NOISE), seed + 1)
        mses = {}
        for p in patterns:
            c, n = big_crop(clean.samples, p), big_crop(noisy.samples, p)
            save_raw(RawImage(c, BayerPattern.from_name(p)), None, d / f"clean_{p}.pgm")
            save_raw(RawImage(n, BayerPattern.from_name(p)), None, d / f"noisy_{p}.pgm")
            mses[p] = own_mse(n, c)
        (d / "mse.json").write_text(json.dumps(mses))

    def setup_reference(self, d: Path):
        (d / "reference").mkdir()
        self.setup(self.reference_seed, d / "reference", ("RGGB",))

    def load(self, seed, d: Path):
        st = {"dir": d, "mse": json.loads((d / "mse.json").read_text())}
        if seed == self.reference_seed:
            st["lines"] = json.loads(self.reference_path.read_text())["lines"]
        return st

    def warm_up(self, st):
        """Item 0 (RGGB) on the reference seed's pair; its printed line must match the
        committed one."""
        ref = self.load(self.reference_seed, st["dir"] / "reference")
        err = self.check(ref, 0, self.run(ref, 0, NoTrace()))
        return None if err is None else f"reference seed {self.reference_seed}: {err}"

    def _paths(self, st, p):
        d = st["dir"]
        return str(d / f"clean_{p}.pgm"), str(d / f"noisy_{p}.pgm"), str(d / f"out_{p}.ppm")

    def run(self, st, i, tr):
        p = PATTERNS[i % len(PATTERNS)]
        clean, noisy, ppm = self._paths(st, p)
        buf = io.StringIO()
        if isinstance(tr, NoTrace):
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["metrics", "--ref", clean, noisy])
            rc = rc or cli.main(["demosaic", noisy, "-o", ppm])
            return p, rc, buf.getvalue()
        args = traced_parse(tr, ["metrics", "--ref", clean, noisy])
        ref, _ = traced_load(tr, args.ref)
        img, _ = traced_load(tr, args.input)
        m = tr.call("metrics.mse", mse, img, ref)
        q = tr.call("metrics.psnr", psnr, img, ref)
        s = tr.call("metrics.ssim", ssim, img, ref)
        count_kernel(tr, "ssim", img.samples.nbytes + ref.samples.nbytes, 8)
        print(tr.call("metrics.report", lambda: MetricReport(m, q, s).to_json()), file=buf)
        args = traced_parse(tr, ["demosaic", noisy, "-o", ppm])
        img, _ = traced_load(tr, args.input)
        rgb = tr.call("simulate.demosaic_bilinear", demosaic_bilinear, img)
        count_kernel(tr, "demosaic", img.samples.nbytes, rgb.planes.nbytes)
        tr.call("rawfile.write_ppm", write_ppm, rgb, args.output)
        tr.count("rawfile.bytes_written", Path(args.output).stat().st_size)
        return p, 0, buf.getvalue()

    def check(self, st, i, out):
        p, rc, stdout = out
        _, noisy, ppm = self._paths(st, p)
        rgb = consume(Path(ppm), 3)
        if rc != 0:
            return f"exit code {rc}"
        if rgb is None:
            return "no ppm written"
        lines = stdout.splitlines()
        if len(lines) != 1:
            return f"metrics printed {len(lines)} lines"
        printed = json.loads(lines[0])["mse"]
        if abs(printed - st["mse"][p]) > 5e-7 + 1e-12:
            return f"printed mse {printed} vs own {st['mse'][p]:.9f}"
        if "lines" in st and lines[0] != st["lines"][p]:
            return f"printed {lines[0]}, reference {st['lines'][p]}"
        raw = read_pnm(noisy, 1)
        if rgb.shape != raw.shape + (3,):
            return f"ppm shape {rgb.shape}"
        if own_channel_mismatch(rgb, raw, p):
            return "ppm changed a site's own channel"
        return None

    def corrupt(self, st, out):
        p = out[0]
        _, _, ppm = self._paths(st, p)
        flip_file_byte(ppm, header_len(ppm) + 2 * CHANNEL[p[0]] + 1)
        return out


WORKLOADS = {w.name: w for w in (TrainPatches(), DenoiseFiles(), EvalSweep(), ReviewFrames())}
