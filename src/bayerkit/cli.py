"""Command-line interface tying the library into file-to-file pipelines.

Exit codes: 0 on success, 2 on usage errors (argparse), 1 on processing
errors. Processing errors are reported as a single line on stderr. Each
argument type is built by ``_typed``: a text its parse refuses with a
ValueError or BayerKitError is a usage error whose message states the rule
and the text. A command's own usage checks, such as ``augment``'s choice of
one mode, also report through argparse (``args.parser.error``), with exit 2,
before any I/O.
Every command is deterministic given its flags and seeds.

A command writes no file itself. It returns the (path, chunks) pairs of its
outputs, or None when it only prints, and ``main`` writes them as one unit:
the temp file of every output is complete before the first is renamed over
its path, so a command that fails before then leaves none of its outputs.
POSIX has no rename of several files at once, so a rename that fails after an
earlier one succeeded still leaves the earlier file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import baselines
from .augment import AugPlan, HFlip, Patch, Transpose, VFlip, apply_plan, sample_plan
from .denoise import DenoiserSpec, denoise_pipeline
from .errors import BayerKitError
from .metrics import metric_report
from .packing import pack, unpack
from .patterns import BayerPattern
from .rawfile import (_atomic_write, _ppm_bufs, _ppm_file, _ppm_strip, _raw_files, load_raw,
                      sidecar_path)
from .simulate import NoiseParams, _demosaic, add_noise, gen_scene, mosaic
from .unify import disunify_crop, unify_crop, unify_pad


def _typed(parse, message: str):
    """An argparse type: ``parse(text)``, or ``message`` with the text's repr for a refused text."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, BayerKitError):
            raise argparse.ArgumentTypeError(message.format(text)) from None
    return convert


def _numbers(text: str, sep: str, n: int, kind) -> tuple:
    """``text`` split at ``sep`` into exactly ``n`` values of ``kind``, else ValueError."""
    parts = text.split(sep)
    if len(parts) != n:
        raise ValueError(text)
    return tuple(kind(v) for v in parts)


_pattern = _typed(BayerPattern.from_name, "{!r} is not one of RGGB, BGGR, GRBG, GBRG")
_patch_args = _typed(lambda t: _numbers(t, ",", 4, int), "patch must be T,L,H,W integers, got {!r}")
_noise = _typed(lambda t: NoiseParams(*_numbers(t, ",", 2, float)),
                "noise must be READ,SHOT finite floats >= 0, got {!r}")


def _digits(text: str, least: int = 0, step: int = 1) -> int:
    """The plain decimal ``text`` (no sign, no space) as an int, which must be >= least and a
    multiple of step."""
    if not (text.isascii() and text.isdigit()) or int(text) < least or int(text) % step:
        raise ValueError(text)
    return int(text)


_seed = _typed(_digits, "seed must be an integer >= 0, got {!r}")
_size = _typed(lambda t: _numbers(t, "x", 2, _digits), "size must look like 128x128, got {!r}")
_patch_size = _typed(lambda t: _digits(t, 2, 2), "patch size must be an even integer >= 2, got {!r}")


def _command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """Add subcommand ``name``, run by ``func``.

    The subcommand's parser is its own default ``parser``, so a check that
    argparse's declarations cannot express reports as ``args.parser.error``.
    """
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func, parser=p)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayerkit", description="Bayer raw mosaic processing toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "unify", cmd_unify, "convert a mosaic to a target Bayer pattern")
    p.add_argument("--target", type=_pattern, required=True)
    p.add_argument("--mode", choices=["crop", "pad"], required=True)
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = _command(sub, "disunify", cmd_disunify, "undo pad-unification recorded in the sidecar")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = _command(sub, "augment", cmd_augment, "apply pattern-preserving augmentation")
    p.add_argument("--hflip", action="store_true")
    p.add_argument("--vflip", action="store_true")
    p.add_argument("--transpose", action="store_true")
    p.add_argument("--patch", type=_patch_args, metavar="T,L,H,W")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--patch-size", type=_patch_size)
    p.add_argument("--plan", metavar="plan.json")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = _command(sub, "pack-roundtrip", cmd_pack_roundtrip,
                 "self-check: pack then unpack must be exact")
    p.add_argument("input")

    p = _command(sub, "simulate", cmd_simulate, "generate a synthetic mosaic")
    p.add_argument("--pattern", type=_pattern, required=True)
    p.add_argument("--size", type=_size, required=True, metavar="HxW")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--noise", type=_noise, metavar="READ,SHOT")
    p.add_argument("--noise-seed", type=_seed, default=0)
    p.add_argument("--clean", metavar="clean.pgm")
    p.add_argument("-o", "--output", required=True)

    p = _command(sub, "denoise", cmd_denoise, "filter each plane as if padded to --work-pattern")
    p.add_argument("--filter", required=True, dest="filter_spec",
                   metavar="identity|gaussian:<s>|median:<r>")
    p.add_argument("--work-pattern", type=_pattern, required=True)
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = _command(sub, "demosaic", cmd_demosaic, "bilinear demosaic to a 16-bit PPM")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = _command(sub, "metrics", cmd_metrics, "print MSE/PSNR/SSIM of input vs reference as JSON")
    p.add_argument("--ref", required=True)
    p.add_argument("input")

    p = _command(sub, "baseline-demo", cmd_baseline_demo,
                 "differential demo: correct transforms vs naive packed-plane ops")
    p.add_argument("--seed", type=_seed, required=True)

    return parser


def cmd_unify(args) -> tuple:
    img, _ = load_raw(args.input)
    if args.mode == "crop":
        return _raw_files(unify_crop(img, args.target), None, args.output)
    return _raw_files(*unify_pad(img, args.target), args.output)


def cmd_disunify(args) -> tuple:
    img, pad = load_raw(args.input)
    if pad is None:
        raise BayerKitError(f"{args.input}: sidecar has no 'pad' record to undo")
    return _raw_files(disunify_crop(img, pad), None, args.output)


def cmd_augment(args) -> tuple:
    explicit = args.hflip or args.vflip or args.transpose or args.patch is not None
    modes = sum([args.plan is not None, args.seed is not None, explicit])
    if modes > 1:
        args.parser.error("choose one of --plan, --seed, or explicit step flags")
    if modes == 0:
        args.parser.error("no augmentation requested")
    if args.seed is not None and args.patch_size is None:
        args.parser.error("--seed requires --patch-size")
    if args.patch_size is not None and args.seed is None:
        args.parser.error("--patch-size requires --seed")
    img, _ = load_raw(args.input)
    if args.plan is not None:
        with open(args.plan, "rb") as fh:
            plan = AugPlan.from_json(fh.read())
    elif args.seed is not None:
        plan = sample_plan(args.seed, args.patch_size, img.height, img.width, img.pattern)
    else:
        # the flag of each argument-free step is named after its op
        steps = [kind() for kind in (HFlip, VFlip, Transpose) if getattr(args, kind.op)]
        if args.patch is not None:
            steps.append(Patch(*args.patch))
        plan = AugPlan(tuple(steps))
    return _raw_files(apply_plan(img, plan), None, args.output)


def cmd_pack_roundtrip(args) -> None:
    img, _ = load_raw(args.input)
    back = unpack(pack(img))
    ok = (
        (back.samples == img.samples).all()
        and back.pattern is img.pattern
        and back.black_level == img.black_level
        and back.white_level == img.white_level
    )
    if not ok:
        raise BayerKitError(f"{args.input}: pack/unpack round trip FAILED")
    print(f"{args.input}: pack/unpack round trip OK ({img.height}x{img.width})")


def cmd_simulate(args) -> tuple:
    outs = (args.output,) if args.clean is None else (args.clean, args.output)
    # sidecar_path refuses a path naming no file; one sidecar must not overwrite the other
    if len({os.path.realpath(sidecar_path(p)) for p in outs}) < len(outs):
        raise BayerKitError(f"{args.output}: -o and --clean would share one sidecar")
    height, width = args.size
    scene = gen_scene(args.seed, height, width)
    clean = mosaic(scene, args.pattern)
    files = _raw_files(clean, None, args.clean) if args.clean is not None else ()
    out = clean
    if args.noise is not None:
        out = add_noise(clean, args.noise, args.noise_seed)
    return files + _raw_files(out, None, args.output)


def cmd_denoise(args) -> tuple:
    spec = DenoiserSpec.parse(args.filter_spec)
    img, pad = load_raw(args.input)
    # the output has the input's size and pattern, so a pad record still applies to it
    return _raw_files(denoise_pipeline(img, args.work_pattern, spec), pad, args.output)


def cmd_demosaic(args) -> tuple:
    img, _ = load_raw(args.input)
    # the float frame is never built: each strip is quantized in the task that makes it
    strips = _demosaic(img, _ppm_strip, _ppm_bufs)
    return (_ppm_file(args.output, img.height, img.width, strips),)


def cmd_metrics(args) -> None:
    ref, _ = load_raw(args.ref)
    img, _ = load_raw(args.input)
    print(metric_report(img, ref).to_json())


def cmd_baseline_demo(args) -> None:
    print(json.dumps(baselines.sweep(args.seed, 128, 128), indent=2))


# main's parser, built once per process: its nine subparsers take about 2 ms to build, and
# parse_args leaves it as it was
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _atomic_write(*(args.func(args) or ()))  # a command that only prints returns None
    except (BayerKitError, OSError, MemoryError) as e:  # a bare MemoryError has no message
        print(f"bayerkit: error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
