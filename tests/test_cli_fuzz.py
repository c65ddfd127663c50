"""Argv-level fuzzing of the CLI error contract.

Every invocation of ``cli.main`` must exit 0, 1 or 2 without a traceback, and
an exit 1 must print exactly one line on stderr. Whatever the exit code, no
temp file of a write may be left behind. Arguments are drawn per
subcommand from mixes of valid and hostile values; inputs are small files
written into a fresh directory for each example.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bayerkit import BayerPattern, RawImage, save_raw, unify_pad
from bayerkit.cli import main

PLANS = [
    b'{"steps": [{"op": "hflip"}, {"op": "patch", "top": 0, "left": 2, "height": 4, "width": 4}]}',
    b'{"steps": [{"op": "transpose"}]}',
    b'{"steps": [{"op": "patch", "top": -2, "left": 0, "height": 2, "width": 2}]}',
    b'{"steps": [{"op": "vflip"}], "seed": 1.5}',
    b"[1, 2]",
    b"\xff\xfe",
]


def _write_inputs(d: Path) -> None:
    rng = np.random.default_rng(0)
    for pattern in BayerPattern:
        for h, w in ((2, 2), (4, 6), (8, 8), (12, 10)):
            img = RawImage(rng.integers(0, 4096, (h, w)), pattern, 64, 4095)
            save_raw(img, None, d / f"{pattern.value}_{h}x{w}.pgm")
        padded, pad = unify_pad(img, BayerPattern.BGGR)
        save_raw(padded, pad, d / f"{pattern.value}_pad.pgm")
    (d / "junk.pgm").write_bytes(b"P5\n4 4\n65535\nshort")
    (d / "junk.json").write_text('{"bayer_pattern": "RGGB"}')
    (d / "nosidecar.pgm").write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    (d / "longline.pgm").write_bytes(b"P5\n" + b"4" * 4096)  # a dimension line with no end
    (d / "longline.json").write_text('{"bayer_pattern": "RGGB"}')
    (d / "sub").mkdir()


VALID_INPUTS = ["RGGB_8x8.pgm", "GRBG_12x10.pgm", "BGGR_4x6.pgm", "GBRG_pad.pgm"]
INPUTS = VALID_INPUTS + ["GBRG_2x2.pgm", "RGGB_pad.pgm", "junk.pgm", "nosidecar.pgm",
                         "longline.pgm", "absent.pgm", "sub", "plan.json", ""]
OUTPUTS = ["out.pgm", "out2.pgm", "out.ppm", "out.json", "sub", "sub/", "missing/out.pgm",
           "", ".", "RGGB_8x8.pgm"]


def _mostly(valid, other):
    """Half the draws from the valid values, half from everything."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid + other))


small_int = st.integers(-4, 40).map(str)
number = st.one_of(small_int, st.integers(0, 2**80).map(str),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.sampled_from(["", "x", "1e-200", "1e200", "-0", "0x10", " 3", "1_0"]))
seed = st.one_of(st.integers(0, 99).map(str), number)
pattern = _mostly([p.value for p in BayerPattern], ["rggb", "RGB", ""])
inp = _mostly(VALID_INPUTS, INPUTS)
out = _mostly(["out.pgm"], OUTPUTS)


def _opt(flag, value):
    """[flag, value], or now and then nothing."""
    return st.tuples(st.integers(0, 7), value).map(lambda t: [] if t[0] == 5 else [flag, t[1]])


def _command(name, *positional, **options):
    opts = [_opt((f"--{k}" if len(k) > 1 else f"-{k}").replace("_", "-"), v)
            for k, v in options.items()]
    return st.tuples(st.tuples(*opts).flatmap(st.permutations), st.tuples(*positional)).map(
        lambda t: [name, *sum(t[0], []), *t[1]])


steps = st.lists(st.sampled_from(["--hflip", "--vflip", "--transpose"]), max_size=3)
patch = st.one_of(st.tuples(*[st.integers(-1, 5).map(lambda v: str(2 * v))] * 4),
                  st.lists(small_int, min_size=3, max_size=5)).map(",".join)
plan = _mostly(["plan.json"], ["junk.pgm", "absent.json", "sub"])
filters = st.one_of(st.sampled_from(["identity", "identity:1", "gaussian", "median:1", "median:2",
                                     "median:3", "median:1.0", "bilateral:1", ":"]),
                    number.map(lambda v: f"gaussian:{v}"), number.map(lambda v: f"median:{v}"))
noise = st.one_of(st.floats(0, 0.5).map(repr), number)
# a side of 2**62 or more with the other >= 8 is a shape numpy refuses before it allocates
huge_side = st.integers(2**62, 2**80).map(str)
size = st.one_of(st.sampled_from(["8x8", "8x12", "16x10"]),
                 st.tuples(small_int, small_int).map("x".join),
                 st.tuples(huge_side, st.one_of(small_int, huge_side)).flatmap(st.permutations)
                 .map("x".join))

COMMANDS = st.one_of(
    _command("unify", inp, target=pattern, mode=st.sampled_from(["crop", "pad", "x"]), o=out),
    _command("disunify", inp, o=out),
    st.tuples(_command("augment", inp, patch=patch, o=out), steps).map(lambda t: t[0] + t[1]),
    _command("augment", inp, seed=seed, patch_size=st.one_of(small_int, number), o=out),
    _command("augment", inp, plan=plan, o=out),
    st.tuples(_command("augment", inp, patch=patch, seed=seed, patch_size=number, plan=plan,
                       o=out), steps).map(lambda t: t[0] + t[1]),
    _command("pack-roundtrip", inp),
    _command("simulate", pattern=pattern, size=size, seed=seed,
             noise=st.tuples(noise, noise).map(",".join), noise_seed=seed,
             clean=_mostly(["clean.pgm"], OUTPUTS), o=out),
    _command("denoise", inp, filter=filters, work_pattern=pattern, o=out),
    _command("demosaic", inp, o=_mostly(["out.ppm"], OUTPUTS)),
    _command("metrics", inp, ref=inp),
    _command("baseline-demo", seed=st.sampled_from(["0", "7", "-1", "x", ""])),
)


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, stderr.getvalue()


SIM = ["simulate", "--pattern", "RGGB", "--size", "8x8", "--seed", "1"]


# a rename, or the second temp file, fails after a temp file is complete
@example(["demosaic", "RGGB_8x8.pgm", "-o", "sub"], PLANS[0])
@example(["unify", "--target", "BGGR", "--mode", "pad", "RGGB_8x8.pgm", "-o", "sub"], PLANS[0])
@example([*SIM, "--clean", "clean.pgm", "-o", "missing/out.pgm"], PLANS[0])
@example([*SIM, "--clean", "clean.pgm", "-o", "sub"], PLANS[0])
# each of these raised a traceback once
@example(["simulate", "--pattern", "RGGB", "--size", f"{2**62}x8", "--seed", "1", "-o",
          "out.pgm"], PLANS[0])
@example(["simulate", "--pattern", "RGGB", "--size", f"{2**70}x{2**70}", "--seed", "1", "-o",
          "out.pgm"], PLANS[0])
@example(["denoise", "--filter", "gaussian:1e-200", "--work-pattern", "BGGR", "RGGB_8x8.pgm",
          "-o", "out.pgm"], PLANS[0])
@example([*SIM, "--noise", "1e200,0", "-o", "out.pgm"], PLANS[0])
@example([*SIM, "--noise", "0,1e200", "-o", "out.pgm"], PLANS[0])
@example(["demosaic", "RGGB_8x8.pgm", "-o", ""], PLANS[0])
@example(["unify", "--target", "BGGR", "--mode", "crop", "RGGB_8x8.pgm", "-o", ""], PLANS[0])
@example(["metrics", "--ref", "", "RGGB_8x8.pgm"], PLANS[0])
@given(COMMANDS, st.sampled_from(PLANS))
@settings(max_examples=150, deadline=None)
def test_every_invocation_keeps_the_error_contract(argv, plan):
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        _write_inputs(d)
        (d / "plan.json").write_bytes(plan)
        names = set(INPUTS + OUTPUTS + ["clean.pgm"])
        argv = [os.path.join(d, a) if a in names and a else a for a in argv]
        code, err = _run(argv)
        leftovers = list(d.rglob("*.tmp"))
    assert not leftovers, (argv, code, leftovers)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
