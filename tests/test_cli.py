import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bayerkit import (
    BayerPattern,
    DenoiserSpec,
    NoiseParams,
    add_noise,
    apply_plan,
    AugPlan,
    HFlip,
    Patch,
    denoise_pipeline,
    disunify_crop,
    gen_scene,
    load_raw,
    mosaic,
    sample_plan,
    save_raw,
    unify_crop,
    unify_pad,
)
import bayerkit.cli as cli
import bayerkit.image as image
from bayerkit.cli import build_parser, main
from bayerkit.image import STRIP_ROWS

from conftest import assert_same_image, rand_raw

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def sample_pair(tmp_path, rng):
    img = rand_raw(rng, 16, 16, BayerPattern.GRBG)
    path = tmp_path / "in.pgm"
    save_raw(img, None, path)
    return img, path


def test_unify_crop_command(tmp_path, sample_pair):
    img, path = sample_pair
    out = tmp_path / "out.pgm"
    assert main(["unify", "--target", "BGGR", "--mode", "crop", str(path), "-o", str(out)]) == 0
    loaded, pad = load_raw(out)
    assert pad is None
    assert_same_image(loaded, unify_crop(img, BayerPattern.BGGR))


def test_unify_pad_and_disunify_commands(tmp_path, sample_pair):
    img, path = sample_pair
    padded_path = tmp_path / "padded.pgm"
    assert main(["unify", "--target", "RGGB", "--mode", "pad", str(path),
                 "-o", str(padded_path)]) == 0
    loaded, pad = load_raw(padded_path)
    expected, expected_pad = unify_pad(img, BayerPattern.RGGB)
    assert pad == expected_pad
    assert_same_image(loaded, expected)

    restored_path = tmp_path / "restored.pgm"
    assert main(["disunify", str(padded_path), "-o", str(restored_path)]) == 0
    restored, _ = load_raw(restored_path)
    assert_same_image(restored, img)


def test_disunify_without_pad_fails(tmp_path, sample_pair, capsys):
    _, path = sample_pair
    rc = main(["disunify", str(path), "-o", str(tmp_path / "x.pgm")])
    assert rc == 1
    assert "pad" in capsys.readouterr().err


def test_augment_explicit_flags(tmp_path, sample_pair):
    img, path = sample_pair
    out = tmp_path / "aug.pgm"
    assert main(["augment", "--hflip", "--patch", "2,2,8,8", str(path), "-o", str(out)]) == 0
    loaded, _ = load_raw(out)
    expected = apply_plan(img, AugPlan((HFlip(), Patch(2, 2, 8, 8))))
    assert_same_image(loaded, expected)


def test_augment_seeded(tmp_path, sample_pair):
    img, path = sample_pair
    out = tmp_path / "aug.pgm"
    assert main(["augment", "--seed", "9", "--patch-size", "8", str(path), "-o", str(out)]) == 0
    loaded, _ = load_raw(out)
    plan = sample_plan(9, 8, img.height, img.width, img.pattern)
    assert_same_image(loaded, apply_plan(img, plan))


def test_augment_patch_size_that_does_not_fit_is_processing_error(tmp_path, sample_pair, capsys):
    # a legal size, checked against the image once it is read
    _, path = sample_pair
    out = tmp_path / "aug.pgm"
    assert main(["augment", "--seed", "1", "--patch-size", "14", str(path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "bayerkit: error: patch_size 14 does not fit a 16x16 image with room for flip shrinkage\n")
    assert not out.exists()


def test_augment_plan_file(tmp_path, sample_pair):
    img, path = sample_pair
    plan = AugPlan((HFlip(), Patch(0, 2, 10, 10)), seed=5)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(plan.to_json())
    out = tmp_path / "aug.pgm"
    assert main(["augment", "--plan", str(plan_path), str(path), "-o", str(out)]) == 0
    loaded, _ = load_raw(out)
    assert_same_image(loaded, apply_plan(img, plan))


@pytest.mark.parametrize("payload", ["[1,2]", '{"steps": [{"op": "patch", "top": 0, '
                                     '"left": 0, "height": 4.9, "width": 4}]}', b"\xff\xfe",
                                     '{"seed": -1, "steps": [{"op": "hflip"}]}', "{}"])
def test_augment_bad_plan_is_processing_error(tmp_path, sample_pair, capsys, payload):
    _, path = sample_pair
    plan_path = tmp_path / "plan.json"
    plan_path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
    out = tmp_path / "aug.pgm"
    assert main(["augment", "--plan", str(plan_path), str(path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bayerkit: error: bad augmentation plan") and err.count("\n") == 1
    assert not out.exists()


def test_non_integer_sidecar_level_is_processing_error(tmp_path, sample_pair, capsys):
    _, path = sample_pair
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps({"bayer_pattern": "GRBG", "white_level": 60000.9}))
    out = tmp_path / "out.pgm"
    assert main(["unify", "--target", "BGGR", "--mode", "crop", str(path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"bayerkit: error: {sidecar}: 'white_level' must be a JSON integer, got 60000.9\n"
    assert not out.exists()


@pytest.mark.parametrize("sidecar", [
    json.dumps({"bayer_pattern": "GRBG", "pad": {"top": 0, "bottom": 0, "left": 0, "right": 0,
                                                "original_pattern": "XYZW"}}).encode(),
    json.dumps({"bayer_pattern": ["RGGB"]}).encode(),
    json.dumps({"bayer_pattern": "GRBG",
                "pad": {"top": 0, "bottom": 0, "left": 0, "right": 0}}).encode(),
    b"\xff\xfe{",
    json.dumps({"bayer_pattern": "GRBG", "pad": {"top": 1, "bottom": 0, "left": 0, "right": 0,
                                                "original_pattern": "GRBG"}}).encode(),
])
def test_bad_sidecar_error_names_the_sidecar(tmp_path, sample_pair, capsys, sidecar):
    _, ref = sample_pair
    path = tmp_path / "b.pgm"
    path.write_bytes(ref.read_bytes())
    path.with_suffix(".json").write_bytes(sidecar)
    assert main(["metrics", "--ref", str(ref), str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bayerkit: error: {path.with_suffix('.json')}: ")
    assert err.count("\n") == 1


def test_augment_conflicting_modes_is_usage_error(tmp_path, sample_pair, capsys):
    _, path = sample_pair
    for flags, message in [
        ("--hflip --seed 3 --patch-size 4", "choose one of --plan, --seed, or explicit step flags"),
        ("--hflip --patch-size 4", "--patch-size requires --seed"),
        ("--plan p.json --patch-size 4", "--patch-size requires --seed"),
        ("--seed 3", "--seed requires --patch-size"),
    ]:
        for inp in (path, tmp_path / "absent.pgm"):  # a usage error comes before any I/O
            with pytest.raises(SystemExit) as exc:
                main(["augment", *flags.split(), str(inp), "-o", str(tmp_path / "x.pgm")])
            assert exc.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1] == f"bayerkit augment: error: {message}"
    assert not (tmp_path / "x.pgm").exists()


def test_augment_without_steps_is_usage_error(tmp_path, sample_pair, capsys):
    _, path = sample_pair
    with pytest.raises(SystemExit) as exc:
        main(["augment", str(path), "-o", str(tmp_path / "x.pgm")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "bayerkit augment: error: no augmentation requested"
    assert not (tmp_path / "x.pgm").exists()


def test_every_subcommand_prints_its_own_help(capsys):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert sub.choices
    for name in sub.choices:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith(f"usage: bayerkit {name}"), out


def test_main_builds_its_parser_once_and_each_parse_leaves_it_as_it_was(capsys, tmp_path):
    argv = ["augment", "--seed", "3", str(tmp_path / "absent.pgm"), "-o", str(tmp_path / "x.pgm")]
    errs = []
    for args in (argv, ["denoise", "--help"], argv):
        with pytest.raises(SystemExit) as exc:
            main(args)
        errs.append((exc.value.code, capsys.readouterr().err))
    assert errs[0] == errs[2] == (2, errs[0][1])
    assert errs[0][1].splitlines()[-1] == "bayerkit augment: error: --seed requires --patch-size"
    assert cli._parser.cache_info().misses == 1 and cli._parser() is cli._parser()
    assert build_parser() is not build_parser()  # still a fresh parser per call


def test_augment_illegal_transpose_is_processing_error(tmp_path, sample_pair, capsys):
    _, path = sample_pair  # GRBG: transposition must be refused
    rc = main(["augment", "--transpose", str(path), "-o", str(tmp_path / "x.pgm")])
    assert rc == 1
    assert "transpos" in capsys.readouterr().err.lower()


def test_pack_roundtrip_command(sample_pair, capsys):
    _, path = sample_pair
    assert main(["pack-roundtrip", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("case", ["missing directory", "output is a directory"])
def test_a_write_error_names_the_output_not_a_temp_file(tmp_path, sample_pair, capsys, case):
    _, path = sample_pair
    if case == "missing directory":  # the temp file cannot be opened
        out = tmp_path / "nodir" / "x.pgm"
        argv = ["simulate", "--pattern", "RGGB", "--size", "8x8", "--seed", "1", "-o", str(out)]
    else:  # the temp file is written, and its rename fails
        out = tmp_path / "adir"
        out.mkdir()
        argv = ["demosaic", str(path), "-o", str(out)]
    before = sorted(tmp_path.rglob("*"))
    lines = []
    for _ in range(2):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("bayerkit: error: ")
        assert repr(str(out)) in err and ".tmp" not in err
        lines.append(err)
    assert lines[0] == lines[1]
    assert sorted(tmp_path.rglob("*")) == before  # no file is left


def test_simulate_command(tmp_path):
    out = tmp_path / "sim.pgm"
    clean = tmp_path / "clean.pgm"
    assert main(["simulate", "--pattern", "GBRG", "--size", "32x48", "--seed", "3",
                 "--noise", "0.02,0.04", "--noise-seed", "17",
                 "-o", str(out), "--clean", str(clean)]) == 0
    noisy, _ = load_raw(out)
    ref, _ = load_raw(clean)
    scene = gen_scene(3, 32, 48)
    expected_clean = mosaic(scene, BayerPattern.GBRG)
    assert_same_image(ref, expected_clean)
    assert_same_image(noisy, add_noise(expected_clean, NoiseParams(0.02, 0.04), 17))
    assert noisy.samples.shape == (32, 48)


def test_json_output_path_is_refused_before_writing(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["simulate", "--pattern", "RGGB", "--size", "8x8", "--seed", "1",
                 "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bayerkit: error: {out}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("clean, output", [("c.pgm", "out.json"), ("c.json", "out.pgm"),
                                           ("c.pgm", "missing/out.pgm"),
                                           ("missing/c.pgm", "out.pgm")])
def test_refused_output_path_leaves_no_other_output(tmp_path, capsys, clean, output):
    assert main(["simulate", "--pattern", "RGGB", "--size", "8x8", "--seed", "1", "--noise",
                 "0.01,0.01", "--clean", str(tmp_path / clean), "-o", str(tmp_path / output)]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("clean, output", [("", "out.pgm"), ("c.pgm", "")])
def test_empty_output_path_is_refused_for_clean_and_o_alike(tmp_path, monkeypatch, capsys,
                                                             clean, output):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--pattern", "RGGB", "--size", "8x8", "--seed", "1",
                 "--clean", clean, "-o", output]) == 1
    err = capsys.readouterr().err
    assert err == "bayerkit: error: '' names no file\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output", ["x.pgm", "./x.pgm", "x.ppm"])
def test_clean_and_output_on_one_sidecar_are_refused(tmp_path, monkeypatch, capsys, output):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--pattern", "RGGB", "--size", "8x8", "--seed", "1", "--noise",
                 "0.1,0.1", "--clean", "x.pgm", "-o", output]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bayerkit: error: {output}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_simulate_without_noise_is_clean(tmp_path):
    out = tmp_path / "sim.pgm"
    assert main(["simulate", "--pattern", "RGGB", "--size", "16x16", "--seed", "0",
                 "-o", str(out)]) == 0
    img, _ = load_raw(out)
    assert_same_image(img, mosaic(gen_scene(0, 16, 16), BayerPattern.RGGB))


# the child's address space is capped at 3 GiB, so the allocator refuses the request whatever
# the host's overcommit policy; uncapped, a granted request could end in the OOM killer
_CAPPED_MAIN = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
                "from bayerkit.cli import main; sys.exit(main(sys.argv[1:]))")


def test_simulate_of_a_scene_too_large_to_allocate_is_one_error_line(tmp_path):
    # 1e6 x 1e6: three float64 planes of 21.8 TiB
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "simulate", "--pattern", "RGGB", "--size",
         "1000000x1000000", "--seed", "1", "-o", str(tmp_path / "out.pgm")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("bayerkit: error: a 1000000x1000000 scene is too large: ")
    assert proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_denoise_command(tmp_path, sample_pair):
    img, path = sample_pair
    out = tmp_path / "den.pgm"
    assert main(["denoise", "--filter", "gaussian:1.0", "--work-pattern", "BGGR",
                 str(path), "-o", str(out)]) == 0
    loaded, _ = load_raw(out)
    expected = denoise_pipeline(img, BayerPattern.BGGR, DenoiserSpec("gaussian", 1.0))
    assert_same_image(loaded, expected)


def test_pad_denoise_disunify_chain_restores_the_original_frame(tmp_path, sample_pair):
    # the paper's inference path: pad to the model's pattern, denoise, crop back
    img, path = sample_pair
    padded, denoised, out = (tmp_path / f"{n}.pgm" for n in ("padded", "denoised", "out"))
    assert main(["unify", "--target", "RGGB", "--mode", "pad", str(path), "-o", str(padded)]) == 0
    # a work pattern other than the file's own, so the pipeline pads too
    assert main(["denoise", "--filter", "median:1", "--work-pattern", "BGGR",
                 str(padded), "-o", str(denoised)]) == 0
    assert main(["disunify", str(denoised), "-o", str(out)]) == 0
    padded_img, pad = unify_pad(img, BayerPattern.RGGB)
    expected = disunify_crop(
        denoise_pipeline(padded_img, BayerPattern.BGGR, DenoiserSpec("median", 1)), pad)
    loaded, record = load_raw(out)
    assert record is None
    assert (loaded.pattern, loaded.samples.shape) == (img.pattern, img.samples.shape)
    assert_same_image(loaded, expected)


def test_denoise_bad_filter_is_processing_error(tmp_path, sample_pair, capsys):
    _, path = sample_pair
    rc = main(["denoise", "--filter", "median:9", "--work-pattern", "RGGB",
               str(path), "-o", str(tmp_path / "x.pgm")])
    assert rc == 1
    assert "median" in capsys.readouterr().err


def test_demosaic_command(tmp_path, sample_pair):
    _, path = sample_pair
    out = tmp_path / "out.ppm"
    assert main(["demosaic", str(path), "-o", str(out)]) == 0
    data = out.read_bytes()
    assert data.startswith(b"P6\n16 16\n65535\n")
    assert len(data) == len(b"P6\n16 16\n65535\n") + 16 * 16 * 3 * 2


def test_demosaic_too_small_writes_nothing(tmp_path, rng, capsys):
    save_raw(rand_raw(rng, 2, 2, BayerPattern.RGGB), None, tmp_path / "in.pgm")
    assert main(["demosaic", str(tmp_path / "in.pgm"), "-o", str(tmp_path / "out.ppm")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "demosaic needs at least 4x4, got 2x2" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "in.pgm"]


def test_denoise_command_holds_two_frames_and_its_strip_buffers(tmp_path, rng):
    # the input as read and the output mosaic its planes are filtered into: no padded,
    # packed or unpacked frame, no copy of the file's bytes and no big-endian frame
    save_raw(rand_raw(rng, 1024, 1536, BayerPattern.GBRG), None, tmp_path / "in.pgm")
    padded = tmp_path / "padded.pgm"
    assert main(["unify", "--target", "RGGB", "--mode", "pad", str(tmp_path / "in.pgm"),
                 "-o", str(padded)]) == 0
    h, w = 1026, 1536
    tracemalloc.start()
    try:
        assert main(["denoise", "--filter", "gaussian:1.0", "--work-pattern", "BGGR",
                     str(padded), "-o", str(tmp_path / "out.pgm")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Gaussian's halo and column-pass strips of the mosaic, STRIP_ROWS // 2 + 4 and
    # STRIP_ROWS // 2 rows of w + 4 float64, and the engine's index maps of the frame's rows and
    # columns; the writer's smaller strip comes after they are freed
    strips = (2 * (STRIP_ROWS // 2) + 4) * (w + 4) * 8 + 4 * (h + w) * 8
    assert STRIP_ROWS * w * 2 < strips
    assert peak < 2 * h * w * 2 + strips



def test_denoise_command_on_the_pool_holds_two_frames_and_a_buffer_set_per_lane(tmp_path, rng):
    # 3072 wide, each 32-row strip of the mosaic holds 98,304 samples, past POOL_MIN_SAMPLES,
    # so the Gaussian runs on min(CPUs, POOL_WORKERS) lanes, each with a buffer set of its own
    save_raw(rand_raw(rng, 512, 3072, BayerPattern.GBRG), None, tmp_path / "in.pgm")
    padded = tmp_path / "padded.pgm"
    assert main(["unify", "--target", "RGGB", "--mode", "pad", str(tmp_path / "in.pgm"),
                 "-o", str(padded)]) == 0
    h, w = 514, 3072
    assert (STRIP_ROWS // 2) * w > image.POOL_MIN_SAMPLES
    argv = ["denoise", "--filter", "gaussian:1.0", "--work-pattern", "BGGR", str(padded),
            "-o", str(tmp_path / "out.pgm")]
    assert main(argv) == 0  # the workers start, and the executor's modules load, untraced
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per lane the Gaussian's halo and column-pass strips, STRIP_ROWS // 2 + 4 and
    # STRIP_ROWS // 2 rows of w + 4 float64, and once the engine's index maps
    lanes = min(len(image._cpus()), image.POOL_WORKERS)
    one_set = (2 * (STRIP_ROWS // 2) + 4) * (w + 4) * 8
    assert peak < 2 * h * w * 2 + lanes * one_set + 4 * (h + w) * 8

def test_demosaic_command_never_holds_a_float_frame_plane(tmp_path, rng):
    h, w = 1024, 1536
    save_raw(rand_raw(rng, h, w, BayerPattern.GBRG), None, tmp_path / "in.pgm")
    tracemalloc.start()
    try:
        assert main(["demosaic", str(tmp_path / "in.pgm"), "-o", str(tmp_path / "out.ppm")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < h * w * 8


def test_metrics_command(tmp_path, sample_pair, capsys):
    _, path = sample_pair
    assert main(["metrics", "--ref", str(path), str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"mse": 0.0, "psnr_db": 99.0, "ssim": 1.0}


def test_metrics_mismatch_is_processing_error(tmp_path, sample_pair, rng, capsys):
    _, path = sample_pair
    other = rand_raw(rng, 16, 16, BayerPattern.RGGB)
    other_path = tmp_path / "other.pgm"
    save_raw(other, None, other_path)
    rc = main(["metrics", "--ref", str(path), str(other_path)])
    assert rc == 1
    capsys.readouterr()


def test_baseline_demo_command(capsys):
    assert main(["baseline-demo", "--seed", "0"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["seed"] == 0
    assert len(table["unify"]["pairs"]) == 16
    assert len(table["flip"]["pairs"]) == 8
    step = table["quantization_step"]
    assert table["unify"]["mean_correct_rmse"] <= 2 * step
    assert table["unify"]["mean_naive_rmse"] >= 10 * table["unify"]["mean_correct_rmse"]
    assert table["flip"]["mean_naive_rmse"] >= 10 * table["flip"]["mean_correct_rmse"]


def test_missing_input_file_is_processing_error(tmp_path, capsys):
    rc = main(["demosaic", str(tmp_path / "absent.pgm"), "-o", str(tmp_path / "x.ppm")])
    assert rc == 1
    capsys.readouterr()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["unify", "--mode", "crop"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, code", [
    (["metrics", "--ref", "{pgm}", "{pgm}"], 1),  # the sidecar is missing: a processing error
    (["unify", "--mode", "crop", "{pgm}"], 2),  # required flags are missing: a usage error
    (["augment", "--seed", "3", "{pgm}", "-o", "{out}"], 2),  # augment's own usage check
], ids=["processing-error", "usage-error", "augment-usage-error"])
def test_module_entry_point_exit_codes(tmp_path, sample_pair, argv, code):
    _, path = sample_pair
    path.with_suffix(".json").unlink()
    out = tmp_path / "out.pgm"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    argv = [a.format(pgm=path, out=out) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "bayerkit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, ""), proc.stderr
    if code == 1:
        assert proc.stderr == f"bayerkit: error: no sidecar at {path.with_suffix('.json')}\n"
    if argv[0] == "augment":
        last = proc.stderr.splitlines()[-1]
        assert last == "bayerkit augment: error: --seed requires --patch-size"
    assert not out.exists()


def test_unknown_pattern_flag_is_usage_error(tmp_path, sample_pair):
    _, path = sample_pair
    with pytest.raises(SystemExit) as exc:
        main(["unify", "--target", "rggb", "--mode", "crop", str(path),
              "-o", str(tmp_path / "x.pgm")])
    assert exc.value.code == 2


_SEED = "seed must be an integer >= 0, got"
_NOISE = "argument --noise: noise must be READ,SHOT finite floats >= 0, got"
_BAD_ARGUMENTS = [
    ("simulate --pattern RGGB --size 16x16 --seed -3 -o {out}", f"argument --seed: {_SEED} '-3'"),
    ("simulate --pattern RGGB --size 16x16 --seed 1 --noise 0.02,0.04 --noise-seed -1 -o {out}",
     f"argument --noise-seed: {_SEED} '-1'"),
    ("simulate --pattern RGGB --size 16x16 --seed 1 --noise nan,0 -o {out}", f"{_NOISE} 'nan,0'"),
    ("simulate --pattern RGGB --size 16x16 --seed 1 --noise inf,0 -o {out}", f"{_NOISE} 'inf,0'"),
    ("simulate --pattern RGGB --size 16x16 --seed 1 --noise=-1,0 -o {out}", f"{_NOISE} '-1,0'"),
    ("simulate --pattern RGGB --size 16x16 --seed 1 --noise 1e154,1e154 -o {out}",
     f"{_NOISE} '1e154,1e154'"),
    ("simulate --pattern RGGB --size 16x16 --seed 1 --noise 1,2,3 -o {out}", f"{_NOISE} '1,2,3'"),
    ("simulate --pattern RGGB --size 16x16 --seed x -o {out}", f"argument --seed: {_SEED} 'x'"),
    ("simulate --pattern RGGB --size 16 --seed 1 -o {out}",
     "argument --size: size must look like 128x128, got '16'"),
    ("simulate --pattern RGGB --size 1x2x3 --seed 1 -o {out}",
     "argument --size: size must look like 128x128, got '1x2x3'"),
    *((f"simulate --pattern RGGB --size={size} --seed 1 -o {{out}}",
       f"argument --size: size must look like 128x128, got {size.format(sp=' ')!r}")
      for size in ("+8x8", "{sp}8x8", "8_0x80", "\u0668x\u0668", "-8x8")),
    ("augment --seed -1 --patch-size 4 {inp} -o {out}", f"argument --seed: {_SEED} '-1'"),
    *((f"augment --seed 1 --patch-size {size} {{inp}} -o {{out}}",
       f"argument --patch-size: patch size must be an even integer >= 2, got {size.format(sp=' ')!r}")
      for size in ("-4", "0", "3", "x", "+4", "{sp}4")),
    ("augment --patch 1,2,3 {inp} -o {out}",
     "argument --patch: patch must be T,L,H,W integers, got '1,2,3'"),
    ("baseline-demo --seed -1", f"argument --seed: {_SEED} '-1'"),
    ("unify --target rggb --mode crop {inp} -o {out}",
     "argument --target: 'rggb' is not one of RGGB, BGGR, GRBG, GBRG"),
]


def test_a_plain_decimal_size_too_small_for_a_scene_is_processing_error(tmp_path, capsys):
    out = tmp_path / "x.pgm"
    assert main(["simulate", "--pattern", "RGGB", "--size", "0x8", "--seed", "1",
                 "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "bayerkit: error: scene dimensions must be even and >= 8, got 0x8\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, last", _BAD_ARGUMENTS, ids=[argv for argv, _ in _BAD_ARGUMENTS])
def test_bad_numeric_argument_is_usage_error(tmp_path, sample_pair, capsys, argv, last):
    _, path = sample_pair
    out = tmp_path / "x.pgm"
    argv = [a.format(inp=path, out=out, sp=" ") for a in argv.split()]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"bayerkit {argv[0]}: error: {last}"
    assert not out.exists()
