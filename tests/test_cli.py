import json

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
    gen_scene,
    load_raw,
    mosaic,
    sample_plan,
    save_raw,
    unify_crop,
    unify_pad,
)
from bayerkit.cli import main

from conftest import assert_same_image, rand_raw


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
                                     '"left": 0, "height": 4.9, "width": 4}]}', b"\xff\xfe"])
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


def test_augment_conflicting_modes_is_usage_error(tmp_path, sample_pair):
    _, path = sample_pair
    with pytest.raises(SystemExit) as exc:
        main(["augment", "--hflip", "--seed", "3", "--patch-size", "4",
              str(path), "-o", str(tmp_path / "x.pgm")])
    assert exc.value.code == 2


def test_augment_without_steps_is_usage_error(tmp_path, sample_pair):
    _, path = sample_pair
    with pytest.raises(SystemExit) as exc:
        main(["augment", str(path), "-o", str(tmp_path / "x.pgm")])
    assert exc.value.code == 2


def test_augment_illegal_transpose_is_processing_error(tmp_path, sample_pair, capsys):
    _, path = sample_pair  # GRBG: transposition must be refused
    rc = main(["augment", "--transpose", str(path), "-o", str(tmp_path / "x.pgm")])
    assert rc == 1
    assert "transpos" in capsys.readouterr().err.lower()


def test_pack_roundtrip_command(sample_pair, capsys):
    _, path = sample_pair
    assert main(["pack-roundtrip", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


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


@pytest.mark.parametrize("clean, output", [("c.pgm", "out.json"), ("c.json", "out.pgm")])
def test_refused_output_path_leaves_no_other_output(tmp_path, capsys, clean, output):
    assert main(["simulate", "--pattern", "RGGB", "--size", "8x8", "--seed", "1", "--noise",
                 "0.01,0.01", "--clean", str(tmp_path / clean), "-o", str(tmp_path / output)]) == 1
    assert capsys.readouterr().err.count("\n") == 1
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


def test_denoise_command(tmp_path, sample_pair):
    img, path = sample_pair
    out = tmp_path / "den.pgm"
    assert main(["denoise", "--filter", "gaussian:1.0", "--work-pattern", "BGGR",
                 str(path), "-o", str(out)]) == 0
    loaded, _ = load_raw(out)
    expected = denoise_pipeline(img, BayerPattern.BGGR, DenoiserSpec("gaussian", 1.0))
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


def test_unknown_pattern_flag_is_usage_error(tmp_path, sample_pair):
    _, path = sample_pair
    with pytest.raises(SystemExit) as exc:
        main(["unify", "--target", "rggb", "--mode", "crop", str(path),
              "-o", str(tmp_path / "x.pgm")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "simulate --pattern RGGB --size 16x16 --seed -3 -o {out}",
        "simulate --pattern RGGB --size 16x16 --seed 1 --noise 0.02,0.04 --noise-seed -1 -o {out}",
        "simulate --pattern RGGB --size 16x16 --seed 1 --noise nan,0 -o {out}",
        "simulate --pattern RGGB --size 16x16 --seed 1 --noise inf,0 -o {out}",
        "simulate --pattern RGGB --size 16x16 --seed 1 --noise=-1,0 -o {out}",
        "simulate --pattern RGGB --size 16x16 --seed 1 --noise 1e154,1e154 -o {out}",
        "simulate --pattern RGGB --size 16x16 --seed x -o {out}",
        "augment --seed -1 --patch-size 4 {inp} -o {out}",
        "baseline-demo --seed -1",
    ],
)
def test_bad_numeric_argument_is_usage_error(tmp_path, sample_pair, capsys, argv):
    _, path = sample_pair
    out = tmp_path / "x.pgm"
    argv = argv.format(inp=path, out=out).split()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"bayerkit {argv[0]}: error: argument --")
    assert not out.exists()
