"""The strip pool (image._strip_map): the strips it makes from a frame's height and the buffer
sets it asks for, the same results on one worker or two and for concurrent callers, the CLI's
error contract when a strip task fails and under fuzzing, a call made inside a strip task,
a pool of its own in a forked child, and no thread or import where no call needs one.

A call runs on min(CPUs of the process, POOL_WORKERS) lanes, and inline on a frame under
POOL_MIN_SAMPLES. The tests pin all three: the constants by patching them, the CPUs by patching
image._cpus, so the two-lane path runs on small frames on any host. On a host of one CPU the
patched CPU set names a CPU the process may not use, so a worker's placement is refused and it
stays where it is."""

import contextlib
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayerkit import BayerPattern, RawImage, demosaic_bilinear, image, metric_report, metrics
from bayerkit import mse, save_raw, simulate, ssim, write_ppm
from bayerkit.cli import main

from conftest import rand_raw
from test_cli_fuzz import test_every_invocation_keeps_the_error_contract as cli_contract

ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def on_workers(workers: int, cpus: int = 2):
    """Calls of more than one task run on ``workers`` lanes, whatever the frame's size: the cap
    patched, in a process of ``cpus`` CPUs."""
    with (patch.object(image, "POOL_WORKERS", workers), patch.object(image, "POOL_MIN_SAMPLES", 0),
          patch.object(image, "_cpus", lambda: set(range(cpus)))):
        yield


@given(st.integers(1, 200), st.integers(1, 8), st.sampled_from([1, 2]))
@example(1, 8, 2)  # one strip: inline, whatever the lanes
@example(17, 4, 2)  # four 4-row strips and a 1-row one
@settings(max_examples=200, deadline=None)
def test_the_pool_runs_the_row_strips_of_the_height_it_is_handed(height, strip_rows, workers):
    events, sets = [], []  # appended from the workers too; list.append is atomic

    def new_bufs(rows):
        events.append(("bufs", rows))
        sets.append(object())  # a set of its own per lane
        return sets[-1]

    def task(r0, n, bufs):
        events.append(("task", r0, n, bufs))
        return r0, n

    with on_workers(workers), patch.object(image, "STRIP_ROWS", strip_rows):
        strips = list(image._row_strips(height))
        assert list(image._strip_map(task, height, new_bufs, height)) == strips  # in order
    lanes = 1 if len(strips) == 1 else workers
    # one set per lane, for the tallest strip, before any task runs
    assert events[:lanes] == [("bufs", max(n for _, n in strips))] * lanes
    tasks = events[lanes:]
    assert sorted(event[1:3] for event in tasks) == strips  # each strip once
    for _, r0, n, bufs in tasks:  # strip i writes into lane i % lanes's set
        assert bufs is sets[strips.index((r0, n)) % lanes]


def outputs(a: RawImage, b: RawImage, workers: int, strip_rows: int, tile: int) -> tuple:
    """ssim, metric_report, and the PPM bytes of `bayerkit demosaic` and of write_ppm of
    demosaic_bilinear, on ``workers`` lanes, with STRIP_ROWS and SSIM's tile width patched."""
    mnk = metrics._BLOCK * (metrics._BLOCK + 10) * (tile + 10)  # tiles of ``tile`` window columns
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        save_raw(a, None, d / "a.pgm")
        with (on_workers(workers), patch.object(image, "STRIP_ROWS", strip_rows),
              patch.object(metrics, "_BLAS_SERIAL_MNK", mnk)):
            s, report = ssim(a, b), metric_report(a, b)
            assert main(["demosaic", str(d / "a.pgm"), "-o", str(d / "cli.ppm")]) == 0
            write_ppm(demosaic_bilinear(a), d / "lib.ppm")
        return s, report, (d / "cli.ppm").read_bytes(), (d / "lib.ppm").read_bytes()


@given(st.integers(6, 40).map(lambda n: 2 * n), st.integers(6, 40).map(lambda n: 2 * n),
       st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
@example(12, 12, 64, 620, 0)  # one task each: 2 window rows, 6 plane rows, one tile
@example(30, 12, 8, 620, 1)  # 20 window rows in strips of 8, 8, 4; 15 plane rows in 8 and 7
@example(20, 46, 64, 16, 2)  # 36 window columns in tiles of 16, 16 and a last one of 4
@example(42, 34, 5, 7, 3)  # partial last strips and a partial last tile together
@settings(max_examples=40, deadline=None)
def test_results_do_not_depend_on_the_worker_count(height, width, strip_rows, tile, seed):
    rng = np.random.default_rng(seed)
    black = int(rng.integers(0, 1000))
    white = int(rng.integers(black + 1, 65536))
    clean = rng.integers(black, white + 1, size=(height, width))
    noisy = np.clip(clean + rng.integers(-500, 501, size=clean.shape), black, white)
    a, b = (RawImage(v, BayerPattern.GRBG, black, white) for v in (noisy, clean))
    one, two = (outputs(a, b, workers, strip_rows, tile) for workers in (1, 2))
    assert one == two  # the same floats, the same report and the same bytes
    assert one[2] == one[3]  # the CLI's streamed PPM is the library's


def test_more_workers_than_cores_switching_often_give_the_same_results(rng):
    # six lanes, a switch interval of 1 us: the demosaic's tasks write disjoint rows of one
    # frame, and SSIM's sums must arrive in tile order however the threads interleave
    a, b = (rand_raw(rng, 300, 1400, BayerPattern.BGGR) for _ in range(2))

    def results():  # 16-row strips: 19 SSIM strips of 3 tiles, 10 demosaic strips
        with patch.object(image, "STRIP_ROWS", 16):
            return ssim(a, b), metric_report(a, b), demosaic_bilinear(a).planes

    with on_workers(1):
        want = results()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with on_workers(6, cpus=6):
            for _ in range(3):
                got = results()
                assert got[:2] == want[:2] and np.array_equal(got[2], want[2])
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_callers_get_the_one_lane_results(rng):
    # four user threads share the lanes' workers; each 1024x1536 call is on the pool
    a, b = (rand_raw(rng, 1024, 1536, BayerPattern.GRBG) for _ in range(2))

    def results():
        return ssim(a, b), mse(a, b), demosaic_bilinear(a).planes

    with on_workers(1):
        want = results()

    matched = []  # list.append is atomic

    def rounds():
        for _ in range(5):
            got = results()
            matched.append(got[:2] == want[:2] and np.array_equal(got[2], want[2]))

    with on_workers(2):
        callers = [threading.Thread(target=rounds, daemon=True) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(120)
        assert not any(caller.is_alive() for caller in callers)
    assert matched == [True] * 20


def test_a_call_made_in_a_strip_task_runs_inline():
    # each SSIM strip task makes a pooled mse call of its own. Queued on the lanes' workers,
    # which run the SSIM tasks, it would never run, so the child runs under a timeout
    code = """
from unittest.mock import patch
import numpy as np
from bayerkit import BayerPattern, RawImage, image, metrics, mse, ssim

rng = np.random.default_rng(0)
a, b = (RawImage(rng.integers(0, 65536, (60, 40)), BayerPattern.RGGB) for _ in range(2))
real, nested = metrics._ssim_tile, []

def tile(*args):
    nested.append(mse(a, b))
    return real(*args)

with patch.object(image, "STRIP_ROWS", 8):  # 50 window rows: seven SSIM strips of one tile
    want = ssim(a, b), mse(a, b)  # inline: the frame is under POOL_MIN_SAMPLES
    with (patch.object(image, "POOL_MIN_SAMPLES", 0), patch.object(image, "_cpus", lambda: {0, 1}),
          patch.object(metrics, "_ssim_tile", tile)):
        got = ssim(a, b)
assert got == want[0] and nested == [want[1]] * 7, (got, want, nested)
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=30)
    assert run.returncode == 0, run.stderr


def test_the_cli_error_contract_holds_on_the_pool():
    # 2-row strips and no size gate put the fuzzer's small frames on two lanes
    pooled, workers = [], image._workers

    def counted(lanes):
        pooled.append(lanes)
        return workers(lanes)

    with (on_workers(2), patch.object(image, "STRIP_ROWS", 2),
          patch.object(image, "_workers", counted)):
        cli_contract()
    assert pooled  # the fuzzer's demosaic and metrics calls reached the pool


FAULTS = {  # the per-strip function of each command, failing in a strip task after the first
    "demosaic": (simulate, "_demosaic_strip", lambda img, fill, r0, *rest: r0 > 0),
    "metrics": (metrics, "_ssim_tile", lambda a, b, tile, bufs: tile[0] > 0),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", sorted(FAULTS))
def test_a_fault_in_a_strip_task_keeps_the_cli_error_contract(tmp_path, rng, capsys, command,
                                                             workers):
    # 260 rows: three demosaic strips, and four SSIM strips of one tile each
    img, ref = (rand_raw(rng, 260, 200, BayerPattern.GBRG) for _ in range(2))
    save_raw(img, None, tmp_path / "in.pgm")
    save_raw(ref, None, tmp_path / "ref.pgm")
    argv = {"demosaic": ["demosaic", str(tmp_path / "in.pgm"), "-o", str(tmp_path / "out.ppm")],
            "metrics": ["metrics", "--ref", str(tmp_path / "ref.pgm"), str(tmp_path / "in.pgm")]}
    module, name, fails = FAULTS[command]
    real = getattr(module, name)

    def faulty(*args):
        if fails(*args):
            raise MemoryError
        return real(*args)

    with on_workers(workers):
        with patch.object(module, name, faulty):
            assert main(argv[command]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "bayerkit: error: MemoryError\n"  # one line, no traceback
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "in.pgm", "ref.json",
                                                              "ref.pgm"]  # no temp file
        assert main(argv[command]) == 0  # the pool is not poisoned
    if command == "demosaic":
        write_ppm(demosaic_bilinear(img), tmp_path / "want.ppm")
        assert (tmp_path / "out.ppm").read_bytes() == (tmp_path / "want.ppm").read_bytes()
    else:
        assert capsys.readouterr().out == metric_report(img, ref).to_json() + "\n"


def _send_ssim(conn, a, b):
    conn.send(ssim(a, b))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_forked_child_runs_the_pool_of_its_own(rng):
    a, b = (rand_raw(rng, 200, 700, BayerPattern.RGGB) for _ in range(2))  # 3 strips, 2 tiles
    ctx = multiprocessing.get_context("fork")
    with on_workers(2):
        want = ssim(a, b)  # the parent's workers are running when it forks
        assert any(t.name.startswith("bayerkit-strip") for t in threading.enumerate())
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_ssim, args=(send, a, b))
        child.start()
        child.join(60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child's ssim did not finish")
    assert child.exitcode == 0
    assert receive.recv() == want


def test_importing_and_inline_calls_start_no_thread():
    # the training path (unify_crop, sample_plan, apply_plan, pack), the denoise command and a
    # call on a frame under POOL_MIN_SAMPLES run nothing on the pool, so they start no thread
    # and import no queue; the first call on a frame of POOL_MIN_SAMPLES, in a process of two
    # CPUs, starts both workers
    code = """
import sys, tempfile, threading
import numpy as np
import bayerkit
from bayerkit import (BayerPattern, RawImage, apply_plan, image, pack, sample_plan, save_raw,
                      ssim, unify_crop)
from bayerkit.cli import main

def idle():
    return threading.active_count() == 1 and "queue" not in sys.modules

assert idle()
rng = np.random.default_rng(0)
img = RawImage(rng.integers(0, 65536, (300, 400)), BayerPattern.GBRG)
crop = unify_crop(img, BayerPattern.RGGB)
for seed in range(4):
    pack(apply_plan(crop, sample_plan(seed, 64, crop.height, crop.width, crop.pattern)))
with tempfile.TemporaryDirectory() as d:
    save_raw(img, None, d + "/in.pgm")
    assert main(["denoise", "--filter", "gaussian:1.0", "--work-pattern", "BGGR",
                 d + "/in.pgm", "-o", d + "/out.pgm"]) == 0
image._cpus = lambda: {0, 1}
ssim(img, img)  # 300x400 is under POOL_MIN_SAMPLES: inline
assert idle()
big = RawImage(rng.integers(0, 65536, (1024, 1024)), BayerPattern.GBRG)
assert big.samples.size == image.POOL_MIN_SAMPLES
ssim(big, big)
assert threading.active_count() == 1 + image.POOL_WORKERS
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert run.returncode == 0, run.stderr
