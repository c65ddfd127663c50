"""The strip pool (image._strip_map): the strips it makes from a frame's height and the buffer
sets it asks for, the same results on one worker or two and for concurrent callers, one pool
for racing first callers, the CLI's error contract when a strip task fails and under fuzzing, a
call made inside a strip task, an interrupt while the caller waits on a task, a pool of its own
in a forked child, and no thread or import where no call needs one.

A call runs on min(CPUs of the process, POOL_WORKERS) lanes, and inline on a frame under
POOL_MIN_SAMPLES. The tests pin all three: the constants by patching them, the CPUs by patching
image._cpus, so the two-lane path runs on small frames on any host. On a host of one CPU the
patched CPU set names a CPU the process may not use, so a worker's placement is refused and it
stays where it is."""

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayerkit import BayerPattern, DenoiserSpec, RawImage, demosaic_bilinear, denoise, image
from bayerkit import denoise_packed, denoise_pipeline, metric_report, metrics, mse, pack
from bayerkit import save_raw, simulate, ssim, write_ppm
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


@given(st.integers(1, 200), st.integers(1, 8), st.sampled_from([1, 2, 3]))
@example(1, 8, 2)  # one strip: inline, whatever the lanes
@example(17, 4, 2)  # four 4-row strips and a 1-row one
@example(2, 1, 3)  # two strips on three lanes: fewer tasks than lanes
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

    with on_workers(workers, cpus=workers), patch.object(image, "STRIP_ROWS", strip_rows):
        strips = list(image._row_strips(height))
        assert list(image._strip_map(task, height, new_bufs, height)) == strips  # in order
    lanes = 1 if len(strips) == 1 else workers
    # one set per lane, for the tallest strip, before any task runs
    assert events[:lanes] == [("bufs", max(n for _, n in strips))] * lanes
    tasks = events[lanes:]
    assert sorted(event[1:3] for event in tasks) == strips  # each strip once
    for _, r0, n, bufs in tasks:  # strip i writes into lane i % lanes's set
        assert bufs is sets[strips.index((r0, n)) % lanes]


FILTERS = [DenoiserSpec.parse(text) for text in ("gaussian:1.0", "median:1", "median:2")]


def outputs(a: RawImage, b: RawImage, workers: int, strip_rows: int, tile: int) -> tuple:
    """ssim, metric_report, the PPM bytes of `bayerkit demosaic` and of write_ppm of
    demosaic_bilinear, and the bytes of each filter through denoise_pipeline, to a working
    pattern that gives each site plane a halo, and through denoise_packed, on ``workers``
    lanes, with STRIP_ROWS and SSIM's tile width patched; and how many filter calls reached
    the pool."""
    mnk = metrics._BLOCK * (metrics._BLOCK + 10) * (tile + 10)  # tiles of ``tile`` window columns
    pooled, real = [], image._workers

    def counted(lanes):
        pooled.append(lanes)
        return real(lanes)

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        save_raw(a, None, d / "a.pgm")
        with (on_workers(workers), patch.object(image, "STRIP_ROWS", strip_rows),
              patch.object(metrics, "_BLAS_SERIAL_MNK", mnk)):
            s, report = ssim(a, b), metric_report(a, b)
            assert main(["demosaic", str(d / "a.pgm"), "-o", str(d / "cli.ppm")]) == 0
            write_ppm(demosaic_bilinear(a), d / "lib.ppm")
            with patch.object(image, "_workers", counted):
                filtered = tuple(out.tobytes() for spec in FILTERS for out in (
                    denoise_pipeline(a, BayerPattern.GBRG, spec).samples,  # GRBG: shift (1, 1)
                    denoise_packed(pack(a), spec).planes))
        return (s, report, (d / "cli.ppm").read_bytes(), (d / "lib.ppm").read_bytes(),
                filtered), len(pooled)


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
    (one, inline), (two, pooled) = (outputs(a, b, workers, strip_rows, tile)
                                    for workers in (1, 2))
    assert one == two  # the same floats, the same report and the same bytes
    assert one[2] == one[3]  # the CLI's streamed PPM is the library's
    # on two lanes every filter call of more than one strip is on the pool: each filter's one
    # call on the mosaic's rows, in strips of STRIP_ROWS // 2, and its four on packed planes
    mosaic_strips = len(range(0, height, max(1, strip_rows // 2)))
    plane_strips = len(range(0, height // 2, strip_rows))
    assert inline == 0 and pooled == len(FILTERS) * ((mosaic_strips > 1) + 4 * (plane_strips > 1))


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


def test_racing_first_callers_share_one_pool():
    # eight threads make their first pooled call at once, and each executor takes 0.2 s to
    # make, so every caller finds no pool. They must still share one: two workers, kept
    # alive by the wrapper's references, and the one-lane results. The child runs under a
    # timeout, so a caller left waiting cannot hold the session
    code = """
import threading, time
from concurrent.futures import ThreadPoolExecutor
from unittest.mock import patch
import numpy as np
from bayerkit import BayerPattern, RawImage, image, mse, ssim

rng = np.random.default_rng(0)
a, b = (RawImage(rng.integers(0, 65536, (200, 100)), BayerPattern.RGGB) for _ in range(2))
want = ssim(a, b), mse(a, b)  # inline: the frame is under POOL_MIN_SAMPLES
real, made = ThreadPoolExecutor.__init__, []

def slow(self, *args, **kwargs):
    time.sleep(0.2)
    real(self, *args, **kwargs)
    made.append(self)  # so no worker exits before the count below

barrier, got = threading.Barrier(8), []  # list.append is atomic

def caller():
    barrier.wait()
    got.append((ssim(a, b), mse(a, b)))

with (patch.object(image, "POOL_MIN_SAMPLES", 0), patch.object(image, "_cpus", lambda: {0, 1}),
      patch.object(ThreadPoolExecutor, "__init__", slow)):
    callers = [threading.Thread(target=caller) for _ in range(8)]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join(30)
assert not any(thread.is_alive() for thread in callers)
workers = [t.name for t in threading.enumerate() if t.name.startswith("bayerkit-strip-")]
assert len(workers) == image.POOL_WORKERS == 2, (len(made), workers)
assert got == [want] * 8, (got, want)
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert run.returncode == 0, run.stderr


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


def run_interrupted(code: str, *args: str) -> None:
    """Run ``code`` in a child, whose strip task sends SIGINT to the child's main thread. A
    stray interrupt, or a call that does not return, must not reach the test session, so the
    child runs under a timeout."""
    child = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert child.returncode == 0, child.stderr


INTERRUPTING = """
import contextlib, signal, sys, threading, time
from unittest.mock import patch
from bayerkit import image

signal.signal(signal.SIGINT, signal.default_int_handler)  # even where SIGINT was ignored
started, finished = [], []  # list.append is atomic

def interrupting(r0):  # the task sends SIGINT while the main thread waits on it, then runs on
    started.append(r0)
    time.sleep(0.1)
    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
    time.sleep(0.5)
    finished.append(r0)

@contextlib.contextmanager
def pooled():  # every call of more than one task on two lanes
    with patch.object(image, "POOL_MIN_SAMPLES", 0), patch.object(image, "_cpus", lambda: {0, 1}):
        yield
"""


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no signal.pthread_kill")
def test_an_interrupt_lets_the_started_tasks_finish():
    # 40 rows in 4-row strips on two lanes: the main thread waits on the first task, which
    # interrupts it, while the second has run. The call must not return before the first task
    # ends, and the next call gets every strip
    run_interrupted(INTERRUPTING + """
def task(r0, n, bufs):
    if r0 == 0:
        interrupting(r0)
    else:
        started.append(r0)
        finished.append(r0)
    return r0

with pooled(), patch.object(image, "STRIP_ROWS", 4):
    try:
        for _ in image._strip_map(task, 40, lambda rows: None, 40):
            pass
    except KeyboardInterrupt:
        counts = len(started), len(finished)
    else:
        sys.exit("the interrupt did not surface")
    assert counts == (2, 2), counts
    got = list(image._strip_map(lambda r0, n, bufs: (r0, n), 40, lambda rows: None, 40))
    assert got == [(r0, 4) for r0 in range(0, 40, 4)], got
""")


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no signal.pthread_kill")
def test_an_interrupted_demosaic_command_leaves_no_temp_file(tmp_path, rng):
    # 260 rows: three demosaic strips on two lanes. The second strip's task interrupts the main
    # thread while it waits on that task, between writes of the PPM's temp file
    img = rand_raw(rng, 260, 200, BayerPattern.RGGB)
    save_raw(img, None, tmp_path / "in.pgm")
    write_ppm(demosaic_bilinear(img), tmp_path / "want.ppm")
    run_interrupted(INTERRUPTING + """
from pathlib import Path
from bayerkit import simulate
from bayerkit.cli import main

d = Path(sys.argv[1])
argv = ["demosaic", str(d / "in.pgm"), "-o", str(d / "out.ppm")]
real = simulate._demosaic_strip

def strip(img, fill, r0, *rest):
    if r0 == image.STRIP_ROWS:  # the second strip of plane rows
        interrupting(r0)
    return real(img, fill, r0, *rest)

with pooled():
    with patch.object(simulate, "_demosaic_strip", strip):
        try:
            main(argv)
        except KeyboardInterrupt:
            pass
        else:
            sys.exit("the interrupt did not surface")
    assert started == finished == [image.STRIP_ROWS], (started, finished)  # it finished
    assert sorted(p.name for p in d.iterdir()) == ["in.json", "in.pgm", "want.ppm"]  # no temp
    assert main(argv) == 0  # the pool is not poisoned
assert (d / "out.ppm").read_bytes() == (d / "want.ppm").read_bytes()
""", str(tmp_path))


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


def failing(real, fails):
    """``real``, raising MemoryError on each call whose arguments ``fails`` accepts."""
    def faulty(*args):
        if fails(*args):
            raise MemoryError
        return real(*args)
    return faulty


def failing_fill(real):
    """denoise's _halo_fill, whose fill raises MemoryError in each strip task after the first:
    the fill is the first step of a filter's strip task."""
    def halo_fill(*args, **kwargs):
        fill, new_buf = real(*args, **kwargs)
        return failing(fill, lambda r0, n, buf: r0 > 0), new_buf
    return halo_fill


FAULTS = {  # the per-strip function of each command, failing in a strip task after the first
    "demosaic": (simulate, "_demosaic_strip",
                 lambda real: failing(real, lambda img, fill, r0, *rest: r0 > 0)),
    "metrics": (metrics, "_ssim_tile",
                lambda real: failing(real, lambda a, b, tile, bufs: tile[0] > 0)),
    "denoise": (denoise, "_halo_fill", failing_fill),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", sorted(FAULTS))
def test_a_fault_in_a_strip_task_keeps_the_cli_error_contract(tmp_path, rng, capsys, command,
                                                             workers):
    # 260 rows: three demosaic strips, four SSIM strips of one tile each, and nine 32-row
    # strips of the mosaic for the filter
    img, ref = (rand_raw(rng, 260, 200, BayerPattern.GBRG) for _ in range(2))
    save_raw(img, None, tmp_path / "in.pgm")
    save_raw(ref, None, tmp_path / "ref.pgm")
    argv = {"demosaic": ["demosaic", str(tmp_path / "in.pgm"), "-o", str(tmp_path / "out.ppm")],
            "metrics": ["metrics", "--ref", str(tmp_path / "ref.pgm"), str(tmp_path / "in.pgm")],
            "denoise": ["denoise", "--filter", "median:2", "--work-pattern", "RGGB",
                        str(tmp_path / "in.pgm"), "-o", str(tmp_path / "out.pgm")]}
    module, name, faulty = FAULTS[command]

    with on_workers(workers):
        with patch.object(module, name, faulty(getattr(module, name))):
            assert main(argv[command]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "bayerkit: error: MemoryError\n"  # one line, no traceback
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "in.pgm", "ref.json",
                                                              "ref.pgm"]  # no temp file
        assert main(argv[command]) == 0  # the pool is not poisoned
    if command == "demosaic":
        write_ppm(demosaic_bilinear(img), tmp_path / "want.ppm")
        assert (tmp_path / "out.ppm").read_bytes() == (tmp_path / "want.ppm").read_bytes()
    elif command == "denoise":
        save_raw(denoise_pipeline(img, BayerPattern.RGGB, DenoiserSpec("median", 2)), None,
                 tmp_path / "want.pgm")
        assert (tmp_path / "out.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()
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
