"""Smoke tests: each experiment script runs end to end on a tiny sweep."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--seeds", "1", "--size", "32x32"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_baseline_demo_script():
    out = run_script("baseline_demo.py")
    assert out.startswith("1 scenes at 32x32")
    assert "\nnaive/correct ratio: unify " in out


def test_denoise_sweep_script():
    out = run_script("denoise_sweep.py")
    assert out.startswith("1 scenes at 32x32, working pattern BGGR")
    assert "\ngaussian work-pattern max sample deltas vs RGGB: [0, 0, 0]\n" in out


def test_count_lines_script(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Module docstring,\nover two lines."""\n\n# a comment\n'
        'def f():\n    """Docstring."""\n    return """a\nb"""  # trailing comment\n'
    )
    (tmp_path / "b.py").write_text("x = 1\n")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "count_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [["module", "code", "wc", "-l"], ["a.py", "3", "8"], ["b.py", "1", "1"],
                    ["total", "4", "9"]]
