"""Each demo runs to the end as a script, and the exact demos print the
text recorded under ``tests/demo_stdout``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXACT_DEMOS = ["01_loop_factorization", "02_futaki_invariants"]  # exact values only, so byte-identical


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", EXACT_DEMOS)
def test_exact_demo_prints_its_recorded_text(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")], capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "demo_stdout" / f"{demo}.txt").read_text()
