"""Golden outputs of demos 01-05.

Each demo runs in its own process with one BLAS thread, and its standard
output must equal the text recorded in tests/data/demo_0N.txt byte for byte.
A change that moves any number a demo prints fails here; if the move is
intended, record the new output and say why in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = {n: next((ROOT / "demos").glob(f"{n}_*.py")) for n in ("01", "02", "03", "04", "05")}


@pytest.mark.parametrize("n", DEMOS)
def test_demo_prints_its_recorded_output(n):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, str(DEMOS[n])], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "tests" / "data" / f"demo_{n}.txt").read_text()
