"""The test suite's own configuration in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_mistyped_marker_fails_collection(tmp_path):
    # a slow criterion whose marker is mistyped must not run inside the `-m "not slow"` loop
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_marked.py").write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_x():\n    pass\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-m", "not slow", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode != 0
    assert "'slwo' not found in `markers` configuration option" in run.stdout


def test_a_numpy_runtime_warning_fails_its_test(tmp_path):
    # an overflow, invalid or divide warning marks arithmetic gone non-finite: the test fails, not warns
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_overflow.py").write_text("import numpy as np\n\n\ndef test_x():\n    np.exp(np.array([1000.0]))\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode != 0
    assert "RuntimeWarning: overflow encountered in exp" in run.stdout


def test_fixed_bounds_keep_one_validator():
    # every fixed bound of a parameter or config key goes through numeric.check_bound; these are the forms it replaced
    retired = ("check_integer", "check_at_least", "must be >=", "must be >", "must lie in")
    found = [f"{path.name}:{n}: {line.strip()}" for path in sorted((ROOT / "src" / "dualrec").glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
             if any(form in line for form in retired)]
    assert found == []
