"""The benchmark's contract with the package, checked in the test suite.

benchmark/ drives dualrec from outside: its selftest builds a model through
the package, and its tracer wraps package functions by name. A renamed
function would otherwise show only as a warning in a traced run. These
tests read benchmark/ and change nothing in it.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"

# Span targets whose functions are gone from the package; ROADMAP item 1 drops
# them from benchmark/spans.py, and until then a traced run warns for each.
GONE = {"dualmodel.train_domain_autoencoders", "dualmodel.train_epoch", "dualmodel.model_backward", "numeric.sgd_step"}


def test_the_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_every_span_target_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("benchmark_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {f"{layer}.{name}" for layer, names in spans.TARGETS.items() for name in names
               if not callable(getattr(importlib.import_module(f"dualrec.{layer}"), name, None))}
    assert missing <= GONE, sorted(missing - GONE)
