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

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"

# Span targets whose functions are gone from the package; ROADMAP item 1 drops
# them from benchmark/spans.py, and until then a traced run warns for each.
GONE = {"dualmodel.train_domain_autoencoders", "dualmodel.train_epoch", "dualmodel.model_backward", "numeric.sgd_step"}


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_the_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_every_span_target_resolves_in_the_package():
    spans = load_spans()
    missing = {f"{layer}.{name}" for layer, names in spans.TARGETS.items() for name in names
               if not callable(getattr(importlib.import_module(f"dualrec.{layer}"), name, None))}
    assert missing <= GONE, sorted(missing - GONE)


def scheduled_steps(counts, batch_size, epochs):
    """Steps of a stack whose model m trains on counts[m] = (rows of a, rows of b): one
    per batch start where every model brings the same sizes, else one per model with rows."""
    counts = np.array(counts)
    steps = 0
    for start in range(0, counts.max(), batch_size):
        sizes = np.clip(counts - start, 0, batch_size)
        steps += 1 if (sizes == sizes[0]).all() else int(sizes.any(axis=1).sum())
    return steps * epochs


def test_a_traced_fit_records_one_step_span_per_scheduled_step():
    from dualrec import dualmodel
    from dualrec.features import synth_pair

    ds_a, ds_b, _ = synth_pair(n_users=30, n_items_per_domain=10, latent_dim=4, density=0.4, seed=5)
    cfg = dualmodel.TrainConfig(embed_dim=4, hidden=(8, 4), epochs=3, tol=0.0, batch_size=8, ae_epochs=5)
    encoders, _, table = dualmodel.encode_pair(ds_a, ds_b, cfg, seed=0)
    n_a, n_b = np.diff(table.bounds)
    # the second model drops rows of domain a, so the stack's last steps run model by model
    rows = ([np.arange(n_a), np.arange(n_a - 5)], [np.arange(n_b)] * 2)
    models = [dualmodel.new_dual_model(list(encoders), alpha=0.03, seed=seed, hidden=cfg.hidden) for seed in (0, 1, 2)]
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        dualmodel.fit(models[0], table, cfg, seed=0)
        dualmodel.fit_models(models[1:], table, cfg, [1, 2], rows=rows)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1.0, 1.0)
    lone = scheduled_steps([(n_a, n_b)], cfg.batch_size, cfg.epochs)
    stacked = scheduled_steps([(n_a, n_b), (n_a - 5, n_b)], cfg.batch_size, cfg.epochs)
    assert stacked > lone  # the ragged steps ran model by model
    assert metrics["dualmodel.step.calls"]["value"] == lone + stacked
    assert metrics["dualmodel.epochs"]["value"] == cfg.epochs
