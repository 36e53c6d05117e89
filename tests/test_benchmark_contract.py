"""The benchmark's contract with the package, checked in the test suite.

benchmark/ drives dualrec from outside: its selftest builds a model through
the package, and its tracer wraps package functions by name. A renamed
function would otherwise show only as a warning in a traced run. These
tests read benchmark/ and change nothing in it.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"

# Span targets whose functions are gone from the package; ROADMAP item 1 drops
# them from benchmark/spans.py, and until then a traced run warns for each.
GONE = {"dualmodel.train_domain_autoencoders", "dualmodel.train_epoch", "dualmodel.model_backward",
        "dualmodel.model_forward", "numeric.sgd_step", "numeric.layer_forward", "numeric.layer_backward"}


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
    assert missing == GONE, (sorted(missing - GONE), sorted(GONE - missing))


def test_no_module_binds_a_span_target_under_a_second_name():
    # the tracer wraps every module attribute bound to a target's function object and times it
    # as the target: an alias (say evaluate.write_trace_csv = features.write_csv) would put the
    # aliased function's calls under the target's span
    spans = load_spans()
    targets = {}  # id of a target's function -> (span, function name)
    for layer, names in spans.TARGETS.items():
        home = importlib.import_module(f"dualrec.{layer}")
        for name in names:
            if callable(fn := getattr(home, name, None)):
                targets[id(fn)] = (f"{layer}.{name}", name)
    modules = {key: mod for key, mod in sys.modules.items() if key == "dualrec" or key.startswith("dualrec.")}
    aliases = [f"{key}.{attr} is {targets[id(value)][0]}" for key, mod in sorted(modules.items())
               for attr, value in vars(mod).items() if id(value) in targets and targets[id(value)][1] != attr]
    assert aliases == []


# The tracer's hooks read these arguments by position (and name): the step hook the stack
# (its alpha) and both batches (their overlap). Its forward hook waits on model_forward,
# which is in GONE; no step has called it since the step kernel took over.
HOOKED_PARAMETERS = {"dual_loss_and_grads": ["stack", "batch_a", "batch_b"]}


def test_the_hooked_parameters_keep_their_positions_and_names():
    from dualrec import dualmodel

    spans = load_spans()
    hooked = {name.split(".")[1] for name in spans.Tracer()._hooks()} & set(HOOKED_PARAMETERS)
    assert hooked == set(HOOKED_PARAMETERS)
    for name, want in HOOKED_PARAMETERS.items():
        assert list(inspect.signature(getattr(dualmodel, name)).parameters)[: len(want)] == want, name


def scheduled_steps(counts, batch_size, epochs):
    """Steps of a stack whose model m trains on counts[m] = (rows of a, rows of b): per batch
    start, one per run of consecutive models that bring the same sizes, models with no rows left
    dropped."""
    counts = np.array(counts)
    steps = 0
    for start in range(0, counts.max(), batch_size):
        sizes = np.clip(counts - start, 0, batch_size).tolist()
        steps += sum(1 for m, size in enumerate(sizes) if any(size) and (m == 0 or size != sizes[m - 1]))
    return steps * epochs


def test_a_traced_fit_records_one_step_span_per_scheduled_step():
    from dualrec import dualmodel
    from dualrec.features import synth_pair

    ds_a, ds_b, _ = synth_pair(n_users=30, n_items_per_domain=10, latent_dim=4, density=0.4, seed=5)
    cfg = dualmodel.TrainConfig(embed_dim=4, hidden=(8, 4), epochs=3, tol=0.0, batch_size=8, ae_epochs=5)
    encoders, _, table = dualmodel.encode_pair(ds_a, ds_b, cfg, seed=0)
    n_a, n_b = np.diff(table.bounds)
    # the second model drops rows of domain a, so the stack's last steps run one model each
    rows = ([np.arange(n_a), np.arange(n_a - 5)], [np.arange(n_b)] * 2)
    # a third model with the second's rows joins its runs: at the ragged steps, one call
    # for the first model and one for the other two, where one call per model made three
    rows3 = ([np.arange(n_a), np.arange(n_a - 5), np.arange(n_a - 5)], [np.arange(n_b)] * 3)
    models = [dualmodel.new_dual_model(list(encoders), alpha=0.03, seed=seed, hidden=cfg.hidden) for seed in range(6)]
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        dualmodel.fit(models[0], table, cfg, seed=0)
        dualmodel.fit_models(models[1:3], table, cfg, [1, 2], rows=rows)
        dualmodel.fit_models(models[3:], table, cfg, [3, 4, 5], rows=rows3)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1.0, 1.0)
    lone = scheduled_steps([(n_a, n_b)], cfg.batch_size, cfg.epochs)
    stacked = scheduled_steps([(n_a, n_b), (n_a - 5, n_b)], cfg.batch_size, cfg.epochs)
    shared = scheduled_steps([(n_a, n_b), (n_a - 5, n_b), (n_a - 5, n_b)], cfg.batch_size, cfg.epochs)
    assert stacked > lone  # the ragged steps ran one model at a time
    assert shared == stacked
    assert metrics["dualmodel.step.calls"]["value"] == lone + stacked + shared
    assert metrics["dualmodel.epochs"]["value"] == cfg.epochs
