"""Self-test of the benchmark's output checks; it runs no workload.

Every check in checks.py is fed a good output, which it must accept, and one
or more deliberately broken outputs, which it must reject. Run from the root
of a checkout:

    python3 benchmark/selftest.py

Exit code 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys
import warnings
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / ".out" / "selftest"


def nudged(x: float) -> float:
    """The next float above x: a change of one unit in the last place."""
    return float(np.nextafter(x, np.inf))


def orthogonal_cases():
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(8, 8)))
    scaled = q.copy()
    scaled[:, 3] *= 1.01
    yield "orthogonal map", checks.check_orthogonal(q), True
    yield "one column scaled by 1.01", checks.check_orthogonal(scaled), False


def tol_stop_cases():
    ta, tb = [0.5, 0.1, 0.09, 0.085], [0.4, 0.08, 0.07, 0.066]
    settled_b = tb[:-1] + [ta[-2] + tb[-2] - ta[-1] - 2e-6]
    yield "settled inside the budget", checks.check_tol_stop(ta, settled_b, 1e-5, 100), True
    yield "last step moved 1e-3", checks.check_tol_stop(ta, tb[:-1] + [tb[-2] - 1e-3], 1e-5, 100), False
    yield "ran past the budget", checks.check_tol_stop(ta, settled_b, 1e-5, 2), False


def beats_constant_cases():
    rng = np.random.default_rng(1)
    ratings = rng.uniform(0, 1, 200)
    domains = np.repeat([0, 1], 100)
    good = ratings + rng.normal(scale=0.05, size=200)
    mean_a = np.where(domains == 0, ratings[domains == 0].mean(), good)
    yield "predictions near the ratings", checks.check_beats_constant(good, ratings, domains), True
    yield "domain a predicts its mean", checks.check_beats_constant(mean_a, ratings, domains), False


def prediction_cases():
    """A small untrained dual model scored by dualrec and by the reference scorer."""
    sys.path.insert(0, str(SRC))
    from dualrec import autoencoder, dualmodel, features

    schema = features.FeatureSchema(
        (
            features.FieldSpec("group", "one_hot", values=("g1", "g2", "g3")),
            features.FieldSpec("city", "one_hot", buckets=5),
            features.FieldSpec("tags", "multi_hot", values=("t0", "t1", "t2")),
            features.FieldSpec("words", "multi_hot", buckets=4),
            features.FieldSpec("score", "numeric", lo=0.0, hi=100.0),
            features.FieldSpec("day", "date", lo=10.0, hi=20.0),
        )
    )
    width = schema.encoded_length
    aes = []
    for k, (domain, entity) in enumerate((("a", "user"), ("a", "item"), ("b", "user"), ("b", "item"))):
        ae = autoencoder.new_autoencoder(width, 3, seed=k, domain=domain, entity=entity)
        ae.trained = True
        aes.append(ae)
    dm = dualmodel.new_dual_model(*aes, alpha=0.2, seed=3, hidden=(4,), schemas_a=(schema, schema), schemas_b=(schema, schema))
    raws = [
        {"group": "g2", "city": "paris", "tags": ["t0", "t2"], "words": "x", "score": 42.0, "day": 12.5},
        {"group": "other", "city": "rome", "tags": "t9", "score": 140.0, "day": 10.0},  # unknown values, clamped score
        {"city": "oslo", "words": ["y", "z"], "score": "7.5", "day": 20.0},  # missing one-hot and multi-hot fields
    ]
    calls = [(d, raws[u], raws[i], bool(ov)) for d in (0, 1) for u in range(3) for i in range(3) for ov in (0, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        preds = [dualmodel.predict(dm, d, u, i, ov) for d, u, i, ov in calls]
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "model.npz"
    dualmodel.save_dual_model(dm, path)
    with np.load(path, allow_pickle=False) as data:
        bundle = {k: data[k] for k in data.files}
    off = list(preds)
    off[5] += 1e-6
    yield "dualrec predictions", checks.check_predictions(bundle, calls, preds), True
    yield "one prediction off by 1e-6", checks.check_predictions(bundle, calls, off), False


def round_trip_cases():
    arrays = {"w": np.random.default_rng(2).normal(size=(4, 3)), "alpha": np.array(0.03)}
    same = copy.deepcopy(arrays)
    bit = copy.deepcopy(arrays)
    bit["w"][1, 2] = nudged(bit["w"][1, 2])
    narrowed = dict(arrays, w=arrays["w"].astype(np.float32))
    yield "identical arrays", checks.check_round_trip(arrays, same), True
    yield "one entry off by one ulp", checks.check_round_trip(arrays, bit), False
    yield "float64 saved as float32", checks.check_round_trip(arrays, narrowed), False
    yield "an array lost", checks.check_round_trip(arrays, {"w": arrays["w"]}), False


def sweep_rows():
    return [
        {"alpha": a, "domain": d, "rmse": 0.2 + a, "mae": 0.16 + a, "precision_at_5": 0.52, "recall_at_5": 0.996}
        for a in (0.0, 0.03)
        for d in ("a", "b")
    ]


def sweep_cases():
    rows = sweep_rows()
    summary = {
        "alphas": [0.0, 0.03],
        "points": {
            repr(a): {"domains": {r["domain"]: {k: v for k, v in r.items() if k not in ("alpha", "domain")} for r in rows if r["alpha"] == a}}
            for a in (0.0, 0.03)
        },
    }
    std = {"a": 0.25, "b": 0.25}
    yield "one row per (alpha, domain)", checks.check_sweep_rows(rows, [0.0, 0.03]), True
    yield "a row repeated", checks.check_sweep_rows(rows + rows[:1], [0.0, 0.03]), False
    yield "a row missing", checks.check_sweep_rows(rows[1:], [0.0, 0.03]), False
    swapped = copy.deepcopy(rows)
    swapped[2]["mae"], swapped[2]["rmse"] = swapped[2]["rmse"], swapped[2]["mae"]
    yield "0 < MAE <= RMSE", checks.check_error_order(rows), True
    yield "a row with MAE > RMSE", checks.check_error_order(swapped), False
    yield "RMSE below the rating std", checks.check_beats_std(rows, std), True
    yield "RMSE above the rating std", checks.check_beats_std(rows, {"a": 0.25, "b": 0.2}), False
    wide = copy.deepcopy(rows)
    wide[1]["precision_at_5"] = 1.2
    yield "precision and recall in [0, 1]", checks.check_rank_bounds(rows), True
    yield "precision 1.2", checks.check_rank_bounds(wide), False
    edited = copy.deepcopy(summary)
    edited["points"]["0.03"]["domains"]["b"]["rmse"] = nudged(rows[3]["rmse"])
    yield "summary.json matches sweep.csv", checks.check_summary_agrees(rows, summary), True
    yield "summary.json off by one ulp", checks.check_summary_agrees(rows, edited), False
    yield "summary.json without an alpha", checks.check_summary_agrees(rows, dict(summary, alphas=[0.0])), False


def nmf_cases():
    trace = 1.0 + 1.0 / np.arange(1.0, 20_001.0) ** 2
    summary = {
        "final_traced_loss": float(trace[-1]),
        "final_direct_loss": 1.5,
        "final_reduced_part": 1.0,
        "final_cross_part": 0.5,
        "conditions_after": {"a": True, "b": True, "c": True},
    }
    rising = trace.copy()
    rising[500] = rising[499] + 1e-9
    yield "non-increasing trace", checks.check_monotone(trace), True
    yield "a trace with one rising step", checks.check_monotone(rising), False
    yield "settled before the budget", checks.check_settled(trace, 200_000), True
    yield "stopped at the budget", checks.check_settled(trace, len(trace) - 1), False
    yield "stopped with |delta| 1e-7", checks.check_settled(np.append(trace, trace[-1] - 1e-7), 200_000), False
    yield "final_traced_loss is the last entry", checks.check_traced_final(trace, summary), True
    yield "final_traced_loss one ulp off", checks.check_traced_final(trace, dict(summary, final_traced_loss=nudged(trace[-1]))), False
    yield "direct = reduced + cross", checks.check_decomposition(summary), True
    yield "direct off by 1e-8 relative", checks.check_decomposition(dict(summary, final_direct_loss=1.5 * (1 + 1e-8))), False
    yield "conditions all true", checks.check_conditions_after(summary), True
    yield "condition b false", checks.check_conditions_after(dict(summary, conditions_after={"a": True, "b": False, "c": True})), False


def main() -> int:
    bad = 0
    for cases in (orthogonal_cases, tol_stop_cases, beats_constant_cases, prediction_cases, round_trip_cases, sweep_cases, nmf_cases):
        for label, problems, should_pass in cases():
            ok = (not problems) == should_pass
            bad += not ok
            verdict = "accepted" if not problems else "rejected"
            print(f"{'ok  ' if ok else 'FAIL'} {verdict}: {label}" + ("" if not problems else f" ({problems[0]})"))
    print(f"{bad} check(s) misbehaved" if bad else "every check accepts good output and rejects broken output")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
