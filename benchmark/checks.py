"""Output checks of the benchmark's workloads.

Each check takes outputs as plain data and returns a list of problems, empty
when the outputs are correct. A check either recomputes what it compares
against (the reference scorer below has its own feature encoder and forward
pass) or tests a property the method must have. None compares against a
stored copy of an earlier output. ``selftest.py`` feeds every check a broken
output and expects it to be rejected.
"""

from __future__ import annotations

import csv
import json
import math
import zlib

import numpy as np

ORTHO_TOL = 1e-6
PREDICT_TOL = 1e-9
MONOTONE_TOL = 1e-10
SETTLE_TOL = 1e-8
DECOMPOSITION_RTOL = 1e-9

# ---------------------------------------------------------------------------
# train-standard


def check_orthogonal(map_x) -> list[str]:
    """The map is orthogonal: ||X^T X - I||_F within ORTHO_TOL."""
    x = np.asarray(map_x, dtype=np.float64)
    defect = float(np.linalg.norm(x.T @ x - np.eye(x.shape[0])))
    return [] if defect <= ORTHO_TOL else [f"map orthogonality defect {defect:.3e} > {ORTHO_TOL}"]


def check_tol_stop(trace_a, trace_b, tol: float, budget: int) -> list[str]:
    """Training ended by its tol rule, inside the epoch budget."""
    total = np.asarray(trace_a, dtype=np.float64) + np.asarray(trace_b, dtype=np.float64)
    epochs = len(total) - 1
    if epochs < 1 or epochs > budget:
        return [f"training ran {epochs} epochs, outside [1, {budget}]"]
    delta = abs(float(total[-1] - total[-2]))
    return [] if delta < tol else [f"training stopped at epoch {epochs} with |delta| {delta:.3e} >= tol {tol}"]


def check_beats_constant(preds, ratings, domains) -> list[str]:
    """Each domain's full-pass MSE is below the variance of its ratings."""
    p, r, d = (np.asarray(v) for v in (preds, ratings, domains))
    problems = []
    for dom in np.unique(d):
        mask = d == dom
        mse = float(np.mean((p[mask] - r[mask]) ** 2))
        var = float(np.var(r[mask]))
        if not mse < var:
            problems.append(f"domain {dom}: full-pass MSE {mse:.6f} does not beat the rating variance {var:.6f}")
    return problems


def check_predictions(bundle, calls, preds) -> list[str]:
    """Every prediction agrees with the reference scorer within PREDICT_TOL."""
    ref = reference_ratings(bundle, calls)
    diff = np.abs(np.asarray(preds, dtype=np.float64) - ref)
    bad = np.flatnonzero(~(diff <= PREDICT_TOL))
    if bad.size == 0:
        return []
    i = int(bad[0])
    return [f"{bad.size} of {len(diff)} predictions differ from the reference by > {PREDICT_TOL}; first at call {i}: {float(preds[i])!r} vs {float(ref[i])!r}"]


def check_round_trip(before: dict, after: dict) -> list[str]:
    """Every array survives save and load bit for bit."""
    if before.keys() != after.keys():
        return [f"arrays differ in name: {sorted(before.keys() ^ after.keys())}"]
    problems = []
    for name, a in before.items():
        a, b = np.asarray(a), np.asarray(after[name])
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"array {name} changed in the save/load round trip")
    return problems


# ---------------------------------------------------------------------------
# reference scorer: the benchmark's own encoder and forward pass over the
# arrays of a saved dual-model bundle


def parse_schema_text(text: str) -> list[tuple[str, str, str]]:
    """``name,kind,spec`` lines as (name, kind, spec) triples."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            name, kind, spec = (part.strip() for part in line.split(",", 2))
            out.append((name, kind, spec))
    return out


def encode_raw(fields, raw: dict) -> np.ndarray:
    """Raw feature dict to its encoded vector under the schema ``fields``."""
    blocks = []
    for name, kind, spec in fields:
        hashed = spec.startswith("hash:")
        if kind in ("one_hot", "multi_hot"):
            if hashed:
                width = int(spec[5:])
                slot = lambda v: zlib.crc32(v.encode("utf-8")) % width
            else:
                vocab = [v for v in spec.split("|") if v]
                # an explicit one-hot vocabulary keeps a last slot for unknown values
                width = len(vocab) + (1 if kind == "one_hot" else 0)
                slot = lambda v: vocab.index(v) if v in vocab else len(vocab)
            block = np.zeros(width)
            if kind == "one_hot":
                if name in raw:
                    block[slot(raw[name])] = 1.0
                elif not hashed:
                    block[width - 1] = 1.0
                else:
                    raise ValueError(f"hashed field {name!r} missing")
            else:
                values = raw.get(name, [])
                for v in [values] if isinstance(values, str) else values:
                    if hashed or v in vocab:
                        block[slot(v)] = 1.0
            blocks.append(block)
        else:
            lo, _, hi = spec.partition(":")
            lo, hi = float(lo), float(hi)
            x = min(max(float(raw[name]), lo), hi)
            blocks.append(np.array([(x - lo) / (hi - lo)]))
    return np.concatenate(blocks)


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _scorer(bundle, d: int):
    n = int(bundle[f"rs{d}_n"])
    return [(bundle[f"rs{d}_l{i}_w"], bundle[f"rs{d}_l{i}_b"], str(bundle[f"rs{d}_l{i}_act"])) for i in range(n)]


def _score(layers, x: np.ndarray) -> np.ndarray:
    for w, b, act in layers:
        x = _act(act, x @ w.T + b)
    return x[:, 0]


def reference_ratings(bundle, calls) -> np.ndarray:
    """Ratings for ``calls`` of (domain index, user raw, item raw, in_overlap),
    computed from the bundle's arrays alone."""
    alpha = float(bundle["alpha"])
    x = np.asarray(bundle["map_x"])
    scorers = [_scorer(bundle, 0), _scorer(bundle, 1)]
    out = np.empty(len(calls))
    for d in (0, 1):
        idx = [k for k, c in enumerate(calls) if c[0] == d]
        if not idx:
            continue
        embedded = []
        for entity, pos in (("u", 1), ("i", 2)):
            fields = parse_schema_text(str(bundle[f"schema_{entity}{d}"]))
            w, b = bundle[f"ae_{entity}{d}_enc_w"], bundle[f"ae_{entity}{d}_enc_b"]
            cache: dict = {}
            rows = []
            for k in idx:
                raw = calls[k][pos]
                if id(raw) not in cache:
                    cache[id(raw)] = _act("sigmoid", w @ encode_raw(fields, raw) + b)
                rows.append(cache[id(raw)])
            embedded.append(np.array(rows))
        u, i = embedded
        within = _score(scorers[d], np.concatenate([u, i], axis=1))
        mapped = u @ x.T if d == 0 else u @ x
        cross = _score(scorers[1 - d], np.concatenate([mapped, i], axis=1))
        a = np.array([alpha if calls[k][3] else 0.0 for k in idx])
        out[idx] = np.where(a == 0.0, within, (1.0 - a) * within + a * cross)
    return out


# ---------------------------------------------------------------------------
# cv-sweep


def read_sweep_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        rec = {"alpha": float(row.pop("alpha")), "domain": row.pop("domain")}
        rec.update({k: float(v) for k, v in row.items()})
        out.append(rec)
    return out


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_ratings(interactions_csv) -> np.ndarray:
    with open(interactions_csv, encoding="utf-8", newline="") as fh:
        return np.array([float(row["rating"]) for row in csv.DictReader(fh)])


def _metric(row: dict, prefix: str) -> float:
    return next(v for k, v in row.items() if k.startswith(prefix))


def check_sweep_rows(rows, alphas) -> list[str]:
    """Exactly one row per (alpha, domain)."""
    keys = [(r["alpha"], r["domain"]) for r in rows]
    want = {(a, d) for a in alphas for d in ("a", "b")}
    if len(keys) == len(set(keys)) and set(keys) == want:
        return []
    return [f"sweep rows {sorted(keys)} are not one per (alpha, domain) of {sorted(want)}"]


def check_error_order(rows) -> list[str]:
    """0 < MAE <= RMSE on every row."""
    return [
        f"alpha {r['alpha']} domain {r['domain']}: MAE {r['mae']} and RMSE {r['rmse']} break 0 < MAE <= RMSE"
        for r in rows
        if not 0.0 < r["mae"] <= r["rmse"]
    ]


def check_beats_std(rows, rating_std: dict) -> list[str]:
    """RMSE below the standard deviation of the domain's ratings."""
    return [
        f"alpha {r['alpha']} domain {r['domain']}: RMSE {r['rmse']:.6f} >= rating std {rating_std[r['domain']]:.6f}"
        for r in rows
        if not r["rmse"] < rating_std[r["domain"]]
    ]


def check_rank_bounds(rows) -> list[str]:
    """Precision@k and recall@k lie in [0, 1]."""
    problems = []
    for r in rows:
        for prefix in ("precision_at_", "recall_at_"):
            v = _metric(r, prefix)
            if not 0.0 <= v <= 1.0:
                problems.append(f"alpha {r['alpha']} domain {r['domain']}: {prefix}k {v} outside [0, 1]")
    return problems


def check_summary_agrees(rows, summary: dict) -> list[str]:
    """summary.json holds the same alphas and the same numbers as sweep.csv."""
    problems = []
    if sorted(summary.get("alphas", [])) != sorted({r["alpha"] for r in rows}):
        problems.append(f"summary alphas {summary.get('alphas')} differ from the sweep rows")
    for r in rows:
        entry = summary.get("points", {}).get(repr(r["alpha"]), {}).get("domains", {}).get(r["domain"])
        if entry is None:
            problems.append(f"summary has no entry for alpha {r['alpha']} domain {r['domain']}")
            continue
        for key, value in r.items():
            if key in ("alpha", "domain"):
                continue
            other = entry.get(key)
            same = other is not None and (other == value or (math.isnan(other) and math.isnan(value)))
            if not same:
                problems.append(f"alpha {r['alpha']} domain {r['domain']}: {key} is {value!r} in sweep.csv, {other!r} in summary.json")
    return problems


# ---------------------------------------------------------------------------
# nmf-settle


def read_trace_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        return np.array([float(row["loss"]) for row in csv.DictReader(fh)])


def check_monotone(trace) -> list[str]:
    """The traced loss never rises by more than MONOTONE_TOL."""
    steps = np.diff(np.asarray(trace, dtype=np.float64))
    if steps.size and steps.max() > MONOTONE_TOL:
        i = int(np.argmax(steps))
        return [f"loss rose by {steps[i]:.3e} at iteration {i + 1}"]
    return []


def check_settled(trace, budget: int) -> list[str]:
    """The run ended by |delta| < SETTLE_TOL before its iteration budget."""
    iters = len(trace) - 1
    delta = abs(float(trace[-1] - trace[-2])) if iters >= 1 else math.inf
    if iters < budget and delta < SETTLE_TOL:
        return []
    return [f"run ended after {iters} of {budget} iterations with |delta| {delta:.3e}"]


def check_traced_final(trace, summary: dict) -> list[str]:
    """final_traced_loss is the last trace entry."""
    if summary["final_traced_loss"] == float(trace[-1]):
        return []
    return [f"final_traced_loss {summary['final_traced_loss']!r} != last trace entry {float(trace[-1])!r}"]


def check_decomposition(summary: dict) -> list[str]:
    """final_direct_loss = reduced part + cross part, which holds for an orthogonal X."""
    direct = summary["final_direct_loss"]
    parts = summary["final_reduced_part"] + summary["final_cross_part"]
    if abs(direct - parts) <= DECOMPOSITION_RTOL * abs(direct):
        return []
    return [f"final_direct_loss {direct!r} != reduced + cross {parts!r}"]


def check_conditions_after(summary: dict) -> list[str]:
    """Every convergence precondition holds on the problem that ran."""
    failing = [k for k, ok in summary["conditions_after"].items() if ok is not True]
    return [f"conditions {failing} false after perturbation"] if failing else []
