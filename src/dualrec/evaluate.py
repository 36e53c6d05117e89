"""Metrics, cross-validation driver, and the transfer-rate sweep.

Rating quality is measured by RMSE and MAE over held-out interactions plus
user-averaged precision@k / recall@k, where an item counts as relevant when
its true rating clears a threshold tau on the [0, 1] scale. Cross
validation is record-stratified: interaction records are dealt into k
balanced folds, each fold is held out once, and the dual model is retrained
from scratch on the remaining records of both domains. Feature
autoencoders are trained once per domain on the full entity corpora; they
see only entity attributes, never ratings, so fold isolation of the rating
data is preserved.

The sweep reruns cross validation across a grid of transfer rates with
shared seeds, which makes the alpha = 0 column an exact baseline.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from dualrec.dualmodel import (
    TrainConfig,
    fit,
    new_dual_model,
    predict_batch,
    prepare_domain,
    shared_user_alignment,
    train_domain_autoencoders,
)
from dualrec.features import DomainDataset, kfold, require_disjoint_items


def _paired(pred, truth):
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.ndim != 1 or t.ndim != 1 or p.shape != t.shape:
        raise ValueError(f"pred and truth must be equal-length 1-D, got {p.shape} and {t.shape}")
    if p.shape[0] == 0:
        raise ValueError("empty prediction list")
    return p, t


def rmse(pred, truth) -> float:
    p, t = _paired(pred, truth)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def mae(pred, truth) -> float:
    p, t = _paired(pred, truth)
    return float(np.mean(np.abs(p - t)))


@dataclass(frozen=True)
class PrecisionRecall:
    precision: float
    recall: float  # nan when no user had a relevant item
    recall_defined: bool
    users_scored: int
    users_skipped_for_recall: int


def precision_recall_at_k(user_ids, pred, truth, k: int = 5, tau: float = 0.5) -> PrecisionRecall:
    """User-averaged precision@k and recall@k over scored test items.

    Each user's own test items are ranked by predicted score; the top
    min(k, m) of their m items are the recommendations. Relevance is
    truth >= tau. Precision divides by min(k, m); recall divides by the
    user's relevant-item count and skips users who have none (flagged
    undefined when that skips everyone).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau {tau} outside (0, 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    p, t = _paired(pred, truth)
    ids = list(user_ids)
    if len(ids) != p.shape[0]:
        raise ValueError(f"{len(ids)} user ids vs {p.shape[0]} predictions")
    by_user: dict = {}
    for uid, pi, ti in zip(ids, p, t):
        by_user.setdefault(uid, []).append((float(pi), float(ti)))
    precisions = []
    recalls = []
    for uid in sorted(by_user):
        items = by_user[uid]
        order = np.argsort(-np.array([pi for pi, _ in items]), kind="stable")
        top = min(k, len(items))
        hits = sum(1 for j in order[:top] if items[j][1] >= tau)
        n_relevant = sum(1 for _, ti in items if ti >= tau)
        precisions.append(hits / top)
        if n_relevant > 0:
            recalls.append(hits / n_relevant)
    defined = len(recalls) > 0
    return PrecisionRecall(
        precision=float(np.mean(precisions)),
        recall=float(np.mean(recalls)) if defined else math.nan,
        recall_defined=defined,
        users_scored=len(by_user),
        users_skipped_for_recall=len(by_user) - len(recalls),
    )


# ---------------------------------------------------------------------------
# cross validation


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    rmse: float
    mae: float
    precision_at_k: float
    recall_at_k: float
    recall_defined: bool
    n_test: int


@dataclass(frozen=True)
class MetricsReport:
    domain: str
    rmse: float
    mae: float
    precision_at_k: float
    recall_at_k: float
    k: int
    per_fold: tuple[FoldMetrics, ...]
    config: dict


def _aggregate(domain: str, folds: list[FoldMetrics], k: int, config: dict) -> MetricsReport:
    recalls = [f.recall_at_k for f in folds if f.recall_defined]
    return MetricsReport(
        domain=domain,
        rmse=float(np.mean([f.rmse for f in folds])),
        mae=float(np.mean([f.mae for f in folds])),
        precision_at_k=float(np.mean([f.precision_at_k for f in folds])),
        recall_at_k=float(np.mean(recalls)) if recalls else math.nan,
        k=k,
        per_fold=tuple(folds),
        config=dict(config),
    )


def _fold_seed(seed: int, fold: int) -> int:
    # one model-init/shuffle seed per fold, stable across runs
    return seed * 10_000 + fold


def run_cv(
    ds_a: DomainDataset,
    ds_b: DomainDataset,
    cfg: TrainConfig,
    k: int = 5,
    seed: int = 0,
    rank_k: int = 5,
    tau: float = 0.5,
) -> tuple[MetricsReport, MetricsReport]:
    """k-fold cross validation of the dual model on a domain pair.

    Every fold retrains scorers and map from scratch on the other k-1 folds
    of both domains and scores the held-out records. Deterministic per
    (cfg, k, seed).
    """
    require_disjoint_items(ds_a, ds_b)
    # split first, so a bad k fails before any autoencoder trains
    split_a = kfold(ds_a, k, seed)
    split_b = kfold(ds_b, k, seed)
    ae_user_a, ae_item_a = train_domain_autoencoders(ds_a, cfg, seed)
    ae_user_b, ae_item_b = train_domain_autoencoders(ds_b, cfg, seed)
    # Shared across folds like the autoencoders it is built from: the
    # alignment sees entity features only, never ratings.
    warm_map = shared_user_alignment(ds_a, ds_b, ae_user_a, ae_user_b)
    users_a = {r.user_id for r in ds_a.interactions}
    users_b = {r.user_id for r in ds_b.interactions}
    config_echo = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}
    config_echo.update(folds=k, seed=seed, rank_k=rank_k, tau=tau)
    folds_a: list[FoldMetrics] = []
    folds_b: list[FoldMetrics] = []
    for fold in range(k):
        fseed = _fold_seed(seed, fold)
        dm = new_dual_model(
            ae_user_a,
            ae_item_a,
            ae_user_b,
            ae_item_b,
            cfg.alpha,
            fseed,
            cfg.hidden,
            schemas_a=(ds_a.user_schema, ds_a.item_schema),
            schemas_b=(ds_b.user_schema, ds_b.item_schema),
        )
        if warm_map is not None:
            dm.map = warm_map.copy()
        tr_a, te_a = split_a.fold_indices(fold)
        tr_b, te_b = split_b.fold_indices(fold)
        arr_tr_a = prepare_domain(ds_a, ae_user_a, ae_item_a, tr_a, partner_users=users_b)
        arr_tr_b = prepare_domain(ds_b, ae_user_b, ae_item_b, tr_b, partner_users=users_a)
        fit(dm, arr_tr_a, arr_tr_b, cfg, seed=fseed)
        for domain_index, ds, ae_u, ae_i, te, partner, sink in (
            (0, ds_a, ae_user_a, ae_item_a, te_a, users_b, folds_a),
            (1, ds_b, ae_user_b, ae_item_b, te_b, users_a, folds_b),
        ):
            arr_te = prepare_domain(ds, ae_u, ae_i, te, partner_users=partner)
            preds = predict_batch(dm, domain_index, arr_te)
            pr = precision_recall_at_k(arr_te.user_ids, preds, arr_te.ratings, k=rank_k, tau=tau)
            sink.append(
                FoldMetrics(
                    fold=fold,
                    rmse=rmse(preds, arr_te.ratings),
                    mae=mae(preds, arr_te.ratings),
                    precision_at_k=pr.precision,
                    recall_at_k=pr.recall,
                    recall_defined=pr.recall_defined,
                    n_test=len(arr_te),
                )
            )
    return (
        _aggregate(ds_a.domain_name, folds_a, rank_k, config_echo),
        _aggregate(ds_b.domain_name, folds_b, rank_k, config_echo),
    )


# ---------------------------------------------------------------------------
# transfer-rate sweep


@dataclass(frozen=True)
class SweepPoint:
    alpha: float
    report_a: MetricsReport
    report_b: MetricsReport


def alpha_sweep(
    ds_a: DomainDataset,
    ds_b: DomainDataset,
    alphas,
    cfg: TrainConfig,
    k: int = 5,
    seed: int = 0,
    rank_k: int = 5,
    tau: float = 0.5,
) -> list[SweepPoint]:
    """One cross-validation run per transfer rate, seeds shared across rates."""
    configs = [replace(cfg, alpha=float(a)) for a in alphas]  # checks every rate before the first run
    return [SweepPoint(c.alpha, *run_cv(ds_a, ds_b, c, k=k, seed=seed, rank_k=rank_k, tau=tau)) for c in configs]


# ---------------------------------------------------------------------------
# emission


def _fmt(x: float) -> str:
    return repr(float(x))


def write_report_csv(path, reports) -> None:
    """Per-fold metric rows for one or more domains.

    Column layout: domain,fold,rmse,mae,precision_at_<k>,recall_at_<k>.
    Undefined recall is written as nan.
    """
    k = reports[0].k
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["domain", "fold", "rmse", "mae", f"precision_at_{k}", f"recall_at_{k}"])
        for rep in reports:
            for f in rep.per_fold:
                w.writerow(
                    [rep.domain, f.fold, _fmt(f.rmse), _fmt(f.mae), _fmt(f.precision_at_k), _fmt(f.recall_at_k)]
                )


def write_sweep_csv(path, points) -> None:
    """Fold-averaged metrics per (alpha, domain)."""
    k = points[0].report_a.k
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "domain", "rmse", "mae", f"precision_at_{k}", f"recall_at_{k}"])
        for pt in points:
            for rep in (pt.report_a, pt.report_b):
                w.writerow(
                    [_fmt(pt.alpha), rep.domain, _fmt(rep.rmse), _fmt(rep.mae), _fmt(rep.precision_at_k), _fmt(rep.recall_at_k)]
                )


def report_summary(reports) -> dict:
    """Machine-readable fold-averaged summary (one entry per domain)."""
    out: dict = {"domains": {}, "config": dict(reports[0].config)}
    for rep in reports:
        out["domains"][rep.domain] = {
            "rmse": rep.rmse,
            "mae": rep.mae,
            f"precision_at_{rep.k}": rep.precision_at_k,
            f"recall_at_{rep.k}": rep.recall_at_k,
            "folds": len(rep.per_fold),
        }
    return out


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def write_trace_csv(path, header, rows) -> None:
    """Generic numeric trace table (loss curves and the like)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(header))
        for row in rows:
            w.writerow([x if isinstance(x, str) else _fmt(x) if isinstance(x, float) else str(x) for x in row])
