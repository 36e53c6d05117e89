"""Metrics, cross-validation driver, and the transfer-rate sweep.

Rating quality is measured by RMSE and MAE over held-out interactions plus
user-averaged precision@k / recall@k, where an item counts as relevant when
its true rating clears a threshold tau on the [0, 1] scale. Cross
validation is record-stratified: interaction records are dealt into k
balanced folds, each fold is held out once, and the dual model is retrained
from scratch on the remaining records of both domains. The k fold models
train in lockstep, as one stacked program (`dualmodel.fit_models`) whose
scorer arrays carry a domain axis and a fold axis, so one step runs both
domains of every live fold; each fold keeps its own seed, shuffles and `tol`
stop, and ends bit for bit as it would trained alone.

Nothing that cross validation builds before its first fold depends on the
transfer rate, so it is built once per prepared pair (`prepare_pair`): the
fold splits, each entity's encoded features, the four feature autoencoders
(trained in lockstep as one stack), one embedding of each user and item,
and from those embeddings the Procrustes warm map and one table of both
domains' rows (`dualmodel.Rows`). The autoencoders and the warm map see
only entity attributes, never ratings, so fold isolation of the rating data
is preserved. The folds train on the table through their row indices, and
each fold's held-out rows are scored by one take of it.

The sweep reruns the folds across a grid of transfer rates with shared
seeds and one prepared pair shared by every point, which makes the
alpha = 0 column an exact baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from dualrec.autoencoder import Autoencoder
from dualrec.dualmodel import (
    Rows,
    TrainConfig,
    encode_pair,
    fit_models,
    new_dual_model,
    predict_batch,
)
from dualrec.features import DomainDataset, FoldSplit, kfold, require_disjoint_items, write_csv
from dualrec.mapping import OrthogonalMap
from dualrec.numeric import check_bound


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


def _check_ranking(k, tau: float, name: str = "k") -> None:
    """Refuse a tau outside (0, 1), and a cutoff k, called name, that is no integer >= 1."""
    check_bound("tau", tau, "(0, 1)")
    check_bound(name, k, "[1, inf)", integer=True)


def precision_recall_at_k(user_ids, pred, truth, k: int = 5, tau: float = 0.5) -> PrecisionRecall:
    """User-averaged precision@k and recall@k over scored test items.

    Each user's own test items are ranked by predicted score; the top
    min(k, m) of their m items are the recommendations. Relevance is
    truth >= tau. Precision divides by min(k, m); recall divides by the
    user's relevant-item count and skips users who have none (flagged
    undefined when that skips everyone).
    """
    _check_ranking(k, tau)
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


# the config keys the autoencoders are trained with; a prepared pair also depends on k and seed
_AE_CONFIG_KEYS = ("embed_dim", "ae_lr", "ae_epochs", "ae_batch_size")


def _prepared_key(cfg: TrainConfig, k: int, seed: int) -> dict:
    return {"k": k, "seed": seed, **{name: getattr(cfg, name) for name in _AE_CONFIG_KEYS}}


@dataclass(frozen=True)
class PreparedPair:
    """What run_cv builds before its first fold, none of which depends on alpha.

    Per domain (a, b): the fold split and the (user, item) autoencoders;
    the shared Procrustes warm map (None when too few users are shared); and
    rows, both whole domains encoded with partner-user overlap flags in one
    table (`prepare_rows`). `key` holds the arguments it was built for.
    """

    key: dict
    datasets: tuple[DomainDataset, DomainDataset]
    splits: tuple[FoldSplit, FoldSplit]
    encoders: tuple[tuple[Autoencoder, Autoencoder], tuple[Autoencoder, Autoencoder]]
    warm_map: OrthogonalMap | None
    rows: Rows


def prepare_pair(ds_a: DomainDataset, ds_b: DomainDataset, cfg: TrainConfig, k: int = 5, seed: int = 0) -> PreparedPair:
    """Split, train the autoencoders, warm-start the map and encode both domains, once.

    Uses only cfg's embed_dim and ae_* keys, so one prepared pair serves
    run_cv at every alpha and every other training key.
    """
    require_disjoint_items(ds_a, ds_b)
    # split first, so a bad k fails before any autoencoder trains
    splits = (kfold(ds_a, k, seed), kfold(ds_b, k, seed))
    encoders, warm_map, rows = encode_pair(ds_a, ds_b, cfg, seed)
    return PreparedPair(_prepared_key(cfg, k, seed), (ds_a, ds_b), splits, encoders, warm_map, rows)


def _check_prepared(prepared: PreparedPair, ds_a, ds_b, cfg: TrainConfig, k: int, seed: int) -> None:
    if prepared.datasets[0] is not ds_a or prepared.datasets[1] is not ds_b:
        raise ValueError("prepared pair was built for other datasets")
    for name, want in _prepared_key(cfg, k, seed).items():
        if prepared.key[name] != want:
            raise ValueError(
                f"prepared pair was built with {name}={prepared.key[name]!r}, this run asks for {name}={want!r}"
            )


def run_cv(
    ds_a: DomainDataset,
    ds_b: DomainDataset,
    cfg: TrainConfig,
    k: int = 5,
    seed: int = 0,
    rank_k: int = 5,
    tau: float = 0.5,
    prepared: PreparedPair | None = None,
) -> tuple[MetricsReport, MetricsReport]:
    """k-fold cross validation of the dual model on a domain pair.

    Every fold trains fresh scorers and a fresh map on the other k-1 folds
    of both domains and scores the held-out records. The k fold models
    train in lockstep, as one stacked program (`fit_models`): each keeps its
    own seed, shuffles and `tol` stop, and ends exactly as it would trained
    alone. Deterministic per (cfg, k, seed). `prepared` reuses a
    `prepare_pair(ds_a, ds_b, cfg, k, seed)` result; one built for other
    datasets, another k or seed, or another embed_dim or ae_* key is
    refused with an error naming the key.
    """
    _check_ranking(rank_k, tau, "rank_k")  # before anything trains
    if prepared is None:
        prepared = prepare_pair(ds_a, ds_b, cfg, k, seed)
    _check_prepared(prepared, ds_a, ds_b, cfg, k, seed)
    table = prepared.rows
    config_echo = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}
    config_echo.update(folds=k, seed=seed, rank_k=rank_k, tau=tau)
    folds_a: list[FoldMetrics] = []
    folds_b: list[FoldMetrics] = []
    seeds = [_fold_seed(seed, fold) for fold in range(k)]
    models = []
    for fseed in seeds:
        dm = new_dual_model(list(prepared.encoders), alpha=cfg.alpha, seed=fseed, hidden=cfg.hidden,
                            schemas=[(ds.user_schema, ds.item_schema) for ds in (ds_a, ds_b)])
        if prepared.warm_map is not None:
            dm.maps[(0, 1)] = prepared.warm_map  # fit_models trains a copy
        models.append(dm)
    # per domain, the (train, test) record indices of every fold
    splits = [[split.fold_indices(fold) for fold in range(k)] for split in prepared.splits]
    fit_models(models, table, cfg, seeds, rows=tuple([tr for tr, _ in folds] for folds in splits))
    for fold, dm in enumerate(models):
        for domain_index, sink in ((0, folds_a), (1, folds_b)):
            held_out = table.bounds[domain_index] + splits[domain_index][fold][1]  # as rows of the table
            test = table.take(held_out)
            preds = predict_batch(dm, domain_index, test)
            pr = precision_recall_at_k(table.user_ids[held_out], preds, test.ratings, k=rank_k, tau=tau)
            sink.append(
                FoldMetrics(
                    fold=fold,
                    rmse=rmse(preds, test.ratings),
                    mae=mae(preds, test.ratings),
                    precision_at_k=pr.precision,
                    recall_at_k=pr.recall,
                    recall_defined=pr.recall_defined,
                    n_test=len(held_out),
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
    """One cross-validation run per transfer rate, seeds shared across rates.

    The pair is prepared once (`prepare_pair`: splits, autoencoders, warm
    map, the table of encoded rows) and every point runs its folds on it, so
    each point equals `run_cv` at its alpha. Each point's folds stop by cfg's
    own `tol` rule, so different alphas may train for different epoch counts:
    on the standard pair (`dualrec synth --seed 101 --sigma 0.02`, sweep seed
    0) the folds stop at epochs [9, 37, 59, 9, 26] at alpha 0 and
    [9, 27, 12, 9, 26] at alpha 0.03. `tol=0` gives every point the same
    budget of cfg.epochs, as the transfer-benefit criterion and demo 05 use.
    """
    configs = [replace(cfg, alpha=float(a)) for a in alphas]  # checks every rate before the first run
    if not configs:
        raise ValueError("alphas names no transfer rate")
    _check_ranking(rank_k, tau, "rank_k")
    prepared = prepare_pair(ds_a, ds_b, cfg, k, seed)
    return [
        SweepPoint(c.alpha, *run_cv(ds_a, ds_b, c, k=k, seed=seed, rank_k=rank_k, tau=tau, prepared=prepared))
        for c in configs
    ]


# ---------------------------------------------------------------------------
# emission


def write_report_csv(path, reports) -> None:
    """Per-fold metric rows for one or more domains.

    Column layout: domain,fold,rmse,mae,precision_at_<k>,recall_at_<k>.
    Undefined recall is written as nan.
    """
    k = reports[0].k
    write_csv(path, ["domain", "fold", "rmse", "mae", f"precision_at_{k}", f"recall_at_{k}"],
              [[rep.domain, f.fold, *map(float, (f.rmse, f.mae, f.precision_at_k, f.recall_at_k))]
               for rep in reports for f in rep.per_fold])


def write_sweep_csv(path, points) -> None:
    """Fold-averaged metrics per (alpha, domain)."""
    k = points[0].report_a.k
    write_csv(path, ["alpha", "domain", "rmse", "mae", f"precision_at_{k}", f"recall_at_{k}"],
              [[float(pt.alpha), rep.domain, *map(float, (rep.rmse, rep.mae, rep.precision_at_k, rep.recall_at_k))]
               for pt in points for rep in (pt.report_a, pt.report_b)])


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
    """Generic numeric trace table (loss curves and the like), written by `write_csv`."""
    write_csv(path, header, rows)
