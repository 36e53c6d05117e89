"""Metrics, the cross-validation driver, the transfer-rate sweep, and emission."""

import csv
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualrec import dualmodel, evaluate, features
from dualrec.dualmodel import TrainConfig, train_pair_autoencoders
from dualrec.evaluate import (
    alpha_sweep,
    mae,
    precision_recall_at_k,
    prepare_pair,
    report_summary,
    rmse,
    run_cv,
    write_report_csv,
    write_summary_json,
    write_sweep_csv,
    write_trace_csv,
)
from dualrec.features import DomainDataset, FeatureSchema, FieldSpec, InteractionRecord, kfold, synth_pair
from dualrec.numeric import make_rng
from single_domain import domain_autoencoders, domain_embeddings, fold_rows, model_forward, remade, train_single


class TestPointMetrics:
    def test_identical_lists_score_zero(self):
        assert rmse([0.2, 0.9], [0.2, 0.9]) == 0.0
        assert mae([0.2, 0.9], [0.2, 0.9]) == 0.0

    def test_hand_arithmetic(self):
        assert rmse([1.0, 0.0], [0.0, 0.0]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert mae([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_rmse_matches_naive_loop(self):
        rng = make_rng(1)
        p, t = rng.random(50), rng.random(50)
        total = 0.0
        for pi, ti in zip(p, t):
            total += (pi - ti) ** 2
        assert rmse(p, t) == pytest.approx(math.sqrt(total / 50), rel=1e-12)

    def test_rmse_dominates_mae(self):
        rng = make_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            p, t = rng.random(n), rng.random(n)
            assert rmse(p, t) >= mae(p, t) - 1e-15

    def test_permutation_invariance(self):
        rng = make_rng(3)
        p, t = rng.random(20), rng.random(20)
        perm = rng.permutation(20)
        assert rmse(p[perm], t[perm]) == pytest.approx(rmse(p, t), rel=1e-12)
        assert mae(p[perm], t[perm]) == pytest.approx(mae(p, t), rel=1e-12)

    def test_empty_and_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])


def oracle_precision_recall_at_k(user_ids, pred, truth, k, tau):
    """precision_recall_at_k user by user: each user's items ranked by a stable sort on falling score."""
    by_user: dict = {}
    for uid, pi, ti in zip(list(user_ids), np.asarray(pred, float), np.asarray(truth, float)):
        by_user.setdefault(uid, []).append((float(pi), float(ti)))
    precisions, recalls = [], []
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
    return (float(np.mean(precisions)), float(np.mean(recalls)) if defined else math.nan, defined, len(by_user),
            len(by_user) - len(recalls))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(["u", "u\0", "v", "x10", "x9"]), st.sampled_from([0.1, 0.5, 0.9, -0.0, 0.0]),
                               st.sampled_from([0.0, 0.5, 0.49, 1.0])), min_size=1, max_size=40),
       k=st.integers(1, 4), tau=st.sampled_from([0.5, 0.3, 0.99]), text=st.booleans())
def test_ranking_equals_the_per_user_loop_bit_for_bit(rows, k, tau, text):
    # tied scores (0.0 and -0.0 among them) keep their order, and users with one item count; ids come as a
    # list, where "u\0" is its own user, or as a text array, which drops trailing NULs
    ids, pred, truth = zip(*rows)
    ids = np.array(ids) if text else list(ids)
    got = precision_recall_at_k(ids, pred, truth, k=k, tau=tau)
    want = oracle_precision_recall_at_k(ids, pred, truth, k, tau)
    fields = (got.precision, got.recall, got.recall_defined, got.users_scored, got.users_skipped_for_recall)
    assert [np.float64(v).tobytes() if isinstance(v, float) else v for v in fields] == \
        [np.float64(v).tobytes() if isinstance(v, float) else v for v in want]


def test_users_apart_by_a_trailing_nul_are_two_users_of_the_ranking():
    # `Rows.user_ids` keeps the exact ids; a text array would read "u" and "u\0" as one user
    trait = FeatureSchema((FieldSpec("trait", "numeric", lo=0.0, hi=1.0),))
    ds = DomainDataset("a", [InteractionRecord(u, "i", 0.75) for u in ("u", "u\0")],
                       {"u": {"trait": 0.5}, "u\0": {"trait": 0.5}}, {"i": {"trait": 0.5}}, trait, trait)
    rows = dualmodel.prepare_domain(ds, (np.zeros((2, 1)), np.zeros((1, 1))))
    assert rows.user_ids.tolist() == ["u", "u\0"]
    assert precision_recall_at_k(rows.user_ids, [0.5, 0.5], rows.ratings, k=1).users_scored == 2


class TestPrecisionRecallAtK:
    def test_all_relevant_items(self):
        # 7 items, all relevant: precision 1 regardless of ranking, recall 5/7
        pred = [0.9, 0.1, 0.5, 0.3, 0.8, 0.2, 0.6]
        truth = [0.9] * 7
        pr = precision_recall_at_k(["u"] * 7, pred, truth, k=5, tau=0.5)
        assert pr.precision == 1.0
        assert pr.recall == pytest.approx(5 / 7)
        assert pr.recall_defined

    def test_no_relevant_items_flags_undefined_recall(self):
        pr = precision_recall_at_k(["u", "u", "v"], [0.9, 0.3, 0.8], [0.1, 0.2, 0.0], k=5, tau=0.5)
        assert pr.precision == 0.0
        assert not pr.recall_defined
        assert math.isnan(pr.recall)
        assert pr.users_skipped_for_recall == 2

    def test_perfect_ranking_hand_enumeration(self):
        # 6 items, 3 relevant ranked on top, k=5: precision 3/5, recall 1
        pred = [0.9, 0.8, 0.7, 0.3, 0.2, 0.1]
        truth = [1.0, 0.9, 0.8, 0.0, 0.1, 0.2]
        pr = precision_recall_at_k(["u"] * 6, pred, truth, k=5, tau=0.5)
        assert pr.precision == pytest.approx(3 / 5)
        assert pr.recall == 1.0

    def test_user_averaging(self):
        # user u: 1 item, relevant, recommended -> p=1, r=1
        # user v: 2 items, 1 relevant ranked last with k=1 -> p=0, r=0
        ids = ["u", "v", "v"]
        pred = [0.9, 0.9, 0.1]
        truth = [1.0, 0.0, 1.0]
        pr = precision_recall_at_k(ids, pred, truth, k=1, tau=0.5)
        assert pr.precision == pytest.approx(0.5)
        assert pr.recall == pytest.approx(0.5)
        assert pr.users_scored == 2

    def test_fewer_items_than_k_divides_by_m(self):
        pr = precision_recall_at_k(["u", "u"], [0.9, 0.1], [1.0, 1.0], k=5, tau=0.5)
        assert pr.precision == 1.0  # 2 hits / min(5, 2)

    def test_invalid_tau_and_k_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_at_k(["u"], [0.5], [0.5], tau=0.0)
        with pytest.raises(ValueError):
            precision_recall_at_k(["u"], [0.5], [0.5], k=0)

    @pytest.mark.parametrize("k", [2.5, 1.0, np.float64(2.0), True, np.bool_(True)])
    def test_a_cutoff_that_is_no_integer_is_refused_by_name(self, k):
        with pytest.raises(ValueError, match=rf"^k={k} is not an integer$"):
            precision_recall_at_k(["u", "u"], [0.9, 0.1], [1.0, 0.0], k=k)

    def test_an_np_int64_cutoff_ranks_like_an_int(self):
        args = (["u", "u", "v"], [0.9, 0.1, 0.4], [0.0, 1.0, 1.0])
        assert precision_recall_at_k(*args, k=np.int64(1)) == precision_recall_at_k(*args, k=1)


@pytest.fixture(scope="module")
def small_pair():
    return synth_pair(n_users=40, n_items_per_domain=15, latent_dim=4,
                      cross_correlation=0.8, noise=0.05, density=0.4, seed=2)


def small_cfg(**overrides):
    base = dict(alpha=0.03, embed_dim=4, epochs=2, tol=0.0, lr_a=0.1, lr_b=0.1,
                hidden=(8, 4), ae_epochs=120, ae_lr=0.05)
    base.update(overrides)
    return TrainConfig(**base)


class TestRunCv:
    def test_reports_echo_config(self, small_pair):
        ds_a, ds_b, _ = small_pair
        cfg = small_cfg()
        rep_a, rep_b = run_cv(ds_a, ds_b, cfg, k=2, seed=0)
        for rep in (rep_a, rep_b):
            assert rep.config["alpha"] == cfg.alpha
            assert rep.config["embed_dim"] == cfg.embed_dim
            assert rep.config["folds"] == 2
            assert rep.config["seed"] == 0
        assert rep_a.domain == "a" and rep_b.domain == "b"
        assert len(rep_a.per_fold) == 2

    def test_config_echo_covers_every_training_key(self, small_pair):
        ds_a, ds_b, _ = small_pair
        cfg = small_cfg(penalty_weight=0.5)
        rep_a, _ = run_cv(ds_a, ds_b, cfg, k=2, seed=4, rank_k=3, tau=0.4)
        echo = dict(rep_a.config)
        assert (echo.pop("folds"), echo.pop("seed"), echo.pop("rank_k"), echo.pop("tau")) == (2, 4, 3, 0.4)
        assert TrainConfig(**echo) == cfg

    def test_one_fold_fails_before_any_autoencoder_trains(self, small_pair, monkeypatch):
        ds_a, ds_b, _ = small_pair
        monkeypatch.setattr(dualmodel, "train_pair_autoencoders", None)
        with pytest.raises(ValueError, match=r"^k=1 below 2$"):
            run_cv(ds_a, ds_b, small_cfg(), k=1)

    @pytest.mark.parametrize("rank_k, tau, message", [
        (0, 0.5, "rank_k=0 below 1"), (2.5, 0.5, "rank_k=2.5 is not an integer"),
        (True, 0.5, "rank_k=True is not an integer"), (np.float64(3.0), 0.5, "rank_k=3.0 is not an integer"),
        (5, 1.5, r"tau=1.5 outside \(0, 1\)"), (5, 0.0, r"tau=0.0 outside \(0, 1\)"),
        (5, math.nan, "tau=nan is not a number"),
    ])
    @pytest.mark.parametrize("driver", ["run_cv", "alpha_sweep"])
    def test_bad_ranking_parameters_fail_by_name_before_anything_trains(self, small_pair, monkeypatch,
                                                                          driver, rank_k, tau, message):
        ds_a, ds_b, _ = small_pair
        monkeypatch.setattr(dualmodel, "train_pair_autoencoders", None)  # training would raise a TypeError
        with pytest.raises(ValueError, match=rf"^{message}$"):
            if driver == "run_cv":
                run_cv(ds_a, ds_b, small_cfg(), k=2, rank_k=rank_k, tau=tau)
            else:
                alpha_sweep(ds_a, ds_b, [0.0, 0.03], small_cfg(), k=2, rank_k=rank_k, tau=tau)

    def test_deterministic_per_seed(self, small_pair):
        ds_a, ds_b, _ = small_pair
        r1 = run_cv(ds_a, ds_b, small_cfg(), k=2, seed=3)
        r2 = run_cv(ds_a, ds_b, small_cfg(), k=2, seed=3)
        assert r1 == r2

    def test_fold_metrics_average_to_the_report(self, small_pair):
        ds_a, ds_b, _ = small_pair
        rep_a, _ = run_cv(ds_a, ds_b, small_cfg(), k=2, seed=0)
        assert rep_a.rmse == pytest.approx(np.mean([f.rmse for f in rep_a.per_fold]), rel=1e-12)
        assert rep_a.mae == pytest.approx(np.mean([f.mae for f in rep_a.per_fold]), rel=1e-12)
        for f in rep_a.per_fold:
            assert f.rmse >= f.mae >= 0.0
            assert 0.0 <= f.precision_at_k <= 1.0

    def test_alpha_zero_equals_independent_single_domain_runs(self, small_pair):
        # with no transfer the dual run must reproduce plain per-domain
        # training; mirror the fold protocol with the single-domain trainer
        ds_a, ds_b, _ = small_pair
        cfg = small_cfg(alpha=0.0)
        k, seed = 2, 0
        rep_a, rep_b = run_cv(ds_a, ds_b, cfg, k=k, seed=seed)
        for ds, rep, domain_index in ((ds_a, rep_a, 0), (ds_b, rep_b, 1)):
            embeddings = domain_embeddings(ds, domain_autoencoders(ds, cfg, seed))
            split = kfold(ds, k, seed)
            fold_rmses = []
            for fold in range(k):
                tr, te = split.fold_indices(fold)
                arr_tr = fold_rows(ds, embeddings, tr)
                model, _ = train_single(
                    arr_tr, domain_index, embed_dim=cfg.embed_dim, seed=seed * 10_000 + fold,
                    epochs=cfg.epochs, tol=cfg.tol,
                    lr=cfg.lr_a if domain_index == 0 else cfg.lr_b,
                    batch_size=cfg.batch_size, hidden=cfg.hidden,
                )
                arr_te = fold_rows(ds, embeddings, te)
                preds = model_forward(model, arr_te.ui)[0][:, 0]
                fold_rmses.append(rmse(preds, arr_te.ratings))
            assert rep.rmse == pytest.approx(np.mean(fold_rmses), abs=1e-9)


class TestAlphaSweep:
    def test_zero_point_matches_baseline_run_bitwise(self, small_pair):
        ds_a, ds_b, _ = small_pair
        cfg = small_cfg()
        points = alpha_sweep(ds_a, ds_b, [0.0, 0.03], cfg, k=2, seed=1)
        base_a, base_b = run_cv(ds_a, ds_b, small_cfg(alpha=0.0), k=2, seed=1)
        assert points[0].alpha == 0.0
        assert points[0].report_a == base_a
        assert points[0].report_b == base_b

    def test_every_point_equals_an_independent_run(self, small_pair):
        ds_a, ds_b, _ = small_pair
        cfg = small_cfg(epochs=3)
        points = alpha_sweep(ds_a, ds_b, [0.0, 0.03, 0.2], cfg, k=2, seed=5, rank_k=3, tau=0.4)
        for pt, alpha in zip(points, [0.0, 0.03, 0.2]):
            alone = run_cv(ds_a, ds_b, small_cfg(epochs=3, alpha=alpha), k=2, seed=5, rank_k=3, tau=0.4)
            assert (pt.alpha, pt.report_a, pt.report_b) == (alpha, *alone)

    def test_autoencoders_train_once_per_sweep(self, small_pair, monkeypatch):
        ds_a, ds_b, _ = small_pair
        calls = []

        def counted(first, second, cfg, seed, vectors):
            calls.append((first.domain_name, second.domain_name))
            return train_pair_autoencoders(first, second, cfg, seed, vectors)

        monkeypatch.setattr(dualmodel, "train_pair_autoencoders", counted)
        alpha_sweep(ds_a, ds_b, [0.0, 0.03, 0.1], small_cfg(epochs=1), k=2, seed=0)
        assert calls == [("a", "b")]

    def test_points_follow_requested_order(self, small_pair):
        ds_a, ds_b, _ = small_pair
        points = alpha_sweep(ds_a, ds_b, [0.05, 0.0], small_cfg(epochs=1), k=2, seed=0)
        assert [pt.alpha for pt in points] == [0.05, 0.0]

    def test_alphas_outside_range_rejected(self, small_pair):
        ds_a, ds_b, _ = small_pair
        with pytest.raises(ValueError, match=r"^alpha=0.5000001 outside \[0, 0.5\]$"):
            alpha_sweep(ds_a, ds_b, [0.0, 0.5000001], small_cfg(), k=2, seed=0)

    def test_an_empty_alpha_list_fails_before_anything_trains(self, small_pair, monkeypatch):
        ds_a, ds_b, _ = small_pair
        monkeypatch.setattr(dualmodel, "train_pair_autoencoders", None)  # training would raise a TypeError
        with pytest.raises(ValueError, match="^alphas names no transfer rate$"):
            alpha_sweep(ds_a, ds_b, [], small_cfg(), k=2)


class TestPreparedPair:
    def test_fold_rows_equal_a_fresh_encoding_bytewise(self, small_pair):
        ds_a, ds_b, _ = small_pair
        # every fifth user of domain a has no domain-b ratings, so overlap flags vary
        only_a = sorted({r.user_id for r in ds_a.interactions})[::5]
        ds_b = remade(ds_b, interactions=[r for r in ds_b.interactions if r.user_id not in only_a])
        cfg = small_cfg()
        prepared = prepare_pair(ds_a, ds_b, cfg, k=3, seed=2)
        partners = (sorted({r.user_id for r in ds_b.interactions}), sorted({r.user_id for r in ds_a.interactions}))
        table = prepared.rows
        for k, (ds, split, aes, partner) in enumerate(zip((ds_a, ds_b), prepared.splits, prepared.encoders, partners)):
            embeddings = domain_embeddings(ds, aes)
            for fold in range(3):
                for idx in split.fold_indices(fold):
                    got = table.take(table.bounds[k] + idx)
                    want = fold_rows(ds, embeddings, idx, partner)
                    for name in ("ui", "ratings", "overlap"):
                        a, b = getattr(got, name), getattr(want, name)
                        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
                    assert table.user_ids[table.bounds[k] + idx].tolist() == want.user_ids.tolist()
        assert not table.domain(0).overlap.all() and table.domain(1).overlap.all()

    def test_prepared_run_equals_a_fresh_run(self, small_pair):
        ds_a, ds_b, _ = small_pair
        prepared = prepare_pair(ds_a, ds_b, small_cfg(), k=2, seed=1)
        cfg = small_cfg(alpha=0.1, epochs=3, lr_a=0.2, hidden=(6,))  # keys the preparation does not use
        assert run_cv(ds_a, ds_b, cfg, k=2, seed=1, prepared=prepared) == run_cv(ds_a, ds_b, cfg, k=2, seed=1)

    @pytest.mark.parametrize(
        "key, run_args, cfg_overrides",
        [
            ("k", dict(k=3), {}),
            ("seed", dict(seed=1), {}),
            ("embed_dim", {}, dict(embed_dim=3)),
            ("ae_lr", {}, dict(ae_lr=0.04)),
            ("ae_epochs", {}, dict(ae_epochs=121)),
            ("ae_batch_size", {}, dict(ae_batch_size=16)),
        ],
    )
    def test_mismatched_pair_refused_naming_the_key(self, small_pair, monkeypatch, key, run_args, cfg_overrides):
        ds_a, ds_b, _ = small_pair
        prepared = prepare_pair(ds_a, ds_b, small_cfg(), k=2, seed=0)
        monkeypatch.setattr(evaluate, "fit_models", None)  # refused before any fold trains
        args = dict(k=2, seed=0) | run_args
        with pytest.raises(ValueError, match=f"prepared pair was built with {key}="):
            run_cv(ds_a, ds_b, small_cfg(**cfg_overrides), prepared=prepared, **args)

    def test_pair_for_other_datasets_refused(self, small_pair, monkeypatch):
        ds_a, ds_b, _ = small_pair
        prepared = prepare_pair(ds_a, ds_b, small_cfg(), k=2, seed=0)
        monkeypatch.setattr(evaluate, "fit_models", None)
        with pytest.raises(ValueError, match="prepared pair was built for other datasets"):
            run_cv(ds_a, remade(ds_b), small_cfg(), k=2, seed=0, prepared=prepared)


def one_record_per_user(ds):
    first = {}
    for r in ds.interactions:
        first.setdefault(r.user_id, r)
    return remade(ds, interactions=list(first.values()))


def all_ratings(ds, rating):
    return remade(ds, interactions=[r._replace(rating=rating) for r in ds.interactions])


def users_renamed(ds, prefix):
    return remade(
        ds, interactions=[r._replace(user_id=prefix + r.user_id) for r in ds.interactions],
        user_features={prefix + u: raw for u, raw in ds.user_features.items()},
    )


class TestDegenerateData:
    """run_cv on tiny or degenerate pairs: finite metrics, or an error that names the cause."""

    @pytest.mark.parametrize("degrade", [one_record_per_user, lambda ds: all_ratings(ds, 0.5)],
                             ids=["one record per user", "all ratings equal"])
    def test_metrics_are_finite(self, small_pair, degrade):
        ds_a, ds_b = (degrade(ds) for ds in small_pair[:2])
        for rep in run_cv(ds_a, ds_b, small_cfg(), k=2, seed=0):
            assert all(math.isfinite(v) for v in (rep.rmse, rep.mae, rep.precision_at_k)), rep
            assert math.isfinite(rep.recall_at_k) or not any(f.recall_defined for f in rep.per_fold), rep

    def test_no_shared_users_trains_without_a_warm_map_or_a_cross_channel(self, small_pair):
        ds_a, ds_b = small_pair[0], users_renamed(small_pair[1], "b-")
        prepared = prepare_pair(ds_a, ds_b, small_cfg(), k=2, seed=0)
        assert prepared.warm_map is None and not prepared.rows.overlap.any()
        for rep in run_cv(ds_a, ds_b, small_cfg(), k=2, seed=0, prepared=prepared):
            assert all(math.isfinite(v) for v in (rep.rmse, rep.mae, rep.precision_at_k)), rep

    def test_a_domain_with_fewer_records_than_folds_is_named(self, small_pair, monkeypatch):
        ds_a, ds_b, _ = small_pair
        ds_a = remade(ds_a, interactions=ds_a.interactions[:2])
        monkeypatch.setattr(dualmodel, "train_pair_autoencoders", None)  # the split fails first
        with pytest.raises(ValueError, match=r"^domain 'a' has 2 records, fewer than k=3 folds$"):
            run_cv(ds_a, ds_b, small_cfg(), k=3, seed=0)


@pytest.fixture(scope="module")
def reports(small_pair):
    ds_a, ds_b, _ = small_pair
    return run_cv(ds_a, ds_b, small_cfg(), k=2, seed=0)


class TestEmission:

    def test_report_csv_round_trips(self, reports, tmp_path):
        write_report_csv(tmp_path / "report.csv", list(reports))
        with open(tmp_path / "report.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 domains x 2 folds
        by_key = {(r["domain"], int(r["fold"])): r for r in rows}
        for rep in reports:
            for f in rep.per_fold:
                row = by_key[(rep.domain, f.fold)]
                assert float(row["rmse"]) == f.rmse
                assert float(row["mae"]) == f.mae

    def test_report_csv_is_byte_stable(self, reports, tmp_path):
        write_report_csv(tmp_path / "r1.csv", list(reports))
        write_report_csv(tmp_path / "r2.csv", list(reports))
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_sweep_csv_layout(self, small_pair, tmp_path):
        ds_a, ds_b, _ = small_pair
        points = alpha_sweep(ds_a, ds_b, [0.0, 0.03], small_cfg(epochs=1), k=2, seed=0)
        write_sweep_csv(tmp_path / "sweep.csv", points)
        with open(tmp_path / "sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 alphas x 2 domains
        assert [r["alpha"] for r in rows] == ["0.0", "0.0", "0.03", "0.03"]
        assert float(rows[2]["rmse"]) == points[1].report_a.rmse

    def test_summary_json_round_trips(self, reports, tmp_path):
        summary = report_summary(list(reports))
        write_summary_json(tmp_path / "summary.json", summary)
        with open(tmp_path / "summary.json", encoding="utf-8") as fh:
            back = json.load(fh)
        assert back["domains"]["a"]["rmse"] == reports[0].rmse
        assert back["config"]["alpha"] == reports[0].config["alpha"]

    def test_trace_csv(self, tmp_path):
        write_trace_csv(tmp_path / "t.csv", ["epoch", "loss"], [(0, 0.5), (1, 0.25)])
        with open(tmp_path / "t.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss"]
        assert rows[1] == ["0", "0.5"]
        assert rows[2] == ["1", "0.25"]


def oracle_write_trace_csv(path, header, rows):
    """`write_trace_csv` as it was: every cell formatted by its type, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(header))
        for row in rows:
            w.writerow([x if isinstance(x, str) else repr(float(x)) if isinstance(x, float) else str(x) for x in row])


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4) | st.sampled_from(["a,b", 'say "x"', "x\ny", " ", ""])
TRACE_CELLS = st.one_of(
    st.integers(), st.floats(), st.floats().map(np.float64), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.booleans(), TEXT, st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats(width=32).map(np.float32),
    st.none(), st.fractions(max_denominator=9),
)


PLAIN_CELLS = st.integers() | st.floats() | st.booleans() | TEXT
FORMS = ["list", "iterator", "rows read once"]
# by chunks of 2: plain, other (np.float64, None), plain (text that needs quotes, a bool), other (np.int64), ...
MIXED_ROWS = [(0, 0.5), [1, 0.25], (2, np.float64(0.125)), (3, None), (4, 'say "x", y'), [5, True],
              (6, np.int64(7)), (7, 1e-300), [8, "a\nb"], (9, -0.0), (10, np.float32(0.1))]


def formed(rows, form):
    """rows as a list, as an iterator, or as a list of rows that can each be read once."""
    return {"list": rows, "iterator": iter(rows), "rows read once": [iter(row) for row in rows]}[form]


@settings(max_examples=300, deadline=None)
@given(header=st.lists(TEXT, max_size=3),
       rows=st.lists(st.lists(TRACE_CELLS, max_size=4) | st.tuples(st.integers(0, 9), st.floats())
                     | st.lists(PLAIN_CELLS, max_size=4), max_size=12),
       form=st.sampled_from(FORMS), chunk=st.sampled_from([1, 2, 3, features._CHUNK_ROWS]))
@example(header=["iteration", "loss"], rows=MIXED_ROWS, form="list", chunk=2)
@example(header=["iteration", "loss"], rows=MIXED_ROWS, form="iterator", chunk=3)
@example(header=["iteration", "loss"], rows=MIXED_ROWS, form="rows read once", chunk=1)
def test_trace_csv_bytes_are_the_cell_by_cell_writers(header, rows, form, chunk):
    # chunks of 1-3 rows put plain and other cells in different chunks of one table
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(features, "_CHUNK_ROWS", chunk):
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_trace_csv(got, header, formed(rows, form))
        oracle_write_trace_csv(want, header, rows)
        assert got.read_bytes() == want.read_bytes()


class Unprintable:
    def __str__(self):
        raise RuntimeError("cell broke")


def test_a_row_that_raises_leaves_the_header_and_the_chunks_before_its_own(tmp_path, monkeypatch):
    monkeypatch.setattr(features, "_CHUNK_ROWS", 2)

    def broken_trace():
        yield from MIXED_ROWS[:5]
        raise RuntimeError("trace broke")

    for rows, error in ((broken_trace(), "trace broke"), (MIXED_ROWS[:5] + [(5, Unprintable())], "cell broke")):
        path = tmp_path / "t.csv"
        path.write_text("an older table\n", encoding="utf-8")
        with pytest.raises(RuntimeError, match=error):
            write_trace_csv(path, ["iteration", "loss"], rows)
        oracle_write_trace_csv(tmp_path / "want.csv", ["iteration", "loss"], MIXED_ROWS[:4])  # rows 4-5 share a chunk
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_an_iterator_trace_is_written_in_a_small_fraction_of_the_list_forms_memory(tmp_path):
    # the list form holds its list of tuples for the whole write, so building that list bounds its peak from below
    trace = np.linspace(1.0, 0.5, 200_000).tolist()
    peaks = []
    for run in (lambda: list(enumerate(trace)),
                lambda: write_trace_csv(tmp_path / "t.csv", ["i", "loss"], enumerate(trace))):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] / 10, peaks
    oracle_write_trace_csv(tmp_path / "want.csv", ["i", "loss"], enumerate(trace))
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


METRICS = st.floats() | st.floats().map(np.float64) | st.sampled_from([math.nan, np.float64(math.nan), -0.0])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), k=st.integers(1, 9))
def test_report_and_sweep_csv_bytes_are_the_cell_by_cell_writers(data, k):
    def report():
        folds = tuple(evaluate.FoldMetrics(fold, *data.draw(st.tuples(*[METRICS] * 4), label="fold metrics"), True, 3)
                      for fold in range(data.draw(st.integers(1, 3), label="folds")))
        return evaluate.MetricsReport(data.draw(TEXT, label="domain"), *data.draw(st.tuples(*[METRICS] * 4)), k, folds, {})

    points = [evaluate.SweepPoint(data.draw(METRICS, label="alpha"), report(), report())
              for _ in range(data.draw(st.integers(1, 3), label="points"))]
    reports = [rep for pt in points for rep in (pt.report_a, pt.report_b)]
    metrics = [f"precision_at_{k}", f"recall_at_{k}"]
    with tempfile.TemporaryDirectory() as tmp:
        for write, path, header, rows in (
            (write_report_csv, Path(tmp) / "report.csv", ["domain", "fold", "rmse", "mae", *metrics],
             [[rep.domain, f.fold, f.rmse, f.mae, f.precision_at_k, f.recall_at_k] for rep in reports for f in rep.per_fold]),
            (write_sweep_csv, Path(tmp) / "sweep.csv", ["alpha", "domain", "rmse", "mae", *metrics],
             [[pt.alpha, rep.domain, rep.rmse, rep.mae, rep.precision_at_k, rep.recall_at_k]
              for pt in points for rep in (pt.report_a, pt.report_b)]),
        ):
            write(path, reports if write is write_report_csv else points)
            oracle_write_trace_csv(Path(tmp) / "want.csv", header, rows)
            assert path.read_bytes() == (Path(tmp) / "want.csv").read_bytes()
