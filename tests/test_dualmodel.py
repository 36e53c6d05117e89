"""Hybrid n-domain scorer, joint two-domain training loop, and persistence."""

import dataclasses
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from dualrec import dualmodel
from dualrec.autoencoder import ae_encode, train_autoencoder
from dualrec.dualmodel import (
    Domain,
    DualModel,
    ModelStack,
    RatingModel,
    Rows,
    TrainConfig,
    apply_grads,
    dual_loss_and_grads,
    evaluate_loss,
    fit,
    fit_models,
    load_dual_model,
    make_rating_model,
    new_dual_model,
    predict,
    predict_batch,
    predict_from_embeddings,
    entity_vectors,
    prepare_domain,
    save_dual_model,
    shared_user_alignment,
    train_pair,
    train_pair_autoencoders,
)
from dualrec.features import FeatureSchema, FieldSpec, encode, require_disjoint_items, synth_pair
from dualrec.mapping import OrthogonalMap, init_map, orthogonality_defect
from dualrec.numeric import make_rng
from gradcheck import grad_check
from single_domain import domain_embeddings, model_forward, remade, score, train_single
from test_training_kernel import step_batches


def small_config(**overrides):
    base = dict(
        alpha=0.03, embed_dim=4, epochs=3, tol=0.0, lr_a=0.1, lr_b=0.1,
        hidden=(8, 4), ae_epochs=150, ae_lr=0.05,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_pair():
    return synth_pair(n_users=40, n_items_per_domain=15, latent_dim=4,
                      cross_correlation=0.8, noise=0.05, density=0.4, seed=1)


@pytest.fixture(scope="module")
def trained_small(small_pair):
    ds_a, ds_b, _ = small_pair
    dm, traces = train_pair(ds_a, ds_b, small_config(), seed=0)
    return dm, traces


def random_embeddings(dm, n, seed):
    rng = make_rng(seed)
    d = dm.embed_dim
    return rng.random(size=(n, d)), rng.random(size=(n, d))


def rows_of(user_emb, item_emb, ratings, overlap):
    """A one-domain table of embedding rows."""
    return Rows(np.concatenate([user_emb, item_emb], axis=1), ratings, overlap, np.full(len(ratings), "u"), (0, len(ratings)))


def layer_by_layer(model, user_emb, item_emb):
    """The scorer on each (user, item) pair of rows, by the per-layer oracle."""
    return model_forward(model, np.concatenate([user_emb, item_emb], axis=1))[0][:, 0]


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.alpha == 0.03
        assert cfg.embed_dim == 8
        assert cfg.epochs == 100
        assert cfg.tol == 1e-5

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=0.6)
        with pytest.raises(ValueError):
            TrainConfig(alpha=-0.1)

    def test_hidden_is_stored_as_a_tuple(self):
        assert TrainConfig(hidden=[12, 6]) == TrainConfig(hidden=(12, 6))
        assert TrainConfig(hidden=()).hidden == ()


class TestPredict:
    def test_alpha_zero_is_the_within_scorer_bitwise(self, trained_small):
        dm, _ = trained_small
        u, i = random_embeddings(dm, 1, seed=2)
        u, i = u[0], i[0]
        base = DualModel(dm.domains, dm.maps, 0.0)
        for domain, idx in (("a", 0), ("b", 1)):
            assert predict_from_embeddings(base, domain, u, i) == score(base.domains[idx].scorer, u, i)

    def test_out_of_overlap_user_gets_within_score_only(self, trained_small):
        dm, _ = trained_small
        u, i = random_embeddings(dm, 1, seed=3)
        u, i = u[0], i[0]
        assert predict_from_embeddings(dm, "a", u, i, in_overlap=False) == score(dm.domains[0].scorer, u, i)

    def test_half_alpha_tied_weights_make_domain_labels_interchangeable(self, trained_small):
        dm, _ = trained_small
        a, b = dm.domains
        tied = DualModel([a, dataclasses.replace(b, scorer=a.scorer.copy())],
                         {(0, 1): OrthogonalMap(np.eye(dm.embed_dim))}, 0.5)
        u, i = random_embeddings(dm, 1, seed=4)
        u, i = u[0], i[0]
        assert predict_from_embeddings(tied, "a", u, i) == predict_from_embeddings(tied, "b", u, i)

    def test_hand_composed_hybrid(self, trained_small):
        dm, _ = trained_small
        assert dm.alpha == pytest.approx(0.03)
        u, i = random_embeddings(dm, 1, seed=5)
        u, i = u[0], i[0]
        rs_a, rs_b = (dom.scorer for dom in dm.domains)
        x = dm.maps[(0, 1)].x
        want_a = (1 - dm.alpha) * score(rs_a, u, i) + dm.alpha * score(rs_b, x @ u, i)
        assert predict_from_embeddings(dm, "a", u, i) == pytest.approx(want_a, abs=1e-15)
        want_b = (1 - dm.alpha) * score(rs_b, u, i) + dm.alpha * score(rs_a, x.T @ u, i)
        assert predict_from_embeddings(dm, "b", u, i) == pytest.approx(want_b, abs=1e-15)

    def test_predict_from_raw_features_matches_embedding_path(self, small_pair, trained_small):
        ds_a, ds_b, _ = small_pair
        dm, _ = trained_small
        assert [len(groups) for groups in dm.encoder_groups] == [1, 1]  # one stacked product per record
        assert_predict_is_the_embedding_path(dm, (ds_a, ds_b))

    def test_predict_matches_embedding_path_at_unequal_widths(self, small_pair, trained_small):
        dm, datasets = wider_items(trained_small[0], small_pair[:2])
        assert [len(groups) for groups in dm.encoder_groups] == [2, 2]  # user and item encoders apart
        assert_predict_is_the_embedding_path(dm, datasets)

    def test_batch_prediction_matches_single_records(self, trained_small):
        dm, _ = trained_small
        u, i = random_embeddings(dm, 6, seed=6)
        ratings = np.full(6, 0.5)
        overlap = np.array([True, True, False, True, False, True])
        got = predict_batch(dm, "a", rows_of(u, i, ratings, overlap))
        for r in range(6):
            want = predict_from_embeddings(dm, "a", u[r], i[r], in_overlap=bool(overlap[r]))
            assert got[r] == pytest.approx(want, abs=1e-12)

    def test_unknown_domain_label_rejected(self, trained_small):
        dm, _ = trained_small
        with pytest.raises(ValueError):
            predict_from_embeddings(dm, "c", np.zeros(4), np.zeros(4))


def assert_predict_is_the_embedding_path(dm, datasets):
    """On every record of each domain, in and out of the overlap, at dm's alpha and at 0, and on a
    3-domain model of domains (a, b, a): predict equals predict_from_embeddings on ae_encode(encode(...))."""
    a, b = dm.domains
    three = new_dual_model([(dom.ae_user, dom.ae_item) for dom in (a, b, a)], alpha=0.03, seed=5,
                           schemas=[(dom.user_schema, dom.item_schema) for dom in (a, b, a)])
    ds_a, ds_b = datasets
    for model, sets in ((dm, (ds_a, ds_b)), (DualModel(dm.domains, dm.maps, 0.0), (ds_a, ds_b)),
                        (three, (ds_a, ds_b, ds_a))):
        for k, ds in enumerate(sets):
            dom = model.domains[k]
            for rec in ds.interactions:
                user_raw, item_raw = ds.user_features[rec.user_id], ds.item_features[rec.item_id]
                user_emb = ae_encode(dom.ae_user, encode(dom.user_schema, user_raw))
                item_emb = ae_encode(dom.ae_item, encode(dom.item_schema, item_raw))
                for in_overlap in (True, False):
                    want = predict_from_embeddings(model, k, user_emb, item_emb, in_overlap)
                    assert predict(model, k, user_raw, item_raw, in_overlap) == want, (k, rec, in_overlap)


def wider_items(dm, datasets):
    """dm and its datasets with one more item field per domain, a numeric "extra", so that each
    item schema encodes one column more than its user schema; each item encoder is retrained."""
    domains, wider = [], []
    for dom, ds in zip(dm.domains, datasets):
        schema = FeatureSchema(ds.item_schema.fields + (FieldSpec("extra", "numeric", lo=0.0, hi=4.0),))
        items = {item: {**raw, "extra": float(n % 5)} for n, (item, raw) in enumerate(sorted(ds.item_features.items()))}
        ae, _ = train_autoencoder([encode(schema, raw) for raw in items.values()], embed_dim=dm.embed_dim,
                                  epochs=5, seed=0, domain=ds.domain_name, entity="item")
        domains.append(dataclasses.replace(dom, ae_item=ae, item_schema=schema))
        wider.append(remade(ds, item_schema=schema, item_features=items))
    return DualModel(domains, dict(dm.maps), dm.alpha), wider


def make_batch(d, n, seed, overlap_value=True):
    """One model's batch with the leading model axis of a stack of one."""
    rng = make_rng(seed)
    return (
        rng.random(size=(1, n, d)),
        rng.random(size=(1, n, d)),
        rng.random(size=(1, n)),
        np.full((1, n), overlap_value),
    )


def tiny_autoencoder(embed_dim=3):
    ae, _ = train_autoencoder(make_rng(99).random(size=(6, 5)), embed_dim=embed_dim, epochs=1, seed=0)
    return ae


def build_bare_model(alpha, d=3, seed=0, hidden=(4,)):
    # rating scorers and map only; autoencoders are irrelevant to the loss
    # tests, so reuse tiny trained ones
    ae = tiny_autoencoder(d)
    domains = [Domain(make_rating_model(d, seed, k, hidden), ae, ae) for k in (0, 1)]
    return DualModel(domains, {(0, 1): init_map(d, seed)}, alpha)


def stack_from_params(stack, params):
    """A stack shaped like `stack` holding params, [scorer buffer, maps]."""
    return ModelStack(params[0], stack.layout, params[1], stack.alpha)


class TestDualLossAndGrads:
    def test_alpha_zero_decouples_the_domains(self):
        stack = ModelStack.of([build_bare_model(alpha=0.0)])
        batch_b = make_batch(3, 5, seed=1)
        grads_1 = dual_loss_and_grads(stack, *step_batches(0.0, make_batch(3, 5, seed=2), batch_b))[1].copy()
        grads_2 = dual_loss_and_grads(stack, *step_batches(0.0, make_batch(3, 5, seed=3), batch_b))[1]
        # rs_b's gradient (domain slot 1) is independent of whatever domain a saw
        np.testing.assert_array_equal(grads_1[1], grads_2[1])
        assert grads_1[0].tobytes() != grads_2[0].tobytes()

    def test_alpha_zero_map_gradient_is_pure_penalty(self):
        dm = build_bare_model(alpha=0.0)
        from dualrec.mapping import ortho_penalty

        batches = step_batches(0.0, make_batch(3, 5, seed=1), make_batch(3, 5, seed=2))
        *_, grad_x = dual_loss_and_grads(ModelStack.of([dm]), *batches)
        _, pen_grad = ortho_penalty(dm.maps[(0, 1)])
        np.testing.assert_array_equal(grad_x[0], pen_grad)

    def test_gradients_match_finite_differences(self):
        # two models of one stack: the total of their objectives, so each
        # model's gradient must come from its own slice alone
        stack = ModelStack.of([build_bare_model(alpha=0.1, seed=7), build_bare_model(alpha=0.1, seed=8)])
        rng = make_rng(11)
        batch_a = (rng.random((2, 6, 3)), rng.random((2, 6, 3)), rng.random((2, 6)), rng.random((2, 6)) < 0.7)
        batch_b = (rng.random((2, 6, 3)), rng.random((2, 6, 3)), rng.random((2, 6)), np.ones((2, 6), dtype=bool))
        batches = step_batches(0.1, batch_a, batch_b)

        def wrapped(params):
            total, grads, gx = dual_loss_and_grads(stack_from_params(stack, params), *batches)
            return float(total.sum()), [grads, gx]

        assert grad_check(wrapped, [stack.params, stack.x]) <= 1e-4

    def test_one_small_step_reduces_the_combined_loss(self):
        stack = ModelStack.of([build_bare_model(alpha=0.05, seed=3)])
        batches = step_batches(0.05, make_batch(3, 8, seed=21), make_batch(3, 8, seed=22))
        total0, grads, gx = dual_loss_and_grads(stack, *batches)
        apply_grads(stack.params, grads, 1e-3)
        stack.x -= 1e-3 * gx
        total1, *_ = dual_loss_and_grads(stack, *batches)
        assert total1[0] < total0[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf is injected on purpose
    def test_non_finite_loss_raises(self):
        stack = ModelStack.of([build_bare_model(alpha=0.1)])
        u, i, y, ov = make_batch(3, 4, seed=5)
        u[0, 0, 0] = np.inf
        with pytest.raises(FloatingPointError, match=r"^non-finite training loss or gradient; "
                                                     r"lower lr_a, lr_b, lr_map or penalty_weight$"):
            dual_loss_and_grads(stack, *step_batches(0.1, (u, i, y, ov), None))

    def test_a_stack_shares_one_alpha_and_one_shape(self):
        with pytest.raises(ValueError, match="model 1 has alpha 0.2, model 0 0.1; a stack shares one alpha"):
            ModelStack.of([build_bare_model(alpha=0.1), build_bare_model(alpha=0.2)])
        with pytest.raises(ValueError, match="model 1's scorers differ in shape from model 0's"):
            ModelStack.of([build_bare_model(alpha=0.1), build_bare_model(alpha=0.1, hidden=(5,))])


@pytest.fixture(scope="module")
def arrays_pair(small_pair):
    ds_a, ds_b, _ = small_pair
    cfg = small_config()
    vectors = [entity_vectors(ds) for ds in (ds_a, ds_b)]
    (ae_ua, ae_ia), (ae_ub, ae_ib) = train_pair_autoencoders(ds_a, ds_b, cfg, 0, vectors)
    table = Rows.join([prepare_domain(ds_a, domain_embeddings(ds_a, (ae_ua, ae_ia))),
                       prepare_domain(ds_b, domain_embeddings(ds_b, (ae_ub, ae_ib)))])
    return (ae_ua, ae_ia, ae_ub, ae_ib), table


class TestFit:
    def build(self, aes, alpha=0.03, seed=0):
        return new_dual_model([aes[:2], aes[2:]], alpha=alpha, seed=seed, hidden=(8, 4))

    def test_huge_tolerance_stops_after_one_epoch(self, arrays_pair):
        aes, table = arrays_pair
        cfg = small_config(epochs=50, tol=1e9)
        trace_a, trace_b = fit(self.build(aes), table, cfg, seed=0)
        assert len(trace_a) == 2  # the pre-training loss plus one epoch

    def test_fixed_seed_reproduces_traces(self, arrays_pair):
        aes, table = arrays_pair
        cfg = small_config(epochs=4)
        t1 = fit(self.build(aes), table, cfg, seed=5)
        t2 = fit(self.build(aes), table, cfg, seed=5)
        assert t1 == t2

    def test_losses_fall_below_the_pretraining_point(self, arrays_pair):
        aes, table = arrays_pair
        cfg = small_config(epochs=12)
        trace_a, trace_b = fit(self.build(aes), table, cfg, seed=0)
        assert trace_a[-1] < trace_a[0]
        assert trace_b[-1] < trace_b[0]

    def test_map_stays_orthogonal_after_training(self, arrays_pair):
        aes, table = arrays_pair
        dm = self.build(aes)
        fit(dm, table, small_config(epochs=3), seed=0)
        assert orthogonality_defect(dm.maps[(0, 1)].x) <= 1e-6

    def test_alpha_zero_fit_matches_single_domain_training(self, arrays_pair):
        aes, table = arrays_pair
        dm = self.build(aes, alpha=0.0)
        cfg = small_config(alpha=0.0, epochs=4)
        fit(dm, table, cfg, seed=0)
        single_a, _ = train_single(table.domain(0), 0, embed_dim=4, seed=0, epochs=4, tol=0.0,
                                   lr=cfg.lr_a, batch_size=cfg.batch_size, hidden=(8, 4))
        for la, lb in zip(dm.domains[0].scorer.layers, single_a.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)


class TestTrainPair:
    def test_returns_model_and_traces(self, trained_small):
        dm, (trace_a, trace_b) = trained_small
        assert isinstance(dm, DualModel)
        assert len(trace_a) == len(trace_b) == 4  # pre-training point + 3 epochs
        assert orthogonality_defect(dm.maps[(0, 1)].x) <= 1e-6

    def test_map_seeded_from_shared_user_alignment(self, small_pair):
        ds_a, ds_b, _ = small_pair
        cfg = small_config(epochs=1)
        dm, _ = train_pair(ds_a, ds_b, cfg, seed=0)
        vectors = [entity_vectors(ds) for ds in (ds_a, ds_b)]
        encoders = train_pair_autoencoders(ds_a, ds_b, cfg, 0, vectors)
        embeddings = [domain_embeddings(ds, aes) for ds, aes in zip((ds_a, ds_b), encoders)]
        warm = shared_user_alignment(ds_a, ds_b, embeddings)
        assert warm is not None
        # one epoch of updates moves X little; it must still be near the warm
        # start, not near an unrelated random rotation
        assert np.linalg.norm(dm.maps[(0, 1)].x - warm.x) < 0.2

    def test_alignment_requires_enough_shared_users(self, small_pair):
        ds_a, ds_b, _ = small_pair
        cfg = small_config()
        encoders = train_pair_autoencoders(ds_a, ds_b, cfg, 0, [entity_vectors(ds) for ds in (ds_a, ds_b)])

        keep = sorted(ds_b.user_features)[:3]  # below embed_dim=4
        recs = tuple(r for r in ds_b.interactions if r.user_id in keep)
        tiny = remade(ds_b, interactions=recs, user_features={u: ds_b.user_features[u] for u in keep})
        embeddings = [domain_embeddings(ds, aes) for ds, aes in zip((ds_a, tiny), encoders)]
        assert shared_user_alignment(ds_a, tiny, embeddings) is None

    def test_domains_that_share_item_ids_are_refused_before_any_autoencoder_trains(self, small_pair, monkeypatch):
        ds_a, ds_b, _ = small_pair
        shared = remade(ds_b, item_features={**ds_b.item_features, **ds_a.item_features})
        with pytest.raises(ValueError, match="share") as want:
            require_disjoint_items(ds_a, shared)  # the refusal of prepare_pair and cli.load_pair
        monkeypatch.setattr(dualmodel, "train_pair_autoencoders", None)  # training would raise a TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            train_pair(ds_a, shared, small_config(), seed=0)

    def test_persistence_round_trip(self, trained_small, tmp_path):
        dm, _ = trained_small
        save_dual_model(dm, tmp_path / "m.npz")
        back = load_dual_model(tmp_path / "m.npz")
        u, i = random_embeddings(dm, 1, seed=9)
        u, i = u[0], i[0]
        for domain in ("a", "b"):
            assert predict_from_embeddings(back, domain, u, i) == predict_from_embeddings(dm, domain, u, i)
        np.testing.assert_array_equal(back.maps[(0, 1)].x, dm.maps[(0, 1)].x)
        assert back.alpha == dm.alpha

    def test_saved_model_predicts_from_raw_features(self, trained_small, small_pair, tmp_path):
        dm, _ = trained_small
        ds_a, _, _ = small_pair
        save_dual_model(dm, tmp_path / "m.npz")
        back = load_dual_model(tmp_path / "m.npz")
        rec = ds_a.interactions[0]
        want = predict(dm, "a", ds_a.user_features[rec.user_id], ds_a.item_features[rec.item_id])
        got = predict(back, "a", ds_a.user_features[rec.user_id], ds_a.item_features[rec.item_id])
        assert got == want


def with_part(dm, k, **part):
    """dm with domain k's parts replaced, built (and so checked) anew."""
    domains = list(dm.domains)
    domains[k] = dataclasses.replace(domains[k], **part)
    return DualModel(domains, dm.maps, dm.alpha)


class TestModelContract:
    """DualModel checks its dimension chain whether it is built or loaded."""

    def test_scorer_takes_twice_the_embed_dim(self, trained_small):
        dm, _ = trained_small
        with pytest.raises(ValueError, match=r"rs_b layer 0 takes 6 inputs, expected 2 \* embed_dim = 8"):
            with_part(dm, 1, scorer=make_rating_model(3, 0, 1, (8, 4)))

    def test_layers_chain(self, trained_small):
        dm, _ = trained_small
        layers = dm.domains[0].scorer.layers
        with pytest.raises(ValueError, match="rs_a layer 1 takes 4 inputs"):
            with_part(dm, 0, scorer=RatingModel([layers[0], layers[2]]))

    def test_scorer_ends_in_one_output(self, trained_small):
        dm, _ = trained_small
        with pytest.raises(ValueError, match="rs_a ends in 4 outputs"):
            with_part(dm, 0, scorer=RatingModel(dm.domains[0].scorer.layers[:-1]))

    def test_scorers_share_one_architecture(self, trained_small):
        dm, _ = trained_small
        with pytest.raises(ValueError, match="^rs_b differs in shape from rs_a; a model's scorers share one architecture$"):
            with_part(dm, 1, scorer=make_rating_model(4, 0, 1, (6,)))

    def test_map_is_d_by_d(self, trained_small):
        dm, _ = trained_small
        with pytest.raises(ValueError, match="map is 3x3"):
            DualModel(dm.domains, {(0, 1): OrthogonalMap(np.eye(3))}, dm.alpha)

    def test_autoencoders_share_one_embed_dim(self, trained_small):
        dm, _ = trained_small
        (ae_ua, ae_ia), (_, ae_ib) = ((dom.ae_user, dom.ae_item) for dom in dm.domains)
        with pytest.raises(ValueError, match="ae_user_b embed_dim 3 != ae_user_a embed_dim 4"):
            new_dual_model([(ae_ua, ae_ia), (tiny_autoencoder(3), ae_ib)], alpha=0.03, seed=0)

    def test_mixed_embed_dims_are_refused_on_build_naming_the_domain(self):
        # this model once built, and predict then failed with a bare matmul error
        ae4, ae3 = tiny_autoencoder(4), tiny_autoencoder(3)
        with pytest.raises(ValueError, match="^ae_user_b embed_dim 3 != ae_user_a embed_dim 4$"):
            new_dual_model([(ae4, ae4), (ae3, ae3), (ae4, ae4)], alpha=0.03, seed=0, hidden=(4,))

    def test_two_domains_or_more_with_one_map_per_pair(self):
        ae = tiny_autoencoder()
        dm = new_dual_model([(ae, ae)] * 3, alpha=0.03, seed=0, hidden=(4,))
        with pytest.raises(ValueError, match="^a model needs at least two domains, got 1$"):
            DualModel(dm.domains[:1], {}, 0.03)
        with pytest.raises(ValueError, match=r"^maps must cover exactly the unordered pairs \[\(0, 1\), \(0, 2\), \(1, 2\)\], "):
            DualModel(dm.domains, {pair: dm.maps[pair] for pair in [(0, 1), (1, 2)]}, 0.03)
        with pytest.raises(ValueError, match="^maps must cover exactly"):
            DualModel(dm.domains, {**dm.maps, (1, 0): dm.maps[(0, 1)]}, 0.03)
        with pytest.raises(ValueError, match="^map ac is 2x2, expected embed_dim 3x3$"):
            DualModel(dm.domains, {**dm.maps, (0, 2): OrthogonalMap(np.eye(2))}, 0.03)
        with pytest.raises(ValueError, match="^rs_c ends in 4 outputs, expected 1$"):
            with_part(dm, 2, scorer=RatingModel(dm.domains[2].scorer.layers[:-1]))

    @pytest.mark.parametrize("domains, pairs", [(2, 3), (2, 1), (3, 2)])
    def test_a_schema_pair_per_domain_or_none(self, domains, pairs):
        # zipped with the encoders, extra pairs were dropped and too few cut the model short
        ae = tiny_autoencoder()
        with pytest.raises(ValueError, match=f"^{domains} domains of encoders but {pairs} schema pairs$"):
            new_dual_model([(ae, ae)] * domains, alpha=0.03, seed=0, hidden=(4,), schemas=[(None, None)] * pairs)

    def test_training_and_saving_refuse_other_domain_counts(self, tmp_path):
        ae = tiny_autoencoder()
        dm = new_dual_model([(ae, ae)] * 3, alpha=0.03, seed=0, hidden=(4,))
        with pytest.raises(ValueError, match="^model 0 has 3 domains; the training kernel runs two$"):
            ModelStack.of([dm])
        with pytest.raises(ValueError, match="^a dualrec-dual-1 bundle holds two domains, this model has 3$"):
            save_dual_model(dm, tmp_path / "m.npz")


class TestBundle:
    """A bundle that breaks the model contract fails on load, naming the cause."""

    def edited(self, dm, tmp_path, edit):
        save_dual_model(dm, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as npz:
            arrays = dict(npz)
        edit(arrays)
        np.savez(tmp_path / "edited.npz", **arrays)
        return tmp_path / "edited.npz"

    def test_transposed_scorer_weight(self, trained_small, tmp_path):
        dm, _ = trained_small
        path = self.edited(dm, tmp_path, lambda a: a.update(rs0_l1_w=a["rs0_l1_w"].T))
        with pytest.raises(ValueError, match=r"rs_a \(bundle keys rs0_\*\)"):
            load_dual_model(path)

    def test_transposed_autoencoder_weight(self, trained_small, tmp_path):
        dm, _ = trained_small
        path = self.edited(dm, tmp_path, lambda a: a.update(ae_i1_enc_w=a["ae_i1_enc_w"].T))
        with pytest.raises(ValueError, match=r"ae_item_b \(bundle keys ae_i1_\*\)"):
            load_dual_model(path)

    @pytest.mark.parametrize("key", ["rs1_l2_b", "ae_u0_meta", "map_x", "alpha"])
    def test_dropped_key(self, trained_small, tmp_path, key):
        dm, _ = trained_small
        path = self.edited(dm, tmp_path, lambda a: a.pop(key))
        with pytest.raises(ValueError, match=f"model bundle has no key '{key}'"):
            load_dual_model(path)

    @pytest.mark.parametrize(
        "key, value", [("rs0_l0_w", np.nan), ("map_x", np.inf), ("ae_u1_enc_w", -np.inf)]
    )
    def test_non_finite_value_refused(self, trained_small, tmp_path, key, value):
        dm, _ = trained_small

        def corrupt(arrays):
            arrays[key] = arrays[key].copy()
            arrays[key][0, 0] = value

        path = self.edited(dm, tmp_path, corrupt)
        with pytest.raises(ValueError, match=f"model bundle key '{key}' holds a non-finite value"):
            load_dual_model(path)

    @pytest.mark.parametrize("key", ["rs0_l0_w", "map_x", "ae_u0_enc_b", "alpha", "rs1_n"])
    def test_a_number_stored_as_text_is_refused(self, trained_small, tmp_path, key):
        # text would pass as numbers through the float conversion of the layers, 'nan' with it
        dm, _ = trained_small

        def as_text(arrays):
            arrays[key] = arrays[key].astype(np.str_)
            arrays[key].reshape(-1)[0] = "nan"

        path = self.edited(dm, tmp_path, as_text)
        with pytest.raises(ValueError, match=rf"^model bundle key '{key}' holds <U\d+ values, expected numbers$"):
            load_dual_model(path)

    def test_schema_narrower_than_its_autoencoder(self, trained_small, tmp_path):
        # a schema without its last field encodes fewer columns than ae_user_a reads;
        # predict would fail later with a bare matmul shape error
        dm, _ = trained_small
        path = self.edited(dm, tmp_path, lambda a: a.update(schema_u0=np.array(str(a["schema_u0"]).rstrip("\n").rsplit("\n", 1)[0])))
        width = dm.domains[0].ae_user.input_dim
        with pytest.raises(ValueError, match=rf"^user_schema_a encodes \d+ columns, ae_user_a takes {width} "
                                             r"\(bundle key schema_u0\)$"):
            load_dual_model(path)

    def test_truncated_scorer(self, trained_small, tmp_path):
        dm, _ = trained_small
        path = self.edited(dm, tmp_path, lambda a: a.update(rs0_n=np.array(2)))
        with pytest.raises(ValueError, match="rs_a ends in 4 outputs, expected 1"):
            load_dual_model(path)

    @pytest.mark.parametrize("key, value, message", [
        ("rs0_n", np.array(2.5), r"^rs_a \(bundle keys rs0_\*\): rs0_n=2.5 is not an integer$"),
        ("rs1_n", np.array(0), r"^rs_b \(bundle keys rs1_\*\): rs1_n=0 below 1$"),
        ("rs0_n", np.array(-1), r"^rs_a \(bundle keys rs0_\*\): rs0_n=-1 below 1$"),
        ("rs0_n", np.array([2]), r"^rs_a \(bundle keys rs0_\*\): model bundle key 'rs0_n' holds shape \(1,\), expected \(\)$"),
    ])
    def test_a_scorer_layer_count_that_is_no_positive_integer_names_its_key(self, trained_small, tmp_path,
                                                                           key, value, message):
        dm, _ = trained_small
        path = self.edited(dm, tmp_path, lambda a: a.update({key: value}))
        with pytest.raises(ValueError, match=message):
            load_dual_model(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("alpha", np.array([0.03, 0.03]), r"^model bundle key 'alpha' holds shape \(2,\), expected \(\)$"),
            ("map_x", np.ones(16), r"^map \(bundle key map_x\): mapping matrix must be 2-D, got shape \(16,\)$"),
            ("schema_u0", np.array("nonsense"), r"^user_schema_a \(bundle key schema_u0\): schema line 1: "),
            ("map_pair", np.array(["a", "b", "c"]), r"^model bundle key 'map_pair' holds shape \(3,\), expected \(2,\)$"),
            ("ae_i1_meta", np.array("b"), r"^ae_item_b \(bundle keys ae_i1_\*\): key ae_i1_meta holds shape \(\), "
                                          r"expected \(2,\): \(domain, entity\)$"),
        ],
        ids=["alpha", "map_x", "schema_u0", "map_pair", "ae_i1_meta"],
    )
    def test_malformed_key_is_named(self, trained_small, tmp_path, key, value, message):
        dm, _ = trained_small
        path = self.edited(dm, tmp_path, lambda a: a.update({key: value}))
        with pytest.raises(ValueError, match=message):
            load_dual_model(path)


# A dualrec-dual-1 bundle written by the two-domain model type this package
# had before DualModel took n domains: embed_dim 3, hidden (4,), alpha 0.2,
# autoencoders from new_autoencoder (seeds 0-3, untrained), scorers from
# make_rating_model(3, 3, k, (4,)), and as map the Householder reflection
# I - 2 v v^T / (v^T v) of v = make_rng(7).standard_normal(3); no LAPACK call
# made any of it. FIXTURE_PREDICTIONS are what that model type predicted from
# the embeddings of FIXTURE_EMBEDDINGS, per (domain, in_overlap).
FIXTURE = Path(__file__).parent / "data" / "dual_bundle_v1.npz"
FIXTURE_PREDICTIONS = {
    ("a", True): [0.5785945868281457, 0.5695678077668505, 0.6311249956217826],
    ("a", False): [0.5265301144567186, 0.5179392231910133, 0.5836317605138474],
    ("b", True): [0.7315876074873461, 0.6714478500706585, 0.7291486878140621],
    ("b", False): [0.7823154724949607, 0.7190343134990222, 0.7581873400423949],
}


def fixture_embeddings():
    rng = make_rng(11)
    return rng.random((3, 3)), rng.random((3, 3))


class TestBundleCompatibility:
    def test_loads_and_saves_back_byte_for_byte(self, tmp_path):
        save_dual_model(load_dual_model(FIXTURE), tmp_path / "again.npz")
        with np.load(FIXTURE) as want, np.load(tmp_path / "again.npz") as got:
            assert got.files == want.files
            for key in want.files:
                assert (got[key].dtype, got[key].shape) == (want[key].dtype, want[key].shape), key
                assert got[key].tobytes() == want[key].tobytes(), key

    def test_predicts_what_it_predicted_when_written(self):
        dm = load_dual_model(FIXTURE)
        users, items = fixture_embeddings()
        for (domain, in_overlap), want in FIXTURE_PREDICTIONS.items():
            got = [predict_from_embeddings(dm, domain, u, i, in_overlap) for u, i in zip(users, items)]
            assert got == pytest.approx(want, abs=1e-15), (domain, in_overlap)


# shape and dtype mutations of one bundle array
MUTATIONS = {
    "scalar": lambda a: a.reshape(-1)[:1].reshape(()),
    "one entry": lambda a: a.reshape(-1)[:1],
    "no entry": lambda a: a.reshape(-1)[:0],
    "extra axis": lambda a: a[None],
    "text": lambda a: a.astype(np.str_),
    "integers": lambda a: np.zeros(a.shape, dtype=np.int64),
}


def load_with(key, array):
    """load_dual_model on the fixture bundle with array in place of key's."""
    with np.load(FIXTURE) as npz:
        data = dict(npz)
    data[key] = array
    buf = io.BytesIO()
    np.savez(buf, **data)
    buf.seek(0)
    return load_dual_model(buf)


TEXT_KEYS = re.compile(r"version|map_pair|schema_.*|.*_act|.*_meta")


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_every_key_mutated_loads_or_fails_with_a_value_error(mutation):
    with np.load(FIXTURE) as npz:
        data = dict(npz)
    for key, array in data.items():
        error = None
        try:
            load_with(key, MUTATIONS[mutation](array))
        except ValueError as exc:
            error = str(exc)
        if mutation == "text" and not TEXT_KEYS.fullmatch(key):
            # the numbers of a numeric key stored as text are refused by that key
            assert error == f"model bundle key {key!r} holds {array.astype(np.str_).dtype} values, expected numbers"


@given(key=st.sampled_from(sorted(np.load(FIXTURE).files)),
       array=arrays(st.sampled_from([np.float64, np.int64, np.bool_, "<U4"]), array_shapes(min_dims=0, min_side=0)))
def test_any_array_in_place_of_a_key_loads_or_fails_with_a_value_error(key, array):
    try:
        load_with(key, array)
    except ValueError:
        pass


class TestEvaluateLoss:
    def test_matches_manual_mse(self, trained_small):
        dm, _ = trained_small
        u, i = random_embeddings(dm, 10, seed=13)
        ratings = make_rng(14).random(10)
        rows = rows_of(u, i, ratings, np.ones(10, dtype=bool))
        preds = predict_batch(dm, "b", rows)
        want = float(np.mean((preds - ratings) ** 2))
        assert evaluate_loss(dm, rows, "b") == pytest.approx(want, rel=1e-12)


def three_domain_model(alpha):
    """Three domains of one tiny autoencoder; each pair's map draws from its own stream."""
    ae = tiny_autoencoder()
    return new_dual_model([(ae, ae)] * 3, alpha=alpha, seed=1, hidden=(4,))


class TestMultiDomain:
    """The one model type at n domains; at n = 2 its blend is the dual formula."""

    def test_two_domain_view_matches_dual_predictions_bitwise(self, trained_small):
        dm, _ = trained_small
        rs_a, rs_b = (dom.scorer for dom in dm.domains)
        x, alpha = dm.maps[(0, 1)].x, dm.alpha
        (u,), (i,) = random_embeddings(dm, 1, seed=15)
        assert predict_from_embeddings(dm, "a", u, i) == (1 - alpha) * score(rs_a, u, i) + alpha * score(rs_b, x @ u, i)
        assert predict_from_embeddings(dm, "b", u, i) == (1 - alpha) * score(rs_b, u, i) + alpha * score(rs_a, x.T @ u, i)
        u, i = random_embeddings(dm, 7, seed=16)
        overlap = np.array([True, False, True, True, False, True, True])
        alpha_vec = np.where(overlap, alpha, 0.0)
        rows = rows_of(u, i, np.zeros(7), overlap)
        for k, (own, other, mapped) in enumerate(((rs_a, rs_b, u @ x.T), (rs_b, rs_a, u @ x))):
            want = (1.0 - alpha_vec) * layer_by_layer(own, u, i) + alpha_vec * layer_by_layer(other, mapped, i)
            assert predict_batch(dm, k, rows).tobytes() == want.tobytes()

    def test_each_domain_pair_starts_from_its_own_map(self):
        maps = [link.x for link in three_domain_model(alpha=0.1).maps.values()]
        assert len(maps) == 3
        for j in range(3):
            assert orthogonality_defect(maps[j]) <= 1e-10
            for k in range(j):
                assert np.abs(maps[j] - maps[k]).max() > 1e-3, (j, k)
        ae = tiny_autoencoder()
        two = new_dual_model([(ae, ae)] * 2, alpha=0.1, seed=1, hidden=(4,))
        assert two.maps[(0, 1)].x.tobytes() == init_map(3, 1).x.tobytes()  # every two-domain output keeps its draw

    def test_alpha_zero_reduces_to_single_scorer(self):
        dm = three_domain_model(alpha=0.0)
        rng = make_rng(16)
        u, i = rng.random(3), rng.random(3)
        for k in range(3):
            assert predict_from_embeddings(dm, k, u, i) == score(dm.domains[k].scorer, u, i)

    def test_three_domain_prediction_composes_by_hand(self):
        dm = three_domain_model(alpha=0.03)
        rng = make_rng(17)
        u, i = rng.random(3), rng.random(3)
        for k, domain in enumerate("abc"):
            cross = sum(
                score(dm.domains[j].scorer, dm.cross_matrix(j, k) @ u, i)
                for j in range(3) if j != k
            )
            want = 0.97 * score(dm.domains[k].scorer, u, i) + (0.03 / 2) * cross
            assert predict_from_embeddings(dm, domain, u, i) == pytest.approx(want, abs=1e-15)
            assert predict_from_embeddings(dm, domain, u, i, in_overlap=False) == score(dm.domains[k].scorer, u, i)

    def test_three_domain_batch_matches_single_records(self):
        dm = three_domain_model(alpha=0.1)
        rng = make_rng(18)
        u, i = rng.random((5, 3)), rng.random((5, 3))
        overlap = np.array([True, False, True, True, False])
        rows = rows_of(u, i, np.zeros(5), overlap)
        for k in range(3):
            got = predict_batch(dm, k, rows)
            for r in range(5):
                assert got[r] == pytest.approx(predict_from_embeddings(dm, k, u[r], i[r], bool(overlap[r])), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_batch_prediction_is_its_oracle_composition_bytewise(self, n):
        # random rows, overlap flags and transfer rates (0 among them), composed in predict_batch's order
        ae = tiny_autoencoder()
        rng = make_rng(19, n)
        for case in range(20):
            alpha = (0.0, 0.03, float(rng.uniform(0.0, 0.5)))[case % 3]
            dm = new_dual_model([(ae, ae)] * n, alpha=alpha, seed=case, hidden=(5, 3))
            size = int(rng.integers(1, 40))
            u, i = rng.normal(size=(2, size, dm.embed_dim))
            overlap = rng.random(size) < 0.5
            alpha_vec = np.where(overlap, alpha, 0.0)
            for k in range(n):
                cross = sum(layer_by_layer(dm.domains[j].scorer, u @ dm.cross_matrix(j, k).T, i)
                            for j in range(n) if j != k)
                want = (1.0 - alpha_vec) * layer_by_layer(dm.domains[k].scorer, u, i) + alpha_vec / (n - 1) * cross
                got = predict_batch(dm, k, rows_of(u, i, np.zeros(size), overlap))
                assert got.tobytes() == want.tobytes(), (case, k)

    def test_cross_matrices_are_transpose_consistent(self):
        dm = three_domain_model(alpha=0.1)
        for j in range(3):
            for k in range(3):
                if j != k:
                    np.testing.assert_array_equal(dm.cross_matrix(j, k), dm.cross_matrix(k, j).T)
        # maps[(j, k)] takes domain-j embeddings into domain k
        np.testing.assert_array_equal(dm.cross_matrix(2, 0), dm.maps[(0, 2)].x)

    def test_domain_letters_follow_the_domain_count(self):
        dm = three_domain_model(alpha=0.1)
        u, i = np.zeros(3), np.zeros(3)
        assert predict_from_embeddings(dm, "C", u, i) == predict_from_embeddings(dm, 2, u, i)
        with pytest.raises(ValueError, match=r"^unknown domain 'd', expected 'a'/'b'/'c' or 0/1/2$"):
            predict_from_embeddings(dm, "d", u, i)

    @pytest.mark.parametrize("domain", [True, False, 1.0, 0.0, np.float64(2.0), np.bool_(True), 1.5])
    def test_a_bool_or_a_number_that_is_not_integral_is_no_domain(self, domain):
        dm = three_domain_model(alpha=0.1)
        with pytest.raises(ValueError, match=r"^unknown domain .*, expected 'a'/'b'/'c' or 0/1/2$"):
            dm.index(domain)

    def test_a_numpy_integer_is_a_domain(self):
        assert three_domain_model(alpha=0.1).index(np.int64(2)) == 2

    @pytest.mark.parametrize("entity, user, item, shape", [
        ("user", np.zeros(2), np.zeros(3), (2,)), ("item", np.zeros(3), np.zeros(4), (4,)),
        ("user", np.zeros((1, 3)), np.zeros(3), (1, 3)),
    ])
    def test_an_embedding_of_another_width_names_its_part_and_both_widths(self, entity, user, item, shape):
        dm = three_domain_model(alpha=0.1)
        for in_overlap in (True, False):
            with pytest.raises(ValueError, match=rf"^the {entity} embedding of domain b has shape "
                                                 rf"{re.escape(str(shape))}, expected \(3,\)$"):
                predict_from_embeddings(dm, "b", user, item, in_overlap)

    @pytest.mark.parametrize("entity, bad", [("user", np.nan), ("item", np.inf), ("user", -np.inf), ("item", "x")])
    def test_an_embedding_that_holds_no_finite_number_names_its_part(self, entity, bad):
        dm = three_domain_model(alpha=0.1)
        emb = {"user": [0.5, 0.5, 0.5], "item": [0.5, 0.5, 0.5]}
        emb[entity] = [0.5, bad, 0.5]
        for in_overlap in (True, False):
            with pytest.raises(ValueError, match=rf"^the {entity} embedding of domain b holds .*, expected finite numbers$"):
                predict_from_embeddings(dm, "b", emb["user"], emb["item"], in_overlap)


# ---------------------------------------------------------------------------
# the scorer buffer: however a model gets its arrays, a prediction reads its layers


def composed(dm, k, u, i, in_overlap=True):
    """A hybrid rating composed by hand through the oracle's `score`, in predict_from_embeddings' order."""
    alpha = dm.alpha if in_overlap else 0.0
    within = score(dm.domains[k].scorer, u, i)
    if alpha == 0.0:
        return within
    cross = 0.0
    for j, dom in enumerate(dm.domains):
        if j != k:
            cross += score(dom.scorer, dm.cross_matrix(j, k) @ u, i)
    return (1.0 - alpha) * within + alpha / (len(dm.domains) - 1) * cross


def assert_predictions_follow(dm, write, seed=0):
    """After write() changes the scorers in place, every prediction of dm moves and equals its
    composition through the oracle's `score` bit for bit."""
    (u,), (i,) = random_embeddings(dm, 1, seed)
    domains = range(len(dm.domains))
    before = [predict_from_embeddings(dm, k, u, i, in_overlap=False) for k in domains]
    write()
    assert [predict_from_embeddings(dm, k, u, i, in_overlap=False) for k in domains] != before
    for k in domains:
        for in_overlap in (True, False):
            assert predict_from_embeddings(dm, k, u, i, in_overlap) == composed(dm, k, u, i, in_overlap), (k, in_overlap)


def assert_reads_its_layers(dm):
    """A write into a scorer layer reaches the next prediction; so does a step of a training
    stack the model is in (two-domain models, which the training kernel runs)."""
    layer = dm.domains[-1].scorer.layers[0]

    def write_layer():
        layer.weights[...] *= 1.5
        layer.bias[...] += 0.25

    assert_predictions_follow(dm, write_layer)
    if len(dm.domains) == 2:
        stack = ModelStack.of([dm])
        assert np.shares_memory(dm.params, stack.params)
        assert_predictions_follow(dm, lambda: apply_grads(stack.params, np.full_like(stack.params, 0.05), 1.0), seed=1)


def assert_reads_its_encoders(dm, datasets):
    """A write into a model's encoder weights reaches the next predict, which still equals
    predict_from_embeddings on ae_encode(encode(...)) bit for bit."""
    for k, ds in enumerate(datasets):
        rec = ds.interactions[0]
        user_raw, item_raw = ds.user_features[rec.user_id], ds.item_features[rec.item_id]
        dom = dm.domains[k]
        for ae in (dom.ae_user, dom.ae_item):
            before = predict(dm, k, user_raw, item_raw)
            ae.encoder.weights[...] *= 1.5
            ae.encoder.bias[...] += 0.25
            assert predict(dm, k, user_raw, item_raw) != before, (k, ae.entity)
            embeddings = (ae_encode(dom.ae_user, encode(dom.user_schema, user_raw)),
                          ae_encode(dom.ae_item, encode(dom.item_schema, item_raw)))
            assert predict(dm, k, user_raw, item_raw) == predict_from_embeddings(dm, k, *embeddings)


class TestEncoderGroups:
    """However a model's encoders are grouped, a prediction reads the model's own copies of them."""

    def test_a_trained_model(self, small_pair, trained_small):
        dm, _ = trained_small
        assert_reads_its_encoders(DualModel(dm.domains, dict(dm.maps), dm.alpha), small_pair[:2])

    def test_a_model_at_unequal_widths(self, small_pair, trained_small):
        assert_reads_its_encoders(*wider_items(trained_small[0], small_pair[:2]))

    def test_a_loaded_model(self, small_pair, trained_small, tmp_path):
        save_dual_model(trained_small[0], tmp_path / "m.npz")
        assert_reads_its_encoders(load_dual_model(tmp_path / "m.npz"), small_pair[:2])

    def test_the_source_keeps_its_encoders(self, small_pair, trained_small):
        source, _ = trained_small
        ds_a = small_pair[0]
        rec = ds_a.interactions[0]
        raw = ds_a.user_features[rec.user_id], ds_a.item_features[rec.item_id]
        want = predict(source, 0, *raw)
        weights = [dom.ae_user.encoder.weights.copy() for dom in source.domains]
        assert_reads_its_encoders(DualModel(source.domains, dict(source.maps), source.alpha), small_pair[:2])
        assert predict(source, 0, *raw) == want
        assert all(np.array_equal(dom.ae_user.encoder.weights, w) for dom, w in zip(source.domains, weights))


class TestScorerBuffer:
    def test_the_layers_view_one_buffer(self):
        dm = three_domain_model(alpha=0.1)
        assert dm.params.shape == (3, sum(n_in * n_out + n_out for n_in, n_out, _ in dm.layout))
        for k, dom in enumerate(dm.domains):
            assert all(np.shares_memory(a, dm.params[k]) for l in dom.scorer.layers for a in (l.weights, l.bias))

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_new_model(self, n):
        ae = tiny_autoencoder()
        assert_reads_its_layers(new_dual_model([(ae, ae)] * n, alpha=0.2, seed=0, hidden=(4,)))

    def test_a_loaded_model(self, trained_small, tmp_path):
        save_dual_model(trained_small[0], tmp_path / "m.npz")
        assert_reads_its_layers(load_dual_model(tmp_path / "m.npz"))

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_model_built_on_another_models_domains(self, n):
        ae = tiny_autoencoder()
        source = new_dual_model([(ae, ae)] * n, alpha=0.2, seed=0, hidden=(4,))
        (u,), (i,) = random_embeddings(source, 1, seed=2)
        want = [predict_from_embeddings(source, k, u, i) for k in range(n)]
        assert_reads_its_layers(DualModel(source.domains, dict(source.maps), 0.3))
        # the source keeps its own arrays, and still reads them
        assert [predict_from_embeddings(source, k, u, i) for k in range(n)] == want
        assert_reads_its_layers(source)

    def test_a_fitted_model(self, arrays_pair):
        aes, table = arrays_pair
        dm = new_dual_model([aes[:2], aes[2:]], alpha=0.03, seed=0, hidden=(8, 4))
        fit(dm, table, small_config(epochs=2), seed=0)
        assert_reads_its_layers(dm)

    def test_models_fitted_as_one_stack_read_it_while_they_train(self, arrays_pair, monkeypatch):
        aes, table = arrays_pair
        models = [new_dual_model([aes[:2], aes[2:]], alpha=0.03, seed=s, hidden=(8, 4)) for s in range(3)]
        steps = []

        def checked_step(params, grads, lr):
            if not steps:  # the first step moves the whole stack
                assert all(np.shares_memory(dm.params, params) for dm in models)
                for m, dm in enumerate(models):
                    assert_predictions_follow(dm, lambda: apply_grads(params[:, m : m + 1], grads[:, m : m + 1], lr), m)
            else:
                apply_grads(params, grads, lr)
            steps.append(params.shape[1])

        monkeypatch.setattr(dualmodel, "apply_grads", checked_step)
        fit_models(models, table, small_config(epochs=2), [0, 1, 2])
        assert steps[0] == 3
        for dm in models:
            assert_reads_its_layers(dm)
