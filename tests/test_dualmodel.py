"""Hybrid dual-domain scorer, joint training loop, and n-domain extension."""

import dataclasses

import numpy as np
import pytest

from dualrec.autoencoder import ae_encode, train_autoencoder
from dualrec.dualmodel import (
    DualModel,
    RatingModel,
    TrainConfig,
    TrainingArrays,
    dual_loss_and_grads,
    evaluate_loss,
    fit,
    load_dual_model,
    make_rating_model,
    multi_from_dual,
    new_dual_model,
    new_multi_model,
    predict,
    predict_batch,
    predict_from_embeddings,
    predict_multi_from_embeddings,
    prepare_domain,
    save_dual_model,
    score,
    shared_user_alignment,
    train_pair,
)
from dualrec.features import encode, synth_pair
from dualrec.mapping import OrthogonalMap, orthogonality_defect
from dualrec.numeric import grad_check, make_rng
from single_domain import train_single


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
        base = DualModel(
            dm.rs_a, dm.rs_b, dm.map, 0.0,
            dm.ae_user_a, dm.ae_item_a, dm.ae_user_b, dm.ae_item_b,
        )
        for domain, idx in (("a", 0), ("b", 1)):
            assert predict_from_embeddings(base, domain, u, i) == score(base.scorer(idx), u, i)

    def test_out_of_overlap_user_gets_within_score_only(self, trained_small):
        dm, _ = trained_small
        u, i = random_embeddings(dm, 1, seed=3)
        u, i = u[0], i[0]
        assert predict_from_embeddings(dm, "a", u, i, in_overlap=False) == score(dm.rs_a, u, i)

    def test_half_alpha_tied_weights_make_domain_labels_interchangeable(self, trained_small):
        dm, _ = trained_small
        tied = DualModel(
            dm.rs_a, dm.rs_a.copy(), OrthogonalMap(np.eye(dm.embed_dim)), 0.5,
            dm.ae_user_a, dm.ae_item_a, dm.ae_user_b, dm.ae_item_b,
        )
        u, i = random_embeddings(dm, 1, seed=4)
        u, i = u[0], i[0]
        assert predict_from_embeddings(tied, "a", u, i) == predict_from_embeddings(tied, "b", u, i)

    def test_hand_composed_hybrid(self, trained_small):
        dm, _ = trained_small
        assert dm.alpha == pytest.approx(0.03)
        u, i = random_embeddings(dm, 1, seed=5)
        u, i = u[0], i[0]
        want_a = (1 - dm.alpha) * score(dm.rs_a, u, i) + dm.alpha * score(dm.rs_b, dm.map.x @ u, i)
        assert predict_from_embeddings(dm, "a", u, i) == pytest.approx(want_a, abs=1e-15)
        want_b = (1 - dm.alpha) * score(dm.rs_b, u, i) + dm.alpha * score(dm.rs_a, dm.map.x.T @ u, i)
        assert predict_from_embeddings(dm, "b", u, i) == pytest.approx(want_b, abs=1e-15)

    def test_predict_from_raw_features_matches_embedding_path(self, small_pair, trained_small):
        ds_a, _, _ = small_pair
        dm, _ = trained_small
        rec = ds_a.interactions[0]
        user_emb = ae_encode(dm.ae_user_a, encode(ds_a.user_schema, ds_a.user_features[rec.user_id]))
        item_emb = ae_encode(dm.ae_item_a, encode(ds_a.item_schema, ds_a.item_features[rec.item_id]))
        want = predict_from_embeddings(dm, "a", user_emb, item_emb)
        got = predict(dm, "a", ds_a.user_features[rec.user_id], ds_a.item_features[rec.item_id])
        assert got == want

    def test_batch_prediction_matches_single_records(self, trained_small):
        dm, _ = trained_small
        u, i = random_embeddings(dm, 6, seed=6)
        ratings = np.full(6, 0.5)
        overlap = np.array([True, True, False, True, False, True])
        arrays = TrainingArrays(u, i, ratings, overlap, ["u"] * 6)
        got = predict_batch(dm, "a", arrays)
        for r in range(6):
            want = predict_from_embeddings(dm, "a", u[r], i[r], in_overlap=bool(overlap[r]))
            assert got[r] == pytest.approx(want, abs=1e-12)

    def test_unknown_domain_label_rejected(self, trained_small):
        dm, _ = trained_small
        with pytest.raises(ValueError):
            predict_from_embeddings(dm, "c", np.zeros(4), np.zeros(4))


def make_batch(d, n, seed, overlap_value=True):
    rng = make_rng(seed)
    return (
        rng.random(size=(n, d)),
        rng.random(size=(n, d)),
        rng.random(size=n),
        np.full(n, overlap_value),
    )


def build_bare_model(alpha, d=3, seed=0, hidden=(4,)):
    # rating scorers and map only; autoencoders are irrelevant to the loss
    # tests, so reuse tiny trained ones
    corpus = make_rng(99).random(size=(6, 5))
    ae, _ = train_autoencoder(corpus, embed_dim=d, epochs=1, seed=0)
    rs_a = make_rating_model(d, seed, 0, hidden)
    rs_b = make_rating_model(d, seed, 1, hidden)
    from dualrec.mapping import init_map

    return DualModel(rs_a, rs_b, init_map(d, seed), alpha, ae, ae, ae, ae)


class TestDualLossAndGrads:
    def test_alpha_zero_decouples_the_domains(self):
        dm = build_bare_model(alpha=0.0)
        batch_b = make_batch(3, 5, seed=1)
        _, _, _, _, grads_b_1, _ = dual_loss_and_grads(dm, make_batch(3, 5, seed=2), batch_b)
        _, _, _, _, grads_b_2, _ = dual_loss_and_grads(dm, make_batch(3, 5, seed=3), batch_b)
        # rs_b's gradient is independent of whatever domain a saw
        for (w1, b1), (w2, b2) in zip(grads_b_1, grads_b_2):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)

    def test_alpha_zero_map_gradient_is_pure_penalty(self):
        dm = build_bare_model(alpha=0.0)
        from dualrec.mapping import ortho_penalty

        *_, grad_x = dual_loss_and_grads(dm, make_batch(3, 5, seed=1), make_batch(3, 5, seed=2))
        _, pen_grad = ortho_penalty(dm.map)
        np.testing.assert_array_equal(grad_x, pen_grad)

    def test_gradients_match_finite_differences(self):
        dm = build_bare_model(alpha=0.1, seed=7)
        batch_a = make_batch(3, 6, seed=11)
        batch_b = make_batch(3, 6, seed=12)

        def pack(model):
            out = []
            for l in model.layers:
                out.extend([l.weights, l.bias])
            return out

        def wrapped(params):
            k = 0
            for model in (dm.rs_a, dm.rs_b):
                for l in model.layers:
                    l.weights, l.bias = params[k], params[k + 1]
                    k += 2
            dm.map = OrthogonalMap(params[k], dm.map.domain_pair)
            total, _, _, ga, gb, gx = dual_loss_and_grads(dm, batch_a, batch_b)
            grads = []
            for g in (ga, gb):
                for dw, db in g:
                    grads.extend([dw, db])
            grads.append(gx)
            return total, grads

        params = pack(dm.rs_a) + pack(dm.rs_b) + [dm.map.x]
        assert grad_check(wrapped, params) <= 1e-4

    def test_one_small_step_reduces_the_combined_loss(self):
        from dualrec.dualmodel import apply_grads

        dm = build_bare_model(alpha=0.05, seed=3)
        batch_a = make_batch(3, 8, seed=21)
        batch_b = make_batch(3, 8, seed=22)
        total0, *_, ga, gb, gx = dual_loss_and_grads(dm, batch_a, batch_b)
        apply_grads(dm.rs_a, ga, 1e-3)
        apply_grads(dm.rs_b, gb, 1e-3)
        dm.map = OrthogonalMap(dm.map.x - 1e-3 * gx, dm.map.domain_pair)
        total1, *_ = dual_loss_and_grads(dm, batch_a, batch_b)
        assert total1 < total0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf is injected on purpose
    def test_non_finite_loss_raises(self):
        dm = build_bare_model(alpha=0.1)
        u, i, y, ov = make_batch(3, 4, seed=5)
        u[0, 0] = np.inf
        with pytest.raises(FloatingPointError):
            dual_loss_and_grads(dm, (u, i, y, ov), None)


@pytest.fixture(scope="module")
def arrays_pair(small_pair):
    ds_a, ds_b, _ = small_pair
    cfg = small_config()
    from dualrec.dualmodel import train_domain_autoencoders

    ae_ua, ae_ia = train_domain_autoencoders(ds_a, cfg, seed=0)
    ae_ub, ae_ib = train_domain_autoencoders(ds_b, cfg, seed=0)
    arrays_a = prepare_domain(ds_a, ae_ua, ae_ia)
    arrays_b = prepare_domain(ds_b, ae_ub, ae_ib)
    return (ae_ua, ae_ia, ae_ub, ae_ib), arrays_a, arrays_b


class TestFit:
    def build(self, aes, alpha=0.03, seed=0):
        ae_ua, ae_ia, ae_ub, ae_ib = aes
        return new_dual_model(ae_ua, ae_ia, ae_ub, ae_ib, alpha, seed, hidden=(8, 4))

    def test_huge_tolerance_stops_after_one_epoch(self, arrays_pair):
        aes, arrays_a, arrays_b = arrays_pair
        cfg = small_config(epochs=50, tol=1e9)
        trace_a, trace_b = fit(self.build(aes), arrays_a, arrays_b, cfg, seed=0)
        assert len(trace_a) == 2  # the pre-training loss plus one epoch

    def test_fixed_seed_reproduces_traces(self, arrays_pair):
        aes, arrays_a, arrays_b = arrays_pair
        cfg = small_config(epochs=4)
        t1 = fit(self.build(aes), arrays_a, arrays_b, cfg, seed=5)
        t2 = fit(self.build(aes), arrays_a, arrays_b, cfg, seed=5)
        assert t1 == t2

    def test_losses_fall_below_the_pretraining_point(self, arrays_pair):
        aes, arrays_a, arrays_b = arrays_pair
        cfg = small_config(epochs=12)
        trace_a, trace_b = fit(self.build(aes), arrays_a, arrays_b, cfg, seed=0)
        assert trace_a[-1] < trace_a[0]
        assert trace_b[-1] < trace_b[0]

    def test_map_stays_orthogonal_after_training(self, arrays_pair):
        aes, arrays_a, arrays_b = arrays_pair
        dm = self.build(aes)
        fit(dm, arrays_a, arrays_b, small_config(epochs=3), seed=0)
        assert orthogonality_defect(dm.map.x) <= 1e-6

    def test_alpha_zero_fit_matches_single_domain_training(self, arrays_pair):
        aes, arrays_a, arrays_b = arrays_pair
        dm = self.build(aes, alpha=0.0)
        cfg = small_config(alpha=0.0, epochs=4)
        fit(dm, arrays_a, arrays_b, cfg, seed=0)
        single_a, _ = train_single(arrays_a, 0, embed_dim=4, seed=0, epochs=4, tol=0.0,
                                   lr=cfg.lr_a, batch_size=cfg.batch_size, hidden=(8, 4))
        for la, lb in zip(dm.rs_a.layers, single_a.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)


class TestTrainPair:
    def test_returns_model_and_traces(self, trained_small):
        dm, (trace_a, trace_b) = trained_small
        assert isinstance(dm, DualModel)
        assert len(trace_a) == len(trace_b) == 4  # pre-training point + 3 epochs
        assert orthogonality_defect(dm.map.x) <= 1e-6

    def test_map_seeded_from_shared_user_alignment(self, small_pair):
        ds_a, ds_b, _ = small_pair
        cfg = small_config(epochs=1)
        dm, _ = train_pair(ds_a, ds_b, cfg, seed=0)
        from dualrec.dualmodel import train_domain_autoencoders

        ae_ua, _ = train_domain_autoencoders(ds_a, cfg, seed=0)
        ae_ub, _ = train_domain_autoencoders(ds_b, cfg, seed=0)
        warm = shared_user_alignment(ds_a, ds_b, ae_ua, ae_ub)
        assert warm is not None
        # one epoch of updates moves X little; it must still be near the warm
        # start, not near an unrelated random rotation
        assert np.linalg.norm(dm.map.x - warm.x) < 0.2

    def test_alignment_requires_enough_shared_users(self, small_pair):
        ds_a, ds_b, _ = small_pair
        cfg = small_config()
        from dualrec.dualmodel import train_domain_autoencoders

        ae_ua, _ = train_domain_autoencoders(ds_a, cfg, seed=0)
        ae_ub, _ = train_domain_autoencoders(ds_b, cfg, seed=0)
        import dataclasses

        keep = sorted(ds_b.user_features)[:3]  # below embed_dim=4
        recs = tuple(r for r in ds_b.interactions if r.user_id in keep)
        tiny = dataclasses.replace(
            ds_b,
            interactions=recs,
            user_features={u: ds_b.user_features[u] for u in keep},
        )
        assert shared_user_alignment(ds_a, tiny, ae_ua, ae_ub) is None

    def test_persistence_round_trip(self, trained_small, tmp_path):
        dm, _ = trained_small
        save_dual_model(dm, tmp_path / "m.npz")
        back = load_dual_model(tmp_path / "m.npz")
        u, i = random_embeddings(dm, 1, seed=9)
        u, i = u[0], i[0]
        for domain in ("a", "b"):
            assert predict_from_embeddings(back, domain, u, i) == predict_from_embeddings(dm, domain, u, i)
        np.testing.assert_array_equal(back.map.x, dm.map.x)
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


class TestModelContract:
    """DualModel checks its dimension chain whether it is built or loaded."""

    def test_scorer_takes_twice_the_embed_dim(self, trained_small):
        dm, _ = trained_small
        with pytest.raises(ValueError, match=r"rs_b layer 0 takes 6 inputs, expected 2 \* embed_dim = 8"):
            dataclasses.replace(dm, rs_b=make_rating_model(3, 0, 1, (8, 4)))

    def test_layers_chain(self, trained_small):
        dm, _ = trained_small
        skipped = RatingModel([dm.rs_a.layers[0], dm.rs_a.layers[2]])
        with pytest.raises(ValueError, match="rs_a layer 1 takes 4 inputs"):
            dataclasses.replace(dm, rs_a=skipped)

    def test_scorer_ends_in_one_output(self, trained_small):
        dm, _ = trained_small
        with pytest.raises(ValueError, match="rs_a ends in 4 outputs"):
            dataclasses.replace(dm, rs_a=RatingModel(dm.rs_a.layers[:-1]))

    def test_map_is_d_by_d(self, trained_small):
        dm, _ = trained_small
        with pytest.raises(ValueError, match="map is 3x3"):
            dataclasses.replace(dm, map=OrthogonalMap(np.eye(3)))

    def test_autoencoders_share_one_embed_dim(self, trained_small):
        dm, _ = trained_small
        corpus = make_rng(99).random(size=(6, 5))
        ae3, _ = train_autoencoder(corpus, embed_dim=3, epochs=1, seed=0)
        with pytest.raises(ValueError, match="ae_user_b embed_dim 3 != ae_user_a embed_dim 4"):
            new_dual_model(dm.ae_user_a, dm.ae_item_a, ae3, dm.ae_item_b, 0.03, 0)


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

    def test_truncated_scorer(self, trained_small, tmp_path):
        dm, _ = trained_small
        path = self.edited(dm, tmp_path, lambda a: a.update(rs0_n=np.array(2)))
        with pytest.raises(ValueError, match="rs_a ends in 4 outputs, expected 1"):
            load_dual_model(path)


class TestEvaluateLoss:
    def test_matches_manual_mse(self, trained_small):
        dm, _ = trained_small
        u, i = random_embeddings(dm, 10, seed=13)
        ratings = make_rng(14).random(10)
        arrays = TrainingArrays(u, i, ratings, np.ones(10, dtype=bool), ["u"] * 10)
        preds = predict_batch(dm, "b", arrays)
        want = float(np.mean((preds - ratings) ** 2))
        assert evaluate_loss(dm, arrays, "b") == pytest.approx(want, rel=1e-12)


class TestMultiDomain:
    def test_two_domain_view_matches_dual_predictions_bitwise(self, trained_small):
        dm, _ = trained_small
        mm = multi_from_dual(dm)
        u, i = random_embeddings(dm, 1, seed=15)
        u, i = u[0], i[0]
        assert predict_multi_from_embeddings(mm, 0, u, i) == predict_from_embeddings(dm, "a", u, i)
        assert predict_multi_from_embeddings(mm, 1, u, i) == predict_from_embeddings(dm, "b", u, i)

    def test_alpha_zero_reduces_to_single_scorer(self):
        corpus = make_rng(99).random(size=(6, 5))
        ae, _ = train_autoencoder(corpus, embed_dim=3, epochs=1, seed=0)
        mm = new_multi_model([(ae, ae)] * 3, alpha=0.0, seed=1, hidden=(4,))
        rng = make_rng(16)
        u, i = rng.random(3), rng.random(3)
        for k in range(3):
            assert predict_multi_from_embeddings(mm, k, u, i) == score(mm.models[k], u, i)

    def test_three_domain_prediction_composes_by_hand(self):
        corpus = make_rng(99).random(size=(6, 5))
        ae, _ = train_autoencoder(corpus, embed_dim=3, epochs=1, seed=0)
        mm = new_multi_model([(ae, ae)] * 3, alpha=0.03, seed=1, hidden=(4,))
        rng = make_rng(17)
        u, i = rng.random(3), rng.random(3)
        for k in range(3):
            cross = sum(
                score(mm.models[j], mm.cross_matrix(j, k) @ u, i)
                for j in range(3) if j != k
            )
            want = 0.97 * score(mm.models[k], u, i) + (0.03 / 2) * cross
            assert predict_multi_from_embeddings(mm, k, u, i) == pytest.approx(want, abs=1e-15)

    def test_cross_matrices_are_transpose_consistent(self):
        corpus = make_rng(99).random(size=(6, 5))
        ae, _ = train_autoencoder(corpus, embed_dim=3, epochs=1, seed=0)
        mm = new_multi_model([(ae, ae)] * 3, alpha=0.1, seed=2, hidden=(4,))
        for j in range(3):
            for k in range(3):
                if j != k:
                    np.testing.assert_array_equal(mm.cross_matrix(j, k), mm.cross_matrix(k, j).T)
