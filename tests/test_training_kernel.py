"""The training kernel against the per-layer loop it replaced.

The oracle below is the earlier implementation of both training loops, kept
here verbatim in behaviour: one model at a time, per-layer forward and
backward calls with shape checks and a sign-masked sigmoid (the per-layer
oracle of tests/single_domain.py, which the single-domain oracle runs too), gradients summed
into zero-filled lists, an SGD step that returns new arrays and checks each
gradient for finiteness, and a cross channel that is computed and weighted
by zero when alpha is 0. `train_pair` must give the same bytes with either
loop, and so must every fold model that `run_cv` trains in its stack, and
every autoencoder of a lockstep stack. The domain-axis step must give the
gradients the oracle gives, summed per scorer, bit for bit, and a full
pass over rows of the training table must give the oracle's predictions
and loss.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualrec import autoencoder, dualmodel, evaluate
from dualrec.dualmodel import TrainConfig, fit, fit_models, train_pair
from dualrec.features import synth_pair
from dualrec.mapping import OrthogonalMap, ortho_penalty, project_orthogonal
from dualrec.numeric import layer_views, make_rng, sigmoid
from single_domain import domain_embeddings, oracle_sigmoid
from single_domain import layer_backward as oracle_layer_backward
from single_domain import layer_forward as oracle_layer_forward
from single_domain import model_backward as oracle_model_backward
from single_domain import model_forward as oracle_model_forward

# ---------------------------------------------------------------------------
# oracle: the per-layer loop


def oracle_sgd_step(params, grads, lr):
    out = []
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError("param shape != grad shape")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient in sgd_step")
        out.append(p - lr * g)
    return out


def oracle_train_autoencoder(vectors, embed_dim, lr, epochs, batch_size, seed, domain, entity):
    x = np.asarray(vectors, dtype=np.float64)
    ae = autoencoder.new_autoencoder(x.shape[1], embed_dim, seed, domain, entity)
    tag = autoencoder._stream_tag(entity)
    trace = []
    for epoch in range(epochs):
        order = make_rng(seed, autoencoder._L_AE_SHUFFLE, tag, epoch).permutation(x.shape[0])
        for start in range(0, x.shape[0], batch_size):
            xb = x[order[start : start + batch_size]]
            emb, enc_cache = oracle_layer_forward(ae.encoder, xb)
            rec, dec_cache = oracle_layer_forward(ae.decoder, emb)
            d_emb, dw_d, db_d = oracle_layer_backward(ae.decoder, dec_cache, 2.0 * (rec - xb) / xb.shape[0])
            _, dw_e, db_e = oracle_layer_backward(ae.encoder, enc_cache, d_emb)
            ae.encoder.weights, ae.encoder.bias = oracle_sgd_step((ae.encoder.weights, ae.encoder.bias), (dw_e, db_e), lr)
            ae.decoder.weights, ae.decoder.bias = oracle_sgd_step((ae.decoder.weights, ae.decoder.bias), (dw_d, db_d), lr)
        rec, _ = oracle_layer_forward(ae.decoder, oracle_layer_forward(ae.encoder, x)[0])
        trace.append(float(np.mean(np.sum((x - rec) ** 2, axis=1))))
    ae.trained = True
    return ae, trace


def oracle_train_autoencoders(corpora, tags, embed_dim, lr, epochs, batch_size, seed, trace=True):
    """Each corpus's autoencoder trained alone by the oracle loop; empty traces when trace is False."""
    trained = [oracle_train_autoencoder(c, embed_dim, lr, epochs, batch_size, seed, domain, entity)
               for c, (domain, entity) in zip(corpora, tags)]
    return [(ae, losses if trace else []) for ae, losses in trained]


def oracle_domain_loss_grads(dm, batch, k):
    u, i, y, overlap = batch
    self_model, other_model = dm.domains[k].scorer, dm.domains[1 - k].scorer
    alpha_vec = np.where(overlap, dm.alpha, 0.0)[:, None]
    y_w, caches_w = oracle_model_forward(self_model, np.concatenate([u, i], axis=1))
    x = dm.maps[(0, 1)].x
    mapped = u @ x.T if k == 0 else u @ x
    y_c, caches_c = oracle_model_forward(other_model, np.concatenate([mapped, i], axis=1))
    resid = (1.0 - alpha_vec) * y_w + alpha_vec * y_c - y[:, None]
    dpred = 2.0 * resid / u.shape[0]
    _, grads_self = oracle_model_backward(self_model, caches_w, dpred * (1.0 - alpha_vec))
    dx_cross, grads_other = oracle_model_backward(other_model, caches_c, dpred * alpha_vec)
    d_mapped = dx_cross[:, : u.shape[1]]
    grad_x = d_mapped.T @ u if k == 0 else u.T @ d_mapped
    return float(np.mean(resid**2)), grads_self, grads_other, grad_x


def step_batches(alpha, batch_a, batch_b):
    """The [batch_a, batch_b] of one step as `fit_models` takes them from its
    table, from the arrays `oracle_domain_loss_grads` reads: each domain's
    (user_emb (K, n, d), item_emb (K, n, d), ratings (K, n), overlap (K, n)),
    or None to leave the domain out."""
    batches = (batch_a, batch_b)
    present = next(b for b in batches if b is not None)
    n_models = present[2].shape[0]
    sizes = [0 if b is None else b[2].shape[1] for b in batches]
    rows = np.zeros((2, n_models, max(sizes)), dtype=np.intp)
    for k, n in enumerate(sizes):  # domain b's rows follow domain a's K * n_a rows
        rows[k, :, :n] = np.arange(n_models * n).reshape(n_models, n) + k * n_models * sizes[0]
    domains = []
    for b, n in zip(batches, sizes):  # each domain's rows model after model; a domain left out has none
        u, i, y, overlap = (a[:, :n].reshape(-1, *a.shape[2:]) for a in (present if b is None else b))
        domains.append(dualmodel.Rows(np.concatenate([u, i], axis=1), y, overlap, np.full(len(y), "u"), (0, len(y))))
    return dualmodel.Rows.join(domains).weighted(alpha).step(rows, 0, sizes)


@dataclasses.dataclass
class OracleArrays:
    """One domain's rows as the oracle reads them: user and item embeddings apart."""

    user_emb: np.ndarray
    item_emb: np.ndarray
    ratings: np.ndarray
    overlap: np.ndarray

    def __len__(self):
        return len(self.ratings)


def oracle_arrays(table, k, idx=None):
    """Domain k's rows of a training table, or its rows at idx, copied apart."""
    rows = table.domain(k)
    ui, ratings, overlap = (rows.ui, rows.ratings, rows.overlap) if idx is None else (
        rows.ui[idx], rows.ratings[idx], rows.overlap[idx])
    d = ui.shape[1] // 2
    return OracleArrays(ui[:, :d].copy(), ui[:, d:].copy(), ratings.copy(), overlap.copy())


def oracle_train_epoch(dm, arrays_a, arrays_b, cfg, seed, epoch):
    def add(acc, extra):
        return [(aw + ew, ab + eb) for (aw, ab), (ew, eb) in zip(acc, extra)]

    def zeros(model):
        return [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.layers]

    batches = []
    for k, arrays in enumerate((arrays_a, arrays_b)):
        order = make_rng(seed, dualmodel._L_SHUFFLE, k, epoch).permutation(len(arrays))
        batches.append([order[s : s + cfg.batch_size] for s in range(0, len(order), cfg.batch_size)])
    for step in range(max(map(len, batches))):
        grads = [zeros(dom.scorer) for dom in dm.domains]
        grad_x = np.zeros_like(dm.maps[(0, 1)].x)
        total = 0.0
        for k, arrays in enumerate((arrays_a, arrays_b)):
            if step < len(batches[k]):
                idx = batches[k][step]
                batch = (arrays.user_emb[idx], arrays.item_emb[idx], arrays.ratings[idx], arrays.overlap[idx])
                loss, g_self, g_other, gx = oracle_domain_loss_grads(dm, batch, k)
                total += loss
                grads[k] = add(grads[k], g_self)
                grads[1 - k] = add(grads[1 - k], g_other)
                grad_x = grad_x + gx
        pen_loss, pen_grad = ortho_penalty(dm.maps[(0, 1)])
        total += cfg.penalty_weight * pen_loss
        grad_x = grad_x + cfg.penalty_weight * pen_grad
        if not np.isfinite(total):
            raise FloatingPointError("non-finite training loss")
        for dom, model_grads, lr in zip(dm.domains, grads, (cfg.lr_a, cfg.lr_b)):
            for layer, (dw, db) in zip(dom.scorer.layers, model_grads):
                layer.weights, layer.bias = oracle_sgd_step((layer.weights, layer.bias), (dw, db), lr)
        link = dm.maps[(0, 1)]
        dm.maps[(0, 1)] = OrthogonalMap(oracle_sgd_step([link.x], [grad_x], cfg.lr_map)[0], link.domain_pair)
    dm.maps[(0, 1)] = project_orthogonal(dm.maps[(0, 1)])


def oracle_predictions(dm, arrays, k):
    within, _ = oracle_model_forward(dm.domains[k].scorer, np.concatenate([arrays.user_emb, arrays.item_emb], axis=1))
    preds = within[:, 0]
    if dm.alpha != 0.0:
        x = dm.maps[(0, 1)].x
        mapped = arrays.user_emb @ x.T if k == 0 else arrays.user_emb @ x
        cross, _ = oracle_model_forward(dm.domains[1 - k].scorer, np.concatenate([mapped, arrays.item_emb], axis=1))
        alpha_vec = np.where(arrays.overlap, dm.alpha, 0.0)
        preds = (1.0 - alpha_vec) * preds + alpha_vec * cross[:, 0]
    return preds


def oracle_eval_loss(dm, arrays, k):
    return float(np.mean((oracle_predictions(dm, arrays, k) - arrays.ratings) ** 2))


def oracle_fit(dm, table, cfg, seed=0, rows=(None, None)):
    """fit's oracle: model dm trained on the rows of each domain of table, or on rows[k] of domain k."""
    arrays_a, arrays_b = (oracle_arrays(table, k, idx) for k, idx in enumerate(rows))
    traces = ([oracle_eval_loss(dm, arrays_a, 0)], [oracle_eval_loss(dm, arrays_b, 1)])
    for epoch in range(cfg.epochs):
        oracle_train_epoch(dm, arrays_a, arrays_b, cfg, seed, epoch)
        for k, arrays in enumerate((arrays_a, arrays_b)):
            traces[k].append(oracle_eval_loss(dm, arrays, k))
        if abs(traces[0][-2] + traces[1][-2] - traces[0][-1] - traces[1][-1]) < cfg.tol:
            break
    return traces


# ---------------------------------------------------------------------------
# the kernel against the oracle


def test_sigmoid_gives_the_bits_of_the_masked_form():
    # the smallest subnormal, exp's overflow edge near 709.78 and its underflow edge near -745.13
    edges = [0.0, 5e-324, 1e-300, 709.78, 709.8, 745.0, 745.13, np.inf]
    z = np.concatenate([edges, np.negative(edges), make_rng(17).normal(scale=20.0, size=2000)])
    got = sigmoid(z)
    assert got.tobytes() == oracle_sigmoid(z).tobytes()
    assert np.signbit(z[len(edges)]) and got[len(edges)] == 0.5  # -0.0 maps like +0.0
    assert np.isnan(sigmoid(np.array([np.nan, -np.nan, np.nan]))).all()
    # in place, as a forward runs it: a stacked step's output layer and one record's encoder row
    for shape in [(2, 2, 3, 32, 1), (1, 8)]:
        x = make_rng(18).normal(scale=20.0, size=shape)
        want = oracle_sigmoid(x)
        assert sigmoid(x, out=x) is x
        assert x.tobytes() == want.tobytes(), shape


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=32))
def test_sigmoid_gives_the_bits_of_the_masked_form_on_every_finite_float(values):
    z = np.array(values)
    assert sigmoid(z).tobytes() == oracle_sigmoid(z).tobytes()


def small_config(**overrides):
    base = dict(alpha=0.03, embed_dim=4, epochs=4, tol=0.0, hidden=(8, 4), ae_epochs=30, ae_lr=0.05)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def partial_pair():
    """A small pair in which every fifth user of domain a has no domain-b ratings."""
    ds_a, ds_b, _ = synth_pair(n_users=40, n_items_per_domain=15, latent_dim=4, density=0.4, seed=3)
    only_a = sorted({r.user_id for r in ds_a.interactions})[::5]
    kept = tuple(r for r in ds_b.interactions if r.user_id not in only_a)
    return ds_a, dataclasses.replace(ds_b, interactions=kept), only_a


def bundle(dm) -> dict:
    out = {"map": dm.maps[(0, 1)].x}
    for k, dom in enumerate(dm.domains):
        for n, layer in enumerate(dom.scorer.layers):
            out[f"rs{k}.{n}.w"], out[f"rs{k}.{n}.b"] = layer.weights, layer.bias
        for entity, ae in (("user", dom.ae_user), ("item", dom.ae_item)):
            for part in ("encoder", "decoder"):
                layer = getattr(ae, part)
                out[f"ae_{entity}{k}.{part}.w"], out[f"ae_{entity}{k}.{part}.b"] = layer.weights, layer.bias
    return out


def assert_train_pair_matches_the_oracle(pair, monkeypatch, alpha, lr_b=0.1, swapped=False):
    # swapped trains the pair as (ds_b, ds_a): the longer domain comes second, as in the benchmark's standard pair
    ds_a, ds_b, only_a = pair
    domains = (ds_b, ds_a) if swapped else (ds_a, ds_b)
    cfg = small_config(alpha=alpha, lr_b=lr_b)
    dm, traces = train_pair(*domains, cfg, seed=2)
    with monkeypatch.context() as m:
        m.setattr(dualmodel, "train_autoencoders", oracle_train_autoencoders)
        m.setattr(dualmodel, "fit", oracle_fit)
        want_dm, want_traces = train_pair(*domains, cfg, seed=2)
    assert np.array(traces).tobytes() == np.array(want_traces).tobytes()
    got, want = bundle(dm), bundle(want_dm)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), key
    # the pair exercises rows without a partner user and a domain that runs out first
    users_b = {r.user_id for r in ds_b.interactions}
    assert only_a and not users_b & set(only_a)
    assert len(ds_a.interactions) > len(ds_b.interactions) + cfg.batch_size
    # the four corpora share one width and train as one stack, whose item corpora run out first
    assert {ds.user_schema.encoded_length for ds in domains} == {ds.item_schema.encoded_length for ds in domains}
    assert len(ds_a.item_features) == len(ds_b.item_features) < len(ds_b.user_features)


@pytest.mark.parametrize("alpha, lr_b, swapped", [(0.03, 0.1, False), (0.0, 0.1, False), (0.03, 0.05, False),
                                                   (0.03, 0.1, True)],
                         ids=["0.03", "0.0", "0.03-lr_b=0.05", "0.03-swapped"])
def test_train_pair_is_byte_identical_to_the_per_layer_loop(partial_pair, monkeypatch, alpha, lr_b, swapped):
    # both user corpora have one row count too, so the user autoencoders share each epoch's shuffle;
    # lr_b below lr_a = 0.1 catches an update that moves one domain's scorer at the other's rate;
    # swapped, domain b's rows sit at an offset in the training table and run alone at the tail
    assert len(partial_pair[0].user_features) == len(partial_pair[1].user_features)
    assert_train_pair_matches_the_oracle(partial_pair, monkeypatch, alpha, lr_b, swapped)


@pytest.mark.parametrize("alpha", [0.03, 0.0])
def test_train_pair_with_user_corpora_of_two_shapes_is_byte_identical_to_the_per_layer_loop(
    partial_pair, monkeypatch, alpha
):
    # domain b's user table keeps only the users who rate there: the stack of four runs three row
    # counts, and the user autoencoders draw their own shuffles
    ds_a, ds_b, only_a = partial_pair
    active = {r.user_id for r in ds_b.interactions}
    ds_b = dataclasses.replace(ds_b, user_features={u: f for u, f in ds_b.user_features.items() if u in active})
    assert len(ds_a.user_features) != len(ds_b.user_features)
    assert_train_pair_matches_the_oracle((ds_a, ds_b, only_a), monkeypatch, alpha)


def test_lockstep_autoencoders_are_byte_identical_to_the_oracle():
    # Every corpus of width 7 trains in one stack, longest first; the 12-row corpus of
    # width 5 trains alone. In batches of 4 the 6-row corpus runs out first (a step of
    # the stack and a step of its tail part) and the 13-row ones next, on a 1-row batch
    # at K = 2, as do the 21-row ones at the end of each epoch. The stacked corpora differ
    # in entity or row count, or share both (the two 13-row user corpora share shuffles).
    # Without a trace the autoencoders get the same bytes.
    rng = make_rng(23)
    corpora = [rng.random((13, 7)), rng.random((12, 5)), rng.random((21, 7)), rng.random((6, 7)),
               rng.random((21, 7)), rng.random((13, 7))]
    tags = [("b", "user"), ("a", "item"), ("a", "user"), ("c", "item"), ("b", "item"), ("c", "user")]
    want = oracle_train_autoencoders(corpora, tags, 3, 0.3, 6, 4, 5)
    for trace in (True, False):
        got = autoencoder.train_autoencoders(corpora, tags, embed_dim=3, lr=0.3, epochs=6, batch_size=4, seed=5,
                                             trace=trace)
        for (ae, losses), (want_ae, want_losses) in zip(got, want):
            assert (ae.domain, ae.entity) == (want_ae.domain, want_ae.entity)
            assert np.array(losses).tobytes() == np.array(want_losses if trace else []).tobytes()
            for part in ("encoder", "decoder"):
                layer, want_layer = getattr(ae, part), getattr(want_ae, part)
                assert layer.weights.tobytes() == want_layer.weights.tobytes()
                assert layer.bias.tobytes() == want_layer.bias.tobytes()
                assert layer.weights.flags.owndata and layer.bias.flags.owndata


def test_the_standard_autoencoders_train_as_one_stack_with_one_shuffle_per_stream(monkeypatch):
    # the standard pair's four corpora (500, 500, 200 and 200 rows of width 20) in batches of 32:
    # 6 steps of the whole stack, a step split between the user and the item corpora, and 9
    # steps of the user corpora; the user (and the item) corpora share one stream and row count
    ds_a, ds_b, _ = synth_pair(noise=0.02, seed=101)
    assert [len(t) for ds in (ds_a, ds_b) for t in (ds.user_features, ds.item_features)] == [500, 200, 500, 200]
    stacks, draws, forwards, full_passes = [], [], [], []
    step, make_rng, forward = autoencoder.loss_and_grads, autoencoder.make_rng, autoencoder.stack_forward
    full_pass = autoencoder.reconstruction_loss

    def counted_step(stack, xb, names):
        stacks.append(len(xb))
        return step(stack, xb, names)

    def counted_rng(seed, *labels):
        draws.append(labels)
        return make_rng(seed, *labels)

    def counted_forward(layers, h):
        forwards.append(len(h))
        return forward(layers, h)

    def counted_full_pass(ae, vectors):
        full_passes.append((ae.domain, ae.entity, len(vectors), len(stacks)))
        return full_pass(ae, vectors)

    monkeypatch.setattr(autoencoder, "loss_and_grads", counted_step)
    monkeypatch.setattr(autoencoder, "make_rng", counted_rng)
    monkeypatch.setattr(autoencoder, "stack_forward", counted_forward)
    monkeypatch.setattr(autoencoder, "reconstruction_loss", counted_full_pass)
    vectors = [dualmodel.entity_vectors(ds) for ds in (ds_a, ds_b)]
    dualmodel.train_pair_autoencoders(ds_a, ds_b, TrainConfig(ae_epochs=2), 1, vectors)
    assert stacks == ([4] * 6 + [2] * 11) * 2
    # the shuffle draws' epochs: two draws per epoch
    assert [labels[2] for labels in draws if labels[0] == autoencoder._L_AE_SHUFFLE] == [0, 0, 1, 1]
    # the stack runs only the steps; the guard's full passes, one forward of one corpus's rows each,
    # one per corpus (longest first), all come before the first step: the pipeline asks for no trace
    assert forwards == [n for _, _, n, _ in full_passes] + stacks
    assert full_passes == [(ds.domain_name, entity, n, 0) for entity, n in (("user", 500), ("item", 200))
                           for ds in (ds_a, ds_b)]


def test_a_pair_encodes_each_entity_once(partial_pair, monkeypatch):
    # the corpora, the warm map and the embedding rows read one encoding of each user and item,
    # and one embedding of each: one ae_encode call per corpus, each over its whole matrix
    ds_a, ds_b, _ = partial_pair
    entities = sum(len(ds.user_features) + len(ds.item_features) for ds in (ds_a, ds_b))
    corpora = [(ds.domain_name, entity, len(table)) for ds in (ds_a, ds_b)
               for entity, table in (("user", ds.user_features), ("item", ds.item_features))]
    calls, embedded, encode, ae_encode = [], [], dualmodel.encode, dualmodel.ae_encode

    def counted(schema, raw):
        calls.append(raw)
        return encode(schema, raw)

    def counted_embedding(ae, matrix):
        embedded.append((ae.domain, ae.entity, len(matrix)))
        return ae_encode(ae, matrix)

    monkeypatch.setattr(dualmodel, "encode", counted)
    monkeypatch.setattr(dualmodel, "ae_encode", counted_embedding)
    train_pair(ds_a, ds_b, small_config(ae_epochs=1, epochs=1), seed=0)
    assert len(calls) == entities
    assert embedded == corpora
    calls.clear()
    embedded.clear()
    evaluate.prepare_pair(ds_a, ds_b, small_config(ae_epochs=1), k=2)
    assert len(calls) == entities
    assert embedded == corpora


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up overflows on purpose
def test_a_diverging_autoencoder_is_named_with_its_rate(partial_pair):
    # A rate this high overflows within the first epoch, before the epoch-end guard
    # (below) looks. Both user autoencoders overflow in one step, and the check names the
    # first of them in the stack: domain b's, which leads when domain b is passed first.
    ds_a, ds_b, _ = partial_pair
    with pytest.raises(FloatingPointError, match=r"^non-finite training loss or gradient in the user autoencoder "
                                                 r"of domain b; lower ae_lr$"):
        train_pair(ds_b, ds_a, TrainConfig(ae_lr=1e200), seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up overflows on purpose
@pytest.mark.parametrize("scale, lr, message", [
    (1e200, 0.3, r"non-finite training loss or gradient in the user autoencoder of domain b; lower ae_lr"),
    (1.0, 0.7, r"the item autoencoder of domain a: mean step loss \S+ in epoch 2 exceeds twice its pre-training "
               r"reconstruction loss \S+; lower ae_lr"),
], ids=["non-finite", "guard"])
def test_a_failing_autoencoder_is_named_by_its_place_in_the_sorted_stack(scale, lr, message):
    # The stack runs the 12-row corpus first, then the two 3-row ones, so its order differs
    # from the input order, and its first step splits into two parts: the overflowing user
    # autoencoder of domain b (scaled to overflow in that step) is second in the second part.
    # At lr 0.7 only the item autoencoder of domain a, second in the stack, trips the guard.
    rng = make_rng(29)
    corpora = [rng.random((3, 7)), scale * rng.random((3, 7)), rng.random((12, 7))]
    tags = [("a", "item"), ("b", "user"), ("a", "user")]
    with pytest.raises(FloatingPointError, match=f"^{message}$"):
        autoencoder.train_autoencoders(corpora, tags, embed_dim=3, lr=lr, epochs=6, batch_size=4, seed=5)


@pytest.mark.parametrize("ae_lr", [1.0, 10.0])
def test_an_autoencoder_rate_that_diverges_is_refused_after_one_epoch(partial_pair, ae_lr):
    # Without the guard neither rate is refused in time: at 1 the step losses stay far above
    # the pre-training loss and training runs to its end; at 10 they grow for 57 epochs
    # before a step overflows.
    ds_a, ds_b, _ = partial_pair
    with pytest.raises(FloatingPointError, match=r"^the user autoencoder of domain a: mean step loss \S+ in epoch 1 "
                                                 r"exceeds twice its pre-training reconstruction loss 7\.65718; "
                                                 r"lower ae_lr$"):
        train_pair(ds_a, ds_b, TrainConfig(ae_lr=ae_lr), seed=0)


@pytest.fixture(scope="module")
def fitted_inputs(partial_pair):
    ds_a, ds_b, _ = partial_pair
    cfg = small_config()
    vectors = [dualmodel.entity_vectors(ds) for ds in (ds_a, ds_b)]
    (ae_ua, ae_ia), (ae_ub, ae_ib) = dualmodel.train_pair_autoencoders(ds_a, ds_b, cfg, 0, vectors)
    table = dualmodel.Rows.join([dualmodel.prepare_domain(ds_a, domain_embeddings(ds_a, (ae_ua, ae_ia))),
                                 dualmodel.prepare_domain(ds_b, domain_embeddings(ds_b, (ae_ub, ae_ib)))])
    return (ae_ua, ae_ia, ae_ub, ae_ib), table


def new_model(aes):
    return dualmodel.new_dual_model([aes[:2], aes[2:]], alpha=0.03, seed=0, hidden=(8, 4))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_raises_when_the_learning_rate_blows_up(fitted_inputs):
    # the penalty gradient 4 X (X^T X - I) is cubic in X, so a large map step diverges;
    # a large scorer step does not, since its relu units die and the output saturates
    aes, table = fitted_inputs
    with pytest.raises(FloatingPointError, match="non-finite"):
        fit(new_model(aes), table, small_config(lr_map=1e3), seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key, value", [("lr_map", 1e300), ("penalty_weight", 1e300)])
def test_a_diverging_map_step_names_the_keys_to_lower(fitted_inputs, key, value):
    aes, table = fitted_inputs
    with pytest.raises(FloatingPointError, match=r"^non-finite training loss or gradient; "
                                                 r"lower lr_a, lr_b, lr_map or penalty_weight$"):
        fit(new_model(aes), table, small_config(**{key: value}), seed=0)


def test_fit_leaves_the_callers_map_array_untouched(fitted_inputs):
    aes, table = fitted_inputs
    dm = new_model(aes)
    held_map = dm.maps[(0, 1)]
    held = held_map.x
    want = held.copy()
    fit(dm, table, small_config(epochs=2), seed=0)
    assert held.tobytes() == want.tobytes()
    assert held_map.x is held
    assert dm.maps[(0, 1)].x.tobytes() != want.tobytes()  # the model's own map did move


# ---------------------------------------------------------------------------
# the stacked fold models of run_cv against the oracle, fold by fold


@pytest.fixture(scope="module")
def cv_prepared(partial_pair):
    ds_a, ds_b, _ = partial_pair
    return evaluate.prepare_pair(ds_a, ds_b, small_config(), k=3, seed=0)


@pytest.fixture(scope="module")
def cv_prepared_swapped(partial_pair):
    ds_a, ds_b, _ = partial_pair
    return evaluate.prepare_pair(ds_b, ds_a, small_config(), k=3, seed=0)


def cv_fold_models(monkeypatch, partial_pair, cfg, prepared, swapped=False):
    """run_cv's fold models and traces, caught at its one fit_models call, and the
    model count K of each of its steps."""
    ds_a, ds_b, _ = partial_pair
    if swapped:
        ds_a, ds_b = ds_b, ds_a
    real, real_step, seen = evaluate.fit_models, dualmodel.dual_loss_and_grads, {"ks": []}

    def spy(models, *args, **kwargs):
        seen["models"], seen["traces"] = models, real(models, *args, **kwargs)
        return seen["traces"]

    def step_spy(stack, *args):
        seen["ks"].append(stack.params.shape[1])
        return real_step(stack, *args)

    with monkeypatch.context() as m:
        m.setattr(evaluate, "fit_models", spy)
        m.setattr(dualmodel, "dual_loss_and_grads", step_spy)
        evaluate.run_cv(ds_a, ds_b, cfg, k=3, seed=0, prepared=prepared)
    return seen["models"], seen["traces"], seen["ks"]


def train_rows(prepared, domain):
    return [split_rows for split_rows, _ in map(prepared.splits[domain].fold_indices, range(3))]


# Domain a has 173, 173 and 174 training records per fold and domain b 124,
# so domain b runs out of batches first; a fifth of domain a's users have no
# domain-b ratings.
CV_CASES = {
    "ragged": dict(batch_size=32, tol=0.0),  # domain a's last batches: 13, 13, 14 rows
    "uneven-stops": dict(batch_size=7, tol=2e-4),  # folds stop by tol after 4, 3 and 3 epochs
    "one-row": dict(batch_size=4, tol=0.0),  # domain a's last batches: 1, 1, 2 rows
    "unequal-rates": dict(batch_size=4, tol=0.0, lr_b=0.05),  # one-row's steps, lr_a = 0.1 twice lr_b
    "swapped": dict(batch_size=32, tol=0.0),  # ragged's steps with the domains swapped: b runs longer
}


@pytest.mark.parametrize("alpha", [0.03, 0.0])
@pytest.mark.parametrize("case", CV_CASES)
def test_run_cv_fold_models_are_byte_identical_to_the_oracle_per_fold(partial_pair, request, monkeypatch, case, alpha):
    cfg = small_config(alpha=alpha, epochs=12, **CV_CASES[case])
    swapped = case == "swapped"
    prepared = request.getfixturevalue("cv_prepared_swapped" if swapped else "cv_prepared")
    models, traces, ks = cv_fold_models(monkeypatch, partial_pair, cfg, prepared, swapped)
    rows = [train_rows(prepared, d) for d in (0, 1)]
    for fold in range(3):
        seed = evaluate._fold_seed(0, fold)
        want_dm = dualmodel.new_dual_model(list(prepared.encoders), alpha=alpha, seed=seed, hidden=cfg.hidden)
        want_dm.maps[(0, 1)] = prepared.warm_map.copy()
        want_traces = oracle_fit(want_dm, prepared.rows, cfg, seed, rows=(rows[0][fold], rows[1][fold]))
        assert np.array(traces[fold]).tobytes() == np.array(want_traces).tobytes(), fold
        got, want = bundle(models[fold]), bundle(want_dm)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), (fold, key)
    # each case exercises what its name says; the longer domain is a, or b when swapped
    long, short = (1, 0) if swapped else (0, 1)
    last_long = [len(r) % cfg.batch_size for r in rows[long]]
    assert len(set(last_long)) > 1
    assert -(-len(rows[short][0]) // cfg.batch_size) < -(-len(rows[long][0]) // cfg.batch_size)
    assert not prepared.rows.domain(long).overlap.all()
    if case == "ragged":
        # each epoch: five steps of all three folds, then domain a's last batches of 13, 13
        # and 14 rows as one step of the first two folds and one of the third
        assert ks == [3, 3, 3, 3, 3, 2, 1] * cfg.epochs
    if case == "uneven-stops":
        assert len({len(t[0]) for t in traces}) > 1
    if case == "unequal-rates":
        assert cfg.lr_a != cfg.lr_b
    if case in ("one-row", "unequal-rates"):
        # A step whose batch sizes differ between folds runs one part of the
        # stack per run of folds with equal sizes, so the two 1-row folds run
        # as one part of two, each 1-row product on numpy's gemv path as it
        # is alone, and the bytes still match.
        assert last_long.count(1) == 2 and max(last_long) > 1


def test_fold_models_own_their_arrays_and_leave_the_warm_map(partial_pair, cv_prepared, monkeypatch):
    warm = cv_prepared.warm_map.x.copy()
    models, *_ = cv_fold_models(monkeypatch, partial_pair, small_config(epochs=2), cv_prepared)
    assert cv_prepared.warm_map.x.tobytes() == warm.tobytes()
    # each model owns its map and its scorer buffer, and every scorer layer is a view of that buffer
    assert all(dm.maps[(0, 1)].x.flags.owndata and dm.params.flags.owndata for dm in models)
    assert all(np.shares_memory(a, dm.params) for dm in models for dom in dm.domains for l in dom.scorer.layers
               for a in (l.weights, l.bias))
    trained = [[dm.maps[(0, 1)].x] + [a for dom in dm.domains for l in dom.scorer.layers for a in (l.weights, l.bias)]
               for dm in models]
    before = [a.copy() for a in trained[1]]
    for a in trained[0]:
        a[...] = 0.0
    assert all(a.tobytes() == b.tobytes() for a, b in zip(trained[1], before))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf is injected on purpose
def test_a_non_finite_step_names_its_model(fitted_inputs):
    aes, table = fitted_inputs
    bad = 5
    table = dataclasses.replace(table, ui=table.ui.copy())
    table.ui[bad, 0] = np.inf  # domain a's row 5: a user embedding entry
    n_a, n_b = np.diff(table.bounds)
    everything = np.arange(n_a)
    rows_a = [np.delete(everything, bad), np.delete(everything, bad), everything]  # only model 2 trains on it
    rows_b = [np.arange(n_b)] * 3
    with pytest.raises(FloatingPointError, match=r"^non-finite training loss or gradient in model 2; "
                                                 r"lower lr_a, lr_b, lr_map or penalty_weight$"):
        fit_models([new_model(aes) for _ in range(3)], table, small_config(), [0, 1, 2], rows=(rows_a, rows_b))


@pytest.mark.parametrize("domain", [0, 1], ids=["a", "b"])
@pytest.mark.parametrize("too_large", [False, True], ids=["negative", "too-large"])
def test_row_indices_outside_their_domain_are_refused(fitted_inputs, domain, too_large):
    # both domains' rows share one table, so index len(a) in domain a would read domain b's first row
    aes, table = fitted_inputs
    rows = [[np.arange(n)] * 2 for n in np.diff(table.bounds)]
    n = len(rows[domain][0])
    bad = n if too_large else -1
    rows[domain][1] = np.append(np.arange(5), bad)
    with pytest.raises(ValueError, match=rf"^model 1 has row index {bad} outside domain {'ab'[domain]}'s \[0, {n}\)$"):
        fit_models([new_model(aes), new_model(aes)], table, small_config(), [0, 1], rows=tuple(rows))


# ---------------------------------------------------------------------------
# the full-pass divergence guard


@pytest.fixture(scope="module")
def found_pair():
    """The pair on which lr_a = lr_b = 1e3 once wrecked the model silently."""
    ds_a, ds_b, _ = synth_pair(n_users=40, seed=3)
    return ds_a, ds_b


@pytest.mark.parametrize("lr_a, lr_b, key", [(1e3, 1e3, "lr_a"), (0.1, 1e3, "lr_b")])
def test_a_diverging_scorer_rate_is_refused_by_its_key(found_pair, lr_a, lr_b, key):
    # after epoch 1 the diverging domain's full-pass loss is 5.2 (a) or 4.2 (b) times its pre-training value
    cfg = TrainConfig(embed_dim=4, hidden=(8, 4), lr_a=lr_a, lr_b=lr_b)
    domain = key[-1]
    with pytest.raises(FloatingPointError, match=rf"^domain {domain} full-pass loss \S+ after epoch 1 exceeds twice "
                                                 rf"its pre-training value \S+; lower {key}$"):
        train_pair(*found_pair, cfg, seed=0)


def test_a_stable_scorer_rate_passes_the_guard(found_pair):
    cfg = TrainConfig(embed_dim=4, hidden=(8, 4), lr_a=1.0, lr_b=1.0, epochs=30, tol=0.0)
    _, traces = train_pair(*found_pair, cfg, seed=0)
    for trace in traces:
        assert len(trace) == 31 and max(trace[1:]) < trace[0]


def test_the_guard_names_the_model_of_a_stack(fitted_inputs):
    aes, table = fitted_inputs
    cfg = small_config(lr_a=1e3, lr_b=1e3)
    with pytest.raises(FloatingPointError, match=r"in model 0; lower lr_a$"):
        fit_models([new_model(aes), new_model(aes)], table, cfg, [0, 1])


# ---------------------------------------------------------------------------
# the domain-axis step against the oracle, summed per scorer


def zero_signs_dropped(a) -> bytes:
    # Adding +0.0 turns -0.0 into +0.0 and leaves every other value as it is.
    # A skipped cross channel leaves a scorer its within term alone, where the
    # oracle adds a term of signed zeros; no update can see the difference,
    # since w - lr * (+-0.0) is w for every weight training reaches (never -0.0).
    return (np.asarray(a) + 0.0).tobytes()


@st.composite
def coupled_steps(draw):
    """K stacked models and one step's batches: sizes 1-40 per domain, equal or
    not, one domain sometimes left out, overlap masks from none to all."""
    n_models = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from([0.0, 0.03]))
    n_a = draw(st.integers(1, 40))
    n_b = n_a if draw(st.booleans()) else draw(st.integers(1, 40))
    absent = draw(st.sampled_from([None, None, 0, 1]))
    masks = [draw(st.sampled_from(["none", "all", "mixed"])) for _ in (0, 1)]
    return n_models, alpha, (n_a, n_b), absent, masks, draw(st.integers(0, 2**16))


@settings(max_examples=200, deadline=None)
@given(coupled_steps())
@example((2, 0.03, (1, 1), None, ["all", "all"], 7))  # 1-row batches in both domains run domain by domain
@example((3, 0.03, (9, 9), None, ["none", "mixed"], 8))  # one domain without cross weight in a stacked pass
def test_domain_axis_step_equals_the_oracle_per_scorer(case):
    n_models, alpha, sizes, absent, masks, seed = case
    d, pw = 4, 0.7
    rng = make_rng(seed)
    ae = autoencoder.new_autoencoder(6, d, seed=0)
    models = []
    for m in range(n_models):
        dm = dualmodel.new_dual_model([(ae, ae)] * 2, alpha=alpha, seed=seed + m, hidden=(8, 4))
        # off the manifold: a live penalty
        dm.maps[(0, 1)] = OrthogonalMap(dm.maps[(0, 1)].x + 0.05 * rng.standard_normal((d, d)))
        models.append(dm)
    batches = []
    for k, n in enumerate(sizes):
        overlap = {"none": np.zeros((n_models, n), bool), "all": np.ones((n_models, n), bool),
                   "mixed": rng.random((n_models, n)) < 0.5}[masks[k]]
        batch = (rng.random((n_models, n, d)), rng.random((n_models, n, d)), rng.random((n_models, n)), overlap)
        batches.append(None if k == absent else batch)
    stack = dualmodel.ModelStack.of(models)
    step = step_batches(alpha, *batches)
    # batches of one size above one row run as one pass of both domains, one take passed twice
    assert (step[0] is step[1]) == (absent is None and sizes[0] == sizes[1] > 1)
    total, grads, grad_x = dualmodel.dual_loss_and_grads(stack, *step, penalty_weight=pw)

    for m, dm in enumerate(models):  # the models' arrays are views of the stack, as the oracle reads them
        terms = ([], [])  # per scorer, within term first
        want_total, want_x = 0.0, 0.0
        for k, batch in enumerate(batches):
            if batch is None:
                continue
            loss, g_self, g_other, gx = oracle_domain_loss_grads(dm, tuple(a[m] for a in batch), k)
            terms[k].insert(0, g_self)
            terms[1 - k].append(g_other)
            want_total, want_x = want_total + loss, want_x + gx
        pen_loss, pen_grad = ortho_penalty(dm.maps[(0, 1)])
        assert total[m] == want_total + pw * pen_loss
        assert zero_signs_dropped(grad_x[m]) == zero_signs_dropped(want_x + pw * pen_grad)
        for j in (0, 1):
            for n, (dw, db, _) in enumerate(layer_views(grads, stack.layout)):
                for got, part in ((dw[j, m], 0), (db[j, m, 0], 1)):
                    parts = [t[n][part] for t in terms[j]]
                    want = sum(parts[1:], parts[0]) if parts else np.zeros_like(got)
                    assert zero_signs_dropped(got) == zero_signs_dropped(want), (j, n, part)


# ---------------------------------------------------------------------------
# full passes over rows of the training table against the oracle


@st.composite
def full_passes(draw):
    """A domain, a model's alpha and seed, and which of the domain's rows a full
    pass reads: the whole-domain slice, one row, or a subset in random order."""
    k = draw(st.integers(0, 1))
    alpha = draw(st.sampled_from([0.0, 0.03, 0.5]))
    return k, alpha, draw(st.sampled_from(["whole", "one", "subset"])), draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(full_passes())
@example((0, 0.03, "one", 1))
@example((1, 0.03, "whole", 2))
def test_full_passes_over_table_rows_give_the_oracle_bytes(cv_prepared, case):
    # fit_models' full pass reads a model's rows of a domain as a slice of the
    # table, or a fold's rows by one take; domain a holds users off the overlap
    k, alpha, kind, seed = case
    table = cv_prepared.rows
    n = table.bounds[k + 1] - table.bounds[k]
    rng = make_rng(seed)
    idx = {"whole": None, "one": rng.integers(n, size=1), "subset": rng.permutation(n)[: rng.integers(1, n + 1)]}[kind]
    dm = dualmodel.new_dual_model(list(cv_prepared.encoders), alpha=alpha, seed=seed, hidden=(8, 4))
    rows = table.domain(k) if idx is None else table.take(table.bounds[k] + idx)
    want = oracle_arrays(table, k, idx)
    assert dualmodel.predict_batch(dm, k, rows).tobytes() == oracle_predictions(dm, want, k).tobytes()
    assert dualmodel.evaluate_loss(dm, rows, k) == oracle_eval_loss(dm, want, k)


def test_fit_models_reads_the_callers_table_without_copying_it(fitted_inputs, monkeypatch):
    aes, table = fitted_inputs
    real, read = dualmodel.evaluate_loss, []

    def spy(dm, rows, domain):
        read.append(rows)
        return real(dm, rows, domain)

    monkeypatch.setattr(dualmodel, "evaluate_loss", spy)
    fit(new_model(aes), table, small_config(epochs=2), seed=0)
    assert len(read) == 6  # both domains before training and after each epoch
    for rows in read:
        for name in ("ui", "ratings", "overlap"):
            assert np.shares_memory(getattr(rows, name), getattr(table, name)), name
