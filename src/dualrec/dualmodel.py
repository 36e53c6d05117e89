"""Dual-transfer rating model and its training loop.

Each domain owns a small rating MLP that scores a (user embedding, item
embedding) pair. Predictions hybridize the two domains: the target domain's
own scorer handles the within-domain part, and the partner domain's scorer,
fed the user embedding pushed through the shared orthogonal map, contributes
a cross-domain part weighted by the transfer rate alpha:

    r_a(u, i) = (1 - alpha) * rs_a(u, i) + alpha * rs_b(X u, i)
    r_b(u, i) = (1 - alpha) * rs_b(u, i) + alpha * rs_a(X^T u, i)

Training interleaves mini-batches from both domains; every step both
scorers and the map receive their gradients together (the map accumulates
both domains' cross terms plus the orthogonality penalty), and the map is
re-projected onto the orthogonal manifold at the end of each epoch. With
alpha = 0 the coupling vanishes exactly and training degenerates to two
independent single-domain runs, bit for bit, which the tests' single-domain
oracle reproduces. Users who only exist in one domain get an effective alpha of 0
so no cross signal is fabricated for them.

The training kernel (`fit_models`) trains K models of one shape and alpha
in lockstep. Each scorer layer of the stack is one array with a domain axis
and a model axis, (2, K, out, in); the maps are stacked on the model axis.
Both scorers share one architecture, so a step runs the within channels of
both domains as one forward and one backward pass over these arrays, and
both cross channels as one pass over the domain-swapped view (each domain's
batch through its partner's scorer). Each scorer's gradient is its within
term plus the cross term of its partner's batch, and one in-place SGD update
per layer, with lr_a and lr_b on the domain axis, moves both. A step whose
domains bring batches of different sizes runs each domain through the same
kernel with a domain axis of length one. Each model keeps its own seed,
shuffles, starting map and `tol` stop, and follows the trajectory it would
follow alone bit for bit. `fit` is the kernel at K = 1.

`MultiModel` generalizes prediction to n domains, averaging the n-1 cross
terms; one orthogonal map is stored per unordered domain pair and the
reverse direction uses its transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dualrec.autoencoder import Autoencoder, ae_encode, autoencoder_arrays, autoencoder_from_arrays, train_autoencoders
from dualrec.features import DomainDataset, FeatureSchema, encode, parse_schema, schema_to_text
from dualrec.mapping import OrthogonalMap, align_map, init_map, ortho_penalty, project_orthogonal
from dualrec.numeric import (
    DenseLayer, check_finite_step, dense_layer, layer_forward, make_rng, stack_backward, stack_forward,
)

_L_RS_INIT = 0x5C07
_L_SHUFFLE = 0x50FF

_DUMP_VERSION = "dualrec-dual-1"


def check_alpha(alpha: float, name: str = "alpha") -> None:
    """The transfer-rate bound of every rating model, [0, 0.5]; 0.5 weighs both channels alike."""
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"{name} {alpha} outside [0, 0.5]")


def check_at_least(cfg, keys, low) -> None:
    """Raise ValueError naming the first of cfg's keys whose value is below low (or NaN)."""
    for key in keys:
        value = getattr(cfg, key)
        if not value >= low:
            raise ValueError(f"{key}={value} below {low}")


@dataclass
class TrainConfig:
    """Knobs for the full pipeline; defaults are the package's standard run.

    Every key is checked on construction, and an error names its key.
    """

    alpha: float = 0.03
    embed_dim: int = 8
    epochs: int = 100
    tol: float = 1e-5
    lr_a: float = 0.1
    lr_b: float = 0.1
    lr_map: float = 0.01
    batch_size: int = 32
    penalty_weight: float = 1.0
    hidden: tuple[int, ...] = (16, 8)
    ae_lr: float = 0.05
    ae_epochs: int = 500
    ae_batch_size: int = 32

    def __post_init__(self):
        self.hidden = tuple(self.hidden)
        check_alpha(self.alpha)
        check_at_least(self, ("embed_dim", "epochs", "batch_size", "ae_epochs", "ae_batch_size"), 1)
        check_at_least(self, ("tol", "lr_a", "lr_b", "lr_map", "penalty_weight", "ae_lr"), 0)
        if not all(width >= 1 for width in self.hidden):
            raise ValueError(f"hidden={self.hidden} has a width below 1")


# ---------------------------------------------------------------------------
# rating scorer


@dataclass
class RatingModel:
    """MLP over concat(user embedding, item embedding) -> rating in (0, 1)."""

    layers: list[DenseLayer]

    def copy(self) -> "RatingModel":
        return RatingModel([l.copy() for l in self.layers])


def make_rating_model(embed_dim: int, seed: int, domain_index: int, hidden: tuple[int, ...] = (16, 8)) -> RatingModel:
    rng = make_rng(seed, _L_RS_INIT, domain_index)
    dims = [2 * embed_dim, *hidden, 1]
    # relu hidden layers train much faster than sigmoid here; the output
    # stays sigmoid so scores land in (0, 1) like the normalized ratings.
    acts = ["relu"] * len(hidden) + ["sigmoid"]
    layers = [dense_layer(rng, dims[i], dims[i + 1], acts[i]) for i in range(len(dims) - 1)]
    return RatingModel(layers)


def model_forward(model: RatingModel, x: np.ndarray):
    caches = []
    h = x
    for layer in model.layers:
        h, cache = layer_forward(layer, h)
        caches.append(cache)
    return h, caches


def score(model: RatingModel, user_emb: np.ndarray, item_emb: np.ndarray) -> float:
    """One within-scorer rating for an embedding pair."""
    x = np.concatenate([np.asarray(user_emb, dtype=np.float64), np.asarray(item_emb, dtype=np.float64)])
    y, _ = model_forward(model, x)
    return float(y[0])


def score_batch(model: RatingModel, user_emb: np.ndarray, item_emb: np.ndarray) -> np.ndarray:
    x = np.concatenate([user_emb, item_emb], axis=1)
    y, _ = model_forward(model, x)
    return y[:, 0]


# ---------------------------------------------------------------------------
# dual model


# (schema field, autoencoder field) of every schema a model may carry
_SCHEMA_ENCODERS = (("user_schema_a", "ae_user_a"), ("item_schema_a", "ae_item_a"),
                    ("user_schema_b", "ae_user_b"), ("item_schema_b", "ae_item_b"))


@dataclass
class DualModel:
    rs_a: RatingModel
    rs_b: RatingModel
    map: OrthogonalMap
    alpha: float
    ae_user_a: Autoencoder
    ae_item_a: Autoencoder
    ae_user_b: Autoencoder
    ae_item_b: Autoencoder
    user_schema_a: FeatureSchema | None = None
    item_schema_a: FeatureSchema | None = None
    user_schema_b: FeatureSchema | None = None
    item_schema_b: FeatureSchema | None = None

    def __post_init__(self):
        """The model contract, checked on build and on load; each error names its field."""
        check_alpha(self.alpha)
        d = self.ae_user_a.embed_dim
        for name in ("ae_item_a", "ae_user_b", "ae_item_b"):
            if getattr(self, name).embed_dim != d:
                raise ValueError(f"{name} embed_dim {getattr(self, name).embed_dim} != ae_user_a embed_dim {d}")
        for name in ("rs_a", "rs_b"):
            want, source = 2 * d, f"2 * embed_dim = {2 * d}"
            for k, layer in enumerate(getattr(self, name).layers):
                if layer.n_in != want:
                    raise ValueError(f"{name} layer {k} takes {layer.n_in} inputs, expected {source}")
                want, source = layer.n_out, f"the {layer.n_out} outputs of layer {k}"
            if want != 1:
                raise ValueError(f"{name} ends in {want} outputs, expected 1")
        if self.map.dim != d:
            raise ValueError(f"map is {self.map.dim}x{self.map.dim}, expected embed_dim {d}x{d}")
        for field, ae_field in _SCHEMA_ENCODERS:
            schema, ae = getattr(self, field), getattr(self, ae_field)
            if schema is not None and schema.encoded_length != ae.input_dim:
                raise ValueError(f"{field} encodes {schema.encoded_length} columns, {ae_field} takes {ae.input_dim}")

    @property
    def embed_dim(self) -> int:
        return self.ae_user_a.embed_dim

    def encoders(self, domain_index: int) -> tuple[Autoencoder, Autoencoder]:
        return (self.ae_user_a, self.ae_item_a) if domain_index == 0 else (self.ae_user_b, self.ae_item_b)

    def schemas(self, domain_index: int) -> tuple[FeatureSchema, FeatureSchema]:
        pair = (
            (self.user_schema_a, self.item_schema_a)
            if domain_index == 0
            else (self.user_schema_b, self.item_schema_b)
        )
        if pair[0] is None or pair[1] is None:
            raise ValueError("model carries no schemas; use predict_from_embeddings instead")
        return pair

    def scorer(self, domain_index: int) -> RatingModel:
        return self.rs_a if domain_index == 0 else self.rs_b


def _domain_index(domain) -> int:
    if domain in (0, 1):
        return int(domain)
    if isinstance(domain, str) and domain.lower() in ("a", "b"):
        return 0 if domain.lower() == "a" else 1
    raise ValueError(f"unknown domain {domain!r}, expected 'a'/'b' or 0/1")


def new_dual_model(
    ae_user_a: Autoencoder,
    ae_item_a: Autoencoder,
    ae_user_b: Autoencoder,
    ae_item_b: Autoencoder,
    alpha: float,
    seed: int,
    hidden: tuple[int, ...] = (16, 8),
    schemas_a: tuple[FeatureSchema, FeatureSchema] | None = None,
    schemas_b: tuple[FeatureSchema, FeatureSchema] | None = None,
) -> DualModel:
    d = ae_user_a.embed_dim
    schemas_a = schemas_a or (None, None)
    schemas_b = schemas_b or (None, None)
    return DualModel(
        rs_a=make_rating_model(d, seed, 0, hidden),
        rs_b=make_rating_model(d, seed, 1, hidden),
        map=init_map(d, seed),
        alpha=alpha,
        ae_user_a=ae_user_a,
        ae_item_a=ae_item_a,
        ae_user_b=ae_user_b,
        ae_item_b=ae_item_b,
        user_schema_a=schemas_a[0],
        item_schema_a=schemas_a[1],
        user_schema_b=schemas_b[0],
        item_schema_b=schemas_b[1],
    )


def embed_pair(dm: DualModel, domain, user_raw: dict, item_raw: dict) -> tuple[np.ndarray, np.ndarray]:
    """Raw feature dicts -> (user embedding, item embedding) for one domain."""
    idx = _domain_index(domain)
    ae_user, ae_item = dm.encoders(idx)
    user_schema, item_schema = dm.schemas(idx)
    return (
        ae_encode(ae_user, encode(user_schema, user_raw)),
        ae_encode(ae_item, encode(item_schema, item_raw)),
    )


def predict_from_embeddings(dm: DualModel, domain, user_emb: np.ndarray, item_emb: np.ndarray, in_overlap: bool = True) -> float:
    """Hybrid rating from precomputed embeddings.

    in_overlap=False zeroes the transfer rate for this record (the user has
    no presence in the partner domain, so there is nothing to transfer).
    """
    idx = _domain_index(domain)
    alpha = dm.alpha if in_overlap else 0.0
    within = score(dm.scorer(idx), user_emb, item_emb)
    if alpha == 0.0:
        return within
    x = dm.map.x
    mapped = x @ user_emb if idx == 0 else x.T @ user_emb
    cross = score(dm.scorer(1 - idx), mapped, item_emb)
    return (1.0 - alpha) * within + alpha * cross


def predict(dm: DualModel, domain, user_raw: dict, item_raw: dict, in_overlap: bool = True) -> float:
    """Hybrid rating for raw user/item feature dicts of one domain."""
    user_emb, item_emb = embed_pair(dm, domain, user_raw, item_raw)
    return predict_from_embeddings(dm, domain, user_emb, item_emb, in_overlap)


# ---------------------------------------------------------------------------
# training arrays


@dataclass
class TrainingArrays:
    """Per-interaction embedding rows for one domain, ready for batching."""

    user_emb: np.ndarray  # (n, d)
    item_emb: np.ndarray  # (n, d)
    ratings: np.ndarray  # (n,)
    overlap: np.ndarray  # (n,) bool: user also present in the partner domain
    user_ids: np.ndarray  # (n,) str

    def __post_init__(self):
        self.user_ids = np.asarray(self.user_ids, dtype=np.str_)

    def __len__(self) -> int:
        return self.ratings.shape[0]

    def rows(self, indices) -> "TrainingArrays":
        """The rows at the given indices, in that order (a fold's slice of a whole domain)."""
        idx = np.asarray(indices, dtype=np.intp)
        columns = (self.user_emb, self.item_emb, self.ratings, self.overlap, self.user_ids)
        return TrainingArrays(*(a.take(idx, axis=0) for a in columns))


def prepare_domain(
    dataset: DomainDataset,
    ae_user: Autoencoder,
    ae_item: Autoencoder,
    record_indices=None,
    partner_users=None,
) -> TrainingArrays:
    """Encode one domain's interactions into embedding rows.

    record_indices selects a subset (fold training or test split);
    partner_users is the other domain's user-id set for overlap flags (all
    True when omitted).
    """
    recs = dataset.interactions
    idx = range(len(recs)) if record_indices is None else [int(i) for i in record_indices]
    chosen = [recs[i] for i in idx]
    uids = sorted({r.user_id for r in chosen})
    iids = sorted({r.item_id for r in chosen})
    u_emb = {}
    if uids:
        mat = np.stack([encode(dataset.user_schema, dataset.user_features[u]) for u in uids])
        emb = ae_encode(ae_user, mat)
        u_emb = {u: emb[k] for k, u in enumerate(uids)}
    i_emb = {}
    if iids:
        mat = np.stack([encode(dataset.item_schema, dataset.item_features[i]) for i in iids])
        emb = ae_encode(ae_item, mat)
        i_emb = {i: emb[k] for k, i in enumerate(iids)}
    d = ae_user.embed_dim
    n = len(chosen)
    user_rows = np.zeros((n, d))
    item_rows = np.zeros((n, d))
    y = np.zeros(n)
    overlap = np.ones(n, dtype=bool)
    for k, rec in enumerate(chosen):
        user_rows[k] = u_emb[rec.user_id]
        item_rows[k] = i_emb[rec.item_id]
        y[k] = rec.rating
        if partner_users is not None:
            overlap[k] = rec.user_id in partner_users
    return TrainingArrays(user_rows, item_rows, y, overlap, [r.user_id for r in chosen])


# ---------------------------------------------------------------------------
# loss and gradients of K stacked models


@dataclass
class ModelStack:
    """The trainable arrays of K dual models of one shape and alpha. scorers
    lists each scorer layer as (weights (2, K, out, in), bias (2, K, 1, out),
    activation): a domain axis, then a model axis. layers[k] holds the views
    of domain k's scorer; x (K, d, d) holds the maps. ids number the models
    in errors; None for one model trained alone."""

    scorers: list
    x: np.ndarray
    alpha: float
    ids: tuple[int, ...] | None = None

    def __post_init__(self):
        self.layers = tuple([(w[k], b[k], act) for w, b, act in self.scorers] for k in (0, 1))
        # (within, cross) layers of the domains a pass runs: both (None), or domain k alone;
        # the cross channel runs each domain's batch through its partner's scorer
        flipped = [(w[::-1], b[::-1], act) for w, b, act in self.scorers]
        self.channels = {None: (self.scorers, flipped)}
        for k in (0, 1):
            self.channels[k] = ([(w[k : k + 1], b[k : k + 1], act) for w, b, act in self.scorers],
                                [(w[k : k + 1], b[k : k + 1], act) for w, b, act in flipped])
        self.names = None if self.ids is None else [f"model {m}" for m in self.ids]

    @classmethod
    def of(cls, models: list[DualModel], ids=None) -> "ModelStack":
        """Stack copies of the models' arrays and point each model's layers and
        map at its slice; arrays a caller holds (a shared warm map) stay as
        they were. ids default to the positions when there are several."""
        shapes = [[(l.weights.shape, l.activation) for rs in (dm.rs_a, dm.rs_b) for l in rs.layers] for dm in models]
        for m, dm in enumerate(models):
            if dm.alpha != models[0].alpha:
                raise ValueError(f"model {m} has alpha {dm.alpha}, model 0 {models[0].alpha}; a stack shares one alpha")
            if shapes[m] != shapes[0]:
                raise ValueError(f"model {m}'s scorers differ in shape from model 0's; a stack needs one shape")
        scorers = [
            (np.stack([[dm.scorer(k).layers[n].weights for dm in models] for k in (0, 1)]),
             np.stack([[dm.scorer(k).layers[n].bias[None] for dm in models] for k in (0, 1)]), layer.activation)
            for n, layer in enumerate(models[0].rs_a.layers)
        ]
        if ids is None and len(models) > 1:
            ids = range(len(models))
        stack = cls(scorers, np.stack([dm.map.x for dm in models]), models[0].alpha, None if ids is None else tuple(ids))
        for m, dm in enumerate(models):
            for k in (0, 1):
                for layer, (w, b, _) in zip(dm.scorer(k).layers, stack.layers[k]):
                    layer.weights, layer.bias = w[m], b[m, 0]
            dm.map = OrthogonalMap(stack.x[m], dm.map.domain_pair)
        return stack

    def part(self, m: int) -> "ModelStack":
        """Model m alone: a stack of one whose arrays are views into this one."""
        s = slice(m, m + 1)
        scorers = [(w[:, s], b[:, s], act) for w, b, act in self.scorers]
        return ModelStack(scorers, self.x[s], self.alpha, None if self.ids is None else self.ids[s])


def _release(dm: DualModel) -> None:
    """Give a model copies of the stack slices it points at, so it owns its arrays."""
    for layer in dm.rs_a.layers + dm.rs_b.layers:
        layer.weights, layer.bias = layer.weights.copy(), layer.bias.copy()
    dm.map = OrthogonalMap(dm.map.x.copy(), dm.map.domain_pair)


def _domain_pass(stack: ModelStack, k, ui, y, overlap):
    """Hybrid MSE and gradients of the domains a pass runs: both (k None) or domain k.

    ui (D, K, n, 2d) holds each domain's user and item embeddings side by
    side, y and overlap (D, K, n), with D = 2 or 1. The within channel is one
    forward and backward pass over the domains' own scorers, the cross
    channel one over their partners'. Returns (loss (D, K), within grads,
    cross grads, map grads (D, K, d, d)): cross grads belong to the partner
    scorers, and the map grad is dX^T for domain a and dX for domain b. When
    no record carries cross weight the cross channel is skipped and both are
    None; a domain whose records carry none gets exact zeros.
    """
    n = ui.shape[-2]
    own, other = stack.channels[k]
    y_w, caches_w = stack_forward(own, ui)
    if stack.alpha == 0.0 or not overlap.any():
        resid = y_w - y[..., None]
        _, grads_own = stack_backward(own, caches_w, 2.0 * resid / n, need_dx=False)
        return (resid * resid).sum(axis=(-2, -1)) / n, grads_own, None, None

    d = stack.x.shape[-1]
    u = ui[..., :d]
    x_t = stack.x.swapaxes(-1, -2)
    # domain a maps by u X^T, domain b by u X; one pass of each alone reads the
    # transposed view itself, since a 1-row product's bits follow its layout
    maps = np.array((x_t, stack.x)) if k is None else (x_t, stack.x)[k][None]
    alpha_vec = np.where(overlap, stack.alpha, 0.0)[..., None]  # (D, K, n, 1)
    y_c, caches_c = stack_forward(other, np.concatenate([u @ maps, ui[..., d:]], axis=-1))

    within_weight = 1.0 - alpha_vec
    resid = within_weight * y_w + alpha_vec * y_c - y[..., None]
    dpred = 2.0 * resid / n
    _, grads_own = stack_backward(own, caches_w, dpred * within_weight, need_dx=False)
    dx_cross, grads_other = stack_backward(other, caches_c, dpred * alpha_vec)
    return (resid * resid).sum(axis=(-2, -1)) / n, grads_own, grads_other, u.swapaxes(-1, -2) @ dx_cross[..., :d]


def _one_domain_passes(stack: ModelStack, batches):
    """Each present domain's batch through `_domain_pass` alone, combined as one
    pass of both combines them: (total, grads, grad_x or None)."""
    total, grad_x = None, None
    terms = ([], [])  # per scorer, flat gradient lists to add up, its within term first
    for k, batch in enumerate(batches):
        if batch is None:
            continue
        u, i, y, overlap = batch
        loss, grads_own, grads_cross, grad_m = _domain_pass(stack, k, np.concatenate((u, i), axis=-1)[None],
                                                            y[None], overlap[None])
        total = loss[0] if total is None else total + loss[0]
        terms[k].insert(0, [g[0] for pair in grads_own for g in pair])
        if grads_cross is not None:
            terms[1 - k].append([g[0] for pair in grads_cross for g in pair])
            gx = grad_m[0].swapaxes(-1, -2) if k == 0 else grad_m[0]
            grad_x = gx if grad_x is None else grad_x + gx
    shapes = (terms[0] or terms[1])[0]
    per_scorer = [[sum(parts[1:], parts[0]) for parts in zip(*t)] if t else [np.zeros_like(a) for a in shapes]
                  for t in terms]
    stacked = [np.stack(pair) for pair in zip(*per_scorer)]
    return total, list(zip(stacked[::2], stacked[1::2])), grad_x


def dual_loss_and_grads(stack: ModelStack, batch_a, batch_b, penalty_weight: float = 1.0):
    """Combined objective L_a + L_b + penalty of K stacked models and its exact gradients.

    batch_a / batch_b are (user_emb, item_emb, ratings, overlap) tuples with
    a leading model axis, (K, n, d), (K, n, d), (K, n), (K, n); pass None to
    leave a domain out of this step. When both domains bring batches of the
    same size above one row, both run as one stacked program on a domain
    axis; otherwise each runs through the same kernel alone. Returns (total
    (K,), grads, grad_x (K, d, d)); grads is a per-layer [(dW (2, K, out,
    in), db (2, K, 1, out))] list whose domain axis indexes the scorer, with
    zeros for a scorer no term of this step touches. Raises
    FloatingPointError naming the model whose total or gradient is not finite.
    """
    if batch_a is not None and batch_b is not None and batch_a[2].shape[1] == batch_b[2].shape[1] > 1:
        (u_a, i_a, y_a, o_a), (u_b, i_b, y_b, o_b) = batch_a, batch_b
        # np.array stacks arrays of one shape on a new leading axis, as np.stack does, at a fraction of its cost
        ui = np.concatenate((np.array((u_a, u_b)), np.array((i_a, i_b))), axis=-1)
        loss, grads, grads_cross, grad_m = _domain_pass(stack, None, ui, np.array((y_a, y_b)), np.array((o_a, o_b)))
        total, grad_x = loss[0] + loss[1], None
        if grads_cross is not None:
            # each scorer's gradient: its within term plus the cross term of its partner's batch
            grads = [(w + cw[::-1], b + cb[::-1]) for (w, b), (cw, cb) in zip(grads, grads_cross)]
            grad_x = grad_m[0].swapaxes(-1, -2) + grad_m[1]
    else:
        total, grads, grad_x = _one_domain_passes(stack, (batch_a, batch_b))
    pen_loss, pen_grad = ortho_penalty(stack.x)
    total = total + penalty_weight * pen_loss
    grad_x = penalty_weight * pen_grad if grad_x is None else grad_x + penalty_weight * pen_grad
    check_finite_step(total, [grad_x] + [g for pair in grads for g in pair], stack.names)
    return total, grads, grad_x


def evaluate_loss(dm: DualModel, arrays: TrainingArrays, domain) -> float:
    """Full-pass hybrid MSE of one domain (no penalty term)."""
    if len(arrays) == 0:
        return 0.0
    preds = predict_batch(dm, domain, arrays)
    return float(np.mean((preds - arrays.ratings) ** 2))


def predict_batch(dm: DualModel, domain, arrays: TrainingArrays) -> np.ndarray:
    idx = _domain_index(domain)
    within = score_batch(dm.scorer(idx), arrays.user_emb, arrays.item_emb)
    if dm.alpha == 0.0:
        return within
    x = dm.map.x
    mapped = arrays.user_emb @ x.T if idx == 0 else arrays.user_emb @ x
    cross = score_batch(dm.scorer(1 - idx), mapped, arrays.item_emb)
    alpha_vec = np.where(arrays.overlap, dm.alpha, 0.0)
    return (1.0 - alpha_vec) * within + alpha_vec * cross


# ---------------------------------------------------------------------------
# training loop


def apply_grads(layers: list, grads: list, lr) -> None:
    """In-place SGD step on every layer of a stack: W -= lr * dW, b -= lr * db.

    lr is a number, or per-domain rates shaped to broadcast on the domain axis.
    """
    for (w, b, _), (dw, db) in zip(layers, grads):
        w -= lr * dw
        b -= lr * db


def _train_step(stack: ModelStack, batches, cfg: TrainConfig, lrs: np.ndarray) -> None:
    _, grads, grad_x = dual_loss_and_grads(stack, *batches, cfg.penalty_weight)
    apply_grads(stack.scorers, grads, lrs)
    stack.x -= cfg.lr_map * grad_x


def _schedule(counts: np.ndarray, batch_size: int) -> list:
    """An epoch's steps for counts (K, 2) of rows per model and domain: (first
    row, per-model batch sizes (K, 2), uniform), uniform when all K agree."""
    starts = np.arange(0, counts.max(), batch_size)
    sizes = np.clip(counts[None] - starts[:, None, None], 0, batch_size)  # (steps, K, 2)
    return list(zip(starts.tolist(), sizes.tolist(), (sizes == sizes[:, :1]).all(axis=(1, 2)).tolist()))


def _epoch_batches(domains, order):
    """batch(k, models, start, n): the stacked (user_emb, item_emb, ratings,
    overlap) batch of epoch rows start..start+n of the models (a slice) in
    domain k, or None when n is 0. order[k] holds each model's shuffled rows.

    A lone model gathers its whole epoch at once, as much memory as one copy
    of its rows; a stack gathers each step's rows, so it never holds K copies.
    """
    def gather(arrays, rows):
        return tuple(a.take(rows, axis=0) for a in (arrays.user_emb, arrays.item_emb, arrays.ratings, arrays.overlap))

    if order[0].shape[0] == 1:
        whole = [gather(arrays, rows) for arrays, rows in zip(domains, order)]
        return lambda k, models, start, n: tuple(a[models, start : start + n] for a in whole[k]) if n else None
    return lambda k, models, start, n: gather(domains[k], order[k][models, start : start + n]) if n else None


def fit_models(
    models: list[DualModel],
    arrays_a: TrainingArrays,
    arrays_b: TrainingArrays,
    cfg: TrainConfig,
    seeds: list[int],
    rows: tuple[list, list] | None = None,
) -> list[tuple[list[float], list[float]]]:
    """Train K models of one shape and alpha in lockstep, each bit for bit as alone.

    Model m trains on rows[0][m] of arrays_a and rows[1][m] of arrays_b (all
    rows when rows is None), shuffled by seeds[m]. Each step pairs the next
    mini-batch of each domain (the shorter domain runs out first) and updates
    both scorers and the map of every live model, both domains in one stacked
    pass (`dual_loss_and_grads`); a step whose batch sizes differ between
    models runs model by model. Each epoch ends by projecting
    every map onto the orthogonal manifold. A model leaves the stack after
    cfg.epochs, or after the first epoch whose combined full-pass loss moves
    less than cfg.tol. Returns each model's (trace_a, trace_b) of full-pass
    losses, index 0 before training and index e after epoch e; each model
    ends up owning its arrays. Raises FloatingPointError naming the model
    when a step is not finite, or when a domain's full-pass loss ends an
    epoch above twice its pre-training value (its lr_a or lr_b is too high).
    """
    n_models = len(models)
    if len(seeds) != n_models or (rows is not None and not len(rows[0]) == len(rows[1]) == n_models):
        raise ValueError(f"{n_models} models need as many seeds and row sets")
    domains = (arrays_a, arrays_b)
    # rows[k][m]: model m's row indices into domain k, or None for every row
    rows = [[None] * n_models] * 2 if rows is None else [[np.asarray(r, dtype=np.intp) for r in rs] for rs in rows]
    counts = np.array([[len(d) if r is None else len(r) for d, r in zip(domains, model_rows)] for model_rows in zip(*rows)])
    in_model = (lambda m: f" in model {m}") if n_models > 1 else (lambda m: "")
    empty = np.flatnonzero((counts == 0).any(axis=1))
    if empty.size:
        raise ValueError(f"both domains need at least one training record{in_model(empty[0])}")

    def full_pass(m, k):
        return evaluate_loss(models[m], domains[k] if rows[k][m] is None else domains[k].rows(rows[k][m]), k)

    traces = [([full_pass(m, 0)], [full_pass(m, 1)]) for m in range(n_models)]
    live = list(range(n_models))
    stack = ModelStack.of(models)
    schedule = _schedule(counts, cfg.batch_size)
    lrs = np.array([cfg.lr_a, cfg.lr_b]).reshape(2, 1, 1, 1)  # broadcast on the scorers' domain axis
    for epoch in range(cfg.epochs):
        # per domain, each live model's shuffled rows, one model per row of order[k]
        order = [np.zeros((len(live), counts[live, k].max()), dtype=np.intp) for k in (0, 1)]
        for k in (0, 1):
            for j, m in enumerate(live):
                perm = make_rng(seeds[m], _L_SHUFFLE, k, epoch).permutation(counts[m, k])
                order[k][j, : counts[m, k]] = perm if rows[k][m] is None else rows[k][m][perm]
        batch = _epoch_batches(domains, order)
        for start, sizes, uniform in schedule:
            if uniform:
                _train_step(stack, [batch(k, slice(None), start, n) for k, n in enumerate(sizes[0])], cfg, lrs)
                continue
            for j, model_sizes in enumerate(sizes):  # batch sizes differ: model by model
                if any(model_sizes):
                    part = [batch(k, slice(j, j + 1), start, n) for k, n in enumerate(model_sizes)]
                    _train_step(stack.part(j), part, cfg, lrs)
        stopped = []
        for j, m in enumerate(live):
            stack.x[j] = project_orthogonal(models[m].map).x
            for k, trace in enumerate(traces[m]):
                trace.append(full_pass(m, k))
                if trace[-1] > 2.0 * trace[0]:
                    raise FloatingPointError(
                        f"domain {'ab'[k]} full-pass loss {trace[-1]:.6g} after epoch {epoch + 1} exceeds twice "
                        f"its pre-training value {trace[0]:.6g}{in_model(m)}; lower {('lr_a', 'lr_b')[k]}"
                    )
            trace_a, trace_b = traces[m]
            if abs(trace_a[-2] + trace_b[-2] - trace_a[-1] - trace_b[-1]) < cfg.tol:
                stopped.append(m)
        if len(stopped) == len(live):
            break
        if stopped:
            for m in stopped:
                _release(models[m])
            live = [m for m in live if m not in stopped]
            stack = ModelStack.of([models[m] for m in live], live)
            schedule = _schedule(counts[live], cfg.batch_size)
    for m in live:
        _release(models[m])
    return traces


def fit(
    dm: DualModel,
    arrays_a: TrainingArrays,
    arrays_b: TrainingArrays,
    cfg: TrainConfig,
    seed: int = 0,
) -> tuple[list[float], list[float]]:
    """Train one model (`fit_models` at K = 1) until the epoch budget or until
    the combined full-pass loss moves less than cfg.tol between epochs.

    Returns per-domain traces of the full-pass loss; index 0 is the
    pre-training loss, index e the loss after epoch e.
    """
    return fit_models([dm], arrays_a, arrays_b, cfg, [seed])[0]


# ---------------------------------------------------------------------------
# multi-domain extension


@dataclass
class MultiModel:
    """n-domain generalization: one scorer per domain, one map per pair.

    maps[(j, k)] with j < k holds the matrix taking domain-k user embeddings
    into domain j's space; the opposite direction is its transpose.
    """

    models: list[RatingModel]
    maps: dict
    alpha: float
    encoders: list[tuple[Autoencoder, Autoencoder]]  # per domain (user, item)
    schemas: list[tuple[FeatureSchema, FeatureSchema]] | None = None

    def __post_init__(self):
        n = len(self.models)
        if n < 2:
            raise ValueError("a MultiModel needs at least two domains")
        expected = {(j, k) for j in range(n) for k in range(j + 1, n)}
        if set(self.maps) != expected:
            raise ValueError(f"maps must cover exactly the unordered pairs {sorted(expected)}")
        check_alpha(self.alpha)

    @property
    def n_domains(self) -> int:
        return len(self.models)

    def cross_matrix(self, into: int, out_of: int) -> np.ndarray:
        """Matrix taking domain `out_of` user embeddings into domain `into`."""
        if into == out_of:
            raise ValueError("cross_matrix needs two distinct domains")
        if into < out_of:
            return self.maps[(into, out_of)].x
        return self.maps[(out_of, into)].x.T


def new_multi_model(
    encoders: list[tuple[Autoencoder, Autoencoder]],
    alpha: float,
    seed: int,
    hidden: tuple[int, ...] = (16, 8),
) -> MultiModel:
    n = len(encoders)
    d = encoders[0][0].embed_dim
    models = [make_rating_model(d, seed, k, hidden) for k in range(n)]
    maps = {(j, k): init_map(d, seed, domain_pair=(str(j), str(k))) for j in range(n) for k in range(j + 1, n)}
    return MultiModel(models, maps, alpha, list(encoders))


def multi_from_dual(dm: DualModel) -> MultiModel:
    """View a trained DualModel as the n=2 special case."""
    # dm.map takes domain-0 embeddings into domain 1, so the (0, 1) slot
    # (domain 1 -> domain 0) is its transpose
    pair_map = OrthogonalMap(dm.map.x.T, (dm.map.domain_pair[1], dm.map.domain_pair[0]))
    schemas = None
    if dm.user_schema_a is not None and dm.user_schema_b is not None:
        schemas = [(dm.user_schema_a, dm.item_schema_a), (dm.user_schema_b, dm.item_schema_b)]
    return MultiModel(
        models=[dm.rs_a, dm.rs_b],
        maps={(0, 1): pair_map},
        alpha=dm.alpha,
        encoders=[(dm.ae_user_a, dm.ae_item_a), (dm.ae_user_b, dm.ae_item_b)],
        schemas=schemas,
    )


def predict_multi_from_embeddings(mm: MultiModel, domain_index: int, user_emb: np.ndarray, item_emb: np.ndarray) -> float:
    n = mm.n_domains
    if not 0 <= domain_index < n:
        raise ValueError(f"unknown domain index {domain_index}, model has {n} domains")
    within = score(mm.models[domain_index], user_emb, item_emb)
    if mm.alpha == 0.0:
        return within
    cross_sum = 0.0
    for j in range(n):
        if j == domain_index:
            continue
        mapped = mm.cross_matrix(j, domain_index) @ user_emb
        cross_sum += score(mm.models[j], mapped, item_emb)
    return (1.0 - mm.alpha) * within + (mm.alpha / (n - 1)) * cross_sum


def predict_multi(mm: MultiModel, domain_index: int, user_raw: dict, item_raw: dict) -> float:
    """Hybrid rating in an n-domain model from raw feature dicts."""
    if not 0 <= domain_index < mm.n_domains:
        raise ValueError(f"unknown domain index {domain_index}, model has {mm.n_domains} domains")
    if mm.schemas is None:
        raise ValueError("model carries no schemas; use predict_multi_from_embeddings instead")
    ae_user, ae_item = mm.encoders[domain_index]
    user_schema, item_schema = mm.schemas[domain_index]
    return predict_multi_from_embeddings(
        mm,
        domain_index,
        ae_encode(ae_user, encode(user_schema, user_raw)),
        ae_encode(ae_item, encode(item_schema, item_raw)),
    )


# ---------------------------------------------------------------------------
# pipeline helpers


def train_pair_autoencoders(
    ds_a: DomainDataset, ds_b: DomainDataset, cfg: TrainConfig, seed: int
) -> tuple[tuple[Autoencoder, Autoencoder], tuple[Autoencoder, Autoencoder]]:
    """Train the (user, item) autoencoders of both domains; returns them per domain.

    Corpora are the encoded feature vectors of every entity in the domain,
    iterated in sorted-id order for determinism. Autoencoders whose corpora
    have the same shape train in lockstep (`train_autoencoders`).
    """
    corpora, tags = [], []
    for ds in (ds_a, ds_b):
        for entity, table, schema in (("user", ds.user_features, ds.user_schema), ("item", ds.item_features, ds.item_schema)):
            corpora.append(np.stack([encode(schema, table[eid]) for eid in sorted(table)]))
            tags.append((ds.domain_name, entity))
    (ua, _), (ia, _), (ub, _), (ib, _) = train_autoencoders(
        corpora, tags, embed_dim=cfg.embed_dim, lr=cfg.ae_lr, epochs=cfg.ae_epochs, batch_size=cfg.ae_batch_size, seed=seed
    )
    return (ua, ia), (ub, ib)


def shared_user_alignment(
    ds_a: DomainDataset,
    ds_b: DomainDataset,
    ae_user_a: Autoencoder,
    ae_user_b: Autoencoder,
) -> OrthogonalMap | None:
    """Procrustes-align the two user-embedding spaces on the shared users.

    Each user present in both domains gives one paired row (their embedding
    under each domain's user encoder); the best-fit rotation between the
    paired clouds seeds the model's mapping.  When the domains' user bases are
    unrelated the fit is meaningless but harmless: the rotation it returns is
    noise either way.  Returns None when the overlap is below the embedding
    dimension, where the fit would be underdetermined.
    """
    shared = sorted(set(ds_a.user_features) & set(ds_b.user_features))
    if len(shared) < ae_user_a.embed_dim:
        return None
    raw_a = np.array([encode(ds_a.user_schema, ds_a.user_features[u]) for u in shared])
    raw_b = np.array([encode(ds_b.user_schema, ds_b.user_features[u]) for u in shared])
    return align_map(ae_encode(ae_user_a, raw_a), ae_encode(ae_user_b, raw_b))


def train_pair(
    ds_a: DomainDataset,
    ds_b: DomainDataset,
    cfg: TrainConfig,
    seed: int = 0,
) -> tuple[DualModel, tuple[list[float], list[float]]]:
    """Full pipeline on one domain pair: autoencoders, dual model, fit.

    The mapping matrix starts from the shared-user Procrustes alignment
    rather than a random rotation: the cross-domain term is only informative
    when X already relates the two embedding spaces, and the training
    gradient through the alpha-weighted cross term is too weak to rotate a
    random X into alignment within any reasonable epoch budget.
    """
    (ae_user_a, ae_item_a), (ae_user_b, ae_item_b) = train_pair_autoencoders(ds_a, ds_b, cfg, seed)
    dm = new_dual_model(
        ae_user_a,
        ae_item_a,
        ae_user_b,
        ae_item_b,
        cfg.alpha,
        seed,
        cfg.hidden,
        schemas_a=(ds_a.user_schema, ds_a.item_schema),
        schemas_b=(ds_b.user_schema, ds_b.item_schema),
    )
    warm = shared_user_alignment(ds_a, ds_b, ae_user_a, ae_user_b)
    if warm is not None:
        dm.map = warm
    users_a = {r.user_id for r in ds_a.interactions}
    users_b = {r.user_id for r in ds_b.interactions}
    arrays_a = prepare_domain(ds_a, ae_user_a, ae_item_a, partner_users=users_b)
    arrays_b = prepare_domain(ds_b, ae_user_b, ae_item_b, partner_users=users_a)
    traces = fit(dm, arrays_a, arrays_b, cfg, seed)
    return dm, traces


# ---------------------------------------------------------------------------
# persistence


def _model_arrays(model: RatingModel, prefix: str) -> dict:
    out = {f"{prefix}n": np.array(len(model.layers))}
    for i, layer in enumerate(model.layers):
        out[f"{prefix}l{i}_w"] = layer.weights
        out[f"{prefix}l{i}_b"] = layer.bias
        out[f"{prefix}l{i}_act"] = np.array(layer.activation)
    return out


def _model_from_arrays(data, prefix: str) -> RatingModel:
    n = int(data[f"{prefix}n"])
    layers = [
        DenseLayer(
            np.array(data[f"{prefix}l{i}_w"]),
            np.array(data[f"{prefix}l{i}_b"]),
            str(data[f"{prefix}l{i}_act"]),
        )
        for i in range(n)
    ]
    return RatingModel(layers)


# (DualModel field, bundle key or key prefix) of every scorer, autoencoder and schema
_SCORER_KEYS = (("rs_a", "rs0_"), ("rs_b", "rs1_"))
_AE_KEYS = (("ae_user_a", "ae_u0_"), ("ae_item_a", "ae_i0_"), ("ae_user_b", "ae_u1_"), ("ae_item_b", "ae_i1_"))
_SCHEMA_KEYS = (("user_schema_a", "schema_u0"), ("item_schema_a", "schema_i0"),
                ("user_schema_b", "schema_u1"), ("item_schema_b", "schema_i1"))


def save_dual_model(dm: DualModel, path) -> None:
    """Persist every weight plus alpha and any attached schemas to one npz."""
    payload = {
        "version": np.array(_DUMP_VERSION),
        "alpha": np.array(dm.alpha),
        "map_x": dm.map.x,
        "map_pair": np.array(list(dm.map.domain_pair), dtype=np.str_),
    }
    for field, prefix in _SCORER_KEYS:
        payload.update(_model_arrays(getattr(dm, field), prefix))
    for field, prefix in _AE_KEYS:
        payload.update(autoencoder_arrays(getattr(dm, field), prefix))
    for field, key in _SCHEMA_KEYS:
        if getattr(dm, field) is not None:
            payload[key] = np.array(schema_to_text(getattr(dm, field)))
    np.savez(path, **payload)


class _Bundle(dict):
    """The arrays of a saved model by key; a missing key is a ValueError naming it."""

    def __missing__(self, key):
        raise ValueError(f"model bundle has no key {key!r}")


def load_dual_model(path) -> DualModel:
    """Rebuild a saved model; a missing key, a non-finite number, or an array
    that breaks the DualModel contract raises ValueError naming the key or
    the field."""
    with np.load(path, allow_pickle=False) as npz:
        data = _Bundle((key, npz[key]) for key in npz.files)
    if str(data["version"]) != _DUMP_VERSION:
        raise ValueError(f"unsupported dump version {data['version']!r}")
    for key, array in data.items():
        if array.dtype.kind in "fc" and not np.isfinite(array).all():
            raise ValueError(f"model bundle key {key!r} holds a non-finite value")
    parts = {}
    for build, keys in ((_model_from_arrays, _SCORER_KEYS), (autoencoder_from_arrays, _AE_KEYS)):
        for field, prefix in keys:
            try:
                parts[field] = build(data, prefix)
            except ValueError as exc:
                raise ValueError(f"{field} (bundle keys {prefix}*): {exc}") from None
    for field, key in _SCHEMA_KEYS:
        parts[field] = parse_schema(str(data[key])) if key in data else None
    try:
        return DualModel(
            map=OrthogonalMap(np.array(data["map_x"]), tuple(str(s) for s in data["map_pair"])),
            alpha=float(data["alpha"]),
            **parts,
        )
    except ValueError as exc:
        # a schema that does not fit its autoencoder: the error opens with the schema's field
        key = dict(_SCHEMA_KEYS).get(str(exc).split(" ", 1)[0])
        if key is None:
            raise
        raise ValueError(f"{exc} (bundle key {key})") from None
