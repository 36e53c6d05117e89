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

`MultiModel` generalizes prediction to n domains, averaging the n-1 cross
terms; one orthogonal map is stored per unordered domain pair and the
reverse direction uses its transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dualrec.autoencoder import Autoencoder, ae_encode, autoencoder_arrays, autoencoder_from_arrays, train_autoencoder
from dualrec.features import DomainDataset, FeatureSchema, encode, parse_schema, schema_to_text
from dualrec.mapping import OrthogonalMap, align_map, init_map, ortho_penalty, project_orthogonal
from dualrec.numeric import DenseLayer, check_finite_step, dense_layer, layer_backward, layer_forward, make_rng

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


def model_backward(model: RatingModel, caches, dy: np.ndarray, need_dx: bool = True):
    """Returns (dx, per-layer [(dW, db), ...] parallel to model.layers).

    need_dx=False skips the first layer's input gradient and returns None for dx.
    """
    grads = []
    d = dy
    for k in range(len(model.layers) - 1, -1, -1):
        d, dw, db = layer_backward(model.layers[k], caches[k], d, need_dx or k > 0)
        grads.append((dw, db))
    grads.reverse()
    return d, grads


def apply_grads(model: RatingModel, grads: list, lr: float) -> None:
    """In-place SGD step on every layer: W -= lr * dW, b -= lr * db."""
    for layer, (dw, db) in zip(model.layers, grads):
        layer.weights -= lr * dw
        layer.bias -= lr * db


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
    user_ids: tuple[str, ...]

    def __len__(self) -> int:
        return self.ratings.shape[0]

    def rows(self, indices) -> "TrainingArrays":
        """The rows at the given indices, in that order (a fold's slice of a whole domain)."""
        idx = np.asarray(indices, dtype=np.intp)
        return TrainingArrays(
            self.user_emb[idx], self.item_emb[idx], self.ratings[idx], self.overlap[idx],
            tuple(self.user_ids[i] for i in idx),
        )


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
    return TrainingArrays(user_rows, item_rows, y, overlap, tuple(r.user_id for r in chosen))


# ---------------------------------------------------------------------------
# loss and gradients


def _domain_loss_grads(dm: DualModel, batch, domain_index: int):
    """Hybrid MSE on one domain's batch and gradients for everything it touches.

    Returns (loss, grads_self, grads_other, grad_x). When every record's
    effective alpha is 0 the cross channel carries no weight: it is skipped
    and grads_other and grad_x are None.
    """
    u, i, y, overlap = batch
    n = u.shape[0]
    self_model = dm.scorer(domain_index)
    y_w, caches_w = model_forward(self_model, np.concatenate([u, i], axis=1))
    if dm.alpha == 0.0 or not overlap.any():
        resid = y_w - y[:, None]
        _, grads_self = model_backward(self_model, caches_w, 2.0 * resid / n, need_dx=False)
        return float(np.mean(resid**2)), grads_self, None, None

    other_model = dm.scorer(1 - domain_index)
    alpha_vec = np.where(overlap, dm.alpha, 0.0)[:, None]  # (n, 1)
    x = dm.map.x
    mapped = u @ x.T if domain_index == 0 else u @ x
    y_c, caches_c = model_forward(other_model, np.concatenate([mapped, i], axis=1))

    within_weight = 1.0 - alpha_vec
    resid = within_weight * y_w + alpha_vec * y_c - y[:, None]
    loss = float(np.mean(resid**2))

    dpred = 2.0 * resid / n
    _, grads_self = model_backward(self_model, caches_w, dpred * within_weight, need_dx=False)
    dx_cross, grads_other = model_backward(other_model, caches_c, dpred * alpha_vec)
    d_mapped = dx_cross[:, : u.shape[1]]
    # mapped = u X^T (domain a) gives dX = d_mapped^T u; mapped = u X gives u^T d_mapped
    grad_x = d_mapped.T @ u if domain_index == 0 else u.T @ d_mapped
    return loss, grads_self, grads_other, grad_x


def _sum_grads(acc, extra):
    if acc is None or extra is None:
        return extra if acc is None else acc
    return [(aw + ew, ab + eb) for (aw, ab), (ew, eb) in zip(acc, extra)]


def dual_loss_and_grads(dm: DualModel, batch_a, batch_b, penalty_weight: float = 1.0):
    """Combined objective L_a + L_b + penalty and its exact gradients.

    batch_a / batch_b are (user_emb, item_emb, ratings, overlap) tuples; pass
    None to leave a domain out of this step. Returns
    (total, loss_a, loss_b, grads_a, grads_b, grad_x); grads_a or grads_b is
    None when no term of this step touches that scorer. Raises
    FloatingPointError when the total or any gradient is not finite.
    """
    grads = [None, None]
    losses = [0.0, 0.0]
    grad_x = None
    for k, batch in enumerate((batch_a, batch_b)):
        if batch is None:
            continue
        losses[k], g_self, g_other, gx = _domain_loss_grads(dm, batch, k)
        grads[k] = _sum_grads(grads[k], g_self)
        grads[1 - k] = _sum_grads(grads[1 - k], g_other)
        if gx is not None:
            grad_x = gx if grad_x is None else grad_x + gx
    pen_loss, pen_grad = ortho_penalty(dm.map)
    total = losses[0] + losses[1] + penalty_weight * pen_loss
    grad_x = penalty_weight * pen_grad if grad_x is None else grad_x + penalty_weight * pen_grad
    arrays = [grad_x]
    for model_grads in grads:
        for pair in model_grads or ():
            arrays.extend(pair)
    check_finite_step(total, arrays)
    return total, losses[0], losses[1], grads[0], grads[1], grad_x


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


def _epoch_batches(arrays: TrainingArrays, batch_size: int, rng: np.random.Generator) -> list:
    """One shuffled pass as (user_emb, item_emb, ratings, overlap) batches.

    The rows are gathered in shuffled order once, so each batch is a slice.
    """
    order = rng.permutation(len(arrays))
    rows = (arrays.user_emb[order], arrays.item_emb[order], arrays.ratings[order], arrays.overlap[order])
    return [tuple(a[s : s + batch_size] for a in rows) for s in range(0, len(order), batch_size)]


def train_epoch(
    dm: DualModel,
    arrays_a: TrainingArrays,
    arrays_b: TrainingArrays,
    lr_a: float = 0.01,
    lr_b: float = 0.01,
    lr_map: float = 0.01,
    batch_size: int = 32,
    seed: int = 0,
    epoch: int = 0,
    penalty_weight: float = 1.0,
) -> tuple[float, float]:
    """One interleaved pass over both domains.

    Every step pairs the next mini-batch from each domain (the shorter
    domain simply runs out first), pushes gradients into both scorers and
    the map together, and at the end of the pass the map is projected back
    onto the orthogonal manifold. Returns mean per-domain batch losses.
    """
    if len(arrays_a) == 0 or len(arrays_b) == 0:
        raise ValueError("both domains need at least one training record")
    if min(lr_a, lr_b, lr_map) < 0:
        raise ValueError("learning rates must be >= 0")
    batches_a = _epoch_batches(arrays_a, batch_size, make_rng(seed, _L_SHUFFLE, 0, epoch))
    batches_b = _epoch_batches(arrays_b, batch_size, make_rng(seed, _L_SHUFFLE, 1, epoch))
    losses_a: list[float] = []
    losses_b: list[float] = []
    # the map is updated in place below, so a map the caller holds stays as it was
    dm.map = dm.map.copy()
    for step in range(max(len(batches_a), len(batches_b))):
        ba = batches_a[step] if step < len(batches_a) else None
        bb = batches_b[step] if step < len(batches_b) else None
        _, loss_a, loss_b, grads_a, grads_b, grad_x = dual_loss_and_grads(dm, ba, bb, penalty_weight)
        if ba is not None:
            losses_a.append(loss_a)
        if bb is not None:
            losses_b.append(loss_b)
        for model, grads, lr in ((dm.rs_a, grads_a, lr_a), (dm.rs_b, grads_b, lr_b)):
            if grads is not None:
                apply_grads(model, grads, lr)
        dm.map.x -= lr_map * grad_x
    dm.map = project_orthogonal(dm.map)
    return float(np.mean(losses_a)), float(np.mean(losses_b))


def fit(
    dm: DualModel,
    arrays_a: TrainingArrays,
    arrays_b: TrainingArrays,
    cfg: TrainConfig,
    seed: int = 0,
) -> tuple[list[float], list[float]]:
    """Run train_epoch until the epoch budget or until the combined
    full-pass loss moves less than cfg.tol between consecutive epochs.

    Returns per-domain traces of the full-pass evaluation loss; index 0 is
    the pre-training loss, index e the loss after epoch e.
    """
    trace_a = [evaluate_loss(dm, arrays_a, 0)]
    trace_b = [evaluate_loss(dm, arrays_b, 1)]
    for epoch in range(cfg.epochs):
        train_epoch(
            dm,
            arrays_a,
            arrays_b,
            lr_a=cfg.lr_a,
            lr_b=cfg.lr_b,
            lr_map=cfg.lr_map,
            batch_size=cfg.batch_size,
            seed=seed,
            epoch=epoch,
            penalty_weight=cfg.penalty_weight,
        )
        trace_a.append(evaluate_loss(dm, arrays_a, 0))
        trace_b.append(evaluate_loss(dm, arrays_b, 1))
        prev = trace_a[-2] + trace_b[-2]
        cur = trace_a[-1] + trace_b[-1]
        if abs(prev - cur) < cfg.tol:
            break
    return trace_a, trace_b


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


def train_domain_autoencoders(dataset: DomainDataset, cfg: TrainConfig, seed: int) -> tuple[Autoencoder, Autoencoder]:
    """Train the (user, item) autoencoder pair for one domain.

    Corpora are the encoded feature vectors of every entity in the domain,
    iterated in sorted-id order for determinism.
    """
    out = []
    for entity, table, schema in (
        ("user", dataset.user_features, dataset.user_schema),
        ("item", dataset.item_features, dataset.item_schema),
    ):
        corpus = np.stack([encode(schema, table[eid]) for eid in sorted(table)])
        ae, _ = train_autoencoder(
            corpus,
            embed_dim=cfg.embed_dim,
            lr=cfg.ae_lr,
            epochs=cfg.ae_epochs,
            batch_size=cfg.ae_batch_size,
            seed=seed,
            domain=dataset.domain_name,
            entity=entity,
        )
        out.append(ae)
    return out[0], out[1]


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
    ae_user_a, ae_item_a = train_domain_autoencoders(ds_a, cfg, seed)
    ae_user_b, ae_item_b = train_domain_autoencoders(ds_b, cfg, seed)
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
    return DualModel(
        map=OrthogonalMap(np.array(data["map_x"]), tuple(str(s) for s in data["map_pair"])),
        alpha=float(data["alpha"]),
        **parts,
    )
