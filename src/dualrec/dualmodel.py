"""Dual-transfer rating model and its training loop.

A model holds n >= 2 domains that share users. Each domain owns feature
autoencoders and a small rating MLP that scores a (user embedding, item
embedding) pair, and each unordered domain pair (j, k), j < k, shares an
orthogonal map X_jk taking domain-j user embeddings into domain k's space;
the reverse direction is its transpose. Predictions hybridize the domains:
the target domain's own scorer handles the within-domain part, and the n-1
partner scorers, each fed the user embedding mapped into its space,
contribute a cross-domain part weighted by the transfer rate alpha:

    r_k(u, i) = (1 - alpha) * rs_k(u, i) + alpha / (n - 1) * sum_{j != k} rs_j(X_kj u, i)

At n = 2 this is r_a = (1 - alpha) rs_a(u, i) + alpha rs_b(X u, i) and
r_b = (1 - alpha) rs_b(u, i) + alpha rs_a(X^T u, i). Domains are named a, b,
c, ... by index, in errors and in the domain argument of `predict`.

Training takes two domains. It interleaves mini-batches from both; every
step both scorers and the map receive their gradients together (the map
accumulates both domains' cross terms plus the orthogonality penalty), and the map is
re-projected onto the orthogonal manifold at the end of each epoch. With
alpha = 0 the coupling vanishes exactly and training degenerates to two
independent single-domain runs, bit for bit, which the tests' single-domain
oracle reproduces. Users who only exist in one domain get an effective alpha of 0
so no cross signal is fabricated for them.

The training kernel (`fit_models`) trains K models of one shape and alpha
in lockstep. Every scorer parameter of the stack lives in one flat buffer
with a domain axis and a model axis, (2, K, P), and each layer's weights
(2, K, out, in) and biases are views into it; the maps are stacked on the
model axis. Both domains' rows sit in one table (`Rows`: user and item
embeddings side by side, ratings, overlap flags and user ids), built once
per domain pair and read, never copied, by training: a step's rows come
from one take per array, and each epoch's full-pass loss of a model reads
its rows of a domain as a slice of the table, or by one take for a subset
such as a fold. A model keeps its scorers' parameters in one flat buffer
with a domain axis, (n, P), whose rows its scorers' layers view; in a stack
that buffer is the model's slice (2, P). One record's prediction encodes
its user and item into one (2, 1, w) input when the domain's encoders take
one width w, embeds both with one stacked forward of the two encoders, then
runs all n scorers, in the overlap or out of it, as one forward over the
layer list the model builds once (`DualModel.scorer_layers`). A batch of one
domain's rows (`predict_batch`: every full pass and held-out score) runs
each channel as one forward over its slice j:j+1; stacked, the channels'
products cost the same, but doubled buffers fault their pages back in on
every call (ROADMAP item 15). Both
scorers share one architecture, so a step runs both channels of its
domains as one forward and one backward pass on a leading channel axis:
the within channel feeds each domain's batch to its own scorer, the cross
channel feeds it, mapped, to its partner's, through the scorers gathered
as [[a, b], [b, a]]. Every pass is a slice of the domain axis, both domains, a or b, and reads the
same slice of those scorers and of the channel gradient buffer laid out
like them, whose within channel is the gradient buffer itself. Each
product keeps its rows, so every slice has the bits of that channel run
alone. One addition of the reversed cross channel gives each scorer both
its terms, one finite check covers them and the map gradient, and one
in-place SGD update, with lr_a and lr_b on the domain axis, moves both
scorers. A step whose domains bring batches of different sizes, or of one
row, runs each domain alone, as a slice of one domain, into zeroed
buffers. A step whose batch sizes differ between models runs one
view of the stack per run of models with equal sizes (`lockstep_steps`,
shared with the autoencoders). Each model keeps its own seed, shuffles,
starting map and `tol` stop, and follows the trajectory it would follow
alone bit for bit. `fit` is the kernel at K = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from dualrec.autoencoder import Autoencoder, ae_encode, autoencoder_arrays, autoencoder_from_arrays, train_autoencoders
from dualrec.features import DomainDataset, FeatureSchema, encode, parse_schema, require_disjoint_items, schema_to_text
from dualrec.mapping import OrthogonalMap, align_map, init_map, ortho_penalty, project_orthogonal
from dualrec.numeric import (
    DenseLayer, check_bound, check_finite_step, dense_layer, flat_params, layer_views, lockstep_steps, make_rng,
    stack_backward, stack_forward, view_layers,
)

_L_RS_INIT = 0x5C07
_L_SHUFFLE = 0x50FF

_DUMP_VERSION = "dualrec-dual-1"


def check_alpha(alpha: float, name: str = "alpha") -> None:
    """The transfer-rate bound of every rating model, [0, 0.5]; 0.5 weighs both channels alike."""
    check_bound(name, alpha, "[0, 0.5]")


def check_keys(cfg, keys, bound: str) -> None:
    """`check_bound` on each of cfg's keys, as an integer where its dataclass
    field is typed int; a tuple (typed tuple[int, ...]) entry by entry, named key[i]."""
    integral = {f.name for f in fields(cfg) if f.type in ("int", "tuple[int, ...]")}
    for key in keys:
        value = getattr(cfg, key)
        entries = [(f"{key}[{i}]", v) for i, v in enumerate(value)] if isinstance(value, tuple) else [(key, value)]
        for name, v in entries:
            check_bound(name, v, bound, integer=key in integral)


@dataclass
class TrainConfig:
    """Knobs for the full pipeline; defaults are the package's standard run.

    Every key is checked on construction by `check_bound`, and an error
    names its key.
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
        check_keys(self, ("embed_dim", "epochs", "batch_size", "ae_epochs", "ae_batch_size", "hidden"), "[1, inf)")
        check_keys(self, ("tol", "lr_a", "lr_b", "lr_map", "penalty_weight", "ae_lr"), "[0, inf)")


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


# ---------------------------------------------------------------------------
# dual model


def _letter(k: int) -> str:
    """Domain k's name: a, b, c, ..."""
    return chr(ord("a") + k)


@dataclass
class Domain:
    """One domain of a model: its scorer, its (user, item) autoencoders, and the
    schemas that encode raw features for them (None in a model fed embeddings)."""

    scorer: RatingModel
    ae_user: Autoencoder
    ae_item: Autoencoder
    user_schema: FeatureSchema | None = None
    item_schema: FeatureSchema | None = None


class _SchemaWidthError(ValueError):
    """A schema that encodes another number of columns than its autoencoder
    reads; domain and entity ("user" or "item") locate it."""

    def __init__(self, message: str, domain: int, entity: str):
        super().__init__(message)
        self.domain, self.entity = domain, entity


@dataclass
class DualModel:
    """A rating model over n >= 2 domains: domains[k] holds domain k's parts, and
    maps[(j, k)], j < k, takes domain-j user embeddings into domain k's space.

    The scorers share one architecture, and every layer of domains[k].scorer
    is a view of row k of one flat buffer, `params` (n, P), in `layout`. A
    model builds that buffer from copies of the scorers it is given, in
    Domain objects of its own, so building it moves no other model's arrays.
    It also lists, once, the layers that scoring runs: scorer_layers (all n
    scorers, the one list every scorer forward outside training reads) and
    encoder_groups[k] (domain k's user and item encoders, stacked as one
    group where they take one width). Those groups are views
    of buffers built from the model's own copies of the encoders, whose layers
    view them too, so a write into an encoder's weights reaches them.
    """

    domains: list[Domain]
    maps: dict[tuple[int, int], OrthogonalMap]
    alpha: float

    def __post_init__(self):
        """The model contract, checked on build and on load; each error names its
        part by domain letter (rs_a, ae_user_b, user_schema_c, ...)."""
        check_alpha(self.alpha)
        n = len(self.domains)
        if n < 2:
            raise ValueError(f"a model needs at least two domains, got {n}")
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        if len(self.maps) != len(pairs) or not all(pair in self.maps for pair in pairs):
            raise ValueError(f"maps must cover exactly the unordered pairs {pairs}, got {list(self.maps)}")
        d = self.embed_dim
        for k, dom in enumerate(self.domains):
            tag = _letter(k)
            for entity, ae in (("user", dom.ae_user), ("item", dom.ae_item)):
                if ae.embed_dim != d:
                    raise ValueError(f"ae_{entity}_{tag} embed_dim {ae.embed_dim} != ae_user_a embed_dim {d}")
            want, source = 2 * d, f"2 * embed_dim = {2 * d}"
            for i, layer in enumerate(dom.scorer.layers):
                if layer.n_in != want:
                    raise ValueError(f"rs_{tag} layer {i} takes {layer.n_in} inputs, expected {source}")
                want, source = layer.n_out, f"the {layer.n_out} outputs of layer {i}"
            if want != 1:
                raise ValueError(f"rs_{tag} ends in {want} outputs, expected 1")
            for entity, schema, ae in (("user", dom.user_schema, dom.ae_user), ("item", dom.item_schema, dom.ae_item)):
                if schema is not None and schema.encoded_length != ae.input_dim:
                    raise _SchemaWidthError(f"{entity}_schema_{tag} encodes {schema.encoded_length} columns, "
                                            f"ae_{entity}_{tag} takes {ae.input_dim}", k, entity)
        for (j, k), link in self.maps.items():
            if link.dim != d:
                name = "map" if n == 2 else f"map {_letter(j)}{_letter(k)}"
                raise ValueError(f"{name} is {link.dim}x{link.dim}, expected embed_dim {d}x{d}")
        shapes = [[(l.n_in, l.n_out, l.activation) for l in dom.scorer.layers] for dom in self.domains]
        for k, shape in enumerate(shapes):
            if shape != shapes[0]:
                raise ValueError(f"rs_{_letter(k)} differs in shape from rs_a; a model's scorers share one architecture")
        self.domains = [replace(dom, scorer=dom.scorer.copy(), ae_user=_own_encoder(dom.ae_user),
                                ae_item=_own_encoder(dom.ae_item)) for dom in self.domains]
        self.encoder_groups = [_encoder_groups(dom) for dom in self.domains]
        params, self.layout = flat_params([dom.scorer.layers for dom in self.domains])
        self.params = params

    @property
    def params(self) -> np.ndarray:
        return self._params

    @params.setter
    def params(self, buf: np.ndarray) -> None:
        """Make buf (n, P) the scorers' buffer, which their layers and scorer_layers view."""
        self._params, self.scorer_layers = buf, layer_views(buf, self.layout)
        view_layers([dom.scorer.layers for dom in self.domains], buf, self.layout)

    @property
    def embed_dim(self) -> int:
        return self.domains[0].ae_user.embed_dim

    def index(self, domain) -> int:
        """The index of a domain given by index (an integer, never a bool) or by letter."""
        n = len(self.domains)
        if isinstance(domain, (int, np.integer)) and not isinstance(domain, bool) and domain in range(n):
            return int(domain)
        letters = [_letter(k) for k in range(n)]
        if isinstance(domain, str) and domain.lower() in letters:
            return letters.index(domain.lower())
        names = f"{'/'.join(map(repr, letters))} or {'/'.join(map(str, range(n)))}"
        raise ValueError(f"unknown domain {domain!r}, expected {names}")

    def cross_matrix(self, into: int, out_of: int) -> np.ndarray:
        """The matrix taking domain `out_of` user embeddings into domain `into`."""
        return self.maps[(out_of, into)].x if out_of < into else self.maps[(into, out_of)].x.T

    # The two-domain names below have one reader, the benchmark's
    # TrainStandard.model_arrays (benchmark/run.py); they go with ROADMAP item 1.
    rs_a = property(lambda self: self.domains[0].scorer)
    rs_b = property(lambda self: self.domains[1].scorer)
    ae_user_a = property(lambda self: self.domains[0].ae_user)
    ae_item_a = property(lambda self: self.domains[0].ae_item)
    ae_user_b = property(lambda self: self.domains[1].ae_user)
    ae_item_b = property(lambda self: self.domains[1].ae_item)
    user_schema_a = property(lambda self: self.domains[0].user_schema)
    item_schema_a = property(lambda self: self.domains[0].item_schema)
    user_schema_b = property(lambda self: self.domains[1].user_schema)
    item_schema_b = property(lambda self: self.domains[1].item_schema)
    map = property(lambda self: self.maps[(0, 1)])


def _own_encoder(ae: Autoencoder) -> Autoencoder:
    """ae with a copy of its encoder layer, whose arrays `_encoder_groups` moves into a model's buffer."""
    return replace(ae, encoder=ae.encoder.copy())


def _encoder_groups(dom: Domain) -> list:
    """Domain dom's user and item encoders grouped by input width, as `train_autoencoders`
    groups corpora, each group as the layers `stack_forward` runs: at one width, one group
    of both, views of one buffer (2, P); at two widths, the user's and then the item's, 2-D
    views of a buffer each. The encoders' own layers view the same buffers (`flat_params`)."""
    aes = (dom.ae_user, dom.ae_item)
    groups = []
    for width in dict.fromkeys(ae.input_dim for ae in aes):
        buf, layout = flat_params([[ae.encoder] for ae in aes if ae.input_dim == width])
        groups.append(layer_views(buf if len(buf) > 1 else buf[0], layout))
    return groups


def new_dual_model(
    encoders,
    *compat_aes: Autoencoder,
    alpha: float,
    seed: int,
    hidden: tuple[int, ...] = (16, 8),
    schemas: list[tuple[FeatureSchema, FeatureSchema]] | None = None,
    schemas_a: tuple[FeatureSchema, FeatureSchema] | None = None,
    schemas_b: tuple[FeatureSchema, FeatureSchema] | None = None,
) -> DualModel:
    """A fresh model over encoders, one (user AE, item AE) pair per domain, and
    schemas, one (user schema, item schema) pair per domain or None. Domain k's
    scorer draws from (seed, k); the map of domains (j, k) starts from
    init_map(embed_dim, seed, (letter j, letter k)), its own stream.

    new_dual_model(ae_user_a, ae_item_a, ae_user_b, ae_item_b, alpha=, seed=,
    schemas_a=, schemas_b=) builds the same two-domain model. Its one caller is
    benchmark/selftest.py, and it goes with ROADMAP item 1.
    """
    if compat_aes:
        encoders = [(encoders, compat_aes[0]), tuple(compat_aes[1:])]
        schemas = None if schemas_a is None else [schemas_a, schemas_b]
    n = len(encoders)
    d = encoders[0][0].embed_dim
    schemas = schemas or [(None, None)] * n
    if len(schemas) != n:
        raise ValueError(f"{n} domains of encoders but {len(schemas)} schema pairs")
    domains = [Domain(make_rating_model(d, seed, k, hidden), *aes, *pair)
               for k, (aes, pair) in enumerate(zip(encoders, schemas))]
    maps = {(j, k): init_map(d, seed, (_letter(j), _letter(k))) for j in range(n) for k in range(j + 1, n)}
    return DualModel(domains, maps, alpha)


def embed_pair(dm: DualModel, domain, user_raw: dict, item_raw: dict) -> tuple[np.ndarray, np.ndarray]:
    """Raw feature dicts -> (user embedding, item embedding) for one domain."""
    return _embed(dm, dm.index(domain), user_raw, item_raw)


def _embed(dm: DualModel, k: int, user_raw: dict, item_raw: dict) -> tuple[np.ndarray, np.ndarray]:
    """`ae_encode` of each encoded record, run on the model's encoder_groups: where both
    encoders take one width, both records are encoded into one (2, 1, w) input and embedded
    by one `stack_forward`, else each by a 1-row forward of its own. The schema-width
    contract has checked the widths."""
    dom = dm.domains[k]
    if dom.user_schema is None or dom.item_schema is None:
        raise ValueError("model carries no schemas; use predict_from_embeddings instead")
    if not (dom.ae_user.trained and dom.ae_item.trained):
        raise RuntimeError("autoencoder is untrained; train it before encoding")
    groups = dm.encoder_groups[k]
    if len(groups) == 1:  # one width: both records encoded into one (2, 1, w) input of one product
        x = np.zeros((2, 1, dom.ae_user.input_dim))
        encode(dom.user_schema, user_raw, x[0, 0])
        encode(dom.item_schema, item_raw, x[1, 0])
        y = stack_forward(groups[0], x)[0]
        return y[0, 0], y[1, 0]
    return (stack_forward(groups[0], encode(dom.user_schema, user_raw)[None])[0][0],
            stack_forward(groups[1], encode(dom.item_schema, item_raw)[None])[0][0])


def predict_from_embeddings(dm: DualModel, domain, user_emb: np.ndarray, item_emb: np.ndarray, in_overlap: bool = True) -> float:
    """Hybrid rating from precomputed embeddings.

    in_overlap=False zeroes the transfer rate for this record (the user has
    no presence in the partner domains, so there is nothing to transfer).
    All n scorers run, in the overlap or out of it, as one forward over
    `DualModel.scorer_layers` on rows x (n, 1, 2d): row k holds (u, i) for
    domain k's own scorer, and row j != k holds (cross_matrix(j, k) @ u, i)
    for partner j's. The blend is (1 - alpha) * y[k] + alpha / (n - 1) * cross,
    cross summing y[j] for j != k in index order from 0.0; at an effective
    alpha of 0 it is y[k], bit for bit. An embedding of
    another shape than (embed_dim,), or one that holds anything but finite
    numbers, raises ValueError naming it.
    """
    k = dm.index(domain)
    for entity, emb in (("user", user_emb), ("item", item_emb)):
        if np.shape(emb) != (dm.embed_dim,):
            raise ValueError(f"the {entity} embedding of domain {_letter(k)} has shape {np.shape(emb)}, "
                             f"expected ({dm.embed_dim},)")
        emb = np.asarray(emb)
        if emb.dtype.kind not in "iuf" or not np.isfinite(emb).all():
            raise ValueError(f"the {entity} embedding of domain {_letter(k)} holds {emb.tolist()}, "
                             f"expected finite numbers")
    return _hybrid(dm, k, user_emb, item_emb, in_overlap)


def _hybrid(dm: DualModel, k: int, user_emb, item_emb, in_overlap: bool) -> float:
    n, d = len(dm.domains), dm.embed_dim
    x = np.empty((n, 1, 2 * d))
    x[..., d:] = item_emb
    for j in range(n):
        x[j, 0, :d] = user_emb if j == k else dm.cross_matrix(j, k) @ user_emb
    y = stack_forward(dm.scorer_layers, x)[0][:, 0, 0].tolist()
    alpha = dm.alpha if in_overlap else 0.0
    cross = 0.0
    for j in range(n):
        if j != k:
            cross += y[j]
    return (1.0 - alpha) * y[k] + alpha / (n - 1) * cross


def predict(dm: DualModel, domain, user_raw: dict, item_raw: dict, in_overlap: bool = True) -> float:
    """Hybrid rating for raw user/item feature dicts of one domain
    (`predict_from_embeddings` on their embeddings)."""
    k = dm.index(domain)
    return _hybrid(dm, k, *_embed(dm, k, user_raw, item_raw), in_overlap)


# ---------------------------------------------------------------------------
# training rows


class Batch(NamedTuple):
    """Rows taken from a `Rows` table, with the axes of the taken indices in
    front: ui (..., n, 2d) the user and item embeddings side by side, ratings
    (..., n), weights (2, ..., n) each row's channel weights 1 - alpha and
    alpha (None from a table without them), and overlap (..., n). A step's
    batch has a leading domain axis, both domains or one, and a model axis."""

    ui: np.ndarray
    ratings: np.ndarray
    weights: np.ndarray | None
    overlap: np.ndarray


@dataclass(frozen=True)
class Rows:
    """Embedding rows of one or more domains in one table, domain k's at
    bounds[k]:bounds[k + 1]: ui (N, 2d) each row's user and item embeddings
    side by side, ratings (N,), overlap (N,) bool (the user also rates in the
    partner domain) and user_ids (N,) object, the exact ids. weights (2, N),
    set by `weighted`, holds each row's channel weights for one alpha."""

    ui: np.ndarray
    ratings: np.ndarray
    overlap: np.ndarray
    user_ids: np.ndarray
    bounds: tuple[int, ...]
    weights: np.ndarray | None = None

    def __len__(self) -> int:
        return self.ratings.shape[0]

    @classmethod
    def join(cls, domains: list["Rows"]) -> "Rows":
        """One table of one-domain tables, domain by domain."""
        columns = [np.concatenate([getattr(rows, name) for rows in domains])
                   for name in ("ui", "ratings", "overlap", "user_ids")]
        return cls(*columns, tuple(np.cumsum([0, *map(len, domains)]).tolist()))

    def domain(self, k: int) -> "Rows":
        """Domain k's rows, as views into this table (without channel weights)."""
        s = slice(self.bounds[k], self.bounds[k + 1])
        return Rows(self.ui[s], self.ratings[s], self.overlap[s], self.user_ids[s], (0, s.stop - s.start))

    def weighted(self, alpha: float) -> "Rows":
        """This table with the channel weights of alpha, sharing its arrays: 1 -
        alpha and alpha on the overlap, 1 and 0 off it."""
        cross = np.where(self.overlap, alpha, 0.0)
        return replace(self, weights=np.array((1.0 - cross, cross)))

    def take(self, rows) -> Batch:
        """The table rows at rows, each array with rows' axes in front."""
        weights = None if self.weights is None else self.weights.take(rows, axis=1)
        return Batch(self.ui.take(rows, axis=0), self.ratings.take(rows), weights, self.overlap.take(rows))

    def step(self, rows, start: int, sizes) -> list:
        """One step's [batch_a, batch_b] of domain k's next sizes[k] rows of
        rows[k] (K, n_max) from start. Batches of one size above one row are
        one take of both domains, the same Batch twice; otherwise domain k
        gets its own take on a domain axis of one, or None when sizes[k] is 0,
        since a 1-row product's bits follow its layout."""
        n_a, n_b = sizes
        if n_a == n_b > 1:
            return [self.take(rows[:, :, start : start + n_a])] * 2
        return [self.take(rows[k : k + 1, :, start : start + n]) if n else None for k, n in enumerate(sizes)]


def entity_vectors(dataset: DomainDataset) -> tuple[np.ndarray, np.ndarray]:
    """The encoded feature vectors of every user and every item, as (users,
    items) matrices whose rows follow the dataset's sorted ids (`user_ids`,
    `item_ids`), the order of the autoencoders' corpora. A domain pair encodes
    each entity once and embeds each matrix once (`encode_pair`), for its
    corpora, its warm map and its embedding rows."""
    return tuple(np.stack([encode(schema, table[e]) for e in ids.tolist()]) for ids, table, schema in (
        (dataset.user_ids, dataset.user_features, dataset.user_schema),
        (dataset.item_ids, dataset.item_features, dataset.item_schema)))


def prepare_domain(dataset: DomainDataset, embeddings, partner_users=None) -> Rows:
    """One domain's interactions as a table of embedding rows, in record order.

    embeddings is the domain's (user, item) pair of embedding matrices, its
    `entity_vectors` embedded by its encoders (`encode_pair`); each
    interaction reads its user's and its item's row. partner_users, the other
    domain's user ids, sets the overlap flags (all True when omitted).
    """
    users, items = embeddings
    ui = np.concatenate([users[dataset.users], items[dataset.items]], axis=1)
    rates_there = np.full(len(dataset.user_ids), partner_users is None)  # per user of the domain
    if partner_users is not None:  # np.isin would compare the object ids pair by pair
        rates_there[np.intersect1d(dataset.user_ids, partner_users, return_indices=True)[1]] = True
    return Rows(ui, dataset.ratings.copy(), rates_there[dataset.users], dataset.user_ids[dataset.users], (0, len(ui)))


def prepare_rows(datasets, embeddings) -> Rows:
    """The table of two domains' rows, domain b's after domain a's, each read
    from its embeddings (`prepare_domain`), with overlap flags from the
    users who rate in the partner domain."""
    users = [ds.user_ids[np.unique(ds.users)] for ds in datasets]
    return Rows.join([prepare_domain(ds, emb, partner_users=users[1 - k])
                      for k, (ds, emb) in enumerate(zip(datasets, embeddings))])


# ---------------------------------------------------------------------------
# loss and gradients of K stacked models


@dataclass
class ModelStack:
    """The trainable arrays of K dual models of one shape and alpha. params
    (2, K, P) holds every scorer parameter, a domain axis and a model axis
    before each scorer's flat parameters in layout [(n_in, n_out, activation)]
    (`layer_views`); x (K, d, d) holds the maps. A step runs both channels of
    a batch on a leading channel axis: weights (2, 2, K, P) holds the scorers
    [[a, b], [b, a]] (within, cross), and a pass of domains lo:hi (both, a or
    b) reads its slice weights[:, lo:hi], or params[None, lo:hi] when it runs
    the within channel alone (`passes`). The pass writes into the same slice
    of channel_grads, laid out as weights: its channel 0 is grads, shaped like
    params, so the within terms land in place and the cross terms are added
    from channel 1. ids number the models in errors; None for one model
    trained alone."""

    params: np.ndarray
    layout: tuple
    x: np.ndarray
    alpha: float
    ids: tuple[int, ...] | None = None
    channel_grads: np.ndarray | None = None

    def __post_init__(self):
        if self.channel_grads is None:
            self.channel_grads = np.empty((2, *self.params.shape))
        self.grads = self.channel_grads[0]
        self.weights = np.empty((2, *self.params.shape))
        self.gathered = self.weights.reshape(4, *self.params.shape[1:])  # np.take's out: [a, b, b, a]
        # per pass, its domains lo:hi and its channel count c (1 when the cross channel is skipped):
        # views of the scorers it reads and of the channel gradients it writes
        scorers = (self.params[None], self.weights)
        self.passes = {(lo, hi, c): (layer_views(scorers[c - 1][:, lo:hi], self.layout),
                                     layer_views(self.channel_grads[:c, lo:hi], self.layout))
                       for lo, hi in ((0, 2), (0, 1), (1, 2)) for c in (1, 2)}
        self.names = None if self.ids is None else [f"model {m}" for m in self.ids]
        self.parts = {}

    @classmethod
    def of(cls, models: list[DualModel], ids=None) -> "ModelStack":
        """Stack copies of the models' arrays and point each model's scorer
        buffer (`DualModel.params`) and map at its slice; arrays a caller holds
        (a shared warm map) stay as they were. ids default to the positions when
        there are several."""
        for m, dm in enumerate(models):
            if len(dm.domains) != 2:
                raise ValueError(f"model {m} has {len(dm.domains)} domains; the training kernel runs two")
            if dm.alpha != models[0].alpha:
                raise ValueError(f"model {m} has alpha {dm.alpha}, model 0 {models[0].alpha}; a stack shares one alpha")
            if dm.layout != models[0].layout:
                raise ValueError(f"model {m}'s scorers differ in shape from model 0's; a stack needs one shape")
        if ids is None and len(models) > 1:
            ids = range(len(models))
        params = np.stack([dm.params for dm in models], axis=1)
        maps = np.stack([dm.maps[(0, 1)].x for dm in models])
        stack = cls(params, models[0].layout, maps, models[0].alpha, None if ids is None else tuple(ids))
        for m, dm in enumerate(models):
            dm.params = stack.params[:, m]
            dm.maps[(0, 1)] = OrthogonalMap(stack.x[m], dm.maps[(0, 1)].domain_pair)
        return stack

    def part(self, s: slice) -> "ModelStack":
        """Models s alone, their arrays views into this stack; this stack when s covers it."""
        if s.stop - s.start == self.params.shape[1]:
            return self
        key = s.start, s.stop
        if key not in self.parts:
            self.parts[key] = ModelStack(self.params[:, s], self.layout, self.x[s], self.alpha,
                                         None if self.ids is None else self.ids[s], self.channel_grads[:, :, s])
        return self.parts[key]


def _release(dm: DualModel) -> None:
    """Give a model copies of the stack slices it points at, so it owns its arrays."""
    dm.params = dm.params.copy()
    dm.maps = {pair: link.copy() for pair, link in dm.maps.items()}


_CHANNEL_SCORERS = np.array([0, 1, 1, 0])  # [[a, b], [b, a]]: the within and the cross channel of both domains


def _domain_pass(stack: ModelStack, lo: int, hi: int, ui, y, weights, overlap):
    """Hybrid MSE and gradients of the domains lo:hi that a pass runs: both, a or b.

    ui (D, K, n, 2d) holds each domain's user and item embeddings side by
    side, y and overlap (D, K, n) and weights (2, D, K, n) their channel
    weights, with D = hi - lo. Both channels run as one forward and one
    backward pass on a leading channel axis: the within channel feeds each
    domain's batch to its own scorer, the cross channel feeds it, its user
    half mapped, to the partner's. Each product keeps its rows, so each slice
    is the 2-D math of that channel alone. The within gradients land in the
    domains' slots of stack.grads, the cross gradients in channel 1 of
    stack.channel_grads, in the domains' slots (each the gradient of the
    partner's scorer). Returns (loss (D, K), map grads (D, K, d, d)): the map
    grad is dX^T for domain a and dX for domain b. When no record carries
    cross weight the cross channel is skipped, writes nothing and the map
    grads are None; a domain whose records carry none gets exact zeros.
    """
    n = ui.shape[-2]
    if stack.alpha == 0.0 or not overlap.any():
        layers, grads = stack.passes[lo, hi, 1]
        y_w, caches = stack_forward(layers, ui[None])
        resid = y_w[0] - y[..., None]
        stack_backward(layers, caches, (2.0 * resid / n)[None], grads, need_dx=False)
        return (resid * resid).sum(axis=(-2, -1)) / n, None

    np.take(stack.params, _CHANNEL_SCORERS, axis=0, out=stack.gathered, mode="clip")
    layers, grads = stack.passes[lo, hi, 2]
    d = stack.x.shape[-1]
    u = ui[..., :d]
    # domain a maps by u X^T, domain b by u X; a pass of one domain reads the
    # transposed view itself, since a 1-row product's bits follow its layout
    maps = (stack.x.swapaxes(-1, -2), stack.x)[lo:hi]
    maps = maps[0][None] if len(maps) == 1 else np.array(maps)
    h = np.array((ui, ui))  # the within and the cross channel's input
    h[1, ..., :d] = u @ maps
    y_c, caches = stack_forward(layers, h)
    w = weights[..., None]
    parts = w * y_c
    resid = parts[0] + parts[1] - y[..., None]
    dpred = 2.0 * resid / n
    dx = stack_backward(layers, caches, dpred * w, grads)
    return (resid * resid).sum(axis=(-2, -1)) / n, u.swapaxes(-1, -2) @ dx[1, ..., :d]


def dual_loss_and_grads(stack: ModelStack, batch_a, batch_b, penalty_weight: float = 1.0):
    """Combined objective L_a + L_b + penalty of K stacked models and its exact gradients.

    batch_a / batch_b are the step's `Batch`es as `Rows.step` takes them, on
    a leading domain axis. One Batch passed as both, a take of both domains,
    runs as one pass of both; otherwise each batch, a take of its domain
    alone, runs alone into zeroed buffers, and None leaves a domain out of
    this step. One addition combines the scorers' gradients either way.
    Returns (total (K,), grads, grad_x (K, d, d)); grads is stack.grads,
    shaped like stack.params (its domain axis indexes the scorer), with zeros
    for a scorer no term of this step touches, and the next step overwrites
    it. Raises FloatingPointError naming the model whose total or gradient
    is not finite.
    """
    if batch_a is batch_b:
        passes = [(0, 2, batch_a)]
    else:
        # each domain alone; a term that no pass writes stays 0
        stack.channel_grads.fill(0.0)
        passes = [(k, k + 1, b) for k, b in enumerate((batch_a, batch_b)) if b is not None]
    total = grad_x = None
    for lo, hi, batch in passes:
        loss, grad_m = _domain_pass(stack, lo, hi, *batch)
        total = sum(loss[1:], loss[0]) if total is None else sum(loss, total)  # domain a's loss, then b's
        for d, g in zip(range(lo, hi), () if grad_m is None else grad_m):
            g = g.swapaxes(-1, -2) if d == 0 else g  # domain a's map grad is dX^T
            grad_x = g if grad_x is None else grad_x + g
    if grad_x is not None:
        # each scorer's gradient: its within term plus the cross term of its partner's batch
        np.add(stack.grads, stack.channel_grads[1, ::-1], out=stack.grads)
    pen_loss, pen_grad = ortho_penalty(stack.x)
    total = total + penalty_weight * pen_loss
    grad_x = penalty_weight * pen_grad if grad_x is None else grad_x + penalty_weight * pen_grad
    check_finite_step(total, [grad_x, stack.grads[..., None, :]], "lower lr_a, lr_b, lr_map or penalty_weight",
                      stack.names)
    return total, stack.grads, grad_x


def evaluate_loss(dm: DualModel, rows, domain) -> float:
    """Full-pass hybrid MSE of one domain's rows (no penalty term): a `Rows`
    table of that domain or a `Batch` taken from one."""
    if rows.ratings.shape[0] == 0:
        return 0.0
    preds = predict_batch(dm, domain, rows)
    return float(np.mean((preds - rows.ratings) ** 2))


def predict_batch(dm: DualModel, domain, rows) -> np.ndarray:
    """Hybrid ratings of one domain's rows, read from their ui and overlap: each
    channel one forward over its scorer's slice of `DualModel.scorer_layers`."""
    k, d = dm.index(domain), dm.embed_dim

    def channel(j, x):  # scorer j on rows x (N, 2d)
        return stack_forward([(w[j : j + 1], b[j : j + 1], act) for w, b, act in dm.scorer_layers], x[None])[0][0, :, 0]

    within = channel(k, rows.ui)
    if dm.alpha == 0.0:
        return within
    user, item = rows.ui[:, :d], rows.ui[:, d:]
    cross = sum(channel(j, np.concatenate([user @ dm.cross_matrix(j, k).T, item], axis=1))
                for j in range(len(dm.domains)) if j != k)
    alpha_vec = np.where(rows.overlap, dm.alpha, 0.0)
    return (1.0 - alpha_vec) * within + alpha_vec / (len(dm.domains) - 1) * cross


# ---------------------------------------------------------------------------
# training loop


def apply_grads(params: np.ndarray, grads: np.ndarray, lr) -> None:
    """In-place SGD step on a stack's flat parameter buffer: params -= lr * grads.

    lr is a number, or per-domain rates shaped to broadcast on the domain axis.
    """
    params -= lr * grads


def fit_models(
    models: list[DualModel],
    table: Rows,
    cfg: TrainConfig,
    seeds: list[int],
    rows: tuple[list, list] | None = None,
) -> list[tuple[list[float], list[float]]]:
    """Train K models of one shape and alpha in lockstep, each bit for bit as alone.

    table holds both domains' rows (`prepare_rows`), and fit_models reads it
    without copying it. Model m trains on rows[0][m] of domain a and
    rows[1][m] of domain b (all rows when rows is None), shuffled by
    seeds[m]; each epoch indexes the table with one (2, K, n_max) row array.
    Each step pairs the next mini-batch of each domain (the shorter domain
    runs out first) and updates both scorers and the map of every live
    model, both domains in one stacked pass (`dual_loss_and_grads`); a step
    whose batch sizes differ between models runs one part of the stack
    (`ModelStack.part`) per run of models with equal sizes. A row
    index outside its domain raises ValueError naming the model and the
    domain. Each epoch ends by projecting every map onto the orthogonal
    manifold and by a full pass over each model's rows of each domain: a
    slice of the table, or one take for a subset. A model leaves the stack
    after cfg.epochs, or after the first epoch whose combined full-pass loss
    moves less than cfg.tol. Returns each model's (trace_a, trace_b) of
    full-pass losses, index 0 before training and index e after epoch e;
    each model ends up owning its arrays. Raises FloatingPointError naming
    the model when a step is not finite, or when a domain's full-pass loss
    ends an epoch above twice its pre-training value (its lr_a or lr_b is
    too high).
    """
    n_models = len(models)
    if len(seeds) != n_models or (rows is not None and not len(rows[0]) == len(rows[1]) == n_models):
        raise ValueError(f"{n_models} models need as many seeds and row sets")
    if len(table.bounds) != 3:
        raise ValueError(f"the table holds {len(table.bounds) - 1} domains; the training kernel runs two")
    # rows[k][m]: model m's row indices into domain k, or None for every row
    rows = [[None] * n_models] * 2 if rows is None else [[np.asarray(r, dtype=np.intp) for r in rs] for rs in rows]
    lengths = np.diff(table.bounds).tolist()
    for k, domain_rows in enumerate(rows):
        for m, r in enumerate(domain_rows):
            outside = () if r is None else r[(r < 0) | (r >= lengths[k])]
            if len(outside):
                raise ValueError(f"model {m} has row index {outside[0]} "
                                 f"outside domain {_letter(k)}'s [0, {lengths[k]})")
    # at[k][m]: the same rows as rows of the table
    at = [[None if r is None else r + table.bounds[k] for r in domain_rows] for k, domain_rows in enumerate(rows)]
    counts = np.array([[n if r is None else len(r) for n, r in zip(lengths, model_rows)] for model_rows in zip(*rows)])
    in_model = (lambda m: f" in model {m}") if n_models > 1 else (lambda m: "")
    empty = np.flatnonzero((counts == 0).any(axis=1))
    if empty.size:
        raise ValueError(f"both domains need at least one training record{in_model(empty[0])}")

    def full_pass(m, k):
        return evaluate_loss(models[m], table.domain(k) if at[k][m] is None else table.take(at[k][m]), k)

    traces = [([full_pass(m, 0)], [full_pass(m, 1)]) for m in range(n_models)]
    live = list(range(n_models))
    stack = ModelStack.of(models)
    schedule = lockstep_steps(counts, cfg.batch_size)
    lrs = np.array([cfg.lr_a, cfg.lr_b]).reshape(2, 1, 1)  # broadcast on the scorers' domain axis
    weighted = table.weighted(stack.alpha)
    for epoch in range(cfg.epochs):
        # order[k, j]: live model j's shuffled rows of domain k, as rows of the table
        order = np.zeros((2, len(live), counts[live].max()), dtype=np.intp)
        for k in (0, 1):
            for j, m in enumerate(live):
                perm = make_rng(seeds[m], _L_SHUFFLE, k, epoch).permutation(counts[m, k])
                order[k, j, : counts[m, k]] = table.bounds[k] + perm if at[k][m] is None else at[k][m][perm]
        for start, runs in schedule:
            for s, sizes in runs:
                part, batches = stack.part(s), weighted.step(order[:, s], start, sizes)
                _, grads, grad_x = dual_loss_and_grads(part, *batches, cfg.penalty_weight)
                apply_grads(part.params, grads, lrs)
                part.x -= cfg.lr_map * grad_x
        stopped = []
        for j, m in enumerate(live):
            stack.x[j] = project_orthogonal(models[m].maps[(0, 1)]).x
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
            schedule = lockstep_steps(counts[live], cfg.batch_size)
    for m in live:
        _release(models[m])
    return traces


def fit(dm: DualModel, table: Rows, cfg: TrainConfig, seed: int = 0) -> tuple[list[float], list[float]]:
    """Train one model (`fit_models` at K = 1) until the epoch budget or until
    the combined full-pass loss moves less than cfg.tol between epochs.

    Returns per-domain traces of the full-pass loss; index 0 is the
    pre-training loss, index e the loss after epoch e.
    """
    return fit_models([dm], table, cfg, [seed])[0]


# ---------------------------------------------------------------------------
# pipeline helpers


def train_pair_autoencoders(
    ds_a: DomainDataset, ds_b: DomainDataset, cfg: TrainConfig, seed: int, vectors
) -> tuple[tuple[Autoencoder, Autoencoder], tuple[Autoencoder, Autoencoder]]:
    """Train the (user, item) autoencoders of both domains; returns them per domain.

    Corpora are the encoded feature vectors of every entity in the domain
    (vectors, each domain's `entity_vectors`), in sorted-id order for
    determinism. All four corpora share one column count
    and train in lockstep as one stack (`train_autoencoders`), whatever their
    row counts; no trace is computed, since nothing here reads one.
    """
    corpora = [matrix for by_entity in vectors for matrix in by_entity]
    tags = [(ds.domain_name, entity) for ds in (ds_a, ds_b) for entity in ("user", "item")]
    (ua, _), (ia, _), (ub, _), (ib, _) = train_autoencoders(
        corpora, tags, embed_dim=cfg.embed_dim, lr=cfg.ae_lr, epochs=cfg.ae_epochs, batch_size=cfg.ae_batch_size,
        seed=seed, trace=False,
    )
    return (ua, ia), (ub, ib)


def shared_user_alignment(ds_a: DomainDataset, ds_b: DomainDataset, embeddings) -> OrthogonalMap | None:
    """Procrustes-align the two user-embedding spaces on the shared users.

    Each user present in both domains gives one paired row, their row of
    each domain's user embeddings (embeddings, as `prepare_domain` reads
    them); the best-fit rotation between the paired clouds seeds the
    model's mapping.  When the domains' user bases are unrelated the fit is
    meaningless but harmless: the rotation it returns is noise either way.
    Returns None when the overlap is below the embedding dimension, where
    the fit would be underdetermined.
    """
    _, *rows = np.intersect1d(ds_a.user_ids, ds_b.user_ids, assume_unique=True, return_indices=True)
    paired = [users[at] for (users, _), at in zip(embeddings, rows)]
    return None if len(rows[0]) < paired[0].shape[1] else align_map(*paired)


def encode_pair(ds_a: DomainDataset, ds_b: DomainDataset, cfg: TrainConfig, seed: int):
    """What training a pair builds before the dual model, none of which depends
    on alpha: the (user, item) autoencoders of each domain, the shared-user warm
    map (None when too few users are shared) and the table of both domains'
    rows. Each entity's features are encoded once (`entity_vectors`), and each
    of the four matrices is embedded once by its encoder, right after the
    autoencoders train: the warm map and the rows read those embeddings.
    """
    vectors = [entity_vectors(ds) for ds in (ds_a, ds_b)]
    encoders = train_pair_autoencoders(ds_a, ds_b, cfg, seed, vectors)
    embeddings = [tuple(ae_encode(ae, matrix) for ae, matrix in zip(aes, vecs))
                  for aes, vecs in zip(encoders, vectors)]
    # the alignment sees entity features only, never ratings
    return encoders, shared_user_alignment(ds_a, ds_b, embeddings), prepare_rows((ds_a, ds_b), embeddings)


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
    require_disjoint_items(ds_a, ds_b)
    encoders, warm, table = encode_pair(ds_a, ds_b, cfg, seed)
    dm = new_dual_model(encoders, alpha=cfg.alpha, seed=seed, hidden=cfg.hidden,
                        schemas=[(ds.user_schema, ds.item_schema) for ds in (ds_a, ds_b)])
    if warm is not None:
        dm.maps[(0, 1)] = warm
    return dm, fit(dm, table, cfg, seed)


# ---------------------------------------------------------------------------
# persistence


def _model_arrays(model: RatingModel, prefix: str) -> dict:
    out = {f"{prefix}n": np.array(len(model.layers))}
    for i, layer in enumerate(model.layers):
        out[f"{prefix}l{i}_w"] = layer.weights
        out[f"{prefix}l{i}_b"] = layer.bias
        out[f"{prefix}l{i}_act"] = np.array(layer.activation)
    return out


def _model_from_arrays(data: _Bundle, prefix: str) -> RatingModel:
    n = data.shaped(f"{prefix}n", ())[()]  # the layer count
    check_bound(f"{prefix}n", n, "[1, inf)", integer=True)
    layers = [
        DenseLayer(
            np.array(data[f"{prefix}l{i}_w"]),
            np.array(data[f"{prefix}l{i}_b"]),
            str(data[f"{prefix}l{i}_act"]),
        )
        for i in range(n)
    ]
    return RatingModel(layers)


def save_dual_model(dm: DualModel, path) -> None:
    """Persist every weight plus alpha and any attached schemas to one npz, in
    the dualrec-dual-1 format, which holds two domains."""
    if len(dm.domains) != 2:
        raise ValueError(f"a {_DUMP_VERSION} bundle holds two domains, this model has {len(dm.domains)}")
    link = dm.maps[(0, 1)]
    payload = {
        "version": np.array(_DUMP_VERSION),
        "alpha": np.array(dm.alpha),
        "map_x": link.x,
        "map_pair": np.array(list(link.domain_pair), dtype=np.str_),
    }
    # the format's key order: every scorer, then every autoencoder, then every schema
    for k, dom in enumerate(dm.domains):
        payload.update(_model_arrays(dom.scorer, f"rs{k}_"))
    for k, dom in enumerate(dm.domains):
        payload.update(autoencoder_arrays(dom.ae_user, f"ae_u{k}_"))
        payload.update(autoencoder_arrays(dom.ae_item, f"ae_i{k}_"))
    for k, dom in enumerate(dm.domains):
        for key, schema in ((f"schema_u{k}", dom.user_schema), (f"schema_i{k}", dom.item_schema)):
            if schema is not None:
                payload[key] = np.array(schema_to_text(schema))
    np.savez(path, **payload)


class _Bundle(dict):
    """The arrays of a saved model by key; a missing key is a ValueError naming it."""

    def __missing__(self, key):
        raise ValueError(f"model bundle has no key {key!r}")

    def shaped(self, key: str, shape: tuple) -> np.ndarray:
        """The array at key; one of another shape is a ValueError naming the key."""
        if self[key].shape != shape:
            raise ValueError(f"model bundle key {key!r} holds shape {self[key].shape}, expected {shape}")
        return self[key]


def _named(part: str, keys: str, build):
    """build(), with an error that names the model part and its bundle keys."""
    try:
        return build()
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{part} ({keys}): {exc}") from None


def load_dual_model(path) -> DualModel:
    """Rebuild a saved model; a missing key, a numeric key that holds no
    numbers (text, say) or a non-finite one, or an array that breaks the
    DualModel contract raises ValueError naming the key or the part."""
    with np.load(path, allow_pickle=False) as npz:
        data = _Bundle((key, npz[key]) for key in npz.files)
    if str(data["version"]) != _DUMP_VERSION:
        raise ValueError(f"unsupported dump version {data['version']!r}")
    for key, array in data.items():  # every key but the text ones holds numbers, checked before any conversion
        if key in ("version", "map_pair") or key.startswith("schema_") or key.endswith(("_act", "meta")):
            continue
        if array.dtype.kind not in "iuf":
            raise ValueError(f"model bundle key {key!r} holds {array.dtype} values, expected numbers")
        if not np.isfinite(array).all():
            raise ValueError(f"model bundle key {key!r} holds a non-finite value")
    domains = []
    for k in range(2):
        tag = _letter(k)
        scorer = _named(f"rs_{tag}", f"bundle keys rs{k}_*", lambda: _model_from_arrays(data, f"rs{k}_"))
        aes = [_named(f"ae_{entity}_{tag}", f"bundle keys ae_{entity[0]}{k}_*",
                      lambda: autoencoder_from_arrays(data, f"ae_{entity[0]}{k}_")) for entity in ("user", "item")]
        schemas = [_named(f"{entity}_schema_{tag}", f"bundle key {key}", lambda: parse_schema(str(data[key])))
                   if key in data else None
                   for entity, key in (("user", f"schema_u{k}"), ("item", f"schema_i{k}"))]
        domains.append(Domain(scorer, *aes, *schemas))
    x, pair = data["map_x"], tuple(str(s) for s in data.shaped("map_pair", (2,)))
    link = _named("map", "bundle key map_x", lambda: OrthogonalMap(np.array(x), pair))
    try:
        return DualModel(domains, {(0, 1): link}, float(data.shaped("alpha", ())))
    except _SchemaWidthError as exc:
        raise ValueError(f"{exc} (bundle key schema_{exc.entity[0]}{exc.domain})") from None
