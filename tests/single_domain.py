"""Single-domain training oracle: one domain's autoencoders and scorer trained alone.

With alpha = 0 the dual loop must follow this trajectory bit for bit, since
both draw the scorer init and the batch shuffles from the same streams; and
each autoencoder trained alone must equal its slice of the lockstep stack.

The scorer runs on the per-layer oracle below, the tests' one reference for
the layer math: one dense layer at a time, with shape checks, fresh arrays,
a sign-masked sigmoid and relu's mask taken from the pre-activation. The
package's stacked kernel must give its bits.
"""

import dataclasses

import numpy as np

from dualrec.autoencoder import ae_encode, train_autoencoder
from dualrec.dualmodel import _L_SHUFFLE, RatingModel, Rows, entity_vectors, make_rating_model, prepare_domain
from dualrec.features import DomainDataset, encode
from dualrec.numeric import DenseLayer, check_finite_step, make_rng


def oracle_sigmoid(z):
    """The sign-masked sigmoid: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z)) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def layer_forward(layer: DenseLayer, x: np.ndarray):
    """One dense layer on rows x (n, n_in), or on one row (n_in,) run as a
    (1, n_in) batch and returned 1-D, with fresh arrays throughout: (y, cache
    for `layer_backward`). A width the layer does not take raises ValueError."""
    x = np.asarray(x, dtype=np.float64)
    xb = np.atleast_2d(x)
    if x.ndim not in (1, 2) or xb.shape[1] != layer.n_in:
        raise ValueError("layer input shape incompatible with weights")
    z = xb @ layer.weights.T + layer.bias
    if layer.activation == "sigmoid":
        y = oracle_sigmoid(z)
    elif layer.activation == "relu":
        y = np.maximum(z, 0.0)
    else:
        y = z
    return (y[0] if x.ndim == 1 else y), (xb, z, y, x.ndim == 1)


def layer_backward(layer: DenseLayer, cache, dy: np.ndarray, need_dx: bool = True):
    """The layer's gradients chained with dy, shaped like the forward's output:
    (dx shaped like its input, dW, db), relu's mask from the pre-activation.
    need_dx=False returns None for dx."""
    xb, z, y, single = cache
    dz = np.atleast_2d(dy)
    if dz.shape != z.shape or single != (dy.ndim == 1):
        raise ValueError("dy shape does not match forward output")
    if layer.activation == "sigmoid":
        dz = dz * (y * (1.0 - y))
    elif layer.activation == "relu":
        dz = dz * (z > 0).astype(np.float64)
    dx = None
    if need_dx:
        dx = dz @ layer.weights
        if single:
            dx = dx[0]
    return dx, dz.T @ xb, dz.sum(axis=0)


def model_forward(model: RatingModel, x: np.ndarray):
    """One scorer's forward pass, layer by layer, on rows x (n, 2d) or one row
    (2d,): (y, per-layer caches for `model_backward`)."""
    caches = []
    h = x
    for layer in model.layers:
        h, cache = layer_forward(layer, h)
        caches.append(cache)
    return h, caches


def model_backward(model: RatingModel, caches, dy: np.ndarray, need_dx: bool = True):
    """One scorer's backward pass, layer by layer: (dx, per-layer [(dW, db), ...]).

    need_dx=False skips the first layer's input gradient and returns None for dx.
    """
    grads = []
    d = dy
    for k in range(len(model.layers) - 1, -1, -1):
        d, dw, db = layer_backward(model.layers[k], caches[k], d, need_dx or k > 0)
        grads.append((dw, db))
    grads.reverse()
    return d, grads


def domain_autoencoders(dataset: DomainDataset, cfg, seed: int):
    """One domain's (user, item) autoencoders, each trained alone on its corpus
    of encoded entities in sorted-id order."""
    return tuple(
        train_autoencoder(
            np.stack([encode(schema, table[eid]) for eid in sorted(table)]),
            embed_dim=cfg.embed_dim, lr=cfg.ae_lr, epochs=cfg.ae_epochs, batch_size=cfg.ae_batch_size,
            seed=seed, domain=dataset.domain_name, entity=entity,
        )[0]
        for entity, table, schema in (("user", dataset.user_features, dataset.user_schema),
                                      ("item", dataset.item_features, dataset.item_schema))
    )


def domain_embeddings(dataset: DomainDataset, aes):
    """One domain's (user, item) embeddings as `prepare_domain` reads them:
    its `entity_vectors`, each matrix embedded whole by its autoencoder."""
    return tuple((rows, ae_encode(ae, matrix)) for ae, (rows, matrix) in zip(aes, entity_vectors(dataset)))


def fold_rows(dataset: DomainDataset, embeddings, indices, partner_users=None) -> Rows:
    """The rows of the dataset's records at indices (a fold's training or test
    split): `prepare_domain` of the dataset that holds only those records."""
    fold = dataclasses.replace(dataset, interactions=tuple(dataset.interactions[i] for i in indices))
    return prepare_domain(fold, embeddings, partner_users)


def train_single(
    rows: Rows,
    domain_index: int,
    embed_dim: int,
    seed: int,
    epochs: int = 100,
    tol: float = 1e-5,
    lr: float = 0.01,
    batch_size: int = 32,
    hidden: tuple[int, ...] = (16, 8),
) -> tuple[RatingModel, list[float]]:
    """Train one domain's scorer alone.

    Uses the same init and shuffle streams as the dual loop, so with
    alpha = 0 and tol = 0 the dual model's scorer follows the exact same
    trajectory (the independence degeneration, testable bitwise).
    """
    model = make_rating_model(embed_dim, seed, domain_index, hidden)

    def full_loss() -> float:
        preds = model_forward(model, rows.ui)[0][:, 0]
        return float(np.mean((preds - rows.ratings) ** 2))

    trace = [full_loss()]
    for epoch in range(epochs):
        order = make_rng(seed, _L_SHUFFLE, domain_index, epoch).permutation(len(rows))
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            y_hat, caches = model_forward(model, rows.ui[idx])
            resid = y_hat - rows.ratings[idx, None]
            _, grads = model_backward(model, caches, 2.0 * resid / len(idx), need_dx=False)
            check_finite_step(resid.sum(), [g for pair in grads for g in pair], "lower lr")
            for layer, (dw, db) in zip(model.layers, grads):
                layer.weights -= lr * dw
                layer.bias -= lr * db
        trace.append(full_loss())
        if abs(trace[-1] - trace[-2]) < tol:
            break
    return model, trace
