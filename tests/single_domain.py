"""Single-domain training oracle: one domain's autoencoders and scorer trained alone.

With alpha = 0 the dual loop must follow this trajectory bit for bit, since
both draw the scorer init and the batch shuffles from the same streams; and
each autoencoder trained alone must equal its slice of the lockstep stack.
"""

import numpy as np

from dualrec.autoencoder import train_autoencoder
from dualrec.dualmodel import _L_SHUFFLE, RatingModel, Rows, make_rating_model
from dualrec.features import DomainDataset, encode
from dualrec.numeric import check_finite_step, layer_backward, layer_forward, make_rng


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
