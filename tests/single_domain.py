"""Single-domain training oracle: one domain's scorer trained alone.

With alpha = 0 the dual loop must follow this trajectory bit for bit, since
both draw the scorer init and the batch shuffles from the same streams.
"""

import numpy as np

from dualrec.dualmodel import (
    _L_SHUFFLE,
    RatingModel,
    TrainingArrays,
    _epoch_batches,
    apply_grads,
    make_rating_model,
    model_backward,
    model_forward,
    score_batch,
)
from dualrec.numeric import check_finite_step, make_rng


def train_single(
    arrays: TrainingArrays,
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
        preds = score_batch(model, arrays.user_emb, arrays.item_emb)
        return float(np.mean((preds - arrays.ratings) ** 2))

    trace = [full_loss()]
    for epoch in range(epochs):
        for u, i, y, _ in _epoch_batches(arrays, batch_size, make_rng(seed, _L_SHUFFLE, domain_index, epoch)):
            y_hat, caches = model_forward(model, np.concatenate([u, i], axis=1))
            resid = y_hat - y[:, None]
            _, grads = model_backward(model, caches, 2.0 * resid / u.shape[0], need_dx=False)
            check_finite_step(resid.sum(), [g for pair in grads for g in pair])
            apply_grads(model, grads, lr)
        trace.append(full_loss())
        if abs(trace[-1] - trace[-2]) < tol:
            break
    return model, trace
