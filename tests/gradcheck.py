"""Central-difference gradient checker that the gradient tests share."""

import numpy as np


def grad_check(loss_and_grad, params, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_and_grad(params) -> (loss, grads)`` must be deterministic; params
    and grads are parallel lists of arrays.  Error is normalized against
    max(1, |analytic|, |numeric|) per component so near-zero gradients are
    compared absolutely.
    """
    params = [np.asarray(p, dtype=np.float64) for p in params]
    _, grads = loss_and_grad(params)
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    worst = 0.0
    for k, p in enumerate(params):
        flat = p.ravel()
        for i in range(flat.size):
            bumped = [q.copy() for q in params]
            bumped[k].ravel()[i] = flat[i] + h
            lp, _ = loss_and_grad(bumped)
            bumped[k].ravel()[i] = flat[i] - h
            lm, _ = loss_and_grad(bumped)
            num = (lp - lm) / (2.0 * h)
            ana = grads[k].ravel()[i]
            err = abs(ana - num) / max(1.0, abs(ana), abs(num))
            worst = max(worst, err)
    return worst
