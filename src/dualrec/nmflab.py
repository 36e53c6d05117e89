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
(see :func:`perturb` and :func:`check_conditions`).  The a and b
factorizations of a problem, and the problems of one :func:`run_nmf_many`
call, step as one stack of 2-D products, written into buffers allocated once
per call (see :func:`_lockstep`).

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

from dualrec.numeric import as_matrix, check_bound, make_rng

MU_EPS = 1e-12


@dataclass
class DualNmfProblem:
    """Fixed inputs of the dual factorization: ratings, mixing matrix, rate.
    Refuses a NaN, infinite or negative entry of v_a, v_b or x, naming the matrix."""

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
        for name, a in (("v_a", self.v_a), ("v_b", self.v_b), ("mixing matrix", self.x)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} has a non-finite entry (NaN or inf)")
            if np.minimum.reduce(a, None, initial=0.0) < 0.0:
                raise ValueError(f"{name} must be entrywise nonnegative")
        check_bound("alpha", self.alpha, "[0, 0.5)")
        check_bound("rank", self.rank, f"[1, {min(self.v_a.shape)}]", integer=True)


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
    """Coupled objective evaluated directly: both squared Frobenius residuals.
    Refuses factors of the wrong shape or with a negative or non-finite entry."""
    _check_state(p, s)
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


def loss_decomposition(p: DualNmfProblem, s: DualNmfState):
    """Split dual_loss into its monotone reduced part and the cross term.

    Returns (reduced_part, cross_part) with
    reduced_part = (1-2a)^2 (|R_A|^2 + |R_B|^2) and
    cross_part = 2a(1-a) |R_A + X R_B|^2; their sum equals dual_loss exactly
    when X is orthogonal. Refuses factors as `dual_loss` does.
    """
    _check_state(p, s)
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
    check_bound("m", m, "[0, inf)", integer=True)
    check_bound("k", k, "(0, inf)")
    return as_matrix(v, "matrix") + float(m) * float(k)


def perturb_problem(p: DualNmfProblem, k: float) -> DualNmfProblem:
    """Apply :func:`perturb` to both rating matrices, m = rank of the mixing matrix."""
    m = int(np.linalg.matrix_rank(p.x))
    return DualNmfProblem(perturb(p.v_a, m, k), perturb(p.v_b, m, k), p.x, p.alpha, p.rank)


def run_nmf(p: DualNmfProblem, max_iters: int = 200_000, tol: float = 1e-8,
            seed: int = 0, state: DualNmfState | None = None) -> DualNmfState:
    """Iterate multiplicative updates until |delta loss| < tol or the budget ends.

    The K = 1 case of :func:`run_nmf_many`, started from ``state`` (which is
    not mutated) when one is given and from ``init_state(p, seed)`` otherwise.
    Refuses, before any step, a ``max_iters`` that is no integer >= 0, a ``tol``
    that is NaN or negative, and a state whose factors are not finite and
    nonnegative; and refuses to run unless conditions (a), (b), (c) all hold
    (apply :func:`perturb_problem` first when they do not).  The returned state
    carries the full loss trace: entry 0 is the initial loss, one entry per
    step after that, each the coupled objective through the reduction,
    (1-2a)^2 (|M_A - W_A H_A|^2 + |M_B - W_B H_B|^2).  The default budget
    covers the slowest measured settle of a perturbed random problem
    (167,861 iterations).
    """
    return _lockstep([p], [state if state is not None else init_state(p, seed)], max_iters, tol)[0]


def run_nmf_many(problems, seeds, max_iters: int = 200_000, tol: float = 1e-8) -> list[DualNmfState]:
    """:func:`run_nmf` on K problems of one shape and rank, stepped as one stack.

    Problem i starts from ``init_state(problems[i], seeds[i])`` and stops by
    its own |delta loss| < tol rule, leaving the stack when it settles.  Each
    returned state has the trace and factor bytes that ``run_nmf`` gives the
    problem alone, since every stacked product runs one 2-D product per slice.
    Refuses, naming the problem's index, a problem whose shape or rank differs
    from problem 0's or whose conditions (a), (b), (c) fail; ``max_iters`` and
    ``tol`` are bounded as in ``run_nmf``.
    """
    problems, seeds = list(problems), list(seeds)
    if len(seeds) != len(problems):
        raise ValueError(f"{len(problems)} problems but {len(seeds)} seeds")
    return _lockstep(problems, [init_state(p, seed) for p, seed in zip(problems, seeds)], max_iters, tol)


def _lockstep(problems, states, max_iters, tol) -> list[DualNmfState]:
    """Lee-Seung updates of every problem's a and b factorizations as one stack:
    targets m (K, 2, rows, cols), factors w (K, 2, rows, r) and h (K, 2, r, cols).
    Denominators are floored at MU_EPS, which leaves the exact multiplicative
    update (and its monotonicity guarantee) untouched wherever they exceed
    the floor.

    Workspace: seven (K, 2, ...) buffers allocated once take every product (prefix
    slices of them once problems settle), and w and h take the updates.  The bits
    are the plain expressions': the same 2-D products in the order (wt @ w) @ h,
    (w @ h) @ ht and h * num / den, and the loss summed in IEEE-double Python floats."""
    check_bound("max_iters", max_iters, "[0, inf)", integer=True)
    check_bound("tol", tol, "[0, inf)")
    for i, (p, s) in enumerate(zip(problems, states)):
        if (p.v_a.shape, p.rank) != (problems[0].v_a.shape, problems[0].rank):
            raise ValueError(f"problem {i}: shape {p.v_a.shape} and rank {p.rank} differ from problem 0's "
                             f"{problems[0].v_a.shape} and {problems[0].rank}")
        failing = [name for name, ok in check_conditions(p).items() if not ok]
        if failing:
            raise ValueError(f"problem {i}: convergence condition(s) {', '.join(failing)} not satisfied; "
                             "perturb the rating matrices or lower alpha")
        _check_state(p, s)
    if not problems:
        return []
    m = np.array([reduce(p) for p in problems])
    # float64 whatever a warm start's dtype: the workspace is shaped and typed like w and h
    w = np.array([(s.w_a, s.w_b) for s in states], dtype=float)
    h = np.array([(s.h_a, s.h_b) for s in states], dtype=float)
    # w and h are written in place, so their transposed views hold until the stack is compacted
    wt, ht = w.swapaxes(-1, -2), h.swapaxes(-1, -2)
    hnum, gram, hden, wnum, wh, wden, res = full = [np.empty_like(a) for a in (h, wt @ w, h, w, m, w, m)]
    factor = [scale * scale for scale in (1.0 - 2.0 * p.alpha for p in problems)]
    # call overhead is most of a step here: local names, a 0-d eps and out= by position (not to np.maximum)
    matmul, multiply, divide, maximum, eps = np.matmul, np.multiply, np.divide, np.maximum, np.array(MU_EPS)

    def losses() -> list[float]:
        # each live problem's (1-2a)^2 (|R_A|^2 + |R_B|^2), summed as Python floats
        np.subtract(m, matmul(w, h, wh), res)
        e = np.add.reduce(multiply(res, res, res), axis=(-2, -1)).tolist()
        return [f * (ea + eb) for f, (ea, eb) in zip(factor, e)]
    traces = [[loss] for loss in losses()]
    live = list(range(len(problems)))
    out = [None] * len(problems)
    for _ in range(max_iters):
        matmul(wt, m, hnum)
        matmul(matmul(wt, w, gram), h, hden)
        divide(multiply(h, hnum, hnum), maximum(hden, eps, out=hden), h)
        matmul(m, ht, wnum)
        matmul(matmul(w, h, wh), ht, wden)
        divide(multiply(w, wnum, wnum), maximum(wden, eps, out=wden), w)
        settled = []
        for j, loss in enumerate(losses()):
            trace = traces[live[j]]
            trace.append(loss)
            if abs(trace[-2] - loss) < tol:
                settled.append(j)
        if settled:
            for j in settled:
                out[live[j]] = _state(w[j], h[j], traces[live[j]])
            keep = [j for j in range(len(live)) if j not in settled]
            m, w, h, factor = m[keep], w[keep], h[keep], [factor[j] for j in keep]
            live = [live[j] for j in keep]
            if not live:
                break
            hnum, gram, hden, wnum, wh, wden, res = (buf[:len(live)] for buf in full)
            wt, ht = w.swapaxes(-1, -2), h.swapaxes(-1, -2)
    for j, i in enumerate(live):
        out[i] = _state(w[j], h[j], traces[i])
    return out


def _state(w, h, trace) -> DualNmfState:
    """One problem's factors, copied out of the stack, with its trace."""
    return DualNmfState(w[0].copy(), h[0].copy(), w[1].copy(), h[1].copy(), trace)


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
    check_bound("rows", rows, "[1, inf)", integer=True)
    check_bound("cols", cols, "[1, inf)", integer=True)
    check_bound("scale", scale, "(0, inf)")
    rng = make_rng(seed, 0xD0A1)
    v_a = rng.uniform(0.0, scale, size=(rows, cols))
    v_b = rng.uniform(0.0, scale, size=(rows, cols))
    x = random_permutation_matrix(rows, seed)
    return DualNmfProblem(v_a, v_b, x, alpha, rank)


def _check_state(p: DualNmfProblem, s: DualNmfState):
    """Refuse, naming the factor, one of the wrong shape or with a negative or
    non-finite entry: the multiplicative updates keep their monotone guarantee
    only on finite nonnegative factors."""
    m, n = p.v_a.shape
    r = p.rank
    expected = {"w_a": (m, r), "h_a": (r, n), "w_b": (m, r), "h_b": (r, n)}
    for name, shape in expected.items():
        f = getattr(s, name)
        if f.shape != shape:
            raise ValueError(f"factor {name} has shape {f.shape}, expected {shape}")
        if not ((f >= 0.0) & (f < np.inf)).all():
            raise ValueError(f"factor {name} has a negative or non-finite entry; factors must be finite and nonnegative")
