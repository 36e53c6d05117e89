"""Dual nonnegative factorization lab tests.

The alpha=0 path is checked against an independent classical multiplicative-
update implementation written here; coupled losses are checked against naive
elementwise recomputation. The stepped oracle below (`mu_step` and the traced
loss `coupled_loss_via_reduction`, one problem and one factorization at a time)
pins `run_nmf`'s stacked loop bit for bit, and `run_nmf_many` is pinned to
`run_nmf` problem by problem.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualrec.nmflab import (
    MU_EPS,
    DualNmfProblem,
    DualNmfState,
    check_conditions,
    dual_loss,
    init_state,
    loss_decomposition,
    make_random_problem,
    perturb,
    perturb_problem,
    random_permutation_matrix,
    reduce,
    run_nmf,
    run_nmf_many,
)
from dualrec.numeric import make_rng


def classical_mu_step(v, w, h):
    # independent Lee-Seung least-squares updates, same epsilon guard
    h = h * (w.T @ v) / np.maximum(w.T @ w @ h, MU_EPS)
    w = w * (v @ h.T) / np.maximum(w @ h @ h.T, MU_EPS)
    return w, h


def mu_step(p, s):
    """One multiplicative-update round on both reduced problems, one at a time."""
    m_a, m_b = reduce(p)
    w_a, h_a = classical_mu_step(m_a, s.w_a, s.h_a)
    w_b, h_b = classical_mu_step(m_b, s.w_b, s.h_b)
    return DualNmfState(w_a, h_a, w_b, h_b)


def reduced_loss(p, s):
    """Sum of squared residuals of the two reduced single-matrix problems."""
    m_a, m_b = reduce(p)
    ra = m_a - s.w_a @ s.h_a
    rb = m_b - s.w_b @ s.h_b
    return float(np.sum(ra * ra) + np.sum(rb * rb))


def coupled_loss_via_reduction(p, s):
    """(1-2a)^2 * reduced_loss: the quantity the updates decrease monotonically,
    and what run_nmf traces."""
    scale = 1.0 - 2.0 * p.alpha
    return scale * scale * reduced_loss(p, s)


def ones_problem(alpha, scale_b=1.0, n=3):
    j = np.ones((n, n))
    return DualNmfProblem(j, scale_b * j, np.eye(n), alpha, rank=2)


class TestDualLoss:
    def test_perfect_factors_give_zero_loss(self):
        rng = make_rng(1)
        w_a, h_a = rng.random((6, 2)), rng.random((2, 5))
        w_b, h_b = rng.random((6, 2)), rng.random((2, 5))
        p = DualNmfProblem(w_a @ h_a, w_b @ h_b, np.eye(6), 0.0, rank=2)
        s = DualNmfState(w_a, h_a, w_b, h_b)
        assert dual_loss(p, s) <= 1e-20

    def test_zero_factors_leave_full_energy(self):
        p = make_random_problem(5, 4, 2, 0.1, seed=3)
        s = DualNmfState(np.zeros((5, 2)), np.zeros((2, 4)), np.zeros((5, 2)), np.zeros((2, 4)))
        want = np.sum(p.v_a**2) + np.sum(p.v_b**2)
        assert dual_loss(p, s) == pytest.approx(want, rel=1e-12)

    def test_matches_naive_elementwise_oracle(self):
        p = make_random_problem(5, 4, 2, 0.2, seed=7)
        s = init_state(p, seed=11)
        pa = s.w_a @ s.h_a
        pb = s.w_b @ s.h_b
        total = 0.0
        for i in range(5):
            for j in range(4):
                ra = p.v_a[i, j] - (1 - p.alpha) * pa[i, j] - p.alpha * (p.x @ pb)[i, j]
                rb = p.v_b[i, j] - (1 - p.alpha) * pb[i, j] - p.alpha * (p.x.T @ pa)[i, j]
                total += ra * ra + rb * rb
        assert dual_loss(p, s) == pytest.approx(total, rel=1e-12)

    def test_problem_validates_alpha_below_half(self):
        j = np.ones((3, 3))
        with pytest.raises(ValueError, match=r"^alpha=0.6 outside \[0, 0.5\)$"):
            DualNmfProblem(j, j, np.eye(3), 0.6, rank=2)
        with pytest.raises(ValueError, match=r"^alpha=0.5 outside \[0, 0.5\)$"):
            DualNmfProblem(j, j, np.eye(3), 0.5, rank=2)

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_a_problem_scale_that_is_not_positive_is_refused(self, scale):
        # 0 once built all-zero ratings and -1 failed with numpy's "high - low < 0"
        with pytest.raises(ValueError) as exc:
            make_random_problem(4, 3, 2, 0.1, seed=0, scale=scale)
        assert str(exc.value) == f"scale={scale} outside (0, inf)"

    @pytest.mark.parametrize("rank", [0, 4])
    def test_problem_refuses_a_rank_outside_one_to_the_smaller_side(self, rank):
        j = np.ones((3, 5))
        with pytest.raises(ValueError, match=rf"^rank={rank} outside \[1, 3\]$"):
            DualNmfProblem(j, j, np.eye(3), 0.1, rank=rank)

    def test_problem_rejects_negative_entries(self):
        j = np.ones((3, 3))
        with pytest.raises(ValueError, match="^v_a must be entrywise nonnegative$"):
            DualNmfProblem(-j, j, np.eye(3), 0.1, rank=2)

    @pytest.mark.parametrize("rank", [2.5, 2.0, True])
    def test_problem_refuses_a_rank_that_is_no_integer(self, rank):
        # 2.5 and True once passed the bound and failed on the first draw with a TypeError
        j = np.ones((3, 3))
        with pytest.raises(ValueError, match=f"^rank={rank} is not an integer$"):
            DualNmfProblem(j, j, np.eye(3), 0.1, rank=rank)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["v_a", "v_b", "mixing matrix"])
    def test_problem_refuses_a_non_finite_entry_naming_its_matrix(self, name, value):
        # a NaN rating once passed, and the run was then refused with a wrong cause and remedy
        mats = {"v_a": np.ones((3, 3)), "v_b": np.ones((3, 3)), "mixing matrix": np.eye(3)}
        mats[name][1, 2] = value
        with pytest.raises(ValueError, match=f"^{name} has a non-finite entry \\(NaN or inf\\)$"):
            DualNmfProblem(mats["v_a"], mats["v_b"], mats["mixing matrix"], 0.1, rank=2)


class TestReduce:
    def test_alpha_zero_is_identity(self):
        p = make_random_problem(5, 4, 2, 0.0, seed=2)
        m_a, m_b = reduce(p)
        np.testing.assert_array_equal(m_a, p.v_a)
        np.testing.assert_array_equal(m_b, p.v_b)

    def test_hand_arithmetic_on_all_ones(self):
        # V_A = V_B = J, X = I, alpha = 1/4: ((0.75 - 0.25)/0.5) J = J
        m_a, m_b = reduce(ones_problem(0.25))
        np.testing.assert_allclose(m_a, np.ones((3, 3)), atol=1e-12)
        np.testing.assert_allclose(m_b, np.ones((3, 3)), atol=1e-12)

    def test_recomposition_returns_original_matrices(self):
        p = make_random_problem(6, 5, 3, 0.2, seed=9)
        m_a, m_b = reduce(p)
        np.testing.assert_allclose((1 - p.alpha) * m_a + p.alpha * (p.x @ m_b), p.v_a, atol=1e-12)
        np.testing.assert_allclose((1 - p.alpha) * m_b + p.alpha * (p.x.T @ m_a), p.v_b, atol=1e-12)


class TestCheckConditions:
    def test_alpha_zero_all_hold_on_nonnegative_input(self):
        conds = check_conditions(make_random_problem(5, 4, 2, 0.0, seed=1))
        assert conds == {"a": True, "b": True, "c": True}

    def test_mixing_dominance_violated_on_constructed_case(self):
        # alpha=0.4, V_A = J, V_B = 0.1 J, X = I: 0.06 - 0.4 < 0 fails (b)
        conds = check_conditions(ones_problem(0.4, scale_b=0.1))
        assert conds["a"] is True
        assert conds["b"] is False
        assert conds["c"] is True

    def test_perturbation_repairs_conditions(self):
        p = ones_problem(0.4, scale_b=0.1)
        assert not all(check_conditions(p).values())
        fixed = perturb_problem(p, k=1.0)
        assert all(check_conditions(fixed).values())


class TestPerturb:
    def test_definition(self):
        v = np.array([[0.3]])
        np.testing.assert_allclose(perturb(v, 8, 1.0), [[8.3]], atol=1e-15)

    def test_subtracting_recovers_original(self):
        v = make_rng(4).random((5, 4))
        back = perturb(v, 3, 0.7) - 3 * 0.7
        np.testing.assert_allclose(back, v, atol=1e-15)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            perturb(np.ones((2, 2)), 3, 0.0)
        with pytest.raises(ValueError):
            perturb(np.ones((2, 2)), -1, 1.0)

    def test_a_nan_scale_is_refused(self):
        # once returned a NaN matrix, which DualNmfProblem then blamed on v_a
        with pytest.raises(ValueError, match=r"^k=nan is not a number$"):
            perturb(np.ones((2, 2)), 3, np.nan)


class TestMuStep:
    def test_perfect_factorization_is_fixed_point(self):
        # permutation X keeps the composed matrices nonnegative
        rng = make_rng(6)
        w_a, h_a = rng.uniform(0.5, 1.5, (6, 2)), rng.uniform(0.5, 1.5, (2, 5))
        w_b, h_b = rng.uniform(0.5, 1.5, (6, 2)), rng.uniform(0.5, 1.5, (2, 5))
        x = random_permutation_matrix(6, seed=3)
        alpha = 0.1
        v_a = (1 - alpha) * (w_a @ h_a) + alpha * (x @ (w_b @ h_b))
        v_b = (1 - alpha) * (w_b @ h_b) + alpha * (x.T @ (w_a @ h_a))
        p = DualNmfProblem(v_a, v_b, x, alpha, rank=2)
        s = DualNmfState(w_a.copy(), h_a.copy(), w_b.copy(), h_b.copy())
        out = mu_step(p, s)
        for before, after in zip(s.factors(), out.factors()):
            np.testing.assert_allclose(after, before, atol=1e-9)

    def test_one_step_does_not_increase_losses(self):
        p = make_random_problem(10, 8, 3, 0.1, seed=5)
        if not all(check_conditions(p).values()):
            p = perturb_problem(p, 1.0)
        s = init_state(p, seed=5)
        out = mu_step(p, s)
        assert coupled_loss_via_reduction(p, out) <= coupled_loss_via_reduction(p, s) + 1e-10
        assert dual_loss(p, out) <= dual_loss(p, s) + 1e-10

    def test_nonnegativity_preserved(self):
        p = perturb_problem(make_random_problem(8, 6, 2, 0.2, seed=8), 1.0)
        s = init_state(p, seed=8)
        for _ in range(25):
            s = mu_step(p, s)
            assert all(np.all(f >= 0) for f in s.factors())

    def test_alpha_zero_matches_classical_updates(self):
        p = make_random_problem(7, 6, 3, 0.0, seed=10)
        s = init_state(p, seed=10)
        w_a, h_a = s.w_a.copy(), s.h_a.copy()
        w_b, h_b = s.w_b.copy(), s.h_b.copy()
        for _ in range(10):
            s = mu_step(p, s)
            w_a, h_a = classical_mu_step(p.v_a, w_a, h_a)
            w_b, h_b = classical_mu_step(p.v_b, w_b, h_b)
        np.testing.assert_allclose(s.w_a, w_a, atol=1e-12)
        np.testing.assert_allclose(s.h_a, h_a, atol=1e-12)
        np.testing.assert_allclose(s.w_b, w_b, atol=1e-12)
        np.testing.assert_allclose(s.h_b, h_b, atol=1e-12)


class TestRunNmf:
    def test_trace_monotone_on_perturbed_problem(self):
        p = make_random_problem(20, 15, 4, 0.1, seed=0)
        if not all(check_conditions(p).values()):
            p = perturb_problem(p, 1.0)
        s = run_nmf(p, max_iters=300, tol=0.0, seed=0)
        trace = np.array(s.loss_trace)
        assert np.all(np.diff(trace) <= 1e-10)

    def test_alpha_zero_final_loss_matches_classical_oracle(self):
        p = make_random_problem(12, 9, 3, 0.0, seed=4)
        s = run_nmf(p, max_iters=400, tol=1e-9, seed=4)
        s0 = init_state(p, seed=4)
        w_a, h_a, w_b, h_b = (f.copy() for f in s0.factors())
        prev = np.sum((p.v_a - w_a @ h_a) ** 2) + np.sum((p.v_b - w_b @ h_b) ** 2)
        for _ in range(400):
            w_a, h_a = classical_mu_step(p.v_a, w_a, h_a)
            w_b, h_b = classical_mu_step(p.v_b, w_b, h_b)
            cur = np.sum((p.v_a - w_a @ h_a) ** 2) + np.sum((p.v_b - w_b @ h_b) ** 2)
            if abs(prev - cur) < 1e-9:
                break
            prev = cur
        assert s.loss_trace[-1] == pytest.approx(cur, rel=1e-6)

    def test_huge_tolerance_stops_after_one_step(self):
        p = make_random_problem(6, 5, 2, 0.1, seed=2)
        if not all(check_conditions(p).values()):
            p = perturb_problem(p, 1.0)
        s = run_nmf(p, max_iters=100, tol=1e9, seed=2)
        assert len(s.loss_trace) == 2  # initial loss plus one step

    def test_refuses_when_conditions_fail(self):
        bad = ones_problem(0.4, scale_b=0.1)
        assert not check_conditions(bad)["b"]
        with pytest.raises(ValueError, match="b"):
            run_nmf(bad)

    def test_deterministic_per_seed(self):
        p = perturb_problem(make_random_problem(8, 6, 2, 0.15, seed=6), 1.0)
        t1 = run_nmf(p, max_iters=50, tol=0.0, seed=6).loss_trace
        t2 = run_nmf(p, max_iters=50, tol=0.0, seed=6).loss_trace
        assert t1 == t2

    @pytest.mark.parametrize("shape, alpha, seed, iters", [((8, 6, 2), 0.15, 6, 200), ((20, 15, 4), 0.1, 1, 2000)],
                             ids=["8x6-rank2", "20x15-rank4"])
    def test_bitwise_equal_to_stepping_mu_step(self, shape, alpha, seed, iters):
        # reference loop: the oracle's one-step update and traced loss, composed;
        # (20, 15, 4) is the nmf-lab default shape, which the in-place kernel steps
        p = perturb_problem(make_random_problem(*shape, alpha, seed=seed), 1.0)
        s = init_state(p, seed=seed)
        want = [coupled_loss_via_reduction(p, s)]
        for _ in range(iters):
            s = mu_step(p, s)
            want.append(coupled_loss_via_reduction(p, s))
        got = run_nmf(p, max_iters=iters, tol=0.0, seed=seed)
        assert got.loss_trace == want
        for g, w in zip(got.factors(), s.factors()):
            assert np.array_equal(g, w)

    def test_warm_start_is_not_mutated_and_bad_shapes_refused(self):
        p = perturb_problem(make_random_problem(8, 6, 2, 0.15, seed=6), 1.0)
        start = init_state(p, seed=1)
        before = start.copy()
        run_nmf(p, max_iters=20, tol=0.0, state=start)
        for a, b in zip(start.factors(), before.factors()):
            assert np.array_equal(a, b)
        bad = DualNmfState(start.w_a, start.h_a, start.w_b[:, :1], start.h_b)
        with pytest.raises(ValueError, match="w_b"):
            run_nmf(p, max_iters=20, state=bad)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_warm_start_of_another_dtype_runs_as_its_float64_copy(self, dtype):
        # the workspace takes the factors' dtype, so they must enter the stack as float64
        p = perturb_problem(make_random_problem(8, 6, 2, 0.15, seed=6), 1.0)
        start = DualNmfState(*(np.ceil(3.0 * f) for f in init_state(p, seed=1).factors()))
        got = run_nmf(p, max_iters=20, tol=0.0, state=DualNmfState(*(f.astype(dtype) for f in start.factors())))
        assert_same_run(got, run_nmf(p, max_iters=20, tol=0.0, state=start))
        assert all(f.dtype == np.float64 for f in got.factors())

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["w_a", "h_a", "w_b", "h_b"])
    def test_warm_start_with_a_negative_or_non_finite_factor_is_refused(self, name, value):
        # one -1.0 in w_a once ran to NaN factors: the updates are monotone only on nonnegative factors
        p = perturb_problem(make_random_problem(8, 6, 2, 0.15, seed=6), 1.0)
        bad = init_state(p, seed=1)
        getattr(bad, name)[1, 1] = value
        with pytest.raises(ValueError, match=f"^factor {name} has a negative or non-finite entry; "
                                             "factors must be finite and nonnegative$"):
            run_nmf(p, max_iters=20, state=bad)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iters": -5}, "max_iters=-5 below 0"),
        ({"max_iters": True}, "max_iters=True is not an integer"),
        ({"max_iters": 2.0}, "max_iters=2.0 is not an integer"),
        ({"tol": np.nan}, "tol=nan is not a number"),
        ({"tol": -1.0}, "tol=-1.0 below 0"),
    ])
    def test_a_budget_below_0_or_no_integer_and_a_tolerance_below_0_or_nan_are_refused(self, kwargs, message):
        # once -5 ran 0 iterations, True ran 1, and tol=nan or -1.0 burnt the whole budget
        p = perturb_problem(make_random_problem(8, 6, 2, 0.15, seed=6), 1.0)
        for run in (lambda: run_nmf(p, **kwargs), lambda: run_nmf_many([p, p], [1, 2], **kwargs)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                run()


def ready_problem(rows, cols, rank, alpha, seed):
    """A random problem, perturbed when its conditions fail."""
    p = make_random_problem(rows, cols, rank, alpha, seed)
    return p if all(check_conditions(p).values()) else perturb_problem(p, 1.0)


def assert_same_run(got, want):
    assert got.loss_trace == want.loss_trace
    for g, w in zip(got.factors(), want.factors()):
        assert g.tobytes() == w.tobytes()


class TestRunNmfMany:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(1, 2)),
        specs=st.lists(st.tuples(st.integers(0, 2**16), st.floats(0.0, 0.45, exclude_max=True)), min_size=1, max_size=4),
        tol=st.sampled_from([0.0, 1e-6, 1e9]),
        budget=st.integers(0, 300),
    )
    @example(shape=(4, 3, 2), specs=[(1, 0.1), (2, 0.0), (3, 0.3)], tol=1e9, budget=300)
    def test_each_problem_gets_its_lone_run_bytes(self, shape, specs, tol, budget):
        problems = [ready_problem(*shape, alpha, seed) for seed, alpha in specs]
        if not all(all(check_conditions(p).values()) for p in problems):
            with pytest.raises(ValueError, match=r"^problem \d+: convergence condition"):
                run_nmf_many(problems, [seed for seed, _ in specs], max_iters=budget, tol=tol)
            return
        got = run_nmf_many(problems, [seed for seed, _ in specs], max_iters=budget, tol=tol)
        for p, (seed, _), s in zip(problems, specs, got):
            assert_same_run(s, run_nmf(p, max_iters=budget, tol=tol, seed=seed))
            if tol == 1e9 and budget:  # settled at iteration 1
                assert len(s.loss_trace) == 2

    def test_problems_leave_the_stack_as_they_settle(self):
        problems = [ready_problem(5, 4, 2, alpha, seed) for seed, alpha in enumerate((0.0, 0.1, 0.2, 0.3))]
        got = run_nmf_many(problems, [7, 8, 9, 10], max_iters=3000, tol=1e-6)
        assert len({len(s.loss_trace) for s in got}) > 1, "no problem settled before another"
        # each returned factor is its own copy, not a view into the stack the kernel writes in place
        arrays = [a for s in got for a in s.factors()]
        assert all(a.flags.owndata for a in arrays), "a returned factor views the stack"
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:]), "two returned factors share memory"
        for p, seed, s in zip(problems, [7, 8, 9, 10], got):
            assert_same_run(s, run_nmf(p, max_iters=3000, tol=1e-6, seed=seed))

    def test_no_problems_give_no_states(self):
        assert run_nmf_many([], []) == []

    def test_refuses_a_problem_whose_conditions_fail_by_its_index(self):
        good, bad = make_random_problem(3, 3, 2, 0.0, seed=1), ones_problem(0.4, scale_b=0.1)
        with pytest.raises(ValueError, match=r"^problem 1: convergence condition\(s\) b not satisfied"):
            run_nmf_many([good, bad], [0, 1])

    @pytest.mark.parametrize("other", [(6, 4, 2), (5, 5, 2), (6, 5, 3)])
    def test_refuses_a_shape_or_rank_other_than_problem_0s(self, other):
        p0 = make_random_problem(6, 5, 2, 0.0, seed=1)
        with pytest.raises(ValueError, match=r"^problem 2: shape .* differ from problem 0's \(6, 5\) and 2$"):
            run_nmf_many([p0, p0, make_random_problem(*other, 0.0, seed=2)], [0, 1, 2])

    def test_refuses_seeds_that_do_not_match_the_problems(self):
        p = make_random_problem(6, 5, 2, 0.0, seed=1)
        with pytest.raises(ValueError, match=r"^2 problems but 3 seeds$"):
            run_nmf_many([p, p], [0, 1, 2])


class TestLossBookkeeping:
    def test_decomposition_sums_to_direct_loss(self):
        p = perturb_problem(make_random_problem(9, 7, 3, 0.2, seed=12), 1.0)
        s = init_state(p, seed=12)
        for _ in range(5):
            reduced_part, cross_part = loss_decomposition(p, s)
            assert dual_loss(p, s) == pytest.approx(reduced_part + cross_part, rel=1e-9)
            assert reduced_part == pytest.approx(
                (1 - 2 * p.alpha) ** 2 * reduced_loss(p, s), rel=1e-12
            )
            s = mu_step(p, s)

    def test_decomposition_refuses_a_factor_of_the_wrong_shape(self):
        # once numpy's "matmul: Input operand 1 has a mismatch ...", naming no factor
        p = perturb_problem(make_random_problem(8, 6, 2, 0.15, seed=6), 1.0)
        s = init_state(p, seed=1)
        s.w_a = np.ones((8, 3))
        with pytest.raises(ValueError, match=r"^factor w_a has shape \(8, 3\), expected \(8, 2\)$"):
            loss_decomposition(p, s)

    def test_decomposition_refuses_a_negative_factor(self):
        # once decomposed without a word
        p = perturb_problem(make_random_problem(8, 6, 2, 0.15, seed=6), 1.0)
        s = init_state(p, seed=1)
        s.h_b[0, 0] = -1.0
        with pytest.raises(ValueError, match="^factor h_b has a negative or non-finite entry; "
                                             "factors must be finite and nonnegative$"):
            loss_decomposition(p, s)

    def test_traced_loss_equals_scaled_reduced_loss(self):
        p = perturb_problem(make_random_problem(9, 7, 3, 0.2, seed=12), 1.0)
        s = init_state(p, seed=12)
        want = (1 - 2 * p.alpha) ** 2 * reduced_loss(p, s)
        assert coupled_loss_via_reduction(p, s) == pytest.approx(want, rel=1e-12)

    def test_alpha_zero_traced_and_direct_losses_coincide(self):
        p = make_random_problem(6, 5, 2, 0.0, seed=3)
        s = init_state(p, seed=3)
        assert coupled_loss_via_reduction(p, s) == pytest.approx(dual_loss(p, s), rel=1e-12)
