"""Orthogonal map construction, transfer, penalty, projection, alignment."""

import numpy as np
import pytest

from dualrec.mapping import (
    ORTHO_TOL,
    OrthogonalMap,
    _identity,
    align_map,
    init_map,
    map_forward,
    map_inverse,
    ortho_penalty,
    orthogonality_defect,
    project_orthogonal,
)
from dualrec.numeric import make_rng
from gradcheck import grad_check


class TestInitMap:
    def test_one_dimensional_map_is_sign(self):
        for seed in range(10):
            x = init_map(1, seed).x
            assert x.shape == (1, 1)
            assert abs(abs(x[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 8, 16])
    def test_construction_is_orthogonal(self, d):
        for seed in (0, 1, 99):
            assert orthogonality_defect(init_map(d, seed).x) <= 1e-10

    def test_different_seeds_give_different_maps(self):
        a = init_map(8, 0).x
        b = init_map(8, 1).x
        assert np.linalg.norm(a - b) > 1e-3

    def test_same_seed_is_deterministic(self):
        np.testing.assert_array_equal(init_map(8, 5).x, init_map(8, 5).x)

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ValueError):
            init_map(0, 0)


class TestTransfer:
    def test_identity_map_is_identity(self):
        m = OrthogonalMap(np.eye(4))
        e = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(map_forward(m, e), e)
        np.testing.assert_array_equal(map_inverse(m, e), e)

    def test_norm_preserved(self):
        m = init_map(8, 3)
        e = make_rng(7).normal(size=8)
        assert abs(np.linalg.norm(map_forward(m, e)) - np.linalg.norm(e)) <= 1e-6

    def test_inverse_undoes_forward(self):
        m = init_map(8, 3)
        e = make_rng(7).normal(size=8)
        np.testing.assert_allclose(map_inverse(m, map_forward(m, e)), e, atol=1e-6)
        np.testing.assert_allclose(map_forward(m, map_inverse(m, e)), e, atol=1e-6)

    def test_inner_products_preserved(self):
        m = init_map(6, 11)
        rng = make_rng(13)
        for _ in range(5):
            u, v = rng.normal(size=6), rng.normal(size=6)
            assert abs(map_forward(m, u) @ map_forward(m, v) - u @ v) <= 1e-6

    def test_batch_rows_match_single_vectors(self):
        m = init_map(5, 2)
        eb = make_rng(4).normal(size=(7, 5))
        out = map_forward(m, eb)
        for i in range(7):
            np.testing.assert_allclose(out[i], map_forward(m, eb[i]), atol=1e-12)
        back = map_inverse(m, out)
        np.testing.assert_allclose(back, eb, atol=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            map_forward(init_map(4, 0), np.ones(5))


class TestOrthoPenalty:
    def test_orthogonal_matrix_has_zero_loss_and_gradient(self):
        loss, grad = ortho_penalty(init_map(8, 1))
        assert loss <= 1e-12
        assert np.max(np.abs(grad)) <= 1e-6

    def test_hand_computed_scaled_identity(self):
        # X = 2I in d=2: X^T X - I = 3I, loss = 2 * 9 = 18, grad = 4*2I*3I = 24I
        loss, grad = ortho_penalty(OrthogonalMap(2.0 * np.eye(2)))
        assert loss == pytest.approx(18.0, abs=1e-12)
        np.testing.assert_allclose(grad, 24.0 * np.eye(2), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        x0 = make_rng(17).normal(size=(4, 4))

        def wrapped(params):
            (x,) = params
            loss, grad = ortho_penalty(OrthogonalMap(x))
            return loss, [grad]

        assert grad_check(wrapped, [x0]) <= 1e-5

    def test_one_read_only_identity_per_dimension_gives_the_bits_of_a_fresh_one(self):
        eye = _identity(8)
        assert eye is _identity(8) and not eye.flags.writeable and np.array_equal(eye, np.eye(8))
        x = make_rng(19).normal(size=(3, 8, 8))
        e = x.swapaxes(-1, -2) @ x - np.eye(8)
        loss, grad = ortho_penalty(x)
        assert loss.tobytes() == (e * e).sum(axis=(-2, -1)).tobytes()
        assert grad.tobytes() == (4.0 * x @ e).tobytes()
        assert orthogonality_defect(x[0]) == float(np.linalg.norm(x[0].T @ x[0] - np.eye(8)))
        assert np.array_equal(_identity(8), np.eye(8))


class TestProjection:
    def test_orthogonal_input_is_fixed_point(self):
        m = init_map(8, 9)
        out = project_orthogonal(m)
        assert np.max(np.abs(out.x - m.x)) <= 1e-10

    def test_scaled_orthogonal_projects_back(self):
        q = init_map(6, 4).x
        out = project_orthogonal(OrthogonalMap(1.1 * q))
        assert np.max(np.abs(out.x - q)) <= 1e-5

    def test_one_dimensional_sign_preserved(self):
        out = project_orthogonal(OrthogonalMap(np.array([[-3.0]])))
        np.testing.assert_allclose(out.x, [[-1.0]], atol=1e-9)

    def test_projection_meets_contract_tolerance(self):
        x = init_map(8, 2).x + 0.05 * make_rng(3).normal(size=(8, 8))
        out = project_orthogonal(OrthogonalMap(x))
        assert orthogonality_defect(out.x) <= ORTHO_TOL

    def test_zero_matrix_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            project_orthogonal(OrthogonalMap(np.zeros((3, 3))))


class TestAlignMap:
    def test_planted_rotation_recovered_exactly(self):
        r = init_map(6, 8).x
        source = make_rng(5).normal(size=(40, 6))
        target = source @ r.T  # rows mapped by the planted rotation
        m = align_map(source, target)
        np.testing.assert_allclose(m.x, r, atol=1e-9)

    def test_noisy_rotation_recovered_approximately(self):
        r = init_map(6, 8).x
        rng = make_rng(5)
        source = rng.normal(size=(200, 6))
        target = source @ r.T + 0.05 * rng.normal(size=(200, 6))
        m = align_map(source, target)
        assert np.linalg.norm(m.x - r) < 0.05
        assert orthogonality_defect(m.x) <= 1e-9

    def test_alignment_minimizes_over_random_rotations(self):
        rng = make_rng(12)
        source = rng.normal(size=(50, 4))
        target = rng.normal(size=(50, 4))  # unrelated: fit is still optimal
        fitted = align_map(source, target)
        best = np.linalg.norm(map_forward(fitted, source) - target)
        for seed in range(20):
            other = np.linalg.norm(map_forward(init_map(4, seed), source) - target)
            assert best <= other + 1e-9

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            align_map(np.ones((3, 4)), np.ones((3, 4)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            align_map(np.ones((5, 4)), np.ones((5, 3)))
