"""Dense layer and backprop kernel tests.

Every layer runs through the one stacked kernel, a single DenseLayer as a
one-layer stack. Analytic gradients are checked against central finite
differences; a layer's affine map against a naive triple-loop oracle computed
here, independently of numpy's BLAS path; and every slice of a stack against
the per-layer oracle of tests/single_domain.py, bit for bit.
tests/test_training_kernel.py checks the sigmoid against the sign-masked form
it replaced. The training loops apply the SGD step in place; TestSgdStep
checks it through one step of the autoencoder's loop.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualrec.autoencoder import loss_and_grads, new_autoencoder, reconstruction_loss, stack_autoencoders, train_autoencoder
from dualrec.numeric import (
    DenseLayer,
    _activate,
    _activation_grad,
    check_finite_step,
    dense_layer,
    dense_stack,
    layer_views,
    lockstep_steps,
    make_rng,
    sigmoid,
    stack_backward,
    stack_forward,
)
from gradcheck import grad_check
from single_domain import layer_backward, layer_forward


def triple_loop_matmul(a, b):
    # independent oracle: no vectorized ops, just the definition
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_extreme_inputs_stay_finite_and_bounded(self):
        y = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(y))
        assert 0.0 <= y[0] < 1e-12
        assert 1.0 - 1e-12 < y[1] <= 1.0

    def test_symmetry(self):
        z = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)

    def test_nan_gives_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, 1.0, -np.nan]))).tolist() == [True, False, True]


def gradient_views(dense):
    """Views of a fresh gradient buffer laid out like DenseLayers dense, as `stack_backward` writes them."""
    layout = [(l.n_in, l.n_out, l.activation) for l in dense]
    return layer_views(np.full(sum(o * (i + 1) for i, o, _ in layout), np.nan), layout)


def layer_grads(layer, caches, dy, need_dx=True):
    """One-layer `stack_backward` of a DenseLayer: (dx, dW, db), db shaped like the bias."""
    ((dw, db, _),) = grads = gradient_views([layer])
    dx = stack_backward(dense_stack([layer]), caches, dy, grads, need_dx)
    return dx, dw, db[0]


class TestLayerForward:
    """One DenseLayer as a one-layer `stack_forward` on rows (n, n_in)."""

    def test_identity_activation_identity_weights(self):
        layer = DenseLayer(np.eye(3), np.zeros(3), "identity")
        x = np.array([[1.5, -2.0, 0.25]])
        y, _ = stack_forward(dense_stack([layer]), x)
        np.testing.assert_array_equal(y, x)

    def test_sigmoid_zero_weights_gives_half(self):
        layer = DenseLayer(np.zeros((4, 3)), np.zeros(4), "sigmoid")
        y, _ = stack_forward(dense_stack([layer]), np.array([[9.0, -9.0, 2.0]]))
        np.testing.assert_array_equal(y, np.full((1, 4), 0.5))

    @pytest.mark.parametrize("activation", ["identity", "sigmoid", "relu"])
    def test_random_layer_matches_direct_formula(self, activation):
        rng = make_rng(3, 1)
        layer = dense_layer(rng, 5, 4, activation)
        layer.bias = rng.normal(size=4)  # nonzero bias to exercise that path
        x = rng.normal(size=5)
        y, _ = stack_forward(dense_stack([layer]), x[None])
        z = layer.weights @ x + layer.bias
        if activation == "identity":
            want = z
        elif activation == "sigmoid":
            want = 1.0 / (1.0 + np.exp(-z))
        else:
            want = np.maximum(z, 0.0)
        np.testing.assert_allclose(y[0], want, atol=1e-12)

    def test_batch_agrees_with_per_row_calls(self):
        rng = make_rng(11)
        layers = dense_stack([dense_layer(rng, 3, 2, "sigmoid")])
        xb = rng.normal(size=(6, 3))
        yb, _ = stack_forward(layers, xb)
        for i in range(6):
            yi, _ = stack_forward(layers, xb[i : i + 1])
            # batched and single-row matmuls may take different BLAS kernels
            np.testing.assert_allclose(yb[i], yi[0], atol=1e-12)

    def test_identity_layer_matches_triple_loop_oracle(self):
        rng = make_rng(42)
        layer = DenseLayer(rng.normal(size=(3, 4)), rng.normal(size=3), "identity")
        xb = rng.normal(size=(5, 4))
        y, _ = stack_forward(dense_stack([layer]), xb)
        want = triple_loop_matmul(xb, layer.weights.T) + layer.bias
        assert np.max(np.abs(y - want)) <= 1e-12

    def test_wrong_width_rejected(self):
        layer = DenseLayer(np.eye(3), np.zeros(3), "identity")
        with pytest.raises(ValueError):
            stack_forward(dense_stack([layer]), np.ones((1, 4)))


class TestLayerBackward:
    """One DenseLayer's gradients as a one-layer `stack_backward`."""

    def test_identity_unit_dy_picks_weight_row(self):
        rng = make_rng(5)
        layer = dense_layer(rng, 4, 3, "identity")
        _, caches = stack_forward(dense_stack([layer]), rng.normal(size=(1, 4)))
        dx, _, _ = layer_grads(layer, caches, np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(dx[0], layer.weights[0])

    def test_zero_dy_gives_zero_gradients(self):
        rng = make_rng(6)
        layer = dense_layer(rng, 4, 3, "sigmoid")
        _, caches = stack_forward(dense_stack([layer]), rng.normal(size=(1, 4)))
        dx, dW, db = layer_grads(layer, caches, np.zeros((1, 3)))
        assert not dx.any() and not dW.any() and not db.any()

    @pytest.mark.parametrize("activation", ["identity", "sigmoid", "relu"])
    def test_gradients_match_central_differences(self, activation):
        rng = make_rng(8, 2)
        n_in, n_out = 4, 3
        w0 = rng.normal(size=(n_out, n_in))
        b0 = rng.normal(size=n_out)
        x0 = rng.normal(size=(1, n_in)) + 0.05  # keep relu away from its kink
        c = rng.normal(size=(1, n_out))  # fixed projection makes the loss scalar

        def loss_and_grad(params):
            w, b, x = params
            layer = DenseLayer(w, b, activation)
            y, caches = stack_forward(dense_stack([layer]), x)
            dx, dW, db = layer_grads(layer, caches, c)
            return float((c * y).sum()), [dW, db, dx]

        assert grad_check(loss_and_grad, [w0, b0, x0]) <= 1e-4

    def test_batch_gradients_sum_over_rows(self):
        rng = make_rng(9)
        layer = dense_layer(rng, 3, 2, "identity")
        xb = rng.normal(size=(4, 3))
        _, caches = stack_forward(dense_stack([layer]), xb)
        dyb = rng.normal(size=(4, 2))
        _, dW, db = layer_grads(layer, caches, dyb)
        dW_sum = np.zeros_like(dW)
        db_sum = np.zeros_like(db)
        for i in range(4):
            _, caches_i = stack_forward(dense_stack([layer]), xb[i : i + 1])
            _, dW_i, db_i = layer_grads(layer, caches_i, dyb[i : i + 1])
            dW_sum += dW_i
            db_sum += db_i
        np.testing.assert_allclose(dW, dW_sum, atol=1e-12)
        np.testing.assert_allclose(db, db_sum, atol=1e-12)

    def test_skipping_dx_keeps_the_parameter_gradients(self):
        rng = make_rng(10)
        layer = dense_layer(rng, 3, 2, "relu")
        _, caches = stack_forward(dense_stack([layer]), rng.normal(size=(4, 3)))
        dyb = rng.normal(size=(4, 2))
        dx, dW, db = layer_grads(layer, caches, dyb, need_dx=False)
        _, dW_full, db_full = layer_grads(layer, caches, dyb)
        assert dx is None
        np.testing.assert_array_equal(dW, dW_full)
        np.testing.assert_array_equal(db, db_full)


class TestCheckFiniteStep:
    def test_finite_step_passes(self):
        check_finite_step(0.5, [np.ones((2, 3)), -np.ones(3)], "lower x")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_bad_gradient_entry_raises(self, bad):
        g = np.ones((2, 3))
        g[1, 2] = bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            check_finite_step(0.5, [np.zeros(3), g], "lower x")

    def test_non_finite_loss_raises(self):
        with pytest.raises(FloatingPointError):
            check_finite_step(float("nan"), [np.zeros(3)], "lower x")

    def test_names_the_network_on_axis_minus_three(self):
        # a domain axis before the network axis, as the coupled step passes its scorer gradients
        grads = [np.zeros((3, 4, 4)), np.zeros((2, 3, 4, 5)), np.zeros((2, 3, 1, 4))]
        grads[1][1, 2, 0, 0] = np.inf
        with pytest.raises(FloatingPointError, match=r"^non-finite training loss or gradient in net 2; lower x$"):
            check_finite_step(np.zeros(3), grads, "lower x", ["net 0", "net 1", "net 2"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the total overflows on purpose
    def test_an_overflow_only_across_networks_passes(self):
        # each network's own sum is finite; only their total overflows
        big = np.full((2, 1, 1), 1e308)
        check_finite_step(np.zeros(2), [big], "lower x", ["net 0", "net 1"])


def one_sgd_step(lr):
    """An autoencoder before and after one SGD step on a one-row corpus."""
    x = np.array([[0.2, 0.9, 0.4, 0.7]])
    before = new_autoencoder(x.shape[1], 2, seed=0)
    after, _ = train_autoencoder(x, embed_dim=2, lr=lr, epochs=1, batch_size=1, seed=0)
    return x, before, after


def ae_params(ae):
    return (ae.encoder.weights, ae.encoder.bias, ae.decoder.weights, ae.decoder.bias)


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        _, before, after = one_sgd_step(0.0)
        for got, want in zip(ae_params(after), ae_params(before)):
            np.testing.assert_array_equal(got, want)

    def test_hand_arithmetic(self):
        # every parameter array p becomes p - lr * g, with g the batch gradient at p
        x, before, after = one_sgd_step(0.1)
        stack = stack_autoencoders([before])
        loss_and_grads(stack, x[None])
        grads = [g[0] for w, b, _ in stack.grad_layers for g in (w, b)]
        for got, p, g in zip(ae_params(after), ae_params(before), grads):
            np.testing.assert_array_equal(got, p - 0.1 * g.reshape(p.shape))

    def test_one_step_on_square_loss_decreases(self):
        x, before, after = one_sgd_step(0.05)
        assert reconstruction_loss(after, x) < reconstruction_loss(before, x)

    def test_inputs_not_mutated_and_lists_supported(self):
        corpus = [[0.2, 0.9, 0.4, 0.7], [0.5, 0.1, 0.8, 0.3], [0.6, 0.6, 0.0, 1.0]]
        x = np.array(corpus)
        from_list, _ = train_autoencoder(corpus, embed_dim=2, lr=0.1, epochs=3, batch_size=2, seed=0)
        from_array, _ = train_autoencoder(x, embed_dim=2, lr=0.1, epochs=3, batch_size=2, seed=0)
        assert x.tolist() == corpus
        for got, want in zip(ae_params(from_list), ae_params(from_array)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up overflows on purpose
    def test_non_finite_gradient_raises(self):
        corpus = make_rng(5).random(size=(40, 6))
        with pytest.raises(FloatingPointError):
            train_autoencoder(corpus, embed_dim=3, lr=1e6, epochs=50, seed=0)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError, match=r"^lr=-0.1 below 0$"):
            train_autoencoder(make_rng(5).random(size=(4, 6)), embed_dim=3, lr=-0.1, epochs=1)


class TestGradCheck:
    def test_linear_loss_is_exact(self):
        c = np.array([2.0, -3.0, 0.5])

        def lin(params):
            (p,) = params
            return float(c @ p), [c.copy()]

        assert grad_check(lin, [np.array([1.0, 2.0, 3.0])]) <= 1e-8

    def test_sigmoid_mlp_within_tolerance(self):
        rng = make_rng(13)
        w1 = rng.normal(size=(4, 3)) * 0.5
        b1 = rng.normal(size=4) * 0.1
        w2 = rng.normal(size=(1, 4)) * 0.5
        b2 = rng.normal(size=1) * 0.1
        x = rng.normal(size=3)

        def mlp(params):
            w1_, b1_, w2_, b2_ = params
            dense = [DenseLayer(w1_, b1_, "sigmoid"), DenseLayer(w2_, b2_, "sigmoid")]
            y, caches = stack_forward(dense_stack(dense), x[None])
            grads = gradient_views(dense)
            stack_backward(dense_stack(dense), caches, 2.0 * y, grads, need_dx=False)
            (dW1, db1, _), (dW2, db2, _) = grads
            return float(y[0, 0] ** 2), [dW1, db1[0], dW2, db2[0]]

        assert grad_check(mlp, [w1, b1, w2, b2]) <= 1e-4

    def test_corrupted_gradient_is_caught(self):
        c = np.array([2.0, -3.0, 0.5])

        def bad(params):
            (p,) = params
            g = c.copy()
            g[1] += 0.1  # deliberate corruption the checker must flag
            return float(c @ p), [g]

        assert grad_check(bad, [np.array([1.0, 2.0, 3.0])]) > 1e-2


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a = make_rng(1234, 7).normal(size=5)
        b = make_rng(1234, 7).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_independent(self):
        a = make_rng(1234, 7).normal(size=5)
        b = make_rng(1234, 8).normal(size=5)
        assert np.max(np.abs(a - b)) > 1e-3


def fresh_stack_forward(layers, h):
    """The allocation-heavy formula the in-place forward replaced: (y, [(input, pre-activation, output)])."""
    caches = []
    for w, b, act in layers:
        z = h @ w.swapaxes(-1, -2) + b
        y = sigmoid(z) if act == "sigmoid" else np.maximum(z, 0.0) if act == "relu" else z
        caches.append((h, z, y))
        h = y
    return h, caches


def fresh_stack_backward(layers, caches, dy):
    """Its backward pass, fresh products throughout, relu's mask from the pre-activation: (dx, [(dW, db)])."""
    grads = []
    for (w, _, act), (h, z, y) in zip(layers[::-1], caches[::-1]):
        if act == "sigmoid":
            dy = dy * (y * (1.0 - y))
        elif act == "relu":
            dy = dy * (z > 0)
        grads.append((dy.swapaxes(-1, -2) @ h, np.add.reduce(dy, axis=-2, keepdims=True)))
        dy = dy @ w
    return dy, grads[::-1]


SCORER_LAYOUT = ((16, 16, "relu"), (16, 8, "relu"), (8, 1, "sigmoid"))


class TestStackKernel:
    """stack_forward/stack_backward against the per-layer oracle, slice by slice,
    and the in-place kernels on flat-buffer views against fresh products."""

    def test_each_slice_is_the_2d_layer_math_bit_for_bit(self):
        rng = make_rng(29)
        dims, acts = [6, 5, 4, 1], ["relu", "sigmoid", "identity"]
        lead = (2, 3)
        layout = list(zip(dims, dims[1:], acts))
        params = rng.normal(size=(*lead, sum(o * (i + 1) for i, o, _ in layout)))
        grad_buf = np.full_like(params, np.nan)
        layers, grads = layer_views(params, layout), layer_views(grad_buf, layout)
        h = rng.normal(size=(*lead, 7, dims[0]))
        dy = rng.normal(size=(*lead, 7, 1))
        y, caches = stack_forward(layers, h)
        dx = stack_backward(layers, caches, dy, grads)
        assert not np.isnan(grad_buf).any()  # the views tile the buffer
        for idx in np.ndindex(*lead):
            dense = [DenseLayer(w[idx], b[idx][0], act) for w, b, act in layers]
            x, layer_caches = h[idx], []
            for layer in dense:
                x, cache = layer_forward(layer, x)
                layer_caches.append(cache)
            assert y[idx].tobytes() == x.tobytes()
            d = dy[idx]
            for n in range(len(dense) - 1, -1, -1):
                d, dw, db = layer_backward(dense[n], layer_caches[n], d)
                assert grads[n][0][idx].tobytes() == dw.tobytes()
                assert grads[n][1][idx][0].tobytes() == db.tobytes()
            assert dx[idx].tobytes() == d.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 32])
    def test_flat_buffer_views_give_the_bits_of_fresh_products(self, n):
        # the views the coupled step runs: the whole (2, K, P) stack, its domain-swapped
        # view, runs of models as K-slices, and a domain's slice of the swapped view
        rng = make_rng(43, n)
        params = rng.normal(size=(2, 3, 417))
        grad_buf = np.zeros_like(params)
        for view in (lambda a: a, lambda a: a[::-1], lambda a: a[:, 1:2], lambda a: a[:, 0:2], lambda a: a[::-1][:1]):
            p, g = view(params), view(grad_buf)
            layers = layer_views(p, SCORER_LAYOUT)
            assert all(np.shares_memory(w, params) and np.shares_memory(b, params) for w, b, _ in layers)
            h = rng.normal(size=(*p.shape[:-1], n, 16))
            dy = rng.normal(size=(*p.shape[:-1], n, 1))
            want_y, want_caches = fresh_stack_forward(layers, h)
            want_dx, want_grads = fresh_stack_backward(layers, want_caches, dy)
            y, caches = stack_forward(layers, h)
            assert y.tobytes() == want_y.tobytes()
            assert all(c[1].tobytes() == w[2].tobytes() for c, w in zip(caches, want_caches))
            dx = stack_backward(layers, caches, dy, layer_views(g, SCORER_LAYOUT))
            assert dx.tobytes() == want_dx.tobytes()
            for (dw, db, _), (want_dw, want_db) in zip(layer_views(g, SCORER_LAYOUT), want_grads):
                assert dw.tobytes() == want_dw.tobytes()
                assert db.tobytes() == want_db.tobytes()

    @pytest.mark.parametrize("activation", ["identity", "sigmoid", "relu"])
    @pytest.mark.parametrize("shape", [(1, 16), (40, 16)])
    def test_in_place_layer_forward_gives_the_bits_of_the_formula(self, activation, shape):
        rng = make_rng(47, len(shape))
        layer = DenseLayer(rng.normal(size=(8, 16)), rng.normal(size=8), activation)
        x = rng.normal(size=shape) * 4.0
        y, _ = stack_forward(dense_stack([layer]), x)
        want, _ = fresh_stack_forward([(layer.weights, layer.bias, activation)], x)
        assert y.tobytes() == want.tobytes()

    @given(st.lists(st.integers(1, 3), max_size=3), st.integers(1, 69), st.integers(1, 33), st.integers(0, 2**32 - 1))
    def test_bias_gradients_are_the_bits_of_the_row_reduce(self, lead, n, width, seed):
        # einsum where a layer has more than one output, numpy's pairwise reduce where it has one
        rng = make_rng(seed)
        layout = [(3, width, "identity")]
        layers = layer_views(rng.normal(size=(*lead, 4 * width)), layout)
        h = rng.normal(size=(*lead, n, 3))
        dy = rng.normal(size=(*lead, n, width)) * np.exp(rng.uniform(-12.0, 12.0, size=(*lead, n, width)))
        dy[..., : rng.integers(0, n + 1), rng.integers(0, width)] = -0.0
        grads = layer_views(np.full((*lead, 4 * width), np.nan), layout)
        stack_backward(layers, stack_forward(layers, h)[1], dy, grads)
        assert grads[0][1].tobytes() == np.add.reduce(dy, axis=-2, keepdims=True).tobytes()

    def test_relu_mask_from_the_output_is_the_mask_from_the_pre_activation(self):
        z = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-300, -1e-300, 3.0, -3.0])
        y = _activate("relu", z.copy())
        dy = make_rng(53).normal(size=z.shape)
        assert np.array_equal(y > 0, z > 0)
        assert _activation_grad("relu", y, dy).tobytes() == (dy * (z > 0)).tobytes()


class TestLockstepSteps:
    """The one step planner of both training kernels."""

    def test_runs_of_equal_sizes_drop_empty_networks(self):
        assert lockstep_steps([5, 5, 3, 0, 2], 2) == [
            (0, [(slice(0, 3), 2), (slice(4, 5), 2)]),
            (2, [(slice(0, 2), 2), (slice(2, 3), 1)]),
            (4, [(slice(0, 2), 1)]),
        ]

    def test_domains_count_as_one_size(self):
        # (rows of a, rows of b) per model; a model runs while either domain has rows
        assert lockstep_steps([[5, 2], [5, 2], [3, 2]], 2) == [
            (0, [(slice(0, 3), [2, 2])]),
            (2, [(slice(0, 2), [2, 0]), (slice(2, 3), [1, 0])]),
            (4, [(slice(0, 2), [1, 0])]),
        ]

    @given(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=2), min_size=1, max_size=6).filter(
        lambda c: max(map(max, c)) > 0), st.integers(1, 4), st.booleans())
    def test_every_network_with_rows_runs_once_per_start_in_a_maximal_run(self, counts, batch_size, one_domain):
        counts = [c[0] for c in counts] if one_domain else counts
        flat = np.array(counts).reshape(len(counts), -1)
        steps = lockstep_steps(counts, batch_size)
        assert [start for start, _ in steps] == list(range(0, flat.max(), batch_size))
        for start, runs in steps:
            sizes = np.clip(flat - start, 0, batch_size)
            covered = []
            for s, size in runs:
                covered += range(s.start, s.stop)
                assert (sizes[s] == np.reshape(size, -1)).all() and np.any(size)
                for edge in (s.start - 1, s.stop):  # the run is maximal
                    assert not 0 <= edge < len(counts) or (sizes[edge] != sizes[s.start]).any()
            assert covered == np.flatnonzero(sizes.any(axis=1)).tolist()


def per_slice(a, b):
    """a @ b as one 2-D product per slice of the leading axes."""
    out = np.empty(a.shape[:-1] + b.shape[-1:])
    for idx in np.ndindex(*a.shape[:-2]):
        out[idx] = a[idx] @ b[idx]
    return out


class TestBlasPremise:
    """The training kernels and the NMF lab stack products on leading axes and
    must match the per-network 2-D products bit for bit. numpy runs one BLAS
    call per slice; these checks pin that the result does not depend on the
    operands' memory layout (transposed views, row strides, the reversed
    domain axis, the channel axis, a take of the problem axis) at the kernels'
    own shapes. If a numpy or OpenBLAS upgrade
    breaks the premise, these fail by name. The one layout dependence known, a
    1-row product whose matrix is a copied transpose, is why the coupled step
    runs 1-row batches domain by domain and reads the map's transposed view
    itself."""

    SIZES = [1, 2, 7, 13, 31, 32, 40, 64]

    @pytest.mark.parametrize("n", SIZES)
    def test_scorer_layers_and_their_domain_swapped_view(self, n):
        rng = make_rng(31, n)
        k, d = 3, 8
        for n_in, n_out in ((2 * d, 16), (16, 8), (8, 1)):
            w = rng.normal(size=(2, k, n_out, n_in))
            h = rng.normal(size=(2, k, n, n_in))
            dy = rng.normal(size=(2, k, n, n_out))
            for weights in (w, w[::-1]):
                # forward through the transposed view, input gradient, weight gradient
                assert (h @ weights.swapaxes(-1, -2)).tobytes() == per_slice(h, weights.swapaxes(-1, -2)).tobytes()
                assert (dy @ weights).tobytes() == per_slice(dy, weights).tobytes()
            assert (dy.swapaxes(-1, -2) @ h).tobytes() == per_slice(dy.swapaxes(-1, -2), h).tobytes()

    @pytest.mark.parametrize("n", SIZES)
    def test_scorer_layers_on_the_channel_axis(self, n):
        # A coupled step runs its within and cross channels on a leading axis: a
        # pass of both domains reads the scorers gathered as [[a, b], [b, a]], a
        # pass of domain a or b alone the views params[:, None] or params[::-1][:, None].
        rng = make_rng(43, n)
        params = rng.normal(size=(2, 3, sum(n_out * (n_in + 1) for n_in, n_out, _ in SCORER_LAYOUT)))
        gathered = np.take(params, [0, 1, 1, 0], axis=0).reshape(2, 2, *params.shape[1:])
        for buf in (gathered, params[:, None], params[::-1][:, None]):
            for w, _, _ in layer_views(buf, SCORER_LAYOUT):
                n_out, n_in = w.shape[-2:]
                h = rng.normal(size=(*buf.shape[:-1], n, n_in))  # (channel, domain, K, n, in)
                dy = rng.normal(size=(*buf.shape[:-1], n, n_out))
                # forward through the transposed view, input gradient, weight gradient
                assert (h @ w.swapaxes(-1, -2)).tobytes() == per_slice(h, w.swapaxes(-1, -2)).tobytes()
                assert (dy @ w).tobytes() == per_slice(dy, w).tobytes()
                assert (dy.swapaxes(-1, -2) @ h).tobytes() == per_slice(dy.swapaxes(-1, -2), h).tobytes()

    @pytest.mark.parametrize("n", SIZES)
    def test_map_products_on_the_domain_axis(self, n):
        rng = make_rng(37, n)
        k, d = 3, 8
        ui = rng.normal(size=(2, k, n, 2 * d))  # user and item embeddings side by side
        u = ui[..., :d]
        x = rng.normal(size=(k, d, d))
        x_t = x.swapaxes(-1, -2)
        d_mapped = rng.normal(size=(2, k, n, 2 * d))[..., :d]
        for m in range(k):
            alone_a, alone_b = np.ascontiguousarray(u[0, m]), np.ascontiguousarray(u[1, m])
            # a pass of one domain reads the transposed view, as one model alone does
            assert (u[:1] @ x_t[None])[0, m].tobytes() == (alone_a @ x[m].T).tobytes()
            assert (u[1:] @ x[None])[0, m].tobytes() == (alone_b @ x[m]).tobytes()
            # dX = d_mapped^T u (domain a) is the transpose of u^T d_mapped
            grad_m = u.swapaxes(-1, -2) @ d_mapped
            want_a = np.ascontiguousarray(d_mapped[0, m]).T @ alone_a
            assert grad_m[0, m].T.tobytes() == want_a.tobytes()
            assert grad_m[1, m].tobytes() == (alone_b.T @ np.ascontiguousarray(d_mapped[1, m])).tobytes()
            if n > 1:  # both domains in one product: a copied transpose for domain a
                both = u @ np.stack((x_t, x))
                assert both[0, m].tobytes() == (alone_a @ x[m].T).tobytes()
                assert both[1, m].tobytes() == (alone_b @ x[m]).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 20])
    def test_nmf_products_on_the_problem_and_factorization_axes(self, k):
        # run_nmf_many steps the a and b factorizations of K problems as one
        # stack: targets (K, 2, 20, 15), factors (K, 2, 20, 4) and (K, 2, 4, 15).
        # A settled problem leaves the stack through a fancy-index take, and
        # every problem left must keep the bits of its lone 2-D products, also
        # where a product is written into the workspace buffers' prefix slices.
        rng = make_rng(47, k)
        m = rng.uniform(size=(k, 2, 20, 15))
        w = rng.uniform(size=(k, 2, 20, 4))
        h = rng.uniform(size=(k, 2, 4, 15))
        for keep in (list(range(k)), [j for j in range(k) if j % 3 != 1], [k - 1]):
            mk, wk, hk = m[keep], w[keep], h[keep]
            wt, ht = wk.swapaxes(-1, -2), hk.swapaxes(-1, -2)
            products = (wk @ hk, wt @ mk, mk @ ht, wt @ wk @ hk, wk @ hk @ ht)
            # the in-place kernel writes each product into a prefix slice of a (K, 2, ...) buffer
            buf = lambda *shape: np.empty((k, 2, *shape))[:len(keep)]
            wh, hnum, wnum, gram, hden, wden = buf(20, 15), buf(4, 15), buf(20, 4), buf(4, 4), buf(4, 15), buf(20, 4)
            written = (np.matmul(wk, hk, out=wh), np.matmul(wt, mk, out=hnum), np.matmul(mk, ht, out=wnum),
                       np.matmul(np.matmul(wt, wk, out=gram), hk, out=hden), np.matmul(wh, ht, out=wden))
            for j, problem in enumerate(keep):
                for f in range(2):
                    m2, w2, h2 = (np.ascontiguousarray(a[problem, f]) for a in (m, w, h))
                    alone = (w2 @ h2, w2.T @ m2, m2 @ h2.T, w2.T @ w2 @ h2, w2 @ h2 @ h2.T)
                    for stacked, put, want in zip(products, written, alone):
                        assert stacked[j, f].tobytes() == want.tobytes()
                        assert put[j, f].tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [5, 20, 33])
    def test_the_encoder_pair_of_one_record(self, width):
        # A prediction embeds its user and item by one product of their encoders stacked
        # as views of one (2, P) buffer, where each encoder alone ran a (1, width) product.
        rng = make_rng(59, width)
        layout = ((width, 8, "sigmoid"),)
        (enc, _, _), = layer_views(rng.normal(size=(2, 9 * width)), layout)
        x = rng.normal(size=(2, 1, width))
        both = x @ enc.swapaxes(-1, -2)
        for e in range(2):
            assert both[e].tobytes() == (x[e] @ np.ascontiguousarray(enc[e]).T).tobytes()

    @pytest.mark.parametrize("n", [1, 4, 8, 32, 500])
    def test_autoencoder_layers(self, n):
        # The autoencoder stack of a domain pair holds four networks. A step runs
        # all four, or the parts [0:2] and [2:4] once the shorter corpora run out:
        # views of one flat buffer, on batches that are stretches of one buffer
        # of shuffled rows, each viewed as (networks, n, 20).
        rng = make_rng(41, n)
        layout = ((20, 8, "sigmoid"), (8, 20, "identity"))
        params = rng.normal(size=(4, sum(n_out * (n_in + 1) for n_in, n_out, _ in layout)))
        rows = rng.normal(size=(4 * n + 5, 20))
        for s in (slice(0, 4), slice(0, 2), slice(2, 4)):
            (enc, _, _), (dec, _, _) = layer_views(params[s], layout)
            x = rows[3 : 3 + (s.stop - s.start) * n].reshape(-1, n, 20)
            emb = x @ enc.swapaxes(-1, -2)
            rec = emb @ dec.swapaxes(-1, -2)
            dy = rng.normal(size=rec.shape)
            assert emb.tobytes() == per_slice(x, enc.swapaxes(-1, -2)).tobytes()
            assert rec.tobytes() == per_slice(emb, dec.swapaxes(-1, -2)).tobytes()
            assert (dy @ dec).tobytes() == per_slice(dy, dec).tobytes()
            assert (dy.swapaxes(-1, -2) @ emb).tobytes() == per_slice(dy.swapaxes(-1, -2), emb).tobytes()
            d_emb = rng.normal(size=emb.shape)
            assert (d_emb.swapaxes(-1, -2) @ x).tobytes() == per_slice(d_emb.swapaxes(-1, -2), x).tobytes()
            for m in range(s.stop - s.start):  # the lone network's 2-D call on its own corpus
                alone = np.ascontiguousarray(x[m])
                assert emb[m].tobytes() == (alone @ np.ascontiguousarray(enc[m]).T).tobytes()
