"""Feature-embedding autoencoder tests.

Gradient correctness rides on the numeric kernel tests; here the focus is
training behavior and the encode/decode contracts; the arrays a model
bundle holds are checked through the dualrec-dual-1 bundle tests.
"""

import numpy as np
import pytest

from dualrec.autoencoder import (
    ae_decode,
    ae_encode,
    loss_and_grads,
    new_autoencoder,
    stack_autoencoders,
    train_autoencoder,
)
from dualrec.numeric import FlatStack, grad_check, make_rng, sigmoid


def fixture_corpus(n=50, dim=20, seed=21):
    # feature-vector-like corpus: values in [0, 1]
    return make_rng(seed).random(size=(n, dim))


class TestTraining:
    def test_single_vector_is_memorized(self):
        v = make_rng(1).random(size=(1, 10))
        ae, trace = train_autoencoder(v, embed_dim=4, lr=0.1, epochs=2000, batch_size=1, seed=0)
        assert trace[-1] < 1e-3

    def test_loss_trend_is_monotone_modulo_minibatch_jitter(self):
        x = fixture_corpus()
        _, trace = train_autoencoder(x, embed_dim=8, lr=0.05, epochs=100, batch_size=32, seed=0)
        upticks = sum(1 for a, b in zip(trace, trace[1:]) if b > a + 1e-6)
        assert upticks <= 0.05 * len(trace)
        assert trace[-1] < trace[0]

    def test_embed_dim_default_is_eight(self):
        ae, _ = train_autoencoder(fixture_corpus(), epochs=1)
        assert ae.embed_dim == 8
        assert ae.encoder.n_out == 8

    def test_fixed_seed_reproduces_weights(self):
        x = fixture_corpus()
        a1, t1 = train_autoencoder(x, embed_dim=6, epochs=5, seed=3)
        a2, t2 = train_autoencoder(x, embed_dim=6, epochs=5, seed=3)
        np.testing.assert_array_equal(a1.encoder.weights, a2.encoder.weights)
        assert t1 == t2

    def test_embedding_wider_than_input_rejected(self):
        with pytest.raises(ValueError):
            new_autoencoder(input_dim=4, embed_dim=5, seed=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_autoencoder(np.zeros((0, 4)))

    def test_analytic_gradients_match_finite_differences(self):
        # two autoencoders of one stack: the total of their losses, so each
        # one's gradient must come from its own slice alone
        xb = np.stack([fixture_corpus(n=6, dim=5, seed=9), fixture_corpus(n=6, dim=5, seed=10)])
        stack = stack_autoencoders([new_autoencoder(5, 3, seed=4), new_autoencoder(5, 3, seed=5)])

        def wrapped(params):
            loss, grads = loss_and_grads(FlatStack(params[0], stack.layout), xb)
            return float(loss.sum()), [grads]

        assert grad_check(wrapped, [stack.params]) <= 1e-4


@pytest.fixture(scope="module")
def trained():
    x = fixture_corpus()
    ae, trace = train_autoencoder(x, embed_dim=8, lr=0.05, epochs=300, batch_size=32, seed=0)
    return ae, x, trace[-1]


class TestEncodeDecode:

    def test_untrained_encode_refused(self):
        ae = new_autoencoder(10, 4, seed=0)
        with pytest.raises(RuntimeError):
            ae_encode(ae, np.zeros(10))

    def test_round_trip_error_consistent_with_training_loss(self, trained):
        ae, x, final_loss = trained
        rec = ae_decode(ae, ae_encode(ae, x))
        err = float(np.mean(np.sum((x - rec) ** 2, axis=1)))
        assert err <= final_loss + 1e-6

    def test_round_trip_reconstructs_corpus(self, trained):
        ae, x, final_loss = trained
        rec = ae_decode(ae, ae_encode(ae, x))
        assert float(np.mean(np.abs(x - rec))) < np.sqrt(final_loss)

    def test_encode_is_deterministic(self, trained):
        ae, x, _ = trained
        np.testing.assert_array_equal(ae_encode(ae, x[0]), ae_encode(ae, x[0]))

    def test_zero_input_encodes_to_sigmoid_of_bias(self, trained):
        ae, x, _ = trained
        got = ae_encode(ae, np.zeros(x.shape[1]))
        np.testing.assert_allclose(got, sigmoid(ae.encoder.bias), atol=1e-12)

    def test_zero_embedding_decodes_to_decoder_bias(self, trained):
        ae, _, _ = trained
        np.testing.assert_allclose(ae_decode(ae, np.zeros(8)), ae.decoder.bias, atol=1e-12)

    def test_random_embedding_decodes_finite_with_input_shape(self, trained):
        ae, x, _ = trained
        out = ae_decode(ae, make_rng(2).normal(size=8))
        assert out.shape == (x.shape[1],)
        assert np.all(np.isfinite(out))

    def test_embedding_values_bounded_by_sigmoid(self, trained):
        ae, x, _ = trained
        emb = ae_encode(ae, x)
        assert np.all(emb > 0.0) and np.all(emb < 1.0)
