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
    reconstruction_loss,
    stack_autoencoders,
    train_autoencoder,
    train_autoencoders,
)
from dualrec.numeric import FlatStack, make_rng, sigmoid
from gradcheck import grad_check
from single_domain import layer_forward


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"epochs": -1}, "epochs=-1 below 1"),  # once returned autoencoders flagged trained after 0 epochs
        ({"epochs": 0}, "epochs=0 below 1"),
        ({"batch_size": 0}, "batch_size=0 below 1"),  # once "range() arg 3 must not be zero"
    ])
    def test_a_training_budget_below_one_is_refused(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            train_autoencoders([fixture_corpus(n=6, dim=4)], [("a", "user")], embed_dim=2, **kwargs)
        assert str(exc.value) == message

    def test_an_embedding_size_that_is_no_integer_is_refused(self):
        # once a bare numpy TypeError
        with pytest.raises(ValueError, match=r"^embed_dim=2\.5 is not an integer$"):
            new_autoencoder(10, 2.5, 0)

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

    @pytest.mark.parametrize("rows", [None, 1, 7])
    def test_encode_and_decode_give_the_bits_of_the_per_layer_oracle(self, trained, rows):
        # one row (width,) runs as a (1, width) batch and comes back 1-D
        ae, x, _ = trained
        v = x[0] if rows is None else x[:rows]
        emb = ae_encode(ae, v)
        assert emb.shape == (*v.shape[:-1], 8)
        assert emb.tobytes() == layer_forward(ae.encoder, v)[0].tobytes()
        rec = ae_decode(ae, emb)
        assert rec.shape == v.shape
        assert rec.tobytes() == layer_forward(ae.decoder, emb)[0].tobytes()


class TestWidthMismatch:
    """Each entry point names the autoencoder, the part and both widths."""

    @pytest.fixture()
    def ae(self):
        ae = new_autoencoder(20, 8, seed=0, domain="a", entity="user")
        ae.trained = True
        return ae

    @pytest.mark.parametrize("x", [np.zeros(19), np.zeros((3, 19))])
    def test_encode(self, ae, x):
        with pytest.raises(ValueError, match=r"^the user autoencoder of domain a takes 20 columns, got 19$"):
            ae_encode(ae, x)

    @pytest.mark.parametrize("e", [np.zeros(7), np.zeros((3, 9))])
    def test_decode(self, ae, e):
        with pytest.raises(ValueError, match=rf"^the user autoencoder of domain a's decoder takes 8 columns, "
                                             rf"got {e.shape[-1]}$"):
            ae_decode(ae, e)

    def test_reconstruction_loss(self, ae):
        with pytest.raises(ValueError, match=r"^the user autoencoder of domain a takes 20 columns, got 19$"):
            reconstruction_loss(ae, np.zeros((3, 19)))

    def test_an_autoencoder_without_a_domain_names_its_entity(self):
        ae = new_autoencoder(20, 8, seed=0, entity="item")
        with pytest.raises(ValueError, match=r"^the item autoencoder takes 20 columns, got 21$"):
            reconstruction_loss(ae, np.zeros((2, 21)))
        with pytest.raises(ValueError, match=r"^the item autoencoder's decoder takes 8 columns, got a scalar$"):
            ae_decode(ae, 0.0)
