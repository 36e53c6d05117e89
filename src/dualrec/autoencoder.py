"""Per-(domain, entity-type) feature autoencoders.

Each autoencoder is a one-layer sigmoid encoder plus a one-layer identity
decoder, trained by mini-batch gradient descent on mean squared
reconstruction error over one entity corpus. A domain pair uses four of
them (user/item times two domains), trained separately so no information
crosses corpora. Once trained they are frozen: downstream training treats
embeddings as fixed inputs and never updates encoder weights.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from dualrec.numeric import DenseLayer, check_finite_step, dense_layer, layer_backward, layer_forward, make_rng

_L_AE_INIT = 0xAE01
_L_AE_SHUFFLE = 0xAE02

_DUMP_VERSION = "dualrec-ae-1"


@dataclass
class Autoencoder:
    encoder: DenseLayer  # (embed_dim x input_dim), sigmoid
    decoder: DenseLayer  # (input_dim x embed_dim), identity
    embed_dim: int
    domain: str
    entity: str
    trained: bool = False

    def __post_init__(self):
        if self.encoder.n_out != self.embed_dim or self.decoder.n_in != self.embed_dim:
            raise ValueError("encoder output and decoder input must both equal embed_dim")
        if self.encoder.n_in != self.decoder.n_out:
            raise ValueError("decoder must reconstruct the encoder's input dimension")

    @property
    def input_dim(self) -> int:
        return self.encoder.n_in


def new_autoencoder(input_dim: int, embed_dim: int, seed: int, domain: str = "", entity: str = "user") -> Autoencoder:
    if embed_dim > input_dim:
        raise ValueError(f"embed_dim {embed_dim} exceeds input dim {input_dim}; no bottleneck")
    if embed_dim < 1:
        raise ValueError("embed_dim must be >= 1")
    rng = make_rng(seed, _L_AE_INIT, _stream_tag(domain, entity))
    return Autoencoder(
        encoder=dense_layer(rng, input_dim, embed_dim, "sigmoid"),
        decoder=dense_layer(rng, embed_dim, input_dim, "identity"),
        embed_dim=embed_dim,
        domain=domain,
        entity=entity,
    )


def _stream_tag(domain: str, entity: str) -> int:
    # keyed by entity only: the paired domains' user (and item) encoders start
    # from identical weights, so on matched corpora they learn mutually
    # readable embedding spaces -- the cross-domain term depends on that
    del domain
    return zlib.crc32(entity.encode("utf-8"))


def _forward(ae: Autoencoder, xb: np.ndarray):
    emb, enc_cache = layer_forward(ae.encoder, xb)
    rec, dec_cache = layer_forward(ae.decoder, emb)
    return rec, (enc_cache, dec_cache)


def reconstruction_loss(ae: Autoencoder, vectors: np.ndarray) -> float:
    """Mean over vectors of the squared L2 reconstruction error."""
    xb = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    rec, _ = _forward(ae, xb)
    return float(np.mean(np.sum((xb - rec) ** 2, axis=1)))


def loss_and_grads(ae: Autoencoder, xb: np.ndarray):
    """Reconstruction loss on a (n, input_dim) batch plus gradients for all four parameter arrays.

    Returns (loss, (dW_enc, db_enc, dW_dec, db_dec)). Raises FloatingPointError
    when the loss or any gradient is not finite.
    """
    rec, (enc_cache, dec_cache) = _forward(ae, xb)
    diff = rec - xb
    loss = float(np.mean(np.sum(diff**2, axis=1)))
    dy = 2.0 * diff / xb.shape[0]
    d_emb, dw_dec, db_dec = layer_backward(ae.decoder, dec_cache, dy)
    _, dw_enc, db_enc = layer_backward(ae.encoder, enc_cache, d_emb, need_dx=False)
    grads = (dw_enc, db_enc, dw_dec, db_dec)
    check_finite_step(loss, grads)
    return loss, grads


def train_autoencoder(
    vectors,
    embed_dim: int = 8,
    lr: float = 0.01,
    epochs: int = 200,
    batch_size: int = 32,
    seed: int = 0,
    domain: str = "",
    entity: str = "user",
) -> tuple[Autoencoder, list[float]]:
    """Train one autoencoder on an entity corpus.

    Returns the trained (frozen) autoencoder and a per-epoch trace of the
    full-corpus reconstruction loss evaluated after each epoch.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("corpus must be a non-empty list of equal-length vectors")
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    ae = new_autoencoder(x.shape[1], embed_dim, seed, domain, entity)
    params = (ae.encoder.weights, ae.encoder.bias, ae.decoder.weights, ae.decoder.bias)
    n = x.shape[0]
    trace: list[float] = []
    for epoch in range(epochs):
        shuffle = make_rng(seed, _L_AE_SHUFFLE, _stream_tag(domain, entity), epoch)
        shuffled = x[shuffle.permutation(n)]
        for start in range(0, n, batch_size):
            _, grads = loss_and_grads(ae, shuffled[start : start + batch_size])
            for p, g in zip(params, grads):
                p -= lr * g
        trace.append(reconstruction_loss(ae, x))
    ae.trained = True
    return ae, trace


def ae_encode(ae: Autoencoder, v: np.ndarray) -> np.ndarray:
    """Deterministic encoder forward pass; accepts one vector or a batch of rows."""
    if not ae.trained:
        raise RuntimeError("autoencoder is untrained; train it before encoding")
    out, _ = layer_forward(ae.encoder, np.asarray(v, dtype=np.float64))
    return out


def ae_decode(ae: Autoencoder, e: np.ndarray) -> np.ndarray:
    out, _ = layer_forward(ae.decoder, np.asarray(e, dtype=np.float64))
    return out


# ---------------------------------------------------------------------------
# persistence


def autoencoder_arrays(ae: Autoencoder, prefix: str = "") -> dict:
    """Flat array dict for one autoencoder, suitable for np.savez."""
    return {
        f"{prefix}enc_w": ae.encoder.weights,
        f"{prefix}enc_b": ae.encoder.bias,
        f"{prefix}dec_w": ae.decoder.weights,
        f"{prefix}dec_b": ae.decoder.bias,
        f"{prefix}meta": np.array([ae.domain, ae.entity], dtype=np.str_),
    }


def autoencoder_from_arrays(data, prefix: str = "") -> Autoencoder:
    meta = data[f"{prefix}meta"]
    enc = DenseLayer(np.array(data[f"{prefix}enc_w"]), np.array(data[f"{prefix}enc_b"]), "sigmoid")
    dec = DenseLayer(np.array(data[f"{prefix}dec_w"]), np.array(data[f"{prefix}dec_b"]), "identity")
    return Autoencoder(enc, dec, enc.n_out, str(meta[0]), str(meta[1]), trained=True)


def save_autoencoder(ae: Autoencoder, path) -> None:
    np.savez(path, version=np.array(_DUMP_VERSION), **autoencoder_arrays(ae))


def load_autoencoder(path) -> Autoencoder:
    with np.load(path, allow_pickle=False) as data:
        if str(data["version"]) != _DUMP_VERSION:
            raise ValueError(f"unsupported dump version {data['version']!r}")
        return autoencoder_from_arrays(data)
