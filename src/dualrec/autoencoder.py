"""Per-(domain, entity-type) feature autoencoders.

Each autoencoder is a one-layer sigmoid encoder plus a one-layer identity
decoder, trained by mini-batch gradient descent on mean squared
reconstruction error over one entity corpus. A domain pair uses four of
them (user/item times two domains). Autoencoders whose corpora have the same
shape (the user autoencoders of both domains, and the item autoencoders)
train in lockstep as one stacked program (`train_autoencoders`): their
parameters sit in one flat (K, P) buffer (`stack_autoencoders`), and every
step is one forward pass, one backward pass that writes into one gradient
buffer, one finite check and one SGD update for all of them. Each keeps its
own init, shuffle stream and trace, and its loss and gradients come from its
own corpus alone, so no information crosses corpora: each ends bit for bit
as it would trained alone. `train_autoencoder` is the kernel for one corpus.
Once trained they are frozen: downstream training treats embeddings as
fixed inputs and never updates encoder weights.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from dualrec.numeric import (
    DenseLayer, FlatStack, check_finite_step, dense_layer, flat_params, layer_forward, make_rng, stack_backward,
    stack_forward,
)

_L_AE_INIT = 0xAE01
_L_AE_SHUFFLE = 0xAE02


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


def reconstruction_loss(ae: Autoencoder, vectors: np.ndarray) -> float:
    """Mean over vectors of the squared L2 reconstruction error."""
    xb = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    emb, _ = layer_forward(ae.encoder, xb)
    rec, _ = layer_forward(ae.decoder, emb)
    return float(np.mean(np.sum((xb - rec) ** 2, axis=1)))


def stack_autoencoders(aes: list[Autoencoder]) -> FlatStack:
    """Copies of K autoencoders' parameters in one flat buffer, for `loss_and_grads`."""
    return FlatStack(*flat_params([(ae.encoder, ae.decoder) for ae in aes]))


def loss_and_grads(stack: FlatStack, xb: np.ndarray, names=None):
    """Reconstruction loss of K stacked autoencoders (`stack_autoencoders`) on
    their batches xb (K, n, input_dim), and the gradient of every parameter.

    Returns (loss (K,), stack.grads), the gradients written into the stack's
    own buffer, which the next call overwrites. Raises FloatingPointError when
    a loss or gradient is not finite, naming the autoencoder (names, one per
    slice) and ae_lr.
    """
    rec, caches = stack_forward(stack.layers, xb)
    diff = rec - xb
    n = xb.shape[-2]
    loss = (diff * diff).sum(axis=-1).sum(axis=-1) / n
    stack_backward(stack.layers, caches, 2.0 * diff / n, stack.grad_layers, need_dx=False)
    check_finite_step(loss, [stack.grads[:, None]], "lower ae_lr", names)
    return loss, stack.grads


def train_autoencoders(
    corpora,
    tags,
    embed_dim: int = 8,
    lr: float = 0.01,
    epochs: int = 200,
    batch_size: int = 32,
    seed: int = 0,
) -> list[tuple[Autoencoder, list[float]]]:
    """Train one autoencoder per corpus; tags gives each one's (domain, entity).

    Autoencoders whose corpora have the same shape train in lockstep as one
    stack, the others alone; each ends bit for bit as it would alone.
    Returns each corpus's (trained autoencoder, per-epoch trace of the
    full-corpus reconstruction loss evaluated after each epoch), in order.
    """
    xs = [np.asarray(c, dtype=np.float64) for c in corpora]
    for x in xs:
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("corpus must be a non-empty list of equal-length vectors")
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    out = [None] * len(xs)
    for shape in dict.fromkeys(x.shape for x in xs):
        group = [j for j, x in enumerate(xs) if x.shape == shape]
        trained = _train_stack(np.stack([xs[j] for j in group]), [tags[j] for j in group],
                               embed_dim, lr, epochs, batch_size, seed)
        for j, result in zip(group, trained):
            out[j] = result
    return out


def _train_stack(x, tags, embed_dim, lr, epochs, batch_size, seed):
    """The lockstep kernel: K autoencoders on corpora x (K, n, input_dim)."""
    aes = [new_autoencoder(x.shape[2], embed_dim, seed, domain, entity) for domain, entity in tags]
    stack = stack_autoencoders(aes)
    names = [f"the {entity} autoencoder" + (f" of domain {domain}" if domain else "") for domain, entity in tags]
    stream_tags = [_stream_tag(domain, entity) for domain, entity in tags]
    n = x.shape[1]
    traces: list[list[float]] = [[] for _ in aes]
    for epoch in range(epochs):
        order = np.stack([make_rng(seed, _L_AE_SHUFFLE, tag, epoch).permutation(n) for tag in stream_tags])
        shuffled = np.take_along_axis(x, order[..., None], axis=1)
        for start in range(0, n, batch_size):
            _, grads = loss_and_grads(stack, shuffled[:, start : start + batch_size], names)
            stack.params -= lr * grads
        rec, _ = stack_forward(stack.layers, x)
        for trace, loss in zip(traces, np.mean(np.sum((x - rec) ** 2, axis=-1), axis=-1)):
            trace.append(float(loss))
    for k, ae in enumerate(aes):
        for layer, (w, b, _) in zip((ae.encoder, ae.decoder), stack.layers):
            layer.weights, layer.bias = w[k].copy(), b[k, 0].copy()
        ae.trained = True
    return list(zip(aes, traces))


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
    """Train one autoencoder on an entity corpus (`train_autoencoders` for one corpus).

    Returns the trained (frozen) autoencoder and a per-epoch trace of the
    full-corpus reconstruction loss evaluated after each epoch.
    """
    return train_autoencoders([vectors], [(domain, entity)], embed_dim, lr, epochs, batch_size, seed)[0]


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
