"""Per-(domain, entity-type) feature autoencoders.

Each autoencoder is a one-layer sigmoid encoder plus a one-layer identity
decoder, trained by mini-batch gradient descent on mean squared
reconstruction error over one entity corpus. A domain pair uses four of
them (user/item times two domains). Autoencoders whose corpora have one
column count (all four of a pair) train in lockstep as one stacked program
(`train_autoencoders`), whatever their row counts: their parameters sit in
one flat (K, P) buffer (`stack_autoencoders`), longest corpus first. A step
runs the whole stack while every corpus has rows left, and then one view of
it (`FlatStack.part`) per run of equal batch sizes (`lockstep_steps`); each is
one forward pass, one backward pass that writes into one gradient buffer,
one finite check and one SGD update. Each autoencoder keeps its own init,
shuffle stream and trace, and every product reads its own corpus's rows
alone, so no information crosses corpora: each ends bit for bit as it would
trained alone. Corpora with one stream tag and row count share each epoch's
shuffle draw. While they train, each autoencoder's layers are views of its
slice of the stack, so its full-corpus loss is `reconstruction_loss`: the
pre-training loss, and the per-epoch trace, computed only for callers that
read it. An epoch whose mean step loss exceeds twice the pre-training
reconstruction loss stops training with an error that names the autoencoder
and ae_lr. Training ends by giving each autoencoder copies of its arrays.
`train_autoencoder` is the kernel for one corpus. Once trained they are
frozen: downstream training treats embeddings as fixed inputs and never
updates encoder weights.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from dualrec.numeric import (
    DenseLayer, FlatStack, check_finite_step, dense_layer, flat_params, layer_forward, lockstep_steps, make_rng,
    stack_backward, stack_forward,
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
    """K autoencoders' parameters in one flat buffer, for `loss_and_grads`; each
    autoencoder's layers become views of its slice (`flat_params`)."""
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
    *,
    trace: bool = True,
) -> list[tuple[Autoencoder, list[float]]]:
    """Train one autoencoder per corpus; tags gives each one's (domain, entity).

    Autoencoders whose corpora have one column count train in lockstep as one
    stack, whatever their row counts; each ends bit for bit as it would alone.
    Returns each corpus's (trained autoencoder, per-epoch trace of the
    full-corpus reconstruction loss evaluated after each epoch), in order;
    trace=False skips those full-corpus passes and returns empty traces.
    Raises FloatingPointError naming the autoencoder when a step is not
    finite, or when its mean step loss over an epoch exceeds twice its
    pre-training reconstruction loss (its ae_lr is too high).
    """
    xs = [np.asarray(c, dtype=np.float64) for c in corpora]
    for x in xs:
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("corpus must be a non-empty list of equal-length vectors")
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    out = [None] * len(xs)
    for width in dict.fromkeys(x.shape[1] for x in xs):
        # longest corpus first (a stable sort), so the corpora with rows left always lead the stack
        group = sorted((j for j, x in enumerate(xs) if x.shape[1] == width), key=lambda j: -len(xs[j]))
        trained = _train_stack([xs[j] for j in group], [tags[j] for j in group],
                               embed_dim, lr, epochs, batch_size, seed, trace)
        for j, result in zip(group, trained):
            out[j] = result
    return out


def _train_stack(xs, tags, embed_dim, lr, epochs, batch_size, seed, trace):
    """The lockstep kernel: K autoencoders on corpora xs of one width, longest first."""
    aes = [new_autoencoder(xs[0].shape[1], embed_dim, seed, domain, entity) for domain, entity in tags]
    stack = stack_autoencoders(aes)  # while training, each autoencoder's layers are views of its slice
    names = [f"the {entity} autoencoder" + (f" of domain {domain}" if domain else "") for domain, entity in tags]
    counts = [len(x) for x in xs]
    keys = [(_stream_tag(domain, entity), n) for (domain, entity), n in zip(tags, counts)]
    flat = np.concatenate(xs)  # corpus k's rows start at row firsts[k]
    firsts = np.cumsum([0, *counts[:-1]]).tolist()
    # Each epoch's shuffled rows are gathered by one take into one buffer of flat's shape,
    # laid out step by step: a step's parts, one per run of corpora with equal batch sizes n,
    # read next stretches of it as (K, n, width) views. Entry r of layout is the position,
    # among the corpora's shuffled rows laid end to end, of the row the buffer holds at r.
    shuffled = np.empty_like(flat)
    steps, layout = [], []
    for start, runs in lockstep_steps(counts, batch_size):
        parts = []
        for s, n in runs:
            xb = shuffled[len(layout) : len(layout) + (s.stop - s.start) * n].reshape(-1, n, flat.shape[1])
            parts.append((stack.part(s), s, xb, names[s]))
            layout.extend(firsts[k] + start + r for k in range(s.start, s.stop) for r in range(n))
        steps.append(parts)
    layout = np.array(layout)
    before = np.array([reconstruction_loss(ae, x) for ae, x in zip(aes, xs)])
    traces: list[list[float]] = [[] for _ in aes]
    for epoch in range(epochs):
        perms = {key: make_rng(seed, _L_AE_SHUFFLE, key[0], epoch).permutation(key[1]) for key in dict.fromkeys(keys)}
        order = np.concatenate([first + perms[key] for first, key in zip(firsts, keys)])
        np.take(flat, order[layout], axis=0, out=shuffled)
        step_losses = np.zeros(len(xs))
        for parts in steps:
            for part, s, xb, part_names in parts:
                loss, grads = loss_and_grads(part, xb, part_names)
                part.params -= lr * grads
                step_losses[s] += xb.shape[1] * loss
        mean = step_losses / counts
        over = np.flatnonzero(mean > 2.0 * before)
        if over.size:
            k = over[0]
            raise FloatingPointError(f"{names[k]}: mean step loss {mean[k]:.6g} in epoch {epoch + 1} exceeds twice "
                                     f"its pre-training reconstruction loss {before[k]:.6g}; lower ae_lr")
        if trace:
            for losses, ae, x in zip(traces, aes, xs):
                losses.append(reconstruction_loss(ae, x))
    for ae in aes:
        ae.encoder, ae.decoder, ae.trained = ae.encoder.copy(), ae.decoder.copy(), True
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
    if meta.shape != (2,):
        raise ValueError(f"key {prefix}meta holds shape {meta.shape}, expected (2,): (domain, entity)")
    enc = DenseLayer(np.array(data[f"{prefix}enc_w"]), np.array(data[f"{prefix}enc_b"]), "sigmoid")
    dec = DenseLayer(np.array(data[f"{prefix}dec_w"]), np.array(data[f"{prefix}dec_b"]), "identity")
    return Autoencoder(enc, dec, enc.n_out, str(meta[0]), str(meta[1]), trained=True)
