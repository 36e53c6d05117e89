"""Per-(domain, entity-type) feature autoencoders.

Each autoencoder is a one-layer sigmoid encoder plus a one-layer identity
decoder, trained by mini-batch gradient descent on mean squared
reconstruction error over one entity corpus. A domain pair uses four of them
(user/item times two domains). Autoencoders whose corpora have one column
count (all four of a pair) train in lockstep as one stacked program
(`train_autoencoders`), whatever their row counts: their parameters sit in
one flat (K, P) buffer (`stack_autoencoders`), longest corpus first. A step
runs the whole stack while every corpus has rows left, and then one view of
it (`FlatStack.part`) per run of equal batch sizes (`lockstep_steps`); each
takes its rows with one take, as `dualmodel.fit_models` does, and is one
forward pass, one backward pass that writes into one gradient buffer, one
finite check and one SGD update. Each autoencoder keeps its own init, shuffle
stream and trace, and every product reads its own corpus's rows alone, so no
information crosses corpora: each ends bit for bit as it would trained alone.
Corpora with one stream tag and row count share each epoch's shuffle draw.
While they train, each autoencoder's layers are views of its slice of the
stack, so its full-corpus loss is `reconstruction_loss`: the pre-training
loss, and the per-epoch trace, computed only for callers that read it. An
epoch whose mean step loss exceeds twice the pre-training reconstruction loss
stops training with an error that names the autoencoder and ae_lr. Training
ends by giving each autoencoder copies of its arrays. `train_autoencoder` is
the kernel for one corpus. Once trained they are frozen: downstream training
treats embeddings as fixed inputs and never updates encoder weights.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from dualrec.numeric import (
    DenseLayer, FlatStack, check_bound, check_finite_step, dense_layer, dense_stack, flat_params, lockstep_steps,
    make_rng, stack_backward, stack_forward,
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

    @property
    def name(self) -> str:  # as errors name it
        return f"the {self.entity} autoencoder" + (f" of domain {self.domain}" if self.domain else "")


def new_autoencoder(input_dim: int, embed_dim: int, seed: int, domain: str = "", entity: str = "user") -> Autoencoder:
    check_bound("embed_dim", embed_dim, "[1, inf)", integer=True)
    if embed_dim > input_dim:
        raise ValueError(f"embed_dim {embed_dim} exceeds input dim {input_dim}; no bottleneck")
    rng = make_rng(seed, _L_AE_INIT, _stream_tag(entity))
    return Autoencoder(
        encoder=dense_layer(rng, input_dim, embed_dim, "sigmoid"),
        decoder=dense_layer(rng, embed_dim, input_dim, "identity"),
        embed_dim=embed_dim,
        domain=domain,
        entity=entity,
    )


def _stream_tag(entity: str) -> int:
    # keyed by entity only: the paired domains' user (and item) encoders start
    # from identical weights, so on matched corpora they learn mutually
    # readable embedding spaces -- the cross-domain term depends on that
    return zlib.crc32(entity.encode("utf-8"))


def reconstruction_loss(ae: Autoencoder, vectors: np.ndarray) -> float:
    """Mean over vectors of the squared L2 reconstruction error."""
    xb = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    rec = _forward(ae, (ae.encoder, ae.decoder), xb, "")
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
    check_bound("lr", lr, "[0, inf)")
    check_bound("epochs", epochs, "[1, inf)", integer=True)
    check_bound("batch_size", batch_size, "[1, inf)", integer=True)
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
    names = [ae.name for ae in aes]
    counts = [len(x) for x in xs]
    keys = [(_stream_tag(entity), n) for (_, entity), n in zip(tags, counts)]
    flat = np.concatenate(xs)  # corpus k's rows start at row firsts[k]
    firsts = np.cumsum([0, *counts[:-1]]).tolist()
    steps = [(start, [(stack.part(s), s, n, names[s]) for s, n in runs])
             for start, runs in lockstep_steps(counts, batch_size)]
    order = np.zeros((len(xs), counts[0]), dtype=np.intp)  # order[k]: corpus k's shuffled rows, as rows of flat
    before = np.array([reconstruction_loss(ae, x) for ae, x in zip(aes, xs)])
    traces: list[list[float]] = [[] for _ in aes]
    for epoch in range(epochs):
        perms = {key: make_rng(seed, _L_AE_SHUFFLE, key[0], epoch).permutation(key[1]) for key in dict.fromkeys(keys)}
        for k, (first, key) in enumerate(zip(firsts, keys)):
            order[k, : key[1]] = first + perms[key]
        step_losses = np.zeros(len(xs))
        for start, parts in steps:
            for part, s, n, part_names in parts:
                loss, grads = loss_and_grads(part, flat.take(order[s, start : start + n], axis=0), part_names)
                part.params -= lr * grads
                step_losses[s] += n * loss
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
    return _forward(ae, (ae.encoder,), v, "")


def ae_decode(ae: Autoencoder, e: np.ndarray) -> np.ndarray:
    """Decoder forward pass; accepts one embedding or a batch of rows."""
    return _forward(ae, (ae.decoder,), e, "'s decoder")


def _forward(ae: Autoencoder, layers, x, part: str) -> np.ndarray:
    """The layers of ae as one `stack_forward` on rows x (n, width), or on one row (width,) run as a
    (1, width) batch, since a 1-row product's bits follow its layout, and returned 1-D. A width the
    first layer does not take raises ValueError naming ae and part."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != layers[0].weights.shape[1:]:
        raise ValueError(f"{ae.name}{part} takes {layers[0].n_in} columns, got {x.shape[-1] if x.ndim else 'a scalar'}")
    y, _ = stack_forward(dense_stack(layers), x if x.ndim > 1 else x[None])
    return y if x.ndim > 1 else y[0]


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
