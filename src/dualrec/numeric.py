"""Dense linear-algebra and differentiable-layer kernel.

Matrices are plain 2-D float64 numpy arrays (row-major); vectors are 1-D
float64 arrays.  Everything downstream (autoencoders, rating scorers, the
orthogonal mapping, the NMF lab) builds on the handful of operations here:
one stacked dense-layer kernel with exact analytic gradients, a stable
sigmoid, the one finite check each training step runs and the package's one
check of a fixed bound, :func:`check_bound`. The training
loops apply their SGD updates in place. The sigmoid is
exp(min(z, 0)) / (1 + exp(-|z|)): no exp overflows, and it gives the bits
of the sign-masked form (1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z))
elsewhere) without that form's np.where, whose mask and select cost more
than the exps on the short rows of a single-record prediction.

Every dense network runs through one layer kernel, :func:`stack_forward` and
:func:`stack_backward`: a single network is the stack of its DenseLayers
(:func:`dense_stack`) on 2-D rows, and the training kernels run stacks of
same-shaped networks as one program. Both take layers whose weights
carry any leading axes (a model axis, a domain axis, a channel axis) and
batches with the same leading axes. Every slice is the 2-D layer math of that network alone,
bit for bit: numpy runs one BLAS product per slice, and the reductions run
along the row axis of each slice. A stack keeps its parameters in one flat
buffer (..., P) whose layers are views (:func:`layer_views`), so one SGD
update and one finite check cover it; :func:`stack_backward` writes through
``out=`` into the views of a gradient buffer of the same layout, and
:func:`lockstep_steps` plans their steps in runs of equal batch sizes. Forward
passes add the bias and apply the activation in place on the fresh product
and cache each layer's (input, output): relu's backward takes its mask from
the output, since ``y > 0`` is ``z > 0`` (at -0.0 and NaN too). A bias
gradient sums its rows by einsum, which gives the bits of numpy's row-by-row
reduce at a fraction of its cost, except for a one-output layer, whose
column numpy reduces pairwise.

Randomness is never global: every consumer derives its own
``numpy.random.Generator`` through :func:`make_rng` with an explicit seed
plus integer stream labels, so identical seeds reproduce identical
trajectories bitwise in single-threaded runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

ACTIVATIONS = ("identity", "sigmoid", "relu")
_INTS, _NUMBERS = (int, np.integer), (int, float, np.integer, np.floating)  # the values check_bound takes, numpy's too
_ends = cache(lambda bound: tuple(map(float, bound[1:-1].split(","))))  # (lo, hi) of each interval text, read once


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for (seed, stream labels).

    Distinct label tuples give statistically independent streams, so e.g.
    the domain-A scorer init never depends on how many draws the domain-B
    scorer consumed.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def as_vector(v, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    return v


def check_bound(name: str, value, bound: str, integer: bool = False) -> None:
    """The package's one check of a fixed bound, written as interval text ("[0, 0.5)", "(0, 1]", "[1, inf)") whose
    brackets decide the check and which the message quotes. Refuses, in order: no integer where integer is set (a
    bool is none, an np.int64 is one), a bool, text or NaN ("is not a number"), +-inf ("is not finite"), then a value
    outside bound ("below lo" for [lo, inf))."""
    if isinstance(value, bool) or not isinstance(value, _INTS if integer else _NUMBERS) or value != value:
        raise ValueError(f"{name}={value} is not {'an integer' if integer else 'a number'}")
    if value in (math.inf, -math.inf):
        raise ValueError(f"{name}={value} is not finite")
    lo, hi = _ends(bound)
    if (lo <= value if bound[0] == "[" else lo < value) and (value <= hi if bound[-1] == "]" else value < hi):
        return
    if bound[0] == "[" and hi == math.inf:
        raise ValueError(f"{name}={value} below {bound[1:].split(',')[0]}")
    raise ValueError(f"{name}={value} outside {bound}")


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp(min(z, 0)) / (1 + exp(-|z|)), copysign giving -|z|: neither exp overflows, and per
    # sign this is 1/(1+exp(-z)) (exp(+-0) is 1 exactly) or exp(z)/(1+exp(z)), the bits of the
    # sign-masked form without its np.where, whose mask and select cost more than an exp on a short row
    return np.divide(np.exp(np.minimum(z, 0.0)), 1.0 + np.exp(np.copysign(z, -1.0)), out=out)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    """The activation applied in place on z; returns z."""
    if name == "sigmoid":
        sigmoid(z, out=z)
    elif name == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def _activation_grad(name: str, y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dy chained through the activation, read from the layer's output y."""
    if name == "sigmoid":
        return dy * (y * (1.0 - y))
    if name == "relu":
        return dy * (y > 0)
    return dy


@dataclass
class DenseLayer:
    """One affine layer y = act(W x + b); weights (out, in), bias (out,)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.weights = as_matrix(self.weights, "weights")
        self.bias = as_vector(self.bias, "bias")
        if self.bias.shape[0] != self.weights.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} != weight rows {self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weights.copy(), self.bias.copy(), self.activation)


def xavier_uniform(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in))


def dense_layer(rng: np.random.Generator, n_in: int, n_out: int, activation: str) -> DenseLayer:
    """Xavier-uniform weights, zero bias."""
    return DenseLayer(xavier_uniform(rng, n_out, n_in), np.zeros(n_out), activation)


def dense_stack(layers) -> list:
    """DenseLayers as the (weights, bias, activation) layers :func:`stack_forward` runs on 2-D rows."""
    return [(l.weights, l.bias, l.activation) for l in layers]


def layer_views(buf: np.ndarray, layout) -> list:
    """Stacked dense layers [(weights (..., out, in), bias (..., 1, out), activation)]
    as views into a flat buffer buf (..., P), for layout [(n_in, n_out, activation)].

    Along its last axis the buffer holds each layer's weights, row-major, then
    its bias. Any view of a buffer whose last axis is contiguous works (a
    slice of the model axis, a reversed domain axis); writes land in buf.
    """
    lead, layers, at = buf.shape[:-1], [], 0
    for n_in, n_out, act in layout:
        w = buf[..., at : at + n_out * n_in].reshape(*lead, n_out, n_in, copy=False)
        at += n_out * n_in
        layers.append((w, buf[..., None, at : at + n_out], act))
        at += n_out
    return layers


def flat_params(networks) -> tuple[np.ndarray, tuple]:
    """The parameters of networks, each a list of DenseLayers of one layout,
    copied into one flat buffer (len(networks), P) that `layer_views` reads,
    and that layout [(n_in, n_out, activation)]. Each layer's arrays become
    views of its network's row, so the network reads what a stack trains."""
    layout = tuple((l.n_in, l.n_out, l.activation) for l in networks[0])
    buf = np.array([np.concatenate([a.ravel() for l in net for a in (l.weights, l.bias)]) for net in networks])
    view_layers(networks, buf, layout)
    return buf, layout


def view_layers(networks, buf: np.ndarray, layout) -> None:
    """Make each network's DenseLayers views of its row of buf (..., P) in layout (`layer_views`)."""
    for net, row in zip(networks, buf):
        for layer, (w, b, _) in zip(net, layer_views(row, layout)):
            layer.weights, layer.bias = w, b[0]


@dataclass
class FlatStack:
    """K stacked networks of one layout [(n_in, n_out, activation)] in one flat
    buffer params (K, P): layers are its `layer_views`, and grads (a new
    buffer when omitted) is a gradient buffer of the same layout that
    grad_layers view."""

    params: np.ndarray
    layout: tuple
    grads: np.ndarray | None = None

    def __post_init__(self):
        if self.grads is None:
            self.grads = np.empty_like(self.params)
        self.layers = layer_views(self.params, self.layout)
        self.grad_layers = layer_views(self.grads, self.layout)

    def part(self, s: slice) -> "FlatStack":
        """Networks s alone: a stack whose parameters and gradients are views into this one."""
        return FlatStack(self.params[s], self.layout, self.grads[s])


def lockstep_steps(counts, batch_size: int) -> list:
    """An epoch's steps for K stacked networks with counts (K,) or (K, D) rows: per batch start,
    (start, runs), each run (slice of the stack, batch sizes) a run of consecutive networks with
    equal batch sizes there, networks with no rows left dropped. No padded row enters a product."""
    counts, steps = np.asarray(counts), []
    for start in range(0, int(counts.max()), batch_size):
        sizes = np.minimum(np.maximum(counts - start, 0), batch_size).tolist()
        edges = [0, *(k for k in range(1, len(sizes)) if sizes[k] != sizes[k - 1]), len(sizes)]
        steps.append((start, [(slice(lo, hi), sizes[lo]) for lo, hi in zip(edges, edges[1:]) if np.any(sizes[lo])]))
    return steps


def stack_forward(layers, h):
    """Forward pass of stacked dense layers [(weights (..., out, in), bias (..., 1, out), activation)]
    on h (..., n, in) with the same leading axes; returns (y, caches) for :func:`stack_backward`,
    one (input, output) per layer."""
    caches = []
    for w, b, act in layers:
        y = h @ w.swapaxes(-1, -2)
        y += b
        caches.append((h, _activate(act, y)))
        h = y
    return h, caches


def stack_backward(layers, caches, dy, out, need_dx: bool = True):
    """Exact gradients of stacked layers chained with dy (..., n, out).

    Writes each layer's (dW, db) into out, per-layer views shaped like the
    weights and biases (`layer_views` of a gradient buffer), and returns the
    input gradient dx; need_dx=False skips the first layer's and returns None.
    """
    for n in range(len(layers) - 1, -1, -1):
        (w, _, act), (h, y), (dw, db, _) = layers[n], caches[n], out[n]
        dy = _activation_grad(act, y, dy)
        np.matmul(dy.swapaxes(-1, -2), h, out=dw)
        if db.shape[-1] > 1:  # the bits of the row-by-row reduce below, in one pass over dy
            np.einsum("...ij->...j", dy, out=db[..., 0, :])
        else:  # one column: numpy's reduce sums it pairwise, einsum would not
            np.add.reduce(dy, axis=-2, keepdims=True, out=db)
        dy = dy @ w if need_dx or n > 0 else None
    return dy


def check_finite_step(loss, grads, remedy: str, names=None) -> None:
    """One finite check per training step over its loss and gradient arrays.

    A NaN or inf anywhere makes the sum non-finite; so does a sum that
    overflows, which only a diverging run reaches. A step of K stacked
    networks passes a (K,) loss and stacked gradients whose axis -3 is the
    network axis (weights (..., K, out, in), a flat buffer (..., K, P) as its
    (..., K, 1, P) view), and names (one per network) to name the first
    network whose own sum is not finite. The error ends with the remedy, which
    names the keys to lower.
    """
    if math.isfinite(np.add.reduce(loss, None) + sum(np.add.reduce(g, None) for g in grads)):
        return
    losses = np.atleast_1d(loss)
    k, bad = losses.shape[0], 0
    if k > 1:
        # the sum over all K networks may overflow where no network's own sum does
        for g in grads:
            losses = losses + g.sum(axis=(-2, -1)).reshape(-1, k).sum(axis=0)
        flagged = np.flatnonzero(~np.isfinite(losses))
        if not flagged.size:
            return
        bad = flagged[0]
    where = "" if names is None else f" in {names[bad]}"
    raise FloatingPointError(f"non-finite training loss or gradient{where}; {remedy}")
