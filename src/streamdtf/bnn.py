"""Deterministic feed-forward network skeleton: one forward pass and one
backward pass, and the consumers built on them.

Layer recursion: with hb = [h; 1] / sqrt(V_prev + 1) (a constant feature 1
is appended to carry the bias, and the whole product is rescaled by the fan
in), each hidden layer computes h_m = act(W_m @ hb_{m-1}) and the output
layer is linear with the same rescaling.

`forward_mean_batch` is the only forward loop: it runs one input row or n
rows at the parameter means and records hb_{m-1} and z_m per layer on a
`ForwardTape`.
`_backward` is the only backward loop: from the tape alone (it holds the
spec and the weights the forward pass ran with) it returns
delta_m = d alpha / d z_m per layer and d alpha / dx. Layer m's weight
gradient is the outer product delta_m (x) hb_{m-1}, so every consumer reads
what it needs from these factors:

- `forward_mean`: the forward pass on one row, raising NumericError on a
  non-finite pre-activation, for the per-entry update;
- `backprop_gradient(tape)`: the dense gradient g of the row a
  `forward_mean` tape was recorded on, in `NetworkSpec.weight_slices` order
  with the V_0 input coordinates last, for the per-entry update;
- `output_moments_batch`: first-order output moments of any number of rows,
  alpha = f at the means and beta = g' diag(gamma) g, with beta summed layer
  by layer as sum delta_m^2 var_m hb_{m-1}^2 so the dense g is never built,
  for prediction and the running evaluation.

The oracles and `verify` check these same functions; one-row output moments
are `output_moments_batch` on a (1, V_0) input.

All functions are stateless given their inputs and safe for concurrent use.
The 'identity' activation exists so tests can build exactly linear networks;
user-facing configuration restricts activations to relu/tanh.
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError


def _relu(z):
    return np.maximum(z, 0.0)


def _drelu(z):
    # subgradient at exactly 0 is defined as 0
    return (z > 0).astype(float)


def _dtanh(z):
    t = np.tanh(z)
    return 1.0 - t * t


def _identity(z):
    return np.asarray(z, dtype=float)


def _didentity(z):
    return np.ones_like(z, dtype=float)


ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (_relu, _drelu),
    "tanh": (np.tanh, _dtanh),
    "identity": (_identity, _didentity),
}

USER_ACTIVATIONS = ("relu", "tanh")

@dataclass(frozen=True)
class NetworkSpec:
    """Widths V_0..V_M (V_M == 1) and the hidden activation name."""

    widths: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(map(operator.index, self.widths)))
        if len(self.widths) < 2:
            raise ValueError("need at least an input width and the output width")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"all widths must be >= 1, got {self.widths}")
        if self.widths[-1] != 1:
            raise ValueError(f"output width must be 1, got {self.widths[-1]}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @classmethod
    def for_factorization(cls, input_dim: int, hidden: Sequence[int],
                          activation: str = "relu") -> "NetworkSpec":
        return cls(widths=(input_dim, *hidden, 1), activation=activation)

    @property
    def layer_count(self) -> int:
        return len(self.widths) - 1

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    # the spec is frozen, so these are computed once per instance
    @cached_property
    def weight_shapes(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (self.widths[m], self.widths[m - 1] + 1)
            for m in range(1, len(self.widths))
        )

    @cached_property
    def weight_slices(self) -> tuple[slice, ...]:
        """Each layer's range in the flat weight ordering: layers in order,
        each matrix raveled row-major (output unit major, input slot minor,
        bias column last)."""
        slices = []
        offs = 0
        for r, c in self.weight_shapes:
            slices.append(slice(offs, offs + r * c))
            offs += r * c
        return tuple(slices)

    @cached_property
    def n_weights(self) -> int:
        return sum(r * c for r, c in self.weight_shapes)


@dataclass
class ForwardTape:
    """Per-layer caches from one forward pass, sufficient for the backward
    pass. Each array has the leading shape of the inputs: none for one row,
    (n,) for n rows."""

    spec: NetworkSpec
    weights: list[np.ndarray]
    hb: list[np.ndarray]  # hb_0 .. hb_{M-1}, each [h; 1]/sqrt(V+1)
    preact: list[np.ndarray]  # z_1 .. z_M


def forward_mean_batch(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                       inputs: np.ndarray) -> tuple[np.ndarray, ForwardTape]:
    """The forward pass at the parameter means; returns (alpha, tape).

    `inputs` holds n rows (n, V_0), giving alpha[n], or one row (V_0,),
    giving a 0-d alpha. The weights are float arrays of `spec.weight_shapes`,
    checked where they enter (`load_checkpoint`, `GroundTruth.from_json`).
    """
    x = np.asarray(inputs, dtype=float)
    act, _ = ACTIVATIONS[spec.activation]
    ones = np.ones(x.shape[:-1] + (1,))
    h = x
    hbs: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    m_total = spec.layer_count
    for m, w in enumerate(weight_means, start=1):
        hb = np.concatenate((h, ones), axis=-1)
        hb /= math.sqrt(h.shape[-1] + 1.0)
        z = hb @ w.T
        hbs.append(hb)
        preacts.append(z)
        h = act(z) if m < m_total else z
    return h[..., 0].copy(), ForwardTape(spec=spec, weights=weight_means,
                                         hb=hbs, preact=preacts)


def _backward(tape: ForwardTape) -> tuple[list[np.ndarray], np.ndarray]:
    """The backward pass: returns (delta_1..delta_M, d alpha / dx), where
    delta_m = d alpha / d z_m, so layer m's weight gradient is the outer
    product delta_m (x) hb_{m-1}, row by row."""
    spec, weights = tape.spec, tape.weights
    _, dact = ACTIVATIONS[spec.activation]
    deltas: list[np.ndarray] = []
    delta = np.ones_like(tape.preact[-1])
    for m in range(spec.layer_count, 0, -1):
        deltas.append(delta)
        v_prev = spec.widths[m - 1]
        dh = delta @ weights[m - 1][:, :v_prev]
        dh /= math.sqrt(v_prev + 1.0)
        delta = dact(tape.preact[m - 2]) * dh if m > 1 else dh
    return deltas[::-1], delta


def forward_mean(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                 input_mean: np.ndarray) -> tuple[float, ForwardTape]:
    """Evaluate the network at the parameter means on one input row; returns
    (alpha, tape). Raises NumericError on a non-finite pre-activation."""
    alpha, tape = forward_mean_batch(spec, weight_means, input_mean)
    if not np.isfinite(np.concatenate(tape.preact)).all():
        for m, z in enumerate(tape.preact, start=1):
            if not np.isfinite(z).all():
                raise NumericError(f"non-finite pre-activation in layer {m}")
    return float(alpha), tape


def backprop_gradient(tape: ForwardTape) -> np.ndarray:
    """Reverse-mode gradient of the scalar output over all weights and inputs
    of the one row `tape` was recorded on (by `forward_mean`), flattened in
    `NetworkSpec.weight_slices` order with the V_0 input coordinates last.
    The array is the caller's to overwrite.

    g is not scanned for non-finite values: the per-entry update, its one
    hot caller, computes beta = sum_j g_j^2 gamma_j over variances that are
    all finite and > 0, so any NaN or infinite g_j makes beta NaN or +inf,
    and the update skips the entry on that check alone."""
    spec = tape.spec
    deltas, dx = _backward(tape)
    g = np.empty(spec.n_weights + spec.input_dim)
    for sl, shape, delta, hb in zip(spec.weight_slices, spec.weight_shapes,
                                    deltas, tape.hb):
        np.multiply.outer(delta, hb, out=g[sl].reshape(shape))
    g[spec.n_weights:] = dx
    return g


def output_moments_batch(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                         weight_vars: Sequence[np.ndarray], input_means: np.ndarray,
                         input_vars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched (alpha, beta): per-row first-order output moments.

    Avoids materializing per-entry weight gradients; each layer's variance
    contribution is sum_{j,t} delta[n,j]^2 var_w[j,t] hb[n,t]^2.
    """
    x_var = np.atleast_2d(np.asarray(input_vars, dtype=float))
    alpha, tape = forward_mean_batch(spec, weight_means, np.atleast_2d(input_means))
    deltas, dx = _backward(tape)
    beta = np.zeros(alpha.shape[0])
    for m in range(spec.layer_count, 0, -1):
        delta, hb = deltas[m - 1], tape.hb[m - 1]
        beta += np.einsum("nt,nt->n", (delta * delta) @ weight_vars[m - 1], hb * hb)
    beta += np.einsum("nt,nt->n", dx * dx, x_var)
    return alpha, beta

