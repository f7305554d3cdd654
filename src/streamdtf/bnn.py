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
  non-finite pre-activation;
- `backprop_gradient(tape)`: the dense gradient g of the row a
  `forward_mean` tape was recorded on, in FlatParamLayout order, for the
  per-entry update and the finite-difference oracles;
- `output_moments_batch`: first-order output moments, alpha = f at the means
  and beta = g' diag(gamma) g, with beta summed layer by layer as
  sum delta_m^2 var_m hb_{m-1}^2 so the dense g is never built;
- `output_moments`: `output_moments_batch` on one row.

All functions are stateless given their inputs and safe for concurrent use.
The 'identity' activation exists so tests can build exactly linear networks;
user-facing configuration restricts activations to relu/tanh.
"""

import math
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
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
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
        return cls(widths=(int(input_dim), *(int(h) for h in hidden), 1),
                   activation=activation)

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
        """Each layer's range in the flat weight ordering of FlatParamLayout."""
        slices = []
        offs = 0
        for r, c in self.weight_shapes:
            slices.append(slice(offs, offs + r * c))
            offs += r * c
        return tuple(slices)

    @cached_property
    def n_weights(self) -> int:
        return sum(r * c for r, c in self.weight_shapes)


@dataclass(frozen=True)
class FlatParamLayout:
    """Fixed linear ordering of all parameter coordinates.

    Weights first, layers in order; within a layer the matrix is raveled
    row-major (output unit major, input slot minor, bias column last). The
    V_0 input coordinates follow, mode-concatenation order.
    """

    spec: NetworkSpec

    @property
    def input_slice(self) -> slice:
        return slice(self.n_weights, self.total)

    @property
    def n_weights(self) -> int:
        return self.spec.n_weights

    @property
    def n_inputs(self) -> int:
        return self.spec.input_dim

    @property
    def total(self) -> int:
        return self.n_weights + self.n_inputs

    def pack(self, weight_mats: Sequence[np.ndarray], input_vec: np.ndarray) -> np.ndarray:
        """Flatten per-layer matrices plus the input vector into layout order.

        Works for any per-coordinate quantity sharing the weight/input shapes
        (means, variances, gradients).
        """
        parts = [np.asarray(m, dtype=float).ravel() for m in weight_mats]
        parts.append(np.asarray(input_vec, dtype=float).ravel())
        flat = np.concatenate(parts)
        if flat.shape[0] != self.total:
            raise ValueError(f"packed length {flat.shape[0]} != layout length {self.total}")
        return flat

    def unpack(self, flat: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.total,):
            raise ValueError(f"expected length-{self.total} vector, got shape {flat.shape}")
        mats = [
            flat[sl].reshape(shape)
            for sl, shape in zip(self.spec.weight_slices, self.spec.weight_shapes)
        ]
        return mats, flat[self.input_slice].copy()


@dataclass(frozen=True)
class OutputMoments:
    """First-order posterior moments of the network output for one entry."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not np.isfinite(self.alpha) or not np.isfinite(self.beta):
            raise NumericError(f"non-finite output moments ({self.alpha}, {self.beta})")
        if self.beta < 0:
            raise ValueError(f"output variance must be >= 0, got {self.beta}")


@dataclass
class ForwardTape:
    """Per-layer caches from one forward pass, sufficient for the backward
    pass. Each array has the leading shape of the inputs: none for one row,
    (n,) for n rows."""

    spec: NetworkSpec
    weights: list[np.ndarray]
    hb: list[np.ndarray]  # hb_0 .. hb_{M-1}, each [h; 1]/sqrt(V+1)
    preact: list[np.ndarray]  # z_1 .. z_M


def _check_shapes(spec: NetworkSpec, weights: Sequence[np.ndarray], x: np.ndarray) -> None:
    if len(weights) != spec.layer_count:
        raise ValueError(f"expected {spec.layer_count} weight matrices, got {len(weights)}")
    for m, (w, shape) in enumerate(zip(weights, spec.weight_shapes), start=1):
        if w.shape != shape:
            raise ValueError(f"layer {m}: weight shape {w.shape} != expected {shape}")
    if x.shape[-1] != spec.input_dim:
        raise ValueError(f"input length {x.shape[-1]} != V_0 = {spec.input_dim}")


def forward_mean_batch(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                       inputs: np.ndarray) -> tuple[np.ndarray, ForwardTape]:
    """The forward pass at the parameter means; returns (alpha, tape).

    `inputs` holds n rows (n, V_0), giving alpha[n], or one row (V_0,),
    giving a 0-d alpha.
    """
    weight_means = [np.asarray(w, dtype=float) for w in weight_means]
    x = np.asarray(inputs, dtype=float)
    _check_shapes(spec, weight_means, x)
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
    FlatParamLayout order. The array is the caller's to overwrite.

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
    weight_vars = [np.asarray(v, dtype=float) for v in weight_vars]
    x_var = np.atleast_2d(np.asarray(input_vars, dtype=float))
    alpha, tape = forward_mean_batch(spec, weight_means, np.atleast_2d(input_means))
    deltas, dx = _backward(tape)
    beta = np.zeros(alpha.shape[0])
    for m in range(spec.layer_count, 0, -1):
        delta, hb = deltas[m - 1], tape.hb[m - 1]
        beta += np.einsum("nt,nt->n", (delta * delta) @ weight_vars[m - 1], hb * hb)
    beta += np.einsum("nt,nt->n", dx * dx, x_var)
    return alpha, beta


def output_moments(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                   weight_vars: Sequence[np.ndarray], input_mean: np.ndarray,
                   input_vars: np.ndarray) -> OutputMoments:
    """First-order moments of one row: alpha = f at the means,
    beta = sum_j g_j^2 gamma_j."""
    for v in list(weight_vars) + [np.asarray(input_vars)]:
        if np.any(np.asarray(v) < 0):
            raise ValueError("variances must be >= 0")
    alpha, beta = output_moments_batch(spec, weight_means, weight_vars,
                                       input_mean, input_vars)
    return OutputMoments(alpha=float(alpha[0]), beta=float(beta[0]))
