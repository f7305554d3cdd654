"""Deterministic feed-forward network skeleton.

Forward evaluation at posterior means, reverse-mode gradient of the scalar
output with respect to every weight and every input coordinate, and the
first-order output-moment propagation (output variance = g' diag(gamma) g
with the gradient treated as locally constant).

Layer recursion: with hb = [h; 1] / sqrt(V_prev + 1) (a constant feature 1
is appended to carry the bias, and the whole product is rescaled by the fan
in), each hidden layer computes h_m = act(W_m @ hb_{m-1}) and the output
layer is linear with the same rescaling.

All functions are stateless given their inputs and safe for concurrent use.
The 'identity' activation exists so tests can build exactly linear networks;
user-facing configuration restricts activations to relu/tanh.
"""

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

# the bias feature appended to each layer input, and the output-layer delta
_ONE = np.ones(1)
_ONE.flags.writeable = False


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
    """Per-layer caches from one forward pass, sufficient for backprop."""

    spec: NetworkSpec
    weights: list[np.ndarray]
    input_mean: np.ndarray
    hb: list[np.ndarray]  # hb_0 .. hb_{M-1}, each [h; 1]/sqrt(V+1)
    preact: list[np.ndarray]  # z_1 .. z_M
    alpha: float

    def matches(self, spec: NetworkSpec, weights: Sequence[np.ndarray],
                input_mean: np.ndarray) -> bool:
        if spec != self.spec or len(weights) != len(self.weights):
            return False
        same = all(w is t or np.array_equal(w, t) for w, t in zip(weights, self.weights))
        x = np.asarray(input_mean, dtype=float)
        return same and (x is self.input_mean or np.array_equal(x, self.input_mean))


def _check_shapes(spec: NetworkSpec, weights: Sequence[np.ndarray], x: np.ndarray) -> None:
    if len(weights) != spec.layer_count:
        raise ValueError(f"expected {spec.layer_count} weight matrices, got {len(weights)}")
    for m, (w, shape) in enumerate(zip(weights, spec.weight_shapes), start=1):
        if w.shape != shape:
            raise ValueError(f"layer {m}: weight shape {w.shape} != expected {shape}")
    if x.shape[-1] != spec.input_dim:
        raise ValueError(f"input length {x.shape[-1]} != V_0 = {spec.input_dim}")


def forward_mean(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                 input_mean: np.ndarray) -> tuple[float, ForwardTape]:
    """Evaluate the network at the parameter means; returns (alpha, tape)."""
    weight_means = [np.asarray(w, dtype=float) for w in weight_means]
    x = np.asarray(input_mean, dtype=float)
    _check_shapes(spec, weight_means, x)
    act, _ = ACTIVATIONS[spec.activation]
    h = x
    hbs: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    m_total = spec.layer_count
    for m, w in enumerate(weight_means, start=1):
        hb = np.concatenate((h, _ONE)) / np.sqrt(h.shape[0] + 1.0)
        z = w @ hb
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite pre-activation in layer {m}")
        hbs.append(hb)
        preacts.append(z)
        h = act(z) if m < m_total else z
    alpha = float(h[0])
    return alpha, ForwardTape(spec=spec, weights=weight_means, input_mean=x,
                              hb=hbs, preact=preacts, alpha=alpha)


def backprop_gradient(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                      input_mean: np.ndarray, tape: ForwardTape) -> np.ndarray:
    """Reverse-mode gradient of the scalar output over all weights and inputs,
    flattened in FlatParamLayout order."""
    weight_means = [np.asarray(w, dtype=float) for w in weight_means]
    x = np.asarray(input_mean, dtype=float)
    if not tape.matches(spec, weight_means, x):
        raise ValueError("tape does not match the given spec/weights/input")
    _, dact = ACTIVATIONS[spec.activation]
    g = np.empty(spec.n_weights + spec.input_dim)
    delta = _ONE
    for m in range(spec.layer_count, 0, -1):
        w = weight_means[m - 1]
        np.multiply.outer(delta, tape.hb[m - 1],
                          out=g[spec.weight_slices[m - 1]].reshape(w.shape))
        v_prev = spec.widths[m - 1]
        dh = (w[:, :v_prev].T @ delta) / np.sqrt(v_prev + 1.0)
        if m > 1:
            delta = dact(tape.preact[m - 2]) * dh
        else:
            g[spec.n_weights:] = dh
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient")
    return g


def output_moments(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                   weight_vars: Sequence[np.ndarray], input_mean: np.ndarray,
                   input_vars: np.ndarray) -> OutputMoments:
    """First-order moments: alpha = f at the means, beta = sum_j g_j^2 gamma_j."""
    for v in list(weight_vars) + [np.asarray(input_vars)]:
        if np.any(np.asarray(v) < 0):
            raise ValueError("variances must be >= 0")
    alpha, tape = forward_mean(spec, weight_means, input_mean)
    g = backprop_gradient(spec, weight_means, input_mean, tape)
    gamma = FlatParamLayout(spec).pack(weight_vars, input_vars)
    beta = float((g * g) @ gamma)
    return OutputMoments(alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# batched variants (read-only prediction over many entries at once)


def forward_mean_batch(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                       inputs: np.ndarray) -> tuple[np.ndarray, dict]:
    """Forward pass over a batch of input rows; returns (alpha[n], caches)."""
    weight_means = [np.asarray(w, dtype=float) for w in weight_means]
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    _check_shapes(spec, weight_means, x)
    act, _ = ACTIVATIONS[spec.activation]
    n = x.shape[0]
    h = x
    hbs: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    m_total = spec.layer_count
    for m, w in enumerate(weight_means, start=1):
        hb = np.hstack([h, np.ones((n, 1))]) / np.sqrt(h.shape[1] + 1.0)
        z = hb @ w.T
        hbs.append(hb)
        preacts.append(z)
        h = act(z) if m < m_total else z
    return h[:, 0].copy(), {"hb": hbs, "preact": preacts}


def output_moments_batch(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                         weight_vars: Sequence[np.ndarray], input_means: np.ndarray,
                         input_vars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched (alpha, beta): per-row first-order output moments.

    Avoids materializing per-entry weight gradients; each layer's variance
    contribution is sum_{j,t} delta[n,j]^2 var_w[j,t] hb[n,t]^2.
    """
    weight_means = [np.asarray(w, dtype=float) for w in weight_means]
    weight_vars = [np.asarray(v, dtype=float) for v in weight_vars]
    x_var = np.atleast_2d(np.asarray(input_vars, dtype=float))
    alpha, caches = forward_mean_batch(spec, weight_means, input_means)
    hbs, preacts = caches["hb"], caches["preact"]
    _, dact = ACTIVATIONS[spec.activation]
    n = alpha.shape[0]
    m_total = spec.layer_count
    beta = np.zeros(n)
    delta = np.ones((n, 1))
    for m in range(m_total, 0, -1):
        w = weight_means[m - 1]
        hb = hbs[m - 1]
        beta += np.einsum("nt,nt->n", (delta * delta) @ weight_vars[m - 1], hb * hb)
        v_prev = spec.widths[m - 1]
        dh = (delta @ w[:, :v_prev]) / np.sqrt(v_prev + 1.0)
        if m > 1:
            delta = dact(preacts[m - 2]) * dh
        else:
            beta += np.einsum("nt,nt->n", dh * dh, x_var)
    return alpha, beta
