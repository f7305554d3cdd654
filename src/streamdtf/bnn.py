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
what it needs from these factors.

Buffers: both passes write into the buffers of the tape they run on (with
`out=`), and where it has none they allocate as they go. A tape belongs
to whoever allocated it. The per-entry update passes the one-row tape its
`ModelState` owns, which has every buffer, so one entry after another
allocates nothing, and `backprop_gradient` fills that tape's g.
`predict_eval.running_eval` allocates one n-row tape per call, as large as
the test set, and scores every batch in it, so the re-scoring allocates
only its results. Batch consumers that pass no tape get an unbuffered one
per call, which the passes fill with new arrays, as an allocating
implementation would.

Products: on one row every call costs more than its arithmetic, so the
passes call BLAS through np.dot, numpy's cheapest entry: z_m =
np.dot(hb_{m-1}, W_m.T) on any row count, and on one row each layer's block
of g is a k = 1 np.dot of delta_m as a column and hb_{m-1} as a row, whose
bits are np.multiply's except that a zero product is +0.0. The backward
product stays np.matmul(delta_m, W_m[:, :V_{m-1}]): np.dot copies that
strided view, and a full-width np.dot(delta_m, W_m) rounds differently
from it for some widths. The finiteness screens of the per-entry update
(`all_finite`) are one dot each.

Consumers:

- `forward_mean`: the forward pass on one row, raising NumericError on a
  non-finite pre-activation, for the per-entry update;
- `backprop_gradient(tape)`: the dense gradient g of the row a
  `forward_mean` tape was recorded on, in `NetworkSpec.weight_slices` order
  with the V_0 input coordinates last, for the per-entry update;
- `output_moments_batch`: first-order output moments of any number of rows,
  alpha = f at the means and beta = g' diag(gamma) g, with beta summed layer
  by layer as sum delta_m^2 var_m hb_{m-1}^2 so the dense g is never built,
  for prediction and the binary running evaluation. Given no input
  variances it runs the forward pass alone and returns no beta, for the
  continuous running evaluation and `streamdtf eval`, whose RMSE reads only
  the means: the tape's backward buffers stay unused.

The oracles and `verify` check these same functions; one-row output moments
are `output_moments_batch` on a (1, V_0) input.

All functions are stateless given their inputs and safe for concurrent use
as long as no tape is shared between threads.
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


def _relu(z, out):
    return np.maximum(z, 0.0, out=out)


def _relu_grad(z, dh, out):
    if out is None:
        out = np.empty_like(dh)
    np.greater(z, 0.0, out=out)  # the derivative at exactly 0 is defined as 0
    out *= dh
    return out


def _tanh_grad(z, dh, out):
    t = np.tanh(z, out=out)
    np.subtract(1.0, np.multiply(t, t, out=t), out=t)
    t *= dh
    return t


def _identity_grad(z, dh, out):
    return np.positive(dh, out=out)


# name -> (act(z, out), grad(z, dh, out) = act'(z) * dh); each writes into
# `out`, or into a new array when `out` is None, and returns it
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (_relu, _relu_grad),
    "tanh": (np.tanh, _tanh_grad),
    "identity": (np.positive, _identity_grad),
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

    @cached_property
    def fan_in_scales(self) -> tuple[float, ...]:
        """sqrt(V_{m-1} + 1) for m = 1..M: layer m divides its input by it."""
        return tuple(math.sqrt(v + 1.0) for v in self.widths[:-1])


@dataclass
class ForwardTape:
    """The buffers one forward pass and one backward pass write, for n rows
    (leading shape (n,)) or one row (no leading shape). A pass writes into
    each buffer the tape has; where the tape has None it keeps the new
    arrays later steps read (hb, the pre-activations and the deltas) and
    drops the rest. A tape holds the last pass run on it and belongs to one
    caller at a time.

    On a buffered tape the backward pass writes delta_m over z_m (m < M),
    and the hidden activations, the backward products and the squares the
    output moments sum all take turns in one flat `scratch`. On one row,
    `outer` holds each layer's block of g next to the (V_m, 1) and
    (1, V_{m-1} + 1) views of delta_m and hb_{m-1} whose np.dot fills it."""

    spec: NetworkSpec
    weights: Sequence[np.ndarray]  # the weight means of the last forward pass
    hb: list  # hb_0 .. hb_{M-1}, each [h; 1]/sqrt(V+1)
    h: list  # h_1 .. h_{M-1}, the hidden activations (views into scratch)
    preacts: np.ndarray | None  # z_1 .. z_M, one block
    preact: list  # z_1 .. z_M, views into preacts
    deltas: list  # delta_1 .. delta_M = d alpha / d z_m: preact[:-1], then `ones`
    ones: np.ndarray  # 1 per row: delta_M, and the bias feature of hb
    dh: list  # d alpha / d h_{m-1}, m = 1..M; dh[0] is d alpha / dx
    scratch: np.ndarray | None  # flat, room for (rows, max V + 1)
    g: np.ndarray | None  # one row: the dense gradient, dh[0] its input block
    # one row, per layer: (its (V_m, V_{m-1}+1) view into g, delta_m as a
    # column, hb_{m-1} as a row)
    outer: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    inputs: np.ndarray | None  # n rows: (n, V_0) input means, then dh[0]
    input_vars: np.ndarray | None  # n rows: (n, V_0) input variances
    products: np.ndarray | None  # n rows: flat, each layer's (delta^2) var

    @classmethod
    def allocate(cls, spec: NetworkSpec, lead: tuple[int, ...] = ()) -> "ForwardTape":
        """A tape with every buffer, for inputs of leading shape `lead`: the
        hb arrays with their bias column set to 1/sqrt(V+1), the
        pre-activations as one block (one finite check covers them),
        delta_M = 1 and the flat scratch. One row (lead ()) adds g with its
        layer blocks and the outer-product factors, dh[0] being g's input
        block; n rows add the input buffers `predict_eval` gathers into,
        dh[0] being `inputs`, and the flat `products` the output moments
        use."""
        rows = math.prod(lead)
        widths, outs = spec.widths, spec.widths[1:]
        hb = []
        for v, scale in zip(widths[:-1], spec.fan_in_scales):
            buf = np.empty(lead + (v + 1,))
            buf[..., v] = 1.0 / scale
            hb.append(buf)
        preacts = np.empty(rows * sum(outs))
        bounds = rows * np.cumsum((0,) + outs)
        preact = [preacts[lo:hi].reshape(lead + (v,))
                  for lo, hi, v in zip(bounds[:-1], bounds[1:], outs)]
        ones = np.ones(lead + (1,))
        deltas = preact[:-1] + [ones]
        scratch = np.empty(rows * (max(widths[:-1]) + 1))
        hidden = [scratch[:rows * v].reshape(lead + (v,)) for v in widths[1:-1]]
        g, outer, inputs, input_vars, products = None, [], None, None, None
        if lead:
            inputs, input_vars = (np.empty(lead + (spec.input_dim,)) for _ in range(2))
            products = np.empty(scratch.shape)
            dx = inputs
        else:
            g = np.empty(spec.n_weights + spec.input_dim)
            outer = [(g[sl].reshape(shape), d.reshape(-1, 1), b.reshape(1, -1))
                     for sl, shape, d, b
                     in zip(spec.weight_slices, spec.weight_shapes, deltas, hb)]
            dx = g[spec.n_weights:]
        return cls(spec=spec, weights=(), hb=hb, h=hidden, preacts=preacts,
                   preact=preact, deltas=deltas, ones=ones, dh=[dx] + hidden,
                   scratch=scratch, g=g, outer=outer,
                   inputs=inputs, input_vars=input_vars, products=products)

    @classmethod
    def unbuffered(cls, spec: NetworkSpec, lead: tuple[int, ...]) -> "ForwardTape":
        """An n-row tape with no buffers but delta_M = 1: the passes allocate
        as they go, as an allocating implementation would."""
        ones = np.ones(lead + (1,))
        none = [None] * spec.layer_count
        return cls(spec=spec, weights=(), hb=none.copy(), h=none[1:], preacts=None,
                   preact=none.copy(), deltas=none[1:] + [ones], ones=ones,
                   dh=none.copy(), scratch=None, g=None, outer=[],
                   inputs=None, input_vars=None, products=None)

    def rows_view(self, flat: np.ndarray | None, width: int,
                  start: int = 0) -> np.ndarray | None:
        """A C-contiguous (n, width) view of a flat buffer of this n-row
        tape, `start` columns' worth in; None where the tape has no such
        buffer, so an `out=` given it allocates."""
        if flat is None:
            return None
        n = self.ones.shape[0]
        return flat[n * start:n * (start + width)].reshape(n, width)


def all_finite(x: np.ndarray) -> bool:
    """Whether every value of the 1-D float array x is finite. One dot
    decides for almost every x: x . x is finite only if each x_j is. A
    NaN, an infinity or an overflow of large finite values makes the dot
    non-finite, and only then are the values scanned one by one."""
    return math.isfinite(np.dot(x, x)) or bool(np.isfinite(x).all())


def _with_bias(h: np.ndarray, scale: float, out: np.ndarray | None,
               ones: np.ndarray) -> np.ndarray:
    """[h; 1] / scale. Into `out`, whose bias column already holds 1/scale,
    or as a new array: on a few rows a strided write into a preset buffer
    is slower than dividing the concatenation in place."""
    if out is None:
        out = np.concatenate((h, ones), axis=-1)
        out /= scale
        return out
    np.divide(h, scale, out=out[..., :-1])
    return out


def forward_mean_batch(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                       inputs: np.ndarray,
                       tape: ForwardTape | None = None) -> tuple[np.ndarray, ForwardTape]:
    """The forward pass at the parameter means; returns (alpha, tape).

    `inputs` holds n rows (n, V_0), giving alpha[n], or one row (V_0,),
    giving a 0-d alpha. The weights are float arrays of `spec.weight_shapes`,
    checked where they enter (`load_checkpoint`) or drawn to their shapes
    (`synth_generate`).
    The pass writes into `tape`, which must have been allocated for the
    inputs' leading shape, or into a fresh tape when none is given: a
    buffered one for one row, an unbuffered one for n rows.
    """
    x = np.asarray(inputs, dtype=float)
    if tape is None:
        lead = x.shape[:-1]
        tape = ForwardTape.unbuffered(spec, lead) if lead else ForwardTape.allocate(spec)
    tape.weights = weight_means
    act, _ = ACTIVATIONS[spec.activation]
    hb, h, preact, scales = tape.hb, tape.h, tape.preact, spec.fan_in_scales
    hb[0] = _with_bias(x, scales[0], hb[0], tape.ones)
    m_total = spec.layer_count
    for m in range(1, m_total):
        preact[m - 1] = np.dot(hb[m - 1], weight_means[m - 1].T, out=preact[m - 1])
        # an unbuffered tape keeps no h: freed here, its memory serves the next layer
        hb[m] = _with_bias(act(preact[m - 1], out=h[m - 1]), scales[m], hb[m], tape.ones)
    preact[-1] = np.dot(hb[-1], weight_means[-1].T, out=preact[-1])
    return preact[-1][..., 0].copy(), tape


def _backward(tape: ForwardTape) -> tuple[list[np.ndarray], np.ndarray]:
    """The backward pass: returns (delta_1..delta_M, d alpha / dx), where
    delta_m = d alpha / d z_m, so layer m's weight gradient is the outer
    product delta_m (x) hb_{m-1}, row by row. Both are the tape's buffers;
    on a buffered tape delta_m (m < M) overwrites z_m."""
    spec, weights, deltas, dh = tape.spec, tape.weights, tape.deltas, tape.dh
    _, act_grad = ACTIVATIONS[spec.activation]
    for m in range(spec.layer_count, 0, -1):
        v_prev = spec.widths[m - 1]
        grad_h = np.matmul(deltas[m - 1], weights[m - 1][:, :v_prev], out=dh[m - 1])
        grad_h /= spec.fan_in_scales[m - 1]
        if m > 1:
            deltas[m - 2] = act_grad(tape.preact[m - 2], grad_h, out=deltas[m - 2])
    return deltas, grad_h


def forward_mean(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                 input_mean: np.ndarray,
                 tape: ForwardTape | None = None) -> tuple[float, ForwardTape]:
    """Evaluate the network at the parameter means on one input row, in
    `tape` (a one-row tape) or a fresh one; returns (alpha, tape). Raises
    NumericError on a non-finite pre-activation. The screen is
    `all_finite`: pre-activations past about 1e154 overflow its dot, which
    numpy reports unless the caller ignores overflow, as the per-entry
    update does under `adf_engine.entry_errstate()`."""
    alpha, tape = forward_mean_batch(spec, weight_means, input_mean, tape)
    if not all_finite(tape.preacts):
        for m, z in enumerate(tape.preact, start=1):
            if not np.isfinite(z).all():
                raise NumericError(f"non-finite pre-activation in layer {m}")
    return float(alpha), tape


def backprop_gradient(tape: ForwardTape) -> np.ndarray:
    """Reverse-mode gradient of the scalar output over all weights and inputs
    of the one row `tape` was recorded on (by `forward_mean`), flattened in
    `NetworkSpec.weight_slices` order with the V_0 input coordinates last.
    The array is the tape's `g`: the caller may overwrite it, and the next
    backward pass on the tape does.

    g is not scanned for non-finite values: the per-entry update, its one
    hot caller, computes beta = sum_j g_j (gamma_j g_j) over variances that
    are all finite and > 0, so any NaN or infinite g_j makes beta NaN or
    +inf, and the update skips the entry on that check alone."""
    _backward(tape)  # d alpha / dx lands in g's input block
    for g_m, delta, hb in tape.outer:
        np.dot(delta, hb, out=g_m)
    return tape.g


def output_moments_batch(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                         weight_vars: Sequence[np.ndarray], input_means: np.ndarray,
                         input_vars: np.ndarray | None,
                         tape: ForwardTape | None = None
                         ) -> tuple[np.ndarray, np.ndarray | None]:
    """Batched (alpha, beta): per-row first-order output moments.

    Avoids materializing per-entry weight gradients; each layer's variance
    contribution is sum_{j,t} delta[n,j]^2 var_w[j,t] hb[n,t]^2.

    With `tape`, an n-row tape from `ForwardTape.allocate` for the inputs'
    row count, every intermediate lives in its buffers and only alpha and
    beta are new; the input means may be the tape's own `inputs`, which the
    backward pass overwrites with d alpha / dx. Without one, the passes
    allocate.

    With `input_vars` None only the forward pass runs and beta is None:
    alpha is the same bytes, and neither the weight variances nor the
    tape's backward buffers are read or written.
    """
    alpha, tape = forward_mean_batch(spec, weight_means, np.atleast_2d(input_means), tape)
    if input_vars is None:
        return alpha, None
    x_var = np.atleast_2d(np.asarray(input_vars, dtype=float))
    deltas, dx = _backward(tape)
    beta = np.zeros(alpha.shape[0])
    # delta^2, hb^2 and dx^2 take turns in scratch; on an unbuffered tape
    # rows() is None and each is a new array, unnamed so that it is freed
    # as soon as einsum has read it
    scratch, rows = tape.scratch, tape.rows_view
    for m in range(spec.layer_count, 0, -1):
        delta, hb = deltas[m - 1], tape.hb[m - 1]
        beta += np.einsum(
            "nt,nt->n",
            np.matmul(np.multiply(delta, delta, out=rows(scratch, delta.shape[-1])),
                      weight_vars[m - 1], out=rows(tape.products, hb.shape[-1])),
            np.multiply(hb, hb, out=rows(scratch, hb.shape[-1])))
    beta += np.einsum("nt,nt->n", np.multiply(dx, dx, out=rows(scratch, dx.shape[-1])),
                      x_var)
    return alpha, beta
