"""Deterministic feed-forward network skeleton: one forward pass and one
backward pass, and the consumers built on them.

Layer recursion: with hb = [h; 1] / sqrt(V_prev + 1) (a constant feature 1
is appended to carry the bias, and the whole product is rescaled by the fan
in), each hidden layer computes h_m = act(W_m @ hb_{m-1}) and the output
layer is linear with the same rescaling.

`_forward` is the only forward loop: it runs one input row or n rows at the
parameter means and records hb_{m-1} and z_m per layer on a `ForwardTape`,
for `forward_mean_batch` and `forward_mean`.
`_backward` is the only backward loop: from the tape alone (it holds the
spec and the weights the forward pass ran with) it returns
delta_m = d alpha / d z_m per layer and d alpha / dx. Layer m's weight
gradient is the outer product delta_m (x) hb_{m-1}, so every consumer reads
what it needs from these factors.

Buffers: both passes write into the buffers of the tape they run on (with
`out=`), and where it has none they allocate as they go. A tape belongs
to whoever allocated it. The per-entry update passes the one-row tape its
`ModelState` owns, which has every buffer, so one entry after another
allocates nothing, and `backprop_gradient` fills that tape's g. On that
tape g's output-layer block is the hb_{M-1} buffer: the output layer's
gradient delta_M hb_{M-1} is hb_{M-1} itself (delta_M = 1), so the forward
pass writes that block of g and the backward pass leaves it alone.
`predict_eval.running_eval` allocates one n-row tape per call, as large as
the test set, and scores every batch in it, so the re-scoring allocates
only its results. Batch consumers that pass no tape get an unbuffered one
per call, which the passes fill with new arrays, as an allocating
implementation would.

Binding: what the passes read that does not change between passes is
built once, not per pass. A tape fixes, when it is built, the hidden
activation, its gradient form for the tape's row count, and on a buffered
tape the view of each hb_{m-1} without its bias column. `ForwardTape.bind`
builds the weight views W_m.T and W_m[:, :V_{m-1}] over the weights
sequence the forward pass is given, and from them, the tape's buffers and
the spec's fan-in scales (`NetworkSpec.scale_operands`) the pass records:
per layer, one tuple of what a step of the pass reads. `_forward` and
`_backward` iterate the records, so a step unpacks one tuple instead of
indexing a list per operand. An unbuffered tape's records hold None where
hb, z and the buffers would be: its passes allocate those arrays and keep
them in the tape's lists. The records are rebuilt only when the tape is
given a different sequence object. The views alias the arrays, so a write
into their memory reaches the next pass, while replacing an item of a
bound list in place is not seen. `ModelState.weight_means()` returns the
same list on every call, so the state's one-row tape binds once per
state, copy or load, and `running_eval`'s n-row tape once per call; a
fresh list binds on each pass. Given a tape already bound to the weights
it is given, as the state's is, `forward_mean` runs `_forward` on the
input as it is: no conversion and no bind check.

Products: on one row every call costs more than its arithmetic, so the
passes call BLAS through the method `ndarray.dot`, numpy's cheapest entry
to it. The function np.dot computes the same product, but first enters a
Python-level `__array_function__` dispatcher, about 0.5 us a call (numpy
2.4, a 50-vector dot: 1.17 us against 0.71), which on one row is most of
the product's cost. z_m = hb_{m-1}.dot(W_m.T) on any row count, and on one
row each hidden layer's block of g is a k = 1 dot of delta_m as a column
and hb_{m-1} as a row, whose bits are np.multiply's except that a zero
product is +0.0. The backward product stays np.matmul(delta_m,
W_m[:, :V_{m-1}]): dot copies that strided view, and a full-width
delta_m.dot(W_m) rounds differently from it for some widths. The linear
output layer has no product on any row count: dh_{M-1} is
W_M[0, :V_{M-1}] / sqrt(V_{M-1} + 1), computed once as one row, which the
hidden layer's gradient broadcasts over n rows and which is written into
each row only where it is d alpha / dx (no hidden layer) or on one row;
its block of g is hb_{M-1} (above), and its term of the n-row output
variance is hb_{M-1}^2 summed against var_M's one row. These are the bytes
the products gave, except that a -0.0 weight or hb value stays -0.0 in
dh_{M-1} and g where the product made it +0.0. The finiteness screens of
the per-entry update (`all_finite`) are one dot each.

Scalar operands: under numpy 2's rule for Python scalars (NEP 50), a
Python float given to a ufunc costs more than a 0-d float64 array of the
same value, about 0.2-0.4 us a call, which on one row is a large share
of the call (numpy 2.4, Intel Xeon, timeit: np.divide of a 50-vector
0.54 against 0.36 us, np.maximum 0.56 against 0.39, np.heaviside 0.62
against 0.49, an in-place multiply of a 3,059-vector 1.04 against 0.83).
So every scalar operand of the passes is a read-only 0-d float64 array:
the fan-in scales (`NetworkSpec.scale_operands`) and the 0 and 1 of the
activation forms; the per-entry update writes its dalpha and c into two
0-d arrays its state owns. The ufunc runs the same float64 loop either
way, so the bits are the same, signed zeros, NaN, infinities and
subnormals included. `out=` stays a keyword: np.maximum given `out`
positionally is deprecated and about twice as slow.

Activation derivatives: a tape fixes the gradient form for its row count.
relu's act'(z) dh is np.heaviside(z, 0.0) then the multiply on one row,
where np.greater into the float delta buffer pays a bool-to-float cast,
and np.greater on n rows, where heaviside is 2-10x slower on inputs of
mixed sign. Both give H(0) = 0 and the same bytes for every z but NaN,
which heaviside keeps and greater maps to 0; the one-row pass screens z
before the backward pass.

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


def _operand(value: float) -> np.ndarray:
    """`value` as a read-only 0-d float64 array, the form of every scalar
    operand the passes give a ufunc (see "Scalar operands" above)."""
    operand = np.array(value, dtype=np.float64)
    operand.flags.writeable = False
    return operand


_ZERO = _operand(0.0)
_ONE = _operand(1.0)


def _relu(z, out):
    return np.maximum(z, _ZERO, out=out)


def _relu_grad(z, dh, out):
    if out is None:
        out = np.empty_like(z)
    np.greater(z, _ZERO, out=out)  # the derivative at exactly 0 is defined as 0
    out *= dh
    return out


def _relu_grad_one_row(z, dh, out):
    # H(z) with H(0) = 0, written as floats: no bool-to-float cast
    out = np.heaviside(z, _ZERO, out=out)
    out *= dh
    return out


def _tanh_grad(z, dh, out):
    t = np.tanh(z, out=out)
    np.subtract(_ONE, np.multiply(t, t, out=t), out=t)
    t *= dh
    return t


def _identity_grad(z, dh, out):
    if out is None:
        out = np.empty_like(z)
    return np.positive(dh, out=out)


# name -> (act(z, out), grad(z, dh, out) = act'(z) * dh); each writes into
# `out`, or into a new array of z's shape when `out` is None, and returns
# it. On n rows dh may be one row, which broadcasts over z's rows
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (_relu, _relu_grad),
    "tanh": (np.tanh, _tanh_grad),
    "identity": (np.positive, _identity_grad),
}

# the one-row tape's gradient where it differs from ACTIVATIONS' (see
# "Activation derivatives" above)
_ONE_ROW_GRADS: dict[str, Callable] = {"relu": _relu_grad_one_row}

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

    # copies (copy.deepcopy, pickle) carry the fields alone: a copy computes
    # its cached properties anew, so its scale operands are read-only too
    def __getstate__(self) -> dict:
        return {"widths": self.widths, "activation": self.activation}

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

    @cached_property
    def scale_operands(self) -> tuple[np.ndarray, ...]:
        """`fan_in_scales` as read-only 0-d float64 arrays, the operands the
        passes divide by."""
        return tuple(map(_operand, self.fan_in_scales))


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
    `outer` holds each hidden layer's block of g next to the (V_m, 1) and
    (1, V_{m-1} + 1) views of delta_m and hb_{m-1} whose dot fills it;
    the output layer's block is hb_{M-1}'s buffer. The forward pass writes
    h_m into dh[m], which the backward pass then overwrites with
    d alpha / d h_m, except on n rows for m = M - 1: that gradient is one
    row, which the backward pass keeps apart.
    `act` and `grad` are the hidden activation and its gradient form for
    the tape's row count.

    `forward`, `head` and `backward` are the pass records `bind` builds
    over the weights the tape is bound to: per layer, what one step of a
    pass reads, so a pass unpacks one tuple per layer instead of indexing
    a list per operand. The weight views alias `weights`.
    - `forward`, one per layer m = 1..M: (fan-in scale, hb_{m-1} without
      its bias column, hb_{m-1}, W_m.T, z_m, the hidden activation or None
      for the output layer, the buffer of h_m);
    - `head`: (W_M[0, :V_{M-1}], its fan-in scale, the buffer dh_{M-1} is
      written into, or None, and the shape to allocate it in, or None);
    - `backward`, one per hidden layer m = M-1..1: (m - 1, z_m, which
      delta_m overwrites, W_m[:, :V_{m-1}], the buffer of dh_{m-1}, the
      fan-in scale).
    On an unbuffered tape the hb, z and buffer items are None: the passes
    allocate those arrays and keep them in the lists above."""

    spec: NetworkSpec
    act: Callable  # act(z, out)
    grad: Callable  # act'(z) * dh, into out
    hb: list  # hb_0 .. hb_{M-1}, each [h; 1]/sqrt(V+1)
    hb_body: list  # each hb without its bias column; None entries when unbuffered
    preacts: np.ndarray | None  # z_1 .. z_M, one block
    preact: list  # z_1 .. z_M, views into preacts
    deltas: list  # delta_1 .. delta_M = d alpha / d z_m: preact[:-1], then `ones`
    ones: np.ndarray  # 1 per row: delta_M, and the bias feature of hb
    dh: list  # d alpha / d h_{m-1}, m = 1..M; dh[0] is d alpha / dx
    scratch: np.ndarray | None  # flat, room for (rows, max V + 1)
    g: np.ndarray | None  # one row: the dense gradient, dh[0] its input block
    # one row, per layer m < M: (its (V_m, V_{m-1}+1) view into g, delta_m
    # as a column, hb_{m-1} as a row)
    outer: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    inputs: np.ndarray | None  # n rows: (n, V_0) input means, then dh[0]
    input_vars: np.ndarray | None  # n rows: (n, V_0) input variances
    products: np.ndarray | None  # n rows: flat, each layer's (delta^2) var
    # set by bind: the weights the records' views alias, and the records
    weights: Sequence[np.ndarray] | None = None
    forward: tuple[tuple, ...] = ()
    head: tuple = ()
    backward: tuple[tuple, ...] = ()

    @classmethod
    def allocate(cls, spec: NetworkSpec, lead: tuple[int, ...] = ()) -> "ForwardTape":
        """A tape with every buffer, for inputs of leading shape `lead`: the
        hb arrays with their bias column set to 1/sqrt(V+1), the
        pre-activations as one block (one finite check covers them),
        delta_M = 1 and the flat scratch. One row (lead ()) adds g with its
        layer blocks and the outer-product factors, hb_{M-1} being g's
        output-layer block and dh[0] its input block; n rows add the input
        buffers `predict_eval` gathers into, dh[0] being `inputs`, and the
        flat `products` the output moments use."""
        rows = math.prod(lead)
        widths, outs = spec.widths, spec.widths[1:]
        # one row: g, whose output-layer block delta_M hb_{M-1} is hb_{M-1}
        # itself, so that block is the hb_{M-1} buffer
        g = None if lead else np.empty(spec.n_weights + spec.input_dim)
        hb = [np.empty(lead + (v + 1,)) for v in widths[:-2]]
        hb.append(g[spec.weight_slices[-1]] if g is not None
                  else np.empty(lead + (widths[-2] + 1,)))
        for buf, scale in zip(hb, spec.fan_in_scales):
            buf[..., -1] = 1.0 / scale
        preacts = np.empty(rows * sum(outs))
        bounds = rows * np.cumsum((0,) + outs)
        preact = [preacts[lo:hi].reshape(lead + (v,))
                  for lo, hi, v in zip(bounds[:-1], bounds[1:], outs)]
        ones = np.ones(lead + (1,))
        deltas = preact[:-1] + [ones]
        scratch = np.empty(rows * (max(widths[:-1]) + 1))
        hidden = [scratch[:rows * v].reshape(lead + (v,)) for v in widths[1:-1]]
        act, grad = ACTIVATIONS[spec.activation]
        outer, inputs, input_vars, products = [], None, None, None
        if lead:
            inputs, input_vars = (np.empty(lead + (spec.input_dim,)) for _ in range(2))
            products = np.empty(scratch.shape)
            dx = inputs
        else:
            outer = [(g[sl].reshape(shape), d.reshape(-1, 1), b.reshape(1, -1))
                     for sl, shape, d, b
                     in zip(spec.weight_slices[:-1], spec.weight_shapes, deltas, hb)]
            dx = g[spec.n_weights:]
            grad = _ONE_ROW_GRADS.get(spec.activation, grad)
        return cls(spec=spec, act=act, grad=grad, hb=hb,
                   hb_body=[buf[..., :-1] for buf in hb], preacts=preacts,
                   preact=preact, deltas=deltas, ones=ones, dh=[dx] + hidden,
                   scratch=scratch, g=g, outer=outer, inputs=inputs,
                   input_vars=input_vars, products=products)

    @classmethod
    def unbuffered(cls, spec: NetworkSpec, lead: tuple[int, ...]) -> "ForwardTape":
        """An n-row tape with no buffers but delta_M = 1: the passes allocate
        as they go, as an allocating implementation would."""
        ones = np.ones(lead + (1,))
        none = [None] * spec.layer_count
        act, grad = ACTIVATIONS[spec.activation]
        return cls(spec=spec, act=act, grad=grad, hb=none.copy(), hb_body=none,
                   preacts=None, preact=none.copy(),
                   deltas=none[1:] + [ones], ones=ones, dh=none.copy(), scratch=None,
                   g=None, outer=[], inputs=None, input_vars=None, products=None)

    def bind(self, weights: Sequence[np.ndarray]) -> None:
        """Build the pass records over `weights`, one array per layer, and
        the tape's buffers, with the weight views W_m.T and W_m[:, :V_{m-1}],
        unless they already view this very sequence: a caller that passes
        the same list on every pass (`ModelState.weight_means()`) binds
        once, and writes into the arrays' memory reach every later pass."""
        if weights is self.weights:
            return
        spec, act, dh = self.spec, self.act, self.dh
        last = spec.layer_count - 1
        # an unbuffered tape's hb and z are each pass's new arrays
        hb, z = ((self.hb, self.preact) if self.preacts is not None
                 else ((None,) * (last + 1),) * 2)
        forward, backward = [], []
        for m, (w, v, scale) in enumerate(zip(weights, spec.widths, spec.scale_operands)):
            if m < last:
                forward.append((scale, self.hb_body[m], hb[m], w.T, z[m], act, dh[m + 1]))
                backward.append((m, z[m], w[:, :v], dh[m], scale))
            else:
                forward.append((scale, self.hb_body[m], hb[m], w.T, z[m], None, None))
        self.forward = tuple(forward)
        self.backward = tuple(reversed(backward))
        # dh_{M-1} is one row. On n rows with a hidden layer below, that
        # layer's gradient broadcasts it; otherwise it goes into dh's
        # buffer or, on an unbuffered tape, into a new array of each pass
        lead = self.ones.shape[:-1]
        broadcast = bool(last and lead)
        out = None if broadcast else dh[last]
        shape = lead + (v,) if out is None and not broadcast else None
        self.head = (w[0, :v], scale, out, shape)
        self.weights = weights

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
    return math.isfinite(x.dot(x)) or bool(np.isfinite(x).all())


def forward_mean_batch(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                       inputs: np.ndarray,
                       tape: ForwardTape | None = None) -> tuple[np.ndarray, ForwardTape]:
    """The forward pass at the parameter means; returns (alpha, tape).

    `inputs` holds n rows (n, V_0), giving alpha[n], or one row (V_0,),
    giving alpha as a numpy scalar. The weights are float arrays of
    `spec.weight_shapes`, checked where they enter (`load_checkpoint`) or
    drawn to their shapes (`synth_generate`).
    The pass writes into `tape`, which must have been allocated for the
    inputs' leading shape, or into a fresh tape when none is given: a
    buffered one for one row, an unbuffered one for n rows. The tape is
    bound to `weight_means` first (`ForwardTape.bind`).
    """
    x = np.asarray(inputs, dtype=float)
    if tape is None:
        lead = x.shape[:-1]
        tape = ForwardTape.unbuffered(spec, lead) if lead else ForwardTape.allocate(spec)
    tape.bind(weight_means)
    return _forward(tape, x), tape


def _forward(tape: ForwardTape, h: np.ndarray):
    """The forward pass over the records of a bound tape, from the input
    rows h; returns alpha as `forward_mean_batch` does."""
    for m, (scale, body, hb, w_t, z, act, h_out) in enumerate(tape.forward):
        # hb_{m-1} = [h; 1] / scale: into the buffer, whose bias column
        # already holds 1/scale, or as a new array, since on a few rows a
        # strided write into a preset buffer is slower than dividing the
        # concatenation in place
        if body is None:
            hb = tape.hb[m] = np.concatenate((h, tape.ones), axis=-1)
            hb /= scale
            z = tape.preact[m] = hb.dot(w_t)
        else:
            np.divide(h, scale, out=body)
            hb.dot(w_t, z)
        if act is not None:
            # h_m goes into a buffer of the backward pass; an unbuffered
            # tape keeps no h: the next layer's hb holds it
            h = act(z, out=h_out)
    # n rows: a copy, since the tape's next pass overwrites z_M; one row: a
    # numpy scalar, which holds none of the tape's memory
    return z[..., 0].copy() if z.ndim > 1 else z[0]


def _backward(tape: ForwardTape) -> tuple[list[np.ndarray], np.ndarray]:
    """The backward pass: returns (delta_1..delta_M, d alpha / dx), where
    delta_m = d alpha / d z_m, so layer m's weight gradient is the outer
    product delta_m (x) hb_{m-1}, row by row. Both are the tape's buffers;
    on a buffered tape delta_m (m < M) overwrites z_m."""
    # the output layer is linear with delta_M = 1, so on every row dh_{M-1}
    # is W_M's weight row over its fan-in scale: no product
    w_row, scale, out, shape = tape.head
    grad_h = np.divide(w_row, scale, out=out if shape is None else np.empty(shape))
    grad = tape.grad
    for i, z, w_in, dh, scale in tape.backward:
        if z is None:  # an unbuffered tape: z_m is its forward pass's array
            delta = tape.deltas[i] = grad(tape.preact[i], grad_h, out=None)
        else:
            delta = grad(z, grad_h, out=z)
        grad_h = np.matmul(delta, w_in, out=dh)
        grad_h /= scale
    return tape.deltas, grad_h


def forward_mean(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                 input_mean: np.ndarray,
                 tape: ForwardTape | None = None) -> tuple[float, ForwardTape]:
    """Evaluate the network at the parameter means on one input row, in
    `tape` (a one-row tape) or a fresh one; returns (alpha, tape). Raises
    NumericError on a non-finite pre-activation. The screen is
    `all_finite`: pre-activations past about 1e154 overflow its dot, which
    numpy reports unless the caller ignores overflow, as the per-entry
    update does under `adf_engine.entry_errstate()`. On a tape already
    bound to `weight_means` the input must be a float array of shape
    (V_0,): it is read as it is, where `forward_mean_batch` converts it."""
    if tape is None or weight_means is not tape.weights:
        alpha, tape = forward_mean_batch(spec, weight_means, input_mean, tape)
    else:
        # a tape already bound to these weights, as the state's own is
        alpha = _forward(tape, input_mean)
    if not all_finite(tape.preacts):
        for m, z in enumerate(tape.preact, start=1):
            if not np.isfinite(z).all():
                raise NumericError(f"non-finite pre-activation in layer {m}")
    return float(alpha), tape


def backprop_gradient(tape: ForwardTape) -> np.ndarray:
    """Reverse-mode gradient of the scalar output over all weights and inputs
    of the one row `tape` was recorded on (by `forward_mean`), flattened in
    `NetworkSpec.weight_slices` order with the V_0 input coordinates last.
    The array is the tape's `g`, which the next passes on the tape
    overwrite. The caller must not write it: its output-layer block is the
    tape's hb_{M-1}, whose bias slot is set once, when the tape is built.

    g is not scanned for non-finite values: the per-entry update, its one
    hot caller, computes beta = sum_j g_j (gamma_j g_j) over variances that
    are all finite and > 0, so any NaN or infinite g_j makes beta NaN or
    +inf, and the update skips the entry on that check alone."""
    # d alpha / dx lands in g's input block; the forward pass wrote the
    # output layer's block, hb_{M-1}
    _backward(tape)
    for g_m, delta, hb in tape.outer:
        delta.dot(hb, g_m)
    return tape.g


def output_moments_batch(spec: NetworkSpec, weight_means: Sequence[np.ndarray],
                         weight_vars: Sequence[np.ndarray], input_means: np.ndarray,
                         input_vars: np.ndarray | None,
                         tape: ForwardTape | None = None
                         ) -> tuple[np.ndarray, np.ndarray | None]:
    """Batched (alpha, beta): per-row first-order output moments.

    Avoids materializing per-entry weight gradients; each layer's variance
    contribution is sum_{j,t} delta[n,j]^2 var_w[j,t] hb[n,t]^2. The
    linear output layer has delta_M = 1 on every row, so its term is
    sum_t var_M[0,t] hb[n,t]^2, with no (delta^2) var product: the same
    bytes as the product form, which gave var_M's row on every row.

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
    # delta^2, hb^2 and dx^2 take turns in scratch; on an unbuffered tape
    # rows() is None and each is a new array, unnamed so that it is freed
    # as soon as einsum has read it
    scratch, rows = tape.scratch, tape.rows_view
    hb = tape.hb[-1]
    beta = np.einsum("nt,t->n", np.multiply(hb, hb, out=rows(scratch, hb.shape[-1])),
                     weight_vars[-1][0])
    for m in range(spec.layer_count - 1, 0, -1):
        delta, hb = deltas[m - 1], tape.hb[m - 1]
        beta += np.einsum(
            "nt,nt->n",
            np.matmul(np.multiply(delta, delta, out=rows(scratch, delta.shape[-1])),
                      weight_vars[m - 1], out=rows(tape.products, hb.shape[-1])),
            np.multiply(hb, hb, out=rows(scratch, hb.shape[-1])))
    beta += np.einsum("nt,nt->n", np.multiply(dx, dx, out=rows(scratch, dx.shape[-1])),
                      x_var)
    return alpha, beta
