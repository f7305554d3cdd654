"""Factorized approximate posterior over embeddings, network weights,
selector indicators, and the noise precision.

Per weight we keep a Gaussian (mean, var), a Bernoulli selector probability,
and the sparsity-prior approximation term (term_mean, term_var, term_logit);
per embedding cell a Gaussian (mean, var); for continuous data a Gamma
posterior over the inverse noise variance. Total stored posterior scalars:
6*V weight fields + 2*sum_k d_k*r_k embedding fields (+2 Gamma fields).

Flat weight store: each weight field is one contiguous float64 vector in
NetworkSpec.weight_slices order (ModelState.mu, var, rho_post, term_mean,
term_var, term_logit). mu and var carry V_0 more coordinates after the weights, an
input slot the update engine fills with the current entry's gathered
embedding moments, so the per-entry update reads and writes whole vectors.
The slot is scratch, not posterior state: it is neither checkpointed nor
counted. Each WeightLayer in ModelState.weights is a set of reshape views
into those vectors, so `state.weights[m].mean[...] = x` writes the store.
Write through the views with `[...] =` (or an index); rebinding a layer
attribute (`lay.mean = x`) detaches it from the store and the engine will
not see the write. Copies (copy.deepcopy, pickle) rebuild the views over
the copy's own vectors.

Per-entry scratch: next to the layer views, _bind_layers builds the
buffers the per-entry update reuses from one entry to the next: a one-row
bnn.ForwardTape (layer inputs with their bias slot set once, one contiguous
pre-activation block, the backward vectors, and g with per-layer views),
two work vectors as long as mu, and each mode's view into the input slot.
The scratch belongs to the state: it is rebuilt, not copied, by deepcopy,
pickle and load_checkpoint, and is never checkpointed.

A ModelState is single-writer: the per-entry update and gather_entry write
its scratch. Read-only snapshots (deep copies) may be shared across threads
for prediction, which allocates its own buffers. Embeddings are mutated
only through scatter_entry.

Invariants (finite means, positive variances, selector probabilities
inside (0, 1), a valid Gamma posterior; see check_invariants) are checked
once, where state enters from outside: load_checkpoint rejects a document
that breaks them. adf_engine.process_batch checks a batch's indices and
values before its first entry, so gather_entry reads the entry's rows and
scatter_entry writes what the engine built (finite means, variances
clamped to at least v_floor) without re-checking either.

Checkpoints are versioned JSON with every posterior field named, one table
per layer (format version 1, independent of the in-memory layout); floats
are rendered with shortest round-trip decimals so load(save(s)) reproduces
s exactly, and the generator state is stored so a resumed run continues
the identical random stream.
"""

import json
import operator
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np
from scipy.special import ndtr, ndtri

from .bnn import ForwardTape, NetworkSpec
from .errors import CheckpointError
from .seeding import make_rng
from .tensor_core import TensorShape, ValueKind

CHECKPOINT_FORMAT = "streamdtf-checkpoint"
CHECKPOINT_VERSION = 1

# variance guard floor used by the update engine
DEFAULT_V_FLOOR = 1e-10

# WeightLayer fields, also the per-layer keys of a checkpoint
WEIGHT_FIELDS = ("mean", "var", "rho_post", "term_mean", "term_var", "term_logit")

# ModelState attributes _bind_layers builds over the flat vectors
_BOUND = ("weights", "tape", "work", "slot")


@dataclass(frozen=True)
class Hyperparams:
    """Model hyperparameters: prior inclusion probability, slab variance,
    Gamma shape/rate for the noise precision, and per-mode embedding ranks."""

    rho0: float = 0.5
    sigma0_sq: float = 1.0
    a0: float = 1.0
    b0: float = 1.0
    ranks: tuple[int, ...] = (8,)

    def __post_init__(self):
        if not 0.0 < self.rho0 < 1.0:
            raise ValueError(f"rho0 must be strictly inside (0, 1), got {self.rho0}")
        for name in ("sigma0_sq", "a0", "b0"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        object.__setattr__(self, "ranks", tuple(map(operator.index, self.ranks)))
        if any(r < 1 for r in self.ranks):
            raise ValueError(f"all ranks must be >= 1, got {self.ranks}")

    @property
    def input_dim(self) -> int:
        return sum(self.ranks)


@dataclass
class GammaPosterior:
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < np.inf and 0.0 < self.b < np.inf):
            raise ValueError(f"Gamma parameters must be finite and > 0, got "
                             f"({self.a}, {self.b})")


@dataclass
class ModeEmbeddings:
    """Gaussian tables for one tensor mode: (d_k, r_k) means and variances."""

    mean: np.ndarray
    var: np.ndarray


@dataclass
class WeightLayer:
    """Per-layer weight posterior and prior-term arrays, shape (V_m, V_{m-1}+1);
    views into the ModelState flat vectors."""

    mean: np.ndarray
    var: np.ndarray
    rho_post: np.ndarray
    term_mean: np.ndarray
    term_var: np.ndarray
    term_logit: np.ndarray


@dataclass
class ModelState:
    """The whole posterior. mu and var have length n_weights + V_0 (input slot
    last); rho_post and the three term fields have length n_weights. The
    per-entry scratch (tape, work, slot) is the state's own, rebuilt with
    the layer views and never part of a copy or a checkpoint."""

    shape: TensorShape
    kind: ValueKind
    net: NetworkSpec
    hyper: Hyperparams
    embeddings: list[ModeEmbeddings]
    gamma: GammaPosterior | None
    entries_seen: int
    rng: np.random.Generator
    mu: np.ndarray
    var: np.ndarray
    rho_post: np.ndarray
    term_mean: np.ndarray
    term_var: np.ndarray
    term_logit: np.ndarray
    weights: list[WeightLayer] = field(init=False, repr=False, compare=False)
    # per-entry scratch, built by _bind_layers: never checkpointed or copied
    tape: ForwardTape = field(init=False, repr=False, compare=False)
    work: np.ndarray = field(init=False, repr=False, compare=False)
    slot: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False,
                                                       compare=False)

    def __post_init__(self):
        self._bind_layers()

    def weight_fields(self) -> tuple[np.ndarray, ...]:
        """The six flat weight vectors in WEIGHT_FIELDS order, without the input slot."""
        n = self.net.n_weights
        return (self.mu[:n], self.var[:n], self.rho_post, self.term_mean, self.term_var,
                self.term_logit)

    def _bind_layers(self) -> None:
        """Bind the layer views over the flat vectors, and build the
        per-entry scratch next to them: a one-row ForwardTape, two work
        vectors as long as mu, and each mode's (mean, var) view into the
        input slot."""
        flats = self.weight_fields()
        self.weights = [
            WeightLayer(*(flat[sl].reshape(w_shape) for flat in flats))
            for sl, w_shape in zip(self.net.weight_slices, self.net.weight_shapes)
        ]
        self.tape = ForwardTape.allocate(self.net)
        self.work = np.empty((2, self.mu.shape[0]))
        self.slot = []
        offset = self.net.n_weights
        for r in self.hyper.ranks:
            self.slot.append((self.mu[offset:offset + r], self.var[offset:offset + r]))
            offset += r

    # copies carry the flat vectors only and rebuild the views and the
    # scratch over their own
    def __getstate__(self) -> dict:
        fields = dict(self.__dict__)
        for name in _BOUND:
            del fields[name]
        return fields

    def __setstate__(self, fields: dict) -> None:
        self.__dict__.update(fields)
        self._bind_layers()

    def weight_means(self) -> list[np.ndarray]:
        return [lay.mean for lay in self.weights]

    def weight_vars(self) -> list[np.ndarray]:
        return [lay.var for lay in self.weights]

    def gather_entry(self, index: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Copy one entry's embedding means/variances into the input slot and
        return the slot, (mu[n:], var[n:]), as views.

        Order: mode 1 first, ascending rank within a mode. The next gather
        overwrites the slot. Trusts its caller, as `scatter_entry` does: the
        index holds integers inside the shape (`adf_engine.process_batch`
        checks its batch)."""
        for (means, variances), emb, i in zip(self.slot, self.embeddings, index):
            means[...] = emb.mean[i]
            variances[...] = emb.var[i]
        n = self.net.n_weights
        return self.mu[n:], self.var[n:]

    def scatter_entry(self, index: Sequence[int]) -> None:
        """Copy the input slot back to the rows `gather_entry(index)` read.

        Trusts its caller: the index is the one gathered, and the slot holds
        finite means and variances > 0.
        """
        for (means, variances), emb, i in zip(self.slot, self.embeddings, index):
            emb.mean[i] = means
            emb.var[i] = variances


_RULES = {
    "finite": lambda x: np.isfinite(x).all(),
    "finite and > 0": lambda x: np.isfinite(x).all() and (x > 0).all(),
    "inside (0, 1)": lambda x: ((x > 0) & (x < 1)).all(),
}


def check_invariants(state: ModelState) -> None:
    """Raise ValueError naming the first posterior field that breaks its
    invariant: finite means and term logits; finite variances > 0
    (weights, terms, embeddings); selector probabilities inside (0, 1); and
    a Gamma posterior with finite a, b > 0, present exactly for continuous
    data. The update engine and the EP sweep keep these, so they are checked
    where state enters from outside (`load_checkpoint`), not per entry."""
    if (state.gamma is None) != (state.kind is ValueKind.BINARY):
        raise ValueError("a continuous model needs a Gamma noise posterior and a "
                         f"binary model has none; this {state.kind.value} model "
                         f"{'lacks' if state.gamma is None else 'has'} one")
    n = state.net.n_weights
    checks = [("weight mean", state.mu[:n], "finite"),
              ("weight var", state.var[:n], "finite and > 0"),
              ("rho_post", state.rho_post, "inside (0, 1)"),
              ("term_mean", state.term_mean, "finite"),
              ("term_var", state.term_var, "finite and > 0"),
              ("term_logit", state.term_logit, "finite")]
    for k, emb in enumerate(state.embeddings, start=1):
        checks += [(f"mode-{k} embedding mean", emb.mean, "finite"),
                   (f"mode-{k} embedding var", emb.var, "finite and > 0")]
    if state.gamma is not None:
        checks.append(("Gamma (a, b)", np.array([state.gamma.a, state.gamma.b]),
                       "finite and > 0"))
    for name, values, rule in checks:
        if not _RULES[rule](values):
            raise ValueError(f"every {name} must be {rule}")


def _truncated_standard_normal(rng: np.random.Generator, bound: float,
                               size: tuple[int, ...]) -> np.ndarray:
    # inverse-CDF sampling: deterministic draw count for any bound
    lo, hi = ndtr(-bound), ndtr(bound)
    return ndtri(rng.uniform(lo, hi, size=size))


def init_state(shape: TensorShape, kind: ValueKind, net: NetworkSpec,
               hyper: Hyperparams, seed: int) -> ModelState:
    """Fresh state: embeddings copy their standard-normal prior; each weight
    term gets variance sigma0_sq, a mean drawn from a standard Gaussian
    truncated to [-sigma0, sigma0], and logit 0; the weight posterior starts
    as its term alone and the selector posterior starts at rho0; the Gamma
    posterior starts at (a0, b0). Deterministic under the seed."""
    if len(hyper.ranks) != shape.mode_count:
        raise ValueError(
            f"need one rank per mode: {len(hyper.ranks)} ranks for "
            f"{shape.mode_count} modes"
        )
    if hyper.input_dim != net.input_dim:
        raise ValueError(
            f"network input width {net.input_dim} != sum of ranks {hyper.input_dim}"
        )
    rng = make_rng(seed)
    embeddings = [
        ModeEmbeddings(mean=np.zeros((d, r)), var=np.ones((d, r)))
        for d, r in zip(shape.dims, hyper.ranks)
    ]
    sigma0 = float(np.sqrt(hyper.sigma0_sq))
    n = net.n_weights
    # one draw over the flat ordering consumes the stream as per-layer draws would
    term_mean = _truncated_standard_normal(rng, sigma0, (n,))
    gamma = GammaPosterior(hyper.a0, hyper.b0) if kind is ValueKind.CONTINUOUS else None
    return ModelState(
        shape=shape, kind=kind, net=net, hyper=hyper, embeddings=embeddings,
        gamma=gamma, entries_seen=0, rng=rng,
        mu=_with_input_slot(term_mean, net.input_dim),
        var=_with_input_slot(np.full(n, hyper.sigma0_sq), net.input_dim),
        rho_post=np.full(n, hyper.rho0), term_mean=term_mean,
        term_var=np.full(n, hyper.sigma0_sq), term_logit=np.zeros(n),
    )


def _with_input_slot(weights: np.ndarray, input_dim: int) -> np.ndarray:
    """`weights` followed by a zeroed input slot of length input_dim."""
    return np.concatenate((weights, np.zeros(input_dim)))


# ---------------------------------------------------------------------------
# checkpoint IO


def _rng_state_to_doc(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return {
        "bit_generator": state["bit_generator"],
        # 128-bit integers go through as strings for portability
        "state": {k: str(v) for k, v in state["state"].items()},
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }


def _rng_state_from_doc(doc: dict) -> np.random.Generator:
    if doc.get("bit_generator") != "PCG64":
        raise CheckpointError(f"unsupported bit generator {doc.get('bit_generator')!r}")
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {k: int(v) for k, v in doc["state"].items()},
        "has_uint32": int(doc["has_uint32"]),
        "uinteger": int(doc["uinteger"]),
    }
    return rng


def _write_json(obj, fp: TextIO) -> None:
    """Write the text of json.dump(obj, fp, sort_keys=True,
    separators=(",", ":")) for a document whose dict keys are strings,
    encoding each value that holds no dict (a list
    of numbers, a scalar) with one json.dumps. json.dump runs its
    pure-Python encoder item by item, at twice the time; one json.dumps of
    the whole document holds every float's text at once, about 2 MB on the
    README configuration, where one array's text is at most 0.2 MB."""
    if isinstance(obj, dict):
        fp.write("{")
        for i, key in enumerate(sorted(obj)):
            fp.write(("," if i else "") + json.dumps(key) + ":")
            _write_json(obj[key], fp)
        fp.write("}")
    elif isinstance(obj, list) and any(isinstance(item, dict) for item in obj):
        fp.write("[")
        for i, item in enumerate(obj):
            fp.write("," if i else "")
            _write_json(item, fp)
        fp.write("]")
    else:
        fp.write(json.dumps(obj, separators=(",", ":")))


def save_checkpoint(state: ModelState, fp: TextIO) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dims": list(state.shape.dims),
        "kind": state.kind.value,
        "network": {"widths": list(state.net.widths), "activation": state.net.activation},
        "hyper": {
            "rho0": state.hyper.rho0,
            "sigma0_sq": state.hyper.sigma0_sq,
            "a0": state.hyper.a0,
            "b0": state.hyper.b0,
            "ranks": list(state.hyper.ranks),
        },
        "entries_seen": state.entries_seen,
        "embeddings": [
            {"mean": emb.mean.tolist(), "var": emb.var.tolist()}
            for emb in state.embeddings
        ],
        "weights": [
            {name: getattr(lay, name).tolist() for name in WEIGHT_FIELDS}
            for lay in state.weights
        ],
        "gamma": None if state.gamma is None else {"a": state.gamma.a, "b": state.gamma.b},
        "rng": _rng_state_to_doc(state.rng),
    }
    _write_json(doc, fp)
    fp.write("\n")


def _count(value) -> int:
    """A checkpoint's dim, width, rank or entries_seen: an int >= 0, and no
    bool (an int subclass), as the --config reader requires."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"a count must be an integer >= 0, got {value!r}")
    return value


def _real(value) -> float:
    """A checkpoint's hyperparameter or Gamma a or b: an int or a float, as
    read, and no bool or string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"a real must be a JSON number, got {value!r}")
    return value


def load_checkpoint(fp: TextIO) -> ModelState:
    try:
        doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"invalid or truncated checkpoint: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a model checkpoint document")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {doc.get('version')!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    try:
        shape = TensorShape(tuple(map(_count, doc["dims"])))
        kind = ValueKind.from_string(doc["kind"])
        net = NetworkSpec(tuple(map(_count, doc["network"]["widths"])),
                          doc["network"]["activation"])
        hyper = Hyperparams(ranks=tuple(map(_count, doc["hyper"]["ranks"])),
                            **{name: _real(doc["hyper"][name])
                               for name in ("rho0", "sigma0_sq", "a0", "b0")})
        embeddings = [
            ModeEmbeddings(mean=np.asarray(e["mean"], dtype=float),
                           var=np.asarray(e["var"], dtype=float))
            for e in doc["embeddings"]
        ]
        tables = {
            name: [np.asarray(w[name], dtype=float) for w in doc["weights"]]
            for name in WEIGHT_FIELDS
        }
        # built with the invariant checks below: a bad (a, b) is an
        # impossible posterior, not a schema violation
        gamma_ab = None if doc["gamma"] is None else (
            float(_real(doc["gamma"]["a"])), float(_real(doc["gamma"]["b"])))
        rng = _rng_state_from_doc(doc["rng"])
        entries_seen = _count(doc["entries_seen"])
        if len(embeddings) != shape.mode_count or len(hyper.ranks) != shape.mode_count \
                or hyper.input_dim != net.input_dim:
            raise CheckpointError("embedding tables do not match dims, ranks and network")
        for emb, d, r in zip(embeddings, shape.dims, hyper.ranks):
            if emb.mean.shape != (d, r) or emb.var.shape != (d, r):
                raise CheckpointError("embedding table shape mismatch")
        for arrs in tables.values():
            if [a.shape for a in arrs] != list(net.weight_shapes):
                raise CheckpointError("weight table shape mismatch")
        flat = {name: np.concatenate([a.ravel() for a in arrs])
                for name, arrs in tables.items()}
        state = ModelState(
            shape=shape, kind=kind, net=net, hyper=hyper, embeddings=embeddings,
            gamma=None, entries_seen=entries_seen, rng=rng,
            mu=_with_input_slot(flat["mean"], net.input_dim),
            var=_with_input_slot(flat["var"], net.input_dim),
            rho_post=flat["rho_post"], term_mean=flat["term_mean"],
            term_var=flat["term_var"], term_logit=flat["term_logit"],
        )
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint schema violation: {exc!r}") from None
    try:
        if gamma_ab is not None:
            state.gamma = GammaPosterior(*gamma_ab)
        check_invariants(state)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint holds an impossible posterior: {exc}") from None
    return state


def checkpoint_bytes(state: ModelState) -> bytes:
    """Canonical serialized form; handy for equality checks."""
    import io

    buf = io.StringIO()
    save_checkpoint(state, buf)
    return buf.getvalue().encode("utf-8")
