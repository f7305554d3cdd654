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
counted. ModelState._bind_layers builds the views over those vectors: each
WeightLayer in ModelState.weights is a set of reshape views into them, so
`state.weights[m].mean[...] = x` writes the store; `means` is the list of
the layers' mean views that weight_means() returns on every call; `slot`
is the input slot's (mean, var) views that gather_entry returns; and
`slot_modes` holds per mode a (table mean, table var, slot mean, slot var)
tuple that gather_entry and scatter_entry copy between. Write through the
views with `[...] =` (or an index); rebinding an attribute (`lay.mean = x`,
`emb.mean`, `state.embeddings`, `state.mu`) detaches it from the store,
and the engine will not see the write.

Copies carry the posterior alone: copy.deepcopy and pickle carry the
dataclass init fields (ModelState.__getstate__), and a copy, like a loaded
checkpoint, binds the views over its own vectors. Whatever else a state
holds is the working memory of the module that built it, adf_engine's
per-entry scratch and predict_eval's batch tapes, which a copy or a
loaded state builds anew when it first updates or predicts.

A ModelState is single-writer: the per-entry update and gather_entry write
its input slot and the update's scratch. Any number of threads may
predict from one state while no thread writes it: each predicts in its
own batch tape. Embeddings are mutated only through scatter_entry.

Invariants (finite means, positive variances, selector probabilities
inside (0, 1), a valid Gamma posterior; see check_invariants) are checked
once, where state enters from outside: load_checkpoint rejects a document
that breaks them. adf_engine.process_batch checks a batch's indices and
values before its first entry, so gather_entry reads the entry's rows and
scatter_entry writes what the engine built (finite means, variances
clamped to at least v_floor) without re-checking either.

Checkpoints are versioned JSON with every posterior field named, one table
per layer (format version 3, independent of the in-memory layout). Each
table is one string, the lowercase hex of its row-major little-endian
float64 bytes, so load(save(s)) reproduces s exactly; its shape follows
from dims, ranks and widths. A checkpoint holds the posterior alone: given
it and the next batch, the update and the EP sweep are deterministic, so a
resumed run needs no random generator. Versions 1 and 2 still load: their
tables are lists of rows of shortest round-trip decimals, and version 1
also holds a generator-state block, which load_checkpoint ignores.
"""

import binascii
import io
import itertools
import json
import operator
import struct
from dataclasses import dataclass, field, fields
from typing import BinaryIO, Sequence, TextIO

import numpy as np

from .bnn import NetworkSpec
from .errors import CheckpointError
from .seeding import make_rng
from .special import ndtr, ndtri
from .tensor_core import TensorShape, ValueKind

CHECKPOINT_FORMAT = "streamdtf-checkpoint"
CHECKPOINT_VERSION = 3

# variance guard floor used by the update engine
DEFAULT_V_FLOOR = 1e-10

# WeightLayer fields, also the per-layer keys of a checkpoint
WEIGHT_FIELDS = ("mean", "var", "rho_post", "term_mean", "term_var", "term_logit")


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
        # the reals are stored as floats, as the ranks as ints: an int too
        # large for a float, which the checks above pass, raises OverflowError
        for name in ("rho0", "sigma0_sq", "a0", "b0"):
            object.__setattr__(self, name, float(getattr(self, name)))
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
    views over them (weights, means, slot, slot_modes) are bound with the
    state and again with every copy, and never checkpointed."""

    shape: TensorShape
    kind: ValueKind
    net: NetworkSpec
    hyper: Hyperparams
    embeddings: list[ModeEmbeddings]
    gamma: GammaPosterior | None
    entries_seen: int
    mu: np.ndarray
    var: np.ndarray
    rho_post: np.ndarray
    term_mean: np.ndarray
    term_var: np.ndarray
    term_logit: np.ndarray
    weights: list[WeightLayer] = field(init=False, repr=False, compare=False)
    means: list[np.ndarray] = field(init=False, repr=False, compare=False)
    slot: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    slot_modes: list[tuple[np.ndarray, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._bind_layers()

    def weight_fields(self) -> tuple[np.ndarray, ...]:
        """The six flat weight vectors in WEIGHT_FIELDS order, without the input slot."""
        n = self.net.n_weights
        return (self.mu[:n], self.var[:n], self.rho_post, self.term_mean, self.term_var,
                self.term_logit)

    def _bind_layers(self) -> None:
        """Bind the layer views over the flat vectors, the list of their
        means, the input slot's (mean, var) views, and per mode its
        embedding tables next to its (mean, var) views into the slot."""
        flats = self.weight_fields()
        self.weights = [
            WeightLayer(*(flat[sl].reshape(w_shape) for flat in flats))
            for sl, w_shape in zip(self.net.weight_slices, self.net.weight_shapes)
        ]
        self.means = [lay.mean for lay in self.weights]
        n = self.net.n_weights
        self.slot = (self.mu[n:], self.var[n:])
        starts = itertools.accumulate(self.hyper.ranks, initial=n)
        self.slot_modes = [(emb.mean, emb.var, self.mu[lo:lo + r], self.var[lo:lo + r])
                           for emb, lo, r in zip(self.embeddings, starts, self.hyper.ranks)]

    # copies carry the init fields alone and bind their views over their
    # own vectors: what other modules keep on a state is left behind
    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def __setstate__(self, values: dict) -> None:
        self.__dict__.update(values)
        self._bind_layers()

    def weight_means(self) -> list[np.ndarray]:
        """Each layer's mean view, as the same list on every call, so a tape
        given it binds once (`bnn.ForwardTape.bind`). The list is built
        with the layer views: rebinding `lay.mean` detaches it from the
        store and from this list alike."""
        return self.means

    def weight_vars(self) -> list[np.ndarray]:
        return [lay.var for lay in self.weights]

    def gather_entry(self, index: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Copy one entry's embedding means/variances into the input slot and
        return the slot, (mu[n:], var[n:]), as views.

        Order: mode 1 first, ascending rank within a mode. The next gather
        overwrites the slot. Trusts its caller, as `scatter_entry` does: the
        index holds integers inside the shape (`adf_engine.process_batch`
        checks its batch)."""
        for (table_mean, table_var, means, variances), i in zip(self.slot_modes, index):
            means[...] = table_mean[i]
            variances[...] = table_var[i]
        return self.slot

    def scatter_entry(self, index: Sequence[int]) -> None:
        """Copy the input slot back to the rows `gather_entry(index)` read.

        Trusts its caller: the index is the one gathered, and the slot holds
        finite means and variances > 0.
        """
        for (table_mean, table_var, means, variances), i in zip(self.slot_modes, index):
            table_mean[i] = means
            table_var[i] = variances


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
        gamma=gamma, entries_seen=0,
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


def _hex(table: np.ndarray) -> str:
    """A version-3 table: the lowercase hex of its row-major little-endian
    float64 bytes."""
    return np.asarray(table, "<f8").tobytes().hex()


def _checkpoint_doc(state: ModelState, table) -> dict:
    """The checkpoint document of `state`, each table given as table(array)."""
    return {
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
            {"mean": table(emb.mean), "var": table(emb.var)}
            for emb in state.embeddings
        ],
        "weights": [
            {name: table(getattr(lay, name)) for name in WEIGHT_FIELDS}
            for lay in state.weights
        ],
        "gamma": None if state.gamma is None else {"a": state.gamma.a, "b": state.gamma.b},
    }


def save_checkpoint(state: ModelState, fp: TextIO) -> None:
    """Write the document `json.dumps(doc, sort_keys=True,
    separators=(",", ":"))` writes, then a newline. The tables, most of its
    characters, are hex digits, which JSON writes as they are, so json
    writes the document with a placeholder string for each table, a NUL
    and the table's number (its escape, \\u0000, can stand in no other
    string of a checkpoint), and each placeholder is then replaced by its
    table: json does not scan the digits."""
    tables = []

    def placeholder(array: np.ndarray) -> str:
        tables.append(_hex(array))
        return f"\0{len(tables) - 1}"

    text = json.dumps(_checkpoint_doc(state, placeholder), sort_keys=True,
                      separators=(",", ":"))
    head, *pieces = text.split('"\\u0000')
    parts = [head]
    for piece in pieces:
        number, rest = piece.split('"', 1)
        parts += ['"', tables[int(number)], '"', rest]
    parts.append("\n")
    fp.write("".join(parts))


def _count(value) -> int:
    """A checkpoint's dim, width, rank or entries_seen: an int >= 0."""
    if type(value) is not int or value < 0:
        raise ValueError(f"a count must be an integer >= 0, got {value!r}")
    return value


def _real(value) -> float:
    """A checkpoint's hyperparameter or Gamma a or b: an int or a float, as
    read."""
    if type(value) not in (int, float):
        raise TypeError(f"a real must be a JSON number, got {value!r}")
    return value


def _holds_bool_literal(text: str) -> bool:
    """Whether a JSON text holds a true or false literal, which a saved
    checkpoint of any version does not. The u of true and the l of false
    sit at index 2 of the literal, and a saved checkpoint holds a handful
    of either character, in its keys and names (the hex digits of its
    tables are neither), so a one-character find skips from one to the
    next: on the README checkpoint, 326,752 characters with 3 u's and 4
    l's, about 13 us against 0.7 ms for a search for both literals
    (timeit, one core)."""
    for char, literal in (("u", "true"), ("l", "false")):
        at = text.find(char, 2)
        while at >= 0:
            if text.startswith(literal, at - 2):
                return True
            at = text.find(char, at + 1)
    return False


def _decimal_table(rows, out: np.ndarray) -> np.ndarray:
    """A version-1 or -2 table written into `out`, whose shape is the
    table's: equal-length rows of JSON numbers. A string or a null cell
    raises TypeError, where a cast with dtype=float reads "0.25" as 0.25.
    struct packs the cells as doubles, which refuses every non-number but
    a bool, and the loader has refused a document holding a bool before any
    table is read. A hex string, read as rows of one character, fails the
    shape check."""
    n = len(rows)
    k = len(rows[0]) if n else 0
    if set(map(len, rows)) - {k}:
        raise ValueError("a table's rows must have equal lengths")
    if (n, k) != out.shape:
        raise ValueError(f"a table of shape {(n, k)} where {out.shape} is due")
    try:
        struct.pack_into(f"{n * k}d", out, 0, *itertools.chain.from_iterable(rows))
    except struct.error:
        raise TypeError("a table's cells must be JSON numbers") from None
    return out


def _hex_table(text, out: np.ndarray) -> np.ndarray:
    """A version-3 table written into `out`, whose shape is the table's: a
    string of exactly 16 hex digits per cell, decoded as little-endian
    float64 with one copy, from the decoded bytes into `out`.
    binascii.unhexlify refuses anything but a string or bytes, an odd
    length and any non-hex character, whitespace included (which
    bytes.fromhex would skip), at half bytes.fromhex's time; frombuffer
    refuses a part of a cell, and the reshape any other cell count."""
    out[...] = np.frombuffer(binascii.unhexlify(text), "<f8").reshape(out.shape)
    return out


def load_checkpoint(fp: TextIO | BinaryIO) -> ModelState:
    """The state a checkpoint file holds, read from a file opened in text
    mode or in binary mode, whose bytes are read as UTF-8. Raises
    CheckpointError on a document that is not a valid checkpoint."""
    text = fp.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"a checkpoint is UTF-8 text: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"invalid or truncated checkpoint: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a model checkpoint document")
    # versions 1 and 2 write their tables as decimals, and version 1 also
    # holds a generator-state block, which no step reads. A version is a
    # JSON int, so true and 1.0, which equal 1, are no version
    version = doc.get("version")
    if type(version) is not int or version not in (1, 2, CHECKPOINT_VERSION):
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(expected 1, 2 or {CHECKPOINT_VERSION})"
        )
    # no field of a checkpoint is a bool, and a bool is an int to Python, a
    # double to struct: refusing the literals here spares every reader below
    if _holds_bool_literal(text):
        raise CheckpointError("checkpoint schema violation: a checkpoint holds no true "
                              "or false literal")
    table = _hex_table if version == CHECKPOINT_VERSION else _decimal_table
    try:
        shape = TensorShape(tuple(map(_count, doc["dims"])))
        kind = ValueKind.from_string(doc["kind"])
        net = NetworkSpec(tuple(map(_count, doc["network"]["widths"])),
                          doc["network"]["activation"])
        hyper = Hyperparams(ranks=tuple(map(_count, doc["hyper"]["ranks"])),
                            **{name: _real(doc["hyper"][name])
                               for name in ("rho0", "sigma0_sq", "a0", "b0")})
        if len(doc["embeddings"]) != shape.mode_count \
                or len(hyper.ranks) != shape.mode_count or hyper.input_dim != net.input_dim:
            raise CheckpointError("embedding tables do not match dims, ranks and network")
        if len(doc["weights"]) != len(net.weight_shapes):
            raise CheckpointError("weight tables do not match the network")
        embeddings = [
            ModeEmbeddings(mean=table(e["mean"], np.empty((d, r))),
                           var=table(e["var"], np.empty((d, r))))
            for e, d, r in zip(doc["embeddings"], shape.dims, hyper.ranks)
        ]
        # each weight table is decoded into its slice of one flat vector
        # per field; mean and var carry the zeroed input slot
        n = net.n_weights
        flat = {name: np.zeros(n + net.input_dim) if name in ("mean", "var") else np.empty(n)
                for name in WEIGHT_FIELDS}
        for name in WEIGHT_FIELDS:
            for w, sl, w_shape in zip(doc["weights"], net.weight_slices, net.weight_shapes):
                table(w[name], flat[name][sl].reshape(w_shape))
        # built with the invariant checks below: a bad (a, b) is an
        # impossible posterior, not a schema violation
        gamma_ab = None if doc["gamma"] is None else (
            float(_real(doc["gamma"]["a"])), float(_real(doc["gamma"]["b"])))
        entries_seen = _count(doc["entries_seen"])
        state = ModelState(
            shape=shape, kind=kind, net=net, hyper=hyper, embeddings=embeddings,
            gamma=None, entries_seen=entries_seen, mu=flat["mean"], var=flat["var"],
            rho_post=flat["rho_post"], term_mean=flat["term_mean"],
            term_var=flat["term_var"], term_logit=flat["term_logit"],
        )
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    buf = io.StringIO()
    save_checkpoint(state, buf)
    return buf.getvalue().encode("utf-8")
