"""Sparse observed-entry data model.

COO text ingestion, train/test splitting, stream shuffling and batch
partitioning, and seeded synthetic data generation (multilinear and
random-network generators).

Everything here is a pure value transformation: no shared mutable state,
safe to call concurrently on distinct inputs.

COO text format: optional '#' comment lines, blank lines skipped; each data
line holds K 0-based integer node indices followed by one value, whitespace
separated, UTF-8, LF or CRLF. Tokens are read by `int()` and `float()`.
Values are rendered with full-precision decimal `repr` so parse -> write ->
parse is the identity.

COO and index lines are read `_CHUNK_LINES` at a time, each chunk a column
at a time (`_parse_columns`). A chunk where that raises is read again line
by line (`_parse_lines`), the one reader that words a parse error, so what
is raised and the line it names do not depend on the chunk size.
"""

import itertools
import json
import math
import operator
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from . import bnn
from .errors import BoundsError, ParseError
from .seeding import make_rng


class ValueKind(Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"

    @classmethod
    def from_string(cls, name: str) -> "ValueKind":
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):  # AttributeError: not a string
            raise ValueError(f"unknown value kind {name!r}") from None

    def check_value(self, value: float) -> None:
        """Raise ValueError unless `value` is finite and, for binary data, 0 or 1."""
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value}")
        if self is ValueKind.BINARY and value not in (0.0, 1.0):
            raise ValueError(f"binary value must be 0 or 1, got {value}")

    def check_values(self, values) -> np.ndarray:
        """`values` as an array, each checked as `check_value` checks one."""
        v = np.asarray(values)
        bad = (v != 0) & (v != 1) if self is ValueKind.BINARY else ~np.isfinite(v)
        if bad.any():
            self.check_value(v[bad.argmax()])  # raises for this value
        return v


@dataclass(frozen=True)
class TensorShape:
    """Mode sizes d_1..d_K of a K-mode tensor."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) < 1:
            raise ValueError("a tensor needs at least one mode")
        object.__setattr__(self, "dims", tuple(map(operator.index, self.dims)))
        if any(d < 1 for d in self.dims):
            raise ValueError(f"all mode sizes must be >= 1, got {self.dims}")

    @property
    def mode_count(self) -> int:
        return len(self.dims)

    @property
    def n_cells(self) -> int:
        return math.prod(self.dims)

    # the shape is frozen, so this is built once per instance
    @cached_property
    def dims_array(self) -> np.ndarray:
        """`dims` as a read-only int64 array, which `check_indices` compares
        with every request without converting the tuple each call."""
        dims = np.array(self.dims, dtype=np.int64)
        dims.flags.writeable = False
        return dims

    def check_index(self, index: Sequence[int]) -> tuple[int, ...]:
        """`index` as a tuple of ints. A non-integral coordinate raises
        TypeError; a wrong mode count or a coordinate outside its mode's
        [0, d_k) raises BoundsError, the latter naming the mode."""
        index = tuple(map(operator.index, index))
        if len(index) != len(self.dims):
            raise BoundsError(f"index {index} has {len(index)} modes, "
                              f"the shape {self.dims} has {len(self.dims)}")
        for k, (i, d) in enumerate(zip(index, self.dims)):
            if not 0 <= i < d:
                raise BoundsError(f"index {i} out of range [0, {d}) in mode {k + 1}")
        return index

    def check_indices(self, indices) -> np.ndarray:
        """`indices` as an (n, K) integer array, checked as `check_index`
        checks one tuple; a non-integer dtype raises TypeError, and rows of
        unequal length raise as `check_index` does for the first row with the
        wrong mode count. Rows of K integers convert without np.asarray's
        walk over every coordinate (`_int_rows`); any other input goes
        through np.asarray, whose dtype decides what is an integer."""
        idx = indices
        if not isinstance(idx, np.ndarray):
            idx = _int_rows(indices, len(self.dims))
        if idx is None:
            try:
                idx = np.asarray(indices)
            except ValueError:  # ragged rows
                for index in indices:
                    self.check_index(index)
                raise
        if idx.ndim != 2 or idx.shape[1] != len(self.dims):
            raise BoundsError(f"indices of shape {idx.shape} are not (n, K) rows "
                              f"for the shape {self.dims}")
        if idx.dtype.kind not in "iu":
            raise TypeError(f"indices must be integers, got dtype {idx.dtype}")
        bad = (idx < 0) | (idx >= self.dims_array)
        if bad.any():
            self.check_index(idx[bad.any(axis=1).argmax()])  # raises for this row
        return idx


def _int_rows(rows, k: int) -> np.ndarray | None:
    """The n rows of k integers as an (n, k) int64 array (a transposed view
    of a (k, n) block), or None where `rows` is anything else: struct packs
    each column through `__index__`, which refuses a float or a string, and
    zip(strict=True) refuses rows of unequal length. Rows whose first
    coordinate is a bool get None too, since np.asarray reads rows of bools
    alone as a bool array; a bool among integers reads as its integer
    either way."""
    try:
        n = len(rows)
        if type(rows[0][0]) is bool:
            return None
        out = np.empty((k, n), np.int64)
        struct.pack_into(f"{n * k}q", out, 0,
                         *itertools.chain.from_iterable(zip(*rows, strict=True)))
    except (TypeError, ValueError, LookupError, struct.error):
        return None
    return out.T


class ObservedEntry(NamedTuple):
    """One observed tensor cell: a K-tuple of node indices and its value."""

    index: tuple[int, ...]
    value: float


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[ObservedEntry, ...]
    test: tuple[ObservedEntry, ...]


# lines per chunk of the column reader: large enough that the per-chunk
# costs vanish per line, small enough that a chunk with a bad line is cheap
# to read again line by line
_CHUNK_LINES = 4096


def _parse_lines(lines: Iterable[str], shape: TensorShape, kind: ValueKind | None,
                 first_line_no: int) -> list:
    """The per-line reader, the one that words every parse error: one
    ObservedEntry per data line of a COO file, or one index tuple per line
    of an index file where `kind` is None. Blank and '#' lines are skipped;
    errors name the line number, counted from `first_line_no`."""
    k = shape.mode_count
    n_fields = k + (kind is not None)
    out = []
    for line_no, raw in enumerate(lines, start=first_line_no):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != n_fields:
            what = "fields" if kind is not None else "index fields"
            raise ParseError(f"line {line_no}: expected {n_fields} {what}, got {len(fields)}")
        try:
            index = shape.check_index(map(int, fields[:k]))
        except ValueError:
            raise ParseError(f"line {line_no}: non-integer index field") from None
        except BoundsError as exc:
            raise BoundsError(f"line {line_no}: {exc}") from None
        if kind is None:
            out.append(index)
            continue
        field = fields[k]
        try:
            value = float(field)
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric value field {field!r}") from None
        try:
            kind.check_value(value)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        out.append(ObservedEntry(index, value))
    return out


def _parse_columns(chunk: list, shape: TensorShape, kind: ValueKind | None) -> list:
    """What `_parse_lines` gives for a chunk without an error, built a
    column at a time: every conversion and check runs in C. Raises on any
    doubt (ValueError, OverflowError, BoundsError, TypeError) without
    wording it; the caller then reads the chunk line by line."""
    rows = map(str.split, chunk)
    # blank lines split to [], dropped in C; a '#' anywhere in the chunk
    # sends it through the comment test of the first field
    if "#" in "".join(chunk):
        rows = [f for f in rows if f and f[0][0] != "#"]
    cols = list(zip(*filter(None, rows), strict=True))
    k = shape.mode_count
    if len(cols) != k + (kind is not None):
        raise ValueError("wrong field count")
    index_cols = [list(map(int, col)) for col in cols[:k]]
    shape.check_indices(np.array(index_cols, dtype=np.int64).T)
    if kind is None:
        return list(zip(*index_cols))
    values = list(map(float, cols[k]))
    kind.check_values(values)
    # tuple.__new__ builds what ObservedEntry(index, value) builds (as the
    # namedtuple's own _make does), without a Python-level __new__ per entry
    return list(map(tuple.__new__, itertools.repeat(ObservedEntry),
                    zip(zip(*index_cols), values)))


def _parse(lines: Iterable[str], shape: TensorShape, kind: ValueKind | None) -> list:
    """Read `lines` once, `_CHUNK_LINES` at a time, each chunk by columns,
    or line by line where the column reader raises."""
    out = []
    lines = iter(lines)
    line_no = 1
    while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
        try:
            out += _parse_columns(chunk, shape, kind)
        except (ValueError, OverflowError, BoundsError, TypeError):
            out += _parse_lines(chunk, shape, kind, line_no)
        line_no += len(chunk)
    return out


def parse_coo(lines: Iterable[str], shape: TensorShape, kind: ValueKind) -> list[ObservedEntry]:
    """Parse a line-oriented COO source into observed entries, order preserved.

    Malformed lines raise ParseError with the 1-based line number; indices
    outside the shape raise BoundsError; values that `kind.check_value`
    rejects raise ValueError. Duplicate index tuples are kept as-is.
    """
    return _parse(lines, shape, kind)


def write_coo(entries: Iterable[ObservedEntry], fp: TextIO, kind: ValueKind) -> None:
    """Write entries in the COO text format (counterpart of parse_coo)."""
    value = int if kind is ValueKind.BINARY else float
    fp.writelines(f"{' '.join(map(str, e.index))} {value(e.value)!r}\n" for e in entries)


def parse_index_lines(lines: Iterable[str], shape: TensorShape) -> list[tuple[int, ...]]:
    """Parse lines of K node indices (no value column); used by prediction."""
    return _parse(lines, shape, None)


def split_sizes(n_entries: int, test_fraction: float) -> tuple[int, int]:
    """Train/test sizes for a split: round(n*f) test entries, clamped so both
    sides are nonempty."""
    n_test = int(round(n_entries * test_fraction))
    n_test = min(max(n_test, 1), n_entries - 1)
    return n_entries - n_test, n_test


def split_train_test(entries: Sequence[ObservedEntry], test_fraction: float,
                     seed: int) -> DatasetSplit:
    """Uniform random split driven solely by the seed.

    Duplicate index tuples are treated as independent entries. Input order
    is preserved within each side.
    """
    if len(entries) < 2:
        raise ValueError("need at least 2 entries to split")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    _, n_test = split_sizes(len(entries), test_fraction)
    perm = make_rng(seed).permutation(len(entries))
    test_idx = set(perm[:n_test].tolist())
    train = tuple(e for i, e in enumerate(entries) if i not in test_idx)
    test = tuple(e for i, e in enumerate(entries) if i in test_idx)
    return DatasetSplit(train=train, test=test)


def partition_stream(entries: Sequence[ObservedEntry], batch_size: int,
                     seed: int) -> list[tuple[ObservedEntry, ...]]:
    """Shuffle entries uniformly by seed, then chunk into consecutive batches.

    All batches have `batch_size` entries except possibly the last; the union
    of the batches is the input multiset.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    perm = make_rng(seed).permutation(len(entries))
    shuffled = [entries[i] for i in perm.tolist()]
    return [tuple(shuffled[lo:lo + batch_size])
            for lo in range(0, len(shuffled), batch_size)]


# ---------------------------------------------------------------------------
# synthetic data generation


@dataclass(frozen=True)
class CpGenerator:
    """Multilinear sum-of-products generator (classical rank-r factorization)."""


@dataclass(frozen=True)
class MlpGenerator:
    """Randomly initialized feed-forward generator; each weight is zeroed
    independently with probability `sparsity`."""

    hidden: tuple[int, ...]
    activation: str = "tanh"
    sparsity: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError(f"sparsity must be in [0, 1], got {self.sparsity}")


GROUND_TRUTH_FORMAT = "streamdtf-ground-truth"
GROUND_TRUTH_VERSION = 1


@dataclass
class GroundTruth:
    """The generator's parameters, written by `to_json` at full precision;
    `evaluate` gives the noiseless values the data were drawn around."""

    generator: str  # "multilinear-cp" | "random-mlp"
    shape: TensorShape
    kind: ValueKind
    rank: int
    noise_sd: float
    seed: int
    embeddings: list[np.ndarray]  # per mode, (d_k, rank)
    network: "bnn.NetworkSpec | None" = None
    weights: list[np.ndarray] | None = None  # stored post-masking
    zero_mask: list[np.ndarray] | None = None  # True where the weight was zeroed
    sparsity: float = 0.0

    def evaluate(self, indices: Sequence[tuple[int, ...]]) -> np.ndarray:
        """Noiseless generator values for the given index tuples."""
        idx = self.shape.check_indices(indices)
        rows = [table[idx[:, k]] for k, table in enumerate(self.embeddings)]
        if self.generator == "multilinear-cp":
            return np.prod(np.stack(rows, axis=0), axis=0).sum(axis=1)
        alpha, _ = bnn.forward_mean_batch(self.network, self.weights, np.hstack(rows))
        return alpha

    def to_json(self, fp: TextIO) -> None:
        doc = {
            "format": GROUND_TRUTH_FORMAT,
            "version": GROUND_TRUTH_VERSION,
            "generator": self.generator,
            "dims": list(self.shape.dims),
            "kind": self.kind.value,
            "rank": self.rank,
            "noise_sd": self.noise_sd,
            "seed": self.seed,
            "sparsity": self.sparsity,
            "embeddings": [t.tolist() for t in self.embeddings],
            "network": None if self.network is None else {
                "widths": list(self.network.widths),
                "activation": self.network.activation,
            },
            "weights": None if self.weights is None else [w.tolist() for w in self.weights],
            "zero_mask": None if self.zero_mask is None else [
                m.astype(int).tolist() for m in self.zero_mask
            ],
        }
        json.dump(doc, fp, sort_keys=True, separators=(",", ":"))
        fp.write("\n")


def _sample_distinct_indices(shape: TensorShape, n: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    total = shape.n_cells
    if total <= 10_000_000:
        flat = rng.choice(total, size=n, replace=False)
    else:
        # rejection sampling keeps memory bounded on huge shapes
        seen: set[int] = set()
        picks: list[int] = []
        while len(picks) < n:
            draw = rng.integers(0, total, size=max(n - len(picks), 1024))
            for v in draw:
                v = int(v)
                if v not in seen:
                    seen.add(v)
                    picks.append(v)
                    if len(picks) == n:
                        break
        flat = np.asarray(picks)
    coords = np.unravel_index(np.asarray(flat), shape.dims)
    return [tuple(int(c[i]) for c in coords) for i in range(n)]


def synth_generate(shape: TensorShape, rank: int, kind: ValueKind,
                   generator, noise_sd: float, n_entries: int,
                   seed: int) -> tuple[list[ObservedEntry], GroundTruth]:
    """Generate observed entries at distinct random index tuples.

    True embeddings are drawn from the standard normal. The noiseless value
    comes from the chosen generator (CP sum-of-products, or a random MLP with
    weights zeroed with probability `sparsity`). Continuous data adds
    Gaussian noise with sd `noise_sd`; binary data samples through the probit
    link (noise_sd is ignored, the latent noise is standard normal).

    Draw order (fixed for reproducibility): indices, embeddings per mode,
    generator weights and zero mask (MLP only), observation noise.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if not 0.0 <= noise_sd < math.inf:
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    if n_entries < 1:
        raise ValueError(f"n_entries must be >= 1, got {n_entries}")
    if n_entries > shape.n_cells:
        raise ValueError(
            f"cannot draw {n_entries} distinct entries from a tensor with "
            f"{shape.n_cells} cells"
        )
    rng = make_rng(seed)
    indices = _sample_distinct_indices(shape, n_entries, rng)
    embeddings = [rng.standard_normal((d, rank)) for d in shape.dims]

    if isinstance(generator, CpGenerator):
        truth = GroundTruth(
            generator="multilinear-cp", shape=shape, kind=kind, rank=rank,
            noise_sd=noise_sd, seed=seed, embeddings=embeddings,
        )
    elif isinstance(generator, MlpGenerator):
        net = bnn.NetworkSpec.for_factorization(
            input_dim=rank * shape.mode_count,
            hidden=generator.hidden,
            activation=generator.activation,
        )
        weights = [rng.standard_normal(s) for s in net.weight_shapes]
        mask = [rng.random(s) < generator.sparsity for s in net.weight_shapes]
        weights = [np.where(m, 0.0, w) for w, m in zip(weights, mask)]
        truth = GroundTruth(
            generator="random-mlp", shape=shape, kind=kind, rank=rank,
            noise_sd=noise_sd, seed=seed, embeddings=embeddings,
            network=net, weights=weights, zero_mask=mask,
            sparsity=generator.sparsity,
        )
    else:
        raise ValueError(f"unknown generator {generator!r}")

    noiseless = truth.evaluate(indices)
    if kind is ValueKind.CONTINUOUS:
        values = noiseless + (rng.normal(0.0, noise_sd, size=n_entries)
                              if noise_sd > 0 else 0.0)
    else:
        values = (noiseless + rng.standard_normal(n_entries) > 0).astype(float)
    entries = [ObservedEntry(idx, float(v)) for idx, v in zip(indices, values)]
    return entries, truth
