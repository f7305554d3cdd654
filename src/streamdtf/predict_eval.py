"""Prediction from a trained state and running evaluation.

Continuous entries predict (mean, variance) with the posterior-mean noise
variance added; binary entries predict the marginalized probit probability
Phi(alpha / sqrt(1 + beta)), i.e. the model's own uncertainty-aware
probability rather than the plug-in Phi(alpha). Phi is
`special.ndtr_array`, a numpy form that makes no Python call per row.

Metrics: RMSE for continuous data; AUC for binary data as the Mann-Whitney
statistic with ties counted one half.

Prediction is read-only. Every prediction of n rows runs in an n-row
`bnn.ForwardTape` the state keeps for the calling thread (`batch_tape`):
the gather writes the rows' embedding moments into its buffers and both
network passes write into the rest, so a request allocates only its
results, which hold none of the tape's memory. A thread's tape is rebuilt
whenever its row count changes, so a prediction is spared building one
only when it comes from the same thread with the same row count as that
thread's last one. The state keeps each thread's last tape as long as it
lives (about 2.6 kB per row on the README network), in a threading.local
its first prediction installs (`state.batch_tapes`), so any number of
threads may predict from one state while none writes it. Copies and
checkpoints never carry the tapes (`ModelState.__getstate__`).

The running evaluation re-scores the full test set after every processed
batch, in the calling thread's tape, which it drops on return, and
records per-batch wallclock. A
binary score needs beta for the probit probability, so it runs both
passes. A continuous score is the RMSE of the means alone: it gathers
only the embedding means and runs only the forward pass, so the variance
gather, the backward pass and beta are skipped and the tape's backward
buffers stay unused.
"""

import itertools
import operator
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import adf_engine, bnn, ep_prior
from .errors import UndefinedMetricError
from .posterior_store import ModelState
from .special import ndtr_array
from .tensor_core import ObservedEntry, ValueKind


def batch_tape(state: ModelState,
               rows: int) -> tuple[bnn.ForwardTape, tuple[np.ndarray, ...]]:
    """The calling thread's tape for `rows` rows, bound to weight_means(),
    and per mode the C-contiguous (rows, r_k) view of the tape's scratch
    that the mode's embedding rows are gathered into; built when the
    thread's last tape has another row count, or none. The state's first
    call installs the slot with setdefault, so threads making the first
    predictions at once share one."""
    try:
        tapes = state.batch_tapes
    except AttributeError:
        tapes = vars(state).setdefault("batch_tapes", threading.local())
    last = getattr(tapes, "last", None)
    if last is None or last[0].ones.shape[0] != rows:
        tape = bnn.ForwardTape.allocate(state.net, (rows,))
        tape.bind(state.weight_means())
        starts = itertools.accumulate(state.hyper.ranks, initial=0)
        gather = tuple(tape.scratch[rows * lo:rows * (lo + r)].reshape(rows, r)
                       for lo, r in zip(starts, state.hyper.ranks))
        last = tapes.last = (tape, gather)
    return last


def _gather(tables: Sequence[np.ndarray], idx: np.ndarray, out: np.ndarray,
            parts: Sequence[np.ndarray]) -> np.ndarray:
    """Rows idx[:, k] of tables[k], modes side by side (n, sum_k r_k), into
    `out`. take writes straight only into a C-contiguous array, so each
    mode's rows land in its part (`batch_tape`) first. The
    indices are checked, so mode="clip" never clips."""
    for k, (table, rows) in enumerate(zip(tables, parts)):
        table.take(idx[:, k], 0, rows, "clip")
    return np.concatenate(parts, axis=1, out=out)


def predict_batch(state: ModelState, indices: Sequence[tuple[int, ...]], *,
                  means_only: bool = False):
    """Vectorized prediction. Continuous: (means, variances) arrays, or the
    means alone with `means_only`, which gathers no variances and runs only
    the forward pass (the same means, byte for byte); binary: probability
    array, and `means_only` raises ValueError. `TensorShape.check_indices`
    checks indices. The gather and the passes run in the state's batch
    tape for this thread and row count (`batch_tape`)."""
    if means_only and state.kind is not ValueKind.CONTINUOUS:
        raise ValueError("means_only needs continuous data: a probability needs beta")
    idx = state.shape.check_indices(indices)
    tape, parts = batch_tape(state, idx.shape[0])
    x_mean = _gather([emb.mean for emb in state.embeddings], idx, tape.inputs, parts)
    x_var = None
    if not means_only:
        x_var = _gather([emb.var for emb in state.embeddings], idx, tape.input_vars, parts)
    alpha, beta = bnn.output_moments_batch(
        state.net, state.weight_means(), state.weight_vars(), x_mean, x_var, tape)
    if means_only:
        return alpha
    if state.kind is ValueKind.CONTINUOUS:
        return alpha, beta + state.gamma.b / state.gamma.a
    return ndtr_array(alpha / np.sqrt(1.0 + beta))


def predict_entry(state: ModelState, index: Sequence[int]):
    """Single-entry prediction: (mean, variance) for continuous data, a
    probability for binary data. Read-only and deterministic."""
    out = predict_batch(state, [index])
    if state.kind is ValueKind.CONTINUOUS:
        means, variances = out
        return float(means[0]), float(variances[0])
    return float(out[0])


def rmse(predictions: Sequence[float], truths: Sequence[float]) -> float:
    predictions = np.asarray(predictions, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if predictions.shape != truths.shape or predictions.size < 1:
        raise ValueError("predictions and truths must be equal-length, nonempty")
    return float(np.sqrt(np.mean((predictions - truths) ** 2)))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of the 1-D float array x, tied values sharing their
    average rank; every rank is NaN when x holds a NaN. These are the bytes
    of `scipy.stats.rankdata(x)`: each rank is a half-integer, exact in a
    float. Ties share a rank whatever their order, so the sort need not be
    stable, and -0.0 ties with 0.0."""
    order = np.argsort(x)
    ordered = x[order]
    if np.isnan(ordered[-1:]).any():  # argsort puts NaN last
        return np.full(x.shape, np.nan)
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    dense = np.empty(x.size, dtype=np.intp)
    dense[order] = np.cumsum(starts)
    # tie groups are numbered from 1 (dense); count[d] is how many values
    # sort before group d + 1, so group d holds ranks count[d - 1] + 1 .. count[d]
    count = np.append(np.flatnonzero(starts), x.size)
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def auc(scores: Sequence[float], labels: Sequence[float]) -> float:
    """Mann-Whitney AUC; tied scores count one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.size < 1:
        raise ValueError("scores and labels must be equal-length, nonempty")
    positive = labels == 1.0
    n_pos = int(np.count_nonzero(positive))
    n_neg = int(np.count_nonzero(labels == 0.0))  # -0.0 == 0.0 counts as 0
    if n_pos + n_neg != labels.size:  # NaN equals neither
        raise ValueError("labels must be 0/1")
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    ranks = _average_ranks(scores)  # average ranks implement the half-tie convention
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(frozen=True)
class MetricRow:
    batch: int
    seen: int
    metric: float
    ms: float


@dataclass
class MetricSeries:
    metric_name: str | None
    rows: list[MetricRow] = field(default_factory=list)

    def write_csv(self, fp: TextIO, include_timing: bool = True) -> None:
        """CSV with header batch,seen,metric,ms. With include_timing=False the
        ms column is written as 0.0 so outputs are byte-deterministic."""
        fp.write("batch,seen,metric,ms\n")
        for row in self.rows:
            ms = row.ms if include_timing else 0.0
            fp.write(f"{row.batch},{row.seen},{row.metric!r},{ms!r}\n")


def score(state: ModelState, indices, values) -> tuple[str, float]:
    """The state's test metric on the given cells as (name, value): "rmse"
    of the predicted means for continuous data, from the forward pass alone
    (`means_only`), "auc" of the predicted probabilities for binary data."""
    if state.kind is ValueKind.CONTINUOUS:
        return "rmse", rmse(predict_batch(state, indices, means_only=True), values)
    return "auc", auc(predict_batch(state, indices), values)


def running_eval(state: ModelState, stream: Iterable[Sequence[ObservedEntry]],
                 test_entries: Sequence[ObservedEntry],
                 damping: float = ep_prior.DEFAULT_DAMPING) -> MetricSeries:
    """Process each batch, then score the full test set; one row per batch.

    Rows are numbered from 0. The test set must be nonempty, valid as a
    batch is, and disjoint (by index tuple) from the stream. The state is
    mutated in place; per-batch wallclock covers the posterior update only,
    not the evaluation. `metric_name` is None when the stream is empty.
    Every batch is scored in the calling thread's batch tape for the test
    set, which the state drops on return.
    """
    if len(test_entries) == 0:
        raise ValueError("test set must be nonempty")
    batches = list(stream)
    test_tuples = {e.index for e in test_entries}
    stream_entries = itertools.chain.from_iterable(batches)
    if not test_tuples.isdisjoint(map(operator.attrgetter("index"), stream_entries)):
        # the test above runs in C; this scan only names the first offender
        first = next(e for batch in batches for e in batch if e.index in test_tuples)
        raise ValueError(f"test entry {first.index} also appears in the stream")
    test_indices = state.shape.check_indices([e.index for e in test_entries])
    test_values = state.kind.check_values([e.value for e in test_entries])
    series = MetricSeries(metric_name=None)
    for ordinal, batch in enumerate(batches):
        start = time.perf_counter()
        adf_engine.process_batch(state, batch, damping=damping)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        series.metric_name, value = score(state, test_indices, test_values)
        series.rows.append(MetricRow(batch=ordinal, seen=state.entries_seen,
                                     metric=value, ms=elapsed_ms))
    if batches:  # the test set's tape goes with the scores
        del state.batch_tapes.last
    return series
