"""Prediction from a trained state and running evaluation.

Continuous entries predict (mean, variance) with the posterior-mean noise
variance added; binary entries predict the marginalized probit probability
Phi(alpha / sqrt(1 + beta)), i.e. the model's own uncertainty-aware
probability rather than the plug-in Phi(alpha).

Metrics: RMSE for continuous data; AUC for binary data as the Mann-Whitney
statistic with ties counted one half.

Prediction is read-only; test-set scoring may fan out over a shared state
snapshot. The running evaluation re-scores the full test set after every
processed batch and records per-batch wallclock.
"""

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np
from scipy.special import ndtr
from scipy.stats import rankdata

from . import adf_engine, bnn, ep_prior
from .errors import UndefinedMetricError
from .posterior_store import ModelState
from .tensor_core import ObservedEntry, ValueKind, gather_rows


def predict_batch(state: ModelState, indices: Sequence[tuple[int, ...]]):
    """Vectorized prediction. Continuous: (means, variances) arrays;
    binary: probability array. `TensorShape.check_indices` checks indices."""
    idx = state.shape.check_indices(indices)
    x_mean = gather_rows([emb.mean for emb in state.embeddings], idx)
    x_var = gather_rows([emb.var for emb in state.embeddings], idx)
    alpha, beta = bnn.output_moments_batch(
        state.net, state.weight_means(), state.weight_vars(), x_mean, x_var)
    if state.kind is ValueKind.CONTINUOUS:
        return alpha, beta + state.gamma.b / state.gamma.a
    return ndtr(alpha / np.sqrt(1.0 + beta))


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


def auc(scores: Sequence[float], labels: Sequence[float]) -> float:
    """Mann-Whitney AUC; tied scores count one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.size < 1:
        raise ValueError("scores and labels must be equal-length, nonempty")
    if not set(np.unique(labels)) <= {0.0, 1.0}:
        raise ValueError("labels must be 0/1")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    ranks = rankdata(scores)  # average ranks implement the half-tie convention
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


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
    of the predicted means for continuous data, "auc" of the predicted
    probabilities for binary data."""
    if state.kind is ValueKind.CONTINUOUS:
        return "rmse", rmse(predict_batch(state, indices)[0], values)
    return "auc", auc(predict_batch(state, indices), values)


def running_eval(state: ModelState, stream: Iterable[Sequence[ObservedEntry]],
                 test_entries: Sequence[ObservedEntry],
                 damping: float = ep_prior.DEFAULT_DAMPING) -> MetricSeries:
    """Process each batch, then score the full test set; one row per batch.

    Rows are numbered from 0. The test set must be nonempty, valid as a
    batch is, and disjoint (by index tuple) from the stream. The state is
    mutated in place; per-batch wallclock covers the posterior update only,
    not the evaluation. `metric_name` is None when the stream is empty.
    """
    if len(test_entries) == 0:
        raise ValueError("test set must be nonempty")
    batches = list(stream)
    test_tuples = {e.index for e in test_entries}
    for batch in batches:
        for e in batch:
            if e.index in test_tuples:
                raise ValueError(f"test entry {e.index} also appears in the stream")
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
    return series
