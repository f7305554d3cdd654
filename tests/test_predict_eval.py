import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdtf import (Hyperparams, MetricRow, MetricSeries, MlpGenerator,
                       NetworkSpec, TensorShape, UndefinedMetricError,
                       ValueKind, auc, checkpoint_bytes, init_state,
                       partition_stream, predict_batch, predict_entry, rmse,
                       running_eval, split_train_test, synth_generate)
from streamdtf.errors import BoundsError


def _zero_weight_state(kind):
    net = NetworkSpec.for_factorization(4, [3], "relu")
    state = init_state(TensorShape((5, 5)), kind, net,
                       Hyperparams(ranks=(2, 2)), seed=0)
    for lay in state.weights:
        lay.mean[...] = 0.0
    return state


def test_binary_prediction_is_half_at_zero_output():
    state = _zero_weight_state(ValueKind.BINARY)
    assert predict_entry(state, (0, 0)) == pytest.approx(0.5, abs=1e-15)


def test_continuous_prediction_at_init_adds_noise_mean():
    from streamdtf import output_moments_batch

    state = _zero_weight_state(ValueKind.CONTINUOUS)
    mean, variance = predict_entry(state, (1, 2))
    assert mean == 0.0
    x_mean, x_var = state.gather_entry((1, 2))
    _, (beta,) = output_moments_batch(state.net, state.weight_means(),
                                      state.weight_vars(), x_mean[None], x_var[None])
    assert variance == pytest.approx(beta + 1.0, rel=1e-12)  # a0 = b0 = 1


def test_predict_is_pure():
    state = _zero_weight_state(ValueKind.CONTINUOUS)
    before = checkpoint_bytes(state)
    predict_entry(state, (3, 3))
    predict_batch(state, [(0, 1), (2, 2)])
    assert checkpoint_bytes(state) == before


def test_predict_bounds_error():
    state = _zero_weight_state(ValueKind.CONTINUOUS)
    with pytest.raises(BoundsError):
        predict_entry(state, (9, 0))
    with pytest.raises(BoundsError):
        predict_batch(state, [(0, 0), (0, 9)])


def test_predict_rejects_non_integral_indices():
    state = _zero_weight_state(ValueKind.CONTINUOUS)
    with pytest.raises(TypeError):
        predict_batch(state, [(1.7, 2)])
    with pytest.raises(TypeError):
        predict_entry(state, (2.9, 2))


def test_predict_batch_matches_single_entry():
    rng = np.random.default_rng(0)
    state = _zero_weight_state(ValueKind.CONTINUOUS)
    for lay in state.weights:
        lay.mean[...] = rng.standard_normal(lay.mean.shape)
    for emb in state.embeddings:
        emb.mean[...] = rng.standard_normal(emb.mean.shape)
    indices = [(i, j) for i in range(3) for j in range(3)]
    means, variances = predict_batch(state, indices)
    for k, idx in enumerate(indices):
        m, v = predict_entry(state, idx)
        assert means[k] == pytest.approx(m, rel=1e-12)
        assert variances[k] == pytest.approx(v, rel=1e-12)


def test_rmse_basics():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([1.0, 3.0], [0.0, 1.0]) == rmse([0.0, 1.0], [1.0, 3.0])
    assert rmse([2.0, 4.0], [0.0, 0.0]) == pytest.approx(2 * rmse([1.0, 2.0], [0.0, 0.0]))
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        rmse([], [])


def test_auc_perfect_and_tied():
    assert auc([0.9, 0.1], [1.0, 0.0]) == 1.0
    assert auc([0.5, 0.5], [1.0, 0.0]) == 0.5
    assert auc([0.1, 0.9], [1.0, 0.0]) == 0.0


def test_auc_single_class_is_undefined():
    with pytest.raises(UndefinedMetricError):
        auc([0.3, 0.7], [1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-200, 200), st.integers(0, 1)),
                min_size=4, max_size=40))
def test_auc_invariant_under_monotone_transform(pairs):
    # coarse score grid so strictly monotone transforms cannot create or
    # destroy ties through float rounding
    scores = np.array([p[0] / 4.0 for p in pairs])
    labels = np.array([float(p[1]) for p in pairs])
    if labels.min() == labels.max():
        labels[0] = 1.0 - labels[0]
    base = auc(scores, labels)
    assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
    assert auc(np.tanh(scores / 50.0), labels) == pytest.approx(base, abs=1e-9)


def _learnable_setup(seed=0):
    shape = TensorShape((30, 30))
    gen = MlpGenerator(hidden=(6,), activation="tanh")
    entries, truth = synth_generate(shape, 2, ValueKind.CONTINUOUS, gen,
                                    0.05, 800, seed=seed)
    split = split_train_test(entries, 0.2, seed=seed)
    net = truth.network
    state = init_state(shape, ValueKind.CONTINUOUS, net,
                       Hyperparams(ranks=(2, 2)), seed=seed)
    # anchor at the generator so a short run has signal to track
    for k, emb in enumerate(state.embeddings):
        emb.mean[...] = truth.embeddings[k]
        emb.var[...] = 1e-4
    for lay, w in zip(state.weights, truth.weights):
        lay.mean[...] = w
        lay.term_mean[...] = w
    return state, split


def test_running_eval_row_per_batch_and_csv():
    state, split = _learnable_setup()
    batches = partition_stream(split.train, 128, seed=1)
    series = running_eval(state, batches, split.test)
    assert series.metric_name == "rmse"
    assert len(series.rows) == len(batches)
    assert [r.batch for r in series.rows] == [b.ordinal for b in batches]
    assert series.rows[-1].seen == state.entries_seen
    assert all(math.isfinite(r.metric) for r in series.rows)

    buf = io.StringIO()
    series.write_csv(buf, include_timing=False)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "batch,seen,metric,ms"
    assert len(lines) == 1 + len(series.rows)
    assert all(line.endswith(",0.0") for line in lines[1:])
    timed = io.StringIO()
    series.write_csv(timed, include_timing=True)
    assert timed.getvalue().splitlines()[1:] != lines[1:]


def test_running_eval_empty_stream():
    state, split = _learnable_setup(seed=2)
    before = checkpoint_bytes(state)
    series = running_eval(state, [], split.test)
    assert series.rows == []
    assert checkpoint_bytes(state) == before


def test_running_eval_rejects_empty_or_overlapping_test():
    state, split = _learnable_setup(seed=3)
    batches = partition_stream(split.train, 64, seed=0)
    with pytest.raises(ValueError):
        running_eval(state, batches, [])
    with pytest.raises(ValueError):
        running_eval(state, batches, list(split.test) + [split.train[0]])


def test_running_eval_tracks_learnable_signal():
    state, split = _learnable_setup(seed=4)
    batches = partition_stream(split.train, 64, seed=5)
    series = running_eval(state, batches, split.test)
    # anchored at the generator, the fit stays far below the signal spread
    truth_sd = float(np.std([e.value for e in split.test]))
    assert series.rows[-1].metric < 0.5 * truth_sd
    assert series.rows[-1].metric < 0.25


def test_metric_series_row_fields():
    row = MetricRow(batch=3, seen=900, metric=0.5, ms=12.5)
    series = MetricSeries(metric_name="rmse", rows=[row])
    buf = io.StringIO()
    series.write_csv(buf)
    assert buf.getvalue().splitlines()[1] == "3,900,0.5,12.5"
