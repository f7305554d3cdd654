import copy
import io
import math
import pickle
import re
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdtf import (Hyperparams, MetricRow, MetricSeries, MlpGenerator,
                       NetworkSpec, ObservedEntry, TensorShape, UndefinedMetricError,
                       ValueKind, auc, checkpoint_bytes, init_state, load_checkpoint,
                       partition_stream, predict_batch, predict_entry,
                       process_batch, rmse, running_eval, save_checkpoint,
                       split_train_test, synth_generate)
from streamdtf import adf_engine, bnn, predict_eval
from streamdtf.errors import BoundsError
from streamdtf.predict_eval import score


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


@pytest.mark.parametrize("label", [2.0, -1.0, math.nan])
def test_auc_rejects_a_label_other_than_0_or_1(label):
    with pytest.raises(ValueError, match="labels must be 0/1"):
        auc([0.9, 0.1, 0.5], [1.0, 0.0, label])


def test_auc_takes_negative_zero_as_a_0_label():
    assert auc([0.9, 0.1, 0.5], [1.0, -0.0, 0.0]) == auc([0.9, 0.1, 0.5], [1.0, 0.0, 0.0])


def test_average_ranks_are_the_bytes_of_scipy_rankdata():
    # the AUC ranks its scores without scipy.stats; they must be rankdata's
    # average ranks to the byte, with ties, signed zeros, infinities and NaN
    # (any NaN makes every rank NaN)
    from scipy.stats import rankdata

    rng = np.random.default_rng(18)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for case in range(600):
        x = rng.standard_normal(int(rng.integers(1, 80)))
        if case % 2:
            x = np.round(x, 1)  # many ties
        hit = rng.random(x.size) < 0.25
        x[hit] = rng.choice(specials[:4] if case % 3 else specials, hit.sum())
        ranks = predict_eval._average_ranks(x)
        want = rankdata(x)
        assert ranks.dtype == want.dtype
        assert ranks.tobytes() == want.tobytes(), x


def test_auc_of_a_nan_score_is_nan():
    assert math.isnan(auc([0.9, math.nan, 0.5], [1.0, 0.0, 0.0]))


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
    assert [r.batch for r in series.rows] == list(range(len(batches)))
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
    assert series.metric_name is None
    assert checkpoint_bytes(state) == before


@pytest.mark.parametrize("kind, name", [(ValueKind.CONTINUOUS, "rmse"),
                                        (ValueKind.BINARY, "auc")])
def test_score_is_the_running_metric_of_the_kind(kind, name):
    shape = TensorShape((12, 10))
    entries, _ = synth_generate(shape, 2, kind, MlpGenerator(hidden=(4,)), 0.1,
                                100, seed=1)
    split = split_train_test(entries, 0.3, seed=2)
    state = init_state(shape, kind, NetworkSpec.for_factorization(4, [6], "tanh"),
                       Hyperparams(ranks=(2, 2)), seed=3)
    series = running_eval(state, partition_stream(split.train, 35, seed=4), split.test)
    indices = [e.index for e in split.test]
    values = [e.value for e in split.test]
    assert score(state, indices, values) == (name, series.rows[-1].metric)
    assert series.metric_name == name
    predicted = predict_batch(state, indices)
    want = rmse(predicted[0], values) if name == "rmse" else auc(predicted, values)
    assert series.rows[-1].metric == want


def test_running_eval_rejects_empty_or_overlapping_test():
    state, split = _learnable_setup(seed=3)
    batches = partition_stream(split.train, 64, seed=0)
    with pytest.raises(ValueError):
        running_eval(state, batches, [])
    with pytest.raises(ValueError):
        running_eval(state, batches, list(split.test) + [split.train[0]])


def test_the_overlap_error_names_the_first_offending_stream_entry():
    state, split = _learnable_setup(seed=3)
    batches = partition_stream(split.train, 64, seed=0)
    before = checkpoint_bytes(state)
    # offenders in batches 2, 0 and 1: the error names the one in batch 0
    offenders = [batches[2][0], batches[0][5], batches[1][3]]
    with pytest.raises(ValueError, match=rf"^test entry {re.escape(str(batches[0][5].index))} "
                                         "also appears in the stream$"):
        running_eval(state, batches, list(split.test) + offenders)
    assert checkpoint_bytes(state) == before


def test_running_eval_rejects_a_nan_test_value():
    state, split = _learnable_setup(seed=3)
    batches = partition_stream(split.train, 64, seed=0)
    test = list(split.test)
    test[2] = ObservedEntry(test[2].index, math.nan)
    before = checkpoint_bytes(state)
    with pytest.raises(ValueError, match="value must be finite, got nan"):
        running_eval(state, batches, test)
    assert checkpoint_bytes(state) == before


@pytest.mark.parametrize("consumer", ["process_batch", "predict_batch", "running_eval"])
def test_ragged_index_rows_raise_bounds_error_naming_the_row(consumer):
    # a row with one mode among rows with two: the message is check_index's
    state, split = _learnable_setup(seed=5)
    rows = [e.index for e in split.test[:3]] + [(1,)]
    entries = [ObservedEntry(i, 0.5) for i in rows]
    call = {"process_batch": lambda: process_batch(state, entries),
            "predict_batch": lambda: predict_batch(state, rows),
            "running_eval": lambda: running_eval(state, [tuple(split.train[:8])],
                                                 entries)}[consumer]
    before = checkpoint_bytes(state)
    with pytest.raises(BoundsError, match=r"index \(1,\) has 1 modes, the shape"):
        call()
    assert checkpoint_bytes(state) == before


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


def _stream_setup(kind, k=2, activation="tanh", hidden=(5, 4), seed=1):
    shape = TensorShape({1: (300,), 2: (20, 15), 3: (7, 6, 5)}[k])
    entries, _ = synth_generate(shape, 2, kind, MlpGenerator(hidden=(4,)), 0.1, 200,
                                seed=seed)
    split = split_train_test(entries, 0.3, seed=seed)
    state = init_state(shape, kind,
                       NetworkSpec.for_factorization(2 * k, list(hidden), activation),
                       Hyperparams(ranks=(2,) * k), seed=3)
    return state, partition_stream(split.train, 40, seed=4), split.test


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("k", [1, 3])
def test_each_running_row_is_a_fresh_score_of_that_batch_state(k, activation, kind,
                                                                monkeypatch):
    # running_eval scores every batch in one tape: each row must be the
    # bytes the full read path (predict_batch, both passes) gives on a copy
    # of the state taken after that batch, in the copy's own new tape, so
    # nothing a buffer held from the last batch leaks in, and the
    # continuous score's forward-only pass loses no bit of the means
    state, batches, test = _stream_setup(kind, k, activation)
    snapshots = []
    process = adf_engine.process_batch

    def snapshotting(state, batch, **kwargs):
        diag = process(state, batch, **kwargs)
        snapshots.append(copy.deepcopy(state))
        return diag

    monkeypatch.setattr(adf_engine, "process_batch", snapshotting)
    series = running_eval(state, batches, test)
    indices = [e.index for e in test]
    values = [e.value for e in test]
    assert len(snapshots) == len(series.rows) == len(batches) > 1
    for row, snapshot in zip(series.rows, snapshots):
        predicted = predict_batch(snapshot, indices)
        if kind is ValueKind.CONTINUOUS:
            want = rmse(predicted[0], values)
        else:
            want = auc(predicted, values)
        assert score(snapshot, indices, values)[0] == series.metric_name
        assert np.float64(row.metric).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
def test_running_eval_reaches_each_traced_layer_once_per_batch(kind, monkeypatch):
    # the benchmark times scoring by replacing these module attributes, and
    # counts the rows in predict_batch's 2nd and output_moments_batch's 4th
    # positional argument; every batch is scored in the state's one tape
    # for the test set, which the state drops when the evaluation returns,
    # and a continuous score's forward-only pass goes through both
    # functions too
    state, batches, test = _stream_setup(kind)
    calls, tapes = [], []
    for owner, name, rows_at in [(predict_eval, "predict_batch", 1),
                                 (bnn, "output_moments_batch", 3)]:
        def counted(*args, _name=name, _original=owner.__dict__[name], _at=rows_at,
                    **kwargs):
            calls.append((_name, len(args[_at])))
            if _name == "output_moments_batch":
                tapes.append(args[-1])
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    running_eval(state, batches, test)
    assert calls == [("predict_batch", len(test)),
                     ("output_moments_batch", len(test))] * len(batches)
    assert len(tapes) == len(batches) and all(t is tapes[0] for t in tapes)
    assert not hasattr(state.batch_tapes, "last")


def test_continuous_scoring_never_runs_the_backward_pass(monkeypatch):
    # the RMSE reads only the means: neither running_eval's scoring nor
    # score may run the backward pass on their n-row tapes (the per-entry
    # update runs it on its one-row tape), while predict_batch's variances
    # still need it
    state, batches, test = _stream_setup(ValueKind.CONTINUOUS)
    indices = [e.index for e in test]
    values = [e.value for e in test]
    backward = bnn._backward

    def refuse(tape):
        if tape.ones.ndim == 1:
            return backward(tape)
        raise AssertionError("continuous scoring ran the backward pass")

    monkeypatch.setattr(bnn, "_backward", refuse)
    series = running_eval(state, batches, test)
    assert score(state, indices, values) == ("rmse", series.rows[-1].metric)
    with pytest.raises(AssertionError, match="backward pass"):
        predict_batch(state, indices)


def test_means_only_is_for_continuous_data():
    state, _, test = _stream_setup(ValueKind.BINARY)
    with pytest.raises(ValueError, match="means_only needs continuous data"):
        predict_batch(state, [e.index for e in test], means_only=True)


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
def test_a_warm_scoring_pass_allocates_under_16_doubles_per_row(kind):
    # in the state's batch tape only the results are new: alpha, beta
    # (binary data only), the prediction and the metric's own arrays (a
    # pass that allocates its tape takes about 440 doubles per row on this
    # network)
    n = 2000
    shape = TensorShape((60, 50))
    state = init_state(shape, kind, NetworkSpec.for_factorization(16, [50, 50], "relu"),
                       Hyperparams(ranks=(8, 8)), seed=0)
    rng = np.random.default_rng(0)
    flat = rng.choice(shape.n_cells, size=n, replace=False)
    indices = state.shape.check_indices(np.stack(np.unravel_index(flat, shape.dims), 1))
    values = state.kind.check_values(rng.integers(0, 2, n).astype(float))
    score(state, indices, values)
    tracemalloc.start()
    try:
        score(state, indices, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * n


def test_the_batch_tape_follows_the_row_count():
    # a tape's buffers fix its row count, and one index on an n-row tape
    # would broadcast into n predictions: the state's tape is rebuilt for
    # each new row count, with each mode's gather view its own C-contiguous
    # block of the tape's scratch, and each prediction has the bytes of a
    # copy of the state predicting the same rows in its first tape
    state, _, test = _stream_setup(ValueKind.CONTINUOUS)
    indices = [e.index for e in test]
    for rows in (indices, indices[:1], indices[1:], indices + indices[:1], indices):
        got = predict_batch(state, rows)
        tape, gather = predict_eval.batch_tape(state, len(rows))
        assert tape.ones.shape == (len(rows), 1)
        assert [(g.shape, g.flags.c_contiguous) for g in gather] == [
            ((len(rows), r), True) for r in state.hyper.ranks]
        assert all(np.shares_memory(g, tape.scratch) for g in gather)
        assert not np.shares_memory(*gather)
        want = predict_batch(copy.deepcopy(state), rows)
        assert [a.shape for a in got] == [(len(rows),)] * 2
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _served_state(kind=ValueKind.CONTINUOUS):
    """A state trained on 300 entries of a (30, 60) tensor, and four
    requests of 60 rows: mode-1 nodes 4, 17, 9 and 23, each with every
    mode-2 node, as the serving benchmark asks."""
    shape = TensorShape((30, 60))
    entries, _ = synth_generate(shape, 2, kind, MlpGenerator(hidden=(4,)), 0.1, 300,
                                seed=6)
    state = init_state(shape, kind, NetworkSpec.for_factorization(4, [8, 6], "relu"),
                       Hyperparams(ranks=(2, 2)), seed=6)
    for batch in partition_stream(entries, 100, seed=6):
        process_batch(state, batch)
    return state, [[(u, j) for j in range(60)] for u in (4, 17, 9, 23)]


def _response_bytes(response):
    return [a.tobytes() for a in (response if isinstance(response, tuple) else (response,))]


@pytest.mark.parametrize("fresh", [False, True], ids=["warm", "fresh-copy"])
def test_threads_predicting_from_one_state_get_the_serial_bytes(fresh, monkeypatch):
    # any number of threads may predict from one state while none writes
    # it: each runs in its own batch tape, so four threads answering
    # different requests of the same row count, interleaved many times,
    # each get exactly the bytes of their request predicted alone. On a
    # fresh copy the threads' first predictions install the state's slot
    # of tapes at once: each makes a slot before any installs one, and
    # they share the one installed first, so each builds one tape (a slot
    # installed by assignment would replace another thread's)
    state, requests = _served_state()
    serial = [_response_bytes(predict_batch(state, req)) for req in requests]
    if fresh:
        state = copy.deepcopy(state)
        made = threading.Barrier(len(requests), timeout=60)

        def local():
            made.wait()
            return threading.local()

        monkeypatch.setattr(predict_eval, "threading", types.SimpleNamespace(local=local))
    start = threading.Barrier(len(requests), timeout=60)
    mismatches, tapes = [None] * len(requests), [None] * len(requests)
    built = []
    allocate = bnn.ForwardTape.allocate.__func__

    def counted(cls, spec, lead=()):
        built.append(lead)
        return allocate(cls, spec, lead)

    monkeypatch.setattr(bnn.ForwardTape, "allocate", classmethod(counted))

    def serve(i):
        start.wait()
        mismatches[i] = sum(_response_bytes(predict_batch(state, requests[i])) != serial[i]
                            for _ in range(500))
        tapes[i] = predict_eval.batch_tape(state, 60)[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # a thread switch every few bytecodes
    try:
        threads = [threading.Thread(target=serve, args=(i,)) for i in range(len(requests))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == [0] * len(requests)
    assert built == [(60,)] * len(requests)
    mine = predict_eval.batch_tape(state, 60)[0]
    assert len({id(tape) for tape in tapes + [mine]}) == len(requests) + 1


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
def test_a_response_keeps_its_bytes_after_later_requests(kind):
    # serving keeps every response: none may be a view into the tape the
    # next request writes
    state, requests = _served_state(kind)
    responses = [predict_batch(state, requests[0])]
    if kind is ValueKind.CONTINUOUS:
        responses.append(predict_batch(state, requests[0], means_only=True))
    kept = [_response_bytes(r) for r in responses]
    tape, _ = predict_eval.batch_tape(state, 60)
    buffers = [tape.preacts, tape.scratch, tape.products, tape.inputs, tape.input_vars]
    for response in responses:
        for array in (response if isinstance(response, tuple) else (response,)):
            assert not any(np.shares_memory(array, buf) for buf in buffers)
    for req in (requests[1], requests[1][:7], requests[0][::-1]):
        predict_batch(state, req)
    assert [_response_bytes(r) for r in responses] == kept


def test_sixty_rows_then_one_then_sixty_give_the_same_bytes():
    # one slot per thread: a 1-row prediction replaces the 60-row tape,
    # and the next 60 rows build a new one, with the same bytes each time
    state, requests = _served_state()
    entry = requests[1][5]
    runs = []
    for _ in range(3):
        runs.append(_response_bytes(predict_batch(state, requests[0])))
        runs.append(np.float64(predict_entry(state, entry)).tobytes())
    assert runs[0::2] == [runs[0]] * 3 and runs[1::2] == [runs[1]] * 3
    assert runs[1] == np.float64(predict_entry(copy.deepcopy(state), entry)).tobytes()


def _checkpoint_copy(state):
    buf = io.StringIO()
    save_checkpoint(state, buf)
    buf.seek(0)
    return load_checkpoint(buf)


@pytest.mark.parametrize("make", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)),
                                  _checkpoint_copy],
                         ids=["deepcopy", "pickle", "load_checkpoint"])
def test_a_copy_has_no_batch_tape_until_it_predicts_the_same_bytes(make):
    state, requests = _served_state()
    want = _response_bytes(predict_batch(state, requests[0]))
    clone = make(state)
    assert "batch_tapes" not in vars(clone)
    assert _response_bytes(predict_batch(clone, requests[0])) == want
    (mine, _), (theirs, _) = (predict_eval.batch_tape(clone, 60),
                              predict_eval.batch_tape(state, 60))
    assert mine is not theirs and not np.shares_memory(mine.scratch, theirs.scratch)
    assert mine.weights is clone.weight_means()


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
def test_an_empty_request_answers_empty_arrays(kind):
    # an empty sequence of indices reads as (0, K) rows: means and
    # variances, or probabilities, of no cells. A batch, a test set and
    # the predict command's index file must still hold an entry
    state, requests = _served_state(kind)
    got = predict_batch(state, [])
    arrays = got if kind is ValueKind.CONTINUOUS else (got,)
    assert [(a.shape, a.dtype) for a in arrays] == [((0,), np.float64)] * len(arrays)
    assert _response_bytes(predict_batch(state, requests[0])) == _response_bytes(
        predict_batch(copy.deepcopy(state), requests[0]))
    with pytest.raises(ValueError, match="a batch cannot be empty"):
        process_batch(state, [])
    with pytest.raises(ValueError, match="test set must be nonempty"):
        running_eval(state, [], [])


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
def test_an_empty_request_keeps_the_warm_tape(kind):
    # an empty request answers before it reaches the thread's tape: the
    # warm tape survives it, so the next request of its row count builds
    # none, and a state that has not predicted builds no tape for it
    state, requests = _served_state(kind)
    fresh = copy.deepcopy(state)
    predict_batch(state, requests[0])
    warm = state.batch_tapes.last
    for means_only in [False, True] if kind is ValueKind.CONTINUOUS else [False]:
        assert _response_bytes(predict_batch(state, [], means_only=means_only)) in (
            [b""], [b"", b""])
        assert state.batch_tapes.last is warm
        predict_batch(state, requests[1], means_only=means_only)
        assert state.batch_tapes.last is warm
    predict_batch(fresh, [])
    assert "batch_tapes" not in vars(fresh)
