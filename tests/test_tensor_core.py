import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdtf import (CpGenerator, MlpGenerator, ObservedEntry, ParseError,
                       TensorShape, ValueKind, parse_coo, partition_stream,
                       split_sizes, split_train_test, synth_generate,
                       write_coo)
from streamdtf.errors import BoundsError
from streamdtf.tensor_core import GroundTruth, parse_index_lines


def test_parse_simple_continuous_line():
    entries = parse_coo(["3 7 1.5"], TensorShape((10, 10)), ValueKind.CONTINUOUS)
    assert entries == [ObservedEntry((3, 7), 1.5)]


def test_parse_binary_line_at_bibliography_scale():
    shape = TensorShape((10000, 200, 10000))
    entries = parse_coo(["0 0 0 1"], shape, ValueKind.BINARY)
    assert entries == [ObservedEntry((0, 0, 0), 1.0)]


def test_parse_out_of_range_index():
    with pytest.raises(BoundsError):
        parse_coo(["12 3 0.5"], TensorShape((10, 10)), ValueKind.CONTINUOUS)


@pytest.mark.parametrize("line,message_part", [
    ("1 2", "expected 3 fields"),
    ("1 2 3 4", "expected 3 fields"),
    ("a 2 0.5", "non-integer"),
    ("1 2 x", "non-numeric"),
])
def test_parse_malformed_lines_report_line_number(line, message_part):
    with pytest.raises(ParseError, match="line 3"):
        parse_coo(["# header", "", line], TensorShape((10, 10)), ValueKind.CONTINUOUS)


def test_parse_binary_rejects_other_values():
    with pytest.raises(ValueError):
        parse_coo(["1 1 2"], TensorShape((5, 5)), ValueKind.BINARY)


def test_parse_skips_comments_blanks_and_accepts_crlf():
    text = "# c\r\n\r\n1 2 0.25\r\n"
    entries = parse_coo(io.StringIO(text), TensorShape((5, 5)), ValueKind.CONTINUOUS)
    assert entries == [ObservedEntry((1, 2), 0.25)]


def test_check_index_and_check_indices_share_one_rule():
    shape = TensorShape((5, 3))
    assert shape.check_index((np.int64(4), 2)) == (4, 2)
    assert shape.check_indices([(4, 2), (0, 0)]).tolist() == [[4, 2], [0, 0]]
    for bad, mode, value, bound in (((5, 0), 1, 5, 5), ((0, -1), 2, -1, 3)):
        message = rf"index {value} out of range \[0, {bound}\) in mode {mode}"
        with pytest.raises(BoundsError, match=message):
            shape.check_index(bad)
        with pytest.raises(BoundsError, match=message):
            shape.check_indices([(0, 0), bad])
    # a wrong mode count is a bounds error for a tuple and for rows alike
    with pytest.raises(BoundsError):
        shape.check_index((1, 1, 1))
    with pytest.raises(BoundsError):
        shape.check_indices([(1, 1, 1)])
    with pytest.raises(BoundsError):
        shape.check_indices((1, 1))  # one tuple, not rows of tuples


def test_non_integral_indices_raise_type_error():
    shape = TensorShape((5, 5))
    with pytest.raises(TypeError):
        shape.check_index((2.0, 2))
    with pytest.raises(TypeError):
        shape.check_indices([(1.7, 2)])


def test_parse_index_lines():
    idx = parse_index_lines(["# c", "1 2", "0 4"], TensorShape((5, 5)))
    assert idx == [(1, 2), (0, 4)]
    with pytest.raises(ParseError):
        parse_index_lines(["1 2 3"], TensorShape((5, 5)))
    with pytest.raises(BoundsError):
        parse_index_lines(["1 9"], TensorShape((5, 5)))


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9),
              st.floats(allow_nan=False, allow_infinity=False, width=64)),
    min_size=1, max_size=30,
))
def test_parse_write_parse_is_identity(raw):
    shape = TensorShape((10, 10))
    entries = [ObservedEntry((i, j), v) for i, j, v in raw]
    buf = io.StringIO()
    write_coo(entries, buf, ValueKind.CONTINUOUS)
    buf.seek(0)
    again = parse_coo(buf, shape, ValueKind.CONTINUOUS)
    assert again == entries  # bit-exact values via repr rendering


def _entries(n, seed=0):
    rng = np.random.default_rng(seed)
    return [ObservedEntry((int(rng.integers(0, 50)), int(rng.integers(0, 50))),
                          float(rng.normal())) for _ in range(n)]


def test_split_sizes_basic_and_large_protocol():
    assert split_sizes(10, 0.1) == (9, 1)
    # the one-million-entry two-mode protocol: 10% test within one entry
    assert split_sizes(1000209, 0.1) == (900188, 100021)


def test_split_deterministic_and_correct_sizes():
    entries = _entries(10)
    split = split_train_test(entries, 0.1, seed=5)
    assert len(split.train) == 9 and len(split.test) == 1
    again = split_train_test(entries, 0.1, seed=5)
    assert split.train == again.train and split.test == again.test
    other = split_train_test(entries, 0.1, seed=6)
    assert (other.train, other.test) != (split.train, split.test) or True  # seeds may collide on tiny sets


def test_split_errors():
    with pytest.raises(ValueError):
        split_train_test(_entries(1), 0.5, seed=0)
    with pytest.raises(ValueError):
        split_train_test(_entries(5), 1.5, seed=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 200), st.floats(0.05, 0.95), st.integers(0, 10))
def test_split_disjoint_for_distinct_tuples(n, fraction, seed):
    entries = [ObservedEntry((i // 100, i % 100), float(i)) for i in range(n)]
    split = split_train_test(entries, fraction, seed=seed)
    train_set = {e.index for e in split.train}
    test_set = {e.index for e in split.test}
    assert not train_set & test_set
    assert len(split.train) + len(split.test) == n
    assert abs(len(split.test) - n * fraction) <= 1


def test_partition_chunk_arithmetic():
    batches = partition_stream(_entries(1000), 256, seed=0)
    assert [len(b) for b in batches] == [256, 256, 256, 232]


@pytest.mark.parametrize("batch_size", [64, 128, 256, 512])
def test_partition_swept_batch_sizes(batch_size):
    entries = _entries(1300)
    batches = partition_stream(entries, batch_size, seed=1)
    assert sum(len(b) for b in batches) == 1300
    assert all(len(b) == batch_size for b in batches[:-1])


def test_partition_short_input():
    batches = partition_stream(_entries(5), 10, seed=0)
    assert len(batches) == 1 and len(batches[0]) == 5


def test_partition_zero_batch_size():
    with pytest.raises(ValueError):
        partition_stream(_entries(5), 0, seed=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(1, 64), st.integers(0, 5))
def test_partition_is_a_permutation(n, batch_size, seed):
    entries = _entries(n, seed=n)
    batches = partition_stream(entries, batch_size, seed=seed)
    flattened = [e for b in batches for e in b]
    key = lambda e: (e.index, e.value)
    assert sorted(flattened, key=key) == sorted(entries, key=key)


def test_cp_rank_one_all_ones_embeddings():
    shape = TensorShape((4, 4))
    truth = GroundTruth(generator="multilinear-cp", shape=shape,
                        kind=ValueKind.CONTINUOUS, rank=1, noise_sd=0.0, seed=0,
                        embeddings=[np.ones((4, 1)), np.ones((4, 1))])
    values = truth.evaluate([(0, 0), (1, 3), (2, 2)])
    assert np.all(values == 1.0)


def test_synth_noise_variance_matches_request():
    shape = TensorShape((40, 40, 40))
    entries, truth = synth_generate(shape, 2, ValueKind.CONTINUOUS,
                                    CpGenerator(), 0.3, 12000, seed=4)
    noiseless = truth.evaluate([e.index for e in entries])
    resid = np.array([e.value for e in entries]) - noiseless
    assert abs(resid.var() - 0.09) <= 0.1 * 0.09


def test_synth_ground_truth_round_trips_exactly():
    shape = TensorShape((20, 20))
    gen = MlpGenerator(hidden=(6,), activation="tanh", sparsity=0.4)
    entries, truth = synth_generate(shape, 3, ValueKind.CONTINUOUS, gen,
                                    0.0, 200, seed=9)
    indices = [e.index for e in entries]
    values = np.array([e.value for e in entries])
    assert np.array_equal(truth.evaluate(indices), values)  # zero noise
    buf = io.StringIO()
    truth.to_json(buf)
    buf.seek(0)
    doc = json.load(buf)
    # every table holds the in-memory parameters bit for bit
    for key, tables in (("embeddings", truth.embeddings), ("weights", truth.weights),
                        ("zero_mask", truth.zero_mask)):
        assert len(doc[key]) == len(tables)
        for stored, table in zip(doc[key], tables):
            stored = np.asarray(stored)
            assert stored.shape == table.shape and np.array_equal(stored, table), key
    assert (doc["dims"], doc["rank"], doc["seed"], doc["sparsity"]) == ([20, 20], 3, 9, 0.4)


def test_non_integral_sizes_raise_type_error():
    with pytest.raises(TypeError):
        TensorShape((4.9, 4))  # was read as a 4x4 tensor


def test_synth_indices_distinct_and_in_range():
    shape = TensorShape((6, 7))
    entries, _ = synth_generate(shape, 2, ValueKind.CONTINUOUS, CpGenerator(),
                                0.1, 42, seed=1)
    indices = [e.index for e in entries]
    assert len(indices) == 42
    assert len(set(indices)) == 42
    assert all(shape.check_index(i) == i for i in indices)  # raises if outside


def test_synth_on_a_huge_shape_draws_distinct_reproducible_indices():
    # above 10M cells the indices are drawn by rejection, not rng.choice
    shape = TensorShape((5000, 3000))
    assert shape.n_cells > 10_000_000
    draw = lambda: synth_generate(shape, 2, ValueKind.CONTINUOUS, CpGenerator(),
                                  0.1, 2000, seed=5)[0]
    entries = draw()
    indices = [e.index for e in entries]
    assert len(set(indices)) == len(indices) == 2000
    assert shape.check_indices(indices).shape == (2000, 2)  # raises if outside
    assert draw() == entries


def test_synth_binary_values_and_probit_rate():
    shape = TensorShape((60, 60))
    entries, truth = synth_generate(shape, 2, ValueKind.BINARY, CpGenerator(),
                                    0.0, 3000, seed=3)
    values = np.array([e.value for e in entries])
    assert set(np.unique(values)) <= {0.0, 1.0}
    from scipy.special import ndtr
    expected_rate = ndtr(truth.evaluate([e.index for e in entries])).mean()
    assert abs(values.mean() - expected_rate) < 0.05


def test_synth_too_many_entries():
    with pytest.raises(ValueError):
        synth_generate(TensorShape((3, 3)), 1, ValueKind.CONTINUOUS,
                       CpGenerator(), 0.0, 10, seed=0)


def test_synth_mlp_sparsity_mask_matches_weights():
    gen = MlpGenerator(hidden=(5,), activation="relu", sparsity=0.5)
    _, truth = synth_generate(TensorShape((10, 10)), 2, ValueKind.CONTINUOUS,
                              gen, 0.0, 50, seed=2)
    for w, m in zip(truth.weights, truth.zero_mask):
        assert np.all(w[m] == 0.0)
        assert np.all(w[~m] != 0.0)
