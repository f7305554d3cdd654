import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdtf import (CpGenerator, MlpGenerator, ObservedEntry, ParseError,
                       TensorShape, ValueKind, parse_coo, partition_stream,
                       split_sizes, split_train_test, synth_generate,
                       write_coo)
from streamdtf import tensor_core
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


def test_check_indices_reads_an_empty_sequence_as_no_rows():
    for dims in ((5, 3), (4,), (2, 3, 4)):
        for empty in ([], ()):
            idx = TensorShape(dims).check_indices(empty)
            assert (idx.shape, idx.dtype) == ((0, len(dims)), np.int64)


def test_dims_array_is_built_once_and_read_only():
    shape = TensorShape((5, 3, 7))
    dims = shape.dims_array
    assert dims.dtype == np.int64 and dims.tolist() == [5, 3, 7]
    assert shape.dims_array is dims
    with pytest.raises(ValueError):
        dims[0] = 100
    with pytest.raises(BoundsError):
        shape.check_indices([(4, 2, 6), (0, 3, 0)])


def test_non_integral_indices_raise_type_error():
    shape = TensorShape((5, 5))
    with pytest.raises(TypeError):
        shape.check_index((2.0, 2))
    with pytest.raises(TypeError):
        shape.check_indices([(1.7, 2)])


def test_check_indices_reads_a_bool_among_integers_as_its_integer():
    shape = TensorShape((5, 3))
    rows = [(4, 2), (0, 0), (3, 1)]
    assert shape.check_indices(rows).tolist() == shape.check_indices(np.array(rows)).tolist()
    assert shape.check_indices([(True, 2), (0, False)]).tolist() == [[1, 2], [0, 0]]
    assert shape.check_indices([(1, 2), (True, False)]).tolist() == [[1, 2], [1, 0]]
    # rows of bools alone are a bool array, not integers
    with pytest.raises(TypeError, match="dtype bool"):
        shape.check_indices([(True, False), (False, True)])


def test_check_indices_refuses_a_float_or_a_string_coordinate():
    shape = TensorShape((5, 3))
    for bad in ([(2.0, 2)], [(1, 2), (3, 1.0)], [(np.float64(1.0), 2)], [("1", 2)],
                [(1, 2), (2 ** 70, 0)]):
        with pytest.raises(TypeError, match="indices must be integers"):
            shape.check_indices(bad)


def test_check_indices_names_the_first_row_of_the_wrong_length():
    shape = TensorShape((5, 3))
    # [(1, 2, 0), (4,)] has the four coordinates of two rows of K = 2
    for rows, named in (([(1, 2), (3,)], r"\(3,\)"), ([(1, 2, 0), (4,)], r"\(1, 2, 0\)"),
                        ([(1, 2), (0, 1), (3, 4, 0)], r"\(3, 4, 0\)")):
        with pytest.raises(BoundsError, match=rf"index {named} has \d modes"):
            shape.check_indices(rows)
    with pytest.raises(BoundsError, match=r"indices of shape \(2, 1\)"):
        shape.check_indices([(1,), (2,)])


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


def _reference_parse(lines, dims, kind):
    """A naive per-line reader written from the README's file format, apart
    from tensor_core: a list of (index, value) for a COO file, or of index
    tuples where `kind` is None; errors worded as the package words them."""
    k = len(dims)
    n_fields = k + (kind is not None)
    out = []
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) != n_fields:
            what = "index fields" if kind is None else "fields"
            raise ParseError(f"line {line_no}: expected {n_fields} {what}, got {len(fields)}")
        try:
            index = tuple(int(f) for f in fields[:k])
        except ValueError:
            raise ParseError(f"line {line_no}: non-integer index field") from None
        for mode, (i, d) in enumerate(zip(index, dims), start=1):
            if not 0 <= i < d:
                raise BoundsError(f"line {line_no}: index {i} out of range [0, {d}) "
                                  f"in mode {mode}")
        if kind is None:
            out.append(index)
            continue
        try:
            value = float(fields[k])
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric value field {fields[k]!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"line {line_no}: value must be finite, got {value}")
        if kind == "binary" and value not in (0.0, 1.0):
            raise ValueError(f"line {line_no}: binary value must be 0 or 1, got {value}")
        out.append((index, value))
    return out


def _outcome(parse, *args):
    """What a reader returns, down to the types and bits of every number
    (repr tells -0.0 from 0.0), or the type and message of what it raises."""
    try:
        got = parse(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return [(type(e), [(type(x), repr(x)) for x in e]) for e in got]


_SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x0c", "\x85", "\xa0", "\u3000"])
_INDEX_TOKENS = st.sampled_from(["0", "1", "4", "11", "+3", "-0", "1_0", "\u0661"])
_VALUE_TOKENS = st.sampled_from(["0", "1", "0.5", "-0.0", "1.0", "2.5e-3", "-7"])
_ODD_TOKENS = st.sampled_from(["12", "-1", str(2 ** 70), "nan", "inf", "-inf", "1e400",
                               "0x10", "#2", "x", "1.5", "0.1_0"])


@st.composite
def _coo_lines(draw, n_fields):
    """Lines of a COO (n_fields = K + 1) or index (n_fields = K) file:
    mostly well-formed data lines, with comments, blank lines, odd tokens,
    wrong field counts, Unicode whitespace and LF, CRLF or no line end."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["data", "data", "data", "mixed", "comment", "blank"]))
        if shape == "data":
            tokens = [draw(_INDEX_TOKENS) for _ in range(n_fields - 1)]
            tokens.append(draw(_VALUE_TOKENS if n_fields == 3 else _INDEX_TOKENS))
        elif shape == "mixed":
            tokens = draw(st.lists(st.one_of(_INDEX_TOKENS, _VALUE_TOKENS, _ODD_TOKENS),
                                   min_size=1, max_size=4))
        elif shape == "comment":
            tokens = [draw(st.sampled_from(["#", "# a comment", "#1 2 0.5", "1 #2 0.5"]))]
        else:
            tokens = []
        lead = draw(st.sampled_from(["", " ", "\t"]))
        sep = draw(_SEPARATORS)
        end = draw(st.sampled_from(["\n", "\r\n", ""]))
        lines.append(lead + sep.join(tokens) + end)
    return lines


_DIMS = (5, 12)


@pytest.mark.parametrize("chunk", [1, 2, 3, tensor_core._CHUNK_LINES])
@pytest.mark.parametrize("kind", ["continuous", "binary", None])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_the_chunked_reader_matches_a_per_line_reference(kind, chunk, data):
    lines = data.draw(_coo_lines(len(_DIMS) + (kind is not None)))
    shape = TensorShape(_DIMS)
    want = _outcome(_reference_parse, lines, _DIMS, kind)
    with mock.patch.object(tensor_core, "_CHUNK_LINES", chunk):
        if kind is None:
            got = _outcome(parse_index_lines, lines, shape)
        else:
            got = _outcome(parse_coo, lines, shape, ValueKind(kind))
    entry_type = tuple if kind is None else ObservedEntry
    if isinstance(want, list):
        want = [(entry_type, fields) for _, fields in want]
    assert got == want


@pytest.mark.parametrize("bad, error, message", [
    ("1 2 x", ParseError, "non-numeric value field 'x'"),
    ("1 77 0.5", BoundsError, r"index 77 out of range \[0, 50\) in mode 2"),
    ("1 2 inf", ValueError, "value must be finite, got inf"),
])
def test_a_bad_line_two_chunks_in_names_its_line(bad, error, message):
    bad_line_no = tensor_core._CHUNK_LINES * 2 + 5
    lines = ["# header", ""] + ["# comment" if i % 97 == 0 else "1 2 0.5"
                                for i in range(bad_line_no - 3)] + [bad, "3 4 0.5"]
    with pytest.raises(error, match=rf"^line {bad_line_no}: {message}$"):
        parse_coo(lines, TensorShape((50, 50)), ValueKind.CONTINUOUS)


def test_a_one_shot_stream_and_a_crlf_file_read_as_a_list(tmp_path):
    shape = TensorShape((50, 50))
    entries = _entries(tensor_core._CHUNK_LINES * 2 + 100)
    buf = io.StringIO()
    write_coo(entries, buf, ValueKind.CONTINUOUS)
    lines = ["# a header\n"] + buf.getvalue().splitlines(keepends=True)
    assert parse_coo(lines, shape, ValueKind.CONTINUOUS) == entries
    assert parse_coo((line for line in lines), shape, ValueKind.CONTINUOUS) == entries
    crlf = tmp_path / "crlf.coo"
    crlf.write_bytes("".join(lines).replace("\n", "\r\n").encode())
    with open(crlf, encoding="utf-8", newline="") as fp:  # lines keep their "\r\n"
        assert parse_coo(fp, shape, ValueKind.CONTINUOUS) == entries
    index_lines = (" ".join(map(str, e.index)) for e in entries)
    assert parse_index_lines(index_lines, shape) == [e.index for e in entries]


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


@pytest.mark.parametrize("n", [2, 3, 10, 101, 1000])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_split_matches_its_per_element_form(n, seed):
    entries = _entries(n, seed=n)
    for fraction in (0.1, 0.5, 0.9):
        _, n_test = split_sizes(n, fraction)
        perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
        test_idx = set(int(i) for i in perm[:n_test])
        split = split_train_test(entries, fraction, seed=seed)
        assert split.train == tuple(e for i, e in enumerate(entries) if i not in test_idx)
        assert split.test == tuple(e for i, e in enumerate(entries) if i in test_idx)


@pytest.mark.parametrize("n, batch_size, seed", [(1, 1, 0), (5, 10, 3), (1000, 256, 1),
                                                 (1300, 64, 9)])
def test_partition_matches_its_per_element_form(n, batch_size, seed):
    entries = _entries(n, seed=seed)
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    shuffled = [entries[int(i)] for i in perm]
    want = [tuple(shuffled[lo:lo + batch_size]) for lo in range(0, n, batch_size)]
    assert partition_stream(entries, batch_size, seed=seed) == want


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
