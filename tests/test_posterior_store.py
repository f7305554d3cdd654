import copy
import io
import json
from pathlib import Path

import numpy as np
import pytest

from streamdtf import (CheckpointError, CpGenerator, GammaPosterior, Hyperparams,
                       NetworkSpec, TensorShape, ValueKind, check_invariants,
                       checkpoint_bytes, cli, init_state, load_checkpoint,
                       posterior_store, process_batch, save_checkpoint,
                       synth_generate)

DATA = Path(__file__).parent / "data"


def _small_state(seed=0, kind=ValueKind.CONTINUOUS, rho0=0.5, sigma0_sq=1.0):
    shape = TensorShape((5, 6))
    net = NetworkSpec.for_factorization(4, [3], "tanh")
    hyper = Hyperparams(rho0=rho0, sigma0_sq=sigma0_sq, ranks=(2, 2))
    return init_state(shape, kind, net, hyper, seed=seed)


def test_init_term_fields_and_selectors():
    state = _small_state(seed=3)
    for lay in state.weights:
        assert np.all(lay.term_var == 1.0)
        assert np.all(np.abs(lay.term_mean) <= 1.0)  # truncated to [-sigma0, sigma0]
        assert np.all(lay.term_logit == 0.0)
        assert np.all(lay.rho_post == 0.5)
        # posterior starts as the term alone
        assert np.array_equal(lay.mean, lay.term_mean)
        assert np.array_equal(lay.var, lay.term_var)
    assert state.gamma == GammaPosterior(1.0, 1.0)
    assert state.entries_seen == 0


def test_init_truncation_respects_sigma0():
    state = _small_state(seed=1, sigma0_sq=0.25)
    for lay in state.weights:
        assert np.all(np.abs(lay.term_mean) <= 0.5)
        assert np.all(lay.term_var == 0.25)


def test_init_embeddings_are_prior_copy_for_any_seed():
    for seed in (0, 1, 99):
        state = _small_state(seed=seed)
        for emb in state.embeddings:
            assert np.all(emb.mean == 0.0)
            assert np.all(emb.var == 1.0)


def test_init_deterministic_under_seed():
    assert checkpoint_bytes(_small_state(seed=7)) == checkpoint_bytes(_small_state(seed=7))
    assert checkpoint_bytes(_small_state(seed=7)) != checkpoint_bytes(_small_state(seed=8))


def test_init_binary_has_no_gamma():
    state = _small_state(kind=ValueKind.BINARY)
    assert state.gamma is None


def test_init_validation():
    shape = TensorShape((5, 6))
    net = NetworkSpec.for_factorization(4, [3], "tanh")
    with pytest.raises(ValueError):
        init_state(shape, ValueKind.CONTINUOUS, net,
                   Hyperparams(ranks=(2, 2, 2)), seed=0)  # rank count != modes
    with pytest.raises(ValueError):
        init_state(shape, ValueKind.CONTINUOUS, net,
                   Hyperparams(ranks=(3, 2)), seed=0)  # sum != V_0
    with pytest.raises(ValueError):
        Hyperparams(rho0=1.0)
    with pytest.raises(ValueError):
        Hyperparams(sigma0_sq=0.0)
    for name in ("sigma0_sq", "a0", "b0"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Hyperparams(**{name: bad})


def test_non_integral_ranks_raise_type_error():
    with pytest.raises(TypeError):
        Hyperparams(ranks=(2.7,))


def test_gather_at_init_and_ordering():
    state = _small_state()
    means, variances = state.gather_entry((0, 0))
    assert np.array_equal(means, np.zeros(4))
    assert np.array_equal(variances, np.ones(4))
    # concatenation is mode 1 first, ascending rank within mode
    state.embeddings[1].mean[3, 0] = 9.0
    means, _ = state.gather_entry((1, 3))
    assert means[2] == 9.0 and means[0] == 0.0


def test_scatter_round_trip_and_isolation():
    state = _small_state()
    before = checkpoint_bytes(state)
    index = (2, 4)
    means, variances = state.gather_entry(index)
    state.scatter_entry(index)  # identity write
    assert checkpoint_bytes(state) == before

    # the engine writes the new rows into the input slot gather returned
    baseline = copy.deepcopy(state)
    means += np.array([1.0, 2.0, 3.0, 4.0])
    variances *= 0.5
    new_means, new_vars = means.copy(), variances.copy()
    state.scatter_entry(index)
    state.gather_entry((0, 0))  # overwrites the slot
    got_means, got_vars = state.gather_entry(index)
    assert np.array_equal(got_means, new_means)
    assert np.array_equal(got_vars, new_vars)
    # every cell outside the located rows is bit-identical
    for k, (emb, ref) in enumerate(zip(state.embeddings, baseline.embeddings)):
        untouched = np.ones(emb.mean.shape[0], dtype=bool)
        untouched[index[k]] = False
        assert np.array_equal(emb.mean[untouched], ref.mean[untouched])
        assert np.array_equal(emb.var[untouched], ref.var[untouched])


def test_checkpoint_round_trip():
    state = _small_state(seed=5)
    state.entries_seen = 17
    state.gamma = GammaPosterior(3.5, 2.25)
    buf = io.StringIO()
    save_checkpoint(state, buf)
    buf.seek(0)
    loaded = load_checkpoint(buf)
    assert checkpoint_bytes(loaded) == checkpoint_bytes(state)
    assert loaded.entries_seen == 17
    assert loaded.net == state.net
    assert loaded.hyper == state.hyper


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
def test_checkpoint_text_is_json_dump_text(kind):
    state = _small_state(seed=2, kind=kind)
    buf = io.StringIO()
    save_checkpoint(state, buf)
    want = io.StringIO()
    json.dump(json.loads(buf.getvalue()), want, sort_keys=True, separators=(",", ":"))
    assert buf.getvalue() == want.getvalue() + "\n"


@pytest.mark.parametrize("kind, dims", [(ValueKind.CONTINUOUS, (8, 6)),
                                        (ValueKind.BINARY, (8, 6)),
                                        (ValueKind.CONTINUOUS, (4, 5, 3))])
def test_checkpoint_bytes_are_the_json_dumps_of_the_document(kind, dims):
    # save_checkpoint writes the tables past json; the text must still be
    # json.dumps's of the whole document, on a trained state of 2 or 3 modes
    shape = TensorShape(dims)
    state = init_state(shape, kind, NetworkSpec.for_factorization(2 * len(dims), [3], "tanh"),
                       Hyperparams(ranks=(2,) * len(dims)), seed=3)
    entries, _ = synth_generate(shape, 2, kind, CpGenerator(), 0.1, 40, seed=4)
    process_batch(state, tuple(entries))
    doc = posterior_store._checkpoint_doc(state, posterior_store._hex)
    buf = io.StringIO()
    save_checkpoint(state, buf)
    assert buf.getvalue() == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_checkpoint_of_fresh_init_equals_fresh_init():
    state = _small_state(seed=1)
    buf = io.StringIO()
    save_checkpoint(state, buf)
    buf.seek(0)
    assert checkpoint_bytes(load_checkpoint(buf)) == checkpoint_bytes(_small_state(seed=1))


def test_checkpoint_truncated_and_wrong_version():
    state = _small_state()
    buf = io.StringIO()
    save_checkpoint(state, buf)
    text = buf.getvalue()
    with pytest.raises(CheckpointError):
        load_checkpoint(io.StringIO(text[: len(text) // 2]))
    version = f'"version":{posterior_store.CHECKPOINT_VERSION}'
    assert text.count(version) == 1
    bad = text.replace(version, '"version":99')
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 99"):
        load_checkpoint(io.StringIO(bad))
    with pytest.raises(CheckpointError):
        load_checkpoint(io.StringIO('{"format":"something-else"}'))


def _set(path, value):
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value(doc[last]) if callable(value) else value
    return edit


def _v2_doc(state):
    """The document a version-2 save of `state` wrote: the version-3 one
    with each table as a list of rows of decimals."""
    doc = json.loads(checkpoint_bytes(state))
    doc["version"] = 2
    doc["embeddings"] = [{"mean": emb.mean.tolist(), "var": emb.var.tolist()}
                         for emb in state.embeddings]
    doc["weights"] = [{name: getattr(lay, name).tolist()
                       for name in posterior_store.WEIGHT_FIELDS}
                      for lay in state.weights]
    return doc


def _v2_text(state):
    """The text a version-2 save of `state` wrote."""
    return json.dumps(_v2_doc(state), sort_keys=True, separators=(",", ":")) + "\n"


def _cell(group, k, name, cell, value):
    """An edit setting one cell of a version-3 table of `_small_state()`,
    `doc[group][k][name]`, to the float64 `value`, bits and all."""
    def edit(doc):
        shape = getattr(getattr(_small_state(), group)[k], name).shape
        table = np.frombuffer(bytes.fromhex(doc[group][k][name]), "<f8").reshape(shape).copy()
        table[cell] = value
        doc[group][k][name] = table.tobytes().hex()
    return edit


@pytest.mark.parametrize("edit", [
    _set(("hyper", "rho0"), 3.0),
    _set(("gamma", "a"), -1),
    _set(("network", "widths", -1), 2),
    _set(("dims",), [-5, 6]),
    _set(("embeddings",), lambda tables: tables[:1]),
    _set(("weights",), lambda tables: tables[:1]),
    _set(("dims",), [5.5, 6]),
    _set(("hyper", "ranks"), [2.5, 2]),
    _set(("network", "widths", 0), 4.5),
    _set(("entries_seen",), 0.5),
    _set(("kind",), 5),
    _set(("kind",), None),
    _set(("kind",), ["continuous"]),
], ids=["rho0", "gamma-a", "output-width", "negative-dims", "embedding-table-missing",
        "weight-layer-missing", "fractional-dims", "fractional-ranks", "fractional-width",
        "fractional-entries-seen", "kind-int", "kind-null", "kind-list"])
def test_checkpoint_bad_values_raise_checkpoint_error(edit):
    doc = json.loads(checkpoint_bytes(_small_state()))
    edit(doc)
    with pytest.raises(CheckpointError):
        load_checkpoint(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("edit", [
    _set(("weights", 0, "var"), lambda rows: rows[:-1]),
    _set(("embeddings", 1, "mean"), lambda rows: rows[:-1]),
    _set(("weights", 1, "mean", 0), lambda row: row[:-1]),
    _set(("weights", 0, "mean", 0, 0), "0.25"),
    _set(("weights", 1, "var", 0, 1), True),
    _set(("weights", 0, "term_mean", 1, 0), False),
    _set(("embeddings", 0, "mean", 2, 1), "0.25"),
    _set(("embeddings", 1, "var", 0, 0), True),
    _set(("weights", 0, "var", 0), lambda row: [True] * len(row)),
    _set(("weights", 0, "term_logit", 1, 2), 10 ** 400),
    _set(("embeddings", 0, "var", 1, 0), None),
    _set(("weights", 0, "rho_post"), lambda rows: np.array(rows).tobytes().hex()),
], ids=["weight-table-short", "embedding-table-short", "ragged-rows", "string-weight-cell",
        "true-weight-cell", "false-weight-cell", "string-embedding-cell",
        "true-embedding-cell", "bool-weight-row", "huge-int-cell", "null-cell",
        "hex-table-under-version-2"])
def test_decimal_table_bad_values_raise_schema_violation(edit):
    # versions 1 and 2 write each table as rows of decimals, which the
    # loader still reads: a cell that is not a JSON number, or a table of
    # the wrong shape or type, is refused
    doc = _v2_doc(_small_state())
    edit(doc)
    with pytest.raises(CheckpointError, match="schema violation"):
        load_checkpoint(io.StringIO(json.dumps(doc)))


def test_saved_tables_are_hex_float64_of_the_posterior():
    state = _small_state(seed=3)
    doc = json.loads(checkpoint_bytes(state))
    assert doc["embeddings"][1]["var"] == np.asarray(state.embeddings[1].var, "<f8").tobytes().hex()
    for lay, saved in zip(state.weights, doc["weights"]):
        for name in posterior_store.WEIGHT_FIELDS:
            want = getattr(lay, name)
            got = np.frombuffer(bytes.fromhex(saved[name]), "<f8").reshape(want.shape)
            assert np.array_equal(got, want) and saved[name] == saved[name].lower()


@pytest.mark.parametrize("edit", [
    _set(("weights", 0, "mean"), lambda t: t[:-1]),
    _set(("embeddings", 0, "mean"), lambda t: t + "0"),
    _set(("weights", 1, "var"), lambda t: t[:-2]),
    _set(("embeddings", 1, "var"), lambda t: t + "00"),
    _set(("weights", 0, "rho_post"), lambda t: t[:-16]),
    _set(("weights", 0, "term_var"), lambda t: "g" + t[1:]),
    _set(("weights", 1, "rho_post"), lambda t: t[:8] + "x" + t[9:]),
    _set(("weights", 0, "term_logit"), lambda t: t[:16] + " " + t[16:-1]),
    _set(("embeddings", 0, "var"), lambda t: t[:16] + "  " + t[18:]),
    _set(("weights", 0, "term_mean"), lambda t: t[:16] + "\n" + t[17:]),
    _set(("weights", 0, "mean"), lambda t: np.frombuffer(bytes.fromhex(t)).reshape(3, 5).tolist()),
    _set(("embeddings", 1, "mean"), lambda t: []),
    _set(("weights", 1, "var"), 0.5),
    _set(("weights", 1, "var"), None),
    _set(("weights",), lambda layers: layers[::-1]),
    _set(("embeddings",), lambda modes: modes[::-1]),
], ids=["one-char-short-odd-length", "one-char-too-many-odd-length", "one-byte-short",
        "one-byte-too-many", "one-cell-short",
        "non-hex-char", "non-hex-letter", "space-inside", "whitespace-for-a-byte",
        "newline-inside", "list-table-under-version-3", "empty-list-table", "number-table",
        "null-table", "layers-swapped", "modes-swapped"])
def test_hex_table_corruption_raises_schema_violation(edit):
    # a version-3 table is a string of exactly 16 hex digits per cell of
    # the shape dims, ranks and widths give; bytes.fromhex skips whitespace,
    # so a string of the right length holding some must be refused too.
    # The small state's layers (3, 5) and (1, 4) and modes (5, 2) and
    # (6, 2) differ in length, so swapped tables fit the other's shape only
    doc = json.loads(checkpoint_bytes(_small_state()))
    edit(doc)
    with pytest.raises(CheckpointError, match="schema violation"):
        load_checkpoint(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("edit", [
    _set(("entries_seen",), -3),
    _set(("entries_seen",), True),
    _set(("hyper", "sigma0_sq"), True),
    _set(("gamma", "a"), "1.5"),
    _set(("network", "widths", -1), True),
    _set(("gamma", "a"), 10 ** 400),
    _set(("hyper", "sigma0_sq"), 10 ** 400),
    _set(("hyper", "a0"), 10 ** 400),
    _set(("unread",), False),
    _set(("unread",), "not true"),
], ids=["negative-entries-seen", "bool-entries-seen", "bool-sigma0-sq", "string-gamma-a",
        "bool-width", "huge-int-gamma-a", "huge-int-sigma0-sq", "huge-int-a0",
        "bool-under-an-unread-key", "bool-literal-in-a-string"])
def test_checkpoint_counts_must_be_ints_and_reals_numbers(edit):
    # bool is an int subclass and float() reads a string: each of these
    # documents loaded, and a bool sigma0_sq was written back as true; an
    # int too large for a float loaded too, or raised a bare OverflowError.
    # The loader refuses a true or false literal anywhere in the text, even
    # where no step reads it
    doc = json.loads(checkpoint_bytes(_small_state()))
    edit(doc)
    with pytest.raises(CheckpointError, match="schema violation"):
        load_checkpoint(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
def test_a_saved_checkpoint_holds_no_bool_literal(kind, activation):
    # load_checkpoint refuses any document holding true or false, anywhere:
    # a save, of an initialised or a trained posterior, must hold neither
    shape = TensorShape((6, 5))
    net = NetworkSpec.for_factorization(4, [3], activation)
    state = init_state(shape, kind, net, Hyperparams(ranks=(2, 2)), seed=2)
    entries, _ = synth_generate(shape, 2, kind, CpGenerator(), 0.1, 20, seed=2)
    initialised = checkpoint_bytes(state)
    process_batch(state, entries)
    assert state.entries_seen == len(entries)
    for blob in (initialised, checkpoint_bytes(state)):
        text = blob.decode()
        assert "true" not in text and "false" not in text
        assert checkpoint_bytes(load_checkpoint(io.StringIO(text))) == blob


@pytest.mark.parametrize("edit", [
    _cell("weights", 0, "var", (0, 0), -1.0),
    _cell("weights", 1, "var", (0, 3), float("nan")),
    _cell("weights", 0, "var", (2, 4), float("inf")),
    _cell("weights", 1, "mean", (0, 1), float("nan")),
    _cell("weights", 0, "term_var", (1, 0), 0.0),
    _cell("weights", 1, "term_var", (0, 0), -np.inf),
    _cell("weights", 1, "term_mean", (0, 0), float("inf")),
    _cell("weights", 0, "term_logit", (0, 2), float("nan")),
    _cell("weights", 1, "rho_post", (0, 0), 3.0),
    _cell("weights", 0, "rho_post", (0, 0), 0.0),
    _cell("embeddings", 1, "var", (2, 0), -2.0),
    _cell("embeddings", 0, "var", (3, 1), float("nan")),
    _cell("embeddings", 1, "var", (5, 1), float("inf")),
    _cell("embeddings", 0, "mean", (4, 1), float("inf")),
    _set(("gamma", "b"), float("inf")),
    _set(("gamma",), None),
], ids=["weight-var", "weight-var-nan", "weight-var-inf", "weight-mean", "term-var",
        "term-var-minus-inf", "term-mean", "term-logit", "rho-above-one", "rho-zero",
        "embedding-var", "embedding-var-nan", "embedding-var-inf", "embedding-mean",
        "gamma-b", "gamma-missing"])
def test_checkpoint_impossible_posterior_raises_checkpoint_error(edit):
    # hex carries every float64 bit pattern, NaN and the infinities too:
    # check_invariants refuses them as it refused their decimal forms
    doc = json.loads(checkpoint_bytes(_small_state()))
    edit(doc)
    with pytest.raises(CheckpointError, match="impossible posterior"):
        load_checkpoint(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("edit", [
    _set(("weights", 0, "var", 0, 0), -1.0),
    _set(("embeddings", 0, "mean", 4, 1), float("inf")),
    _set(("weights", 1, "rho_post", 0, 0), 3.0),
], ids=["weight-var", "embedding-mean", "rho-above-one"])
def test_version_2_impossible_posterior_raises_checkpoint_error(edit):
    doc = _v2_doc(_small_state())
    edit(doc)
    with pytest.raises(CheckpointError, match="impossible posterior"):
        load_checkpoint(io.StringIO(json.dumps(doc)))


def test_checkpoint_holds_no_generator_state():
    doc = json.loads(checkpoint_bytes(_small_state()))
    assert doc["version"] == posterior_store.CHECKPOINT_VERSION == 3
    assert "rng" not in doc


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
def test_loaded_tables_are_writable(kind):
    # the embedding tables are the store scatter_entry writes: a resumed
    # run updates them in place
    state = _small_state(seed=6, kind=kind)
    loaded = load_checkpoint(io.StringIO(checkpoint_bytes(state).decode()))
    for emb in loaded.embeddings:
        assert emb.mean.flags.writeable and emb.var.flags.writeable
    entries, _ = synth_generate(state.shape, 2, kind, CpGenerator(), 0.1, 20, seed=6)
    process_batch(state, entries)
    process_batch(loaded, entries)
    assert checkpoint_bytes(loaded) == checkpoint_bytes(state)


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
def test_version_1_checkpoint_loads_and_its_generator_block_is_ignored(kind):
    state = _small_state(seed=4, kind=kind)
    state.entries_seen = 9
    doc = _v2_doc(state)
    # the generator-state block a version-1 save of this state wrote
    doc["version"] = 1
    doc["rng"] = {"bit_generator": "PCG64",
                  "state": {"inc": "278272906083703887290699702293328866393",
                            "state": "29287479138149045759364207458872477195"},
                  "has_uint32": 0, "uinteger": 0}
    loaded = load_checkpoint(io.StringIO(json.dumps(doc)))
    assert checkpoint_bytes(loaded) == checkpoint_bytes(state)


@pytest.mark.parametrize("kind", ["continuous", "binary"])
def test_version_2_files_load_to_the_posterior_training_gives_today(tmp_path, kind):
    # tests/data holds the two models the numpy-only CI job trains, saved
    # as version-2 files: retrained here, each must give the same
    # posterior, and a version-2 save of it the file's bytes
    train, test, model = (tmp_path / name for name in ("train.coo", "test.coo", "model.json"))
    assert cli.main(["synth", "--dims", "30,20", "--kind", kind, "--generator", "mlp",
                     "--rank", "2", "--entries", "400", "--noise-sd", "0.1", "--seed", "4",
                     "--test-fraction", "0.2", "--train-out", str(train),
                     "--test-out", str(test)]) == 0
    assert cli.main(["train", "--train", str(train), "--test", str(test), "--dims", "30,20",
                     "--kind", kind, "--rank", "2", "--hidden", "8", "--batch-size", "100",
                     "--seed", "4", "--checkpoint", str(model)]) == 0
    with open(model, encoding="utf-8") as fp:
        retrained = load_checkpoint(fp)
    fixture = DATA / f"checkpoint-v2-{kind}.json"
    with open(fixture, encoding="utf-8") as fp:
        loaded = load_checkpoint(fp)
    assert json.loads(fixture.read_text())["version"] == 2
    assert checkpoint_bytes(loaded) == checkpoint_bytes(retrained)
    assert _v2_text(retrained) == fixture.read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", ["continuous", "binary"])
def test_version_2_files_decode_to_their_version_3_twins(kind):
    # each version-2 file has a version-3 twin in tests/data, written by
    # save_checkpoint from the loaded file: the reader alone, with no
    # training run, must decode the decimals to the twin's posterior, bit
    # for bit, and the twin must load and save to its own bytes
    with open(DATA / f"checkpoint-v2-{kind}.json", encoding="utf-8") as fp:
        decoded = load_checkpoint(fp)
    twin = DATA / f"checkpoint-v3-{kind}.json"
    with open(twin, encoding="utf-8") as fp:
        loaded = load_checkpoint(fp)
    assert json.loads(twin.read_text(encoding="utf-8"))["version"] == 3
    assert checkpoint_bytes(decoded) == checkpoint_bytes(loaded) == twin.read_bytes()


@pytest.mark.parametrize("name", ["checkpoint-v3-continuous.json", "checkpoint-v2-binary.json"])
def test_a_checkpoint_loads_alike_from_a_text_and_a_binary_file(name):
    # json.loads takes bytes as it takes text; so does the reader after it
    with open(DATA / name, encoding="utf-8") as fp:
        from_text = load_checkpoint(fp)
    with open(DATA / name, "rb") as fp:
        from_bytes = load_checkpoint(fp)
    assert checkpoint_bytes(from_bytes) == checkpoint_bytes(from_text)


def test_a_binary_file_that_is_not_utf_8_raises_checkpoint_error():
    # \xff is no UTF-8 byte; json.loads would read these bytes as UTF-16
    # or UTF-32 where their first bytes looked so, but a checkpoint is UTF-8
    text = checkpoint_bytes(_small_state()).replace(b'"tanh"', b'"ta\xffh"')
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(io.BytesIO(text))


_NO_VERSION = object()


# true and 1.0 equal 1, and 3.0 equals 3, but none is a JSON int
@pytest.mark.parametrize("version", [0, 4, 99, -1, True, 1.0, 2.0, 3.0, "2", "3", None,
                                     _NO_VERSION],
                         ids=["zero", "four", "ninety-nine", "negative", "true", "float-one",
                              "float-two", "float-three", "string-two", "string-three", "null",
                              "missing"])
def test_unsupported_checkpoint_version_raises(version):
    doc = json.loads(checkpoint_bytes(_small_state()))
    if version is _NO_VERSION:
        del doc["version"]
    else:
        doc["version"] = version
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        load_checkpoint(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("name", ["sigma0_sq", "a0", "b0"])
def test_hyperparams_store_an_int_real_as_a_float(name):
    hyper = Hyperparams(**{name: 2}, ranks=(2, 2))
    assert type(getattr(hyper, name)) is float and getattr(hyper, name) == 2.0
    with pytest.raises(OverflowError):
        Hyperparams(**{name: 10 ** 400}, ranks=(2, 2))


def test_check_invariants_passes_a_fresh_state_and_names_the_broken_field():
    state = _small_state(kind=ValueKind.BINARY)
    check_invariants(state)
    state.embeddings[1].var[0, 0] = -2.0
    with pytest.raises(ValueError, match="mode-2 embedding var"):
        check_invariants(state)


def test_stored_scalar_count_formula():
    # the module docstring's count: 6*V weight fields + 2*sum_k d_k*r_k
    # embedding fields (+2 Gamma fields), against the arrays a state holds
    for kind, n_gamma in ((ValueKind.CONTINUOUS, 2), (ValueKind.BINARY, 0)):
        state = _small_state(kind=kind)
        held = sum(f.size for f in state.weight_fields())
        held += sum(emb.mean.size + emb.var.size for emb in state.embeddings)
        held += 0 if state.gamma is None else len((state.gamma.a, state.gamma.b))
        embed_cells = sum(d * r for d, r in zip(state.shape.dims, state.hyper.ranks))
        assert held == 6 * state.net.n_weights + 2 * embed_cells + n_gamma


@pytest.mark.parametrize("a, b", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                  (1.0, np.inf), (0.0, 1.0), (1.0, -1.0)])
def test_gamma_posterior_rejects_non_finite_or_non_positive_parameters(a, b):
    with pytest.raises(ValueError):
        GammaPosterior(a, b)
