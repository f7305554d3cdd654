import copy
import io
import json

import numpy as np
import pytest

from streamdtf import (CheckpointError, GammaPosterior, Hyperparams,
                       NetworkSpec, TensorShape, ValueKind, check_invariants,
                       checkpoint_bytes, init_state, load_checkpoint,
                       posterior_store, save_checkpoint)


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
    # the writer's own cases beyond a checkpoint: empty containers, a list
    # mixing dicts with other values, nesting, non-ASCII keys
    doc = {"b": {}, "a": [], "é": [{"z": [1.5, None], "y": {"x": []}}, 2, "s", [3]],
           "c": [[0.1, -0.0], [1e300]], "d": {"f": {"g": True}}}
    got = io.StringIO()
    posterior_store._write_json(doc, got)
    assert got.getvalue() == json.dumps(doc, sort_keys=True, separators=(",", ":"))


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
    bad = text.replace('"version":1', '"version":99')
    with pytest.raises(CheckpointError):
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


@pytest.mark.parametrize("edit", [
    _set(("hyper", "rho0"), 3.0),
    _set(("gamma", "a"), -1),
    _set(("network", "widths", -1), 2),
    _set(("rng", "state", "state"), "1.5"),
    _set(("dims",), [-5, 6]),
    _set(("weights", 0, "var"), lambda rows: rows[:-1]),
    _set(("embeddings", 1, "mean"), lambda rows: rows[:-1]),
    _set(("embeddings",), lambda tables: tables[:1]),
    _set(("dims",), [5.5, 6]),
    _set(("hyper", "ranks"), [2.5, 2]),
    _set(("network", "widths", 0), 4.5),
    _set(("entries_seen",), 0.5),
], ids=["rho0", "gamma-a", "output-width", "rng-state", "negative-dims",
        "weight-table-short", "embedding-table-short", "embedding-table-missing",
        "fractional-dims", "fractional-ranks", "fractional-width",
        "fractional-entries-seen"])
def test_checkpoint_bad_values_raise_checkpoint_error(edit):
    doc = json.loads(checkpoint_bytes(_small_state()))
    edit(doc)
    with pytest.raises(CheckpointError):
        load_checkpoint(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("edit", [
    _set(("entries_seen",), -3),
    _set(("entries_seen",), True),
    _set(("hyper", "sigma0_sq"), True),
    _set(("gamma", "a"), "1.5"),
    _set(("network", "widths", -1), True),
], ids=["negative-entries-seen", "bool-entries-seen", "bool-sigma0-sq", "string-gamma-a",
        "bool-width"])
def test_checkpoint_counts_must_be_ints_and_reals_numbers(edit):
    # bool is an int subclass and float() reads a string: each of these
    # documents loaded, and a bool sigma0_sq was written back as true
    doc = json.loads(checkpoint_bytes(_small_state()))
    edit(doc)
    with pytest.raises(CheckpointError, match="schema violation"):
        load_checkpoint(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("edit", [
    _set(("weights", 0, "var", 0, 0), -1.0),
    _set(("weights", 1, "mean", 0, 1), float("nan")),
    _set(("weights", 0, "term_var", 1, 0), 0.0),
    _set(("weights", 1, "term_mean", 0, 0), float("inf")),
    _set(("weights", 0, "term_logit", 0, 2), float("nan")),
    _set(("weights", 1, "rho_post", 0, 0), 3.0),
    _set(("weights", 0, "rho_post", 0, 0), 0.0),
    _set(("embeddings", 1, "var", 2, 0), -2.0),
    _set(("embeddings", 0, "mean", 4, 1), float("inf")),
    _set(("gamma", "b"), float("inf")),
    _set(("gamma",), None),
], ids=["weight-var", "weight-mean", "term-var", "term-mean", "term-logit",
        "rho-above-one", "rho-zero", "embedding-var", "embedding-mean", "gamma-b",
        "gamma-missing"])
def test_checkpoint_impossible_posterior_raises_checkpoint_error(edit):
    doc = json.loads(checkpoint_bytes(_small_state()))
    edit(doc)
    with pytest.raises(CheckpointError, match="impossible posterior"):
        load_checkpoint(io.StringIO(json.dumps(doc)))


def test_check_invariants_passes_a_fresh_state_and_names_the_broken_field():
    state = _small_state(kind=ValueKind.BINARY)
    check_invariants(state)
    state.embeddings[1].var[0, 0] = -2.0
    with pytest.raises(ValueError, match="mode-2 embedding var"):
        check_invariants(state)


def test_checkpoint_preserves_rng_stream():
    state = _small_state(seed=11)
    buf = io.StringIO()
    save_checkpoint(state, buf)
    buf.seek(0)
    loaded = load_checkpoint(buf)
    assert np.array_equal(state.rng.standard_normal(8), loaded.rng.standard_normal(8))


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
