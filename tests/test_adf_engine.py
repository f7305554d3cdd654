import contextlib
import copy
import dataclasses
import io
import itertools
import logging
import math
import os
import pickle
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from streamdtf import (CpGenerator, GammaPosterior, Hyperparams,
                       NetworkSpec, ObservedEntry, TensorShape, ValueKind,
                       adf_update_entry, check_invariants, checkpoint_bytes,
                       evidence_binary, evidence_continuous, init_state,
                       process_batch, synth_generate, update_tau)
from streamdtf import adf_engine, bnn, ep_prior, special
from streamdtf.adf_engine import entry_errstate
from streamdtf.errors import BoundsError, NumericError
from streamdtf.oracles import pack, quad_tilted_moments, unpack
from streamdtf.posterior_store import (DEFAULT_V_FLOOR, WEIGHT_FIELDS, ModelState,
                                       load_checkpoint, save_checkpoint)
from streamdtf.predict_eval import predict_batch, predict_entry, running_eval
from streamdtf.seeding import make_rng

from reference_engine import (_alpha_and_gradient, reference_batch, reference_entry,
                              unfactored_step)
from test_bnn import _record_views


def test_evidence_binary_symmetry_at_zero():
    for beta in (0.0, 0.7, 25.0):
        ev = evidence_binary(0.0, beta, 1.0)
        assert math.exp(ev.log_z) == pytest.approx(0.5, abs=1e-15)


def test_evidence_binary_reference_values():
    ev = evidence_binary(1.0, 0.0, 1.0)
    assert math.exp(ev.log_z) == pytest.approx(0.841345, abs=1e-6)
    ev = evidence_binary(1.0, 3.0, 0.0)
    assert math.exp(ev.log_z) == pytest.approx(0.308538, abs=1e-6)


def test_evidence_binary_validation():
    with pytest.raises(ValueError):
        evidence_binary(0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        evidence_binary(0.0, 1.0, 0.5)


def test_evidence_binary_stable_in_deep_tail():
    for z in np.linspace(-30, 30, 121):
        ev = evidence_binary(float(z), 0.0, 1.0)
        assert math.isfinite(ev.log_z)
        assert 0.0 < math.exp(ev.log_z) <= 1.0
        assert math.isfinite(ev.dalpha) and math.isfinite(ev.dbeta)


def _frozen_probit_evidence(alpha, beta, y):
    """evidence_binary's (log Z, dalpha, dbeta), written out once with the
    engine's `math` calls in the engine's order of operations."""
    sign = 2.0 * y - 1.0
    denom = math.sqrt(1.0 + beta)
    z = sign * alpha / denom
    t = z * math.sqrt(0.5)
    if z < -1.0:
        e = special.erfcx(-z / math.sqrt(2.0))
        log_z = math.log(0.5 * e) - t * t
    else:
        log_z = math.log1p(-0.5 * math.erfc(t))
    if z >= 0:
        r = (math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
             / (0.5 * math.erfc(-z * math.sqrt(0.5))))
    else:
        r = math.sqrt(2.0 / math.pi) / special.erfcx(-z / math.sqrt(2.0))
    return log_z, sign * r / denom, -r * z / (2.0 * (1.0 + beta))


def _alpha_at(z, beta, y):
    """An alpha at which evidence_binary's z = (2y - 1) alpha / sqrt(1 + beta)
    rounds to exactly `z`."""
    sign = 2.0 * y - 1.0
    denom = math.sqrt(1.0 + beta)
    alpha = sign * z * denom
    for _ in range(8):
        got = sign * alpha / denom
        if got == z:
            return float(alpha)
        alpha = np.nextafter(alpha, math.inf if sign * (z - got) > 0 else -math.inf)
    raise AssertionError(f"no alpha reaches z = {z!r} at beta = {beta}")


def test_evidence_binary_keeps_its_bits():
    # a frozen copy of the probit formulas: any change to how log Phi or
    # phi/Phi round shows here, at the branch edges z = -1 and z = 0, their
    # float neighbours, the range of trained models and the far tails
    edges = [float(np.nextafter(edge, to)) for edge in (-1.0, 0.0)
             for to in (-math.inf, math.inf)] + [-1.0, 0.0]
    draws = make_rng(23).uniform(-40.0, 40.0, 2000).tolist() + [-1e150, 1e150]
    mismatches = []
    for beta in (0.0, 2.0, 10.0):
        for y in (0.0, 1.0):
            sign = 2.0 * y - 1.0
            alphas = ([_alpha_at(z, beta, y) for z in edges]
                      + [sign * z * math.sqrt(1.0 + beta) for z in draws])
            for alpha in alphas:
                got = [v.hex() for v in evidence_binary(alpha, beta, y)]
                want = [v.hex() for v in _frozen_probit_evidence(alpha, beta, y)]
                if got != want:
                    mismatches.append((alpha, beta, y, got, want))
    assert not mismatches, mismatches[:5]


def test_evidence_binary_rejects_a_non_finite_result():
    # z = -5.8e305: z^2 overflows, so log Z is -inf and d log Z / d beta +inf
    with pytest.raises(NumericError):
        evidence_binary(-5.8e305, 0.0, 1.0)


def test_evidence_continuous_at_the_mean():
    ev = evidence_continuous(1.3, 0.0, 1.3, GammaPosterior(1.0, 1.0))
    assert math.exp(ev.log_z) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
    assert ev.dalpha == 0.0


def test_update_tau_hand_cases():
    assert update_tau(GammaPosterior(1.0, 1.0), 2.0, 2.0, 0.0) == GammaPosterior(1.5, 1.0)
    assert update_tau(GammaPosterior(2.0, 3.0), 2.0, 0.0, 1.0) == GammaPosterior(2.5, 5.5)


@pytest.mark.parametrize("b, y", [(1.7e308, 1e154), (1.0, 1e200)])
def test_update_tau_rejects_a_non_finite_rate(b, y):
    # the rate overflows by addition, or the squared residual overflows
    with pytest.raises(NumericError):
        update_tau(GammaPosterior(1000.0, b), y, 0.0, 0.5)


def test_zero_gradient_coordinate_is_a_fixed_point():
    # second input coordinate feeds only zero-mean weights -> gradient 0 there
    net = NetworkSpec((2, 1), "identity")
    state = init_state(TensorShape((3, 3)), ValueKind.CONTINUOUS, net,
                       Hyperparams(ranks=(1, 1)), seed=0)
    state.weights[0].mean[...] = np.array([[1.5, 0.0, 0.25]])
    state.embeddings[0].mean[0, 0] = 0.8
    state.embeddings[1].mean[1, 0] = -0.3
    before_mean = state.embeddings[1].mean[1, 0]
    before_var = state.embeddings[1].var[1, 0]
    with entry_errstate():
        adf_update_entry(state, ObservedEntry((0, 1), 2.0))
    assert state.embeddings[1].mean[1, 0] == before_mean
    assert state.embeddings[1].var[1, 0] == before_var
    assert state.embeddings[0].mean[0, 0] != 0.8  # the live coordinate moved


def test_binary_update_matches_probit_quadrature_moments():
    # one free Gaussian coordinate against a probit factor: the update must
    # reproduce the tilted mean/variance from adaptive quadrature
    rng = make_rng(2)
    for _ in range(20):
        net = NetworkSpec((1, 1), "identity")
        state = init_state(TensorShape((2,)), ValueKind.BINARY, net,
                           Hyperparams(ranks=(1,)), seed=3)
        psi = float(rng.uniform(-2, 2))
        nu = float(rng.uniform(0.1, 3))
        state.embeddings[0].mean[0, 0] = psi
        state.embeddings[0].var[0, 0] = nu
        state.weights[0].mean[...] = np.array([[math.sqrt(2.0), 0.0]])
        state.weights[0].var[...] = 1e-18  # weights pinned: f = x exactly
        y = float(rng.integers(0, 2))
        with entry_errstate():
            adf_update_entry(state, ObservedEntry((0,), y))
        sign = 2.0 * y - 1.0
        z, e1, e2 = quad_tilted_moments(psi, nu, factor=lambda w: ndtr(sign * w))
        assert state.embeddings[0].mean[0, 0] == pytest.approx(e1, abs=1e-6)
        assert state.embeddings[0].var[0, 0] == pytest.approx(e2 - e1 * e1, abs=1e-6)


def test_chain_rule_matches_end_to_end_fd():
    # FD on logZ recomputed end to end; means enter through alpha only and
    # variances through beta only, matching the first-order contract
    rng = make_rng(4)
    shape = TensorShape((4, 4))
    net = NetworkSpec.for_factorization(4, [3], "tanh")
    for kind in (ValueKind.CONTINUOUS, ValueKind.BINARY):
        state = init_state(shape, kind, net, Hyperparams(ranks=(2, 2)), seed=5)
        for emb in state.embeddings:
            emb.mean[...] = rng.standard_normal(emb.mean.shape)
            emb.var[...] = rng.uniform(0.1, 1.5, emb.var.shape)
        idx = (1, 2)
        y = 1.0 if kind is ValueKind.BINARY else 0.7

        def moments(mu_vec, gamma_vec):
            mats, xin = unpack(mu_vec, net)
            alpha, tape = bnn.forward_mean(net, mats, xin)
            g = bnn.backprop_gradient(tape)
            return alpha, float((g * g) @ gamma_vec), g

        def log_z(alpha, beta):
            if kind is ValueKind.BINARY:
                return evidence_binary(alpha, beta, y).log_z
            return evidence_continuous(alpha, beta, y, state.gamma).log_z

        x_mean, x_var = state.gather_entry(idx)
        mu = pack(state.weight_means(), x_mean)
        gamma = pack(state.weight_vars(), x_var)
        alpha, beta, g = moments(mu, gamma)
        ev = (evidence_binary(alpha, beta, y) if kind is ValueKind.BINARY
              else evidence_continuous(alpha, beta, y, state.gamma))
        h = 1e-5
        for j in [0, 7, mu.shape[0] - 3, mu.shape[0] - 1]:
            up, down = mu.copy(), mu.copy()
            up[j] += h
            down[j] -= h
            fd_mu = (log_z(moments(up, gamma)[0], beta)
                     - log_z(moments(down, gamma)[0], beta)) / (2 * h)
            assert ev.dalpha * g[j] == pytest.approx(fd_mu, rel=1e-4, abs=1e-9)
            gup, gdown = gamma.copy(), gamma.copy()
            gup[j] += h
            gdown[j] -= h
            fd_v = (log_z(alpha, float((g * g) @ gup))
                    - log_z(alpha, float((g * g) @ gdown))) / (2 * h)
            assert ev.dbeta * g[j] ** 2 == pytest.approx(fd_v, rel=1e-4, abs=1e-9)


def _assert_skipped_without_a_write(state, entry):
    before = checkpoint_bytes(state)
    with entry_errstate():
        result = adf_update_entry(state, entry)
    assert result.skipped
    assert state.entries_seen == 0
    assert checkpoint_bytes(state) == before


def test_skipped_entry_leaves_state_unchanged():
    state = init_state(TensorShape((3, 3)), ValueKind.CONTINUOUS,
                       NetworkSpec.for_factorization(2, [2], "relu"),
                       Hyperparams(ranks=(1, 1)), seed=0)
    state.weights[0].mean[...] = 1e308  # forward overflows
    _assert_skipped_without_a_write(state, ObservedEntry((0, 0), 1.0))


def _identity_state(kind):
    # one linear layer, alpha = (w_x * x + w_b) / sqrt(2); the embedding mean
    # x starts at 0
    return init_state(TensorShape((3,)), kind, NetworkSpec((1, 1), "identity"),
                      Hyperparams(ranks=(1,)), seed=0)


def _beta_overflows():
    state = _identity_state(ValueKind.CONTINUOUS)
    # x = 0 keeps alpha finite, but d alpha / dx = w_x / sqrt(2) squares to inf
    state.weights[0].mean[0, 0] = 1e200
    return state, ObservedEntry((0,), 1.0)


def _evidence_overflows():
    # (y - alpha)^2 overflows inside the evidence
    return _identity_state(ValueKind.CONTINUOUS), ObservedEntry((0,), 1e200)


def _noise_rate_overflows():
    # the evidence is finite, but the Gamma rate b + ((y - alpha)^2 + beta)/2
    # overflows
    state = _identity_state(ValueKind.CONTINUOUS)
    state.gamma = GammaPosterior(1000.0, 1.7e308)
    return state, ObservedEntry((0,), 1e154)


def _binary_evidence_overflows():
    # a probit entry far on the wrong side of alpha = 7e305: log Z is -inf
    state = _identity_state(ValueKind.BINARY)
    state.weights[0].mean[0] = (0.0, 1e306)
    return state, ObservedEntry((0,), 0.0)


def _mean_update_overflows():
    # log Z is finite (z = -9.8e153), but the weight from x_1 to hidden unit
    # A, at 2^1023 with variance 1.5e308, moves by +1.2e308. Each unit's bias
    # cancels its weight exactly (hb_0 = [x; 1]/2 is exact, so z_1 = 0), and
    # unit B mirrors A, so d alpha / dx_1 is exactly 0 where A alone would
    # overflow it
    state = init_state(TensorShape((3,)), ValueKind.BINARY,
                       NetworkSpec((3, 2, 1), "tanh"), Hyperparams(ranks=(3,)),
                       seed=0)
    big = 2.0 ** 1023
    state.embeddings[0].mean[0] = (1.0, 0.0, 0.0)
    state.weights[0].mean[...] = [[big, 0.0, 0.0, -big], [-big, 0.0, 0.0, big]]
    state.weights[0].var[0, 0] = 1.5e308
    state.weights[1].mean[...] = [[1.0, 1.0, -6e307]]
    return state, ObservedEntry((0,), 1.0)


@pytest.mark.parametrize("build, reason", [
    (_beta_overflows, "non-finite output moments"),
    (_evidence_overflows, "non-finite evidence"),
    (_binary_evidence_overflows, "non-finite probit evidence"),
    (_noise_rate_overflows, "non-finite noise rate"),
    (_mean_update_overflows, "non-finite mean update"),
], ids=["beta", "evidence", "binary-evidence", "noise-rate", "mean-update"])
def test_skip_after_the_forward_pass_leaves_state_unchanged(build, reason, caplog):
    state, entry = build()
    _assert_skipped_without_a_write(state, entry)
    assert f"skipping entry {entry.index}: {reason}" in caplog.text


def test_variance_guard_clamps_and_counts():
    state = init_state(TensorShape((3,)), ValueKind.CONTINUOUS,
                       NetworkSpec((1, 1), "identity"),
                       Hyperparams(ranks=(1,)), seed=0)
    state.embeddings[0].mean[0, 0] = 1.0
    with entry_errstate():
        result = adf_update_entry(state, ObservedEntry((0,), 0.5), v_floor=0.95)
    assert result.clamped > 0
    for lay in state.weights:
        assert np.all(lay.var >= 0.95)
    assert np.all(state.embeddings[0].var >= 0.95)


def test_non_finite_variance_update_is_clamped_and_counted():
    # both weight variances at 1e200: log Z is finite (about -231) and so is
    # the mean update, but u = var * g overflows when squared, so the bias
    # variance update is -inf and is clamped. w_x has gradient x = 0, so
    # u = 0 there and its variance is a fixed point of the factored step
    state = _identity_state(ValueKind.CONTINUOUS)
    state.weights[0].var[...] = 1e200
    with entry_errstate():
        result = adf_update_entry(state, ObservedEntry((0,), 0.0), v_floor=0.01)
    assert not result.skipped
    assert -232.0 < result.log_z < -230.0
    assert result.clamped == 1
    assert state.weights[0].var[0, 1] == 0.01
    assert state.weights[0].var[0, 0] == 1e200
    assert state.embeddings[0].var[0, 0] == 1.0
    check_invariants(state)


def test_a_direct_update_outside_entry_errstate_warns():
    # process_batch enters entry_errstate() once per batch and
    # adf_update_entry does not, so a direct caller that skips it sees the
    # overflow the clamp above absorbs as numpy's warning
    state = _identity_state(ValueKind.CONTINUOUS)
    state.weights[0].var[...] = 1e200
    with pytest.warns(RuntimeWarning, match="overflow"):
        adf_update_entry(state, ObservedEntry((0,), 0.0), v_floor=0.01)


def _variance_grown_to_inf():
    # c = dalpha^2 - 2 dbeta is exactly 1/s (about 5e-152 here), but with a
    # residual of 3e153 it is the difference of two numbers near 2.4e4 and
    # rounds to -3.6e-12, so every variance grows. w_x has gradient 1e-3 and
    # variance 2e157: u^2 overflows and its new variance is +inf, which the
    # min check alone does not see
    state = _identity_state(ValueKind.CONTINUOUS)
    state.weights[0].var[0, 0] = 2e157
    state.embeddings[0].mean[0, 0] = 1e-3 * math.sqrt(2.0)
    return state, ObservedEntry((0,), 3.132e153), 0.01


def _embedding_variance_under_the_floor():
    # the weights' variances of 1 stay above a floor of 0.6; the entry's
    # embedding variance of 0.5 is under it
    state = _identity_state(ValueKind.CONTINUOUS)
    state.embeddings[0].var[0, 0] = 0.5
    return state, ObservedEntry((0,), 0.5), 0.6


def test_variance_grown_to_inf_by_a_negative_rounded_c_is_clamped():
    state, (index, y), v_floor = _variance_grown_to_inf()
    gamma = state.gamma
    with entry_errstate():
        result = adf_update_entry(state, ObservedEntry(index, y), v_floor=v_floor)
    ev = evidence_continuous(result.alpha, result.beta, y, gamma)
    assert ev.dalpha * ev.dalpha - 2.0 * ev.dbeta < 0.0
    assert result.clamped == 1
    assert state.weights[0].var[0, 0] == 0.01
    assert state.weights[0].var[0, 1] > 1.0  # the bias variance grew
    check_invariants(state)


def test_binary_kind_rejects_non_binary_value():
    state = init_state(TensorShape((3,)), ValueKind.BINARY,
                       NetworkSpec((1, 1), "identity"),
                       Hyperparams(ranks=(1,)), seed=0)
    before = checkpoint_bytes(state)
    # raised by evidence_binary, after the forward pass and before any write
    with pytest.raises(ValueError), entry_errstate():
        adf_update_entry(state, ObservedEntry((0,), 0.5))
    assert checkpoint_bytes(state) == before


def _synth_state_and_batch(seed=0, n=64):
    shape = TensorShape((12, 12))
    entries, _ = synth_generate(shape, 2, ValueKind.CONTINUOUS, CpGenerator(),
                                0.1, n, seed=seed)
    net = NetworkSpec.for_factorization(4, [6], "relu")
    state = init_state(shape, ValueKind.CONTINUOUS, net,
                       Hyperparams(ranks=(2, 2)), seed=seed)
    return state, tuple(entries)


def test_process_batch_rejects_a_bad_damping_before_any_entry():
    state, batch = _synth_state_and_batch(n=20)
    before = checkpoint_bytes(state)
    with pytest.raises(ValueError, match="damping"):
        process_batch(state, batch, damping=0.0)
    assert state.entries_seen == 0
    assert checkpoint_bytes(state) == before


def test_process_batch_clean_diagnostics_on_well_conditioned_data():
    state, batch = _synth_state_and_batch()
    replay = copy.deepcopy(state)
    diag = process_batch(state, batch)
    assert diag.clamp_count == 0
    assert diag.skip_count == 0
    assert diag.ep is not None
    assert state.entries_seen == len(batch)
    # the counts agree with the entries' own results: each has a finite
    # log Z, and none clamped or was skipped
    with entry_errstate():
        results = [adf_update_entry(replay, entry) for entry in batch]
    assert all(math.isfinite(r.log_z) for r in results)
    assert sum(r.clamped for r in results) == diag.clamp_count
    assert sum(r.skipped for r in results) == diag.skip_count


def _numpy_python_calls(fn) -> int:
    """The number of Python-level calls into functions defined in numpy's
    package while fn() runs."""
    root = os.path.dirname(np.__file__) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(root):
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("kind", list(ValueKind))
def test_process_batch_makes_no_python_level_numpy_call_per_entry(kind):
    # the per-entry step reaches numpy through its C entry points
    # (ndarray.dot, the ufuncs and their reductions), so only the per-batch
    # steps (np.errstate, the EP sweep) enter numpy's Python code: a batch
    # of 64 entries makes as many such calls as a batch of 8
    shape = TensorShape((12, 12))
    entries, _ = synth_generate(shape, 2, kind, CpGenerator(), 0.1, 80, seed=0)
    net = NetworkSpec.for_factorization(4, [6, 5], "relu")
    state = init_state(shape, kind, net, Hyperparams(ranks=(2, 2)), seed=0)
    process_batch(state, entries[:8])  # the first batch binds the tape
    calls, diags = {}, []
    for batch in (entries[8:16], entries[16:]):
        calls[len(batch)] = _numpy_python_calls(
            lambda: diags.append(process_batch(state, batch)))
    # no entry took the rare paths (a clamp or a skip), which may scan
    assert [(d.clamp_count, d.skip_count) for d in diags] == [(0, 0), (0, 0)]
    assert calls[64] == calls[8], calls


def test_process_batch_order_dependent_but_always_valid():
    state_fwd, batch = _synth_state_and_batch(seed=3)
    state_rev = copy.deepcopy(state_fwd)
    process_batch(state_fwd, batch)
    process_batch(state_rev, tuple(reversed(batch)))
    check_invariants(state_fwd)
    check_invariants(state_rev)


@st.composite
def _state_and_batch(draw, kind=None):
    """A K = 1 or K = 3 model and a batch of 1-8 entries over at most 27
    cells."""
    k = draw(st.sampled_from([1, 3]))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)))
    kind = kind or draw(st.sampled_from(list(ValueKind)))
    value = (st.sampled_from([0.0, 1.0]) if kind is ValueKind.BINARY
             else st.floats(-3.0, 3.0))
    index = st.tuples(*(st.integers(0, d - 1) for d in dims))
    batch = draw(st.lists(st.builds(ObservedEntry, index, value),
                          min_size=1, max_size=8))
    net = NetworkSpec.for_factorization(k, [3], draw(st.sampled_from(["relu", "tanh"])))
    state = init_state(TensorShape(dims), kind, net, Hyperparams(ranks=(1,) * k),
                       seed=draw(st.integers(0, 5)))
    return state, batch


@settings(max_examples=40, deadline=None)
@given(_state_and_batch())
def test_process_batch_keeps_the_invariants_on_good_batches(state_and_batch):
    state, batch = state_and_batch
    skipped = 0
    # the batch doubled, so every index repeats in it, then batches of one
    for chunk in [batch + batch] + [[entry] for entry in batch]:
        seen = state.entries_seen
        diag = process_batch(state, chunk)
        # every entry of the chunk is either applied or counted as skipped
        assert 0 <= diag.skip_count <= len(chunk)
        assert state.entries_seen - seen == len(chunk) - diag.skip_count
        skipped += diag.skip_count
        check_invariants(state)
    assert state.entries_seen == 3 * len(batch) - skipped


def _out_of_range_index(state, entry):
    return ObservedEntry(entry.index[:-1] + (state.shape.dims[-1],), entry.value)


def _non_integral_index(state, entry):
    return ObservedEntry((entry.index[0] + 0.5,) + entry.index[1:], entry.value)


@pytest.mark.parametrize("make_bad, error, kind", [
    (_out_of_range_index, BoundsError, None),
    (_non_integral_index, TypeError, None),
    (lambda state, e: ObservedEntry(e.index, math.nan), ValueError, None),
    (lambda state, e: ObservedEntry(e.index, 0.5), ValueError, ValueKind.BINARY),
], ids=["out-of-range-index", "non-integral-index", "nan-value", "binary-half"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_process_batch_rejects_a_bad_entry_before_any_write(make_bad, error, kind, data):
    state, batch = data.draw(_state_and_batch(kind))
    process_batch(state, batch)  # a state that has seen data
    position = data.draw(st.integers(0, len(batch) - 1))
    bad = list(batch)
    bad[position] = make_bad(state, batch[position])
    seen, before = state.entries_seen, checkpoint_bytes(state)
    with pytest.raises(error):
        process_batch(state, bad)
    assert state.entries_seen == seen
    assert checkpoint_bytes(state) == before


def _restart_by_checkpoint(state):
    buf = io.StringIO()
    save_checkpoint(state, buf)
    buf.seek(0)
    return load_checkpoint(buf)


def test_deepcopy_views_alias_the_copy_only():
    # a deep copy, a pickle round trip and a loaded checkpoint each bind
    # their layer views and their slot views to their own vectors and
    # tables, never to the original's, and so does the one-row tape the
    # copy's first update builds
    state, batch = _synth_state_and_batch(seed=4)
    process_batch(state, batch[:32])
    before = checkpoint_bytes(state)
    for restart in (copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)),
                    _restart_by_checkpoint):
        clone = restart(state)
        for lay in clone.weights:
            for name, own, original in zip(WEIGHT_FIELDS, clone.weight_fields(),
                                           state.weight_fields()):
                assert np.shares_memory(getattr(lay, name), own)
                assert not np.shares_memory(getattr(lay, name), original)
        assert not any(op.flags.writeable for op in clone.net.scale_operands)
        assert clone.weight_means() is clone.weight_means()
        for views, emb, original in zip(clone.slot_modes, clone.embeddings,
                                         state.embeddings):
            table_mean, table_var, slot_mean, slot_var = views
            assert table_mean is emb.mean and table_var is emb.var
            assert not np.shares_memory(table_mean, original.mean)
            assert np.shares_memory(slot_mean, clone.mu)
            assert np.shares_memory(slot_var, clone.var)
        for view, flat in zip(clone.slot, (clone.mu, clone.var)):
            assert np.shares_memory(view, flat)
            assert not np.shares_memory(view, state.mu)
            assert not np.shares_memory(view, state.var)
        process_batch(clone, batch[32:])
        scratch = clone.entry_scratch
        assert scratch.mu is clone.mu and scratch.var is clone.var
        assert scratch.tape.weights is clone.weight_means()
        for view, mean in zip(*_record_views(scratch.tape, clone.weight_means()),
                              strict=True):
            assert np.shares_memory(view, mean)
            assert not np.shares_memory(view, state.mu)
        assert checkpoint_bytes(clone) != before
        assert checkpoint_bytes(state) == before


def _one_row_tapes(monkeypatch):
    """The list that every later one-row ForwardTape.allocate appends its
    spec to."""
    one_row = []
    allocate = bnn.ForwardTape.allocate.__func__

    def counted(cls, spec, lead=()):
        if not lead:
            one_row.append(spec)
        return allocate(cls, spec, lead)

    monkeypatch.setattr(bnn.ForwardTape, "allocate", classmethod(counted))
    return one_row


def _updated_and_served_state():
    """A state that has updated and has predicted on two threads, and its
    stream: 32 entries it trained on, 16 whose cells it predicted and 16
    more. Its batch clamps at the floor 0.9, so the state also holds the
    flag that runs its next batch screened."""
    state, batch = _synth_state_and_batch(seed=4)
    assert process_batch(state, batch[:32], v_floor=0.9).clamp_count > 0
    rows = [entry.index for entry in batch[32:48]]
    threads = [threading.Thread(target=predict_batch, args=(state, rows)) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return state, batch


@pytest.mark.parametrize("restart", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)),
                                     _restart_by_checkpoint],
                         ids=["deepcopy", "pickle", "load_checkpoint"])
def test_a_copy_holds_the_posterior_alone(restart, monkeypatch):
    # what the engine and prediction keep on a state (the per-entry
    # scratch, the batch flag, the batch tapes) is theirs, not the
    # posterior's: a copy holds the dataclass init fields and the views
    # _bind_layers builds (the fields that are not init fields), builds no
    # one-row tape until it updates, and trains and predicts to the bytes
    # of the state it was copied from
    fields = dataclasses.fields(ModelState)
    init = {f.name for f in fields if f.init}
    bound = {f.name for f in fields if not f.init}
    assert set(vars(_synth_state_and_batch(seed=4)[0])) == init | bound
    state, batch = _updated_and_served_state()
    assert {"entry_scratch", "screen_batches", "batch_tapes"} <= set(vars(state))
    assert state.screen_batches
    one_row = _one_row_tapes(monkeypatch)
    clone = restart(state)
    assert set(vars(clone)) == init | bound
    rows = [entry.index for entry in batch[32:]]
    predicted = predict_batch(clone, rows)
    predict_entry(clone, batch[32].index)
    assert one_row == []
    for run in (state, clone):
        process_batch(run, batch[48:])
    assert one_row == [clone.net]
    assert checkpoint_bytes(clone) == checkpoint_bytes(state)
    assert [a.tobytes() for a in predict_batch(clone, rows)] == [
        a.tobytes() for a in predict_batch(state, rows)]
    assert [a.tobytes() for a in predicted] != [a.tobytes() for a in predict_batch(clone, rows)]


def test_the_first_update_builds_the_entry_scratch_once(monkeypatch):
    state, batch = _synth_state_and_batch(seed=4)
    one_row = _one_row_tapes(monkeypatch)
    process_batch(state, batch[:32])
    assert one_row == [state.net]
    built = state.entry_scratch
    process_batch(state, batch[32:])
    assert one_row == [state.net]
    assert state.entry_scratch is built
    assert built.tape.weights is state.weight_means()


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
def test_a_loaded_state_trains_to_the_bytes_of_an_uninterrupted_run(kind):
    # a checkpoint taken mid-stream and loaded holds no per-entry scratch;
    # its first update builds it, and the rest of the stream then writes
    # the checkpoint and metrics bytes of the run that was never saved
    shape = TensorShape((12, 12))
    entries, _ = synth_generate(shape, 2, kind, CpGenerator(), 0.1, 120, seed=5)
    test, stream = entries[:24], entries[24:]
    batches = [tuple(stream[b:b + 24]) for b in range(0, len(stream), 24)]
    state = init_state(shape, kind, NetworkSpec.for_factorization(4, [6, 5], "relu"),
                       Hyperparams(ranks=(2, 2)), seed=5)
    running_eval(state, batches[:2], test)
    loaded = _restart_by_checkpoint(state)
    assert "entry_scratch" not in vars(loaded)
    outputs = []
    for run in (state, loaded):
        csv = io.StringIO()
        running_eval(run, batches[2:], test).write_csv(csv, include_timing=False)
        outputs.append((checkpoint_bytes(run), csv.getvalue()))
    assert "entry_scratch" in vars(loaded)
    assert outputs[1] == outputs[0]


def test_a_write_through_the_layer_views_reaches_the_next_entry():
    # the state's tape binds its weight views once: a write into the store
    # through state.weights between two entries must reach the next
    # entry's forward pass, as a fresh tape over copies of the weights sees it
    state, batch = _synth_state_and_batch(seed=4)
    with entry_errstate():
        adf_update_entry(state, batch[0])
        x_mean = state.gather_entry(batch[1].index)[0].copy()
        unwritten, _ = bnn.forward_mean(state.net, [w.copy() for w in state.weight_means()],
                                        x_mean)
        for lay in state.weights:
            lay.mean[...] = lay.mean + 0.25
        want, _ = bnn.forward_mean(state.net, [w.copy() for w in state.weight_means()],
                                   x_mean)
        result = adf_update_entry(state, batch[1])
    assert want != unwritten
    assert np.float64(result.alpha).tobytes() == np.float64(want).tobytes()


def _engine_and_reference(kind, activation, v_floor, hidden=(8, 5), **reference_options):
    """Three batches through the engine and through the repacking reference;
    returns both states and the engine's clamp count."""
    shape = TensorShape((30, 20))
    entries, _ = synth_generate(shape, 2, kind, CpGenerator(), 0.1, 240, seed=11)
    net = NetworkSpec.for_factorization(6, hidden, activation)
    engine = init_state(shape, kind, net, Hyperparams(ranks=(3, 3)), seed=12)
    reference = copy.deepcopy(engine)
    clamped = 0
    for b in range(3):
        chunk = tuple(entries[b * 80:(b + 1) * 80])
        diag = process_batch(engine, chunk, v_floor=v_floor)
        clamped += diag.clamp_count
        reference_batch(reference, chunk, v_floor=v_floor, **reference_options)
        check_invariants(engine)
    return engine, reference, clamped


# no hidden layer, where the output layer's row is d alpha / dx; one hidden
# layer, where it is broadcast into the only backward record; two and three,
# where records chain through the scratch buffers
DEPTHS = pytest.mark.parametrize("hidden", [(), (8,), (8, 5), (8, 5, 4)],
                                 ids=["hidden0", "hidden1", "hidden2", "hidden3"])


@DEPTHS
@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_engine_matches_repacking_reference_to_the_byte(kind, activation, hidden):
    # the engine reuses one one-row tape, bound once, entry after entry
    engine, reference, _ = _engine_and_reference(kind, activation, DEFAULT_V_FLOOR, hidden)
    assert checkpoint_bytes(engine) == checkpoint_bytes(reference)


@DEPTHS
@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_engine_matches_repacking_reference_to_the_byte_through_clamps(kind, activation,
                                                                        hidden):
    # well above the data's variances: the second and third batches clamp,
    # so process_batch replays the second
    v_floor = 0.1
    engine, reference, clamped = _engine_and_reference(kind, activation, v_floor, hidden)
    assert clamped > 0
    assert checkpoint_bytes(engine) == checkpoint_bytes(reference)
    # the EP sweep keeps the same floor as the per-entry update
    assert engine.var[:engine.net.n_weights].min() >= v_floor


def _posterior_fields(state):
    n = state.net.n_weights
    return {"weight mean": state.mu[:n], "weight var": state.var[:n],
            **{f"mode-{k} {name}": getattr(emb, name)
               for k, emb in enumerate(state.embeddings, start=1)
               for name in ("mean", "var")}}


# The largest drift measured over the four cases below is 1.4e-15 (the
# weight variances, binary tanh); the bound leaves a margin of about 70x.
FACTORED_DRIFT_BOUND = 1e-13


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_factored_step_drifts_from_the_unfactored_order_within_bound(kind, activation):
    # u = var g, var' = var - c u^2 rounds differently from
    # var' = var - var^2 (dmu^2 - 2 dv); the drift of each field is
    # max |engine - unfactored| / max |unfactored| over the field
    engine, reference, _ = _engine_and_reference(kind, activation, DEFAULT_V_FLOOR,
                                                 step=unfactored_step)
    drifts = {}
    for (name, got), want in zip(_posterior_fields(engine).items(),
                                 _posterior_fields(reference).values()):
        drifts[name] = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert max(drifts.values()) <= FACTORED_DRIFT_BOUND, drifts
    assert max(drifts.values()) > 0.0  # the two orders do round differently


def test_process_batch_indexes_with_the_integers_it_checked():
    # np.asarray reads (True, 2) as [1, 2]; the engine must use those
    # integers, not index the embedding tables with the bool
    def trained(second_index):
        state = init_state(TensorShape((6, 6)), ValueKind.CONTINUOUS,
                           NetworkSpec.for_factorization(2, [3], "relu"),
                           Hyperparams(ranks=(1, 1)), seed=0)
        process_batch(state, [ObservedEntry((0, 1), 0.5),
                              ObservedEntry(second_index, 0.1)])
        return state

    state = trained((True, 2))
    assert state.entries_seen == 2
    assert checkpoint_bytes(state) == checkpoint_bytes(trained((1, 2)))
    assert checkpoint_bytes(trained((np.int64(1), 2))) == checkpoint_bytes(state)


@pytest.mark.parametrize("restart", [_restart_by_checkpoint, copy.deepcopy],
                         ids=["checkpoint", "deepcopy"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("k", [1, 3])
def test_warm_and_cold_buffers_agree_to_the_byte(k, activation, restart):
    # the per-entry scratch is rebuilt on a copy or a load, never carried:
    # a run restarted on cold buffers ends on the same bytes as one that
    # kept its warm buffers
    shape = TensorShape({1: (150,), 3: (9, 8, 7)}[k])
    entries, _ = synth_generate(shape, 2, ValueKind.CONTINUOUS, CpGenerator(), 0.1,
                                120, seed=k)
    batches = [tuple(entries[b:b + 30]) for b in range(0, 120, 30)]

    def fresh():
        return init_state(shape, ValueKind.CONTINUOUS,
                          NetworkSpec.for_factorization(2 * k, [5, 4], activation),
                          Hyperparams(ranks=(2,) * k), seed=3)

    uninterrupted, restarted = fresh(), fresh()
    for batch in batches:
        process_batch(uninterrupted, batch)
    for batch in batches[:2]:
        process_batch(restarted, batch)
    restarted = restart(restarted)
    for batch in batches[2:]:
        process_batch(restarted, batch)
    assert not np.shares_memory(restarted.entry_scratch.tape.g,
                                uninterrupted.entry_scratch.tape.g)
    assert checkpoint_bytes(restarted) == checkpoint_bytes(uninterrupted)


def test_interleaved_states_and_a_mid_batch_copy_keep_their_bytes():
    # a continuous and a binary state that share one NetworkSpec take turns
    # entry by entry, and the continuous one is deep-copied mid-batch, after
    # which both it and its copy run on: each must end on the bytes it ends
    # on alone, so no per-entry scratch or pass record is shared
    shape = TensorShape((12, 12))
    net = NetworkSpec.for_factorization(4, [6, 5], "relu")
    kinds = (ValueKind.CONTINUOUS, ValueKind.BINARY)

    def fresh(kind):
        return init_state(shape, kind, net, Hyperparams(ranks=(2, 2)), seed=7)

    batches = [tuple(synth_generate(shape, 2, kind, CpGenerator(), 0.1, 60, seed=8)[0])
               for kind in kinds]
    alone = []
    for kind, batch in zip(kinds, batches):
        state = fresh(kind)
        process_batch(state, batch)
        alone.append(checkpoint_bytes(state))
    states = [fresh(kind) for kind in kinds]
    with entry_errstate():
        for i, entries in enumerate(zip(*batches)):
            if i == 30:
                states.append(copy.deepcopy(states[0]))
            for state, entry in zip(states, entries + entries[:1]):
                adf_update_entry(state, entry)
    for state in states:
        ep_prior.refine_all(state)
    assert [checkpoint_bytes(state) for state in states] == alone + alone[:1]


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
def test_each_traced_layer_runs_once_per_applied_entry(kind, monkeypatch):
    # the benchmark times each layer by replacing these attributes on their
    # owners; the engine must reach every one through that attribute
    shape = TensorShape((12, 12))
    entries, _ = synth_generate(shape, 2, kind, CpGenerator(), 0.1, 50, seed=6)
    state = init_state(shape, kind, NetworkSpec.for_factorization(4, [6], "relu"),
                       Hyperparams(ranks=(2, 2)), seed=6)
    calls = Counter()
    for owner, name in [(bnn, "forward_mean"), (bnn, "backprop_gradient"),
                        (ModelState, "gather_entry"), (ModelState, "scatter_entry"),
                        (adf_engine, "evidence_continuous"),
                        (adf_engine, "evidence_binary"), (adf_engine, "adf_update_entry")]:
        def counted(*args, _name=name, _original=owner.__dict__[name], **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    diag = process_batch(state, tuple(entries))
    assert diag.skip_count == 0
    evidence = f"evidence_{kind.value}"
    assert calls == {name: len(entries) for name in
                     ("forward_mean", "backprop_gradient", "gather_entry",
                      "scatter_entry", evidence, "adf_update_entry")}


def test_a_batch_that_fails_its_check_is_replayed_and_the_next_runs_screened(monkeypatch):
    # a batch runs the unscreened step on each entry; one whose check fails
    # (a floor of 0.9, just under the initial variances of 1, clamps) runs
    # again, screened. The batches after it run screened until one clamps
    # and skips nothing
    state, entries = _synth_state_and_batch(seed=9, n=96)
    steps = []
    original = adf_engine.adf_update_entry

    def counted(*args, screened=True, **kwargs):
        steps.append("screened" if screened else "unscreened")
        return original(*args, screened=screened, **kwargs)

    monkeypatch.setattr(adf_engine, "adf_update_entry", counted)
    runs = []
    for b, v_floor in enumerate([0.9, 0.9, DEFAULT_V_FLOOR, DEFAULT_V_FLOOR]):
        steps.clear()
        diag = process_batch(state, entries[b * 24:(b + 1) * 24], v_floor=v_floor)
        # the steps in the order they ran, as (step, calls in a row)
        runs.append((diag.clamp_count > 0, diag.skip_count,
                     [(step, len(list(run))) for step, run in itertools.groupby(steps)]))
    assert runs == [
        (True, 0, [("unscreened", 24), ("screened", 24)]),  # replayed
        (True, 0, [("screened", 24)]),  # screened, and it clamps
        (False, 0, [("screened", 24)]),  # screened and clean
        (False, 0, [("unscreened", 24)]),
    ]


@st.composite
def _extreme_state_and_batch(draw):
    """A K = 1, 3 or 5 model whose variances sit just above a floor of 1e-10
    (the default) or 1e-3, with a near-noiseless likelihood: continuous
    values up to 1e6 in magnitude, or binary entries through an output layer
    scaled so |alpha| reaches 1e6. Both clamps and a rounded
    c = dalpha^2 - 2 dbeta below 0 (the variance grows) occur here."""
    k = draw(st.sampled_from([1, 3, 5]))
    dims = tuple(draw(st.lists(st.integers(1, 2), min_size=k, max_size=k)))
    kind = draw(st.sampled_from(list(ValueKind)))
    if kind is ValueKind.BINARY:
        value = st.sampled_from([0.0, 1.0])
    else:
        magnitude = draw(st.sampled_from([1.0, 1e3, 1e6]))
        value = st.floats(-1.0, 1.0).map(lambda v: v * magnitude)
    index = st.tuples(*(st.integers(0, d - 1) for d in dims))
    batch = draw(st.lists(st.builds(ObservedEntry, index, value),
                          min_size=1, max_size=6))
    net = NetworkSpec.for_factorization(k, [3], draw(st.sampled_from(["relu", "tanh"])))
    state = init_state(TensorShape(dims), kind, net, Hyperparams(ranks=(1,) * k),
                       seed=draw(st.integers(0, 5)))
    v_floor = draw(st.sampled_from([DEFAULT_V_FLOOR, 1e-3]))
    spread = draw(st.floats(0.0, 1.0))
    rng = make_rng(draw(st.integers(0, 5)))
    n = net.n_weights
    state.var[:n] = v_floor * (1.0 + spread * rng.uniform(size=n))
    for emb in state.embeddings:
        emb.var[...] = v_floor * (1.0 + spread * rng.uniform(size=emb.var.shape))
    if kind is ValueKind.BINARY:
        state.weights[-1].mean[...] *= draw(st.floats(1.0, 1e6))
    else:
        state.gamma = GammaPosterior(1.0, draw(st.sampled_from([1e-12, 1e-6, 1.0])))
    return state, batch, v_floor


@settings(max_examples=60, deadline=None)
@given(_extreme_state_and_batch())
def test_process_batch_keeps_the_invariants_at_the_extremes(case):
    # on a valid batch process_batch raises nothing: a numeric failure
    # skips its entry
    state, batch, v_floor = case
    diag = process_batch(state, batch, v_floor=v_floor)
    check_invariants(state)
    assert state.entries_seen == len(batch) - diag.skip_count
    assert state.var[:state.net.n_weights].min() >= v_floor
    assert all(emb.var.min() >= v_floor for emb in state.embeddings)


def _screened_batch(state, batch, v_floor):
    """process_batch as a per-entry loop of the screened step, then the EP
    sweep: the loop the batch check stands in for."""
    indices = state.shape.check_indices([e.index for e in batch]).tolist()
    values = [e.value for e in batch]
    state.kind.check_values(values)
    clamped = skipped = 0
    with entry_errstate():
        for index, value in zip(indices, values):
            result = adf_update_entry(state, ObservedEntry(tuple(index), value),
                                      v_floor=v_floor)
            clamped += result.clamped
            skipped += result.skipped
    return adf_engine.BatchDiagnostics(clamped, skipped,
                                       ep_prior.refine_all(state, v_floor=v_floor))


@contextlib.contextmanager
def _logged_lines():
    """The messages adf_engine logs inside the block, in order."""
    lines = []
    handler = logging.Handler()
    handler.emit = lambda record: lines.append(record.getMessage())
    adf_engine.logger.addHandler(handler)
    try:
        yield lines
    finally:
        adf_engine.logger.removeHandler(handler)


def _assert_batches_match_the_screened_loop(state, batches, v_floor):
    """Run the batches through process_batch and, on a copy, through the
    screened loop: the same bytes, diagnostics and log lines after each.
    Returns the batches' skip count."""
    reference = copy.deepcopy(state)
    skipped = 0
    for batch in batches:
        with _logged_lines() as lines:
            diag = process_batch(state, batch, v_floor=v_floor)
        with _logged_lines() as want:
            want_diag = _screened_batch(reference, batch, v_floor)
        assert diag == want_diag
        # each skip is logged once, by the screened step: the unscreened
        # step logs nothing
        assert lines == want
        assert sum(line.startswith("skipping entry") for line in lines) == diag.skip_count
        assert checkpoint_bytes(state) == checkpoint_bytes(reference)
        skipped += diag.skip_count
    return skipped


@settings(max_examples=60, deadline=None)
@given(_extreme_state_and_batch())
def test_process_batch_matches_the_screened_loop_at_the_extremes(case):
    # clamps, rounded c < 0 and skips: the batch check and its replay write
    # the bytes the screened loop writes. The batch runs twice, so the
    # second run may start screened
    state, batch, v_floor = case
    _assert_batches_match_the_screened_loop(state, [batch, batch], v_floor)


@pytest.mark.parametrize("build", [_beta_overflows, _evidence_overflows,
                                   _binary_evidence_overflows, _noise_rate_overflows,
                                   _mean_update_overflows],
                         ids=["beta", "evidence", "binary-evidence", "noise-rate",
                              "mean-update"])
def test_process_batch_matches_the_screened_loop_on_a_skipped_entry(build):
    # each skip the unscreened step raises on, and a new mean that
    # overflows, which it writes and only the batch check finds
    state, entry = build()
    assert _assert_batches_match_the_screened_loop(state, [[entry]], DEFAULT_V_FLOOR) == 1


def test_process_batch_matches_the_screened_loop_on_a_mean_that_alone_overflows(monkeypatch):
    # forced partials with c = dalpha^2 - 2 dbeta = 0 exactly: no variance
    # moves, but the bias mean of 1e308 moves by about 1.3e308 and
    # overflows, which of the batch check's tests only the finite means see
    state = _identity_state(ValueKind.BINARY)
    state.weights[0].mean[0, 1] = 1e308
    state.weights[0].var[0, 1] = 1.8e154
    dalpha = 1e154
    monkeypatch.setattr(adf_engine, "evidence_binary", lambda alpha, beta, y:
                        adf_engine.EvidenceResult(0.0, dalpha, dalpha * dalpha / 2.0))
    entry = ObservedEntry((0,), 1.0)
    assert _assert_batches_match_the_screened_loop(state, [[entry]], DEFAULT_V_FLOOR) == 1


@pytest.mark.parametrize("build", [_variance_grown_to_inf, _embedding_variance_under_the_floor],
                         ids=["grown-to-inf", "embedding-row"])
def test_process_batch_matches_the_screened_loop_on_a_clamp(build):
    # a rounded c < 0, on which the unscreened step raises, and a clamp
    # only the check of the batch's embedding rows finds
    state, entry, v_floor = build()
    _assert_batches_match_the_screened_loop(state, [[entry]], v_floor)
    check_invariants(state)


@pytest.mark.parametrize("position", [0, 9, 19], ids=["first", "mid", "last"])
@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
@pytest.mark.parametrize("dalpha, dbeta", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -1e6)],
                         ids=["nan", "inf", "negative-variances"])
def test_process_batch_matches_the_screened_loop_around_a_forced_entry(dalpha, dbeta, kind,
                                                                        position, monkeypatch):
    # one entry of a clean batch gets forced evidence partials. A non-finite
    # dalpha, as in test_non_finite_new_means_are_still_skipped, skips it:
    # with dalpha = NaN, c is NaN and the unscreened step raises at that
    # entry; with dalpha = inf it writes non-finite means, which the next
    # entry's forward pass or the batch check finds. c = 2e6 drives the
    # variances far below 0, which the screened step clamps: unscreened,
    # the next entry's beta is negative and the step raises, or the batch
    # check finds them. Two clean batches follow: the first runs screened,
    # the second unscreened again
    shape = TensorShape((12, 12))
    entries, _ = synth_generate(shape, 2, kind, CpGenerator(), 0.1, 60, seed=13)
    state = init_state(shape, kind, NetworkSpec.for_factorization(4, [6], "relu"),
                       Hyperparams(ranks=(2, 2)), seed=13)
    forced = entries[position].index
    assert [e.index for e in entries[:20]].count(forced) == 1
    batches = [entries[:20]] + [[e for e in entries[b:b + 20] if e.index != forced]
                                for b in (20, 40)]
    current = []
    gather = ModelState.gather_entry

    def gather_and_note(self, index):
        current[:] = [tuple(index)]
        return gather(self, index)

    evidence_name = f"evidence_{kind.value}"
    evidence = getattr(adf_engine, evidence_name)

    def forced_evidence(*args):
        if current[0] == forced:
            return adf_engine.EvidenceResult(0.0, dalpha, dbeta)
        return evidence(*args)

    monkeypatch.setattr(ModelState, "gather_entry", gather_and_note)
    monkeypatch.setattr(adf_engine, evidence_name, forced_evidence)
    skipped = _assert_batches_match_the_screened_loop(state, batches, DEFAULT_V_FLOOR)
    assert skipped == (not math.isfinite(dalpha))
    assert state.entries_seen == sum(map(len, batches)) - skipped


def test_batch_embedding_touch_budget():
    state, batch = _synth_state_and_batch(seed=5, n=64)
    touched = 0
    for entry in batch:
        means, _ = state.gather_entry(entry.index)
        touched += means.shape[0]
    assert touched == len(batch) * sum(state.hyper.ranks)


def test_tau_accumulates_half_per_entry():
    state, batch = _synth_state_and_batch(seed=7, n=30)
    a0 = state.gamma.a
    process_batch(state, batch)
    assert state.gamma.a == a0 + len(batch) / 2.0


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("k, ranks, hidden", [
    (1, (1,), [1]),  # V_0 = 1 and a hidden width of 1
    (1, (1,), [6, 4]),
    (3, (2, 1, 3), [5, 1]),
    (3, (1, 1, 1), [7, 4]),
], ids=["V0-1-hidden-1", "V0-1", "k3-hidden-1", "k3"])
def test_one_row_passes_match_the_n_row_passes_to_the_byte(k, ranks, hidden, activation):
    # one row runs gemv products and k = 1 outer-product dots; the n-row
    # passes run here on that one row, as a gemm over several rows may
    # round a row differently from a gemv
    shape = TensorShape({1: (80,), 3: (6, 5, 4)}[k])
    entries, _ = synth_generate(shape, 2, ValueKind.CONTINUOUS, CpGenerator(), 0.1,
                                60, seed=k)
    net = NetworkSpec.for_factorization(sum(ranks), hidden, activation)
    state = init_state(shape, ValueKind.CONTINUOUS, net, Hyperparams(ranks=ranks),
                       seed=5)
    process_batch(state, tuple(entries[:40]))  # weights away from their draw
    for entry in entries[40:]:
        x_mean, _ = state.gather_entry(entry.index)
        alpha, tape = bnn.forward_mean(net, state.weight_means(), x_mean,
                                       state.entry_scratch.tape)
        g = bnn.backprop_gradient(tape)
        assert g.shape == (net.n_weights + net.input_dim,)
        for batch_tape in (None, bnn.ForwardTape.allocate(net, (1,))):
            alphas, batch_tape = bnn.forward_mean_batch(
                net, state.weight_means(), x_mean[None, :], batch_tape)
            deltas, dx = bnn._backward(batch_tape)
            assert np.float64(alpha).tobytes() == alphas[0].tobytes()
            assert g[net.n_weights:].tobytes() == dx[0].tobytes()
            for m, (sl, w_shape) in enumerate(zip(net.weight_slices, net.weight_shapes)):
                assert tape.deltas[m].tobytes() == deltas[m][0].tobytes()
                want = np.multiply(deltas[m][0][:, None], batch_tape.hb[m][0])
                # a k = 1 dot stores 0 + d * h, so a zero product is +0.0
                # where np.multiply may give -0.0: adding 0.0 maps -0.0 to
                # +0.0 and leaves every other value's bytes as they are
                assert g[sl].reshape(w_shape).tobytes() == (want + 0.0).tobytes()


def test_finite_means_whose_dot_overflows_are_applied():
    # one linear layer with w_x = 0: alpha = w_b / sqrt(2) whatever x is, so
    # x = 1e200 moves by u_x = 0 and its new mean squares to inf in the
    # screen's dot. w_x's own gradient is x / sqrt(2); its variance of
    # 1e-300 keeps beta finite
    state = _identity_state(ValueKind.CONTINUOUS)
    state.weights[0].mean[0, 0] = 0.0
    state.weights[0].var[0, 0] = 1e-300
    state.embeddings[0].mean[0, 0] = 1e200
    with entry_errstate():
        result = adf_update_entry(state, ObservedEntry((0,), 0.5))
        assert not math.isfinite(np.dot(state.mu, state.mu))
    assert not result.skipped
    assert state.entries_seen == 1
    assert state.embeddings[0].mean[0, 0] == 1e200
    check_invariants(state)


def test_finite_pre_activations_whose_dot_overflows_do_not_raise():
    spec = NetworkSpec((1, 2, 1), "identity")
    weights = [np.array([[0.0, 1e200], [0.0, -1e200]]), np.array([[1.0, 1.0, 0.0]])]
    with entry_errstate():
        alpha, tape = bnn.forward_mean(spec, weights, np.ones(1))
        assert not math.isfinite(np.dot(tape.preacts, tape.preacts))
    assert alpha == 0.0  # the two hidden units cancel


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_pre_activations_still_raise(bad):
    spec = NetworkSpec((1, 2, 1), "identity")
    weights = [np.array([[1.0, 0.0], [0.0, bad]]), np.array([[1.0, 1.0, 0.0]])]
    with entry_errstate(), pytest.raises(NumericError, match="layer 1"):
        bnn.forward_mean(spec, weights, np.ones(1))


def _mean_step_whose_dot_overflows():
    # w_x has gradient 1e-3 and variance 1e6, so with a residual of 1e152
    # its mean moves by about 3e154
    state = _identity_state(ValueKind.CONTINUOUS)
    state.weights[0].var[0, 0] = 1e6
    state.embeddings[0].mean[0, 0] = 1e-3 * math.sqrt(2.0)
    return state, ObservedEntry((0,), 1e152)


def test_a_mean_step_whose_dot_overflows_gives_the_reference_bytes():
    # w . w overflows, so the new means are formed and screened apart from
    # mu, yet each is finite and the entry is applied, to the bytes of the
    # repacking reference
    state, entry = _mean_step_whose_dot_overflows()
    reference, before = copy.deepcopy(state), state.weights[0].mean[0, 0]
    with entry_errstate():
        assert not adf_update_entry(state, entry).skipped
    reference_entry(reference, entry)
    assert checkpoint_bytes(state) == checkpoint_bytes(reference)
    assert 2.0 ** 513 < state.weights[0].mean[0, 0] - before < math.inf


def test_the_sweep_after_a_mean_step_whose_dot_overflows_keeps_the_invariants():
    # the whole batch, under the suite's warning filter: the entry leaves
    # both weight means so large, at variances on the floor, that
    # m_cav^2 / v_cav overflows (w_x's square itself overflows). The EP
    # sweep neither warns nor writes NaN: it leaves both sites as they are
    state, entry = _mean_step_whose_dot_overflows()
    diag = process_batch(state, [entry])
    assert diag.skip_count == 0
    assert diag.ep.guard_skips == state.net.n_weights == 2
    check_invariants(state)


def test_a_mean_step_that_overflows_a_mean_is_skipped(caplog):
    # every mu_j and every w_j = dalpha u_j is finite, but one mu_j + w_j
    # overflows: the entry is skipped and the state is left unchanged
    state, entry = _mean_update_overflows()
    x_mean, x_var = state.embeddings[0].mean[0], state.embeddings[0].var[0]
    alpha, g = _alpha_and_gradient(state.net, state.weight_means(), x_mean)
    u = pack(state.weight_vars(), x_var) * g
    w = evidence_binary(alpha, float(g @ u), entry.value).dalpha * u
    mu = pack(state.weight_means(), x_mean)
    with np.errstate(over="ignore"):
        assert np.isfinite(w).all() and np.isfinite(mu).all()
        assert not np.isfinite(mu + w).all()
    _assert_skipped_without_a_write(state, entry)
    assert f"skipping entry {entry.index}: non-finite mean update" in caplog.text


@pytest.mark.parametrize("dalpha", [math.nan, math.inf])
def test_non_finite_new_means_are_still_skipped(dalpha, monkeypatch, caplog):
    # an evidence partial forced non-finite: u * dalpha makes every new mean
    # with u != 0 NaN or infinite, and u_x = 0 times inf makes x's NaN
    state = _identity_state(ValueKind.BINARY)

    def bad_evidence(alpha, beta, y):
        return adf_engine.EvidenceResult(0.0, dalpha, 0.0)

    monkeypatch.setattr(adf_engine, "evidence_binary", bad_evidence)
    _assert_skipped_without_a_write(state, ObservedEntry((0,), 1.0))
    assert "non-finite mean update" in caplog.text
