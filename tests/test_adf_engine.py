import copy
import math

import numpy as np
import pytest
from scipy.special import ndtr

from streamdtf import (CpGenerator, EntryBatch, GammaPosterior, Hyperparams,
                       NetworkSpec, ObservedEntry, TensorShape, ValueKind,
                       adf_update_entry, check_invariants, checkpoint_bytes,
                       evidence_binary, evidence_continuous, init_state,
                       process_batch, synth_generate, update_tau)
from streamdtf import bnn
from streamdtf.errors import NumericError
from streamdtf.oracles import (conjugate_linear_update, pack,
                               quad_tilted_moments, unpack)
from streamdtf.posterior_store import DEFAULT_V_FLOOR, WEIGHT_FIELDS
from streamdtf.seeding import make_rng

from reference_engine import reference_batch


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


def test_evidence_binary_rejects_a_non_finite_result():
    # z = -5.8e305: z^2 overflows, so log Z is -inf and d log Z / d beta +inf
    with pytest.raises(NumericError):
        evidence_binary(-5.8e305, 0.0, 1.0)


def test_evidence_continuous_at_the_mean():
    ev = evidence_continuous(1.3, 0.0, 1.3, GammaPosterior(1.0, 1.0))
    assert math.exp(ev.log_z) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
    assert ev.dalpha == 0.0


def test_evidence_continuous_partials_match_fd():
    rng = make_rng(0)
    h = 1e-6
    for _ in range(100):
        alpha = float(rng.uniform(-3, 3))
        beta = float(rng.uniform(0.01, 5))
        y = float(rng.uniform(-4, 4))
        gp = GammaPosterior(float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4)))
        ev = evidence_continuous(alpha, beta, y, gp)
        fd_a = (evidence_continuous(alpha + h, beta, y, gp).log_z
                - evidence_continuous(alpha - h, beta, y, gp).log_z) / (2 * h)
        fd_b = (evidence_continuous(alpha, beta + h, y, gp).log_z
                - evidence_continuous(alpha, beta - h, y, gp).log_z) / (2 * h)
        assert ev.dalpha == pytest.approx(fd_a, rel=1e-6, abs=1e-8)
        assert ev.dbeta == pytest.approx(fd_b, rel=1e-6, abs=1e-8)


def test_update_tau_hand_cases():
    assert update_tau(GammaPosterior(1.0, 1.0), 2.0, 2.0, 0.0) == GammaPosterior(1.5, 1.0)
    assert update_tau(GammaPosterior(2.0, 3.0), 2.0, 0.0, 1.0) == GammaPosterior(2.5, 5.5)


@pytest.mark.parametrize("b, y", [(1.7e308, 1e154), (1.0, 1e200)])
def test_update_tau_rejects_a_non_finite_rate(b, y):
    # the rate overflows by addition, or the squared residual overflows
    with pytest.raises(NumericError):
        update_tau(GammaPosterior(1000.0, b), y, 0.0, 0.5)


def _linear_state(rng, nodes=4):
    v0 = int(rng.integers(1, 5))
    net = NetworkSpec((v0, 1), "identity")
    state = init_state(TensorShape((nodes,)), ValueKind.CONTINUOUS, net,
                       Hyperparams(ranks=(v0,)), seed=int(rng.integers(2 ** 31)))
    state.embeddings[0].mean[...] = rng.standard_normal((nodes, v0))
    state.embeddings[0].var[...] = rng.uniform(0.05, 2.0, (nodes, v0))
    state.weights[0].mean[...] = rng.standard_normal((1, v0 + 1))
    state.weights[0].var[...] = rng.uniform(0.05, 2.0, (1, v0 + 1))
    state.gamma = GammaPosterior(float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4)))
    return state, v0


def test_adf_equals_conjugate_oracle_on_linear_model():
    rng = make_rng(1)
    for _ in range(100):
        state, v0 = _linear_state(rng)
        idx = (int(rng.integers(0, 4)),)
        x_mean, x_var = state.gather_entry(idx)
        w_row = state.weights[0].mean[0].copy()
        w_var = state.weights[0].var[0].copy()
        hb = np.append(x_mean, 1.0) / math.sqrt(v0 + 1.0)
        g = np.concatenate([hb, w_row[:v0] / math.sqrt(v0 + 1.0)])
        mu = np.concatenate([w_row, x_mean])
        var = np.concatenate([w_var, x_var])
        alpha = float(w_row @ hb)
        s = float((g * g) @ var) + state.gamma.b / state.gamma.a
        y = alpha + float(rng.normal(0, math.sqrt(s)))
        adf_update_entry(state, ObservedEntry(idx, y))
        post_mu = np.concatenate([state.weights[0].mean[0], state.gather_entry(idx)[0]])
        post_var = np.concatenate([state.weights[0].var[0], state.gather_entry(idx)[1]])
        for j in range(mu.shape[0]):
            noise_eff = s - g[j] * g[j] * var[j]
            want_m, want_v = conjugate_linear_update(
                mu[j], var[j], g[j], y - (alpha - g[j] * mu[j]), noise_eff)
            assert post_mu[j] == pytest.approx(want_m, abs=1e-8)
            assert post_var[j] == pytest.approx(want_v, abs=1e-8)


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
    result = adf_update_entry(state, ObservedEntry((0,), 0.5), v_floor=0.95)
    assert result.clamped > 0
    for lay in state.weights:
        assert np.all(lay.var >= 0.95)
    assert np.all(state.embeddings[0].var >= 0.95)


def test_non_finite_variance_update_is_clamped_and_counted():
    # both weight variances at 1e200: log Z is finite (about -231) and so is
    # the mean update, but var^2 overflows, so the bias variance update is
    # -inf and that of w_x (gradient x = 0) is 0 * inf = NaN
    state = _identity_state(ValueKind.CONTINUOUS)
    state.weights[0].var[...] = 1e200
    result = adf_update_entry(state, ObservedEntry((0,), 0.0), v_floor=0.01)
    assert not result.skipped
    assert -232.0 < result.log_z < -230.0
    assert result.clamped == 2
    assert np.all(state.weights[0].var == 0.01)
    assert state.embeddings[0].var[0, 0] == 1.0
    check_invariants(state)


def test_binary_kind_rejects_non_binary_value():
    state = init_state(TensorShape((3,)), ValueKind.BINARY,
                       NetworkSpec((1, 1), "identity"),
                       Hyperparams(ranks=(1,)), seed=0)
    before = checkpoint_bytes(state)
    # raised by evidence_binary, after the forward pass and before any write
    with pytest.raises(ValueError):
        adf_update_entry(state, ObservedEntry((0,), 0.5))
    assert checkpoint_bytes(state) == before


def _synth_state_and_batch(seed=0, n=64):
    shape = TensorShape((12, 12))
    entries, _ = synth_generate(shape, 2, ValueKind.CONTINUOUS, CpGenerator(),
                                0.1, n, seed=seed)
    net = NetworkSpec.for_factorization(4, [6], "relu")
    state = init_state(shape, ValueKind.CONTINUOUS, net,
                       Hyperparams(ranks=(2, 2)), seed=seed)
    return state, EntryBatch(entries=tuple(entries), ordinal=0)


def test_process_batch_rejects_a_bad_damping_before_any_entry():
    state, batch = _synth_state_and_batch(n=20)
    before = checkpoint_bytes(state)
    with pytest.raises(ValueError, match="damping"):
        process_batch(state, batch, damping=0.0)
    assert state.entries_seen == 0
    assert checkpoint_bytes(state) == before


def test_process_batch_clean_diagnostics_on_well_conditioned_data():
    state, batch = _synth_state_and_batch()
    diag = process_batch(state, batch)
    assert diag.clamp_count == 0
    assert diag.skip_count == 0
    assert len(diag.log_z_trace) == len(batch)
    assert all(math.isfinite(v) for v in diag.log_z_trace)
    assert diag.ep is not None
    assert state.entries_seen == len(batch)


def test_process_batch_order_dependent_but_always_valid():
    state_fwd, batch = _synth_state_and_batch(seed=3)
    state_rev = copy.deepcopy(state_fwd)
    process_batch(state_fwd, batch)
    reversed_batch = EntryBatch(entries=tuple(reversed(batch.entries)), ordinal=0)
    process_batch(state_rev, reversed_batch)
    check_invariants(state_fwd)
    check_invariants(state_rev)


def test_deepcopy_views_alias_the_copy_only():
    state, batch = _synth_state_and_batch(seed=4)
    before = checkpoint_bytes(state)
    clone = copy.deepcopy(state)
    for lay in clone.weights:
        for name, own, original in zip(WEIGHT_FIELDS, clone.weight_fields(),
                                       state.weight_fields()):
            assert np.shares_memory(getattr(lay, name), own)
            assert not np.shares_memory(getattr(lay, name), original)
    process_batch(clone, batch)
    assert checkpoint_bytes(clone) != before
    assert checkpoint_bytes(state) == before


def _engine_and_reference(kind, activation, v_floor):
    """Three batches through the engine and through the repacking reference;
    returns both states and the engine's clamp count."""
    shape = TensorShape((30, 20))
    entries, _ = synth_generate(shape, 2, kind, CpGenerator(), 0.1, 240, seed=11)
    net = NetworkSpec.for_factorization(6, [8, 5], activation)
    engine = init_state(shape, kind, net, Hyperparams(ranks=(3, 3)), seed=12)
    reference = copy.deepcopy(engine)
    clamped = 0
    for b in range(3):
        chunk = tuple(entries[b * 80:(b + 1) * 80])
        diag = process_batch(engine, EntryBatch(entries=chunk, ordinal=b),
                             v_floor=v_floor)
        clamped += diag.clamp_count
        reference_batch(reference, chunk, v_floor=v_floor)
        check_invariants(engine)
    return engine, reference, clamped


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_engine_matches_repacking_reference_to_the_byte(kind, activation):
    engine, reference, _ = _engine_and_reference(kind, activation, DEFAULT_V_FLOOR)
    assert checkpoint_bytes(engine) == checkpoint_bytes(reference)


@pytest.mark.parametrize("kind", [ValueKind.CONTINUOUS, ValueKind.BINARY])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_engine_matches_repacking_reference_to_the_byte_through_clamps(kind, activation):
    v_floor = 0.1  # well above the data's variances: every batch clamps
    engine, reference, clamped = _engine_and_reference(kind, activation, v_floor)
    assert clamped > 0
    assert checkpoint_bytes(engine) == checkpoint_bytes(reference)
    # the EP sweep keeps the same floor as the per-entry update
    assert engine.var[:engine.net.n_weights].min() >= v_floor


def test_batch_embedding_touch_budget():
    state, batch = _synth_state_and_batch(seed=5, n=64)
    touched = 0
    for entry in batch.entries:
        means, _ = state.gather_entry(entry.index)
        touched += means.shape[0]
    assert touched == len(batch) * sum(state.hyper.ranks)


def test_tau_accumulates_half_per_entry():
    state, batch = _synth_state_and_batch(seed=7, n=30)
    a0 = state.gamma.a
    process_batch(state, batch, refine=False)
    assert state.gamma.a == a0 + len(batch) / 2.0
