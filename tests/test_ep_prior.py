import copy
import math

import numpy as np
import pytest
from scipy.special import expit, logit

from streamdtf import (CpGenerator, Hyperparams, NetworkSpec,
                       TensorShape, ValueKind, checkpoint_bytes, init_state,
                       process_batch, refine_all, synth_generate)
from streamdtf.ep_prior import refine_arrays
from streamdtf.oracles import quad_tilted_moments
from streamdtf.posterior_store import DEFAULT_V_FLOOR, WEIGHT_FIELDS
from streamdtf.seeding import make_rng


def site_from_cavity(m_cav, v_cav, p_cav, term_mean=0.0, term_var=1.0,
                     term_logit=0.0):
    """Build a (posterior, term) pair whose cavity is exactly the target, as
    a dict of the six WEIGHT_FIELDS."""
    v = 1.0 / (1.0 / v_cav + 1.0 / term_var)
    mean = v * (m_cav / v_cav + term_mean / term_var)
    rho = float(expit(logit(p_cav) + term_logit))
    return dict(mean=mean, var=v, rho_post=rho, term_mean=term_mean,
                term_var=term_var, term_logit=term_logit)


def refine(site, slab_var, damping=0.5):
    """The EP sweep on one weight site; every output as a Python scalar."""
    out = refine_arrays(*(np.array([site[name]]) for name in WEIGHT_FIELDS),
                        slab_var=slab_var, damping=damping, v_floor=DEFAULT_V_FLOOR)
    return {name: v[0].item() for name, v in out.items()}


def slab_factor(p_cav, slab_var):
    norm = 1.0 / math.sqrt(2.0 * math.pi * slab_var)
    return lambda w: p_cav * norm * math.exp(-0.5 * w * w / slab_var)


def test_symmetric_case_slab_responsibility():
    site = site_from_cavity(0.0, 1.0, 0.5)
    res = refine(site, 1.0, damping=1.0)
    assert res["slab_prob"] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-10)
    assert res["tilted_mean"] == pytest.approx(0.0, abs=1e-15)
    z, e1, e2 = quad_tilted_moments(0.0, 1.0, factor=slab_factor(0.5, 1.0),
                                    atom_weight=0.5)
    assert res["tilted_norm"] == pytest.approx(z, abs=1e-8)
    assert res["tilted_second"] == pytest.approx(e2, abs=1e-8)


def test_slab_responsibility_monotone_in_slab_variance():
    # widening the slab helps it explain a clearly nonzero cavity mean;
    # monotone while v_cav + s0sq stays below m_cav^2 (beyond that the slab
    # height itself starts falling), so the grid sits inside that regime
    m_cav, v_cav = 2.5, 0.3
    hyper_grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    previous = -1.0
    for s0sq in hyper_grid:
        site = site_from_cavity(m_cav, v_cav, 0.5)
        res = refine(site, s0sq)
        z, _, _ = quad_tilted_moments(m_cav, v_cav, factor=slab_factor(0.5, s0sq),
                                      atom_weight=0.5)
        assert res["tilted_norm"] == pytest.approx(z, abs=1e-8)
        assert res["slab_prob"] > previous
        previous = res["slab_prob"]


def test_well_determined_nonzero_weight_gets_slab():
    site = site_from_cavity(5.0, 0.01, 0.5)
    res = refine(site, 1.0)
    assert res["slab_prob"] > 0.999999


def test_tiny_posterior_at_zero_goes_to_spike():
    site = site_from_cavity(0.0, 1e-6, 0.5)
    res = refine(site, 1.0, damping=1.0)
    assert res["rho_post"] < 0.01


def test_invalid_cavity_is_skipped_without_change():
    # posterior variance equals term variance -> flat cavity -> guard
    site = dict(mean=0.3, var=1.0, rho_post=0.5, term_mean=0.3, term_var=1.0,
                term_logit=0.0)
    res = refine(site, 1.0)
    assert not res["ok"]
    assert {name: res[name] for name in WEIGHT_FIELDS} == site


def test_nonpositive_divided_term_keeps_old_term_updates_posterior():
    # tilted variance beyond the cavity variance makes the divided term
    # precision negative: wide slab, bimodal-ish tilt
    site = site_from_cavity(2.0, 1.0, 0.58, term_mean=0.1, term_var=2.0)
    res = refine(site, 100.0, damping=1.0)
    assert res["ok"]
    assert res["term_kept"]
    assert res["term_mean"] == site["term_mean"]
    assert res["term_var"] == site["term_var"]
    assert res["term_logit"] == site["term_logit"]
    assert res["mean"] == pytest.approx(res["tilted_mean"], abs=1e-12)
    expected_var = res["tilted_second"] - res["tilted_mean"] ** 2
    assert res["var"] == pytest.approx(expected_var, rel=1e-10)


def test_undamped_posterior_equals_tilted_moments_and_division_is_exact():
    site = site_from_cavity(0.8, 0.5, 0.4, term_mean=-0.2, term_var=1.5,
                            term_logit=0.3)
    res = refine(site, 1.0, damping=1.0)
    assert not res["term_kept"]
    e_var = res["tilted_second"] - res["tilted_mean"] ** 2
    assert res["mean"] == pytest.approx(res["tilted_mean"], rel=1e-10)
    assert res["var"] == pytest.approx(e_var, rel=1e-10)
    assert res["rho_post"] == pytest.approx(res["slab_prob"], rel=1e-10)
    # cavity times new term reproduces the new posterior in natural parameters
    prec_cav = 1.0 / site["var"] - 1.0 / site["term_var"]
    m_cav_eta = site["mean"] / site["var"] - site["term_mean"] / site["term_var"]
    assert 1.0 / res["var"] == pytest.approx(prec_cav + 1.0 / res["term_var"],
                                             rel=1e-9)
    assert res["mean"] / res["var"] == pytest.approx(
        m_cav_eta + res["term_mean"] / res["term_var"], rel=1e-9)


def test_rho_post_stays_strictly_inside_unit_interval():
    rng = make_rng(1)
    for _ in range(200):
        site = site_from_cavity(float(rng.uniform(-8, 8)),
                                float(rng.uniform(0.01, 5)),
                                float(rng.uniform(0.01, 0.99)))
        res = refine(site, float(rng.uniform(0.2, 5)))
        assert 0.0 < res["rho_post"] < 1.0


def _trained_state(seed=0):
    shape = TensorShape((12, 12))
    entries, _ = synth_generate(shape, 2, ValueKind.CONTINUOUS, CpGenerator(),
                                0.1, 96, seed=seed)
    net = NetworkSpec.for_factorization(4, [5], "tanh")
    state = init_state(shape, ValueKind.CONTINUOUS, net,
                       Hyperparams(ranks=(2, 2)), seed=seed)
    process_batch(state, tuple(entries), refine=False)
    return state


def test_refine_all_on_fresh_init_guard_skips_everything():
    state = init_state(TensorShape((5, 5)), ValueKind.CONTINUOUS,
                       NetworkSpec.for_factorization(4, [3], "tanh"),
                       Hyperparams(ranks=(2, 2)), seed=0)
    before = [copy.deepcopy(l) for l in state.weights]
    diag = refine_all(state)
    assert diag.guard_skips == state.net.n_weights
    for lay, prev in zip(state.weights, before):
        assert np.array_equal(lay.mean, prev.mean)
        assert np.array_equal(lay.var, prev.var)


def test_refine_all_leaves_embeddings_untouched():
    state = _trained_state()
    before = [(e.mean.copy(), e.var.copy()) for e in state.embeddings]
    refine_all(state)
    for emb, (m, v) in zip(state.embeddings, before):
        assert np.array_equal(emb.mean, m)
        assert np.array_equal(emb.var, v)


def test_refine_all_second_sweep_changes_less():
    state = _trained_state(seed=4)
    snap0 = [l.mean.copy() for l in state.weights]
    refine_all(state, damping=0.5)
    snap1 = [l.mean.copy() for l in state.weights]
    refine_all(state, damping=0.5)
    snap2 = [l.mean.copy() for l in state.weights]
    first = sum(float(np.abs(b - a).sum()) for a, b in zip(snap0, snap1))
    second = sum(float(np.abs(b - a).sum()) for a, b in zip(snap1, snap2))
    assert second < first


def test_refine_all_damping_validation():
    state = _trained_state()
    before = checkpoint_bytes(state)
    for damping in (0.0, 1.5):
        with pytest.raises(ValueError):
            refine_all(state, damping=damping)
        assert checkpoint_bytes(state) == before


def test_refine_all_reports_inhibited_count():
    state = _trained_state(seed=9)
    diag = refine_all(state)
    manual = sum(int((l.rho_post < 0.5).sum()) for l in state.weights)
    assert diag.inhibited == manual
