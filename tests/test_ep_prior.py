import copy
import math

import numpy as np
import pytest
from scipy.special import expit, logit

from streamdtf import (CpGenerator, Hyperparams, NetworkSpec,
                       TensorShape, ValueKind, adf_update_entry, checkpoint_bytes,
                       entry_errstate, init_state, refine_all, synth_generate)
from streamdtf.ep_prior import refine_arrays, selector_probability
from streamdtf.oracles import quad_tilted_moments
from streamdtf.posterior_store import DEFAULT_V_FLOOR, WEIGHT_FIELDS


def site_from_cavity(m_cav, v_cav, term_mean=0.0, term_var=1.0, term_logit=0.0):
    """Build a (posterior, term) pair whose cavity is exactly the target, as
    a dict of the five WEIGHT_FIELDS."""
    v = 1.0 / (1.0 / v_cav + 1.0 / term_var)
    mean = v * (m_cav / v_cav + term_mean / term_var)
    return dict(mean=mean, var=v, term_mean=term_mean, term_var=term_var,
                term_logit=term_logit)


def refine(site, slab_var, damping=0.5, rho0=0.5):
    """The EP sweep on one weight site: the five fields it writes, as Python
    scalars, the selector probability sigmoid(logit rho0 + term_logit) as
    `rho`, and `guard_skipped` and `term_kept` from its two counts."""
    fields = {name: np.array([site[name]]) for name in WEIGHT_FIELDS}
    skips, kept = refine_arrays(*fields.values(), rho0=rho0, slab_var=slab_var,
                                damping=damping, v_floor=DEFAULT_V_FLOOR)
    return {**{name: v[0].item() for name, v in fields.items()},
            "rho": float(expit(logit(rho0) + fields["term_logit"][0])),
            "guard_skipped": skips == 1, "term_kept": kept == 1}


def tilted(m_cav, v_cav, p_cav, slab_var):
    """Quadrature of cavity times the exact spike-and-slab prior: the tilted
    mean, variance and slab share Z_slab / Z."""
    norm = 1.0 / math.sqrt(2.0 * math.pi * slab_var)
    z, e1, e2 = quad_tilted_moments(
        m_cav, v_cav, factor=lambda w: p_cav * norm * math.exp(-0.5 * w * w / slab_var),
        atom_weight=1.0 - p_cav)
    z_spike, _, _ = quad_tilted_moments(m_cav, v_cav, atom_weight=1.0 - p_cav)
    return e1, e2 - e1 * e1, (z - z_spike) / z


def test_symmetric_case_slab_responsibility():
    site = site_from_cavity(0.0, 1.0)
    res = refine(site, 1.0, damping=1.0)
    assert not res["term_kept"]
    assert res["rho"] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-10)
    assert res["mean"] == pytest.approx(0.0, abs=1e-15)
    _, var, _ = tilted(0.0, 1.0, 0.5, 1.0)
    assert res["var"] == pytest.approx(var, abs=1e-8)


def test_slab_responsibility_monotone_in_slab_variance():
    # widening the slab helps it explain a clearly nonzero cavity mean;
    # monotone while v_cav + s0sq stays below m_cav^2 (beyond that the slab
    # height itself starts falling), so the grid sits inside that regime
    m_cav, v_cav = 2.5, 0.3
    hyper_grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    previous = -1.0
    for s0sq in hyper_grid:
        site = site_from_cavity(m_cav, v_cav)
        res = refine(site, s0sq, damping=1.0)
        assert not res["term_kept"]
        _, _, slab_share = tilted(m_cav, v_cav, 0.5, s0sq)
        assert res["rho"] == pytest.approx(slab_share, abs=1e-8)
        assert res["rho"] > previous
        previous = res["rho"]


def test_well_determined_nonzero_weight_gets_slab():
    site = site_from_cavity(5.0, 0.01)
    res = refine(site, 1.0, damping=1.0)
    assert res["rho"] > 0.999999


def test_tiny_posterior_at_zero_goes_to_spike():
    site = site_from_cavity(0.0, 1e-6)
    res = refine(site, 1.0, damping=1.0)
    assert res["rho"] < 0.01


def test_invalid_cavity_is_skipped_without_change():
    # posterior variance equals term variance -> flat cavity -> guard
    site = dict(mean=0.3, var=1.0, term_mean=0.3, term_var=1.0, term_logit=0.0)
    res = refine(site, 1.0)
    assert res["guard_skipped"]
    assert not res["term_kept"]
    assert {name: res[name] for name in WEIGHT_FIELDS} == site


@pytest.mark.parametrize("mean, var", [(4e154, 1e-10), (3e151, 1e-10), (1e300, 1e-300)],
                         ids=["square-overflows", "ratio-overflows", "cavity-mean-overflows"])
def test_a_site_whose_height_overflows_is_skipped_and_the_rest_keep_their_bytes(mean, var):
    # m_cav^2, m_cav^2 / v_cav or m_cav itself is not finite at one site:
    # the sweep leaves that site as it is, counts it as a guard skip, and
    # raises no numpy warning (the suite turns one into an error); every
    # other site gets the bytes it gets without that site
    fields = [f.copy() for f in _trained_state().weight_fields()]
    plain = [f.copy() for f in fields]
    skips, kept = refine_arrays(*plain, rho0=0.5, slab_var=1.0, damping=0.5,
                                v_floor=DEFAULT_V_FLOOR)
    site = 3
    assert not refine(dict(zip(WEIGHT_FIELDS, (f[site] for f in fields))), 1.0)["guard_skipped"]
    fields[0][site], fields[1][site] = mean, var
    before = [f[site] for f in fields]
    big_skips, _ = refine_arrays(*fields, rho0=0.5, slab_var=1.0, damping=0.5,
                                 v_floor=DEFAULT_V_FLOOR)
    assert big_skips == skips + 1
    assert [f[site] for f in fields] == before
    for got, want in zip(fields, plain):
        assert np.delete(got, site).tobytes() == np.delete(want, site).tobytes()


def test_nonpositive_divided_term_keeps_old_term_updates_posterior():
    # tilted variance beyond the cavity variance makes the divided term
    # precision negative: wide slab, bimodal-ish tilt
    site = site_from_cavity(2.0, 1.0, term_mean=0.1, term_var=2.0)
    res = refine(site, 100.0, damping=1.0, rho0=0.58)
    assert not res["guard_skipped"]
    assert res["term_kept"]
    # the old term, and with it the selector, come back bit for bit
    assert res["term_mean"] == site["term_mean"]
    assert res["term_var"] == site["term_var"]
    assert res["term_logit"] == site["term_logit"]
    mean, var, _ = tilted(2.0, 1.0, 0.58, 100.0)
    assert res["mean"] == pytest.approx(mean, rel=1e-8)
    assert res["var"] == pytest.approx(var, rel=1e-8)


def test_undamped_posterior_equals_tilted_moments_and_division_is_exact():
    site = site_from_cavity(0.8, 0.5, term_mean=-0.2, term_var=1.5, term_logit=0.3)
    res = refine(site, 1.0, damping=1.0, rho0=0.4)
    assert not res["term_kept"]
    mean, var, slab_share = tilted(0.8, 0.5, 0.4, 1.0)
    assert res["mean"] == pytest.approx(mean, rel=1e-8)
    assert res["var"] == pytest.approx(var, rel=1e-8)
    assert res["rho"] == pytest.approx(slab_share, rel=1e-8)
    # cavity times new term reproduces the new posterior in natural parameters
    prec_cav = 1.0 / site["var"] - 1.0 / site["term_var"]
    m_cav_eta = site["mean"] / site["var"] - site["term_mean"] / site["term_var"]
    assert 1.0 / res["var"] == pytest.approx(prec_cav + 1.0 / res["term_var"],
                                             rel=1e-9)
    assert res["mean"] / res["var"] == pytest.approx(
        m_cav_eta + res["term_mean"] / res["term_var"], rel=1e-9)


def test_a_saturated_selector_term_still_gives_the_tilted_moments():
    # README training drives some term logits to about 750, where
    # sigmoid(logit rho0 + 750) rounds to 1. The cavity's selector is
    # rho0 whatever the term's logit, so the sweep writes the tilted
    # moments: mean 0.0760 and variance 0.1361 here, not the spike (mean
    # 0, variance at the floor) that a selector read back from the
    # rounded posterior probability would give
    site = site_from_cavity(0.3, 0.5, term_logit=750.0)
    res = refine(site, 1.0, damping=1.0)
    assert not res["guard_skipped"] and not res["term_kept"]
    mean, var, slab_share = tilted(0.3, 0.5, 0.5, 1.0)
    assert res["mean"] == pytest.approx(mean, rel=1e-8)
    assert res["var"] == pytest.approx(var, rel=1e-8)
    assert res["rho"] == pytest.approx(slab_share, rel=1e-8)
    assert (round(mean, 4), round(var, 4)) == (0.076, 0.1361)


def _trained_state(seed=0):
    shape = TensorShape((12, 12))
    entries, _ = synth_generate(shape, 2, ValueKind.CONTINUOUS, CpGenerator(),
                                0.1, 96, seed=seed)
    net = NetworkSpec.for_factorization(4, [5], "tanh")
    state = init_state(shape, ValueKind.CONTINUOUS, net,
                       Hyperparams(ranks=(2, 2)), seed=seed)
    with entry_errstate():  # the per-entry updates of a batch, without its sweep
        for entry in entries:
            adf_update_entry(state, entry)
    return state


def test_refine_all_guard_skips_every_zero_cavity_site():
    # a fresh state's posterior is its term times an init site, so every
    # cavity is that site; a posterior equal to its term leaves a cavity
    # precision of 0 at every site, and the sweep skips them all
    state = init_state(TensorShape((5, 5)), ValueKind.CONTINUOUS,
                       NetworkSpec.for_factorization(4, [3], "tanh"),
                       Hyperparams(ranks=(2, 2)), seed=0)
    assert refine_all(copy.deepcopy(state)).guard_skips == 0
    n = state.net.n_weights
    state.mu[:n] = state.term_mean
    state.var[:n] = state.term_var
    before = [copy.deepcopy(l) for l in state.weights]
    diag = refine_all(state)
    assert diag.guard_skips == n
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
    # a Python int, as the counts are: the benchmark's tracer writes it as JSON
    assert type(diag.inhibited) is int
    assert diag.inhibited == int((selector_probability(state) < 0.5).sum())
