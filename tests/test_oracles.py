import math

import numpy as np
import pytest
from scipy.special import ndtr

from streamdtf import NetworkSpec, backprop_gradient, forward_mean
from streamdtf.errors import OracleError
from streamdtf.oracles import (conjugate_linear_update, fd_gradient,
                               mc_output_moments, pack, quad_tilted_moments,
                               unpack)


def _gauss(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


def test_quad_gaussian_times_gaussian_normalizer():
    for m, v, s2 in [(0.0, 1.0, 1.0), (1.3, 0.4, 2.0), (-2.0, 3.0, 0.5)]:
        z, e1, e2 = quad_tilted_moments(m, v, factor=lambda w: _gauss(w, 0.0, s2))
        assert z == pytest.approx(_gauss(0.0, m, v + s2), abs=1e-10)
        # product-of-Gaussians posterior moments in closed form
        v_post = 1.0 / (1.0 / v + 1.0 / s2)
        m_post = v_post * m / v
        assert e1 == pytest.approx(m_post, abs=1e-10)
        assert e2 == pytest.approx(v_post + m_post ** 2, abs=1e-10)


def test_quad_pure_point_mass():
    z, e1, e2 = quad_tilted_moments(0.7, 2.0, factor=None, atom_weight=0.25)
    assert e1 == 0.0 and e2 == 0.0
    assert z == pytest.approx(0.25 * _gauss(0.0, 0.7, 2.0), abs=1e-14)


def test_quad_gaussian_times_probit_matches_classical_form():
    for m, v, y in [(0.5, 1.0, 1.0), (-1.0, 0.3, 0.0), (2.0, 2.5, 1.0)]:
        sign = 2.0 * y - 1.0
        z, e1, _ = quad_tilted_moments(m, v, factor=lambda w: ndtr(sign * w))
        zn = sign * m / math.sqrt(1.0 + v)
        phi_over_cdf = _gauss(zn, 0.0, 1.0) / ndtr(zn)
        assert z == pytest.approx(ndtr(zn), abs=1e-10)
        assert e1 == pytest.approx(m + v * phi_over_cdf * sign / math.sqrt(1.0 + v),
                                   abs=1e-9)


def test_quad_validation():
    with pytest.raises(ValueError):
        quad_tilted_moments(0.0, -1.0, factor=lambda w: 1.0)
    with pytest.raises(ValueError):
        quad_tilted_moments(0.0, 1.0, factor=None, atom_weight=0.0)


def test_quad_reports_nonconvergence():
    # a pathologically spiky factor the default tolerance cannot resolve
    with pytest.raises(OracleError):
        quad_tilted_moments(0.0, 1.0, factor=lambda w: 1e9 * (abs(w - 0.123456) < 1e-12))


def test_mc_zero_variance_parameters():
    spec = NetworkSpec.for_factorization(2, [3], "tanh")
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal(s) for s in spec.weight_shapes]
    mc = mc_output_moments(spec, weights, [np.zeros(s) for s in spec.weight_shapes],
                           np.array([0.5, -0.5]), np.zeros(2), 5000, seed=1)
    assert mc.var == pytest.approx(0.0, abs=1e-28)
    alpha, _ = forward_mean(spec, weights, np.array([0.5, -0.5]))
    assert mc.mean == pytest.approx(alpha, abs=1e-12)


def test_mc_reproducible_under_seed():
    spec = NetworkSpec.for_factorization(2, [2], "relu")
    rng = np.random.default_rng(2)
    weights = [rng.standard_normal(s) for s in spec.weight_shapes]
    w_vars = [np.full(s, 0.01) for s in spec.weight_shapes]
    a = mc_output_moments(spec, weights, w_vars, np.ones(2), np.full(2, 0.01),
                          20000, seed=42)
    b = mc_output_moments(spec, weights, w_vars, np.ones(2), np.full(2, 0.01),
                          20000, seed=42)
    assert (a.mean, a.var) == (b.mean, b.var)


def test_mc_linear_network_matches_quadratic_form():
    spec = NetworkSpec((3, 1), "identity")
    rng = np.random.default_rng(3)
    weights = [rng.standard_normal(s) for s in spec.weight_shapes]
    w_vars = [rng.uniform(0.01, 0.1, s) for s in spec.weight_shapes]
    x = rng.standard_normal(3)
    x_vars = rng.uniform(0.01, 0.1, 3)
    _, tape = forward_mean(spec, weights, x)
    g = backprop_gradient(tape)
    want = float((g * g) @ pack(w_vars, x_vars))
    mc = mc_output_moments(spec, weights, w_vars, x, x_vars, 400_000, seed=4)
    assert abs(mc.var - want) <= 3 * mc.se_var


def test_fd_quadratic_is_exact_to_truncation_order():
    a = np.array([1.0, -2.0, 0.5])

    def f(x):
        return float(x @ np.diag(a) @ x)

    point = np.array([0.3, 1.0, -0.8])
    grad = fd_gradient(f, point, step=1e-5)
    assert np.allclose(grad, 2 * a * point, atol=1e-9)


def test_fd_detects_corrupted_gradient():
    rng = np.random.default_rng(5)
    spec = NetworkSpec.for_factorization(3, [4], "tanh")
    weights = [rng.standard_normal(s) for s in spec.weight_shapes]
    x = rng.standard_normal(3)
    _, tape = forward_mean(spec, weights, x)
    g = backprop_gradient(tape)
    corrupted = g.copy()
    corrupted[2] += 0.1

    def f(vec):
        mats, xin = unpack(vec, spec)
        return forward_mean(spec, mats, xin)[0]

    fd = fd_gradient(f, pack(weights, x))
    assert np.max(np.abs(g - fd)) < 1e-6
    assert np.max(np.abs(corrupted - fd)) > 0.05


def test_layout_pack_unpack_round_trip():
    spec = NetworkSpec.for_factorization(3, [4, 2], "tanh")
    rng = np.random.default_rng(6)
    mats = [rng.standard_normal(s) for s in spec.weight_shapes]
    x = rng.standard_normal(3)
    flat = pack(mats, x)
    assert flat.shape == (spec.n_weights + 3,)
    # the engine's order: each layer's range is its NetworkSpec.weight_slices
    for sl, m in zip(spec.weight_slices, mats):
        assert np.array_equal(flat[sl], m.ravel())
    mats2, x2 = unpack(flat, spec)
    assert all(np.array_equal(a, b) for a, b in zip(mats, mats2))
    assert np.array_equal(x, x2)
    with pytest.raises(ValueError):
        unpack(flat[:-1], spec)


def test_conjugate_zero_design_returns_prior():
    assert conjugate_linear_update(0.7, 2.0, 0.0, 5.0, 1.0) == (0.7, 2.0)


def test_conjugate_infinite_noise_returns_prior():
    m, v = conjugate_linear_update(0.7, 2.0, 1.5, 5.0, 1e12)
    assert m == pytest.approx(0.7, abs=1e-10)
    assert v == pytest.approx(2.0, abs=1e-10)


def test_conjugate_matches_direct_bayes_formula():
    pm, pv, x, y, nv = 0.2, 1.5, 0.8, 2.0, 0.3
    m, v = conjugate_linear_update(pm, pv, x, y, nv)
    prec = 1 / pv + x * x / nv
    assert v == pytest.approx(1 / prec, rel=1e-14)
    assert m == pytest.approx((pm / pv + x * y / nv) / prec, rel=1e-14)
    with pytest.raises(ValueError):
        conjugate_linear_update(0.0, -1.0, 1.0, 1.0, 1.0)
