"""The run path's special functions against `scipy.special`, on the
arguments the engine gives them.

Each bound is a relative error set from float64 rounding: a few units in
the last place where the form is scipy's formula or a converged series,
and 1e-13 for Phi and log Phi in the tails, where rounding
t = |z| / sqrt(2) alone moves erfc(t) by up to 2 t^2 * 2^-53 (1.5e-13 at
t = 26.5) in scipy's form and in these. Values below the smallest normal float
have no relative precision in either form; there both must be below it
(`verify._relative_error`). `verify.check_special_functions` runs the
fixed grids of the field check.
"""

import math
import statistics

import numpy as np
import pytest
from scipy import special as sp

from streamdtf import special, verify
from streamdtf.ep_prior import _RHO_HI, _RHO_LO
from streamdtf.seeding import make_rng

rel_err = verify._relative_error


@pytest.fixture(scope="module")
def rng():
    return make_rng(21)


def test_ep_sweep_forms_on_selector_logits(rng):
    # the sweep takes logit of selector probabilities clipped to
    # [_RHO_LO, _RHO_HI], then expit and log_expit of sums of such logits,
    # term logits and log Gaussian heights, whose m^2 / v grows without
    # bound as v nears the variance floor
    p = np.concatenate([np.geomspace(_RHO_LO, 0.5, 2000), 1.0 - np.geomspace(1e-16, 0.5, 2000),
                        rng.uniform(0.0, 1.0, 2000), [_RHO_HI, 0.3, 0.65, 0.5]])
    assert rel_err(special.logit(p), sp.logit(p)) <= 4.0 * 2.0 ** -52
    x = np.concatenate([np.linspace(-1500.0, 1500.0, 6001), rng.normal(0.0, 20.0, 2000),
                        sp.logit(p), [-1e300, -1e10, 1e10, 1e300]])
    assert rel_err(special.expit(x), sp.expit(x)) <= 4.0 * 2.0 ** -52
    assert rel_err(special.log_expit(x), sp.log_expit(x)) <= 4.0 * 2.0 ** -52


@pytest.mark.parametrize("sigma0_sq", [0.01, 1.0, 25.0])
def test_init_quantile_on_truncated_draws(rng, sigma0_sq):
    bound = math.sqrt(sigma0_sq)
    p = rng.uniform(special.ndtr(-bound), special.ndtr(bound), 5000)
    assert rel_err(special.ndtri(p), sp.ndtri(p)) <= 8.0 * 2.0 ** -52
    assert special.ndtr(bound) == pytest.approx(float(sp.ndtr(bound)), rel=2.0 ** -52)


def test_quantile_is_the_standard_library_algorithm():
    # statistics.NormalDist.inv_cdf runs the same AS 241 in scalar floats
    p = np.concatenate([np.geomspace(1e-300, 0.5, 500), 1.0 - np.geomspace(2.0 ** -53, 0.5, 500)])
    want = [statistics.NormalDist().inv_cdf(v) for v in p.tolist()]
    assert rel_err(special.ndtri(p), want) <= 2.0 ** -52


def _probit_arguments(rng) -> np.ndarray:
    """z = (2y - 1) alpha / sqrt(1 + beta) of the evidence and the
    predictions: a fine grid over [-40, 40], draws at the scale of trained
    models and the far tails."""
    return np.concatenate([np.linspace(-40.0, 40.0, 16001), rng.normal(0.0, 3.0, 2000),
                           [-1e3, -1e6, -1e150, 1e3, 1e150]])


def test_probit_evidence_forms(rng):
    z = _probit_arguments(rng)
    log_cdf, ratio = zip(*[special.log_ndtr_and_ratio(v) for v in z.tolist()])
    assert rel_err(log_cdf, sp.log_ndtr(z)) <= 1e-13
    assert rel_err(ratio, verify._phi_over_cdf_reference(z)) <= 8.0 * 2.0 ** -52
    assert rel_err([special.ndtr(v) for v in z.tolist()], sp.ndtr(z)) <= 1e-13
    x = np.concatenate([np.linspace(0.0, 30.0, 3001), np.geomspace(30.0, 1e300, 300)])
    assert rel_err([special.erfcx(v) for v in x.tolist()], sp.erfcx(x)) <= 8.0 * 2.0 ** -52


def test_prediction_probabilities(rng):
    z = _probit_arguments(rng)
    assert rel_err(special.ndtr_array(z), sp.ndtr(z)) <= 1e-13
    assert rel_err(special.ndtr_array(z[np.abs(z) <= 5.0]), sp.ndtr(z[np.abs(z) <= 5.0])) <= 4e-15
    edges = special.ndtr_array(np.array([np.inf, -np.inf, np.nan]))
    assert edges[:2].tolist() == [1.0, 0.0] and math.isnan(edges[2])
