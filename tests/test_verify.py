"""Each `streamdtf.verify` check passes on the engine and fails when the
engine function it guards is slightly wrong.

Acceptance criteria 1-6 and `streamdtf verify` both rely on these checks,
so a check that cannot fail would silence both.
"""

import dataclasses
import math

import pytest

from streamdtf import adf_engine, bnn, ep_prior, special, verify


def _bump_first(g):
    g[0] += 1e-3
    return g


def _shift(name, by):
    return lambda ev: ev._replace(**{name: getattr(ev, name) + by})


def _shift_tilted_mean(out):
    out["tilted_mean"] = out["tilted_mean"] + 1e-6
    return out


def _scale(value):
    return value * (1.0 + 1e-12)


def _scale_output(i):
    return lambda out: tuple(_scale(v) if j == i else v for j, v in enumerate(out))


# every form check_special_functions compares with scipy.special, and each
# output of log_ndtr_and_ratio, scaled by 1 + 1e-12: ten times the check's
# relative tolerance
SPECIAL_FORMS = (
    [(name, name, _scale) for name in ("ndtr", "ndtr_array", "erfcx", "expit",
                                       "log_expit", "logit", "ndtri")]
    + [("log_ndtr", "log_ndtr_and_ratio", _scale_output(0)),
       ("phi_over_cdf", "log_ndtr_and_ratio", _scale_output(1))]
)


CORRUPTIONS = {
    # check: (module, function, change to its return value)
    "check_gradient_fd": (bnn, "backprop_gradient", _bump_first),
    "check_output_moments_mc": (bnn, "output_moments_batch",
                                lambda ab: (ab[0], 1.5 * ab[1])),
    "check_evidence_binary": (adf_engine, "evidence_binary", _shift("log_z", 1e-6)),
    "check_evidence_continuous": (adf_engine, "evidence_continuous",
                                  _shift("dbeta", 1e-3)),
    "check_adf_conjugate": (adf_engine, "evidence_continuous", _shift("dalpha", 1e-3)),
    "check_ep_tilted": (ep_prior, "refine_arrays", _shift_tilted_mean),
    "check_tau_recursion": (adf_engine, "update_tau",
                            lambda gp: dataclasses.replace(gp, b=gp.b + 1e-3)),
    "check_special_functions": (special, "log_ndtr_and_ratio", _scale_output(0)),
}


def test_every_check_has_a_corruption():
    assert sorted(CORRUPTIONS) == sorted(c.__name__ for c in verify.ALL_CHECKS)


@pytest.mark.parametrize("check_name", sorted(CORRUPTIONS))
def test_check_fails_on_a_corrupted_engine(monkeypatch, check_name):
    check = getattr(verify, check_name)
    assert check().passed
    module, name, change = CORRUPTIONS[check_name]
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: change(original(*a, **k)))
    result = check()
    assert not result.passed, result.detail


@pytest.mark.parametrize("name, change", [(name, change) for _, name, change in SPECIAL_FORMS],
                         ids=[label for label, _, _ in SPECIAL_FORMS])
def test_special_function_check_fails_on_each_corrupted_form(monkeypatch, name, change):
    original = getattr(special, name)
    monkeypatch.setattr(special, name, lambda *a, **k: change(original(*a, **k)))
    result = verify.check_special_functions()
    assert not result.passed, result.detail


# probit partials off by a factor that is 1 at beta = 0 and grows with beta,
# as a misplaced (1 + beta) would make them: log Z is unchanged, so only the
# finite-difference comparison sees them
PROBIT_PARTIAL_MUTANTS = {
    "dbeta_over_1_plus_0.9beta": lambda ev, beta: ev._replace(
        dbeta=ev.dbeta * (1.0 + beta) / (1.0 + 0.9 * beta)),
    "dalpha_over_1_plus_beta": lambda ev, beta: ev._replace(
        dalpha=ev.dalpha / math.sqrt(1.0 + beta)),
}


@pytest.mark.parametrize("mutant", sorted(PROBIT_PARTIAL_MUTANTS))
def test_probit_evidence_check_fails_on_each_wrong_partial(monkeypatch, mutant):
    original, change = adf_engine.evidence_binary, PROBIT_PARTIAL_MUTANTS[mutant]
    monkeypatch.setattr(adf_engine, "evidence_binary",
                        lambda alpha, beta, y: change(original(alpha, beta, y), beta))
    result = verify.check_evidence_binary()
    assert not result.passed, result.detail


@pytest.mark.parametrize("seed", range(4))
def test_every_check_reports_passed_as_a_python_bool(seed):
    # CheckResult.passed is declared bool; a numpy bool prints the same but
    # is no bool to `is True`, json or an isinstance check
    for check in verify.ALL_CHECKS:
        assert type(check(seed=seed).passed) is bool, check.__name__
