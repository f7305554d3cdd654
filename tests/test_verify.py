"""Each `streamdtf.verify` check passes on the engine and fails when the
engine function it guards is slightly wrong.

Acceptance criteria 1-6 and `streamdtf verify` both rely on these checks,
so a check that cannot fail would silence both.
"""

import dataclasses

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


# every form check_special_functions compares with scipy.special, scaled by
# 1 + 1e-12: ten times the check's relative tolerance
SPECIAL_FORMS = (
    [(special, name) for name in ("ndtr", "ndtr_array", "log_ndtr", "erfcx", "expit",
                                  "log_expit", "logit", "ndtri")]
    + [(adf_engine, "_phi_over_cdf")]
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
    "check_special_functions": (special, "log_ndtr", _scale),
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


@pytest.mark.parametrize("module, name", SPECIAL_FORMS, ids=[n for _, n in SPECIAL_FORMS])
def test_special_function_check_fails_on_each_corrupted_form(monkeypatch, module, name):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: _scale(original(*a, **k)))
    result = verify.check_special_functions()
    assert not result.passed, result.detail
