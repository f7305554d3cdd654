"""Each `streamdtf.verify` check passes on the engine and fails when the
engine function it guards is slightly wrong.

Acceptance criteria 1-6 and `streamdtf verify` both rely on these checks,
so a check that cannot fail would silence both.
"""

import dataclasses
import inspect
import math

import pytest

from streamdtf import adf_engine, bnn, ep_prior, special, verify


def _bump_first(g):
    g[0] += 1e-3
    return g


def _shift(name, by):
    return lambda ev: ev._replace(**{name: getattr(ev, name) + by})


def _on_result(change):
    """Wrap a function so that `change` edits its return value."""
    return lambda original: lambda *a, **k: change(original(*a, **k))


def _shift_written_mean(refine_arrays):
    """Wrap the EP sweep so that it writes every posterior mean 1e-6 off."""
    def shifted(mean, *rest, **kw):
        counts = refine_arrays(mean, *rest, **kw)
        mean += 1e-6
        return counts
    return shifted


def _scale(value):
    return value * (1.0 + 1e-12)


def _scale_output(i):
    return lambda out: tuple(_scale(v) if j == i else v for j, v in enumerate(out))


# every form check_special_functions compares with scipy.special, and each
# output of log_ndtr_and_ratio, scaled by 1 + 1e-12: ten times the check's
# relative tolerance
SPECIAL_FORMS = (
    [(name, name, _scale) for name in ("ndtr", "ndtr_array", "erfcx", "expit")]
    + [("log_ndtr", "log_ndtr_and_ratio", _scale_output(0)),
       ("phi_over_cdf", "log_ndtr_and_ratio", _scale_output(1))]
)


CORRUPTIONS = {
    # check: (module, function, wrapper that makes the function slightly wrong)
    "check_gradient_fd": (bnn, "backprop_gradient", _on_result(_bump_first)),
    "check_batch_input_gradient_fd": (bnn, "_backward",
                                      _on_result(lambda r: (r[0], _bump_first(r[1])))),
    "check_output_moments_mc": (bnn, "output_moments_batch",
                                _on_result(lambda ab: (ab[0], 1.5 * ab[1]))),
    "check_evidence_binary": (adf_engine, "evidence_binary",
                              _on_result(_shift("log_z", 1e-6))),
    "check_evidence_continuous": (adf_engine, "evidence_continuous",
                                  _on_result(_shift("dbeta", 1e-3))),
    "check_adf_conjugate": (adf_engine, "evidence_continuous",
                            _on_result(_shift("dalpha", 1e-3))),
    "check_ep_tilted": (ep_prior, "refine_arrays", _shift_written_mean),
    "check_tau_recursion": (adf_engine, "update_tau",
                            _on_result(lambda gp: dataclasses.replace(gp, b=gp.b + 1e-3))),
    "check_special_functions": (special, "log_ndtr_and_ratio",
                                _on_result(_scale_output(0))),
}


def test_every_check_has_a_corruption():
    assert sorted(CORRUPTIONS) == sorted(c.__name__ for c in verify.ALL_CHECKS)


@pytest.mark.parametrize("check_name", sorted(CORRUPTIONS))
def test_check_fails_on_a_corrupted_engine(monkeypatch, check_name):
    check = getattr(verify, check_name)
    assert check().passed
    module, name, wrap = CORRUPTIONS[check_name]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
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


# source mutants of the EP sweep, as (text, replacement) pairs; each text
# occurs exactly once in `refine_arrays`. At the default damping of 0.5 the
# swapped damping weights are the same sweep, so the check runs at damping 1
# too; the damped blend's mutants show only at damping below 1
EP_MUTANTS = {
    "slab_share_without_the_prior_selector": [
        ("expit(_logit(rho0) + logit_term_full)", "expit(logit_term_full)")],
    "halved_tilted_variance_term": [
        ("r1 * (1.0 - r1) * m_slab * m_slab", "0.5 * r1 * (1.0 - r1) * m_slab * m_slab")],
    "kept_term_variance_left_old": [
        ("np.where(keep_term, v_tilted, 1.0 / prec_post)",
         "np.where(keep_term, var, 1.0 / prec_post)")],
    "damping_weights_swapped": [
        ("(1.0 - damping) * prec0 + damping * safe_prec0_full",
         "damping * prec0 + (1.0 - damping) * safe_prec0_full"),
        ("(1.0 - damping) * term_mean * prec0 + damping * eta0_full",
         "damping * term_mean * prec0 + (1.0 - damping) * eta0_full"),
        ("(1.0 - damping) * term_logit + damping * logit_term_full",
         "damping * term_logit + (1.0 - damping) * logit_term_full")],
    # at damping 1 the posterior does not read the term it writes: only the
    # division identity sees a wrong write
    "term_precision_written_as_variance": [
        ("np.copyto(term_var, 1.0 / prec0_new, where=replaced)",
         "np.copyto(term_var, prec0_new, where=replaced)")],
    "term_mean_written_natural": [
        ("np.copyto(term_mean, eta0_new / prec0_new, where=replaced)",
         "np.copyto(term_mean, eta0_new, where=replaced)")],
    "term_logit_written_with_the_prior": [
        ("np.copyto(term_logit, logit_term_new, where=replaced)",
         "np.copyto(term_logit, logit_term_new + _logit(rho0), where=replaced)")],
    "damped_old_precision_divided": [
        ("(1.0 - damping) * prec0 +", "(1.0 - damping) / prec0 +")],
    "damped_old_mean_divided": [
        ("(1.0 - damping) * term_mean * prec0", "(1.0 - damping) * term_mean / prec0")],
    "damped_old_logit_dropped": [
        ("(1.0 - damping) * term_logit + ", "")],
    # a kept site's term must come back as it was
    "kept_term_overwritten": [
        ("replaced = ok & ~keep_term", "replaced = ok")],
}


@pytest.mark.parametrize("mutant", sorted(EP_MUTANTS))
def test_ep_check_fails_on_each_source_mutant(monkeypatch, mutant):
    source = inspect.getsource(ep_prior.refine_arrays)
    for text, replacement in EP_MUTANTS[mutant]:
        assert source.count(text) == 1, text
        source = source.replace(text, replacement)
    namespace = dict(vars(ep_prior))
    exec(compile(source, ep_prior.__file__, "exec"), namespace)
    monkeypatch.setattr(ep_prior, "refine_arrays", namespace["refine_arrays"])
    result = verify.check_ep_tilted()
    assert not result.passed, result.detail


# the source mutant `out *= dh` -> `out /= dh` of each relu derivative, as
# (the function, where the tape reads it, the check whose relu networks run
# it; the tanh ones cannot see it): the one-row form, and the n-row form,
# which batch prediction runs and the one-row check never reaches
RELU_GRAD_MUTANTS = {
    "one-row": ("_relu_grad_one_row", lambda grad: (bnn._ONE_ROW_GRADS, "relu", grad),
                "check_gradient_fd"),
    "n-row": ("_relu_grad", lambda grad: (bnn.ACTIVATIONS, "relu", (bnn._relu, grad)),
              "check_batch_input_gradient_fd"),
}


@pytest.mark.parametrize("rows", sorted(RELU_GRAD_MUTANTS))
def test_gradient_check_fails_on_a_wrong_relu_derivative(monkeypatch, rows):
    name, slot, check = RELU_GRAD_MUTANTS[rows]
    source = inspect.getsource(getattr(bnn, name))
    assert source.count("out *= dh") == 1
    namespace = dict(vars(bnn))
    exec(compile(source.replace("out *= dh", "out /= dh"), bnn.__file__, "exec"), namespace)
    monkeypatch.setitem(*slot(namespace[name]))
    result = getattr(verify, check)()
    assert not result.passed, result.detail


@pytest.mark.parametrize("seed", range(4))
def test_ep_check_reaches_the_kept_term_branch(monkeypatch, seed):
    # the kept-term branch writes the posterior alone; a check that never
    # reaches it could not see that branch go wrong. `streamdtf verify
    # --seed S` runs the check at S plus its place in ALL_CHECKS
    seed += verify.ALL_CHECKS.index(verify.check_ep_tilted)
    kept = []
    original = ep_prior.refine_arrays

    def counting(*a, damping, **k):
        counts = original(*a, damping=damping, **k)
        kept.append(counts[1] if damping == 1.0 else 0)
        return counts

    monkeypatch.setattr(ep_prior, "refine_arrays", counting)
    result = verify.check_ep_tilted(seed=seed)
    assert result.passed, result.detail
    assert sum(kept) > 0
    assert f", {sum(kept)} of them kept their term" in result.detail


@pytest.mark.parametrize("seed", range(4))
def test_every_check_reports_passed_as_a_python_bool(seed):
    # CheckResult.passed is declared bool; a numpy bool prints the same but
    # is no bool to `is True`, json or an isinstance check
    for check in verify.ALL_CHECKS:
        assert type(check(seed=seed).passed) is bool, check.__name__
