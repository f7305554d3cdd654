"""Per-batch refinement of the sparsity-prior approximation term.

Each network weight carries a Gaussian-times-Bernoulli approximation of its
spike-and-slab prior. Once per batch we run a standard expectation
propagation sweep over all weights: divide the term out of the posterior
(cavity), match moments against the exact mixture prior

    rho0 * N(w | 0, sigma0_sq)  +  (1 - rho0) * delta(w)

replace the term by damped division (damping interpolates it in natural
parameters), and recompute the posterior as cavity times the damped term
(with damping 1 that is exactly the tilted moments). Guards: a
non-positive cavity precision, or a height exponent m_cav^2 / v_cav that
is not finite, skips the weight entirely; a non-positive divided term
precision keeps the old term and moves only the posterior, to the tilted
moments.

The likelihood never touches a selector, so every cavity's selector is the
prior's rho0, and a weight's posterior selector probability is derived,
not stored: sigmoid(logit rho0 + term_logit) (`selector_probability`).

All integrals are closed-form: the spike is an exact point mass, so the
slab's share of the tilted mass compares the two Gaussian heights
N(0 | m_cav, v_cav + sigma0_sq) and N(0 | m_cav, v_cav).

Embedding posteriors are never touched here. Weight updates within a sweep
are independent (cavity/tilt uses pre-sweep values only), so the sweep is
deterministic, and it runs as one vectorized pass that writes the flat
weight vectors of the store in place.
"""

import math
from dataclasses import dataclass

import numpy as np

from .posterior_store import DEFAULT_V_FLOOR, ModelState
from .special import expit

DEFAULT_DAMPING = 0.5


def _logit(p: float) -> float:
    return math.log(p) - math.log1p(-p)


def _log_normal_at_zero(mean, var):
    return -0.5 * (np.log(2.0 * math.pi * var) + mean * mean / var)


def refine_arrays(mean, var, term_mean, term_var, term_logit, rho0: float,
                  slab_var: float, damping: float, v_floor: float) -> tuple[int, int]:
    """Vectorized EP sweep over parallel arrays of weight sites, written in
    place; `damping` must be in (0, 1], which `refine_all` checks. Every new
    value is computed from the old fields before the first write. `rho0`,
    the prior's inclusion probability, is every cavity's selector.

    Returns the sweep's two counts: the sites the cavity guard skipped (left
    as they were: a cavity precision not > 0, or an m_cav^2 / v_cav that is
    not finite) and the sites that kept their old term.

    The posterior is recomputed as cavity times the damped term, so repeated
    sweeps on a fixed cavity contract geometrically instead of re-applying
    the prior; with damping 1 this equals assigning the tilted moments
    directly. When term division fails (non-positive precision) the old term
    is kept and only the posterior moves, to the tilted moments.
    """
    prec = 1.0 / var
    prec0 = 1.0 / term_var
    prec_cav = prec - prec0
    # a site is refined only where its cavity precision is > 0 and
    # m_cav^2 / v_cav, the larger of the two exponents of the Gaussian
    # heights below, is finite. That also skips an infinite cavity
    # precision (v_cav = 0) and one so small that v_cav is infinite: there
    # the height is NaN
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v_cav = 1.0 / prec_cav
        m_cav = v_cav * (mean * prec - term_mean * prec0)
        ok = (prec_cav > 0) & np.isfinite(m_cav * m_cav / v_cav)
    # neutralize invalid sites so the vector math stays finite; they are
    # not written below
    safe_prec_cav = np.where(ok, prec_cav, 1.0)
    v_cav = np.where(ok, v_cav, 1.0)
    m_cav = np.where(ok, m_cav, 0.0)

    # the slab's share of the tilted mass: the cavity's selector is rho0,
    # and the full term's logit is the log ratio of the two heights
    logit_term_full = (_log_normal_at_zero(m_cav, v_cav + slab_var)
                       - _log_normal_at_zero(m_cav, v_cav))
    r1 = expit(_logit(rho0) + logit_term_full)

    v_slab = 1.0 / (safe_prec_cav + 1.0 / slab_var)
    m_slab = v_slab * m_cav * safe_prec_cav
    e1 = r1 * m_slab
    # the tilted variance E[w^2] - E[w]^2 in a cancellation-free form
    v_tilted = np.maximum(r1 * v_slab + r1 * (1.0 - r1) * m_slab * m_slab, v_floor)

    # term replacement by division, damped in natural parameters; a kept
    # term's new natural parameters are neither written nor read
    prec0_full = 1.0 / v_tilted - safe_prec_cav
    keep_term = ~np.isfinite(prec0_full) | (prec0_full <= 0)
    safe_prec0_full = np.where(keep_term, prec0, prec0_full)
    eta0_full = e1 / v_tilted - m_cav * safe_prec_cav
    prec0_new = (1.0 - damping) * prec0 + damping * safe_prec0_full
    eta0_new = (1.0 - damping) * term_mean * prec0 + damping * eta0_full
    logit_term_new = (1.0 - damping) * term_logit + damping * logit_term_full

    # posterior = cavity * damped term; tilted moments directly when the
    # term had to be kept
    prec_post = safe_prec_cav + prec0_new
    post_var = np.maximum(np.where(keep_term, v_tilted, 1.0 / prec_post), v_floor)
    post_mean = np.where(keep_term, e1, (m_cav * safe_prec_cav + eta0_new) / prec_post)

    replaced = ok & ~keep_term
    np.copyto(mean, post_mean, where=ok)
    np.copyto(var, post_var, where=ok)
    np.copyto(term_mean, eta0_new / prec0_new, where=replaced)
    np.copyto(term_var, 1.0 / prec0_new, where=replaced)
    np.copyto(term_logit, logit_term_new, where=replaced)
    return int(np.count_nonzero(~ok)), int(np.count_nonzero(ok & keep_term))


@dataclass(frozen=True)
class EpDiagnostics:
    guard_skips: int
    term_kept: int
    inhibited: int  # weights whose selector logit is < 0 after the sweep


def selector_probability(state: ModelState) -> np.ndarray:
    """Each weight's posterior selector probability, flat in weight order:
    sigmoid(logit rho0 + term_logit), the prior's Bernoulli times the
    term's."""
    return expit(_logit(state.hyper.rho0) + state.term_logit)


def check_damping(damping: float) -> None:
    """Raise ValueError unless 0 < damping <= 1."""
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")


def refine_all(state: ModelState, damping: float = DEFAULT_DAMPING,
               v_floor: float = DEFAULT_V_FLOOR) -> EpDiagnostics:
    """Refine every network weight exactly once; embeddings are untouched."""
    check_damping(damping)
    hyper = state.hyper
    counts = refine_arrays(*state.weight_fields(), rho0=hyper.rho0, slab_var=hyper.sigma0_sq,
                           damping=damping, v_floor=v_floor)
    inhibited = int(np.count_nonzero(_logit(hyper.rho0) + state.term_logit < 0.0))
    return EpDiagnostics(*counts, inhibited=inhibited)
