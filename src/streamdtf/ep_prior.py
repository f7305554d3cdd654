"""Per-batch refinement of the sparsity-prior approximation term.

Each network weight carries a Gaussian-times-Bernoulli approximation of its
spike-and-slab prior. Once per batch we run a standard expectation
propagation sweep over all weights: divide the term out of the posterior
(cavity), match moments against the exact mixture prior

    slab_prob * N(w | 0, sigma0_sq)  +  (1 - slab_prob) * delta(w)

with the selector weight taken from the cavity, replace the term by damped
division, and recompute the posterior as cavity times the damped term (with
damping 1 that is exactly the tilted moments). Guards: a non-positive cavity
precision skips the weight entirely; a non-positive divided term precision
keeps the old term and moves only the posterior, to the tilted moments.
Damping interpolates the term in natural parameters.

All integrals are closed-form: the spike is an exact point mass, so the
tilted normalizer mixes the two Gaussian heights N(0 | m_cav, v_cav +
sigma0_sq) and N(0 | m_cav, v_cav).

Embedding posteriors are never touched here. Weight updates within a sweep
are independent (cavity/tilt uses pre-sweep values only), so the sweep is
deterministic, and it runs as one vectorized pass over the flat weight
vectors of the store.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit, logit

from .posterior_store import DEFAULT_V_FLOOR, WEIGHT_FIELDS, ModelState

# selector probabilities stay strictly inside (0, 1)
_RHO_LO = 1e-300
_RHO_HI = float(np.nextafter(1.0, 0.0))


def _log_normal_at_zero(mean, var):
    return -0.5 * (np.log(2.0 * math.pi * var) + mean * mean / var)


def refine_arrays(mean, var, rho_post, term_mean, term_var, term_logit,
                  slab_var: float, damping: float, v_floor: float) -> dict:
    """Vectorized EP sweep over parallel arrays of weight sites; `damping`
    must be in (0, 1], which `refine_all` checks.

    Returns the six new fields under their WEIGHT_FIELDS names and, per
    site, `tilted_norm`, `tilted_mean`, `tilted_second`, `slab_prob`, `ok`
    (False where the cavity guard skipped the site) and `term_kept`.

    The posterior is recomputed as cavity times the damped term, so repeated
    sweeps on a fixed cavity contract geometrically instead of re-applying
    the prior; with damping 1 this equals assigning the tilted moments
    directly. When term division fails (non-positive precision) the old term
    is kept and only the posterior moves, to the tilted moments.
    """
    prec = 1.0 / var
    prec0 = 1.0 / term_var
    prec_cav = prec - prec0
    ok = np.isfinite(prec_cav) & (prec_cav > 0)
    # neutralize invalid sites so the vector math stays finite; results for
    # those sites are discarded below
    safe_prec_cav = np.where(ok, prec_cav, 1.0)
    v_cav = 1.0 / safe_prec_cav
    m_cav = v_cav * (mean * prec - term_mean * prec0)
    logit_cav = logit(np.clip(rho_post, _RHO_LO, _RHO_HI)) - term_logit

    log_slab = log_expit(logit_cav) + _log_normal_at_zero(m_cav, v_cav + slab_var)
    log_spike = log_expit(-logit_cav) + _log_normal_at_zero(m_cav, v_cav)
    delta = log_slab - log_spike
    log_norm = np.logaddexp(log_slab, log_spike)
    r1 = expit(delta)

    v_slab = 1.0 / (safe_prec_cav + 1.0 / slab_var)
    m_slab = v_slab * m_cav * safe_prec_cav
    e1 = r1 * m_slab
    e2 = r1 * (v_slab + m_slab * m_slab)
    # e2 - e1^2 in a cancellation-free form
    v_tilted = np.maximum(r1 * v_slab + r1 * (1.0 - r1) * m_slab * m_slab, v_floor)

    # term replacement by division, damped in natural parameters
    prec0_full = 1.0 / v_tilted - safe_prec_cav
    keep_term = ~np.isfinite(prec0_full) | (prec0_full <= 0)
    safe_prec0_full = np.where(keep_term, prec0, prec0_full)
    eta0_full = np.where(keep_term, term_mean * prec0,
                         e1 / v_tilted - m_cav * safe_prec_cav)
    prec0_new = (1.0 - damping) * prec0 + damping * safe_prec0_full
    eta0_new = (1.0 - damping) * term_mean * prec0 + damping * eta0_full
    logit_term_full = delta - logit_cav
    logit_term_new = (1.0 - damping) * term_logit + damping * logit_term_full

    # posterior = cavity * damped term; tilted moments directly when the
    # term had to be kept
    prec_post = safe_prec_cav + prec0_new
    post_var = np.where(keep_term, v_tilted, 1.0 / prec_post)
    post_mean = np.where(keep_term, e1,
                         (m_cav * safe_prec_cav + eta0_new) / prec_post)
    post_rho = expit(logit_cav + np.where(keep_term, term_logit, logit_term_new))

    new_mean = np.where(ok, post_mean, mean)
    new_var = np.where(ok, np.maximum(post_var, v_floor), var)
    new_rho = np.where(ok, np.clip(post_rho, _RHO_LO, _RHO_HI), rho_post)

    untouched = ~ok | keep_term
    new_term_var = np.where(untouched, term_var, 1.0 / prec0_new)
    new_term_mean = np.where(untouched, term_mean, eta0_new / prec0_new)
    new_term_logit = np.where(untouched, term_logit, logit_term_new)

    return {
        "mean": new_mean, "var": new_var, "rho_post": new_rho,
        "term_mean": new_term_mean, "term_var": new_term_var,
        "term_logit": new_term_logit,
        "tilted_norm": np.exp(log_norm), "tilted_mean": e1, "tilted_second": e2,
        "slab_prob": r1, "ok": ok, "term_kept": keep_term & ok,
    }


@dataclass(frozen=True)
class EpDiagnostics:
    guard_skips: int
    term_kept: int
    inhibited: int  # weights with selector probability < 0.5 after the sweep


def check_damping(damping: float) -> None:
    """Raise ValueError unless 0 < damping <= 1."""
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")


def refine_all(state: ModelState, damping: float = 0.5,
               v_floor: float = DEFAULT_V_FLOOR) -> EpDiagnostics:
    """Refine every network weight exactly once; embeddings are untouched."""
    check_damping(damping)
    fields = state.weight_fields()
    out = refine_arrays(*fields, slab_var=state.hyper.sigma0_sq, damping=damping,
                         v_floor=v_floor)
    for flat, name in zip(fields, WEIGHT_FIELDS):
        flat[...] = out[name]
    return EpDiagnostics(guard_skips=int((~out["ok"]).sum()),
                         term_kept=int(out["term_kept"].sum()),
                         inhibited=int((state.rho_post < 0.5).sum()))
