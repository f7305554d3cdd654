"""Per-entry streaming posterior updates by moment matching.

For each observed entry: propagate first-order output moments (alpha, beta),
evaluate the running evidence Z of the blended posterior-times-likelihood,
differentiate log Z with respect to every touched parameter's mean and
variance through the chain rule (d/dmean = dlogZ/dalpha * g_j, d/dvar =
dlogZ/dbeta * g_j^2, with the gradient g treated as locally constant), and
apply

    mean' = mean + var * dlogZ/dmean
    var'  = var  - var^2 * ((dlogZ/dmean)^2 - 2 * dlogZ/dvar)

to all network weights and the entry's embedding coordinates. Both partials
share the factor g, so with u = var * g and the scalar
c = (dlogZ/dalpha)^2 - 2 * dlogZ/dbeta the step is taken factored:

    beta  = g . u
    mean' = mean + dlogZ/dalpha * u
    var'  = var - c * u^2

Selector
probabilities are untouched here (the likelihood does not involve them).
Continuous data additionally applies the closed-form Gamma update for the
noise precision, using that entry's pre-update (alpha, beta).

Processing is strictly sequential over entries (the update is order
dependent); the engine owns the state exclusively during process_batch,
which checks the whole batch before its first entry.
"""

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr

from . import bnn, ep_prior
from .errors import NumericError
from .posterior_store import DEFAULT_V_FLOOR, GammaPosterior, ModelState
from .tensor_core import ObservedEntry, ValueKind

logger = logging.getLogger(__name__)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class EvidenceResult(NamedTuple):
    """log Z and its partials with respect to the output moments."""

    log_z: float
    dalpha: float
    dbeta: float


def _phi_over_cdf(z: float) -> float:
    """phi(z)/Phi(z), stable over the whole real line."""
    if z >= 0:
        return math.exp(-0.5 * z * z) / _SQRT_2PI / float(ndtr(z))
    # Phi(z) = exp(-z^2/2) * erfcx(-z/sqrt(2)) / 2, so the exponentials cancel
    return _SQRT_2_OVER_PI / float(erfcx(-z / math.sqrt(2.0)))


def evidence_binary(alpha: float, beta: float, y: float) -> EvidenceResult:
    """Evidence of one probit observation against N(alpha, beta):
    Z = Phi((2y-1) * alpha / sqrt(1 + beta)). Raises NumericError when log Z
    or a partial is not finite (an entry far on the wrong side of alpha)."""
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if y not in (0.0, 1.0):
        raise ValueError(f"binary observation must be 0 or 1, got {y}")
    sign = 2.0 * y - 1.0
    denom = math.sqrt(1.0 + beta)
    z = sign * alpha / denom
    log_z = float(log_ndtr(z))
    r = _phi_over_cdf(z)
    dalpha = sign * r / denom
    dbeta = -r * z / (2.0 * (1.0 + beta))
    if not (math.isfinite(log_z) and math.isfinite(dalpha) and math.isfinite(dbeta)):
        raise NumericError(f"non-finite probit evidence at z = {z}")
    return EvidenceResult(log_z, dalpha, dbeta)


def evidence_continuous(alpha: float, beta: float, y: float,
                        gamma_post: GammaPosterior) -> EvidenceResult:
    """Evidence of one Gaussian observation with the noise variance taken at
    the posterior-mean precision: Z = N(y | alpha, beta + b/a)."""
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    s = beta + gamma_post.b / gamma_post.a
    if not math.isfinite(s) or s <= 0:
        raise NumericError(f"degenerate evidence variance {s}")
    resid = y - alpha
    log_z = -0.5 * math.log(2.0 * math.pi * s) - resid * resid / (2.0 * s)
    dalpha = resid / s
    dbeta = -0.5 / s + resid * resid / (2.0 * s * s)
    if not (math.isfinite(log_z) and math.isfinite(dalpha) and math.isfinite(dbeta)):
        raise NumericError("non-finite evidence computation")
    return EvidenceResult(log_z, dalpha, dbeta)


def update_tau(gamma_post: GammaPosterior, y: float, alpha: float,
               beta: float) -> GammaPosterior:
    """Closed-form noise-precision update: shape + 1/2, rate + ((y-alpha)^2 + beta)/2.
    Raises NumericError when the new rate is not finite."""
    try:
        b = gamma_post.b + 0.5 * ((y - alpha) ** 2 + beta)
    except OverflowError:  # float ** raises where float * gives inf
        b = math.inf
    if not math.isfinite(b):
        raise NumericError(f"non-finite noise rate {b}")
    return GammaPosterior(a=gamma_post.a + 0.5, b=b)


def entry_errstate() -> np.errstate:
    """The numpy error state `adf_update_entry` runs under: overflow and
    invalid operations are ignored, because the update detects their
    results (it skips the entry or clamps the variance)."""
    return np.errstate(over="ignore", invalid="ignore")


class EntryResult(NamedTuple):
    """What one entry's update did: its log Z and output moments (NaN where
    the update skipped the entry before computing them), the number of
    variances clamped to the floor, and whether the entry was skipped."""

    log_z: float
    alpha: float
    beta: float
    clamped: int
    skipped: bool = False


def adf_update_entry(state: ModelState, entry: ObservedEntry,
                     v_floor: float = DEFAULT_V_FLOOR) -> EntryResult:
    """One moment-matching update; mutates the state in place.

    Every network weight and every embedding coordinate in the entry's index
    is updated from the same gradient. If any output moment, the evidence,
    the noise update or an updated mean is non-finite the entry is skipped
    with a logged diagnostic and the state is left unchanged. Variances
    falling below `v_floor` (or non-finite) are clamped there (counted in the
    result). The entry comes from a batch `process_batch` checked: its index
    holds integers inside the shape and its value is valid for the model's
    kind.

    The update runs in the state's per-entry scratch: `gather_entry` fills
    the input slot `state.mu[n:]`/`state.var[n:]`, the passes run in
    `state.tape`, u = var * g and the new means go to the two rows of
    `state.work`, and the new variances are written straight into
    `state.var`. Nothing in the state is written before the last check that
    can skip the entry (the input slot is scratch, not state).

    Callers run it under `entry_errstate()`, as `process_batch` does once
    per batch: an overflow or invalid operation here ends in a skip or a
    clamp, never in a numpy warning.
    """
    x_mean, _ = state.gather_entry(entry.index)
    mu_vec, gamma_vec = state.mu, state.var
    try:
        alpha, tape = bnn.forward_mean(state.net, state.weight_means(), x_mean,
                                       state.tape)
    except NumericError as exc:
        logger.warning("skipping entry %s: %s", entry.index, exc)
        return EntryResult(math.nan, math.nan, math.nan, 0, True)
    g = bnn.backprop_gradient(tape)
    u, mu_new = state.work
    np.multiply(gamma_vec, g, out=u)
    beta = float(np.dot(g, u))
    # alpha is finite: forward_mean raised on any non-finite
    # pre-activation. Every gamma_j is finite and > 0, so a non-finite
    # g_j makes beta NaN or +inf: this check also covers g.
    if not math.isfinite(beta):
        logger.warning("skipping entry %s: non-finite output moments", entry.index)
        return EntryResult(math.nan, alpha, beta, 0, True)
    gamma_post = state.gamma
    try:
        if state.kind is ValueKind.BINARY:
            ev = evidence_binary(alpha, beta, entry.value)
        else:
            ev = evidence_continuous(alpha, beta, entry.value, gamma_post)
            # pre-update alpha/beta of this entry feed the noise update
            gamma_post = update_tau(gamma_post, entry.value, alpha, beta)
    except NumericError as exc:
        logger.warning("skipping entry %s: %s", entry.index, exc)
        return EntryResult(math.nan, alpha, beta, 0, True)

    dalpha = ev.dalpha
    np.multiply(u, dalpha, out=mu_new)
    mu_new += mu_vec
    if not bnn.all_finite(mu_new):
        logger.warning("skipping entry %s: non-finite mean update", entry.index)
        return EntryResult(ev.log_z, alpha, beta, 0, True)
    # var' = var - c * u^2, in the buffer of u
    c = dalpha * dalpha - 2.0 * ev.dbeta
    u *= u
    u *= c
    v_new = np.subtract(gamma_vec, u, out=gamma_vec)
    clamped = 0
    # min is NaN if any entry is; with c >= 0 no entry exceeds its old
    # variance, so only c < 0 (or NaN) can make one +inf
    if not (v_new.min() >= v_floor and (c >= 0.0 or v_new.max() < math.inf)):
        ok = v_new >= v_floor
        ok &= v_new < math.inf
        clamped = v_new.shape[0] - int(np.count_nonzero(ok))
        v_new[~ok] = v_floor

    mu_vec[...] = mu_new
    state.scatter_entry(entry.index)
    state.gamma = gamma_post
    state.entries_seen += 1
    return EntryResult(ev.log_z, alpha, beta, clamped)


@dataclass
class BatchDiagnostics:
    entry_results: list[EntryResult]
    ep: ep_prior.EpDiagnostics

    @property
    def log_z_trace(self) -> list[float]:
        return [r.log_z for r in self.entry_results]

    @property
    def clamp_count(self) -> int:
        return sum(r.clamped for r in self.entry_results)

    @property
    def skip_count(self) -> int:
        return sum(1 for r in self.entry_results if r.skipped)


def process_batch(state: ModelState, batch: Sequence[ObservedEntry],
                  damping: float = ep_prior.DEFAULT_DAMPING,
                  v_floor: float = DEFAULT_V_FLOOR) -> BatchDiagnostics:
    """Apply the per-entry update sequentially in batch order, then refine
    the sparsity-prior approximation term once. Per-entry numeric problems
    become diagnostics. An empty batch, an index or value that
    `check_indices` or `check_values` rejects and a damping outside (0, 1]
    raise before the first entry is applied."""
    if not batch:
        raise ValueError("a batch cannot be empty")
    indices = state.shape.check_indices([e.index for e in batch]).tolist()
    state.kind.check_values([e.value for e in batch])
    ep_prior.check_damping(damping)
    # each entry is indexed with the integers check_indices read from it
    with entry_errstate():
        results = [adf_update_entry(state, ObservedEntry(tuple(index), entry.value),
                                    v_floor=v_floor)
                   for entry, index in zip(batch, indices)]
    return BatchDiagnostics(results, ep_prior.refine_all(state, damping=damping,
                                                         v_floor=v_floor))
