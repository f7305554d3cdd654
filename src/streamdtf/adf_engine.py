"""Per-entry streaming posterior updates by moment matching.

For each observed entry: propagate first-order output moments (alpha, beta),
evaluate the running evidence Z of the blended posterior-times-likelihood,
differentiate log Z with respect to every touched parameter's mean and
variance through the chain rule (d/dmean = dlogZ/dalpha * g_j, d/dvar =
dlogZ/dbeta * g_j^2, with the gradient g treated as locally constant), and
apply

    mean' = mean + var * dlogZ/dmean
    var'  = var  - var^2 * ((dlogZ/dmean)^2 - 2 * dlogZ/dvar)

to all network weights and the entry's embedding coordinates. Selector
probabilities are untouched here (the likelihood does not involve them).
Continuous data additionally applies the closed-form Gamma update for the
noise precision, using that entry's pre-update (alpha, beta).

Processing is strictly sequential over entries (the update is order
dependent); the engine owns the state exclusively during process_batch.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr

from . import bnn, ep_prior
from .errors import NumericError
from .posterior_store import DEFAULT_V_FLOOR, GammaPosterior, ModelState
from .tensor_core import EntryBatch, ObservedEntry, ValueKind

logger = logging.getLogger(__name__)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class EvidenceResult:
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
    return EvidenceResult(log_z=log_z, dalpha=dalpha, dbeta=dbeta)


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
    return EvidenceResult(log_z=log_z, dalpha=dalpha, dbeta=dbeta)


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


@dataclass(frozen=True)
class EntryResult:
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
    result). A binary model raises ValueError, from `evidence_binary` and
    before any write, on a value other than 0 or 1.

    The update runs in place: the gradient g that `backprop_gradient`
    returns belongs to this call, so it and g^2 serve as scratch, and the
    new variances are written straight into `state.var`. Nothing in the
    state is written before the last check that can skip the entry (the
    input slot `state.mu[n:]`/`state.var[n:]` is scratch, not state).
    """
    x_mean, x_var = state.gather_entry(entry.index)
    n = state.net.n_weights
    mu_vec, gamma_vec = state.mu, state.var
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            alpha, tape = bnn.forward_mean(state.net, state.weight_means(), x_mean)
        except NumericError as exc:
            logger.warning("skipping entry %s: %s", entry.index, exc)
            return EntryResult(log_z=math.nan, alpha=math.nan, beta=math.nan,
                               clamped=0, skipped=True)
        g = bnn.backprop_gradient(tape)
        mu_vec[n:] = x_mean
        gamma_vec[n:] = x_var
        g_sq = g * g
        beta = float(g_sq @ gamma_vec)
        # alpha is finite: forward_mean raised on any non-finite
        # pre-activation. Every gamma_j is finite and > 0, so a non-finite
        # g_j makes beta NaN or +inf: this check also covers g.
        if not math.isfinite(beta):
            logger.warning("skipping entry %s: non-finite output moments", entry.index)
            return EntryResult(log_z=math.nan, alpha=alpha, beta=beta, clamped=0,
                               skipped=True)
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
            return EntryResult(log_z=math.nan, alpha=alpha, beta=beta, clamped=0,
                               skipped=True)

        dmu = np.multiply(g, ev.dalpha, out=g)
        mu_new = gamma_vec * dmu
        mu_new += mu_vec
        if not np.isfinite(mu_new).all():
            logger.warning("skipping entry %s: non-finite mean update", entry.index)
            return EntryResult(log_z=ev.log_z, alpha=alpha, beta=beta, clamped=0,
                               skipped=True)
        # var' = var - var*var*(dmu*dmu - 2*dv) with dv = dbeta * g^2, the
        # same operations in the same order, in the buffers of g^2 and g
        t = np.multiply(g_sq, ev.dbeta, out=g_sq)
        t *= 2.0
        np.subtract(np.multiply(dmu, dmu, out=dmu), t, out=t)
        t *= np.multiply(gamma_vec, gamma_vec, out=dmu)
        v_new = np.subtract(gamma_vec, t, out=gamma_vec)
        ok = v_new >= v_floor
        ok &= v_new < math.inf
        clamped = v_new.shape[0] - int(np.count_nonzero(ok))
        if clamped:
            v_new[~ok] = v_floor

    mu_vec[...] = mu_new
    state.scatter_entry(entry.index, mu_new[n:], v_new[n:])
    state.gamma = gamma_post
    state.entries_seen += 1
    return EntryResult(log_z=ev.log_z, alpha=alpha, beta=beta, clamped=clamped)


@dataclass
class BatchDiagnostics:
    entry_results: list[EntryResult] = field(default_factory=list)
    ep: "ep_prior.EpDiagnostics | None" = None

    @property
    def log_z_trace(self) -> list[float]:
        return [r.log_z for r in self.entry_results]

    @property
    def clamp_count(self) -> int:
        return sum(r.clamped for r in self.entry_results)

    @property
    def skip_count(self) -> int:
        return sum(1 for r in self.entry_results if r.skipped)


def process_batch(state: ModelState, batch: EntryBatch, damping: float = 0.5,
                  refine: bool = True,
                  v_floor: float = DEFAULT_V_FLOOR) -> BatchDiagnostics:
    """Apply the per-entry update sequentially in batch order, then refine
    the sparsity-prior approximation term once. Per-entry numeric problems
    become diagnostics; the batch always completes. With `refine` set, a
    damping outside (0, 1] raises ValueError before any entry is applied."""
    if refine:
        ep_prior.check_damping(damping)
    diag = BatchDiagnostics()
    for entry in batch.entries:
        diag.entry_results.append(adf_update_entry(state, entry, v_floor=v_floor))
    if refine:
        diag.ep = ep_prior.refine_all(state, damping=damping, v_floor=v_floor)
    return diag
