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

import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import bnn, ep_prior
from .errors import NumericError
from .posterior_store import DEFAULT_V_FLOOR, GammaPosterior, ModelState
from .special import log_ndtr_and_ratio
from .tensor_core import ObservedEntry

logger = logging.getLogger(__name__)


class EvidenceResult(NamedTuple):
    """log Z and its partials with respect to the output moments. The
    evidence functions build it, as `adf_update_entry` builds an applied
    entry's `EntryResult`, with tuple.__new__: the tuple the namedtuple's
    own __new__ builds, without that Python-level call per entry."""

    log_z: float
    dalpha: float
    dbeta: float


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
    log_z, r = log_ndtr_and_ratio(z)
    dalpha = sign * r / denom
    dbeta = -r * z / (2.0 * (1.0 + beta))
    if not (math.isfinite(log_z) and math.isfinite(dalpha) and math.isfinite(dbeta)):
        raise NumericError(f"non-finite probit evidence at z = {z}")
    return tuple.__new__(EvidenceResult, (log_z, dalpha, dbeta))


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
    return tuple.__new__(EvidenceResult, (log_z, dalpha, dbeta))


def update_tau(gamma_post: GammaPosterior, y: float, alpha: float,
               beta: float) -> GammaPosterior:
    """Closed-form noise-precision update: shape + 1/2, rate + ((y-alpha)^2 + beta)/2.
    Raises NumericError when the new rate is not finite, and ValueError as
    `GammaPosterior` does when a parameter is not > 0."""
    try:
        b = gamma_post.b + 0.5 * ((y - alpha) ** 2 + beta)
    except OverflowError:  # float ** raises where float * gives inf
        b = math.inf
    if not math.isfinite(b):
        raise NumericError(f"non-finite noise rate {b}")
    a = gamma_post.a + 0.5
    if not (0.0 < a < math.inf and 0.0 < b):
        raise ValueError(f"Gamma parameters must be finite and > 0, got ({a}, {b})")
    # checked above, so built without the dataclass __init__, which would
    # check them again
    new = object.__new__(GammaPosterior)
    new.a = a
    new.b = b
    return new


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

    The update runs in the state's per-entry scratch, which it reads from
    one tuple (`state.entry_scratch`): `gather_entry` fills the input slot
    `state.mu[n:]`/`state.var[n:]`, the passes run in `state.tape`,
    u = var * g and w = dalpha * u go to the two work vectors, dalpha and c
    reach their ufuncs as the tuple's two 0-d arrays (see "Scalar
    operands" in `bnn`), and the new variances are written straight into
    `state.var`. w is added into `state.mu` in place, after the last check
    that can skip the entry: a non-finite new mean, looked for only when
    w . w is not finite, as no new mean can overflow otherwise. Nothing in
    the state is written before that check (the input slot is scratch, not
    state).

    Callers run it under `entry_errstate()`, as `process_batch` does once
    per batch: an overflow or invalid operation here ends in a skip or a
    clamp, never in a numpy warning.
    """
    (net, means, tape, mu_vec, gamma_vec, u, w, dalpha_op, c_op,
     binary) = state.entry_scratch
    index, y = entry
    x_mean, _ = state.gather_entry(index)
    try:
        alpha, tape = bnn.forward_mean(net, means, x_mean, tape)
    except NumericError as exc:
        logger.warning("skipping entry %s: %s", index, exc)
        return EntryResult(math.nan, math.nan, math.nan, 0, True)
    g = bnn.backprop_gradient(tape)
    np.multiply(gamma_vec, g, out=u)
    beta = float(g.dot(u))
    # alpha is finite: forward_mean raised on any non-finite
    # pre-activation. Every gamma_j is finite and > 0, so a non-finite
    # g_j makes beta NaN or +inf: this check also covers g.
    if not math.isfinite(beta):
        logger.warning("skipping entry %s: non-finite output moments", index)
        return EntryResult(math.nan, alpha, beta, 0, True)
    gamma_post = state.gamma
    try:
        if binary:
            ev = evidence_binary(alpha, beta, y)
        else:
            ev = evidence_continuous(alpha, beta, y, gamma_post)
            # pre-update alpha/beta of this entry feed the noise update
            gamma_post = update_tau(gamma_post, y, alpha, beta)
    except NumericError as exc:
        logger.warning("skipping entry %s: %s", index, exc)
        return EntryResult(math.nan, alpha, beta, 0, True)

    log_z, dalpha, dbeta = ev
    dalpha_op[()] = dalpha
    np.multiply(u, dalpha_op, out=w)
    # a finite w . w bounds every |w_j| below 2^512, so no mu_j + w_j can
    # overflow for finite mu_j: only where the dot is not finite are the
    # new means formed (apart from mu) and screened
    if not math.isfinite(w.dot(w)) and not bnn.all_finite(mu_vec + w):
        logger.warning("skipping entry %s: non-finite mean update", index)
        return EntryResult(log_z, alpha, beta, 0, True)
    # var' = var - c * u^2, in the buffer of u
    c = dalpha * dalpha - 2.0 * dbeta
    c_op[()] = c
    u *= u
    u *= c_op
    v_new = np.subtract(gamma_vec, u, out=gamma_vec)
    clamped = 0
    # min is NaN if any entry is; with c >= 0 no entry exceeds its old
    # variance, so only c < 0 (or NaN) can make one +inf. The ufunc
    # reductions are what v_new.min() and .max() call, without their
    # Python-level wrappers
    if not (np.minimum.reduce(v_new) >= v_floor
            and (c >= 0.0 or np.maximum.reduce(v_new) < math.inf)):
        ok = v_new >= v_floor
        ok &= v_new < math.inf
        clamped = v_new.shape[0] - int(np.count_nonzero(ok))
        v_new[~ok] = v_floor

    np.add(mu_vec, w, out=mu_vec)
    state.scatter_entry(index)
    state.gamma = gamma_post
    state.entries_seen += 1
    return tuple.__new__(EntryResult, (log_z, alpha, beta, clamped, False))


@dataclass
class BatchDiagnostics:
    """What one batch did: the variances its entries clamped to the floor,
    the entries it skipped, and the EP sweep's diagnostics."""

    clamp_count: int
    skip_count: int
    ep: ep_prior.EpDiagnostics


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
    values = [e.value for e in batch]
    state.kind.check_values(values)
    ep_prior.check_damping(damping)
    # each entry is indexed with the integers check_indices read from it,
    # in an ObservedEntry built as `tensor_core` builds it (tuple.__new__)
    entries = map(tuple.__new__, itertools.repeat(ObservedEntry),
                  zip(map(tuple, indices), values))
    clamped = skipped = 0
    with entry_errstate():
        for entry in entries:
            result = adf_update_entry(state, entry, v_floor=v_floor)
            clamped += result.clamped
            skipped += result.skipped
    return BatchDiagnostics(clamped, skipped,
                            ep_prior.refine_all(state, damping=damping, v_floor=v_floor))
