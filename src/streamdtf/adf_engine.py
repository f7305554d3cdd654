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

The per-entry step screens its own result: a non-finite new mean skips the
entry, and a variance below the floor is clamped. process_batch runs it
without those two screens and checks the batch once at its end instead:
every weight variance and every variance of the batch's embedding rows is
>= v_floor, and their means are finite. Where the check fails, or an entry
meets what the screened step would skip or a c < 0, the batch is undone
and replayed with the screened step. The check is exact: with every c >= 0
no variance rises within a batch and no non-finite value turns finite
again, so a batch that passes had nothing to clamp or skip, and the two
steps wrote the same bytes (see process_batch).

Per-entry scratch: the update reuses its buffers and views from one entry
to the next, so an entry runs only its numpy calls. The state's first
update builds them as an `EntryScratch` and keeps it as
`state.entry_scratch`; a state that only predicts never holds one. Its
one-row bnn.ForwardTape holds the layer inputs with their bias slot set
once, one contiguous pre-activation block, the backward vectors, g with
per-layer views, and per layer the weight views and pass records the two
passes read, bound once to the list `weight_means()` returns on every
call. Those views alias the store: writes through `[...] =` reach them,
and rebinding a layer attribute or `state.mu` detaches it. Next to it
process_batch keeps `screen_batches` (read as False until a batch fails
its check). Neither is posterior state, so no copy or checkpoint carries
them (`ModelState.__getstate__`).
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
from .tensor_core import ObservedEntry, ValueKind

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


class _Unscreened(Exception):
    """Raised by an unscreened `adf_update_entry` where the screened step
    would skip the entry, or where c = dalpha^2 - 2 dbeta is not >= 0, before
    it writes or logs anything: `process_batch` then replays the batch
    screened."""


class EntryScratch(NamedTuple):
    """A state's per-entry scratch (see "Per-entry scratch" above), one
    tuple that `adf_update_entry` unpacks in place of a dozen attribute
    loads."""

    tape: bnn.ForwardTape  # one row, bound to state.weight_means()
    mu: np.ndarray  # state.mu
    var: np.ndarray  # state.var
    u: np.ndarray  # two work vectors as long as mu
    w: np.ndarray
    dalpha: np.ndarray  # 0-d operands of the step's scalars
    c: np.ndarray
    binary: bool

    @classmethod
    def build(cls, state: ModelState) -> "EntryScratch":
        tape = bnn.ForwardTape.allocate(state.net)
        tape.bind(state.weight_means())
        u, w = np.empty((2, state.mu.shape[0]))
        return cls(tape, state.mu, state.var, u, w, np.zeros(()), np.zeros(()),
                   state.kind is ValueKind.BINARY)


def adf_update_entry(state: ModelState, entry: ObservedEntry,
                     v_floor: float = DEFAULT_V_FLOOR, *,
                     screened: bool = True) -> EntryResult:
    """One moment-matching update; mutates the state in place.

    Every network weight and every embedding coordinate in the entry's index
    is updated from the same gradient. If any output moment, the evidence,
    the noise update or an updated mean is non-finite the entry is skipped
    with a logged diagnostic and the state is left unchanged. Variances
    falling below `v_floor` (or non-finite) are clamped there (counted in the
    result). The entry comes from a batch `process_batch` checked: its index
    holds integers inside the shape and its value is valid for the model's
    kind.

    With `screened=False` the step runs neither the new-mean screen nor
    the variance clamp: wherever the screened step would skip the entry
    (a non-finite pre-activation or beta, an evidence or noise-update
    NumericError), where beta < 0 and where c = dalpha^2 - 2 dbeta is not
    >= 0, it raises `_Unscreened` before it writes or logs anything;
    otherwise it writes what the screened step writes when that step
    neither skips nor clamps. Only `process_batch`
    runs it so, and checks the whole batch afterwards.

    The update runs in the state's per-entry scratch, `state.entry_scratch`,
    which the state's first update builds: `gather_entry` fills the input
    slot `state.mu[n:]`/`state.var[n:]`, the passes run in the scratch's
    tape, u = var * g and w = dalpha * u go to the two work vectors, dalpha
    and c reach their ufuncs as the two 0-d arrays (see "Scalar operands"
    in `bnn`), and the new variances are written straight into
    `state.var`. w is added into `state.mu` in place, after the last check
    that can skip the entry: a non-finite new mean, looked for only when
    w . w is not finite, as no new mean can overflow otherwise. Nothing in
    the state is written before that check (the input slot is scratch, not
    state).

    Callers run it under `entry_errstate()`, as `process_batch` does once
    per batch: an overflow or invalid operation here ends in a skip or a
    clamp, never in a numpy warning.
    """
    try:
        scratch = state.entry_scratch
    except AttributeError:  # the state's first update
        scratch = state.entry_scratch = EntryScratch.build(state)
    tape, mu_vec, gamma_vec, u, w, dalpha_op, c_op, binary = scratch
    index, y = entry
    x_mean, _ = state.gather_entry(index)
    try:
        alpha, tape = bnn.forward_mean(state.net, state.means, x_mean, tape)
    except NumericError as exc:
        if not screened:
            raise _Unscreened from None
        logger.warning("skipping entry %s: %s", index, exc)
        return EntryResult(math.nan, math.nan, math.nan, 0, True)
    g = bnn.backprop_gradient(tape)
    np.multiply(gamma_vec, g, out=u)
    beta = float(g.dot(u))
    # alpha is finite: forward_mean raised on any non-finite
    # pre-activation. Every gamma_j is finite and > 0, so a non-finite
    # g_j makes beta NaN or +inf: this check also covers g. Unscreened, a
    # variance an earlier entry left below 0 can make beta negative
    if not screened and not 0.0 <= beta < math.inf:
        raise _Unscreened
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
        if not screened:
            raise _Unscreened from None
        logger.warning("skipping entry %s: %s", index, exc)
        return EntryResult(math.nan, alpha, beta, 0, True)

    log_z, dalpha, dbeta = ev
    c = dalpha * dalpha - 2.0 * dbeta
    dalpha_op[()] = dalpha
    np.multiply(u, dalpha_op, out=w)
    if not screened:
        if not c >= 0.0:
            raise _Unscreened
    # a finite w . w bounds every |w_j| below 2^512, so no mu_j + w_j can
    # overflow for finite mu_j: only where the dot is not finite are the
    # new means formed (apart from mu) and screened
    elif not math.isfinite(w.dot(w)) and not bnn.all_finite(mu_vec + w):
        logger.warning("skipping entry %s: non-finite mean update", index)
        return EntryResult(log_z, alpha, beta, 0, True)
    # var' = var - c * u^2, in the buffer of u
    c_op[()] = c
    u *= u
    u *= c_op
    v_new = np.subtract(gamma_vec, u, out=gamma_vec)
    clamped = 0
    # min is NaN if any entry is; with c >= 0 no entry exceeds its old
    # variance, so only c < 0 (or NaN) can make one +inf. The ufunc
    # reductions are what v_new.min() and .max() call, without their
    # Python-level wrappers
    if screened and not (np.minimum.reduce(v_new) >= v_floor
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


def _unscreened_batch(state: ModelState, entries: Sequence[ObservedEntry],
                      indices: np.ndarray, v_floor: float) -> bool:
    """Run the unscreened step on every entry of the batch, then check the
    state once. Returns True when the batch wrote the bytes the screened
    loop writes, with no clamp and no skip; otherwise it restores what the
    batch could have written (the weights' means and variances, the
    batch's embedding rows, the Gamma posterior and entries_seen) and
    returns False."""
    n = state.net.n_weights
    mu, var = state.mu[:n], state.var[:n]
    rows = list(indices.T)  # per mode, the batch's row of each entry
    saved = (mu.copy(), var.copy(), state.gamma, state.entries_seen,
             [(emb.mean[r], emb.var[r]) for emb, r in zip(state.embeddings, rows)])
    try:
        for entry in entries:
            adf_update_entry(state, entry, v_floor, screened=False)
    except _Unscreened:
        pass
    else:
        written = [(mu, var)] + [(emb.mean[r].ravel(), emb.var[r].ravel())
                                 for emb, r in zip(state.embeddings, rows)]
        # >= is False on NaN, so a NaN variance fails here as a -inf does
        if all(np.minimum.reduce(v) >= v_floor and bnn.all_finite(m) for m, v in written):
            return True
    mu[...], var[...], state.gamma, state.entries_seen, modes = saved
    for emb, r, (means, variances) in zip(state.embeddings, rows, modes):
        emb.mean[r] = means
        emb.var[r] = variances
    return False


def process_batch(state: ModelState, batch: Sequence[ObservedEntry],
                  damping: float = ep_prior.DEFAULT_DAMPING,
                  v_floor: float = DEFAULT_V_FLOOR) -> BatchDiagnostics:
    """Apply the per-entry update sequentially in batch order, then refine
    the sparsity-prior approximation term once. Per-entry numeric problems
    become diagnostics. An empty batch, an index or value that
    `check_indices` or `check_values` rejects and a damping outside (0, 1]
    raise before the first entry is applied.

    The batch runs unscreened first (`adf_update_entry(screened=False)`),
    with one check at its end in place of the two per-entry screens: every
    weight variance and every variance of the batch's embedding rows is
    >= v_floor, and their means are finite. Where the check fails, or an
    entry raises where the screened step would skip it or where
    c = dalpha^2 - 2 dbeta is not >= 0, the batch's writes are undone and
    the batch is replayed with the screened step, which then also runs
    the following batches until one of them clamps and skips nothing
    (`state.screen_batches`, which no copy or checkpoint carries). So a
    stream that clamps in every batch runs one batch twice.

    The check is exact. With every c >= 0 a variance can only fall within
    a batch (fl(v - x) <= v for x >= 0), and a NaN or -inf variance, like
    a non-finite mean, stays so (NaN - x, -inf - x and inf + w are not
    finite again; an entry that reads a non-finite weight mean mostly
    raises at once, in its forward pass). So if every variance ends
    >= v_floor and every mean finite, no entry saw a variance below the
    floor or wrote a non-finite mean: the screened step would have
    clamped and skipped nothing, and both steps run the same operations
    in the same order, so they write the same bytes.
    """
    if not batch:
        raise ValueError("a batch cannot be empty")
    indices = state.shape.check_indices([e.index for e in batch])
    values = [e.value for e in batch]
    state.kind.check_values(values)
    ep_prior.check_damping(damping)
    # each entry is indexed with the integers check_indices read from it,
    # in an ObservedEntry built as `tensor_core` builds it (tuple.__new__)
    entries = list(map(tuple.__new__, itertools.repeat(ObservedEntry),
                       zip(map(tuple, indices.tolist()), values)))
    clamped = skipped = 0
    with entry_errstate():
        if (getattr(state, "screen_batches", False)
                or not _unscreened_batch(state, entries, indices, v_floor)):
            for entry in entries:
                result = adf_update_entry(state, entry, v_floor=v_floor)
                clamped += result.clamped
                skipped += result.skipped
            state.screen_batches = bool(clamped or skipped)
    return BatchDiagnostics(clamped, skipped,
                            ep_prior.refine_all(state, damping=damping, v_floor=v_floor))
