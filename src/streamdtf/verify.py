"""Self-verification: runs the independent oracles against the engine.

Each check here is the only code that compares an engine function with its
oracle. `streamdtf verify` runs all eight at small case counts, so a
deployment can be sanity-checked in the field; acceptance criteria 1-6 in
the test suite call the same checks with their own seeds and larger counts.
The tolerances and the case ranges are fixed here, so both callers hold the
engine to the same standard. The engine's special functions
(`streamdtf.special`) are numpy and `math` forms; their oracle is
`scipy.special`, which only this module loads.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from . import adf_engine, bnn, ep_prior, oracles, posterior_store, special, tensor_core
from .posterior_store import GammaPosterior, Hyperparams
from .seeding import make_rng
from .tensor_core import TensorShape, ValueKind


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_net(rng, max_v0, max_width, max_hidden_layers):
    """A tanh net with V0 in [2, max_v0], 1..max_hidden_layers hidden layers
    of width [2, max_width], standard-normal weights and input."""
    v0 = int(rng.integers(2, max_v0 + 1))
    hidden = [int(rng.integers(2, max_width + 1))
              for _ in range(int(rng.integers(1, max_hidden_layers + 1)))]
    spec = bnn.NetworkSpec.for_factorization(v0, hidden, "tanh")
    weights = [rng.standard_normal(s) for s in spec.weight_shapes]
    x = rng.standard_normal(v0)
    return spec, weights, x


def check_gradient_fd(seed: int = 0, n_nets: int = 10) -> CheckResult:
    """Reverse-mode gradients against central finite differences; each
    coordinate's error is scaled by max(|fd|, 1e-3)."""
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(n_nets):
        spec, weights, x = _random_net(rng, max_v0=6, max_width=10, max_hidden_layers=2)
        alpha, tape = bnn.forward_mean(spec, weights, x)
        g = bnn.backprop_gradient(tape)

        def f(vec):
            mats, xin = oracles.unpack(vec, spec)
            a, _ = bnn.forward_mean(spec, mats, xin)
            return a

        fd = oracles.fd_gradient(f, oracles.pack(weights, x))
        err = float(np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-3)))
        worst = max(worst, err)
    passed = worst <= 1e-5
    return CheckResult("gradient-vs-finite-differences", passed,
                       f"max scaled error {worst:.3e} over {n_nets} nets (tol 1e-5)")


def check_output_moments_mc(seed: int = 1, n_nets: int = 3,
                            n_samples: int = 200_000) -> CheckResult:
    """First-order output variance against Monte Carlo, for parameter
    variances <= 1e-2, within 3 MC standard errors or 15 %, the looser."""
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(n_nets):
        spec, weights, x = _random_net(rng, max_v0=5, max_width=5, max_hidden_layers=1)
        w_vars = [rng.uniform(1e-4, 1e-2, s) for s in spec.weight_shapes]
        x_vars = rng.uniform(1e-4, 1e-2, x.shape[0])
        _, (beta,) = bnn.output_moments_batch(spec, weights, w_vars, x[None],
                                              x_vars[None])
        mc = oracles.mc_output_moments(spec, weights, w_vars, x, x_vars,
                                       n_samples, seed=int(rng.integers(2 ** 31)))
        worst = max(worst, abs(beta - mc.var) / max(3.0 * mc.se_var, 0.15 * mc.var))
    # beta and the Monte Carlo moments are numpy floats: passed is a bool
    return CheckResult("output-moments-vs-monte-carlo", bool(worst <= 1.0),
                       f"worst |beta-mc|/tol {worst:.3f} over {n_nets} nets of "
                       f"{n_samples} samples (tol max(3 se, 0.15 var))")


def check_evidence_binary(seed: int = 2, n_cases: int = 200) -> CheckResult:
    """Probit evidence against the normal CDF on a grid of 61 z values in
    [-30, 30] x beta in {0, 2, 10} x both labels, then `n_cases` random
    cases; and its partials against central finite differences of its log Z,
    one-sided at beta = 0: (-3 f(0) + 4 f(h) - f(2h)) / 2h."""
    rng = make_rng(seed)
    worst = worst_partial = 0.0
    h = 1e-6
    cases = [(z, b, y) for z in np.linspace(-30, 30, 61) for b in (0.0, 2.0, 10.0)
             for y in (0.0, 1.0)]
    cases += [(float(rng.uniform(-8, 8)), float(rng.uniform(0, 10)),
               float(rng.integers(0, 2))) for _ in range(n_cases)]
    for z_target, beta, y in cases:
        sign = 2.0 * y - 1.0
        alpha = sign * z_target * math.sqrt(1.0 + beta)
        ev = adf_engine.evidence_binary(alpha, beta, y)
        ref = 0.5 * sp.erfc(-z_target / math.sqrt(2.0))
        if not (0.0 < math.exp(ev.log_z) <= 1.0) or not math.isfinite(ev.log_z):
            return CheckResult("evidence-binary-vs-reference-cdf", False,
                               f"unstable at z={z_target}")
        if ref >= 1e-12:
            worst = max(worst, abs(math.exp(ev.log_z) - ref) / ref)
        worst = max(worst, abs(ev.log_z - math.log(ref)) / max(1.0, abs(math.log(ref))))

        def log_z(a, b):
            return adf_engine.evidence_binary(a, b, y).log_z

        fd_a = (log_z(alpha + h, beta) - log_z(alpha - h, beta)) / (2 * h)
        if beta >= h:
            fd_b = (log_z(alpha, beta + h) - log_z(alpha, beta - h)) / (2 * h)
        else:
            fd_b = (-3.0 * ev.log_z + 4.0 * log_z(alpha, beta + h)
                    - log_z(alpha, beta + 2 * h)) / (2 * h)
        for got, want in ((ev.dalpha, fd_a), (ev.dbeta, fd_b)):
            worst_partial = max(worst_partial, abs(got - want) / max(abs(want), 1e-3))
    # the grid's z values are numpy floats: passed is a bool
    return CheckResult("evidence-binary-vs-reference-cdf",
                       bool(worst <= 1e-10 and worst_partial <= 1e-6),
                       f"max relative error {worst:.3e} over {len(cases)} cases (tol 1e-10); "
                       f"partials vs fd {worst_partial:.3e} (tol 1e-6)")


def check_evidence_continuous(seed: int = 3, n_cases: int = 200) -> CheckResult:
    """The Gaussian evidence's partials in alpha and beta against central
    finite differences of its log Z."""
    rng = make_rng(seed)
    worst = 0.0
    h = 1e-6
    for _ in range(n_cases):
        alpha = float(rng.uniform(-3, 3))
        beta = float(rng.uniform(0.01, 5))
        y = float(rng.uniform(-4, 4))
        gp = GammaPosterior(float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4)))
        ev = adf_engine.evidence_continuous(alpha, beta, y, gp)
        fd_a = (adf_engine.evidence_continuous(alpha + h, beta, y, gp).log_z
                - adf_engine.evidence_continuous(alpha - h, beta, y, gp).log_z) / (2 * h)
        fd_b = (adf_engine.evidence_continuous(alpha, beta + h, y, gp).log_z
                - adf_engine.evidence_continuous(alpha, beta - h, y, gp).log_z) / (2 * h)
        for got, want in ((ev.dalpha, fd_a), (ev.dbeta, fd_b)):
            worst = max(worst, abs(got - want) / max(abs(want), 1e-3))
    return CheckResult("evidence-continuous-partials-vs-fd", worst <= 1e-6,
                       f"max relative error {worst:.3e} over {n_cases} cases (tol 1e-6)")


def _random_linear_state(rng):
    v0 = int(rng.integers(1, 5))
    net = bnn.NetworkSpec((v0, 1), "identity")
    hyper = Hyperparams(ranks=(v0,))
    state = posterior_store.init_state(TensorShape((4,)), ValueKind.CONTINUOUS,
                                       net, hyper, seed=int(rng.integers(2 ** 31)))
    state.embeddings[0].mean[...] = rng.standard_normal((4, v0))
    state.embeddings[0].var[...] = rng.uniform(0.05, 2.0, (4, v0))
    state.weights[0].mean[...] = rng.standard_normal((1, v0 + 1))
    state.weights[0].var[...] = rng.uniform(0.05, 2.0, (1, v0 + 1))
    state.gamma = GammaPosterior(float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4)))
    return state, v0


def check_adf_conjugate(seed: int = 4, n_cases: int = 200) -> CheckResult:
    """On the identity single-layer model with the noise precision held at
    its posterior mean, every coordinate's update equals the exact conjugate
    one. After `n_cases` random cases come `n_cases // 5` that isolate the
    first weight: every other variance is pinned at 1e-18, below the
    engine's variance floor, so only the free weight is compared."""
    rng = make_rng(seed)
    worst = 0.0
    n_isolated = n_cases // 5
    for case in range(n_cases + n_isolated):
        state, v0 = _random_linear_state(rng)
        isolated = case >= n_cases
        if isolated:
            state.embeddings[0].var[...] = 1e-18
            state.weights[0].var[0, 1:] = 1e-18
        idx = (int(rng.integers(0, 4)),)
        x_mean, x_var = state.gather_entry(idx)
        w_row = state.weights[0].mean[0].copy()
        w_var_row = state.weights[0].var[0].copy()
        hb = np.append(x_mean, 1.0) / math.sqrt(v0 + 1.0)
        g = np.concatenate([hb, w_row[:v0] / math.sqrt(v0 + 1.0)])
        mu = np.concatenate([w_row, x_mean])
        var = np.concatenate([w_var_row, x_var])
        alpha = float(w_row @ hb)
        noise = state.gamma.b / state.gamma.a
        s = float((g * g) @ var) + noise
        y = alpha + float(rng.normal(0, math.sqrt(s)))
        with adf_engine.entry_errstate():
            adf_engine.adf_update_entry(state, tensor_core.ObservedEntry(idx, y))
        post_mu = np.concatenate([state.weights[0].mean[0],
                                  state.gather_entry(idx)[0]])
        post_var = np.concatenate([state.weights[0].var[0],
                                   state.gather_entry(idx)[1]])
        for j in range(1 if isolated else mu.shape[0]):
            noise_eff = s - g[j] * g[j] * var[j]
            want_m, want_v = oracles.conjugate_linear_update(
                mu[j], var[j], g[j], y - (alpha - g[j] * mu[j]), noise_eff)
            worst = max(worst, abs(post_mu[j] - want_m), abs(post_var[j] - want_v))
    # the posterior's cells are numpy floats: passed is a bool
    return CheckResult("adf-update-vs-conjugate-oracle", bool(worst <= 1e-8),
                       f"max abs error {worst:.3e} over {n_cases} + {n_isolated} "
                       f"isolated-weight cases (tol 1e-8)")


def _refine_one(mean, var, rho_post, term_mean, term_var, term_logit,
                slab_var) -> dict:
    """The EP sweep on one weight site at damping 0.5; each output is a float."""
    out = ep_prior.refine_arrays(
        *(np.array([v]) for v in (mean, var, rho_post, term_mean, term_var, term_logit)),
        slab_var=slab_var, damping=0.5, v_floor=posterior_store.DEFAULT_V_FLOOR)
    return {name: float(v[0]) for name, v in out.items()}


def check_ep_tilted(seed: int = 5, n_cases: int = 200) -> CheckResult:
    """The EP sweep's tilted normalizer and first two moments against
    quadrature on random cavities, and the symmetric case's slab
    responsibility against sqrt(2) - 1."""
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        m_cav = float(rng.uniform(-3, 3))
        v_cav = float(rng.uniform(0.05, 3))
        s0sq = float(rng.uniform(0.3, 3))
        p_cav = float(rng.uniform(0.05, 0.95))
        v0 = float(rng.uniform(0.5, 3))
        mu0 = float(rng.normal(0, 1))
        logit0 = float(rng.normal(0, 1))
        v = 1.0 / (1.0 / v_cav + 1.0 / v0)
        res = _refine_one(v * (m_cav / v_cav + mu0 / v0), v,
                          float(sp.expit(sp.logit(p_cav) + logit0)), mu0, v0, logit0, s0sq)
        slab_norm = 1.0 / math.sqrt(2.0 * math.pi * s0sq)
        z_q, e1_q, e2_q = oracles.quad_tilted_moments(
            m_cav, v_cav,
            factor=lambda w: p_cav * slab_norm * math.exp(-0.5 * w * w / s0sq),
            atom_weight=1.0 - p_cav,
        )
        for got, want in ((res["tilted_norm"], z_q), (res["tilted_mean"], e1_q),
                          (res["tilted_second"], e2_q)):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    sym_prob = _refine_one(0.0, 0.5, 0.5, 0.0, 1.0, 0.0, 1.0)["slab_prob"]
    sym_ok = abs(sym_prob - (math.sqrt(2.0) - 1.0)) <= 1e-5
    return CheckResult("ep-tilted-vs-quadrature", worst <= 1e-8 and sym_ok,
                       f"max error {worst:.3e} over {n_cases} cases (tol 1e-8); "
                       f"symmetric slab prob {sym_prob:.5f} (want 0.41421)")


def check_tau_recursion(seed: int = 6, n_entries: int = 30) -> CheckResult:
    """The Gamma shape grows by exactly 1/2 per continuous entry, and each
    rate increment equals ((y - alpha)^2 + beta) / 2, with alpha and beta
    recomputed by the scalar forward pass and finite differences."""
    rng = make_rng(seed)
    net = bnn.NetworkSpec.for_factorization(4, [3], "tanh")
    hyper = Hyperparams(ranks=(2, 2))
    state = posterior_store.init_state(TensorShape((5, 5)), ValueKind.CONTINUOUS,
                                       net, hyper, seed=seed)
    worst = 0.0
    for n in range(1, n_entries + 1):
        idx = (int(rng.integers(0, 5)), int(rng.integers(0, 5)))
        y = float(rng.normal(0, 1))
        x_mean, x_var = state.gather_entry(idx)
        w_means = [lay.mean.copy() for lay in state.weights]
        w_vars = [lay.var.copy() for lay in state.weights]

        def f(vec):
            mats, xin = oracles.unpack(vec, net)
            return oracles.naive_forward(net.widths, net.activation, mats, xin)

        point = oracles.pack(w_means, x_mean)
        alpha_ind = f(point)
        g_ind = oracles.fd_gradient(f, point)
        beta_ind = float((g_ind * g_ind) @ oracles.pack(w_vars, x_var))
        a_prev, b_prev = state.gamma.a, state.gamma.b
        with adf_engine.entry_errstate():
            adf_engine.adf_update_entry(state, tensor_core.ObservedEntry(idx, y))
        if state.gamma.a != a_prev + 0.5:
            return CheckResult("tau-recursion", False,
                               f"shape not exactly a0 + n/2 at n={n}")
        want_incr = 0.5 * ((y - alpha_ind) ** 2 + beta_ind)
        got_incr = state.gamma.b - b_prev
        worst = max(worst, abs(got_incr - want_incr) / max(1.0, abs(want_incr)))
    passed = worst <= 1e-6 and state.gamma.a == hyper.a0 + n_entries / 2.0
    return CheckResult("tau-recursion", passed,
                       f"shape exact; max rate-increment error {worst:.3e} over "
                       f"{n_entries} entries (tol 1e-6)")


def _relative_error(got, want) -> float:
    """Largest |got - want| / |want|. Below the smallest normal float
    neither side keeps relative precision: where |want| is there, the error
    is 0 if |got| is there too, and inf otherwise."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    tiny = np.finfo(float).tiny
    small = np.abs(want) < tiny
    if np.any(small & ~(np.abs(got) < tiny)):
        return math.inf
    return float((np.abs(got - want)[~small] / np.abs(want)[~small]).max(initial=0.0))


def _phi_over_cdf_reference(z: np.ndarray) -> np.ndarray:
    """phi(z) / Phi(z) from scipy.special: phi(z) / ndtr(z) for z >= 0 and
    sqrt(2 / pi) / erfcx(-z / sqrt(2)) below, where both underflow."""
    out = np.empty_like(z)
    upper = z >= 0
    with np.errstate(under="ignore"):
        out[upper] = (np.exp(-0.5 * z[upper] ** 2) / math.sqrt(2.0 * math.pi)
                      / sp.ndtr(z[upper]))
    out[~upper] = math.sqrt(2.0 / math.pi) / sp.erfcx(-z[~upper] / math.sqrt(2.0))
    return out


def check_special_functions(seed: int = 7, n_cases: int = 200) -> CheckResult:
    """Every form in `streamdtf.special` against `scipy.special` within a
    relative error of 1e-13, on fixed grids that reach the tails plus
    `n_cases` random arguments each: z in [-40, 40] for Phi (scalar and
    array) and both outputs of `log_ndtr_and_ratio`, log Phi and phi/Phi;
    x in [-800, 800] for expit and log_expit, past the +-745 where exp over-
    or underflows; p from 1e-300 to 1 - 2^-53 for logit and ndtri; x from 0
    to 1e300 for erfcx. The tolerance leaves room for the lower tail of Phi,
    whose relative error grows as 2 t^2 * 2^-53 in any form that rounds
    t = -z / sqrt(2): scipy's and these alike are about 1.9e-13 from the
    exact value at z = -37, and 6e-14 from each other."""
    rng = make_rng(seed)
    z = np.concatenate([np.linspace(-40.0, 40.0, 8001), rng.normal(0.0, 10.0, n_cases)])
    x = np.concatenate([np.linspace(-800.0, 800.0, 3201), rng.normal(0.0, 50.0, n_cases)])
    p = np.concatenate([np.geomspace(1e-300, 0.5, 2000),
                        1.0 - np.geomspace(2.0 ** -53, 0.5, 2000),
                        rng.uniform(0.0, 1.0, n_cases)])
    xc = np.concatenate([np.linspace(0.0, 30.0, 3001), np.geomspace(30.0, 1e300, 100),
                         rng.exponential(5.0, n_cases)])
    zs, xcs = z.tolist(), xc.tolist()
    log_cdf, ratio = zip(*[special.log_ndtr_and_ratio(v) for v in zs])
    errors = {
        "ndtr": _relative_error([special.ndtr(v) for v in zs], sp.ndtr(z)),
        "ndtr_array": _relative_error(special.ndtr_array(z), sp.ndtr(z)),
        "log_ndtr": _relative_error(log_cdf, sp.log_ndtr(z)),
        "phi_over_cdf": _relative_error(ratio, _phi_over_cdf_reference(z)),
        "erfcx": _relative_error([special.erfcx(v) for v in xcs], sp.erfcx(xc)),
        "expit": _relative_error(special.expit(x), sp.expit(x)),
        "log_expit": _relative_error(special.log_expit(x), sp.log_expit(x)),
        "logit": _relative_error(special.logit(p), sp.logit(p)),
        "ndtri": _relative_error(special.ndtri(p), sp.ndtri(p)),
    }
    worst = max(errors.values())
    return CheckResult("special-functions-vs-scipy", worst <= 1e-13,
                       "max relative error " + ", ".join(f"{name} {err:.1e}"
                                                         for name, err in errors.items())
                       + " (tol 1e-13)")


ALL_CHECKS = (
    check_gradient_fd,
    check_output_moments_mc,
    check_evidence_binary,
    check_evidence_continuous,
    check_adf_conjugate,
    check_ep_tilted,
    check_tau_recursion,
    check_special_functions,
)


def run_checks(seed: int = 0) -> list[CheckResult]:
    results = []
    for i, check in enumerate(ALL_CHECKS):
        results.append(check(seed=seed + i))
    return results
