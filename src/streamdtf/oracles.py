"""Independent brute-force oracles used by the test suite and `verify`.

Each oracle recomputes a quantity the engine obtains in closed form, using a
different route: a scalar-loop reference forward pass for the network
output, adaptive quadrature for one-dimensional tilted moments, Monte-Carlo
sampling for output moments, central finite differences for gradients, and
the exact single-observation Bayesian linear-regression update. None of
them call into the engine's own code paths; the arithmetic here is written
independently on purpose. `pack` and `unpack` move between per-layer
matrices plus an input vector and one flat vector in the engine's coordinate
order, so finite differences and dense sums can run over every coordinate.

All functions are pure and thread-safe.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import OracleError


def naive_forward(widths, activation, weights, x) -> float:
    """Network output at the given weights, written as straight-line scalar
    loops over the layer recursion (bias feature 1 appended, fan-in
    rescaling, linear output layer)."""
    act = {"relu": lambda v: max(v, 0.0), "tanh": math.tanh,
           "identity": lambda v: v}[activation]
    h = [float(v) for v in x]
    m_total = len(widths) - 1
    for m in range(1, m_total + 1):
        prev = h + [1.0]
        scale = math.sqrt(len(prev))
        z = []
        for j in range(widths[m]):
            acc = 0.0
            for t, hv in enumerate(prev):
                acc += float(weights[m - 1][j][t]) * hv
            z.append(acc / scale)
        h = [act(v) for v in z] if m < m_total else z
    return h[0]


def quad_tilted_moments(cavity_mean: float, cavity_var: float,
                        factor: Callable[[float], float] | None = None,
                        atom_weight: float = 0.0,
                        tol: float = 1e-10) -> tuple[float, float, float]:
    """Moments of q(w) proportional to N(w|m,v) * [factor(w) + atom_weight*delta(w)].

    `factor` is the continuous part of the tilting factor and must be bounded
    (probit links, Gaussian likelihoods, slab densities all qualify); the
    point mass at zero is handled analytically. Returns (Z, E[w], E[w^2])
    where the moments are normalized by Z. Raises OracleError if quadrature
    cannot reach the absolute tolerance.
    """
    if cavity_var <= 0:
        raise ValueError(f"cavity variance must be > 0, got {cavity_var}")
    if factor is None and atom_weight == 0.0:
        raise ValueError("need a continuous factor and/or an atom weight")
    sd = math.sqrt(cavity_var)
    lo, hi = cavity_mean - 30.0 * sd, cavity_mean + 30.0 * sd
    norm = 1.0 / math.sqrt(2.0 * math.pi * cavity_var)

    def cavity_pdf(w):
        return norm * math.exp(-0.5 * (w - cavity_mean) ** 2 / cavity_var)

    moments = [0.0, 0.0, 0.0]
    if factor is not None:
        for k in range(3):
            val, err = quad(lambda w: (w ** k) * cavity_pdf(w) * factor(w),
                            lo, hi, epsabs=1e-13, epsrel=1e-12, limit=300)
            if err > tol:
                raise OracleError(f"quadrature error {err:.2e} above tolerance {tol:.2e}")
            moments[k] = val
    z_atom = atom_weight * cavity_pdf(0.0)
    z = moments[0] + z_atom
    if z <= 0:
        raise OracleError("tilted normalizer is not positive")
    return z, moments[1] / z, moments[2] / z


@dataclass(frozen=True)
class McMoments:
    mean: float
    var: float
    se_mean: float
    se_var: float
    n_samples: int


def _mc_activation(name: str):
    if name == "relu":
        return lambda z: np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh
    if name == "identity":
        return lambda z: z
    raise ValueError(f"unknown activation {name!r}")


def mc_output_moments(spec, weight_means: Sequence[np.ndarray],
                      weight_vars: Sequence[np.ndarray], input_mean: np.ndarray,
                      input_vars: np.ndarray, n_samples: int, seed: int,
                      chunk_size: int = 200_000) -> McMoments:
    """Monte-Carlo output moments under independent Gaussian parameters.

    Carries its own forward pass (independent of the engine's), which draws
    each pre-activation exactly given the layer input: N(hb . mean(w_j),
    hb^2 . var(w_j)). Reports the Monte-Carlo standard errors of both
    estimates so callers can use statistically sound tolerances: se_var
    uses the fourth central moment.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    act = _mc_activation(spec.activation)
    w_means = [np.asarray(w, dtype=float) for w in weight_means]
    w_vars = [np.asarray(v, dtype=float) for v in weight_vars]
    x_mean = np.asarray(input_mean, dtype=float)
    x_sd = np.sqrt(np.asarray(input_vars, dtype=float))
    m_total = len(w_means)

    # moments accumulated around a pivot (the first sampled output) to avoid
    # catastrophic cancellation when the spread is tiny
    pivot = None
    s1 = s2 = s3 = s4 = 0.0
    done = 0
    while done < n_samples:
        c = min(chunk_size, n_samples - done)
        h = x_mean + x_sd * rng.standard_normal((c, x_mean.shape[0]))
        for m, (wm, wv) in enumerate(zip(w_means, w_vars), start=1):
            hb = np.concatenate([h, np.ones((c, 1))], axis=1)
            hb /= math.sqrt(hb.shape[1])
            z_sd = np.sqrt((hb * hb) @ wv.T)
            z = hb @ wm.T + z_sd * rng.standard_normal((c, wm.shape[0]))
            h = act(z) if m < m_total else z
        f = h[:, 0]
        if pivot is None:
            pivot = float(f[0])
        d = f - pivot
        s1 += float(d.sum())
        s2 += float((d ** 2).sum())
        s3 += float((d ** 3).sum())
        s4 += float((d ** 4).sum())
        done += c

    n = float(n_samples)
    d1 = s1 / n
    mean = pivot + d1
    m2 = max(s2 / n - d1 ** 2, 0.0)
    m4 = max(s4 / n - 4 * d1 * s3 / n + 6 * d1 ** 2 * s2 / n - 3 * d1 ** 4, 0.0)
    var = m2 * n / max(n - 1.0, 1.0)
    se_mean = math.sqrt(m2 / n)
    se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / n)
    return McMoments(mean=mean, var=var, se_mean=se_mean, se_var=se_var,
                     n_samples=n_samples)


def pack(mats: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """One flat vector: each layer matrix raveled row-major, layers in order,
    then the input vector (`NetworkSpec.weight_slices` order, inputs last).
    Works for any per-coordinate quantity: means, variances, gradients."""
    return np.concatenate([np.asarray(a, dtype=float).ravel() for a in (*mats, x)])


def unpack(vec: np.ndarray, spec) -> tuple[list[np.ndarray], np.ndarray]:
    """The inverse of `pack`: (the layer matrices, the input vector)."""
    vec = np.asarray(vec, dtype=float)
    sizes = [r * c for r, c in spec.weight_shapes]
    if vec.shape != (sum(sizes) + spec.input_dim,):
        raise ValueError(f"vector of shape {vec.shape} does not fit {spec.widths}")
    *flat_mats, x = np.split(vec, np.cumsum(sizes))
    return [a.reshape(s) for a, s in zip(flat_mats, spec.weight_shapes)], x


def fd_gradient(fn: Callable[[np.ndarray], float], point: np.ndarray,
                step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    point = np.asarray(point, dtype=float)
    grad = np.empty_like(point)
    for j in range(point.shape[0]):
        hi = point.copy()
        lo = point.copy()
        hi[j] += step
        lo[j] -= step
        grad[j] = (fn(hi) - fn(lo)) / (2.0 * step)
    return grad


def conjugate_linear_update(prior_mean: float, prior_var: float, x: float,
                            y: float, noise_var: float) -> tuple[float, float]:
    """Exact posterior of w ~ N(prior_mean, prior_var) after observing
    y = x*w + noise with noise variance noise_var."""
    if prior_var <= 0 or noise_var <= 0:
        raise ValueError("prior_var and noise_var must be > 0")
    post_prec = 1.0 / prior_var + x * x / noise_var
    post_var = 1.0 / post_prec
    post_mean = post_var * (prior_mean / prior_var + x * y / noise_var)
    return post_mean, post_var
