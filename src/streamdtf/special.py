"""The special functions of the run path, in numpy and the `math` module.

The streaming loop needs a handful of closed-form special functions: the
probit evidence needs Phi, log Phi and phi/Phi (through erfcx), binary
prediction an array Phi, the EP sweep the logistic function, its log and
logit, and the initialisation the normal quantile. With these forms every
command but `verify` runs on numpy and the standard library alone;
`verify.check_special_functions` compares each with `scipy.special` out
into the tails.

The scalar forms (`ndtr`, `log_ndtr_and_ratio`, `erfcx`) take and return
floats and cost a few `math` calls each, because the evidence calls them
for every entry. The array forms (`expit`, `log_expit`, `logit`, `ndtri`,
`ndtr_array`) take float arrays and make no Python call per element.
`expit`, `log_expit`, `logit` and the log Phi of `log_ndtr_and_ratio`
follow the formulas of `scipy.special`, so they differ from it only in
how their exp, log and erfcx round.
"""

import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def expit(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), elementwise; 0 below x = -709.78, where exp(-x)
    overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def log_expit(x: np.ndarray) -> np.ndarray:
    """log(expit(x)), elementwise: x - log1p(exp(x)) for x < 0 and
    -log1p(exp(-x)) otherwise, so exp never overflows."""
    log1p_e = np.log1p(np.exp(-np.abs(x)))
    return np.where(x < 0, x - log1p_e, -log1p_e)


def logit(p: np.ndarray) -> np.ndarray:
    """log(p / (1 - p)), elementwise for p in (0, 1). Inside [0.3, 0.65],
    where that quotient loses digits, log1p(s) - log1p(-s) with s = 2p - 1."""
    out = np.log(p / (1.0 - p))
    mid = (p >= 0.3) & (p <= 0.65)
    s = 2.0 * (p[mid] - 0.5)
    out[mid] = np.log1p(s) - np.log1p(-s)
    return out


def _horner(coefs, x: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients `coefs`, highest degree first, at
    each element of x, in one buffer."""
    acc = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        acc *= x
        acc += c
    return acc


# Wichura (1988), "Algorithm AS 241: The percentage points of the normal
# distribution", Applied Statistics 37(3): 477-484. (numerator, denominator)
# of each rational approximation, highest degree first: in r = 0.180625 - q^2
# for |q| = |p - 0.5| <= 0.425, then in r - 1.6 and r - 5 for
# r = sqrt(-log(min(p, 1 - p))) up to 5 and beyond
_AS241_CENTRAL = (
    (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853,
     45921.953931549871457, 13731.693765509461125, 1971.5909503065514427,
     133.14166789178437745, 3.387132872796366608),
    (5226.495278852545610, 28729.085735721942674, 39307.895800092710610,
     21213.794301586595867, 5394.1960214247511077, 687.18700749205790830,
     42.313330701600911252, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 0.0227238449892691845833, 0.24178072517745061177,
     1.27045825245236838258, 3.64784832476320460504, 5.7694972214606914055,
     4.6303378461565452959, 1.42343711074968357734),
    (1.05075007164441684324e-9, 5.475938084995344946e-4, 0.0151986665636164571966,
     0.14810397642748007459, 0.68976733498510000455, 1.6763848301838038494,
     2.05319162663775882187, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 0.0012426609473880784386,
     0.026532189526576123093, 0.29656057182850489123, 1.7848265399172913358,
     5.4637849111641143699, 6.6579046435011037772),
    (2.04426310338993978564e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.868691311456132591e-4, 0.0148753612908506148525, 0.13692988092273580531,
     0.59983220655588793769, 1.0),
)


def _rational(num_den, x):
    num, den = num_den
    return _horner(num, x) / _horner(den, x)


def ndtri(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile Phi^-1(p), elementwise for p in (0, 1):
    Wichura's AS 241, relative error about 1e-16."""
    q = p - 0.5
    out = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    num, den = _AS241_CENTRAL
    out[central] = qc * _horner(num, r) / _horner(den, r)
    tail = ~central
    qt = q[tail]
    r = np.sqrt(-np.log(np.where(qt < 0, p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    x = np.where(near, _rational(_AS241_NEAR, r - 1.6), _rational(_AS241_FAR, r - 5.0))
    out[tail] = np.where(qt < 0, -x, x)
    return out


def erfcx(x: float) -> float:
    """exp(x^2) * erfc(x) for x >= 0, to a relative error of about 5e-16."""
    if x < 1.0:  # x^2 rounds by less than 2^-53 in the exponent
        return math.exp(x * x) * math.erfc(x)
    if x < 4.0:
        # exp(x^2) = exp(m^2) * exp((x - m)(x + m)) with m = x to the nearest
        # 1/64: m^2 is exact, so the exponent is not rounded at x^2's size
        m = round(x * 64.0) / 64.0
        return math.exp(m * m) * math.exp((x - m) * (x + m)) * math.erfc(x)
    # Laplace's continued fraction sqrt(pi) * erfcx(x) =
    # 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))), from its 20th term back:
    # from x = 4 on, further terms change it by less than 4.4e-16
    f = x
    for k in range(20, 0, -1):
        f = x + 0.5 * k / f
    return 1.0 / (_SQRT_PI * f)


def ndtr(z: float) -> float:
    """Phi(z) = erfc(-z / sqrt(2)) / 2."""
    return 0.5 * math.erfc(-z * _SQRT1_2)


def log_ndtr_and_ratio(z: float) -> tuple[float, float]:
    """(log Phi(z), phi(z) / Phi(z)) to full relative precision on the whole
    line, with t = z / sqrt(2). Below z = -1 both come from one erfcx(-t):
    log(erfcx(-t) / 2) - t^2, which holds where Phi underflows (z < -38.5),
    and sqrt(2 / pi) / erfcx(-t). Above, log Phi is log1p(-erfc(t) / 2), and
    phi/Phi is sqrt(2 / pi) / erfcx(-t) up to z = 0, phi(z) / Phi(z) on."""
    t = z * _SQRT1_2
    if z < -1.0:
        e = erfcx(-z / _SQRT2)
        return math.log(0.5 * e) - t * t, _SQRT_2_OVER_PI / e
    log_cdf = math.log1p(-0.5 * math.erfc(t))
    if z >= 0:
        return log_cdf, math.exp(-0.5 * z * z) / _SQRT_2PI / ndtr(z)
    return log_cdf, _SQRT_2_OVER_PI / erfcx(-z / _SQRT2)


# The array erfcx on [0, inf]: (1 + 2x) * erfcx(x) is smooth in
# y = (x - 4) / (x + 4) on [-1, 1] and goes to 2 / sqrt(pi) as y -> 1, so
# its Chebyshev interpolant at 24 points reaches double precision. The
# interpolant is built once, here, from the scalar `erfcx`, and kept in
# powers of y for Horner's rule: those coefficients stay below 1.3 in size
# (1.8 summed), so the change of basis costs no digits on [-1, 1].
_ERFCX_K = 4.0
_ERFCX_N = 24


def _erfcx_power_coefficients() -> tuple[float, ...]:
    """The interpolant's coefficients in powers of y, highest first."""
    k = np.arange(_ERFCX_N)
    theta = np.pi * (k + 0.5) / _ERFCX_N
    y = np.cos(theta)
    x = _ERFCX_K * (1.0 + y) / (1.0 - y)
    g = np.array([(1.0 + 2.0 * xi) * erfcx(xi) for xi in x.tolist()])
    # Chebyshev coefficients: T_j(y_k) = cos(j * theta_k), with j * theta_k
    # reduced exactly in integers
    angle = np.outer(k, 2 * k + 1) % (4 * _ERFCX_N)
    cheb = (2.0 / _ERFCX_N) * (np.cos(np.pi * angle / (2 * _ERFCX_N)) @ g)
    cheb[0] *= 0.5
    # sum_j cheb_j T_j(y) in powers of y, by T_j+1 = 2y T_j - T_j-1
    t_prev, t = np.eye(_ERFCX_N)[:2]
    power = cheb[0] * t_prev + cheb[1] * t
    for c in cheb[2:]:
        t_prev, t = t, 2.0 * np.roll(t, 1) - t_prev
        power += c * t
    return tuple(power[::-1].tolist())


_ERFCX_POWER = _erfcx_power_coefficients()


def ndtr_array(z: np.ndarray) -> np.ndarray:
    """Phi(z) elementwise: Phi(-|z|) = exp(-t^2) * erfcx(t) / 2 with
    t = |z| / sqrt(2), which keeps its relative precision into the lower
    tail, and 1 - Phi(-|z|) for z >= 0. NaN stays NaN."""
    # beyond t = 40 Phi(-|z|) underflows to 0; the cap keeps t = inf finite
    t = np.minimum(np.abs(z) * _SQRT1_2, 40.0)
    m = np.round(t * 64.0)
    m /= 64.0
    # exp(-t^2) = exp(-m^2) * exp((m - t)(t + m)), as in `erfcx`
    half = np.exp(-(m * m))
    half *= np.exp((m - t) * (t + m))
    # erfcx(t), from the interpolant at y = 1 - 2K / (t + K)
    half *= _horner(_ERFCX_POWER, 1.0 - (2.0 * _ERFCX_K) / (t + _ERFCX_K))
    half /= 1.0 + 2.0 * t
    half *= 0.5
    return np.where(z < 0, half, 1.0 - half)
