"""Invariant measure and the scalar constants of the expansion.

The map preserves the probability measure with distribution function

    G(x) = log(1 + theta*x) / log(1 + theta^2),   x in [0, theta],

whose density against plain Lebesgue is theta/((1+theta*x) log(1+theta^2)).
From it follow the digit law, the almost-sure growth rate beta of the
convergent denominators (whence the entropy 2*beta), the geometric-mean
limit of the digits, and the two contraction constants of the transfer
operator: k_m = 1/(m+1) for the variation of monotone functions and the
series constant q for Lipschitz seminorms.

beta is an integral with a logarithmic endpoint singularity; the default
scheme splits the interval, handles the singular half analytically and
the smooth half by a fixed Gauss-Legendre rule, while two further schemes
(Gauss-Laguerre after x = theta*exp(-s), which absorbs the logarithm into
the weight, and a fully termwise series) provide independent
cross-checks.  Every scheme reports an error bound that includes the
float rounding of its sums.  The geometric mean sums the digit law
directly and integrates the tail beyond the cutoff as a convergent
series in 1/x.  Only numpy is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .expansion import DigitError, DomainError, ThetaParams, new_params

__all__ = [
    "QuadratureError",
    "ConstantsReport",
    "gamma_cdf",
    "gk_limit_cdf",
    "invariant_density_lambda",
    "digit_law",
    "levy_beta",
    "entropy",
    "khintchin_product",
    "contraction_km",
    "contraction_q",
    "constants_report",
]


class QuadratureError(ArithmeticError):
    """A quadrature or series failed to meet its tolerance budget."""


def _check_domain(x, params: ThetaParams):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > params.theta + 1e-12):
        raise DomainError(f"point(s) outside [0, {params.theta}]")
    return np.clip(arr, 0.0, params.theta)


def gamma_cdf(x, params: ThetaParams):
    """Distribution function log(1+theta*x)/log(1+theta^2) on [0, theta]."""
    arr = _check_domain(x, params)
    out = np.log1p(params.theta * arr) / params.log_normalizer
    return float(out) if np.isscalar(x) else out


def gk_limit_cdf(x, params: ThetaParams):
    """Limit distribution log((m*theta + x)*theta)/log(1+theta^2).

    Identical to gamma_cdf because m*theta^2 = 1; kept as a separate
    float path so tests can confirm the algebraic identity numerically.
    """
    arr = _check_domain(x, params)
    out = np.log((params.m * params.theta + arr) * params.theta) / params.log_normalizer
    return float(out) if np.isscalar(x) else out


def invariant_density_lambda(x, params: ThetaParams):
    """Invariant density against *normalized* Lebesgue measure on [0, theta].

    Equals theta^2 / ((1+theta*x) log(1+theta^2)); integrates to 1 under
    dx/theta.
    """
    arr = _check_domain(x, params)
    out = (1.0 / params.m) / ((1.0 + params.theta * arr) * params.log_normalizer)
    return float(out) if np.isscalar(x) else out


def digit_law(k, params: ThetaParams):
    """Stationary probability of digit k: log(1 + 1/(k(k+2)))/log(1+theta^2).

    The masses telescope to 1 over k >= m.
    """
    arr = np.asarray(k)
    if np.any(arr < params.m):
        raise DigitError(f"digit below m={params.m}")
    karr = arr.astype(float)
    out = np.log1p(1.0 / (karr * (karr + 2.0))) / params.log_normalizer
    return float(out) if np.isscalar(k) else out


# ---------------------------------------------------------------------------
# Levy constant beta and entropy
# ---------------------------------------------------------------------------


# Each scheme bounds the error of the integral, which is then divided by
# L = log(1+theta^2) ~ 1/m; an integral budget of tol*L/2 makes beta meet
# tol/2 and the entropy 2*beta meet tol.  Achieved errors are on beta's
# scale and count the float rounding of the sums and of the division by L.

_EPS = float(np.finfo(np.float64).eps)
_LEGENDRE_NODES = 24
_LEGENDRE_RHO = 4.0  # Bernstein ellipse of [theta/2, theta] kept clear of x = 0
_LAGUERRE_NODES = (40, 60)


@lru_cache(maxsize=None)
def _gauss_rule(rule, n: int):
    """Nodes and weights of a numpy Gauss rule, built once per process."""
    return rule(n)


def _beta_from_integral(integral: float, err: float, params: ThetaParams, tol: float) -> tuple[float, float]:
    """beta = -integral/L with its achieved error; raises past tol/2."""
    beta = -integral / params.log_normalizer
    achieved = err / params.log_normalizer + 2.0 * _EPS * abs(beta)
    if achieved > tol / 2.0:
        raise QuadratureError(f"beta quadrature achieved {achieved:.2e} > budget {tol / 2.0:.2e}")
    return beta, achieved


def _beta_split(params: ThetaParams, tol: float) -> tuple[float, float]:
    """Split scheme: analytic series on (0, theta/2], Gauss-Legendre on the rest.

    On the singular half expand 1/(1+theta*x) geometrically and use
    int_0^c x^k log x dx = c^(k+1) (log c/(k+1) - 1/(k+1)^2) termwise;
    the term ratio is theta^2/2 = 1/(2m), so the series is geometric.
    On [theta/2, theta] the integrand is analytic inside the Bernstein
    ellipse rho = 4 of the interval (x = 0 maps to -3), so the 24-node
    rule has the a-priori bound (64/15) M rho^-48 / (rho^2 - 1) times the
    half-width (Trefethen, Approximation Theory and Approximation
    Practice, Thm 19.3), near 1e-29.
    """
    th = params.theta
    budget = tol * params.log_normalizer / 2.0
    c = th / 2.0
    left = 0.0
    size = 0.0
    k = 0
    logc = math.log(c)
    while True:
        g = c ** (k + 1) * (logc / (k + 1) - 1.0 / (k + 1) ** 2)
        term = th * (-th) ** k * g
        left += term
        size += abs(term)
        bound = abs(term) * (th * c) / (1.0 - th * c)
        if bound < budget / 4.0 and k >= 4:
            break
        k += 1
        if k > 10_000:
            raise QuadratureError("series for the singular half did not converge")
    y, w = _gauss_rule(np.polynomial.legendre.leggauss, _LEGENDRE_NODES)
    half = (th - c) / 2.0
    x = (th + c) / 2.0 + half * y
    fw = w * (th * np.log(x) / (1.0 + th * x))
    right = half * float(np.sum(fw))
    # On the ellipse |x| >= half*(3 - (rho + 1/rho)/2), |x| < 1, Re x > 0
    # and Re(1 + theta*x) >= 1, so |f| <= theta*(|log |x|_min| + pi/2).
    rho = _LEGENDRE_RHO
    M = th * (abs(math.log(half * (3.0 - (rho + 1.0 / rho) / 2.0))) + math.pi / 2.0)
    rule_err = half * 64.0 / 15.0 * M * rho ** (-2 * _LEGENDRE_NODES) / (rho * rho - 1.0)
    rounding = _EPS * ((k + 6) * size + (_LEGENDRE_NODES + 8) * half * float(np.sum(np.abs(fw))))
    return _beta_from_integral(left + right, bound + rule_err + rounding, params, tol)


def _beta_series(params: ThetaParams, tol: float) -> tuple[float, float]:
    """Fully termwise scheme over the whole interval (ratio 1/m, alternating)."""
    m = params.m
    budget = tol * params.log_normalizer / 2.0
    logth = -0.5 * math.log(m)
    s = 0.0
    size = 0.0
    k = 0
    while True:
        term = (-1.0) ** k * m ** (-(k + 1)) * (logth / (k + 1) - 1.0 / (k + 1) ** 2)
        s += term
        size += abs(term)
        nxt = m ** (-(k + 2)) * (abs(logth) / (k + 2) + 1.0 / (k + 2) ** 2)
        if nxt < budget / 2.0 and k >= 3:  # the other half is for rounding
            break
        k += 1
        if k > 10_000:
            raise QuadratureError("termwise beta series did not converge")
    return _beta_from_integral(s, nxt + _EPS * (k + 6) * size, params, tol)


def _beta_logweight(params: ThetaParams, tol: float) -> tuple[float, float]:
    """Gauss-Laguerre rule after x = theta*exp(-s), which puts log x into the weight.

    The integral becomes theta^2 int_0^inf e^-s (log theta - s) / (1 + e^-s/m) ds.
    With 1/(1 + e^-s/m) = 1 - e^-s/(m + e^-s) the first part is exactly
    theta^2 (log theta - 1); the rules integrate the remainder, which is
    of order 1/m.  |I_60 - I_40| estimates the error of the 40-node rule
    and so bounds that of the 60-node one.
    """
    m = params.m
    lt = math.log(params.theta)
    sums = []
    for n in _LAGUERRE_NODES:
        s, w = _gauss_rule(np.polynomial.laguerre.laggauss, n)
        e = np.exp(-s)
        sums.append(float(np.sum(w * ((s - lt) * e / (m + e)))))  # positive terms: s >= 0 > log theta
    integral = ((lt - 1.0) + sums[-1]) / m
    rounding = _EPS * (2.0 * abs(lt - 1.0) + (_LAGUERRE_NODES[-1] + 8) * sums[-1])
    return _beta_from_integral(integral, (abs(sums[-1] - sums[0]) + rounding) / m, params, tol)


_BETA_METHODS = {"split": _beta_split, "series": _beta_series, "logweight": _beta_logweight}


def levy_beta(params: ThetaParams, tolerance: float = 1e-12, method: str = "split") -> float:
    """Growth rate beta = lim (1/n) log q_n, by quadrature of its integral form.

    beta = -1/log(1+theta^2) * int_0^theta theta*log(x)/(1+theta*x) dx.
    ``method`` selects one of three independent schemes ("split",
    "series", "logweight"); they agree to ~1e-14 and the tests hold them
    to each other.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    try:
        fn = _BETA_METHODS[method]
    except KeyError:
        raise ValueError(f"unknown beta method {method!r}") from None
    value, _ = fn(params, tolerance)
    return value


def entropy(params: ThetaParams, tolerance: float = 1e-12) -> float:
    """Entropy of the expansion map: 2*beta.

    Numerically this is also the integral of -log(x^2) against the
    invariant measure (the derivative of the map is -1/x^2), which the
    tests verify by independent quadrature.
    """
    return 2.0 * levy_beta(params, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Khintchin-type geometric mean
# ---------------------------------------------------------------------------


def _log_tail_integral(a: float) -> tuple[float, float]:
    """int_a^inf log(x) log1p(1/(x(x+2))) dx for a > 3, with a truncation bound.

    log1p(1/(x(x+2))) = 2 log1p(1/x) - log1p(2/x) = sum_{n>=2} (-1)^n (2^n-2)/n x^-n
    and int_a^inf log(x) x^-n dx = a^(1-n) (log a/(n-1) + 1/(n-1)^2), so the
    integral is an alternating series whose terms fall by about 2/a; its
    remainder is below the first term left out.
    """
    la = math.log(a)
    total = 0.0
    n = 2
    while True:
        term = (2.0**n - 2.0) / n * a ** (1 - n) * (la / (n - 1) + 1.0 / (n - 1) ** 2)
        if term <= 1e-3 * _EPS * total:
            return total, term
        total += term if n % 2 == 0 else -term
        n += 1


def _khintchin_detailed(params: ThetaParams, tol: float) -> tuple[float, float]:
    m = params.m
    L = params.log_normalizer

    def t(x: float) -> float:
        return math.log(x) * math.log1p(1.0 / (x * (x + 2.0)))

    def t_prime(x: float) -> float:
        w = 1.0 / (x * (x + 2.0))
        wp = -(2.0 * x + 2.0) / (x * (x + 2.0)) ** 2
        return math.log1p(w) / x + math.log(x) * wp / (1.0 + w)

    K = max(20_000, m)
    while True:
        k = np.arange(m, K + 1, dtype=np.float64)
        # one rounding for the whole sum; each term is within 2 eps of its
        # exact value (checked against mpmath for k up to 5e6)
        direct = math.fsum((np.log(k) * np.log1p(1.0 / (k * (k + 2.0)))).tolist())
        a = float(K + 1)
        integral, series_rem = _log_tail_integral(a)
        # Euler-Maclaurin through the first derivative term; the next
        # correction is of order t'''(a) ~ log(a)/a^5, well below rem.
        tail = integral + t(a) / 2.0 - t_prime(a) / 12.0
        rem = 6.0 * math.log(a) / a ** 4
        s = (direct + tail) / L
        value = math.exp(s)
        # The tolerance is on the value itself.  Rounding: 3 eps on the sum
        # (terms, fsum, tail), then about eps*(2s + 1) relative from the
        # rounding of L, the division and exp.
        rounding = value * (3.0 * _EPS * (direct + tail) / L + _EPS * (2.0 * s + 1.0))
        achieved = value * (series_rem + rem) / L + rounding
        if achieved <= tol:
            return value, achieved
        if rounding > tol:
            raise QuadratureError(f"geometric-mean rounding {rounding:.2e} alone exceeds tolerance {tol:.2e}")
        K *= 2
        if K > 4_000_000:
            raise QuadratureError("geometric-mean series did not meet tolerance")


def khintchin_product(params: ThetaParams, tolerance: float = 1e-10) -> float:
    """Almost-sure limit of (a_1 a_2 ... a_n)^{1/n}.

    Equals exp(s) with s = sum_{k>=m} log(k) log(1+1/(k(k+2))) divided by
    log(1+theta^2); the sum is taken termwise (the exact digit-law mass
    per k), with an Euler-Maclaurin tail whose integral is a series in
    1/x.  Always >= m.  Raises QuadratureError where float rounding alone
    exceeds ``tolerance`` (at 1e-10, from m = 3537 on).
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    value, _ = _khintchin_detailed(params, tolerance)
    return value


# ---------------------------------------------------------------------------
# contraction constants
# ---------------------------------------------------------------------------


def contraction_km(m: int) -> Fraction:
    """Variation-contraction factor 1/(m+1) for monotone functions, exact."""
    new_params(m)
    return Fraction(1, m + 1)


# B_2, B_4, ..., B_16 (DLMF 24.2.1 table); the operator tails use them too
_BERNOULLI = tuple(
    Fraction(n, d)
    for n, d in ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))
)
_Q_DIRECT_TERMS = 64  # sum i < max(m, 64) directly, the rest by Euler-Maclaurin


def _contraction_q_detailed(params: ThetaParams, tol: float) -> tuple[float, float]:
    """q = m * sum_{i>=m} (2m - i)/i^3 with its achieved error.

    Partial fractions and zeta(s, m+1) = zeta(s, m) - m^-s collapse the
    series of ``contraction_q`` to sum_{i>=m} (2m - i)/i^3, which is
    2m*zeta(3, m) - zeta(2, m).  Below N = max(m, 64) it is summed
    directly; from N on, h(t) = 2m t^-3 - t^-2 is summed by
    Euler-Maclaurin (DLMF 2.10.1): the integral (m - N)/N^2, h(N)/2, and
    B_2k N^-(2k+1) ((2k+1)m/N - 1) for k = 1..8, since the (2k-1)-th
    derivative of t^-s is -(s)_(2k-1) t^-(s+2k-1).  t^-2 and t^-3 are
    completely monotone, so the remainder of each is below its first
    omitted term, which at N >= 64 is below the last included one.
    Every piece is an int/int quotient, rounded once, and math.fsum
    rounds their sum once.
    """
    m = params.m
    N = max(m, _Q_DIRECT_TERMS)
    pieces = [(2 * m - i) / i**3 for i in range(m, N)]
    pieces += [(m - N) / N**2, m / N**3, -1 / (2 * N**2)]
    for k, b in enumerate(_BERNOULLI, 1):
        pieces.append(b.numerator * ((2 * k + 1) * m - N) / (b.denominator * N ** (2 * k + 2)))
    b = _BERNOULLI[-1]
    remainder = abs(b.numerator) * (17 * m + N) / (b.denominator * N**18)
    q = m * math.fsum(pieces)
    rounding = _EPS * (m * math.fsum(map(abs, pieces)) + q)
    achieved = m * remainder + rounding
    if achieved > tol:
        raise QuadratureError(f"contraction constant achieved {achieved:.2e} > tolerance {tol:.2e}")
    return q, achieved


def contraction_q(params: ThetaParams, tolerance: float = 1e-12) -> float:
    """Lipschitz-contraction constant of the transfer operator.

    q = m * sum_{i>=m} ( m/(i^3(i+1)) + (i+1-m)/(i(i+1)^3) ), which
    partial fractions collapse to m * sum_{i>=m} (2m - i)/i^3.  That sum
    is taken directly below i = max(m, 64) and by Euler-Maclaurin beyond,
    with an error bound (truncation plus rounding) that is largest at
    m = 2, 2.5e-16; QuadratureError is raised only if it exceeds
    ``tolerance``.
    The geometric-decay guarantee needs q < theta, which holds for every
    m checked; consult ConstantsReport.q_lt_theta rather than assuming.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    value, _ = _contraction_q_detailed(params, tolerance)
    return value


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsReport:
    """All scalar constants for one m, with the tolerances actually achieved."""

    m: int
    theta: float
    beta: float
    entropy: float
    khintchin_geo: float
    k_m: Fraction
    q: float
    q_lt_theta: bool
    tolerances: dict

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "theta": self.theta,
            "beta": self.beta,
            "entropy": self.entropy,
            "khintchin_geo": self.khintchin_geo,
            "k_m": str(self.k_m),
            "k_m_float": float(self.k_m),
            "q": self.q,
            "q_lt_theta": self.q_lt_theta,
            "tolerances": dict(self.tolerances),
        }


def constants_report(m: int, tolerance: float = 1e-10) -> ConstantsReport:
    """Compute every constant for m at the requested tolerance."""
    params = new_params(m)
    beta, beta_ach = _beta_split(params, tolerance)
    geo, geo_ach = _khintchin_detailed(params, tolerance)
    q, q_ach = _contraction_q_detailed(params, tolerance)
    return ConstantsReport(
        m=m,
        theta=params.theta,
        beta=beta,
        entropy=2.0 * beta,
        khintchin_geo=geo,
        k_m=contraction_km(m),
        q=q,
        q_lt_theta=q < params.theta,
        tolerances={
            "requested": tolerance,
            "beta": beta_ach,
            "entropy": 2.0 * beta_ach,
            "khintchin_geo": geo_ach,
            "q": q_ach,
        },
    )
