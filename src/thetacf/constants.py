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
scheme splits the interval and handles the singular half analytically,
while two further schemes (a log-weighted Gauss-Kronrod rule and a fully
termwise series) provide independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate

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
# tol/2 and the entropy 2*beta meet tol.  Achieved errors are on beta's scale.


def _beta_split(params: ThetaParams, tol: float) -> tuple[float, float]:
    """Split scheme: analytic series on (0, theta/2], adaptive rule on the rest.

    On the singular half expand 1/(1+theta*x) geometrically and use
    int_0^c x^k log x dx = c^(k+1) (log c/(k+1) - 1/(k+1)^2) termwise;
    the term ratio is theta^2/2 = 1/(2m), so the series is geometric.
    """
    th = params.theta
    budget = tol * params.log_normalizer / 2.0
    c = th / 2.0
    left = 0.0
    k = 0
    logc = math.log(c)
    while True:
        g = c ** (k + 1) * (logc / (k + 1) - 1.0 / (k + 1) ** 2)
        term = th * (-th) ** k * g
        left += term
        bound = abs(term) * (th * c) / (1.0 - th * c)
        if bound < budget / 4.0 and k >= 4:
            break
        k += 1
        if k > 10_000:
            raise QuadratureError("series for the singular half did not converge")
    right, err = integrate.quad(
        lambda x: th * math.log(x) / (1.0 + th * x), c, th, epsabs=budget / 4.0, epsrel=1e-13
    )
    achieved = bound + err
    if achieved > budget:
        raise QuadratureError(f"beta quadrature achieved {achieved:.2e} > budget {budget:.2e}")
    return -(left + right) / params.log_normalizer, achieved / params.log_normalizer


def _beta_series(params: ThetaParams, tol: float) -> tuple[float, float]:
    """Fully termwise scheme over the whole interval (ratio 1/m, alternating)."""
    m = params.m
    budget = tol * params.log_normalizer / 2.0
    logth = -0.5 * math.log(m)
    s = 0.0
    k = 0
    while True:
        term = (-1.0) ** k * m ** (-(k + 1)) * (logth / (k + 1) - 1.0 / (k + 1) ** 2)
        s += term
        nxt = m ** (-(k + 2)) * (abs(logth) / (k + 2) + 1.0 / (k + 2) ** 2)
        if nxt < budget and k >= 3:
            break
        k += 1
        if k > 10_000:
            raise QuadratureError("termwise beta series did not converge")
    return -s / params.log_normalizer, nxt / params.log_normalizer


def _beta_logweight(params: ThetaParams, tol: float) -> tuple[float, float]:
    """QUADPACK rule with explicit log(x) endpoint weight."""
    th = params.theta
    budget = tol * params.log_normalizer / 2.0
    val, err = integrate.quad(
        lambda x: th / (1.0 + th * x), 0.0, th, weight="alg-loga", wvar=(0.0, 0.0)
    )
    if err > budget:
        raise QuadratureError(f"log-weight rule achieved {err:.2e} > budget {budget:.2e}")
    return -val / params.log_normalizer, err / params.log_normalizer


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


def _khintchin_detailed(params: ThetaParams, tol: float) -> tuple[float, float]:
    m = params.m
    L = params.log_normalizer

    def t(x: float) -> float:
        return math.log(x) * math.log1p(1.0 / (x * (x + 2.0)))

    def t_prime(x: float) -> float:
        w = 1.0 / (x * (x + 2.0))
        wp = -(2.0 * x + 2.0) / (x * (x + 2.0)) ** 2
        return math.log1p(w) / x + math.log(x) * wp / (1.0 + w)

    K = 20_000
    epsabs = tol * L / 8.0
    while True:
        k = np.arange(m, K + 1, dtype=np.float64)
        direct = float(np.sum(np.log(k) * np.log1p(1.0 / (k * (k + 2.0)))))
        a = float(K + 1)
        integral, quad_err = integrate.quad(t, a, np.inf, epsabs=epsabs, limit=200)
        # Euler-Maclaurin through the first derivative term; the next
        # correction is of order t'''(a) ~ log(a)/a^4, far below tol here.
        tail = integral + t(a) / 2.0 - t_prime(a) / 12.0
        rem = 6.0 * math.log(a) / a ** 4
        value = math.exp((direct + tail) / L)
        achieved = (quad_err + rem) / L * value  # tolerance is on the value itself
        if achieved <= tol:
            return value, achieved
        epsabs = tol * L / (8.0 * value)
        K *= 2
        if K > 4_000_000:
            raise QuadratureError("geometric-mean series did not meet tolerance")


def khintchin_product(params: ThetaParams, tolerance: float = 1e-10) -> float:
    """Almost-sure limit of (a_1 a_2 ... a_n)^{1/n}.

    Equals exp(s) with s = sum_{k>=m} log(k) log(1+1/(k(k+2))) divided by
    log(1+theta^2); the sum is taken termwise (the exact digit-law mass
    per k), with an Euler-Maclaurin tail.  Always >= m.
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


def _contraction_q_detailed(params: ThetaParams, tol: float) -> tuple[float, float]:
    m = params.m
    total = 0.0
    start = m
    block = 65_536
    while True:
        i = np.arange(start, start + block, dtype=np.float64)
        total += float(np.sum(m * (m / (i**3 * (i + 1.0)) + (i + 1.0 - m) / (i * (i + 1.0) ** 3))))
        K = float(start + block - 1)
        bound = m * (m / (3.0 * K**3) + 1.0 / (2.0 * K**2))
        if bound < tol:
            return total, bound
        start += block
        if start > 400_000_000:
            raise QuadratureError("contraction constant series did not meet tolerance")


def contraction_q(params: ThetaParams, tolerance: float = 1e-12) -> float:
    """Lipschitz-contraction constant of the transfer operator.

    q = m * sum_{i>=m} ( m/(i^3(i+1)) + (i+1-m)/(i(i+1)^3) ), summed
    directly with an integral tail bound kept below ``tolerance``.
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
