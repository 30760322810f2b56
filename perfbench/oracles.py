"""Independent references the checkers compare the package against.

Nothing here calls thetacf.  Constants come from the frozen mpmath
oracles in ``tests/oracle_values.py`` (read, never edited); where that
file has no value for an m, the same closed forms are evaluated with
mpmath here.  Exact checks use a small Q(theta) arithmetic of their own
on (a, b) pairs of Fractions, so a defect in ``QThetaNumber`` cannot
hide itself.
"""

from __future__ import annotations

import importlib.util
import math
from fractions import Fraction

from mpmath import mp, mpf

# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def load_frozen(root):
    """The frozen oracle module of the repository's test suite."""
    path = root / "tests" / "oracle_values.py"
    spec = importlib.util.spec_from_file_location("_frozen_oracle_values", path)
    if spec is None or not path.is_file():
        raise FileNotFoundError(f"frozen oracles not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Constants:
    """beta, the Khintchin-type geometric mean and q for any m, as floats."""

    def __init__(self, frozen):
        self.frozen = frozen
        self._cache = {}

    def _cached(self, key, m, compute):
        if (key, m) not in self._cache:
            self._cache[key, m] = compute(m)
        return self._cache[key, m]

    def beta(self, m: int) -> float:
        return self._cached("beta", m, self._beta)

    def khintchin(self, m: int) -> float:
        return self._cached("khintchin", m, self._khintchin)

    def q(self, m: int) -> float:
        return self._cached("q", m, self._q)

    def _beta(self, m):
        if m in self.frozen.BETA:
            return self.frozen.BETA[m]
        # -(1/L) int_0^theta theta log x/(1+theta x) dx = log(m)/2 - Li2(-1/m)/L
        with mp.workdps(30):
            return float(mp.log(m) / 2 - mp.polylog(2, -mpf(1) / m) / mp.log1p(mpf(1) / m))

    def _khintchin(self, m):
        if m in self.frozen.KHINTCHIN:
            return self.frozen.KHINTCHIN[m]
        # direct sum below K plus an Euler-Maclaurin tail from K, as the
        # frozen values were made; f varies on the scale k, so from K >= 2000
        # the first three corrections leave an error of order f(K)/K^6
        with mp.workdps(25):
            f = lambda k: mp.log(k) * mp.log1p(1 / (k * (k + 2)))
            K = max(2000, m)
            s = mp.fsum(f(mpf(k)) for k in range(m, K))
            tail = (
                mp.quad(f, [K, mp.inf])
                + f(mpf(K)) / 2
                - mp.diff(f, K) / 12
                + mp.diff(f, K, 3) / 720
                - mp.diff(f, K, 5) / 30240
            )
            return float(mp.exp((s + tail) / mp.log1p(mpf(1) / m)))

    def _q(self, m):
        if m in self.frozen.Q_CONST:
            return self.frozen.Q_CONST[m]
        with mp.workdps(30):
            z = mp.zeta
            return float(m * (m * z(3, m) - m * z(2, m) + mpf(1) / m + (m - 1) * z(2, m + 1) + m * z(3, m + 1)))


# ---------------------------------------------------------------------------
# Q(theta) on (a, b) pairs: value a + b*theta, theta^2 = 1/m
# ---------------------------------------------------------------------------


def q_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def q_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def q_mul(x, y, m):
    return (x[0] * y[0] + x[1] * y[1] / m, x[0] * y[1] + x[1] * y[0])


def q_inv(x, m):
    d = x[0] * x[0] - x[1] * x[1] / m
    return (x[0] / d, -x[1] / d)


def q_div(x, y, m):
    return q_mul(x, q_inv(y, m), m)


def q_sign(x, m):
    a, b = x
    if b == 0 or a == 0 or (a > 0) == (b > 0):
        return (a > 0) - (a < 0) if a != 0 else (b > 0) - (b < 0)
    # opposite signs: |a| against |b|/sqrt(m), i.e. m a^2 against b^2
    return (1 if a > 0 else -1) * (1 if m * a * a > b * b else -1)


def q_pair(value):
    """(a, b) of a package value that exposes ``a`` and ``b``."""
    return (Fraction(value.a), Fraction(value.b))


THETA = (Fraction(0), Fraction(1))
ONE = (Fraction(1), Fraction(0))
ZERO = (Fraction(0), Fraction(0))


def q_bits(x) -> int:
    """Largest bit length among the reduced numerators and denominators."""
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in x)


def q_mpf(x, m):
    """mpf value of a + b*theta at a precision that survives cancellation."""
    bits = q_bits(x)
    with mp.workprec(2 * bits + 120):
        return mpf(x[0].numerator) / x[0].denominator + mpf(x[1].numerator) / x[1].denominator / mp.sqrt(m)


def q_log(x, m) -> float:
    bits = q_bits(x)
    with mp.workprec(2 * bits + 120):
        return float(mp.log(q_mpf(x, m)))


# ---------------------------------------------------------------------------
# digits by multiple precision
# ---------------------------------------------------------------------------


def mp_digits(x, m: int, count: int) -> list[int]:
    """First ``count`` digits of the expansion of x = (a, b), by mpmath.

    The expansion is run at two precisions; digits are returned only once
    two successive precisions agree, so rounding cannot decide a digit.
    """
    dps = 40 + 6 * count
    prev = None
    while True:
        with mp.workdps(dps):
            theta = 1 / mp.sqrt(m)
            v = mpf(x[0].numerator) / x[0].denominator + mpf(x[1].numerator) / x[1].denominator * theta
            out = []
            for _ in range(count):
                if v <= 0:
                    break
                r = 1 / (v * theta)
                d = int(mp.floor(r))
                out.append(d)
                v = theta * (r - d)
        if out == prev:
            return out
        prev = out
        dps *= 2
        if dps > 20000:
            raise ArithmeticError("mpmath expansion did not stabilise")


def binomial_deviation_bound(n: int, p: float, alpha: float) -> float:
    """t with P(|X - np| >= t) <= alpha for X ~ Binomial(n, p) (Bernstein).

    Bernstein: P(|X - np| >= t) <= 2 exp(-t^2 / (2 (var + t/3))).  Unlike
    a normal quantile it stays valid in the skewed rows whose expected
    count is only a few dozen.
    """
    L = math.log(2.0 / alpha)
    var = n * p * (1.0 - p)
    return L / 3.0 + math.sqrt(L * L / 9.0 + 2.0 * L * var)
