"""Exact and floating-point arithmetic for theta-expansions.

A theta-expansion writes x in (0, theta] as a continued fraction whose
partial numerators are 1 and whose partial denominators are a_n * theta,
with integer digits a_n >= m and theta = 1/sqrt(m) for a non-square
integer m >= 2.  The Gauss-type map

    T(x) = 1/x - theta * floor(1/(x*theta))   (T(0) = 0)

shifts the digit sequence; digits are read off by floor(1/(x*theta)).

Two backends coexist.  The float backend is fast and adequate for
sampling/statistics, but digit extraction drifts after roughly
``FLOAT_DIGIT_HORIZON`` iterations (each step multiplies relative error
by about 1/x^2).  The exact backend works in the real quadratic field
Q(theta): every quantity is a + b*theta with big-rational a, b, and
theta^2 reduces to the rational 1/m, so the representation is closed
under +, -, *, and reciprocals.  Identity-grade checks must use the
exact backend.

Each backend's map lives in one place.  ``_exact_orbit`` checks its
input once and returns the digits and every orbit point, at one
reciprocal and one exact floor per step, and ``_convergent_table``
builds p_k, q_k (seeds included) in one pass.  ``_float_orbit`` is the
float counterpart of ``_exact_orbit``: one checked loop whose digits
are max(m, floor(1/(x*theta))).  ``_orbit`` picks the kernel for a
backend.  Digits, map images, expansions, convergents, cylinders and
the orbit samplers in ``montecarlo`` are all views on these kernels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Union

__all__ = [
    "DomainError",
    "DigitError",
    "TerminationError",
    "FLOAT_DIGIT_HORIZON",
    "INFINITE_DIGIT",
    "ThetaParams",
    "QThetaNumber",
    "DigitSequence",
    "ConvergentPair",
    "Cylinder",
    "new_params",
    "floor_qtheta",
    "ceil_qtheta",
    "log_qtheta",
    "digit_index",
    "gauss_map_apply",
    "expand",
    "convergents",
    "reconstruct",
    "approximation_error",
    "cylinder",
    "cylinder_measure",
    "qtheta_to_dict",
]


class DomainError(ValueError):
    """Point lies outside [0, theta] beyond tolerance."""


class DigitError(ValueError):
    """Digit below the minimum m, or malformed digit data."""


class TerminationError(ValueError):
    """An exact expansion terminated before the requested index."""


#: Number of float-backend map iterations before digit extraction is
#: considered unreliable.  Orbits beyond this remain distributionally
#: faithful (useful for statistics) but individual digits drift.
FLOAT_DIGIT_HORIZON = 40

#: Sentinel returned by digit_index at x = 0.
INFINITE_DIGIT = math.inf

#: Absolute slack when validating float points against [0, theta].
_FLOAT_SLACK = 1e-12

#: Float points need x*theta above this, so r = 1/(x*theta) < 2**63 and
#: digits fit int64; fl(1/y) >= 2**63 exactly when y <= 2**-63.
_FLOAT_MIN_XTHETA = 2.0**-63

Rational = Union[int, Fraction]


def _is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class ThetaParams:
    """The integer m >= 2 (non-square) and theta = 1/sqrt(m)."""

    m: int
    theta: float

    @property
    def theta_exact(self) -> "QThetaNumber":
        """theta as the exact field element 0 + 1*theta."""
        return QThetaNumber(Fraction(0), Fraction(1), self.m)

    @property
    def log_normalizer(self) -> float:
        """log(1 + theta^2) = log(1 + 1/m)."""
        return math.log1p(1.0 / self.m)


def new_params(m: int) -> ThetaParams:
    """Validate m and build ThetaParams with theta = 1/sqrt(m).

    Rejects m < 2 and perfect squares (theta would be rational, which
    breaks the standing irrationality hypothesis).
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise DigitError(f"m must be an integer, got {m!r}")
    if m < 2:
        raise DigitError(f"m must be >= 2, got {m}")
    if _is_perfect_square(m):
        raise DigitError(f"m must not be a perfect square, got {m}")
    return ThetaParams(m=m, theta=1.0 / math.sqrt(m))


@lru_cache(maxsize=None)
def _theta_enclosure(m: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure lo <= theta <= hi with width about 2^-bits."""
    s = isqrt(m << (2 * bits))
    # s <= sqrt(m)*2^bits < s+1  =>  2^bits/(s+1) < theta <= 2^bits/s
    return Fraction(1 << bits, s + 1), Fraction(1 << bits, s)


@dataclass(frozen=True)
class QThetaNumber:
    """Exact element a + b*theta of Q(theta), theta = 1/sqrt(m).

    Coefficients are reduced Fractions, so equality of values is
    equality of (a, b, m) triples: theta is irrational, hence the
    representation over the basis {1, theta} is unique.
    """

    a: Fraction
    b: Fraction
    m: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    # -- constructors -------------------------------------------------

    @classmethod
    def theta(cls, m: int) -> "QThetaNumber":
        return cls(Fraction(0), Fraction(1), m)

    @classmethod
    def from_rational(cls, value: Rational, m: int) -> "QThetaNumber":
        return cls(Fraction(value), Fraction(0), m)

    # -- ring/field operations ----------------------------------------

    def _coerce(self, other) -> "QThetaNumber":
        if isinstance(other, QThetaNumber):
            if other.m != self.m:
                raise ValueError(f"mixed fields: m={self.m} vs m={other.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return QThetaNumber(Fraction(other), Fraction(0), self.m)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QThetaNumber(self.a + o.a, self.b + o.b, self.m)

    __radd__ = __add__

    def __neg__(self):
        return QThetaNumber(-self.a, -self.b, self.m)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QThetaNumber(self.a - o.a, self.b - o.b, self.m)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # (a1 + b1 t)(a2 + b2 t) with t^2 = 1/m
        a = self.a * o.a + Fraction(self.b * o.b, self.m)
        b = self.a * o.b + self.b * o.a
        return QThetaNumber(a, b, self.m)

    __rmul__ = __mul__

    def reciprocal(self) -> "QThetaNumber":
        """1/(a + b*theta) = (a - b*theta) / (a^2 - b^2/m)."""
        d = self.a * self.a - Fraction(self.b * self.b, self.m)
        if d == 0:
            # a^2 = b^2/m forces a = b = 0 since theta is irrational
            raise ZeroDivisionError("reciprocal of zero element of Q(theta)")
        return QThetaNumber(self.a / d, -self.b / d, self.m)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.reciprocal()

    # -- order and conversions ----------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value a + b*theta (no floating point)."""
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (1 if a > 0 else 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: |a| vs |b|*theta  <=>  m*a^2 vs b^2.
        lhs = self.m * a.numerator ** 2 * b.denominator ** 2
        rhs = b.numerator ** 2 * a.denominator ** 2
        if lhs == rhs:  # impossible for nonzero rationals, theta irrational
            raise ArithmeticError("degenerate sign comparison in Q(theta)")
        if a > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self) -> float:
        if self.b == 0:
            return float(self.a)
        bits = 64
        while bits <= (1 << 20):
            lo, hi = _enclose(self, bits)
            flo, fhi = float(lo), float(hi)
            if flo == fhi:
                return flo
            bits *= 2
        return float((lo + hi) / 2)

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*theta"


def _enclose(x: QThetaNumber, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= x <= hi from the width-2^-bits enclosure of theta."""
    lo_t, hi_t = _theta_enclosure(x.m, bits)
    if x.b > 0:
        return x.a + x.b * lo_t, x.a + x.b * hi_t
    return x.a + x.b * hi_t, x.a + x.b * lo_t


def floor_qtheta(x: QThetaNumber) -> int:
    """Largest integer <= a + b*theta, via integer arithmetic only.

    Uses an isqrt-based rational enclosure of theta, refined until the
    floor is determined, then verifies n <= x < n+1 with exact sign
    comparisons.  Never rounds through floats, so digits stay correct
    arbitrarily close to cylinder boundaries.
    """
    if x.b == 0:
        return math.floor(x.a)
    bits = 64
    while True:
        lo, hi = _enclose(x, bits)
        n = math.floor(lo)
        if n == math.floor(hi):
            break
        bits *= 2  # terminates: x is irrational when b != 0
    while (x - n).sign() < 0:
        n -= 1
    while (x - (n + 1)).sign() >= 0:
        n += 1
    return n


def ceil_qtheta(x: QThetaNumber) -> int:
    return -floor_qtheta(-x)


def _log_fraction(f: Fraction) -> float:
    # math.log accepts arbitrarily large ints, so this never overflows.
    return math.log(f.numerator) - math.log(f.denominator)


def log_qtheta(x: QThetaNumber) -> float:
    """Natural log of a positive a + b*theta, safe for huge coefficients.

    Coefficient pairs of orbit quantities grow exponentially while the
    real value stays moderate; converting to float first would overflow
    or cancel.  Instead theta is enclosed by rationals tight enough that
    the value is known to 20 digits, and the log is taken on big
    integers.
    """
    if x.sign() <= 0:
        raise ValueError("log_qtheta requires a positive value")
    a, b, m = x.a, x.b, x.m
    if b == 0:
        return _log_fraction(a)
    if a == 0:
        return _log_fraction(b) - 0.5 * math.log(m)
    bits = 128
    while True:
        lo, hi = _enclose(x, bits)
        if lo > 0 and (hi - lo) * 10**20 <= lo:
            return _log_fraction((lo + hi) / 2)
        bits *= 2
        if bits > (1 << 24):  # pragma: no cover
            raise ArithmeticError("theta enclosure failed to converge")


# ---------------------------------------------------------------------------
# digit sequences, convergents, cylinders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DigitSequence:
    """A finite run of expansion digits plus a termination flag.

    ``terminated`` is set when the orbit hit 0 exactly, so the expansion
    is finite (only detectable in the exact backend).
    """

    digits: tuple[int, ...]
    terminated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))
        for d in self.digits:
            if d < 1:
                raise DigitError(f"digit must be a positive integer, got {d}")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)


@dataclass(frozen=True)
class ConvergentPair:
    """Exact convergent (p_n, q_n) at index n."""

    p: QThetaNumber
    q: QThetaNumber
    n: int


@dataclass(frozen=True)
class Cylinder:
    """Fundamental interval of all points sharing a digit prefix.

    Endpoints are exact.  Cylinders of fixed rank tile (0, theta] in
    half-open fashion: the shared endpoint between neighbours belongs to
    exactly one of them, and x = theta carries digit m.
    """

    digits: DigitSequence
    lower: QThetaNumber
    upper: QThetaNumber


def _digit_tuple(digits, params: ThetaParams) -> tuple[int, ...]:
    seq = tuple(digits.digits) if isinstance(digits, DigitSequence) else tuple(int(d) for d in digits)
    if not seq:
        raise DigitError("empty digit sequence")
    for d in seq:
        if d < params.m:
            raise DigitError(f"digit {d} below minimum m={params.m}")
    return seq


# ---------------------------------------------------------------------------
# the expansion map
# ---------------------------------------------------------------------------


def _validate_float_point(x: float, params: ThetaParams) -> float:
    if not (-_FLOAT_SLACK <= x <= params.theta + _FLOAT_SLACK):
        raise DomainError(f"x={x!r} outside [0, {params.theta}]")
    return min(max(x, 0.0), params.theta)


def _validate_exact_point(x: QThetaNumber, params: ThetaParams) -> QThetaNumber:
    if x.m != params.m:
        raise ValueError(f"point from field m={x.m}, params have m={params.m}")
    if x.sign() < 0 or (params.theta_exact - x).sign() < 0:
        raise DomainError(f"exact point {x} outside [0, theta]")
    return x


def _resolve_backend(x, backend: str) -> tuple[object, str]:
    if backend not in ("auto", "exact", "float"):
        raise ValueError(f"unknown backend {backend!r}")
    if isinstance(x, QThetaNumber):
        if backend == "float":
            return float(x), "float"
        return x, "exact"
    if isinstance(x, (int, Fraction)) and backend != "float":
        return x, "exact"
    if backend == "exact":
        raise TypeError(f"exact backend needs QThetaNumber/Fraction input, got {type(x).__name__}")
    return float(x), "float"


def _as_qtheta(x, params: ThetaParams) -> QThetaNumber:
    if isinstance(x, QThetaNumber):
        return x
    return QThetaNumber.from_rational(x, params.m)


def _step(x: QThetaNumber, m: int) -> tuple[int, QThetaNumber]:
    """Digit and image of a nonzero exact point.

    With r = 1/x = a + b*theta the digit is floor(r*sqrt(m)), and
    sqrt(m) = m*theta makes r*sqrt(m) = b + m*a*theta.  T(x) = r - d*theta.
    """
    r = x.reciprocal()
    d = floor_qtheta(QThetaNumber(r.b, m * r.a, m))
    return d, QThetaNumber(r.a, r.b - d, m)


def _exact_orbit(x, n: int, params: ThetaParams) -> tuple[DigitSequence, list[QThetaNumber]]:
    """Up to n digits of x and the orbit points x, T(x), ..., one per digit.

    Only the input is checked against [0, theta]; the map keeps every
    later point there.  The walk stops, ``terminated``, when it reaches 0.
    """
    x = _validate_exact_point(_as_qtheta(x, params), params)
    points = [x]
    digits = []
    while len(digits) < n and not x.is_zero:
        d, x = _step(x, params.m)
        digits.append(d)
        points.append(x)
    return DigitSequence(tuple(digits), x.is_zero), points


def _float_orbit(x, n: int, params: ThetaParams) -> tuple[list[int], list[float]]:
    """Up to n float digits of x and the orbit points x, T(x), ..., one per digit.

    Only the input is checked: it must lie in [0, theta] and give
    r = 1/(x*theta) below 2**63, so digits fit int64.  After one step r
    stays below about 2**53, because T(x) is 0 or at least theta*ulp(r).
    The digit max(m, floor(r)) is clamped at m since theta^2*m = 1 only
    holds to rounding near x = theta; a step that dips below 0 there
    gives 0.  The walk stops when it reaches 0.
    """
    x = _validate_float_point(float(x), params)
    th, m = params.theta, params.m
    if x * th <= _FLOAT_MIN_XTHETA:
        if x > 0.0:
            raise DomainError(f"x={x!r} too small for the float backend")
        n = 0
    digits, points = [], [x]
    add_digit, add_point = digits.append, points.append
    for _ in range(n):
        r = 1.0 / (x * th)
        d = int(r)  # floor, as r > 0
        if d < m:
            d = m
        add_digit(d)
        x = th * (r - d)
        if x <= 0.0:
            add_point(0.0)
            break
        add_point(x)
    return digits, points


def _orbit(x, n: int, params: ThetaParams, backend: str) -> tuple[DigitSequence, list]:
    """Up to n digits of x and its orbit points, from the backend's kernel."""
    x, kind = _resolve_backend(x, backend)
    if kind == "exact":
        return _exact_orbit(x, n, params)
    digits, points = _float_orbit(x, n, params)
    return DigitSequence(tuple(digits), points[-1] == 0.0), points


def digit_index(x, params: ThetaParams, backend: str = "auto"):
    """floor(1/(x*theta)) for x in (0, theta]; INFINITE_DIGIT at x = 0.

    Always >= m on the domain.  The float path clamps to m near the
    right endpoint, where theta^2*m = 1 only holds to rounding.
    """
    digits = _orbit(x, 1, params, backend)[0].digits
    return digits[0] if digits else INFINITE_DIGIT


def gauss_map_apply(x, params: ThetaParams, backend: str = "auto"):
    """One step of the expansion map T(x) = 1/x - theta*floor(1/(x*theta))."""
    return _orbit(x, 1, params, backend)[1][-1]


def expand(x, n_max: int, params: ThetaParams, backend: str = "auto") -> DigitSequence:
    """First min(n_max, termination) digits of the theta-expansion of x.

    The boundary x = theta is admitted: it has the one-digit expansion
    [m] (T(theta) = 0 exactly).  In the float backend a warning is
    issued when n_max exceeds FLOAT_DIGIT_HORIZON.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    seq, points = _orbit(x, n_max, params, backend)
    if not seq.digits:
        raise DomainError("cannot expand x = 0")
    if n_max > FLOAT_DIGIT_HORIZON and isinstance(points[0], float):
        warnings.warn(
            f"float backend digits are unreliable beyond {FLOAT_DIGIT_HORIZON} "
            "iterations; use the exact backend for identity checks",
            RuntimeWarning,
            stacklevel=2,
        )
    return seq


# ---------------------------------------------------------------------------
# convergents and identities
# ---------------------------------------------------------------------------


def _convergent_table(digits, m: int) -> tuple[list[QThetaNumber], list[QThetaNumber]]:
    """p_k and q_k for k = -1 .. n, seeds included: p_k sits at index k+1.

    p_n = a_n*theta*p_{n-1} + p_{n-2} from p_-1 = 1, p_0 = 0, and the
    same for q from q_-1 = 0, q_0 = 1.
    """
    one = QThetaNumber.from_rational(1, m)
    zero = QThetaNumber.from_rational(0, m)
    ps, qs = [one, zero], [zero, one]
    for a in digits:
        at = QThetaNumber(Fraction(0), Fraction(a), m)
        ps.append(at * ps[-1] + ps[-2])
        qs.append(at * qs[-1] + qs[-2])
    return ps, qs


def _with_tail(ps, qs, t):
    """(p_n + t*p_{n-1}) / (q_n + t*q_{n-1}) from a convergent table."""
    return (ps[-1] + t * ps[-2]) / (qs[-1] + t * qs[-2])


def convergents(digits, params: ThetaParams) -> list[ConvergentPair]:
    """Exact convergents from p_n = a_n*theta*p_{n-1} + p_{n-2} (same for q).

    Seeds p_-1 = 1, p_0 = 0, q_-1 = 0, q_0 = 1.  The 2x2 recurrence
    matrix has determinant -1, so p_n q_{n-1} - p_{n-1} q_n = (-1)^{n+1}.
    """
    ps, qs = _convergent_table(_digit_tuple(digits, params), params.m)
    return [ConvergentPair(p=ps[n + 1], q=qs[n + 1], n=n) for n in range(1, len(ps) - 1)]


def reconstruct(digits, params: ThetaParams, tail=None):
    """Evaluate the finite fraction (p_n + t*p_{n-1})/(q_n + t*q_{n-1}).

    ``tail`` is the value t in [0, theta] continuing the expansion
    (default 0).  Exact tails give an exact result; a float tail gives a
    float.  With t = T^n(x) this reproduces x exactly.
    """
    ps, qs = _convergent_table(_digit_tuple(digits, params), params.m)
    if tail is None:
        tail = 0
    if isinstance(tail, float):
        if not (-_FLOAT_SLACK <= tail <= params.theta + _FLOAT_SLACK):
            raise DomainError(f"tail {tail!r} outside [0, theta]")
        return _with_tail([float(p) for p in ps[-2:]], [float(q) for q in qs[-2:]], tail)
    return _with_tail(ps, qs, _validate_exact_point(_as_qtheta(tail, params), params))


def approximation_error(x: QThetaNumber, n: int, params: ThetaParams) -> QThetaNumber:
    """Signed error x - p_n/q_n, verified against its closed form.

    The closed form is (-1)^n T^n(x) / (q_n (q_n + T^n(x) q_{n-1})):
    x always sits below p_1/q_1 = 1/(a_1*theta), and the sign alternates
    from there.  Raises TerminationError when the expansion has fewer
    than n digits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    seq, points = _exact_orbit(x, n, params)
    if points[0].is_zero:
        raise DomainError("cannot expand x = 0")
    if len(seq) < n:
        raise TerminationError(f"expansion terminated after {len(seq)} < {n} digits")
    ps, qs = _convergent_table(seq.digits, params.m)
    x, t = points[0], points[n]
    err = x - ps[-1] / qs[-1]
    rhs = t / (qs[-1] * (qs[-1] + t * qs[-2]))
    if n % 2 == 1:
        rhs = -rhs
    if err != rhs:
        raise ArithmeticError("two-sided error identity failed in exact arithmetic")
    return err


def _table_and_cylinder(digits, params: ThetaParams):
    """Convergent table of a digit prefix and its cylinder, from one pass.

    Endpoints are the fraction values at tail 0 and tail theta; their
    order flips with the parity of the prefix length.
    """
    seq = _digit_tuple(digits, params)
    ps, qs = _convergent_table(seq, params.m)
    e0 = ps[-1] / qs[-1]
    e1 = _with_tail(ps, qs, params.theta_exact)
    lower, upper = (e0, e1) if e0 < e1 else (e1, e0)
    ds = digits if isinstance(digits, DigitSequence) else DigitSequence(seq)
    return ps, qs, Cylinder(digits=ds, lower=lower, upper=upper)


def cylinder(digits, params: ThetaParams) -> Cylinder:
    """Fundamental interval of the given digit prefix, exact endpoints."""
    return _table_and_cylinder(digits, params)[2]


def cylinder_measure(cyl, params: ThetaParams) -> Fraction:
    """Normalized Lebesgue measure (upper - lower)/theta of a cylinder.

    Always lands in Q: equals 1/(q_n (q_n + theta q_{n-1})), whose
    theta-parts cancel.  Accepts a Cylinder or a digit prefix.
    """
    if not isinstance(cyl, Cylinder):
        cyl = cylinder(cyl, params)
    diff = cyl.upper - cyl.lower
    # division by theta: 1/theta = m*theta
    val = diff * QThetaNumber(Fraction(0), Fraction(params.m), params.m)
    if val.b != 0:
        raise ArithmeticError("cylinder measure should be rational")
    return val.a


# ---------------------------------------------------------------------------
# serialization helpers (used by the CLI JSON reports)
# ---------------------------------------------------------------------------


def qtheta_to_dict(x: QThetaNumber) -> dict:
    """Coefficient-pair form {'a': 'p/q', 'b': 'p/q', 'float': value}."""
    return {"a": str(x.a), "b": str(x.b), "float": float(x)}
