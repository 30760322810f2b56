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
Q(theta): every quantity is a + b*theta, stored as one reduced integer
triple (A + B*sqrt(m))/D, so +, -, * and reciprocals are integer
arithmetic with one gcd.  The floor is floor((A + floor(B*sqrt(m)))/D)
from one isqrt, and float() and log_qtheta take the same floor of
x*2^k, so floats are correctly rounded.  Identity-grade checks must use
the exact backend.

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

_LN2 = math.log(2.0)

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
        return QThetaNumber(0, 1, self.m)

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


class QThetaNumber:
    """Exact element a + b*theta of Q(theta), theta = 1/sqrt(m).

    Stored as one reduced integer triple: the value is (A + B*sqrt(m))/D
    with D > 0 and gcd(A, B, D) = 1.  sqrt(m) is irrational, so that
    triple is unique and equality is equality of (A, B, D, m).  The
    coefficients over {1, theta} are a = A/D and b = B*m/D, since
    sqrt(m) = m*theta.  Instances are immutable.
    """

    __slots__ = ("_A", "_B", "_D", "m")

    def __new__(cls, a: Rational, b: Rational, m: int):
        a, c = Fraction(a), Fraction(b) / m  # b*theta = c*sqrt(m)
        D = math.lcm(a.denominator, c.denominator)
        return _triple(a.numerator * (D // a.denominator), c.numerator * (D // c.denominator), D, m)

    def __setattr__(self, name, value):
        raise AttributeError(f"QThetaNumber is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, QThetaNumber):
            return NotImplemented
        return (self._A, self._B, self._D, self.m) == (other._A, other._B, other._D, other.m)

    def __hash__(self) -> int:
        return hash((self._A, self._B, self._D, self.m))

    @property
    def a(self) -> Fraction:
        """Rational coefficient of 1."""
        return Fraction(self._A, self._D)

    @property
    def b(self) -> Fraction:
        """Rational coefficient of theta."""
        return Fraction(self._B * self.m, self._D)

    def __repr__(self) -> str:
        return f"QThetaNumber(a={self.a!r}, b={self.b!r}, m={self.m!r})"

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value: Rational, m: int) -> "QThetaNumber":
        return cls(value, 0, m)

    # -- ring/field operations ----------------------------------------

    def _coerce(self, other) -> "QThetaNumber":
        if isinstance(other, QThetaNumber):
            if other.m != self.m:
                raise ValueError(f"mixed fields: m={self.m} vs m={other.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return QThetaNumber(other, 0, self.m)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D1, D2 = self._D, o._D
        return _triple(self._A * D2 + o._A * D1, self._B * D2 + o._B * D1, D1 * D2, self.m)

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self._A, -self._B, self._D, self.m)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        A1, B1, A2, B2, m = self._A, self._B, o._A, o._B, self.m
        return _triple(A1 * A2 + m * B1 * B2, A1 * B2 + A2 * B1, self._D * o._D, m)

    __rmul__ = __mul__

    def reciprocal(self) -> "QThetaNumber":
        """D/(A + B*sqrt(m)) = D*(A - B*sqrt(m)) / (A^2 - m*B^2)."""
        A, B, D, m = self._A, self._B, self._D, self.m
        N = A * A - m * B * B
        if N == 0:
            # A^2 = m*B^2 forces A = B = 0 since sqrt(m) is irrational
            raise ZeroDivisionError("reciprocal of zero element of Q(theta)")
        if N < 0:
            N, D = -N, -D
        return _triple(D * A, -D * B, N, m)

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
        """Exact sign of the real value (no floating point)."""
        A, B = self._A, self._B
        sa, sb = (A > 0) - (A < 0), (B > 0) - (B < 0)
        if sa * sb >= 0:
            return sa or sb
        # Opposite signs: |A| vs |B|*sqrt(m), never equal as sqrt(m) is irrational.
        return sa if A * A > self.m * B * B else sb

    @property
    def is_zero(self) -> bool:
        return self._A == 0 and self._B == 0

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self) -> float:
        """The correctly rounded double.

        With |n| >= 2^54, every rounding boundary of a double near x*2^k
        is an integer, so x and the midpoint n + 1/2 lie strictly inside
        one rounding interval and round alike.  A rational x (B = 0) may
        sit on a boundary itself; int division rounds it correctly.
        """
        if self._B == 0:
            return self._A / self._D
        n, k = _scaled_floor(self, 54)
        return (2 * n + 1) / (1 << (k + 1))

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*theta"


# Slot setters that bypass the raising __setattr__, for _triple alone.
_set_A, _set_B, _set_D, _set_m = (QThetaNumber.__dict__[s].__set__ for s in QThetaNumber.__slots__)


def _triple(A: int, B: int, D: int, m: int) -> QThetaNumber:
    """(A + B*sqrt(m))/D for D > 0, reduced by one gcd."""
    g = math.gcd(A, B, D)
    if g != 1:
        A, B, D = A // g, B // g, D // g
    x = object.__new__(QThetaNumber)
    _set_A(x, A)
    _set_B(x, B)
    _set_D(x, D)
    _set_m(x, m)
    return x


def _floor_of(A: int, B: int, D: int, m: int) -> int:
    """floor((A + B*sqrt(m))/D) for D > 0.

    floor(B*sqrt(m)) is isqrt(B^2*m) for B >= 0, and one less than its
    negative for B < 0, since B*sqrt(m) is irrational unless B = 0.
    """
    s = isqrt(B * B * m)
    return (A + (s if B >= 0 else -s - 1)) // D


def _scaled_floor(x: QThetaNumber, bits: int) -> tuple[int, int]:
    """n = floor(x*2^k) and k >= 0, with |n| >= 2^bits, for nonzero x.

    |A + B*sqrt(m)| >= 2^lo: without cancellation it is at least
    max(|A|, |B|*sqrt(m)); with A and B of opposite signs it is
    |A^2 - m*B^2| / (|A| + |B|*sqrt(m)), a nonzero integer over a number
    below 2^hi.  So k = bits + bitlen(D) - lo gives |x*2^k| > 2^bits at
    once, with no search; a larger k only adds bits.
    """
    A, B, D, m = x._A, x._B, x._D, x.m
    if A and B and (A < 0) != (B < 0):
        hi = max(A.bit_length(), B.bit_length() + (m.bit_length() + 1) // 2) + 1
        lo = (A * A - m * B * B).bit_length() - 1 - hi
    else:
        lo = max(A.bit_length(), B.bit_length() + (m.bit_length() - 1) // 2) - 1
    k = max(0, bits + D.bit_length() - lo)
    return _floor_of(A << k, B << k, D, m), k


def floor_qtheta(x: QThetaNumber) -> int:
    """Largest integer <= x, from one isqrt on integers.

    Never rounds through floats, so digits stay correct arbitrarily
    close to cylinder boundaries.
    """
    return _floor_of(x._A, x._B, x._D, x.m)


def ceil_qtheta(x: QThetaNumber) -> int:
    return -floor_qtheta(-x)


def log_qtheta(x: QThetaNumber) -> float:
    """Natural log of a positive element, safe for huge coefficients.

    Coefficients of orbit quantities grow exponentially while the real
    value stays moderate; converting to float first would overflow or
    cancel.  Instead n = floor(x*2^k) >= 2^64 is taken exactly, and the
    log is that of its leading bits plus a power of two.
    """
    if x.sign() <= 0:
        raise ValueError("log_qtheta requires a positive value")
    n, k = _scaled_floor(x, 64)
    e = n.bit_length() - 1
    return math.log(n / (1 << e)) + (e - k) * _LN2


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
    """x in the field of params: rationals and floats embed exactly."""
    if not isinstance(x, QThetaNumber):
        return QThetaNumber.from_rational(x, params.m)
    if x.m != params.m:
        raise ValueError(f"point from field m={x.m}, params have m={params.m}")
    return x


def _step(x: QThetaNumber, m: int) -> tuple[int, QThetaNumber]:
    """Digit and image of a nonzero exact point.

    With r = 1/x = (A + B*sqrt(m))/D the digit is floor(r*sqrt(m)) =
    floor((B*m + A*sqrt(m))/D), and T(x) = r - d*theta =
    (A*m + (B*m - d*D)*sqrt(m))/(D*m).
    """
    r = x.reciprocal()
    A, B, D = r._A, r._B, r._D
    d = _floor_of(B * m, A, D, m)
    return d, _triple(A * m, B * m - d * D, D * m, m)


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
    one, zero = _triple(1, 0, 1, m), _triple(0, 0, 1, m)
    ps, qs = [one, zero], [zero, one]
    for a in digits:
        at = _triple(0, a, m, m)  # a*theta = a*sqrt(m)/m
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
    val = (cyl.upper - cyl.lower) / params.theta_exact
    if val._B != 0:
        raise ArithmeticError("cylinder measure should be rational")
    return val.a


# ---------------------------------------------------------------------------
# serialization helpers (used by the CLI JSON reports)
# ---------------------------------------------------------------------------


def qtheta_to_dict(x: QThetaNumber) -> dict:
    """Coefficient-pair form {'a': 'p/q', 'b': 'p/q', 'float': value}.

    The float is a convenience next to the exact coefficients; it is None
    where |x| lies beyond the double range.
    """
    try:
        value = float(x)
    except OverflowError:
        value = None
    return {"a": str(x.a), "b": str(x.b), "float": value}
