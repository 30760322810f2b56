"""Exact field arithmetic: axioms, ordering, floor, and logs."""

import math
from fractions import Fraction
from math import isqrt

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetacf import QThetaNumber, ceil_qtheta, floor_qtheta, log_qtheta

fractions_st = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=200
)
m_st = st.sampled_from([2, 3, 5, 10, 17])


def qt(a, b, m):
    return QThetaNumber(Fraction(a), Fraction(b), m)


@given(fractions_st, fractions_st, fractions_st, fractions_st, m_st)
@settings(max_examples=60)
def test_ring_operations_close_and_agree_with_floats(a1, b1, a2, b2, m):
    x, y = qt(a1, b1, m), qt(a2, b2, m)
    th = 1 / math.sqrt(m)
    fx, fy = float(a1) + float(b1) * th, float(a2) + float(b2) * th
    scale = 1 + abs(fx) + abs(fy) + abs(fx * fy)
    assert float(x + y) == pytest.approx(fx + fy, abs=1e-9 * scale)
    assert float(x - y) == pytest.approx(fx - fy, abs=1e-9 * scale)
    assert float(x * y) == pytest.approx(fx * fy, abs=1e-9 * scale)


@given(fractions_st, fractions_st, m_st)
@settings(max_examples=60)
def test_reciprocal_roundtrip(a, b, m):
    x = qt(a, b, m)
    if x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.reciprocal()
    else:
        assert x * x.reciprocal() == qt(1, 0, m)
        assert x.reciprocal().reciprocal() == x


@given(fractions_st, fractions_st, m_st)
@settings(max_examples=80)
def test_sign_matches_float(a, b, m):
    x = qt(a, b, m)
    fx = float(a) + float(b) / math.sqrt(m)
    if abs(fx) > 1e-9:
        assert x.sign() == (1 if fx > 0 else -1)
    if a == 0 and b == 0:
        assert x.sign() == 0


@given(fractions_st, fractions_st, m_st)
@settings(max_examples=80)
def test_floor_bracket_property(a, b, m):
    # self-verifying predicate: n <= x < n+1 in exact arithmetic
    x = qt(a, b, m)
    n = floor_qtheta(x)
    assert (x - n).sign() >= 0
    assert (x - (n + 1)).sign() < 0
    assert ceil_qtheta(x) == -floor_qtheta(-x)


def test_floor_examples():
    assert floor_qtheta(qt(3, 0, 2)) == 3
    assert floor_qtheta(qt(0, 4, 2)) == 2  # 4/sqrt(2) = 2.828...
    assert floor_qtheta(qt(1, -1, 2)) == 0  # 1 - 0.707...


def test_floor_near_integer_boundary():
    # value = 2 + tiny: b*theta just above an integer needs deep refinement
    # 2*theta*theta = 1 exactly, so (2m)*theta = 2/theta... pick x = m*theta^2 = 1
    x = qt(0, 2, 2) * qt(0, 1, 2)  # 2*theta^2 = 1
    assert x == qt(1, 0, 2)
    assert floor_qtheta(x) == 1
    eps = Fraction(1, 10**40)
    assert floor_qtheta(qt(1, 0, 2) - eps) == 0
    big = qt(Fraction(10**50 + 7, 3), Fraction(-(10**49)), 2)
    n = floor_qtheta(big)
    assert (big - n).sign() >= 0 and (big - (n + 1)).sign() < 0


def test_equality_is_coefficientwise():
    assert qt(1, 2, 5) == qt(Fraction(2, 2), Fraction(4, 2), 5)
    assert qt(1, 2, 5) != qt(1, 2, 7)
    assert hash(qt(1, 2, 5)) == hash(qt(1, 2, 5))


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(ValueError):
        qt(1, 0, 2) + qt(1, 0, 3)


def test_float_conversion_cancellation_safe():
    # coefficients huge, value tiny: naive float(a) + float(b)*theta would
    # lose everything to cancellation
    k = 10**30
    # (k + k*theta)*(1 - theta) + (k/m)*... build tiny value directly:
    # x = (1 - theta)^40 has huge alternating coefficients and tiny value
    x = qt(1, -1, 2)
    for _ in range(39):
        x = x * qt(1, -1, 2)
    val = float(x)
    assert 0 < val < 1e-20
    assert math.isfinite(val)
    assert log_qtheta(x) == pytest.approx(40 * math.log(1 - 1 / math.sqrt(2)), rel=1e-12)


@given(fractions_st, fractions_st, m_st)
@settings(max_examples=60)
def test_log_matches_float_log(a, b, m):
    x = qt(a, b, m)
    fx = float(a) + float(b) / math.sqrt(m)
    if fx > 1e-6:
        assert log_qtheta(x) == pytest.approx(math.log(float(x)), abs=1e-9)
    elif (x.sign() if not x.is_zero else 0) <= 0:
        with pytest.raises(ValueError):
            log_qtheta(x)


# -- the integer-triple arithmetic against mpmath ----------------------------

wide_m_st = st.sampled_from([2, 3, 10, 101, 4099, 99991])
COEF = 10**300


@st.composite
def triples(draw):
    """(A, B, D, m) for x = (A + B*sqrt(m))/D, often with A close to -B*sqrt(m).

    Near-cancelling draws over a small D give values of order 1 with huge
    coefficients, as along exact orbits.
    """
    m = draw(wide_m_st)
    B = draw(st.integers(-COEF, COEF))
    if draw(st.booleans()):
        s = isqrt(B * B * m)
        A = (-s if B > 0 else s) + draw(st.integers(-3, 3))
    else:
        A = draw(st.integers(-COEF, COEF))
    D = draw(st.integers(1, 10 ** draw(st.sampled_from([1, 50, 300]))))
    return A, B, D, m


def element(A, B, D, m):
    return QThetaNumber(Fraction(A, D), Fraction(B * m, D), m)


def reference(A, B, D, m):
    # x lies at least 1/(D*2^j*(|A| + |B|*sqrt(m))) away from any dyadic
    # p/2^j it is not equal to, so this precision decides every rounding
    mp.mp.prec = 2 * (A.bit_length() + B.bit_length() + D.bit_length() + m.bit_length()) + 2300
    return (mp.mpf(A) + mp.mpf(B) * mp.sqrt(m)) / D


def rounded(v) -> float:
    # via an exact Fraction: float(mpf) may round subnormals twice
    man, exp = v.man_exp
    man = int(mp.sign(v)) * int(man)
    exp = int(exp)
    return float(Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2**-exp))


@given(triples())
@settings(max_examples=150, deadline=None)
def test_float_and_floor_match_mpmath(t):
    x = element(*t)
    v = reference(*t)
    assert float(x).hex() == rounded(v).hex()
    assert floor_qtheta(x) == int(mp.floor(v))


@given(triples())
@settings(max_examples=150, deadline=None)
def test_log_within_2e14_of_mpmath(t):
    A, B, D, m = t
    assume(A or B)
    x = element(*t)
    if x.sign() < 0:
        x, A, B = -x, -A, -B
    ref = float(mp.log(reference(A, B, D, m)))
    assert abs(log_qtheta(x) - ref) <= 2e-14 * max(1.0, abs(ref))


@given(triples(), triples())
@settings(max_examples=60, deadline=None)
def test_equal_values_compare_and_hash_equal(t, u):
    x = element(*t)
    r = element(u[0], u[1], u[2], t[3])
    same = [QThetaNumber(x.a, x.b, x.m), (x + r) - r, r + x - r]
    if not r.is_zero:
        same += [(x * r) / r, x / r * r]
    for y in same:
        assert y == x and hash(y) == hash(x)
    assert x + 1 != x


def test_coordinates_are_read_only():
    x = qt(Fraction(1, 3), 2, 5)
    for name in ("a", "b", "m"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert repr(x) == "QThetaNumber(a=Fraction(1, 3), b=Fraction(2, 1), m=5)"
