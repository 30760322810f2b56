"""Expansion map, digits, convergents, reconstruction, cylinders."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_values as ov
from thetacf import (
    DigitError,
    DigitSequence,
    DomainError,
    QThetaNumber,
    TerminationError,
    approximation_error,
    convergents,
    cylinder,
    cylinder_measure,
    digit_index,
    expand,
    gauss_map_apply,
    new_params,
    reconstruct,
    sample_orbit,
)
from thetacf.montecarlo import float_digit_run

P2 = new_params(2)
P3 = new_params(3)
P5 = new_params(5)


def frac_point(p, q, params):
    return QThetaNumber(Fraction(p, q), Fraction(0), params.m)


def random_rational_in_domain(rng, params, max_den=10**4):
    while True:
        q = int(rng.integers(2, max_den))
        p_hi = int(q * params.theta)
        while p_hi >= 1 and p_hi * p_hi * params.m >= q * q:
            p_hi -= 1
        if p_hi >= 1:
            p = int(rng.integers(1, p_hi + 1))
            return QThetaNumber(Fraction(p, q), Fraction(0), params.m)


class TestParams:
    def test_accepts_non_squares(self):
        for m in (2, 3, 5, 6, 7, 8, 10, 17):
            p = new_params(m)
            assert abs(p.theta**2 * m - 1.0) <= 4 * np.finfo(float).eps
            sym = p.theta_exact
            assert (sym * sym) == QThetaNumber(Fraction(1, m), Fraction(0), m)

    def test_rejects_squares_and_small(self):
        for bad in (0, 1, 4, 9, 16, 100):
            with pytest.raises(DigitError):
                new_params(bad)
        with pytest.raises(DigitError):
            new_params(2.0)  # type: ignore[arg-type]

    def test_quoted_theta_values(self):
        assert new_params(10).theta == pytest.approx(ov.THETA_M10, abs=1e-15)
        assert new_params(17).theta == pytest.approx(ov.THETA_M17, abs=1e-15)


class TestDigitIndex:
    def test_right_endpoint_gives_minimum_digit(self):
        for params in (P2, P3, P5):
            assert digit_index(params.theta_exact, params) == params.m
            assert digit_index(params.theta, params) == params.m

    def test_zero_gives_sentinel(self):
        assert digit_index(0, P2) == math.inf
        assert digit_index(0.0, P2) == math.inf

    def test_half_m2(self):
        # 1/(x*theta) = 2*sqrt(2) = 2.828..., floored exactly
        assert digit_index(frac_point(1, 2, P2), P2) == 2
        assert digit_index(0.5, P2) == 2

    def test_domain_errors(self):
        # 1e-25 is inside [0, theta] but 1/(x*theta) does not fit int64
        for bad in (0.9, 1e-25):
            with pytest.raises(DomainError):
                digit_index(bad, P2)
        with pytest.raises(DomainError):
            digit_index(frac_point(9, 10, P2), P2)

    def test_always_at_least_m(self):
        rng = np.random.default_rng(11)
        for params in (P2, P5):
            for _ in range(50):
                x = random_rational_in_domain(rng, params)
                assert digit_index(x, params) >= params.m
            xs = rng.uniform(1e-9, params.theta, size=200)
            assert all(digit_index(float(x), params) >= params.m for x in xs)


class TestGaussMap:
    def test_zero_fixed(self):
        assert gauss_map_apply(0.0, P2) == 0.0
        assert gauss_map_apply(QThetaNumber(Fraction(0), Fraction(0), 2), P2).is_zero

    def test_one_digit_point_maps_to_zero(self):
        # x = 1/(4*theta) at m=2: 1/(x*theta) = 4 exactly
        x = (QThetaNumber(Fraction(0), Fraction(4), 2)).reciprocal()
        assert gauss_map_apply(x, P2).is_zero

    def test_half_maps_to_known_value(self):
        img = gauss_map_apply(frac_point(1, 2, P2), P2)
        assert img == QThetaNumber(Fraction(2), Fraction(-2), 2)
        assert float(img) == pytest.approx(ov.MAP_OF_HALF_M2, abs=1e-15)
        assert gauss_map_apply(0.5, P2) == pytest.approx(ov.MAP_OF_HALF_M2, abs=1e-12)

    def test_image_stays_in_domain(self):
        rng = np.random.default_rng(7)
        for params in (P2, P3, P5):
            for _ in range(40):
                x = random_rational_in_domain(rng, params)
                y = gauss_map_apply(x, params)
                assert y.sign() >= 0
                assert (params.theta_exact - y).sign() >= 0
            for x in rng.uniform(1e-9, params.theta, size=300):
                y = gauss_map_apply(float(x), params)
                assert 0.0 <= y <= params.theta


class TestExpand:
    def test_half_m2(self):
        seq = expand(frac_point(1, 2, P2), 3, P2)
        assert seq.digits == (2, 2, 4)
        assert not seq.terminated

    def test_one_digit_expansions(self):
        x = (QThetaNumber(Fraction(0), Fraction(4), 2)).reciprocal()
        seq = expand(x, 5, P2)
        assert seq.digits == (4,) and seq.terminated

    def test_boundary_theta(self):
        seq = expand(P2.theta_exact, 4, P2)
        assert seq.digits == (2,) and seq.terminated

    def test_float_backend_warns_beyond_horizon(self):
        with pytest.warns(RuntimeWarning):
            expand(0.5, 41, P2, backend="float")
        seq = expand(0.5, 10, P2, backend="float")
        assert seq.digits[:3] == (2, 2, 4)

    def test_float_domain_errors(self):
        for bad in (0.0, 0.9, 1e-25):
            with pytest.raises(DomainError):
                expand(bad, 5, P2, backend="float")

    def test_eventually_periodic_rational(self):
        # the orbit of 1/2 reaches a 2-cycle: T^3(1/2) = T(1/2) = 2 - 2*theta
        seq = expand(frac_point(1, 2, P2), 9, P2)
        assert seq.digits == (2, 2, 4, 2, 4, 2, 4, 2, 4)


class TestConvergents:
    def test_seed_step(self):
        for params in (P2, P3, P5):
            m = params.m
            cs = convergents([m], params)
            assert cs[0].p == QThetaNumber(Fraction(1), Fraction(0), m)
            assert cs[0].q == QThetaNumber(Fraction(0), Fraction(m), m)
            # p1/q1 = 1/(m*theta) = theta
            assert cs[0].p / cs[0].q == params.theta_exact

    def test_two_step_value(self):
        # q2 = m*theta*(m*theta) + 1 = m + 1 since m*theta^2 = 1
        for params in (P2, P3, P5):
            m = params.m
            cs = convergents([m, m], params)
            assert cs[1].p == QThetaNumber(Fraction(0), Fraction(m), m)
            assert cs[1].q == QThetaNumber(Fraction(m + 1), Fraction(0), m)

    def test_determinant_identity_random_strings(self):
        rng = np.random.default_rng(5)
        for params in (P2, P3, P5):
            m = params.m
            for _ in range(20):
                n = int(rng.integers(1, 51))
                digits = [int(d) for d in rng.integers(m, m + 12, size=n)]
                cs = convergents(digits, params)
                one = QThetaNumber(Fraction(1), Fraction(0), m)
                p_prev, q_prev = (
                    QThetaNumber(Fraction(0), Fraction(0), m),
                    one,
                )  # p_0, q_0
                for k, pair in enumerate(cs, start=1):
                    det = pair.p * q_prev - p_prev * pair.q
                    assert det == (one if k % 2 == 1 else -one)
                    p_prev, q_prev = pair.p, pair.q

    def test_q_strictly_increasing(self):
        cs = convergents([2, 3, 4, 5, 6, 7], P2)
        vals = [float(c.q) for c in cs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_digit_below_m_rejected(self):
        with pytest.raises(DigitError):
            convergents([1, 2], P2)
        with pytest.raises(DigitError):
            convergents([5, 2], P5)


class TestReconstruct:
    def test_single_level(self):
        x = reconstruct([4], P2, tail=0)
        assert x == (QThetaNumber(Fraction(0), Fraction(4), 2)).reciprocal()

    def test_tail_at_maximum_gives_cylinder_edge(self):
        for params in (P2, P5):
            m = params.m
            x = reconstruct([m], params, tail=params.theta_exact)
            assert x == (QThetaNumber(Fraction(0), Fraction(m + 1), m)).reciprocal()

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(13)
        for params in (P2, P3, P5):
            for _ in range(25):
                x = random_rational_in_domain(rng, params)
                n = int(rng.integers(1, 31))
                seq = expand(x, n, params)
                t = x
                for _ in range(len(seq)):
                    t = gauss_map_apply(t, params)
                assert reconstruct(seq, params, tail=t) == x

    def test_float_tail(self):
        val = reconstruct([2, 2, 4], P2, tail=0.1)
        assert isinstance(val, float)
        exact = reconstruct([2, 2, 4], P2, tail=Fraction(1, 10))
        # tail 1/10 is exactly representable, so only rounding differs
        assert val == pytest.approx(float(exact), rel=1e-13)


class TestApproximationError:
    def test_sign_alternates_starting_negative(self):
        x = frac_point(1, 2, P2)
        e1 = approximation_error(x, 1, P2)
        e2 = approximation_error(x, 2, P2)
        assert e1.sign() < 0 < e2.sign()
        assert float(e1) == pytest.approx(0.5 - 1 / (2 * P2.theta), abs=1e-14)

    def test_two_sided_identity_random(self):
        # approximation_error raises internally if the closed form disagrees
        rng = np.random.default_rng(17)
        for params in (P2, P3, P5):
            for _ in range(15):
                x = random_rational_in_domain(rng, params)
                n = int(rng.integers(1, 12))
                seq = expand(x, n, params)
                if len(seq) < n:
                    continue
                approximation_error(x, n, params)

    def test_termination_reported(self):
        x = (QThetaNumber(Fraction(0), Fraction(4), 2)).reciprocal()  # expansion [4]
        assert approximation_error(x, 1, P2).is_zero
        with pytest.raises(TerminationError):
            approximation_error(x, 2, P2)


class TestCylinder:
    def test_rank_one_m2(self):
        cyl = cylinder([2], P2)
        assert cyl.lower == (QThetaNumber(Fraction(0), Fraction(3), 2)).reciprocal()
        assert cyl.upper == P2.theta_exact
        assert float(cyl.lower) == pytest.approx(ov.BRANCH2_AT_THETA_M2, abs=1e-15)
        assert cylinder_measure(cyl, P2) == Fraction(1, 3)

    def test_rank_one_measure_formula(self):
        # normalized measure of I(k) is m/(k(k+1))
        for params in (P2, P5):
            m = params.m
            for k in range(m, m + 6):
                assert cylinder_measure([k], params) == Fraction(m, k * (k + 1))

    def test_rank_one_partition_mass(self):
        # sum over k = m..K telescopes to 1 - m/(K+1), exactly
        for params in (P2, P3):
            m = params.m
            total = sum(cylinder_measure([k], params) for k in range(m, 200))
            assert total == 1 - Fraction(m, 200)

    def test_measure_matches_denominator_formula(self):
        rng = np.random.default_rng(23)
        for params in (P2, P3, P5):
            m = params.m
            for _ in range(10):
                n = int(rng.integers(1, 9))
                digits = [int(d) for d in rng.integers(m, m + 6, size=n)]
                cs = convergents(digits, params)
                q_n = cs[-1].q
                q_nm1 = cs[-2].q if n >= 2 else QThetaNumber(Fraction(1), Fraction(0), m)
                expected = (q_n * (q_n + params.theta_exact * q_nm1)).reciprocal()
                assert expected.b == 0
                assert cylinder_measure(digits, params) == expected.a

    def test_endpoints_ordered_and_inside(self):
        cyl = cylinder([3, 2, 5], P2)
        assert cyl.lower.sign() > 0
        assert (cyl.upper - cyl.lower).sign() > 0
        assert (P2.theta_exact - cyl.upper).sign() >= 0


def test_digit_sequence_validation():
    with pytest.raises(DigitError):
        DigitSequence((0, 2))
    seq = DigitSequence((3, 4), terminated=True)
    assert len(seq) == 2 and list(seq) == [3, 4]


@st.composite
def orbit_starts(draw):
    """(x, params): a rational or surd (b != 0) point inside (0, theta)."""
    params = new_params(draw(st.sampled_from([2, 3, 5, 10, 17])))
    u = draw(st.floats(min_value=0.001, max_value=0.999))
    surd = st.fractions(min_value=-3, max_value=3, max_denominator=50).filter(bool)
    b = draw(st.one_of(st.just(Fraction(0)), surd))
    a = Fraction((u - float(b)) * params.theta).limit_denominator(10**6)
    x = QThetaNumber(a, b, params.m)
    assume(x.sign() > 0 and x <= params.theta_exact)
    return x, params


@given(orbit_starts())
@settings(max_examples=60, deadline=None)
def test_exact_orbit_kernel_agrees_across_views(start):
    x, params = start
    n = 15
    seq = expand(x, n, params, backend="exact")
    sample = sample_orbit(x, n, params, backend="exact")
    assert sample.digits == seq
    points = sample.points
    assert len(points) == len(seq) + 1 and points[0] == x
    assert seq.terminated == points[-1].is_zero
    for p in points:
        assert p.sign() >= 0 and p <= params.theta_exact
    y = x
    for k, d in enumerate(seq.digits):
        assert d >= params.m
        assert digit_index(y, params) == d
        y = gauss_map_apply(y, params)
        assert y == points[k + 1]
    for k in range(1, len(seq) + 1):
        assert reconstruct(seq.digits[:k], params, tail=points[k]) == x


@given(
    st.sampled_from([2, 3, 5, 10, 17]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_float_orbit_kernel_agrees_across_views(m, u, n):
    params = new_params(m)
    x = u * params.theta
    if x * params.theta <= 2.0**-63:  # 0, or 1/(x*theta) beyond int64
        with pytest.raises(DomainError):
            expand(x, n, params, backend="float")
        return
    digits, points = float_digit_run(x, n, params)
    assert 1 <= len(digits) <= n and len(points) == len(digits) + 1
    assert np.all(digits >= m)
    assert np.all((points >= 0.0) & (points <= params.theta))
    seq = expand(x, n, params, backend="float")
    assert seq.digits == tuple(digits.tolist())
    assert seq.terminated == (points[-1] == 0.0)
    sample = sample_orbit(x, n, params, backend="float")
    assert sample.digits == seq
    assert sample.points == tuple(points.tolist())
    y = x
    for k, d in enumerate(seq.digits):
        assert digit_index(y, params, backend="float") == d
        y = gauss_map_apply(y, params, backend="float")
        assert y == points[k + 1]
