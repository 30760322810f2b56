"""Invariant measure, digit law, and the scalar constants."""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import zeta

import oracle_values as ov
from thetacf import constants as constants_module
from thetacf import (
    DigitError,
    DomainError,
    QuadratureError,
    constants_report,
    contraction_km,
    contraction_q,
    digit_law,
    entropy,
    gamma_cdf,
    gk_limit_cdf,
    invariant_density_lambda,
    khintchin_product,
    levy_beta,
    new_params,
)

P2 = new_params(2)
P10 = new_params(10)


@lru_cache(maxsize=None)
def mp_beta(m):
    """-(1/L) int_0^theta theta log x/(1+theta x) dx = log(m)/2 - Li2(-1/m)/L."""
    with mp.workdps(30):
        return float(mp.log(m) / 2 - mp.polylog(2, -mp.mpf(1) / m) / mp.log1p(mp.mpf(1) / m))


@lru_cache(maxsize=None)
def mp_khintchin(m):
    """exp(sum_{k>=m} log k log1p(1/(k(k+2))) / L): a direct sum below K, then
    quadrature of the tail plus three Euler-Maclaurin corrections at K."""
    with mp.workdps(25):
        f = lambda k: mp.log(k) * mp.log1p(1 / (k * (k + 2)))
        K = max(2000, m)
        s = mp.fsum(f(mp.mpf(k)) for k in range(m, K))
        tail = (
            mp.quad(f, [K, mp.inf])
            + f(mp.mpf(K)) / 2
            - mp.diff(f, K) / 12
            + mp.diff(f, K, 3) / 720
            - mp.diff(f, K, 5) / 30240
        )
        return float(mp.exp((s + tail) / mp.log1p(mp.mpf(1) / m)))


class TestGammaCdf:
    def test_endpoints(self):
        for params in (P2, P10):
            assert gamma_cdf(0.0, params) == 0.0
            assert gamma_cdf(params.theta, params) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_value(self):
        assert gamma_cdf(0.5, P2) == pytest.approx(ov.GAMMA_CDF_HALF_M2, abs=1e-15)

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, P2.theta, 500)
        vals = gamma_cdf(xs, P2)
        assert np.all(np.diff(vals) > 0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gamma_cdf(-0.1, P2)
        with pytest.raises(DomainError):
            gamma_cdf(P2.theta + 0.1, P2)

    def test_limit_form_identical(self):
        for params in (P2, P10):
            xs = np.linspace(0.0, params.theta, 1000)
            dev = np.max(np.abs(gk_limit_cdf(xs, params) - gamma_cdf(xs, params)))
            assert dev <= 1e-14

    def test_invariance_under_preimages(self):
        # sum_i [G(1/(i*theta)) - G(1/(i*theta + x))] telescopes back to G(x)
        th = P2.theta
        N = 20000
        i = np.arange(2, N + 1, dtype=float)
        for x in (0.1, 0.33, 0.5, th):
            terms = gamma_cdf(np.minimum(1.0 / (i * th), th), P2) - gamma_cdf(1.0 / (i * th + x), P2)
            tail = math.log1p(x / ((N + 1) * th)) / P2.log_normalizer
            total = math.fsum(terms.tolist()) + tail
            assert total == pytest.approx(gamma_cdf(x, P2), abs=1e-10)


class TestDigitLaw:
    def test_frozen_value(self):
        assert digit_law(2, P2) == pytest.approx(ov.DIGIT_LAW_2_M2, abs=1e-15)

    def test_normalization(self):
        for params in (P2, P10):
            m = params.m
            K = 10**6
            ks = np.arange(m, K + 1, dtype=float)
            partial = math.fsum(digit_law(ks, params).tolist())
            tail = math.log((K + 2) / (K + 1)) / params.log_normalizer
            assert partial + tail == pytest.approx(1.0, abs=1e-12)

    def test_decreasing(self):
        ks = np.arange(2, 5000)
        vals = digit_law(ks, P2)
        assert np.all(np.diff(vals) < 0)

    def test_below_m_rejected(self):
        with pytest.raises(DigitError):
            digit_law(1, P2)
        with pytest.raises(DigitError):
            digit_law(9, P10)

    def test_matches_cylinder_mass(self):
        # law(k) = G(upper) - G(lower) over the rank-1 cylinder
        from thetacf import cylinder

        for k in (2, 3, 7):
            cyl = cylinder([k], P2)
            mass = gamma_cdf(float(cyl.upper), P2) - gamma_cdf(float(cyl.lower), P2)
            assert digit_law(k, P2) == pytest.approx(mass, abs=1e-14)


class TestBeta:
    def test_frozen_values(self):
        for m, ref in ov.BETA.items():
            assert levy_beta(new_params(m), 1e-12) == pytest.approx(ref, abs=1e-11)
            # every scheme meets the requested tolerance on beta itself, not
            # only on the integral before the division by log(1+1/m)
            for method in ("split", "series", "logweight"):
                assert levy_beta(new_params(m), 1e-10, method=method) == pytest.approx(ref, abs=1e-10)
            assert constants_report(m, 1e-10).entropy == pytest.approx(2.0 * ref, abs=1e-10)

    def test_positive(self):
        for m in (2, 3, 5, 10, 17):
            assert levy_beta(new_params(m), 1e-10) > 0

    def test_three_schemes_agree(self):
        for params in (P2, P10):
            b1 = levy_beta(params, 1e-12, method="split")
            b2 = levy_beta(params, 1e-12, method="series")
            b3 = levy_beta(params, 1e-12, method="logweight")
            assert abs(b1 - b2) <= 1e-10
            assert abs(b1 - b3) <= 1e-10

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            levy_beta(P2, 1e-10, method="simpson")


@pytest.mark.parametrize("tol", (1e-10, 1e-12))
@pytest.mark.parametrize("m", (2, 3, 10, 101, 500, 2382, 4099, 20011, 99991))
def test_tolerance_contract(m, tol):
    """Every constant meets its tolerance, and its reported error bounds the true one."""
    params = new_params(m)
    ref = mp_beta(m)
    for method, scheme in constants_module._BETA_METHODS.items():
        value, achieved = scheme(params, tol)
        assert value == levy_beta(params, tol, method=method)
        assert abs(value - ref) <= tol / 2, method
        assert abs(value - ref) <= achieved + 1e-16 * ref, method
    try:
        value, achieved = constants_module._khintchin_detailed(params, tol)
    except QuadratureError:
        return
    ref = mp_khintchin(m)
    assert abs(value - ref) <= tol
    assert abs(value - ref) <= achieved + 1e-16 * ref


class TestEntropy:
    def test_twice_beta_by_construction(self):
        assert entropy(P2, 1e-12) == 2.0 * levy_beta(P2, 1e-12)

    def test_independent_quadrature(self):
        # integral of -log(x^2) against the invariant measure, by the
        # log-weighted QUADPACK rule (a different path than the split scheme)
        for params in (P2, P10):
            th = params.theta
            L = params.log_normalizer
            val, err = integrate.quad(
                lambda x: -2.0 * th / ((1.0 + th * x) * L), 0.0, th, weight="alg-loga", wvar=(0.0, 0.0)
            )
            assert entropy(params, 1e-12) == pytest.approx(val, abs=1e-9)

    def test_positive(self):
        assert entropy(P2) > 0


class TestKhintchin:
    def test_frozen_values(self):
        for m, ref in ov.KHINTCHIN.items():
            assert khintchin_product(new_params(m), 1e-10) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("m", (151, 500, 2381))
    def test_tail_right_past_m_151(self, m):
        # the tail beyond the cutoff once came from an adaptive rule that
        # failed there without notice: m=500 gave 1354.96 for 1359.14
        assert khintchin_product(new_params(m), 1e-10) == pytest.approx(mp_khintchin(m), abs=1e-10)

    def test_rounding_beyond_tolerance_raises(self):
        # at m=4099 the float rounding of the sum alone is above 1e-10
        with pytest.raises(QuadratureError):
            khintchin_product(new_params(4099), 1e-10)

    def test_at_least_m(self):
        for m in (2, 3, 5, 10, 17):
            assert khintchin_product(new_params(m), 1e-8) > m


class TestContraction:
    def test_km_exact(self):
        assert contraction_km(10) == Fraction(1, 11)
        assert contraction_km(2) == Fraction(1, 3)
        for m in (2, 3, 5, 10, 17):
            assert 0 < contraction_km(m) < 1

    def test_q_frozen_values(self):
        for m, ref in ov.Q_CONST.items():
            assert contraction_q(new_params(m), 1e-12) == pytest.approx(ref, abs=1e-11)

    def test_q_zeta_closed_form(self):
        # independent oracle: partial fractions turn the series into
        # Hurwitz zeta values
        for m in (2, 3, 5, 10, 17):
            closed = m * (
                m * (zeta(3, m) - zeta(2, m) + 1.0 / m)
                + (1.0 / m - zeta(2, m + 1))
                - m * (1.0 / m - zeta(2, m + 1) - zeta(3, m + 1))
            )
            assert contraction_q(new_params(m), 1e-12) == pytest.approx(closed, abs=1e-10)

    def test_q_below_theta_and_decreasing(self):
        qs = []
        for m in (2, 3, 5, 6, 7, 8, 10):
            params = new_params(m)
            q = contraction_q(params, 1e-10)
            assert 0 < q < params.theta
            qs.append(q)
        assert all(b < a for a, b in zip(qs, qs[1:]))


@lru_cache(maxsize=None)
def mp_q(m):
    """m * (2m zeta(3, m) - zeta(2, m)), the collapsed series of q."""
    with mp.workdps(40):
        return m * (2 * m * mp.zeta(3, m) - mp.zeta(2, m))


def _check_q_contract(m):
    params = new_params(m)
    q, bound = constants_module._contraction_q_detailed(params, 1e-10)
    assert abs(mp.mpf(q) - mp_q(m)) <= bound
    assert bound <= 1e-15
    assert contraction_q(params, 1e-10) == q
    # 1e-8 keeps the geometric mean clear of its float64 rounding up to m = 1e5
    assert constants_report(m, 1e-8).tolerances["q"] == bound


@pytest.mark.parametrize("m", [2, 3, 10, 101, 4099, 20011, 99991])
def test_q_contract(m):
    _check_q_contract(m)


@given(st.integers(2, 10**5).filter(lambda m: math.isqrt(m) ** 2 != m))
@settings(max_examples=30, deadline=None)
def test_q_contract_drawn_m(m):
    _check_q_contract(m)


class TestReport:
    def test_six_decimal_reference_values(self):
        r10 = constants_report(10, 1e-10)
        assert r10.theta == pytest.approx(0.316228, abs=1e-6)
        assert r10.q == pytest.approx(0.0533201, abs=5e-7)
        r17 = constants_report(17, 1e-10)
        assert r17.theta == pytest.approx(0.242536, abs=1e-6)
        assert r17.q == pytest.approx(0.0305636, abs=5e-7)

    def test_fields_and_tolerances(self):
        rep = constants_report(5, 1e-9)
        assert rep.entropy == 2.0 * rep.beta
        assert rep.k_m == Fraction(1, 6)
        assert rep.q_lt_theta
        assert set(rep.tolerances) == {"requested", "beta", "entropy", "khintchin_geo", "q"}
        assert all(v <= 1e-9 for k, v in rep.tolerances.items() if k != "requested")
        d = rep.to_json_dict()
        assert d["k_m"] == "1/6"
        assert d["k_m_float"] == pytest.approx(1 / 6)

    def test_q_lt_theta_sweep(self):
        for m in (2, 3, 5, 6, 7, 8, 10, 12, 15, 17, 26, 50, 99):
            rep = constants_report(m, 1e-8)
            assert rep.q_lt_theta, f"contraction constant not below theta for m={m}"


def test_invariant_density_normalized():
    for params in (P2, P10):
        val = integrate.quad(
            lambda x: invariant_density_lambda(x, params) / params.theta, 0, params.theta
        )[0]
        assert val == pytest.approx(1.0, abs=1e-12)
