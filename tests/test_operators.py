"""Transfer operators: normalization, fixed points, contraction, decay."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, zeta

import oracle_values as ov
from thetacf import (
    DigitError,
    DomainError,
    GridFunction,
    OperatorConfig,
    OperatorSeriesError,
    apply_S,
    apply_S_power,
    apply_U,
    apply_V,
    apply_V_power,
    branch_inverse,
    branch_weight,
    contraction_km,
    contraction_q,
    cylinder,
    error_sequence,
    gamma_cdf,
    gk_iterate_cdf,
    gk_iterate_density,
    integrate_gamma,
    invariant_density_lambda,
    lipschitz_seminorm,
    markov_transition,
    new_params,
    pullback_measure,
    transfer_values,
    variation,
    weight_normalization_residual,
    weight_tail_mass,
)
from thetacf.families import lipschitz_family, monotone_family
from thetacf.operators import (
    _alternating_zeta,
    _cheb_machinery,
    _choose_tail,
    _digamma_diff,
    _fit_points,
    _operator_matrix,
    _zeta,
    _zeta_diff,
)

P2 = new_params(2)
P10 = new_params(10)


def nodes_of(params, degree=64):
    return _cheb_machinery(params.m, degree)[0]


class TestGridFunction:
    def test_reproduces_polynomials(self):
        f = GridFunction.from_callable(lambda x: x**3 - 2 * x + 0.5, P2, 64)
        xs = np.linspace(0, P2.theta, 101)
        assert np.max(np.abs(f(xs) - (xs**3 - 2 * xs + 0.5))) < 1e-14

    def test_node_hits(self):
        f = GridFunction.from_callable(lambda x: np.sin(x), P2, 32)
        assert f(float(f.nodes[7])) == pytest.approx(math.sin(f.nodes[7]), abs=1e-16)

    def test_derivative_spectral(self):
        f = GridFunction.from_callable(lambda x: x**3, P2, 64)
        df = f.derivative()
        xs = np.linspace(0, P2.theta, 50)
        assert np.max(np.abs(df(xs) - 3 * xs**2)) < 1e-11

    def test_scalar_fallback_and_domain(self):
        f = GridFunction.from_callable(lambda x: float(np.cos(x)), P2, 16)
        assert isinstance(f(0.1), float)
        with pytest.raises(DomainError):
            f(P2.theta + 0.05)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OperatorConfig(degree=4)


class TestBranches:
    def test_inverse_values(self):
        assert branch_inverse(2, 0.0, P2) == pytest.approx(P2.theta, abs=1e-15)
        assert branch_inverse(2, P2.theta, P2) == pytest.approx(ov.BRANCH2_AT_THETA_M2, abs=1e-15)
        for params in (P2, P10):
            assert branch_inverse(params.m, 0.0, params) == pytest.approx(params.theta, abs=1e-15)

    def test_inverse_monotone(self):
        xs = np.linspace(0, P2.theta, 20)
        v3, v4 = branch_inverse(3, xs, P2), branch_inverse(4, xs, P2)
        assert np.all(np.diff(v3) < 0) and np.all(v4 < v3)

    def test_weight_at_zero(self):
        for params in (P2, P10):
            m = params.m
            assert branch_weight(m, 0.0, params) == pytest.approx(1.0 / (m + 1), abs=1e-15)

    def test_weight_monotonicity_split_by_index(self):
        # P_m always falls from 1/(m+1) to 1/(m+2); far branches rise.
        xs = np.linspace(0, P2.theta, 50)
        for params in (P2, P10):
            m = params.m
            w = branch_weight(m, np.array([0.0, params.theta]), params)
            assert w[0] == pytest.approx(1.0 / (m + 1), abs=1e-15)
            assert w[1] == pytest.approx(1.0 / (m + 2), abs=1e-15)
        for i in (8, 12, 30):
            assert np.all(np.diff(branch_weight(i, xs, P2)) > 0)

    def test_branch_below_m_rejected(self):
        with pytest.raises(DigitError):
            branch_inverse(1, 0.1, P2)
        with pytest.raises(DigitError):
            branch_weight(9, 0.1, P10)

    def test_normalization_with_tail(self):
        for params in (P2, P10):
            for x in np.linspace(0.0, params.theta, 33):
                assert weight_normalization_residual(float(x), 500, params) <= 1e-14

    def test_tail_mass_formula(self):
        # brute partial sums complement the closed form
        x, N = 0.2, 400
        partial = math.fsum(branch_weight(i, x, P2) for i in range(2, N + 1))
        assert partial + weight_tail_mass(N, x, P2) == pytest.approx(1.0, abs=1e-14)


class TestFixedPoints:
    def test_u_fixes_constants(self):
        for params in (P2, P10):
            f = GridFunction.from_callable(lambda x: np.full_like(x, 3.7), params, 64)
            uf = apply_U(f)
            assert np.max(np.abs(uf.values - 3.7)) <= 1e-12

    def test_u_linearity(self):
        f = GridFunction.from_callable(lambda x: np.sin(3 * x), P2, 64)
        g = GridFunction.from_callable(lambda x: np.cos(x) - 0.3, P2, 64)
        lhs = apply_U(GridFunction(P2, 2 * f.values - 5 * g.values))
        rhs = 2 * apply_U(f).values - 5 * apply_U(g).values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-11

    def test_v_fixes_inverse_weight_shape(self):
        for params in (P2, P10):
            f = GridFunction.from_callable(lambda x, p=params: 1.7 / (1 + p.theta * x), params, 64)
            vf = apply_V(f)
            assert np.max(np.abs(vf.values - f.values)) <= 1e-10

    def test_v_of_one_matches_zeta_series(self):
        # V 1 (x) = sum_i 1/(i*theta+x)^2 = m * zeta(2, m + x/theta)
        f = GridFunction.from_callable(lambda x: np.ones_like(x), P2, 64)
        vf = apply_V(f)
        xs = vf.nodes
        expected = P2.m * zeta(2, P2.m + xs / P2.theta)
        assert np.max(np.abs(vf.values - expected)) < 1e-12
        assert np.all(np.diff(vf.values) < 0) and np.all(vf.values > 0)

    def test_s_with_invariant_density_fixes_constants(self):
        for params in (P2, P10):
            h = GridFunction.from_callable(lambda x, p=params: invariant_density_lambda(x, p), params, 64)
            f = GridFunction.from_callable(lambda x: np.ones_like(x), params, 64)
            sf = apply_S(f, h)
            assert np.max(np.abs(sf.values - 1.0)) <= 1e-12

    def test_s_with_unit_density_is_v(self):
        h = GridFunction.from_callable(lambda x: np.ones_like(x), P2, 64)
        f = GridFunction.from_callable(lambda x: np.exp(-x), P2, 64)
        assert np.max(np.abs(apply_S(f, h).values - apply_V(f).values)) < 1e-11

    def test_s_rejects_vanishing_density(self):
        h = GridFunction.from_callable(lambda x: x, P2, 64)  # zero at 0
        f = GridFunction.from_callable(lambda x: np.ones_like(x), P2, 64)
        with pytest.raises(DomainError):
            apply_S(f, h)


class TestPowerRelations:
    def test_v_squared_two_ways(self):
        for params in (P2, P10):
            f = GridFunction.from_callable(lambda x: np.sin(2 * x) + 1.5, params, 64)
            direct = apply_V(apply_V(f))
            via_u = apply_V_power(f, 2)
            assert np.max(np.abs(direct.values - via_u.values)) <= 1e-10

    def test_s_squared_two_ways(self):
        h = GridFunction.from_callable(lambda x: 1.0 + x, P2, 64)
        f = GridFunction.from_callable(lambda x: np.cos(3 * x), P2, 64)
        direct = apply_S(apply_S(f, h), h)
        via_u = apply_S_power(f, h, 2)
        assert np.max(np.abs(direct.values - via_u.values)) <= 1e-10


class TestMonotoneReversal:
    def test_nondecreasing_maps_to_nonincreasing(self):
        rng = np.random.default_rng(31)
        xs = nodes_of(P2, 128)
        for tf in monotone_family(P2, rng, 50):
            vals = transfer_values(tf.fn, xs, P2)
            assert np.all(np.diff(vals) <= 1e-12 * max(1.0, np.max(np.abs(vals))))


class TestContraction:
    def test_variation_contracts(self):
        rng = np.random.default_rng(41)
        for params in (P2, P10):
            km = float(contraction_km(params.m))
            xs = nodes_of(params, 256)
            for tf in monotone_family(params, rng, 50):
                vals = transfer_values(tf.fn, xs, params)
                var_u = float(np.sum(np.abs(np.diff(vals))))
                assert var_u <= km * tf.variation + 1e-10

    def test_lipschitz_contracts(self):
        rng = np.random.default_rng(43)
        for params in (P2, P10):
            q = contraction_q(params, 1e-10)
            for tf in lipschitz_family(params, rng, 50):
                uf = GridFunction(params, transfer_values(tf.fn, nodes_of(params), params))
                assert lipschitz_seminorm(uf) <= q * tf.seminorm + 1e-8


class TestVariationAndSeminorm:
    def test_monotone_definition(self):
        f = GridFunction.from_callable(lambda x: np.exp(x), P2, 64)
        v = variation(f, assume_monotone=True)
        assert v == pytest.approx(math.exp(P2.theta) - 1.0, abs=1e-12)

    def test_constant_zero(self):
        f = GridFunction.from_callable(lambda x: np.full_like(x, 2.2), P2, 64)
        assert variation(f) <= 1e-12
        assert lipschitz_seminorm(f) <= 1e-10

    def test_oscillating_variation(self):
        f = GridFunction.from_callable(lambda x: np.sin(20 * x), P2, 64)
        # total variation of sin(20x) on [0, theta]: sum of |arc increments|
        xs = np.linspace(0, P2.theta, 20001)
        ref = np.sum(np.abs(np.diff(np.sin(20 * xs))))
        assert variation(f) == pytest.approx(ref, rel=1e-4)

    def test_identity_seminorm(self):
        f = GridFunction.from_callable(lambda x: x, P2, 64)
        assert lipschitz_seminorm(f) == pytest.approx(1.0, abs=1e-10)

    def test_refinement_monotone(self):
        fn = lambda x: np.sin(9 * x) * np.cos(2 * x)
        v1 = variation(fn, params=P2, refinements=(1,))
        v2 = variation(fn, params=P2, refinements=(1, 2, 4, 8))
        assert v2 >= v1


class TestMarkovTransition:
    def test_full_space_and_empty(self):
        for x in (0.0, 0.2, P2.theta):
            assert markov_transition(x, [(0.0, P2.theta)], P2) == pytest.approx(1.0, abs=1e-14)
        assert markov_transition(0.3, [], P2) == 0.0

    def test_first_cylinder_single_branch(self):
        for params in (P2, P10):
            cyl = cylinder([params.m], params)
            val = markov_transition(0.0, [(cyl.lower, cyl.upper)], params)
            assert val == pytest.approx(1.0 / (params.m + 1), abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(53)
        th = P2.theta
        i = np.arange(2, 200001, dtype=float)
        for _ in range(12):
            x = float(rng.uniform(0, th))
            a, b = sorted(rng.uniform(0, th, size=2))
            u = 1.0 / (i * th + x)
            w = (th * x + 1.0) / ((x + i * th) * (x + (i + 1) * th))
            brute = float(np.sum(w[(u > a) & (u <= b)]))
            val = markov_transition(x, [(a, b)], P2)
            assert val == pytest.approx(brute, abs=1e-9)

    def test_disjoint_union_adds(self):
        a = markov_transition(0.1, [(0.0, 0.3)], P2)
        b = markov_transition(0.1, [(0.3, P2.theta)], P2)
        assert a + b == pytest.approx(1.0, abs=1e-13)

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            markov_transition(0.1, [(0.0, 0.4), (0.3, 0.5)], P2)

    def test_malformed_rejected(self):
        with pytest.raises(DomainError):
            markov_transition(0.1, [(0.5, 0.2)], P2)
        with pytest.raises(DomainError):
            markov_transition(0.9, [(0.0, 0.5)], P2)


class TestDistributionIteration:
    def test_invariant_start_is_fixed(self):
        for params in (P2, P10):
            F0 = GridFunction.from_callable(lambda x, p=params: gamma_cdf(x, p), params, 64)
            Fs = gk_iterate_cdf(F0, 5)
            limit = GridFunction.from_callable(lambda x, p=params: gamma_cdf(x, p), params, 64)
            for F in Fs:
                assert np.max(np.abs(F.values - limit.values)) <= 1e-12

    def test_endpoints_preserved(self):
        nodes = nodes_of(P10)
        F0 = GridFunction(P10, nodes / P10.theta)
        Fs = gk_iterate_cdf(F0, 8)
        for F in Fs:
            assert abs(F.values[0]) <= 1e-13
            assert abs(F.values[-1] - 1.0) <= 1e-13
            assert np.all(np.diff(F.values) >= -1e-12)

    def test_rejects_non_cdf(self):
        nodes = nodes_of(P2)
        with pytest.raises(ValueError):
            gk_iterate_cdf(GridFunction(P2, nodes), 1)  # F(theta) != 1
        bad = np.linspace(0, 1, nodes.size)
        bad[5] = 0.9
        with pytest.raises(ValueError):
            gk_iterate_cdf(GridFunction(P2, bad), 1)

    def test_step_derivative_matches_lebesgue_operator(self):
        # d/dx of one distribution step = V applied to the density
        nodes = nodes_of(P2)
        F0 = GridFunction(P2, nodes / P2.theta)
        F1 = gk_iterate_cdf(F0, 1)[1]
        dF1 = F1.derivative()
        dF0 = GridFunction(P2, np.full(nodes.size, 1.0 / P2.theta))
        v_dF0 = apply_V(dF0)
        assert np.max(np.abs(dF1.values - v_dF0.values)) < 1e-8

    def test_density_orbit_matches_cdf_orbit(self):
        nodes = nodes_of(P2)
        F0 = GridFunction(P2, nodes / P2.theta)
        f0 = GridFunction(P2, (1.0 + P2.theta * nodes) / P2.theta)
        Fs = gk_iterate_cdf(F0, 3)
        fs = gk_iterate_density(f0, 3)
        for F, f in zip(Fs[1:], fs[1:]):
            dF = F.derivative()
            implied = (1.0 + P2.theta * nodes) * dF.values
            assert np.max(np.abs(implied - f.values)) < 1e-8

    def test_constant_density_flows_to_constant(self):
        f0 = GridFunction.from_callable(lambda x: np.ones_like(x), P2, 64)
        fs = gk_iterate_density(f0, 3)
        for f in fs:
            assert np.max(np.abs(f.values - 1.0)) <= 1e-12


class TestErrorSequence:
    def test_fixed_point_report(self):
        F0 = GridFunction.from_callable(lambda x: gamma_cdf(x, P10), P10, 64)
        Fs = gk_iterate_cdf(F0, 4)
        rep = error_sequence(Fs)
        assert all(e <= 1e-12 for e in rep.sup_errors)
        assert rep.q_reference == pytest.approx(ov.Q_CONST[10], abs=1e-9)
        rows = rep.csv_rows()
        assert rows[0] == ["n", "sup_error", "ratio", "M_n", "q_reference"]
        assert rows[1][2] == ""

    def test_uniform_start_decays_geometrically(self):
        nodes = nodes_of(P10)
        F0 = GridFunction(P10, nodes / P10.theta)
        f0 = GridFunction(P10, (1.0 + P10.theta * nodes) / P10.theta)
        Fs = gk_iterate_cdf(F0, 9)
        rep = error_sequence(Fs, f0=f0)
        q = rep.q_reference
        floor = rep.noise_floor
        first_below = next((k for k, e in enumerate(rep.sup_errors) if e < floor), len(rep.sup_errors))
        for k in range(1, len(rep.ratios)):
            if k + 1 < first_below:
                assert rep.ratios[k] <= q + 0.02
        assert rep.sup_errors[8] < 1e-11


class TestPullback:
    def test_invariant_measure_unchanged(self):
        h = GridFunction.from_callable(lambda x: invariant_density_lambda(x, P2), P2, 64)
        for n in (0, 1, 3):
            val = pullback_measure((0.1, 0.5), n, h, P2)
            ref = gamma_cdf(0.5, P2) - gamma_cdf(0.1, P2)
            assert val == pytest.approx(ref, abs=1e-10)

    def test_zero_steps_returns_plain_mass(self):
        val = pullback_measure((0.1, 0.4), 0, None, P2)
        assert val == pytest.approx(0.3 / P2.theta, abs=1e-12)

    def test_uniform_one_step_digamma_oracle(self):
        # mass of [0,x] after one step from the uniform start equals
        # m*(psi(m + x/theta) - psi(m)); two independent evaluations
        for x in (0.2, 0.5, P2.theta):
            val = pullback_measure((0.0, x), 1, None, P2)
            t = x / P2.theta
            ref = P2.m * (digamma(P2.m + t) - digamma(P2.m))
            assert val == pytest.approx(float(ref), abs=1e-10)

    def test_gamma_integration_helper(self):
        total = integrate_gamma(lambda x: np.ones_like(x), 0.0, P2.theta, P2)
        assert total == pytest.approx(1.0, abs=1e-13)


def test_series_budget_exhaustion_raises():
    # sqrt(x) has unbounded derivatives at 0, so no fitting window near 0
    # meets the folding tolerance within the branch budget
    fn = lambda x: np.sqrt(np.asarray(x, dtype=float))
    with pytest.raises(OperatorSeriesError):
        transfer_values(fn, nodes_of(P2), P2)


class TestEulerMaclaurinHelpers:
    """The numpy Hurwitz-zeta and digamma helpers behind the operator tails.

    The reference is a direct mpmath sum over n < 64 plus an Euler-Maclaurin
    tail at a + 64 with twelve Bernoulli terms, at 40 digits.  mpmath's own
    zeta(s, a) is not used: at s = 40, a = 257 it is off by 5e-10 at 40
    digits and still by 1e-13 at 100.
    """

    A = (257.0, 257.5, 4097.0, 262145.0)
    T = (0.0, 1e-8, 0.3, 1.0)

    @staticmethod
    def _hurwitz(s, a, N=64):
        direct = mp.fsum((n + a) ** (-s) for n in range(N))
        b = a + N
        tail = b ** (1 - s) / (s - 1) + b ** (-s) / 2 + mp.fsum(
            mp.bernoulli(2 * k) / mp.factorial(2 * k) * mp.rf(s, 2 * k - 1) * b ** (-s - 2 * k + 1)
            for k in range(1, 13)
        )
        return direct + tail

    @staticmethod
    def _close(got, ref):
        # relative 2e-15 wherever the reference is representable well above underflow
        if abs(ref) > 1e-290:
            assert abs(float(got) - ref) <= 2e-15 * abs(ref)

    def test_zeta_and_difference(self):
        with mp.workdps(40):
            for a in self.A:
                am = mp.mpf(a)
                for s in range(2, 41):
                    z = self._hurwitz(s, am)
                    self._close(_zeta(s, a), z)
                    for t in self.T:
                        got = _zeta_diff(s, a, t)
                        if t == 0.0:
                            assert got == 0.0
                        else:
                            self._close(got, z - self._hurwitz(s, am + mp.mpf(t)))

    def test_alternating_sum(self):
        # sum_j (-1)^j zeta(s + j, a), the tail moments of U, for s = k + 2 with k <= 16
        a = np.array(self.A)
        with mp.workdps(40):
            for s in range(2, 19):
                got = _alternating_zeta(s, a)
                for g, x in zip(got, self.A):
                    am = mp.mpf(x)
                    self._close(g, mp.fsum((-1) ** j * self._hurwitz(s + j, am) for j in range(25)))

    def test_alternating_sum_for_many_orders_at_once(self):
        # the U tail asks for all nine orders in one call; each column is that order's sum
        a = np.array(self.A)
        together = _alternating_zeta(np.arange(2, 11), a)
        assert together.shape == (a.size, 9)
        for j, s in enumerate(range(2, 11)):
            one = _alternating_zeta(s, a)
            assert np.max(np.abs(together[:, j] - one) / np.abs(one)) <= 4.5e-16

    def test_digamma_difference(self):
        with mp.workdps(40):
            for a in self.A:
                for t in self.T:
                    got = _digamma_diff(a, t)
                    if t == 0.0:
                        assert got == 0.0
                    else:
                        self._close(got, mp.digamma(mp.mpf(a) + mp.mpf(t)) - mp.digamma(mp.mpf(a)))

    def test_vectorised_like_scalar(self):
        t = np.array(self.T)
        assert np.array_equal(_zeta_diff(5, 257.0, t), [_zeta_diff(5, 257.0, x) for x in self.T])
        assert np.array_equal(_digamma_diff(4097.0, t), [_digamma_diff(4097.0, x) for x in self.T])
        a = np.array(self.A)
        assert np.array_equal(_zeta(3, a), [_zeta(3, x) for x in self.A])

    def test_outside_validity_rejected(self):
        with pytest.raises(ValueError):
            _zeta(2, 100.0)
        with pytest.raises(ValueError):
            _zeta_diff(2, np.array([300.0, 10.0]), 0.5)
        with pytest.raises(ValueError):
            _digamma_diff(255.0, 0.5)
        with pytest.raises(ValueError):
            _zeta(65, 300.0)


# ---------------------------------------------------------------------------
# the assembled matrices behind apply_U, apply_V and the distribution step
# ---------------------------------------------------------------------------

MATRIX_M = (2, 3, 5, 10, 17, 101)


def _gk_step_series(F, params):
    """One distribution step by the per-call series, independent of the matrices.

    Direct differences F(1/(i*theta)) - F(u_i(x)) up to the same cutoff N,
    and the remainder folded through the power-basis coefficients of the
    fit: coefficient k times the digamma (k = 1) or zeta (k >= 2)
    difference of the tail moments.
    """
    th = params.theta
    xs = F.nodes
    N, ys = _choose_tail(F, params, "gk")
    umax = 1.0 / ((N + 1) * th)
    coef = np.polynomial.polynomial.polyfit(_fit_points(umax) / umax, ys, 8)
    i = np.arange(params.m, N + 1, dtype=float)[:, None]
    direct = np.sum(F(np.clip(1.0 / (i * th), 0.0, th)) - F(np.clip(1.0 / (i * th + xs), 0.0, th)), axis=0)
    t = xs / th
    tail = sum(
        coef[k] / umax**k * (_digamma_diff(N + 1, t) / th if k == 1 else _zeta_diff(k, N + 1, t) / th**k)
        for k in range(1, 9)
    )
    return direct + tail


def _smooth_grid_function(params, rng):
    """A random degree-64 polynomial with Chebyshev coefficients decaying like r^k.

    r <= 0.5 keeps the cutoff N near its first value: slower decay at
    m = 101 puts enough of f beyond a degree-8 fit on the tail interval
    (which spans 40% of [0, theta] there) to double N up to 8192, which
    is correct but makes each example cost up to a second.
    """
    th = params.theta
    coef = rng.uniform(-1.0, 1.0, 65) * rng.uniform(0.1, 0.5) ** np.arange(65) * 10 ** rng.uniform(-1.0, 1.0)
    return GridFunction(params, np.polynomial.chebyshev.chebval(2.0 * nodes_of(params) / th - 1.0, coef))


def _smooth_cdf(params, rng):
    """x/theta + b sin(k pi x/theta)/(k pi) + c (x/theta)(1 - x/theta), non-decreasing for |b| + |c| <= 1."""
    s = nodes_of(params) / params.theta
    b, c = rng.uniform(-0.5, 0.5, 2)
    k = int(rng.integers(1, 5))
    return GridFunction(params, s + b * np.sin(k * np.pi * s) / (k * np.pi) + c * s * (1.0 - s))


@given(st.sampled_from(MATRIX_M), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_matrix_route_matches_the_series_on_a_plain_callable(m, seed):
    params = new_params(m)
    rng = np.random.default_rng(seed)
    f = _smooth_grid_function(params, rng)
    tol = 1e-13 * max(1.0, float(np.max(np.abs(f.values))))
    plain = lambda x: f(x)
    assert np.max(np.abs(apply_U(f).values - transfer_values(plain, f.nodes, params, operator="U"))) <= tol
    assert np.max(np.abs(apply_V(f).values - transfer_values(plain, f.nodes, params, operator="V"))) <= tol
    F = _smooth_cdf(params, rng)
    assert np.max(np.abs(gk_iterate_cdf(F, 1)[1].values - _gk_step_series(F, params))) <= 1e-13


class TestAssembledMatrices:
    def test_spot_values_match_mpmath_nsum(self):
        for params in (P2, P10):
            th, m = params.theta, params.m
            f = GridFunction.from_callable(lambda x: np.cos(3 * x / th) + x, params, 64)
            F = GridFunction.from_callable(lambda x: x / th + 0.5 * np.sin(np.pi * x / th) / np.pi, params, 64)
            U, V, G = apply_U(f).values, apply_V(f).values, gk_iterate_cdf(F, 1)[1].values
            with mp.workdps(30):
                t = mp.mpf(th)
                fm = lambda u: mp.cos(3 * u / t) + u
                Fm = lambda u: u / t + mp.sin(mp.pi * u / t) / (2 * mp.pi)
                for j in (0, 20, 45, 64):
                    x = mp.mpf(float(f.nodes[j]))
                    weight = lambda i: (t * x + 1) / ((x + i * t) * (x + (i + 1) * t))
                    u = mp.nsum(lambda i: weight(i) * fm(1 / (i * t + x)), [m, mp.inf])
                    v = mp.nsum(lambda i: fm(1 / (i * t + x)) / (i * t + x) ** 2, [m, mp.inf])
                    g = mp.nsum(lambda i: Fm(1 / (i * t)) - Fm(1 / (i * t + x)), [m, mp.inf])
                    assert abs(U[j] - float(u)) <= 1e-14
                    assert abs(V[j] - float(v)) <= 1e-14
                    assert abs(G[j] - float(g)) <= 1e-14

    def test_u_rows_sum_to_one(self):
        for m in MATRIX_M:
            params = new_params(m)
            M = _operator_matrix(params, 64, "U", max(256, m + 1))
            assert np.max(np.abs(M.sum(axis=1) - 1.0)) <= 1e-14

    def test_same_bytes_from_cold_and_warm_cache(self):
        f = GridFunction.from_callable(lambda x: np.exp(-3 * x) + np.sin(5 * x), P10, 64)
        F = GridFunction.from_callable(lambda x: gamma_cdf(x, P10), P10, 64)

        def results():
            return [apply_U(f).values.tobytes(), apply_V(f).values.tobytes(), gk_iterate_cdf(F, 2)[2].values.tobytes()]

        _operator_matrix.cache_clear()
        cold = results()
        warm = results()
        _operator_matrix.cache_clear()
        assert cold == warm == results()

    def test_matrix_is_read_only_and_never_aliased(self):
        f = GridFunction.from_callable(lambda x: np.cos(x), P2, 64)
        N, _ = _choose_tail(f, P2, "U")
        M = _operator_matrix(P2, 64, "U", N)
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
        for g in (apply_U(f), apply_V_power(f, 1), apply_S_power(f, f.with_values(np.ones(65)), 1)):
            assert not np.shares_memory(g.values, M)
        assert _operator_matrix(P2, 64, "U", N) is M
