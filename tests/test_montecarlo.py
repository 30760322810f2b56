"""Orbit ensembles: determinism, exact bounds, and limit-law statistics."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_values as ov
from thetacf import (
    DomainError,
    QThetaNumber,
    RngConfig,
    TerminationError,
    approx_error_statistic,
    arithmetic_mean_statistic,
    check_cylinder_bounds,
    check_error_bounds,
    digit_frequency,
    digit_law,
    ergodic_report,
    exact_orbit_statistics,
    expand,
    geometric_mean_statistic,
    levy_statistic,
    new_params,
    sample_orbit,
)
from thetacf.montecarlo import DigitHistogram, float_digit_run, random_rational_seed

P2 = new_params(2)
P10 = new_params(10)


class TestSampling:
    def test_exact_orbit_matches_expand(self):
        s = sample_orbit(Fraction(1, 2), 6, P2, backend="exact")
        assert s.digits.digits == expand(Fraction(1, 2), 6, P2).digits
        assert len(s.points) == 7
        assert s.points[0] == QThetaNumber(Fraction(1, 2), Fraction(0), 2)

    def test_float_orbit_prefix_agrees(self):
        s = sample_orbit(0.5, 8, P2, backend="float")
        assert s.digits.digits[:4] == (2, 2, 4, 2)

    def test_one_digit_point_terminates(self):
        x = QThetaNumber(Fraction(0), Fraction(4), 2).reciprocal()
        s = sample_orbit(x, 10, P2)
        assert s.digits.digits == (4,) and s.digits.terminated

    def test_random_start_requires_rng(self):
        with pytest.raises(ValueError):
            sample_orbit(None, 5, P2)
        gen = RngConfig(seed=1).generator(0, 0)
        s = sample_orbit(None, 5, P2, backend="exact", rng=gen)
        assert len(s.digits) >= 1

    def test_fixed_seed_reproducible(self):
        g1 = RngConfig(seed=9).generator(0, 0)
        g2 = RngConfig(seed=9).generator(0, 0)
        s1 = sample_orbit(None, 20, P2, backend="float", rng=g1)
        s2 = sample_orbit(None, 20, P2, backend="float", rng=g2)
        assert s1.digits.digits == s2.digits.digits

    def test_rational_seed_inside_domain(self):
        gen = RngConfig(seed=5).generator(0, 0)
        for _ in range(200):
            x = random_rational_seed(gen, P2)
            assert 0 < x < Fraction(70711, 100000) + Fraction(1, 10)
            assert x.numerator**2 * 2 < x.denominator**2

    def test_float_start_checked_like_exact(self):
        # outside [0, theta], zero, and a start whose 1/(x*theta) overflows int64
        for bad in (5.0, 0.0, 1e-25):
            with pytest.raises(DomainError):
                sample_orbit(bad, 5, P2, backend="float")
        with pytest.raises(DomainError):
            float_digit_run(1e-25, 5, P2)
        digits, pts = float_digit_run(0.0, 5, P2)
        assert digits.size == 0 and pts.tolist() == [0.0]

    def test_float_run_digit_law_shape(self):
        digits, pts = float_digit_run(0.3, 5000, P2)
        assert digits.min() >= 2
        assert np.all((pts >= 0) & (pts <= P2.theta))


#: sha256 of float_digit_run output, digits as <i8 then points as <f8,
#: over the four starts ergodic_report draws at seed 3, 65 536 digits each.
#: A deliberate change to the float sample stream needs a version bump.
FLOAT_STREAM_SHA256 = {
    2: "44060e1ea88f4a1eea92e1d14b1569856c049559cbc3a4a3a2bf058b86925349",
    3: "7cead91f2294a8b569124af12e7524f2c439703201c609d605770c8a8419a483",
    10: "280c40e3f3b9282d1d96b188994c55bb0ed0cb4b13d9ca263cc724ec4263e4b7",
    101: "132c7f24200bf67a9307affb31a0a90b569242947338dda4065726cda80fc67c",
}


def test_float_sample_stream_frozen():
    cfg = RngConfig(seed=3)
    for m, want in FLOAT_STREAM_SHA256.items():
        params = new_params(m)
        h = hashlib.sha256()
        for j in range(4):
            gen = cfg.generator(1, j)
            u = gen.random()
            while u == 0.0:
                u = gen.random()
            digits, points = float_digit_run(u * params.theta, 65_536, params)
            h.update(digits.astype("<i8").tobytes())
            h.update(points.astype("<f8").tobytes())
        assert h.hexdigest() == want, f"float sample stream changed at m={m}"


class TestExactStatistics:
    def test_levy_sandwich_per_orbit(self):
        gen = RngConfig(seed=17).generator(0, 0)
        for _ in range(8):
            x0 = random_rational_seed(gen, P2)
            st = exact_orbit_statistics(x0, 60, P2)
            lo = 2.0 * st.growth_rate
            hi = lo + math.log(1.0 + P2.theta) / 60
            assert lo <= st.levy <= hi

    def test_statistic_wrappers(self):
        x0 = Fraction(3, 7)
        st = exact_orbit_statistics(x0, 40, P2)
        assert levy_statistic(x0, 40, P2) == st.levy
        assert approx_error_statistic(x0, 40, P2) == st.approx_error_rate

    def test_termination_statistics(self):
        x = QThetaNumber(Fraction(0), Fraction(4), 2).reciprocal()  # expansion [4]
        assert approx_error_statistic(x, 1, P2) == -math.inf
        with pytest.raises(TerminationError):
            exact_orbit_statistics(x, 2, P2)

    def test_exact_bounds_hold(self):
        gen = RngConfig(seed=23).generator(0, 0)
        for params in (P2, P10):
            for _ in range(10):
                x0 = random_rational_seed(gen, params)
                assert check_cylinder_bounds(x0, 20, params)
                assert check_error_bounds(x0, 20, params)

    def test_rates_approach_limits(self):
        # averaged over seeds, the orbit rates approach their limits at n = 120:
        # denominator growth -> beta, cylinder and error rates -> +/- 2*beta
        gen = RngConfig(seed=29).generator(0, 0)
        two_beta = 2 * ov.BETA[2]
        levies, errs, growths = [], [], []
        for _ in range(10):
            x0 = random_rational_seed(gen, P2)
            st = exact_orbit_statistics(x0, 120, P2)
            levies.append(st.levy)
            errs.append(st.approx_error_rate)
            growths.append(st.growth_rate)
        assert np.mean(levies) == pytest.approx(two_beta, rel=0.08)
        assert np.mean(errs) == pytest.approx(-two_beta, rel=0.08)
        assert np.mean(growths) == pytest.approx(ov.BETA[2], rel=0.08)


class TestDigitStatistics:
    def test_geometric_mean_constant_stream(self):
        assert geometric_mean_statistic([7] * 100) == pytest.approx(7.0, rel=1e-12)

    def test_geometric_mean_at_least_m(self):
        digits, _ = float_digit_run(0.41, 50_000, P2)
        assert geometric_mean_statistic(digits) >= 2.0

    def test_arithmetic_means_at_checkpoints(self):
        digits, _ = float_digit_run(0.41, 60_000, P2)
        trend = arithmetic_mean_statistic(digits, (100, 1000, 10_000))
        assert [n for n, _ in trend] == [100, 1000, 10_000]
        assert all(v >= 2.0 for _, v in trend)

    def test_capped_digits_converge_negative_control(self):
        # capping at K restores a finite mean; the capped empirical mean
        # must settle near the capped-law expectation
        K = 50
        ks = np.arange(2, K, dtype=float)
        law = digit_law(ks, P2)
        tail_mass = 1.0 - float(np.sum(law))
        capped_expect = float(np.sum(ks * law)) + K * tail_mass
        digits, _ = float_digit_run(0.2345, 400_000, P2)
        capped = np.minimum(digits, K).astype(float)
        sd = float(np.std(capped)) / math.sqrt(capped.size)
        assert abs(float(np.mean(capped)) - capped_expect) < 6 * sd + 0.05

    def test_histogram_columns_and_coverage(self):
        digits, _ = float_digit_run(0.37, 40_000, P2)
        hist = digit_frequency(digits, P2)
        ks = [row[0] for row in hist.rows]
        assert ks[0] == 2 and ks == sorted(ks)
        freq_total = sum(row[2] for row in hist.rows)
        assert freq_total == pytest.approx(hist.coverage, abs=1e-12)
        for k, _, _, law, _ in hist.rows[:5]:
            assert law == pytest.approx(float(digit_law(k, P2)), abs=1e-15)
        csv_rows = hist.csv_rows()
        assert csv_rows[0] == ["k", "count", "frequency", "law", "sigma"]

    def test_histogram_needs_samples(self):
        with pytest.raises(ValueError):
            digit_frequency(np.array([2, 3, 4]), P2)

    @given(
        m=st.sampled_from([2, 3, 10, 101, 4099]),
        size=st.integers(10_000, 200_000),
        seed=st.integers(0, 2**32 - 1),
        outliers=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_histogram_matches_row_by_row_reference(self, m, size, seed, outliers):
        params = new_params(m)
        rng = np.random.default_rng(seed)
        # inverse of the telescoped tail P(digit > k) = log((k+2)/(k+1))/L
        u = rng.random(size)
        digits = np.maximum(m, np.ceil(1.0 / np.expm1(u * math.log1p(1.0 / m))) - 1).astype(np.int64)
        where = rng.integers(0, size, outliers)
        digits[where] = rng.integers(10**6, 10**15, outliers)
        got = digit_frequency(digits, params)
        want = _row_by_row_histogram(digits, params)
        assert got.rows == want.rows
        assert (got.total, got.coverage, got.max_z) == (want.total, want.coverage, want.max_z)
        row_types = {tuple(type(v) for v in row) for row in got.rows + want.rows}
        assert row_types == {(int, int, float, float, float)}
        assert [type(v) for v in (got.total, got.coverage, got.max_z)] == [int, float, float]

    def test_statistics_leave_the_input_alone(self):
        digits, _ = float_digit_run(0.41, 20_000, P2)
        arr = digits.astype(np.float64)
        before = arr.copy()
        geo = geometric_mean_statistic(arr)
        trend = arithmetic_mean_statistic(arr, (1000, 10_000))
        assert np.array_equal(arr, before)
        assert geo == float(np.exp(np.mean(np.log(before))))
        assert trend == [(c, float(np.cumsum(before)[c - 1] / c)) for c in (1000, 10_000)]


def _row_by_row_histogram(digits, params):
    """The histogram built one k at a time, as ``digit_frequency`` once did."""
    arr = np.asarray(digits, dtype=np.int64)
    total = int(arr.size)
    law_at = lambda k: digit_law(k, params)
    k_max = params.m
    while law_at(k_max + 1) * total >= 1.0:
        k_max += 1
    uniq, counts = np.unique(arr, return_counts=True)
    count_of = dict(zip(uniq.tolist(), counts.tolist()))
    rows = []
    covered = 0
    max_z = 0.0
    for k in range(params.m, k_max + 1):
        c = count_of.get(k, 0)
        covered += c
        law = float(law_at(k))
        sigma = math.sqrt(total * law * (1.0 - law))
        rows.append((k, c, c / total, law, sigma))
        if total * law >= 25.0 and sigma > 0:
            max_z = max(max_z, abs(c - total * law) / sigma)
    return DigitHistogram(rows=tuple(rows), total=total, coverage=covered / total, max_z=max_z)


class TestErgodicReport:
    def test_deterministic(self):
        kw = dict(seed=3, n_seeds=3, orbit_length=40, float_digit_target=30_000)
        r1 = ergodic_report(2, **kw)
        r2 = ergodic_report(2, **kw)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_report_fields(self):
        rep = ergodic_report(2, seed=3, n_seeds=4, orbit_length=50, float_digit_target=25_000)
        assert rep.m == 2 and rep.n_orbits == 4 and rep.orbit_length == 50
        assert len(rep.levy_per_seed) == 4
        assert rep.float_digit_total >= 25_000
        assert rep.reference["two_beta"] == pytest.approx(2 * ov.BETA[2], abs=1e-9)
        d = rep.to_json_dict()
        assert set(d["deviations"]) == {"levy_rel", "approx_rel", "geo_rel"}
        assert d["digit_histogram"][0]["k"] == 2

    def test_different_seeds_differ(self):
        r1 = ergodic_report(2, seed=3, n_seeds=2, orbit_length=30, float_digit_target=15_000)
        r2 = ergodic_report(2, seed=4, n_seeds=2, orbit_length=30, float_digit_target=15_000)
        assert r1.exact_seeds != r2.exact_seeds
