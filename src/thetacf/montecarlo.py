"""Orbit sampling and empirical checks of the almost-sure limit laws.

Exact orbits (rational seeds, field arithmetic) verify the denominator
growth rate and approximation-error rate against 2*beta, with per-orbit
interval bounds holding at zero tolerance.  Float orbits supply bulk
digit statistics: the stationary digit law, the geometric-mean limit,
and the divergence trend of the arithmetic mean.  Individual float digit
sequences drift from the true ones after ~40 steps but remain
distributionally faithful, so they are never used for exactness claims.

This module has no orbit loop of its own: ``sample_orbit`` and
``float_digit_run`` are views on the kernels in ``expansion``, so both
backends check the start point against [0, theta] the same way and call
an orbit terminated when it reaches 0.

All randomness flows from one 64-bit seed through named SeedSequence
keys, so reports are byte-identical across runs and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import constants as _constants
from .expansion import (
    DigitSequence,
    DomainError,
    TerminationError,
    ThetaParams,
    _as_qtheta,
    _convergent_table,
    _exact_orbit,
    _float_orbit,
    _orbit,
    _table_and_cylinder,
    cylinder_measure,
    expand,
    log_qtheta,
)

__all__ = [
    "RngConfig",
    "OrbitSample",
    "ExactOrbitStats",
    "DigitHistogram",
    "ErgodicReport",
    "random_rational_seed",
    "sample_orbit",
    "float_digit_run",
    "exact_orbit_statistics",
    "levy_statistic",
    "approx_error_statistic",
    "geometric_mean_statistic",
    "arithmetic_mean_statistic",
    "digit_frequency",
    "check_cylinder_bounds",
    "check_error_bounds",
    "ergodic_report",
]


@dataclass(frozen=True)
class RngConfig:
    """Root seed of the Philox generators.

    Identical configs produce identical sample streams; per-orbit
    generators are derived from (seed, purpose, index) SeedSequence keys,
    which is what makes orbit-level parallelism harmless.
    """

    seed: int

    def generator(self, purpose: int, index: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(np.random.SeedSequence((self.seed, purpose, index))))


def random_rational_seed(gen: np.random.Generator, params: ThetaParams, max_denominator: int = 10**6) -> Fraction:
    """Random rational p/q strictly inside (0, theta), checked exactly.

    Denominators stay below ``max_denominator`` so exact orbits remain
    tractable out to a few hundred digits.
    """
    m = params.m
    while True:
        q = int(gen.integers(2, max_denominator + 1))
        p_hi = int(q * params.theta)
        while p_hi >= 1 and p_hi * p_hi * m >= q * q:
            p_hi -= 1
        while (p_hi + 1) ** 2 * m < q * q:
            p_hi += 1
        if p_hi >= 1:
            p = int(gen.integers(1, p_hi + 1))
            return Fraction(p, q)


@dataclass(frozen=True)
class OrbitSample:
    """Digit stream plus the orbit points T^0(x0), T^1(x0), ..."""

    digits: DigitSequence
    points: tuple


def float_digit_run(x0: float, count: int, params: ThetaParams):
    """Float orbit as arrays: int64 digits and the points, stopping at 0."""
    digits, points = _float_orbit(x0, count, params)
    return np.array(digits, dtype=np.int64), np.array(points)


def sample_orbit(
    x0,
    length: int,
    params: ThetaParams,
    backend: str = "auto",
    rng: np.random.Generator | None = None,
) -> OrbitSample:
    """Digit stream and iterates from x0 (or a random start when x0 is None)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if x0 is None:
        if rng is None:
            raise ValueError("x0=None requires an rng")
        if backend == "exact":
            x0 = random_rational_seed(rng, params)
        else:
            backend = "float"
            u = rng.random()
            while u == 0.0:
                u = rng.random()
            x0 = u * params.theta
    digits, pts = _orbit(x0, length, params, backend)
    if not digits.digits:
        raise DomainError("x0 outside (0, theta]")
    return OrbitSample(digits=digits, points=tuple(pts))


# ---------------------------------------------------------------------------
# exact-orbit statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactOrbitStats:
    """Per-orbit rates at index n, all from exact arithmetic.

    ``levy`` is -(1/n) log of the normalized cylinder measure (tends to
    2*beta), ``growth_rate`` is (1/n) log q_n (tends to beta), and
    ``approx_error_rate`` is (1/n) log|x - p_n/q_n| (tends to -2*beta;
    None when the expansion terminated at n exactly).
    """

    x0: object
    n: int
    levy: float
    growth_rate: float
    approx_error_rate: float | None


def exact_orbit_statistics(x0, n: int, params: ThetaParams) -> ExactOrbitStats:
    if n < 1:
        raise ValueError("n must be >= 1")
    digits, pts = _exact_orbit(x0, n, params)
    if len(digits) < n:
        raise TerminationError(f"expansion of {x0} terminated after {len(digits)} digits")
    q_nm1, q_n = _convergent_table(digits.digits, params.m)[1][-2:]
    log_qn = log_qtheta(q_n)
    levy = (log_qn + log_qtheta(q_n + params.theta_exact * q_nm1)) / n
    tail = pts[n]
    if tail.is_zero:
        rate = None
    else:
        rate = (log_qtheta(tail) - log_qn - log_qtheta(q_n + tail * q_nm1)) / n
    return ExactOrbitStats(
        x0=x0,
        n=n,
        levy=levy,
        growth_rate=log_qn / n,
        approx_error_rate=rate,
    )


def levy_statistic(x0, n: int, params: ThetaParams) -> float:
    """-(1/n) log(normalized measure of the rank-n cylinder of x0)."""
    return exact_orbit_statistics(x0, n, params).levy


def approx_error_statistic(x0, n: int, params: ThetaParams) -> float:
    """(1/n) log |x0 - p_n/q_n|, exact; -inf when terminated at n."""
    rate = exact_orbit_statistics(x0, n, params).approx_error_rate
    return -math.inf if rate is None else rate


def check_cylinder_bounds(x0, n: int, params: ThetaParams) -> bool:
    """Exact sandwich 1/((1+theta) q_n^2) < cylinder measure < 1/q_n^2."""
    digits = expand(x0, n, params, backend="exact")
    if len(digits) < n:
        raise TerminationError("expansion too short")
    _, qs, cyl = _table_and_cylinder(digits, params)
    meas_q = _as_qtheta(cylinder_measure(cyl, params), params)
    q_n = qs[-1]
    upper = (q_n * q_n).reciprocal()
    lower = (q_n * q_n * (1 + params.theta_exact)).reciprocal()
    return (meas_q - lower).sign() > 0 and (upper - meas_q).sign() > 0


def check_error_bounds(x0, n: int, params: ThetaParams) -> bool:
    """Exact 1/(q_n(q_{n+1}+theta*q_n)) <= |x - p_n/q_n| <= 1/(q_n q_{n+1})."""
    digits, pts = _exact_orbit(x0, n + 1, params)
    if pts[0].is_zero:
        raise DomainError("cannot expand x = 0")
    if len(digits) < n + 1:
        raise TerminationError("expansion too short")
    ps, qs = _convergent_table(digits.digits, params.m)
    p_n, q_n, q_np1 = ps[-2], qs[-2], qs[-1]
    err = pts[0] - p_n / q_n
    if err.sign() < 0:
        err = -err
    lower = (q_n * (q_np1 + params.theta_exact * q_n)).reciprocal()
    upper = (q_n * q_np1).reciprocal()
    return (err - lower).sign() >= 0 and (upper - err).sign() >= 0


# ---------------------------------------------------------------------------
# digit statistics
# ---------------------------------------------------------------------------


def _float_copy(digits) -> np.ndarray:
    """A private float64 copy, which the statistics below overwrite in place."""
    return np.array(list(digits) if isinstance(digits, DigitSequence) else digits, dtype=np.float64)


def geometric_mean_statistic(digits) -> float:
    """exp of the mean log digit: the empirical Khintchin-type mean."""
    arr = _float_copy(digits)
    if arr.size == 0:
        raise ValueError("no digits")
    return float(np.exp(np.mean(np.log(arr, out=arr))))


def arithmetic_mean_statistic(digits, checkpoints=(1000, 10_000, 100_000)):
    """Partial arithmetic means at the given checkpoints (no limit exists).

    Returns (n, mean) pairs for every checkpoint within range; the means
    drift upward without bound because the digit law has no first moment.
    """
    arr = _float_copy(digits)
    out = []
    csum = np.cumsum(arr, out=arr)
    for c in checkpoints:
        if c <= arr.size:
            out.append((int(c), float(csum[c - 1] / c)))
    return out


_MIN_HISTOGRAM_DIGITS = 10_000  # digit_frequency's default floor, and that of `ergodic --samples`


@dataclass(frozen=True)
class DigitHistogram:
    """Empirical digit frequencies against the stationary law.

    Rows cover k = m .. k_max where the expected count is at least 1;
    ``coverage`` is the digit mass that falls inside the table, and
    ``max_z`` the worst normal deviate among rows with expected count
    >= 25.
    """

    rows: tuple  # (k, count, frequency, law, sigma)
    total: int
    coverage: float
    max_z: float

    def csv_rows(self) -> list[list]:
        out = [["k", "count", "frequency", "law", "sigma"]]
        for k, count, freq, law, sigma in self.rows:
            out.append([k, count, repr(freq), repr(law), repr(sigma)])
        return out


def digit_frequency(digits, params: ThetaParams, min_samples: int = _MIN_HISTOGRAM_DIGITS) -> DigitHistogram:
    """Histogram of observed digits with standard errors under the law.

    The table runs from m to k_max, the first k with law(k+1)*total < 1.
    Since log1p(y) < y and log(1 + 1/m) > 1/(m+1), law(k) < (m+1)/k^2,
    so k_max < m + isqrt(2*total*(m+1)) + 4 and the law is evaluated once
    on that span; the counts come from one bincount.  Frequency, sigma
    and the normal deviates are array expressions in the order of the
    scalar formulas, so the rows hold the same Python ints and floats as
    rows built one k at a time.
    """
    arr = np.asarray(digits, dtype=np.int64)
    total = int(arr.size)
    if total < min_samples:
        raise ValueError(f"need at least {min_samples} digits, got {total}")
    m = params.m
    law = _constants.digit_law(np.arange(m, m + math.isqrt(2 * total * (m + 1)) + 5), params)
    n = int(np.argmax(law[1:] * total < 1.0)) + 1  # rows k = m .. k_max
    law = law[:n]
    in_table = (arr >= m) & (arr < m + n)
    counts = np.bincount(arr[in_table] - m, minlength=n)
    expected = total * law
    sigma = np.sqrt(expected * (1.0 - law))
    judged = (expected >= 25.0) & (sigma > 0)
    max_z = float(np.max(np.abs(counts[judged] - expected[judged]) / sigma[judged])) if judged.any() else 0.0
    rows = zip(range(m, m + n), counts.tolist(), (counts / total).tolist(), law.tolist(), sigma.tolist())
    return DigitHistogram(rows=tuple(rows), total=total, coverage=int(counts.sum()) / total, max_z=max_z)


# ---------------------------------------------------------------------------
# aggregated experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErgodicReport:
    """Everything one ergodic experiment produced, plus its references."""

    m: int
    seed: int
    n_orbits: int
    orbit_length: int
    exact_seeds: tuple
    levy_estimate: float
    levy_per_seed: tuple
    approx_error_estimate: float
    approx_per_seed: tuple
    geo_mean: float
    arith_mean_trend: tuple
    histogram: DigitHistogram
    float_digit_total: int
    float_orbit_length: int
    reference: dict
    deviations: dict

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "seed": self.seed,
            "rng_family": "philox",
            "n_orbits": self.n_orbits,
            "orbit_length": self.orbit_length,
            "exact_seeds": [str(s) for s in self.exact_seeds],
            "levy_estimate": self.levy_estimate,
            "levy_per_seed": list(self.levy_per_seed),
            "approx_error_estimate": self.approx_error_estimate,
            "approx_per_seed": list(self.approx_per_seed),
            "geo_mean": self.geo_mean,
            "arith_mean_trend": [[n, v] for n, v in self.arith_mean_trend],
            "float_digit_total": self.float_digit_total,
            "float_orbit_length": self.float_orbit_length,
            "digit_histogram": [
                {"k": k, "count": c, "frequency": f, "law": l, "sigma": s}
                for k, c, f, l, s in self.histogram.rows
            ],
            "histogram_coverage": self.histogram.coverage,
            "histogram_max_z": self.histogram.max_z,
            "reference": dict(self.reference),
            "deviations": dict(self.deviations),
        }


def ergodic_report(
    m: int,
    seed: int,
    n_seeds: int = 20,
    orbit_length: int = 200,
    float_digit_target: int = 1_050_000,
    float_orbit_length: int = 65_536,
    checkpoints=(1000, 10_000, 100_000),
    max_denominator: int = 10**6,
) -> ErgodicReport:
    """Run the full ergodic experiment for one m, deterministically.

    Exact part: ``n_seeds`` rational seeds iterated ``orbit_length`` steps
    in field arithmetic, yielding the cylinder-measure and approximation
    rates.  Float part: orbits of length ``float_orbit_length`` pooled
    until ``float_digit_target`` digits feed the digit histogram, the
    geometric mean, and the arithmetic-mean trend.
    """
    from .expansion import new_params

    params = new_params(m)
    cfg = RngConfig(seed=seed)

    seeds = []
    levy_vals = []
    approx_vals = []
    i = 0
    attempts = 0
    while len(seeds) < n_seeds:
        gen = cfg.generator(0, i)
        i += 1
        attempts += 1
        if attempts > 10 * n_seeds:
            raise RuntimeError("too many terminating seeds")
        x0 = random_rational_seed(gen, params, max_denominator)
        try:
            stats = exact_orbit_statistics(x0, orbit_length, params)
        except TerminationError:
            continue
        if stats.approx_error_rate is None:
            continue
        seeds.append(x0)
        levy_vals.append(stats.levy)
        approx_vals.append(stats.approx_error_rate)

    pooled = []
    total = 0
    j = 0
    while total < float_digit_target:
        gen = cfg.generator(1, j)
        j += 1
        u = gen.random()
        while u == 0.0:
            u = gen.random()
        run, _ = float_digit_run(u * params.theta, min(float_orbit_length, float_digit_target - total), params)
        if run.size:
            pooled.append(run)
            total += int(run.size)
    digits = np.concatenate(pooled)

    hist = digit_frequency(digits, params)
    geo = geometric_mean_statistic(digits)
    trend = arithmetic_mean_statistic(digits, checkpoints)

    beta = _constants.levy_beta(params, 1e-10)
    khin = _constants.khintchin_product(params, 1e-10)
    levy_mean = float(np.mean(levy_vals))
    approx_mean = float(np.mean(approx_vals))
    reference = {"beta": beta, "two_beta": 2.0 * beta, "khintchin_geo": khin}
    deviations = {
        "levy_rel": abs(levy_mean - 2.0 * beta) / (2.0 * beta),
        "approx_rel": abs(approx_mean + 2.0 * beta) / (2.0 * beta),
        "geo_rel": abs(geo - khin) / khin,
    }
    return ErgodicReport(
        m=m,
        seed=seed,
        n_orbits=n_seeds,
        orbit_length=orbit_length,
        exact_seeds=tuple(seeds),
        levy_estimate=levy_mean,
        levy_per_seed=tuple(levy_vals),
        approx_error_estimate=approx_mean,
        approx_per_seed=tuple(approx_vals),
        geo_mean=geo,
        arith_mean_trend=tuple(trend),
        histogram=hist,
        float_digit_total=int(digits.size),
        float_orbit_length=float_orbit_length,
        reference=reference,
        deviations=deviations,
    )
