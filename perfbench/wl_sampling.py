"""Workload ``sampling``: float orbits, digit statistics and the scalar constants.

Dominated by the scalar float-orbit loop; it also carries the constants
module at realistic m and at one large m, where ``constants_report`` is
known to raise.  No exact arithmetic and no operator is involved.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from thetacf import constants, montecarlo

from . import oracles as o
from .common import TaskRun, check_constant, generator

WHY = "scalar float-orbit loop and digit statistics, plus the constants at m up to 4099; bypasses exact and operator work"
FLOAT_M = (2, 3, 10, 101)
# 4099 is past the m where constants_report starts raising QuadratureError
# (every m >= 2383 when this benchmark was written); the failures stay in
# the mix and count in verified_ratio.
CONST_M = (2, 3, 10, 101, 4099)
TASKS_PER_ROUND = len(FLOAT_M) * len(CONST_M)  # every (float m, constants m) pair once
DIGITS = 131_072
ORBIT = 65_536  # float orbit length, as ergodic_report pools them
STARTS = 4  # starts per task; orbits that die early draw the next one
TOLERANCE = 1e-10  # requested of every constant, as cmd_constants does
GEO_TOL = 0.03  # relative; the geometric mean of 131072 digits scatters ~0.002
# Chance per task that correct code fails the histogram check.  Well under
# 1e-3, because one false alarm marks a whole run incorrect and a comparison
# makes hundreds of runs; a wrong digit law still sits hundreds of sigma out.
Z_ALPHA = 1e-7
CHECKPOINTS = (1000, 10_000, 100_000)
ROUNDS = 10
MIN_ROUNDS = 1
REFERENCE = "mixed"  # see speed.py
# Wrong outputs found when this benchmark was written.  They fail their
# tasks like any other wrong output; being listed here only keeps them
# from marking the whole run incorrect.  The beta schemes bound the error
# of the unnormalised integral, then divide by log(1 + 1/m), so the error
# of beta can exceed the requested tolerance by up to a factor m:
# levy_beta(method="series") misses 1e-10 by 2.3e-10 at m=3, 1.2e-10 at
# m=10 and 4.8e-9 at m=101, and the report's entropy (2 beta) misses it by
# 1.9e-10 at m=10.
KNOWN_WRONG = (
    "m=3 beta (series) = ",
    "m=10 beta (series) = ",
    "m=101 beta (series) = ",
    "m=10 entropy = ",
)
HUGE = 2**52


def prepare(seed: int, ctx):
    for m in CONST_M:
        ctx.consts.beta(m)
        ctx.consts.q(m)
        ctx.consts.khintchin(m)
    for m in FLOAT_M:
        ctx.consts.khintchin(m)
    rounds = []
    j = 0
    for _ in range(ROUNDS):
        tasks = []
        for i in range(TASKS_PER_ROUND):
            starts = []
            for _ in range(STARTS):
                # ergodic_report's float starts: Philox keyed (seed, 1, j), u != 0
                gen = generator(seed, 1, j)
                j += 1
                u = gen.random()
                while u == 0.0:
                    u = gen.random()
                starts.append(float(u))
            tasks.append({"float_m": FLOAT_M[i % len(FLOAT_M)], "const_m": CONST_M[i % len(CONST_M)], "u": starts})
        rounds.append(tasks)
    return rounds


def warm_up_tasks(rounds):
    return rounds[0][:1]


def run_task(task, tr, ctx):
    run = TaskRun(tr)
    mf, mc = task["float_m"], task["const_m"]
    pf, pc = ctx.params(mf), ctx.params(mc)

    pooled = []
    total = 0
    for u in task["u"]:
        if total >= DIGITS:
            break
        got = run.call("montecarlo.float_digit_run", montecarlo.float_digit_run, u * pf.theta, min(ORBIT, DIGITS - total), pf)
        if got is None:
            break
        digits_run = got[0]
        run.counts["montecarlo.float_digits"] += int(digits_run.size)
        run.counts["montecarlo.float_huge_digits"] += int(np.count_nonzero(digits_run >= HUGE))
        if digits_run.size:
            pooled.append(digits_run)
            total += int(digits_run.size)
    digits = np.concatenate(pooled) if pooled else np.zeros(0, dtype=np.int64)
    run.check(total >= DIGITS or bool(run.errors), f"float orbits gave {total} < {DIGITS} digits")
    hist = geo = trend = None
    if total >= DIGITS:
        hist = run.call("montecarlo.digit_frequency", montecarlo.digit_frequency, digits, pf)
        geo = run.call("montecarlo.geometric_mean_statistic", montecarlo.geometric_mean_statistic, digits)
        trend = run.call("montecarlo.arithmetic_mean_statistic", montecarlo.arithmetic_mean_statistic, digits, CHECKPOINTS)
    khin = run.call("constants.khintchin_product", constants.khintchin_product, pf, TOLERANCE)

    report = run.call("constants.constants_report", constants.constants_report, mc, TOLERANCE)
    if report is None:
        run.counts["constants.constants_report.failed"] += 1
    betas = {
        method: run.call("constants.levy_beta", constants.levy_beta, pc, TOLERANCE, method=method)
        for method in ("split", "series", "logweight")
    }
    q = run.call("constants.contraction_q", constants.contraction_q, pc, TOLERANCE)

    run.record(digits, hist and hist.rows, geo, trend, khin, report and report.to_json_dict(), betas, q)
    if total >= DIGITS:
        run.checking("float digits", check_digits, mf, digits)
    if hist is not None:
        run.checking("digit histogram", check_histogram, pf, digits, hist)
    if geo is not None:
        run.checking("geometric mean", check_geo, ctx.consts.khintchin(mf), digits, geo)
    if trend is not None:
        run.checking("arithmetic mean", check_trend, digits, trend)
    if khin is not None:
        run.checking("khintchin_product", check_constant, f"m={mf} khintchin_product", khin, ctx.consts.khintchin(mf), TOLERANCE)
    if report is not None:
        run.checking("constants_report", check_report, ctx, pc, report)
    for method, value in betas.items():
        if value is not None:
            run.checking(f"levy_beta {method}", check_constant, f"m={mc} beta ({method})", value, ctx.consts.beta(mc), TOLERANCE)
    if q is not None:
        run.checking("contraction_q", check_constant, f"m={mc} q", q, ctx.consts.q(mc), TOLERANCE)
    return run.outcome()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_digits(run, m, digits):
    run.check(digits.size == DIGITS, f"{digits.size} digits, expected {DIGITS}")
    run.check(int(digits.min()) >= m, "a float digit is below m")


def _law(k, params):
    return math.log1p(1.0 / (k * (k + 2.0))) / params.log_normalizer


def check_histogram(run, params, digits, hist):
    """Counts, law and max_z recomputed; every row within a Bonferroni-corrected bound."""
    total = digits.size
    m = params.m
    counts = np.bincount(digits[digits < m + len(hist.rows)] - m, minlength=len(hist.rows))
    run.check(hist.total == total, "histogram total differs from the digit count")
    rows = hist.rows
    run.check([r[0] for r in rows] == list(range(m, m + len(rows))), "histogram rows are not k = m, m+1, ...")
    run.check([r[1] for r in rows] == counts.tolist(), "histogram counts differ from the digits")
    run.check(_law(rows[-1][0] + 1, params) * total < 1.0 <= _law(rows[-1][0], params) * total, "table ends at the wrong k")
    run.check(abs(hist.coverage - counts.sum() / total) <= 1e-12, "coverage differs")
    tested = [(k, c, law) for k, c, _, law, _ in rows if total * law >= 25.0]
    alpha = Z_ALPHA / len(tested)
    max_z = 0.0
    for k, c, law in tested:
        run.check(abs(law - _law(k, params)) <= 1e-12 * law, f"law of digit {k} differs")
        dev = abs(c - total * law)
        max_z = max(max_z, dev / math.sqrt(total * law * (1.0 - law)))
        run.check(dev <= o.binomial_deviation_bound(total, law, alpha), f"count of digit {k} deviates beyond the bound")
    run.check(abs(hist.max_z - max_z) <= 1e-9 * max(1.0, max_z), "max_z differs from the rows")


def check_geo(run, khin_ref, digits, geo):
    mine = math.exp(float(np.mean(np.log(digits.astype(np.float64)))))
    run.check(abs(geo - mine) <= 1e-12 * mine, "geometric mean differs from the digits")
    run.check(abs(geo - khin_ref) <= GEO_TOL * khin_ref, f"geometric mean {geo:.6g} too far from {khin_ref:.6g}")


def check_trend(run, digits, trend):
    csum = np.cumsum(digits.astype(np.float64))
    expected = [(c, float(csum[c - 1] / c)) for c in CHECKPOINTS if c <= digits.size]
    run.check(
        len(trend) == len(expected)
        and all(n == c and abs(v - w) <= 1e-12 * abs(w) for (n, v), (c, w) in zip(trend, expected)),
        "arithmetic means differ from the digits",
    )


def check_report(run, ctx, params, rep):
    m = params.m
    run.check(rep.m == m and rep.theta == params.theta, "report for the wrong m")
    for what, value, ref in (
        ("beta", rep.beta, ctx.consts.beta(m)),
        ("entropy", rep.entropy, 2.0 * ctx.consts.beta(m)),
        ("khintchin_geo", rep.khintchin_geo, ctx.consts.khintchin(m)),
        ("q", rep.q, ctx.consts.q(m)),
    ):
        check_constant(run, f"m={m} {what}", value, ref, TOLERANCE)
    run.check(rep.k_m == Fraction(1, m + 1), "k_m is not 1/(m+1)")
    run.check(rep.q_lt_theta == (rep.q < params.theta), "q_lt_theta is wrong")
    achieved = [v for k, v in rep.tolerances.items() if k not in ("requested", "entropy")]
    run.check(all(0.0 <= v <= TOLERANCE for v in achieved), "a reported tolerance exceeds the request")
