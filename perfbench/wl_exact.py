"""Workload ``exact``: orbits, convergents and cylinders in Q(theta).

Every call here is Fraction arithmetic in the field; there is no series
or float-kernel work, so this workload exercises the exact backend and
bypasses everything the other workloads measure.
"""

from __future__ import annotations

from fractions import Fraction

import thetacf
from thetacf import montecarlo, operators

from . import oracles as o
from .common import TaskRun, generator

WHY = "Fraction arithmetic in Q(theta) only (expand, convergents, cylinders, exact orbits); bypasses series and float work"
M_VALUES = (2, 3, 5, 10, 101)
# Per m and round: two depth-50 points and one depth-200 point, so the
# median lands among the short tasks and the 90th percentile among the
# long ones, each well inside its own group.
SHAPE = ((50, "rational"), (50, "surd"), (200, None))
ROUNDS = 12
MIN_ROUNDS = 1
REFERENCE = "mixed"  # see speed.py
KNOWN_WRONG = ()
CANDIDATES = 2  # spare draws for a seed whose expansion terminates early
MP_DIGITS = 12  # digits compared against the mpmath expansion
PURPOSE = 10


def _draw_rational(gen, m: int, max_denominator: int = 10**6) -> Fraction:
    """p/q strictly inside (0, theta), drawn as random_rational_seed draws it."""
    theta = m ** -0.5
    while True:
        q = int(gen.integers(2, max_denominator + 1))
        p_hi = int(q * theta)
        while p_hi >= 1 and p_hi * p_hi * m >= q * q:
            p_hi -= 1
        while (p_hi + 1) ** 2 * m < q * q:
            p_hi += 1
        if p_hi >= 1:
            return Fraction(int(gen.integers(1, p_hi + 1)), q)


def _draw_point(gen, m: int, kind: str):
    r1 = _draw_rational(gen, m)
    if kind == "rational":
        return (r1, Fraction(0))
    # (r1 + r2*theta)/2 lies in (0, theta) since r1, r2 < theta < 1
    r2 = _draw_rational(gen, m)
    return (r1 / 2, r2 / 2)


def prepare(seed: int, ctx):
    rounds = []
    for r in range(ROUNDS):
        tasks = []
        for m in M_VALUES:
            for j, (n, kind) in enumerate(SHAPE):
                kind = kind or ("rational", "surd")[r % 2]
                gen = generator(seed, PURPOSE, r, m, j)
                cands = [_draw_point(gen, m, kind) for _ in range(CANDIDATES)]
                tasks.append({"m": m, "n": n, "kind": kind, "points": [[str(a), str(b)] for a, b in cands]})
        rounds.append(tasks)
    return rounds


def warm_up_tasks(rounds):
    """One short task per m: fills the theta-enclosure caches."""
    return [t for t in rounds[0] if t["n"] == 50 and t["kind"] == "rational"]


# ---------------------------------------------------------------------------
# the task
# ---------------------------------------------------------------------------


def _weight(i: int, x: float, theta: float) -> float:
    return (theta * x + 1.0) / ((x + i * theta) * (x + (i + 1) * theta))


def _convergents(digits, m):
    """(p_k, q_k) pairs for k = -1 .. len(digits), by the bench's own arithmetic."""
    ps, qs = [o.ONE, o.ZERO], [o.ZERO, o.ONE]
    for a in digits:
        at = (Fraction(0), Fraction(a))
        ps.append(o.q_add(o.q_mul(at, ps[-1], m), ps[-2]))
        qs.append(o.q_add(o.q_mul(at, qs[-1], m), qs[-2]))
    return ps, qs


def _endpoints(digits, m):
    """Cylinder endpoints of a digit prefix: the fraction at tails 0 and theta."""
    ps, qs = _convergents(digits, m)
    e0 = o.q_div(ps[-1], qs[-1], m)
    e1 = o.q_div(o.q_add(ps[-1], o.q_mul(o.THETA, ps[-2], m)), o.q_add(qs[-1], o.q_mul(o.THETA, qs[-2], m)), m)
    return (e0, e1) if o.q_sign(o.q_sub(e0, e1), m) < 0 else (e1, e0)


def run_task(task, tr, ctx):
    run = TaskRun(tr)
    m, n = task["m"], task["n"]
    params = ctx.params(m)
    seq = x = None
    for a, b in task["points"]:
        cand = (Fraction(a), Fraction(b))
        X = thetacf.QThetaNumber(cand[0], cand[1], m)
        got = run.call("expansion.expand", thetacf.expand, X, n, params, backend="exact")
        if got is None:
            break
        run.counts["expansion.digits"] += len(got.digits)
        run.counts["montecarlo.seeds_drawn"] += 1
        if len(got.digits) == n and not got.terminated:
            run.counts["montecarlo.seeds_accepted"] += 1
            seq, x = got, cand
            break
    if seq is None:
        run.check(bool(run.errors), "no candidate point reached depth n")
        return run.outcome()
    run.record(seq.digits)

    cs = run.call("expansion.convergents", thetacf.convergents, seq, params)
    cyl = run.call("expansion.cylinder", thetacf.cylinder, seq, params)
    meas = run.call("expansion.cylinder_measure", thetacf.cylinder_measure, cyl, params) if cyl else None
    err = run.call("expansion.approximation_error", thetacf.approximation_error, X, n, params)
    stats = run.call("montecarlo.exact_orbit_statistics", montecarlo.exact_orbit_statistics, X, n, params)
    bounds_ok = run.call("montecarlo.check_error_bounds", montecarlo.check_error_bounds, X, n - 1, params)

    digits = tuple(seq.digits)
    a1, a2 = digits[0], digits[1]
    # x1 = T(x) = 1/x - a1*theta, the point whose first digit is a2
    x1 = o.q_sub(o.q_inv(x, m), (Fraction(0), Fraction(a1)))
    x1_arg = thetacf.QThetaNumber(x1[0], x1[1], m)
    theta = params.theta
    x1f = float(o.q_mpf(x1, m))
    intervals = [
        (_endpoints((a1, a2), m), _weight(a1, x1f, theta)),
        (_endpoints((a1 + 1,), m), _weight(a1 + 1, x1f, theta)),
        (_endpoints((a1, a2 + 1), m), 0.0),
    ]
    markov = []
    for (lo, hi), expected in intervals:
        A = [(thetacf.QThetaNumber(lo[0], lo[1], m), thetacf.QThetaNumber(hi[0], hi[1], m))]
        markov.append((run.call("operators.markov_transition", operators.markov_transition, x1_arg, A, params), expected))

    run.record(cs and cs[-1].q, cyl and (cyl.lower, cyl.upper), meas, err, stats, bounds_ok, [v for v, _ in markov])
    ps, qs = _convergents(digits, m)
    run.checking("digits", check_digits, x, m, n, digits)
    if cs is not None:
        run.checking("convergents", check_convergents, m, n, ps, qs, cs)
    if cyl is not None and meas is not None:
        run.checking("cylinder", check_cylinder, x, m, digits, ps, qs, cyl, meas)
    if err is not None:
        run.checking("approximation_error", check_error, x, m, n, ps, qs, err)
        if stats is not None:
            run.checking("exact_orbit_statistics", check_stats, m, n, qs, err, stats)
    run.check(bounds_ok is None or bounds_ok is True, "check_error_bounds returned False")
    run.checking("markov_transition", check_markov, a1, markov)
    return run.outcome()


# ---------------------------------------------------------------------------
# checks (exact, by the bench's own arithmetic)
# ---------------------------------------------------------------------------


def check_digits(run, x, m, n, digits):
    run.check(len(digits) == n, f"expected {n} digits, got {len(digits)}")
    run.check(all(d >= m for d in digits), "digit below m")
    run.check(list(digits[:MP_DIGITS]) == o.mp_digits(x, m, MP_DIGITS), "leading digits differ from mpmath")


def check_convergents(run, m, n, ps, qs, cs):
    run.check(len(cs) == n and cs[-1].n == n, "wrong number of convergents")
    p_n, q_n = o.q_pair(cs[-1].p), o.q_pair(cs[-1].q)
    p_m1, q_m1 = o.q_pair(cs[-2].p), o.q_pair(cs[-2].q)
    det = o.q_sub(o.q_mul(p_n, q_m1, m), o.q_mul(p_m1, q_n, m))
    run.check(det == (Fraction((-1) ** (n + 1)), Fraction(0)), "determinant is not (-1)^(n+1)")
    run.check((p_n, q_n, p_m1, q_m1) == (ps[-1], qs[-1], ps[-2], qs[-2]), "convergents differ from the recurrence")
    run.counts["expansion.qn_coeff_bits"] = max(run.counts["expansion.qn_coeff_bits"], o.q_bits(q_n))


def check_cylinder(run, x, m, digits, ps, qs, cyl, meas):
    lo, hi = _endpoints(digits, m)
    run.check((o.q_pair(cyl.lower), o.q_pair(cyl.upper)) == (lo, hi), "cylinder endpoints differ")
    run.check(o.q_sign(o.q_sub(x, lo), m) >= 0 and o.q_sign(o.q_sub(hi, x), m) >= 0, "x outside its cylinder")
    # measure = 1/(q_n (q_n + theta q_{n-1})), whose theta-part vanishes
    closed = o.q_inv(o.q_mul(qs[-1], o.q_add(qs[-1], o.q_mul(o.THETA, qs[-2], m)), m), m)
    run.check(closed[1] == 0 and Fraction(meas) == closed[0], "cylinder measure differs from the closed form")


def _tail_from_error(err, m, qs):
    """T^n(x) recovered from |x - p_n/q_n| = t / (q_n (q_n + t q_{n-1}))."""
    e = err if o.q_sign(err, m) >= 0 else o.q_sub(o.ZERO, err)
    q_n, q_m1 = qs[-1], qs[-2]
    num = o.q_mul(e, o.q_mul(q_n, q_n, m), m)
    den = o.q_sub(o.ONE, o.q_mul(e, o.q_mul(q_n, q_m1, m), m))
    return o.q_div(num, den, m)


def check_error(run, x, m, n, ps, qs, err):
    err = o.q_pair(err)
    run.check(err == o.q_sub(x, o.q_div(ps[-1], qs[-1], m)), "error is not x - p_n/q_n")
    run.check(o.q_sign(err, m) == (-1) ** n, "error has the wrong sign")
    t = _tail_from_error(err, m, qs)
    # the digits are x's digits exactly when the tail lies in [0, theta)
    run.check(o.q_sign(t, m) >= 0 and o.q_sign(o.q_sub(o.THETA, t), m) > 0, "tail T^n(x) outside [0, theta)")
    back = o.q_div(o.q_add(ps[-1], o.q_mul(t, ps[-2], m)), o.q_add(qs[-1], o.q_mul(t, qs[-2], m)), m)
    run.check(back == x, "reconstruction with the exact tail does not return x")


def check_stats(run, m, n, qs, err, stats):
    q_n, q_m1 = qs[-1], qs[-2]
    t = _tail_from_error(o.q_pair(err), m, qs)
    log_qn = o.q_log(q_n, m)
    growth = log_qn / n
    levy = (log_qn + o.q_log(o.q_add(q_n, o.q_mul(o.THETA, q_m1, m)), m)) / n
    rate = (o.q_log(t, m) - log_qn - o.q_log(o.q_add(q_n, o.q_mul(t, q_m1, m)), m)) / n
    close = lambda a, b: a is not None and abs(a - b) <= 1e-12 * max(1.0, abs(b))
    run.check(close(stats.growth_rate, growth), "growth rate differs from log(q_n)/n")
    run.check(close(stats.levy, levy), "cylinder-measure rate differs")
    run.check(close(stats.approx_error_rate, rate), "approximation-error rate differs")


def check_markov(run, a1, markov):
    # the kernel telescopes 1/(x+i theta) - 1/(x+(i+1) theta), which loses
    # about log10(i) digits to cancellation
    rel = max(1e-12, 1e-15 * (a1 + 2))
    for value, expected in markov:
        if value is not None:
            run.check(abs(value - expected) <= rel * expected + 1e-300, f"Q(x, A) = {value!r}, expected {expected!r}")
