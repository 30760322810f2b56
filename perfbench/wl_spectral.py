"""Workload ``spectral``: transfer operators on Chebyshev grids.

Two uses of the series engine: iterating a fixed linear map on grid
values (the distribution-function experiment, operator powers, measure
pullbacks), which an assembled operator matrix would speed up, and
one-shot evaluation of arbitrary off-grid callables (the function
families), which it would not.  No exact arithmetic is involved.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Chebyshev

from thetacf import families, operators
from thetacf.operators import GridFunction

from .common import TaskRun, generator

WHY = "transfer operators: iterated maps on grid values and one-shot off-grid callables; bypasses exact and float-orbit work"
M_VALUES = (2, 3, 10, 101)
KINDS = ("gk", "powers", "pullback", "families")
DEGREE = 64
GK_STEPS = 12
POWER = 2
FAMILY_COUNT = 4
ROUNDS = 8
MIN_ROUNDS = 1
REFERENCE = "vector"  # see speed.py
KNOWN_WRONG = ()
PURPOSE = 20


def prepare(seed: int, ctx):
    for m in M_VALUES:
        ctx.consts.q(m)
    rounds = []
    for r in range(ROUNDS):
        tasks = []
        for m in M_VALUES:
            for kind in KINDS:
                gen = generator(seed, PURPOSE, r, m, KINDS.index(kind))
                task = {"m": m, "kind": kind}
                if kind == "powers":
                    task.update(
                        c1=float(gen.uniform(-3.0, 3.0)),
                        c2=float(gen.uniform(0.5, 3.0)),
                        f=[float(v) for v in gen.uniform(-1.0, 1.0, size=3)] + [float(gen.uniform(1.0, 8.0))],
                        h=float(gen.uniform(0.05, 1.0)),
                    )
                elif kind == "pullback":
                    a, b = sorted(gen.uniform(0.0, 1.0, size=2))
                    # The cosine's frequency sets the cost (at m=101 a pullback
                    # with k=1 takes about half as long as with k=2 or 3), so k
                    # cycles with the round instead of being drawn: every run
                    # then holds the same share of each k, whatever the seed.
                    k = 1 + r % 3
                    task.update(
                        h=[float(gen.uniform(-0.45, 0.45)), float(gen.uniform(-0.45, 0.45)), k],
                        interval=[float(a), float(b)],
                    )
                elif kind == "families":
                    task.update(family_seed=[seed, PURPOSE, r, m])
                tasks.append(task)
        rounds.append(tasks)
    return rounds


def warm_up_tasks(rounds):
    """One task of each kind at the smallest m: loads scipy.special, fills grid caches."""
    return [t for t in rounds[0] if t["m"] == M_VALUES[0]]


# ---------------------------------------------------------------------------
# the bench's own grid tools (numpy only)
# ---------------------------------------------------------------------------


def lobatto(theta: float, degree: int) -> np.ndarray:
    """Chebyshev-Lobatto points of [0, theta], ascending."""
    return (1.0 - np.cos(np.pi * np.arange(degree + 1) / degree)) * theta / 2.0


def interpolant(values, theta: float) -> Chebyshev:
    values = np.asarray(values, dtype=float)
    deg = values.size - 1
    return Chebyshev.fit(lobatto(theta, deg), values, deg, domain=[0.0, theta])


def integral(values, theta: float) -> float:
    anti = interpolant(values, theta).integ()
    return float(anti(theta) - anti(0.0))


def run_task(task, tr, ctx):
    run = TaskRun(tr)
    m = task["m"]
    params = ctx.params(m)
    _TASKS[task["kind"]](run, task, params, ctx)
    return run.outcome()


def _grid(run, values):
    run.counts["operators.grid_values"] += int(np.size(values))


# ---------------------------------------------------------------------------
# gk: the distribution-function decay experiment, with cmd_gk's verdicts
# ---------------------------------------------------------------------------


def _task_gk(run, task, params, ctx):
    th = params.theta
    F0 = GridFunction.from_callable(lambda x: x / th, params, DEGREE)
    f0 = GridFunction.from_callable(lambda x: (1.0 + th * x) / th, params, DEGREE)
    Fs = run.call("operators.gk_iterate_cdf", operators.gk_iterate_cdf, F0, GK_STEPS)
    if Fs is None:
        return
    run.counts["operators.gk_steps"] += len(Fs) - 1
    for F in Fs[1:]:
        _grid(run, F.values)
    rep = run.call("operators.error_sequence", operators.error_sequence, Fs, None, f0=f0)
    run.record([F.values for F in Fs], rep and rep.to_json_dict())
    run.checking("gk iterates", check_gk_iterates, params, Fs)
    if rep is not None:
        run.checking("gk decay", check_gk_decay, params, ctx.consts.q(params.m), Fs, rep)


def check_gk_iterates(run, params, Fs):
    run.check(len(Fs) == GK_STEPS + 1, f"expected {GK_STEPS + 1} iterates, got {len(Fs)}")
    for n, F in enumerate(Fs):
        v = F.values
        run.check(abs(v[0]) <= 1e-12 and abs(v[-1] - 1.0) <= 1e-12, f"F_{n} does not keep F(0)=0, F(theta)=1")


def check_gk_decay(run, params, q_ref, Fs, rep):
    """cmd_gk's verdicts, plus sup errors recomputed by the bench."""
    th, L = params.theta, params.log_normalizer
    q = rep.q_reference
    run.check(abs(q - q_ref) <= 2e-10, f"q_reference {q!r} differs from the oracle {q_ref!r}")
    xo = lobatto(th, 4 * DEGREE)
    limit = np.log1p(th * xo) / L
    for n in (1, 3):
        sup = float(np.max(np.abs(interpolant(Fs[n].values, th)(xo) - limit)))
        # two interpolants of the same values differ by ~1e-14
        run.check(abs(sup - rep.sup_errors[n]) <= 1e-8 * sup + 1e-13, f"sup error at n={n} differs from the bench's")
    floor = rep.noise_floor
    sup = rep.sup_errors
    first_below = next((n for n, e in enumerate(sup) if e < floor), None)
    upto = first_below if first_below is not None else len(sup)
    run.check(all(sup[k + 1] < sup[k] for k in range(max(upto - 1, 0))), "errors not monotone down to the floor")
    guard = 10.0
    checked = [
        rep.ratios[k]
        for k in range(2, len(rep.ratios))
        if (first_below is None or k + 1 < first_below) and sup[k + 1] >= guard * floor
    ]
    run.check(all(r <= q + 0.02 for r in checked), "a decay ratio exceeds q + 0.02")
    M = rep.lipschitz_M
    run.check(
        all(M[k + 1] <= q * M[k] + 1e-8 for k in range(min(10, len(M) - 1))), "derivative maxima do not contract by q"
    )


# ---------------------------------------------------------------------------
# powers: U fixes constants, V fixes c/(1+theta x), powers keep their mass
# ---------------------------------------------------------------------------


def _task_powers(run, task, params, ctx):
    th = params.theta
    a0, a1, a2, w = task["f"]
    c1, c2, hb = task["c1"], task["c2"], task["h"]
    nodes = lobatto(th, DEGREE)
    const = GridFunction(params, np.full(DEGREE + 1, c1))
    shape = GridFunction(params, c2 / (1.0 + th * nodes))
    f = GridFunction(params, a0 + a1 * np.sin(w * nodes) + a2 * np.cos(0.5 * w * nodes))
    h = GridFunction(params, 1.0 + hb * np.cos(np.pi * nodes / th))
    Uc = run.call("operators.apply_U", operators.apply_U, const)
    Vs = run.call("operators.apply_V", operators.apply_V, shape)
    Vp = run.call("operators.apply_V_power", operators.apply_V_power, f, POWER)
    Sp = run.call("operators.apply_S_power", operators.apply_S_power, f, h, POWER)
    outs = [g for g in (Uc, Vs, Vp, Sp) if g is not None]
    for g in outs:
        _grid(run, g.values)
    run.record([g.values for g in outs])
    run.checking("powers", check_powers, th, c1, c2, f.values, h.values, Uc, Vs, Vp, Sp)


def check_powers(run, th, c1, c2, f, h, Uc, Vs, Vp, Sp):
    if Uc is not None:
        run.check(float(np.max(np.abs(Uc.values - c1))) <= 1e-12 * max(1.0, abs(c1)), "U does not fix a constant")
    if Vs is not None:
        shape = c2 / (1.0 + th * lobatto(th, DEGREE))
        run.check(float(np.max(np.abs(Vs.values - shape))) <= 1e-10 * c2, "V does not fix c/(1+theta x)")
    scale = integral(np.abs(f), th)
    if Vp is not None:
        # V is the transfer operator of Lebesgue measure: it keeps int f dx
        run.check(abs(integral(Vp.values, th) - integral(f, th)) <= 1e-10 * scale, "V^n changes the Lebesgue mass")
    if Sp is not None:
        # S is the transfer operator of h dx: it keeps int f h dx
        run.check(
            abs(integral(Sp.values * h, th) - integral(f * h, th)) <= 1e-10 * scale * float(np.max(h)),
            "S^n changes the mass against h",
        )


# ---------------------------------------------------------------------------
# pullback: [0, theta] has mass 1; the invariant density is invariant
# ---------------------------------------------------------------------------


def _task_pullback(run, task, params, ctx):
    th, L, m = params.theta, params.log_normalizer, params.m
    a, b, k = task["h"]
    # mean 1 against dx/theta for any a, b and integer k; positive since |a|+|b| < 1
    h = lambda x: 1.0 + a * (2.0 * x / th - 1.0) + b * np.cos(2.0 * np.pi * k * x / th)
    inv = lambda x: (1.0 / m) / ((1.0 + th * np.asarray(x)) * L)
    lo, hi = (v * th for v in task["interval"])
    whole = run.call("operators.pullback_measure", operators.pullback_measure, (0.0, th), POWER, h, params)
    part = run.call("operators.pullback_measure", operators.pullback_measure, (lo, hi), POWER, inv, params)
    run.record(whole, part)
    expected = (math.log1p(th * hi) - math.log1p(th * lo)) / L
    run.check(whole is None or abs(whole - 1.0) <= 1e-10, f"[0, theta] pulls back to mass {whole!r}")
    run.check(part is None or abs(part - expected) <= 1e-10, f"invariant mass {part!r}, expected {expected!r}")


# ---------------------------------------------------------------------------
# families: one-shot transfer of off-grid callables, contraction inequalities
# ---------------------------------------------------------------------------


def _task_families(run, task, params, ctx):
    th, m = params.theta, params.m
    rng = generator(*task["family_seed"])
    mono = run.call("families.monotone_family", families.monotone_family, params, rng, FAMILY_COUNT)
    lip = run.call("families.lipschitz_family", families.lipschitz_family, params, rng, FAMILY_COUNT)
    fine = lobatto(th, 4 * DEGREE)
    nodes = lobatto(th, DEGREE)
    q = ctx.consts.q(m)
    for tf in mono or ():
        vals = run.call("operators.transfer_values", operators.transfer_values, tf.fn, fine, params)
        if vals is not None:
            _grid(run, vals)
            run.record(vals)
            run.checking("monotone contraction", check_monotone, th, m, tf, vals)
    for tf in lip or ():
        vals = run.call("operators.transfer_values", operators.transfer_values, tf.fn, nodes, params)
        if vals is not None:
            _grid(run, vals)
            run.record(vals)
            run.checking("Lipschitz contraction", check_lipschitz, th, q, tf, vals)


def check_monotone(run, th, m, tf, vals):
    dense = np.asarray(tf.fn(np.linspace(0.0, th, 2049)), dtype=float)
    run.check(bool(np.all(np.diff(dense) >= -1e-12)), f"{tf.label} is not monotone")
    run.check(abs(tf.variation - (dense[-1] - dense[0])) <= 1e-12 * max(1.0, abs(tf.variation)), f"{tf.label} variation")
    var_u = float(np.sum(np.abs(np.diff(vals))))
    run.check(var_u <= tf.variation / (m + 1) + 1e-10, f"var(U {tf.label}) exceeds var/(m+1)")


def check_lipschitz(run, th, q, tf, vals):
    xs = np.linspace(0.0, th, 4097)
    dense = np.asarray(tf.fn(xs), dtype=float)
    quotient = float(np.max(np.abs(np.diff(dense) / np.diff(xs))))
    # a quotient can exceed the grid maximum of |f'| by O((w h)^2) ~ 1e-6
    run.check(tf.seminorm >= quotient * (1.0 - 1e-5), f"{tf.label} seminorm below a difference quotient")
    xo = lobatto(th, 4 * DEGREE)
    s_u = float(np.max(np.abs(interpolant(vals, th).deriv()(xo))))
    run.check(s_u <= q * tf.seminorm + 1e-8, f"s(U {tf.label}) exceeds q s(f)")


_TASKS = {"gk": _task_gk, "powers": _task_powers, "pullback": _task_pullback, "families": _task_families}
