"""Workload ``cli``: one ``python -m thetacf`` child process at a time.

The only workload that pays, on every task, for interpreter start,
imports, argument parsing and JSON serialisation.  Children run one after
another from a fixed list; every argv runs at least twice per loop, and
the repeats must print the same bytes as the first run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

from . import oracles as o
from .common import TaskRun, check_constant, generator
from .wl_exact import _convergents, _draw_rational, _endpoints

WHY = "each task is a fresh interpreter: start-up, imports, argparse and JSON dominate; the only workload that measures the cli"
MIN_ROUNDS = 2  # the byte-identity check needs each argv twice
REFERENCE = "child"  # see speed.py
# A wrong output found when this benchmark was written (see the note in
# wl_sampling): beta at m=17 misses the requested 1e-10 by 1.05e-10.
KNOWN_WRONG = ("m=17 beta = ",)
TIMEOUT_S = 120
EXPAND_M = 2
EXPAND_DIGITS = 40
LARGE_M = 4099  # constants exits 3 here when this benchmark was written (QuadratureError)
ERGODIC_BOUNDS = {"levy_rel": 0.25, "approx_rel": 0.25, "geo_rel": 0.05}
OPERATOR_COUNT = 5
TOLERANCE = 1e-10  # the CLI's default --tolerance
PURPOSE = 40


def prepare(seed: int, ctx):
    gen = generator(seed, PURPOSE)
    x = _draw_rational(gen, EXPAND_M)
    sub_seed = str(int(gen.integers(0, 2**31)))
    for m in (10, 17, 2):
        ctx.consts.beta(m)
        ctx.consts.q(m)
        ctx.consts.khintchin(m)
    argvs = [
        ["expand", "--m", str(EXPAND_M), "--x", str(x), "--digits", str(EXPAND_DIGITS)],
        ["constants", "--m", "10"],
        ["constants", "--m", "17"],
        ["constants", "--m", str(LARGE_M)],
        ["ergodic", "--m", "2", "--seeds", "3", "--n", "50", "--samples", "30000", "--seed", sub_seed],
        ["gk", "--m", "10"],
        ["operator", "--m", "2", "--count", str(OPERATOR_COUNT), "--seed", sub_seed],
    ]
    return [[{"argv": a} for a in argvs]]


def warm_up_tasks(rounds):
    """One child that imports everything: compiles bytecode, warms the file cache."""
    return [{"argv": ["--version"]}]


def _import_seconds(stderr: str):
    """Cumulative import time of the thetacf package from ``-X importtime``."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "thetacf":
            return int(parts[1]) * 1e-6
    return None


def run_task(task, tr, ctx):
    run = TaskRun(tr)
    argv = task["argv"]
    sub = argv[0].lstrip("-")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ctx.root / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable] + (["-X", "importtime"] if tr.enabled else []) + ["-m", "thetacf"] + argv
    a = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ctx.root, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        run.errors.append(f"{sub}: no exit within {TIMEOUT_S} s")
        return run.outcome()
    b = time.perf_counter()
    tr.add(f"cli.{sub}", a, b)
    run.counts["cli.children"] += 1
    run.counts["cli.report_bytes"] += len(proc.stdout)
    if tr.enabled:
        imp = _import_seconds(proc.stderr.decode(errors="replace"))
        run.check(imp is not None, "no import time for thetacf in -X importtime output")
        run.counts["cli.import_s"] += imp or 0.0
        run.counts["cli.main_s"] += (b - a) - (imp or 0.0)
    run.record(proc.returncode, proc.stdout)
    if proc.returncode != 0:
        last = (proc.stderr.decode(errors="replace").strip().splitlines() or [""])[-1]
        run.errors.append(f"{' '.join(argv[:3])}: exit {proc.returncode}: {last[:200]}")
        return run.outcome()
    key = tuple(argv)
    first = ctx.seen.setdefault(key, proc.stdout)
    run.check(first == proc.stdout, f"{' '.join(argv)}: bytes differ from the first run in this loop")
    if sub == "version":
        run.check(proc.stdout.startswith(b"thetacf "), "--version printed something else")
        return run.outcome()
    run.checking(sub, CHECKS[sub], ctx, argv, json.loads(proc.stdout))
    return run.outcome()


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _close(run, m, what, value, ref):
    check_constant(run, f"m={m} {what}", value, ref, TOLERANCE)


def check_expand(run, ctx, argv, doc):
    m = int(_arg(argv, "--m"))
    x = (Fraction(_arg(argv, "--x")), Fraction(0))
    digits = doc["digits"]
    run.check(len(digits) == EXPAND_DIGITS and not doc["terminated"], "wrong number of digits")
    run.check(all(d >= m for d in digits), "digit below m")
    run.check(digits[:12] == o.mp_digits(x, m, 12), "leading digits differ from mpmath")
    ps, qs = _convergents(digits, m)
    pair = lambda d: (Fraction(d["a"]), Fraction(d["b"]))
    conv = doc["convergents"]
    run.check([pair(c["p"]) for c in conv] == ps[2:] and [pair(c["q"]) for c in conv] == qs[2:], "convergents differ")
    closed = o.q_inv(o.q_mul(qs[-1], o.q_add(qs[-1], o.q_mul(o.THETA, qs[-2], m)), m), m)
    run.check(closed[1] == 0 and Fraction(doc["cylinder"]["normalized_measure"]) == closed[0], "cylinder measure differs")
    lo, hi = pair(doc["cylinder"]["lower"]), pair(doc["cylinder"]["upper"])
    run.check((lo, hi) == _endpoints(digits, m), "cylinder endpoints differ")
    run.check(o.q_sign(o.q_sub(x, lo), m) >= 0 and o.q_sign(o.q_sub(hi, x), m) >= 0, "x outside its cylinder")


def check_constants(run, ctx, argv, doc):
    m = int(_arg(argv, "--m"))
    run.check(doc["m"] == m and abs(doc["theta"] - m**-0.5) <= 1e-15, "wrong m or theta")
    _close(run, m, "beta", doc["beta"], ctx.consts.beta(m))
    _close(run, m, "khintchin_geo", doc["khintchin_geo"], ctx.consts.khintchin(m))
    _close(run, m, "q", doc["q"], ctx.consts.q(m))
    run.check(doc["k_m"] == f"1/{m + 1}" and doc["q_lt_theta"] is True, "k_m or q_lt_theta wrong")


def check_ergodic(run, ctx, argv, doc):
    m = int(_arg(argv, "--m"))
    for key, bound in ERGODIC_BOUNDS.items():
        run.check(doc["deviations"][key] <= bound, f"deviation {key} = {doc['deviations'][key]:.4g} > {bound}")
    run.check(doc["float_digit_total"] == int(_arg(argv, "--samples")), "wrong float digit total")
    run.check(len(doc["exact_seeds"]) == int(_arg(argv, "--seeds")), "wrong number of exact seeds")
    run.check(all(row["k"] >= m for row in doc["digit_histogram"]), "histogram row below m")
    _close(run, m, "reference beta", doc["reference"]["beta"], ctx.consts.beta(m))
    _close(run, m, "reference khintchin_geo", doc["reference"]["khintchin_geo"], ctx.consts.khintchin(m))


def check_gk(run, ctx, argv, doc):
    m = int(_arg(argv, "--m"))
    for verdict in ("monotone_to_floor", "ratios_respect_q", "derivative_contraction_ok"):
        run.check(doc[verdict] is True, f"gk verdict {verdict} is not true")
    _close(run, m, "q_reference", doc["q_reference"], ctx.consts.q(m))
    run.check(len(doc["decay"]["sup_errors"]) == 13, "wrong number of iterates")


def check_operator(run, ctx, argv, doc):
    m = int(_arg(argv, "--m"))
    run.check(doc["all_ok"] is True and all(r["ok"] for r in doc["checks"]), "operator check table not all ok")
    run.check(len(doc["checks"]) == 1 + 4 + 2 * OPERATOR_COUNT, "wrong number of operator checks")
    _close(run, m, "q", doc["q"], ctx.consts.q(m))


CHECKS = {
    "expand": check_expand,
    "constants": check_constants,
    "ergodic": check_ergodic,
    "gk": check_gk,
    "operator": check_operator,
}
