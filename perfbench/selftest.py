#!/usr/bin/env python3
"""Self-test of the benchmark: run it from the root of the repository.

    python3 perfbench/selftest.py

It runs every workload at the smallest size (one round; two for ``cli``)
with tracing off and on, and asserts that every metric named in
BENCHMARK.json is printed with its unit, that the run is correct, and
that traced and untraced runs give the same task outcomes.  It feeds
each checker one corrupted output (a flipped digit, a perturbed operator
value, a wrong constant, a non-zero exit) and asserts that the task
fails.  It asserts that the work counts repeat exactly, and that the
benchmark refuses to run without the package.  Exits non-zero on the
first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402

WORKLOADS = ("exact", "spectral", "sampling", "cli")
SEED = 7


class SelfTestError(AssertionError):
    pass


def expect(ok, what):
    if not ok:
        raise SelfTestError(what)
    print(f"ok: {what}")


def run_cli(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED), "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    expect(proc.returncode == 0, f"{workload} trace={trace} exits 0" + (f": {proc.stderr[-300:]}" if proc.returncode else ""))
    return proc.stdout.strip().splitlines()


def check_printed(spec):
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = run_cli(workload, trace)
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace={trace} result keys")
            expect(result["correct"] is True, f"{workload} trace={trace} is correct")
            expect(result["attempted"] >= 1, f"{workload} trace={trace} attempted tasks")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace} prints every {key} metric with its unit")
            text = "\n".join(lines[:-1])
            expect(all(f"  {name} " in text for name in want), f"{workload} trace={trace} names every metric in its report")
            if trace == 1:
                report = json.loads((HERE / "results" / f"{workload}-seed{SEED}-trace1.json").read_text())
                expect(report["end_to_end_detail"]["traced_matches_untraced"], f"{workload}: traced outcomes equal untraced")


def check_corruptions():
    """Each checker counts one corrupted output as a failed task."""
    loaded = {w: bench.setup(w, SEED)[:3] for w in WORKLOADS}

    import thetacf
    from thetacf import constants, operators

    from perfbench.tracing import NoTrace

    def first_task(workload, pred=lambda t: True):
        wl, ctx, rounds = loaded[workload]
        return wl, ctx, next(t for t in rounds[0] if pred(t))

    def fails_by_check(workload, task, wl, ctx, what):
        out = wl.run_task(task, NoTrace(), ctx)
        expect(not out.ok and out.wrong, f"{workload}: {what} fails its task ({out.wrong[:1]})")

    # a flipped digit in expand's output
    wl, ctx, task = first_task("exact")
    real = thetacf.expand

    def flipped(*args, **kwargs):
        seq = real(*args, **kwargs)
        digits = list(seq.digits)
        digits[5] += 1
        return type(seq)(tuple(digits), seq.terminated)

    thetacf.expand = flipped
    try:
        fails_by_check("exact", task, wl, ctx, "a flipped digit")
    finally:
        thetacf.expand = real
    expect(wl.run_task(task, NoTrace(), ctx).ok, "exact: the same task passes uncorrupted")

    # a perturbed operator value
    wl, ctx, task = first_task("spectral", lambda t: t["kind"] == "powers")
    real_u = operators.apply_U

    def perturbed(f, config=None):
        g = real_u(f, config)
        vals = g.values.copy()
        vals[7] += 1e-9
        return g.with_values(vals)

    operators.apply_U = perturbed
    try:
        fails_by_check("spectral", task, wl, ctx, "a perturbed operator value")
    finally:
        operators.apply_U = real_u
    expect(wl.run_task(task, NoTrace(), ctx).ok, "spectral: the same task passes uncorrupted")

    # a wrong constant
    wl, ctx, task = first_task("sampling", lambda t: t["const_m"] == 2)
    real_q = constants.contraction_q
    constants.contraction_q = lambda params, tolerance=1e-12: real_q(params, tolerance) * (1.0 + 1e-8)
    try:
        fails_by_check("sampling", task, wl, ctx, "a wrong constant")
    finally:
        constants.contraction_q = real_q
    expect(wl.run_task(task, NoTrace(), ctx).ok, "sampling: the same task passes uncorrupted")

    # a non-zero exit, and bytes that differ from the first run of an argv
    wl, ctx, _ = loaded["cli"]
    out = wl.run_task({"argv": ["constants", "--m", "4"]}, NoTrace(), ctx)
    expect(not out.ok and out.errors, "cli: a non-zero exit fails its task")
    ctx.seen.clear()
    ctx.seen[("constants", "--m", "10")] = b"{}"
    out = wl.run_task({"argv": ["constants", "--m", "10"]}, NoTrace(), ctx)
    expect(not out.ok and out.wrong, "cli: bytes that differ between two runs of one argv fail the task")
    ctx.seen.clear()
    return loaded


def check_counts_repeat(loaded):
    """Work counts from the traced first round are identical on a second run."""
    from perfbench import metrics
    from perfbench.tracing import NoTrace, Tracer

    counts = [n for n in _per_layer_names() if metrics.per_layer_spec(n)[0] in ("count", "bits", "bytes")]
    counts.append("montecarlo.seed_accept_ratio")
    for workload, (wl, ctx, rounds) in loaded.items():
        seen = []
        for _ in range(2):
            untraced = bench.timed_loop(wl, rounds, NoTrace(), ctx, None, n_rounds=wl.MIN_ROUNDS)
            tracer = Tracer()
            traced = bench.timed_loop(wl, rounds, tracer, ctx, None, n_rounds=wl.MIN_ROUNDS)
            same = [(r.outcome.ok, r.outcome.fingerprint) for r in untraced.records] == [
                (r.outcome.ok, r.outcome.fingerprint) for r in traced.records
            ]
            expect(same, f"{workload}: traced and untraced loops give the same outcomes")
            values = metrics.per_layer(tracer, traced, untraced)
            seen.append({name: values[name] for name in counts})
        expect(seen[0] == seen[1], f"{workload}: work counts repeat exactly ({sum(1 for v in seen[0].values() if v)} non-zero)")


def _per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def check_refuses_without_package():
    bare = HERE / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run without src/ and tests/, printing no result")


def check_speed_scaling():
    """Readings at the nominal time leave task times as measured; twice as slow halves them."""
    from perfbench import speed

    nominal = speed.NOMINAL_MS["mixed"]
    expect(speed.task_scales("mixed", [nominal] * 4) == [1.0] * 3, "speed: nominal readings give a factor of 1")
    expect(speed.task_scales("mixed", [2 * nominal] * 4) == [0.5] * 3, "speed: readings twice as slow give 0.5")
    for kind in speed.NOMINAL_MS:
        expect(speed.reference_ms(kind) > 0, f"speed: the {kind} reference reads a time")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_package()
    loaded = check_corruptions()
    check_counts_repeat(loaded)
    check_speed_scaling()
    check_printed(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
