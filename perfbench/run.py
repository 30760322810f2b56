#!/usr/bin/env python3
"""Run one workload of the thetacf benchmark and print its metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from the
checkout's ``src/``.  One process, one client, closed loop: a task starts
when the previous one has finished and its outputs have been checked.
Tasks run in rounds of a fixed mix, and the loop stops at a round
boundary, so every run sees the same mix.  Between tasks the loop reads
a fixed reference, and every reported time is scaled by it to reference
speed (``speed.py``); the times as measured are printed as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the loop
untraced for half the time, then runs the same rounds again with a span
around every call into the package, and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results and spans are also written under ``perfbench/results/``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import speed  # noqa: E402

SETUP_REF = speed.reference_ms("child")  # the host's speed as set-up begins
T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
WORKLOADS = ("exact", "spectral", "sampling", "cli")
SETUP_PROBES = 2  # extra set-ups in fresh interpreters; setup_s is the median of 1 + this many
PROBE_TIMEOUT_S = 120


@dataclass
class Rec:
    round: int
    index: int
    wall: float  # seconds, as measured
    cpu: float  # seconds of CPU, this process and its children
    scale: float  # speed.task_scales(): the host's speed around the task
    outcome: object


@dataclass
class Loop:
    records: list
    elapsed: float
    rounds: int
    readings: list  # reference readings in ms: before the first task and after each


class Context:
    """What tasks share: the checkout, references and per-m parameters."""

    def __init__(self, thetacf, oracles):
        self.root = ROOT
        self.consts = oracles.Constants(oracles.load_frozen(ROOT))
        self.seen = {}  # per loop: state a workload keeps across tasks
        self._new_params = thetacf.new_params
        self._params = {}

    def params(self, m):
        if m not in self._params:
            self._params[m] = self._new_params(m)
        return self._params[m]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def check_checkout():
    missing = [p for p in (SRC / "thetacf" / "__init__.py", ROOT / "tests" / "oracle_values.py") if not p.is_file()]
    if missing:
        raise SystemExit(f"not a thetacf checkout, missing: {', '.join(str(p) for p in missing)}")
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [str(SRC), str(ROOT)]


def setup(name, seed):
    """Import thetacf, generate the inputs, warm up.

    Returns the set-up time too, as measured and scaled by the ``child``
    reference read just before and just after it.
    """
    from perfbench import machine

    machine.pin_blas_threads()
    import thetacf

    if Path(thetacf.__file__).resolve().parent != (SRC / "thetacf").resolve():
        raise SystemExit(f"thetacf imported from {thetacf.__file__}, not from {SRC}")
    from perfbench import oracles
    from perfbench.tracing import NoTrace

    wl = importlib.import_module(f"perfbench.wl_{name}")
    ctx = Context(thetacf, oracles)
    rounds = wl.prepare(seed, ctx)
    for task in wl.warm_up_tasks(rounds):
        wl.run_task(task, NoTrace(), ctx)
    ctx.seen.clear()
    raw = time.perf_counter() - T_START
    return wl, ctx, rounds, (raw, raw * speed.scale("child", SETUP_REF, speed.reference_ms("child")))


def cpu_seconds():
    """User plus system time of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def timed_loop(wl, rounds, tr, ctx, seconds, n_rounds=None):
    """Whole rounds until the next one would end past ``seconds`` (or ``n_rounds``)."""
    ctx.seen.clear()
    records = []
    t0 = time.perf_counter()
    readings = [speed.reference_ms(wl.REFERENCE)]
    r = 0
    last = 0.0
    while True:
        if n_rounds is not None:
            if r >= n_rounds:
                break
        elif r >= wl.MIN_ROUNDS and time.perf_counter() - t0 + last > seconds:
            break
        start = time.perf_counter()
        for i, task in enumerate(rounds[r % len(rounds)]):
            c = cpu_seconds()
            tr.begin_task((r, i))
            a = time.perf_counter()
            outcome = wl.run_task(task, tr, ctx)
            b = time.perf_counter()
            tr.end_task()
            d = cpu_seconds()
            readings.append(speed.reference_ms(wl.REFERENCE))
            records.append(Rec(r, i, b - a, d - c, None, outcome))
        last = time.perf_counter() - start
        r += 1
    elapsed = time.perf_counter() - t0
    for rec, scale in zip(records, speed.task_scales(wl.REFERENCE, readings)):
        rec.scale = scale
    return Loop(records, elapsed, r, readings)


def setup_probes(name, seed):
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def failures(records):
    seen = {}
    for rec in records:
        for msg in rec.outcome.errors + rec.outcome.wrong:
            seen[msg] = seen.get(msg, 0) + 1
    return seen


def print_report(report):
    """The human-readable lines that precede the JSON result."""
    facts, extra, units = report["machine"], report["end_to_end_detail"], report["units"]
    blas = ", ".join(f"{b.get('config', b['library'])} threads={b.get('threads')}" for b in facts["openblas"])
    print(f"workload {report['workload']}: {report['why']}")
    print(f"seed {report['seed']}, input digest {report['input_digest'][:16]}, {report['tasks_per_round']} tasks per round")
    print(
        f"machine: nproc={facts['nproc']} python {facts['python']} numpy {facts['numpy']} "
        f"scipy {facts['scipy']} caches {facts['caches']} blas [{blas}]"
    )
    print(
        f"{extra['samples']} tasks in {extra['rounds']} rounds ({extra['elapsed_s']:.1f} s), "
        f"{extra['beyond_p90']} beyond p90, failed_ratio {extra['failed_ratio']:.4f}"
    )
    if "raw" in extra:
        raw = " ".join(f"{k} {v:.6g}" for k, v in extra["raw"].items())
        print(f"times scaled to reference speed by a median {extra['speed_scale_median']:.4f}; as measured: {raw}")
    for name, value in report["metrics"].items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    for msg, count in sorted(report["failures"].items()):
        print(f"  failed x{count}: {msg[:200]}")


def main(argv=None):
    args = parse_args(argv)
    check_checkout()
    wl, ctx, rounds, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    from perfbench import machine, metrics
    from perfbench.common import digest
    from perfbench.tracing import NoTrace, Tracer

    if args.trace == 0:
        loops = [timed_loop(wl, rounds, NoTrace(), ctx, args.seconds)]
    else:
        untraced = timed_loop(wl, rounds, NoTrace(), ctx, args.seconds / 2)
        tracer = Tracer()
        traced = timed_loop(wl, rounds, tracer, ctx, None, n_rounds=untraced.rounds)
        loops = [untraced, traced]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # read before the probes run
    setups = [own_setup] + setup_probes(args.workload, args.seed)
    setup_s = statistics.median(scaled for _, scaled in setups)

    records = [rec for loop in loops for rec in loop.records]
    unexpected = [
        msg for rec in records for msg in rec.outcome.wrong if not msg.startswith(tuple(wl.KNOWN_WRONG))
    ]
    correct = not unexpected
    e2e, extra = metrics.end_to_end(loops[0], peak_rss_mb, setup_s)
    if args.trace == 0:
        values = {name: e2e[name] for name, _, _ in metrics.END_TO_END}
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
    else:
        same = [(r.round, r.index, r.outcome.ok, r.outcome.fingerprint) for r in untraced.records] == [
            (r.round, r.index, r.outcome.ok, r.outcome.fingerprint) for r in traced.records
        ]
        values = metrics.per_layer(tracer, traced, untraced)
        units = {name: metrics.per_layer_spec(name)[0] for name in values}
        correct = correct and same and values["bench.unaccounted_ratio"] < 1e-3
        extra["traced_matches_untraced"] = same

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 1:
        tracer.write_jsonl(stem.with_suffix(".spans.jsonl"))
    report = {
        "workload": args.workload,
        "why": wl.WHY,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": digest(rounds),
        "tasks_per_round": len(rounds[0]),
        "machine": machine.facts(),
        "setup_samples_s": [raw for raw, _ in setups],
        "setup_samples_scaled_s": [scaled for _, scaled in setups],
        "metrics": values,
        "units": units,
        "end_to_end_detail": extra,
        "failures": failures(records),
        "correct": correct,
        # round, index in round, wall and CPU seconds as measured, speed scale, verified:
        # for every task of the loop behind the metrics
        "tasks": [[r.round, r.index, r.wall, r.cpu, r.scale, r.outcome.ok] for r in loops[-1].records],
        "reference_readings_ms": loops[-1].readings,
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n")

    print_report(report)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": sum(1 for rec in records if not rec.outcome.ok),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
