"""End-to-end metrics from the untraced run, per-layer metrics from the traced run.

Count metrics (calls, digits, bits, ...) are taken over the first round of
the traced run.  Its inputs are fixed by the seed, so the counts repeat
exactly between runs.  Time metrics are averaged over every traced task.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from .tracing import ROOT

# name, unit, better
END_TO_END = (
    ("throughput_tasks_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("verified_ratio", "ratio", "higher"),
    ("cpu_ms_per_task", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# Counts kept as a maximum over tasks instead of a sum.
MAX_COUNTS = {"expansion.qn_coeff_bits"}

# Spans whose outputs are grid values (counted in operators.grid_values).
GRID_SPANS = (
    "operators.apply_U",
    "operators.apply_V",
    "operators.apply_V_power",
    "operators.apply_S_power",
    "operators.gk_iterate_cdf",
    "operators.transfer_values",
)

CLI_SUBCOMMANDS = ("expand", "constants", "gk", "ergodic", "operator")


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(loop, peak_rss_mb, setup_s):
    """Throughput counts verified tasks; latency covers every task, failed or not.

    Times are scaled to reference speed (see ``speed.py``), task by task;
    throughput is verified tasks over the scaled time of all tasks.  The
    times as measured are kept in the detail, under ``raw``.
    """
    attempted = len(loop.records)
    verified = sum(1 for rec in loop.records if rec.outcome.ok)

    def timings(walls, cpus):
        return {
            "throughput_tasks_s": verified / sum(walls),
            "latency_p50_ms": 1000.0 * percentile(walls, 0.5),
            "latency_p90_ms": 1000.0 * percentile(walls, 0.9),
            "cpu_ms_per_task": 1000.0 * sum(cpus) / attempted,
        }

    walls = [rec.wall * rec.scale for rec in loop.records]
    values = timings(walls, [rec.cpu * rec.scale for rec in loop.records])
    values.update(verified_ratio=verified / attempted, peak_rss_mb=peak_rss_mb, setup_s=setup_s)
    p90 = percentile(walls, 0.9)
    extra = {
        "failed_ratio": (attempted - verified) / attempted,
        "samples": attempted,
        "beyond_p90": sum(1 for w in walls if w > p90),
        "rounds": loop.rounds,
        "elapsed_s": loop.elapsed,
        "speed_scale_median": statistics.median(rec.scale for rec in loop.records),
        "raw": timings([rec.wall for rec in loop.records], [rec.cpu for rec in loop.records]),
    }
    return {name: values[name] for name, _, _ in END_TO_END}, extra


def _counts(records):
    out = Counter()
    for rec in records:
        for key, val in rec.outcome.counts.items():
            out[key] = max(out[key], val) if key in MAX_COUNTS else out[key] + val
    return out


def per_layer(tracer, traced, untraced):
    """Every per-layer metric; a layer the workload never calls reads 0."""
    per_task, roots = tracer.self_times()
    tasks = len(traced.records)
    self_total = defaultdict(float)
    for spans in per_task.values():
        for name, sec in spans.items():
            self_total[name] += sec
    first = {(rec.round, rec.index) for rec in traced.records if rec.round == 0}
    calls0 = Counter(name for task, name, *_ in tracer.spans if task in first)
    durations = defaultdict(list)
    for task, name, parent, start, end in tracer.spans:
        durations[name].append(end - start)
    c0 = _counts(rec for rec in traced.records if rec.round == 0)
    c_all = _counts(traced.records)

    def self_s(name):
        return self_total[name] / tasks

    def rate(count, spans):
        busy = sum(self_total[s] for s in spans)
        return c_all[count] / busy if busy > 0 else 0.0

    steps_s = self_total["operators.gk_iterate_cdf"]
    cli_tasks = c_all["cli.children"]
    gap = max(
        abs(roots[(rec.round, rec.index)] - rec.wall) / rec.wall for rec in traced.records
    )
    m = {
        "expansion.expand.calls": calls0["expansion.expand"],
        "expansion.expand.self_s": self_s("expansion.expand"),
        "expansion.digits": c0["expansion.digits"],
        "expansion.digits_per_s": rate("expansion.digits", ["expansion.expand"]),
        "expansion.convergents.self_s": self_s("expansion.convergents"),
        "expansion.cylinder.self_s": self_s("expansion.cylinder"),
        "expansion.cylinder_measure.self_s": self_s("expansion.cylinder_measure"),
        "expansion.approximation_error.self_s": self_s("expansion.approximation_error"),
        "expansion.qn_coeff_bits": c0["expansion.qn_coeff_bits"],
        "montecarlo.exact_orbit_statistics.self_s": self_s("montecarlo.exact_orbit_statistics"),
        "montecarlo.check_error_bounds.self_s": self_s("montecarlo.check_error_bounds"),
        "montecarlo.seed_accept_ratio": (
            c0["montecarlo.seeds_accepted"] / c0["montecarlo.seeds_drawn"] if c0["montecarlo.seeds_drawn"] else 0.0
        ),
        "montecarlo.float_digit_run.calls": calls0["montecarlo.float_digit_run"],
        "montecarlo.float_digit_run.self_s": self_s("montecarlo.float_digit_run"),
        "montecarlo.float_digit_run.digits": c0["montecarlo.float_digits"],
        "montecarlo.float_digits_per_s": rate("montecarlo.float_digits", ["montecarlo.float_digit_run"]),
        "montecarlo.float_huge_digits": c0["montecarlo.float_huge_digits"],
        "montecarlo.digit_frequency.self_s": self_s("montecarlo.digit_frequency"),
        "montecarlo.geometric_mean_statistic.self_s": self_s("montecarlo.geometric_mean_statistic"),
        "montecarlo.arithmetic_mean_statistic.self_s": self_s("montecarlo.arithmetic_mean_statistic"),
        "operators.apply_U.calls": calls0["operators.apply_U"],
        "operators.apply_U.self_s": self_s("operators.apply_U"),
        "operators.apply_V.self_s": self_s("operators.apply_V"),
        "operators.apply_V_power.self_s": self_s("operators.apply_V_power"),
        "operators.apply_S_power.self_s": self_s("operators.apply_S_power"),
        "operators.gk_iterate_cdf.steps": c0["operators.gk_steps"],
        "operators.gk_iterate_cdf.self_s": self_s("operators.gk_iterate_cdf"),
        "operators.gk_step_ms": 1000.0 * steps_s / c_all["operators.gk_steps"] if c_all["operators.gk_steps"] else 0.0,
        "operators.error_sequence.self_s": self_s("operators.error_sequence"),
        "operators.transfer_values.calls": calls0["operators.transfer_values"],
        "operators.transfer_values.self_s": self_s("operators.transfer_values"),
        "operators.pullback_measure.self_s": self_s("operators.pullback_measure"),
        "operators.grid_values": c0["operators.grid_values"],
        "operators.grid_values_per_s": rate("operators.grid_values", GRID_SPANS),
        "operators.markov_transition.calls": calls0["operators.markov_transition"],
        "operators.markov_transition.self_s": self_s("operators.markov_transition"),
        "families.monotone_family.self_s": self_s("families.monotone_family"),
        "families.lipschitz_family.self_s": self_s("families.lipschitz_family"),
        "constants.constants_report.self_s": self_s("constants.constants_report"),
        "constants.constants_report.failed": c0["constants.constants_report.failed"],
        "constants.levy_beta.self_s": self_s("constants.levy_beta"),
        "constants.khintchin_product.self_s": self_s("constants.khintchin_product"),
        "constants.contraction_q.self_s": self_s("constants.contraction_q"),
        "cli.import_s": c_all["cli.import_s"] / cli_tasks if cli_tasks else 0.0,
        "cli.main.self_s": c_all["cli.main_s"] / cli_tasks if cli_tasks else 0.0,
        "cli.report_bytes": c0["cli.report_bytes"],
        "bench.self_s": self_s(ROOT),
        "bench.unaccounted_ratio": gap,
        "bench.trace_overhead_ratio": (len(traced.records) / traced.elapsed) / (len(untraced.records) / untraced.elapsed),
    }
    for sub in CLI_SUBCOMMANDS:
        walls = durations[f"cli.{sub}"]
        m[f"cli.{sub}.wall_ms"] = 1000.0 * statistics.median(walls) if walls else 0.0
    return m


PER_LAYER_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "per_s": ("1/s", "higher"),
    "wall_ms": ("ms", "lower"),
}


def per_layer_spec(name):
    """Unit and direction of a per-layer metric, read from its name."""
    special = {
        "expansion.digits": ("count", "higher"),
        "expansion.qn_coeff_bits": ("bits", "lower"),
        "montecarlo.seed_accept_ratio": ("ratio", "higher"),
        "montecarlo.float_digit_run.digits": ("count", "higher"),
        "montecarlo.float_huge_digits": ("count", "lower"),
        "operators.gk_iterate_cdf.steps": ("count", "higher"),
        "operators.gk_step_ms": ("ms", "lower"),
        "operators.grid_values": ("count", "higher"),
        "constants.constants_report.failed": ("count", "lower"),
        "cli.import_s": ("s", "lower"),
        "cli.report_bytes": ("bytes", "lower"),
        "bench.unaccounted_ratio": ("ratio", "lower"),
        "bench.trace_overhead_ratio": ("ratio", "higher"),
    }
    if name in special:
        return special[name]
    for suffix, spec in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return spec
    raise KeyError(name)
