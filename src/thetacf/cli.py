"""Command-line front end: deterministic, machine-readable experiment reports.

Subcommands::

    expand     digits, convergents, errors, and the prefix cylinder of one x
    constants  all scalar constants for one m
    gk         distribution-function decay experiment (CSV + JSON summary)
    ergodic    orbit-ensemble statistics against the limit laws
    operator   normalization/fixed-point/contraction check tables

Every report embeds the tool version and the full run configuration, no
state is read from the environment, and identical invocations produce
byte-identical files (exit codes: 0 success, 2 validation error, 3
runtime/numerical failure).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import constants as consts
from . import families, montecarlo, operators
from .expansion import (
    FLOAT_DIGIT_HORIZON,
    DigitError,
    DomainError,
    QThetaNumber,
    TerminationError,
    _table_and_cylinder,
    cylinder_measure,
    expand,
    new_params,
    qtheta_to_dict,
)
from .operators import GridFunction, OperatorConfig

__all__ = ["main", "console_main"]


class CLIError(Exception):
    """Invalid user input (exit code 2)."""


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _json_text(payload: dict) -> str:
    return json.dumps(_jsonify(payload), indent=2) + "\n"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _envelope(command: str, config: dict) -> dict:
    return {"tool": "thetacf", "version": __version__, "command": command, "config": config}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--m", type=int, required=True, help="base parameter: theta = 1/sqrt(m), m >= 2 non-square")
    sp.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    sp.add_argument("--out", type=str, default=None, help="output path (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thetacf", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"thetacf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand one point into digits and convergents")
    _common_flags(p)
    p.add_argument("--x", type=str, required=True, help="point: 'p/q', decimal, or 'a,b' for a + b*theta")
    p.add_argument("--digits", type=int, default=10, help="number of digits to extract")
    p.add_argument("--backend", choices=("exact", "float"), default="exact")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("constants", help="scalar constants for one m")
    _common_flags(p)
    p.add_argument("--tolerance", type=float, default=1e-10, help="tolerance for the constants")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("gk", help="distribution-function decay experiment")
    _common_flags(p)
    p.add_argument("--iterations", type=int, default=12)
    p.add_argument("--start", type=str, default="uniform", help="uniform | gamma | path to a grid JSON file")
    p.add_argument("--degree", type=int, default=64)
    p.set_defaults(func=cmd_gk)

    p = sub.add_parser("ergodic", help="orbit-ensemble statistics")
    _common_flags(p)
    p.add_argument("--seed", type=int, default=3, help="root RNG seed")
    p.add_argument("--seeds", type=int, default=20, help="number of exact rational seeds")
    p.add_argument("--n", type=int, default=200, help="exact orbit length")
    p.add_argument("--samples", type=int, default=1_050_000, help="total float digits for the histogram")
    p.add_argument("--float-orbit-len", type=int, default=65_536)
    p.set_defaults(func=cmd_ergodic)

    p = sub.add_parser("operator", help="operator check tables")
    _common_flags(p)
    p.add_argument("--seed", type=int, default=3, help="root RNG seed")
    p.add_argument("--family", choices=("constant", "monotone", "lipschitz", "all"), default="all")
    p.add_argument("--count", type=int, default=50, help="functions per random family")
    p.add_argument("--degree", type=int, default=64)
    p.set_defaults(func=cmd_operator)

    return parser


def _parse_point(text: str, params) -> tuple[QThetaNumber, str | None]:
    t = text.strip()
    try:
        if "," in t:
            a_str, b_str = t.split(",", 1)
            return QThetaNumber(Fraction(a_str.strip()), Fraction(b_str.strip()), params.m), None
        frac = Fraction(t)
    except (ValueError, ZeroDivisionError):
        try:
            frac = Fraction(float(t))
        except (ValueError, OverflowError):
            raise CLIError(f"cannot parse point {text!r}") from None
    limited = frac.limit_denominator(10**9)
    if limited == 0 and frac != 0:
        raise CLIError(
            f"point {text!r} is below the 1e-9 resolution of decimal and 'p/q' input and would read as 0; "
            "give it exactly in the coefficient form 'p/q,0'"
        )
    notice = None
    if limited != frac:
        notice = f"input {text!r} snapped to {limited} (denominator <= 1e9)"
    return QThetaNumber.from_rational(limited, params.m), notice


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_expand(args) -> int:
    params = new_params(args.m)
    if args.digits < 1:
        raise CLIError("--digits must be >= 1")
    x, notice = _parse_point(args.x, params)
    if args.backend == "exact":
        seq = expand(x, args.digits, params, backend="exact")
    else:
        seq = expand(float(x), args.digits, params, backend="float")
    ps, qs, cyl = _table_and_cylinder(seq, params)
    conv_rows = []
    for n in range(1, len(seq) + 1):
        ratio = ps[n + 1] / qs[n + 1]
        row = {
            "n": n,
            "p": qtheta_to_dict(ps[n + 1]),
            "q": qtheta_to_dict(qs[n + 1]),
            "ratio_float": float(ratio),
        }
        if args.backend == "exact":
            row["error_float"] = float(x - ratio)
        conv_rows.append(row)
    measure = cylinder_measure(cyl, params)
    payload = _envelope(
        "expand",
        {
            "m": args.m,
            "x": args.x,
            "digits": args.digits,
            "backend": args.backend,
            "format": args.format,
        },
    )
    payload.update(
        {
            "theta": params.theta,
            "x_value": qtheta_to_dict(x),
            "notice": notice,
            "digits": list(seq.digits),
            "terminated": seq.terminated,
            "float_horizon": FLOAT_DIGIT_HORIZON,
            "convergents": conv_rows,
            "cylinder": {
                "lower": qtheta_to_dict(cyl.lower),
                "upper": qtheta_to_dict(cyl.upper),
                "normalized_measure": str(measure),
                "normalized_measure_float": float(measure),
            },
        }
    )
    if args.format == "csv":
        # an empty cell stands for a float beyond the double range or, on the float backend, no error
        cell = lambda v: "" if v is None else repr(v)
        rows = [["n", "digit", "p_float", "q_float", "ratio_float", "error_float"]]
        for d, row in zip(seq.digits, conv_rows):
            floats = (row["p"]["float"], row["q"]["float"], row["ratio_float"], row.get("error_float"))
            rows.append([row["n"], d, *(cell(v) for v in floats)])
        _emit(_csv_text(rows), args.out)
    else:
        _emit(_json_text(payload), args.out)
    return 0


def cmd_constants(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise CLIError("--tolerance must be finite and positive")
    report = consts.constants_report(args.m, tolerance=args.tolerance)
    payload = _envelope("constants", {"m": args.m, "tolerance": args.tolerance, "format": args.format})
    payload.update(report.to_json_dict())
    if args.format == "csv":
        rows = [["key", "value"]]
        for key, val in report.to_json_dict().items():
            if key == "tolerances":
                for tk, tv in val.items():
                    rows.append([f"tolerance_{tk}", repr(tv)])
            else:
                rows.append([key, repr(val) if isinstance(val, float) else val])
        _emit(_csv_text(rows), args.out)
    else:
        _emit(_json_text(payload), args.out)
    return 0


def _operator_config(degree: int) -> OperatorConfig:
    try:
        return OperatorConfig(degree=degree)
    except ValueError as exc:
        raise CLIError(f"--degree: {exc}") from None


def _gk_start(start: str, params, config: OperatorConfig):
    nodes = GridFunction.from_callable(lambda x: x, params, config.degree).nodes
    th = params.theta
    if start == "uniform":
        F0 = GridFunction(params, nodes / th)
        f0 = GridFunction(params, (1.0 + th * nodes) / th)
        return F0, f0
    if start == "gamma":
        F0 = GridFunction(params, consts.gamma_cdf(nodes, params))
        # F0' = theta/((1+theta*x) L), so the density (1+theta*x) F0' is constant
        f0 = GridFunction(params, np.full(nodes.size, th / params.log_normalizer))
        return F0, f0
    path = Path(start)
    if not path.exists():
        raise CLIError(f"start must be 'uniform', 'gamma', or a grid file; {start!r} not found")
    data = json.loads(path.read_text())
    values = np.asarray(data["values"], dtype=float)
    return GridFunction(params, values), None


def cmd_gk(args) -> int:
    params = new_params(args.m)
    if args.iterations < 1:
        raise CLIError("--iterations must be >= 1")
    config = _operator_config(args.degree)
    F0, f0 = _gk_start(args.start, params, config)
    Fs = operators.gk_iterate_cdf(F0, args.iterations, config)
    report = operators.error_sequence(Fs, config, f0=f0)
    q = report.q_reference
    floor = report.noise_floor
    sup = report.sup_errors
    first_below = next((n for n, e in enumerate(sup) if e < floor), None)
    upto = first_below if first_below is not None else len(sup)
    monotone = all(sup[k + 1] < sup[k] for k in range(max(upto - 1, 0)))
    # decay verdicts stop at the first floor crossing and keep a one-decade
    # guard band above it: within that band the ratios measure rounding,
    # not contraction (the floor constant is calibrated at m ~ 10 and the
    # true floor drifts up slightly with m)
    guard = 10.0
    ratio_checks = [
        report.ratios[k]
        for k in range(2, len(report.ratios))
        if (first_below is None or k + 1 < first_below) and sup[k + 1] >= guard * floor
    ]
    ratios_ok = all(r <= q + 0.02 for r in ratio_checks)
    m_ok = all(
        report.lipschitz_M[k + 1] <= q * report.lipschitz_M[k] + 1e-8
        for k in range(min(10, len(report.lipschitz_M) - 1))
    )
    payload = _envelope(
        "gk",
        {
            "m": args.m,
            "iterations": args.iterations,
            "start": args.start,
            "degree": args.degree,
            "format": args.format,
        },
    )
    payload.update(
        {
            "theta": params.theta,
            "q_reference": q,
            "ratio_bound": q + 0.02,
            "noise_floor": floor,
            "first_below_floor": first_below,
            "monotone_to_floor": monotone,
            "ratios_respect_q": ratios_ok,
            "derivative_contraction_ok": m_ok,
            "decay": report.to_json_dict(),
        }
    )
    csv_text = _csv_text(report.csv_rows())
    if args.out is not None:
        base = Path(args.out)
        if base.suffix in (".csv", ".json"):
            base = base.with_suffix("")
        Path(str(base) + ".csv").write_text(csv_text)
        Path(str(base) + ".json").write_text(_json_text(payload))
    elif args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(_json_text(payload))
    return 0


def cmd_ergodic(args) -> int:
    if args.seeds < 1:
        raise CLIError("--seeds must be >= 1")
    if args.n < 1:
        raise CLIError("--n must be >= 1")
    if args.samples < montecarlo._MIN_HISTOGRAM_DIGITS:
        raise CLIError(f"--samples must be >= {montecarlo._MIN_HISTOGRAM_DIGITS}")
    if args.float_orbit_len < 1 or args.float_orbit_len > 1_000_000:
        raise CLIError("--float-orbit-len must lie in [1, 1e6]")
    new_params(args.m)
    report = montecarlo.ergodic_report(
        args.m,
        seed=args.seed,
        n_seeds=args.seeds,
        orbit_length=args.n,
        float_digit_target=args.samples,
        float_orbit_length=args.float_orbit_len,
    )
    payload = _envelope(
        "ergodic",
        {
            "m": args.m,
            "seed": args.seed,
            "seeds": args.seeds,
            "n": args.n,
            "samples": args.samples,
            "float_orbit_len": args.float_orbit_len,
            "format": args.format,
        },
    )
    payload.update(report.to_json_dict())
    if args.format == "csv":
        _emit(_csv_text(report.histogram.csv_rows()), args.out)
    else:
        _emit(_json_text(payload), args.out)
    return 0


def cmd_operator(args) -> int:
    params = new_params(args.m)
    if args.count < 1:
        raise CLIError("--count must be >= 1")
    config = _operator_config(args.degree)
    q = consts.contraction_q(params, 1e-10)
    km = float(consts.contraction_km(args.m))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((args.seed, 2, 0))))
    grid = operators._cheb_machinery(params.m, 256)[0]
    rows = []

    norm_dev = max(
        operators.weight_normalization_residual(float(x), 600, params)
        for x in np.linspace(0.0, params.theta, 33)
    )
    rows.append(
        {
            "family": "normalization",
            "label": "sum P_i + tail",
            "metric": "max |sum - 1|",
            "value": norm_dev,
            "bound": 1e-14,
            "ok": norm_dev <= 1e-14,
        }
    )

    if args.family in ("constant", "all"):
        for tf in families.constant_family():
            vals = operators.transfer_values(tf.fn, grid, params, config, operator="U")
            dev = float(np.max(np.abs(vals - tf.fn(grid))))
            rows.append(
                {
                    "family": "constant",
                    "label": tf.label,
                    "metric": "max |Uf - f|",
                    "value": dev,
                    "bound": 1e-12,
                    "ok": dev <= 1e-12,
                }
            )
    if args.family in ("monotone", "all"):
        for tf in families.monotone_family(params, rng, args.count):
            vals = operators.transfer_values(tf.fn, grid, params, config, operator="U")
            var_u = float(np.sum(np.abs(np.diff(vals))))
            bound = km * tf.variation + 1e-10
            rows.append(
                {
                    "family": "monotone",
                    "label": tf.label,
                    "metric": "var(Uf) vs var(f)/(m+1)",
                    "value": var_u,
                    "bound": bound,
                    "ok": var_u <= bound,
                }
            )
    if args.family in ("lipschitz", "all"):
        for tf in families.lipschitz_family(params, rng, args.count):
            uf = GridFunction(
                params, operators.transfer_values(tf.fn, _nodes(params, args.degree), params, config, operator="U")
            )
            s_u = operators.lipschitz_seminorm(uf)
            bound = q * tf.seminorm + 1e-8
            rows.append(
                {
                    "family": "lipschitz",
                    "label": tf.label,
                    "metric": "s(Uf) vs q*s(f)",
                    "value": s_u,
                    "bound": bound,
                    "ok": s_u <= bound,
                }
            )

    payload = _envelope(
        "operator",
        {
            "m": args.m,
            "family": args.family,
            "count": args.count,
            "degree": args.degree,
            "seed": args.seed,
            "format": args.format,
        },
    )
    payload.update(
        {
            "theta": params.theta,
            "k_m": km,
            "q": q,
            "all_ok": all(r["ok"] for r in rows),
            "checks": rows,
        }
    )
    if args.format == "csv":
        table = [["family", "label", "metric", "value", "bound", "ok"]]
        for r in rows:
            table.append([r["family"], r["label"], r["metric"], repr(r["value"]), repr(r["bound"]), r["ok"]])
        _emit(_csv_text(table), args.out)
    else:
        _emit(_json_text(payload), args.out)
    return 0


def _nodes(params, degree: int):
    return operators._cheb_machinery(params.m, degree)[0]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CLIError, DigitError, DomainError, TerminationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        operators.OperatorSeriesError,
        consts.QuadratureError,
        ArithmeticError,
        FloatingPointError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
