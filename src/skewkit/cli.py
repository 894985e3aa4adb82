"""Command-line surface: population, estimate, compare, simulate, curve.

Exit codes: 0 success, 2 usage/parse error, 3 data error (bad column,
degenerate scale), 4 simulation failure-rate breach.  Results go to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .distributions import parse_distribution
from .errors import SkewkitError
# ``interval`` is not called here; perfbench/tracer.py binds it on this module.
from .inference import (  # noqa: F401
    difference_intervals, interval, interval_rows, point_estimate,
)
from .quantiles import DEFAULT_BANDWIDTH, SortedSample
from .simulation import SimConfig, run_coverage
from .skewness import (
    Direction, MeasureKind, SkewMeasure, midpoint_probs, parse_measures, point_values,
    population_measures,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SIMULATION = 4


class DataError(SkewkitError):
    """Input-data problem surfaced by the CLI (bad column, too few rows)."""


def _fmt(x) -> str:
    if x is None:
        return "-"
    return f"{x:.6g}"


def read_numeric_column(path: str, column: str) -> np.ndarray:
    """Load one numeric CSV column, dropping non-finite and unparseable rows
    with a count of each.

    The first line is treated as a header whenever any of its fields is
    non-numeric.  ``column`` is a 0-based index if it parses as an integer,
    otherwise a header name.
    """
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and any(cell.strip() for cell in r)]
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    if not rows:
        raise DataError(f"{path}: file is empty")

    def number(cell: str) -> float | None:
        try:
            return float(cell)
        except ValueError:
            return None

    has_header = any(number(c) is None for c in rows[0])
    header = [c.strip() for c in rows[0]] if has_header else None
    body = rows[1:] if has_header else rows

    try:
        idx = int(column)
    except ValueError:
        if header is None:
            raise DataError(f"{path}: no header row, select the column by index") from None
        try:
            idx = header.index(column)
        except ValueError:
            raise DataError(f"{path}: no column named {column!r}") from None
    if body and not (0 <= idx < max(len(r) for r in body)):
        raise DataError(f"{path}: column index {idx} out of range")

    values = []
    dropped = {"non-finite": 0, "unparseable": 0}
    for row in body:
        v = number(row[idx].strip() if idx < len(row) else "")
        if v is None:
            dropped["unparseable"] += 1
        elif not np.isfinite(v):
            dropped["non-finite"] += 1
        else:
            values.append(v)
    counts = [f"{count} {kind} row(s)" for kind, count in dropped.items() if count]
    if counts:
        print(f"{path}: dropped {' and '.join(counts)}", file=sys.stderr)
    if len(values) < 10:
        raise DataError(f"{path}: need at least 10 finite rows, got {len(values)}")
    return np.asarray(values)


def _emit(fmt: str, payload: dict, header: list[str], rows: list[list[str]]) -> None:
    """Print ``payload`` as JSON, or ``header`` and ``rows`` as CSV or as an
    aligned text table."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])
    else:
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        for row in (header, *rows):
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


# --------------------------------------------------------------------------
# subcommands


def cmd_population(args) -> int:
    measures = parse_measures(args.measures, args.direction, args.j)
    values = list(zip(measures, population_measures(args.dist, measures)))
    _emit(
        args.format,
        {
            "command": "population",
            "dist": repr(args.dist),
            "j": args.j,
            "values": [{"measure": m.label(), "value": v} for m, v in values],
        },
        ["measure", "value"],
        [[m.label(), _fmt(v)] for m, v in values],
    )
    return EXIT_OK


def _estimate_rows(sample: SortedSample, measures, level, rule):
    """One row per measure, in order; raises the first failing measure's error.

    b3 takes ``point_estimate``; one ``interval_rows`` call gives every other
    measure its interval.
    """
    rest = [m for m in measures if m.kind is not MeasureKind.B3]
    pending = iter(interval_rows(sample.batch, rest, level, rule) if rest else ())
    rows = []
    for m in measures:
        if m.kind is MeasureKind.B3:
            rows.append((m, point_estimate(sample, m).value, None, None))
            continue
        r = next(pending)
        if r.errors:
            raise r.errors[0]
        rows.append((m, float(r.estimate[0]), float(r.lower[0]), float(r.upper[0])))
    return rows


def cmd_estimate(args) -> int:
    data = read_numeric_column(args.input, args.column)
    sample = SortedSample.from_data(data)
    measures = parse_measures(args.measures, args.direction, args.j)
    rows = _estimate_rows(sample, measures, args.level, DEFAULT_BANDWIDTH)
    _emit(
        args.format,
        {
            "command": "estimate",
            "input": args.input,
            "n": sample.n,
            "level": args.level,
            "estimates": [
                {"measure": m.label(), "estimate": est, "lower": lo, "upper": hi}
                for m, est, lo, hi in rows
            ],
        },
        ["measure", "estimate", "lower", "upper"],
        [[m.label(), _fmt(est), _fmt(lo), _fmt(hi)] for m, est, lo, hi in rows],
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    col_a = args.column
    col_b = args.column_b if args.column_b is not None else args.column
    sample_a = SortedSample.from_data(read_numeric_column(args.input_a, col_a))
    sample_b = SortedSample.from_data(read_numeric_column(args.input_b, col_b))
    measures = parse_measures(args.measures, args.direction, args.j, include_b3=False)
    if any(m.kind is MeasureKind.B3 for m in measures):
        raise ValueError("b3 has no standard error and cannot be compared")
    diffs = difference_intervals(sample_a, sample_b, measures, args.level, DEFAULT_BANDWIDTH)
    if args.format == "csv":
        header = ["measure", "estimate_a", "lower_a", "upper_a", "estimate_b", "lower_b",
                  "upper_b", "difference", "lower", "upper"]
        rows = [[d.measure.label(), *map(_fmt, (
            d.a.estimate, d.a.lower, d.a.upper, d.b.estimate, d.b.lower, d.b.upper,
            d.difference, d.lower, d.upper,
        ))] for d in diffs]
    else:
        header = ["measure", "estimate_a", "ci_a", "estimate_b", "ci_b", "difference", "ci_diff"]
        rows = [[d.measure.label(),
                 _fmt(d.a.estimate), f"({_fmt(d.a.lower)}, {_fmt(d.a.upper)})",
                 _fmt(d.b.estimate), f"({_fmt(d.b.lower)}, {_fmt(d.b.upper)})",
                 _fmt(d.difference), f"({_fmt(d.lower)}, {_fmt(d.upper)})"] for d in diffs]
    payload = {
        "command": "compare",
        "input_a": args.input_a,
        "input_b": args.input_b,
        "level": args.level,
        "differences": [d.to_dict() for d in diffs],
    }
    _emit(args.format, payload, header, rows)
    return EXIT_OK


def cmd_simulate(args) -> int:
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ValueError(f"{args.config}: {exc.strerror or exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: the config must be a JSON object")
    keys = ("dist", "n", "trials", "seed", "level", "threads", "bandwidth", "direction", "j",
            "measures")
    doc.update({key: getattr(args, key) for key in keys if getattr(args, key) is not None})
    if "threads" not in doc and os.environ.get("SKEWKIT_THREADS"):
        try:
            doc["threads"] = _threads(os.environ["SKEWKIT_THREADS"])
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"SKEWKIT_THREADS {exc}") from None
    report = run_coverage(SimConfig.from_dict(doc))
    if args.format == "text":
        print(report.render_text())
    else:
        _emit(
            args.format,
            report.to_dict(),
            ["measure", "truth", "coverage", "mean_width", "failures"],
            [[r.measure.label(), _fmt(r.truth),
              "-" if np.isnan(r.coverage) else f"{r.coverage:.4f}",
              "-" if np.isnan(r.mean_width) else _fmt(r.mean_width), str(r.failures)]
             for r in report.results],
        )
    print(f"elapsed: {report.elapsed_seconds:.2f}s", file=sys.stderr)
    if report.failure_reasons:
        print(f"trial failures: {report.failure_reasons}", file=sys.stderr)
    if report.failure_rate_exceeded:
        print("failure rate above 1%; coverage estimates are unreliable", file=sys.stderr)
        return EXIT_SIMULATION
    return EXIT_OK


_CURVE_FAMILIES = ("gamma", "gamma_star", "lambda", "lambda_star")


def cmd_curve(args) -> int:
    # the curve a family's AUC measure integrates: the family's pointwise measure at each midpoint
    probs = midpoint_probs(args.points)
    measures = [SkewMeasure(MeasureKind(args.family), p=p, direction=args.direction) for p in probs]
    points = [(float(p), float(v)) for p, v in zip(probs, point_values(args.dist.quantile, measures))]
    _emit(
        args.format,
        {
            "command": "curve",
            "dist": repr(args.dist),
            "family": args.family,
            "points": [{"p": p, "value": v} for p, v in points],
        },
        ["p", "value"],
        [[_fmt(p), _fmt(v)] for p, v in points],
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# argument plumbing


def _direction(text: str) -> Direction:
    try:
        return Direction(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError("direction must be 'right' or 'left'") from None


def _level(text: str) -> float:
    try:
        if 0.0 < float(text) < 1.0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("confidence level must lie strictly inside (0, 1)")


def _threads(text: str) -> str:
    if text == "auto" or text.isascii() and text.strip().isdigit() and int(text) > 0:
        return text
    raise argparse.ArgumentTypeError(f"must be a positive integer or 'auto', got {text!r}")


def _add_options(parser, *names: str, overrides: bool = False) -> None:
    """Declare the options ``names`` that several subcommands share.  With
    ``overrides`` (simulate) every default but --format's is None, so a flag
    overrides only the config key it sets."""
    specs = {
        "measures": dict(required=not overrides,
                         help="comma list: gamma@0.25, lambda@0.05, auc_gamma, ..., b3, or 'all'"),
        "level": dict(type=_level, default=0.95, help="confidence level in (0, 1)"),
        "j": dict(type=int, default=100, help="midpoint grid size for AUC kinds (default 100)"),
        "direction": dict(type=_direction, default=Direction.RIGHT, help="'right' or 'left'"),
        "format": dict(choices=("text", "json", "csv"), default="text",
                       help="output format (default: text)"),
    }
    for name in names:
        if overrides and name != "format":
            specs[name]["default"] = None
        parser.add_argument(f"--{name}", **specs[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewkit",
        description="Quantile-based skewness measures with delta-method confidence intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("population", help="population values of skewness measures")
    p.add_argument("--dist", required=True, type=parse_distribution,
                   help="distribution, e.g. 'lognormal(0,1)' or 'exp(1)'")
    _add_options(p, "measures", "j", "direction", "format")
    p.set_defaults(func=cmd_population)

    p = sub.add_parser("estimate", help="estimates and confidence intervals from a CSV column")
    p.add_argument("input", help="CSV file")
    p.add_argument("--column", required=True, help="column name or 0-based index")
    _add_options(p, "measures", "level", "j", "direction", "format")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("compare", help="difference of measures between two samples")
    p.add_argument("input_a", help="CSV file for group A")
    p.add_argument("input_b", help="CSV file for group B")
    p.add_argument("--column", required=True, help="column (both files unless --column-b)")
    p.add_argument("--column-b", default=None, help="column for group B")
    _add_options(p, "measures", "level", "j", "direction", "format")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="Monte Carlo coverage study from a JSON config")
    p.add_argument("config", nargs="?", default=None, help="JSON config path")
    p.add_argument("--dist", default=None, help="override: distribution string")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=_threads, default=None,
                   help="positive integer or 'auto'; accepted, changes nothing")
    p.add_argument("--bandwidth", default=None, help="'default' or a fixed value in (0,0.5)")
    _add_options(p, "measures", "level", "j", "direction", "format", overrides=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("curve", help="population skewness curve data for plotting")
    p.add_argument("--dist", required=True, type=parse_distribution)
    p.add_argument("--family", required=True, choices=_CURVE_FAMILIES)
    p.add_argument("--points", type=int, default=100)
    _add_options(p, "direction", "format")
    p.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # bad measure grammar, bad parameters, unreadable configs: caller-side mistakes
        print(f"skewkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SkewkitError as exc:
        print(f"skewkit: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
