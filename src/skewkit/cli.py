"""Command-line surface: population, estimate, compare, simulate, curve.

Exit codes: 0 success, 2 usage/parse error or a size too large for
memory, 3 data error (bad column, degenerate scale), 4 simulation
failure-rate breach, 141 stdout closed before the output was written (as a
shell reports a command ended by SIGPIPE).  Results go to stdout,
diagnostics to stderr.  Each flag named after a simulation config key, and
``curve --points`` as ``j``, reads its text through ``skewness._READERS``.

A run ends through ``run``: it flushes stdout and stderr and leaves with
``os._exit``, skipping the interpreter's teardown (module cleanup and a
garbage collection over numpy's objects, 30-40 ms of a cold run on a 2-core
host), so ``atexit`` handlers and finalizers do not run.  That is safe
because no command writes a file and every command closes what it opens
before it returns; only the two streams hold pending output.  Under a
tracer or a profiler (``sys.gettrace()`` or ``sys.getprofile()`` set, as
coverage tools and ``python -m cProfile`` do) ``run`` exits normally, so
they write their output.  argparse's own exits (usage errors, ``--help``)
and uncaught exceptions also take the normal exit.  ``main(argv)`` only
returns the code.
"""

from __future__ import annotations

import argparse
import collections
import csv
import itertools
import json
import math
import os
import sys
import warnings
from typing import NoReturn

import numpy as np

from .errors import SkewkitError
# ``interval`` is not called here; perfbench/tracer.py binds it on this module.
from .inference import (  # noqa: F401
    difference_intervals, interval, interval_rows, point_estimate,
)
from .quantiles import DEFAULT_BANDWIDTH, SortedSample
from .skewness import (
    Direction, MeasureKind, SkewMeasure, _FAMILIES, _READERS, _read, midpoint_probs,
    parse_measures, point_values, population_measures,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SIMULATION = 4
EXIT_PIPE = 141


class DataError(SkewkitError):
    """Input-data problem surfaced by the CLI (bad column, too few rows)."""


def _fmt(x) -> str:
    if x is None:
        return "-"
    return f"{x:.6g}"


def _filled(row: list[str]) -> bool:
    """Whether a CSV row holds anything but whitespace; other rows are skipped."""
    return any(map(str.strip, row))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _locate(path: str, first: list[str], column: str) -> tuple[bool, int]:
    """Whether ``first``, the first filled row, is a header, and the 0-based
    index that ``column`` selects.

    The row is a header whenever any of its fields is non-numeric.  ``column``
    is an index if it parses as an integer, otherwise a header name.
    """
    has_header = not all(map(_is_number, first))
    try:
        return has_header, int(column)
    except ValueError:
        if not has_header:
            raise DataError(f"{path}: no header row, select the column by index") from None
    try:
        return True, [c.strip() for c in first].index(column)
    except ValueError:
        raise DataError(f"{path}: no column named {column!r}") from None


def _parse_clean(path: str, column: str) -> np.ndarray | None:
    """The selected column as numpy's C parser reads it, non-finite values
    included, or None for any file that the per-cell reader must take.

    numpy rejects an unparseable cell, a short row, a whitespace-only row and
    a file with no data rows (a warning), and splits quoted fields as ``csv``
    does, so a file it accepts reads as the per-cell loop reads it.  It reads
    the open file, already past the header, so blank lines before the header
    need no count.  Every error is left to the per-cell loop, which reports
    a bad byte anywhere before a bad column.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            first = next(filter(_filled, csv.reader(fh)), None)
            if first is None:
                return None
            has_header, idx = _locate(path, first, column)
            # usecols counts a negative index from the right and overflows
            # on a huge one
            if not 0 <= idx < len(first):
                return None
            if not has_header:
                fh.seek(0)
            # comments=None: a "#5" cell is unparseable, not a comment
            return np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, usecols=idx,
                              ndmin=1)
    except (OSError, ValueError, Warning, csv.Error, DataError):
        return None


def _parse_cells(path: str, column: str) -> tuple[np.ndarray, dict[str, int]]:
    """The finite values of the selected column, cell by cell, and the count
    of rows dropped as non-finite and as unparseable.

    The rows stream through the loop, one at a time.  A bad byte anywhere is
    reported first, so a bad column and an index out of range wait until the
    whole file has been read.
    """
    from array import array  # not loaded on numpy's path

    values = array("d")  # 8 bytes a value, where a list of floats takes 32
    dropped = {"non-finite": 0, "unparseable": 0}
    width = 0  # of the widest data row
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = filter(_filled, csv.reader(fh))
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: file is empty")
            try:
                has_header, idx = _locate(path, first, column)
            except DataError:
                collections.deque(rows, maxlen=0)  # a bad byte further on comes first
                raise
            for row in rows if has_header else itertools.chain([first], rows):
                width = max(width, len(row))
                try:
                    v = float(row[idx].strip() if 0 <= idx < len(row) else "")
                except ValueError:
                    dropped["unparseable"] += 1
                    continue
                if math.isfinite(v):
                    values.append(v)
                else:
                    dropped["non-finite"] += 1
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    if width and not 0 <= idx < width:
        raise DataError(f"{path}: column index {idx} out of range")
    return np.asarray(values), dropped


def read_numeric_column(path: str, column: str) -> np.ndarray:
    """Load one numeric CSV column, dropping non-finite and unparseable rows
    with a count of each.

    The first filled line is treated as a header whenever any of its fields
    is non-numeric.  ``column`` is a 0-based index if it parses as an
    integer, otherwise a header name.  numpy's parser reads a clean file;
    any other file is read cell by cell, with the same result.
    """
    parsed = _parse_clean(path, column)
    if parsed is None:
        values, dropped = _parse_cells(path, column)
    else:
        values = parsed[np.isfinite(parsed)]
        dropped = {"non-finite": parsed.size - values.size, "unparseable": 0}
    counts = [f"{count} {kind} row(s)" for kind, count in dropped.items() if count]
    if counts:
        print(f"{path}: dropped {' and '.join(counts)}", file=sys.stderr)
    if len(values) < 10:
        raise DataError(f"{path}: need at least 10 finite rows, got {len(values)}")
    return values


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
    from . import simulation  # the coverage harness loads only here

    # each config key has a flag of its name
    doc.update({key: getattr(args, key) for key in _READERS if getattr(args, key) is not None})
    if "threads" not in doc and os.environ.get("SKEWKIT_THREADS"):
        doc["threads"] = _read("threads", os.environ["SKEWKIT_THREADS"], name="SKEWKIT_THREADS ")
    report = simulation.run_coverage(simulation.SimConfig.from_dict(doc))
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


def _flag(key: str):
    """An argparse type that reads a flag's text through ``key``'s row of ``skewness._READERS``,
    so the flag accepts what the config key accepts; argparse names the flag in the message."""
    def read(text: str):
        try:
            return _read(key, text, name="")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


class _StoreRead(argparse.Action):
    """argparse's store, except that the text ``--`` of ``--flag=--``, which argparse drops
    before the type sees it (passing []), is read and checked against the choices like any
    other text."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            values = parser._get_value(self, "--")
            parser._check_value(self, values)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subcommands' parsers, whose value options store through
    ``_StoreRead``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreRead)


def _add_options(parser, *names: str, overrides: bool = False) -> None:
    """Declare the options ``names`` that several subcommands share.  With
    ``overrides`` (simulate) every default but --format's is None, so a flag
    overrides only the config key it sets."""
    specs = {
        "dist": dict(type=_flag("dist"), required=not overrides,
                     help="distribution, e.g. 'lognormal(0,1)' or 'exp(1)'"),
        "measures": dict(required=not overrides,
                         help="comma list: gamma@0.25, lambda@0.05, auc_gamma, ..., b3, or 'all'"),
        "level": dict(type=_flag("level"), default=0.95, help="confidence level in (0, 1)"),
        "j": dict(type=_flag("j"), default=100, help="midpoint grid size for AUC kinds (default 100)"),
        "direction": dict(type=_flag("direction"), default=Direction.RIGHT, help="'right' or 'left'"),
        "format": dict(choices=("text", "json", "csv"), default="text",
                       help="output format (default: text)"),
    }
    for name in names:
        if overrides and name != "format":
            specs[name]["default"] = None
        parser.add_argument(f"--{name}", **specs[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewkit",
        description="Quantile-based skewness measures with delta-method confidence intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("population", help="population values of skewness measures")
    _add_options(p, "dist", "measures", "j", "direction", "format")
    p.set_defaults(func=cmd_population, sizes="--j")

    p = sub.add_parser("estimate", help="estimates and confidence intervals from a CSV column")
    p.add_argument("input", help="CSV file")
    p.add_argument("--column", required=True, help="column name or 0-based index")
    _add_options(p, "measures", "level", "j", "direction", "format")
    p.set_defaults(func=cmd_estimate, sizes="--j or the input")

    p = sub.add_parser("compare", help="difference of measures between two samples")
    p.add_argument("input_a", help="CSV file for group A")
    p.add_argument("input_b", help="CSV file for group B")
    p.add_argument("--column", required=True, help="column (both files unless --column-b)")
    p.add_argument("--column-b", default=None, help="column for group B")
    _add_options(p, "measures", "level", "j", "direction", "format")
    p.set_defaults(func=cmd_compare, sizes="--j or the inputs")

    p = sub.add_parser("simulate", help="Monte Carlo coverage study from a JSON config")
    p.add_argument("config", nargs="?", default=None, help="JSON config path")
    for key in ("n", "trials", "seed", "bandwidth"):
        p.add_argument(f"--{key}", type=_flag(key), help=_READERS[key][1])
    p.add_argument("--threads", type=_flag("threads"),
                   help="positive integer or 'auto'; accepted, changes nothing")
    _add_options(p, "dist", "measures", "level", "j", "direction", "format", overrides=True)
    p.set_defaults(func=cmd_simulate, sizes="--n, --trials or --j")

    p = sub.add_parser("curve", help="population skewness curve data for plotting")
    p.add_argument("--family", required=True, choices=_FAMILIES)
    p.add_argument("--points", type=_flag("j"), default=100)
    _add_options(p, "dist", "direction", "format")
    p.set_defaults(func=cmd_curve, sizes="--points")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``); point it at devnull, so that
        # the interpreter's last flush of the pending output raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ValueError as exc:
        # bad measure grammar, bad parameters, unreadable configs: caller-side mistakes
        print(f"skewkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SkewkitError as exc:
        print(f"skewkit: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        reason = str(exc) or "an allocation failed"
        print(f"skewkit: out of memory: {reason}; lower {args.sizes}", file=sys.stderr)
        return EXIT_USAGE


def run() -> NoReturn:
    """Process entry of ``skewkit`` and ``python -m skewkit.cli``: ``main``,
    then an exit without interpreter teardown (see the module docstring)."""
    code = main()
    if sys.gettrace() is not None or sys.getprofile() is not None:
        sys.exit(code)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_PIPE
    try:
        sys.stderr.flush()
    except OSError:
        pass  # as the interpreter's own exit ignores a failed stderr flush
    os._exit(code)


if __name__ == "__main__":
    run()
