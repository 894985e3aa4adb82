"""The benchmark's three workloads: inputs, one op, and output checks.

Every input is generated from the run's seed in ``setup``; skewkit only ever
receives the generated data.  Ops call skewkit through module attributes
(``inference.interval``, not a name bound at import) so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
from skewkit import errors, inference, quantiles, simulation, skewness
from skewkit.distributions import LogNormal

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
LEVEL = 0.95
Z = statistics.NormalDist().inv_cdf(0.5 + LEVEL / 2)
# Golden values and cross-path agreement: the tightest relative tolerance the
# repository's own oracles use (identity checks in tests/ use rel=1e-12).
REL_TOL = 1e-12
ABS_TOL = 1e-15

STANDARD_PS = (0.05, 0.1, 0.15, 0.2, 0.25)
INTERVAL_TOKENS = (
    [f"gamma@{p}" for p in STANDARD_PS]
    + [f"lambda@{p}" for p in STANDARD_PS]
    + ["auc_gamma", "auc_lambda", "auc_gamma_star", "auc_lambda_star"]
)
MEASURES = tuple(skewness.parse_measure(t) for t in INTERVAL_TOKENS)
B3 = skewness.parse_measure("b3")

# Ranges every correct estimate must respect (right direction): gamma lies
# in [-1, 1] and its p-weighted AUC in [-1/8, 1/8]; lambda = U/L - 1 >= -1
# for half-ranges U, L >= 0; the AUCs integrate over a cell of width 1/2.
_RANGES = {
    "gamma": (-1.0, 1.0),
    "lambda": (-1.0, math.inf),
    "auc_gamma": (-0.5, 0.5),
    "auc_gamma_star": (-0.125, 0.125),
    "auc_lambda": (-0.5, math.inf),
    "auc_lambda_star": (-0.125, math.inf),
    "b3": (-1.0, 1.0),
}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def _kind(label: str) -> str:
    return label.partition("@")[0]


def value_problems(label: str, value: float) -> list[str]:
    lo, hi = _RANGES[_kind(label)]
    if not (math.isfinite(value) and lo <= value <= hi):
        return [f"{label}: estimate {value!r} outside [{lo}, {hi}]"]
    return []


def interval_problems(label: str, est: float, lower: float, upper: float, se=None) -> list[str]:
    problems = value_problems(label, est)
    if not (math.isfinite(lower) and math.isfinite(upper) and lower < est < upper):
        problems.append(f"{label}: bounds ({lower!r}, {upper!r}) do not enclose {est!r}")
    if se is not None:
        if not (math.isfinite(se) and se > 0.0):
            problems.append(f"{label}: se {se!r} is not finite and positive")
        elif not math.isclose(upper - lower, 2.0 * Z * se, rel_tol=1e-9):
            problems.append(f"{label}: width {upper - lower!r} is not 2 z se")
    return problems


def _same(want, got) -> bool:
    """Equal, with floats compared at REL_TOL and lists element by element."""
    if isinstance(want, list):
        return isinstance(got, list) and len(want) == len(got) and all(map(_same, want, got))
    if isinstance(want, float) and isinstance(got, float):
        return _close(want, got)
    return want == got


def compare_golden(name: str, seed: int, view: dict) -> list[str] | None:
    """Compare an op-0 view with the one recorded for ``seed`` (None if there
    is none); ints (counts, n) compare exactly."""
    recorded = json.loads(GOLDEN_PATH.read_text())
    if recorded["seed"] != seed:
        return None
    golden = recorded[name]
    if golden.keys() != view.keys():
        return [f"golden: keys differ ({sorted(golden.keys() ^ view.keys())})"]
    return [
        f"golden: {key} is {view[key]!r}, recorded {want!r}"
        for key, want in golden.items() if not _same(want, view[key])
    ]


class Workload:
    """One op at a time, closed loop.  Subclasses define setup, op and checks.

    ``attempted``/``failed`` count the computations an op performs (one
    interval or point estimate; one CLI call for ``cli``); a computation
    fails when it raises or when its output fails a check.
    """

    name = ""
    pace = ""  # the pace.py kernel whose work resembles this workload's
    max_ops = 0
    attempted_unit = "interval and point estimates"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.golden_checked = False

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def record(self, i: int, output) -> None:
        attempted, failed, problems = self.check(i, output)
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"op {i}: {p}" for p in problems]
        if i == 0:
            golden = compare_golden(self.name, self.seed, self.view(output))
            self.golden_checked = golden is not None
            self.fail(golden or [])
            self.fail(self.cross_check(output))

    def fail(self, problems: list[str]) -> None:
        """Record a check made outside an op's own output checks."""
        self.failed += bool(problems)
        self.problems += problems

    def cross_check(self, output) -> list[str]:
        """Agreement of op 0's output with another route to the same numbers."""
        return []

    def peak_rss_mb(self) -> float:
        """This process's peak RSS.  ``ru_maxrss`` would also count the
        resident size of whatever process started this one, so read VmHWM."""
        try:
            with open("/proc/self/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Stop any helper process the workload started."""

    def details(self) -> dict:
        return {}


class Coverage(Workload):
    """``run_coverage`` on LogNormal(0,1), n=200, the 14 interval measures."""

    name = "coverage"
    pace = "python"  # reference kernel, see pace.py
    max_ops = 100_000
    trials = 10  # trials per run_coverage call: one op
    n = 200

    def setup(self) -> None:
        self.dist = LogNormal(0.0, 1.0)
        self.op_seeds = self.rng(0).integers(0, 2**62, size=self.max_ops).tolist()
        self.truths = None

    def config(self, i: int, threads: int = 1):
        return simulation.SimConfig(
            dist=self.dist, n=self.n, trials=self.trials, measures=MEASURES,
            seed=self.op_seeds[i], level=LEVEL, threads=threads,
        )

    def op(self, i: int, tracer=None):
        return simulation.run_coverage(self.config(i))

    def check(self, i: int, report):
        problems, failed = [], 0
        truths = [r.truth for r in report.results]
        if self.truths is None:
            self.truths = truths
        if [r.measure for r in report.results] != list(MEASURES):
            return len(MEASURES) * self.trials, len(MEASURES) * self.trials, ["measures differ"]
        for r, first_truth in zip(report.results, self.truths):
            label = r.measure.label()
            bad = value_problems(label, r.truth)
            if r.truth != first_truth:
                bad.append(f"{label}: truth {r.truth!r} differs from op 0's {first_truth!r}")
            if r.failures < self.trials and not (
                0.0 <= r.coverage <= 1.0 and math.isfinite(r.mean_width) and r.mean_width > 0.0
            ):
                bad.append(f"{label}: coverage {r.coverage!r} or width {r.mean_width!r} invalid")
            problems += bad
            failed += self.trials if bad else r.failures
        if sum(report.failure_reasons.values()) != sum(r.failures for r in report.results):
            problems.append(f"failure tally {report.failure_reasons} does not match failures")
        return len(MEASURES) * self.trials, failed, problems

    def view(self, report) -> dict:
        out = {}
        for r in report.results:
            ok = self.trials - r.failures
            out[r.measure.label()] = [r.truth, round(r.coverage * ok), r.failures, r.mean_width]
        return out

    def cross_check(self, report) -> list[str]:
        """Op 0 again on two threads must serialize byte-identically, and the
        truths must equal direct ``population_measure`` calls."""
        problems = []
        if simulation.run_coverage(self.config(0, threads=2)).to_json() != report.to_json():
            problems.append("op 0 on two threads differs from op 0 on one thread")
        for r in report.results:
            direct = skewness.population_measure(self.dist, r.measure)
            if not _close(direct, r.truth):
                problems.append(f"{r.measure.label()}: truth {r.truth!r} != {direct!r}")
        return problems

    def details(self) -> dict:
        return {"trials_per_op": self.trials, "n": self.n}


class EstimateLarge(Workload):
    """``from_data`` + 14 intervals + ``point_estimate(b3)`` at n ~ 10^6.

    Op i takes a prefix of length ``lengths[i]`` of one pool; the lengths are
    distinct, so no cache keyed on n or on the array can hit.
    """

    name = "estimate_large"
    pace = "arrays"  # reference kernel, see pace.py
    max_ops = 20_000
    pool_size = 1_050_000
    min_n = 950_000

    def setup(self) -> None:
        self.pool = self.rng(0).lognormal(0.0, 1.0, self.pool_size)
        span = self.pool_size - self.min_n + 1
        self.lengths = (self.min_n + self.rng(1).choice(span, self.max_ops, replace=False)).tolist()

    def op(self, i: int, tracer=None):
        sample = quantiles.SortedSample.from_data(self.pool[: self.lengths[i]])
        out = []
        for m in MEASURES:
            try:
                out.append(inference.interval(sample, m, LEVEL))
            except errors.SkewkitError as exc:
                out.append(exc)
        try:
            out.append(inference.point_estimate(sample, B3))
        except errors.SkewkitError as exc:
            out.append(exc)
        return sample, out

    def check(self, i: int, output):
        sample, results = output
        n = self.lengths[i]
        problems, failed = [], 0
        if sample.n != n:
            problems.append(f"sample has n={sample.n}, expected {n}")
        for m, r in zip(MEASURES + (B3,), results):
            label = m.label()
            if isinstance(r, Exception):
                bad = [f"{label}: {type(r).__name__}: {r}"]
            elif m is B3:
                bad = value_problems(label, r.value) + ([] if r.se is None else ["b3 has an se"])
            else:
                bad = interval_problems(label, r.estimate, r.lower, r.upper, r.se)
                if r.n != n or r.measure != m:
                    bad.append(f"{label}: interval reports n={r.n}, {r.measure}")
            problems += bad
            failed += bool(bad)
        return len(MEASURES) + 1, failed, problems

    def view(self, output) -> dict:
        sample, results = output
        out = {"n": sample.n}
        for m, r in zip(MEASURES + (B3,), results):
            if isinstance(r, Exception):
                out[m.label()] = None
            elif m is B3:
                out[m.label()] = r.value
            else:
                out[m.label()] = [r.estimate, r.se, r.lower, r.upper]
        return out

    def cross_check(self, output) -> list[str]:
        """``interval(...).estimate`` must equal ``point_estimate`` on the
        same sample."""
        sample, results = output
        problems = []
        for m, r in zip(MEASURES, results):
            point = inference.point_estimate(sample, m).value
            est = getattr(r, "estimate", r)
            if isinstance(r, Exception) or not _close(est, point):
                problems.append(f"{m.label()}: interval {est!r} != point estimate {point!r}")
        return problems

    def details(self) -> dict:
        return {"n_range": [self.min_n, self.pool_size], "distinct_n": True}


class Cli(Workload):
    """A fresh ``python -m skewkit.cli estimate`` on a 10k-row CSV per op."""

    name = "cli"
    pace = "spawn"  # reference kernel, see pace.py
    max_ops = 100_000
    attempted_unit = "CLI calls"
    rows = 10_000
    timeout_s = 120.0
    launcher = None  # started by the first op

    def setup(self) -> None:
        self.data = self.rng(0).lognormal(0.0, 1.0, self.rows)
        self.csv = self.workdir / "data.csv"
        with open(self.csv, "w") as fh:
            fh.write("id,x\n")
            fh.writelines(f"{k},{v!r}\n" for k, v in enumerate(self.data.tolist()))
        self.argv = ["estimate", str(self.csv), "--column", "x", "--measures", "all",
                     "--format", "json"]
        # The same numbers in-process, for the cross-path check of every op.
        sample = quantiles.SortedSample.from_data(self.data)
        self.expected = {}
        problems = []
        for m in MEASURES:
            iv = inference.interval(sample, m, LEVEL)
            self.expected[m.label()] = [iv.estimate, iv.lower, iv.upper]
            problems += interval_problems(m.label(), iv.estimate, iv.lower, iv.upper, iv.se)
            point = inference.point_estimate(sample, m).value
            if not _close(point, iv.estimate):
                problems.append(f"{m.label()}: interval {iv.estimate!r} != point {point!r}")
        self.expected["b3"] = [inference.point_estimate(sample, B3).value, None, None]
        self.fail(problems)
        self.rss_mb = []

    def op(self, i: int, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "skewkit.cli", *self.argv]
        else:
            span_file = self.workdir / "spans.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--cli-child", str(span_file), *self.argv]
        if self.launcher is None:
            self.launcher = subprocess.Popen(
                [sys.executable, str(HERE / "launcher.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        request = {"cmd": cmd, "stderr": str(self.workdir / "stderr.txt"),
                   "timeout": self.timeout_s}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        self.rss_mb.append(reply["maxrss_kb"] / 1024.0)
        if tracer is not None and reply["returncode"] == 0:
            child = json.loads(span_file.read_text())
            tracer.graft(child["spans"])
            tracer.add_counts(child["counts"], child["errors"])
        return reply["returncode"], reply["stdout"]

    def close(self) -> None:
        if self.launcher is not None:
            self.launcher.stdin.close()
            self.launcher.wait(timeout=30)
            self.launcher.stdout.close()
            self.launcher = None

    def check(self, i: int, output):
        returncode, stdout = output
        if returncode != 0:
            stderr = (self.workdir / "stderr.txt").read_text(errors="replace").strip()
            return 1, 1, [f"exit code {returncode}: {stderr[-300:]}"]
        try:
            doc = json.loads(stdout)
            rows = {e["measure"]: [e["estimate"], e["lower"], e["upper"]] for e in doc["estimates"]}
        except (ValueError, KeyError, TypeError) as exc:
            return 1, 1, [f"output is not the estimate JSON: {exc}"]
        problems = []
        if doc.get("n") != self.rows or doc.get("level") != LEVEL:
            problems.append(f"n={doc.get('n')!r} level={doc.get('level')!r}")
        if rows.keys() != self.expected.keys():
            problems.append(f"measures {sorted(rows)} != {sorted(self.expected)}")
        for label, (est, lo, hi) in rows.items():
            if label == "b3":
                problems += value_problems(label, est)
            else:
                problems += interval_problems(label, est, lo, hi)
            want = self.expected.get(label)
            if want and not _same(want, [est, lo, hi]):
                problems.append(f"{label}: CLI {[est, lo, hi]} != in-process {want}")
        return 1, bool(problems), problems

    def view(self, output) -> dict:
        doc = json.loads(output[1])
        out = {"n": doc["n"]}
        out.update({e["measure"]: [e["estimate"], e["lower"], e["upper"]] for e in doc["estimates"]})
        return out

    def peak_rss_mb(self) -> float:
        """The largest peak RSS of the CLI processes (``ru_maxrss`` from
        ``wait4``, which includes the launcher's ~10 MB at fork)."""
        return max(self.rss_mb)

    def details(self) -> dict:
        return {"rows": self.rows, "argv": ["python", "-m", "skewkit.cli", *self.argv]}


WORKLOADS = {w.name: w for w in (Coverage, EstimateLarge, Cli)}
