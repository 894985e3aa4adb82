"""Seeded Monte Carlo coverage studies.

Each trial draws its own generator from the (master seed, trial index) pair,
so trials are order-independent.  Trials run in chunks whose size is fixed
by n: one (trials x n) array, sorted row by row, and one quantile grid per
chunk serve every measure (see ``inference.interval_rows``).  The
population truths come from one grid too: one call of the distribution's
quantile function serves all of them (see ``skewness.population_measures``).
Results land in (measures x trials) arrays and are reduced along the trial
axis in fixed index order, so equal configs give byte-identical reports.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, parse_distribution
# ``interval`` is not called here; perfbench/tracer.py binds it on this module.
from .inference import interval, interval_rows  # noqa: F401
from .quantiles import BandwidthRule, DEFAULT_BANDWIDTH, SortedSample
# ``population_measure`` is not called here; perfbench/tracer.py binds it on this module.
from .skewness import (  # noqa: F401
    Direction, MeasureKind, SkewMeasure, parse_measures, population_measure, population_measures,
)

MAX_FAILURE_RATE = 0.01
# Sample values per chunk of trials: 2 MB per (trials x n) float array.
_CHUNK_ELEMENTS = 1 << 18


def coverage_standard_error(trials: int, p0: float) -> float:
    """Binomial standard error sqrt(p0 (1 - p0) / trials) of a coverage estimate."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    return float(np.sqrt(p0 * (1.0 - p0) / trials))


@dataclass(frozen=True)
class SimConfig:
    dist: DistributionSpec
    n: int
    trials: int
    measures: tuple[SkewMeasure, ...]
    seed: int
    level: float = 0.95
    threads: int | str = "auto"
    bandwidth: BandwidthRule = DEFAULT_BANDWIDTH

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.n < 10:
            raise ValueError("per-trial sample size must be at least 10")
        if not self.measures:
            raise ValueError("at least one measure is required")
        for m in self.measures:
            if m.kind is MeasureKind.B3:
                raise ValueError("b3 has no interval estimator; drop it from coverage runs")
        # the report echoes each measure once, one direction and one j (see ``to_dict``)
        keys = [(m.kind, m.p) for m in self.measures]  # what a label shows
        if len(set(keys)) < len(keys):
            twice = next(m for i, m in enumerate(self.measures) if keys[i] in keys[:i])
            raise ValueError(f"{twice} is listed twice; a simulation config lists each measure once")
        for key, values in (
            ("direction", {m.direction.value for m in self.measures if m.is_lambda_family}),
            ("j", {m.j_points for m in self.measures if m.is_auc}),
        ):
            if len(values) > 1:
                mixed = " and ".join(map(str, sorted(values)))
                raise ValueError(f"the measures mix {key} {mixed}; a simulation config has one")
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must lie strictly inside (0, 1)")
        if isinstance(self.threads, str):
            if self.threads != "auto":
                raise ValueError("threads must be a positive integer or 'auto'")
        elif self.threads < 1:
            raise ValueError("threads must be a positive integer or 'auto'")

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        """Build from the JSON document schema used by the CLI; ``measures``
        is a list of tokens or one comma-separated string, parsed as
        ``skewness.parse_measures`` does without b3."""
        try:
            dist = parse_distribution(doc["dist"])
            direction = Direction(doc.get("direction", "right"))
            j_points = int(doc.get("j", 100))
            measures = tuple(parse_measures(doc["measures"], direction, j_points, include_b3=False))
            bw = doc.get("bandwidth", "default")
            rule = DEFAULT_BANDWIDTH if bw == "default" else BandwidthRule(fixed=float(bw))
            return cls(
                dist=dist,
                n=int(doc["n"]),
                trials=int(doc["trials"]),
                measures=measures,
                seed=int(doc["seed"]),
                level=float(doc.get("level", 0.95)),
                threads=doc.get("threads", "auto"),
                bandwidth=rule,
            )
        except KeyError as exc:
            raise ValueError(f"simulation config is missing required key {exc}") from None
        except TypeError as exc:
            raise ValueError(str(exc)) from None

    def to_dict(self) -> dict:
        # threads is accepted for compatibility and changes nothing, so it
        # is not echoed.
        bw = "default" if self.bandwidth.fixed is None else self.bandwidth.fixed
        return {
            "dist": repr(self.dist),
            "n": self.n,
            "trials": self.trials,
            "level": self.level,
            "measures": [m.label() for m in self.measures],
            "direction": next(
                (m.direction for m in self.measures if m.is_lambda_family), self.measures[0].direction
            ).value,
            "seed": self.seed,
            "bandwidth": bw,
            "j": next((m.j_points for m in self.measures if m.is_auc), 100),
        }


@dataclass(frozen=True)
class MeasureCoverage:
    measure: SkewMeasure
    truth: float
    coverage: float
    mean_width: float
    failures: int

    def to_dict(self) -> dict:
        # coverage and mean_width are NaN when every trial failed; JSON has
        # no NaN, so they are written as null.
        return {
            "measure": self.measure.label(),
            "truth": self.truth,
            "coverage": None if np.isnan(self.coverage) else self.coverage,
            "mean_width": None if np.isnan(self.mean_width) else self.mean_width,
            "failures": self.failures,
        }


@dataclass(frozen=True)
class CoverageReport:
    config: SimConfig
    results: tuple[MeasureCoverage, ...]
    failure_reasons: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def failure_rate_exceeded(self) -> bool:
        return any(
            r.failures > MAX_FAILURE_RATE * self.config.trials for r in self.results
        )

    def to_dict(self) -> dict:
        # elapsed_seconds is wall time, reported on stderr by the CLI instead,
        # so that equal-seed runs serialize byte-identically.
        return {
            "config": self.config.to_dict(),
            "results": [r.to_dict() for r in self.results],
            "failure_reasons": dict(self.failure_reasons),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)

    def render_text(self) -> str:
        """Aligned table with the coverage(width) cell layout, e.g. 0.961(1.98);
        a measure whose every trial failed reads -(-) and the failure count."""
        lines = [f"{'measure':<18} {'truth':>12}  cp(w)"]
        for r in self.results:
            cell = f"{r.coverage:.3f}({r.mean_width:.3g})"
            if np.isnan(r.coverage):  # every trial failed
                cell = f"-(-) {r.failures} failed"
            lines.append(f"{r.measure.label():<18} {r.truth:>12.6g}  {cell}")
        return "\n".join(lines)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def run_coverage(cfg: SimConfig) -> CoverageReport:
    """Estimate coverage probability and mean CI width for every measure.

    Per-measure failures (degenerate scale, non-positive density estimates)
    are excluded from the coverage denominator and tallied; they are never
    silently dropped.
    """
    start = time.perf_counter()
    truths = population_measures(cfg.dist, cfg.measures)
    truth_col = np.array(truths)[:, None]
    trials, n_measures = cfg.trials, len(cfg.measures)
    covered = np.empty((n_measures, trials), dtype=bool)
    widths = np.empty((n_measures, trials))
    failed = np.zeros((n_measures, trials), dtype=bool)
    reasons = Counter()

    chunk = max(1, _CHUNK_ELEMENTS // cfg.n)
    for lo in range(0, trials, chunk):
        ts = slice(lo, min(lo + chunk, trials))
        rows = SortedSample.from_rows(
            [cfg.dist.sample(cfg.n, _trial_rng(cfg.seed, t)) for t in range(ts.start, ts.stop)]
        )
        res = interval_rows(rows, cfg.measures, cfg.level, cfg.bandwidth)
        lower, upper = np.array([r.lower for r in res]), np.array([r.upper for r in res])
        covered[:, ts] = (lower <= truth_col) & (truth_col <= upper)
        widths[:, ts] = upper - lower
        hits = [(mi, lo + t) for mi, r in enumerate(res) for t in r.errors]
        if hits:
            failed[tuple(zip(*hits))] = True
        reasons.update(type(exc).__name__ for r in res for exc in r.errors.values())

    n_failed = failed.sum(axis=1)
    n_ok = trials - n_failed
    with np.errstate(invalid="ignore"):  # NaN for a measure whose every trial failed
        coverage = (covered & ~failed).sum(axis=1) / n_ok
        mean_width = np.where(failed, 0.0, widths).sum(axis=1) / n_ok
    results = [
        MeasureCoverage(
            measure=measure, truth=truth, coverage=float(cov),
            mean_width=float(width), failures=int(n),
        )
        for measure, truth, cov, width, n in zip(cfg.measures, truths, coverage, mean_width, n_failed)
    ]
    elapsed = time.perf_counter() - start
    return CoverageReport(
        config=cfg,
        results=tuple(results),
        failure_reasons=dict(sorted(reasons.items())),
        elapsed_seconds=elapsed,
    )
