"""Seeded Monte Carlo coverage studies.

Each trial draws its own generator from the (master seed, trial index) pair,
so trials are order-independent: trial t's generator is bit for bit
``np.random.default_rng(np.random.SeedSequence((seed, t)))``, so any trial
can be redrawn alone.  Trials run in chunks whose size is fixed by n.  A
chunk's generators are seeded in bulk: numpy's C hash makes each trial's
entropy pool, and one vectorised pass hashes the chunk's pools into PCG64
state words (see ``_chunk_generators``).  The generators fill one
(trials x n) array of uniforms row by row, one call of the distribution's
quantile function inverts it (see ``DistributionSpec.sample``), and that
array, sorted row by row, and one quantile grid per chunk serve every
measure (see ``inference.interval_rows``).
The population truths come from one grid too: one call of the distribution's
quantile function serves all of them, and they are memoized on the
distribution object by the measure tuple, so a second run on the same object
reuses them (see ``skewness.population_measures``).  The measures' point sets
are memoized by the measure tuple for the life of the process (see
``skewness.point_sets``).
Results land in (measures x trials) arrays and are reduced along the trial
axis in fixed index order, so equal configs give byte-identical reports.
``SimConfig`` reads every field through one table, ``skewness._READERS``,
whether it is built directly or by ``from_dict``; the CLI's flags read
through the same rows.
"""

from __future__ import annotations

import json
import operator
import time
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from .distributions import DistributionSpec
# ``interval`` is not called here; perfbench/tracer.py binds it on this module.
from .inference import interval, interval_rows  # noqa: F401
from .quantiles import BandwidthRule, DEFAULT_BANDWIDTH, SortedSample
# ``population_measure`` is not called here; perfbench/tracer.py binds it on this module.
from .skewness import (  # noqa: F401
    DEFAULT_GRID_POINTS, Direction, MeasureKind, SkewMeasure, _READERS, _read, population_measure,
    population_measures,
)

MAX_FAILURE_RATE = 0.01
# Sample values per chunk of trials: 2 MB per (trials x n) float array.
_CHUNK_ELEMENTS = 1 << 18


def coverage_standard_error(trials: int, p0: float) -> float:
    """Binomial standard error sqrt(p0 (1 - p0) / trials) of a coverage
    estimate; raises ValueError unless trials >= 1 and p0 lies in [0, 1]."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0.0 <= p0 <= 1.0:  # NaN fails too
        raise ValueError(f"p0 must lie in [0, 1], got {p0}")
    return float(np.sqrt(p0 * (1.0 - p0) / trials))


@dataclass(frozen=True)
class SimConfig:
    """A coverage run's settings.  Every field is read through its row of
    ``skewness._READERS``, however the config is built, and stored as the field's
    type; a value it cannot read raises ``ValueError`` naming the key."""

    dist: DistributionSpec
    n: int
    trials: int
    measures: tuple[SkewMeasure, ...]
    seed: int
    level: float = 0.95
    threads: int | str = "auto"
    bandwidth: BandwidthRule = DEFAULT_BANDWIDTH

    def __post_init__(self):
        for key in self.__dataclass_fields__:
            object.__setattr__(self, key, _read(key, getattr(self, key)))
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

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        """Build from the JSON document schema used by the CLI: the fields'
        keys, read as ``SimConfig`` reads its fields, and ``direction`` and
        ``j``, which the measure tokens are parsed with.  An unknown key, a
        missing one or an unreadable value is a ValueError naming it."""
        unknown = [key for key in doc if key not in _READERS]
        if unknown:
            raise ValueError(f"simulation config has unknown key(s) {', '.join(map(repr, unknown))}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in doc:
                raise ValueError(f"simulation config is missing required key {f.name!r}")
        direction = _read("direction", doc.get("direction", Direction.RIGHT))
        j_points = _read("j", doc.get("j", DEFAULT_GRID_POINTS))
        values = {key: value for key, value in doc.items() if key in cls.__dataclass_fields__}
        values["measures"] = _read("measures", doc["measures"], direction, j_points)
        return cls(**values)

    def to_dict(self) -> dict:
        # threads is accepted for compatibility and changes nothing, so it
        # is not echoed.
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
            "bandwidth": "default" if self.bandwidth.fixed is None else self.bandwidth.fixed,
            "j": next((m.j_points for m in self.measures if m.is_auc), DEFAULT_GRID_POINTS),
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


_MASK32 = 0xFFFFFFFF
_WORD_SHIFTS = np.array([0, 32], dtype=np.uint64)


def _state_constants() -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``SeedSequence.generate_state``'s
    eight 32-bit output words (INIT_B and MULT_B of O'Neill's seed_seq
    hash): word i is ((pool[i % 4] ^ xor[i]) * mult[i]) ^ (that >> 16)
    mod 2^32, with xor[i] = INIT_B * MULT_B^i and mult[i] = xor[i] * MULT_B.
    Shaped (2, 4) so that they broadcast over a (T, 1, 4) stack of pools."""
    h = [0x8B51F9DD]
    for _ in range(8):
        h.append(h[-1] * 0x58F38DED & _MASK32)
    h = np.array(h, dtype=np.uint32)
    return h[:8].reshape(2, 4), h[1:].reshape(2, 4)


_STATE_XOR, _STATE_MUL = _state_constants()


def _uint32_words(value) -> list[int]:
    """A non-negative integer's little-endian 32-bit words, [0] for 0: the
    words ``np.random.SeedSequence`` makes of it."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _StateWords(ISeedSequence):
    """Answers ``PCG64``'s one ``generate_state(4, np.uint64)`` call with
    four precomputed state words, so that its C code does the 128-bit
    seeding.  PCG64 reads the array's raw buffer, unchecked, so the words
    must be a C-contiguous uint64 array."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _chunk_generators(seed, trials: range) -> list[np.random.Generator]:
    """Trial t's generator for each t in ``trials`` (consecutive indices
    below 2^64), bit for bit ``np.random.default_rng(np.random.SeedSequence((seed, t)))``.

    numpy's C hash mixes each trial's entropy (the seed's words, then t's,
    the uint32 array ``SeedSequence`` makes of the tuple) into its pool; the
    pools' PCG64 state words are hashed for the whole chunk at once
    (``_STATE_XOR``, ``_STATE_MUL``), where ``SeedSequence.generate_state``
    would loop in Python trial by trial.  A generator's
    ``bit_generator.seed_seq`` is its ``_StateWords``, so it cannot spawn.
    """
    head = _uint32_words(seed)
    gens = []
    start = trials.start
    while start < trials.stop:
        # every index in [start, stop) has as many words as start
        width = len(_uint32_words(start))
        stop = min(trials.stop, 1 << 32 * width)
        entropy = np.empty((stop - start, len(head) + width), dtype=np.uint32)
        entropy[:, : len(head)] = head
        # the cast to uint32 keeps each shifted index's low word
        entropy[:, len(head) :] = np.arange(start, stop, dtype=np.uint64)[:, None] >> _WORD_SHIFTS[:width]
        pools = np.array([SeedSequence(row).pool for row in entropy])
        words = pools[:, None, :] ^ _STATE_XOR
        words *= _STATE_MUL
        words ^= words >> 16
        # little-endian pairs of 32-bit words, as generate_state(4, np.uint64) reads them
        state = np.ascontiguousarray(
            words.reshape(-1, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
        )
        gens += [Generator(PCG64(_StateWords(w))) for w in state]
        start = stop
    return gens


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
            cfg.dist.sample(cfg.n, _chunk_generators(cfg.seed, range(ts.start, ts.stop)))
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
