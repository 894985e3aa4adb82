"""Span tracer that wraps skewkit's public functions from the outside.

Each wrapper is installed at the module or class attribute that the calling
code looks up at call time.  skewkit's modules import many functions by name
(``from .inference import interval`` in ``simulation``), so wrapping only the
defining module would miss those calls; the ``TARGETS`` table therefore names
every caller-side binding.

Spans and counters live in memory and are aggregated per op when the run
ends.  Everything runs on one thread, so a span's parent is whatever span is
open when it starts, and no layer ever waits: the per-layer wait time is
zero by construction and is reported as such.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (owner, attribute, span name).  Owners are dotted paths under ``skewkit``;
# several bindings of one function share a span name.
TARGETS = (
    ("quantiles.SortedSample", "from_data", "quantiles.sort"),
    ("skewness", "quantile_type8", "quantiles.type8"),
    ("skewness", "quantile_density_profile", "quantiles.density"),
    ("skewness", "build_grid", "skewness.grid"),
    ("skewness", "grid_for_probs", "skewness.grid"),
    ("skewness", "estimate_auc", "skewness.estimate"),
    ("skewness", "estimate_pointwise", "skewness.estimate"),
    ("skewness", "estimate_b3", "skewness.estimate"),
    ("simulation", "population_measure", "skewness.population"),
    ("asymptotics.XiKernel", "from_grid", "asymptotics.kernel"),
    ("asymptotics", "auc_variance", "asymptotics.variance"),
    ("asymptotics", "sigma1_sq", "asymptotics.variance"),
    ("asymptotics", "sigma2_sq", "asymptotics.variance"),
    ("inference", "interval", "inference.interval"),
    ("simulation", "interval", "inference.interval"),
    ("cli", "interval", "inference.interval"),
    ("distributions.DistributionSpec", "sample", "distributions.sample"),
    ("simulation", "run_coverage", "simulation.loop"),
    ("cli", "read_numeric_column", "cli.read"),
    ("cli", "main", "cli.main"),
)

# Span name -> per-layer self-time metric.  "op" is the benchmark's own span
# around one op; its self time is the time no wrapped function accounts for.
SELF_TIME_METRICS = {
    "quantiles.sort": "quantiles.sort_ms",
    "quantiles.type8": "quantiles.type8_ms",
    "quantiles.density": "quantiles.density_ms",
    "skewness.grid": "skewness.grid_ms",
    "skewness.estimate": "skewness.estimate_ms",
    "skewness.population": "skewness.population_ms",
    "asymptotics.kernel": "asymptotics.kernel_ms",
    "asymptotics.variance": "asymptotics.variance_ms",
    "inference.interval": "inference.interval_ms",
    "distributions.sample": "distributions.sample_ms",
    "simulation.loop": "simulation.loop_ms",
    "cli.import": "cli.import_ms",
    "cli.read": "cli.read_ms",
    "cli.main": "cli.self_ms",
    "op": "op.unattributed_ms",
}

COUNT_METRICS = (
    "quantiles.density_calls",
    "quantiles.density_probs",
    "skewness.grid_builds",
    "asymptotics.variance_calls",
    "inference.interval_calls",
    "simulation.trials",
)


def _resolve(path: str):
    module, _, attr = path.partition(".")
    obj = importlib.import_module(f"skewkit.{module}")
    return getattr(obj, attr) if attr else obj


class Tracer:
    """Records spans ``[name, start, end, parent, op]`` and per-op counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.errors: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._op = -1
        self._sample = 0
        self._seen: set = set()
        self._saved: list = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def begin_op(self, op: int) -> int:
        self._op = op
        self._seen = set()
        return self._open("op")

    def end_op(self, index: int) -> None:
        self._close(index)

    def graft(self, spans: list[list]) -> None:
        """Add spans recorded by a child process under the open span.

        ``perf_counter`` reads the system-wide monotonic clock, so the
        child's timestamps share the parent's time line.
        """
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            owner = self._stack[-1] if parent is None else base + parent
            self.spans.append([name, start, end, owner, self._op])

    def add_counts(self, counts: dict, errors: dict) -> None:
        """Add counters recorded by a child process to the current op."""
        self.counts[self._op].update(counts)
        self.errors[self._op].update(errors)

    # -- counters at layer boundaries ----------------------------------------
    def _count(self, name: str, args, kwargs) -> None:
        counts = self.counts[self._op]
        if name == "quantiles.sort":
            self._sample += 1
        elif name == "quantiles.density":
            probs = args[1] if len(args) > 1 else kwargs["probs"]
            probs = probs.ravel().tolist() if hasattr(probs, "ravel") else list(probs)
            counts["quantiles.density_calls"] += 1
            counts["quantiles.density_probs"] += len(probs)
            self._seen.update((self._sample, p) for p in probs)
            counts["quantiles.density_distinct"] = len(self._seen)
        elif name == "skewness.grid":
            counts["skewness.grid_builds"] += 1
        elif name == "asymptotics.variance":
            counts["asymptotics.variance_calls"] += 1
        elif name == "inference.interval":
            counts["inference.interval_calls"] += 1
        elif name == "simulation.loop":
            cfg = args[0] if args else kwargs["cfg"]
            counts["simulation.trials"] += cfg.trials

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            self._count(name, args, kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[self._op][f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(original.__func__, name))
            else:
                replacement = self.wrap(original, name)
            setattr(owner, attr, replacement)
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_values(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per op: self time (ms) by layer metric, counts, and the op's duration.

    A span's self time is its duration minus the durations of its direct
    children; spans nest on one thread, so the self times of an op's spans
    add up to the duration of its "op" span.
    """
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent is not None:
            child[parent] += end - start
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        values = per_op[op]
        values[SELF_TIME_METRICS[name]] += 1e3 * (end - start - child[i])
        if name == "op":
            values["op_ms"] = 1e3 * (end - start)
    for op, values in per_op.items():
        counts = tracer.counts[op]
        errors = tracer.errors[op]
        for metric in COUNT_METRICS:
            values[metric] = counts[metric]
        values["quantiles.density_errors"] = errors["quantiles.density:QuantileDensityError"]
        values["inference.failures"] = sum(
            v for k, v in errors.items() if k.startswith("inference.interval:")
        )
        probs = counts["quantiles.density_probs"]
        values["quantiles.density_unique_ratio"] = (
            counts["quantiles.density_distinct"] / probs if probs else 0.0
        )
    return per_op
