"""Wald confidence intervals for skewness measures, one- and two-sample."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import asymptotics, skewness
from .errors import SkewkitError, UnsupportedMeasureError
from .quantiles import DEFAULT_BANDWIDTH, BandwidthRule, SortedSample, density_error
from .skewness import MeasureKind, SkewMeasure


def z_quantile(alpha: float) -> float:
    """Standard normal quantile Phi^{-1}(alpha)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly inside (0, 1)")
    return float(special.ndtri(alpha))


@dataclass(frozen=True)
class Estimate:
    """A point estimate; ``se`` is None for measures without one (b3)."""

    measure: SkewMeasure
    value: float
    se: float | None
    n: int


@dataclass(frozen=True)
class IntervalEstimate:
    measure: SkewMeasure
    estimate: float
    se: float
    level: float
    lower: float
    upper: float
    n: int

    def mean_skew(self) -> "IntervalEstimate":
        """The mean-skew interval: estimate and both bounds halved."""
        if not self.measure.is_auc:
            raise UnsupportedMeasureError("mean-skew halving applies to AUC measures")
        return replace(
            self, estimate=0.5 * self.estimate, se=0.5 * self.se,
            lower=0.5 * self.lower, upper=0.5 * self.upper,
        )

    def to_dict(self) -> dict:
        return {
            "measure": self.measure.label(),
            "direction": self.measure.direction.value,
            "estimate": self.estimate,
            "se": self.se,
            "level": self.level,
            "lower": self.lower,
            "upper": self.upper,
            "n": self.n,
        }


@dataclass(frozen=True)
class DifferenceEstimate:
    """Independent-sample Wald interval for measure(a) - measure(b)."""

    measure: SkewMeasure
    a: IntervalEstimate
    b: IntervalEstimate
    difference: float
    se: float
    level: float
    lower: float
    upper: float

    def to_dict(self) -> dict:
        return {
            "measure": self.measure.label(),
            "a": self.a.to_dict(),
            "b": self.b.to_dict(),
            "difference": self.difference,
            "se": self.se,
            "level": self.level,
            "lower": self.lower,
            "upper": self.upper,
        }


def point_estimate(sample: SortedSample, measure: SkewMeasure) -> Estimate:
    """Point estimate without interval machinery (the only route for b3);
    it reads quantiles only, never a quantile density."""
    value = skewness.estimate(sample, measure)
    return Estimate(measure=measure, value=value, se=None, n=sample.n)


@dataclass(frozen=True)
class IntervalRows:
    """One measure's Wald intervals for every row of a batch of samples.

    ``estimate``, ``se``, ``lower`` and ``upper`` hold one entry per row, NaN
    where the row failed; ``errors`` maps each failed row to the error that
    ``interval`` raises on that row's sample alone.
    """

    measure: SkewMeasure
    estimate: np.ndarray
    se: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    errors: dict[int, SkewkitError]


def _group_rows(rows, grid, measures, take, z: float, rule) -> list[IntervalRows]:
    """Intervals of measures that share one point count on ``grid``.

    ``take`` indexes each measure's point layout in ``grid.probs`` (see
    ``skewness.point_layout``), one row per measure (pointwise kinds, P = 1)
    or one row shared by all (AUC kinds of one J).  On top of the curve's
    own failures (``skewness.curve_errors``) a row fails where a density on
    its layout is not positive or where its SE over- or underflows.
    """
    group = asymptotics.delta_method(grid.x, grid.g, grid.probs, take, measures)
    probs, r, g, estimate, width, nvar = group
    se = width * np.sqrt(nvar / rows.n)
    # a finite estimate whose SE is not finite fails as a non-finite value
    errors = skewness.curve_errors(measures, probs, r, np.where(np.isfinite(se), estimate, np.nan))
    # an AUC group shares one row of ``take`` and of the densities
    bad_g = (g <= 0.0).any(axis=-1).repeat(len(measures) // len(take), axis=0)
    for k, t in zip(*map(list, np.nonzero(bad_g))):
        own = np.sort(take[k % len(take)])  # grid order
        errors[k][t] = density_error(rows.values[t], grid.probs[own], grid.g[t, own], rule)
    for k, failed in enumerate(errors):
        if failed:
            estimate[k, list(failed)] = se[k, list(failed)] = np.nan
    lower, upper = estimate - z * se, estimate + z * se
    return [
        IntervalRows(m, estimate[k], se[k], lower[k], upper[k], errors[k])
        for k, m in enumerate(measures)
    ]


def interval_rows(
    rows: SortedSample,
    measures,
    level: float = 0.95,
    rule: BandwidthRule = DEFAULT_BANDWIDTH,
) -> list[IntervalRows]:
    """Wald intervals for every measure on every row of a batch of samples.

    One grid over the union of the measures' probabilities serves them
    all.  The variances take one vectorised pass per point set: one for
    every pointwise measure, one per AUC grid size J.  Each measure reads
    its own probabilities, so a failure at a probability that only another
    measure uses never fails it.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("confidence level must lie strictly inside (0, 1)")
    measures = list(measures)
    if not measures:
        raise ValueError("at least one measure is required")
    if any(m.kind is MeasureKind.B3 for m in measures):
        raise UnsupportedMeasureError("no standard error is defined for b3")
    base, groups = skewness.point_sets(measures)
    z = z_quantile(1.0 - 0.5 * (1.0 - level))
    out = {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grid = skewness.grid_for_probs(rows, base, rule)
        for idx, take in groups:
            out.update(zip(idx, _group_rows(rows, grid, [measures[i] for i in idx], take, z, rule)))
    return [out[i] for i in range(len(measures))]


def intervals(
    sample: SortedSample,
    measures,
    level: float = 0.95,
    rule: BandwidthRule = DEFAULT_BANDWIDTH,
) -> list[IntervalEstimate]:
    """``[interval(sample, m, level, rule) for m in measures]`` on one grid.

    The grids are memoized on the sample's one-row ``batch`` (see
    ``skewness.grid_for_probs``), so repeated calls on one sample compute
    each grid once, and their results do not depend on the order of the
    calls.  Raises the error of the first measure that fails.
    """
    if sample.values.ndim != 1:
        raise ValueError("intervals takes one sample; use interval_rows for a batch")
    out = []
    for r in interval_rows(sample.batch, measures, level, rule):
        if r.errors:
            raise r.errors[0]
        out.append(IntervalEstimate(
            measure=r.measure, estimate=float(r.estimate[0]), se=float(r.se[0]),
            level=level, lower=float(r.lower[0]), upper=float(r.upper[0]), n=sample.n,
        ))
    return out


def interval(
    sample: SortedSample,
    measure: SkewMeasure,
    level: float = 0.95,
    rule: BandwidthRule = DEFAULT_BANDWIDTH,
) -> IntervalEstimate:
    """Wald interval: estimate +/- z_{1-alpha/2} * SE.

    The SE comes from the delta-method asymptotic variance with kernel
    quantile-density plug-ins, divided by n.
    """
    return intervals(sample, [measure], level, rule)[0]


def difference_intervals(
    sample_a: SortedSample,
    sample_b: SortedSample,
    measures,
    level: float = 0.95,
    rule: BandwidthRule = DEFAULT_BANDWIDTH,
) -> list[DifferenceEstimate]:
    """Intervals for the between-sample differences of the measures, from
    one ``intervals`` call per sample.

    The two samples are independent, so se^2 is the sum of the per-sample
    estimator variances.  Raises the error of the first measure that fails
    on ``sample_a``, then on ``sample_b``.
    """
    measures = list(measures)
    per_a = intervals(sample_a, measures, level, rule)
    per_b = intervals(sample_b, measures, level, rule)
    z = z_quantile(1.0 - 0.5 * (1.0 - level))
    out = []
    for m, ia, ib in zip(measures, per_a, per_b):
        diff = ia.estimate - ib.estimate
        se = math.sqrt(ia.se**2 + ib.se**2)
        out.append(DifferenceEstimate(
            measure=m, a=ia, b=ib, difference=diff, se=se, level=level,
            lower=diff - z * se, upper=diff + z * se,
        ))
    return out


def difference_interval(
    sample_a: SortedSample,
    sample_b: SortedSample,
    measure: SkewMeasure,
    level: float = 0.95,
    rule: BandwidthRule = DEFAULT_BANDWIDTH,
) -> DifferenceEstimate:
    """Interval for the between-sample difference of one measure (see
    ``difference_intervals``)."""
    return difference_intervals(sample_a, sample_b, [measure], level, rule)[0]
