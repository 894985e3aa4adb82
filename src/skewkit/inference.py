"""Wald confidence intervals for skewness measures, one- and two-sample: this
module only forms them from the values and variances of ``skewness.measure_rows``."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

try:
    # the C function behind statistics.NormalDist.inv_cdf; importing statistics
    # would also load fractions and decimal (about 5 ms of a cold CLI run)
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # an interpreter without CPython's accelerator
    from statistics import _normal_dist_inv_cdf

import numpy as np

from . import skewness
from .errors import SkewkitError, UnsupportedMeasureError
from .quantiles import DEFAULT_BANDWIDTH, BandwidthRule, SortedSample, density_error
from .skewness import MeasureKind, SkewMeasure


def z_quantile(alpha: float) -> float:
    """Standard normal quantile Phi^{-1}(alpha)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly inside (0, 1)")
    return _normal_dist_inv_cdf(alpha, 0.0, 1.0)


@dataclass(frozen=True)
class Estimate:
    """A point estimate; ``se`` is always None (``interval`` gives the SE)."""

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


def interval_rows(
    rows: SortedSample,
    measures,
    level: float = 0.95,
    rule: BandwidthRule = DEFAULT_BANDWIDTH,
) -> list[IntervalRows]:
    """Wald intervals for every measure on every row of a batch of samples.

    One grid over the union of the measures' probabilities serves them
    all, in one ``skewness.measure_rows`` pass per point set.  A row fails
    where a density at one of the measure's own probabilities is not
    positive, else where its curve or its SE fails; a failure at a
    probability that only another measure uses never fails it.
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
    out = [None] * len(measures)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grid = skewness.grid_for_probs(rows, base, rule)
        for idx, estimate, nvar, width, errors, bad_g in skewness.measure_rows(
            grid.x, grid.probs, groups, measures, grid.g
        ):
            se = width * np.sqrt(nvar / rows.n)
            for k, t, cols in bad_g:  # a density failure wins over the curve's own
                errors[k][t] = density_error(rows.values[t], grid.probs[cols], grid.g[t, cols], rule)
            for k, failed in enumerate(errors):
                if failed:
                    estimate[k, list(failed)] = se[k, list(failed)] = np.nan
            lower, upper = estimate - z * se, estimate + z * se
            for k, i in enumerate(idx):
                out[i] = IntervalRows(measures[i], estimate[k], se[k], lower[k], upper[k], errors[k])
    return out


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
