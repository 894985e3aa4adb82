"""Wald confidence intervals for skewness measures, one- and two-sample."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import asymptotics, skewness
from .errors import DegenerateScaleError, SkewkitError, UnsupportedMeasureError
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
        return IntervalEstimate(
            measure=self.measure,
            estimate=0.5 * self.estimate,
            se=0.5 * self.se,
            level=self.level,
            lower=0.5 * self.lower,
            upper=0.5 * self.upper,
            n=self.n,
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


def point_estimate(
    sample: SortedSample, measure: SkewMeasure, rule: BandwidthRule = DEFAULT_BANDWIDTH
) -> Estimate:
    """Point estimate without interval machinery (the only route for b3)."""
    value = skewness.estimate(sample, measure, rule)
    return Estimate(measure=measure, value=value, se=None, n=sample.n)


def _estimator_variance(measure: SkewMeasure, grid, kernel) -> float:
    """Asymptotic (times-n) variance of the measure's estimator.

    AUC kinds carry the 0.5/J midpoint cell width, so the double sum for the
    plain (1/J)-mean statistic is scaled by 1/4.
    """
    if measure.is_auc:
        family = "lambda" if measure.is_lambda_family else "gamma"
        double_sum = asymptotics.auc_variance(
            kernel, grid, family=family, weighted=measure.weighted,
            direction=measure.direction,
        )
        return 0.25 * double_sum
    if measure.is_lambda_family:
        base = asymptotics.sigma2_sq(kernel, grid, measure.p, measure.direction)
    else:
        base = asymptotics.sigma1_sq(kernel, grid, measure.p)
    if measure.weighted:
        base *= measure.p**2
    return base


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


def _row_errors(rows: SortedSample, grid, measure: SkewMeasure, rule) -> dict[int, SkewkitError]:
    """Per row of the measure's own grid: QuantileDensityError if a density
    is not positive, else DegenerateScaleError if a denominator is not."""
    bad_g = grid.g <= 0.0
    bad_r = skewness.denominators(grid, measure) <= 0.0
    errors = {}
    for t in np.flatnonzero(bad_g.any(axis=1) | bad_r.any(axis=1)):
        if bad_g[t].any():
            errors[int(t)] = density_error(rows.values[t], grid.probs, grid.g[t], rule)
        else:
            errors[int(t)] = DegenerateScaleError(grid.base_probs[bad_r[t]])
    return errors


def _measure_rows(rows, own, measure: SkewMeasure, z: float, rule) -> IntervalRows:
    """The measure's intervals from its own grid ``own`` (see ``measure_grid``)."""
    errors = _row_errors(rows, own, measure, rule)
    ok = np.ones(own.x.shape[0], dtype=bool)
    ok[list(errors)] = False
    estimate = np.full(ok.size, np.nan)
    se = estimate.copy()
    if ok.any():
        if errors:
            own = replace(own, x=own.x[ok], g=own.g[ok])
        if measure.is_auc:
            estimate[ok] = skewness.estimate_auc(own, measure)
        else:
            estimate[ok] = skewness.estimate_pointwise(own, measure)
        kernel = asymptotics.XiKernel.from_grid(own)
        se[ok] = asymptotics.VarianceEstimate.from_asymptotic(
            measure, _estimator_variance(measure, own, kernel), rows.n
        ).se
    half = z * se
    return IntervalRows(measure, estimate, se, estimate - half, estimate + half, errors)


def interval_rows(
    rows: SortedSample,
    measures,
    level: float = 0.95,
    rule: BandwidthRule = DEFAULT_BANDWIDTH,
) -> list[IntervalRows]:
    """Wald intervals for every measure on every row of a batch of samples.

    One grid over the union of the measures' probabilities serves them
    all; each measure reads its own probabilities from it, so a failure at
    a probability that only another measure uses never fails it.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("confidence level must lie strictly inside (0, 1)")
    measures = list(measures)
    if not measures:
        raise ValueError("at least one measure is required")
    if any(m.kind is MeasureKind.B3 for m in measures):
        raise UnsupportedMeasureError("no standard error is defined for b3")
    points = [skewness.midpoint_probs(m.j_points) if m.is_auc else [m.p] for m in measures]
    wanted = np.concatenate(points)
    base = np.unique(wanted)
    where = np.searchsorted(base, wanted)
    grid = skewness.grid_for_probs(rows, base, rule)
    z = z_quantile(1.0 - 0.5 * (1.0 - level))
    out, start = [], 0
    for m, p in zip(measures, points):
        own = skewness.measure_grid(grid, m, where[start : start + len(p)])
        out.append(_measure_rows(rows, own, m, z, rule))
        start += len(p)
    return out


def intervals(
    sample: SortedSample,
    measures,
    level: float = 0.95,
    rule: BandwidthRule = DEFAULT_BANDWIDTH,
) -> list[IntervalEstimate]:
    """``[interval(sample, m, level, rule) for m in measures]`` on one grid.

    Raises the error of the first measure that fails.
    """
    if sample.values.ndim != 1:
        raise ValueError("intervals takes one sample; use interval_rows for a batch")
    out = []
    for r in interval_rows(SortedSample(sample.values[None]), measures, level, rule):
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


def difference_interval(
    sample_a: SortedSample,
    sample_b: SortedSample,
    measure: SkewMeasure,
    level: float = 0.95,
    rule: BandwidthRule = DEFAULT_BANDWIDTH,
) -> DifferenceEstimate:
    """Interval for the between-sample difference of one measure.

    The two samples are independent, so se^2 is the sum of the per-sample
    estimator variances.
    """
    ia = interval(sample_a, measure, level, rule)
    ib = interval(sample_b, measure, level, rule)
    diff = ia.estimate - ib.estimate
    se = math.sqrt(ia.se**2 + ib.se**2)
    z = z_quantile(1.0 - 0.5 * (1.0 - level))
    return DifferenceEstimate(
        measure=measure,
        a=ia,
        b=ib,
        difference=diff,
        se=se,
        level=level,
        lower=diff - z * se,
        upper=diff + z * se,
    )
