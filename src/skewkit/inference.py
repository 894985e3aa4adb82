"""Wald confidence intervals for skewness measures, one- and two-sample."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _three_point_variance(p, q, vl, vh, vm):
    """``asymptotics.bridge_variance([p, q, 0.5], [vl, vh, vm])`` elementwise,
    for p < 0.5 < q: the cells between the sorted points are p, 0.5 - p,
    q - 0.5 and 1 - q."""
    m = vl * p + vh * q + vm * 0.5
    t1 = vh + vm
    t0 = t1 + vl
    low = (t0 - m) ** 2 * p + (t1 - m) ** 2 * (0.5 - p)
    return low + (vh - m) ** 2 * (q - 0.5) + m**2 * (1.0 - q)


def _group_rows(rows, grid, measures, take, z: float, rule) -> list[IntervalRows]:
    """Intervals of measures that share one layout on ``grid``.

    ``take`` indexes each measure's own probabilities in ``grid.probs``:
    its P curve points, their complements and 0.5, one row per measure
    (pointwise kinds, P = 1) or one row shared by all (AUC kinds of one J).
    Every array below is (measures, rows, points).
    """
    n_pts = take.shape[1] // 2
    probs = grid.probs[take][:, None]
    x = np.moveaxis(grid.x[:, take], 1, 0)
    g = np.moveaxis(grid.g[:, take], 1, 0)
    slopes = [skewness.denominator_slopes(m) for m in measures]
    al, ah, am = np.array(slopes).T[:, :, None, None]
    weighted = np.array([m.weighted for m in measures])[:, None, None]
    weight = np.where(weighted, probs[..., :n_pts], 1.0)
    xl, xh, xm = x[..., :n_pts], x[..., n_pts:-1], x[..., -1:]

    bad_g = (g <= 0.0).any(axis=-1)
    r = al * xl + ah * xh + am * xm
    bad_r = r <= 0.0
    failed = bad_g | bad_r.any(axis=-1)
    # d(s/r) = (ds - (s/r) dr) / r with ds = (1, 1, -2); every curve point
    # weighs weight / P in the measure.
    ratio = (xh + xl - 2.0 * xm) / r
    scale = weight / (n_pts * r)
    v = g * np.concatenate([
        scale * (1.0 - ratio * al),
        scale * (1.0 - ratio * ah),
        np.sum(scale * (-2.0 - ratio * am), axis=-1, keepdims=True),
    ], axis=-1)
    if n_pts == 1:
        estimate = (weight * ratio)[..., 0]
        variance = _three_point_variance(probs[..., 0], probs[..., 1], *np.moveaxis(v, -1, 0))
    else:
        # the AUC carries the 0.5 / J cell width of the midpoint rule
        estimate = (weight * ratio).mean(axis=-1) * 0.5
        variance = 0.25 * asymptotics.bridge_variance(grid.probs[take[0]], v)
    estimate = np.where(failed, np.nan, estimate)
    se = np.where(failed, np.nan, np.sqrt(variance / rows.n))
    lower, upper = estimate - z * se, estimate + z * se

    errors = [{} for _ in measures]
    # an AUC group shares one row of ``take`` and of ``bad_g``
    for k, t in zip(*map(list, np.nonzero(failed))):
        own = take[k % len(take)]
        if bad_g[k % len(bad_g), t]:
            errors[k][t] = density_error(rows.values[t], grid.probs[own], grid.g[t, own], rule)
        else:
            errors[k][t] = DegenerateScaleError(grid.probs[own[:n_pts]][bad_r[k, t]])
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
    # one group of measures per point set: every pointwise measure, each AUC J
    keys = [m.j_points if m.is_auc else 0 for m in measures]
    points = {k: skewness.midpoint_probs(k) for k in dict.fromkeys(keys) if k}
    base = np.unique(np.concatenate([[m.p for m in measures if m.is_pointwise], *points.values()]))
    grid = skewness.grid_for_probs(rows, base, rule)
    z = z_quantile(1.0 - 0.5 * (1.0 - level))
    out = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for key in dict.fromkeys(keys):
            idx = [i for i, k in enumerate(keys) if k == key]
            probs = points[key] if key else [measures[i].p for i in idx]
            j = np.searchsorted(base, probs).reshape((1, -1) if key else (-1, 1))
            take = np.concatenate([j, base.size + j, np.full((len(j), 1), 2 * base.size)], axis=1)
            out.update(zip(idx, _group_rows(rows, grid, [measures[i] for i in idx], take, z, rule)))
    return [out[i] for i in range(len(measures))]


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
