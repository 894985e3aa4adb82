"""Skewness measures built from quantiles.

Pointwise kinds compare tail quantiles against the median (generalized Bowley
ratio and its half-range variant); AUC kinds integrate the corresponding
skewness curve over p in [0, 0.5] with a J-point midpoint rule; b3 is the
(mean - median) / mean-absolute-deviation ratio.

Convention: AUC values are the *integral* of the curve, i.e. the midpoint sum
carries the cell width 0.5/J.  The companion "mean skew" reading of an AUC
figure is half of it (see ``IntervalEstimate.mean_skew``).

Point values read quantiles only: ``estimate`` and ``population_measure``
build the measure's own grid from a quantile function (Type 8 on the sample,
or the distribution's).  Only intervals read quantile densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateScaleError, MissingProbabilityError
from .quantiles import (
    DEFAULT_BANDWIDTH,
    BandwidthRule,
    SortedSample,
    quantile_density_profile,
    quantile_type8,
)

DEFAULT_GRID_POINTS = 100


class MeasureKind(str, Enum):
    GAMMA = "gamma"
    LAMBDA = "lambda"
    GAMMA_STAR = "gamma_star"
    LAMBDA_STAR = "lambda_star"
    AUC_GAMMA = "auc_gamma"
    AUC_LAMBDA = "auc_lambda"
    AUC_GAMMA_STAR = "auc_gamma_star"
    AUC_LAMBDA_STAR = "auc_lambda_star"
    B3 = "b3"


class Direction(str, Enum):
    RIGHT = "right"
    LEFT = "left"


_POINTWISE = {
    MeasureKind.GAMMA,
    MeasureKind.LAMBDA,
    MeasureKind.GAMMA_STAR,
    MeasureKind.LAMBDA_STAR,
}
AUC_KINDS = (
    MeasureKind.AUC_GAMMA,
    MeasureKind.AUC_LAMBDA,
    MeasureKind.AUC_GAMMA_STAR,
    MeasureKind.AUC_LAMBDA_STAR,
)
_LAMBDA_FAMILY = {
    MeasureKind.LAMBDA,
    MeasureKind.LAMBDA_STAR,
    MeasureKind.AUC_LAMBDA,
    MeasureKind.AUC_LAMBDA_STAR,
}
_WEIGHTED = {
    MeasureKind.GAMMA_STAR,
    MeasureKind.LAMBDA_STAR,
    MeasureKind.AUC_GAMMA_STAR,
    MeasureKind.AUC_LAMBDA_STAR,
}


@dataclass(frozen=True)
class SkewMeasure:
    """One skewness measure plus its parameters.

    ``p`` is required for pointwise kinds and must lie in (0, 0.5);
    ``j_points`` is the midpoint-grid resolution for AUC kinds; ``direction``
    matters only for the lambda family (which half-range is the denominator).
    """

    kind: MeasureKind
    p: float | None = None
    direction: Direction = Direction.RIGHT
    j_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if self.kind in _POINTWISE:
            if self.p is None or not (0.0 < self.p < 0.5):
                raise ValueError(f"{self.kind.value} needs a probability in (0, 0.5)")
        elif self.p is not None:
            raise ValueError(f"{self.kind.value} takes no probability parameter")
        if self.kind in AUC_KINDS and self.j_points < 2:
            raise ValueError("AUC kinds need at least 2 grid points")

    @property
    def is_pointwise(self) -> bool:
        return self.kind in _POINTWISE

    @property
    def is_auc(self) -> bool:
        return self.kind in AUC_KINDS

    @property
    def is_lambda_family(self) -> bool:
        return self.kind in _LAMBDA_FAMILY

    @property
    def weighted(self) -> bool:
        return self.kind in _WEIGHTED

    def label(self) -> str:
        if self.is_pointwise:
            return f"{self.kind.value}@{self.p:g}"
        return self.kind.value

    def __str__(self) -> str:
        return self.label()


def parse_measure(
    token: str,
    direction: Direction = Direction.RIGHT,
    j_points: int = DEFAULT_GRID_POINTS,
) -> SkewMeasure:
    """Parse one measure token: ``gamma@0.25``, ``auc_lambda_star``, ``b3``, ..."""
    text = token.strip().lower()
    name, _, param = text.partition("@")
    try:
        kind = MeasureKind(name)
    except ValueError:
        known = ", ".join(k.value for k in MeasureKind)
        raise ValueError(f"unknown measure {token!r}; known kinds: {known}") from None
    if kind in _POINTWISE:
        if not param:
            raise ValueError(f"{name} requires '@p', e.g. '{name}@0.25'")
        p = float(param)
        return SkewMeasure(kind, p=p, direction=direction, j_points=j_points)
    if param:
        raise ValueError(f"{name} takes no '@p' parameter")
    return SkewMeasure(kind, direction=direction, j_points=j_points)


def midpoint_probs(j_points: int) -> np.ndarray:
    """Midpoint grid p_j = 0.5 (j - 1/2) / J for j = 1..J."""
    if j_points < 2:
        raise ValueError("need at least 2 grid points")
    j = np.arange(1, j_points + 1)
    return 0.5 * (j - 0.5) / j_points


def _grid_probs(base: np.ndarray) -> np.ndarray:
    return np.concatenate([base, 1.0 - base, [0.5]])


@dataclass(frozen=True)
class QuantileGrid:
    """Per-sample cache of quantiles and quantile densities.

    ``probs`` holds every base probability p_j in (0, 0.5), then every
    1 - p_j in the same order, then 0.5; ``x`` and ``g`` hold the quantile
    and quantile-density values at those 2J+1 probabilities, each computed
    exactly once.  For a batch of samples ``x`` and ``g`` have one row per
    sample, and every function of this module works row by row.  The grids
    of point values (sample estimates and population values) have ``n`` and
    ``g`` None: a point value never reads a quantile density.
    """

    probs: np.ndarray
    x: np.ndarray
    g: np.ndarray | None
    n: int | None
    j_points: int | None

    @property
    def base_probs(self) -> np.ndarray:
        return self.probs[: self.probs.size // 2]

    @property
    def x_low(self) -> np.ndarray:
        return self.x[..., : self.probs.size // 2]

    @property
    def x_high(self) -> np.ndarray:
        return self.x[..., self.probs.size // 2 : -1]

    @property
    def x_median(self):
        """The median: a float for one sample, one value per row for a batch."""
        return _scalar(self.x[..., -1])

    def s_values(self) -> np.ndarray:
        """The skewness curve's numerators x_{1-p_j} + x_{p_j} - 2 x_{0.5}."""
        return self.x_high + self.x_low - 2.0 * self.x[..., -1:]


def _sample_grid(sample, base, rule, j_points):
    probs = _grid_probs(base)
    return QuantileGrid(
        probs, quantile_type8(sample, probs), quantile_density_profile(sample, probs, rule),
        sample.n, j_points,
    )


def grid_for_probs(
    sample: SortedSample, base_probs, rule: BandwidthRule = DEFAULT_BANDWIDTH
) -> QuantileGrid:
    """The grid at the given base probabilities.  For a batch of samples the
    densities are left unchecked (see ``quantile_density_profile``)."""
    base = np.asarray(base_probs, dtype=float)
    if np.any(~((base > 0.0) & (base < 0.5))):
        raise ValueError("grid base probabilities must lie in (0, 0.5)")
    return _sample_grid(sample, base, rule, None)


def build_grid(
    sample: SortedSample,
    j_points: int = DEFAULT_GRID_POINTS,
    rule: BandwidthRule = DEFAULT_BANDWIDTH,
) -> QuantileGrid:
    """Build the J-point midpoint grid (all 2J+1 quantiles and densities)."""
    return _sample_grid(sample, midpoint_probs(j_points), rule, j_points)


def _quantile_grid(quantile, base, j_points=None) -> QuantileGrid:
    """The grid of ``quantile`` (a quantile function of an array of
    probabilities) at the base probabilities, without quantile densities."""
    probs = _grid_probs(np.asarray(base, dtype=float))
    return QuantileGrid(probs, np.asarray(quantile(probs), dtype=float), None, None, j_points)


def population_grid(dist, j_points: int | None = None, base_probs=None) -> QuantileGrid:
    """Exact-quantile grid for a distribution (population plug-in path),
    without quantile densities."""
    if base_probs is not None:
        return _quantile_grid(dist.quantile, base_probs)
    j_points = DEFAULT_GRID_POINTS if j_points is None else j_points
    return _quantile_grid(dist.quantile, midpoint_probs(j_points), j_points)


def denominator_slopes(measure: SkewMeasure) -> tuple[float, float, float]:
    """Coefficients of the measure's curve denominator r_j on
    (x_{p_j}, x_{1-p_j}, x_{0.5}): the full range x_{1-p_j} - x_{p_j} (gamma
    family) or the half-range x_{0.5} - x_{p_j} (right) or x_{1-p_j} - x_{0.5}
    (left) (lambda family).  r_j is linear, so these are its derivatives too."""
    if not measure.is_lambda_family:
        return -1.0, 1.0, 0.0
    if measure.direction is Direction.LEFT:
        return 0.0, 1.0, -1.0
    return -1.0, 0.0, 1.0


def denominators(grid: QuantileGrid, measure: SkewMeasure) -> np.ndarray:
    """The measure's curve denominators r_j at every base probability (see
    ``denominator_slopes``); exact, as every coefficient is 0 or +-1."""
    al, ah, am = denominator_slopes(measure)
    return al * grid.x_low + ah * grid.x_high + am * grid.x[..., -1:]


def curve_terms(grid: QuantileGrid, measure: SkewMeasure) -> tuple[np.ndarray, ...]:
    """Grid indices j, numerators s_j and denominators r_j of the measure's curve.

    AUC kinds use every base probability, pointwise kinds the one equal to
    ``measure.p``.  s_j = x_{1-p_j} + x_{p_j} - 2 x_{0.5}; r_j is given by
    ``denominators``.  Raises DegenerateScaleError naming every p_j where
    some r_j <= 0.
    """
    if measure.is_pointwise:
        j = np.flatnonzero(grid.base_probs == measure.p)[:1]
        if j.size == 0:
            raise MissingProbabilityError(measure.p)
    else:
        j = np.arange(grid.base_probs.size)
    s = grid.s_values()[..., j]
    r = denominators(grid, measure)[..., j]
    bad = r <= 0.0
    if np.any(bad):
        raise DegenerateScaleError(grid.base_probs[j][bad.reshape(-1, j.size).any(axis=0)])
    return j, s, r


def curve_values(grid: QuantileGrid, measure: SkewMeasure) -> np.ndarray:
    """The skewness curve s_j / r_j at the measure's grid points, times p_j
    for weighted (star) kinds."""
    j, s, r = curve_terms(grid, measure)
    curve = s / r
    if measure.weighted:
        curve = grid.base_probs[j] * curve
    return curve


def _scalar(value: np.ndarray):
    """A float for one sample, the per-row array for a batch."""
    return float(value) if np.ndim(value) == 0 else value


def estimate_pointwise(grid: QuantileGrid, measure: SkewMeasure) -> float:
    """Pointwise skewness estimate at the measure's probability."""
    if not measure.is_pointwise:
        raise ValueError(f"{measure} is not a pointwise measure")
    return _scalar(curve_values(grid, measure)[..., 0])


def estimate_auc(grid: QuantileGrid, measure: SkewMeasure) -> float:
    """Area under the skewness curve over p in [0, 0.5], midpoint rule.

    Each grid cell has width 0.5/J, so the sum is (0.5/J) * sum_j curve(p_j);
    weighted kinds integrate p * curve(p).
    """
    if not measure.is_auc:
        raise ValueError(f"{measure} is not an AUC measure")
    if grid.j_points is None or grid.j_points != measure.j_points:
        raise ValueError(
            f"grid was not built on the measure's {measure.j_points}-point midpoint rule"
        )
    return _scalar(curve_values(grid, measure).mean(axis=-1) * 0.5)


def estimate_b3(sample: SortedSample) -> float:
    """(mean - median) / E|X - median| with the Type-8 median plug-in."""
    med = quantile_type8(sample, 0.5)
    mad = float(np.abs(sample.values - med).mean())
    if mad <= 0.0:
        raise DegenerateScaleError([0.5], detail="constant sample has zero MAD")
    return (float(sample.values.mean()) - med) / mad


def _point_value(quantile, measure: SkewMeasure) -> float:
    """A pointwise or AUC measure from its own grid of the quantile function
    ``quantile``; no quantile density is involved."""
    if measure.is_auc:
        grid = _quantile_grid(quantile, midpoint_probs(measure.j_points), measure.j_points)
        return estimate_auc(grid, measure)
    return estimate_pointwise(_quantile_grid(quantile, [measure.p]), measure)


def estimate(sample: SortedSample, measure: SkewMeasure) -> float:
    """Point estimate of any measure from a sorted sample: Type-8 quantiles
    only, so ties never fail it unless a denominator vanishes."""
    if measure.kind is MeasureKind.B3:
        return estimate_b3(sample)
    return _point_value(lambda probs: quantile_type8(sample, probs), measure)


def population_measure(dist, measure: SkewMeasure) -> float:
    """Population value of a measure via exact quantiles.

    AUC kinds reuse the estimation-side midpoint summation so that simulated
    coverage is judged against the same discretization.
    """
    from .distributions import median_absolute_moment

    if measure.kind is MeasureKind.B3:
        mu = dist.mean()
        if not math.isfinite(mu):
            raise ValueError(f"b3 needs a finite mean; {dist} has none")
        return (mu - float(dist.quantile(0.5))) / median_absolute_moment(dist)
    return _point_value(dist.quantile, measure)
