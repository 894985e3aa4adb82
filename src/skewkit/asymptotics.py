"""First-order asymptotic variances of the skewness estimators.

Everything rests on the large-sample quantile covariance
n Cov(xhat_p, xhat_q) =~ (min(p,q) - pq) g(p) g(q), with g the quantile
density: the covariance of a Brownian bridge B weighted by g (Shorack &
Wellner 1986).  Every measure is the mean of its skewness curve s_j / r_j
(times p_j for the star kinds) over its grid points, a smooth function of
the quantiles at the grid probabilities p_a, so by the delta method its
n Var is Var(sum_a v_a B(p_a)) with v_a = d(measure)/d x_{p_a} * g(p_a).
Writing B(p) = W(p) - p W(1) turns that into n Var = int_0^1 (T(t) - m)^2 dt,
with T(t) = sum_{p_a > t} v_a and m = sum_a v_a p_a: an O(J) sum of squares
(see bridge_variance).  Pointwise measures are the one-point case, so both
kinds take one path.  All population quantities are replaced by sample
plug-ins.  Every function takes a batch grid too (one row per sample) and
returns one variance per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .skewness import (
    Direction, MeasureKind, QuantileGrid, SkewMeasure, _scalar, curve_terms, denominator_slopes,
)


@dataclass(frozen=True)
class XiKernel:
    """Quantile-covariance kernel: sample size plus the quantile densities g
    at the probabilities ``probs`` (a grid's ``QuantileGrid.probs``).

    ``g`` holds kernel estimates (inference) or exact quantile densities
    (population oracles).  The engine accepts the kernel only for a grid
    with exactly these probabilities.  For a batch grid ``g`` has one row
    per sample.
    """

    n: int
    probs: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        positive = np.asarray(self.g) > 0.0  # NaN fails too
        if np.shape(self.g)[-1:] != np.shape(self.probs) or not positive.all():
            raise ValueError(
                f"need one positive quantile density per probability, got {self.g!r}"
            )

    @classmethod
    def from_grid(cls, grid: QuantileGrid) -> "XiKernel":
        if grid.n is None:
            raise ValueError("grid has no sample size; use an explicit n")
        return cls(n=grid.n, probs=grid.probs, g=grid.g)


def bridge_variance(probs: np.ndarray, v: np.ndarray):
    """Var(sum_a v_a B(p_a)) for a standard Brownian bridge B on [0, 1].

    Equals int_0^1 (T(t) - m)^2 dt with T(t) = sum_{p_a > t} v_a and
    m = sum_a v_a p_a, so it is non-negative by construction.  ``v`` may
    hold one row of weights per sample; the result then has one entry per row.
    """
    # T(t) is tail[..., i] on cell i between sorted probabilities, 0 past the last
    order = np.argsort(probs)
    tail = np.cumsum(v[..., order[::-1]], axis=-1)[..., ::-1]
    tail = np.concatenate([tail, np.zeros(tail.shape[:-1] + (1,))], axis=-1)
    cells = np.diff(np.concatenate(([0.0], probs[order], [1.0])))
    return _scalar((tail - (v @ probs)[..., None]) ** 2 @ cells)


def ratio_gradient(grid: QuantileGrid, measure: SkewMeasure) -> np.ndarray:
    """Gradient of sum_j w_j s_j / r_j over the quantiles at ``grid.probs``.

    The sum runs over the measure's curve points (see ``curve_terms``), with
    w_j = (p_j for star kinds, else 1) / (number of points): the measure
    itself for AUC kinds up to the 0.5 cell width, and the unweighted ratio
    for pointwise kinds.  Entries off the measure's points are zero.
    """
    j, s, r = curve_terms(grid, measure)
    # d(s/r) = (ds - (s/r) dr) / r, with ds = (1, 1, -2) and dr the derivative
    # of the denominator with respect to (x_{p_j}, x_{1-p_j}, x_{0.5}).
    dr_low, dr_high, dr_med = denominator_slopes(measure)
    ratio = s / r
    scale = (grid.base_probs[j] if measure.weighted else 1.0) / (j.size * r)
    grad = np.zeros(grid.x.shape)
    grad[..., j] = scale * (1.0 - ratio * dr_low)
    grad[..., grid.base_probs.size + j] = scale * (1.0 - ratio * dr_high)
    grad[..., -1] = np.sum(scale * (-2.0 - ratio * dr_med), axis=-1)
    return grad


def _delta_variance(k: XiKernel, grid: QuantileGrid, measure: SkewMeasure) -> float:
    if not np.array_equal(k.probs, grid.probs):
        raise ValueError("the kernel's probabilities are not the grid's")
    return bridge_variance(grid.probs, ratio_gradient(grid, measure) * k.g)


def sigma1_sq(k: XiKernel, grid: QuantileGrid, p: float) -> float:
    """n Var of the gamma_p estimator (delta method, plug-in form)."""
    return _delta_variance(k, grid, SkewMeasure(MeasureKind.GAMMA, p=p))


def sigma2_sq(
    k: XiKernel, grid: QuantileGrid, p: float, direction: Direction = Direction.RIGHT
) -> float:
    """n Var of the lambda_p estimator (delta method, plug-in form)."""
    return _delta_variance(k, grid, SkewMeasure(MeasureKind.LAMBDA, p=p, direction=direction))


def auc_variance(
    k: XiKernel,
    grid: QuantileGrid,
    family: str = "gamma",
    weighted: bool = False,
    direction: Direction = Direction.RIGHT,
) -> float:
    """n Var of the plain (1/J)-mean of the pointwise curve on a midpoint grid.

    That is the (1/J^2) double sum of the pointwise delta-method covariances
    n Cov(ratio_{p_j}, ratio_{p_k}), times p_j p_k for weighted kinds,
    computed as one bridge variance in O(J).
    """
    if grid.j_points is None:
        raise ValueError("AUC variance needs a midpoint grid (build_grid)")
    kind = MeasureKind(f"auc_{family}{'_star' if weighted else ''}")
    return _delta_variance(
        k, grid, SkewMeasure(kind, direction=direction, j_points=grid.j_points)
    )
