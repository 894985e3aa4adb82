"""First-order asymptotic variances of the skewness estimators.

Everything rests on the large-sample quantile covariance
n Cov(xhat_p, xhat_q) =~ (min(p,q) - pq) g(p) g(q), with g the quantile
density: the covariance of a Brownian bridge B weighted by g (Shorack &
Wellner 1986).  Every measure is a cell width times the mean of its skewness
curve w_j s_j / r_j over its curve points p_1 < ... < p_P, read on the
ascending point layout p_1..p_P, 0.5, 1 - p_P..1 - p_1 (see
``skewness.point_layout`` and ``skewness.curve``).  By the delta method its
n Var is the width squared times Var(sum_a v_a B(p_a)), with
v_a = d(curve mean)/d x_{p_a} * g(p_a) (``gradient``).  Writing
B(p) = W(p) - p W(1) turns that into n Var = int_0^1 (T(t) - m)^2 dt, with
T(t) = sum_{p_a > t} v_a and m = sum_a v_a p_a: an O(P) sum of squares over
the layout (``bridge_variance``).  Pointwise measures are the one-point
case, so both kinds take one path, ``delta_method``: the measures of one
point set from quantiles x and densities g on any number of rows.
``inference.interval_rows`` feeds it Type-8 quantiles and kernel densities;
``sigma1_sq``, ``sigma2_sq`` and ``auc_variance`` feed it one measure's
grid and kernel (sample plug-ins or exact population values), so the
oracles that check them check the production path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import skewness
from .skewness import Direction, MeasureKind, QuantileGrid, SkewMeasure, _scalar


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

    ``probs`` ascend on the last axis and broadcast against ``v``, which may
    hold one row of weights per sample; the result has one entry per row.
    Equals int_0^1 (T(t) - m)^2 dt with T(t) = sum_{p_a > t} v_a and
    m = sum_a v_a p_a, so it is non-negative by construction.
    """
    # T(t) is tail[..., a] on the cell (p_{a-1}, p_a] (p_0 = 0) and 0 past p_P
    tail = np.cumsum(v[..., ::-1], axis=-1)[..., ::-1]
    m = np.einsum("...a,...a->...", v, probs)
    dev = tail - m[..., None]
    cells = probs.copy()
    cells[..., 1:] -= probs[..., :-1]
    past_last = m * m * (1.0 - probs[..., -1])
    return _scalar(np.einsum("...a,...a,...a->...", dev, dev, cells) + past_last)


def gradient(weight: np.ndarray, s: np.ndarray, r: np.ndarray, slopes) -> np.ndarray:
    """Gradient of the curve mean (1/P) sum_j w_j s_j / r_j with respect to
    the quantiles on the point layout, from the terms of ``skewness.curve``."""
    # d(s/r) = (ds - (s/r) dr) / r, with ds = (1, 1, -2) and dr the slopes on
    # (x_{p_j}, x_{1-p_j}, x_{0.5})
    al, ah, am = slopes
    ratio = s / r
    scale = weight / (ratio.shape[-1] * r)
    return np.concatenate([
        scale * (1.0 - ratio * al),
        np.sum(scale * (-2.0 - ratio * am), axis=-1, keepdims=True),
        (scale * (1.0 - ratio * ah))[..., ::-1],
    ], axis=-1)


def delta_method(x: np.ndarray, g: np.ndarray, probs: np.ndarray, take: np.ndarray, measures):
    """The values and n Var of measures that share one point set, from
    quantiles ``x`` and quantile densities ``g`` at ``probs``, one row per
    sample: ``skewness.group_curve``, one ``gradient`` and one
    ``bridge_variance``.  Returns the layouts' probabilities, the curve
    denominators r and the densities (layouts, rows, points) on the layouts,
    the values (measures, rows), the cell width and the n Var of the curve
    means (measures, rows), without the width."""
    p, slopes, (weight, s, r), width, values = skewness.group_curve(x, probs, take, measures)
    g = skewness.layout_rows(g, take)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return p, r, g, values, width, bridge_variance(p, g * gradient(weight, s, r, slopes))


def _variance(k: XiKernel, grid: QuantileGrid, measure: SkewMeasure):
    """n Var of one measure's curve mean on ``grid`` (see ``delta_method``)."""
    if not np.array_equal(k.probs, grid.probs):
        raise ValueError("the kernel's probabilities are not the grid's")
    _, [(_, take)] = skewness.point_sets([measure], grid.base_probs)
    p, r, _, values, _, nvar = delta_method(
        np.atleast_2d(grid.x), np.atleast_2d(k.g), grid.probs, take, [measure]
    )
    errors = skewness.curve_errors([measure], p, r, np.where(np.isfinite(nvar), values, np.nan))
    return skewness._grid_result(grid, nvar, errors[0])


def sigma1_sq(k: XiKernel, grid: QuantileGrid, p: float) -> float:
    """n Var of the gamma_p estimator (delta method, plug-in form)."""
    return _variance(k, grid, SkewMeasure(MeasureKind.GAMMA, p=p))


def sigma2_sq(
    k: XiKernel, grid: QuantileGrid, p: float, direction: Direction = Direction.RIGHT
) -> float:
    """n Var of the lambda_p estimator (delta method, plug-in form)."""
    return _variance(k, grid, SkewMeasure(MeasureKind.LAMBDA, p=p, direction=direction))


def auc_variance(
    k: XiKernel,
    grid: QuantileGrid,
    family: str = "gamma",
    weighted: bool = False,
    direction: Direction = Direction.RIGHT,
) -> float:
    """n Var of the plain (1/J)-mean of the pointwise curve on a J-point
    midpoint grid: the (1/J^2) double sum of the pointwise delta-method
    covariances n Cov(ratio_{p_j}, ratio_{p_k}), times p_j p_k for weighted
    kinds, computed as one bridge variance in O(J)."""
    kind = MeasureKind(f"auc_{family}{'_star' if weighted else ''}")
    return _variance(k, grid, SkewMeasure(kind, direction=direction, j_points=grid.base_probs.size))
