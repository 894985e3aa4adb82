"""Oracle API for the first-order asymptotic variances of the estimators.

``sigma1_sq``, ``sigma2_sq`` and ``auc_variance`` give one measure's n Var
on a grid from a ``XiKernel`` of quantile densities, sample plug-ins or
exact population values.  Each runs the production evaluator,
``skewness.measure_rows`` (the bridge form is derived in ``skewness``), so
the oracles that check them check the path every interval takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import skewness
from .skewness import Direction, MeasureKind, QuantileGrid, SkewMeasure


@dataclass(frozen=True)
class XiKernel:
    """Quantile-covariance kernel: the quantile densities g at the
    probabilities ``probs`` (a grid's ``QuantileGrid.probs``); n Var needs no n.

    ``g`` holds kernel estimates (inference) or exact quantile densities
    (population oracles).  The engine accepts the kernel only for a grid
    with exactly these probabilities.  For a batch grid ``g`` has one row
    per sample.
    """

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
        if grid.g is None:
            raise ValueError("grid has no quantile densities; pass them to XiKernel")
        return cls(probs=grid.probs, g=grid.g)


def _variance(k: XiKernel, grid: QuantileGrid, measure: SkewMeasure):
    """n Var of one measure's curve mean on ``grid``."""
    if not np.array_equal(k.probs, grid.probs):
        raise ValueError("the kernel's probabilities are not the grid's")
    return skewness._grid_value(grid, measure, k.g)


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
    j_points: int | None = None,
) -> float:
    """n Var of the plain (1/J)-mean of the pointwise curve on a J-point
    midpoint grid: the (1/J^2) double sum of the pointwise delta-method
    covariances n Cov(ratio_{p_j}, ratio_{p_k}), times p_j p_k for weighted
    kinds, computed as one bridge variance in O(J).  J is ``j_points``, by
    default the grid's number of base probabilities; the grid must hold the
    J midpoints and may hold other probabilities too."""
    kind = MeasureKind(f"auc_{family}{'_star' if weighted else ''}")
    j = grid.base_probs.size if j_points is None else j_points
    return _variance(k, grid, SkewMeasure(kind, direction=direction, j_points=j))
