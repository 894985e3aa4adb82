"""First-order asymptotic variances and covariances of the skewness estimators.

Everything rests on the large-sample quantile covariance
Cov(xhat_p, xhat_q) =~ min(p,q)(1 - max(p,q)) g(p) g(q) / n with g the
quantile density.  The covariance expansions for the interquantile statistics
are signed sums of those xi terms, and delta-method plug-ins then give the
variances of the pointwise skewness ratios.  That covariance is a Brownian
bridge weighted by g, so an AUC variance is the variance of one weighted
bridge, n Var = int_0^1 (T(t) - m)^2 dt, an O(J) sum (see auc_variance).
All population quantities are replaced by sample plug-ins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DegenerateScaleError, MissingProbabilityError, NumericalError
from .skewness import Direction, QuantileGrid, SkewMeasure, r1_p, r2_p, s_p


@dataclass(frozen=True)
class XiKernel:
    """Quantile-covariance kernel: sample size plus a prob -> g(p) table.

    ``g_at`` may hold kernel estimates (inference) or exact quantile densities
    (population oracles); every probability any expansion will touch must be
    present up front.
    """

    n: int
    g_at: Mapping[float, float]

    def __post_init__(self):
        for p, g in self.g_at.items():
            if not g > 0.0:
                raise ValueError(f"quantile density at p={p:g} must be positive, got {g!r}")

    @classmethod
    def from_grid(cls, grid: QuantileGrid) -> "XiKernel":
        if grid.n is None:
            raise ValueError("grid has no sample size; use an explicit n")
        return cls(n=grid.n, g_at=grid.ghat_at)

    @classmethod
    def exact(cls, dist, probs, n: int) -> "XiKernel":
        """Exact-g kernel for a distribution (simulation/test oracles)."""
        table = {}
        for p in probs:
            pf = float(p)
            table[pf] = float(dist.quantile_density(pf))
        return cls(n=n, g_at=table)

    def g(self, p: float) -> float:
        try:
            return self.g_at[p]
        except KeyError:
            raise MissingProbabilityError(p) from None


def xi(k: XiKernel, p: float, q: float) -> float:
    """Cov(xhat_p, xhat_q) = min(p,q)(1 - max(p,q)) g(p) g(q) / n."""
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError("xi probabilities must lie inside (0, 1)")
    lo, hi = (p, q) if p <= q else (q, p)
    gg = k.g(p) * k.g(q)  # grouped so xi(p, q) == xi(q, p) exactly
    return lo * (1.0 - hi) * gg / k.n


def cov_s_s(k: XiKernel, p: float, q: float) -> float:
    """Cov(s_p, s_q) where s_p = xhat_{1-p} + xhat_p - 2 xhat_{0.5}."""
    return (
        xi(k, 1 - p, 1 - q) + xi(k, 1 - p, q) + xi(k, p, 1 - q) + xi(k, p, q)
        - 2 * xi(k, 1 - p, 0.5) - 2 * xi(k, p, 0.5)
        - 2 * xi(k, 0.5, 1 - q) - 2 * xi(k, 0.5, q)
        + 4 * xi(k, 0.5, 0.5)
    )


def cov_s_r1(k: XiKernel, p: float, q: float) -> float:
    """Cov(s_p, r1_q) where r1_q = xhat_{1-q} - xhat_q."""
    return (
        xi(k, 1 - p, 1 - q) - xi(k, 1 - p, q) + xi(k, p, 1 - q) - xi(k, p, q)
        - 2 * xi(k, 0.5, 1 - q) + 2 * xi(k, 0.5, q)
    )


def cov_r1_s(k: XiKernel, p: float, q: float) -> float:
    # Cov is symmetric in its arguments, so this is cov_s_r1 transposed;
    # delegating keeps the transpose identity exact in floating point.
    return cov_s_r1(k, q, p)


def cov_r1_r1(k: XiKernel, p: float, q: float) -> float:
    """Cov(r1_p, r1_q)."""
    return (
        xi(k, 1 - p, 1 - q) - xi(k, 1 - p, q) - xi(k, p, 1 - q) + xi(k, p, q)
    )


def cov_s_r2(k: XiKernel, p: float, q: float, direction: Direction = Direction.RIGHT) -> float:
    """Cov(s_p, r2_q) with r2_q = xhat_{0.5} - xhat_q (right) or
    xhat_{1-q} - xhat_{0.5} (left)."""
    if direction is Direction.LEFT:
        return (
            xi(k, 1 - p, 1 - q) - xi(k, 1 - p, 0.5) + xi(k, p, 1 - q) - xi(k, p, 0.5)
            - 2 * xi(k, 0.5, 1 - q) + 2 * xi(k, 0.5, 0.5)
        )
    return (
        xi(k, 1 - p, 0.5) - xi(k, 1 - p, q) + xi(k, p, 0.5) - xi(k, p, q)
        + 2 * xi(k, 0.5, q) - 2 * xi(k, 0.5, 0.5)
    )


def cov_r2_s(k: XiKernel, p: float, q: float, direction: Direction = Direction.RIGHT) -> float:
    return cov_s_r2(k, q, p, direction)


def cov_r2_r2(k: XiKernel, p: float, q: float, direction: Direction = Direction.RIGHT) -> float:
    """Cov(r2_p, r2_q), same direction on both sides."""
    if direction is Direction.LEFT:
        return (
            xi(k, 1 - p, 1 - q) - xi(k, 1 - p, 0.5) - xi(k, 0.5, 1 - q) + xi(k, 0.5, 0.5)
        )
    return xi(k, p, q) - xi(k, 0.5, q) - xi(k, p, 0.5) + xi(k, 0.5, 0.5)


def _plugin_ratio(grid: QuantileGrid, p: float, lambda_family: bool, direction: Direction):
    s = s_p(grid, p)
    r = r2_p(grid, p, direction) if lambda_family else r1_p(grid, p)
    if r <= 0.0:
        raise DegenerateScaleError([p])
    return s, r, s / r


def sigma_cross(
    k: XiKernel,
    grid: QuantileGrid,
    p: float,
    q: float,
    family: str = "gamma",
    direction: Direction = Direction.RIGHT,
) -> float:
    """n Cov(ratio_p, ratio_q) by the delta method with sample plug-ins.

    ``family`` selects gamma (full-range denominator) or lambda (half-range).
    Setting p = q recovers the pointwise asymptotic variances; the expansion
    never divides by s_p, so symmetric data (s_p = 0) is handled exactly.
    """
    lam = family == "lambda"
    _, rp, cp = _plugin_ratio(grid, p, lam, direction)
    _, rq, cq = _plugin_ratio(grid, q, lam, direction)
    if lam:
        a = cov_s_s(k, p, q)
        b = cov_s_r2(k, p, q, direction)
        c = cov_r2_s(k, p, q, direction)
        d = cov_r2_r2(k, p, q, direction)
    else:
        a = cov_s_s(k, p, q)
        b = cov_s_r1(k, p, q)
        c = cov_r1_s(k, p, q)
        d = cov_r1_r1(k, p, q)
    return k.n * (a - cq * b - cp * c + cp * cq * d) / (rp * rq)


def sigma1_sq(k: XiKernel, grid: QuantileGrid, p: float) -> float:
    """n Var of the gamma_p estimator (delta method, plug-in form)."""
    return sigma_cross(k, grid, p, p, family="gamma")


def sigma2_sq(
    k: XiKernel, grid: QuantileGrid, p: float, direction: Direction = Direction.RIGHT
) -> float:
    """n Var of the lambda_p estimator (delta method, plug-in form)."""
    return sigma_cross(k, grid, p, p, family="lambda", direction=direction)


@dataclass(frozen=True)
class VarianceEstimate:
    """Estimator-scale variance (asymptotic value / n) and its square root."""

    measure: SkewMeasure
    variance: float
    se: float

    @classmethod
    def from_asymptotic(cls, measure: SkewMeasure, asymptotic: float, n: int) -> "VarianceEstimate":
        if asymptotic < 0.0:
            raise NumericalError(
                f"negative asymptotic variance {asymptotic:g} for {measure}"
            )
        variance = asymptotic / n
        return cls(measure=measure, variance=variance, se=float(np.sqrt(variance)))


def auc_variance(
    k: XiKernel,
    grid: QuantileGrid,
    family: str = "gamma",
    weighted: bool = False,
    direction: Direction = Direction.RIGHT,
) -> float:
    """(1/J^2) sum_{j,k} sigma_cross(p_j, p_k): the AUC double sum.

    This is the asymptotic (times-n) variance of the plain (1/J)-mean of the
    pointwise estimates; weighted kinds multiply each term by p_j p_k.  The
    mean is a smooth function of the quantiles at the 2J+1 grid probabilities
    p_a, so its n Var is Var(sum_a v_a B(p_a)) for a Brownian bridge B, with
    v_a = d(mean)/d x_{p_a} * g(p_a) (Shorack & Wellner 1986).  Writing
    B(p) = W(p) - p W(1) turns that into n Var = int_0^1 (T(t) - m)^2 dt, with
    T(t) = sum_{p_a > t} v_a and m = sum_a v_a p_a: an O(J) sum of squares.
    """
    if grid.j_points is None:
        raise ValueError("AUC variance needs a midpoint grid (build_grid)")
    pj = grid.base_probs
    g_low = np.array([k.g(float(p)) for p in pj])
    g_high = np.array([k.g(1.0 - float(p)) for p in pj])

    lam = family == "lambda"
    numer = grid.s_values()
    denom = grid.r2_values(direction) if lam else grid.r1_values()
    if np.any(denom <= 0.0):
        raise DegenerateScaleError(pj[denom <= 0.0])
    ratio = numer / denom

    # d(s/r) = (ds - (s/r) dr) / r, with ds = (1, 1, -2) and dr the derivative
    # of the denominator with respect to (x_{p_j}, x_{1-p_j}, x_{0.5}).
    if not lam:
        dr_low, dr_high, dr_med = -1.0, 1.0, 0.0
    elif direction is Direction.LEFT:
        dr_low, dr_high, dr_med = 0.0, 1.0, -1.0
    else:
        dr_low, dr_high, dr_med = -1.0, 0.0, 1.0
    scale = (pj if weighted else 1.0) / (pj.size * denom)
    probs = np.concatenate([pj, 1.0 - pj, [0.5]])
    v = np.concatenate([
        scale * (1.0 - ratio * dr_low) * g_low,
        scale * (1.0 - ratio * dr_high) * g_high,
        [np.sum(scale * (-2.0 - ratio * dr_med)) * k.g(0.5)],
    ])
    # T(t) is tail[i] on cell i between sorted probabilities, 0 past the last
    order = np.argsort(probs)
    tail = np.append(np.cumsum(v[order][::-1])[::-1], 0.0)
    cells = np.diff(probs[order], prepend=0.0, append=1.0)
    return float(cells @ (tail - v @ probs) ** 2)
