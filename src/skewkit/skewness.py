"""Skewness measures built from quantiles.

Pointwise kinds compare tail quantiles against the median (generalized Bowley
ratio and its half-range variant); AUC kinds integrate the corresponding
skewness curve over p in [0, 0.5] with a J-point midpoint rule; b3 is the
(mean - median) / mean-absolute-deviation ratio.

Convention: AUC values are the *integral* of the curve, i.e. the midpoint sum
carries the cell width 0.5/J.  The companion "mean skew" reading of an AUC
figure is half of it (see ``IntervalEstimate.mean_skew``).

Every measure is a cell width times the mean of its skewness curve over its
curve points, read on one ascending point layout (``point_layout``,
``curve``).  One evaluator, ``measure_rows``, computes the values of each
point set and, from quantile densities, their delta-method variances
(``gradient``, ``bridge_variance``) in one vectorised pass.

Point values read quantiles only: ``point_values`` evaluates every measure
from one call of a quantile function (Type 8 on the sample, or the
distribution's) over the union of their probabilities, one pass per point
set (see ``point_sets``).  Only intervals read quantile densities.

Two results depend on the measures alone and are memoized: the union point
sets of a measure tuple, each with the constants of its curves and
variances (``PointSet``), in a bounded process-wide cache with read-only
arrays (``point_sets``), and the population values of a measure tuple, on
the distribution object for as long as it lives (``population_measures``;
the distributions are immutable, so the values never go stale).

A coverage run's settings are read here too, beside the measure grammar:
each ``SimConfig`` field, simulation config key and CLI flag named after one
goes through the key's row of one table, ``_READERS`` (see ``_read``).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DegenerateScaleError, NumericalError, SkewkitError
from .quantiles import (
    DEFAULT_BANDWIDTH,
    BandwidthRule,
    SortedSample,
    _read_only,
    quantile_density_profile,
    quantile_type8,
)

DEFAULT_GRID_POINTS = 100


def format_exact(x: float) -> str:
    """``x`` as ``:g`` prints it where that reads back as the same float,
    else its shortest round-trip ``repr``."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


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


_FAMILIES = ("gamma", "lambda", "gamma_star", "lambda_star")
_POINTWISE = {MeasureKind(family) for family in _FAMILIES}
AUC_KINDS = tuple(MeasureKind(f"auc_{family}") for family in _FAMILIES)
_LAMBDA_FAMILY = {kind for kind in MeasureKind if "lambda" in kind.value}
_WEIGHTED = {kind for kind in MeasureKind if kind.value.endswith("_star")}


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
            if 1.0 - self.p == 1.0:  # no quantile at 1 - p
                raise ValueError(f"{self.label()}: 1 - p rounds to 1, which has no quantile; use p >= 1e-16")
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
            return f"{self.kind.value}@{format_exact(self.p)}"
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
        try:
            p = float(param)
        except ValueError:
            raise ValueError(f"{token.strip()}: p must be a number in (0, 0.5)") from None
        return SkewMeasure(kind, p=p, direction=direction, j_points=j_points)
    if param:
        raise ValueError(f"{name} takes no '@p' parameter")
    return SkewMeasure(kind, direction=direction, j_points=j_points)


# what ``all`` stands for, b3 aside
_ALL = [f"{family}@{p}" for family in ("gamma", "lambda") for p in (0.05, 0.1, 0.15, 0.2, 0.25)]
_ALL += [kind.value for kind in AUC_KINDS]


def parse_measures(
    text,
    direction: Direction = Direction.RIGHT,
    j_points: int = DEFAULT_GRID_POINTS,
    include_b3: bool = True,
) -> list[SkewMeasure]:
    """Parse a measure list, one comma-separated string or a sequence of
    tokens, each as ``parse_measure`` does.  ``all`` stands for gamma and
    lambda at p = 0.05..0.25, the four AUC kinds and, where ``include_b3``,
    b3.  A measure named twice is kept once, where it first appears."""
    tokens = text.split(",") if isinstance(text, str) else text
    measures = []
    for token in (str(t).strip() for t in tokens):
        if token.lower() == "all":
            names = _ALL + ["b3"] if include_b3 else _ALL
            measures += [parse_measure(name, direction, j_points) for name in names]
        elif token:
            measures.append(parse_measure(token, direction, j_points))
    if not measures:
        raise ValueError("no measures given")
    return list(dict.fromkeys(measures))


def _integer(value, least: int) -> int:
    """``value`` as an int of at least ``least``: an int but not a bool, a
    numpy integer, an integral float such as 1e4, or an integer string; else
    a ValueError."""
    if type(value) is int or isinstance(value, np.integer) or (
        isinstance(value, float) and value.is_integer()
    ) or (isinstance(value, str) and re.fullmatch(r"\s*[+-]?\d+\s*", value)):
        if int(value) >= least:
            return int(value)
    raise ValueError


def _level(value) -> float:
    if 0.0 < float(value) < 1.0:
        return float(value)
    raise ValueError


def _measures(value, direction=Direction.RIGHT, j_points=DEFAULT_GRID_POINTS) -> tuple:
    """A measure list: ``SkewMeasure``s as they are, or tokens, a list or one
    comma-separated string, parsed with ``direction`` and ``j_points`` as
    ``parse_measures`` does without b3; else a TypeError."""
    if isinstance(value, (list, tuple)) and value and all(isinstance(m, SkewMeasure) for m in value):
        return tuple(value)
    if isinstance(value, (str, list, tuple)):
        return tuple(parse_measures(value, direction, j_points, include_b3=False))
    raise TypeError


def _distribution(value):
    """``value`` if it is a ``DistributionSpec`` (so the zoo is loaded), else the zoo's parse of it."""
    zoo = sys.modules.get(f"{__package__}.distributions")
    if zoo is None or not isinstance(value, zoo.DistributionSpec):
        from .distributions import parse_distribution  # the estimate path never loads the zoo
        value = parse_distribution(value)
    return value


_BAD = (TypeError, ValueError)

# Config key -> (reader, what its value must be, the reader's errors that
# mean it is not that, which ``_read`` turns into one message; the dist and
# measures parsers name the bad token).  direction and j parse the measures.
_READERS = {
    "dist": (_distribution, None, ()),
    "n": (lambda v: _integer(v, 10), "an integer of at least 10", _BAD),
    "trials": (lambda v: _integer(v, 1), "a positive integer", _BAD),
    "measures": (_measures, "a list of tokens or a comma-separated string", TypeError),
    "seed": (lambda v: _integer(v, 0), "a non-negative integer", _BAD),
    "level": (_level, "a number strictly inside (0, 1)", _BAD),
    "threads": (lambda v: v if v == "auto" else _integer(v, 1), "a positive integer or 'auto'", _BAD),
    "bandwidth": (
        lambda v: v if isinstance(v, BandwidthRule) else BandwidthRule(None if v == "default" else float(v)),
        "'default' or a number in (0, 0.5)", _BAD,
    ),
    "direction": (lambda v: Direction(v.lower() if isinstance(v, str) else v), "'right' or 'left'", _BAD),
    "j": (lambda v: _integer(v, 2), "an integer of at least 2", _BAD),
}


def _read(key: str, value, *args, name: str | None = None):
    """``value`` as ``key``'s row of ``_READERS`` reads it, given ``args``; a
    value it cannot read is a ValueError "<name>must be <what>, got <value>",
    where ``name`` defaults to "simulation config key '<key>' "."""
    read, expected, bad = _READERS[key]
    try:
        return read(value, *args)
    except bad:
        name = f"simulation config key {key!r} " if name is None else name
        raise ValueError(f"{name}must be {expected}, got {value!r}") from None


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
    of point values (sample estimates and population values) have ``g``
    None: a point value never reads a quantile density.
    """

    probs: np.ndarray
    x: np.ndarray
    g: np.ndarray | None

    @property
    def base_probs(self) -> np.ndarray:
        return self.probs[: self.probs.size // 2]


def grid_for_probs(
    sample: SortedSample, base_probs, rule: BandwidthRule = DEFAULT_BANDWIDTH
) -> QuantileGrid:
    """The grid at the given base probabilities.  For a batch of samples the
    densities are left unchecked (see ``quantile_density_profile``).

    Its quantiles are ``quantile_type8``'s, which also checks the
    probabilities; its densities read the kept density plan of (n,
    probabilities, rule) where there is one (``quantiles._grid_plan``).

    The grid is memoized on the sample (``SortedSample.grids``) by the exact
    base probabilities and the rule, with read-only arrays: a repeated call
    returns the same grid, and one that failed is computed again.
    """
    base = np.asarray(base_probs, dtype=float)
    if np.any(~((base > 0.0) & (base < 0.5))):
        raise ValueError("grid base probabilities must lie in (0, 0.5)")
    key = (base.tobytes(), rule)
    if key not in sample.grids:
        probs = _grid_probs(base)
        x = quantile_type8(sample, probs)
        g = quantile_density_profile(sample, probs, rule)
        sample.grids[key] = QuantileGrid(*map(_read_only, (probs, x, g)))
    return sample.grids[key]


def build_grid(
    sample: SortedSample,
    j_points: int = DEFAULT_GRID_POINTS,
    rule: BandwidthRule = DEFAULT_BANDWIDTH,
) -> QuantileGrid:
    """Build the J-point midpoint grid (all 2J+1 quantiles and densities)."""
    return grid_for_probs(sample, midpoint_probs(j_points), rule)


def population_grid(dist, j_points: int = DEFAULT_GRID_POINTS, base_probs=None) -> QuantileGrid:
    """Exact-quantile grid for a distribution at the base probabilities, by
    default the J-point midpoint rule, without quantile densities."""
    base = midpoint_probs(j_points) if base_probs is None else np.asarray(base_probs, dtype=float)
    probs = _grid_probs(base)
    return QuantileGrid(probs, np.asarray(dist.quantile(probs), dtype=float), None)


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


def point_layout(j: np.ndarray, size: int) -> np.ndarray:
    """Indices into the probabilities [base, 1 - base, 0.5] of a grid with
    ``size`` base probabilities of the point layout p_1..p_P, 0.5,
    1 - p_P..1 - p_1, where p_1 < ... < p_P are the base probabilities at
    ``j``: the layout's probabilities ascend.  Leading axes of ``j`` give one
    layout each."""
    n_pts = j.shape[-1]
    take = np.empty(j.shape[:-1] + (2 * n_pts + 1,), dtype=np.intp)
    take[..., :n_pts] = j
    take[..., n_pts] = 2 * size
    take[..., :n_pts:-1] = size + j
    return take


class PointSet(NamedTuple):
    """One point set of a group of measures and the terms of their curves
    and variances that depend on no data: ``take`` indexes the point layouts
    in the probabilities [base, 1 - base, 0.5] (see ``point_layout``), one
    row per pointwise measure or one row shared by an AUC J; ``p`` holds
    the layouts' probabilities (layouts, 1, points), ``slopes`` the
    ``denominator_slopes`` (3, measures, 1, 1), ``width`` the cell width
    (0.5 / J for each of an AUC's J points, else 1), ``weight`` the
    ``curve_weights`` and ``cells`` the ``bridge_cells`` of ``p``."""

    take: np.ndarray
    p: np.ndarray
    slopes: np.ndarray
    width: float
    weight: np.ndarray
    cells: tuple[np.ndarray, np.ndarray]

    @classmethod
    def of(cls, probs: np.ndarray, take: np.ndarray, measures) -> "PointSet":
        """The point set ``take`` into ``probs`` of ``measures``."""
        p = probs[take][:, None]
        weighted = np.array([m.weighted for m in measures])[:, None, None]
        slopes = np.array([denominator_slopes(m) for m in measures]).T[:, :, None, None]
        width = 0.5 if measures[0].is_auc else 1.0
        return cls(take, p, slopes, width, curve_weights(p, weighted), bridge_cells(p))


def point_sets(measures, base=None) -> tuple[np.ndarray, list[tuple[tuple[int, ...], PointSet]]]:
    """The base probabilities ``base`` (by default the union of the
    measures'), and one group of measures per point set: every pointwise
    measure, each AUC grid size J.

    A group is (its measures' indices, their ``PointSet``).  Raises
    ValueError naming the first measure whose probabilities a given
    ``base`` lacks.

    Without ``base`` the result is memoized by the measure tuple for the
    life of the process, in a bounded cache, with read-only arrays: a
    repeated call returns the same point sets, each with its constants
    built once.  With ``base`` they are built afresh.
    """
    if base is None:
        base, groups = _union_point_sets(tuple(measures))
        return base, list(groups)
    return _point_sets(measures, base)


@lru_cache(maxsize=64)
def _union_point_sets(measures: tuple) -> tuple:
    base, groups = _point_sets(measures, None)
    for _, ps in groups:
        for arr in (ps.take, ps.p, ps.slopes, ps.weight, *ps.cells):
            _read_only(arr)
    return _read_only(base), tuple(groups)


def _point_sets(measures, base):
    """``point_sets`` computed afresh."""
    keys = [m.j_points if m.is_auc else 0 for m in measures]
    points = {k: midpoint_probs(k) for k in dict.fromkeys(keys) if k}
    if base is None:
        ps = [m.p for m in measures if m.is_pointwise]
        union = np.sort(np.concatenate([ps, *points.values()]))
        # not np.unique: its first call imports numpy.ma (16-19 ms of a cold
        # `skewkit estimate`); the first value of each run of equal values
        # gives the same floats
        keep = np.ones(union.size, dtype=bool)
        keep[1:] = union[1:] != union[:-1]
        base, order = union[keep], None
    else:
        order = np.argsort(base, kind="stable")
    grid_probs = _grid_probs(base)
    groups = []
    for key in dict.fromkeys(keys):
        idx = tuple(i for i, k in enumerate(keys) if k == key)
        probs = points[key][None] if key else np.array([[measures[i].p] for i in idx])
        at = np.searchsorted(base, probs, sorter=order)
        if order is not None:  # a given base may lack them; the union cannot
            found = (np.append(base[order], np.nan)[at] == probs).all(axis=-1)
            if not found.all():
                lacking = measures[idx[found.argmin()]]
                raise ValueError(f"{lacking}: the quantile grid lacks its probabilities")
            at = order[at]
        take = point_layout(at, base.size)
        groups.append((idx, PointSet.of(grid_probs, take, [measures[i] for i in idx])))
    return base, groups


def curve_weights(probs: np.ndarray, weighted) -> np.ndarray:
    """The weights w_j of the skewness curve w_j s_j / r_j at probabilities
    ``probs`` on the point layout (see ``point_layout``): p_j where
    ``weighted``, else 1.  ``weighted`` may hold one entry per measure on a
    leading axis."""
    return np.where(weighted, probs[..., : probs.shape[-1] // 2], 1.0)


def curve(x: np.ndarray, slopes) -> tuple[np.ndarray, np.ndarray]:
    """The numerators s_j = x_{1-p_j} + x_{p_j} - 2 x_{0.5} and the
    denominators r_j, given by ``slopes`` (see ``denominator_slopes``), of
    the skewness curve w_j s_j / r_j from quantiles ``x`` on the point
    layout (see ``point_layout``).  The slopes may hold one entry per
    measure on a leading axis."""
    n_pts = x.shape[-1] // 2
    xl, xm, xh = x[..., :n_pts], x[..., n_pts : n_pts + 1], x[..., :n_pts:-1]
    al, ah, am = slopes
    return xh + xl - 2.0 * xm, al * xl + ah * xh + am * xm


def gradient(weight: np.ndarray, s: np.ndarray, r: np.ndarray, slopes) -> np.ndarray:
    """Gradient of the curve mean (1/P) sum_j w_j s_j / r_j with respect to
    the quantiles on the point layout, from the ``curve_weights`` and the
    terms of ``curve``."""
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


def bridge_cells(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of ``bridge_variance``'s form at ascending ``probs``: the
    widths p_a - p_{a-1} (p_0 = 0) and the width 1 - p_P past the last."""
    cells = probs.copy()
    cells[..., 1:] -= probs[..., :-1]
    return cells, 1.0 - probs[..., -1]


def bridge_variance(probs: np.ndarray, v: np.ndarray, cells=None):
    """Var(sum_a v_a B(p_a)) for a standard Brownian bridge B on [0, 1].

    With v_a the ``gradient`` of a curve mean times the quantile density
    g(p_a), this is the curve mean's n Var by the delta method: the quantile
    covariance n Cov(xhat_p, xhat_q) =~ (min(p,q) - pq) g(p) g(q) is that of
    B weighted by g (Shorack & Wellner 1986).  Writing B(p) = W(p) - p W(1),
    it equals int_0^1 (T(t) - m)^2 dt with T(t) = sum_{p_a > t} v_a and
    m = sum_a v_a p_a, so it is non-negative.  ``probs`` ascend on the last
    axis and broadcast against ``v``, which may hold one row of weights per
    sample; the result has one entry per row.  ``cells`` are the
    ``bridge_cells`` of ``probs``, computed here where not given.
    """
    # T(t) is tail[..., a] on the cell (p_{a-1}, p_a] (p_0 = 0) and 0 past p_P.
    # Each sum runs along one contiguous row of its own terms, so its bits do
    # not depend on how many rows or measures share the call.
    tail = np.cumsum(v[..., ::-1], axis=-1)[..., ::-1]
    m = (v * probs).sum(axis=-1)
    dev = tail - m[..., None]
    cells, past_last = bridge_cells(probs) if cells is None else cells
    return _scalar((dev * dev * cells).sum(axis=-1) + m * m * past_last)


def _scalar(value: np.ndarray):
    """A float for one sample, the per-row array for a batch."""
    return float(value) if np.ndim(value) == 0 else value


def _grid_value(grid: QuantileGrid, measure: SkewMeasure, g=None):
    """One measure's value on ``grid``, or with quantile densities ``g`` at
    ``grid.probs`` its curve mean's n Var, shaped as the grid's rows (see
    ``_scalar``); raises the error of its first failing row."""
    _, groups = point_sets([measure], grid.base_probs)
    x, g = np.atleast_2d(grid.x), None if g is None else np.atleast_2d(g)
    [(_, values, nvar, _, [errors], _)] = measure_rows(x, groups, [measure], g)
    if errors:
        raise errors[min(errors)]
    out = values if g is None else nvar
    return _scalar(out[0] if np.ndim(grid.x) > 1 else out[0, 0])


def estimate_pointwise(grid: QuantileGrid, measure: SkewMeasure) -> float:
    """Pointwise skewness estimate at the measure's probability."""
    if not measure.is_pointwise:
        raise ValueError(f"{measure} is not a pointwise measure")
    return _grid_value(grid, measure)


def estimate_auc(grid: QuantileGrid, measure: SkewMeasure) -> float:
    """Area under the skewness curve over p in [0, 0.5], midpoint rule, on a
    grid that holds the measure's J midpoints: (0.5/J) * sum_j curve(p_j);
    weighted kinds integrate p * curve(p)."""
    if not measure.is_auc:
        raise ValueError(f"{measure} is not an AUC measure")
    return _grid_value(grid, measure)


def estimate_b3(sample: SortedSample) -> float:
    """(mean - median) / E|X - median| with the Type-8 median plug-in; raises
    NumericalError where the mean or the MAD over- or underflows."""
    med = quantile_type8(sample, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        mad = float(np.abs(sample.values - med).mean())
        if mad <= 0.0:
            raise DegenerateScaleError([0.5], detail="constant sample has zero MAD")
        value = (float(sample.values.mean()) - med) / mad
    if not math.isfinite(value):
        raise NumericalError("b3: the estimate is not finite at this data's scale; rescale it")
    return value


def group_curve(x: np.ndarray, ps: PointSet):
    """The curves of the measures that share the point set ``ps`` (see
    ``point_sets``) from quantiles ``x`` at [base, 1 - base, 0.5], one row
    of ``x`` per sample, gathered by ``layout_rows``.  Returns the ``curve``
    terms (s, r) and the values (measures, rows), the cell width times the
    curve mean."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s, r = terms = curve(layout_rows(x, ps.take), ps.slopes)
        return terms, ps.width * (ps.weight * (s / r)).mean(axis=-1)


def curve_errors(measures, p: np.ndarray, r: np.ndarray, values: np.ndarray) -> list[dict]:
    """The failures of measures that share one point set, from the layouts'
    probabilities ``p`` (``PointSet.p``), the curve denominators ``r`` and
    the ``values`` of ``group_curve``: for each measure, row -> the DegenerateScaleError naming
    its own p_j where some r_j <= 0, else the NumericalError where its value
    is not finite."""
    bad_r = r <= 0.0
    degenerate = bad_r.any(axis=-1)
    errors = [{} for _ in measures]
    for k, t in zip(*map(list, np.nonzero(degenerate | ~np.isfinite(values)))):
        if degenerate[k, t]:
            errors[k][t] = DegenerateScaleError(p[k % len(p), 0, : r.shape[-1]][bad_r[k, t]])
        else:
            errors[k][t] = NumericalError(
                f"{measures[k]}: the estimate or its standard error is not finite; the"
                " quantiles or their spacings over- or underflow at this scale, so rescale"
                " the data or the distribution"
            )
    return errors


def layout_rows(a: np.ndarray, take: np.ndarray) -> np.ndarray:
    """``a[:, take]`` as a (layouts, rows, points) array whose points lie
    contiguously: each row is summed over its points exactly as that row
    alone would be."""
    return np.take(a, take, axis=1).transpose(1, 0, 2)


def measure_rows(x: np.ndarray, groups, measures, g=None) -> list[tuple]:
    """The measures of each point set in ``groups`` (see ``point_sets``) on
    rows of quantiles ``x`` and, where given, quantile densities ``g`` at
    the probabilities [base, 1 - base, 0.5] that the groups index, one
    vectorised pass per point set.

    Returns per group: its measures' indices; their values and, with ``g``,
    the n Var of their curve means without the cell width (each (measures,
    rows)); the width; their ``curve_errors``, a value whose n Var is not
    finite failing as not finite; and (k, row, the k-th measure's columns of
    ``x``) where a density there is not positive.
    """
    out = []
    for idx, ps in groups:
        group, take = [measures[i] for i in idx], ps.take
        (s, r), values = group_curve(x, ps)
        nvar, checked, bad_g = None, values, []
        if g is not None:
            g_at = layout_rows(g, take)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                nvar = bridge_variance(ps.p, g_at * gradient(ps.weight, s, r, ps.slopes), ps.cells)
            checked = np.where(np.isfinite(nvar), values, np.nan)
            # an AUC group shares one row of ``take`` and of the densities
            bad = (g_at <= 0.0).any(axis=-1).repeat(len(group) // len(take), axis=0)
            bad_g = [(k, t, np.sort(take[k % len(take)])) for k, t in zip(*map(list, np.nonzero(bad)))]
        out.append((idx, values, nvar, ps.width, curve_errors(group, ps.p, r, checked), bad_g))
    return out


def _point_values(quantile, measures) -> list:
    """Each measure's value, or its ``curve_errors`` error, from one call of
    ``quantile`` over the union of the measures' probabilities and one
    ``measure_rows`` call."""
    base, groups = point_sets(measures)
    probs = _grid_probs(base)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.asarray(quantile(probs), dtype=float)[None]
    out = [None] * len(measures)
    for idx, values, _, _, errors, _ in measure_rows(x, groups, measures):
        for i, value, failed in zip(idx, values, errors):
            out[i] = failed[0] if failed else float(value[0])
    return out


def _checked(value):
    """``value``; raises it where it is an error."""
    if isinstance(value, SkewkitError):
        raise value
    return value


def point_values(quantile, measures) -> list[float]:
    """Every pointwise and AUC measure from one call of the quantile function
    ``quantile`` (an array of probabilities in, quantiles out); no quantile
    density is involved.  Raises the error of the first measure that fails
    (see ``curve_errors``)."""
    measures = list(measures)
    if any(m.kind is MeasureKind.B3 for m in measures):
        raise ValueError("b3 is not a function of quantiles alone")
    return [_checked(value) for value in _point_values(quantile, measures)]


def estimate(sample: SortedSample, measure: SkewMeasure) -> float:
    """Point estimate of any measure from a sorted sample: Type-8 quantiles
    only, so ties never fail it unless a denominator vanishes."""
    if measure.kind is MeasureKind.B3:
        return estimate_b3(sample)
    return point_values(lambda probs: quantile_type8(sample, probs), [measure])[0]


def _population_b3(dist) -> float:
    from .distributions import median_absolute_moment  # keeps the zoo out of this import

    try:
        mu = dist.mean()
    except OverflowError:
        raise NumericalError(f"b3: the mean of {dist} overflows") from None
    if not math.isfinite(mu):
        raise ValueError(f"b3 needs a finite mean; {dist} has none")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = (mu - float(dist.quantile(0.5))) / median_absolute_moment(dist)
    if not math.isfinite(value):
        raise NumericalError(f"b3: the population value of {dist} is not finite at this scale")
    return value


def population_measures(dist, measures) -> list[float]:
    """Population values of the measures via exact quantiles: one call of
    ``dist.quantile`` serves every measure but b3 (see ``point_values``).

    AUC kinds reuse the estimation-side midpoint summation so that simulated
    coverage is judged against the same discretization.  Raises the error of
    the first measure that fails.

    The values are memoized on the distribution (``dist.truths``) by the
    measure tuple, for as long as the distribution lives; a call that raises
    is not memoized, and every call returns a new list.
    """
    key = tuple(measures)
    if key not in dist.truths:
        values = iter(_point_values(dist.quantile, [m for m in key if m.kind is not MeasureKind.B3]))
        dist.truths[key] = [
            _checked(_population_b3(dist) if m.kind is MeasureKind.B3 else next(values))
            for m in key
        ]
    return list(dist.truths[key])


def population_measure(dist, measure: SkewMeasure) -> float:
    """Population value of one measure (see ``population_measures``)."""
    return population_measures(dist, [measure])[0]
