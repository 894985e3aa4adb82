"""Quantile-based skewness: point estimates, delta-method intervals, coverage
simulations, and an analytic distribution zoo."""

from .distributions import (
    Beta,
    ChiSquare,
    DistributionSpec,
    Exponential,
    FisherF,
    Gamma,
    LogNormal,
    Normal,
    ParetoII,
    Weibull,
    parse_distribution,
)
from .errors import (
    DegenerateScaleError,
    NumericalError,
    QuantileDensityError,
    SkewkitError,
    UnsupportedMeasureError,
)
from .inference import (
    DifferenceEstimate,
    Estimate,
    IntervalEstimate,
    difference_interval,
    difference_intervals,
    interval,
    intervals,
    point_estimate,
    z_quantile,
)
from .quantiles import (
    BandwidthRule,
    SortedSample,
    default_bandwidth,
    quantile_type8,
)
from .simulation import CoverageReport, SimConfig, coverage_standard_error, run_coverage
from .skewness import (
    Direction,
    MeasureKind,
    QuantileGrid,
    SkewMeasure,
    build_grid,
    estimate_auc,
    estimate_b3,
    estimate_pointwise,
    midpoint_probs,
    parse_measure,
    parse_measures,
    point_values,
    population_measure,
    population_measures,
)

__version__ = "0.1.0"

__all__ = [
    "Beta", "ChiSquare", "DistributionSpec", "Exponential", "FisherF", "Gamma",
    "LogNormal", "Normal", "ParetoII", "Weibull", "parse_distribution",
    "SkewkitError", "DegenerateScaleError", "QuantileDensityError",
    "UnsupportedMeasureError", "NumericalError",
    "SortedSample", "BandwidthRule", "quantile_type8", "default_bandwidth",
    "Direction", "MeasureKind", "SkewMeasure", "QuantileGrid", "parse_measure",
    "parse_measures", "midpoint_probs", "build_grid", "estimate_pointwise", "estimate_auc",
    "estimate_b3", "point_values", "population_measure", "population_measures",
    "Estimate", "IntervalEstimate", "DifferenceEstimate", "interval",
    "intervals", "difference_interval", "difference_intervals", "point_estimate", "z_quantile",
    "SimConfig", "CoverageReport", "run_coverage", "coverage_standard_error",
    "__version__",
]
