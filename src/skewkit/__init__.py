"""Quantile-based skewness: point estimates, delta-method intervals, coverage
simulations, and an analytic distribution zoo.

Every public name resolves on first use: reading ``skewkit.interval``
imports ``skewkit.inference`` then, so ``import skewkit`` loads no
submodule, and ``skewkit estimate`` never loads the distribution zoo or the
coverage harness.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines, in the order of ``__all__``
_EXPORTS = {
    "distributions": (
        "Beta", "ChiSquare", "DistributionSpec", "Exponential", "FisherF", "Gamma",
        "LogNormal", "Normal", "ParetoII", "Weibull", "parse_distribution",
    ),
    "errors": (
        "SkewkitError", "DegenerateScaleError", "QuantileDensityError",
        "UnsupportedMeasureError", "NumericalError",
    ),
    "quantiles": ("SortedSample", "BandwidthRule", "quantile_type8", "default_bandwidth"),
    "skewness": (
        "Direction", "MeasureKind", "SkewMeasure", "QuantileGrid", "parse_measure",
        "parse_measures", "midpoint_probs", "build_grid", "estimate_pointwise", "estimate_auc",
        "estimate_b3", "point_values", "population_measure", "population_measures",
    ),
    "inference": (
        "Estimate", "IntervalEstimate", "DifferenceEstimate", "interval", "intervals",
        "difference_interval", "difference_intervals", "point_estimate", "z_quantile",
    ),
    "simulation": ("SimConfig", "CoverageReport", "run_coverage", "coverage_standard_error"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
