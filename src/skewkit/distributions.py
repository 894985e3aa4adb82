"""Analytic distribution zoo: quantiles, densities, quantile densities, sampling.

Every member exposes a closed-form (or special-function) quantile and
density, which makes population skewness values and inversion sampling exact
up to floating point.  All distributions are immutable and safe to share;
the population values memoized on one (``DistributionSpec.truths``) rely on
that.
Methods import scipy.special themselves: only evaluating a distribution loads scipy.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .quantiles import _as_prob
from .skewness import format_exact

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TINY = np.finfo(float).tiny


def _match_shape(value, template):
    # scalar in, scalar out
    if np.ndim(template) == 0:
        return float(np.asarray(value).reshape(-1)[0])
    return value


class DistributionSpec:
    """Base class for the parametric families.

    Subclasses are frozen dataclasses whose fields are the family's
    parameters, in the order its ``repr`` and parser use.  They implement
    ``_quantile``, ``_pdf`` and ``mean`` on float arrays; the
    public wrappers validate domains and preserve scalars.
    """

    name = "distribution"

    def _quantile(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _pdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def quantile(self, p):
        """Return x_p with F(x_p) = p, for p strictly inside (0, 1)."""
        arr = np.atleast_1d(_as_prob(p))
        return _match_shape(self._quantile(arr), p)

    def density(self, x):
        """Density f(x); zero outside the support rather than an error."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        return _match_shape(self._pdf(arr), x)

    def quantile_density(self, p):
        """Quantile density 1/f(x_p), the derivative of the quantile function."""
        arr = np.atleast_1d(_as_prob(p))
        dens = self._pdf(self._quantile(arr))
        if np.any(dens <= 0.0) or not np.all(np.isfinite(dens)):
            raise NumericalError(
                f"density vanished at a quantile of {self}; quantile density undefined"
            )
        return _match_shape(1.0 / dens, p)

    @cached_property
    def truths(self) -> dict:
        """The population values computed for this distribution, by measure
        tuple (see ``skewness.population_measures``).  The memo lives as long
        as the object; the distribution is immutable, so it never goes stale."""
        return {}

    def sample(self, n: int, rng: np.random.Generator | list[np.random.Generator]) -> np.ndarray:
        """Draw n i.i.d. values by inversion of a uniform stream.

        Sampling is inversion-only, so the draws are a deterministic function
        of the generator state.  ``rng`` is one generator, or a list or tuple
        of T generators for a (T, n) array whose row t is bit for bit what
        ``sample(n, rng[t])`` draws: the uniforms fill the rows one generator
        each, and one call of the quantile function inverts them all.
        """
        if n < 1:
            raise ValueError("sample size must be at least 1")
        if isinstance(rng, (list, tuple)):
            u = np.empty((len(rng), n))
            for r, row in zip(rng, u):
                r.random(out=row)
        else:
            u = rng.random(n)
        np.maximum(u, _TINY, out=u)  # keep u strictly inside (0, 1)
        return self._quantile(u)

    def __repr__(self):
        args = ",".join(format_exact(getattr(self, f.name)) for f in fields(self))
        return f"{self.name}({args})"


def _require_positive(**kwargs):
    for label, value in kwargs.items():
        if not (value > 0.0) or not math.isfinite(value):
            raise ValueError(f"{label} must be strictly positive, got {value!r}")


@dataclass(frozen=True, repr=False)
class _LocationScale(DistributionSpec):
    """A family with a finite location ``mu`` and a positive scale ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        _require_positive(sigma=self.sigma)


class Normal(_LocationScale):
    name = "normal"

    def _quantile(self, p):
        from scipy import special
        return self.mu + self.sigma * special.ndtri(p)

    def _pdf(self, x):
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    def mean(self):
        return self.mu


class LogNormal(_LocationScale):
    name = "lognormal"

    def _quantile(self, p):
        from scipy import special
        return np.exp(self.mu + self.sigma * special.ndtri(p))

    def _pdf(self, x):
        out = np.zeros_like(x)
        pos = x > 0.0
        z = (np.log(x[pos]) - self.mu) / self.sigma
        out[pos] = np.exp(-0.5 * z * z) / (x[pos] * self.sigma * _SQRT_2PI)
        return out

    def mean(self):
        return math.exp(self.mu + 0.5 * self.sigma**2)


@dataclass(frozen=True, repr=False)
class Exponential(DistributionSpec):
    rate: float
    name = "exp"

    def __post_init__(self):
        _require_positive(rate=self.rate)

    def _quantile(self, p):
        return -np.log1p(-p) / self.rate

    def _pdf(self, x):
        return np.where(x >= 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def mean(self):
        return 1.0 / self.rate


@dataclass(frozen=True, repr=False)
class ChiSquare(DistributionSpec):
    df: float
    name = "chisq"

    def __post_init__(self):
        # chi-square(df) is 2 * Gamma(df / 2), so df / 2 must not underflow to 0
        _require_positive(df=self.df, **{"df / 2": 0.5 * self.df})

    def _quantile(self, p):
        return 2.0 * Gamma(0.5 * self.df)._quantile(p)

    def _pdf(self, x):
        return 0.5 * Gamma(0.5 * self.df)._pdf(0.5 * x)

    def mean(self):
        return self.df


@dataclass(frozen=True, repr=False)
class ParetoII(DistributionSpec):
    """Lomax form: F(x) = 1 - (1 + x/scale)^(-shape) on x >= 0."""

    scale: float
    shape: float
    name = "pareto2"

    def __post_init__(self):
        _require_positive(scale=self.scale, shape=self.shape)

    def _quantile(self, p):
        return self.scale * np.expm1(-np.log1p(-p) / self.shape)

    def _pdf(self, x):
        out = np.zeros_like(x)
        ok = x >= 0.0
        out[ok] = (self.shape / self.scale) * (1.0 + x[ok] / self.scale) ** (-self.shape - 1.0)
        return out

    def mean(self):
        if self.shape <= 1.0:
            return math.inf
        return self.scale / (self.shape - 1.0)


@dataclass(frozen=True, repr=False)
class Weibull(DistributionSpec):
    shape: float
    name = "weibull"

    def __post_init__(self):
        _require_positive(shape=self.shape)

    def _quantile(self, p):
        return (-np.log1p(-p)) ** (1.0 / self.shape)

    def _pdf(self, x):
        k = self.shape
        out = np.zeros_like(x)
        pos = x > 0.0
        xv = x[pos]
        out[pos] = k * xv ** (k - 1.0) * np.exp(-(xv**k))
        return out

    def mean(self):
        return math.gamma(1.0 + 1.0 / self.shape)


@dataclass(frozen=True, repr=False)
class Gamma(DistributionSpec):
    shape: float
    name = "gamma"

    def __post_init__(self):
        _require_positive(shape=self.shape)

    def _quantile(self, p):
        from scipy import special
        return special.gammaincinv(self.shape, p)

    def _pdf(self, x):
        from scipy import special
        k = self.shape
        out = np.zeros_like(x)
        pos = x > 0.0
        xv = x[pos]
        out[pos] = np.exp((k - 1.0) * np.log(xv) - xv - special.gammaln(k))
        return out

    def mean(self):
        return self.shape


@dataclass(frozen=True, repr=False)
class Beta(DistributionSpec):
    a: float
    b: float
    name = "beta"

    def __post_init__(self):
        _require_positive(a=self.a, b=self.b)

    def _quantile(self, p):
        from scipy import special
        return special.betaincinv(self.a, self.b, p)

    def _pdf(self, x):
        from scipy import special
        out = np.zeros_like(x)
        ok = (x > 0.0) & (x < 1.0)
        xv = x[ok]
        log_pdf = (
            (self.a - 1.0) * np.log(xv)
            + (self.b - 1.0) * np.log1p(-xv)
            - special.betaln(self.a, self.b)
        )
        out[ok] = np.exp(log_pdf)
        return out

    def mean(self):
        return self.a / (self.a + self.b)


@dataclass(frozen=True, repr=False)
class FisherF(DistributionSpec):
    d1: float
    d2: float
    name = "f"

    def __post_init__(self):
        _require_positive(d1=self.d1, d2=self.d2)

    def _quantile(self, p):
        from scipy import special
        # W ~ F(d1, d2)  <=>  d1 W / (d1 W + d2) ~ Beta(d1/2, d2/2)
        y = special.betaincinv(0.5 * self.d1, 0.5 * self.d2, p)
        return self.d2 * y / (self.d1 * (1.0 - y))

    def _pdf(self, x):
        from scipy import special
        d1, d2 = self.d1, self.d2
        out = np.zeros_like(x)
        pos = x > 0.0
        xv = x[pos]
        log_pdf = (
            0.5 * d1 * math.log(d1)
            + 0.5 * d2 * math.log(d2)
            + (0.5 * d1 - 1.0) * np.log(xv)
            - 0.5 * (d1 + d2) * np.log(d2 + d1 * xv)
            - special.betaln(0.5 * d1, 0.5 * d2)
        )
        out[pos] = np.exp(log_pdf)
        return out

    def mean(self):
        if self.d2 <= 2.0:
            return math.inf
        return self.d2 / (self.d2 - 2.0)


def median_absolute_moment(dist: DistributionSpec) -> float:
    """E|X - median|, evaluated as a quantile-function integral.

    Splitting at p = 0.5 turns the absolute value into the upper-half minus
    the lower-half integral of the quantile function, and the two halves sum
    to the mean, so E|X - median| = mean - 2 * (the lower-half integral):
    one integral, over (0, 0.5), where the quantile function is bounded by
    the median.  quad's IntegrationWarning raises NumericalError.
    scipy.integrate is imported here, by its only user, to keep it out of
    the package import.
    """
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            lower, _ = integrate.quad(lambda u: float(dist.quantile(u)), 0.0, 0.5, limit=200)
        except integrate.IntegrationWarning:
            lower = math.nan
    value = dist.mean() - 2.0 * lower
    if not math.isfinite(value) or value <= 0.0:
        raise NumericalError(f"mean absolute deviation about the median diverged for {dist}")
    return value


_FAMILY_PARSERS = {
    cls.name: (cls, len(fields(cls)))
    for cls in (Normal, LogNormal, Exponential, ChiSquare, ParetoII, Weibull, Gamma, Beta, FisherF)
}

_SPEC_RE = re.compile(r"^\s*([a-z0-9_]+)\s*\(\s*([^()]*)\s*\)\s*$")


def parse_distribution(text: str) -> DistributionSpec:
    """Parse strings like ``"lognormal(0,1)"`` or ``"exp(1)"`` (case-insensitive)."""
    m = isinstance(text, str) and _SPEC_RE.match(text.lower())
    if not m:
        raise ValueError(
            f"cannot parse distribution {text!r}; expected e.g. 'lognormal(0,1)'"
        )
    family, raw_args = m.groups()
    if family not in _FAMILY_PARSERS:
        known = ", ".join(sorted(_FAMILY_PARSERS))
        raise ValueError(f"unknown distribution family {family!r}; known: {known}")
    cls, arity = _FAMILY_PARSERS[family]
    parts = [s for s in (piece.strip() for piece in raw_args.split(",")) if s]
    if len(parts) != arity:
        raise ValueError(f"{family} takes {arity} parameter(s), got {len(parts)}")
    try:
        args = [float(s) for s in parts]
    except ValueError as exc:
        raise ValueError(f"non-numeric parameter in {text!r}") from exc
    return cls(*args)
