import math

import numpy as np
import pytest
from scipy import special

from skewkit import (
    Beta,
    ChiSquare,
    Exponential,
    FisherF,
    Gamma,
    LogNormal,
    Normal,
    ParetoII,
    Weibull,
    parse_distribution,
    parse_measure,
    population_measure,
)
from skewkit.distributions import median_absolute_moment

ZOO = [
    Normal(2.0, 1.0),
    LogNormal(0.0, 1.0),
    LogNormal(1.0, 2.0),
    Exponential(1.0),
    ChiSquare(5.0),
    ParetoII(1.0, 7.0),
    Weibull(2.0),
    Gamma(5.0),
    Beta(2.0, 5.0),
    FisherF(2.0, 8.0),
]

NUMERIC_INVERSION = [ChiSquare(5.0), Gamma(5.0), Beta(2.0, 5.0), FisherF(2.0, 8.0)]


@pytest.mark.parametrize("dist", ZOO, ids=repr)
def test_quantile_inverts_cdf_on_grid(dist):
    p = np.arange(0.01, 1.0, 0.01)
    assert np.max(np.abs(dist.cdf(dist.quantile(p)) - p)) <= 1e-8


@pytest.mark.parametrize("dist", NUMERIC_INVERSION, ids=repr)
def test_numeric_inversion_tolerance(dist):
    p = np.arange(0.001, 1.0, 0.001)
    assert np.max(np.abs(dist.cdf(dist.quantile(p)) - p)) <= 1e-10


def test_quantile_closed_forms():
    assert Exponential(1.0).quantile(0.5) == pytest.approx(math.log(2.0), abs=1e-12)
    # standard-normal 0.75 quantile from scipy as the high-precision oracle
    assert LogNormal(0.0, 1.0).quantile(0.75) == pytest.approx(
        math.exp(float(special.ndtri(0.75))), rel=1e-12
    )
    assert LogNormal(0.0, 1.0).quantile(0.75) == pytest.approx(1.963031, abs=1e-6)
    assert Normal(2.0, 1.0).quantile(0.5) == pytest.approx(2.0, abs=1e-12)


def test_quantile_rejects_bad_probability():
    d = Exponential(1.0)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            d.quantile(bad)


def test_density_examples():
    assert Exponential(1.0).density(0.0) == pytest.approx(1.0)
    assert Normal(0.0, 1.0).density(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-6)
    # chi-square with 2 dof is Exponential(rate 1/2)
    assert ChiSquare(2.0).density(2.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("dist", ZOO, ids=repr)
def test_density_outside_support_is_zero(dist):
    if isinstance(dist, Normal):
        pytest.skip("full support")
    assert dist.density(-1.0) == 0.0
    if isinstance(dist, Beta):
        assert dist.density(1.5) == 0.0


@pytest.mark.parametrize("dist", ZOO, ids=repr)
def test_density_integrates_to_one(dist):
    # integrate f over quantile range [q(1e-6), q(1-1e-6)]
    from scipy import integrate

    lo, hi = dist.quantile(1e-6), dist.quantile(1.0 - 1e-6)
    mass, _ = integrate.quad(lambda x: float(dist.density(x)), lo, hi, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_quantile_density_examples():
    assert Exponential(1.0).quantile_density(0.5) == pytest.approx(2.0, rel=1e-12)
    assert Normal(0.0, 1.0).quantile_density(0.5) == pytest.approx(
        math.sqrt(2 * math.pi), rel=1e-12
    )
    # 1/f at the p=0.25 quantile, cross-checked against the density directly
    d = LogNormal(0.0, 1.0)
    x = d.quantile(0.25)
    assert d.quantile_density(0.25) == pytest.approx(1.0 / d.density(x), rel=1e-12)


@pytest.mark.parametrize("dist", ZOO, ids=repr)
def test_quantile_density_matches_finite_difference(dist):
    h = 1e-5
    for p in (0.05, 0.25, 0.5, 0.75, 0.95):
        fd = (dist.quantile(p + h) - dist.quantile(p - h)) / (2 * h)
        assert dist.quantile_density(p) == pytest.approx(fd, rel=1e-3)


def test_sampling_is_deterministic_and_inverts_uniforms():
    d = Exponential(1.0)
    a = d.sample(5, np.random.default_rng(99))
    b = d.sample(5, np.random.default_rng(99))
    assert np.array_equal(a, b)
    u = np.random.default_rng(99).random(5)
    assert np.allclose(a, -np.log1p(-u), rtol=1e-15)


def test_sampling_mean_within_clt_bound():
    x = Normal(2.0, 1.0).sample(100_000, np.random.default_rng(7))
    assert abs(x.mean() - 2.0) < 0.02


def test_exponential_rate_invariance():
    measures = [
        parse_measure("gamma@0.1"),
        parse_measure("lambda@0.25"),
        parse_measure("auc_gamma"),
        parse_measure("auc_lambda_star"),
    ]
    for m in measures:
        vals = [population_measure(Exponential(rate), m) for rate in (0.5, 1.0, 2.0)]
        assert max(vals) - min(vals) <= 1e-12


def test_chisq2_equals_halfrate_exponential():
    for tok in ("gamma@0.05", "lambda@0.2", "auc_gamma", "auc_lambda", "b3"):
        m = parse_measure(tok)
        a = population_measure(ChiSquare(2.0), m)
        b = population_measure(Exponential(0.5), m)
        assert a == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("dist", [Normal(2.0, 1.0), Beta(3.0, 3.0)], ids=repr)
def test_symmetric_members_have_zero_skew(dist):
    for tok in ("gamma@0.1", "lambda@0.1", "auc_gamma", "auc_lambda",
                "auc_gamma_star", "auc_lambda_star", "b3"):
        assert population_measure(dist, parse_measure(tok)) == pytest.approx(0.0, abs=1e-10)


def test_population_measure_table_values():
    ln = LogNormal(0.0, 1.0)
    assert population_measure(ln, parse_measure("gamma@0.25")) == pytest.approx(0.325, abs=5e-4)
    assert population_measure(ln, parse_measure("lambda@0.05")) == pytest.approx(4.180, abs=5e-4)
    assert population_measure(Exponential(3.0), parse_measure("lambda@0.25")) == pytest.approx(
        0.710, abs=5e-4
    )
    assert population_measure(Normal(2.0, 1.0), parse_measure("auc_gamma")) == pytest.approx(0.0, abs=1e-12)


def test_b3_needs_finite_mean():
    with pytest.raises(ValueError):
        population_measure(ParetoII(1.0, 0.8), parse_measure("b3"))


def test_median_absolute_moment_exponential():
    # E|X - ln 2| = ln 2 for the unit exponential
    assert median_absolute_moment(Exponential(1.0)) == pytest.approx(math.log(2.0), rel=1e-8)


@pytest.mark.parametrize("sigma", [1.0, 2.0, 3.0, 5.0, 10.0])
def test_population_b3_matches_the_lognormal_closed_form(sigma):
    # mean e^{s^2/2}, median 1, E|X - 1| = e^{s^2/2} (1 - 2 Phi(-s))
    mean = math.exp(0.5 * sigma**2)
    want = (mean - 1.0) / (mean * (1.0 - 2.0 * special.ndtr(-sigma)))
    got = population_measure(LogNormal(0.0, sigma), parse_measure("b3"))
    assert got == pytest.approx(want, rel=1e-9)


def test_means():
    assert LogNormal(0.0, 1.0).mean() == pytest.approx(math.exp(0.5), rel=1e-12)
    assert FisherF(2.0, 8.0).mean() == pytest.approx(8.0 / 6.0, rel=1e-12)
    assert ParetoII(1.0, 4.0).mean() == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert math.isinf(FisherF(2.0, 2.0).mean())


def test_parse_distribution_round_trip():
    for text, expect in [
        ("lognormal(0,1)", LogNormal(0.0, 1.0)),
        ("exp(1)", Exponential(1.0)),
        ("chisq(5)", ChiSquare(5.0)),
        ("pareto2(1,7)", ParetoII(1.0, 7.0)),
        ("weibull(2)", Weibull(2.0)),
        ("gamma(5)", Gamma(5.0)),
        ("beta(2,5)", Beta(2.0, 5.0)),
        ("f(2,8)", FisherF(2.0, 8.0)),
        ("Normal(2, 1)", Normal(2.0, 1.0)),
    ]:
        assert parse_distribution(text) == expect
    assert parse_distribution(repr(LogNormal(0.0, 1.0))) == LogNormal(0.0, 1.0)


def test_repr_equality_and_hash_follow_the_parameters():
    # reports echo repr(dist), so its format is pinned byte for byte: %g
    # where that reads back exactly, else the shortest repr
    dists = [
        Normal(-1e-5, 3e7), LogNormal(0.0, 1.0), Exponential(1.5), ChiSquare(5.0),
        ParetoII(1.0, 3.5), Weibull(2.0), Gamma(0.7), Beta(0.25, 1.0 / 3.0), FisherF(5.0, 12.0),
    ]
    assert [repr(d) for d in dists] == [
        "normal(-1e-05,3e+07)", "lognormal(0,1)", "exp(1.5)", "chisq(5)", "pareto2(1,3.5)",
        "weibull(2)", "gamma(0.7)", "beta(0.25,0.3333333333333333)", "f(5,12)",
    ]
    assert Normal(0, 1) == Normal(0.0, 1.0) and hash(Normal(0, 1)) == hash(Normal(0.0, 1.0))
    assert Normal(0.0, 1.0) != LogNormal(0.0, 1.0)
    assert Weibull(2.0) != Gamma(2.0) and Weibull(2.0) != Weibull(3.0)
    assert [parse_distribution(repr(d)) for d in dists] == dists


def test_parse_distribution_errors():
    for bad in ("cauchy(0,1)", "normal(2)", "exp()", "exp(a)", "exp"):
        with pytest.raises(ValueError):
            parse_distribution(bad)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)
    with pytest.raises(ValueError):
        Beta(1.0, -2.0)
    with pytest.raises(ValueError):
        Exponential(0.0)
