import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from skewkit import (
    Beta,
    ChiSquare,
    DegenerateScaleError,
    Direction,
    Exponential,
    FisherF,
    Gamma,
    LogNormal,
    Normal,
    NumericalError,
    ParetoII,
    QuantileDensityError,
    SkewMeasure,
    SortedSample,
    Weibull,
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
    quantile_type8,
)
from skewkit import quantiles, skewness
from skewkit.skewness import (
    AUC_KINDS,
    MeasureKind,
    QuantileGrid,
    estimate,
    grid_for_probs,
    group_curve,
    measure_rows,
    point_sets,
    population_grid,
)
from test_asymptotics import own_columns


def oracle_quantile(name, p):
    """scipy-backed quantile oracle, independent of the package's zoo."""
    p = np.asarray(p, dtype=float)
    return {
        "lognormal": lambda: np.exp(special.ndtri(p)),
        "exp": lambda: -np.log1p(-p),
        "chisq5": lambda: stats.chi2.ppf(p, 5),
        "weibull2": lambda: (-np.log1p(-p)) ** 0.5,
        "beta510": lambda: stats.beta.ppf(p, 5, 10),
    }[name]()


def oracle_auc(name, kind, j_points=100):
    pj = midpoint_probs(j_points)
    hi, lo, med = (oracle_quantile(name, q) for q in (1 - pj, pj, 0.5))
    s = hi + lo - 2 * med
    curve = s / (hi - lo) if "gamma" in kind else s / (med - lo)
    if kind.endswith("star"):
        curve = pj * curve
    return float(curve.mean() * 0.5)


def test_measure_parsing_and_validation():
    m = parse_measure("gamma@0.25")
    assert m.kind is MeasureKind.GAMMA and m.p == 0.25
    assert m.label() == "gamma@0.25"
    assert parse_measure("auc_lambda_star").is_auc
    assert parse_measure("b3").kind is MeasureKind.B3
    for bad in ("gamma", "gamma@0.6", "lambda@0", "auc_gamma@0.1", "b3@0.1", "bowley@0.2"):
        with pytest.raises(ValueError):
            parse_measure(bad)
    # a p that is not a number: the message names the token
    with pytest.raises(ValueError, match=r"^gamma@abc: p must be a number in \(0, 0\.5\)$"):
        parse_measure("gamma@abc")
    # 1 - p rounds to 1 below about 5.6e-17: the message names the measure and why
    for tiny in ("gamma@1e-17", "lambda@1e-300", "gamma_star@5e-17"):
        with pytest.raises(ValueError, match=f"^{tiny}: 1 - p rounds to 1"):
            parse_measure(tiny)
    assert 1.0 - parse_measure("gamma@1e-16").p < 1.0
    with pytest.raises(ValueError):
        SkewMeasure(MeasureKind.AUC_GAMMA, j_points=1)


def test_measure_lists_keep_each_measure_once_and_labels_parse_back():
    standard = [f"{kind}@{p}" for kind in ("gamma", "lambda") for p in (0.05, 0.1, 0.15, 0.2, 0.25)]
    standard += ["auc_gamma", "auc_lambda", "auc_gamma_star", "auc_lambda_star"]
    listed = parse_measures("all, b3, gamma@0.05 ,ALL,gamma@0.1234567,gamma@0.1234568,,")
    assert [m.label() for m in listed] == [*standard, "b3", "gamma@0.1234567", "gamma@0.1234568"]
    assert [parse_measure(m.label()) for m in listed] == listed
    assert parse_measures(["all", "b3"], include_b3=False)[-1].label() == "b3"
    assert [m.label() for m in parse_measures("all", include_b3=False)] == standard
    left = parse_measures("lambda@0.1,all", Direction.LEFT, 20)
    assert {(m.direction, m.j_points) for m in left} == {(Direction.LEFT, 20)}
    assert parse_measure("gamma@0.123456789").label() == "gamma@0.123456789"
    for bad in ("", " , ", "all,bowley@0.2"):
        with pytest.raises(ValueError):
            parse_measures(bad)


def test_midpoint_grid_endpoints():
    pj = midpoint_probs(100)
    assert pj[0] == pytest.approx(0.0025, abs=1e-15)
    assert pj[-1] == pytest.approx(0.4975, abs=1e-15)
    assert np.all(np.diff(pj) > 0)


def test_build_grid_small_example():
    s = SortedSample.from_data(np.arange(1.0, 101.0))
    grid = build_grid(s, j_points=2)
    assert np.allclose(grid.base_probs, [0.125, 0.375])
    assert np.array_equal(grid.probs, [0.125, 0.375, 0.875, 0.625, 0.5])
    assert grid.x.shape == grid.g.shape == (5,)
    assert grid.x[-1] == quantile_type8(s, 0.5)


def test_grid_quantiles_match_direct_calls_bitwise():
    rng = np.random.default_rng(4)
    s = SortedSample.from_data(rng.exponential(size=321))
    grid = build_grid(s, j_points=50)
    for p, val in zip(grid.probs, grid.x):
        assert val == quantile_type8(s, float(p))
    # the grid's quantiles are quantile_type8's, on a batch and on one
    # sample, whether its density plan is built cold or read warm, also
    # where h clamps to 1 (p = 0.5 / n, 1e-9) and to n (their complements)
    for n in (4, 5, 50, 321):
        values = rng.exponential(size=(3, n))
        base = [0.5 / n, 1e-9, 0.3, *midpoint_probs(10)]
        probs = np.concatenate([base, 1.0 - np.array(base), [0.5]])
        h = (n + 1.0 / 3.0) * probs + 1.0 / 3.0
        assert h.min() < 1.0 and h.max() > n
        for plan in ("cold", "warm"):
            # new samples each time, so that their grids are computed afresh
            for sample in (SortedSample.from_rows(values), SortedSample.from_data(values[1])):
                if plan == "cold":
                    quantiles._PLANS.clear()
                x = grid_for_probs(sample, base).x
                assert len(quantiles._PLANS) == 1
                assert x.tobytes() == quantile_type8(sample, probs).tobytes(), (n, plan)
            assert [quantile_type8(sample, float(p)) for p in probs] == list(x), (n, plan)


@pytest.mark.parametrize("rows", [None, 2])
def test_a_grid_refuses_a_base_probability_whose_complement_rounds_to_1(rows):
    # 1 - 1e-17 is 1.0: the grid's quantiles refuse it, on one sample of 200
    # distinct values and on a batch, before any density is computed
    rng = np.random.default_rng(17)
    if rows is None:
        sample = SortedSample.from_data(rng.normal(size=200))
    else:
        sample = SortedSample.from_rows(rng.normal(size=(rows, 200)))
    with pytest.raises(ValueError, match=r"^probability must lie strictly inside \(0, 1\)$"):
        grid_for_probs(sample, [1e-17])


def test_grid_quantiles_monotone_over_key_set():
    rng = np.random.default_rng(41)
    s = SortedSample.from_data(rng.exponential(size=87))
    grid = build_grid(s, j_points=100)
    ordered = grid.x[np.argsort(grid.probs)]
    assert np.all(np.diff(ordered) >= 0.0)


def curve_terms(grid, measure):
    """The ``curve`` terms of one measure on a one-sample grid."""
    base, [(_, ps)] = point_sets([measure])
    (s, r), _ = group_curve(grid.x[None, own_columns(grid, base)], ps)
    return [t[0, 0] for t in (ps.weight, s, r)]


def test_s_r_identities():
    s = SortedSample.from_data([10.0, 20.0, 30.0, 40.0, 50.0])
    grid = grid_for_probs(s, [0.25])
    _, s_p, r1 = curve_terms(grid, parse_measure("gamma@0.25"))
    assert s_p[0] == pytest.approx(0.0, abs=1e-12)  # symmetric sample
    assert r1[0] == pytest.approx(80.0 / 3.0, abs=1e-9)
    rng = np.random.default_rng(5)
    t = SortedSample.from_data(rng.exponential(size=100))
    g = grid_for_probs(t, [0.1, 0.3])
    halves = np.array([
        [curve_terms(g, SkewMeasure(MeasureKind.LAMBDA, p=p, direction=d))[2][0]
         for p in (0.1, 0.3)]
        for d in Direction
    ])
    low, high, median = g.x[:2], g.x[2:4], g.x[-1]
    np.testing.assert_allclose(sum(halves), high - low, rtol=1e-12)
    np.testing.assert_array_equal(halves[0], median - low)
    np.testing.assert_array_equal(halves[1], high - median)
    with pytest.raises(ValueError, match="gamma@0.2: the quantile grid lacks its probabilities"):
        estimate_pointwise(g, parse_measure("gamma@0.2"))



_POINTWISE = st.builds(
    SkewMeasure,
    st.sampled_from([MeasureKind.GAMMA, MeasureKind.LAMBDA, MeasureKind.GAMMA_STAR,
                     MeasureKind.LAMBDA_STAR]),
    # a few p's that an AUC grid shares, or that a second draw repeats
    st.one_of(st.floats(1e-12, 0.5, exclude_max=True), st.sampled_from([0.0025, 0.1, 0.25, 0.375])),
    st.sampled_from(list(Direction)),
)
_AUC = st.builds(
    SkewMeasure, st.sampled_from(AUC_KINDS), j_points=st.sampled_from([2, 3, 4, 40, 100, 101]),
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.one_of(_POINTWISE, _AUC), max_size=12))
@example([SkewMeasure(MeasureKind.GAMMA, p=0.0025), SkewMeasure(MeasureKind.AUC_GAMMA)])
@example([SkewMeasure(MeasureKind.GAMMA, p=0.1), SkewMeasure(MeasureKind.LAMBDA, p=0.1)])
@example([SkewMeasure(k, j_points=j) for k, j in zip(AUC_KINDS, (100, 40, 100, 2))])
@example([])
def test_point_sets_union_is_np_unique_bit_for_bit(measures):
    # point_sets sorts and drops repeats by hand, to keep np.unique (and so
    # numpy.ma) off the estimate path; the floats and their order must match
    union = [m.p for m in measures if m.is_pointwise]
    union += [q for m in measures if m.is_auc for q in midpoint_probs(m.j_points)]
    want = np.unique(np.array(union, dtype=float))
    base, _ = point_sets(measures)
    assert base.dtype == want.dtype and base.tobytes() == want.tobytes()

def test_pointwise_population_values():
    ln = population_grid(LogNormal(0.0, 1.0), base_probs=[0.05, 0.25])
    assert estimate_pointwise(ln, parse_measure("gamma@0.25")) == pytest.approx(0.325, abs=5e-4)
    assert estimate_pointwise(ln, parse_measure("lambda@0.05")) == pytest.approx(4.180, abs=5e-4)
    # weighted variants scale the plain ones by p
    g = estimate_pointwise(ln, parse_measure("gamma@0.25"))
    gs = estimate_pointwise(ln, parse_measure("gamma_star@0.25"))
    assert gs == pytest.approx(0.25 * g, rel=1e-15)


def test_symmetric_sample_gives_zero_everywhere():
    s = SortedSample.from_data([1.0, 2.0, 3.0, 4.0, 5.0])
    grid = grid_for_probs(s, [0.25])
    for tok in ("gamma@0.25", "lambda@0.25", "gamma_star@0.25", "lambda_star@0.25"):
        assert estimate_pointwise(grid, parse_measure(tok)) == 0.0
    assert estimate_b3(s) == 0.0


def test_auc_population_values_match_reference_and_oracle():
    # AUC_gamma / AUC_gamma* / AUC_lambda* reproduce the frozen reference
    # values at J=100 to +-0.002; AUC_lambda is checked against the
    # independent oracle (the acceptance suite covers the full set).
    ln = LogNormal(0.0, 1.0)
    assert population_measure(ln, parse_measure("auc_gamma")) == pytest.approx(0.175, abs=2e-3)
    assert population_measure(ln, parse_measure("auc_lambda_star")) == pytest.approx(0.092, abs=2e-3)
    assert population_measure(ln, parse_measure("auc_gamma_star")) == pytest.approx(0.028, abs=2e-3)
    assert population_measure(ln, parse_measure("auc_lambda")) == pytest.approx(
        oracle_auc("lognormal", "auc_lambda"), abs=1e-10
    )
    for tok in ("auc_gamma", "auc_lambda", "auc_gamma_star", "auc_lambda_star"):
        assert population_measure(Normal(0.0, 2.0), parse_measure(tok)) == pytest.approx(
            0.0, abs=1e-12
        )


def test_auc_grid_resolution_must_match():
    rng = np.random.default_rng(6)
    s = SortedSample.from_data(rng.exponential(size=200))
    grid = build_grid(s, j_points=50)
    with pytest.raises(ValueError):
        estimate_auc(grid, parse_measure("auc_gamma"))  # J defaults to 100


def test_b3_hand_examples():
    assert estimate_b3(SortedSample.from_data([1, 2, 3, 4, 5])) == 0.0
    # mean 1, Type-8 median 0, MAD about 0 is 1 -> maximal right skew
    assert estimate_b3(SortedSample.from_data([0.0, 0.0, 0.0, 4.0])) == 1.0


def test_b3_million_draw_exponential():
    # E|X - ln 2| = ln 2, so b3 -> (1 - ln 2)/ln 2
    rng = np.random.default_rng(55)
    s = SortedSample.from_data(rng.exponential(size=1_000_000))
    expected = (1.0 - math.log(2.0)) / math.log(2.0)
    assert estimate_b3(s) == pytest.approx(expected, rel=0.01)


def test_b3_matches_ratio_of_midpoint_sums():
    # population b3 equals lim (1/J) sum S_p / (1/J) sum R_1p
    for dist in (LogNormal(0.0, 1.0), Exponential(1.0), ChiSquare(5.0), Beta(2.0, 5.0)):
        grid = population_grid(dist, j_points=1000)
        low, high, median = grid.x[:1000], grid.x[1000:2000], grid.x[-1]
        ratio = (high + low - 2.0 * median).mean() / (high - low).mean()
        b3 = population_measure(dist, parse_measure("b3"))
        assert ratio == pytest.approx(b3, abs=1e-3)


def test_gamma_family_bounds():
    rng = np.random.default_rng(77)
    for _ in range(25):
        s = SortedSample.from_data(rng.exponential(size=int(rng.integers(20, 400))))
        grid = build_grid(s, j_points=100)
        gammas = np.array([
            estimate_pointwise(grid, SkewMeasure(MeasureKind.GAMMA, p=p)) for p in grid.base_probs
        ])
        assert np.all(np.abs(gammas) <= 1.0 + 1e-12)
        auc = estimate_auc(grid, parse_measure("auc_gamma"))
        assert abs(auc) <= 0.5 + 1e-12  # integral of a [-1, 1] curve over [0, 0.5]


ALL_MEASURES = [
    "gamma@0.1", "lambda@0.1", "gamma_star@0.1", "lambda_star@0.1",
    "auc_gamma", "auc_lambda", "auc_gamma_star", "auc_lambda_star", "b3",
]


def test_p1_affine_invariance():
    rng = np.random.default_rng(88)
    s = SortedSample.from_data(rng.lognormal(size=250))
    t = SortedSample.from_data(s.values * 2.5 - 7.0)
    for tok in ALL_MEASURES:
        m = parse_measure(tok)
        a = estimate(s, m)
        b = estimate(t, m)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12), tok


def test_p3_sign_flip():
    rng = np.random.default_rng(89)
    s = SortedSample.from_data(rng.lognormal(size=250))
    neg = SortedSample.from_data(-s.values)
    # gamma family: plain negation flips the sign
    for tok in ("gamma@0.1", "gamma_star@0.1", "auc_gamma", "auc_gamma_star", "b3"):
        m = parse_measure(tok)
        assert estimate(neg, m) == pytest.approx(-estimate(s, m), rel=1e-12, abs=1e-14), tok
    # lambda family: negation plus direction swap flips the sign
    for tok in ("lambda@0.1", "lambda_star@0.1", "auc_lambda", "auc_lambda_star"):
        right = parse_measure(tok)
        left = parse_measure(tok, direction=Direction.LEFT)
        assert estimate(neg, left) == pytest.approx(-estimate(s, right), rel=1e-12), tok


DISCRETIZATION_ZOO = [
    Normal(2.0, 1.0),
    LogNormal(0.0, 1.0),
    LogNormal(1.0, 2.0),
    Exponential(1.0),
    ChiSquare(2.0),
    ChiSquare(5.0),
    ChiSquare(25.0),
    ParetoII(1.0, 4.0),
    ParetoII(1.0, 7.0),
    Weibull(0.5),
    Weibull(2.0),
    Weibull(10.0),
    Gamma(2.0),
    Gamma(5.0),
    Beta(2.0, 5.0),
    Beta(5.0, 10.0),
    FisherF(1.0, 6.0),
    FisherF(2.0, 8.0),
]

LIGHT_TAILED = [
    Normal(2.0, 1.0), ChiSquare(25.0), Weibull(2.0), Weibull(10.0),
    Gamma(10.0), Beta(2.0, 5.0), Beta(5.0, 10.0),
]


@pytest.mark.parametrize("dist", DISCRETIZATION_ZOO, ids=repr)
def test_auc_discretization_bounded_gamma_family(dist):
    for tok in ("auc_gamma", "auc_gamma_star", "auc_lambda_star"):
        m = parse_measure(tok)
        coarse = population_measure(dist, m)
        fine = population_measure(dist, parse_measure(tok, j_points=1000))
        assert abs(coarse - fine) <= 0.002, tok


@pytest.mark.parametrize("dist", LIGHT_TAILED, ids=repr)
def test_auc_discretization_bounded_lambda_light_tails(dist):
    # The unweighted lambda curve is unbounded as p -> 0, so the 0.002
    # discretization bound can only hold where the tail is light; heavy-tail
    # members (LN, Pareto, Exp, F) genuinely differ by more between J=100
    # and J=1000 (see the decisions ledger).
    m = parse_measure("auc_lambda")
    coarse = population_measure(dist, m)
    fine = population_measure(dist, parse_measure("auc_lambda", j_points=1000))
    assert abs(coarse - fine) <= 0.002


def test_degenerate_scale_pointwise():
    # X_15..X_26 share one value, so the p=0.3..0.5 quantile range is flat:
    # r2 collapses while every kernel window still sees positive spacings.
    values = np.concatenate([np.arange(1.0, 15.0), np.full(12, 20.0), np.arange(21.0, 45.0)])
    s = SortedSample.from_data(values)
    grid = grid_for_probs(s, [0.3])
    with pytest.raises(DegenerateScaleError) as info:
        estimate_pointwise(grid, parse_measure("lambda@0.3"))
    assert info.value.probabilities == (0.3,)


def test_b3_degenerate_on_constant_sample():
    with pytest.raises(DegenerateScaleError):
        estimate_b3(SortedSample.from_data([2.0, 2.0, 2.0, 2.0]))


def test_grid_build_reports_failing_probability():
    values = np.concatenate([np.full(50, 5.0), [6.0, 7.0, 8.0]])
    s = SortedSample.from_data(values)
    with pytest.raises(QuantileDensityError) as info:
        grid_for_probs(s, [0.1])
    assert 0.1 in info.value.probabilities
    assert (info.value.distinct, info.value.n) == (4, 53)
    assert "4 distinct values among n = 53" in str(info.value)


def test_density_error_message_names_the_count_the_first_few_and_the_last():
    one = QuantileDensityError([0.25], [0.1], 4, 53)
    assert "estimate at (p=0.25, b=0.1) (1 probability): the sample has 4" in str(one)
    four = QuantileDensityError([0.1, 0.2, 0.3, 0.4], [1, 2, 3, 4], 4, 53)
    assert "(p=0.3, b=3), (p=0.4, b=4) (4 probabilities)" in str(four)
    five = QuantileDensityError([0.1, 0.2, 0.3, 0.4, 0.5], [1, 2, 3, 4, 5], 4, 53)
    assert (
        "at (p=0.1, b=1), (p=0.2, b=2), (p=0.3, b=3), ..., (p=0.5, b=5) (5 probabilities):"
        in str(five)
    )
    assert five.probabilities == (0.1, 0.2, 0.3, 0.4, 0.5) and five.bandwidths == (1, 2, 3, 4, 5)


def test_point_values_and_intervals_reach_the_one_curve_algebra(monkeypatch):
    from skewkit import asymptotics, inference, skewness

    def refuse(*args, **kwargs):
        raise RuntimeError("curve algebra reached")

    s = SortedSample.from_data(np.random.default_rng(8).lognormal(size=300))
    dist = LogNormal(0.0, 1.0)
    auc = parse_measure("auc_lambda_star", j_points=20)
    point, grid = grid_for_probs(s, [0.1]), build_grid(s, j_points=20)
    calls = [
        lambda: estimate_auc(population_grid(dist, j_points=20), auc),
        lambda: estimate_pointwise(point, parse_measure("lambda@0.1")),
        lambda: asymptotics.sigma1_sq(asymptotics.XiKernel.from_grid(point), point, 0.1),
        lambda: asymptotics.sigma2_sq(asymptotics.XiKernel.from_grid(point), point, 0.1),
        lambda: asymptotics.auc_variance(asymptotics.XiKernel.from_grid(grid), grid, "lambda"),
    ]
    for m in (parse_measure("gamma@0.1"), auc):
        calls += [
            lambda m=m: inference.point_estimate(s, m),
            lambda m=m: population_measure(dist, m),
            lambda m=m: inference.interval(s, m),
            lambda m=m: inference.interval_rows(s.batch, [m]),
        ]
    # the curve algebra, and the one evaluator every value and variance runs
    for target in ("curve", "measure_rows"):
        with monkeypatch.context() as patch:
            patch.setattr(skewness, target, refuse)
            for call in calls:
                with pytest.raises(RuntimeError, match="curve algebra reached"):
                    call()


ONE_PER_FAMILY = [
    Normal(2.0, 1.0), LogNormal(0.0, 1.0), Exponential(1.0), ChiSquare(5.0), ParetoII(1.0, 4.0),
    Weibull(2.0), Gamma(2.0), Beta(2.0, 5.0), FisherF(2.0, 8.0),
]


@pytest.mark.parametrize("dist", ONE_PER_FAMILY, ids=repr)
def test_population_measure_reads_no_quantile_density(dist, monkeypatch):
    dist = replace(dist)  # a fresh object: a shared one may hold memoized truths
    measures = [SkewMeasure(MeasureKind.B3)] + [
        parse_measure(tok, direction=d)
        for d in Direction
        for tok in ("gamma@0.1", "lambda@0.25", "gamma_star@0.05", "lambda_star@0.2",
                    "auc_gamma", "auc_lambda", "auc_gamma_star", "auc_lambda_star")
    ]

    def grid_with_densities(base):
        # the population grid as it was built with quantile densities
        probs = np.concatenate([base, 1.0 - base, [0.5]])
        return QuantileGrid(probs, dist.quantile(probs), dist.quantile_density(probs))

    want = [population_measure(dist, measures[0])] + [
        estimate_auc(grid_with_densities(midpoint_probs(m.j_points)), m) if m.is_auc
        else estimate_pointwise(grid_with_densities(np.array([m.p])), m)
        for m in measures[1:]
    ]

    def no_density(self, p):
        raise AssertionError("population_measure evaluated a quantile density")

    monkeypatch.setattr(type(dist), "quantile_density", no_density)
    assert [population_measure(dist, m) for m in measures] == want


TRUTH_TOKENS = (
    [f"gamma@{p}" for p in (0.01, 0.05, 0.1, 0.25, 0.45)]
    + [f"lambda@{p}" for p in (0.01, 0.05, 0.1, 0.25, 0.45)]
    + ["gamma_star@0.1", "gamma_star@0.45", "lambda_star@0.01", "lambda_star@0.25",
       "auc_gamma", "auc_lambda", "auc_gamma_star", "auc_lambda_star", "b3"]
)


@pytest.mark.parametrize("dist", ONE_PER_FAMILY, ids=repr)
def test_population_measures_equal_the_per_measure_loop_bit_for_bit(dist):
    for direction in Direction:
        for j in (2, 7, 100):
            measures = [parse_measure(t, direction=direction, j_points=j) for t in TRUTH_TOKENS]
            # each measure on its own population grid, as the truths were computed
            # before they shared one
            own = [
                population_measure(dist, m) if m.kind is MeasureKind.B3
                else estimate_auc(population_grid(dist, j_points=j), m) if m.is_auc
                else estimate_pointwise(population_grid(dist, base_probs=[m.p]), m)
                for m in measures
            ]
            assert population_measures(dist, measures) == own
            assert [population_measure(dist, m) for m in measures] == own


def test_repeated_point_sets_share_read_only_arrays():
    measures = [parse_measure(t, j_points=j) for t in TRUTH_TOKENS[:-1] for j in (7, 100)]
    base, groups = point_sets(measures)
    again, again_groups = point_sets(list(measures))
    assert again is base
    assert all(a is b for (_, a), (_, b) in zip(again_groups, groups))
    for arr in [base] + [arr for _, ps in groups for arr in point_set_arrays(ps)]:
        with pytest.raises(ValueError):
            arr[0] = arr[-1]
    # an uncached build makes new arrays with the same bits
    fresh_base, fresh = skewness._point_sets.__wrapped__(tuple(measures))
    assert fresh_base is not base and fresh_base.tobytes() == base.tobytes()
    for (idx, ps), (fresh_idx, fresh_ps) in zip(groups, fresh, strict=True):
        assert idx == fresh_idx and (ps.width, ps.take.dtype) == (fresh_ps.width, fresh_ps.take.dtype)
        for arr, fresh_arr in zip(point_set_arrays(ps), point_set_arrays(fresh_ps)):
            assert arr is not fresh_arr and arr.tobytes() == fresh_arr.tobytes()


def point_set_arrays(ps):
    return [ps.take, ps.p, ps.slopes, ps.weight, *ps.cells]


def test_memoized_point_set_constants_give_the_uncached_bits():
    measures = [
        parse_measure(t, direction=d, j_points=j)
        for t in TRUTH_TOKENS[:-1] for d in Direction for j in (7, 100)
    ]
    rng = np.random.default_rng(23)
    # lognormal rows, and tied rows whose densities and denominators fail
    data = np.vstack([rng.lognormal(size=(4, 60)), rng.poisson(0.7, size=(3, 60))])
    batch = SortedSample.from_rows(data)
    base, memo = point_sets(measures)
    _, uncached = skewness._point_sets.__wrapped__(tuple(measures))
    assert not any(arr.flags.writeable for _, ps in memo for arr in point_set_arrays(ps))
    grid = grid_for_probs(batch, base)
    failures = 0
    for g in (None, grid.g):
        got = measure_rows(grid.x, memo, measures, g)
        want = measure_rows(grid.x, uncached, measures, g)
        for (idx, values, nvar, width, errors, bad_g), w in zip(got, want, strict=True):
            assert (idx, width) == (w[0], w[3])
            assert values.tobytes() == w[1].tobytes()
            assert nvar is w[2] is None or nvar.tobytes() == w[2].tobytes()
            assert [{t: str(e) for t, e in d.items()} for d in errors] == [
                {t: str(e) for t, e in d.items()} for d in w[4]
            ]
            assert [(k, t, cols.tolist()) for k, t, cols in bad_g] == [
                (k, t, cols.tolist()) for k, t, cols in w[5]
            ]
            failures += sum(map(len, errors)) + len(bad_g)
    assert failures


def test_memoized_truths_are_a_new_list_each_call():
    measures = [parse_measure(t) for t in TRUTH_TOKENS]
    warm = LogNormal(0.0, 1.0)
    first = population_measures(warm, measures)
    again = population_measures(warm, measures)
    assert again == first and again is not first
    again[0] = math.nan
    assert population_measures(warm, measures) == first
    # and equal to a cold, equal distribution's, bit for bit
    assert population_measures(LogNormal(0.0, 1.0), measures) == first
    assert population_measures(warm, tuple(measures)) == first


def test_a_failing_truth_raises_on_every_call_and_is_not_memoized():
    dist = ParetoII(1.0, 0.5)  # no finite mean, so no b3
    measures = [parse_measure("gamma@0.25"), SkewMeasure(MeasureKind.B3)]
    for _ in range(2):
        with pytest.raises(ValueError, match="b3 needs a finite mean"):
            population_measures(dist, measures)
    assert dist.truths == {}
    assert population_measures(dist, measures[:1]) == [population_measure(ParetoII(1.0, 0.5), measures[0])]


def test_point_values_raise_the_first_failing_measure_alone():
    def zero(probs):
        return np.zeros_like(probs)

    measures = [parse_measure("auc_lambda", j_points=7), parse_measure("gamma@0.1"),
                parse_measure("lambda_star@0.25", direction=Direction.LEFT)]
    for first in range(len(measures)):
        order = measures[first:] + measures[:first]
        with pytest.raises(DegenerateScaleError) as alone:
            point_values(zero, order[:1])
        with pytest.raises(DegenerateScaleError) as grouped:
            point_values(zero, order)
        assert str(grouped.value) == str(alone.value)
        assert grouped.value.probabilities == alone.value.probabilities
    assert alone.value.probabilities == (0.25,)


def test_point_values_that_are_not_finite_raise_numerical_error():
    def overflowed(probs):
        return np.where(probs < 0.01, 1.0, np.inf)

    measures = [parse_measure("gamma@0.25"), parse_measure("auc_gamma", j_points=7)]
    for m in measures:
        with pytest.raises(NumericalError, match=f"^{m}: the estimate or its standard error"):
            point_values(overflowed, [m])
    with pytest.raises(NumericalError, match="^gamma@0.25: "):
        point_values(overflowed, measures)


def test_point_values_call_the_quantile_function_once():
    s = SortedSample.from_data(np.random.default_rng(12).lognormal(size=400))
    measures = [parse_measure(t, j_points=j) for t in TRUTH_TOKENS[:-1] for j in (7, 100)]
    calls = []

    def type8(probs):
        calls.append(probs)
        return quantile_type8(s, probs)

    assert point_values(type8, measures) == [estimate(s, m) for m in measures]
    assert len(calls) == 1
    with pytest.raises(ValueError, match="b3"):
        point_values(type8, [parse_measure("b3")])
