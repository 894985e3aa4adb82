import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from skewkit import (
    BandwidthRule,
    DegenerateScaleError,
    Direction,
    LogNormal,
    NumericalError,
    QuantileDensityError,
    SortedSample,
    UnsupportedMeasureError,
    difference_interval,
    difference_intervals,
    interval,
    intervals,
    parse_measure,
    point_estimate,
    population_measure,
    z_quantile,
)
from skewkit import quantiles, skewness
from skewkit.asymptotics import XiKernel, auc_variance, sigma1_sq, sigma2_sq
from skewkit.errors import SkewkitError
from skewkit.inference import interval_rows
from skewkit.skewness import (
    build_grid,
    estimate_auc,
    estimate_pointwise,
    grid_for_probs,
)


def test_z_quantile_examples():
    assert z_quantile(0.5) == 0.0
    assert z_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert z_quantile(0.95) == pytest.approx(1.644854, abs=1e-6)
    for alpha in (0.01, 0.2, 0.5, 0.9, 0.999):
        assert abs(float(special.ndtr(z_quantile(alpha))) - alpha) <= 1e-12
    with pytest.raises(ValueError):
        z_quantile(0.0)
    with pytest.raises(ValueError):
        z_quantile(1.0)


def test_z_constants_match_scipy():
    # the interval path reads z from the standard library, so scipy stays
    # unloaded; the default bandwidth's Z_975 is ndtri's float, bit for bit
    from skewkit.quantiles import Z_975

    assert Z_975 == float(special.ndtri(0.975))
    rng = np.random.default_rng(18)
    alphas = np.concatenate([
        rng.uniform(1e-12, 1.0 - 1e-12, 20_000),
        np.logspace(-12, np.log10(0.5), 500),
        1.0 - np.logspace(-12, np.log10(0.5), 500),
        [1e-12, 0.5, 1.0 - 1e-12],
    ])
    want = special.ndtri(alphas)
    got = np.array([z_quantile(float(a)) for a in alphas])
    assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))


def test_z_quantile_is_normal_dist_inv_cdf_bit_for_bit():
    # z_quantile calls the function behind NormalDist.inv_cdf without
    # importing statistics; the two must agree on every float
    from statistics import NormalDist

    rng = np.random.default_rng(25)
    alphas = [*rng.uniform(0.0, 1.0, 100_000).tolist(), 0.95, 0.975, 0.995, 1e-300, 1.0 - 1e-16]
    inv_cdf = NormalDist().inv_cdf
    mismatched = [a for a in alphas if z_quantile(a) != inv_cdf(a)]
    assert mismatched == []


def _ln_sample(n, seed=123):
    rng = np.random.default_rng(seed)
    return SortedSample.from_data(np.exp(special.ndtri(rng.random(n))))


def test_interval_covers_zero_for_symmetric_truth():
    rng = np.random.default_rng(21)
    s = SortedSample.from_data(2.0 + rng.standard_normal(10_000))
    iv = interval(s, parse_measure("auc_gamma"))
    assert iv.lower <= 0.0 <= iv.upper
    assert iv.lower < iv.upper
    assert iv.se > 0.0


def test_interval_rejects_b3_and_bad_level():
    s = _ln_sample(100)
    with pytest.raises(UnsupportedMeasureError):
        interval(s, parse_measure("b3"))
    with pytest.raises(ValueError):
        interval(s, parse_measure("auc_gamma"), level=1.0)


def test_point_estimate_b3_has_no_se():
    s = _ln_sample(200)
    est = point_estimate(s, parse_measure("b3"))
    assert est.se is None
    assert est.n == 200
    assert est.value > 0.0  # lognormal data is right-skewed


def test_point_estimates_on_count_data_read_quantiles_only():
    # 10 distinct values among 500: every kernel window at these p holds
    # ties, so only an interval, which needs quantile densities, fails there.
    s = SortedSample.from_data(np.random.default_rng(0).poisson(3, 500))
    assert point_estimate(s, parse_measure("gamma@0.25")).value == 0.0
    assert point_estimate(s, parse_measure("lambda@0.05")).value == 0.5
    with pytest.raises(QuantileDensityError):
        interval(s, parse_measure("gamma@0.25"))
    # x_p = x_{1-p} = 3 from p = 0.4175 on, so the gamma denominator vanishes
    with pytest.raises(DegenerateScaleError) as info:
        point_estimate(s, parse_measure("auc_gamma"))
    assert min(info.value.probabilities) == 0.4175
    assert max(info.value.probabilities) == 0.4975
    mad = np.abs(s.values - 3.0).mean()
    assert point_estimate(s, parse_measure("b3")).value == (s.values.mean() - 3.0) / mad


def test_point_values_never_read_a_quantile_density(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a point value read a quantile density")

    measures = [parse_measure(t) for t in (
        "gamma@0.1", "lambda@0.2", "gamma_star@0.05", "lambda_star@0.25",
        "auc_gamma", "auc_lambda", "auc_gamma_star", "auc_lambda_star", "b3",
    )]
    s, dist = _ln_sample(300), LogNormal(0.0, 1.0)
    expected = [(point_estimate(s, m).value, population_measure(dist, m)) for m in measures]
    monkeypatch.setattr(quantiles, "quantile_density_profile", refuse)
    monkeypatch.setattr(skewness, "quantile_density_profile", refuse)
    with pytest.raises(AssertionError):
        interval(s, measures[0])
    got = [(point_estimate(s, m).value, population_measure(dist, m)) for m in measures]
    assert got == expected


def test_interval_affine_invariance():
    s = _ln_sample(800)
    t = SortedSample.from_data(s.values * 3.5 + 12.0)
    for tok in ("gamma@0.2", "lambda@0.1", "auc_gamma", "auc_lambda_star"):
        a = interval(s, parse_measure(tok))
        b = interval(t, parse_measure(tok))
        assert b.estimate == pytest.approx(a.estimate, rel=1e-10, abs=1e-12)
        assert b.lower == pytest.approx(a.lower, rel=1e-10, abs=1e-12)
        assert b.upper == pytest.approx(a.upper, rel=1e-10, abs=1e-12)


def test_width_monotone_in_level():
    s = _ln_sample(500)
    m = parse_measure("auc_gamma")
    narrow = interval(s, m, level=0.90)
    wide = interval(s, m, level=0.99)
    assert wide.lower < narrow.lower < narrow.upper < wide.upper


def test_mean_skew_interval_is_exactly_halved():
    s = _ln_sample(500)
    iv = interval(s, parse_measure("auc_gamma"))
    half = iv.mean_skew()
    assert half.estimate == 0.5 * iv.estimate
    assert half.lower == 0.5 * iv.lower
    assert half.upper == 0.5 * iv.upper
    with pytest.raises(UnsupportedMeasureError):
        interval(s, parse_measure("gamma@0.2")).mean_skew()


def test_lambda_direction_changes_denominator():
    s = _ln_sample(2000)
    right = interval(s, parse_measure("lambda@0.1"))
    left = interval(s, parse_measure("lambda@0.1", direction=Direction.LEFT))
    assert right.estimate != pytest.approx(left.estimate, rel=1e-3)


def test_difference_same_sample_is_zero():
    s = _ln_sample(300)
    d = difference_interval(s, s, parse_measure("auc_gamma"))
    assert d.difference == 0.0
    assert d.lower == pytest.approx(-d.upper, rel=1e-12)


def test_difference_se_is_root_sum_of_squares():
    a = _ln_sample(400, seed=1)
    b = _ln_sample(700, seed=2)
    d = difference_interval(a, b, parse_measure("lambda@0.2"))
    assert d.se**2 == pytest.approx(d.a.se**2 + d.b.se**2, rel=1e-12)
    assert d.difference == pytest.approx(d.a.estimate - d.b.estimate, rel=1e-12)


def test_pointwise_lambda_width_matches_reference():
    # LN(0,1), n = 5000, lambda@0.05: mean interval width over 1000
    # replications sits near the reference value 0.85 (tolerance +-15%)
    m = parse_measure("lambda@0.05")
    widths = np.empty(1000)
    for t in range(1000):
        rng = np.random.default_rng((3001, t))
        s = SortedSample.from_data(np.exp(special.ndtri(rng.random(5000))))
        iv = interval(s, m)
        widths[t] = iv.upper - iv.lower
    assert float(widths.mean()) == pytest.approx(0.85, rel=0.15)


def test_difference_coverage_under_equal_skew():
    # both groups LN(0,1), n = 5000: the 95% difference interval should
    # contain 0 about 95% of the time
    m = parse_measure("auc_gamma")
    hits = 0
    reps = 1000
    for t in range(reps):
        rng_a = np.random.default_rng((3101, t))
        rng_b = np.random.default_rng((3102, t))
        a = SortedSample.from_data(np.exp(special.ndtri(rng_a.random(5000))))
        b = SortedSample.from_data(np.exp(special.ndtri(rng_b.random(5000))))
        d = difference_interval(a, b, m)
        hits += d.lower <= 0.0 <= d.upper
    assert 0.93 <= hits / reps <= 0.98


def test_difference_power_lognormal_vs_normal():
    # LN(0,1) vs a normal: truths differ (0.1748 vs 0), so the interval
    # should exclude 0 nearly always at n = 5000 (regression floor 90%)
    m = parse_measure("auc_gamma")
    excludes = 0
    reps = 1000
    for t in range(reps):
        rng_a = np.random.default_rng((3201, t))
        rng_b = np.random.default_rng((3202, t))
        a = SortedSample.from_data(np.exp(special.ndtri(rng_a.random(5000))))
        b = SortedSample.from_data(2.0 + special.ndtri(rng_b.random(5000)))
        d = difference_interval(a, b, m)
        excludes += not (d.lower <= 0.0 <= d.upper)
    assert excludes / reps >= 0.90


def test_interval_to_dict_round_trip():
    s = _ln_sample(250)
    iv = interval(s, parse_measure("gamma@0.25"))
    doc = iv.to_dict()
    assert doc["measure"] == "gamma@0.25"
    assert doc["lower"] == iv.lower and doc["upper"] == iv.upper
    assert doc["n"] == 250


_ALL_KINDS = (
    "gamma@0.05", "gamma@0.25", "lambda@0.1", "lambda@0.2", "gamma_star@0.15",
    "lambda_star@0.1", "auc_gamma", "auc_lambda", "auc_gamma_star", "auc_lambda_star",
)


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("n", [60, 5000])
def test_intervals_equal_one_interval_per_measure(direction, n):
    s = _ln_sample(n, seed=n)
    measures = [parse_measure(t, direction=direction) for t in _ALL_KINDS]
    measures.append(parse_measure("auc_gamma", direction=direction, j_points=7))
    got = intervals(s, measures, level=0.9)
    assert [iv.measure for iv in got] == measures
    for iv, m in zip(got, measures):
        want = interval(s, m, level=0.9)
        for field in ("estimate", "se", "lower", "upper"):
            assert getattr(iv, field) == pytest.approx(getattr(want, field), rel=1e-13, abs=0.0)
        assert (iv.level, iv.n) == (want.level, want.n)


@pytest.mark.parametrize("rule", [BandwidthRule(), BandwidthRule(fixed=0.3)])
@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("n", [50, 2000])
def test_every_interval_estimate_is_the_point_estimate_bit_for_bit(rule, direction, n):
    # intervals and point values run one evaluator on the same Type-8 quantiles
    s = _ln_sample(n, seed=n)
    measures = skewness.parse_measures("all,gamma_star@0.1,lambda_star@0.3", direction, include_b3=False)
    got = intervals(s, measures, rule=rule)
    assert len(got) == 16
    for iv in got:
        assert iv.estimate.hex() == point_estimate(s, iv.measure).value.hex(), iv.measure


@pytest.mark.parametrize("rule", [BandwidthRule(), BandwidthRule(fixed=0.3)])
@pytest.mark.parametrize("n", [50, 2000])
def test_repeated_calls_on_one_sample_equal_a_fresh_samples_bit_for_bit(rule, n):
    # the memoized grids make no call depend on the calls before it
    data = _ln_sample(n, seed=n).values[::-1]
    measures = skewness.parse_measures("all", include_b3=False)
    fresh = [interval(SortedSample.from_data(data), m, rule=rule) for m in measures]
    fresh_all = intervals(SortedSample.from_data(data), measures, rule=rule)
    s = SortedSample.from_data(data)
    shuffled = np.random.default_rng(n).permutation(len(measures))
    for order in (range(len(measures)), reversed(range(len(measures))), shuffled):
        for k in order:
            assert interval(s, measures[k], rule=rule) == fresh[k]
        assert intervals(s, measures, rule=rule) == fresh_all


def test_interval_calls_on_one_sample_share_its_grids(monkeypatch):
    sizes = []
    density = skewness.quantile_density_profile

    def counting(sample, probs, rule):
        sizes.append(probs.size)
        return density(sample, probs, rule)

    monkeypatch.setattr(skewness, "quantile_density_profile", counting)
    s = _ln_sample(300)
    for kind in skewness.AUC_KINDS:  # one J: one density pass of 2J + 1 probabilities
        interval(s, skewness.SkewMeasure(kind))
    interval(s, parse_measure("auc_gamma"), level=0.8)
    assert sizes == [201]
    interval(s, parse_measure("gamma@0.1"))
    interval(s, parse_measure("lambda@0.1", direction=Direction.LEFT))
    assert sizes == [201, 3]
    interval(s, parse_measure("auc_gamma", j_points=50))
    interval(s, parse_measure("auc_gamma"), rule=BandwidthRule(fixed=0.3))
    assert sizes == [201, 3, 101, 201]
    # an image is a new sample with grids of its own
    interval(SortedSample.from_data(s.values * 2.0 + 1.0), parse_measure("gamma@0.1"))
    interval(SortedSample.from_data(-s.values), parse_measure("gamma@0.1"))
    assert sizes == [201, 3, 101, 201, 3, 3]


def test_intervals_raise_the_first_failing_measures_error():
    # a 1e-4 bandwidth leaves the windows at p = 0.25 and 0.75 empty for
    # n = 10; gamma@0.2 reads no density there and still has an interval
    s = _ln_sample(10)
    rule = BandwidthRule(fixed=1e-4)
    ok, bad = parse_measure("gamma@0.2"), parse_measure("gamma@0.25")
    assert intervals(s, [ok], rule=rule)[0] == interval(s, ok, rule=rule)
    with pytest.raises(QuantileDensityError) as info:
        interval(s, bad, rule=rule)
    with pytest.raises(QuantileDensityError) as batch:
        intervals(s, [ok, bad], rule=rule)
    assert str(batch.value) == str(info.value)
    with pytest.raises(UnsupportedMeasureError):
        intervals(s, [ok, parse_measure("b3")])


def test_difference_intervals_raise_sample_a_errors_first():
    # A fails only at its second measure, B at both: A's error comes first
    tied = np.concatenate([np.full(30, 1.0), 1.0 + np.random.default_rng(3).exponential(size=70)])
    a, b = SortedSample.from_data(tied), SortedSample.from_data(np.full(20, 3.0))
    measures = [parse_measure("gamma@0.45"), parse_measure("lambda@0.05")]
    with pytest.raises(QuantileDensityError) as info:
        difference_intervals(a, b, measures)
    assert info.value.probabilities[0] == 0.05 and info.value.n == 100


def test_intervals_reject_an_empty_measure_list():
    s = _ln_sample(50)
    with pytest.raises(ValueError, match="at least one measure"):
        intervals(s, [])
    with pytest.raises(ValueError, match="at least one measure"):
        interval_rows(SortedSample(s.values[None]), ())


# --- the grouped engine against the per-measure path ------------------------

def _reference(sample, measure, rule):
    """One measure on one sample by its own grid: estimate and SE, or the
    error (the density check of the grid build, then the curve's scale
    check).  Star pointwise kinds take p^2 times the plain variance, AUC
    kinds a quarter of ``auc_variance`` (the 0.5 / J cell width)."""
    family = "lambda" if measure.is_lambda_family else "gamma"
    try:
        if measure.is_auc:
            grid = build_grid(sample, measure.j_points, rule)
            value = estimate_auc(grid, measure)
            variance = 0.25 * auc_variance(
                XiKernel.from_grid(grid), grid, family, measure.weighted, measure.direction
            )
        else:
            grid = grid_for_probs(sample, [measure.p], rule)
            value = estimate_pointwise(grid, measure)
            k = XiKernel.from_grid(grid)
            if measure.is_lambda_family:
                variance = sigma2_sq(k, grid, measure.p, measure.direction)
            else:
                variance = sigma1_sq(k, grid, measure.p)
            if measure.weighted:
                variance *= measure.p**2
    except SkewkitError as exc:
        return exc
    return value, math.sqrt(variance / sample.n)


_POINTWISE_KINDS = ("gamma", "lambda", "gamma_star", "lambda_star")
_AUC_KINDS = ("auc_gamma", "auc_lambda", "auc_gamma_star", "auc_lambda_star")


def _check_against_reference(seed, t, n, step, bandwidth, ps, js):
    """interval_rows on T rows against ``_reference`` row by row; returns the
    failed (row, measure) cells counted by error type."""
    rng = np.random.default_rng(seed)
    draws = np.exp(rng.standard_normal((t, n)))
    if step:
        draws = np.round(draws / step) * step
    rule = BandwidthRule(fixed=bandwidth)
    measures = []
    for direction in Direction:
        for i, kind in enumerate(_POINTWISE_KINDS):
            measures.append(parse_measure(f"{kind}@{ps[i % len(ps)]}", direction=direction))
        for i, kind in enumerate(_AUC_KINDS):
            measures.append(parse_measure(kind, direction=direction, j_points=js[i % len(js)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = interval_rows(SortedSample.from_rows(draws), measures, 0.95, rule)
    failed = Counter()
    for row, draw in enumerate(draws):
        sample = SortedSample.from_data(draw)
        for m, res in zip(measures, batch):
            want = _reference(sample, m, rule)
            if isinstance(want, SkewkitError):
                failed[type(want).__name__] += 1
                got = res.errors[row]
                assert (type(got), str(got)) == (type(want), str(want)), m
                assert np.isnan(res.estimate[row]) and np.isnan(res.se[row])
            else:
                assert row not in res.errors, m
                assert res.estimate[row] == pytest.approx(want[0], rel=1e-13, abs=0.0), m
                assert res.se[row] == pytest.approx(want[1], rel=1e-13, abs=0.0), m
    return failed


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(1, 8),
    n=st.integers(12, 3000),
    step=st.sampled_from([None, 0.1, 0.5]),
    bandwidth=st.sampled_from([None, 0.002, 0.05, 0.3]),
    ps=st.lists(st.sampled_from([0.0025, 0.025, 0.05, 0.1, 0.25, 0.375, 0.49]), min_size=1,
                max_size=4),
    js=st.lists(st.sampled_from([2, 7, 100]), min_size=1, max_size=3, unique=True),
)
# tied rows whose auc_lambda_star curve nearly cancels: its last bits show how
# the batch sums the curve
@example(seed=5777, t=7, n=33, step=0.1, bandwidth=0.3, ps=[0.0025], js=[2, 100])
def test_grouped_engine_matches_the_per_measure_path(seed, t, n, step, bandwidth, ps, js):
    _check_against_reference(seed, t, n, step, bandwidth, ps, js)


def test_grouped_engine_failures_match_the_per_measure_path():
    # tied rows at small n: density failures, scale failures and good cells
    failed = _check_against_reference(5, 8, 12, 0.5, None, [0.05, 0.25, 0.375], [2, 7, 100])
    assert failed["QuantileDensityError"] > 0 and failed["DegenerateScaleError"] > 0
    assert sum(failed.values()) < 8 * 16


def _bits(*values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _assert_rows_equal_each_row_alone(draws, measures, rule):
    """Every (row, measure) cell of ``interval_rows`` on the batch equals,
    bit for bit, the same cell on that row alone, and ``intervals`` on the
    row gives the same intervals or raises the first failing cell's error."""
    batch = SortedSample.from_rows(draws)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = interval_rows(batch, measures, 0.95, rule)
    for t, values in enumerate(batch.values):
        alone = interval_rows(SortedSample(values[None]), measures, 0.95, rule)
        for res, want in zip(got, alone):
            assert _bits(res.estimate[t], res.se[t], res.lower[t], res.upper[t]) == _bits(
                want.estimate[0], want.se[0], want.lower[0], want.upper[0]
            ), (t, res.measure)
            err, want_err = res.errors.get(t), want.errors.get(0)
            assert (type(err), str(err)) == (type(want_err), str(want_err)), (t, res.measure)
        first = next((res.errors[t] for res in got if t in res.errors), None)
        try:
            ivs = intervals(SortedSample(values), measures, 0.95, rule)
        except SkewkitError as exc:
            assert (type(exc), str(exc)) == (type(first), str(first)), t
            continue
        assert first is None, t
        for res, iv in zip(got, ivs):
            assert _bits(res.estimate[t], res.se[t], res.lower[t], res.upper[t]) == _bits(
                iv.estimate, iv.se, iv.lower, iv.upper
            ), (t, res.measure)


_ROW_MEASURES = [
    parse_measure(token, direction=direction, j_points=j)
    for direction in Direction
    for token, j in (
        ("gamma@0.0025", 100), ("lambda@0.1", 100), ("gamma_star@0.25", 100),
        ("lambda_star@0.49", 100), ("auc_gamma", 100), ("auc_lambda", 7),
        ("auc_gamma_star", 2), ("auc_lambda_star", 100),
    )
]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(2, 8),
    n=st.integers(12, 3000),
    step=st.sampled_from([None, 0.1, 0.5]),
    bandwidth=st.sampled_from([None, 0.002, 0.05, 0.3]),
)
@example(seed=5777, t=7, n=33, step=0.1, bandwidth=0.3)
def test_each_row_of_a_batch_equals_that_sample_alone(seed, t, n, step, bandwidth):
    draws = np.exp(np.random.default_rng(seed).standard_normal((t, n)))
    if step:
        draws = np.round(draws / step) * step
    _assert_rows_equal_each_row_alone(draws, _ROW_MEASURES, BandwidthRule(fixed=bandwidth))


def test_each_row_of_a_study_chunk_equals_that_sample_alone():
    # 1,200 rows at n = 200 hold far more than the density stage's gather
    # budget, so the batch is walked in passes of a few rows
    draws = np.random.default_rng(11).lognormal(size=(1200, 200))
    _assert_rows_equal_each_row_alone(draws, _ROW_MEASURES[:8], quantiles.DEFAULT_BANDWIDTH)


# the 14 measures of ``all`` and lambda_star@0.15, in each direction
_THIRTY = [
    m for direction in Direction
    for m in skewness.parse_measures("all,lambda_star@0.15", direction, include_b3=False)
]


def _assert_each_measure_alone_equals_it_among_all(batch, measures, rule):
    """Every cell of ``interval_rows`` for each measure alone equals, bit for
    bit, the same cell with all of ``measures`` in one call."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        together = interval_rows(batch, measures, 0.95, rule)
    for res in together:
        [alone] = interval_rows(batch, [res.measure], 0.95, rule)
        assert _bits(res.estimate, res.se, res.lower, res.upper) == _bits(
            alone.estimate, alone.se, alone.lower, alone.upper
        ), res.measure
        assert {t: str(e) for t, e in res.errors.items()} == {
            t: str(e) for t, e in alone.errors.items()
        }, res.measure


@pytest.mark.parametrize("bandwidth", [None, 0.1, 0.3])
@pytest.mark.parametrize("step", [None, 0.05])
@pytest.mark.parametrize("n", [12, 57, 400, 2000, 5000])
def test_each_measure_alone_equals_it_among_all_thirty(n, step, bandwidth):
    # the density windows and the bridge sums read only their own terms, so
    # a measure's numbers never depend on the other measures of the call
    draws = np.exp(np.random.default_rng(n).standard_normal((12, n)))
    if step:
        draws = np.round(draws / step) * step
    rule = BandwidthRule(fixed=bandwidth)
    for rows in (draws, draws[:1]):  # a batch, and one sample as ``intervals`` runs it
        _assert_each_measure_alone_equals_it_among_all(SortedSample.from_rows(rows), _THIRTY, rule)


@pytest.mark.parametrize("direction", list(Direction))
def test_each_auc_alone_equals_it_among_the_four_at_a_fine_grid(direction):
    # J = 6,000 gives bridge sums over 12,001 points
    sample = _ln_sample(2000, seed=6000)
    measures = [skewness.SkewMeasure(kind, direction=direction, j_points=6000) for kind in skewness.AUC_KINDS]
    _assert_each_measure_alone_equals_it_among_all(sample.batch, measures, quantiles.DEFAULT_BANDWIDTH)


def test_rows_that_overflow_fail_with_a_numerical_error():
    draws = np.random.default_rng(3).lognormal(sigma=0.25, size=(4, 200))
    measures = [parse_measure("gamma@0.1"), parse_measure("auc_gamma"),
                parse_measure("auc_lambda_star", j_points=7)]
    plain = interval_rows(SortedSample.from_rows(draws), measures)
    for scale in (1e307, 1e-320):
        rows = SortedSample.from_rows(draws * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = interval_rows(rows, measures)
        lost = 0
        for m, res, ref in zip(measures, scaled, plain):
            assert not ref.errors
            for t, exc in res.errors.items():
                lost += isinstance(exc, NumericalError)
                assert str(exc).startswith(f"{m}: the estimate or its standard error")
                assert np.isnan([res.estimate[t], res.se[t], res.lower[t], res.upper[t]]).all()
            ok = [t for t in range(4) if t not in res.errors]
            assert np.isfinite([res.estimate[ok], res.se[ok]]).all()
        assert lost > 0
        with pytest.raises(NumericalError):
            intervals(SortedSample(rows.values[0]), measures)
