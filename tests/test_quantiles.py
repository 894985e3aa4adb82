import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from skewkit import (
    BandwidthRule,
    QuantileDensityError,
    SortedSample,
    default_bandwidth,
    quantile_type8,
)
from skewkit.quantiles import (
    _GATHER_BUDGET,
    _PLAN_LIMIT,
    _PASS_BUDGET,
    _PLANS,
    _grid_plan,
    _positions_below,
    density_error,
    quantile_density_profile,
)
from skewkit.inference import intervals
from skewkit.skewness import _grid_probs, grid_for_probs, midpoint_probs, parse_measures, point_sets


# the 211 probabilities of the grid of a coverage chunk of all 14 interval
# measures
COVERAGE_PROBS = list(_grid_probs(point_sets(parse_measures("all", include_b3=False))[0]))


def type8_reference(values, p):
    """Independent scalar reimplementation of the plotting-position formula."""
    n = len(values)
    h = (n + 1.0 / 3.0) * p + 1.0 / 3.0
    h = min(max(h, 1.0), float(n))
    floor = math.floor(h)
    frac = h - floor
    lower = values[floor - 1]
    upper = values[min(floor + 1, n) - 1]
    return lower + frac * (upper - lower)


def test_type8_hand_examples():
    s = SortedSample.from_data([10, 20, 30, 40, 50])
    assert quantile_type8(s, 0.5) == 30.0  # h = 3 exactly
    # h = (5 + 1/3) * 0.25 + 1/3 = 1.66667 -> 10 + 0.66667 * 10
    assert quantile_type8(s, 0.25) == pytest.approx(50.0 / 3.0, abs=1e-9)
    tiny = SortedSample.from_data([1, 2, 3, 4])
    assert quantile_type8(tiny, 0.01) == 1.0  # h clamps to 1


def test_type8_matches_reference_bit_for_bit():
    rng = np.random.default_rng(2101)
    for _ in range(1000):
        n = int(rng.integers(4, 60))
        values = np.sort(rng.normal(size=n) * rng.uniform(0.1, 50.0))
        p = float(rng.uniform(0.001, 0.999))
        s = SortedSample(values=values)
        assert quantile_type8(s, p) == type8_reference(values.tolist(), p)


def test_type8_monotone_in_p():
    rng = np.random.default_rng(8)
    s = SortedSample.from_data(rng.exponential(size=200))
    q = quantile_type8(s, np.linspace(0.001, 0.999, 500))
    assert np.all(np.diff(q) >= 0.0)


def test_type8_affine_equivariant():
    rng = np.random.default_rng(9)
    s = SortedSample.from_data(rng.normal(size=75))
    t = SortedSample.from_data(s.values * 2.5 - 7.0)
    p = np.linspace(0.01, 0.99, 99)
    lhs = quantile_type8(t, p)
    rhs = 2.5 * quantile_type8(s, p) - 7.0
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_type8_rejects_bad_p():
    s = SortedSample.from_data([1, 2, 3, 4])
    for bad in (0.0, 1.0, -0.5, 2.0, np.nan):
        with pytest.raises(ValueError):
            quantile_type8(s, bad)
    with pytest.raises(ValueError):
        quantile_type8(s, np.array([0.25, np.nan]))
    with pytest.raises(ValueError):
        grid_for_probs(s, [np.nan])


def test_sorted_sample_validation():
    with pytest.raises(ValueError, match="at least 4 observations, got 3"):
        SortedSample.from_data([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="at least 4 observations, got 0"):
        SortedSample.from_rows(np.empty((2, 0)))
    # a non-finite value is reported before too few values
    with pytest.raises(ValueError, match="contains 2 non-finite"):
        SortedSample.from_data([np.inf, 1.0, np.nan])
    s = SortedSample.from_data([3, 1, 4, 1, 5])
    assert np.all(np.diff(s.values) >= 0)
    assert s.n == 5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [[0], [3], [6], list(range(7)), [0, 6]])
def test_non_finite_values_are_counted_wherever_they_lie(bad, at):
    data = np.array([5.0, -2.0, 7.0, 1.0, 0.5, 3.0, -1.0])
    data[at] = bad
    if len(at) == 2:
        data[at[1]] = np.nan if np.isinf(bad) else np.inf
    with pytest.raises(ValueError, match=f"contains {len(at)} non-finite"):
        SortedSample.from_data(data)
    rows = np.tile(np.array([5.0, -2.0, 7.0, 1.0, 0.5, 3.0, -1.0]), (3, 1))
    rows[1] = data  # one row of three
    with pytest.raises(ValueError, match=f"contains {len(at)} non-finite"):
        SortedSample.from_rows(rows)
    rows[:] = data
    with pytest.raises(ValueError, match=f"contains {3 * len(at)} non-finite"):
        SortedSample.from_rows(rows)


def test_samples_and_memoized_grids_are_read_only():
    s = SortedSample.from_data([3, 1, 4, 1, 5])
    batch = SortedSample.from_rows([[3, 1, 4, 1], [2, 7, 1, 8]])
    for sample in (s, batch, s.batch):
        with pytest.raises(ValueError, match="read-only"):
            sample.values[..., 0] = 0.0
    grid = grid_for_probs(s, [0.25])
    assert grid_for_probs(s, np.array([0.25])) is grid
    for values in (grid.probs, grid.x, grid.g):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
    assert grid_for_probs(s, [0.25], BandwidthRule(fixed=0.3)) is not grid
    assert grid_for_probs(s.batch, [0.25]) is not grid


def test_default_bandwidth_examples():
    z = float(special.ndtri(0.975))
    assert default_bandwidth(100, 0.5) == pytest.approx(z * math.sqrt(0.25 / 100), rel=1e-12)
    assert default_bandwidth(100, 0.5) == pytest.approx(0.098, abs=1e-4)
    # unclamped 0.0195 exceeds min(p, 1-p) -> cap at 0.01
    assert default_bandwidth(100, 0.01) == pytest.approx(0.01, abs=1e-12)
    # floor 1/n not binding at huge n
    assert default_bandwidth(10**6, 0.5) == pytest.approx(0.00098, abs=1e-5)
    # at extreme grid probabilities in small samples the 1/n floor wins,
    # keeping at least one spacing inside the kernel window
    assert default_bandwidth(50, 0.0025) == pytest.approx(0.02, abs=1e-12)


def test_bandwidth_rule_fixed_validation():
    with pytest.raises(ValueError):
        BandwidthRule(fixed=0.7)
    with pytest.raises(ValueError):
        BandwidthRule(fixed=0.0)
    rule = BandwidthRule(fixed=0.05)
    assert rule.bandwidth(1000, 0.3) == 0.05


def _median_ghat(draw, n=10_000, reps=11, p=0.5):
    vals = []
    for rep in range(reps):
        s = SortedSample.from_data(draw(np.random.default_rng((77, rep)), n))
        vals.append(quantile_density_profile(s, np.array([p]))[0])
    return float(np.median(vals))


def test_quantile_density_exponential_median():
    ghat = _median_ghat(lambda rng, n: rng.exponential(size=n))
    assert ghat == pytest.approx(2.0, rel=0.10)


def test_quantile_density_normal_median():
    ghat = _median_ghat(lambda rng, n: rng.normal(size=n))
    assert ghat == pytest.approx(math.sqrt(2 * math.pi), rel=0.10)


def test_quantile_density_affine():
    rng = np.random.default_rng(33)
    s = SortedSample.from_data(rng.exponential(size=400))
    probs = np.array([0.0025, 0.1, 0.25, 0.5, 0.9, 0.9975])
    base = quantile_density_profile(s, probs)
    scaled = quantile_density_profile(SortedSample.from_data(s.values * 3.25 + 11.0), probs)
    assert np.allclose(scaled, 3.25 * base, rtol=1e-12)


def test_quantile_density_convergence_in_n():
    # median relative error over p in {0.1, 0.25, 0.5, 0.75, 0.9} is
    # nonincreasing as the sample grows
    probs = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    true = 1.0 / (1.0 - probs)  # exponential quantile density
    med_errs = []
    for size, seed in ((1_000, 41), (10_000, 42), (100_000, 43)):
        errs = []
        for rep in range(9):
            rng = np.random.default_rng((seed, rep))
            s = SortedSample.from_data(rng.exponential(size=size))
            ghat = quantile_density_profile(s, probs)
            errs.extend(np.abs(ghat - true) / true)
        med_errs.append(float(np.median(errs)))
    assert med_errs[0] >= med_errs[1] >= med_errs[2]


def test_quantile_density_ties_raise():
    values = np.concatenate([np.full(50, 5.0), [6.0, 7.0, 8.0]])
    s = SortedSample.from_data(values)
    with pytest.raises(QuantileDensityError) as info:
        quantile_density_profile(s, np.array([0.1]))[0]
    assert info.value.probabilities == (0.1,)
    assert info.value.bandwidths[0] > 0.0


# --- the windowed gather against the per-probability loop it replaced -------

def density_loop_reference(sample, probs, rule=BandwidthRule()):
    """One window per probability, found by two searchsorted calls."""
    probs = np.asarray(probs, dtype=float)
    x = sample.values
    n = x.size
    spacings = np.diff(x)
    positions = np.arange(1, n) / n
    b = rule.bandwidth(n, probs)
    out = np.empty(probs.size)
    for i, (p, bw) in enumerate(zip(probs, b)):
        lo = np.searchsorted(positions, p - bw, side="right")
        hi = np.searchsorted(positions, p + bw, side="left")
        u = (positions[lo:hi] - p) / bw
        out[i] = np.where(np.abs(u) < 1.0, 0.75 * (1.0 - u * u), 0.0) @ spacings[lo:hi] / bw
    if np.any(out <= 0.0):
        bad = out <= 0.0
        raise QuantileDensityError(
            probs[bad], np.broadcast_to(b, probs.shape)[bad], np.unique(x).size, n
        )
    return out


def assert_density_matches_loop(sample, probs, rule=BandwidthRule()):
    try:
        want = density_loop_reference(sample, probs, rule)
    except QuantileDensityError as ref_err:
        with pytest.raises(QuantileDensityError) as info:
            quantile_density_profile(sample, probs, rule)
        assert info.value.probabilities == ref_err.probabilities
        assert info.value.bandwidths == ref_err.bandwidths
        assert str(info.value) == str(ref_err)
        return
    got = quantile_density_profile(sample, probs, rule)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _grid_and_extreme_probs(n):
    base = midpoint_probs(100)
    extreme = np.array([1e-9, 0.25 / n, 0.5 / n, 1.0 / n, 2.0 / n, 0.5, 1.0 - 1.0 / n, 1.0 - 1e-9])
    return np.concatenate([base, 1.0 - base, [0.5], extreme])


@pytest.mark.parametrize("n", [4, 5, 10, 11, 200, 201, 10007])
def test_density_matches_loop_default_rule(n):
    rng = np.random.default_rng(n)
    s = SortedSample.from_data(rng.lognormal(size=n))
    probs = _grid_and_extreme_probs(n)
    # at the extreme probabilities the 1/n floor of the bandwidth wins
    assert np.any(default_bandwidth(n, probs) == 1.0 / n)
    assert_density_matches_loop(s, probs)
    # probabilities that sit exactly on the positions k/n
    assert_density_matches_loop(s, np.arange(1, n) / n)


@pytest.mark.parametrize("n", [4, 5, 10, 11, 200, 201, 10007])
@pytest.mark.parametrize("fixed", [1e-4, 0.01, 0.25, 0.49])
def test_density_matches_loop_fixed_bandwidth(n, fixed):
    rng = np.random.default_rng((n, 7))
    s = SortedSample.from_data(rng.exponential(size=n))
    assert_density_matches_loop(s, _grid_and_extreme_probs(n), BandwidthRule(fixed=fixed))


def test_density_window_spanning_the_whole_sample():
    # b = 0.49 at p = 0.5 covers every position k/n of a 10-point sample
    s = SortedSample.from_data(np.random.default_rng(3).normal(size=10))
    rule = BandwidthRule(fixed=0.49)
    assert _positions_below(np.array([0.01]), 10, inclusive=True)[0] == 0
    assert _positions_below(np.array([0.99]), 10, inclusive=False)[0] == 9
    assert_density_matches_loop(s, np.array([0.5]), rule)


@pytest.mark.parametrize("n", [10, 53, 400])
def test_density_matches_loop_on_tied_data(n):
    rng = np.random.default_rng((n, 11))
    s = SortedSample.from_data(rng.poisson(3.0, size=n).astype(float))
    probs = _grid_and_extreme_probs(n)
    assert_density_matches_loop(s, probs)
    assert_density_matches_loop(s, probs, BandwidthRule(fixed=0.05))
    heavy = SortedSample.from_data(np.concatenate([np.full(50, 5.0), [6.0, 7.0, 8.0]]))
    assert_density_matches_loop(heavy, probs)


def test_window_bounds_match_searchsorted_at_exact_positions():
    for n in (4, 7, 10, 49, 1000, 10007):
        positions = np.arange(1, n) / n
        a = np.concatenate([
            positions, np.nextafter(positions, 0.0), np.nextafter(positions, 1.0),
            [-0.5, 0.0, 1.0 / (2 * n), 1.0, 1.5],
        ])
        for inclusive, side in ((True, "right"), (False, "left")):
            got = _positions_below(a, n, inclusive)
            np.testing.assert_array_equal(got, np.searchsorted(positions, a, side=side))


# windows of widths 0, 1, 0, 1, 0: an empty window first, between two others
# and last, which a segment sum must skip rather than read its neighbour for
@example(n=50, probs=[0.31, 0.3, 0.33, 0.5, 0.71], fixed=1e-5, tied=False, seed=5)
@example(n=50, probs=[0.31, 0.3, 0.33, 0.5, 0.71], fixed=1e-5, tied=True, seed=6)
@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(min_value=4, max_value=3000),
    probs=st.lists(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6), min_size=1, max_size=20
    ),
    fixed=st.one_of(st.none(), st.floats(min_value=1e-5, max_value=0.49)),
    tied=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_density_matches_loop_property(n, probs, fixed, tied, seed):
    rng = np.random.default_rng(seed)
    data = rng.poisson(2.0, size=n) if tied else rng.standard_t(3.0, size=n)
    s = SortedSample.from_data(data.astype(float))
    probs, rule = np.array(probs), BandwidthRule(fixed=fixed)
    # first from an empty plan memo, so that a cached plan cannot hide a
    # wrong one, then again with the plan memoized where it is kept
    _PLANS.clear()
    assert_density_matches_loop(s, probs, rule)
    assert_density_matches_loop(s, probs, rule)


def test_density_rejects_probabilities_that_are_not_1d():
    s = SortedSample.from_data(np.arange(50.0))
    for probs, shape in ((0.5, "()"), ([[0.3, 0.5]], "(1, 2)")):
        with pytest.raises(ValueError, match=re.escape(f"1-D array, got shape {shape}")):
            quantile_density_profile(s, probs)


def test_density_nan_probability_matches_loop():
    # the loop's searchsorted gives NaN an empty window, so its estimate is
    # 0 / NaN; the arithmetic bounds must give the same, not index garbage
    s = SortedSample.from_data(np.random.default_rng(5).normal(size=50))
    probs = np.array([0.3, np.nan])
    want = density_loop_reference(s, probs)
    got = quantile_density_profile(s, probs)
    assert math.isnan(want[1]) and math.isnan(got[1])
    assert got[0] == pytest.approx(want[0], rel=1e-13)
    # with a fixed bandwidth the empty window estimates exactly 0: both raise
    rule = BandwidthRule(fixed=0.05)
    with pytest.raises(QuantileDensityError) as want_err:
        density_loop_reference(s, probs, rule)
    with pytest.raises(QuantileDensityError) as got_err:
        quantile_density_profile(s, probs, rule)
    assert str(got_err.value) == str(want_err.value)


# windows wider than 8,192 spacings, where a long reduction is most apt to
# depend on the shape of the array it runs in
@example(rows=3, n=20_000, probs=[0.5, 0.3, 0.7], fixed=0.3, tied=False, seed=1)
@example(rows=3, n=20_011, probs=[0.5, 0.3, 0.7], fixed=0.3, tied=True, seed=2)
@example(rows=2, n=29_000, probs=[0.45, 0.5, 0.2, 0.9], fixed=0.3, tied=True, seed=3)
@example(rows=4, n=40_000, probs=[0.5, 0.05, 0.25], fixed=0.3, tied=False, seed=4)
# windows of widths 0, 1, 0, 1, 0 (see test_density_matches_loop_property)
@example(rows=2, n=50, probs=[0.31, 0.3, 0.33, 0.5, 0.71], fixed=1e-5, tied=False, seed=5)
@example(rows=2, n=50, probs=[0.31, 0.3, 0.33, 0.5, 0.71], fixed=1e-5, tied=True, seed=6)
# the coverage grid at n = 200: 14 rows of its run fit one pass, 15 take two
@example(rows=15, n=200, probs=COVERAGE_PROBS, fixed=None, tied=False, seed=7)
@example(rows=15, n=200, probs=COVERAGE_PROBS, fixed=None, tied=True, seed=8)
@settings(max_examples=100, deadline=None, database=None)
@given(
    rows=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=4, max_value=3000),
    probs=st.lists(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6), min_size=1, max_size=20
    ),
    fixed=st.one_of(st.none(), st.floats(min_value=1e-5, max_value=0.49)),
    tied=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_equals_rows_property(rows, n, probs, fixed, tied, seed):
    rng = np.random.default_rng(seed)
    data = rng.poisson(2.0, size=(rows, n)) if tied else rng.standard_t(3.0, size=(rows, n))
    batch = SortedSample.from_rows(data.astype(float))
    probs = np.array(probs)
    rule = BandwidthRule(fixed=fixed)
    # the batch builds its plan from an empty memo, so that a cached plan
    # cannot hide a wrong one; the calls on one row below reuse it where
    # it is kept
    _PLANS.clear()
    x = quantile_type8(batch, probs)
    g = quantile_density_profile(batch, probs, rule)
    assert x.shape == g.shape == (rows, probs.size)
    for t in range(rows):
        row = SortedSample(values=batch.values[t])
        np.testing.assert_array_equal(x[t], quantile_type8(row, probs))
        # the estimates never depend on the row count: a row of the batch
        # is reduced exactly as that sample alone
        alone = SortedSample(values=batch.values[t : t + 1])
        np.testing.assert_array_equal(g[t], quantile_density_profile(alone, probs, rule)[0])
        try:
            want = density_loop_reference(row, probs, rule)
        except QuantileDensityError as exc:
            assert tuple(probs[g[t] <= 0.0]) == exc.probabilities
            assert str(density_error(row.values, probs, g[t], rule)) == str(exc)
        else:
            np.testing.assert_allclose(g[t], want, rtol=1e-13, atol=0.0)
    # nor on the other probabilities: each estimate alone equals it among them,
    # also where the call alone gathers its window's spacings and the call
    # with all of them reads the whole rows' diff
    for i in range(probs.size):
        alone = quantile_density_profile(batch, probs[i : i + 1], rule)
        np.testing.assert_array_equal(g[:, i], alone[:, 0])


def test_batch_gather_budget_counts_every_row():
    # 64 rows x a 2000-spacing window exceed the budget: the rows are walked
    # in chunks that fit it
    rng = np.random.default_rng(12)
    batch = SortedSample.from_rows(rng.exponential(size=(64, 4000)))
    probs = np.array([0.1, 0.5, 0.9])
    rule = BandwidthRule(fixed=0.25)
    g = quantile_density_profile(batch, probs, rule)
    for t in (0, 17, 63):
        row = SortedSample(values=batch.values[t])
        np.testing.assert_allclose(g[t], density_loop_reference(row, probs, rule), rtol=1e-13)
    assert quantile_type8(batch, 0.5).shape == (64,)
    # one sample, windows wider than the budget, one at a time: one window
    # gathers its own spacings, three read the whole sample's diff
    s = SortedSample.from_data(rng.lognormal(size=40_000))
    for probs in (np.array([0.5]), np.array([0.3, 0.5, 0.7])):
        assert_density_matches_loop(s, probs, BandwidthRule(fixed=0.3))


def test_a_coverage_chunk_takes_its_run_in_one_pass():
    # one run of 4,575 terms a row: up to 14 rows (a chunk holds 10) take it
    # in one pass
    _, whole, runs = _grid_plan(200, np.array(COVERAGE_PROBS), BandwidthRule())
    [(_, _, _, weights)] = runs
    assert len(COVERAGE_PROBS) == 211 and whole and weights.size == 4575
    assert 14 * weights.size <= _PASS_BUDGET < 15 * weights.size


def memo_probs(n):
    """Grid probabilities, extreme ones and a NaN, in no order."""
    base = midpoint_probs(20)
    return np.concatenate([[0.3, np.nan, 0.5 / n], 1.0 - base, base, [0.5, 1.0 - 1e-9]])


@pytest.mark.parametrize("n", [4, 5, 10, 50, 200, 1000])
@pytest.mark.parametrize("fixed", [None, 1e-5, 0.3])
@pytest.mark.parametrize("tied", [False, True])
def test_a_warm_plan_gives_the_cold_bits(n, fixed, tied):
    rng = np.random.default_rng((n, 31))
    data = rng.poisson(2.0, size=(3, n)) if tied else rng.standard_t(3.0, size=(3, n))
    batch = SortedSample.from_rows(data.astype(float))
    probs, rule = memo_probs(n), BandwidthRule(fixed=fixed)
    _PLANS.clear()
    cold = quantile_density_profile(batch, probs, rule)
    key = (n, probs.tobytes(), rule)
    memoized = key in _PLANS
    # every plan here fits one run of _GATHER_BUDGET terms, except the
    # fixed 0.3 at n = 1000
    assert memoized == (fixed != 0.3 or n < 1000)
    for _ in range(2):
        warm = quantile_density_profile(batch, probs, rule)
        assert warm.tobytes() == cold.tobytes()
        assert (key in _PLANS) == memoized
    # each row alone, warm, is the row of the batch, also with the row's
    # check: the same error or the same estimates
    for t in range(3):
        row = SortedSample(values=batch.values[t])
        try:
            alone = quantile_density_profile(row, probs, rule)
        except QuantileDensityError as exc:
            assert str(exc) == str(density_error(row.values, probs, cold[t], rule))
        else:
            assert alone.tobytes() == cold[t].tobytes()


def test_memoized_plans_are_read_only():
    _PLANS.clear()
    probs = memo_probs(200)
    plan = _grid_plan(200, probs, BandwidthRule())
    assert _grid_plan(200, probs.copy(), BandwidthRule()) is plan
    b, whole, runs = plan
    assert len(runs) == 1
    for arr in [b, *runs[0]]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[-1]


def test_the_plan_memo_keeps_the_most_recently_used_within_its_bound():
    _PLANS.clear()
    probs, rule = memo_probs(100), BandwidthRule()
    for n in range(100, 100 + 3 * _PLAN_LIMIT):
        _grid_plan(n, probs, rule)
        _grid_plan(100, probs, rule)  # kept by using it
        assert len(_PLANS) <= _PLAN_LIMIT
    assert len(_PLANS) == _PLAN_LIMIT
    assert [key[0] for key in _PLANS] == [*range(100 + 2 * _PLAN_LIMIT + 1, 100 + 3 * _PLAN_LIMIT), 100]


def test_large_and_multi_run_plans_are_not_memoized():
    _PLANS.clear()
    rule = BandwidthRule()
    _grid_plan(200, memo_probs(200), rule)
    before = dict(_PLANS)
    # n above _GATHER_BUDGET, even where its windows fit one run
    large = SortedSample.from_data(np.random.default_rng(3).lognormal(size=100_000))
    assert large.n > _GATHER_BUDGET
    quantile_density_profile(large, np.array([0.25, 0.75, 0.5]), rule)
    # a grid there keeps no plan either, and its quantiles are quantile_type8's
    grid = grid_for_probs(large, [0.25])
    assert grid.x.tobytes() == quantile_type8(large, grid.probs).tobytes()
    # more terms than one run holds, at small n
    wide = BandwidthRule(fixed=0.3)
    quantile_density_profile(SortedSample.from_rows([np.arange(1000.0)]), memo_probs(1000), wide)
    assert _PLANS == before and all(_PLANS[k] is before[k] for k in before)


def test_intervals_at_distinct_large_n_retain_no_memory():
    # every op of a large-n workload has its own n; a memo that kept their
    # plans would grow with each (3 probabilities fit one run at any n).
    # Blocks under 1 KB are not counted: numpy's cumsum leaves about 60
    # traced bytes behind per call without any growth of the process.
    import gc
    import tracemalloc

    def kilobyte_blocks():
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
        return sum(trace.size for trace in snapshot.traces if trace.size >= 1024)

    data = np.random.default_rng(17).lognormal(size=100_050)
    measures = parse_measures("gamma@0.25,lambda@0.1")
    intervals(SortedSample.from_data(data[:99_999]), measures)
    tracemalloc.start()
    try:
        kilobyte_blocks()  # the filter compiles and caches its pattern once
        before = kilobyte_blocks()
        for k in range(50):
            intervals(SortedSample.from_data(data[: 100_000 + k]), measures)
        retained = kilobyte_blocks() - before
    finally:
        tracemalloc.stop()
    assert retained <= 0


def test_the_plan_memo_survives_threads():
    # more threads than cores, switching often, each cycling through more
    # (n, probs) keys than the memo holds, so hits, inserts and evictions
    # interleave; every estimate must equal the one-thread estimate
    import sys
    import threading

    rng = np.random.default_rng(29)
    probs = memo_probs(100)
    batches = [SortedSample.from_rows(rng.lognormal(size=(2, n))) for n in range(100, 100 + 2 * _PLAN_LIMIT)]
    _PLANS.clear()
    want = [quantile_density_profile(b, probs).tobytes() for b in batches]
    failures = []

    def work(k):
        try:
            for i in range(200):
                j = (i * (k + 1)) % len(batches)
                if quantile_density_profile(batches[j], probs).tobytes() != want[j]:
                    failures.append(j)
        except Exception as exc:  # a race would surface here
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == [] and len(_PLANS) <= _PLAN_LIMIT
