import math

import numpy as np
import pytest
from scipy import special

from skewkit import (
    Direction,
    LogNormal,
    Normal,
    SortedSample,
    build_grid,
    midpoint_probs,
)
from skewkit.asymptotics import (
    XiKernel,
    auc_variance,
    bridge_variance,
    gradient,
    sigma1_sq,
    sigma2_sq,
)
from skewkit.skewness import (
    MeasureKind,
    SkewMeasure,
    grid_for_probs,
    group_curve,
    parse_measure,
    point_sets,
    population_grid,
)


# --- reference: the quantile covariance distributed over linear combinations ---

class RefKernel:
    """Sample size plus a probability -> g(p) table, for the reference ``xi``."""

    def __init__(self, n, g_at):
        self.n = n
        self.g_at = g_at

    @classmethod
    def from_grid(cls, grid):
        return cls(grid.n, {float(p): float(g) for p, g in zip(grid.probs, grid.g)})


def xi(k, p, q):
    """Cov(xhat_p, xhat_q) = min(p,q)(1 - max(p,q)) g(p) g(q) / n."""
    lo, hi = (p, q) if p <= q else (q, p)
    gg = k.g_at[p] * k.g_at[q]  # grouped so xi(p, q) == xi(q, p) exactly
    return lo * (1.0 - hi) * gg / k.n


def combo_s(p):
    return [(1.0, 1.0 - p), (1.0, p), (-2.0, 0.5)]


def combo_r1(p):
    return [(1.0, 1.0 - p), (-1.0, p)]


def combo_r2(p, direction=Direction.RIGHT):
    if direction is Direction.LEFT:
        return [(1.0, 1.0 - p), (-1.0, 0.5)]
    return [(1.0, 0.5), (-1.0, p)]


def cov_engine(kernel, combo_a, combo_b):
    """Exact (fsum) distribution of Cov over two linear combinations.

    Returns the value and the summed term magnitude, which scales the
    tolerance where the signed terms cancel heavily.
    """
    terms = [
        ca * cb * xi(kernel, pa, pb) for ca, pa in combo_a for cb, pb in combo_b
    ]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def sigma_cross(k, grid, p, q, family="gamma", direction=Direction.RIGHT):
    """n Cov(ratio_p, ratio_q) by the delta method with sample plug-ins,
    expanded by hand into the covariances of s and r."""
    lam = family == "lambda"
    den = (lambda x: combo_r2(x, direction)) if lam else combo_r1
    base = [float(b) for b in grid.base_probs]

    def plug(x):
        i = base.index(x)
        lo, hi, med = grid.x_low[i], grid.x_high[i], grid.x_median
        if not lam:
            r = hi - lo
        else:
            r = med - lo if direction is Direction.RIGHT else hi - med
        return r, (hi + lo - 2.0 * med) / r

    rp, cp = plug(p)
    rq, cq = plug(q)
    a = cov_engine(k, combo_s(p), combo_s(q))[0]
    b = cov_engine(k, combo_s(p), den(q))[0]
    c = cov_engine(k, den(p), combo_s(q))[0]
    d = cov_engine(k, den(p), den(q))[0]
    return k.n * (a - cq * b - cp * c + cp * cq * d) / (rp * rq)


def random_kernel(rng, p, q):
    probs = {p, q, 1.0 - p, 1.0 - q, 0.5}
    g_at = {prob: float(rng.uniform(0.2, 30.0)) for prob in probs}
    return RefKernel(int(rng.integers(10, 10_000)), g_at)


def bridge_var(k, combo):
    """Var of a linear combination of quantiles by the library's bridge form,
    on the fixed probability layout sorted(k.g_at)."""
    probs = np.array(sorted(k.g_at))
    coef = np.zeros(probs.size)
    for c, p in combo:
        coef[np.flatnonzero(probs == p)[0]] += c
    g = np.array([k.g_at[p] for p in probs])
    return bridge_variance(probs, coef * g) / k.n


def bridge_cov(k, combo_a, combo_b):
    """Cov by polarization: (Var(a + b) - Var(a - b)) / 4."""
    neg_b = [(-c, p) for c, p in combo_b]
    return (bridge_var(k, combo_a + combo_b) - bridge_var(k, combo_a + neg_b)) / 4.0


def library_cross(grid, kernel, ma, mb):
    """n Cov of two measures' estimators from the engine's gradients, each
    spread over the sorted grid (zero off the measure's own points)."""
    order = np.argsort(grid.probs)

    def weights(m):
        _, [(_, take)] = point_sets([m], grid.base_probs)
        _, slopes, terms, _, _ = group_curve(grid.x[None], grid.probs, take, [m])
        v = np.zeros(grid.probs.size)
        v[take[0]] = gradient(*terms, slopes)[0, 0] * kernel.g[take[0]]
        return v[order]

    va, vb = weights(ma), weights(mb)
    probs = grid.probs[order]
    return (bridge_variance(probs, va + vb) - bridge_variance(probs, va - vb)) / 4.0


def test_xi_examples():
    k = RefKernel(1, {0.5: 1.0})
    assert xi(k, 0.5, 0.5) == 0.25
    k2 = RefKernel(100, {0.25: 2.0, 0.75: 2.0})
    assert xi(k2, 0.25, 0.75) == pytest.approx(0.25 * 0.25 * 4.0 / 100, rel=1e-15)
    rng = np.random.default_rng(1)
    for _ in range(50):
        p, q = rng.uniform(0.01, 0.99, size=2)
        k3 = RefKernel(7, {float(p): 1.5, float(q): 2.5})
        assert xi(k3, float(p), float(q)) == xi(k3, float(q), float(p))
    # the bridge form on one probability is the xi diagonal
    assert bridge_variance(np.array([0.25]), np.array([2.0])) == pytest.approx(
        100 * xi(k2, 0.25, 0.25), rel=1e-15
    )


def test_xi_missing_probability():
    grid, k = _sample_grid_and_kernel()
    with pytest.raises(ValueError, match="gamma@0.25: the quantile grid lacks"):
        sigma1_sq(k, grid, 0.25)
    with pytest.raises(ValueError, match="lambda@0.25: the quantile grid lacks"):
        sigma2_sq(k, grid, 0.25, Direction.LEFT)
    # a kernel from another grid, of another size or of the same size at
    # other probabilities, would be read at the wrong p: the engine refuses it
    other = grid_for_probs(SortedSample.from_data(np.arange(1.0, 101.0)), [0.2])
    with pytest.raises(ValueError):
        sigma1_sq(XiKernel.from_grid(other), grid, 0.15)
    for probs in ((0.15, 0.3), (0.35, 0.15)):
        _, k_other = _sample_grid_and_kernel(probs=probs)
        assert k_other.g.shape == k.g.shape
        with pytest.raises(ValueError):
            sigma1_sq(k_other, grid, 0.15)
        with pytest.raises(ValueError):
            sigma2_sq(k_other, grid, 0.15, Direction.LEFT)
    auc = build_grid(SortedSample.from_data(np.arange(1.0, 201.0)), j_points=10)
    shifted = np.concatenate([auc.base_probs, 1.0 - auc.base_probs, [0.5]]) + 0.01
    g_shifted = LogNormal(0.0, 1.0).quantile_density(shifted)
    with pytest.raises(ValueError):
        auc_variance(XiKernel(200, shifted, g_shifted), auc, "gamma")
    # the kernel of the grid itself is accepted
    assert sigma1_sq(k, grid, 0.15) > 0.0


def test_xi_kernel_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        XiKernel(n=10, probs=np.array([0.1, 0.9, 0.5]), g=np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        XiKernel(n=10, probs=np.array([0.5]), g=np.array([np.nan]))
    with pytest.raises(ValueError):
        XiKernel(n=10, probs=np.array([0.1, 0.9, 0.5]), g=np.array([1.0, 2.0]))


@pytest.mark.parametrize("seed", range(12))
def test_covariance_expansions_match_engine(seed):
    rng = np.random.default_rng((2024, seed))
    p, q = sorted(rng.uniform(0.02, 0.48, size=2))
    k = random_kernel(rng, p, q)
    checks = [
        (combo_s(p), combo_s(q)),
        (combo_s(p), combo_r1(q)),
        (combo_r1(p), combo_s(q)),
        (combo_r1(p), combo_r1(q)),
        (combo_s(p), combo_r2(q)),
        (combo_r2(p), combo_s(q)),
        (combo_r2(p), combo_r2(q)),
        (combo_s(p), combo_r2(q, Direction.LEFT)),
        (combo_r2(p, Direction.LEFT), combo_s(q)),
        (combo_r2(p, Direction.LEFT), combo_r2(q, Direction.LEFT)),
    ]
    for ca, cb in checks:
        want, magnitude = cov_engine(k, ca, cb)
        spread = cov_engine(k, ca, ca)[1] + cov_engine(k, cb, cb)[1]
        got = bridge_cov(k, ca, cb)
        assert abs(got - want) <= max(1e-14 * abs(want), 5e-15 * (magnitude + spread))
    # variances of random linear combinations of all five quantiles
    probs = sorted(k.g_at)
    for _ in range(20):
        combo = [(float(c), prob) for c, prob in zip(rng.normal(size=len(probs)), probs)]
        want, magnitude = cov_engine(k, combo, combo)
        got = bridge_var(k, combo)
        assert abs(got - want) <= max(1e-14 * abs(want), 5e-15 * magnitude)


@pytest.mark.parametrize("shared", [True, False])
def test_bridge_variance_rows_equal_row_by_row_calls(shared):
    # probability rows per measure (K, 1, P) or per measure and sample (K, T, P)
    rng = np.random.default_rng(19)
    K, T, P = 4, 6, 9
    probs = np.sort(rng.uniform(0.01, 0.99, size=(K, 1 if shared else T, P)), axis=-1)
    v = rng.normal(size=(K, T, P))
    got = bridge_variance(probs, v)
    assert got.shape == (K, T)
    for k in range(K):
        for t in range(T):
            want = bridge_variance(probs[k, 0 if shared else t], v[k, t])
            assert got[k, t] == pytest.approx(want, rel=1e-15, abs=0.0)


def test_every_variance_reaches_the_one_gradient(monkeypatch):
    from skewkit import asymptotics, inference

    def refuse(*args, **kwargs):
        raise RuntimeError("gradient reached")

    s = SortedSample.from_data(np.random.default_rng(8).lognormal(size=300))
    rows = SortedSample(s.values[None])
    point, auc = grid_for_probs(s, [0.1]), build_grid(s, j_points=20)
    monkeypatch.setattr(asymptotics, "gradient", refuse)
    for call in (
        lambda: inference.interval(s, parse_measure("gamma_star@0.1")),
        lambda: inference.interval(s, parse_measure("auc_lambda", j_points=20)),
        lambda: inference.interval_rows(rows, [parse_measure("lambda@0.1")]),
        lambda: inference.interval_rows(rows, [parse_measure("auc_gamma", j_points=20)]),
        lambda: sigma1_sq(XiKernel.from_grid(point), point, 0.1),
        lambda: sigma2_sq(XiKernel.from_grid(point), point, 0.1, Direction.LEFT),
        lambda: auc_variance(XiKernel.from_grid(auc), auc, "lambda", weighted=True),
    ):
        with pytest.raises(RuntimeError, match="gradient reached"):
            call()


def test_cov_r1_r1_variance_specialization():
    rng = np.random.default_rng(3)
    p = 0.2
    k = random_kernel(rng, p, p)
    var = xi(k, 1 - p, 1 - p) - 2 * xi(k, p, 1 - p) + xi(k, p, p)
    assert bridge_var(k, combo_r1(p)) == pytest.approx(var, rel=1e-14)


def test_cov_s_r1_vanishes_for_symmetric_kernel():
    # g(p) = g(1-p) makes every term cancel (e.g. any normal distribution)
    for p in (0.05, 0.2, 0.4):
        g = 1.0 / float(np.exp(-0.5 * special.ndtri(p) ** 2) / math.sqrt(2 * math.pi))
        k = RefKernel(50, {p: g, 1 - p: g, 0.5: math.sqrt(2 * math.pi)})
        scale = abs(bridge_var(k, combo_s(p)))
        assert abs(bridge_cov(k, combo_s(p), combo_r1(p))) <= 1e-14 * scale


def test_transpose_identity():
    # the polarized bridge covariance is exactly symmetric
    rng = np.random.default_rng(4)
    for _ in range(20):
        p, q = (float(v) for v in rng.uniform(0.02, 0.48, size=2))
        k = random_kernel(rng, p, q)
        assert bridge_cov(k, combo_s(p), combo_r1(q)) == bridge_cov(k, combo_r1(q), combo_s(p))
        assert bridge_cov(k, combo_s(p), combo_r2(q)) == bridge_cov(k, combo_r2(q), combo_s(p))


def _sample_grid_and_kernel(seed=11, n=400, probs=(0.15, 0.35)):
    rng = np.random.default_rng(seed)
    s = SortedSample.from_data(rng.exponential(size=n))
    grid = grid_for_probs(s, list(probs))
    return grid, XiKernel.from_grid(grid)


def test_sigma_cross_diagonal_equals_pointwise_variances():
    # one-hot gradients on a two-point grid against the hand expansion
    grid, k = _sample_grid_and_kernel()
    ref = RefKernel.from_grid(grid)
    for p in (0.15, 0.35):
        assert sigma1_sq(k, grid, p) == pytest.approx(
            sigma_cross(ref, grid, p, p, "gamma"), rel=1e-12
        )
        for d in Direction:
            assert sigma2_sq(k, grid, p, d) == pytest.approx(
                sigma_cross(ref, grid, p, p, "lambda", d), rel=1e-12
            )


def test_sigma_cross_symmetric_in_p_q():
    grid, k = _sample_grid_and_kernel()
    ref = RefKernel.from_grid(grid)
    for kind, family in ((MeasureKind.GAMMA, "gamma"), (MeasureKind.LAMBDA, "lambda")):
        ma, mb = SkewMeasure(kind, p=0.15), SkewMeasure(kind, p=0.35)
        a = library_cross(grid, k, ma, mb)
        assert a == library_cross(grid, k, mb, ma)
        assert a == pytest.approx(sigma_cross(ref, grid, 0.15, 0.35, family), rel=1e-12)
        assert a == pytest.approx(sigma_cross(ref, grid, 0.35, 0.15, family), rel=1e-12)


@pytest.mark.parametrize("n", [50, 1_000_000])
@pytest.mark.parametrize("p", [0.001, 0.05, 0.25, 0.49])
def test_pointwise_variances_match_reference(n, p):
    rng = np.random.default_rng((n, 18))
    s = SortedSample.from_data(rng.lognormal(size=n))
    grid = grid_for_probs(s, [p])
    k = XiKernel.from_grid(grid)
    ref = RefKernel.from_grid(grid)
    assert sigma1_sq(k, grid, p) == pytest.approx(sigma_cross(ref, grid, p, p), rel=1e-12)
    for d in Direction:
        assert sigma2_sq(k, grid, p, d) == pytest.approx(
            sigma_cross(ref, grid, p, p, "lambda", d), rel=1e-12
        )


def test_sigma1_handles_symmetric_data():
    # the plug-in gradient never divides by s_p, so exactly symmetric data
    # falls back on nVar(s)/r^2
    values = np.concatenate([np.arange(1.0, 51.0), 102.0 - np.arange(1.0, 51.0)])
    s = SortedSample.from_data(values)
    grid = grid_for_probs(s, [0.25])
    k = XiKernel.from_grid(grid)
    got = sigma1_sq(k, grid, 0.25)
    ref = RefKernel.from_grid(grid)
    var_s = cov_engine(ref, combo_s(0.25), combo_s(0.25))[0]
    want = k.n * var_s / (grid.x_high[0] - grid.x_low[0]) ** 2
    assert got == pytest.approx(want, rel=1e-12)
    assert got >= 0.0


def test_scale_equivariance_of_variances():
    rng = np.random.default_rng(12)
    data = rng.lognormal(size=500)
    s = SortedSample.from_data(data)
    t = s.transformed(7.5, 0.0)
    g1 = grid_for_probs(s, [0.2])
    g2 = grid_for_probs(t, [0.2])
    k1 = XiKernel.from_grid(g1)
    k2 = XiKernel.from_grid(g2)
    assert sigma1_sq(k2, g2, 0.2) == pytest.approx(sigma1_sq(k1, g1, 0.2), rel=1e-10)
    assert sigma2_sq(k2, g2, 0.2) == pytest.approx(sigma2_sq(k1, g1, 0.2), rel=1e-10)
    ga = build_grid(s, j_points=25)
    gb = build_grid(t, j_points=25)
    for fam, weighted in (("gamma", False), ("lambda", False), ("gamma", True)):
        va = auc_variance(XiKernel.from_grid(ga), ga, fam, weighted=weighted)
        vb = auc_variance(XiKernel.from_grid(gb), gb, fam, weighted=weighted)
        assert vb == pytest.approx(va, rel=1e-10)


def test_xi_matrix_positive_semidefinite():
    rng = np.random.default_rng(13)
    for _ in range(20):
        probs = np.sort(rng.uniform(0.01, 0.99, size=10))
        g = rng.uniform(0.1, 20.0, size=10)
        k = RefKernel(int(rng.integers(5, 500)), {float(p): float(gv) for p, gv in zip(probs, g)})
        mat = np.array([[xi(k, float(a), float(b)) for b in probs] for a in probs])
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() >= -1e-10 * max(1.0, eigs.max())
        # the bridge form is the same quadratic form: c' Xi c = Var(c' xhat)
        c = rng.normal(size=10)
        assert bridge_variance(probs, c * g) / k.n == pytest.approx(c @ mat @ c, rel=1e-10)


def test_auc_variance_matches_naive_double_loop():
    rng = np.random.default_rng(14)
    s = SortedSample.from_data(rng.exponential(size=300))
    grid = build_grid(s, j_points=25)
    k = XiKernel.from_grid(grid)
    ref = RefKernel.from_grid(grid)
    pj = [float(p) for p in grid.base_probs]
    for fam in ("gamma", "lambda"):
        naive = np.mean([[sigma_cross(ref, grid, a, b, fam) for b in pj] for a in pj])
        fast = auc_variance(k, grid, fam)
        assert fast == pytest.approx(float(naive), rel=1e-12)
    naive_w = np.mean([
        [a * b * sigma_cross(ref, grid, a, b, "gamma") for b in pj] for a in pj
    ])
    assert auc_variance(k, grid, "gamma", weighted=True) == pytest.approx(
        float(naive_w), rel=1e-12
    )
    naive_left = np.mean([
        [sigma_cross(ref, grid, a, b, "lambda", Direction.LEFT) for b in pj] for a in pj
    ])
    assert auc_variance(k, grid, "lambda", direction=Direction.LEFT) == pytest.approx(
        float(naive_left), rel=1e-12
    )


@pytest.mark.parametrize("n", [50, 200, 5000])
@pytest.mark.parametrize("family", ["gamma", "lambda"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("direction", [Direction.RIGHT, Direction.LEFT])
def test_auc_variance_quadratic_form_matches_sigma_cross(n, family, weighted, direction):
    # the O(J) Brownian-bridge form against the naive (1/J^2) double sum of
    # pointwise delta-method covariances, for every AUC kind and direction
    rng = np.random.default_rng((n, 17))
    s = SortedSample.from_data(rng.lognormal(size=n))
    grid = build_grid(s, j_points=20)
    k = XiKernel.from_grid(grid)
    ref = RefKernel.from_grid(grid)
    pj = [float(p) for p in grid.base_probs]
    naive = np.mean([
        [(a * b if weighted else 1.0) * sigma_cross(ref, grid, a, b, family, direction)
         for b in pj]
        for a in pj
    ])
    got = auc_variance(k, grid, family, weighted=weighted, direction=direction)
    assert got == pytest.approx(float(naive), rel=1e-12)
    assert got > 0.0


def test_auc_variance_two_point_grid_equals_mean_of_cells():
    rng = np.random.default_rng(15)
    s = SortedSample.from_data(rng.exponential(size=500))
    grid = build_grid(s, j_points=2)
    k = XiKernel.from_grid(grid)
    ref = RefKernel.from_grid(grid)
    cells = [
        sigma_cross(ref, grid, float(a), float(b), "gamma")
        for a in grid.base_probs for b in grid.base_probs
    ]
    assert auc_variance(k, grid, "gamma") == pytest.approx(np.mean(cells), rel=1e-13)


# --- Monte Carlo oracles at the scale the estimator displays call for -------

def _type8_rows(X, probs):
    n = X.shape[-1]
    h = np.clip((n + 1.0 / 3.0) * probs + 1.0 / 3.0, 1.0, float(n))
    fl = np.floor(h).astype(int)
    fr = h - fl
    lo = X[..., fl - 1]
    hi = X[..., np.minimum(fl + 1, n) - 1]
    return lo + fr * (hi - lo)


def test_sigma1_matches_simulation_normal():
    # n Var(g_p) at p = 0.25 for the standard normal, exact-g plug-in,
    # against 20,000 replicated samples of n = 10,000
    dist = Normal(0.0, 1.0)
    p, n, reps = 0.25, 10_000, 20_000
    probs = np.array([p, 1 - p, 0.5])
    grid = population_grid(dist, base_probs=[p])
    k = XiKernel(n=n, probs=grid.probs, g=dist.quantile_density(grid.probs))
    predicted = sigma1_sq(k, grid, p)

    rng = np.random.default_rng(160)
    gvals = np.empty(reps)
    for lo in range(0, reps, 250):
        m = min(250, reps - lo)
        X = rng.standard_normal((m, n))
        X.sort(axis=1)
        Q = _type8_rows(X, probs)
        s = Q[:, 1] + Q[:, 0] - 2 * Q[:, 2]
        r1 = Q[:, 1] - Q[:, 0]
        gvals[lo : lo + m] = s / r1
    empirical = n * gvals.var(ddof=1)
    assert empirical == pytest.approx(predicted, rel=0.05)


def test_auc_variance_matches_simulation_lognormal():
    # n Var(AUC-hat_gamma) for LN(0,1), n = 1000, against 20,000 samples;
    # the double sum is at the (1/J)-mean statistic scale, so the simulated
    # statistic here is the plain mean of the gamma curve over the grid
    dist = LogNormal(0.0, 1.0)
    n, reps, J = 1000, 20_000, 100
    pj = midpoint_probs(J)
    probs = np.concatenate([pj, 1 - pj, [0.5]])
    grid = population_grid(dist, j_points=J)
    k = XiKernel(n=n, probs=grid.probs, g=dist.quantile_density(grid.probs))
    predicted = auc_variance(k, grid, "gamma")

    rng = np.random.default_rng(161)
    vals = np.empty(reps)
    for lo in range(0, reps, 500):
        m = min(500, reps - lo)
        X = np.exp(rng.standard_normal((m, n)))
        X.sort(axis=1)
        Q = _type8_rows(X, probs)
        xlo, xhi, xm = Q[:, :J], Q[:, J : 2 * J], Q[:, 2 * J]
        gam = (xhi + xlo - 2 * xm[:, None]) / (xhi - xlo)
        vals[lo : lo + m] = gam.mean(axis=1)
    empirical = n * vals.var(ddof=1)
    assert empirical == pytest.approx(predicted, rel=0.10)
