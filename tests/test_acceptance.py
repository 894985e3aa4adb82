"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import math
import time

import numpy as np
from scipy import special, stats

from skewkit import (
    Beta,
    ChiSquare,
    Direction,
    Exponential,
    FisherF,
    Gamma,
    LogNormal,
    Normal,
    ParetoII,
    SimConfig,
    SortedSample,
    Weibull,
    parse_measure,
    population_measure,
    quantile_type8,
    run_coverage,
)
from skewkit.asymptotics import XiKernel
from skewkit.skewness import (
    MeasureKind,
    SkewMeasure,
    build_grid,
    estimate,
    estimate_pointwise,
    midpoint_probs,
    population_grid,
)
from test_asymptotics import (
    RefKernel,
    combo_r1,
    combo_r2,
    combo_s,
    cov_engine,
    library_cross,
    xi,
)


def report(number: int, description: str, checks: dict) -> None:
    ok = all(checks.values())
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    failed = [name for name, good in checks.items() if not good]
    assert not failed, f"criterion {number} failed: {failed}"


# --------------------------------------------------------------------------
# criterion 1: reference population values for five analytic distributions


def oracle_quantile(row: str, p):
    """Independent scipy-based quantile functions for the pinned rows."""
    p = np.asarray(p, dtype=float)
    return {
        "lognormal": lambda: np.exp(special.ndtri(p)),
        "exp": lambda: -np.log1p(-p),
        "chisq5": lambda: stats.chi2.ppf(p, 5),
        "weibull2": lambda: np.sqrt(-np.log1p(-p)),
        "beta510": lambda: stats.beta.ppf(p, 5, 10),
    }[row]()


def oracle_auc_lambda(row: str, j_points: int = 100) -> float:
    pj = midpoint_probs(j_points)
    hi, lo, med = (oracle_quantile(row, q) for q in (1 - pj, pj, 0.5))
    lam = (hi + lo - 2 * med) / (med - lo)
    return float(lam.mean() * 0.5)


# frozen reference rows: gamma and lambda at p = 0.05..0.25, then
# AUC_gamma, AUC_gamma*, AUC_lambda*; the AUC_lambda cells are handled
# separately (see below)
REFERENCE_ROWS = {
    "lognormal": (
        LogNormal(0.0, 1.0),
        [0.676, 0.565, 0.476, 0.398, 0.325],
        [4.180, 2.602, 1.819, 1.320, 0.963],
        {"auc_gamma": 0.175, "auc_gamma_star": 0.028, "auc_lambda_star": 0.092},
    ),
    "exp": (
        Exponential(1.0),
        [0.564, 0.465, 0.388, 0.322, 0.262],
        [2.587, 1.738, 1.269, 0.950, 0.710],
        {"auc_gamma": 0.144, "auc_gamma_star": 0.022, "auc_lambda_star": 0.065},
    ),
    "chisq5": (
        ChiSquare(5.0),
        [0.354, 0.281, 0.230, 0.188, 0.151],
        [1.096, 0.782, 0.596, 0.462, 0.356],
        {"auc_gamma": 0.087, "auc_gamma_star": 0.013, "auc_lambda_star": 0.032},
    ),
    "weibull2": (
        Weibull(2.0),
        [0.194, 0.148, 0.118, 0.095, 0.076],
        [0.482, 0.348, 0.269, 0.211, 0.164],
        {"auc_gamma": 0.046, "auc_gamma_star": 0.007, "auc_lambda_star": 0.015},
    ),
    "beta510": (
        Beta(5.0, 10.0),
        [0.106, 0.083, 0.068, 0.055, 0.044],
        [0.238, 0.182, 0.145, 0.117, 0.092],
        {"auc_gamma": 0.026, "auc_gamma_star": 0.004, "auc_lambda_star": 0.008},
    ),
}

PS = (0.05, 0.10, 0.15, 0.20, 0.25)


def test_criterion_1_table2_population_values():
    start = time.perf_counter()
    checks = {}
    for row, (dist, gammas, lambdas, aucs) in REFERENCE_ROWS.items():
        for p, want in zip(PS, gammas):
            got = population_measure(dist, parse_measure(f"gamma@{p}"))
            checks[f"{row} gamma@{p}"] = abs(got - want) <= 0.002
        for p, want in zip(PS, lambdas):
            got = population_measure(dist, parse_measure(f"lambda@{p}"))
            checks[f"{row} lambda@{p}"] = abs(got - want) <= 0.002
        for token, want in aucs.items():
            got = population_measure(dist, parse_measure(token))
            checks[f"{row} {token}"] = abs(got - want) <= 0.002
        # The lambda curve is singular at p -> 0, which makes its area
        # sensitive to the quadrature scheme; these cells are pinned to the
        # independent J=100 midpoint oracle rather than to rounded reference
        # values whose quadrature is not reproducible.
        got = population_measure(dist, parse_measure("auc_lambda"))
        checks[f"{row} auc_lambda (oracle)"] = abs(got - oracle_auc_lambda(row)) <= 0.002
    elapsed = time.perf_counter() - start
    checks["runtime < 1 s"] = elapsed < 1.0
    report(1, f"reference population values ({elapsed:.2f}s)", checks)


# --------------------------------------------------------------------------
# criterion 2: pointwise lambda coverage regression


def test_criterion_2_pointwise_lambda_coverage():
    start = time.perf_counter()
    cfg = SimConfig(
        dist=LogNormal(0.0, 1.0), n=1000, trials=1000,
        measures=(parse_measure("lambda@0.1"),), seed=101, threads="auto",
    )
    res = run_coverage(cfg).results[0]
    elapsed = time.perf_counter() - start
    checks = {
        "coverage in [0.94, 0.98] (target 0.960)": 0.94 <= res.coverage <= 0.98,
        "width within 10% of 1.24": abs(res.mean_width - 1.24) <= 0.124,
        "no failed trials": res.failures == 0,
        "runtime < 30 s": elapsed < 30.0,
    }
    report(
        2,
        f"LN(0,1) n=1000 lambda@0.1: cp={res.coverage:.3f} w={res.mean_width:.3f} "
        f"({elapsed:.1f}s)",
        checks,
    )


# --------------------------------------------------------------------------
# criterion 3: AUC coverage regressions


def test_criterion_3_auc_coverage():
    start = time.perf_counter()
    cfg_a = SimConfig(
        dist=Normal(2.0, 1.0), n=500, trials=1000,
        measures=(parse_measure("auc_gamma"),), seed=102, threads="auto",
    )
    res_a = run_coverage(cfg_a).results[0]
    elapsed_a = time.perf_counter() - start

    start = time.perf_counter()
    cfg_b = SimConfig(
        dist=Exponential(1.0), n=100, trials=1000,
        measures=(parse_measure("auc_lambda"),), seed=103, threads="auto",
    )
    res_b = run_coverage(cfg_b).results[0]
    elapsed_b = time.perf_counter() - start

    # The 0.25 width target is quoted at the scale of the plain (1/J) curve
    # mean, which is exactly twice this package's AUC (the integral over
    # [0, 0.5], the scale criterion 1 pins); doubling the measured width
    # converts between the two scales.
    mean_scale_width = 2.0 * res_a.mean_width
    checks = {
        "N(2,1) coverage in [0.955, 0.99] (target 0.969)": 0.955 <= res_a.coverage <= 0.99,
        "N(2,1) width within 15% of 0.25 (mean scale)": abs(mean_scale_width - 0.25) <= 0.0375,
        "EXP(1) coverage in [0.945, 0.985] (target 0.966)": 0.945 <= res_b.coverage <= 0.985,
        "no failed trials": res_a.failures == 0 and res_b.failures == 0,
        "runtime < 60 s each": elapsed_a < 60.0 and elapsed_b < 60.0,
    }
    report(
        3,
        f"AUC coverage: N(2,1) cp={res_a.coverage:.3f} 2w={mean_scale_width:.3f} "
        f"({elapsed_a:.1f}s); EXP(1) cp={res_b.coverage:.3f} ({elapsed_b:.1f}s)",
        checks,
    )


# --------------------------------------------------------------------------
# criterion 4: covariance formulas against a brute-force simulation oracle


def _type8_rows(X: np.ndarray, probs: np.ndarray) -> np.ndarray:
    n = X.shape[-1]
    h = np.clip((n + 1.0 / 3.0) * probs + 1.0 / 3.0, 1.0, float(n))
    fl = np.floor(h).astype(int)
    fr = h - fl
    lo = X[..., fl - 1]
    hi = X[..., np.minimum(fl + 1, n) - 1]
    return lo + fr * (hi - lo)


def test_criterion_4_covariance_oracle():
    start = time.perf_counter()
    dist = Exponential(1.0)
    n, reps = 10_000, 20_000
    pairs = [(0.2, 0.3), (0.1, 0.4), (0.25, 0.25)]
    need = sorted({v for a, b in pairs for v in (a, b, 1 - a, 1 - b)} | {0.5})
    probs = np.array(need)

    # brute-force oracle: empirical covariances over replicated samples
    rng = np.random.default_rng(20260810)
    cols = {v: np.empty(reps) for v in need}
    for lo_idx in range(0, reps, 250):
        m = min(250, reps - lo_idx)
        X = rng.standard_exponential((m, n))
        X.sort(axis=1)
        Q = _type8_rows(X, probs)
        for i, v in enumerate(need):
            cols[v][lo_idx : lo_idx + m] = Q[:, i]

    ref = RefKernel(n, {v: float(dist.quantile_density(v)) for v in need})

    def emp_cov(u, v):
        return float(np.cov(u, v)[0, 1])

    def ref_cov(combo_a, combo_b):
        return cov_engine(ref, combo_a, combo_b)[0]

    checks = {}
    for a, b in pairs:
        sa = cols[1 - a] + cols[a] - 2 * cols[0.5]
        sb = cols[1 - b] + cols[b] - 2 * cols[0.5]
        r1a, r1b = cols[1 - a] - cols[a], cols[1 - b] - cols[b]
        r2a, r2b = cols[0.5] - cols[a], cols[0.5] - cols[b]
        expansions = [
            ("cov_s_s", emp_cov(sa, sb), ref_cov(combo_s(a), combo_s(b))),
            ("cov_s_r1", emp_cov(sa, r1b), ref_cov(combo_s(a), combo_r1(b))),
            ("cov_r1_s", emp_cov(r1a, sb), ref_cov(combo_r1(a), combo_s(b))),
            ("cov_r1_r1", emp_cov(r1a, r1b), ref_cov(combo_r1(a), combo_r1(b))),
            ("cov_s_r2", emp_cov(sa, r2b), ref_cov(combo_s(a), combo_r2(b))),
            ("cov_r2_s", emp_cov(r2a, sb), ref_cov(combo_r2(a), combo_s(b))),
            ("cov_r2_r2", emp_cov(r2a, r2b), ref_cov(combo_r2(a), combo_r2(b))),
        ]
        # the library's delta-method cross-covariances, by polarization
        grid = population_grid(dist, base_probs=sorted({a, b}))
        kernel = XiKernel(probs=grid.probs, g=dist.quantile_density(grid.probs))
        for family, kind, ra, rb in (
            ("gamma", MeasureKind.GAMMA, r1a, r1b),
            ("lambda", MeasureKind.LAMBDA, r2a, r2b),
        ):
            expansions.append((
                f"sigma_cross {family}", n * emp_cov(sa / ra, sb / rb),
                library_cross(grid, kernel, SkewMeasure(kind, p=a), SkewMeasure(kind, p=b)),
            ))
        for name, empirical, predicted in expansions:
            rel = abs(empirical - predicted) / abs(predicted)
            checks[f"{name} @ ({a},{b}) rel {rel:.3f}"] = rel <= 0.07
    elapsed = time.perf_counter() - start
    report(4, f"covariance oracle, 20000 x n=10000 EXP(1) ({elapsed:.1f}s)", checks)


# --------------------------------------------------------------------------
# criterion 5: small-n conservatism


def test_criterion_5_small_n_conservatism():
    start = time.perf_counter()
    cfg = SimConfig(
        dist=LogNormal(0.0, 1.0), n=50, trials=1000,
        measures=(parse_measure("auc_gamma"),), seed=105, threads="auto",
    )
    res = run_coverage(cfg).results[0]
    elapsed = time.perf_counter() - start
    checks = {
        "coverage >= 0.98 (target 0.998)": res.coverage >= 0.98,
        "failure rate <= 1%": res.failures <= 10,
    }
    report(5, f"LN(0,1) n=50 AUC_gamma: cp={res.coverage:.3f} ({elapsed:.1f}s)", checks)


# --------------------------------------------------------------------------
# criterion 6: property suites


ALL_TOKENS = [
    "gamma@0.1", "lambda@0.1", "gamma_star@0.1", "lambda_star@0.1",
    "auc_gamma", "auc_lambda", "auc_gamma_star", "auc_lambda_star", "b3",
]

DISCRETIZATION_ZOO = [
    Normal(2.0, 1.0), LogNormal(0.0, 1.0), LogNormal(1.0, 2.0), Exponential(1.0),
    ChiSquare(2.0), ChiSquare(5.0), ChiSquare(25.0), ParetoII(1.0, 4.0),
    ParetoII(1.0, 7.0), Weibull(0.5), Weibull(2.0), Weibull(10.0),
    Gamma(2.0), Gamma(5.0), Beta(2.0, 5.0), Beta(5.0, 10.0),
    FisherF(1.0, 6.0), FisherF(2.0, 8.0),
]

LIGHT_TAILED = [
    Normal(2.0, 1.0), ChiSquare(25.0), Weibull(2.0), Weibull(10.0),
    Beta(2.0, 5.0), Beta(5.0, 10.0),
]


def test_criterion_6_property_suites():
    start = time.perf_counter()
    checks = {}

    # P1: exact affine invariance of every measure estimate
    drift = 0.0
    for seed in (60, 61, 62):
        rng = np.random.default_rng(seed)
        s = SortedSample.from_data(rng.lognormal(size=300))
        t = SortedSample.from_data(s.values * 3.7 - 2.5)
        for tok in ALL_TOKENS:
            m = parse_measure(tok)
            a, b = estimate(s, m), estimate(t, m)
            drift = max(drift, abs(a - b) / max(abs(a), 1e-12))
    checks[f"P1 affine drift {drift:.2e} <= 1e-10"] = drift <= 1e-10

    # P3: sign flip for the gamma family; lambda family flips with the
    # direction swapped
    flip = 0.0
    for seed in (63, 64):
        rng = np.random.default_rng(seed)
        s = SortedSample.from_data(rng.lognormal(size=300))
        neg = SortedSample.from_data(-s.values)
        for tok in ("gamma@0.1", "gamma_star@0.1", "auc_gamma", "auc_gamma_star", "b3"):
            m = parse_measure(tok)
            a, b = estimate(s, m), estimate(neg, m)
            flip = max(flip, abs(a + b) / max(abs(a), 1e-12))
        for tok in ("lambda@0.1", "auc_lambda", "auc_lambda_star"):
            right = parse_measure(tok)
            left = parse_measure(tok, direction=Direction.LEFT)
            a, b = estimate(s, right), estimate(neg, left)
            flip = max(flip, abs(a + b) / max(abs(a), 1e-12))
    checks[f"P3 sign-flip drift {flip:.2e} <= 1e-12"] = flip <= 1e-12

    # gamma-family bound: |g_p| <= 1 pointwise, |AUC_gamma| <= 0.5
    bound_ok = True
    rng = np.random.default_rng(65)
    for _ in range(20):
        s = SortedSample.from_data(rng.exponential(size=int(rng.integers(30, 500))))
        grid = build_grid(s, 100)
        gam = [estimate_pointwise(grid, SkewMeasure(MeasureKind.GAMMA, p=p))
               for p in grid.base_probs]
        bound_ok &= bool(np.all(np.abs(gam) <= 1.0 + 1e-12))
        bound_ok &= abs(estimate(s, parse_measure("auc_gamma"))) <= 0.5 + 1e-12
    checks["gamma bound |g_p| <= 1, |AUC_gamma| <= 0.5"] = bound_ok

    # discretization J=100 vs J=1000 (AUC_lambda only where the curve is
    # bounded; heavy tails provably exceed the bound, see decisions ledger)
    disc_ok = True
    for dist in DISCRETIZATION_ZOO:
        for tok in ("auc_gamma", "auc_gamma_star", "auc_lambda_star"):
            m, fine = parse_measure(tok), parse_measure(tok, j_points=1000)
            gap = abs(population_measure(dist, m) - population_measure(dist, fine))
            disc_ok &= gap <= 0.002
    for dist in LIGHT_TAILED:
        m, fine = parse_measure("auc_lambda"), parse_measure("auc_lambda", j_points=1000)
        gap = abs(population_measure(dist, m) - population_measure(dist, fine))
        disc_ok &= gap <= 0.002
    checks["AUC discretization |J=100 - J=1000| <= 0.002"] = disc_ok

    # simulation determinism across thread counts
    reports_by_threads = [
        run_coverage(SimConfig(
            dist=LogNormal(0.0, 1.0), n=100, trials=50,
            measures=(parse_measure("auc_gamma"), parse_measure("lambda@0.1")),
            seed=66, threads=t,
        ))
        for t in (1, 4, 8)
    ]
    det_ok = all(r.to_json() == reports_by_threads[0].to_json() for r in reports_by_threads[1:])
    for r in reports_by_threads[1:]:
        for x, y in zip(reports_by_threads[0].results, r.results):
            det_ok &= x.coverage == y.coverage
            det_ok &= abs(x.mean_width - y.mean_width) <= 1e-12 * max(1.0, x.mean_width)
    checks["determinism across threads 1/4/8"] = det_ok

    # xi-matrix positive semidefiniteness on random probability sets
    psd_ok = True
    rng = np.random.default_rng(67)
    for _ in range(10):
        probs = np.sort(rng.uniform(0.01, 0.99, size=10))
        k = RefKernel(
            int(rng.integers(10, 1000)),
            {float(p): float(g) for p, g in zip(probs, rng.uniform(0.1, 20.0, 10))},
        )
        mat = np.array([[xi(k, float(a), float(b)) for b in probs] for a in probs])
        eigs = np.linalg.eigvalsh(mat)
        psd_ok &= eigs.min() >= -1e-10 * max(1.0, eigs.max())
    checks["xi matrices PSD"] = psd_ok

    elapsed = time.perf_counter() - start
    report(6, f"property suites ({elapsed:.1f}s)", checks)


# --------------------------------------------------------------------------
# criterion 7: Type-8 quantile oracle


def type8_reference(values, p):
    n = len(values)
    h = (n + 1.0 / 3.0) * p + 1.0 / 3.0
    h = min(max(h, 1.0), float(n))
    floor = math.floor(h)
    frac = h - floor
    lower = values[floor - 1]
    upper = values[min(floor + 1, n) - 1]
    return lower + frac * (upper - lower)


def test_criterion_7_type8_oracle():
    rng = np.random.default_rng(70)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(4, 80))
        values = np.sort(rng.normal(size=n) * float(rng.uniform(0.1, 100.0)))
        p = float(rng.uniform(0.001, 0.999))
        s = SortedSample(values=values)
        if quantile_type8(s, p) != type8_reference(values.tolist(), p):
            mismatches += 1
    s = SortedSample.from_data([10.0, 20.0, 30.0, 40.0, 50.0])
    checks = {
        "1000 random pairs bit-for-bit": mismatches == 0,
        "median of 1..5 grid": quantile_type8(s, 0.5) == 30.0,
        "quartile interpolation": abs(quantile_type8(s, 0.25) - 50.0 / 3.0) < 1e-9,
        "clamp to minimum": quantile_type8(SortedSample.from_data([1.0, 2.0, 3.0, 4.0]), 0.01) == 1.0,
    }
    report(7, "Type-8 estimator matches the independent h-formula oracle", checks)
