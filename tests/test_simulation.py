import json
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from skewkit import (
    BandwidthRule,
    DegenerateScaleError,
    Direction,
    Exponential,
    LogNormal,
    SimConfig,
    SkewkitError,
    SortedSample,
    coverage_standard_error,
    interval,
    parse_measure,
    population_measure,
    run_coverage,
)
from skewkit.inference import interval_rows
from skewkit.quantiles import DEFAULT_BANDWIDTH
from skewkit.simulation import CoverageReport, MeasureCoverage
from skewkit.skewness import build_grid, estimate_auc, estimate_pointwise, grid_for_probs
from skewkit import simulation as simulation_module


def numpy_trial_rng(seed, trial):
    """Trial ``trial``'s generator as numpy builds it from (seed, trial): the
    oracle of ``simulation._chunk_generators``."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def _config(**overrides):
    base = dict(
        dist=LogNormal(0.0, 1.0),
        n=100,
        trials=40,
        measures=(parse_measure("lambda@0.1"), parse_measure("auc_gamma")),
        seed=314,
        threads=1,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_coverage_standard_error_examples():
    assert coverage_standard_error(10_000, 0.95) == pytest.approx(0.00218, abs=1e-5)
    assert coverage_standard_error(10_000, 0.95) < 0.005
    assert coverage_standard_error(1, 0.5) == 0.5
    assert coverage_standard_error(400, 0.95) == pytest.approx(0.0109, abs=1e-4)
    with pytest.raises(ValueError):
        coverage_standard_error(0, 0.95)
    assert coverage_standard_error(10, 0.0) == coverage_standard_error(10, 1.0) == 0.0
    for p0 in (1.5, -0.2, float("nan")):
        with pytest.raises(ValueError, match=r"p0 must lie in \[0, 1\], got " + str(p0)):
            coverage_standard_error(10, p0)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(n=5)
    with pytest.raises(ValueError):
        _config(measures=())
    with pytest.raises(ValueError):
        _config(measures=(parse_measure("b3"),))
    with pytest.raises(ValueError):
        _config(threads=0)
    with pytest.raises(ValueError):
        _config(threads="many")
    with pytest.raises(ValueError):
        _config(level=1.5)
    # built directly, every field is read as from_dict reads it; n, trials
    # and seed are stored as plain ints
    cfg = _config(n=np.int32(100), trials=3.0, seed=np.int64(7))
    assert [(type(v), v) for v in (cfg.n, cfg.trials, cfg.seed)] == [(int, 100), (int, 3), (int, 7)]
    report = run_coverage(cfg)
    assert run_coverage(SimConfig.from_dict(json.loads(report.to_json())["config"])).to_json() == (
        report.to_json()
    )
    for key, value, expected in (
        ("seed", True, "a non-negative integer"),
        ("seed", 7.5, "a non-negative integer"),
        ("seed", np.int64(-1), "a non-negative integer"),
        ("n", 200.5, "an integer of at least 10"),
        ("n", np.int64(9), "an integer of at least 10"),
        ("trials", "three", "a positive integer"),
        ("trials", None, "a positive integer"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"key '{key}' must be {expected}, got {value!r}")):
            _config(**{key: value})
    # a readable value gives the config, and the report bytes, of its
    # from_dict twin; the measures are stored as a hashable tuple
    doc = {"dist": "lognormal(0,1)", "n": 100, "trials": 40, "measures": ["lambda@0.1", "auc_gamma"],
           "seed": 314, "threads": 1}
    for key, value in (
        ("dist", "lognormal(0,1)"), ("bandwidth", 0.05), ("level", "0.5"), ("level", np.float32(0.9)),
        ("threads", np.int64(2)), ("measures", list(_config().measures)),
        ("measures", ["lambda@0.1", "auc_gamma"]), ("measures", "lambda@0.1, auc_gamma"),
    ):
        cfg, twin = _config(**{key: value}), SimConfig.from_dict({**doc, key: value})
        assert cfg == twin and hash(cfg) == hash(twin) and type(cfg.measures) is tuple, (key, value)
        assert run_coverage(cfg).to_json() == run_coverage(twin).to_json(), (key, value)
    # a BandwidthRule stores its fixed bandwidth as a Python float, so the
    # report of a rule built from a numpy float serializes
    rule = BandwidthRule(np.float32(0.05))
    assert type(rule.fixed) is float and rule == BandwidthRule(float(np.float32(0.05)))
    cfg = _config(bandwidth=rule, trials=2)
    assert run_coverage(cfg).to_json() == run_coverage(_config(bandwidth=np.float32(0.05), trials=2)).to_json()
    # an unreadable value raises from_dict's ValueError
    for key, value, message in (
        ("level", None, "key 'level' must be a number strictly inside (0, 1), got None"),
        ("bandwidth", "wide", "key 'bandwidth' must be 'default' or a number in (0, 0.5), got 'wide'"),
        ("dist", 5, "cannot parse distribution 5"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)) as twin:
            SimConfig.from_dict({**doc, key: value})
        with pytest.raises(ValueError, match=f"^{re.escape(str(twin.value))}$"):
            _config(**{key: value})


def test_config_json_round_trip():
    doc = {
        "dist": "lognormal(0,1)",
        "n": 200,
        "trials": 500,
        "level": 0.95,
        "measures": ["auc_gamma", "lambda@0.05"],
        "seed": 42,
        "threads": "auto",
    }
    cfg = SimConfig.from_dict(doc)
    assert cfg.dist == LogNormal(0.0, 1.0)
    assert cfg.trials == 500
    assert [m.label() for m in cfg.measures] == ["auc_gamma", "lambda@0.05"]
    echo = cfg.to_dict()
    assert echo["dist"] == "lognormal(0,1)"
    assert echo["measures"] == ["auc_gamma", "lambda@0.05"]
    assert echo["direction"] == "right"
    # the direction is read in any case, as the --direction flags are
    for direction in ("left", "LEFT", "Left"):
        assert SimConfig.from_dict({**doc, "direction": direction}).to_dict()["direction"] == "left"
    with pytest.raises(ValueError):
        SimConfig.from_dict({"dist": "exp(1)"})


def test_single_trial_report_well_formed():
    report = run_coverage(_config(trials=1))
    for res in report.results:
        assert res.coverage in (0.0, 1.0)
        assert res.mean_width > 0.0
        assert res.failures == 0
    assert not report.failure_rate_exceeded
    assert report.elapsed_seconds >= 0.0


def test_determinism_across_thread_counts():
    reports = [run_coverage(_config(threads=t)) for t in (1, 4, 8)]
    base = reports[0]
    for other in reports[1:]:
        assert other.to_json() == base.to_json()
        for a, b in zip(base.results, other.results):
            assert a.coverage == b.coverage  # bitwise: same covered counts
            assert abs(a.mean_width - b.mean_width) <= 1e-12 * max(1.0, a.mean_width)


def test_truth_uses_population_values():
    report = run_coverage(_config(trials=2))
    by_label = {r.measure.label(): r for r in report.results}
    ln = LogNormal(0.0, 1.0)
    assert by_label["auc_gamma"].truth == pytest.approx(
        population_measure(ln, parse_measure("auc_gamma")), rel=1e-14
    )


def test_failures_are_counted_not_dropped(monkeypatch):
    real_rows = simulation_module.interval_rows

    def flaky(rows, measures, level, rule):
        # deterministically poison a fifth of the trials for one measure
        out = real_rows(rows, measures, level, rule)
        poisoned = [t for t, row in enumerate(rows.values) if int(row[0] * 1e6) % 5 == 0]
        for i, (m, r) in enumerate(zip(measures, out)):
            if m.label() == "lambda@0.1":
                errors = {**r.errors, **{t: DegenerateScaleError([m.p]) for t in poisoned}}
                out[i] = replace(r, errors=errors)
        return out

    monkeypatch.setattr(simulation_module, "interval_rows", flaky)
    report = run_coverage(_config(trials=50))
    by_label = {r.measure.label(): r for r in report.results}
    lam = by_label["lambda@0.1"]
    assert lam.failures > 0
    assert report.failure_reasons.get("DegenerateScaleError") == lam.failures
    assert by_label["auc_gamma"].failures == 0
    # denominator excludes failures
    assert 0.0 <= lam.coverage <= 1.0
    assert report.failure_rate_exceeded  # > 1% of 50 trials


@dataclass(frozen=True, eq=False, repr=False)
class RoundedExponential(Exponential):
    """Exponential draws rounded to a coarse step: ties in every sample."""

    step: float = 0.25

    def sample(self, n, rng):
        return np.round(super().sample(n, rng) / self.step) * self.step


def test_an_overriding_sample_applies_to_every_row_of_a_batch():
    dist, n = RoundedExponential(1.0, step=0.25), 200
    batch = dist.sample(n, [numpy_trial_rng(9, t) for t in range(10)])
    assert batch.shape == (10, n)
    assert np.array_equal(batch, np.round(batch / 0.25) * 0.25)
    for t, row in enumerate(batch):
        assert row.tobytes() == dist.sample(n, numpy_trial_rng(9, t)).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64, 2**96 + 3, np.int64(7)])
def test_chunk_generators_are_numpys_per_trial_generators(seed):
    # trial indices from one word to two, within one chunk and across chunks
    chunks = {range(0, 1311): (0, 1309, 1310), range(2**32 - 1, 2**32 + 1): (2**32 - 1, 2**32)}
    for trials, checked in chunks.items():
        gens = simulation_module._chunk_generators(seed, trials)
        assert len(gens) == len(trials)
        for t in checked:
            got, want = gens[t - trials.start], numpy_trial_rng(seed, t)
            assert got.bit_generator.state == want.bit_generator.state
            assert got.random(200).tobytes() == want.random(200).tobytes()


def test_bulk_seeding_reports_match_per_trial_seeding(monkeypatch):
    cfg = _config(n=40, trials=30, seed=2**64 + 9)
    monkeypatch.setattr(simulation_module, "_CHUNK_ELEMENTS", 7 * 40)  # chunks of 7, 7, 7, 7 and 2
    bulk = run_coverage(cfg).to_json()
    monkeypatch.setattr(
        simulation_module, "_chunk_generators",
        lambda seed, trials: [numpy_trial_rng(seed, t) for t in trials],
    )
    assert run_coverage(cfg).to_json() == bulk


def own_grid_error(sample, measure):
    """The error of the measure's own one-sample grid: the density check of
    the grid build first, then the scale check of the curve."""
    try:
        if measure.is_auc:
            estimate_auc(build_grid(sample, measure.j_points), measure)
        else:
            estimate_pointwise(grid_for_probs(sample, [measure.p]), measure)
    except SkewkitError as exc:
        return exc
    return None


TIE_MEASURES = tuple(parse_measure(t) for t in (
    "gamma@0.05", "gamma@0.25", "lambda@0.05", "lambda@0.1", "lambda@0.25",
    "auc_gamma", "auc_lambda_star",
)) + (parse_measure("lambda@0.25", direction=Direction.LEFT),)
# a simulation config has one lambda direction, so coverage runs take the
# right- and the left-direction measures apart
TIE_GROUPS = (TIE_MEASURES[:-1], TIE_MEASURES[-1:])


@pytest.mark.parametrize("n, step", [(12, 0.25), (40, 0.5)])
def test_tie_failures_match_a_row_by_row_loop(n, step):
    measures = TIE_MEASURES
    dist = RoundedExponential(1.0, step=step)
    draws = [dist.sample(n, numpy_trial_rng(9, t)) for t in range(30)]
    batch = simulation_module.interval_rows(
        SortedSample.from_rows(draws), measures, 0.95, DEFAULT_BANDWIDTH
    )
    loop = Counter()
    for t, draw in enumerate(draws):
        sample = SortedSample.from_data(draw)
        for m, res in zip(measures, batch):
            want = own_grid_error(sample, m)
            try:
                iv = interval(sample, m)
            except SkewkitError as exc:
                loop[m, type(exc).__name__] += 1
                for err in (res.errors[t], want):
                    assert type(err) is type(exc) and str(err) == str(exc)
            else:
                assert want is None
                assert t not in res.errors
                assert res.estimate[t] == pytest.approx(iv.estimate, rel=1e-13)
                assert res.se[t] == pytest.approx(iv.se, rel=1e-13)
    assert loop[measures[0], "QuantileDensityError"] > 0
    assert sum(v for (m, kind), v in loop.items() if kind == "DegenerateScaleError") > 0
    assert sum(len(res.errors) for res in batch) == sum(loop.values())

    failures, reasons = [], Counter()
    for group in TIE_GROUPS:
        report = run_coverage(_config(dist=dist, n=n, trials=30, measures=group, seed=9))
        failures += [r.failures for r in report.results]
        reasons.update(report.failure_reasons)
    assert failures == [
        sum(v for (m, _), v in loop.items() if m == measure) for measure in measures
    ]
    tally = Counter()
    for (_, kind), v in loop.items():
        tally[kind] += v
    assert reasons == tally


@pytest.mark.parametrize("n, step", [(12, 0.25), (40, 0.5)])
def test_chunked_tallies_match_one_chunk_and_a_per_measure_reduction(n, step, monkeypatch):
    dist = RoundedExponential(1.0, step=step)
    configs = [_config(dist=dist, n=n, trials=30, measures=group, seed=9) for group in TIE_GROUPS]
    one_chunk = [run_coverage(cfg).to_json() for cfg in configs]

    # the tallies measure by measure, over one interval_rows call on all trials
    draws = [dist.sample(n, numpy_trial_rng(9, t)) for t in range(30)]
    failed_trials = 0
    for cfg, want in zip(configs, one_chunk):
        batch = interval_rows(SortedSample.from_rows(draws), cfg.measures, 0.95, cfg.bandwidth)
        results, reasons = [], Counter()
        for m, res in zip(cfg.measures, batch):
            truth = population_measure(dist, m)
            failed = np.zeros(30, dtype=bool)
            failed[list(res.errors)] = True
            reasons.update(type(exc).__name__ for exc in res.errors.values())
            n_ok = 30 - int(failed.sum())
            covered = (res.lower <= truth) & (truth <= res.upper) & ~failed
            width = np.where(failed, 0.0, res.upper - res.lower)
            cov, mean_width = (
                (float(covered.sum()) / n_ok, float(width.sum()) / n_ok) if n_ok
                else (math.nan, math.nan)
            )
            results.append(MeasureCoverage(m, truth, cov, mean_width, int(failed.sum())))
        by_measure = CoverageReport(cfg, tuple(results), dict(sorted(reasons.items())))
        failed_trials += sum(reasons.values())
        assert want == by_measure.to_json()
    assert failed_trials > 0

    chunks = []

    def counting_rows(rows, *args):
        chunks.append(rows.values.shape[0])
        return interval_rows(rows, *args)

    monkeypatch.setattr(simulation_module, "_CHUNK_ELEMENTS", 7 * n)
    monkeypatch.setattr(simulation_module, "interval_rows", counting_rows)
    assert [run_coverage(cfg).to_json() for cfg in configs] == one_chunk
    assert chunks == [7, 7, 7, 7, 2] * len(configs)


def test_a_coverage_run_reads_one_population_grid_and_one_grid_per_chunk(monkeypatch):
    from skewkit import distributions, skewness

    calls = Counter()
    quantile, grid_for_probs = distributions.DistributionSpec.quantile, skewness.grid_for_probs

    def counting_quantile(self, p):
        calls["quantile"] += 1
        return quantile(self, p)

    def counting_grid(*args, **kwargs):
        calls["grid_for_probs"] += 1
        return grid_for_probs(*args, **kwargs)

    monkeypatch.setattr(distributions.DistributionSpec, "quantile", counting_quantile)
    monkeypatch.setattr(skewness, "grid_for_probs", counting_grid)
    monkeypatch.setattr(simulation_module, "_CHUNK_ELEMENTS", 10 * 200)
    measures = tuple(parse_measure(t) for t in (
        [f"gamma@{p}" for p in (0.05, 0.1, 0.15, 0.2, 0.25)]
        + [f"lambda@{p}" for p in (0.05, 0.1, 0.15, 0.2, 0.25)]
        + ["auc_gamma", "auc_lambda", "auc_gamma_star", "auc_lambda_star"]
    ))
    report = run_coverage(_config(n=200, trials=25, measures=measures))
    assert len(report.results) == 14
    assert calls == {"quantile": 1, "grid_for_probs": 3}


def test_a_coverage_run_inverts_each_chunk_once_and_memoizes_its_truths(monkeypatch):
    calls = Counter()

    class Spy(LogNormal):
        def quantile(self, p):
            calls["quantile"] += 1
            return super().quantile(p)

        def _quantile(self, p):
            # the truths' probabilities are 1-D, each chunk's uniforms 2-D
            calls["_quantile", np.ndim(p)] += 1
            return super()._quantile(p)

    monkeypatch.setattr(simulation_module, "_CHUNK_ELEMENTS", 10 * 200)
    dist = Spy(0.0, 1.0)
    cfg = _config(dist=dist, n=200, trials=25)  # chunks of 10, 10 and 5 trials
    first = run_coverage(cfg)
    assert calls == {"quantile": 1, ("_quantile", 1): 1, ("_quantile", 2): 3}
    calls.clear()
    assert run_coverage(cfg).to_json() == first.to_json()
    assert calls == {("_quantile", 2): 3}


def test_reports_are_byte_identical_on_a_cold_and_a_warm_distribution():
    warm = LogNormal(0.0, 1.0)
    run_coverage(_config(dist=warm, seed=1, trials=3))
    assert warm.truths
    cold = run_coverage(_config(dist=LogNormal(0.0, 1.0)))
    assert run_coverage(_config(dist=warm)).to_json() == cold.to_json()


@dataclass(frozen=True, eq=False, repr=False)
class ScaledLogNormal(LogNormal):
    """LogNormal draws times a scale at the edge of double precision."""

    scale: float = 1.0

    def sample(self, n, rng):
        return super().sample(n, rng) * self.scale


@pytest.mark.parametrize("scale", [1e307, 1e-320])
def test_rows_that_overflow_are_tallied_as_numerical_errors(scale):
    measures = (parse_measure("gamma@0.1"), parse_measure("auc_gamma"))
    cfg = _config(dist=ScaledLogNormal(0.0, 0.25, scale), n=200, trials=20, measures=measures)
    report = run_coverage(cfg)
    failures = sum(r.failures for r in report.results)
    assert report.failure_reasons.get("NumericalError", 0) > 0
    assert sum(report.failure_reasons.values()) == failures
    json.loads(report.to_json(), parse_constant=_reject_nan)


GOLDEN = sorted((Path(__file__).parent / "data").glob("coverage_*.json"))


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_reports_match_the_per_trial_engine(path):
    # reports recorded with the engine that ran one interval per (trial, measure)
    want = json.loads(path.read_text())
    report = run_coverage(SimConfig.from_dict(want["config"]))
    got = json.loads(report.to_json())
    assert got["config"] == want["config"]
    assert got["failure_reasons"] == want["failure_reasons"]
    for g, w in zip(got["results"], want["results"], strict=True):
        assert {k: g[k] for k in ("measure", "truth", "coverage", "failures")} == {
            k: w[k] for k in ("measure", "truth", "coverage", "failures")
        }
        if w["mean_width"] is None:
            assert g["mean_width"] is None
        else:
            assert g["mean_width"] == pytest.approx(w["mean_width"], rel=1e-12, abs=0.0)
    again = run_coverage(SimConfig.from_dict({**want["config"], "threads": 3}))
    assert again.to_json() == report.to_json()


def test_width_shrinks_with_sample_size():
    widths = {}
    for n in (50, 200, 1000):
        cfg = _config(
            n=n, trials=200,
            measures=(parse_measure("lambda@0.1"), parse_measure("auc_gamma")),
        )
        report = run_coverage(cfg)
        for res in report.results:
            widths.setdefault(res.measure.label(), []).append(res.mean_width)
    for label, seq in widths.items():
        assert seq[0] > seq[1] > seq[2], label


def test_small_n_coverage_is_conservative():
    # AUC_gamma on LN(0,1): n = 50 coverage stays above the large-n coverage
    # (minus Monte Carlo slack)
    m = (parse_measure("auc_gamma"),)
    small = run_coverage(_config(n=50, trials=1000, measures=m, seed=2718))
    large = run_coverage(_config(n=5000, trials=1000, measures=m, seed=2719))
    cov_small = small.results[0].coverage
    cov_large = large.results[0].coverage
    assert cov_small >= cov_large - 0.005
    assert cov_small >= 0.90 and cov_large >= 0.90


def test_report_config_echo_rebuilds_config():
    import json

    # parameters with nine significant digits echo exactly
    measures = (parse_measure("lambda@0.123456789"), parse_measure("auc_gamma", j_points=20))
    report = run_coverage(
        _config(dist=LogNormal(0.123456789, 1.0), trials=3, measures=measures)
    )
    echo = json.loads(report.to_json())["config"]
    assert echo["dist"] == "lognormal(0.123456789,1)"
    assert echo["measures"] == ["lambda@0.123456789", "auc_gamma"]
    rebuilt = SimConfig.from_dict(echo)
    assert rebuilt.dist == report.config.dist
    assert rebuilt.n == report.config.n
    assert rebuilt.trials == report.config.trials
    assert [m.label() for m in rebuilt.measures] == [
        m.label() for m in report.config.measures
    ]
    assert echo["j"] == 20
    assert [m.j_points for m in rebuilt.measures if m.is_auc] == [20]
    assert run_coverage(rebuilt).to_json() == report.to_json()

    # the echo holds one j, one lambda direction and each measure once
    left = parse_measure("lambda@0.1", direction=Direction.LEFT)
    for clash, match in (
        ((parse_measure("auc_gamma", j_points=20), parse_measure("auc_lambda", j_points=50)),
         "mix j 20 and 50"),
        ((parse_measure("lambda@0.2"), left), "mix direction left and right"),
        ((parse_measure("gamma@0.1"), parse_measure("gamma@0.1", direction=Direction.LEFT)),
         "gamma@0.1 is listed twice"),
    ):
        with pytest.raises(ValueError, match=match):
            _config(measures=clash)
    # gamma ignores the direction, so the lambda measures' direction is echoed
    mixed = _config(trials=2, measures=(parse_measure("gamma@0.1"), left))
    assert mixed.to_dict()["direction"] == "left"
    assert run_coverage(SimConfig.from_dict(mixed.to_dict())).to_json() == run_coverage(
        mixed
    ).to_json()


def _reject_nan(token):
    raise ValueError(f"report JSON contains {token}")


def test_all_failed_measure_reports_null_and_valid_json():
    import json

    # a 1e-4 bandwidth leaves the windows at p = 0.25 and 0.75 empty for
    # n = 10, so every trial of gamma@0.25 fails
    cfg = _config(
        n=10, trials=4, bandwidth=BandwidthRule(fixed=1e-4),
        measures=(parse_measure("gamma@0.25"),),
    )
    report = run_coverage(cfg)
    res = report.results[0]
    assert res.failures == 4 and math.isnan(res.coverage) and math.isnan(res.mean_width)
    doc = json.loads(report.to_json(), parse_constant=_reject_nan)
    assert doc["results"][0]["coverage"] is None
    assert doc["results"][0]["mean_width"] is None
    assert doc["results"][0]["failures"] == 4


def test_render_text_uses_cp_w_cells():
    report = run_coverage(_config(trials=5))
    text = report.render_text()
    assert "cp(w)" in text.splitlines()[0]
    # one cell like 0.800(1.23) per measure row
    for line in text.splitlines()[1:]:
        assert "(" in line and line.rstrip().endswith(")")
