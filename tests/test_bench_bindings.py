"""The benchmark's tracer wraps skewkit at the bindings its ``TARGETS`` name.

A refactor that renames or moves one of them breaks every traced benchmark
run; this keeps that visible in the regular suite.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from skewkit import inference, quantiles, simulation, skewness
from skewkit.distributions import LogNormal

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_bound_on_its_owner(tracer):
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in tracer.TARGETS
        if attr not in vars(tracer._resolve(owner))
    ]
    assert not missing


def test_tracer_installs_and_restores(tracer):
    t = tracer.Tracer()
    before = [vars(tracer._resolve(owner))[attr] for owner, attr, _ in tracer.TARGETS]
    t.install()
    try:
        wrapped = [vars(tracer._resolve(owner))[attr] for owner, attr, _ in tracer.TARGETS]
    finally:
        t.uninstall()
    after = [vars(tracer._resolve(owner))[attr] for owner, attr, _ in tracer.TARGETS]
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(a is b for a, b in zip(after, before))


def test_the_traced_estimate_large_op_computes_one_density_per_grid(tracer):
    # the op of the ``estimate_large`` workload: 14 ``interval`` calls on one
    # sample.  The five pointwise p and the AUCs' J give six grids; a density
    # computed around the traced bindings would not be counted.
    measures = skewness.parse_measures("all", include_b3=False)
    data = np.random.default_rng(0).lognormal(0.0, 1.0, 2000)
    t = tracer.Tracer()
    t.install()
    try:
        op = t.begin_op(0)
        sample = quantiles.SortedSample.from_data(data)
        for m in measures:
            inference.interval(sample, m, 0.95)
        t.end_op(op)
    finally:
        t.uninstall()
    layers = tracer.layer_values(t)[0]
    assert len(measures) == 14
    assert layers["quantiles.density_calls"] == 6
    assert layers["inference.interval_calls"] == 14


def test_the_traced_coverage_op_sees_type8_and_one_density_call(tracer):
    # the op of the ``coverage`` workload: one 10-trial chunk, whose grid
    # reads its quantiles and densities through the traced bindings once
    config = simulation.SimConfig(
        dist=LogNormal(0.0, 1.0), n=200, trials=10, seed=7,
        measures=skewness.parse_measures("all", include_b3=False), level=0.95, threads=1,
    )
    t = tracer.Tracer()
    t.install()
    try:
        op = t.begin_op(0)
        simulation.run_coverage(config)
        t.end_op(op)
    finally:
        t.uninstall()
    layers = tracer.layer_values(t)[0]
    assert len(config.measures) == 14
    assert layers["quantiles.type8_ms"] > 0
    assert layers["quantiles.density_calls"] == 1
