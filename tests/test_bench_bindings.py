"""The benchmark's tracer wraps skewkit at the bindings its ``TARGETS`` name.

A refactor that renames or moves one of them breaks every traced benchmark
run; this keeps that visible in the regular suite.
"""

import importlib.util
from pathlib import Path

import pytest

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
