"""The package's lazy front door resolves every exported name to the object
its defining module binds, so the table of names cannot drift from them."""

import sys

import pytest

import skewkit


def test_every_export_is_its_modules_object():
    exports = [name for name in skewkit.__all__ if name != "__version__"]
    for name in exports:
        obj = getattr(skewkit, name)
        assert obj is vars(sys.modules[obj.__module__])[name], name
    assert set(exports) <= set(vars(skewkit))  # bound on first use


def test_dir_lists_every_export():
    assert set(skewkit.__all__) <= set(dir(skewkit))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from skewkit import *", namespace)
    assert {name: namespace[name] for name in skewkit.__all__} == {
        name: getattr(skewkit, name) for name in skewkit.__all__
    }


def test_submodules_import_from_the_package():
    from skewkit import distributions, simulation

    assert simulation.run_coverage is skewkit.run_coverage
    assert distributions.Beta is skewkit.Beta


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'skewkit' has no attribute 'no_such_name'"):
        skewkit.no_such_name
