"""Tests for the package namespace: one table from public name to module."""

import importlib
import inspect

import pytest

import pmsdelta
from pmsdelta import errors


def test_table_matches_each_submodule():
    by_module = {}
    for name, module in pmsdelta._EXPORTS.items():
        by_module.setdefault(module, set()).add(name)
    assert set(by_module) == {
        "analysis", "constants", "errors", "oracle", "oscillators", "precession", "series_core",
    }
    for module, names in by_module.items():
        if module == "errors":
            expected = {
                name for name, value in vars(errors).items()
                if inspect.isclass(value) and issubclass(value, Exception)
            }
        else:
            expected = set(importlib.import_module(f"pmsdelta.{module}").__all__)
        assert names == expected, module


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from pmsdelta import *", namespace)
    assert set(pmsdelta.__all__) <= set(namespace)
    assert set(pmsdelta.__all__) <= set(dir(pmsdelta))
    assert pmsdelta.__all__ == sorted(pmsdelta._EXPORTS)
    for name in pmsdelta.__all__:
        module = importlib.import_module(f"pmsdelta.{pmsdelta._EXPORTS[name]}")
        assert namespace[name] is getattr(module, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pmsdelta.no_such_name
    assert not hasattr(pmsdelta, "_EXPORTS_typo")


def test_a_name_read_once_is_bound_in_the_package():
    first = pmsdelta.duffing_period_series
    # Bound in the module globals, so a later read skips __getattr__.
    assert vars(pmsdelta)["duffing_period_series"] is first
    assert pmsdelta.duffing_period_series is first
