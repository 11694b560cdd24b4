"""Tests for the package namespace: one table from public name to module."""

import ast
import importlib
import inspect
import pathlib

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


def _package_imports(module: str) -> set[str]:
    """Submodules of pmsdelta that pmsdelta.<module> imports, read from its
    source: relative and absolute, `import` and `from ... import`."""
    source = pathlib.Path(pmsdelta.__file__).with_name(f"{module}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"pmsdelta.{base}" if base else "pmsdelta"
            dotted = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted if name.startswith("pmsdelta."))
    return found


def test_engine_and_oracle_share_no_code():
    # The oracle is the engine's independent check, so neither may import the
    # other.  The families import both, which shows the parse finds imports.
    assert "oracle" not in _package_imports("series_core")
    assert "series_core" not in _package_imports("oracle")
    assert {"errors", "oracle", "series_core"} <= _package_imports("oscillators")


def _lru_caches() -> dict[str, tuple[object, bool]]:
    """{module.function: (maxsize, keyed on a float)} for every lru_cache in
    the package, read from its source.  maxsize is the literal the decorator
    gives, or None where it gives none or an expression."""
    found = {}
    for path in sorted(pathlib.Path(pmsdelta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            for decorator in node.decorator_list:
                call = decorator if isinstance(decorator, ast.Call) else None
                target = call.func if call else decorator
                if getattr(target, "id", getattr(target, "attr", None)) != "lru_cache":
                    continue
                given = []
                if call:
                    given = call.args + [k.value for k in call.keywords if k.arg == "maxsize"]
                maxsize = given[0].value if given and isinstance(given[0], ast.Constant) else None
                arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                keyed_on_float = any(
                    isinstance(part, ast.Name) and part.id == "float"
                    for arg in arguments if arg.annotation is not None
                    for part in ast.walk(arg.annotation)
                )
                found[f"{path.stem}.{node.name}"] = (maxsize, keyed_on_float)
    return found


def test_float_keyed_caches_are_bounded():
    # An unbounded cache keyed on floats grows with every distinct input; the
    # unbounded ones are keyed on small ints.
    caches = _lru_caches()
    float_keyed = {name: maxsize for name, (maxsize, keyed) in caches.items() if keyed}
    # The parse finds the known caches of each kind.
    assert {"oscillators._even_power_spec", "oscillators._pendulum_spec"} <= set(float_keyed)
    assert "series_core.half_binomial" in caches and "series_core.half_binomial" not in float_keyed
    for name, maxsize in float_keyed.items():
        assert type(maxsize) is int, f"{name} caches float keys without an integer maxsize"
