"""Tests for the package namespace: one table from public name to module."""

import ast
import copy
import importlib
import math
import pathlib
import pickle
import warnings

import pytest

import pmsdelta


# The library modules: every name in _EXPORTS lives in one of them.
LIBRARY = ("analysis", "constants", "errors", "oracle", "oscillators", "precession", "series_core")


def _tree(module: str) -> ast.Module:
    return ast.parse(pathlib.Path(pmsdelta.__file__).with_name(f"{module}.py").read_text())


def _defined_names(module: str) -> set[str]:
    """Names without a leading underscore that pmsdelta.<module> binds at top
    level by def, class or assignment."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_each_module_exports_exactly_its_public_definitions():
    # One rule, one list: a module exports every top-level name without a
    # leading underscore and nothing else, and its __all__ is read from
    # _EXPORTS rather than written out.
    by_module = {}
    for name, module in pmsdelta._EXPORTS.items():
        by_module.setdefault(module, []).append(name)
    assert set(by_module) == set(LIBRARY)
    for module in LIBRARY:
        assert set(by_module[module]) == _defined_names(module), module
        assert importlib.import_module(f"pmsdelta.{module}").__all__ == by_module[module], module
        (assign,) = [
            node for node in _tree(module).body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ]
        assert ast.unparse(assign.value) == "_names(__name__)", module


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
    found = set()
    for node in ast.walk(_tree(module)):
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


def _lru_caches() -> dict[str, tuple[object, ast.FunctionDef]]:
    """{module.function: (maxsize, definition)} for every lru_cache in the
    package, read from its source.  maxsize is the literal the decorator
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
                found[f"{path.stem}.{node.name}"] = (maxsize, node)
    return found


def _arguments(node: ast.FunctionDef) -> list[ast.arg]:
    return node.args.posonlyargs + node.args.args + node.args.kwonlyargs


def test_float_keyed_caches_are_bounded():
    # An unbounded cache keyed on floats grows with every distinct input; the
    # unbounded ones are keyed on small ints.
    caches = _lru_caches()
    float_keyed = {
        name: maxsize for name, (maxsize, node) in caches.items()
        if any(
            isinstance(part, ast.Name) and part.id == "float"
            for arg in _arguments(node) if arg.annotation is not None
            for part in ast.walk(arg.annotation)
        )
    }
    # The parse finds the known caches of each kind.
    assert {"oscillators._even_power_spec", "oscillators._pendulum_spec"} <= set(float_keyed)
    assert "series_core.half_binomial" in caches and "series_core.half_binomial" not in float_keyed
    for name, maxsize in float_keyed.items():
        assert type(maxsize) is int, f"{name} caches float keys without an integer maxsize"


def test_array_caches_keyed_on_a_size_are_bounded():
    # One array per size adds up: a node set per factor degree would reach
    # 134 MB over the exponents up to MAX_EXPONENT.  A cache with no argument
    # holds one array, and one keyed on an order alone at most MAX_ORDER + 1.
    # Python tables (array.array, or tuples of floats) count as arrays too.
    sized = {
        name: maxsize for name, (maxsize, node) in _lru_caches().items()
        if node.returns is not None
        and any(kind in ast.unparse(node.returns) for kind in ("array", "tuple[float, ...]"))
        and any(arg.arg != "order" for arg in _arguments(node))
    }
    assert set(sized) == {
        "series_core._node_cosines", "series_core._node_table", "oracle._trapezoid_level",
    }
    for name, maxsize in sized.items():
        assert type(maxsize) is int, f"{name} caches one array per size without an integer maxsize"


def _imports_of(tree: ast.Module, imported: str) -> set[str | None]:
    """Where a module imports the module `imported` or a submodule of it: the
    qualified name of the enclosing function, or None at module level (a
    class body included).  An `if TYPE_CHECKING:` block never runs, so its
    imports are not counted."""
    found = set()

    def visit(nodes, qualname, function):
        for node in nodes:
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                visit(node.orelse, qualname, function)
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                names = []
            if any(name.split(".")[0] == imported for name in names):
                found.add(function)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualname}{node.name}"
                inner = function if isinstance(node, ast.ClassDef) else name
                visit(ast.iter_child_nodes(node), f"{name}.", inner)
            else:
                visit(ast.iter_child_nodes(node), qualname, function)

    visit(tree.body, "", None)
    return found


def test_numpy_is_imported_only_by_the_numpy_kernels():
    # A cold command pays numpy's import only where a numpy kernel runs: no
    # module imports numpy at module level, and series_core imports it only
    # in its numpy kernel, the builders of its numpy views and the array
    # path of TrigPolynomial.evaluate, which a caller reaches only with an
    # ndarray in hand.
    for module in ("__init__", "__main__", "cli", *LIBRARY):
        if module != "series_core":
            assert _imports_of(_tree(module), "numpy") == set(), module
    assert _imports_of(_tree("series_core"), "numpy") == {
        "_numpy_terms", "_positivity_cosines", "_node_cosines", "_term_weights",
        "TrigPolynomial.evaluate",
    }
    # The parse finds imports at module level and in a class body, and skips
    # a TYPE_CHECKING block.
    assert _imports_of(ast.parse("import os\nimport numpy.linalg as la\n"), "numpy") == {None}
    assert _imports_of(ast.parse("class A:\n    from numpy import cos\n"), "numpy") == {None}
    assert _imports_of(ast.parse("if TYPE_CHECKING:\n    import numpy as np\n"), "numpy") == set()


def test_no_module_imports_dataclasses():
    # Importing dataclasses also loads inspect, ast, dis and tokenize, and
    # each frozen record's generated code costs a cold command more; the
    # records are NamedTuples and __slots__ classes instead.
    for module in ("__init__", "__main__", "cli", *LIBRARY):
        assert _imports_of(_tree(module), "dataclasses") == set(), module


# Standard-library modules that only one path needs, by the functions that
# may import them: a CSV table needs no json, only the adaptive quadrature
# needs heapq, and only the engine's node tables need array.
LAZY_STDLIB = {
    "json": {"constants": {"_json"}},
    "heapq": {"oracle": {"integrate"}},
    "array": {"series_core": {"_node_table", "_positivity_table"}},
}


@pytest.mark.parametrize("imported", sorted(LAZY_STDLIB))
def test_single_use_stdlib_modules_are_imported_where_they_are_used(imported):
    for module in ("__init__", "__main__", "cli", *LIBRARY):
        expected = LAZY_STDLIB[imported].get(module, set())
        assert _imports_of(_tree(module), imported) == expected, module


def _divergent_warns() -> set[str]:
    """{module.function} of every warnings.warn call in the package that
    names DivergentExpansion, read from its source."""
    found = set()
    for path in sorted(pathlib.Path(pmsdelta.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(func):
                if (
                    isinstance(call, ast.Call)
                    and ast.unparse(call.func) in ("warnings.warn", "warn")
                    and any(
                        getattr(part, "id", getattr(part, "attr", None)) == "DivergentExpansion"
                        for arg in call.args + [k.value for k in call.keywords]
                        for part in ast.walk(arg)
                    )
                ):
                    found.add(f"{path.stem}.{func.name}")
    return found


def test_one_helper_warns_divergent_expansion():
    # The convergence rule, q >= 1, its category and its stacklevel are
    # written once; each series forms its own q and message.
    assert _divergent_warns() == {"errors._warn_divergent"}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pmsdelta.duffing_nayfeh_series(-0.9, 3),
         "|kappa| = 4.500000 >= 1: the comparison series diverges"),
        (lambda: pmsdelta.even_power_series(5, math.inf, pmsdelta.even_power_kappa_pms(5), 3),
         "max |Delta| = 1.031746 >= 1 at kappa = 0.4921875: the expansion need not converge"),
        (lambda: pmsdelta.cubic_series(-6.070788974335778, 12.141577948671555, 3),
         "|xi| = 1.000000 >= 1: the cubic series need not converge"),
        (lambda: pmsdelta.precession_series(
            pmsdelta.OrbitParams(pmsdelta.DEFAULT_GM, 100.0, pmsdelta.DEFAULT_ECCENTRICITY), 3),
         "|xi| = 1.230794 >= 1: the precession series need not converge"),
    ],
    ids=["duffing-nayfeh", "even-power", "cubic", "precession"],
)
def test_each_divergence_warning_blames_the_caller(call, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    [w] = caught
    assert w.category is pmsdelta.DivergentExpansion
    assert str(w.message) == message
    assert w.filename == __file__


# One instance of each record, by keyword: (record, keyword arguments).  Each
# lists every field, in order.
_FACTOR = {"coeffs": (1.0, 0.0, 0.25)}
_POINT = {"n": 2.0, "value": 1.5, "reference": 1.25, "rel_error": 0.2}
RECORDS = [
    ("QuadratureResult", {"value": 2.0, "error_estimate": 1e-15, "evaluations": 21}),
    ("SeriesExpansion", {"omega": 1.5, "terms": (2.0, -0.125)}),
    ("StudyPoint", _POINT),
    ("ConvergenceStudy", {
        "label": "study",
        "points": (pmsdelta.StudyPoint(**_POINT),),
        "fit": pmsdelta.FitResult(alpha=0.5, beta=2.0, residual=0.0),
    }),
    ("ReferenceValue", {"value": 1.25, "citation": "a citation"}),
    ("ReferenceConstants", pmsdelta.REFERENCE._asdict()),
    ("OscillatorModel", {
        "params": {"K": 2, "mu": 1.0}, "x_minus": -1.0, "x_plus": 1.0,
        "factor": pmsdelta.TrigPolynomial(**_FACTOR), "rho": 1.0, "energy": None,
    }),
    ("TrigPolynomial", _FACTOR),
    ("IntegrandSpec", {
        "x_minus": -1.0, "x_plus": 1.0, "factor": pmsdelta.TrigPolynomial(**_FACTOR),
        "omega": 1.5,
    }),
    ("OrbitParams", {"GM": 14.62725, "a": 300.0, "epsilon": 0.25}),
]


@pytest.mark.parametrize("name, fields", RECORDS, ids=[name for name, _ in RECORDS])
def test_records_are_immutable_values(name, fields):
    # Each record is built by keyword, refuses assignment to its fields with
    # AttributeError, equals another built from the same values, and names
    # every field in its repr, as Name(field=value, ...).  It survives pickle
    # and copy, as a frozen dataclass did.
    record = getattr(pmsdelta, name)
    first, second = record(**fields), record(**fields)
    assert first == second
    assert first is not second
    assert pickle.loads(pickle.dumps(first)) == first
    assert copy.copy(first) == first and copy.deepcopy(first) == first
    for field, value in fields.items():
        assert getattr(first, field) == value
        with pytest.raises(AttributeError):
            setattr(first, field, value)
    shown = ", ".join(f"{field}={value!r}" for field, value in fields.items())
    assert repr(first) == f"{name}({shown})"
