import ast
import importlib
import types
from pathlib import Path

import pytest

import orbitlab

MODULES = sorted(Path(orbitlab.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never loads or re-exports."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def missing_exports(module) -> list[str]:
    """``__all__`` entries that name no attribute of ``module``;
    :func:`unused_imports` counts them as used."""
    return sorted(name for name in getattr(module, "__all__", ()) if not hasattr(module, name))


def unlisted_exports(source: str) -> list[str]:
    """Public module-level functions and classes that a module with an
    ``__all__`` leaves out of it."""
    tree = ast.parse(source)
    listed = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            listed = set(ast.literal_eval(node.value))
    if listed is None:
        return []
    return sorted(
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in listed
    )


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants, and private
    methods of module-level classes, that no module of ``sources`` (module
    name -> text) loads, by name or as an attribute."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    loaded = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [
                    (module, f"{node.name}.{item.name}", item.name, item.lineno)
                    for item in node.body if isinstance(item, functions)
                ]
            if isinstance(node, (*functions, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, name, node.lineno) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return sorted(
        f"{module}.{qualified} (line {line})"
        for module, qualified, name, line in defined
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    )


def test_detects_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)",
        "path (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_missing_export():
    module = types.ModuleType("a")
    exec("__all__ = ['kept', 'gone']\nkept = 1\n", vars(module))
    assert missing_exports(module) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_missing_exports(path):
    name = "orbitlab" if path.stem == "__init__" else f"orbitlab.{path.stem}"
    assert missing_exports(importlib.import_module(name)) == []


def test_detects_unlisted_export():
    source = "__all__ = ['Listed']\nclass Listed:\n    def method(self):\n        pass\n" \
        "def gone():\n    def inner():\n        pass\nclass Gone:\n    pass\ndef _private():\n    pass\n"
    assert unlisted_exports(source) == ["Gone", "gone"]
    assert unlisted_exports("def anything():\n    pass\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unlisted_exports(path):
    assert unlisted_exports(path.read_text()) == []


def test_detects_unused_private_name():
    sources = {
        "a": "_USED = 1\n_UNUSED, _ALSO = 2, 3\ndef _helper():\n    return _USED\n"
        "class _Thing:\n    pass\nclass Public:\n    _attr = 0\n",
        "b": "import a\na._helper()\n",
    }
    assert unused_private_names(sources) == [
        "a._ALSO (line 2)",
        "a._Thing (line 5)",
        "a._UNUSED (line 2)",
    ]


def test_detects_unused_private_method():
    sources = {
        "a": "class Public:\n    def _used(self):\n        return self._helper()\n"
        "    def _helper(self):\n        return 0\n    def _unused(self):\n        return 1\n"
        "    def __repr__(self):\n        return ''\n",
        "b": "import a\na.Public()._used()\n",
    }
    assert unused_private_names(sources) == ["a.Public._unused (line 6)"]


def test_no_unused_private_names():
    assert unused_private_names({p.stem: p.read_text() for p in MODULES}) == []


def foreign_private_names(sources: dict[str, str]) -> list[str]:
    """Private names that a module of ``sources`` (module name -> text) loads
    or sets through the alias under which it imported another module of
    ``sources`` (``from . import geometry as geo``, then ``geo._name``)."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) in ((1, None), (0, "orbitlab"))
            for alias in node.names
            if alias.name in sources
        }
        found += [
            f"{module}: {aliases[node.value.id]}.{node.attr} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_") and not node.attr.startswith("__")
        ]
    return sorted(found)


def test_detects_foreign_private_name():
    sources = {
        "a": "_HIDDEN = 1\nPUBLIC = 2\n",
        "b": "from . import a as alias\nfrom orbitlab import a\nimport numpy as np\n"
        "alias._HIDDEN\na.PUBLIC\na.__name__\nnp._private\na._HIDDEN = 3\n",
    }
    assert foreign_private_names(sources) == ["b: a._HIDDEN (line 4)", "b: a._HIDDEN (line 8)"]


def test_no_foreign_private_names():
    # a module's private names are its own: what another module needs has a public name
    assert foreign_private_names({p.stem: p.read_text() for p in MODULES}) == []


INTERPRETER_DUALS = ("Dual", "val_of", "eval_dual")
# a pivoting float solve: the geometry kernel's and numpy's
SOLVES = ("solve_linear", "linalg")


def names_used(source: str, wanted) -> list[str]:
    """Names of ``wanted`` (:data:`INTERPRETER_DUALS`, :data:`SOLVES`) that a
    module imports (as any part of a dotted name), binds, loads or reads as
    an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for alias in node.names for name in (alias.name, alias.asname)
                     if name for part in name.split(".")]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in dict.fromkeys(names) if name in wanted]
    return sorted(found)


def test_detects_dual_names():
    source = "from .expr import Dual as D\nimport x\nx.val_of(1)\neval_dual = 2\n"
    assert names_used(source, INTERPRETER_DUALS) == [
        "Dual (line 1)", "eval_dual (line 4)", "val_of (line 3)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "expr"], ids=lambda p: p.name)
def test_only_expr_names_duals(path):
    # the library runs over floats; the interpreter's duals serve failure
    # naming in expr and the test oracles
    assert names_used(path.read_text(), INTERPRETER_DUALS) == []


def test_detects_solve_names():
    source = "import numpy.linalg\nfrom .geometry import solve_linear as s\nnp.linalg.solve(a, b)\n"
    assert names_used(source, SOLVES) == [
        "linalg (line 1)", "linalg (line 3)", "solve_linear (line 2)"]


def test_dynamics_names_no_solve():
    # the flow and its J W eliminate in the generated code (expr.Graph.negated_solve)
    path = next(p for p in MODULES if p.stem == "dynamics")
    assert names_used(path.read_text(), SOLVES) == []


def tracer_targets() -> list[str]:
    """The benchmark tracer's TARGETS as "module.attribute" strings, read from
    its source without importing the benchmark."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            targets = ast.literal_eval(node.value)
            return [f"{module}.{attr}" for module, attrs in targets.items() for attr in attrs]
    raise AssertionError("bench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("target", tracer_targets())
def test_tracer_targets_resolve(target):
    module, _, attr = target.partition(".")
    owner = importlib.import_module(f"orbitlab.{module}")
    if "." in attr:  # a method, patched on the class that defines it
        cls_name, method = attr.split(".")
        assert method in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))
