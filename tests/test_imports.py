import ast
import importlib
import math
import types
from pathlib import Path

import pytest

import orbitlab
from orbitlab import dynamics as dyn

from oracles import DP5_A, DP5_C, DP5_E, DP5_P

MODULES = sorted(Path(orbitlab.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
WORKLOADS = TRACER.parent / "workloads.py"


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


def listed_exports(tree: ast.Module) -> list[str] | None:
    """A module's ``__all__``, or None if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def loaded_names(tree: ast.Module) -> set[str]:
    """Names a module loads, by name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unlisted_exports(source: str) -> list[str]:
    """Public module-level functions and classes that a module with an
    ``__all__`` leaves out of it."""
    tree = ast.parse(source)
    listed = listed_exports(tree)
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
        loaded |= loaded_names(tree)
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


def unread_exports(module: str, sources: dict[str, str]) -> list[str]:
    """Names in the ``__all__`` of ``sources[module]`` that no other module of
    ``sources`` (module name -> text) loads, by name or as an attribute."""
    loaded = set().union(*(loaded_names(ast.parse(source))
                           for name, source in sources.items() if name != module))
    return sorted(set(listed_exports(ast.parse(sources[module])) or ()) - loaded)


def test_detects_unread_export():
    sources = {
        "a": "__all__ = ['by_name', 'by_attribute', 'own', 'imported']\n"
        "def own():\n    pass\nown()\n",
        "b": "from a import by_name, imported\nimport a\nby_name()\na.by_attribute()\n",
    }
    assert unread_exports("a", sources) == ["imported", "own"]


def test_reference_keeps_what_runs():
    # the closed forms the library keeps are the ones it or the benchmark
    # reads; the rest live with the test oracles
    sources = {p.stem: p.read_text() for p in MODULES}
    sources["bench.workloads"] = WORKLOADS.read_text()
    assert unread_exports("reference", sources) == []


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


# the interpreter: its duals and its tree walk
INTERPRETER_NAMES = ("Dual", "val_of", "eval_dual", "evaluate")
# a float solve: the geometry kernel's and numpy's
SOLVES = ("solve_linear", "linalg")
# a tangent carried beside the integrator's state, not in it
TANGENT_PLUMBING = ("w0", "control_tangent", "w_final", "kw")
# the 5(4) pair's error weights and Shampine's interpolant, by their names in rk
FIVE_FOUR_NAMES = ("_E", "_P")
# the 5(4) pair's coefficients that DOP853 does not share: round values such
# as 1/5 and 1 are stage times of both
FIVE_FOUR_VALUES = {
    abs(v) for v in (*DP5_C, *DP5_E, *(a for row in DP5_A for a in row), *DP5_P.ravel())
    if not (40.0 * v).is_integer()
}


def names_used(source: str, wanted) -> list[str]:
    """Names of ``wanted`` (:data:`INTERPRETER_NAMES`, :data:`SOLVES`,
    :data:`TANGENT_PLUMBING`) that a module imports or imports from (as any
    part of a dotted name), binds, loads, reads as an attribute, takes as a
    parameter or passes as a keyword."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None)]
            names = [part for name in modules + [n for alias in node.names
                                                 for n in (alias.name, alias.asname)]
                     if name for part in name.split(".")]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            names = [node.arg]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in dict.fromkeys(names) if name in wanted]
    return sorted(found)


def test_detects_dual_names():
    source = "from .expr import Dual as D\nimport x\nx.val_of(1)\neval_dual = 2\n" \
        "from . import expr as ex\nex.evaluate(node, z)\nfrom .expr import evaluate\n"
    assert names_used(source, INTERPRETER_NAMES) == [
        "Dual (line 1)", "eval_dual (line 4)", "evaluate (line 6)", "evaluate (line 7)",
        "val_of (line 3)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "expr"], ids=lambda p: p.name)
def test_only_expr_names_duals(path):
    # the library runs its generated code over floats; the interpreter, its
    # tree walk and its duals, serves failure naming in expr and the test oracles
    assert names_used(path.read_text(), INTERPRETER_NAMES) == []


def test_kinetic_minimum_event_runs_the_system_code():
    # its g is the system's generated grad U . v, not a sum over the
    # potential's own gradient
    tree = ast.parse(next(p for p in MODULES if p.stem == "dynamics").read_text())
    event = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "kinetic_minimum_event")
    methods = [name for name, value in vars(dyn.PotentialField).items() if callable(value)]
    assert {"value", "gradient"} <= set(methods)
    assert names_used(ast.unparse(event), methods) == []


def test_detects_solve_names():
    source = "import numpy.linalg\nfrom .geometry import solve_linear as s\nnp.linalg.solve(a, b)\n" \
        "from numpy.linalg import solve\n"
    assert names_used(source, SOLVES) == [
        "linalg (line 1)", "linalg (line 3)", "linalg (line 4)", "solve_linear (line 2)"]


def test_dynamics_names_no_solve():
    # the flow and its J W eliminate in the generated code (expr.Graph.negated_solve)
    path = next(p for p in MODULES if p.stem == "dynamics")
    assert names_used(path.read_text(), SOLVES) == []


def test_detects_tangent_plumbing():
    source = "def solve(f, y0, w0=None, *, control_tangent=False):\n    kw = f(y0)\n" \
        "    return Result(w_final=kw)\nr.w_final\n"
    assert names_used(source, TANGENT_PLUMBING) == [
        "control_tangent (line 1)", "kw (line 2)", "kw (line 3)", "w0 (line 1)",
        "w_final (line 3)", "w_final (line 4)"]


def test_rk_knows_one_state():
    # a tangent run is a plain run of [z; W]: the integrator takes, steps and
    # returns no tangent of its own
    path = next(p for p in MODULES if p.stem == "rk")
    assert names_used(path.read_text(), TANGENT_PLUMBING) == []


def _literal(node):
    """The float of a number literal, negated or not, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _literal(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    return None


def five_four_coefficients(source: str) -> list[str]:
    """Numbers in a module's source, written as a literal or a quotient of
    literals, that equal one of :data:`FIVE_FOUR_VALUES` to 1e-12."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            num, den = _literal(node.left), _literal(node.right)
            value = None if num is None or den is None or den == 0.0 else num / den
        else:
            value = _literal(node) if isinstance(node, ast.Constant) else None
        if value is not None and any(
            math.isclose(abs(value), v, rel_tol=1e-12) for v in FIVE_FOUR_VALUES
        ):
            found.append((node.lineno, f"{value!r} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


def test_detects_five_four_remnants():
    source = ("_P = np.array([[1.0, -8048581381.0 / 2820520608.0]])\nx = 0.2 + 71.0 / 57600.0\n"
              "a = -0.44923629829290207\n_E = (1.0 / 5.0,)\n")
    assert names_used(source, FIVE_FOUR_NAMES) == ["_E (line 4)", "_P (line 1)"]
    assert five_four_coefficients(source) == [
        "-2.8535800653862835 (line 1)", "0.0012326388888888888 (line 2)",
        "0.44923629829290207 (line 3)"]


def test_rk_keeps_no_five_four_pair():
    # one stepper: the 5(4) pair and Shampine's interpolant live in the test
    # oracles (oracles.DP5) as the reference that DOP853 replaced
    source = next(p for p in MODULES if p.stem == "rk").read_text()
    assert names_used(source, FIVE_FOUR_NAMES) == []
    assert five_four_coefficients(source) == []


def test_detects_scipy_imports():
    source = "import scipy.integrate\nfrom scipy.linalg import solve\nimport numpy as np\n"
    assert names_used(source, ("scipy",)) == ["scipy (line 1)", "scipy (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy(path):
    # the library needs numpy only; DOP853's coefficients are written out in rk
    assert names_used(path.read_text(), ("scipy",)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_definiteness_rule(path):
    # geometry.require_positive_definite decides on pivots for every g: no
    # eigenvalue check, and no other module raises the rule's singular error
    wanted = ("eigvalsh",) if path.stem == "geometry" else ("eigvalsh", "SingularMatrixError")
    assert names_used(path.read_text(), wanted) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_polynomial_module(path):
    # the quadrature's Gauss-Legendre rule is tabulated in jacobi: importing
    # numpy.polynomial for it raised the benchmark's peak RSS by about 0.8 MiB
    assert names_used(path.read_text(), ("polynomial",)) == []


def test_jacobi_runs_no_integrator():
    # the Jacobi maps take their exchange by quadrature on the source's steps
    path = next(p for p in MODULES if p.stem == "jacobi")
    assert names_used(path.read_text(), ("solve_rk45", "rk")) == []


def dense_output_builds(source: str) -> list[str]:
    """Calls of ``DenseOutput``, by name or as an attribute, and imports
    that rename it, in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "DenseOutput":
                found.append(f"DenseOutput (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            found += [f"DenseOutput as {alias.asname} (line {node.lineno})"
                      for alias in node.names if alias.name == "DenseOutput" and alias.asname]
    return sorted(found)


def test_detects_dense_output_builds():
    source = "from .rk import DenseOutput as D\nimport x\nx.DenseOutput(1)\n" \
        "y: x.DenseOutput | None = None\nDenseOutput(a, b)\n"
    assert dense_output_builds(source) == [
        "DenseOutput (line 3)", "DenseOutput (line 5)", "DenseOutput as D (line 1)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "rk"], ids=lambda p: p.name)
def test_only_rk_builds_dense_output(path):
    # one owner of the dense format: the integrator's runs and their reflection
    assert dense_output_builds(path.read_text()) == []


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
