"""The straight-line code against the interpreter over dual numbers.

The interpreter route (``expr.evaluate``/``eval_dual`` and the geometry
routes of ``oracles`` over order-2 and nested duals) is the oracle.
Compiled U and grad U, ``state_rhs``, J W (also at Finsler
rest points) and the geometry kernel's ``f_squared``, ``metric_tensor``
and ``geodesic_coefficients`` must agree with it within
``REL`` relative to 1 + |oracle| (measured: at most 9.8e-16; first
derivatives of a potential round exactly as the duals do).  A
tangent run's values must equal the plain run's bit for bit, and a domain
failure, of a value or of a derivative only, must raise the interpreter's
error naming the subexpression.  Fuzzed trees at points whose coordinates
are often exactly 0.0 hold the generated code to the same bound, and to
raising only where the interpreter raises.
"""

import copy
import math
import pickle
import random
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import dynamics as dyn
from orbitlab import expr as ex
from orbitlab import geometry as geo
from orbitlab.errors import OrbitLabError

from oracles import (
    interpreted_acceleration,
    interpreted_f_squared,
    interpreted_gradient,
    interpreted_metric_and_spray,
    interpreted_value,
    metric_and_spray,
    random_expression,
)
from test_dynamics import (
    conformal_exp_system,
    cosine_torus,
    oscillator,
    position_dependent_finsler,
    position_dependent_riemannian,
    quartic_finsler_well,
)

REL = 1e-13
N_POTENTIALS = 200


def assert_close(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= REL * (1.0 + np.abs(expected)))


def parse2(source):
    return ex.parse(source, 2)


METRIC_SYSTEMS = [
    oscillator,
    cosine_torus,
    position_dependent_riemannian,
    conformal_exp_system,
    quartic_finsler_well,
    position_dependent_finsler,
]


def interpreted_state_rhs(spec, z):
    n = spec.dimension
    return list(z[n:]) + interpreted_acceleration(spec, list(z[:n]), list(z[n:]))


def interpreted_jvp(spec, z, w):
    """J(z) W from the interpreter route over order-1 duals seeded with W."""
    m = w.shape[1]
    seeds = [ex.Dual(m, 1, 0, float(c), row) for c, row in zip(z, w.tolist())]
    out = interpreted_state_rhs(spec, seeds)
    return np.array([c.grad if isinstance(c, ex.Dual) else [0.0] * m for c in out])


def random_potentials():
    """(spec, points): Euclidean systems of dimension 2 or 4 whose potential
    is a random expression over all of their coordinates."""
    rng = random.Random(2024)
    for _ in range(N_POTENTIALS):
        k = rng.choice([1, 2])
        n = 2 * k  # random_expression draws from 2k variables: all positions here
        spec = dyn.SystemSpec(
            geo.MetricModel.euclidean(n), dyn.PotentialField(random_expression(rng, k), n), 0.0
        )
        points = [[rng.uniform(-1.5, 1.5) for _ in range(2 * n)] for _ in range(2)]
        yield spec, points


def test_random_potentials_match_interpreter():
    checked = 0
    for spec, points in random_potentials():
        n, pf = spec.dimension, spec.potential
        w = np.random.default_rng(checked).standard_normal((2 * n, 3))
        for z in points:
            x = z[:n]
            assert_close(pf.value(x), ex.evaluate(pf.node, x + [0.0] * n))
            assert_close(pf.gradient(x), interpreted_gradient(pf, x))
            value = dyn.state_rhs(spec, 0.0, z)
            assert_close(value, interpreted_state_rhs(spec, z))
            tangent_value, jw = dyn.state_rhs_jvp(spec, z, w)
            assert tangent_value == value
            assert_close(jw, interpreted_jvp(spec, z, w))
        checked += 1
    assert checked == N_POTENTIALS


# coordinates and constants: exact zeros often, else magnitudes in [0.25, 2];
# reciprocals of smaller ones grow the cancelled terms of a Hessian that is
# exactly 0, such as that of c / (0.01^2.5 / x1), until their rounding exceeds REL
SCALARS = st.one_of(st.just(0.0), st.floats(0.25, 2.0), st.floats(-2.0, -0.25))
DOMAIN_FAILURES = (ex.EvalDomainError, ValueError, ZeroDivisionError, OverflowError)


def unguarded_trees(depth):
    """Trees over x1, x2 of depth at most ``depth``, with no domain guards."""
    leaves = st.one_of(SCALARS.map(ex.Const), st.sampled_from([ex.Var(0), ex.Var(1)]))
    if depth == 0:
        return leaves
    sub = unguarded_trees(depth - 1)
    exponents = st.sampled_from([-1.0, 0.5, 1.5, 2.0, 2.5, 3.0])
    return st.one_of(
        leaves,
        st.builds(ex.Binary, st.sampled_from(["add", "sub", "mul", "div"]), sub, sub),
        st.builds(lambda u, p: ex.Binary("pow", u, ex.Const(p)), sub, exponents),
        st.builds(ex.Unary, st.sampled_from(["neg", "sin", "cos", "exp", "log", "sqrt"]), sub),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(unguarded_trees(3), st.lists(SCALARS, min_size=2, max_size=2))
def test_fuzzed_potentials_match_interpreter_at_exact_zeros(node, x):
    # the interpreter may raise alone: a structurally zero derivative, as of
    # (x2 - x2)^0.5, is never computed by the generated code
    pf = dyn.PotentialField(node, 2)
    try:
        oracle = ex.eval_dual(node, x, None, 2)
    except ex.EvalDomainError:
        oracle = None
    try:
        got = (pf.value(x), pf.gradient(x))
    except DOMAIN_FAILURES:
        assert oracle is None
        return
    if oracle is not None:
        for actual, expected in zip(got, (oracle.val, oracle.grad)):
            assert_close(actual, expected)


@pytest.mark.parametrize("system", [quartic_finsler_well, position_dependent_finsler],
                         ids=lambda s: s.__name__)
def test_finsler_rest_point_tangent_matches_interpreter(system):
    spec = system()
    rng = np.random.default_rng(14)
    for _ in range(10):
        z = rng.uniform(-1.0, 1.0, 2).tolist() + [0.0, 0.0]
        w = rng.standard_normal((4, 3))
        value, jw = dyn.state_rhs_jvp(spec, z, w)
        assert value == dyn.state_rhs(spec, 0.0, z)
        assert_close(jw, interpreted_jvp(spec, z, w))
        assert_close(dyn.rhs_jacobian(spec, z), interpreted_jvp(spec, z, np.eye(4)))


@pytest.mark.parametrize("system", METRIC_SYSTEMS, ids=lambda s: s.__name__)
def test_metric_models_match_interpreter(system):
    spec = system()
    n = spec.dimension
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = np.concatenate([rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)]).tolist()
        value = dyn.state_rhs(spec, 0.0, z)
        assert_close(value, interpreted_state_rhs(spec, z))
        assert_close(dyn.total_energy(spec, z[:n], z[n:]),
                     0.5 * interpreted_f_squared(spec.metric, z[:n], z[n:])
                     + interpreted_value(spec.potential, z[:n]))
        w = rng.standard_normal((2 * n, 2))
        assert_close(dyn.state_rhs_jvp(spec, z, w)[1], interpreted_jvp(spec, z, w))
        assert_close(dyn.rhs_jacobian(spec, z), interpreted_jvp(spec, z, np.eye(2 * n)))


@pytest.mark.parametrize("system", METRIC_SYSTEMS, ids=lambda s: s.__name__)
def test_geometry_kernel_matches_interpreter(system):
    model = system().metric
    n = model.dimension
    rng = np.random.default_rng(13)
    for _ in range(20):
        x, v = rng.uniform(-1.0, 1.0, n).tolist(), rng.uniform(-1.0, 1.0, n).tolist()
        g_ref, spray_ref = interpreted_metric_and_spray(model, x, v)
        g, spray = metric_and_spray(model, x, v)
        assert_close(g, g_ref)
        assert_close(spray, spray_ref)
        assert_close(geo.metric_tensor(model, x, v), g_ref)
        assert_close(geo.geodesic_coefficients(model, x, v), spray_ref)
        assert_close(geo.f_squared(model, x, v), interpreted_f_squared(model, x, v))
        if model.kind == "riemannian":  # (g_ij + g_ji) / 2 of one node is g_ij exactly
            assert g == g_ref


@pytest.mark.parametrize("system", METRIC_SYSTEMS, ids=lambda s: s.__name__)
def test_tangent_values_are_the_plain_values(system):
    spec = system()
    n = spec.dimension
    rng = np.random.default_rng(12)
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, 2 * n).tolist()
        w = rng.standard_normal((2 * n, 3))
        assert dyn.state_rhs_jvp(spec, z, w)[0] == dyn.state_rhs(spec, 0.0, z)


# ---------------------------------------------------------------------------
# Array builds
# ---------------------------------------------------------------------------

# An array call and the scalar calls at its columns differ by at most
# ARRAY_ULPS eps (1 + |scalar|) (measured: at most 0.49 eps (1 + |scalar|),
# on the potentials below and on 2,000 fuzzed trees; most agree bit for bit).
ARRAY_ULPS = 4


def assert_array_build_matches_scalar(pf, columns):
    """U and grad U of ``pf`` over the columns in one array call each,
    against the scalar build at each column: within ARRAY_ULPS where every
    column computes, else the array call raises the error the scalar build
    raises at one of the failing columns."""
    z = np.array(columns, dtype=float).T
    for name in ("value", "gradient"):
        scalar, failures = [], set()
        for column in columns:
            try:
                scalar.append(pf.run(name, list(column)))
            except DOMAIN_FAILURES as exc:
                failures.add((type(exc), str(exc)))
        if failures:
            with pytest.raises(DOMAIN_FAILURES) as err:
                pf.run_array(name, z)
            assert (err.type, str(err.value)) in failures
            continue
        got = np.array(pf.run_array(name, z), dtype=float)
        want = np.array(scalar, dtype=float).T
        assert got.shape == want.shape
        eps = np.finfo(float).eps
        same = np.isnan(got) & np.isnan(want) | (got == want)
        assert np.all(same | (np.abs(got - want) <= ARRAY_ULPS * eps * (1.0 + np.abs(want))))


def test_random_potentials_array_build_matches_scalar():
    for spec, points in random_potentials():
        n = spec.dimension
        assert_array_build_matches_scalar(spec.potential, [z[:n] for z in points])


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(unguarded_trees(3), st.lists(st.lists(SCALARS, min_size=2, max_size=2), min_size=1, max_size=4))
def test_fuzzed_potentials_array_build_matches_scalar(node, columns):
    assert_array_build_matches_scalar(dyn.PotentialField(node, 2), columns)


@pytest.mark.parametrize(
    "term, name, culprit",
    [("exp(-1/x1)", "value", "-1/x1"), ("log(x1)", "gradient", "log(x1)")],
    ids=["turned_finite", "guard"],
)
def test_array_failure_the_result_does_not_show_is_named(term, name, culprit):
    # exp(-1/0) is 0 over arrays; the gradient of log(x1) is 1/x1, finite at
    # x1 = -1, and log(x1) runs only as its guard
    pf = dyn.PotentialField(parse2(f"x2^2 + {term}"), 2)
    bad = 0.0 if name == "value" else -1.0
    with pytest.raises(ex.EvalDomainError) as err:
        pf.run_array(name, np.array([[0.5, bad], [0.5, 0.5]]))
    assert err.value.node == parse2(culprit)


def test_array_build_broadcasts_constants():
    z = np.array([[0.5, 1.0, math.nan], [0.25, -1.0, 0.0]])
    constant = dyn.PotentialField(ex.const(0.5), 2)
    assert np.array_equal(constant.run_array("value", z), [0.5] * 3)
    assert np.array_equal(constant.run_array("gradient", z), [[0.0] * 3, [0.0] * 3])
    # the torus gradient's second entry is the literal 0.0; a NaN input that
    # the scalar code computes without raising stands
    gradient = cosine_torus().potential.run_array("gradient", z)
    assert np.array_equal(gradient[1], [0.0] * 3)
    assert np.isnan(gradient[0][2]) and np.isnan(cosine_torus().potential.gradient(z[:, 2])[0])


# ---------------------------------------------------------------------------
# Domain failures
# ---------------------------------------------------------------------------

# (potential term, bad x1, failing subexpression); U = x2^2 + term
DOMAIN_CASES = [
    ("log(x1)", -1.0, "log(x1)"),
    ("sqrt(x1)", -1.0, "sqrt(x1)"),
    ("1/x1", 0.0, "1/x1"),
    ("exp(x1)", 1000.0, "exp(x1)"),
    # float ** returns a complex number here instead of raising
    ("x1^0.3333333333333333", -8.0, "x1^0.3333333333333333"),
]
DOMAIN_IDS = ["log", "sqrt", "division", "exp_overflow", "fractional_power"]


def _route(name, spec, z):
    n = spec.dimension
    if name.endswith("_array"):  # the failing point between two good columns
        columns = np.array([[0.5, z[0], 2.0], [z[1]] * 3])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return spec.potential.run_array(name.removesuffix("_array"), columns)
            finally:
                assert caught == []
    if name == "state_rhs":
        return dyn.state_rhs(spec, 0.0, z)
    if name == "state_rhs_jvp":
        return dyn.state_rhs_jvp(spec, z, np.eye(len(z)))
    if name == "gradient":
        return spec.potential.gradient(z[:n])
    if name == "value":
        return spec.potential.value(z[:n])
    return dyn.total_energy(spec, z[:n], z[n:])


@pytest.mark.parametrize("route", ["state_rhs", "state_rhs_jvp", "gradient", "value", "total_energy",
                                   "value_array", "gradient_array"])
@pytest.mark.parametrize("term, x1, culprit", DOMAIN_CASES, ids=DOMAIN_IDS)
def test_domain_failure_names_the_subexpression(route, term, x1, culprit):
    spec = dyn.SystemSpec(geo.MetricModel.euclidean(2), parse2(f"x2^2 + {term}"), 1.0)
    z = [x1, 0.5, 0.25, -0.5]
    with pytest.raises(ex.EvalDomainError) as err:
        _route(route, spec, z)
    assert err.value.node == parse2(culprit)
    # the interpreter raises the same error
    with pytest.raises(ex.EvalDomainError) as interpreted:
        if route in ("value", "total_energy", "value_array"):
            interpreted_value(spec.potential, z[:2])
        else:
            interpreted_gradient(spec.potential, z[:2])
    assert str(err.value) == str(interpreted.value)


@pytest.mark.parametrize("route", ["gradient", "state_rhs", "state_rhs_jvp"])
def test_failure_of_a_potential_derivative_only_is_named(route):
    # sqrt(x1^2) = |x1| has a value at x1 = 0 but no derivative there
    spec = dyn.SystemSpec(geo.MetricModel.euclidean(2), parse2("x2^2 + sqrt(x1^2)"), 1.0)
    z = [0.0, 0.5, 0.25, -0.5]
    assert spec.potential.value(z[:2]) == 0.25
    with pytest.raises(ex.EvalDomainError) as err:
        _route(route, spec, z)
    assert err.value.node == parse2("sqrt(x1^2)")


def test_failure_of_a_metric_derivative_only_is_named():
    # d/dx1 of (x1^2)^0.75 holds (x1^2)^-0.25, which has no value at x1 = 0
    f2 = parse2("(1 + (x1^2)^0.75)*(v1^2 + v2^2)")
    spec = dyn.SystemSpec(geo.MetricModel.finsler(f2, 2), parse2("x2^2"), 1.0)
    x, v = [0.0, 0.5], [0.25, -0.5]
    assert geo.metric_tensor(spec.metric, x, v) == [[1.0, 0.0], [0.0, 1.0]]
    runs = [lambda: dyn.state_rhs(spec, 0.0, x + v),
            lambda: geo.geodesic_coefficients(spec.metric, x, v)]
    for run in runs:
        with pytest.raises(ex.EvalDomainError) as err:
            run()
        assert err.value.node == parse2("(x1^2)^0.75")


def test_failure_of_a_second_derivative_only_is_named():
    # (v1^2)^1.5 has value and slope at v1 = 0, its second derivative holds (v1^2)^-0.5
    f2 = parse2("v1^2 + v2^2 + (v1^2)^1.5/sqrt(v1^2 + v2^2)")
    model = geo.MetricModel.finsler(f2, 2)
    point = [0.0, 0.0, 0.0, 1.0]
    ex.eval_dual(f2, point, None, 1)  # order 1 does not meet it
    with pytest.raises(ex.EvalDomainError) as err:
        geo.metric_tensor(model, point[:2], point[2:])
    assert err.value.node == parse2("(v1^2)^1.5")


def test_failure_no_tree_reproduces_propagates():
    class Reciprocal(ex.Compiled):
        dimension = 1

        def _functions(self, graph):
            # the code divides by x1; the one imported tree is x1 itself
            return [("f", 1, graph.div(graph.one, graph.tree(ex.var(0))), ())]

    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        Reciprocal().run("f", [0.0])


UNKNOWN_OPS = {"tan": lambda x: ex.Unary("tan", x),
               "mod": lambda x: ex.Binary("mod", x, ex.const(2.0))}
UNKNOWN_OP_MODELS = {
    # (the tree holding the unknown op, the use that imports it)
    "potential": lambda op: (ex.add(parse2("x2^2"), op),
                             lambda t: dyn.PotentialField(t, 2).value([0.5, 0.5])),
    "riemannian entry": lambda op: (
        ex.add(ex.const(2.0), op),
        lambda t: geo.MetricModel.riemannian([[t, ex.const(0.0)], [None, ex.const(1.0)]])),
    "finsler F^2": lambda op: (ex.mul(ex.add(ex.const(2.0), op), parse2("v1^2 + v2^2")),
                               lambda t: geo.MetricModel.finsler(t, 2)),
}


@pytest.mark.parametrize("op", list(UNKNOWN_OPS))
@pytest.mark.parametrize("model", list(UNKNOWN_OP_MODELS))
def test_unknown_op_is_named_at_import(model, op):
    # a hand-built op the grammar lacks: the graph's import names it as the
    # interpreter does, where the generated code would raise a bare
    # NameError or KeyError
    culprit = UNKNOWN_OPS[op](ex.var(0))
    tree, use = UNKNOWN_OP_MODELS[model](culprit)
    with pytest.raises(ex.EvalDomainError, match=f"unknown op '{op}'") as err:
        use(tree)
    assert err.value.node == culprit
    with pytest.raises(ex.EvalDomainError) as interpreted:
        ex.evaluate(tree, [0.5, 0.5, 0.25, -0.5])
    assert str(err.value) == str(interpreted.value)


def test_named_domain_failure_is_an_orbitlab_error():
    spec = dyn.SystemSpec(geo.MetricModel.euclidean(2), parse2("x2^2 + log(x1)"), 1.0)
    with pytest.raises(OrbitLabError) as err:
        dyn.state_rhs(spec, 0.0, [0.0, 0.5, 0.25, -0.5])
    assert isinstance(err.value, ex.EvalDomainError)
    assert err.value.node == parse2("log(x1)")


def test_fractional_power_of_negative_base_is_not_complex():
    assert isinstance((-8.0) ** (1 / 3), complex)
    pf = dyn.PotentialField(parse2("x1^0.5"), 2)
    with pytest.raises(ex.EvalDomainError, match="fractional power of negative base"):
        pf.value([-4.0, 0.0])
    assert pf.value([4.0, 0.0]) == 2.0


def test_metric_domain_failure_falls_back():
    # F^2 = exp(x1) (v1^2 + v2^2) overflows far out in x1
    f2 = parse2("exp(x1)*(v1^2 + v2^2)")
    spec = dyn.SystemSpec(geo.MetricModel.finsler(f2, 2), parse2("x2^2"), 1.0)
    with pytest.raises(ex.EvalDomainError) as err:
        dyn.state_rhs(spec, 0.0, [1000.0, 0.0, 1.0, 0.0])
    assert err.value.node == parse2("exp(x1)")


def test_indefinite_position_dependent_metric_is_rejected():
    metric = geo.MetricModel.riemannian([[ex.const(1.0), ex.const(0.0)], [None, parse2("x1")]])
    spec = dyn.SystemSpec(metric, parse2("x2^2"), 1.0)
    for run in (lambda z: dyn.state_rhs(spec, 0.0, z), lambda z: dyn.rhs_jacobian(spec, z)):
        with pytest.raises(geo.ModelValidityError, match="not positive definite"):
            run([-1.0, 0.0, 1.0, 1.0])


def test_singular_finsler_metric_is_reported():
    # g = diag(1, x1^2) is singular on x1 = 0
    spec = dyn.SystemSpec(geo.MetricModel.finsler(parse2("v1^2 + x1^2*v2^2"), 2), parse2("x2^2"), 1.0)
    with pytest.raises(geo.SingularMatrixError):
        dyn.state_rhs(spec, 0.0, [0.0, 0.5, 1.0, 1.0])
    with pytest.raises(geo.SingularMatrixError):
        dyn.rhs_jacobian(spec, [0.0, 0.5, 1.0, 1.0])


# ---------------------------------------------------------------------------
# Building once: immutable models
# ---------------------------------------------------------------------------

def test_build_is_lazy():
    spec = oscillator()
    assert "_code" not in vars(spec)
    dyn.state_rhs(spec, 0.0, [0.1, 0.2, 0.3, 0.4])
    code = spec._code
    dyn.state_rhs(spec, 0.0, [0.2, 0.2, 0.3, 0.4])
    assert spec._code is code


@pytest.mark.parametrize(
    "target, field, value",
    [
        (oscillator, "potential", dyn.PotentialField(parse2("x1 + x2^2"), 2)),
        (oscillator, "metric", geo.MetricModel.euclidean(2)),
        (oscillator, "energy", 2.0),
        (lambda: dyn.PotentialField(parse2("x1^2"), 2), "node", parse2("x1*x2")),
        (lambda: geo.MetricModel.finsler(parse2("v1^2 + v2^2"), 2), "f2_expr", parse2("2*v1^2")),
        (lambda: geo.MetricModel.euclidean(2), "g_exprs", ((ex.const(2.0),),)),
        (lambda: geo.Space.torus([1.0, 2.0]), "periods", (3.0, 4.0)),
    ],
    ids=[
        "spec.potential", "spec.metric", "spec.energy", "pf.node",
        "model.f2_expr", "model.g_exprs", "space.periods",
    ],
)
def test_replacing_a_field_raises(target, field, value):
    with pytest.raises(FrozenInstanceError):
        setattr(target(), field, value)


def test_replacing_a_metric_entry_raises():
    model = geo.MetricModel.euclidean(2)
    with pytest.raises(TypeError):
        model.g_exprs[0] = (ex.const(2.0), ex.const(0.0))
    with pytest.raises(TypeError):
        model.g_exprs[0][0] = ex.const(2.0)


def test_flow_and_metric_tensor_read_one_metric():
    # a replaced g used to reach metric_tensor but not the compiled flow
    spec = oscillator((1.0, 1.0))
    z = [0.5, 0.25, 0.1, -0.2]
    with pytest.raises(FrozenInstanceError):
        spec.metric.g_exprs = (
            (ex.const(2.0), ex.const(0.0)), (ex.const(0.0), ex.const(2.0))
        )
    assert geo.metric_tensor(spec.metric, z[:2], z[2:]) == [[1.0, 0.0], [0.0, 1.0]]
    assert dyn.state_rhs(spec, 0.0, z)[2:] == [-0.5, -0.25]
    doubled = dyn.SystemSpec(
        geo.MetricModel.riemannian([[ex.const(2.0), ex.const(0.0)], [None, ex.const(2.0)]]),
        spec.potential,
        spec.energy,
    )
    assert geo.metric_tensor(doubled.metric, z[:2], z[2:]) == [[2.0, 0.0], [0.0, 2.0]]
    assert dyn.state_rhs(doubled, 0.0, z)[2:] == [-0.25, -0.125]


def test_x_dependent_entries_are_checked_definite():
    # x-dependent entries given to a constant metric used to skip the check
    model = geo.MetricModel.euclidean(2)
    varying = ((parse2("x1"), ex.const(0.0)), (ex.const(0.0), ex.const(1.0)))
    with pytest.raises(FrozenInstanceError):
        model.g_exprs = varying
    assert geo.metric_tensor(model, [-1.0, 0.0], [1.0, 1.0]) == [[1.0, 0.0], [0.0, 1.0]]
    model = geo.MetricModel.riemannian(varying)  # not constant: constructs, checked where evaluated
    assert geo.metric_tensor(model, [1.0, 0.0], [1.0, 1.0]) == [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(geo.ModelValidityError, match="not positive definite"):
        geo.geodesic_coefficients(model, [-1.0, 0.0], [1.0, 1.0])


def test_finsler_rest_point_takes_the_metric_in_the_descent_direction():
    spec = quartic_finsler_well()
    z = [0.3, -0.2, 0.0, 0.0]
    assert_close(dyn.state_rhs(spec, 0.0, z), interpreted_state_rhs(spec, z))


def test_metric_build_is_lazy():
    # a Finsler model builds its width-0 code at construction, where its F^2
    # is spot-checked by one array call of that code; later routes reuse it
    model = geo.MetricModel.finsler(parse2("v1^2 + v2^2"), 2)
    x, v = [0.1, 0.2], [0.3, 0.4]
    code = vars(model)["_code"]
    built = code[0]
    assert list(code) == [0]
    assert geo.metric_tensor(model, x, v) == [[1.0, 0.0], [0.0, 1.0]]
    geo.geodesic_coefficients(model, x, v)
    assert model._code is code and code == {0: built}
    # a Riemannian model still builds on first use
    model = geo.MetricModel.riemannian([[parse2("1 + x1^2"), ex.const(0.0)],
                                        [None, ex.const(1.0)]])
    assert "_code" not in vars(model)
    assert geo.metric_tensor(model, x, v) == [[1.01, 0.0], [0.0, 1.0]]
    assert list(model._code) == [0]


def test_used_metric_pickles_and_copies():
    model = quartic_finsler_well().metric
    x, v = [0.3, -0.2], [0.7, 0.4]
    g, spray = geo.metric_tensor(model, x, v), geo.geodesic_coefficients(model, x, v)
    for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert "_code" not in vars(clone)
        assert geo.metric_tensor(clone, x, v) == g
        assert geo.geodesic_coefficients(clone, x, v) == spray


def test_used_system_pickles_and_copies():
    spec = quartic_finsler_well()
    z = [0.3, -0.2, 0.7, 0.4]
    value = dyn.state_rhs(spec, 0.0, z)
    energy = dyn.total_energy(spec, z[:2], z[2:])
    for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert "_code" not in vars(clone) and "_code" not in vars(clone.potential)
        assert dyn.state_rhs(clone, 0.0, z) == value
        assert dyn.total_energy(clone, z[:2], z[2:]) == energy


def test_models_compare_and_hash_by_value():
    assert geo.MetricModel.euclidean(2) == geo.MetricModel.euclidean(2)
    assert hash(geo.MetricModel.euclidean(2)) == hash(geo.MetricModel.euclidean(2))
    torus = geo.Space.torus([1.0, 1.0])
    assert geo.MetricModel.euclidean(2) != geo.MetricModel.euclidean(2, torus)
    assert geo.MetricModel.euclidean(2) != geo.MetricModel.euclidean(3)
    assert oscillator((1.0, 2.0)) == oscillator((1.0, 2.0))
    assert oscillator((1.0, 2.0)) != oscillator((1.0, 3.0))
    spec = quartic_finsler_well()
    dyn.state_rhs(spec, 0.0, [0.3, -0.2, 0.7, 0.4])
    for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert clone == spec and hash(clone) == hash(spec)
        assert clone.metric == spec.metric and clone.potential == spec.potential


def test_direct_construction_is_validated():
    indefinite = ((ex.const(-1.0), ex.const(0.0)), (ex.const(0.0), ex.const(1.0)))
    with pytest.raises(geo.ModelValidityError, match="not positive definite"):
        geo.MetricModel("riemannian", 2, geo.Space.euclidean(), g_exprs=indefinite)
    with pytest.raises(geo.ModelValidityError, match="homogeneous"):
        geo.MetricModel("finsler", 2, geo.Space.euclidean(), f2_expr=parse2("v1^2 + v2^3"))
    with pytest.raises(geo.ModelValidityError, match="unknown metric kind"):
        geo.MetricModel("lorentzian", 2, geo.Space.euclidean())


def test_potential_and_metric_dimensions_must_agree():
    # x3 of a 3-D potential used to be read from the v1 slot of a 2-D flow
    with pytest.raises(geo.ModelValidityError, match="dimension"):
        dyn.SystemSpec(
            geo.MetricModel.euclidean(2), dyn.PotentialField(ex.parse("x1^2 + x3^2", 3), 3), 1.0
        )
    with pytest.raises(geo.ModelValidityError, match="dimension"):
        dyn.SystemSpec(geo.MetricModel.euclidean(3), dyn.PotentialField(parse2("x1^2"), 2), 1.0)
