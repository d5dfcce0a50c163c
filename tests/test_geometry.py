import math

import numpy as np
import pytest

from orbitlab import expr as ex
from orbitlab import geometry as geo

from oracles import (
    cartan_tensor,
    christoffel_first,
    christoffel_second,
    fd_gradient,
    fd_second,
    fd_third,
    geodesic_coefficients_via_christoffel,
    interpreted_spot_check,
    legendre,
    legendre_inverse,
    metric_and_spray,
    metric_x_derivatives,
)
from test_straight_line import REL


def quartic_metric(n=2) -> geo.MetricModel:
    # euclidean norm plus a small quartic ripple; reversible, 2-homogeneous
    quartic = " + ".join(f"v{i+1}^4" for i in range(n))
    square = " + ".join(f"v{i+1}^2" for i in range(n))
    return geo.MetricModel.finsler(
        ex.parse(f"{square} + 0.1*sqrt({quartic})", n), n
    )


def x_dependent_finsler_metric() -> geo.MetricModel:
    # position-dependent weights, one of them a divisor that depends on x only
    return geo.MetricModel.finsler(
        ex.parse(
            "(1 + 0.3*sin(x1)*cos(x2))*(v1^2 + v2^2)"
            " + 0.1*exp(x2)*sqrt(v1^4 + v2^4)/(2 + cos(x1))",
            2,
        ),
        2,
    )


def conformal_exp_metric() -> geo.MetricModel:
    # g = exp(x1) * identity in 2d
    e = ex.parse("exp(x1)", 2)
    zero = ex.const(0.0)
    return geo.MetricModel.riemannian([[e, zero], [zero, e]])


def f2_of(model, x, v):
    return geo.f_squared(model, list(x), list(v))


class TestMetricTensor:
    def test_euclidean_finsler_identity(self):
        model = geo.MetricModel.finsler(ex.parse("v1^2 + v2^2", 2), 2)
        g = np.array(geo.metric_tensor(model, [0.3, -1.0], [0.4, 2.0]))
        assert np.allclose(g, np.eye(2), atol=1e-14)

    def test_riemannian_readoff(self):
        model = geo.MetricModel.riemannian(
            [[ex.const(1.0), ex.const(0.0)], [ex.const(0.0), ex.parse("x1^2 + 1", 2)]]
        )
        g = np.array(geo.metric_tensor(model, [1.0, 0.0], [1.0, 1.0]))
        assert np.allclose(g, np.diag([1.0, 2.0]), atol=1e-15)

    def test_quartic_matches_fd_hessian(self):
        model = quartic_metric()
        x = [0.2, 0.5]
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        g = np.array(geo.metric_tensor(model, x, list(v)))
        for i in range(2):
            for j in range(2):
                fd = 0.5 * fd_second(lambda w: f2_of(model, x, w), v, i, j, h=1e-4)
                assert abs(g[i, j] - fd) < 1e-6

    def test_symmetry_exact(self):
        model = quartic_metric()
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.uniform(-1, 1, 2) + 0.1
            g = geo.metric_tensor(model, list(rng.uniform(-1, 1, 2)), list(v))
            assert g[0][1] == g[1][0]

    def test_degree_zero_homogeneity(self):
        model = quartic_metric()
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = list(rng.uniform(-1, 1, 2))
            v = list(rng.uniform(0.2, 1.0, 2))
            g1 = np.array(geo.metric_tensor(model, x, v))
            g2 = np.array(geo.metric_tensor(model, x, [2 * c for c in v]))
            assert np.max(np.abs(g1 - g2)) < 1e-10 * (1 + np.max(np.abs(g1)))

    def test_non_positive_definite_rejected(self):
        model = geo.MetricModel.riemannian(
            [[ex.const(1.0), ex.const(0.0)], [ex.const(0.0), ex.parse("x1", 2)]]
        )
        with pytest.raises(geo.ModelValidityError):
            geo.metric_tensor(model, [-1.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("route", [geo.metric_tensor, metric_and_spray,
                                       geo.geodesic_coefficients])
    def test_indefinite_finsler_tensor_is_rejected(self, route):
        # g = diag(1, -1): every route takes its pivots, the spray's solve too
        model = geo.MetricModel.finsler(ex.parse("v1^2 - v2^2", 2), 2)
        with pytest.raises(geo.ModelValidityError,
                           match=r"fundamental tensor is not positive definite \(pivot -1"):
            route(model, [0.1, 0.2], [1.0, 0.5])

    @pytest.mark.parametrize("make_model", [quartic_metric, x_dependent_finsler_metric])
    def test_finsler_equals_half_vv_block_of_full_hessian(self, make_model):
        # compiled code against one order-2 dual in all 2n directions
        model = make_model()
        n = model.dimension
        rng = np.random.default_rng(11)
        for _ in range(100):
            x, v = list(rng.uniform(-1.5, 1.5, n)), list(rng.uniform(-1.0, 1.0, n))
            full = ex.eval_dual(model.f2_expr, x + v, None, 2)
            half_vv = np.array([[0.5 * full.hess[n + i][n + j] for j in range(n)]
                                for i in range(n)])
            g = np.array(geo.metric_tensor(model, x, v))
            assert np.all(np.abs(g - half_vv) <= REL * (1.0 + np.abs(half_vv)))

    def test_finsler_needs_nonzero_v(self):
        with pytest.raises(geo.ModelValidityError):
            geo.metric_tensor(quartic_metric(), [0.0, 0.0], [0.0, 0.0])


TORUS = geo.Space.torus([2 * math.pi, 2 * math.pi])
# (F^2, dimension, space): accepted, rejected by a check, or failing in its domain
SPOT_CHECK_CASES = [
    ("v1^2 + v2^2 + 0.1*sqrt(v1^4 + v2^4)", 2, None),
    ("v1^2 + v2^2", 2, None),
    ("v1^2 + v2^3", 2, None),
    ("v1^2 + v2^2 + 0.3*v1*sqrt(v1^2 + v2^2)", 2, None),
    ("(v1^2 + v2^2)^1.0000001", 2, None),
    ("sqrt(v1)*v1^1.5 + v2^2", 2, None),
    ("log(x1)*(v1^2 + v2^2)", 2, None),
    ("(1 + 0.3*sin(x1)*cos(x2))*(v1^2 + v2^2)", 2, TORUS),
    ("(1 + 0.3*sin(x1)*cos(x2))*(v1^2 + v2^2) + 0.1*exp(x2)*sqrt(v1^4 + v2^4)/(2 + cos(x1))",
     2, None),
    ("v1^2 + v2^2 + v3^2 + 0.1*sqrt(v1^4 + v2^4 + v3^4)", 3, None),
    ("v1^2/x2 + v2^2", 2, None),
    ("exp(x1)*v1^2", 1, None),
]


def spot_check_outcome(check):
    """None if ``check`` returns, else the type, message and named node of
    what it raised."""
    try:
        check()
    except (geo.ModelValidityError, ex.EvalDomainError) as exc:
        return type(exc), str(exc), getattr(exc, "node", None)
    return None


def unchecked_finsler(monkeypatch, f2, n, space=None):
    """A Finsler model of F^2 built without the library's spot check, for
    the interpreter's."""
    with monkeypatch.context() as patched:
        patched.setattr(geo.MetricModel, "_spot_check_finsler", lambda self: None)
        return geo.MetricModel.finsler(f2, n, space)


class TestModelValidation:
    def test_non_homogeneous_f2_rejected(self):
        with pytest.raises(geo.ModelValidityError):
            geo.MetricModel.finsler(ex.parse("v1^2 + v2^3", 2), 2)

    def test_non_reversible_f2_rejected(self):
        # Randers-type term breaks reversibility
        with pytest.raises(geo.ModelValidityError):
            geo.MetricModel.finsler(
                ex.parse("v1^2 + v2^2 + 0.5*v1*sqrt(v1^2+v2^2)", 2), 2
            )

    @pytest.mark.parametrize("entries, match", [
        ([[ex.parse("-1", 2), ex.const(0.0)], [None, ex.const(1.0)]],
         r"constant metric is not positive definite \(pivot -1"),
        ([[ex.const(0.0), ex.const(0.0)], [None, ex.const(0.0)]],
         "constant metric is singular"),
    ], ids=["folded-constant", "all-zero"])
    def test_constant_metric_is_checked_at_construction(self, entries, match):
        # a g is constant when its entries fold to constants, whatever their syntax
        with pytest.raises(geo.ModelValidityError, match=match):
            geo.MetricModel.riemannian(entries)

    def test_the_pivot_floor_is_the_boundary(self):
        # g = [[1, 1], [1, 1 + e]] has the pivot e and a least eigenvalue near
        # e / 2: e = 1e-13 clears 1e-14 max |g_ij|, e = 1e-15 does not
        def metric(g22):
            return geo.MetricModel.riemannian([[ex.const(1.0), ex.const(1.0)],
                                               [None, ex.const(g22)]])

        g = geo.metric_tensor(metric(1.0 + 1e-13), [0.0, 0.0], [1.0, 0.0])
        assert g == [[1.0, 1.0], [1.0, 1.0 + 1e-13]]
        with pytest.raises(geo.ModelValidityError) as info:
            metric(1.0 + 1e-15)
        assert type(info.value) is geo.SingularMatrixError

    def test_velocity_dependence_rejected_in_riemannian(self):
        with pytest.raises(geo.ModelValidityError):
            geo.MetricModel.riemannian(
                [[ex.parse("1 + v1^2", 1)]]
            )

    def test_non_square_riemannian_entries_rejected(self):
        # a third column used to be dropped silently
        row = [ex.const(1.0), ex.const(0.0), ex.const(0.0)]
        with pytest.raises(geo.ModelValidityError, match=r"2 rows of 2, got row lengths \[3, 3\]"):
            geo.MetricModel.riemannian([row, row])

    def test_ragged_riemannian_entries_rejected(self):
        # a short row used to raise IndexError
        one, zero = ex.const(1.0), ex.const(0.0)
        with pytest.raises(geo.ModelValidityError, match=r"2 rows of 2, got row lengths \[2, 1\]"):
            geo.MetricModel.riemannian([[one, zero], [one]])
        with pytest.raises(geo.ModelValidityError, match=r"entry \(1, 2\) is missing"):
            geo.MetricModel.riemannian([[one, None], [None, one]])

    def test_lower_triangle_may_be_left_out(self):
        one, half = ex.const(1.0), ex.const(0.5)
        full = geo.MetricModel.riemannian([[one, half], [half, one]])
        assert geo.MetricModel.riemannian([[one, half], [None, one]]) == full
        assert geo.MetricModel.riemannian([[one, None], [half, one]]) == full
        assert full.g_exprs == ((one, half), (half, one))

    def test_finsler_model_needs_its_f2(self):
        # used to raise AttributeError from the spot check
        with pytest.raises(geo.ModelValidityError, match="F\\^2 expression"):
            geo.MetricModel("finsler", 2, geo.Space.euclidean())

    def test_f2_beyond_the_state_variables_rejected(self):
        # v2 of a 3-D parse is variable 4, past the four of dimension 2; used
        # to raise IndexError from the spot check
        with pytest.raises(geo.ModelValidityError, match="only the 4 state variables"):
            geo.MetricModel.finsler(ex.parse("v1^2 + v2^2 + x3^2*v1^2", 3), 2)

    def test_field_of_the_other_kind_rejected(self):
        # a riemannian model used to keep and ignore an F^2 expression
        one, zero = ex.const(1.0), ex.const(0.0)
        f2 = ex.parse("v1^2 + v2^2", 2)
        entries = ((one, zero), (zero, one))
        with pytest.raises(geo.ModelValidityError, match="takes no F\\^2"):
            geo.MetricModel("riemannian", 2, geo.Space.euclidean(), g_exprs=entries, f2_expr=f2)
        with pytest.raises(geo.ModelValidityError, match="no entries"):
            geo.MetricModel("finsler", 2, geo.Space.euclidean(), g_exprs=entries, f2_expr=f2)

    @pytest.mark.parametrize("source, n, space", SPOT_CHECK_CASES,
                             ids=[case[0] for case in SPOT_CHECK_CASES])
    def test_spot_check_ends_as_the_interpreter_loop(self, monkeypatch, source, n, space):
        # one array call of the compiled F^2 in place of 100 interpreted
        # points: the same acceptance, or the same exception and message
        f2 = ex.parse(source, n)
        unchecked = unchecked_finsler(monkeypatch, f2, n, space)
        library = spot_check_outcome(lambda: geo.MetricModel.finsler(f2, n, space))
        assert library == spot_check_outcome(lambda: interpreted_spot_check(unchecked))

    def test_domain_failure_is_named_before_the_checks(self, monkeypatch):
        # the array call names a failure at any sampled point before any
        # state is checked, where the interpreter's state-by-state loop
        # reports the first state's homogeneity failure (v2^3) before the
        # third state's log(x2), x2 < 0
        f2 = ex.parse("v1^2 + v2^3 + log(x2)*v1^2", 2)
        with pytest.raises(ex.EvalDomainError) as info:
            geo.MetricModel.finsler(f2, 2)
        assert info.value.node == ex.parse("log(x2)", 2)
        with pytest.raises(geo.ModelValidityError, match="not positively homogeneous"):
            interpreted_spot_check(unchecked_finsler(monkeypatch, f2, 2))

    def test_homogeneity_property_sweep(self):
        model = quartic_metric()
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = list(rng.uniform(-1.5, 1.5, 2))
            v = list(rng.uniform(-1.0, 1.0, 2) + 0.2)
            f2 = f2_of(model, x, v)
            for lam in (0.5, 2.0, 3.0):
                f2s = f2_of(model, x, [lam * c for c in v])
                assert abs(f2s - lam * lam * f2) < 1e-10 * lam * lam * (1 + abs(f2))


class TestCartan:
    def test_riemannian_cartan_vanishes(self):
        model = conformal_exp_metric()
        c = np.array(cartan_tensor(model, [0.4, 0.1], [1.0, 2.0]))
        assert np.all(c == 0.0)

    def test_contraction_identity(self):
        model = quartic_metric()
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = list(rng.uniform(-1, 1, 2))
            v = list(rng.uniform(-1, 1, 2))
            if abs(v[0]) + abs(v[1]) < 0.2:
                v = [c + 0.5 for c in v]
            c = np.array(cartan_tensor(model, x, v))
            norm = np.max(np.abs(c)) + 1e-30
            vv = np.asarray(v)
            for axis in range(3):
                contracted = np.tensordot(c, vv, axes=([axis], [0]))
                assert np.max(np.abs(contracted)) < 1e-8 * norm

    def test_value_matches_third_fd(self):
        model = quartic_metric()
        x = [0.0, 0.0]
        v = np.array([1.0, 0.25])
        c = np.array(cartan_tensor(model, x, list(v)))
        for i, j, k in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]:
            fd = 0.25 * fd_third(lambda w: f2_of(model, x, w), v, i, j, k, h=1e-3)
            assert abs(c[i, j, k] - fd) < 1e-5


class TestChristoffel:
    def test_flat_euclidean_zero(self):
        model = geo.MetricModel.euclidean(2)
        gamma = np.array(christoffel_second(model, [0.3, 0.4], [1.0, 0.0]))
        assert np.all(gamma == 0.0)

    def test_conformal_exp_hand_value(self):
        # g = exp(x1) I in 2d gives Gamma^1_11 = 1/2 at every point
        model = conformal_exp_metric()
        for x in ([0.0, 0.0], [0.7, -0.3]):
            gamma = np.array(christoffel_second(model, x, [1.0, 0.5]))
            assert gamma[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
            # remaining hand values for conformal factor phi = x1:
            # Gamma^1_22 = -1/2, Gamma^2_12 = 1/2
            assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
            assert gamma[1, 0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_first_kind_contraction_identity(self):
        # gamma_ijk v^j v^k equals half of d g_jk / d x^i v^j v^k
        model = conformal_exp_metric()
        x, v = [0.3, 0.2], [0.8, -0.5]
        gamma = np.array(christoffel_first(model, x, v))
        _, dg = metric_x_derivatives(model, x, v)
        dg = np.array(dg)
        vv = np.asarray(v)
        lhs = np.einsum("ijl,j,l->i", gamma, vv, vv)
        rhs = 0.5 * np.einsum("ijk,j,k->i", dg, vv, vv)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_finsler_first_kind_matches_fd(self):
        model = quartic_metric()
        x = np.array([0.1, -0.2])
        v = [0.9, 0.4]
        _, dg = metric_x_derivatives(model, list(x), v)
        # quartic metric has x-independent coefficients: all derivatives zero
        assert np.max(np.abs(np.array(dg))) == 0.0


class TestGeodesicCoefficients:
    def test_euclidean_zero(self):
        model = geo.MetricModel.euclidean(3)
        assert geo.geodesic_coefficients(model, [1.0, 2.0, 3.0], [0.1, 0.2, 0.3]) == [
            0.0,
            0.0,
            0.0,
        ]

    def test_matches_christoffel_route(self):
        rng = np.random.default_rng(8)
        for model in (conformal_exp_metric(), quartic_metric()):
            for _ in range(10):
                x = list(rng.uniform(-0.8, 0.8, 2))
                v = list(rng.uniform(0.2, 1.0, 2))
                direct = geo.geodesic_coefficients(model, x, v)
                via = geodesic_coefficients_via_christoffel(model, x, v)
                assert np.allclose(direct, via, atol=1e-11)

    def test_degree_two_homogeneity(self):
        rng = np.random.default_rng(9)
        model = conformal_exp_metric()
        for _ in range(20):
            x = list(rng.uniform(-1, 1, 2))
            v = list(rng.uniform(-1, 1, 2) + 0.1)
            g1 = np.array(geo.geodesic_coefficients(model, x, v))
            g2 = np.array(geo.geodesic_coefficients(model, x, [2 * c for c in v]))
            assert np.allclose(g2, 4.0 * g1, atol=1e-11 * (1 + np.max(np.abs(g1))))


class TestLegendre:
    def test_euclidean_identity(self):
        model = geo.MetricModel.euclidean(2)
        assert legendre(model, [0.0, 0.0], [0.3, -0.7]) == [0.3, -0.7]

    def test_diagonal_riemannian(self):
        model = geo.MetricModel.riemannian(
            [[ex.const(1.0), ex.const(0.0)], [ex.const(0.0), ex.const(2.0)]]
        )
        assert legendre(model, [0.0, 0.0], [1.0, 1.0]) == [1.0, 2.0]

    def test_riemannian_inverse_is_linear_solve(self):
        model = conformal_exp_metric()
        x = [0.5, 0.1]
        v = [0.4, -1.2]
        y = legendre(model, x, v)
        back = legendre_inverse(model, x, y)
        assert np.allclose(back, v, atol=1e-14)

    def test_finsler_round_trip(self):
        model = quartic_metric()
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = list(rng.uniform(-1, 1, 2))
            v = list(rng.uniform(-1.5, 1.5, 2))
            if np.linalg.norm(v) < 0.2:
                v = [c + 0.4 for c in v]
            y = legendre(model, x, v)
            back = legendre_inverse(model, x, y)
            err = np.max(np.abs(np.array(back) - np.array(v)))
            assert err < 1e-10 * (1 + np.max(np.abs(v)))

    def test_zero_momentum_rejected(self):
        with pytest.raises(geo.ModelValidityError):
            legendre_inverse(quartic_metric(), [0.0, 0.0], [0.0, 0.0])


class TestSpace:
    def test_wrap(self):
        sp = geo.Space.torus([2.0, 4.0])
        assert np.allclose(sp.wrap([2.5, -1.0]), [0.5, 3.0])

    def test_minimal_image_delta(self):
        sp = geo.Space.torus([2.0, 2.0])
        d = sp.delta([1.9, 0.0], [0.1, 0.0])
        assert np.allclose(d, [-0.2, 0.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_period_rejected(self, bad):
        with pytest.raises(geo.ModelValidityError, match="positive and finite"):
            geo.Space.torus([1.0, bad])

    @pytest.mark.parametrize("periods", [[1.0], [1.0, 1.0, 1.0]])
    def test_period_count_must_match_dimension(self, periods):
        with pytest.raises(geo.ModelValidityError, match="periods for dimension 2"):
            geo.MetricModel.euclidean(2, geo.Space.torus(periods))
        with pytest.raises(geo.ModelValidityError, match="periods for dimension 2"):
            geo.MetricModel.finsler(ex.parse("v1^2 + v2^2", 2), 2, geo.Space.torus(periods))

    @pytest.mark.parametrize("periods", [None, (), []])
    def test_torus_needs_periods(self, periods):
        with pytest.raises(geo.ModelValidityError, match="positive and finite"):
            geo.Space("torus", periods)

    def test_direct_torus_is_checked_and_stored_as_floats(self):
        with pytest.raises(geo.ModelValidityError, match="positive and finite"):
            geo.Space("torus", (1.0, -1.0))
        assert geo.Space("torus", [1, 2]) == geo.Space.torus([1.0, 2.0])
        assert geo.Space("torus", [1, 2]).periods == (1.0, 2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(geo.ModelValidityError, match="unknown space kind 'klein'"):
            geo.Space("klein")

    def test_euclidean_space_takes_no_periods(self):
        with pytest.raises(geo.ModelValidityError, match="no periods"):
            geo.Space("euclidean", (1.0, 1.0))

    def test_euclidean_passthrough(self):
        sp = geo.Space.euclidean()
        assert np.allclose(sp.delta([1.0], [3.5]), [-2.5])
