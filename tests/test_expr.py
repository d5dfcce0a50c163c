import math
import random

import numpy as np
import pytest

from orbitlab import expr as ex

from oracles import (
    central_diff,
    dual_first_vs_fd_samples,
    dual_scalar,
    fd_second,
    random_expression,
)


class TestParse:
    def test_sum_of_squares_shape(self):
        node = ex.parse("x1^2 + x2^2", 2)
        expected = ex.add(ex.powc(ex.var(0), 2.0), ex.powc(ex.var(1), 2.0))
        assert node == expected

    def test_kinetic_eval(self):
        node = ex.parse("0.5*(v1^2+v2^2)", 2)
        assert ex.evaluate(node, [0.0, 0.0, 1.0, 0.0]) == 0.5

    def test_expression_exponent_rejected(self):
        with pytest.raises(ex.ParseError):
            ex.parse("x1^x2", 2)

    def test_whitespace_insensitive(self):
        assert ex.parse(" x1 +  2* v1 ", 1) == ex.parse("x1+2*v1", 1)

    def test_precedence(self):
        # pow binds tighter than unary minus, which binds tighter than mul
        node = ex.parse("-x1^2*3", 1)
        expected = ex.mul(ex.neg(ex.powc(ex.var(0), 2.0)), ex.const(3.0))
        assert node == expected

    def test_function_application_then_pow(self):
        node = ex.parse("sin(x1)^2", 1)
        assert node == ex.powc(ex.Unary("sin", ex.var(0)), 2.0)

    def test_unknown_identifier(self):
        with pytest.raises(ex.ParseError):
            ex.parse("x1 + foo", 1)

    def test_variable_out_of_range(self):
        with pytest.raises(ex.ParseError):
            ex.parse("x3", 2)
        with pytest.raises(ex.ParseError):
            ex.parse("v3", 2)

    def test_syntax_error_has_offset(self):
        with pytest.raises(ex.ParseError) as err:
            ex.parse("x1 + ", 1)
        assert "byte" in str(err.value)

    def test_scientific_numbers(self):
        node = ex.parse("1.5e-3 * x1", 1)
        assert ex.evaluate(node, [2.0, 0.0]) == pytest.approx(3e-3)

    def test_roundtrip_printer(self):
        sources = [
            "x1^2 + x2^2",
            "0.5*(v1^2+v2^2)",
            "sin(x1)*cos(x2) - exp(-x1^2)/sqrt(1+v2^2)",
            "-x1^3 + x2/v1 - log(1+x1^2)",
        ]
        for s in sources:
            tree = ex.parse(s, 2)
            assert ex.parse(ex.to_source(tree, 2), 2) == tree

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            tree = random_expression(rng, 2, depth=3)
            assert ex.parse(ex.to_source(tree, 2), 2) == tree


class TestEvalDual:
    def test_sin_at_zero(self):
        d = dual_scalar(ex.parse("sin(x1)", 1), [0.0, 0.0], [0])
        assert d.value == 0.0
        assert d.first[0] == 1.0

    def test_product_rule(self):
        d = dual_scalar(ex.parse("x1*x2", 2), [2.0, 3.0, 0.0, 0.0], [0, 1])
        assert d.value == 6.0
        assert d.first == [3.0, 2.0]

    def test_exp_square_matches_fd(self):
        node = ex.parse("exp(x1^2)", 1)
        d = dual_scalar(node, [0.7, 0.0], [0])
        fd = central_diff(lambda t: ex.evaluate(node, [t, 0.0]), 0.7, 1e-5)
        assert abs(d.first[0] - fd) < 1e-6 * (1.0 + abs(d.value))
        # frozen analytic value: 2*0.7*exp(0.49)
        assert d.first[0] == pytest.approx(2.2852427079375, abs=1e-9)

    def test_second_derivatives_symmetric_and_match_fd(self):
        node = ex.parse("sin(x1*x2) + x1^3/(2 + x2^2)", 2)
        point = [0.8, -0.4, 0.0, 0.0]
        d = dual_scalar(node, point, [0, 1], order=2)
        sec = np.array(d.second)
        assert np.array_equal(sec, sec.T)

        def f(p):
            return ex.evaluate(node, list(p) + [0.0, 0.0])

        for i in range(2):
            for j in range(2):
                fd = fd_second(f, point[:2], i, j)
                assert abs(sec[i, j] - fd) < 1e-5 * (1.0 + abs(sec[i, j]))

    def test_inactive_directions_are_constants(self):
        node = ex.parse("x1*v1", 1)
        d = dual_scalar(node, [2.0, 5.0], [0])
        assert d.first == [5.0]

    def test_log_domain_error_reports_node(self):
        node = ex.parse("log(x1)", 1)
        with pytest.raises(ex.EvalDomainError) as err:
            ex.evaluate(node, [-1.0, 0.0])
        assert "log" in str(err.value)

    def test_sqrt_domain_error(self):
        with pytest.raises(ex.EvalDomainError):
            ex.evaluate(ex.parse("sqrt(x1)", 1), [-4.0, 0.0])

    def test_division_by_zero(self):
        with pytest.raises(ex.EvalDomainError):
            ex.evaluate(ex.parse("1/x1", 1), [0.0, 0.0])

    def test_evaluation_deterministic(self):
        node = ex.parse("sin(x1)*exp(x2) - x1/(1+x2^2)", 2)
        pt = [0.3, 0.7, 0.0, 0.0]
        first = ex.evaluate(node, pt)
        for _ in range(5):
            assert ex.evaluate(node, pt) == first


class TestDerivativeSoundness:
    def test_first_derivatives_match_central_differences(self):
        # property from the module contract, 200 samples here; the full
        # 500-sample sweep runs in the acceptance suite
        for node, point, direction, dual, fd in dual_first_vs_fd_samples(200, seed=3):
            value = ex.evaluate(node, point)
            tol = 1e-6 * (1.0 + abs(value)) + 1e-6 * abs(dual)
            assert abs(dual - fd) < max(tol, 1e-6), ex.to_source(node, 3)

    def test_pow_edge_cases(self):
        # x^0 and x^1 at x = 0 must not divide by zero in derivative terms
        for p, expect_first in [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]:
            d = dual_scalar(ex.powc(ex.var(0), p), [0.0, 0.0], [0], order=2)
            assert d.first[0] == expect_first

    def test_third_order_chain(self):
        # order 2 at tag 1 over an order-1 seed at tag 0: the Hessian entry's
        # inner gradient is the third derivative
        x = 0.7
        node = ex.parse("exp(x1^2)", 1)
        d = ex.eval_dual(node, [ex.Dual.seed(x, 1, 0), 0.0], [0], order=2, tag=1)
        analytic = (12 * x + 8 * x**3) * math.exp(x * x)
        assert ex.val_of(d.hess[0][0].grad[0]) == pytest.approx(analytic, rel=1e-12)

    def test_order_three_rejected(self):
        with pytest.raises(ValueError):
            ex.eval_dual(ex.parse("exp(x1^2)", 1), [0.7, 0.0], [0], order=3)

    def test_value_part_equals_float_evaluation(self):
        rng = random.Random(0)
        compared = 0
        for _ in range(3000):
            dim = rng.choice([1, 2, 3])
            node = random_expression(rng, dim, 4)
            point = [rng.uniform(-1.5, 1.5) for _ in range(2 * dim)]
            try:
                want = ex.evaluate(node, point)
                got = ex.val_of(ex.eval_dual(node, point, order=2).val)
            except ex.EvalDomainError:
                continue
            assert got == want or (math.isnan(got) and math.isnan(want)), ex.to_source(node, dim)
            compared += 1
        assert compared > 2900


class TestNestedDuals:
    def test_cross_level_arithmetic_guarded(self):
        a = ex.Dual.seed(1.0, 2, 0, tag=0)
        b = ex.Dual.seed(1.0, 2, 0, tag=1)
        with pytest.raises(ValueError):
            a * b

    def test_mixed_order_arithmetic_guarded(self):
        # an order-1 factor would silently drop the order-2 factor's Hessian
        first = ex.Dual.seed(1.0, 2, 0, order=1)
        second = ex.Dual.seed(1.0, 2, 0, order=2)
        with pytest.raises(ValueError):
            first * second
        with pytest.raises(ValueError):
            second * first

    def test_nested_second_derivative(self):
        # f(x) = x^3: inner grad 3x^2, outer derivative of that 6x
        x0 = 1.5
        inner_x = ex.Dual.seed(ex.Dual.seed(x0, 1, 0, tag=0), 1, 0, tag=1)
        f = inner_x**3
        assert ex.val_of(f.val) == pytest.approx(x0**3)
        assert ex.val_of(f.grad[0]) == pytest.approx(3 * x0**2)
        assert f.grad[0].grad[0] == pytest.approx(6 * x0)


class TestGraph:
    def compile_one(self, source, dimension=2, outputs=None):
        graph = ex.Graph(dimension)
        node = graph.tree(ex.parse(source, dimension))
        result = node if outputs is None else outputs(graph, node)
        floats, duals = graph.build([("f", 2 * dimension, result, (node,))])
        return graph, floats["f"], duals["f"]

    def test_common_subexpressions_are_one_node(self):
        graph = ex.Graph(1)
        node = graph.tree(ex.parse("sin(x1)*sin(x1) + sin(x1)", 1))
        assert [op for op, _, _ in graph.ops].count("sin") == 1
        assert node == graph.tree(ex.parse("sin(x1)*sin(x1) + sin(x1)", 1))

    def test_constants_fold_and_keep_the_sign_of_zero(self):
        graph = ex.Graph(1)
        assert graph.value(graph.tree(ex.parse("2*3 - 2^0.5", 1))) == 6.0 - 2.0**0.5
        assert graph.const(-0.0) != graph.const(0.0)
        assert graph.mul(graph.var(0), graph.one) == graph.var(0)
        assert graph.add(graph.zero, graph.var(1)) == graph.var(1)

    def test_failing_constant_is_left_to_run_time(self):
        _, f, _ = self.compile_one("x1 + log(0 - 1)")
        with pytest.raises(ValueError):
            f([1.0, 0.0, 0.0, 0.0])

    def test_floats_and_duals_run_one_code_object(self):
        _, f, fd = self.compile_one("sin(x1)*exp(x2) + cos(x1)")
        assert f.__code__ is fd.__code__
        point = [0.3, -0.7, 0.0, 0.0]
        d = fd([ex.Dual.seed(c, 4, i) for i, c in enumerate(point)])
        assert d.val == f(point)
        assert d.grad == ex.eval_dual(ex.parse("sin(x1)*exp(x2) + cos(x1)", 2), point).grad

    @pytest.mark.parametrize(
        "source",
        ["-x1*x2", "x1 + x2", "x1 - x2", "x1*x2", "x1/x2", "3/x2", "x1/3", "x1^3",
         "x2^-2", "x2^2.5", "sin(x1*x2)", "cos(x1)", "exp(x1 - x2)", "log(x2)",
         "sqrt(x2 + x1^2)", "0.5*x1^2*x2 + sin(x1)/x2"],
    )
    def test_first_derivatives_round_as_duals(self, source):
        def gradient(graph, node):
            return [graph.diff(node, i) for i in range(4)]

        _, f, _ = self.compile_one(source, outputs=gradient)
        point = [0.7, 1.3, 0.0, 0.0]
        assert f(point) == ex.eval_dual(ex.parse(source, 2), point).grad

    def test_second_derivatives_match_duals(self):
        rng = random.Random(4)
        for _ in range(50):
            node = random_expression(rng, 1, depth=3)

            def hessian(graph, k):
                return [[graph.diff(graph.diff(k, i), j) for j in range(2)] for i in range(2)]

            graph = ex.Graph(1)
            k = graph.tree(node)
            f = graph.build([("h", 2, hessian(graph, k), (k,))])[0]["h"]
            point = [rng.uniform(-1.5, 1.5) for _ in range(2)]
            expect = np.array(dual_scalar(node, point, order=2).second)
            assert np.allclose(f(point), expect, rtol=1e-12, atol=1e-12)

    def test_fractional_power_keeps_the_domain_check(self):
        graph, f, _ = self.compile_one("x1^0.5")
        assert "pw(" in graph.source([("f", 4, graph.tree(ex.parse("x1^0.5", 2)), ())])
        with pytest.raises(ValueError, match="fractional power of negative base"):
            f([-4.0, 0.0, 0.0, 0.0])
        assert f([4.0, 0.0, 0.0, 0.0]) == 2.0
