import collections
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import dynamics as dyn
from orbitlab import expr as ex
from orbitlab import geometry as geo
from orbitlab import orbits as orb
from orbitlab import reference as ref
from orbitlab import rk
from orbitlab.dynamics import PhaseState

from oracles import (
    folded_flow,
    folded_state_rhs_jvp,
    hamilton_rhs,
    inlined_source,
    inverse_fold_source,
    legendre,
    legendre_inverse,
    solved_state_rhs_jvp,
)


def oscillator(alphas=(1.0, 2.0), energy=0.5):
    return ref.oscillator_system(ref.OscillatorSpec(alphas, energy))


def pendulum_torus():
    metric = geo.MetricModel.euclidean(1, geo.Space.torus([2 * math.pi]))
    u = ex.parse("-cos(x1)", 1)
    return dyn.SystemSpec(metric, dyn.PotentialField(u, 1), 0.5)


def quartic_finsler_system(potential="0"):
    f2 = ex.parse("v1^2 + v2^2 + 0.1*sqrt(v1^4 + v2^4)", 2)
    metric = geo.MetricModel.finsler(f2, 2)
    return dyn.SystemSpec(metric, ex.parse(potential, 2), 1.0)


def quartic_finsler_well():
    return quartic_finsler_system("0.5*x1^2 + x2^2")


def conformal_exp_system():
    # position-dependent Riemannian metric g = exp(x1) I
    e, zero = ex.parse("exp(x1)", 2), ex.const(0.0)
    metric = geo.MetricModel.riemannian([[e, zero], [zero, e]])
    return dyn.SystemSpec(metric, ex.parse("0.5*x1^2 + x2^2", 2), 1.0)


def position_dependent_riemannian():
    metric = geo.MetricModel.riemannian([
        [ex.parse("2 + sin(x1)*x2", 2), ex.parse("0.3*x1*x2", 2)],
        [None, ex.parse("1.5 + x1^2", 2)],
    ])
    return dyn.SystemSpec(metric, ex.parse("0.5*x1^2 + x2^2 + 0.1*x1*x2", 2), 1.0)


def position_dependent_finsler():
    f2 = ex.parse("(1 + 0.2*x1^2)*(v1^2 + v2^2) + 0.1*sqrt(v1^4 + v2^4 + x2^2*v1^2*v2^2)", 2)
    return dyn.SystemSpec(geo.MetricModel.finsler(f2, 2), ex.parse("0.5*x1^2 + x2^2", 2), 1.0)


def cosine_torus():
    metric = geo.MetricModel.euclidean(2, geo.Space.torus([2 * math.pi, 2 * math.pi]))
    return dyn.SystemSpec(metric, ex.parse("0.1*cos(x1)", 2), 1.0)


def sheared_torus():
    # a constant metric other than the identity, on the torus
    g = [[ex.const(1.5), ex.const(0.4)], [None, ex.const(0.8)]]
    metric = geo.MetricModel.riemannian(g, geo.Space.torus([2 * math.pi, 2 * math.pi]))
    return dyn.SystemSpec(metric, ex.parse("0.1*cos(x1) + 0.05*sin(x1 - x2)", 2), 1.0)


def euclidean_system(n):
    """Identity metric on R^n, n <= 9, with a potential that couples every coordinate."""
    xs = [f"x{i + 1}" for i in range(n)]
    source = " + ".join(f"{0.5 + 0.1 * i}*{x}^2" for i, x in enumerate(xs))
    source += f" + 0.1*cos({' + '.join(xs)})"
    if n > 1:
        source += f" + 0.2*{xs[0]}*{xs[-1]}*exp(-{xs[1]}^2)"
    return dyn.SystemSpec(geo.MetricModel.euclidean(n), ex.parse(source, n), 1.0)


def spd_system(n, seed):
    """A random symmetric positive definite constant metric on R^n with
    ``euclidean_system``'s potential."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, (n, n))
    g = b @ b.T + 0.5 * np.eye(n)
    metric = geo.MetricModel.riemannian([[ex.const(e) for e in row] for row in g])
    return dyn.SystemSpec(metric, euclidean_system(n).potential, 1.0)


class TestLagrangeRHS:
    def test_oscillator_at_rest(self):
        sys = oscillator()
        acc = dyn.lagrange_rhs(sys, [1.0, 0.0], [0.0, 0.0])
        assert np.allclose(acc, [-1.0, 0.0], atol=1e-15)

    def test_zero_potential_is_geodesic_equation(self):
        sys = quartic_finsler_system()
        x, v = [0.3, -0.2], [0.7, 0.4]
        acc = np.array(dyn.lagrange_rhs(sys, x, v))
        spray = np.array(geo.geodesic_coefficients(sys.metric, x, v))
        assert np.allclose(acc, -2.0 * spray, atol=1e-14)

    def test_pendulum_sign(self):
        sys = pendulum_torus()
        acc = dyn.lagrange_rhs(sys, [math.pi / 2], [0.0])
        assert acc[0] == pytest.approx(-1.0, abs=1e-14)

    def test_finsler_rest_point_uses_descent_direction(self):
        f2 = ex.parse("v1^2 + v2^2 + 0.1*sqrt(v1^4 + v2^4)", 2)
        metric = geo.MetricModel.finsler(f2, 2)
        sys = dyn.SystemSpec(metric, ex.parse("x1", 2), 1.0)
        acc = np.array(dyn.lagrange_rhs(sys, [0.0, 0.0], [0.0, 0.0]))
        w = [1.0, 0.0]  # -grad U
        g = geo.metric_tensor(metric, [0.0, 0.0], w)
        expected = -np.array(geo.solve_linear(g, [1.0, 0.0]))
        assert np.allclose(acc, expected, atol=1e-14)


class TestHamiltonRHS:
    def test_oscillator_quadratic(self):
        sys = oscillator((1.0, 2.0), 0.5)
        xdot, ydot = hamilton_rhs(sys, [0.3, -0.1], [0.2, 0.5])
        assert np.allclose(xdot, [0.2, 0.5], atol=1e-15)
        assert np.allclose(ydot, [-0.3, 0.4], atol=1e-14)

    def test_euclidean_xdot_is_momentum(self):
        sys = dyn.SystemSpec(
            geo.MetricModel.euclidean(2), ex.parse("sin(x1)*x2", 2), 1.0
        )
        xdot, _ = hamilton_rhs(sys, [0.4, 0.8], [1.5, -2.5])
        assert np.allclose(xdot, [1.5, -2.5], atol=1e-15)

    def test_flows_agree_through_legendre(self):
        sys = oscillator((1.0, 2.0), 0.5)
        x0, v0 = [0.6, 0.1], [0.2, -0.3]
        traj = dyn.integrate(sys, PhaseState(x0, v0), (0.0, 5.0), rtol=1e-11)

        y0 = legendre(sys.metric, x0, v0)

        def ham_f(t, z):
            xdot, ydot = hamilton_rhs(sys, z[:2], z[2:])
            return list(xdot) + list(ydot)

        from orbitlab import rk

        res = rk.solve_rk45(ham_f, (0.0, 5.0), list(x0) + list(y0), rtol=1e-11,
                            atol=1e-13, dense=False)
        x_ham = res.ys[-1, :2]
        y_ham = res.ys[-1, 2:]
        v_ham = np.array(legendre_inverse(sys.metric, list(x_ham), list(y_ham)))
        assert np.max(np.abs(x_ham - traj.position(5.0))) < 1e-8
        assert np.max(np.abs(v_ham - traj.velocity(5.0))) < 1e-8


class TestTotalEnergy:
    def test_oscillator_sample(self):
        sys = oscillator((1.0, 2.0), 0.5)
        assert dyn.total_energy(sys, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)

    def test_rest_energy_is_potential(self):
        sys = pendulum_torus()
        assert dyn.total_energy(sys, [1.2], [0.0]) == pytest.approx(-math.cos(1.2))


class TestIntegrate:
    def test_oscillator_against_closed_form(self):
        alphas = (1.0, math.sqrt(2.0))
        sys = oscillator(alphas, 0.5)
        traj = dyn.integrate(
            sys, PhaseState([1.0, 0.0], [0.0, 0.0]), (0.0, 10.0), rtol=1e-10
        )
        for t in np.linspace(0.0, 10.0, 101):
            assert abs(traj.position(t)[0] - math.cos(t)) < 1e-8

    def test_free_motion_straight_line(self):
        sys = dyn.SystemSpec(geo.MetricModel.euclidean(2), ex.parse("0", 2), 0.5)
        x0, v0 = np.array([0.1, -0.2]), np.array([0.3, 0.7])
        traj = dyn.integrate(sys, PhaseState(x0, v0), (0.0, 4.0), rtol=1e-10)
        for t in (0.7, 2.1, 4.0):
            assert np.max(np.abs(traj.position(t) - (x0 + t * v0))) < 1e-12
            assert np.max(np.abs(traj.velocity(t) - v0)) < 1e-12

    def test_kinetic_minimum_event_at_half_period(self):
        # brake orbit from rest: next kinetic-energy minimum at t = pi
        sys = oscillator((1.0, math.sqrt(2.0)), 0.5)
        ev = dyn.kinetic_minimum_event(sys, terminal=True)
        traj = dyn.integrate(
            sys,
            PhaseState([1.0, 0.0], [0.0, 0.0]),
            (0.0, 20.0),
            rtol=1e-12,
            atol=1e-14,
            events=(ev,),
        )
        assert traj.events, "event did not fire"
        assert traj.events[0].t == pytest.approx(math.pi, abs=1e-9)

    def test_kinetic_minimum_event_late_start(self):
        # at t ~ 9000 the spacing of floats exceeds the 1e-12 bisection
        # tolerance; the bisection must still end
        sys = oscillator((1.0, math.sqrt(2.0)), 0.5)
        ev = dyn.kinetic_minimum_event(sys)
        traj = dyn.integrate(
            sys,
            PhaseState([1.0, 0.0], [0.0, 0.0]),
            (9000.0, 9010.0),
            rtol=1e-12,
            atol=1e-14,
            events=(ev,),
        )
        assert traj.events, "event did not fire"
        assert traj.events[0].t == pytest.approx(9000.0 + math.pi, abs=1e-9)

    def test_energy_drift_long_run(self):
        sys = oscillator((1.0, math.sqrt(2.0)), 0.5)
        traj = dyn.integrate(
            sys, PhaseState([0.3, 0.4], [0.5, -0.2]), (0.0, 100.0), rtol=1e-10
        )
        h0 = dyn.total_energy(sys, [0.3, 0.4], [0.5, -0.2])
        assert traj.energy_drift <= 1e-9 * (1.0 + abs(h0))

    def test_energy_drift_torus(self):
        metric = geo.MetricModel.euclidean(2, geo.Space.torus([2 * math.pi, 2 * math.pi]))
        sys = dyn.SystemSpec(metric, ex.parse("0.1*cos(x1)", 2), 1.0)
        v0 = math.sqrt(2.0 * (1.0 - 0.1 * math.cos(0.3)))
        traj = dyn.integrate(
            sys, PhaseState([0.3, 0.0], [0.0, v0]), (0.0, 100.0), rtol=1e-10
        )
        assert traj.energy_drift <= 1e-9 * 2.0

    def test_time_reversibility(self):
        for sys, x0, v0 in [
            (oscillator((1.0, math.sqrt(2.0)), 0.5), [0.4, 0.1], [0.3, -0.5]),
            (pendulum_torus(), [0.5], [0.8]),
        ]:
            T = 7.0
            fwd = dyn.integrate(sys, PhaseState(x0, v0), (0.0, T), rtol=1e-11)
            xT, vT = fwd.position(T), fwd.velocity(T)
            back = dyn.integrate(sys, PhaseState(xT, -vT), (0.0, T), rtol=1e-11)
            assert np.max(np.abs(back.position(T) - np.asarray(x0))) < 1e-7
            assert np.max(np.abs(back.velocity(T) + np.asarray(v0))) < 1e-7

    def test_finsler_geodesic_speed_constant(self):
        sys = quartic_finsler_system()
        traj = dyn.integrate(
            sys, PhaseState([0.0, 0.0], [0.8, 0.5]), (0.0, 3.0), rtol=1e-9
        )
        f2_0 = geo.f_squared(sys.metric, [0.0, 0.0], [0.8, 0.5])
        for t in np.linspace(0.2, 3.0, 15):
            f2 = geo.f_squared(sys.metric, list(traj.position(t)), list(traj.velocity(t)))
            assert abs(f2 - f2_0) < 1e-8

    @pytest.mark.parametrize(
        "options",
        [
            {"rtol": 1e-14},
            {"rtol": math.nan},
            {"rtol": math.inf},
            {"atol": 0.0},
            {"atol": -1e-12},
            {"atol": math.nan},
            {"atol": math.inf},
            {"t_span": (0.0, math.inf)},
            {"t_span": (-math.inf, 1.0)},
            {"t_span": (0.0, math.nan)},
        ],
        ids=lambda options: "{}={}".format(*next(iter(options.items()))).replace(" ", ""),
    )
    def test_span_and_tolerances_checked(self, options):
        # the zero velocity component makes atol = 0 divide by zero
        options = {"t_span": (0.0, 1.0), **options}
        with pytest.raises(ValueError, match="t_span|tolerance"):
            dyn.integrate(oscillator(), PhaseState([1, 0], [0, 0]), **options)

    def test_state_of_the_wrong_size_rejected(self):
        # used to fail inside the generated code with an unpacking error
        sys = oscillator()
        with pytest.raises(ValueError, match="state has 3 entries; a system of dimension 2 needs 4"):
            dyn.integrate(sys, PhaseState([1.0], [0.0, 0.0]), (0.0, 1.0))
        with pytest.raises(ValueError, match="state has 5 entries; a system of dimension 2 needs 4"):
            dyn.integrate_sensitivity(sys, [1.0, 0.0, 0.0, 0.0, 0.0], np.ones((5, 1)), 1.0)
        with pytest.raises(ValueError, match="state has 3 positions and 1 velocities"):
            dyn.integrate(sys, PhaseState([0.1, 0.2, 0.3], [0.4]), (0.0, 1.0))

    def test_torus_cover_and_wrap(self):
        metric = geo.MetricModel.euclidean(1, geo.Space.torus([2.0]))
        sys = dyn.SystemSpec(metric, ex.parse("0", 1), 0.5)
        traj = dyn.integrate(sys, PhaseState([1.5], [1.0]), (0.0, 3.0), rtol=1e-10)
        # internal chart runs in the cover ...
        assert traj.position(3.0)[0] == pytest.approx(4.5, abs=1e-10)
        # ... while wrapped output lands in [0, L)
        wrapped = sys.metric.space.wrap(traj.states[:, :1])
        assert np.all(wrapped >= 0.0) and np.all(wrapped < 2.0)


class TestDenseArrays:
    """Array-valued dense output against stacked scalar calls."""

    @pytest.fixture(scope="class")
    def traj(self):
        sys = oscillator((1.0, math.sqrt(2.0)), 0.5)
        return dyn.integrate(
            sys, PhaseState([0.3, 0.4], [0.5, -0.2]), (0.5, 12.0), rtol=1e-10
        )

    def times(self, traj):
        rng = np.random.default_rng(7)
        starts = traj.dense.ts[:-1]
        return np.concatenate(
            [
                rng.uniform(traj.t0, traj.t1, 500),
                starts,
                [traj.t0, traj.t1, traj.t0 - 1.0, traj.t1 + 1.0, -50.0, 50.0],
            ]
        )

    @pytest.mark.parametrize("method", ["state", "state_derivative", "position", "velocity"])
    def test_matches_scalar_calls(self, traj, method):
        ts = self.times(traj)
        batched = getattr(traj, method)(ts)
        stacked = np.array([getattr(traj, method)(float(t)) for t in ts])
        assert batched.shape == stacked.shape
        scale = np.max(np.abs(stacked), axis=1, keepdims=True)
        assert np.all(np.abs(batched - stacked) <= 1e-15 * scale)

    def test_outside_range_holds_end_states(self, traj):
        out = traj.state(np.array([traj.t0 - 1.0, traj.t0, traj.t1, traj.t1 + 1.0]))
        assert np.array_equal(out[:2], traj.states[[0, 0]])
        assert np.array_equal(out[2:], traj.states[[-1, -1]])

    def test_without_dense_output_every_time_raises(self):
        sys = oscillator((1.0, math.sqrt(2.0)), 0.5)
        traj = dyn.integrate(
            sys, PhaseState([0.3, 0.4], [0.5, -0.2]), (0.5, 2.0), dense=False
        )
        for t in (traj.t0, 1.0, traj.t1, np.array([traj.t0, traj.t1])):
            for method in (traj.state, traj.position, traj.state_derivative):
                with pytest.raises(ValueError, match="no dense output"):
                    method(t)

    def test_without_dense_output_energies_come_from_the_states(self):
        sys = oscillator((1.0, math.sqrt(2.0)), 0.5)
        traj = dyn.integrate(
            sys, PhaseState([0.3, 0.4], [0.5, -0.2]), (0.5, 2.0), dense=False
        )
        # one array call of the compiled H, within the array build's bound
        # of the scalar H at each row (test_straight_line.ARRAY_ULPS)
        energies = np.array([dyn.total_energy(sys, z[:2], z[2:]) for z in traj.states])
        assert np.array_equal(traj.energies, sys.run_array("energy", traj.states.T))
        eps = np.finfo(float).eps
        assert np.all(np.abs(traj.energies - energies) <= 4 * eps * (1.0 + np.abs(energies)))
        assert traj.energy_drift == max(abs(h - traj.energies[0]) for h in traj.energies)


class TestSensitivity:
    # tangent seeded with the x0 directions: W0 = [I; 0]
    W0 = np.vstack([np.eye(2), np.zeros((2, 2))])

    def test_final_state_matches_integrate(self):
        sys = oscillator((1.0, 2.0), 0.5)
        final, _ = dyn.integrate_sensitivity(sys, [0.5, 0.1, 0.0, 0.0], self.W0, 1.3)
        plain = dyn.integrate(sys, PhaseState([0.5, 0.1], [0.0, 0.0]), (0.0, 1.3))
        got = final
        want = plain.state(1.3)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_empty_tangent_takes_the_plain_run(self):
        sys = oscillator((1.0, 2.0), 0.5)
        z0 = [0.5, 0.1, 0.0, 0.0]
        final, w = dyn.integrate_sensitivity(sys, z0, np.zeros((4, 0)), 1.3)
        assert w.shape == (4, 0)
        assert final.tolist() == dyn.integrate_sensitivity(sys, z0, self.W0, 1.3)[0].tolist()

    def test_tangent_matches_oscillator_linearization(self):
        # linear system: d x(t) / d x0 = diag(cos(alpha_i t))
        sys = oscillator((1.0, 2.0), 0.5)
        t_end = 0.9
        _, w = dyn.integrate_sensitivity(sys, [0.5, 0.1, 0.0, 0.0], self.W0, t_end)
        for i, a in enumerate((1.0, 2.0)):
            assert w[i, i] == pytest.approx(
                math.cos(a * t_end), abs=1e-9
            )
            assert w[2 + i, i] == pytest.approx(
                -a * math.sin(a * t_end), abs=1e-9
            )

    @pytest.mark.parametrize(
        "system, z0",
        [
            (oscillator, [0.5, 0.1, 0.2, -0.3]),
            (pendulum_torus, [0.3, 0.8]),
            (cosine_torus, [3.0, 0.1, 0.2, 1.4]),
            (quartic_finsler_well, [0.3, -0.2, 0.7, 0.4]),
            (conformal_exp_system, [0.2, -0.1, 0.5, 0.3]),
        ],
    )
    def test_tangent_run_repeats_float_run(self, system, z0):
        spec = system()
        calls = [0]

        def f(t, z):
            return dyn.state_rhs(spec, t, z)

        jvp = dyn.tangent_rhs(spec, len(z0))

        def f_tangent(t, y):
            calls[0] += 1
            return jvp(t, y)

        plain = rk.solve_rk45(f, (0.0, 3.0), z0, dense=False)
        tangent = rk.solve_rk45(f_tangent, (0.0, 3.0), z0 + np.eye(len(z0)).ravel().tolist(),
                                dense=False, control=len(z0))
        assert np.array_equal(tangent.ys[-1, :len(z0)], plain.ys[-1])
        assert (tangent.n_accepted, tangent.n_rejected) == (plain.n_accepted, plain.n_rejected)
        # eleven stages an attempted step, f at the new state on each accepted
        # step but the last, f(t0) and the initial step's difference quotient
        assert calls[0] == 11 * (tangent.n_accepted + tangent.n_rejected) + tangent.n_accepted + 1

    def test_tangent_matches_finite_differences(self):
        sys = quartic_finsler_system()
        z0 = np.array([0.3, -0.2, 0.7, 0.4])
        _, w = dyn.integrate_sensitivity(sys, z0, np.eye(4), 2.0)
        eps = 1e-5
        fd = np.zeros((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = eps
            ends = [
                dyn.integrate(
                    sys, PhaseState.from_flat(z0 + s * e), (0.0, 2.0), rtol=1e-11, atol=1e-13,
                    dense=False,
                ).states[-1]
                for s in (1.0, -1.0)
            ]
            fd[:, j] = (ends[0] - ends[1]) / (2 * eps)
        assert np.max(np.abs(fd - w)) < 1e-8

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tangent_rejected(self, bad):
        w0 = np.eye(4)
        w0[0, 0] = bad
        with pytest.raises(ValueError, match="tangent must be finite"):
            dyn.integrate_sensitivity(oscillator(), [0.5, 0.1, 0.0, 0.0], w0, 1.0)

    @staticmethod
    def overflowing(t, y):
        # y = [z; W]: z stays finite while J W turns infinite from t = 0.5 on
        return [y[1], -y[0]] + (y[2:] if t < 0.5 else [math.inf] * 4)

    def test_tangent_overflow_raises(self):
        # the error norm sees z only; the accepted W is checked, and the
        # stage that made it is named
        with pytest.raises(rk.IntegrationError) as info:
            rk.solve_rk45(self.overflowing, (0.0, 1.0), [1.0, 0.0, 1.0, 0.0, 0.0, 1.0],
                          dense=False, control=2)
        assert str(info.value) == f"non-finite right-hand side at t={info.value.t!r}"
        assert info.value.t >= 0.5
        assert np.all(np.isfinite(info.value.y))

    @pytest.mark.parametrize("m", [4, 2], ids=["square", "tall"])
    def test_control_tangent_matches_stacked_run(self, m):
        # the tangent flow's run of [z; W row by row] under control of every
        # entry is the run of state_rhs_jvp over that stacked state, step for
        # step and bit for bit, and takes more steps than control of z alone
        spec = oscillator()
        y0 = [0.5, 0.1, 0.2, -0.3, *np.eye(4)[:, :m].ravel()]

        def stacked(t, y):
            dz, dw = dyn.state_rhs_jvp(spec, y[:4], np.reshape(y[4:], (4, m)))
            return dz + dw.ravel().tolist()

        plain = rk.solve_rk45(stacked, (0.0, 3.0), y0, dense=False)
        run = rk.solve_rk45(dyn.tangent_rhs(spec, m), (0.0, 3.0), y0, dense=False)
        assert np.array_equal(run.ys[-1], plain.ys[-1])
        assert (run.n_accepted, run.n_rejected) == (plain.n_accepted, plain.n_rejected)
        state_only = rk.solve_rk45(dyn.tangent_rhs(spec, m), (0.0, 3.0), y0, dense=False,
                                   control=4)
        assert run.n_accepted > state_only.n_accepted

    def test_tangent_overflow_under_control_tangent_names_the_stage(self):
        # the error norm covers W and is not finite; the stage that made it
        # is named
        with pytest.raises(rk.IntegrationError) as info:
            rk.solve_rk45(self.overflowing, (0.0, 1.0), [1.0, 0.0, 1.0, 0.0, 0.0, 1.0],
                          dense=False)
        assert str(info.value) == f"non-finite right-hand side at t={info.value.t!r}"
        assert info.value.t >= 0.5
        assert np.all(np.isfinite(info.value.y))


class TestStepper:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rhs_raises(self, bad):
        def f(t, y):
            return [bad if t > 0.5 else 1.0]

        with pytest.raises(rk.IntegrationError, match="non-finite right-hand side") as info:
            rk.solve_rk45(f, (0.0, 2.0), [0.0], dense=False)
        assert 0.5 < info.value.t < 2.0
        assert np.all(np.isfinite(info.value.y))

    @pytest.mark.parametrize(
        "potential, message",
        [
            ("1e308*x1^2", "non-finite right-hand side"),  # acceleration -inf
            ("-1e300*x1^2", "right-hand side too large"),  # acceleration 2e300
        ],
    )
    def test_rhs_beyond_range_at_start_raises(self, potential, message):
        spec = dyn.SystemSpec(geo.MetricModel.euclidean(1), ex.parse(potential, 1), 0.0)
        with pytest.raises(rk.IntegrationError, match=message) as info:
            dyn.integrate(spec, PhaseState([1.0], [0.0]), (0.0, 1.0))
        assert info.value.t == 0.0
        assert list(info.value.y) == [1.0, 0.0]

    def test_rhs_near_overflow_after_start_raises(self):
        def f(t, y):
            return [1e300 if t > 0.0 else 1.0]

        with pytest.raises(rk.IntegrationError):
            rk.solve_rk45(f, (0.0, 1.0), [0.0], dense=False)

    def test_steps_do_not_depend_on_the_span_end(self):
        # until an attempt is cut short to land on t1, a run takes the steps
        # of any longer run
        spec = cosine_torus()
        x1 = math.pi + 0.02
        z0 = [x1, 0.0, 0.0, math.sqrt(2.0 * (1.0 - 0.1 * math.cos(x1)))]
        short, full = (
            rk.solve_rk45(
                lambda t, z: dyn.state_rhs(spec, t, z), (0.0, t1), z0, rtol=1e-9, atol=1e-11
            )
            for t1 in (20.25, 100.0)
        )
        last = len(short.ts) - 2  # the short run's last step starts at ts[last]
        assert last > 10 and short.ts[-1] == 20.25
        assert np.array_equal(short.ts[: last + 1], full.ts[: last + 1])
        assert np.array_equal(short.ys[: last + 1], full.ys[: last + 1])
        assert np.array_equal(short.dense.h[:last], full.dense.h[:last])
        assert np.array_equal(short.dense.q[:last], full.dense.q[:last])
        # a run over the same span that a terminal event stops is the long
        # run up to the stop, every step and its dense output, the last step
        # cut at the stop (h' = t_stop - t, column j of q times (h'/h)^j):
        # bit for bit before the last step, to rounding inside it
        stopped = rk.solve_rk45(
            lambda t, z: dyn.state_rhs(spec, t, z), (0.0, 100.0), z0, rtol=1e-9, atol=1e-11,
            events=(rk.EventSpec(lambda t, z: t - 20.25, terminal=True),),
        )
        steps = len(stopped.dense.h)
        assert steps > 10 and stopped.ts[-1] == pytest.approx(20.25, abs=1e-9)
        assert np.array_equal(stopped.ts[:-1], full.ts[:steps])
        assert np.array_equal(stopped.ys[:-1], full.ys[:steps])
        assert np.array_equal(stopped.dense.h[:-1], full.dense.h[:steps - 1])
        assert np.array_equal(stopped.dense.q[:-1], full.dense.q[:steps - 1])
        cut = stopped.ts[-1] - stopped.ts[-2]
        assert stopped.dense.h[-1] == cut
        ratio = cut / full.dense.h[steps - 1]
        powers = np.arange(full.dense.q.shape[-1])
        assert np.array_equal(stopped.dense.q[-1], full.dense.q[steps - 1] * ratio ** powers)
        grid = np.linspace(0.0, stopped.ts[-1], 1001)[:-1]
        before = grid < stopped.ts[-2]
        assert np.array_equal(stopped.dense(grid[before]), full.dense(grid[before]))
        gap = stopped.dense(grid[~before]) - full.dense(grid[~before])
        assert 0 < len(gap) and np.max(np.abs(gap)) <= 1e-14

    @pytest.mark.parametrize("order", [1, -1], ids=["listed in time order", "listed reversed"])
    def test_terminal_event_ends_the_event_list(self, order):
        # one step crosses all three levels; the hits after the first terminal
        # one lie beyond the run's end (reversed, the 0.6 level is terminal too)
        levels = [(0.4, False), (0.5, True), (0.6, order == -1)][::order]
        events = tuple(
            rk.EventSpec(lambda t, y, c=c: y[0] - c, terminal=terminal) for c, terminal in levels
        )
        res = rk.solve_rk45(lambda t, y: [1.0], (0.0, 10.0), [0.0], events=events)
        assert res.ts[-1] == pytest.approx(0.5, abs=1e-9)
        assert all(hit.t <= res.ts[-1] for hit in res.events)
        hits = [(levels[hit.index][0], hit.t) for hit in res.events]
        assert [c for c, _ in hits] == [0.4, 0.5]
        assert all(t == pytest.approx(c, abs=1e-9) for c, t in hits)

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError, match="at least one component"):
            rk.solve_rk45(lambda t, y: [], (0.0, 1.0), [])

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(rk, "_MAX_STEPS", 50)
        with pytest.raises(rk.IntegrationError, match="step cap of 50 steps") as info:
            dyn.integrate(oscillator(), PhaseState([1.0, 0.0], [0.0, 0.0]), (0.0, 100.0))
        assert 0.0 < info.value.t < 100.0
        assert len(info.value.y) == 4 and np.all(np.isfinite(info.value.y))


class TestJacobianOfRHS:
    @pytest.mark.parametrize(
        "system, z",
        [
            (oscillator, [0.3, 0.2, 0.1, -0.4]),
            (quartic_finsler_system, [0.3, -0.2, 0.7, 0.4]),
            (cosine_torus, [2.5, 0.1, 0.3, 1.4]),
            (sheared_torus, [2.5, 0.1, 0.3, 1.4]),
        ],
    )
    def test_jvp_matches_jacobian_product(self, system, z):
        spec = system()
        w = np.random.default_rng(5).standard_normal((4, 3))
        value, jw = dyn.state_rhs_jvp(spec, z, w)
        assert value == dyn.state_rhs(spec, 0.0, z)
        expect = dyn.rhs_jacobian(spec, z) @ w
        assert np.allclose(jw, expect, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("system", [oscillator, conformal_exp_system],
                             ids=["constant", "varying"])
    def test_bad_shapes_are_named(self, system):
        spec = system()
        z = [0.3, 0.2, 0.1, -0.4]
        needs = "a system of dimension 2 needs 4 x m with m >= 1"
        for w in (np.ones(4), np.ones((3, 1)), np.ones((4, 0)), np.ones((4, 1, 1))):
            with pytest.raises(ValueError) as info:
                dyn.state_rhs_jvp(spec, z, w)
            assert str(info.value) == f"tangent has shape {w.shape}; {needs}"
        with pytest.raises(ValueError) as info:
            dyn.state_rhs_jvp(spec, z[:3], np.ones((4, 1)))
        assert str(info.value) == "state has 3 entries; a system of dimension 2 needs 4"
        with pytest.raises(ValueError, match=r"tangent has shape \(3, 1\)"):
            dyn.integrate_sensitivity(spec, z, np.ones((3, 1)), 1.0)
        for m in (0, -1, 1.0, True):
            with pytest.raises(ValueError, match="positive whole number of columns"):
                dyn.tangent_rhs(spec, m)

    def test_oscillator_block_structure(self):
        sys = oscillator((1.0, 2.0), 0.5)
        jac = dyn.rhs_jacobian(sys, [0.3, 0.2, 0.1, -0.4])
        expect = np.zeros((4, 4))
        expect[0, 2] = expect[1, 3] = 1.0
        expect[2, 0] = -1.0
        expect[3, 1] = -4.0
        assert np.allclose(jac, expect, atol=1e-12)


class TestConstantMetricFold:
    """A constant metric's g^{-1} is folded into the flow's code; the solve
    route (``oracles.solved_state_rhs_jvp``) is the reference."""

    @staticmethod
    def points(spec, seed, count=10):
        rng = np.random.default_rng(seed)
        n = spec.dimension
        for _ in range(count):
            yield rng.uniform(-1.5, 1.5, 2 * n).tolist(), rng.standard_normal((2 * n, 3))

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_identity_fold_is_the_solve_route(self, n):
        # g = I folds to a = -c and DA = -dc, which equal -solve(I, c) and
        # -solve(I, dc W); only the sign of an exact zero in J W may differ.
        # The fold's J W in numpy is the reference of the generated J W
        # (TestGeneratedJW)
        spec = euclidean_system(n)
        for z, w in self.points(spec, n):
            f, jw = folded_state_rhs_jvp(spec, z, w)
            f_ref, jw_ref = solved_state_rhs_jvp(spec, z, w)
            assert f == f_ref
            assert dyn.state_rhs(spec, 0.0, z) == f
            assert np.array_equal(jw, jw_ref)
            assert np.array_equal(dyn.rhs_jacobian(spec, z),
                                  solved_state_rhs_jvp(spec, z, np.eye(2 * n))[1])

    @pytest.mark.parametrize("system", [
        sheared_torus,
        lambda: spd_system(3, 31),
        lambda: spd_system(9, 91),
    ], ids=["torus-2", "spd-3", "spd-9"])
    def test_spd_fold_matches_solve_route(self, system):
        spec = system()
        zero = [0.0] * (2 * spec.dimension)
        assert spec.metric.kind == "riemannian" and spec.run("flow", zero)[1] == []  # g folded
        for z, w in self.points(spec, 7):
            f, jw = dyn.state_rhs_jvp(spec, z, w)
            f_ref, jw_ref = solved_state_rhs_jvp(spec, z, w)
            assert dyn.state_rhs(spec, 0.0, z) == f
            for got, ref_ in ((f, f_ref), (jw, jw_ref)):
                got, ref_ = np.asarray(got), np.asarray(ref_)
                assert np.all(np.abs(got - ref_) <= 1e-14 * (1.0 + np.abs(ref_)))

    @staticmethod
    def routes(spec, z):
        n = spec.dimension
        w = np.ones((2 * n, 2))
        return [
            lambda: dyn.state_rhs(spec, 0.0, z),
            lambda: dyn.state_rhs_jvp(spec, z, w),
            lambda: dyn.rhs_jacobian(spec, z),
            lambda: dyn.lagrange_rhs(spec, z[:n], z[n:]),
        ]

    def test_no_metric_calls_a_solve(self, monkeypatch):
        # every metric's flow and J W eliminate in the generated code; builds too
        class Solved(Exception):
            pass

        def solve(*args):
            raise Solved

        z = [0.3, -0.2, 0.7, 0.4]
        constant = [oscillator(), sheared_torus()]
        varying = [conformal_exp_system(), quartic_finsler_well()]
        monkeypatch.setattr(geo, "solve_linear", solve)
        monkeypatch.setattr(np.linalg, "solve", solve)
        for spec in constant + varying:
            for route in self.routes(spec, z) + self.routes(spec, z[:2] + [0.0, 0.0]):
                route()

    def test_varying_metric_is_checked_on_every_call(self, monkeypatch):
        calls = []
        check = geo.require_positive_definite
        monkeypatch.setattr(geo, "require_positive_definite", lambda g, what, pivots=None: (
            calls.append(what) or check(g, what, pivots)))
        z = [0.3, -0.2, 0.7, 0.4]
        for spec, per_route in ((conformal_exp_system(), 1), (oscillator(), 0)):
            routes = self.routes(spec, z)
            for route in routes:  # builds, which check a constant g once
                route()
            calls.clear()
            for _ in range(3):
                for route in routes:
                    route()
            assert calls == ["fundamental tensor"] * (3 * len(routes) * per_route)

    def test_constant_metric_tangent_runs_are_generated(self, monkeypatch):
        # shooting (m = 1) and monodromy (m = 4) never take the numpy J W,
        # which runs the flow's ``tangent``, and build one flow per width
        spec = oscillator()
        builds, runs = collections.Counter(), collections.Counter()
        build = ex.Graph.build

        def counted(key, function):
            return lambda *args: runs.update([key]) or function(*args)

        def counted_build(graph, functions):
            code = build(graph, functions)
            builds.update([(tuple(code), graph.width)])
            return {name: counted((name, graph.width), f) for name, f in code.items()}

        monkeypatch.setattr(ex.Graph, "build", counted_build)
        for _ in range(2):
            orbit = orb.find_brake(spec, [1.01, 0.02])
            orb.monodromy(spec, orbit)
        assert runs["tangent", 0] == 0 and runs["flow", 0] > 0
        assert {width: v for (names, width), v in builds.items() if "flow" in names} == {
            0: 1, 1: 1, 4: 1,
        }
        assert sorted(spec._code) == [0, 1, 4]


def u_with_cross_terms():
    # g = I and U with x1 x2 terms: DA rows with two nonzeros
    return dyn.SystemSpec(geo.MetricModel.euclidean(2),
                          ex.parse("0.5*x1^2 + x2^2 + 0.3*x1*x2 + 0.1*x1^2*x2", 2), 1.0)


# constant-metric systems whose DA rows have one nonzero (exact) or several
GENERATED_JW_SYSTEMS = {
    "oscillator-2": oscillator,
    "oscillator-3": lambda: ref.oscillator_system(ref.OscillatorSpec((1.0, 1.4142, 1.61), 0.5)),
    "cosine-torus": cosine_torus,
    "cross-terms": u_with_cross_terms,
    "sheared-torus": sheared_torus,
    "spd-3": lambda: spd_system(3, 31),
    "euclidean-3": lambda: euclidean_system(3),
}
SCALARS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


def bits(x):
    a = np.asarray(x, dtype=float)
    return a.shape, a.tobytes()


class TestGeneratedJW:
    """The generated J W of a constant metric against the numpy fold route
    it replaced (``oracles.folded_state_rhs_jvp``) and the solve route
    (``oracles.solved_state_rhs_jvp``)."""

    @pytest.mark.parametrize("name", list(GENERATED_JW_SYSTEMS))
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_against_the_numpy_routes(self, name, data):
        spec = GENERATED_JW_SYSTEMS[name]()
        n = spec.dimension
        m = data.draw(st.integers(1, 2 * n + 1))
        z = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=2 * n, max_size=2 * n))
        w = np.reshape(data.draw(st.lists(SCALARS, min_size=2 * n * m, max_size=2 * n * m)),
                       (2 * n, m))
        f, jw = dyn.state_rhs_jvp(spec, z, w)
        f_ref, jw_ref = folded_state_rhs_jvp(spec, z, w)
        assert bits(f) == bits(f_ref) == bits(dyn.state_rhs(spec, 0.0, z))
        assert bits(jw[:n]) == bits(jw_ref[:n])  # W_v, signed zeros included
        da = np.array(folded_flow(spec).run("tangent", z)[1])
        terms = np.count_nonzero(da, axis=1)
        # a row of DA with one nonzero is one product, summed from +0.0 as
        # BLAS sums: bit for bit; with k > 1 BLAS may fuse a multiply-add,
        # so each sum may round apart by up to k eps sum_l |DA_il W_lj|
        bound = terms[:, None] * np.finfo(float).eps * (np.abs(da) @ np.abs(w))
        for i in range(n):
            if terms[i] <= 1:
                assert bits(jw[n + i]) == bits(jw_ref[n + i])
            else:
                assert np.all(np.abs(jw[n + i] - jw_ref[n + i]) <= bound[i])
        f_solved, jw_solved = solved_state_rhs_jvp(spec, z, w)
        assert np.all(np.abs(np.array(f) - f_solved) <= 1e-14 * (1.0 + np.abs(f_solved)))
        assert np.all(np.abs(jw - jw_solved) <= 1e-14 * (1.0 + np.abs(jw_solved)))

    def test_identity_rows_are_bit_exact(self):
        # every DA row of the oscillators and the cosine torus has one nonzero
        for name in ("oscillator-2", "oscillator-3", "cosine-torus"):
            spec = GENERATED_JW_SYSTEMS[name]()
            da = np.array(folded_flow(spec).run("tangent", [0.3] * (2 * spec.dimension))[1])
            assert np.all(np.count_nonzero(da, axis=1) <= 1)

    def test_pickle_drops_the_built_functions(self):
        spec = sheared_torus()
        z, w = [0.3, -0.2, 0.7, 0.4], np.arange(8.0).reshape(4, 2) - 3.5
        f, jw = dyn.state_rhs_jvp(spec, z, w)
        assert sorted(spec._code) == [2]
        clone = pickle.loads(pickle.dumps(spec))
        assert "_code" not in vars(clone)
        assert clone == spec
        f_clone, jw_clone = dyn.state_rhs_jvp(clone, z, w)
        assert bits(f_clone) == bits(f) and bits(jw_clone) == bits(jw)
        assert sorted(clone._code) == [2]

    def test_domain_failure_is_named(self):
        spec = dyn.SystemSpec(geo.MetricModel.euclidean(1), ex.parse("sqrt(x1)", 1), 1.0)
        f = dyn.tangent_rhs(spec, 1)
        assert f(0.0, [1.0, 0.5, 1.0, 0.0])[2:] == [0.0, 0.25]  # DA = -(0.5 x1^-0.5)'
        with pytest.raises(ex.EvalDomainError, match="sqrt"):
            f(0.0, [-1.0, 0.5, 1.0, 0.0])


def varying_metric_3():
    """A 3-DOF x-dependent Riemannian metric, diagonally dominant on [-1, 1]^3."""
    entries = [
        ["2 + 0.3*sin(x1)", "0.2*x2", "0.1*x1*x3"],
        [None, "1.5 + 0.2*x3^2", "0.1*cos(x2)"],
        [None, None, "1 + 0.1*x1^2"],
    ]
    metric = geo.MetricModel.riemannian(
        [[None if e is None else ex.parse(e, 3) for e in row] for row in entries]
    )
    return dyn.SystemSpec(metric, ex.parse("0.5*x1^2 + x2^2 + 0.7*x3^2 + 0.1*x1*x2*x3", 3), 1.0)


# metrics whose g varies with the state; every g is diagonally dominant on [-1, 1]^2n
ONE_ROUTE_SYSTEMS = {
    "conformal": conformal_exp_system,
    "varying-riemannian": position_dependent_riemannian,
    "varying-riemannian-3": varying_metric_3,
    "quartic-finsler": quartic_finsler_well,
    "varying-finsler": position_dependent_finsler,
}
# J W: DA solved first, then DA W, against g X = -(B W) solved by numpy
# (measured: at most 3.8 eps (1 + |ref|) over 200 points of each system)
JW_TOL = 16 * np.finfo(float).eps


def diagonally_dominant(g) -> bool:
    # partial pivoting swaps no rows of a diagonally dominant matrix (Golub &
    # Van Loan, Matrix Computations, 4th ed., 2013, Theorem 3.4.3)
    g = np.abs(np.asarray(g))
    return bool(np.all(2.0 * np.diag(g) >= g.sum(axis=1)))


class TestOneRoute:
    """Every metric's generated flow and J W against the solve route
    (``oracles.solved_state_rhs_jvp``), which solves with partial pivoting
    at every call: the flow bit for bit where that solve swaps no rows, J W
    within ``JW_TOL`` (1 + |ref|)."""

    @staticmethod
    def points(spec, seed, count=25):
        rng = np.random.default_rng(seed)
        n = spec.dimension
        for k in range(count):
            z = rng.uniform(-1.0, 1.0, 2 * n)
            if spec.metric.kind == "finsler" and k % 3 == 0:
                z[n:] = 0.0  # a rest point: g in the direction of steepest descent
            yield z.tolist(), rng

    @pytest.mark.parametrize("name", list(ONE_ROUTE_SYSTEMS))
    def test_against_the_solve_route(self, name):
        spec = ONE_ROUTE_SYSTEMS[name]()
        n = spec.dimension
        rests = 0
        for z, rng in self.points(spec, 3):
            x, v = z[:n], z[n:]
            if not any(v):
                v, rests = [-c for c in spec.potential.gradient(x)], rests + 1
            assert diagonally_dominant(spec.metric.run("tensor", x + v))
            f = dyn.state_rhs(spec, 0.0, z)
            for m in (1, 2 * n):
                w = rng.standard_normal((2 * n, m))
                f_jvp, jw = dyn.state_rhs_jvp(spec, z, w)
                f_ref, jw_ref = solved_state_rhs_jvp(spec, z, w)
                assert bits(f) == bits(f_jvp) == bits(f_ref)
                assert np.all(np.abs(jw - jw_ref) <= JW_TOL * (1.0 + np.abs(jw_ref)))
            ref_jac = solved_state_rhs_jvp(spec, z, np.eye(2 * n))[1]
            assert np.all(np.abs(dyn.rhs_jacobian(spec, z) - ref_jac)
                          <= JW_TOL * (1.0 + np.abs(ref_jac)))
        assert rests == (9 if spec.metric.kind == "finsler" else 0)

    @pytest.mark.parametrize("name", ["oscillator-2", "cosine-torus", "cross-terms", "euclidean-3"])
    def test_identity_metric_lines_are_the_inverse_fold(self, name):
        # for g = I every multiplier folds to 0 and every pivot to 1: the
        # flow's and J W's lines are those of the fold that inverted g at
        # build time, and their checks are none
        spec = GENERATED_JW_SYSTEMS[name]()
        n = spec.dimension
        for width in (0, 1, 2 * n):
            graph = ex.Graph(n, width)
            lines, returned = inlined_source(graph.source(spec._functions(graph)), "flow")
            fold_lines, fold_returned = inlined_source(inverse_fold_source(spec, width), "flow")
            assert lines == fold_lines
            assert returned == f"[{fold_returned}, []]"


class TestPivots:
    """The flow solves without pivoting and checks the pivots it divided by."""

    @staticmethod
    def finsler(f2, potential="x2^2"):
        metric = geo.MetricModel.finsler(ex.parse(f2, 2), 2)
        return dyn.SystemSpec(metric, ex.parse(potential, 2), 1.0)

    @staticmethod
    def routes(spec, z):
        return [
            lambda: dyn.state_rhs(spec, 0.0, z),
            lambda: dyn.state_rhs_jvp(spec, z, np.ones((4, 1))),
            lambda: dyn.rhs_jacobian(spec, z),
            lambda: dyn.integrate(spec, PhaseState.from_flat(z), (0.0, 1.0)),
            lambda: dyn.integrate_sensitivity(spec, z, np.ones((4, 1)), 1.0),
        ]

    def test_negative_pivot_is_named(self):
        # g = diag(1, x1 - 1) is indefinite at x1 = 0; a pivoting solve
        # returned a value there
        spec = self.finsler("v1^2 + (x1 - 1)*v2^2")
        for z in ([0.0, 0.5, 1.0, 1.0], [0.0, 0.5, 0.0, 0.0]):
            for route in self.routes(spec, z):
                with pytest.raises(geo.ModelValidityError,
                                   match=r"fundamental tensor is not positive definite \(pivot -1"):
                    route()

    def test_zero_pivot_is_singular(self):
        # g = diag(1, x1^2): the generated code divides by the zero pivot
        spec = self.finsler("v1^2 + x1^2*v2^2")
        for route in self.routes(spec, [0.0, 0.5, 1.0, 1.0]):
            with pytest.raises(geo.SingularMatrixError, match="fundamental tensor is singular"):
                route()
        for route in self.routes(spec, [1e-8, 0.5, 1.0, 1.0]):  # pivot 1e-16 <= 1e-14 max |g|
            with pytest.raises(geo.SingularMatrixError):
                route()
        # pivot 1e-12 passes: a_2 = -c_2 / g_22 with c_2 = 2 x2 + 2 x1 v1 v2
        a_2 = dyn.state_rhs(spec, 0.0, [1e-6, 0.5, 1.0, 1.0])[3]
        assert a_2 == pytest.approx(-(1 + 2e-6) / 1e-12)

    @pytest.mark.parametrize("f2, error", [
        ("v1^2 - v2^2", geo.ModelValidityError),
        ("v1^2", geo.SingularMatrixError),
    ])
    def test_constant_finsler_tensor_is_checked_at_build(self, f2, error):
        spec = self.finsler(f2)
        for _ in range(2):
            for route in self.routes(spec, [0.1, 0.5, 1.0, 1.0]):
                with pytest.raises(error):
                    route()

    def test_other_zero_divisions_are_not_a_pivot(self):
        # a third derivative of F^2 meets 0.0 ** -0.5 at v1 = 0 (open:
        # powers at zero in generated derivatives); g there is regular
        spec = self.finsler("v1^2 + v2^2 + (v1^2)^2.5/(v1^2 + v2^2)^1.5", "0.5*x1^2 + 0.5*x2^2")
        z = [0.3, 0.2, 0.0, 1.0]
        assert dyn.state_rhs(spec, 0.0, z) == [0.0, 1.0, -0.3, -0.2]
        with pytest.raises(ZeroDivisionError, match="0.0 cannot be raised to a negative power"):
            dyn.state_rhs_jvp(spec, z, np.eye(4))

    def test_non_finite_entry_is_named(self):
        # g_11 = 1 + (x1 1e308) 10 - (x1 1e308) 10 is inf - inf = NaN at x1 = 1;
        # every comparison with a NaN pivot or floor is false
        entry = ex.parse("1 + (x1*1e308)*10 - (x1*1e308)*10", 2)
        metric = geo.MetricModel.riemannian([[entry, ex.const(0.0)], [None, ex.const(1.0)]])
        spec = dyn.SystemSpec(metric, ex.parse("x2^2", 2), 1.0)
        x, v = [1.0, 0.5], [1.0, 1.0]
        assert geo.metric_tensor(metric, [0.0, 0.5], v) == [[1.0, 0.0], [0.0, 1.0]]
        for route in [lambda: geo.metric_tensor(metric, x, v),
                      lambda: geo.geodesic_coefficients(metric, x, v)] + self.routes(spec, x + v):
            with pytest.raises(geo.ModelValidityError,
                               match=r"fundamental tensor has a non-finite entry \(1, 1\): nan"):
                route()

    def test_non_finite_flow_is_named(self):
        # at x1 = 0 g is the identity, but dg_11/dx1 is inf - inf: the
        # acceleration is NaN where g is finite
        entry = ex.parse("1 + (x1*1e308)*10 - (x1*1e308)*10", 2)
        metric = geo.MetricModel.riemannian([[entry, ex.const(0.0)], [None, ex.const(1.0)]])
        spec = dyn.SystemSpec(metric, ex.parse("0.5*x2^2", 2), 1.0)
        z = [0.0, 0.5, 1.0, 1.0]
        message = re.escape(f"flow entry 2 is nan at the state {z!r}")
        for route in self.routes(spec, z)[:3] + [lambda: dyn.lagrange_rhs(spec, z[:2], z[2:])]:
            with pytest.raises(geo.ModelValidityError, match=message):
                route()
        # a run leaves the check to the integrator, which names the stage
        with pytest.raises(rk.IntegrationError, match=r"non-finite right-hand side at t=0\.0$"):
            dyn.integrate(spec, PhaseState.from_flat(z), (0.0, 1.0))


class TestInputChecks:
    def test_potential_takes_positions_only(self):
        with pytest.raises(geo.ModelValidityError, match="position variables only"):
            dyn.PotentialField(ex.parse("x1 + v1", 1), 1)

    def test_energy_level_is_finite(self):
        with pytest.raises(geo.ModelValidityError, match="energy level must be finite"):
            dyn.SystemSpec(geo.MetricModel.euclidean(1), ex.parse("x1^2", 1), float("nan"))

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_finsler_rest_point_needs_a_slope(self, m):
        # at v = 0 the flow leaves along -grad U, which vanishes at x = 0
        spec, z = quartic_finsler_well(), [0.0] * 4
        with pytest.raises(geo.ModelValidityError,
                           match="Finsler flow undefined at a rest point with vanishing grad U"):
            dyn.state_rhs_jvp(spec, z, np.ones((4, m))) if m else dyn.state_rhs(spec, 0.0, z)


def test_from_flat_needs_an_even_length():
    state = PhaseState.from_flat([1.0, 2.0, 3.0, 4.0])
    assert state.x.tolist() == [1.0, 2.0] and state.v.tolist() == [3.0, 4.0]
    for z in ([1.0, 2.0, 3.0], np.ones((2, 2))):
        with pytest.raises(ValueError, match="even number of entries"):
            PhaseState.from_flat(z)
