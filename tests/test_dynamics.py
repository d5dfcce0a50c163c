import math

import numpy as np
import pytest

from orbitlab import dynamics as dyn
from orbitlab import expr as ex
from orbitlab import geometry as geo
from orbitlab import reference as ref
from orbitlab import rk
from orbitlab.dynamics import PhaseState

from oracles import hamilton_rhs, legendre, legendre_inverse


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


def cosine_torus():
    metric = geo.MetricModel.euclidean(2, geo.Space.torus([2 * math.pi, 2 * math.pi]))
    return dyn.SystemSpec(metric, ex.parse("0.1*cos(x1)", 2), 1.0)


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

        def f_tangent(t, z, w):
            calls[0] += 1
            return dyn.state_rhs_jvp(spec, z, w)

        plain = rk.solve_rk45(f, (0.0, 3.0), z0, dense=False)
        tangent = rk.solve_rk45(f_tangent, (0.0, 3.0), z0, dense=False, w0=np.eye(len(z0)))
        assert np.array_equal(tangent.ys[-1], plain.ys[-1])
        assert (tangent.n_accepted, tangent.n_rejected) == (plain.n_accepted, plain.n_rejected)
        assert calls[0] == 6 * (tangent.n_accepted + tangent.n_rejected) + 2

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

    def test_tangent_run_refuses_dense_output_and_events(self):
        def f(t, z, w):
            return [z[1], -z[0]], np.array([w[1], -w[0]])

        with pytest.raises(ValueError):
            rk.solve_rk45(f, (0.0, 1.0), [1.0, 0.0], w0=np.eye(2))
        event = rk.EventSpec(lambda t, z: z[0])
        with pytest.raises(ValueError):
            rk.solve_rk45(f, (0.0, 1.0), [1.0, 0.0], dense=False, events=(event,), w0=np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tangent_rejected(self, bad):
        w0 = np.eye(4)
        w0[0, 0] = bad
        with pytest.raises(ValueError, match="tangent must be finite"):
            dyn.integrate_sensitivity(oscillator(), [0.5, 0.1, 0.0, 0.0], w0, 1.0)

    def test_tangent_overflow_raises(self):
        # the state stays finite while J w turns infinite from t = 0.5 on
        def f(t, y, w):
            return [y[1], -y[0]], w if t < 0.5 else np.full_like(w, math.inf)

        with np.errstate(invalid="ignore"), pytest.raises(
            rk.IntegrationError, match="non-finite tangent"
        ) as info:
            rk.solve_rk45(f, (0.0, 1.0), [1.0, 0.0], dense=False, w0=np.eye(2))
        assert info.value.t >= 0.5
        assert np.all(np.isfinite(info.value.y))

    @pytest.mark.parametrize("m", [4, 2], ids=["square", "tall"])
    def test_control_tangent_matches_stacked_run(self, m):
        # error control over [y; W row by row] is the plain run of that stacked
        # state, step for step and bit for bit
        spec = oscillator()
        z0 = [0.5, 0.1, 0.2, -0.3]
        w0 = np.eye(4)[:, :m]

        def stacked(t, y):
            dz, dw = dyn.state_rhs_jvp(spec, y[:4], np.reshape(y[4:], (4, m)))
            return dz + dw.ravel().tolist()

        plain = rk.solve_rk45(stacked, (0.0, 3.0), [*z0, *w0.ravel()], dense=False)
        run = rk.solve_rk45(
            lambda t, z, w: dyn.state_rhs_jvp(spec, z, w), (0.0, 3.0), z0,
            dense=False, w0=w0, control_tangent=True,
        )
        assert np.array_equal(run.ys[-1], plain.ys[-1, :4])
        assert np.array_equal(run.w_final, np.reshape(plain.ys[-1, 4:], (4, m)))
        assert (run.n_accepted, run.n_rejected) == (plain.n_accepted, plain.n_rejected)
        state_only = rk.solve_rk45(
            lambda t, z, w: dyn.state_rhs_jvp(spec, z, w), (0.0, 3.0), z0, dense=False, w0=w0
        )
        assert run.n_accepted > state_only.n_accepted

    def test_control_tangent_needs_a_tangent(self):
        with pytest.raises(ValueError, match="control_tangent needs a tangent"):
            rk.solve_rk45(
                lambda t, y: [y[1], -y[0]], (0.0, 1.0), [1.0, 0.0], dense=False,
                control_tangent=True,
            )

    def test_tangent_overflow_under_control_tangent_names_the_stage(self):
        # J w turns infinite from t = 0.5 on while the state stays finite: the
        # error norm, which covers W, is not finite, and the stage that made
        # it is a tangent stage
        def f(t, y, w):
            return [y[1], -y[0]], w if t < 0.5 else np.full_like(w, math.inf)

        with np.errstate(invalid="ignore"), pytest.raises(rk.IntegrationError) as info:
            rk.solve_rk45(
                f, (0.0, 1.0), [1.0, 0.0], dense=False, w0=np.eye(2), control_tangent=True
            )
        assert str(info.value) == f"non-finite tangent at t={info.value.t!r}"
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
        # of any longer run; find_rotation's doubling probe relies on it
        spec = cosine_torus()
        x1 = math.pi + 0.02
        z0 = [x1, 0.0, 0.0, math.sqrt(2.0 * (1.0 - 0.1 * math.cos(x1)))]
        short, full = (
            rk.solve_rk45(
                lambda t, z: dyn.state_rhs(spec, t, z), (0.0, t1), z0, rtol=1e-9, atol=1e-11
            )
            for t1 in (6.25, 100.0)
        )
        last = len(short.ts) - 2  # the short run's last step starts at ts[last]
        assert last > 10 and short.ts[-1] == 6.25
        assert np.array_equal(short.ts[: last + 1], full.ts[: last + 1])
        assert np.array_equal(short.ys[: last + 1], full.ys[: last + 1])
        assert np.array_equal(short.dense.h[:last], full.dense.h[:last])
        assert np.array_equal(short.dense.q[:last], full.dense.q[:last])

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
        ],
    )
    def test_jvp_matches_jacobian_product(self, system, z):
        spec = system()
        w = np.random.default_rng(5).standard_normal((4, 3))
        value, jw = dyn.state_rhs_jvp(spec, z, w)
        assert np.allclose(value, dyn.state_rhs(spec, 0.0, z), rtol=1e-14, atol=1e-15)
        expect = dyn.rhs_jacobian(spec, z) @ w
        assert np.allclose(jw, expect, rtol=1e-13, atol=1e-14)

    def test_oscillator_block_structure(self):
        sys = oscillator((1.0, 2.0), 0.5)
        jac = dyn.rhs_jacobian(sys, [0.3, 0.2, 0.1, -0.4])
        expect = np.zeros((4, 4))
        expect[0, 2] = expect[1, 3] = 1.0
        expect[2, 0] = -1.0
        expect[3, 1] = -4.0
        assert np.allclose(jac, expect, atol=1e-12)
