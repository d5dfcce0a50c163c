import math

import numpy as np
import pytest

import oracles

from orbitlab import dynamics as dyn
from orbitlab import expr as ex
from orbitlab import geometry as geo
from orbitlab import jacobi as jac
from orbitlab import reference as ref
from orbitlab import rk
from orbitlab.dynamics import PhaseState


def oscillator_jm(alphas=(1.0, 2.0), energy=1.0):
    sys = ref.oscillator_system(ref.OscillatorSpec(alphas, energy))
    return jac.JacobiMetric(sys)


def torus_cos_jm(energy=1.0):
    metric = geo.MetricModel.euclidean(
        2, geo.Space.torus([2 * math.pi, 2 * math.pi])
    )
    sys = dyn.SystemSpec(metric, ex.parse("0.1*cos(x1)", 2), energy)
    return jac.JacobiMetric(sys)


def constant_shift_jm(energy=1.0):
    # U == E - 1/2 so psi == 1 and the Jacobi metric equals the base metric
    sys = dyn.SystemSpec(
        geo.MetricModel.euclidean(2), ex.const(energy - 0.5), energy
    )
    return jac.JacobiMetric(sys)


def finsler_jm(energy=0.5):
    f2 = ex.parse("v1^2 + v2^2 + 0.1*sqrt(v1^4 + v2^4)", 2)
    potential = ex.parse("0.5*x1^2 + x2^2 + 0.1*x1^2*x2^2", 2)
    return jac.JacobiMetric(dyn.SystemSpec(geo.MetricModel.finsler(f2, 2), potential, energy))


def interior_orbit(jm, x0, v_dir, t_end=1.0):
    """The orbit of energy E from x0 along the direction ``v_dir``."""
    x0 = np.asarray(x0, dtype=float)
    speed = math.sqrt(2.0 * jm.margin(x0))
    v0 = speed * np.asarray(v_dir) / np.linalg.norm(v_dir)
    return dyn.integrate(jm.spec, PhaseState(x0, v0), (0.0, t_end), rtol=1e-11, atol=1e-13)


class TestJacobiF2:
    def test_constant_potential_identity(self):
        jm = constant_shift_jm()
        x, v = [0.3, -0.8], [0.4, 0.9]
        f2 = jac.jacobi_f2(jm, x, v)
        base = geo.f_squared(jm.spec.metric, x, v)
        assert f2 == pytest.approx(base, rel=1e-15)

    def test_oscillator_origin(self):
        jm = oscillator_jm((1.0, 2.0), 1.0)
        assert jac.jacobi_f2(jm, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(2.0)

    def test_one_evaluation_of_u(self, monkeypatch):
        jm = oscillator_jm((1.0, 2.0), 1.0)
        x, v = [0.3, -0.2], [0.4, 0.9]
        psi, f2 = 2.0 * (jm.energy - jm.spec.potential.value(x)), geo.f_squared(jm.spec.metric, x, v)
        assert jm.psi(x) == 2.0 * jm.margin(x) == psi
        calls = []
        value = dyn.PotentialField.value
        monkeypatch.setattr(dyn.PotentialField, "value",
                            lambda self, x: calls.append(x) or value(self, x))
        assert jac.jacobi_f2(jm, x, v) == psi * f2
        assert len(calls) == 1

    def test_boundary_degeneracy_error(self):
        jm = oscillator_jm((1.0, 2.0), 0.5)
        # U(1, 0) = 1/2 = E exactly
        with pytest.raises(jac.DegeneracyError):
            jac.jacobi_f2(jm, [1.0, 0.0], [0.0, 1.0])


class TestConformalSpray:
    def test_constant_potential_reduces_to_base(self):
        jm = constant_shift_jm()
        x, v = [0.2, 0.4], [1.0, -0.5]
        got = jac.jacobi_geodesic_coefficients(jm, x, v)
        base = geo.geodesic_coefficients(jm.spec.metric, x, v)
        assert np.allclose(got, base, atol=1e-15)

    def test_two_routes_agree_oscillator(self):
        jm = oscillator_jm((1.0, 2.0), 1.0)
        conf = oracles.conformal_model(jm)
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, 2)
            v = rng.uniform(-1.0, 1.0, 2)
            if np.linalg.norm(v) < 0.1:
                v = v + 0.3
            a = np.array(jac.jacobi_geodesic_coefficients(jm, list(x), list(v)))
            b = np.array(geo.geodesic_coefficients(conf, list(x), list(v)))
            assert np.max(np.abs(a - b)) < 1e-9 * (1.0 + np.max(np.abs(a)))

    def test_two_routes_agree_torus(self):
        jm = torus_cos_jm()
        conf = oracles.conformal_model(jm)
        rng = np.random.default_rng(43)
        for _ in range(50):
            x = rng.uniform(0.0, 2 * math.pi, 2)
            v = rng.uniform(-1.0, 1.0, 2) + 0.2
            a = np.array(jac.jacobi_geodesic_coefficients(jm, list(x), list(v)))
            b = np.array(geo.geodesic_coefficients(conf, list(x), list(v)))
            assert np.max(np.abs(a - b)) < 1e-9 * (1.0 + np.max(np.abs(a)))

    def test_two_routes_agree_finsler(self):
        jm = finsler_jm()
        conf = oracles.conformal_model(jm)
        rng = np.random.default_rng(44)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, 2)  # U < 0.39 < E
            v = rng.uniform(-1.0, 1.0, 2) + 0.2
            a = np.array(jac.jacobi_geodesic_coefficients(jm, list(x), list(v)))
            b = np.array(geo.geodesic_coefficients(conf, list(x), list(v)))
            assert np.max(np.abs(a - b)) < 1e-9 * (1.0 + np.max(np.abs(a)))

    def test_componentwise_formula_euclidean_radial(self):
        # Euclidean F with radial potential: check the correction term
        jm = oscillator_jm((1.0, 1.0), 1.0)
        x = [0.5, 0.0]
        v = [0.0, 1.0]  # v perpendicular to grad psi
        psi = jm.psi(x)
        dpsi = -2.0 * np.array(jm.spec.potential.gradient(x))
        f2 = geo.f_squared(jm.spec.metric, x, v)
        expect = (2.0 * float(np.dot(dpsi, v)) * np.asarray(v) - dpsi * f2) / (
            4.0 * psi
        )
        got = np.array(jac.jacobi_geodesic_coefficients(jm, x, v))
        assert np.allclose(got, expect, atol=1e-13)

    @pytest.mark.parametrize("make", [oscillator_jm, finsler_jm], ids=["oscillator", "finsler"])
    def test_one_elimination_per_call(self, make, monkeypatch):
        # g is factored once, with one right-hand side
        jm, calls = make(), []
        eliminate = geo._eliminate
        monkeypatch.setattr(geo, "_eliminate", lambda a, b: calls.append(b) or eliminate(a, b))
        jac.jacobi_geodesic_coefficients(jm, [0.2, -0.1], [0.4, 0.9])
        assert len(calls) == 1

    def test_finsler_needs_nonzero_v(self):
        with pytest.raises(geo.ModelValidityError, match="v != 0"):
            jac.jacobi_geodesic_coefficients(finsler_jm(), [0.2, -0.1], [0.0, 0.0])


class TestOrbitToGeodesic:
    def test_identity_when_psi_is_one(self):
        jm = constant_shift_jm()
        traj = interior_orbit(jm, [0.0, 0.0], [1.0, 0.2])
        curve = jac.orbit_to_geodesic(traj, jm)
        assert curve.s_total == pytest.approx(traj.t1, abs=1e-10)
        for s in np.linspace(0, curve.s_total, 9):
            assert np.allclose(curve.position(s), traj.position(s), atol=1e-9)

    def test_unit_speed_postcondition(self):
        jm = oscillator_jm((1.0, 2.0), 1.0)
        traj = interior_orbit(jm, [0.2, 0.1], [1.0, -0.4])
        curve = jac.orbit_to_geodesic(traj, jm)
        assert curve.max_unit_speed_error < 1e-6

    def test_velocity_reads_one_source_state(self, monkeypatch):
        jm = oscillator_jm((1.0, 2.0), 1.0)
        traj = interior_orbit(jm, [0.2, 0.1], [1.0, -0.4])
        curve = jac.orbit_to_geodesic(traj, jm)
        for s in np.linspace(0.0, curve.s_total, 9):
            t = curve.time_at(s)
            want = traj.velocity(t) / jm.psi(traj.position(t))
            lookups = []
            monkeypatch.setattr(traj, "state", lambda t: lookups.append(t) or traj.dense(t))
            assert np.array_equal(curve.velocity(s), want)
            assert lookups == [t]
            monkeypatch.undo()

    def test_round_trip_identity(self):
        jm = oscillator_jm((1.0, 2.0), 1.0)
        traj = interior_orbit(jm, [0.2, 0.1], [0.3, 1.0])
        curve = jac.orbit_to_geodesic(traj, jm)
        back = jac.geodesic_to_orbit(curve, jm)
        assert back.t_total == pytest.approx(traj.t1, abs=1e-9)
        for t in np.linspace(0.0, traj.t1, 17):
            assert np.max(np.abs(back.position(t) - traj.position(t))) < 1e-7
            assert np.max(np.abs(back.velocity(t) - traj.velocity(t))) < 1e-7

    def test_brake_orbit_rejected_at_boundary(self):
        osc = ref.OscillatorSpec((1.0, math.sqrt(2.0)), 0.5)
        sys = ref.oscillator_system(osc)
        jm = jac.JacobiMetric(sys)
        traj = dyn.integrate(
            sys, PhaseState([1.0, 0.0], [0.0, 0.0]), (0.0, 2.0), rtol=1e-10
        )
        with pytest.raises(jac.DegeneracyError):
            jac.orbit_to_geodesic(traj, jm)

    def test_margin_below_the_floor_between_knots_is_named(self):
        # energy E + 5e-7, within the map's energy tolerance: E - U dips
        # below the floor for 2e-3 around the turning point at t = pi/2, a
        # moving point inside a step; no knot is there, and a quadrature
        # node of the exchange's rate catches it
        jm = oscillator_jm((1.0, 2.0), 0.5)
        traj = dyn.integrate(jm.spec, PhaseState([0.0, 0.0], [math.sqrt(1.0 + 1e-6), 0.0]),
                             (0.0, 2.0), rtol=1e-11, atol=1e-13)
        assert np.min(jm.margin(traj.states[:, :2])) > jm.delta_floor
        # the exchange's nodes in time order: the rule on each split of each step
        split = np.arange(jac._SPLIT) / jac._SPLIT
        p = np.append((traj.ts[:-1, None] + np.diff(traj.ts)[:, None] * split).ravel(), traj.t1)
        nodes = p[:-1, None] + np.diff(p)[:, None] * jac._NODES
        margins = jm.margin(traj.position(nodes.ravel()))
        low = margins[margins <= jm.delta_floor][0]
        with pytest.raises(jac.DegeneracyError, match=f"margin E - U = {low:.3e} "):
            jac.orbit_to_geodesic(traj, jm)

    def test_energy_mismatch_rejected(self):
        jm = oscillator_jm((1.0, 2.0), 1.0)
        # orbit with energy far from E
        traj = dyn.integrate(
            jm.spec, PhaseState([0.1, 0.0], [0.3, 0.0]), (0.0, 0.5), rtol=1e-10
        )
        with pytest.raises(jac.EnergyMismatchError):
            jac.orbit_to_geodesic(traj, jm)

    @pytest.mark.parametrize("alpha2", [2.0000001, 2.1], ids=["near", "far"])
    def test_trajectory_of_another_system_rejected(self, alpha2):
        traj = dyn.integrate(
            oscillator_jm((1.0, 2.0)).spec, PhaseState([0.2, 0.1], [math.sqrt(1.92), 0.0]),
            (0.0, 1.0), rtol=1e-11, atol=1e-13,
        )
        with pytest.raises(jac.JacobiError, match="another system"):
            jac.orbit_to_geodesic(traj, oscillator_jm((1.0, alpha2)))

    def test_geodesic_not_unit_speed_rejected(self):
        jm = oscillator_jm((1.0, 2.0), 1.0)
        x0 = np.array([0.2, 0.1])
        # unit Fbar speed is |v| = 1 / sqrt(psi) for the euclidean base metric
        v0 = 1.01 * np.array([0.6, 0.8]) / math.sqrt(jm.psi(x0))
        geo_traj = dyn.integrate(
            oracles.geodesic_flow_system(jm), PhaseState(x0, v0), (0.0, 1.0),
            rtol=1e-11, atol=1e-13,
        )
        with pytest.raises(jac.EnergyMismatchError, match="by 2.01"):
            jac.geodesic_to_orbit(geo_traj, jm)

    def test_geodesic_of_another_system_rejected(self):
        # accepted before, with t_total 1.0000001060835655 for 1.0
        curve = jac.orbit_to_geodesic(
            interior_orbit(oscillator_jm((1.0, 2.0)), [0.2, 0.1], [0.3, 1.0]), oscillator_jm((1.0, 2.0))
        )
        with pytest.raises(jac.JacobiError, match="another system"):
            jac.geodesic_to_orbit(curve, oscillator_jm((1.0, 2.00000001)))

    def test_shifted_inverse_rejected(self, monkeypatch):
        # the unit-speed check reads the orbit's energy, whatever t(s) is; the
        # inversion residual |s(t(s)) - s| sees a shift of t(s)
        jm = oscillator_jm((1.0, 2.0), 1.0)
        traj = interior_orbit(jm, [0.2, 0.1], [1.0, -0.4])
        curve = jac.orbit_to_geodesic(traj, jm)
        assert curve.max_inversion_error <= 1e-12 * (1.0 + curve.s_total)
        time_at = jac.GeodesicCurve.time_at
        monkeypatch.setattr(jac.GeodesicCurve, "time_at", lambda self, s: time_at(self, s) + 1e-3)
        with pytest.raises(jac.JacobiError, match="t\\(s\\) misses s by 1.[0-9]+e-03"):
            jac.orbit_to_geodesic(traj, jm)

    def test_curve_without_knots_rejected(self):
        jm = constant_shift_jm()  # psi = 1: a straight line at unit speed is a unit-speed geodesic

        class Line:
            t0, t1 = 0.0, 1.0

            def position(self, s):
                return np.array([0.6 * s, 0.8 * s])

            def velocity(self, s):
                return np.array([0.6, 0.8])

        with pytest.raises(jac.JacobiError, match="no knots"):
            jac.geodesic_to_orbit(Line(), jm)

    def test_geodesic_with_nan_velocity_rejected(self):
        jm = oscillator_jm((1.0, 2.0), 1.0)
        unit = 1.0 / math.sqrt(jm.psi([0.2, 0.1]))

        class Curve:  # one point at unit Fbar speed, its velocity NaN past s = 1/2
            t0, t1 = 0.0, 1.0

            def position(self, s):
                return np.array([0.2, 0.1])

            def velocity(self, s):
                return np.array([math.nan if s > 0.5 else unit, 0.0])

        with pytest.raises(jac.EnergyMismatchError, match="by nan"):
            jac.geodesic_to_orbit(Curve(), jm)


class TestReparametrize:
    """Quadrature on the source's steps, with no integrator run, against the
    two-run reference at rtol 1e-13 (``oracles.two_run_reparametrize``)."""

    def test_no_run_per_map(self, monkeypatch):
        # no integrator run, and U and F^2 over arrays: no scalar call of
        # either per guard point or unit-speed sample
        jm = oscillator_jm((1.0, 2.0), 1.0)
        traj = interior_orbit(jm, [0.2, 0.1], [0.3, 1.0])
        traj.energies  # the energy check's H, read before counting
        runs, scalar, arrays = [], [], []
        solve, run, run_array = rk.solve_rk45, ex.Compiled.run, ex.Compiled.run_array
        monkeypatch.setattr(rk, "solve_rk45", lambda *a, **k: runs.append(a) or solve(*a, **k))
        monkeypatch.setattr(ex.Compiled, "run",
                            lambda self, name, z: scalar.append(name) or run(self, name, z))
        monkeypatch.setattr(ex.Compiled, "run_array",
                            lambda self, name, z: arrays.append(name) or run_array(self, name, z))
        curve = jac.orbit_to_geodesic(traj, jm)
        assert runs == [] and scalar == []
        # U: the guard, the knots, each Newton step, the inversion check, the
        # unit-speed velocity and F^2's factor; whatever the number of samples
        assert arrays.count("f2") == 1
        assert arrays.count("value") <= 5 + jac._NEWTON_CAP
        jac.geodesic_to_orbit(curve, jm)
        assert runs == []

    @staticmethod
    def assert_matches_oracle(curve, rate, inverse_rate, knots, total):
        """``curve``'s total, its knots' new parameters and its inverse at 65
        points against the reference runs: the total within 1e-12 relative,
        the rest within 5e-12 (1 + total) of the forward run and, for the
        inverse, within 5e-11 (1 + |old|) of the inverse run."""
        fwd, inv = oracles.two_run_reparametrize(rate, inverse_rate, knots[0], knots[-1])
        want = float(fwd.ys[-1, 0])
        assert abs(total - want) <= 1e-12 * want
        tol = 5e-12 * (1.0 + want)
        assert np.max(np.abs(curve.exchange.q - fwd.dense(curve.exchange.p)[:, 0])) <= tol
        new = np.linspace(0.0, min(total, want), 65)
        old = curve.exchange.inverse(new)
        assert np.max(np.abs(fwd.dense(old)[:, 0] - new)) <= tol
        assert np.max(np.abs(old - inv.dense(new)[:, 0])) <= 5e-11 * (1.0 + np.abs(old)).max()

    def assert_orbit_to_geodesic_matches(self, jm, traj):
        curve = jac.orbit_to_geodesic(traj, jm)
        psi = lambda t: jm.psi(traj.position(t))  # noqa: E731
        self.assert_matches_oracle(curve, psi, lambda t: 1.0 / psi(t), traj.ts, curve.s_total)
        return curve

    @pytest.mark.parametrize(
        "jm, x0, v_dir",
        [(oscillator_jm((1.0, 2.0), 1.0), [0.2, 0.1], [1.0, -0.4]),
         (torus_cos_jm(), [1.0, 2.0], [1.0, 0.3])],
        ids=["oscillator", "torus_cosine"],
    )
    def test_orbit_to_geodesic_matches_two_runs(self, jm, x0, v_dir):
        self.assert_orbit_to_geodesic_matches(jm, interior_orbit(jm, x0, v_dir))

    def test_round_trip_matches_two_runs(self):
        jm = oscillator_jm((1.0, 2.0), 1.0)
        curve = self.assert_orbit_to_geodesic_matches(
            jm, interior_orbit(jm, [0.2, 0.1], [0.3, 1.0])
        )
        back = jac.geodesic_to_orbit(curve, jm)
        psi = lambda s: jm.psi(curve.position(s))  # noqa: E731
        self.assert_matches_oracle(back, lambda s: 1.0 / psi(s), psi, curve.ts, back.t_total)

    @pytest.mark.parametrize(
        "rate, knots",
        [(-1.0, [0.0, 1.0]), (0.0, [0.0, 1.0]), (1.0, [1.0, 0.0]), (1.0, [0.5, 0.5])],
        ids=["negative_rate", "zero_rate", "reversed", "empty"],
    )
    def test_exchange_without_positive_rate_is_named(self, rate, knots):
        with pytest.raises(jac.JacobiError, match="never reached"):
            jac._Exchange(lambda p: np.full(p.shape, rate), knots)


class TestGaussLegendre:
    def test_literals_are_the_8_node_rule(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(8)
        assert np.allclose(2.0 * jac._NODES - 1.0, nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(2.0 * jac._WEIGHTS, weights, rtol=0.0, atol=1e-15)

    def test_exact_up_to_degree_15(self):
        # the integral of x^d over [0, 1] is 1 / (d + 1); degree 16 is 3.6e-10 off
        for degree in range(17):
            got = float(jac._WEIGHTS @ jac._NODES**degree)
            if degree <= 15:
                assert got == pytest.approx(1.0 / (degree + 1), rel=1e-15)
            else:
                assert abs(got - 1.0 / (degree + 1)) > 1e-12


class TestPropositionOracle:
    """Direct geodesic integration of the conformal metric must reproduce
    the Lagrangian flow after the time/arc-length exchange."""

    def _check_system(self, jm, sample_x, n_samples=10, seed=0, tol=1e-6):
        rng = np.random.default_rng(seed)
        checked = skipped = 0
        while checked < n_samples:
            x0 = sample_x(rng)
            margin = jm.margin(x0)
            if margin < 0.3:
                continue
            d = rng.uniform(-1.0, 1.0, jm.spec.dimension)
            if np.linalg.norm(d) < 0.2:
                continue
            v0 = d / np.linalg.norm(d) * math.sqrt(2.0 * margin)
            try:
                traj = dyn.integrate(
                    jm.spec, PhaseState(x0, v0), (0.0, 1.0), rtol=1e-11, atol=1e-13
                )
                curve = jac.orbit_to_geodesic(traj, jm)
            except jac.JacobiError:
                skipped += 1  # wandered too close to the boundary within unit time
                continue
            geo_sys = oracles.geodesic_flow_system(jm)
            psi0 = jm.psi(list(x0))
            geo_traj = dyn.integrate(
                geo_sys,
                PhaseState(x0, v0 / psi0),
                (0.0, curve.s_total),
                rtol=1e-11,
                atol=1e-13,
            )
            mapped = jac.geodesic_to_orbit(geo_traj, jm)
            sup = 0.0
            for t in np.linspace(0.0, 1.0, 21):
                sup = max(
                    sup,
                    float(np.max(np.abs(mapped.position(t) - traj.position(t)))),
                )
            assert sup < tol, f"proposition deviation {sup:.2e}"
            checked += 1
        return skipped

    # every sample of both seeds stays clear of the boundary, so no skip
    # hides a failure of the map

    def test_oscillator(self):
        jm = oscillator_jm((1.0, 2.0), 1.0)
        skipped = self._check_system(
            jm, lambda rng: rng.uniform(-0.4, 0.4, 2), n_samples=6, seed=5
        )
        assert skipped == 0

    def test_torus_cosine(self):
        jm = torus_cos_jm()
        skipped = self._check_system(
            jm,
            lambda rng: rng.uniform(0.0, 2 * math.pi, 2),
            n_samples=6,
            seed=6,
        )
        assert skipped == 0
