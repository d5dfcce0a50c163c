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

    def test_componentwise_formula_euclidean_radial(self):
        # Euclidean F with radial potential: check the correction term
        jm = oscillator_jm((1.0, 1.0), 1.0)
        x = [0.5, 0.0]
        v = [0.0, 1.0]  # v perpendicular to grad psi
        psi = jm.psi(x)
        dpsi = np.array(jm.psi_gradient(x))
        f2 = geo.f_squared(jm.spec.metric, x, v)
        expect = (2.0 * float(np.dot(dpsi, v)) * np.asarray(v) - dpsi * f2) / (
            4.0 * psi
        )
        got = np.array(jac.jacobi_geodesic_coefficients(jm, x, v))
        assert np.allclose(got, expect, atol=1e-13)


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
    """One event-stopped run per map, against the two-run reference."""

    def test_one_run_per_map(self, monkeypatch):
        jm = oscillator_jm((1.0, 2.0), 1.0)
        traj = interior_orbit(jm, [0.2, 0.1], [0.3, 1.0])
        runs = []
        solve = rk.solve_rk45

        def counting(*args, **kwargs):
            runs.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(rk, "solve_rk45", counting)
        curve = jac.orbit_to_geodesic(traj, jm)
        assert len(runs) == 1
        jac.geodesic_to_orbit(curve, jm)
        assert len(runs) == 2

    @staticmethod
    def assert_matches_oracle(total, run, rate, inverse_rate, a, b):
        """Totals within 1e-8 (1 + total), and the same steps and dense
        values, bit for bit, on every oracle step before the first one whose
        attempts the oracle may have cut to end at its total: a step attempt
        is at most ``rk._MAX_FACTOR`` times the step before it.  From there
        the runs may part: a cut attempt that fails its error test shrinks
        from the cut length, the map's from its own longer proposal."""
        want_total, want = oracles.two_run_reparametrize(rate, inverse_rate, a, b)
        assert abs(total - want_total) <= 1e-8 * (1.0 + want_total)
        starts = want.ts[:-1]
        uncut = starts[1:] + rk._MAX_FACTOR * np.diff(starts) < want_total
        m = 1 + int(np.argmin(uncut))  # steps 0 .. m - 1 were never cut
        assert m > 3
        assert np.array_equal(run.ts[: m + 1], want.ts[: m + 1])
        mids = 0.5 * (want.ts[:m] + want.ts[1 : m + 1])
        assert np.array_equal(run.dense(mids), want.dense(mids))

    def assert_orbit_to_geodesic_matches(self, jm, traj):
        curve = jac.orbit_to_geodesic(traj, jm)
        psi = lambda t: jm.psi(traj.position(t))  # noqa: E731
        self.assert_matches_oracle(
            curve.s_total, curve.t_of_s, psi, lambda t: 1.0 / psi(t), traj.t0, traj.t1
        )
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
        self.assert_matches_oracle(
            back.t_total, back.s_of_t, lambda s: 1.0 / psi(s), psi, 0.0, curve.s_total
        )

    @pytest.mark.parametrize(
        "rate, a, b",
        [(-1.0, 0.0, 1.0), (0.0, 0.0, 1.0), (1.0, 1.0, 0.0), (1.0, 0.5, 0.5)],
        ids=["negative_rate", "zero_rate", "reversed", "empty"],
    )
    def test_run_without_event_is_named(self, rate, a, b):
        with pytest.raises(jac.JacobiError, match="never reached"):
            jac._reparametrize(lambda p: rate, a, b)


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
