import cmath
import functools
import math

import numpy as np
import pytest

import oracles

from orbitlab import dynamics as dyn
from orbitlab import expr as ex
from orbitlab import geometry as geo
from orbitlab import orbits as orb
from orbitlab import reference as ref
from orbitlab.dynamics import PhaseState


def oscillator(alphas=(1.0, math.sqrt(2.0)), energy=0.5):
    return ref.oscillator_system(ref.OscillatorSpec(alphas, energy))


def flat_torus(periods=(2 * math.pi, 2 * math.pi), energy=0.5):
    metric = geo.MetricModel.euclidean(2, geo.Space.torus(periods))
    return dyn.SystemSpec(metric, ex.parse("0", 2), energy)


def cosine_torus(energy=1.0):
    metric = geo.MetricModel.euclidean(2, geo.Space.torus([2 * math.pi, 2 * math.pi]))
    return dyn.SystemSpec(metric, ex.parse("0.1*cos(x1)", 2), energy)


def finsler_well(energy=0.5):
    f2 = ex.parse("v1^2 + v2^2 + 0.1*sqrt(v1^4 + v2^4)", 2)
    metric = geo.MetricModel.finsler(f2, 2)
    return dyn.SystemSpec(metric, ex.parse("0.5*x1^2 + x2^2 + 0.1*x1^2*x2^2", 2), energy)


def finsler_torus(energy=1.0):
    f2 = ex.parse("(1 + 0.2*cos(x1))*(v1^2 + v2^2) + 0.1*sqrt(v1^4 + v2^4)", 2)
    metric = geo.MetricModel.finsler(f2, 2, geo.Space.torus([2 * math.pi, 2 * math.pi]))
    return dyn.SystemSpec(metric, ex.parse("0.1*cos(x1)", 2), energy)


def riemannian_torus(energy=1.0):
    entries = [
        [ex.parse("2 + sin(x1)", 2), ex.parse("0.3*cos(x2)", 2)],
        [None, ex.parse("1.5 + 0.5*cos(x1)", 2)],
    ]
    metric = geo.MetricModel.riemannian(entries, geo.Space.torus([2 * math.pi, 2 * math.pi]))
    return dyn.SystemSpec(metric, ex.parse("0.1*cos(x1)", 2), energy)


def cosine_torus_3d():
    metric = geo.MetricModel.euclidean(3, geo.Space.torus([2 * math.pi] * 3))
    return dyn.SystemSpec(metric, ex.parse("0.1*cos(x1) + 0.05*cos(x2)*cos(x3)", 3), 1.0)


def on_level(spec, x, d):
    """The state (x, c d) with the speed c that puts it on the energy level."""
    x, d = np.asarray(x, dtype=float), np.asarray(d, dtype=float)
    c = math.sqrt(2.0 * (spec.energy - spec.potential.value(x)) / geo.f_squared(spec.metric, x, d))
    return np.concatenate([x, c * d])


def conformal_well(energy=0.5):
    e, zero = ex.parse("exp(x1)", 2), ex.const(0.0)
    metric = geo.MetricModel.riemannian([[e, zero], [zero, e]])
    return dyn.SystemSpec(metric, ex.parse("0.5*x1^2 + x2^2", 2), energy)


def assert_eigenvalues_match(eigs, expected, tol=1e-6):
    remaining = list(eigs)
    for want in expected:
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - want))
        assert abs(remaining[best] - want) < tol, (want, remaining)
        remaining.pop(best)


class TestFindBrake:
    def test_x_axis_orbit(self):
        spec = oscillator()
        orbit = orb.find_brake(spec, [1.02, 0.04])
        assert orbit.kind == "brake"
        assert orbit.period == pytest.approx(2 * math.pi, abs=1e-8)
        amp = max(abs(orbit.trajectory.position(t)[0]) for t in np.linspace(0, 7, 200))
        assert amp == pytest.approx(1.0, abs=1e-8)
        # trajectory matches the closed form up to the phase convention
        for t in np.linspace(0.0, orbit.period, 21):
            x = orbit.trajectory.position(float(t))
            assert abs(abs(x[0]) - abs(math.cos(t))) < 1e-7
            assert abs(x[1]) < 1e-9

    def test_y_axis_orbit_period(self):
        spec = oscillator()
        a2 = math.sqrt(2.0)
        orbit = orb.find_brake(spec, [0.02, 1.0 / a2 + 0.01])
        assert orbit.period == pytest.approx(2 * math.pi / a2, abs=1e-8)

    def test_seed_far_from_level_rejected(self):
        spec = oscillator()
        with pytest.raises(orb.PreconditionError):
            orb.find_brake(spec, [3.0, 0.0])

    def test_closure_and_rest_points(self):
        spec = oscillator()
        orbit = orb.find_brake(spec, [1.01, -0.03])
        scale = 1.0 + np.linalg.norm(orbit.trajectory.states[0])
        assert orbit.closure_residual < 1e-8 * scale
        assert len(orbit.rest_points) == 2
        assert orbit.rest_points[0][0] == 0.0
        assert orbit.rest_points[1][0] == pytest.approx(orbit.period / 2, rel=1e-9)
        assert orbit.minimal_period_flag

    def test_retrace_symmetry(self):
        spec = oscillator((1.0, math.sqrt(3.0)), 0.5)
        orbit = orb.find_brake(spec, [1.01, 0.02])
        tau = orbit.period
        for t in np.linspace(0.05, tau / 2 - 0.05, 9):
            ahead = orbit.trajectory.position(tau / 2 + t)
            behind = orbit.trajectory.position(tau / 2 - t)
            assert np.max(np.abs(ahead - behind)) < 1e-7

    def test_three_dof_axis_orbits(self):
        alphas = (1.0, math.sqrt(2.0), math.sqrt(3.0))
        spec = oscillator(alphas, 0.5)
        for j, a in enumerate(alphas):
            seed = np.zeros(3) + 0.01
            seed[j] = math.sqrt(2 * 0.5) / a
            orbit = orb.find_brake(spec, seed)
            assert orbit.period == pytest.approx(2 * math.pi / a, abs=1e-8)


class TestFindBrakeCurved:
    """Brake orbits under a non-Euclidean kinetic model: a quartic Finsler
    metric and the conformal metric exp(x1) I."""

    @pytest.mark.parametrize(
        "system, period", [(finsler_well, 6.58986034487), (conformal_well, 6.68206308937)]
    )
    def test_closure_retrace_and_energy(self, system, period):
        spec = system()
        orbit = orb.find_brake(spec, [1.0, 0.05])
        assert orbit.period == pytest.approx(period, abs=1e-9)
        scale = 1.0 + np.linalg.norm(orbit.trajectory.states[0])
        assert orbit.closure_residual < 1e-8 * scale
        half = orbit.period / 2
        for t in np.linspace(0.05, half - 0.05, 9):
            ahead = orbit.trajectory.position(half + t)
            behind = orbit.trajectory.position(half - t)
            assert np.max(np.abs(ahead - behind)) < 1e-7 * scale
        assert orbit.energy == pytest.approx(spec.energy, abs=1e-12)
        assert orbit.trajectory.energy_drift < 1e-8


class TestFindRotation:
    def test_flat_torus_straight_line(self):
        spec = flat_torus()
        orbit = orb.find_rotation(spec, PhaseState([0.0, 0.0], [1.0, 0.0]))
        assert orbit.kind == "rotation"
        assert orbit.period == pytest.approx(2 * math.pi, abs=1e-8)
        assert orbit.closure_residual < 1e-8 * (1 + np.sqrt(2.0))

    def test_cosine_torus_rotation(self):
        spec = cosine_torus()
        x0 = np.array([math.pi + 0.02, 0.0])
        u0 = 0.1 * math.cos(x0[0])
        v0 = np.array([0.0, math.sqrt(2.0 * (1.0 - u0))])
        orbit = orb.find_rotation(spec, PhaseState(x0, v0))
        scale = 1.0 + np.linalg.norm(orbit.trajectory.states[0])
        assert orbit.closure_residual < 1e-8 * scale
        # the found rotation rides the ridge x1 = pi
        assert orbit.trajectory.position(0.0)[0] == pytest.approx(math.pi, abs=1e-6)
        v22 = 2.0 * (1.0 + 0.1)
        assert orbit.period == pytest.approx(2 * math.pi / math.sqrt(v22), abs=1e-6)

    def test_min_speed_invariant(self):
        spec = cosine_torus()
        x0 = np.array([math.pi, 0.0])
        v0 = np.array([0.0, math.sqrt(2.0 * 1.1)])
        orbit = orb.find_rotation(spec, PhaseState(x0, v0))
        ke = [
            0.5 * float(np.dot(orbit.trajectory.velocity(t), orbit.trajectory.velocity(t)))
            for t in np.linspace(0, orbit.period, 100)
        ]
        assert min(ke) > 1e-10

    def test_off_level_seed_rejected(self):
        spec = cosine_torus()
        with pytest.raises(orb.PreconditionError):
            orb.find_rotation(spec, PhaseState([0.0, 0.0], [0.0, 0.3]))

    def test_tangent_section_rejected(self):
        spec = flat_torus()
        with pytest.raises(orb.TransversalityError):
            orb.find_rotation(
                spec,
                PhaseState([0.0, 0.0], [1.0, 0.0]),
                section_normal=[0.0, 1.0],
            )


def cosine_torus_speed(x1, energy=1.0):
    return math.sqrt(2.0 * (energy - 0.1 * math.cos(x1)))


# every rotation seed that reaches the return-time scan in the suite
ROTATION_SEEDS = [
    ("flat_torus", [0.0, 0.0], [1.0, 0.0]),
    ("cosine_torus", [math.pi + 0.02, 0.0], [0.0, cosine_torus_speed(math.pi + 0.02)]),
    ("cosine_torus", [math.pi, 0.0], [0.0, cosine_torus_speed(math.pi)]),
    ("cosine_torus", [3.1694318, 5.6841789], [0.0, cosine_torus_speed(3.1694318)]),
    ("cosine_torus", [3.1418294, 0.6689576], [cosine_torus_speed(3.1418294), 0.0]),
]


class TestRotationSeedScan:
    @pytest.mark.parametrize("system, x0, v0", ROTATION_SEEDS)
    def test_matches_scalar_loop(self, monkeypatch, system, x0, v0):
        # the return time find_rotation uses is the scalar scan of one probe
        # run to _T_MAX; the probe horizon doubles from _T_MAX / 16, and every
        # scan before the last finds no return; a probe stopped by its event
        # ends within the event's time tolerance of its horizon
        spec = {"flat_torus": flat_torus, "cosine_torus": cosine_torus}[system]()
        z0 = np.concatenate([x0, v0])
        full = dyn.integrate(spec, PhaseState(x0, v0), (0.0, orb._T_MAX), rtol=1e-9, atol=1e-11)
        t_ref = oracles.rotation_seed_scan(
            spec, full, z0, t_guard=20 * orb._T_MAX / 4096, threshold=0.25 * (1 + np.linalg.norm(z0))
        )
        calls = []
        scan = orb._rotation_seed_scan

        def recording(spec, traj, *args, **kwargs):
            t_ret = scan(spec, traj, *args, **kwargs)
            calls.append((traj.t1, t_ret))
            return t_ret

        monkeypatch.setattr(orb, "_rotation_seed_scan", recording)
        orb.find_rotation(spec, PhaseState(x0, v0))
        horizons = [orb._T_MAX / 16 * 2**k for k in range(len(calls))]
        assert [h for h, _ in calls] == pytest.approx(horizons, abs=1e-9)
        assert all(t_ret is None for _, t_ret in calls[:-1])
        assert t_ref is not None and calls[-1][1] == t_ref

    @pytest.mark.parametrize(
        "system, x0, v0, expected",
        [(*ROTATION_SEEDS[0], [6.25, 12.5]), (*ROTATION_SEEDS[2], [6.25])],
        ids=["flat", "exact ridge"],
    )
    def test_seeds_that_double_the_horizon(self, monkeypatch, system, x0, v0, expected):
        # the flat torus returns at 2 pi > _T_MAX / 16; the exact ridge returns
        # at 4.24, inside the first probe, which its stop event ends at 6.25
        spec = {"flat_torus": flat_torus, "cosine_torus": cosine_torus}[system]()
        horizons = []
        scan = orb._rotation_seed_scan

        def recording(spec, traj, *args, **kwargs):
            horizons.append(traj.t1)
            return scan(spec, traj, *args, **kwargs)

        monkeypatch.setattr(orb, "_rotation_seed_scan", recording)
        orb.find_rotation(spec, PhaseState(x0, v0))
        assert horizons == pytest.approx(expected, abs=1e-9)

    def test_late_return_needs_the_full_horizon(self):
        orbit = orb.find_rotation(flat_torus(energy=0.005), PhaseState([0.0, 0.0], [0.1, 0.0]))
        assert orbit.period == 62.83185307179586

    def test_no_return_within_t_max(self):
        with pytest.raises(orb.ConvergenceError, match=r"no section return within t = 100\.0"):
            orb.find_rotation(flat_torus(energy=0.00125), PhaseState([0.0, 0.0], [0.05, 0.0]))


class TestRotationChart:
    """The chart's z0, W0 and lift against the oracles' chart, whose lift is
    evaluated by the interpreter over dual seeds of the unknowns."""

    @pytest.mark.parametrize(
        "system", [cosine_torus, finsler_torus, riemannian_torus, cosine_torus_3d],
        ids=lambda s: s.__name__,
    )
    def test_matches_dual_chart(self, system):
        spec = system()
        n = spec.dimension
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = on_level(spec, rng.uniform(0.0, 2 * math.pi, n), rng.standard_normal(n))
            basis = orb._complement_basis(rng.standard_normal(n))
            z0, w0, lift = orb._rotation_chart(spec, basis, z)
            z0_ref, w0_ref, lift_ref = oracles.dual_rotation_chart(spec, basis, z)
            u = 1e-2 * rng.standard_normal(2 * (n - 1))
            for got, want in ((z0, z0_ref), (w0, w0_ref), (lift(u), lift_ref(u))):
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))

    def test_finsler_torus_ridge_rotation(self):
        # x1 -> 2 pi - x1 maps the system to itself, so the line x1 = pi is a
        # rotation; along it F^2 = 0.9 v2^2 and U = -0.1
        spec, orbit = monodromy_case("Finsler torus ridge rotation")
        assert orbit.period == pytest.approx(2 * math.pi / math.sqrt(2.2 / 0.9), abs=1e-9)
        assert orbit.trajectory.states[0][0] == pytest.approx(math.pi, abs=1e-9)
        rep = orb.monodromy(spec, orbit)
        assert rep.trivial_multiplicity == 2
        assert rep.nondegenerate


def rotation_seed(x1, x2, horizontal):
    speed = cosine_torus_speed(x1)
    return PhaseState([x1, x2], [speed, 0.0] if horizontal else [0.0, speed])


# Newton iterations (tangent runs, the converged one included) per search
NEWTON_CASES = [
    ("oscillator brake on axis", lambda: orb.find_brake(oscillator(), [1.0, 0.0]), 1),
    ("oscillator brake off axis", lambda: orb.find_brake(oscillator(), [1.02, 0.03]), 3),
    (
        "3-DOF oscillator brake",
        lambda: orb.find_brake(oscillator((1.0, 1.23, 1.6)), [1.01, -0.03, 0.02]),
        3,
    ),
    ("Finsler brake", lambda: orb.find_brake(finsler_well(), [1.0, 0.05]), 4),
    ("conformal brake", lambda: orb.find_brake(conformal_well(), [1.0, 0.05]), 4),
    (
        "cosine torus ridge rotation",
        lambda: orb.find_rotation(cosine_torus(), rotation_seed(math.pi + 0.02, 1.0, False)),
        4,
    ),
    (
        "cosine torus horizontal rotation",
        lambda: orb.find_rotation(cosine_torus(), rotation_seed(0.5, 1.0, True)),
        3,
    ),
]


@pytest.mark.parametrize(
    "search, iterations", [c[1:] for c in NEWTON_CASES], ids=[c[0] for c in NEWTON_CASES]
)
def test_newton_iterations(monkeypatch, search, iterations):
    runs = []
    tangent_run = orb.integrate_sensitivity

    def counting(*args, **kwargs):
        runs.append(args)
        return tangent_run(*args, **kwargs)

    monkeypatch.setattr(orb, "integrate_sensitivity", counting)
    search()
    assert len(runs) == iterations


@pytest.mark.parametrize("search", [c[1] for c in NEWTON_CASES], ids=[c[0] for c in NEWTON_CASES])
def test_plain_runs_per_search(monkeypatch, search):
    # one probe (each of these seeds returns within the first horizon,
    # _T_MAX / 16) and the closed run; every shooting trial is a tangent run
    runs = []
    plain_run = orb.integrate

    def counting(*args, **kwargs):
        runs.append(args)
        return plain_run(*args, **kwargs)

    monkeypatch.setattr(orb, "integrate", counting)
    search()
    assert len(runs) == 2


class TestMalformedInput:
    """Malformed arguments raise PreconditionError naming the argument."""

    @pytest.mark.parametrize(
        "seed", [[1.02], [1.02, 0.03, 0.0], [1.02, math.nan]], ids=["short", "long", "nan"]
    )
    def test_brake_seed(self, seed):
        with pytest.raises(orb.PreconditionError, match="seed"):
            orb.find_brake(oscillator(), seed)

    @pytest.mark.parametrize(
        "normal", [[0.0, 0.0], [math.nan, 1.0], [0.0, 1.0, 0.0]], ids=["zero", "nan", "long"]
    )
    def test_rotation_section_normal(self, normal):
        with pytest.raises(orb.PreconditionError, match="section_normal"):
            orb.find_rotation(
                cosine_torus(), rotation_seed(math.pi + 0.02, 1.0, False), section_normal=normal
            )

    def test_rotation_seed_length(self):
        speed = cosine_torus_speed(math.pi)
        with pytest.raises(orb.PreconditionError, match="seed"):
            orb.find_rotation(cosine_torus(), PhaseState([math.pi, 0.0, 0.0], [0.0, speed, 0.0]))

    @pytest.mark.parametrize("periods", [1.5, 0, -1, True])
    def test_monodromy_periods(self, periods):
        spec = oscillator()
        orbit = orb.find_brake(spec, [1.0, 0.0])
        with pytest.raises(orb.PreconditionError, match="periods"):
            orb.monodromy(spec, orbit, periods=periods)


def ridge_rotation():
    spec = cosine_torus()
    period = 2 * math.pi / math.sqrt(2.2)
    traj = dyn.integrate(
        spec, PhaseState([math.pi, 0.0], [0.0, math.sqrt(2.2)]), (0.0, period),
        rtol=1e-12, atol=1e-14,
    )
    return spec, orb.PeriodicOrbit(spec=spec, trajectory=traj, period=period, kind="rotation")


def found(search, spec, seed):
    return spec, search(spec, seed)


MONODROMY_CASES = {
    "oscillator brake": lambda: found(orb.find_brake, oscillator(), [1.0, 0.0]),
    "oscillator brake off axis": lambda: found(
        orb.find_brake, oscillator((1.0, 1.37)), [1.02, 0.03]
    ),
    "3-DOF oscillator brake": lambda: found(
        orb.find_brake, oscillator((1.0, 1.23, 1.6)), [1.01, -0.03, 0.02]
    ),
    "conformal brake": lambda: found(orb.find_brake, conformal_well(), [1.0, 0.05]),
    "cosine torus ridge rotation": ridge_rotation,
    "cosine torus horizontal rotation": lambda: found(
        orb.find_rotation, cosine_torus(), rotation_seed(0.5, 1.0, True)
    ),
    "Finsler torus ridge rotation": lambda: found(
        orb.find_rotation, finsler_torus(),
        PhaseState.from_flat(on_level(finsler_torus(), [math.pi + 0.02, 1.0], [0.0, 1.0])),
    ),
}
MONODROMY_BRAKES = [name for name in MONODROMY_CASES if "brake" in name]
MONODROMY_ROTATIONS = [name for name in MONODROMY_CASES if "rotation" in name]


@functools.cache
def monodromy_case(name):
    """(spec, orbit), built once per session."""
    return MONODROMY_CASES[name]()


def trivial_multiplicity(matrix):
    """``orbits.monodromy``'s count: the nullity of (M - I)^2."""
    sigma = np.linalg.svd(
        np.linalg.matrix_power(matrix - np.eye(len(matrix)), 2), compute_uv=False
    )
    return int(np.sum(sigma < orb._TOL_NULL * (1.0 + np.linalg.norm(matrix, 2)) ** 2))


class TestMonodromyAgainstAugmentedRoute:
    """The tangent run against the augmented system it replaced
    (``oracles.augmented_monodromy``): the same steps over a full period, so
    the same M bit for bit; half a period and the reversor for a brake orbit."""

    @pytest.mark.parametrize("name", MONODROMY_ROTATIONS)
    def test_rotation_bit_identical(self, name):
        spec, orbit = monodromy_case(name)
        rep = orb.monodromy(spec, orbit)
        assert np.array_equal(rep.matrix, oracles.augmented_monodromy(spec, orbit))

    @pytest.mark.parametrize("periods", [2, 3])
    def test_brake_periods_bit_identical(self, periods):
        spec, orbit = monodromy_case("oscillator brake")
        rep = orb.monodromy(spec, orbit, periods=periods)
        assert np.array_equal(rep.matrix, oracles.augmented_monodromy(spec, orbit, periods))

    @pytest.mark.parametrize("name", MONODROMY_BRAKES)
    def test_brake_half_period(self, name):
        spec, orbit = monodromy_case(name)
        rep = orb.monodromy(spec, orbit)
        want = oracles.augmented_monodromy(spec, orbit)
        assert np.max(np.abs(rep.matrix - want)) <= 1e-8 * (1.0 + np.linalg.norm(want))
        assert rep.det_error <= 1e-14
        assert rep.trivial_multiplicity == trivial_multiplicity(want)


class TestMonodromy:
    def test_brake_orbit_eigenvalues_nonresonant(self):
        a2 = math.sqrt(2.0)
        spec, orbit = monodromy_case("oscillator brake")
        rep = orb.monodromy(spec, orbit)
        expected = [1.0, 1.0, cmath.exp(2j * math.pi * a2), cmath.exp(-2j * math.pi * a2)]
        assert_eigenvalues_match(rep.eigenvalues, expected, tol=1e-6)
        assert rep.trivial_multiplicity == 2
        assert rep.nondegenerate
        assert rep.det_error < 1e-6

    def test_resonant_lissajous_degenerate(self):
        spec = oscillator((1.0, 2.0), 1.0)
        osc = ref.OscillatorSpec((1.0, 2.0), 1.0, resonance=(1, 2))
        # build the periodic orbit directly from the closed form
        st = ref.lissajous_family(osc, 1.0, 0.5, 0.3, 0.0)
        e = ref.lissajous_energy(osc, 1.0, 0.5)
        spec = dyn.SystemSpec(spec.metric, spec.potential, e)
        period = 2 * math.pi
        traj = dyn.integrate(spec, st, (0.0, period), rtol=1e-12, atol=1e-14)
        orbit = orb.PeriodicOrbit(
            spec=spec,
            trajectory=traj,
            period=period,
            kind="rotation",
            closure_residual=orb._closure_residual(spec, traj.states[-1], traj.states[0]),
        )
        rep = orb.monodromy(spec, orbit)
        assert rep.trivial_multiplicity >= 4
        assert not rep.nondegenerate
        assert rep.det_error < 1e-6

    def test_flat_torus_rotation_shear_degenerate(self):
        spec = flat_torus()
        orbit = orb.find_rotation(spec, PhaseState([0.0, 0.0], [1.0, 0.0]))
        rep = orb.monodromy(spec, orbit)
        # free motion: M = [[I, T I], [0, I]]; all eigenvalues 1
        T = orbit.period
        expect = np.eye(4)
        expect[0, 2] = expect[1, 3] = T
        assert np.allclose(rep.matrix, expect, atol=1e-7)
        assert rep.trivial_multiplicity == 4
        assert not rep.nondegenerate

    def test_cosine_torus_ridge_rotation(self):
        # the ridge x1 = pi is a straight line: error control on the orbit
        # alone takes 6 steps instead of 41 and det M - 1 grows to ~5e-5
        spec, orbit = monodromy_case("cosine torus ridge rotation")
        rep = orb.monodromy(spec, orbit)
        angle = math.sqrt(0.1) * orbit.period  # transverse frequency sqrt(U''(pi))
        assert_eigenvalues_match(
            rep.eigenvalues, [cmath.exp(1j * angle), cmath.exp(-1j * angle)], tol=1e-6
        )
        assert rep.det_error < 1e-6

    def test_iterates_are_matrix_powers(self):
        spec, orbit = monodromy_case("oscillator brake")
        rep1 = orb.monodromy(spec, orbit)
        for m in (2, 3):
            repm = orb.monodromy(spec, orbit, periods=m)
            assert np.max(np.abs(repm.matrix - np.linalg.matrix_power(rep1.matrix, m))) < 1e-5

    @pytest.mark.parametrize("x1", [0.5, 1.0, 2.0, 3.0])
    def test_horizontal_rotation_family_degenerate(self, x1):
        # U = 0.1 cos x1 is invariant under x2-translations, so the multiplier
        # 1 has two 2 x 2 Jordan blocks; round-off splits their eigenvalues by
        # ~1e-6 around 1, on either side of tol_eig depending on x1
        spec = cosine_torus()
        orbit = orb.find_rotation(spec, rotation_seed(x1, 1.0, True))
        rep = orb.monodromy(spec, orbit)
        assert rep.trivial_multiplicity == 4
        assert not rep.nondegenerate

    @pytest.mark.parametrize(
        "name",
        ["oscillator brake", "cosine torus ridge rotation", "cosine torus horizontal rotation"],
    )
    def test_flow_direction_fixed(self, name):
        # f(z0) is an eigenvector of M with multiplier 1
        spec, orbit = monodromy_case(name)
        assert orb.monodromy(spec, orbit).flow_defect <= 1e-8

    def test_brake_orbit_must_start_at_rest(self):
        spec, orbit = monodromy_case("oscillator brake")
        moving = orb.PeriodicOrbit(
            spec=spec,
            trajectory=dyn.integrate(
                spec, PhaseState([0.9, 0.0], [0.1, 0.0]), (0.0, orbit.period), rtol=1e-9
            ),
            period=orbit.period,
            kind="brake",
            rest_points=orbit.rest_points,
        )
        with pytest.raises(orb.PreconditionError, match="a brake orbit starts at rest"):
            orb.monodromy(spec, moving)

    def test_orbit_of_another_system_rejected(self):
        orbit = orb.find_brake(oscillator(), [1.0, 0.0])
        with pytest.raises(orb.PreconditionError, match="another system"):
            orb.monodromy(oscillator((1.3, 1.7)), orbit)

    def test_finsler_rest_points_unsupported(self):
        f2 = ex.parse("v1^2 + v2^2 + 0.1*sqrt(v1^4 + v2^4)", 2)
        metric = geo.MetricModel.finsler(f2, 2)
        spec = dyn.SystemSpec(metric, ex.parse("0.5*(x1^2+x2^2)", 2), 0.5)
        fake = orb.PeriodicOrbit(
            spec=spec,
            trajectory=dyn.integrate(
                spec, PhaseState([0.3, 0.0], [0.9, 0.2]), (0.0, 0.5), rtol=1e-9
            ),
            period=0.5,
            kind="brake",
            rest_points=[(0.0, np.array([0.3, 0.0]))],
        )
        with pytest.raises(orb.UnsupportedModelError):
            orb.monodromy(spec, fake)


class TestDegenerateFamily:
    def test_family_report(self):
        osc = ref.OscillatorSpec((1.0, 2.0), 1.0, resonance=(1, 2))
        rep = oracles.verify_degenerate_family(osc, 1.0, 0.5, (0.0, 0.3, 0.7))
        assert rep.max_residual < 1e-10
        assert rep.energy_spread < 1e-12
        assert rep.period == pytest.approx(2 * math.pi)

    def test_s_zero_reproduces_cosine_member(self):
        osc = ref.OscillatorSpec((1.0, 2.0), 1.0, resonance=(1, 2))
        st = ref.lissajous_family(osc, 1.0, 0.5, 0.0, 0.4)
        x1 = 1.0 * math.cos(0.4)
        assert st.x[0] == pytest.approx(x1, abs=1e-14)


class TestOneDegreeOfFreedom:
    """The shooting chart has no coordinates: W0 is 2 x 0 and Newton's only
    unknown is the period."""

    def test_brake_orbit_of_the_oscillator(self):
        orbit = orb.find_brake(ref.oscillator_system(ref.OscillatorSpec((1.0,), 0.5)), [1.01])
        assert abs(orbit.period - 2 * math.pi) < 1e-9
        assert orb.monodromy(orbit.spec, orbit).trivial_multiplicity == 2

    def test_rotation_of_the_circle(self):
        metric = geo.MetricModel.euclidean(1, geo.Space.torus([2 * math.pi]))
        spec = dyn.SystemSpec(metric, ex.parse("0.1*cos(x1)", 1), 1.0)

        def speed(x):
            return np.sqrt(2.0 * (1.0 - 0.1 * np.cos(x)))

        orbit = orb.find_rotation(spec, PhaseState([0.3], [speed(0.3)]))
        # T = integral of dx / speed over one turn: the periodic trapezoid
        # rule converges geometrically for a smooth periodic integrand
        xs = np.linspace(0.0, 2 * math.pi, 257)[:-1]
        period = 2 * math.pi * float(np.mean(1.0 / speed(xs)))
        assert period == pytest.approx(4.4512592, abs=1e-7)
        assert abs(orbit.period - period) < 1e-9
        assert orb.monodromy(spec, orbit).trivial_multiplicity == 2


class TestReportDict:
    def test_json_fields(self):
        spec = oscillator()
        orbit = orb.find_brake(spec, [1.0, 0.0])
        rep = orb.monodromy(spec, orbit)
        d = orb.orbit_report_dict(orbit, rep)
        assert d["kind"] == "brake"
        assert set(d) >= {
            "kind",
            "period",
            "energy",
            "closure_residual",
            "rest_points",
            "eigenvalues",
            "nondegenerate",
            "det_error",
            "flow_defect",
        }
        assert d["flow_defect"] == rep.flow_defect
        assert len(d["eigenvalues"]) == 4
