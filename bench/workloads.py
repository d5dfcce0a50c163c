"""Orbit-survey workloads: seeded inputs, item pipelines and closed-form checks.

A workload is an endless, seed-determined sequence of *items*.  Each item is
one pipeline a user runs on one system.  The generator draws every float from
one ``random.Random(seed)`` stream; orbitlab only ever receives the generated
floats and expression strings.

Why each workload exists:

* ``brake_classify`` -- the survey users run over a family of oscillators:
  ``find_brake`` -> ``monodromy`` -> ``self_intersections``.  The intersection
  scan and its dense-output lookups do most of the work; shooting runs on
  Dual-valued states.
* ``torus_rotation`` -- least-squares rotation shooting on the cosine torus
  dominates; the scan does little.  The only workload that exercises
  ``jacobi`` and the torus wrap.
* ``finsler_flow`` -- plain integration with events and dense output under a
  quartic Finsler metric: no shooting and no scan, so the expression
  interpreter and the Finsler geometry dominate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

BRAKE_ENERGY = 0.5
# Every item whose index is 3 mod 4 is a 3-DOF oscillator; the fixed pattern
# keeps the cost mix the same for every seed.
BRAKE_3DOF_EVERY = 4
# Distinct oscillators per run; item i uses oscillator i mod this number.
BRAKE_SYSTEMS = 64

TORUS_ENERGY = 1.0
TORUS_AMPLITUDE = 0.1

FINSLER_ENERGY = 0.5
FINSLER_T = 20.0
FINSLER_F2 = "v1^2 + v2^2 + 0.1*sqrt(v1^4 + v2^4)"
FINSLER_U = "0.5*x1^2 + x2^2 + 0.1*x1^2*x2^2"
# Item k draws its direction from arc k mod this number of equal arcs.  An
# item's step count depends on its direction (near-vertical starts take about
# 12% more steps), so the fixed pattern keeps the cost mix the same for every
# seed.
FINSLER_DIRECTION_ARCS = 8

WORKLOADS = ("brake_classify", "torus_rotation", "finsler_flow")


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    limit: float
    passed: bool


def _check_le(name: str, value: float, limit: float) -> Check:
    return Check(name, float(value), float(limit), bool(value <= limit))


def _check_eq(name: str, value, expected) -> Check:
    return Check(name, float(value), float(expected), bool(value == expected))


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def brake_frequencies(rng: random.Random, three_dof: bool) -> tuple[float, ...]:
    """Non-resonant frequencies: every ratio alpha_k/alpha_1 has fractional
    part in [0.15, 0.8], and for 3 DOF the two ratios neither coincide nor
    sum to an integer, so no monodromy eigenvalue pair collides."""
    a1 = rng.uniform(0.9, 1.1)
    if three_dof:
        return (a1, a1 * rng.uniform(1.15, 1.3), a1 * rng.uniform(1.55, 1.65))
    return (a1, a1 * rng.uniform(1.2, 1.8))


def generate(workload: str, seed: int):
    """(systems, items): the system parameters and an endless item iterator.

    Both are fixed by ``seed``; item parameters are plain tuples of floats.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "brake_classify":
        systems = [
            brake_frequencies(rng, k % BRAKE_3DOF_EVERY == BRAKE_3DOF_EVERY - 1)
            for k in range(BRAKE_SYSTEMS)
        ]

        def items():
            k = 0
            while True:
                alphas = systems[k % BRAKE_SYSTEMS]
                amp = math.sqrt(2.0 * BRAKE_ENERGY) / alphas[0]
                seed_x = [amp + _signed(rng, 0.005, 0.02) * amp]
                seed_x += [_signed(rng, 0.01, 0.04) for _ in alphas[1:]]
                yield (k % BRAKE_SYSTEMS, tuple(seed_x))
                k += 1

    elif workload == "torus_rotation":
        systems = [None]

        def items():
            # The two rotations cross at (pi, x2 of the horizontal start).  The
            # start points put that crossing in the middle half of both orbits'
            # time ranges: a crossing at a strand's start/end can be missed by
            # mutual_intersections (see bench/README.md, "Defects found").
            while True:
                hx2 = rng.uniform(0.0, 2 * math.pi)
                hx1 = (math.pi - 2 * math.pi * rng.uniform(0.25, 0.75)) % (2 * math.pi)
                rx2 = (hx2 - 2 * math.pi * rng.uniform(0.25, 0.75)) % (2 * math.pi)
                yield ((math.pi + _signed(rng, 0.01, 0.03), rx2), (hx1, hx2))

    elif workload == "finsler_flow":
        systems = [None]

        def items():
            k = 0
            while True:
                while True:
                    x = (rng.uniform(-1.0, 1.0), rng.uniform(-0.7, 0.7))
                    if finsler_potential(x) <= 0.6 * FINSLER_ENERGY:
                        break
                arc = k % FINSLER_DIRECTION_ARCS + rng.uniform(0.0, 1.0)
                yield (x, 2 * math.pi * arc / FINSLER_DIRECTION_ARCS)
                k += 1

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return systems, items()


def finsler_potential(x) -> float:
    return 0.5 * x[0] ** 2 + x[1] ** 2 + 0.1 * x[0] ** 2 * x[1] ** 2


def finsler_potential_gradient(x) -> np.ndarray:
    return np.array(
        [x[0] + 0.2 * x[0] * x[1] ** 2, 2.0 * x[1] + 0.2 * x[0] ** 2 * x[1]]
    )


def finsler_f2(v) -> float:
    return v[0] ** 2 + v[1] ** 2 + 0.1 * math.sqrt(v[0] ** 4 + v[1] ** 4)


def torus_potential(x1: float) -> float:
    return TORUS_AMPLITUDE * math.cos(x1)


# ---------------------------------------------------------------------------
# Systems (built during set-up)
# ---------------------------------------------------------------------------

def build_systems(workload: str, systems, lib):
    """One SystemSpec per generated system, built through orbitlab."""
    if workload == "brake_classify":
        ref = lib.reference
        return [ref.oscillator_system(ref.OscillatorSpec(a, BRAKE_ENERGY)) for a in systems]
    ex, geo, dyn = lib.expr, lib.geometry, lib.dynamics
    if workload == "torus_rotation":
        metric = geo.MetricModel.euclidean(2, geo.Space.torus([2 * math.pi, 2 * math.pi]))
        return [dyn.SystemSpec(metric, ex.parse(f"{TORUS_AMPLITUDE!r}*cos(x1)", 2), TORUS_ENERGY)]
    metric = geo.MetricModel.finsler(ex.parse(FINSLER_F2, 2), 2)
    return [dyn.SystemSpec(metric, ex.parse(FINSLER_U, 2), FINSLER_ENERGY)]


# ---------------------------------------------------------------------------
# Pipelines: the timed part of an item
# ---------------------------------------------------------------------------

def run_pipeline(workload: str, specs, params, lib):
    if workload == "brake_classify":
        spec = specs[params[0]]
        orbit = lib.orbits.find_brake(spec, list(params[1]))
        mono = lib.orbits.monodromy(spec, orbit)
        report = lib.intersect.self_intersections(orbit)
        return orbit, mono, report
    if workload == "torus_rotation":
        spec = specs[0]
        (rx1, rx2), (hx1, hx2) = params
        PhaseState = lib.dynamics.PhaseState
        v_ridge = math.sqrt(2.0 * (TORUS_ENERGY - torus_potential(rx1)))
        ridge = lib.orbits.find_rotation(spec, PhaseState([rx1, rx2], [0.0, v_ridge]))
        speed = math.sqrt(2.0 * (TORUS_ENERGY - torus_potential(hx1)))
        horizontal = lib.orbits.find_rotation(spec, PhaseState([hx1, hx2], [speed, 0.0]))
        mono_ridge = lib.orbits.monodromy(spec, ridge)
        mono_horizontal = lib.orbits.monodromy(spec, horizontal)
        report = lib.intersect.mutual_intersections(ridge, horizontal)
        curve = lib.jacobi.orbit_to_geodesic(horizontal.trajectory, lib.jacobi.JacobiMetric(spec))
        return ridge, horizontal, mono_ridge, mono_horizontal, report, curve
    spec = specs[0]
    x, theta = params
    d = (math.cos(theta), math.sin(theta))
    c = math.sqrt(2.0 * (FINSLER_ENERGY - finsler_potential(x)) / finsler_f2(d))
    dyn = lib.dynamics
    return dyn.integrate(
        spec,
        dyn.PhaseState(list(x), [c * d[0], c * d[1]]),
        (0.0, FINSLER_T),
        events=(dyn.kinetic_minimum_event(spec),),
        dense=True,
    )


# ---------------------------------------------------------------------------
# Checks (closed forms; run outside the timed pipeline when tracing)
# ---------------------------------------------------------------------------

def _circular_gap(a: float, b: float) -> float:
    d = math.fmod(abs(a - b), 2 * math.pi)
    return min(d, 2 * math.pi - d)


def _brake_checks(systems, params, out, lib) -> list[Check]:
    orbit, mono, report = out
    alphas = systems[params[0]]
    a1 = alphas[0]
    z0 = orbit.trajectory.states[0]
    scale = 1.0 + float(np.linalg.norm(z0))
    checks = [
        _check_le("brake.period_error", abs(orbit.period - 2 * math.pi / a1), 1e-8),
        _check_le("brake.closure_over_scale", orbit.closure_residual / scale, 1e-8),
        _check_eq("brake.trivial_multiplicity", mono.trivial_multiplicity, 2),
        _check_le("brake.det_error", mono.det_error, 1e-6),
        _check_eq("brake.dp_count", report.dp_count, 0),
        _check_eq(
            "brake.non_reversal_pairs",
            sum(1 for p in report.pairs if p.kind != "reversal"),
            0,
        ),
    ]
    # non-trivial multipliers exp(+-2 pi i alpha_k / alpha_1)
    eigs = [e for e in mono.eigenvalues if abs(e - 1.0) >= mono.tol_eig]
    want = [s * 2 * math.pi * a / a1 for a in alphas[1:] for s in (1.0, -1.0)]
    worst = math.inf if len(eigs) != len(want) else 0.0
    remaining = [math.atan2(e.imag, e.real) for e in eigs]
    for angle in want:
        if not remaining:
            break
        best = min(range(len(remaining)), key=lambda i: _circular_gap(remaining[i], angle))
        worst = max(worst, _circular_gap(remaining.pop(best), angle))
    checks.append(_check_le("brake.eigen_angle_error", worst, 1e-6))
    # the orbit is the axis-1 normal mode; reference closed form, phase-shifted
    # so that it starts at the rest point
    osc = lib.reference.OscillatorSpec(alphas, BRAKE_ENERGY)
    sign = 1.0 if z0[0] > 0 else -1.0
    err = 0.0
    for t in np.linspace(0.0, orbit.period, 9):
        exact = lib.reference.brake_orbit_closed_form(osc, 1, float(t) + math.pi / (2 * a1))
        err = max(err, float(np.max(np.abs(orbit.trajectory.position(float(t)) - sign * exact.x))))
    checks.append(_check_le("brake.closed_form_error", err, 1e-7))
    return checks


def horizontal_period() -> float:
    """Quadrature of dx1 / sqrt(2 (E - U)) over one turn; the periodic
    integrand makes the trapezoid rule spectrally accurate."""
    x = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
    speed = np.sqrt(2.0 * (TORUS_ENERGY - TORUS_AMPLITUDE * np.cos(x)))
    return float(2 * math.pi * np.mean(1.0 / speed))


def _torus_checks(out) -> list[Check]:
    ridge, horizontal, mono_ridge, mono_horizontal, report, curve = out
    ridge_period = 2 * math.pi / math.sqrt(2.0 * (TORUS_ENERGY + TORUS_AMPLITUDE))
    return [
        _check_le("torus.ridge_period_error", abs(ridge.period - ridge_period), 1e-6),
        _check_le("torus.horizontal_period_error", abs(horizontal.period - horizontal_period()), 1e-8),
        _check_le("torus.det_error", max(mono_ridge.det_error, mono_horizontal.det_error), 1e-6),
        _check_eq("torus.mutual_dp_count", report.dp_count, 1),
        _check_le("torus.geodesic_unit_speed_error", curve.max_unit_speed_error, 1e-6),
    ]


def _finsler_checks(out) -> list[Check]:
    traj = out
    g = [
        abs(float(np.dot(finsler_potential_gradient(hit.y[:2]), hit.y[2:])))
        for hit in traj.events
    ]
    return [
        _check_le("finsler.energy_drift", traj.energy_drift, 1e-8),
        Check("finsler.events", float(len(g)), 1.0, len(g) >= 1),
        _check_le("finsler.event_g", max(g, default=0.0), 1e-9),
    ]


def check_item(workload: str, systems, params, out, lib) -> list[Check]:
    if workload == "brake_classify":
        return _brake_checks(systems, params, out, lib)
    if workload == "torus_rotation":
        return _torus_checks(out)
    return _finsler_checks(out)


def _traj_digest(traj) -> list[float]:
    return [float(len(traj.ts)), *traj.states[-1].tolist(), *(h.t for h in traj.events)]


def _report_digest(report) -> list[float]:
    return [float(report.dp_count), *(c for p in report.pairs for c in (p.s, p.t, p.gap)),
            float(len(report.unresolved))]


def digest(workload: str, out) -> list[float]:
    """Every float an item produced that later layers or the checks consume,
    in a fixed order, for bit-exact comparison of two runs."""
    if workload == "brake_classify":
        orbit, mono, report = out
        return [orbit.period, *_traj_digest(orbit.trajectory), *mono.matrix.ravel().tolist(),
                *_report_digest(report)]
    if workload == "torus_rotation":
        ridge, horizontal, mono_ridge, mono_horizontal, report, curve = out
        return [ridge.period, *_traj_digest(ridge.trajectory), horizontal.period,
                *_traj_digest(horizontal.trajectory), *mono_ridge.matrix.ravel().tolist(),
                *mono_horizontal.matrix.ravel().tolist(), *_report_digest(report),
                curve.s_total, curve.max_unit_speed_error]
    return _traj_digest(out) + [out.energy_drift]
