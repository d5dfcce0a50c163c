"""Jacobi-Maupertuis correspondence between orbits and geodesics.

At energy E, orbits of L = F^2/2 - U reparametrize to unit-speed geodesics
of the conformal metric Fbar^2 = 2 (E - U) F^2 on the interior of the well
{U < E}, and back.  The conformal factor degenerates on the boundary
{U = E}, so every operation here guards a positive floor on E - U;
boundary-touching work (brake orbits) stays in the time parametrization.

Each reparametrization trades an old parameter on [a, b] for a new one by
one dense run of d(old)/d(new) from old = a, in the flows' Runge-Kutta
scheme, never by quadrature of samples.  A terminal event at old = b ends the
run, so the event's time is the total new length; the span ``_SPAN`` is only
a finite stand-in.  The rate is read at min(old, b): the source curve is never
read past b, and the rate held there carries the last step past it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import rk
from .dynamics import SystemSpec, Trajectory
from .errors import OrbitLabError

__all__ = [
    "JacobiError",
    "DegeneracyError",
    "EnergyMismatchError",
    "JacobiMetric",
    "GeodesicCurve",
    "OrbitCurve",
    "jacobi_f2",
    "jacobi_geodesic_coefficients",
    "orbit_to_geodesic",
    "geodesic_to_orbit",
]


class JacobiError(OrbitLabError):
    pass


class DegeneracyError(JacobiError):
    """Raised when the Jacobi metric is queried at or beyond the well boundary."""


class EnergyMismatchError(JacobiError):
    pass


@dataclass
class JacobiMetric:
    """Conformal kinetic model 2 (E - U(x)) F^2 with a degeneracy floor."""

    spec: SystemSpec

    @property
    def delta_floor(self) -> float:
        return 1e-8 * (1.0 + abs(self.spec.energy))

    @property
    def energy(self) -> float:
        return self.spec.energy

    def psi(self, x):
        """Conformal factor 2 (E - U(x))."""
        return 2.0 * (self.spec.energy - self.spec.potential.value(list(x)))

    def psi_gradient(self, x):
        grad_u = self.spec.potential.gradient(list(x))
        return [-2.0 * g for g in grad_u]

    def margin(self, x) -> float:
        return self.spec.energy - self.spec.potential.value(x)

    def check_interior(self, x):
        m = self.margin(x)
        if m <= self.delta_floor:
            raise DegeneracyError(
                f"point at margin E - U = {m:.3e} is outside the admissible "
                f"well interior (floor {self.delta_floor:.3e})"
            )


def jacobi_f2(jm: JacobiMetric, x, v):
    """Fbar^2(x, v) = 2 (E - U(x)) F^2(x, v) on the well interior."""
    jm.check_interior(x)
    return jm.psi(x) * geo.f_squared(jm.spec.metric, list(x), list(v))


def jacobi_geodesic_coefficients(jm: JacobiMetric, x, v):
    """Spray of the conformal metric via the closed conformal correction.

    Gbar = G + (1/(4 psi)) { 2 (grad psi . v) v - g^{-1} grad psi F^2 }.
    Must agree with the geometry kernel applied to the conformal expression
    model; both routes are exercised against each other in the tests.
    """
    jm.check_interior(x)
    base = jm.spec.metric
    n = base.dimension
    g, spray = geo.metric_and_spray(base, list(x), list(v))
    psi = jm.psi(x)
    dpsi = jm.psi_gradient(x)
    f2 = geo.f_squared(base, list(x), list(v))
    dpsi_v = np.dot(dpsi, v)
    pull = geo.solve_linear(g, dpsi)
    return [
        spray[i] + (2.0 * dpsi_v * v[i] - pull[i] * f2) / (4.0 * psi)
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Reparametrized curves
# ---------------------------------------------------------------------------

@dataclass
class GeodesicCurve:
    """Arc-length picture of an orbit: positions indexed by Fbar arc length."""

    jm: JacobiMetric
    source: Trajectory
    t_of_s: rk.RKResult
    s_total: float
    max_unit_speed_error: float = 0.0

    @property
    def t0(self) -> float:
        return 0.0

    @property
    def t1(self) -> float:
        return self.s_total

    def time_at(self, s: float) -> float:
        return float(self.t_of_s.dense(s)[0])

    def position(self, s: float) -> np.ndarray:
        return self.source.position(self.time_at(s))

    def velocity(self, s: float) -> np.ndarray:
        t = self.time_at(s)
        psi = self.jm.psi(self.source.position(t))
        return self.source.velocity(t) / psi


@dataclass
class OrbitCurve:
    """Time picture of a unit-speed geodesic of the conformal metric."""

    jm: JacobiMetric
    source: object  # anything with position(s), velocity(s)
    s_of_t: rk.RKResult
    t_total: float

    @property
    def t0(self) -> float:
        return 0.0

    @property
    def t1(self) -> float:
        return self.t_total

    def arclength_at(self, t: float) -> float:
        return float(self.s_of_t.dense(t)[0])

    def position(self, t: float) -> np.ndarray:
        return self.source.position(self.arclength_at(t))

    def velocity(self, t: float) -> np.ndarray:
        s = self.arclength_at(t)
        x = self.source.position(s)
        psi = self.jm.psi(x)
        return self.source.velocity(s) * psi


# span of a reparametrization run: a finite stand-in that the event cuts short
_SPAN = 1e300


def _reparametrize(inverse_rate, a, b):
    """Exchange of parameters old -> new over old in [a, b].

    One dense run of d(old)/d(new) = inverse_rate(min(old, b)) from old = a,
    stopped by the terminal event old = b.  Returns (total new-parameter
    length, the run).  A run that ends without the event -- a rate that is
    not positive, or b <= a -- raises :class:`JacobiError`.
    """
    run = rk.solve_rk45(
        lambda q, y: [inverse_rate(min(y[0], b))], (0.0, _SPAN), [a], rtol=1e-12, atol=1e-14,
        events=(rk.EventSpec(lambda q, y: y[0] - b, direction=1, terminal=True),),
    )
    if not run.events:
        raise JacobiError(
            f"the reparametrization from {a!r} never reached {b!r}: it needs a "
            "positive exchange rate over an increasing range"
        )
    return run.events[0].t, run


def _check_unit_speed(curve, jm: JacobiMetric, samples: int, what: str) -> float:
    """Largest |Fbar^2 - 1| over ``samples`` evenly spaced curve parameters;
    above 1e-6, or NaN, it raises :class:`EnergyMismatchError` naming ``what``."""
    gaps = []
    for s in np.linspace(curve.t0, curve.t1, samples):
        x = curve.position(float(s))
        xp = curve.velocity(float(s))
        gaps.append(abs(float(jacobi_f2(jm, list(x), list(xp))) - 1.0))
    err = float(np.max(gaps))
    if not err <= 1e-6:
        raise EnergyMismatchError(f"{what} fails the unit-speed condition by {err:.3e}")
    return err


def _check_trajectory_energy(jm: JacobiMetric, traj: Trajectory):
    if traj.energies is None:
        raise EnergyMismatchError("trajectory carries no recorded energies")
    err = float(np.max(np.abs(traj.energies - jm.energy)))
    if err > 1e-6:
        raise EnergyMismatchError(
            f"trajectory energy deviates from E by {err:.3e} (> 1e-6)"
        )


def orbit_to_geodesic(traj: Trajectory, jm: JacobiMetric) -> GeodesicCurve:
    """Reparametrize an energy-E orbit by Fbar arc length.

    One run of dt/ds = 1 / psi(x(t)), psi = 2 (E - U), from t0 gives the
    monotone inverse t(s), and its event at t1 the total length s_total.  A
    trajectory of another system raises :class:`JacobiError`.
    """
    if traj.spec != jm.spec:
        raise JacobiError("the trajectory belongs to another system")
    _check_trajectory_energy(jm, traj)

    # interior guard along the whole curve, including between samples
    for x in traj.position(np.linspace(traj.t0, traj.t1, 4 * len(traj.ts) + 1)):
        jm.check_interior(x)

    s_total, inv = _reparametrize(lambda t: 1.0 / jm.psi(traj.position(t)), traj.t0, traj.t1)
    curve = GeodesicCurve(jm, traj, inv, s_total)
    curve.max_unit_speed_error = _check_unit_speed(curve, jm, 65, "mapped curve")
    return curve


def geodesic_to_orbit(curve, jm: JacobiMetric) -> OrbitCurve:
    """Map a unit-speed Fbar geodesic back to a time-parametrized orbit.

    ``curve`` needs position(s)/velocity(s) over [curve.t0, curve.t1]; a
    Trajectory of the conformal flow or a GeodesicCurve both qualify.
    """
    _check_unit_speed(curve, jm, 33, "input curve")
    t_total, inv = _reparametrize(lambda s: jm.psi(curve.position(s)), curve.t0, curve.t1)
    return OrbitCurve(jm, curve, inv, t_total)
