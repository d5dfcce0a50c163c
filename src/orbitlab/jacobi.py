"""Jacobi-Maupertuis correspondence between orbits and geodesics.

At energy E, orbits of L = F^2/2 - U reparametrize to unit-speed geodesics
of the conformal metric Fbar^2 = 2 (E - U) F^2 on the interior of the well
{U < E}, and back.  The conformal factor degenerates on the boundary
{U = E}, so every operation here guards a positive floor on E - U;
boundary-touching work (brake orbits) stays in the time parametrization.

Both reparametrizations integrate the scalar exchange rate with the same
embedded Runge-Kutta scheme used for the flows, never by quadrature of
samples.
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


def _reparametrize(rate, inverse_rate, a, b):
    """Exchange of parameters old -> new with d(new)/d(old) = rate(old).

    Integrates the total new-parameter length over old in [a, b], then the
    inverse map as a dense run of d(old)/d(new) = inverse_rate(old) from
    old = a.  Returns (total, inverse run).
    """
    fwd = rk.solve_rk45(
        lambda p, y: [rate(p)], (a, b), [0.0], rtol=1e-12, atol=1e-14, dense=False
    )
    total = float(fwd.ys[-1, 0])
    inv = rk.solve_rk45(
        lambda q, y: [inverse_rate(y[0])], (0.0, total), [a], rtol=1e-12, atol=1e-14,
        dense=True,
    )
    return total, inv


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

    The exchange rate ds/dt = 2 (E - U(x(t))) is integrated with the same
    Runge-Kutta scheme as the flow; the monotone inverse t(s) is produced by
    integrating dt/ds = 1 / psi over the accumulated length.
    """
    _check_trajectory_energy(jm, traj)

    # interior guard along the whole curve, including between samples
    for x in traj.position(np.linspace(traj.t0, traj.t1, 4 * len(traj.ts) + 1)):
        jm.check_interior(x)

    def psi_at(t):
        return jm.psi(traj.position(t))

    s_total, inv = _reparametrize(psi_at, lambda t: 1.0 / psi_at(t), traj.t0, traj.t1)
    curve = GeodesicCurve(jm, traj, inv, s_total)

    err = 0.0
    for s in np.linspace(0.0, s_total, 65):
        x = curve.position(float(s))
        xp = curve.velocity(float(s))
        f2 = float(jacobi_f2(jm, list(x), list(xp)))
        err = max(err, abs(f2 - 1.0))
    curve.max_unit_speed_error = err
    if err > 1e-6:
        raise EnergyMismatchError(
            f"mapped curve fails the unit-speed condition by {err:.3e}"
        )
    return curve


def geodesic_to_orbit(curve, jm: JacobiMetric) -> OrbitCurve:
    """Map a unit-speed Fbar geodesic back to a time-parametrized orbit.

    ``curve`` needs position(s)/velocity(s) over [curve.t0, curve.t1]; a
    Trajectory of the conformal flow or a GeodesicCurve both qualify.
    """
    s0, s1 = curve.t0, curve.t1

    # precondition: unit Fbar speed within 1e-6
    for s in np.linspace(s0, s1, 33):
        x = curve.position(float(s))
        xp = curve.velocity(float(s))
        f2 = float(jacobi_f2(jm, list(x), list(xp)))
        if abs(f2 - 1.0) > 1e-6:
            raise EnergyMismatchError(
                f"input curve is not unit-speed (Fbar^2 = {f2:.8f} at s={s:.3f})"
            )

    def psi_at(s):
        return jm.psi(curve.position(s))

    t_total, inv = _reparametrize(lambda s: 1.0 / psi_at(s), psi_at, s0, s1)
    return OrbitCurve(jm, curve, inv, t_total)
