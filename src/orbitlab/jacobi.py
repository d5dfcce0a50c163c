"""Jacobi-Maupertuis correspondence between orbits and geodesics.

At energy E, orbits of L = F^2/2 - U reparametrize to unit-speed geodesics
of the conformal metric Fbar^2 = 2 (E - U) F^2 on the interior of the well
{U < E}, and back.  The conformal factor degenerates on the boundary
{U = E}, so the metric's functions and the orbit-to-geodesic map guard a
positive floor on E - U at every point where they evaluate it, the map also
at the orbit's knots; boundary-touching work (brake orbits) stays in the
time parametrization.

Each reparametrization exchanges an old parameter p for a new one q,
dq/dp = rate(p) > 0, by quadrature on the source curve's own steps, over
each of which its dense output is one polynomial (:class:`_Exchange`): q at
the knots is the cumulative sum of one 8-node Gauss-Legendre rule on each
eighth of a step (Hairer, Norsett & Wanner, *Solving ODEs I*, 2nd ed.,
Springer 1993, section II.7), with the rate evaluated over arrays, and p(q)
is Newton's method on the same rule.  Along an orbit ds/dt = psi =
2 (E - U), so the map needs no integrator run.  It replaced one dense run
of dt/ds = 1/psi at rtol 1e-12 per map.  Measured on 16 seed-1 horizontal
rotations of the cosine torus (20-21 source steps each): s_total is within
6e-16 relative of 16 nodes on 32 sub-steps of every step, and within
1.6e-14 of a forward run of ds/dt at rtol 1e-13; the map took about 1.2 ms
per orbit.  These rotations do not need the split (the rule once per step
gives s_total within 4e-16 and the round trip through
:func:`geodesic_to_orbit` within 2e-16, in 1.1 ms); an orbit where psi is
small does: on an oscillator orbit whose psi falls to 0.03 over 11 steps,
the round trip returns the orbit's duration within 3e-15, and within
1.4e-6, 1.1e-9 and 3e-12 with the rule once, twice and four times a
step.  The unit-speed check reads only the orbit's energy,
whatever t(s) is, so the mapped curve also records the inversion residual
|s(t(s)) - s|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
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
        """Conformal factor 2 (E - U(x)); vectorised like :meth:`margin`."""
        return 2.0 * self.margin(x)

    def margin(self, x):
        """E - U(x) at a point x, or at each row of a (K, n) array x in one
        array call of U."""
        return self.spec.energy - self.spec.potential.value(x)

    def check_interior(self, x):
        """The margin E - U(x), checked above :attr:`delta_floor`: else
        :class:`DegeneracyError`, naming the first row of an array x below it."""
        m = self.margin(x)
        low = np.ravel(m)[np.ravel(m) <= self.delta_floor]
        if low.size:
            raise DegeneracyError(
                f"point at margin E - U = {low[0]:.3e} is outside the admissible "
                f"well interior (floor {self.delta_floor:.3e})"
            )
        return m


def jacobi_f2(jm: JacobiMetric, x, v):
    """Fbar^2(x, v) = 2 (E - U(x)) F^2(x, v) on the well interior, from one
    evaluation of U (:meth:`JacobiMetric.check_interior`); at each row of
    (K, n) arrays x and v, from one array call each of U and F^2."""
    return 2.0 * jm.check_interior(x) * geo.f_squared(jm.spec.metric, x, v)


def jacobi_geodesic_coefficients(jm: JacobiMetric, x, v):
    """Spray of the conformal metric via the closed conformal correction.

    With the base metric's 2 g G = c (:func:`geometry.metric_nodes`) and
    grad psi = -2 grad U,
    Gbar = (1/2) g^{-1} (c - (F^2 / (2 psi)) grad psi) + ((grad psi . v) / (2 psi)) v:
    one solve with one right-hand side.  Must agree with the geometry kernel
    applied to the conformal expression model; both routes are exercised
    against each other in the tests.
    """
    psi = 2.0 * jm.check_interior(x)
    base = jm.spec.metric
    geo.require_nonzero_v(base, v)
    z = [*map(float, x), *map(float, v)]
    g, c = base.run("g_and_c", z)
    dpsi = [-2.0 * e for e in jm.spec.potential.gradient(x)]
    pull = base.run("f2", z) / (2.0 * psi)
    s = geo.solve_linear(g, [ci - pull * d for ci, d in zip(c, dpsi)])
    push = float(np.dot(dpsi, v)) / (2.0 * psi)
    return [0.5 * si + push * vi for si, vi in zip(s, v)]


# ---------------------------------------------------------------------------
# Reparametrization by quadrature
# ---------------------------------------------------------------------------

# 8-node Gauss-Legendre rule on [-1, 1]: nodes -+x_i and weights w_i, each
# the double nearest the exact value; exact for polynomials of degree <= 15
_GL_X = (0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363)
_GL_W = (0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626)
# the rule on [0, 1]: nodes in increasing order, and their weights
_NODES = 0.5 + 0.5 * np.concatenate([-np.array(_GL_X[::-1]), _GL_X])
_WEIGHTS = 0.5 * np.array(_GL_W[::-1] + _GL_W)

_SPLIT = 8
_NEWTON_CAP = 8


class _Exchange:
    """Monotone exchange of parameters p -> q with dq/dp = ``rate``(p) > 0
    over the knots p_0 < ... < p_N of a source curve; ``rate`` takes and
    returns 1-D arrays.

    ``p`` holds the exchange's knots, each of the source's steps split into
    ``_SPLIT`` (8) equal steps, short enough for the rule where the rate
    varies fast (the module docstring has the measurements); ``q`` holds q
    there: q_0 = 0 and the cumulative sum of the rule on each step.
    :meth:`forward` is q(p) = q_k + the rule on [p_k, p].  :meth:`inverse`
    takes Newton steps p <- p - (q(p) - q) / rate(p) from the linear guess
    in q's step, kept inside that step, until every correction is at most
    1e-8 of its step's length: by quadratic convergence the next one would
    be below rounding.  After ``_NEWTON_CAP`` (8) corrections it raises
    :class:`JacobiError`.  A rate that is not positive at every node, or
    knots that do not increase, raise :class:`JacobiError`.
    """

    def __init__(self, rate, knots):
        knots = np.asarray(knots, dtype=float)
        parts = knots[:-1, None] + np.diff(knots)[:, None] * (np.arange(_SPLIT) / _SPLIT)
        self.rate, self.p = rate, np.append(parts.ravel(), knots[-1:])
        steps = np.diff(self.p)
        values = self._rates(self.p[:-1], steps)
        if not (steps.size and np.all(steps > 0) and np.all(values > 0)):
            raise JacobiError(
                f"the exchange from {self.p[0]!r} never reached {self.p[-1]!r}: it needs "
                "a positive exchange rate over increasing knots"
            )
        self.q = np.concatenate([[0.0], np.cumsum(steps * (values @ _WEIGHTS))])

    def _rates(self, a, h):
        """The rate at the rule's nodes on each [a, a + h], as a (K, 8) array."""
        nodes = a[:, None] + h[:, None] * _NODES
        return self.rate(nodes.ravel()).reshape(nodes.shape)

    def forward(self, p):
        """q(p) at a 1-D array p."""
        k = np.clip(np.searchsorted(self.p, p, side="right") - 1, 0, len(self.p) - 2)
        h = p - self.p[k]
        return self.q[k] + h * (self._rates(self.p[k], h) @ _WEIGHTS)

    def inverse(self, q):
        """p(q) at a scalar or a 1-D array q; at and beyond either end the
        end knot, NaN at NaN."""
        qs = np.atleast_1d(np.asarray(q, dtype=float))
        out = np.full(qs.shape, np.nan)
        out[qs <= self.q[0]] = self.p[0]
        out[qs >= self.q[-1]] = self.p[-1]
        inside = (qs > self.q[0]) & (qs < self.q[-1])
        if inside.any():
            out[inside] = self._newton(qs[inside])
        return float(out[0]) if np.ndim(q) == 0 else out

    def _newton(self, q):
        k = np.searchsorted(self.q, q, side="right") - 1
        a, b, qa = self.p[k], self.p[k + 1], self.q[k]
        p = a + (q - qa) / (self.q[k + 1] - qa) * (b - a)
        for _ in range(_NEWTON_CAP):
            step = (self.forward(p) - q) / self.rate(p)
            p = np.clip(p - step, a, b)
            if np.all(np.abs(step) <= 1e-8 * (b - a)):
                return p
        raise JacobiError(
            f"inverting the exchange took more than {_NEWTON_CAP} Newton steps "
            f"(last step {float(np.max(np.abs(step))):.3e})"
        )


# ---------------------------------------------------------------------------
# Reparametrized curves
# ---------------------------------------------------------------------------

@dataclass
class GeodesicCurve:
    """Arc-length picture of an orbit: positions indexed by Fbar arc length.

    ``exchange`` holds s(t) on the source's knots and the points that split
    its steps; :attr:`ts` are the source knots' arc lengths.  Positions,
    velocities and times take a scalar s or a 1-D array.
    """

    jm: JacobiMetric
    source: Trajectory
    exchange: _Exchange
    s_total: float
    max_unit_speed_error: float = 0.0
    max_inversion_error: float = 0.0

    @property
    def t0(self) -> float:
        return 0.0

    @property
    def t1(self) -> float:
        return self.s_total

    @property
    def ts(self) -> np.ndarray:
        return self.exchange.q[::_SPLIT]

    def time_at(self, s):
        return self.exchange.inverse(s)

    def position(self, s):
        return self.source.position(self.time_at(s))

    def velocity(self, s):
        return _geodesic_velocity(self.jm, self.source.state(self.time_at(s)))


@dataclass
class OrbitCurve:
    """Time picture of a unit-speed geodesic of the conformal metric;
    ``exchange`` holds t(s) on the source's knots and the points that split
    its steps."""

    jm: JacobiMetric
    source: object  # anything with position(s), velocity(s)
    exchange: _Exchange
    t_total: float

    @property
    def t0(self) -> float:
        return 0.0

    @property
    def t1(self) -> float:
        return self.t_total

    def arclength_at(self, t):
        return self.exchange.inverse(t)

    def position(self, t) -> np.ndarray:
        return self.source.position(self.arclength_at(t))

    def velocity(self, t) -> np.ndarray:
        s = self.arclength_at(t)
        x = self.source.position(s)
        psi = self.jm.psi(x)
        return self.source.velocity(s) * psi


def _geodesic_velocity(jm: JacobiMetric, z):
    """dx/ds = v / psi(x) at a state z = (x, v), or at each row of an array."""
    n = jm.spec.dimension
    return z[..., n:] / np.expand_dims(jm.psi(z[..., :n]), -1)


def _check_unit_speed(jm: JacobiMetric, x, xp, what: str) -> float:
    """Largest |Fbar^2 - 1| over the rows of (K, n) positions x and
    velocities xp; above 1e-6, or NaN, it raises
    :class:`EnergyMismatchError` naming ``what``."""
    err = float(np.max(np.abs(jacobi_f2(jm, x, xp) - 1.0)))
    if not err <= 1e-6:
        raise EnergyMismatchError(f"{what} fails the unit-speed condition by {err:.3e}")
    return err


def _check_trajectory_energy(jm: JacobiMetric, traj: Trajectory):
    err = float(np.max(np.abs(traj.energies - jm.energy)))
    if err > 1e-6:
        raise EnergyMismatchError(
            f"trajectory energy deviates from E by {err:.3e} (> 1e-6)"
        )


def orbit_to_geodesic(traj: Trajectory, jm: JacobiMetric) -> GeodesicCurve:
    """Reparametrize an energy-E orbit by Fbar arc length.

    s(t) is the quadrature of ds/dt = psi(x(t)), psi = 2 (E - U), on the
    trajectory's steps, and t(s) its Newton inverse (:class:`_Exchange`).
    E - U is checked above its floor (:class:`DegeneracyError`) at the
    knots and wherever the quadrature or the inverse evaluates psi.
    At 65 evenly spaced arc lengths the curve is checked for unit Fbar speed
    (:class:`EnergyMismatchError` above 1e-6) and for the inversion residual
    |s(t(s)) - s| (:class:`JacobiError` above 1e-12 (1 + s_total)).  A
    trajectory of another system raises :class:`JacobiError`.
    """
    if traj.spec != jm.spec:
        raise JacobiError("the trajectory belongs to another system")
    _check_trajectory_energy(jm, traj)
    n = traj.spec.dimension
    jm.check_interior(traj.states[:, :n])
    exchange = _Exchange(lambda t: 2.0 * jm.check_interior(traj.dense(t)[:, :n]), traj.ts)
    curve = GeodesicCurve(jm, traj, exchange, float(exchange.q[-1]))
    s = np.linspace(0.0, curve.s_total, 65)
    t = curve.time_at(s)
    curve.max_inversion_error = float(np.max(np.abs(exchange.forward(t) - s)))
    if not curve.max_inversion_error <= 1e-12 * (1.0 + curve.s_total):
        raise JacobiError(
            f"the mapped curve's t(s) misses s by {curve.max_inversion_error:.3e}"
        )
    z = traj.state(t)
    curve.max_unit_speed_error = _check_unit_speed(
        jm, z[:, :n], _geodesic_velocity(jm, z), "mapped curve"
    )
    return curve


def geodesic_to_orbit(curve, jm: JacobiMetric) -> OrbitCurve:
    """Map a unit-speed Fbar geodesic back to a time-parametrized orbit.

    ``curve`` needs position(s)/velocity(s) over [curve.t0, curve.t1] and its
    knots ``ts``: a Trajectory of the conformal flow or a GeodesicCurve
    (of ``jm``'s system, else :class:`JacobiError`) both qualify.  It is
    checked for unit speed at 33 evenly spaced parameters; then t(s) is the
    quadrature of dt/ds = 1 / psi(x(s)) on its steps.  A curve without knots
    raises :class:`JacobiError`.
    """
    if isinstance(curve, GeodesicCurve) and curve.jm.spec != jm.spec:
        raise JacobiError("the geodesic curve belongs to another system")
    s = np.linspace(curve.t0, curve.t1, 33)
    _check_unit_speed(jm, np.array([curve.position(p) for p in s]),
                      np.array([curve.velocity(p) for p in s]), "input curve")
    knots = getattr(curve, "ts", None)
    if knots is None:
        raise JacobiError("the input curve has no knots ts to integrate over")
    exchange = _Exchange(lambda s: 1.0 / jm.psi(curve.position(s)), knots)
    return OrbitCurve(jm, curve, exchange, float(exchange.q[-1]))
