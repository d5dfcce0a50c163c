"""Periodic orbits at fixed energy: shooting, monodromy, classification.

Both orbit kinds are found by one damped Newton driver (:func:`_shoot`) on a
return residual r = (z(T) - z0 - offset)[rows], whose unknowns are the
coordinates u of a chart of admissible initial states plus the return time.
The two kinds differ only in their chart:

- brake orbits: a rest point on the boundary {U = E}, as a graph over its
  tangent plane (re-anchored every step); the residual is the velocity at the
  half-period, and reversibility closes the orbit over twice that time;
- rotations: a point of a section hyperplane and a velocity direction, the
  speed slaved to the energy level; the residual is the full first-return
  defect less the torus winding, solved in the least-squares sense.

Shooting Jacobians come from a tangent matrix carried through the
integrator's stages and accepted steps
(:func:`~orbitlab.dynamics.integrate_sensitivity`), so Newton sees the exact
derivative of the discrete flow.  Every line-search trial is such a tangent
run, so an accepted trial is the next iterate and no trajectory is
integrated twice; the only plain runs of a search are the probe for the
first turning point or section return and the closed run of the returned
orbit.  A probe is one run over (0, _T_MAX) that a terminal event ends: for
a brake orbit the kinetic-energy minimum, for a rotation the current
horizon, which doubles from _T_MAX / 16 until the scan of a run finds a
return.

Monodromy is one tangent run of the integrator from W0 = I, with step-size
control watching W as well as the orbit; J(z) W comes from the derivatives in
the system's straight-line code, one run per stage
(:func:`~orbitlab.dynamics.state_rhs_jvp`).  A brake orbit is symmetric under
the reversor R(x, v) = (x, -v) and starts at a fixed point of it, so its run
stops at the half period: with A = W(T/2), M = R A^{-1} R A (Lamb & Roberts,
Physica D 112 (1998)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .dynamics import (
    PhaseState,
    SystemSpec,
    Trajectory,
    energy_gradient,
    integrate,
    integrate_sensitivity,
    kinetic_minimum_event,
    state_rhs,
    state_rhs_jvp,
    total_energy,
)
from .errors import OrbitLabError
from . import rk

__all__ = [
    "PeriodicOrbit",
    "MonodromyReport",
    "PreconditionError",
    "TransversalityError",
    "ConvergenceError",
    "ShootingSingularError",
    "UnsupportedModelError",
    "find_brake",
    "find_rotation",
    "monodromy",
    "orbit_report_dict",
]

# search horizon for the first turning point or section return; the section
# scan's grid spans it whatever the horizon of the probe run
_T_MAX = 100.0
_RTOL, _ATOL = 1e-12, 1e-14  # the returned orbit
_BRAKE_MAX_NEWTON = 30
_ROTATION_MAX_NEWTON = 40
_TOL_EIG = 1e-6  # distance from 1 below which a reported multiplier is trivial
_TOL_NULL = 1e-7  # singular values of (M - I)^2 below this times (1 + |M|_2)^2 are zero
_PROJECT_MAX_ITER = 50  # Newton steps of the projection onto {U = E}


class PreconditionError(OrbitLabError):
    pass


class TransversalityError(PreconditionError):
    pass


class ConvergenceError(OrbitLabError):
    pass


class ShootingSingularError(ConvergenceError):
    """Shooting Jacobian singular; often the signature of a degenerate family."""


class UnsupportedModelError(OrbitLabError):
    pass


@dataclass
class PeriodicOrbit:
    spec: SystemSpec
    trajectory: Trajectory
    period: float
    kind: str  # "brake" | "rotation"
    rest_points: list = field(default_factory=list)  # [(t, position)]
    closure_residual: float = 0.0
    minimal_period_flag: bool = True

    @property
    def energy(self) -> float:
        st = self.trajectory.states[0]
        n = self.spec.dimension
        return float(total_energy(self.spec, st[:n], st[n:]))


@dataclass
class MonodromyReport:
    matrix: np.ndarray
    eigenvalues: np.ndarray
    trivial_multiplicity: int
    nondegenerate: bool
    det_error: float
    tol_eig: float
    flow_defect: float  # |M f(z0) - f(z0)| / |f(z0)|: M must fix the flow direction


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _closure_residual(spec: SystemSpec, z1, z0) -> float:
    n = spec.dimension
    dx = spec.metric.space.delta(z1[:n], z0[:n])
    dv = np.asarray(z1[n:]) - np.asarray(z0[n:])
    return float(np.sqrt(np.dot(dx, dx) + np.dot(dv, dv)))


def _finite_vector(name, value, n) -> np.ndarray:
    """``value`` as n finite floats, or a PreconditionError naming ``name``."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,) or not np.all(np.isfinite(arr)):
        raise PreconditionError(f"{name} must be {n} finite numbers, got {value!r}")
    return arr


def _complement_basis(direction: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to ``direction``.

    Columns span the complement; deterministic via SVD.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    _, _, vt = np.linalg.svd(d.reshape(1, -1))
    return vt[1:].T


def _project_to_level(spec: SystemSpec, x):
    """Newton projection of x onto {U = E} along grad U."""
    x = np.asarray(x, dtype=float).copy()
    target = spec.energy
    for _ in range(_PROJECT_MAX_ITER):
        u = spec.potential.value(x)
        if abs(u - target) <= 1e-13 * (1.0 + abs(target)):
            return x
        grad = np.array(spec.potential.gradient(x))
        g2 = float(np.dot(grad, grad))
        if g2 < 1e-12:
            raise PreconditionError(
                "grad U vanishes while projecting the seed onto {U = E}"
            )
        x = x - (u - target) / g2 * grad
    raise ConvergenceError("projection onto {U = E} did not converge")


def _shoot(spec, chart, z, period, offset, rows, tol, max_newton, kind):
    """Damped Newton on the return residual r = (z(T) - z0 - offset)[rows].

    ``chart(z)`` anchors the unknowns u at the state z and returns
    (z0, W0, lift): the state at u = 0, its derivative in u, and the map
    u -> initial state.  The unknowns are u and the return time T; the
    Jacobian is ((W(T) - W0)[rows] | f(z(T))[rows]) from one tangent run.  A
    square Jacobian is solved exactly, a tall one in the least-squares sense.
    Trials halve the step until the residual drops, keeping T inside
    [0.2, 5] times its initial value.  Every trial is one tangent run from
    the chart re-anchored at lift(alpha * step), so an accepted trial is the
    next iterate as it stands: one tangent run before the first iteration,
    one per trial, none repeated.  Returns (z0, T) of the converged run.
    """
    t_init = period
    z0, w0, lift = chart(z)
    zf, wf = integrate_sensitivity(spec, z0, w0, period)
    res_norm = None
    for _ in range(max_newton):
        residual = (zf - z0 - offset)[rows]
        res_norm = float(np.max(np.abs(residual)))
        if res_norm <= tol:
            return z0, period
        flow = np.asarray(state_rhs(spec, 0.0, zf.tolist()))
        jac = np.column_stack([(wf - w0)[rows], flow[rows]])
        if jac.shape[0] == jac.shape[1]:
            try:
                step = np.linalg.solve(jac, -residual)
            except np.linalg.LinAlgError as exc:
                raise ShootingSingularError(
                    "shooting Jacobian is singular; the orbit may belong to a "
                    "degenerate family"
                ) from exc
        else:
            step, *_ = np.linalg.lstsq(jac, -residual, rcond=None)
        alpha = 1.0
        while True:
            t_try = period + alpha * step[-1]
            if 0.2 * t_init <= t_try <= 5.0 * t_init:
                z0_t, w0_t, lift_t = chart(lift(alpha * step[:-1]))
                zf_t, wf_t = integrate_sensitivity(spec, z0_t, w0_t, t_try)
                trial = float(np.max(np.abs((zf_t - z0_t - offset)[rows])))
                if trial < res_norm or trial <= tol:
                    z0, w0, lift, zf, wf, period = z0_t, w0_t, lift_t, zf_t, wf_t, t_try
                    break
            alpha *= 0.5
            if alpha < 2.0**-14:
                raise ConvergenceError(
                    f"{kind} Newton stalled at residual {res_norm:.3e}"
                )
    raise ConvergenceError(
        f"{kind} Newton did not converge (residual {res_norm:.3e})"
    )


def _probe(spec, initial: PhaseState, events=()) -> Trajectory:
    """One plain run over (0, _T_MAX) at the probe tolerances; a terminal
    event among ``events`` ends it, so it is the run to _T_MAX up to there."""
    return integrate(spec, initial, (0.0, _T_MAX), rtol=1e-9, atol=1e-11, events=events)


def _closed_run(spec, z0, period, kind, events=()):
    """The returned orbit: one dense run over the period at the orbit's
    tolerances, held to the closure bound.  Returns (traj, closure, scale)."""
    traj = integrate(
        spec, PhaseState.from_flat(z0), (0.0, period), rtol=_RTOL, atol=_ATOL, events=events
    )
    closure = _closure_residual(spec, traj.states[-1], z0)
    scale = 1.0 + float(np.linalg.norm(z0))
    if closure >= 1e-8 * scale:
        raise ConvergenceError(f"{kind} failed the closure bound ({closure:.3e})")
    return traj, closure, scale


# ---------------------------------------------------------------------------
# Brake orbits
# ---------------------------------------------------------------------------

def find_brake(spec: SystemSpec, seed) -> PeriodicOrbit:
    """Locate a brake orbit from a rest-point seed near {U = E}.

    Newton unknowns are a local chart of the boundary (graph over its
    tangent plane, re-anchored every step) and the half-period; the residual
    is the full velocity at the half-period.  Reversibility then closes the
    orbit over twice the half-period.
    """
    n = spec.dimension
    e_level = spec.energy
    seed = _finite_vector("seed", seed, n)
    seed_tol = 0.5 * (1.0 + abs(e_level))
    v_tol = 1e-10 * (1.0 + math.sqrt(2.0 * abs(e_level)))

    u_seed = spec.potential.value(seed)
    if abs(u_seed - e_level) > seed_tol:
        raise PreconditionError(
            f"seed potential U = {u_seed:.6g} too far from E = {e_level:.6g}"
        )
    grad = np.array(spec.potential.gradient(seed))
    if np.linalg.norm(grad) <= 1e-6:
        raise PreconditionError(
            "E is not regular for U near the seed (grad U below 1e-6)"
        )

    p = _project_to_level(spec, seed)

    # first turning time from a terminal kinetic-energy-minimum event
    turn = kinetic_minimum_event(spec, terminal=True)
    probe = _probe(spec, PhaseState(p, np.zeros(n)), (turn,))
    if not probe.events:
        raise ConvergenceError(f"no turning event within t = {_T_MAX}")

    def chart(z):
        """{U = E} as a graph over its tangent plane at the rest point z[:n]."""
        p = z[:n]
        grad_p = np.array(spec.potential.gradient(p))
        basis = _complement_basis(grad_p)  # n x (n-1)
        w0 = np.vstack([basis, np.zeros((n, n - 1))])
        return z, w0, lambda u: np.concatenate(
            [_project_to_level(spec, p + basis @ u), np.zeros(n)]
        )

    z0, t_half = _shoot(
        spec, chart, np.concatenate([p, np.zeros(n)]), probe.events[0].t,
        0.0, slice(n, None), v_tol, _BRAKE_MAX_NEWTON, "brake orbit",
    )
    period = 2.0 * t_half
    traj, closure, scale = _closed_run(
        spec, z0, period, "brake orbit", events=(kinetic_minimum_event(spec),)
    )

    # rest points: kinetic-energy minima that are actual stops
    ke_floor = 1e-14 * (1.0 + abs(e_level))
    interior_rests = []
    for hit in traj.events:
        v = hit.y[n:]
        if 0.5 * float(np.dot(v, v)) < ke_floor and 1e-6 < hit.t < period - 1e-6:
            interior_rests.append(hit.t)
    rest_points = [(0.0, traj.position(0.0).copy()), (t_half, traj.position(t_half).copy())]
    minimal = len(interior_rests) == 1

    # reversibility: the second half retraces the first
    for f in (0.1, 0.25, 0.4):
        dt = f * period / 2.0
        ahead = traj.position(t_half + dt)
        behind = traj.position(t_half - dt)
        if float(np.max(np.abs(ahead - behind))) > 1e-7 * scale:
            raise ConvergenceError("brake orbit violates the retrace symmetry")

    return PeriodicOrbit(
        spec=spec,
        trajectory=traj,
        period=period,
        kind="brake",
        rest_points=rest_points,
        closure_residual=closure,
        minimal_period_flag=minimal,
    )


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------

def _rotation_seed_scan(spec, traj, z0, t_guard, threshold):
    """First near-return time on the grid np.linspace(0, _T_MAX, 4096), or None.

    A probe that its stop event ended before _T_MAX is scanned strictly
    before its end, where it is the probe to _T_MAX bit for bit.
    """
    n = spec.dimension
    ts = np.linspace(0.0, _T_MAX, 4096)
    if traj.t1 < _T_MAX:
        ts = ts[ts < traj.t1]
    z = traj.state(ts)
    dx = spec.metric.space.delta(z[:, :n], z0[:n])
    dv = z[:, n:] - z0[n:]
    dists = np.sqrt(np.sum(dx * dx, axis=1) + np.sum(dv * dv, axis=1))
    mid = dists[2:-1]
    hit = (
        (ts[2:-1] >= t_guard)
        & (mid < threshold)
        & (mid <= dists[1:-2])
        & (mid < dists[3:])
    )
    k = np.flatnonzero(hit)
    return float(ts[k[0] + 2]) if k.size else None


def find_rotation(spec: SystemSpec, seed: PhaseState, section_normal=None) -> PeriodicOrbit:
    """Locate a rotation by first-return shooting.

    Unknowns: position on the section hyperplane, velocity direction (the
    magnitude is slaved to the energy level, see :func:`_rotation_chart`),
    and the return time.  Closure is solved in the least-squares sense;
    energy conservation makes one of the 2n closure equations redundant.
    """
    n = spec.dimension
    x_anchor = _finite_vector("seed.x", seed.x, n)
    v_anchor = _finite_vector("seed.v", seed.v, n)
    e_level = spec.energy

    h_seed = float(total_energy(spec, x_anchor, v_anchor))
    if abs(h_seed - e_level) > 1e-8 * (1.0 + abs(e_level)):
        raise PreconditionError(
            f"seed energy {h_seed:.8g} does not sit on the level E = {e_level:.8g}"
        )
    speed = float(np.linalg.norm(v_anchor))
    if speed <= 1e-12:
        raise PreconditionError("rotation seed needs a nonzero velocity")
    normal = (
        v_anchor / speed
        if section_normal is None
        else _finite_vector("section_normal", section_normal, n)
    )
    if not np.any(normal):
        raise PreconditionError("section_normal must be nonzero")
    normal = normal / np.linalg.norm(normal)
    if abs(float(np.dot(normal, v_anchor))) <= 1e-6 * speed:
        raise TransversalityError("seed velocity is tangent to the section")

    scale = 1.0 + float(np.linalg.norm(np.concatenate([x_anchor, v_anchor])))

    z_seed = np.concatenate([x_anchor, v_anchor])
    horizon = _T_MAX / 16
    while True:
        stop = (rk.EventSpec(lambda t, z: t - horizon, terminal=True),) if horizon < _T_MAX else ()
        probe = _probe(spec, PhaseState(x_anchor, v_anchor), stop)
        t_ret = _rotation_seed_scan(
            spec, probe, z_seed, t_guard=20 * _T_MAX / 4096, threshold=0.25 * scale
        )
        if t_ret is not None:
            break
        if horizon >= _T_MAX:
            raise ConvergenceError(f"no section return within t = {_T_MAX}")
        horizon *= 2

    # fixed winding offset for the cover chart: whole periods on a torus
    x_ret = probe.position(t_ret)
    winding = (x_ret - x_anchor) - spec.metric.space.delta(x_ret, x_anchor)

    section_basis = _complement_basis(normal)  # n x (n-1)
    z0, period = _shoot(
        spec, lambda z: _rotation_chart(spec, section_basis, z), z_seed, t_ret,
        np.concatenate([winding, np.zeros(n)]), slice(None), 1e-10 * scale,
        _ROTATION_MAX_NEWTON, "rotation",
    )
    return _build_rotation(spec, z0, period)


def _rotation_chart(spec, section_basis, z):
    """Section x energy level at z for :func:`_shoot`: u = (a, b) lifts to
    x0 = z[:n] + S a (S = ``section_basis``) and v0 = d sqrt(2 (E - U(x0)) /
    F^2(x0, d)) with d = d_a + B b, d_a = z[n:] / |z[n:]| and B spanning its
    complement.  W0 is the linear move L = [[S, 0], [0, |v0| B]] at u = 0
    projected onto the level along e = (0, v0), the direction in which the
    slaved speed moves v0: W0 = L - e (grad H^T L) / (grad H . e)."""
    n = spec.dimension
    d_anchor = z[n:] / np.linalg.norm(z[n:])
    d_basis = _complement_basis(d_anchor)  # n x (n-1)

    def lift(u):
        x0 = z[:n] + section_basis @ u[: n - 1]
        d = d_anchor + d_basis @ u[n - 1 :]
        u_x0, f2 = spec.potential.value(x0), geo.f_squared(spec.metric, x0, d)
        return np.concatenate([x0, math.sqrt(2.0 * (spec.energy - u_x0) / f2) * d])

    z0 = lift(np.zeros(2 * (n - 1)))
    zeros = np.zeros((n, n - 1))
    move = np.block([[section_basis, zeros], [zeros, np.linalg.norm(z0[n:]) * d_basis]])
    e = np.concatenate([np.zeros(n), z0[n:]])
    grad_h = np.array(energy_gradient(spec, z0))
    return z0, move - np.outer(e, grad_h @ move) / (grad_h @ e), lift


def _build_rotation(spec, z0, period, _depth=0) -> PeriodicOrbit:
    traj, closure, scale = _closed_run(spec, z0, period, "rotation")

    # minimality probe: an earlier closure at period/m wins
    if _depth < 4:
        for mdiv in range(2, 7):
            z_frac = traj.state(period / mdiv)
            if _closure_residual(spec, z_frac, z0) < 1e-7 * scale:
                return _build_rotation(spec, z0, period / mdiv, _depth + 1)

    v = traj.velocity(np.linspace(0.0, period, 257))
    ke_min = 0.5 * float(np.min(np.einsum("kd,kd->k", v, v)))
    if ke_min <= 1e-10:
        raise ConvergenceError(
            "orbit grazes a rest point; not a rotation (kinetic energy "
            f"minimum {ke_min:.3e})"
        )
    return PeriodicOrbit(
        spec=spec,
        trajectory=traj,
        period=period,
        kind="rotation",
        rest_points=[],
        closure_residual=closure,
        minimal_period_flag=True,
    )


# ---------------------------------------------------------------------------
# Monodromy
# ---------------------------------------------------------------------------

def monodromy(spec: SystemSpec, orbit: PeriodicOrbit, periods: int = 1) -> MonodromyReport:
    """Fundamental solution of the variational equations over the period.

    M' = J(z) M with M(0) = I is one tangent run at the integrator's default
    tolerances, with M under step-size control: a ridge rotation of the
    cosine torus is a straight line, and error control on the orbit alone
    takes so few steps there that det M drifts from 1.  A brake orbit at
    ``periods`` = 1 runs over the half period only.  It starts at rest, z0 =
    R z0 for the reversor R = diag(I, -I), and R maps the flow to its time
    reversal, so the second half is the first run backwards in R and M = R
    A^{-1} R A with A = W(T/2) (Lamb & Roberts, Physica D 112 (1998)); det M
    = 1 then holds by construction, and ``flow_defect`` checks M instead.
    Several periods run in full, so their M is an integration of its own and
    not a power of one period's.

    The trivial multiplicity is the nullity of (M - I)^2 (Jordan blocks of the
    multiplier 1 up to size 2), not a count of eigenvalues near 1: round-off
    delta splits a 2 x 2 block's eigenvalue by ~sqrt(delta) (Moro, Burke &
    Overton, SIAM J. Matrix Anal. Appl. 18 (1997)).
    """
    if isinstance(periods, bool) or not isinstance(periods, numbers.Integral) or periods < 1:
        raise PreconditionError(f"periods must be a positive integer, got {periods!r}")
    if spec != orbit.spec:
        raise PreconditionError("the orbit belongs to another system")
    n = spec.dimension
    if spec.metric.kind == "finsler" and orbit.rest_points:
        raise UnsupportedModelError(
            "monodromy across rest points requires a Riemannian kinetic model"
        )
    z0 = orbit.trajectory.states[0]
    if orbit.kind == "brake" and np.any(z0[n:]):
        raise PreconditionError("a brake orbit starts at rest")
    dim = 2 * n
    half = orbit.kind == "brake" and periods == 1
    res = rk.solve_rk45(
        lambda t, z, w: state_rhs_jvp(spec, z, w),
        (0.0, orbit.period / 2 if half else periods * orbit.period),
        z0, dense=False, w0=np.eye(dim), control_tangent=True,
    )
    matrix = res.w_final
    if half:
        reversor = np.diag(np.repeat([1.0, -1.0], n))
        matrix = reversor @ np.linalg.solve(matrix, reversor @ matrix)
    eigenvalues = np.linalg.eigvals(matrix)
    det_error = abs(float(np.linalg.det(matrix)) - 1.0)
    sigma = np.linalg.svd(np.linalg.matrix_power(matrix - np.eye(dim), 2), compute_uv=False)
    trivial = int(np.sum(sigma < _TOL_NULL * (1.0 + np.linalg.norm(matrix, 2)) ** 2))
    flow = np.asarray(state_rhs(spec, 0.0, z0.tolist()))
    return MonodromyReport(
        matrix=matrix,
        eigenvalues=eigenvalues,
        trivial_multiplicity=trivial,
        nondegenerate=trivial == 2,
        det_error=det_error,
        tol_eig=_TOL_EIG,
        flow_defect=float(np.linalg.norm(matrix @ flow - flow) / np.linalg.norm(flow)),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def orbit_report_dict(orbit: PeriodicOrbit, mono: MonodromyReport | None = None) -> dict:
    out = {
        "kind": orbit.kind,
        "period": orbit.period,
        "energy": orbit.energy,
        "closure_residual": orbit.closure_residual,
        "minimal_period": orbit.minimal_period_flag,
        "rest_points": [
            {"t": float(t), "x": [float(c) for c in x]} for t, x in orbit.rest_points
        ],
    }
    if mono is not None:
        out["eigenvalues"] = [
            [float(ev.real), float(ev.imag)] for ev in mono.eigenvalues
        ]
        out["trivial_multiplicity"] = mono.trivial_multiplicity
        out["nondegenerate"] = mono.nondegenerate
        out["det_error"] = mono.det_error
        out["flow_defect"] = mono.flow_defect
    return out
