"""Periodic orbits at fixed energy: shooting, monodromy, classification.

Brake orbits are found by a Newton iteration on a rest point constrained to
the boundary {U = E} plus the half-period; reversibility closes the orbit.
Rotations are found by first-return shooting off a section hyperplane with
the seed velocity re-scaled onto the energy level.  Shooting Jacobians come
from a tangent matrix carried through the integrator's stages and accepted
steps (:func:`~orbitlab.dynamics.integrate_sensitivity`), so Newton sees the
exact derivative of the discrete flow.

Monodromy integrates the variational equations M' = J(z) M alongside the
orbit as one augmented system, so step-size control watches M as well as the
orbit; J(z) M comes from one dual evaluation of the equations of motion per
stage (:func:`~orbitlab.dynamics.state_rhs_jvp`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .dynamics import (
    PhaseState,
    SystemSpec,
    Trajectory,
    integrate,
    integrate_sensitivity,
    kinetic_minimum_event,
    lagrange_rhs,
    state_rhs,
    state_rhs_jvp,
    total_energy,
)
from .errors import OrbitLabError
from .expr import Dual, val_of
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

_T_MAX = 100.0  # search horizon for the first turning point or section return
_RTOL, _ATOL = 1e-12, 1e-14  # the returned orbit
_NEWTON_RTOL, _NEWTON_ATOL = 1e-10, 1e-12  # Newton's runs: looser than the returned orbit
_BRAKE_MAX_NEWTON = 30
_ROTATION_MAX_NEWTON = 40
_TOL_EIG = 1e-6  # distance from 1 below which a multiplier counts as trivial


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

    def state(self, t: float) -> np.ndarray:
        return self.trajectory.state(t)


@dataclass
class MonodromyReport:
    matrix: np.ndarray
    eigenvalues: np.ndarray
    trivial_multiplicity: int
    nondegenerate: bool
    det_error: float
    tol_eig: float


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _closure_residual(spec: SystemSpec, z1, z0) -> float:
    n = spec.dimension
    dx = spec.metric.space.delta(z1[:n], z0[:n])
    dv = np.asarray(z1[n:]) - np.asarray(z0[n:])
    return float(np.sqrt(np.dot(dx, dx) + np.dot(dv, dv)))


def _complement_basis(direction: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to ``direction``.

    Columns span the complement; deterministic via SVD.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    _, _, vt = np.linalg.svd(d.reshape(1, -1))
    return vt[1:].T


def _project_to_level(spec: SystemSpec, x, max_iter=50):
    """Newton projection of x onto {U = E} along grad U."""
    x = np.asarray(x, dtype=float).copy()
    target = spec.energy
    for _ in range(max_iter):
        u = val_of(spec.potential.value(list(x)))
        if abs(u - target) <= 1e-13 * (1.0 + abs(target)):
            return x
        grad = np.array([val_of(c) for c in spec.potential.gradient(list(x))])
        g2 = float(np.dot(grad, grad))
        if g2 < 1e-12:
            raise PreconditionError(
                "grad U vanishes while projecting the seed onto {U = E}"
            )
        x = x - (u - target) / g2 * grad
    raise ConvergenceError("projection onto {U = E} did not converge")


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
    seed = np.asarray(seed, dtype=float)
    seed_tol = 0.5 * (1.0 + abs(e_level))
    v_tol = 1e-10 * (1.0 + math.sqrt(2.0 * abs(e_level)))

    u_seed = val_of(spec.potential.value(list(seed)))
    if abs(u_seed - e_level) > seed_tol:
        raise PreconditionError(
            f"seed potential U = {u_seed:.6g} too far from E = {e_level:.6g}"
        )
    grad = np.array([val_of(c) for c in spec.potential.gradient(list(seed))])
    if np.linalg.norm(grad) <= 1e-6:
        raise PreconditionError(
            "E is not regular for U near the seed (grad U below 1e-6)"
        )

    p = _project_to_level(spec, seed)

    # first turning time from a terminal kinetic-energy-minimum event
    probe = integrate(
        spec,
        PhaseState(p, np.zeros(n)),
        (0.0, _T_MAX),
        rtol=1e-9,
        atol=1e-11,
        events=(kinetic_minimum_event(spec, terminal=True),),
        dense=False,
    )
    if not probe.events:
        raise ConvergenceError(f"no turning event within t = {_T_MAX}")
    t_half = probe.events[0].t
    t_half_init = t_half

    def velocity_norm_at(p_try: np.ndarray, t_try: float) -> float:
        traj = integrate(
            spec,
            PhaseState(p_try, np.zeros(n)),
            (0.0, t_try),
            rtol=_NEWTON_RTOL,
            atol=_NEWTON_ATOL,
            dense=False,
        )
        return float(np.max(np.abs(traj.states[-1][n:])))

    res_norm = None
    for _ in range(_BRAKE_MAX_NEWTON):
        grad_p = np.array([val_of(c) for c in spec.potential.gradient(list(p))])
        basis = _complement_basis(grad_p)  # n x (n-1)
        # unknowns move the rest point along the boundary chart
        w0 = np.vstack([basis, np.zeros((n, n - 1))])
        zf, wf = integrate_sensitivity(
            spec, np.concatenate([p, np.zeros(n)]), w0, t_half,
            rtol=_NEWTON_RTOL, atol=_NEWTON_ATOL,
        )
        residual = zf[n:]
        res_norm = float(np.max(np.abs(residual)))
        if res_norm <= v_tol:
            break
        jac = np.zeros((n, n))
        jac[:, : n - 1] = wf[n:]
        jac[:, n - 1] = lagrange_rhs(spec, zf[:n].tolist(), zf[n:].tolist())
        try:
            step = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError as exc:
            raise ShootingSingularError(
                "shooting Jacobian is singular; the orbit may belong to a "
                "degenerate family"
            ) from exc
        alpha = 1.0
        while True:
            p_try = _project_to_level(spec, p + basis @ (alpha * step[: n - 1]))
            t_try = t_half + alpha * step[n - 1]
            if 0.2 * t_half_init <= t_try <= 5.0 * t_half_init:
                trial = velocity_norm_at(p_try, t_try)
                if trial < res_norm or trial <= v_tol:
                    p, t_half = p_try, t_try
                    break
            alpha *= 0.5
            if alpha < 2.0**-14:
                raise ConvergenceError(
                    f"brake-orbit Newton stalled at residual {res_norm:.3e}"
                )
    else:
        raise ConvergenceError(
            f"brake-orbit Newton did not converge (residual {res_norm:.3e})"
        )

    period = 2.0 * t_half
    traj = integrate(
        spec,
        PhaseState(p, np.zeros(n)),
        (0.0, period),
        rtol=_RTOL,
        atol=_ATOL,
        events=(kinetic_minimum_event(spec),),
        dense=True,
    )
    z0, z1 = traj.states[0], traj.states[-1]
    closure = _closure_residual(spec, z1, z0)
    scale = 1.0 + float(np.linalg.norm(z0))
    if closure >= 1e-8 * scale:
        raise ConvergenceError(
            f"brake orbit failed the closure bound ({closure:.3e})"
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
    """First near-return time on a uniform dense grid, or None."""
    n = spec.dimension
    ts = np.linspace(traj.t0, traj.t1, 4096)
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
    magnitude is slaved to the energy level), and the return time.  Closure
    is solved in the least-squares sense; energy conservation makes one of
    the 2n closure equations redundant.
    """
    n = spec.dimension
    x_anchor = np.asarray(seed.x, dtype=float).copy()
    v_anchor = np.asarray(seed.v, dtype=float).copy()
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
        else np.asarray(section_normal, dtype=float)
    )
    normal = normal / np.linalg.norm(normal)
    if abs(float(np.dot(normal, v_anchor))) <= 1e-6 * speed:
        raise TransversalityError("seed velocity is tangent to the section")

    scale = 1.0 + float(np.linalg.norm(np.concatenate([x_anchor, v_anchor])))
    res_tol = 1e-10 * scale

    z0 = np.concatenate([x_anchor, v_anchor])
    probe = integrate(
        spec, PhaseState(x_anchor, v_anchor), (0.0, _T_MAX), rtol=1e-9, atol=1e-11
    )
    t_ret = _rotation_seed_scan(spec, probe, z0, t_guard=20 * _T_MAX / 4096, threshold=0.25 * scale)
    if t_ret is None:
        raise ConvergenceError(f"no section return within t = {_T_MAX}")

    # fixed winding offset for the cover chart
    space = spec.metric.space
    x_ret = probe.position(t_ret)
    if space.kind == "torus":
        winding = np.asarray(space.periods) * np.round(
            (x_ret - x_anchor) / np.asarray(space.periods)
        )
    else:
        winding = np.zeros(n)

    section_basis = _complement_basis(normal)  # n x (n-1)
    vdir_anchor = v_anchor / speed
    vdir_basis = _complement_basis(vdir_anchor)  # n x (n-1)
    t_period = t_ret
    m = 2 * (n - 1)

    def build_initial(a_b_duals):
        """Seed state (x0, v0) on section x energy level, generic scalars."""
        a = a_b_duals[: n - 1]
        b = a_b_duals[n - 1 :]
        x0 = [
            x_anchor[i] + geo.dot(list(section_basis[i]), a) for i in range(n)
        ]
        d = [
            vdir_anchor[i] + geo.dot(list(vdir_basis[i]), b) for i in range(n)
        ]
        norm2 = geo.dot(d, d)
        dn = [c / norm2**0.5 for c in d]
        u_val = spec.potential.value(x0)
        f2 = geo.f_squared(spec.metric, x0, dn)
        c = (2.0 * (e_level - u_val) / f2) ** 0.5
        v0 = [c * dc for dc in dn]
        return x0, v0

    res_norm = None
    for _ in range(_ROTATION_MAX_NEWTON):
        # (z0, W0) = initial state and its derivative in the m unknowns
        x0_d, v0_d = build_initial([Dual.seed(0.0, m, i, 1, 0) for i in range(m)])
        z0 = np.array([val_of(c) for c in x0_d + v0_d])
        w0 = np.array([[val_of(g) for g in c.grad] for c in x0_d + v0_d])
        zf, wf = integrate_sensitivity(
            spec, z0, w0, t_period, rtol=_NEWTON_RTOL, atol=_NEWTON_ATOL
        )
        residual = zf - z0
        residual[:n] -= winding
        res_norm = float(np.max(np.abs(residual)))
        if res_norm <= res_tol:
            break
        jac = np.zeros((2 * n, m + 1))
        jac[:, :m] = wf - w0
        jac[:, m] = state_rhs(spec, 0.0, zf.tolist())
        step, *_ = np.linalg.lstsq(jac, -residual, rcond=None)

        def trial_norm(u_step, alpha):
            x0_t, v0_t = map(np.asarray, build_initial(list(alpha * u_step[:m])))
            t_t = t_period + alpha * u_step[m]
            traj_t = integrate(
                spec,
                PhaseState(x0_t, v0_t),
                (0.0, t_t),
                rtol=_NEWTON_RTOL,
                atol=_NEWTON_ATOL,
                dense=False,
            )
            zt = traj_t.states[-1]
            r = np.concatenate([zt[:n] - x0_t - winding, zt[n:] - v0_t])
            return float(np.max(np.abs(r))), x0_t, v0_t, t_t

        alpha = 1.0
        while True:
            if 0.2 * t_ret <= t_period + alpha * step[m] <= 5.0 * t_ret:
                trial, x0_t, v0_t, t_t = trial_norm(step, alpha)
                if trial < res_norm or trial <= res_tol:
                    x_anchor = x0_t
                    vdir_anchor = v0_t / np.linalg.norm(v0_t)
                    section_basis = _complement_basis(normal)
                    vdir_basis = _complement_basis(vdir_anchor)
                    t_period = t_t
                    break
            alpha *= 0.5
            if alpha < 2.0**-14:
                raise ConvergenceError(
                    f"rotation Newton stalled at residual {res_norm:.3e}"
                )
    else:
        raise ConvergenceError(
            f"rotation Newton did not converge (residual {res_norm:.3e})"
        )

    x0f, v0f = map(np.asarray, build_initial([0.0] * m))
    return _build_rotation(spec, x0f, v0f, t_period)


def _build_rotation(spec, x0, v0, period, _depth=0) -> PeriodicOrbit:
    n = spec.dimension
    traj = integrate(spec, PhaseState(x0, v0), (0.0, period), rtol=_RTOL, atol=_ATOL)
    z0 = traj.states[0]
    closure = _closure_residual(spec, traj.states[-1], z0)
    scale = 1.0 + float(np.linalg.norm(z0))
    if closure >= 1e-8 * scale:
        raise ConvergenceError(f"rotation failed the closure bound ({closure:.3e})")

    # minimality probe: an earlier closure at period/m wins
    if _depth < 4:
        for mdiv in range(2, 7):
            z_frac = traj.state(period / mdiv)
            if _closure_residual(spec, z_frac, z0) < 1e-7 * scale:
                return _build_rotation(spec, x0, v0, period / mdiv, _depth + 1)

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

    The orbit and M, with M' = J(z) M and M(0) = I, form one augmented system
    of 2n + 4n^2 components, run at the integrator's default tolerances.  Its
    error norm covers M: a ridge rotation of the cosine torus is a straight
    line, and error control on the orbit alone takes so few steps there that
    det M drifts from 1.
    """
    n = spec.dimension
    if spec.metric.kind == "finsler" and orbit.rest_points:
        raise UnsupportedModelError(
            "monodromy across rest points requires a Riemannian kinetic model"
        )
    dim = 2 * n

    def f(t, y):
        dz, dm = state_rhs_jvp(spec, y[:dim], np.reshape(y[dim:], (dim, dim)))
        return dz + dm.ravel().tolist()

    y0 = np.concatenate([orbit.trajectory.states[0], np.eye(dim).ravel()])
    res = rk.solve_rk45(f, (0.0, periods * orbit.period), y0, dense=False)
    matrix = np.reshape(res.ys[-1, dim:], (dim, dim))
    eigenvalues = np.linalg.eigvals(matrix)
    det_error = abs(float(np.linalg.det(matrix)) - 1.0)
    trivial = int(np.sum(np.abs(eigenvalues - 1.0) < _TOL_EIG))
    return MonodromyReport(
        matrix=matrix,
        eigenvalues=eigenvalues,
        trivial_multiplicity=trivial,
        nondegenerate=trivial == 2,
        det_error=det_error,
        tol_eig=_TOL_EIG,
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
    return out
