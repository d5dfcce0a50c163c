"""Equations of motion and trajectory integration.

A :class:`SystemSpec` couples a kinetic metric model with a potential and an
energy level.  The flow lives on the velocity chart (x, v); its derivatives
come from one dual evaluation of the right-hand side (:func:`state_rhs_jvp`).
The integrator records energy drift along every trajectory but never
corrects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import rk
from .expr import Dual, val_of
from .geometry import MetricModel, solve_linear
from .rk import EventSpec

__all__ = [
    "PotentialField",
    "SystemSpec",
    "PhaseState",
    "Trajectory",
    "lagrange_rhs",
    "total_energy",
    "integrate",
    "state_rhs",
    "state_rhs_jvp",
    "rhs_jacobian",
    "integrate_sensitivity",
    "kinetic_minimum_event",
]


class PotentialField:
    """Potential U(x) given by an expression over the position variables,
    evaluable over floats or dual scalars."""

    def __init__(self, node: ex.ExprNode, dimension: int):
        bad = [k for k in ex.variables_of(node) if k >= dimension]
        if bad:
            raise geo.ModelValidityError(
                "potential may depend on position variables only"
            )
        self.node = node
        self.dimension = dimension

    def value(self, x):
        return ex.evaluate(self.node, list(x) + [0.0] * self.dimension)

    def gradient(self, x):
        """Exact gradient from one dual evaluation seeded in the position
        directions, nested over any duals in ``x``."""
        n = self.dimension
        point = list(x) + [0.0] * n
        return list(ex.eval_dual(self.node, point, range(n), 1, geo._inner_tag(x)).grad)


@dataclass
class SystemSpec:
    """Kinetic metric + potential + fixed energy level."""

    metric: MetricModel
    potential: PotentialField
    energy: float

    def __post_init__(self):
        if isinstance(self.potential, (ex.Const, ex.Var, ex.Unary, ex.Binary)):
            self.potential = PotentialField(self.potential, self.metric.dimension)
        if not np.isfinite(self.energy):
            raise geo.ModelValidityError("energy level must be finite")

    @property
    def dimension(self) -> int:
        return self.metric.dimension


@dataclass
class PhaseState:
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)

    def flat(self) -> list[float]:
        return list(self.x) + list(self.v)

    @staticmethod
    def from_flat(z) -> "PhaseState":
        z = np.asarray(z, dtype=float)
        n = z.size // 2
        return PhaseState(z[:n], z[n:])


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

def lagrange_rhs(spec: SystemSpec, x, v):
    """Acceleration of the Lagrangian flow: -2 G(x, v) - g^{-1}(x, v) grad U.

    For a Finsler kinetic model the spray extends continuously by zero to
    v = 0 (degree-2 homogeneity); the metric there is evaluated in the
    direction of steepest descent w = -grad U, which is the direction the
    flow leaves a rest point along.
    """
    model = spec.metric
    n = model.dimension
    grad_u = spec.potential.gradient(x)
    if model.kind == "finsler" and all(val_of(c) == 0.0 for c in v):
        w = [-c for c in grad_u]
        if all(val_of(c) == 0.0 for c in w):
            raise geo.ModelValidityError(
                "Finsler flow undefined at a rest point with vanishing grad U"
            )
        g = geo.metric_tensor(model, x, w, check=False)
        spray = [0.0] * n
    else:
        g, spray = geo.metric_and_spray(model, x, v)
    pull = solve_linear(g, grad_u)
    return [-2.0 * spray[i] - pull[i] for i in range(n)]


def state_rhs(spec: SystemSpec, t, z):
    """First-order form over z = (x, v)."""
    n = spec.dimension
    x, v = z[:n], z[n:]
    acc = lagrange_rhs(spec, x, v)
    return list(v) + acc


def state_rhs_jvp(spec: SystemSpec, z, w):
    """(f(z), J(z) W) for a 2n x m tangent W, from one dual evaluation.

    Component i of the float state z is seeded with row i of W, so the
    derivative parts of :func:`state_rhs` are the rows of J(z) W.  Every
    derivative of the flow (shooting, monodromy, the Jacobian) comes from here.
    """
    w = np.asarray(w, dtype=float)
    m = w.shape[1]
    seeds = [Dual(m, 1, 0, float(c), row) for c, row in zip(z, w.tolist())]
    out = state_rhs(spec, 0.0, seeds)
    zero = [0.0] * m
    jw = np.array([c.grad if isinstance(c, Dual) else zero for c in out], dtype=float)
    return [val_of(c) for c in out], jw


def rhs_jacobian(spec: SystemSpec, z):
    """2n x 2n Jacobian of the first-order flow at z."""
    return state_rhs_jvp(spec, z, np.eye(len(z)))[1]


def total_energy(spec: SystemSpec, x, v=None):
    """H(x, v) = F^2(x, v) / 2 + U(x)."""
    if v is None:
        x, v = x.x, x.v  # PhaseState
    f2 = geo.f_squared(spec.metric, list(x), list(v))
    return 0.5 * f2 + spec.potential.value(list(x))


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def kinetic_minimum_event(spec: SystemSpec, terminal: bool = False) -> EventSpec:
    """Event over (t, z) firing at minima of the kinetic energy along the flow.

    Energy conservation makes d(KE)/dt = -grad U . v, so KE minima are the
    downward crossings of g = grad U . v.
    """
    n = spec.dimension

    def g(t, z):
        grad_u = spec.potential.gradient(list(z[:n]))
        return float(np.dot(grad_u, z[n:]))

    return EventSpec(g, direction=-1, terminal=terminal, name="kinetic_minimum")


@dataclass
class Trajectory:
    """Time-sampled phase curve: ``states[k]`` is the state at ``ts[k]``.

    ``dense`` is the integrator's :class:`~orbitlab.rk.DenseOutput` over the
    same samples, or None for a run without dense output.  :meth:`state` and
    :meth:`state_derivative` evaluate it at a time or a 1-D array of times,
    hold the end states outside [t0, t1], and raise ``ValueError`` when there
    is no dense output.
    """

    spec: SystemSpec
    ts: np.ndarray
    states: np.ndarray  # (N, 2n)
    dense: rk.DenseOutput | None = None
    events: list = field(default_factory=list)
    energy_drift: float = 0.0
    energies: np.ndarray | None = None

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def state(self, t):
        """Dense state at ``t``; a 1-D array of times gives a (K, 2n) array."""
        if self.dense is None:
            raise ValueError("trajectory carries no dense output")
        return self.dense(t)

    def state_derivative(self, t):
        """Time derivative of the dense interpolant; vectorised like :meth:`state`."""
        if self.dense is None:
            raise ValueError("trajectory carries no dense output")
        return self.dense.derivative(t)

    def position(self, t):
        n = self.spec.dimension
        return self.state(t)[..., :n]

    def velocity(self, t):
        n = self.spec.dimension
        return self.state(t)[..., n:]


def integrate(
    spec: SystemSpec,
    initial: PhaseState,
    t_span,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    events=(),
    dense: bool = True,
) -> Trajectory:
    """Integrate the Lagrangian flow; the torus chart stays in the cover.

    ``events`` are :class:`~orbitlab.rk.EventSpec` over (t, z), z = (x, v).
    """
    n = spec.dimension

    def f(t, z):
        return state_rhs(spec, t, z)

    res = rk.solve_rk45(
        f,
        t_span,
        initial.flat(),
        rtol=rtol,
        atol=atol,
        events=tuple(events),
        dense=dense,
    )
    energies = np.array(
        [total_energy(spec, row[:n], row[n:]) for row in res.ys]
    )
    drift = float(np.max(np.abs(energies - energies[0])))
    return Trajectory(
        spec=spec,
        ts=res.ts,
        states=res.ys,
        dense=res.dense,
        events=res.events,
        energy_drift=drift,
        energies=energies,
    )


def integrate_sensitivity(spec: SystemSpec, z0, w0, t_end: float):
    """Flow z0 over (0, t_end) with a 2n x m tangent; returns (z, W) at t_end.

    W(t_end) = D phi(z0) W0, where phi is the discrete solution map along the
    accepted steps.  It runs at the integrator's default tolerances, and
    step-size control sees the state only, so the steps are those of the
    plain run and W is the exact derivative Newton needs.
    """

    def f(t, z, w):
        return state_rhs_jvp(spec, z, w)

    res = rk.solve_rk45(f, (0.0, t_end), z0, dense=False, w0=w0)
    return res.ys[-1], res.w_final
