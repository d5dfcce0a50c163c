"""Equations of motion and trajectory integration.

A :class:`SystemSpec` couples a kinetic metric model with a potential and an
energy level.  The flow lives on the velocity chart (x, v) and runs as the
system's straight-line code (:func:`orbitlab.geometry.metric_nodes` plus the
potential, compiled once per system); its derivatives come from one run of
that code over dual numbers (:func:`state_rhs_jvp`).  A domain failure in it
raises the interpreter's error naming the subexpression
(:func:`orbitlab.expr.run`); the interpreter never supplies a value of the
flow.  The integrator records energy drift along every trajectory but never
corrects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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


@dataclass(frozen=True)
class PotentialField:
    """Potential U(x) given by an expression over the position variables,
    evaluable over floats or dual scalars.

    U and grad U run as straight-line code built once, on first use
    (:class:`~orbitlab.expr.Graph`).
    """

    node: ex.ExprNode
    dimension: int

    def __post_init__(self):
        bad = [k for k in ex.variables_of(self.node) if k >= self.dimension]
        if bad:
            raise geo.ModelValidityError(
                "potential may depend on position variables only"
            )

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_code"}  # rebuilt on use

    @cached_property
    def _code(self):
        graph = ex.Graph(self.dimension)
        u = graph.tree(self.node)
        grad = [graph.diff(u, i) for i in range(self.dimension)]
        code = graph.build(
            [("value", self.dimension, u, ()), ("gradient", self.dimension, grad, (u,))]
        )
        return code, graph.trees

    def _run(self, name, x):
        code, trees = self._code
        return ex.run(code, name, *ex.scalars(x), trees)

    def value(self, x):
        return self._run("value", x)

    def gradient(self, x):
        """Exact gradient; over dual ``x`` its entries carry the Hessian
        applied to their seeds."""
        return self._run("gradient", x)


@dataclass(frozen=True)
class SystemSpec:
    """Kinetic metric + potential + fixed energy level.

    The flow runs as straight-line code built once, on first use.  Its
    ``parts(z)`` returns (g, c): the nodes of
    :func:`~orbitlab.geometry.metric_nodes` with grad U added to c, so the
    acceleration is -g^{-1} c and a constant metric folds to c = grad U.
    Its ``energy(z)`` is F^2 / 2 + U.  The metric and the potential are one
    build, so their common subexpressions are computed once.
    """

    metric: MetricModel
    potential: PotentialField
    energy: float

    def __post_init__(self):
        if isinstance(self.potential, (ex.Const, ex.Var, ex.Unary, ex.Binary)):
            object.__setattr__(
                self, "potential", PotentialField(self.potential, self.metric.dimension)
            )
        if self.potential.dimension != self.metric.dimension:
            raise geo.ModelValidityError(
                f"potential of dimension {self.potential.dimension} for a metric of "
                f"dimension {self.metric.dimension}"
            )
        if not np.isfinite(self.energy):
            raise geo.ModelValidityError("energy level must be finite")

    @property
    def dimension(self) -> int:
        return self.metric.dimension

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_code"}  # rebuilt on use

    @cached_property
    def _code(self):
        n = self.dimension
        graph = ex.Graph(n)
        f2, g, c = geo.metric_nodes(graph, self.metric)
        u = graph.tree(self.potential.node)
        c = [graph.add(c[l], graph.diff(u, l)) for l in range(n)]
        energy = graph.add(graph.mul(graph.const(0.5), f2), u)
        code = graph.build([("parts", 2 * n, [g, c], (f2, u)), ("energy", 2 * n, energy, ())])
        return code, graph.trees


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

def _acceleration(spec: SystemSpec, z, dual: bool):
    """-g^{-1} c from the flow's straight-line code over the scalars z: one
    solve.

    For a Finsler kinetic model the spray extends continuously by zero to
    v = 0 (degree-2 homogeneity); the metric there is taken in the direction
    of steepest descent w = -grad U, which is the direction the flow leaves
    a rest point along, so the acceleration is -g(x, w)^{-1} grad U.
    """
    code, trees = spec._code
    n = spec.dimension
    if spec.metric.kind == "finsler" and not any(map(val_of, z[n:])):
        grad_u = spec.potential.gradient(z[:n])
        if not any(map(val_of, grad_u)):
            raise geo.ModelValidityError(
                "Finsler flow undefined at a rest point with vanishing grad U"
            )
        g = ex.run(code, "parts", z[:n] + [-c for c in grad_u], dual, trees)[0]
        return [-a for a in solve_linear(g, grad_u)]
    g, c = ex.run(code, "parts", z, dual, trees)
    if spec.metric.varying:
        geo._require_positive_definite(geo._as_float_matrix(g), "fundamental tensor")
    return [-a for a in solve_linear(g, c)]


def lagrange_rhs(spec: SystemSpec, x, v):
    """Acceleration of the Lagrangian flow: -2 G(x, v) - g^{-1}(x, v) grad U.

    It runs as -g^{-1} c from the system's straight-line code (see
    :class:`SystemSpec`), over floats or duals.  At a Finsler rest point
    v = 0 the metric is evaluated in the direction of steepest descent.
    """
    return _acceleration(spec, *ex.scalars(list(x) + list(v)))


def state_rhs(spec: SystemSpec, t, z):
    """First-order form over z = (x, v)."""
    z, dual = ex.scalars(z)
    return z[spec.dimension:] + _acceleration(spec, z, dual)


def state_rhs_jvp(spec: SystemSpec, z, w):
    """(f(z), J(z) W) for a 2n x m tangent W.

    Component i of the float state z is seeded with row i of W and the
    flow's straight-line code runs over these order-1 duals, so the
    derivative parts of the result are the rows of J(z) W and its values
    are :func:`state_rhs` bit for bit.  Every derivative of the flow
    (shooting, monodromy, the Jacobian) comes from here.
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
    code, trees = spec._code
    return ex.run(code, "energy", *ex.scalars(list(x) + list(v)), trees)


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
