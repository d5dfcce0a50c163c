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
    evaluable over floats or dual scalars.

    U and grad U run as straight-line code built on first use from the node
    the field holds at that time (:class:`~orbitlab.expr.Graph`).
    """

    def __init__(self, node: ex.ExprNode, dimension: int):
        bad = [k for k in ex.variables_of(node) if k >= dimension]
        if bad:
            raise geo.ModelValidityError(
                "potential may depend on position variables only"
            )
        self.node = node
        self.dimension = dimension
        self._built = None  # (node, code, trees)

    def __getstate__(self):
        return {**self.__dict__, "_built": None}  # generated code is rebuilt on use

    def _run(self, name, x):
        built = self._built
        if built is None or built[0] is not self.node:
            graph = ex.Graph(self.dimension)
            u = graph.tree(self.node)
            grad = [graph.diff(u, i) for i in range(self.dimension)]
            code = graph.build(
                [("value", self.dimension, u, ()), ("gradient", self.dimension, grad, (u,))]
            )
            built = self._built = (self.node, code, graph.trees)
        return ex.run(built[1], name, *ex.scalars(x), built[2])

    def value(self, x):
        return self._run("value", x)

    def gradient(self, x):
        """Exact gradient; over dual ``x`` its entries carry the Hessian
        applied to their seeds."""
        return self._run("gradient", x)


class _Flow:
    """Straight-line code of one (metric, potential) pair.

    ``parts(z)`` returns (g, c): the nodes of
    :func:`~orbitlab.geometry.metric_nodes` with grad U added to c, so the
    acceleration is -g^{-1} c and a constant metric folds to c = grad U.
    ``energy(z)`` is F^2 / 2 + U.  The metric and the potential are one
    build, so their common subexpressions are computed once.
    """

    def __init__(self, metric: MetricModel, potential: PotentialField):
        self.metric, self.potential, self.node = metric, potential, potential.node
        n = metric.dimension
        graph = ex.Graph(n)
        f2, g, c = geo.metric_nodes(graph, metric)
        u = graph.tree(potential.node)
        c = [graph.add(c[l], graph.diff(u, l)) for l in range(n)]
        energy = graph.add(graph.mul(graph.const(0.5), f2), u)
        self.code = graph.build(
            [("parts", 2 * n, [g, c], (f2, u)), ("energy", 2 * n, energy, ())]
        )
        self.trees = graph.trees
        self.finsler = metric.kind == "finsler"
        self.check_definite = metric.kind == "riemannian" and metric._const_g is None


@dataclass
class SystemSpec:
    """Kinetic metric + potential + fixed energy level.

    The flow's straight-line code is built on first use and rebuilt when
    ``metric`` or ``potential`` is replaced.
    """

    metric: MetricModel
    potential: PotentialField
    energy: float
    _flow: _Flow | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.potential, (ex.Const, ex.Var, ex.Unary, ex.Binary)):
            self.potential = PotentialField(self.potential, self.metric.dimension)
        if not np.isfinite(self.energy):
            raise geo.ModelValidityError("energy level must be finite")

    @property
    def dimension(self) -> int:
        return self.metric.dimension

    def __getstate__(self):
        return {**self.__dict__, "_flow": None}  # generated code is rebuilt on use


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

def _built_flow(spec: SystemSpec) -> _Flow:
    """The system's straight-line code, built for its current (metric,
    potential) pair."""
    flow = spec._flow
    if (
        flow is None
        or flow.metric is not spec.metric
        or flow.potential is not spec.potential
        or flow.node is not spec.potential.node
    ):
        flow = spec._flow = _Flow(spec.metric, spec.potential)
    return flow


def _acceleration(spec: SystemSpec, z, dual: bool):
    """-g^{-1} c from the flow's straight-line code over the scalars z: one
    solve.

    For a Finsler kinetic model the spray extends continuously by zero to
    v = 0 (degree-2 homogeneity); the metric there is taken in the direction
    of steepest descent w = -grad U, which is the direction the flow leaves
    a rest point along, so the acceleration is -g(x, w)^{-1} grad U.
    """
    flow = _built_flow(spec)
    n = spec.dimension
    if flow.finsler and not any(map(val_of, z[n:])):
        grad_u = spec.potential.gradient(z[:n])
        if not any(map(val_of, grad_u)):
            raise geo.ModelValidityError(
                "Finsler flow undefined at a rest point with vanishing grad U"
            )
        g = ex.run(flow.code, "parts", z[:n] + [-c for c in grad_u], dual, flow.trees)[0]
        return [-a for a in solve_linear(g, grad_u)]
    g, c = ex.run(flow.code, "parts", z, dual, flow.trees)
    if flow.check_definite:
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
    flow = _built_flow(spec)
    return ex.run(flow.code, "energy", *ex.scalars(list(x) + list(v)), flow.trees)


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
