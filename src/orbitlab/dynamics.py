"""Equations of motion and trajectory integration.

A :class:`SystemSpec` couples a kinetic metric model with a potential and an
energy level.  The flow lives on the velocity chart (x, v) and runs as the
system's straight-line code over floats (:func:`orbitlab.geometry.metric_nodes`
plus the potential and their derivatives in every state variable, compiled
once per system), which solves g a = -c by elimination for every metric
(:meth:`orbitlab.expr.Graph.negated_solve`).  Its tangent J W is one generated
function of (z, W) per column count m: :func:`tangent_rhs` on flat lists of
floats, :func:`state_rhs_jvp` over arrays.  Each call checks a g that varies
with the state; a constant g is checked once, when its code is built.  A
domain failure in the code raises the interpreter's error naming the
subexpression (:meth:`orbitlab.expr.Compiled.run`); the interpreter never
supplies a value of the flow.  The integrator records energy drift along
every trajectory but never corrects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import rk
from .geometry import MetricModel
from .rk import EventSpec

__all__ = [
    "PotentialField",
    "SystemSpec",
    "PhaseState",
    "Trajectory",
    "lagrange_rhs",
    "total_energy",
    "energy_gradient",
    "integrate",
    "state_rhs",
    "state_rhs_jvp",
    "tangent_rhs",
    "rhs_jacobian",
    "integrate_sensitivity",
    "kinetic_minimum_event",
]


@dataclass(frozen=True)
class PotentialField(ex.Compiled):
    """Potential U(x) given by an expression over the position variables.

    U and grad U run as straight-line code over floats, built once, on
    first use (:class:`~orbitlab.expr.Compiled`).
    """

    node: ex.ExprNode
    dimension: int

    def __post_init__(self):
        bad = [k for k in ex.variables_of(self.node) if k >= self.dimension]
        if bad:
            raise geo.ModelValidityError(
                "potential may depend on position variables only"
            )

    def _functions(self, graph):
        n = self.dimension
        u = graph.tree(self.node)
        return [("value", n, u, ()), ("gradient", n, [graph.diff(u, i) for i in range(n)], (u,))]

    def value(self, x):
        return self.run("value", list(map(float, x)))

    def gradient(self, x):
        return self.run("gradient", list(map(float, x)))


@dataclass(frozen=True)
class SystemSpec(ex.Compiled):
    """Kinetic metric + potential + fixed energy level.

    The flow is straight-line code built once, on first use, from the nodes
    (g, c) of :func:`~orbitlab.geometry.metric_nodes`, grad U added to c, and
    U: ``parts(z)`` = (f, checks), f = [v; a] with a = -g^{-1} c, checks =
    (g, pivots) or none for a constant g, checked at build.  Per tangent
    width m (:meth:`~orbitlab.expr.Compiled.tangent_function`), ``jvp(z, w)``
    = (f, J W, checks), W and J W flat, row by row: J W = [W_v; DA W] with
    DA = -g^{-1} (dc + dg a) (derivatives in z) solved with the same factors.
    A Finsler model adds ``rest(z)`` = (a, checks) and ``rest_jvp(z, w)``,
    z carrying -grad U for v = 0: a = -g^{-1} grad U, DA = -g^{-1} (H_U +
    dg_x a - (dg_v a) H_U) in x and 0 in v, H_U the Hessian of U.
    ``energy(z)`` is H = F^2 / 2 + U and ``energy_gradient(z)`` grad_z H.
    """

    metric: MetricModel
    potential: PotentialField
    energy: float

    def __post_init__(self):
        if isinstance(self.potential, (ex.Const, ex.Var, ex.Unary, ex.Binary)):
            object.__setattr__(self, "potential", PotentialField(self.potential, self.dimension))
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

    def _functions(self, graph):
        n, zs, rest = self.dimension, range(2 * self.dimension), self.metric.kind == "finsler"
        f2, g, c = geo.metric_nodes(graph, self.metric)
        u = graph.tree(self.potential.node)
        c = [graph.add(c[l], graph.diff(u, l)) for l in range(n)]
        grad_u, guards = [graph.diff(u, l) for l in range(n)], (f2, u)
        (a, a_rest), pivots = graph.negated_solve(g, [c, grad_u])  # -g^{-1} b for b = c, grad U
        f, checks = [graph.var(n + i) for i in range(n)] + a, [g, pivots]
        if all(graph.value(e) is not None for row in g for e in row):  # checked once, here
            _check(self, [list(map(graph.value, row)) for row in g])
            checks = []
        if not graph.width:
            energy = graph.add(graph.mul(graph.const(0.5), f2), u)
            functions = [("parts", 2 * n, [f, checks], guards), ("energy", 2 * n, energy, ()),
                         ("energy_gradient", 2 * n, [graph.diff(energy, k) for k in zs], guards)]
            return functions + [("rest", 2 * n, [a_rest, checks], guards)] if rest else functions

        w, dg = graph.tangent(), [[[graph.diff(e, k) for e in row] for k in zs] for row in g]
        def jw(columns):  # [W_v; DA W] flat, row by row, for DA = -g^{-1} B by columns
            da = list(zip(*graph.negated_solve(g, columns)[0]))
            return [e for row in w[n:] for e in row] + [
                graph.dot(row, column) for row in da for column in zip(*w)]
        def dg_dot(a):  # (dg a)_lk = sum_j d g_lj / d z_k a_j
            return [[graph.dot(column, a) for column in row] for row in dg]
        b = dg_dot(a)
        jvp = jw([[graph.add(graph.diff(c[l], k), b[l][k]) for l in range(n)] for k in zs])
        if not rest:
            return [("jvp", 2 * n, [f, jvp, checks], guards)]
        b, h = dg_dot(a_rest), [[graph.diff(e, k) for k in range(n)] for e in grad_u]
        jvp_rest = jw([[graph.sub(graph.add(h[l][k], b[l][k]),
                                  graph.dot(b[l][n:], [row[k] for row in h])) for l in range(n)]
                       for k in range(n)] + [[graph.zero] * n] * n)
        return [("jvp", 2 * n, [f, jvp, checks], guards),
                ("rest_jvp", 2 * n, [a_rest, jvp_rest, checks], guards)]


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
        if z.ndim != 1 or z.size % 2:
            raise ValueError(f"a state (x, v) needs an even number of entries, got shape {z.shape}")
        n = z.size // 2
        return PhaseState(z[:n], z[n:])


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

def _check(spec: SystemSpec, g, pivots=None):
    """Raise unless the flow may solve with g: a varying Riemannian g must pass
    :func:`~orbitlab.geometry.require_positive_definite`; each pivot (by
    default, of g's elimination folded over its floats) must exceed 1e-14 max
    |g_ij| (else ``SingularMatrixError``, as in geometry) and be positive."""
    if spec.metric.varying:
        geo.require_positive_definite(g, "fundamental tensor")
    if pivots is None:
        graph = ex.Graph(len(g))
        pivots = map(graph.value, graph.negated_solve([[*map(graph.const, r)] for r in g], [])[1])
    floor = 1e-14 * max(abs(e) for row in g for e in row)
    for p in pivots:
        if abs(p) <= floor:
            raise geo.SingularMatrixError("fundamental tensor is singular to working precision")
        if p < 0.0:
            raise geo.ModelValidityError(
                f"fundamental tensor is not positive definite (pivot {p:.3e})")


def _rest_state(spec: SystemSpec, z: list):
    """None, or at a Finsler rest point v = 0 the state (x, -grad U) for the
    ``rest`` functions: the spray extends by zero to v = 0 (degree-2
    homogeneity), and g is taken along -grad U, where the flow leaves."""
    n = spec.dimension
    if spec.metric.kind != "finsler" or any(z[n:]):
        return None
    grad_u = spec.potential.gradient(z[:n])
    if not any(grad_u):
        raise geo.ModelValidityError("Finsler flow undefined at a rest point with vanishing grad U")
    return z[:n] + [-c for c in grad_u]


def lagrange_rhs(spec: SystemSpec, x, v):
    """Acceleration -2 G(x, v) - g^{-1}(x, v) grad U: :func:`state_rhs`'s v'."""
    return state_rhs(spec, 0.0, [*x, *v])[spec.dimension:]


def state_rhs(spec: SystemSpec, t, z):
    """First-order form over z = (x, v).  A g unfit to solve with raises
    ``SingularMatrixError`` or ``ModelValidityError``."""
    z = list(map(float, z))
    at = _rest_state(spec, z)
    try:
        if at is None:
            f, checks = spec.run("parts", z)
        else:
            a, checks = spec.run("rest", at)
            f = z[spec.dimension:] + a
    except ZeroDivisionError:  # a zero pivot is divided by before the checks see it
        _check(spec, spec.metric.run("tensor", at or z))
        raise
    if checks:
        _check(spec, *checks)
    return f


def _tangent(spec: SystemSpec, w) -> np.ndarray:
    """W as a float array, checked to be 2n x m with m >= 1."""
    w, rows = np.asarray(w, dtype=float), 2 * spec.dimension
    if w.ndim != 2 or w.shape[0] != rows or w.shape[1] == 0:
        raise ValueError(
            f"tangent has shape {w.shape}; a system of dimension {spec.dimension} needs "
            f"{rows} x m with m >= 1"
        )
    return w


def tangent_rhs(spec: SystemSpec, m: int):
    """f(t, z, w) = (f(z), J(z) W) for a 2n x m tangent W, the right-hand
    side of a tangent run of :func:`orbitlab.rk.solve_rk45`: w and J W are
    flat, row by row, lists of 2n m floats.  f(z) is :func:`state_rhs`'s bit
    for bit.  Every derivative of the flow (shooting, monodromy, the
    Jacobian) comes from here: the system's ``jvp``, or at a Finsler rest
    point ``rest_jvp``, built once per m (:class:`SystemSpec`), with g
    checked as :func:`state_rhs` checks it."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"a tangent needs a positive whole number of columns, got {m!r}")
    n, jvp = spec.dimension, spec.tangent_function("jvp", m)
    rest_jvp = spec.tangent_function("rest_jvp", m) if spec.metric.kind == "finsler" else None

    def f(t, z, w):
        at = _rest_state(spec, z) if rest_jvp else None
        try:
            if at is None:
                fz, jw, checks = jvp(z, w)
            else:
                a, jw, checks = rest_jvp(at, w)
                fz = z[n:] + a
        except ZeroDivisionError:  # as in state_rhs
            _check(spec, spec.metric.run("tensor", at or z))
            raise
        if checks:
            _check(spec, *checks)
        return fz, jw

    return f


def state_rhs_jvp(spec: SystemSpec, z, w):
    """(f(z), J(z) W) for a 2n x m tangent array W: :func:`tangent_rhs`
    over arrays.  A state or tangent of the wrong shape raises ``ValueError``."""
    z, w = _state(spec, z), _tangent(spec, w)
    f, jw = tangent_rhs(spec, w.shape[1])(0.0, z, w.ravel().tolist())
    return f, np.reshape(jw, w.shape)


def rhs_jacobian(spec: SystemSpec, z):
    """2n x 2n Jacobian of the first-order flow at z."""
    return state_rhs_jvp(spec, z, np.eye(len(z)))[1]


def total_energy(spec: SystemSpec, x, v):
    """H(x, v) = F^2(x, v) / 2 + U(x)."""
    return spec.run("energy", [*map(float, x), *map(float, v)])


def energy_gradient(spec: SystemSpec, z) -> list[float]:
    """Gradient of H = F^2 / 2 + U in the 2n state variables z = (x, v)."""
    return spec.run("energy_gradient", _state(spec, z))


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

    return EventSpec(g, direction=-1, terminal=terminal)


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


def _state(spec: SystemSpec, z) -> list[float]:
    """z as floats, checked to hold the 2n entries of a state."""
    z, n = list(map(float, z)), spec.dimension
    if len(z) != 2 * n:
        raise ValueError(f"state has {len(z)} entries; a system of dimension {n} needs {2 * n}")
    return z


def integrate(spec: SystemSpec, initial: PhaseState, t_span, rtol: float = 1e-10,
              atol: float = 1e-12, events=(), dense: bool = True) -> Trajectory:
    """Integrate the Lagrangian flow; the torus chart stays in the cover.

    ``events`` are :class:`~orbitlab.rk.EventSpec` over (t, z), z = (x, v).
    """
    n = spec.dimension
    z0 = _state(spec, initial.flat())
    if initial.x.size != initial.v.size:
        raise ValueError(f"state has {initial.x.size} positions and {initial.v.size} velocities")

    res = rk.solve_rk45(lambda t, z: state_rhs(spec, t, z), t_span, z0, rtol=rtol, atol=atol,
                        events=tuple(events), dense=dense)
    energies = np.array([total_energy(spec, row[:n], row[n:]) for row in res.ys])
    drift = float(np.max(np.abs(energies - energies[0])))
    return Trajectory(spec, res.ts, res.ys, res.dense, res.events, drift, energies)


def integrate_sensitivity(spec: SystemSpec, z0, w0, t_end: float):
    """Flow z0 over (0, t_end) with a 2n x m tangent; returns (z, W) at t_end.

    W(t_end) = D phi(z0) W0, where phi is the discrete solution map along the
    accepted steps.  It runs at the integrator's default tolerances, and
    step-size control sees the state only, so the steps are those of the
    plain run and W is the exact derivative Newton needs.  A 2n x 0 tangent
    (a chart with no coordinates, as of a one-dimensional system) takes
    that plain run.
    """
    z0 = _state(spec, z0)
    if np.shape(w0) == (len(z0), 0):
        res = rk.solve_rk45(lambda t, z: state_rhs(spec, t, z), (0.0, t_end), z0, dense=False)
        return res.ys[-1], np.zeros((len(z0), 0))
    w0 = _tangent(spec, w0)
    res = rk.solve_rk45(tangent_rhs(spec, w0.shape[1]), (0.0, t_end), z0, dense=False, w0=w0)
    return res.ys[-1], res.w_final
