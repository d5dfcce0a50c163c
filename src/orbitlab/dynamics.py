"""Equations of motion and trajectory integration.

A :class:`SystemSpec` couples a kinetic metric model with a potential and an
energy level.  The flow lives on the velocity chart (x, v) and runs as the
system's straight-line code over floats (:func:`orbitlab.geometry.metric_nodes`
plus the potential and their derivatives in every state variable), built
once per tangent width m, which solves g a = -c by elimination for every
metric (:meth:`orbitlab.expr.Graph.negated_solve`).  One checked right-hand
side runs it at every width, on one flat state: f(z) for m = 0
(:func:`state_rhs`, :func:`integrate`) and [f(z); J(z) W] for y = [z; W row
by row], W a 2n x m tangent (:func:`tangent_rhs`,
:func:`integrate_sensitivity`, :func:`state_rhs_jvp` over arrays).
:func:`state_rhs` and :func:`state_rhs_jvp` name a non-finite entry of their
result; in a run the integrator names the stage that made it.  Each call
passes the pivots of a g that varies with the state to geometry's one
definiteness rule (:func:`orbitlab.geometry.require_positive_definite`); a
constant g is checked once, when its code is built.  A domain failure in the
code raises the interpreter's error naming the subexpression
(:func:`orbitlab.expr.name_failure`); the interpreter never supplies a value
of the flow.  A trajectory derives its energies and energy drift from its
states when they are first read; the integrator never corrects the drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
    first use (:class:`~orbitlab.expr.Compiled`); U also runs over arrays.
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
        """U at a point x, or at each row of a (K, n) array x in one array call."""
        if isinstance(x, np.ndarray) and x.ndim == 2:
            return self.run_array("value", x.T)
        return self.run("value", list(map(float, x)))

    def gradient(self, x):
        return self.run("gradient", list(map(float, x)))


@dataclass(frozen=True)
class SystemSpec(ex.Compiled):
    """Kinetic metric + potential + fixed energy level.

    The flow is straight-line code built once per tangent width m, on first
    use (:meth:`~orbitlab.expr.Compiled.code`), from the nodes (g, c) of
    :func:`~orbitlab.geometry.metric_nodes`, grad U added to c, and U.
    A function of width m takes z = (x, v) followed by W row by row, flat.
    ``flow`` returns [f + J W, checks], f followed for m > 0 by J W in one
    flat list: f = [v; a] with a = -g^{-1} c; J W = [W_v; DA W] row by row,
    DA = -g^{-1} (dc + dg a) (derivatives in z) solved with the same
    factors; checks = (g, pivots), or none for a constant g, whose folded
    pivots are checked at build
    (:func:`~orbitlab.geometry.require_positive_definite`).  A Finsler
    model adds ``rest``, the same with a in place of f, z carrying -grad U
    for v = 0: a = -g^{-1} grad U, DA = -g^{-1} (H_U + dg_x a - (dg_v a)
    H_U) in x and 0 in v, H_U the Hessian of U.  Width 0 also has
    ``energy``, H = F^2 / 2 + U, ``energy_gradient``, grad_z H, and
    ``potential_rate``, grad U . v summed from +0.0 in index order
    (:meth:`~orbitlab.expr.Graph.dot`), the rate at which U grows along the
    flow.
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
            geo.require_positive_definite([[*map(graph.value, row)] for row in g],
                                          "fundamental tensor", map(graph.value, pivots))
            checks = []
        if not graph.width:
            energy = graph.add(graph.mul(graph.const(0.5), f2), u)
            functions = [("flow", 2 * n, [f, checks], guards), ("energy", 2 * n, energy, ()),
                         ("energy_gradient", 2 * n, [graph.diff(energy, k) for k in zs], guards),
                         ("potential_rate", 2 * n, graph.dot(grad_u, f[:n]), (u,))]
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
            return [("flow", 2 * n, [f + jvp, checks], guards)]
        b, h = dg_dot(a_rest), [[graph.diff(e, k) for k in range(n)] for e in grad_u]
        jvp_rest = jw([[graph.sub(graph.add(h[l][k], b[l][k]),
                                  graph.dot(b[l][n:], [row[k] for row in h])) for l in range(n)]
                       for k in range(n)] + [[graph.zero] * n] * n)
        return [("flow", 2 * n, [f + jvp, checks], guards),
                ("rest", 2 * n, [a_rest + jvp_rest, checks], guards)]


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

def _flow(spec: SystemSpec, m: int):
    """f(t, y), the right-hand side of a :func:`orbitlab.rk.solve_rk45` run
    of y = [z; W row by row] for a 2n x m tangent W: [f(z); J(z) W] flat, a
    list of floats, and f(z) for m = 0.  At a Finsler rest point v = 0 it
    runs ``rest`` at (x, -grad U) with W passed through: the spray extends
    by zero to v = 0 (degree-2 homogeneity), and g is taken along -grad U,
    where the flow leaves.  Code that divided by a zero pivot before the
    rule saw it leaves g to the rule."""
    n, (code, trees) = spec.dimension, spec.code(m)
    flow, rest = code["flow"], code.get("rest")

    def f(t, y):
        point, function = y, flow
        if rest is not None and not any(y[n:2 * n]):
            grad_u = spec.potential.gradient(y[:n])
            if not any(grad_u):
                raise geo.ModelValidityError(
                    "Finsler flow undefined at a rest point with vanishing grad U")
            point, function = y[:n] + [-c for c in grad_u] + y[2 * n:], rest
        try:
            out, checks = function(point)
        except ex.DOMAIN_FAILURES as failure:
            z = point[:2 * n]
            ex.name_failure(trees, z)
            if isinstance(failure, ZeroDivisionError):
                geo.require_positive_definite(spec.metric.run("tensor", z), "fundamental tensor")
            raise
        if checks:
            geo.require_positive_definite(checks[0], "fundamental tensor", checks[1])
        return y[n:2 * n] + out if function is rest else out  # [v; a] with v = 0

    return f


def _finite(out: list, z: list) -> list:
    """``out``, a flow's values at the state z, checked finite: else
    ``ModelValidityError`` naming the first non-finite entry and z."""
    for k, value in enumerate(out):
        if not math.isfinite(value):
            raise geo.ModelValidityError(f"flow entry {k} is {value!r} at the state {z!r}")
    return out


def lagrange_rhs(spec: SystemSpec, x, v):
    """Acceleration -2 G(x, v) - g^{-1}(x, v) grad U: :func:`state_rhs`'s v'."""
    return state_rhs(spec, 0.0, [*x, *v])[spec.dimension:]


def state_rhs(spec: SystemSpec, t, z):
    """First-order form over z = (x, v).  A g unfit to solve with raises
    ``SingularMatrixError`` or ``ModelValidityError``, and so does a
    non-finite entry of the result."""
    z = list(map(float, z))
    return _finite(_flow(spec, 0)(t, z), z)


def _tangent(spec: SystemSpec, w, columns: int = 1) -> np.ndarray:
    """W as a float array, checked finite and 2n x m with m >= ``columns``."""
    w, rows = np.asarray(w, dtype=float), 2 * spec.dimension
    if w.ndim != 2 or w.shape[0] != rows or w.shape[1] < columns:
        raise ValueError(
            f"tangent has shape {w.shape}; a system of dimension {spec.dimension} needs "
            f"{rows} x m with m >= {columns}"
        )
    if not np.all(np.isfinite(w)):
        raise ValueError("the tangent must be finite")
    return w


def tangent_rhs(spec: SystemSpec, m: int):
    """f(t, y) = [f(z); J(z) W] for y = [z; W row by row], W 2n x m: the
    right-hand side of a tangent run of :func:`orbitlab.rk.solve_rk45`, a
    flat list of 2n (1 + m) floats.  f(z) is :func:`state_rhs`'s bit for
    bit, unchecked.  Every derivative of the flow (shooting, monodromy, the
    Jacobian) comes from here: the system's ``flow`` of width m, or at a
    Finsler rest point its ``rest`` (:class:`SystemSpec`), run and checked
    as :func:`state_rhs` runs them."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"a tangent needs a positive whole number of columns, got {m!r}")
    return _flow(spec, m)


def state_rhs_jvp(spec: SystemSpec, z, w):
    """(f(z), J(z) W) for a 2n x m tangent array W: :func:`tangent_rhs`
    over arrays, its entries checked finite as :func:`state_rhs` checks
    them (entry k of [f; J W row by row]).  A state or tangent of the wrong
    shape, or a tangent that is not finite, raises ``ValueError``."""
    z, w = _state(spec, z), _tangent(spec, w)
    out = _finite(tangent_rhs(spec, w.shape[1])(0.0, z + w.ravel().tolist()), z)
    return out[:len(z)], np.reshape(out[len(z):], w.shape)


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
    downward crossings of g = grad U . v, the system's generated
    ``potential_rate`` (:class:`SystemSpec`).
    """
    def g(t, z):
        return spec.run("potential_rate", list(map(float, z)))

    return EventSpec(g, direction=-1, terminal=terminal)


@dataclass
class Trajectory:
    """Time-sampled phase curve: ``states[k]`` is the state at ``ts[k]``.

    ``dense`` is the integrator's :class:`~orbitlab.rk.DenseOutput` over the
    same samples, or None for a run without dense output.  :meth:`state` and
    :meth:`state_derivative` evaluate it at a time or a 1-D array of times,
    hold the end states outside [t0, t1], and raise ``ValueError`` when there
    is no dense output.  :attr:`energies` and :attr:`energy_drift` are derived
    from ``states`` on first read.
    """

    spec: SystemSpec
    ts: np.ndarray
    states: np.ndarray  # (N, 2n)
    dense: rk.DenseOutput | None = None
    events: list = field(default_factory=list)

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    @cached_property
    def energies(self) -> np.ndarray:
        """H at every row of ``states``, in one array call of the compiled H."""
        return self.spec.run_array("energy", self.states.T)

    @property
    def energy_drift(self) -> float:
        """max |H - H(t0)| over the rows of ``states``."""
        return float(np.max(np.abs(self.energies - self.energies[0])))

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
    z0 = _state(spec, initial.flat())
    if initial.x.size != initial.v.size:
        raise ValueError(f"state has {initial.x.size} positions and {initial.v.size} velocities")

    res = rk.solve_rk45(_flow(spec, 0), t_span, z0, rtol=rtol, atol=atol,
                        events=tuple(events), dense=dense)
    return Trajectory(spec, res.ts, res.ys, res.dense, res.events)


def integrate_sensitivity(spec: SystemSpec, z0, w0, t_end: float):
    """Flow z0 over (0, t_end) with a 2n x m tangent; returns (z, W) at t_end.

    One run of [z; W row by row] at the integrator's default tolerances,
    whose step-size control sees z only (``control`` = 2n): z takes the
    steps of the plain run, and W(t_end) = D phi(z0) W0 is the exact
    derivative of the discrete solution map phi along them that Newton
    needs.  A 2n x 0 tangent (a chart with no coordinates, as of a
    one-dimensional system) makes it the plain run.
    """
    z0, w0 = _state(spec, z0), _tangent(spec, w0, columns=0)
    res = rk.solve_rk45(_flow(spec, w0.shape[1]), (0.0, t_end), z0 + w0.ravel().tolist(),
                        dense=False, control=len(z0))
    return res.ys[-1, :len(z0)], np.reshape(res.ys[-1, len(z0):], w0.shape)
