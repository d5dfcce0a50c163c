"""Equations of motion and trajectory integration.

A :class:`SystemSpec` couples a kinetic metric model with a potential and an
energy level.  The flow lives on the velocity chart (x, v) and runs as the
system's straight-line code over floats (:func:`orbitlab.geometry.metric_nodes`
plus the potential and their derivatives in every state variable, compiled
once per system), which also gives its tangent.  A tangent run's right-hand
side comes from :func:`tangent_rhs`, one per (system, column count m), on
flat lists of floats; :func:`state_rhs_jvp` is the same function over arrays.
A constant metric's inverse is folded into that code, and its J W is one
generated function of (z, W) per m: neither solves g a = -c, and no J W of
such a metric goes through numpy.  A domain failure in the code raises the
interpreter's error naming the subexpression
(:meth:`orbitlab.expr.Compiled.run`); the interpreter never supplies a value
of the flow.  The integrator records energy drift along every trajectory but
never corrects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

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

    U, grad U and the Hessian of U run as straight-line code over floats,
    built once, on first use (:class:`~orbitlab.expr.Compiled`).
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
        grad = [graph.diff(u, i) for i in range(n)]
        hessian = [[graph.diff(d, j) for j in range(n)] for d in grad]
        return [("value", n, u, ()), ("gradient", n, grad, (u,)), ("hessian", n, hessian, (u,))]

    def value(self, x):
        return self.run("value", list(map(float, x)))

    def gradient(self, x):
        return self.run("gradient", list(map(float, x)))

    def hessian(self, x):
        """n x n list whose row i is the gradient of dU/dx_i."""
        return self.run("hessian", list(map(float, x)))


@dataclass(frozen=True)
class SystemSpec(ex.Compiled):
    """Kinetic metric + potential + fixed energy level.

    The flow runs as straight-line code built once, on first use, from the
    nodes (g, c) of :func:`~orbitlab.geometry.metric_nodes` with grad U added
    to c, so the acceleration is a = -g^{-1} c.  For a varying or Finsler
    metric ``parts(z)`` returns (g, c) and ``tangent(z)`` (g, c, dg, dc), with
    dg[l][k][j] = d g_lj / d z_k and dc[l][k] = d c_l / d z_k over the 2n state
    variables z = (x, v).  A constant g is inverted once, at build time, and
    g^{-1} folded into the code: ``parts(z)`` is the flow f = [v; a] and
    ``tangent(z)`` (f, DA) with DA = -g^{-1} dc (n x 2n); g = I folds to
    a = -c and DA = -dc.  Its ``energy(z)`` is H = F^2 / 2 + U and
    ``energy_gradient(z)`` grad_z H.  The metric and the potential are one
    build, so their common subexpressions are computed once.

    For a constant metric and a 2n x m tangent W there is also ``jvp(z, w)``
    = (f, J W), W and J W flat, row by row, built for each m on first use
    (:meth:`~orbitlab.expr.Compiled.tangent_function`): J W = [W_v; DA W]
    with each entry of DA W a sum of products over DA's nonzero entries, so
    for g = I and a potential separable in x it is one product per entry.
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

    def _functions(self, graph):
        n = self.dimension
        f2, g, c = geo.metric_nodes(graph, self.metric)
        u = graph.tree(self.potential.node)
        c = [graph.add(c[l], graph.diff(u, l)) for l in range(n)]
        zs = range(2 * n)
        dc = [[graph.diff(e, k) for k in zs] for e in c]
        if _constant(self.metric):  # -g^{-1} b folds to sums over constants, -b for g = I
            g_value = [[graph.value(e) for e in row] for row in g]
            g_inv = list(zip(*[geo.solve_linear(g_value, e) for e in np.eye(n).tolist()]))
            def minus_g_inv(b):
                return [graph.neg(reduce(graph.add, map(graph.mul, map(graph.const, row), b)))
                        for row in g_inv]
            parts = [graph.var(n + i) for i in range(n)] + minus_g_inv(c)
            da = list(zip(*[minus_g_inv(col) for col in zip(*dc)]))
            tangent = [parts, da]
            if graph.width:  # J W = [W_v; DA W], flat row by row
                w = graph.tangent()
                jw = [e for row in w[n:] for e in row]
                jw += [graph.dot(row, column) for row in da for column in zip(*w)]
                return [("jvp", 2 * n, [parts, jw], (f2, u))]
        else:
            dg = [[[graph.diff(e, k) for e in row] for k in zs] for row in g]
            parts, tangent = [g, c], [g, c, dg, dc]
        energy = graph.add(graph.mul(graph.const(0.5), f2), u)
        dh = [graph.diff(energy, k) for k in zs]
        return [("parts", 2 * n, parts, (f2, u)), ("energy", 2 * n, energy, ()),
                ("energy_gradient", 2 * n, dh, (f2, u)),
                ("tangent", 2 * n, tangent, (f2, u))]


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

def _constant(metric: MetricModel) -> bool:
    """A Riemannian g free of x, whose inverse the flow's code folds in."""
    return metric.kind == "riemannian" and not metric.varying


def _acceleration(spec: SystemSpec, z: list, name: str = "parts"):
    """(a, rest, out): a = -g^{-1} c at the float state z, whether z is a
    Finsler rest point, and the output of the flow's function ``name`` that
    gave g (None for a constant metric, whose ``parts`` is f = [v; a]).

    For a Finsler kinetic model the spray extends continuously by zero to
    v = 0 (degree-2 homogeneity); g there is taken in the direction of
    steepest descent w = -grad U, along which the flow leaves a rest point,
    so ``out`` is taken at (x, w) and a = -g(x, w)^{-1} grad U.
    """
    n = spec.dimension
    if _constant(spec.metric):
        return spec.run("parts", z)[n:], False, None
    rest = spec.metric.kind == "finsler" and not any(z[n:])
    if rest:
        grad_u = spec.potential.gradient(z[:n])
        if not any(grad_u):
            raise geo.ModelValidityError(
                "Finsler flow undefined at a rest point with vanishing grad U"
            )
        z = z[:n] + [-c for c in grad_u]
    out = spec.run(name, z)
    if spec.metric.varying:
        geo.require_positive_definite(out[0], "fundamental tensor")
    return [-a for a in geo.solve_linear(out[0], grad_u if rest else out[1])], rest, out


def lagrange_rhs(spec: SystemSpec, x, v):
    """Acceleration of the Lagrangian flow: -2 G(x, v) - g^{-1}(x, v) grad U.

    It runs as -g^{-1} c from the system's straight-line code (see
    :class:`SystemSpec`).  At a Finsler rest point v = 0 the metric is
    evaluated in the direction of steepest descent.
    """
    return _acceleration(spec, [*map(float, x), *map(float, v)])[0]


def state_rhs(spec: SystemSpec, t, z):
    """First-order form over z = (x, v)."""
    z = list(map(float, z))
    return z[spec.dimension:] + _acceleration(spec, z)[0]


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
    Jacobian) comes from here.

    J W = [W_v; DA W].  A constant metric's is one generated function of
    (z, W), built once per m (:class:`SystemSpec`), with DA = -g^{-1} dc
    expanded entry by entry, so DA's constant zeros drop out.  Otherwise,
    from g a = -c, DA = -g^{-1} (dc + dg a) with the flow's ``tangent``
    derivatives, in numpy.  At a Finsler rest point a = -g(x, -grad U)^{-1}
    grad U, so DA is -g^{-1} (H + (dg_x - dg_v H) a) in x, with H the
    Hessian of U, and zero in v.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"a tangent needs a positive whole number of columns, got {m!r}")
    if _constant(spec.metric):
        jvp = spec.tangent_function("jvp", m)
        return lambda t, z, w: jvp(z, w)
    n = spec.dimension

    def f(t, z, w):
        a, rest, (g, _, dg, dc) = _acceleration(spec, z, "tangent")
        w = np.reshape(w, (2 * n, m))
        dga = np.array(dg) @ a
        if rest:
            h = np.array(spec.potential.hessian(z[:n]))
            da = np.hstack([h + dga[:, :n] - dga[:, n:] @ h, np.zeros((n, n))])
        else:
            da = np.array(dc) + dga
        return z[n:] + a, np.vstack([w[n:], -np.linalg.solve(g, da @ w)]).ravel().tolist()

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
    z0 = _state(spec, initial.flat())
    if initial.x.size != initial.v.size:
        raise ValueError(f"state has {initial.x.size} positions and {initial.v.size} velocities")

    def f(t, z):
        return state_rhs(spec, t, z)

    res = rk.solve_rk45(
        f,
        t_span,
        z0,
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

    z0, w0 = _state(spec, z0), _tangent(spec, w0)
    res = rk.solve_rk45(tangent_rhs(spec, w0.shape[1]), (0.0, t_end), z0, dense=False, w0=w0)
    return res.ys[-1], res.w_final
