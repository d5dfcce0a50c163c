"""Finsler / Riemannian geometry kernel.

A :class:`MetricModel` describes the kinetic energy either through a
symmetric matrix of coefficient expressions g_ij(x) (Riemannian case) or a
single expression for F^2(x, v) (Finsler case).  The flow compiles F^2
(:func:`f_squared_node`) into straight-line code with its symbolic
derivatives (see :mod:`orbitlab.dynamics`).  The routines here evaluate the
fundamental tensor and the geodesic spray by the interpreter, from exact
dual-number derivatives of those expressions of at most second order; they
serve this module's public API, the flow's answer to a domain failure or a
Finsler rest point, and the test oracles.  Finite differences never enter
these code paths; they are reserved for test oracles.

Every operation accepts coordinates as sequences of plain floats or of
:class:`~orbitlab.expr.Dual` scalars, so sensitivities can be propagated
through the whole kernel by seeding the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OrbitLabError
from . import expr as ex
from .expr import Dual, val_of

__all__ = [
    "Space",
    "MetricModel",
    "ModelValidityError",
    "SingularMatrixError",
    "f_squared",
    "f_squared_node",
    "metric_tensor",
    "metric_and_spray",
    "geodesic_coefficients",
    "solve_linear",
    "mat_vec",
    "dot",
]

_PD_RELATIVE_FLOOR = 1e-12


class ModelValidityError(OrbitLabError):
    """Metric model violates its contract (symmetry, homogeneity, definiteness)."""


class SingularMatrixError(OrbitLabError):
    pass


# ---------------------------------------------------------------------------
# Generic small linear algebra (works over floats and Dual scalars)
# ---------------------------------------------------------------------------

def dot(u, v):
    acc = u[0] * v[0]
    for i in range(1, len(u)):
        acc = acc + u[i] * v[i]
    return acc


def mat_vec(a, x):
    return [dot(row, x) for row in a]


def solve_linear(a, b):
    """Gaussian elimination with partial pivoting on the float part."""
    n = len(b)
    m = [list(row) for row in a]
    r = list(b)
    scale = max([abs(val_of(e)) for row in m for e in row]) or 1.0
    for col in range(n):
        piv, big = col, abs(val_of(m[col][col]))
        for i in range(col + 1, n):
            size = abs(val_of(m[i][col]))
            if size > big:
                piv, big = i, size
        if big <= 1e-14 * scale:
            raise SingularMatrixError("matrix is singular to working precision")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            r[col], r[piv] = r[piv], r[col]
        inv = 1.0 / m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] * inv
            for j in range(col + 1, n):
                m[i][j] = m[i][j] - f * m[col][j]
            r[i] = r[i] - f * r[col]
    out = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = r[i]
        for j in range(i + 1, n):
            acc = acc - m[i][j] * out[j]
        out[i] = acc / m[i][i]
    return out


def _inner_tag(scalars) -> int:
    tags = [s.tag for s in scalars if isinstance(s, Dual)]
    return max(tags) + 1 if tags else 0


def _as_float_matrix(g):
    return np.array([[val_of(e) for e in row] for row in g], dtype=float)


# ---------------------------------------------------------------------------
# Spaces and models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Space:
    """Configuration space chart: all of R^n or a flat torus with periods."""

    kind: str  # "euclidean" | "torus"
    periods: tuple[float, ...] | None = None

    @staticmethod
    def euclidean() -> "Space":
        return Space("euclidean")

    @staticmethod
    def torus(periods) -> "Space":
        periods = tuple(float(p) for p in periods)
        if any(p <= 0 for p in periods):
            raise ModelValidityError("torus periods must be positive")
        return Space("torus", periods)

    def wrap(self, x):
        """Canonical representative in [0, L_i) per periodic coordinate."""
        x = np.asarray(x, dtype=float)
        if self.kind != "torus":
            return x
        return np.mod(x, np.asarray(self.periods))

    def delta(self, a, b):
        """Displacement a - b, minimal-image on periodic coordinates."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.kind != "torus":
            return d
        ls = np.asarray(self.periods)
        return d - ls * np.round(d / ls)


@dataclass
class MetricModel:
    """Kinetic-energy model: Riemannian coefficient matrix or Finsler F^2.

    Riemannian entries may depend on positions only; a Finsler F^2 expression
    uses both positions and velocities and must be positively homogeneous of
    degree 2 and reversible in v (spot-checked at construction).
    """

    kind: str  # "riemannian" | "finsler"
    dimension: int
    space: Space
    g_exprs: list | None = None
    f2_expr: ex.ExprNode | None = None
    _const_g: np.ndarray | None = field(default=None, repr=False)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def riemannian(entries, space: Space | None = None) -> "MetricModel":
        """Build from a full or upper-triangular matrix of expressions.

        The stored matrix is symmetrized from the upper triangle, so symmetry
        holds by construction.
        """
        n = len(entries)
        space = space or Space.euclidean()
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entry = entries[i][j]
                if entry is None:
                    entry = entries[j][i]
                g[i][j] = entry
                g[j][i] = entry
        model = MetricModel("riemannian", n, space, g_exprs=g)
        model._validate()
        return model

    @staticmethod
    def euclidean(dimension: int, space: Space | None = None) -> "MetricModel":
        entries = [
            [ex.const(1.0 if i == j else 0.0) for j in range(dimension)]
            for i in range(dimension)
        ]
        return MetricModel.riemannian(entries, space)

    @staticmethod
    def finsler(f2: ex.ExprNode, dimension: int, space: Space | None = None) -> "MetricModel":
        model = MetricModel("finsler", dimension, space or Space.euclidean(), f2_expr=f2)
        model._validate()
        return model

    # -- validation ----------------------------------------------------------

    def _validate(self):
        n = self.dimension
        if not 1 <= n <= 9:
            raise ModelValidityError("dimension must be between 1 and 9")
        if self.kind == "riemannian":
            for row in self.g_exprs:
                for entry in row:
                    bad = [k for k in ex.variables_of(entry) if k >= n]
                    if bad:
                        raise ModelValidityError(
                            "riemannian coefficients may depend on positions only"
                        )
            if all(
                isinstance(e, ex.Const) for row in self.g_exprs for e in row
            ):
                g = np.array(
                    [[e.value for e in row] for row in self.g_exprs], dtype=float
                )
                _require_positive_definite(g, "constant metric")
                self._const_g = g
        elif self.kind == "finsler":
            self._spot_check_finsler()
        else:
            raise ModelValidityError(f"unknown metric kind {self.kind!r}")

    def _spot_check_finsler(self):
        rng = np.random.default_rng(20240331)
        n = self.dimension
        for _ in range(20):
            x = self._sample_position(rng)
            v = rng.uniform(-1.0, 1.0, n)
            if np.linalg.norm(v) < 0.3:
                v = v + 0.5
            point = list(x) + list(v)
            f2 = val_of(ex.evaluate(self.f2_expr, point))
            tol = 1e-10 * (1.0 + abs(f2))
            for lam in (0.5, 2.0, 3.0):
                scaled = list(x) + list(lam * v)
                f2s = val_of(ex.evaluate(self.f2_expr, scaled))
                if abs(f2s - lam * lam * f2) > tol * lam * lam:
                    raise ModelValidityError(
                        "F^2 is not positively homogeneous of degree 2"
                    )
            mirrored = list(x) + list(-v)
            f2m = val_of(ex.evaluate(self.f2_expr, mirrored))
            if abs(f2m - f2) > tol:
                raise ModelValidityError("F^2 is not reversible")

    def _sample_position(self, rng):
        n = self.dimension
        if self.space.kind == "torus":
            return rng.uniform(0.0, self.space.periods, n)
        return rng.uniform(-1.5, 1.5, n)


def _require_positive_definite(g: np.ndarray, what: str):
    eigs = np.linalg.eigvalsh(g)
    trace = float(np.trace(g))
    if trace <= 0.0 or eigs[0] <= _PD_RELATIVE_FLOOR * trace:
        raise ModelValidityError(
            f"{what} is not positive definite (min eigenvalue {eigs[0]:.3e})"
        )


def _require_nonzero_v(model: MetricModel, v):
    if model.kind == "finsler" and all(val_of(c) == 0.0 for c in v):
        raise ModelValidityError("Finsler metric quantities need v != 0")


# ---------------------------------------------------------------------------
# Core evaluations
# ---------------------------------------------------------------------------

def f_squared(model: MetricModel, x, v):
    """F^2(x, v); for Riemannian models this is g_ij(x) v^i v^j."""
    if model.kind == "finsler":
        return ex.evaluate(model.f2_expr, list(x) + list(v))
    g = _riemannian_g(model, x)
    return dot(v, mat_vec(g, v))


def f_squared_node(graph: ex.Graph, model: MetricModel) -> int:
    """F^2 as a node of ``graph``: the Finsler expression, or g_ij(x) v^i v^j
    summed in the order :func:`f_squared` sums it."""
    if model.kind == "finsler":
        return graph.tree(model.f2_expr)
    n = model.dimension
    v = [graph.var(n + i) for i in range(n)]

    def dot_nodes(a, b):
        acc = graph.mul(a[0], b[0])
        for i in range(1, n):
            acc = graph.add(acc, graph.mul(a[i], b[i]))
        return acc

    g = [[graph.tree(e) for e in row] for row in model.g_exprs]
    return dot_nodes(v, [dot_nodes(row, v) for row in g])


def _riemannian_g(model: MetricModel, x):
    if model._const_g is not None:
        return [[float(e) for e in row] for row in model._const_g]
    n = model.dimension
    values = list(x) + [0.0] * n
    return [
        [ex.evaluate(model.g_exprs[i][j], values) for j in range(n)]
        for i in range(n)
    ]


def _riemannian_g_and_derivs(model: MetricModel, x):
    """(g, dg) with dg[l][i][j] = d g_ij / d x^l, exact via duals."""
    n = model.dimension
    tag = _inner_tag(x)
    values = list(x) + [0.0] * n
    g = [[None] * n for _ in range(n)]
    dg = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            d = ex.eval_dual(model.g_exprs[i][j], values, list(range(n)), 1, tag)
            g[i][j] = d.val
            g[j][i] = d.val
            for l in range(n):
                dg[l][i][j] = d.grad[l]
                dg[l][j][i] = d.grad[l]
    return g, dg


def _finsler_f2_order2(model: MetricModel, x, v, v_only: bool = False):
    """(d, g): order-2 dual of F^2 and half its v-Hessian; d is seeded in all 2n
    directions, or with ``v_only`` in the n velocity ones (same g bit for bit)."""
    n = model.dimension
    point = list(x) + list(v)
    directions, off = (range(n, 2 * n), 0) if v_only else (None, n)
    d = ex.eval_dual(model.f2_expr, point, directions, 2, _inner_tag(point))
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = 0.5 * d.hess[off + i][off + j]
            g[i][j] = entry
            g[j][i] = entry
    return d, g


def metric_tensor(model: MetricModel, x, v, check: bool = True):
    """Fundamental tensor g_ij(x, v) = half the v-Hessian of F^2."""
    _require_nonzero_v(model, v)
    if model.kind == "riemannian":
        g = _riemannian_g(model, x)
    else:
        g = _finsler_f2_order2(model, x, v, v_only=True)[1]
    if check:
        _require_positive_definite(_as_float_matrix(g), "fundamental tensor")
    return g


def metric_and_spray(model: MetricModel, x, v):
    """(g, G): fundamental tensor and spray coefficients from one evaluation.

    The geodesic equation reads xdd^k + 2 G^k(x, xd) = 0, with G positively
    2-homogeneous in v.  G solves 4 g G = v^j d_j grad_v F^2 - grad_x F^2,
    which needs derivatives of F^2 up to second order only.  An
    x-dependent Riemannian g is checked positive definite; a constant one was
    checked when the model was built.
    """
    n = model.dimension
    rhs = []
    if model.kind == "riemannian":
        if model._const_g is not None:
            return _riemannian_g(model, x), [0.0] * n
        g, dg = _riemannian_g_and_derivs(model, x)
        _require_positive_definite(_as_float_matrix(g), "fundamental tensor")
        for l in range(n):
            acc = 0.0
            for i in range(n):
                for j in range(n):
                    acc = acc + (2.0 * dg[j][l][i] - dg[l][i][j]) * v[i] * v[j]
            rhs.append(acc)
    else:
        _require_nonzero_v(model, v)
        d, g = _finsler_f2_order2(model, x, v)
        for l in range(n):
            acc = -d.grad[l]
            for j in range(n):
                acc = acc + d.hess[j][n + l] * v[j]
            rhs.append(acc)
    return g, [0.25 * s for s in solve_linear(g, rhs)]


def geodesic_coefficients(model: MetricModel, x, v):
    """Spray coefficients G^k(x, v); see :func:`metric_and_spray`."""
    return metric_and_spray(model, x, v)[1]
