"""Finsler / Riemannian geometry kernel.

A :class:`MetricModel` describes the kinetic energy either through a
symmetric matrix of coefficient expressions g_ij(x) (Riemannian case) or a
single expression for F^2(x, v) (Finsler case).  :func:`metric_nodes` is the
one construction of F^2, the fundamental tensor and the spray's right-hand
side as symbolic derivatives in an :class:`~orbitlab.expr.Graph`.  The flow
compiles it together with the potential (see :mod:`orbitlab.dynamics`);
:func:`metric_tensor`, :func:`metric_and_spray` and
:func:`geodesic_coefficients` run a metric-only build of it, made on first
use and cached on the model.  Finite differences never enter these code
paths; they are reserved for test oracles.

F^2 itself (:func:`f_squared`) is one more function of that build.  The
compiled routines and :func:`solve_linear` run over floats only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import OrbitLabError
from . import expr as ex

__all__ = [
    "Space",
    "MetricModel",
    "ModelValidityError",
    "SingularMatrixError",
    "f_squared",
    "metric_nodes",
    "metric_tensor",
    "metric_and_spray",
    "geodesic_coefficients",
    "solve_linear",
]

_PD_RELATIVE_FLOOR = 1e-12


class ModelValidityError(OrbitLabError):
    """Metric model violates its contract (symmetry, homogeneity, definiteness)."""


class SingularMatrixError(OrbitLabError):
    pass


# ---------------------------------------------------------------------------
# Small linear algebra over floats
# ---------------------------------------------------------------------------

def solve_linear(a, b):
    """Gaussian elimination with partial pivoting."""
    n = len(b)
    m = [list(row) for row in a]
    r = list(b)
    scale = max([abs(e) for row in m for e in row]) or 1.0
    for col in range(n):
        piv, big = col, abs(m[col][col])
        for i in range(col + 1, n):
            size = abs(m[i][col])
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


# ---------------------------------------------------------------------------
# Spaces and models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Space:
    """Configuration space chart: all of R^n or a flat torus with periods."""

    kind: str  # "euclidean" | "torus"
    periods: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "torus":
            periods = () if self.periods is None else tuple(float(p) for p in self.periods)
            if not periods or not all(0.0 < p < np.inf for p in periods):
                raise ModelValidityError("torus periods must be positive and finite")
            object.__setattr__(self, "periods", periods)
        elif self.kind != "euclidean":
            raise ModelValidityError(f"unknown space kind {self.kind!r}")
        elif self.periods is not None:
            raise ModelValidityError("a euclidean space has no periods")

    @staticmethod
    def euclidean() -> "Space":
        return Space("euclidean")

    @staticmethod
    def torus(periods) -> "Space":
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


@dataclass(frozen=True)
class MetricModel:
    """Kinetic-energy model: Riemannian coefficient matrix or Finsler F^2.

    Riemannian entries may depend on positions only; the n x n matrix is
    symmetrized from its upper triangle, and an entry given as None is taken
    from its mirror.  A Finsler F^2 expression uses both positions and
    velocities and must be positively homogeneous of degree 2 and reversible
    in v (spot-checked at construction).  A model takes no field of the other
    kind.  Every construction is validated.
    """

    kind: str  # "riemannian" | "finsler"
    dimension: int
    space: Space
    g_exprs: tuple | None = None
    f2_expr: ex.ExprNode | None = None

    def __post_init__(self):
        n = self.dimension
        if not 1 <= n <= 9:
            raise ModelValidityError("dimension must be between 1 and 9")
        if self.space.kind == "torus" and len(self.space.periods) != n:
            raise ModelValidityError(
                f"torus has {len(self.space.periods)} periods for dimension {n}"
            )
        if self.kind == "riemannian":
            if self.f2_expr is not None:
                raise ModelValidityError("a riemannian model takes no F^2 expression")
            object.__setattr__(self, "g_exprs", _symmetrized(self.g_exprs, n))
            if any(k >= n for row in self.g_exprs for e in row for k in ex.variables_of(e)):
                raise ModelValidityError("riemannian coefficients may depend on positions only")
            if not self.varying:
                g = np.array([[e.value for e in row] for row in self.g_exprs], dtype=float)
                _require_positive_definite(g, "constant metric")
        elif self.kind == "finsler":
            if self.f2_expr is None or self.g_exprs is not None:
                raise ModelValidityError("a finsler model takes an F^2 expression and no entries")
            if any(k >= 2 * n for k in ex.variables_of(self.f2_expr)):
                raise ModelValidityError(f"F^2 may use only the {2 * n} state variables")
            self._spot_check_finsler()
        else:
            raise ModelValidityError(f"unknown metric kind {self.kind!r}")

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_code"}  # rebuilt on use

    @cached_property
    def varying(self) -> bool:
        """A Riemannian g that depends on x, so it is checked positive
        definite where it is evaluated; a constant g is checked once, at
        construction."""
        return self.kind == "riemannian" and not all(
            isinstance(e, ex.Const) for row in self.g_exprs for e in row
        )

    @cached_property
    def _code(self):
        """(code, trees) of the metric-only straight-line build, see :func:`_run`."""
        graph = ex.Graph(self.dimension)
        f2, g, c = metric_nodes(graph, self)
        arity = 2 * self.dimension
        code = graph.build([("f2", arity, f2, ()), ("tensor", arity, g, (f2,)),
                            ("parts", arity, [g, c], (f2,))])
        return code, graph.trees

    # -- constructors --------------------------------------------------------

    @staticmethod
    def riemannian(entries, space: Space | None = None) -> "MetricModel":
        """Build from a full or upper-triangular n x n matrix of expressions."""
        return MetricModel("riemannian", len(entries), space or Space.euclidean(), g_exprs=entries)

    @staticmethod
    def euclidean(dimension: int, space: Space | None = None) -> "MetricModel":
        entries = [
            [ex.const(1.0 if i == j else 0.0) for j in range(dimension)]
            for i in range(dimension)
        ]
        return MetricModel.riemannian(entries, space)

    @staticmethod
    def finsler(f2: ex.ExprNode, dimension: int, space: Space | None = None) -> "MetricModel":
        return MetricModel("finsler", dimension, space or Space.euclidean(), f2_expr=f2)

    # -- validation ----------------------------------------------------------

    def _spot_check_finsler(self):
        rng = np.random.default_rng(20240331)
        n = self.dimension
        for _ in range(20):
            x = self._sample_position(rng)
            v = rng.uniform(-1.0, 1.0, n)
            if np.linalg.norm(v) < 0.3:
                v = v + 0.5
            point = list(x) + list(v)
            f2 = ex.evaluate(self.f2_expr, point)
            tol = 1e-10 * (1.0 + abs(f2))
            for lam in (0.5, 2.0, 3.0):
                scaled = list(x) + list(lam * v)
                f2s = ex.evaluate(self.f2_expr, scaled)
                if abs(f2s - lam * lam * f2) > tol * lam * lam:
                    raise ModelValidityError(
                        "F^2 is not positively homogeneous of degree 2"
                    )
            mirrored = list(x) + list(-v)
            f2m = ex.evaluate(self.f2_expr, mirrored)
            if abs(f2m - f2) > tol:
                raise ModelValidityError("F^2 is not reversible")

    def _sample_position(self, rng):
        n = self.dimension
        if self.space.kind == "torus":
            return rng.uniform(0.0, self.space.periods, n)
        return rng.uniform(-1.5, 1.5, n)


def _require_positive_definite(g, what: str):
    eigs = np.linalg.eigvalsh(g)
    trace = float(np.trace(g))
    if trace <= 0.0 or eigs[0] <= _PD_RELATIVE_FLOOR * trace:
        raise ModelValidityError(
            f"{what} is not positive definite (min eigenvalue {eigs[0]:.3e})"
        )


def _symmetrized(entries, n: int) -> tuple:
    """n x n tuple of entries[i][j] for i <= j (else entries[j][i]) and its mirror."""
    rows = [len(row) for row in entries or ()]
    if rows != [n] * n:
        raise ModelValidityError(
            f"riemannian entries must be {n} rows of {n}, got row lengths {rows}"
        )

    def upper(i, j):
        entry = entries[i][j] if entries[i][j] is not None else entries[j][i]
        if entry is None:
            raise ModelValidityError(f"riemannian entry ({i + 1}, {j + 1}) is missing")
        return entry

    return tuple(tuple(upper(min(i, j), max(i, j)) for j in range(n)) for i in range(n))


def _require_nonzero_v(model: MetricModel, v):
    if model.kind == "finsler" and not any(v):
        raise ModelValidityError("Finsler metric quantities need v != 0")


# ---------------------------------------------------------------------------
# Core evaluations
# ---------------------------------------------------------------------------

def f_squared(model: MetricModel, x, v) -> float:
    """F^2(x, v); for Riemannian models g_ij(x) v^i v^j."""
    return _run(model, "f2", x, v)


def metric_nodes(graph: ex.Graph, model: MetricModel):
    """(F^2, g, c) as nodes of ``graph``: F^2 (the Finsler expression, or
    g_ij(x) v^i v^j summed as v . (g v)), the fundamental tensor
    g = (1/2) d_v d_v F^2 as an n x n list, and
    c = (1/2) (v^j d_xj d_v F^2 - d_x F^2), so that the spray is
    G = (1/2) g^{-1} c.  A constant metric folds to c = 0."""
    n = model.dimension
    v = [graph.var(n + i) for i in range(n)]
    if model.kind == "finsler":
        f2 = graph.tree(model.f2_expr)
    else:
        def dot_nodes(a, b):
            acc = graph.mul(a[0], b[0])
            for i in range(1, n):
                acc = graph.add(acc, graph.mul(a[i], b[i]))
            return acc

        rows = [[graph.tree(e) for e in row] for row in model.g_exprs]
        f2 = dot_nodes(v, [dot_nodes(row, v) for row in rows])
    half = graph.const(0.5)
    dv = [graph.diff(f2, n + l) for l in range(n)]
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = graph.mul(half, graph.diff(dv[i], n + j))
    c = []
    for l in range(n):
        mixed = graph.zero
        for j in range(n):
            mixed = graph.add(mixed, graph.mul(v[j], graph.diff(dv[l], j)))
        c.append(graph.mul(half, graph.sub(mixed, graph.diff(f2, l))))
    return f2, g, c


def _run(model: MetricModel, name: str, x, v):
    """The model's metric-only straight-line function ``name`` ("f2": F^2;
    "tensor": g; "parts": (g, c)) at (x, v), built once, on first use."""
    code, trees = model._code
    return ex.run(code, name, [*map(float, x), *map(float, v)], trees)


def metric_tensor(model: MetricModel, x, v):
    """Fundamental tensor g_ij(x, v) = half the v-Hessian of F^2, checked
    positive definite."""
    _require_nonzero_v(model, v)
    g = _run(model, "tensor", x, v)
    _require_positive_definite(g, "fundamental tensor")
    return g


def metric_and_spray(model: MetricModel, x, v):
    """(g, G): fundamental tensor and spray coefficients from one evaluation.

    The geodesic equation reads xdd^k + 2 G^k(x, xd) = 0, with G positively
    2-homogeneous in v.  G solves 2 g G = c (see :func:`metric_nodes`), which
    needs derivatives of F^2 up to second order only.  An x-dependent
    Riemannian g is checked positive definite; a constant one was checked
    when the model was built.
    """
    _require_nonzero_v(model, v)
    g, c = _run(model, "parts", x, v)
    if model.varying:
        _require_positive_definite(g, "fundamental tensor")
    return g, [0.5 * s for s in solve_linear(g, c)]


def geodesic_coefficients(model: MetricModel, x, v):
    """Spray coefficients G^k(x, v); see :func:`metric_and_spray`."""
    return metric_and_spray(model, x, v)[1]
