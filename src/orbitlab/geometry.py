"""Finsler / Riemannian geometry kernel.

A :class:`MetricModel` describes the kinetic energy either through a
symmetric matrix of coefficient expressions g_ij(x) (Riemannian case) or a
single expression for F^2(x, v) (Finsler case).  :func:`metric_nodes` is the
one construction of F^2, the fundamental tensor and the spray's right-hand
side as symbolic derivatives in an :class:`~orbitlab.expr.Graph`.  The flow
compiles it together with the potential (see :mod:`orbitlab.dynamics`);
:func:`metric_tensor`, :func:`metric_and_spray` and
:func:`geodesic_coefficients` run the model's own metric-only build of it
(:class:`~orbitlab.expr.Compiled`).  :func:`require_positive_definite` is
the one definiteness rule for every g, at construction, in these routes and
in the flow: the pivots of g's elimination without row swaps
(:func:`solve_linear`, or the flow's generated twin of it) must be positive
and clear of zero.  Finite differences never enter these code paths; they
are reserved for test oracles.

F^2 itself (:func:`f_squared`) is one more function of that build.  The
compiled routines and :func:`solve_linear` run over floats only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "require_positive_definite",
    "require_nonzero_v",
]


class ModelValidityError(OrbitLabError):
    """Metric model violates its contract (symmetry, homogeneity, definiteness)."""


class SingularMatrixError(ModelValidityError):
    """A pivot of g's elimination is zero to working precision."""


# ---------------------------------------------------------------------------
# Small linear algebra over floats
# ---------------------------------------------------------------------------

def _eliminate(a, b):
    """(x, pivots) of a x = b by elimination without row swaps; at a zero
    pivot, which it cannot divide by, (None, the pivots up to it)."""
    n = len(b)
    m = [[*row, r] for row, r in zip(a, b)]  # [a | b]
    pivots = []
    for col in range(n):
        pivots.append(m[col][col])
        if not pivots[-1]:
            return None, pivots
        inv = 1.0 / m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] * inv
            m[i][col + 1:] = [e - f * p for e, p in zip(m[i][col + 1:], m[col][col + 1:])]
    x = [0.0] * n
    for i in reversed(range(n)):  # back substitution
        acc = m[i][n]
        for j in range(i + 1, n):
            acc = acc - m[i][j] * x[j]
        x[i] = acc / m[i][i]
    return x, pivots


def solve_linear(a, b):
    """x with a x = b for a symmetric positive definite a, which
    :func:`require_positive_definite` checks on this solve's pivots.  It
    eliminates without row swaps (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., SIAM 2002, section 10.1): the float twin
    of :meth:`orbitlab.expr.Graph.negated_solve`, whose solution is x
    negated."""
    x, pivots = _eliminate(a, b)
    require_positive_definite(a, "matrix", pivots)
    return x


def require_positive_definite(g, what: str, pivots=None):
    """Raise unless the symmetric matrix g is fit to solve with, the one
    definiteness rule: each pivot of its elimination without row swaps
    (``pivots``, in order; by default :func:`solve_linear`'s) must exceed
    1e-14 max |g_ij|, else :class:`SingularMatrixError`, and be positive,
    else :class:`ModelValidityError` naming ``what`` and the pivot.  A NaN
    pivot or floor fails the first comparison; a g with a non-finite entry
    raises :class:`ModelValidityError` naming the entry."""
    if pivots is None:
        pivots = _eliminate(g, [0.0] * len(g))[1]
    floor = 1e-14 * max(abs(e) for row in g for e in row)
    for p in pivots:
        if not abs(p) > floor:
            for i, row in enumerate(g):
                for j, e in enumerate(row):
                    if not math.isfinite(e):
                        raise ModelValidityError(
                            f"{what} has a non-finite entry ({i + 1}, {j + 1}): {e!r}")
            raise SingularMatrixError(f"{what} is singular to working precision")
        if p < 0.0:
            raise ModelValidityError(f"{what} is not positive definite (pivot {p:.3e})")


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
class MetricModel(ex.Compiled):
    """Kinetic-energy model: Riemannian coefficient matrix or Finsler F^2.

    Riemannian entries may depend on positions only; the n x n matrix is
    symmetrized from its upper triangle, and an entry given as None is taken
    from its mirror.  A Finsler F^2 expression uses both positions and
    velocities and must be positively homogeneous of degree 2 and reversible
    in v (spot-checked at construction).  A model takes no field of the other
    kind.  Every construction is validated; a Riemannian g whose entries fold
    to constants in a :class:`~orbitlab.expr.Graph` is checked by
    :func:`require_positive_definite` there, and any other g where it is
    evaluated.
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
            graph = ex.Graph(n)
            g = [[graph.value(graph.tree(e)) for e in row] for row in self.g_exprs]
            if None not in (e for row in g for e in row):  # a constant g, checked once, here
                require_positive_definite(g, "constant metric")
        elif self.kind == "finsler":
            if self.f2_expr is None or self.g_exprs is not None:
                raise ModelValidityError("a finsler model takes an F^2 expression and no entries")
            if any(k >= 2 * n for k in ex.variables_of(self.f2_expr)):
                raise ModelValidityError(f"F^2 may use only the {2 * n} state variables")
            self._spot_check_finsler()
        else:
            raise ModelValidityError(f"unknown metric kind {self.kind!r}")

    def _functions(self, graph):
        """Functions "f2" (F^2), "tensor" (g) and "g_and_c" ((g, c)) of z = (x, v)."""
        f2, g, c = metric_nodes(graph, self)
        arity = 2 * self.dimension
        return [("f2", arity, f2, ()), ("tensor", arity, g, (f2,)),
                ("g_and_c", arity, [g, c], (f2,))]

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


def require_nonzero_v(model: MetricModel, v):
    """Raise :class:`ModelValidityError` at v = 0 for a Finsler model, whose
    fundamental tensor and spray are not defined there."""
    if model.kind == "finsler" and not any(v):
        raise ModelValidityError("Finsler metric quantities need v != 0")


# ---------------------------------------------------------------------------
# Core evaluations
# ---------------------------------------------------------------------------

def f_squared(model: MetricModel, x, v):
    """F^2(x, v); for Riemannian models g_ij(x) v^i v^j.  At each row of
    (K, n) arrays x and v, in one array call."""
    if isinstance(x, np.ndarray) and x.ndim == 2:
        return model.run_array("f2", np.concatenate([x, v], axis=1).T)
    return model.run("f2", [*map(float, x), *map(float, v)])


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


def metric_tensor(model: MetricModel, x, v):
    """Fundamental tensor g_ij(x, v) = half the v-Hessian of F^2, checked
    positive definite."""
    require_nonzero_v(model, v)
    g = model.run("tensor", [*map(float, x), *map(float, v)])
    require_positive_definite(g, "fundamental tensor")
    return g


def metric_and_spray(model: MetricModel, x, v):
    """(g, G): fundamental tensor and spray coefficients from one evaluation.

    The geodesic equation reads xdd^k + 2 G^k(x, xd) = 0, with G positively
    2-homogeneous in v.  G solves 2 g G = c (see :func:`metric_nodes`), which
    needs derivatives of F^2 up to second order only, by
    :func:`solve_linear`'s elimination, whose pivots check every g.
    """
    require_nonzero_v(model, v)
    g, c = model.run("g_and_c", [*map(float, x), *map(float, v)])
    s, pivots = _eliminate(g, c)
    require_positive_definite(g, "fundamental tensor", pivots)
    return g, [0.5 * e for e in s]


def geodesic_coefficients(model: MetricModel, x, v):
    """Spray coefficients G^k(x, v); see :func:`metric_and_spray`."""
    return metric_and_spray(model, x, v)[1]
