"""Numerical oracles and reference routes shared across the test suite.

Finite-difference derivatives and random expressions check the library's
dual numbers against computations that share none of their code.  The
geometry routes that only tests use -- third derivatives of F^2 (the Cartan
tensor, x-derivatives of the fundamental tensor), the Christoffel route to
the spray, the Legendre transform, the Hamiltonian flow, and the Jacobi
metric as an expression model with its geodesic flow as a system of its own,
and the Jacobi reparametrization as a forward run for the total length
followed by the inverse run -- live here as well, and so does the
interpreter route to the flow: U, grad U, F^2, the fundamental tensor, the
spray and the acceleration from the expression interpreter over order-2 and
nested duals, with a linear solve generic over duals, and the rotation chart
seeded with duals.  Apart from the Jacobi geodesic flow and
reparametrization, which the library integrates, they are built on the
library's duals and interpreter and share nothing with the straight-line
code of ``geometry.metric_nodes`` that they cross-check.  The
vectorised consumers of dense trajectory output are checked against the
one-point-at-a-time loops they replaced, which live here as references, the
monodromy matrix against the augmented system that carried the variational
equations in the state, the intersection scan's sort-and-sweep against the
all-pairs candidate generator, its cover rule against the candidate
search it replaced, and its step pieces against the resampled polyline
that it swept before.  The flow's solve route, which solves g a = -c and
g DA = -(dc + dg a) by a pivoting solve at every call, is the reference for
the generated flow and J W, which eliminate in the code; the fold that
inverted a constant g at build time is the reference for the identity
metric's generated lines.  A Runge-Kutta pair run as a loop over its
stages (:func:`stage_loop_rk`) is the reference for the generated DOP853
step and interpolant, bit for bit, and with the Dormand-Prince 5(4) pair
and Shampine's interpolant, which the library used before DOP853, the
reference for differential tests of the library's orbits.  A brake
orbit's closed run and self-scan over its full period are the references
for the half run with its reflection and for the scan of its arc.  The
oscillator's closed forms that only tests lean on live here too: its
linearized fields, the resonant family of periodic orbits with its energy,
and the member-by-member check of the family against the equations of
motion.
"""

from __future__ import annotations

import functools
import math
import random
import re
from dataclasses import dataclass, replace

import numpy as np

from orbitlab import expr as ex
from orbitlab import geometry as geo
from orbitlab import intersect as isect
from orbitlab import orbits as orb
from orbitlab import reference as ref
from orbitlab import rk
from orbitlab.dynamics import (
    PhaseState,
    PotentialField,
    SystemSpec,
    integrate,
    kinetic_minimum_event,
    lagrange_rhs,
    state_rhs_jvp,
    total_energy,
)


def central_diff(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_gradient(f, x, h: float = 1e-5):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def fd_second(f, x, i: int, j: int, h: float = 1e-4) -> float:
    x = np.asarray(x, dtype=float)
    ei = np.zeros_like(x)
    ej = np.zeros_like(x)
    ei[i] = h
    ej[j] = h
    return (
        f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
    ) / (4.0 * h * h)


def fd_third(f, x, i: int, j: int, k: int, h: float = 1e-3) -> float:
    """Third mixed partial by nesting a central difference over fd_second."""
    x = np.asarray(x, dtype=float)
    ek = np.zeros_like(x)
    ek[k] = h
    return (
        fd_second(f, x + ek, i, j, h) - fd_second(f, x - ek, i, j, h)
    ) / (2.0 * h)


# ---------------------------------------------------------------------------
# Random expression generator (seeded, grammar-complete)
# ---------------------------------------------------------------------------

def random_expression(rng: random.Random, dimension: int, depth: int = 3) -> ex.ExprNode:
    """Random tree from the expression grammar, biased towards smooth points.

    log and sqrt arguments are wrapped as (1 + u^2) so that evaluation stays
    inside the domain for arbitrary finite points.
    """
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            c = round(rng.uniform(-2.0, 2.0), 3)
            # parse() canonicalizes "-c" as neg(Const(c)); mirror that shape
            return ex.neg(ex.Const(-c)) if c < 0 else ex.Const(c)
        return ex.Var(rng.randrange(2 * dimension))
    choice = rng.random()
    if choice < 0.5:
        op = rng.choice(["add", "sub", "mul", "div"])
        left = random_expression(rng, dimension, depth - 1)
        right = random_expression(rng, dimension, depth - 1)
        if op == "div":
            # keep denominators away from zero
            right = ex.add(ex.Const(2.0), ex.mul(right, right))
        return ex.Binary(op, left, right)
    if choice < 0.7:
        base = random_expression(rng, dimension, depth - 1)
        exponent = rng.choice([2.0, 3.0, 4.0])
        return ex.powc(base, exponent)
    op = rng.choice(["neg", "sin", "cos", "exp", "log", "sqrt"])
    arg = random_expression(rng, dimension, depth - 1)
    if op in ("log", "sqrt"):
        arg = ex.add(ex.Const(1.0), ex.mul(arg, arg))
    if op == "exp":
        # tame the magnitude so nested exp stays finite
        arg = ex.mul(ex.Const(0.1), ex.Unary("sin", arg))
    return ex.Unary(op, arg)


def dual_first_vs_fd_samples(n_samples: int, seed: int = 0, h: float = 1e-5):
    """Yield (expr, point, direction, dual_first, fd_first) tuples."""
    rng = random.Random(seed)
    produced = 0
    while produced < n_samples:
        dim = rng.choice([1, 2, 3])
        node = random_expression(rng, dim, depth=3)
        point = [rng.uniform(-1.5, 1.5) for _ in range(2 * dim)]
        direction = rng.randrange(2 * dim)
        try:
            d = dual_scalar(node, point, [direction], order=1)

            def f(t):
                shifted = list(point)
                shifted[direction] = t
                return ex.evaluate(node, shifted)

            fd = central_diff(f, point[direction], h)
        except ex.EvalDomainError:
            continue
        if not np.isfinite(d.value) or not np.isfinite(fd):
            continue
        if abs(d.value) > 1e6 or abs(d.first[0]) > 1e6:
            continue  # wildly scaled samples drown the fd oracle in rounding
        produced += 1
        yield node, point, direction, d.first[0], fd


@dataclass
class DualScalar:
    """Result of a seeded dual evaluation at a plain-float point."""

    value: float
    first: list[float]
    second: list[list[float]] | None = None


def dual_scalar(node: ex.ExprNode, point, directions=None, order: int = 1) -> DualScalar:
    """Like ``ex.eval_dual`` but packaged as plain floats."""
    d = ex.eval_dual(node, point, directions, order)
    first = [ex.val_of(g) for g in d.grad]
    second = [[ex.val_of(h) for h in row] for row in d.hess] if order == 2 else None
    return DualScalar(ex.val_of(d.val), first, second)


# ---------------------------------------------------------------------------
# Geometry routes that only the tests use
# ---------------------------------------------------------------------------

def _dot(u, v):
    acc = u[0] * v[0]
    for i in range(1, len(u)):
        acc = acc + u[i] * v[i]
    return acc


def interpreted_f_squared(model, x, v):
    """F^2(x, v) by the interpreter over floats or (nested) duals; for a
    Riemannian model g_ij(x) v^i v^j, summed as v . (g v).  The reference for
    ``geo.f_squared``."""
    if model.kind == "finsler":
        return ex.evaluate(model.f2_expr, list(x) + list(v))
    values = list(x) + [0.0] * model.dimension
    g = [[ex.evaluate(e, values) for e in row] for row in model.g_exprs]
    return _dot(v, [_dot(row, v) for row in g])


def dual_solve_linear(a, b):
    """Gaussian elimination with partial pivoting on the float part, over
    floats or (nested) duals: a reference independent of ``geo.solve_linear``,
    which swaps no rows."""
    n = len(b)
    m = [list(row) for row in a]
    r = list(b)
    scale = max([abs(ex.val_of(e)) for row in m for e in row]) or 1.0
    for col in range(n):
        piv, big = col, abs(ex.val_of(m[col][col]))
        for i in range(col + 1, n):
            size = abs(ex.val_of(m[i][col]))
            if size > big:
                piv, big = i, size
        if big <= 1e-14 * scale:
            raise geo.SingularMatrixError("matrix is singular to working precision")
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


def _f2_nested(model, x, v, inner):
    """F^2 as an order-2 dual in all 2n coordinates (tag 1) over order-1
    seeds (tag 0) of the coordinates listed in ``inner``.

    Coefficient [a][b] of the Hessian is then d_a d_b F^2 with its first
    derivatives along ``inner`` as the inner dual's gradient.
    """
    n = model.dimension
    point = list(x) + list(v)
    for k, idx in enumerate(inner):
        point[idx] = ex.Dual.seed(point[idx], len(inner), k)
    seeds = [ex.Dual.seed(c, 2 * n, i, order=2, tag=1) for i, c in enumerate(point)]
    return interpreted_f_squared(model, seeds[:n], seeds[n:])


def _inner_grad(c, k):
    return c.grad[k] if isinstance(c, ex.Dual) else 0.0


def metric_x_derivatives(model, x, v):
    """(g, dg) with dg[l][i][j] = d g_ij(x, v) / d x^l at fixed v."""
    n = model.dimension
    hess = _f2_nested(model, x, v, range(n)).hess
    g = [[0.5 * ex.val_of(hess[n + i][n + j]) for j in range(n)] for i in range(n)]
    dg = [
        [[0.5 * _inner_grad(hess[n + i][n + j], l) for j in range(n)] for i in range(n)]
        for l in range(n)
    ]
    return g, dg


def cartan_tensor(model, x, v):
    """Fully symmetric Cartan tensor, one quarter of the third v-derivatives of F^2."""
    n = model.dimension
    hess = _f2_nested(model, x, v, range(n, 2 * n)).hess
    return [
        [[0.25 * _inner_grad(hess[n + i][n + j], k) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def christoffel_first(model, x, v):
    """gamma_ijl = (d_j g_li + d_i g_jl - d_l g_ij) / 2, indexed [i][j][l]."""
    n = model.dimension
    _, dg = metric_x_derivatives(model, x, v)
    return [
        [
            [0.5 * (dg[j][l][i] + dg[i][j][l] - dg[l][i][j]) for l in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]


def christoffel_second(model, x, v):
    """Gamma^k_ij = g^{kl} gamma_ijl, indexed [k][i][j]."""
    n = model.dimension
    g = interpreted_metric_and_spray(model, x, v)[0]
    gamma = christoffel_first(model, x, v)
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            col = dual_solve_linear(g, [gamma[i][j][l] for l in range(n)])
            for k in range(n):
                out[k][i][j] = col[k]
    return out


def geodesic_coefficients_via_christoffel(model, x, v):
    """G^k = Gamma^k_ij v^i v^j / 2, independent of ``geo.metric_and_spray``."""
    n = model.dimension
    gamma2 = christoffel_second(model, x, v)
    return [
        0.5 * sum(gamma2[k][i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        for k in range(n)
    ]


def legendre(model, x, v):
    """Fiberwise momentum map y = grad_v F^2 / 2, which is g(x, v) v by Euler's relation."""
    n = model.dimension
    seeds = [ex.Dual.seed(c, n, i) for i, c in enumerate(v)]
    return [0.5 * c for c in interpreted_f_squared(model, list(x), seeds).grad]


def legendre_inverse(model, x, y, max_iter: int = 50):
    """Invert the momentum map by damped Newton on y - g(x, v) v = 0.

    Its Jacobian is g(x, v) itself (the Cartan tensor contracts to zero with
    v); the start is the metric frozen at direction y, which is exact for a
    Riemannian model.
    """
    n = model.dimension
    if all(c == 0.0 for c in y):
        raise geo.ModelValidityError("legendre_inverse needs y != 0")
    tol = 1e-13 * (1.0 + max(abs(c) for c in y))

    def residual(v):
        yv = legendre(model, x, v)
        r = [y[i] - yv[i] for i in range(n)]
        return r, max(abs(c) for c in r)

    v = dual_solve_linear(interpreted_metric_and_spray(model, x, y)[0], y)
    r, rnorm = residual(v)
    for _ in range(max_iter):
        if rnorm <= tol:
            return v
        step = dual_solve_linear(interpreted_metric_and_spray(model, x, v)[0], r)
        alpha = 1.0
        while alpha >= 2.0**-24:
            v_try = [v[i] + alpha * step[i] for i in range(n)]
            r_try, rn_try = residual(v_try)
            if rn_try < rnorm or rn_try <= tol:
                v, r, rnorm = v_try, r_try, rn_try
                break
            alpha *= 0.5
        else:
            raise RuntimeError(f"Legendre inversion stalled (residual {rnorm:.3e})")
    raise RuntimeError(f"Legendre inversion did not converge (residual {rnorm:.3e})")


def hamilton_rhs(spec, x, y):
    """(xdot, ydot) of the Hamiltonian form; xdot via the Legendre inverse."""
    n = spec.dimension
    v = legendre_inverse(spec.metric, x, y)
    grad_u = spec.potential.gradient(x)
    f2 = interpreted_f_squared(spec.metric, [ex.Dual.seed(c, n, i) for i, c in enumerate(x)], v)
    df2dx = f2.grad if isinstance(f2, ex.Dual) else [0.0] * n
    return list(v), [0.5 * df2dx[i] - grad_u[i] for i in range(n)]


# ---------------------------------------------------------------------------
# The interpreter route to the flow
# ---------------------------------------------------------------------------

def _inner_tag(scalars) -> int:
    """A dual tag above every tag among ``scalars``, so seeds nest over them."""
    tags = [s.tag for s in scalars if isinstance(s, ex.Dual)]
    return max(tags) + 1 if tags else 0


def interpreted_value(potential, x):
    """U(x) by the interpreter."""
    return ex.evaluate(potential.node, list(x) + [0.0] * potential.dimension)


def interpreted_gradient(potential, x):
    """grad U(x) from one dual evaluation seeded in the position directions,
    nested over any duals in ``x``."""
    n = potential.dimension
    point = list(x) + [0.0] * n
    return list(ex.eval_dual(potential.node, point, range(n), 1, _inner_tag(x)).grad)


def interpreted_metric_and_spray(model, x, v):
    """(g, G) by the interpreter over (nested) duals.

    A Riemannian model gives g and its x-derivatives from order-1 duals of
    the coefficients, and 4 g G = (2 d_j g_li - d_l g_ij) v^i v^j; a Finsler
    model gives g and 4 g G = v^j d_j grad_v F^2 - grad_x F^2 from one
    order-2 dual of F^2 in all 2n directions.
    """
    n = model.dimension
    rhs = []
    if model.kind == "riemannian":
        values = list(x) + [0.0] * n
        tag = _inner_tag(x)
        duals = [[ex.eval_dual(e, values, range(n), 1, tag) for e in row] for row in model.g_exprs]
        g = [[d.val for d in row] for row in duals]
        for l in range(n):
            acc = 0.0
            for i in range(n):
                for j in range(n):
                    acc = acc + (2.0 * duals[l][i].grad[j] - duals[i][j].grad[l]) * v[i] * v[j]
            rhs.append(acc)
    else:
        point = list(x) + list(v)
        d = ex.eval_dual(model.f2_expr, point, None, 2, _inner_tag(point))
        g = [[0.5 * d.hess[n + i][n + j] for j in range(n)] for i in range(n)]
        for l in range(n):
            acc = -d.grad[l]
            for j in range(n):
                acc = acc + d.hess[j][n + l] * v[j]
            rhs.append(acc)
    return g, [0.25 * s for s in dual_solve_linear(g, rhs)]


def interpreted_acceleration(spec, x, v):
    """-2 G(x, v) - g^{-1}(x, v) grad U by the interpreter; at a Finsler rest
    point the spray is zero and g is taken in the direction -grad U."""
    model = spec.metric
    n = model.dimension
    grad_u = interpreted_gradient(spec.potential, x)
    if model.kind == "finsler" and all(ex.val_of(c) == 0.0 for c in v):
        g = interpreted_metric_and_spray(model, x, [-c for c in grad_u])[0]
        spray = [0.0] * n
    else:
        g, spray = interpreted_metric_and_spray(model, x, v)
    pull = dual_solve_linear(g, grad_u)
    return [-2.0 * spray[i] - pull[i] for i in range(n)]


@dataclass(frozen=True)
class _SolvedFlow(ex.Compiled):
    """A system's flow functions ``g_and_c`` = (g, c) and ``tangent`` =
    (g, c, dg, dc) for every metric kind, as ``SystemSpec`` built them before
    a constant metric's inverse was folded into its code."""

    spec: SystemSpec

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def _functions(self, graph):
        n = self.dimension
        f2, g, c = geo.metric_nodes(graph, self.spec.metric)
        u = graph.tree(self.spec.potential.node)
        c = [graph.add(c[l], graph.diff(u, l)) for l in range(n)]
        zs = range(2 * n)
        dg = [[[graph.diff(e, k) for e in row] for k in zs] for row in g]
        dc = [[graph.diff(e, k) for k in zs] for e in c]
        return [("g_and_c", 2 * n, [g, c], (f2, u)), ("tangent", 2 * n, [g, c, dg, dc], (f2, u))]


@functools.lru_cache(maxsize=None)
def _solved_flow(spec: SystemSpec) -> _SolvedFlow:
    return _SolvedFlow(spec)


def _solved_acceleration(spec, z: list, name: str = "g_and_c"):
    """``dynamics._acceleration`` as it was before the fold: g a = -c solved
    by ``geo.solve_linear`` at every call, for every metric."""
    n = spec.dimension
    rest = spec.metric.kind == "finsler" and not any(z[n:])
    if rest:
        grad_u = spec.potential.gradient(z[:n])
        if not any(grad_u):
            raise geo.ModelValidityError(
                "Finsler flow undefined at a rest point with vanishing grad U"
            )
        z = z[:n] + [-c for c in grad_u]
    out = _solved_flow(spec).run(name, z)
    metric = spec.metric
    if metric.kind == "riemannian" and not all(
            isinstance(e, ex.Const) for row in metric.g_exprs for e in row):
        # the eigenvalue check a Riemannian g with non-Const entries had then
        eigs, trace = np.linalg.eigvalsh(out[0]), float(np.trace(out[0]))
        if trace <= 0.0 or eigs[0] <= 1e-12 * trace:
            raise geo.ModelValidityError(
                f"fundamental tensor is not positive definite (min eigenvalue {eigs[0]:.3e})")
    return [-a for a in geo.solve_linear(out[0], grad_u if rest else out[1])], rest, out


@dataclass(frozen=True)
class _PotentialHessian(ex.Compiled):
    """The Hessian of U, row i the gradient of dU/dx_i, as
    ``PotentialField`` built it while the library had a use for it."""

    potential: PotentialField

    @property
    def dimension(self) -> int:
        return self.potential.dimension

    def _functions(self, graph):
        n = self.dimension
        u = graph.tree(self.potential.node)
        grad = [graph.diff(u, i) for i in range(n)]
        return [("hessian", n, [[graph.diff(d, j) for j in range(n)] for d in grad], (u,))]


@functools.lru_cache(maxsize=None)
def _potential_hessian(potential: PotentialField) -> _PotentialHessian:
    return _PotentialHessian(potential)


def solved_state_rhs_jvp(spec, z, w):
    """(f(z), J(z) W) by the solve route: ``dynamics.state_rhs_jvp`` as it was
    before the flow solved g a = -c in its generated code, with
    DA = -g^{-1} (dc + dg a) from ``np.linalg.solve`` at every call.

    The reference for the generated flow and J W.
    """
    z = list(map(float, z))
    w = np.asarray(w, dtype=float)
    n = spec.dimension
    a, rest, (g, _, dg, dc) = _solved_acceleration(spec, z, "tangent")
    dga = np.array(dg) @ a
    if rest:
        h = np.array(_potential_hessian(spec.potential).run("hessian", z[:n]))
        da = np.hstack([h + dga[:, :n] - dga[:, n:] @ h, np.zeros((n, n))])
    else:
        da = np.array(dc) + dga
    return z[n:] + a, np.vstack([w[n:], -np.linalg.solve(g, da @ w)])


@dataclass(frozen=True)
class _FoldedFlow(ex.Compiled):
    """A constant metric's ``tangent`` = (f, DA), f = [v; a] and
    DA = -g^{-1} dc, solved as ``SystemSpec`` solves them in its code
    (``expr.Graph.negated_solve``): the matrix whose products with W the
    generated J W expands."""

    spec: SystemSpec

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def _functions(self, graph):
        n = self.dimension
        f2, g, c = geo.metric_nodes(graph, self.spec.metric)
        u = graph.tree(self.spec.potential.node)
        c = [graph.add(c[l], graph.diff(u, l)) for l in range(n)]
        (a,), _ = graph.negated_solve(g, [c])
        columns, _ = graph.negated_solve(g, [[graph.diff(e, k) for e in c] for k in range(2 * n)])
        f = [graph.var(n + i) for i in range(n)] + a
        da = [list(row) for row in zip(*columns)]
        return [("tangent", 2 * n, [f, da], (f2, u))]


@functools.lru_cache(maxsize=None)
def folded_flow(spec: SystemSpec) -> _FoldedFlow:
    return _FoldedFlow(spec)


def folded_state_rhs_jvp(spec, z, w):
    """(f(z), J(z) W) of a constant metric in numpy: the fold build's
    ``tangent`` (``folded_flow``) gives f and DA = -g^{-1} dc, and
    J W = [W_v; DA W] is ``np.vstack`` over ``np.array(DA) @ W``, as
    ``dynamics.state_rhs_jvp`` computed it before J W was generated per
    tangent width.

    The reference for the generated J W.
    """
    z = list(map(float, z))
    w = np.asarray(w, dtype=float)
    f, da = folded_flow(spec).run("tangent", z)
    return f, np.vstack([w[spec.dimension:], np.array(da) @ w])


def inverse_fold_source(spec, width: int = 0) -> str:
    """``expr.Graph.source`` of a constant metric's ``flow`` of width 0 or m
    as ``SystemSpec`` built it when it inverted g once, at build time, and
    folded g^{-1} into the code: a = -g^{-1} c and
    DA = -g^{-1} dc as sums of products with constants, which for g = I fold
    to -c and -dc; J W = [W_v; DA W] expanded entry by entry, after f in
    one flat list."""
    n = spec.dimension
    graph = ex.Graph(n, width)
    f2, g, c = geo.metric_nodes(graph, spec.metric)
    u = graph.tree(spec.potential.node)
    c = [graph.add(c[l], graph.diff(u, l)) for l in range(n)]
    dc = [[graph.diff(e, k) for k in range(2 * n)] for e in c]
    g_value = [[graph.value(e) for e in row] for row in g]
    g_inv = list(zip(*[geo.solve_linear(g_value, e) for e in np.eye(n).tolist()]))

    def minus_g_inv(b):
        return [graph.neg(functools.reduce(graph.add, map(graph.mul, map(graph.const, row), b)))
                for row in g_inv]

    f = [graph.var(n + i) for i in range(n)] + minus_g_inv(c)
    if not width:
        return graph.source([("flow", 2 * n, f, (f2, u))])
    da = list(zip(*[minus_g_inv(column) for column in zip(*dc)]))
    w = graph.tangent()
    jw = [e for row in w[n:] for e in row]
    jw += [graph.dot(row, column) for row in da for column in zip(*w)]
    return graph.source([("flow", 2 * n, f + jw, (f2, u))])


def inlined_source(source: str, name: str) -> tuple[list[str], str]:
    """Function ``name`` of ``expr.Graph.source`` text with every ``t<k>``
    replaced by its line's expression, recursively: (the sorted expressions
    of its lines, its return expression).  Two builds of one computation
    give the same, whatever order they made their nodes in."""
    block = source.split(f"def {name}(")[1].split("\ndef ")[0]
    lines = dict(re.findall(r"^    (t\d+) = (.*)$", block, re.M))
    done: dict[str, str] = {}

    def expand(text):
        return re.sub(r"\bt\d+\b", lambda match: node(match.group()), text)

    def node(name):
        if name not in done:
            done[name] = f"({expand(lines[name])})"
        return done[name]

    returned = re.search(r"^    return (.*)$", block, re.M).group(1)
    return sorted(node(k) for k in lines), expand(returned)


def conformal_model(jm) -> geo.MetricModel:
    """The Jacobi metric ``jm`` as an expression-level MetricModel: the closed
    form psi(x) = 2 (E - U(x)) multiplying the base coefficients.  The
    reference route for ``jacobi_geodesic_coefficients``."""
    psi = ex.mul(ex.const(2.0), ex.sub(ex.const(jm.spec.energy), jm.spec.potential.node))
    base = jm.spec.metric
    if base.kind == "riemannian":
        entries = [
            [ex.mul(psi, base.g_exprs[i][j]) for j in range(base.dimension)]
            for i in range(base.dimension)
        ]
        return geo.MetricModel.riemannian(entries, base.space)
    return geo.MetricModel.finsler(ex.mul(psi, base.f2_expr), base.dimension, base.space)


def geodesic_flow_system(jm) -> SystemSpec:
    """Zero-potential system whose Lagrangian flow is the Fbar geodesic flow
    of the Jacobi metric ``jm``."""
    model = conformal_model(jm)
    return SystemSpec(model, PotentialField(ex.const(0.0), model.dimension), 0.5)


def two_run_reparametrize(rate, inverse_rate, a, b, rtol=1e-13):
    """Exchange of parameters old -> new with d(new)/d(old) = rate(old), by
    two dense runs at ``rtol``: new(old) over old in [a, b] from 0, whose end
    value is the total new length, then old(new) as a run of d(old)/d(new) =
    inverse_rate(old) over [0, total] from old = a.  Returns (forward run,
    inverse run).

    The reference for ``jacobi._Exchange``, which takes the same exchange by
    quadrature on the source's steps.  At rtol 1e-13 the forward run is the
    more accurate: on the orbits of ``test_jacobi``, the quadrature's total is
    within 4.4e-14 relative of it and its dense values within 1e-12 of the
    quadrature's; the inverse run's are within 1.3e-11.
    """
    fwd = rk.solve_rk45(
        lambda p, y: [rate(p)], (a, b), [0.0], rtol=rtol, atol=1e-14, dense=True
    )
    inv = rk.solve_rk45(
        lambda q, y: [inverse_rate(y[0])], (0.0, float(fwd.ys[-1, 0])), [a], rtol=rtol,
        atol=1e-14, dense=True,
    )
    return fwd, inv


# ---------------------------------------------------------------------------
# Scalar references for the vectorised dense-output consumers
# ---------------------------------------------------------------------------

def refine_pair(sa, sb, s0: float, t0: float, max_iter: int = 60):
    """One-start damped Newton on half the squared separation of two strands.

    The reference for ``intersect._refine_pair``: scalar dense-output calls,
    ``np.dot`` products, the 2x2 system solved by ``np.linalg.solve``.
    Returns (s, t, gap, ok).
    """
    space = sa.space
    s, t = s0, t0
    lam = 1e-10

    def gap_at(s, t):
        d = space.delta(sa.position(s), sb.position(t))
        return d, float(np.dot(d, d))

    d, f2 = gap_at(s, t)
    for _ in range(max_iter):
        vs = sa.velocity(s)
        vt = sb.velocity(t)
        acs = sa.acceleration(s)
        act = sb.acceleration(t)
        grad = np.array([float(np.dot(d, vs)), -float(np.dot(d, vt))])
        hess = np.array(
            [
                [float(np.dot(vs, vs) + np.dot(d, acs)), -float(np.dot(vs, vt))],
                [-float(np.dot(vs, vt)), float(np.dot(vt, vt) - np.dot(d, act))],
            ]
        )
        gnorm = float(np.max(np.abs(grad)))
        scale = max(np.linalg.norm(vs), np.linalg.norm(vt), 1e-12)
        if gnorm < 1e-14 * scale * (1.0 + math.sqrt(f2)):
            return s, t, math.sqrt(f2), True
        stepped = False
        for _ in range(25):
            try:
                step = np.linalg.solve(hess + lam * np.eye(2), -grad)
            except np.linalg.LinAlgError:
                lam = max(lam * 10.0, 1e-8)
                continue
            s_new, t_new = s + step[0], t + step[1]
            d_new, f2_new = gap_at(s_new, t_new)
            if f2_new <= f2 * (1.0 + 1e-15) + 1e-300:
                improved = f2 - f2_new
                s, t, d, f2 = s_new, t_new, d_new, f2_new
                lam = max(lam * 0.3, 1e-12)
                stepped = True
                if improved <= 1e-16 * (1.0 + f2):
                    return s, t, math.sqrt(f2), True
                break
            lam = max(lam * 10.0, 1e-8)
        if not stepped:
            return s, t, math.sqrt(f2), False
    return s, t, math.sqrt(f2), False


def rotation_seed_scan(spec, traj, z0, t_guard, threshold):
    """First near-return time on a uniform dense grid, one state call per point.

    The reference for ``orbits._rotation_seed_scan``.
    """
    n = spec.dimension
    ts = np.linspace(traj.t0, traj.t1, 4096)
    dists = np.empty(len(ts))
    for i, t in enumerate(ts):
        z = traj.state(float(t))
        dx = spec.metric.space.delta(z[:n], z0[:n])
        dv = np.asarray(z[n:]) - np.asarray(z0[n:])
        dists[i] = float(np.sqrt(np.dot(dx, dx) + np.dot(dv, dv)))
    for k in range(2, len(ts) - 1):
        if ts[k] < t_guard:
            continue
        if dists[k] < threshold and dists[k] <= dists[k - 1] and dists[k] < dists[k + 1]:
            return float(ts[k])
    return None


def dual_rotation_chart(spec, section_basis, z):
    """(z0, W0, lift) of ``orbits._rotation_chart`` from order-1 dual seeds of
    the unknowns u = (a, b): the lift x0 = x_a + S a, v0 = c d / |d| with
    d = d_a + B b and c = sqrt(2 (E - U(x0)) / F^2(x0, d / |d|)), evaluated
    by the interpreter, and W0 its dual gradient at u = 0."""
    n = spec.dimension
    m = 2 * (n - 1)
    x_anchor = z[:n]
    d_anchor = z[n:] / np.linalg.norm(z[n:])
    d_basis = orb._complement_basis(d_anchor)

    def build_initial(u):
        a, b = u[: n - 1], u[n - 1 :]
        x0 = [x_anchor[i] + _dot(list(section_basis[i]), a) for i in range(n)]
        d = [d_anchor[i] + _dot(list(d_basis[i]), b) for i in range(n)]
        norm = _dot(d, d) ** 0.5
        dn = [c / norm for c in d]
        u_val = ex.evaluate(spec.potential.node, x0)
        c = (2.0 * (spec.energy - u_val) / interpreted_f_squared(spec.metric, x0, dn)) ** 0.5
        return x0 + [c * dc for dc in dn]

    z_d = build_initial([ex.Dual.seed(0.0, m, i) for i in range(m)])
    z0 = np.array([ex.val_of(c) for c in z_d])
    w0 = np.array([[ex.val_of(g) for g in c.grad] for c in z_d])
    return z0, w0, lambda u: np.array(build_initial(list(u)), dtype=float)


def augmented_monodromy(spec, orbit, periods: int = 1):
    """M over ``periods`` full periods from one plain run, at the integrator's
    default tolerances, of the augmented system: M' = J(z) M stacked under
    the flow as one state [z; M row by row] of 2n + 4n^2 components.

    The reference for ``orbits.monodromy``.
    """
    dim = 2 * spec.dimension

    def f(t, y):
        dz, dm = state_rhs_jvp(spec, y[:dim], np.reshape(y[dim:], (dim, dim)))
        return dz + dm.ravel().tolist()

    y0 = np.concatenate([orbit.trajectory.states[0], np.eye(dim).ravel()])
    res = rk.solve_rk45(f, (0.0, periods * orbit.period), y0, dense=False)
    return np.reshape(res.ys[-1, dim:], (dim, dim))


def _terms(coefficients, values) -> float:
    """sum_l c_l v_l over the nonzero c_l, in order, started from 0.0: the
    order of every sum of the generated step."""
    acc = 0.0
    for c, v in zip(coefficients, values):
        if c != 0.0:
            acc = acc + c * v
    return acc


@dataclass(frozen=True)
class Pair:
    """An embedded Runge-Kutta pair as :func:`stage_loop_rk` runs it.

    ``c`` and ``a`` are its stage times and rows, row ``solution`` the
    weights of the new state, whose stage is f there.  An attempted step
    takes f at stages 0 to ``stages`` - 1: past ``solution`` for a pair
    whose error reads f at the new state (first same as last), short of it
    for one that takes it only once the step is accepted.
    ``error(h, y, y_new, k, e, rtol, atol)`` is the error norm of a step
    from its stages' f values; ``interpolant(f, t, h, y, y_new, k)``, with
    f at the new state at index ``solution`` of k, gives the step's
    power-basis coefficients (d x degree), the states of any stages it
    adds and their f values.  ``defect(f, t, h, y, y_new, q, e, rtol,
    atol)``, None for a pair without defect control, gives the
    interpolant's midpoint state and its defect there in the error norm;
    a defect above 1 rejects the step.  The rest are the controller's
    constants.
    """

    c: tuple
    a: tuple
    solution: int
    stages: int
    error: object
    interpolant: object
    defect: object
    expo: float
    beta: float
    safety: float
    min_factor: float
    max_factor: float


def _dop853_error(h, y, y_new, k, e, rtol, atol) -> float:
    """Hairer's DOP853 norm: h |e5|^2 / sqrt(e (|e5|^2 + 0.01 |e3|^2))."""
    acc5 = acc3 = 0.0
    for i in range(e):
        ki = [k[l][i] for l in range(12)]
        scale = atol + rtol * max(abs(y[i]), abs(y_new[i]))
        q = _terms(rk._E5, ki) / scale
        acc5 += q * q
        q = (_terms(rk._A[12], ki) - _terms(rk._BHH, ki)) / scale
        acc3 += q * q
    deno = acc5 + 0.01 * acc3
    if deno == 0.0:
        return 0.0
    return h * acc5 / math.sqrt(e * deno) if deno < math.inf else math.nan


def _stage_state(a, h, y, k):
    """y + h sum_l a_l k_l, entry by entry."""
    return [y[i] + h * _terms(a, [kl[i] for kl in k]) for i in range(len(y))]


def _dop853_interpolant(f, t, h, y, y_new, k):
    """Stages 13-15, then Hairer's r_0..r_6 and their power-basis sums."""
    k = list(k)
    states = []
    for s in range(13, 16):
        states.append(_stage_state(rk._A[s], h, y, k))
        k.append(f(t + rk._C[s] * h, states[-1]))
    q = []
    for i in range(len(y)):
        r0 = (y_new[i] - y[i]) / h
        r1 = k[0][i] - r0
        r = [r0, r1, r0 - k[12][i] - r1] + [_terms(row, [kl[i] for kl in k]) for row in rk._D]
        q.append([_terms(p, r) for p in rk._TO_POWERS])
    return np.array(q), states, k[13:]


def _dop853_defect(f, t, h, y, y_new, q, e, rtol, atol):
    """(u(1/2), h |u'(1/2) - f(u(1/2))| in the error norm) of the step's
    interpolant u."""
    mid = [y[i] + h * _terms(rk._MID, row) for i, row in enumerate(q.tolist())]
    slope = [_terms(rk._MID_SLOPE, row) for row in q.tolist()]
    km = f(t + 0.5 * h, mid)
    acc = 0.0
    for i in range(e):
        r = (slope[i] - km[i]) / (atol + rtol * max(abs(y[i]), abs(y_new[i])))
        acc += r * r
    return mid, h * math.sqrt(acc / e)


DOP853 = Pair(rk._C, rk._A, 12, 12, _dop853_error, _dop853_interpolant, _dop853_defect,
              rk._EXPO, rk._BETA, rk._SAFETY, rk._MIN_FACTOR, rk._MAX_FACTOR)

# the Dormand-Prince 5(4) pair and Shampine's quartic interpolant for it,
# which the library's stepper used before DOP853
DP5_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
DP5_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
# difference between the 5th- and embedded 4th-order weights
DP5_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
         22.0 / 525.0, -1.0 / 40.0)
DP5_P = np.array([
    [1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0],
    [0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0],
    [0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0],
    [0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0],
    [0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0],
])


def error_norm(err, y0, y1, rtol, atol) -> float:
    """RMS of the scaled error, accumulated in the order of the entries."""
    acc = 0.0
    for e, a, b in zip(err, y0, y1):
        q = e / (atol + rtol * max(abs(a), abs(b)))
        acc += q * q
    return math.sqrt(acc / len(err))


def _dp5_error(h, y, y_new, k, e, rtol, atol) -> float:
    err = [h * _terms(DP5_E, [kl[i] for kl in k]) for i in range(e)]
    return error_norm(err, y, y_new, rtol, atol)


DP5 = Pair(DP5_C, DP5_A, 6, 7, _dp5_error,
           lambda f, t, h, y, y_new, k: (np.array(k).T @ DP5_P, [], []), None,
           0.2 - 0.75 * 0.04, 0.04, 0.9, 0.1, 5.0)


def _non_finite_stage(pair, t, h, k, stage_y, default):
    """``rk._non_finite_stage`` for the stage times of ``pair``."""
    s = next((s for s in range(len(k)) if not all(map(math.isfinite, k[s]))), default)
    t_bad = t + pair.c[s] * h
    return rk.IntegrationError(
        f"non-finite right-hand side at t={t_bad!r}", t=t_bad, y=np.array(stage_y[s])
    )


def stage_loop_rk(
    f,
    t_span,
    y0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    events: tuple = (),
    dense: bool = True,
    control: int | None = None,
    pair: Pair = DOP853,
) -> rk.RKResult:
    """``rk.solve_rk45`` as a loop over the stages of ``pair``: with
    :data:`DOP853` the reference for the generated step and interpolant,
    with :data:`DP5` the 5(4) pair they replaced.  Same arguments and
    result; it lacks the entry checks on ``control`` and on the shape of
    f(t0, y0), and both pairs take the library's first step
    (``rk._initial_step``, whose exponent is DOP853's 1/8).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got ({t0!r}, {t1!r})")
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    if not 1e-13 <= rtol < math.inf:
        raise ValueError(f"relative tolerance must be finite and at least 1e-13, got {rtol!r}")
    if not 0.0 < atol < math.inf:
        raise ValueError(f"absolute tolerance must be finite and positive, got {atol!r}")
    y = [float(c) for c in y0]
    d = len(y)
    if d == 0:
        raise ValueError("the state needs at least one component")
    e = d if control is None else control
    new = pair.solution

    result = rk.RKResult(ts=np.empty(0), ys=np.empty((0, d)))
    ts = [t0]
    ys = [np.array(y)]
    hs, qs = [], []  # length and interpolant coefficients of each accepted step

    t = t0
    fv = f(t, y)
    h = rk._initial_step(f, t0, y, fv, t1, rtol, atol, e)
    facold = 1e-4
    g_prev = [ev.fn(t, ys[0]) for ev in events]
    finished = False

    while not finished:
        if h < 1e-14 * max(abs(t), 1.0):
            raise rk.IntegrationError(f"step size underflow at t={t!r}", t=t, y=np.array(y))
        if result.n_accepted + result.n_rejected >= rk._MAX_STEPS:
            raise rk.IntegrationError(
                f"step cap of {rk._MAX_STEPS} steps reached at t={t!r}", t=t, y=np.array(y)
            )
        if t + h >= t1:
            h = t1 - t
            finished = True

        k, stage_y = [fv], [y]
        for s in range(1, new + 1):
            stage_y.append(_stage_state(pair.a[s], h, y, k))
            if s < pair.stages:
                k.append(f(t + pair.c[s] * h, stage_y[s]))
        y_new = stage_y[new]
        err = pair.error(h, y, y_new, k, e, rtol, atol)
        if not math.isfinite(err):
            raise _non_finite_stage(pair, t, h, k, stage_y, 0)

        if err > 1.0:
            # reject: shrink and retry
            fac11 = err**pair.expo
            h = h / min(1.0 / pair.min_factor, fac11 / pair.safety)
            finished = False
            result.n_rejected += 1
            continue
        if not all(map(math.isfinite, y_new[e:])):
            raise _non_finite_stage(pair, t, h, k, stage_y, new)

        t_new = t + h
        y_new_arr = np.array(y_new)
        if dense or events:
            if len(k) == new:
                k.append(f(t_new, y_new))
            fv = k[new]
            q, extra_y, extra_k = pair.interpolant(f, t, h, y, y_new, k)
            if not np.isfinite(q).all():
                raise _non_finite_stage(pair, t, h, k + extra_k, stage_y + extra_y, new)
            if pair.defect is not None:
                mid, defect = pair.defect(f, t, h, y, y_new, q, e, rtol, atol)
                if not math.isfinite(defect):
                    t_mid = t + 0.5 * h
                    raise rk.IntegrationError(
                        f"non-finite right-hand side at t={t_mid!r}", t=t_mid, y=np.array(mid)
                    )
                if defect > 1.0:
                    h = h / min(1.0 / pair.min_factor, defect**pair.expo / pair.safety)
                    fv = k[0]
                    finished = False
                    result.n_rejected += 1
                    continue
            if dense:
                hs.append(h)
                qs.append(q)
        elif len(k) > new:
            fv = k[new]
        elif not finished:
            fv = f(t_new, y_new)
        result.n_accepted += 1

        stop_at = None
        if events:
            g_new = [ev.fn(t_new, y_new_arr) for ev in events]
            hits_here = []
            for idx, ev in enumerate(events):
                g0, g1 = g_prev[idx], g_new[idx]
                if g0 == 0.0 or np.sign(g0) == np.sign(g1):
                    continue
                rising = g1 > g0
                if ev.direction == 1 and not rising:
                    continue
                if ev.direction == -1 and rising:
                    continue
                t_ev, y_ev = rk._bisect_event(ev.fn, t, h, ys[-1], q, g0)
                hits_here.append((t_ev, idx, y_ev))
            for t_ev, idx, y_ev in sorted(hits_here):
                result.events.append(rk.EventHit(idx, t_ev, y_ev))
                if events[idx].terminal:
                    stop_at = (t_ev, y_ev)
                    break
            g_prev = g_new

        if stop_at is not None:
            t_stop, y_stop = stop_at
            if dense:  # the step is cut at the event
                hs[-1] = t_stop - t
                qs[-1] = q * (hs[-1] / h) ** np.arange(q.shape[-1])
            t = t_stop
            ts.append(t)
            ys.append(y_stop)
            finished = True
        else:
            t = t_new
            y = y_new
            ts.append(t)
            ys.append(y_new_arr)

        # PI step-size controller
        fac11 = max(err, 1e-10) ** pair.expo
        fac = fac11 / (facold**pair.beta)
        fac = max(1.0 / pair.max_factor, min(1.0 / pair.min_factor, fac / pair.safety))
        h = h / fac
        facold = max(err, 1e-4)

    result.ts = np.array(ts)
    result.ys = np.array(ys)
    if dense:
        result.dense = rk.DenseOutput(result.ts, result.ys, np.array(hs), np.array(qs))
    return result


def brute_candidates(strand_a, strand_b, margin: float):
    """All piece pairs whose inflated boxes overlap (minimal-image aware)
    and whose capsules meet.

    The reference for ``intersect._candidates``, with the same
    arguments and result.  Row-chunked so the N^2 broadcast stays
    memory-bounded.
    """
    same = strand_b is None
    if same:
        strand_b = strand_a
    ca, ea = strand_a.centres, strand_a.half
    cb, eb = strand_b.centres, strand_b.half
    out = []
    chunk = max(1, 2**22 // max(len(cb) * cb.shape[1], 1))  # rows x columns x dimension
    for start in range(0, len(ca), chunk):
        stop = min(start + chunk, len(ca))
        overlap = isect._boxes_overlap(
            ca[start:stop, None, :], ea[start:stop, None, :], cb[None], eb[None],
            strand_a.space, margin,
        )
        ii, jj = np.nonzero(overlap)
        ii = ii + start
        if same:
            mask = ii < jj
            ii, jj = ii[mask], jj[mask]
        meet = isect._capsules_meet(strand_a, ii, strand_b, jj, margin)
        out.extend(zip(ii[meet].tolist(), jj[meet].tolist()))
    return sorted(out)


def _circular_gap(a: float, b: float, period: float) -> float:
    d = abs(math.fmod(a - b, period))
    return min(d, period - d)


def scan_by_search(strand_a, strand_b):
    """The intersection scan that tests each candidate against every pair
    recorded so far when the candidate comes up.

    The reference for ``intersect._scan``, which instead retires the
    candidates a pair covers when the pair is recorded.  It shares the
    candidate generator (looked up at call time, so a test may swap it),
    the refinement, the angle test and the strands' pieces and image map
    (``_Strand.piece``, ``pieces_apart``, ``one_point`` and ``images``)
    with the library.
    It records the pairs found on the strands and maps them to their images
    over the full periods at the end, and reports every near miss as found,
    without merging runs.  On a ring strand of a brake orbit
    (:func:`full_period_strand`) it is the full-period scan, which tells the
    retrace line s + t = 0 by its position as well as by antiparallel
    velocities.
    """
    same = strand_b is None
    sb = strand_a if same else strand_b
    tol_space = 1e-6 * max(strand_a.scale, sb.scale)
    reject_gap = isect._NEAR_MISS_FACTOR * tol_space
    candidates = isect._candidates(strand_a, strand_b, reject_gap)
    pa = strand_a.period
    accepted, unresolved = [], []

    def near_existing(i, j):
        def windows(p):
            near_s = strand_a.pieces_apart(i, strand_a.piece(p.s)) <= 1
            return near_s and sb.pieces_apart(j, sb.piece(p.t)) <= 1

        for p in accepted:
            if p.kind == "reversal" and same:
                key = math.fmod(strand_a.ts[i] + 0.5 * strand_a.h[i] + sb.ts[j] + 0.5 * sb.h[j], pa)
                if _circular_gap(key, p.s + p.t, pa) < strand_a.h[i] + sb.h[j]:
                    return True
            elif windows(p):
                return True
        return any(windows(p) for p in unresolved)

    def kind_at(s, t):
        rel = isect._classify_angle(strand_a.velocity(s), sb.velocity(t))
        if not same:
            return "tangential" if rel != "transversal" else "double_point"
        retrace = _circular_gap(s + t, 0.0, pa) < 1e-6 * pa
        if rel == "antiparallel" or (strand_a.orbit.kind == "brake" and retrace):
            return "reversal"
        return "tangential" if rel == "parallel" else "double_point"

    def classify(s, t, gap, ok):
        s, t = strand_a.fold(s), sb.fold(t)
        if same and strand_a.one_point(s, t, reject_gap):
            return
        if same and strand_a.arc:
            s, t = min(s, t), max(s, t)
        point = strand_a.space.wrap(strand_a.position(s))
        if not ok and gap > tol_space:
            unresolved.append(isect.IntersectionPair(s, t, point, "stalled", gap))
        elif gap <= tol_space:
            accepted.append(isect.IntersectionPair(s, t, point, kind_at(s, t), gap))
        elif gap <= reject_gap:
            unresolved.append(isect.IntersectionPair(s, t, point, "near_miss", gap))

    for i, j in candidates:
        if same and strand_a.pieces_apart(i, j) <= 1:
            continue
        if not near_existing(i, j):
            s_mid = float(strand_a.ts[i] + 0.5 * strand_a.h[i])
            t_mid = float(sb.ts[j] + 0.5 * sb.h[j])
            classify(*isect._refine_pair(strand_a, sb, s_mid, t_mid))

    def images(pairs):
        out = []
        for p in pairs:
            for s_image in strand_a.images(p.s, reject_gap):
                for t_image in sb.images(p.t, reject_gap):
                    s, t = s_image, t_image
                    if same and strand_a.arc:
                        s, t = min(s, t), max(s, t)
                    kind = p.kind if p.kind in ("stalled", "near_miss") else kind_at(s, t)
                    out.append(isect.IntersectionPair(s, t, p.point, kind, p.gap))
        return out

    accepted, unresolved = images(accepted), images(unresolved)
    if same and strand_a.arc:
        s, t = 0.25 * pa, 0.75 * pa
        xs, xt = strand_a.position(s), strand_a.position(t)
        gap = float(np.linalg.norm(strand_a.space.delta(xs, xt)))
        accepted.append(isect.IntersectionPair(s, t, strand_a.space.wrap(xs), "reversal", gap))
    accepted.sort(key=lambda p: (p.s, p.t))
    unresolved.sort(key=lambda p: (p.s, p.t))

    dp_points = []
    for p in accepted:
        if p.kind == "double_point" and all(
            np.linalg.norm(strand_a.space.delta(p.point, q)) > 8.0 * tol_space for q in dp_points
        ):
            dp_points.append(p.point)
    keys = []
    for p in accepted:
        key = math.fmod(p.s + p.t, pa)
        window = strand_a.h[strand_a.piece(strand_a.fold(p.s))] + sb.h[sb.piece(sb.fold(p.t))]
        if p.kind == "reversal" and all(_circular_gap(key, k, pa) > window for k in keys):
            keys.append(key)
    return isect.IntersectionReport(
        pairs=accepted,
        unresolved=unresolved,
        dp_count=len(dp_points),
        reversal_count=len(keys),
        tangential_count=sum(1 for p in accepted if p.kind == "tangential"),
    )


class PolylineStrand(isect._Strand):
    """The strand the scan swept before it swept the integrator's steps: the
    dense output resampled at 1,024 equal time segments, doubled up to
    65,536 until no segment is longer than 1/512 of the largest extent,
    with the boxes of its chords.  Its tolerances' ``scale`` is the
    polyline's extent, capped per torus axis at the period, and an arc time
    t has the second image T - t unless within 6 segments of it.  With
    :func:`polyline_scan` it is a second reference for the scan."""

    def __init__(self, orbit):
        self.orbit = orbit
        self.space = orbit.spec.metric.space
        self.n = orbit.spec.dimension
        self.period = orbit.period
        self.arc = orbit.kind == "brake"
        self.span = self.period / 2 if self.arc else self.period
        pts = self._resample(1024)
        extent = np.max(pts, axis=0) - np.min(pts, axis=0)
        self.diameter = max(float(np.max(extent)), 1e-12)
        periods = self.space.periods if self.space.kind == "torus" else math.inf
        self.scale = max(float(np.max(np.minimum(extent, periods))), 1e-12)
        count = 1024
        while count < 65536:
            if np.linalg.norm(np.diff(pts, axis=0), axis=1).max() <= self.diameter / 512.0:
                break
            count *= 2
            pts = self._resample(count)
        self.ts = np.linspace(0.0, self.span, len(pts))
        self.dt = self.span / count
        self.pts = pts
        lo, hi = np.minimum(pts[:-1], pts[1:]), np.maximum(pts[:-1], pts[1:])
        self.centres, self.half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        # infinite radii: its candidates are those of the boxes alone
        self.chords, self.radius = (pts[:-1], pts[1:]), np.full(count, math.inf)

    def _resample(self, count: int) -> np.ndarray:
        return self.orbit.trajectory.position(np.linspace(0.0, self.span, count + 1))

    def images(self, t: float) -> list[float]:
        if self.arc and min(2.0 * t, self.period - 2.0 * t) >= 6 * self.dt:
            return [t, self.period - t]
        return [t]


def polyline_scan(strand_a, strand_b):
    """The scan as it ran on :class:`PolylineStrand`, its rules counted in
    segments: a self-scan drops pairs of segments within 4 of each other
    (around the ring of a closed strand) and takes a refined pair with s
    and t within 4 segments to have collapsed onto the diagonal; refinement
    starts at the segments' midpoints; a recorded reversal retires the
    candidates whose s + t lies within 6 segments of its own, any other pair
    those within 6 segments of it in both s and t; near misses merge within
    12 segments, and reversal keys count as distinct beyond 6.  It shares
    the sweep, the refinement, the angle test and the merge with the
    library."""
    same = strand_b is None
    sb = strand_a if same else strand_b
    space = strand_a.space
    tol_space = 1e-6 * max(strand_a.scale, sb.scale)
    reject_gap = isect._NEAR_MISS_FACTOR * tol_space
    pa, pb = strand_a.period, sb.period
    n_seg_a = len(strand_a.pts) - 1
    dt_a, dt_b = strand_a.dt, sb.dt

    candidates = isect._candidates(strand_a, strand_b, reject_gap)
    i, j = np.array(candidates, dtype=np.int64).reshape(-1, 2).T
    if same:
        ring = np.abs(i - j)
        keep = (ring if strand_a.arc else np.minimum(ring, n_seg_a - ring)) > 4
        i, j = i[keep], j[keep]
    s_mid = strand_a.ts[i] + 0.5 * dt_a
    t_mid = sb.ts[j] + 0.5 * dt_b

    def covers(p):
        if p.kind == "reversal":
            key = np.fmod(s_mid + t_mid, pa)
            return isect._param_gap_circular(key, p.s + p.t, pa) < 6 * dt_a
        near_s = isect._param_gap_circular(s_mid, p.s, pa) < 6 * dt_a
        return near_s & (isect._param_gap_circular(t_mid, p.t, pb) < 6 * dt_b)

    def classify(s, t, gap, ok):
        s, t = strand_a.fold(s), sb.fold(t)
        if same and isect._param_gap_circular(s, t, pa) < 4 * dt_a:
            return []
        if not ok and gap > tol_space:
            kind = "stalled"
        elif gap <= tol_space:
            kind = None
        elif gap <= reject_gap:
            kind = "near_miss"
        else:
            return []
        point = space.wrap(strand_a.position(s))
        pairs = []
        for s_image in strand_a.images(s):
            for t_image in sb.images(t):
                if same and strand_a.arc:
                    s_image, t_image = sorted((s_image, t_image))
                rel = isect._classify_angle(strand_a.velocity(s_image), sb.velocity(t_image))
                pairs.append(isect.IntersectionPair(
                    s_image, t_image, point, kind or isect._kind(rel, same), gap))
        return pairs

    live = np.ones(len(s_mid), dtype=bool)
    accepted, unresolved = [], []
    for c in range(len(s_mid)):
        if live[c]:
            pairs = classify(*isect._refine_pair(strand_a, sb, float(s_mid[c]), float(t_mid[c])))
            if pairs:
                found = unresolved if pairs[0].kind in ("stalled", "near_miss") else accepted
                found += pairs
                live &= ~covers(pairs[0])
    if same and strand_a.arc:
        s, t = 0.25 * pa, 0.75 * pa
        x_s = strand_a.position(s)
        gap = float(np.linalg.norm(space.delta(x_s, strand_a.position(t))))
        accepted.append(isect.IntersectionPair(s, t, space.wrap(x_s), "reversal", gap))
    accepted.sort(key=lambda p: (p.s, p.t))
    unresolved = isect._merge_near_misses(
        unresolved, lambda p, q: isect._param_gap_circular(p.s, q.s, pa) < 12 * dt_a
        and isect._param_gap_circular(p.t, q.t, pb) < 12 * dt_b)
    dp_points, keys = [], []
    for p in accepted:
        if p.kind == "double_point" and all(
            np.linalg.norm(space.delta(p.point, q)) > 8.0 * tol_space for q in dp_points
        ):
            dp_points.append(p.point)
        key = math.fmod(p.s + p.t, pa)
        if p.kind == "reversal" and all(_circular_gap(key, k, pa) > 6 * dt_a for k in keys):
            keys.append(key)
    return isect.IntersectionReport(
        pairs=accepted,
        unresolved=unresolved,
        dp_count=len(dp_points),
        reversal_count=len(keys),
        tangential_count=sum(1 for p in accepted if p.kind == "tangential"),
    )


def full_period_strand(orbit):
    """A brake orbit's strand as the closed ring of pieces over its full
    period, the strand the scan swept before a brake strand became its arc."""
    strand = isect._Strand(replace(orbit, kind="rotation"))
    strand.orbit = orbit
    return strand


def full_period_self_scan(orbit):
    """A brake orbit's self-scan over its full period: the reference for
    the scan of its arc and the arc's images."""
    return scan_by_search(full_period_strand(orbit), None)


def full_period_brake_run(orbit):
    """A brake orbit's closed run as one dense run over its full period at
    the orbit's tolerances, with the kinetic-energy-minimum event: the
    reference for the half run and its reflection that ``find_brake``
    returns."""
    spec = orbit.spec
    return integrate(
        spec, PhaseState.from_flat(orbit.trajectory.states[0]), (0.0, orbit.period),
        rtol=orb._RTOL, atol=orb._ATOL, events=(kinetic_minimum_event(spec),),
    )


# ---------------------------------------------------------------------------
# Closed forms of the harmonic oscillator that only tests lean on
# ---------------------------------------------------------------------------

def jacobi_field_closed_form(osc, v0, vdot0, t: float) -> np.ndarray:
    """Linearized (Jacobi) field of the oscillator ``osc``
    (``reference.OscillatorSpec``) at time t from its initial position part
    ``v0`` and velocity part ``vdot0``.  The oscillator is linear, so the
    field is the same along every orbit.

    Each component solves w'' + alpha_i^2 w = 0, so
    w^i(t) = w^i(0) cos(alpha_i t) + (wdot^i(0)/alpha_i) sin(alpha_i t).
    The 1/alpha_i factor is required for the initial derivative to come out
    right; the commonly quoted form without it fails that check.
    """
    v0 = np.asarray(v0, dtype=float)
    vdot0 = np.asarray(vdot0, dtype=float)
    out = np.zeros(osc.n)
    for i, a in enumerate(osc.alphas):
        out[i] = v0[i] * math.cos(a * t) + (vdot0[i] / a) * math.sin(a * t)
    return out


def base_frequency(osc, resonance) -> float:
    """Common base frequency w of a 2-DOF oscillator in resonance m1:m2,
    alpha_1 = m1 w and alpha_2 = m2 w; coprime integers that do not match
    the frequencies raise ValueError."""
    m1, m2 = resonance
    if math.gcd(m1, m2) != 1:
        raise ValueError("resonance integers must be coprime")
    base1, base2 = osc.alphas[0] / m1, osc.alphas[1] / m2
    if abs(base1 - base2) > 1e-12 * (1 + abs(base1)):
        raise ValueError("declared resonance does not match the frequencies")
    return base1


def lissajous_family(osc, resonance, a1: float, a2: float, s: float, t: float) -> PhaseState:
    """Member of the resonant one-parameter family of periodic orbits.

    x^1(t) = a1 (cos s cos(m1 w t) + sin s sin(m1 w t)), x^2 = a2 cos(m2 w t)
    with (m1, m2) = ``resonance`` and w the common base frequency
    (:func:`base_frequency`); every member has minimal period 2 pi / w.  The
    energy of every member is (alpha_1^2 a1^2 + alpha_2^2 a2^2) / 2,
    independent of s (:func:`lissajous_energy`) -- the published value
    disagrees with direct substitution into H, which fixes the quadratic
    frequency factors.
    """
    m1, m2 = resonance
    w = base_frequency(osc, resonance)
    x = np.zeros(osc.n)
    v = np.zeros(osc.n)
    c1, s1 = math.cos(m1 * w * t), math.sin(m1 * w * t)
    x[0] = a1 * (math.cos(s) * c1 + math.sin(s) * s1)
    v[0] = a1 * m1 * w * (-math.cos(s) * s1 + math.sin(s) * c1)
    x[1] = a2 * math.cos(m2 * w * t)
    v[1] = -a2 * m2 * w * math.sin(m2 * w * t)
    return PhaseState(x, v)


def lissajous_energy(osc, a1: float, a2: float) -> float:
    """Energy of the resonant family by substitution into H."""
    return 0.5 * (osc.alphas[0] ** 2 * a1 * a1 + osc.alphas[1] ** 2 * a2 * a2)


@dataclass
class FamilyReport:
    s_values: tuple
    max_residual: float
    energy_spread: float
    period: float
    energies: list


def verify_degenerate_family(
    osc, resonance, a1: float = 1.0, a2: float = 0.5, s_values=(0.0, 0.3, 0.7),
    n_samples: int = 33,
) -> FamilyReport:
    """Check the resonant one-parameter family member-by-member.

    Every member must satisfy the equations of motion pointwise and share
    one energy and one minimal period across the family.
    """
    spec = ref.oscillator_system(osc)
    alphas = np.asarray(osc.alphas)
    period = 2.0 * math.pi / base_frequency(osc, resonance)
    max_res = 0.0
    energies = []
    for s in s_values:
        e_here = []
        for t in np.linspace(0.0, period, n_samples):
            st = lissajous_family(osc, resonance, a1, a2, s, float(t))
            acc = np.array(lagrange_rhs(spec, list(st.x), list(st.v)))
            exact = -(alphas**2) * st.x
            max_res = max(max_res, float(np.max(np.abs(acc - exact))))
            e_here.append(float(total_energy(spec, st.x, st.v)))
        energies.append(float(np.mean(e_here)))
    spread = max(energies) - min(energies)
    return FamilyReport(
        s_values=tuple(s_values),
        max_residual=max_res,
        energy_spread=spread,
        period=period,
        energies=energies,
    )
