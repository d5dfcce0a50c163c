"""Scalar expression trees with forward-mode automatic differentiation.

Expressions are written in a small fixed grammar over the position variables
``x1..x9`` and velocity variables ``v1..v9``::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | base ("^" number)?
    base   := number | ident | "(" expr ")" | func base
    func   := "sin" | "cos" | "exp" | "log" | "sqrt"

Exponents must be numeric constants.  Unary minus binds looser than "^"
(``-x1^2`` is ``-(x1^2)``), function application binds tighter
(``sin(x1)^2`` is ``(sin x1)^2``).

Evaluation works over plain floats or over :class:`Dual` scalars, which carry
directional derivatives of first or second order.  Duals may be nested (a
dual whose coefficients are themselves duals): an order-2 dual over order-1
seeds of another tag gives exact third derivatives of any composite numerical
routine built on them.

:class:`Graph` turns trees into straight-line Python (source transformation,
Griewank & Walther, *Evaluating Derivatives*, SIAM 2008).  It imports
trees into one hash-consed DAG, differentiates them symbolically with the
rules :class:`Dual` applies, folds constants, and compiles the functions it
is asked for once.  Each compiled function runs over floats, or over duals
with ``sin``/``cos``/``exp`` bound to the dispatching versions; value parts of
duals follow float arithmetic, so both runs give the same values.  Every
imported tree is computed in full, so the generated code raises
``ValueError``, ``ZeroDivisionError`` or ``OverflowError`` wherever a tree
leaves its domain.  :func:`run` calls the compiled code and names such a
failure, never answers it: it re-runs the imported trees at the failing
point through :func:`evaluate` and :func:`eval_dual`, whose errors name the
subexpression.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

__all__ = [
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Dual",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "Graph",
    "run",
    "scalars",
    "parse",
    "to_source",
    "variables_of",
    "evaluate",
    "eval_dual",
    "val_of",
    "const",
    "var",
    "add",
    "sub",
    "mul",
    "neg",
    "powc",
]


_DOMAIN_FAILURES = (ValueError, ZeroDivisionError, OverflowError)


class ExprError(Exception):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Raised when evaluation leaves a function's domain (log/sqrt/division)."""

    def __init__(self, message: str, node: "ExprNode"):
        super().__init__(f"{message} in subexpression '{to_source(node)}'")
        self.node = node


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    # 0..n-1 are x1..xn, n..2n-1 are v1..vn for the declared dimension n
    index: int


@dataclass(frozen=True)
class Unary:
    op: str  # neg, sin, cos, exp, log, sqrt
    arg: "ExprNode"


@dataclass(frozen=True)
class Binary:
    op: str  # add, sub, mul, div, pow (right child of pow is Const)
    left: "ExprNode"
    right: "ExprNode"


ExprNode = Const | Var | Unary | Binary

_FUNCS = ("sin", "cos", "exp", "log", "sqrt")


def const(value: float) -> Const:
    return Const(float(value))


def var(index: int) -> Var:
    return Var(index)


def add(a: ExprNode, b: ExprNode) -> Binary:
    return Binary("add", a, b)


def sub(a: ExprNode, b: ExprNode) -> Binary:
    return Binary("sub", a, b)


def mul(a: ExprNode, b: ExprNode) -> Binary:
    return Binary("mul", a, b)


def neg(a: ExprNode) -> Unary:
    return Unary("neg", a)


def powc(a: ExprNode, exponent: float) -> Binary:
    return Binary("pow", a, Const(float(exponent)))


def variables_of(node: ExprNode) -> set[int]:
    """Set of variable indices appearing in the tree."""
    out: set[int] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.add(cur.index)
        elif isinstance(cur, Unary):
            stack.append(cur.arg)
        elif isinstance(cur, Binary):
            stack.append(cur.left)
            stack.append(cur.right)
    return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)
_VAR_RE = re.compile(r"^([xv])([1-9])$")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(source) - len(stripped))
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, dimension: int):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.n = dimension

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        self.advance()

    def parse(self) -> ExprNode:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", off)
        return node

    def expr(self) -> ExprNode:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Binary("add" if text == "+" else "sub", node, rhs)
            else:
                return node

    def term(self) -> ExprNode:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = Binary("mul" if text == "*" else "div", node, rhs)
            else:
                return node

    def factor(self) -> ExprNode:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.factor())
        node = self.base()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            node = Binary("pow", node, self.exponent())
        return node

    def exponent(self) -> Const:
        sign = 1.0
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1.0
            kind, text, off = self.peek()
        if kind != "num":
            raise ParseError("exponent must be a numeric constant", off)
        self.advance()
        return Const(sign * float(text))

    def base(self) -> ExprNode:
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text in _FUNCS:
                return Unary(text, self.base())
            m = _VAR_RE.match(text)
            if m is None:
                raise ParseError(f"unknown identifier {text!r}", off)
            idx = int(m.group(2))
            if idx > self.n:
                raise ParseError(
                    f"variable {text!r} out of range for dimension {self.n}", off
                )
            return Var(idx - 1 if m.group(1) == "x" else self.n + idx - 1)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}", off)


def parse(source: str, dimension: int) -> ExprNode:
    """Parse ``source`` into an expression tree over 2*dimension variables."""
    if not 1 <= dimension <= 9:
        raise ValueError("dimension must be between 1 and 9")
    return _Parser(source, dimension).parse()


def to_source(node: ExprNode, dimension: int | None = None) -> str:
    """Render a tree as fully parenthesized text.

    With the tree's ``dimension`` variables print as x1../v1.. and the text
    parses back to the same tree; without it they print as ``__index__``.
    """
    if isinstance(node, Const):
        return repr(node.value) if node.value >= 0 else f"({node.value!r})"
    if isinstance(node, Var):
        if dimension is None:
            return f"__{node.index}__"
        if node.index < dimension:
            return f"x{node.index + 1}"
        return f"v{node.index - dimension + 1}"
    if isinstance(node, Unary):
        inner = to_source(node.arg, dimension)
        return f"(-{inner})" if node.op == "neg" else f"{node.op}({inner})"
    if node.op == "pow":
        return f"({to_source(node.left, dimension)})^{node.right.value!r}"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[node.op]
    return f"({to_source(node.left, dimension)} {sym} {to_source(node.right, dimension)})"


# ---------------------------------------------------------------------------
# Dual scalars
# ---------------------------------------------------------------------------

def val_of(x) -> float:
    """Unwrap (possibly nested) duals down to the underlying float value."""
    while isinstance(x, Dual):
        x = x.val
    return float(x)


class Dual:
    """Truncated Taylor scalar: value plus derivatives in ``m`` directions.

    ``grad`` is a list of length m and ``hess`` an m x m list of lists (order
    2 only).  Coefficients may be floats or further ``Dual`` instances; ``tag``
    separates nesting levels so that duals from different levels never
    silently combine.  Value parts follow float arithmetic operation for
    operation, so ``val_of`` of a result equals the float evaluation.
    """

    __slots__ = ("m", "order", "tag", "val", "grad", "hess")

    def __init__(self, m, order, tag, val, grad, hess=None):
        self.m = m
        self.order = order
        self.tag = tag
        self.val = val
        self.grad = grad
        self.hess = hess

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, m, order=1, tag=0) -> "Dual":
        h = [[0.0] * m for _ in range(m)] if order == 2 else None
        return Dual(m, order, tag, value, [0.0] * m, h)

    @staticmethod
    def seed(value, m, direction, order=1, tag=0) -> "Dual":
        d = Dual.constant(value, m, order, tag)
        d.grad[direction] = 1.0
        return d

    # -- helpers -----------------------------------------------------------

    def _like(self, val, grad, hess) -> "Dual":
        return Dual(self.m, self.order, self.tag, val, grad, hess)

    def _check(self, other: "Dual"):
        if self.m != other.m or self.tag != other.tag or self.order != other.order:
            raise ValueError("dual arithmetic across incompatible contexts")

    def __repr__(self):
        return f"Dual(val={self.val!r}, grad={self.grad!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            self._check(other)
            m = self.m
            g = [self.grad[i] + other.grad[i] for i in range(m)]
            h = None
            if self.order == 2:
                h = [
                    [self.hess[i][j] + other.hess[i][j] for j in range(m)]
                    for i in range(m)
                ]
            return self._like(self.val + other.val, g, h)
        return self._like(self.val + other, list(self.grad), self.hess)

    __radd__ = __add__

    def __neg__(self):
        m = self.m
        g = [-gi for gi in self.grad]
        h = None
        if self.order == 2:
            h = [[-self.hess[i][j] for j in range(m)] for i in range(m)]
        return self._like(-self.val, g, h)

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, Dual) else -other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Dual):
            self._check(other)
            m = self.m
            a0, b0 = self.val, other.val
            a1, b1 = self.grad, other.grad
            g = [a1[i] * b0 + a0 * b1[i] for i in range(m)]
            h = None
            if self.order == 2:
                a2, b2 = self.hess, other.hess
                # cross terms grouped so the result is bit-exactly symmetric
                h = [
                    [
                        a2[i][j] * b0
                        + a0 * b2[i][j]
                        + (a1[i] * b1[j] + a1[j] * b1[i])
                        for j in range(m)
                    ]
                    for i in range(m)
                ]
            return self._like(a0 * b0, g, h)
        m = self.m
        g = [gi * other for gi in self.grad]
        h = None
        if self.order == 2:
            h = [[self.hess[i][j] * other for j in range(m)] for i in range(m)]
        return self._like(self.val * other, g, h)

    __rmul__ = __mul__

    # Derivative parts come from the reciprocal; the value part is a true
    # division so that it matches the float evaluation bit for bit.
    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self * other._reciprocal()
            q.val = self.val / other.val
        else:
            q = self * (1.0 / other)
            q.val = self.val / other
        return q

    def __rtruediv__(self, other):
        q = self._reciprocal() * other
        q.val = other / self.val
        return q

    def __pow__(self, exponent):
        if isinstance(exponent, Dual):
            raise ValueError("dual exponents are not supported")
        p = float(exponent)
        u = self.val
        f0 = _pow(u, p)
        f1 = 0.0 if p == 0.0 else p * _pow(u, p - 1.0)
        f2 = None
        if self.order == 2:
            f2 = 0.0 if p in (0.0, 1.0) else p * (p - 1.0) * _pow(u, p - 2.0)
        return self._chain(f0, f1, f2)

    # -- chain rule for smooth unary functions ------------------------------

    def _chain(self, f0, f1, f2=None) -> "Dual":
        m = self.m
        g1 = self.grad
        g = [f1 * g1[i] for i in range(m)]
        h = None
        if self.order == 2:
            h1 = self.hess
            h = [
                [f1 * h1[i][j] + f2 * (g1[i] * g1[j]) for j in range(m)]
                for i in range(m)
            ]
        return self._like(f0, g, h)

    def _reciprocal(self) -> "Dual":
        u = self.val
        if val_of(u) == 0.0:
            raise ZeroDivisionError("division by zero")
        inv = 1.0 / u
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv if self.order == 2 else None)

    def sin(self):
        s, c = _sin(self.val), _cos(self.val)
        return self._chain(s, c, -s if self.order == 2 else None)

    def cos(self):
        s, c = _sin(self.val), _cos(self.val)
        return self._chain(c, -s, -c if self.order == 2 else None)

    def exp(self):
        e = _exp(self.val)
        return self._chain(e, e, e if self.order == 2 else None)

    def log(self):
        if val_of(self.val) <= 0.0:
            raise ValueError("log of non-positive value")
        u = self.val
        inv = 1.0 / u
        return self._chain(_log(u), inv, -inv * inv if self.order == 2 else None)

    def sqrt(self):
        if val_of(self.val) < 0.0:
            raise ValueError("sqrt of negative value")
        r = _sqrt(self.val)
        return self._chain(r, 0.5 / r, -0.25 / (r * r * r) if self.order == 2 else None)


def _sin(u):
    return u.sin() if isinstance(u, Dual) else math.sin(u)


def _cos(u):
    return u.cos() if isinstance(u, Dual) else math.cos(u)


def _exp(u):
    return u.exp() if isinstance(u, Dual) else math.exp(u)


def _log(u):
    if isinstance(u, Dual):
        return u.log()
    if u <= 0.0:
        raise ValueError("log of non-positive value")
    return math.log(u)


def _sqrt(u):
    if isinstance(u, Dual):
        return u.sqrt()
    if u < 0.0:
        raise ValueError("sqrt of negative value")
    return math.sqrt(u)


def _pow(u, p):
    if isinstance(u, Dual):
        return u**p
    if u < 0.0 and p != round(p):
        raise ValueError("fractional power of negative base")
    return u**p


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(node: ExprNode, values):
    """Evaluate a tree over a sequence of scalars (floats or duals).

    ``values`` must cover every variable index in the tree.  Domain failures
    (log/sqrt out of range, division by zero, overflow) are reported with the
    offending subexpression.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return values[node.index]
    try:
        if isinstance(node, Unary):
            u = evaluate(node.arg, values)
            if node.op == "neg":
                return -u
            if node.op == "sin":
                return _sin(u)
            if node.op == "cos":
                return _cos(u)
            if node.op == "exp":
                return _exp(u)
            if node.op == "log":
                return _log(u)
            if node.op == "sqrt":
                return _sqrt(u)
            raise ValueError(f"unknown unary op {node.op!r}")
        a = evaluate(node.left, values)
        if node.op == "pow":
            return _pow(a, node.right.value)
        b = evaluate(node.right, values)
        if node.op == "add":
            return a + b
        if node.op == "sub":
            return a - b
        if node.op == "mul":
            return a * b
        if node.op == "div":
            if isinstance(b, Dual):
                if val_of(b.val) == 0.0:
                    raise ZeroDivisionError("division by zero")
            elif b == 0.0:
                raise ZeroDivisionError("division by zero")
            return a / b
        raise ValueError(f"unknown binary op {node.op!r}")
    except EvalDomainError:
        raise
    except _DOMAIN_FAILURES as exc:
        raise EvalDomainError(str(exc), node) from exc


def eval_dual(node: ExprNode, point, directions=None, order: int = 1, tag: int = 0):
    """Evaluate with derivatives in the chosen variable directions.

    ``point`` lists all 2n variable values; ``directions`` is an ordered
    subset of variable indices (default: all of them).  ``order`` 1 gives the
    gradient, 2 adds the symmetric Hessian.  Entries of ``point`` may
    themselves be Dual scalars of a different tag, in which case the result
    coefficients nest.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    directions = list(range(len(point)) if directions is None else directions)
    m = len(directions)
    seeds = list(point)
    for k, idx in enumerate(directions):
        seeds[idx] = Dual.seed(point[idx], m, k, order, tag)
    out = evaluate(node, seeds)
    if not isinstance(out, Dual):
        out = Dual.constant(out, m, order, tag)
    return out


# ---------------------------------------------------------------------------
# Straight-line code
# ---------------------------------------------------------------------------

_FOLD = {
    "neg": operator.neg,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "pow": _pow,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": _log,
    "sqrt": _sqrt,
}
_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
# Library of the generated code: math over floats, dispatch over duals.
# log, sqrt and fractional powers keep the interpreter's domain checks in both.
_FLOAT_LIB = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": _log, "sqrt": _sqrt, "pw": _pow}
_DUAL_LIB = {"sin": _sin, "cos": _cos, "exp": _exp, "log": _log, "sqrt": _sqrt, "pw": _pow}


def _literal(value: float) -> str:
    if not math.isfinite(value):
        return f"float({str(value)!r})"
    return repr(value) if math.copysign(1.0, value) > 0 else f"({value!r})"


class Graph:
    """Hash-consed expression DAG of one code build over variables 0..2n-1.

    A node is an index into ``ops``, whose entries are (op, a, b): a float for
    "const", a variable index for "var", operand nodes otherwise (b is the
    exponent of "pow").  One operation on the same operands is one node, so
    common subexpressions are computed once.  The tables live on the
    instance: a graph serves one build and is dropped with it.

    :meth:`tree` imports a tree as it stands, folding only constant-only
    subtrees, so every domain check of the tree runs in the generated code.
    The arithmetic helpers (:meth:`add` ... :meth:`pow`) also drop zero and
    unit operands; :meth:`diff` builds derivatives from them.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.trees: list[ExprNode] = []  # imported by :meth:`tree`, for :func:`run`
        self.ops: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self._diffs: dict[tuple[int, int], int] = {}
        self.zero = self.const(0.0)
        self.one = self.const(1.0)

    # -- nodes -----------------------------------------------------------------

    def _node(self, op, a=None, b=None) -> int:
        # a constant is keyed by its bits, so -0.0 and 0.0 stay apart
        key = (op, a.hex() if op == "const" else a, b)
        k = self._ids.get(key)
        if k is None:
            k = self._ids[key] = len(self.ops)
            self.ops.append((op, a, b))
        return k

    def const(self, value: float) -> int:
        return self._node("const", float(value))

    def var(self, index: int) -> int:
        return self._node("var", index)

    def value(self, k: int) -> float | None:
        """The float of a constant node, else None."""
        op, a, _ = self.ops[k]
        return a if op == "const" else None

    def _apply(self, op, a, b=None) -> int:
        """Node of one operation; constant operands fold unless that raises."""
        args = [self.value(a)]
        if b is not None:
            args.append(b if op == "pow" else self.value(b))
        if None not in args:
            try:
                return self.const(_FOLD[op](*args))
            except _DOMAIN_FAILURES:
                pass  # left to run time, where it raises as the interpreter does
        return self._node(op, a, b)

    def tree(self, node: ExprNode) -> int:
        """Import an expression tree as it stands and record it in ``trees``."""
        self.trees.append(node)
        return self._import(node)

    def _import(self, node: ExprNode) -> int:
        if isinstance(node, Const):
            return self.const(node.value)
        if isinstance(node, Var):
            return self.var(node.index)
        if isinstance(node, Unary):
            return self._apply(node.op, self._import(node.arg))
        if node.op == "pow":
            return self._apply("pow", self._import(node.left), node.right.value)
        return self._apply(node.op, self._import(node.left), self._import(node.right))

    # -- arithmetic with zero and unit operands dropped ---------------------

    def _is(self, k: int, c: float) -> bool:
        return self.value(k) == c

    def add(self, a: int, b: int) -> int:
        if self._is(a, 0.0):
            return b
        return a if self._is(b, 0.0) else self._apply("add", a, b)

    def sub(self, a: int, b: int) -> int:
        if self._is(b, 0.0):
            return a
        return self.neg(b) if self._is(a, 0.0) else self._apply("sub", a, b)

    def mul(self, a: int, b: int) -> int:
        if self._is(a, 0.0) or self._is(b, 0.0):
            return self.zero
        if self._is(a, 1.0):
            return b
        return a if self._is(b, 1.0) else self._apply("mul", a, b)

    def div(self, a: int, b: int) -> int:
        return a if self._is(b, 1.0) else self._apply("div", a, b)

    def neg(self, a: int) -> int:
        op, inner, _ = self.ops[a]
        return inner if op == "neg" else self._apply("neg", a)

    def pow(self, a: int, p: float) -> int:
        if p == 0.0:
            return self.one
        return a if p == 1.0 else self._apply("pow", a, p)

    # -- derivatives -------------------------------------------------------------

    def diff(self, k: int, i: int) -> int:
        """Node of d(node k)/d(variable i).

        The rules are the ones :class:`Dual` applies (product rule as
        a' b + a b', quotient through the reciprocal, chain rule as
        f'(u) u'), so a first derivative rounds as a dual evaluation does.
        """
        key = (k, i)
        d = self._diffs.get(key)
        if d is not None:
            return d
        op, a, b = self.ops[k]
        if op == "const":
            d = self.zero
        elif op == "var":
            d = self.one if a == i else self.zero
        elif op == "neg":
            d = self.neg(self.diff(a, i))
        elif op == "pow":
            da = self.diff(a, i)
            d = self.zero if self._is(da, 0.0) else self.mul(
                self.mul(self.const(b), self.pow(a, b - 1.0)), da
            )
        elif b is None:
            da = self.diff(a, i)
            d = self.zero if self._is(da, 0.0) else self.mul(self._slope(op, a, k), da)
        else:
            da, db = self.diff(a, i), self.diff(b, i)
            if op == "add":
                d = self.add(da, db)
            elif op == "sub":
                d = self.sub(da, db)
            elif op == "mul":
                d = self.add(self.mul(da, b), self.mul(a, db))
            elif self._is(da, 0.0) and self._is(db, 0.0):
                d = self.zero
            else:  # div: a * (1/b), the reciprocal's slope is -(1/b) (1/b)
                r = self.div(self.one, b)
                d = self.add(self.mul(da, r), self.mul(a, self.mul(self.mul(self.neg(r), r), db)))
        self._diffs[key] = d
        return d

    def _slope(self, op: str, a: int, k: int) -> int:
        """f'(u) of the unary function node k = f(a)."""
        if op == "sin":
            return self._apply("cos", a)
        if op == "cos":
            return self.neg(self._apply("sin", a))
        if op == "exp":
            return k
        if op == "log":
            return self.div(self.one, a)
        return self.div(self.const(0.5), k)  # sqrt

    # -- code ----------------------------------------------------------------------

    def _name(self, k: int) -> str:
        op, a, _ = self.ops[k]
        if op == "const":
            return _literal(a)
        return self._var_name(a) if op == "var" else f"t{k}"

    def _var_name(self, i: int) -> str:
        n = self.dimension
        return f"x{i + 1}" if i < n else f"v{i - n + 1}"

    def _line(self, k: int) -> str:
        op, a, b = self.ops[k]
        x = self._name(a)
        if op == "neg":
            return f"-{x}"
        if op == "pow":  # an integral power of a negative base is real
            whole = math.isfinite(b) and b == round(b)
            return f"{x} ** {_literal(b)}" if whole else f"pw({x}, {_literal(b)})"
        if b is None:
            return f"{op}({x})"
        return f"{x} {_INFIX[op]} {self._name(b)}"

    def _render(self, result) -> str:
        if isinstance(result, (list, tuple)):
            return "[" + ", ".join(self._render(r) for r in result) + "]"
        return self._name(result)

    def source(self, functions) -> str:
        """Python source of ``functions``: (name, arity, result, guards) each.

        A function takes a sequence of ``arity`` variables and returns
        ``result``, a node or a nested list of nodes.  ``guards`` are nodes
        computed and dropped, for their domain checks.
        """
        lines = []
        for name, arity, result, guards in functions:
            roots = list(guards)
            stack = [result]
            while stack:
                r = stack.pop()
                if isinstance(r, (list, tuple)):
                    stack.extend(r)
                else:
                    roots.append(r)
            needed = set()
            while roots:
                k = roots.pop()
                op, a, b = self.ops[k]
                if k in needed or op in ("const", "var"):
                    continue
                needed.add(k)
                roots.append(a)
                if b is not None and op != "pow":
                    roots.append(b)
            args = ", ".join(self._var_name(i) for i in range(arity))
            lines.append(f"def {name}(z):")
            lines.append(f"    {args}, = z")
            lines += [f"    t{k} = {self._line(k)}" for k in sorted(needed)]
            lines.append(f"    return {self._render(result)}")
        return "\n".join(lines) + "\n"

    def build(self, functions) -> tuple[dict, dict]:
        """Compile :meth:`source` once; (floats, duals) map each name to the
        function run over floats and the same code run with dual dispatch."""
        code = compile(self.source(functions), "<orbitlab straight-line>", "exec")
        out = []
        for lib in (_FLOAT_LIB, _DUAL_LIB):
            scope = dict(lib)
            exec(code, scope)
            out.append({f[0]: scope[f[0]] for f in functions})
        return out[0], out[1]


def scalars(z) -> tuple[list, bool]:
    """(z, dual): the scalars as a list, converted to floats unless one of
    them is a :class:`Dual`."""
    if Dual in map(type, z):
        return list(z), True
    return list(map(float, z)), False


def run(code, name: str, z: list, dual: bool, trees):
    """Straight-line function ``name`` of ``code`` = (floats, duals), built by
    :meth:`Graph.build` from the imported ``trees``, at the scalars ``z``,
    over duals if ``dual`` (see :func:`scalars`).

    A domain failure of the generated code is named, never answered: the
    trees are re-run at the float point of z by :func:`evaluate`, then by
    :func:`eval_dual` of order 1 and of order 2 (the generated code holds
    derivatives up to second order), and the first :class:`EvalDomainError`
    is raised.  If none raises, the original exception propagates.
    """
    try:
        return code[dual][name](z)
    except _DOMAIN_FAILURES:
        point = list(map(val_of, z))
        for tree in trees:
            evaluate(tree, point)
        for order in (1, 2):
            for tree in trees:
                eval_dual(tree, point, None, order)
        raise
