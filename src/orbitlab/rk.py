"""Embedded Dormand-Prince 8(5,3) integrator with dense output and events.

The stepper works on one flat float state, given as a sequence of scalars
and converted to Python floats on entry.  Its error norm and initial step see
the first ``control`` entries, all of them by default; the rest ride along
through the same stages.  A tangent run is a plain run of y = [z; W row by
row], whose right-hand side returns [f(z); J(z) W] flat: with ``control``
the size of z, and a right-hand side for z that does not read W, z takes
exactly the steps of the plain run of z, and W is the derivative of the
discrete solution map along them applied to W(t0) (internal numerical
differentiation); without it, W is held to the same tolerances as z, as a
monodromy matrix must be.

The pair is Dormand and Prince's DOP853 as Hairer, Norsett & Wanner give
it (*Solving ODEs I*, 2nd ed., Springer 1993, section II.10): twelve
stages make an 8th-order step, and the error norm blends the 5th- and
3rd-order embedded estimates e5 and e3 as Hairer's code does, h |e5|^2 /
sqrt(e (|e5|^2 + 0.01 |e3|^2)) over the e = ``control`` scaled entries.  f
at the new state is taken once the step passes that norm and is the next
step's first stage.  A PI controller with DOP853's order-8 exponents sets
the next step, and the first step is Hairer's ``hinit`` with exponent 1/8.
The controller's safety factor is 0.87, not Hairer's 0.9: the degree-7
interpolant errs by up to about the tolerance inside a step, 10-60 times
its error at the knots, and on the rotation y = (cos t, -sin t) at rtol
1e-10 the smaller steps bring that from 9.6e-11 to 6.0e-11, for about 5%
more steps.

Dense output is the pair's degree-7 interpolant in the power basis, kept as
stacked arrays in one :class:`DenseOutput`: step k starts at ts[k] from
ys[k], has length h[k] and coefficients q[k] (d x 7), and y(ts[k] + theta
h[k]) = ys[k] + h[k] q[k] (theta, ..., theta^7).  Code that reads q takes
the degree from ``q.shape[-1]``.  The interpolant costs three more stages
and f at its midpoint, run on each step of a run with ``dense`` or
``events`` that passes the error norm, never on a run with neither.  The
interpolant reads f at the new state, which the error norm does not see,
so such a step is also rejected when the interpolant's defect at its
midpoint, h |u'(1/2) - f(u(1/2))| in the error norm, exceeds 1.  That
catches a right-hand side that is ill-conditioned at the new state: a
brake half run of a Finsler well ends at a rest point whose velocity,
about 1e-13, has no accurate direction, which the spray depends on, and
without the defect test the last step of one such run left the dense
output 9e-6 off.  On smooth flows the defect is about the error norm and
rejects almost no step.  A step that a terminal event ends
is stored cut at the event, so every step ends at the next knot.  At and
beyond the ends of the span it gives the first or last stored state.
:meth:`DenseOutput.reflected` appends a run's steps reflected in time and in
a diagonal reversor, exactly in this basis; it and :func:`solve_rk45` are
the only code that builds one.  Events are located by sign change plus
bisection on the current step's interpolant down to a 1e-12 time tolerance
(four ulps of t where that is coarser), with a cap on the number of halvings.
:meth:`DenseOutput.bernstein` gives each step's Bernstein coefficients,
whose hull encloses the step.

A step is generated straight-line code, built on first use for its key
(d, control) -- d the state's size -- and cached; the interpolant's stages,
coefficients and defect are a second function with the same key.  They
hold the stage
states, the error sums and the coefficients as float locals and call the
right-hand side once per stage.  A wide state's step is compiled in pieces
of at most ``_PIECE_CHARS`` characters of source, each unpacking the stage
lists it reads, which bounds the compiler's transient memory; the step of
a 3-DOF state, d = 6, is one piece.  Their results equal a loop over the
stages bit for bit because every sum keeps that loop's order: terms in
stage order, zero coefficients skipped, each sum started from 0.0, so a
leading -0.0 becomes 0.0.  Every entry is a float local, so a wide state
pays for its size at build time: a 9-DOF monodromy, d = 342, takes
0.17-0.20 s of process time to build its step on a 2-core Xeon host with
CPython 3.11, where the 5(4) pair's step took 0.08-0.11 s.  The loop of
:func:`solve_rk45` keeps the step-size checks and controller, the
naming of a non-finite stage, dense output and events.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OrbitLabError

__all__ = ["EventSpec", "EventHit", "DenseOutput", "RKResult", "IntegrationError", "solve_rk45"]

# DOP853 (Hairer, Norsett & Wanner, section II.10).  Stages 0-11 make the
# step; row 12 of _A holds the solution's weights b, and stage 12 is f at the
# new state, the next step's stage 0; stages 13-15 serve the interpolant only.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
)

_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
        20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
        15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
        -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
        27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
        0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
        0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
        -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
        -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987),
)

# Hairer's 5th-order error weights over stages 0-11
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
)

# Hairer's 3rd-order weights bhh: the 3rd-order estimate is sum_i (b_i - bhh_i) k_i
_BHH = (
    0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7338466882816118, 0.0, 0.0,
    0.022058823529411766,
)

# the interpolant's r_3..r_6 in Hairer's form (see _dense_source), over stages 0-15
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564),
)

# q_p = sum_j _TO_POWERS[p][j] r_j: the coefficient of theta^(p+1) in Hairer's
# form sum_j r_j theta (1-theta), ... of the interpolant, whose basis is theta,
# theta (1-theta), theta^2 (1-theta), theta^2 (1-theta)^2, theta^3 (1-theta)^2,
# theta^3 (1-theta)^3 and theta^4 (1-theta)^3
_TO_POWERS = (
    (1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, -1.0, 1.0, 1.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, -1.0, -2.0, 1.0, 1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0, -2.0, -3.0, 1.0),
    (0.0, 0.0, 0.0, 0.0, 1.0, 3.0, -3.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 3.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0),
)

_SAFETY = 0.87
# u(1/2) = y + h sum_p q_p _MID[p] and u'(1/2) = sum_p q_p _MID_SLOPE[p]
_MID = tuple(0.5 ** (p + 1) for p in range(7))
_MID_SLOPE = tuple((p + 1) * 0.5**p for p in range(7))
_BETA = 0.04
_EXPO = 1.0 / 8.0 - 0.2 * _BETA
_MAX_FACTOR = 6.0
_MIN_FACTOR = 1.0 / 3.0
# a step is compiled in pieces of at most this many characters of source:
# the compiler's transient memory grows with the size of what it compiles,
# about 60 bytes a character, and a 3-DOF monodromy's step in one piece
# raised the peak RSS of a process by 4 MiB
_PIECE_CHARS = 20_000
_EVENT_TIME_TOL = 1e-12
_EVENT_MAX_BISECTIONS = 200
_MAX_STEPS = 1_000_000  # accepted plus rejected steps of one run


class IntegrationError(OrbitLabError):
    def __init__(self, message: str, t=None, y=None):
        super().__init__(message)
        self.t = t
        self.y = y


@dataclass
class EventSpec:
    """Scalar event g(t, y); fires on sign change of the chosen direction."""

    fn: object
    direction: int = 0  # +1 upward crossings, -1 downward, 0 both
    terminal: bool = False


@dataclass
class EventHit:
    index: int
    t: float
    y: np.ndarray


def _interpolate(y0, h, q, theta):
    """The interpolant of one step at the fraction ``theta`` of it."""
    return y0 + h * (q @ theta ** np.arange(1, q.shape[-1] + 1))


class DenseOutput:
    """Dense solution of one run: a scalar time gives a (d,) state, a 1-D
    array of K times a (K, d) array.  Step k spans exactly its two knots,
    [ts[k], ts[k+1]], h[k] long up to the rounding of ts[k] + h[k], as
    :meth:`reflected` needs."""

    def __init__(self, ts, ys, h, q):
        self.ts, self.ys, self.h, self.q = ts, ys, h, q
        # the scalar kernel bisects Python floats
        self._starts = ts[:-1].tolist()
        self._steps = h.tolist()

    def __call__(self, t):
        t0, t1 = self._starts[0], float(self.ts[-1])
        if np.ndim(t) == 0:
            t = float(t)
            if t <= t0:
                return self.ys[0].copy()
            if t >= t1:
                return self.ys[-1].copy()
            k = bisect.bisect_right(self._starts, t) - 1
            h = self._steps[k]
            return _interpolate(self.ys[k], h, self.q[k], (t - self._starts[k]) / h)
        ts = np.asarray(t, dtype=float)
        out = np.full((len(ts), self.ys.shape[1]), np.nan)  # NaN times stay NaN
        out[ts <= t0] = self.ys[0]
        out[ts >= t1] = self.ys[-1]
        inside = (ts > t0) & (ts < t1)
        if inside.any():
            ti = ts[inside]
            k = np.searchsorted(self.ts[:-1], ti, side="right") - 1
            h = self.h[k]
            theta = (ti - self.ts[k]) / h
            powers = theta[:, None] ** np.arange(1, self.q.shape[-1] + 1)
            out[inside] = self.ys[k] + h[:, None] * np.einsum("kdj,kj->kd", self.q[k], powers)
        return out

    def reflected(self, reversor):
        """This output over [t0, t1], then its steps reflected through t1 and
        mapped by the diagonal reversor R (``reversor`` its diagonal), over
        [t1, 2 t1 - t0]: the solution of a reversible flow from a state
        that R fixes at t1.  Step k reflected runs over [2 t1 - ts[k+1],
        2 t1 - ts[k]] from R ys[k+1] with coefficients R q[k] C, C_ji =
        binom(j, i) (-1)^i, which is theta -> 1 - theta in the power basis.
        The knot at t1 is R ys[-1], so the one jump, from the last forward
        step's end ys[-1], sits at t1."""
        signs = np.asarray(reversor, dtype=float)
        powers = range(1, self.q.shape[-1] + 1)
        flip = np.array([[math.comb(j, i) * (-1.0) ** i for i in powers] for j in powers])
        return DenseOutput(
            np.concatenate([self.ts, 2.0 * self.ts[-1] - self.ts[-2::-1]]),
            np.concatenate([self.ys[:-1], self.ys[::-1] * signs]),
            np.concatenate([self.h, self.h[::-1]]),
            np.concatenate([self.q, (self.q @ flip)[::-1] * signs[:, None]]),
        )

    def bernstein(self, k: int):
        """(b, ulp): b (k, d, m + 1), the Bernstein coefficients b_i = sum_j
        binom(i, j) / binom(m, j) a_j of each of steps 0..k-1, per entry (a_0
        its start state, a_j = h q[:, j-1], m = ``q.shape[-1]``), and ulp (k,)
        the spacing of each step's largest sum_j |a_j|, which bounds its b and
        the terms :meth:`__call__` sums.  A step lies in the hull of its b
        (Farin, *Curves and Surfaces for CAGD*, 5th ed., 2002), so the box of
        its least and greatest b per entry, padded outward by 8 ulp past the
        rounding of this sum and of :meth:`__call__`, encloses the dense
        output; not the solution, from which the interpolant errs by up to
        about the tolerance."""
        m = self.q.shape[-1]
        to_bernstein = [[math.comb(i, j) / math.comb(m, j) for i in range(m + 1)]
                        for j in range(m + 1)]
        a = np.concatenate([self.ys[:k, :, None], self.h[:k, None, None] * self.q[:k]], axis=2)
        return a @ np.array(to_bernstein), np.spacing(np.max(np.sum(np.abs(a), axis=2), axis=1))

    def derivative(self, t):
        """Time derivative; outside the span the first or last step's polynomial."""
        ts = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.ts[:-1], ts, side="right") - 1, 0, len(self.h) - 1)
        theta = (ts - self.ts[k]) / self.h[k]
        j = np.arange(1, self.q.shape[-1] + 1)
        return np.einsum("...dj,...j->...d", self.q[k], j * theta[..., None] ** (j - 1))


@dataclass
class RKResult:
    ts: np.ndarray
    ys: np.ndarray
    dense: DenseOutput | None = None
    events: list[EventHit] = field(default_factory=list)
    n_accepted: int = 0
    n_rejected: int = 0


def _initial_step(f, t0, y0, f0, t1, rtol, atol, e) -> float:
    """First step from the scaled norms of y0, f0 and a difference quotient
    of f over their first e entries (Hairer's ``hinit`` for order 8).  A
    non-finite f0, or one whose scaled norm overflows (no step above the
    floor could resolve it), raises :class:`IntegrationError`."""
    if not all(map(math.isfinite, f0)):
        raise IntegrationError(f"non-finite right-hand side at t={t0!r}", t=t0, y=np.array(y0))
    span = t1 - t0
    y = np.array(y0[:e])
    fv = np.array(f0[:e])
    scale = atol + rtol * np.abs(y)
    with np.errstate(over="ignore"):
        d0 = float(np.sqrt(np.mean((y / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((fv / scale) ** 2)))
    if d1 == math.inf:
        raise IntegrationError(
            f"right-hand side too large for any step at t={t0!r}", t=t0, y=np.array(y0)
        )
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = [y0[i] + h0 * f0[i] for i in range(len(y0))]
    f1 = np.array(f(t0 + h0, y1)[:e])
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = float(np.sqrt(np.mean(((f1 - fv) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    h = min(100.0 * h0, h1, span)
    return max(h, 1e-14 * max(abs(t0), 1.0))


def _same_sign(a: float, b: float) -> bool:
    """Both positive or both negative; never for a zero or a NaN."""
    return (a > 0.0 and b > 0.0) or (a < 0.0 and b < 0.0)


def _bisect_event(g, t: float, h: float, y0, q, g_lo: float):
    """(time, state) where g leaves the sign of ``g_lo``, its value at t,
    inside the step [t, t + h]."""
    t_lo, t_hi = t, t + h
    # beyond |t| ~ 8192 the absolute tolerance is below the spacing of floats
    tol = max(_EVENT_TIME_TOL, 4.0 * math.ulp(max(abs(t_lo), abs(t_hi))))
    for _ in range(_EVENT_MAX_BISECTIONS):
        if t_hi - t_lo <= tol:
            break
        mid = 0.5 * (t_lo + t_hi)
        if _same_sign(g(mid, _interpolate(y0, h, q, (mid - t) / h)), g_lo):
            t_lo = mid
        else:
            t_hi = mid
    t_ev = 0.5 * (t_lo + t_hi)
    return t_ev, _interpolate(y0, h, q, (t_ev - t) / h)


def _non_finite_stage(t, h, k, stage_y, default):
    """IntegrationError at the first stage whose f is not finite, or at
    stage ``default`` when none is (an overflow in the sums)."""
    s = next((s for s in range(len(k)) if not all(map(math.isfinite, k[s]))), default)
    t_bad = t + _C[s] * h
    return IntegrationError(
        f"non-finite right-hand side at t={t_bad!r}", t=t_bad, y=np.array(stage_y[s])
    )


def _terms(coefficients, names) -> str:
    """c * name over the nonzero coefficients, in stage order."""
    return " + ".join(f"{c!r} * {name}" for c, name in zip(coefficients, names) if c != 0.0)


def _unpack(prefix: str, d: int, value: str) -> str:
    return ", ".join(f"{prefix}_{i}" for i in range(d)) + f", = {value}"


def _stage_lines(d: int, s: int) -> list[str]:
    """Stage s: its state y<s>_<i>, the list y<s>, and f there, k<s>_<i>."""
    out = [
        f"y{s}_{i} = y0_{i} + h * (0.0 + {_terms(_A[s], [f'k{l}_{i}' for l in range(s)])})"
        for i in range(d)
    ]
    state = ", ".join(f"y{s}_{i}" for i in range(d))
    return out + [
        f"y{s} = [{state}]", f"k{s} = f(t + {_C[s]!r} * h, y{s})", _unpack(f"k{s}", d, f"k{s}")
    ]


def _step_blocks(d: int, e: int) -> list[tuple[list[str], set[int]]]:
    """The step's lines in blocks, each with the stages whose f values it
    reads: stages 1-11, each appending its state to ``ys`` and its f value
    to ``k``, then the new state, y + h sum_i b_i k_i, and the error norm."""
    blocks = [
        (_stage_lines(d, s) + [f"ys.append(y{s})", f"k.append(k{s})"],
         {l for l, c in enumerate(_A[s]) if c != 0.0})
        for s in range(1, 12)
    ]
    out = []
    for i in range(d):
        out += [
            f"s_{i} = 0.0 + {_terms(_A[12], [f'k{l}_{i}' for l in range(12)])}",
            f"y12_{i} = y0_{i} + h * s_{i}",
        ]
    out += ["ys.append([" + ", ".join(f"y12_{i}" for i in range(d)) + "])", "acc5 = 0.0",
            "acc3 = 0.0"]
    for i in range(e):
        ks = [f"k{l}_{i}" for l in range(12)]
        out += [
            f"a, b = abs(y0_{i}), abs(y12_{i})",
            "sk = atol + rtol * (b if b > a else a)",
            f"q = (0.0 + {_terms(_E5, ks)}) / sk",
            "acc5 += q * q",
            f"q = (s_{i} - (0.0 + {_terms(_BHH, ks)})) / sk",
            "acc3 += q * q",
        ]
    out += [
        "deno = acc5 + 0.01 * acc3",
        # a sum that overflowed or turned NaN gives NaN, which solve_rk45 names
        f"return 0.0 if deno == 0.0 else h * acc5 / math.sqrt({e} * deno) if deno < math.inf"
        " else math.nan",
    ]
    reads = {l for l in range(12) if _A[12][l] != 0.0 or _E5[l] != 0.0 or _BHH[l] != 0.0}
    return blocks + [(out, reads)]


def _step_sources(d: int, e: int) -> list[str]:
    """Sources of the step for a state of d entries whose first e the error
    norm sees: pieces ``piece<j>(f, t, h, k, ys, rtol, atol)`` of at most
    ``_PIECE_CHARS`` characters (or one block), which run its blocks in
    turn, each from the stage lists its lines read, and last
    ``step(f, t, h, y, k0, rtol, atol)``, which calls them.  The step
    returns (error norm, the states of stages 0-12, the f values of stages
    0-11); stage 12's state is the new one, f there being left to the
    caller."""
    pieces, size = [[]], 0
    for block in _step_blocks(d, e):
        n = sum(map(len, block[0]))
        if pieces[-1] and size + n > _PIECE_CHARS:
            pieces.append([])
            size = 0
        pieces[-1].append(block)
        size += n
    sources, first = [], 1
    for j, piece in enumerate(pieces):
        made = range(first, first + len(piece))
        reads = sorted(set().union(*(r for _, r in piece)).difference(made))
        out = [f"def piece{j}(f, t, h, k, ys, rtol, atol):", _unpack("y0", d, "ys[0]")]
        out += [_unpack(f"k{l}", d, f"k[{l}]") for l in reads]
        sources.append("\n    ".join(out + [line for lines, _ in piece for line in lines]) + "\n")
        first += len(piece)
    calls = [f"piece{j}(f, t, h, k, ys, rtol, atol)" for j in range(len(pieces))]
    top = ["def step(f, t, h, y, k0, rtol, atol):", "k, ys = [k0], [y]", *calls[:-1],
           f"return {calls[-1]}, ys, k"]
    return sources + ["\n    ".join(top) + "\n"]


def _dense_source(d: int, e: int) -> str:
    """Source of ``dense(f, t, h, y, y12, k, rtol, atol)`` for a state of d
    entries whose first e the error norm sees: the interpolant of the step
    from y to y12 = y(t + h), k holding f at stages 0-12 (stage 12 at y12).
    It returns (q as d rows of 7, the states of stages 13-15, their f
    values, the midpoint state u(1/2), the defect).  In Hairer's form the
    interpolant is y + h sum_j r_j (the j-th basis polynomial),
    r_0 = (y12 - y) / h, r_1 = k0 - r_0, r_2 = r_0 - k12 - r_1 and r_3..r_6
    the rows of _D applied to the sixteen stages; q is that in the power
    basis.  The defect is h |u'(1/2) - f(u(1/2))| in the error norm."""
    out = ["def dense(f, t, h, y, y12, k, rtol, atol):", _unpack("y0", d, "y"),
           _unpack("y12", d, "y12")]
    out += [_unpack(f"k{s}", d, f"k[{s}]") for s in range(13)]
    for s in range(13, 16):
        out += _stage_lines(d, s)
    for i in range(d):
        ks = [f"k{l}_{i}" for l in range(16)]
        out += [
            f"r0_{i} = (y12_{i} - y0_{i}) / h",
            f"r1_{i} = k0_{i} - r0_{i}",
            f"r2_{i} = r0_{i} - k12_{i} - r1_{i}",
        ]
        out += [f"r{3 + j}_{i} = 0.0 + {_terms(_D[j], ks)}" for j in range(4)]
        rs = [f"r{j}_{i}" for j in range(7)]
        out += [f"q{i}_{p} = 0.0 + {_terms(row, rs)}" for p, row in enumerate(_TO_POWERS)]
        qs = [f"q{i}_{p}" for p in range(7)]
        out += [f"m_{i} = y0_{i} + h * (0.0 + {_terms(_MID, qs)})",
                f"u_{i} = 0.0 + {_terms(_MID_SLOPE, qs)}"]
    mid = ", ".join(f"m_{i}" for i in range(d))
    out += [f"m = [{mid}]", "km = f(t + 0.5 * h, m)", _unpack("km", d, "km"), "acc = 0.0"]
    for i in range(e):
        out += [
            f"a, b = abs(y0_{i}), abs(y12_{i})",
            f"r = (u_{i} - km_{i}) / (atol + rtol * (b if b > a else a))",
            "acc += r * r",
        ]
    rows = ", ".join("[" + ", ".join(f"q{i}_{p}" for p in range(7)) + "]" for i in range(d))
    out.append(f"return [{rows}], [y13, y14, y15], [k13, k14, k15], m, h * math.sqrt(acc / {e})")
    return "\n    ".join(out) + "\n"


def _compiled(source: str, name: str, scope: dict):
    exec(compile(source, f"<rk {name}>", "exec"), scope)
    return scope[name]


@functools.cache
def _step_function(d: int, e: int):
    """The generated step for (d, e), built on first use, piece by piece."""
    *pieces, top = _step_sources(d, e)
    scope = {"math": math}
    for j, source in enumerate(pieces):
        _compiled(source, f"piece{j}", scope)
    return _compiled(top, "step", scope)


@functools.cache
def _dense_function(d: int, e: int):
    """The generated interpolant and its defect for (d, e), built on first use."""
    return _compiled(_dense_source(d, e), "dense", {"math": math})


def solve_rk45(
    f,
    t_span,
    y0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    events: tuple = (),
    dense: bool = True,
    control: int | None = None,
) -> RKResult:
    """Integrate y' = f(t, y) over t_span with the 8(5,3) pair (the name
    is kept from the 5(4) pair it replaced).

    The error norm and the initial step see the first ``control`` entries
    of y, all of them by default; the rest are checked finite at each
    accepted step.  Each attempted step calls f at eleven stages.  In a run
    with ``dense`` or ``events`` a step that passes the error norm calls f
    at the new state, three more times for the degree-7 interpolant and
    once at its midpoint for the defect, which may still reject it.  In a
    run with neither an accepted step calls f at the new state, except the
    last, so such a run does not see a right-hand side that turns non-finite
    only at its final state.  The final state is ``ys[-1]``; with ``dense``
    the result carries a :class:`DenseOutput`.
    A right-hand side that turns NaN or infinite raises
    :class:`IntegrationError` with the time and state of the first stage
    that produced it, and so does a run that takes ``_MAX_STEPS`` steps,
    accepted and rejected, without reaching the end of the span.  An empty
    state, a ``control`` that is not a whole number in [1, d], a span that
    is not finite and increasing, rtol outside [1e-13, inf), atol outside
    (0, inf), or a first f(t0, y0) whose shape is not the state's, ragged
    included, raises ``ValueError``.
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
    if isinstance(e, bool) or not isinstance(e, int) or not 1 <= e <= d:
        raise ValueError(f"control must be a whole number of entries in [1, {d}], got {control!r}")

    result = RKResult(ts=np.empty(0), ys=np.empty((0, d)))
    ts = [t0]
    ys = [np.array(y)]
    hs, qs = [], []  # length and interpolant coefficients of each accepted step

    t = t0
    fv = f(t, y)
    try:
        shape = np.shape(fv)
    except ValueError:  # sequences of unequal lengths have no shape
        shape = None
    if shape != (d,):
        found = "a ragged shape" if shape is None else f"shape {shape}"
        raise ValueError(f"the right-hand side has {found} for a state of shape ({d},)")
    step = _step_function(d, e)
    interpolant = _dense_function(d, e) if dense or events else None
    h = _initial_step(f, t0, y, fv, t1, rtol, atol, e)
    facold = 1e-4
    g_prev = [ev.fn(t, ys[0]) for ev in events]
    finished = False

    while not finished:
        if h < 1e-14 * max(abs(t), 1.0):
            raise IntegrationError(f"step size underflow at t={t!r}", t=t, y=np.array(y))
        if result.n_accepted + result.n_rejected >= _MAX_STEPS:
            raise IntegrationError(
                f"step cap of {_MAX_STEPS} steps reached at t={t!r}", t=t, y=np.array(y)
            )
        if t + h >= t1:
            h = t1 - t
            finished = True

        err, stage_y, k = step(f, t, h, y, fv, rtol, atol)
        if not math.isfinite(err):
            raise _non_finite_stage(t, h, k, stage_y, 0)

        if err > 1.0:
            # reject: shrink and retry
            fac11 = err**_EXPO
            h = h / min(1.0 / _MIN_FACTOR, fac11 / _SAFETY)
            finished = False
            result.n_rejected += 1
            continue
        y_new = stage_y[12]
        # the error norm does not see the entries past e
        if e < d and not all(map(math.isfinite, y_new[e:])):
            raise _non_finite_stage(t, h, k, stage_y, 12)

        t_new = t + h
        if interpolant is not None:
            fv = f(t_new, y_new)
            q, extra_y, extra_k, mid, defect = interpolant(
                f, t, h, y, y_new, k + [fv], rtol, atol
            )
            q = np.array(q)
            if not np.isfinite(q).all():
                raise _non_finite_stage(t, h, k + [fv] + extra_k, stage_y + extra_y, 12)
            if not math.isfinite(defect):
                t_mid = t + 0.5 * h
                raise IntegrationError(
                    f"non-finite right-hand side at t={t_mid!r}", t=t_mid, y=np.array(mid)
                )
            if defect > 1.0:
                # the interpolant leaves the flow inside the step: reject
                # as for the error, f at the step start staying stage 0
                h = h / min(1.0 / _MIN_FACTOR, defect**_EXPO / _SAFETY)
                fv = k[0]
                finished = False
                result.n_rejected += 1
                continue
            if dense:
                hs.append(h)
                qs.append(q)
        elif not finished:
            fv = f(t_new, y_new)
        result.n_accepted += 1
        y_new_arr = np.array(y_new)

        stop_at = None
        if events:
            g_new = [ev.fn(t_new, y_new_arr) for ev in events]
            hits_here = []
            for idx, ev in enumerate(events):
                g0, g1 = g_prev[idx], g_new[idx]
                if g0 == 0.0 or _same_sign(g0, g1):
                    continue
                rising = g1 > g0
                if ev.direction == 1 and not rising:
                    continue
                if ev.direction == -1 and rising:
                    continue
                t_ev, y_ev = _bisect_event(ev.fn, t, h, ys[-1], q, g0)
                hits_here.append((t_ev, idx, y_ev))
            for t_ev, idx, y_ev in sorted(hits_here):
                result.events.append(EventHit(idx, t_ev, y_ev))
                if events[idx].terminal:
                    stop_at = (t_ev, y_ev)
                    break
            g_prev = g_new

        if stop_at is not None:
            t_stop, y_stop = stop_at
            if dense:  # the step is cut at the event: theta = (h' / h) theta'
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
        fac11 = max(err, 1e-10) ** _EXPO
        fac = fac11 / (facold**_BETA)
        fac = max(1.0 / _MAX_FACTOR, min(1.0 / _MIN_FACTOR, fac / _SAFETY))
        h = h / fac
        facold = max(err, 1e-4)

    result.ts = np.array(ts)
    result.ys = np.array(ys)
    if dense:
        result.dense = DenseOutput(result.ts, result.ys, np.array(hs), np.array(qs))
    return result
