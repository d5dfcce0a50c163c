"""Embedded Dormand-Prince 5(4) integrator with dense output and events.

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

Dense output is Shampine's quartic interpolant for the pair, kept as stacked
arrays in one :class:`DenseOutput`: step k starts at ts[k] from ys[k], has
length h[k] and coefficients q[k] (d x 4), and y(ts[k] + theta h[k]) = ys[k] +
h[k] q[k] (theta, ..., theta^4).  A step that a terminal event ends is stored
cut at the event, so every step ends at the next knot.  At and beyond the ends
of the span it gives the first or last stored state.
:meth:`DenseOutput.reflected` appends a run's steps reflected in time and in
a diagonal reversor, exactly in this basis; it and :func:`solve_rk45` are
the only code that builds one.  Events are located by sign change plus
bisection on the current step's interpolant down to a 1e-12 time tolerance
(four ulps of t where that is coarser), with a cap on the number of halvings.

A step is one generated straight-line function, built on first use for its
key (d, control) -- d the state's size -- and cached.  It holds y, the six
stage states, the error vector and the error norm's running sum as float
locals and calls the right-hand side once per stage.  Its results equal a
loop over the stages bit for bit because every sum keeps that loop's order:
terms in stage order, zero coefficients skipped, each sum started from 0.0,
as the builtin ``sum`` starts from 0, so a leading -0.0 becomes 0.0.  Every
entry is a float local, so a wide state pays for its size at build time (a
9-DOF monodromy, d = 342, takes about 0.1 s to build its step).  The driver
loop of :func:`solve_rk45` keeps the step-size checks and controller, the
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

_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)

_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)

# difference between 5th and embedded 4th order weights (7 stages)
_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

# dense-output interpolant coefficients (Shampine's quartic for this pair)
_P = np.array(
    [
        [
            1.0,
            -8048581381.0 / 2820520608.0,
            8663915743.0 / 2820520608.0,
            -12715105075.0 / 11282082432.0,
        ],
        [0.0, 0.0, 0.0, 0.0],
        [
            0.0,
            131558114200.0 / 32700410799.0,
            -68118460800.0 / 10900136933.0,
            87487479700.0 / 32700410799.0,
        ],
        [
            0.0,
            -1754552775.0 / 470086768.0,
            14199869525.0 / 1410260304.0,
            -10690763975.0 / 1880347072.0,
        ],
        [
            0.0,
            127303824393.0 / 49829197408.0,
            -318862633887.0 / 49829197408.0,
            701980252875.0 / 199316789632.0,
        ],
        [
            0.0,
            -282668133.0 / 205662961.0,
            2019193451.0 / 616988883.0,
            -1453857185.0 / 822651844.0,
        ],
        [
            0.0,
            40617522.0 / 29380423.0,
            -110615467.0 / 29380423.0,
            69997945.0 / 29380423.0,
        ],
    ]
)

_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_MAX_FACTOR = 5.0
_MIN_FACTOR = 0.1
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
    """The quartic interpolant of one step at the fraction ``theta`` of it."""
    return y0 + h * (q @ np.array([theta, theta**2, theta**3, theta**4]))


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
            powers = np.stack([theta, theta**2, theta**3, theta**4], axis=1)
            out[inside] = self.ys[k] + h[:, None] * np.einsum("kdj,kj->kd", self.q[k], powers)
        return out

    def reflected(self, reversor):
        """This output over [t0, t1], then its steps reflected through t1 and
        mapped by the diagonal reversor R (``reversor`` its diagonal), over
        [t1, 2 t1 - t0]: the solution of a reversible flow from a state
        that R fixes at t1.  Step k reflected runs over [2 t1 - ts[k+1],
        2 t1 - ts[k]] from R ys[k+1] with coefficients R q[k] C, C_ji =
        binom(j, i) (-1)^i, which is theta -> 1 - theta in the power basis.
        The knot at t1 keeps ys[-1], which the first reflected step starts
        from."""
        signs = np.asarray(reversor, dtype=float)
        flip = np.array([[math.comb(j, i) * (-1.0) ** i for i in range(1, 5)] for j in range(1, 5)])
        return DenseOutput(
            np.concatenate([self.ts, 2.0 * self.ts[-1] - self.ts[-2::-1]]),
            np.concatenate([self.ys, self.ys[-2::-1] * signs]),
            np.concatenate([self.h, self.h[::-1]]),
            np.concatenate([self.q, (self.q @ flip)[::-1] * signs[:, None]]),
        )

    def derivative(self, t):
        """Time derivative; outside the span the first or last step's polynomial."""
        ts = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.ts[:-1], ts, side="right") - 1, 0, len(self.h) - 1)
        theta = (ts - self.ts[k]) / self.h[k]
        powers = np.stack(
            [np.ones_like(theta), 2.0 * theta, 3.0 * theta**2, 4.0 * theta**3], axis=-1
        )
        return np.einsum("...dj,...j->...d", self.q[k], powers)


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
    of f over their first e entries.  A non-finite f0, or one whose scaled
    norm overflows (no step above the floor could resolve it), raises
    :class:`IntegrationError`."""
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
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1, span)
    return max(h, 1e-14 * max(abs(t0), 1.0))


def _bisect_event(g, t: float, h: float, y0, q, sign_lo: float):
    """(time, state) where g leaves the sign ``sign_lo`` inside the step [t, t + h]."""
    t_lo, t_hi = t, t + h
    # beyond |t| ~ 8192 the absolute tolerance is below the spacing of floats
    tol = max(_EVENT_TIME_TOL, 4.0 * math.ulp(max(abs(t_lo), abs(t_hi))))
    for _ in range(_EVENT_MAX_BISECTIONS):
        if t_hi - t_lo <= tol:
            break
        mid = 0.5 * (t_lo + t_hi)
        if np.sign(g(mid, _interpolate(y0, h, q, (mid - t) / h))) == sign_lo:
            t_lo = mid
        else:
            t_hi = mid
    t_ev = 0.5 * (t_lo + t_hi)
    return t_ev, _interpolate(y0, h, q, (t_ev - t) / h)


def _non_finite_stage(t, h, k, stage_y, default):
    """IntegrationError at the first stage whose f is not finite, or at
    stage ``default`` when none is (an overflow in the sums)."""
    s = next((s for s in range(7) if not all(map(math.isfinite, k[s]))), default)
    t_bad = t + _C[s] * h
    return IntegrationError(
        f"non-finite right-hand side at t={t_bad!r}", t=t_bad, y=np.array(stage_y[s])
    )


def _terms(coefficients, names) -> str:
    """c * name over the nonzero coefficients, in stage order."""
    return " + ".join(f"{c!r} * {name}" for c, name in zip(coefficients, names) if c != 0.0)


def _step_source(d: int, e: int) -> str:
    """Source of ``step(f, t, h, y, k0, rtol, atol)`` for a state of d
    entries whose first e the error norm sees.  It returns (error norm, the
    seven stage states, the seven f values); its locals are
    ``y<stage>_<i>`` and ``k<stage>_<i>``."""

    def state(prefix):
        return ", ".join(f"{prefix}_{i}" for i in range(d))

    def stages(prefix, first):
        return "(" + ", ".join([first] + [f"{prefix}{s}" for s in range(1, 7)]) + ")"

    out = ["def step(f, t, h, y, k0, rtol, atol):", f"{state('y0')}, = y", f"{state('k0')}, = k0"]
    for s in range(1, 7):
        out += [
            f"y{s}_{i} = y0_{i} + h * (0.0 + {_terms(_A[s], [f'k{l}_{i}' for l in range(s)])})"
            for i in range(d)
        ]
        out += [
            f"y{s} = [{state(f'y{s}')}]",
            f"k{s} = f(t + {_C[s]!r} * h, y{s})",
            f"{state(f'k{s}')}, = k{s}",
        ]
    out.append("acc = 0.0")
    for i in range(e):
        out += [
            f"a, b = abs(y0_{i}), abs(y6_{i})",
            f"q = h * (0.0 + {_terms(_E, [f'k{l}_{i}' for l in range(7)])})"
            " / (atol + rtol * (b if b > a else a))",
            "acc += q * q",
        ]
    out.append(f"return math.sqrt(acc / {e}), {stages('y', 'y')}, {stages('k', 'k0')}")
    return "\n    ".join(out) + "\n"


@functools.cache
def _step_function(d: int, e: int):
    """The generated step for (d, e), built on first use."""
    scope = {"math": math}
    exec(compile(_step_source(d, e), "<rk step>", "exec"), scope)
    return scope["step"]


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
    """Integrate y' = f(t, y) over t_span with the 5(4) pair.

    The error norm and the initial step see the first ``control`` entries
    of y, all of them by default; the rest are checked finite at each
    accepted step.  The final state is ``ys[-1]``; with ``dense`` the result
    carries a :class:`DenseOutput`.  A right-hand side that turns NaN or
    infinite raises :class:`IntegrationError` with the time and state of the
    first stage that produced it, and so does a run that takes
    ``_MAX_STEPS`` steps, accepted and rejected, without reaching the end of
    the span.  An empty state, a ``control`` that is not a whole number in
    [1, d], a span that is not finite and increasing, rtol outside [1e-13,
    inf), atol outside (0, inf), or a first f(t0, y0) whose shape is not the
    state's, ragged included, raises ``ValueError``.
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
        # the error norm does not see the entries past e
        if e < d and not all(map(math.isfinite, stage_y[6][e:])):
            raise _non_finite_stage(t, h, k, stage_y, 6)

        result.n_accepted += 1
        y_new = stage_y[6]  # the last stage is taken at the 5th-order solution (FSAL)
        t_new = t + h
        y_new_arr = np.array(y_new)
        if dense or events:
            q = np.array(k).T @ _P
        if dense:
            hs.append(h)
            qs.append(q)

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
                t_ev, y_ev = _bisect_event(ev.fn, t, h, ys[-1], q, np.sign(g0))
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
                qs[-1] = q * (hs[-1] / h) ** np.arange(4)
            t = t_stop
            ts.append(t)
            ys.append(y_stop)
            finished = True
        else:
            t = t_new
            y = y_new
            ts.append(t)
            ys.append(y_new_arr)
            fv = k[6]  # FSAL: stage 7 is f at the accepted solution

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
