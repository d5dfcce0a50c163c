"""Embedded Dormand-Prince 5(4) integrator with dense output and events.

The stepper works on float states, given as sequences of scalars and
converted to Python floats on entry.  A run may also carry a d x m tangent
matrix W through the same stages, K_s = J(y_s) (W + h sum_l a_sl K_l), with
the right-hand side supplying the products J(y) W.  By default step-size
control looks at the state only, so a tangent run takes exactly the
accepted-step sequence of the plain run and W(t1) is the derivative of the
discrete solution map along those steps applied to W(t0) (internal numerical
differentiation).  With ``control_tangent`` the error norm and the initial
step see [y; W row by row] instead, so the run takes the steps of the plain
run of that stacked system and W is held to the same tolerances as y, as a
monodromy matrix must be.

Dense output is Shampine's quartic interpolant for the pair, kept as stacked
arrays in one :class:`DenseOutput`: step k starts at ts[k] from ys[k], has
length h[k] and coefficients q[k] (d x 4), and y(ts[k] + theta h[k]) = ys[k] +
h[k] q[k] (theta, ..., theta^4).  At and beyond the ends of the span it gives
the first or last stored state.  Events are located by sign change plus
bisection on the current step's interpolant down to a 1e-12 time tolerance
(four ulps of t where that is coarser), with a cap on the number of halvings.
"""

from __future__ import annotations

import bisect
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
    name: str = ""


@dataclass
class EventHit:
    index: int
    name: str
    t: float
    y: np.ndarray


def _interpolate(y0, h, q, theta):
    """The quartic interpolant of one step at the fraction ``theta`` of it."""
    return y0 + h * (q @ np.array([theta, theta**2, theta**3, theta**4]))


class DenseOutput:
    """Dense solution of one run: a scalar time gives a (d,) state, a 1-D
    array of K times a (K, d) array."""

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
    w_final: np.ndarray | None = None  # tangent at ts[-1], for a tangent run


def _error_norm(err, y0, y1, rtol, atol, tangent=None) -> float:
    """RMS of the scaled error.  ``tangent`` = (error, W0, W1) appends W row
    by row, accumulated in the same order as the state's components."""
    acc = 0.0
    for e, a, b in zip(err, y0, y1):
        q = e / (atol + rtol * max(abs(a), abs(b)))
        acc += q * q
    size = len(err)
    if tangent is not None:
        e, a, b = (np.ravel(x) for x in tangent)
        q = e / (atol + rtol * np.maximum(np.abs(a), np.abs(b)))
        acc = np.add.accumulate(np.concatenate(([acc], q * q)))[-1]
        size += q.size
    return math.sqrt(acc / size)


def _initial_step(f, t0, y0, f0, t1, rtol, atol) -> float:
    """First step from the scaled norms of y0, f0 and a difference quotient
    of f.  A non-finite f0, or one whose scaled norm overflows (no step above
    the floor could resolve it), raises :class:`IntegrationError`."""
    if not all(map(math.isfinite, f0)):
        raise IntegrationError(f"non-finite right-hand side at t={t0!r}", t=t0, y=np.array(y0))
    span = t1 - t0
    y = np.array(y0)
    fv = np.array(f0)
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
    f1 = np.array(f(t0 + h0, y1))
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


def _non_finite_stage(t, h, k, kw, stage_y, default):
    """IntegrationError at the first stage whose f, or else J W, is not
    finite; ``default`` = (stage, what) when none is (an overflow in the sums)."""
    for s in range(7):
        if not all(map(math.isfinite, k[s])):
            what = "right-hand side"
            break
        if kw[s] is not None and not np.all(np.isfinite(kw[s])):
            what = "tangent"
            break
    else:
        s, what = default
    t_bad = t + _C[s] * h
    return IntegrationError(f"non-finite {what} at t={t_bad!r}", t=t_bad, y=np.array(stage_y[s]))


def _tangent_increment(a, kw, s):
    """sum_l a[l] kw[l] over the stages before s, accumulated in stage order."""
    acc = a[0] * kw[0]
    for l in range(1, s):
        if a[l] != 0.0:
            acc = acc + a[l] * kw[l]
    return acc


def solve_rk45(
    f,
    t_span,
    y0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    events: tuple = (),
    dense: bool = True,
    w0=None,
    control_tangent: bool = False,
) -> RKResult:
    """Integrate y' = f(t, y) over t_span with the 5(4) pair.

    With a finite tangent ``w0`` (d x m), ``f(t, y, w)`` returns the pair
    (f(t, y), J(t, y) w) and the result carries W(t1) as ``w_final``.  A
    tangent run stores no dense output and locates no events.  With
    ``control_tangent`` its error norm and initial step cover W as well as
    the state.  The final state is ``ys[-1]``; with ``dense`` the result
    carries a :class:`DenseOutput`.  A right-hand side or a tangent that
    turns NaN or infinite raises :class:`IntegrationError` with the time and
    state of the first stage that produced it, and so does a run that takes
    ``_MAX_STEPS`` steps, accepted and rejected, without reaching the end of
    the span.  A span that is not finite and increasing, rtol outside
    [1e-13, inf) or atol outside (0, inf) raises ``ValueError`` at entry.
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
    w = None
    if control_tangent and w0 is None:
        raise ValueError("control_tangent needs a tangent w0")
    if w0 is not None:
        if events or dense:
            raise ValueError("events and dense output need a run without a tangent")
        w = np.array(w0, dtype=float)
        if w.ndim != 2 or w.shape[0] != d:
            raise ValueError("the tangent needs one row per state component")
        if not np.all(np.isfinite(w)):
            raise ValueError("the tangent must be finite")

    result = RKResult(ts=np.empty(0), ys=np.empty((0, d)))
    ts = [t0]
    ys = [np.array(y)]
    hs, qs = [], []  # length and interpolant coefficients of each accepted step

    k = [None] * 7
    kw = [None] * 7
    stage_y = [None] * 7
    t = t0
    fv, fw = f(t, y, w) if w is not None else (f(t, y), None)
    if w is None:
        h = _initial_step(f, t0, y, fv, t1, rtol, atol)
    elif control_tangent:

        def stacked(t, yw):
            fy, fw = f(t, yw[:d], np.reshape(yw[d:], w.shape))
            return [*fy, *np.ravel(fw)]

        h = _initial_step(stacked, t0, [*y, *np.ravel(w)], [*fv, *np.ravel(fw)], t1, rtol, atol)
    else:
        h = _initial_step(lambda t, y: f(t, y, w)[0], t0, y, fv, t1, rtol, atol)
    facold = 1e-4
    g_prev = None
    if events:
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

        k[0], kw[0], stage_y[0] = fv, fw, y
        for s in range(1, 7):
            a = _A[s]
            yt = [
                y[i] + h * sum(a[l] * k[l][i] for l in range(s) if a[l] != 0.0)
                for i in range(d)
            ]
            stage_y[s] = yt
            if w is None:
                k[s] = f(t + _C[s] * h, yt)
            else:
                wt = w + h * _tangent_increment(a, kw, s)
                k[s], kw[s] = f(t + _C[s] * h, yt, wt)
        # the last stage is taken at the 5th-order solution (FSAL)
        y_new = stage_y[6]
        err_vec = [
            h * sum(_E[l] * k[l][i] for l in range(7) if _E[l] != 0.0)
            for i in range(d)
        ]
        tangent_err = (h * _tangent_increment(_E, kw, 7), w, wt) if control_tangent else None
        err = _error_norm(err_vec, y, y_new, rtol, atol, tangent_err)
        if not math.isfinite(err):
            raise _non_finite_stage(t, h, k, kw, stage_y, (0, "right-hand side"))

        if err > 1.0:
            # reject: shrink and retry
            fac11 = err**_EXPO
            h = h / min(1.0 / _MIN_FACTOR, fac11 / _SAFETY)
            finished = False
            result.n_rejected += 1
            continue
        # a state-only error norm does not see W, and an infinite W scales its
        # own error to zero, so check it on acceptance
        if w is not None and not np.all(np.isfinite(wt)):
            raise _non_finite_stage(t, h, k, kw, stage_y, (6, "tangent"))

        result.n_accepted += 1
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
                result.events.append(EventHit(idx, events[idx].name, t_ev, y_ev))
                if events[idx].terminal and stop_at is None:
                    stop_at = (t_ev, y_ev)
            g_prev = g_new

        if stop_at is not None:
            t, y_stop = stop_at
            ts.append(t)
            ys.append(y_stop)
            finished = True
        else:
            t = t_new
            y = y_new
            ts.append(t)
            ys.append(y_new_arr)
            fv = k[6]  # FSAL: stage 7 is f at the accepted solution
            if w is not None:
                w, fw = wt, kw[6]

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
    result.w_final = w
    return result
