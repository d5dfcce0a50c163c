"""Detection and classification of orbit intersections.

Candidate coincidences come from a sort-and-sweep broad phase over a dense
polyline resampling of the orbit (Cohen, Lin, Manocha & Ponamgi, I-COLLIDE,
1995).  Boxes of two segments overlap within the acceptance margin only if
their centres lie, on every axis, within reach = the largest half-extents of
both strands plus the margin.  One axis is swept: two binary searches in the
sorted centres of b give each box of a its run of b's boxes within reach (on
a torus the centres wrap into one period, unrolled once on either side).  It
is the axis whose runs hold the fewest boxes, found on every call; the axis
of largest spread fails on a torus, where a winding axis spans many periods
of the cover while its wrapped centres crowd one.  The pairs of the runs
pass a minimal-image box test (:meth:`Space.delta
<orbitlab.geometry.Space.delta>`), so the candidate list equals that of the
O(N^2) all-pairs generator, which the tests keep as the oracle
(``oracles.brute_candidates``).  The candidates become arrays of segment
indices and midpoint times with one live flag each.  Each live candidate,
in order, is refined by a damped Newton iteration on the squared separation
of the two strands (time parameters wrap modulo the period, and fold onto
the arc of a brake orbit), and the pair it records retires every candidate
it covers: for a reversal those whose s + t lies within 6 segments of its
own, else those within 6 segments of it in both s and t.  The acceptance
gap is 1e-6 of the strands' largest extent, each axis capped at its period
on a torus, so that a winding orbit's tolerances do not grow with the
winding.  Pairs, each image on its own, are classified by the angle between
their velocities:

* ``reversal``     -- antiparallel strands; on a brake orbit these include
                      the retrace coincidences with s + t = T (mod T), which
                      are never double points,
* ``double_point`` -- genuinely transversal crossings,
* ``tangential``   -- parallel within the angular tolerance; reported as an
                      ambiguity because transversality cannot be certified.

A rotation's polyline is a closed ring over its period T.  A brake orbit's
is its arc x([0, T/2]), an open polyline: the second half retraces the arc,
x(T - t) = x(t), so the arc holds every point of the orbit, and a pair (a,
b) found on arcs stands for its images {a, T - a} x {b, T - b} over the
full periods (one image where T - a lies within 6 segments of a).  This
holds for self and mutual scans alike.  On a self-scan a brake orbit meets
itself along the whole retrace line s + t = 0 (mod T); the scan records
that line by construction, as one ``reversal`` pair at (T/4, 3T/4), and
never searches for it.

Pairs whose refinement stalls, and near misses between the acceptance and
rejection thresholds, are reported in ``unresolved`` rather than silently
dropped; a run of near misses along one strand pair is one entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OrbitLabError
from .orbits import PeriodicOrbit

__all__ = [
    "IntersectionPair",
    "IntersectionReport",
    "self_intersections",
    "mutual_intersections",
]

_NEAR_MISS_FACTOR = 10.0
_TOL_ANGLE = 1e-3  # radians from (anti)parallel that still count as parallel
_REFINE_MAX_ITER = 60  # Newton iterations per refined pair
_PAIR_CHUNK = 2048  # swept pairs per overlap test, or one longer run; bounds peak memory


@dataclass
class IntersectionPair:
    s: float
    t: float
    point: np.ndarray
    kind: str  # double_point | reversal | tangential | near_miss | stalled
    gap: float


@dataclass
class IntersectionReport:
    pairs: list = field(default_factory=list)
    unresolved: list = field(default_factory=list)
    dp_count: int = 0
    reversal_count: int = 0
    tangential_count: int = 0

    def to_dict(self) -> dict:
        def pair_dict(p):
            return {
                "s": p.s,
                "t": p.t,
                "point": [float(c) for c in p.point],
                "kind": p.kind,
                "gap": p.gap,
            }

        return {
            "pairs": [pair_dict(p) for p in self.pairs],
            "unresolved": [pair_dict(p) for p in self.unresolved],
            "dp_count": self.dp_count,
            "reversal_count": self.reversal_count,
            "tangential_count": self.tangential_count,
        }


# ---------------------------------------------------------------------------
# Polyline machinery
# ---------------------------------------------------------------------------

class _Strand:
    """Dense-output view of one periodic orbit plus its polyline.

    The polyline of a rotation is a closed ring over [0, T].  That of a
    brake orbit is its arc over [0, T/2], an open one (``arc``): the second
    half retraces it, and :meth:`images` gives the times of the full period
    at which the orbit passes a point of the arc.  Times wrap modulo T.
    """

    def __init__(self, orbit: PeriodicOrbit):
        self.orbit = orbit
        self.space = orbit.spec.metric.space
        self.n = orbit.spec.dimension
        self.period = orbit.period
        self.arc = orbit.kind == "brake"
        self.span = self.period / 2 if self.arc else self.period
        pts = self._resample(1024)
        extent = np.max(pts, axis=0) - np.min(pts, axis=0)
        self.diameter = max(float(np.max(extent)), 1e-12)
        # the tolerances' length: on a torus an axis spans at most one period,
        # however often the orbit winds around it
        periods = self.space.periods if self.space.kind == "torus" else math.inf
        self.scale = max(float(np.max(np.minimum(extent, periods))), 1e-12)
        max_step = self.diameter / 512.0
        count = 1024
        while count < 65536:
            seg = np.linalg.norm(np.diff(pts, axis=0), axis=1).max()
            if seg <= max_step:
                break
            count *= 2
            pts = self._resample(count)
        self.ts = np.linspace(0.0, self.span, len(pts))
        self.dt = self.span / count
        self.pts = pts

    def _resample(self, count: int) -> np.ndarray:
        ts = np.linspace(0.0, self.span, count + 1)
        return self.orbit.trajectory.position(ts)

    def state(self, t):
        """Dense state at t (scalar or 1-D array), wrapped into one period."""
        return self.orbit.trajectory.state(np.mod(t, self.period))

    def position(self, t):
        return self.state(t)[..., : self.n]

    def velocity(self, t):
        return self.state(t)[..., self.n :]

    def acceleration(self, t):
        state_rate = self.orbit.trajectory.state_derivative(np.mod(t, self.period))
        return state_rate[..., self.n :]

    def fold(self, t: float) -> float:
        """t wrapped into one period, and for an arc its time on the arc."""
        t = float(np.mod(t, self.period))
        return min(t, self.period - t) if self.arc else t

    def images(self, t: float) -> list[float]:
        """The times of one period at which the orbit passes the polyline's
        point at t: t, and on an arc T - t too, unless within 6 segments of t."""
        if self.arc and min(2.0 * t, self.period - 2.0 * t) >= 6 * self.dt:
            return [t, self.period - t]
        return [t]


def _box_centres(strand: _Strand):
    lo = np.minimum(strand.pts[:-1], strand.pts[1:])
    hi = np.maximum(strand.pts[:-1], strand.pts[1:])
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _boxes_overlap(ca, ea, cb, eb, space, margin):
    """Minimal-image test that boxes (centre, half-extent) overlap within
    margin; broadcasts over leading axes, the last axis the coordinate."""
    return np.all(np.abs(space.delta(ca, cb)) <= ea + eb + margin, axis=-1)


def _runs(a, b, reach, period):
    """Each a's run [lo, hi) of b's sorted values within reach, and ``order``,
    the index in b of each sorted value.  With a period, values wrap into
    [0, period), unrolled once on either side, and a run is cut to one
    period, which holds each value of b once."""
    if period is not None:
        a, b = np.mod(a, period), np.mod(b, period)
    order = np.argsort(b, kind="stable")
    keys = b[order]
    if period is not None:
        keys = np.concatenate([keys - period, keys, keys + period])
        order = np.tile(order, 3)
    lo = np.searchsorted(keys, a - reach)
    return lo, np.minimum(np.searchsorted(keys, a + reach, "right"), lo + len(b)), order


def _candidates(strand_a: _Strand, strand_b: _Strand | None, margin: float):
    """Sorted segment index pairs (i, j) whose boxes overlap within margin,
    i < j for a self-scan (``strand_b`` None): one sweep (module docstring)."""
    same = strand_b is None
    ca, ea = _box_centres(strand_a)
    cb, eb = (ca, ea) if same else _box_centres(strand_b)
    space, n, nb = strand_a.space, ca.shape[1], len(cb)
    periods = space.periods if space.kind == "torus" else (None,) * n
    # runs reach a few ulps of the largest coordinate or period further, past
    # the rounding of the wrap and of the minimal-image difference
    big = np.max(np.abs(np.concatenate([ca, cb, [[p or 0.0 for p in periods]]])), axis=0)
    reach = np.max(ea, axis=0) + np.max(eb, axis=0) + margin + 8 * np.spacing(big)
    runs = [_runs(ca[:, k], cb[:, k], reach[k], periods[k]) for k in range(n)]
    lo, hi, order = min(runs, key=lambda run: int(np.sum(run[1] - run[0])))
    sizes = hi - lo
    first = np.concatenate([[0], np.cumsum(sizes)])  # pairs before each box of a
    codes, start = [], 0
    while start < len(ca):
        # the next boxes whose runs hold at most _PAIR_CHUNK pairs, or one box
        stop = max(int(np.searchsorted(first, first[start] + _PAIR_CHUNK, "right")) - 1,
                   start + 1)
        i = np.repeat(np.arange(start, stop), sizes[start:stop])
        at = np.arange(first[start], first[stop])
        j = order[at - np.repeat(first[start:stop] - lo[start:stop], sizes[start:stop])]
        if same:
            upper = i < j
            i, j = i[upper], j[upper]
        keep = _boxes_overlap(ca[i], ea[i], cb[j], eb[j], space, margin)
        codes.append(i[keep] * nb + j[keep])
        start = stop
    ii, jj = np.divmod(np.sort(np.concatenate(codes)), nb)
    return list(zip(ii.tolist(), jj.tolist()))


def _param_gap_circular(a, b, period: float):
    """Distance of a and b modulo the period; a and b may be arrays."""
    d = np.abs(np.fmod(a - b, period))
    return np.minimum(d, period - d)


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray):
    # not np.dot: BLAS sums in another order, and on a zero curve where Newton
    # stops is set by rounding alone
    return np.einsum("i,i->", a, b)


def _refine_pair(sa: _Strand, sb: _Strand, s: float, t: float):
    """Damped Newton on half the squared separation of a at s and b at t.

    Levenberg-damped Newton steps with a 25-trial line search that raises
    the damping on a failed or singular trial and relaxes it on success.
    Ends converged on a vanishing gradient or a negligible decrease, and
    stalled when the line search fails or ``_REFINE_MAX_ITER`` steps pass.
    Returns (s, t, gap, ok).
    """
    space, n = sa.space, sa.n

    def separation(s, t):
        zs, zt = sa.state(s), sb.state(t)
        d = space.delta(zs[:n], zt[:n])
        return d, _dot(d, d), zs[n:], zt[n:]

    d, f2, vs, vt = separation(s, t)
    lam = 1e-10
    for _ in range(_REFINE_MAX_ITER):
        acs, act = sa.acceleration(s), sb.acceleration(t)
        g1, g2 = _dot(d, vs), -_dot(d, vt)
        vv, ww = _dot(vs, vs), _dot(vt, vt)
        h11, h12, h22 = vv + _dot(d, acs), -_dot(vs, vt), ww - _dot(d, act)
        scale = max(math.sqrt(vv), math.sqrt(ww), 1e-12)
        if max(abs(g1), abs(g2)) < 1e-14 * scale * (1.0 + math.sqrt(f2)):
            return s, t, math.sqrt(f2), True
        for _ in range(25):
            # one line-search trial: (H + lam I) step = -grad
            a11, a22 = h11 + lam, h22 + lam
            det = a11 * a22 - h12 * h12
            if det != 0.0:
                s_new = s + (h12 * g2 - a22 * g1) / det
                t_new = t + (h12 * g1 - a11 * g2) / det
                trial = separation(s_new, t_new)
                if trial[1] <= f2 * (1.0 + 1e-15) + 1e-300:
                    break
            lam = max(lam * 10.0, 1e-8)
        else:
            return s, t, math.sqrt(f2), False
        improved = f2 - trial[1]
        s, t, (d, f2, vs, vt) = s_new, t_new, trial
        lam = max(lam * 0.3, 1e-12)
        if improved <= 1e-16 * (1.0 + f2):
            return s, t, math.sqrt(f2), True
    return s, t, math.sqrt(f2), False


def _classify_angle(va, vb) -> str:
    ua = va / np.linalg.norm(va)
    ub = vb / np.linalg.norm(vb)
    c = float(np.dot(ua, ub))
    threshold = math.cos(_TOL_ANGLE)
    if c >= threshold:
        return "parallel"
    if c <= -threshold:
        return "antiparallel"
    return "transversal"


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def _merge_near_misses(unresolved: list, pa: float, pb: float, win_a: float, win_b: float):
    """Unresolved pairs in (s, t) order, each run of near misses as its least gap.

    A near miss continues the run of the entry before it when within win_a in
    s and win_b in t of it (circular gaps).
    """
    merged, prev = [], None
    for p in sorted(unresolved, key=lambda p: (p.s, p.t)):
        if (
            prev is not None
            and p.kind == prev.kind == "near_miss"
            and _param_gap_circular(p.s, prev.s, pa) < win_a
            and _param_gap_circular(p.t, prev.t, pb) < win_b
        ):
            merged[-1] = min(merged[-1], p, key=lambda q: q.gap)
        else:
            merged.append(p)
        prev = p
    return merged


def _kind(rel: str, same: bool) -> str:
    """The kind of an accepted pair whose velocities stand in relation ``rel``."""
    if rel == "transversal":
        return "double_point"
    return "reversal" if same and rel == "antiparallel" else "tangential"


def _scan(strand_a: _Strand, strand_b: _Strand | None):
    same = strand_b is None
    sb = strand_a if same else strand_b
    space = strand_a.space
    tol_space = 1e-6 * max(strand_a.scale, sb.scale)
    reject_gap = _NEAR_MISS_FACTOR * tol_space
    pa, pb = strand_a.period, sb.period
    n_seg_a = len(strand_a.pts) - 1
    dt_a, dt_b = strand_a.dt, sb.dt

    candidates = _candidates(strand_a, strand_b, reject_gap)
    i, j = np.array(candidates, dtype=np.int64).reshape(-1, 2).T
    if same:  # drop segments within 4 of each other (around the ring if closed)
        ring = np.abs(i - j)
        keep = (ring if strand_a.arc else np.minimum(ring, n_seg_a - ring)) > 4
        i, j = i[keep], j[keep]
    s_mid = strand_a.ts[i] + 0.5 * dt_a
    t_mid = sb.ts[j] + 0.5 * dt_b

    def covers(p: IntersectionPair) -> np.ndarray:
        """The candidates whose midpoints the recorded pair p stands for."""
        if p.kind == "reversal":  # the whole retrace line s + t = const
            key = np.fmod(s_mid + t_mid, pa)
            return _param_gap_circular(key, p.s + p.t, pa) < 6 * dt_a
        near_s = _param_gap_circular(s_mid, p.s, pa) < 6 * dt_a
        return near_s & (_param_gap_circular(t_mid, p.t, pb) < 6 * dt_b)

    def classify(s: float, t: float, gap: float, ok: bool) -> list[IntersectionPair]:
        """The pairs a refined (s, t) stands for: none, or the one on the
        polylines, then its other images over the full periods."""
        s, t = strand_a.fold(s), sb.fold(t)
        if same and _param_gap_circular(s, t, pa) < 4 * dt_a:
            return []  # collapsed onto the diagonal; not a coincidence
        if not ok and gap > tol_space:
            kind = "stalled"
        elif gap <= tol_space:
            kind = None  # by the velocities at each image
        elif gap <= reject_gap:
            kind = "near_miss"
        else:
            return []  # gaps beyond the rejection threshold are non-intersections
        point = space.wrap(strand_a.position(s))
        pairs = []
        for s_image, t_image in itertools.product(strand_a.images(s), sb.images(t)):
            if same and strand_a.arc:  # one pair per crossing: s < t
                s_image, t_image = sorted((s_image, t_image))
            image_kind = kind or _kind(
                _classify_angle(strand_a.velocity(s_image), sb.velocity(t_image)), same
            )
            pairs.append(IntersectionPair(s_image, t_image, point, image_kind, gap))
        return pairs

    # refine, in order, each candidate that no pair recorded so far covers
    live = np.ones(len(s_mid), dtype=bool)
    accepted: list[IntersectionPair] = []
    unresolved: list[IntersectionPair] = []
    for c in range(len(s_mid)):
        if live[c]:
            pairs = classify(*_refine_pair(strand_a, sb, float(s_mid[c]), float(t_mid[c])))
            if pairs:
                found = unresolved if pairs[0].kind in ("stalled", "near_miss") else accepted
                found += pairs
                live &= ~covers(pairs[0])
    if same and strand_a.arc:  # the second half retraces the arc: s + t = T
        s, t = 0.25 * pa, 0.75 * pa
        x_s = strand_a.position(s)
        gap = float(np.linalg.norm(space.delta(x_s, strand_a.position(t))))
        accepted.append(IntersectionPair(s, t, space.wrap(x_s), "reversal", gap))
    accepted.sort(key=lambda p: (p.s, p.t))
    unresolved = _merge_near_misses(unresolved, pa, pb, 12 * dt_a, 12 * dt_b)

    # distinct double points by location (minimal-image metric)
    dp_points: list[np.ndarray] = []
    for p in accepted:
        if p.kind != "double_point":
            continue
        if all(
            np.linalg.norm(space.delta(p.point, q)) > 8.0 * tol_space for q in dp_points
        ):
            dp_points.append(p.point)

    reversal_keys: list[float] = []
    for p in accepted:
        if p.kind != "reversal":
            continue
        key = math.fmod(p.s + p.t, strand_a.period)
        if all(
            _param_gap_circular(key, k, strand_a.period) > 6 * dt_a
            for k in reversal_keys
        ):
            reversal_keys.append(key)

    report = IntersectionReport(
        pairs=accepted,
        unresolved=unresolved,
        dp_count=len(dp_points),
        reversal_count=len(reversal_keys),
        tangential_count=sum(1 for p in accepted if p.kind == "tangential"),
    )
    return report


def self_intersections(orbit: PeriodicOrbit) -> IntersectionReport:
    """Self-coincidences of one periodic orbit, classified.

    For a rotation, equal positions at different times have linearly
    independent velocities, so tangential hits on rotations indicate a
    tolerance failure; they surface in the report rather than vanish.  A
    brake orbit is scanned on its arc over [0, T/2], and its retrace line is
    one ``reversal`` pair, by construction (module docstring).
    """
    return _scan(_Strand(orbit), None)


def mutual_intersections(a: PeriodicOrbit, b: PeriodicOrbit) -> IntersectionReport:
    """Common points of two geometrically distinct orbits of one system.

    One orbit passed twice is rejected, its coincidences with itself being a
    whole curve: the same object, or b a time-shifted copy of a (periods equal
    within the closure bound 1e-8 * scale, and b's start state on a's phase
    curve within 1e-7 * scale, scale = 1 + |a's start state|).
    """
    if a.spec != b.spec:
        raise OrbitLabError("orbits must come from the same system")
    if _time_shifted_copy(a, b):
        raise OrbitLabError("one orbit passed twice; use self_intersections")
    return _scan(_Strand(a), _Strand(b))


def _time_shifted_copy(a: PeriodicOrbit, b: PeriodicOrbit) -> bool:
    za, zb = a.trajectory.states[0], b.trajectory.states[0]
    scale = 1.0 + float(np.linalg.norm(za))
    if abs(a.period - b.period) > 1e-8 * scale:
        return False
    n, space = a.spec.dimension, a.spec.metric.space

    def gap(t):
        z = a.trajectory.state(t)
        return np.concatenate([space.delta(z[..., :n], zb[:n]), z[..., n:] - zb[n:]], axis=-1)

    # the nearest of 1025 samples, then Gauss-Newton on |gap(t)|^2
    ts = np.linspace(0.0, a.period, 1025)
    t = float(ts[np.argmin(np.linalg.norm(gap(ts), axis=1))])
    for _ in range(8):
        rate = a.trajectory.state_derivative(t)
        t = float(np.mod(t - gap(t) @ rate / (rate @ rate), a.period))
    return float(np.linalg.norm(gap(t))) <= 1e-7 * scale
