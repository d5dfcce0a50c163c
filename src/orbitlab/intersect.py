"""Detection and classification of orbit intersections.

A strand is an orbit's integrator steps, each halved by de Casteljau's
algorithm until its pieces span at most 1/16 of the strand's ``scale`` on every axis: the
extent of its steps' Bernstein boxes, each axis capped at its period on a
torus, so that a piece there never wraps.  A piece's polynomial lies in the
hull of its Bernstein coefficients (:meth:`DenseOutput.bernstein
<orbitlab.rk.DenseOutput.bernstein>`), so in their box and within their
largest distance, the radius, of its chord.  Both enclose the dense output,
not the exact orbit: the interpolant errs by up to about the tolerance
inside a step, and a bound on the separation must add that error.
Candidates come from a sort-and-sweep broad phase over the piece boxes
(Cohen, Lin, Manocha & Ponamgi, I-COLLIDE, 1995).  Boxes of two pieces
overlap within the margin only if their centres lie, on every axis, within
reach = the largest half-extents of both strands plus the margin.  One axis
is swept: two binary searches in the sorted centres of b give each box of a
its run of b's boxes within reach (on a torus the centres wrap into one
period, unrolled once on either side).  It is the axis whose runs hold the
fewest boxes, found on every call; the axis of largest spread fails on a
torus, where a winding axis spans many periods of the cover while its
wrapped centres crowd one.  The pairs of the runs pass a minimal-image box
test (:meth:`Space.delta <orbitlab.geometry.Space.delta>`), then a capsule
test, chords within the two radii plus the margin, which drops the passes
of a dense winding that run side by side; so the candidate list equals that
of the O(N^2) all-pairs generator, which the tests keep as the oracle
(``oracles.brute_candidates``).  Each live candidate, in order, is refined
by a damped Newton iteration on the squared separation of the two strands
from the midpoints of its two pieces (times wrap modulo the period, and
fold onto the arc of a brake orbit), and the pair it records retires the
candidates it covers.  The acceptance gap is 1e-6 of the strands' largest
``scale``, so that a winding orbit's tolerances do not grow with the
winding; the rejection gap is 10 acceptance gaps.  Two times name one point
when at the orbit's speed the time between them takes less than the
rejection gap (``_Strand.one_point``).  The rules:

* a self-scan drops pairs of the same or adjacent pieces, around the ring
  of a closed strand, so it does not search a loop that closes within two
  pieces, at most 1/8 of the scale across; the error control keeps steps
  short where the orbit turns fast (a loop 1/57 of the scale across, around
  a narrow well, spans 107 pieces);
* a refined pair whose s and t name one point has collapsed onto the
  diagonal;
* a recorded reversal retires the candidates whose s_mid + t_mid lies within
  the sum of their two piece lengths of its s + t; another pair retires
  those within one piece of its pieces in both s and t;
* near misses merge within two pieces in s and in t; reversals are distinct
  when their s + t lie further apart than the two pieces that hold the
  later one, double points beyond 8 acceptance gaps.

Pairs, each image on its own, are classified by the angle between their
velocities:

* ``reversal``     -- antiparallel strands; on a brake orbit these include
                      the retrace coincidences with s + t = T (mod T), which
                      are never double points,
* ``double_point`` -- genuinely transversal crossings,
* ``tangential``   -- parallel within the angular tolerance; reported as an
                      ambiguity because transversality cannot be certified.

A rotation's strand is a closed ring of pieces over its period T.  A brake
orbit's is its arc x([0, T/2]), the pieces of the steps that start before
T/2 (a ``find_brake`` orbit's half run): the second half retraces the arc,
x(T - t) = x(t), so the arc holds every point of the orbit, and a pair (a,
b) found on arcs stands for its images {a, T - a} x {b, T - b} over the full
periods (one image where a and T - a name one point).  This holds for self
and mutual scans alike.  On a self-scan a brake orbit meets itself along the
whole retrace line s + t = 0 (mod T); the scan records that line by
construction, as one ``reversal`` pair at (T/4, 3T/4), and never searches
for it.

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
_PIECE_SHARE = 1 / 16  # a piece's largest extent on an axis, as a share of the scale
_PAIR_CHUNK = 16384  # swept pairs per overlap test; bounds peak memory


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
# Pieces
# ---------------------------------------------------------------------------

class _Strand:
    """Dense-output view of one periodic orbit plus the pieces of its steps:
    piece i starts at ``ts[i]``, is ``h[i]`` long, and its positions lie in
    the box ``centres[i]`` +- ``half[i]`` and within ``radius[i]`` of its
    chord ``chords[0][i]``--``chords[1][i]``.  A rotation's pieces are a
    closed ring over [0, T], a brake orbit's those of the steps that start
    before T/2, an open arc (``arc``; :meth:`images`).  Times wrap modulo T."""

    def __init__(self, orbit: PeriodicOrbit):
        self.orbit = orbit
        self.space = orbit.spec.metric.space
        self.n = orbit.spec.dimension
        self.period = orbit.period
        self.arc = orbit.kind == "brake"
        dense = orbit.trajectory.dense
        if dense is None:
            raise ValueError("trajectory carries no dense output")
        span = self.period / 2 if self.arc else self.period
        count = min(int(np.searchsorted(dense.ts, span)), len(dense.h))
        b, ulp = dense.bernstein(count)
        b = b[:, : self.n]
        # the tolerances' length: on a torus an axis spans at most one period,
        # however often the orbit winds around it; at least 1e-12 of the
        # coordinates, so the halving below ends above their rounding
        extent = np.max(b, axis=(0, 2)) - np.min(b, axis=(0, 2))
        periods = self.space.periods if self.space.kind == "torus" else math.inf
        floor = 1e-12 * (1.0 + float(np.max(np.abs(b))))
        self.scale = max(float(np.max(np.minimum(extent, periods))), floor)
        # halve each step until its pieces span at most _PIECE_SHARE of the
        # scale, and of the period on a torus, on every axis
        limit = np.minimum(self.scale, periods) * _PIECE_SHARE
        ts, h = dense.ts[:count], dense.h[:count]
        halvings = np.zeros(count)
        while True:
            wide = np.any(np.ptp(b, axis=2) > limit, axis=1)
            if not wide.any():
                break
            left, right = _halve(b[wide])
            parent = np.repeat(np.arange(len(h)), 1 + wide)
            second = np.concatenate([[False], parent[1:] == parent[:-1]])
            h = np.where(wide[parent], 0.5, 1.0) * h[parent]
            ts, ulp = ts[parent] + second * h, ulp[parent]
            halvings = halvings[parent] + wide[parent]
            b = b[parent]
            b[wide[parent] & ~second], b[second] = left, right
        self.ts, self.h = ts, h
        # b rounds by 8 ulps of its step, m/2 more per halving
        pad = ((8.0 + 0.5 * (b.shape[2] - 1) * halvings) * ulp)[:, None]
        lo, hi = np.min(b, axis=2) - pad, np.max(b, axis=2) + pad
        self.centres, self.half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        self.chords = b[..., 0], b[..., -1]
        self.radius = np.max(_segment_gaps(b, b, *(end[..., None] for end in self.chords)), axis=1)
        # a coefficient and the chord's ends each round by pad on every axis
        self.radius += 2 * np.sqrt(self.n) * pad[:, 0]

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

    def piece(self, t):
        """The index of the piece that holds the folded time t (or times)."""
        return np.clip(np.searchsorted(self.ts, t, "right") - 1, 0, len(self.h) - 1)

    def pieces_apart(self, i, j):
        """|i - j| for piece indices, around the ring of a closed strand."""
        gap = np.abs(i - j)
        return gap if self.arc else np.minimum(gap, len(self.h) - gap)

    def one_point(self, s: float, t: float, gap: float) -> bool:
        """Whether times s and t name one point: at its speed at s the orbit
        covers the time between them, modulo T, in less than ``gap``."""
        return _param_gap_circular(s, t, self.period) * np.linalg.norm(self.velocity(s)) <= gap

    def images(self, t: float, gap: float) -> list[float]:
        """The times of one period at which the orbit passes the strand's
        point at t: t, and on an arc T - t too, unless they name one point
        (:meth:`one_point` within ``gap``)."""
        if self.arc and not self.one_point(t, self.period - t, gap):
            return [t, self.period - t]
        return [t]


def _halve(b):
    """The Bernstein coefficients of the two halves of polynomials b, on the
    last axis: de Casteljau's algorithm at 1/2, whose m averagings each
    round by at most half an ulp of the largest coefficient of b."""
    left, right = [b[..., 0]], [b[..., -1]]
    while b.shape[-1] > 1:
        b = 0.5 * (b[..., :-1] + b[..., 1:])
        left.append(b[..., 0])
        right.append(b[..., -1])
    return np.stack(left, axis=-1), np.stack(right[::-1], axis=-1)


def _segment_gaps(p0, p1, q0, q1):
    """Distances between segments p0--p1 and q0--q1, coordinates on axis 1,
    broadcast over the others (Ericson, *Real-Time Collision Detection*,
    2005, 5.1.9).  Each is the distance of two points of the segments, so
    rounding can only lengthen it: by about sqrt(eps) of a segment's length
    where they are nearly parallel."""
    d1, d2, r = p1 - p0, q1 - q0, p0 - q0
    a, e = np.sum(d1 * d1, axis=1), np.sum(d2 * d2, axis=1)
    b, c, f = np.sum(d1 * d2, axis=1), np.sum(d1 * r, axis=1), np.sum(d2 * r, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = a * e - b * b
        s = np.where(denom > 0, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
        t = np.where(e > 0, (b * s + f) / e, 0.0)
        # t clamped to an end: the nearest s to that end
        s = np.where((t < 0) | (e <= 0), np.clip(-c / a, 0.0, 1.0),
                     np.where(t > 1, np.clip((b - c) / a, 0.0, 1.0), s))
        s = np.where(a > 0, s, 0.0)
    t = np.clip(t, 0.0, 1.0)
    return np.sqrt(np.sum((r + s[:, None] * d1 - t[:, None] * d2) ** 2, axis=1))


def _boxes_overlap(ca, ea, cb, eb, space, margin):
    """Minimal-image test that boxes (centre, half-extent) overlap within
    margin; broadcasts over leading axes, the last axis the coordinate."""
    return np.all(np.abs(space.delta(ca, cb)) <= ea + eb + margin, axis=-1)


def _capsules_meet(strand_a: _Strand, i, strand_b: _Strand, j, margin: float):
    """Whether pieces i of a and j of b come within margin by their chords
    and radii, b's piece moved to its image nearest a's on a torus; a few
    ulps of the largest coordinate further, past the rounding of the move."""
    ca, cb = strand_a.centres[i], strand_b.centres[j]
    shift = (ca - cb) - strand_a.space.delta(ca, cb)
    a0, a1 = (end[i] for end in strand_a.chords)
    b0, b1 = (end[j] + shift for end in strand_b.chords)
    reach = strand_a.radius[i] + strand_b.radius[j] + margin
    reach += 8 * np.spacing(np.max(np.abs(ca) + np.abs(cb), axis=1))
    return _segment_gaps(a0, a1, b0, b1) <= reach


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
    """Sorted piece index pairs (i, j) whose boxes overlap, and capsules
    meet, within margin, i < j for a self-scan (``strand_b`` None): one
    sweep (module docstring)."""
    same = strand_b is None
    ca, ea = strand_a.centres, strand_a.half
    cb, eb = (ca, ea) if same else (strand_b.centres, strand_b.half)
    space, n, nb = strand_a.space, ca.shape[1], len(cb)
    periods = space.periods if space.kind == "torus" else (None,) * n
    # runs reach a few ulps of the largest coordinate or period further, past
    # the rounding of the wrap and of the minimal-image difference
    big = np.max(np.abs(np.concatenate([ca, cb, [[p or 0.0 for p in periods]]])), axis=0)
    reach = np.max(ea, axis=0) + np.max(eb, axis=0) + margin + 8 * np.spacing(big)
    runs = [_runs(ca[:, k], cb[:, k], reach[k], periods[k]) for k in range(n)]
    lo, hi, order = min(runs, key=lambda run: int(np.sum(run[1] - run[0])))
    first = np.concatenate([[0], np.cumsum(hi - lo)])  # pairs before each box of a
    codes = [np.zeros(0, dtype=np.int64)]
    for start in range(0, int(first[-1]), _PAIR_CHUNK):
        # the next _PAIR_CHUNK swept pairs, cut across boxes of a
        at = np.arange(start, min(start + _PAIR_CHUNK, int(first[-1])))
        i = np.searchsorted(first, at, "right") - 1
        j = order[lo[i] + at - first[i]]
        if same:
            upper = i < j
            i, j = i[upper], j[upper]
        keep = _boxes_overlap(ca[i], ea[i], cb[j], eb[j], space, margin)
        i, j = i[keep], j[keep]
        keep = _capsules_meet(strand_a, i, strand_a if same else strand_b, j, margin)
        codes.append(i[keep] * nb + j[keep])
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

def _merge_near_misses(unresolved: list, near):
    """Unresolved pairs in (s, t) order, each run of near misses as its least gap.

    A near miss continues the run of the entry before it when ``near`` it.
    """
    merged, prev = [], None
    for p in sorted(unresolved, key=lambda p: (p.s, p.t)):
        if prev is not None and p.kind == prev.kind == "near_miss" and near(p, prev):
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
    pa = strand_a.period

    candidates = _candidates(strand_a, strand_b, reject_gap)
    i, j = np.array(candidates, dtype=np.int64).reshape(-1, 2).T
    if same:  # drop pairs of the same or adjacent pieces
        keep = strand_a.pieces_apart(i, j) > 1
        i, j = i[keep], j[keep]
    s_mid = strand_a.ts[i] + 0.5 * strand_a.h[i]
    t_mid = sb.ts[j] + 0.5 * sb.h[j]

    def covers(p: IntersectionPair) -> np.ndarray:
        """The candidates the recorded pair p stands for."""
        if p.kind == "reversal":  # the whole retrace line s + t = const
            key = np.fmod(s_mid + t_mid, pa)
            return _param_gap_circular(key, p.s + p.t, pa) < strand_a.h[i] + sb.h[j]
        near_s = strand_a.pieces_apart(i, strand_a.piece(p.s)) <= 1
        return near_s & (sb.pieces_apart(j, sb.piece(p.t)) <= 1)

    def classify(s: float, t: float, gap: float, ok: bool) -> list[IntersectionPair]:
        """The pairs a refined (s, t) stands for: none, or the one on the
        strands, then its other images over the full periods."""
        s, t = strand_a.fold(s), sb.fold(t)
        if same and strand_a.one_point(s, t, reject_gap):
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
        for s_image, t_image in itertools.product(strand_a.images(s, reject_gap),
                                                  sb.images(t, reject_gap)):
            if same and strand_a.arc:  # one pair per crossing: s < t
                s_image, t_image = sorted((s_image, t_image))
            image_kind = kind or _kind(
                _classify_angle(strand_a.velocity(s_image), sb.velocity(t_image)), same
            )
            pairs.append(IntersectionPair(s_image, t_image, point, image_kind, gap))
        return pairs

    # refine, in order, each candidate that no pair recorded so far covers
    live = np.ones(len(s_mid), dtype=bool)
    accepted = []
    unresolved = []
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

    def pieces(p: IntersectionPair):
        return strand_a.piece(strand_a.fold(p.s)), sb.piece(sb.fold(p.t))

    def near(p: IntersectionPair, q: IntersectionPair) -> bool:
        """Whether p's pieces lie within two of q's, in s and in t."""
        (i, j), (k, m) = pieces(p), pieces(q)
        return strand_a.pieces_apart(i, k) <= 2 and sb.pieces_apart(j, m) <= 2

    def retrace(p: IntersectionPair, q: IntersectionPair) -> bool:
        """Whether reversal p lies on q's retrace line: their keys s + t
        within the lengths of the two pieces that hold p."""
        i, j = pieces(p)
        return _param_gap_circular(p.s + p.t, q.s + q.t, pa) <= strand_a.h[i] + sb.h[j]

    def distinct(kind: str, same_as) -> int:
        """How many pairs of this kind are the same as none before them."""
        kept: list = []
        for p in accepted:
            if p.kind == kind and not any(same_as(p, q) for q in kept):
                kept.append(p)
        return len(kept)

    return IntersectionReport(
        pairs=accepted,
        unresolved=_merge_near_misses(unresolved, near),
        # double points by location (minimal-image metric), reversals by s + t
        dp_count=distinct("double_point", lambda p, q: np.linalg.norm(
            space.delta(p.point, q.point)) <= 8.0 * tol_space),
        reversal_count=distinct("reversal", retrace),
        tangential_count=sum(1 for p in accepted if p.kind == "tangential"),
    )


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
