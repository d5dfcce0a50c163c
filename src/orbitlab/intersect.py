"""Detection and classification of orbit intersections.

Candidate coincidences come from a uniform spatial hash over a dense
polyline resampling of the orbit (Teschner et al., VMV 2003).  Cells are at
least as large as the largest segment, boxes are inflated by the acceptance
margin, and on a torus every axis holds a whole number of cells, so that no
near-miss straddles a cell boundary or a period unseen.  Hashed pairs pass
a minimal-image box test, so the candidate list equals that of the O(N^2)
all-pairs generator, which the tests keep as the oracle
(``oracles.brute_candidates``).  Candidates are taken in order; each one not
already covered by a reported pair is refined by a damped Newton iteration
on the squared separation of the two strands (time parameters wrap modulo
the period) and classified at once by the angle between the refined
velocities:

* ``reversal``     -- antiparallel strands; on a brake orbit these are the
                      retrace coincidences with s + t = tau (mod tau) and are
                      never double points,
* ``double_point`` -- genuinely transversal crossings,
* ``tangential``   -- parallel within the angular tolerance; reported as an
                      ambiguity because transversality cannot be certified.

Pairs whose refinement stalls between the acceptance and rejection
thresholds are reported in ``unresolved`` rather than silently dropped.
"""

from __future__ import annotations

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
_PAIR_CHUNK = 2048  # hashed pairs per overlap test; bounds peak memory


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
    """Dense-output view of one periodic orbit plus its polyline."""

    def __init__(self, orbit: PeriodicOrbit):
        self.orbit = orbit
        self.space = orbit.spec.metric.space
        self.n = orbit.spec.dimension
        self.period = orbit.period
        pts = self._resample(1024)
        diam = float(
            np.max(np.max(pts, axis=0) - np.min(pts, axis=0))
        )
        self.diameter = max(diam, 1e-12)
        max_step = self.diameter / 512.0
        count = 1024
        while count < 65536:
            seg = np.linalg.norm(np.diff(pts, axis=0), axis=1).max()
            if seg <= max_step:
                break
            count *= 2
            pts = self._resample(count)
        self.ts = np.linspace(0.0, self.period, len(pts))
        self.pts = pts

    def _resample(self, count: int) -> np.ndarray:
        ts = np.linspace(0.0, self.period, count + 1)
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

    def wrap_param(self, t: float) -> float:
        return float(np.mod(t, self.period))


def _segment_boxes(pts: np.ndarray):
    lo = np.minimum(pts[:-1], pts[1:])
    hi = np.maximum(pts[:-1], pts[1:])
    return lo, hi


def _box_centres(strand: _Strand):
    lo, hi = _segment_boxes(strand.pts)
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _boxes_overlap(ca, ea, cb, eb, periods, margin):
    """Minimal-image test that boxes (centre, half-extent) overlap within margin.

    Broadcasts over leading axes; the last axis is the coordinate.
    """
    d = ca - cb
    if periods is not None:
        d -= periods * np.round(d / periods)
    return np.all(np.abs(d) <= ea + eb + margin, axis=-1)


def _periods(strand: _Strand):
    space = strand.space
    return np.asarray(space.periods) if space.kind == "torus" else None


def _hash_candidates(strand_a: _Strand, strand_b: _Strand | None, margin: float):
    """Segment index pairs sharing an inflated spatial-hash cell.

    The hashed pairs are a superset of the overlapping ones and are filtered
    by :func:`_boxes_overlap`, so the result equals the all-pairs list.
    """
    same = strand_b is None
    if same:
        strand_b = strand_a
    la, ha = _segment_boxes(strand_a.pts)
    lb, hb = _segment_boxes(strand_b.pts)
    cell = max(
        float(np.max(ha - la)), float(np.max(hb - lb)), 1e-12
    )
    periods = _periods(strand_a)
    cells = np.full(la.shape[1], cell)
    if periods is not None:
        # a whole number of cells per period keeps keys consistent across images
        ncells = np.maximum(np.floor(periods / cell).astype(int), 1)
        cells = periods / ncells
    na, nb = len(la), len(lb)
    lo = la if same else np.concatenate([la, lb])
    hi = ha if same else np.concatenate([ha, hb])
    lo_c = np.floor((lo - margin) / cells).astype(np.int64)
    hi_c = np.floor((hi + margin) / cells).astype(np.int64)
    if periods is None:
        base = lo_c.min(axis=0)
        extent = hi_c.max(axis=0) - base + 1
    else:
        base, extent = np.zeros_like(ncells), ncells

    # one entry (cell, box) per cell that an inflated box touches, sorted so
    # that each cell's boxes form one run
    entries = []
    for offset in np.ndindex(*(np.max(hi_c - lo_c, axis=0) + 1)):
        c = lo_c + offset
        box = np.flatnonzero(np.all(c <= hi_c, axis=1))
        cell_id = np.ravel_multi_index(((c[box] - base) % extent).T, extent)
        entries.append(np.stack([cell_id, box], axis=1))
    cell_id, box = np.unique(np.concatenate(entries), axis=0).T

    # every two boxes of one cell that overlap, coded as i * nb + j
    ca, ea = _box_centres(strand_a)
    cb, eb = _box_centres(strand_b)
    codes = []
    for gap in range(1, len(box)):
        shared = np.flatnonzero(cell_id[gap:] == cell_id[:-gap])
        if not shared.size:
            break
        i, j = box[shared], box[shared + gap]
        if not same:  # boxes of strand a come first within a cell
            cross = (i < na) & (j >= na)
            i, j = i[cross], j[cross] - na
        for start in range(0, len(i), _PAIR_CHUNK):
            ic, jc = i[start : start + _PAIR_CHUNK], j[start : start + _PAIR_CHUNK]
            keep = _boxes_overlap(ca[ic], ea[ic], cb[jc], eb[jc], periods, margin)
            codes.append(ic[keep] * nb + jc[keep])
    if not codes:
        return []
    ii, jj = np.divmod(np.unique(np.concatenate(codes)), nb)
    return list(zip(ii.tolist(), jj.tolist()))


def _param_gap_circular(a: float, b: float, period: float) -> float:
    d = abs(math.fmod(a - b, period))
    return min(d, period - d)


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _refine_pair(sa: _Strand, sb: _Strand, s: float, t: float):
    """Damped Newton on half the squared separation of a at s and b at t.

    Levenberg-damped Newton steps with a 25-trial line search that raises
    the damping on a failed or singular trial and relaxes it on success.
    Ends converged on a vanishing gradient or a negligible decrease, and
    stalled when the line search fails or ``_REFINE_MAX_ITER`` steps pass.
    Dense lookups are 1-row array calls, not scalar ones, which round
    differently: on a zero curve (a brake orbit's retrace line) where Newton
    stops is set by rounding alone.  Returns (s, t, gap, ok).
    """
    space, n = sa.space, sa.n

    def separation(s, t):
        zs, zt = sa.state(np.array([s])), sb.state(np.array([t]))
        d = space.delta(zs[:, :n], zt[:, :n])
        return d, _rowdot(d, d)[0], zs[:, n:], zt[:, n:]

    d, f2, vs, vt = separation(s, t)
    lam = 1e-10
    for _ in range(_REFINE_MAX_ITER):
        acs, act = sa.acceleration(np.array([s])), sb.acceleration(np.array([t]))
        g1, g2 = _rowdot(d, vs)[0], -_rowdot(d, vt)[0]
        h11 = _rowdot(vs, vs)[0] + _rowdot(d, acs)[0]
        h12 = -_rowdot(vs, vt)[0]
        h22 = _rowdot(vt, vt)[0] - _rowdot(d, act)[0]
        scale = max(np.linalg.norm(vs, axis=1)[0], np.linalg.norm(vt, axis=1)[0], 1e-12)
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

def _scan(strand_a: _Strand, strand_b: _Strand | None):
    same = strand_b is None
    sb = strand_a if same else strand_b
    diam = max(strand_a.diameter, sb.diameter)
    tol_space = 1e-6 * diam
    reject_gap = _NEAR_MISS_FACTOR * tol_space
    candidates = _hash_candidates(strand_a, strand_b, reject_gap)

    n_seg_a = len(strand_a.pts) - 1
    dt_a = strand_a.period / n_seg_a
    dt_b = sb.period / (len(sb.pts) - 1)
    guard = 4

    accepted: list[IntersectionPair] = []
    unresolved: list[IntersectionPair] = []

    def near_existing(s_mid: float, t_mid: float) -> bool:
        for p in accepted:
            if p.kind == "reversal" and same:
                key = math.fmod(s_mid + t_mid, strand_a.period)
                if _param_gap_circular(key, p.s + p.t, strand_a.period) < 6 * dt_a:
                    return True
            else:
                if (
                    _param_gap_circular(s_mid, p.s, strand_a.period) < 6 * dt_a
                    and _param_gap_circular(t_mid, p.t, sb.period) < 6 * dt_b
                ):
                    return True
        for p in unresolved:
            if (
                _param_gap_circular(s_mid, p.s, strand_a.period) < 6 * dt_a
                and _param_gap_circular(t_mid, p.t, sb.period) < 6 * dt_b
            ):
                return True
        return False

    def classify(s: float, t: float, gap: float, ok: bool):
        s = strand_a.wrap_param(s)
        t = sb.wrap_param(t)
        if same and _param_gap_circular(s, t, strand_a.period) < 4 * dt_a:
            return  # collapsed onto the diagonal; not a coincidence
        point = strand_a.space.wrap(strand_a.position(s))
        if not ok and gap > tol_space:
            unresolved.append(IntersectionPair(s, t, point, "stalled", gap))
            return
        if gap <= tol_space:
            rel = _classify_angle(strand_a.velocity(s), sb.velocity(t))
            if same:
                retrace = (
                    _param_gap_circular(s + t, 0.0, strand_a.period)
                    < 1e-6 * strand_a.period
                )
                if rel == "antiparallel" or (
                    strand_a.orbit.kind == "brake" and retrace
                ):
                    kind = "reversal"
                elif rel == "parallel":
                    kind = "tangential"
                else:
                    kind = "double_point"
            else:
                kind = "tangential" if rel != "transversal" else "double_point"
            accepted.append(IntersectionPair(s, t, point, kind, gap))
        elif gap <= reject_gap:
            unresolved.append(IntersectionPair(s, t, point, "near_miss", gap))
        # gaps beyond the rejection threshold are plain non-intersections

    for i, j in candidates:
        if same:
            ring = min(abs(i - j), n_seg_a - abs(i - j))
            if ring <= guard:
                continue
        s_mid = float(strand_a.ts[i] + 0.5 * dt_a)
        t_mid = float(sb.ts[j] + 0.5 * dt_b)
        if not near_existing(s_mid, t_mid):
            classify(*_refine_pair(strand_a, sb, s_mid, t_mid))

    accepted.sort(key=lambda p: (p.s, p.t))
    unresolved.sort(key=lambda p: (p.s, p.t))

    # distinct double points by location (minimal-image metric)
    space = strand_a.space
    dp_points: list[np.ndarray] = []
    cluster_tol = max(8.0 * tol_space, 1e-9 * diam)
    for p in accepted:
        if p.kind != "double_point":
            continue
        if all(
            np.linalg.norm(space.delta(p.point, q)) > cluster_tol for q in dp_points
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
    tolerance failure; they surface in the report rather than vanish.
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
