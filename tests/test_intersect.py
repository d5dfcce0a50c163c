import math
import types

import numpy as np
import pytest

import oracles

from orbitlab import dynamics as dyn
from orbitlab import expr as ex
from orbitlab import geometry as geo
from orbitlab import intersect as isect
from orbitlab import orbits as orb
from orbitlab import reference as ref
from orbitlab.dynamics import PhaseState
from orbitlab.errors import OrbitLabError


def flat_torus(periods=(2 * math.pi, 2 * math.pi), energy=0.5):
    metric = geo.MetricModel.euclidean(2, geo.Space.torus(periods))
    return dyn.SystemSpec(metric, ex.parse("0", 2), energy)


def straight_rotation(spec, x0, v0, period):
    traj = dyn.integrate(spec, PhaseState(x0, v0), (0.0, period), rtol=1e-12, atol=1e-14)
    return orb.PeriodicOrbit(
        spec=spec,
        trajectory=traj,
        period=period,
        kind="rotation",
        closure_residual=0.0,
    )


def lissajous_orbit(s_phase=math.pi / 4, a1=1.0, a2=0.5):
    osc = ref.OscillatorSpec((1.0, 2.0), 1.0, resonance=(1, 2))
    st = ref.lissajous_family(osc, a1, a2, s_phase, 0.0)
    energy = ref.lissajous_energy(osc, a1, a2)
    spec = dyn.SystemSpec(
        geo.MetricModel.euclidean(2),
        ex.parse(f"0.5*(x1^2 + {2.0**2!r}*x2^2)", 2),
        energy,
    )
    period = 2 * math.pi
    traj = dyn.integrate(spec, st, (0.0, period), rtol=1e-12, atol=1e-14)
    return orb.PeriodicOrbit(
        spec=spec,
        trajectory=traj,
        period=period,
        kind="rotation",
        closure_residual=orb._closure_residual(spec, traj.states[-1], traj.states[0]),
    )


def nonresonant_brake(axis=1):
    spec = ref.oscillator_system(ref.OscillatorSpec((1.0, math.sqrt(2.0)), 0.5))
    amp = [1.0, 1.0 / math.sqrt(2.0)][axis - 1]
    seed = [0.0, 0.0]
    seed[axis - 1] = amp
    return spec, orb.find_brake(spec, seed)


class TestSelfIntersections:
    def test_straight_torus_rotation_empty(self):
        spec = flat_torus()
        orbit = straight_rotation(spec, [0.0, 0.0], [1.0, 0.0], 2 * math.pi)
        report = isect.self_intersections(orbit)
        assert report.pairs == []
        assert report.dp_count == 0
        assert report.unresolved == []

    def test_nonresonant_brake_only_reversals(self):
        _, orbit = nonresonant_brake(1)
        report = isect.self_intersections(orbit)
        assert report.dp_count == 0
        assert report.pairs, "retrace coincidences should be reported"
        assert all(p.kind == "reversal" for p in report.pairs)
        assert report.reversal_count >= 1
        for p in report.pairs:
            offset = math.fmod(p.s + p.t, orbit.period)
            offset = min(offset, orbit.period - offset)
            assert offset < 1e-6 * orbit.period

    def test_lissajous_one_double_point_at_origin(self):
        orbit = lissajous_orbit()
        report = isect.self_intersections(orbit)
        assert report.dp_count == 1
        dps = [p for p in report.pairs if p.kind == "double_point"]
        assert dps
        for p in dps:
            assert np.linalg.norm(p.point) < 1e-7
            assert p.gap < 1e-8

    def test_lissajous_matches_brute_force(self):
        orbit = lissajous_orbit()
        fast = isect.self_intersections(orbit)
        slow = scan((orbit, None), brute_force=True)
        assert fast.dp_count == slow.dp_count == 1
        assert fast.reversal_count == slow.reversal_count
        assert fast.tangential_count == slow.tangential_count
        fast_dp = sorted(
            (p.s, p.t) for p in fast.pairs if p.kind == "double_point"
        )
        slow_dp = sorted(
            (p.s, p.t) for p in slow.pairs if p.kind == "double_point"
        )
        assert len(fast_dp) == len(slow_dp)
        for (s1, t1), (s2, t2) in zip(fast_dp, slow_dp):
            assert abs(s1 - s2) < 1e-6 * orbit.period
            assert abs(t1 - t2) < 1e-6 * orbit.period

    def test_no_double_point_with_antiparallel_velocities(self):
        orbit = lissajous_orbit()
        report = isect.self_intersections(orbit)
        for p in report.pairs:
            if p.kind != "double_point":
                continue
            va = orbit.trajectory.velocity(p.s)
            vb = orbit.trajectory.velocity(p.t)
            c = np.dot(va, vb) / (np.linalg.norm(va) * np.linalg.norm(vb))
            assert abs(c) < math.cos(1e-3)


class TestMutualIntersections:
    def test_axis_brakes_meet_at_origin(self):
        spec, orbit1 = nonresonant_brake(1)
        orbit2 = orb.find_brake(spec, [0.0, 1.0 / math.sqrt(2.0)])
        report = isect.mutual_intersections(orbit1, orbit2)
        assert report.dp_count == 1
        for p in report.pairs:
            assert np.linalg.norm(p.point) < 1e-7

    def test_axis_brakes_match_brute_force(self):
        spec, orbit1 = nonresonant_brake(1)
        orbit2 = orb.find_brake(spec, [0.0, 1.0 / math.sqrt(2.0)])
        fast = isect.mutual_intersections(orbit1, orbit2)
        slow = scan((orbit1, orbit2), brute_force=True)
        assert fast.dp_count == slow.dp_count == 1
        assert len(fast.pairs) == len(slow.pairs)

    def test_parallel_torus_rotations_empty(self):
        spec = flat_torus()
        a = straight_rotation(spec, [0.0, 0.0], [1.0, 0.0], 2 * math.pi)
        b = straight_rotation(spec, [0.0, math.pi], [1.0, 0.0], 2 * math.pi)
        report = isect.mutual_intersections(a, b)
        assert report.pairs == []
        assert report.unresolved == []

    def test_crossing_torus_windings_near_seam(self):
        # diagonal vs antidiagonal windings cross twice per torus cell,
        # including right at the wrap seam
        spec = flat_torus()
        period = 2 * math.pi * math.sqrt(2.0)
        c = 1.0 / math.sqrt(2.0)
        a = straight_rotation(spec, [0.0, 0.0], [c, c], period)
        b = straight_rotation(spec, [0.0, 0.0], [c, -c], period)
        fast = isect.mutual_intersections(a, b)
        slow = scan((a, b), brute_force=True)
        assert fast.dp_count == slow.dp_count
        assert fast.dp_count == 2
        assert len(fast.pairs) == len(slow.pairs)

    def test_same_orbit_rejected(self, scan_cases):
        brake, _ = scan_cases["brake"]
        a = straight_rotation(flat_torus(), [0.0, 0.0], [1.0, 0.0], 2 * math.pi)
        rebuilt = straight_rotation(flat_torus(), [0.0, 0.0], [1.0, 0.0], 2 * math.pi)
        assert rebuilt is not a
        for x, y in ((brake, brake), (a, rebuilt)):
            with pytest.raises(OrbitLabError, match="self_intersections"):
                isect.mutual_intersections(x, y)

    def test_time_shifted_copy_rejected(self):
        # the x-rotation from (1, 0) is the one from (0, 0) started a time 1 later
        spec = flat_torus()
        a = straight_rotation(spec, [0.0, 0.0], [1.0, 0.0], 2 * math.pi)
        b = straight_rotation(spec, [1.0, 0.0], [1.0, 0.0], 2 * math.pi)
        with pytest.raises(OrbitLabError, match="self_intersections"):
            isect.mutual_intersections(a, b)

    def test_parallel_distinct_rotation_scanned(self):
        spec = flat_torus()
        a = straight_rotation(spec, [0.0, 0.0], [1.0, 0.0], 2 * math.pi)
        b = straight_rotation(spec, [0.0, 1.0], [1.0, 0.0], 2 * math.pi)
        report = isect.mutual_intersections(a, b)
        assert report.pairs == [] and report.unresolved == []

    def test_orbits_of_different_systems_rejected(self):
        # a plane orbit used to be scanned with the torus minimal image
        torus = straight_rotation(flat_torus(), [0.0, 0.0], [1.0, 0.0], 2 * math.pi)
        plane_spec = dyn.SystemSpec(geo.MetricModel.euclidean(2), ex.parse("0", 2), 0.5)
        plane = straight_rotation(plane_spec, [0.0, 0.0], [0.0, 1.0], 2 * math.pi)
        other_energy = straight_rotation(flat_torus(energy=2.0), [0.0, 0.0], [0.0, 2.0], math.pi)
        for a, b in ((torus, plane), (plane, torus), (torus, other_energy)):
            with pytest.raises(OrbitLabError, match="same system"):
                isect.mutual_intersections(a, b)

    def test_equal_systems_built_apart_are_one_system(self):
        a = straight_rotation(flat_torus(), [0.0, 0.0], [1.0, 0.0], 2 * math.pi)
        b = straight_rotation(flat_torus(), [0.0, 0.0], [0.0, 1.0], 2 * math.pi)
        assert a.spec is not b.spec
        assert isect.mutual_intersections(a, b).dp_count == 1

    def test_symmetry_under_swap(self):
        spec, orbit1 = nonresonant_brake(1)
        orbit2 = orb.find_brake(spec, [0.0, 1.0 / math.sqrt(2.0)])
        ab = isect.mutual_intersections(orbit1, orbit2)
        ba = isect.mutual_intersections(orbit2, orbit1)
        assert ab.dp_count == ba.dp_count
        ab_pairs = sorted((round(p.s, 6), round(p.t, 6)) for p in ab.pairs)
        ba_pairs = sorted((round(p.t, 6), round(p.s, 6)) for p in ba.pairs)
        assert len(ab_pairs) == len(ba_pairs)
        for (s1, t1), (s2, t2) in zip(ab_pairs, ba_pairs):
            assert abs(s1 - s2) < 1e-5
            assert abs(t1 - t2) < 1e-5

    def test_report_dict_schema(self):
        spec, orbit1 = nonresonant_brake(1)
        orbit2 = orb.find_brake(spec, [0.0, 1.0 / math.sqrt(2.0)])
        d = isect.mutual_intersections(orbit1, orbit2).to_dict()
        assert set(d) == {
            "pairs",
            "unresolved",
            "dp_count",
            "reversal_count",
            "tangential_count",
        }
        assert all(
            set(p) == {"s", "t", "point", "kind", "gap"} for p in d["pairs"]
        )


def torus_crossing_pair():
    """Ridge and horizontal rotations on U = 0.1 cos x1 whose one crossing
    sits within 1e-3 of the horizontal orbit's start point."""
    metric = geo.MetricModel.euclidean(2, geo.Space.torus([2 * math.pi, 2 * math.pi]))
    spec = dyn.SystemSpec(metric, ex.parse("0.1*cos(x1)", 2), 1.0)

    def speed(x1):
        return math.sqrt(2.0 * (1.0 - 0.1 * math.cos(x1)))

    rx = (3.1694318, 5.6841789)
    hx = (3.1418294, 0.6689576)
    ridge = orb.find_rotation(spec, PhaseState(list(rx), [0.0, speed(rx[0])]))
    horizontal = orb.find_rotation(spec, PhaseState(list(hx), [speed(hx[0]), 0.0]))
    return ridge, horizontal


@pytest.fixture(scope="module")
def scan_cases():
    """Name -> (orbit, second orbit or None) for every orbit scanned in this file."""
    torus = flat_torus()
    straight = straight_rotation(torus, [0.0, 0.0], [1.0, 0.0], 2 * math.pi)
    shifted = straight_rotation(torus, [0.0, math.pi], [1.0, 0.0], 2 * math.pi)
    c = 1.0 / math.sqrt(2.0)
    winding = 2 * math.pi * math.sqrt(2.0)
    diagonal = straight_rotation(torus, [0.0, 0.0], [c, c], winding)
    antidiagonal = straight_rotation(torus, [0.0, 0.0], [c, -c], winding)
    spec, brake_x = nonresonant_brake(1)
    brake_y = orb.find_brake(spec, [0.0, 1.0 / math.sqrt(2.0)])
    ridge, horizontal = torus_crossing_pair()
    return {
        "straight": (straight, None),
        "brake": (brake_x, None),
        "lissajous": (lissajous_orbit(), None),
        "axis_brakes": (brake_x, brake_y),
        "parallel_windings": (straight, shifted),
        "seam_windings": (diagonal, antidiagonal),
        "start_crossing": (ridge, horizontal),
    }


CASE_NAMES = [
    "straight",
    "brake",
    "lissajous",
    "axis_brakes",
    "parallel_windings",
    "seam_windings",
    "start_crossing",
]


def scan(case, brute_force):
    """Scan an (orbit, second orbit or None) case; ``brute_force`` swaps the
    sweep for the all-pairs candidate generator."""
    a, b = case
    with pytest.MonkeyPatch.context() as mp:
        if brute_force:
            mp.setattr(isect, "_candidates", oracles.brute_candidates)
        if b is None:
            return isect.self_intersections(a)
        return isect.mutual_intersections(a, b)


def scan_margin(strand_a, strand_b=None):
    """The scan's rejection gap, the margin its candidates are found at."""
    return isect._NEAR_MISS_FACTOR * 1e-6 * max(strand_a.diameter, (strand_b or strand_a).diameter)


def assert_candidates_match(strand_a, strand_b=None):
    """The sweep's candidates at the scan's margin are the all-pairs list."""
    margin = scan_margin(strand_a, strand_b)
    swept = isect._candidates(strand_a, strand_b, margin)
    assert swept == oracles.brute_candidates(strand_a, strand_b, margin)
    return swept


def straight_winding(turns, period=2 * math.pi):
    """The straight closed winding of the flat torus T^n along ``turns``."""
    n = len(turns)
    spec = flat_torus((period,) * n) if n == 2 else dyn.SystemSpec(
        geo.MetricModel.euclidean(n, geo.Space.torus([period] * n)), ex.parse("0", n), 0.5)
    length = period * math.sqrt(sum(k * k for k in turns))
    return straight_rotation(spec, [0.0] * n, [k * period / length for k in turns], length)


class TestCandidatesMatchBruteForce:
    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_candidate_lists_equal(self, scan_cases, name):
        a, b = scan_cases[name]
        assert_candidates_match(isect._Strand(a), None if b is None else isect._Strand(b))

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_reports_equal(self, scan_cases, name):
        fast = scan(scan_cases[name], brute_force=False)
        slow = scan(scan_cases[name], brute_force=True)
        assert fast.to_dict() == slow.to_dict()

    @staticmethod
    def check_diagonal_rotation(n):
        orbit = straight_winding([1] * n)
        strand = isect._Strand(orbit)
        assert len(strand.pts) - 1 == 2048
        report = isect.self_intersections(orbit)
        assert report.pairs == [] and report.unresolved == []
        assert_candidates_match(strand)

    def test_six_dof_torus_rotation(self):
        self.check_diagonal_rotation(6)

    def test_nine_dof_torus_rotation(self):
        self.check_diagonal_rotation(9)

    def test_seven_dof_oscillator_orbit(self):
        n = 7
        spec = ref.oscillator_system(ref.OscillatorSpec(tuple(range(1, n + 1)), 1.0))
        traj = dyn.integrate(spec, PhaseState([0.1] * n, [0.05] * n), (0.0, 2 * math.pi))
        orbit = orb.PeriodicOrbit(spec=spec, trajectory=traj, period=2 * math.pi, kind="rotation")
        report = isect.self_intersections(orbit)
        assert report.pairs == [] and report.unresolved == []
        # every 8th of its 16,384 segments keeps the all-pairs oracle fast
        strand = isect._Strand(orbit)
        strand.pts = strand.pts[::8]
        assert_candidates_match(strand)

    @pytest.mark.parametrize("turns", [(1, 20), (1, 60), (1, 20, 7.4)], ids=str)
    def test_windings(self, turns):
        # the winding axis spans many periods in cover coordinates
        assert_candidates_match(isect._Strand(straight_winding(turns)))

    def test_boxes_longer_than_half_a_period(self):
        # (1, 1000): a segment spans almost a whole period of x2
        strand = isect._Strand(straight_winding((1, 1000)))
        assert 2 * np.max(isect._box_centres(strand)[1][:, 1]) > math.pi
        assert_candidates_match(strand)
        # (999, 1000): segments span almost a period on both axes, so on
        # either axis the runs reach across more than a period and are cut
        strand = isect._Strand(straight_winding((999, 1000)))
        assert np.all(2 * np.min(isect._box_centres(strand)[1], axis=0) > math.pi)
        assert assert_candidates_match(strand)

    def test_mutual_scan_of_unequal_strands(self, scan_cases):
        brake = isect._Strand(scan_cases["brake"][0])
        lissajous = isect._Strand(scan_cases["lissajous"][0])
        assert len(brake.pts) != len(lissajous.pts)
        assert assert_candidates_match(lissajous, brake)

    def test_runs_reach_past_rounding(self):
        # on the circle of length 2 pi these boxes overlap within the margin
        # to the last bit; runs of max extents plus the margin alone miss
        # them, as the wrap and the minimal-image difference round apart
        width, margin = 0.47752279114035545, 0.1145049517737946
        strands = [
            types.SimpleNamespace(pts=np.array([[x], [x + width]]),
                                  space=geo.Space.torus([2 * math.pi]))
            for x in (1565.7746694754533, -230.62430063499423)
        ]
        assert isect._candidates(*strands, margin) == [(0, 0)]
        assert oracles.brute_candidates(*strands, margin) == [(0, 0)]

    @pytest.mark.parametrize("chunk", [isect._PAIR_CHUNK, 64])
    def test_overlap_tests_are_chunked(self, monkeypatch, scan_cases, chunk):
        strand = isect._Strand(scan_cases["lissajous"][0])
        margin = scan_margin(strand)
        expected = isect._candidates(strand, None, margin)
        sizes = []
        overlap = isect._boxes_overlap

        def counting(ca, *args):
            sizes.append(len(ca))
            return overlap(ca, *args)

        monkeypatch.setattr(isect, "_boxes_overlap", counting)
        monkeypatch.setattr(isect, "_PAIR_CHUNK", chunk)
        assert isect._candidates(strand, None, margin) == expected
        # at most one chunk, or one run, which holds each box at most once
        assert len(sizes) > 1 and max(sizes) <= max(chunk, len(strand.pts) - 1)


@pytest.mark.parametrize("brute_force", [False, True])
class TestScanExits:
    def test_parallel_rotations_close_together_are_near_misses(self, brute_force):
        # 2e-5 apart: beyond the acceptance gap, within the rejection gap
        spec = flat_torus()
        a = straight_rotation(spec, [0.0, 0.0], [1.0, 0.0], 2 * math.pi)
        b = straight_rotation(spec, [0.0, 2e-5], [1.0, 0.0], 2 * math.pi)
        report = scan((a, b), brute_force=brute_force)
        assert report.pairs == []
        assert len(report.unresolved) == 1
        for p in report.unresolved:
            assert p.kind == "near_miss"
            assert p.gap == pytest.approx(2e-5, rel=1e-6)

    def test_refinement_out_of_iterations_is_stalled(self, scan_cases, brute_force):
        orbit, _ = scan_cases["lissajous"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(isect, "_REFINE_MAX_ITER", 0)
            report = scan((orbit, None), brute_force=brute_force)
        assert report.pairs == []
        assert [p.kind for p in report.unresolved] == ["stalled"]
        assert report.unresolved[0].gap == pytest.approx(1.534e-3, rel=1e-3)


def scan_by_search(case, brute_force):
    """``scan`` through ``oracles.scan_by_search``, the candidate-by-candidate
    search for a covering pair that the scan's cover rule replaced."""
    a, b = case
    with pytest.MonkeyPatch.context() as mp:
        if brute_force:
            mp.setattr(isect, "_candidates", oracles.brute_candidates)
        return oracles.scan_by_search(isect._Strand(a), None if b is None else isect._Strand(b))


@pytest.fixture(scope="module")
def survey_brakes():
    """Brake orbits like the benchmark's survey items: a non-resonant
    oscillator at E = 0.5, seeded near the x1-axis turning point."""

    def brake(alphas, offsets):
        spec = ref.oscillator_system(ref.OscillatorSpec(alphas, 0.5))
        return orb.find_brake(spec, [1.012 / alphas[0], *offsets])

    return {
        "2-DOF": brake((1.02, 1.02 * 1.47), [-0.025]),
        "3-DOF": brake((0.97, 0.97 * 1.22, 0.97 * 1.6), [0.02, -0.03]),
    }


def refined(run, case, brute_force):
    """The report of ``run(case, brute_force)`` and the (s, t) starts it refined."""
    starts = []
    refine = isect._refine_pair

    def recording(sa, sb, s, t):
        starts.append((s, t))
        return refine(sa, sb, s, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isect, "_refine_pair", recording)
        return run(case, brute_force).to_dict(), starts


@pytest.mark.parametrize("brute_force", [False, True])
class TestCoverRule:
    """Retiring the candidates a recorded pair covers refines the starts, and
    reports the pairs, that testing each candidate against the recorded
    pairs did."""

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_scan_cases(self, scan_cases, name, brute_force):
        case = scan_cases[name]
        assert refined(scan, case, brute_force) == refined(scan_by_search, case, brute_force)

    def test_stalled_refinement(self, scan_cases, brute_force):
        case = scan_cases["lissajous"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(isect, "_REFINE_MAX_ITER", 0)
            expected = refined(scan_by_search, case, brute_force)
            assert refined(scan, case, brute_force) == expected

    @pytest.mark.parametrize("dof", ["2-DOF", "3-DOF"])
    def test_survey_brake(self, survey_brakes, dof, brute_force):
        case = (survey_brakes[dof], None)
        report, starts = refined(scan, case, brute_force)
        assert report["pairs"] and all(p["kind"] == "reversal" for p in report["pairs"])
        assert (report, starts) == refined(scan_by_search, case, brute_force)

    def test_near_misses_merge_to_the_least_gap(self, brute_force):
        spec = flat_torus()
        a = straight_rotation(spec, [0.0, 0.0], [1.0, 0.0], 2 * math.pi)
        b = straight_rotation(spec, [0.0, 2e-5], [1.0, 0.0], 2 * math.pi)
        merged, starts = refined(scan, (a, b), brute_force)
        expected, expected_starts = refined(scan_by_search, (a, b), brute_force)
        assert starts == expected_starts
        assert merged["pairs"] == expected["pairs"]
        assert len(expected["unresolved"]) == 170
        least = min(expected["unresolved"], key=lambda p: (p["gap"], p["s"], p["t"]))
        assert merged["unresolved"] == [least]


class TestStrandWrap:
    def test_crossing_at_strand_start_found_by_both_routes(self, scan_cases):
        ridge, horizontal = scan_cases["start_crossing"]
        for brute_force in (False, True):
            report = scan((ridge, horizontal), brute_force=brute_force)
            assert report.dp_count == 1

    def test_parameters_wrap_modulo_period(self, scan_cases):
        orbit, _ = scan_cases["lissajous"]
        strand = isect._Strand(orbit)
        for t in (0.3, 2.0):
            shifted = t + orbit.period
            assert np.allclose(strand.position(shifted), strand.position(t), atol=1e-8)
            assert np.allclose(strand.velocity(t - orbit.period), strand.velocity(t), atol=1e-8)


def on_zero_curve(sa, sb, s, t):
    """Whether the Hessian of the squared separation is singular at (s, t).

    There the zero-gap points form a curve (the diagonal s = t, or a brake
    orbit's retrace line s + t = 0), and where along it Newton stops is set
    by rounding alone.
    """
    d = sa.space.delta(sa.position(s), sb.position(t))
    vs, vt = sa.velocity(s), sb.velocity(t)
    h11 = vs @ vs + d @ sa.acceleration(s)
    h22 = vt @ vt - d @ sb.acceleration(t)
    h12 = -(vs @ vt)
    return h11 * h22 - h12 * h12 <= 1e-6 * (h11 + h22) ** 2


class TestRefinePair:
    # the brake orbit meets itself only along its diagonal and retrace line
    @pytest.mark.parametrize(
        "name, min_isolated", [("lissajous", 40), ("brake", 0), ("seam_windings", 200)]
    )
    def test_matches_scalar_reference(self, scan_cases, name, min_isolated):
        a, b = scan_cases[name]
        sa = isect._Strand(a)
        sb = sa if b is None else isect._Strand(b)
        rng = np.random.default_rng(20260)
        s0 = rng.uniform(0.0, sa.period, 200)
        t0 = rng.uniform(0.0, sb.period, 200)
        isolated = 0
        for k in range(200):
            s, t, gap, ok = isect._refine_pair(sa, sb, s0[k], t0[k])
            s_ref, t_ref, gap_ref, ok_ref = oracles.refine_pair(sa, sb, s0[k], t0[k])
            assert ok == ok_ref, k
            if not on_zero_curve(sa, sb, s_ref, t_ref):
                isolated += 1
                assert abs(s - s_ref) <= 1e-10 * sa.period, k
                assert abs(t - t_ref) <= 1e-10 * sb.period, k
                continue
            # on a zero curve: same gap, same curve
            assert abs(gap - gap_ref) <= 1e-9 * sa.diameter, k
            for combine in (lambda u, v: u - v, lambda u, v: u + v):
                off = isect._param_gap_circular(combine(s, t), 0.0, sa.period)
                off_ref = isect._param_gap_circular(combine(s_ref, t_ref), 0.0, sa.period)
                assert (off < 1e-6) == (off_ref < 1e-6), k
        assert isolated >= min_isolated
