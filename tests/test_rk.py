"""The DOP853 tableau and its interpolant, the generated step and
interpolant against a loop over the stages (``oracles.stage_loop_rk``),
their caches, the boxes that enclose the dense steps, the shape checks at
the entry of ``rk.solve_rk45``, and the library's orbits and events against
the 5(4) pair that DOP853 replaced."""

import functools
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitlab import dynamics as dyn
from orbitlab import expr as ex
from orbitlab import geometry as geo
from orbitlab import intersect as isect
from orbitlab import orbits as orb
from orbitlab import reference as ref
from orbitlab import rk
from orbitlab.dynamics import PhaseState

from oracles import DP5, lissajous_energy, lissajous_family, stage_loop_rk


def bits(x):
    """dtype, shape and bytes: equal only when every entry is, signed zeros included."""
    a = np.asarray(x)
    return a.dtype, a.shape, a.tobytes()


def assert_same_run(got, want):
    assert bits(got.ts) == bits(want.ts)
    assert bits(got.ys) == bits(want.ys)
    assert (got.n_accepted, got.n_rejected) == (want.n_accepted, want.n_rejected)
    assert (got.dense is None) == (want.dense is None)
    if want.dense is not None:
        assert bits(got.dense.h) == bits(want.dense.h)
        assert bits(got.dense.q) == bits(want.dense.q)
    assert [(e.index, bits(e.t), bits(e.y)) for e in got.events] == [
        (e.index, bits(e.t), bits(e.y)) for e in want.events
    ]


def both(f, *args, **kwargs):
    """The run of ``rk.solve_rk45`` and of the oracle, checked equal, and so
    is every (t, y) they pass to f; the first run."""
    calls = ([], [])

    def recording(log):
        def g(t, y):
            log.append((bits(t), bits(y)))
            return f(t, y)

        return g

    got = rk.solve_rk45(recording(calls[0]), *args, **kwargs)
    assert_same_run(got, stage_loop_rk(recording(calls[1]), *args, **kwargs))
    assert calls[0] == calls[1]
    return got


def oscillator(n):
    return ref.oscillator_system(ref.OscillatorSpec((1.0, 1.4142, 1.61, 1.83, 2.05,
                                                     2.27, 2.49, 2.71, 2.93)[:n], 0.5))


def cosine_torus():
    metric = geo.MetricModel.euclidean(2, geo.Space.torus([2 * math.pi, 2 * math.pi]))
    return dyn.SystemSpec(metric, ex.parse("0.1*cos(x1)", 2), 1.0)


def quartic_finsler():
    metric = geo.MetricModel.finsler(ex.parse("v1^2 + v2^2 + 0.1*sqrt(v1^4 + v2^4)", 2), 2)
    return dyn.SystemSpec(metric, ex.parse("0.5*x1^2 + x2^2 + 0.1*x1^2*x2^2", 2), 0.5)


# the three benchmark workloads' systems, each from a point of its energy level
WORKLOAD_RUNS = {
    "brake_classify": (lambda: oscillator(2), [1.0, 0.03, 0.0, 0.0]),
    "torus_rotation": (cosine_torus, [0.5, 1.0, math.sqrt(2.0 * (1.0 - 0.1 * math.cos(0.5))), 0.0]),
    "finsler_flow": (quartic_finsler, [0.4, -0.3, 0.0, 0.0]),
}


EPS = np.finfo(float).eps


class TestTableau:
    """DOP853's coefficients as Hairer, Norsett & Wanner give them."""

    def test_stage_times_are_row_sums(self):
        for a, c in zip(rk._A[1:], rk._C[1:]):
            assert abs(math.fsum(a) - c) <= 4 * EPS * math.fsum(map(abs, a))

    def test_weights_meet_the_quadrature_conditions_to_order_8(self):
        b, c = rk._A[12], rk._C[:12]
        moment = [math.fsum(bi * ci ** (k - 1) for bi, ci in zip(b, c)) for k in range(1, 10)]
        for k in range(1, 9):
            assert abs(moment[k - 1] - 1.0 / k) <= 4 * EPS
        assert abs(moment[8] - 1.0 / 9.0) > 1e-6  # an 8th-order rule, not a 9th

    def test_error_weights_sum_to_zero(self):
        e3 = [b - bhh for b, bhh in zip(rk._A[12], rk._BHH)]
        for weights in (rk._E5, e3):
            assert abs(math.fsum(weights)) <= 4 * EPS * math.fsum(map(abs, weights))

    def test_interpolant_meets_the_quadrature_conditions_to_order_7(self):
        # y(theta) = y + h sum_i b_i(theta) k_i over the sixteen stages, k_12 at
        # the new state; b_i(theta) from Hairer's r_j through the power basis
        def weights(theta):
            out = []
            for i, b in enumerate(rk._A[12] + (0.0,) * 4):
                r0 = b
                r1 = (i == 0) - r0
                r = [r0, r1, r0 - (i == 12) - r1] + [row[i] for row in rk._D]
                out.append(sum(theta ** (p + 1) * math.fsum(m * rj for m, rj in zip(row, r))
                               for p, row in enumerate(rk._TO_POWERS)))
            return out

        for theta in (0.25, 0.5, 0.8):
            b = weights(theta)
            moment = [math.fsum(bi * ci ** (k - 1) for bi, ci in zip(b, rk._C))
                      for k in range(1, 9)]
            for k in range(1, 8):
                assert abs(moment[k - 1] - theta**k / k) <= 2e-13
            assert abs(moment[7] - theta**8 / 8) > 1e-7  # degree 7, not 8

    def test_power_basis_table(self):
        # column j is theta^(j//2 + 1) (1 - theta)^((j + 1)//2) in powers of theta
        for j in range(7):
            low, high = j // 2 + 1, (j + 1) // 2
            want = [math.comb(high, p - low) * (-1) ** (p - low) if low <= p <= low + high else 0
                    for p in range(1, 8)]
            assert [row[j] for row in rk._TO_POWERS] == want


def test_float_sign_test_matches_numpy_sign():
    # the event path's float sign test answers as np.sign(a) == np.sign(b)
    # for every a that solve_rk45 passes it: g at a step start, never zero
    values = [-math.inf, -2.0, -1e-300, -0.0, 0.0, 1e-300, 3.0, math.inf, math.nan]
    for a in values:
        for b in values:
            if a != 0.0:
                assert rk._same_sign(a, b) == (np.sign(a) == np.sign(b))


@pytest.mark.parametrize("name", list(WORKLOAD_RUNS))
def test_interpolant_meets_the_knots(name):
    # each step's polynomial starts at ys[k], ends at ys[k + 1] within 4
    # ulps, and leaves with the slope f(ts[k], ys[k])
    build, z0 = WORKLOAD_RUNS[name]
    spec = build()
    run = rk.solve_rk45(lambda t, z: dyn.state_rhs(spec, t, z), (0.0, 20.0), z0)
    dense = run.dense
    ends = [rk._interpolate(dense.ys[k], dense.h[k], dense.q[k], theta)
            for k in range(len(dense.h)) for theta in (0.0, 1.0)]
    assert np.array_equal(ends[::2], dense.ys[:-1])
    ulp = np.spacing(np.maximum(np.abs(dense.ys[1:]), 1e-300))
    assert np.all(np.abs(ends[1::2] - dense.ys[1:]) <= 4 * ulp)
    slopes = np.array([dyn.state_rhs(spec, t, z.tolist()) for t, z in zip(run.ts, run.ys[:-1])])
    chord = np.diff(dense.ys, axis=0) / dense.h[:, None]
    ulp = np.spacing(np.maximum(np.abs(slopes), np.abs(chord)))
    assert np.all(np.abs(dense.derivative(run.ts[:-1]) - slopes) <= 2 * ulp)


@pytest.mark.parametrize("name", list(WORKLOAD_RUNS))
def test_workload_runs_match_the_stage_loop(name):
    build, z0 = WORKLOAD_RUNS[name]
    spec = build()
    run = both(
        lambda t, z: dyn.state_rhs(spec, t, z), (0.0, 20.0), z0,
        events=(dyn.kinetic_minimum_event(spec),), dense=True,
    )
    assert len(run.events) >= 2


def test_sensitivity_run_matches_the_stage_loop():
    spec = oscillator(2)
    w0 = [0.0, 1.0, 0.0, 0.0]  # the brake chart's m = 1 tangent, W row by row
    both(dyn.tangent_rhs(spec, 1), (0.0, 3.1), [1.0, 0.03, 0.0, 0.0] + w0, dense=False, control=4)


@pytest.mark.parametrize(
    "n, t_end", [(2, 6.3), (3, 6.3), (9, 1.0)], ids=["2-DOF", "3-DOF", "9-DOF"]
)
def test_monodromy_run_matches_the_stage_loop(n, t_end):
    # W of 16 and 36 entries as the benchmark's monodromy runs, 324 as a wide step
    spec = oscillator(n)
    z0 = [1.0] + [0.02] * (n - 1) + [0.0] * n
    both(dyn.tangent_rhs(spec, 2 * n), (0.0, t_end), z0 + np.eye(2 * n).ravel().tolist(),
         dense=False)


SCALARS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


def linear(a, m):
    """y' = A y, and with m tangent columns y = [z; W row by row] and
    y' = [A z; A W], flat, row by row.  Each entry is summed from its first
    product, so that a -0.0 can reach the stepper (numpy's products start
    from +0.0)."""
    rows = a.tolist()
    d = len(rows)

    def dot(row, column):
        acc = row[0] * column[0]
        for x, c in zip(row[1:], column[1:]):
            acc = acc + x * c
        return acc

    def f(t, y):
        columns = [y[d + j::m] for j in range(m)]
        return [dot(row, y[:d]) for row in rows] + [dot(row, c) for row in rows for c in columns]

    return f


@st.composite
def linear_runs(draw):
    """(f, t_span, y0, keyword arguments) of a random y' = A y."""
    d = draw(st.integers(1, 6))
    m = draw(st.integers(0, 4))
    a = np.array(draw(st.lists(SCALARS, min_size=d * d, max_size=d * d))).reshape(d, d)
    y0 = draw(st.lists(SCALARS, min_size=d, max_size=d))
    kwargs = {"rtol": draw(st.floats(1e-12, 1e-6)), "atol": 1e-12}
    if m:
        y0 += draw(st.lists(SCALARS, min_size=d * m, max_size=d * m))
        kwargs.update(dense=False, control=None if draw(st.booleans()) else d)
        return linear(a, m), (0.0, 1.0), y0, kwargs
    kwargs["dense"] = draw(st.booleans())
    if draw(st.booleans()):
        level = draw(st.floats(-1.0, 1.0))
        kwargs["events"] = (
            rk.EventSpec(lambda t, y: y[0] - level, terminal=draw(st.booleans())),
        )
    return linear(a, 0), (0.0, 1.0), y0, kwargs


def _square_tangent(d, m, controlled):
    a = np.diag(np.linspace(1.0, -1.0, d))
    w0 = np.ones((d, m))
    w0[:, 0] = -0.0
    return (linear(a, m), (0.0, 1.0), [-0.0] + [1.0] * (d - 1) + w0.ravel().tolist(),
            {"rtol": 1e-9, "atol": 1e-12, "dense": False, "control": None if controlled else d})


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(linear_runs())
@example(_square_tangent(8, 9, True))  # W of 72 and 64 entries: wide steps
@example(_square_tangent(8, 9, False))
@example(_square_tangent(8, 8, True))
def test_linear_runs_match_the_stage_loop(case):
    f, span, y0, kwargs = case
    both(f, span, y0, **kwargs)


def test_terminal_event_cuts_the_last_step():
    # y = (cos t, -sin t) stopped at t = pi by the upward crossing of y_2;
    # reflected through pi it must go on as (cos t, -sin t), which needs the
    # last step to end at the stop
    def rotation(t, y):
        return [y[1], -y[0]]

    stop = rk.EventSpec(lambda t, y: y[1], direction=1, terminal=True)
    run = both(rotation, (0.0, 5.0), [1.0, 0.0], events=(stop,))
    dense = run.dense
    assert run.ts[-1] == pytest.approx(math.pi, abs=1e-10)
    # step k spans its two knots, up to the rounding of t + h
    assert np.allclose(dense.h, np.diff(run.ts), rtol=1e-12, atol=0.0)
    ts = np.linspace(run.ts[-1], 2.0 * run.ts[-1], 2001)
    exact = np.stack([np.cos(ts), -np.sin(ts)], axis=1)
    assert np.max(np.abs(dense.reflected([1.0, -1.0])(ts) - exact)) <= 1e-10
    # reflecting in the power basis is exact up to rounding: the reflected
    # output is the output mirrored through the stop
    mirrored = dense(2.0 * run.ts[-1] - ts) * [1.0, -1.0]
    assert np.max(np.abs(dense.reflected([1.0, -1.0])(ts) - mirrored)) <= 1e-12
    # the cut step is the full step's polynomial, in values and derivative
    inside = np.linspace(run.ts[-2], run.ts[-1], 101)
    assert np.max(np.abs(dense(inside) - np.stack([np.cos(inside), -np.sin(inside)], 1))) <= 1e-10
    slope = np.stack([-np.sin(inside), -np.cos(inside)], axis=1)
    assert np.max(np.abs(dense.derivative(inside) - slope)) <= 1e-8


def brake_dense():
    """A ``find_brake`` orbit's dense output: its half run, then reflected."""
    return orb.find_brake(oscillator(2), [1.01, 0.02]).trajectory.dense


def lissajous_dense():
    """The 1:2 Lissajous orbit that the intersection tests scan."""
    osc = ref.OscillatorSpec((1.0, 2.0), 1.0)
    spec = dyn.SystemSpec(geo.MetricModel.euclidean(2), ex.parse("0.5*(x1^2 + 4.0*x2^2)", 2),
                          lissajous_energy(osc, 1.0, 0.5))
    start = lissajous_family(osc, (1, 2), 1.0, 0.5, math.pi / 4, 0.0)
    return dyn.integrate(spec, start, (0.0, 2 * math.pi), rtol=1e-12, atol=1e-14).dense


def plain_dense(build, z0):
    spec = build()
    return rk.solve_rk45(lambda t, z: dyn.state_rhs(spec, t, z), (0.0, 20.0), z0).dense


BOXED_RUNS = {
    "brake": brake_dense,
    "lissajous": lissajous_dense,
    "finsler": lambda: plain_dense(quartic_finsler, [0.4, -0.3, 0.0, 0.0]),
    "3-DOF": lambda: plain_dense(lambda: oscillator(3), [1.0, 0.03, -0.02, 0.0, 0.0, 0.0]),
}


def padded_boxes(b, ulp, ulps=8.0):
    """The boxes of Bernstein coefficients b (k, d, m + 1), padded by ``ulps``
    of each one's ``ulp`` (``DenseOutput.bernstein``)."""
    pad = (ulps * ulp)[:, None]
    return np.min(b, axis=2) - pad, np.max(b, axis=2) + pad


class TestStepBoxes:
    """The box of a step's Bernstein coefficients encloses its dense output,
    and so do those of its halves."""

    @pytest.mark.parametrize("name", list(BOXED_RUNS))
    def test_samples_lie_in_their_step_box(self, name):
        dense = BOXED_RUNS[name]()
        lo, hi = padded_boxes(*dense.bernstein(len(dense.h)))
        theta = np.arange(257) / 257  # a step's end knot starts the next step
        for k in range(len(dense.h)):
            y = dense(dense.ts[k] + theta * dense.h[k])
            assert np.all((lo[k] <= y) & (y <= hi[k])), k

    @pytest.mark.parametrize("name", list(BOXED_RUNS))
    def test_samples_lie_in_their_half_step_boxes(self, name):
        dense = BOXED_RUNS[name]()
        b, ulp = dense.bernstein(len(dense.h))
        # inside the half: ts + h/2 rounds by ulps of t, across the midpoint
        theta = (np.arange(128) + 0.5) / 256
        for start, half in zip((0.0, 0.5), isect._halve(b)):
            # a half rounds by m/2 ulps more
            lo, hi = padded_boxes(half, ulp, 8 + 0.5 * (b.shape[-1] - 1))
            for k in range(len(dense.h)):
                y = dense(dense.ts[k] + (start + 0.5 * theta) * dense.h[k])
                assert np.all((lo[k] <= y) & (y <= hi[k])), k
        left, right = isect._halve(b)
        # the halves meet at the step's midpoint and keep its ends
        assert np.array_equal(left[..., 0], b[..., 0])
        assert np.array_equal(right[..., -1], b[..., -1])
        assert np.array_equal(left[..., -1], right[..., 0])

    def test_reflected_boxes_mirror_the_half_run(self):
        dense = brake_dense()
        b, ulp = dense.bernstein(len(dense.h))
        lo, hi = np.min(b, axis=2), np.max(b, axis=2)
        half = len(dense.h) // 2
        signs = np.repeat([1.0, -1.0], 2)
        # step half + i is step half - 1 - i run backwards and mapped by R,
        # which swaps the bounds of a negated entry
        mirror_lo = np.where(signs > 0, lo[half - 1 :: -1], -hi[half - 1 :: -1])
        mirror_hi = np.where(signs > 0, hi[half - 1 :: -1], -lo[half - 1 :: -1])
        bound = 8 * np.maximum(ulp[half:], ulp[half - 1 :: -1])[:, None]
        assert np.all(np.abs(lo[half:] - mirror_lo) <= bound)
        assert np.all(np.abs(hi[half:] - mirror_hi) <= bound)

    def test_reflected_steps_end_at_their_knots(self):
        # every reflected step starts from the image of its forward step's
        # end; only the last forward step misses its knot, R z(T/2), by the
        # closure defect 2 |v(T/2)|
        dense = brake_dense()
        half = len(dense.h) // 2
        ends = np.array([rk._interpolate(y, h, q, 1.0)
                         for y, h, q in zip(dense.ys, dense.h, dense.q)])
        gaps = np.max(np.abs(ends - dense.ys[1:]), axis=1)
        bound = 1e-15 * (1.0 + np.linalg.norm(dense.ys[1:], axis=1))
        assert np.all(np.delete(gaps <= bound, half - 1))
        rest_speed = np.max(np.abs(dense.ys[half][2:]))
        assert rest_speed > 0 and gaps[half - 1] == pytest.approx(2 * rest_speed, rel=1e-3)


def test_oscillator_run_step_counts():
    # a pin of the stepper's work: a change of tableau or controller moves it
    spec = ref.oscillator_system(ref.OscillatorSpec((1.0, math.sqrt(2.0)), 0.5))
    calls = 0

    def counting(t, z):
        nonlocal calls
        calls += 1
        return dyn.state_rhs(spec, t, z)

    run = rk.solve_rk45(counting, (0.0, 100.0), [1.0, 0.0, 0.0, 0.0], rtol=1e-10)
    assert (run.n_accepted, run.n_rejected) == (340, 0)
    # eleven stages an attempted step; an accepted step of a dense run adds f
    # at the new state, the interpolant's three stages and f at its midpoint;
    # plus f(t0) and the initial step's difference quotient
    assert calls == 11 * (run.n_accepted + run.n_rejected) + 5 * run.n_accepted + 2 == 5442


def test_one_step_function_per_shape():
    spec = oscillator(2)
    rk._step_function.cache_clear()
    rk._dense_function.cache_clear()
    for _ in range(2):
        orbit = orb.find_brake(spec, [1.01, 0.02])  # plain runs and m = 1 tangent runs
        orb.monodromy(spec, orbit)  # a run of [z; M], M 4 x 4, all under control
    info = rk._step_function.cache_info()
    assert (info.misses, info.currsize) == (3, 3)
    # keyed by (d, control): z, [z; W] under control of z, and [z; M] under
    # control of all
    for key in ((4, 4), (8, 4), (20, 20)):
        rk._step_function(*key)
    assert rk._step_function.cache_info().misses == 3
    # the interpolant is keyed like the step, and only z's dense runs (the
    # probe and the closed half run) build one
    info = rk._dense_function.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    rk._dense_function(4, 4)
    assert rk._dense_function.cache_info().misses == 1
    # the generated source is not kept: no line cache holds it
    with pytest.raises(OSError):
        inspect.getsource(rk._step_function(8, 4))
    with pytest.raises(OSError):
        inspect.getsource(rk._dense_function(4, 4))


class TestShapesCheckedAtEntry:
    @pytest.mark.parametrize(
        "rhs, y0, message",
        [
            (lambda t, y: [-y[0], 5.0], [1.0], "shape (2,) for a state of shape (1,)"),
            (lambda t, y: [y[1]], [1.0, 0.0], "shape (1,) for a state of shape (2,)"),
            (lambda t, y: -y[0], [1.0], "shape () for a state of shape (1,)"),
            # y = [z; W] of a 1 x 1 tangent, whose J W part has the wrong shape
            (lambda t, y: [-y[0], y[1], y[1]], [1.0, 1.0], "shape (3,) for a state of shape (2,)"),
            (lambda t, y: [-y[0]], [1.0, 1.0], "shape (1,) for a state of shape (2,)"),
            (lambda t, y: [[-y[0]], [y[1]]], [1.0, 1.0], "shape (2, 1) for a state of shape (2,)"),
            (lambda t, y: ([-y[0]], [y[1], y[1]]), [1.0, 1.0],
             "a ragged shape for a state of shape (2,)"),
        ],
        ids=["too long", "too short", "scalar", "tangent too tall", "tangent left out",
             "tangent not flat", "ragged"],
    )
    def test_rhs_of_the_wrong_length(self, rhs, y0, message):
        with pytest.raises(ValueError) as info:
            rk.solve_rk45(rhs, (0.0, 1.0), y0)
        assert str(info.value) == f"the right-hand side has {message}"

    @pytest.mark.parametrize("control", [0, 3, True, 2.0], ids=["zero", "past the end", "bool",
                                                               "float"])
    def test_control_is_a_count_of_entries(self, control):
        with pytest.raises(ValueError) as info:
            rk.solve_rk45(lambda t, y: [y[1], -y[0]], (0.0, 1.0), [1.0, 0.0], control=control)
        assert str(info.value) == (
            f"control must be a whole number of entries in [1, 2], got {control!r}")


class TestAgainstTheFiveFourPair:
    """The library's runs with DOP853 against the same runs with the 5(4)
    pair it replaced (``oracles.DP5``): periods within 1e-9, starts within
    1e-8, monodromy entries within 1e-7, kinetic-minimum times within 1e-8,
    and as many events.  Steps 6-13 times longer must miss no crossing."""

    @staticmethod
    def both_pairs(monkeypatch, work):
        """``work()`` with the library's stepper, then with the 5(4) pair."""
        new = work()
        monkeypatch.setattr(rk, "solve_rk45", functools.partial(stage_loop_rk, pair=DP5))
        return new, work()

    @pytest.mark.parametrize("n, seed", [(2, [1.01, 0.02]), (3, [1.01, 0.02, -0.015])],
                             ids=["2-DOF", "3-DOF"])
    def test_oscillator_brake_orbit(self, monkeypatch, n, seed):
        spec = oscillator(n)

        def work():
            orbit = orb.find_brake(spec, seed)
            probe = orb._probe(spec, PhaseState(seed, [0.0] * n),
                               events=(dyn.kinetic_minimum_event(spec, terminal=True),))
            return orbit, orb.monodromy(spec, orbit).matrix, probe.events[0].t

        (orbit, m, turn), (orbit5, m5, turn5) = self.both_pairs(monkeypatch, work)
        self.assert_same_orbit(orbit, m, orbit5, m5)
        assert abs(turn - turn5) <= 1e-8

    @pytest.mark.parametrize("horizontal", [False, True], ids=["ridge", "horizontal"])
    def test_cosine_torus_rotation(self, monkeypatch, horizontal):
        spec = cosine_torus()
        x1 = 1.0 if horizontal else math.pi + 0.02
        speed = math.sqrt(2.0 * (1.0 - 0.1 * math.cos(x1)))
        seed = PhaseState([x1, 2.0], [speed, 0.0] if horizontal else [0.0, speed])

        def work():
            orbit = orb.find_rotation(spec, seed)
            return orbit, orb.monodromy(spec, orbit).matrix

        (orbit, m), (orbit5, m5) = self.both_pairs(monkeypatch, work)
        self.assert_same_orbit(orbit, m, orbit5, m5)

    @staticmethod
    def assert_same_orbit(orbit, m, orbit5, m5):
        assert abs(orbit.period - orbit5.period) <= 1e-9
        assert np.max(np.abs(orbit.trajectory.states[0] - orbit5.trajectory.states[0])) <= 1e-8
        assert np.max(np.abs(m - m5)) <= 1e-7

    def test_quartic_finsler_events(self, monkeypatch):
        spec = quartic_finsler()
        z0 = WORKLOAD_RUNS["finsler_flow"][1]

        def work():
            return dyn.integrate(spec, PhaseState(z0[:2], z0[2:]), (0.0, 20.0),
                                 events=(dyn.kinetic_minimum_event(spec),))

        run, run5 = self.both_pairs(monkeypatch, work)
        assert len(run.events) == len(run5.events) > 0
        assert max(abs(a.t - b.t) for a, b in zip(run.events, run5.events)) <= 1e-8
