"""The generated Dormand-Prince step against the loop over the stages it
replaced (``oracles.stage_loop_rk45``), its cache, and the shape checks at
the entry of ``rk.solve_rk45``."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitlab import dynamics as dyn
from orbitlab import expr as ex
from orbitlab import geometry as geo
from orbitlab import orbits as orb
from orbitlab import reference as ref
from orbitlab import rk

from oracles import stage_loop_rk45


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
    assert_same_run(got, stage_loop_rk45(recording(calls[1]), *args, **kwargs))
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
    # the cut step is the full step's polynomial, in values and derivative
    inside = np.linspace(run.ts[-2], run.ts[-1], 101)
    assert np.max(np.abs(dense(inside) - np.stack([np.cos(inside), -np.sin(inside)], 1))) <= 1e-10
    slope = np.stack([-np.sin(inside), -np.cos(inside)], axis=1)
    assert np.max(np.abs(dense.derivative(inside) - slope)) <= 1e-8


def test_oscillator_run_step_counts():
    # a pin of the stepper's work: a change of tableau or controller moves it
    spec = ref.oscillator_system(ref.OscillatorSpec((1.0, math.sqrt(2.0)), 0.5))
    calls = 0

    def counting(t, z):
        nonlocal calls
        calls += 1
        return dyn.state_rhs(spec, t, z)

    run = rk.solve_rk45(counting, (0.0, 100.0), [1.0, 0.0, 0.0, 0.0], rtol=1e-10)
    assert (run.n_accepted, run.n_rejected) == (3118, 50)
    # six stages a step, plus f(t0) and the initial step's difference quotient
    assert calls == 6 * (run.n_accepted + run.n_rejected) + 2 == 19010


def test_one_step_function_per_shape():
    spec = oscillator(2)
    rk._step_function.cache_clear()
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
    # the generated source is not kept: no line cache holds it
    with pytest.raises(OSError):
        inspect.getsource(rk._step_function(8, 4))


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
