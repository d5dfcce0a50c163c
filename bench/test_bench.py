"""Tests of the benchmark itself; run with ``python3 -m pytest bench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_orbitlab()


def _first_item(workload, seed, lib):
    systems, items = wl.generate(workload, seed)
    return systems, wl.build_systems(workload, systems, lib), next(items)


def _tracer_with_spans(spans):
    """Tracer holding hand-made spans (name, parent index, start, end)."""
    tracer = Tracer()
    for name, parent, start, end in spans:
        tracer.name_id.append(tracer._intern(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    return tracer


def test_self_time_of_synthetic_tree():
    #   0 [0,10]            self 10 - 3 - 4 = 3
    #   +- 1 [1,4]          self 3 - 1 = 2
    #   |  +- 2 [2,3]       self 1
    #   +- 3 [5,9]          self 4
    #   4 [11,12]           self 1 (second root)
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    assert self_times(parent, end - start).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_layer_metrics_attribute_self_time_and_dense_calls():
    tracer = _tracer_with_spans(
        [
            ("intersect.self_intersections", -1, 0.0, 10.0),
            ("dynamics.Trajectory.state", 0, 1.0, 2.0),
            ("dynamics.Trajectory.state", 0, 3.0, 5.0),
            ("orbits.monodromy", -1, 20.0, 30.0),
            ("rk.solve_rk45", 3, 21.0, 29.0),
            ("orbits.rk_callback", 4, 22.0, 26.0),
            ("dynamics.Trajectory.state", -1, 40.0, 41.0),
        ]
    )
    tracer.counts.update({"rk.steps_accepted": 3, "rk.steps_rejected": 1, "intersect.pairs": 1})
    m = run.layer_metrics(tracer, n_items=2, overhead=1.5)
    assert m["intersect.self_s"] == pytest.approx(7.0 / 2)
    assert m["intersect.scan_s"] == pytest.approx(10.0 / 2)
    assert m["intersect.dense_state_calls"] == 1.0  # two calls over two items
    assert m["intersect.yield"] == pytest.approx(0.5)
    assert m["dynamics.dense_state_calls"] == 1.5
    assert m["dynamics.dense_state_us"] == pytest.approx(4.0 / 3 * 1e6)
    assert m["orbits.self_s"] == pytest.approx((2.0 + 4.0) / 2)
    assert m["rk.us_per_step"] == pytest.approx(4.0 / 4 * 1e6)
    assert m["rk.reject_ratio"] == pytest.approx(0.25)
    assert m["trace.overhead_ratio"] == 1.5
    assert set(m) == set(run.PER_LAYER)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    def draw(seed):
        systems, items = wl.generate(workload, seed)
        return systems, [next(items) for _ in range(6)]

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_expr_span_opens_only_at_outermost_call(lib):
    ex = lib.expr
    node = ex.parse("sin(x1)*cos(x2) + exp(-x1^2)/sqrt(1+x2^2) - x1*x2", 2)
    with Tracer() as tracer:
        value = ex.evaluate(node, [0.3, 0.7])
        ex.eval_dual(node, [0.3, 0.7], order=2)
        assert ex.evaluate is not tracer._plain_evaluate
    assert value == ex.evaluate(node, [0.3, 0.7])
    assert tracer.counts["expr.eval_calls"] == 2
    assert tracer.counts["expr.dual_eval_calls"] == 1
    assert [tracer.names[i] for i in tracer.name_id] == ["expr.evaluate", "expr.eval_dual"]


def _attributes(lib):
    owners = [m for k, m in sys.modules.items() if k == "orbitlab" or k.startswith("orbitlab.")]
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_traced_run_restores_every_patched_attribute(lib):
    before = _attributes(lib)
    systems, specs, params = _first_item("finsler_flow", 3, lib)
    with Tracer() as tracer:
        assert lib.orbits.state_rhs is not before[(id(lib.orbits), "state_rhs")]
        wl.run_pipeline("finsler_flow", specs, params, lib)
    after = _attributes(lib)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert len(tracer.name_id) > 1000


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_and_untraced_items_are_bit_identical(workload, lib):
    systems, specs, params = _first_item(workload, 5, lib)
    with SpeedProbe() as probe:
        plain = run.run_items(workload, systems, specs, lib, [params], probe)
        traced = run.run_items(workload, systems, specs, lib, [params], probe, tracer=Tracer())
    assert probe.mark() > 0
    assert plain.ok == traced.ok == [True]
    assert plain.digests == traced.digests


def test_manifest_matches_reported_metrics():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in manifest["workloads"]] == list(wl.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "finsler_flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_probe_factor_and_handler_restore():
    import probe as pr
    import signal

    previous = signal.getsignal(signal.SIGPROF)
    with SpeedProbe() as probe:
        while probe.mark() < 3:
            pr.probe_work()
    assert signal.getsignal(signal.SIGPROF) is previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    probe.samples = probe.samples[:0]
    probe.samples.extend([2 * pr.REFERENCE_S, 4 * pr.REFERENCE_S])
    assert probe.factor(0) == pytest.approx((0.5 + 0.25) / 2)
    assert probe.factor(1) == pytest.approx(0.25)
    assert probe.factor(2) == 1.0
    # a zero-length sample is a clock glitch, not an infinitely fast probe
    probe.samples.extend([0.0, 2 * pr.REFERENCE_S])
    assert probe.factor(2) == pytest.approx(0.5)
    probe.samples[-1] = 0.0
    assert probe.factor(2) == 1.0
