"""Orbit-survey benchmark for orbitlab.

    python3 bench/run.py --workload brake_classify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports orbitlab from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs the same items untraced and then traced, reports the per-layer metrics
and checks that both passes give bit-identical results.  Human-readable lines
(environment, check verdicts, every metric with its unit) come first; the last
line of standard output is one JSON object.  See bench/README.md.
"""

import os

# Pin BLAS to one thread before numpy loads: numpy here links an OpenBLAS
# built for 64 threads, and monodromy/find_rotation call eig and lstsq.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(1, str(SRC))

import workloads as wl  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer, self_times  # noqa: E402

SETUP_REPEATS = 9
# Metrics time the process's CPU, not the wall clock: the work is
# single-threaded and never waits on I/O, so the two agree on an idle machine,
# but on a shared host the wall clock also counts time the CPU is taken away.
# Each interval is then corrected for contention by the speed probe.
clock = time.process_time
MODULES = ("expr", "geometry", "rk", "dynamics", "orbits", "jacobi", "intersect", "reference")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics are per traced item unless the unit says otherwise.
PER_LAYER = {
    "expr.eval_calls": "count/item",
    "expr.dual_eval_share": "ratio",
    "expr.self_s": "s/item",
    "geometry.calls": "count/item",
    "geometry.self_s": "s/item",
    "dynamics.state_rhs_calls": "count/item",
    "dynamics.state_rhs_us": "us/call",
    "dynamics.rhs_jacobian_calls": "count/item",
    "dynamics.rhs_jacobian_us": "us/call",
    "dynamics.gradient_calls": "count/item",
    "dynamics.dense_state_calls": "count/item",
    "dynamics.dense_state_us": "us/call",
    "dynamics.self_s": "s/item",
    "rk.solves": "count/item",
    "rk.dual_solves": "count/item",
    "rk.steps_accepted": "count/item",
    "rk.steps_rejected": "count/item",
    "rk.reject_ratio": "ratio",
    "rk.event_hits": "count/item",
    "rk.us_per_step": "us/step",
    "orbits.find_brake_s": "s/item",
    "orbits.find_rotation_s": "s/item",
    "orbits.monodromy_s": "s/item",
    "orbits.sensitivity_solves": "count/item",
    "orbits.trial_integrations": "count/item",
    "orbits.self_s": "s/item",
    "jacobi.orbit_to_geodesic_s": "s/item",
    "jacobi.self_s": "s/item",
    "intersect.scan_s": "s/item",
    "intersect.self_s": "s/item",
    "intersect.dense_state_calls": "count/item",
    "intersect.pairs": "count/item",
    "intersect.unresolved": "count/item",
    "intersect.yield": "ratio",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def load_orbitlab():
    """Fresh import of orbitlab from this checkout's src/ (never elsewhere)."""
    for name in [k for k in sys.modules if k == "orbitlab" or k.startswith("orbitlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("orbitlab")
    if Path(pkg.__file__).resolve().parent != SRC / "orbitlab":
        raise ImportError(f"orbitlab resolved to {pkg.__file__}, not to {SRC}")

    return types.SimpleNamespace(
        **{name: importlib.import_module(f"orbitlab.{name}") for name in MODULES}
    )


def set_up(workload: str, systems, probe: SpeedProbe):
    """Import plus every SystemSpec, repeated; returns (median_s, lib, specs)."""
    times = []
    for _ in range(SETUP_REPEATS):
        mark, t0 = probe.mark(), clock()
        lib = load_orbitlab()
        specs = wl.build_systems(workload, systems, lib)
        times.append((clock() - t0) * probe.factor(mark))
    return statistics.median(times), lib, specs


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas.get("version"),
        "openblas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }
    return env


def _blas_threads():
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "orbitlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Item loop
# ---------------------------------------------------------------------------

class Outcome:
    """Per-item results of one pass over the items."""

    def __init__(self):
        self.params = []
        # contention-corrected CPU seconds; raw_seconds are uncorrected
        self.seconds = []  # pipeline plus checks
        self.pipeline_seconds = []
        self.raw_seconds = []
        self.digests = []
        self.ok = []
        self.errors = []
        self.verdicts = defaultdict(lambda: [0, 0, -math.inf, None])  # passed, total, worst, limit

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def record(self, checks):
        ok = True
        for c in checks:
            v = self.verdicts[c.name]
            v[0] += int(c.passed)
            v[1] += 1
            v[2] = max(v[2], c.value)
            v[3] = c.limit
            ok = ok and c.passed
        return ok


def run_items(workload, systems, specs, lib, params_iter, probe: SpeedProbe,
              deadline=None, tracer=None):
    """Run items until ``params_iter`` ends or the deadline passes.

    With a tracer, only the pipeline runs traced; checks and digests run
    after the library is restored, so they add no spans.
    """
    out = Outcome()
    for params in params_iter:
        mark, t0 = probe.mark(), clock()
        try:
            if tracer is None:
                result = wl.run_pipeline(workload, specs, params, lib)
            else:
                with tracer:
                    result = wl.run_pipeline(workload, specs, params, lib)
            t1, mark1 = clock(), probe.mark()
            ok = out.record(wl.check_item(workload, systems, params, result, lib))
            out.digests.append(wl.digest(workload, result))
        except Exception as exc:  # an item that raises counts as failed
            t1, mark1 = clock(), probe.mark()
            ok = False
            out.digests.append(None)
            out.errors.append("".join(traceback.format_exception_only(type(exc), exc)).strip())
        t2 = clock()
        out.params.append(params)
        out.pipeline_seconds.append((t1 - t0) * probe.factor(mark, mark1))
        out.seconds.append((t2 - t0) * probe.factor(mark))
        out.raw_seconds.append(t2 - t0)
        out.ok.append(ok)
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, n_items: int, overhead: float, time_scale: float = 1.0) -> dict:
    """Per-item layer metrics; span times are multiplied by ``time_scale``."""
    names, name_id, parent, start, end = tracer.arrays()
    duration = (end - start) * time_scale

    own = self_times(parent, duration)
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=int)
    span_layer = layer_of[name_id]
    parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)
    parent_layer = np.where(parent >= 0, span_layer[np.maximum(parent, 0)], -1)
    counts = tracer.counts

    def mask(name):
        return name_id == (names.index(name) if name in names else -2)

    def count(name):
        return int(np.count_nonzero(mask(name)))

    def total(name):
        return float(duration[mask(name)].sum())

    def us_per_call(name):
        m = mask(name)
        return float(duration[m].mean() * 1e6) if m.any() else 0.0

    def layer_self(layer):
        return float(own[span_layer == LAYERS.index(layer)].sum())

    def per_item(x):
        return x / n_items

    find_ids = [names.index(n) for n in ("orbits.find_brake", "orbits.find_rotation") if n in names]
    steps = counts["rk.steps_accepted"] + counts["rk.steps_rejected"]
    dense = mask("dynamics.Trajectory.state")
    scan_dense = int(np.count_nonzero(dense & (parent_layer == LAYERS.index("intersect"))))
    scan_pairs = counts["intersect.pairs"]
    return {
        "expr.eval_calls": per_item(counts["expr.eval_calls"]),
        "expr.dual_eval_share": counts["expr.dual_eval_calls"] / max(counts["expr.eval_calls"], 1),
        "expr.self_s": per_item(layer_self("expr")),
        "geometry.calls": per_item(int(np.count_nonzero(span_layer == LAYERS.index("geometry")))),
        "geometry.self_s": per_item(layer_self("geometry")),
        "dynamics.state_rhs_calls": per_item(count("dynamics.state_rhs")),
        "dynamics.state_rhs_us": us_per_call("dynamics.state_rhs"),
        "dynamics.rhs_jacobian_calls": per_item(count("dynamics.rhs_jacobian")),
        "dynamics.rhs_jacobian_us": us_per_call("dynamics.rhs_jacobian"),
        "dynamics.gradient_calls": per_item(count("dynamics.PotentialField.gradient")),
        "dynamics.dense_state_calls": per_item(int(np.count_nonzero(dense))),
        "dynamics.dense_state_us": us_per_call("dynamics.Trajectory.state"),
        "dynamics.self_s": per_item(layer_self("dynamics")),
        "rk.solves": per_item(counts["rk.solves"]),
        "rk.dual_solves": per_item(counts["rk.dual_solves"]),
        "rk.steps_accepted": per_item(counts["rk.steps_accepted"]),
        "rk.steps_rejected": per_item(counts["rk.steps_rejected"]),
        "rk.reject_ratio": counts["rk.steps_rejected"] / max(steps, 1),
        "rk.event_hits": per_item(counts["rk.event_hits"]),
        "rk.us_per_step": layer_self("rk") / max(steps, 1) * 1e6,
        "orbits.find_brake_s": per_item(total("orbits.find_brake")),
        "orbits.find_rotation_s": per_item(total("orbits.find_rotation")),
        "orbits.monodromy_s": per_item(total("orbits.monodromy")),
        "orbits.sensitivity_solves": per_item(count("dynamics.integrate_sensitivity")),
        "orbits.trial_integrations": per_item(
            int(np.count_nonzero(mask("dynamics.integrate") & np.isin(parent_name, find_ids)))
        ),
        "orbits.self_s": per_item(layer_self("orbits")),
        "jacobi.orbit_to_geodesic_s": per_item(total("jacobi.orbit_to_geodesic")),
        "jacobi.self_s": per_item(layer_self("jacobi")),
        "intersect.scan_s": per_item(
            total("intersect.self_intersections") + total("intersect.mutual_intersections")
        ),
        "intersect.self_s": per_item(layer_self("intersect")),
        "intersect.dense_state_calls": per_item(scan_dense),
        "intersect.pairs": per_item(scan_pairs),
        "intersect.unresolved": per_item(counts["intersect.unresolved"]),
        "intersect.yield": scan_pairs / scan_dense if scan_dense else 0.0,
        "trace.overhead_ratio": overhead,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _print_verdicts(outcome: Outcome):
    for name in sorted(outcome.verdicts):
        passed, total, worst, limit = outcome.verdicts[name]
        verdict = "PASS" if passed == total else "FAIL"
        print(f"check {name}: {verdict} {passed}/{total} items, worst {worst:.3e} (limit {limit:.3e})")
    for err in outcome.errors[:5]:
        print(f"item error: {err}")


def _print_metrics(metrics: dict):
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    systems, items = wl.generate(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    with SpeedProbe() as probe:
        try:
            setup_s, lib, specs = set_up(args.workload, systems, probe)
        except ImportError as exc:
            print(f"cannot import orbitlab from {SRC}: {exc}", file=sys.stderr)
            return 2
        env = environment()
        print(f"env {json.dumps(env)}")
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")

        if args.trace == 0:
            mark = probe.mark()
            outcome = run_items(args.workload, systems, specs, lib, items, probe,
                                deadline=time.perf_counter() + args.seconds)
            attempted = len(outcome.seconds)
            failed = outcome.failed
            correct = failed == 0
            values = {
                "setup_s": setup_s,
                "items_per_s": (attempted - failed) / sum(outcome.seconds),
                "item_p50_s": statistics.median(outcome.seconds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            print(f"items {attempted} attempted, {failed} failed, fail_ratio {failed / attempted:.6g}; "
                  f"item_p50_s over {attempted} samples")
            print(f"uncorrected cpu: items_per_s {(attempted - failed) / sum(outcome.raw_seconds):.6g}, "
                  f"item_p50_s {statistics.median(outcome.raw_seconds):.6g}; "
                  f"mean probe factor {probe.factor(mark):.4f} over {probe.mark() - mark} samples")
        else:
            # untraced pass for half the budget, then the same items traced
            plain = run_items(args.workload, systems, specs, lib, items, probe,
                              deadline=time.perf_counter() + 0.5 * args.seconds)
            tracer = Tracer()
            mark = probe.mark()
            traced = run_items(args.workload, systems, specs, lib, iter(plain.params), probe,
                               tracer=tracer)
            time_scale = probe.factor(mark)
            attempted = len(plain.seconds)
            # an item fails if either pass fails it or the two passes disagree
            failed = sum(
                not (a and b and da == db)
                for a, b, da, db in zip(plain.ok, traced.ok, plain.digests, traced.digests)
            )
            identical = plain.digests == traced.digests
            correct = failed == 0
            overhead = sum(traced.pipeline_seconds) / sum(plain.pipeline_seconds)
            values = layer_metrics(tracer, attempted, overhead, time_scale)
            units = PER_LAYER
            tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
            print(f"items {attempted} traced, {plain.failed} failed untraced, {traced.failed} failed "
                  f"traced; traced results bit-identical: {identical}; spans {len(tracer.name_id)}; "
                  f"span times scaled by probe factor {time_scale:.4f}")
            outcome = plain

    _print_verdicts(outcome)
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    _print_metrics(metrics)
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env)
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
