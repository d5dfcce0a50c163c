"""Spans around orbitlab's public functions, recorded from outside the library.

A :class:`Tracer` replaces each traced function with a wrapper in *every*
orbitlab namespace that holds it (``orbits`` imports ``state_rhs`` by name,
``find_*`` import ``integrate_sensitivity`` at call time from ``dynamics``),
and puts every original object back on exit.  Methods are patched on their
class.

Spans live in memory as four flat arrays (name id, parent index, start, end)
and are written out by :meth:`Tracer.save` when the run ends.  A layer's self
time is a span's duration minus the durations of its direct children; calls
are single-threaded and nested, so the children never overlap.

``expr.evaluate`` recurses through its module global.  While an ``expr`` span
is open the global points at the original function, so the span opens only
at the outermost call and the tree walk pays nothing per node.

The integrator calls back into its caller's right-hand side; each callback is
wrapped in a span of the caller's layer so that ``rk`` self time is the
stepper's own arithmetic.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "orbitlab"
LAYERS = ("expr", "geometry", "dynamics", "rk", "orbits", "jacobi", "intersect")

# (module, attribute) traced functions; "Class.method" patches the class.
TARGETS = {
    "expr": ("evaluate", "eval_dual"),
    "geometry": ("metric_tensor", "geodesic_coefficients", "f_squared", "solve_linear"),
    "dynamics": (
        "integrate",
        "integrate_sensitivity",
        "state_rhs",
        "lagrange_rhs",
        "rhs_jacobian",
        "total_energy",
        "PotentialField.gradient",
        "Trajectory.state",
        "Trajectory.state_derivative",
    ),
    "rk": ("solve_rk45",),
    "orbits": ("find_brake", "find_rotation", "monodromy"),
    "jacobi": ("orbit_to_geodesic", "geodesic_to_orbit", "jacobi_f2", "jacobi_geodesic_coefficients"),
    "intersect": ("self_intersections", "mutual_intersections"),
}


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its children.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    """
    child = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child


class Tracer:
    """Context manager: patches orbitlab on enter, restores it on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = self._intern(name)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]

    def _set(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def __enter__(self):
        if self._patched:
            raise RuntimeError("tracer is already active")
        mods = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        self._plain_evaluate = mods["expr"].evaluate
        self._dual_type = mods["expr"].Dual
        for layer, targets in TARGETS.items():
            module = mods[layer]
            for target in targets:
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, meth, self._wrap(f"{layer}.{target}", vars(cls)[meth]))
                    continue
                original = getattr(module, target)
                if layer == "expr":
                    wrapper = self._wrap_expr(module, target, original)
                    if target == "evaluate":
                        self._evaluate_wrapper = wrapper
                elif layer == "rk":
                    wrapper = self._wrap(f"rk.{target}", original, self._rk_before, self._rk_after)
                elif layer == "intersect":
                    wrapper = self._wrap(f"intersect.{target}", original, None, self._scan_after)
                else:
                    wrapper = self._wrap(f"{layer}.{target}", original)
                self._patch_everywhere(original, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    # -- layer-specific hooks ------------------------------------------------

    def _wrap_expr(self, module, target: str, original):
        dual_type = self._dual_type
        plain_evaluate = self._plain_evaluate
        counts = self.counts
        inner = self._wrap(f"expr.{target}", original)

        def outermost(*args, **kwargs):
            # recursion, and eval_dual's own call, see the plain function
            module.evaluate = plain_evaluate
            try:
                counts["expr.eval_calls"] += 1
                if target == "eval_dual" or any(isinstance(v, dual_type) for v in args[1]):
                    counts["expr.dual_eval_calls"] += 1
                return inner(*args, **kwargs)
            finally:
                module.evaluate = self._evaluate_wrapper

        return outermost

    def _rk_before(self, args, kwargs):
        if len(self._stack) > 1:  # called from a traced layer
            layer = self.names[self.name_id[self._stack[-1]]].split(".")[0]
            args = (self._wrap(f"{layer}.rk_callback", args[0]),) + tuple(args[1:])
        y0 = args[2] if len(args) > 2 else kwargs["y0"]
        self.counts["rk.solves"] += 1
        if any(isinstance(c, self._dual_type) for c in y0):
            self.counts["rk.dual_solves"] += 1
        return args, kwargs

    def _rk_after(self, args, kwargs, result):
        self.counts["rk.steps_accepted"] += result.n_accepted
        self.counts["rk.steps_rejected"] += result.n_rejected
        self.counts["rk.event_hits"] += len(result.events)

    def _scan_after(self, args, kwargs, report):
        self.counts["intersect.pairs"] += len(report.pairs)
        self.counts["intersect.unresolved"] += len(report.unresolved)

    # -- results -------------------------------------------------------------

    def arrays(self):
        """(names, name_id, parent, start, end) as numpy arrays."""
        return (
            list(self.names),
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path) -> None:
        names, name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(names), name_id=name_id, parent=parent, start=start, end=end)
