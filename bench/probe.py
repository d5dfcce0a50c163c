"""Contention-corrected CPU time.

The benchmark host shares its cores with other tenants. The same item's CPU
time can vary 1.8× from one second to the next, and the mean slowdown drifts
between minutes. Averaging over longer runs does not remove that.

:class:`SpeedProbe` samples the interpreter's current speed while the
benchmark runs. Every 5 ms of process CPU time, a ``SIGPROF`` handler times a
fixed piece of pure-Python work that belongs to the benchmark, not to
orbitlab. That work does dunder arithmetic on small objects, a list
comprehension and float math, which is the mix orbitlab's interpreter and
``Dual`` code run. A measured interval is then corrected as

    corrected = cpu_seconds * mean(REFERENCE_S / probe_seconds_i)

over the samples taken inside it. The result is the CPU time the interval
would have taken with the probe running at its reference speed. On this host,
identical items vary 13% in raw CPU time (coefficient of variation) and
1.5-1.7% corrected.

The handler runs between bytecodes of the main thread and touches no orbitlab
state, so results stay bit-identical.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array

INTERVAL_S = 0.005
# Probe time on an idle core of the reference machine (2-core x86-64 VM,
# CPython 3.11.7). It only sets the scale of corrected times.
REFERENCE_S = 20e-6
# Samples faster than this share of their window's median are discarded.
GLITCH_SHARE = 0.1


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __mul__(self, o):
        return _Pair(self.a * o.a, self.a * o.b + self.b * o.a)

    def __add__(self, o):
        return _Pair(self.a + o.a, self.b + o.b)


def probe_work():
    acc = _Pair(1.0, 0.0)
    x = _Pair(0.999, 1.0)
    for _ in range(12):
        acc = acc * x + x
        v = [acc.a * k for k in range(6)]
        acc.b += math.sqrt(abs(sum(v))) * 1e-9
    return acc


class SpeedProbe:
    """Context manager that samples probe times on a CPU-time timer."""

    def __init__(self):
        self.samples = array("d")
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.thread_time()
        probe_work()
        self.samples.append(time.thread_time() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int, until: int | None = None) -> float:
        """mean(REFERENCE_S / sample) over samples[since:until]; 1.0 if none.

        A sample below GLITCH_SHARE of the window's median is a clock glitch
        and is left out: the thread clock rarely reports a zero delta for
        the probe work (one sample in tens of thousands on the reference
        machine), and a real probe never runs that much faster than usual.
        """
        window = self.samples[since:until]
        floor = GLITCH_SHARE * statistics.median(window) if window else 0.0
        valid = [s for s in window if s > floor]
        if not valid:
            return 1.0
        return REFERENCE_S * sum(1.0 / s for s in valid) / len(valid)
