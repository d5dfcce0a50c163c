"""Closed forms of the harmonic oscillator that the benchmark reads.

The oscillator with frequencies alpha_i has Hamiltonian
H = (|y|^2 + sum_i alpha_i^2 (x^i)^2) / 2 on Euclidean R^n.  This module
keeps what the library's benchmark builds and checks against: the system
itself (:func:`oscillator_system`) and its axis brake orbits
(:func:`brake_orbit_closed_form`).  The closed forms that only tests lean
on -- the linearized (Jacobi) fields and the resonant family of periodic
orbits -- live with the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .dynamics import PhaseState, PotentialField, SystemSpec
from .errors import OrbitLabError
from .geometry import MetricModel

__all__ = ["OscillatorSpec", "oscillator_system", "brake_orbit_closed_form"]


@dataclass
class OscillatorSpec:
    """Frequencies alpha_1..alpha_n (1 <= n <= 9, finite and positive) and a
    finite positive energy level; anything else raises :class:`OrbitLabError`
    naming the field."""

    alphas: tuple[float, ...]
    energy: float

    def __post_init__(self):
        self.alphas = tuple(float(a) for a in self.alphas)
        if not 1 <= len(self.alphas) <= 9 or not all(0.0 < a < math.inf for a in self.alphas):
            raise OrbitLabError(
                f"alphas must be 1 to 9 finite positive frequencies, got {self.alphas!r}")
        if not 0.0 < self.energy < math.inf:
            raise OrbitLabError(f"energy must be finite and positive, got {self.energy!r}")

    @property
    def n(self) -> int:
        return len(self.alphas)


def oscillator_system(osc: OscillatorSpec) -> SystemSpec:
    """SystemSpec with Euclidean metric and U = sum alpha_i^2 (x^i)^2 / 2."""
    n = osc.n
    terms = " + ".join(f"{a * a!r}*x{i+1}^2" for i, a in enumerate(osc.alphas))
    u = ex.parse(f"0.5*({terms})", n)
    return SystemSpec(MetricModel.euclidean(n), PotentialField(u, n), osc.energy)


def brake_orbit_closed_form(osc: OscillatorSpec, j: int, t: float) -> PhaseState:
    """Axis brake orbit j (1-based): x^j = sqrt(2E)/alpha_j sin(alpha_j t).

    Starts at the origin with full speed; rest points sit at
    t = +-pi/(2 alpha_j) where x^j = +-sqrt(2E)/alpha_j.  The energy is
    exactly E for every t.
    """
    if not 1 <= j <= osc.n:
        raise OrbitLabError(f"axis index {j} out of range")
    a = osc.alphas[j - 1]
    amp = math.sqrt(2.0 * osc.energy) / a
    x = np.zeros(osc.n)
    v = np.zeros(osc.n)
    x[j - 1] = amp * math.sin(a * t)
    v[j - 1] = amp * a * math.cos(a * t)
    return PhaseState(x, v)
