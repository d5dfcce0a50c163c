"""Closed-form harmonic-oscillator solutions used as ground truth in tests.

The oscillator with frequencies alpha_i has Hamiltonian
H = (|y|^2 + sum_i alpha_i^2 (x^i)^2) / 2 on Euclidean R^n.  Axis brake
orbits, transverse linearized (Jacobi) fields and the resonant one-parameter
family of periodic orbits all have elementary closed forms, which every
other module's tests lean on.

Two published statements about this example disagree with direct
substitution and are corrected here (see the inline notes): the energy of
the resonant family and the coefficient of the sine term in the linearized
solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .dynamics import PhaseState, PotentialField, SystemSpec
from .errors import OrbitLabError
from .geometry import MetricModel

__all__ = [
    "OscillatorSpec",
    "oscillator_system",
    "brake_orbit_closed_form",
    "jacobi_field_closed_form",
    "lissajous_family",
    "lissajous_energy",
]


@dataclass
class OscillatorSpec:
    """Frequencies, energy level and optional declared resonance m1:m2."""

    alphas: tuple[float, ...]
    energy: float
    resonance: tuple[int, int] | None = None

    def __post_init__(self):
        self.alphas = tuple(float(a) for a in self.alphas)
        if any(a <= 0 for a in self.alphas):
            raise OrbitLabError("oscillator frequencies must be positive")
        if self.energy <= 0:
            raise OrbitLabError("oscillator energy must be positive")
        if self.resonance is not None:
            m1, m2 = self.resonance
            if math.gcd(m1, m2) != 1:
                raise OrbitLabError("resonance integers must be coprime")
            base1 = self.alphas[0] / m1
            base2 = self.alphas[1] / m2
            if abs(base1 - base2) > 1e-12 * (1 + abs(base1)):
                raise OrbitLabError(
                    "declared resonance does not match the frequencies"
                )

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def base_frequency(self) -> float:
        if self.resonance is None:
            raise OrbitLabError("no resonance declared")
        return self.alphas[0] / self.resonance[0]


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


def jacobi_field_closed_form(osc: OscillatorSpec, v0, vdot0, t: float) -> np.ndarray:
    """Transverse linearized field along an axis orbit.

    Each component solves w'' + alpha_i^2 w = 0, so
    w^i(t) = w^i(0) cos(alpha_i t) + (wdot^i(0)/alpha_i) sin(alpha_i t).
    The 1/alpha_i factor is required for the initial derivative to come out
    right; the commonly quoted form without it fails that check.
    """
    v0 = np.asarray(v0, dtype=float)
    vdot0 = np.asarray(vdot0, dtype=float)
    out = np.zeros(osc.n)
    for i, a in enumerate(osc.alphas):
        out[i] = v0[i] * math.cos(a * t) + (vdot0[i] / a) * math.sin(a * t)
    return out


def lissajous_family(
    osc: OscillatorSpec, a1: float, a2: float, s: float, t: float
) -> PhaseState:
    """Member of the resonant one-parameter family of periodic orbits.

    x^1(t) = a1 (cos s cos(m1 w t) + sin s sin(m1 w t)), x^2 = a2 cos(m2 w t)
    with w the common base frequency; every member has minimal period
    2 pi / w.  The energy of every member is
    (alpha_1^2 a1^2 + alpha_2^2 a2^2) / 2, independent of s -- direct
    substitution into H fixes the quadratic frequency factors.
    """
    if osc.resonance is None:
        raise OrbitLabError("lissajous_family needs a declared resonance")
    m1, m2 = osc.resonance
    w = osc.base_frequency
    x = np.zeros(osc.n)
    v = np.zeros(osc.n)
    c1, s1 = math.cos(m1 * w * t), math.sin(m1 * w * t)
    x[0] = a1 * (math.cos(s) * c1 + math.sin(s) * s1)
    v[0] = a1 * m1 * w * (-math.cos(s) * s1 + math.sin(s) * c1)
    x[1] = a2 * math.cos(m2 * w * t)
    v[1] = -a2 * m2 * w * math.sin(m2 * w * t)
    return PhaseState(x, v)


def lissajous_energy(osc: OscillatorSpec, a1: float, a2: float) -> float:
    """Energy of the resonant family by substitution into H."""
    return 0.5 * (osc.alphas[0] ** 2 * a1 * a1 + osc.alphas[1] ** 2 * a2 * a2)
