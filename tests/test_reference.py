"""The library's closed forms (``orbitlab.reference``) and the ones that
only tests lean on (``oracles``), each against direct substitution."""

import math

import numpy as np
import pytest

import oracles

from orbitlab import dynamics as dyn
from orbitlab import reference as ref
from orbitlab.errors import OrbitLabError

RESONANCE = (1, 2)


def osc_12():
    return ref.OscillatorSpec((1.0, math.sqrt(2.0)), 0.5)


def resonant_12():
    return ref.OscillatorSpec((1.0, 2.0), 1.0)


class TestOscillatorSpec:
    @pytest.mark.parametrize("alphas", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf), (), (0.0, 1.0), (-1.0, 1.0),
        tuple(range(1, 11)),
    ], ids=repr)
    def test_frequencies_are_checked(self, alphas):
        with pytest.raises(OrbitLabError, match="alphas"):
            ref.OscillatorSpec(alphas, 0.5)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, 0.0, -0.5], ids=repr)
    def test_energy_is_checked(self, energy):
        with pytest.raises(OrbitLabError, match="energy"):
            ref.OscillatorSpec((1.0, 2.0), energy)

    def test_nine_frequencies_make_a_system(self):
        spec = ref.oscillator_system(ref.OscillatorSpec(range(1, 10), 0.5))
        assert spec.dimension == 9


class TestBrakeClosedForm:
    def test_quarter_period_state(self):
        st = ref.brake_orbit_closed_form(osc_12(), 1, math.pi / 2)
        assert np.allclose(st.x, [1.0, 0.0], atol=1e-15)
        assert np.allclose(st.v, [0.0, 0.0], atol=1e-15)

    def test_initial_state(self):
        st = ref.brake_orbit_closed_form(osc_12(), 1, 0.0)
        assert np.allclose(st.x, 0.0)
        assert st.v[0] == pytest.approx(math.sqrt(1.0))
        assert st.v[1] == 0.0

    def test_rest_points(self):
        osc = osc_12()
        for j, a in enumerate(osc.alphas, start=1):
            for sign in (+1, -1):
                st = ref.brake_orbit_closed_form(osc, j, sign * math.pi / (2 * a))
                assert st.x[j - 1] == pytest.approx(sign * math.sqrt(2 * 0.5) / a)
                assert np.allclose(st.v, 0.0, atol=1e-15)

    def test_energy_exact(self):
        osc = osc_12()
        sys = ref.oscillator_system(osc)
        for t in np.linspace(0, 7, 23):
            st = ref.brake_orbit_closed_form(osc, 2, t)
            assert dyn.total_energy(sys, st.x, st.v) == pytest.approx(0.5, abs=1e-14)

    def test_lagrange_residual_tiny(self):
        osc = osc_12()
        sys = ref.oscillator_system(osc)
        for t in np.linspace(0.0, 5.0, 17):
            st = ref.brake_orbit_closed_form(osc, 1, t)
            acc = np.array(dyn.lagrange_rhs(sys, list(st.x), list(st.v)))
            exact = -(np.array(osc.alphas) ** 2) * st.x
            assert np.max(np.abs(acc - exact)) < 1e-12


class TestJacobiField:
    def test_full_period_returns(self):
        osc = osc_12()
        for i, a in enumerate(osc.alphas):
            e = np.zeros(2)
            e[i] = 1.0
            out = oracles.jacobi_field_closed_form(osc, e, np.zeros(2), 2 * math.pi / a)
            assert out[i] == pytest.approx(1.0, abs=1e-12)

    def test_initial_derivative_normalization(self):
        # d/dt at 0 must equal vdot0; this pins the 1/alpha factor
        osc = osc_12()
        h = 1e-7
        for i in range(2):
            vdot0 = np.zeros(2)
            vdot0[i] = 1.0
            num = (
                oracles.jacobi_field_closed_form(osc, np.zeros(2), vdot0, h)
                - oracles.jacobi_field_closed_form(osc, np.zeros(2), vdot0, -h)
            ) / (2 * h)
            assert num[i] == pytest.approx(1.0, abs=1e-6)

    def test_nonresonant_never_periodic_transverse(self):
        # no nonzero transverse field along orbit 1 closes up at t = 2*pi
        osc = osc_12()
        t = 2 * math.pi / osc.alphas[0]
        for v0, vd0 in [((0, 1), (0, 0)), ((0, 0), (0, 1)), ((0, 0.3), (0, -0.4))]:
            out = oracles.jacobi_field_closed_form(osc, v0, vd0, t)
            assert abs(out[1] - v0[1]) > 1e-3

    def test_resonant_transverse_closes(self):
        osc = resonant_12()
        t = 2 * math.pi
        out = oracles.jacobi_field_closed_form(osc, (0.0, 0.7), (0.0, -0.2), t)
        assert out[1] == pytest.approx(0.7, abs=1e-12)


class TestLissajousFamily:
    def test_s_zero_is_cosine_orbit(self):
        osc = resonant_12()
        st = oracles.lissajous_family(osc, RESONANCE, 1.0, 0.5, 0.0, 0.0)
        assert np.allclose(st.x, [1.0, 0.5])
        assert np.allclose(st.v, [0.0, 0.0])

    def test_energy_independent_of_s(self):
        osc = resonant_12()
        sys = ref.oscillator_system(osc)
        vals = []
        for s in (0.0, 0.3, 0.7, math.pi / 4):
            members = [oracles.lissajous_family(osc, RESONANCE, 1.0, 0.5, s, t)
                       for t in np.linspace(0, 6, 11)]
            energies = [dyn.total_energy(sys, st.x, st.v) for st in members]
            vals.extend(energies)
        assert max(vals) - min(vals) < 1e-12
        assert vals[0] == pytest.approx(oracles.lissajous_energy(osc, 1.0, 0.5), abs=1e-14)

    def test_minimal_period(self):
        osc = resonant_12()
        tau = 2 * math.pi / oracles.base_frequency(osc, RESONANCE)
        st0 = oracles.lissajous_family(osc, RESONANCE, 1.0, 0.5, 0.3, 0.1)
        st1 = oracles.lissajous_family(osc, RESONANCE, 1.0, 0.5, 0.3, 0.1 + tau)
        assert np.allclose(st0.x, st1.x, atol=1e-12)
        assert np.allclose(st0.v, st1.v, atol=1e-12)

    def test_family_members_solve_equations(self):
        osc = resonant_12()
        sys = ref.oscillator_system(osc)
        for s in (0.0, 0.3, 0.7):
            for t in np.linspace(0, 3, 7):
                st = oracles.lissajous_family(osc, RESONANCE, 1.0, 0.5, s, t)
                acc = np.array(dyn.lagrange_rhs(sys, list(st.x), list(st.v)))
                exact = -(np.array(osc.alphas) ** 2) * st.x
                assert np.max(np.abs(acc - exact)) < 1e-10

    def test_requires_resonance(self):
        # (1, 2) is no resonance of alpha = (1, sqrt 2)
        with pytest.raises(ValueError, match="does not match"):
            oracles.lissajous_family(osc_12(), RESONANCE, 1.0, 0.5, 0.0, 0.0)
