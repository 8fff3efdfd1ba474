import math

import numpy as np
import pytest

from invosc import (SystemParams, TunnelingParams, asymptotic_prefactor,
                    averaged_transmission, averaged_transmission_asymptotic,
                    barrier_potential, prefactor_curve, transmission_exact,
                    transmission_jwkb)

PARAMS = SystemParams(1.0)

# frozen on first computation from the adaptive period-average quadrature,
# cross-checked against an independent integrator
W_AVG_10_03 = 1.4379239455522658e-03
# pinned from the Bessel-function oracle ahead of the build
A_3_05 = 0.2841009518483714


class TestBarrierShape:
    def test_vanishes_at_entry_point(self):
        assert barrier_potential(PARAMS, -0.5, 0.0, -0.5) == 0.0

    def test_apex_without_force(self):
        assert barrier_potential(PARAMS, -0.5, 0.0, 0.0) == pytest.approx(
            0.125, abs=1e-15)

    def test_positive_force_lowers_the_apex(self):
        assert barrier_potential(PARAMS, -0.5, 0.2, 0.0) == pytest.approx(
            0.025, abs=1e-15)
        # stronger push, lower barrier, larger transmission
        assert barrier_potential(PARAMS, -0.5, 0.2, 0.0) < \
            barrier_potential(PARAMS, -0.5, 0.0, 0.0) < \
            barrier_potential(PARAMS, -0.5, -0.2, 0.0)


class TestTunnelingParams:
    def test_derived_scales(self):
        tp = TunnelingParams.from_energy(PARAMS, -0.5, F=0.5)
        assert tp.kappa == pytest.approx(1.0)
        assert tp.epsilon == pytest.approx(2 * math.pi * 0.5)
        assert tp.beta == pytest.approx(0.5)
        assert tp.entry_point(PARAMS) == pytest.approx(-1.0)

    def test_rejects_non_negative_energy(self):
        with pytest.raises(ValueError):
            TunnelingParams.from_energy(PARAMS, 0.0)
        with pytest.raises(ValueError):
            TunnelingParams.from_energy(PARAMS, 1.0)


class TestStaticTransmission:
    def test_jwkb_at_suppression(self):
        assert transmission_jwkb(3.0, 1.0) == 1.0

    def test_jwkb_value(self):
        assert transmission_jwkb(3.0, 0.0) == pytest.approx(math.exp(-3.0),
                                                            abs=1e-15)

    def test_exact_half_at_suppression(self):
        for eps in (1.0, 3.0, 10.0, 100.0):
            assert transmission_exact(eps, 1.0) == 0.5

    def test_exact_values(self):
        assert transmission_exact(3.0, 0.0) == pytest.approx(
            1.0 / (1.0 + math.exp(3.0)), abs=1e-15)
        assert transmission_exact(3.0, 0.5) == pytest.approx(
            1.0 / (1.0 + math.exp(0.75)), abs=1e-15)

    def test_overflow_safe(self):
        val = transmission_exact(1e7, 0.0)
        assert 0.0 <= val < 1e-300

    def test_strictly_inside_unit_interval(self):
        for eps in (0.5, 3.0, 40.0):
            for beta in np.linspace(0.0, 0.99, 12):
                w = transmission_exact(eps, float(beta))
                assert 0.0 < w < 1.0

    def test_monotone_in_beta_and_epsilon(self):
        betas = np.linspace(0.0, 0.95, 20)
        vals = [transmission_exact(3.0, float(b)) for b in betas]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        eps = np.linspace(0.5, 30.0, 20)
        vals = [transmission_exact(float(e), 0.3) for e in eps]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_jwkb_matches_exact_in_deep_tunneling(self):
        # ratio 1 + e^-E: within 5% once E >= 5, within 1e-4 at E = 10
        for eps, beta in [(5.0, 0.0), (20.0, 0.5), (80.0, 0.75)]:
            exponent = eps * (1 - beta) ** 2
            if exponent < 5.0:
                continue
            ratio = transmission_jwkb(eps, beta) / transmission_exact(eps, beta)
            assert 1.0 <= ratio < 1.05
        ratio = transmission_jwkb(10.0, 0.0) / transmission_exact(10.0, 0.0)
        assert 1.0 <= ratio <= 1.0001


class TestAveragedTransmission:
    def test_zero_drive_reduces_to_static(self):
        for eps in (1.0, 3.0, 12.0):
            assert averaged_transmission(eps, 0.0) == pytest.approx(
                transmission_exact(eps, 0.0), abs=1e-15)

    def test_bracket_at_full_suppression(self):
        val = averaged_transmission(3.0, 1.0)
        assert transmission_exact(3.0, 0.0) < val < 0.5

    def test_regression_fixture(self):
        assert averaged_transmission(10.0, 0.3) == pytest.approx(
            W_AVG_10_03, abs=5e-13)

    def test_average_below_crest_value(self):
        for beta in (0.2, 0.5, 0.8):
            assert averaged_transmission(6.0, beta) <= \
                transmission_exact(6.0, beta)


    @pytest.mark.parametrize("eps", [3.0, 10.0, 30.0, 100.0])
    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.7])
    def test_scipy_quad_oracle(self, eps, beta):
        # reaches deep tunneling, where the average is as small as 1e-40
        integrate = pytest.importorskip("scipy.integrate")

        def f(z):
            e = math.exp(-eps * (1.0 - beta * math.cos(z)) ** 2)
            return e / (1.0 + e)

        ref = integrate.quad(f, 0.0, math.pi, epsabs=0.0, epsrel=1e-13,
                             limit=200)[0] / math.pi
        assert averaged_transmission(eps, beta) == pytest.approx(
            ref, rel=1e-10, abs=0.0)


class TestAsymptoticPrefactor:
    def test_pinned_value(self):
        assert asymptotic_prefactor(3.0, 0.5) == pytest.approx(A_3_05,
                                                               rel=1e-9)

    def test_sub_unity_over_scan(self):
        for beta in np.arange(0.10, 0.901, 0.05):
            a = asymptotic_prefactor(3.0, float(beta))
            assert 0.0 < a < 1.0

    def test_large_argument_internal_identity(self):
        # e^zeta K_{1/4}(zeta) -> sqrt(pi / 2 zeta), so A approaches
        # (1/2pi) sqrt((1-beta)/beta) sqrt(pi/2 zeta)
        eps, beta = 1000.0, 0.5
        zeta = eps * (1 - beta) ** 2 / 2.0
        limit = math.sqrt((1 - beta) / beta) / (2 * math.pi) \
            * math.sqrt(math.pi / (2 * zeta))
        assert asymptotic_prefactor(eps, beta) / limit == pytest.approx(
            1.0, abs=1e-2)

    def test_rejects_suppression_and_zero_drive(self):
        with pytest.raises(ValueError, match="suppression"):
            asymptotic_prefactor(3.0, 1.0)
        with pytest.raises(ValueError, match="suppression"):
            asymptotic_prefactor(3.0, 1.2)
        with pytest.raises(ValueError):
            asymptotic_prefactor(3.0, 0.0)


class TestAsymptoticConsistency:
    def test_moderate_depth(self):
        w_q = averaged_transmission(10.0, 0.3)
        w_a = averaged_transmission_asymptotic(10.0, 0.3)
        assert abs(w_a - w_q) / w_q < 0.15

    def test_deep_tunneling(self):
        w_q = averaged_transmission(30.0, 0.2)
        w_a = averaged_transmission_asymptotic(30.0, 0.2)
        assert abs(w_a - w_q) / w_q < 0.08

    def test_agreement_improves_with_depth(self):
        devs = []
        for eps, beta in [(10.0, 0.3), (20.0, 0.25), (30.0, 0.2)]:
            w_q = averaged_transmission(eps, beta)
            w_a = averaged_transmission_asymptotic(eps, beta)
            devs.append(abs(w_a - w_q) / w_q)
        assert devs[0] > devs[1] > devs[2]

    def test_error_propagates_at_suppression(self):
        with pytest.raises(ValueError, match="suppression"):
            averaged_transmission_asymptotic(3.0, 1.0)


class TestPrefactorCurve:
    def test_single_point_matches_scalar(self):
        [(beta, a)] = prefactor_curve(3.0, [0.5])
        assert beta == 0.5
        assert a == asymptotic_prefactor(3.0, 0.5)

    def test_length_matches_input(self):
        betas = np.linspace(0.1, 0.9, 17)
        assert len(prefactor_curve(3.0, betas)) == 17

    def test_finite_positive_over_figure_range(self):
        curve = prefactor_curve(3.0, np.linspace(0.05, 0.95, 19))
        for _, a in curve:
            assert math.isfinite(a) and a > 0.0
