import itertools
import math
import warnings

import numpy as np
import pytest

from invosc import barrier_transmission, numerics
from invosc import (SystemParams, TunnelingParams, asymptotic_prefactor,
                    averaged_transmission, averaged_transmission_asymptotic,
                    barrier_potential, transmission_exact, transmission_jwkb)

PARAMS = SystemParams(1.0)

# frozen on first computation from the adaptive period-average quadrature,
# cross-checked against an independent integrator
W_AVG_10_03 = 1.4379239455522658e-03
# pinned from the Bessel-function oracle ahead of the build
A_3_05 = 0.2841009518483714
# Dirichlet eta(1/2) = (1 - sqrt 2) zeta(1/2)
ETA_HALF = 0.6048986434216304


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
    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.7, 2.0, 10.0, 60.0, 100.0])
    def test_scipy_quad_oracle(self, eps, beta):
        # reaches deep tunneling, where the average is as small as 1e-40;
        # above suppression the integrand is a narrow peak at cos z = 1/beta
        integrate = pytest.importorskip("scipy.integrate")

        def f(z):
            e = math.exp(-eps * (1.0 - beta * math.cos(z)) ** 2)
            return e / (1.0 + e)

        points = [math.acos(1.0 / beta)] if beta > 1.0 else None
        ref = integrate.quad(f, 0.0, math.pi, epsabs=0.0, epsrel=1e-13,
                             limit=200, points=points)[0] / math.pi
        assert averaged_transmission(eps, beta) == pytest.approx(
            ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("eps", [1e-3, 0.1, 3.0, 30.0, 100.0, 1e3])
    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.8, 0.95, 1.0])
    def test_half_period_matches_mpmath(self, eps, beta):
        # the integrand scaled by its crest value exp(eps (1 - beta)^2), so
        # that mpmath's absolute tolerance holds down to averages of 1e-215
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            e, b = mp.mpf(eps), mp.mpf(beta)
            crest = e * (1 - b) ** 2

            def f(z):
                x = e * (1 - b * mp.cos(z)) ** 2
                return mp.exp(crest - x) / (1 + mp.exp(-x))

            ref = mp.quad(f, mp.linspace(0, mp.pi, 5)) * mp.exp(-crest) / mp.pi
        if ref > 1e-300:
            assert averaged_transmission(eps, beta) == pytest.approx(
                float(ref), rel=1e-13, abs=0.0)
        else:   # (1e3, 0.05): 4.6e-394, below the float range
            assert averaged_transmission(eps, beta) < 1e-300

    @pytest.mark.parametrize("eps, beta", [
        *itertools.product([1e-3, 3.0, 1e3, 1e8, 1e12, 1e16],
                           [1 + 1e-9, 1 + 1e-6, 1.01, 2.0, 100.0, 1e4]),
        (1e-3, 3e5), (0.1, 3e4), (1e6, 1 + 1e-9), (1e16, 1.5)])
    def test_above_suppression_matches_mpmath(self, eps, beta):
        # the peak at z0 = arccos(1/beta) of half-width ~ w, and the one at
        # z = 0 of width ~ eps^(-1/4) just above suppression, are split off
        # by breakpoints at geometrically growing distances
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            e, b = mp.mpf(eps), mp.mpf(beta)
            z0 = mp.acos(1 / b)
            w = 1 / (mp.sqrt(e) * mp.sqrt(b * b - 1))
            points = {mp.mpf(0), z0, mp.pi}
            for k in range(-4, 12):
                points.update(p for p in (z0 - w * 2**k, z0 + w * 2**k,
                                          e ** -0.25 * 2**k) if 0 < p < mp.pi)
            ref = mp.quad(lambda z: 1 / (1 + mp.exp(e * (1 - b * mp.cos(z)) ** 2)),
                          sorted(points)) / mp.pi
        assert averaged_transmission(eps, beta) == pytest.approx(
            float(ref), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("eps", [1e-3, 3.0, 100.0])
    @pytest.mark.parametrize("beta", [1e8, 1e12, 1e16, 1e17, 1e200])
    def test_far_above_suppression_reaches_the_limit(self, eps, beta):
        # beta >> 1: (1 / pi beta) int du / (1 + exp(eps (1 - u)^2))
        # = eta(1/2) / (beta sqrt(pi eps)), up to a relative
        # (1 + 0.63 / eps) / (2 beta^2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = averaged_transmission(eps, beta)
        assert got == pytest.approx(ETA_HALF / (beta * math.sqrt(math.pi * eps)),
                                    rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eps, beta", [(3.0, 1e5), (3.0, 1e7), (100.0, 1e7)])
    def test_large_beta_matches_mpmath(self, eps, beta):
        # with u = beta cos z the average is (1 / pi beta) int f(u)
        # (1 - u^2 / beta^2)^(-1/2) du, f(u) = 1 / (1 + exp(eps (1 - u)^2)),
        # and f < e^-1600 once |u - 1| > 40 / sqrt(eps)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            e, b = mp.mpf(eps), mp.mpf(beta)
            half = 40 / mp.sqrt(e)
            ref = mp.quad(lambda u: 1 / (1 + mp.exp(e * (1 - u) ** 2))
                          / mp.sqrt(1 - (u / b) ** 2),
                          [1 - half, 1 - half / 4, 1, 1 + half / 4, 1 + half])
            ref /= mp.pi * b
        assert averaged_transmission(eps, beta) == pytest.approx(
            float(ref), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("eps, beta", [
        (1e8, 0.9999), (1e10, 1.0), (1e12, 0.999999), (1e12, 1.0),
        (1e14, 1.0), (1e16, 1.0), (1e14, 1 - 1e-8), (1e13, 1 - 1e-7)])
    def test_deep_tunneling_at_suppression_matches_mpmath(self, eps, beta):
        # a peak of width ~eps^(-1/4) at z = 0, narrower than the periodic
        # rule's node spacing at its cap from eps ~ 1e12 on
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            e, b = mp.mpf(eps), mp.mpf(beta)
            w = e ** -0.25
            points = [0] + [w * 2**k for k in range(-2, 8)] + [mp.pi]
            ref = mp.quad(lambda z: 1 / (1 + mp.exp(e * (1 - b * mp.cos(z)) ** 2)),
                          points) / mp.pi
        assert averaged_transmission(eps, beta) == pytest.approx(
            float(ref), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("eps", [1e50, 1e150, 1e300])
    def test_deep_tunneling_at_suppression_scales_as_eps_quarter(self, eps):
        # at beta = 1, y = 2 sin^2(z / 2) = z^2 / 2 (1 + O(z^2)), so the average
        # is (sqrt 2 / pi) eps^(-1/4) int_0^inf du / (1 + e^(u^4)) up to a
        # relative O(eps^(-1/2)); the peak is far narrower than e^-85 pi
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            scale = float(mp.sqrt(2) / mp.pi * mp.quad(
                lambda u: 1 / (1 + mp.exp(u**4)), [0, 1, 2, 4, 8, mp.inf]))
        assert averaged_transmission(eps, 1.0) == pytest.approx(
            scale * eps**-0.25, rel=1e-13, abs=0.0)

    def test_periodic_rule_below_a_narrow_peak(self, monkeypatch):
        # the peak's w^2 = 2 / peak with peak <= eps / 2 + sqrt(eps): up to
        # eps ~ 4e4 every 0 < beta <= 1 keeps the periodic rule (w >= 1e-2)
        rows = []

        def recorded(f, lo, hi, *args, **kwargs):
            rows.append(np.size(hi))
            return tanh_sinh(f, lo, hi, *args, **kwargs)

        tanh_sinh = barrier_transmission.integrate_tanh_sinh
        monkeypatch.setattr(barrier_transmission, "integrate_tanh_sinh", recorded)
        for eps in (1e-3, 3.0, 31.0, 1e3, 3e4):
            averaged_transmission(eps, np.linspace(1e-3, 1.0, 200))
        assert rows and not any(rows)

    def test_limit_correction_constant_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        assert barrier_transmission._ETA_RATIO == pytest.approx(
            float(mp.altzeta(1.5) / (2 * mp.altzeta(0.5))), rel=1e-16)

    def test_eta_half_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        assert barrier_transmission._ETA_HALF == ETA_HALF == pytest.approx(
            float(mpmath.altzeta(0.5)), rel=1e-16)


class TestSweepArrays:
    """Every beta of an array is one row of the same trapezoid call, so an
    array gives what one call per beta gives, to the bit."""

    @pytest.mark.parametrize("eps", [1e-3, 3.0, 100.0])
    def test_average_matches_scalar_calls_across_suppression(self, eps):
        betas = np.concatenate([np.linspace(0.0, 3.0, 31), [1e5, 1e17]])
        got = averaged_transmission(eps, betas)
        np.testing.assert_array_equal(
            got, [averaged_transmission(eps, float(b)) for b in betas])
        assert averaged_transmission(eps, betas.reshape(3, 11)).shape == (3, 11)
        assert type(averaged_transmission(eps, 0.5)) is float

    @pytest.mark.parametrize("eps", [1e-3, 3.0, 100.0, 1e5])
    def test_asymptotics_match_scalar_calls(self, eps):
        betas = np.linspace(0.01, 0.99, 25)
        np.testing.assert_array_equal(
            asymptotic_prefactor(eps, betas),
            [asymptotic_prefactor(eps, float(b)) for b in betas])
        np.testing.assert_array_equal(
            averaged_transmission_asymptotic(eps, betas),
            [averaged_transmission_asymptotic(eps, float(b)) for b in betas])
        assert type(asymptotic_prefactor(eps, 0.5)) is float
        assert type(averaged_transmission_asymptotic(eps, 0.5)) is float

    def test_no_adaptive_quadrature_up_to_suppression(self, monkeypatch):
        # nor above it: every beta runs on a trapezoid rule or a closed form
        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_adaptive called")

        assert not hasattr(barrier_transmission, "integrate_adaptive")
        monkeypatch.setattr(numerics, "integrate_adaptive", forbidden)
        betas = np.linspace(0.0, 1.0, 41)
        for eps in (1e-3, 3.0, 1e3):
            assert np.all(averaged_transmission(eps, betas) >= 0.0)
            assert np.all(averaged_transmission_asymptotic(eps, betas[1:-1]) >= 0.0)
        assert np.all(averaged_transmission(
            3.0, np.array([0.5, 1.5, 100.0, 1e17])) > 0.0)

    def test_any_bad_beta_rejects_the_array(self):
        with pytest.raises(ValueError, match="non-negative"):
            averaged_transmission(3.0, np.array([0.5, -0.1]))
        with pytest.raises(ValueError, match="non-negative"):
            averaged_transmission(3.0, np.array([0.5, np.nan]))
        with pytest.raises(ValueError, match="suppression"):
            asymptotic_prefactor(3.0, np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="vanishing"):
            asymptotic_prefactor(3.0, np.array([0.0, 0.5]))


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

    @pytest.mark.parametrize("zeta", [600.5, 700.0, 1e3, 1e4, 1e6])
    def test_large_argument_series_matches_mpmath(self, zeta):
        mp = pytest.importorskip("mpmath")
        beta = 0.5
        eps = 2.0 * zeta / (1.0 - beta) ** 2
        with mp.workdps(40):
            z = mp.mpf(eps) * (1 - mp.mpf(beta)) ** 2 / 2
            ref = (mp.sqrt((1 - mp.mpf(beta)) / beta) / (2 * mp.pi)
                   * mp.exp(z) * mp.besselk(0.25, z))
        assert asymptotic_prefactor(eps, beta) == pytest.approx(
            float(ref), rel=1e-14, abs=0.0)

    def test_matches_mpmath_over_every_zeta(self):
        # zeta = eps (1 - beta)^2 / 2 = eps / 8 at beta = 1/2, exactly
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for zeta in [*np.logspace(-300.0, 15.0, 64), 600.0]:
                z = mp.mpf(zeta)
                ref = mp.exp(z) * mp.besselk(0.25, z) / (2 * mp.pi)
                assert asymptotic_prefactor(8.0 * zeta, 0.5) == pytest.approx(
                    float(ref), rel=1e-14, abs=0.0)

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
    def test_finite_positive_over_figure_range(self):
        curve = asymptotic_prefactor(3.0, np.linspace(0.05, 0.95, 19))
        for a in curve:
            assert math.isfinite(a) and a > 0.0
