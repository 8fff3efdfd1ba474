import math

import numpy as np
import pytest

from invosc import (ConstantForce, GaussianPacket, HarmonicForce, SystemParams,
                    TabulatedForce, ZeroForce, evaluate_initial, force_at,
                    integrate_adaptive)
from invosc.core import force_pieces


class TestValidation:
    def test_system_params_reject_bad_values(self):
        with pytest.raises(ValueError):
            SystemParams(omega=0.0)
        with pytest.raises(ValueError):
            SystemParams(omega=-1.0)
        with pytest.raises(ValueError):
            SystemParams(omega=1.0, hbar=0.0)
        with pytest.raises(ValueError):
            SystemParams(omega=math.nan)
        with pytest.raises(ValueError):
            SystemParams(omega=math.inf)

    def test_packet_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            GaussianPacket(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianPacket(0.0, 0.0, -2.0)
        with pytest.raises(ValueError):
            GaussianPacket(math.nan, 0.0, 1.0)

    @pytest.mark.parametrize("sigma", [1e-160, 1e-154])
    def test_packet_sigma_squared_below_the_normal_range(self, sigma):
        # sigma = 1e-154 gives a subnormal sigma^2 = 1e-308
        with pytest.raises(ArithmeticError, match=r"sigma\^2"):
            GaussianPacket(0.0, 0.0, sigma)

    def test_tabulated_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            TabulatedForce(times=(0.0, 1.0, 1.0), values=(0.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            TabulatedForce(times=(0.0, 1.0), values=(0.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            TabulatedForce(times=(0.0,), values=(1.0,))

    def test_harmonic_requires_positive_frequency(self):
        with pytest.raises(ValueError):
            HarmonicForce(amplitude=1.0, omega0=0.0)


class TestForceAt:
    def test_zero_profile(self):
        assert force_at(ZeroForce(), 1.0) == 0.0

    def test_harmonic_at_zero(self):
        assert force_at(HarmonicForce(0.5, 2.0), 0.0) == 0.0

    def test_harmonic_quarter_period(self):
        # sin(pi/2) = 1
        assert force_at(HarmonicForce(0.5, 2.0), math.pi / 4) == pytest.approx(
            0.5, abs=1e-15)

    def test_constant(self):
        assert force_at(ConstantForce(-0.3), 17.0) == -0.3

    def test_non_finite_time_rejected(self):
        with pytest.raises(ValueError):
            force_at(ZeroForce(), math.inf)

    def test_tabulated_exact_at_nodes(self):
        prof = TabulatedForce(times=(0.0, 0.5, 2.0), values=(1.0, -2.0, 4.0))
        for t, v in zip(prof.times, prof.values):
            assert force_at(prof, t) == v

    def test_tabulated_interpolates_linearly(self):
        prof = TabulatedForce(times=(0.0, 1.0), values=(0.0, 2.0))
        assert force_at(prof, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_tabulated_vanishes_outside_support(self):
        prof = TabulatedForce(times=(1.0, 2.0), values=(3.0, 4.0))
        assert force_at(prof, 0.5) == 0.0
        assert force_at(prof, 2.5) == 0.0

    @pytest.mark.parametrize("profile", [
        ZeroForce(), ConstantForce(-0.3), HarmonicForce(0.5, 2.0),
        TabulatedForce(times=(1.0, 1.5, 2.0), values=(3.0, -1.0, 4.0))])
    def test_array_matches_scalar_calls(self, profile):
        # tabulated endpoints, knots and points outside the support included
        ts = np.array([-1.0, 0.0, 0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 2.0 + 1e-15,
                       3.0])
        got = force_at(profile, ts)
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        assert isinstance(force_at(profile, 1.25), float)
        np.testing.assert_allclose(got, [force_at(profile, float(t)) for t in ts],
                                   rtol=1e-15, atol=0.0)
        assert force_at(profile, ts.reshape(2, 5)).shape == (2, 5)

    def test_tabulated_array_keeps_inclusive_support(self):
        prof = TabulatedForce(times=(1.0, 2.0), values=(3.0, 4.0))
        np.testing.assert_array_equal(
            force_at(prof, np.array([1.0 - 1e-15, 1.0, 2.0, 2.0 + 1e-15])),
            [0.0, 3.0, 4.0, 0.0])

    def test_array_with_non_finite_time_rejected(self):
        with pytest.raises(ValueError):
            force_at(ConstantForce(1.0), np.array([0.0, math.nan]))


class TestForcePieces:
    def test_cuts_at_knots_and_zeroes_outside_the_support(self):
        # jumps at both support ends: the outer pieces are zero, the inner
        # ones carry the values on the inside of each jump
        force = TabulatedForce((0.3, 0.8, 2.5, 3.0), (0.2, -0.4, 1.0, 0.5))
        assert force_pieces(force, 0.0, 3.5) == [
            (0.0, 0.3, 0.0, 0.0), (0.3, 0.8, 0.2, -0.4), (0.8, 2.5, -0.4, 1.0),
            (2.5, 3.0, 1.0, 0.5), (3.0, 3.5, 0.0, 0.0)]
        assert force_pieces(force, 1.0, 2.0) == [
            (1.0, 2.0, force_at(force, 1.0), force_at(force, 2.0))]

    def test_other_profiles_are_one_piece(self):
        assert force_pieces(ConstantForce(0.7), 0.5, 2.0) == [(0.5, 2.0, 0.7, 0.7)]
        assert force_pieces(HarmonicForce(0.5, 2.0), 0.0, 1.0) == [
            (0.0, 1.0, 0.0, 0.5 * math.sin(2.0))]

    def test_empty_interval(self):
        force = TabulatedForce((0.0, 1.0), (1.0, 2.0))
        assert force_pieces(force, 0.5, 0.5) == []
        assert force_pieces(force, 0.7, 0.2) == []


class TestInitialPacket:
    def test_exponent_past_the_float_range_is_zero(self):
        # (x - x0)^2 / 4 sigma^2 overflows at x = 40: the sample is 0, with
        # no overflow warning
        packet = GaussianPacket(0.0, 0.0, 1e-153)
        val = evaluate_initial(packet, SystemParams(1.0), np.array([0.0, 40.0]))
        assert val[0] == (2 * math.pi * packet.sigma**2) ** -0.25
        assert val[1] == 0.0

    def test_normalization_constant_at_center(self):
        packet = GaussianPacket(0.0, 0.0, 1.0)
        params = SystemParams(1.0)
        val = evaluate_initial(packet, params, 0.0)
        assert val == pytest.approx((2 * math.pi) ** -0.25, abs=1e-12)
        assert val.imag == 0.0

    def test_probability_normalized(self):
        packet = GaussianPacket(0.3, -1.2, 0.8)
        params = SystemParams(1.0)
        res = integrate_adaptive(
            lambda x: abs(evaluate_initial(packet, params, x)) ** 2,
            packet.x0 - 12 * packet.sigma, packet.x0 + 12 * packet.sigma,
            abs_tol=1e-13, rel_tol=1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_phase_only_factor_at_center(self):
        packet = GaussianPacket(1.0, 2.0, 1.0)
        params = SystemParams(1.0, hbar=1.0)
        val = evaluate_initial(packet, params, 1.0)
        expected = (2 * math.pi) ** -0.25 * np.exp(2.0j)
        assert val == pytest.approx(expected, abs=1e-12)
        assert abs(val) == pytest.approx((2 * math.pi) ** -0.25, abs=1e-12)

    @pytest.mark.parametrize("x0,p0,sigma", [(0.0, 0.0, 1.0), (2.0, -1.0, 0.5),
                                             (-4.0, 3.0, 2.3)])
    def test_density_moments(self, x0, p0, sigma):
        packet = GaussianPacket(x0, p0, sigma)
        params = SystemParams(1.0)
        lo, hi = x0 - 12 * sigma, x0 + 12 * sigma

        def dens(x):
            return abs(evaluate_initial(packet, params, x)) ** 2

        mean = integrate_adaptive(lambda x: x * dens(x), lo, hi,
                                  abs_tol=1e-14, rel_tol=1e-12).value
        var = integrate_adaptive(lambda x: (x - x0) ** 2 * dens(x), lo, hi,
                                 abs_tol=1e-14, rel_tol=1e-12).value
        assert mean == pytest.approx(x0, abs=1e-9)
        assert var == pytest.approx(sigma**2, rel=1e-9)

    def test_array_input(self):
        packet = GaussianPacket(0.0, 1.0, 1.0)
        params = SystemParams(1.0)
        xs = np.array([-1.0, 0.0, 1.0])
        out = evaluate_initial(packet, params, xs)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(evaluate_initial(packet, params, 0.0))
