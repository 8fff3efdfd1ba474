import cmath
import math

import numpy as np
import pytest

from conftest import density_moments
from invosc import (ConstantForce, GaussianPacket, HarmonicForce, SystemParams,
                    ZeroForce, action_S, delta_kick_at, evaluate,
                    evaluate_initial, evolve_delta_kick, evolve_gaussian,
                    grid_from_packet, integrate_adaptive, propagator,
                    schrodinger_grid_evolve)

PARAMS = SystemParams(1.0, hbar=1.0)


class TestAction:
    def test_vanishes_at_origin_without_force(self):
        assert action_S(PARAMS, 0.0, 1.0, 0.0, 0.0, ZeroForce()) == 0.0

    def test_quadratic_term(self):
        val = action_S(PARAMS, 1.0, 1.0, 0.0, 0.0, ZeroForce())
        assert val == pytest.approx(math.cosh(1.0) / (2.0 * math.sinh(1.0)),
                                    abs=1e-12)

    def test_short_time_free_particle_limit(self):
        theta = 1e-3
        val = action_S(PARAMS, 1.0, theta, 0.0, 0.0, ConstantForce(0.7))
        free = 1.0 / (2.0 * theta)
        assert val == pytest.approx(free, rel=1e-4)

    def test_rejects_non_positive_elapsed_time(self):
        with pytest.raises(ValueError, match="non-positive elapsed"):
            action_S(PARAMS, 0.0, 1.0, 0.0, 1.0, ZeroForce())
        with pytest.raises(ValueError, match="non-positive elapsed"):
            action_S(PARAMS, 0.0, 0.5, 0.0, 1.0, ZeroForce())
        with pytest.raises(ValueError):
            action_S(PARAMS, 0.0, 1e-12, 0.0, 0.0, ZeroForce())

    def test_force_continuity_linear_in_amplitude(self):
        s0 = action_S(PARAMS, 0.7, 1.0, -0.4, 0.0, ZeroForce())
        d_big = action_S(PARAMS, 0.7, 1.0, -0.4, 0.0,
                         HarmonicForce(1e-3, 2.0)) - s0
        d_small = action_S(PARAMS, 0.7, 1.0, -0.4, 0.0,
                           HarmonicForce(1e-6, 2.0)) - s0
        assert d_big == pytest.approx(1e3 * d_small, rel=1e-2)


class TestPropagator:
    def test_prefactor_modulus_is_position_independent(self):
        expected = math.sqrt(1.0 / (2.0 * math.pi * math.sinh(1.0)))
        for x, x1 in [(0.0, 0.0), (1.0, -2.0), (3.5, 0.3)]:
            k = propagator(PARAMS, x, 1.0, x1, 0.0, ZeroForce())
            assert abs(k.value) == pytest.approx(expected, abs=1e-12)

    def test_prefactor_phase_is_principal_branch(self):
        k = propagator(PARAMS, 0.0, 1.0, 0.0, 0.0, ZeroForce())
        assert cmath.phase(k.value) == pytest.approx(-math.pi / 4.0, abs=1e-12)


def _compose_kernel(params, x, t, x1, t1, t_mid, force):
    """Chapman-Kolmogorov integral along the steepest-descent contour.

    The y-exponent of K(x,t|y,t_mid) K(y,t_mid|x1,t1) is an exact real
    quadratic c2 y^2 + c1 y + c0 recovered from three evaluations; the
    contour y = y* + e^{i pi/4} u through the stationary point turns the
    pure-phase integrand into a decaying Gaussian that honest quadrature
    can handle.
    """
    def log_pair(y):
        ka = propagator(params, x, t, y, t_mid, force)
        kb = propagator(params, y, t_mid, x1, t1, force)
        return (ka.action + kb.action) / params.hbar

    e0, ep, em = log_pair(0.0), log_pair(1.0), log_pair(-1.0)
    c2 = 0.5 * (ep + em - 2.0 * e0)
    c1 = 0.5 * (ep - em)
    assert c2 > 0.0
    y_star = -c1 / (2.0 * c2)
    rot = cmath.exp(0.25j * math.pi)
    u_max = 8.0 / math.sqrt(c2)

    def integrand(u):
        y = y_star + rot * u
        ka = propagator(params, x, t, y, t_mid, force)
        kb = propagator(params, y, t_mid, x1, t1, force)
        return ka.value * kb.value

    res = integrate_adaptive(
        lambda us: np.array([integrand(float(u)) for u in us]),
        -u_max, u_max, abs_tol=1e-11, rel_tol=1e-10)
    return rot * res.value


class TestSemigroup:
    @pytest.mark.parametrize("force", [ZeroForce(), ConstantForce(0.4)])
    def test_chapman_kolmogorov(self, force):
        worst = 0.0
        for x in (-1.0, 0.0, 0.7):
            for x1 in (-0.5, 0.4):
                direct = propagator(PARAMS, x, 0.6, x1, 0.0, force).value
                composed = _compose_kernel(PARAMS, x, 0.6, x1, 0.0, 0.3, force)
                worst = max(worst, abs(composed - direct) / abs(direct))
        assert worst < 1e-6


class TestEvolveGaussian:
    def test_identity_at_t_zero(self):
        packet = GaussianPacket(0.4, -1.3, 0.9)
        ev = evolve_gaussian(PARAMS, packet, ZeroForce(), 0.0)
        assert ev.gamma_factor == 1.0
        assert ev.xi == packet.x0
        xs = np.linspace(-3, 3, 11)
        got = evaluate(ev, PARAMS, packet, xs)
        ref = evaluate_initial(packet, PARAMS, xs)
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_spreading_factor_modulus(self):
        packet = GaussianPacket(0.0, 0.0, 1.0)
        ev = evolve_gaussian(PARAMS, packet, ZeroForce(), 1.0)
        expected = math.cosh(1.0) ** 2 + math.sinh(1.0) ** 2 / 4.0
        assert abs(ev.gamma_factor) ** 2 == pytest.approx(expected, rel=1e-12)
        _, _, var = density_moments(ev, PARAMS, packet)
        assert var == pytest.approx(packet.sigma**2 * expected, rel=1e-8)

    def test_matches_propagator_integral_pointwise(self):
        # strongest closed-form check: direct quadrature of the kernel
        # against the initial packet, global phase included
        packet = GaussianPacket(-3.0, 1.0, 1.0)
        force = HarmonicForce(0.5, 2.0)
        t = 1.0
        ev = evolve_gaussian(PARAMS, packet, force, t)
        lo = packet.x0 - 14 * packet.sigma
        hi = packet.x0 + 14 * packet.sigma
        for x in (-6.0, -2.0, 0.5):
            def integrand(x1):
                k = propagator(PARAMS, x, t, x1, 0.0, force)
                return k.value * evaluate_initial(packet, PARAMS, x1)

            direct = integrate_adaptive(
                lambda x1s: np.array([integrand(float(x1)) for x1 in x1s]),
                lo, hi, abs_tol=1e-12, rel_tol=1e-11).value
            assert evaluate(ev, PARAMS, packet, x) == pytest.approx(
                direct, abs=1e-9)

    def test_norm_and_ehrenfest(self):
        packet = GaussianPacket(0.5, -0.7, 1.2)
        force = HarmonicForce(0.6, 1.7)
        ev = evolve_gaussian(PARAMS, packet, force, 1.5)
        norm, mean, _ = density_moments(ev, PARAMS, packet)
        assert norm == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(ev.xi, abs=1e-8)

    def test_matches_grid_oracle(self):
        packet = GaussianPacket(-3.0, 1.0, 1.0)
        force = HarmonicForce(0.5, 2.0)
        grid = grid_from_packet(packet, PARAMS, -40.0, 40.0, 2048)
        out = schrodinger_grid_evolve(PARAMS, grid, force, 1.0, 2e-3)
        ev = evolve_gaussian(PARAMS, packet, force, 1.0)
        ref = evaluate(ev, PARAMS, packet, out.x())
        rel_l2 = np.sqrt(np.sum(np.abs(out.psi - ref) ** 2)
                         / np.sum(np.abs(ref) ** 2))
        assert rel_l2 < 1e-3


class TestDeltaKick:
    def test_no_kick_reduces_to_free_evolution(self):
        packet = GaussianPacket(0.3, 0.8, 1.1)
        kicked = evolve_delta_kick(PARAMS, packet, 0.0, 1.2)
        free = evolve_gaussian(PARAMS, packet, ZeroForce(), 1.2)
        assert kicked == free

    def test_boosted_center(self):
        packet = GaussianPacket(0.0, 0.0, 1.0)
        ev = evolve_delta_kick(PARAMS, packet, 1.0, 1.0)
        assert ev.xi == pytest.approx(math.sinh(1.0), rel=1e-15)

    def test_ehrenfest_after_kick(self):
        packet = GaussianPacket(0.2, -0.4, 0.8)
        ev = evolve_delta_kick(PARAMS, packet, 1.5, 1.0)
        _, mean, _ = density_moments(ev, PARAMS, packet)
        assert mean == pytest.approx(ev.xi, abs=1e-8)

    def test_matches_boosted_grid_oracle(self):
        packet = GaussianPacket(0.0, 0.0, 1.0)
        p = 1.0
        boosted = GaussianPacket(0.0, p, 1.0)
        grid = grid_from_packet(boosted, PARAMS, -40.0, 40.0, 2048)
        out = schrodinger_grid_evolve(PARAMS, grid, ZeroForce(), 1.0, 2e-3)
        ev = evolve_delta_kick(PARAMS, packet, p, 1.0)
        ref = evaluate(ev, PARAMS, packet, out.x())
        rel_l2 = np.sqrt(np.sum(np.abs(out.psi - ref) ** 2)
                         / np.sum(np.abs(ref) ** 2))
        assert rel_l2 < 1e-3


class TestDelayedKick:
    def test_reduces_to_immediate_kick(self):
        packet = GaussianPacket(0.4, -0.2, 1.3)
        a = delta_kick_at(PARAMS, packet, 0.9, 0.0, 1.4)
        b = evolve_delta_kick(PARAMS, packet, 0.9, 1.4)
        assert a.xi == pytest.approx(b.xi, rel=1e-14)
        assert a.xi_dot == pytest.approx(b.xi_dot, rel=1e-14)
        assert a.phase_action == pytest.approx(b.phase_action, rel=1e-12)
        xs = np.linspace(a.xi - 2, a.xi + 2, 7)
        assert np.max(np.abs(evaluate(a, PARAMS, packet, xs)
                             - evaluate(b, PARAMS, packet, xs))) < 1e-12

    def test_zero_momentum_is_exactly_free(self):
        packet = GaussianPacket(0.3, 0.8, 1.1)
        assert delta_kick_at(PARAMS, packet, 0.0, 0.5, 1.2) == \
            evolve_gaussian(PARAMS, packet, ZeroForce(), 1.2)

    def test_piecewise_center(self):
        packet = GaussianPacket(0.0, 0.0, 1.0)
        ev = delta_kick_at(PARAMS, packet, 1.0, 0.5, 1.0)
        assert ev.xi == pytest.approx(math.sinh(0.5), rel=1e-14)

    def test_ehrenfest_mid_flight_kick(self):
        packet = GaussianPacket(-0.5, 0.6, 0.9)
        ev = delta_kick_at(PARAMS, packet, -0.8, 0.4, 1.1)
        norm, mean, var = density_moments(ev, PARAMS, packet)
        assert norm == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(ev.xi, abs=1e-8)
        assert var == pytest.approx(
            packet.sigma**2 * abs(ev.gamma_factor) ** 2, rel=1e-8)

    def test_kick_after_horizon_rejected(self):
        packet = GaussianPacket(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            delta_kick_at(PARAMS, packet, 1.0, 2.0, 1.0)
