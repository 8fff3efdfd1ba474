import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rk4_path
from invosc import (GaussianPacket, HarmonicForce, QuadratureError,
                    SystemParams, ZeroForce, bessel_k_quarter,
                    free_grid_evolve, grid_from_packet, integrate_adaptive,
                    integrate_halfline, langevin_ode_oracle,
                    schrodinger_grid_evolve, solve_cubic)


class TestAdaptiveQuadrature:
    def test_polynomial(self):
        res = integrate_adaptive(lambda x: x * x, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert res.evaluations >= 15

    def test_sine(self):
        res = integrate_adaptive(np.sin, 0.0, math.pi, abs_tol=1e-14,
                                 rel_tol=1e-13)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_hyperbolic_kernel(self):
        # the convolution kernel of the driven trajectory
        res = integrate_adaptive(lambda s: np.sinh(1.0 - s), 0.0, 1.0)
        assert res.value == pytest.approx(math.cosh(1.0) - 1.0, abs=1e-13)

    def test_complex_integrand(self):
        res = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, math.pi,
                                 abs_tol=1e-13, rel_tol=1e-12)
        assert isinstance(res.value, complex)
        assert res.value == pytest.approx(2.0j, abs=1e-12)

    def test_error_estimates_bound_true_error(self):
        cases = [
            (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
            (lambda x: np.cos(3 * x), 0.0, 2.0, math.sin(6.0) / 3.0),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
            (lambda x: np.exp(-x * x), -3.0, 3.0,
             math.sqrt(math.pi) * math.erf(3.0)),
            (lambda x: np.log(1.0 + x), 0.0, 1.0, 2 * math.log(2.0) - 1.0),
            (lambda x: np.sqrt(x + 0.01), 0.0, 1.0,
             (1.01**1.5 - 0.01**1.5) / 1.5),
            (lambda x: np.sin(10 * x), 0.0, 1.0, (1 - math.cos(10.0)) / 10.0),
            (lambda x: x**5 - 2 * x, -1.0, 2.0, 63.0 / 6.0 - 3.0),
            (lambda x: np.cosh(x), -1.0, 1.0, 2 * math.sinh(1.0)),
            (lambda x: 1.0 / (x + 2.0), -1.0, 1.0, math.log(3.0)),
        ]
        for f, lo, hi, true in cases:
            res = integrate_adaptive(f, lo, hi, abs_tol=1e-12, rel_tol=1e-10)
            assert abs(res.value - true) <= 10.0 * res.error_estimate + 1e-13

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 0.0, math.inf)

    def test_depth_limit_carries_best_estimate(self):
        # a needle far narrower than 2^-60 of the interval is unresolvable
        def needle(x):
            return np.where(np.abs(x - 0.123456789) < 1e-19, 1.0, np.exp(-x))

        with pytest.raises(QuadratureError) as err:
            integrate_adaptive(needle, 0.0, 1.0, abs_tol=1e-30, rel_tol=1e-16)
        assert err.value.best is not None
        assert err.value.best.value == pytest.approx(1.0 - math.exp(-1.0),
                                                     rel=1e-6)


# polynomial coefficients on a 1e-6 grid in [-1, 1], clear of subnormals
_COEFF = st.integers(-10**6, 10**6).map(lambda k: k / 10**6)


class TestPanelContract:
    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.lists(_COEFF, min_size=1, max_size=23),
           lo=st.floats(-10.0, 10.0), width=st.floats(1e-3, 10.0))
    def test_first_panel_integrates_degree_22_polynomials(self, coeffs, lo,
                                                          width):
        # the 15-point Kronrod rule is exact to degree 22 and its embedded
        # 7-point Gauss rule to degree 13; a misplaced node or weight breaks
        # one of the two
        hi = lo + width
        a, b = Fraction(lo), Fraction(hi)
        exact = sum(Fraction(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                    for k, c in enumerate(coeffs))

        def abs_antiderivative(x, k):
            return (1 if x >= 0 else -1) * abs(x) ** (k + 1) / (k + 1)

        scale = float(sum(abs(Fraction(c)) * (abs_antiderivative(b, k)
                                              - abs_antiderivative(a, k))
                          for k, c in enumerate(coeffs)))
        res = integrate_adaptive(
            lambda x: np.polynomial.polynomial.polyval(x, coeffs), lo, hi,
            abs_tol=math.inf)
        assert res.evaluations == 15
        assert abs(res.value - float(exact)) <= 1e-12 * scale
        if len(coeffs) <= 14:
            assert res.error_estimate <= 1e-12 * scale

    def test_one_array_call_per_panel_evaluation(self):
        calls = []

        def f(x):
            calls.append(x)
            return np.sqrt(x)

        res = integrate_adaptive(f, 0.0, 1.0, abs_tol=1e-12, rel_tol=1e-12)
        assert res.evaluations > 15
        for x in calls:
            assert isinstance(x, np.ndarray)
            assert x.ndim == 1 and x.dtype == np.float64
        assert len(calls[0]) == 15
        assert all(len(x) == 30 for x in calls[1:])
        assert len(calls) == 1 + (res.evaluations - 15) // 30
        first = calls[0]
        assert np.all(np.diff(first) > 0.0)
        assert 0.0 < first[0] and first[-1] < 1.0
        assert first[7] == 0.5
        np.testing.assert_allclose(first + first[::-1], 1.0, rtol=0, atol=1e-15)

    def test_integrand_must_return_one_value_per_node(self):
        with pytest.raises(ValueError, match="shape"):
            integrate_adaptive(lambda x: 1.0, 0.0, 1.0)


class TestHalfline:
    def test_exponential(self):
        res = integrate_halfline(lambda x: np.exp(-x), 1e-13)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_lorentzian(self):
        res = integrate_halfline(lambda x: 1.0 / (1.0 + x * x), 1e-11)
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-9)

    @pytest.mark.parametrize("t", [0.05, 0.5])
    def test_cosine_transform_recovers_memory_kernel(self, t):
        # (2/pi) int J(w)/w cos(wt) dw reproduces gamma wd exp(-wd t)
        gamma, wd = 0.8, 2.0

        def f(w):
            return np.cos(w * t) / (1.0 + (w / wd) ** 2)

        res = integrate_halfline(f, 5e-9)
        val = 2.0 / math.pi * gamma * res.value
        assert val == pytest.approx(gamma * wd * math.exp(-wd * t), abs=1e-6)

    def test_requires_positive_tolerance(self):
        with pytest.raises(ValueError):
            integrate_halfline(lambda x: math.exp(-x), 0.0)


class TestCubic:
    def test_simple_factorization(self):
        roots = solve_cubic(0.0, -1.0, 0.0)
        assert sorted(r.real for r in roots) == pytest.approx([-1.0, 0.0, 1.0],
                                                              abs=1e-14)
        assert all(r.imag == 0.0 for r in roots)

    def test_transfer_cubic_vieta(self):
        a, b = 10.0, 4.0
        roots = solve_cubic(a, b, -a)
        s1 = sum(roots)
        s2 = (roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2])
        s3 = roots[0] * roots[1] * roots[2]
        assert s1 == pytest.approx(-a, abs=1e-12)
        assert s2 == pytest.approx(b, abs=1e-12)
        assert s3 == pytest.approx(a, abs=1e-12)

    def test_undamped_factorization(self):
        # b = -1 factors as (r-1)(r+1)(r+a)
        for a in (0.5, 3.0, 12.0):
            roots = solve_cubic(a, -1.0, -a)
            expected = sorted([1.0, -1.0, -a])
            assert sorted(r.real for r in roots) == pytest.approx(expected,
                                                                  abs=1e-12)

    def test_complex_pair_case(self):
        roots = solve_cubic(2.0, 9.0, -2.0)
        complex_roots = [r for r in roots if r.imag != 0.0]
        assert len(complex_roots) == 2
        assert complex_roots[0] == complex_roots[1].conjugate()

    def test_random_cubics_vieta(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a2, a1, a0 = rng.uniform(-10, 10, 3)
            roots = solve_cubic(a2, a1, a0)
            scale = max(1.0, abs(a2), abs(a1), abs(a0))
            assert abs(sum(roots) + a2) < 1e-11 * scale
            prod = roots[0] * roots[1] * roots[2]
            assert abs(prod + a0) < 1e-11 * scale
            for r in roots:
                assert abs(((r + a2) * r + a1) * r + a0) < 1e-11 * scale

    def test_residual_after_polish(self):
        roots = solve_cubic(10.0, 4.0, -10.0)
        for r in roots:
            assert abs(((r + 10.0) * r + 4.0) * r - 10.0) < 1e-12 * 1e3


def _series_i(nu, z, terms=60):
    total = 0.0
    for k in range(terms):
        total += (z / 2.0) ** (2 * k + nu) / (math.gamma(k + 1) *
                                              math.gamma(k + nu + 1))
    return total


def _series_k_quarter(z):
    return math.pi / 2.0 * (_series_i(-0.25, z) - _series_i(0.25, z)) \
        / math.sin(math.pi / 4.0)


class TestBesselKQuarter:
    def test_against_series_oracle(self):
        for z in (0.05, 0.375, 1.0, 2.5):
            assert bessel_k_quarter(z) == pytest.approx(_series_k_quarter(z),
                                                        rel=1e-8)

    def test_large_argument_asymptotics(self):
        z = 50.0
        ratio = bessel_k_quarter(z) / (math.sqrt(math.pi / (2 * z)) *
                                       math.exp(-z))
        assert ratio == pytest.approx(1.0, abs=1e-2)

    def test_small_argument_leading_behavior(self):
        z = 1e-8
        val = bessel_k_quarter(z) * (z / 2.0) ** 0.25
        assert val == pytest.approx(math.gamma(0.25) / 2.0, rel=1e-4)

    def test_positive_decreasing_log_convex(self):
        zs = np.linspace(1e-3, 50.0, 60)
        vals = np.array([bessel_k_quarter(float(z)) for z in zs])
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)
        logs = np.log(vals)
        assert np.all(logs[1:-1] <= 0.5 * (logs[:-2] + logs[2:]) + 1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_k_quarter(0.0)
        with pytest.raises(ValueError):
            bessel_k_quarter(-1.0)


    def test_scipy_oracle(self):
        special = pytest.importorskip("scipy.special")
        for z in np.logspace(-3.0, math.log10(600.0), 40):
            assert bessel_k_quarter(float(z)) == pytest.approx(
                special.kv(0.25, z), rel=1e-12, abs=0.0)


class TestGridSolver:
    def test_initial_norm(self):
        grid = grid_from_packet(GaussianPacket(0.0, 0.0, 1.0), SystemParams(1.0),
                                -20.0, 20.0, 512)
        assert grid.norm() == pytest.approx(1.0, abs=1e-12)

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            grid_from_packet(GaussianPacket(0.0, 0.0, 1.0), SystemParams(1.0),
                             -20.0, 20.0, 1000)

    def test_free_particle_exact(self):
        # kinetic-only steps reproduce analytic free spreading to roundoff
        params = SystemParams(1.0, hbar=1.0)
        packet = GaussianPacket(0.0, 0.5, 1.0)
        grid = grid_from_packet(packet, params, -40.0, 40.0, 1024)
        out = free_grid_evolve(params, grid, 1.0, 0.25)
        x = out.x()
        t = 1.0
        gam = 1.0 + 0.5j * params.hbar * t / packet.sigma**2
        y = x - packet.x0 - packet.p0 * t
        ref = ((2 * math.pi * packet.sigma**2) ** -0.25 / np.sqrt(gam)
               * np.exp(-y**2 / (4 * packet.sigma**2 * gam)
                        + 1j * (packet.p0 * x - 0.5 * packet.p0**2 * t)
                        / params.hbar))
        rel_l2 = np.sqrt(np.sum(np.abs(out.psi - ref) ** 2)
                         / np.sum(np.abs(ref) ** 2))
        assert rel_l2 < 1e-7

    def test_norm_conserved_without_absorber(self):
        params = SystemParams(1.0)
        grid = grid_from_packet(GaussianPacket(0.0, 0.0, 1.0), params,
                                -40.0, 40.0, 2048)
        out = schrodinger_grid_evolve(params, grid, ZeroForce(), 1.0, 1e-3)
        assert out.norm() == pytest.approx(1.0, abs=1e-8)

    def test_second_order_in_dt(self):
        from invosc import evaluate, evolve_gaussian
        params = SystemParams(1.0)
        packet = GaussianPacket(0.0, 0.5, 1.0)
        force = HarmonicForce(0.5, 2.0)
        ev = evolve_gaussian(params, packet, force, 1.0)

        def deviation(dt):
            grid = grid_from_packet(packet, params, -40.0, 40.0, 2048)
            out = schrodinger_grid_evolve(params, grid, force, 1.0, dt)
            ref = evaluate(ev, params, packet, out.x())
            return np.sqrt(np.sum(np.abs(out.psi - ref) ** 2)
                           / np.sum(np.abs(ref) ** 2))

        ratio = deviation(4e-3) / deviation(2e-3)
        assert 3.0 < ratio < 5.0

    def test_boundary_guard_raises(self):
        params = SystemParams(1.0)
        grid = grid_from_packet(GaussianPacket(0.0, 3.0, 1.0), params,
                                -6.0, 6.0, 256)
        with pytest.raises(RuntimeError, match="domain too small"):
            schrodinger_grid_evolve(params, grid, ZeroForce(), 2.0, 1e-3)

    def test_absorber_suppresses_boundary_guard(self):
        params = SystemParams(1.0)
        grid = grid_from_packet(GaussianPacket(0.0, 3.0, 1.0), params,
                                -6.0, 6.0, 256)
        out = schrodinger_grid_evolve(params, grid, ZeroForce(), 2.0, 1e-3,
                                      absorber_points=32)
        assert out.norm() < 1.0  # absorbed probability left the box


class TestLangevinOracle:
    def test_undamped_matches_sinh(self):
        params = SystemParams(1.0)

        class _Bath:
            gamma = 0.0
            omega_d = 10.0

        ts, xs = langevin_ode_oracle(params, _Bath(), 2.0, 1e-4)
        assert xs[-1] == pytest.approx(math.sinh(2.0), abs=1e-8)

    def test_auxiliary_variable_reproduces_convolution(self):
        # for a prescribed velocity cos(t), the auxiliary memory variable
        # must equal the exponential-kernel convolution analytically
        gamma, wd, t_end = 0.7, 3.0, 2.0

        def f(t, y):
            return np.array([-wd * y[0] + gamma * wd * math.cos(t)])

        _, ys = rk4_path(f, [0.0], t_end, 1e-4)
        analytic = gamma * wd * (wd * math.cos(t_end) + math.sin(t_end)
                                 - wd * math.exp(-wd * t_end)) / (1 + wd * wd)
        assert ys[-1, 0] == pytest.approx(analytic, abs=1e-10)

    def test_overflow_guard(self):
        params = SystemParams(3.0)

        class _Bath:
            gamma = 0.1
            omega_d = 5.0

        with pytest.raises(RuntimeError, match="dt"):
            langevin_ode_oracle(params, _Bath(), 200.0, 0.01)
