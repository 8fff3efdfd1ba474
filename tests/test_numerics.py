import dataclasses
import math
import sys

import numpy as np
import pytest

from conftest import rk4_path
from invosc import (BathParams, GaussianPacket, HarmonicForce, QuadratureError,
                    SystemParams, TabulatedForce, ZeroForce, bessel_k_quarter, expm,
                    expm_gramian, grid_from_packet, integrate_adaptive, integrate_exp_sinh,
                    integrate_fourier, integrate_trapezoid, langevin_ode_oracle,
                    scaled_bessel_k_quarter, schrodinger_grid_evolve, solve_cubic)
from invosc import numerics


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

    def test_each_row_matches_a_one_row_call(self):
        # rows that need from few doublings to many: a smooth one, a
        # square-root end on either side of 0, an oscillation and a
        # square-root end at both ends, real and complex; f is analytic
        # inside each row
        lo = np.array([0.0, -1.0, 0.0, 0.5, 0.0])
        hi = np.array([1.0, 0.0, 3.0, 40.0, 2.0])
        for f in (lambda x: np.sqrt(np.abs(x)) * np.cos(3.0 * x),
                  lambda x: np.sqrt(np.abs(x)) * np.exp(3j * x)):
            res = integrate_adaptive(f, lo, hi, abs_tol=1e-13, rel_tol=1e-12)
            evaluations = 0
            for i in range(len(lo)):
                one = integrate_adaptive(f, lo[i], hi[i], abs_tol=1e-13, rel_tol=1e-12)
                assert one.value == res.value[i]
                assert one.error_estimate == res.error_estimate[i]
                evaluations += one.evaluations
            assert res.evaluations == evaluations

    def test_rows_broadcast_and_a_scalar_call_gives_scalars(self):
        res = integrate_adaptive(np.exp, 0.0, [1.0, 2.0])
        assert res.value.shape == res.error_estimate.shape == (2,)
        np.testing.assert_allclose(res.value, np.expm1([1.0, 2.0]), rtol=1e-14)
        one = integrate_adaptive(np.exp, 0.0, 1.0)
        assert type(one.value) is float and type(one.error_estimate) is float

    def test_a_row_open_at_the_cap_fails_and_the_others_converge(self):
        # a jump inside [0, 1] keeps that row's change near 1e-4 up to the
        # cap of the trapezoid rule; the smooth row [1, 3] still converges,
        # and the error carries both, the failed one over its tolerance
        def f(x):
            return np.where(x < 1.0, np.where(x < 1.0 / math.pi, 0.0, 1.0), np.exp(-x))

        with pytest.raises(QuadratureError, match=r"did not converge .* on \[0.0, 1.0\]") as err:
            integrate_adaptive(f, [0.0, 1.0], [1.0, 3.0], abs_tol=1e-14, rel_tol=1e-13)
        best = err.value.best
        assert best.value[0] == pytest.approx(1.0 - 1.0 / math.pi, rel=1e-3)
        assert best.value[1] == pytest.approx(math.exp(-1.0) - math.exp(-3.0), rel=1e-13)
        tolerance = np.maximum(1e-14, 1e-13 * np.abs(best.value))
        assert list(best.error_estimate > tolerance) == [True, False]
        assert numerics._TRAPEZOID_MAX < best.evaluations < 2 * numerics._TRAPEZOID_MAX

    def test_a_scalar_call_that_fails_carries_scalars(self):
        with pytest.raises(QuadratureError) as err:
            integrate_adaptive(lambda x: np.where(x < 1.0 / math.pi, 0.0, 1.0), 0.0, 1.0,
                               abs_tol=0.0, rel_tol=1e-13)
        assert type(err.value.best.value) is float
        assert err.value.best.value == pytest.approx(1.0 - 1.0 / math.pi, rel=1e-3)


class TestTrapezoid:
    def test_periodic_rows_to_rounding(self):
        # int_0^pi e^(a cos z) dz = pi I_0(a), one row per a
        mp = pytest.importorskip("mpmath")
        a = np.array([0.1, 1.0, 5.0, 20.0, 80.0])
        res = integrate_trapezoid(lambda z, a: np.exp(a * np.cos(z)),
                                  0.0, math.pi, 1e-14, a)
        with mp.workdps(40):
            ref = [float(mp.pi * mp.besseli(0, mp.mpf(x))) for x in a]
        np.testing.assert_allclose(res.value, ref, rtol=2e-15, atol=0.0)
        assert np.all(res.error_estimate <= 1e-14 * res.value)

    def test_each_row_matches_a_one_row_call(self):
        # exp(-rate sin^2 x) over a period of pi from various starts
        rates = np.array([0.5, 3.0, 40.0, 600.0])
        lo = np.array([0.0, -1.0, 0.25, 2.0])
        hi = lo + math.pi
        tols = np.array([1e-14, 1e-10, 1e-14, 1e-12])
        def f(x, rate):
            return np.exp(-rate * np.sin(x) ** 2)

        res = integrate_trapezoid(f, lo, hi, tols, rates)
        for i in range(len(rates)):
            one = integrate_trapezoid(f, lo[i], hi[i], tols[i], rates[i])
            assert one.value[0] == res.value[i]
            assert one.error_estimate[0] == res.error_estimate[i]

    def test_absolute_floor(self):
        # with no relative tolerance a row stops once its change is at most
        # abs_tol: e^(-x^2) is negligible at both ends of [-6, 6]
        def f(x):
            return np.exp(-x * x)

        loose = integrate_trapezoid(f, -6.0, 6.0, 0.0, abs_tol=1e-3)
        tight = integrate_trapezoid(f, -6.0, 6.0, 0.0, abs_tol=1e-14)
        assert loose.error_estimate[0] <= 1e-3 and tight.error_estimate[0] <= 1e-14
        assert loose.evaluations < tight.evaluations
        assert tight.value[0] == pytest.approx(math.sqrt(math.pi), abs=1e-14)

    def test_no_row_stops_below_the_minimum(self):
        # successive sums of a constant agree from the first doubling on
        res = integrate_trapezoid(lambda x: np.ones_like(x), 0.0, 2.0, 1e-14)
        assert res.value[0] == 2.0
        assert res.evaluations == numerics._TRAPEZOID_MIN + 1

    def test_non_finite_row_closes(self):
        # a NaN sum stays NaN: that row is returned as it is, not run to the cap
        def f(x, bad):
            return np.where(bad, np.nan, np.cos(x) ** 2)

        res = integrate_trapezoid(f, 0.0, math.pi, 1e-14, [0.0, 1.0])
        assert res.value[0] == pytest.approx(0.5 * math.pi, rel=1e-14)
        assert math.isnan(res.value[1])
        assert res.evaluations < 100

    def test_node_cap_carries_best_estimate(self):
        # sqrt(x) is not analytic at 0: the error falls only like n^-1.5
        with pytest.raises(QuadratureError) as err:
            integrate_trapezoid(np.sqrt, [0.0, 0.0], [1.0, 4.0], 1e-15)
        best = err.value.best
        assert best.evaluations == 2 * (numerics._TRAPEZOID_MAX + 1)
        np.testing.assert_allclose(best.value, [2.0 / 3.0, 16.0 / 3.0], rtol=1e-6)


class TestIntegrandContract:
    def test_one_array_call_per_doubling(self):
        # two mirror-image rows, each with a square-root end at 0: the first
        # call holds both ends of each row, each later one the midpoints of
        # one doubling in every row still open, row after row
        calls = []

        def f(x):
            calls.append(x)
            return np.sqrt(np.abs(x))

        res = integrate_adaptive(f, [0.0, -1.0], [1.0, 0.0], abs_tol=1e-12, rel_tol=1e-12)
        for x in calls:
            assert isinstance(x, np.ndarray)
            assert x.ndim == 1 and x.dtype == np.float64
        first, *later = calls
        assert len(first) == 2 * 2
        assert later
        for k, x in enumerate(later):
            assert len(x) == 2 * 2**k   # both rows close on the same doubling
            assert np.all(x[:2**k] >= 0.0) and np.all(x[2**k:] <= 0.0)
        assert res.evaluations == sum(len(x) for x in calls)
        np.testing.assert_allclose(res.value, 2.0 / 3.0, rtol=0.0, atol=1e-12)

    def test_integrand_must_return_one_value_per_node(self):
        with pytest.raises(ValueError, match="shape"):
            integrate_adaptive(lambda x: 1.0, 0.0, 1.0)


class TestHalfLineRules:
    def test_exp_sinh_exponential(self):
        # int_a^inf e^-x dx = e^-a, one row per a
        lo = np.array([0.0, 1.0, 5.0])
        res = integrate_exp_sinh(lambda x: np.exp(-x), lo, 1.0, 1e-15)
        np.testing.assert_allclose(res.value, np.exp(-lo), rtol=1e-14, atol=0.0)

    def test_exp_sinh_lorentzian(self):
        # a tail that falls only like 1/x^2
        res = integrate_exp_sinh(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, 1e-15)
        assert res.value[0] == pytest.approx(math.pi / 2.0, abs=1e-14)

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_fourier_cosine_of_a_lorentzian(self, tau):
        # int_0^inf cos(w tau) / (1 + w^2) dw = (pi / 2) e^-tau
        res = integrate_fourier(lambda w: 1.0 / (1.0 + w * w) + 0j, 0.0, tau, 1e-15)
        assert res.value[0] == pytest.approx(0.5 * math.pi * math.exp(-tau), abs=1e-14)

    def test_fourier_sine_integral(self):
        # int_0^inf sin(w) / w dw = pi / 2: Re(-i e^(iw) / w) = sin(w) / w falls
        # only like 1/w, and the rule needs no cut-off for it
        res = integrate_fourier(lambda w: -1j / w, 0.0, 1.0, 1e-14)
        assert res.value[0] == pytest.approx(0.5 * math.pi, abs=1e-13)

    def test_fourier_rows_from_a_lower_limit(self):
        # int_a^inf e^-w cos(tau w) dw = Re(e^((i tau - 1) a) / (1 - i tau)),
        # one row per (a, tau) and a parameter column per row
        lo, tau = np.array([0.0, 2.0, 7.5]), np.array([3.0, 0.5, 40.0])

        def f(w, rate):
            return np.exp(-rate * w) + 0j

        res = integrate_fourier(f, lo, tau, 1e-15, 1.0)
        exact = (np.exp((1j * tau - 1.0) * lo) / (1.0 - 1j * tau)).real
        np.testing.assert_allclose(res.value, exact, rtol=0.0, atol=1e-14)
        for i in range(len(lo)):
            one = integrate_fourier(f, lo[i], tau[i], 1e-15, 1.0)
            assert one.value[0] == res.value[i]

    def test_fourier_step_cap_carries_best_estimate(self):
        # noise of 1e-9 moves every sum by about that much, far above 1e-15
        def noisy(w):
            return np.exp(-w) * (1.0 + 1e-9 * np.modf(np.sin(12989.8 * w) * 43758.5453)[0])

        with pytest.raises(QuadratureError, match="Fourier") as err:
            integrate_fourier(lambda w: noisy(w) + 0j, 0.0, 1.0, 1e-15)
        assert err.value.best.value[0] == pytest.approx(0.5, rel=1e-8)

    @pytest.mark.parametrize("t", [0.05, 0.5])
    def test_cosine_transform_recovers_memory_kernel(self, t):
        # (2/pi) int J(w)/w cos(wt) dw reproduces gamma wd exp(-wd t)
        gamma, wd = 0.8, 2.0

        def f(w):
            return 1.0 / (1.0 + (w / wd) ** 2) + 0j

        res = integrate_fourier(f, 0.0, t, 5e-9)
        val = 2.0 / math.pi * gamma * res.value[0]
        assert val == pytest.approx(gamma * wd * math.exp(-wd * t), abs=1e-6)


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


def _stable_stack(rng, shape, largest):
    """Matrices with eigenvalues in the left half plane, so that e^A stays
    bounded, and 1-norms spread evenly in log from 1e-3 to ``largest``."""
    x = rng.normal(size=shape)
    a = x - np.swapaxes(x, -1, -2) - 3.0 * np.eye(shape[-1])
    scales = np.geomspace(1e-3, largest, int(np.prod(shape[:-2]))).reshape(shape[:-2])
    return a * (scales / np.abs(a).sum(axis=-2).max(axis=-1))[..., None, None]


class TestExpm:
    def test_zero_is_identity(self):
        np.testing.assert_array_equal(expm(np.zeros((4, 4))), np.eye(4))

    def test_closed_forms(self):
        # a rotation generator, a hyperbolic one, and a nilpotent block
        for t in (1e-9, 0.3, 2.0, 40.0):
            rot = expm(np.array([[0.0, -t], [t, 0.0]]))
            np.testing.assert_allclose(rot, [[math.cos(t), -math.sin(t)],
                                             [math.sin(t), math.cos(t)]],
                                       rtol=0.0, atol=1e-13 * max(1.0, t))
            hyp = expm(np.array([[0.0, t], [t, 0.0]]))
            np.testing.assert_allclose(hyp, [[math.cosh(t), math.sinh(t)],
                                             [math.sinh(t), math.cosh(t)]],
                                       rtol=1e-13 * max(1.0, t))
            nil = expm(np.array([[0.0, t, 0.0], [0.0, 0.0, t], [0.0, 0.0, 0.0]]))
            np.testing.assert_allclose(nil, [[1.0, t, t * t / 2], [0.0, 1.0, t],
                                             [0.0, 0.0, 1.0]], rtol=1e-15)

    def test_stack_matches_single_calls(self):
        # norms from 1e-3 to 1e12: 0 to 40 squarings, each matrix only its own
        rng = np.random.default_rng(5)
        scales = np.array([1e-3, 1.0, 30.0])[:, None, None]
        stack = np.concatenate([rng.normal(size=(2, 3, 5, 5)) * scales,
                                _stable_stack(rng, (2, 3, 5, 5), 1e12)])
        out = expm(stack)
        assert out.shape == stack.shape
        for i in np.ndindex(stack.shape[:2]):
            np.testing.assert_array_equal(out[i], expm(stack[i]))
        # a stack longer than one chunk of _taylor
        long = _stable_stack(rng, (1500, 3, 3), 1e12)
        np.testing.assert_array_equal(expm(long), [expm(x) for x in long])

    def test_matrix_larger_than_a_chunk(self):
        # 90 x 90 is more than _taylor's chunk of 6,272 entries: one matrix
        # to a chunk
        v = np.linspace(-3.0, 3.0, 90)
        np.testing.assert_allclose(expm(np.diag(v)), np.diag(np.exp(v)),
                                   rtol=1e-13, atol=0.0)

    def test_mpmath_oracle(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(9)
        with mp.workdps(40):
            for size in (2, 3, 5, 6):
                for scale in (1e-6, 0.5, 4.0, 30.0):
                    a = rng.normal(size=(size, size)) * scale
                    ref = mp.expm(mp.matrix(a.tolist()))
                    ref = np.array([[float(ref[i, j]) for j in range(size)]
                                    for i in range(size)])
                    np.testing.assert_allclose(expm(a), ref, rtol=0.0,
                                               atol=1e-14 * np.abs(ref).max())


class TestExpmGramian:
    def test_zero_generator(self):
        b = np.array([[2.0, 0.5], [0.5, 3.0]])
        e, p = expm_gramian(np.zeros((2, 2)), b)
        np.testing.assert_array_equal(e, np.eye(2))
        np.testing.assert_array_equal(p, b)

    @pytest.mark.parametrize("nu", [1e-9, 1.7, 1e3, 1e9, 1e15])
    def test_stiff_closed_forms(self, nu):
        # x' = -mu x + f, f' = -nu f + sqrt(2 nu) xi: e^A has e^-mu, e^-nu on
        # the diagonal and (e^-mu - e^-nu) / (nu - mu) above it, P_ff is
        # 1 - e^(-2 nu), and P_xx is written for nu >= 1, where its terms do
        # not cancel.  Squaring e^(Ah) itself would lose about one bit of
        # the x entries per doubling, 2^-s of them for s doublings.
        mu = 0.3
        e, p = expm_gramian(np.array([[-mu, 1.0], [0.0, -nu]]),
                            np.array([[0.0, 0.0], [0.0, 2.0 * nu]]))
        assert e[0, 0] == pytest.approx(math.exp(-mu), rel=1e-14)
        assert e[0, 1] == pytest.approx((math.exp(-mu) - math.exp(-nu)) / (nu - mu),
                                        rel=1e-14)
        assert e[1, 1] == pytest.approx(math.exp(-nu), rel=1e-14)
        assert p[1, 1] == pytest.approx(-math.expm1(-2.0 * nu), rel=1e-14)
        if nu >= 1.0:
            p_xx = 2.0 * nu / (nu - mu) ** 2 * (
                -math.expm1(-2.0 * mu) / (2.0 * mu)
                + 2.0 * math.expm1(-(mu + nu)) / (mu + nu)
                - math.expm1(-2.0 * nu) / (2.0 * nu))
            assert p[0, 0] == pytest.approx(p_xx, rel=1e-13)

    def test_stack_matches_single_calls(self):
        # norms from 1e-3 to 1e12 over more than one chunk of _taylor's
        # 32 Van Loan blocks of 14 x 14
        rng = np.random.default_rng(7)
        scales = np.array([1e-3, 1.0, 30.0])[:, None, None]
        a = np.concatenate([rng.normal(size=(3, 7, 7)) * scales,
                            _stable_stack(rng, (150, 7, 7), 1e12)])
        c = rng.normal(size=a.shape)
        b = c @ np.swapaxes(c, -1, -2)
        e, p = expm_gramian(a, b)
        for i in range(len(a)):
            e_i, p_i = expm_gramian(a[i], b[i])
            np.testing.assert_array_equal(e[i], e_i)
            np.testing.assert_array_equal(p[i], p_i)

    def test_matrix_larger_than_a_chunk(self):
        # a Van Loan block of 90 x 90: P = diag((e^(2v) - 1) / 2v) for A =
        # diag(v) and B = I
        v = np.linspace(-3.0, 3.0, 45) + 0.01
        e, p = expm_gramian(np.diag(v), np.eye(45))
        np.testing.assert_allclose(e, np.diag(np.exp(v)), rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(p, np.diag(np.expm1(2.0 * v) / (2.0 * v)),
                                   rtol=1e-13, atol=0.0)

    def test_mpmath_van_loan(self):
        # the Van Loan block at t = 1 in enough digits that its -A block,
        # which grows like e^||A||, cancels exactly
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        for size in (2, 4):
            for scale in (1e-3, 0.7, 6.0):
                a = rng.normal(size=(size, size)) * scale
                c = rng.normal(size=(size, size))
                b = c @ c.T
                with mp.workdps(60 + int(np.abs(a).sum(axis=0).max())):
                    block = mp.zeros(2 * size, 2 * size)
                    for i in range(size):
                        for j in range(size):
                            block[i, j] = -a[i, j]
                            block[i, j + size] = b[i, j]
                            block[i + size, j + size] = a[j, i]
                    full = mp.expm(block)
                    f3 = full[size:, size:]
                    ref_p = f3.T * full[:size, size:]
                    ref_e = np.array(f3.T.tolist(), dtype=float)
                    ref_p = np.array(ref_p.tolist(), dtype=float)
                e, p = expm_gramian(a, b)
                np.testing.assert_allclose(e, ref_e, rtol=0.0,
                                           atol=1e-14 * np.abs(ref_e).max())
                np.testing.assert_allclose(p, ref_p, rtol=0.0,
                                           atol=1e-14 * np.abs(ref_p).max())


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

    def test_scaled_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        zs = np.array([*np.logspace(-300.0, 15.0, 127), 600.0])
        with mp.workdps(40):
            ref = [float(mp.exp(mp.mpf(z)) * mp.besselk(0.25, mp.mpf(z))) for z in zs]
        np.testing.assert_allclose(scaled_bessel_k_quarter(zs), ref, rtol=3e-15,
                                   atol=0.0)

    def test_array_matches_scalar_calls(self):
        zs = np.logspace(-300.0, 15.0, 40).reshape(5, 8)
        scaled = scaled_bessel_k_quarter(zs)
        plain = bessel_k_quarter(zs)
        assert scaled.shape == plain.shape == (5, 8)
        for i in np.ndindex(zs.shape):
            assert scaled[i] == scaled_bessel_k_quarter(float(zs[i]))
            assert plain[i] == bessel_k_quarter(float(zs[i]))
        assert type(scaled_bessel_k_quarter(2.0)) is float
        assert type(bessel_k_quarter(2.0)) is float
        with pytest.raises(ValueError):
            scaled_bessel_k_quarter(np.array([1.0, 0.0]))

    def test_no_adaptive_quadrature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_adaptive called")

        monkeypatch.setattr(numerics, "integrate_adaptive", forbidden)
        assert np.all(scaled_bessel_k_quarter(np.logspace(-300.0, 15.0, 9)) > 0.0)


class TestGridSolver:
    def test_initial_norm(self):
        grid = grid_from_packet(GaussianPacket(0.0, 0.0, 1.0), SystemParams(1.0),
                                -20.0, 20.0, 512)
        norm = np.sum(np.abs(grid.psi) ** 2) * grid.dx
        assert norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 8, 4096, 8192])
    @pytest.mark.parametrize("k", [1e-3, 1e3])
    def test_plane_wave_matches_direct_exp(self, n, k):
        # within a few ulp of the largest phase on the grid
        x_min = -41.3
        dx = (39.9 - x_min) / n
        x = x_min + dx * np.arange(n)
        ulp = np.finfo(float).eps * max(1.0, np.max(np.abs(k * x)))
        err = np.abs(numerics.plane_wave(k, x_min, dx, n) - np.exp(1j * k * x))
        assert np.max(err) <= 4.0 * ulp

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            grid_from_packet(GaussianPacket(0.0, 0.0, 1.0), SystemParams(1.0),
                             -20.0, 20.0, 1000)

    def test_free_particle_exact(self):
        # at omega = 1e-9, |V| < 1e-15 on the box: the steps are kinetic
        # only and reproduce analytic free spreading to roundoff
        params = SystemParams(1e-9, hbar=1.0)
        packet = GaussianPacket(0.0, 0.5, 1.0)
        grid = grid_from_packet(packet, params, -40.0, 40.0, 1024)
        out = schrodinger_grid_evolve(params, grid, ZeroForce(), 1.0, 0.25)
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

    def test_shared_phases_change_no_bit(self):
        # a dict shared by two runs on one grid hands the second run the
        # first one's drift and barrier phases, and the second run is
        # bit for bit the run without it
        params = SystemParams(1.0)
        force = HarmonicForce(0.5, 2.0)
        grid = grid_from_packet(GaussianPacket(0.5, 0.3, 1.0), params, -20.0, 20.0, 512)
        phases = {}
        first = schrodinger_grid_evolve(params, grid, force, 0.5, 0.125, phases)
        built = len(phases)
        shared = schrodinger_grid_evolve(params, first, force, 1.0, 0.125, phases)
        assert built == 4 and len(phases) == built
        alone = schrodinger_grid_evolve(params, first, force, 1.0, 0.125)
        assert np.array_equal(shared.psi, alone.psi)

    def test_norm_conserved_without_absorber(self):
        params = SystemParams(1.0)
        grid = grid_from_packet(GaussianPacket(0.0, 0.0, 1.0), params,
                                -40.0, 40.0, 2048)
        out = schrodinger_grid_evolve(params, grid, ZeroForce(), 1.0, 1e-3)
        norm = np.sum(np.abs(out.psi) ** 2) * out.dx
        assert norm == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("omega,hbar", [(1.0, 1.0), (1.7, 0.6), (0.6, 2.5)])
    @pytest.mark.parametrize("force", [
        HarmonicForce(0.5, 2.0),
        # kinks at t = 0.5 and at the support start t = 0: a global force
        # sample at kick times outside a step would cut the ratio to ~4
        TabulatedForce((0.0, 0.5, 1.5), (0.0, 0.4, 0.0))], ids=["harmonic", "tabulated"])
    def test_fourth_order_in_dt(self, force, omega, hbar):
        # away from omega = hbar = 1 a wrong omega^4 term in the gradient
        # kick, or an hbar in it, would leave a third-order error
        from invosc import evaluate, evolve_gaussian
        params = SystemParams(omega, hbar=hbar)
        packet = GaussianPacket(0.0, 0.5, 1.0)
        ev = evolve_gaussian(params, packet, force, 1.0)

        def deviation(dt):
            grid = grid_from_packet(packet, params, -40.0, 40.0, 2048)
            out = schrodinger_grid_evolve(params, grid, force, 1.0, dt)
            ref = evaluate(ev, params, packet, out.x())
            return np.sqrt(np.sum(np.abs(out.psi - ref) ** 2)
                           / np.sum(np.abs(ref) ** 2))

        ratio = deviation(0.05) / deviation(0.025)
        assert 12.0 < ratio < 20.0

    def test_equal_steps_no_longer_than_dt(self):
        # dt = 0.3 cuts [0, 1] into four equal steps, as dt = 0.25 does
        params = SystemParams(1.0)
        grid = grid_from_packet(GaussianPacket(0.0, 0.5, 1.0), params,
                                -40.0, 40.0, 1024)
        force = HarmonicForce(0.5, 2.0)
        coarse = schrodinger_grid_evolve(params, grid, force, 1.0, 0.3)
        exact = schrodinger_grid_evolve(params, grid, force, 1.0, 0.25)
        np.testing.assert_array_equal(coarse.psi, exact.psi)

    def test_input_state_unchanged(self):
        # the steps run in place through buffers of their own
        params = SystemParams(1.0)
        grid = grid_from_packet(GaussianPacket(0.0, 0.5, 1.0), params,
                                -40.0, 40.0, 1024)
        before = grid.psi.copy()
        out = schrodinger_grid_evolve(params, grid, HarmonicForce(0.5, 2.0), 1.0, 0.1)
        np.testing.assert_array_equal(grid.psi, before)
        assert not np.shares_memory(out.psi, grid.psi)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_bad_step(self, dt):
        params = SystemParams(1.0)
        grid = grid_from_packet(GaussianPacket(0.0, 0.0, 1.0), params,
                                -20.0, 20.0, 256)
        with pytest.raises(ValueError, match="dt"):
            schrodinger_grid_evolve(params, grid, ZeroForce(), 1.0, dt)

    @pytest.mark.parametrize("p0,box,n,axis", [
        (3.0, 6.0, 256, "x"),    # the packet runs into the box's edge
        (0.0, 40.0, 64, "k")])   # |k| > 2.2 holds 1e-5 of sd_k = 1/2
    def test_boundary_guard_raises(self, p0, box, n, axis):
        # the x band is named first; a packet cut at the box's edge also
        # leaks into the k band; the message names the grid
        params = SystemParams(1.0)
        grid = grid_from_packet(GaussianPacket(0.0, p0, 1.0), params, -box, box, n)
        with pytest.raises(RuntimeError, match="domain too small") as info:
            schrodinger_grid_evolve(params, grid, ZeroForce(), 2.0, 1e-3)
        assert f"reached the grid boundary in {axis}" in str(info.value)
        assert str(info.value).endswith(f"of [{-box!r}, {box!r}) at n = {n})")

    @pytest.mark.parametrize("edge", [1e-300, 1e200])
    def test_boundary_guard_trips_on_an_overflowing_grid(self, edge):
        # a spacing of 5e-304 puts the grid's k^2 past the float range, one
        # of 5e196 its x^2: the wavefunction is NaN after the first step, in
        # both guard bands; verify steps under this errstate, so no warning
        params = SystemParams(1.0)
        grid = grid_from_packet(GaussianPacket(0.0, 0.0, 1.0), params, -edge, edge, 4096)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(RuntimeError) as info:
            schrodinger_grid_evolve(params, grid, ZeroForce(), 0.5, 1e-2)
        assert "probability nan reached the grid boundary in x and k" in str(info.value)

    def test_packet_narrower_than_a_grid_cell(self):
        # sigma^2 is normal, but on a grid of spacing 80/4096 the samples of
        # a packet between two grid points all underflow
        with pytest.raises(ValueError, match="every sample of the packet is 0"):
            grid_from_packet(GaussianPacket(0.01, 0.0, 1e-5), SystemParams(1.0),
                             -40.0, 40.0, 4096)

    @pytest.mark.parametrize("t_final,half_width,n", [(1.5, 27.444, 512), (1e-3, 10.629, 64)])
    def test_derived_grid_at_the_defaults(self, t_final, half_width, n):
        # verify's defaults give [-27.4, 27.4] at 512 points; a packet that
        # barely moves gets the least grid, 2^6 points
        x_min, x_max, points = numerics.size_grid(
            SystemParams(1.0), GaussianPacket(0.0, 0.0, 1.0), ZeroForce(), t_final)
        assert -x_min == x_max == pytest.approx(half_width, abs=1e-3)
        assert points == n

    @pytest.mark.parametrize("force", [HarmonicForce(0.5, 2.0),
                                       TabulatedForce((0.0, 0.5, 1.5), (0.0, 0.4, 0.0))])
    def test_derived_grid_at_vanishing_omega(self, force):
        # the force terms tend to sup|F| T^2/2 and sup|F| T, with no 0/0
        small, tiny = (numerics.size_grid(SystemParams(omega), GaussianPacket(0.3, 0.5, 1.0),
                                          force, 1.5) for omega in (1e-9, 1e-300))
        assert small == pytest.approx(tiny, rel=1e-12)

    def test_boundary_guard_trips_on_nan(self):
        # one NaN sample spreads over the grid in the first step's FFT; the
        # edge probability is then NaN, which is no number below 1e-6
        params = SystemParams(1.0)
        grid = grid_from_packet(GaussianPacket(0.0, 0.0, 1.0), params,
                                -20.0, 20.0, 256)
        psi = grid.psi.copy()
        psi[128] = math.nan
        with pytest.raises(RuntimeError, match="probability nan reached the grid boundary"):
            schrodinger_grid_evolve(params, dataclasses.replace(grid, psi=psi),
                                    ZeroForce(), 1.0, 0.1)


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

    @pytest.mark.parametrize("bath,t_final,dt", [
        (BathParams(gamma=0.5, omega_d=10.0), 5.0, 5e-4),
        (BathParams(gamma=5.0, omega_d=2.0), 5.0, 5e-4),
        # n + 1 = 1001 is no multiple of the block size 32
        (BathParams(gamma=0.5, omega_d=10.0), 1.0, 1e-3)])
    def test_block_powers_match_the_step_loop(self, bath, t_final, dt):
        params = SystemParams(1.0)
        ts, xs = langevin_ode_oracle(params, bath, t_final, dt)
        _, ref_xs = _rk4_loop(params, bath, t_final, dt)
        assert ts.tolist() == [i * dt for i in range(len(ref_xs))]
        assert np.max(np.abs(xs - ref_xs)) <= 1e-12 * np.max(np.abs(ref_xs))

    def test_no_python_call_per_step(self):
        # the verify default: 10,000 steps of 5e-4 to omega t = 5
        calls = []

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                calls.append(event)

        sys.setprofile(profile)
        try:
            ts, _ = langevin_ode_oracle(SystemParams(1.0),
                                        BathParams(gamma=0.5, omega_d=10.0), 5.0, 5e-4)
        finally:
            sys.setprofile(None)
        assert len(ts) == 10_001
        assert len(calls) < 1_000


def _rk4_loop(params, bath, t_final, dt):
    """The RK4 oracle as one scalar Python step per dt."""
    om2 = params.omega**2
    gd = bath.gamma * bath.omega_d
    wd = bath.omega_d

    def deriv(x, v, w):
        return v, om2 * x - w, -wd * w + gd * v

    n = int(round(t_final / dt))
    ts = np.empty(n + 1)
    xs = np.empty(n + 1)
    x, v, w = 0.0, 1.0, 0.0
    ts[0], xs[0] = 0.0, 0.0
    for i in range(1, n + 1):
        k1 = deriv(x, v, w)
        k2 = deriv(x + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1], w + 0.5 * dt * k1[2])
        k3 = deriv(x + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1], w + 0.5 * dt * k2[2])
        k4 = deriv(x + dt * k3[0], v + dt * k3[1], w + dt * k3[2])
        x += dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v += dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        w += dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        ts[i] = i * dt
        xs[i] = x
    return ts, xs
