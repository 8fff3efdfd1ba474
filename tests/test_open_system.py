import dataclasses
import math

import numpy as np
import pytest

from invosc import (CLASSICAL, OCCUPATION, SYMMETRIZED, BathParams,
                    ConstantForce, DegeneratePolesError, GaussianPacket,
                    HarmonicForce, InitialMoments, RootClass, SystemParams,
                    ZeroForce, bath_spectral_density,
                    characteristic_coefficients, discriminant_boundary,
                    displacement_variance, drude_kernel, general_variance,
                    green_derivative, green_function, harmonic_response,
                    integrate_adaptive, integrate_halfline,
                    langevin_ode_oracle, mean_trajectory, noise_spectrum,
                    solve_cubic, solve_poles, symmetrized_correlation,
                    windowed_transform)

PARAMS = SystemParams(1.0)
BATH = BathParams(gamma=0.5, omega_d=10.0, kT=1.0)

# frozen from the partial-fraction inversion, validated against the
# quadrature convolution ahead of the build
HARMONIC_RESPONSE_FIXTURE = 0.026265104883926603


class TestKernelAndSpectrum:
    def test_kernel_at_origin(self):
        assert drude_kernel(BATH, 0.0) == BATH.gamma * BATH.omega_d

    def test_kernel_vanishes_without_damping(self):
        bath = BathParams(0.0, 2.0, 0.0)
        for t in (0.0, 0.7, 3.0):
            assert drude_kernel(bath, t) == 0.0

    def test_kernel_value(self):
        bath = BathParams(1.0, 2.0, 0.0)
        assert drude_kernel(bath, 0.5) == pytest.approx(2.0 * math.exp(-1.0),
                                                        abs=1e-15)

    def test_spectral_density_values(self):
        assert bath_spectral_density(BATH, 0.0) == 0.0
        assert bath_spectral_density(BATH, BATH.omega_d) == pytest.approx(
            BATH.gamma * BATH.omega_d / 2.0, abs=1e-15)

    @pytest.mark.parametrize("t_frac", [0.1, 1.0])
    def test_cosine_transform_consistency(self, t_frac):
        bath = BathParams(0.8, 2.0, 0.0)
        t = t_frac / bath.omega_d
        res = integrate_halfline(
            lambda w: np.where(w > 0, bath_spectral_density(bath, w)
                               / np.maximum(w, 1e-300) * np.cos(w * t),
                               bath.gamma), 5e-9)
        assert 2.0 / math.pi * res.value == pytest.approx(
            drude_kernel(bath, t), abs=1e-6)


class TestCharacteristicCubic:
    def test_undamped_coefficients_and_roots(self):
        coeffs = characteristic_coefficients(PARAMS, BathParams(0.0, 4.0, 0.0))
        assert coeffs.b == -1.0
        roots = solve_cubic(coeffs.a, coeffs.b, -coeffs.a)
        assert sorted(r.real for r in roots) == pytest.approx(
            [-4.0, -1.0, 1.0], abs=1e-12)

    def test_three_real_case_values(self):
        coeffs = characteristic_coefficients(PARAMS, BathParams(0.5, 10.0, 0.0))
        assert coeffs.a == pytest.approx(10.0)
        assert coeffs.b == pytest.approx(4.0)
        assert coeffs.q == pytest.approx(1000.0 / 27.0 - 40.0 / 6.0 - 5.0,
                                         rel=1e-14)
        assert coeffs.p == pytest.approx(-88.0 / 9.0, rel=1e-14)
        assert coeffs.D < 0.0

    def test_complex_pair_case_values(self):
        coeffs = characteristic_coefficients(PARAMS, BathParams(5.0, 2.0, 0.0))
        assert coeffs.a == pytest.approx(2.0)
        assert coeffs.b == pytest.approx(9.0)
        assert coeffs.q == pytest.approx(8.0 / 27.0 - 3.0 - 1.0, rel=1e-14)
        assert coeffs.p == pytest.approx(23.0 / 9.0, rel=1e-14)
        assert coeffs.D > 0.0


class TestSolvePoles:
    def test_three_real_exactly_one_unstable(self):
        dec = solve_poles(PARAMS, BathParams(0.5, 10.0, 0.0))
        assert dec.root_class is RootClass.THREE_REAL
        assert all(s.imag == 0.0 for s in dec.poles)
        assert sum(1 for s in dec.poles if s.real > 0.0) == 1

    def test_complex_conjugate_pair(self):
        dec = solve_poles(PARAMS, BathParams(5.0, 2.0, 0.0))
        assert dec.root_class is RootClass.ONE_REAL_TWO_COMPLEX
        cplx = [s for s in dec.poles if s.imag != 0.0]
        assert len(cplx) == 2
        assert cplx[0] == cplx[1].conjugate()
        res = dict(zip(dec.poles, dec.residues))
        assert res[cplx[0]] == res[cplx[1]].conjugate()

    def test_sum_rules(self):
        dec = solve_poles(PARAMS, BathParams(0.5, 10.0, 0.0))
        assert abs(sum(dec.residues)) < 1e-12
        assert abs(sum(r * s for r, s in zip(dec.residues, dec.poles)) - 1.0) \
            < 1e-12
        assert abs(sum(r * s * s for r, s in zip(dec.residues, dec.poles))) \
            < 1e-12

    def test_rejects_undamped_bath(self):
        with pytest.raises(ValueError, match="closed_system_green"):
            solve_poles(PARAMS, BathParams(0.0, 10.0, 0.0))

    def test_random_scan_residuals_classes_and_stability(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            params = SystemParams(float(rng.uniform(0.3, 3.0)))
            bath = BathParams(float(rng.uniform(0.05, 5.0)),
                              float(rng.uniform(0.5, 20.0)), 0.0)
            dec = solve_poles(params, bath)
            scale = max(params.omega, bath.omega_d) ** 3
            for s in dec.poles:
                res = ((s + bath.omega_d) * s
                       + (bath.gamma * bath.omega_d - params.omega**2)) * s \
                    - params.omega**2 * bath.omega_d
                assert abs(res) < 1e-10 * scale
            assert abs(sum(dec.residues)) < 1e-10
            assert abs(sum(r * s for r, s in zip(dec.residues, dec.poles))
                       - 1.0) < 1e-10
            assert sum(1 for s in dec.poles if s.real > 0.0) == 1
            expected = (RootClass.ONE_REAL_TWO_COMPLEX if dec.coefficients.D > 0
                        else RootClass.THREE_REAL)
            assert dec.root_class is expected

    def test_near_critical_damping_is_degenerate_or_close(self):
        a = 3.0
        b = discriminant_boundary(a)
        bath = BathParams(gamma=(b + 1.0) / a, omega_d=a, kT=0.0)
        try:
            dec = solve_poles(PARAMS, bath)
        except DegeneratePolesError:
            return
        sep = min(abs(dec.poles[i] - dec.poles[j])
                  for i in range(3) for j in range(i + 1, 3))
        assert sep < 1e-3 * max(abs(s) for s in dec.poles)

    def test_root_class_matches_discriminant_sign_on_grid(self):
        # 50x50 sweep of the scaled parameters (a, b); points that land on
        # the critical line itself may legitimately report degeneracy
        for a in np.linspace(0.1, 10.0, 50):
            for b in np.linspace(-0.9, 10.0, 50):
                bath = BathParams(gamma=float((b + 1.0) / a),
                                  omega_d=float(a), kT=0.0)
                try:
                    dec = solve_poles(PARAMS, bath)
                except DegeneratePolesError:
                    continue
                expected = (RootClass.ONE_REAL_TWO_COMPLEX
                            if dec.coefficients.D > 0
                            else RootClass.THREE_REAL)
                assert dec.root_class is expected


class TestGreenFunction:
    def test_initial_conditions(self):
        dec = solve_poles(PARAMS, BATH)
        assert abs(green_function(dec, 0.0)) < 1e-12
        assert green_derivative(dec, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_weak_damping_limit(self):
        dec = solve_poles(PARAMS, BathParams(1e-6, 10.0, 0.0))
        assert green_function(dec, 1.0) == pytest.approx(math.sinh(1.0),
                                                         abs=1e-4)
        assert green_derivative(dec, 1.0) == pytest.approx(math.cosh(1.0),
                                                           abs=1e-4)

    def test_derivative_matches_finite_difference(self):
        dec = solve_poles(PARAMS, BATH)
        h = 1e-6
        for t in (0.3, 1.0, 2.5):
            fd = (green_function(dec, t + h) - green_function(dec, t - h)) \
                / (2 * h)
            assert green_derivative(dec, t) == pytest.approx(fd, rel=1e-6)

    def test_matches_rk4_memory_kernel_oracle(self):
        bath = BathParams(0.5, 10.0, 0.0)
        dec = solve_poles(PARAMS, bath)
        ts, g_ode = langevin_ode_oracle(PARAMS, bath, 5.0, 5e-4)
        g_res = green_function(dec, ts)
        assert np.max(np.abs(g_res - g_ode)) / np.max(np.abs(g_res)) < 1e-6

    def test_accepts_time_arrays(self):
        dec = solve_poles(PARAMS, BATH)
        ts = np.linspace(0.0, 2.0, 9)
        vals = green_function(dec, ts)
        assert vals.shape == (9,)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)


class TestMeanTrajectory:
    def test_rest_stays_at_rest(self):
        dec = solve_poles(PARAMS, BATH)
        for t in (0.0, 0.8, 2.0):
            assert mean_trajectory(dec, 0.0, 0.0, ZeroForce(), t) == 0.0

    def test_homogeneous_pole_sum_identity(self):
        dec = solve_poles(PARAMS, BATH)
        x0m, p0m, t = 0.7, -0.4, 1.3
        direct = mean_trajectory(dec, x0m, p0m, ZeroForce(), t)
        pole_sum = sum((x0m * s + p0m) * r * np.exp(s * t)
                       for r, s in zip(dec.residues, dec.poles))
        assert direct == pytest.approx(float(pole_sum.real), abs=1e-10)

    def test_constant_force_convolution_closed_form(self):
        dec = solve_poles(PARAMS, BATH)
        f0, t = 0.6, 1.4
        closed = sum(r * f0 * (np.exp(s * t) - 1.0) / s
                     for r, s in zip(dec.residues, dec.poles))
        got = mean_trajectory(dec, 0.0, 0.0, ConstantForce(f0), t)
        assert got == pytest.approx(float(closed.real), abs=1e-9)

    def test_harmonic_route_matches_quadrature(self):
        dec = solve_poles(PARAMS, BATH)
        force = HarmonicForce(0.1, 0.2)
        t = 2.0
        quad = integrate_adaptive(
            lambda t1: green_function(dec, t - t1) * 0.1 * np.sin(0.2 * t1),
            0.0, t, abs_tol=1e-13, rel_tol=1e-12).value
        assert mean_trajectory(dec, 0.0, 0.0, force, t) == pytest.approx(
            quad, abs=1e-8)


class TestHarmonicResponse:
    def test_zero_at_start_and_without_drive(self):
        dec = solve_poles(PARAMS, BATH)
        assert harmonic_response(dec, 0.1, 0.2, 0.0) == 0.0
        assert harmonic_response(dec, 0.0, 0.2, 2.0) == 0.0

    def test_pinned_fixture(self):
        dec = solve_poles(PARAMS, BATH)
        assert harmonic_response(dec, 0.1, 0.2, 2.0) == pytest.approx(
            HARMONIC_RESPONSE_FIXTURE, abs=1e-12)

    def test_matches_convolution_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            params = SystemParams(float(rng.uniform(0.5, 2.0)))
            bath = BathParams(float(rng.uniform(0.1, 3.0)),
                              float(rng.uniform(2.0, 15.0)), 0.0)
            dec = solve_poles(params, bath)
            amp = float(rng.uniform(-1.0, 1.0))
            w0 = float(rng.uniform(0.1, 3.0))
            t = float(rng.uniform(0.5, 3.0))
            quad = integrate_adaptive(
                lambda t1: green_function(dec, t - t1) * amp
                * np.sin(w0 * t1), 0.0, t,
                abs_tol=1e-13, rel_tol=1e-12).value
            assert harmonic_response(dec, amp, w0, t) == pytest.approx(
                quad, abs=1e-8)


class TestNoiseSpectrum:
    def test_zero_temperature_occupation(self):
        bath = BathParams(0.5, 10.0, 0.0)
        for w in (0.0, 0.3, 5.0):
            assert noise_spectrum(bath, PARAMS, w) == 0.0

    def test_zero_temperature_symmetrized_keeps_zero_point(self):
        bath = BathParams(0.5, 10.0, 0.0)
        w = 2.0
        expected = PARAMS.hbar * bath_spectral_density(bath, w) / (2 * math.pi)
        assert noise_spectrum(bath, PARAMS, w, SYMMETRIZED) == pytest.approx(
            expected, rel=1e-14)

    def test_classical_value_at_cutoff(self):
        assert noise_spectrum(BATH, PARAMS, BATH.omega_d, CLASSICAL) == \
            pytest.approx(BATH.kT * BATH.gamma / (2 * math.pi), rel=1e-14)

    def test_small_hbar_approaches_classical(self):
        params = SystemParams(1.0, hbar=1e-4)
        q = noise_spectrum(BATH, params, 1.0, OCCUPATION)
        c = noise_spectrum(BATH, params, 1.0, CLASSICAL)
        assert q == pytest.approx(c, rel=1e-3)

    def test_zero_frequency_limit(self):
        assert noise_spectrum(BATH, PARAMS, 0.0) == pytest.approx(
            BATH.gamma * BATH.kT / math.pi, rel=1e-14)
        assert noise_spectrum(BATH, PARAMS, 0.0, CLASSICAL) == pytest.approx(
            BATH.gamma * BATH.kT / math.pi, rel=1e-14)

    def test_even_extension(self):
        for w in (0.4, 2.2):
            assert noise_spectrum(BATH, PARAMS, -w) == \
                noise_spectrum(BATH, PARAMS, w)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            noise_spectrum(BATH, PARAMS, 1.0, "thermal")

    @pytest.mark.parametrize("convention", [OCCUPATION, SYMMETRIZED, CLASSICAL])
    @pytest.mark.parametrize("kT", [0.0, 0.7])
    def test_array_matches_scalar_calls(self, convention, kT):
        bath = BathParams(0.5, 10.0, kT)
        ws = np.array([-30.0, -2.0, -1e-9, 0.0, 1e-300, 1e-9, 0.4, 2.2, 40.0,
                       800.0])
        got = noise_spectrum(bath, PARAMS, ws, convention)
        assert isinstance(got, np.ndarray) and got.shape == ws.shape
        assert isinstance(noise_spectrum(bath, PARAMS, 0.0, convention), float)
        np.testing.assert_allclose(
            got, [noise_spectrum(bath, PARAMS, float(w), convention) for w in ws],
            rtol=1e-14, atol=0.0)
        assert np.all(np.isfinite(got))


class TestWindowedTransform:
    def test_zero_window(self):
        dec = solve_poles(PARAMS, BATH)
        assert windowed_transform(dec, 0.7, 0.0) == 0.0

    def test_matches_quadrature(self):
        dec = solve_poles(PARAMS, BATH)
        w, t = 0.7, 2.0
        quad = integrate_adaptive(
            lambda t1: green_function(dec, t1) * np.exp(-1j * w * t1),
            0.0, t, abs_tol=1e-13, rel_tol=1e-12).value
        assert abs(windowed_transform(dec, w, t) - quad) < 1e-10

    def test_array_matches_scalar_calls_with_a_pole_on_the_axis(self):
        # a pole placed exactly at i w0 takes the removable limit R t
        dec = solve_poles(PARAMS, BATH)
        w0, t = 0.7, 1.5
        on_axis = dataclasses.replace(
            dec, poles=(dec.poles[0], 1j * w0, dec.poles[2]))
        ws = np.array([-3.0, -w0, 0.0, w0 - 1e-13, w0, w0 + 1e-9, 2.5])
        for d in (dec, on_axis):
            got = windowed_transform(d, ws, t)
            assert isinstance(got, np.ndarray) and got.shape == ws.shape
            assert isinstance(windowed_transform(d, w0, t), complex)
            np.testing.assert_allclose(
                got, [windowed_transform(d, float(w), t) for w in ws],
                rtol=1e-14, atol=0.0)
        rest = sum(r * (np.exp((s - 1j * w0) * t) - 1.0) / (s - 1j * w0)
                   for r, s in zip(dec.residues[::2], dec.poles[::2]))
        assert windowed_transform(on_axis, w0, t) == pytest.approx(
            dec.residues[1] * t + rest, rel=1e-14)

    def test_conjugation_symmetry(self):
        dec = solve_poles(PARAMS, BATH)
        for w in (0.3, 1.7):
            assert windowed_transform(dec, -w, 1.5) == pytest.approx(
                windowed_transform(dec, w, 1.5).conjugate(), abs=1e-14)


class TestDisplacementVariance:
    def test_initial_value_exact(self):
        dec = solve_poles(PARAMS, BATH)
        packet = GaussianPacket(0.0, 0.0, 1.3)
        assert displacement_variance(dec, BATH, PARAMS, packet, 0.0) == \
            pytest.approx(packet.sigma**2, abs=1e-12)

    def test_zero_temperature_is_purely_dynamic(self):
        bath = BathParams(0.5, 10.0, 0.0)
        dec = solve_poles(PARAMS, bath)
        packet = GaussianPacket(0.0, 0.0, 1.0)
        t = 1.5
        g, gd = green_function(dec, t), green_derivative(dec, t)
        expected = packet.sigma**2 * gd**2 \
            + PARAMS.hbar**2 / (4 * packet.sigma**2) * g**2
        assert displacement_variance(dec, bath, PARAMS, packet, t) == \
            pytest.approx(expected, rel=1e-14)

    def test_weak_damping_recovers_closed_width_law(self):
        bath = BathParams(1e-6, 10.0, 0.0)
        dec = solve_poles(PARAMS, bath)
        packet = GaussianPacket(0.0, 0.0, 1.0)
        t = 1.2
        eps = PARAMS.hbar / (2 * PARAMS.omega * packet.sigma**2)
        closed = packet.sigma**2 * (math.cosh(t) ** 2
                                    + eps**2 * math.sinh(t) ** 2)
        got = displacement_variance(dec, bath, PARAMS, packet, t)
        assert got == pytest.approx(closed, rel=1e-3)

    def test_monotone_in_temperature(self):
        packet = GaussianPacket(0.0, 0.0, 1.0)
        t = 1.5
        prev = -math.inf
        for kT in (0.0, 0.5, 1.0, 2.0):
            bath = BathParams(0.5, 10.0, kT)
            dec = solve_poles(PARAMS, bath)
            val = displacement_variance(dec, bath, PARAMS, packet, t)
            assert val >= prev
            prev = val

    def test_quantum_to_classical_limit(self):
        params = SystemParams(1.0, hbar=1e-4)
        dec = solve_poles(params, BATH)
        packet = GaussianPacket(0.0, 0.0, 1.0)
        t = 1.5
        q = displacement_variance(dec, BATH, params, packet, t, OCCUPATION)
        c = displacement_variance(dec, BATH, params, packet, t, CLASSICAL)
        assert q == pytest.approx(c, rel=1e-3)


class TestGeneralVariance:
    def test_packet_moments_reduce_to_displacement_variance(self):
        dec = solve_poles(PARAMS, BATH)
        packet = GaussianPacket(0.4, -0.6, 1.1)
        moments = InitialMoments.from_packet(packet, PARAMS)
        t = 1.0
        assert general_variance(dec, BATH, PARAMS, moments, t) == \
            displacement_variance(dec, BATH, PARAMS, packet, t)

    def test_initial_value(self):
        dec = solve_poles(PARAMS, BATH)
        moments = InitialMoments(0.0, 0.0, 1.0, 0.25, 0.0)
        assert general_variance(dec, BATH, PARAMS, moments, 0.0) == \
            pytest.approx(1.0, abs=1e-12)

    def test_positive_over_random_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            params = SystemParams(float(rng.uniform(0.5, 2.0)))
            bath = BathParams(float(rng.uniform(0.1, 2.0)),
                              float(rng.uniform(2.0, 15.0)),
                              float(rng.uniform(0.0, 2.0)))
            dec = solve_poles(params, bath)
            var_x = float(rng.uniform(0.3, 2.0))
            var_p = (params.hbar / 2.0) ** 2 / var_x \
                * float(rng.uniform(1.0, 3.0))
            bound = math.sqrt(var_x * var_p - (params.hbar / 2.0) ** 2)
            sym = float(rng.uniform(-0.9, 0.9)) * bound
            moments = InitialMoments(0.0, 0.0, var_x, var_p, sym)
            t = float(rng.uniform(0.0, 2.0))
            assert general_variance(dec, bath, params, moments, t) > 0.0

    def test_uncertainty_violation_rejected(self):
        dec = solve_poles(PARAMS, BATH)
        moments = InitialMoments(0.0, 0.0, 0.01, 0.01, 0.0)
        with pytest.raises(ValueError, match="uncertainty"):
            general_variance(dec, BATH, PARAMS, moments, 1.0)

    def test_moment_positivity_enforced(self):
        with pytest.raises(ValueError):
            InitialMoments(0.0, 0.0, -1.0, 0.25, 0.0)


class TestSymmetrizedCorrelation:
    def test_diagonal_reproduces_variance(self):
        dec = solve_poles(PARAMS, BATH)
        packet = GaussianPacket(0.0, 0.0, 1.0)
        moments = InitialMoments.from_packet(packet, PARAMS)
        t = 1.2
        diag = symmetrized_correlation(dec, BATH, PARAMS, moments,
                                       ZeroForce(), t, t)
        var = displacement_variance(dec, BATH, PARAMS, packet, t)
        assert diag == pytest.approx(var, abs=1e-9 * max(1.0, var))

    def test_symmetric_in_time_arguments(self):
        dec = solve_poles(PARAMS, BATH)
        moments = InitialMoments(0.3, -0.2, 1.0, 0.25, 0.0)
        force = HarmonicForce(0.2, 0.5)
        a = symmetrized_correlation(dec, BATH, PARAMS, moments, force, 1.0, 2.0)
        b = symmetrized_correlation(dec, BATH, PARAMS, moments, force, 2.0, 1.0)
        assert a == pytest.approx(b, rel=1e-10)

    def test_zero_temperature_dynamic_terms(self):
        bath = BathParams(0.5, 10.0, 0.0)
        dec = solve_poles(PARAMS, bath)
        moments = InitialMoments(0.0, 0.0, 1.0, 0.25, 0.0)
        t, tp = 1.0, 2.0
        got = symmetrized_correlation(dec, bath, PARAMS, moments,
                                      ZeroForce(), t, tp)
        expected = (green_derivative(dec, t) * green_derivative(dec, tp)
                    + 0.25 * green_function(dec, t) * green_function(dec, tp))
        assert got == pytest.approx(expected, rel=1e-12)


class TestDiscriminantBoundary:
    @pytest.mark.parametrize("a", [0.5, 3.0, 20.0])
    def test_defining_property(self, a):
        b = discriminant_boundary(a)
        q = a**3 / 27.0 - a * b / 6.0 - a / 2.0
        p = (3.0 * b - a * a) / 9.0
        assert abs(q * q + p**3) < 1e-10

    def test_undamped_double_root_at_unit_cutoff(self):
        # at a = 1 the critical line passes through b = -1, where the
        # zero-damping cubic (r-1)(r+1)(r+a) acquires its double root
        assert discriminant_boundary(1.0) == pytest.approx(-1.0, abs=1e-9)

    def test_shape_regression(self):
        # recorded on first computation: the curve dips to its minimum at
        # a = 1 and grows monotonically on either side of it
        left = [discriminant_boundary(a) for a in np.linspace(0.5, 1.0, 6)]
        right = [discriminant_boundary(a) for a in np.linspace(1.0, 20.0, 12)]
        assert all(x > y for x, y in zip(left, left[1:]))
        assert all(x < y for x, y in zip(right, right[1:]))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            discriminant_boundary(0.0)
