import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mp_occupation_term, mp_zero_point_term, rk4_path
from invosc import (CLASSICAL, OCCUPATION, SYMMETRIZED, BathParams,
                    ConstantForce, DegeneratePolesError, GaussianPacket,
                    HarmonicForce, InitialMoments, RootClass, SystemParams,
                    TabulatedForce, ZeroForce, bath_spectral_density,
                    characteristic_coefficients, discriminant_boundary,
                    drude_kernel, force_at, green_pair, integrate_adaptive,
                    integrate_exp_sinh, integrate_fourier, integrate_tanh_sinh,
                    langevin_ode_oracle, mean_trajectory,
                    noise_spectrum, solve_cubic, solve_poles,
                    spectral_noise_term, symmetrized_correlation,
                    variance_noise_term, variance_parts, windowed_transform)
from invosc import open_system as osys
from invosc.core import force_pieces

PARAMS = SystemParams(1.0)
BATH = BathParams(gamma=0.5, omega_d=10.0, kT=1.0)
# one real pole and a complex pair, next to BATH's three real poles
COMPLEX_BATH = BathParams(gamma=5.0, omega_d=2.0, kT=0.0)
# tabulated forces from the closed-system tests: a kink, jumps at both
# support ends, and a ramp 1e-7 long that by-parts terms in 1/s, 1/s^2
# would cancel in
PIECEWISE_FORCES = {
    "constant": ConstantForce(0.6),
    "kink": TabulatedForce((0.0, 0.5, 1.5), (0.0, 0.4, 0.0)),
    "jump": TabulatedForce((0.3, 0.8, 2.5, 3.0), (0.2, -0.4, 1.0, 0.5)),
    "steep": TabulatedForce((0.3, 0.3 + 1e-7, 2.5), (0.2, -0.4, 1.0)),
}

# frozen from the partial-fraction inversion, validated against the
# quadrature convolution ahead of the build
HARMONIC_RESPONSE_FIXTURE = 0.026265104883926603


# ---------------------------------------------------------------------------
# Residue-sum oracle: every quantity as a sum over the poles and residues of
# solve_poles.  It is exact where the poles are well separated, and is used
# only there.
# ---------------------------------------------------------------------------

def residue_green(dec, t, k=0):
    """Re sum_j R_j s_j^k exp(s_j t): G for k = 0, G' for k = 1."""
    r, s = np.array(dec.residues), np.array(dec.poles)
    return np.sum(r * s**k * np.exp(np.multiply.outer(np.asarray(t, float), s)),
                  axis=-1).real


# Horner coefficients of phi_2(z) = (e^z - 1 - z) / z^2 = sum_k z^k / (k + 2)!,
# summed for |z| <= 1, where the closed form cancels.
_PHI2_SERIES = [1.0 / math.factorial(k + 2) for k in range(20)][::-1]


def residue_force_terms(dec, force, t):
    """c_j(t) = int_0^t exp(s_j (t - u)) F(u) du for each pole s_j."""
    s = np.array(dec.poles)
    if isinstance(force, HarmonicForce):
        amp, w = force.amplitude, force.omega0
        u = s / w
        return (amp / w) / (u * u + 1.0) * (
            np.exp(s * t) - math.cos(w * t) - u * math.sin(w * t))
    c = np.zeros(3, dtype=complex)
    for a, b, fa, fb in force_pieces(force, 0.0, t):
        z = s * (b - a)
        small = np.abs(z) <= 1.0
        zs = np.where(small, 2.0, z)
        p1 = (np.exp(zs) - 1.0) / zs
        p2 = np.where(small, np.polyval(_PHI2_SERIES, z), (p1 - 1.0) / zs)
        p1 = np.where(small, 1.0 + z * p2, p1)
        c += np.exp(s * (t - b)) * (b - a) * (fa * p1 + (fb - fa) * p2)
    return c


def residue_mean(dec, x0m, p0m, force, t):
    """Re sum_j R_j [(x0 s_j + p0) exp(s_j t) + c_j(t)] and the sum of the
    absolute values of its terms, its size before they cancel."""
    s = np.array(dec.poles)
    terms = np.array(dec.residues) * (
        (x0m * s + p0m) * np.exp(s * t) + residue_force_terms(dec, force, t))
    return float(terms.sum().real), float(np.abs(terms).sum())


def residue_window(dec, omega, t):
    """sum_j R_j (exp((s_j - i w) t) - 1) / (s_j - i w) and its size."""
    d = np.array(dec.poles)[:, None] - 1j * np.asarray(omega, float)
    terms = np.array(dec.residues)[:, None] * (np.exp(d * t) - 1.0) / d
    return terms.sum(axis=0), np.abs(terms).sum(axis=0)


def _force_size(dec, force, t):
    """sum_j |R_j c_j(t)|: the size the pole sum of the force response has
    before its terms cancel."""
    return float(np.sum(np.abs(np.array(dec.residues)
                               * residue_force_terms(dec, force, t))))


def markov_rk4(params, bath, force, y0, t_final, dt):
    """RK4 on x' = v, v' = omega^2 x - w + F, w' = -omega_d w + gamma omega_d v,
    stepping onto the knots of a tabulated force."""
    om2, wd, gwd = params.omega**2, bath.omega_d, bath.gamma * bath.omega_d

    def rhs(t, y):
        x, v, w = y
        return np.array([v, om2 * x - w + force_at(force, t), -wd * w + gwd * v])

    return rk4_path(rhs, y0, t_final, dt, breakpoints=getattr(force, "times", ()))


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
        res = integrate_fourier(
            lambda w: bath_spectral_density(bath, w) / w + 0j, 0.0, t, 5e-9)
        assert 2.0 / math.pi * res.value[0] == pytest.approx(
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
        with pytest.raises(ValueError, match="gamma > 0"):
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
        g, gd = green_pair(PARAMS, BATH, 0.0)
        assert g == 0.0
        assert gd == 1.0

    @pytest.mark.parametrize("omega_d", [1e3, 1e6, 1e9])
    def test_fast_bath_matches_mpmath(self, omega_d):
        # the generator's -omega_d t diagonal takes ~log2(omega_d t) squarings;
        # squaring e^(A h) itself, rather than e^(A h) - I, loses 3e-8 of G at 1e9
        mp = pytest.importorskip("mpmath")
        bath = BathParams(0.5, omega_d)
        with mp.workdps(60):
            w, t = mp.mpf(omega_d), mp.mpf(3)
            a = mp.matrix([[0, 1, 0], [1, 0, -1], [0, w / 2, -w]])
            ref = float(mp.expm(a * t)[0, 1])
        assert green_pair(PARAMS, bath, 3.0)[0] == pytest.approx(ref, rel=1e-14,
                                                                 abs=0.0)
        g, gd = green_pair(PARAMS, bath, 0.0)
        assert g == 0.0
        assert gd == 1.0

    def test_weak_damping_limit(self):
        bath = BathParams(1e-6, 10.0, 0.0)
        g, gd = green_pair(PARAMS, bath, 1.0)
        assert g == pytest.approx(math.sinh(1.0), abs=1e-4)
        assert gd == pytest.approx(math.cosh(1.0), abs=1e-4)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("omega_d", [0.5, 4.0])
    def test_undamped_is_the_closed_system(self, omega, omega_d):
        # at gamma = 0 the memory state stays at zero
        params = SystemParams(omega)
        bath = BathParams(0.0, omega_d * omega, 0.0)
        ts = np.linspace(0.05, 4.0, 40) / omega
        g, gd = green_pair(params, bath, ts)
        np.testing.assert_allclose(g, np.sinh(omega * ts) / omega, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(gd, np.cosh(omega * ts), rtol=1e-14, atol=0.0)

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for t in (0.3, 1.0, 2.5):
            fd = (green_pair(PARAMS, BATH, t + h)[0]
                  - green_pair(PARAMS, BATH, t - h)[0]) / (2 * h)
            assert green_pair(PARAMS, BATH, t)[1] == pytest.approx(fd, rel=1e-6)

    def test_matches_rk4_memory_kernel_oracle(self):
        bath = BathParams(0.5, 10.0, 0.0)
        ts, g_ode = langevin_ode_oracle(PARAMS, bath, 5.0, 5e-4)
        g = green_pair(PARAMS, bath, ts)[0]
        assert np.max(np.abs(g - g_ode)) / np.max(np.abs(g)) < 1e-6

    def test_accepts_time_arrays(self):
        ts = np.linspace(0.0, 2.0, 9)
        vals = green_pair(PARAMS, BATH, ts)[0]
        assert vals.shape == (9,)
        assert vals[0] == 0.0
        assert isinstance(green_pair(PARAMS, BATH, 1.0)[0], float)
        g, gd = green_pair(PARAMS, BATH, ts.reshape(3, 3))
        assert g.shape == gd.shape == (3, 3)
        np.testing.assert_array_equal(g.ravel(), vals)
        np.testing.assert_array_equal(
            gd.ravel(), [green_pair(PARAMS, BATH, float(t))[1] for t in ts])


class TestResidueOracle:
    """Where the poles are well separated, every quantity is also an exact
    residue sum; the two must agree to 1e-11 of the sum's size."""

    @staticmethod
    def _separated_cases(seed, count):
        rng = np.random.default_rng(seed)
        cases = []
        while len(cases) < count:
            params = SystemParams(float(rng.uniform(0.3, 3.0)))
            bath = BathParams(float(rng.uniform(0.05, 5.0)),
                              float(rng.uniform(0.5, 20.0)), 0.0)
            dec = solve_poles(params, bath)
            sep = min(abs(dec.poles[i] - dec.poles[j])
                      for i in range(3) for j in range(i + 1, 3))
            if sep > 0.05 * max(abs(s) for s in dec.poles):
                t = float(rng.uniform(0.1, 4.0)) / params.omega
                cases.append((params, bath, dec, t))
        return cases

    def test_green_function_and_derivative(self):
        for params, bath, dec, t in self._separated_cases(1, 60):
            ts = np.linspace(0.0, t, 7)
            g, gd = green_pair(params, bath, ts)
            r = np.abs(np.array(dec.residues))
            s = np.array(dec.poles)
            for k, got in ((0, g), (1, gd)):
                size = np.sum(r * np.abs(s) ** k
                              * np.abs(np.exp(np.multiply.outer(ts, s))), axis=-1)
                assert np.all(np.abs(got - residue_green(dec, ts, k)) <= 1e-11 * size)

    @pytest.mark.parametrize("force", [
        ZeroForce(), ConstantForce(0.6), PIECEWISE_FORCES["kink"],
        PIECEWISE_FORCES["jump"], HarmonicForce(0.7, 1.3)],
        ids=["zero", "constant", "kink", "jump", "harmonic"])
    def test_mean(self, force):
        for params, bath, dec, t in self._separated_cases(2, 40):
            ref, size = residue_mean(dec, 0.7, -0.4, force, t)
            got = mean_trajectory(params, bath, 0.7, -0.4, force, t)
            assert abs(got - ref) <= 1e-11 * size

    def test_windowed_transform(self):
        ws = np.array([-7.0, -0.9, 0.0, 0.3, 1.1, 25.0])
        for params, bath, dec, t in self._separated_cases(3, 40):
            ref, size = residue_window(dec, ws * params.omega, t)
            got = windowed_transform(params, bath, ws * params.omega, t)
            assert np.all(np.abs(got - ref) <= 1e-11 * size)


class TestDegenerateBoundary:
    """The evaluators hold through the degenerate-pole boundary b = b_c(a),
    where a residue sum loses its digits."""

    # the boundary case of the open-poles table: omega = 1, omega_d = 4,
    # gamma = (b_c(4) + 1) / 4
    GAMMA_C = 0.7938713443812133

    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(3.0, 5.0), k=st.integers(0, 14), side=st.sampled_from([-1, 1]),
           omega=st.floats(0.5, 2.0),
           knots=st.sets(st.integers(0, 40), min_size=2, max_size=5),
           values=st.lists(st.integers(-10, 10), min_size=5, max_size=5),
           amplitude=st.integers(-10, 10), omega0=st.integers(1, 30))
    # the open-poles boundary case; at k = 16, 1 + 1e-16 rounds to 1 and b = b_c
    @example(a=4.0, k=16, side=1, omega=1.0, knots={0, 13, 40},
             values=[3, -5, 10, 0, 0], amplitude=7, omega0=11)
    @example(a=4.0, k=14, side=-1, omega=1.0, knots={0, 13, 40},
             values=[3, -5, 10, 0, 0], amplitude=7, omega0=11)
    @example(a=4.0, k=14, side=1, omega=1.0, knots={0, 13, 40},
             values=[3, -5, 10, 0, 0], amplitude=7, omega0=11)
    def test_straddling_box_matches_rk4_and_scipy(self, a, k, side, omega, knots,
                                                  values, amplitude, omega0):
        # b = b_c(a) (1 +- 10^-k); b_c > 0 for a >= 3, so gamma > 0.  Up to
        # a = 5, RK4 at dt = 1e-3 / omega is good to 1e-13 of max |G|.
        b = discriminant_boundary(a) * (1.0 + side * 10.0 ** -k)
        params = SystemParams(omega)
        bath = BathParams((b + 1.0) * omega / a, a * omega, 0.0)
        om2, wd, gwd = omega**2, bath.omega_d, bath.gamma * bath.omega_d
        t_end = 4.0 / omega
        tabulated = TabulatedForce(tuple(n * t_end / 40 for n in sorted(knots)),
                                   tuple(v / 10 for v in values[:len(knots)]))
        harmonic = HarmonicForce(amplitude / 10, omega0 / 10 * omega)
        x0, p0 = 0.3, -0.2

        def rhs(t, y):
            # G from (0, 1, 0) unforced; each mean from w(0) = gamma omega_d x0
            f_tab = float(np.interp(t, tabulated.times, tabulated.values,
                                    left=0.0, right=0.0))
            f_harm = harmonic.amplitude * math.sin(harmonic.omega0 * t)
            out = []
            for i, f in ((0, 0.0), (3, f_tab), (6, f_harm)):
                x, v, w = y[i:i + 3]
                out += [v, om2 * x - w + f, -wd * w + gwd * v]
            return np.array(out)

        times, path = rk4_path(rhs, [0.0, 1.0, 0.0] + 2 * [x0, p0, gwd * x0],
                               t_end, 1e-3 / omega, breakpoints=tabulated.times)
        g_size = np.max(np.abs(path[:, 0]))
        gd_size = np.max(np.abs(path[:, 1]))
        every = 250
        ts = times[::every]
        g, gd = green_pair(params, bath, ts)
        assert np.max(np.abs(g - path[::every, 0])) <= 1e-12 * g_size
        assert np.max(np.abs(gd - path[::every, 1])) <= 1e-12 * gd_size
        for column, force in ((3, tabulated), (6, harmonic)):
            f_max = max(1.0, np.max(np.abs(force_at(force, times))))
            size = abs(x0) * gd_size + (abs(p0) + f_max * t_end) * g_size
            for i in range(0, len(times), every):
                got = mean_trajectory(params, bath, x0, p0, force, float(times[i]))
                assert abs(got - path[i, column]) <= 1e-12 * size

        linalg = pytest.importorskip("scipy.linalg")
        gen = np.array([[0.0, 1.0, 0.0], [om2, 0.0, -1.0], [0.0, gwd, -wd]])
        ref = np.array([linalg.expm(gen * t)[:, 1] for t in ts])
        assert np.max(np.abs(g - ref[:, 0])) <= 1e-12 * g_size
        assert np.max(np.abs(gd - ref[:, 1])) <= 1e-12 * gd_size
        aug = np.zeros((5, 5))
        aug[:3, :3] = gen
        aug[1, 3] = 1.0
        aug[3, 4], aug[4, 3] = harmonic.omega0, -harmonic.omega0
        size = max(1.0, abs(harmonic.amplitude)) * t_end * g_size
        for t in ts:
            forced = linalg.expm(aug * t)[0, 4] * harmonic.amplitude
            got = mean_trajectory(params, bath, 0.0, 0.0, harmonic, float(t))
            assert abs(got - forced) <= 1e-12 * size

    def test_cli_boundary_case_is_exact(self, capsys):
        from invosc.cli import main
        assert main(["open-evolve", "--set", f"bath.gamma={self.GAMMA_C!r}",
                     "--set", "bath.omega_d=4.0", "--set", "bath.kT=0",
                     "--set", "open.samples=5", "--set", "open.t_max=4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        assert rows[0][header.index("G")] == "0.0000000000000000e+00"
        assert rows[0][header.index("G_dot")] == "1.0000000000000000e+00"
        bath = BathParams(self.GAMMA_C, 4.0, 0.0)
        ts, g_ode = langevin_ode_oracle(PARAMS, bath, 4.0, 1e-3)
        for row in rows[1:]:
            t = float(row[0])
            ref = g_ode[int(round(t / 1e-3))]
            got = float(row[header.index("G")])
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


class TestMeanTrajectory:
    def test_rest_stays_at_rest(self):
        for t in (0.0, 0.8, 2.0):
            assert mean_trajectory(PARAMS, BATH, 0.0, 0.0, ZeroForce(), t) == 0.0

    def test_homogeneous_pole_sum_identity(self):
        dec = solve_poles(PARAMS, BATH)
        x0m, p0m, t = 0.7, -0.4, 1.3
        direct = mean_trajectory(PARAMS, BATH, x0m, p0m, ZeroForce(), t)
        pole_sum = sum((x0m * s + p0m) * r * np.exp(s * t)
                       for r, s in zip(dec.residues, dec.poles))
        assert direct == pytest.approx(float(pole_sum.real), abs=1e-10)

    def test_undriven_mean_is_exactly_x0_gdot_plus_p0_g(self):
        x0m, p0m = 0.7, -0.4
        for t in (0.0, 0.5, 1.3, 3.0):
            g, gd = green_pair(PARAMS, BATH, t)
            assert mean_trajectory(PARAMS, BATH, x0m, p0m, ZeroForce(), t) \
                == x0m * gd + p0m * g

    def test_constant_force_convolution_closed_form(self):
        dec = solve_poles(PARAMS, BATH)
        f0, t = 0.6, 1.4
        closed = sum(r * f0 * (np.exp(s * t) - 1.0) / s
                     for r, s in zip(dec.residues, dec.poles))
        got = mean_trajectory(PARAMS, BATH, 0.0, 0.0, ConstantForce(f0), t)
        assert got == pytest.approx(float(closed.real), abs=1e-9)

    def test_harmonic_route_matches_quadrature(self):
        force = HarmonicForce(0.1, 0.2)
        t = 2.0
        quad = integrate_adaptive(
            lambda t1: green_pair(PARAMS, BATH, t - t1)[0] * 0.1 * np.sin(0.2 * t1),
            0.0, t, abs_tol=1e-13, rel_tol=1e-12).value
        assert mean_trajectory(PARAMS, BATH, 0.0, 0.0, force, t) == pytest.approx(
            quad, abs=1e-8)

    @pytest.mark.parametrize("bath", [BATH, COMPLEX_BATH], ids=["real", "complex"])
    @pytest.mark.parametrize("name", list(PIECEWISE_FORCES))
    def test_matches_markov_extension_rk4(self, bath, name):
        # the exponential memory as one more variable: w = int_0^t K(t-u)
        # x'(u) du obeys w' = -omega_d w + gamma omega_d x', exactly
        force = PIECEWISE_FORCES[name]
        dec = solve_poles(PARAMS, bath)
        ts, ys = markov_rk4(PARAMS, bath, force, [0.0, 0.0, 0.0], 4.0, 1e-3)
        for i in range(0, len(ts), 97):
            t = float(ts[i])
            assert abs(mean_trajectory(PARAMS, bath, 0.0, 0.0, force, t) - ys[i, 0]) \
                <= 1e-10 * _force_size(dec, force, t)

    @pytest.mark.parametrize("bath", [BATH, COMPLEX_BATH], ids=["real", "complex"])
    def test_steep_ramp_matches_mpmath(self, bath):
        mp = pytest.importorskip("mpmath")
        force = PIECEWISE_FORCES["steep"]
        dec = solve_poles(PARAMS, bath)
        ramp_start, ramp_end = force.times[0], force.times[1]
        with mp.workdps(40):
            ts, fs = [mp.mpf(k) for k in force.times], [mp.mpf(f) for f in force.values]
            for t in (ramp_start + 3e-8, ramp_end, 0.3 + 2e-7, 2.5, 4.0):
                # the mean from rest, int_0^t G(t - u) F(u) du, on each
                # linear piece before t, with G as the residue sum
                ref = mp.mpf(0)
                for r, s in zip(dec.residues, dec.poles):
                    c = mp.mpc(0)
                    for a, b, fa, fb in zip(ts, ts[1:], fs, fs[1:]):
                        if a < t:
                            c += mp.quad(lambda u: mp.exp(mp.mpc(s) * (t - u))
                                         * (fa + (fb - fa) * (u - a) / (b - a)),
                                         [a, min(b, mp.mpf(t))])
                    ref += mp.re(mp.mpc(r) * c)
                got = mean_trajectory(PARAMS, bath, 0.0, 0.0, force, t)
                assert abs(got - float(ref)) <= 1e-14 * _force_size(dec, force, t)


class TestPoleSumProperties:
    # the box: omega in [0.05, 20], gamma / omega in [1e-3, 100] and
    # omega_d / omega in [1e-2, 100], times up to 10 / omega
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), omega=st.floats(0.05, 20.0),
           gamma=st.floats(1e-3, 100.0), omega_d=st.floats(1e-2, 100.0))
    def test_sum_rules_and_force_response(self, data, omega, gamma, omega_d):
        params = SystemParams(omega)
        bath = BathParams(gamma * omega, omega_d * omega)
        try:
            dec = solve_poles(params, bath)
        except DegeneratePolesError:
            return
        r, s = np.array(dec.residues), np.array(dec.poles)
        for k, expected in ((0, 0.0), (1, 1.0), (2, 0.0)):
            assert abs(np.sum(r * s**k) - expected) <= 1e-10 * np.sum(np.abs(r * s**k))
        g, gd = green_pair(params, bath, 0.0)
        assert abs(g) <= 1e-10 * np.sum(np.abs(r))
        assert abs(gd - 1.0) <= 1e-10 * np.sum(np.abs(r * s))

        horizon = 10.0 / omega
        times = sorted(data.draw(st.sets(st.floats(0.0, horizon),
                                         min_size=2, max_size=6)))
        # t and the values on a grid: near the underflow range too few
        # digits are left
        values = data.draw(st.lists(st.integers(-10**5, 10**5).map(lambda k: k / 10**5),
                                    min_size=len(times), max_size=len(times)))
        force = TabulatedForce(tuple(times), tuple(values))
        t = data.draw(st.integers(0, 10**6)) * horizon / 10**6
        got = mean_trajectory(params, bath, 0.0, 0.0, force, t)
        # natural size: int_0^t sum_j |R_j exp(s_j (t - u)) F(u)| du at most
        size = (np.sum(np.abs(r) * np.maximum(1.0, np.abs(np.exp(s * t))))
                * t * max(map(abs, values)))
        # the quadrature oracle, cut at the knots; a piece shorter than
        # 1e-12 t adds less than 1e-12 size and is left out
        cuts = [0.0, *(k for k in times if 0.0 < k < t), t]
        ref = sum(integrate_adaptive(
            lambda u: green_pair(params, bath, t - u)[0] * force_at(force, u), a, b,
            abs_tol=1e-12 * size / len(cuts), rel_tol=1e-12).value
            for a, b in zip(cuts, cuts[1:]) if b - a > 1e-12 * t)
        assert abs(got - ref) <= 1e-9 * size


class TestHarmonicResponse:
    def test_zero_at_start_and_without_drive(self):
        assert mean_trajectory(PARAMS, BATH, 0.0, 0.0, HarmonicForce(0.1, 0.2),
                               0.0) == 0.0
        assert mean_trajectory(PARAMS, BATH, 0.0, 0.0, HarmonicForce(0.0, 0.2),
                               2.0) == 0.0

    def test_pinned_fixture(self):
        assert mean_trajectory(PARAMS, BATH, 0.0, 0.0, HarmonicForce(0.1, 0.2),
                               2.0) == pytest.approx(HARMONIC_RESPONSE_FIXTURE, abs=1e-12)

    def test_matches_convolution_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            params = SystemParams(float(rng.uniform(0.5, 2.0)))
            bath = BathParams(float(rng.uniform(0.1, 3.0)),
                              float(rng.uniform(2.0, 15.0)), 0.0)
            amp = float(rng.uniform(-1.0, 1.0))
            w0 = float(rng.uniform(0.1, 3.0))
            t = float(rng.uniform(0.5, 3.0))
            quad = integrate_adaptive(
                lambda t1: green_pair(params, bath, t - t1)[0] * amp
                * np.sin(w0 * t1), 0.0, t,
                abs_tol=1e-13, rel_tol=1e-12).value
            assert mean_trajectory(params, bath, 0.0, 0.0, HarmonicForce(amp, w0),
                                   t) == pytest.approx(quad, abs=1e-8)


# the "kink" knots lie on these times, the "jump" and "steep" knots between them
SAMPLE_TIMES = np.linspace(0.0, 3.0, 7)


class TestArrayOfTimes:
    """An ndarray of times gives what a loop of scalar calls gives."""

    @pytest.mark.parametrize("force", [ZeroForce(), HarmonicForce(0.5, 2.0),
                                       *PIECEWISE_FORCES.values()],
                             ids=["zero", "harmonic", *PIECEWISE_FORCES])
    def test_mean_trajectory(self, force):
        got = mean_trajectory(PARAMS, BATH, 0.3, -0.2, force, SAMPLE_TIMES)
        loop = np.array([mean_trajectory(PARAMS, BATH, 0.3, -0.2, force, t)
                         for t in SAMPLE_TIMES.tolist()])
        scale = np.max(np.abs(loop))
        assert np.allclose(got, loop, rtol=0.0, atol=1e-14 * scale)
        # the sweep sorts the times: unsorted, repeated and on a 2-D grid
        pick = [[5, 0, 3], [3, 6, 1]]
        assert np.allclose(mean_trajectory(PARAMS, BATH, 0.3, -0.2, force,
                                           SAMPLE_TIMES[pick]),
                           loop[pick], rtol=0.0, atol=1e-14 * scale)

    @pytest.mark.parametrize("convention", [OCCUPATION, SYMMETRIZED, CLASSICAL])
    @pytest.mark.parametrize("bath", [BATH, BathParams(5.0, 2.0, 0.4)])
    def test_variance_parts(self, convention, bath):
        moments = InitialMoments(0.3, -0.2, 1.0, 0.3, 0.1)
        dynamic, noise = variance_parts(PARAMS, bath, moments, SAMPLE_TIMES,
                                        convention)
        loop = np.array([variance_parts(PARAMS, bath, moments, t, convention)
                         for t in SAMPLE_TIMES.tolist()])
        assert np.array_equal(dynamic, loop[:, 0])
        # the bath noise sweeps every time at once, so a time's value depends
        # on the set of times in its last bits
        np.testing.assert_allclose(noise, loop[:, 1], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(
            variance_noise_term(PARAMS, bath, SAMPLE_TIMES, convention),
            [variance_noise_term(PARAMS, bath, t, convention)
             for t in SAMPLE_TIMES.tolist()], rtol=1e-13, atol=0.0)

    def test_noise_is_skipped_past_the_float_range(self):
        moments = InitialMoments(0.0, 0.0, 1.0, 0.25, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            dynamic, noise = variance_parts(PARAMS, BATH, moments,
                                            np.array([400.0, 800.0]))
        assert np.isfinite(dynamic[0]) and np.isfinite(noise[0])
        assert not np.isfinite(dynamic[1]) and np.isnan(noise[1])


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
        assert windowed_transform(PARAMS, BATH, 0.7, 0.0) == 0.0

    def test_matches_quadrature(self):
        w, t = 0.7, 2.0
        quad = integrate_adaptive(
            lambda t1: green_pair(PARAMS, BATH, t1)[0] * np.exp(-1j * w * t1),
            0.0, t, abs_tol=1e-13, rel_tol=1e-12).value
        assert abs(windowed_transform(PARAMS, BATH, w, t) - quad) < 1e-10

    def test_array_matches_scalar_calls_with_a_pole_on_the_axis(self):
        # the resolvent has no pole on the real frequency axis, so the
        # frequencies next to the old removable-limit branch are plain
        w0, t = 0.7, 1.5
        ws = np.array([-3.0, -w0, 0.0, w0 - 1e-13, w0, w0 + 1e-9, 2.5])
        for bath in (BATH, COMPLEX_BATH):
            got = windowed_transform(PARAMS, bath, ws, t)
            assert isinstance(got, np.ndarray) and got.shape == ws.shape
            assert isinstance(windowed_transform(PARAMS, bath, w0, t), complex)
            np.testing.assert_allclose(
                got, [windowed_transform(PARAMS, bath, float(w), t) for w in ws],
                rtol=1e-14, atol=0.0)

    def test_conjugation_symmetry(self):
        for w in (0.3, 1.7):
            assert windowed_transform(PARAMS, BATH, -w, 1.5) == pytest.approx(
                windowed_transform(PARAMS, BATH, w, 1.5).conjugate(), abs=1e-14)


class TestDisplacementVariance:
    def test_initial_value_exact(self):
        packet = GaussianPacket(0.0, 0.0, 1.3)
        moments = InitialMoments.from_packet(packet, PARAMS)
        assert sum(variance_parts(PARAMS, BATH, moments, 0.0)) == \
            pytest.approx(packet.sigma**2, abs=1e-12)

    def test_zero_temperature_is_purely_dynamic(self):
        bath = BathParams(0.5, 10.0, 0.0)
        packet = GaussianPacket(0.0, 0.0, 1.0)
        t = 1.5
        g, gd = green_pair(PARAMS, bath, t)
        expected = packet.sigma**2 * gd**2 \
            + PARAMS.hbar**2 / (4 * packet.sigma**2) * g**2
        moments = InitialMoments.from_packet(packet, PARAMS)
        assert sum(variance_parts(PARAMS, bath, moments, t)) == \
            pytest.approx(expected, rel=1e-14)

    def test_weak_damping_recovers_closed_width_law(self):
        bath = BathParams(1e-6, 10.0, 0.0)
        packet = GaussianPacket(0.0, 0.0, 1.0)
        t = 1.2
        eps = PARAMS.hbar / (2 * PARAMS.omega * packet.sigma**2)
        closed = packet.sigma**2 * (math.cosh(t) ** 2
                                    + eps**2 * math.sinh(t) ** 2)
        moments = InitialMoments.from_packet(packet, PARAMS)
        got = sum(variance_parts(PARAMS, bath, moments, t))
        assert got == pytest.approx(closed, rel=1e-3)

    def test_monotone_in_temperature(self):
        moments = InitialMoments.from_packet(GaussianPacket(0.0, 0.0, 1.0), PARAMS)
        t = 1.5
        prev = -math.inf
        for kT in (0.0, 0.5, 1.0, 2.0):
            bath = BathParams(0.5, 10.0, kT)
            val = sum(variance_parts(PARAMS, bath, moments, t))
            assert val >= prev
            prev = val

    def test_quantum_to_classical_limit(self):
        params = SystemParams(1.0, hbar=1e-4)
        moments = InitialMoments.from_packet(GaussianPacket(0.0, 0.0, 1.0), params)
        t = 1.5
        q = sum(variance_parts(params, BATH, moments, t, OCCUPATION))
        c = sum(variance_parts(params, BATH, moments, t, CLASSICAL))
        assert q == pytest.approx(c, rel=1e-3)

    def test_noise_term_of_the_residue_window(self):
        # the noise integral over the residue-sum window W = e^(-iwt) a - y,
        # a = sum_j R_j e^(s_j t) / d_j and y = sum_j R_j / d_j, d_j = s_j - iw:
        # whole on [0, H], and past H its smooth part 2 S (|a|^2 + |y|^2)
        # and its part -4 S Re(e^(iwt) conj(a) y) of lag t, each by its rule
        dec = solve_poles(PARAMS, BATH)
        t = 1.5
        head = 8.0 * math.pi / t
        poles, residues = (np.array(v)[:, None, None] for v in (dec.poles, dec.residues))

        def terms(w):
            d = poles - 1j * w
            return (2.0 * noise_spectrum(BATH, PARAMS, w),
                    (residues * np.exp(poles * t) / d).sum(axis=0), (residues / d).sum(axis=0))

        def whole(w):
            return 2.0 * noise_spectrum(BATH, PARAMS, w) * np.abs(
                residue_window(dec, w.ravel(), t)[0].reshape(w.shape)) ** 2

        def smooth(w):
            s2, a, y = terms(w)
            return s2 * (np.abs(a) ** 2 + np.abs(y) ** 2)

        def lagged(w):
            s2, a, y = terms(w)
            return -2.0 * s2 * np.conjugate(a) * y

        ref = (integrate_tanh_sinh(whole, 0.0, head, 1e-14).value
               + integrate_exp_sinh(smooth, head, head, 1e-14).value
               + integrate_fourier(lagged, head, t, 1e-15, rel_tol=1e-14).value)[0]
        assert variance_noise_term(PARAMS, BATH, t) == pytest.approx(ref, rel=1e-10)


# baths from strong damping with a slow memory to weak damping with a fast
# one, and the degenerate-pole boundary case of TestDegenerateBoundary
NOISE_BATHS = [(40.0, 0.05), (5.0, 2.0), (0.6, 1.0), (0.5, 10.0),
               (0.7938713443812133, 4.0)]


def mp_ou_covariance(params, bath, rate, t):
    """V_a(t) from the Van Loan block exponential of the system driven by an
    Ornstein-Uhlenbeck force of rate a, in enough digits that its -M block,
    which grows like e^(||M|| t), cancels exactly."""
    mp = pytest.importorskip("mpmath")
    gen = [[0, 1, 0, 0], [params.omega**2, 0, -1, 1],
           [0, bath.gamma * bath.omega_d, -bath.omega_d, 0], [0, 0, 0, -rate]]
    norm = max(sum(abs(row[j]) for row in gen) for j in range(4))
    with mp.workdps(max(100, 30 + int(norm * t / math.log(10)))):
        block = mp.zeros(8, 8)
        for i in range(4):
            for j in range(4):
                block[i, j] = -mp.mpf(gen[i][j])
                block[i + 4, j + 4] = mp.mpf(gen[j][i])
        block[3, 7] = 2 * mp.mpf(rate)
        e = mp.expm(block * mp.mpf(t))
        gramian = e[4:8, 4:8].T * e[0:4, 4:8]
        # from x = v = w = 0 and a stationary force of unit variance
        return float(gramian[0, 0] + e[7, 4] ** 2)


class TestNoiseWithoutFrequencyQuadrature:
    """The classical term in closed form and the zero-point term as a rate
    integral, against the frequency quadrature ``spectral_noise_term``."""

    @pytest.mark.parametrize("gamma,omega_d", NOISE_BATHS)
    @pytest.mark.parametrize("omega_t", [1e-3, 1.0, 8.0, 20.0])
    def test_classical_matches_mpmath_van_loan(self, gamma, omega_d, omega_t):
        params = SystemParams(1.3)
        bath = BathParams(gamma, omega_d, 0.7)
        t = omega_t / params.omega
        ref = gamma * bath.kT * omega_d * mp_ou_covariance(params, bath, omega_d, t)
        got = variance_noise_term(params, bath, t, CLASSICAL)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gamma,omega_d", NOISE_BATHS)
    @pytest.mark.parametrize("kT", [0.0, 0.8])
    def test_symmetrized_matches_frequency_quadrature(self, gamma, omega_d, kT):
        bath = BathParams(gamma, omega_d, kT)
        for t in (0.4, 2.5):
            got = variance_noise_term(PARAMS, bath, t, SYMMETRIZED)
            ref = spectral_noise_term(PARAMS, bath, t, t, SYMMETRIZED, 1e-13 * got)
            assert got == pytest.approx(ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("convention", [OCCUPATION, CLASSICAL, SYMMETRIZED])
    @pytest.mark.parametrize("bath", [BATH, BathParams(5.0, 2.0, 0.4)])
    def test_two_time_term_matches_frequency_quadrature(self, convention, bath):
        # the occupation term is the Matsubara sum less the zero-point term,
        # which cancel to 1e-14 where it is small; at t' = t + 1e-4 the sum
        # has e^(-nu |t - t'|) parts far out on its lattice
        for t, tprime in ((1.0, 2.0), (2.5, 0.3), (0.1, 0.2), (1.0, 1.0001)):
            got = osys._noise_term(PARAMS, bath, t, tprime, convention, 1e-14)
            ref = spectral_noise_term(PARAMS, bath, t, tprime, convention,
                                      1e-13 * max(abs(got), 1e-4))
            assert got == pytest.approx(ref, rel=1e-10,
                                        abs=1e-14 if convention == OCCUPATION else 0.0)
            assert osys._noise_term(PARAMS, bath, tprime, t, convention,
                                    1e-14) == pytest.approx(got, rel=1e-13)

    @pytest.mark.parametrize("convention", [OCCUPATION, SYMMETRIZED, CLASSICAL])
    def test_undamped_bath_gives_exactly_zero(self, convention):
        bath = BathParams(0.0, 3.0, 1.5)
        moments = InitialMoments(0.0, 0.0, 1.0, 0.25, 0.0)
        assert variance_noise_term(PARAMS, bath, 1.7, convention) == 0.0
        assert osys._noise_term(PARAMS, bath, 1.7, 0.4, convention, 1e-14) == 0.0
        (g, gp), (gd, gdp) = green_pair(PARAMS, bath, [1.7, 0.4])
        assert symmetrized_correlation(PARAMS, bath, moments, ZeroForce(), 1.7,
                                       0.4, convention) == gd * gdp + 0.25 * g * gp

    @pytest.mark.parametrize("gamma,omega_d", NOISE_BATHS)
    def test_white_noise_limit_of_a_fast_force(self, gamma, omega_d):
        # nu V_nu = 2 int_0^t G^2 - G^2 / nu + 2 (G G' - int_0^t G'^2) / nu^2
        # + O(1 / nu^3): the doubling keeps the relative accuracy up to the
        # largest rate of the map nu = omega_d u / (1 - u), one ulp below
        # u = 1, and the excess K_nu over the white limit keeps its own
        bath = BathParams(gamma, omega_d, 0.0)
        t = 3.0

        def integral(f):
            return integrate_adaptive(f, 0.0, t, abs_tol=0.0, rel_tol=1e-13).value

        white = 2.0 * integral(lambda s: green_pair(PARAMS, bath, s)[0] ** 2)
        slope = integral(lambda s: green_pair(PARAMS, bath, s)[1] ** 2)
        g, gd = green_pair(PARAMS, bath, t)
        rates = omega_d * np.array([1e8, 1e11, 1e14, 2.0**53])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            covariance, excess = osys._ou_covariance(PARAMS, bath, rates, t, t)
        expected = -g * g / rates + 2.0 * (g * gd - slope) / rates**2
        assert np.allclose(covariance, white + expected, rtol=1e-12, atol=0.0)
        assert np.allclose(excess, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("omega_d", [1e5, 1e6])
    @pytest.mark.parametrize("t", [1.5, 3.0])
    def test_zero_point_term_of_a_fast_bath_matches_mpmath(self, omega_d, t):
        # nu V_nu and omega_d V_omega_d share their white-noise limit, so
        # their difference over sinh sigma near sigma = 0 would be rounding
        # noise, and a node at sigma = 0 would give NaN
        bath = BathParams(0.5, omega_d, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = variance_noise_term(PARAMS, bath, t, SYMMETRIZED)
        assert got == pytest.approx(mp_zero_point_term(PARAMS, bath, t),
                                    rel=1e-10, abs=0.0)

    def test_zero_point_rule_refines_on_the_nodes_it_has(self, monkeypatch):
        # from the first step of 1/3 the rule seldom refines; from a first
        # step of 1 the error estimate asks for one cut to h = 1/3, whose
        # second sweep takes only the nodes (j + 1/2) / 3 that are new, two for
        # each old one, and gives the values of the rule that starts at 1/3
        bath = BathParams(0.5, 10.0, 0.0)
        ts = np.array([0.4, 1.5, 3.0])
        expected = variance_noise_term(PARAMS, bath, ts, SYMMETRIZED)
        rates, ou_covariance = [], osys._ou_covariance

        def counted(params, bath, rate, t, tprime):
            rates.append(np.size(rate))
            return ou_covariance(params, bath, rate, t, tprime)

        monkeypatch.setattr(osys, "_ou_covariance", counted)
        monkeypatch.setattr(osys, "_ZERO_POINT_STEP", 1.0)
        got = variance_noise_term(PARAMS, bath, ts, SYMMETRIZED)
        assert rates == [31, 62]
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("omega,gamma,omega_d",
                             [(1.3, *bath) for bath in NOISE_BATHS + [(0.5, 1e4), (0.5, 1e6)]]
                             + [(1.0, 0.7938713443812133, 4.0)])
    def test_zero_point_rule_over_many_times_matches_mpmath(self, omega, gamma, omega_d):
        # one rate rule for all times: its ends and step must serve each of
        # them, from omega t = 1e-3, where the fast side's terms fall off
        # latest, to omega t = 20; at omega t = 1e-6 most baths take the
        # closed form of G(s) = s; the last bath has a double pole
        params = SystemParams(omega)
        bath = BathParams(gamma, omega_d, 0.0)
        ts = np.array([1e-6, 1e-3, 0.4, 2.5, 8.0, 20.0]) / params.omega
        got = variance_noise_term(params, bath, ts, SYMMETRIZED)
        ref = [mp_zero_point_term(params, bath, t) for t in ts.tolist()]
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("times", [np.linspace(0.0, 3.0, 31),
                                       np.array([0.0, 0.03, 0.3, 0.31, 1.7, 2.9, 3.0]),
                                       np.array([0.0, 0.3, 0.3, 0.6, 1.2]),
                                       np.zeros(3),
                                       np.array([0.0, 3.7, 3.8, 3.9]),
                                       np.array([0.0, 2.0**20, 2.0**20 + 1.0, 2.0**20 + 3.0])
                                       * 1e-6,
                                       np.array([0.0, 1e-300, 1.0])],
                             ids=["lattice", "irregular", "repeats", "zeros",
                                  "far-start", "2^20-units-out", "past-2^53-units"])
    @pytest.mark.parametrize("gamma,omega_d", [(0.5, 10.0), (40.0, 0.05), (0.5, 1e6)])
    def test_sweep_matches_one_time_covariance_down_to_small_rates(self, gamma, omega_d,
                                                                   times):
        # the stationary start carried as a vector: folded into Sigma, its
        # 1/a would cost 1.4e-4 of K at a rate of omega_d e^-30.  A lattice
        # that starts far out takes its first gap, 37 or 2^20 units, by
        # composing the one step at the unit; one time alone is one step,
        # and so is each gap where a multiple would pass 2^53
        bath = BathParams(gamma, omega_d, 0.0)
        rates = omega_d * np.exp(-np.array([0.0, 3.0, 10.0, 20.0, 30.0]))
        sweep = osys._ou_covariance(PARAMS, bath, rates, times, times)
        one = np.stack([osys._ou_covariance(PARAMS, bath, rates, t, t)
                        for t in times.tolist()], axis=-1)
        np.testing.assert_allclose(sweep, one, rtol=1e-13, atol=0.0)
        later = times[::-1]   # pairs t != t' through e^(M |t - t'|)
        np.testing.assert_allclose(
            osys._ou_covariance(PARAMS, bath, rates, times, later),
            np.stack([osys._ou_covariance(PARAMS, bath, rates, t, u)
                      for t, u in zip(times.tolist(), later.tolist())], axis=-1),
            rtol=1e-13, atol=0.0)

    def test_sweep_needs_no_more_memory_than_its_van_loan_call(self, monkeypatch):
        # the first round of the zero-point rule: 93 rates at 30 lattice
        # times.  The Van Loan call sets the peak, 928,100-928,600 bytes
        # under numpy 2.4 as the context varies, as it did for the Sigma
        # recursion that the forward sweep replaced; the rows of e^(Mt) and
        # the increments stay below it.
        bath = BathParams(0.5, 10.0, 0.0)
        sigma = np.concatenate([np.arange(45) + 0.5, -(np.arange(48) + 0.5)]) / 3.0
        rates, times = bath.omega_d * np.exp(sigma), np.linspace(0.0, 3.0, 31)[1:]
        later = times.copy()

        def peak():
            osys._ou_covariance(PARAMS, bath, rates, times, later)
            tracemalloc.start()
            try:
                osys._ou_covariance(PARAMS, bath, rates, times, later)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() <= 930_000
        gramian, peaks = osys.expm_gramian, []

        def traced(*args):
            out = gramian(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        monkeypatch.setattr(osys, "expm_gramian", traced)
        assert peak() <= peaks[-1]

    @pytest.mark.parametrize("gamma,omega_d", [(40.0, 0.05), (0.6, 1.0)])
    def test_short_time_converges_without_warnings(self, gamma, omega_d):
        # at omega t = 1e-3 the frequency quadrature of these baths raises
        # QuadratureError; the rate integral converges.  For omega_d t << 1
        # the force barely decorrelates and G(s) = s, so the classical term
        # is gamma kT omega_d t^4 / 4 to first order in t.
        bath = BathParams(gamma, omega_d, 0.5)
        t = 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zero_point = variance_noise_term(PARAMS, BathParams(gamma, omega_d),
                                             t, SYMMETRIZED)
            symmetrized = variance_noise_term(PARAMS, bath, t, SYMMETRIZED)
            classical = variance_noise_term(PARAMS, bath, t, CLASSICAL)
        assert 0.0 < zero_point < symmetrized
        assert classical == pytest.approx(gamma * 0.5 * omega_d * t**4 / 4.0,
                                          rel=2.0 * (omega_d + gamma) * t)

    def test_no_frequency_quadrature_under_any_convention(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("frequency quadrature called")

        for rule in ("integrate_tanh_sinh", "integrate_exp_sinh", "integrate_fourier",
                     "_window"):
            monkeypatch.setattr(osys, rule, forbidden)
        moments = InitialMoments(0.0, 0.0, 1.0, 0.25, 0.0)
        for kT in (0.0, 1e-3, 1.0, 1e8):
            bath = BathParams(0.5, 10.0, kT)
            for convention in (OCCUPATION, CLASSICAL, SYMMETRIZED):
                noise = variance_noise_term(PARAMS, bath, [0.1, 1.5], convention)
                assert np.all(noise > 0.0) or (kT == 0.0 and convention != SYMMETRIZED)
                symmetrized_correlation(PARAMS, bath, moments, ZeroForce(), 1.5, 0.7,
                                        convention)
        with pytest.raises(AssertionError, match="frequency quadrature"):
            spectral_noise_term(PARAMS, BATH, 1.5, 1.5, SYMMETRIZED)

    @settings(max_examples=8, deadline=None)
    @given(gamma=st.floats(0.05, 20.0), omega_d=st.floats(0.05, 20.0),
           kT=st.sampled_from([0.0, 0.3, 2.0]), omega=st.floats(0.5, 2.0),
           omega_t=st.floats(0.05, 5.0))
    def test_random_baths_match_frequency_quadrature(self, gamma, omega_d, kT,
                                                     omega, omega_t):
        params = SystemParams(omega)
        bath = BathParams(gamma, omega_d, kT)
        t = omega_t / omega
        for convention in (OCCUPATION, CLASSICAL, SYMMETRIZED):
            got = variance_noise_term(params, bath, t, convention)
            if got == 0.0:
                assert convention != SYMMETRIZED and kT == 0.0
                continue
            ref = spectral_noise_term(params, bath, t, t, convention, 1e-11 * got)
            assert got == pytest.approx(
                ref, rel=1e-10 if convention == OCCUPATION else 1e-9,
                abs=1e-14 if convention == OCCUPATION else 0.0)


class TestBosePartAsMatsubaraSum:
    """The Bose part at kT > 0: the Matsubara sum of ``_matsubara_sum`` and,
    where the lattice is dense, the series of ``_dense_lattice_term``,
    against frequency integrals."""

    @pytest.mark.parametrize("gamma,omega_d", NOISE_BATHS)
    @pytest.mark.parametrize("kT", [1e-3, 0.01, 0.1, 0.8, 2.0, 1e4])
    def test_matches_frequency_quadrature(self, gamma, omega_d, kT):
        # within max(abs_tol, 1e-10 |ref|) of the quadrature run to 1e-3 of
        # that bound: the occupation term is 1e-7 of the zero-point term at
        # kT = 1e-3, and the dense lattice takes it without the difference
        bath = BathParams(gamma, omega_d, kT)
        ts = np.array([0.4, 2.5])
        for convention in (OCCUPATION, SYMMETRIZED):
            got = variance_noise_term(PARAMS, bath, ts, convention)
            for t, value in zip(ts.tolist(), got.tolist()):
                bound = max(1e-14, 1e-10 * abs(value))
                ref = spectral_noise_term(PARAMS, bath, t, t, convention, 1e-3 * bound)
                assert abs(value - ref) <= bound, (t, convention, value, ref)

    @pytest.mark.parametrize("kT", [1e20, 1e300, 1e306, 1e307])
    def test_hottest_bath_is_classical(self, kT):
        # past kT ~ 1e20 the rest of the Bose part is below 1e-13 of the
        # classical term gamma kT omega_d V_omega_d, and nothing overflows:
        # no Matsubara rate is taken where the first is that far out
        bath = BathParams(0.5, 10.0, kT)
        ts = np.array([0.5, 3.0])
        classical = variance_noise_term(PARAMS, bath, ts, CLASSICAL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for convention in (OCCUPATION, SYMMETRIZED):
                np.testing.assert_allclose(variance_noise_term(PARAMS, bath, ts, convention),
                                           classical, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("kT", [1e-30, 1e-100])
    def test_coldest_bath_is_zero_point(self, kT):
        # the lattice is dense at every time: the symmetrized term is the
        # zero-point rule plus the series, no Matsubara rate is taken
        bath = BathParams(0.5, 10.0, kT)
        ts = np.linspace(0.0, 3.0, 31)
        zero_point = variance_noise_term(PARAMS, BathParams(0.5, 10.0, 0.0), ts, SYMMETRIZED)
        np.testing.assert_allclose(variance_noise_term(PARAMS, bath, ts, SYMMETRIZED),
                                   zero_point, rtol=1e-15, atol=0.0)
        assert np.all(np.abs(variance_noise_term(PARAMS, bath, ts, OCCUPATION))
                      <= 1e-50 * zero_point)

    @pytest.mark.parametrize("omega_d", [1e3, 1e6])
    def test_fast_bath_matches_mpmath(self, omega_d):
        # the lattice is summed in panels [n, 2n] up to omega_d / dnu; the
        # frequency quadrature gives 0.0 for omega_d = 1e6
        bath = BathParams(0.5, omega_d, 1.0)
        got = variance_noise_term(PARAMS, bath, np.array([0.5, 2.5]), OCCUPATION)
        ref = [mp_occupation_term(PARAMS, bath, t) for t in (0.5, 2.5)]
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("rate", [1.0, 1.0 + 1e-9, 1.0 + 1e-5])
    def test_matsubara_rate_on_the_cutoff(self, rate):
        # nu_1 = omega_d makes f a 0 / 0, which the rates about it interpolate
        bath = BathParams(0.5, 2.0 * math.pi * rate, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = variance_noise_term(PARAMS, bath, np.array([0.5, 2.5]), SYMMETRIZED)
        for t, value in zip((0.5, 2.5), got.tolist()):
            ref = spectral_noise_term(PARAMS, bath, t, t, SYMMETRIZED, 1e-13 * value)
            assert value == pytest.approx(ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("gamma,omega_d", NOISE_BATHS)
    def test_dense_and_sparse_lattice_agree(self, gamma, omega_d, monkeypatch):
        # below its threshold the Euler-Maclaurin series and the Matsubara
        # sum both hold; the sum takes more rates there
        bath = BathParams(gamma, omega_d, 0.25)
        ts = np.array([0.4, 0.7, 1.0])   # dnu t from 0.63 to 1.57
        dense = variance_noise_term(PARAMS, bath, ts, SYMMETRIZED)
        monkeypatch.setattr(osys, "_DENSE_LATTICE", 0.0)
        np.testing.assert_allclose(variance_noise_term(PARAMS, bath, ts, SYMMETRIZED),
                                   dense, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("omega_d_t", [1e-9, 1e-15, 1e-20])
    def test_zero_point_term_of_free_motion_matches_mpmath(self, omega_d_t):
        # where G(s) = s the rule's folded differences are rounding noise
        # and the closed form holds to (omega_d t)^2
        bath = BathParams(0.5, 10.0, 0.0)
        t = omega_d_t / bath.omega_d
        assert variance_noise_term(PARAMS, bath, t, SYMMETRIZED) == pytest.approx(
            mp_zero_point_term(PARAMS, bath, t), rel=1e-13, abs=0.0)


class TestGeneralVariance:
    def test_parts_sum_to_the_variance(self):
        moments = InitialMoments(0.0, 0.0, 1.0, 0.25, 0.1)
        dynamic, noise = variance_parts(PARAMS, BATH, moments, 1.2)
        assert noise == variance_noise_term(PARAMS, BATH, 1.2,
                                            abs_tol=1e-10 * abs(dynamic))

    def test_initial_value(self):
        moments = InitialMoments(0.0, 0.0, 1.0, 0.25, 0.0)
        assert sum(variance_parts(PARAMS, BATH, moments, 0.0)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_positive_over_random_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            params = SystemParams(float(rng.uniform(0.5, 2.0)))
            bath = BathParams(float(rng.uniform(0.1, 2.0)),
                              float(rng.uniform(2.0, 15.0)),
                              float(rng.uniform(0.0, 2.0)))
            var_x = float(rng.uniform(0.3, 2.0))
            var_p = (params.hbar / 2.0) ** 2 / var_x \
                * float(rng.uniform(1.0, 3.0))
            bound = math.sqrt(var_x * var_p - (params.hbar / 2.0) ** 2)
            sym = float(rng.uniform(-0.9, 0.9)) * bound
            moments = InitialMoments(0.0, 0.0, var_x, var_p, sym)
            t = float(rng.uniform(0.0, 2.0))
            assert sum(variance_parts(params, bath, moments, t)) > 0.0

    def test_uncertainty_violation_rejected(self):
        moments = InitialMoments(0.0, 0.0, 0.01, 0.01, 0.0)
        with pytest.raises(ValueError, match="uncertainty"):
            variance_parts(PARAMS, BATH, moments, 1.0)

    def test_moment_positivity_enforced(self):
        with pytest.raises(ValueError):
            InitialMoments(0.0, 0.0, -1.0, 0.25, 0.0)


class TestSymmetrizedCorrelation:
    def test_diagonal_reproduces_variance(self):
        # phi(t, t) = variance + mean^2: with nonzero means the mean's
        # cross term 2 <x0> <p0> G G' must not go missing
        packet = GaussianPacket(0.0, 0.0, 1.0)
        t = 1.2
        for moments, force in (
                (InitialMoments.from_packet(packet, PARAMS), ZeroForce()),
                (InitialMoments(0.3, -0.2, 1.0, 0.25, 0.0), ZeroForce()),
                (InitialMoments(0.3, -0.2, 1.0, 0.25, 0.0), HarmonicForce(0.2, 0.5))):
            diag = symmetrized_correlation(PARAMS, BATH, moments, force, t, t)
            var = sum(variance_parts(PARAMS, BATH, moments, t))
            mean = mean_trajectory(PARAMS, BATH, moments.mean_x, moments.mean_p,
                                   force, t)
            assert diag == pytest.approx(var + mean**2,
                                         abs=1e-9 * max(1.0, var + mean**2))

    def test_symmetric_in_time_arguments(self):
        moments = InitialMoments(0.3, -0.2, 1.0, 0.25, 0.0)
        force = HarmonicForce(0.2, 0.5)
        a = symmetrized_correlation(PARAMS, BATH, moments, force, 1.0, 2.0)
        b = symmetrized_correlation(PARAMS, BATH, moments, force, 2.0, 1.0)
        assert a == pytest.approx(b, rel=1e-10)

    def test_zero_temperature_dynamic_terms(self):
        bath = BathParams(0.5, 10.0, 0.0)
        moments = InitialMoments(0.0, 0.0, 1.0, 0.25, 0.0)
        t, tp = 1.0, 2.0
        got = symmetrized_correlation(PARAMS, bath, moments, ZeroForce(), t, tp)
        (g_t, g_tp), (gd_t, gd_tp) = green_pair(PARAMS, bath, [t, tp])
        expected = gd_t * gd_tp + 0.25 * g_t * g_tp
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


class TestDiscriminantBoundaryClosedForm:
    def test_array_matches_scalar_calls(self):
        a = np.geomspace(1e-3, 1e4, 60)
        assert np.array_equal(discriminant_boundary(a),
                              [discriminant_boundary(x) for x in a.tolist()])

    def test_largest_real_root_in_b(self):
        # in b, 27 D is the cubic b^3 - (a^2/4) b^2 + (9 a^2/2) b
        # + a^2 (27/4 - a^2), and D > 0 for b > a^2/3
        a = np.geomspace(1e-3, 1e4, 2000)
        roots = [max(r.real for r in solve_cubic(-x * x / 4.0, 4.5 * x * x,
                                                 x * x * (6.75 - x * x))
                     if r.imag == 0.0) for x in a.tolist()]
        assert np.allclose(discriminant_boundary(a), roots, rtol=1e-12, atol=1e-15)
        assert discriminant_boundary(1.0) == -1.0
        assert abs(discriminant_boundary(1.5 * math.sqrt(3.0))) < 1e-15

    def test_discriminant_vanishes_to_rounding(self):
        a = np.linspace(0.45, 21.0, 400)
        b = discriminant_boundary(a)
        q = a**3 / 27.0 - a * b / 6.0 - a / 2.0
        p = (3.0 * b - a * a) / 9.0
        assert np.all(np.abs(q * q + p**3) <= 1e-14 * (q * q + np.abs(p) ** 3))

    def test_rejects_a_non_positive_entry(self):
        with pytest.raises(ValueError):
            discriminant_boundary(np.array([1.0, 0.0]))
