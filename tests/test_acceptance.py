"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite doubles as a checklist
(`pytest -s tests/test_acceptance.py`).
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

import invosc
from invosc import (BathParams, CLASSICAL, ConstantForce, GaussianPacket,
                    HarmonicForce, InitialMoments, RootClass, SystemParams,
                    TabulatedForce, ZeroForce, asymptotic_prefactor,
                    averaged_transmission, averaged_transmission_asymptotic,
                    delta_kick_at, evaluate, evolve_gaussian, green_pair,
                    grid_from_packet, integrate_adaptive, langevin_ode_oracle,
                    mean_trajectory, propagator, schrodinger_grid_evolve,
                    open_evolution, solve_poles, transmission_exact,
                    transmission_jwkb)
from invosc.cli import main

from conftest import density_moments


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


ACC_PARAMS = SystemParams(1.0, hbar=1.0)
ACC_PACKET = GaussianPacket(-3.0, 1.0, 1.0)
ACC_FORCE = HarmonicForce(0.5, 2.0)


def test_criterion_01_closed_form_vs_grid_oracle():
    with criterion(1, "closed form matches the split-step grid solver"):
        start = time.monotonic()
        grid = grid_from_packet(ACC_PACKET, ACC_PARAMS, -40.0, 40.0, 4096)
        for t in (0.5, 1.0, 1.5):
            grid = schrodinger_grid_evolve(ACC_PARAMS, grid, ACC_FORCE, t,
                                           1e-3)
            ev = evolve_gaussian(ACC_PARAMS, ACC_PACKET, ACC_FORCE, t)
            ref = evaluate(ev, ACC_PARAMS, ACC_PACKET, grid.x())
            rel_l2 = np.sqrt(np.sum(np.abs(grid.psi - ref) ** 2)
                             / np.sum(np.abs(ref) ** 2))
            assert rel_l2 < 1e-3, f"t={t}: rel L2 {rel_l2:.3e}"
        assert time.monotonic() - start < 30.0


def test_criterion_02_ehrenfest_and_width_laws():
    with criterion(2, "quadrature moments follow the classical center and "
                      "the spreading law"):
        rng = np.random.default_rng(2024)
        forces = [
            ZeroForce(),
            ConstantForce(0.8),
            HarmonicForce(0.7, 1.3),
            TabulatedForce(times=(0.0, 1.0, 2.5), values=(0.2, -0.5, 0.9)),
        ]
        for i in range(10):
            params = SystemParams(float(rng.uniform(0.4, 1.4)))
            packet = GaussianPacket(float(rng.uniform(-2, 2)),
                                    float(rng.uniform(-2, 2)),
                                    float(rng.uniform(0.6, 1.8)))
            force = forces[i % len(forces)]
            t = float(rng.uniform(0.5, 2.0))
            ev = evolve_gaussian(params, packet, force, t)
            norm, mean, var = density_moments(ev, params, packet)
            assert abs(norm - 1.0) < 1e-8
            assert abs(mean - ev.xi) < 1e-8
            width = packet.sigma**2 * abs(ev.gamma_factor) ** 2
            assert abs(var - width) / width < 1e-8
        # long horizons, where the spreading factor grows like e^(omega t)
        params = SystemParams(0.8)
        packet = GaussianPacket(0.5, -0.3, 1.1)
        for omega_t in (10.0, 20.0, 100.0):
            ev = evolve_gaussian(params, packet, ZeroForce(),
                                 omega_t / params.omega)
            norm, mean, var = density_moments(ev, params, packet)
            width = packet.sigma**2 * abs(ev.gamma_factor) ** 2
            assert abs(norm - 1.0) < 1e-8
            assert abs(mean - ev.xi) < 1e-8 * math.sqrt(width)
            assert abs(var - width) / width < 1e-8


def _compose_kernel(params, x, t, x1, t1, t_mid, force):
    def log_pair(y):
        ka = propagator(params, x, t, y, t_mid, force)
        kb = propagator(params, y, t_mid, x1, t1, force)
        return (ka.action + kb.action) / params.hbar

    e0, ep, em = log_pair(0.0), log_pair(1.0), log_pair(-1.0)
    c2 = 0.5 * (ep + em - 2.0 * e0)
    c1 = 0.5 * (ep - em)
    y_star = -c1 / (2.0 * c2)
    rot = np.exp(0.25j * np.pi)
    u_max = 8.0 / math.sqrt(c2)

    def integrand(u):
        y = y_star + rot * u
        return (propagator(params, x, t, y, t_mid, force).value
                * propagator(params, y, t_mid, x1, t1, force).value)

    res = integrate_adaptive(
        lambda us: np.array([integrand(float(u)) for u in us]),
        -u_max, u_max, abs_tol=1e-11, rel_tol=1e-10)
    return rot * res.value


def test_criterion_03_propagator_semigroup():
    with criterion(3, "kernel composition over an intermediate time "
                      "reproduces the direct kernel"):
        for force in (ZeroForce(), ConstantForce(0.5)):
            for x, x1 in [(-1.0, 0.4), (0.0, 0.0), (0.8, -0.6)]:
                direct = propagator(ACC_PARAMS, x, 0.6, x1, 0.0, force).value
                composed = _compose_kernel(ACC_PARAMS, x, 0.6, x1, 0.0, 0.3,
                                           force)
                assert abs(composed - direct) / abs(direct) < 1e-6


def test_criterion_04_delta_kick():
    with criterion(4, "kick center follows the boosted hyperbolic orbit and "
                      "the boosted grid oracle"):
        packet = GaussianPacket(0.2, -0.3, 0.9)
        p, t = 1.4, 1.0
        om = ACC_PARAMS.omega
        ev = delta_kick_at(ACC_PARAMS, packet, p, 0.0, t)
        expected = packet.x0 * math.cosh(om * t) \
            + (packet.p0 + p) / om * math.sinh(om * t)
        assert abs(ev.xi - expected) <= 1e-15 * max(1.0, abs(expected))

        boosted = GaussianPacket(packet.x0, packet.p0 + p, packet.sigma)
        grid = grid_from_packet(boosted, ACC_PARAMS, -40.0, 40.0, 4096)
        out = schrodinger_grid_evolve(ACC_PARAMS, grid, ZeroForce(), t, 1e-3)
        ref = evaluate(ev, ACC_PARAMS, packet, out.x())
        rel_l2 = np.sqrt(np.sum(np.abs(out.psi - ref) ** 2)
                         / np.sum(np.abs(ref) ** 2))
        assert rel_l2 < 1e-3


def test_criterion_05_static_transmission_anchor_points():
    with criterion(5, "static transmission at barrier suppression and the "
                      "deep-tunneling ratio"):
        for eps in (1.0, 3.0, 10.0, 100.0):
            assert transmission_exact(eps, 1.0) == 0.5
        ratio = transmission_jwkb(10.0, 0.0) / transmission_exact(10.0, 0.0)
        assert 1.0 <= ratio <= 1.0001


def test_criterion_06_quasistatic_asymptotics(tmp_path):
    with criterion(6, "period-average asymptotics track the quadrature and "
                      "the prefactor curve is emitted"):
        for eps, beta, tol in ((10.0, 0.3, 0.15), (30.0, 0.2, 0.08)):
            w_q = averaged_transmission(eps, beta)
            w_a = averaged_transmission_asymptotic(eps, beta)
            assert abs(w_a - w_q) / w_q < tol
        betas = np.linspace(0.05, 0.95, 19)
        for a in asymptotic_prefactor(3.0, betas):
            assert math.isfinite(a) and a > 0.0
        out = tmp_path / "tunnel.csv"
        assert main(["tunnel", "--set", "tunnel.epsilon=3.0",
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[2:]
        assert len(rows) == 19
        a_col = [float(r.split(",")[4]) for r in rows]
        assert all(math.isfinite(a) and a > 0.0 for a in a_col)


def test_criterion_07_pole_machinery_random_scan():
    with criterion(7, "pole residuals, residue sum rules, root classes, and "
                      "instability over 100 random baths"):
        start = time.monotonic()
        rng = np.random.default_rng(77)
        for _ in range(100):
            params = SystemParams(float(rng.uniform(0.3, 3.0)))
            bath = BathParams(float(rng.uniform(0.05, 5.0)),
                              float(rng.uniform(0.5, 20.0)), 0.0)
            dec = solve_poles(params, bath)
            scale = max(params.omega, bath.omega_d) ** 3
            for s in dec.poles:
                resid = ((s + bath.omega_d) * s
                         + (bath.gamma * bath.omega_d - params.omega**2)) * s \
                    - params.omega**2 * bath.omega_d
                assert abs(resid) < 1e-10 * scale
            assert abs(sum(dec.residues)) < 1e-10
            assert abs(sum(r * s for r, s in zip(dec.residues, dec.poles))
                       - 1.0) < 1e-10
            assert abs(sum(r * s * s
                           for r, s in zip(dec.residues, dec.poles))) < 1e-10
            expected = (RootClass.ONE_REAL_TWO_COMPLEX
                        if dec.coefficients.D > 0 else RootClass.THREE_REAL)
            assert dec.root_class is expected
            assert sum(1 for s in dec.poles if s.real > 0.0) == 1
        assert time.monotonic() - start < 5.0


def test_criterion_08_green_function_cross_oracle():
    with criterion(8, "matrix-exponential impulse response equals the RK4 "
                      "memory-kernel oracle"):
        for gamma, omega_d in ((0.5, 10.0), (5.0, 2.0)):
            bath = BathParams(gamma, omega_d, 0.0)
            ts, g_ode = langevin_ode_oracle(ACC_PARAMS, bath, 5.0, 5e-4)
            g_exp = green_pair(ACC_PARAMS, bath, ts)[0]
            dev = np.max(np.abs(g_exp - g_ode)) / np.max(np.abs(g_exp))
            assert dev < 1e-6, f"bath ({gamma}, {omega_d}): deviation {dev:.2e}"


def test_criterion_09_harmonic_response_closed_form():
    with criterion(9, "harmonic response closed form equals the quadrature "
                      "convolution"):
        rng = np.random.default_rng(99)
        for _ in range(20):
            params = SystemParams(float(rng.uniform(0.5, 2.0)))
            bath = BathParams(float(rng.uniform(0.1, 3.0)),
                              float(rng.uniform(2.0, 15.0)), 0.0)
            amp = float(rng.uniform(-1.0, 1.0))
            w0 = float(rng.uniform(0.1, 3.0))
            drive = HarmonicForce(amp, w0)
            assert mean_trajectory(params, bath, 0.0, 0.0, drive, 0.0) == 0.0
            for t in (0.7, 1.9, 3.0):
                quad = integrate_adaptive(
                    lambda t1: green_pair(params, bath, t - t1)[0] * amp
                    * np.sin(w0 * t1), 0.0, t,
                    abs_tol=1e-13, rel_tol=1e-12).value
                dev = abs(mean_trajectory(params, bath, 0.0, 0.0, drive, t) - quad)
                assert dev < 1e-8


def test_criterion_10_variance_limits():
    with criterion(10, "variance limits: initial value, zero-temperature, "
                       "weak damping, classical spectrum, temperature "
                       "monotonicity"):
        packet = GaussianPacket(0.0, 0.0, 1.0)
        moments = InitialMoments.from_packet(packet, ACC_PARAMS)

        bath = BathParams(0.5, 10.0, 1.0)
        assert abs(sum(open_evolution(ACC_PARAMS, bath, moments, ZeroForce(), 0.0)[3:])
                   - packet.sigma**2) < 1e-12

        cold = BathParams(0.5, 10.0, 0.0)
        t = 1.5
        g, gd = green_pair(ACC_PARAMS, cold, t)
        dynamic = packet.sigma**2 * gd**2 \
            + ACC_PARAMS.hbar**2 / (4 * packet.sigma**2) * g**2
        assert sum(open_evolution(ACC_PARAMS, cold, moments, ZeroForce(), t)[3:]) \
            == pytest.approx(dynamic, rel=1e-14)

        weak = BathParams(1e-6, 10.0, 0.0)
        eps = ACC_PARAMS.hbar / (2 * ACC_PARAMS.omega * packet.sigma**2)
        closed = packet.sigma**2 * (math.cosh(t) ** 2
                                    + eps**2 * math.sinh(t) ** 2)
        got = sum(open_evolution(ACC_PARAMS, weak, moments, ZeroForce(), t)[3:])
        assert abs(got - closed) / closed < 1e-3

        small_h = SystemParams(1.0, hbar=1e-4)
        small_h_moments = InitialMoments.from_packet(packet, small_h)
        quantum = sum(open_evolution(small_h, bath, small_h_moments, ZeroForce(), t)[3:])
        classical = sum(open_evolution(small_h, bath, small_h_moments, ZeroForce(), t,
                                       CLASSICAL)[3:])
        assert abs(quantum - classical) / classical < 1e-3

        prev = -math.inf
        for kT in (0.0, 1.0, 2.0):
            bath_kt = BathParams(0.5, 10.0, kT)
            val = sum(open_evolution(ACC_PARAMS, bath_kt, moments, ZeroForce(), t)[3:])
            assert val >= prev
            prev = val


def test_criterion_11_discriminant_boundary_curve(tmp_path):
    with criterion(11, "every emitted boundary point recomputes to a "
                       "vanishing discriminant"):
        out = tmp_path / "boundary.csv"
        assert main(["open-poles", "--boundary", "0.5", "20", "100",
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[2:]
        assert len(rows) == 100
        for row in rows:
            a, b = (float(c) for c in row.split(","))
            q = a**3 / 27.0 - a * b / 6.0 - a / 2.0
            p = (3.0 * b - a * a) / 9.0
            assert abs(q * q + p**3) < 1e-10, f"a={a}: |D|={abs(q*q+p**3):.2e}"


def test_criterion_12_verify_is_deterministic(tmp_path):
    with criterion(12, "verification reports are byte-identical across runs "
                       "and exit cleanly"):
        report_a = tmp_path / "a.json"
        report_b = tmp_path / "b.json"
        assert main(["verify", "--out", str(report_a)]) == 0
        assert main(["verify", "--out", str(report_b)]) == 0
        assert report_a.read_bytes() == report_b.read_bytes()
        payload = json.loads(report_a.read_text())
        assert payload["all_pass"] is True
