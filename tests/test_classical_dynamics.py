import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rk4_path
from invosc import (ConstantForce, HarmonicForce, SystemParams, TabulatedForce,
                    ZeroForce, force_at, lagrangian_action, trajectory)
from invosc.classical_dynamics import _classical_path

PARAMS = SystemParams(1.0)
# jumps at both ends of its support
JUMP_FORCE = TabulatedForce((0.3, 0.8, 2.5, 3.0), (0.2, -0.4, 1.0, 0.5))
KINK_FORCE = TabulatedForce((0.0, 0.5, 1.5), (0.0, 0.4, 0.0))
# a ramp of 1e-7: a particular solution -F/omega^2 would cancel in its slope
STEEP_FORCE = TabulatedForce((0.3, 0.3 + 1e-7, 2.5), (0.2, -0.4, 1.0))


class TestTrajectory:
    def test_unstable_equilibrium(self):
        for t in (0.0, 0.5, 2.0):
            pt = trajectory(PARAMS, 0.0, 0.0, ZeroForce(), t)
            assert pt.xi == 0.0
            assert pt.xi_dot == 0.0

    def test_free_hyperbolic_growth(self):
        pt = trajectory(PARAMS, 1.0, 0.0, ZeroForce(), 1.0)
        assert pt.xi == pytest.approx(math.cosh(1.0), abs=1e-12)
        assert pt.xi_dot == pytest.approx(math.sinh(1.0), abs=1e-12)

    def test_constant_force_from_rest(self):
        # (1/om) int_0^t sinh(om (t-s)) ds = (cosh(om t) - 1) / om^2
        pt = trajectory(PARAMS, 0.0, 0.0, ConstantForce(1.0), 1.0)
        assert pt.xi == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-11)
        assert pt.xi_dot == pytest.approx(math.sinh(1.0), rel=1e-11)

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            trajectory(PARAMS, 0.0, 0.0, ZeroForce(), -0.5)
        with pytest.raises(ValueError):
            trajectory(PARAMS, 0.0, 0.0, ZeroForce(), math.nan)

    @pytest.mark.parametrize("force", [
        ConstantForce(0.7),
        HarmonicForce(0.5, 2.0),
        TabulatedForce(times=(0.0, 5.0), values=(0.0, 2.0)),  # exactly linear
    ])
    def test_ode_residual_second_order(self, force):
        params = SystemParams(0.9)
        x0, p0, t = 0.4, -0.3, 1.2

        def residual(h):
            xi_m = trajectory(params, x0, p0, force, t - h).xi
            xi_0 = trajectory(params, x0, p0, force, t).xi
            xi_p = trajectory(params, x0, p0, force, t + h).xi
            acc = (xi_p - 2.0 * xi_0 + xi_m) / (h * h)
            return abs(acc - params.omega**2 * xi_0 - force_at(force, t))

        r_coarse, r_fine = residual(2e-3), residual(1e-3)
        assert r_coarse < 5e-5
        assert r_fine < r_coarse / 2.5  # O(h^2) contraction

    def test_energy_identity_free_motion(self):
        params = SystemParams(1.3)
        x0, p0 = 0.8, -1.1
        e0 = p0**2 - params.omega**2 * x0**2
        for t in np.linspace(0.1, 3.0, 7):
            pt = trajectory(params, x0, p0, ZeroForce(), float(t))
            e = pt.xi_dot**2 - params.omega**2 * pt.xi**2
            assert e == pytest.approx(e0, abs=1e-10 * max(1.0, abs(e0)))

    def test_matches_rk4_oracle(self):
        params = SystemParams(1.0)
        force = HarmonicForce(0.5, 2.0)
        x0, p0 = -3.0, 1.0

        def f(t, y):
            return np.array([y[1], params.omega**2 * y[0] + force_at(force, t)])

        ts, ys = rk4_path(f, [x0, p0], 5.0, 1e-4)
        for idx in (10000, 30000, 50000):
            pt = trajectory(params, x0, p0, force, float(ts[idx]))
            scale = max(1.0, abs(ys[idx, 0]))
            assert abs(pt.xi - ys[idx, 0]) < 1e-8 * scale
            assert abs(pt.xi_dot - ys[idx, 1]) < 1e-8 * scale


class TestLagrangianAction:
    def test_zero_on_equilibrium(self):
        for t in (0.0, 1.0, 2.5):
            assert lagrangian_action(PARAMS, 0.0, 0.0, ZeroForce(), t) == 0.0

    def test_free_action_from_position(self):
        # xi = cosh s: integrand (sinh^2 + cosh^2)/2, integral sinh(2)/4
        val = lagrangian_action(PARAMS, 1.0, 0.0, ZeroForce(), 1.0)
        assert val == pytest.approx(math.sinh(2.0) / 4.0, abs=1e-9)

    def test_free_action_from_momentum(self):
        # xi = sinh s gives the same integrand by symmetry
        val = lagrangian_action(PARAMS, 0.0, 1.0, ZeroForce(), 1.0)
        assert val == pytest.approx(math.sinh(2.0) / 4.0, abs=1e-9)

    def test_forced_action_against_direct_quadrature(self):
        # independent midpoint-rule evaluation on a fine uniform grid
        params = SystemParams(1.0)
        force = HarmonicForce(0.4, 1.5)
        x0, p0, t = 0.5, -0.2, 1.0
        n = 4000
        h = t / n
        total = 0.0
        for i in range(n):
            s = (i + 0.5) * h
            pt = trajectory(params, x0, p0, force, s)
            total += h * (0.5 * pt.xi_dot**2 + 0.5 * params.omega**2 * pt.xi**2
                          + pt.xi * force_at(force, s))
        val = lagrangian_action(params, x0, p0, force, t)
        assert val == pytest.approx(total, abs=2e-7)  # midpoint rule is O(h^2)


class TestPiecewiseForces:
    @pytest.mark.parametrize("force", [JUMP_FORCE, KINK_FORCE, STEEP_FORCE],
                             ids=["jump", "kink", "steep"])
    def test_matches_knot_aligned_rk4(self, force):
        params = SystemParams(1.0)
        x0, p0 = -0.6, 0.9
        samples = (0.3, 0.55, 1.5, 2.7, 3.0, 4.0)

        def f(t, y):
            # (xi, xi_dot, action)
            F = force_at(force, t)
            return np.array([y[1], params.omega**2 * y[0] + F,
                             0.5 * y[1]**2 + 0.5 * params.omega**2 * y[0]**2
                             + y[0] * F])

        ts, ys = rk4_path(f, [x0, p0, 0.0], 4.0, 2.5e-4,
                          breakpoints=force.times + samples)
        for t in samples:
            (idx,) = np.flatnonzero(ts == t)
            pt = trajectory(params, x0, p0, force, t)
            got = (pt.xi, pt.xi_dot, lagrangian_action(params, x0, p0, force, t))
            for value, ref in zip(got, ys[idx]):
                assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref))


# data on a 1e-5 grid: values near the underflow range carry too few digits
# for a relative check.  Knot times may be as close as the floats allow.
_SIGNED = st.integers(-10**6, 10**6).map(lambda k: k / 10**5)


@st.composite
def _force(draw, horizon):
    kind = draw(st.sampled_from(["zero", "constant", "harmonic", "tabulated"]))
    amp = st.integers(-5 * 10**5, 5 * 10**5).map(lambda k: k / 10**5)
    if kind == "zero":
        return ZeroForce(), 0.0
    if kind == "constant":
        force = ConstantForce(draw(amp))
        return force, abs(force.amplitude)
    if kind == "harmonic":
        force = HarmonicForce(draw(amp), draw(st.floats(0.05, 20.0)))
        return force, abs(force.amplitude)
    times = sorted(draw(st.sets(st.floats(0.0, horizon), min_size=2, max_size=6)))
    values = draw(st.lists(amp, min_size=len(times), max_size=len(times)))
    return TabulatedForce(tuple(times), tuple(values)), max(map(abs, values))


class TestSweepComposition:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), omega=st.floats(0.05, 20.0), x0=_SIGNED, p0=_SIGNED,
           u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
    def test_split_sweep_reproduces_one_sweep(self, data, omega, x0, p0, u, v):
        params = SystemParams(omega)
        horizon = 20.0 / omega
        force, f_max = data.draw(_force(horizon))
        t = u * horizon
        t_mid = v * t
        xi, xi_dot, action = _classical_path(params, x0, p0, force, 0.0, t)
        xi_m, xi_dot_m, s1 = _classical_path(params, x0, p0, force, 0.0, t_mid)
        xi_2, xi_dot_2, s2 = _classical_path(params, xi_m, xi_dot_m, force,
                                             t_mid, t)
        # natural sizes: a growing mode can cancel to a much smaller xi
        size = (abs(x0) + abs(p0) / omega + f_max / omega**2) * math.cosh(omega * t)
        assert abs(xi_2 - xi) <= 1e-12 * size
        assert abs(xi_dot_2 - xi_dot) <= 1e-12 * omega * size
        assert abs(s1 + s2 - action) <= 1e-12 * omega * size**2

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), omega=st.floats(0.05, 20.0), x0=_SIGNED, p0=_SIGNED,
           p=_SIGNED, u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
    def test_kick_is_a_cut_with_a_velocity_jump(self, data, omega, x0, p0, p, u, v):
        params = SystemParams(omega)
        horizon = 20.0 / omega
        force, f_max = data.draw(_force(horizon))
        t = u * horizon
        t1 = v * t
        # a kick outside [t0, t] is no cut
        kicks = ((-1.0, 3.0), (t1, p), (t + 1.0, 3.0))
        xi, xi_dot, action = _classical_path(params, x0, p0, force, 0.0, t, kicks)
        xi_1, xi_dot_1, s1 = _classical_path(params, x0, p0, force, 0.0, t1)
        xi_2, xi_dot_2, s2 = _classical_path(params, xi_1, xi_dot_1 + p, force, t1, t)
        # the same pieces, so the path is the same bit for bit; the action
        # sums in another order
        assert (xi, xi_dot) == (xi_2, xi_dot_2)
        size = ((abs(x0) + (abs(p0) + abs(p)) / omega + f_max / omega**2)
                * math.cosh(omega * t))
        assert abs(s1 + p * xi_1 + s2 - action) <= 1e-12 * omega * size**2

    def test_kick_on_free_legs_adds_its_phase_in_order(self):
        # one piece on each side of the kick: the action is s1 + p xi(t1) + s2
        # in that order, bit for bit
        p = -1.3
        for t1, t in ((0.0, 1.2), (0.45, 0.45), (0.45, 1.2), (0.7, 12.0)):
            got = _classical_path(PARAMS, 0.3, -0.2, ZeroForce(), 0.0, t, ((t1, p),))
            xi_1, xi_dot_1, s1 = _classical_path(PARAMS, 0.3, -0.2, ZeroForce(), 0.0, t1)
            xi, xi_dot, s2 = _classical_path(PARAMS, xi_1, xi_dot_1 + p, ZeroForce(),
                                             t1, t)
            assert got == (xi, xi_dot, s1 + p * xi_1 + s2)
