"""Shared oracle helpers for the test suite."""

import numpy as np
from hypothesis import settings

from invosc import evaluate, integrate_adaptive

# The same examples on every run, and no replay of examples saved by
# earlier runs; each test keeps its own max_examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def density_moments(ev, params, packet, window=12.0):
    """Quadrature norm, mean, and central variance of |psi|^2."""
    width = packet.sigma * abs(ev.gamma_factor)
    lo, hi = ev.xi - window * width, ev.xi + window * width

    def dens(x):
        return abs(evaluate(ev, params, packet, x)) ** 2

    norm = integrate_adaptive(dens, lo, hi, abs_tol=1e-14, rel_tol=1e-12).value
    mean = integrate_adaptive(lambda x: x * dens(x), lo, hi,
                              abs_tol=1e-14, rel_tol=1e-12).value / norm
    var = integrate_adaptive(lambda x: (x - mean) ** 2 * dens(x), lo, hi,
                             abs_tol=1e-14, rel_tol=1e-12).value / norm
    return float(norm), float(mean), float(var)


def rk4_path(f, y0, t_final, dt, breakpoints=()):
    """Fixed-step RK4 for y' = f(t, y) with y a numpy vector.

    Without breakpoints the steps are dt.  The step grid lands on every
    breakpoint inside (0, t_final), where f may have a kink or a jump:
    a step across one is only first order.  Between breakpoints the steps
    are equal and at most dt, and a stage at a breakpoint samples f one
    ulp inside the step, so a jump is seen from the side being stepped.
    Returns (times, states) sampled at every step.
    """
    inner = sorted({b for b in breakpoints if 0.0 < b < t_final})
    if inner:
        cuts = [0.0, *inner, t_final]
        ts = np.concatenate([[0.0]] + [
            np.linspace(a, b, max(1, int(np.ceil((b - a) / dt))) + 1)[1:]
            for a, b in zip(cuts, cuts[1:])])
    else:
        n = int(round(t_final / dt))
        ts = np.linspace(0.0, n * dt, n + 1)
    knots = set(inner)
    ys = np.empty((len(ts), len(y0)))
    y = np.asarray(y0, dtype=float)
    ys[0] = y
    for i in range(1, len(ts)):
        t, t_next = ts[i - 1], ts[i]
        h = t_next - t
        t_lo = np.nextafter(t, t_next) if t in knots else t
        t_hi = np.nextafter(t_next, t) if t_next in knots else t_next
        k1 = f(t_lo, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t_hi, y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        ys[i] = y
    return ts, ys
