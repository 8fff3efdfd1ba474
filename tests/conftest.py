"""Shared oracle helpers for the test suite."""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from invosc import evaluate, integrate_adaptive

# the interpreters that the tests start import invosc from this checkout too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))

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


def _mp_green(mp, params, bath):
    """The poles s_j of G and its residues R_j, G(t) = sum_j R_j e^(s_j t)."""
    om2, wd, gam = mp.mpf(params.omega) ** 2, mp.mpf(bath.omega_d), mp.mpf(bath.gamma)
    poles = mp.polyroots([1, wd, gam * wd - om2, -om2 * wd], extraprec=200)
    return poles, [(s + wd) / (3 * s * s + 2 * wd * s + gam * wd - om2) for s in poles]


def mp_zero_point_term(params, bath, t):
    """The rate integral of the zero-point term, (hbar gamma / pi) int_0^inf
    dnu omega_d^2 / (omega_d^2 - nu^2) [omega_d V_omega_d - nu V_nu], in
    mpmath.  V_nu(t) is summed in closed form over the poles and residues of
    G, as a Van Loan exponential would need omega_d t / ln 10 digits at a
    fast bath.  Those sums cancel where t is short or two poles nearly
    coincide, so the precision starts at 30 digits and grows by 20 until nu
    V_nu at every power of 10 across the cuts of the integral agrees with 20
    more digits to 1e-16, and the integrand takes those 20 more digits.  The
    quadrature, of the integrand over f(0) and past the last cut in 1 / nu,
    runs to 25 digits where its error estimate is within 1e-15 of the value,
    else to the integrand's."""
    mp = pytest.importorskip("mpmath")
    wd = bath.omega_d

    def rate_v():   # nu -> 2 nu Re sum_jk R_j R_k [E(s_j + s_k) - E(s_j - nu)] / (s_k + nu)
        poles, res = _mp_green(mp, params, bath)

        def grow(c):   # int_0^t e^(c s) ds
            return mp.expm1(c * t) / c

        both = [[grow(s + p) for p in poles] for s in poles]

        def value(nu):
            w = [r / (p + nu) for r, p in zip(res, poles)]
            return 2 * nu * mp.re(sum(r * (mp.fdot(w, row) - grow(s - nu) * sum(w))
                                      for r, s, row in zip(res, poles, both)))
        return value

    # from nu = 1e-12 omega_d, below which f(0) = omega_d V_omega_d holds to
    # 1e-24 and the residue sums would cancel without bound
    cuts = sorted({1e-12 * wd, *(wd * 10.0**k for k in range(-8, 9, 4)),
                   *(c for c in (10.0**k / t for k in range(-2, 3)) if abs(c / wd - 1) > 0.1)})
    probes = [10.0**k for k in range(math.floor(math.log10(cuts[0])),
                                     math.ceil(math.log10(cuts[-1])) + 1)]
    cuts = sorted({*cuts, *(c for c in probes[::4] if abs(c / wd - 1) > 0.1)})
    dps = 30
    while True:
        with mp.workdps(dps + 20):
            fine = rate_v()
            fine = [fine(mp.mpf(c)) for c in probes]
        with mp.workdps(dps):
            value = rate_v()
            settled = all(abs(value(mp.mpf(c)) - f) <= 1e-16 * abs(f)
                          for c, f in zip(probes, fine))
        if settled:
            break
        dps += 20
    with mp.workdps(dps + 20):
        value = rate_v()
        at_cutoff = value(mp.mpf(wd))

    def integrand(nu):
        with mp.workdps(dps + 20):
            return +(wd**2 / ((wd - nu) * (wd + nu)) * (1 - value(nu) / at_cutoff))

    for digits in (25, dps + 20):
        with mp.workdps(digits):
            body, error = mp.quad(integrand, [mp.mpf(c) for c in cuts], error=True)
            tail, tail_error = mp.quad(lambda u: integrand(1 / u) / u**2,
                                       [0, 1 / mp.mpf(cuts[-1])], error=True)
            total = body + tail
            if error + tail_error <= 1e-15 * abs(total):
                break
    with mp.workdps(dps + 20):
        return float(params.hbar * bath.gamma / mp.pi * at_cutoff * (cuts[0] + total))


def mp_occupation_term(params, bath, t):
    """The occupation term 2 int_0^inf hbar J(w) n(w) |W(w, t)|^2 dw / pi as
    a frequency integral in 30-digit mpmath.  W = e^(-iwt) P - Q with
    P = sum_j R_j e^(s_j t) / (s_j - iw) and Q = sum_j R_j / (s_j - iw): the
    part |P|^2 + |Q|^2 of |W|^2 by quad over decades out to 40 kT / hbar,
    the part -2 Re(e^(-iwt) P conj(Q)) past 10 / t by quadosc."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        wd, gam = mp.mpf(bath.omega_d), mp.mpf(bath.gamma)
        kT, hbar, t = mp.mpf(bath.kT), mp.mpf(params.hbar), mp.mpf(t)
        poles, res = _mp_green(mp, params, bath)
        grown = [r * mp.exp(s * t) for r, s in zip(res, poles)]

        def spectrum(w):   # 2 hbar J n / pi
            return 2 * hbar * gam * w * wd**2 / ((w * w + wd * wd) * mp.expm1(hbar * w / kT)
                                                 * mp.pi)

        def parts(w):
            d = [s - 1j * w for s in poles]
            return sum(g / x for g, x in zip(grown, d)), sum(r / x for r, x in zip(res, d))

        def smooth(w):
            p, q = parts(w)
            return spectrum(w) * (abs(p) ** 2 + abs(q) ** 2)

        def wave(w):
            p, q = parts(w)
            return -2 * spectrum(w) * mp.re(mp.exp(-1j * w * t) * p * mp.conj(q))

        cut = 40 * kT / hbar
        cuts = sorted({mp.mpf(0), wd, 1 / t, cut,
                       *(mp.mpf(10) ** k for k in range(-3, 40) if mp.mpf(10) ** k < cut)})
        total = mp.quad(smooth, cuts + [mp.inf])
        total += mp.quad(wave, [c for c in cuts if c < 10 / t] + [10 / t])
        total += mp.quadosc(wave, [10 / t, mp.inf], omega=t)
        return float(total)
