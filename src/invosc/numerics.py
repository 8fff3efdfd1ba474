"""Shared numerical machinery.

Adaptive Gauss-Kronrod quadrature (finite intervals and the half line),
a Cardano cubic solver with Newton refinement, the modified Bessel
function K_{1/4} through its cosh-integral representation, a split-step
Fourier solver for the time-dependent Schrodinger equation on a periodic
grid, and a fixed-step RK4 integrator for the memory-kernel (generalized
Langevin) equation of motion.

Integrands are vectorized: the quadratures call ``f`` on a 1-D float
ndarray holding every node of one or two panels, and ``f`` returns an
array of the same length, real or complex.

Everything here is deterministic and allocation-per-call; no module
state is mutated.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import (GaussianPacket, SystemParams, ZeroForce, evaluate_initial,
                   force_at)

# 15-point Kronrod abscissae on [0, 1] (descending, ending at the centre)
# with the Kronrod weights and the embedded 7-point Gauss weights (zero on
# the Kronrod-only nodes).  Values from the QUADPACK dqk15 tables.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.0,
    0.129484966168870,
    0.0,
    0.279705391489277,
    0.0,
    0.381830050505119,
    0.0,
    0.417959183673469,
)


def _full_rule(half, sign: float) -> np.ndarray:
    """Mirror a half table onto [-1, 1]: sign * half[:-1], then half reversed."""
    return np.concatenate([sign * np.array(half[:-1]), half[::-1]])


# The 15 nodes ascend from -1 to 1; the columns of _RULES are the Kronrod
# and the Gauss weights at those nodes.
_NODES = _full_rule(_XGK, -1.0)
_RULES = np.stack([_full_rule(_WGK, 1.0), _full_rule(_WG, 1.0)], axis=1)


class QuadratureError(RuntimeError):
    """Raised when adaptive refinement cannot reach the requested tolerance.

    Carries the best available estimate in the ``best`` attribute.
    """

    def __init__(self, message: str, best: "QuadratureResult | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class QuadratureResult:
    value: complex | float
    error_estimate: float
    evaluations: int


def _gk15_panels(f, edges):
    """Gauss-Kronrod 15(7) on the panels between consecutive ``edges``.

    All nodes go to f in one call.  Returns (values, errors, is_complex):
    lists of the Kronrod value and the |Kronrod - Gauss| error estimate
    of each panel, and whether f returned complex values.
    """
    mid_half = np.array([(0.5 * (b + a), 0.5 * (b - a))
                         for a, b in zip(edges, edges[1:])])
    x = (mid_half[:, :1] + mid_half[:, 1:] * _NODES).ravel()
    fx = np.asarray(f(x))
    if fx.shape != x.shape:
        raise ValueError(f"integrand returned shape {fx.shape} for nodes of "
                         f"shape {x.shape}")
    sums = np.dot(fx.reshape(len(mid_half), len(_NODES)), _RULES)
    half = mid_half[:, 1]
    return ((sums[:, 0] * half).tolist(),
            np.abs((sums[:, 0] - sums[:, 1]) * half).tolist(),
            np.iscomplexobj(fx))


def integrate_adaptive(f, lo: float, hi: float, abs_tol: float = 1e-12,
                       rel_tol: float = 1e-10, max_depth: int = 60) -> QuadratureResult:
    """Adaptively integrate ``f`` on [lo, hi] by Gauss-Kronrod bisection.

    ``f`` is called on a 1-D float ndarray of nodes (15 for the first
    panel, 30 for the two halves of a bisected one) and must return an
    array of the same length, real or complex.  The worst panel (largest
    embedded-rule error estimate) is bisected until the summed estimate
    satisfies ``max(abs_tol, rel_tol * |I|)``.

    Raises QuadratureError, carrying the best estimate, if the recursion
    depth limit is exceeded before the tolerance is met.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise ValueError(f"bad integration interval [{lo}, {hi}]")
    (value,), (err,), is_complex = _gk15_panels(f, (lo, hi))
    evals = 15
    # heap entries: (-err, tiebreak, lo, hi, value, err, depth)
    counter = 0
    heap = [(-err, counter, lo, hi, value, err, 0)]
    total_val = value
    total_err = err
    while total_err > max(abs_tol, rel_tol * abs(total_val)):
        neg_err, _, a, b, v, e, depth = heapq.heappop(heap)
        if e == 0.0:
            heapq.heappush(heap, (neg_err, counter, a, b, v, e, depth))
            break
        if depth >= max_depth or len(heap) > 100_000:
            best = QuadratureResult(total_val if is_complex else total_val.real,
                                    total_err, evals)
            raise QuadratureError(
                f"quadrature subdivision limit exceeded on [{lo}, {hi}]", best)
        m = 0.5 * (a + b)
        (v1, v2), (e1, e2), c = _gk15_panels(f, (a, m, b))
        is_complex = is_complex or c
        evals += 30
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        counter += 1
        heapq.heappush(heap, (-e1, counter, a, m, v1, e1, depth + 1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, m, b, v2, e2, depth + 1))
    out = total_val if is_complex else total_val.real
    return QuadratureResult(out, total_err, evals)


def integrate_halfline(f, abs_tol: float, first_length: float = 1.0,
                       rel_tol: float = 1e-13, small_runs: int = 2,
                       max_doublings: int = 60) -> QuadratureResult:
    """Integrate ``f`` on [0, inf) over dyadically doubling intervals.

    ``f`` follows the ``integrate_adaptive`` contract: an ndarray of
    nodes in, an array of the same length out.  The intervals are
    [0, L], [L, 3L], [3L, 7L], ... with L = ``first_length``; each is
    handled by ``integrate_adaptive`` with ``abs_tol / 16`` and the panel
    ``rel_tol``.  The sweep stops once ``small_runs`` consecutive
    intervals each contribute |part| < max(abs_tol, 1e-12 |total|), where
    ``total`` includes the part.  One small interval suffices for a
    non-negative integrand; an oscillatory one needs two, since a single
    interval may cancel by accident.

    Raises QuadratureError, carrying the best estimate, if the sweep has
    not stopped after ``max_doublings`` intervals.
    """
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")
    total = 0.0 + 0.0j
    err = 0.0
    evals = 0
    is_complex = False
    lo = 0.0
    hi = first_length
    small_run = 0
    for _ in range(max_doublings):
        res = integrate_adaptive(f, lo, hi, abs_tol=abs_tol / 16.0, rel_tol=rel_tol)
        is_complex = is_complex or isinstance(res.value, complex)
        total += res.value
        err += res.error_estimate
        evals += res.evaluations
        if abs(res.value) < max(abs_tol, 1e-12 * abs(total)):
            small_run += 1
        else:
            small_run = 0
        if small_run >= small_runs:
            out = total if is_complex else total.real
            return QuadratureResult(out, err, evals)
        lo, hi = hi, hi + 2.0 * (hi - lo)
    best = QuadratureResult(total if is_complex else total.real, err, evals)
    raise QuadratureError("half-line integral did not converge within the "
                          "doubling budget", best)


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def solve_cubic(a2: float, a1: float, a0: float) -> tuple[complex, complex, complex]:
    """Roots of the monic cubic r^3 + a2 r^2 + a1 r + a0.

    Cardano's method in the depressed form y^3 + 3p y + 2q = 0 with
    q = a2^3/27 - a2 a1/6 + a0/2,  p = (3 a1 - a2^2)/9,  D = q^2 + p^3:
    D > 0 gives one real and one conjugate pair, D < 0 three real roots
    (trigonometric branch), D = 0 a repeated root.  Each root is then
    polished by Newton iterations on the original cubic, and complex
    roots are forced into an exact conjugate pair.

    Roots are returned sorted by descending real part, then ascending
    imaginary part.
    """
    q = a2**3 / 27.0 - a2 * a1 / 6.0 + a0 / 2.0
    p = (3.0 * a1 - a2 * a2) / 9.0
    disc = q * q + p**3
    shift = a2 / 3.0
    if disc > 0.0:
        root = math.sqrt(disc)
        u = _cbrt(-q + root)
        v = _cbrt(-q - root)
        y1 = u + v
        re = -0.5 * y1
        im = 0.5 * math.sqrt(3.0) * (u - v)
        ys = [complex(y1, 0.0), complex(re, im), complex(re, -im)]
    elif disc < 0.0:
        # D < 0 forces p < 0, so the trigonometric form is well defined.
        mp = math.sqrt(-p)
        phi = math.acos(max(-1.0, min(1.0, -q / mp**3)))
        ys = [complex(2.0 * mp * math.cos((phi + 2.0 * math.pi * k) / 3.0), 0.0)
              for k in range(3)]
    else:
        c = _cbrt(-q)
        ys = [complex(2.0 * c, 0.0), complex(-c, 0.0), complex(-c, 0.0)]
    roots = [y - shift for y in ys]
    return _polish_cubic_roots(roots, a2, a1, a0,
                               1e-15 * max(1.0, abs(a2), abs(a1), abs(a0)),
                               lambda r: 1e-9 * (1.0 + abs(r)))


def _polish_cubic_roots(roots, a2: float, a1: float, a0: float,
                        res_tol: float, snap_tol) -> tuple[complex, complex, complex]:
    """Refine approximate roots of s^3 + a2 s^2 + a1 s + a0.

    Each root gets up to 12 Newton steps, keeping the iterate with the
    smallest residual and stopping once that residual is <= ``res_tol``.
    A root with |Im r| <= ``snap_tol(r)`` is put on the real axis, a
    remaining complex pair is made exactly conjugate (a lone complex
    root is snapped too), and the roots are sorted by descending real
    part, then ascending imaginary part.
    """
    def _poly(s: complex) -> complex:
        return ((s + a2) * s + a1) * s + a0

    polished = []
    for r in roots:
        best, best_res = r, abs(_poly(r))
        cur = r
        for _ in range(12):
            fp = (3.0 * cur + 2.0 * a2) * cur + a1
            if fp == 0:
                break
            nxt = cur - _poly(cur) / fp
            res = abs(_poly(nxt))
            if res < best_res:
                best, best_res = nxt, res
            if res <= res_tol or nxt == cur:
                break
            cur = nxt
        polished.append(best)

    snapped = [complex(r.real, 0.0) if abs(r.imag) <= snap_tol(r) else r
               for r in polished]
    cplx = [r for r in snapped if r.imag != 0.0]
    if len(cplx) == 2:
        w = 0.5 * (cplx[0] + cplx[1].conjugate())
        real_part = [r for r in snapped if r.imag == 0.0]
        snapped = real_part + [complex(w.real, abs(w.imag)),
                               complex(w.real, -abs(w.imag))]
    elif len(cplx) == 1:
        snapped = [complex(r.real, 0.0) for r in snapped]
    return tuple(sorted(snapped, key=lambda s: (-s.real, s.imag)))


def bessel_k_quarter(z: float) -> float:
    """Modified Bessel function of the second kind of order 1/4.

    Uses the representation K_nu(z) = \\int_0^inf exp(-z cosh u) cosh(nu u) du,
    truncated where the exponent argument has decayed past 750, and
    evaluated by adaptive quadrature to a 1e-11 relative tolerance.
    """
    if not (z > 0.0) or not math.isfinite(z):
        raise ValueError("bessel_k_quarter requires z > 0")
    u_max = math.acosh(max(765.0 / z, 2.0))

    def integrand(u: np.ndarray) -> np.ndarray:
        ex = -z * np.cosh(u)
        return np.where(ex < -745.0, 0.0, np.exp(ex) * np.cosh(0.25 * u))

    res = integrate_adaptive(integrand, 0.0, u_max, abs_tol=0.0, rel_tol=1e-11)
    return float(res.value)


# ---------------------------------------------------------------------------
# Grid Schrodinger oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GridState:
    """Wavefunction samples on a uniform periodic grid.

    ``psi[i]`` is the amplitude at ``x_min + i * dx``; the right endpoint
    ``x_max`` is excluded (periodic convention of the discrete Fourier
    transform).  Treated as an immutable value: evolution returns a new
    instance.
    """

    x_min: float
    x_max: float
    n: int
    dx: float
    psi: np.ndarray
    t: float

    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.dx)


def grid_from_packet(packet: GaussianPacket, params: SystemParams,
                     x_min: float, x_max: float, n: int) -> GridState:
    """Sample a Gaussian packet on the grid and normalize discretely."""
    if n <= 0 or n & (n - 1) != 0:
        raise ValueError("grid size n must be a power of two")
    if not x_min < x_max:
        raise ValueError("x_min must be below x_max")
    dx = (x_max - x_min) / n
    x = x_min + dx * np.arange(n)
    psi = evaluate_initial(packet, params, x).astype(complex)
    psi = psi / math.sqrt(float(np.sum(np.abs(psi) ** 2) * dx))
    return GridState(x_min=x_min, x_max=x_max, n=n, dx=dx, psi=psi, t=0.0)


def _absorber_mask(n: int, width: int) -> np.ndarray:
    mask = np.ones(n)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(width) / width))
    mask[:width] = ramp
    mask[n - width:] = ramp[::-1]
    return mask


def _evolve_grid(grid: GridState, v_static: np.ndarray, force, t_final: float,
                 dt: float, absorber_points: int | None, hbar: float) -> GridState:
    """Strang-split evolution under the potential v_static(x) - F(t) x.

    The force is sampled at every step midpoint in one ``force_at`` call.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not t_final > grid.t:
        raise ValueError("t_final must exceed the current grid time")
    x = grid.x()
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    psi = grid.psi.copy()
    mask = _absorber_mask(grid.n, absorber_points) if absorber_points else None
    edge = 5

    t = grid.t
    remaining = t_final - t
    n_full = int(math.floor(remaining / dt + 1e-12))
    steps = [dt] * n_full
    leftover = remaining - n_full * dt
    if leftover > 1e-12 * dt:
        steps.append(leftover)
    kinetic = {h: np.exp(-0.5j * hbar * k**2 * h) for h in set(steps)}
    midpoints = []
    for h in steps:
        midpoints.append(t + 0.5 * h)
        t += h
    for h, f_mid in zip(steps, force_at(force, np.array(midpoints))):
        half = np.exp(-0.5j * (v_static - f_mid * x) * h / hbar)
        psi = half * np.fft.ifft(kinetic[h] * np.fft.fft(half * psi))
        if mask is not None:
            psi = psi * mask
        else:
            edge_prob = float((np.sum(np.abs(psi[:edge]) ** 2)
                               + np.sum(np.abs(psi[-edge:]) ** 2)) * grid.dx)
            if edge_prob > 1e-6:
                raise RuntimeError("domain too small: probability reached the "
                                   "grid boundary (add an absorber or widen the box)")
    return GridState(x_min=grid.x_min, x_max=grid.x_max, n=grid.n,
                     dx=grid.dx, psi=psi, t=t_final)


def schrodinger_grid_evolve(params: SystemParams, grid: GridState, force,
                            t_final: float, dt: float,
                            absorber_points: int | None = None) -> GridState:
    """Split-step Fourier evolution under the inverted-oscillator potential.

    The potential is -omega^2 x^2 / 2 - F(t) x with the force sampled at
    step midpoints; kinetic steps are exact unitary spectral phases on
    the periodic grid.  Without an absorbing mask, probability reaching
    within five points of the boundary above 1e-6 raises an error.
    """
    v_barrier = -0.5 * params.omega**2 * grid.x() ** 2
    return _evolve_grid(grid, v_barrier, force, t_final, dt, absorber_points,
                        params.hbar)


def free_grid_evolve(params: SystemParams, grid: GridState, t_final: float,
                     dt: float) -> GridState:
    """Kinetic-only evolution (zero potential); exact for any dt on the grid."""
    return _evolve_grid(grid, np.zeros(grid.n), ZeroForce(), t_final, dt, None,
                        params.hbar)


# ---------------------------------------------------------------------------
# Memory-kernel ODE oracle
# ---------------------------------------------------------------------------

def langevin_ode_oracle(params: SystemParams, bath, t_final: float,
                        dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Impulse response of the damped inverted oscillator by direct RK4.

    Integrates the extended system x' = v, v' = omega^2 x - w,
    w' = -omega_d w + gamma omega_d v, which reproduces the exponential
    memory integral exactly when w(0) = 0, from x(0) = 0, v(0) = 1.
    Returns (times, x samples) including t = 0.
    """
    if dt <= 0.0 or t_final <= 0.0:
        raise ValueError("t_final and dt must be positive")
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
        if abs(x) > 1e200:
            raise RuntimeError("RK4 trajectory overflow; use a smaller dt")
        ts[i] = i * dt
        xs[i] = x
    return ts, xs
