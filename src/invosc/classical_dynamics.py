"""Classical trajectory of the driven inverted oscillator and its action.

The equation of motion is xi'' - omega^2 xi = F(t) (unit mass).  Time is
cut into pieces on which F is linear (split at the knots of a tabulated
force) or A sin(omega0 s), and at each delta kick p delta(s - t1), where
xi_dot jumps by p and the action gains p xi(t1).  On each piece the path
is the free hyperbolic motion plus the response from rest to F, both in
closed form, and the Lagrangian integral, the phase of the exact quantum
evolution, follows by parts in the same sweep.  Nothing is integrated
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ForceProfile, HarmonicForce, SystemParams, force_pieces


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    xi: float
    xi_dot: float


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0.0:
        raise ValueError("t must be non-negative")


# phi_m(x) = sum_k x^(2k) / (2k + m)!: sinh x / x, (cosh x - 1) / x^2,
# (sinh x - x) / x^3, ...  Summed as a series up to x = 2, where the
# closed forms would cancel.
_PHI_SERIES = [[1.0 / math.factorial(2 * k + m) for k in range(16)][::-1]
               for m in range(6)]


def _phi(m: int, x: float) -> float:
    if x > 2.0:
        head = sum(x**k / math.factorial(k) for k in range(m % 2, m, 2))
        return ((math.sinh(x) if m % 2 else math.cosh(x)) - head) / x**m
    out = 0.0
    for c in _PHI_SERIES[m]:
        out = out * x * x + c
    return out


def _response(om: float, force: ForceProfile, a: float, b: float, fa: float,
              fb: float, ch: float, sh: float) -> tuple[float, float, float]:
    """r(b), r'(b) and int_a^b r F ds for r'' - om^2 r = F, r(a) = r'(a) = 0,
    where F is A sin(omega0 s) or linear from fa to fb on [a, b] and
    ch, sh are cosh, sinh of om (b - a)."""
    if isinstance(force, HarmonicForce):
        # r = xi_p - g: xi_p = c sin(omega0 s) less the free motion from its data at a
        amp, w = force.amplitude, force.omega0
        c = -amp / (om * om + w * w)
        pa, dpa = c * math.sin(w * a), c * w * math.cos(w * a)
        pb, dpb = c * math.sin(w * b), c * w * math.cos(w * b)
        g, dg = pa * ch + dpa / om * sh, pa * om * sh + dpa * ch
        q = c * amp * ((b - a) - math.sin(w * (b - a)) * math.cos(w * (a + b)) / w) / 2
        return pb - g, dpb - dg, q - g * dpb + dg * pb
    if fa == fb == 0.0:
        return 0.0, 0.0, 0.0
    tau, x, df = b - a, om * (b - a), fb - fa
    p2, p3 = _phi(2, x), _phi(3, x)
    return (tau * tau * (fa * p2 + df * p3),
            tau * (fa * _phi(1, x) + df * p2),
            tau**3 * (fa * fb * p3 + df * df * (_phi(4, x) - _phi(5, x))))


def _classical_path(params: SystemParams, x0, v0, force: ForceProfile,
                    t0: float, t: float, kicks=()):
    """(xi, xi_dot, int_t0^t L ds) at t on the path leaving (x0, v0) at t0,
    with L = xi_dot^2/2 + omega^2 xi^2/2 + xi F; complex x0, v0 pass through.
    Each (t_k, p_k) of the sorted ``kicks`` with t0 <= t_k <= t adds the force
    p_k delta(s - t_k): the sweep is cut there, xi_dot jumps by p_k and the
    action gains p_k xi(t_k)."""
    om = params.omega
    xi, xi_dot, action = x0, v0, 0.0
    cuts = [(t_k, p_k) for t_k, p_k in kicks if t0 <= t_k <= t]
    for end, p in [*cuts, (t, 0.0)]:
        for a, b, fa, fb in force_pieces(force, t0, end):
            ch, sh = math.cosh(om * (b - a)), math.sinh(om * (b - a))
            h, dh = xi * ch + xi_dot / om * sh, xi * om * sh + xi_dot * ch
            r, dr, q = _response(om, force, a, b, fa, fb, ch, sh)
            xi_b, xi_dot_b = h + r, dh + dr
            # int L = [xi xi_dot]/2 + int xi F / 2, and int h F = h r' - h' r
            action += 0.5 * (xi_b * xi_dot_b - xi * xi_dot + h * dr - dh * r + q)
            xi, xi_dot = xi_b, xi_dot_b
        if p:
            action += p * xi
            xi_dot += p
        t0 = end
    return xi, xi_dot, action


def trajectory(params: SystemParams, x0: float, p0: float,
               force: ForceProfile, t: float) -> TrajectoryPoint:
    """Position and velocity at time t for initial data (x0, p0) at 0;
    without a force, xi(t) = x0 cosh(om t) + (p0/om) sinh(om t)."""
    _check_time(t)
    xi, xi_dot, _ = _classical_path(params, x0, p0, force, 0.0, t)
    return TrajectoryPoint(t=t, xi=xi, xi_dot=xi_dot)


def lagrangian_action(params: SystemParams, x0: float, p0: float,
                      force: ForceProfile, t: float) -> float:
    """Action integral int_0^t [xi_dot^2/2 + omega^2 xi^2/2 + xi F(s)] ds
    along the classical path from (x0, p0)."""
    _check_time(t)
    return _classical_path(params, x0, p0, force, 0.0, t)[2]
