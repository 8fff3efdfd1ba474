"""Classical trajectory of the driven inverted oscillator and its action.

The equation of motion is xi'' - omega^2 xi = F(t) (unit mass), solved in
closed form through the hyperbolic fundamental system plus a convolution
of the force with sinh(omega (t - s)) / omega.  The Lagrangian integral
along that trajectory supplies the phase of the exact quantum evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DeltaKick, ForceProfile, SystemParams, ZeroForce, force_at
from .numerics import integrate_adaptive

_TRAJ_RTOL = 1e-12   # trajectories feed phases scaled by 1/hbar
_ACTION_RTOL = 1e-10


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    xi: float
    xi_dot: float


def _check_args(force: ForceProfile, t: float) -> None:
    if isinstance(force, DeltaKick):
        raise ValueError("delta kicks are handled by the closed evolution module")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0.0:
        raise ValueError("t must be non-negative")


def trajectory(params: SystemParams, x0: float, p0: float,
               force: ForceProfile, t: float) -> TrajectoryPoint:
    """Position and velocity at time t for initial data (x0, p0).

    xi(t)     = x0 cosh(om t) + (p0/om) sinh(om t)
                + (1/om) int_0^t F(s) sinh(om (t-s)) ds
    xi_dot(t) = x0 om sinh(om t) + p0 cosh(om t)
                + int_0^t F(s) cosh(om (t-s)) ds
    """
    _check_args(force, t)
    om = params.omega
    ch, sh = math.cosh(om * t), math.sinh(om * t)
    xi = x0 * ch + p0 / om * sh
    xi_dot = x0 * om * sh + p0 * ch
    if t > 0.0 and not isinstance(force, ZeroForce):
        conv_s = integrate_adaptive(
            lambda s: force_at(force, s) * np.sinh(om * (t - s)),
            0.0, t, abs_tol=1e-15, rel_tol=_TRAJ_RTOL)
        conv_c = integrate_adaptive(
            lambda s: force_at(force, s) * np.cosh(om * (t - s)),
            0.0, t, abs_tol=1e-15, rel_tol=_TRAJ_RTOL)
        xi += conv_s.value / om
        xi_dot += conv_c.value
    return TrajectoryPoint(t=t, xi=xi, xi_dot=xi_dot)


def lagrangian_action(params: SystemParams, x0: float, p0: float,
                      force: ForceProfile, t: float) -> float:
    """Action integral int_0^t [xi_dot^2/2 + omega^2 xi^2/2 + xi F(s)] ds.

    The integrand is evaluated on the closed-form trajectory, so the
    cost is a nested quadrature for non-trivial force profiles.
    """
    _check_args(force, t)
    if t == 0.0:
        return 0.0
    om2 = params.omega**2

    def integrand(s: np.ndarray) -> np.ndarray:
        points = [trajectory(params, x0, p0, force, float(si)) for si in s]
        xi = np.array([point.xi for point in points])
        xi_dot = np.array([point.xi_dot for point in points])
        return 0.5 * xi_dot**2 + 0.5 * om2 * xi**2 + xi * force_at(force, s)

    res = integrate_adaptive(integrand, 0.0, t, abs_tol=1e-14, rel_tol=_ACTION_RTOL)
    return float(res.value)
