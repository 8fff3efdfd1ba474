"""Exact quantum evolution over the inverted barrier with a driving force.

Quadratic Hamiltonians keep Gaussians Gaussian, so the evolved state is
carried as a handful of numbers: the classical center (xi, xi_dot), the
complex spreading factor Gamma(t) = cosh(om t) + i (hbar / 2 om sigma^2)
sinh(om t), and the accumulated classical phase.  The wavefunction is
reconstructed from them as

    psi(x, t) = (2 pi sigma^2)^(-1/4) Gamma^(-1/2)
                * exp( (i om / 2 hbar) (Gamma'/om Gamma) (x - xi)^2 )
                * exp( (i/hbar) [xi_dot (x - xi) + phase_action] ),

which was validated pointwise, constant phase included, against direct
quadrature of the propagator integral and against the split-step grid
solver.  The probability density has mean xi(t) and variance
sigma^2 |Gamma(t)|^2, and the norm is conserved identically.

The propagator itself is the usual quadratic-action Gaussian kernel with
hyperbolic rather than trigonometric coefficients; its phase is the
classical action assembled from two single force integrals and one
ordered double integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical_dynamics import lagrangian_action, trajectory
from .core import (DeltaKick, ForceProfile, GaussianPacket, SystemParams,
                   ZeroForce, force_at)
from .numerics import integrate_adaptive

_MIN_ELAPSED_FACTOR = 1e-9  # propagator degenerates to a delta at theta -> 0


@dataclass(frozen=True)
class PropagatorValue:
    value: complex
    action: float


@dataclass(frozen=True)
class EvolvedGaussian:
    """Closed-form Gaussian state at time t.

    ``phase_action`` is the x-independent classical phase (Lagrangian
    action along the center trajectory plus the momentum-boost constants);
    ``norm_prefactor`` is (2 pi sigma^2)^(-1/4) Gamma(t)^(-1/2).
    """

    t: float
    xi: float
    xi_dot: float
    gamma_factor: complex
    phase_action: float
    norm_prefactor: complex


def _gamma_pair(params: SystemParams, sigma: float, t: float) -> tuple[complex, complex]:
    """Gamma(t) and its derivative divided by omega."""
    eps = params.hbar / (2.0 * params.omega * sigma**2)
    ch, sh = math.cosh(params.omega * t), math.sinh(params.omega * t)
    return complex(ch, eps * sh), complex(sh, eps * ch)


def _check_elapsed(params: SystemParams, t: float, t1: float) -> float:
    theta = t - t1
    if not (math.isfinite(t) and math.isfinite(t1)):
        raise ValueError("times must be finite")
    if theta <= 0.0:
        raise ValueError("non-positive elapsed time")
    if theta < _MIN_ELAPSED_FACTOR / params.omega:
        raise ValueError("elapsed time below the resolvable minimum; the kernel "
                         "degenerates to a delta distribution")
    return theta


def action_S(params: SystemParams, x, t: float, x1, t1: float,
             force: ForceProfile) -> float:
    """Classical action of the propagator between (x1, t1) and (x, t).

    S = om/(2 sinh om theta) [ cosh(om theta)(x^2 + x1^2) - 2 x x1
        + (2x/om)  int F(s) sinh(om (s - t1)) ds
        + (2x1/om) int F(s) sinh(om (t - s))  ds
        - (2/om^2) int_{t1<=s1<=s<=t} F(s) F(s1) sinh(om (t - s))
                                       sinh(om (s1 - t1)) ds1 ds ].

    Endpoints may be complex (used by contour-based semigroup checks);
    real endpoints give a real action.
    """
    if isinstance(force, DeltaKick):
        raise ValueError("delta kicks are handled by their own closed form")
    theta = _check_elapsed(params, t, t1)
    om = params.omega
    sh, ch = math.sinh(om * theta), math.cosh(om * theta)
    bracket = ch * (x * x + x1 * x1) - 2.0 * x * x1
    if not isinstance(force, ZeroForce):
        def rising(s):
            return force_at(force, s) * np.sinh(om * (s - t1))

        i1 = integrate_adaptive(rising, t1, t, abs_tol=1e-15, rel_tol=1e-12).value
        i2 = integrate_adaptive(
            lambda s: force_at(force, s) * np.sinh(om * (t - s)),
            t1, t, abs_tol=1e-15, rel_tol=1e-12).value

        def inner(s: float) -> float:
            if s == t1:
                return 0.0
            return integrate_adaptive(rising, t1, s, abs_tol=1e-16,
                                      rel_tol=1e-11).value

        def outer(s: np.ndarray) -> np.ndarray:
            inners = np.array([inner(float(si)) for si in s])
            return force_at(force, s) * np.sinh(om * (t - s)) * inners

        i3 = integrate_adaptive(outer, t1, t, abs_tol=1e-15, rel_tol=1e-10).value
        bracket = bracket + (2.0 * x / om) * i1 + (2.0 * x1 / om) * i2 \
            - (2.0 / om**2) * i3
    out = om / (2.0 * sh) * bracket
    if isinstance(out, complex) or np.iscomplexobj(out):
        return out
    return float(out)


def propagator(params: SystemParams, x, t: float, x1, t1: float,
               force: ForceProfile) -> PropagatorValue:
    """Time-evolution kernel K(x, t | x1, t1).

    K = sqrt(om / (2 pi i hbar sinh(om theta))) exp(i S / hbar) on the
    principal square-root branch, i.e. modulus
    sqrt(om / (2 pi hbar sinh(om theta))) times a constant phase
    exp(-i pi / 4).
    """
    theta = _check_elapsed(params, t, t1)
    s_val = action_S(params, x, t, x1, t1, force)
    pref = np.sqrt(params.omega /
                   (2.0j * math.pi * params.hbar * math.sinh(params.omega * theta)))
    return PropagatorValue(value=complex(pref * np.exp(1j * s_val / params.hbar)),
                           action=s_val)


def evolve_gaussian(params: SystemParams, packet: GaussianPacket,
                    force: ForceProfile, t: float) -> EvolvedGaussian:
    """Evolve the initial packet to time t under a pointwise force profile."""
    if isinstance(force, DeltaKick):
        raise ValueError("use evolve_delta_kick / delta_kick_at for kicks")
    if not math.isfinite(t) or t < 0.0:
        raise ValueError("t must be finite and non-negative")
    point = trajectory(params, packet.x0, packet.p0, force, t)
    gamma, _ = _gamma_pair(params, packet.sigma, t)
    action = lagrangian_action(params, packet.x0, packet.p0, force, t)
    norm = (2.0 * math.pi * packet.sigma**2) ** -0.25 / np.sqrt(gamma)
    return EvolvedGaussian(t=t, xi=point.xi, xi_dot=point.xi_dot,
                           gamma_factor=gamma,
                           phase_action=action + packet.p0 * packet.x0,
                           norm_prefactor=complex(norm))


def evaluate(ev: EvolvedGaussian, params: SystemParams,
             packet: GaussianPacket, x):
    """Wavefunction psi(x, t) of an evolved Gaussian; x may be an array."""
    gamma, gamma_tilde = _gamma_pair(params, packet.sigma, ev.t)
    # i Gamma'/(om Gamma) = (-eps + i (1 + eps^2) sinh cosh) / |Gamma|^2, split
    # by hand: formed as a quotient, its real part is the difference of two
    # numbers close to one and cancels at long times.
    eps = params.hbar / (2.0 * params.omega * packet.sigma**2)
    ch, sh = gamma.real, gamma_tilde.real
    width = (0.5 * params.omega / params.hbar
             * complex(-eps, (1.0 + eps * eps) * sh * ch)
             / (ch * ch + eps * eps * sh * sh))
    y = np.asarray(x) - ev.xi
    out = ev.norm_prefactor * np.exp(
        width * y * y + 1j * (ev.xi_dot * y + ev.phase_action) / params.hbar)
    if np.isscalar(x) or np.ndim(x) == 0:
        return complex(out)
    return out


def evolve_delta_kick(params: SystemParams, packet: GaussianPacket,
                      p: float, t: float) -> EvolvedGaussian:
    """Kick the fresh packet at t = 0 with momentum p, then coast to t.

    The kick multiplies the state by exp(i p x / hbar), boosting the
    momentum to P = p0 + p; the subsequent motion is governed by the
    static barrier alone, with center
    xi(t) = x0 cosh(om t) + (P / om) sinh(om t).
    """
    boosted = GaussianPacket(x0=packet.x0, p0=packet.p0 + p, sigma=packet.sigma)
    return evolve_gaussian(params, boosted, ZeroForce(), t)


def delta_kick_at(params: SystemParams, packet: GaussianPacket,
                  p: float, t1: float, t: float) -> EvolvedGaussian:
    """Coast to t1, apply a momentum boost p, coast on to t.

    Gaussians compose exactly: the spreading factor depends only on the
    total time, the center follows the piecewise classical trajectory
    with a velocity jump at t1, and the boost adds p * xi(t1) to the
    accumulated phase.
    """
    if not (0.0 <= t1 <= t) or not math.isfinite(t):
        raise ValueError("need 0 <= t1 <= t")
    if p == 0.0:
        return evolve_gaussian(params, packet, ZeroForce(), t)
    om = params.omega
    seg1 = trajectory(params, packet.x0, packet.p0, ZeroForce(), t1)
    v_after = seg1.xi_dot + p
    tau = t - t1
    xi = seg1.xi * math.cosh(om * tau) + v_after / om * math.sinh(om * tau)
    xi_dot = seg1.xi * om * math.sinh(om * tau) + v_after * math.cosh(om * tau)
    phase = (lagrangian_action(params, packet.x0, packet.p0, ZeroForce(), t1)
             + p * seg1.xi
             + lagrangian_action(params, seg1.xi, v_after, ZeroForce(), tau)
             + packet.p0 * packet.x0)
    gamma, _ = _gamma_pair(params, packet.sigma, t)
    norm = (2.0 * math.pi * packet.sigma**2) ** -0.25 / np.sqrt(gamma)
    return EvolvedGaussian(t=t, xi=xi, xi_dot=xi_dot, gamma_factor=gamma,
                           phase_action=phase, norm_prefactor=complex(norm))
