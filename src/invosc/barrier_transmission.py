"""Transmission through the driven parabolic barrier.

Static transmission is elementary: the semiclassical estimate
exp(-eps (1 - beta)^2) and the reflection-aware form
1 / (1 + exp(eps (1 - beta)^2)), where eps measures the sub-barrier
depth in units of the barrier curvature and beta = F / (kappa omega) is
the dimensionless force.  A slow harmonic drive is handled
quasistatically: freeze the force, transmit, and average the static
result over one drive period.

The deep-tunneling asymptotics of that period average follow from
expanding the cosine in the averaging integral to quadratic order and
applying int_0^inf exp(-p (y^2 + c)^2) dy
        = (sqrt(2 c) / 4) exp(-p c^2 / 2) K_{1/4}(p c^2 / 2),
which yields  w_avg ~ A exp(-eps (1 - beta)^2)  with

    A = (1 / 2 pi) sqrt((1 - beta) / beta) exp(zeta) K_{1/4}(zeta),
    zeta = eps (1 - beta)^2 / 2.

Against the quadrature of the exact period average this form is accurate
to 2.4% at (eps, beta) = (10, 0.3) and 1.3% at (30, 0.2), improving
monotonically with eps (1 - beta)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SystemParams
from .numerics import bessel_k_quarter, integrate_adaptive


@dataclass(frozen=True)
class TunnelingParams:
    """Derived tunneling scales for a sub-barrier energy E_i < 0.

    kappa = sqrt(2 |E_i|) is the entry-momentum scale (unit mass), so
    xi0 = -kappa / omega is the classical entry point, and
    eps = 2 pi |E_i| / (hbar omega).
    """

    E_i: float
    epsilon: float
    kappa: float
    beta: float

    @classmethod
    def from_energy(cls, params: SystemParams, E_i: float,
                    F: float = 0.0) -> "TunnelingParams":
        if not math.isfinite(E_i) or E_i >= 0.0:
            raise ValueError("E_i must be a finite negative energy")
        kappa = math.sqrt(2.0 * abs(E_i))
        beta = F / (kappa * params.omega)
        if beta < 0.0:
            raise ValueError("force parameter beta must be non-negative")
        return cls(E_i=E_i,
                   epsilon=2.0 * math.pi * abs(E_i) / (params.hbar * params.omega),
                   kappa=kappa, beta=beta)

    def entry_point(self, params: SystemParams) -> float:
        return -self.kappa / params.omega


def barrier_potential(params: SystemParams, xi0: float, F: float, xi) -> float:
    """Barrier profile V(xi) = (xi0^2 - xi^2) omega^2 / 2 + F (xi0 - xi)."""
    return (xi0**2 - xi**2) * params.omega**2 / 2.0 + F * (xi0 - xi)


def _check_eps_beta(epsilon: float, beta: float) -> None:
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise ValueError("epsilon must be positive")
    if beta < 0.0 or not math.isfinite(beta):
        raise ValueError("beta must be non-negative")


def transmission_jwkb(epsilon: float, beta: float) -> float:
    """Semiclassical transmission exp(-eps (1 - beta)^2)."""
    _check_eps_beta(epsilon, beta)
    return math.exp(-epsilon * (1.0 - beta) ** 2)


def transmission_exact(epsilon: float, beta: float) -> float:
    """Reflection-aware static transmission 1 / (1 + exp(eps (1 - beta)^2)).

    Evaluated as e^-E / (1 + e^-E), which never overflows since the
    exponent is non-negative.
    """
    _check_eps_beta(epsilon, beta)
    e = math.exp(-epsilon * (1.0 - beta) ** 2)
    return e / (1.0 + e)


def averaged_transmission(epsilon: float, beta: float) -> float:
    """Static transmission averaged over one period of the drive.

    (1/2pi) int_{-pi}^{pi} dz / (1 + exp(eps (1 - beta cos z)^2)) by
    adaptive quadrature to 1e-12 relative, with no absolute floor: deep
    in the tunneling regime the average falls far below any fixed
    absolute tolerance.  A vanishing drive makes the integrand constant,
    so that case returns the static value verbatim.
    """
    _check_eps_beta(epsilon, beta)
    if beta == 0.0:
        return transmission_exact(epsilon, 0.0)

    def integrand(z: np.ndarray) -> np.ndarray:
        e = np.exp(-epsilon * (1.0 - beta * np.cos(z)) ** 2)
        return e / (1.0 + e)

    res = integrate_adaptive(integrand, -math.pi, math.pi,
                             abs_tol=0.0, rel_tol=1e-12)
    return float(res.value) / (2.0 * math.pi)


def asymptotic_prefactor(epsilon: float, beta: float) -> float:
    """Sub-unity correction A multiplying the static deep-tunneling rate.

    A = (1 / 2 pi) sqrt((1 - beta)/beta) e^zeta K_{1/4}(zeta) with
    zeta = eps (1 - beta)^2 / 2; valid for 0 < beta < 1 (the Bessel
    argument collapses as the barrier suppression point beta = 1 is
    approached).
    """
    _check_eps_beta(epsilon, beta)
    if beta >= 1.0:
        raise ValueError("asymptotic form invalid at barrier suppression")
    if beta == 0.0:
        raise ValueError("prefactor undefined for a vanishing drive")
    zeta = epsilon * (1.0 - beta) ** 2 / 2.0
    if zeta > 600.0:
        # two-term large-argument expansion of e^z K_{1/4}(z)
        ekz = math.sqrt(math.pi / (2.0 * zeta)) * (
            1.0 - 0.75 / (8.0 * zeta) + 3.28125 / (64.0 * zeta**2))
    else:
        ekz = math.exp(zeta) * bessel_k_quarter(zeta)
    return math.sqrt((1.0 - beta) / beta) / (2.0 * math.pi) * ekz


def averaged_transmission_asymptotic(epsilon: float, beta: float) -> float:
    """Deep-tunneling estimate A exp(-eps (1 - beta)^2) of the period average."""
    return asymptotic_prefactor(epsilon, beta) * math.exp(
        -epsilon * (1.0 - beta) ** 2)


def prefactor_curve(epsilon: float, betas) -> list[tuple[float, float]]:
    """Prefactor A sampled over a sequence of force parameters."""
    return [(float(b), asymptotic_prefactor(epsilon, float(b))) for b in betas]
