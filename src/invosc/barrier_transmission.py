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
from .numerics import integrate_tanh_sinh, integrate_trapezoid, scaled_bessel_k_quarter

# eta(1/2) = (1 - sqrt 2) zeta(1/2); over the real line int dy / (1 + e^(y^2))
# is sqrt(pi) eta(1/2), and int y^2 dy / (1 + e^(y^2)) is sqrt(pi) eta(3/2) / 2
_ETA_HALF = 0.6048986434216304
_ETA_RATIO = 0.6324588697185094   # eta(3/2) / (2 eta(1/2))


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


def barrier_potential(params: SystemParams, xi0: float, F, xi):
    """Barrier profile V(xi) = (xi0^2 - xi^2) omega^2 / 2 + F (xi0 - xi), for
    scalars or arrays F, xi; a V past the float range is an ArithmeticError."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = (np.square(xi0) - np.square(xi)) * params.omega**2 / 2.0 + F * (xi0 - xi)
    if not np.isfinite(v).all():
        raise ArithmeticError(
            f"barrier potential V out of the float range at xi0={xi0:g}, "
            f"|xi| <= {np.max(np.abs(xi)):g}, |F| <= {np.max(np.abs(F)):g}")
    return v


def _check_eps_beta(epsilon: float, beta) -> None:
    """Reject a non-positive epsilon, or a negative beta (one value or an
    array); either must also be finite."""
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise ValueError("epsilon must be positive")
    if not np.all((np.asarray(beta) >= 0.0) & np.isfinite(beta)):
        raise ValueError("beta must be non-negative")


def _as_output(values: np.ndarray, like):
    """A float for a scalar input, else the array in the input's shape."""
    values = np.reshape(values, np.shape(like))
    return float(values) if values.ndim == 0 else values


def transmission_jwkb(epsilon: float, beta):
    """Semiclassical transmission exp(-eps (1 - beta)^2), for a scalar or an
    array of beta; past the float range of (1 - beta)^2 it is 0."""
    _check_eps_beta(epsilon, beta)
    with np.errstate(over="ignore"):   # exp(-inf) = 0
        b = np.asarray(beta, dtype=float)
        return _as_output(np.exp(-epsilon * (1.0 - b) ** 2), beta)


def transmission_exact(epsilon: float, beta):
    """Reflection-aware static transmission 1 / (1 + exp(eps (1 - beta)^2)),
    for a scalar or an array of beta, evaluated as e^-E / (1 + e^-E), which
    never overflows since the exponent is non-negative."""
    e = transmission_jwkb(epsilon, beta)
    return e / (1.0 + e)


def averaged_transmission(epsilon: float, beta):
    """Static transmission averaged over one period of the drive, for a
    scalar or an array of beta; a float in gives a float out.

    (1/pi) int_0^pi dz / (1 + exp(eps y^2)), y = 1 - beta cos z, written once
    in the offset delta from the peak: y = (1 - c) + 2 c sin^2(delta / 2) +
    S sin delta, c = min(beta, 1), S = sqrt(beta - 1) sqrt(beta + 1) (0 for
    beta <= 1); beta = 0 gives the static value.  For 0 < beta <= 1 the peak
    is at z = delta = 0 and the integrand is analytic and periodic: each
    such beta is one row of one trapezoid call on [0, pi], which stops once
    two successive sums agree to max(1e-14, 8 ulp (eps (1 - beta)^2 +
    sqrt(eps))), the floor the rounding of the exponent puts on their
    agreement.  At the half-width w = (2 / peak)^(1/2), peak = beta
    (hypot(g, sqrt(eps)) + g), g = eps (1 - beta), eps y^2 exceeds its crest
    by 1; a row with w < 1e-2, which needs more nodes than that rule allows
    from eps ~ 1e12 at beta = 1, goes to the tanh-sinh rule
    (``numerics.integrate_tanh_sinh``, to 1e-14 relative) with delta from 0
    to 64 w, beyond which the integrand is below e^-1600 of its crest.

    Above suppression the peak is at z0 = atan(S), cos z0 = 1/beta, in a
    window of half-width ~ 1/(S sqrt(eps)) that uniform nodes in z may miss
    and that is narrower than the float spacing of z for beta >> 1: each
    such beta is two rows of one tanh-sinh call, delta from 0 to -z0 and to
    pi - z0, whose nodes crowd towards the peak.

    For beta >> 1, with u = beta cos z the average is eta(1/2) / (beta
    sqrt(pi eps)) [1 + (1 + c' / eps) / (2 beta^2) + O(beta^-4)],
    c' = eta(3/2) / (2 eta(1/2)).  The next term is below (3/8) x^2,
    x = (1 + 2 / eps) / beta^2; once x^2 is below rounding (from beta ~ 1e4
    at eps = 3), this corrected limit is returned.
    """
    _check_eps_beta(epsilon, beta)
    betas = np.asarray(beta, dtype=float).ravel()
    out = np.full_like(betas, transmission_exact(epsilon, 0.0))   # kept at beta = 0

    def transmission(delta: np.ndarray, c, s) -> np.ndarray:
        h = np.sin(0.5 * delta)   # sin delta = 2 h sqrt(1 - h^2), |delta| <= pi
        y = (1.0 - c) + 2.0 * h * (c * h + s * np.sqrt(1.0 - h * h))
        e = np.exp(-epsilon * y * y)
        return e / (1.0 + e)

    periodic = np.flatnonzero((betas > 0.0) & (betas <= 1.0))
    b = betas[periodic]
    g = epsilon * (1.0 - b)
    with np.errstate(over="ignore"):   # an infinite peak is a narrow row
        peak = b * (np.hypot(g, math.sqrt(epsilon)) + g)
    narrow = peak > 2e4   # w < 1e-2
    out[periodic[narrow]] = integrate_tanh_sinh(
        transmission, 0.0, 64.0 * np.sqrt(2.0 / peak[narrow]), 1e-14, b[narrow],
        0.0).value / math.pi
    periodic, b = periodic[~narrow], b[~narrow]
    rel_tol = np.maximum(1e-14, 8.0 * math.ulp(1.0) * (
        epsilon * (1.0 - b) ** 2 + math.sqrt(epsilon)))
    out[periodic] = integrate_trapezoid(transmission, 0.0, math.pi, rel_tol,
                                        b, 0.0).value / math.pi

    above = np.flatnonzero(betas > 1.0)
    b = betas[above]
    limit = (1.0 + 2.0 / epsilon) / b / b < math.sqrt(math.ulp(1.0))
    out[above[limit]] = _ETA_HALF / (b[limit] * math.sqrt(math.pi * epsilon)) * (
        1.0 + (1.0 + _ETA_RATIO / epsilon) / b[limit] / b[limit] / 2.0)
    b = b[~limit]
    s = np.sqrt(b - 1.0) * np.sqrt(b + 1.0)
    z0 = np.arctan(s)
    sides = integrate_tanh_sinh(transmission, 0.0, np.concatenate([-z0, math.pi - z0]),
                                1e-14, 1.0, np.tile(s, 2)).value
    out[above[~limit]] = (sides[:b.size] + sides[b.size:]) / math.pi
    return _as_output(out, beta)


def asymptotic_prefactor(epsilon: float, beta):
    """Sub-unity correction A multiplying the static deep-tunneling rate,
    for a scalar or an array of beta; a float in gives a float out.

    A = (1 / 2 pi) sqrt((1 - beta)/beta) e^zeta K_{1/4}(zeta) with
    zeta = eps (1 - beta)^2 / 2; valid for 0 < beta < 1 (the Bessel
    argument collapses as the barrier suppression point beta = 1 is
    approached); e^zeta K_{1/4}(zeta) is one trapezoid call for all beta.
    """
    _check_eps_beta(epsilon, beta)
    b = np.asarray(beta, dtype=float)
    if np.any(b >= 1.0):
        raise ValueError("asymptotic form invalid at barrier suppression")
    if np.any(b == 0.0):
        raise ValueError("prefactor undefined for a vanishing drive")
    zeta = epsilon * (1.0 - b) ** 2 / 2.0
    return _as_output(np.sqrt((1.0 - b) / b) / (2.0 * math.pi)
                      * scaled_bessel_k_quarter(zeta), beta)


def averaged_transmission_asymptotic(epsilon: float, beta):
    """Deep-tunneling estimate A exp(-eps (1 - beta)^2) of the period
    average, for a scalar or an array of beta."""
    b = np.asarray(beta, dtype=float)
    return _as_output(asymptotic_prefactor(epsilon, b)
                      * np.exp(-epsilon * (1.0 - b) ** 2), beta)

