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
from .numerics import integrate_adaptive, integrate_trapezoid, scaled_bessel_k_quarter

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


def barrier_potential(params: SystemParams, xi0: float, F: float, xi) -> float:
    """Barrier profile V(xi) = (xi0^2 - xi^2) omega^2 / 2 + F (xi0 - xi)."""
    return (xi0**2 - xi**2) * params.omega**2 / 2.0 + F * (xi0 - xi)


def _check_eps_beta(epsilon: float, beta) -> None:
    """Reject a non-positive epsilon, or a negative beta (one value or an
    array); either must also be finite."""
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise ValueError("epsilon must be positive")
    if isinstance(beta, (int, float)):
        valid = beta >= 0.0 and math.isfinite(beta)
    else:
        valid = np.all((np.asarray(beta) >= 0.0) & np.isfinite(beta))
    if not valid:
        raise ValueError("beta must be non-negative")


def _as_output(values: np.ndarray, like):
    """A float for a scalar input, else the array in the input's shape."""
    values = np.reshape(values, np.shape(like))
    return float(values) if values.ndim == 0 else values


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


def averaged_transmission(epsilon: float, beta):
    """Static transmission averaged over one period of the drive, for a
    scalar or an array of beta; a float in gives a float out.

    (1/pi) int_0^pi dz / (1 + exp(eps (1 - beta cos z)^2)), the integrand
    being even.  A vanishing drive makes the integrand constant, so that
    case returns the static value verbatim.  For 0 < beta <= 1 the
    integrand is analytic and periodic, so the trapezoid rule on [0, pi]
    (half weights at the ends) converges geometrically; every such beta is
    one row of one ``integrate_trapezoid`` call, which stops once two
    successive sums agree to max(1e-14, 8 ulp (eps (1 - beta)^2 +
    sqrt(eps))).  That is the floor the rounding of the exponent X puts
    on their agreement: X is off by about ulp X, plus 2 ulp sqrt(eps X)
    from the cancellation in 1 - beta cos z near z = 0 and beta = 1,
    where the nodes that carry the average have X of order 1.  With the
    second term the rule converges up to eps = 1e12 at beta = 1 (32,769
    nodes; the node cap is reached beyond).

    Above suppression (beta > 1) the integrand is 1/2 at cos z = 1/beta
    and lives in a window of half-width w ~ 1/sqrt(eps (beta^2 - 1))
    around it, which the trapezoid nodes may all miss while successive
    sums agree.  So each such beta is integrated by adaptive quadrature to
    1e-12 relative, with no absolute floor, over [0, pi] split at the peak
    and at 8 w on either side, beyond which the integrand has fallen below
    e^-64 of its peak.

    For beta >> 1 that window is narrower than the float spacing of z,
    but with u = beta cos z the average is eta(1/2) / (beta sqrt(pi eps))
    [1 + (1 + c / eps) / (2 beta^2) + O(beta^-4)], c = eta(3/2) / (2
    eta(1/2)).  The next term is below (3/8) x^2, x = (1 + 2 / eps) /
    beta^2; once x^2 is below rounding (from beta ~ 1e4 at eps = 3), this
    corrected limit is returned.
    """
    _check_eps_beta(epsilon, beta)
    betas = np.asarray(beta, dtype=float).ravel()
    out = np.empty_like(betas)
    periodic = (betas > 0.0) & (betas <= 1.0)
    b = betas[periodic]

    def integrand(z: np.ndarray, beta: np.ndarray) -> np.ndarray:
        e = np.exp(-epsilon * (1.0 - beta * np.cos(z)) ** 2)
        return e / (1.0 + e)

    rel_tol = np.maximum(1e-14, 8.0 * math.ulp(1.0) * (
        epsilon * (1.0 - b) ** 2 + math.sqrt(epsilon)))
    out[periodic] = integrate_trapezoid(integrand, 0.0, math.pi, rel_tol,
                                        b).value / math.pi
    for i in np.flatnonzero(~periodic):
        out[i] = _average_off_trapezoid(epsilon, float(betas[i]))
    return _as_output(out, beta)


def _average_off_trapezoid(epsilon: float, beta: float) -> float:
    """The period average at beta = 0 and beta > 1 (see averaged_transmission)."""
    if beta == 0.0:
        return transmission_exact(epsilon, 0.0)
    if (1.0 + 2.0 / epsilon) / beta / beta < math.sqrt(math.ulp(1.0)):
        return _ETA_HALF / (beta * math.sqrt(math.pi * epsilon)) * (
            1.0 + (1.0 + _ETA_RATIO / epsilon) / beta / beta / 2.0)

    def integrand(z: np.ndarray) -> np.ndarray:
        e = np.exp(-epsilon * (1.0 - beta * np.cos(z)) ** 2)
        return e / (1.0 + e)

    z_star = math.acos(1.0 / beta)
    w = 8.0 / (math.sqrt(epsilon) * math.sqrt(beta * beta - 1.0))
    cuts = sorted({0.0, math.pi, *(min(max(z, 0.0), math.pi)
                                   for z in (z_star - w, z_star, z_star + w))})
    return sum(integrate_adaptive(integrand, lo, hi, abs_tol=0.0,
                                  rel_tol=1e-12).value
               for lo, hi in zip(cuts, cuts[1:])) / math.pi


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


def prefactor_curve(epsilon: float, betas) -> list[tuple[float, float]]:
    """Prefactor A sampled over a sequence of force parameters."""
    b = np.asarray(betas, dtype=float).ravel()
    return list(zip(b.tolist(), asymptotic_prefactor(epsilon, b).tolist()))
