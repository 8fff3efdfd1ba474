"""Open inverted oscillator coupled to an exponential-memory heat bath.

The velocity-damping kernel gamma omega_d exp(-omega_d t) turns the
Laplace-domain transfer function into a rational with a cubic
denominator; everything downstream (impulse response, mean trajectory,
harmonic response, displacement variance, two-time correlation) is built
out of the three poles s_j and their residues

    R_j = 1 / (2 s_j + gamma omega_d^2 (s_j + omega_d)^-2),

which obey the sum rules sum R = 0, sum R s = 1, sum R s^2 = 0, i.e.
G(0) = 0, G'(0) = 1, G''(0) = 0 for G(t) = sum R_j exp(s_j t).

Noise enters through the spectral density of the bath force.  Three
conventions are provided:

* "occupation"  (default) hbar J(|w|) n(|w|) / pi with the Bose factor
  n(w) = 1/(exp(hbar w / kT) - 1); vanishes at kT = 0.
* "symmetrized" replaces n by n + 1/2, keeping the zero-point
  contribution of the standard symmetrized correlator.
* "classical"   kT J(|w|) / (pi |w|), the hbar -> 0 limit.

The even extension in frequency is used throughout, so spectral
integrals over the whole line reduce to twice the half-line integral.

The undamped limit gamma = 0 is deliberately excluded from the pole
solver: the third root cancels against the transfer-function numerator
and the residue formula degenerates.  Use ``closed_system_green`` for
that case; the gamma -> 0+ limit of the pole route converges to it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (DeltaKick, ForceProfile, GaussianPacket, HarmonicForce,
                   SystemParams, ZeroForce, force_at)
from .numerics import (_polish_cubic_roots, integrate_adaptive,
                       integrate_halfline, solve_cubic)

OCCUPATION = "occupation"
SYMMETRIZED = "symmetrized"
CLASSICAL = "classical"
_CONVENTIONS = (OCCUPATION, SYMMETRIZED, CLASSICAL)


@dataclass(frozen=True)
class BathParams:
    """Damping strength gamma, memory cutoff omega_d, temperature kT."""

    gamma: float
    omega_d: float
    kT: float = 0.0

    def __post_init__(self):
        for name in ("gamma", "omega_d", "kT"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")
        if self.omega_d <= 0.0:
            raise ValueError("omega_d must be positive")
        if self.kT < 0.0:
            raise ValueError("kT must be non-negative")


class RootClass(enum.Enum):
    ONE_REAL_TWO_COMPLEX = "one_real_two_complex"
    THREE_REAL = "three_real"
    DEGENERATE_REAL = "degenerate_real"


@dataclass(frozen=True)
class CubicCoefficients:
    """Scaled characteristic cubic r^3 + a r^2 + b r - a and its Cardano data.

    a = omega_d / omega, b = gamma omega_d / omega^2 - 1,
    q = a^3/27 - a b/6 - a/2, p = (3 b - a^2)/9, D = q^2 + p^3.
    """

    a: float
    b: float
    q: float
    p: float
    D: float


@dataclass(frozen=True)
class PoleDecomposition:
    poles: tuple[complex, complex, complex]
    residues: tuple[complex, complex, complex]
    coefficients: CubicCoefficients
    root_class: RootClass


class DegeneratePolesError(ValueError):
    """Raised when transfer-function poles (nearly) coincide.

    The simple-pole residue expansion does not apply; integrate the
    memory-kernel equation directly (numerics.langevin_ode_oracle).
    """

    def __init__(self, message, poles=None, coefficients=None):
        super().__init__(message)
        self.poles = poles
        self.coefficients = coefficients
        self.root_class = RootClass.DEGENERATE_REAL


def drude_kernel(bath: BathParams, t: float) -> float:
    """Velocity-damping memory kernel gamma omega_d exp(-omega_d t)."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    return bath.gamma * bath.omega_d * math.exp(-bath.omega_d * t)


def bath_spectral_density(bath: BathParams, omega: float) -> float:
    """Lorentzian-cutoff spectral density J(w) = gamma w / (1 + (w/omega_d)^2).

    ``omega`` is a float or an ndarray.
    """
    if np.any(np.asarray(omega) < 0.0):
        raise ValueError("omega must be non-negative")
    return bath.gamma * omega / (1.0 + (omega / bath.omega_d) ** 2)


def _cardano_data(a: float, b: float) -> tuple[float, float, float]:
    """(q, p, D) of the scaled cubic r^3 + a r^2 + b r - a."""
    q = a**3 / 27.0 - a * b / 6.0 - a / 2.0
    p = (3.0 * b - a * a) / 9.0
    return q, p, q * q + p**3


def characteristic_coefficients(params: SystemParams,
                                bath: BathParams) -> CubicCoefficients:
    a = bath.omega_d / params.omega
    b = bath.gamma * bath.omega_d / params.omega**2 - 1.0
    q, p, disc = _cardano_data(a, b)
    return CubicCoefficients(a=a, b=b, q=q, p=p, D=disc)


def solve_poles(params: SystemParams, bath: BathParams) -> PoleDecomposition:
    """Poles and residues of the Laplace-domain transfer function.

    Solves the scaled cubic by Cardano's method, refines on the unscaled
    cubic s^3 + omega_d s^2 + (gamma omega_d - omega^2) s
    - omega^2 omega_d with Newton steps, enforces conjugate pairing, and
    computes the simple-pole residues.  Requires gamma > 0; (nearly)
    repeated poles raise DegeneratePolesError.
    """
    if bath.gamma <= 0.0:
        raise ValueError("solve_poles requires gamma > 0; the undamped system "
                         "has the closed form closed_system_green")
    coeffs = characteristic_coefficients(params, bath)
    scaled = solve_cubic(coeffs.a, coeffs.b, -coeffs.a)
    om = params.omega
    wd = bath.omega_d
    gam = bath.gamma
    poles = _polish_cubic_roots([om * r for r in scaled], wd, gam * wd - om**2,
                                -(om**2 * wd), 1e-14 * max(om, wd) ** 3,
                                lambda s: 1e-10 * max(om, wd))

    min_sep = min(abs(poles[i] - poles[j])
                  for i in range(3) for j in range(i + 1, 3))
    if min_sep < 1e-8 * om:
        raise DegeneratePolesError(
            "transfer-function poles are degenerate to working precision; "
            "the residue expansion does not apply — integrate the memory "
            "kernel directly (numerics.langevin_ode_oracle)",
            poles=poles, coefficients=coeffs)

    root_class = (RootClass.ONE_REAL_TWO_COMPLEX if coeffs.D > 0.0
                  else RootClass.THREE_REAL)
    residues = tuple(1.0 / (2.0 * s + gam * wd**2 / (s + wd) ** 2) for s in poles)
    return PoleDecomposition(poles=poles, residues=residues,
                             coefficients=coeffs, root_class=root_class)


def _real_pole_sum(dec: PoleDecomposition, weights, t):
    """Re sum_j weights_j exp(s_j t) with a roundoff guard on the imaginary part."""
    tarr = np.asarray(t, dtype=float)
    s = np.array(dec.poles)
    w = np.array(weights)
    terms = w * np.exp(np.multiply.outer(tarr, s))
    total = terms.sum(axis=-1)
    scale = np.abs(terms).sum(axis=-1)
    bad = np.abs(total.imag) > 1e-10 * np.maximum(scale, 1e-30)
    if np.any(bad):
        raise ArithmeticError("pole sum failed the realness check")
    out = total.real
    if np.ndim(t) == 0:
        return float(out)
    return out


def green_function(dec: PoleDecomposition, t):
    """Impulse response G(t) = sum_j R_j exp(s_j t); G(0) = 0, G'(0) = 1."""
    return _real_pole_sum(dec, dec.residues, t)


def green_derivative(dec: PoleDecomposition, t):
    """G'(t) = sum_j R_j s_j exp(s_j t)."""
    w = tuple(r * s for r, s in zip(dec.residues, dec.poles))
    return _real_pole_sum(dec, w, t)


def closed_system_green(params: SystemParams, t):
    """Undamped impulse response sinh(omega t) / omega."""
    return np.sinh(params.omega * np.asarray(t)) / params.omega


def closed_system_green_derivative(params: SystemParams, t):
    return np.cosh(params.omega * np.asarray(t))


def _force_convolution(dec: PoleDecomposition, force: ForceProfile,
                       t: float) -> float:
    """int_0^t G(t - t1) F(t1) dt1 for pointwise force profiles."""
    if isinstance(force, DeltaKick):
        raise ValueError("delta kicks are not convolved; compose states instead")
    if isinstance(force, ZeroForce) or t == 0.0:
        return 0.0
    if isinstance(force, HarmonicForce):
        return harmonic_response(dec, force.amplitude, force.omega0, t)
    res = integrate_adaptive(
        lambda t1: green_function(dec, t - t1) * force_at(force, t1),
        0.0, t, abs_tol=1e-12, rel_tol=1e-10)
    return float(res.value)


def mean_trajectory(dec: PoleDecomposition, x0m: float, p0m: float,
                    force: ForceProfile, t: float) -> float:
    """Mean position <x(t)> = <x(0)> G'(t) + <p(0)> G(t) + (G * F)(t).

    Bath fluctuations average to zero and leave the mean motion
    untouched; harmonic drives use the closed-form response.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    return (x0m * green_derivative(dec, t) + p0m * green_function(dec, t)
            + _force_convolution(dec, force, t))


def harmonic_response(dec: PoleDecomposition, F: float, omega0: float,
                      t: float) -> float:
    """Response to F sin(omega0 t) from rest at the origin.

    x(t) = sum_j R_j (F/omega0) / ((s_j/omega0)^2 + 1)
           * [exp(s_j t) - cos(omega0 t) - (s_j/omega0) sin(omega0 t)],
    the partial-fraction inversion of the Laplace image; it matches the
    quadrature convolution of G against the drive and has x(0) = 0,
    x'(0) = 0.
    """
    if omega0 <= 0.0:
        raise ValueError("omega0 must be positive")
    if t < 0.0:
        raise ValueError("t must be non-negative")
    scale = max(omega0, max(abs(s) for s in dec.poles))
    if any(min(abs(s - 1j * omega0), abs(s + 1j * omega0)) < 1e-12 * scale
           for s in dec.poles):
        raise ArithmeticError("resonant denominator: a pole sits at +/- i omega0")
    cos_t, sin_t = math.cos(omega0 * t), math.sin(omega0 * t)
    total = 0.0 + 0.0j
    mag = 0.0
    for r, s in zip(dec.residues, dec.poles):
        u = s / omega0
        term = r * (F / omega0) / (u * u + 1.0) * \
            (np.exp(s * t) - cos_t - u * sin_t)
        total += term
        mag += abs(term)
    if abs(total.imag) > 1e-10 * max(mag, 1e-30):
        raise ArithmeticError("harmonic response failed the realness check")
    return float(total.real)


def noise_spectrum(bath: BathParams, params: SystemParams, omega,
                   convention: str = OCCUPATION):
    """Spectral density of the bath force, extended evenly to omega < 0.

    ``omega`` is a float or an ndarray; a scalar gives a float.
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown noise convention {convention!r}")
    aw = np.abs(np.asarray(omega, dtype=float))
    lorentz = 1.0 + (aw / bath.omega_d) ** 2
    j = bath.gamma * aw / lorentz
    if convention == CLASSICAL:
        out = bath.gamma * bath.kT / (math.pi * lorentz)
    elif bath.kT == 0.0:
        out = (params.hbar * j / (2.0 * math.pi) if convention == SYMMETRIZED
               else np.zeros_like(aw))
    else:
        # Bose factor 1/(e^x - 1), overflow-safe; omega = 0 takes the
        # classical limit hbar J n -> gamma kT, so x = 1 stands in there.
        zero = aw == 0.0
        x = np.where(zero, 1.0, params.hbar * aw / bath.kT)
        occ = np.exp(-x) / (-np.expm1(-x))
        if convention == SYMMETRIZED:
            occ = occ + 0.5
        out = np.where(zero, bath.gamma * bath.kT / math.pi,
                       params.hbar * j * occ / math.pi)
    return float(out) if out.ndim == 0 else out


def windowed_transform(dec: PoleDecomposition, omega, t: float):
    """Finite-time Fourier transform W(w, t) = int_0^t G(t1) e^(-i w t1) dt1.

    Exact closed form sum_j R_j (e^((s_j - i w) t) - 1) / (s_j - i w);
    terms with s_j ~ i w use the removable limit R_j t.  ``omega`` is a
    float or an ndarray; a scalar gives a complex.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    w = np.asarray(omega, dtype=float)
    r = np.array(dec.residues)[:, None]
    d = np.array(dec.poles)[:, None] - 1j * w.reshape(-1)   # (pole, omega)
    near = np.abs(d) < 1e-12
    safe = np.where(near, 1.0, d)
    terms = np.where(near, r * t, r * (np.exp(safe * t) - 1.0) / safe)
    total = terms.sum(axis=0).reshape(w.shape)
    return complex(total) if total.ndim == 0 else total


def variance_noise_term(dec: PoleDecomposition, bath: BathParams,
                        params: SystemParams, t: float,
                        convention: str = OCCUPATION,
                        abs_tol: float = 1e-14) -> float:
    """Bath contribution 2 int_0^inf S(w) |W(w, t)|^2 dw to the variance.

    Integrated on dyadically doubling intervals; the integrand is
    non-negative, so the sweep stops once an interval contributes below
    max(abs_tol, 1e-12 * accumulated).
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown noise convention {convention!r}")
    if t < 0.0:
        raise ValueError("t must be non-negative")
    if t == 0.0 or (convention == OCCUPATION and bath.kT == 0.0):
        return 0.0

    def integrand(w: np.ndarray) -> np.ndarray:
        sw = noise_spectrum(bath, params, w, convention)
        return 2.0 * sw * np.abs(windowed_transform(dec, w, t)) ** 2

    return integrate_halfline(integrand, abs_tol,
                              first_length=max(params.omega, bath.omega_d),
                              rel_tol=1e-11, small_runs=1).value


@dataclass(frozen=True)
class InitialMoments:
    """First and centered second moments of the initial state."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    sym_xp: float

    def __post_init__(self):
        if not (self.var_x > 0.0 and self.var_p > 0.0):
            raise ValueError("variances must be positive")

    @classmethod
    def from_packet(cls, packet: GaussianPacket,
                    params: SystemParams) -> "InitialMoments":
        sig2 = packet.sigma**2
        return cls(mean_x=packet.x0, mean_p=packet.p0, var_x=sig2,
                   var_p=params.hbar**2 / (4.0 * sig2), sym_xp=0.0)


def _check_uncertainty(moments: InitialMoments, params: SystemParams) -> None:
    bound = (params.hbar / 2.0) ** 2
    if moments.var_x * moments.var_p < bound * (1.0 - 1e-9):
        raise ValueError("initial moments violate the uncertainty relation")


def general_variance(dec: PoleDecomposition, bath: BathParams,
                     params: SystemParams, moments: InitialMoments, t: float,
                     convention: str = OCCUPATION) -> float:
    """Displacement variance from arbitrary initial moments.

    var_x G'^2 + var_p G^2 + 2 sym_xp G' G plus the bath-noise spectral
    term; the noise tolerance is slaved to the dynamic part (1e-10
    relative).
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    _check_uncertainty(moments, params)
    gd = green_derivative(dec, t)
    g = green_function(dec, t)
    dynamic = (moments.var_x * gd * gd + moments.var_p * g * g
               + 2.0 * moments.sym_xp * gd * g)
    noise = variance_noise_term(dec, bath, params, t, convention=convention,
                                abs_tol=1e-10 * max(abs(dynamic), 1e-30))
    return dynamic + noise


def displacement_variance(dec: PoleDecomposition, bath: BathParams,
                          params: SystemParams, packet: GaussianPacket,
                          t: float, convention: str = OCCUPATION) -> float:
    """Variance of the packet: sigma^2 G'^2 + (hbar^2/4 sigma^2) G^2 + noise."""
    return general_variance(dec, bath, params,
                            InitialMoments.from_packet(packet, params), t,
                            convention)


def symmetrized_correlation(dec: PoleDecomposition, bath: BathParams,
                            params: SystemParams, moments: InitialMoments,
                            force: ForceProfile, t: float, tprime: float,
                            convention: str = OCCUPATION) -> float:
    """Two-time symmetrized position correlator phi(t, t').

    Assembled from the dynamic moments, the deterministic force
    convolutions c_F, and the bath-noise cross spectrum
    int S(w) e^(i w (t - t')) W(w, t) conj(W(w, t')) dw, whose even
    extension makes the result real; the residual imaginary part is
    checked below 1e-9 and discarded.
    """
    if t < 0.0 or tprime < 0.0:
        raise ValueError("times must be non-negative")
    _check_uncertainty(moments, params)
    gd_t, gd_tp = green_derivative(dec, t), green_derivative(dec, tprime)
    g_t, g_tp = green_function(dec, t), green_function(dec, tprime)
    c_t = _force_convolution(dec, force, t)
    c_tp = _force_convolution(dec, force, tprime)
    raw_xx = moments.var_x + moments.mean_x**2
    raw_pp = moments.var_p + moments.mean_p**2
    val = (raw_xx * gd_t * gd_tp + raw_pp * g_t * g_tp
           + c_t * c_tp
           + (moments.mean_x * gd_t + moments.mean_p * g_t) * c_tp
           + (moments.mean_x * gd_tp + moments.mean_p * g_tp) * c_t
           + moments.sym_xp * (gd_t * g_tp + gd_tp * g_t))
    if t == 0.0 or tprime == 0.0 or (convention == OCCUPATION and bath.kT == 0.0):
        return val

    delta = t - tprime

    def integrand(w: np.ndarray) -> np.ndarray:
        sw = noise_spectrum(bath, params, w, convention)
        wt = windowed_transform(dec, w, t)
        wtp = windowed_transform(dec, w, tprime)
        z = np.exp(1j * w * delta) * wt * np.conjugate(wtp)
        return sw * (z + np.conjugate(z))

    acc = integrate_halfline(integrand, 1e-10 * max(abs(val), 1.0),
                             first_length=max(params.omega, bath.omega_d),
                             rel_tol=1e-11, small_runs=2).value
    if abs(acc.imag) > 1e-9 * max(abs(acc.real), 1.0):
        raise ArithmeticError("correlation noise term failed the realness check")
    return val + acc.real


def discriminant_boundary(a: float) -> float:
    """The b value where the cubic discriminant D(a, b) changes sign.

    D > 0 above the returned b (one real root and a conjugate pair),
    D < 0 below (three real roots).  Bisection from b = a^2/3, where the
    depressed-cubic p coefficient changes sign, refined to machine
    resolution in b.
    """
    if not (a > 0.0) or not math.isfinite(a):
        raise ValueError("a must be positive")

    def disc(b: float) -> float:
        return _cardano_data(a, b)[2]

    hi = a * a / 3.0
    if disc(hi) <= 0.0:
        raise ArithmeticError("no sign change found in the bracket")
    step = max(1.0, abs(hi))
    lo = hi - step
    while disc(lo) > 0.0:
        step *= 2.0
        lo = hi - step
        if step > 1e12 * max(1.0, abs(hi)):
            raise ArithmeticError("no sign change found in the bracket")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if disc(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi
