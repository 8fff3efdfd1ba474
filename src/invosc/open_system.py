"""Open inverted oscillator coupled to an exponential-memory heat bath.

The velocity-damping kernel gamma omega_d exp(-omega_d t) turns the
Laplace-domain transfer function into a rational with a cubic
denominator; everything downstream (impulse response, mean trajectory,
harmonic response, displacement variance, two-time correlation) is built
out of the three poles s_j and their residues

    R_j = 1 / (2 s_j + gamma omega_d^2 (s_j + omega_d)^-2),

which obey the sum rules sum R = 0, sum R s = 1, sum R s^2 = 0, i.e.
G(0) = 0, G'(0) = 1, G''(0) = 0 for G(t) = sum R_j exp(s_j t).

Every deterministic quantity is one real pole sum Re sum_j R_j (...)
behind one realness guard.  A force enters through c_j(t) =
int_0^t exp(s_j (t - u)) F(u) du: partial fractions for a harmonic
drive, and exp(s_j (t - b)) h [F_a phi_1(s_j h) + (F_b - F_a) phi_2(s_j h)]
on each linear piece [a, b], h = b - a, of a constant or tabulated one.
Only the noise spectrum is integrated numerically.

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
                   SystemParams, force_pieces)
from .numerics import _polish_cubic_roots, integrate_halfline, solve_cubic

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


def characteristic_coefficients(params: SystemParams,
                                bath: BathParams) -> CubicCoefficients:
    a = bath.omega_d / params.omega
    b = bath.gamma * bath.omega_d / params.omega**2 - 1.0
    q = a**3 / 27.0 - a * b / 6.0 - a / 2.0
    p = (3.0 * b - a * a) / 9.0
    return CubicCoefficients(a=a, b=b, q=q, p=p, D=q * q + p**3)


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


def _real_pole_sum(terms):
    """Re sum_j terms_j over the last axis, guarding the imaginary part."""
    total = terms.sum(axis=-1)
    scale = np.abs(terms).sum(axis=-1)
    if np.any(np.abs(total.imag) > 1e-10 * np.maximum(scale, 1e-30)):
        raise ArithmeticError("pole sum failed the realness check")
    out = total.real
    return float(out) if out.ndim == 0 else out


def _exp_sum(dec: PoleDecomposition, weights, t):
    """Re sum_j weights_j exp(s_j t) for a scalar t or an ndarray of times."""
    st = np.multiply.outer(np.asarray(t, dtype=float), np.array(dec.poles))
    return _real_pole_sum(np.array(weights) * np.exp(st))


def green_function(dec: PoleDecomposition, t):
    """Impulse response G(t) = sum_j R_j exp(s_j t); G(0) = 0, G'(0) = 1."""
    return _exp_sum(dec, dec.residues, t)


def green_derivative(dec: PoleDecomposition, t):
    """G'(t) = sum_j R_j s_j exp(s_j t)."""
    return _exp_sum(dec, [r * s for r, s in zip(dec.residues, dec.poles)], t)


def closed_system_green(params: SystemParams, t):
    """Undamped impulse response sinh(omega t) / omega."""
    return np.sinh(params.omega * np.asarray(t)) / params.omega


def closed_system_green_derivative(params: SystemParams, t):
    return np.cosh(params.omega * np.asarray(t))


# Horner coefficients of phi_2(z) = (e^z - 1 - z) / z^2 = sum_k z^k / (k + 2)!,
# k = 19, ..., 0, summed for |z| <= 1, where the closed form cancels.
_PHI2_SERIES = [1.0 / math.factorial(k + 2) for k in range(20)][::-1]


def _force_terms(dec: PoleDecomposition, force: ForceProfile,
                 t: float) -> np.ndarray:
    """c_j(t) = int_0^t exp(s_j (t - u)) F(u) du for each pole s_j; on a
    linear piece no term cancels another, however short or steep it is."""
    if isinstance(force, DeltaKick):
        raise ValueError("delta kicks are not convolved; compose states instead")
    s = np.array(dec.poles)
    if isinstance(force, HarmonicForce):
        amp, w = force.amplitude, force.omega0
        scale = max(w, max(abs(p) for p in dec.poles))
        if np.any(np.minimum(abs(s - 1j * w), abs(s + 1j * w)) < 1e-12 * scale):
            raise ArithmeticError("resonant denominator: a pole sits at +/- i omega0")
        u = s / w
        return (amp / w) / (u * u + 1.0) * (
            np.exp(s * t) - math.cos(w * t) - u * math.sin(w * t))
    c = np.zeros(3, dtype=complex)
    for a, b, fa, fb in force_pieces(force, 0.0, t):
        if fa != 0.0 or fb != 0.0:
            z = s * (b - a)
            small = np.abs(z) <= 1.0
            zs = np.where(small, 2.0, z)
            p1 = (np.exp(zs) - 1.0) / zs  # phi_1(z) = (e^z - 1) / z = 1 + z phi_2(z)
            p2 = np.where(small, np.polyval(_PHI2_SERIES, z), (p1 - 1.0) / zs)
            p1 = np.where(small, 1.0 + z * p2, p1)
            c += np.exp(s * (t - b)) * (b - a) * (fa * p1 + (fb - fa) * p2)
    return c


def mean_trajectory(dec: PoleDecomposition, x0m: float, p0m: float,
                    force: ForceProfile, t: float) -> float:
    """Mean position <x(t)> = <x(0)> G'(t) + <p(0)> G(t) + (G * F)(t).

    The pole sum Re sum_j R_j [(<x(0)> s_j + <p(0)>) exp(s_j t) + c_j(t)],
    with no quadrature; bath fluctuations average to zero.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    s = np.array(dec.poles)
    return _real_pole_sum(np.array(dec.residues) * (
        (x0m * s + p0m) * np.exp(s * t) + _force_terms(dec, force, t)))


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
    return mean_trajectory(dec, 0.0, 0.0, HarmonicForce(F, omega0), t)


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


def _noise_term(dec: PoleDecomposition, bath: BathParams, params: SystemParams,
                t: float, tprime: float, convention: str, abs_tol: float) -> float:
    """Bath term int S(w) e^(i w (t - t')) W(w, t) conj(W(w, t')) dw, real
    on the whole line: twice its real part on the half line, which is the
    non-negative 2 S |W|^2 on the diagonal and oscillates off it."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown noise convention {convention!r}")
    if t == 0.0 or tprime == 0.0 or (convention == OCCUPATION and bath.kT == 0.0):
        return 0.0

    def integrand(w: np.ndarray) -> np.ndarray:
        sw = noise_spectrum(bath, params, w, convention)
        wt = windowed_transform(dec, w, t)
        if t == tprime:
            return 2.0 * sw * np.abs(wt) ** 2
        z = np.exp(1j * w * (t - tprime)) * wt * np.conjugate(
            windowed_transform(dec, w, tprime))
        return 2.0 * sw * z.real

    return integrate_halfline(integrand, abs_tol,
                              first_length=max(params.omega, bath.omega_d),
                              rel_tol=1e-11,
                              small_runs=1 if t == tprime else 2).value


def variance_noise_term(dec: PoleDecomposition, bath: BathParams,
                        params: SystemParams, t: float,
                        convention: str = OCCUPATION,
                        abs_tol: float = 1e-14) -> float:
    """Bath contribution 2 int_0^inf S(w) |W(w, t)|^2 dw to the variance.

    Integrated on dyadically doubling intervals; the integrand is
    non-negative, so the sweep stops once an interval contributes below
    max(abs_tol, 1e-12 * accumulated).
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    return _noise_term(dec, bath, params, t, t, convention, abs_tol)


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


def _centered_covariance(dec: PoleDecomposition, moments: InitialMoments,
                         t: float, tprime: float) -> float:
    """var_x G'G' + var_p G G + sym_xp (G'(t) G(t') + G(t) G'(t'))."""
    gd_t, gd_tp = green_derivative(dec, t), green_derivative(dec, tprime)
    g_t, g_tp = green_function(dec, t), green_function(dec, tprime)
    return (moments.var_x * gd_t * gd_tp + moments.var_p * g_t * g_tp
            + moments.sym_xp * (gd_t * g_tp + gd_tp * g_t))


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
    dynamic = _centered_covariance(dec, moments, t, t)
    return dynamic + _noise_term(dec, bath, params, t, t, convention,
                                 1e-10 * max(abs(dynamic), 1e-30))


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

    The centered initial moments propagated by G and G', plus m(t) m(t')
    for the mean trajectory m, plus the bath-noise cross spectrum.
    """
    if t < 0.0 or tprime < 0.0:
        raise ValueError("times must be non-negative")
    _check_uncertainty(moments, params)
    mx, mp = moments.mean_x, moments.mean_p
    val = (_centered_covariance(dec, moments, t, tprime)
           + mean_trajectory(dec, mx, mp, force, t)
           * mean_trajectory(dec, mx, mp, force, tprime))
    return val + _noise_term(dec, bath, params, t, tprime, convention,
                             1e-10 * max(abs(val), 1.0))


def discriminant_boundary(a: float) -> float:
    """The b value where the cubic discriminant D(a, b) changes sign.

    D > 0 above the returned b (one real root and a conjugate pair),
    D < 0 just below it (three real roots).  In b the discriminant is the
    cubic 27 D = b^3 - (a^2/4) b^2 + (9 a^2/2) b + a^2 (27/4 - a^2).  For
    b > a^2/3 the depressed-cubic coefficient p is positive, so D > 0
    there, and the boundary is the largest real root.
    """
    if not (a > 0.0) or not math.isfinite(a):
        raise ValueError("a must be positive")
    a2 = a * a
    roots = solve_cubic(-a2 / 4.0, 4.5 * a2, a2 * (6.75 - a2))
    return max(r.real for r in roots if r.imag == 0.0)
