"""Open inverted oscillator coupled to an exponential-memory heat bath.

With the velocity-damping kernel gamma omega_d exp(-omega_d t), the
memory-kernel equation is a linear system of three states, w being the
memory integral of the velocity:

    x' = v,   v' = omega^2 x - w + F,   w' = -omega_d w + gamma omega_d v.

Every deterministic quantity is read off exponentials of this generator
A (numerics.expm), one stack for all the times asked: G and G' are the x
and v entries of e^(At) e_v, the mean is <x(0)> G' + <p(0)> G plus the
response from rest to the force, a harmonic drive or each linear piece of
a force between successive times is one exponential of A augmented by two
forcing states (Van Loan, IEEE TAC 23, 395 (1978)), and the finite-time
Fourier transform W of G follows from e^(At) and the resolvent of A.
These depend only on the coefficients of the characteristic cubic, never
on its roots, so they hold through repeated poles and at gamma = 0.  The
poles and residues of ``solve_poles`` serve only ``open-poles`` and tests.

The bath noise is a force of Lorentzian spectrum, or a superposition of
them: a force with correlation e^(-a |tau|) is an Ornstein-Uhlenbeck state
of rate a, and the response to it is the covariance of A augmented by that
state, carried along the sorted times by one Van Loan step
(numerics.expm_gramian) at their lattice unit, composed for each gap, or
per distinct gap off a lattice.  The classical term is one such
covariance, the zero-point term an integral over the rate of their excess
over the white-noise limit, by one trapezoid rule in log rate that every
time shares, and the symmetrized term at kT > 0 the Matsubara sum,
the trapezoid rule of step 2 pi kT / hbar for that integral; the Bose part
is their difference, or on a dense lattice its Euler-Maclaurin series.  No
term is integrated over the frequency; ``spectral_noise_term`` does that
as their oracle.

Noise enters through the spectral density of the bath force.  Three
conventions are provided:

* "occupation"  (default) hbar J(|w|) n(|w|) / pi with the Bose factor
  n(w) = 1/(exp(hbar w / kT) - 1); vanishes at kT = 0.
* "symmetrized" replaces n by n + 1/2, keeping the zero-point
  contribution of the standard symmetrized correlator.
* "classical"   kT J(|w|) / (pi |w|), the hbar -> 0 limit.

The even extension in frequency is used throughout, so spectral
integrals over the whole line reduce to twice the half-line integral.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (ForceProfile, GaussianPacket, HarmonicForce, SystemParams,
                   force_pieces)
from .numerics import (QuadratureError, QuadratureResult, _polish_cubic_roots, expm,
                       _expm_minus_identity, expm_gramian, integrate_exp_sinh,
                       integrate_fourier, integrate_tanh_sinh, solve_cubic)

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
    """Raised by ``solve_poles`` when transfer-function poles (nearly) coincide."""

    def __init__(self, message, poles=None, coefficients=None):
        super().__init__(message)
        self.poles = poles
        self.coefficients = coefficients
        self.root_class = RootClass.DEGENERATE_REAL


def drude_kernel(bath: BathParams, t: float) -> float:
    """Velocity-damping memory kernel gamma omega_d exp(-omega_d t)."""
    return bath.gamma * bath.omega_d * math.exp(-bath.omega_d * _times(t))


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
    try:
        q = a**3 / 27.0 - a * b / 6.0 - a / 2.0
        p = (3.0 * b - a * a) / 9.0
        return CubicCoefficients(a=a, b=b, q=q, p=p, D=q * q + p**3)
    except OverflowError as exc:
        raise OverflowError(f"the characteristic cubic's coefficients q, p, D overflow "
                            f"at omega_d / omega = {a:g}, gamma omega_d / omega^2 - 1 "
                            f"= {b:g}") from exc


def solve_poles(params: SystemParams, bath: BathParams) -> PoleDecomposition:
    """Poles and residues of the Laplace-domain transfer function.

    Solves the scaled cubic by Cardano's method, refines on the unscaled
    cubic s^3 + omega_d s^2 + (gamma omega_d - omega^2) s
    - omega^2 omega_d with Newton steps, enforces conjugate pairing, and
    computes the simple-pole residues.  Requires gamma > 0, since at
    gamma = 0 the root -omega_d cancels against the numerator; (nearly)
    repeated poles raise DegeneratePolesError.
    """
    if bath.gamma <= 0.0:
        raise ValueError("solve_poles requires gamma > 0; at gamma = 0 the pole "
                         "-omega_d cancels and G = sinh(omega t) / omega")
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
            "the residue table does not apply (the open-system evaluators "
            "do not use it)",
            poles=poles, coefficients=coeffs)

    root_class = (RootClass.ONE_REAL_TWO_COMPLEX if coeffs.D > 0.0
                  else RootClass.THREE_REAL)
    # 1 / (2s + gamma omega_d^2 / (s + omega_d)^2), finite at a pole cancelling -omega_d
    residues = tuple((s + wd) ** 2 / (2.0 * s * (s + wd) ** 2 + gam * wd**2)
                     for s in poles)
    return PoleDecomposition(poles=poles, residues=residues,
                             coefficients=coeffs, root_class=root_class)


def _generator(params: SystemParams, bath: BathParams, size: int = 3):
    """A for the state (x, v, w / d), zero-padded to ``size``, and d, a power
    of two near sqrt(gamma omega_d) that balances the couplings -d and
    gamma omega_d / d."""
    d = math.ldexp(1.0, math.frexp(math.sqrt(bath.gamma * bath.omega_d))[1])
    a = np.zeros((size, size))
    a[0, 1], a[1, 0], a[1, 2] = 1.0, params.omega**2, -d
    a[2, 1], a[2, 2] = bath.gamma * bath.omega_d / d, -bath.omega_d
    return a, d


def _times(t) -> np.ndarray:
    """A float or an array of times as an ndarray; a negative one is refused."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be non-negative")
    return t


def _columns(params: SystemParams, bath: BathParams, t) -> np.ndarray:
    """e^(At) e_v = (G(t), G'(t), w(t)) on the last axis, for a scalar t or
    for each entry of an ndarray of times."""
    a, d = _generator(params, bath)
    return expm(a * np.asarray(t, dtype=float)[..., None, None])[..., 1] * (1.0, 1.0, d)


def green_pair(params: SystemParams, bath: BathParams, t):
    """The impulse response G(t), x from x = 0, v = 1, w = 0, and its velocity
    G'(t) (G(0) = 0, G'(0) = 1) from one exponential, for a scalar t or an
    ndarray."""
    return tuple(np.moveaxis(_columns(params, bath, t), -1, 0)[:2])


def _forced_response(params: SystemParams, bath: BathParams,
                     force: ForceProfile, t) -> np.ndarray:
    """(G * F)(t), x(t) from rest, at each entry of an ndarray of times: one
    exponential per time for a harmonic drive, else one sweep over the sorted
    times that chains one exponential per linear piece of ``force_pieces``;
    zeros, with no exponential, for a force that is zero on every piece of
    [0, max t], which one ``force_pieces`` call tells."""
    if isinstance(force, HarmonicForce):
        zero = force.amplitude == 0.0
    else:
        zero = not any(fa or fb for _, _, fa, fb in force_pieces(force, 0.0, t.max(initial=0.0)))
    if zero:
        return np.zeros(t.shape)
    gen, _ = _generator(params, bath, 5)
    gen[1, 3] = 1.0   # the fourth state is a force on v
    if isinstance(force, HarmonicForce):
        # the fourth and fifth states are F sin(omega0 t) and F cos(omega0 t)
        gen[3, 4], gen[4, 3] = force.omega0, -force.omega0
        return expm(gen * t[..., None, None])[..., 0, 4] * force.amplitude
    stops, where = np.unique(t, return_inverse=True)
    runs = [force_pieces(force, a, b)
            for a, b in zip([0.0, *stops.tolist()], stops.tolist())]
    pieces = [piece for run in runs for piece in run]
    # on [a, b], in the time (s - a) / (b - a), the force rises from F(a) at
    # the rate F(b) - F(a)
    steps = gen * np.array([b - a for a, b, _, _ in pieces]).reshape(-1, 1, 1)
    steps[:, 3, 4] = 1.0
    x, state = [0.0], np.zeros(5)   # x(0) and x at the end of each piece
    for step, (_, _, fa, fb) in zip(expm(steps), pieces):
        state[3:] = fa, fb - fa
        state = step @ state
        x.append(state[0])
    ends = np.cumsum([len(run) for run in runs], dtype=int)
    return np.array(x)[ends][where].reshape(t.shape)


def mean_trajectory(params: SystemParams, bath: BathParams, x0m: float,
                    p0m: float, force: ForceProfile, t):
    """Mean position <x(t)> = <x(0)> G'(t) + <p(0)> G(t) + (G * F)(t), bath
    fluctuations averaging to zero, at a float or an ndarray of times.  No
    command calls it (``open_evolution`` gives this column); it stays as the
    layer of the mean that perfbench's tracer times."""
    t = _times(t)
    out = _mean(params, bath, x0m, p0m, force, t, *green_pair(params, bath, t))
    return float(out) if out.ndim == 0 else out


def _mean(params: SystemParams, bath: BathParams, x0m: float, p0m: float,
          force: ForceProfile, t: np.ndarray, g: np.ndarray, gd: np.ndarray) -> np.ndarray:
    """<x(t)> of ``mean_trajectory`` from G and G' at the times t."""
    return x0m * gd + p0m * g + _forced_response(params, bath, force, t)


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


def _window(params: SystemParams, bath: BathParams, col: np.ndarray, omega):
    """The two terms of W(w, t) = e^(-zt) a - y_v, z = i w: a = y(z).col for
    col = e^(At) e_v and y(z) = (A^T - z)^-1 e_x, and y_v(z), over the
    characteristic cubic p(z) = z^3 + omega_d z^2 + (gamma omega_d -
    omega^2) z - omega^2 omega_d; p never vanishes on the axis, as
    Re p(i w) = -omega_d (w^2 + omega^2) < 0."""
    z = 1j * np.asarray(omega, dtype=float)
    wd, gwd, om2 = bath.omega_d, bath.gamma * bath.omega_d, params.omega**2
    p = ((z + wd) * z + gwd - om2) * z - om2 * wd
    y_v = -(z + wd) / p
    return (y_v * z - gwd / p) * col[0] + y_v * col[1] + col[2] / p, y_v


def windowed_transform(params: SystemParams, bath: BathParams, omega, t: float):
    """Finite-time Fourier transform W(w, t) = int_0^t G(t1) e^(-i w t1) dt1.

    The x, v entry of (A - z)^-1 (e^((A - z) t) - 1), z = i w; ``omega`` is
    a float or an ndarray, and a scalar gives a complex.
    """
    t = _times(t)
    a, y_v = _window(params, bath, _columns(params, bath, t), omega)
    out = np.exp(-(1j * np.asarray(omega, dtype=float)) * t) * a - y_v
    return complex(out) if out.ndim == 0 else out


def _distinct_positive(x: np.ndarray):
    """The distinct positive entries of the 1-D array x, sorted, and the
    index of each entry of x among them, -1 where it is 0."""
    values, at = np.unique(x[x > 0.0], return_inverse=True)
    index = np.full(x.shape, -1)
    index[x > 0.0] = at
    return values, index


def _forward_sweep(e, p, gap_at: list, rows: list):
    """The rows ``rows``, x and x2 first, of columns x and x2 of Sigma(t_k)
    and of e^(M t_k) m_0 at each of the sorted times t_k, on the axes of the
    rates, then of the times, for ``_ou_covariance``: e = e^(M tau) and p
    the Gramian over tau for each distinct gap tau on the first axis, and
    gap_at the index of each t_k - t_(k-1) among them, -1 where it is 0.

    Rows U of e^(Mt) take one product U <- U E per time; the increments
    U P U_x^T of Sigma, one batched product for each run of times that
    share a gap, are then summed.  U and the products are freed on return,
    before ``_ou_covariance`` reads the columns out."""
    u = np.empty((e.shape[1], len(gap_at) + 1, len(rows), 7))
    u[:, 0] = np.eye(7)[rows]
    for k, g in enumerate(gap_at):
        if g >= 0:
            np.matmul(u[:, k], e[g], out=u[:, k + 1])
        else:
            u[:, k + 1] = u[:, k]
    cols = np.zeros((len(u), len(gap_at), len(rows), 2))
    cuts = [k for k, g in enumerate(gap_at) if k == 0 or g != gap_at[k - 1]]
    for lo, hi in zip(cuts, cuts[1:] + [len(gap_at)]):
        if gap_at[lo] >= 0:
            before = u[:, lo:hi]
            # P U_x^T at all these times in one product per rate, then U times it
            pu = p[gap_at[lo]] @ np.swapaxes(before[:, :, :2].reshape(len(u), -1, 7), -1, -2)
            np.matmul(before, np.swapaxes(pu.reshape(len(u), 7, hi - lo, 2), 1, 2),
                      out=cols[:, lo:hi])
    # U m_0, m_0 = e_u2 + e_phi, as a sum over the two columns: adding them
    # as strided operands would take ufunc buffers larger than m
    return np.cumsum(cols, axis=1, out=cols), u[:, 1:, :, 4::2].sum(axis=-1)


def _join(d_a, p_a, d_b, p_b):
    """D = e^(M (a + b)) - I and the Gramian P over a + b from D and P over
    a and over b: D_a + D_b + D_a D_b and P_a + E_a P_b E_a^T, with E_a P_b
    = P_b + D_a P_b (b = a doubles the step as ``expm_gramian`` does)."""
    ep = d_a @ p_b
    ep += p_b
    return d_a + d_b + d_a @ d_b, p_a + ep + ep @ np.swapaxes(d_a, -1, -2)


def _lattice_steps(mu: np.ndarray, e: np.ndarray, p: np.ndarray, multiples: np.ndarray):
    """E = e^(M m u) and the Gramian P over m u for each of the sorted
    distinct ``multiples`` m of one unit u, on a new first axis, from E and
    P over u that ``expm_gramian`` took of mu = M u (rates on the first
    axis), for ``_ou_covariance``.

    Binary composition in D = E - I, as ``expm_gramian`` carries it: the
    step is doubled, and joined into each multiple that has its bit, by
    ``_join``; at m = 1 the result is E itself.  E - I is D off the
    diagonal.  On it, where 1 + D has rounded, D comes from the diagonal
    blocks of M, A, A and -a: the diagonal of e^(Au) - I twice and
    expm1(-a u).  Read off E, D would be off by ulp(1), an error that m
    steps carry m-fold.
    """
    d = e - np.eye(7)
    block = np.arange(6)
    d[:, block, block] = np.tile(np.diagonal(_expm_minus_identity(mu[0, :3, :3])), 2)
    d[:, 6, 6] = np.expm1(mu[:, 6, 6])
    counts = multiples.tolist()
    step, terms = (d, p), [None] * len(counts)   # step: D and P at 2^bit u
    for bit in range(counts[-1].bit_length()):
        if bit:
            step = _join(*step, *step)
        for i, m in enumerate(counts):
            if m >> bit & 1:
                terms[i] = step if terms[i] is None else _join(*terms[i], *step)
    return (np.stack([e if m == 1 else d_m + np.eye(7) for m, (d_m, _) in zip(counts, terms)]),
            np.stack([p_m for _, p_m in terms]))


def _ou_covariance(params: SystemParams, bath: BathParams, rates, t, tprime):
    """(a V_a(t, t'), K_a(t, t')) for each rate a of a float or a 1-D array
    and times t, t' that broadcast, on the axes of the rates, then of the
    times.

    V_a = int int_0^(t, t') G(t - s) G(t' - s') e^(-a |s - s'|) is the
    covariance of x(t) and x(t') under a unit-variance Ornstein-Uhlenbeck
    force of rate a, and K_a = a V_a - W its excess over the white-noise
    limit W = 2 int_0^min(t, t') G(t - s) G(t' - s) ds of a V_a.

    The force is a phi, phi' = -a phi + sqrt(2) xi, stationary from the
    start (variance 1/a).  The difference x2 = x - x_w from the response x_w
    to its white limit sqrt(2) xi obeys x2' = u2 - phi, u2' = omega^2 x2 - w2,
    with u2 = v - v_w + phi, and w2 = w - w_w sees u2 - phi: no white noise
    enters it, so K_a = 2 Cov(x, x2) - Cov(x2, x2) (symmetrized for t != t')
    never forms W, and K_b - K_a keeps its relative accuracy however large
    both rates are.  y = (x, v, w / d, x2, u2, w2 / d, phi) is Markov with the
    generator M, and Cov(y(t), y(t')) = e^(M(t - t')) Sigma(t') for t >= t'.

    Sigma is swept forward along the sorted distinct min(t, t'): as M is
    constant, Sigma(t_k) = Sigma(t_(k-1)) + U P U^T over any gap tau =
    t_k - t_(k-1), with U = e^(M t_(k-1)) and P the Gramian of Q = 2 e_phi
    e_phi^T over tau.  Times within 4 ulp of multiples of one unit u, as
    linspace's are, take their gaps as those multiples, integers up to
    2^53: a move no larger than the rounding of M t.  Then E = e^(M tau)
    and P take one Van Loan step per rate, at u, in one ``expm_gramian``
    call, and ``_lattice_steps`` composes from it each multiple of u that
    is a gap; off a lattice each distinct gap is its own unit, of multiple
    1, with its own step in that call.  ``_forward_sweep`` carries only
    the rows of U that are read, x and x2 (all seven where some t != t').
    The stationary start is carried apart, m = e^(Mt) m_0 from u2 = phi =
    phi(0), and m m^T / a is added where K is read: in Sigma its 1/a would
    swamp K at a small rate.  Pairs with t != t' then take
    e^(M |t - t'|), one ``expm`` call.
    """
    rates = np.asarray(rates, dtype=float)
    t, tprime = np.broadcast_arrays(np.asarray(t, dtype=float), tprime)
    flat = rates.reshape(-1, 1, 1)
    a, _ = _generator(params, bath)
    gen = np.zeros((len(flat), 7, 7))
    gen[:, :3, :3] = gen[:, 3:6, 3:6] = a
    gen[:, 1:2, 6:] = flat
    gen[:, 3, 6], gen[:, 5, 6] = -1.0, -a[2, 1]
    gen[:, 6:, 6:] = -flat
    noise = np.zeros((7, 7))
    noise[6, 6] = 2.0
    stops, at = np.unique(np.minimum(t, tprime), return_inverse=True)
    # each distinct gap its own unit, or on a lattice one unit and the
    # multiples of it
    units, gap_at = _distinct_positive(np.diff(stops, prepend=0.0))
    multiples = np.ones(1, dtype=int)
    if units.size:
        unit = stops[-1] / np.rint(stops[-1] / units[0])
        lattice = np.rint(stops / unit)
        if lattice[-1] <= 2.0**53 and np.all(np.abs(lattice * unit - stops)
                                               <= 4.0 * np.spacing(stops)):
            multiples, gap_at = _distinct_positive(np.diff(lattice, prepend=0.0))
            units, multiples = np.array([unit]), multiples.astype(int)
    steps = gen * units[:, None, None, None]
    e, p = expm_gramian(steps, noise * units[:, None, None, None])
    if multiples[-1] > 1:
        e, p = _lattice_steps(steps[0], e[0], p[0], multiples)
    lags, lag_at = _distinct_positive(np.abs(t - tprime).ravel())
    apart = lag_at >= 0
    # the rows of e^(Mt) that are carried: x and x2 first, then the other
    # five where some pair has t != t'
    rows = [0, 3, 1, 2, 4, 5, 6] if apart.any() else [0, 3]
    # rows x and x2 of e^(M lag) on those columns, none at all where every t = t'
    lagged = (np.swapaxes(expm(gen * lags[:, None, None, None])[..., [0, 3], :][..., rows], 0, 1)
              if lags.size else None)
    # rates, sorted times, rows and columns x and x2 of the covariance
    cols, m = _forward_sweep(e, p, gap_at.tolist(), rows)
    cols += m[..., None] * m[:, :, None, :2] / flat[..., None]
    at = at.ravel()
    # rates, pairs, rows and columns x and x2
    cov = cols[:, at, :2]
    if apart.any():
        cov[:, apart] = lagged[:, lag_at[apart]] @ cols[:, at[apart]]
    out = np.empty((2, len(flat), at.size))
    out[0], out[1] = cov[..., 0, 0], cov[..., 0, 1] + cov[..., 1, 0] - cov[..., 1, 1]
    return out.reshape((2,) + rates.shape + t.shape)


# The trapezoid rule of _zero_point_term: its first step in sigma, the ends
# it starts from on the fast (nu > omega_d) and the slow side, and the most
# rounds of new nodes it may take
_ZERO_POINT_STEP = 1.0 / 3.0
_ZERO_POINT_ENDS = (15.0, 16.0)
_ZERO_POINT_ROUNDS = 6
# _free_zero_point serves a time t where every rate of the motion times t is
# at most _FREE_MOTION
_FREE_MOTION = 1e-5


def _rule(rows, white, h: float, stride: int) -> np.ndarray:
    """The trapezoid rule of step stride h, on the rows j = stride // 2 mod
    stride (the nodes (j + 1/2) stride h) of the fast and the slow terms in
    K, with the slow side continued past its last node by its limit K = -W,
    a sum of white / (2 sinh sigma) out to e^-40."""
    step = h * stride
    fast, slow = (r[stride // 2::stride] for r in rows[:2])
    beyond = (np.arange(len(slow), len(slow) + math.ceil(40.0 / step)) + 0.5) * step
    return step * (fast.sum(axis=0) - slow.sum(axis=0)
                   + white * np.sum(0.5 / np.sinh(beyond)))


def _zero_point_term(params: SystemParams, bath: BathParams, t, tprime,
                     abs_tol) -> np.ndarray:
    """Zero-point term of the spectrum hbar J(|w|) / 2 pi as a rate integral,
    at 1-D arrays of positive times t, t' and of tolerances.

    omega_d^2 |w| / (w^2 + omega_d^2) is a superposition of Lorentzians of
    rate nu, int_0^inf dnu omega_d^2 / (omega_d^2 - nu^2)
    [omega_d^2 / (w^2 + omega_d^2) - nu^2 / (w^2 + nu^2)] (2 / pi), so the
    term is (hbar gamma / pi) int_0^inf dnu omega_d^2 / (omega_d^2 - nu^2)
    [omega_d V_omega_d - nu V_nu], and the bracket is K_omega_d - K_nu.
    With nu = omega_d e^(+-sigma), folded onto sigma > 0, it is
    (hbar gamma omega_d / pi) int_0^inf [K_(omega_d e^sigma)
    - K_(omega_d e^-sigma)] / (2 sinh sigma) dsigma.  The integrand is even
    and analytic, bounded in the strip |Im sigma| < pi/2 that the map takes
    onto Re nu > 0, with a removable point at sigma = 0, so the trapezoid
    rule on the nodes (j + 1/2) h, none of them at 0, converges like
    e^(-pi^2 / h) (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).  A
    difference of a V_a in place of K_a would lose the digits of their
    common white-noise limit, and the division by sinh sigma would magnify
    that loss without bound.

    The rule of step 3h lies on the nodes j = 1 mod 3, so the error is
    estimated as the difference of the two times e^(-pi^2 (1/h - 1/3h)), and
    h is cut to a third until that is within max(abs_tol, 1e-11 |value|).
    Past its last node the slow side's K is continued by its limit -W, with
    W = a V_a - K_a at any rate, as a sum of W / (2 sinh sigma) that needs no
    matrix, so what either side leaves out falls off like e^(-2 sigma): K ~
    1 / nu on the fast side, a V_a ~ a on the slow one.  The fast end starts
    ln(r / omega_d) further out on a bath slower than r = max(omega,
    sqrt(gamma omega_d), 1 / min(t, t')), the rates of the motion and of
    the times below which K does not yet fall.  Each end moves out
    by the distance its last term predicts, plus one, until that term times
    the length of its tail is within 1e-11 |value| / 4, which ``abs_tol``
    does not loosen.  Each round of new nodes is one ``_ou_covariance``
    sweep over all times.
    Raises QuadratureError, with the values and their error estimates, on a
    value not finite or after ``_ZERO_POINT_ROUNDS`` rounds.
    """
    wd = bath.omega_d
    scale = params.hbar * bath.gamma * wd / math.pi
    # ln r, in logs since 1/t can overflow
    ln_r = max(math.log(params.omega), 0.5 * (math.log(bath.gamma) + math.log(wd)),
               -math.log(float(np.min(np.minimum(t, tprime)))))
    h = _ZERO_POINT_STEP
    ends = [_ZERO_POINT_ENDS[0] + max(0.0, ln_r - math.log(wd)), _ZERO_POINT_ENDS[1]]
    # rows j of the nodes (j + 1/2) h up to each end, NaN where not yet
    # evaluated: K / (2 sinh sigma) on the fast side, and K and a V_a
    # (= K + W) over 2 sinh sigma on the slow side
    rows = [np.full((math.floor(ends[side] / h + 0.5), len(t)), np.nan)
            for side in (0, 1, 1)]
    evaluations, error, white = 0, np.full(len(t), np.inf), None
    for _ in range(_ZERO_POINT_ROUNDS):
        todo = [np.flatnonzero(np.isnan(r[:, 0])) for r in rows[:2]]
        sigma = np.concatenate([(todo[0] + 0.5) * h, -(todo[1] + 0.5) * h])
        covariance, excess = _ou_covariance(params, bath, wd * np.exp(sigma), t, tprime)
        if white is None:
            white = covariance[0] - excess[0]
        weight = 0.5 / np.sinh(np.abs(sigma))[:, None]
        fast = len(todo[0])
        rows[0][todo[0]] = excess[:fast] * weight[:fast]
        rows[1][todo[1]] = excess[fast:] * weight[fast:]
        rows[2][todo[1]] = covariance[fast:] * weight[fast:]
        evaluations += len(sigma)
        value = _rule(rows, white, h, 1)
        if not np.all(np.isfinite(value)):
            break
        error = np.abs(value - _rule(rows, white, h, 3)) * math.exp(
            -2.0 * math.pi**2 / (3.0 * h))
        # what each side leaves out past its last node: about that term over 2
        tails = [np.abs(rows[0][-1]) / 2.0, np.abs(rows[2][-1]) / 2.0]
        floor = np.maximum(0.25e-11 * np.abs(value), np.finfo(float).tiny)
        refine = bool(np.any(error > np.maximum(abs_tol / scale, 1e-11 * np.abs(value))))
        if not refine and all(np.all(tail <= floor) for tail in tails):
            return scale * value
        if refine:
            h /= 3.0
        for side, tail in enumerate(tails):
            excess = np.max(tail / floor)   # ln of it is the distance left
            if excess > 1.0:
                ends[side] += math.log(excess) / 2.0 + 1.0
        for i, side in enumerate((0, 1, 1)):
            old, rows[i] = rows[i], np.full((math.floor(ends[side] / h + 0.5), len(t)), np.nan)
            if refine:
                rows[i][1:3 * len(old):3] = old
            else:
                rows[i][:len(old)] = old
        error = error + tails[0] + tails[1]
    raise QuadratureError("zero-point rate rule did not converge", QuadratureResult(
        scale * value, scale * error, evaluations))


def _free_zero_point(params: SystemParams, bath: BathParams, t) -> np.ndarray:
    """Zero-point term at times t so short that G(s) = s on [0, t], where the
    folded differences of ``_zero_point_term`` would be rounding noise:
    (hbar / pi) int_0^inf J |W|^2 dw with W = t^2 w(wt), w(u) = int_0^1 x
    e^(-iux) dx, is (hbar gamma omega_d^2 t^4 / pi) int int_0^1 x y
    [ln(1 / omega_d t |x - y|) - gamma_E] dx dy = (hbar gamma omega_d^2 t^4
    / 4 pi) [ln(1 / omega_d t) + 7/4 - gamma_E], off by about 0.07 (omega_d
    t)^2 and (omega^2 + gamma omega_d) t^2 relative."""
    return (params.hbar * bath.gamma * bath.omega_d**2 * t**4 / (4.0 * math.pi)
            * (np.log(1.0 / (bath.omega_d * t)) + 1.75 - np.euler_gamma))


def spectral_noise_term(params: SystemParams, bath: BathParams, t: float,
                        tprime: float, convention: str = OCCUPATION,
                        abs_tol: float = 1e-14) -> float:
    """Bath term int S(w) e^(i w (t - t')) W(w, t) conj(W(w, t')) dw by
    quadrature over the frequency: twice its real part on the half line.
    The oracle of ``variance_noise_term`` and ``symmetrized_correlation``
    under every convention; no production path calls it.

    On [0, H], H = 8 pi / min(t, t'), the integrand goes whole to the
    tanh-sinh rule.  Past H, with W = e^(-iwt) a_t - y_v (``_window``), it is
    a smooth part 2 S Re(a_t conj(a_t')), plus 2 S |y_v|^2 on the diagonal,
    on the exp-sinh rule, and a part Re(c e^(i w tau)) for each distinct lag
    tau among t, t' and |t - t'| on the Ooura-Mori rule, whose nodes follow
    the oscillation; below H the terms would cancel, as W is O(t^2) where
    each is O(1 / w^2).  Each part converges to its share of ``abs_tol``,
    or to 1e-14 of itself.
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown noise convention {convention!r}")
    if t == 0.0 or tprime == 0.0 or (convention == OCCUPATION and bath.kT == 0.0):
        return 0.0
    col, col_prime = _columns(params, bath, np.array([t, tprime]))
    diagonal, gap = t == tprime, abs(t - tprime)
    lags = np.array(sorted({t, tprime, gap} - {0.0}))
    head = 8.0 * math.pi / min(t, tprime)
    share = abs_tol / (2 + lags.size)

    def terms(w):
        return (2.0 * noise_spectrum(bath, params, w, convention),
                *_window(params, bath, col, w), _window(params, bath, col_prime, w)[0])

    def whole(w):
        s2, a, y_v, a_prime = terms(w)
        return s2 * (np.exp(1j * w * (t - tprime)) * (np.exp(-1j * w * t) * a - y_v)
                     * np.conjugate(np.exp(-1j * w * tprime) * a_prime - y_v)).real

    def smooth(w):
        s2, a, y_v, a_prime = terms(w)
        return s2 * ((a * np.conjugate(a_prime)).real + diagonal * np.abs(y_v) ** 2)

    def lagged(w, on_t, on_tprime, on_gap):   # the lag t pairs y_v with a_t'
        s2, a, y_v, a_prime = terms(w)
        return s2 * (on_gap * np.abs(y_v) ** 2
                     - y_v * (on_t * np.conjugate(a_prime) + on_tprime * np.conjugate(a)))

    parts = [integrate_tanh_sinh(whole, 0.0, head, 1e-14, abs_tol=share),
             integrate_exp_sinh(smooth, head, head, 1e-14, abs_tol=share),
             integrate_fourier(lagged, head, lags, share, lags == t, lags == tprime,
                               lags == gap, rel_tol=1e-14)]
    return float(sum(part.value.sum() for part in parts))


# The Matsubara sum of _matsubara_sum: the rate times the shortest time
# scale past which f is smooth on the lattice, the most rates it sums one by
# one, the most that rate times that scale may grow across one panel short
# of it, the polynomial degrees of its panels and of its last panel, and the
# widest panel summed term by term rather than by Euler-Maclaurin
_TAIL_START = 30.0
_TAIL_FIRST_MAX = 64
_PANEL_REACH = 8.0
_PANEL_DEGREE = 20
_LAST_DEGREE = 16
_PANEL_DIRECT = 2048
# the Matsubara step past which the sum is its first term, in units of the
# fastest rate
_HOT = 1e10
# _dense_lattice_term serves a time t, or a pair, where the Matsubara step
# times t is at most _DENSE_LATTICE, and sums the pole at -omega_d in
# closed form where omega_d t is at most _POLE_IN_CLOSED_FORM
_DENSE_LATTICE = 1.6
_POLE_IN_CLOSED_FORM = 8.0


def _lorentz_excess(params: SystemParams, bath: BathParams, rates: np.ndarray, t, tprime):
    """f(nu) = omega_d^2 (K_omega_d - K_nu) / (omega_d^2 - nu^2) at each of
    the positive ``rates`` (rows rates, columns the pairs of times of 1-D
    arrays t, t'), f(0) = omega_d V_omega_d and K_omega_d, from one
    ``_ou_covariance`` sweep over omega_d, the rates and the rates that
    stand in near omega_d.

    f(nu) is the term of the spectrum omega_d^2 w^2 / (pi (w^2 + omega_d^2)
    (w^2 + nu^2)), analytic in nu, its 0 / 0 at nu = omega_d removable.  A
    rate closer to omega_d than half of h = 1e-3 min(omega_d, 1 / t), where
    the difference quotient would lose its digits, takes the value of the
    polynomial through the eight rates 1 h to 4 h from it on either side.
    """
    wd = bath.omega_d
    width = 1e-3 * min(wd, 1.0 / max(np.max(t), np.max(tprime)))
    near = np.flatnonzero(np.abs(rates - wd) < 0.5 * width)
    offsets = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
    nu = np.concatenate([rates, (rates[near, None] + width * offsets).ravel()])
    covariance, excess = _ou_covariance(params, bath, np.concatenate([[wd], nu]), t, tprime)
    with np.errstate(invalid="ignore", divide="ignore"):   # 0 / 0 where nu = omega_d
        f = (excess[0] - excess[1:]) * (wd / (wd - nu) * (wd / (wd + nu)))[:, None]
    if near.size:
        lagrange = np.array([np.prod(-np.delete(offsets, j) / (o - np.delete(offsets, j)))
                             for j, o in enumerate(offsets)])
        f[near] = lagrange @ f[len(rates):].reshape(near.size, 8, -1)
    return f[:len(rates)], covariance[0], excess[0]


def _chebyshev(u, degree: int) -> np.ndarray:
    """T_0(u) .. T_degree(u) on a new last axis, |u| <= 1."""
    return np.cos(np.arccos(np.clip(u, -1.0, 1.0))[..., None] * np.arange(degree + 1))


def _chebyshev_points(degree: int):
    """The points -cos(pi j / degree) of [-1, 1], and in its columns the
    Chebyshev coefficients of the Lagrange polynomial of each point, (2 /
    degree) h_k h_j T_k(u_j) with h halved at both ends."""
    u = -np.cos(math.pi * np.arange(degree + 1) / degree)
    h = np.ones(degree + 1)
    h[[0, -1]] = 0.5
    return u, 2.0 / degree * h[:, None] * _chebyshev(u, degree).T * h


def _chebyshev_integral(u: float, degree: int) -> np.ndarray:
    """int_-1^u T_k for k = 0 .. degree: u + 1, (u^2 - 1) / 2, then the
    differences of (T_(k+1) / (k+1) - T_(k-1) / (k-1)) / 2."""
    ends = np.array([u, -1.0])
    t = _chebyshev(ends, degree + 1)
    k = np.arange(2, degree + 1)
    anti = np.empty((2, degree + 1))
    anti[:, 0], anti[:, 1] = ends, 0.5 * ends**2
    anti[:, 2:] = 0.5 * (t[:, k + 1] / (k + 1) - t[:, k - 1] / (k - 1))
    return anti[0] - anti[1]


def _panel_rule(lo: int, hi: int):
    """Nodes n_j in [lo, hi] and weights w_j with sum_j w_j p(n_j) the sum of
    p over the integers of [lo, hi], half at lo and at hi, for every
    polynomial p of degree ``_PANEL_DEGREE``: term by term up to
    ``_PANEL_DIRECT`` steps, else by Euler-Maclaurin with the derivatives
    T_k^(p)(+-1) = (+-1)^(k+p) prod_(i < p) (k^2 - i^2) / (2i + 1)."""
    m = _PANEL_DEGREE
    u, basis = _chebyshev_points(m)
    half = 0.5 * (hi - lo)
    if hi - lo <= _PANEL_DIRECT:
        terms = _chebyshev(np.arange(hi - lo + 1) / half - 1.0, m) @ basis
        weights = terms.sum(axis=0) - 0.5 * (terms[0] + terms[-1])
    else:
        k2 = np.arange(m + 1.0) ** 2
        odd = np.arange(m + 1) % 2 == 1   # T_k^(p)(1) - T_k^(p)(-1) for odd p
        derivative, ends = np.ones(m + 1), 0.0
        for p, coefficient in enumerate((1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240)):
            derivative = derivative * (k2 - p * p) / (2 * p + 1)
            ends = ends + coefficient * np.where(odd, 0.0, 2.0 * derivative) / half ** (p + 1)
        weights = (half * _chebyshev_integral(1.0, m) + ends) @ basis
    return lo + half * (u + 1.0), weights


def _last_panel_rule(first: int, shift: float):
    """The last panel of ``_tail_rule``, n >= first: with x = (first + shift)
    / (n + shift) and f = x^2 Q(x) for a polynomial Q of degree
    ``_LAST_DEGREE``, nodes n_j and weights w_j on f(n_j), and w_inf on
    lim (n + shift)^2 f, of the sum of f over the integers n >= first; term
    by term up to the stop where x^2 Q(x) varies slowly in n, past it by
    Euler-Maclaurin, its integral being (first + shift) int_0^(x_stop) Q dx."""
    m = _LAST_DEGREE
    u, basis = _chebyshev_points(m)
    x = 0.5 * (u + 1.0)
    stop = max(first, math.ceil(4 * m * math.sqrt(first + shift) - shift)) + 2

    def terms(n):
        xn = (first + shift) / (np.asarray(n, dtype=float) + shift)
        return xn[:, None] ** 2 * (_chebyshev(2.0 * xn - 1.0, m) @ basis)

    near = terms(stop + np.arange(-2, 3))
    slope = (near[0] - 8.0 * near[1] + 8.0 * near[3] - near[4]) / 12.0
    curve = (-near[0] + 2.0 * near[1] - 2.0 * near[3] + near[4]) / 2.0
    x_stop = (first + shift) / (stop + shift)
    weights = (terms(np.arange(first, stop)).sum(axis=0) + 0.5 * near[2] - slope / 12.0
               + curve / 720.0
               + 0.5 * (first + shift) * (_chebyshev_integral(2.0 * x_stop - 1.0, m) @ basis))
    return ((first + shift) / x[1:] - shift, weights[1:] / x[1:] ** 2,
            weights[0] / (first + shift) ** 2)


def _tail_rule(first: int, shift: float, smooth: float, width: float):
    """Nodes n_j >= first and weights w_j, and a weight w_inf, with
    sum_(n >= first) f(n) = sum_j w_j f(n_j) + w_inf lim (n + shift)^2 f(n)
    for f of ``_lorentz_excess`` in units of the lattice step, shift =
    omega_d / dnu.

    Panels [n, n + min(n, width)] below ``smooth``, where f still has
    e^(-nu t) parts, and [n, 2n] past it while n < shift take f as a
    polynomial of n; the last panel takes x^-2 f as one of x = (n0
    + shift) / (n + shift).  The pole of f at n = -shift lies at least
    three half-widths from the centre of each panel, or at x = infinity."""
    nodes, weights, lo = [], [], first
    while lo < max(shift, smooth):
        hi = lo + (min(lo, width) if lo < smooth else lo)
        n, w = _panel_rule(lo, hi)
        nodes.append(n)
        weights.append(w)
        lo = hi
    n, w, w_inf = _last_panel_rule(lo, shift)
    if nodes:   # n = first at full weight, n = lo half in each of its panels
        weights[0][0] += 0.5
        w[-1] -= 0.5
    nodes, at = np.unique(np.concatenate(nodes + [n]), return_inverse=True)
    return nodes, np.bincount(at, np.concatenate(weights + [w])), w_inf


def _matsubara_sum(params: SystemParams, bath: BathParams, t, tprime) -> np.ndarray:
    """The symmetrized term at kT > 0 as a Matsubara sum over rates, at 1-D
    arrays of positive times, from one ``_ou_covariance`` sweep.

    coth(hbar w / 2kT) / 2 = kT / hbar w + sum_(n >= 1) (2 kT / hbar) w
    / (w^2 + nu_n^2), nu_n = n dnu, dnu = 2 pi kT / hbar (Grabert, Schramm &
    Ingold, Phys. Rep. 168, 115 (1988)), so the spectrum hbar J (n + 1/2) / pi
    is the classical one plus (2 gamma kT / pi) omega_d^2 w^2 / ((w^2
    + omega_d^2) (w^2 + nu_n^2)) for each n, and the term is
    (hbar gamma / pi) dnu [f(0) / 2 + sum_(n >= 1) f(nu_n)] with f of
    ``_lorentz_excess``: the trapezoid rule of step dnu for the rate
    integral of ``_zero_point_term``.

    The rates below first dnu are summed one by one, where first dnu times
    the shortest of t, t' and |t - t'| reaches ``_TAIL_START``, so that past
    it f has shed its e^(-nu t) parts and is smooth on the lattice, but for
    at most ``_TAIL_FIRST_MAX`` rates; ``_tail_rule`` sums the rest from f
    at its nodes, with f (nu + omega_d)^2 -> -omega_d^2 K_omega_d at
    infinity.  With omega_d below first dnu that is first - 1
    + ``_LAST_DEGREE`` rates, as accurate as their terms.

    Past f(0) / 2 the sum is about omega_d K_omega_d / (V_omega_d dnu^2)
    of it, under (r / dnu)^2 with r the fastest rate of the motion, of the
    bath or 1 / t: where dnu is more than ``_HOT`` r, it is f(0) / 2 alone,
    and no rate nu_n can overflow.
    """
    step = 2.0 * math.pi * bath.kT / params.hbar
    scale = np.minimum(np.minimum(t, tprime), np.where(t == tprime, np.inf, np.abs(t - tprime)))
    fastest = max(bath.omega_d, params.omega, math.sqrt(bath.gamma * bath.omega_d),
                  1.0 / scale.min())
    if step > _HOT * fastest:
        first, nodes, weights, at_infinity = 1, np.empty(0), np.empty(0), 0.0
    else:
        smooth = _TAIL_START / (step * scale.min())
        first = min(math.ceil(smooth), _TAIL_FIRST_MAX)
        nodes, weights, at_infinity = _tail_rule(first, bath.omega_d / step, smooth,
                                                 max(1, math.floor(_PANEL_REACH / _TAIL_START
                                                                   * smooth)))
    f, at_zero, k_wd = _lorentz_excess(
        params, bath, step * np.concatenate([np.arange(1.0, first), nodes]), t, tprime)
    # hbar gamma dnu / pi = 2 gamma kT
    return 2.0 * bath.gamma * bath.kT * (
        0.5 * at_zero + f[:first - 1].sum(axis=0) + weights @ f[first - 1:]
        - at_infinity * (bath.omega_d / step) ** 2 * k_wd)


def _moments(params: SystemParams, bath: BathParams, t: np.ndarray, order: int,
             span: float) -> np.ndarray:
    """rho_l(t) / (l! span^l), rho_l(t) = int_0^t G(t - s) s^l ds, for l = 0
    .. order on a new last axis: the x entry of one exponential of A with a
    chain c_0, c_1 = c_0 s / span, ..., c_order, whose last state forces v."""
    gen, _ = _generator(params, bath, order + 4)
    gen[1, -1] = 1.0
    chain = np.arange(4, order + 4)
    gen[chain, chain - 1] = 1.0 / span
    return expm(gen * t[:, None, None])[:, 0, :2:-1]


def _zeta_even(count: int) -> np.ndarray:
    """zeta(2), zeta(4), ..., zeta(2 count): 31 terms and Euler-Maclaurin."""
    s = 2.0 * np.arange(1, count + 1)
    n = 32.0
    head = (np.arange(1.0, n)[:, None] ** -s).sum(axis=0)
    rising = s * (s + 1) * (s + 2)
    return (head + n ** (1 - s) / (s - 1) + 0.5 * n**-s + s * n ** (-s - 1) / 12.0
            - rising * n ** (-s - 3) / 720.0 + rising * (s + 3) * (s + 4) * n ** (-s - 5) / 30240.0)


def _digamma_excess(x: float) -> float:
    """ln x - psi(x) - 1/(2x) for x > 0: the excess of the trapezoid rule of
    unit step, from u = 0, over the integral of 1 / (x + u)."""
    total = 0.0
    while x < 20.0:
        total += math.log(x / (x + 1.0)) + 0.5 / x + 0.5 / (x + 1.0)
        x += 1.0
    y = 1.0 / (x * x)
    return total + y * (1 / 12 - y * (1 / 120 - y * (1 / 252 - y * (1 / 240 - y / 132))))


def _dense_lattice_term(params: SystemParams, bath: BathParams, t, tprime) -> np.ndarray:
    """The occupation term at kT > 0 where the Matsubara lattice is dense, at
    1-D arrays of positive times no longer than span = _DENSE_LATTICE / dnu.

    It is the excess of the Matsubara sum of ``_matsubara_sum`` over the
    rate integral of ``_zero_point_term``, and Abel-Plana turns it into
    the Euler-Maclaurin series at nu = 0, sum_k 2 (-1)^k (2k - 1)! zeta(2k)
    (kT / hbar)^(2k) times the nu^(2k-1) coefficient of f, which
    converges like (kT span / hbar)^(2k) where f is entire.  f is entire
    but for the pole C / (omega_d + nu), with C = sum_i mu_2i
    omega_d^(2i+2) and the even moments mu_2i = int int G(t - s) G(t' - s')
    (s - s')^(2i) / (2i)!: where omega_d span is at most
    ``_POLE_IN_CLOSED_FORM`` the pole is summed in closed form, C (ln x
    - psi(x) - 1/2x) with x = omega_d / dnu, and the rest has the odd
    coefficients sum_(i >= k) mu_2i omega_d^(2i-2k+2); elsewhere x >= 5
    and the pole costs no more than e^(-2 pi x) of the series, whose
    coefficients are then -sum_(i < k) mu_2i omega_d^(2i-2k+2).  The
    moments are products of rho_l of ``_moments``: one exponential per
    distinct time.
    """
    span = max(np.max(t), np.max(tprime))
    wd = bath.omega_d
    z = wd * span
    ratio = (bath.kT * span / params.hbar) ** 2
    terms = max(1, math.ceil(-39.0 / math.log(ratio))) if ratio > 0.0 else 1
    pole = z <= _POLE_IN_CLOSED_FORM
    moments = terms
    while pole and z ** (2 * moments) / math.factorial(2 * moments) > 1e-17:
        moments += 1
    times, at = np.unique(np.concatenate([t, tprime]), return_inverse=True)
    rho = _moments(params, bath, times, 2 * moments, span)
    left, right = rho[at[:len(t)]], rho[at[len(t):]]
    sign = (-1.0) ** np.arange(2 * moments + 1)
    # mu_2i / span^2i, rows i
    mu = np.array([(sign[:2 * i + 1] * left[:, :2 * i + 1] * right[:, 2 * i::-1]).sum(axis=1)
                   for i in range(moments + 1)])
    k = np.arange(1, terms + 1)
    factor = (2.0 * (-1.0) ** k * np.array([math.factorial(2 * j - 1) for j in k])
              * _zeta_even(terms) * ratio**k)
    i = np.arange(moments + 1)
    with np.errstate(divide="ignore", over="ignore"):
        power = z ** (2.0 * (i[None, :] - k[:, None]))   # (omega_d span)^(2i - 2k)
    keep = (i[None, :] >= k[:, None]) if pole else (i[None, :] < k[:, None])
    odd = np.where(keep, power, 0.0) @ mu * (wd**2 if pole else -wd**2)
    total = factor @ odd
    if pole:
        total += wd**2 * (z ** (2.0 * i) @ mu) * _digamma_excess(wd * params.hbar
                                                                 / (2.0 * math.pi * bath.kT))
    return params.hbar * bath.gamma / math.pi * total


def _noise_term(params: SystemParams, bath: BathParams, t, tprime,
                convention: str, abs_tol):
    """Bath term int S(w) e^(i w (t - t')) W(w, t) conj(W(w, t')) dw at times
    and tolerances that broadcast, with no frequency quadrature.

    The classical spectrum is the Lorentzian of the force correlation
    gamma kT omega_d e^(-omega_d |tau|): the term is gamma kT omega_d
    V_omega_d(t, t'), one sweep over all times.  The zero-point part is
    ``_zero_point_term``, one rate rule for all times.  At kT > 0 the
    symmetrized term is the Matsubara sum of ``_matsubara_sum``, one more
    sweep, and the occupation term its excess over the zero-point part.
    Where the lattice is dense ``_dense_lattice_term`` gives that excess
    directly, so that the two are never subtracted there, and the
    symmetrized term is it plus the zero-point part: a Matsubara sum there
    would take more rates the colder the bath.  A rule that fails is
    re-raised with its best estimate, naming the time, the convention and
    the bath."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown noise convention {convention!r}")
    t, tprime, abs_tol = np.broadcast_arrays(t, tprime, abs_tol)
    shape = t.shape
    t, tprime, abs_tol = t.ravel(), tprime.ravel(), abs_tol.ravel()
    out = np.zeros(t.shape)
    live = (np.minimum(t, tprime) > 0.0) & (bath.gamma > 0.0)
    step = 2.0 * math.pi * bath.kT / params.hbar
    with np.errstate(over="ignore"):   # a step times t past 1e308 is sparse all the same
        sparse = live & (step * np.maximum(t, tprime) > _DENSE_LATTICE)
    dense = live & (step > 0.0) & ~sparse
    zero_point = sparse if convention == OCCUPATION else live & ~sparse
    fastest = max(bath.omega_d, params.omega, math.sqrt(bath.gamma * bath.omega_d))
    free = zero_point & (t == tprime) & (t * fastest <= _FREE_MOTION)

    if convention == CLASSICAL:
        if bath.gamma > 0.0:
            out = bath.gamma * bath.kT * _ou_covariance(params, bath, bath.omega_d,
                                                        t, tprime)[0]
    else:
        if dense.any():
            out[dense] = _dense_lattice_term(params, bath, t[dense], tprime[dense])
        if sparse.any():
            out[sparse] = _matsubara_sum(params, bath, t[sparse], tprime[sparse])
        zero = np.zeros(t.shape)
        zero[free] = _free_zero_point(params, bath, t[free])
        rule = np.flatnonzero(zero_point & ~free)
        if rule.size:
            try:
                zero[rule] = _zero_point_term(params, bath, t[rule], tprime[rule],
                                              abs_tol[rule])
            except QuadratureError as exc:   # name its first time out of tolerance
                best = exc.best
                tol = np.fmax(abs_tol[rule], 1e-11 * np.abs(best.value))
                i = rule[np.argmax(~(best.error_estimate <= tol))]
                where = f"t={t[i]:g}" + (f", t'={tprime[i]:g}" if t[i] != tprime[i] else "")
                raise QuadratureError(
                    f"variance_noise at {where} ({convention} convention, gamma="
                    f"{bath.gamma:g}, omega_d={bath.omega_d:g}, kT={bath.kT:g}): {exc}",
                    best) from exc
        out += np.where(sparse, -zero, zero)
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def variance_noise_term(params: SystemParams, bath: BathParams, t,
                        convention: str = OCCUPATION, abs_tol=1e-14):
    """Bath contribution 2 int_0^inf S(w) |W(w, t)|^2 dw to the variance at a
    float or an ndarray of times (and of tolerances), with no frequency
    quadrature: the classical term in closed form, the zero-point term as
    an integral over a rate to ``abs_tol`` or 1e-11 relative, and the Bose
    part as a Matsubara sum over rates, or, where the lattice is dense, as
    its Euler-Maclaurin series, each to about 1e-13 relative."""
    t = _times(t)
    return _noise_term(params, bath, t, t, convention, abs_tol)


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


def _centered_covariance(params: SystemParams, moments: InitialMoments, g, gd,
                         g_prime, gd_prime):
    """var_x G'G' + var_p G G + sym_xp (G'(t) G(t') + G(t) G'(t')) from G and
    G' at t and at t'; the moments must obey the uncertainty relation."""
    if moments.var_x * moments.var_p < (params.hbar / 2.0) ** 2 * (1.0 - 1e-9):
        raise ValueError("initial moments violate the uncertainty relation")
    return (moments.var_x * gd * gd_prime + moments.var_p * g * g_prime
            + moments.sym_xp * (gd * g_prime + gd_prime * g))


def open_evolution(params: SystemParams, bath: BathParams, moments: InitialMoments,
                   force: ForceProfile, t, convention: str = OCCUPATION):
    """G, G', the mean position of ``mean_trajectory`` (from moments.mean_x
    and moments.mean_p), and the two parts of the variance at a float or an
    ndarray of times, from one exponential per time: the dynamic part
    var_x G'^2 + var_p G^2 + 2 sym_xp G' G, and the bath-noise part of
    ``variance_noise_term``, its tolerance slaved to the first (1e-10
    relative), NaN and not computed where the dynamic part is not finite.
    A float time gives 0-d arrays."""
    t = _times(t)
    g, gd = green_pair(params, bath, t)
    mean = _mean(params, bath, moments.mean_x, moments.mean_p, force, t, g, gd)
    dynamic = _centered_covariance(params, moments, g, gd, g, gd)
    noise, finite = np.full(t.shape, np.nan), np.isfinite(dynamic)
    noise[finite] = variance_noise_term(params, bath, t[finite], convention, 1e-10
                                        * np.maximum(np.abs(dynamic[finite]), 1e-30))
    return g, gd, mean, dynamic, noise


def symmetrized_correlation(params: SystemParams, bath: BathParams,
                            moments: InitialMoments, force: ForceProfile,
                            t: float, tprime: float,
                            convention: str = OCCUPATION) -> float:
    """Two-time symmetrized position correlator phi(t, t').

    The centered initial moments propagated by G and G', plus m(t) m(t')
    for the mean trajectory m, plus the bath-noise cross spectrum; G and G'
    at t and t' from one exponential each.
    """
    times = _times([t, tprime])
    g, gd = green_pair(params, bath, times)
    m = _mean(params, bath, moments.mean_x, moments.mean_p, force, times, g, gd)
    val = float(_centered_covariance(params, moments, g[0], gd[0], g[1], gd[1]) + m[0] * m[1])
    return val + _noise_term(params, bath, t, tprime, convention,
                             1e-10 * max(abs(val), 1.0))


def discriminant_boundary(a):
    """The b value where the cubic discriminant D(a, b) changes sign, at a
    float or an ndarray of a: D > 0 above it (one real root and a conjugate
    pair), D < 0 just below it (three real roots).  There r^3 + a r^2 + b r
    - a = (r + s)^2 (r - a / s^2), so a = 2 s^3 / (1 + s^2) and b = s^2 (s^2
    - 3) / (1 + s^2): s is the one positive root of s^3 - (a/2) s^2 - a/2,
    by Cardano's formula."""
    a = np.asarray(a, dtype=float)
    if not np.all((a > 0.0) & np.isfinite(a)):
        raise ValueError("a must be positive")
    u = np.cbrt(a**3 / 216.0 + a / 4.0 + a / 4.0 * np.sqrt(a * a / 27.0 + 1.0))
    s2 = (a / 6.0 + u + a * a / (36.0 * u)) ** 2
    b = s2 * (s2 - 3.0) / (1.0 + s2)
    return float(b) if b.ndim == 0 else b
