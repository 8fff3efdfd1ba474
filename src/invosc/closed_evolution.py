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
hyperbolic rather than trigonometric coefficients.  The center, the
phase and the kernel's action all come from the closed-form sweep of the
classical path in ``classical_dynamics``, whose pieces are cut at the
force's knots and at delta kicks; nothing is integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical_dynamics import _classical_path
from .core import ForceProfile, GaussianPacket, SystemParams, ZeroForce

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


def _states(params: SystemParams, packet: GaussianPacket, t, name: str,
            force: ForceProfile, kicks=()) -> EvolvedGaussian:
    """The state at t, a float or an ndarray of times, under ``force`` and the
    sorted delta ``kicks`` (t_k, p_k) up to each time.  Each time has its own
    sweep and its own cosh and sinh, so a stack equals its states one time
    at a time bit for bit; an overflow names its time."""
    ts = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(ts) & (ts >= 0.0)):
        raise ValueError("t must be finite and non-negative")
    om, sig2 = params.omega, packet.sigma**2
    eps, rows = params.hbar / (2.0 * om * sig2), []
    for s in ts.ravel().tolist():
        try:
            xi, xi_dot, action = _classical_path(params, packet.x0, packet.p0,
                                                 force, 0.0, s, kicks)
            rows.append((s, xi, xi_dot, complex(math.cosh(om * s), eps * math.sinh(om * s)),
                         action + packet.p0 * packet.x0))
        except OverflowError as exc:
            raise OverflowError(f"{name} overflowed at t={s:g}: {exc}") from exc
    times, xi, xi_dot, gamma, phase = np.moveaxis(
        np.array(rows, dtype=complex).reshape(*ts.shape, 5), -1, 0)
    norm = (2.0 * math.pi * sig2) ** -0.25 / np.sqrt(gamma)
    fields = times.real, xi.real, xi_dot.real, gamma, phase.real, norm
    return EvolvedGaussian(*(f.item() if ts.ndim == 0 else f for f in fields))


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

    The path is the forced one from rest at t1 (xi_F, action S_F) plus a
    free motion from x1 to y = x - xi_F(t); the cross terms integrate by
    parts to y xi_F'(t), so with theta = t - t1
    S = S_F + y xi_F' + om [cosh(om theta)(y^2 + x1^2) - 2 y x1] / (2 sinh(om theta)).
    Endpoints may be complex (used by contour-based semigroup checks).
    """
    theta = _check_elapsed(params, t, t1)
    om = params.omega
    sh, ch = math.sinh(om * theta), math.cosh(om * theta)
    xi_f, xi_f_dot, s_f = _classical_path(params, 0.0, 0.0, force, t1, t)
    y = x - xi_f
    out = s_f + y * xi_f_dot + om / (2.0 * sh) * (ch * (y * y + x1 * x1)
                                                   - 2.0 * y * x1)
    return out if np.iscomplexobj(out) else float(out)


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
                    force: ForceProfile, t) -> EvolvedGaussian:
    """Evolve the initial packet under a pointwise force profile to t, a float
    or an ndarray of times: the states' fields are then arrays of its shape."""
    return _states(params, packet, t, "evolve_gaussian", force)


def _width(ev: EvolvedGaussian, params: SystemParams, packet: GaussianPacket):
    """i Gamma'/(om Gamma), the coefficient of (x - xi)^2 in the exponent of
    psi, for a state or a stack of states; a packet so narrow that
    eps^2 = (hbar / 2 om sigma^2)^2 overflows raises OverflowError."""
    om = params.omega
    eps = params.hbar / (2.0 * om * packet.sigma**2)
    if math.isinf(eps * eps):
        raise OverflowError(f"the packet width overflows: (hbar / (2 omega sigma^2))^2 "
                            f"= {eps:g}^2 at sigma={packet.sigma:g}")
    with np.errstate(over="ignore", invalid="ignore"):
        ch, sh = np.cosh(om * ev.t), np.sinh(om * ev.t)
        # (-eps + i (1 + eps^2) sinh cosh) / |Gamma|^2, split by hand: formed as
        # a quotient, its real part is the difference of two numbers close to
        # one and cancels at long times.
        return 0.5 * om / params.hbar / (ch * ch + eps * eps * sh * sh) * (
            -eps + 1j * (1.0 + eps * eps) * sh * ch)


def evaluate(ev: EvolvedGaussian, params: SystemParams,
             packet: GaussianPacket, x):
    """Wavefunction psi(x, t) of an evolved Gaussian, or of a stack of them
    whose fields are column arrays, one row per state, against which x
    broadcasts: one row of positions per state.  A single state and a
    scalar x give a complex.  Past the float range (|Gamma|^2 overflows
    near om t = 355 at sigma^2 = hbar / 2 om) it is NaN, without a warning;
    a packet so narrow that eps^2 = (hbar / 2 om sigma^2)^2 overflows, below
    sigma ~ 1e-77 sqrt(hbar / om), raises OverflowError naming sigma."""
    width = _width(ev, params, packet)
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.atleast_1d(x) - ev.xi   # a scalar x rounds as an array x does
        out = ev.norm_prefactor * np.exp(
            width * y * y + 1j * ((ev.xi_dot * y + ev.phase_action) / params.hbar))
    return complex(out[0]) if np.ndim(x) == 0 and np.ndim(ev.t) == 0 else out


def norm_and_variance(ev: EvolvedGaussian, params: SystemParams,
                      packet: GaussianPacket):
    """Norm and variance of |psi|^2 = |N|^2 e^{-c (x - xi)^2}, c = -2 Re(width),
    in closed form: |N|^2 sqrt(pi / c) and 1 / 2c.  The norm checks that the
    prefactor and the width, coded apart, agree.  Stacks broadcast as in
    ``evaluate``; past the float range of |Gamma|^2 both are non-finite,
    without a warning."""
    c = -2.0 * _width(ev, params, packet).real
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.abs(ev.norm_prefactor) ** 2 * np.sqrt(math.pi / c), 0.5 / c


def delta_kick_at(params: SystemParams, packet: GaussianPacket,
                  p: float, t1: float, t) -> EvolvedGaussian:
    """Evolve freely, with a momentum boost p at t1, to t, a float or an
    ndarray of times; a time before t1 is the free state.

    The boost is the force p delta(s - t1): the spreading factor depends
    only on the total time, the center's velocity jumps by p at t1, and
    the phase gains p * xi(t1).  At t1 = 0 the kick multiplies the packet
    by exp(i p x / hbar): it is the packet of momentum p0 + p, evolved
    freely.  A zero p is no kick, so the states are the free ones bit for
    bit.
    """
    if not 0.0 <= t1 < math.inf:
        raise ValueError("kick time t1 must be finite and non-negative")
    if not math.isfinite(p):
        raise ValueError("kick momentum must be finite")
    return _states(params, packet, t, "delta_kick_at", ZeroForce(), ((t1, p),) if p else ())
