"""Parameter records, force profiles, and the initial Gaussian state.

Units are natural: the particle mass is fixed to 1, the barrier curvature
``omega`` carries inverse time, and ``hbar`` is kept as a free parameter
(default 1) so the classical limit can be probed numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Barrier curvature and Planck constant; mass is 1 by convention."""

    omega: float
    hbar: float = 1.0

    def __post_init__(self):
        _require_finite("omega", self.omega)
        _require_finite("hbar", self.hbar)
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class ZeroForce:
    """No external drive."""


@dataclass(frozen=True)
class ConstantForce:
    amplitude: float

    def __post_init__(self):
        _require_finite("amplitude", self.amplitude)


@dataclass(frozen=True)
class HarmonicForce:
    """Sinusoidal drive F sin(omega0 t); no phase offset by design."""

    amplitude: float
    omega0: float

    def __post_init__(self):
        _require_finite("amplitude", self.amplitude)
        _require_finite("omega0", self.omega0)
        if self.omega0 <= 0.0:
            raise ValueError("omega0 must be positive")


@dataclass(frozen=True)
class DeltaKick:
    """Instantaneous momentum transfer at a single instant.

    Has no pointwise force value; evolution handles it through a
    dedicated closed form, never through quadrature.
    """

    momentum: float
    kick_time: float = 0.0

    def __post_init__(self):
        _require_finite("momentum", self.momentum)
        _require_finite("kick_time", self.kick_time)
        if self.kick_time < 0.0:
            raise ValueError("kick_time must be non-negative")


@dataclass(frozen=True)
class TabulatedForce:
    """Piecewise-linear force; zero outside the tabulated support."""

    times: tuple = field(default=())
    values: tuple = field(default=())

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        if len(times) < 2:
            raise ValueError("a tabulated force needs at least two samples")
        for t in times:
            _require_finite("times entry", t)
        for v in values:
            _require_finite("values entry", v)
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


ForceProfile = Union[ZeroForce, ConstantForce, HarmonicForce, DeltaKick, TabulatedForce]


def force_at(profile: ForceProfile, t):
    """Pointwise force value F(t) at a scalar time or an ndarray of times.

    Tabulated profiles interpolate linearly between nodes and vanish
    outside their support, endpoints included in it.  A delta kick has
    no pointwise value and is rejected.  A scalar t gives a float.
    """
    if isinstance(profile, DeltaKick):
        raise ValueError("kick has no pointwise value")
    ts = np.asarray(t, dtype=float)
    if not np.isfinite(ts).all():
        raise ValueError("t must be finite")
    if isinstance(profile, ZeroForce):
        out = np.zeros_like(ts)
    elif isinstance(profile, ConstantForce):
        out = np.full_like(ts, profile.amplitude)
    elif isinstance(profile, HarmonicForce):
        out = profile.amplitude * np.sin(profile.omega0 * ts)
    elif isinstance(profile, TabulatedForce):
        out = np.interp(ts, profile.times, profile.values, left=0.0, right=0.0)
    else:
        raise TypeError(f"unknown force profile {profile!r}")
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GaussianPacket:
    """Initial minimum-uncertainty state centered at (x0, p0).

    ``sigma`` squared is the coordinate variance of the probability
    density.
    """

    x0: float
    p0: float
    sigma: float

    def __post_init__(self):
        _require_finite("x0", self.x0)
        _require_finite("p0", self.p0)
        _require_finite("sigma", self.sigma)
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


def evaluate_initial(packet: GaussianPacket, params: SystemParams, x):
    """Initial wavefunction (2 pi sigma^2)^(-1/4) exp(-(x-x0)^2/4sigma^2 + i p0 x / hbar).

    Accepts a scalar or an ndarray of positions.
    """
    norm = (2.0 * math.pi * packet.sigma**2) ** -0.25
    arg = (-((np.asarray(x) - packet.x0) ** 2) / (4.0 * packet.sigma**2)
           + 1j * packet.p0 * np.asarray(x) / params.hbar)
    out = norm * np.exp(arg)
    if np.isscalar(x) or np.ndim(x) == 0:
        return complex(out)
    return out
