"""Seeded op lists for the benchmark workloads.

One op is one CLI invocation.  A seed moves parameter values only inside
a small box chosen so that every op keeps its cost class: knot times,
sample counts, time ranges, sweep sizes and the pole root class stay
fixed.  Every value a check needs (omega, hbar, sigma, ...) is passed to
the program explicitly, so the checks never depend on its defaults.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

SYSTEM = {"omega": 1.0, "hbar": 1.0}
KNOT_TIMES = [0.0, 0.5, 1.5]   # off the bisection points of [0, 1.5]


@dataclass(frozen=True)
class Op:
    """One CLI invocation: command, extra flags and the config it sets."""

    name: str
    command: str
    config: dict
    flags: tuple = ()

    def argv(self) -> list[str]:
        """CLI arguments, without ``--out``."""
        out = [self.command, *self.flags]
        for section, values in self.config.items():
            for key, value in values.items():
                out += ["--set", f"{section}.{key}={json.dumps(value)}"]
        return out


def _u(rng: random.Random, centre: float, half_width: float) -> float:
    return round(rng.uniform(centre - half_width, centre + half_width), 6)


def _packet(rng):
    return {"x0": _u(rng, -3.0, 0.2), "p0": _u(rng, 1.0, 0.1),
            "sigma": _u(rng, 1.0, 0.05)}


def _bath(rng, **extra):
    # omega_d stays fixed: it sets the first interval of the doubling
    # spectral integral, and moving it changes the evaluation count by up
    # to 10%.  b = gamma omega_d / omega^2 - 1 stays near 4, far below the
    # discriminant boundary b ~ 23 at a = omega_d / omega = 10, so every
    # seed gives three real poles.
    return {"gamma": _u(rng, 0.5, 0.015), "omega_d": 10.0, **extra}


def closed_drive(rng: random.Random) -> list[Op]:
    horizon = {"t_max": 1.5, "samples": 16}
    return [
        Op("evolve-harmonic", "evolve", {
            "system": SYSTEM, "packet": _packet(rng), "evolve": horizon,
            "force": {"kind": "harmonic", "amplitude": _u(rng, 0.5, 0.05),
                      "omega0": _u(rng, 2.0, 0.1)}}),
        Op("evolve-constant", "evolve", {
            "system": SYSTEM, "packet": _packet(rng), "evolve": horizon,
            "force": {"kind": "constant", "amplitude": _u(rng, 0.3, 0.05)}}),
        Op("evolve-tabulated", "evolve", {
            "system": SYSTEM, "packet": _packet(rng),
            "evolve": {"t_max": 1.5, "samples": 2},
            "force": {"kind": "tabulated", "times": KNOT_TIMES,
                      "values": [0.0, _u(rng, 0.4, 0.04), 0.0]}}),
        Op("kick", "kick", {
            "system": SYSTEM, "packet": _packet(rng), "evolve": horizon,
            "force": {"kind": "zero"},
            "kick": {"momentum": _u(rng, 1.0, 0.1), "time": _u(rng, 0.5, 0.05)}}),
    ]


def closed_long(rng: random.Random) -> list[Op]:
    # Reaches omega t = 20, where the Gaussian width cancels catastrophically
    # and the program writes a wrong norm; every op here fails until that
    # defect is fixed.
    return [Op("evolve-long", "evolve", {
        "system": SYSTEM, "packet": _packet(rng),
        "evolve": {"t_max": 20.0, "samples": 16}, "force": {"kind": "zero"}})]


def open_noise(rng: random.Random) -> list[Op]:
    horizon = {"t_max": 3.0, "samples": 31}

    def op(name, bath, force=None):
        return Op(name, "open-evolve", {
            "system": SYSTEM, "packet": _packet(rng), "open": horizon,
            "bath": bath, "force": force or {"kind": "zero"}})

    return [
        op("open-zero-point", _bath(rng, kT=0.0, noise="symmetrized")),
        op("open-occupation", _bath(rng, kT=_u(rng, 1.0, 0.1), noise="occupation")),
        op("open-classical", _bath(rng, kT=_u(rng, 1.0, 0.1), noise="classical")),
        op("open-tabulated", _bath(rng, kT=_u(rng, 1.0, 0.1), noise="occupation"),
           {"kind": "tabulated", "times": KNOT_TIMES,
            "values": [0.0, _u(rng, 0.4, 0.04), 0.0]}),
    ]


def oracle_verify(rng: random.Random) -> list[Op]:
    packet = {"x0": _u(rng, 0.0, 0.2), "p0": _u(rng, 0.0, 0.1), "sigma": 1.0}
    return [
        Op("verify-default", "verify", {"system": SYSTEM, "packet": packet,
                                        "force": {"kind": "zero"}}),
        Op("verify-harmonic", "verify", {
            "system": SYSTEM, "packet": packet,
            "force": {"kind": "harmonic", "amplitude": _u(rng, 0.5, 0.05),
                      "omega0": _u(rng, 2.0, 0.1)}}),
    ]


def tunnel_sweep(rng: random.Random) -> list[Op]:
    ops = [Op(f"tunnel-eps{eps:g}", "tunnel", {"tunnel": {
        "epsilon": _u(rng, eps, 0.02 * eps), "beta_min": _u(rng, 0.05, 0.005),
        "beta_max": _u(rng, 0.95, 0.005), "points": 300}})
        for eps in (3.0, 10.0, 30.0)]
    a_min, a_max = _u(rng, 0.5, 0.05), _u(rng, 20.0, 1.0)
    ops.append(Op("open-poles-boundary", "open-poles", {},
                  ("--boundary", repr(a_min), repr(a_max), "400")))
    return ops


WORKLOADS = {
    "closed-drive": closed_drive,
    "open-noise": open_noise,
    "oracle-verify": oracle_verify,
    "tunnel-sweep": tunnel_sweep,
    # Not a benchmark workload: shows the known long-horizon norm defect.
    "closed-long": closed_long,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The op list of a workload; the same seed gives the same ops."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
