"""Command-line interface.

Every command consumes one JSON config (defaults merged with an optional
file and ``--set`` overrides, unknown keys rejected by path) and emits
either CSV (sweeps, time series) or JSON (pole tables, reports).  Output
is deterministic: floats are printed in scientific notation with 17
significant digits, lines end with a bare newline, and each artifact
carries the SHA-256 of the effective config that produced it.

Exit codes: 0 success, 2 config error, 3 numerical or domain error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys

import numpy as np

from . import barrier_transmission as bt
from . import closed_evolution as ce
from . import numerics
from . import open_system as osys
from .core import (ConstantForce, DeltaKick, GaussianPacket, HarmonicForce,
                   SystemParams, TabulatedForce, ZeroForce)
from .numerics import integrate_adaptive


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "system": {"omega": 1.0, "hbar": 1.0},
    "packet": {"x0": 0.0, "p0": 0.0, "sigma": 1.0},
    "force": {
        "kind": "zero",
        "amplitude": 0.0,
        "omega0": 1.0,
        "momentum": 0.0,
        "time": 0.0,
        "times": [],
        "values": [],
    },
    "bath": {"gamma": 0.5, "omega_d": 10.0, "kT": 1.0, "noise": "occupation"},
    "grid": {"x_min": -40.0, "x_max": 40.0, "n": 4096, "dt": 0.001},
    "evolve": {"t_max": 1.5, "samples": 16},
    "wavefunction": {"x_min": -10.0, "x_max": 10.0, "points": 401},
    "kick": {"momentum": 1.0, "time": 0.0},
    "tunnel": {"epsilon": 3.0, "beta_min": 0.05, "beta_max": 0.95, "points": 19},
    "barrier": {"xi0": -0.5, "forces": [-0.2, 0.0, 0.2],
                "xi_min": -1.5, "xi_max": 1.5, "points": 121},
    "open": {"t_max": 3.0, "samples": 31},
    "boundary": {"a_min": 0.5, "a_max": 20.0, "points": 100},
    "verify": {
        "grid_times": [0.5, 1.0, 1.5],
        "grid_tolerance": 1e-3,
        "green_cases": [{"omega_d": 10.0, "gamma": 0.5},
                        {"omega_d": 2.0, "gamma": 5.0}],
        "green_horizon_factor": 5.0,
        "green_dt": 5e-4,
        "green_tolerance": 1e-6,
        "tunnel_points": [{"epsilon": 10.0, "beta": 0.3, "tolerance": 0.15},
                          {"epsilon": 30.0, "beta": 0.2, "tolerance": 0.08}],
        "windowed_omega": 0.7,
        "windowed_t": 2.0,
        "windowed_tolerance": 1e-10,
    },
}


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _merge(defaults, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError(f"config section '{path or '<root>'}' must be an object")
    merged = {}
    for key, default_value in defaults.items():
        here = f"{path}.{key}" if path else key
        if key not in override:
            merged[key] = copy.deepcopy(default_value)
        elif isinstance(default_value, dict):
            merged[key] = _merge(default_value, override[key], here)
        elif (isinstance(default_value, list) and default_value
              and isinstance(default_value[0], dict)):
            merged[key] = [_merge(default_value[0], item, f"{here}[{i}]")
                           for i, item in enumerate(override[key])]
        else:
            merged[key] = copy.deepcopy(override[key])
    for key in override:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key '{here}'")
    return merged


def _apply_override(config, assignment: str):
    if "=" not in assignment:
        raise ConfigError(f"override '{assignment}' is not of the form path=value")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    keys = dotted.split(".")
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"unknown config key '{dotted}'")
        node = node[key]
    last = keys[-1]
    if not isinstance(node, dict) or last not in node:
        raise ConfigError(f"unknown config key '{dotted}'")
    node[last] = value


def load_config(config_path: str | None, overrides) -> dict:
    file_cfg = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    merged = _merge(DEFAULT_CONFIG, file_cfg)
    for assignment in overrides or ():
        _apply_override(merged, assignment)
    return merged


def config_sha256(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build_system(config) -> SystemParams:
    sec = config["system"]
    try:
        return SystemParams(omega=float(sec["omega"]), hbar=float(sec["hbar"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"system: {exc}") from exc


def _build_packet(config) -> GaussianPacket:
    sec = config["packet"]
    try:
        return GaussianPacket(x0=float(sec["x0"]), p0=float(sec["p0"]),
                              sigma=float(sec["sigma"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"packet: {exc}") from exc


def _build_force(config):
    sec = config["force"]
    kind = sec["kind"]
    try:
        if kind == "zero":
            return ZeroForce()
        if kind == "constant":
            return ConstantForce(amplitude=float(sec["amplitude"]))
        if kind == "harmonic":
            return HarmonicForce(amplitude=float(sec["amplitude"]),
                                 omega0=float(sec["omega0"]))
        if kind == "delta_kick":
            return DeltaKick(momentum=float(sec["momentum"]),
                             kick_time=float(sec["time"]))
        if kind == "tabulated":
            return TabulatedForce(times=tuple(sec["times"]),
                                  values=tuple(sec["values"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"force: {exc}") from exc
    raise ConfigError(f"force.kind: unknown kind '{kind}'")


def _build_bath(config) -> osys.BathParams:
    sec = config["bath"]
    if sec["noise"] not in (osys.OCCUPATION, osys.SYMMETRIZED, osys.CLASSICAL):
        raise ConfigError(f"bath.noise: unknown convention '{sec['noise']}'")
    try:
        return osys.BathParams(gamma=float(sec["gamma"]),
                               omega_d=float(sec["omega_d"]),
                               kT=float(sec["kT"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bath: {exc}") from exc


def _number(value, path: str) -> float:
    """A numeric config entry as a float; a bad value is a ConfigError naming it."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: expected a number, got {value!r}") from exc


def _count(value, path: str, minimum: int = 1) -> int:
    """An integral config entry >= ``minimum``; else a ConfigError naming it."""
    number = _number(value, path)
    if not (number.is_integer() and number >= minimum):
        raise ConfigError(f"{path}: expected an integer >= {minimum}, "
                          f"got {value!r}")
    return int(number)


def _sample_times(config, section: str) -> np.ndarray:
    """``samples`` times from 0 to ``t_max`` of a config section, both checked."""
    sec = config[section]
    t_max = _number(sec["t_max"], f"{section}.t_max")
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ConfigError(f"{section}.t_max: expected a finite number >= 0, "
                          f"got {sec['t_max']!r}")
    return np.linspace(0.0, t_max, _count(sec["samples"], f"{section}.samples"))


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{float(value):.16e}"


def render_csv(header, rows, cfg_hash: str) -> str:
    """CSV text; a NaN or infinite cell raises ArithmeticError naming it."""
    lines = [f"# config-sha256: {cfg_hash}", ",".join(header)]
    for row in rows:
        for name, v in zip(header, row):
            if not (v is None or isinstance(v, str) or math.isfinite(v)):
                raise ArithmeticError(f"non-finite {name} at {header[0]}={row[0]:g}")
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Shared measurement helpers
# ---------------------------------------------------------------------------

def _packet_moments(ev, params, packet):
    """Quadrature norm, mean, and central variance of the evolved density."""
    width = packet.sigma * abs(ev.gamma_factor)
    lo, hi = ev.xi - 12.0 * width, ev.xi + 12.0 * width

    def density(x):
        return abs(ce.evaluate(ev, params, packet, x)) ** 2

    norm = integrate_adaptive(density, lo, hi, abs_tol=1e-13, rel_tol=1e-11).value
    mean = integrate_adaptive(lambda x: x * density(x), lo, hi,
                              abs_tol=1e-13, rel_tol=1e-11).value / norm
    var = integrate_adaptive(lambda x: (x - mean) ** 2 * density(x), lo, hi,
                             abs_tol=1e-13, rel_tol=1e-11).value / norm
    return float(norm), float(mean), float(var)


def _evolution_rows(stage: str, state_at, times, params, packet):
    """Rows for state_at(t) at each sample time, and the last state.

    An overflow is re-raised naming the stage and the time.
    """
    rows = []
    for t in times:
        try:
            ev = state_at(float(t))
        except OverflowError as exc:
            raise ArithmeticError(f"{stage} overflowed at t={t:g}: {exc}") from exc
        norm, _, var = _packet_moments(ev, params, packet)
        rows.append([ev.t, ev.xi, ev.xi_dot, ev.gamma_factor.real,
                     ev.gamma_factor.imag, var, norm])
    return rows, ev


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_evolve(config, out, wavefunction_path=None) -> int:
    params = _build_system(config)
    packet = _build_packet(config)
    force = _build_force(config)
    if isinstance(force, DeltaKick):
        raise ConfigError("force.kind: delta_kick is driven by the 'kick' command")
    times = _sample_times(config, "evolve")
    if wavefunction_path is not None:
        wsec = config["wavefunction"]
        xs = np.linspace(_number(wsec["x_min"], "wavefunction.x_min"),
                         _number(wsec["x_max"], "wavefunction.x_max"),
                         _count(wsec["points"], "wavefunction.points"))
    rows, ev = _evolution_rows(
        "evolve_gaussian", lambda t: ce.evolve_gaussian(params, packet, force, t),
        times, params, packet)
    cfg_hash = config_sha256(config)
    header = ["t", "xi", "xi_dot", "re_gamma", "im_gamma", "variance", "norm_check"]
    text = render_csv(header, rows, cfg_hash)  # raises before any file is written
    if wavefunction_path is not None:
        psi = ce.evaluate(ev, params, packet, xs)
        wrows = [[float(x), p.real, p.imag, abs(p) ** 2] for x, p in zip(xs, psi)]
        _emit(render_csv(["x", "re_psi", "im_psi", "density"], wrows, cfg_hash),
              wavefunction_path)
    _emit(text, out)
    return 0


def cmd_kick(config, out) -> int:
    params = _build_system(config)
    packet = _build_packet(config)
    if config["force"]["kind"] != "zero":
        raise ConfigError("force.kind: the kick scenario runs on the "
                          "stationary barrier; set force.kind to 'zero'")
    sec = config["kick"]
    p = _number(sec["momentum"], "kick.momentum")
    t1 = _number(sec["time"], "kick.time")
    if t1 < 0:
        raise ConfigError("kick.time must be non-negative")
    times = _sample_times(config, "evolve")

    def state_at(t):
        if t < t1:
            return ce.evolve_gaussian(params, packet, ZeroForce(), t)
        return ce.delta_kick_at(params, packet, p, t1, t)

    rows, _ = _evolution_rows("kick evolution", state_at, times, params, packet)
    boosted = packet.p0 + p
    for row in rows:
        row.append(boosted)
    header = ["t", "xi", "xi_dot", "re_gamma", "im_gamma", "variance",
              "norm_check", "P"]
    _emit(render_csv(header, rows, config_sha256(config)), out)
    return 0


def cmd_tunnel(config, out, barrier_mode=False) -> int:
    cfg_hash = config_sha256(config)
    if barrier_mode:
        params = _build_system(config)
        sec = config["barrier"]
        xi0 = _number(sec["xi0"], "barrier.xi0")
        xis = np.linspace(_number(sec["xi_min"], "barrier.xi_min"),
                          _number(sec["xi_max"], "barrier.xi_max"),
                          _count(sec["points"], "barrier.points"))
        forces = [_number(F, f"barrier.forces[{i}]")
                  for i, F in enumerate(sec["forces"])]
        rows = [[F, float(xi), bt.barrier_potential(params, xi0, F, float(xi))]
                for F in forces for xi in xis]
        _emit(render_csv(["F", "xi", "V"], rows, cfg_hash), out)
        return 0

    sec = config["tunnel"]
    eps = _number(sec["epsilon"], "tunnel.epsilon")
    betas = np.linspace(_number(sec["beta_min"], "tunnel.beta_min"),
                        _number(sec["beta_max"], "tunnel.beta_max"),
                        _count(sec["points"], "tunnel.points"))
    warned = False

    def row_for(beta):
        beta = float(beta)
        w_j = bt.transmission_jwkb(eps, beta)
        w_e = bt.transmission_exact(eps, beta)
        w_q = bt.averaged_transmission(eps, beta)
        if 0.0 < beta < 1.0:
            a_pre = bt.asymptotic_prefactor(eps, beta)
            w_a = bt.averaged_transmission_asymptotic(eps, beta)
        else:
            a_pre = w_a = None
        return [beta, w_j, w_e, w_q, a_pre, w_a]

    rows = [row_for(beta) for beta in betas]
    for row in rows:
        if row[4] is None and not warned:
            sys.stderr.write("warning: asymptotic columns left empty outside "
                             "0 < beta < 1\n")
            warned = True
    header = ["beta", "w_jwkb", "w_exact", "w_avg_quadrature", "A_prefactor",
              "w_avg_asymptotic"]
    _emit(render_csv(header, rows, cfg_hash), out)
    return 0


def _complex_pair(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def cmd_open_poles(config, out, boundary=None) -> int:
    cfg_hash = config_sha256(config)
    if boundary is not None:
        a_min = _number(boundary[0], "--boundary A_MIN")
        a_max = _number(boundary[1], "--boundary A_MAX")
        n = _count(boundary[2], "--boundary N", minimum=2)
        if not 0 < a_min < a_max:
            raise ConfigError("boundary sweep needs 0 < a_min < a_max")
        rows = [[a, osys.discriminant_boundary(float(a))]
                for a in np.linspace(a_min, a_max, n)]
        _emit(render_csv(["a", "b_critical"], rows, cfg_hash), out)
        return 0

    params = _build_system(config)
    bath = _build_bath(config)
    if bath.gamma <= 0:
        raise ConfigError("bath.gamma must be positive for the pole table")
    try:
        dec = osys.solve_poles(params, bath)
    except osys.DegeneratePolesError as exc:
        payload = {
            "config_sha256": cfg_hash,
            "a": exc.coefficients.a, "b": exc.coefficients.b,
            "q": exc.coefficients.q, "p": exc.coefficients.p,
            "D": exc.coefficients.D,
            "root_class": exc.root_class.value,
            "poles": [_complex_pair(s) for s in (exc.poles or ())],
            "error": str(exc),
        }
        _emit(render_json(payload), out)
        return 3
    sum_r = sum(dec.residues)
    sum_rs = sum(r * s for r, s in zip(dec.residues, dec.poles))
    sum_rs2 = sum(r * s * s for r, s in zip(dec.residues, dec.poles))
    payload = {
        "config_sha256": cfg_hash,
        "a": dec.coefficients.a, "b": dec.coefficients.b,
        "q": dec.coefficients.q, "p": dec.coefficients.p, "D": dec.coefficients.D,
        "root_class": dec.root_class.value,
        "poles": [_complex_pair(s) for s in dec.poles],
        "residues": [_complex_pair(r) for r in dec.residues],
        "sum_rules": {"sumR": abs(sum_r), "sumRs": sum_rs.real,
                      "sumRs2": abs(sum_rs2)},
    }
    _emit(render_json(payload), out)
    return 0


def cmd_open_evolve(config, out) -> int:
    params = _build_system(config)
    packet = _build_packet(config)
    bath = _build_bath(config)
    force = _build_force(config)
    if isinstance(force, DeltaKick):
        raise ConfigError("force.kind: delta_kick is not supported for the "
                          "open-system command")
    if bath.gamma <= 0:
        raise ConfigError("bath.gamma must be positive (undamped dynamics is "
                          "covered by the 'evolve' command)")
    convention = config["bath"]["noise"]
    times = _sample_times(config, "open")
    dec = osys.solve_poles(params, bath)
    sig2 = packet.sigma**2
    vp = params.hbar**2 / (4.0 * sig2)

    def row_for(t):
        t = float(t)
        g = osys.green_function(dec, t)
        gd = osys.green_derivative(dec, t)
        mean_x = osys.mean_trajectory(dec, packet.x0, packet.p0, force, t)
        dyn = sig2 * gd * gd + vp * g * g
        noise = osys.variance_noise_term(dec, bath, params, t,
                                         convention=convention,
                                         abs_tol=1e-10 * max(abs(dyn), 1e-30))
        return [t, g, gd, mean_x, dyn, noise, dyn + noise]

    rows = [row_for(t) for t in times]
    header = ["t", "G", "G_dot", "mean_x", "variance_dynamic", "variance_noise",
              "variance_total"]
    _emit(render_csv(header, rows, config_sha256(config)), out)
    return 0


def cmd_verify(config, out) -> int:
    params = _build_system(config)
    packet = _build_packet(config)
    force = _build_force(config)
    if isinstance(force, DeltaKick):
        raise ConfigError("force.kind: delta_kick is not supported by verify")
    vsec = config["verify"]
    checks = []

    def add(name, deviation, tolerance):
        checks.append({"name": name, "deviation": float(deviation),
                       "tolerance": tolerance,
                       "passed": bool(deviation < tolerance)})

    # closed form against the split-step grid solver
    gsec = config["grid"]
    grid = numerics.grid_from_packet(packet, params,
                                     _number(gsec["x_min"], "grid.x_min"),
                                     _number(gsec["x_max"], "grid.x_max"),
                                     _count(gsec["n"], "grid.n"))
    dt = _number(gsec["dt"], "grid.dt")
    grid_tolerance = _number(vsec["grid_tolerance"], "verify.grid_tolerance")
    xs = grid.x()
    for i, t in enumerate(vsec["grid_times"]):
        t = _number(t, f"verify.grid_times[{i}]")
        grid = numerics.schrodinger_grid_evolve(params, grid, force, t, dt)
        ev = ce.evolve_gaussian(params, packet, force, t)
        ref = ce.evaluate(ev, params, packet, xs)
        dev = float(np.sqrt(np.sum(np.abs(grid.psi - ref) ** 2)
                            / np.sum(np.abs(ref) ** 2)))
        add(f"grid_closed_form_t{t:g}", dev, grid_tolerance)

    # residue-sum impulse response against the RK4 memory-kernel integrator
    horizon = (_number(vsec["green_horizon_factor"], "verify.green_horizon_factor")
               / params.omega)
    green_dt = _number(vsec["green_dt"], "verify.green_dt")
    green_tolerance = _number(vsec["green_tolerance"], "verify.green_tolerance")
    for i, case in enumerate(vsec["green_cases"]):
        where = f"verify.green_cases[{i}]"
        bath_case = osys.BathParams(gamma=_number(case["gamma"], f"{where}.gamma"),
                                    omega_d=_number(case["omega_d"], f"{where}.omega_d"),
                                    kT=0.0)
        dec = osys.solve_poles(params, bath_case)
        ts, g_ode = numerics.langevin_ode_oracle(params, bath_case, horizon, green_dt)
        g_res = osys.green_function(dec, ts)
        dev = float(np.max(np.abs(g_res - g_ode)) / np.max(np.abs(g_res)))
        add(f"green_residue_vs_ode_case{i}", dev, green_tolerance)

    # quasistatic asymptotics against the period-average quadrature
    for i, point in enumerate(vsec["tunnel_points"]):
        where = f"verify.tunnel_points[{i}]"
        eps = _number(point["epsilon"], f"{where}.epsilon")
        beta = _number(point["beta"], f"{where}.beta")
        tolerance = _number(point["tolerance"], f"{where}.tolerance")
        w_q = bt.averaged_transmission(eps, beta)
        w_a = bt.averaged_transmission_asymptotic(eps, beta)
        add(f"tunnel_asymptotic_eps{eps:g}_beta{beta:g}",
            abs(w_a - w_q) / w_q, tolerance)

    # windowed transform closed form against direct quadrature
    bath = _build_bath(config)
    if bath.gamma > 0:
        dec = osys.solve_poles(params, bath)
        w_probe = _number(vsec["windowed_omega"], "verify.windowed_omega") * params.omega
        t_probe = _number(vsec["windowed_t"], "verify.windowed_t") / params.omega
        closed = osys.windowed_transform(dec, w_probe, t_probe)
        quad = integrate_adaptive(
            lambda t1: osys.green_function(dec, t1) * np.exp(-1j * w_probe * t1),
            0.0, t_probe, abs_tol=1e-13, rel_tol=1e-12).value
        add("windowed_transform_quadrature", abs(closed - quad),
            _number(vsec["windowed_tolerance"], "verify.windowed_tolerance"))

    payload = {
        "config_sha256": config_sha256(config),
        "checks": checks,
        "all_pass": all(c["passed"] for c in checks),
    }
    _emit(render_json(payload), out)
    return 0 if payload["all_pass"] else 4


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invosc",
        description="Driven inverted-oscillator dynamics: exact evolution, "
                    "quasistatic tunneling, and open-system pole machinery.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="PATH=VALUE", help="override a config entry")
        p.add_argument("--print-config", action="store_true",
                       help="print the effective config and exit")

    p = sub.add_parser("evolve", help="closed-system Gaussian evolution")
    common(p)
    p.add_argument("--wavefunction", metavar="PATH",
                   help="also dump psi(x) at the final sample time")

    common(sub.add_parser("kick", help="delta-kick scenario"))

    p = sub.add_parser("tunnel", help="transmission sweeps")
    common(p)
    p.add_argument("--barrier", action="store_true",
                   help="emit the barrier profile instead of the sweep")

    p = sub.add_parser("open-poles", help="transfer-function pole table")
    common(p)
    p.add_argument("--boundary", nargs=3, metavar=("A_MIN", "A_MAX", "N"),
                   help="emit the discriminant boundary curve b(a)")

    common(sub.add_parser("open-evolve", help="open-system time series"))
    common(sub.add_parser("verify", help="cross-oracle verification report"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        if args.print_config:
            sys.stdout.write(render_json(config))
            return 0
        if args.command == "evolve":
            return cmd_evolve(config, args.out, args.wavefunction)
        if args.command == "kick":
            return cmd_kick(config, args.out)
        if args.command == "tunnel":
            return cmd_tunnel(config, args.out, args.barrier)
        if args.command == "open-poles":
            return cmd_open_poles(config, args.out, args.boundary)
        if args.command == "open-evolve":
            return cmd_open_evolve(config, args.out)
        if args.command == "verify":
            return cmd_verify(config, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
