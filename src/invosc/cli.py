"""Command-line interface.

Every command consumes one JSON config (defaults merged with an optional
file and ``--set`` overrides, unknown keys rejected by path) and emits
either CSV (sweeps, time series) or JSON (pole tables, reports).  Output
is deterministic: floats are printed in scientific notation with 17
significant digits, lines end with a bare newline, and each artifact
carries the SHA-256 of the sections of the effective config that its
command reads, so a change to another section leaves its bytes alone.

Exit codes: 0 success, 2 config error, 3 numerical or domain error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

# Only .core is loaded with the CLI: each command imports the submodules
# it runs, so evolve and kick never load numerics, open_system or
# barrier_transmission.
from .core import (ConstantForce, GaussianPacket, HarmonicForce, SystemParams,
                   TabulatedForce, ZeroForce, force_pieces)

if TYPE_CHECKING:
    from .open_system import BathParams


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "system": {"omega": 1.0, "hbar": 1.0},
    "packet": {"x0": 0.0, "p0": 0.0, "sigma": 1.0},
    "force": {
        "kind": "zero",
        "amplitude": 0.0,
        "omega0": 1.0,
        "times": [],
        "values": [],
    },
    "bath": {"gamma": 0.5, "omega_d": 10.0, "kT": 1.0, "noise": "occupation"},
    "evolve": {"t_max": 1.5, "samples": 16},
    "wavefunction": {"x_min": -10.0, "x_max": 10.0, "points": 401},
    "kick": {"momentum": 1.0, "time": 0.0},
    "tunnel": {"epsilon": 3.0, "beta_min": 0.05, "beta_max": 0.95, "points": 19},
    "barrier": {"xi0": -0.5, "forces": [-0.2, 0.0, 0.2],
                "xi_min": -1.5, "xi_max": 1.5, "points": 121},
    "open": {"t_max": 3.0, "samples": 31},
}

# verify's fixed probes: the grid check's times, tolerance and cap on the
# steps of one grid run to the last time (dt down to about 1.1e-5; below
# about 1e-4 the stepper's dt^4 error is already at rounding); the green
# check's baths (gamma, omega_d), horizon in units of 1/omega, RK4 step,
# tolerance and cap on the RK4 steps (omega down to about 6e-4); the
# tunneling points (epsilon, beta, tolerance); and the
# windowed and noise checks' frequency in units of omega, time in units of
# 1/omega and tolerances
_GRID_TIMES, _GRID_TOLERANCE, _MAX_GRID_STEPS = (0.5, 1.0, 1.5), 1e-7, 2**17
_GREEN_BATHS = ((0.5, 10.0), (5.0, 2.0))
_GREEN_HORIZON, _GREEN_DT, _GREEN_TOLERANCE, _MAX_GREEN_STEPS = 5.0, 5e-4, 1e-10, 2**24
_TUNNEL_POINTS = ((10.0, 0.3, 0.15), (30.0, 0.2, 0.08))
_WINDOWED_OMEGA, _WINDOWED_T, _WINDOWED_TOLERANCE = 0.7, 2.0, 1e-10
_NOISE_TOLERANCE = 1e-8


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _merge(defaults, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError(f"config section '{path or '<root>'}' must be an object")
    for key in override:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key '{here}'")
    # a key left out takes its default, merged into fresh containers
    return {key: _merge_value(default_value, override.get(key, default_value),
                              f"{path}.{key}" if path else key)
            for key, default_value in defaults.items()}


def _merge_value(default, value, path: str):
    """``value`` for the config key ``path`` whose default is ``default``: an
    object is merged key by key, a list must be a list, and any other key or
    list entry takes a scalar: neither true, false, NaN nor an infinity,
    which JSON (and so --print-config) cannot carry, nor an object or a
    list, which could hold them."""
    if isinstance(default, dict):
        return _merge(default, value, path)
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key '{path}' must be a list, got {value!r}")
        return [_merge_value(None, item, f"{path}[{i}]") for i, item in enumerate(value)]
    if (isinstance(value, (bool, dict, list))
            or (isinstance(value, float) and not math.isfinite(value))):
        raise ConfigError(f"config key '{path}' cannot be true, false, NaN, "
                          f"infinite, an object or a list, got {json.dumps(value)}")
    return value


def _apply_override(config, assignment: str):
    """Set one ``path=value`` entry; the value (JSON, else a string) is merged
    as a config file's value for that key would be."""
    if "=" not in assignment:
        raise ConfigError(f"override '{assignment}' is not of the form path=value")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node, default = config, DEFAULT_CONFIG
    *parents, last = dotted.split(".")
    for key in parents:
        if not isinstance(default.get(key), dict):
            raise ConfigError(f"unknown config key '{dotted}'")
        node, default = node[key], default[key]
    if last not in default:
        raise ConfigError(f"unknown config key '{dotted}'")
    node[last] = _merge_value(default[last], value, dotted)


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


def config_sha256(config: dict, *sections: str) -> str:
    """The SHA-256 of the named sections of ``config``, the ones an output
    depends on, so a change elsewhere leaves the output's bytes alone."""
    canonical = json.dumps({name: config[name] for name in sections},
                           sort_keys=True, separators=(",", ":"))
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
        if kind == "tabulated":
            return TabulatedForce(times=tuple(sec["times"]),
                                  values=tuple(sec["values"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"force: {exc}") from exc
    raise ConfigError(f"force.kind: unknown kind '{kind}'")


def _build_bath(config) -> BathParams:
    from . import open_system as osys

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
    """A finite numeric config entry as a float; else a ConfigError naming it."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _count(value, path: str, minimum: int = 1) -> int:
    """An integral config entry >= ``minimum``; else a ConfigError naming it."""
    number = _number(value, path)
    if not (number.is_integer() and number >= minimum):
        raise ConfigError(f"{path}: expected an integer >= {minimum}, "
                          f"got {value!r}")
    return int(number)


def _finite(value, path: str, positive: bool = False) -> float:
    """A finite config entry >= 0, or > 0 if ``positive``; else a ConfigError."""
    number = _number(value, path)
    if not (number > 0 if positive else number >= 0):
        raise ConfigError(f"{path}: expected a finite number "
                          f"{'>' if positive else '>='} 0, got {value!r}")
    return number


def _sample_times(config, section: str) -> np.ndarray:
    """``samples`` times from 0 to ``t_max`` of a config section, both checked."""
    sec = config[section]
    return np.linspace(0.0, _finite(sec["t_max"], f"{section}.t_max"),
                       _count(sec["samples"], f"{section}.samples"))


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

_TINY = 2.2250738585072014e-308   # the smallest normal float


def _column(cells):
    """The text of each cell of one CSV column, formatted in one expression,
    and whether each is finite; a None cell is empty, a subnormal (fewer
    than 17 digits) is 0."""
    values = [0.0 if v is None else float(v) for v in cells]
    if min(map(abs, values), default=0.0) < _TINY:
        values = [math.copysign(0.0, v) if abs(v) < _TINY else v for v in values]
    texts = ("%.16e," * len(values) % tuple(values)).split(",")[:-1]
    if None in cells:
        texts = ["" if v is None else text for v, text in zip(cells, texts)]
    return texts, list(map(math.isfinite, values))


def render_csv(header, columns, cfg_hash: str) -> str:
    """CSV text from one sequence of cells per entry of ``header``; the first
    non-finite cell (row by row) raises ArithmeticError naming it, a None
    cell is left empty and a subnormal is 0."""
    texts, finite = zip(*map(_column, columns))
    bad = [(f.index(False), j) for j, f in enumerate(finite) if False in f]
    if bad:
        i, j = min(bad)
        raise ArithmeticError(f"non-finite {header[j]} at {header[0]}={columns[0][i]:g}")
    lines = [f"# config-sha256: {cfg_hash}", ",".join(header), *map(",".join, zip(*texts))]
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

def _closed_columns(stack, params, packet):
    """The columns of ``_CLOSED_HEADER`` for a stack of states."""
    from . import closed_evolution as ce

    norm, var = ce.norm_and_variance(stack, params, packet)
    return [stack.t, stack.xi, stack.xi_dot, stack.gamma_factor.real,
            stack.gamma_factor.imag, var, norm]


_CLOSED_HEADER = ["t", "xi", "xi_dot", "re_gamma", "im_gamma", "variance", "norm_check"]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_evolve(config, out, wavefunction_path=None) -> int:
    from . import closed_evolution as ce

    params = _build_system(config)
    packet = _build_packet(config)
    force = _build_force(config)
    times = _sample_times(config, "evolve")
    if wavefunction_path is not None:
        wsec = config["wavefunction"]
        xs = np.linspace(_number(wsec["x_min"], "wavefunction.x_min"),
                         _number(wsec["x_max"], "wavefunction.x_max"),
                         _count(wsec["points"], "wavefunction.points"))
    stack = ce.evolve_gaussian(params, packet, force, times)
    cfg_hash = config_sha256(config, "system", "packet", "force", "evolve", "wavefunction")
    # raises before any file is written
    text = render_csv(_CLOSED_HEADER, _closed_columns(stack, params, packet), cfg_hash)
    if wavefunction_path is not None:
        # the stack's last state, that of times[-1] alone to the bit
        last = ce.EvolvedGaussian(*(f[-1].item() for f in vars(stack).values()))
        psi = ce.evaluate(last, params, packet, xs)
        columns = [xs, psi.real, psi.imag, np.hypot(psi.real, psi.imag) ** 2]
        _emit(render_csv(["x", "re_psi", "im_psi", "density"], columns, cfg_hash),
              wavefunction_path)
    _emit(text, out)
    return 0


def cmd_kick(config, out) -> int:
    from . import closed_evolution as ce

    params = _build_system(config)
    packet = _build_packet(config)
    if config["force"]["kind"] != "zero":
        raise ConfigError("force.kind: the kick scenario runs on the "
                          "stationary barrier; set force.kind to 'zero'")
    sec = config["kick"]
    p = _number(sec["momentum"], "kick.momentum")
    t1 = _finite(sec["time"], "kick.time")
    times = _sample_times(config, "evolve")
    stack = ce.delta_kick_at(params, packet, p, t1, times)
    columns = _closed_columns(stack, params, packet) + [np.full(times.shape, packet.p0 + p)]
    cfg_hash = config_sha256(config, "system", "packet", "force", "kick", "evolve")
    _emit(render_csv(_CLOSED_HEADER + ["P"], columns, cfg_hash), out)
    return 0


def cmd_tunnel(config, out, barrier_mode=False) -> int:
    from . import barrier_transmission as bt

    if barrier_mode:
        params = _build_system(config)
        sec = config["barrier"]
        xi0 = _number(sec["xi0"], "barrier.xi0")
        xis = np.linspace(_number(sec["xi_min"], "barrier.xi_min"),
                          _number(sec["xi_max"], "barrier.xi_max"),
                          _count(sec["points"], "barrier.points"))
        forces = np.array([_number(F, f"barrier.forces[{i}]")
                           for i, F in enumerate(sec["forces"])])
        F, xi = np.repeat(forces, len(xis)), np.tile(xis, len(forces))
        columns = [F, xi, bt.barrier_potential(params, xi0, F, xi)]
        cfg_hash = config_sha256(config, "system", "barrier")
        _emit(render_csv(["F", "xi", "V"], columns, cfg_hash), out)
        return 0

    sec = config["tunnel"]
    eps = _finite(sec["epsilon"], "tunnel.epsilon", positive=True)
    betas = np.linspace(_finite(sec["beta_min"], "tunnel.beta_min"),
                        _finite(sec["beta_max"], "tunnel.beta_max"),
                        _count(sec["points"], "tunnel.points"))
    below = (betas > 0.0) & (betas < 1.0)
    a_pre = np.zeros_like(betas)
    a_pre[below] = bt.asymptotic_prefactor(eps, betas[below])
    if not below.all():
        sys.stderr.write("warning: asymptotic columns left empty outside "
                         "0 < beta < 1\n")
    w_j = bt.transmission_jwkb(eps, betas)
    columns = [betas, w_j, bt.transmission_exact(eps, betas),
               bt.averaged_transmission(eps, betas), np.where(below, a_pre, None),
               np.where(below, a_pre * w_j, None)]
    header = ["beta", "w_jwkb", "w_exact", "w_avg_quadrature", "A_prefactor",
              "w_avg_asymptotic"]
    _emit(render_csv(header, columns, config_sha256(config, "tunnel")), out)
    return 0


def _complex_pair(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def cmd_open_poles(config, out, boundary=None) -> int:
    from . import open_system as osys

    if boundary is not None:
        a_min = _number(boundary[0], "--boundary A_MIN")
        a_max = _number(boundary[1], "--boundary A_MAX")
        n = _count(boundary[2], "--boundary N", minimum=2)
        if not 0 < a_min < a_max:
            raise ConfigError("boundary sweep needs 0 < a_min < a_max")
        a = np.linspace(a_min, a_max, n)
        with np.errstate(over="ignore", invalid="ignore"):   # render_csv names inf, NaN
            columns = [a, osys.discriminant_boundary(a)]
        # the curve reads no config section
        _emit(render_csv(["a", "b_critical"], columns, config_sha256(config)), out)
        return 0

    params = _build_system(config)
    bath = _build_bath(config)
    if bath.gamma <= 0:
        raise ConfigError("bath.gamma must be positive for the pole table")
    try:
        dec = osys.solve_poles(params, bath)
    except osys.DegeneratePolesError as exc:
        dec = exc
    c = dec.coefficients
    payload = {"config_sha256": config_sha256(config, "system", "bath"),
               "a": c.a, "b": c.b, "q": c.q, "p": c.p,
               "D": c.D, "root_class": dec.root_class.value,
               "poles": [_complex_pair(pole) for pole in (dec.poles or ())]}
    if isinstance(dec, osys.DegeneratePolesError):
        payload["error"] = str(dec)
    else:
        pairs = list(zip(dec.residues, dec.poles))
        payload["residues"] = [_complex_pair(r) for r in dec.residues]
        payload["sum_rules"] = {"sumR": abs(sum(dec.residues)),
                                "sumRs": sum(r * s for r, s in pairs).real,
                                "sumRs2": abs(sum(r * s * s for r, s in pairs))}
    _emit(render_json(payload), out)
    return 3 if "error" in payload else 0


def cmd_open_evolve(config, out) -> int:
    from . import open_system as osys

    params = _build_system(config)
    packet = _build_packet(config)
    bath = _build_bath(config)
    force = _build_force(config)
    convention = config["bath"]["noise"]
    times = _sample_times(config, "open")
    moments = osys.InitialMoments.from_packet(packet, params)
    with np.errstate(over="ignore", invalid="ignore"):   # render_csv names inf, NaN
        g, gd, mean_x, dyn, noise = osys.open_evolution(params, bath, moments, force, times,
                                                        convention)
        columns = [times, g, gd, mean_x, dyn, noise, dyn + noise]
    header = ["t", "G", "G_dot", "mean_x", "variance_dynamic", "variance_noise",
              "variance_total"]
    cfg_hash = config_sha256(config, "system", "packet", "bath", "force", "open")
    _emit(render_csv(header, columns, cfg_hash), out)
    return 0


def cmd_verify(config, out) -> int:
    from . import barrier_transmission as bt
    from . import closed_evolution as ce
    from . import numerics
    from . import open_system as osys

    params = _build_system(config)
    packet = _build_packet(config)
    force = _build_force(config)
    bath = _build_bath(config)
    try:
        x_min, x_max, n = numerics.size_grid(params, packet, force, _GRID_TIMES[-1])
    except ValueError as exc:
        raise ValueError(f"verify: grid: {exc}") from exc
    checks = []

    def add(name, deviation, tolerance):
        if not math.isfinite(deviation):
            raise ArithmeticError(f"verify: non-finite deviation {deviation} "
                                  f"in check {name}")
        checks.append({"name": name, "deviation": float(deviation),
                       "tolerance": tolerance,
                       "passed": bool(deviation < tolerance)})

    # closed form against the split-step grid solver, run from one start at
    # m = 1, 2, 4, ...  Chin 4A is fourth order and even in the step, so
    # e_m = |psi_m - psi_m/2| / 15 |psi_m| estimates psi_m's error, the
    # extrapolated R_m = psi_m + (psi_m - psi_m/2) / 15 is sixth order, and
    # r_m = |R_m - R_m/2| / 63 |R_m| estimates R_m's.  The runs stop at the
    # first m >= 4 where r_m is at most a hundredth of the tolerance at every
    # time and e_m fell at least 8-fold from e_m/2 (the runs are fourth
    # order) or is at rounding, and the closed form is compared with R_m.
    # The span is cut at the grid times and the force's knots, and a piece of
    # length L takes m ceil(2L) equal steps, so each halving halves every step
    pieces = [(a, b, max(math.ceil(2.0 * (b - a) - 1e-12), 1))
              for t0, t1 in zip((0.0, *_GRID_TIMES), _GRID_TIMES)
              for a, b, _, _ in force_pieces(force, t0, t1)]
    start = numerics.grid_from_packet(packet, params, x_min, x_max, n)
    m, coarse, rich, phases = 1, None, None, {}
    target, e_coarse, e, estimate = 0.01 * _GRID_TOLERANCE, math.inf, math.inf, math.inf

    def spread(fine, coarse, factor):
        return max(float(np.linalg.norm(f - c) / (factor * np.linalg.norm(f)))
                   for f, c in zip(fine, coarse))

    with np.errstate(over="ignore", invalid="ignore"):   # add names inf, NaN
        while True:
            grid, fine, dt = start, [], 0.0
            for a, b, k in pieces:
                h = (b - a) / (m * k)
                grid = numerics.schrodinger_grid_evolve(params, grid, force, b, h, phases)
                fine += [grid.psi] if b in _GRID_TIMES else []
                dt = max(dt, h)
            if coarse is not None:
                e_coarse, e = e, spread(fine, coarse, 15.0)
                fine_rich = [f + (f - c) / 15.0 for f, c in zip(fine, coarse)]
                estimate = math.inf if rich is None else spread(fine_rich, rich, 63.0)
                rich = fine_rich
            fourth = e <= e_coarse / 8.0 or e <= 64.0 * np.finfo(float).eps
            if estimate <= target and fourth:
                break
            steps = m * sum(k for _, _, k in pieces)
            if 2 * steps > _MAX_GRID_STEPS:
                raise RuntimeError(
                    f"verify: grid: the extrapolated error estimate {estimate:.3g} at "
                    f"{steps} steps to t = {_GRID_TIMES[-1]:g} is "
                    f"{'above' if estimate > target else 'within'} the target {target:g}"
                    + ("" if fourth else f", the step-doubling ratio e_m/e_(m/2) = "
                       f"{e / e_coarse:.3g} is above the 1/8 of fourth order")
                    + f", and {2 * steps} steps pass the cap {_MAX_GRID_STEPS}")
            m, coarse = 2 * m, fine
        refs = ce.evaluate(ce.evolve_gaussian(params, packet, force,
                                              np.array(_GRID_TIMES)[:, None]),
                           params, packet, start.x())
        for t, psi, ref in zip(_GRID_TIMES, rich, refs):
            dev = float(np.sqrt(np.sum(np.abs(psi - ref) ** 2) / np.sum(np.abs(ref) ** 2)))
            add(f"grid_closed_form_t{t:g}", dev, _GRID_TOLERANCE)

    # impulse response from the matrix exponential against the RK4
    # memory-kernel integrator, at every k-th RK4 time back from the last,
    # where |G| is largest: about 100 times per case
    horizon = _GREEN_HORIZON / params.omega
    for i, (gamma, omega_d) in enumerate(_GREEN_BATHS):
        if not horizon / _GREEN_DT <= _MAX_GREEN_STEPS:
            raise RuntimeError(
                f"verify: green_expm_vs_ode_case{i}: the RK4 oracle needs "
                f"{horizon / _GREEN_DT:.3g} steps of {_GREEN_DT:g} to the horizon "
                f"{_GREEN_HORIZON:g}/omega = {horizon:.3g}, above the cap {_MAX_GREEN_STEPS}")
        bath_case = osys.BathParams(gamma=gamma, omega_d=omega_d)
        ts, g_ode = numerics.langevin_ode_oracle(params, bath_case, horizon, _GREEN_DT)
        stride = max((len(ts) - 1) // 100, 1)
        ts, g_ode = ts[::-stride], g_ode[::-stride]
        g_exp = osys.green_pair(params, bath_case, ts)[0]
        dev = float(np.max(np.abs(g_exp - g_ode)) / np.max(np.abs(g_exp)))
        add(f"green_expm_vs_ode_case{i}", dev, _GREEN_TOLERANCE)

    @contextlib.contextmanager
    def named(name):   # a numerical failure names its check and omega
        try:
            yield
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            raise RuntimeError(f"verify: {name} at omega = {params.omega:g}: {exc}") from exc

    # quasistatic asymptotics against the period-average quadrature
    for eps, beta, tolerance in _TUNNEL_POINTS:
        name = f"tunnel_asymptotic_eps{eps:g}_beta{beta:g}"
        with named(name):
            w_q = bt.averaged_transmission(eps, beta)
            w_a = bt.averaged_transmission_asymptotic(eps, beta)
        add(name, abs(w_a - w_q) / w_q, tolerance)

    # windowed transform closed form against direct quadrature, relative
    # where |W| > 1: |W| grows like 1/omega^2 as omega falls
    w_probe, t_probe = _WINDOWED_OMEGA * params.omega, _WINDOWED_T / params.omega
    with named("windowed_transform_quadrature"):
        closed = osys.windowed_transform(params, bath, w_probe, t_probe)
        quad = numerics.integrate_adaptive(
            lambda t1: osys.green_pair(params, bath, t1)[0] * np.exp(-1j * w_probe * t1),
            0.0, t_probe, abs_tol=1e-13, rel_tol=1e-12).value
    add("windowed_transform_quadrature", abs(closed - quad) / max(abs(quad), 1.0),
        _WINDOWED_TOLERANCE)

    # symmetrized noise term, without a frequency quadrature, against the
    # frequency quadrature run to half the tolerance; the term is computed
    # again if its absolute tolerance, which only the zero-point rate rule
    # heeds, was not below a twentieth of that
    with named("noise_closed_form_vs_quadrature"):
        closed_tol = 1e-14
        closed = osys.variance_noise_term(params, bath, t_probe, osys.SYMMETRIZED,
                                          closed_tol)
        abs_tol = max(0.5 * _NOISE_TOLERANCE * closed, 1e-300)
        if closed_tol > 0.05 * abs_tol:
            closed = osys.variance_noise_term(params, bath, t_probe, osys.SYMMETRIZED,
                                              0.05 * abs_tol)
        quad = osys.spectral_noise_term(params, bath, t_probe, t_probe, osys.SYMMETRIZED,
                                        abs_tol)
    add("noise_closed_form_vs_quadrature",
        abs(closed - quad) / max(quad, 1e-300), _NOISE_TOLERANCE)

    payload = {
        "config_sha256": config_sha256(config, "system", "packet", "force", "bath"),
        "grid": {"x_min": x_min, "x_max": x_max, "n": n, "dt": dt,
                 "error_estimate": estimate},
        "checks": checks,
        "all_pass": all(c["passed"] for c in checks),
    }
    _emit(render_json(payload), out)
    return 0 if payload["all_pass"] else 4


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache   # built on the first call, not at import, and reused
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
    except MemoryError as exc:   # numpy's message names the array it could not allocate
        sys.stderr.write(f"error: out of memory{f': {exc}' if str(exc) else ''}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
