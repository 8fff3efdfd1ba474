"""Output checks, computed from an op's inputs alone, without calling invosc.

``check(op, exit_code, data)`` returns the problems found in one op's
output; an empty list means the op passed.
"""

from __future__ import annotations

import json
import math

# The program prints 17 significant digits, so values it derives by plain
# arithmetic from other printed columns must agree to a few ulps.
ARITH_RTOL = 1e-14
CLOSED_FORM_RTOL = 1e-12   # hyperbolic functions evaluated on both sides
QUADRATURE_TOL = 1e-8      # norm and variance are measured by quadrature


def _close(value: float, expected: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - expected) <= max(atol, rtol * abs(expected))


def _parse_csv(data: bytes) -> dict[str, list[float]]:
    lines = data.decode("utf-8").split("\n")
    if not lines[0].startswith("# config-sha256: ") or lines[-1] != "":
        raise ValueError("missing config hash line or final newline")
    header = lines[1].split(",")
    columns: dict[str, list[float]] = {name: [] for name in header}
    for line in lines[2:-1]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header has {len(header)}")
        for name, cell in zip(header, cells):
            columns[name].append(float(cell))
    return columns


def _non_finite(columns: dict[str, list[float]]) -> list[str]:
    return [f"non-finite {name} in row {i}"
            for name, values in columns.items()
            for i, v in enumerate(values) if not math.isfinite(v)]


def _check_grid(name: str, values: list[float], lo: float, hi: float,
                n: int) -> list[str]:
    """The column must be numpy.linspace(lo, hi, n) up to rounding."""
    if len(values) != n:
        return [f"{name} has {len(values)} rows, expected {n}"]
    step = (hi - lo) / (n - 1) if n > 1 else 0.0
    tol = 1e-12 * max(abs(lo), abs(hi), 1.0)
    return [f"{name}[{i}] = {v!r}, expected {lo + i * step!r}"
            for i, v in enumerate(values) if abs(v - (lo + i * step)) > tol]


def _check_evolution(op, cols) -> list[str]:
    """evolve / kick: width law sigma^2 |Gamma(t)|^2 and unit norm."""
    om, hbar = op.config["system"]["omega"], op.config["system"]["hbar"]
    sigma = op.config["packet"]["sigma"]
    horizon = op.config["evolve"]
    problems = _check_grid("t", cols["t"], 0.0, horizon["t_max"], horizon["samples"])
    spread = hbar / (2.0 * om * sigma**2)
    for i, t in enumerate(cols["t"]):
        re_gamma, im_gamma = math.cosh(om * t), spread * math.sinh(om * t)
        if not (_close(cols["re_gamma"][i], re_gamma, CLOSED_FORM_RTOL)
                and _close(cols["im_gamma"][i], im_gamma, CLOSED_FORM_RTOL,
                           CLOSED_FORM_RTOL)):
            problems.append(f"Gamma(t) off the closed form at t={t!r}")
        width = sigma**2 * (re_gamma**2 + im_gamma**2)
        if not _close(cols["variance"][i], width, QUADRATURE_TOL):
            problems.append(f"variance {cols['variance'][i]!r} != sigma^2|Gamma|^2 "
                            f"= {width!r} at t={t!r}")
        if abs(cols["norm_check"][i] - 1.0) > QUADRATURE_TOL:
            problems.append(f"norm_check {cols['norm_check'][i]!r} at t={t!r}")
    if op.command == "kick":
        boosted = op.config["packet"]["p0"] + op.config["kick"]["momentum"]
        if any(not _close(p, boosted, ARITH_RTOL, ARITH_RTOL) for p in cols["P"]):
            problems.append(f"P column differs from p0 + momentum = {boosted!r}")
    return problems


def _check_open_evolve(op, cols) -> list[str]:
    """open-evolve: G(0)=0, G'(0)=1, variance bookkeeping, noise >= 0.

    The size of the noise term has no independent check here; only its
    sign, its value at t = 0 and its share of the total are checked.
    """
    hbar, sigma = op.config["system"]["hbar"], op.config["packet"]["sigma"]
    x0, p0 = op.config["packet"]["x0"], op.config["packet"]["p0"]
    horizon = op.config["open"]
    problems = _check_grid("t", cols["t"], 0.0, horizon["t_max"], horizon["samples"])
    if abs(cols["G"][0]) > 1e-12 or abs(cols["G_dot"][0] - 1.0) > 1e-12:
        problems.append(f"G(0), G'(0) = {cols['G'][0]!r}, {cols['G_dot'][0]!r}")
    if not _close(cols["mean_x"][0], x0, ARITH_RTOL, 1e-12):
        problems.append(f"mean_x(0) = {cols['mean_x'][0]!r}, expected x0 = {x0!r}")
    if cols["variance_noise"][0] != 0.0:
        problems.append(f"variance_noise(0) = {cols['variance_noise'][0]!r}, expected 0")
    for i, t in enumerate(cols["t"]):
        g, gd = cols["G"][i], cols["G_dot"][i]
        dyn, noise = cols["variance_dynamic"][i], cols["variance_noise"][i]
        if not _close(dyn, sigma**2 * gd * gd + hbar**2 / (4 * sigma**2) * g * g,
                      ARITH_RTOL):
            problems.append(f"variance_dynamic off sigma^2 G'^2 + hbar^2 G^2/4sigma^2 "
                            f"at t={t!r}")
        if noise < 0.0:
            problems.append(f"negative variance_noise {noise!r} at t={t!r}")
        if not _close(cols["variance_total"][i], dyn + noise, ARITH_RTOL):
            problems.append(f"variance_total != dynamic + noise at t={t!r}")
        if op.config["force"]["kind"] == "zero" and not _close(
                cols["mean_x"][i], x0 * gd + p0 * g, ARITH_RTOL,
                ARITH_RTOL * (abs(x0 * gd) + abs(p0 * g))):
            problems.append(f"undriven mean_x != x0 G' + p0 G at t={t!r}")
    return problems


def _check_tunnel(op, cols) -> list[str]:
    """tunnel: static transmissions and the asymptotic product in closed form."""
    sec = op.config["tunnel"]
    eps = sec["epsilon"]
    problems = _check_grid("beta", cols["beta"], sec["beta_min"], sec["beta_max"],
                           sec["points"])
    for i, beta in enumerate(cols["beta"]):
        jwkb = math.exp(-eps * (1.0 - beta) ** 2)
        if not _close(cols["w_jwkb"][i], jwkb, CLOSED_FORM_RTOL):
            problems.append(f"w_jwkb off exp(-eps(1-beta)^2) at beta={beta!r}")
        if not _close(cols["w_exact"][i], jwkb / (1.0 + jwkb), CLOSED_FORM_RTOL):
            problems.append(f"w_exact off 1/(1+exp(eps(1-beta)^2)) at beta={beta!r}")
        if not (0.0 < cols["w_avg_quadrature"][i] < 1.0 and cols["A_prefactor"][i] > 0.0):
            problems.append(f"transmission or prefactor out of range at beta={beta!r}")
        if not _close(cols["w_avg_asymptotic"][i], cols["A_prefactor"][i] * jwkb,
                      CLOSED_FORM_RTOL):
            problems.append(f"w_avg_asymptotic != A exp(-eps(1-beta)^2) at beta={beta!r}")
    return problems


def _discriminant(a: float, b: float) -> tuple[float, float]:
    """D(a, b) of the scaled pole cubic and the size of its two terms."""
    q = a**3 / 27.0 - a * b / 6.0 - a / 2.0
    p = (3.0 * b - a * a) / 9.0
    return q * q + p**3, q * q + abs(p) ** 3


def _check_boundary(op, cols) -> list[str]:
    """open-poles --boundary: the discriminant vanishes on the returned curve."""
    a_min, a_max, n = float(op.flags[1]), float(op.flags[2]), int(op.flags[3])
    problems = _check_grid("a", cols["a"], a_min, a_max, n)
    for a, b in zip(cols["a"], cols["b_critical"]):
        d, size = _discriminant(a, b)
        if abs(d) > 1e-12 * size:
            problems.append(f"D(a, b_critical) = {d!r} at a={a!r}")
    return problems


def _check_verify(op, data: bytes) -> list[str]:
    report = json.loads(data)
    problems = [] if report["all_pass"] is True else ["all_pass is not true"]
    if not report["checks"]:
        problems.append("no checks in the report")
    for c in report["checks"]:
        if not (math.isfinite(c["deviation"]) and c["deviation"] < c["tolerance"]
                and c["passed"] is True):
            problems.append(f"check {c['name']} failed: {c['deviation']!r}")
    return problems


def check(op, exit_code, data: bytes | None) -> list[str]:
    """Problems with one op's exit code and output bytes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if not data:
        return ["no output written"]
    try:
        if op.command == "verify":
            return _check_verify(op, data)
        cols = _parse_csv(data)
        problems = _non_finite(cols)
        if problems:
            return problems
        if op.command in ("evolve", "kick"):
            return _check_evolution(op, cols)
        if op.command == "open-evolve":
            return _check_open_evolve(op, cols)
        if op.command == "tunnel":
            return _check_tunnel(op, cols)
        if op.command == "open-poles":
            return _check_boundary(op, cols)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
    raise ValueError(f"no check for command {op.command!r}")
