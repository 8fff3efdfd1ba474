import contextlib
import importlib.util
import io
import json
import math
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invosc
from conftest import mp_occupation_term, mp_zero_point_term
from invosc import cli
from invosc.cli import main


CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config-sha256: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


class _ReadRecorder(dict):
    """A config section that records the path of every key read from it."""

    def __init__(self, section, path, seen):
        super().__init__({key: _ReadRecorder(value, f"{path}{key}.", seen)
                          if isinstance(value, dict) else value
                          for key, value in section.items()})
        self.path, self.seen = path, seen

    def __getitem__(self, key):
        self.seen.add(self.path + key)
        return super().__getitem__(key)


# Every command and mode; "{dir}" is the run's output directory
_COMMANDS = [
    ["evolve"], ["kick"], ["tunnel"], ["open-poles"], ["open-evolve"], ["verify"],
    ["evolve", "--wavefunction", "{dir}/psi"], ["tunnel", "--barrier"],
    ["open-poles", "--boundary", "0.5", "20", "40"]]


def _command_id(args):
    return "-".join(a.lstrip("-") for a in args if "{" not in a)


# One changed key in each config section
_SECTION_CHANGES = {
    "system": "system.hbar=2", "packet": "packet.sigma=2",
    "force": "force.amplitude=0.25", "bath": "bath.kT=2",
    "evolve": "evolve.samples=3", "wavefunction": "wavefunction.points=5",
    "kick": "kick.momentum=2", "tunnel": "tunnel.points=3",
    "barrier": "barrier.points=3", "open": "open.samples=3"}


def _hashed_sections(monkeypatch):
    """A set that collects every section named to ``cli.config_sha256``."""
    hashed = set()
    config_sha256 = cli.config_sha256

    def recorded(config, *sections):
        hashed.update(sections)
        return config_sha256(config, *sections)

    monkeypatch.setattr(cli, "config_sha256", recorded)
    return hashed


def _leaves(section, path=""):
    for key, value in section.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{path}{key}.")
        else:
            yield path + key


class TestConfig:
    def test_every_config_key_is_read(self, tmp_path, monkeypatch):
        # and every key a command reads is in a section its output's hash covers
        seen = set()
        out = str(tmp_path / "out")
        hashed = _hashed_sections(monkeypatch)

        def run(command, *args, sets=()):
            reads = set()
            hashed.clear()
            config = _ReadRecorder(cli.load_config(None, sets), "", reads)
            assert command(config, out, *args) == 0
            assert {path.split(".")[0] for path in reads} <= hashed, command
            seen.update(reads)

        psi = str(tmp_path / "psi")
        for kind in ("zero", "constant", "harmonic"):
            run(cli.cmd_evolve, psi, sets=[f"force.kind={kind}"])
        run(cli.cmd_evolve, psi, sets=["force.kind=tabulated",
                                       "force.times=[0, 1]", "force.values=[0, 1]"])
        run(cli.cmd_kick)
        run(cli.cmd_tunnel)
        run(cli.cmd_tunnel, True)
        run(cli.cmd_open_poles)
        run(cli.cmd_open_poles, ("0.5", "20", "3"))
        run(cli.cmd_open_evolve, sets=["open.samples=2"])
        run(cli.cmd_verify)
        assert set(_leaves(cli.DEFAULT_CONFIG)) - seen == set()

    @pytest.mark.parametrize("args", _COMMANDS, ids=_command_id)
    def test_unread_sections_leave_output_unchanged(self, tmp_path, monkeypatch, args):
        hashed = _hashed_sections(monkeypatch)
        outputs = []
        for run in ("defaults", "changed"):
            sets = [arg for section, change in _SECTION_CHANGES.items()
                    if run == "changed" and section not in hashed
                    for arg in ("--set", change)]
            (tmp_path / run).mkdir()
            argv = [a.format(dir=tmp_path / run) for a in args]
            assert main(argv + sets + ["--out", str(tmp_path / run / "out")]) == 0
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / run).iterdir()})
        assert sets
        assert outputs[0] == outputs[1]

    def test_config_hash_covers_the_named_sections(self):
        assert set(_SECTION_CHANGES) == set(cli.DEFAULT_CONFIG)
        base = cli.load_config(None, [])
        for section, change in _SECTION_CHANGES.items():
            changed = cli.load_config(None, [change])
            others = set(_SECTION_CHANGES) - {section}
            assert cli.config_sha256(changed, section) != cli.config_sha256(base, section)
            assert cli.config_sha256(changed, *others) == cli.config_sha256(base, *others)

    def test_print_config_is_complete_json(self, capsys):
        code, out, _ = run_cli(["evolve", "--print-config"], capsys)
        assert code == 0
        cfg = json.loads(out)
        for section in ("system", "packet", "force", "bath", "evolve", "tunnel", "open"):
            assert section in cfg
        assert "verify" not in cfg
        assert "grid" not in cfg   # verify derives its box, n and step
        assert cfg["system"]["omega"] == 1.0

    def test_set_override_applies(self, capsys):
        code, out, _ = run_cli(["evolve", "--print-config",
                                "--set", "system.omega=2.5"], capsys)
        assert code == 0
        assert json.loads(out)["system"]["omega"] == 2.5

    def test_loaded_config_shares_no_container(self):
        before = json.dumps(cli.DEFAULT_CONFIG)
        config = cli.load_config(None, ["system.omega=2.5"])
        config["system"]["hbar"] = 7.0
        config["force"]["times"].append(1.0)
        config["barrier"]["forces"][0] = 9.0
        assert json.dumps(cli.DEFAULT_CONFIG) == before
        assert json.dumps(cli.load_config(None, [])) == before

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"tunnel": {"beta_maxx": 1.0}}))
        code, _, err = run_cli(["tunnel", "--config", str(cfg)], capsys)
        assert code == 2
        assert "tunnel.beta_maxx" in err

    @pytest.mark.parametrize("path,value,key", [
        ("force.times", 0.5, "force.times"),
        ("barrier.forces", "abc", "barrier.forces")])
    def test_mistyped_list_is_config_error(self, tmp_path, capsys, path, value, key):
        section, entry = path.split(".")
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: {entry: value}}))
        for source in (["--set", f"{path}={json.dumps(value)}"],
                       ["--config", str(cfg)]):
            code, out, err = run_cli(["verify", "--print-config", *source], capsys)
            assert (code, out) == (2, "")
            assert key in err

    @pytest.mark.parametrize("path,value,key", [
        ("system.omega", math.nan, "system.omega"),
        ("system.omega", math.inf, "system.omega"),
        ("system.omega", True, "system.omega"),
        ("evolve.samples", True, "evolve.samples"),
        ("bath.noise", False, "bath.noise"),
        ("force.times", [0.0, -math.inf], "force.times[1]"),
        ("system.omega", [math.nan], "system.omega"),
        ("system.omega", {"re": math.nan}, "system.omega"),
        ("barrier.forces", [0.1, [math.inf]], "barrier.forces[1]")])
    def test_boolean_or_non_finite_value_is_config_error(self, tmp_path, capsys, path,
                                                         value, key):
        # JSON has no NaN or infinity, so --print-config could not print them
        section, entry = path.split(".")
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: {entry: value}}))
        for source in (["--set", f"{path}={json.dumps(value)}"],
                       ["--config", str(cfg)]):
            code, out, err = run_cli(["evolve", "--print-config", *source], capsys)
            assert (code, out) == (2, "")
            assert f"'{key}'" in err

    @pytest.mark.parametrize("assignment", ["system=2", "system.omega.x=1"])
    def test_override_must_fit_the_config_shape(self, capsys, assignment):
        code, out, err = run_cli(["evolve", "--print-config", "--set", assignment],
                                 capsys)
        assert (code, out) == (2, "")
        assert assignment.split("=")[0] in err

    def test_unknown_override_path_rejected(self, capsys):
        code, _, err = run_cli(["evolve", "--set", "nope.key=1"], capsys)
        assert code == 2
        assert "nope.key" in err

    def test_successive_calls_share_no_overrides(self, capsys):
        # the parser is built once and reused by every call
        code, out, _ = run_cli(["evolve", "--set", "packet.x0=2",
                                "--print-config"], capsys)
        assert code == 0 and json.loads(out)["packet"]["x0"] == 2
        code, out, _ = run_cli(["evolve", "--set", "packet.p0=3",
                                "--print-config"], capsys)
        assert code == 0
        assert json.loads(out)["packet"] == {"x0": 0.0, "p0": 3, "sigma": 1.0}
        assert cli._build_parser() is cli._build_parser()

    def test_invalid_json_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(["evolve", "--config", str(cfg)], capsys)
        assert code == 2
        assert "JSON" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["evolve", "--config", "/no/such/file.json"],
                               capsys)
        assert code == 2

    def test_invalid_domain_value_is_config_error(self, capsys):
        code, _, err = run_cli(["evolve", "--set", "system.omega=-1"], capsys)
        assert code == 2
        assert "omega" in err

    @pytest.mark.parametrize("command,key", [
        ("evolve", "evolve.samples"), ("open-evolve", "open.samples"),
        ("tunnel", "tunnel.points")])
    def test_numeric_type_error_names_key(self, capsys, command, key):
        code, _, err = run_cli([command, "--set", f"{key}=abc"], capsys)
        assert code == 2
        assert key in err

    @pytest.mark.parametrize("args,key", [
        (["evolve"], "evolve.samples"),
        (["kick"], "evolve.samples"),
        (["evolve", "--wavefunction", "psi.csv"], "wavefunction.points"),
        (["tunnel"], "tunnel.points"),
        (["tunnel", "--barrier"], "barrier.points"),
        (["open-evolve"], "open.samples")])
    @pytest.mark.parametrize("value", ["2.7", "-1", "0"])
    def test_bad_count_names_key(self, tmp_path, monkeypatch, capsys, args,
                                 key, value):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(args + ["--set", f"{key}={value}"], capsys)
        assert code == 2
        assert key in err
        assert out == ""
        assert not (tmp_path / "psi.csv").exists()

    def test_bad_boundary_count_is_config_error(self, capsys):
        for n in ("2.5", "1"):
            code, _, err = run_cli(["open-poles", "--boundary", "0.5", "20", n],
                                   capsys)
            assert code == 2
            assert "--boundary N" in err

    @pytest.mark.parametrize("command,key", [
        ("evolve", "evolve.t_max"), ("kick", "evolve.t_max"),
        ("open-evolve", "open.t_max")])
    def test_negative_horizon_is_config_error(self, capsys, command, key):
        code, _, err = run_cli([command, "--set", f"{key}=-1"], capsys)
        assert code == 2
        assert key in err

    @pytest.mark.parametrize("key,value", [("tunnel.beta_min", "-1"),
                                           ("tunnel.epsilon", "0"),
                                           ("tunnel.beta_max", "1e400")])
    def test_tunnel_domain_is_config_error(self, capsys, key, value):
        code, out, err = run_cli(["tunnel", "--set", f"{key}={value}"], capsys)
        assert code == 2
        assert key in err
        assert out == ""

    @pytest.mark.parametrize("args,key", [
        (["evolve", "--wavefunction", "psi.csv"], "wavefunction.x_min"),
        (["evolve", "--wavefunction", "psi.csv"], "wavefunction.x_max"),
        (["tunnel", "--barrier"], "barrier.xi0"),
        (["tunnel", "--barrier"], "barrier.xi_min"),
        (["tunnel", "--barrier"], "barrier.xi_max"),
        (["tunnel", "--barrier"], "barrier.forces[1]"),
        (["kick"], "kick.momentum"),
        (["open-poles", "--boundary"], "--boundary A_MIN"),
        (["open-poles", "--boundary"], "--boundary A_MAX")])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_value_is_config_error(self, tmp_path, monkeypatch, capsys,
                                              args, key, value):
        monkeypatch.chdir(tmp_path)
        if key.startswith("--boundary"):
            bounds = ["0.5", "20"]
            bounds[key.endswith("MAX")] = value
            args = args + [*bounds, "3"]
        elif key == "barrier.forces[1]":
            args = args + ["--set", f"barrier.forces=[0.1, {value}]"]
        else:
            args = args + ["--set", f"{key}={value}"]
        try:
            code, out, err = run_cli(args, capsys)
        except SystemExit as exc:   # argparse takes "-Infinity" for an option
            code, (out, err), key = exc.code, capsys.readouterr(), "--boundary"
        assert (code, out) == (2, "")
        assert key in err
        assert "Warning" not in err
        assert not (tmp_path / "psi.csv").exists()


class TestRenderCsv:
    EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             -2.225073858507201e-308, 1.7976931348623157e308, -1.0, 3,
             np.float64(0.1), 1.0 / 3.0]

    def test_columns_match_the_cell_by_cell_format(self):
        rows = [[i, v, v if i % 3 else None] for i, v in enumerate(self.EDGES)]
        text = cli.render_csv(["t", "value", "maybe"], list(zip(*rows)), "abc")

        def cell(v):   # a subnormal has fewer than 17 digits: it is written 0
            if v is None:
                return ""
            return "%.16e" % (math.copysign(0.0, v) if abs(v) < 2.2250738585072014e-308
                              else v)

        expected = ["# config-sha256: abc", "t,value,maybe"]
        expected += [",".join(map(cell, row)) for row in rows]
        assert text == "\n".join(expected) + "\n"
        assert text.splitlines()[2] == "0.0000000000000000e+00,-0.0000000000000000e+00,"
        assert text.splitlines()[4] == ("2.0000000000000000e+00,0.0000000000000000e+00,"
                                        "0.0000000000000000e+00")

    def test_no_rows(self):
        assert cli.render_csv(["a", "b"], [[], []], "abc") == "# config-sha256: abc\na,b\n"

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_first_non_finite_cell_is_named(self, bad):
        rows = [[0.5, 1.0, None], [1.5, 2.0, bad], [2.5, bad, 1.0]]
        with pytest.raises(ArithmeticError, match=r"non-finite c at t=1\.5"):
            cli.render_csv(["t", "b", "c"], list(zip(*rows)), "abc")


class TestEvolve:
    def test_centered_packet_stays_centered(self, capsys):
        code, out, _ = run_cli(["evolve", "--set", "evolve.samples=5"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["t", "xi", "xi_dot", "re_gamma", "im_gamma",
                          "variance", "norm_check"]
        xi_col = [float(r[header.index("xi")]) for r in rows]
        assert all(v == 0.0 for v in xi_col)
        norms = [float(r[header.index("norm_check")]) for r in rows]
        assert all(abs(n - 1.0) < 1e-8 for n in norms)

    def test_variance_column_matches_width_law(self, capsys):
        code, out, _ = run_cli(["evolve", "--set", "evolve.samples=4",
                                "--set", "packet.sigma=1.2"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        it, iv = header.index("t"), header.index("variance")
        ir, ii = header.index("re_gamma"), header.index("im_gamma")
        for row in rows:
            gamma2 = float(row[ir]) ** 2 + float(row[ii]) ** 2
            assert float(row[iv]) == pytest.approx(1.2**2 * gamma2, rel=1e-8)

    def test_small_mean_at_long_times(self, capsys):
        # at t = 10 the mean, 0.11, is 7e-6 of the width
        code, out, _ = run_cli(["evolve", "--set", "packet.x0=1e-5",
                                "--set", "evolve.t_max=10",
                                "--set", "evolve.samples=2"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        gamma2 = (float(rows[-1][header.index("re_gamma")]) ** 2
                  + float(rows[-1][header.index("im_gamma")]) ** 2)
        assert float(rows[-1][header.index("variance")]) == pytest.approx(
            gamma2, rel=1e-12)
        assert float(rows[-1][header.index("norm_check")]) == pytest.approx(
            1.0, abs=1e-12)

    def test_rejects_kick_force(self, capsys):
        code, _, err = run_cli(["evolve", "--set", "force.kind=delta_kick"],
                               capsys)
        assert code == 2
        assert "kick" in err

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["evolve", "--set", "force.kind=harmonic",
                "--set", "force.amplitude=0.5", "--set", "force.omega0=2.0",
                "--set", "evolve.samples=4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_finite_cell_refused(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, err = run_cli(["evolve", "--set", "evolve.t_max=400",
                                "--set", "evolve.samples=2", "--out", str(out)],
                               capsys)
        assert code == 3
        assert "variance" in err and "t=400" in err
        assert not out.exists()

    def test_overflow_names_stage_and_time(self, capsys):
        code, _, err = run_cli(["evolve", "--set", "evolve.t_max=800",
                                "--set", "evolve.samples=2"], capsys)
        assert code == 3
        assert "evolve_gaussian" in err and "t=800" in err

    def test_force_jumping_at_support_ends(self, capsys):
        code, out, _ = run_cli([
            "evolve", "--set", "force.kind=tabulated",
            "--set", "force.times=[0.3, 0.8, 2.5, 3.0]",
            "--set", "force.values=[0.2, -0.4, 1.0, 0.5]",
            "--set", "evolve.t_max=2.7", "--set", "evolve.samples=2"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        norms = [float(r[header.index("norm_check")]) for r in rows]
        assert max(abs(n - 1.0) for n in norms) <= 1e-8

    def test_wavefunction_dump(self, tmp_path, capsys):
        dump = tmp_path / "wf.csv"
        code, out, _ = run_cli(["evolve", "--set", "evolve.samples=3",
                                "--set", "wavefunction.points=11",
                                "--wavefunction", str(dump)], capsys)
        assert code == 0
        _, header, rows = parse_csv(dump.read_text())
        assert header == ["x", "re_psi", "im_psi", "density"]
        assert len(rows) == 11
        for row in rows:
            re, im, dens = float(row[1]), float(row[2]), float(row[3])
            assert dens == pytest.approx(re * re + im * im, rel=1e-12)


# Configs at the edge of the float range: each exits with its code, and the
# in-process run fails if numpy warns (pytest turns a RuntimeWarning into an
# error)
_EXTREME_CONFIGS = [
    (["tunnel", "--set", "tunnel.epsilon=1e308"], 0),
    (["tunnel", "--set", "tunnel.beta_max=1e300", "--set", "tunnel.points=3"], 0),
    (["evolve", "--set", "packet.x0=1e300"], 0),
    (["kick", "--set", "kick.momentum=1e308"], 3),
    (["verify", "--set", "packet.x0=1e300"], 3)]


class TestFloatRange:
    @pytest.mark.parametrize("args,expected", _EXTREME_CONFIGS)
    def test_no_runtime_warning(self, capsys, args, expected):
        code, _, err = run_cli(args, capsys)
        assert code == expected
        assert "Warning" not in err

    @pytest.mark.parametrize("command,key", [
        ("evolve", "evolve.samples"), ("kick", "evolve.samples"),
        ("open-evolve", "open.samples"), ("tunnel", "tunnel.points")])
    def test_out_of_memory_is_an_error(self, capsys, monkeypatch, command, key):
        # a trillion samples: the linspace raises as numpy does when the host
        # refuses the 7.28 TiB, without asking the host for them
        linspace = np.linspace

        def refusing(start, stop, num=50, *args, **kwargs):
            if num > 10**9:
                raise MemoryError(f"Unable to allocate {8 * num / 2**40:.3g} TiB for "
                                  f"an array with shape ({num},) and data type float64")
            return linspace(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(np, "linspace", refusing)
        code, out, err = run_cli([command, "--set", f"{key}=1e12"], capsys)
        assert (code, out) == (3, "")
        assert err == ("error: out of memory: Unable to allocate 7.28 TiB for an array "
                       "with shape (1000000000000,) and data type float64\n")

    def test_out_of_memory_without_a_message(self, capsys, monkeypatch):
        def size_grid(*args):
            raise MemoryError

        monkeypatch.setattr(invosc.numerics, "size_grid", size_grid)
        code, out, err = run_cli(["verify"], capsys)
        assert (code, out, err) == (3, "", "error: out of memory\n")

    @pytest.mark.parametrize("args,column", [
        (["evolve", "--set", "packet.x0=1e308"], "xi"),
        (["kick", "--set", "kick.momentum=1e308"], "xi_dot")])
    def test_overflowing_center_names_its_column(self, capsys, args, column):
        # the moments are taken in the packet's own frame, so only the
        # center itself can overflow: cosh and sinh of 1.2 pass 1.5
        code, _, err = run_cli(args, capsys)
        assert code == 3
        assert err == f"error: non-finite {column} at t=1.2\n"

    @pytest.mark.parametrize("command,x0,momentum", [
        ("kick", -3.0, 1e100), ("kick", -3.0, 1e300), ("evolve", 1e300, 0.0)])
    def test_huge_center_or_momentum_passes_the_benchmark_checks(
            self, capsys, command, x0, momentum):
        # the phase (xi_dot y + S)/hbar overflows, and at momentum 1e100
        # xi -+ 12 sigma |Gamma| round to xi; the moments in y = x - xi see
        # neither
        spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        config = {"system": {"omega": 1.0, "hbar": 1.0},
                  "packet": {"x0": x0, "p0": 1.0, "sigma": 1.0},
                  "evolve": {"t_max": 1.5, "samples": 16},
                  "force": {"kind": "zero"},
                  "kick": {"momentum": momentum, "time": 0.5}}
        args = [command] + [arg for section, values in config.items()
                            for key, value in values.items()
                            for arg in ("--set", f"{section}.{key}={json.dumps(value)}")]
        code, out, _ = run_cli(args, capsys)
        op = SimpleNamespace(command=command, config=config)
        assert checks.check(op, code, out.encode()) == []

    def test_transmission_at_the_largest_epsilon(self, capsys):
        code, out, _ = run_cli(_EXTREME_CONFIGS[0][0], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        for name in ("w_jwkb", "w_exact", "w_avg_quadrature", "w_avg_asymptotic"):
            assert {float(row[header.index(name)]) for row in rows} == {0.0}

    def test_transmission_past_the_float_range_of_beta(self, capsys):
        # (1 - beta)^2 overflows: both static transmissions are exactly 0
        code, out, _ = run_cli(_EXTREME_CONFIGS[1][0], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        for row in rows[1:]:
            assert float(row[header.index("w_jwkb")]) == 0.0
            assert float(row[header.index("w_exact")]) == 0.0
            assert float(row[header.index("w_avg_quadrature")]) > 0.0

    @pytest.mark.parametrize("args,names", [
        (["open-poles", "--set", "bath.omega_d=1e300"], ["characteristic cubic", "omega_d"]),
        (["tunnel", "--barrier", "--set", "barrier.xi0=1e200"],
         ["barrier potential", "xi0=1e+200"]),
        (["evolve", "--set", "packet.sigma=1e-200"], ["sigma^2", "sigma=1e-200"]),
        (["open-evolve", "--set", "packet.sigma=1e-200"], ["sigma^2", "sigma=1e-200"]),
        (["evolve", "--set", "packet.sigma=1e200"], ["sigma^2", "sigma=1e+200"]),
        (["kick", "--set", "packet.sigma=1e200"], ["sigma^2", "sigma=1e+200"]),
        (["open-evolve", "--set", "packet.sigma=1e200"], ["sigma^2", "sigma=1e+200"]),
        (["verify", "--set", "packet.sigma=1e-200"], ["sigma^2", "sigma=1e-200"]),
        (["evolve", "--set", "packet.sigma=1e-160"], ["sigma^2", "sigma=1e-160"]),
        (["kick", "--set", "packet.sigma=1e-160"], ["sigma^2", "sigma=1e-160"]),
        (["open-evolve", "--set", "packet.sigma=1e-160"], ["sigma^2", "sigma=1e-160"]),
        (["verify", "--set", "packet.sigma=1e-154"], ["sigma^2", "sigma=1e-154"]),
        (["evolve", "--set", "packet.sigma=1e-80"], ["width overflows", "sigma=1e-80"]),
        (["kick", "--set", "packet.sigma=1e-80"], ["width overflows", "sigma=1e-80"]),
        (["evolve", "--set", "packet.sigma=1e-100"], ["width overflows", "sigma=1e-100"]),
        (["kick", "--set", "packet.sigma=1e-100"], ["width overflows", "sigma=1e-100"])],
        ids=["cubic-coefficients", "barrier-potential", "evolve-sigma", "open-sigma",
             "evolve-sigma-overflow", "kick-sigma-overflow", "open-sigma-overflow",
             "verify-sigma-underflow", "evolve-sigma-subnormal", "kick-sigma-subnormal",
             "open-sigma-subnormal", "verify-sigma-subnormal", "evolve-narrow-width",
             "kick-narrow-width", "evolve-narrower-width", "kick-narrower-width"])
    def test_exit_3_names_quantity_and_parameter(self, capsys, args, names):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (3, "")
        assert all(name in err for name in names), err
        assert "division by zero" not in err and "out of range" not in err

    def test_pole_table_at_a_vanishing_coupling(self, capsys):
        # the pole near -omega_d all but cancels: its residue is 0, not 1/0
        code, out, _ = run_cli(["open-poles", "--set", "bath.gamma=1e-300"], capsys)
        assert code == 0
        table = json.loads(out)
        cancelled = [r for r, s in zip(table["residues"], table["poles"])
                     if abs(s["re"] + 10.0) < 1e-9]
        assert cancelled == [{"re": 0.0, "im": 0.0}]
        assert all(math.isfinite(v) for v in table["sum_rules"].values())


_LOG_UNIT = st.floats(-1.0, 1.0).map(lambda e: 10.0**e)


class TestPacketMoments:
    @pytest.mark.parametrize("args", [
        ["evolve", "--set", "force.kind=harmonic", "--set", "force.amplitude=0.5"],
        ["evolve", "--set", "force.kind=tabulated",
         "--set", "force.times=[0.0, 0.5, 1.5]",
         "--set", "force.values=[0.0, 0.4, 0.0]"],
        ["kick", "--set", "kick.time=0.5"]])
    def test_no_quadrature(self, capsys, monkeypatch, args):
        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature called")

        quadratures = (invosc.numerics.integrate_adaptive,
                       invosc.numerics.integrate_trapezoid)
        for module in [m for key, m in list(sys.modules.items())
                       if key == "invosc" or key.startswith("invosc.")]:
            for attr, value in list(vars(module).items()):
                if any(value is q for q in quadratures):
                    monkeypatch.setattr(module, attr, forbidden)
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 16
        assert all(abs(float(r[header.index("norm_check")]) - 1.0) <= 1e-12
                   for r in rows)

    def test_norm_check_sees_a_defect_in_the_width(self, capsys, monkeypatch):
        # the norm compares the prefactor with the width: a relative defect
        # of 1e-6 in the width's real part moves it off 1 by about 5e-7
        width = invosc.closed_evolution._width

        def defective(*args):
            w = width(*args)
            return w.real * (1.0 + 1e-6) + 1j * w.imag

        monkeypatch.setattr(invosc.closed_evolution, "_width", defective)
        for command in ("evolve", "kick"):
            code, out, _ = run_cli([command], capsys)
            assert code == 0
            _, header, rows = parse_csv(out)
            assert all(abs(float(r[header.index("norm_check")]) - 1.0) > 1e-7
                       for r in rows)

    @settings(max_examples=60, deadline=None)
    @given(omega=_LOG_UNIT, hbar=_LOG_UNIT, sigma=_LOG_UNIT,
           omega_t=st.floats(0.0, 300.0), x0=st.floats(-1.0, 1.0),
           p0=st.floats(-1.0, 1.0), amplitude=st.floats(-1.0, 1.0),
           omega0=_LOG_UNIT, driven=st.booleans())
    def test_norm_and_width_law(self, omega, hbar, sigma, omega_t, x0, p0,
                                amplitude, omega0, driven):
        params = invosc.SystemParams(omega, hbar)
        packet = invosc.GaussianPacket(x0, p0, sigma)
        force = (invosc.HarmonicForce(amplitude, omega0) if driven
                 else invosc.ZeroForce())
        # a time series, one row per state of one call
        states = invosc.evolve_gaussian(params, packet, force,
                                        np.array([0.0, 0.25, 0.5, 1.0]) * omega_t / omega)
        norm, var = invosc.closed_evolution.norm_and_variance(states, params, packet)
        for gamma, n, v in zip(states.gamma_factor, norm, var):
            width = sigma * abs(gamma)
            assert abs(n - 1.0) <= 1e-12
            assert v == pytest.approx(width**2, rel=1e-12, abs=0.0)


class TestKick:
    def test_shared_columns_byte_identical_at_zero_momentum(self, tmp_path):
        ev, kk = tmp_path / "ev.csv", tmp_path / "kk.csv"
        assert main(["evolve", "--set", "evolve.samples=4",
                     "--out", str(ev)]) == 0
        assert main(["kick", "--set", "evolve.samples=4",
                     "--set", "kick.momentum=0.0", "--out", str(kk)]) == 0
        ev_lines = ev.read_text().strip().split("\n")
        kk_lines = kk.read_text().strip().split("\n")
        # strip the trailing P column from header and data rows
        assert kk_lines[1] == ev_lines[1] + ",P"
        for evl, kkl in zip(ev_lines[2:], kk_lines[2:]):
            assert kkl.rsplit(",", 1)[0] == evl

    def test_boosted_momentum_column_constant(self, capsys):
        code, out, _ = run_cli(["kick", "--set", "packet.p0=0.25",
                                "--set", "kick.momentum=1.0",
                                "--set", "evolve.samples=5"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        p_col = {row[header.index("P")] for row in rows}
        assert len(p_col) == 1
        assert float(p_col.pop()) == pytest.approx(1.25)

    def test_kick_center_matches_hyperbolic_growth(self, capsys):
        code, out, _ = run_cli(["kick", "--set", "kick.momentum=1.0",
                                "--set", "evolve.t_max=1.0",
                                "--set", "evolve.samples=2"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        xi_final = float(rows[-1][header.index("xi")])
        assert xi_final == pytest.approx(math.sinh(1.0), rel=1e-12)

    def test_rows_before_the_kick_are_evolve_rows(self, capsys):
        _, evolved, _ = run_cli(["evolve"], capsys)
        code, kicked, _ = run_cli(["kick", "--set", "kick.time=0.5",
                                   "--set", "kick.momentum=1"], capsys)
        assert code == 0
        ev_rows, kk_rows = evolved.splitlines()[2:], kicked.splitlines()[2:]
        before = [row for row in kk_rows if float(row.split(",")[0]) < 0.5]
        assert len(before) == 5
        assert [row.rsplit(",", 1)[0] for row in before] == ev_rows[:5]
        # the sample at t = 0.5 is kicked
        assert kk_rows[5].rsplit(",", 1)[0] != ev_rows[5]

    def test_kick_rejects_driving_force(self, capsys):
        code, _, err = run_cli(["kick", "--set", "force.kind=harmonic"],
                               capsys)
        assert code == 2
        assert "stationary" in err

    @pytest.mark.parametrize("key", ["kick.momentum", "kick.time"])
    @pytest.mark.parametrize("value", ["1e999", "NaN"])
    def test_non_finite_kick_is_config_error(self, capsys, key, value):
        code, out, err = run_cli(["kick", "--set", f"{key}={value}"], capsys)
        assert code == 2
        assert key in err
        assert out == ""


class TestTunnel:
    def test_sweep_columns_and_suppression_row(self, capsys):
        code, out, err = run_cli(["tunnel", "--set", "tunnel.beta_min=0.5",
                                  "--set", "tunnel.beta_max=1.0",
                                  "--set", "tunnel.points=3"], capsys)
        assert code == 0
        assert "warning" in err
        _, header, rows = parse_csv(out)
        assert header == ["beta", "w_jwkb", "w_exact", "w_avg_quadrature",
                          "A_prefactor", "w_avg_asymptotic"]
        last = rows[-1]
        assert float(last[0]) == 1.0
        assert float(last[header.index("w_exact")]) == 0.5
        assert last[header.index("A_prefactor")] == ""
        assert last[header.index("w_avg_asymptotic")] == ""

    def test_asymptotic_columns_match_library(self, capsys):
        code, out, err = run_cli(["tunnel", "--set", "tunnel.beta_min=0.05",
                                  "--set", "tunnel.beta_max=1.55",
                                  "--set", "tunnel.points=7"], capsys)
        assert code == 0
        assert err.count("warning") == 1
        _, header, rows = parse_csv(out)
        for row in rows:
            beta = float(row[0])
            if beta < 1.0:
                assert float(row[header.index("A_prefactor")]) == \
                    invosc.asymptotic_prefactor(3.0, beta)
                assert float(row[header.index("w_avg_asymptotic")]) == \
                    invosc.averaged_transmission_asymptotic(3.0, beta)
            else:
                assert row[header.index("A_prefactor")] == ""

    def test_one_library_call_per_quadrature_column(self, capsys, monkeypatch):
        calls = {}

        def counted(fn):
            def wrapper(*args):
                calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
                return fn(*args)
            return wrapper

        bt = invosc.barrier_transmission
        for name in ("averaged_transmission", "asymptotic_prefactor"):
            monkeypatch.setattr(bt, name, counted(getattr(bt, name)))
        code, out, _ = run_cli(["tunnel", "--set", "tunnel.beta_min=0.0",
                                "--set", "tunnel.beta_max=1.5",
                                "--set", "tunnel.points=16"], capsys)
        assert code == 0
        assert calls == {"averaged_transmission": 1, "asymptotic_prefactor": 1}
        _, header, rows = parse_csv(out)
        monkeypatch.undo()
        for row in rows:
            assert float(row[header.index("w_avg_quadrature")]) == \
                invosc.averaged_transmission(3.0, float(row[0]))

    def test_deep_tunneling_at_suppression_exits_zero(self, capsys):
        # a peak ~eps^(-1/4) wide at z = 0, narrower than the periodic rule
        # resolves within its node cap
        code, out, _ = run_cli(["tunnel", "--set", "tunnel.epsilon=1e14",
                                "--set", "tunnel.beta_min=1.0",
                                "--set", "tunnel.beta_max=1.0",
                                "--set", "tunnel.points=1"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert float(rows[0][header.index("w_avg_quadrature")]) == \
            invosc.averaged_transmission(1e14, 1.0) > 0.0

    def test_zero_drive_row_consistency(self, capsys):
        code, out, _ = run_cli(["tunnel", "--set", "tunnel.beta_min=0.0",
                                "--set", "tunnel.beta_max=0.5",
                                "--set", "tunnel.points=2"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        first = rows[0]
        assert first[header.index("w_exact")] == \
            first[header.index("w_avg_quadrature")]

    def test_far_above_suppression_is_nonzero(self, capsys):
        code, out, _ = run_cli(["tunnel", "--set", "tunnel.epsilon=3",
                                "--set", "tunnel.beta_min=1e17",
                                "--set", "tunnel.beta_max=1e17",
                                "--set", "tunnel.points=1"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        w_avg = float(rows[0][header.index("w_avg_quadrature")])
        # the beta >> 1 limit eta(1/2) / (beta sqrt(pi eps))
        limit = 0.6048986434216304 / (1e17 * math.sqrt(3.0 * math.pi))
        assert w_avg == pytest.approx(limit, rel=1e-12, abs=0.0)

    def test_peak_above_suppression_in_deep_tunneling(self, capsys):
        code, out, _ = run_cli(["tunnel", "--set", "tunnel.epsilon=1e12",
                                "--set", "tunnel.beta_min=2",
                                "--set", "tunnel.beta_max=2",
                                "--set", "tunnel.points=1"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        w_avg = float(rows[0][header.index("w_avg_quadrature")])
        assert math.isfinite(w_avg) and w_avg > 0.0

    def test_subnormal_cells_written_as_zero(self, capsys):
        # eps (1 - beta)^2 = 722.5: every transmission is below the normal range
        code, out, _ = run_cli(["tunnel", "--set", "tunnel.epsilon=1e3",
                                "--set", "tunnel.beta_min=0.15",
                                "--set", "tunnel.beta_max=0.15",
                                "--set", "tunnel.points=1"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        for name in ("w_jwkb", "w_exact", "w_avg_quadrature", "w_avg_asymptotic"):
            assert rows[0][header.index(name)] == "0.0000000000000000e+00"
        assert float(rows[0][header.index("A_prefactor")]) > 0.0

    def test_barrier_profile_matches_library(self, capsys):
        code, out, _ = run_cli(["tunnel", "--barrier",
                                "--set", "barrier.points=5"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["F", "xi", "V"]
        assert len(rows) == 3 * 5
        params = invosc.SystemParams(1.0)
        for row in rows:
            f, xi, v = (float(c) for c in row)
            assert v == pytest.approx(
                invosc.barrier_potential(params, -0.5, f, xi), rel=1e-14)
        forces = sorted({float(r[0]) for r in rows})
        assert forces == [-0.2, 0.0, 0.2]


class TestOpenPoles:
    def test_three_real_table(self, capsys):
        code, out, _ = run_cli(["open-poles"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["root_class"] == "three_real"
        assert payload["D"] < 0
        assert len(payload["poles"]) == 3
        assert len(payload["residues"]) == 3
        assert abs(payload["sum_rules"]["sumR"]) < 1e-10
        assert payload["sum_rules"]["sumRs"] == pytest.approx(1.0, abs=1e-10)
        assert abs(payload["sum_rules"]["sumRs2"]) < 1e-10

    def test_complex_pair_classification(self, capsys):
        code, out, _ = run_cli(["open-poles", "--set", "bath.omega_d=2.0",
                                "--set", "bath.gamma=5.0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["root_class"] == "one_real_two_complex"
        assert payload["D"] > 0

    def test_weak_damping_poles(self, capsys):
        code, out, _ = run_cli(["open-poles", "--set", "bath.gamma=1e-9"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        res = sorted(p["re"] for p in payload["poles"])
        assert res == pytest.approx([-10.0, -1.0, 1.0], abs=1e-6)

    def test_degenerate_poles_exit_code(self, capsys, monkeypatch):
        from invosc import open_system

        def fake_solve(params, bath):
            coeffs = open_system.characteristic_coefficients(params, bath)
            raise open_system.DegeneratePolesError(
                "degenerate", poles=(1.0 + 0j, 1.0 + 0j, -2.0 + 0j),
                coefficients=coeffs)

        monkeypatch.setattr(invosc.open_system, "solve_poles", fake_solve)
        code, out, _ = run_cli(["open-poles"], capsys)
        assert code == 3
        payload = json.loads(out)
        assert payload["root_class"] == "degenerate_real"
        assert "residues" not in payload

    def test_boundary_sweep(self, capsys):
        code, out, _ = run_cli(["open-poles", "--boundary", "0.5", "20", "5"],
                               capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["a", "b_critical"]
        assert len(rows) == 5
        for row in rows:
            a, b = float(row[0]), float(row[1])
            q = a**3 / 27 - a * b / 6 - a / 2
            p = (3 * b - a * a) / 9
            assert abs(q * q + p**3) < 1e-10


    def test_boundary_past_the_float_range_names_the_cell(self, capsys):
        code, out, err = run_cli(["open-poles", "--boundary", "1e100", "1e101", "3"],
                                 capsys)
        assert (code, out) == (3, "")
        assert err == "error: non-finite b_critical at a=1e+100\n"


class TestOpenEvolve:
    def test_initial_row_and_zero_temperature(self, capsys):
        code, out, _ = run_cli(["open-evolve", "--set", "bath.kT=0.0",
                                "--set", "open.samples=4",
                                "--set", "open.t_max=1.5"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["t", "G", "G_dot", "mean_x", "variance_dynamic",
                          "variance_noise", "variance_total"]
        first = rows[0]
        assert float(first[header.index("G")]) == pytest.approx(0.0, abs=1e-12)
        assert float(first[header.index("G_dot")]) == pytest.approx(1.0,
                                                                    abs=1e-12)
        assert float(first[header.index("variance_total")]) == pytest.approx(
            1.0, abs=1e-12)
        noise = [float(r[header.index("variance_noise")]) for r in rows]
        assert all(v == 0.0 for v in noise)

    def test_zero_force_runs_no_force_sweep(self, capsys, monkeypatch):
        # the sweep chains exponentials over a state that stays zero, so its
        # x(t) is exactly 0: each spelling of a zero force skips it, after
        # at most one force_pieces call over [0, max t], and writes
        # mean_x = x0 G' + p0 G, the same bytes for all of them
        def forbidden(*args):
            raise AssertionError("expm called for a zero force")

        forced, pieces = invosc.open_system._forced_response, invosc.open_system.force_pieces

        def without_expm(*args):
            calls = []

            def counted(*piece_args):
                calls.append(piece_args)
                return pieces(*piece_args)

            with monkeypatch.context() as patch:
                patch.setattr(invosc.open_system, "expm", forbidden)
                patch.setattr(invosc.open_system, "force_pieces", counted)
                out = forced(*args)
            assert len(calls) <= 1
            return out

        monkeypatch.setattr(invosc.open_system, "_forced_response", without_expm)
        packet = ["--set", "packet.x0=0.3", "--set", "packet.p0=-0.2", "--set",
                  "open.samples=5"]
        bodies = set()
        for force in (["--set", "force.kind=zero"],
                      ["--set", "force.kind=constant", "--set", "force.amplitude=0"],
                      ["--set", "force.kind=harmonic", "--set", "force.amplitude=0"],
                      ["--set", "force.kind=tabulated", "--set", "force.times=[0, 0.5, 1.5]",
                       "--set", "force.values=[0, 0, 0]"]):
            code, out, _ = run_cli(["open-evolve", *packet, *force], capsys)
            assert code == 0
            _, header, rows = parse_csv(out)
            for row in rows:
                g, gd = (float(row[header.index(name)]) for name in ("G", "G_dot"))
                assert float(row[header.index("mean_x")]) == 0.3 * gd - 0.2 * g
            bodies.add(out.split("\n", 1)[1])
        assert len(bodies) == 1

    def test_harmonic_mean_matches_offline_convolution(self, capsys):
        code, out, _ = run_cli([
            "open-evolve", "--set", "force.kind=harmonic",
            "--set", "force.amplitude=0.1", "--set", "force.omega0=0.2",
            "--set", "bath.kT=0.0", "--set", "open.samples=3",
            "--set", "open.t_max=2.0"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        params = invosc.SystemParams(1.0)
        bath = invosc.BathParams(0.5, 10.0, 0.0)
        for row in rows[1:]:
            t = float(row[header.index("t")])
            quad = invosc.integrate_adaptive(
                lambda t1: invosc.green_pair(params, bath, t - t1)[0]
                * 0.1 * np.sin(0.2 * t1),
                0.0, t, abs_tol=1e-13, rel_tol=1e-12).value
            assert float(row[header.index("mean_x")]) == pytest.approx(
                quad, abs=1e-8)

    @pytest.mark.parametrize("force", [
        ["--set", "force.kind=zero"],
        ["--set", "force.kind=harmonic", "--set", "force.amplitude=0.4",
         "--set", "force.omega0=1.7"],
        ["--set", "force.kind=tabulated", "--set", "force.times=[0, 0.5, 1.5]",
         "--set", "force.values=[0, 0.4, 0]"]])
    def test_undamped_bath_is_the_closed_system(self, capsys, force):
        packet = ["--set", "packet.x0=0.3", "--set", "packet.p0=-0.2",
                  "--set", "packet.sigma=0.8", "--set", "system.omega=1.3",
                  "--set", "system.hbar=0.7"]
        code, out, _ = run_cli(["open-evolve", "--set", "bath.gamma=0",
                                "--set", "open.samples=5",
                                "--set", "open.t_max=4"] + packet + force, capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        code, out, _ = run_cli(["evolve", "--set", "evolve.samples=5",
                                "--set", "evolve.t_max=4"] + packet + force, capsys)
        assert code == 0
        _, closed_header, closed_rows = parse_csv(out)
        for row, closed in zip(rows, closed_rows):
            assert row[0] == closed[0]
            for name, closed_name in (("mean_x", "xi"),
                                      ("variance_total", "variance")):
                assert float(row[header.index(name)]) == pytest.approx(
                    float(closed[closed_header.index(closed_name)]),
                    rel=1e-13, abs=0.0)
            assert float(row[header.index("variance_noise")]) == 0.0


    def test_exponentials_do_not_grow_with_the_samples(self, capsys, monkeypatch):
        calls = []
        for name in ("expm", "expm_gramian"):
            original = getattr(invosc.open_system, name)
            monkeypatch.setattr(invosc.open_system, name,
                                lambda *args, f=original: calls.append(f) or f(*args))
        counts = []
        for samples in (4, 31):
            calls.clear()
            code, _, _ = run_cli([
                "open-evolve", "--set", "bath.noise=classical",
                "--set", "force.kind=tabulated", "--set", "force.times=[0, 0.5, 1.5]",
                "--set", "force.values=[0, 0.4, 0]",
                "--set", f"open.samples={samples}"], capsys)
            assert code == 0
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_zero_point_noise_takes_a_few_sweeps_and_no_adaptive_rule(self, capsys,
                                                                       monkeypatch):
        # one rate rule for all 31 times: each round of new rates is one
        # stacked Van Loan call, where one adaptive rule per time made 35
        calls = []
        original = invosc.open_system.expm_gramian
        monkeypatch.setattr(invosc.open_system, "expm_gramian",
                            lambda *args: calls.append(1) or original(*args))

        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_adaptive called")

        monkeypatch.setattr(invosc.numerics, "integrate_adaptive", forbidden)
        code, _, _ = run_cli(["open-evolve", "--set", "bath.noise=symmetrized",
                              "--set", "bath.kT=0", "--set", "open.samples=31"], capsys)
        assert code == 0
        assert 1 <= len(calls) <= 4

    def test_occupation_noise_takes_a_few_sweeps_and_no_adaptive_rule(self, capsys,
                                                                       monkeypatch):
        # the zero-point rule's sweep and the Matsubara sweep: two stacked
        # Van Loan calls where one frequency quadrature per time made 180
        # adaptive ones
        calls = []
        original = invosc.open_system.expm_gramian
        monkeypatch.setattr(invosc.open_system, "expm_gramian",
                            lambda *args: calls.append(1) or original(*args))

        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_adaptive called")

        monkeypatch.setattr(invosc.numerics, "integrate_adaptive", forbidden)
        code, _, _ = run_cli(["open-evolve", "--set", "bath.noise=occupation",
                              "--set", "bath.kT=1", "--set", "open.samples=31"], capsys)
        assert code == 0
        assert 1 <= len(calls) <= 3

    def test_one_impulse_response_and_one_van_loan_step_per_rate(self, capsys, monkeypatch):
        # the mean and the dynamic variance share one exponential of the
        # sample times, and on linspace times every noise sweep takes its
        # Van Loan step at the lattice unit alone, composing the multiples
        # (the sparse times 0.3 .. 3.0 of the occupation term have gaps of
        # 3 units and 1)
        stacks, steps = [], []
        expm, gramian = invosc.open_system.expm, invosc.open_system.expm_gramian
        monkeypatch.setattr(invosc.open_system, "expm",
                            lambda *args: stacks.append(np.shape(args[0])) or expm(*args))
        monkeypatch.setattr(invosc.open_system, "expm_gramian",
                            lambda *args: steps.append(np.shape(args[0])) or gramian(*args))
        for noise, kT in (("occupation", "1"), ("symmetrized", "0"), ("symmetrized", "1"),
                          ("classical", "1")):
            stacks.clear()
            steps.clear()
            code, _, _ = run_cli(["open-evolve", "--set", f"bath.noise={noise}", "--set",
                                  f"bath.kT={kT}", "--set", "open.samples=31"], capsys)
            assert code == 0
            assert stacks.count((31, 3, 3)) == 1
            # units, rates, 7, 7
            assert steps and all(shape[0] == 1 for shape in steps), steps

    def test_columns_are_their_library_calls(self, capsys, monkeypatch):
        # open_evolution takes G and G' once for all columns; each column is
        # still, bit for bit, what its own public function or closed form gives
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)   # for its dataclass
        spec.loader.exec_module(workloads)
        for seed in (1, 2, 3):
            for op in workloads.open_noise(random.Random(seed)):
                code, out, _ = run_cli(op.argv(), capsys)
                assert code == 0
                _, header, rows = parse_csv(out)
                config = cli.load_config(None, op.argv()[2::2])
                params, packet = cli._build_system(config), cli._build_packet(config)
                bath, force = cli._build_bath(config), cli._build_force(config)
                times = cli._sample_times(config, "open")
                g, gd = invosc.green_pair(params, bath, times)
                mean = invosc.mean_trajectory(params, bath, packet.x0, packet.p0, force, times)
                sigma2 = packet.sigma**2
                dynamic = sigma2 * gd * gd + params.hbar**2 / (4.0 * sigma2) * g * g
                noise = invosc.variance_noise_term(params, bath, times, config["bath"]["noise"],
                                                   1e-10 * np.maximum(np.abs(dynamic), 1e-30))
                for name, column in (("t", times), ("G", g), ("G_dot", gd), ("mean_x", mean),
                                     ("variance_dynamic", dynamic),
                                     ("variance_noise", noise)):
                    assert [float(row[header.index(name)]) for row in rows] == column.tolist(), \
                        (op.name, seed, name)

    def test_past_the_float_range_names_the_first_bad_cell(self, capsys):
        # G(800) is still finite, its square is not; the noise quadrature is
        # not run there, and nothing but the error reaches stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["open-evolve", "--set", "open.t_max=800",
                                      "--set", "open.samples=3"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: non-finite variance_dynamic at t=800\n"

    @pytest.mark.parametrize("convention,t", [("occupation", 0.3), ("symmetrized", 0.1)])
    def test_noise_rule_failure_names_stage_and_bath(self, capsys, monkeypatch,
                                                     convention, t):
        # at kT = 1 the zero-point rule serves the times past the dense
        # Matsubara lattice (the occupation term is the sum less it) or
        # those on it (the symmetrized term is it plus their series)
        best = invosc.QuadratureResult(0.25, 1e-3, 150)

        def failing(*args, **kwargs):
            raise invosc.QuadratureError("stub rule failed", best)

        monkeypatch.setattr(invosc.open_system, "_zero_point_term", failing)
        code, out, err = run_cli(["open-evolve", "--set", f"bath.noise={convention}"],
                                 capsys)
        assert (code, out) == (3, "")
        for name in ("variance_noise", f"t={t:g}", f"{convention} convention",
                     "gamma=0.5", "omega_d=10", "kT=1", "stub rule failed"):
            assert name in err, err
        params, bath = invosc.SystemParams(1.0), invosc.BathParams(0.5, 10.0, 1.0)
        with pytest.raises(invosc.QuadratureError) as exc:
            invosc.variance_noise_term(params, bath, t, convention)
        assert exc.value.best is best

    @pytest.mark.parametrize("kT", ["1e8", "1e10"])
    def test_hot_bath(self, capsys, kT):
        # the frequency quadrature of the Bose part stalled here; the first
        # Matsubara rate is already past every scale of the motion
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(["open-evolve", "--set", f"bath.kT={kT}",
                                    "--set", "open.samples=3"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        params, bath = invosc.SystemParams(1.0), invosc.BathParams(0.5, 10.0, float(kT))
        for row in rows[1:]:
            t = float(row[0])
            assert float(row[header.index("variance_noise")]) == pytest.approx(
                mp_occupation_term(params, bath, t), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t_max", ["1e-19", "1e-29"])
    def test_zero_point_noise_at_tiny_times(self, capsys, t_max):
        # the rate rule's folded differences were rounding noise here
        code, out, _ = run_cli(["open-evolve", "--set", "bath.kT=0", "--set",
                                "bath.noise=symmetrized", "--set", f"open.t_max={t_max}",
                                "--set", "open.samples=3"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        params, bath = invosc.SystemParams(1.0), invosc.BathParams(0.5, 10.0, 0.0)
        for row in rows[1:]:
            assert float(row[header.index("variance_noise")]) == pytest.approx(
                mp_zero_point_term(params, bath, float(row[0])), rel=1e-13, abs=0.0)

    def test_zero_point_noise_of_a_fast_bath(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli([
                "open-evolve", "--set", "bath.noise=symmetrized", "--set", "bath.kT=0",
                "--set", "bath.omega_d=1e6", "--set", "open.samples=3"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        noise = [float(row[header.index("variance_noise")]) for row in rows]
        assert noise[0] == 0.0 and min(noise[1:]) > 0.0

    @pytest.mark.parametrize("omega_d", ["1e-30", "1e-100"])
    def test_noise_of_a_slow_bath(self, capsys, omega_d):
        # the zero-point rate rule's fast end starts past 1/t and the rates of
        # the motion, so it converges; the noise, which vanishes with
        # omega_d, is within the rule's absolute tolerance 1e-14 of 0
        code, out, _ = run_cli(["open-evolve", "--set", f"bath.omega_d={omega_d}"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        assert max(abs(float(row[header.index("variance_noise")])) for row in rows) <= 1e-14


class TestVerify:
    def test_default_config_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        # the grid checks' tolerance is four times the extrapolated psi's
        # error estimate: 3.7e-10
        grid = payload["grid"]
        grid_tolerance = 4.0 * grid["error_estimate"]
        assert [(c["name"], c["tolerance"]) for c in payload["checks"]] == [
            ("grid_closed_form_t0.5", grid_tolerance),
            ("grid_closed_form_t1", grid_tolerance),
            ("grid_closed_form_t1.5", grid_tolerance), ("green_expm_vs_ode_case0", 1e-10),
            ("green_expm_vs_ode_case1", 1e-10),
            ("tunnel_asymptotic_eps10_beta0.3", 0.15),
            ("tunnel_asymptotic_eps30_beta0.2", 0.08),
            ("noise_closed_form_vs_quadrature", 1e-8)]
        for check in payload["checks"]:
            assert set(check) == {"name", "deviation", "tolerance", "passed"}
            assert check["passed"] is True
        # the step is where the extrapolated psi's error estimate first meets
        # 1e-9: m = 8, r = 9.3e-11
        assert (grid["x_min"], grid["x_max"]) == pytest.approx((-27.444, 27.444), abs=1e-3)
        assert (grid["n"], grid["dt"]) == (512, 1 / 16)
        assert 1e-11 < grid["error_estimate"] <= 1e-9

    @pytest.mark.parametrize("force", [
        ["--set", "force.kind=zero"],
        ["--set", "force.kind=constant", "--set", "force.amplitude=0.5"],
        ["--set", "force.kind=harmonic", "--set", "force.amplitude=0.5"],
        ["--set", "force.kind=tabulated", "--set", "force.times=[0.2, 0.7, 1.2]",
         "--set", "force.values=[0.5, -0.25, 0.5]"],
        ["--set", "force.kind=tabulated",
         "--set", f"force.times={[round(0.1 * i, 1) for i in range(1, 15)]}",
         "--set", f"force.values={[0.5 * (-1) ** i for i in range(14)]}"]],
        ids=["zero", "constant", "harmonic", "tabulated", "dense-knots"])
    def test_grid_deviation_is_within_the_estimate(self, capsys, force):
        # the estimate is the extrapolated psi's error to leading order, not
        # a bound: the largest deviation is 1.0005 (dense knots) to 1.0056
        # (tabulated) times it, 9.3e-11 against 9.27e-11 at zero force
        code, out, _ = run_cli(["verify", *force], capsys)
        assert code == 0
        payload = json.loads(out)
        estimate = payload["grid"]["error_estimate"]
        assert 0.0 < estimate <= 1e-9
        grid = [c["deviation"] for c in payload["checks"] if c["name"].startswith("grid")]
        assert len(grid) == 3
        assert max(grid) <= 2.0 * estimate

    def test_tighter_target_halves_the_step(self, capsys, monkeypatch):
        # the estimate falls about 64-fold per halving, so a target of 1e-11
        # in place of 1e-9 takes one halving more: m = 16, not 8
        monkeypatch.setattr(cli, "_GRID_TOLERANCE", 1e-9)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        grid = json.loads(out)["grid"]
        assert grid["dt"] == 1 / 32
        assert 1e-13 < grid["error_estimate"] <= 1e-11

    @pytest.mark.parametrize("assignment,key", [
        ("grid.dt=0.01", "unknown config key 'grid.dt'"),
        ("grid.n=1000", "unknown config key 'grid.n'"),
        ("grid.x_min=50", "unknown config key 'grid.x_min'"),
        ("grid.x_max=50", "unknown config key 'grid.x_max'"),
        ("verify.grid_tolerance=1e-9", "unknown config key 'verify.grid_tolerance'")])
    def test_config_mistake_is_config_error(self, capsys, monkeypatch, assignment,
                                            key):
        def first_oracle(*args):
            raise AssertionError("an oracle ran before the config was checked")

        monkeypatch.setattr(invosc.numerics, "grid_from_packet", first_oracle)
        sets = [arg for item in assignment.split() for arg in ("--set", item)]
        code, out, err = run_cli(["verify", *sets], capsys)
        assert code == 2
        assert key in err
        assert out == ""

    def test_derived_grid_holds_the_packet_the_fixed_box_lost(self, capsys):
        # at (omega, hbar) = (1.7, 0.6) the packet is 6.5 wide at t = 1.5 and
        # reaches x = 40, where the old fixed box [-40, 40] ended (t = 1.5
        # deviation 3.1e-5, exit 4); the derived box holds it
        code, _, _ = run_cli(["verify", "--set", "system.omega=1.7",
                              "--set", "system.hbar=0.6"], capsys)
        assert code == 0

    @settings(max_examples=30, deadline=None)
    @given(omega=st.floats(0.3, 2.0), hbar=st.floats(0.5, 2.0), sigma=st.floats(0.5, 2.0),
           x0=st.floats(-2.0, 2.0), p0=st.floats(-2.0, 2.0),
           kind=st.sampled_from(["zero", "constant", "harmonic", "tabulated"]),
           amplitude=st.floats(-1.0, 1.0), omega0=st.floats(0.5, 3.0))
    @example(omega=2.0, hbar=0.5, sigma=0.5, x0=2.0, p0=2.0, kind="constant",
             amplitude=1.0, omega0=1.0)   # t = 1.5 deviation 4.3e-7 at the old dt = 1e-2
    def test_derived_grid_resolves_every_run(self, omega, hbar, sigma, x0, p0, kind,
                                             amplitude, omega0):
        # On the derived grid and step no grid check fails: verify passes,
        # exits 3 at the cap on the grid's points, or fails the noise check
        # alone, whose frequency quadrature can miss its own tolerance on a
        # few systems.  The green and tunnel checks use no grid and are left
        # out.  The 30 examples and the corner take about 5 s, most of it at
        # n = 2^15 or 2^16, where the step comes to 2^-6.
        argv = ["verify"]
        for key, value in {"system.omega": omega, "system.hbar": hbar,
                           "packet.sigma": sigma, "packet.x0": x0, "packet.p0": p0,
                           "force.kind": kind, "force.amplitude": amplitude,
                           "force.omega0": omega0, "force.times": [0.2, 0.7, 1.2],
                           "force.values": [amplitude, -0.5 * amplitude, amplitude]}.items():
            argv += ["--set", f"{key}={json.dumps(value)}"]
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            patch.setattr(cli, "_GREEN_BATHS", ())
            patch.setattr(cli, "_TUNNEL_POINTS", ())
            code = main(argv)
        if code == 3:
            assert re.match(r"error: verify: grid at omega = \S+: the grid needs ", err.getvalue())
            return
        assert code in (0, 4)
        failed = [c["name"] for c in json.loads(out.getvalue())["checks"] if not c["passed"]]
        assert failed in ([], ["noise_closed_form_vs_quadrature"])
        assert (code == 4) == bool(failed)

    def test_non_finite_green_deviation_names_its_check(self, capsys, monkeypatch):
        oracle = invosc.numerics.langevin_ode_oracle

        def broken(*args):
            ts, g = oracle(*args)
            return ts, np.full_like(g, math.nan)

        monkeypatch.setattr(invosc.numerics, "langevin_ode_oracle", broken)
        code, out, err = run_cli(["verify"], capsys)
        assert (code, out) == (3, "")
        assert err == ("error: verify: green_expm_vs_ode_case0 at omega = 1: non-finite "
                       "deviation nan in check green_expm_vs_ode_case0\n")

    @pytest.mark.parametrize("bath", [("0.6", "1.0", "0.0"), ("40.0", "0.05", "1.0"),
                                      ("0.0", "10.0", "1.0")])
    def test_noise_check_at_a_tiny_term(self, capsys, monkeypatch, bath):
        # at omega t = 1e-3 the term is below 1e-12, under the default
        # absolute tolerance of variance_noise_term: the check's one call
        # asks for none, and the rate rule stops at its 1e-11 relative target
        sets = [f"{key}={value}" for key, value in zip(
            ("bath.gamma", "bath.omega_d", "bath.kT"), bath)]
        for name, value in [("_NOISE_T", 0.001), ("_GRID_TIMES", (0.1,)),
                            ("_GREEN_BATHS", ()), ("_TUNNEL_POINTS", ())]:
            monkeypatch.setattr(cli, name, value)
        calls = []
        variance_noise_term = invosc.open_system.variance_noise_term

        def counted(*args):
            calls.append(args[-1])
            return variance_noise_term(*args)

        monkeypatch.setattr(invosc.open_system, "variance_noise_term", counted)
        code, out, _ = run_cli(["verify"] + [arg for item in sets
                                             for arg in ("--set", item)], capsys)
        assert code == 0
        assert calls == [0.0]
        check = json.loads(out)["checks"][-1]
        assert check["name"] == "noise_closed_form_vs_quadrature"
        assert check["deviation"] < 1e-8

    @pytest.mark.parametrize("defect,deviations,rel", [
        (lambda t: 2e-7, [2e-7] * 3, 1e-4),
        (lambda t: 1e-9 * t, [5e-10, 1e-9, 1.5e-9], 0.1)], ids=["2e-7", "1e-9t"])
    def test_grid_negative_control(self, capsys, monkeypatch, defect, deviations, rel):
        # a relative defect in the closed-form wavefunction of 2e-7, twice
        # the largest tolerance, or of 1e-9 t, above the default tolerance of
        # four times the error estimate (3.7e-10), fails the three grid
        # checks alone
        evaluate = invosc.closed_evolution.evaluate

        def perturbed(ev, *args, **kwargs):
            return evaluate(ev, *args, **kwargs) * (1.0 + defect(np.asarray(ev.t)))

        monkeypatch.setattr(invosc.closed_evolution, "evaluate", perturbed)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 4
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == [
            "grid_closed_form_t0.5", "grid_closed_form_t1", "grid_closed_form_t1.5"]
        assert [c["deviation"] for c in failed] == pytest.approx(deviations, rel=rel)

    def test_step_past_the_cap_names_the_estimate(self, capsys, monkeypatch):
        # with a cap of 12 steps the runs of 3, 6 and 12 steps to t = 1.5
        # leave the estimate above the target, and 24 steps pass the cap
        monkeypatch.setattr(cli, "_MAX_GRID_STEPS", 12)
        code, out, err = run_cli(["verify"], capsys)
        assert (code, out) == (3, "")
        assert re.fullmatch(
            r"error: verify: grid at omega = 1: the extrapolated error estimate \S+ at 12 "
            r"steps to "
            r"t = 1\.5 is above the target 1e-09, and 24 steps pass the cap 12\n", err)

    def test_second_order_stepper_is_refused(self, capsys, monkeypatch):
        # without the gradient term the stepper is second order: the
        # step-doubling estimates fall 4-fold per halving, not 16-fold.  At
        # 3072 steps the extrapolated estimate, 8.0e-10, meets the target,
        # but the deviations reach 1.7e-8, 21 times it; the order guard
        # refuses it and the next run passes the cap
        monkeypatch.setattr(invosc.numerics, "_GRADIENT", np.zeros(3))
        monkeypatch.setattr(cli, "_MAX_GRID_STEPS", 3072)
        code, out, err = run_cli(["verify"], capsys)
        assert (code, out) == (3, "")
        match = re.fullmatch(
            r"error: verify: grid at omega = 1: the extrapolated error estimate (\S+) at 3072 "
            r"steps to "
            r"t = 1\.5 is within the target 1e-09, the step-doubling ratio e_m/e_\(m/2\) = "
            r"(\S+) is above the 1/8 of fourth order, and 6144 steps pass the cap 3072\n",
            err)
        assert match
        assert float(match[1]) <= 1e-9
        assert float(match[2]) == pytest.approx(0.25, abs=0.01)

    def test_near_free_motion_passes_at_rounding(self, capsys):
        # at omega = 1e-3 the stepper is exact to rounding: e_m is about
        # 1e-16 and its ratios are noise, so the rounding exception of the
        # order guard takes the run at m = 4, and the grid checks' deviations
        # of up to 2e-13 meet the tolerance's floor of 1e-11
        code, out, _ = run_cli(["verify", "--set", "system.omega=1e-3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["grid"]["dt"] == 1 / 8
        assert payload["grid"]["error_estimate"] < 1e-15
        assert payload["all_pass"] is True
        assert {c["tolerance"] for c in payload["checks"]
                if c["name"].startswith("grid")} == {1e-11}

    @pytest.mark.parametrize("omega", [1e-6, 1.0, 2.0])
    def test_green_cases_take_the_same_steps_at_every_omega(self, capsys, monkeypatch,
                                                            omega):
        # the baths, horizon and step scale with omega: each case takes the
        # horizon 5/omega in 10^4 RK4 steps of 5e-4/omega, and passes
        steps = []
        oracle = invosc.numerics.langevin_ode_oracle

        def counted(params, bath, t_final, dt):
            steps.append(round(t_final / dt))
            return oracle(params, bath, t_final, dt)

        monkeypatch.setattr(invosc.numerics, "langevin_ode_oracle", counted)
        code, out, _ = run_cli(["verify", "--set", f"system.omega={omega!r}"], capsys)
        assert code == 0
        assert steps == [10**4, 10**4]
        green = [c for c in json.loads(out)["checks"] if c["name"].startswith("green")]
        assert len(green) == 2
        assert all(c["passed"] for c in green)

    def test_green_negative_control(self, capsys, monkeypatch):
        # a relative defect of 1e-9 t in G, 5e-9 at the horizon, fails both
        # green checks
        green_pair = invosc.open_system.green_pair

        def perturbed(params, bath, t):
            g, gd = green_pair(params, bath, t)
            return g * (1.0 + 1e-9 * np.asarray(t)), gd

        monkeypatch.setattr(invosc.open_system, "green_pair", perturbed)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 4
        green = [c for c in json.loads(out)["checks"] if c["name"].startswith("green")]
        assert len(green) == 2
        assert not any(c["passed"] for c in green)

    def test_fft_budget(self, capsys, monkeypatch):
        # runs of 3, 6, 12 and 24 steps to t = 1.5, 45 steps of two FFT pairs
        # each, on a derived grid of at most 1024 points
        calls = {"fft": [], "ifft": []}

        def counted(name, transform):
            def call(a, *args, **kwargs):
                calls[name].append(len(a))
                return transform(a, *args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        code, _, _ = run_cli(["verify"], capsys)
        assert code == 0
        for lengths in calls.values():
            assert 0 < len(lengths) <= 90
            assert max(lengths) <= 1024

    def test_noise_oracle_budget(self, capsys, monkeypatch):
        # the frequency quadrature's three rules take each doubling or halving
        # of their step in one integrand call: 17 calls and 1,096 nodes at
        # the defaults
        calls, nodes = [], []

        def counted(rule):
            def call(f, *args, **kwargs):
                def integrand(w, *columns):
                    calls.append(None)
                    nodes.append(w.size)
                    return f(w, *columns)
                return rule(integrand, *args, **kwargs)
            return call

        for name in ("integrate_tanh_sinh", "integrate_exp_sinh", "integrate_fourier"):
            monkeypatch.setattr(invosc.open_system, name,
                                counted(getattr(invosc.open_system, name)))
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert 0 < len(calls) <= 20
        assert sum(nodes) <= 1500
        assert json.loads(out)["checks"][-1]["deviation"] <= 1e-13

    @pytest.mark.parametrize("omega,hbar", [(0.371408, 1.6237), (1.27912, 1.08681),
                                            (1.08681, 1.27912), (0.9375, 1.25)])
    def test_noise_oracle_meets_its_tolerance(self, capsys, omega, hbar):
        # a Gauss-Kronrod panel over ~170 periods of the integrand's tail
        # aliased and passed its own error test here, 7x off its tolerance,
        # and the noise check failed on a correct closed form
        code, out, _ = run_cli(["verify", "--set", f"system.omega={omega}",
                                "--set", f"system.hbar={hbar}"], capsys)
        assert code == 0
        noise = json.loads(out)["checks"][-1]
        assert noise["name"] == "noise_closed_form_vs_quadrature"
        assert noise["deviation"] <= 1e-13

    def test_no_check_fails_over_omega_and_hbar(self, capsys):
        for omega in np.linspace(0.3, 2.0, 5).tolist():
            for hbar in np.linspace(0.5, 2.0, 5).tolist():
                code, out, _ = run_cli(["verify", "--set", f"system.omega={omega!r}",
                                        "--set", f"system.hbar={hbar!r}"], capsys)
                failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
                assert (code, failed) == (0, []), (omega, hbar)

    @pytest.mark.parametrize("omega", [1e-6, 1e-9, 1e-20])
    def test_checks_at_a_slow_oscillator(self, capsys, omega):
        # the noise check runs at t = 2/omega, and the green check's baths
        # scale with omega
        code, out, err = run_cli(["verify", "--set", f"system.omega={omega!r}"], capsys)
        assert code == 0, err
        checks = json.loads(out)["checks"]
        assert len(checks) == 8
        assert all(c["passed"] for c in checks)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
    def test_slow_oscillator_runs_in_little_memory(self, tmp_path):
        # the green check's RK4 oracle keeps every state, so its 10^4 steps
        # must not grow as omega falls (at omega = 6e-4 an absolute step of
        # 5e-4 took 1.7e7 steps and 689 MB).  A fresh interpreter reports the peak
        # resident size of its own address space, VmHWM in kB: its ru_maxrss
        # would also count the test runner's pages, mapped until its exec
        probe = ("import sys; from invosc.cli import main; code = main(sys.argv[1:]); "
                 "print(code, *[line.split()[1] for line in open('/proc/self/status') "
                 "if line.startswith('VmHWM:')])")
        proc = subprocess.run([sys.executable, "-c", probe, "verify", "--set",
                               "system.omega=6e-4", "--out", str(tmp_path / "report.json")],
                              capture_output=True, text=True, timeout=120)
        code, peak_kb = map(int, proc.stdout.split())
        assert (code, proc.stderr) == (0, "")
        assert peak_kb < 100 * 1024

    @pytest.mark.parametrize("module,name,check", [
        ("open_system", "spectral_noise_term", "noise_closed_form_vs_quadrature"),
        ("barrier_transmission", "averaged_transmission",
         "tunnel_asymptotic_eps10_beta0.3")])
    def test_a_numerical_failure_names_its_check(self, capsys, monkeypatch, module,
                                                 name, check):
        def failing(*args, **kwargs):
            raise invosc.QuadratureError("the rule did not converge")

        monkeypatch.setattr(getattr(invosc, module), name, failing)
        code, out, err = run_cli(["verify", "--set", "system.omega=0.75"], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: verify: {check} at omega = 0.75: the rule did not converge\n"

    def test_noise_negative_control(self, capsys, monkeypatch):
        # a relative defect of 1e-7 in the noise term, ten times the default
        # tolerance, fails the noise check alone
        variance_noise_term = invosc.open_system.variance_noise_term

        def perturbed(*args, **kwargs):
            return variance_noise_term(*args, **kwargs) * (1.0 + 1e-7)

        monkeypatch.setattr(invosc.open_system, "variance_noise_term", perturbed)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 4
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["noise_closed_form_vs_quadrature"]
        assert failed[0]["deviation"] == pytest.approx(1e-7, rel=0.02)

    def test_window_negative_control(self, capsys, monkeypatch):
        # the noise check's frequency quadrature is built on _window: a
        # relative defect of 1e-8 in its first term moves the oracle by
        # 2.1e-8 and fails the noise check alone
        window = invosc.open_system._window

        def perturbed(*args):
            a, y_v = window(*args)
            return a * (1.0 + 1e-8), y_v

        monkeypatch.setattr(invosc.open_system, "_window", perturbed)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 4
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["noise_closed_form_vs_quadrature"]
        assert failed[0]["deviation"] == pytest.approx(2.1e-8, rel=0.05)

    def test_derived_grid_past_the_cap_allocates_nothing(self, capsys, monkeypatch):
        # the packet's momentum spread hbar/2 sigma = 3e153 asks for about
        # 2^1028 points: exit 3 names the cause before any grid
        def grid_from_packet(*args):
            raise AssertionError("a grid was allocated")

        monkeypatch.setattr(invosc.numerics, "grid_from_packet", grid_from_packet)
        code, out, err = run_cli(["verify", "--set", "packet.sigma=1.5e-154"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: verify: grid at omega = 1: the grid needs about 2^")
        assert "above the cap 2^16" in err
        assert "set mostly by packet.sigma in x and packet.sigma in k" in err
        assert "Warning" not in err

    def test_center_past_the_float_range_names_the_center(self, capsys):
        # at x0 = 1e300 the box is 2.7e300 wide and |k| reaches 2.1e300
        code, out, err = run_cli(["verify", "--set", "packet.x0=1e300"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: verify: grid at omega = 1: the grid needs about 2^")
        assert "set mostly by packet.x0, packet.p0 in x and packet.x0, packet.p0 in k" in err

    def test_green_time_budget(self, capsys, monkeypatch):
        # the green check takes about 100 of the 10,001 RK4 times per case
        times = []
        green_pair = invosc.open_system.green_pair

        def counted(params, bath, t):
            times.append(np.size(t))
            return green_pair(params, bath, t)

        monkeypatch.setattr(invosc.open_system, "green_pair", counted)
        code, _, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert 0 < sum(times) <= 1000

    def test_kick_exp_budget(self, capsys, monkeypatch):
        # a kick under a force takes no complex exponential over the grid
        # beyond the cached barrier phases, as at zero force: 12 drifts and
        # barrier phases over the step lengths of m = 1, 2, 4 and 8, shared by
        # the grid calls of one verify, one closed-form stack at the three
        # times and 4 arrays of the other checks
        exp, grid_from_packet = np.exp, invosc.numerics.grid_from_packet

        def count(args):
            calls, sizes = [], []

            def counted(*a, **kw):
                out = exp(*a, **kw)
                if np.iscomplexobj(out) and sizes and np.size(out) >= sizes[0]:
                    calls.append(None)
                return out

            def sized(*a):
                grid = grid_from_packet(*a)
                sizes.append(grid.n)
                return grid

            with monkeypatch.context() as patch:
                patch.setattr(np, "exp", counted)
                patch.setattr(invosc.numerics, "grid_from_packet", sized)
                code, _, _ = run_cli(["verify", *args], capsys)
            assert code == 0
            return len(calls)

        harmonic = count(["--set", "force.kind=harmonic", "--set", "force.amplitude=0.5"])
        assert harmonic == count([]) <= 17

    def test_tabulated_force_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--set", "force.kind=tabulated",
                                "--set", "force.times=[0.2, 0.7, 1.2]",
                                "--set", "force.values=[0.3, -0.4, 0.5]"], capsys)
        assert code == 0
        grid = [c for c in json.loads(out)["checks"] if c["name"].startswith("grid")]
        assert len(grid) == 3
        assert max(c["deviation"] for c in grid) < 5e-9

    def test_subprocess_entry_point(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "invosc.cli", "verify",
             "--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(out.read_text())["all_pass"] is True

    @pytest.mark.parametrize("args", _COMMANDS, ids=_command_id)
    def test_entry_point_matches_in_process_run(self, tmp_path, args):
        runs = {}
        for how in ("module", "main"):
            (tmp_path / how).mkdir()
            argv = [a.format(dir=tmp_path / how) for a in args]
            argv += ["--out", str(tmp_path / how / "out")]
            if how == "main":
                assert main(argv) == 0
            else:
                proc = subprocess.run([sys.executable, "-m", "invosc.cli", *argv],
                                      capture_output=True, text=True)
                assert (proc.returncode, proc.stderr) == (0, "")
            runs[how] = {p.name: p.read_bytes() for p in (tmp_path / how).iterdir()}
        assert runs["module"] == runs["main"]

    @pytest.mark.parametrize("args,expected", _EXTREME_CONFIGS)
    def test_entry_point_prints_no_warning(self, args, expected):
        proc = subprocess.run([sys.executable, "-m", "invosc.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == expected
        assert "Warning" not in proc.stderr
