import json
import math
import subprocess
import sys

import numpy as np
import pytest

import invosc
from invosc import cli
from invosc.cli import main


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


class TestConfig:
    def test_print_config_is_complete_json(self, capsys):
        code, out, _ = run_cli(["evolve", "--print-config"], capsys)
        assert code == 0
        cfg = json.loads(out)
        for section in ("system", "packet", "force", "bath", "grid", "evolve",
                        "tunnel", "open", "verify"):
            assert section in cfg
        assert cfg["system"]["omega"] == 1.0

    def test_set_override_applies(self, capsys):
        code, out, _ = run_cli(["evolve", "--print-config",
                                "--set", "system.omega=2.5"], capsys)
        assert code == 0
        assert json.loads(out)["system"]["omega"] == 2.5

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"tunnel": {"beta_maxx": 1.0}}))
        code, _, err = run_cli(["tunnel", "--config", str(cfg)], capsys)
        assert code == 2
        assert "tunnel.beta_maxx" in err

    def test_unknown_override_path_rejected(self, capsys):
        code, _, err = run_cli(["evolve", "--set", "nope.key=1"], capsys)
        assert code == 2
        assert "nope.key" in err

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
        (["open-evolve"], "open.samples"),
        (["verify"], "grid.n")])
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

    def test_kick_rejects_driving_force(self, capsys):
        code, _, err = run_cli(["kick", "--set", "force.kind=harmonic"],
                               capsys)
        assert code == 2
        assert "stationary" in err


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

    def test_zero_drive_row_consistency(self, capsys):
        code, out, _ = run_cli(["tunnel", "--set", "tunnel.beta_min=0.0",
                                "--set", "tunnel.beta_max=0.5",
                                "--set", "tunnel.points=2"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        first = rows[0]
        assert first[header.index("w_exact")] == \
            first[header.index("w_avg_quadrature")]

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

        monkeypatch.setattr(cli.osys, "solve_poles", fake_solve)
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

    def test_harmonic_mean_matches_offline_convolution(self, capsys):
        code, out, _ = run_cli([
            "open-evolve", "--set", "force.kind=harmonic",
            "--set", "force.amplitude=0.1", "--set", "force.omega0=0.2",
            "--set", "bath.kT=0.0", "--set", "open.samples=3",
            "--set", "open.t_max=2.0"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        params = invosc.SystemParams(1.0)
        dec = invosc.solve_poles(params, invosc.BathParams(0.5, 10.0, 0.0))
        for row in rows[1:]:
            t = float(row[header.index("t")])
            quad = invosc.integrate_adaptive(
                lambda t1: invosc.green_function(dec, t - t1)
                * 0.1 * np.sin(0.2 * t1),
                0.0, t, abs_tol=1e-13, rel_tol=1e-12).value
            assert float(row[header.index("mean_x")]) == pytest.approx(
                quad, abs=1e-8)

    def test_undamped_bath_rejected(self, capsys):
        code, _, err = run_cli(["open-evolve", "--set", "bath.gamma=0.0"],
                               capsys)
        assert code == 2
        assert "gamma" in err


class TestVerify:
    def test_default_config_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert {c["name"] for c in payload["checks"]} >= {
            "grid_closed_form_t0.5", "green_residue_vs_ode_case0",
            "tunnel_asymptotic_eps10_beta0.3", "windowed_transform_quadrature"}
        for check in payload["checks"]:
            assert set(check) == {"name", "deviation", "tolerance", "passed"}
            assert check["passed"] is True

    def test_coarse_grid_negative_control(self, capsys):
        code, out, _ = run_cli(["verify", "--set", "grid.dt=0.2"], capsys)
        assert code == 4
        payload = json.loads(out)
        assert payload["all_pass"] is False
        failed = [c for c in payload["checks"]
                  if not c["passed"] and c["name"].startswith("grid")]
        assert failed
        assert failed[0]["deviation"] > failed[0]["tolerance"]

    def test_subprocess_entry_point(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "invosc.cli", "verify",
             "--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(out.read_text())["all_pass"] is True
