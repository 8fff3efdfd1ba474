"""No command except ``verify`` runs an oracle.

The independent oracles (the split-step grid solver and the sizing of its
grid, the RK4 memory-kernel integrator and the windowed transform by its
own closed form) share modules with the production code, so nothing but a
run shows that a command's
output does not come from them.  Each run here has every invosc binding of
those oracles replaced by a stub that fails, and must write the bytes of a
run without the stubs.

Every quadrature rule (``integrate_trapezoid``, under ``integrate_adaptive``
and the tanh-sinh, exp-sinh and Fourier rules of the frequency quadrature)
and the frequency integrand's ``_window`` are stubbed too for the bath noise
under every convention: the zero-point term is the open system's own
trapezoid rule over the rate, the classical term one covariance, and the
Bose part a Matsubara sum over rates or, on a dense lattice, its
Euler-Maclaurin series; ``spectral_noise_term``, the frequency quadrature,
is ``verify``'s oracle.

``evolve`` and ``kick`` run with both quadratures (``integrate_adaptive``
and ``integrate_trapezoid``) stubbed under every force kind: the packet's
variance and norm are closed forms of its width and prefactor.
"""

import sys

import pytest

from invosc import numerics
from invosc import open_system as osys
from invosc.cli import main

ORACLES = {name: getattr(module, name) for module, name in (
    (numerics, "size_grid"), (numerics, "grid_from_packet"),
    (numerics, "schrodinger_grid_evolve"),
    (numerics, "langevin_ode_oracle"), (osys, "windowed_transform"))}


QUADRATURES = {name: getattr(module, name) for module, name in (
    (numerics, "integrate_trapezoid"), (numerics, "integrate_adaptive"),
    (numerics, "integrate_tanh_sinh"), (numerics, "integrate_exp_sinh"),
    (numerics, "integrate_fourier"), (osys, "_window"))}


CLOSED_QUADRATURES = {name: getattr(numerics, name) for name in (
    "integrate_adaptive", "integrate_trapezoid")}


def _stub_oracles(monkeypatch, oracles=ORACLES):
    """Replace each oracle in every invosc module namespace that binds it."""
    def stub(name):
        def oracle(*args, **kwargs):
            raise AssertionError(f"oracle {name} called")
        return oracle

    by_id = {id(fn): name for name, fn in oracles.items()}
    patched = set()
    for module in [m for key, m in list(sys.modules.items())
                   if key == "invosc" or key.startswith("invosc.")]:
        for attr, value in list(vars(module).items()):
            name = by_id.get(id(value))
            if name is not None and oracles[name] is value:
                monkeypatch.setattr(module, attr, stub(name))
                patched.add(name)
    assert patched == set(oracles)


def _run(args, directory):
    directory.mkdir()
    argv = [a.format(dir=directory) for a in args] + ["--out", str(directory / "out")]
    assert main(argv) == 0
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("args", [
    ["evolve"], ["evolve", "--wavefunction", "{dir}/psi"], ["kick"], ["tunnel"],
    ["tunnel", "--barrier"], ["open-poles"], ["open-poles", "--boundary", "0.5", "20", "40"],
    ["open-evolve", "--set", "bath.noise=occupation"],
    ["open-evolve", "--set", "bath.noise=symmetrized"],
    ["open-evolve", "--set", "bath.noise=classical"],
    ["open-evolve", "--set", "force.kind=tabulated", "--set", "force.times=[0, 1, 2.5]",
     "--set", "force.values=[0.2, -0.4, 0.3]"]],
    ids=lambda args: "-".join(a.lstrip("-") for a in args if "{" not in a))
def test_command_runs_no_oracle(tmp_path, monkeypatch, args):
    plain = _run(args, tmp_path / "plain")
    _stub_oracles(monkeypatch)
    assert _run(args, tmp_path / "stubbed") == plain


@pytest.mark.parametrize("args", [
    ["open-evolve", "--set", "bath.noise=symmetrized", "--set", "bath.kT=0"],
    ["open-evolve", "--set", "bath.noise=classical"],
    ["open-evolve", "--set", "bath.noise=occupation", "--set", "bath.kT=1e-3"],
    ["open-evolve", "--set", "bath.noise=occupation", "--set", "bath.kT=1"],
    ["open-evolve", "--set", "bath.noise=occupation", "--set", "bath.kT=1e8"],
    ["open-evolve", "--set", "bath.noise=symmetrized", "--set", "bath.kT=1"]],
    ids=["zero-point", "classical", "occupation-cold", "occupation", "occupation-hot",
         "symmetrized"])
def test_bath_noise_runs_no_quadrature(tmp_path, monkeypatch, args):
    plain = _run(args, tmp_path / "plain")
    _stub_oracles(monkeypatch, {**ORACLES, **QUADRATURES})
    assert _run(args, tmp_path / "stubbed") == plain


@pytest.mark.parametrize("args", [
    ["evolve"], ["evolve", "--wavefunction", "{dir}/psi"],
    ["evolve", "--set", "force.kind=constant", "--set", "force.amplitude=0.3"],
    ["evolve", "--set", "force.kind=harmonic", "--set", "force.amplitude=0.5"],
    ["evolve", "--set", "force.kind=tabulated", "--set", "force.times=[0, 0.5, 1.5]",
     "--set", "force.values=[0.0, 0.4, 0.0]"],
    ["kick"], ["kick", "--set", "kick.time=0.5"]],
    ids=["zero", "wavefunction", "constant", "harmonic", "tabulated", "kick",
         "delayed-kick"])
def test_closed_evolution_runs_no_quadrature(tmp_path, monkeypatch, args):
    plain = _run(args, tmp_path / "plain")
    _stub_oracles(monkeypatch, {**ORACLES, **CLOSED_QUADRATURES})
    assert _run(args, tmp_path / "stubbed") == plain


def test_verify_runs_the_stubbed_oracles(monkeypatch, tmp_path):
    # the stubs reach the calls that verify makes
    _stub_oracles(monkeypatch)
    with pytest.raises(AssertionError, match="oracle"):
        main(["verify", "--out", str(tmp_path / "out")])
