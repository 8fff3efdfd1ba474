"""What importing invosc and running one command loads.

The package resolves its exports on first use and the CLI imports each
command's submodules inside the command, so a fresh interpreter shows
which modules a command depends on: ``evolve`` and ``kick`` never load
``numerics``, where the grid, RK4 and quadrature oracles live.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import invosc

SRC = Path(__file__).resolve().parents[1] / "src"

# run in a fresh interpreter: prints the invosc submodules loaded after ``code``
PROBE = """
import sys
sys.path.insert(0, {src!r})
{code}
print(" ".join(sorted(m[len("invosc."):] for m in sys.modules if m.startswith("invosc."))))
"""


def _loaded(code: str) -> set[str]:
    out = subprocess.run([sys.executable, "-c", PROBE.format(src=str(SRC), code=code)],
                         check=True, capture_output=True, text=True, timeout=120).stdout
    return set(out.split())


def test_package_import_loads_no_submodule():
    assert _loaded("import invosc") == set()


def test_cli_import_loads_only_core():
    assert _loaded("import invosc.cli") == {"cli", "core"}


CLOSED = {"cli", "core", "classical_dynamics", "closed_evolution"}
TUNNEL = {"cli", "core", "numerics", "barrier_transmission"}
OPEN = {"cli", "core", "numerics", "open_system"}
MODULES = {"evolve": CLOSED, "kick": CLOSED, "tunnel": TUNNEL, "open-poles": OPEN,
           "open-evolve": OPEN, "verify": CLOSED | TUNNEL | OPEN}


@pytest.mark.parametrize("args", [
    ["evolve"], ["evolve", "--wavefunction", "{dir}/psi"], ["kick"], ["tunnel"],
    ["tunnel", "--barrier"], ["open-poles"], ["open-poles", "--boundary", "0.5", "20", "40"],
    ["open-evolve"], ["verify"]],
    ids=lambda args: "-".join(a.lstrip("-") for a in args if "{" not in a))
def test_command_loads_only_its_modules(tmp_path, args):
    argv = [a.format(dir=tmp_path) for a in args] + ["--out", str(tmp_path / "out")]
    assert _loaded(f"from invosc.cli import main\nassert main({argv!r}) == 0") == \
        MODULES[args[0]]


class TestLazyExports:
    def test_every_export_is_its_module_attribute(self):
        assert len(set(invosc.__all__)) == len(invosc.__all__)
        for module, names in invosc._EXPORTS.items():
            loaded = getattr(invosc, module)
            assert loaded is sys.modules[f"invosc.{module}"]
            for name in names:
                assert getattr(invosc, name) is getattr(loaded, name)

    def test_dir_lists_the_exports(self):
        assert set(invosc.__all__) <= set(dir(invosc))
        assert "__version__" in dir(invosc)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            invosc.no_such_name  # noqa: B018
        assert not hasattr(invosc, "_private")
        with pytest.raises(ImportError):
            exec("from invosc import no_such_name", {})

    def test_star_import(self):
        namespace = {}
        exec("from invosc import *", namespace)
        assert set(invosc.__all__) <= set(namespace)
        assert namespace["expm"] is invosc.numerics.expm
        assert namespace["SystemParams"] is invosc.core.SystemParams

    def test_an_export_follows_its_module_binding(self, monkeypatch):
        def stub():
            pass

        monkeypatch.setattr(invosc.numerics, "expm", stub)
        assert invosc.expm is stub
