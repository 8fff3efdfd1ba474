"""The benchmark tracer (perfbench/tracer.py) finds each layer function it
times with getattr on its invosc module; every one of them must still be
bound there, or a traced run fails.  Its step counters read the arguments
of the oracles they count, so those must still be named as they expect."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from invosc import BathParams, GaussianPacket, SystemParams, ZeroForce, numerics

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    if not TRACER.exists():
        pytest.skip("perfbench/tracer.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_is_bound_in_its_module():
    layers = _tracer().LAYERS
    assert layers
    missing = [f"invosc.{module}.{name}" for module, names in layers.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"invosc.{module}"),
                                       name, None))]
    assert not missing


def _grid_call(monkeypatch):
    """A 64-point grid over four steps of 0.0875; each step takes two FFTs."""
    params = SystemParams(1.0)
    grid = numerics.grid_from_packet(GaussianPacket(0.0, 0.0, 1.0), params,
                                     -10.0, 10.0, 64)
    ffts, fft = [], np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda a: ffts.append(a) or fft(a))
    args = (params, grid, ZeroForce(), 0.35, 0.1)
    numerics.schrodinger_grid_evolve(*args)
    return args, len(ffts) // 2


def _rk4_call(monkeypatch):
    """Ten RK4 steps; the oracle returns their times and t = 0."""
    args = (SystemParams(1.0), BathParams(gamma=0.5, omega_d=10.0), 0.01, 1e-3)
    ts, _ = numerics.langevin_ode_oracle(*args)
    return args, len(ts) - 1


_STEP_CALLS = {"numerics.schrodinger_grid_evolve": _grid_call,
               "numerics.langevin_ode_oracle": _rk4_call}


def test_step_counters_count_the_steps_taken(monkeypatch):
    counters = _tracer().STEP_COUNTERS
    assert counters
    for name, count_steps in counters.items():
        module, function = name.split(".")
        args, taken = _STEP_CALLS[name](monkeypatch)
        fn = getattr(importlib.import_module(f"invosc.{module}"), function)
        assert taken > 1
        assert count_steps(inspect.signature(fn).bind(*args)) == taken
