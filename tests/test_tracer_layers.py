"""The benchmark tracer (perfbench/tracer.py) finds each layer function it
times with getattr on its invosc module; every one of them must still be
bound there, or a traced run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_layers():
    if not TRACER.exists():
        pytest.skip("perfbench/tracer.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_layer_is_bound_in_its_module():
    layers = _tracer_layers()
    assert layers
    missing = [f"invosc.{module}.{name}" for module, names in layers.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"invosc.{module}"),
                                       name, None))]
    assert not missing
