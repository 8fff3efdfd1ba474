"""Tests of the benchmark itself: tracing, checks and the declared metrics.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import SYSTEM, Op  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _originals():
    return {id(getattr(importlib.import_module(f"invosc.{m}"), f)): f"{m}.{f}"
            for m, fns in tracer.LAYERS.items() for f in fns}


def _bindings(originals):
    """(module, attribute) -> traced name, for every binding of a layer function."""
    return {(name, attr): originals[id(value)]
            for name, module in list(sys.modules.items())
            if name == "invosc" or name.startswith("invosc.")
            for attr, value in vars(module).items() if id(value) in originals}


def test_wrappers_cover_every_binding_and_are_removed():
    originals = _originals()
    before = _bindings(originals)
    # the namespaces that import the hot helpers by name
    for module in ("core", "classical_dynamics", "closed_evolution", "numerics",
                   "open_system"):
        assert (f"invosc.{module}", "force_at") in before
    for module in ("classical_dynamics", "closed_evolution", "barrier_transmission",
                   "open_system", "cli"):
        assert (f"invosc.{module}", "integrate_adaptive") in before

    with tracer.Tracer():
        assert _bindings(originals) == {}
        assert set(tracer.traced_bindings()) == set(before)
    assert tracer.traced_bindings() == []
    assert _bindings(originals) == before

    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert tracer.traced_bindings() == []


def test_self_time_excludes_traced_children():
    from invosc import numerics
    with tracer.Tracer() as tr:
        numerics.bessel_k_quarter(2.0)
    outer = tr.stats["numerics.bessel_k_quarter"]
    inner = tr.stats["numerics.integrate_adaptive"]
    assert outer.calls == inner.calls == 1 and inner.evals > 0
    assert math.isclose(outer.self_s + inner.total_s, outer.total_s, rel_tol=1e-9)


CHEAP_OPS = [
    Op("evolve-constant", "evolve", {
        "system": SYSTEM, "packet": {"x0": -3.0, "p0": 1.0, "sigma": 1.0},
        "evolve": {"t_max": 1.5, "samples": 3},
        "force": {"kind": "constant", "amplitude": 0.3}}),
    Op("open-occupation", "open-evolve", {
        "system": SYSTEM, "packet": {"x0": -3.0, "p0": 1.0, "sigma": 1.0},
        "open": {"t_max": 3.0, "samples": 5},
        "bath": {"gamma": 0.5, "omega_d": 10.0, "kT": 1.0, "noise": "occupation"},
        "force": {"kind": "zero"}}),
    Op("tunnel-eps10", "tunnel", {"tunnel": {
        "epsilon": 10.0, "beta_min": 0.05, "beta_max": 0.95, "points": 7}}),
    Op("open-poles-boundary", "open-poles", {}, ("--boundary", "0.5", "20.0", "9")),
]


@pytest.fixture
def cheap_workload(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "cheap", lambda rng: CHEAP_OPS)
    monkeypatch.setattr(run, "MIN_PASSES", 2)


def test_untraced_passes_run_without_wrappers(cheap_workload, monkeypatch):
    seen = []
    run_pass = run.Runner.run_pass

    def recording(self):
        seen.append(bool(tracer.traced_bindings()))
        return run_pass(self)

    monkeypatch.setattr(run.Runner, "run_pass", recording)
    run.measure("cheap", seed=1, seconds=0.0, trace=True)
    assert seen == [False, True, False, True]


def test_traced_counts_repeat_exactly(cheap_workload):
    first = run.measure("cheap", seed=1, seconds=0.0, trace=True)["result"]
    second = run.measure("cheap", seed=1, seconds=0.0, trace=True)["result"]
    assert first["correct"] and second["correct"]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["numerics.integrate_adaptive.evals"] > 0
    assert list(first["metrics"]) == list(tracer.metric_units())


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert tuple(w["name"] for w in spec["workloads"]) == run.BENCHMARK_WORKLOADS
    assert set(run.BENCHMARK_WORKLOADS) <= set(workloads.WORKLOADS)


def test_same_seed_same_ops():
    for name in workloads.WORKLOADS:
        assert workloads.make_ops(name, 7) == workloads.make_ops(name, 7)
        assert workloads.make_ops(name, 7) != workloads.make_ops(name, 8)


def _output(op, tmp_path):
    from invosc import cli
    out = tmp_path / f"{op.name}.out"
    assert cli.main(op.argv() + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("op", CHEAP_OPS, ids=lambda op: op.name)
def test_checks_pass_real_output_and_catch_a_changed_cell(op, tmp_path):
    data = _output(op, tmp_path)
    assert checks.check(op, 0, data) == []
    assert checks.check(op, 3, data) == ["exit code 3"]
    lines = data.decode().split("\n")
    cells = lines[3].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-6))   # last column of row 1
    lines[3] = ",".join(cells)
    assert checks.check(op, 0, "\n".join(lines).encode())
    lines[3] = lines[3].replace(cells[-1], "nan")
    assert checks.check(op, 0, "\n".join(lines).encode())


def test_verify_check_needs_all_pass():
    op = Op("verify", "verify", {})
    report = {"checks": [{"name": "x", "deviation": 0.1, "tolerance": 1.0,
                          "passed": True}], "all_pass": True}
    assert checks.check(op, 0, json.dumps(report).encode()) == []
    report["checks"][0].update(deviation=2.0, passed=False)
    report["all_pass"] = False
    assert len(checks.check(op, 0, json.dumps(report).encode())) == 2


def test_every_workload_op_passes_its_check(tmp_path):
    for name in run.BENCHMARK_WORKLOADS:
        for op in workloads.make_ops(name, 1):
            assert checks.check(op, 0, _output(op, tmp_path)) == [], op.name


def test_setup_samples_time_the_import_in_a_fresh_process(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    sample, = run.setup_seconds()
    assert 0 < sample["import_s"] < sample["process_s"]
    assert sample["nominal_s"] > 0
