"""Per-layer tracing of invosc from outside the program.

Inside ``with Tracer() as tr:`` each layer function listed in ``LAYERS``
is replaced by a timing wrapper in every invosc module namespace that
binds it (``force_at`` is bound in five modules, ``integrate_adaptive``
in six), so calls made through any of those names are counted.  Leaving
the block puts the originals back.

For each function the tracer records calls, total time and self time.
Total time counts only the outermost activation of a recursive function.
Self time is total time minus the time covered by traced child calls.
``integrate_adaptive`` also sums ``QuadratureResult.evaluations``; the
grid and RK4 oracles count the steps their arguments imply.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time

# module -> traced functions.  The stats each one reports are in REPORTED.
LAYERS = {
    "cli": ("main",),
    "core": ("force_at",),
    "classical_dynamics": ("trajectory", "lagrangian_action"),
    "closed_evolution": ("evolve_gaussian", "evaluate", "delta_kick_at"),
    "numerics": ("integrate_adaptive", "schrodinger_grid_evolve",
                 "langevin_ode_oracle", "bessel_k_quarter", "solve_cubic"),
    "barrier_transmission": ("averaged_transmission", "asymptotic_prefactor"),
    "open_system": ("variance_noise_term", "windowed_transform", "noise_spectrum",
                    "mean_trajectory", "solve_poles", "discriminant_boundary"),
}
DEFAULT_STATS = ("calls", "total_s")
REPORTED = {
    "cli.main": ("calls", "self_s"),
    "core.force_at": ("calls",),
    "numerics.integrate_adaptive": ("calls", "evals", "self_s"),
}
# Derived per-step costs: (metric, traced function); the step counts are
# computed from the arguments of each call, not measured inside the solver.
STEP_COSTS = (("numerics.grid_step_us", "numerics.schrodinger_grid_evolve"),
              ("numerics.rk4_step_us", "numerics.langevin_ode_oracle"))
COUNT_STATS = ("calls", "evals", "steps")


def qualified_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in qualified_names():
        for stat in REPORTED.get(name, DEFAULT_STATS):
            units[f"{name}.{stat}"] = "count" if stat in COUNT_STATS else "s"
    for metric, _ in STEP_COSTS:
        units[metric] = "us"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _grid_steps(bound) -> int:
    """Steps of numerics._evolve_grid: full dt steps plus a short last one."""
    dt = bound.arguments["dt"]
    remaining = bound.arguments["t_final"] - bound.arguments["grid"].t
    n_full = int(math.floor(remaining / dt + 1e-12))
    return n_full + (remaining - n_full * dt > 1e-12 * dt)


def _rk4_steps(bound) -> int:
    return int(round(bound.arguments["t_final"] / bound.arguments["dt"]))


STEP_COUNTERS = {"numerics.schrodinger_grid_evolve": _grid_steps,
                 "numerics.langevin_ode_oracle": _rk4_steps}


class FunctionStats:
    __slots__ = ("calls", "total_s", "self_s", "evals", "steps", "depth")

    def __init__(self):
        self.calls = self.evals = self.steps = self.depth = 0
        self.total_s = self.self_s = 0.0


def _invosc_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "invosc" or name.startswith("invosc.")]


class Tracer:
    """Context manager that traces the invosc layer functions."""

    def __init__(self):
        self.stats = {name: FunctionStats() for name in qualified_names()}
        self._stack: list[list[float]] = []   # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn)
        count_steps = STEP_COUNTERS.get(name)
        count_evals = name == "numerics.integrate_adaptive"

        def traced(*args, **kwargs):
            stat.calls += 1
            if count_steps is not None:
                stat.steps += count_steps(signature.bind(*args, **kwargs))
            children = [0.0]
            stack.append(children)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                best = getattr(exc, "best", None)
                if count_evals and best is not None:
                    stat.evals += best.evaluations
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += elapsed
                stat.self_s += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if count_evals:
                stat.evals += result.evaluations
            return result

        traced.perfbench_traced = True
        return traced

    def __enter__(self):
        wrappers = {}
        for module_name, fns in LAYERS.items():
            module = importlib.import_module(f"invosc.{module_name}")
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrappers[id(original)] = (original, self._wrap(
                    f"{module_name}.{fn_name}", original))
        for module in _invosc_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc_info):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def counts(self) -> dict[str, int]:
        """The count metrics of this trace (calls, evals)."""
        return {f"{name}.{stat}": getattr(self.stats[name], stat)
                for name in qualified_names()
                for stat in REPORTED.get(name, DEFAULT_STATS) if stat in COUNT_STATS}

    def times(self) -> dict[str, float]:
        """The time metrics of this trace, including the derived step costs."""
        out = {f"{name}.{stat}": getattr(self.stats[name], stat)
               for name in qualified_names()
               for stat in REPORTED.get(name, DEFAULT_STATS) if stat not in COUNT_STATS}
        for metric, name in STEP_COSTS:
            stat = self.stats[name]
            out[metric] = 1e6 * stat.total_s / stat.steps if stat.steps else 0.0
        return out


def traced_bindings() -> list[tuple[str, str]]:
    """(module, attribute) pairs that currently hold a tracing wrapper."""
    return [(module.__name__, attr) for module in _invosc_modules()
            for attr, value in vars(module).items()
            if getattr(value, "perfbench_traced", False)]
