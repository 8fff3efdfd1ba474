"""Benchmark for invosc: drives the public CLI in process over seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed-drive --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

One process, one thread, closed loop: each op is one ``invosc.cli.main``
call with ``--out`` into ``.perfbench_out/`` and starts after the previous
op ended.  After a warm-up op the run repeats passes over the workload's
op list for ``--seconds`` and reports medians over passes.  Times are
reported in nominal seconds (see nominal.py); raw seconds are in the info
line.  Every op's exit code and output are checked (see checks.py), and an
op whose output bytes differ between passes fails.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
tracer.py.  ``--workload all`` runs every workload in its own process and
prints a table.  The last line of standard output is the JSON result;
the line before it records the seed, the ops and the environment.
"""

import os

# Pin the environment before numpy is first imported: the default
# single-thread CLI path, and one BLAS/OpenMP thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.pop("INVOSC_THREADS", None)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from nominal import nominal, reference_seconds  # noqa: E402

SRC = Path("src")
OUT_DIR = Path(".perfbench_out")
BENCHMARK_WORKLOADS = ("closed-drive", "open-noise", "oracle-verify", "tunnel-sweep")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_ops": "share"}
SETUP_SAMPLES = 7      # fresh processes per run; the median is reported
MIN_PASSES = 3         # passes per run (per kind in a traced run), at least
# Set-up as a CLI user pays it: a fresh interpreter importing invosc.cli.
# The child brackets the import with reference loops (see nominal.py).
SETUP_PROGRAM = (
    "import sys, time; sys.path[:0] = [{bench!r}, 'src']; "
    "from nominal import reference_seconds; before = reference_seconds(); "
    "start = time.perf_counter(); import invosc.cli; "
    "elapsed = time.perf_counter() - start; "
    "print(elapsed, before, reference_seconds())"
).format(bench=str(Path(__file__).resolve().parent))


class Timer:
    """Times calls in raw and nominal seconds; the reference loop run after
    one call also serves as the one before the next."""

    def __init__(self):
        self.refs = [reference_seconds()]

    def measure(self, fn):
        """Calls fn(); returns its (result, raw wall, nominal wall, nominal cpu)."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = fn()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.refs.append(reference_seconds())
        refs = self.refs[-2:]
        return result, wall, nominal(wall, *refs), nominal(cpu, *refs)


class Runner:
    """Runs ops through ``cli.main`` and keeps the per-op record of a run."""

    def __init__(self, cli, ops, timer):
        self.cli = cli
        self.ops = ops
        self.timer = timer
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, list[str]] = {}
        self.digests: dict[str, str] = {}
        self.op_walls: dict[str, list[float]] = {op.name: [] for op in ops}

    def _invoke(self, argv):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                return self.cli.main(argv), stderr
        except SystemExit as exc:   # argparse rejects the arguments
            return exc.code, stderr
        except Exception as exc:    # an op that crashes is a failed op
            return f"uncaught {exc!r}", stderr

    def run_op(self, op) -> tuple[float, float, float]:
        """One timed invocation; returns its raw wall, nominal wall and
        nominal cpu seconds."""
        out = OUT_DIR / f"{op.name}.out"
        out.unlink(missing_ok=True)
        argv = op.argv() + ["--out", str(out)]
        (code, stderr), raw_wall, wall, cpu = self.timer.measure(
            lambda: self._invoke(argv))
        data = out.read_bytes() if out.exists() else None
        problems = checks.check(op, code, data)
        if data is not None:
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(op.name, digest) != digest:
                problems.append("output bytes differ from the first pass")
        if stderr.getvalue():
            problems = [f"{p} (stderr: {stderr.getvalue().strip()})" for p in problems]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.setdefault(op.name, problems[:3])
        self.op_walls[op.name].append(raw_wall)
        return raw_wall, wall, cpu

    def run_pass(self) -> tuple[float, float, float]:
        """One pass over the op list; returns the sums of run_op's times."""
        return tuple(map(sum, zip(*(self.run_op(op) for op in self.ops))))


def setup_seconds() -> list[dict]:
    """Fresh processes that import the CLI: process wall time, raw and
    nominal import time."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):   # the first one may compile bytecode
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_PROGRAM], check=True,
                             capture_output=True, text=True, timeout=60).stdout
        process = time.perf_counter() - start
        elapsed, before, after = map(float, out.split())
        samples.append({"process_s": process, "import_s": elapsed,
                        "nominal_s": nominal(elapsed, before, after)})
    return samples[1:]


def import_cli():
    if str(SRC.resolve()) not in sys.path:
        sys.path.insert(0, str(SRC.resolve()))
    from invosc import cli
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"invosc was imported from {cli.__file__}, not {SRC}")
    return cli


def environment() -> dict:
    import numpy
    sources = sorted((SRC / "invosc").glob("*.py"))
    tree = hashlib.sha256()
    for path in sources:
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": git_commit(), "source_sha256": tree.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "thread_env": {v: os.environ.get(v) for v in ("INVOSC_THREADS", *THREAD_VARS)}}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git work tree."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.make_ops(workload, seed)
    setup = [] if trace else setup_seconds()
    timer = Timer()
    cli = import_cli()
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(cli, ops, timer)
    runner.run_op(ops[0])   # warm-up: lazy imports and first-call costs
    raw_walls, walls, cpus, traced_walls, traces = [], [], [], [], []
    start = time.perf_counter()
    while True:
        raw, w, c = runner.run_pass()
        raw_walls.append(raw)
        walls.append(w)
        cpus.append(c)
        if trace:
            with tracer.Tracer() as tr:
                _, w, _ = runner.run_pass()
            traced_walls.append(w)
            traces.append(tr)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(walls)
        if len(walls) >= MIN_PASSES and elapsed + per_round > seconds:
            break
    shutil.rmtree(OUT_DIR, ignore_errors=True)

    if trace:
        units = tracer.metric_units()
        times = [tr.times() for tr in traces]
        metrics = {**traces[0].counts(),   # counts from the first traced pass
                   **{name: statistics.median(t[name] for t in times)
                      for name in times[0]},
                   "trace.overhead_ratio": (statistics.median(traced_walls)
                                            / statistics.median(walls))}
        metrics = {name: metrics[name] for name in units}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(s["nominal_s"] for s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            * 1024 / 1e6,
            "ok_ops": (runner.attempted - runner.failed) / runner.attempted,
        }
        units = END_TO_END_UNITS
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(walls), "nominal_wall_s_passes": walls,
        "nominal_cpu_s_passes": cpus, "nominal_traced_wall_s_passes": traced_walls,
        "raw_wall_s_passes": raw_walls,
        "setup_s_samples": setup,
        "ref_loop_s_quartiles": statistics.quantiles(timer.refs, n=4),
        "failed_ops": runner.failed, "attempted_ops": runner.attempted,
        "ops": [{"name": op.name, "argv": op.argv(),
                 "wall_s": runner.op_walls[op.name],
                 "sha256": runner.digests.get(op.name),
                 "problems": runner.problems.get(op.name, [])} for op in ops],
        "environment": environment(),
    }
    return {"info": info, "result": {
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}}


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process; prints one line per workload."""
    names = list(BENCHMARK_WORKLOADS) + ["closed-long"]
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        info = json.loads(proc.stdout.splitlines()[-2])
        line = "  ".join(f"{k}={m['value']:.4g} {m['unit']}"
                         for k, m in results[name]["metrics"].items())
        raw = statistics.median(info["raw_wall_s_passes"])
        print(f"{name:14s} {line}  raw_wall_s={raw:.4g} s  failed_ops="
              f"{results[name]['failed']}/{results[name]['attempted']} ops")
        for op in info["ops"]:
            if op["problems"]:
                print(f"{'':14s} {op['name']} failed: {op['problems'][0]}")
    print(json.dumps({"seed": seed, "seconds": seconds, "environment": info["environment"],
                      "results": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "invosc" / "__init__.py").is_file():
        sys.stderr.write(f"no invosc sources under {SRC.resolve()}; run from the "
                         "root of an invosc checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
