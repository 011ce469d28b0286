#!/usr/bin/env python3
"""Benchmark of the adareg command line: ``adareg run`` and ``adareg verify``.

One client in one process runs operations back to back (a closed loop)
through the package's public entry point ``adareg.cli.main`` and times them
from outside.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
splits the time of the same operations across the package's modules with
the wrappers in ``layers.py``.  README.md in this directory explains the
workloads and the metrics.

    python3 perfbench/run.py --workload full-d50 --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the settings and the sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

SEED_POOL = 64  # operation seeds whose reference outputs references.json holds
SETUP_REPEATS = 7
REL_TOL = 1e-6  # on final_regret and bound; round-off moves them ~1e-10, drift far more
TINY_HORIZON = 40
BLAS_THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    argv: tuple
    tiny_argv: tuple
    # (algo, problem, set, dim, horizon) of each preset the set-up measurement builds
    builds: tuple

    @property
    def is_run(self):
        return self.argv[0] == "run"


def _run_workload(command):
    argv = tuple(command.split())
    opts = dict(zip(argv[1::2], argv[2::2]))
    at = argv.index("--horizon") + 1
    tiny = argv[:at] + (str(TINY_HORIZON),) + argv[at + 1 :]
    build = (opts["--algo"], opts["--problem"], opts["--set"], int(opts["--dim"]), int(opts["--horizon"]))
    return Workload(argv, tiny, (build,))


# verify --suite bounds runs these seven presets on their matched problems
# (the table is private to adareg.suites, so it is restated here).
_VERIFY_BUILDS = tuple(
    (algo, problem, fset, 5, 400)
    for algo, problem, fset in (
        ("adagrad-full", "adv-linear", "ball"),
        ("adagrad-diag", "adv-linear", "box"),
        ("adaptive-ogd", "adv-linear", "ball"),
        ("pnorm", "adv-linear", "ball"),
        ("ons-full", "sq-loss", "ball"),
        ("ons-diag", "coord-sq", "box"),
        ("sc-ogd", "rot-quad", "ball"),
    )
)

WORKLOADS = {
    "full-d50": _run_workload(
        "run --algo adagrad-full --problem adv-linear --set ball --radius 1 --dim 50 --horizon 2000"
    ),
    "diag-d50": _run_workload(
        "run --algo adagrad-diag --problem adv-linear --set box --dim 50 --horizon 4000"
    ),
    "scalar-d5": _run_workload(
        "run --algo sc-ogd --problem rot-quad --set ball --dim 5 --horizon 10000"
    ),
    "verify": Workload(("verify", "--suite", "all"), ("verify", "--suite", "all", "--trials", "1"), _VERIFY_BUILDS),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.min": "s",
    "round_us.p50": "us",
    "round_us.p90": "us",
    "peak_mem_mb": "MB",
    "ok_ratio": "ratio",
}

# metric: (unit, how it is read, span or counter it comes from)
#   time:  inclusive time of the outermost spans of that name
#   self:  span time minus the time of the spans it called
#   calls: number of spans of that name
#   count: a counter kept by the wrappers
PER_LAYER = {
    "cli.self_s": ("s", "self", "cli.main"),
    "cli.trace_bytes": ("B", "count", "cli.trace_bytes"),
    "engine.run_s": ("s", "time", "engine.run"),
    "engine.self_s": ("s", "self", "engine.run"),
    "engine.rounds": ("count", "count", "engine.rounds"),
    "engine.deferred_rounds": ("count", "count", "engine.deferred_rounds"),
    "engine.history_bytes": ("B", "count", "engine.history_bytes"),
    "potentials.solve_s": ("s", "time", "potentials.solve"),
    "potentials.solve_calls": ("count", "calls", "potentials.solve"),
    "linalg.eig_calls": ("count", "calls", "linalg.eig"),
    "linalg.eig_s": ("s", "time", "linalg.eig"),
    "linalg.accum_s": ("s", "time", "linalg.accum"),
    "linalg.symmetric_matrix_count": ("count", "calls", "linalg.symmetric_matrix"),
    "linalg.symmetric_matrix_s": ("s", "time", "linalg.symmetric_matrix"),
    "sets.project_s": ("s", "time", "sets.project"),
    "sets.project_calls": ("count", "calls", "sets.project"),
    "sets.project_active": ("count", "count", "sets.project_active"),
    "sets.project_active_ratio": ("ratio", "ratio", "sets.project"),
    "problems.oracle_s": ("s", "time", "problems.oracle"),
    "problems.oracle_calls": ("count", "calls", "problems.oracle"),
    "problems.round_draws": ("count", "calls", "problems.round_draw"),
    "problems.comparator_s": ("s", "time", "problems.comparator"),
    "problems.regret_s": ("s", "time", "problems.regret"),
    "problems.setup_s": ("s", "time", "problems.setup"),
    "presets.build_s": ("s", "time", "presets.build"),
    "oracles.cert_s": ("s", "time", "oracles.cert"),
    "oracles.bound_series_s": ("s", "time", "oracles.bound_series"),
    "oracles.numeric_argmin_s": ("s", "time", "oracles.numeric_argmin"),
    "oracles.ftl_btl_s": ("s", "time", "oracles.ftl_btl"),
    "oracles.mirror_lemma_s": ("s", "time", "oracles.mirror_lemma"),
    "suites.lemmas_s": ("s", "time", "suites.lemmas"),
    "suites.argmin_s": ("s", "time", "suites.argmin"),
    "suites.bounds_s": ("s", "time", "suites.bounds"),
    "suites.matrix_s": ("s", "time", "suites.matrix"),
}
# Counts that repeat exactly for the same --seed; they come from the first
# traced operation, whose seed --seed fixes.
EXACT_COUNTS = (
    "linalg.eig_calls",
    "linalg.symmetric_matrix_count",
    "problems.round_draws",
    "problems.oracle_calls",
    "engine.history_bytes",
    "sets.project_active",
    "cli.trace_bytes",
)
# The span whose wrapper a counter needs; the rest need no wrapper.
_COUNTER_SPAN = {
    "engine.rounds": "engine.run",
    "engine.deferred_rounds": "engine.run",
    "engine.history_bytes": "engine.run",
    "sets.project_active": "sets.project",
}


def _per_layer_unit(name):
    return "s" if name == "trace.overhead_s" else PER_LAYER[name][0]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="base seed of the operation seeds")
    parser.add_argument("--seconds", type=float, required=True, help="how long to run operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke configuration: T=40, one timed operation"
    )
    return parser.parse_args(argv)


def pin_threads():
    """Fix the BLAS thread count before numpy loads; leave ADAREG_THREADS unset."""
    before = {name: os.environ.get(name) for name in THREAD_VARS + ("ADAREG_THREADS",)}
    for name in THREAD_VARS:
        os.environ[name] = BLAS_THREADS
    os.environ.pop("ADAREG_THREADS", None)
    return before


def load_package():
    """Import adareg from this checkout's src/, and refuse any other copy."""
    if not (SRC / "adareg" / "__init__.py").is_file():
        raise ImportError(f"no adareg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import adareg
    from adareg import cli, problems, sets, suites

    if Path(adareg.__file__).resolve().parent != SRC / "adareg":
        raise ImportError(f"imported adareg from {adareg.__file__}, not from {SRC}")
    return cli, problems, sets, suites


_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import adareg
print(time.perf_counter() - start)
print(adareg.__file__)
"""


def fresh_import_seconds():
    """Time ``import adareg`` in a new interpreter (numpy's import included)."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seconds, module_file = done.stdout.split("\n")[:2]
    if Path(module_file).resolve().parent != SRC / "adareg":
        raise ImportError(f"fresh interpreter imported adareg from {module_file}")
    return float(seconds)


def invoke(cli, argv):
    """Call ``cli.main(argv)`` with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects arguments this way
        code = exc.code
    except Exception:  # an operation that raises counts as failed; the caller goes on
        code = "exception"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def parse_summary(stdout):
    """The JSON summary ``adareg run`` prints after ``json: ``."""
    return json.loads(stdout.rsplit("json: ", 1)[1])


class Runner:
    """Runs operations through ``adareg.cli.main`` and checks each output."""

    def __init__(self, cli, workload, references, out_path):
        self.cli = cli
        self.workload = workload
        self.references = references
        self.out_path = out_path
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.trace_bytes = 0

    def operation(self, seed, tiny=False):
        """Run one operation; return its wall time and record whether its output was right."""
        argv = [*(self.workload.tiny_argv if tiny else self.workload.argv), "--seed", str(seed)]
        if self.workload.is_run:
            argv += ["--out", str(self.out_path)]
        start = time.perf_counter()
        code, stdout, stderr = invoke(self.cli, argv)
        elapsed = time.perf_counter() - start
        problem = self._check(seed, tiny, code, stdout, stderr)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.errors.append(f"seed {seed}{' (tiny)' if tiny else ''}: {problem}")
        return elapsed

    def _check(self, seed, tiny, code, stdout, stderr):
        if code != 0:
            return f"exit {code}: {stderr.strip()[-500:]}"
        if not self.workload.is_run:
            if stdout.rstrip().endswith("verify: all suites passed"):
                return None
            return "verify did not report 'verify: all suites passed'"
        try:
            summary = parse_summary(stdout)
        except (IndexError, ValueError):
            return "no JSON summary on stdout"
        if summary.get("certificate") != "satisfied":
            return f"certificate {summary.get('certificate')!r}"
        reference = self.references["tiny" if tiny else "full"].get(str(seed))
        if reference is None:
            return f"no reference output for seed {seed}"
        for key in ("final_regret", "bound"):
            if not math.isclose(summary.get(key, math.nan), reference[key], rel_tol=REL_TOL, abs_tol=1e-9):
                return f"{key} {summary.get(key)!r} differs from reference {reference[key]!r}"
        with open(self.out_path) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != reference["rows"]:
            return f"trace has {rows} rows, reference {reference['rows']}"
        self.trace_bytes = os.path.getsize(self.out_path)
        return None


def setup_seconds(workload, seed, problems, sets, suites):
    """Fresh-interpreter import plus building each set, validated problem and preset."""
    import numpy as np

    seconds = fresh_import_seconds()
    start = time.perf_counter()
    for algo, problem_id, set_kind, dim, horizon in workload.builds:
        if set_kind == "ball":
            fset = sets.Ball(center=np.zeros(dim), radius=1.0)
        else:
            fset = sets.Box(lower=np.full(dim, -0.5), upper=np.full(dim, 0.5))
        problem = problems.make_problem(problem_id, dim, seed, fset)
        suites.build_matched_preset(algo, fset, problem, horizon=horizon)
    return seconds + time.perf_counter() - start


def peak_traced_mb(operation):
    """Peak memory tracemalloc sees during ``operation()`` (numpy arrays included), in MB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        operation()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an already sorted list."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def measure_end_to_end(runner, modules, layers, seeds, seconds, tiny):
    _cli, problems, sets, suites = modules
    repeats = 1 if tiny else SETUP_REPEATS
    setups = [setup_seconds(runner.workload, seed, problems, sets, suites) for seed in seeds[:repeats]]
    # A tiny operation first loads what the package imports lazily, so the
    # memory of the operation after it is the operation's, not first use's.
    runner.operation(seeds[0], tiny=True)
    peak_mb = peak_traced_mb(lambda: runner.operation(seeds[0], tiny=tiny))
    op_times, p50s, p90s, gap_counts = [], [], [], []
    deadline = time.perf_counter() + seconds
    for i in itertools.count(1):
        gaps = []
        with layers.round_clock(gaps):
            op_times.append(runner.operation(seeds[i % len(seeds)], tiny=tiny))
        if not gaps:
            raise RuntimeError("the engine made no oracle calls through the round clock")
        gaps.sort()
        p50s.append(_quantile(gaps, 0.50))
        p90s.append(_quantile(gaps, 0.90))
        gap_counts.append(len(gaps))
        if tiny or time.perf_counter() >= deadline:
            break
    # Times are those of the run's fastest operation.  On a shared machine
    # other tenants slow whole operations by up to 2x; the fastest of a run's
    # operations varies far less from run to run than their median does.
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s.min": min(op_times),
        "round_us.p50": min(p50s) * 1e6,
        "round_us.p90": min(p90s) * 1e6,
        "peak_mem_mb": peak_mb,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    samples = {
        "setup_s": len(setups),
        "op_s.min": len(op_times),
        "round_us": {"operations": len(gap_counts), "gaps_per_operation": gap_counts},
        "peak_mem_mb": 1,
        "ok_ratio": runner.attempted,
    }
    extra = {
        "round_clock_floor_us": layers.round_clock_floor_us(),
        "op_s": op_times,
        "setup_s": setups,
    }
    return metrics, samples, extra


def _layer_values(tracer, trace_bytes):
    """Per-layer values of one traced operation; absent layers are left out."""
    inclusive, own, calls = tracer.summary()
    counts = dict(tracer.counts, **{"cli.trace_bytes": trace_bytes})
    values = {}
    for metric, (_unit, how, source) in PER_LAYER.items():
        needs = _COUNTER_SPAN.get(source) if how == "count" else source
        if needs is not None and needs not in tracer.installed:
            continue
        if how == "time":
            values[metric] = inclusive[source]
        elif how == "self":
            values[metric] = own[source]
        elif how == "calls":
            values[metric] = calls[source]
        elif how == "count":
            values[metric] = counts.get(source, 0)
        else:
            values[metric] = counts.get("sets.project_active", 0) / max(1, calls[source])
    return values


def measure_layers(runner, layers, seeds, seconds, tiny):
    """Alternate untraced and traced operations; split the traced ones by layer."""
    runner.operation(seeds[0], tiny=True)  # loads what the package imports lazily
    tracer = layers.Tracer()
    traced, untraced, per_op = [], [], []
    absent = set()
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        seed = seeds[i % len(seeds)]
        if i % 2:
            tracer.reset()
            with tracer.tracing() as absent:
                traced.append(runner.operation(seed, tiny=tiny))
            per_op.append(_layer_values(tracer, runner.trace_bytes))
        else:
            untraced.append(runner.operation(seed, tiny=tiny))
        if i >= 1 and (tiny or time.perf_counter() >= deadline):
            break
    metrics = {}
    for metric in per_op[0]:
        if PER_LAYER[metric][1] in ("calls", "count", "ratio"):
            metrics[metric] = per_op[0][metric]
        else:
            metrics[metric] = statistics.median(values[metric] for values in per_op)
    metrics["trace.overhead_s"] = min(traced) - min(untraced)
    samples = {"traced_ops": len(traced), "untraced_ops": len(untraced), "counts_from": "first traced op"}
    extra = {
        "traced_op_s.min": min(traced),
        "untraced_op_s.min": min(untraced),
        "absent_targets": sorted(absent),
        "exact_counts": list(EXACT_COUNTS),
    }
    return metrics, samples, extra


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _machine(env_before):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "thread_env_before": env_before,
        "ADAREG_THREADS": os.environ.get("ADAREG_THREADS"),
        "git_commit": _git_commit(),
    }


def main(argv=None):
    args = parse_args(argv)
    env_before = pin_threads()
    try:
        modules = load_package()
        references = json.loads(REFERENCES.read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    import layers

    workload = WORKLOADS[args.workload]
    refs = references.get(args.workload, {})
    if refs.get("argv") != " ".join(workload.argv):
        print("perfbench: references.json does not match the workload; re-record it", file=sys.stderr)
        return 2
    seeds = random.Random(args.seed).sample(range(SEED_POOL), SEED_POOL)
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(modules[0], workload, refs, Path(out_dir) / "trace.csv")
        if args.trace:
            metrics, samples, extra = measure_layers(runner, layers, seeds, args.seconds, args.tiny)
            units = {name: _per_layer_unit(name) for name in metrics}
        else:
            metrics, samples, extra = measure_end_to_end(
                runner, modules, layers, seeds, args.seconds, args.tiny
            )
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    details = {
        "workload": args.workload,
        "argv": list(workload.tiny_argv if args.tiny else workload.argv),
        "base_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 process",
        "machine": _machine(env_before),
        "samples": samples,
        "fail_ratio": runner.failed / runner.attempted,
        "errors": runner.errors[:10],
        **extra,
    }
    print("perfbench details: " + json.dumps(details, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
