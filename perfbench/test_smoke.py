"""Smoke test of the benchmark on its tiny configuration (T=40, one timed operation).

Checks that every named metric is emitted with its unit, that no operation
fails, and that the exact per-layer counts repeat for the same seed.  It has
no timing gate.  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=5):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [*run.PER_LAYER, "trace.overhead_s"]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_end_to_end_metrics(workload):
    result = bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_ratio"]["value"] == 1.0  # fail_ratio is 0
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_per_layer_metrics_and_exact_counts(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {m["name"] for m in BENCHMARK["per_layer"]} == set(result["metrics"])
        for metric in BENCHMARK["per_layer"]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for name in run.EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_package():
    # A directory holding only the benchmark's own files: no src/adareg.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as bare:
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    assert done.returncode != 0
    assert done.stdout == ""
