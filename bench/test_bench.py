"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run the benchmark from the command line, in subprocesses, so they take
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

# Counts that must repeat exactly from one traced run to the next.
REPEATED_COUNTS = (
    "problems.callback_calls",
    "elliptic.solve_sparse.calls",
    "elliptic.unknowns",
    "elliptic.nnz",
)


def bench_run(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_lists_what_the_code_measures():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    layer_metrics = [name for _, _, names in run.LAYER_MAP for name in names]
    assert [m["name"] for m in bench["per_layer"]] == layer_metrics
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "task_norm_s.p50", "task_cpu_norm_s.p50", "peak_rss_mb"
    }


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(bench_run(workload, trace=1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    for name in REPEATED_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench_run("adapt_dataonly", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
