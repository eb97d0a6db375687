"""Smoke tests of the benchmark harness.

Every workload runs at its smoke size, untraced and traced, and must print
exactly the metrics BENCHMARK.json declares.  Run from the repository root::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import NULL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--size", "smoke", "--seconds", "0",
                "--seed", "7", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_gate_catches_a_wrong_build(monkeypatch):
    workload = WORKLOADS["build-verify"]
    inputs = workload.setup(0, "smoke")
    construction = inputs["construction"]
    real_build = construction.build_gamma

    def lossy_build(n, cfg=None):
        dag = real_build(n, cfg)
        return dag.without_edges([dag.edges[0]])

    monkeypatch.setattr(construction, "build_gamma", lossy_build)
    res = workload.run_pass(inputs, NULL)
    failed = {op for op, ok, _ in res.ops if not ok}
    assert {"edges n=40", "edges n=80"} <= failed
    assert not any(op.startswith("json") for op in failed)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "build-verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
