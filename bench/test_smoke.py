"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload untraced and traced, with the output checks and the
layer self-check, so a change that breaks the harness shows at once:

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


def assert_metrics(doc: dict, spec: list[dict]) -> None:
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    doc = result(run(workload, 0))
    assert_metrics(doc, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_and_repeat_their_counts(workload):
    first, second = result(run(workload, 1)), result(run(workload, 1))
    assert_metrics(first, SPEC["per_layer"])
    counts = [{k: m["value"] for k, m in doc["metrics"].items()
               if m["unit"] == "count" or k.endswith("_frac")} for doc in (first, second)]
    assert counts[0] == counts[1]
    layer = {k: m["value"] for k, m in first["metrics"].items()}
    assert layer["topology.eta.calls"] >= 3 * layer["topology.classify_edge.calls"]


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
