"""Short end-to-end runs of bench/run.py, checked against BENCHMARK.json."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, seed=1, trace=0):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name):
    result = _result(_run(ROOT, name))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [m for m in result["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    result = _result(_run(ROOT, name, trace=1))
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["per_layer"])


def test_traced_counts_repeat_exactly():
    first = _result(_run(ROOT, "sweep_default", seed=1, trace=1))["metrics"]
    second = _result(_run(ROOT, "sweep_default", seed=2, trace=1))["metrics"]
    counts = [n for n in first if n.endswith((".calls", "distinct_ratio", "w_bytes", "flops"))]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["linalg.hermitian_propagator.calls"]["value"] > 0


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sweep_default")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
