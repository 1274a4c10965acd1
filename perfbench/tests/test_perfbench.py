"""Tests of the benchmark itself: every declared metric is printed with its
unit, traced counts repeat exactly, and the correctness check bites.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
#: pool sizes that keep a test run to a few seconds
SMALL_POOL = {"oracle-iso": 8, "oracle-sym": 4, "verify-cli": 6}
COUNT_SUFFIXES = ("calls_per_op", "calls_per_gap_report", "computed_mflop_per_op")


def small_run(workload: str, trace: bool, seed: int = 7) -> dict:
    out = io.StringIO()
    result = bench.run(workload, seed, 0.01, trace, pool_size=SMALL_POOL[workload], out=out)
    assert json.loads(out.getvalue().strip().splitlines()[-1]) == result
    return result


def assert_declared_metrics(result: dict, trace: bool) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert math.isfinite(printed["value"]), m["name"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_prints_every_declared_metric(workload, trace):
    result = small_run(workload, trace)
    assert_declared_metrics(result, trace)
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


def test_command_line_prints_result_as_last_line():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "oracle-iso", "--seed", "3",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert_declared_metrics(json.loads(proc.stdout.strip().splitlines()[-1]), trace=False)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "oracle-iso", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (small_run(workload, trace=True, seed=11) for _ in range(2))
    counts = [name for name in first["metrics"] if name.endswith(COUNT_SUFFIXES)]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def _perturbed(fn):
    def perturbed(*args, **kwargs):
        return fn(*args, **kwargs) + 1e-6
    return perturbed


@pytest.mark.parametrize("workload, targets", [
    ("oracle-iso", [("gresolv", "direct_sum_resolvent")]),
    ("oracle-sym", [("gresolv", "extension_resolvent")]),
    ("verify-cli", [("gresolv.cli", "direct_sum_resolvent"),
                    ("gresolv.cli", "extension_resolvent")]),
])
def test_formula_perturbed_by_1e_6_fails_every_op(monkeypatch, workload, targets):
    bench.load_library()
    for module_name, attr in targets:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, _perturbed(getattr(module, attr)))
    result = small_run(workload, trace=False)
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False
