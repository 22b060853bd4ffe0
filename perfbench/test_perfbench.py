"""Smoke tests of the benchmark itself, on tiny instances.

    python3 -m pytest perfbench

Each test runs ``run.py --smoke`` as the benchmark's caller would and
checks its output against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Per-layer counts and ratios of counts, which repeat exactly at one seed.
REPEATING = ("productive_round_ratio", "gate_reject_ratio")


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    result, out = result_of(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[0] for line in out.splitlines()[:-1] if line}
    wanted = {"op_s", "setup_s", "peak_rss_mb", "failed_ratio", "baseline.greedy_mis.s"}
    if workload != "workbench-mc":
        wanted.add("rounds")
    assert wanted <= printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics_that_repeat(workload):
    first, _ = result_of(bench(workload, 1))
    second, _ = result_of(bench(workload, 1))
    # correct includes: traced digests equal the untraced run's
    assert first["correct"] and second["correct"]
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert units == declared("per_layer")
    counts = {name for name, unit in units.items() if unit == "count" or name.endswith(REPEATING)}
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    unpacked = first["metrics"]["edgeops.max_norm_degree.unpacked_calls"]["value"]
    if workload == "bl-wide6":
        assert unpacked > 0
    if workload == "bl-uniform3":
        assert unpacked == 0


def test_benchmark_json_lists_the_designed_workloads():
    design = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: d["why"] for name, d in design.items()
    }


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(WORKLOADS[0], 0, cwd=bare, script=bare / HERE.name / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
