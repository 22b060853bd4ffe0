"""The benchmark records, at its default seed, a digest of each
operation's MIS, status and trace (perfbench/digests.json), and an
output whose bytes change fails the benchmark.  The first operations of
the solver workloads are checked here as well, so that such a change
fails the fast suite first."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["bl-uniform3", "bl-wide6", "sbl-sample", "workbench-mc"])
def test_first_operations_match_recorded_digests(name):
    workloads = load_workloads()
    design = workloads.load_design()
    seed = design["default_seed"]
    wl = workloads.Workload(name, design["workloads"][name])
    recorded = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))[name]
    instances = wl.instance_seeds(seed)
    for index in range(3):
        # operation `index` runs on instance index % instances, as in run.py
        h = wl.setup(instances[index % len(instances)])
        outcome = wl.check(h, wl.run(h, seed, index))
        assert outcome.ok, outcome.detail
        assert outcome.digest == recorded[index], f"{name} operation {index}"
