"""The benchmark's calls into the library: one round of each workload in
``perfbench/workloads.py`` runs, and every operation passes its own check."""

import importlib.util
import sys
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).parent.parent / "perfbench" / "workloads.py")
workloads = sys.modules[SPEC.name] = importlib.util.module_from_spec(SPEC)  # dataclasses look it up
SPEC.loader.exec_module(workloads)


@pytest.mark.filterwarnings("ignore")  # the benchmark runner ignores library warnings too
@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_one_round_of_each_benchmark_workload_passes_its_checks(name, tmp_path):
    ops = workloads.BUILDERS[name](0, tmp_path).rounds[0]
    failed = [f"{op.kind}: {why}" for op in ops if (why := op.check(op.call())) is not None]
    assert ops and failed == []
