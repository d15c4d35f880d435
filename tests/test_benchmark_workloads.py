"""The benchmark's workloads, run in process at tiny size: set-up, warm-up
and one round, with every call passing its gate.  A change that breaks a
call the benchmark makes (a renamed function, a dropped parameter) fails
here, not only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_round_passes_every_gate(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    calls = workload.setup(7, "tiny", tmp_path)
    workload.warmup(tmp_path)
    assert calls
    for call in calls:
        call.check(call.run())
