"""The benchmark's workloads, run in process at tiny size: set-up, warm-up
and one round, with every call passing its gate, once untraced and once
under the benchmark's tracer.  A change that breaks a call the benchmark
makes (a renamed function, a dropped parameter) or a hook the tracer keys
by name fails here, not only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import jointspec as js

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_round_passes_every_gate(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    calls = workload.setup(7, "tiny", tmp_path)
    workload.warmup(tmp_path)
    assert calls
    for call in calls:
        call.check(call.run())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_tiny_round_passes_every_gate(name, tmp_path):
    # every public layer function is wrapped, the name-keyed hooks included
    # (relations.verify_* -> worst_residual_ratio), and every binding is
    # restored afterwards
    workload = workloads.WORKLOADS[name]
    traced = tracer.Tracer()
    traced.install()
    try:
        calls = workload.setup(7, "tiny", tmp_path)
        workload.warmup(tmp_path)
        traced.phase = "timed"
        assert calls
        for call in calls:
            call.check(call.run())
    finally:
        traced.uninstall()
    assert traced.bindings and traced.layer_stats("timed")
    ratio = traced.counter("timed", "relations.worst_residual_ratio")
    assert ratio <= 1.0 and (ratio > 0.0) == name.startswith("verify")
    assert not hasattr(js.verify_pair, "__wrapped__")
    assert not any(hasattr(getattr(sys.modules[module], attr), "__wrapped__")
                   for module, attr, _ in traced.bindings)
