"""Self-test of the benchmark itself (not of jointspec).

    python3 perfbench/selftest.py

1. Each workload runs at tiny size with ``--trace 0`` and ``--trace 1``; every
   call passes the gate and the result names exactly the metrics listed in
   BENCHMARK.json.
2. The gate counts bad outputs: for each workload, a call whose output is
   corrupted and a call that raises both count as failed, so error_rate > 0.
3. Seeds that once produced a failing call run one full-size round with
   every call passing.
4. In a directory holding only BENCHMARK.json and the benchmark, run.py
   exits nonzero without printing a result.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_bench(root, *args):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def check_names(bench):
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    for w in bench["workloads"]:
        for trace in (0, 1):
            proc = run_bench(ROOT, "--workload", w["name"], "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (w["name"], proc.stderr)
            assert sorted(result["metrics"]) == sorted(expected[trace]), (
                w["name"], trace, set(result["metrics"]) ^ set(expected[trace]))
            print(f"ok  {w['name']} --trace {trace}: {result['attempted']} calls, names match")


def corrupt(out):
    """A wrong version of a call's output."""
    if isinstance(out, list):  # verify_pair reports: one missing
        return out[:-1]
    if hasattr(out, "code"):  # CLI outcome: truncated report
        return dataclasses.replace(out, text=out.text[: len(out.text) // 2] + "#")
    return dataclasses.replace(out, dim_L=out.dim_L + 1)  # rigidity report


def check_gate(bench):
    sys.path.insert(0, str(BENCH_DIR))
    import run

    run._import_library()
    import workloads

    def raises():
        raise RuntimeError("injected failure")

    for w in bench["workloads"]:
        workload = workloads.WORKLOADS[w["name"]]
        workdir = run.OUT_DIR / f"selftest-{w['name']}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            call = workload.setup(7, "tiny", workdir)[0]
            bad = [
                dataclasses.replace(call, run=lambda c=call: corrupt(c.run())),
                dataclasses.replace(call, run=raises),
                call,
            ]
            tally = run.Tally()
            run.run_round(bad, tally)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert (tally.attempted, tally.failed) == (3, 2), (w["name"], vars(tally))
        assert tally.error_rate > 0
        print(f"ok  {w['name']}: corrupted and raising calls counted, "
              f"error_rate {tally.error_rate:.3f}")


# (workload, seed) pairs that once failed a call.  verify-large at 1940973886
# drew an N=32 instance whose branch-derivative gap at 1 (about 0.0505) passed
# the fixture's default min_gap but not component_projection's separation test
# at the finest ladder rung; workloads.MIN_GAP keeps such instances out.
REGRESSION_SEEDS = (("verify-large", 1940973886),)


def check_regression_seeds():
    import run
    import workloads

    for name, seed in REGRESSION_SEEDS:
        workdir = run.OUT_DIR / f"selftest-{name}-{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            calls = workloads.WORKLOADS[name].setup(seed, "full", workdir)
            tally = run.Tally()
            run.run_round(calls, tally)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert tally.attempted and tally.failed == 0, (name, seed, vars(tally))
        print(f"ok  {name} seed {seed}: {tally.attempted} full-size calls pass")


def check_bare_directory(bench):
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench(bare, "--workload", bench["workloads"][0]["name"], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok  without sources: exit {proc.returncode}, no result printed")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_names(bench)
    check_gate(bench)
    check_regression_seeds()
    check_bare_directory(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
