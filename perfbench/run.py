"""jointspec benchmark: time to a verified result, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout.  One process, BLAS pinned to one thread, closed
loop: each call starts when the previous one returns.  A round is one pass
over the workload's calls; rounds repeat until the round whose expected end
is nearest to ``--seconds``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one untraced and one traced round and prints the per-layer metrics,
including the tracing overhead (traced minus untraced round time).  The last
stdout line is the JSON result; a fuller record, with the environment, goes
to ``.perfbench_out/`` in the checkout.
"""

import os
import sys
import time

_T_START = time.perf_counter()

# The runner pins BLAS before numpy is imported: the single-threaded baseline.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def _import_library():
    """Import numpy, scipy and jointspec from this checkout; exit 2 if absent."""
    if not (SRC / "jointspec" / "__init__.py").is_file():
        sys.stderr.write(f"error: no jointspec sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import jointspec
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    if Path(jointspec.__file__).resolve().parent != (SRC / "jointspec").resolve():
        sys.stderr.write(f"error: jointspec imported from {jointspec.__file__}, not {SRC}\n")
        sys.exit(2)


def _environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


class Tally:
    """Calls attempted and failed, per-call wall times and CLI report bytes.

    Outputs are not kept: holding them would grow the peak RSS with the
    number of rounds.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.call_times = []
        self.report_bytes = 0

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


def run_round(calls, tally, tracer=None):
    """One closed-loop pass over the calls; returns the round's wall time.

    The gate runs outside the timed span.  A call that raises, or whose
    output fails the gate, counts as failed.
    """
    from workloads import WrongOutput

    total = 0.0
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.request = i
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call.run()
        except Exception:
            total += time.perf_counter() - t0
            tally.failed += 1
            sys.stderr.write(f"call {call.label!r} raised:\n{traceback.format_exc()}")
            continue
        dt = time.perf_counter() - t0
        total += dt
        tally.call_times.append(dt)
        tally.report_bytes += getattr(out, "report_bytes", 0)
        try:
            call.check(out)
        except WrongOutput as exc:
            tally.failed += 1
            sys.stderr.write(f"call {call.label!r} wrong output: {exc}\n")
    return total


def _setup(workload, args, workdir):
    """Generate inputs, write files and warm up; returns (calls, seconds)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    calls = workload.setup(args.seed, args.size, workdir)
    workload.warmup(workdir)
    return calls, time.perf_counter() - t0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure_untraced(workload, args, workdir, import_s):
    setups = []
    for _ in range(SETUP_REPEATS):
        calls, dt = _setup(workload, args, workdir)
        setups.append(dt)
    tally = Tally()
    rounds = []
    t_phase = time.perf_counter()
    while True:
        rounds.append(run_round(calls, tally))
        elapsed = time.perf_counter() - t_phase
        # Stop at the round end nearest to --seconds, so the timed phase spans
        # --seconds on average even when one round is half of it.
        if elapsed + statistics.median(rounds) / 2 > args.seconds:
            break
    metrics = {
        "wall_s": _metric(statistics.median(rounds), "s"),
        "call_p50_s": _metric(statistics.median(tally.call_times or [0.0]), "s"),
        "setup_s": _metric(import_s + statistics.median(setups), "s"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    detail = {"rounds_s": rounds, "setups_s": setups, "import_s": import_s,
              "call_count": len(tally.call_times), "calls_per_round": len(calls),
              "call_times_s": tally.call_times, "error_rate": tally.error_rate}
    return tally, metrics, detail


# Per-layer metrics: "<layer>.<function>.calls|self_s" for these functions,
# plus the derived counters assembled in measure_traced.
CALLS = (
    "projections.riesz_projection_info", "projections.component_projection",
    "projections.limit_projection", "extrapolate.richardson_limit",
    "branches.local_branches", "branches.check_regularity", "relations.analyze_pair",
    "pencil.line_roots", "pencil.slice_roots", "pencil.is_spectral_point",
    "pencil.det_proper", "coxeter.equivalence_evidence",
)
SELF_S = (
    "projections.riesz_projection_info", "extrapolate.richardson_limit",
    "branches.local_branches", "branches.check_regularity", "pencil.line_roots",
    "pencil.slice_roots", "pencil.is_spectral_point", "pencil.det_proper",
    "pencil.sample_spectrum_curve",
    "coxeter.check_condition_I", "coxeter.check_condition_II",
    "coxeter.verify_restriction", "coxeter.extract_invariant_subspace",
    "coxeter.equivalence_evidence", "coxeter.rigidity_check",
    "relations.verify_orthogonality_and_resolution", "relations.verify_cross_moment_zero",
    "relations.verify_first_moment", "relations.verify_second_moment",
    "relations.verify_prime_relations", "relations.verify_same_projection_lemma",
    "relations.verify_square_relation", "relations.verify_pair",
    "cli.main.analyze", "cli.main.plot", "cli.main.coxeter-check", "cli.main.demo-blowup",
)


def measure_traced(workload, args, workdir):
    """Set up traced, then one untraced and one traced round on the same calls."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        calls, _ = _setup(workload, args, workdir)
    finally:
        tracer.uninstall()
    setup_stats = tracer.layer_stats("setup")

    tally = Tally()
    untraced = run_round(calls, tally)
    tracer.phase = "timed"
    untraced_bytes = tally.report_bytes
    tracer.install()
    try:
        traced = run_round(calls, tally, tracer)
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats("timed")
    spans = sum(1 for s in tracer.spans if s[3] == "timed")

    metrics = {
        "error_rate": _metric(tally.error_rate, "ratio"),
        "trace.overhead_s": _metric(traced - untraced, "s"),
        "trace.spans": _metric(spans, "count"),
        "trace.overhead_est_s": _metric(spans * tracer.span_cost(), "s"),
    }
    for name in CALLS:
        metrics[f"{name}.calls"] = _metric(stats[name]["calls"], "count")
    for name in SELF_S:
        metrics[f"{name}.self_s"] = _metric(stats[name]["self_s"], "s")
    for name in ("branches.local_branches", "relations.analyze_pair"):
        ratio = tracer.distinct_ratio("timed", name, stats[name]["calls"])
        metrics[f"{name}.distinct_ratio"] = _metric(ratio, "ratio")
    for name, unit in (("projections.quad_nodes", "count"),
                       ("coxeter.equivalence_evidence.words", "count"),
                       ("relations.worst_residual_ratio", "ratio")):
        metrics[name] = _metric(tracer.counter("timed", name), unit)
    metrics["cli.report_bytes"] = _metric(tally.report_bytes - untraced_bytes, "bytes")
    metrics["fixtures.regular_random_pair.tries"] = _metric(
        tracer.child_calls("setup", "fixtures.regular_random_pair",
                           "fixtures.random_normal_pair"), "count")
    metrics["fixtures.regular_random_pair.self_s"] = _metric(
        setup_stats["fixtures.regular_random_pair"]["self_s"], "s")

    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    per_call = {}
    for i, call in enumerate(calls):
        top = sorted(tracer.layer_stats("timed", i).items(), key=lambda kv: -kv[1]["self_s"])
        per_call[call.label] = [[name, s["self_s"]] for name, s in top[:5]]
    detail = {"untraced_round_s": untraced, "traced_round_s": traced,
              "per_call_top_self_s": per_call, "spans_file": spans_path.name,
              "layers": {k: dict(v) for k, v in sorted(stats.items())},
              "setup_layers": {k: dict(v) for k, v in sorted(setup_stats.items())}}
    return tally, metrics, detail


def build_parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small instances, for the self-test")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    _import_library()
    import workloads

    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            tally, metrics, detail = measure_traced(workload, args, workdir)
        else:
            tally, metrics, detail = measure_untraced(workload, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(args)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"result": result, "environment": env, "detail": detail,
              "process_s": time.perf_counter() - _T_START}
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"error_rate {tally.error_rate:.6g} ({tally.failed} of {tally.attempted} calls)")
    if "call_count" in detail:
        print(f"call_p50_s over {detail['call_count']} calls, "
              f"{len(detail['rounds_s'])} round(s) of {detail['calls_per_round']}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
