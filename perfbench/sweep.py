"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads verify-mixed cli-mix --seeds 1-10 \
        [--trace 0] [--out FILE]

Runs ``run.py`` once per (workload, seed), one process at a time, and reports
per metric the median, the quartiles and the spread: the interquartile
distance as a share of the median, which is how run-to-run noise is judged
against a metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": None, "q3": None, "spread": None, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        results = []
        for seed in parse_seeds(args.seeds):
            res = run_once(workload, seed, seconds, args.trace)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
            results.append({"seed": seed, **res})
        metrics = {}
        for name in results[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            metrics[name] = s
            if args.trace == 0 and s["spread"] is not None:
                bound = bounds.get(name)
                flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above bound/3"
                print(f"  {name:16s} median {s['median']:.6g} spread {s['spread']:.4f} "
                      f"(bound {bound}){flag}", flush=True)
        summary[workload] = {"seconds": seconds, "trace": args.trace,
                             "all_correct": all(r["correct"] for r in results),
                             "metrics": metrics, "runs": results}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
