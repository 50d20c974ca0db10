"""Steadiness study and baseline record: repeated runs of bench/run.py.

    python3 bench/study.py --runs 10 --out bench/BENCH_baseline.json
    python3 bench/study.py --workloads schur-scale --runs 5 --first-seed 101

Runs every chosen workload --runs times, each with its own seed, then
(unless --no-trace) one traced run per workload.  For each end-to-end
metric it reports the median, the quartiles as statistics.quantiles(n=4)
gives them, and the spread (q3 - q1) / median, next to the metric's bound
from BENCHMARK.json.  With --out it writes everything, the raw values too,
to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def summary(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                    help="default: the workloads BENCHMARK.json declares")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    chosen = args.workloads or [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    record = {"python": platform.python_version(), "cpus": os.cpu_count(),
              "machine": platform.machine(), "run_seconds": seconds, "runs": args.runs,
              "workloads": {}}
    for workload in chosen:
        results = [run(workload, args.first_seed + i, seconds, 0) for i in range(args.runs)]
        entry = {
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_wall_s": [round(r["wall_s"], 1) for r in results],
            "end_to_end": {name: summary([r["metrics"][name]["value"] for r in results], bound)
                           for name, bound in bounds.items()},
        }
        print(f"{workload}: correct={entry['all_correct']} failed={entry['failed']}/{entry['attempted']} "
              f"wall/run={statistics.median(entry['run_wall_s'])}s", file=sys.stderr)
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above a third of its bound"
            print(f"  {name:12s} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
                  f"spread {s['spread']:.3f} (bound {s['bound']}){flag}", file=sys.stderr)
        if not args.no_trace:
            traced = run(workload, args.first_seed, seconds, 1)
            entry["traced"] = {"seed": args.first_seed, "correct": traced["correct"],
                               "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
