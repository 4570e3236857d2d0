"""Steadiness study: repeat the benchmark over seeds and report each spread.

    python3 bench/study.py [--workloads trace-laws,...] [--runs 10] [--seconds S] [--first-seed 1]

Runs bench/run.py once per seed and workload, one run at a time, for S
seconds each (by default run_seconds of BENCHMARK.json), and prints for
every end-to-end metric its median and its spread: the distance between
the first and third quartile of the runs, as a share of the median.  It
also checks that every run was correct and that the share of failed
operations is the same in every run.  The raw figures go to
bench/out/study-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats
from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="steadiness study of the benchmark")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                                  cwd=HERE.parent, capture_output=True, text=True, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and len(shares) == 1
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": stats.quartile_spread(values), "values": values}
        results[workload] = {"correct": correct, "failed_shares": sorted(shares), "metrics": summary}
        print(f"\n{workload}: correct={correct} failed shares={sorted(shares)}")
        for name, s in summary.items():
            bound = bounds[name]
            print(f"  {name:14s} median {s['median']:12.6g}  spread {s['spread']:.4f}  "
                  f"bound {bound:.2f}  spread/bound {s['spread'] / bound:.2f}")
        print(flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"study-{args.first_seed}.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
