"""nctorus benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload {trace-laws,matrix-witness,nct-session}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0 and
the per-layer metrics with --trace 1.  A fuller report of the run goes
to bench/out/.

Set-up time is the median over SETUPS processes: SETUPS - 1 probe
processes that stop where the first item would start, then the
measuring process itself.  Every child runs with BLAS threads capped at
the number of usable cores and a fixed string-hash seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trace-laws", "matrix-witness", "nct-session")
SETUPS = 7
#: the whole run, children included, ends within this many seconds
RUN_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = cores
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args, extra, deadline: float) -> dict:
    """Run one worker process; return its last-line JSON and its start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with code {done.returncode}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["first_item"] - started
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nctorus benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nctorus" / "__init__.py").is_file():
        print(f"no nctorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        setups = [_child(args, ["--probe"], deadline)["setup_s"] for _ in range(SETUPS - 1)]
    run = _child(args, [], deadline)
    setups.append(run["setup_s"])
    metrics = run["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    detail = run["detail"]
    detail["setups_s"] = setups

    (HERE / "out").mkdir(exist_ok=True)
    report = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    report.write_text(json.dumps({"args": vars(args), **run}, indent=1) + "\n", encoding="utf-8")
    for name, metric in metrics.items():
        print(f"{name:30s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        print(f"item_tail_ms is p{detail['tail_percentile']:.2f} of {detail['items']} items "
              f"({detail['tail_beyond']} beyond); {detail['rounds']} rounds; {detail['threads']} threads")
    for message in detail["wrong"]:
        print(f"WRONG: {message}")
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
