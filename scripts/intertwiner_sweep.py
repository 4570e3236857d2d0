#!/usr/bin/env python3
"""Verify the clock/shift intertwiner for every coprime pair up to a bound.

Example:
    python scripts/intertwiner_sweep.py --qmax 24 --out sweep_report.json
"""

import argparse
import json
import math
import sys
import time

from nctorus import intertwiner_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--qmax", type=int, default=24, help="largest matrix size")
    ap.add_argument("--out", metavar="FILE", help="write the full JSON report")
    args = ap.parse_args()

    reports = []
    start = time.perf_counter()
    for q in range(1, args.qmax + 1):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            reports.append(intertwiner_report(q, p))
    elapsed = time.perf_counter() - start

    failures = [r for r in reports if not r.ok]
    worst = max(max(r.resid_u, r.resid_v, r.resid_unitary) for r in reports)
    print(f"pairs verified : {len(reports)}")
    print(f"failures       : {len(failures)}")
    print(f"worst residual : {worst:.3e}")
    print(f"elapsed        : {elapsed:.3f}s")
    for rep in failures:
        print(f"FAIL q={rep.q} p={rep.p}")
    print(f"sweep: {'PASS' if not failures else 'FAIL'}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "qmax": args.qmax,
                "elapsed_s": elapsed,
                "worst_residual": worst,
                "reports": [r.to_json() for r in reports],
            }, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.out}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
