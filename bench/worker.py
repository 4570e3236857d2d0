"""One workload process: set up, run whole rounds for a fixed time, check.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace 0|1] [--probe]

run.py starts this process and reads its last output line, a JSON
object.  --probe stops at the moment the first item would start, so the
caller can time set-up alone.  With --trace 1 the first half of the time
runs untraced and the second half traced, which gives the tracing
overhead; the per-layer figures come from the traced half, one traced
pass over the fixed layer probes, and the untraced probe timings.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MAX_FAILURES = 20


def _import_package():
    sys.path.insert(0, str(SRC))
    import nctorus

    if Path(nctorus.__file__).resolve().parent != SRC / "nctorus":
        raise SystemExit(f"nctorus was imported from {nctorus.__file__}, not from {SRC}")


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class Runner:
    """Runs rounds of a workload and keeps every timing and failure."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.round_times = []
        self.item_times = []
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def _note(self, messages) -> None:
        self.wrong.extend(messages[: MAX_FAILURES - len(self.wrong)])

    def round(self) -> None:
        tracer = self.tracer
        start = perf_counter()
        for idx, item in enumerate(self.workload.items):
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = item.run()
                else:
                    tracer.item = idx
                    out = tracer.bench_frame(f"item {item.label}", item.run)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.attempted += 1
                self.failed += 1
                self._note([f"{item.label}: {type(exc).__name__}: {exc}"])
                continue
            self.item_times.append(perf_counter() - t0)
            self.attempted += 1
            if tracer is None:
                self._note(item.check(out))
            else:
                self._note(tracer.bench_frame("check", item.check, out))
        self.round_times.append(perf_counter() - start)

    def until(self, deadline: float) -> None:
        """Whole rounds until the monotonic deadline passes (at least one)."""
        self.round()
        while time.monotonic() < deadline:
            self.round()


def _untraced(runner: Runner) -> tuple:
    t = stats.tail(runner.item_times)
    if t is None:
        raise SystemExit(f"only {len(runner.item_times)} items ran; the tail needs {stats.TAIL_MIN_SAMPLES}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "verdict_s": (statistics.median(runner.round_times), "s"),
        "item_p50_ms": (statistics.median(runner.item_times) * 1e3, "ms"),
        "item_tail_ms": (t.value * 1e3, "ms"),
        "peak_rss_mb": (peak_kb * 1024 / 1e6, "MB"),
    }
    detail = {"tail_percentile": t.percentile, "tail_beyond": t.beyond, "items": t.samples,
              "rounds": len(runner.round_times), "round_times_s": runner.round_times}
    return metrics, detail


def _traced(runner: Runner, deadline: float, half: float, name: str, seed: int) -> tuple:
    import probes
    from tracing import LAYERS, Tracer

    runner.until(time.monotonic() + half)
    untraced_round = statistics.median(runner.round_times)

    workload = runner.workload
    tracer = Tracer()
    tracer.install()
    traced = Runner(workload, tracer)
    selfs = []
    first = None
    while first is None or time.monotonic() < deadline:
        tracer.reset()
        tracer.keep_spans = first is None
        traced.round()
        selfs.append(list(tracer.self_time))
        if first is None:
            first = (dict(tracer.counts), tracer.eq_in_traces, tracer.to_json())
    # one traced pass over the fixed probes adds a small floor to every
    # self time, so a layer the workload leaves idle reads no constant zero
    tracer.reset()
    for call in probes.calls().values():
        tracer.bench_frame("probe", call)
    probe_self = list(tracer.self_time)
    tracer.counts = first[0]  # counts are the first traced round's alone
    tracer.uninstall()

    metrics = {}
    for li, layer in enumerate(LAYERS[:-1]):
        metrics[f"{layer}.self_s"] = (statistics.median([s[li] for s in selfs]) + probe_self[li], "s")
    for name_, value in probes.measure(SRC).items():
        metrics[name_] = (value, name_.rsplit("_", 1)[1])  # the unit ends the name: _us, _ms
    largest_q = max(workload.largest_q, probes.SOLVE_Q)
    metrics.update({
        "exactscalar.ops": (tracer.ops(), "count"),
        "ncalgebra.calls": (tracer.layer_calls("ncalgebra"), "count"),
        "traces.psi_calls": (tracer.count("traces.psi"), "count"),
        "traces.cases_checked": (first[1], "count"),
        "chern.calls": (tracer.layer_calls("chern"), "count"),
        "gclass.derive_calls": (tracer.count("gclass.derive"), "count"),
        "gclass.chain_parts_calls": (tracer.count("gclass.chain_parts"), "count"),
        "matrixmodel.stack_mb": (32 * largest_q**4 / 1e6, "MB"),
        "trace.overhead_pct": ((statistics.median(traced.round_times) / untraced_round - 1) * 100, "%"),
    })
    with gzip.open(OUT / f"{name}-s{seed}-spans.json.gz", "wt", encoding="utf-8") as handle:
        json.dump(first[2], handle)
    detail = {
        "untraced_rounds": len(runner.round_times),
        "traced_rounds": len(traced.round_times),
        "stack_mb_q": largest_q,
        "stack_mb_note": "computed as 32*q^4 bytes, not measured",
        "probe_pass_self_s": dict(zip(LAYERS, probe_self)),
    }
    runner.attempted += traced.attempted
    runner.failed += traced.failed
    runner._note(traced.wrong)
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{args.workload}-s{args.seed}-t{args.trace}{'-probe' if args.probe else ''}"
    tmp.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        first_item = time.monotonic()
        if args.probe:
            print(json.dumps({"first_item": first_item}))
            return 0
        deadline = first_item + args.seconds
        runner = Runner(workload)
        if args.trace:
            metrics, detail = _traced(runner, deadline, args.seconds / 2, args.workload, args.seed)
        else:
            runner.until(deadline)
            metrics, detail = _untraced(runner)
        control_failures = workload.controls()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    detail["threads"] = _threads()
    detail["wrong"] = runner.wrong + control_failures
    result = {
        "first_item": first_item,
        "correct": not runner.wrong and not control_failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": detail,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
