"""Fixed-input timings of single layer calls, and one traced pass over them.

These are the per-call figures of the per-layer report (GaussRat and
PhaseScalar multiply, monomial and 20x20-term products, parse and
unparse, certify, member, intertwiner solve and verification, a fresh
import of the CLI).  Their inputs never depend on the workload seed, so
the figures compare across workloads and runs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict

from nctorus import chern, cli, exactscalar, exprcli, gclass, matrixmodel, ncalgebra, traces

F = Fraction
SOLVE_Q, SOLVE_P = 12, 5
MEMBER_SEEDS = ((1, 3), (3, 11), (7, 19))
CERTIFY_SEEDS = ((1, 3), (2, 7), (3, 11), (4, 13), (5, 17), (7, 19), (8, 21), (10, 23), (11, 29))
EXPR = "(U + 1/2*V + ph(1/4)*U^2*V^-1 + i*V^3 + -2*U^-1*V^2 + (1 + i)*ph(-1/2)*U^3)*(U^-1 + 3*V + ph(1/2)*U*V)"


def _scalars():
    es = exactscalar
    a = es.GaussRat(F(3, 7), F(-2, 5))
    b = es.GaussRat(F(1, 3), F(4, 9))
    return a, b, es.PhaseScalar.phase(F(1, 4), a), es.PhaseScalar.phase(F(-3, 4), b)


def _wide(terms: int):
    """Two fixed elements with `terms` distinct monomials each."""
    rng = random.Random(0)
    es, nc = exactscalar, ncalgebra
    out = []
    for _ in range(2):
        el = nc.zero()
        while len(el.terms) < terms:
            c = es.PhaseScalar.phase(F(rng.randint(-8, 8), 4), es.GaussRat(F(rng.randint(1, 5), rng.randint(1, 4))))
            el = el + nc.monomial(nc.THETA, c, rng.randint(-6, 6), rng.randint(-6, 6))
        out.append(el)
    return out


def calls() -> Dict[str, Callable[[], object]]:
    """One zero-argument call per probe; module attributes are read at call time."""
    a, b, pa, pb = _scalars()
    nc = ncalgebra
    x1 = nc.monomial(nc.THETA, pa, 2, -1)
    y1 = nc.monomial(nc.THETA, pb, -3, 4)
    xw, yw = _wide(20)
    parsed = exprcli.parse(EXPR)
    theta = [gclass.interval(gclass.SeedParams(k, m)).midpoint() for k, m in MEMBER_SEEDS]
    return {
        "gaussrat_mul": lambda: a * b,
        "phase_mul": lambda: pa * pb,
        "mul_mono": lambda: ncalgebra.mul(x1, y1),
        "mul_wide": lambda: ncalgebra.mul(xw, yw),
        "parse": lambda: exprcli.parse(EXPR),
        "unparse": lambda: exprcli.unparse(parsed),
        "psi": lambda: traces.psi(traces.TraceKind.t10, parsed),
        "crosscheck": lambda: chern.crosscheck_closed_forms(3, 7, 1),
        "certify": lambda: [gclass.certify(gclass.SeedParams(k, m)) for k, m in CERTIFY_SEEDS],
        "member": lambda: [gclass.member(t, kmax=40) for t in theta],
        "solve": lambda: matrixmodel.fourier_intertwiner(SOLVE_Q, SOLVE_P),
        "report": lambda: matrixmodel.intertwiner_report(SOLVE_Q, SOLVE_P),
        "cli": functools.partial(_quiet_cli, ["expr", "echo", "--expr", "V*U"]),
    }


def _quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def _per_call(fn: Callable[[], object], n: int, repeats: int = 5) -> float:
    """Median over repeats of the mean time of n back-to-back calls, in seconds."""
    fn()
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - start) / n)
    return statistics.median(times)


def _verify_only() -> float:
    """intertwiner_report with the solve served from a cache: verification time alone."""
    solve = matrixmodel.fourier_intertwiner
    w = solve(SOLVE_Q, SOLVE_P)
    matrixmodel.fourier_intertwiner = lambda q, p: w
    try:
        return _per_call(lambda: matrixmodel.intertwiner_report(SOLVE_Q, SOLVE_P), 20)
    finally:
        matrixmodel.fourier_intertwiner = solve


def import_ms(src: Path, repeats: int = 3) -> float:
    """Median wall time of a fresh `import nctorus.cli`, one new interpreter each."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import nctorus.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip()) * 1e3)
    return statistics.median(times)


def measure(src: Path) -> Dict[str, float]:
    """Every per-call figure, untraced, with its metric name and unit."""
    c = calls()
    return {
        "exactscalar.gaussrat_mul_us": _per_call(c["gaussrat_mul"], 2000) * 1e6,
        "exactscalar.phase_mul_us": _per_call(c["phase_mul"], 2000) * 1e6,
        "ncalgebra.mul_mono_us": _per_call(c["mul_mono"], 1000) * 1e6,
        "ncalgebra.mul_wide_ms": _per_call(c["mul_wide"], 3) * 1e3,
        "exprcli.parse_us": _per_call(c["parse"], 50) * 1e6,
        "exprcli.unparse_us": _per_call(c["unparse"], 200) * 1e6,
        "gclass.certify_ms": _per_call(c["certify"], 1) * 1e3 / len(CERTIFY_SEEDS),
        "gclass.member_ms": _per_call(c["member"], 1) * 1e3 / len(MEMBER_SEEDS),
        "matrixmodel.solve_ms": _per_call(c["solve"], 3) * 1e3,
        "matrixmodel.verify_ms": _verify_only() * 1e3,
        "cli.import_ms": import_ms(src),
    }
