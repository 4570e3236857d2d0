"""The three workloads: their inputs, items and output checks.

A workload is built from a seed and holds a list of items.  Each item
is one operation on nctorus, always reached through its module attribute
at call time (so tracing wrappers installed later are seen), plus a
check of its output against the independent answers in oracles.  One
round runs every item once, in the same order every round.  controls()
runs once after the timed rounds: negative controls and checks that
need not repeat.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List

import oracles

from nctorus import chern, cli, exprcli, matrixmodel, traces
from nctorus.exactscalar import GaussRat, PhaseScalar
from nctorus.ncalgebra import THETA, monomial

#: exponent window of every trace law and transfer check
WINDOW = 3
#: largest matrix size of the matrix-witness sweep
QMAX = 16
#: the residual tolerance of the package's acceptance criterion 08
TOL = 1e-9
KAPPAS = (Fraction(3, 4), Fraction(1, 2))
MEMBER_KMAX = 40
#: terms in each factor of a generated product expression
FACTOR_TERMS = 10
#: matrix sizes of the session's `matrix verify --dump` commands
MATRIX_QS = (3, 4, 5, 6, 7, 8)


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


def _is_true(label: str) -> Callable[[object], List[str]]:
    return lambda out: [] if out is True else [f"{label}: returned {out!r}, expected True"]


class TraceLaws:
    """Every law of run_trace_suite and the criterion-05 transfer grid, one window."""

    name = "trace-laws"
    largest_q = 0

    def __init__(self, seed: int, tmp: Path):
        TK = traces.TraceKind
        laws = [(f"{k.value}_sigma_trace", "check_alpha_trace", (k, 1, WINDOW)) for k in (TK.t10, TK.t11)]
        laws += [(f"{k.value}_sigma2_trace", "check_alpha_trace", (k, 2, WINDOW)) for k in (TK.t20, TK.t21, TK.t22)]
        laws += [(f"{k.value}_sigma_invariant", "check_sigma_invariance", (k, WINDOW)) for k in traces.ALL_KINDS]
        laws += [("parity_flip", "check_parity_flip", (WINDOW,)), ("nu_relations", "check_nu_relations", (WINDOW,))]
        self.law_names = {name for name, _, _ in laws}
        items = [Item(name, functools.partial(_call, traces, fn, args), _is_true(name)) for name, fn, args in laws]
        for nn in range(1, 6):
            for k in range(-3, 4):
                label = f"lemma_psizeta nn={nn} k={k}"
                items.append(Item(label, functools.partial(_call, chern, "verify_lemma_psizeta", (nn, k, WINDOW)),
                                  _is_true(label)))
        rng = random.Random(seed)
        rng.shuffle(items)
        self.items = items
        self.psi_cases = []
        for _ in range(60):
            kind = rng.choice(oracles.KINDS)
            span = 1 if kind == "tau" else 6
            re_, im = rng.choice([(a, b) for a in range(-3, 4) for b in range(-3, 4) if a or b])
            self.psi_cases.append((kind, rng.randint(-span, span), rng.randint(-span, span), re_, im, rng.randint(-8, 8)))

    def controls(self) -> List[str]:
        TK = traces.TraceKind
        out = []
        # each law with the wrong power of sigma must be refuted
        for kind, power in ((TK.t20, 1), (TK.t21, 1), (TK.t22, 1), (TK.t10, 2), (TK.t11, 2)):
            if traces.check_alpha_trace(kind, power, WINDOW) is not False:
                out.append(f"negative control {kind.value} with sigma^{power} was not refuted")
        values = [
            traces.psi(TK(kind), monomial(THETA, PhaseScalar.phase(Fraction(s, 4), GaussRat(re_, im)), m, n)).terms
            for kind, m, n, re_, im, s in self.psi_cases
        ]
        out += oracles.psi_sample_failures(self.psi_cases, values)
        suite = set(traces.run_trace_suite(1))
        if suite != self.law_names:
            out.append(f"run_trace_suite laws {sorted(suite)} differ from the benchmark's {sorted(self.law_names)}")
        return out


class MatrixWitness:
    """intertwiner_report for every coprime pair of the criterion-08 sweep up to QMAX."""

    name = "matrix-witness"
    largest_q = QMAX

    def __init__(self, seed: int, tmp: Path):
        self.last_w = None
        solve = matrixmodel.fourier_intertwiner

        # hand the benchmark the W that the report was computed from
        @functools.wraps(solve)
        def tap(q, p):
            self.last_w = solve(q, p)
            return self.last_w

        matrixmodel.fourier_intertwiner = tap
        # the sweep's ascending q, so allocation sizes come in one order and
        # peak RSS does not depend on the seed; the seed orders p within q
        rng = random.Random(seed)
        pairs = [(q, p) for q in range(1, QMAX + 1)
                 for p in rng.sample(range(1, q + 1), q) if math.gcd(p, q) == 1]
        self.items = [Item(f"q={q} p={p}", functools.partial(self._run, q, p), functools.partial(self._check, q, p))
                      for q, p in pairs]

    def _run(self, q: int, p: int):
        return matrixmodel.intertwiner_report(q, p), self.last_w

    @staticmethod
    def _check(q: int, p: int, out) -> List[str]:
        rep, w = out
        failures = []
        if not (rep.ok and rep.order_four_ok and max(rep.resid_u, rep.resid_v, rep.resid_unitary) <= TOL):
            failures.append(f"q={q} p={p}: report {rep.to_json()} is not a pass")
        return failures + oracles.witness_failures(w, q, p, TOL)

    def controls(self) -> List[str]:
        import numpy as np

        out = []
        if not oracles.witness_failures(np.eye(3), 3, 1, TOL):
            out.append("negative control: the identity passed as the q=3 witness")
        w = matrixmodel.fourier_intertwiner(5, 2)
        if not oracles.witness_failures(w.conj(), 5, 2, TOL):
            out.append("negative control: the conjugate q=5 witness passed")
        return out


class NctSession:
    """A seeded stream of nct commands, each run in-process with a -o report."""

    name = "nct-session"
    largest_q = max(MATRIX_QS)

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        grid = [(k, m) for m in range(3, 40, 2) for k in range(1, (m - 1) // 2 + 1) if math.gcd(k, m) == 1]
        cmds: List[tuple] = []
        for _ in range(8):
            k, m = rng.choice(grid)
            cmds.append(("certify", ["gclass", "certify", "-k", str(k), "-m", str(m)], None))
        for j in range(18):
            if j % 2 == 0:
                k, m = rng.choice(grid)
                lo, hi = oracles.seed_chain(k, m, *KAPPAS)
                theta = (lo + hi) / 2
            else:
                den = rng.randrange(50, 2000)
                theta = Fraction(rng.randrange(1, den // 2), den)
            argv = ["gclass", "member", "--theta", f"{theta.numerator}/{theta.denominator}",
                    "--kmax", str(MEMBER_KMAX)]
            cmds.append(("member", argv, theta))
        for _ in range(16):
            kind = rng.choice(oracles.KINDS)
            left, right = _factor(rng), _factor(rng)
            expr = f"({oracles.render(left)})*({oracles.render(right)})"
            cmds.append(("eval", ["traces", "eval", "--kind", kind, "--expr", expr], (kind, left, right)))
        for _ in range(16):
            expr = f"({oracles.render(_factor(rng))})*({oracles.render(_factor(rng))})"
            cmds.append(("echo", ["expr", "echo", "--expr", expr], None))
        for _ in range(4):
            q = rng.randint(2, 50)
            p = rng.choice([p for p in range(1, 4 * q + 1) if math.gcd(p, q) == 1])
            cmds.append(("crosscheck", ["chern", "crosscheck", "-p", str(p), "-q", str(q)], None))
        for q in MATRIX_QS:
            p = rng.choice([p for p in range(1, q + 1) if math.gcd(p, q) == 1])
            cmds.append(("matrix", ["matrix", "verify", "-p", str(p), "-q", str(q), "--dump"], (q, p)))
        rng.shuffle(cmds)
        self.sink = io.StringIO()
        self.verified: Dict[int, str] = {}
        self.items = []
        for i, (kind, argv, extra) in enumerate(cmds):
            path = tmp / f"{i:03d}-{kind}.json"
            argv = argv + ["-o", str(path)]
            self.items.append(Item(" ".join(argv[:2]), functools.partial(self._run, argv),
                                   functools.partial(self._check, i, kind, path, extra)))

    def _run(self, argv: List[str]) -> int:
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            code = cli.run(argv)
        self.sink.seek(0)
        self.sink.truncate()
        return code

    def _check(self, i: int, kind: str, path: Path, extra, code) -> List[str]:
        label = f"command {i} ({kind})"
        if code != 0:
            return [f"{label}: exit code {code}"]
        if not path.is_file():
            return [f"{label}: no report at {path.name}"]
        text = path.read_text(encoding="utf-8")
        path.unlink()  # the next round must write its own report
        if self.verified.get(i) == text:
            return []
        report = json.loads(text)
        failures = oracles.report_failures(label, report)
        if kind == "certify":
            failures += oracles.derived_failures(report["seed"], report["derived"])
        elif kind == "member":
            failures += oracles.member_failures(report, oracles.brute_member(extra, MEMBER_KMAX, *KAPPAS))
        elif kind == "eval":
            want = oracles.psi_element(extra[0], oracles.product(extra[1], extra[2]))
            failures += oracles.eval_failures(label, report["value"], want)
        elif kind == "echo":
            failures += oracles.fixpoint_failures(report["canonical"], exprcli.parse, exprcli.unparse)
        elif kind == "matrix":
            failures += oracles.witness_failures(oracles.dumped_matrix(report["matrix"]), *extra, TOL)
        if not failures:
            self.verified[i] = text
        return failures

    def controls(self) -> List[str]:
        return []


def _factor(rng: random.Random) -> List[oracles.Term]:
    terms = []
    for _ in range(FACTOR_TERMS):
        re_, im = rng.choice([(a, b) for a in range(-3, 4) for b in range(-3, 4) if a or b])
        r = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
        terms.append((re_, im, r, rng.randint(-3, 3), rng.randint(-3, 3)))
    return terms


def _call(module, name: str, args: tuple):
    return getattr(module, name)(*args)


WORKLOADS = {cls.name: cls for cls in (TraceLaws, MatrixWitness, NctSession)}
