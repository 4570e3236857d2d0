"""Acceptance suite: the ten package-level criteria.

Each test prints one "[criterion NN] ...: PASS/FAIL" line and asserts the
stated exactness and runtime budgets.  Everything here goes through the
public API only.
"""

import math
import random
import time
from fractions import Fraction

from nctorus import (
    DEFAULT_KAPPAS,
    GaussRat,
    Interval,
    ThetaLinear,
    TopVector,
    certify,
    crosscheck_closed_forms,
    interval,
    lemma31_arithmetic,
    member,
    parse,
    seed_grid,
    top_eb_minus,
    top_eq_plus,
    unparse,
    verify_chain,
    verify_identities,
    verify_lemma_psizeta,
    intertwiner_report,
)
from nctorus.ncalgebra import THETA, monomial
from nctorus.exactscalar import PhaseScalar
from nctorus.traces import check_nu_relations, run_trace_suite

F = Fraction

GRID = seed_grid(40)


def report(num: int, label: str, ok: bool, elapsed: float = None) -> None:
    timing = f", {elapsed:.2f}s" if elapsed is not None else ""
    print(f"\n[criterion {num:02d}] {label}{timing}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_integer_identity_suite():
    start = time.perf_counter()
    ok = all(flag for seed in GRID for _, flag in verify_identities(seed))
    elapsed = time.perf_counter() - start
    ok = ok and len(GRID) == 158 and elapsed < 1.0
    report(1, f"eight exact identities on all {len(GRID)} odd-m seeds", ok, elapsed)
    assert ok


def test_criterion_02_inequality_chain():
    start = time.perf_counter()
    ok = all(verify_chain(seed, DEFAULT_KAPPAS) for seed in GRID)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(2, f"five-link chain with default slacks on {len(GRID)} seeds", ok, elapsed)
    assert ok


def test_criterion_03_structure_certificates():
    half = F(1, 2)
    minus_display = TopVector(GaussRat(half, half), GaussRat(half, half), half, half, F(1))
    ok = True
    for seed in GRID:
        cert = certify(seed, DEFAULT_KAPPAS)
        m2 = seed.m * seed.m
        ok = ok and cert.overall and cert.sum_ok
        ok = ok and cert.tau0 == ThetaLinear(4 * m2 * cert.derived.A, -4 * m2 * cert.derived.B)
        # the numerator parameter is always divisible by four, pinning the
        # minus vector to one closed-form display
        ok = ok and cert.derived.p % 4 == 0 and cert.minus_vector.top == minus_display
    report(3, f"decomposition certificates on {len(GRID)} seeds, exact vector sums", ok)
    assert ok


def test_criterion_04_trace_law_suite():
    start = time.perf_counter()
    results = run_trace_suite(6)
    elapsed = time.perf_counter() - start
    ok = all(results.values()) and len(results) == 13 and elapsed < 10.0
    report(4, "trace laws, exhaustive monomial window 6", ok, elapsed)
    assert ok


def test_criterion_05_transfer_equations():
    ok = True
    for nn in range(1, 6):
        for k in range(-3, 4):
            ok = ok and verify_lemma_psizeta(nn, k, 6)
    ok = ok and check_nu_relations(6)
    report(5, "five transfer equations (scale 1..5, offset -3..3) and swap relations", ok)
    assert ok


def test_criterion_06_closed_form_crosscheck():
    ok = True
    count = 0
    for q in range(1, 51):
        for p in range(1, 4 * q + 1):
            if math.gcd(p, q) != 1:
                continue
            count += 1
            plus = top_eq_plus(p, q)
            minus = top_eb_minus(p, q)
            ok = ok and plus.top.in_lattice() and minus.top.in_lattice()
            ok = ok and crosscheck_closed_forms(p, q, 1)
            ok = ok and crosscheck_closed_forms(p, q, -1)
    report(6, f"transfer route equals closed form, both charges, {count} pairs", ok)
    assert ok


def test_criterion_07_modular_splitting():
    rng = random.Random(20240817)
    ok = True
    for _ in range(100):
        N = rng.randrange(1, 60)
        M = rng.randrange(1, 60)
        if math.gcd(N, M) != 1:
            continue
        # t proportional to the divisor keeps both endpoint signs decidable
        scale = F(rng.randrange(1, 8), rng.randrange(5, 16))
        t = ThetaLinear(-M * scale, N * scale)
        lo = F(M, N) + F(1, 97 * N)
        window = Interval(lo, lo + F(1, 97 * N))
        rec = lemma31_arithmetic(N, M, t, window)
        ok = ok and rec.identity_ok
    for seed in GRID:
        rec = certify(seed, DEFAULT_KAPPAS).lemma31
        ok = ok and rec.identity_ok and rec.bound_ok
        ok = ok and rec.N == seed.m and rec.M == seed.m - 2 * seed.k
    report(7, "splitting identity on random pairs; bounds on every seed window", ok)
    assert ok


def test_criterion_08_matrix_intertwiners():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    count = 0
    for q in range(1, 25):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            count += 1
            rep = intertwiner_report(q, p)
            worst = max(worst, rep.resid_u, rep.resid_v, rep.resid_unitary)
            ok = ok and rep.ok and rep.order_four_ok
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-9 and elapsed < 30.0
    report(8, f"{count} intertwiners, worst residual {worst:.2e}", ok, elapsed)
    assert ok


def test_criterion_09_membership_round_trip():
    rng = random.Random(7)
    sample = rng.sample(GRID, 20)
    ok = True
    for seed in sample:
        theta = interval(seed, DEFAULT_KAPPAS).midpoint()
        hits = member(theta, DEFAULT_KAPPAS, kmax=max(seed.k, seed.m))
        ok = ok and seed in hits
    report(9, "interval midpoints recovered for 20 sampled seeds", ok)
    assert ok


def test_criterion_10_parser_round_trip():
    rng = random.Random(11)
    corpus = []
    exps = (1, 2, 4)
    while len(corpus) < 100:
        x = monomial(THETA, PhaseScalar.zero(), 0, 0)
        for _ in range(rng.randrange(0, 4)):
            coeff = PhaseScalar.phase(
                F(rng.randrange(-8, 9), rng.choice(exps)),
                GaussRat(F(rng.randrange(-4, 5)), F(rng.randrange(-4, 5))),
            )
            x = x + monomial(THETA, coeff, rng.randrange(-5, 6), rng.randrange(-5, 6))
        corpus.append(unparse(x))
    ok = True
    for text in corpus:
        element = parse(text)
        ok = ok and unparse(element) == text and parse(unparse(element)) == element
    reordered = unparse(parse("V*U"))
    ok = ok and reordered == "ph(1)*U*V" and reordered.count("ph(") == 1
    report(10, "print/parse fixpoint on 100-expression corpus; single reorder phase", ok)
    assert ok
