"""Tests of the benchmark's own logic: statistics, checks and tracing.

    python3 -m pytest bench -q

Every correctness check is shown to pass on the program's real answer
and to fail on a deliberately wrong one.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
import stats
import workloads
from tracing import Tracer

from nctorus import exprcli, gclass, matrixmodel, traces
from nctorus.exactscalar import GaussRat, PhaseScalar
from nctorus.ncalgebra import THETA, monomial

KAPPAS = workloads.KAPPAS


# --- statistics ---------------------------------------------------------------

def test_tail_needs_forty_samples():
    assert stats.tail([1.0] * 39) is None
    assert stats.tail([1.0] * 40) is not None


@pytest.mark.parametrize("n", [40, 41, 99, 1000, 1234])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    samples = [float(i) for i in range(n)]
    random.Random(n).shuffle(samples)
    t = stats.tail(samples)
    assert t.samples == n and t.beyond == 10
    assert sum(1 for s in samples if s > t.value) == 10
    assert t.percentile == pytest.approx(100 * (n - 10) / n)


def test_tail_of_forty_is_the_75th_percentile():
    t = stats.tail(list(range(1, 41)))
    assert (t.value, t.percentile) == (30, 75.0)


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((8.25 - 2.75) / 5.5)


# --- trace-laws checks ----------------------------------------------------------

def _psi_values(cases):
    return [traces.psi(traces.TraceKind(kind), monomial(THETA, PhaseScalar.phase(Fraction(s, 4), GaussRat(a, b)), m, n)).terms
            for kind, m, n, a, b, s in cases]


def test_psi_formulas_match_program_and_reject_wrong_values():
    rng = random.Random(3)
    cases = [(kind, rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-8, 8))
             for kind in oracles.KINDS for _ in range(20)] + [("tau", 0, 0, 2, -1, 3)]
    values = _psi_values(cases)
    assert oracles.psi_sample_failures(cases, values) == []
    nonzero = next(i for i, v in enumerate(values) if v)
    shifted = list(values)
    shifted[nonzero] = {r + 1: c for r, c in values[nonzero].items()}
    assert oracles.psi_sample_failures(cases, shifted)
    zero = next(i for i, v in enumerate(values) if not v)
    filled = list(values)
    filled[zero] = PhaseScalar.one().terms
    assert oracles.psi_sample_failures(cases, filled)


def test_law_check_rejects_false(tmp_path):
    wl = workloads.TraceLaws(1, tmp_path)
    assert len(wl.items) == 13 + 35
    item = wl.items[0]
    assert item.check(True) == []
    assert item.check(False)


def test_trace_controls_pass_and_catch_a_checker_that_never_refutes(tmp_path, monkeypatch):
    wl = workloads.TraceLaws(1, tmp_path)
    assert wl.controls() == []
    monkeypatch.setattr(traces, "check_alpha_trace", lambda kind, power, window: True)
    assert len(wl.controls()) == 5


# --- matrix-witness checks ------------------------------------------------------

def _closed(q, p):
    j = np.arange(q)
    return np.exp(2j * np.pi * p * np.outer(j, j) / q) / np.sqrt(q)


@pytest.mark.parametrize("q,p", [(1, 1), (2, 1), (5, 2), (7, 3), (12, 5)])
def test_witness_accepts_program_and_closed_form(q, p):
    assert oracles.witness_failures(matrixmodel.fourier_intertwiner(q, p), q, p) == []
    assert oracles.witness_failures(np.exp(0.7j) * _closed(q, p), q, p) == []


@pytest.mark.parametrize("wrong", ["conj", "scaled", "identity", "transpose_p"])
def test_witness_rejects_wrong_matrices(wrong):
    q, p = 7, 3
    w = matrixmodel.fourier_intertwiner(q, p)
    bad = {"conj": w.conj(), "scaled": 2 * w, "identity": np.eye(q), "transpose_p": _closed(q, q - p)}[wrong]
    assert oracles.witness_failures(bad, q, p)


def test_witness_rejects_an_intertwiner_that_is_not_the_closed_form():
    # unitary, yet it permutes rows of the closed form and so intertwines nothing
    q, p = 5, 2
    perm = np.eye(q)[[0, 2, 4, 1, 3]]
    assert oracles.witness_failures(perm @ _closed(q, p), q, p)


@pytest.fixture
def restore_solver():
    solve = matrixmodel.fourier_intertwiner
    yield
    matrixmodel.fourier_intertwiner = solve


def test_matrix_items_check_report_and_matrix(tmp_path, restore_solver):
    wl = workloads.MatrixWitness(1, tmp_path)
    assert len(wl.items) == sum(1 for q in range(1, workloads.QMAX + 1) for p in range(1, q + 1)
                                if np.gcd(p, q) == 1)
    item = next(i for i in wl.items if i.label == "q=5 p=2")
    rep, w = item.run()
    assert item.check((rep, w)) == []
    assert item.check((rep, w.conj()))
    bad = matrixmodel.IntertwinerReport(5, 2, 1.0, rep.resid_v, rep.resid_unitary, True)
    assert item.check((bad, w))
    assert wl.controls() == []


# --- nct-session checks ---------------------------------------------------------

@pytest.mark.parametrize("k,m", [(1, 3), (3, 11), (7, 19)])
def test_brute_member_matches_program(k, m):
    lo, hi = oracles.seed_chain(k, m, *KAPPAS)
    iv = gclass.interval(gclass.SeedParams(k, m))
    assert (lo, hi) == (iv.lo, iv.hi)
    for theta in ((lo + hi) / 2, Fraction(73, 1156), Fraction(1, 5)):
        want = [(s.k, s.m) for s in gclass.member(theta, kmax=25)]
        assert oracles.brute_member(theta, 25, *KAPPAS) == want


def test_member_check_rejects_missing_and_extra_seeds():
    report = {"theta": "1/3", "seeds": [{"k": 1, "m": 3}]}
    assert oracles.member_failures(report, [(1, 3)]) == []
    assert oracles.member_failures(report, [])
    assert oracles.member_failures(report, [(1, 3), (2, 7)])


def test_derived_check_rejects_a_wrong_integer():
    seed = {"k": 3, "m": 11}
    derived = gclass.derive(gclass.SeedParams(3, 11)).to_json()
    assert oracles.derived_failures(seed, derived) == []
    assert oracles.derived_failures(seed, dict(derived, p=derived["p"] + 1))
    assert oracles.derived_failures(seed, dict(derived, A=derived["A"] - 1))


def test_report_check_rejects_false_flags():
    assert oracles.report_failures("x", {"ok": True, "overall": True}) == []
    assert oracles.report_failures("x", {"ok": False})
    assert oracles.report_failures("x", {"overall": False})


def test_eval_oracle_matches_program_and_rejects_wrong_value():
    rng = random.Random(5)
    left, right = workloads._factor(rng), workloads._factor(rng)
    element = exprcli.parse(f"({oracles.render(left)})*({oracles.render(right)})")
    for kind in oracles.KINDS:
        value = str(traces.psi(traces.TraceKind(kind), element))
        want = oracles.psi_element(kind, oracles.product(left, right))
        assert oracles.eval_failures(kind, value, want) == []
        assert oracles.eval_failures(kind, value + " + ph(1/3)", want)


def test_parse_scalar_reads_every_printed_form():
    text = "(4*i)*ph(-4) + 5*ph(-1) + (1/2 + -3/4*i)*ph(3/4) + 1 + 2*i + ph(5/4) + i*ph(1/2)"
    F = Fraction
    assert oracles.parse_scalar(text) == {
        F(-4): (0, 4), F(-1): (5, 0), F(3, 4): (F(1, 2), F(-3, 4)), F(0): (1, 2), F(5, 4): (1, 0), F(1, 2): (0, 1)}
    assert oracles.parse_scalar("0") == {}


def test_fixpoint_check_rejects_non_canonical_text():
    canonical = exprcli.unparse(exprcli.parse("V*U + 2*U"))
    assert oracles.fixpoint_failures(canonical, exprcli.parse, exprcli.unparse) == []
    assert oracles.fixpoint_failures("V*U", exprcli.parse, exprcli.unparse)


def test_session_checks_pass_and_reject_tampered_reports(tmp_path):
    wl = workloads.NctSession(2, tmp_path)
    kinds = {i.label for i in wl.items}
    assert kinds == {"gclass certify", "gclass member", "traces eval", "expr echo", "chern crosscheck",
                     "matrix verify"}
    for idx, item in enumerate(wl.items):
        assert item.check(item.run()) == [], item.label
        assert item.check(1)
        assert item.run() == 0
        path = next(tmp_path.glob(f"{idx:03d}-*.json"))
        report = json.loads(path.read_text())
        if "seeds" in report:
            report["seeds"].append({"k": 1, "m": 2})
        elif "value" in report:
            report["value"] += " + 7"
        elif "canonical" in report:
            report["canonical"] = "V*U"
        elif "derived" in report:
            report["derived"]["q"] += 1
        elif "matrix" in report:
            report["matrix"][0][0] = [2.0, 0.0]
        else:
            report["ok"] = False
        path.write_text(json.dumps(report))
        assert item.check(0), item.label
        assert item.check(0), "a report left from an earlier round must not pass"


# --- tracing --------------------------------------------------------------------

def test_tracer_counts_layers_and_restores_the_package():
    from nctorus import chern

    psi, mul = traces.psi, PhaseScalar.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        assert traces.psi is not psi and chern.psi is traces.psi
        assert tracer.bench_frame("item", chern.verify_lemma_psizeta, 2, 1, 1) is True
        assert tracer.count("traces.psi") == 9 * 10  # 9 monomials, five kinds, source and image
        assert tracer.count("chern.verify_lemma_psizeta") == 1
        assert tracer.ops() > 0 and tracer.layer_calls("ncalgebra") > 0
        assert all(t >= 0 for t in tracer.self_time)
    finally:
        tracer.uninstall()
    assert traces.psi is psi and chern.psi is psi and PhaseScalar.__mul__ is mul


def test_tracer_counts_law_comparisons_and_links_spans():
    tracer = Tracer()
    tracer.install()
    tracer.keep_spans = True
    tracer.item = 7
    try:
        tracer.bench_frame("item", traces.check_sigma_invariance, traces.TraceKind.t10, 1)
    finally:
        tracer.uninstall()
    assert tracer.eq_in_traces == 9  # one comparison per monomial of the window
    spans = {s[0]: s for s in tracer.spans}
    name = {sid: tracer.names[s[1]] for sid, s in spans.items()}
    root = next(sid for sid, s in spans.items() if s[4] == -1)
    assert name[root] == "item"
    law = next(sid for sid, s in spans.items() if s[4] == root)
    assert name[law] == "traces.check_sigma_invariance"
    assert all(s[4] in spans for sid, s in spans.items() if sid != root)
    assert all(s[5] == 7 and s[2] <= s[3] for s in spans.values())
    assert not any(n.startswith("exactscalar.") for n in name.values())
