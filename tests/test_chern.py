"""Invariant vectors: closed forms, transfers, lattice, and crosschecks."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nctorus import (
    BadInput,
    ChernVector,
    GaussRat,
    SeedParams,
    ThetaLinear,
    TopVector,
    TraceKind,
    certify,
    chern,
    chern_one,
    crosscheck_closed_forms,
    flat_vector,
    gamma_top,
    nu_transfer,
    top_E,
    top_eb_minus,
    top_eq_plus,
    top_flat,
    verify_lemma_psizeta,
    zeta_transfer,
)
from nctorus.traces import GAMMA_SIGN, NU_LAW, check_nu_relations, check_parity_flip

F = Fraction
HALF = F(1, 2)
HMI = GaussRat(HALF, -HALF)  # (1-i)/2
HPI = GaussRat(HALF, HALF)   # (1+i)/2


def tv(p10, p11, p20, p21, p22):
    return TopVector(p10, p11, F(p20), F(p21), F(p22))


class TestClosedForms:
    def test_unit_vector(self):
        v = chern_one()
        assert v.trace == ThetaLinear(1, 0)
        assert v.top == tv(GaussRat(1), GaussRat(0), 1, 0, 0)

    def test_section_vector(self):
        v = top_E()
        assert v.trace == ThetaLinear(0, 1)
        assert v.top == TopVector(HMI, HMI, HALF, HALF, F(1))

    def test_plus_even_denominator(self):
        # first discrete component collapses at denominator 2
        v = top_eq_plus(1, 2)
        assert v.top.p10 == GaussRat(0)
        assert v == ChernVector(ThetaLinear(-2, 4), tv(GaussRat(0), GaussRat(0), 2, 0, 0))

    def test_plus_odd_denominator(self):
        v = top_eq_plus(1, 3)
        assert v.trace == ThetaLinear(-3, 9)
        assert v.top == TopVector(HMI, HMI * GaussRat.i_power(-3), HALF, -HALF, F(1))

    def test_minus_even_denominator(self):
        v = top_eb_minus(1, 2)
        assert v == ChernVector(ThetaLinear(2, -4), tv(GaussRat(0), GaussRat(0), 2, 0, 0))

    def test_minus_multiple_of_four_numerator(self):
        # numerator divisible by 4, odd denominator: all five values in closed form
        v = top_eb_minus(4, 1)
        assert v.trace == ThetaLinear(4, -1)
        assert v.top == TopVector(HPI, HPI, HALF, HALF, F(1))

    def test_rejects_non_coprime(self):
        with pytest.raises(BadInput):
            top_eq_plus(2, 4)
        with pytest.raises(BadInput):
            top_eb_minus(3, 6)
        with pytest.raises(BadInput):
            top_eq_plus(1, 0)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
    def test_lattice_membership(self, p, q):
        from math import gcd
        if gcd(p, q) != 1:
            return
        assert top_eq_plus(p, q).top.in_lattice()
        assert top_eb_minus(p, q).top.in_lattice()

    def test_lattice_rejects_off_lattice_values(self):
        bad = tv(GaussRat(F(1, 3)), GaussRat(0), 0, 0, 0)
        assert not bad.in_lattice()
        bad = tv(GaussRat(0), GaussRat(0), F(1, 3), 0, 0)
        assert not bad.in_lattice()
        bad = tv(GaussRat(0), GaussRat(0), 0, 0, HALF)
        assert not bad.in_lattice()
        # re+im integral but 2*im not: off the corner lattice
        bad = tv(GaussRat(F(2, 3), F(1, 3)), GaussRat(0), 0, 0, 0)
        assert not bad.in_lattice()


class TestVectorAlgebra:
    def test_addition_componentwise(self):
        a = top_eq_plus(1, 3)
        b = top_eb_minus(2, 5)
        s = a + b
        assert s.trace == a.trace + b.trace
        assert s.top.p20 == a.top.p20 + b.top.p20

    def test_flat_vector_has_zero_top(self):
        v = flat_vector(ThetaLinear(3, -4))
        assert v.trace == ThetaLinear(3, -4)
        assert v.top == top_flat()
        assert v.top.in_lattice()

    def test_gamma_flips_odd_components_only(self):
        v = top_E()
        g = gamma_top(v)
        assert g.trace == v.trace
        assert g.top.p10 == v.top.p10
        assert g.top.p11 == -v.top.p11
        assert g.top.p20 == v.top.p20
        assert g.top.p21 == v.top.p21
        assert g.top.p22 == -v.top.p22
        assert gamma_top(g) == v

    def test_json_shape(self):
        obj = top_eq_plus(1, 2).to_json()
        assert obj["trace"] == {"const": "-2/1", "theta": "4/1"}
        assert obj["top"]["p20"] == "2/1"
        assert obj["top"]["p10"] == {"re": "0/1", "im": "0/1"}


class TestTransfers:
    def test_zeta_trace_map(self):
        v = top_E()  # trace theta' at parameter theta' = nn^2 theta - k
        out = zeta_transfer(v, 3, 2)
        assert out.trace == ThetaLinear(-2, 9)
        out = zeta_transfer(v, 2, -1)
        assert out.trace == ThetaLinear(1, 4)

    def test_zeta_odd_scale_keeps_pattern(self):
        v = top_E()
        out = zeta_transfer(v, 3, 1)
        assert out.top == TopVector(HMI, HMI * GaussRat.i_power(-1), HALF, -HALF, F(1))

    def test_zeta_even_scale_folds(self):
        v = top_E()
        out = zeta_transfer(v, 2, 0)
        assert out.top.p11 == GaussRat(0)
        assert out.top.p21 == 0
        assert out.top.p22 == 0
        assert out.top.p10 == HMI + HMI
        assert out.top.p20 == HALF + HALF + 1

    def test_zeta_rejects_zero_scale(self):
        with pytest.raises(BadInput):
            zeta_transfer(top_E(), 0, 1)

    def test_zeta_law_depends_on_residues_and_callers_cannot_change_it(self):
        law = chern.zeta_law(3, 1)
        assert law == chern.zeta_law(-5, 9)  # nn odd, k = 1 mod 4
        assert law != chern.zeta_law(3, 3) and law != chern.zeta_law(2, 1)
        assert law[TraceKind.t21] == ((TraceKind.t21, -1),)
        assert all(isinstance(row, tuple) for row in law.values())
        law[TraceKind.t21] = ()
        assert chern.zeta_law(3, 1)[TraceKind.t21] == ((TraceKind.t21, -1),)
        with pytest.raises(BadInput):
            chern.zeta_law(0, 1)

    def test_nu_transfer_on_section(self):
        out = nu_transfer(top_E())
        assert out.trace == ThetaLinear(1, -1)
        assert out.top == TopVector(HPI, HMI, HALF, -HALF, F(1))

    def test_nu_transfer_involutive_on_traces(self):
        v = ChernVector(ThetaLinear(2, -5), top_E().top)
        assert nu_transfer(nu_transfer(v)).trace == v.trace


class TestElementLevelTransfer:
    def test_small_windows(self):
        assert verify_lemma_psizeta(1, 0, 2)
        assert verify_lemma_psizeta(2, 1, 2)
        assert verify_lemma_psizeta(3, -1, 2)

    def test_rejects_zero_scale(self):
        with pytest.raises((BadInput, ValueError)):
            verify_lemma_psizeta(0, 1, 2)


class TestCrosscheck:
    def test_both_charges_small(self):
        for p, q in ((1, 2), (1, 3), (2, 3), (3, 5), (1, 1)):
            assert crosscheck_closed_forms(p, q, 1)
            assert crosscheck_closed_forms(p, q, -1)

    def test_rejects_bad_charge(self):
        with pytest.raises((BadInput, ValueError)):
            crosscheck_closed_forms(1, 2, 0)


class TestOneTableFeedsBothLevels:
    # a wrong table entry must be caught by the element-level check and by
    # the vector route alike, because both read that entry

    def test_nu_law(self, monkeypatch):
        monkeypatch.setitem(NU_LAW, TraceKind.t21, (False, 1))
        assert not check_nu_relations(2)
        assert not crosscheck_closed_forms(3, 7, -1)

    def test_gamma_sign(self, monkeypatch):
        monkeypatch.setitem(GAMMA_SIGN, TraceKind.t21, -1)
        assert not check_parity_flip(2)
        assert not certify(SeedParams(1, 3)).sum_ok

    def test_zeta_law(self, monkeypatch):
        law = chern.zeta_law

        def negated_t21(nn, k):
            rows = law(nn, k)
            rows[TraceKind.t21] = [(src, -c) for src, c in rows[TraceKind.t21]]
            return rows

        monkeypatch.setattr(chern, "zeta_law", negated_t21)
        assert not verify_lemma_psizeta(3, 1, 2)
        assert not crosscheck_closed_forms(3, 7, 1)
