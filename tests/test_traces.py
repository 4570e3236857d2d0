"""Trace functionals: frozen monomial values, linearity, and the law suite."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given

from nctorus import (
    ONE_MINUS_THETA,
    BadInput,
    ParamMismatch,
    PhaseScalar,
    THETA,
    TraceKind,
    psi,
    psi_star,
    verify_lemma_psizeta,
)
from nctorus.exactscalar import PS_ONE, PS_ZERO, GaussRat
from nctorus.ncalgebra import monomial, mul, one, zero
from nctorus.traces import (
    ALL_KINDS,
    check_alpha_trace,
    check_nu_relations,
    check_parity_flip,
    check_sigma_invariance,
    psi_product,
    run_trace_suite,
)

from conftest import nc_elements, phase_scalars

F = Fraction


def mono(m, n, c=PS_ONE):
    return monomial(THETA, c, m, n)


ph = PhaseScalar.phase


class TestFrozenValues:
    # hand-computed from the divisor-delta/phase formulas
    def test_on_unit(self):
        x = one()
        assert psi(TraceKind.tau, x) == PS_ONE
        assert psi(TraceKind.t10, x) == PS_ONE
        assert psi(TraceKind.t11, x) == PS_ZERO
        assert psi(TraceKind.t20, x) == PS_ONE
        assert psi(TraceKind.t21, x) == PS_ZERO
        assert psi(TraceKind.t22, x) == PS_ZERO

    def test_on_generator(self):
        x = mono(1, 0)
        assert psi(TraceKind.tau, x) == PS_ZERO
        assert psi(TraceKind.t10, x) == PS_ZERO
        assert psi(TraceKind.t11, x) == ph(F(-1, 4))
        assert psi(TraceKind.t20, x) == PS_ZERO
        assert psi(TraceKind.t21, x) == PS_ZERO
        assert psi(TraceKind.t22, x) == PS_ONE

    def test_on_product_generator(self):
        x = mono(1, 1)
        assert psi(TraceKind.t10, x) == ph(-1)
        assert psi(TraceKind.t11, x) == PS_ZERO
        assert psi(TraceKind.t20, x) == PS_ZERO
        assert psi(TraceKind.t21, x) == ph(F(-1, 2))
        assert psi(TraceKind.t22, x) == PS_ZERO

    def test_on_squares(self):
        assert psi(TraceKind.t10, mono(2, 0)) == ph(-1)
        assert psi(TraceKind.t10, mono(1, -1)) == PS_ONE
        assert psi(TraceKind.t20, mono(2, 0)) == PS_ONE
        assert psi(TraceKind.t20, mono(2, 2)) == ph(-2)
        assert psi(TraceKind.t22, mono(2, 1)) == ph(-1)
        assert psi(TraceKind.t11, mono(0, 1)) == ph(F(-1, 4))

    def test_tau_reads_constant_coefficient(self):
        x = mono(0, 0, c=PhaseScalar.phase(0, GaussRat(F(3, 2), 0))) + mono(1, 0)
        assert psi(TraceKind.tau, x) == PhaseScalar.phase(0, GaussRat(F(3, 2), 0))

    def test_adjoint_functional(self):
        assert psi_star(TraceKind.t11, mono(1, 0)) == ph(F(1, 4))
        assert psi_star(TraceKind.tau, one()) == PS_ONE


class TestLinearity:
    @given(nc_elements(), nc_elements())
    def test_additive(self, x, y):
        for kind in ALL_KINDS:
            assert psi(kind, x + y) == psi(kind, x) + psi(kind, y)

    @given(nc_elements(), phase_scalars(max_terms=2))
    def test_scalar_homogeneous(self, x, c):
        for kind in ALL_KINDS:
            assert psi(kind, mul(monomial(x.param, c, 0, 0), x)) == c * psi(kind, x)


class TestPsiProduct:
    @given(nc_elements(max_terms=4), nc_elements(max_terms=4))
    def test_equals_psi_of_the_product(self, x, y):
        for kind in ALL_KINDS:
            assert psi_product(kind, x, y) == psi(kind, mul(x, y)), kind

    def test_tau_reads_the_constant_term_of_the_product(self):
        x = mono(1, 2, ph(F(1, 3))) + mono(0, 1)
        y = mono(-1, -2, ph(F(-1, 4), GaussRat(2, 1))) + mono(0, -1) + mono(3, 3)
        # U V^2 U^-1 V^-2 = e(-2 theta) and V V^-1 = 1; U^3 V^3 meets no term
        assert psi_product(TraceKind.tau, x, y) == ph(F(-23, 12), GaussRat(2, 1)) + PS_ONE
        assert psi_product(TraceKind.tau, x, y) == psi(TraceKind.tau, mul(x, y))

    def test_zero_factor_gives_zero(self):
        x = mono(1, 1) + mono(2, 0)
        for kind in ALL_KINDS:
            assert psi_product(kind, zero(), x) is PS_ZERO
            assert psi_product(kind, x, zero()) is PS_ZERO

    def test_parameters_must_agree(self):
        x = monomial(ONE_MINUS_THETA, PS_ONE, 1, 0)
        for kind in ALL_KINDS:
            with pytest.raises(ParamMismatch):
                psi_product(kind, mono(1, 0), x)


class TestTraceKind:
    def test_members_are_found_by_value(self):
        assert TraceKind("t22") is TraceKind.t22
        table = {kind: kind.value for kind in ALL_KINDS}
        assert all(table[TraceKind(kind.value)] == kind.value for kind in ALL_KINDS)

    def test_pickle_returns_the_same_member(self):
        for kind in ALL_KINDS:
            assert pickle.loads(pickle.dumps(kind)) is kind


class TestLaws:
    # small windows here; the acceptance suite runs the full window 6
    def test_alpha_trace_small_window(self):
        assert check_alpha_trace(TraceKind.t10, 1, 2)
        assert check_alpha_trace(TraceKind.t11, 1, 2)
        assert check_alpha_trace(TraceKind.t20, 2, 2)
        assert check_alpha_trace(TraceKind.t21, 2, 2)
        assert check_alpha_trace(TraceKind.t22, 2, 2)

    def test_wrong_power_fails(self):
        # the first pair of functionals obeys the order-one law, not order-two,
        # and the other three the order-two law, not order-one
        assert check_alpha_trace(TraceKind.t10, 2, 3) is False
        for kind, power in ((TraceKind.t10, 2), (TraceKind.t11, 2),
                            (TraceKind.t20, 1), (TraceKind.t21, 1), (TraceKind.t22, 1)):
            assert check_alpha_trace(kind, power, 2) is False, kind

    def test_invalid_power_rejected(self):
        with pytest.raises(BadInput):
            check_alpha_trace(TraceKind.t10, 3, 2)
        with pytest.raises(BadInput):
            check_alpha_trace(TraceKind.t10, 1, 0)

    @pytest.mark.parametrize("check", [
        lambda w: check_alpha_trace(TraceKind.t10, 1, w),
        lambda w: check_sigma_invariance(TraceKind.t20, w),
        check_parity_flip,
        check_nu_relations,
        lambda w: verify_lemma_psizeta(2, 1, w),
    ], ids=["alpha_trace", "sigma_invariance", "parity_flip", "nu_relations", "lemma_psizeta"])
    def test_empty_window_rejected(self, check):
        with pytest.raises(BadInput, match="window must be >= 1, got 0"):
            check(0)

    def test_sigma_invariance_small_window(self):
        for kind in ALL_KINDS:
            assert check_sigma_invariance(kind, 2)

    def test_parity_flip_small_window(self):
        assert check_parity_flip(2)

    def test_nu_relations_small_window(self):
        assert check_nu_relations(2)

    def test_suite_shape(self):
        results = run_trace_suite(2)
        assert len(results) == 13
        assert all(results.values())
