"""Exact scalar kernel: Gaussian rationals, phase sums, theta-linear forms."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nctorus import (
    BadInput,
    DomainPhase,
    GaussRat,
    Interval,
    Param,
    PhaseScalar,
    ThetaLinear,
    parse_rat,
    rat_str,
    tl_sign,
)
from nctorus.exactscalar import GR_I, GR_ONE, GR_ZERO, PS_ONE, PS_ZERO

from conftest import fractions_small, gauss_rats, phase_scalars

F = Fraction


class TestGaussRat:
    def test_frozen_arithmetic(self):
        a = GaussRat(1, 2)
        b = GaussRat(3, -1)
        assert a * b == GaussRat(5, 5)
        assert a + b == GaussRat(4, 1)
        assert a - b == GaussRat(-2, 3)
        assert -a == GaussRat(-1, -2)
        assert GR_I * GR_I == GaussRat(-1, 0)

    def test_i_power_cycle(self):
        assert GaussRat.i_power(0) == GR_ONE
        assert GaussRat.i_power(1) == GR_I
        assert GaussRat.i_power(2) == GaussRat(-1, 0)
        assert GaussRat.i_power(3) == GaussRat(0, -1)
        assert GaussRat.i_power(-1) == GaussRat(0, -1)
        assert GaussRat.i_power(101) == GR_I

    def test_str_grammar_compatible(self):
        assert str(GaussRat(1, 0)) == "1"
        assert str(GaussRat(0, 1)) == "i"
        assert str(GaussRat(0, -1)) == "-1*i"
        assert str(GaussRat(F(1, 2), F(-1, 2))) == "1/2 + -1/2*i"
        assert str(GaussRat(-2, 1)) == "-2 + i"
        assert str(GR_ZERO) == "0"

    @given(gauss_rats(), gauss_rats(), gauss_rats())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * b == b * a
        assert a + b == b + a

    @given(gauss_rats(), gauss_rats())
    def test_conjugate_is_ring_involution(self, a, b):
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


class TestPhaseScalar:
    def test_frozen_cases(self):
        x = PhaseScalar.phase(1) + PhaseScalar.phase(-1)
        y = PhaseScalar.phase(2)
        assert x * y == PhaseScalar.phase(3) + PhaseScalar.phase(1)
        assert PhaseScalar.phase(1) - PhaseScalar.phase(1) == PS_ZERO
        assert PhaseScalar.phase(0, GR_ONE) == PS_ONE

    def test_shift_translates_exponents(self):
        x = PhaseScalar.phase(F(1, 2), GR_I) + PS_ONE
        assert x.shift(F(3, 2)) == PhaseScalar.phase(2, GR_I) + PhaseScalar.phase(F(3, 2))

    def test_rebase_changes_parameter(self):
        # e(theta r) with theta = -theta' + 1: e(r) |-> e(r) e(theta')^{-r}
        x = PhaseScalar.phase(1)
        assert x.rebase(-1, 1) == PhaseScalar.phase(-1)
        x = PhaseScalar.phase(F(1, 2))
        assert x.rebase(-1, 1) == PhaseScalar.phase(F(-1, 2), GaussRat(-1, 0))
        # theta = 4 theta' - 1: e(-r) is 1 at integer r, so only the stretch remains
        assert PhaseScalar.phase(1).rebase(4, -1) == PhaseScalar.phase(4)
        # a genuine quarter offset contributes a fourth root of unity
        assert PhaseScalar.phase(1).rebase(4, F(-1, 4)) == PhaseScalar.phase(4, GaussRat(0, -1))

    def test_rebase_rejects_non_quarter_offset(self):
        with pytest.raises(DomainPhase):
            PhaseScalar.phase(F(1, 3)).rebase(1, F(1, 2))

    def test_rebase_of_zero_is_zero_after_the_argument_checks(self):
        assert PS_ZERO.rebase(1, F(1, 2)) is PS_ZERO
        assert PS_ZERO.rebase(-1, 3) is PS_ZERO
        with pytest.raises(TypeError):
            PS_ZERO.rebase(1.5, 0)
        with pytest.raises(TypeError):
            PS_ZERO.rebase(1, 0.5)

    def test_rebase_rejects_zero_slope_like_param(self):
        # no algebra has parameter 0*theta + mu, so neither does rebase
        with pytest.raises(ValueError) as from_param:
            Param(0, 0)
        for x in (PS_ZERO, PhaseScalar.phase(F(1, 2), GR_I)):
            for mu in (0, F(1, 4)):
                with pytest.raises(type(from_param.value)):
                    x.rebase(0, mu)
                with pytest.raises(type(from_param.value)):
                    x.rebase(F(0), mu)

    @given(phase_scalars(), phase_scalars(), phase_scalars())
    def test_ring_axioms(self, a, b, c):
        assert a * (b * c) == (a * b) * c
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c

    @given(phase_scalars(), phase_scalars())
    def test_conjugation_involution(self, a, b):
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(phase_scalars(), fractions_small(), fractions_small())
    def test_shift_additive(self, a, r, s):
        assert a.shift(r).shift(s) == a.shift(r + s)
        assert a.shift(0) == a

    @given(phase_scalars(dens=(1, 2, 4)), st.integers(min_value=-3, max_value=3).filter(bool),
           st.integers(min_value=-3, max_value=3))
    def test_rebase_is_ring_map(self, a, lam, mu):
        # integer offsets and quarter-lattice exponents keep rebase total
        b = PhaseScalar.phase(F(1, 2), GaussRat(1, 1))
        assert (a * b).rebase(lam, mu) == a.rebase(lam, mu) * b.rebase(lam, mu)
        assert (a + b).rebase(lam, mu) == a.rebase(lam, mu) + b.rebase(lam, mu)

    @given(phase_scalars())
    def test_rebase_identity(self, a):
        assert a.rebase(1, 0) == a


class TestThetaLinear:
    def test_basics(self):
        t = ThetaLinear(1, -2)
        assert t.at(F(1, 4)) == F(1, 2)
        assert t + t == ThetaLinear(2, -4)
        assert 3 * t == ThetaLinear(3, -6)
        assert t - t == ThetaLinear(0, 0)
        assert t.to_json() == {"const": "1/1", "theta": "-2/1"}

    def test_str(self):
        assert str(ThetaLinear(1, -2)) == "1 + -2*theta"
        assert str(ThetaLinear(F(1, 2), F(3, 4))) == "1/2 + 3/4*theta"


class TestValueTypes:
    def test_fields_are_frozen(self):
        for value, field in ((ThetaLinear(1, 2), "const"), (Interval(0, 1), "hi")):
            with pytest.raises(AttributeError):
                setattr(value, field, F(3))

    def test_int_and_fraction_inputs_agree(self):
        pairs = ((ThetaLinear(2, -5), ThetaLinear(F(2), F(-5))), (ThetaLinear(), ThetaLinear(F(0), F(0))),
                 (Interval(0, 1), Interval(F(0), F(1))))
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
        assert type(ThetaLinear(2, -5).const) is F and type(Interval(0, 1).hi) is F

    def test_rejects_bad_values(self):
        with pytest.raises(BadInput, match="empty interval"):
            Interval(1, 1)
        with pytest.raises(TypeError):
            ThetaLinear(0.5, 1)


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(BadInput):
            Interval(F(1, 2), F(1, 2))
        with pytest.raises(BadInput):
            Interval(F(2, 3), F(1, 3))

    def test_contains_open(self):
        iv = Interval(F(1, 3), F(1, 2))
        assert (iv.lo, iv.hi) == (F(1, 3), F(1, 2))
        assert iv.width() == F(1, 6)
        assert iv.midpoint() == F(5, 12)
        assert iv.lo < iv.midpoint() < iv.hi
        assert iv == Interval(F(1, 3), F(1, 2)) and iv != Interval(F(1, 3), F(2, 3))
        assert iv.to_json() == {"lo": "1/3", "hi": "1/2"}


class TestTlSign:
    def test_definite_signs(self):
        window = Interval(F(1, 4), F(1, 3))
        assert tl_sign(ThetaLinear(0, 1), window) == 1
        assert tl_sign(ThetaLinear(0, -1), window) == -1
        assert tl_sign(ThetaLinear(1, -3), window) == 1  # 1 - 3*theta > 0 on (1/4, 1/3)
        assert tl_sign(ThetaLinear(-1, 3), window) == -1

    def test_endpoint_zero_is_tolerated_on_open_window(self):
        window = Interval(F(1, 4), F(1, 3))
        # 1 - 4*theta vanishes at the left endpoint, negative inside
        assert tl_sign(ThetaLinear(1, -4), window) == -1
        # 1 - 3*theta vanishes at the right endpoint, positive inside
        assert tl_sign(ThetaLinear(1, -3), window) == 1

    def test_indeterminate_when_crossing(self):
        window = Interval(F(1, 4), F(1, 2))
        assert tl_sign(ThetaLinear(-1, 3), window) is None

    def test_identically_zero_reports_zero(self):
        window = Interval(F(1, 4), F(1, 2))
        assert tl_sign(ThetaLinear(0, 0), window) == 0

    @given(fractions_small(max_num=6), fractions_small(max_num=6))
    def test_sign_matches_midpoint_value_when_definite(self, c, s):
        window = Interval(F(1, 5), F(2, 5))
        t = ThetaLinear(c, s)
        sign = tl_sign(t, window)
        value = t.at(window.midpoint())
        if sign is not None and value != 0:
            assert (value > 0) == (sign == 1)


class TestRatText:
    def test_denominator_always_explicit(self):
        assert rat_str(F(0)) == "0/1"
        assert rat_str(F(-3)) == "-3/1"
        assert rat_str(F(5, 7)) == "5/7"

    @given(fractions_small(max_num=20, dens=(1, 2, 3, 4, 7, 12)))
    def test_round_trip(self, x):
        assert parse_rat(rat_str(x)) == x

    def test_parse_errors(self):
        for bad in ("", "1/0", "1/-2", "x"):
            with pytest.raises(BadInput):
                parse_rat(bad)


class TestCanonicalForm:
    # one value, one stored form: equality and hashing compare ints

    @given(phase_scalars())
    def test_terms_round_trip(self, x):
        y = PhaseScalar(x.terms)
        assert y == x and hash(y) == hash(x)
        assert all(isinstance(r, Fraction) and isinstance(c, GaussRat) for r, c in x.terms.items())

    def test_terms_is_read_only(self):
        x = PhaseScalar.phase(F(1, 2))
        with pytest.raises(TypeError):
            x.terms[F(1, 2)] = GR_I
        assert x == PhaseScalar.phase(F(1, 2))

    def test_routes_to_one_value_agree(self):
        ph = PhaseScalar.phase
        pairs = [
            (ph(F(1, 4)).shift(F(1, 4)), ph(F(1, 2))),
            ((ph(F(1, 4)) + ph(F(3, 4))) * ph(F(1, 4)), ph(F(1, 2)) + ph(1)),
            ((ph(F(1, 4)) + ph(1)) - ph(F(1, 4)), ph(1)),
            (ph(F(1, 3)) * ph(F(2, 3)), ph(1)),
            (ph(F(1, 2)).rebase(2, 0), ph(1)),
            (ph(F(3, 2)).rebase(F(1, 3), 0), ph(F(1, 2))),
        ]
        for got, want in pairs:
            assert got == want and hash(got) == hash(want)
            assert got.terms == want.terms

    def test_gauss_rat_forms(self):
        a = GaussRat(F(2, 4), F(1, 2))
        assert a == GaussRat(F(1, 2), F(1, 2)) and hash(a) == hash(GaussRat(F(1, 2), F(1, 2)))
        # (1 + i)/2 * (1 - i) = 1: the product's triple is reduced
        assert a * GaussRat(1, -1) == GR_ONE and hash(a * GaussRat(1, -1)) == hash(GR_ONE)
        assert GaussRat(3, 0) == 3 and GaussRat(3, 0) == Fraction(3)
        assert GaussRat(F(3, 2)) == F(3, 2) and GaussRat(F(3, 2)) != 1
        assert GaussRat(F(1, 2), 1) != F(1, 2)
        assert (a.re, a.im) == (F(1, 2), F(1, 2))
        assert isinstance(a.re, Fraction) and isinstance(GaussRat(3).im, Fraction)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            GR_I.re = 1
        with pytest.raises(AttributeError):
            PS_ONE.terms = {}

    def test_text_and_json(self):
        # the strings the Fraction-based kernel printed for the same values
        ph = PhaseScalar.phase
        h = GaussRat(F(1, 2), F(-1, 2))
        x = (ph(F(1, 4)) + ph(F(3, 4), h)) * ph(F(1, 4), GaussRat(F(2, 3), 1))
        assert str(x) == "(2/3 + i)*ph(1/2) + (5/6 + 1/6*i)*ph(1)"
        y = x.rebase(-1, 1).shift(F(1, 6)) + ph(0, GaussRat(F(-3, 4)))
        assert str(y) == "(5/6 + 1/6*i)*ph(-5/6) + (-2/3 + -1*i)*ph(-1/3) + -3/4"
        assert str(y.conjugate()) == "-3/4 + (-2/3 + i)*ph(1/3) + (5/6 + -1/6*i)*ph(5/6)"
        assert str(ph(F(-5, 2), GaussRat(0, -1)) + ph(2, GaussRat(F(7, 3), 0))) == "(-1*i)*ph(-5/2) + 7/3*ph(2)"
        g = GaussRat(F(6, 4), F(-9, 3)) * GaussRat(F(1, 3), F(1, 2))
        assert g.to_json() == {"re": "2/1", "im": "-1/4"}
        assert repr(g) == "GaussRat(Fraction(2, 1), Fraction(-1, 4))"


# --- a dict-of-Fraction reference: exponent -> (re, im) ------------------------

def _ref(x: PhaseScalar) -> dict:
    return {r: (c.re, c.im) for r, c in x.terms.items()}


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for r, (x, y) in b.items():
        u, v = out.pop(r, (F(0), F(0)))
        if (x + u, y + v) != (0, 0):
            out[r] = (x + u, y + v)
    return out


def _ref_times(r, c: tuple, d: tuple) -> dict:
    (x, y), (u, v) = c, d
    return {r: (x * u - y * v, x * v + y * u)}


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for r, c in a.items():
        for s, d in b.items():
            out = _ref_add(out, _ref_times(r + s, c, d))
    return out


def _ref_rebase(a: dict, lam: Fraction, mu: Fraction) -> dict:
    out: dict = {}
    for r, c in a.items():
        four = 4 * mu * r
        if four.denominator != 1:
            raise DomainPhase(f"e({mu * r}) is not a Gaussian rational")
        root = ((1, 0), (0, 1), (-1, 0), (0, -1))[four.numerator % 4]
        out = _ref_add(out, _ref_times(lam * r, c, root))
    return out


class TestAgainstFractionReference:
    @given(phase_scalars(), phase_scalars())
    def test_ring_operations(self, a, b):
        ra, rb = _ref(a), _ref(b)
        assert _ref(a + b) == _ref_add(ra, rb)
        assert _ref(a - b) == _ref_add(ra, {r: (-x, -y) for r, (x, y) in rb.items()})
        assert _ref(a * b) == _ref_mul(ra, rb)
        assert _ref(a.conjugate()) == {-r: (x, -y) for r, (x, y) in ra.items()}

    @given(phase_scalars(), phase_scalars(), st.integers(min_value=-5, max_value=5))
    def test_mul_shift(self, a, b, n):
        # one triple: a * b * e(theta*n)
        want = {r + n: c for r, c in _ref_mul(_ref(a), _ref(b)).items()}
        assert _ref(PhaseScalar.sum_products([(a, b, n)], 1)) == want

    @given(phase_scalars(), phase_scalars(), st.integers(min_value=-9, max_value=9),
           st.integers(min_value=-9, max_value=9), st.sampled_from([1, 2, 3, 4, 6]))
    def test_sum_shifted(self, a, b, s, t, den):
        # c * 1 * e(theta*s/den) summed over the pairs
        want = _ref_add({r + F(s, den): c for r, c in _ref(a).items()},
                        {r + F(t, den): c for r, c in _ref(b).items()})
        assert _ref(PhaseScalar.sum_products([(a, PS_ONE, s), (b, PS_ONE, t)], den)) == want

    @given(st.lists(st.tuples(phase_scalars(dens=(1, 2, 3, 4, 6)), phase_scalars(dens=(1, 2, 3, 4, 6)),
                              st.integers(min_value=-9, max_value=9)), max_size=3),
           st.sampled_from([1, 2, 3, 4, 6]))
    def test_sum_products(self, parts, den):
        # a * b * e(theta*s/den) summed over the triples
        want: dict = {}
        for a, b, s in parts:
            want = _ref_add(want, {r + F(s, den): c for r, c in _ref_mul(_ref(a), _ref(b)).items()})
        assert _ref(PhaseScalar.sum_products(parts, den)) == want

    def test_sum_products_cancels_to_zero(self):
        a = PhaseScalar.phase(F(1, 2), GaussRat(1, 2)) + PhaseScalar.phase(F(1, 3), GR_I)
        b = PhaseScalar.phase(F(-1, 6), GaussRat(F(1, 3)))
        # a * b * e(theta/2) and -a * (b * e(theta/2)) cancel, term by term
        total = PhaseScalar.sum_products([(a, b, 1), (-a, b.shift(F(1, 2)), 0)], 2)
        assert total is PS_ZERO
        assert PhaseScalar.sum_products([], 4) is PS_ZERO

    @given(phase_scalars(), st.integers(min_value=-5, max_value=5), fractions_small())
    def test_shift(self, a, n, r):
        for s in (n, r):
            assert _ref(a.shift(s)) == {q + s: c for q, c in _ref(a).items()}

    @given(phase_scalars(), fractions_small(max_num=4).filter(bool),
           st.sampled_from([F(0), F(1), F(-2), F(1, 2), F(-3, 4), F(1, 3)]))
    def test_rebase(self, a, lam, mu):
        try:
            want = _ref_rebase(_ref(a), lam, mu)
        except DomainPhase:
            with pytest.raises(DomainPhase):
                a.rebase(lam, mu)
            return
        assert _ref(a.rebase(lam, mu)) == want

    def test_rebase_by_half_slope(self):
        a = PhaseScalar.phase(F(1, 3), GaussRat(1, 2)) + PhaseScalar.phase(2, GR_I)
        assert _ref(a.rebase(F(1, 2), 0)) == _ref_rebase(_ref(a), F(1, 2), F(0))
        assert a.rebase(F(1, 2), 0) == PhaseScalar.phase(F(1, 6), GaussRat(1, 2)) + PhaseScalar.phase(1, GR_I)
