"""Expression grammar: parse, canonical print, and error positions."""

from fractions import Fraction

import pytest
from hypothesis import given

from nctorus import ExprSyntaxError, ONE_MINUS_THETA, PhaseScalar, THETA, parse, unparse
from nctorus.exactscalar import GaussRat
from nctorus.exprcli import MAX_DEPTH
from nctorus.ncalgebra import monomial, mul, one, zero

from conftest import nc_elements

F = Fraction


def mono(m, n, c=PhaseScalar.one()):
    return monomial(THETA, c, m, n)


class TestParse:
    def test_generators(self):
        assert parse("U") == mono(1, 0)
        assert parse("V^-2") == mono(0, -2)
        assert parse("U^3*V") == mono(3, 1)

    def test_reorder_produces_single_phase(self):
        assert parse("V*U") == mono(1, 1, c=PhaseScalar.phase(1))
        assert unparse(parse("V*U")) == "ph(1)*U*V"

    def test_scalars(self):
        assert parse("2/3") == mono(0, 0, c=PhaseScalar.from_gauss(GaussRat(F(2, 3))))
        assert parse("i*i") == mono(0, 0, c=PhaseScalar.from_gauss(GaussRat(-1)))
        assert parse("ph(1/2)") == mono(0, 0, c=PhaseScalar.phase(F(1, 2)))
        assert parse("-2*U") == mono(1, 0, c=PhaseScalar.from_gauss(GaussRat(-2)))

    def test_sums_and_precedence(self):
        x = parse("U*V + 1/2*V^-1")
        assert len(x.terms) == 2
        assert x == mul(mono(1, 0), mono(0, 1)) + mono(0, -1, c=PhaseScalar.from_gauss(GaussRat(F(1, 2))))
        # product binds tighter than sum
        assert parse("U + V*U") == mono(1, 0) + mono(1, 1, c=PhaseScalar.phase(1))

    def test_parentheses(self):
        assert parse("(U + V)*U") == mul(mono(1, 0) + mono(0, 1), mono(1, 0))
        assert parse("(1/2)*U") == parse("1/2*U")
        assert parse("((U))") == mono(1, 0)

    def test_cancellation(self):
        assert parse("U*U^-1") == one()
        assert unparse(parse("U*U^-1")) == "1"
        assert parse("U + -1*U") == zero() and not parse("U + -1*U")

    def test_alternate_parameter(self):
        x = parse("U*V", param=ONE_MINUS_THETA)
        assert x.param == ONE_MINUS_THETA

    def test_whitespace_insensitive(self):
        assert parse("  U *V ^ -1 ") == parse("U*V^-1")


class TestErrors:
    CASES = (
        ("U + + V", 4),
        ("U^", 2),
        ("2/-3", 2),
        ("foo", 0),
        ("U @ V", 2),
        ("(U", 2),
        ("", 0),
        ("U)", 1),
        ("ph(1/3", 6),
        ("1/0", 2),
    )

    def test_positions(self):
        for text, pos in self.CASES:
            with pytest.raises(ExprSyntaxError) as err:
                parse(text)
            assert err.value.position == pos, f"{text!r}: {err.value}"
            assert f"(at position {pos})" in str(err.value)

    def test_nesting_bound(self):
        deepest = "(" * MAX_DEPTH + "U" + ")" * MAX_DEPTH
        assert parse(deepest) == mono(1, 0)
        with pytest.raises(ExprSyntaxError) as err:
            parse("(" + deepest + ")")
        # the error points at the first parenthesis past the bound
        assert err.value.position == MAX_DEPTH


class TestUnparse:
    def test_zero_and_one(self):
        assert unparse(zero()) == "0"
        assert unparse(one()) == "1"

    def test_coefficient_forms(self):
        assert unparse(parse("i*U")) == "i*U"
        assert unparse(parse("-1*i*V^2")) == "-1*i*V^2"
        assert unparse(parse("ph(1/2)*U*V")) == "ph(1/2)*U*V"
        # compound coefficients are parenthesized so the text re-parses
        x = mono(1, 0, c=PhaseScalar.one() + PhaseScalar.phase(1))
        assert unparse(x) == "(1 + ph(1))*U"

    def test_term_order_deterministic(self):
        a = parse("V + U")
        b = parse("U + V")
        assert unparse(a) == unparse(b)

    @given(nc_elements(window=4))
    def test_round_trip(self, x):
        text = unparse(x)
        assert parse(text) == x
        assert unparse(parse(text)) == text
