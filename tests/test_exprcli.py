"""Expression grammar: parse, canonical print, and error positions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nctorus import ExprSyntaxError, ONE_MINUS_THETA, PhaseScalar, THETA, parse, unparse
from nctorus.exactscalar import GR_I, GaussRat
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
        assert parse("2/3") == mono(0, 0, c=PhaseScalar.phase(0, GaussRat(F(2, 3))))
        assert parse("i*i") == mono(0, 0, c=PhaseScalar.phase(0, GaussRat(-1)))
        assert parse("ph(1/2)") == mono(0, 0, c=PhaseScalar.phase(F(1, 2)))
        assert parse("-2*U") == mono(1, 0, c=PhaseScalar.phase(0, GaussRat(-2)))

    def test_sums_and_precedence(self):
        x = parse("U*V + 1/2*V^-1")
        assert len(x.terms) == 2
        assert x == mul(mono(1, 0), mono(0, 1)) + mono(0, -1, c=PhaseScalar.phase(0, GaussRat(F(1, 2))))
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


#: atoms as text, each with its value built directly; U, V powers and rationals signed
ATOMS = st.one_of(
    st.tuples(st.integers(-3, 3), st.sampled_from((1, 2, 3))).map(
        lambda nd: (f"{nd[0]}/{nd[1]}", lambda p: monomial(p, PhaseScalar.phase(0, GaussRat(F(*nd))), 0, 0))),
    st.just(("i", lambda p: monomial(p, PhaseScalar.phase(0, GR_I), 0, 0))),
    st.tuples(st.integers(-4, 4), st.sampled_from((1, 2, 4))).map(
        lambda nd: (f"ph({nd[0]}/{nd[1]})", lambda p: monomial(p, PhaseScalar.phase(F(*nd)), 0, 0))),
    st.tuples(st.sampled_from("UV"), st.integers(-3, 3)).map(
        lambda gp: (f"{gp[0]}^{gp[1]}",
                    lambda p: monomial(p, PhaseScalar.one(), *((gp[1], 0) if gp[0] == "U" else (0, gp[1]))))),
)


def _expr_of(terms):
    """An expression from (text, value) terms: the sum of the values."""
    return " + ".join(text for text, _ in terms), lambda p: sum((value(p) for _, value in terms), zero(p))


def _term_of(factors):
    """A term from (text, value) factors: their values multiplied left to right with mul."""
    def value(p):
        out = one(p)
        for _, factor in factors:
            out = mul(out, factor(p))
        return out
    return "*".join(text for text, _ in factors), value


def _group(expr):
    return f"({expr[0]})", expr[1]


# factor := atom | '(' expr ')', expr := term ('+' term)*, term := factor ('*' factor)*
EXPRS = st.recursive(
    ATOMS.map(lambda atom: _expr_of([_term_of([atom])])),
    lambda inner: st.lists(st.lists(st.one_of(ATOMS, inner.map(_group)), min_size=1, max_size=4).map(_term_of),
                           min_size=1, max_size=3).map(_expr_of),
    max_leaves=12,
)


class TestOnePassFold:
    """parse against the product, left to right with mul, of each factor parsed alone."""

    @given(EXPRS, st.sampled_from((THETA, ONE_MINUS_THETA)))
    def test_matches_factor_by_factor_product(self, expr, param):
        text, value = expr
        assert parse(text, param) == value(param), text

    @pytest.mark.parametrize("text", [
        "(1 + ph(1/2))*U",                       # a compound scalar
        "V*(1 + ph(1/2))*U*(2 + -1*ph(-1/3))",   # two compound scalars around a reorder
        "(3 + -1*i)*V^2*U",                      # a one-term group of several literals
        "(U + V)*V^-1*U^2",                      # several terms at the start of a term
        "V*U^-1*(U + i*V)*U",                    # in the middle
        "2*V*U*(U^-1 + ph(1/4)*V)",              # at the end
        "(U + V)*(U + -1*V)*(1 + ph(1))",        # two in a row, then a compound scalar
        "(1 + ph(1/2))*(U + V)*V",               # a compound scalar, then several terms
        "V^2*(ph(1/3)*U^-1*V)*U",                # a one-term group moved past V^2
        "V*(ph(1/2)*U + ph(1/3)*U)*V",           # a one-term group of several phases
        "0*U", "U*0*V", "U*(U + -1*U)", "(U + -1*U)*(U + V)", "(U + V)*0",
        "((U + (V*U + 1)*V)*(i + U))*V^-2",      # nesting
        "V^3*U^2", "V^-3*U^2", "V^3*U^-2", "V^-2*U^-3",
    ])
    def test_named_cases(self, text):
        factors = []
        depth, start = 0, 0
        for pos, ch in enumerate(text + "*"):
            depth += (ch == "(") - (ch == ")")
            if ch == "*" and depth == 0:
                factors.append(text[start:pos])
                start = pos + 1
        want = one()
        for factor in factors:
            want = mul(want, parse(factor[1:-1]) if factor.startswith("(") else parse(factor))
        assert parse(text) == want


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

    #: the lexer's catch-all character and trailing whitespace, at the positions they always had
    LEXER_CASES = (
        ("U - V", 2),
        ("U # V", 2),
        ("U *  ", 5),
    )

    def test_positions(self):
        for text, pos in self.CASES + self.LEXER_CASES:
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


def _scan_unparse(x):
    """Reference printer: a coefficient is parenthesised when its text has a '+' outside parentheses."""

    def toplevel_plus(text):
        depth = 0
        for ch in text:
            depth += (ch == "(") - (ch == ")")
            if ch == "+" and depth == 0:
                return True
        return False

    if not x.terms:
        return "0"
    pieces = []
    for (m, n), c in sorted(x.terms.items()):
        gen_str = "*".join(g if p == 1 else f"{g}^{p}" for g, p in (("U", m), ("V", n)) if p)
        if not gen_str:
            pieces.append(str(c))
        elif c == PhaseScalar.one():
            pieces.append(gen_str)
        else:
            cs = str(c)
            pieces.append(f"({cs})*{gen_str}" if toplevel_plus(cs) else f"{cs}*{gen_str}")
    return " + ".join(pieces)


#: one part of a Gaussian rational: zero, or a signed rational
_PARTS = st.one_of(st.just(F(0)), st.tuples(st.integers(-5, 5).filter(bool), st.sampled_from((1, 2, 3))).map(
    lambda nd: F(*nd)))
#: nonzero Gaussian rationals: real, imaginary, or both parts nonzero, of either sign
_GAUSS = st.tuples(_PARTS, _PARTS).filter(any).map(lambda ab: GaussRat(*ab))
#: coefficients of every printed shape: one phase-free Gaussian, one phase, or several phases
_COEFFS = st.one_of(
    _GAUSS.map(lambda g: PhaseScalar.phase(0, g)),
    st.tuples(st.sampled_from((F(1, 2), F(-1, 3), F(2))), _GAUSS).map(lambda rg: PhaseScalar.phase(*rg)),
    st.lists(st.tuples(st.sampled_from((0, F(1, 2), F(-1, 4), 1)), _GAUSS), min_size=2, max_size=3).map(
        lambda rgs: sum((PhaseScalar.phase(*rg) for rg in rgs), PhaseScalar.zero())),
)


class TestUnparseParentheses:
    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), _COEFFS), max_size=4))
    def test_matches_text_scan(self, terms):
        x = sum((mono(m, n, c) for m, n, c in terms), zero())
        text = unparse(x)
        assert text == _scan_unparse(x)
        assert parse(text) == x

    def test_edge_cases(self):
        for text in ("3 + 2*i", "(3 + 2*i)*V", "-1*i*U", "(1 + ph(1/2))*U",
                     "(2 + ph(1/3) + -1*i*ph(-1/4))*U*V", "(-3/2 + -1*i)*U^2", "(2 + -1*i)*ph(1/2)*U"):
            x = parse(text)
            assert unparse(x) == _scan_unparse(x)
            assert parse(unparse(x)) == x
        assert unparse(parse("(3 + 2*i)*V")) == "(3 + 2*i)*V"
        assert unparse(parse("(2 + -1*i)*ph(1/2)*U")) == "(2 + -1*i)*ph(1/2)*U"
