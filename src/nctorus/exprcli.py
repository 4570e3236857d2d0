"""Expression grammar for element input and canonical printing.

Grammar (whitespace insignificant):

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := rat | 'i' | 'ph(' rat ')' | gen | '(' expr ')'
    gen    := ('U' | 'V') ('^' sint)?
    rat    := sint ('/' uint)?

There is no binary minus; negative values ride on rational literals, as
in "-1*i" or "-3/2*U".  "ph(r)" is the formal phase e(theta*r) in the
element's own parameter.  parse builds a normal-form element (so "V*U"
comes back as "ph(1)*U*V") and unparse prints terms in lexicographic
(m, n) order; the two compose to the identity on canonical text.

A term folds its factors left to right into one running
g*e(param*r)*U^m V^n, g a Gaussian rational and r a rational: a literal
or i multiplies g, ph(r) adds to r, U^a and V^b add to m and n, and
moving U^a left past V^n adds the integer n*a to r (V^n U^a =
e(param)^(n*a) U^a V^n).  A parenthesised factor with one term and one
phase folds the same way; any other non-zero one, such as (1 + ph(1/2)),
is multiplied in with ncalgebra.mul.  The terms of an
expression are added into one dict.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .errors import ExprSyntaxError
from .exactscalar import GR_I, GR_ONE, GR_ZERO, PhaseScalar, _accumulate
from .ncalgebra import MonoKey, NCElement, Param, THETA, monomial, mul

_TOKEN_RE = re.compile(r"\s*(?:(-?\d+)|([A-Za-z]+)|([+*^()/])|(\S))")
_NAMES = {"U", "V", "i", "ph"}
#: deepest parenthesis nesting accepted; each level costs about three
#: parser frames, so this stays well under the interpreter's recursion limit
MAX_DEPTH = 100

# token: (kind, text, position); kinds are 'int', 'name', 'end', or the symbol itself
Token = Tuple[str, str, int]


def _lex(text: str) -> List[Token]:
    """The tokens of text, ending in an 'end' token at len(text)."""
    tokens: List[Token] = []
    for match in _TOKEN_RE.finditer(text):
        num, name, sym, other = match.groups()
        if num is not None:
            tokens.append(("int", num, match.start(1)))
        elif name is not None:
            if name not in _NAMES:
                raise ExprSyntaxError(f"unknown symbol {name!r}", match.start(2))
            tokens.append(("name", name, match.start(2)))
        elif sym is not None:
            tokens.append((sym, sym, match.start(3)))
        else:
            raise ExprSyntaxError(f"unexpected character {other!r}", match.start(4))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, param: Param):
        self.param = param
        self.tokens = _lex(text)
        self.idx = 0
        self.depth = 0

    def _next(self, expect: str) -> Token:
        tok = self.tokens[self.idx]
        if tok[0] != expect:
            if tok[0] == "end":
                raise ExprSyntaxError("unexpected end of input", tok[2])
            raise ExprSyntaxError(f"expected {expect!r}, found {tok[1]!r}", tok[2])
        self.idx += 1
        return tok

    def parse(self) -> NCElement:
        el = self._expr()
        tok = self.tokens[self.idx]
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return el

    def _expr(self) -> NCElement:
        acc: Dict[MonoKey, PhaseScalar] = {}
        self._term(acc)
        while self.tokens[self.idx][0] == "+":
            self.idx += 1
            self._term(acc)
        return NCElement(self.param, acc)

    def _term(self, acc: Dict[MonoKey, PhaseScalar]) -> None:
        """Parse one term and add it into acc."""
        g, r, m, n = GR_ONE, 0, 0, 0
        # the factors before the running monomial, once a group went through mul
        head: Optional[NCElement] = None
        while True:
            kind, text, pos = self.tokens[self.idx]
            if kind == "int":
                g = g * self._rat()
            elif kind == "name":
                self.idx += 1
                if text == "i":
                    g = g * GR_I
                elif text == "ph":
                    self._next("(")
                    r += self._rat()
                    self._next(")")
                else:
                    power = 1
                    if self.tokens[self.idx][0] == "^":
                        self.idx += 1
                        power = int(self._next("int")[1])
                    if text == "U":
                        r += n * power
                        m += power
                    else:
                        n += power
            elif kind == "(":
                factor = self._group(pos)
                terms = factor.terms
                phases = next(iter(terms.values())).terms if len(terms) == 1 else ()
                if len(phases) == 1:
                    ((a, b), _), = terms.items()
                    (shift, coeff), = phases.items()
                    g, r = g * coeff, r + n * a + shift
                    m, n = m + a, n + b
                elif not terms:
                    g = GR_ZERO
                else:
                    left = self._running(head, g, r, m, n)
                    head = factor if left is None else mul(left, factor)
                    g, r, m, n = GR_ONE, 0, 0, 0
            elif kind == "end":
                raise ExprSyntaxError("unexpected end of input", pos)
            else:
                raise ExprSyntaxError(f"unexpected token {text!r}", pos)
            if self.tokens[self.idx][0] != "*":
                break
            self.idx += 1
        if head is None:
            coeff = PhaseScalar.phase(r, g)
            if coeff:
                _accumulate(acc, (m, n), coeff)
            return
        for key, c in self._running(head, g, r, m, n).terms.items():
            _accumulate(acc, key, c)

    def _running(self, head: Optional[NCElement], g, r, m: int, n: int) -> Optional[NCElement]:
        """head times the running monomial; None when both are the identity."""
        if g == 1 and not (r or m or n):
            return head
        mono = monomial(self.param, PhaseScalar.phase(r, g), m, n)
        return mono if head is None else mul(head, mono)

    def _group(self, pos: int) -> NCElement:
        if self.depth >= MAX_DEPTH:
            raise ExprSyntaxError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
        self.idx += 1
        self.depth += 1
        el = self._expr()
        self.depth -= 1
        self._next(")")
        return el

    def _rat(self) -> Union[int, Fraction]:
        num = int(self._next("int")[1])
        if self.tokens[self.idx][0] != "/":
            return num
        self.idx += 1
        den_tok = self._next("int")
        if den_tok[1].startswith("-"):
            raise ExprSyntaxError("denominator must be unsigned", den_tok[2])
        den = int(den_tok[1])
        if den == 0:
            raise ExprSyntaxError("zero denominator", den_tok[2])
        return Fraction(num, den)


def parse(text: str, param: Param = THETA) -> NCElement:
    """Parse grammar text into a normal-form element over param."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, param).parse()


def unparse(x: NCElement) -> str:
    """Canonical text: terms in lexicographic (m, n) order, grammar-valid."""
    if not x.terms:
        return "0"
    one = PhaseScalar.one()
    pieces = []
    for key in sorted(x.terms):
        m, n = key
        c = x.terms[key]
        gens = []
        if m:
            gens.append("U" if m == 1 else f"U^{m}")
        if n:
            gens.append("V" if n == 1 else f"V^{n}")
        gen_str = "*".join(gens)
        if not gen_str:
            pieces.append(str(c))
            continue
        if c == one:
            pieces.append(gen_str)
            continue
        # str(c) has a top-level " + " exactly when c has several phases,
        # or one phase-free Gaussian rational with both parts nonzero
        keys = c._keys
        g = keys.get(0)
        cs = f"({c})" if len(keys) > 1 or (g is not None and g._a and g._b) else str(c)
        pieces.append(f"{cs}*{gen_str}")
    return " + ".join(pieces)
