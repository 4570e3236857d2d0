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
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import ExprSyntaxError
from .exactscalar import GR_I, GaussRat, PhaseScalar
from .ncalgebra import NCElement, Param, THETA, monomial, mul

_TOKEN_RE = re.compile(r"\s*(?:(-?\d+)|([A-Za-z]+)|([+*^()/]))")
_NAMES = {"U", "V", "i", "ph"}
#: deepest parenthesis nesting accepted; each level costs about three
#: parser frames, so this stays well under the interpreter's recursion limit
MAX_DEPTH = 100

# token: (kind, text, position); kinds are 'int', 'name', or the symbol itself
Token = Tuple[str, str, int]


def _lex(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == match.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[at]!r}", at)
        if match.group(1) is not None:
            tokens.append(("int", match.group(1), match.start(1)))
        elif match.group(2) is not None:
            name = match.group(2)
            if name not in _NAMES:
                raise ExprSyntaxError(f"unknown symbol {name!r}", match.start(2))
            tokens.append(("name", name, match.start(2)))
        else:
            sym = match.group(3)
            tokens.append((sym, sym, match.start(3)))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str, param: Param):
        self.text = text
        self.param = param
        self.tokens = _lex(text)
        self.idx = 0
        self.depth = 0

    def _peek(self) -> Optional[Token]:
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def _next(self, expect: Optional[str] = None) -> Token:
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        if expect is not None and tok[0] != expect:
            raise ExprSyntaxError(f"expected {expect!r}, found {tok[1]!r}", tok[2])
        self.idx += 1
        return tok

    def parse(self) -> NCElement:
        el = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return el

    def _expr(self) -> NCElement:
        el = self._term()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "+":
                return el
            self._next()
            el = el + self._term()

    def _term(self) -> NCElement:
        el = self._factor()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "*":
                return el
            self._next()
            el = mul(el, self._factor())

    def _rat(self) -> Fraction:
        tok = self._next("int")
        num = int(tok[1])
        nxt = self._peek()
        if nxt is None or nxt[0] != "/":
            return Fraction(num)
        self._next()
        den_tok = self._next("int")
        if den_tok[1].startswith("-"):
            raise ExprSyntaxError("denominator must be unsigned", den_tok[2])
        den = int(den_tok[1])
        if den == 0:
            raise ExprSyntaxError("zero denominator", den_tok[2])
        return Fraction(num, den)

    def _scalar(self, c: PhaseScalar) -> NCElement:
        return monomial(self.param, c, 0, 0)

    def _factor(self) -> NCElement:
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        kind, text, pos = tok
        if kind == "int":
            return self._scalar(PhaseScalar.from_gauss(GaussRat(self._rat())))
        if kind == "name":
            self._next()
            if text == "i":
                return self._scalar(PhaseScalar.from_gauss(GR_I))
            if text == "ph":
                self._next("(")
                r = self._rat()
                self._next(")")
                return self._scalar(PhaseScalar.phase(r))
            # U or V, optional integer power
            power = 1
            nxt = self._peek()
            if nxt is not None and nxt[0] == "^":
                self._next()
                power = int(self._next("int")[1])
            if text == "U":
                return monomial(self.param, PhaseScalar.one(), power, 0)
            return monomial(self.param, PhaseScalar.one(), 0, power)
        if kind == "(":
            if self.depth >= MAX_DEPTH:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            self._next()
            self.depth += 1
            el = self._expr()
            self.depth -= 1
            self._next(")")
            return el
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def parse(text: str, param: Param = THETA) -> NCElement:
    """Parse grammar text into a normal-form element over param."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, param).parse()


def _has_toplevel_plus(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0:
            return True
    return False


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
        cs = str(c)
        if _has_toplevel_plus(cs):
            cs = f"({cs})"
        pieces.append(f"{cs}*{gen_str}")
    return " + ".join(pieces)
