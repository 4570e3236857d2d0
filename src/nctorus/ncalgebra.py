"""Normal-form noncommutative Laurent polynomials in two unitaries U, V.

An element of the algebra with parameter lam*theta + mu is a finite sum
``sum c_{mn} U^m V^n`` with PhaseScalar coefficients, kept in the normal
form "U-power before V-power".  The defining relation is

    V U = e(param) U V,

so the one reordering rule is V^n U^m = e(param)^(n*m) U^m V^n.  Phase
exponents are always counted in the element's own parameter symbol; only
the reparametrizing morphisms nu and zeta convert them back to base theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from .errors import ParamMismatch
from .exactscalar import PhaseScalar, _accumulate, as_fraction

MonoKey = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class Param:
    """The algebra parameter lam*theta + mu, lam != 0."""

    lam: Fraction
    mu: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "lam", as_fraction(self.lam))
        if not self.lam:
            raise ValueError("parameter slope lam must be nonzero")
        object.__setattr__(self, "mu", as_fraction(self.mu))

    def __str__(self) -> str:
        if self.lam == 1 and self.mu == 0:
            return "theta"
        return f"{self.lam}*theta + {self.mu}"


#: base parameter theta itself
THETA = Param(1, 0)
#: parameter 1 - theta (domain of nu)
ONE_MINUS_THETA = Param(-1, 1)


def scaled_param(nn: int, k: int) -> Param:
    """The parameter nn^2*theta - k (domain of zeta(nn, k, .))."""
    return Param(nn * nn, -k)


class NCElement:
    """Finite normal-form sum ``sum c_{mn} U^m V^n`` over one parameter."""

    __slots__ = ("param", "terms")

    def __init__(self, param: Param, terms: Optional[Mapping[MonoKey, PhaseScalar]] = None):
        clean: Dict[MonoKey, PhaseScalar] = {}
        if terms:
            for (m, n), c in terms.items():
                if c:
                    clean[(m, n)] = c
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("NCElement is immutable")

    @staticmethod
    def _raw(param: Param, terms: Dict[MonoKey, PhaseScalar]) -> "NCElement":
        el = NCElement.__new__(NCElement)
        object.__setattr__(el, "param", param)
        object.__setattr__(el, "terms", terms)
        return el

    def __eq__(self, other) -> bool:
        if isinstance(other, NCElement):
            return self.param == other.param and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.param, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "NCElement") -> "NCElement":
        _require_same_param(self, other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(acc, key, c)
        return NCElement._raw(self.param, acc)

    def __neg__(self) -> "NCElement":
        return NCElement._raw(self.param, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "NCElement") -> "NCElement":
        return self + (-other)

    def __mul__(self, other: "NCElement") -> "NCElement":
        return mul(self, other)

    def __str__(self) -> str:
        from .exprcli import unparse

        return unparse(self)

    def __repr__(self) -> str:
        return f"<NCElement[{self.param}] {self}>"


def _require_same_param(x: NCElement, y: NCElement) -> None:
    if x.param is not y.param and x.param != y.param:
        raise ParamMismatch(f"parameters differ: {x.param} vs {y.param}")


def zero(param: Param = THETA) -> NCElement:
    return NCElement._raw(param, {})


def one(param: Param = THETA) -> NCElement:
    return NCElement._raw(param, {(0, 0): PhaseScalar.one()})


def monomial(param: Param, c: PhaseScalar, m: int, n: int) -> NCElement:
    """Single-term element c * U^m V^n (zero if c is zero)."""
    if not c:
        return NCElement._raw(param, {})
    return NCElement._raw(param, {(m, n): c})


def mul(x: NCElement, y: NCElement) -> NCElement:
    """Product under V^b U^c = e(param)^(b*c) U^c V^b, result canonical."""
    _require_same_param(x, y)
    groups: Dict[MonoKey, list] = {}
    for (a, b), cx in x.terms.items():
        for (c, d), cy in y.terms.items():
            groups.setdefault((a + c, b + d), []).append((cx, cy, b * c))
    # one sum of products, so one reduction, per output monomial
    terms: Dict[MonoKey, PhaseScalar] = {}
    for key, group in groups.items():
        c = PhaseScalar.sum_products(group, 1)
        if c:
            terms[key] = c
    return NCElement._raw(x.param, terms)


def star(x: NCElement) -> NCElement:
    """Adjoint: conjugate-linear, anti-multiplicative, involutive.

    Termwise (c U^m V^n)* = conj(c) e(param)^(m*n) U^-m V^-n.
    """
    out: Dict[MonoKey, PhaseScalar] = {}
    for (m, n), c in x.terms.items():
        coeff = c.conjugate()
        mn = m * n
        if mn:
            coeff = coeff.shift(mn)
        out[(-m, -n)] = coeff
    return NCElement._raw(x.param, out)


def sigma(x: NCElement) -> NCElement:
    """The order-four Fourier automorphism U -> V^-1, V -> U.

    Termwise c U^m V^n -> c e(param)^(-m*n) U^n V^-m; scalars are fixed.
    """
    out: Dict[MonoKey, PhaseScalar] = {}
    for (m, n), c in x.terms.items():
        mn = m * n
        if mn:
            c = c.shift(-mn)
        out[(n, -m)] = c
    return NCElement._raw(x.param, out)


def gamma(x: NCElement) -> NCElement:
    """The parity automorphism U -> -U, V -> -V."""
    out: Dict[MonoKey, PhaseScalar] = {}
    for (m, n), c in x.terms.items():
        out[(m, n)] = c if (m + n) % 2 == 0 else -c
    return NCElement._raw(x.param, out)


def nu(x: NCElement) -> NCElement:
    """The swap isomorphism from parameter 1-theta to theta: U' -> V, V' -> U.

    Termwise c U'^m V'^n -> rebase(c) e(theta)^(m*n) U^n V^m.  Coefficient
    phases convert by e((1-theta)*r) = e(r) * e(theta)^(-r), so every
    exponent must be a quarter-integer (DomainPhase otherwise).
    """
    if x.param != ONE_MINUS_THETA:
        raise ParamMismatch(f"nu acts on parameter {ONE_MINUS_THETA}, got {x.param}")
    # (m, n) -> (n, m) is injective, so no two terms merge
    return NCElement._raw(THETA, {(n, m): c.rebase(-1, 1).shift(m * n) for (m, n), c in x.terms.items()})


def zeta(nn: int, k: int, x: NCElement) -> NCElement:
    """The power embedding from parameter nn^2*theta - k: U' -> U^nn, V' -> V^nn.

    Termwise c U'^m V'^n -> rebase(c) U^(nn*m) V^(nn*n) (already normal
    ordered).  Coefficient phases convert by
    e((nn^2*theta - k)*r) = e(-k*r) * e(theta)^(nn^2*r).
    """
    if nn == 0:
        raise ValueError("zeta needs nn != 0")
    lam = nn * nn
    if x.param.lam != lam or x.param.mu != -k:
        raise ParamMismatch(f"zeta({nn},{k}) acts on parameter {scaled_param(nn, k)}, got {x.param}")
    # nn != 0 makes (m, n) -> (nn*m, nn*n) injective, so no two terms merge
    return NCElement._raw(THETA, {(nn * m, nn * n): c.rebase(lam, -k) for (m, n), c in x.terms.items()})
