"""Invariant vectors of Fourier-fixed projections and their transfer laws.

A projection's invariant data is its trace (linear in theta) together
with the five discrete functional values, collected as

    TopVector  = (p10, p11; p20, p21, p22)
    ChernVector = (trace; TopVector)

Closed forms are provided for the standard positively and negatively
charged projections, and the same vectors are recomputed independently by
pushing the universal section vector through the scaling morphism's
transfer coefficients (plus the swap isomorphism for negative charge).
The two routes agreeing is the point of crosscheck_closed_forms.

The transfer laws are stated once each: gamma and nu by the GAMMA_SIGN and
NU_LAW tables of traces, zeta by zeta_law here.  The element-level checks
(traces.check_parity_flip, traces.check_nu_relations, verify_lemma_psizeta)
and the vector maps (gamma_top, nu_transfer, zeta_transfer) read the same
entries, so the law that is checked is the law certify uses.

All five discrete values land in a lattice: p10, p11 in Z + Z(1-i)/2 and
p20, p21 in Z/2, p22 in Z.  in_lattice checks this.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Tuple

from .errors import BadInput
from .exactscalar import PS_ZERO, GaussRat, RationalLike, ThetaLinear, as_fraction, rat_str
from .ncalgebra import scaled_param, zeta
from .traces import GAMMA_SIGN, NU_LAW, UNBOUNDED_KINDS, TraceKind, _times, _window, psi

_HALF = Fraction(1, 2)
HALF_ONE_MINUS_I = GaussRat(_HALF, -_HALF)
HALF_ONE_PLUS_I = GaussRat(_HALF, _HALF)


def _d2(x: int) -> int:
    """Divisor delta: 1 when 2 divides x, else 0."""
    return 1 if x % 2 == 0 else 0


def _parity_sign(x: int) -> int:
    """(-1)**x as an exact int for any integer x."""
    return -1 if x % 2 else 1


def _half_integer(x: Fraction) -> bool:
    return (2 * x).denominator == 1


def _in_corner_lattice(z: GaussRat) -> bool:
    # z = a + b(1-i)/2 with integer a,b  <=>  re+im integral and 2*im integral
    return (z.re + z.im).denominator == 1 and _half_integer(z.im)


@dataclass(frozen=True)
class TopVector:
    """The five discrete invariant values of an element."""

    p10: GaussRat
    p11: GaussRat
    p20: Fraction
    p21: Fraction
    p22: Fraction

    def __add__(self, other: "TopVector") -> "TopVector":
        return TopVector(
            self.p10 + other.p10,
            self.p11 + other.p11,
            self.p20 + other.p20,
            self.p21 + other.p21,
            self.p22 + other.p22,
        )

    def in_lattice(self) -> bool:
        return (
            _in_corner_lattice(self.p10)
            and _in_corner_lattice(self.p11)
            and _half_integer(self.p20)
            and _half_integer(self.p21)
            and self.p22.denominator == 1
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "p10": self.p10.to_json(),
            "p11": self.p11.to_json(),
            "p20": rat_str(self.p20),
            "p21": rat_str(self.p21),
            "p22": rat_str(self.p22),
        }

    def __str__(self) -> str:
        return f"({self.p10}, {self.p11}; {self.p20}, {self.p21}, {self.p22})"


def _top(p10: GaussRat, p11: GaussRat, p20: RationalLike, p21: RationalLike, p22: RationalLike) -> TopVector:
    return TopVector(p10, p11, as_fraction(p20), as_fraction(p21), as_fraction(p22))


@dataclass(frozen=True)
class ChernVector:
    """Trace plus the discrete invariant vector."""

    trace: ThetaLinear
    top: TopVector

    def __add__(self, other: "ChernVector") -> "ChernVector":
        return ChernVector(self.trace + other.trace, self.top + other.top)

    def to_json(self) -> Dict[str, object]:
        return {"trace": self.trace.to_json(), "top": self.top.to_json()}

    def __str__(self) -> str:
        return f"(trace {self.trace}; {self.top})"


def chern_one() -> ChernVector:
    """Invariant vector of the identity element."""
    return ChernVector(ThetaLinear(1, 0), _top(GaussRat(1), GaussRat(0), 1, 0, 0))


def top_flat() -> TopVector:
    """The zero vector: all five discrete invariants of an orbit sum vanish."""
    return _top(GaussRat(0), GaussRat(0), 0, 0, 0)


def flat_vector(trace: ThetaLinear) -> ChernVector:
    """A flat summand carries only its trace; its discrete data is zero."""
    return ChernVector(trace, top_flat())


def top_E() -> ChernVector:
    """Invariant vector of the universal projection section.

    The section's trace is the coordinate itself (slope one), which
    callers specialize through the transfer maps.
    """
    return ChernVector(ThetaLinear(0, 1), _top(HALF_ONE_MINUS_I, HALF_ONE_MINUS_I, _HALF, _HALF, 1))


def _require_coprime(p: int, q: int) -> None:
    if q < 1:
        raise BadInput(f"denominator parameter must be >= 1, got {q}")
    if math.gcd(p, q) != 1:
        raise BadInput(f"parameters must be coprime, got ({p}, {q})")


def _charged(a: int, b: int, corner: GaussRat, charge: int) -> ChernVector:
    """Closed form shared by both charges, trace charge*(b^2*theta - ab)."""
    _require_coprime(a, b)
    db = _d2(b)
    db1 = _d2(b - 1)
    sign = _parity_sign(b // 2) if db else 0
    p10 = corner * (1 + sign * db)
    p11 = (corner * GaussRat.i_power(-a * b)) * db1
    p20 = _HALF + Fraction(3, 2) * db
    p21 = _HALF * _parity_sign(a) * db1
    p22 = Fraction(db1)
    return ChernVector(ThetaLinear(-charge * a * b, charge * b * b), _top(p10, p11, p20, p21, p22))


def top_eq_plus(p: int, q: int) -> ChernVector:
    """Closed-form vector of the positively charged projection, trace q^2*theta - pq."""
    return _charged(p, q, HALF_ONE_MINUS_I, 1)


def top_eb_minus(a: int, b: int) -> ChernVector:
    """Closed-form vector of the negatively charged projection, trace ab - b^2*theta."""
    return _charged(a, b, HALF_ONE_PLUS_I, -1)


def _components(t: TopVector) -> Dict[TraceKind, object]:
    return dict(zip(UNBOUNDED_KINDS, (t.p10, t.p11, t.p20, t.p21, t.p22)))


_ZEROS = _components(top_flat())


def _from_components(values: Mapping[TraceKind, object]) -> TopVector:
    return _top(*(values[kind] for kind in UNBOUNDED_KINDS))


def gamma_top(v: ChernVector) -> ChernVector:
    """Parity image: each component times its GAMMA_SIGN; the trace is fixed."""
    values = _components(v.top)
    return ChernVector(v.trace, _from_components({kind: _times(values[kind], sign)
                                                  for kind, sign in GAMMA_SIGN.items()}))


ZetaRow = Tuple[Tuple[TraceKind, object], ...]


def zeta_law(nn: int, k: int) -> Dict[TraceKind, ZetaRow]:
    """The five transfer equations of the scaling morphism U -> U^nn, V -> V^nn.

    Row psi lists (source functional, coefficient) pairs: psi after zeta
    equals the sum of coefficient * source functional, the source values
    taken at parameter nn^2*theta - k and rebased into theta.  psi_11 and
    psi_21 carry the factors i^-k and (-1)^k; for odd nn every functional
    carries straight through, for even nn the odd-pattern functionals fold
    into psi_10 and psi_20 and their own rows are empty.  The law depends
    only on nn mod 2 and k mod 4; each call gets its own dict of the shared
    tuple rows.
    """
    if nn == 0:
        raise BadInput("scaling index must be nonzero")
    return dict(_zeta_rows(nn % 2, k % 4))


@functools.cache
def _zeta_rows(odd: int, k: int) -> Dict[TraceKind, ZetaRow]:
    factor = {
        TraceKind.t10: 1,
        TraceKind.t11: GaussRat.i_power(-k),
        TraceKind.t20: 1,
        TraceKind.t21: _parity_sign(k),
        TraceKind.t22: 1,
    }
    fold = {TraceKind.t11: TraceKind.t10, TraceKind.t21: TraceKind.t20, TraceKind.t22: TraceKind.t20}
    rows: Dict[TraceKind, list] = {kind: [] for kind in UNBOUNDED_KINDS}
    for src, c in factor.items():
        rows[src if odd else fold.get(src, src)].append((src, c))
    return {kind: tuple(row) for kind, row in rows.items()}


def _row_sum(row: ZetaRow, values: Mapping[TraceKind, object], zero):
    """Sum of coefficient * values[source] over the row; zero when it is empty."""
    total = None
    for src, c in row:
        term = _times(values[src], c)
        total = term if total is None else total + term
    return zero if total is None else total


def zeta_transfer(v: ChernVector, nn: int, k: int) -> ChernVector:
    """Push an invariant vector through the scaling morphism U -> U^nn, V -> V^nn.

    v is the vector of an element of the algebra at parameter nn^2*theta - k,
    expressed in that algebra's own coordinate; the result is the vector of
    its image, expressed in theta, with components from zeta_law.
    """
    law = zeta_law(nn, k)
    values = _components(v.top)
    trace = ThetaLinear(v.trace.const - k * v.trace.slope, nn * nn * v.trace.slope)
    return ChernVector(trace, _from_components({kind: _row_sum(row, values, _ZEROS[kind])
                                                for kind, row in law.items()}))


def nu_transfer(v: ChernVector) -> ChernVector:
    """Push a self-adjoint element's vector through the generator swap.

    v lives over the complementary parameter 1-theta; the result lives over
    theta, with components from NU_LAW.  On self-adjoint elements the
    adjoint functionals reduce to plain conjugation of the value.
    """
    values = _components(v.top)
    trace = ThetaLinear(v.trace.const + v.trace.slope, -v.trace.slope)
    return ChernVector(trace, _from_components({
        kind: _times(values[kind].conjugate() if adjoint else values[kind], factor)
        for kind, (adjoint, factor) in NU_LAW.items()
    }))


def verify_lemma_psizeta(nn: int, k: int, window: int) -> bool:
    """Exhaustive element-level check of the five zeta_law transfer equations.

    For every monomial x of the traces window, taken in the source
    algebra at parameter nn^2*theta - k, the functional value of the
    scaled image (computed in theta) must equal the zeta_law combination
    of the source values rebased into theta.
    """
    law = zeta_law(nn, k)
    lam = nn * nn
    for x in _window(window, scaled_param(nn, k)):
        zx = zeta(nn, k, x)
        parts = {kind: psi(kind, x).rebase(lam, -k) for kind in UNBOUNDED_KINDS}
        if any(psi(kind, zx) != _row_sum(row, parts, PS_ZERO) for kind, row in law.items()):
            return False
    return True


def crosscheck_closed_forms(p: int, q: int, charge: int) -> bool:
    """Compare a closed-form projection vector against its transfer route.

    Positive charge: scale the universal section by q with offset pq.
    Negative charge: scale by q with offset q^2 - pq over the complementary
    parameter, then swap generators.  True iff the recomputed vector equals
    the closed form in trace and all five components.
    """
    _require_coprime(p, q)
    if charge not in (1, -1):
        raise BadInput(f"charge must be +1 or -1, got {charge}")
    section = top_E()
    if charge == 1:
        route = zeta_transfer(section, q, p * q)
        closed = top_eq_plus(p, q)
    else:
        route = nu_transfer(zeta_transfer(section, q, q * q - p * q))
        closed = top_eb_minus(p, q)
    return route == closed
