"""Exact scalar arithmetic.

Everything here is exact: Gaussian rationals, formal phase sums
``sum c_r * e(theta*r)`` with ``e(x) = exp(2*pi*i*x)``, linear quantities
``a + b*theta``, and open rational intervals used for sign decisions.
``theta`` is a formal symbol throughout; equality of phase sums is
componentwise.  No floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import BadInput, DomainPhase

RationalLike = Union[int, Fraction]


def as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "num/den" (denominator always explicit)."""
    return f"{x.numerator}/{x.denominator}"


def _accumulate(acc: dict, key, value) -> None:
    """Add value into acc[key], dropping the key when the sum is zero."""
    prev = acc.get(key)
    s = value if prev is None else prev + value
    if s:
        acc[key] = s
    elif prev is not None:
        del acc[key]


def parse_rat(text: str) -> Fraction:
    """Parse "num/den" or a bare integer string into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise BadInput(f"not a rational: {text!r}") from exc


class GaussRat:
    """A Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        # Fraction keeps lowest terms / positive denominator for us.
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other) -> "GaussRat":
        if isinstance(other, GaussRat):
            # unit coefficients dominate monomial products: skip four Fraction products
            if other is GR_ONE:
                return self
            if self is GR_ONE:
                return other
            return GaussRat(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return GaussRat(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    @staticmethod
    def i_power(e: int) -> "GaussRat":
        """i**e for any integer e."""
        return _I_POWERS[e % 4]

    def __str__(self) -> str:
        # Grammar-compatible text; sums print as "a + b*i" (no binary minus
        # exists in the grammar, so negatives ride on the rational literal).
        if not self.im:
            return _short_rat(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            return f"{_short_rat(self.im)}*i"
        if self.im == 1:
            return f"{_short_rat(self.re)} + i"
        return f"{_short_rat(self.re)} + {_short_rat(self.im)}*i"

    def __repr__(self) -> str:
        return f"GaussRat({self.re!r}, {self.im!r})"

    def to_json(self) -> dict:
        return {"re": rat_str(self.re), "im": rat_str(self.im)}

    @staticmethod
    def from_json(obj: Mapping[str, str]) -> "GaussRat":
        return GaussRat(parse_rat(obj["re"]), parse_rat(obj["im"]))


def _short_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


GR_ZERO = GaussRat(0, 0)
GR_ONE = GaussRat(1, 0)
GR_I = GaussRat(0, 1)
_I_POWERS = (GR_ONE, GR_I, GaussRat(-1, 0), GaussRat(0, -1))


def root_of_unity(s: RationalLike) -> GaussRat:
    """e(s) for quarter-integer s, i.e. i**(4s mod 4).

    Raises DomainPhase when 4s is not an integer: the value would leave
    the Gaussian rationals and we refuse to widen the coefficient field.
    """
    s = as_fraction(s)
    four_s = 4 * s
    if four_s.denominator != 1:
        raise DomainPhase(f"e({s}) is not a Gaussian rational (4*{s} is not an integer)")
    return GaussRat.i_power(four_s.numerator)


class PhaseScalar:
    """Finite formal sum ``sum_r c_r * e(theta*r)`` with GaussRat c_r.

    The exponent-to-coefficient map is canonical: no zero coefficients
    are stored and exponents are reduced Fractions.  Equality is
    componentwise; theta is never evaluated.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Fraction, GaussRat]] = None):
        clean: dict = {}
        if terms:
            for r, c in terms.items():
                if c:
                    clean[as_fraction(r)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PhaseScalar is immutable")

    @staticmethod
    def _raw(terms: dict) -> "PhaseScalar":
        # internal: terms must already be canonical
        ps = PhaseScalar.__new__(PhaseScalar)
        object.__setattr__(ps, "terms", terms)
        return ps

    @staticmethod
    def zero() -> "PhaseScalar":
        return PS_ZERO

    @staticmethod
    def one() -> "PhaseScalar":
        return PS_ONE

    @staticmethod
    def from_gauss(c: GaussRat) -> "PhaseScalar":
        return PhaseScalar._raw({_F0: c}) if c else PS_ZERO

    @staticmethod
    def phase(r: RationalLike, coeff: GaussRat = GR_ONE) -> "PhaseScalar":
        """coeff * e(theta*r)."""
        return PhaseScalar._raw({as_fraction(r): coeff}) if coeff else PS_ZERO

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, PhaseScalar):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "PhaseScalar") -> "PhaseScalar":
        if not self.terms:
            return other
        if not other.terms:
            return self
        acc = dict(self.terms)
        for r, c in other.terms.items():
            _accumulate(acc, r, c)
        return PhaseScalar._raw(acc)

    def __neg__(self) -> "PhaseScalar":
        return PhaseScalar._raw({r: -c for r, c in self.terms.items()})

    def __sub__(self, other: "PhaseScalar") -> "PhaseScalar":
        return self + (-other)

    def __mul__(self, other) -> "PhaseScalar":
        if isinstance(other, (GaussRat, int, Fraction)):
            if isinstance(other, GaussRat):
                g = other
            else:
                g = GaussRat(other)
            if not g:
                return PS_ZERO
            return PhaseScalar._raw({r: c * g for r, c in self.terms.items()})
        if not isinstance(other, PhaseScalar):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return PS_ZERO
        if len(a) == 1 and len(b) == 1:
            (ra, ca), = a.items()
            (rb, cb), = b.items()
            prod = ca * cb
            return PhaseScalar._raw({ra + rb: prod}) if prod else PS_ZERO
        acc: dict = {}
        for ra, ca in a.items():
            for rb, cb in b.items():
                _accumulate(acc, ra + rb, ca * cb)
        return PhaseScalar._raw(acc)

    __rmul__ = __mul__

    def conjugate(self) -> "PhaseScalar":
        """Complex conjugation: coefficients conjugate, exponents negate."""
        return PhaseScalar._raw({-r: c.conjugate() for r, c in self.terms.items()})

    def shift(self, r: RationalLike) -> "PhaseScalar":
        """Multiply by the pure phase e(theta*r): exponents translate by r."""
        r = as_fraction(r)
        if not r:
            return self
        return PhaseScalar._raw({k + r: c for k, c in self.terms.items()})

    def rebase(self, lam: RationalLike, mu: RationalLike) -> "PhaseScalar":
        """Reinterpret phases from the symbol lam*theta + mu into base theta.

        Termwise e((lam*theta + mu)*r) = e(mu*r) * e(theta)^(lam*r); the
        integer-translation factor e(mu*r) must be a quarter-integer root
        of unity, otherwise DomainPhase is raised.
        """
        lam = as_fraction(lam)
        mu = as_fraction(mu)
        if not lam:
            # every phase collapses onto e(0): the image is one constant
            total = sum((c * root_of_unity(mu * r) for r, c in self.terms.items()), GR_ZERO)
            return PhaseScalar.from_gauss(total)
        # r -> lam*r is injective for lam != 0, so no two terms merge
        return PhaseScalar._raw({lam * r: c * root_of_unity(mu * r) for r, c in self.terms.items()})

    def as_constant(self) -> GaussRat:
        """The value as a GaussRat, valid only when no phase is present."""
        if not self.terms:
            return GR_ZERO
        if len(self.terms) == 1 and _F0 in self.terms:
            return self.terms[_F0]
        raise DomainPhase(f"{self} carries a nontrivial phase")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for r in sorted(self.terms):
            c = self.terms[r]
            cs = str(c)
            if r == 0:
                pieces.append(cs)
            elif cs == "1":
                pieces.append(f"ph({_short_rat(r)})")
            elif ("+" in cs) or ("*" in cs):
                pieces.append(f"({cs})*ph({_short_rat(r)})")
            else:
                pieces.append(f"{cs}*ph({_short_rat(r)})")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"<PhaseScalar {self}>"


_F0 = Fraction(0)
PS_ZERO = PhaseScalar._raw({})
PS_ONE = PhaseScalar._raw({_F0: GR_ONE})


class ThetaLinear:
    """An exact quantity a + b*theta."""

    __slots__ = ("const", "slope")

    def __init__(self, const: RationalLike = 0, slope: RationalLike = 0):
        object.__setattr__(self, "const", as_fraction(const))
        object.__setattr__(self, "slope", as_fraction(slope))

    def __setattr__(self, name, value):
        raise AttributeError("ThetaLinear is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, ThetaLinear):
            return self.const == other.const and self.slope == other.slope
        return NotImplemented

    def __hash__(self):
        return hash((self.const, self.slope))

    def __add__(self, other: "ThetaLinear") -> "ThetaLinear":
        return ThetaLinear(self.const + other.const, self.slope + other.slope)

    def __sub__(self, other: "ThetaLinear") -> "ThetaLinear":
        return ThetaLinear(self.const - other.const, self.slope - other.slope)

    def __neg__(self) -> "ThetaLinear":
        return ThetaLinear(-self.const, -self.slope)

    def __mul__(self, c: RationalLike) -> "ThetaLinear":
        return ThetaLinear(self.const * c, self.slope * c)

    __rmul__ = __mul__

    def at(self, theta: RationalLike) -> Fraction:
        """Exact evaluation at a rational theta."""
        return self.const + self.slope * as_fraction(theta)

    def __str__(self) -> str:
        return f"{self.const} + {self.slope}*theta"

    def __repr__(self) -> str:
        return f"ThetaLinear({self.const!r}, {self.slope!r})"

    def to_json(self) -> dict:
        return {"const": rat_str(self.const), "theta": rat_str(self.slope)}

    @staticmethod
    def from_json(obj: Mapping[str, str]) -> "ThetaLinear":
        return ThetaLinear(parse_rat(obj["const"]), parse_rat(obj["theta"]))


class Interval:
    """Open interval (lo, hi) with exact rational endpoints, lo < hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: RationalLike, hi: RationalLike):
        lo = as_fraction(lo)
        hi = as_fraction(hi)
        if not lo < hi:
            raise BadInput(f"empty interval: lo={lo} must be < hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, Interval):
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    def contains(self, x: RationalLike) -> bool:
        x = as_fraction(x)
        return self.lo < x < self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi})"

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def to_json(self) -> dict:
        return {"lo": rat_str(self.lo), "hi": rat_str(self.hi)}


def tl_sign(x: ThetaLinear, window: Interval) -> Optional[int]:
    """Sign of a + b*theta for every theta in the open window.

    Linearity means endpoint evaluation decides: returns +1, -1, or 0 when
    the sign is uniform over the window, None when the endpoint signs
    disagree strictly (the function crosses zero inside).
    """
    v_lo = x.at(window.lo)
    v_hi = x.at(window.hi)
    if v_lo == 0 and v_hi == 0:
        return 0
    # the window is open, so a zero at one endpoint does not spoil strictness
    if v_lo >= 0 and v_hi >= 0:
        return 1
    if v_lo <= 0 and v_hi <= 0:
        return -1
    return None
