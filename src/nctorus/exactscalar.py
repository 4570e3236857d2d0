"""Exact scalar arithmetic.

Everything here is exact: Gaussian rationals, formal phase sums
``sum c_r * e(theta*r)`` with ``e(x) = exp(2*pi*i*x)``, linear quantities
``a + b*theta``, and open rational intervals used for sign decisions.
``theta`` is a formal symbol throughout; equality of phase sums is
componentwise.  No floating point enters this module.

The two scalar types under every law check hold plain ints, so their
arithmetic makes no Fraction; like ncalgebra's NCElement they are
hand-written, not dataclasses, because every hot path runs through them:

- GaussRat is a triple (a, b, d) meaning (a + b*i)/d, with d > 0 and
  gcd(a, b, d) = 1; one gcd call puts a result in that form.
- PhaseScalar keeps its exponents as int keys k over one denominator den,
  each exponent being k/den, with den > 0 and gcd(den, *keys) = 1.

Both forms are unique, so equality and hashing compare ints.  ``.re`` and
``.im`` of a GaussRat and ``.terms`` of a PhaseScalar give the Fraction
view.

Every product of phase sums is one PhaseScalar.sum_products call: one dict
over one common denominator, brought to lowest terms once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Tuple, Union

from .errors import BadInput, DomainPhase

RationalLike = Union[int, Fraction]

_new = object.__new__


def as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _num_den(x: RationalLike) -> Tuple[int, int]:
    """x as (numerator, denominator) ints, denominator > 0, lowest terms."""
    if type(x) is int:
        return x, 1
    x = as_fraction(x)
    return x.numerator, x.denominator


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
    """A Gaussian rational (a + b*i)/d held as three ints in lowest terms."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re = as_fraction(re)
            im = as_fraction(im)
            dr, di = re.denominator, im.denominator
            d = lcm(dr, di)
            # both parts are in lowest terms, so over their lcm gcd(a, b, d) = 1
            a, b = re.numerator * (d // dr), im.numerator * (d // di)
        _SET_A(self, a)
        _SET_B(self, b)
        _SET_D(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussRat):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return self._b == 0 and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __add__(self, other: "GaussRat") -> "GaussRat":
        d, f = self._d, other._d
        return _gr(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        return self + (-other)

    def __neg__(self) -> "GaussRat":
        return _gr(-self._a, -self._b, self._d)

    def __mul__(self, other) -> "GaussRat":
        if isinstance(other, GaussRat):
            # unit coefficients dominate monomial products
            if other is GR_ONE:
                return self
            if self is GR_ONE:
                return other
            a, b, c, e = self._a, self._b, other._a, other._b
            return _gr(a * c - b * e, a * e + b * c, self._d * other._d)
        if isinstance(other, int):
            return _gr(self._a * other, self._b * other, self._d)
        if isinstance(other, Fraction):
            n = other.numerator
            return _gr(self._a * n, self._b * n, self._d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "GaussRat":
        return _gr(self._a, -self._b, self._d)

    @staticmethod
    def i_power(e: int) -> "GaussRat":
        """i**e for any integer e."""
        return _I_POWERS[e % 4]

    def __str__(self) -> str:
        # Grammar-compatible text; sums print as "a + b*i" (no binary minus
        # exists in the grammar, so negatives ride on the rational literal).
        a, b, d = self._a, self._b, self._d
        if not b:
            return _short_rat(a, d)
        im = "i" if b == d else f"{_short_rat(b, d)}*i"
        return f"{_short_rat(a, d)} + {im}" if a else im

    def __repr__(self) -> str:
        return f"GaussRat({self.re!r}, {self.im!r})"

    def to_json(self) -> dict:
        return {"re": rat_str(self.re), "im": rat_str(self.im)}


_SET_A = GaussRat._a.__set__
_SET_B = GaussRat._b.__set__
_SET_D = GaussRat._d.__set__


def _gr(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i)/d for any d > 0, brought to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GaussRat)
    _SET_A(z, a)
    _SET_B(z, b)
    _SET_D(z, d)
    return z


def _short_rat(num: int, den: int) -> str:
    """num/den, den > 0, as grammar text in lowest terms: "n" or "n/d"."""
    g = gcd(num, den)
    num //= g
    den //= g
    return str(num) if den == 1 else f"{num}/{den}"


GR_ZERO = GaussRat(0, 0)
GR_ONE = GaussRat(1, 0)
GR_I = GaussRat(0, 1)
_I_POWERS = (GR_ONE, GR_I, GaussRat(-1, 0), GaussRat(0, -1))


def _quarter_root(num: int, den: int) -> GaussRat:
    """e(num/den) for den > 0; DomainPhase unless 4*num/den is an integer."""
    four_s, rem = divmod(4 * num, den)
    if rem:
        s = Fraction(num, den)
        raise DomainPhase(f"e({s}) is not a Gaussian rational (4*{s} is not an integer)")
    return _I_POWERS[four_s % 4]


class PhaseScalar:
    """Finite formal sum ``sum_r c_r * e(theta*r)`` with GaussRat c_r.

    The exponents are int keys k over the scalar's one denominator den,
    r = k/den, in lowest terms (gcd(den, *keys) = 1, den = 1 when empty),
    and no zero coefficient is stored.  Equality is componentwise; theta
    is never evaluated.
    """

    __slots__ = ("_den", "_keys")

    def __init__(self, terms: Optional[Mapping[Fraction, GaussRat]] = None):
        items = [(as_fraction(r), c) for r, c in terms.items() if c] if terms else []
        den = lcm(*(r.denominator for r, _ in items))
        # each exponent is in lowest terms, so over their lcm gcd(den, *keys) = 1
        _SET_DEN(self, den)
        _SET_KEYS(self, {r.numerator * (den // r.denominator): c for r, c in items})

    def __setattr__(self, name, value):
        raise AttributeError("PhaseScalar is immutable")

    @property
    def terms(self) -> Mapping[Fraction, GaussRat]:
        """Read-only map from each exponent, a reduced Fraction, to its coefficient."""
        den = self._den
        return MappingProxyType({Fraction(k, den): c for k, c in self._keys.items()})

    @staticmethod
    def zero() -> "PhaseScalar":
        return PS_ZERO

    @staticmethod
    def one() -> "PhaseScalar":
        return PS_ONE

    @staticmethod
    def phase(r: RationalLike, coeff: GaussRat = GR_ONE) -> "PhaseScalar":
        """coeff * e(theta*r)."""
        if not coeff:
            return PS_ZERO
        num, den = _num_den(r)
        return _ps_raw(den, {num: coeff})

    @staticmethod
    def sum_products(parts: Sequence[Tuple["PhaseScalar", "PhaseScalar", int]], den: int) -> "PhaseScalar":
        """The sum of a * b * e(theta*s/den) over the (a, b, s) triples, s an int."""
        out = den
        for a, b, _ in parts:
            out = lcm(out, a._den, b._den)
        acc: dict = {}
        for a, b, s in parts:
            sa, sb, s = out // a._den, out // b._den, s * (out // den)
            for ka, ca in a._keys.items():
                ka = ka * sa + s
                for kb, cb in b._keys.items():
                    _accumulate(acc, ka + kb * sb, ca * cb)
        return _ps(out, acc)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __eq__(self, other) -> bool:
        if isinstance(other, PhaseScalar):
            return self._den == other._den and self._keys == other._keys
        return NotImplemented

    def __hash__(self):
        return hash((self._den, frozenset(self._keys.items())))

    def __add__(self, other: "PhaseScalar") -> "PhaseScalar":
        a, b = self._keys, other._keys
        if not a:
            return other
        if not b:
            return self
        da, db = self._den, other._den
        den = lcm(da, db)
        sa, sb = den // da, den // db
        acc = {k * sa: c for k, c in a.items()}
        for k, c in b.items():
            _accumulate(acc, k * sb, c)
        return _ps(den, acc)

    def __neg__(self) -> "PhaseScalar":
        return _ps_raw(self._den, {k: -c for k, c in self._keys.items()})

    def __sub__(self, other: "PhaseScalar") -> "PhaseScalar":
        return self + (-other)

    def __mul__(self, other) -> "PhaseScalar":
        if isinstance(other, PhaseScalar):
            return PhaseScalar.sum_products(((self, other, 0),), 1)
        if not isinstance(other, (GaussRat, int, Fraction)):
            return NotImplemented
        g = other if isinstance(other, GaussRat) else GaussRat(other)
        return _ps_raw(self._den, {k: c * g for k, c in self._keys.items()}) if g else PS_ZERO

    __rmul__ = __mul__

    def conjugate(self) -> "PhaseScalar":
        """Complex conjugation: coefficients conjugate, exponents negate."""
        return _ps_raw(self._den, {-k: c.conjugate() for k, c in self._keys.items()})

    def shift(self, r: RationalLike) -> "PhaseScalar":
        """Multiply by the pure phase e(theta*r): exponents translate by r."""
        num, rden = _num_den(r)
        if not num:
            return self
        den = self._den
        if rden == 1:
            # gcd(den, k + num*den) = gcd(den, k): the form stays reduced
            s = num * den
            return _ps_raw(den, {k + s: c for k, c in self._keys.items()})
        out = lcm(den, rden)
        scale, s = out // den, num * (out // rden)
        return _ps(out, {k * scale + s: c for k, c in self._keys.items()})

    def rebase(self, lam: RationalLike, mu: RationalLike) -> "PhaseScalar":
        """Reinterpret phases from the symbol lam*theta + mu, lam != 0, into base theta.

        Termwise e((lam*theta + mu)*r) = e(mu*r) * e(theta)^(lam*r); the
        integer-translation factor e(mu*r) must be a quarter-integer root
        of unity, otherwise DomainPhase is raised.  lam = 0 is a ValueError,
        as for Param.  Zero rebases to zero once lam and mu have passed
        these checks.
        """
        lam_num, lam_den = _num_den(lam)
        mu_num, mu_den = _num_den(mu)
        if not lam_num:
            raise ValueError("parameter slope lam must be nonzero")
        keys = self._keys
        if not keys:
            return self
        den = self._den
        # e(mu*r) = e(mu_num*k / (mu_den*den)) for r = k/den
        root_den = mu_den * den
        # k -> lam*k is injective for lam != 0, so no two terms merge
        return _ps(lam_den * den, {lam_num * k: c * _quarter_root(mu_num * k, root_den) for k, c in keys.items()})

    def __str__(self) -> str:
        keys = self._keys
        if not keys:
            return "0"
        pieces = []
        for k in sorted(keys):
            cs = str(keys[k])
            if k == 0:
                pieces.append(cs)
                continue
            r = _short_rat(k, self._den)
            if cs == "1":
                pieces.append(f"ph({r})")
            elif ("+" in cs) or ("*" in cs):
                pieces.append(f"({cs})*ph({r})")
            else:
                pieces.append(f"{cs}*ph({r})")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"<PhaseScalar {self}>"


_SET_DEN = PhaseScalar._den.__set__
_SET_KEYS = PhaseScalar._keys.__set__


def _ps_raw(den: int, keys: dict) -> PhaseScalar:
    """A PhaseScalar owning keys, which must already be over the reduced den."""
    ps = _new(PhaseScalar)
    _SET_DEN(ps, den)
    _SET_KEYS(ps, keys)
    return ps


def _ps(den: int, keys: dict) -> PhaseScalar:
    """A PhaseScalar owning keys over any den > 0, brought to lowest terms."""
    if not keys:
        return PS_ZERO
    if den != 1:
        g = gcd(den, *keys)
        if g != 1:
            den //= g
            keys = {k // g: c for k, c in keys.items()}
    return _ps_raw(den, keys)


PS_ZERO = _ps_raw(1, {})
PS_ONE = _ps_raw(1, {0: GR_ONE})


@dataclass(frozen=True, slots=True)
class ThetaLinear:
    """An exact quantity a + b*theta."""

    const: Fraction = Fraction(0)
    slope: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "const", as_fraction(self.const))
        object.__setattr__(self, "slope", as_fraction(self.slope))

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

    def to_json(self) -> dict:
        return {"const": rat_str(self.const), "theta": rat_str(self.slope)}


@dataclass(frozen=True, slots=True)
class Interval:
    """Open interval (lo, hi) with exact rational endpoints, lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if not self.lo < self.hi:
            raise BadInput(f"empty interval: lo={self.lo} must be < hi={self.hi}")

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi})"

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
