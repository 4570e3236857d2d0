"""The canonical trace and the five unbounded trace functionals.

On a monomial U^m V^n the functionals are given by divisor-delta patterns
times pure phases in the element's own parameter symbol:

    psi_10 = e(-param/4 (m+n)^2) [2 | m-n]      psi_20 = e(-param/2 mn) [2|m][2|n]
    psi_11 = e(-param/4 (m+n)^2) [2 | m-n-1]    psi_21 = e(-param/2 mn) [2|m-1][2|n-1]
                                                psi_22 = e(-param/2 mn) [2 | m-n-1]

and tau picks the (0, 0) coefficient.  All values are returned as full
PhaseScalars; deciding whether a value is phase-free is the caller's
business.

Each law is stated once, as a table keyed by TraceKind: _SUPPORT (the
patterns above), SIGMA_POWER (psi is a sigma- or sigma^2-trace),
GAMMA_SIGN (parity) and NU_LAW (the relations through the swap
isomorphism nu).  A _SUPPORT row is the delta pattern as four flags, one
per parity class of (m, n), indexed by (m & 1) << 1 | n & 1, plus the
choice of phase; psi tests each term's class before it touches the
coefficient.  The check_* functions verify the tables by exhaustive
enumeration of monomial windows, which suffices because every delta
pattern is 2-periodic; chern's vector maps read the same GAMMA_SIGN and
NU_LAW entries, so the law that is checked is the law that is used.

check_alpha_trace evaluates both sides, psi(x y) and psi(sigma^power(y) x),
with psi_product: it reads each term pair's exponent sums first and
multiplies only the pairs psi sees, so the product is never formed.
psi and psi_product sum what they see with one PhaseScalar.sum_products.

Every law check, chern.verify_lemma_psizeta included, walks the one
monomial window _window, which alone rejects an empty window.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from .errors import BadInput
from .exactscalar import PS_ONE, PS_ZERO, GaussRat, PhaseScalar
from .ncalgebra import (
    ONE_MINUS_THETA,
    THETA,
    NCElement,
    Param,
    _require_same_param,
    gamma,
    monomial,
    nu,
    sigma,
    star,
)


class TraceKind(enum.Enum):
    t10 = "t10"
    t11 = "t11"
    t20 = "t20"
    t21 = "t21"
    t22 = "t22"
    tau = "tau"

    # members are singletons, so identity hashing agrees with Enum's equality
    # and keeps the hash of a table lookup out of Python code
    __hash__ = object.__hash__


ALL_KINDS = tuple(TraceKind)
UNBOUNDED_KINDS = (TraceKind.t10, TraceKind.t11, TraceKind.t20, TraceKind.t21, TraceKind.t22)

#: one row per functional: which parity classes it sees, indexed by
#: (m & 1) << 1 | n & 1 (classes (0,0), (0,1), (1,0), (1,1)), and whether its
#: phase is the quarter phase -(m+n)^2/4 (True) or the half phase -mn/2 (False)
_SUPPORT = {
    TraceKind.t10: ((True, False, False, True), True),
    TraceKind.t11: ((False, True, True, False), True),
    TraceKind.t20: ((True, False, False, False), False),
    TraceKind.t21: ((False, False, False, True), False),
    TraceKind.t22: ((False, True, True, False), False),
}

#: psi(x y) = psi(sigma^power(y) x)
SIGMA_POWER = {TraceKind.t10: 1, TraceKind.t11: 1, TraceKind.t20: 2, TraceKind.t21: 2, TraceKind.t22: 2}

#: psi(gamma(x)) = sign * psi(x)
GAMMA_SIGN = {TraceKind.t10: 1, TraceKind.t11: -1, TraceKind.t20: 1, TraceKind.t21: 1, TraceKind.t22: -1}

#: psi(nu(x)) = factor * (psi^* if adjoint else psi)(x), with the right-hand
#: side computed at parameter 1-theta and rebased to theta
NU_LAW = {
    TraceKind.t10: (True, 1),
    TraceKind.t11: (True, GaussRat(0, -1)),
    TraceKind.t20: (False, 1),
    TraceKind.t21: (False, -1),
    TraceKind.t22: (False, 1),
}


def _times(value, factor):
    """value * factor, without the product when the factor is one."""
    return value if factor == 1 else value * factor


def psi(kind: TraceKind, x: NCElement) -> PhaseScalar:
    """Linear extension of the monomial trace formulas to x."""
    if kind is TraceKind.tau:
        c = x.terms.get((0, 0))
        return c if c is not None else PS_ZERO
    row, quarter = _SUPPORT[kind]
    # the phase -(m+n)^2/4 or -mn/2, as a numerator over 4
    parts = [(c, PS_ONE, -(m + n) ** 2 if quarter else -2 * m * n)
             for (m, n), c in x.terms.items() if row[(m & 1) << 1 | n & 1]]
    return PhaseScalar.sum_products(parts, 4) if parts else PS_ZERO


def psi_product(kind: TraceKind, x: NCElement, y: NCElement) -> PhaseScalar:
    """psi(kind, mul(x, y)), computed without forming the product x y.

    Each term pair (a, b), (c, d) lands on U^(a+c) V^(b+d); only the pairs
    whose exponent sums psi sees are multiplied.
    """
    _require_same_param(x, y)
    # the coefficient of a pair is cx * cy * e(param)^(b*c): the reorder
    # rule V^b U^c = e(param)^(b*c) U^c V^b that ncalgebra.mul states
    if kind is TraceKind.tau:
        yt = y.terms
        return PhaseScalar.sum_products([(cx, yt[(-a, -b)], -a * b)
                                         for (a, b), cx in x.terms.items() if (-a, -b) in yt], 1)
    row, quarter = _SUPPORT[kind]
    ys = y.terms.items()
    parts = []
    for (a, b), cx in x.terms.items():
        for (c, d), cy in ys:
            m, n = a + c, b + d
            if row[(m & 1) << 1 | n & 1]:
                parts.append((cx, cy, 4 * b * c - ((m + n) ** 2 if quarter else 2 * m * n)))
    return PhaseScalar.sum_products(parts, 4) if parts else PS_ZERO


def psi_star(kind: TraceKind, x: NCElement) -> PhaseScalar:
    """Hermitian adjoint functional: conjugate of psi on the adjoint element."""
    return psi(kind, star(x)).conjugate()


def _window(window: int, param: Param = THETA) -> List[NCElement]:
    """The unit monomials U^m V^n with |m|, |n| <= window at param, m outer."""
    if window < 1:
        raise BadInput(f"window must be >= 1, got {window}")
    rng = range(-window, window + 1)
    one = PhaseScalar.one()
    return [monomial(param, one, m, n) for m in rng for n in rng]


def check_alpha_trace(kind: TraceKind, power: int, window: int) -> bool:
    """Exhaustive check of psi(xy) = psi(sigma^power(y) x) on the window."""
    if power not in (1, 2):
        raise BadInput(f"power must be 1 or 2, got {power}")
    monos = _window(window)
    for y in monos:
        ay = sigma(y) if power == 1 else sigma(sigma(y))
        for x in monos:
            if psi_product(kind, x, y) != psi_product(kind, ay, x):
                return False
    return True


def check_sigma_invariance(kind: TraceKind, window: int) -> bool:
    """Exhaustive check of psi(sigma(x)) = psi(x) on the window."""
    return all(psi(kind, sigma(x)) == psi(kind, x) for x in _window(window))


def check_parity_flip(window: int) -> bool:
    """Exhaustive check of psi(gamma(x)) = GAMMA_SIGN[psi] * psi(x) on the window."""
    for x in _window(window):
        gx = gamma(x)
        for kind, sign in GAMMA_SIGN.items():
            if psi(kind, gx) != _times(psi(kind, x), sign):
                return False
    return True


def check_nu_relations(window: int) -> bool:
    """Exhaustive check of the five NU_LAW relations through nu on the window.

    Right-hand sides are computed in the source parameter 1-theta and
    rebased to theta for the comparison.
    """
    for x in _window(window, ONE_MINUS_THETA):
        nx = nu(x)
        for kind, (adjoint, factor) in NU_LAW.items():
            rhs = (psi_star if adjoint else psi)(kind, x).rebase(-1, 1)
            if psi(kind, nx) != _times(rhs, factor):
                return False
    return True


def run_trace_suite(window: int = 6) -> Dict[str, bool]:
    """All trace-law checks at one window, keyed by law name."""
    results: Dict[str, bool] = {}
    for kind, power in SIGMA_POWER.items():
        name = f"{kind.value}_sigma{'' if power == 1 else power}_trace"
        results[name] = check_alpha_trace(kind, power, window)
    for kind in ALL_KINDS:
        results[f"{kind.value}_sigma_invariant"] = check_sigma_invariance(kind, window)
    results["parity_flip"] = check_parity_flip(window)
    results["nu_relations"] = check_nu_relations(window)
    return results
