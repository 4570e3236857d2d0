"""The two-integer parameter family, its interval class, and certificates.

A seed is a reduced fraction k/m in (0, 1/2).  From it we derive seven
integers (n, q, s, p, r, A, B) tied together by exact unimodular and
divisibility identities, and an open rational interval

    ( (pq - kappa1)/q^2 , (rs + kappa2)/s^2 )

pinched between the convergent-like fractions r/s and p/q, themselves
inside (2k/m - 1/(2m^2), 2k/m).  Those six rationals, lowest first, are
the one statement of the chain: _chain_points builds the tuple, and
chain_parts, interval, member and certify all read it.  Since the chain
puts the interval inside (2k/m - 1/(2m^2), 2k/m), a theta in it has
m*theta/2 in (k - 1/(4m), k): for each m only k = floor(m*theta/2) + 1
can contain theta.  The window also lies within 1/(2s^2) above r/s, a
fraction in lowest terms, so by Legendre's criterion s is a convergent
denominator of theta: member walks those denominators and tests the one
seed each can name (see member).  Any theta in
the interval admits the full decomposition certificate: the negatively
charged projection vector for (p, q) plus the parity image of the
positively charged vector for (r, s) plus a flat remainder of trace
4m^2(A - B*theta) add up exactly to the identity's vector.  certify()
assembles the whole record; every inequality is decided with exact
integer cross-multiplication and every identity with exact rationals.
Three of its named checks are read from others: tau0_formula is the
identities s2_q2_eq_4m2_B and one_rs_pq_eq_4m2_A, flat_trace is
tau0_formula, and kappa2_below_s_over_B is tau0_positive (see certify).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from .chern import ChernVector, chern_one, flat_vector, gamma_top, top_eb_minus, top_eq_plus
from .errors import BadInput, BadSeed, ChainFailure, IndeterminateSign, NotCoprime
from .exactscalar import (
    Interval,
    RationalLike,
    ThetaLinear,
    as_fraction,
    rat_str,
    tl_sign,
)

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class SeedParams:
    """A reduced fraction k/m strictly inside (0, 1/2)."""

    k: int
    m: int

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise BadSeed(f"seed needs k, m >= 1, got ({self.k}, {self.m})")
        if math.gcd(self.k, self.m) != 1:
            raise BadSeed(f"seed k/m must be reduced, got {self.k}/{self.m}")
        if 2 * self.k >= self.m:
            raise BadSeed(f"seed must satisfy 2k < m, got ({self.k}, {self.m})")

    @property
    def certifiable(self) -> bool:
        """True iff gcd(m, m - 2k) = 1, which for a reduced k/m means m odd."""
        return self.m % 2 == 1

    def to_json(self) -> Dict[str, int]:
        return {"k": self.k, "m": self.m}


@dataclass(frozen=True)
class DerivedParams:
    """The seven derived integers; verify_identities states their relations."""

    n: int
    q: int
    s: int
    p: int
    r: int
    A: int
    B: int

    def to_json(self) -> Dict[str, int]:
        return {"n": self.n, "q": self.q, "s": self.s, "p": self.p, "r": self.r, "A": self.A, "B": self.B}


@dataclass(frozen=True)
class Kappas:
    """Interval slack parameters with 0 < k2 <= 1/2 < k1 < 1 and k1 + k2 > 1."""

    k1: Fraction
    k2: Fraction

    def __post_init__(self):
        k1 = as_fraction(self.k1)
        k2 = as_fraction(self.k2)
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)
        if not (0 < k2 <= _HALF < k1 < 1):
            raise BadInput(f"need 0 < k2 <= 1/2 < k1 < 1, got k1={k1}, k2={k2}")
        if not k1 + k2 > 1:
            raise BadInput(f"need k1 + k2 > 1, got k1={k1}, k2={k2}")

    def to_json(self) -> Dict[str, str]:
        return {"k1": rat_str(self.k1), "k2": rat_str(self.k2)}


DEFAULT_KAPPAS = Kappas(Fraction(3, 4), Fraction(1, 2))


def derive(seed: SeedParams) -> DerivedParams:
    """Compute the seven derived integers for a seed."""
    k, m = seed.k, seed.m
    n = 4 * m * k + 1
    q = n * n
    s = n * n + 4 * m * m
    p = 4 * k * k * (2 * n + 1)
    r = p + 2 * n - 3
    a_val = 64 * k**3 * m + 8 * k * m + 24 * k * k - 1
    b_val = 2 * (16 * k * k * m * m + 8 * k * m + 2 * m * m + 1)
    return DerivedParams(n=n, q=q, s=s, p=p, r=r, A=a_val, B=b_val)


def verify_identities(seed: SeedParams) -> List[Tuple[str, bool]]:
    """Evaluate the eight exact identities tying seed and derived integers."""
    return _identities(seed, derive(seed))


def _identities(seed: SeedParams, d: DerivedParams) -> List[Tuple[str, bool]]:
    k, m = seed.k, seed.m
    q, s, p, r, A, B = d.q, d.s, d.p, d.r, d.A, d.B
    m2 = m * m
    return [
        ("ps_qr_unimodular", p * s - q * r == 1),
        ("sA_Br_unimodular", s * A - B * r == 1),
        ("two_s_eq_B_plus_4m2", 2 * s == B + 4 * m2),
        ("s2_q2_eq_4m2_B", s * s - q * q == 4 * m2 * B),
        ("one_rs_pq_eq_4m2_A", 1 + r * s - p * q == 4 * m2 * A),
        (
            "rm2_minus_s_halfshift",
            Fraction(r * m2) - s * (2 * k * m - _HALF) == 4 * k * k * m2 + m2 + 2 * k * m + _HALF,
        ),
        ("kq_pm_gap", 2 * k * q - p * m == 4 * k * k * m + 2 * k),
        ("ks_mr_gap", 2 * k * s - m * (r + 4) == 4 * k * k * m + 2 * k - 3 * m),
    ]


_CHAIN_LINKS = (
    "outer_lo_lt_rs",
    "rs_lt_window_lo",
    "window_lo_lt_window_hi",
    "window_hi_lt_pq",
    "pq_lt_outer_hi",
)


def _chain_points(seed: SeedParams, d: DerivedParams, kappas: Kappas) -> Tuple[Fraction, ...]:
    """The six rationals the chain orders, lowest first; points 2 and 3 bound the window."""
    k, m = seed.k, seed.m
    return (
        Fraction(4 * k * m - 1, 2 * m * m),
        Fraction(d.r, d.s),
        Fraction(d.p * d.q - kappas.k1, d.q * d.q),
        Fraction(d.r * d.s + kappas.k2, d.s * d.s),
        Fraction(d.p, d.q),
        Fraction(2 * k, m),
    )


def _links(points: Tuple[Fraction, ...]) -> Dict[str, bool]:
    return {name: lo < hi for name, lo, hi in zip(_CHAIN_LINKS, points, points[1:])}


def _window(seed: SeedParams, chain: Dict[str, bool], points: Tuple[Fraction, ...]) -> Interval:
    if not all(chain.values()):
        failed = [name for name, ok in chain.items() if not ok]
        raise ChainFailure(f"chain fails for seed ({seed.k}, {seed.m}): {', '.join(failed)}")
    return Interval(points[2], points[3])


def chain_parts(seed: SeedParams, kappas: Kappas = DEFAULT_KAPPAS) -> Dict[str, bool]:
    """The five chain inequalities pinching the interval, each named."""
    return _links(_chain_points(seed, derive(seed), kappas))


def verify_chain(seed: SeedParams, kappas: Kappas = DEFAULT_KAPPAS) -> bool:
    """True iff the whole five-link inequality chain holds."""
    return all(chain_parts(seed, kappas).values())


def interval(seed: SeedParams, kappas: Kappas = DEFAULT_KAPPAS) -> Interval:
    """The seed's open interval; refuses to build one off a broken chain."""
    points = _chain_points(seed, derive(seed), kappas)
    return _window(seed, _links(points), points)


def seed_grid(max_km: int) -> List[SeedParams]:
    """The certifiable seeds with m <= max_km, sorted by (m, k).

    These are the odd-m seeds, for which gcd(m, m-2k) = 1 is automatic.
    """
    return [SeedParams(k, m) for m in range(3, max_km + 1, 2)
            for k in range(1, (m - 1) // 2 + 1) if math.gcd(k, m) == 1]


def _convergent_denominators(theta: Fraction) -> Iterator[int]:
    """The denominators of theta's convergents, ascending, by Euclid's algorithm."""
    num, den = theta.numerator, theta.denominator
    q_prev, q = 0, 1
    while True:
        yield q
        num, den = den, num % den
        if not den:
            return
        q_prev, q = q, num // den * q + q_prev


def member(theta: RationalLike, kappas: Kappas = DEFAULT_KAPPAS, kmax: int = 40) -> List[SeedParams]:
    """All seeds with k, m <= kmax whose interval contains theta, by (m, k).

    theta is an exact rational stand-in for the irrational of interest.
    Seeds whose chain fails under these kappas are skipped.  Even-m seeds
    are kept, since their intervals are part of the class, but they are
    not certifiable (see SeedParams.certifiable): certify rejects them.

    Only the seeds named by theta's convergents are tested, which finds
    every hit:

    - A chain-valid window lies inside (2k/m - 1/(2m^2), 2k/m), so a theta
      in it has m*theta/2 in (k - 1/(4m), k): for each m only
      k(m) = floor(m*theta/2) + 1 can hold theta.
    - The window lies in (r/s, r/s + kappa2/s^2), and Kappas forces
      kappa2 <= 1/2, so a theta in it has 0 < theta - r/s < 1/(2s^2).
      r/s is in lowest terms, since ps - qr = 1.  By Legendre's criterion
      r/s is then a convergent of theta, and s a convergent denominator.
      For rational theta the criterion holds with the expansion Euclid's
      algorithm gives, whose last quotient is at least 2.
    - k(m) never decreases as m grows, so s(m) = (4m*k(m) + 1)^2 + 4m^2
      strictly increases, and each convergent denominator in
      [s(3), s(kmax)] names at most one m, found by binary search.

    That seed is tested exactly as before: its chain points, its five
    links and its open window.
    """
    return member_walk(theta, kappas, kmax)[0]


def member_walk(theta: RationalLike, kappas: Kappas = DEFAULT_KAPPAS,
                kmax: int = 40) -> Tuple[List[SeedParams], int]:
    """member's seeds, and how many convergent denominators of theta it examined."""
    theta = as_fraction(theta)
    if not 0 < theta < 1:
        raise BadInput(f"theta must lie in (0, 1), got {theta}")
    hits: List[SeedParams] = []
    if kmax < 3:
        return hits, 0
    num, twice_den = theta.numerator, 2 * theta.denominator

    def s_of(m: int) -> int:
        n = 4 * m * (m * num // twice_den + 1) + 1
        return n * n + 4 * m * m

    s_lo, s_hi = s_of(3), s_of(kmax)
    examined, m_lo = 0, 3
    for s in _convergent_denominators(theta):
        if s > s_hi:
            break
        if s < s_lo:
            continue
        examined += 1
        # the least m in [m_lo, kmax] with s_of(m) >= s; later s give larger m
        hi = kmax
        while m_lo < hi:
            mid = (m_lo + hi) // 2
            if s_of(mid) < s:
                m_lo = mid + 1
            else:
                hi = mid
        if s_of(m_lo) != s:
            continue
        m = m_lo
        k = m * num // twice_den + 1
        if 2 * k >= m or math.gcd(k, m) != 1:
            continue
        seed = SeedParams(k, m)
        points = _chain_points(seed, derive(seed), kappas)
        if points[2] < theta < points[3] and all(_links(points).values()):
            hits.append(seed)
    return hits, examined


def _int_or_rat(x: Fraction):
    """An integral x as a JSON int, any other as "num/den"."""
    return int(x) if x.denominator == 1 else rat_str(x)


@dataclass(frozen=True)
class Lemma31Record:
    """Outcome of the modular-splitting arithmetic for one (N, M, t, window)."""

    N: int
    M: int
    c: int
    d: int
    K: Fraction
    L: Fraction
    t: ThetaLinear
    identity_ok: bool
    positive_ok: bool
    upper_ok: bool
    trace_h: ThetaLinear

    @property
    def bound_ok(self) -> bool:
        return self.positive_ok and self.upper_ok

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.bound_ok

    def to_json(self) -> Dict[str, object]:
        return {
            "N": self.N,
            "M": self.M,
            "c": self.c,
            "d": self.d,
            "K": _int_or_rat(self.K),
            "L": _int_or_rat(self.L),
            "t": self.t.to_json(),
            "identity_ok": self.identity_ok,
            "positive_ok": self.positive_ok,
            "upper_ok": self.upper_ok,
            "bound_ok": self.bound_ok,
            "trace_h": self.trace_h.to_json(),
        }


def lemma31_arithmetic(N: int, M: int, t: ThetaLinear, window: Interval) -> Lemma31Record:
    """Split t = m + n*theta across the modular pair (N, M).

    Solves cM + dN = 1 with the canonical representative 0 <= c < N, forms
    K = M*n + N*m and L = d*n - c*m, and verifies the denominator-cleared
    identity K*(c*theta + d) + L*(N*theta - M) = t as an exact identity of
    linear forms.  The two bounds 0 < t and t < (N*theta - M)/4 are decided by
    endpoint signs over the window; an endpoint disagreement raises
    IndeterminateSign rather than guessing.
    """
    if N < 1 or M < 1:
        raise BadInput(f"need positive N, M, got ({N}, {M})")
    if math.gcd(N, M) != 1:
        raise NotCoprime(f"N and M must be coprime, got ({N}, {M})")
    c = pow(M, -1, N)
    d = (1 - c * M) // N
    mm, nn = t.const, t.slope
    K = M * nn + N * mm
    L = d * nn - c * mm
    identity_ok = K * ThetaLinear(d, c) + L * ThetaLinear(-M, N) == t
    sign_t = tl_sign(t, window)
    margin = ThetaLinear(Fraction(-M, 4), Fraction(N, 4)) - t
    sign_margin = tl_sign(margin, window)
    if sign_t is None or sign_margin is None:
        raise IndeterminateSign(
            f"window {window} does not decide the bounds for t = {t} over (N, M) = ({N}, {M})"
        )
    trace_h = N * t
    return Lemma31Record(
        N=N,
        M=M,
        c=c,
        d=d,
        K=K,
        L=L,
        t=t,
        identity_ok=identity_ok,
        positive_ok=sign_t == 1,
        upper_ok=sign_margin == 1,
        trace_h=trace_h,
    )


@dataclass(frozen=True)
class Certificate:
    """Full decomposition certificate for one seed."""

    seed: SeedParams
    derived: DerivedParams
    kappas: Kappas
    interval: Interval
    identities: Dict[str, bool]
    chain: Dict[str, bool]
    minus_vector: ChernVector
    gamma_plus_vector: ChernVector
    flat_vector: ChernVector
    vector_sum: ChernVector
    sum_ok: bool
    tau0: ThetaLinear
    tau0_formula_ok: bool
    tau0_positive: bool
    tau_g: ThetaLinear
    lemma31: Lemma31Record

    def checks(self) -> Dict[str, bool]:
        """Every check the certificate makes, by name; overall is their conjunction."""
        return {
            **self.identities,
            **self.chain,
            "vector_sum": self.sum_ok,
            "tau0_formula": self.tau0_formula_ok,
            "tau0_positive": self.tau0_positive,
            "kappa2_below_s_over_B": self.tau0_positive,
            "split_identity": self.lemma31.identity_ok,
            "split_bound": self.lemma31.bound_ok,
            "flat_trace": self.tau0_formula_ok,
        }

    @property
    def overall(self) -> bool:
        return all(self.checks().values())

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed.to_json(),
            "derived": self.derived.to_json(),
            "kappas": self.kappas.to_json(),
            "interval": self.interval.to_json(),
            "identities": dict(self.identities),
            "chain": dict(self.chain),
            "vectors": {
                "minus": self.minus_vector.to_json(),
                "gamma_plus": self.gamma_plus_vector.to_json(),
                "flat": self.flat_vector.to_json(),
                "sum": self.vector_sum.to_json(),
                "expected": chern_one().to_json(),
                "sum_ok": self.sum_ok,
            },
            "tau0": self.tau0.to_json(),
            "tau0_formula_ok": self.tau0_formula_ok,
            "tau0_positive": self.tau0_positive,
            "kappa2_below_s_over_B": self.tau0_positive,
            "tau_g": self.tau_g.to_json(),
            "tau_f": (4 * self.tau_g).to_json(),
            "flat_trace_ok": self.tau0_formula_ok,
            "lemma31": self.lemma31.to_json(),
            "overall": self.overall,
        }


def certify(seed: SeedParams, kappas: Kappas = DEFAULT_KAPPAS) -> Certificate:
    """Assemble and check the full certificate for one seed.

    The three-part vector sum, the flat trace formula, its positivity on
    the interval, and the modular-splitting record are all verified; the
    certificate's overall flag is the conjunction of every check.
    """
    k, m = seed.k, seed.m
    if not seed.certifiable:
        raise NotCoprime(
            f"seed ({k}, {m}) has gcd(m, m-2k) = {math.gcd(m, m - 2 * k)}; "
            "the modular splitting needs them coprime"
        )
    d = derive(seed)
    identities = dict(_identities(seed, d))
    points = _chain_points(seed, d, kappas)
    chain = _links(points)
    window = _window(seed, chain, points)  # raises ChainFailure when the chain breaks

    minus_v = top_eb_minus(d.p, d.q)
    gplus_v = gamma_top(top_eq_plus(d.r, d.s))
    tau0 = ThetaLinear(1 + d.r * d.s - d.p * d.q, -(d.s * d.s - d.q * d.q))
    flat_v = flat_vector(tau0)
    total = minus_v + gplus_v + flat_v
    sum_ok = total == chern_one()

    # tau0 == 4*tau_g is exactly 4m^2*A = 1 + rs - pq and 4m^2*B = s^2 - q^2
    tau0_formula_ok = identities["s2_q2_eq_4m2_B"] and identities["one_rs_pq_eq_4m2_A"]
    tau_g = ThetaLinear(m * m * d.A, -m * m * d.B)
    # This sign is also kappa2_below_s_over_B.  B > 0, so A - B*theta falls
    # across the window, and is positive there iff A - B*hi >= 0 with
    # hi = (rs + kappa2)/s^2, that is s(sA - Br) >= kappa2*B, which is
    # s >= kappa2*B once sA - Br = 1.  Equality cannot hold: 2s = B + 4m^2
    # and kappa2 <= 1/2 give kappa2*B < s.
    tau0_positive = tl_sign(ThetaLinear(d.A, -d.B), window) == 1

    # split t = m*(A - B*theta), re-expressed in the complementary
    # coordinate 1 - theta, across (N, M) = (m, m - 2k); the window
    # reflects accordingly.
    t_comp = ThetaLinear(m * (d.A - d.B), m * d.B)
    reflected = Interval(1 - window.hi, 1 - window.lo)
    rec = lemma31_arithmetic(m, m - 2 * k, t_comp, reflected)

    return Certificate(
        seed=seed,
        derived=d,
        kappas=kappas,
        interval=window,
        identities=identities,
        chain=chain,
        minus_vector=minus_v,
        gamma_plus_vector=gplus_v,
        flat_vector=flat_v,
        vector_sum=total,
        sum_ok=sum_ok,
        tau0=tau0,
        tau0_formula_ok=tau0_formula_ok,
        tau0_positive=tau0_positive,
        tau_g=tau_g,
        lemma31=rec,
    )

