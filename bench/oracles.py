"""Independent answers and property checks for the benchmark's outputs.

Nothing here calls nctorus: the trace formulas are evaluated with plain
integers, the seed intervals with the benchmark's own Fraction
arithmetic, products of expressions with the defining relation
VU = e(theta) UV, and the matrix witness against the benchmark's own
clock and shift.  Each check returns a list of failure messages, empty
when the output is right.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

Gauss = Tuple[Fraction, Fraction]
#: phase exponent r -> Gaussian coefficient of e(theta*r)
Scalar = Dict[Fraction, Gauss]
#: (m, n) -> scalar coefficient of U^m V^n
Element = Dict[Tuple[int, int], Scalar]
#: one generated term: re, im, phase exponent, U power, V power
Term = Tuple[int, int, Fraction, int, int]

KINDS = ("t10", "t11", "t20", "t21", "t22", "tau")


# --- trace functionals on monomials (plain integers) -------------------------

def _delta(kind: str, m: int, n: int) -> bool:
    if kind == "t10":
        return (m - n) % 2 == 0
    if kind == "t11":
        return (m - n - 1) % 2 == 0
    if kind == "t20":
        return m % 2 == 0 and n % 2 == 0
    if kind == "t21":
        return (m - 1) % 2 == 0 and (n - 1) % 2 == 0
    if kind == "t22":
        return (m - n - 1) % 2 == 0
    return m == 0 and n == 0  # tau


def psi_monomial(kind: str, m: int, n: int, re_: int, im: int, s: int) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """psi of (re + im*i) e(theta*s/4) U^m V^n, exponents as reduced (num, den).

    Phases follow the module docstring: e(-theta/4 (m+n)^2) for t10/t11,
    e(-theta/2 mn) for t20/t21/t22, none for tau.
    """
    if not _delta(kind, m, n) or (re_ == 0 and im == 0):
        return {}
    if kind in ("t10", "t11"):
        num = s - (m + n) ** 2
    elif kind == "tau":
        num = s
    else:
        num = s - 2 * m * n
    g = math.gcd(num, 4)
    return {(num // g, 4 // g): (re_, im)}


def normalised_scalar(terms: Mapping) -> Dict[Tuple[int, int], Tuple[Fraction, Fraction]]:
    """A program PhaseScalar's terms as {(num, den): (re, im)}."""
    return {(r.numerator, r.denominator): (c.re, c.im) for r, c in terms.items()}


def psi_sample_failures(cases: Sequence[Tuple[str, int, int, int, int, int]], values: Sequence[Mapping]) -> List[str]:
    """Compare program psi values with psi_monomial, case by case."""
    out = []
    for case, value in zip(cases, values):
        want = psi_monomial(*case)
        if normalised_scalar(value) != want:
            out.append(f"psi{case}: got {normalised_scalar(value)}, want {want}")
    return out


# --- the seed family (own Fraction arithmetic) --------------------------------

def seed_chain(k: int, m: int, k1: Fraction, k2: Fraction) -> Optional[Tuple[Fraction, Fraction]]:
    """The seed's open interval, or None when its five-link chain breaks."""
    n = 4 * m * k + 1
    q = n * n
    s = q + 4 * m * m
    p = 4 * k * k * (2 * n + 1)
    r = p + 2 * n - 3
    lo = Fraction(p * q - k1, q * q)
    hi = Fraction(r * s + k2, s * s)
    chain = (Fraction(4 * k * m - 1, 2 * m * m), Fraction(r, s), lo, hi, Fraction(p, q), Fraction(2 * k, m))
    if all(a < b for a, b in zip(chain, chain[1:])):
        return lo, hi
    return None


def brute_member(theta: Fraction, kmax: int, k1: Fraction, k2: Fraction) -> List[Tuple[int, int]]:
    """Every reduced seed k/m < 1/2 with k, m <= kmax whose interval holds theta."""
    hits = []
    for m in range(1, kmax + 1):
        for k in range(1, min(kmax, (m - 1) // 2) + 1):
            if math.gcd(k, m) != 1:
                continue
            iv = seed_chain(k, m, k1, k2)
            if iv is not None and iv[0] < theta < iv[1]:
                hits.append((k, m))
    return hits


def member_failures(report: Mapping, expected: Sequence[Tuple[int, int]]) -> List[str]:
    got = [(s["k"], s["m"]) for s in report.get("seeds", [])]
    if got != list(expected):
        return [f"member theta={report.get('theta')}: got {got}, want {list(expected)}"]
    return []


def derived_failures(seed: Mapping, derived: Mapping) -> List[str]:
    """Properties every certificate's derived integers must have."""
    k, m = seed["k"], seed["m"]
    d = derived
    checks = {
        "n = 4mk + 1": d["n"] == 4 * m * k + 1,
        "q = n^2": d["q"] == d["n"] ** 2,
        "s - q = 4m^2": d["s"] - d["q"] == 4 * m * m,
        "ps - qr = 1": d["p"] * d["s"] - d["q"] * d["r"] == 1,
        "sA - Br = 1": d["s"] * d["A"] - d["B"] * d["r"] == 1,
    }
    return [f"seed {k}/{m}: {name} fails" for name, ok in checks.items() if not ok]


def report_failures(label: str, report: Mapping) -> List[str]:
    """Every ok/overall flag a report carries must be true."""
    out = []
    for key in ("ok", "overall"):
        if key in report and report[key] is not True:
            out.append(f"{label}: report has {key} = {report[key]!r}")
    return out


# --- expressions: generation, product and psi (own arithmetic) ---------------

def render(terms: Sequence[Term]) -> str:
    """Grammar text for a sum of terms (re + im*i) ph(r) U^m V^n."""
    pieces = []
    for re_, im, r, m, n in terms:
        coeff = f"({re_} + {im}*i)"
        pieces.append(f"{coeff}*ph({r.numerator}/{r.denominator})*U^{m}*V^{n}")
    return " + ".join(pieces)


def _add(acc: Scalar, r: Fraction, re_, im) -> None:
    a, b = acc.get(r, (0, 0))
    a, b = a + re_, b + im
    if a or b:
        acc[r] = (a, b)
    else:
        acc.pop(r, None)


def product(left: Sequence[Term], right: Sequence[Term]) -> Element:
    """Normal form of (sum left)(sum right) under V^b U^c = e(theta bc) U^c V^b."""
    out: Element = {}
    for re1, im1, r1, a, b in left:
        for re2, im2, r2, c, d in right:
            acc = out.setdefault((a + c, b + d), {})
            _add(acc, r1 + r2 + b * c, re1 * re2 - im1 * im2, re1 * im2 + im1 * re2)
    return {key: acc for key, acc in out.items() if acc}


def psi_element(kind: str, element: Element) -> Scalar:
    """Linear extension of psi_monomial to a normal-form element."""
    out: Scalar = {}
    for (m, n), coeff in element.items():
        if not _delta(kind, m, n):
            continue
        if kind in ("t10", "t11"):
            shift = Fraction(-(m + n) ** 2, 4)
        elif kind == "tau":
            shift = Fraction(0)
        else:
            shift = Fraction(-m * n, 2)
        for r, (re_, im) in coeff.items():
            _add(out, r + shift, re_, im)
    return out


def _split_top(text: str) -> List[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


_PHASE_RE = re.compile(r"(?:(.*)\*)?ph\((.+)\)")


def parse_scalar(text: str) -> Scalar:
    """Read a printed scalar such as "(1 + 2*i)*ph(-1) + 3 + ph(1/4)"."""
    out: Scalar = {}
    if text.strip() == "0":
        return out
    for piece in _split_top(text):
        match = _PHASE_RE.fullmatch(piece)
        coeff, r = (match.group(1) or "1", Fraction(match.group(2))) if match else (piece, Fraction(0))
        if coeff.startswith("("):
            coeff = coeff[1:-1]
        for part in coeff.split("+"):
            part = part.strip()
            if part == "i":
                _add(out, r, 0, 1)
            elif part.endswith("*i"):
                _add(out, r, 0, Fraction(part[:-2]))
            else:
                _add(out, r, Fraction(part), 0)
    return out


def eval_failures(label: str, value_text: str, expected: Scalar) -> List[str]:
    got = parse_scalar(value_text)
    if got != expected:
        return [f"{label}: value {value_text!r} differs from the independent product"]
    return []


def fixpoint_failures(text: str, parse: Callable, unparse: Callable) -> List[str]:
    """Printed canonical text must read back to itself."""
    again = unparse(parse(text))
    if again != text:
        return [f"canonical text is not a fixpoint: {text!r} -> {again!r}"]
    return []


# --- the matrix witness -------------------------------------------------------

def witness_failures(w, q: int, p: int, tol: float = 1e-9) -> List[str]:
    """W u W* = v, W v W* = u*, W unitary, W^4 scalar, W = lambda * omega^{pjk}/sqrt(q)."""
    import numpy as np

    w = np.asarray(w, dtype=complex)
    j = np.arange(q)
    u = np.diag(np.exp(2j * np.pi * p * j / q))
    v = np.zeros((q, q), dtype=complex)
    v[j, (j + 1) % q] = 1.0
    ws = w.conj().T
    eye = np.eye(q)
    out = []
    if np.linalg.norm(w @ u @ ws - v) > tol:
        out.append(f"q={q} p={p}: W u W* != v")
    if np.linalg.norm(w @ v @ ws - u.conj().T) > tol:
        out.append(f"q={q} p={p}: W v W* != u*")
    if np.linalg.norm(ws @ w - eye) > tol:
        out.append(f"q={q} p={p}: W is not unitary")
    w4 = np.linalg.matrix_power(w, 4)
    c = w4[0, 0]
    if abs(abs(c) - 1) > tol or np.linalg.norm(w4 - c * eye) > tol:
        out.append(f"q={q} p={p}: W^4 is not a unimodular scalar")
    closed = np.exp(2j * np.pi * p * np.outer(j, j) / q) / math.sqrt(q)
    lam = w[0, 0] * math.sqrt(q)
    if abs(abs(lam) - 1) > tol or np.linalg.norm(w - lam * closed) > tol:
        out.append(f"q={q} p={p}: W is not a unimodular multiple of omega^(pjk)/sqrt(q)")
    return out


def dumped_matrix(rows: Sequence[Sequence[Sequence[float]]]):
    """The [re, im] pair dump of `matrix verify --dump` as a complex array."""
    import numpy as np

    return np.array([[complex(re_, im) for re_, im in row] for row in rows])
