"""Numeric clock/shift witness of the order-four matrix Fourier transform.

The clock matrix u = diag(e(j*p/q)) and the cyclic shift v satisfy
vu = e(p/q) uv, and for gcd(p, q) = 1 they generate the full matrix
algebra irreducibly.  The transform sending u -> v, v -> u* is then inner,
implemented by the twisted finite Fourier matrix

    W_jk = e(p*j*k/q) / sqrt(q),    j, k = 0..q-1,

with W u W* = v and W v W* = u*.  W^2 is the index reversal j -> -j mod q,
so conjugation by W has order four.  The report measures W against
independently built u and v: both intertwining residuals, unitarity, and
the order-four relations, as double-precision Frobenius norms against TOL.
numpy is imported inside the functions that use it, so importing the
package (and running any command but matrix verify) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from .errors import BadInput

if TYPE_CHECKING:
    import numpy as np

    CMatrix = np.ndarray

#: residual tolerance for all verification norms (double precision, q <= 64)
TOL = 1e-9


def _check_pair(q: int, p: int) -> None:
    if q < 1:
        raise BadInput(f"matrix size must be >= 1, got {q}")
    if math.gcd(p, q) != 1:
        raise BadInput(f"need gcd(p, q) = 1, got ({p}, {q})")


def clock(q: int, p: int) -> CMatrix:
    """Diagonal matrix with entries e(j*p/q), j = 0..q-1; p is reduced mod q first."""
    import numpy as np
    _check_pair(q, p)
    p %= q
    j = np.arange(q)
    return np.diag(np.exp(2j * np.pi * p * j / q))


def shift(q: int) -> CMatrix:
    """Cyclic shift: entry 1 at (j, j+1 mod q); with clock u, vu = e(p/q) uv."""
    import numpy as np
    if q < 1:
        raise BadInput(f"matrix size must be >= 1, got {q}")
    v = np.zeros((q, q), dtype=complex)
    j = np.arange(q)
    v[j, (j + 1) % q] = 1.0
    return v


def fourier_intertwiner(q: int, p: int) -> CMatrix:
    """The twisted finite Fourier matrix W_jk = e(p*j*k/q)/sqrt(q).

    W is unitary with W u W* = v and W v W* = u* for the (q, p) clock/shift
    pair.  p and the exponent p*j*k are reduced mod q in integers first, so
    any integer p works and every angle lies in [0, 2*pi).
    """
    import numpy as np
    _check_pair(q, p)
    p %= q
    j = np.arange(q)
    return np.exp(2j * np.pi * (p * np.outer(j, j) % q) / q) / math.sqrt(q)


@dataclass(frozen=True)
class IntertwinerReport:
    """Residual summary for one (q, p) pair, with the W it measured (not in the JSON)."""

    q: int
    p: int
    resid_u: float
    resid_v: float
    resid_unitary: float
    order_four_ok: bool
    w: Optional[CMatrix] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return (
            self.resid_u <= TOL
            and self.resid_v <= TOL
            and self.resid_unitary <= TOL
            and self.order_four_ok
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "q": self.q,
            "p": self.p,
            "resid_u": self.resid_u,
            "resid_v": self.resid_v,
            "resid_unitary": self.resid_unitary,
            "order_four_ok": self.order_four_ok,
            "ok": self.ok,
        }


def _orbit(w: CMatrix, wh: CMatrix, x: CMatrix) -> List[CMatrix]:
    """x, WxW*, ..., W^4xW*^4 for wh = W*."""
    out = [x]
    for _ in range(4):
        out.append(w @ out[-1] @ wh)
    return out


def intertwiner_report(q: int, p: int) -> IntertwinerReport:
    """Build W once, walk the orbits of u and v under it, and measure every residual."""
    import numpy as np
    w = fourier_intertwiner(q, p)
    wh = w.conj().T
    u = clock(q, p)
    v = shift(q)
    us = _orbit(w, wh, u)
    vs = _orbit(w, wh, v)
    w4 = np.linalg.matrix_power(w, 4)
    scalar = np.trace(w4) / q
    order_four_ok = bool(
        np.linalg.norm(us[2] - u.conj().T) <= TOL
        and np.linalg.norm(vs[2] - v.conj().T) <= TOL
        and np.linalg.norm(us[4] - u) <= TOL
        and np.linalg.norm(vs[4] - v) <= TOL
        and np.linalg.norm(w4 - scalar * np.eye(q)) <= TOL
    )
    return IntertwinerReport(
        q=q,
        p=p,
        resid_u=float(np.linalg.norm(us[1] - v)),
        resid_v=float(np.linalg.norm(vs[1] - u.conj().T)),
        resid_unitary=float(np.linalg.norm(wh @ w - np.eye(q))),
        order_four_ok=order_four_ok,
        w=w,
    )


def matrix_to_json(w: CMatrix) -> List[List[List[float]]]:
    """Dense dump as rows of [re, im] pairs."""
    import numpy as np
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(w)]
