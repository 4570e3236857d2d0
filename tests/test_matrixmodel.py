"""Clock/shift matrices and the closed-form Fourier intertwiner."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nctorus import (
    BadInput,
    clock,
    fourier_intertwiner,
    intertwiner_report,
    shift,
)
from nctorus.matrixmodel import TOL, matrix_to_json


def coprime_pairs(qmax):
    return [(q, p) for q in range(1, qmax + 1) for p in range(1, q + 1) if math.gcd(p, q) == 1]


class TestClockShift:
    def test_shapes_and_unitarity(self):
        for q, p in ((1, 1), (2, 1), (5, 2)):
            u = clock(q, p)
            v = shift(q)
            assert u.shape == v.shape == (q, q)
            eye = np.eye(q)
            assert np.allclose(u @ u.conj().T, eye, atol=1e-12)
            assert np.allclose(v @ v.conj().T, eye, atol=1e-12)

    def test_exact_commutation(self):
        # v u = e(p/q) u v holds to rounding error by construction
        for q, p in coprime_pairs(8):
            u = clock(q, p)
            v = shift(q)
            phase = np.exp(2j * np.pi * p / q)
            assert np.max(np.abs(v @ u - phase * (u @ v))) < 1e-14

    def test_orders(self):
        q, p = 6, 5
        u = clock(q, p)
        v = shift(q)
        assert np.allclose(np.linalg.matrix_power(u, q), np.eye(q), atol=1e-12)
        assert np.allclose(np.linalg.matrix_power(v, q), np.eye(q), atol=1e-12)

    def test_rejects_bad_pairs(self):
        with pytest.raises(BadInput):
            clock(4, 2)
        with pytest.raises(BadInput):
            shift(0)
        with pytest.raises(BadInput):
            intertwiner_report(4, 2)


class TestIntertwiner:
    def test_small_residuals(self):
        for q, p in ((2, 1), (3, 1), (3, 2), (5, 3), (8, 3)):
            rep = intertwiner_report(q, p)
            assert rep.ok
            assert max(rep.resid_u, rep.resid_v, rep.resid_unitary) <= TOL

    def test_unique_solution_of_kronecker_system(self):
        # W u = v W and W v = u* W stacked as one linear system in vec(W):
        # rank q^2 - 1 says the solution is unique up to scale (a numeric
        # witness of irreducibility), and W must lie in its null space
        for q, p in coprime_pairs(6):
            u, v = clock(q, p), shift(q)
            eye = np.eye(q)
            stacked = np.vstack([
                np.kron(u.T, eye) - np.kron(eye, v),
                np.kron(v.T, eye) - np.kron(eye, u.conj().T),
            ])
            assert np.linalg.matrix_rank(stacked) == q * q - 1, (q, p)
            vec_w = fourier_intertwiner(q, p).reshape(-1, order="F")
            assert np.linalg.norm(stacked @ vec_w) <= TOL, (q, p)

    def test_order_four(self):
        for q, p in ((2, 1), (5, 2), (9, 4)):
            assert intertwiner_report(q, p).order_four_ok

    def test_trivial_dimension(self):
        rep = intertwiner_report(1, 1)
        assert rep.ok

    def test_report_json(self):
        obj = intertwiner_report(4, 3).to_json()
        assert obj["q"] == 4 and obj["p"] == 3
        assert obj["ok"] is True
        assert obj["resid_u"] <= 1e-9

    def test_matrix_json_shape(self):
        w = fourier_intertwiner(2, 1)
        obj = matrix_to_json(w)
        assert len(obj) == 2 and len(obj[0]) == 2 and len(obj[0][0]) == 2
        assert obj[0][0][0] == pytest.approx(1 / math.sqrt(2))

    @given(st.sampled_from(coprime_pairs(12)))
    def test_intertwines_on_random_pairs(self, pair):
        q, p = pair
        u, v, w = clock(q, p), shift(q), fourier_intertwiner(q, p)
        assert np.max(np.abs(w @ u @ w.conj().T - v)) < 1e-9
        assert np.max(np.abs(w @ v @ w.conj().T - u.conj().T)) < 1e-9
