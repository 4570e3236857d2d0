"""Symbolic rotation-algebra elements and their structure maps."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nctorus import (
    ONE_MINUS_THETA,
    Param,
    ParamMismatch,
    PhaseScalar,
    THETA,
    gamma,
    monomial,
    mul,
    nu,
    one,
    scaled_param,
    sigma,
    star,
    zero,
    zeta,
)
from nctorus.exactscalar import PS_ONE

from conftest import nc_elements, phase_scalars

F = Fraction


def mono(m: int, n: int, param: Param = THETA, c: PhaseScalar = PS_ONE):
    return monomial(param, c, m, n)


U = mono(1, 0)
V = mono(0, 1)


def _pairwise_product(x, y):
    """x y as the sum of one monomial per term pair, added one at a time."""
    out = zero(x.param)
    for (a, b), cx in x.terms.items():
        for (c, d), cy in y.terms.items():
            out = out + mono(a + c, b + d, x.param, (cx * cy).shift(b * c))
    return out


class TestParam:
    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            Param(0, 0)
        with pytest.raises(ValueError, match="lam must be nonzero"):
            Param(0)

    def test_frozen_value(self):
        with pytest.raises(AttributeError):
            THETA.lam = F(2)
        assert Param(-1, 1) == Param(F(-1), F(1)) and hash(Param(-1, 1)) == hash(Param(F(-1), F(1)))
        assert Param(3) == Param(3, 0) and type(Param(3).mu) is F

    def test_scaled_param(self):
        assert scaled_param(2, -1) == Param(4, 1)
        assert scaled_param(1, 0) == THETA

    def test_named_params(self):
        assert THETA == Param(1, 0)
        assert ONE_MINUS_THETA == Param(-1, 1)


class TestNormalForm:
    def test_commutation(self):
        # reordering V*U produces exactly one phase factor
        assert mul(V, U) == mono(1, 1, c=PhaseScalar.phase(1))
        assert mul(U, V) == mono(1, 1)

    def test_inverse_pairs(self):
        assert mul(U, mono(-1, 0)) == one()
        assert mul(V, mono(0, -1)) == one()
        assert mul(mono(0, -1), mono(-1, 0)) == mono(-1, -1, c=PhaseScalar.phase(1))

    def test_general_reorder(self):
        # V^n U^m picks up the phase e(theta)^(n*m)
        for m in (-2, 1, 3):
            for n in (-1, 2):
                lhs = mul(mono(0, n), mono(m, 0))
                assert lhs == mono(m, n, c=PhaseScalar.phase(n * m))

    def test_distributes_over_sums(self):
        x = U + V
        y = U - V
        expect = (mul(U, U) - mul(U, V) + mul(V, U)) - mul(V, V)
        assert mul(x, y) == expect

    @given(nc_elements(window=1, max_terms=5), nc_elements(window=1, max_terms=5))
    def test_matches_product_summed_pair_by_pair(self, x, y):
        # exponents in -1..1, so many pairs land on one monomial
        assert mul(x, y) == _pairwise_product(x, y)

    def test_colliding_pairs_cancel(self):
        # U U^-1 and V (-V^-1) both land on the constant term and cancel
        x, y = U + V, mono(-1, 0) - mono(0, -1)
        assert (0, 0) not in mul(x, y).terms
        assert mul(x, y) == _pairwise_product(x, y) == mono(-1, 1, c=PhaseScalar.phase(-1)) - mono(1, -1)

    def test_param_mismatch(self):
        with pytest.raises(ParamMismatch):
            mul(U, mono(1, 0, param=ONE_MINUS_THETA))
        with pytest.raises(ParamMismatch):
            U + mono(1, 0, param=ONE_MINUS_THETA)

    @given(nc_elements(), nc_elements(), nc_elements())
    def test_mul_associative(self, x, y, z):
        assert mul(mul(x, y), z) == mul(x, mul(y, z))

    @given(nc_elements(), nc_elements(), nc_elements())
    def test_mul_distributive(self, x, y, z):
        assert mul(x + y, z) == mul(x, z) + mul(y, z)
        assert mul(z, x + y) == mul(z, x) + mul(z, y)

    @given(nc_elements())
    def test_unit_laws(self, x):
        assert mul(one(), x) == x
        assert mul(x, one()) == x
        assert mul(zero(), x) == zero()


class TestStar:
    def test_on_generators(self):
        assert star(U) == mono(-1, 0)
        assert star(V) == mono(0, -1)
        assert star(mono(1, 1)) == mono(-1, -1, c=PhaseScalar.phase(1))

    @given(nc_elements())
    def test_involution(self, x):
        assert star(star(x)) == x

    @given(nc_elements(), nc_elements())
    def test_antimultiplicative(self, x, y):
        assert star(mul(x, y)) == mul(star(y), star(x))

    @given(nc_elements(), nc_elements())
    def test_additive(self, x, y):
        assert star(x + y) == star(x) + star(y)


class TestSigmaGamma:
    def test_sigma_on_generators(self):
        assert sigma(U) == mono(0, -1)
        assert sigma(V) == U

    def test_gamma_on_generators(self):
        assert gamma(U) == -U
        assert gamma(V) == -V
        assert gamma(mono(1, 1)) == mono(1, 1)
        assert gamma(mono(2, 1)) == -mono(2, 1)

    def test_sigma_squared_is_coordinate_flip(self):
        c = PhaseScalar.phase(F(1, 2))
        for m in (-2, 0, 1, 3):
            for n in (-1, 0, 2):
                x = mono(m, n, c=c)
                assert sigma(sigma(x)) == mono(-m, -n, c=c)

    @given(nc_elements())
    def test_sigma_order_four(self, x):
        assert sigma(sigma(sigma(sigma(x)))) == x

    @given(nc_elements())
    def test_gamma_involution(self, x):
        assert gamma(gamma(x)) == x

    @given(nc_elements())
    def test_sigma_gamma_commute(self, x):
        assert sigma(gamma(x)) == gamma(sigma(x))

    @given(nc_elements(), nc_elements())
    def test_sigma_is_homomorphism(self, x, y):
        assert sigma(mul(x, y)) == mul(sigma(x), sigma(y))
        assert sigma(x + y) == sigma(x) + sigma(y)

    @given(nc_elements(), nc_elements())
    def test_gamma_is_homomorphism(self, x, y):
        assert gamma(mul(x, y)) == mul(gamma(x), gamma(y))

    @given(nc_elements())
    def test_sigma_star_commute(self, x):
        assert sigma(star(x)) == star(sigma(x))


class TestNu:
    def test_on_generators(self):
        up = mono(1, 0, param=ONE_MINUS_THETA)
        vp = mono(0, 1, param=ONE_MINUS_THETA)
        assert nu(up) == V
        assert nu(vp) == U

    def test_requires_reflected_param(self):
        with pytest.raises(ParamMismatch):
            nu(U)

    @given(nc_elements(param=ONE_MINUS_THETA, dens=(1, 2, 4)), nc_elements(param=ONE_MINUS_THETA, dens=(1, 2, 4)))
    def test_homomorphism(self, x, y):
        assert nu(mul(x, y)) == mul(nu(x), nu(y))
        assert nu(x + y) == nu(x) + nu(y)

    @given(nc_elements(param=ONE_MINUS_THETA, dens=(1, 2, 4)))
    def test_star_preserving(self, x):
        assert nu(star(x)) == star(nu(x))

    @given(nc_elements(param=ONE_MINUS_THETA, dens=(1, 2, 4)))
    def test_fourier_intertwining(self, x):
        # the transform on the reflected side runs backwards through nu
        assert sigma(nu(x)) == nu(sigma(sigma(sigma(x))))


class TestZeta:
    def test_on_generators(self):
        src = scaled_param(2, 1)
        up = mono(1, 0, param=src)
        vp = mono(0, 1, param=src)
        assert zeta(2, 1, up) == mono(2, 0)
        assert zeta(2, 1, vp) == mono(0, 2)

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            zeta(0, 1, one(scaled_param(1, 1)))

    def test_requires_scaled_param(self):
        with pytest.raises(ParamMismatch):
            zeta(2, 1, U)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=-2, max_value=2),
           st.data())
    def test_homomorphism(self, nn, k, data):
        src = scaled_param(nn, k)
        x = data.draw(nc_elements(param=src, dens=(1, 2, 4)))
        y = data.draw(nc_elements(param=src, dens=(1, 2, 4)))
        assert zeta(nn, k, mul(x, y)) == mul(zeta(nn, k, x), zeta(nn, k, y))
        assert zeta(nn, k, x + y) == zeta(nn, k, x) + zeta(nn, k, y)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=-2, max_value=2),
           st.data())
    def test_star_preserving(self, nn, k, data):
        src = scaled_param(nn, k)
        x = data.draw(nc_elements(param=src, dens=(1, 2, 4)))
        assert zeta(nn, k, star(x)) == star(zeta(nn, k, x))

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=-2, max_value=2),
           st.data())
    def test_fourier_intertwining(self, nn, k, data):
        src = scaled_param(nn, k)
        x = data.draw(nc_elements(param=src, dens=(1, 2, 4)))
        assert sigma(zeta(nn, k, x)) == zeta(nn, k, sigma(x))


class TestElementBasics:
    def test_zero_and_scale(self):
        assert not (U - U) and (U - U) == zero()
        assert mul(mono(0, 0, c=PhaseScalar.phase(1)), U) == mono(1, 0, c=PhaseScalar.phase(1))
        assert -(-U) == U

    @given(nc_elements())
    def test_operator_mul_matches_function(self, x):
        assert x * U == mul(x, U)
        assert U * x == mul(U, x)
