"""Shared hypothesis strategies for the test suite."""

from fractions import Fraction

from hypothesis import HealthCheck, settings, strategies as st

from nctorus import GaussRat, NCElement, Param, PhaseScalar, THETA
from nctorus.ncalgebra import monomial, zero

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@st.composite
def fractions_small(draw, max_num: int = 8, dens=(1, 2, 3, 4)) -> Fraction:
    num = draw(st.integers(min_value=-max_num, max_value=max_num))
    den = draw(st.sampled_from(dens))
    return Fraction(num, den)


@st.composite
def gauss_rats(draw) -> GaussRat:
    return GaussRat(draw(fractions_small()), draw(fractions_small()))


@st.composite
def phase_scalars(draw, max_terms: int = 3, dens=(1, 2, 3, 4)) -> PhaseScalar:
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    out = PhaseScalar.zero()
    for _ in range(n_terms):
        coeff = draw(gauss_rats())
        exponent = draw(fractions_small(max_num=6, dens=dens))
        out = out + PhaseScalar.phase(exponent, coeff)
    return out


@st.composite
def nc_elements(draw, param: Param = THETA, window: int = 3, max_terms: int = 3,
                dens=(1, 2, 3, 4)) -> NCElement:
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    out = zero(param)
    exponent = st.integers(min_value=-window, max_value=window)
    for _ in range(n_terms):
        coeff = draw(phase_scalars(max_terms=2, dens=dens))
        out = out + monomial(param, coeff, draw(exponent), draw(exponent))
    return out
