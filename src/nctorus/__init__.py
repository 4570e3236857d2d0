"""Exact verification toolkit for the order-four Fourier transform of the
two-unitary rotation algebra.

Modules by role:

- exactscalar: Gaussian rationals, formal phase sums, linear theta forms,
  open rational intervals, and exact sign decisions on them.
- ncalgebra: symbolic elements of the rotation algebra over a formal
  parameter, with product, star, the order-four transform, the parity
  automorphism, and the two parameter-changing embeddings.
- traces: five quasi-trace functionals plus the canonical trace, their
  law suite, and the basis-change relations between them.
- chern: invariant vectors of the canonically charged projections, their
  transfer under the embeddings, and exact crosschecks of the closed forms.
- gclass: a two-integer seed family with exact identities, nested interval
  chains, modular splitting, and full decomposition certificates.
- matrixmodel: finite clock/shift matrices and the closed-form twisted
  Fourier matrix that witnesses the order-four transform at rational
  parameter, checked by numeric residuals.
- exprcli: a small expression grammar for elements, with parse and unparse.
- cli: the nct command line entry point.
"""

from .errors import (
    BadInput,
    BadSeed,
    ChainFailure,
    DomainPhase,
    ExprSyntaxError,
    IndeterminateSign,
    NCTError,
    NotCoprime,
    ParamMismatch,
)
from .exactscalar import (
    GaussRat,
    Interval,
    PhaseScalar,
    ThetaLinear,
    parse_rat,
    rat_str,
    tl_sign,
)
from .ncalgebra import (
    NCElement,
    ONE_MINUS_THETA,
    Param,
    THETA,
    gamma,
    monomial,
    mul,
    nu,
    one,
    scaled_param,
    sigma,
    star,
    zeta,
    zero,
)
from .traces import TraceKind, psi, psi_star, run_trace_suite
from .chern import (
    ChernVector,
    TopVector,
    chern_one,
    crosscheck_closed_forms,
    flat_vector,
    gamma_top,
    nu_transfer,
    top_E,
    top_eb_minus,
    top_eq_plus,
    top_flat,
    verify_lemma_psizeta,
    zeta_transfer,
)
from .gclass import (
    Certificate,
    DEFAULT_KAPPAS,
    DerivedParams,
    Kappas,
    Lemma31Record,
    SeedParams,
    certify,
    derive,
    interval,
    lemma31_arithmetic,
    member,
    seed_grid,
    verify_chain,
    verify_identities,
)
from .matrixmodel import (
    IntertwinerReport,
    clock,
    fourier_intertwiner,
    intertwiner_report,
    shift,
)
from .exprcli import parse, unparse

__version__ = "0.1.0"

__all__ = [
    "BadInput",
    "BadSeed",
    "ChainFailure",
    "Certificate",
    "ChernVector",
    "DEFAULT_KAPPAS",
    "DerivedParams",
    "DomainPhase",
    "ExprSyntaxError",
    "GaussRat",
    "IndeterminateSign",
    "Interval",
    "IntertwinerReport",
    "Kappas",
    "Lemma31Record",
    "NCElement",
    "NCTError",
    "NotCoprime",
    "ONE_MINUS_THETA",
    "Param",
    "ParamMismatch",
    "PhaseScalar",
    "SeedParams",
    "THETA",
    "ThetaLinear",
    "TopVector",
    "TraceKind",
    "certify",
    "chern_one",
    "clock",
    "crosscheck_closed_forms",
    "derive",
    "flat_vector",
    "fourier_intertwiner",
    "gamma",
    "gamma_top",
    "intertwiner_report",
    "interval",
    "lemma31_arithmetic",
    "member",
    "monomial",
    "mul",
    "nu",
    "nu_transfer",
    "one",
    "parse",
    "parse_rat",
    "psi",
    "psi_star",
    "rat_str",
    "run_trace_suite",
    "scaled_param",
    "seed_grid",
    "shift",
    "sigma",
    "star",
    "tl_sign",
    "top_E",
    "top_eb_minus",
    "top_eq_plus",
    "top_flat",
    "unparse",
    "verify_chain",
    "verify_identities",
    "verify_lemma_psizeta",
    "zero",
    "zeta",
    "zeta_transfer",
]
