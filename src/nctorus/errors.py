"""Exception hierarchy shared by all nctorus modules.

Every domain error derives from NCTError.  The CLI maps ChainFailure and
IndeterminateSign, which mean a verification failed, to exit code 1 with
a report that says ok false; every other NCTError is a usage or domain
error and maps to exit code 2.
"""


class NCTError(Exception):
    """Base class for all domain errors raised by this package."""


class DomainPhase(NCTError):
    """A phase exponent left the quarter-integer lattice, so the value
    would fall outside the Gaussian rationals."""


class ParamMismatch(NCTError):
    """Operands live in algebras with different parameters."""


class BadInput(NCTError):
    """Arguments violate a documented precondition (coprimality, ranges)."""


class BadSeed(BadInput):
    """A (k, m) seed violates gcd(k, m) = 1, k, m >= 1 or 2k < m."""


class NotCoprime(BadInput):
    """A pair that must be coprime is not."""


class ChainFailure(NCTError):
    """The inequality chain fails, so the requested interval is undefined."""


class IndeterminateSign(NCTError):
    """An exact sign query over an interval could not be decided."""


class ExprSyntaxError(NCTError):
    """Input text does not conform to the expression grammar.

    Carries the 0-based character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
