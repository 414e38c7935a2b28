"""Exception types shared across the package.

Every error carries a human-readable message naming the violated
contract and, where applicable, the offending magnitude.
"""


class BackflowError(Exception):
    """Base class for all library errors."""


# --- input / contract violations (CLI exit code 1) ---------------------


class NotHermitian(BackflowError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositive(BackflowError):
    """Matrix has an eigenvalue below the negative tolerance."""


class BadTrace(BackflowError):
    """Trace differs from the required value beyond tolerance."""


class BadDimension(BackflowError):
    """Matrix or vector has an unsupported shape or dimension."""


class DimensionMismatch(BackflowError):
    """Two operands live on Hilbert spaces of different dimension."""


class IdenticalStates(BackflowError):
    """Operation requires two distinct states."""


class OrthogonalPair(BackflowError):
    """Operation requires a non-orthogonal state pair."""


class DomainError(BackflowError):
    """Argument (a scalar, or an entry of a matrix or vector) outside its documented domain."""


class ParseError(BackflowError):
    """Configuration file could not be parsed."""


class ValidationError(BackflowError):
    """Configuration value fails validation."""


# --- numerical failures (CLI exit code 2) ------------------------------


class NumericalFailure(BackflowError):
    """Base class for the numerical failures; the CLI exits with code 2 on these."""


class QuadratureFailure(NumericalFailure):
    """Cumulative quadrature produced non-finite values."""


class CptViolation(NumericalFailure):
    """Map coefficients violate trace preservation / complete positivity."""


class IntegratorDiverged(NumericalFailure):
    """Time stepping produced non-finite matrix entries."""


class PositivityLost(NumericalFailure):
    """Integrated state drifted below the allowed negative-eigenvalue band."""


class PositivityFailure(NumericalFailure):
    """Translated state failed positivity validation."""
