"""Exception types shared across the package.

Class names double as the machine-readable error tokens printed by the
command line tool (``error = <ClassName>``), so they carry no ``Error``
suffix and must stay stable.  Each class also fixes the tool's exit code:
1 for a domain or validation error, 2 for bad input or usage, 3 for a
question left undecided within its budget.
"""


class FibernormError(Exception):
    """Base class for every domain error raised by this package."""

    exit_code = 1


class BadReductionPrime(FibernormError):
    """The chosen prime divides the leading coefficient of the polynomial."""


class NotNonnegative(FibernormError):
    """A matrix that must be entrywise nonnegative has a negative entry."""


class NotPrimitive(FibernormError):
    """No power of the matrix is entrywise positive within the Wielandt bound."""


class NoConvergence(FibernormError):
    """Inverse iteration at the Perron root did not settle, or a numeric result was not finite."""


class DimensionMismatch(FibernormError):
    """A vector or matrix does not match the expected dimension."""


class DegenerateMonodromy(FibernormError):
    """The minimal polynomial is smaller than the characteristic one, or k < 2 (e.g. [[5]])."""


class NotAField(FibernormError):
    """The characteristic polynomial factors over the rationals."""


class IrreducibilityUnverified(FibernormError):
    """Irreducibility could not be decided from the primes the certificate reads."""

    exit_code = 3


class PositivityUndecided(FibernormError):
    """A vector is still mixed-sign at the exact-iteration bound."""

    exit_code = 3


class EmbeddingMismatch(FibernormError):
    """The numeric embedding sum was not finite or not close to an integer."""


class BackwardTelescope(FibernormError):
    """Telescoping only moves elements to later stages."""


class TooFewLevels(FibernormError):
    """A diagram needs at least two floors."""


class GenusTooSmall(FibernormError):
    """Surface genus must be at least 2."""


class ProngTooSmall(FibernormError):
    """Every saddle must have at least 3 prongs."""


class CardinalityOutOfRange(FibernormError):
    """The number of singular points must lie between 1 and 4g-4."""


class IndexSumMismatch(FibernormError):
    """The prong indices do not add up to the Euler characteristic."""


class ActionDimensionMismatch(FibernormError):
    """The action matrix does not have the rank 2g+m-1 demanded by the data."""


class ParseError(FibernormError):
    """Malformed input document."""

    exit_code = 2

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UsageError(FibernormError):
    """Bad command line (unknown subcommand or flag, bad or missing value) or unreadable input."""

    exit_code = 2
