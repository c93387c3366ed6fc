"""Exception types shared across the package."""

from __future__ import annotations


class Ybe4Error(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(Ybe4Error):
    """A matrix required to be invertible is singular to working precision."""


class NonConvergence(Ybe4Error):
    """A numerical result failed its own check.

    Raised, e.g., for an eigenvalue that does not root the characteristic
    polynomial.
    """


class SizeExceeded(Ybe4Error):
    """A requested representation would exceed the supported size limit."""


class ConstraintViolation(Ybe4Error):
    """Parameters fail the defining constraints of the requested object.

    Carries the list of human-readable violation descriptions.
    """

    def __init__(self, violations: list[str] | str):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = violations
        super().__init__("; ".join(violations))


class NotUnitary(Ybe4Error):
    """Input matrix is not unitary to the requested tolerance."""


class NotASolution(Ybe4Error):
    """Input matrix does not satisfy the Yang-Baxter equation."""


class PreconditionFailed(Ybe4Error):
    """An operation's documented precondition does not hold for the input."""


class DegenerateParameter(Ybe4Error):
    """A parameter value sits at a degenerate point where the operation is undefined."""


class ParseError(Ybe4Error):
    """A matrix file is malformed or violates the schema."""


class DimensionError(Ybe4Error, ValueError):
    """A matrix has the wrong dimension for the requested operation.

    Also a ValueError, so callers that catch the built-in keep working.
    """


class NonFiniteValue(Ybe4Error, ValueError):
    """A matrix entry, or a quantity computed from it, is NaN or infinite.

    Raised for non-finite input entries and for Yang-Baxter residuals or
    bounds that overflow.  Also a ValueError, so callers that catch the
    built-in keep working.
    """
