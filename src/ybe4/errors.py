"""Exception types shared across the package."""

from __future__ import annotations


class Ybe4Error(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(Ybe4Error):
    """A matrix required to be invertible is singular to working precision.

    ``value`` is the smallest singular value and ``bound`` the threshold it
    failed to exceed (``singular_tol`` times the largest singular value);
    both are None where the check was not a singular-value test.
    """

    def __init__(
        self, message: str, value: float | None = None, bound: float | None = None
    ):
        super().__init__(message)
        self.value = value
        self.bound = bound


class NonConvergence(Ybe4Error):
    """A numerical result failed its own check.

    Raised, e.g., for an eigenvalue that does not root the characteristic
    polynomial.  ``root``, ``residual`` and ``bound`` carry the failing
    value, its residual and the bound that residual exceeded; ``index`` is
    the row of the failing matrix when a stack was checked, else None.
    """

    def __init__(
        self,
        message: str,
        root: complex | None = None,
        residual: float | None = None,
        bound: float | None = None,
        index: int | None = None,
    ):
        super().__init__(message)
        self.root = root
        self.residual = residual
        self.bound = bound
        self.index = index


class SizeExceeded(Ybe4Error):
    """A requested representation would exceed the supported size limit."""


class ConstraintViolation(Ybe4Error, ValueError):
    """Parameters fail the defining constraints of the requested object.

    Carries the list of human-readable violation descriptions.  Also a
    ValueError, so callers that catch the built-in keep working.
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


class ZeroState(Ybe4Error, ValueError):
    """A two-qubit amplitude vector is zero, so it names no state.

    Also a ValueError, so callers that catch the built-in keep working.
    """


class EntangledState(Ybe4Error, ValueError):
    """An entangled state was given where a product state is required.

    Raised by TwoQubitState.factors.  Also a ValueError, so callers that
    catch the built-in keep working.
    """
