"""Exception hierarchy for monosplit.

Every error raised by the library derives from :class:`MonosplitError`, so
callers can catch one base class.  Errors that double as standard Python
failure modes also subclass the matching builtin (``ValueError``,
``IndexError``) to stay friendly to generic handling.
"""

from __future__ import annotations


class MonosplitError(Exception):
    """Base class for all monosplit errors."""


class InputValidationError(MonosplitError, ValueError):
    """Malformed input: non-finite entries, empty sets, bad shapes."""


class DimensionMismatch(InputValidationError):
    """Vector or matrix dimensions do not agree with the declared layout."""


class IndexOutOfRange(MonosplitError, IndexError):
    """A marginal index fell outside 1..N."""


class OffGrid(MonosplitError, KeyError):
    """A tabulated cost was evaluated at a point missing from its grid."""


class NotOneDimensional(InputValidationError):
    """An operation that requires scalar marginals received vectors."""


class BudgetExceeded(MonosplitError):
    """An exhaustive enumeration would exceed its configured budget."""


class OrderTooLarge(BudgetExceeded):
    """The permutation order requested from the brute-force verifier is
    beyond the factorial guard."""


class NotCyclicallyMonotone(MonosplitError):
    """A construction that needs cyclic monotonicity found a positive cycle.

    Attributes:
        cycle: indices of the offending pairs, rotated so the lowest index
            comes first.
        gain: net cost gain realised by traversing the cycle once.
    """

    def __init__(self, message: str, cycle: tuple[int, ...], gain: float):
        super().__init__(message)
        self.cycle = cycle
        self.gain = gain


class ProjectionNotMonotone(MonosplitError):
    """A pair projection of the input set fails cyclic monotonicity.

    Attributes:
        pair: the 1-based marginal indices (i, j) of the failing projection.
        cycle: indices of the offending pairs inside that projection.
        gain: net gain of the positive cycle.
    """

    def __init__(self, message: str, pair: tuple[int, int],
                 cycle: tuple[int, ...], gain: float):
        super().__init__(message)
        self.pair = pair
        self.cycle = cycle
        self.gain = gain


class BasePointNotInProjection(InputValidationError):
    """The requested base point is not a first coordinate of any pair."""


class BasePointNotInGamma(InputValidationError):
    """The requested base point does not belong to the input set."""


class ImproperInput(InputValidationError):
    """A potential with no finite value was passed where a proper one is
    required."""


class UndefinedOnGamma(MonosplitError):
    """A potential evaluates to +inf at a point it must cover."""


class NotSymmetric(InputValidationError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(MonosplitError):
    """A matrix expected to be positive definite has a nonpositive
    eigenvalue."""


class NotCommuting(MonosplitError):
    """Two matrices expected to commute do not, beyond tolerance."""


class InversionFailure(MonosplitError):
    """Bisection could not bracket or resolve an inverse value."""


class InternalInconsistency(MonosplitError):
    """Two routes that must agree produced different answers.

    Raised when a certified property fails a cross-check that theory says
    cannot fail; indicates a bug, never bad user input.
    """


class ParseError(MonosplitError, ValueError):
    """A JSON document does not match the expected schema."""
