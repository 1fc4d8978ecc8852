"""Exception types shared across the package, and how their messages show a rejected value."""


def shown(value) -> str:
    """``repr(value)`` for an error message; past 80 characters, its first and last 38."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:38]}...{text[-38:]}"


class ShapeError(ValueError):
    """Matrix shape and declared subsystem dimensions do not line up."""


class SizeError(ValueError):
    """An operation would produce a matrix beyond the configured size cap."""


class ValidationError(ValueError):
    """A candidate matrix failed density-matrix validation.

    ``violations`` lists every failed invariant with its magnitude, not just
    the one that triggered the raise.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class NotHermitianError(ValidationError):
    """Deviation from Hermiticity exceeds tolerance."""


class NotUnitTraceError(ValidationError):
    """Trace differs from one beyond tolerance."""


class NotPositiveError(ValidationError):
    """A negative eigenvalue beyond tolerance was found."""


class QubitNotFirstError(ShapeError):
    """Block operations need the qubit as the first tensor factor."""


class BadPermutationError(ValueError):
    """Subsystem reordering was not a permutation of 0..n-1."""


class UnknownFamilyError(ValueError):
    """No registered state family under that name."""


class ParamOutOfRangeError(ValueError):
    """A family parameter fell outside its declared range."""


class BadRankError(ValueError):
    """Requested rank is not between 1 and the matrix order."""


class BadDimensionError(ValueError):
    """A dimension argument is out of range for the requested object."""


class NoQubitInPairError(ValueError):
    """The traced-down pair has no two-dimensional factor to single out."""


class NegativeRadicandError(ValueError):
    """A square-root argument was negative beyond tolerance.

    Signals an ensemble term that is too far from a physical state for the
    bound to make sense.
    """


class NotConvergedError(ValueError):
    """An iterative eigen solver stopped before reaching its tolerance."""


class ParseError(ValueError):
    """A state, ensemble, or sweep description could not be parsed."""
