"""Shared exception hierarchy.

Every violated hypothesis and every malformed input gets its own subclass of
PadicElimError, so callers can tell invalid input apart from a failed
verification: the CLI exits 1 on EliminationIncompleteError and 2 on any
other PadicElimError.  Any other exception is a bug and is not caught.  The
module imports nothing, so exactnum can take InvalidPrimeError from here.
"""

__all__ = [
    "PadicElimError",
    "InvalidPrimeError",
    "MalformedInputError",
    "WindowError",
    "DigitError",
    "VLBoundError",
    "InvalidRangeError",
    "InvalidDegreeError",
    "NotPolynomialError",
    "NotGoodCandidateError",
    "EliminationIncompleteError",
    "PredictionUnavailableError",
]


class PadicElimError(ValueError):
    """Base class for all parameter/hypothesis violations in this package."""


class InvalidPrimeError(PadicElimError):
    """An argument that must be prime (and at least a stated minimum) is not."""


class MalformedInputError(PadicElimError):
    """An input is not an exact value: unparsable text, or a value of another type (a float)."""


class WindowError(PadicElimError):
    """n lies outside its admissible window."""


class DigitError(PadicElimError):
    """The leading base-p digit b exceeds p - 2."""


class VLBoundError(PadicElimError):
    """v_p(L) violates the bound that a congruence or a kill method requires."""


class InvalidRangeError(PadicElimError):
    """r (or another range-limited argument) is outside its stated range."""


class InvalidDegreeError(PadicElimError):
    """A degree index j is outside its admissible range."""


class NotPolynomialError(PadicElimError):
    """An exact monomial division left a remainder."""


class NotGoodCandidateError(PadicElimError):
    """The falling factorial [n]_{b+1} is not a p-unit, so n is not a

    candidate for the single-congruence kill."""


class EliminationIncompleteError(PadicElimError):
    """A sub-quotient index was left without a passing kill or an audit failed."""


class PredictionUnavailableError(PadicElimError):
    """Elimination succeeds but the reducibility check blocks the label."""
