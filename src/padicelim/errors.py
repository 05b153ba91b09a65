"""The package's two exception classes, one per exit code.

PadicElimError is invalid input: a violated hypothesis or a malformed value,
checked where it enters and named in the message.  The CLI exits 2 on it.
EliminationIncompleteError, its subclass, is a kill that failed or is
missing on valid input; the CLI exits 1 on it.  Any other exception is a
bug and is not caught.  The module imports nothing, so every other module
can import from it.
"""

__all__ = ["PadicElimError", "EliminationIncompleteError"]


class PadicElimError(ValueError):
    """Invalid input: the message names the hypothesis or the value that fails."""


class EliminationIncompleteError(PadicElimError):
    """A sub-quotient index was left without a passing kill or an audit failed."""
