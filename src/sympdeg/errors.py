"""Exception types shared across the package."""


class SympdegError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidRankSequence(SympdegError):
    """A rank matrix violates one of the three defining inequalities.

    Carries the offending index triple so callers can report exactly
    which entry went wrong.
    """

    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices


class MismatchedQuiver(SympdegError):
    """Two arguments live on chains of different lengths."""


class InsufficientMultiplicity(SympdegError):
    """A move needs more copies of a segment than the module has."""


class NoEmbedding(SympdegError):
    """The requested segment does not embed into the module."""


class NotComparable(SympdegError):
    """The two modules are not comparable in the degeneration order."""


class NotSplitType(SympdegError):
    """Operation only defined for the split symmetric types."""


class MismatchedType(SympdegError):
    """Two epsilon-modules carry different symmetric types."""


class NotEpsilon(SympdegError):
    """The module does not admit the requested bilinear structure."""


class MalformedInput(SympdegError):
    """A JSON input does not have the documented shape; the message names
    the field.  The CLI exits 2 on it, as on any other bad argument."""


class InstanceTooLarge(SympdegError):
    """A brute-force enumeration was asked to exceed its size guard."""


class Infeasible(SympdegError):
    """A constraint system that should always be solvable was not."""
