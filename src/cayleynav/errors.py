"""Exception types shared across the package, and the default state budget.

DEFAULT_BUDGET lives here rather than in bfs, its main user, so that the
CLI parser and modp can read it without loading the search.
"""

DEFAULT_BUDGET = 10_000_000  # states any exhaustive search may visit


class CayleyNavError(Exception):
    """Base class for all package errors."""


class ParseError(CayleyNavError):
    """Malformed matrix or word input."""


class InvalidGeneratorError(CayleyNavError):
    """Generator indices out of range, or i == j."""


class UnsupportedDimensionError(CayleyNavError):
    """Operation needs a larger matrix dimension than the one given."""


class NotInGroupError(CayleyNavError):
    """Matrix fails the determinant-one membership test."""


class DomainError(CayleyNavError):
    """Numeric argument outside the operation's domain."""


class InternalStateError(CayleyNavError):
    """A reduction pipeline invariant was violated mid-run."""


class BudgetExceededError(CayleyNavError):
    """Requested computation exceeds the configured enumeration budget."""
