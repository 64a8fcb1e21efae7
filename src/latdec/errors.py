"""Exception types shared across the toolkit.

Every error raised on purpose by this package derives from LatdecError so
callers (and the CLI exit-code mapping) can tell deliberate failures apart
from plain bugs.
"""

__all__ = [
    "LatdecError",
    "NotPositiveDefinite",
    "RankDeficient",
    "SingularTriangular",
    "MetricMismatch",
    "BudgetExceeded",
    "EmptyCodebook",
    "EnumerationOverflow",
    "IterationOverflow",
    "NearSingularChannel",
    "InsufficientData",
    "SchemaError",
]


class LatdecError(Exception):
    """Base class for all deliberate toolkit errors."""


class NotPositiveDefinite(LatdecError):
    """Cholesky pivot fell below the positive-definiteness floor."""


class RankDeficient(LatdecError):
    """Matrix does not have the full rank the operation requires."""


class SingularTriangular(LatdecError):
    """Triangular solve hit a diagonal entry too close to zero."""


class MetricMismatch(LatdecError):
    """Direct and triangular forms of the regularized metric disagree."""


class BudgetExceeded(LatdecError):
    """An enumeration candidate budget was exceeded."""


class EmptyCodebook(LatdecError, ValueError):
    """A design's shaping region holds no point of the scaled lattice.

    A ValueError too: the design and scale are a bad argument to the
    enumeration."""


class EnumerationOverflow(LatdecError):
    """Sphere-search node budget exceeded."""


class IterationOverflow(LatdecError):
    """Basis reduction exceeded its iteration (swap) budget."""


class NearSingularChannel(LatdecError):
    """Effective channel matrix is numerically singular for an
    unregularized decode."""


class InsufficientData(LatdecError):
    """Not enough qualifying measurements to fit a slope."""


class SchemaError(LatdecError):
    """Experiment file failed validation."""
