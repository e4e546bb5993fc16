"""Exception types shared across the package."""


class KronprojError(Exception):
    """Base class for all package errors."""


class DimensionError(KronprojError):
    """Operands do not conform."""


class NotSymmetricError(KronprojError):
    """Matrix expected to be symmetric is not."""


class NotPSDError(KronprojError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class IllConditionedError(KronprojError):
    """A solve exceeded the condition-number guard.

    Callers that maintain incremental state should treat this as a signal
    to fall back to a full recompute.
    """


class InvariantError(KronprojError):
    """A maintained structure broke one of its invariants."""


class RankDeficiencyError(KronprojError):
    """Constraint rows are not linearly independent."""


class GridDomainError(KronprojError):
    """Value outside the representable range of a geometric grid."""


class ParameterError(KronprojError):
    """Invalid configuration or algorithm parameter."""
