"""Exception types raised by the detection toolkit."""


class PersymError(Exception):
    """Base class for all toolkit-specific errors."""


class DimensionError(PersymError):
    """An input has an invalid or inconsistent dimension."""


class ModelError(PersymError):
    """An input violates a structural model assumption (persymmetry, positive
    definiteness, hypothesis consistency)."""


class NormalizationError(ModelError):
    """A steering vector is not unit-norm."""


class SingularSecondaryError(PersymError):
    """Too few secondary snapshots: the scatter matrix is singular (2K < N)."""


class ConditioningError(PersymError):
    """A scatter matrix is too ill-conditioned to invert reliably."""


class DegenerateStatisticError(PersymError):
    """A statistic is degenerate (vanishing eigenvalue or trace)."""


class NearSingularDenominatorError(PersymError):
    """The Rao statistic denominator is numerically zero."""
