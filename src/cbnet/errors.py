"""Exception hierarchy for the cbnet package."""


class CbnetError(Exception):
    """Base class for all cbnet errors."""


class PeriodRangeError(CbnetError, ValueError):
    """Fold period (or probe lag) outside the valid range for the stream."""


class PhaseRangeError(CbnetError, ValueError):
    """Phase index outside 1..P for a folded stream."""


class DimensionError(CbnetError, ValueError):
    """Sensor count exceeds the configured 2**M table bound."""


class ShapeMismatchError(CbnetError, ValueError):
    """Parent/child arrays do not have identical shapes."""


class EmptyInputError(CbnetError, ValueError):
    """No frame pairs supplied."""


class BoundaryProbabilityError(CbnetError, ValueError):
    """A conditional probability of exactly 0 or 1 reached a logarithm."""


class NoValleyError(CbnetError):
    """No lag settles the period search within the data limit.

    The paper's lag profile has no local minimum, or no lag is at the
    within-phase null of the exact shuffle search.
    """


class NoPeakError(CbnetError):
    """Dependence spectrum has no non-DC peak within the data limit."""


class InsufficientDataError(CbnetError, ValueError):
    """Stream too short for the requested operation."""


class ConfigError(CbnetError, ValueError):
    """Invalid simulation or learning configuration."""


class SessionBoundsError(CbnetError, ValueError):
    """Scripted traffic session lies outside the user's time on the road."""
