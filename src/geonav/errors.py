"""Exception types shared across the package."""

from contextlib import contextmanager


class GeonavError(Exception):
    """Base class for all package errors."""


class DegeneratePair(GeonavError):
    """Raised when an operation needs two distinct points but got s == t."""


class EmptyPointSet(GeonavError):
    """Raised when an operation needs at least one point."""


class TooFewPoints(GeonavError):
    """Raised when an operation needs at least two points."""


class OutOfRangeTheta(GeonavError):
    """Raised for a sector angle outside the admissible range of a navigation kind."""


class StepOutOfDomain(GeonavError):
    """Raised when a solver iterate leaves the domain rectangle."""


class SegmentLeavesDomain(GeonavError):
    """Raised when a segment needed by a 1-D solve is not inside the inset domain."""


class GammaLeavesInset(GeonavError):
    """Raised when the two-leg limit polyline exits the inset domain."""


class EmptyInput(GeonavError):
    """Raised when an aggregation is asked to summarize nothing."""


class ConfigError(GeonavError):
    """Raised for malformed experiment configurations or CLI arguments."""


class NoValidPairs(ConfigError):
    """Raised when pair generation filters away every candidate pair: a
    config error, since the config alone (its pairs or lattice step, kind
    and inset) decides it."""


@contextmanager
def config_errors(prefix: str = ""):
    """Re-raise a TypeError, ValueError or OutOfRangeTheta from a reader or a
    constructor as a ConfigError, its message led by ``prefix`` (the field)."""
    try:
        yield
    except (TypeError, ValueError, OutOfRangeTheta) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc
