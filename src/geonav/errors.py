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
    """Raised when an Euler walk cannot reach its target within the step budget."""


class SegmentLeavesDomain(GeonavError):
    """Raised when an Euler walk's leg has an end outside the domain rectangle."""


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
    """Re-raise a TypeError, ValueError, OutOfRangeTheta or GammaLeavesInset
    from a reader, a constructor or a check of outside input as a
    ConfigError, its message led by ``prefix`` (the field)."""
    try:
        yield
    except (TypeError, ValueError, OutOfRangeTheta, GammaLeavesInset) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc
