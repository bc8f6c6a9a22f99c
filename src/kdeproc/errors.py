"""Exception types shared across the package."""


class KdeprocError(Exception):
    """Base class for all package-specific errors."""


class IndexBeyondTable(KdeprocError, IndexError):
    """Tabulated bandwidth schedule queried past its last entry."""


class NonFiniteInput(KdeprocError, ValueError):
    """Observed data contains NaN or infinite coordinates."""


class ToleranceNotReached(KdeprocError, RuntimeError):
    """A certified numerical evaluation could not reach its requested accuracy."""


class NoEnvelope(KdeprocError):
    """Schedule carries no power-law envelope, so tail certification is impossible."""


class TooFewReplications(KdeprocError, ValueError):
    """Drift test invoked with fewer than the minimum number of replications."""


class TrajectoryTooShort(KdeprocError, ValueError):
    """Trajectory does not cover the requested descendant-count window."""


class DomainError(KdeprocError, ValueError):
    """Argument outside the mathematical domain of an exact formula."""


class ConfigError(KdeprocError, ValueError):
    """Invalid or inconsistent experiment configuration."""


class EmptyData(KdeprocError, ValueError):
    """Observed-data file contains no points."""
