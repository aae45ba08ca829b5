"""Exception types shared across the package.

``kind`` names the failure in the CLI's exit-3 message.
"""


class PerclapError(Exception):
    """Base class for all package errors."""

    kind = "numeric"


class ConfigurationError(PerclapError):
    """Invalid run configuration or malformed config file."""


class DomainError(PerclapError):
    """Arguments outside the mathematical domain of an operation."""

    kind = "domain"


class NumericError(PerclapError):
    """An eigensolver or factorization failed to produce a usable result."""

    kind = "solver"


class UnsupportedSizeError(PerclapError):
    """A cluster or series too large to compute exhaustively."""

    kind = "unsupported size"


class PrecisionError(PerclapError):
    """A truncated series cannot reach the requested accuracy."""

    kind = "precision"


class InsufficientDataError(PerclapError):
    """Too few usable data points for a fit."""

    kind = "insufficient data"
