"""Exception types raised by the product routes.

Every numerical refusal carries its analytic meaning in the message, so the
CLI can surface "why" (for example a vanishing derivative) instead of a bare
linear-algebra failure.
"""

from __future__ import annotations


class UnivalenceError(Exception):
    """Base class for all library-specific errors."""


class NonInvertibleSeriesError(UnivalenceError, ValueError):
    """Series reciprocal requested for a series with vanishing constant term.

    When the series is the normalized difference quotient of an analytic
    function this signals f'(z) = 0, i.e. f is not locally univalent at the
    expansion point.
    """


class NormalizationError(UnivalenceError, ValueError):
    """Input violates a required normalization (constant term 1, or f(0)=0, f'(0)=1)."""


class NotLocallyUnivalentError(UnivalenceError, ValueError):
    """f'(z) = 0 at the requested point; coefficient sequences are undefined there."""


class SeriesOverflowError(UnivalenceError, ArithmeticError):
    """A closed-form expansion leaves the double range before the requested order."""


class ConfigError(UnivalenceError, ValueError):
    """Invalid run configuration; `field` names the offending CLI flag."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
