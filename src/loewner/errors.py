"""Exception types shared across the toolkit."""

from __future__ import annotations


class LoewnerError(Exception):
    """Base class for computational failures in this package."""


class DomainError(LoewnerError, ValueError):
    """A time or point lies outside the declared domain of an object."""


class IntegrationError(LoewnerError):
    """Adaptive integration failed; carries the last valid state."""

    def __init__(self, message: str, t: float, y):
        super().__init__(f"{message} (last valid state t={t!r}, y={y!r})")
        self.t = t
        self.y = y


class RootFindingError(LoewnerError):
    """A scalar root search did not converge."""


class PoleError(LoewnerError):
    """Evaluation hit a pole of a recursively defined function."""


class ConversionDomainError(LoewnerError):
    """Disk/half-plane driving-term conversion left its validity domain."""


class TraceError(LoewnerError):
    """Backward slit-trace reconstruction failed at some time."""


class FitError(LoewnerError, ValueError):
    """A regression window is invalid or produced an out-of-range fit."""
