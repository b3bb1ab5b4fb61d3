"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`EllSelbergError`, so callers can distinguish domain/configuration
problems from genuine bugs.
"""

from __future__ import annotations


class EllSelbergError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EllSelbergError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleProximityError(DomainError):
    """An evaluation point is at, or numerically indistinguishable from, a pole.

    Carries the offending argument and the (mu, nu) index of the pole
    p^(-mu) q^(-nu) that was hit.
    """

    def __init__(self, message: str, u: complex, mu: int, nu: int):
        super().__init__(message)
        self.u = u
        self.mu = mu
        self.nu = nu


class TruncationError(EllSelbergError):
    """A truncated product or series, or a reduction, needs more than MAX_TERMS terms or steps.

    ``achieved_bound`` is the analytic bound on the neglected tail that the
    maximal admissible term count could certify; inf where no term count
    bounds it (a lattice circle's reduction, a non-finite argument).
    """

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(message)
        self.achieved_bound = achieved_bound


class DegenerateParameterError(EllSelbergError):
    """A parameter combination annihilates a denominator (theta factor etc.)."""


class NonConvergenceError(EllSelbergError):
    """Quadrature budget exhausted before the error estimate met tolerance.

    A stalled ladder is read once more at a 50x looser stop; this is raised
    when that stalls too.  ``estimates`` holds the last two refinement
    differences (coarse, fine).
    """

    def __init__(self, message: str, estimates: tuple[float, float]):
        super().__init__(message)
        self.estimates = estimates


class SampleRejectionError(EllSelbergError):
    """A sampled or shifted parameter set left the configured safe box."""


class ConfigurationError(EllSelbergError):
    """A configuration (safe box, window, CLI argument set) is infeasible."""
