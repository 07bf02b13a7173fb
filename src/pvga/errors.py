"""Exception hierarchy for the pvga package.

Every error raised deliberately by this package derives from :class:`PvgaError`,
so callers can catch one type at the boundary (the CLI maps them to exit codes).
"""

import sys
from numbers import Integral, Real


def is_count(v) -> bool:
    """Whether ``v`` is an integer, Python's or numpy's, and not a bool."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """Whether ``v`` is a finite real number and not a bool.  An integer
    beyond the float range is refused: Python compares it with the largest
    float exactly, where ``float(v)`` would raise ``OverflowError``."""
    return isinstance(v, Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


class PvgaError(Exception):
    """Base class for all pvga errors."""


class DimensionMismatch(PvgaError):
    """Operands have inconsistent shapes."""


class InvalidData(PvgaError):
    """Count data violates the model (negative or non-integer entries, bad file payload)."""


class NotPositiveDefinite(PvgaError):
    """A matrix required to be symmetric positive definite is not."""


class NoDenseCovariance(PvgaError):
    """A covariance held on a mask or as a point mass was asked for as a dense array."""


class BreakdownError(PvgaError):
    """The conjugate-gradient denominator became nonpositive (operator not SPD)."""


class RankTooLarge(PvgaError):
    """Requested factorization rank exceeds min(m, n)."""


class SingularInnerSystem(PvgaError):
    """The small inner system of a low-rank covariance update is numerically singular."""


class RateOverflow(PvgaError):
    """A Poisson log-rate exceeds the overflow guard (exp would not be finite)."""


class UnknownProblem(PvgaError):
    """Requested test problem name is not recognized."""


class InvalidAlpha(PvgaError):
    """Prior strength alpha must be positive and finite."""


class AlphaCollapse(PvgaError):
    """The hierarchical update drove alpha below the degeneracy floor (1e-12)."""


class NonpositiveDenominator(PvgaError):
    """The alpha update denominator is nonpositive (misconfigured rate parameter b <= 0)."""


class MaxIterationsExceeded(PvgaError):
    """An iterative routine hit its iteration budget before reaching tolerance.

    Carries whatever partial results the routine produced (``partial`` attribute),
    so callers can inspect traces from unconverged runs.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class IllConditioned(PvgaError):
    """A system matrix has condition number beyond the trust limit (1e14)."""


class InsufficientSamples(PvgaError):
    """Too few samples to form the requested summary (< 100)."""


class DimensionTooLarge(PvgaError):
    """Operation only supported at small dimension (e.g. quadrature oracle, dense materialization)."""


class ConfigError(PvgaError):
    """Run configuration is missing, malformed, or inconsistent."""
