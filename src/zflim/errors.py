"""Exception types raised by the toolbox."""


class ZflimError(Exception):
    """Base class for all toolbox errors."""


class PoleOnUnitCircle(ZflimError):
    """Transfer function evaluated at (or too close to) a denominator root on |z|=1."""


class RootFindingFailed(ZflimError):
    """Polynomial root refinement did not reach the required residual."""


class NotStable(ZflimError):
    """Operation requires a stable plant (all poles strictly inside the unit disk)."""


class InvalidGain(ZflimError):
    """Loop-transformation gain must be positive and finite."""


class PrecisionExhausted(ZflimError):
    """Requested approximation is finer than the float input can support."""


class LpNumericalFailure(ZflimError):
    """LP solver stalled, cycled, or its solution failed independent re-verification."""


class BracketInvalid(ZflimError):
    """Bisection endpoints do not straddle the feature being searched for."""


class InvalidInterval(ZflimError):
    """Frequency interval must satisfy 0 <= a < b <= pi."""
