"""Exception types shared across the package.

Every error raised by the library is a subclass of TransferOperatorError,
so callers can catch one type at the API boundary. The CLI maps
DescriptorError to exit code 2 (unusable input) and everything else to
exit code 1 (a computation that ran but failed its contract).
"""


class TransferOperatorError(Exception):
    """Base class for all library errors."""


class InvalidDomain(TransferOperatorError):
    """Ball domain with non-positive radius, wrong dimension, or bad center."""


class DegenerateMap(TransferOperatorError):
    """Moebius/affine coefficients with zero determinant; not a map."""


class InadmissibleDomain(TransferOperatorError):
    """The system is not admissible on its ball: a parametric family
    rejected the domain when it was built, or the admission check found
    sups that are not finite (a pole on or inside the ball, or a weight sup
    past the double range)."""


class NoConvergence(TransferOperatorError):
    """Fixed-point iteration missed its tolerance, or fixed_point's limit
    point has |T'| >= 1, so the map is not a strict contraction there."""


class EscapedDomain(TransferOperatorError):
    """An iterate left the ball; the input was not a certified self-map."""


class BudgetExceeded(TransferOperatorError):
    """The word count |alphabet|^n is larger than the configured budget.

    Raised instead of silently truncating the word sum."""


class NotContracting(TransferOperatorError):
    """A word does not contract: on the trace route its multiplier has
    modulus >= 1 - 1e-9 (dim 1) or det(I - T') is singular (dim >= 2); in
    the exact contraction sup its pole lies on or inside the closed ball.
    A sampled contraction factor >= 1 only makes validate report not ok."""


class NotEnclosed(TransferOperatorError):
    """Branch images are not contained in a strictly smaller concentric ball."""


class DimensionUnsupported(TransferOperatorError):
    """Operation implemented or defined for ambient dimension 1 only."""


class SolverFailure(TransferOperatorError):
    """The dense eigensolver did not converge."""


class RootFindingFailure(TransferOperatorError):
    """Simultaneous root iteration failed its residual contract."""


class DescriptorError(TransferOperatorError, ValueError):
    """Malformed JSON system descriptor or run configuration."""
