"""Exception hierarchy shared across the package."""


class GspError(Exception):
    """Base class for all package errors."""


class InvalidInputError(GspError):
    """Malformed user input (bad edge list, dimension mismatch, bad options)."""


class InfeasiblePointError(GspError):
    """The closed-loop matrix is not positive definite at the requested point."""


class InfeasibleStartError(InfeasiblePointError):
    """A solver was handed an infeasible starting point."""


class InfeasibleSupportError(GspError):
    """The reduced problem on the given support cannot be made feasible."""


class CertificateUnavailableError(GspError):
    """Nothing in ``gsp`` raises it: certificates exist for every control weight."""


class CertificateInvalidError(GspError):
    """A constructed certificate violates its sign constraints."""


class DegenerateCurvatureError(GspError):
    """The Newton model has no usable curvature: no active coordinate has
    positive curvature, or a free block of the resistive model is not
    positive definite."""


class LineSearchError(GspError):
    """Backtracking failed to find an acceptable step (wrong-scale direction)."""


class UnsupportedError(GspError):
    """The requested quantity is undefined for this problem (e.g. disconnected plant)."""
