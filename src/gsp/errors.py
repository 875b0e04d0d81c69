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
    """No dual-feasibility recipe exists for this problem (non-scalar control weight)."""


class CertificateInvalidError(GspError):
    """A constructed certificate violates its sign constraints."""


class SizeCapError(GspError):
    """A dense m-by-m matrix was requested above the configured size cap."""


class DegenerateCurvatureError(GspError):
    """Every coordinate in a descent sweep had non-positive curvature."""


class LineSearchError(GspError):
    """Backtracking failed to find an acceptable step (wrong-scale direction)."""


class UnsupportedError(GspError):
    """The requested quantity is undefined for this problem (e.g. disconnected plant)."""
