"""Performance objective: value, gradient, Hessian and a Lyapunov oracle.

The objective of the design problem is

    J(x) = <G(x)^-1, Q_p> + diag(E^T R E)^T x - <R, L_p> - 1,
    G(x) = G_p + E diag(x) E^T,
    Q_p  = Q + (1/n) 11^T + L_p R L_p,

evaluated via factorization solves; explicit inverses are only materialized
where the Newton solver needs random entry access.  Every quadratic form
``xi_k^T A xi_l`` is assembled from four entries of ``A`` because each
incidence column has exactly two nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InfeasiblePointError, InvalidInputError, SizeCapError
from .graphs import ClosedLoop, Problem, closed_loop, strengthened

#: Curvature scale of the elementwise Hessian product.  Differentiating the
#: trace term twice gives 2 (xi_k^T Y xi_l)(xi_k^T G^-1 xi_l); the value is
#: pinned by the finite-difference check on the single-edge instance, where
#: the second derivative is 1/x^3.
HESSIAN_SCALE = 2.0

#: Largest edge count for which the dense m-by-m Hessian may be formed.
DENSE_HESSIAN_CAP = 2000


def edge_quad_diag(A: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Vector of quadratic forms ``xi_l^T A xi_l`` for all edges."""
    i, j = pairs[:, 0], pairs[:, 1]
    return A[i, i] - 2.0 * A[i, j] + A[j, j]


def edge_quad_column(A: np.ndarray, edge: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Vector of quadratic forms ``xi_k^T A xi_l`` for fixed ``l`` over all ``k``."""
    u = A[:, edge[0]] - A[:, edge[1]]
    return u[pairs[:, 0]] - u[pairs[:, 1]]


@dataclass(frozen=True)
class QpMatrix:
    """Effective state weight with its symmetric square root cached."""

    Qp: np.ndarray
    sqrt: np.ndarray

    @property
    def n(self) -> int:
        return self.Qp.shape[0]


def build_qp(problem: Problem) -> QpMatrix:
    """Effective state weight ``Q + (1/n) 11^T + L_p R L_p``."""
    Lp = problem.plant.L
    Qp = strengthened(problem.Q) + Lp @ problem.R @ Lp
    lam, V = scipy.linalg.eigh(Qp)
    if lam[0] <= 0:
        raise InvalidInputError("effective state weight is not positive definite")
    sqrt = (V * np.sqrt(lam)) @ V.T
    return QpMatrix(Qp, 0.5 * (sqrt + sqrt.T))


@dataclass(frozen=True)
class ObjectiveState:
    """Cached quantities at a feasible point: used by solvers and certificates."""

    x: np.ndarray
    cl: ClosedLoop
    Y: np.ndarray = field(repr=False)
    J: float
    grad: np.ndarray


class Objective:
    """Evaluator bound to one problem; pure apart from cached problem data."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self.qp = build_qp(problem)
        self.pairs = problem.candidates.pairs
        # linear coefficient diag(E^T R E) and the x-independent offset
        self.lin = edge_quad_diag(problem.R, self.pairs)
        self.const = -float(np.sum(problem.R * problem.plant.L)) - 1.0

    def closed_loop(self, x) -> ClosedLoop:
        return closed_loop(self.problem.plant.G, self.problem.candidates, x)

    def value_at(self, cl: ClosedLoop, x) -> float:
        Z = cl.solve(self.qp.Qp)
        return float(np.trace(Z) + self.lin @ x + self.const)

    def value(self, x) -> float:
        """Objective value; raises if the closed loop is not positive definite."""
        cl = self.closed_loop(x)
        if not cl.positive_definite:
            raise InfeasiblePointError("closed-loop matrix is not positive definite")
        return self.value_at(cl, x)

    def state(self, x, cl: ClosedLoop | None = None) -> ObjectiveState:
        """Value, gradient and the dual-building matrix ``Y`` at one point."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if cl is None:
            cl = self.closed_loop(x)
        if not cl.positive_definite:
            raise InfeasiblePointError("closed-loop matrix is not positive definite")
        Z = cl.solve(self.qp.Qp)
        J = float(np.trace(Z) + self.lin @ x + self.const)
        Y = cl.solve(Z.T)
        Y = 0.5 * (Y + Y.T)
        grad = self.lin - edge_quad_diag(Y, self.pairs)
        return ObjectiveState(x, cl, Y, J, grad)

    def gradient(self, x) -> np.ndarray:
        return self.state(x).grad

    # -- second-order information ------------------------------------------

    def _curvature_factors(self, x):
        st = self.state(x)
        Ginv = st.cl.solve(np.eye(self.problem.n))
        return st, 0.5 * (Ginv + Ginv.T)

    def hessian_diag(self, x) -> np.ndarray:
        st, Ginv = self._curvature_factors(x)
        return HESSIAN_SCALE * edge_quad_diag(st.Y, self.pairs) * edge_quad_diag(
            Ginv, self.pairs
        )

    def hessian_column(self, x, l: int) -> np.ndarray:
        st, Ginv = self._curvature_factors(x)
        edge = self.pairs[l]
        return HESSIAN_SCALE * edge_quad_column(st.Y, edge, self.pairs) * edge_quad_column(
            Ginv, edge, self.pairs
        )

    def hessian(self, x) -> np.ndarray:
        """Dense Hessian, permitted only below the configured edge-count cap."""
        m = self.problem.m
        if m > DENSE_HESSIAN_CAP:
            raise SizeCapError(
                f"m = {m} exceeds the dense-Hessian cap {DENSE_HESSIAN_CAP}; "
                "use hessian_diag/hessian_column"
            )
        st, Ginv = self._curvature_factors(x)
        i, j = self.pairs[:, 0], self.pairs[:, 1]
        UY = st.Y[i] - st.Y[j]  # rows: xi_l^T Y
        UG = Ginv[i] - Ginv[j]
        HY = UY[:, i] - UY[:, j]
        HG = UG[:, i] - UG[:, j]
        return HESSIAN_SCALE * HY * HG


# -- plain-function wrappers ------------------------------------------------


def eval_J(problem: Problem, x) -> float:
    return Objective(problem).value(x)


def grad_J(problem: Problem, x) -> np.ndarray:
    return Objective(problem).gradient(x)


def hessian(problem: Problem, x) -> np.ndarray:
    return Objective(problem).hessian(x)


def hessian_diag(problem: Problem, x) -> np.ndarray:
    return Objective(problem).hessian_diag(x)


def hessian_column(problem: Problem, x, l: int) -> np.ndarray:
    return Objective(problem).hessian_column(x, l)


def lyapunov_h2_oracle(problem: Problem, x) -> float:
    """Independent H2 evaluation through the algebraic Lyapunov equation.

    Solves ``L P + P L = I - (1/n) 11^T`` on the subspace orthogonal to the
    all-ones vector via an eigendecomposition of the closed-loop Laplacian,
    then returns ``<P, Q + L_x R L_x>``.  Equals ``eval_J(x) / 2``.
    """
    from .graphs import controller_laplacian

    x = np.asarray(x, dtype=float).reshape(-1)
    cl = closed_loop(problem.plant.G, problem.candidates, x)
    if not cl.positive_definite:
        raise InfeasiblePointError("closed-loop matrix is not positive definite")
    Lx = controller_laplacian(problem.candidates, x)
    L = problem.plant.L + Lx
    n = problem.n
    lam, V = scipy.linalg.eigh(L)
    Pi = np.eye(n) - np.full((n, n), 1.0 / n)
    Pi_t = V.T @ Pi @ V
    denom = lam[:, None] + lam[None, :]
    # the all-ones mode carries no output weight; its rows/cols of Pi_t vanish
    with np.errstate(divide="ignore", invalid="ignore"):
        P_t = np.where(np.abs(denom) > 1e-9, Pi_t / denom, 0.0)
    P = V @ P_t @ V.T
    W = problem.Q + Lx @ problem.R @ Lx
    return float(np.sum(P * W))
