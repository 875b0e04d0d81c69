"""Performance objective: value, gradient, state and Hessian blocks.

The objective of the design problem is

    J(x) = <G(x)^-1, Q_p> + diag(E^T R E)^T x - <R, L_p> - 1,
    G(x) = G_p + E diag(x) E^T,
    Q_p  = Q + (1/n) 11^T + L_p R L_p,

and everything at a point comes from two lower Cholesky factors,
``G = L L^T`` (one per closed loop) and ``Q_p = C C^T`` (one per problem,
formed and factored by its constructor and shared by all that
``with_gamma`` and ``restrict`` derive from it, see
:class:`~gsp.graphs.Problem`).  Neither ``G`` nor ``Q_p`` is kept once
factored: each is n-by-n (18 MB at n = 1,500) and nothing reads it.  Both
triangular solves are taken from the row side, on the transposes
``V^T = C^T L^-T`` and ``W^T = V^T L^-1 = C^T G^-1``:

    h2 = <G^-1, Q_p> = ||V^T||_F^2,
    J  = h2 + diag(E^T R E)^T x - <R, L_p> - 1,
    Y  = G^-1 Q_p G^-1 = (W^T)^T W^T,

so a trial value costs one triangular solve and a state one more, plus the
product ``(W^T)^T W^T``, one ``syrk`` and exactly symmetric.  The row side
is used because OpenBLAS solves it faster.  With SciPy's bundled OpenBLAS
0.3.31 on one thread of a 2-core Xeon VM, the right-side ``dtrsm`` took
97-127 us at n = 120 and 15-23 us at n = 60, where the left-side
``dtrtrs`` that solves ``V = L^-1 C`` took 150-187 us and 26-38 us; at
n = 10-40 the left side was never faster.  ``C^T`` is stored
Fortran-ordered once per problem, as ``Problem.qp``.  The explicit
inverse ``G^-1`` is only formed where the Newton solver needs random entry
access.  Every quadratic form ``xi_k^T A xi_l`` is assembled from four
entries of ``A`` because each incidence column has exactly two nonzeros.

The edge forms ``xi_l^T A xi_l`` of :func:`edge_quad_diag` are three
``take`` calls from ``A.ravel()`` at the flat positions that
:attr:`~gsp.graphs.IncidenceMatrix.positions` caches per candidate set; the
gathered entries are combined in place as ``(A_ii - 2 A_ij) + A_jj``, the
same operations in the same order as indexing ``A`` by the end-node pairs,
so the result is byte-equal to that.  At most two m-vectors are alive at
once (five with one ``take`` of all three rows and a temporary per
operation): at m = 1,118,581 that is 17 MB instead of 43 MB, and on one
thread of the same VM the call takes 9 ms instead of 19-21 ms.  The
triangular and Cholesky solves call BLAS and LAPACK directly (see
:mod:`gsp.graphs`).

Second-order information is built only in pieces, as the Newton solver
reads it: :func:`hessian_rows` gives the entries over given row and column
edges and :func:`hessian_product` a block times a vector; the dense m-by-m
Hessian is never formed.  Only this module solves with the closed-loop
factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasiblePointError
from .graphs import ClosedLoop, Problem, closed_loop

#: Curvature scale of the elementwise Hessian product.  Differentiating the
#: trace term twice gives 2 (xi_k^T Y xi_l)(xi_k^T G^-1 xi_l); the value is
#: pinned by the finite-difference check on the single-edge instance, where
#: the second derivative is 1/x^3.
HESSIAN_SCALE = 2.0


def edge_quad_diag(A: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Vector of quadratic forms ``xi_l^T A xi_l`` for the edges whose flat
    positions (:attr:`~gsp.graphs.IncidenceMatrix.positions` or some of its
    columns) are ``pos``, built in one buffer (see the module docstring)."""
    flat = A.ravel()
    q = flat.take(pos[2])
    q *= 2.0
    np.subtract(flat.take(pos[0]), q, out=q)
    q += flat.take(pos[1])
    return q


def hessian_rows(Y: np.ndarray, Ginv: np.ndarray, rows, cols,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Hessian entries ``2 (xi_k^T Y xi_l)(xi_k^T G^-1 xi_l)`` for the edges
    ``k`` of ``rows`` and ``l`` of ``cols``, written to ``out`` if given.

    ``rows`` and ``cols`` each hold the two end-node indices of their edges,
    as in ``pairs.T``; ``rows`` may also be one edge's two ints, which gives
    one row.  Every entry is assembled from four entries of ``Y`` and of
    ``Ginv`` with the same arithmetic, so for symmetric ``Y`` and ``Ginv``
    it has the same bits whichever other entries are built with it.
    """
    i, j = rows
    UY = Y[:, i] - Y[:, j]  # columns: Y xi_k
    UG = Ginv[:, i] - Ginv[:, j]
    ci, cj = cols
    HY = UY[ci] - UY[cj]  # HY[l, k] = xi_l^T Y xi_k
    HG = UG[ci] - UG[cj]
    HY *= HESSIAN_SCALE
    return np.multiply(HY, HG, out=None if out is None else out.T).T


def hessian_product(Y: np.ndarray, Ginv: np.ndarray, cols, v, rows) -> np.ndarray:
    """Hessian block over the edges of ``rows`` and ``cols`` times ``v``,
    without building one Hessian entry.

    With ``L_v = sum_l v_l xi_l xi_l^T`` over the edges ``l`` of ``cols``,
    entry ``k`` is ``2 xi_k^T (Y L_v G^-1) xi_k``; ``Y L_v G^-1`` is one
    n-by-n product of the two n-by-|cols| incidence gathers, and each row
    edge then reads four of its entries.  ``rows`` and ``cols`` are given as
    in :func:`hessian_rows`.
    """
    i, j = cols
    M = ((Y[:, i] - Y[:, j]) * v) @ (Ginv[:, i] - Ginv[:, j]).T
    ri, rj = rows
    return HESSIAN_SCALE * (M[ri, ri] - M[ri, rj] - M[rj, ri] + M[rj, rj])


@dataclass(frozen=True)
class ObjectiveState:
    """Cached quantities at a feasible point: used by solvers and certificates."""

    x: np.ndarray
    cl: ClosedLoop
    Y: np.ndarray = field(repr=False)
    h2: float  # trace term <G^-1, Q_p>
    J: float
    grad: np.ndarray


class Objective:
    """Evaluator bound to one problem.

    A trial value is ``h2 = ||V^T||_F^2`` with ``V^T = C^T L^-T``, and a
    state adds ``W^T = V^T L^-1 = C^T G^-1`` and ``Y = (W^T)^T W^T``; both
    solves are row-side :meth:`~gsp.graphs.ClosedLoop.tri_solve` calls,
    which OpenBLAS runs in about 0.6 of the time of the column-side
    ``L^-1 C`` (see the module docstring).

    ``C^T`` is the factor ``problem.qp`` that the problem's constructor
    made, so no objective forms or factors ``Q_p``.  Apart from cached
    problem data it remembers one entry: the closed loop of the
    last value or state it evaluated and that loop's half solve ``V^T``.
    A line search that accepts a trial point therefore hands ``state(x,
    cl)`` the ``V^T`` that ``value_at(cl, x)`` just computed, and the state
    needs only the second triangular solve.  The entry is keyed by the
    identity of the :class:`ClosedLoop` (which it keeps alive), and ``V^T``
    depends on nothing else.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.positions = problem.candidates.positions
        # linear coefficient diag(E^T R E) and the x-independent offset
        self.lin = edge_quad_diag(problem.R, self.positions)
        self.const = -float(np.sum(problem.R * problem.plant.L)) - 1.0
        self._half = (None, None)  # (closed loop, its C^T L^-T)

    def closed_loop(self, x) -> ClosedLoop:
        return closed_loop(self.problem.plant.G, self.problem.candidates, x)

    def _half_solve(self, cl: ClosedLoop) -> np.ndarray:
        """``V^T = C^T L^-T`` of a closed loop, reused for the last one asked."""
        if self._half[0] is not cl:
            self._half = (cl, cl.tri_solve(self.problem.qp, trans=True))
        return self._half[1]

    @staticmethod
    def _h2(V: np.ndarray) -> float:
        """``||V||_F^2``; ``ravel(order="K")`` reads ``V`` in its memory
        order, so the Fortran-ordered solve result is not copied."""
        v = V.ravel(order="K")
        return float(v @ v)

    def _J(self, h2: float, x) -> float:
        return float(h2 + self.lin @ x + self.const)

    def value_at(self, cl: ClosedLoop, x) -> float:
        return self._J(self._h2(self._half_solve(cl)), x)

    def value(self, x) -> float:
        """Objective value; raises if the closed loop is not positive definite."""
        cl = self.closed_loop(x)
        if not cl.positive_definite:
            raise InfeasiblePointError("closed-loop matrix is not positive definite")
        return self.value_at(cl, x)

    def state(self, x, cl: ClosedLoop | None = None) -> ObjectiveState:
        """Value, gradient, trace term and dual-building matrix ``Y`` at a point."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if cl is None:
            cl = self.closed_loop(x)
        if not cl.positive_definite:
            raise InfeasiblePointError("closed-loop matrix is not positive definite")
        Vt = self._half_solve(cl)
        Wt = cl.tri_solve(Vt)  # C^T G^-1
        Y = Wt.T @ Wt  # one syrk: exactly symmetric
        grad = self.lin - edge_quad_diag(Y, self.positions)
        h2 = self._h2(Vt)
        return ObjectiveState(x, cl, Y, h2, self._J(h2, x), grad)

    # -- second-order information ------------------------------------------

    def closed_loop_inverse(self, state: ObjectiveState) -> np.ndarray:
        """Symmetrized dense ``G^-1`` of a state, for random entry access."""
        Ginv = state.cl.solve(np.eye(self.problem.n))
        return 0.5 * (Ginv + Ginv.T)
