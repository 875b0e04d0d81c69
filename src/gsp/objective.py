"""Performance objective: value, gradient, state and the Newton model.

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

Second-order information is the :class:`NewtonModel` of a state, read in
pieces indexed by candidate as the Newton kernels use them; the dense m-by-m
Hessian is never formed.  Only this module builds Hessian entries and solves
with the closed-loop factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import DegenerateCurvatureError
from .graphs import ClosedLoop, IncidenceMatrix, Problem, closed_loop

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


#: Entries of a Hessian block built at a time by :meth:`NewtonModel.upper`
#: (32 kB of float64 per temporary).
_BUILD_ELEMS = 1 << 12


@dataclass(frozen=True, eq=False)
class NewtonModel:
    """Hessian ``H = 2 (E^T Y E) o (E^T G^-1 E)`` at one state, for
    symmetric ``Y`` and ``Ginv``; every method takes candidate indices.

    Entry ``(k, l)`` is ``2 (xi_k^T Y xi_l)(xi_k^T G^-1 xi_l)``, assembled
    from four entries of ``Y`` and of ``Ginv`` with the same arithmetic
    wherever it is built, so its bits do not depend on the other entries
    built with it or on how a block is cut into chunks.
    """

    Y: np.ndarray = field(repr=False)
    Ginv: np.ndarray = field(repr=False)
    candidates: IncidenceMatrix = field(repr=False)

    def _entries(self, rows, cols, out=None) -> np.ndarray:
        """Entries over the edges whose end nodes (as in ``pairs.T``) are
        ``rows`` and ``cols``, written to ``out`` if given."""
        i, j = rows
        UY = self.Y[:, i] - self.Y[:, j]  # columns: Y xi_k
        UG = self.Ginv[:, i] - self.Ginv[:, j]
        ci, cj = cols
        HY = UY[ci] - UY[cj]  # HY[l, k] = xi_l^T Y xi_k
        HG = UG[ci] - UG[cj]
        HY *= HESSIAN_SCALE
        return np.multiply(HY, HG, out=None if out is None else out.T).T

    def diag(self, cols) -> np.ndarray:
        """Diagonal entries of the edges ``cols``."""
        pos = self.candidates.positions[:, cols]
        return (HESSIAN_SCALE * edge_quad_diag(self.Y, pos)
                * edge_quad_diag(self.Ginv, pos))

    def rows(self, rows, cols) -> np.ndarray:
        """Block over the edges ``rows`` and ``cols``; one edge index for
        ``rows`` gives one row."""
        return self._entries(self.candidates.pairs[rows].T, self.candidates.pairs[cols].T)

    def product(self, cols, v, rows) -> np.ndarray:
        """Block over the edges ``rows`` and ``cols`` times ``v``, without
        building one entry: with ``L_v = sum_l v_l xi_l xi_l^T`` over
        ``cols``, entry ``k`` is ``2 xi_k^T (Y L_v G^-1) xi_k``, four entries
        of one n-by-n product of the two n-by-|cols| incidence gathers."""
        i, j = self.candidates.pairs[cols].T
        M = ((self.Y[:, i] - self.Y[:, j]) * v) @ (self.Ginv[:, i] - self.Ginv[:, j]).T
        ri, rj = self.candidates.pairs[rows].T
        return HESSIAN_SCALE * (M[ri, ri] - M[ri, rj] - M[rj, ri] + M[rj, rj])

    def upper(self, cols) -> np.ndarray:
        """Block over the edges ``cols`` with only its upper triangle
        written, into one k-by-k buffer a chunk of rows at a time, so no
        temporary has more than ``_BUILD_ELEMS`` entries."""
        ends = self.candidates.pairs[cols].T  # gathered once per block
        k = ends.shape[1]
        H = np.empty((k, k))
        step = max(1, _BUILD_ELEMS // k)
        for r0 in range(0, k, step):
            r1 = min(k, r0 + step)
            self._entries(ends[:, r0:r1], ends[:, r0:], out=H[r0:r1, r0:])
        return H

    def solve(self, cols, rhs) -> np.ndarray:
        """Solution of ``H d = rhs`` for the block ``H`` over the edges
        ``cols``: the transpose of its :meth:`upper` buffer, Fortran-ordered
        with that triangle as its lower one, is factored in place by LAPACK
        ``dpotrf`` and freed on return.  A block that is not positive
        definite raises DegenerateCurvatureError."""
        chol, info = dpotrf(self.upper(cols).T, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise DegenerateCurvatureError(
                "free block of the Newton model is not positive definite")
        return dpotrs(chol, rhs, lower=1)[0]


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
        return self.value_at(self.closed_loop(x), x)

    def state(self, x, cl: ClosedLoop | None = None) -> ObjectiveState:
        """Value, gradient, trace term and dual-building matrix ``Y`` at a point."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if cl is None:
            cl = self.closed_loop(x)
        Vt = self._half_solve(cl)  # raises if the closed loop is not PD
        Wt = cl.tri_solve(Vt)  # C^T G^-1
        Y = Wt.T @ Wt  # one syrk: exactly symmetric
        grad = self.lin - edge_quad_diag(Y, self.positions)
        h2 = self._h2(Vt)
        return ObjectiveState(x, cl, Y, h2, self._J(h2, x), grad)

    def newton_model(self, state: ObjectiveState) -> NewtonModel:
        """The Hessian at ``state``: its ``Y`` and the symmetrized dense
        ``G^-1``, which the model's entries read at random."""
        Ginv = state.cl.solve(np.eye(self.problem.n))
        return NewtonModel(state.Y, 0.5 * (Ginv + Ginv.T), self.problem.candidates)
