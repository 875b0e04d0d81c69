"""Reference evaluations the tests compare the package against; gsp never uses them."""

import numpy as np
import scipy.linalg

from gsp.errors import InfeasiblePointError, InvalidInputError
from gsp.graphs import EdgeList, controller_laplacian, strengthened, try_cholesky
from gsp.objective import hessian_rows


def incidence_dense(inc):
    """The n-by-m incidence matrix: +1 at ``pairs[l, 0]`` and -1 at
    ``pairs[l, 1]`` in column ``l``."""
    E = np.zeros((inc.n, inc.m))
    E[inc.pairs[:, 0], np.arange(inc.m)] = 1.0
    E[inc.pairs[:, 1], np.arange(inc.m)] = -1.0
    return E


def edge_forms(inc, A):
    """``xi_l^T A xi_l`` for every column ``xi_l`` of ``incidence_dense(inc)``."""
    E = incidence_dense(inc)
    return np.einsum("il,il->l", E, A @ E)


def spd_weight(rng, n):
    """The non-scalar control weight ``B B^T / n + 0.5 I`` of an n-by-n
    standard normal ``B`` drawn from ``rng``."""
    B = rng.standard_normal((n, n))
    return B @ B.T / n + 0.5 * np.eye(n)


def edge_set(edges):
    """The edges' pairs as a set of ``(i, j)`` Python int tuples."""
    return {(int(i), int(j)) for i, j in edges.pairs}


def csgraph_component_count(edges) -> int:
    """Connected components counted by ``scipy.sparse.csgraph``."""
    import scipy.sparse
    import scipy.sparse.csgraph

    i, j = edges.pairs[:, 0], edges.pairs[:, 1]
    A = scipy.sparse.coo_matrix((np.ones(edges.m), (i, j)), shape=(edges.n, edges.n))
    return int(scipy.sparse.csgraph.connected_components(A, directed=False)[0])


def effective_weight(problem):
    """The effective state weight ``Q_p = Q + (1/n) 11^T + L_p R L_p``,
    which the package keeps only as its factor ``Problem.qp``."""
    Lp = problem.plant.L
    return strengthened(problem.Q) + Lp @ problem.R @ Lp


def dense_hessian(obj, x):
    """Dense m-by-m Hessian of ``obj`` at ``x``: :func:`hessian_rows` over
    all candidate pairs."""
    st = obj.state(x)
    ends = obj.problem.candidates.pairs.T
    return hessian_rows(st.Y, obj.closed_loop_inverse(st), ends, ends)


def lyapunov_h2_oracle(problem, x) -> float:
    """Independent H2 evaluation through the algebraic Lyapunov equation.

    Solves ``L P + P L = I - (1/n) 11^T`` on the subspace orthogonal to the
    all-ones vector via an eigendecomposition of the closed-loop Laplacian,
    then returns ``<P, Q + L_x R L_x>``.  Equals ``Objective.value(x) / 2``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    Lx = controller_laplacian(problem.candidates, x)
    if try_cholesky(problem.plant.G + Lx) is None:
        raise InfeasiblePointError("closed-loop matrix is not positive definite")
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


def duality_gap(x, y_plus, y_minus=None) -> float:
    """Gap ``y_+^T x_+ + y_-^T x_-`` (signed) or ``y^T x`` (resistive)."""
    x = np.asarray(x, dtype=float)
    if y_minus is None:
        return float(y_plus @ x)
    x_plus = np.clip(x, 0.0, None)
    x_minus = np.clip(-x, 0.0, None)
    return float(y_plus @ x_plus + y_minus @ x_minus)


def format_edge_list_per_edge(edges) -> str:
    """The edge-list writer as one f-string per edge, with the node-count
    line whenever the last node is isolated or there is no edge, and the
    weight on every line once any weight differs from 1."""
    implied_n = 1 + int(edges.pairs.max()) if edges.m else 0
    lines = [] if edges.m and implied_n == edges.n else [f"n {edges.n}"]
    weighted = any(w != 1.0 for w in edges.weights.tolist())
    lines += [f"{i} {j} {w!r}" if weighted else f"{i} {j}"
              for (i, j), w in zip(edges.pairs.tolist(), edges.weights.tolist())]
    return "\n".join(lines) + "\n"


def scan_edge_list(text: str):
    """The edge-list reader as one Python step per line."""
    declared_n = None
    i, j, w = [], [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if declared_n is None and not i and tok[0] == "n":
            try:
                (declared_n,) = map(int, tok[1:])  # exactly one integer
            except ValueError as exc:
                raise InvalidInputError(
                    f"line {lineno}: malformed node-count line") from exc
            continue
        if len(tok) not in (2, 3):
            raise InvalidInputError(f"line {lineno}: expected 'i j [w]'")
        try:
            a, b = int(tok[0]), int(tok[1])
            c = float(tok[2]) if len(tok) == 3 else 1.0
        except ValueError as exc:
            raise InvalidInputError(f"line {lineno}: {exc}") from exc
        i.append(a)
        j.append(b)
        w.append(c)
    if declared_n is None:
        if not i:
            raise InvalidInputError("empty edge list with no node count")
        declared_n = 1 + max(max(i), max(j))
    return EdgeList._from_columns(declared_n, i, j, w)
