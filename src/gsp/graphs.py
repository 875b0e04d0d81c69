"""Graph data model: edge lists, incidence structures, Laplacians and generators.

Edges are always stored in canonical orientation ``i < j`` with the +1 entry
of the corresponding incidence column at node ``i``.  The incidence structure
is kept as an index-pair array (two node indices per edge) since every column
has exactly two nonzero entries; dense matrices are only formed on request.

Outside data is checked once, in the constructor that takes it; checked
objects are read-only and trusted by what derives from them:
``Problem.with_gamma``, ``Problem.restrict`` and ``controller_laplacian``
check only what they add (penalty, support, edge weights).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InvalidInputError

#: Identifier of the seeded generator recorded in reports.
PRNG_ID = "numpy-pcg64"


def _check_pairs(n: int, pairs, what: str) -> np.ndarray:
    """(m, 2) index array over ``n`` nodes: in range, ``i < j``, no duplicates."""
    p = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if p.size and (p.min() < 0 or p.max() >= n):
        raise InvalidInputError("node index out of range")
    if np.any(p[:, 0] >= p[:, 1]):
        raise InvalidInputError(f"{what}s must satisfy i < j (no self-loops)")
    if np.unique(p[:, 0] * n + p[:, 1]).size != p.shape[0]:
        raise InvalidInputError(f"duplicate {what}")
    return p


def _laplacian(n: int, pairs: np.ndarray, w: np.ndarray) -> np.ndarray:
    L = np.zeros((n, n))
    i, j = pairs[:, 0], pairs[:, 1]
    np.add.at(L, (i, i), w)
    np.add.at(L, (j, j), w)
    np.add.at(L, (i, j), -w)
    np.add.at(L, (j, i), -w)
    return L


@dataclass(frozen=True)
class EdgeList:
    """Undirected edge list over ``n`` nodes, 0-based, canonical ``i < j``."""

    n: int
    pairs: np.ndarray  # (m, 2) int array
    weights: np.ndarray  # (m,) float array

    def __post_init__(self):
        object.__setattr__(self, "pairs", _check_pairs(self.n, self.pairs, "edge"))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        object.__setattr__(self, "weights", w)
        if self.pairs.shape[0] != w.shape[0]:
            raise InvalidInputError("edge/weight count mismatch")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("edge weights must be finite")
        self.pairs.setflags(write=False)
        self.weights.setflags(write=False)

    @classmethod
    def from_tuples(cls, n, edges):
        """Build from ``(i, j)`` or ``(i, j, w)`` tuples, normalizing orientation."""
        pairs, weights = [], []
        for e in edges:
            i, j = int(e[0]), int(e[1])
            w = float(e[2]) if len(e) > 2 else 1.0
            if i == j:
                raise InvalidInputError(f"self-loop at node {i}")
            if i > j:
                i, j = j, i
            pairs.append((i, j))
            weights.append(w)
        if not pairs:
            return cls(n, np.empty((0, 2), dtype=np.intp), np.empty(0))
        return cls(n, np.array(pairs, dtype=np.intp), np.array(weights))

    @property
    def m(self) -> int:
        return self.pairs.shape[0]

    def edge_set(self):
        return {(int(i), int(j)) for i, j in self.pairs}

    def laplacian(self) -> np.ndarray:
        """Weighted graph Laplacian (dense, symmetric, zero row sums)."""
        return _laplacian(self.n, self.pairs, self.weights)


@dataclass(frozen=True)
class IncidenceMatrix:
    """Candidate-edge incidence structure stored as index pairs.

    Column ``l`` of the (virtual) n-by-m matrix has +1 at ``pairs[l, 0]`` and
    -1 at ``pairs[l, 1]``.
    """

    n: int
    pairs: np.ndarray  # (m, 2) int array

    def __post_init__(self):
        object.__setattr__(self, "pairs", _check_pairs(self.n, self.pairs, "column"))
        self.pairs.setflags(write=False)

    @property
    def m(self) -> int:
        return self.pairs.shape[0]

    def dense(self) -> np.ndarray:
        """Materialize the n-by-m incidence matrix (tests and small problems)."""
        E = np.zeros((self.n, self.m))
        E[self.pairs[:, 0], np.arange(self.m)] = 1.0
        E[self.pairs[:, 1], np.arange(self.m)] = -1.0
        return E

    def restrict(self, support) -> "IncidenceMatrix":
        """Incidence structure over a subset of distinct columns."""
        idx = np.asarray(support, dtype=np.intp).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= self.m):
            raise InvalidInputError("support index out of range")
        return IncidenceMatrix(self.n, self.pairs[idx])


def incidence_from_edges(edges: EdgeList) -> IncidenceMatrix:
    """Incidence structure of an edge list (weights are ignored)."""
    return IncidenceMatrix(edges.n, edges.pairs.copy())


def controller_laplacian(inc: IncidenceMatrix, x) -> np.ndarray:
    """Weighted Laplacian ``sum_l x_l xi_l xi_l^T`` of the controller graph."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != inc.m:
        raise InvalidInputError("weight vector length does not match edge count")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("edge weights must be finite")
    return _laplacian(inc.n, inc.pairs, x)


def strengthened(L: np.ndarray) -> np.ndarray:
    """Add the rank-one term ``(1/n) 11^T`` to a Laplacian."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    return L + np.full((n, n), 1.0 / n)


def try_cholesky(A: np.ndarray):
    """Lower Cholesky factor of ``A`` or None if ``A`` is not positive definite.

    Success/failure of the factorization is the feasibility test used
    throughout; no tolerance is added.
    """
    try:
        return scipy.linalg.cholesky(A, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None


@dataclass(frozen=True)
class ClosedLoop:
    """Closed-loop strengthened Laplacian together with its factorization."""

    G: np.ndarray
    chol: np.ndarray | None  # lower Cholesky factor, None if not PD

    @property
    def positive_definite(self) -> bool:
        return self.chol is not None

    def solve(self, B):
        """Solve ``G Z = B`` reusing the retained factorization."""
        return scipy.linalg.cho_solve((self.chol, True), B, check_finite=False)


def closed_loop(G_p: np.ndarray, inc: IncidenceMatrix, x) -> ClosedLoop:
    """Form ``G_p + E diag(x) E^T`` and attempt its factorization."""
    G = G_p + controller_laplacian(inc, x)
    return ClosedLoop(G, try_cholesky(G))


@dataclass(frozen=True)
class PlantGraph:
    """Plant Laplacian with its strengthened form and connectivity flag."""

    n: int
    edges: EdgeList
    L: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)
    connected: bool

    @classmethod
    def from_edges(cls, edges: EdgeList) -> "PlantGraph":
        L = edges.laplacian()
        G = strengthened(L)
        # Cholesky of the strengthened Laplacian is numerically unreliable as
        # a connectivity test (it can succeed on singular matrices), so count
        # components exactly.
        return cls(edges.n, edges, L, G, component_count(edges) == 1)


def _upper_edges(n: int, keep) -> EdgeList:
    """Unit-weight edges on the pairs ``i < j`` (lexicographic) where ``keep`` holds."""
    i, j = np.triu_indices(n, k=1)
    sel = keep(i, j)
    return EdgeList(n, np.column_stack((i[sel], j[sel])), np.ones(int(sel.sum())))


def complement_candidates(plant: EdgeList) -> EdgeList:
    """All node pairs ``i < j`` absent from the plant edge list."""
    present = np.zeros((plant.n, plant.n), dtype=bool)
    present[plant.pairs[:, 0], plant.pairs[:, 1]] = True
    return _upper_edges(plant.n, lambda i, j: ~present[i, j])


def generate(kind: str, n: int, p: float | None = None, seed: int = 0) -> EdgeList:
    """Benchmark plant topologies: ``path``, ``ring`` or ``erdos_renyi``.

    The Erdos-Renyi generator iterates all pairs in lexicographic order and
    draws one uniform variate per pair from a seeded PCG64 stream, so
    identical ``(kind, n, p, seed)`` always yield the identical edge list.
    """
    if n < 2:
        raise InvalidInputError("need at least two nodes")
    if kind == "path":
        return EdgeList.from_tuples(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "ring":
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        return EdgeList.from_tuples(n, edges)
    if kind == "erdos_renyi":
        if p is None or not 0.0 <= p <= 1.0:
            raise InvalidInputError("erdos_renyi requires 0 <= p <= 1")
        rng = np.random.Generator(np.random.PCG64(seed))
        return _upper_edges(n, lambda i, j: rng.random(i.size) < p)
    raise InvalidInputError(f"unknown graph kind {kind!r}")


def random_geometric(n: int, radius: float, box: float = 10.0, seed: int = 0) -> EdgeList:
    """Random geometric graph: ``n`` seeded points in a square, edges below ``radius``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = rng.random((n, 2)) * box
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return _upper_edges(n, lambda i, j: d[i, j] <= radius)


def component_count(edges: EdgeList) -> int:
    """Number of connected components of an edge list."""
    import scipy.sparse
    import scipy.sparse.csgraph

    i, j = edges.pairs[:, 0], edges.pairs[:, 1]
    A = scipy.sparse.coo_matrix(
        (np.ones(edges.m), (i, j)), shape=(edges.n, edges.n)
    )
    ncomp, _ = scipy.sparse.csgraph.connected_components(A, directed=False)
    return ncomp


@dataclass(frozen=True)
class Problem:
    """Immutable bundle of problem data for the edge-addition design problem.

    ``Q`` and ``R`` are node-space (n-by-n) weights; ``R`` is commonly a
    scalar multiple of the identity, which is the only case for which dual
    certificates are available.
    """

    plant: PlantGraph
    candidates: IncidenceMatrix
    Q: np.ndarray = field(repr=False)
    R: np.ndarray = field(repr=False)
    gamma: float = 0.0
    resistive: bool = False

    def __post_init__(self):
        n = self.plant.n
        for name in ("Q", "R"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        Q, R = self.Q, self.R
        if self.candidates.n != n or Q.shape != (n, n) or R.shape != (n, n):
            raise InvalidInputError("dimension mismatch in problem data")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise InvalidInputError("Q must be symmetric")
        if not np.allclose(Q @ np.ones(n), 0.0, atol=1e-10):
            raise InvalidInputError("Q must annihilate the all-ones vector")
        if try_cholesky(strengthened(Q)) is None:
            raise InvalidInputError("Q + (1/n) 11^T must be positive definite")
        if not np.allclose(R, R.T, atol=1e-12):
            raise InvalidInputError("R must be symmetric")
        if try_cholesky(R) is None:
            raise InvalidInputError("R must be positive definite")
        if not self.gamma >= 0:
            raise InvalidInputError("gamma must be non-negative")
        if self.resistive:
            if not self.plant.connected:
                raise InvalidInputError("resistive problems require a connected plant")
            keys = [p[:, 0] * n + p[:, 1]
                    for p in (self.plant.edges.pairs, self.candidates.pairs)]
            joint = [divmod(int(k), n) for k in np.intersect1d(*keys)[:3]]
            if joint:
                raise InvalidInputError(f"joint plant/candidate edges: {joint}")

    @property
    def n(self) -> int:
        return self.plant.n

    @property
    def m(self) -> int:
        return self.candidates.m

    @property
    def scalar_r(self) -> float | None:
        """Return ``r`` if ``R = r I``, else None."""
        r = float(self.R[0, 0])
        if np.allclose(self.R, r * np.eye(self.n), atol=1e-12):
            return r
        return None

    def _derive(self, **changes) -> "Problem":
        new = object.__new__(Problem)  # skips __post_init__: the data is checked
        new.__dict__.update(self.__dict__, **changes)
        return new

    def with_gamma(self, gamma: float) -> "Problem":
        if not gamma >= 0:
            raise InvalidInputError("gamma must be non-negative")
        return self._derive(gamma=gamma)

    def restrict(self, support) -> "Problem":
        return self._derive(candidates=self.candidates.restrict(support))


def default_problem(
    plant_edges: EdgeList,
    candidates: EdgeList | None = None,
    gamma: float = 0.0,
    resistive: bool = False,
    q_scale: float = 1.0,
    r_scale: float = 1.0,
) -> Problem:
    """Problem with the standard weights ``Q = I - (1/n) 11^T`` and ``R = I``.

    Candidates default to the complement of the plant edge set.
    """
    n = plant_edges.n
    plant = PlantGraph.from_edges(plant_edges)
    if candidates is None:
        candidates = complement_candidates(plant_edges)
    Q = q_scale * (np.eye(n) - np.full((n, n), 1.0 / n))
    R = r_scale * np.eye(n)
    return Problem(plant, incidence_from_edges(candidates), Q, R, gamma, resistive)


# --- edge-list file format -------------------------------------------------
#
# UTF-8 text, one edge per line, "i j [w]" whitespace-separated, 0-based.
# '#' starts a comment line.  The first non-comment line may be "n <count>"
# to declare isolated nodes; otherwise n = 1 + max index.


def parse_edge_list(text: str) -> EdgeList:
    declared_n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if declared_n is None and not edges and tok[0] == "n":
            if len(tok) != 2:
                raise InvalidInputError(f"line {lineno}: malformed node-count line")
            declared_n = int(tok[1])
            continue
        if len(tok) not in (2, 3):
            raise InvalidInputError(f"line {lineno}: expected 'i j [w]'")
        try:
            i, j = int(tok[0]), int(tok[1])
            w = float(tok[2]) if len(tok) == 3 else 1.0
        except ValueError as exc:
            raise InvalidInputError(f"line {lineno}: {exc}") from exc
        edges.append((i, j, w))
    if declared_n is None:
        if not edges:
            raise InvalidInputError("empty edge list with no node count")
        declared_n = 1 + max(max(i, j) for i, j, _ in edges)
    return EdgeList.from_tuples(declared_n, edges)


def read_edge_list(path) -> EdgeList:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(edges: EdgeList) -> str:
    # the node-count line is only needed when trailing nodes are isolated
    implied_n = 1 + int(edges.pairs.max()) if edges.m else 0
    lines = [] if implied_n == edges.n else [f"n {edges.n}"]
    for (i, j), w in zip(edges.pairs, edges.weights):
        if w == 1.0:
            lines.append(f"{i} {j}")
        else:
            lines.append(f"{i} {j} {w!r}")
    return "\n".join(lines) + "\n"


def write_edge_list(edges: EdgeList, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(edges))
