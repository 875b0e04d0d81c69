"""Graph data model: edge lists, incidence structures, Laplacians and generators.

Edges are always stored in canonical orientation ``i < j`` with the +1 entry
of the corresponding incidence column at node ``i``.  The incidence structure
is kept as an index-pair array (two node indices per edge) since every column
has exactly two nonzero entries; dense matrices are only formed on request.

Outside data is checked once, in the constructor that takes it; checked
objects are read-only and trusted by what derives from them:
``EdgeList.incidence`` checks nothing again, and ``Problem.with_gamma``,
``Problem.restrict`` and ``controller_laplacian`` check only what they add
(penalty and its per-edge weights, support indices, edge weights).  A
problem carries its per-edge penalty, built and checked when the problem is
built or derived, never during a solve, and the two formulas that read it:
the penalty term :meth:`Problem.l1` and the smooth gradient
:meth:`Problem.smooth_grad`.  The constructor also forms and factors the
effective state weight ``Q_p``, which depends only on the plant, ``Q`` and
``R``, and keeps the factor as ``Problem.qp``; every problem that
``with_gamma`` and ``restrict`` derive shares it.

Building and checking take whole-array numpy operations, with no Python
loop over the edges: ``EdgeList.from_tuples`` reads each column with one
``np.fromiter`` over an ``operator.itemgetter``, duplicate pairs are found
by one sort of their keys ``i n + j``, a resistive problem's plant and
candidates are checked disjoint with one ``np.isin``, and
:func:`component_count` hooks and jumps pointers in numpy, without
``scipy.sparse``.

The edge-list text is written and read whole as well:

- :func:`format_edge_list` formats each node's ``"{k} "`` and ``"{k}\\n"``
  once and gathers them by the two pair columns.  Once any weight differs
  from 1, every line is ``i j w``: a unit weight is the constant ``1.0`` and
  only a non-unit weight is formatted on its own, as the ``repr`` of a
  Python float, which reads back to the same bits (``-0.0`` included).  One
  ``"".join`` makes the text, whose edge lines all have the same token
  count.
- :func:`parse_edge_list` hands a text whose edge lines all have the same 2
  or 3 tokens, as every text the writer makes, to numpy's C
  ``np.loadtxt``, with exactly that many columns.  Whatever it refuses goes
  to a per-line scan: lines of mixed token counts (hand-written files),
  odd whitespace and line ends, and every malformed line.  The scan is the
  only reader that words an error, with the line number, so every text
  reads to the same edge list, or fails with the same message, as with the
  scan alone.

The closed-loop kernels are called once or more per solver iteration on
small matrices, so they are written for low per-call overhead:

- ``IncidenceMatrix.positions`` caches, once per candidate set, the flat
  positions ``i n + i``, ``j n + j``, ``i n + j`` and ``j n + i`` of every
  edge's four entries in a C-ordered n-by-n matrix.  Edge subsets take its
  columns.
- A Laplacian is one ``np.bincount`` over those positions.  ``bincount``
  adds each bin's weights in input order starting from ``+0.0``, so it adds
  the same values in the same order as scattering the four entry groups
  one after another, and the result is byte-equal to that assembly.
- The Cholesky factorization and the solves with its factor call BLAS and
  LAPACK directly, without the argument checks of SciPy's wrappers:

  - ``dpotrf(lower=1, clean=1)`` factors; a non-zero ``info`` raises
    ``scipy.linalg.LinAlgError``, except that a matrix that is not positive
    definite makes :func:`try_cholesky` return None.  It factors a
    Fortran-ordered matrix in place and copies any other; a closed loop's
    ``G`` is factored in place.
  - ``dpotrs`` solves with both factors (:meth:`ClosedLoop.solve`) and
    raises on a non-zero ``info``.
  - ``dtrsm(side=1)`` solves with one factor from the row side
    (:meth:`ClosedLoop.tri_solve`).  BLAS reports no ``info``, and
    ``dtrsm`` does not look for a zero pivot: it divides by it and returns
    infinities and NaN.  So ``tri_solve`` raises ``LinAlgError`` itself on
    a zero diagonal entry.  SciPy's generated wrapper still checks that the
    shapes agree.

  None of them checks for NaN or infinity; the data that reaches them was
  checked where it entered.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InvalidInputError

#: Identifier of the seeded generator recorded in reports.
PRNG_ID = "numpy-pcg64"


def _has_repeats(a: np.ndarray) -> bool:
    """Whether the integer array ``a`` holds a value twice: one sort."""
    a = np.sort(a)
    return bool(np.any(a[1:] == a[:-1]))


#: Largest node count whose pair keys ``i n + j`` fit in ``intp``.
_MAX_NODES = math.isqrt(np.iinfo(np.intp).max)


def _nodes(a) -> np.ndarray:
    """``a`` as an ``intp`` array; an entry beyond its range is out of range."""
    try:
        return np.asarray(a, dtype=np.intp)
    except OverflowError as exc:
        raise InvalidInputError("node index out of range") from exc


def _check_pairs(n: int, pairs, what: str) -> np.ndarray:
    """(m, 2) index array over ``n`` nodes: in range, ``i < j``, no duplicates."""
    if n > _MAX_NODES:
        raise InvalidInputError("node count out of range")
    p = _nodes(pairs).reshape(-1, 2)
    if p.size and (p.min() < 0 or p.max() >= n):
        raise InvalidInputError("node index out of range")
    if np.any(p[:, 0] >= p[:, 1]):
        raise InvalidInputError(f"{what}s must satisfy i < j (no self-loops)")
    if _has_repeats(p[:, 0] * n + p[:, 1]):
        raise InvalidInputError(f"duplicate {what}")
    return p


def _positions(n: int, pairs: np.ndarray) -> np.ndarray:
    """(4, m) flat positions ``i n + i``, ``j n + j``, ``i n + j``, ``j n + i``
    of each edge's entries in a C-ordered n-by-n matrix, read-only."""
    i, j = pairs[:, 0], pairs[:, 1]
    pos = np.stack((i * (n + 1), j * (n + 1), i * n + j, j * n + i))
    pos.setflags(write=False)
    return pos


def _laplacian(n: int, pos: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Laplacian of the edges at flat positions ``pos`` (see :func:`_positions`)
    with weights ``w``.  ``bincount`` returns integers for an empty ``pos``;
    ``astype`` makes those float zeros and copies nothing otherwise."""
    vals = np.concatenate((w, w, -w, -w))
    L = np.bincount(pos.ravel(), vals, minlength=n * n).astype(float, copy=False)
    return L.reshape(n, n)


def _oriented(i, j) -> np.ndarray:
    """(m, 2) pairs ``(min, max)`` of the node columns ``i`` and ``j``; the
    first self-loop in edge order is reported."""
    i, j = _nodes(i).reshape(-1), _nodes(j).reshape(-1)
    loops = np.flatnonzero(i == j)
    if loops.size:
        raise InvalidInputError(f"self-loop at node {i[loops[0]]}")
    return np.column_stack((np.minimum(i, j), np.maximum(i, j)))


@dataclass(frozen=True, eq=False)
class EdgeList:
    """Undirected edge list over ``n`` nodes, 0-based, canonical ``i < j``."""

    n: int
    pairs: np.ndarray  # (m, 2) int array
    weights: np.ndarray  # (m,) float array

    def __post_init__(self):
        if self.n < 0:
            raise InvalidInputError("node count must be non-negative")
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
        """Build from ``(i, j)`` or ``(i, j, w)`` tuples, normalizing orientation.

        Each column is read whole by ``np.fromiter`` over an
        ``operator.itemgetter``; a tuple without a weight gets weight 1, and
        items after the weight are ignored.  Nodes convert as ``int`` does
        and weights as ``float``.
        """
        edges = list(edges)
        m = len(edges)
        sizes = np.fromiter(map(len, edges), dtype=np.intp, count=m)
        if m and sizes.min() < 2:
            raise InvalidInputError("an edge needs two end nodes")
        try:
            i, j = (np.fromiter(map(itemgetter(k), edges), dtype=np.intp,
                                count=m) for k in (0, 1))
        except OverflowError as exc:
            raise InvalidInputError("node index out of range") from exc
        pairs = _oriented(i, j)
        weighted = np.flatnonzero(sizes > 2)
        if weighted.size == m:
            w = np.fromiter(map(itemgetter(2), edges), dtype=float, count=m)
        else:
            w = np.ones(m)
            w[weighted] = np.fromiter(
                map(itemgetter(2), map(edges.__getitem__, weighted.tolist())),
                dtype=float, count=weighted.size)
        return cls(n, pairs, w)

    @classmethod
    def _from_columns(cls, n, i, j, w) -> "EdgeList":
        """Edge list from node columns ``i``, ``j`` in either orientation and
        weights ``w``."""
        return cls(n, _oriented(i, j), np.asarray(w, dtype=float))

    @property
    def m(self) -> int:
        return self.pairs.shape[0]

    def laplacian(self) -> np.ndarray:
        """Weighted graph Laplacian (dense, symmetric, zero row sums)."""
        return _laplacian(self.n, _positions(self.n, self.pairs), self.weights)

    @cached_property
    def incidence(self) -> "IncidenceMatrix":
        """Incidence structure of the edges (weights are ignored), built once
        per edge list, so problems on one candidate list share it and its
        cached ``positions``.  It shares the read-only, checked ``pairs``."""
        return IncidenceMatrix._trusted(self.n, self.pairs)


@dataclass(frozen=True, eq=False)
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

    @classmethod
    def _trusted(cls, n: int, pairs: np.ndarray) -> "IncidenceMatrix":
        """Structure over pairs that were checked already: no re-check."""
        inc = object.__new__(cls)  # skips __post_init__
        inc.__dict__.update(n=n, pairs=pairs)
        return inc

    @property
    def m(self) -> int:
        return self.pairs.shape[0]

    @cached_property
    def positions(self) -> np.ndarray:
        """(4, m) flat positions of each column's four entries in a C-ordered
        n-by-n matrix: ``i n + i``, ``j n + j``, ``i n + j``, ``j n + i``."""
        return _positions(self.n, self.pairs)

    def restrict(self, support) -> "IncidenceMatrix":
        """Incidence structure over a subset of distinct columns.  Only the
        indices are checked: distinct columns of checked pairs are checked."""
        idx = np.asarray(support, dtype=np.intp).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= self.m):
            raise InvalidInputError("support index out of range")
        if _has_repeats(idx):
            raise InvalidInputError("duplicate support index")
        pairs = self.pairs[idx]
        pairs.setflags(write=False)
        return IncidenceMatrix._trusted(self.n, pairs)


def controller_laplacian(inc: IncidenceMatrix, x) -> np.ndarray:
    """Weighted Laplacian ``sum_l x_l xi_l xi_l^T`` of the controller graph.

    Only the support ``x != 0`` is assembled, and only its weights are
    checked for finiteness: NaN and infinities are nonzero, so every one of
    them is in the support.  The result equals the all-edge assembly byte
    for byte: a zero weight (``0.0`` or ``-0.0``) would add ``+-0.0``, which
    changes no entry, because no entry is ever ``-0.0`` (entries start at
    ``+0.0`` and exact cancellation rounds to ``+0.0``), and the nonzero
    weights are added in the same order.  ``np.flatnonzero(x != 0)`` finds
    the support several times faster than ``np.flatnonzero(x)``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != inc.m:
        raise InvalidInputError("weight vector length does not match edge count")
    nz = np.flatnonzero(x != 0)
    w = x[nz]
    if not np.isfinite(w).all():
        raise InvalidInputError("edge weights must be finite")
    return _laplacian(inc.n, inc.positions[:, nz], w)


def strengthened(L: np.ndarray) -> np.ndarray:
    """Add the rank-one term ``(1/n) 11^T`` to a Laplacian."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    return L + np.full((n, n), 1.0 / n)


def _lapack_result(x, info: int, routine: str) -> np.ndarray:
    if info != 0:
        raise scipy.linalg.LinAlgError(f"{routine} returned info = {info}")
    return x


def try_cholesky(A: np.ndarray):
    """Lower Cholesky factor of ``A`` (Fortran-ordered, upper triangle zero)
    or None if ``A`` is not positive definite.

    Success/failure of the factorization is the feasibility test used
    throughout; no tolerance is added.  A Fortran-ordered ``A`` is factored
    in place, even a read-only one, and any other ``A`` is copied first: so
    callers hand over only arrays of their own that they no longer read.
    """
    c, info = dpotrf(A, lower=1, clean=1, overwrite_a=1)
    if info > 0:  # leading minor ``info`` is not positive definite
        return None
    return _lapack_result(c, info, "dpotrf")


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """Factorization of a closed-loop strengthened Laplacian ``G``; ``G``
    itself is not kept, since every use of it is a solve."""

    chol: np.ndarray | None  # lower Cholesky factor, None if not PD

    @property
    def positive_definite(self) -> bool:
        return self.chol is not None

    def solve(self, B):
        """Solve ``G Z = B`` reusing the retained factorization."""
        if B.size == 0:  # as SciPy's wrappers do: LAPACK rejects n = 0
            return np.empty_like(B, dtype=float)
        return _lapack_result(*dpotrs(self.chol, B, lower=1), "dpotrs")

    def tri_solve(self, B, trans: bool = False):
        """Solve ``Z L = B``, or ``Z L^T = B`` with ``trans``, for the lower
        factor ``L`` of ``G = L L^T``: half of :meth:`solve`, from the row
        side, so ``B`` has ``n`` columns.  The result is Fortran-ordered and
        ``B`` is not overwritten.  Raises LinAlgError on a zero pivot."""
        if B.size == 0:
            return np.empty_like(B, dtype=float)
        if not self.chol.diagonal().all():
            raise scipy.linalg.LinAlgError("triangular factor has a zero pivot")
        return dtrsm(1.0, self.chol, B, side=1, lower=1, trans_a=int(trans))


def closed_loop(G_p: np.ndarray, inc: IncidenceMatrix, x) -> ClosedLoop:
    """Form ``G_p + E diag(x) E^T`` and attempt its factorization, in place:
    ``G`` is exactly symmetric, so its Fortran-ordered transpose ``G.T`` is
    ``G`` itself, and no second n-by-n array is made."""
    G = controller_laplacian(inc, x)
    np.add(G_p, G, out=G)  # G_p + L without a second n-by-n temporary
    return ClosedLoop(try_cholesky(G.T))


@dataclass(frozen=True, eq=False)
class PlantGraph:
    """Plant Laplacian with its strengthened form and connectivity flag."""

    n: int
    edges: EdgeList
    L: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)
    connected: bool

    @classmethod
    def from_edges(cls, edges: EdgeList) -> "PlantGraph":
        if edges.n < 2:
            raise InvalidInputError("a plant needs at least two nodes")
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
    if kind in ("path", "ring"):
        i = np.arange(n - 1)
        pairs = np.column_stack((i, i + 1))
        if kind == "ring":
            pairs = np.vstack((pairs, [0, n - 1]))
        return EdgeList(n, pairs, np.ones(len(pairs)))
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
    """Number of connected components of an edge list, counted exactly.

    Shiloach-Vishkin style hooking on a forest of stars (every node points
    at its tree's root).  The edges are kept as the roots of their ends,
    smaller first, and only while those differ.  Each round

    - hooks every root with a smaller neighbouring root onto the smallest
      one (pointers only go down, so no cycle forms);
    - hooks every root that neither hooked nor was hooked onto (all its
      neighbours are larger, and they all hooked) onto one neighbour;
      nothing points at such a root, so no cycle forms either;
    - jumps pointers until every tree is a star again.

    Every tree with an edge to another tree merges with one, so each
    component's tree count at least halves per round: at most
    ``ceil(log2 n)`` rounds.  Each pointer jump halves the longest path to
    a root, so a round jumps at most ``ceil(log2 n) + 1`` times.
    """
    n = edges.n
    root = np.arange(n)
    lo, hi = np.ascontiguousarray(edges.pairs.T)
    while lo.size:
        np.minimum.at(root, hi, lo)
        hooked_onto = np.zeros(n, dtype=bool)
        hooked_onto[root[hi]] = True
        stuck = (root[lo] == lo) & ~hooked_onto[lo]
        root[lo[stuck]] = hi[stuck]
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        # lo and hi are nodes of the ends' trees: root[] gives the new roots
        ra, rb = root[lo], root[hi]
        between = np.flatnonzero(ra != rb)
        ra, rb = ra[between], rb[between]
        lo, hi = np.minimum(ra, rb), np.maximum(ra, rb)
    return int(np.count_nonzero(root == np.arange(n)))


def _check_gamma(gamma) -> None:
    if not 0 <= gamma < np.inf:  # also rejects NaN
        raise InvalidInputError("gamma must be finite and non-negative")


def _penalty(m: int, gamma: float, weights) -> np.ndarray:
    """Read-only per-edge penalty ``gamma * weights`` (uniform without
    ``weights``).

    Raises InvalidInputError unless ``weights`` holds one finite,
    non-negative entry per candidate edge.
    """
    g = np.full(m, gamma)
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (m,):
            raise InvalidInputError(
                f"weights must have shape ({m},), not {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InvalidInputError("weights must be finite and non-negative")
        g = g * w
    g.setflags(write=False)
    return g


def _symmetric(A: np.ndarray) -> bool:
    """``max|A - A^T| <= 1e-12 max(1, max|A|)``, an absolute bound (a
    relative one passes parts-in-a-million asymmetry); NaN or infinite
    entries fail."""
    scale = float(np.max(np.abs(A), initial=1.0))
    return bool(np.max(np.abs(A - A.T), initial=0.0) <= 1e-12 * scale)


@dataclass(frozen=True, eq=False)
class Problem:
    """Immutable bundle of problem data for the edge-addition design problem.

    ``Q`` and ``R`` are node-space (n-by-n) weights; dual certificates exist
    for every symmetric positive definite ``R``.  ``penalty`` is the
    read-only per-edge penalty of ``sum_l penalty_l |x_l|`` (:meth:`l1`):
    ``gamma`` on every edge, or ``gamma * weights`` from :meth:`with_gamma`.

    ``qp`` is the read-only, Fortran-ordered transposed lower Cholesky
    factor ``C^T`` of the effective state weight ``Q_p = Q + (1/n) 11^T +
    L_p R L_p = C C^T``, formed and factored by the constructor and shared
    by every problem that :meth:`with_gamma` and :meth:`restrict` derive;
    ``Q_p`` and ``C`` are not kept.
    """

    plant: PlantGraph
    candidates: IncidenceMatrix
    Q: np.ndarray = field(repr=False)
    R: np.ndarray = field(repr=False)
    gamma: float = 0.0
    resistive: bool = False
    penalty: np.ndarray = field(init=False, repr=False)
    qp: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.plant.n
        for name in ("Q", "R"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        Q, R = self.Q, self.R
        if self.candidates.n != n or Q.shape != (n, n) or R.shape != (n, n):
            raise InvalidInputError("dimension mismatch in problem data")
        if not _symmetric(Q):
            raise InvalidInputError("Q must be symmetric")
        if not np.allclose(Q @ np.ones(n), 0.0, atol=1e-10):
            raise InvalidInputError("Q must annihilate the all-ones vector")
        S = strengthened(Q)  # C-ordered, so try_cholesky factors a copy
        if try_cholesky(S) is None:
            raise InvalidInputError("Q + (1/n) 11^T must be positive definite")
        if not _symmetric(R):
            raise InvalidInputError("R must be symmetric")
        if try_cholesky(R.copy(order="F")) is None:  # R itself is kept
            raise InvalidInputError("R must be positive definite")
        _check_gamma(self.gamma)
        object.__setattr__(self, "penalty", _penalty(self.m, self.gamma, None))
        if self.resistive:
            if not self.plant.connected:
                raise InvalidInputError("resistive problems require a connected plant")
            plant_keys, cand_keys = (p[:, 0] * n + p[:, 1] for p in (
                self.plant.edges.pairs, self.candidates.pairs))
            # both key lists are duplicate-free: the plant keys found among
            # the candidates are the joint edges
            both = np.sort(plant_keys[np.isin(plant_keys, cand_keys)])
            joint = [divmod(int(k), n) for k in both[:3]]
            if joint:
                raise InvalidInputError(f"joint plant/candidate edges: {joint}")
        Lp = self.plant.L
        # a C-ordered temporary, copied by try_cholesky: L_p R L_p is not
        # exactly symmetric, so factoring its transpose would change the
        # bits.  An overflowing Q_p factors with info = 0 into a non-finite
        # factor, which is rejected like a failed one.
        with np.errstate(over="ignore", invalid="ignore"):
            chol = try_cholesky(S + Lp @ R @ Lp)
        if chol is None or not np.isfinite(chol).all():
            raise InvalidInputError(
                "effective state weight Q + (1/n) 11^T + L_p R L_p must be "
                "finite and positive definite")
        qp = np.asfortranarray(chol.T)
        qp.setflags(write=False)
        object.__setattr__(self, "qp", qp)

    @property
    def n(self) -> int:
        return self.plant.n

    @property
    def m(self) -> int:
        return self.candidates.m

    def _derive(self, **changes) -> "Problem":
        """Problem with a new penalty or candidate subset; it keeps the plant,
        ``Q``, ``R`` and so the same ``Q_p`` factor ``qp``."""
        new = object.__new__(Problem)  # skips __post_init__: the data is checked
        new.__dict__.update(self.__dict__, **changes)
        return new

    def with_gamma(self, gamma: float, weights=None) -> "Problem":
        """Problem with penalty ``gamma``, per edge ``gamma * weights``
        (see :func:`_penalty`)."""
        _check_gamma(gamma)
        return self._derive(gamma=gamma, penalty=_penalty(self.m, gamma, weights))

    def restrict(self, support) -> "Problem":
        """Problem over a subset of distinct candidates, with their
        penalties."""
        candidates = self.candidates.restrict(support)  # checks the indices
        penalty = self.penalty[np.asarray(support, dtype=np.intp).reshape(-1)]
        penalty.setflags(write=False)
        return self._derive(candidates=candidates, penalty=penalty)

    def l1(self, x) -> float:
        """The penalty term ``sum_l penalty_l |x_l|`` at ``x``."""
        return float(self.penalty @ np.abs(x))

    def smooth_grad(self, grad):
        """Gradient of the smooth part of the solvers' objective, from the
        objective gradient ``grad``.

        On the cone ``x >= 0`` of a resistive problem the penalty term is
        linear, so it joins the smooth part: ``grad + penalty``.  A signed
        problem's penalty stays in the prox, and the smooth gradient is
        ``grad`` itself.  Every solver and Newton kernel reads a gradient
        in this convention.
        """
        return grad + self.penalty if self.resistive else grad


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
    return Problem(plant, candidates.incidence, Q, R, gamma, resistive)


# --- edge-list file format -------------------------------------------------
#
# UTF-8 text, one edge per line, "i j [w]" whitespace-separated, 0-based.
# '#' starts a comment that runs to the end of its line.  The first
# non-comment line may be "n <count>" to declare isolated nodes; otherwise
# n = 1 + max index.  A list whose trailing nodes are isolated, and every
# edgeless list, is written with its "n <count>" line.

#: The bytes of a text that ``np.loadtxt`` may read: tab, space and
#: printable ASCII, with line ends ``\n`` or ``\r\n``.  In such a text its
#: lines and tokens are those of ``str.splitlines`` and ``str.split``; a lone
#: ``\r``, ``\v``, ``\f`` and ``\x1c``-``\x1e`` end a line for
#: ``splitlines``, not for ``np.loadtxt``.
_PLAIN_BYTES = b"\t\n\r" + bytes(range(0x20, 0x7F))


def _plain(text: str) -> bool:
    """Whether ``text`` holds only :data:`_PLAIN_BYTES`, with every CR in a
    CR LF line end."""
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN_BYTES):
        return False
    return "\r" not in text or text.count("\r") == text.count("\r\n")


#: Row dtype of ``i j`` and of ``i j w`` lines, by token count.
_ROW = {2: np.dtype([("i", np.intp), ("j", np.intp)]),
        3: np.dtype([("i", np.intp), ("j", np.intp), ("w", float)])}


def _scan_edge_list(text: str) -> EdgeList:
    """Read an edge list one line at a time: the reader of every text that
    :func:`_load_edge_list` refuses, and the only code that words an error,
    with its line number."""
    declared_n = None
    i, j, w = [], [], []  # the columns, passed whole to the constructor
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


def _load_edge_list(text: str) -> EdgeList | None:
    """Read a text whose edge lines all have the same 2 or 3 tokens with
    numpy's C reader, or return None for :func:`_scan_edge_list` to read.

    The lines before the first edge (comments, blank lines, the node-count
    line) are read as the scan reads them.  From the first edge on,
    ``np.loadtxt`` reads rows of exactly that edge's token count, with
    ``int`` nodes and ``float`` weights.  It refuses, and None is returned
    for, a line of another token count, a node-count line after an edge,
    and any token that ``int`` or ``float`` would read otherwise (a node
    ``1.0``, digits with ``_``).  Its float parser is CPython's, so a weight
    reads to the same bits.
    """
    if not _plain(text):
        return None
    declared_n, start = None, 0
    while True:  # to the first edge line
        end = text.find("\n", start) + 1 or len(text)
        tok = text[start:end].split("#", 1)[0].split()
        if tok and tok[0] == "n" and declared_n is None:
            try:
                (declared_n,) = map(int, tok[1:])
            except ValueError:
                return None
        elif tok:
            break
        if end == len(text):
            return None  # no edge
        start = end
    row = _ROW.get(len(tok))
    if row is None:
        return None
    body = text[start:]
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads a node "1.0" as 1, with a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            # looking for comments costs a fifth of the read: only if any
            rows = np.loadtxt(io.StringIO(body), dtype=row, ndmin=1,
                              comments="#" if "#" in body else None)
    except (ValueError, DeprecationWarning):
        return None
    i, j = rows["i"], rows["j"]
    w = rows["w"] if "w" in row.names else np.ones(rows.size)
    if declared_n is None:
        declared_n = 1 + int(max(i.max(), j.max()))
    return EdgeList._from_columns(declared_n, i, j, np.ascontiguousarray(w))


def parse_edge_list(text: str) -> EdgeList:
    """Edge list of a text in the edge-list file format: read by
    ``np.loadtxt`` where it can be, else by the per-line scan (see the
    module docstring)."""
    edges = _load_edge_list(text)
    return _scan_edge_list(text) if edges is None else edges


def read_edge_list(path) -> EdgeList:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(edges: EdgeList) -> str:
    """Text of an edge list: ``i j`` lines when every weight is 1, else
    ``i j w`` lines with the ``repr`` of the Python float (see the module
    docstring)."""
    i, j = edges.pairs.T
    implied_n = 1 + int(j.max()) if edges.m else 0  # j > i
    head = "" if edges.m and implied_n == edges.n else f"n {edges.n}\n"
    first = np.array([f"{k} " for k in range(implied_n)], dtype=object)
    weighted = np.flatnonzero(edges.weights != 1.0)
    if weighted.size:
        last = np.full(edges.m, "1.0\n", dtype=object)
        last[weighted] = [f"{w!r}\n" for w in edges.weights[weighted].tolist()]
        parts = np.stack((first[i], first[j], last), axis=1)
    else:
        last = np.array([f"{k}\n" for k in range(implied_n)], dtype=object)
        parts = np.stack((first[i], last[j]), axis=1)
    return head + "".join(parts.ravel().tolist())


def write_edge_list(edges: EdgeList, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(edges))
