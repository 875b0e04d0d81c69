"""Graph containers, generators and the edge-list file format."""

import collections
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsp import graphs
from gsp.errors import InvalidInputError
from gsp.objective import Objective
from gsp.pipeline import ZERO_TOL, gamma_max, polish
from gsp.proxgrad import ProxGradOptions, solve_ista, solve_projected
from gsp.proxnewton import solve_newton
from reference import (
    csgraph_component_count,
    edge_set,
    format_edge_list_per_edge,
    incidence_dense,
    scan_edge_list,
)


def test_edge_list_canonical_order():
    e = graphs.EdgeList.from_tuples(4, [(2, 0), (1, 3)])
    assert [tuple(p) for p in e.pairs] == [(0, 2), (1, 3)]


def test_edge_list_rejects_self_loops_and_duplicates():
    with pytest.raises(InvalidInputError):
        graphs.EdgeList.from_tuples(3, [(1, 1)])
    with pytest.raises(InvalidInputError):
        graphs.EdgeList.from_tuples(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidInputError):
        graphs.EdgeList.from_tuples(2, [(0, 3)])
    # node indices beyond the C long range, in either constructor
    for node in (2**70, -2**70):
        with pytest.raises(InvalidInputError, match="^node index out of range$"):
            graphs.EdgeList.from_tuples(3, [(0, 1), (1, node)])
        with pytest.raises(InvalidInputError, match="^node index out of range$"):
            graphs.EdgeList(3, [(0, 1), (1, node)], [1.0, 1.0])
    # a node count whose pair keys i n + j would wrap around in intp, where
    # (4, 5) would read as a duplicate of (0, 5)
    with pytest.raises(InvalidInputError, match="^node count out of range$"):
        graphs.EdgeList(2**62, [(0, 5), (4, 5)], [1.0, 1.0])


def test_laplacian_path3():
    e = graphs.generate("path", 3)
    L = e.laplacian()
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.allclose(L, expected)
    assert np.allclose(L @ np.ones(3), 0.0)


@pytest.mark.parametrize("n", [0, 1])
def test_plants_need_two_nodes(n):
    with pytest.raises(InvalidInputError, match="a plant needs at least two nodes"):
        graphs.default_problem(graphs.EdgeList.from_tuples(n, []))


def test_strengthened_pd_iff_connected():
    connected = graphs.PlantGraph.from_edges(graphs.generate("path", 4))
    assert connected.connected
    assert graphs.try_cholesky(connected.G.copy()) is not None
    disconnected = graphs.PlantGraph.from_edges(
        graphs.EdgeList.from_tuples(4, [(0, 1)])
    )
    assert not disconnected.connected


def test_component_count():
    e = graphs.EdgeList.from_tuples(5, [(0, 1), (2, 3)])
    assert graphs.component_count(e) == 3
    assert graphs.component_count(graphs.generate("ring", 5)) == 1


@st.composite
def labelled_graphs(draw):
    """Edge lists on shuffled labels, in shuffled order: random edges, a
    path through some of the nodes (the rest isolated), or many small
    components; ``n`` may be 0 or 1."""
    n = draw(st.integers(0, 80))
    kind = draw(st.sampled_from(["random", "path", "blocks"]))
    if kind == "random":
        ends = st.integers(0, max(n - 1, 0))
        pairs = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
    elif kind == "path":
        length = draw(st.integers(0, n))
        pairs = [(k, k + 1) for k in range(length - 1)]
    else:  # consecutive blocks of 1 to 4 nodes, each joined as a path
        pairs, start = [], 0
        while start < n:
            size = draw(st.integers(1, 4))
            pairs += [(k, k + 1) for k in range(start, min(start + size, n) - 1)]
            start += size
    label = draw(st.permutations(range(n)))
    edges = sorted({tuple(sorted((label[i], label[j]))) for i, j in pairs if i != j})
    return graphs.EdgeList.from_tuples(n, draw(st.permutations(edges)))


@settings(max_examples=200, deadline=None)
@given(labelled_graphs())
def test_component_count_matches_csgraph(edges):
    assert graphs.component_count(edges) == csgraph_component_count(edges)


@pytest.mark.parametrize("n", [2, 3, 1000, 5000])
def test_component_count_long_shuffled_paths(n):
    # the longest hook chains: one path over shuffled labels, and the same
    # path split into two halves
    label = np.random.Generator(np.random.PCG64(n)).permutation(n)
    pairs = np.sort(np.column_stack((label[:-1], label[1:])), axis=1)
    path = graphs.EdgeList(n, pairs, np.ones(n - 1))
    assert graphs.component_count(path) == csgraph_component_count(path) == 1
    split = graphs.EdgeList(n, np.delete(pairs, n // 2 - 1, axis=0), np.ones(n - 2))
    assert graphs.component_count(split) == csgraph_component_count(split) == 2


def test_package_never_imports_scipy_sparse(tmp_path):
    # building connected and disconnected problems, a solve and a CLI sweep
    # leave scipy.sparse unloaded: components are counted in numpy
    script = textwrap.dedent("""
        import sys
        from pathlib import Path
        from gsp import cli, graphs, proxnewton
        work = Path(sys.argv[1])
        plant = graphs.generate("erdos_renyi", 12, p=0.3, seed=1)
        connected = graphs.default_problem(plant, resistive=True)
        split = graphs.default_problem(graphs.EdgeList.from_tuples(6, [(0, 1), (2, 3)]))
        assert connected.plant.connected and not split.plant.connected
        x, report = proxnewton.solve_newton(connected.with_gamma(0.5))
        assert report.status == "converged", report.status
        graphs.write_edge_list(plant, work / "plant.edges")
        assert cli.run(["sweep", "--plant", str(work / "plant.edges"), "--resistive",
                        "--method", "proxbb", "--gammas", "log:0.3gmax:gmax:2",
                        "--csv", str(work / "s.csv"), "--out", str(work / "s.json")]) == 0
        loaded = sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
        assert not loaded, loaded
    """)
    src = str(Path(graphs.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_incidence_dense_matches_pairs():
    e = graphs.generate("ring", 4)
    inc = e.incidence
    E = incidence_dense(inc)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    L = E @ np.diag(x) @ E.T
    assert np.allclose(L, graphs.controller_laplacian(inc, x))
    assert np.allclose(L @ np.ones(4), 0.0)


def test_closed_loop_solve_matches_inverse():
    plant = graphs.PlantGraph.from_edges(graphs.generate("path", 5))
    inc = graphs.complement_candidates(plant.edges).incidence
    x = np.full(inc.m, 0.3)
    cl = graphs.closed_loop(plant.G, inc, x)
    assert cl.positive_definite
    G = plant.G + graphs.controller_laplacian(inc, x)
    assert np.allclose(cl.solve(np.eye(5)), np.linalg.inv(G))
    assert np.allclose(G @ np.ones(5), np.ones(5))


def test_generate_path_ring():
    p = graphs.generate("path", 10)
    assert p.m == 9
    r = graphs.generate("ring", 10)
    assert r.m == 10
    assert (0, 9) in edge_set(r)


def test_generate_erdos_renyi_deterministic():
    a = graphs.generate("erdos_renyi", 30, p=0.2, seed=7)
    b = graphs.generate("erdos_renyi", 30, p=0.2, seed=7)
    assert np.array_equal(a.pairs, b.pairs)
    c = graphs.generate("erdos_renyi", 30, p=0.2, seed=8)
    assert not np.array_equal(a.pairs, c.pairs)


def test_generate_erdos_renyi_edge_limits():
    assert graphs.generate("erdos_renyi", 10, p=0.0).m == 0
    assert graphs.generate("erdos_renyi", 10, p=1.0).m == 45


def test_complement_candidates_partition():
    plant = graphs.generate("erdos_renyi", 12, p=0.4, seed=3)
    comp = graphs.complement_candidates(plant)
    assert plant.m + comp.m == 12 * 11 // 2
    assert not (edge_set(plant) & edge_set(comp))


def test_default_problem_weights():
    prob = graphs.default_problem(graphs.generate("path", 4), q_scale=2.0,
                                  r_scale=3.0)
    n = 4
    assert np.allclose(prob.Q, 2.0 * (np.eye(n) - np.full((n, n), 1.0 / n)))
    assert np.allclose(prob.R, 3.0 * np.eye(n))
    # the edge forms of R = r I that certificates read are 2 r bit for bit
    assert np.array_equal(Objective(prob).lin, np.full(prob.m, 6.0))


def test_problem_validation():
    plant = graphs.generate("path", 3)
    with pytest.raises(InvalidInputError):
        # Q must annihilate the all-ones vector
        graphs.Problem(
            graphs.PlantGraph.from_edges(plant),
            graphs.complement_candidates(plant).incidence,
            np.eye(3), np.eye(3),
        )
    for gamma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            graphs.default_problem(plant, gamma=gamma)
        with pytest.raises(InvalidInputError):
            graphs.default_problem(plant).with_gamma(gamma)
    with pytest.raises(InvalidInputError):
        # resistive problems forbid candidate edges already in the plant
        graphs.default_problem(plant, candidates=plant, resistive=True)
    with pytest.raises(InvalidInputError):
        graphs.default_problem(
            graphs.EdgeList.from_tuples(4, [(0, 1)]), resistive=True
        )


def test_symmetry_checks_are_absolute():
    # parts-in-a-million asymmetry is rejected (the objective would depend on
    # which triangle LAPACK reads); rounding-level asymmetry is accepted
    base = graphs.default_problem(graphs.generate("path", 4))
    R = 3.0 * np.eye(4)
    R[0, 1], R[1, 0] = 1.0, 1.0 + 5e-6
    Q = base.Q.copy()
    Q[0, [0, 1]] += [-5e-6, 5e-6]  # the row sums stay zero
    for name, QR in (("Q", (Q, base.R)), ("R", (base.Q, R))):
        with pytest.raises(InvalidInputError, match=f"{name} must be symmetric"):
            graphs.Problem(base.plant, base.candidates, *QR)
    R[1, 0] = np.nextafter(1.0, 2.0)
    Q = base.Q.copy()
    Q[1, 0] = np.nextafter(Q[1, 0], 0.0)
    graphs.Problem(base.plant, base.candidates, Q, R)


def test_restrict_problem():
    plant = graphs.generate("path", 5)
    prob = graphs.default_problem(plant)
    sub = prob.restrict([0, 2])
    assert sub.m == 2
    assert np.array_equal(sub.candidates.pairs, prob.candidates.pairs[[0, 2]])
    assert not sub.candidates.pairs.flags.writeable
    assert prob.restrict([]).m == 0


def test_penalty_is_carried_by_the_problem():
    # uniform from the constructor and with_gamma(g), gamma * weights from
    # with_gamma(g, w); restrict slices it; every penalty is read-only
    prob = graphs.default_problem(graphs.generate("path", 6), gamma=0.4)
    assert np.array_equal(prob.penalty, np.full(prob.m, 0.4))
    assert not prob.penalty.flags.writeable
    rng = np.random.Generator(np.random.PCG64(4))
    w = rng.uniform(0.5, 2.0, prob.m)
    g = 0.7
    support = [5, 0, 3]
    sub = prob.with_gamma(g, w).restrict(support)
    assert sub.penalty.tobytes() == (g * w)[support].tobytes()
    assert not sub.penalty.flags.writeable
    again = sub.with_gamma(g)
    assert np.array_equal(again.penalty, np.full(sub.m, g))
    assert not again.penalty.flags.writeable
    assert prob.restrict([]).penalty.shape == (0,)


@pytest.mark.parametrize("resistive", [False, True])
def test_problem_penalty_term_and_smooth_gradient(resistive):
    # l1 is float((g w) @ |x|) and smooth_grad is grad + g w (resistive) or
    # grad (signed), bit for bit, with some weights exactly 0; on a
    # restricted problem both are the sliced ones
    prob = graphs.default_problem(graphs.generate("path", 6), resistive=resistive)
    rng = np.random.Generator(np.random.PCG64(8))
    w = rng.uniform(0.5, 2.0, prob.m)
    w[[1, 4, 7]] = 0.0
    g = 0.7
    x = rng.uniform(0.0 if resistive else -1.0, 1.0, prob.m)
    grad = rng.standard_normal(prob.m)
    p = prob.with_gamma(g, w)
    pen = g * w
    assert p.l1(x).hex() == float(pen @ np.abs(x)).hex()
    smooth = grad + pen if resistive else grad
    assert p.smooth_grad(grad).tobytes() == smooth.tobytes()
    support = [7, 0, 3, 4, 9]
    sub = p.restrict(support)
    assert np.any(w[support] == 0.0)
    assert sub.l1(x[support]).hex() == float(pen[support] @ np.abs(x[support])).hex()
    assert sub.smooth_grad(grad[support]).tobytes() == smooth[support].tobytes()


def test_joint_edges_are_listed_sorted():
    # up to three plant edges that are also candidates, smallest first,
    # whatever the candidates' order
    plant = graphs.generate("path", 6)
    cand = graphs.EdgeList.from_tuples(6, [(4, 5), (0, 2), (3, 4), (2, 1), (0, 1)])
    msg = "joint plant/candidate edges: [(0, 1), (1, 2), (3, 4)]"
    with pytest.raises(InvalidInputError, match=re.escape(msg)):
        graphs.default_problem(plant, cand, resistive=True)


@pytest.mark.parametrize("support", [[-1], [10**6], [0, 2, 0]])
def test_restrict_rejects_bad_support(support):
    prob = graphs.default_problem(graphs.generate("path", 5), resistive=True)
    with pytest.raises(InvalidInputError):
        prob.restrict(support)
    with pytest.raises(InvalidInputError):
        polish(prob, support)


@pytest.mark.parametrize("pairs", [
    [(0, 1), (0, 1)],  # duplicate column
    [(0, 3)],  # node out of range
    [(-1, 1)],
    [(1, 0)],  # i > j
    [(1, 1)],  # self-loop
    [(0, 2**70)],  # beyond the C long range
    [(-2**70, 1)],
])
def test_incidence_rejects_bad_columns(pairs):
    with pytest.raises(InvalidInputError):
        graphs.IncidenceMatrix(3, np.array(pairs))


@pytest.mark.parametrize("x", [[1.0, np.nan, 1.0, 1.0], [1.0, 2.0, 3.0]])
def test_controller_laplacian_rejects_bad_weights(x):
    inc = graphs.generate("ring", 4).incidence
    with pytest.raises(InvalidInputError):
        graphs.controller_laplacian(inc, x)


def test_controller_laplacian_rejects_any_non_finite_weight():
    # only the support's weights are checked, and NaN and +-inf are always
    # in it: at every position, among zeros and -0.0 or among nonzeros
    inc = graphs.generate("ring", 6).incidence
    for base in (np.zeros(6), np.full(6, -0.0), np.linspace(-1.0, 1.5, 6)):
        graphs.controller_laplacian(inc, base)
        for l in range(6):
            for bad in (np.nan, np.inf, -np.inf):
                x = base.copy()
                x[l] = bad
                with pytest.raises(InvalidInputError, match="finite"):
                    graphs.controller_laplacian(inc, x)
    for m in (0, 5, 7):
        with pytest.raises(InvalidInputError, match="length"):
            graphs.controller_laplacian(inc, np.ones(m))


def _weights_with_zeros(m, seed, kind, signed):
    """Edge weights where ``kind`` puts exact zeros: ``mixed`` (0.0 and -0.0
    among nonzeros), ``zeros`` (all 0.0) or ``negzeros`` (all -0.0)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(-1.0 if signed else 0.0, 2.0, m)
    if kind == "mixed":
        pick = rng.integers(0, 3, m)
        x[pick == 1] = 0.0
        x[pick == 2] = -0.0
    else:
        x[:] = 0.0 if kind == "zeros" else -0.0
    return x


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 20), st.integers(0, 50), st.sampled_from([0.1, 0.3, 0.6]),
       st.sampled_from(["mixed", "zeros", "negzeros"]), st.booleans())
def test_controller_laplacian_equals_all_edge_assembly(n, seed, p, kind, signed):
    # assembling only the support is byte-equal to assembling every candidate
    plant = graphs.generate("erdos_renyi", n, p=p, seed=seed)
    inc = graphs.complement_candidates(plant).incidence
    x = _weights_with_zeros(inc.m, seed, kind, signed)
    L = graphs.controller_laplacian(inc, x)
    ref = graphs._laplacian(n, inc.positions, x)
    assert L.dtype == ref.dtype and L.shape == ref.shape
    assert L.tobytes() == ref.tobytes()


def test_controller_laplacian_assembles_only_the_support(monkeypatch):
    seen = []
    assemble = graphs._laplacian

    def recording(n, pos, w):
        seen.append((pos.copy(), w.copy()))
        return assemble(n, pos, w)

    monkeypatch.setattr(graphs, "_laplacian", recording)
    plant = graphs.generate("erdos_renyi", 15, p=0.3, seed=2)
    inc = graphs.complement_candidates(plant).incidence
    x = _weights_with_zeros(inc.m, 7, "mixed", signed=True)
    graphs.controller_laplacian(inc, x)
    [(pos, w)] = seen
    nz = np.flatnonzero(x)
    assert 0 < nz.size < inc.m
    assert np.all(w != 0.0)
    assert np.array_equal(pos, inc.positions[:, nz])
    assert np.array_equal(w, x[nz])


def add_at_laplacian(n, pairs, w):
    """The Laplacian as four scatter-adds, one per entry group: the
    assembly that the one-``bincount`` ``graphs._laplacian`` replaced."""
    L = np.zeros((n, n))
    i, j = pairs[:, 0], pairs[:, 1]
    np.add.at(L, (i, i), w)
    np.add.at(L, (j, j), w)
    np.add.at(L, (i, j), -w)
    np.add.at(L, (j, i), -w)
    return L


def test_problems_on_one_candidate_list_share_its_incidence():
    # one incidence structure per candidate edge list: problems built from
    # it share one read-only positions cache
    plant = graphs.generate("erdos_renyi", 10, p=0.3, seed=1)
    cand = graphs.complement_candidates(plant)
    resistive = graphs.default_problem(plant, cand, resistive=True)
    signed = graphs.default_problem(plant, cand)
    inc = cand.incidence
    assert resistive.candidates is inc and signed.candidates is inc
    assert signed.candidates.positions is resistive.candidates.positions
    assert np.shares_memory(inc.pairs, cand.pairs)
    for a in (inc.pairs, inc.positions):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1
    # a candidate list of its own gets its own structure
    other = graphs.default_problem(plant, graphs.complement_candidates(plant))
    assert other.candidates is not inc
    assert np.array_equal(other.candidates.pairs, inc.pairs)


def test_incidence_of_an_edge_list_is_not_rechecked(monkeypatch):
    # the edge list checked its pairs when it was built, so its incidence
    # structure trusts them; the constructor still checks outside callers
    # (malformed columns: test_incidence_rejects_bad_columns)
    cand = graphs.complement_candidates(graphs.generate("erdos_renyi", 10, p=0.3,
                                                        seed=1))
    calls = []
    check = graphs._check_pairs
    monkeypatch.setattr(graphs, "_check_pairs",
                        lambda *args: calls.append(args) or check(*args))
    inc = cand.incidence
    assert calls == []
    assert inc.n == cand.n and inc.pairs is cand.pairs and inc.m == cand.m
    built = graphs.IncidenceMatrix(cand.n, cand.pairs)
    assert len(calls) == 1
    assert inc.positions.tobytes() == built.positions.tobytes()


def test_positions_are_cached_flat_entry_indices():
    inc = graphs.IncidenceMatrix(4, np.array([(0, 2), (1, 3), (2, 3)]))
    pos = inc.positions
    assert pos is inc.positions
    assert pos.shape == (4, 3) and not pos.flags.writeable
    for l, (i, j) in enumerate(inc.pairs):
        assert list(pos[:, l]) == [i * 4 + i, j * 4 + j, i * 4 + j, j * 4 + i]
    empty = graphs.IncidenceMatrix(3, np.empty((0, 2), dtype=int))
    assert empty.positions.shape == (4, 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 20), st.integers(0, 50), st.sampled_from([0.1, 0.3, 0.6]),
       st.sampled_from(["mixed", "zeros", "negzeros"]), st.booleans())
def test_laplacian_equals_add_at_assembly(n, seed, p, kind, signed):
    # one bincount adds every entry's weights in the order of the four
    # scatter-adds, from +0.0, so the two are byte-equal, on every edge,
    # on the support only and for an edge list's weights
    plant = graphs.generate("erdos_renyi", n, p=p, seed=seed)
    inc = graphs.complement_candidates(plant).incidence
    x = _weights_with_zeros(inc.m, seed, kind, signed)
    nz = np.flatnonzero(x)
    edges = graphs.EdgeList(n, inc.pairs, x)
    for got, ref in ((graphs._laplacian(n, inc.positions, x),
                      add_at_laplacian(n, inc.pairs, x)),
                     (graphs.controller_laplacian(inc, x),
                      add_at_laplacian(n, inc.pairs[nz], x[nz])),
                     (edges.laplacian(), add_at_laplacian(n, inc.pairs, x))):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def spd_closed_loop(n, seed, p):
    """A positive definite closed loop on a seeded ER plant and its matrix
    ``G``, or None."""
    plant = graphs.generate("erdos_renyi", n, p=p, seed=seed)
    inc = graphs.complement_candidates(plant).incidence
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(0.0, 2.0, inc.m) * (rng.random(inc.m) < 0.5)
    G_p = graphs.PlantGraph.from_edges(plant).G
    cl = graphs.closed_loop(G_p, inc, x)
    if not cl.positive_definite:
        return None
    return cl, G_p + graphs.controller_laplacian(inc, x)


def assert_same_array(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 20), st.integers(0, 50), st.sampled_from([0.1, 0.3, 0.6]),
       st.integers(1, 4), st.booleans())
def test_lapack_kernels_equal_scipy_wrappers(n, seed, p, nrhs, fortran):
    # the direct LAPACK calls give SciPy's factor and full solve byte for
    # byte, and the row-side triangular solve is SciPy's right-side dtrsm
    # byte for byte and solve_triangular on the transposed system within
    # rounding, for C- and Fortran-ordered right-hand sides.  The closed
    # loop's in-place factor is also that of try_cholesky on a C-ordered
    # copy of G, which it leaves unchanged
    loop = spd_closed_loop(n, seed, p)
    assume(loop is not None)
    cl, G = loop
    assert_same_array(cl.chol, scipy.linalg.cholesky(G, lower=True,
                                                     check_finite=False))
    G_before = G.tobytes()
    assert_same_array(cl.chol, graphs.try_cholesky(G))
    assert G.tobytes() == G_before
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    B = rng.standard_normal((n, nrhs))
    Bt = rng.standard_normal((nrhs, n))  # row-side: n columns
    if fortran:
        B, Bt = np.asfortranarray(B), np.asfortranarray(Bt)
    before = B.copy(), Bt.copy()
    assert_same_array(cl.solve(B), scipy.linalg.cho_solve(
        (cl.chol, True), B, check_finite=False))
    for trans in (False, True):
        Z = cl.tri_solve(Bt, trans=trans)
        assert_same_array(Z, scipy.linalg.blas.dtrsm(
            1.0, cl.chol, Bt, side=1, lower=1, trans_a=int(trans)))
        # Z L = B is L^T Z^T = B^T, and Z L^T = B is L Z^T = B^T
        ref = scipy.linalg.solve_triangular(
            cl.chol, Bt.T, trans=int(not trans), lower=True, check_finite=False).T
        assert np.max(np.abs(Z - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the right-hand sides are not overwritten
    assert np.array_equal(B, before[0]) and np.array_equal(Bt, before[1])


def test_lapack_kernels_edge_cases():
    # not positive definite: None, as scipy.linalg.cholesky raises
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.cholesky(A, lower=True, check_finite=False)
    assert graphs.try_cholesky(A) is None
    assert graphs.try_cholesky(-np.eye(3)) is None
    # 0-by-0: an empty factor and empty solves
    empty = np.zeros((0, 0))
    chol = graphs.try_cholesky(empty)
    assert chol.shape == (0, 0) and chol.dtype == np.float64
    cl = graphs.ClosedLoop(chol)
    for Z in (cl.solve(empty), cl.tri_solve(empty), cl.tri_solve(empty, trans=True)):
        assert Z.shape == (0, 0) and Z.dtype == np.float64
    # no right-hand side rows on a non-empty factor
    cl = graphs.ClosedLoop(graphs.try_cholesky(np.eye(2)))
    for trans in (False, True):
        Z = cl.tri_solve(np.zeros((0, 2)), trans=trans)
        assert Z.shape == (0, 2) and Z.dtype == np.float64
    # a zero pivot raises LinAlgError, as solve_triangular does; dtrsm
    # itself would divide by it
    singular = np.asfortranarray([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.solve_triangular(singular, np.ones((2, 1)), lower=True)
    assert not np.all(np.isfinite(scipy.linalg.blas.dtrsm(
        1.0, singular, np.ones((1, 2)), side=1, lower=1)))
    for trans in (False, True):
        with pytest.raises(scipy.linalg.LinAlgError):
            graphs.ClosedLoop(singular).tri_solve(np.ones((1, 2)), trans=trans)


def test_problem_data_is_read_only():
    prob = graphs.default_problem(graphs.generate("path", 4))
    for a in (prob.Q, prob.R, prob.candidates.pairs, prob.plant.edges.pairs):
        with pytest.raises(ValueError):
            a[0, 0] = 5


def test_equality_is_identity():
    # the array-holding dataclasses compare by identity: a field-wise
    # comparison of numpy arrays has no single truth value
    a, b = graphs.generate("path", 4), graphs.generate("path", 4)
    pa, pb = graphs.default_problem(a), graphs.default_problem(b)
    loops = [graphs.ClosedLoop(np.eye(2)) for _ in range(2)]
    for x, y in ((a, b), (a.incidence, b.incidence),
                 (graphs.PlantGraph.from_edges(a), graphs.PlantGraph.from_edges(b)),
                 (pa, pb), loops):
        assert (x == y) is False and (x != y) is True
        assert (x == x) is True
        assert len({x, y}) == 2


def test_derived_problems_are_not_rechecked(monkeypatch):
    # checked once at construction; solvers and polish trust the problem
    plant = graphs.generate("erdos_renyi", 12, p=0.4, seed=9)
    base = graphs.default_problem(plant, resistive=True)
    prob = base.with_gamma(0.3 * gamma_max(base))
    calls = collections.Counter()
    for cls in (graphs.EdgeList, graphs.IncidenceMatrix, graphs.Problem):
        def counted(self, _check=cls.__post_init__, _name=cls.__name__):
            calls[_name] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    x, _ = solve_projected(prob)
    solve_newton(prob)
    assert not calls
    support = np.flatnonzero(np.abs(x) > ZERO_TOL)
    assert support.size
    polish(prob, support)
    # restrict checks the support indices only (bad ones raise:
    # test_restrict_rejects_bad_support), not the checked pairs they pick
    assert not calls


def test_solves_build_no_penalty(monkeypatch):
    # the per-edge penalty is built when a problem is built or derived, and
    # never during a solve, weighted or not
    plant = graphs.generate("erdos_renyi", 12, p=0.4, seed=9)
    builds = []

    def counted(*args, _build=graphs._penalty):
        builds.append(1)
        return _build(*args)

    monkeypatch.setattr(graphs, "_penalty", counted)
    for resistive in (True, False):
        base = graphs.default_problem(plant, resistive=resistive)
        w = np.random.Generator(np.random.PCG64(9)).uniform(0.5, 2.0, base.m)
        for weights in (None, w):
            prob = base.with_gamma(0.3 * gamma_max(base), weights)
            builds.clear()
            if resistive:
                solve_projected(prob)
            else:
                solve_ista(prob, opts=ProxGradOptions(max_iters=50))
            solve_newton(prob)
            assert builds == []


def test_problem_leaves_fortran_ordered_weights_unchanged():
    # try_cholesky factors a Fortran-ordered matrix in place, even a
    # read-only one: the checks of Q and R factor neither the caller's
    # matrices nor the problem's copies
    base = graphs.default_problem(graphs.generate("ring", 7))
    B = np.random.Generator(np.random.PCG64(2)).standard_normal((7, 7))
    Q = np.asfortranarray(base.Q)
    R = np.asfortranarray(B @ B.T + np.eye(7))
    before = Q.tobytes(), R.tobytes()
    for a in (Q, R):
        a.setflags(write=False)
    prob = graphs.Problem(base.plant, base.candidates, Q, R, 0.2, False)
    assert (Q.tobytes(), R.tobytes()) == before
    assert (prob.Q.tobytes(), prob.R.tobytes()) == before
    Objective(prob).state(np.full(prob.m, 0.1))
    assert (prob.Q.tobytes(), prob.R.tobytes()) == before


# The pair-loop definitions the vectorized builders replaced; they pin the
# pair order and the PRNG stream order.


def _loop_erdos_renyi(n, p, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    u = rng.random(len(all_pairs))
    return graphs.EdgeList.from_tuples(n, [e for e, ui in zip(all_pairs, u) if ui < p])


def _loop_random_geometric(n, radius, box, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = rng.random((n, 2)) * box
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if d[i, j] <= radius]
    return graphs.EdgeList.from_tuples(n, pairs)


def _loop_complement(plant):
    present = edge_set(plant)
    pairs = [(i, j) for i in range(plant.n) for j in range(i + 1, plant.n)
             if (i, j) not in present]
    return graphs.EdgeList.from_tuples(plant.n, pairs)


def _loop_from_tuples(n, edges):
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
        return graphs.EdgeList(n, np.empty((0, 2), dtype=np.intp), np.empty(0))
    return graphs.EdgeList(n, np.array(pairs, dtype=np.intp), np.array(weights))


def _assert_identical(a, b):
    assert a.n == b.n
    for u, v in ((a.pairs, b.pairs), (a.weights, b.weights)):
        assert u.dtype == v.dtype and u.shape == v.shape
        assert u.tobytes() == v.tobytes()


def _built_or_message(build, n, edges):
    try:
        return build(n, edges)
    except InvalidInputError as exc:
        return str(exc)


_node = st.integers(-1, 8)
_node_like = _node | _node.map(np.int64) | _node.map(float)
_weight = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-3, 3)
_edge_tuple = (st.tuples(_node_like, _node_like)
               | st.tuples(_node_like, _node_like, _weight)
               | st.tuples(_node, _node, _weight, st.just("ignored")))


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 9), st.lists(_edge_tuple, max_size=12))
def test_from_tuples_matches_per_edge_loop(n, edges):
    # mixed (i, j) and (i, j, w) tuples, either orientation, with self-loops,
    # duplicates, nodes out of range and non-finite weights: the same edge
    # list or the same first error
    got = _built_or_message(graphs.EdgeList.from_tuples, n, edges)
    ref = _built_or_message(_loop_from_tuples, n, edges)
    if isinstance(ref, str):
        assert got == ref
    else:
        _assert_identical(got, ref)


def test_from_tuples_needs_two_end_nodes():
    with pytest.raises(InvalidInputError, match="two end nodes"):
        graphs.EdgeList.from_tuples(3, [(0, 1), (2,)])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(0, 3), st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_pair_builders_match_pair_loops(n, seed, p):
    er = graphs.generate("erdos_renyi", n, p=p, seed=seed)
    _assert_identical(er, _loop_erdos_renyi(n, p, seed))
    _assert_identical(graphs.complement_candidates(er), _loop_complement(er))
    radius = 1.0 + 9.0 * p
    _assert_identical(graphs.random_geometric(n, radius, 10.0, seed),
                      _loop_random_geometric(n, radius, 10.0, seed))
    path = [(i, i + 1) for i in range(n - 1)]
    _assert_identical(graphs.generate("path", n), _loop_from_tuples(n, path))
    if n > 2:
        _assert_identical(graphs.generate("ring", n),
                          _loop_from_tuples(n, path + [(0, n - 1)]))


def test_edge_list_round_trip(tmp_path):
    e = graphs.generate("erdos_renyi", 15, p=0.3, seed=1)
    path = tmp_path / "g.edges"
    graphs.write_edge_list(e, path)
    back = graphs.read_edge_list(path)
    assert back.n == e.n
    assert np.array_equal(back.pairs, e.pairs)
    assert np.allclose(back.weights, e.weights)


def test_weighted_edge_list_round_trip_is_bit_exact(tmp_path):
    # weights are written as the repr of Python floats, which reads back to
    # the same bits; once any weight differs from 1, every line has its
    # weight, 1.0 included, so the text reads by np.loadtxt
    w = [0.1, 1 / 3, 2.5, -0.75, 1e-300, 1.0]
    e = graphs.EdgeList.from_tuples(8, [(k + 1, k, wk) for k, wk in enumerate(w)])
    text = graphs.format_edge_list(e)
    assert text == ("n 8\n0 1 0.1\n1 2 0.3333333333333333\n2 3 2.5\n"
                    "3 4 -0.75\n4 5 1e-300\n5 6 1.0\n")
    path = tmp_path / "w.edges"
    graphs.write_edge_list(e, path)
    _assert_identical(graphs.read_edge_list(path), e)


def test_edge_list_round_trip_isolated_nodes(tmp_path):
    e = graphs.EdgeList.from_tuples(6, [(0, 1)])
    path = tmp_path / "iso.edges"
    graphs.write_edge_list(e, path)
    back = graphs.read_edge_list(path)
    assert back.n == 6
    assert np.array_equal(back.pairs, e.pairs)


def test_parse_edge_list_comments_and_weights():
    text = "# header\nn 5\n0 1 2.5\n2 3  # trailing comment\n"
    e = graphs.parse_edge_list(text)
    assert e.n == 5
    assert [tuple(p) for p in e.pairs] == [(0, 1), (2, 3)]
    assert np.allclose(e.weights, [2.5, 1.0])


def test_parse_edge_list_malformed():
    with pytest.raises(InvalidInputError, match=r"^line 1: expected 'i j \[w\]'$"):
        graphs.parse_edge_list("0 1 2 3\n")
    with pytest.raises(InvalidInputError, match=r"^line 1: expected 'i j \[w\]'$"):
        graphs.parse_edge_list("0\n")
    # the first bad line is named, after lines the C reader would take
    with pytest.raises(InvalidInputError, match=r"^line 4: expected 'i j \[w\]'$"):
        graphs.parse_edge_list("# c\r\n0 1\r\n1 2\r\n2 3 0.5 7\r\n3 4\r\n")
    for text in ("n 5\n0 1\nn 6\n", "n 5\n\nn 6\n0 1\n"):
        with pytest.raises(InvalidInputError,
                           match=r"^line 3: invalid literal for int\(\) with base 10: 'n'$"):
            graphs.parse_edge_list(text)
    # node indices beyond the C long range
    for node in (2**70, -2**70):
        with pytest.raises(InvalidInputError, match="^node index out of range$"):
            graphs.parse_edge_list(f"0 1\n1 {node}\n")


@pytest.mark.parametrize("count", ["abc", "2.5", "-3", "", "3 4", str(2**70)])
def test_parse_edge_list_rejects_bad_node_counts(count):
    # the node count must be one non-negative integer
    for text in (f"n {count}\n", f"n {count}\n0 1\n"):
        with pytest.raises(InvalidInputError):
            graphs.parse_edge_list(text)


def test_edgeless_edge_list_round_trip():
    # an edgeless list is written with its node count, also for n = 0
    for n in (0, 1, 5):
        e = graphs.EdgeList(n, np.zeros((0, 2), dtype=np.intp), np.zeros(0))
        text = graphs.format_edge_list(e)
        assert text == f"n {n}\n"
        _assert_identical(graphs.parse_edge_list(text), e)


def test_uniform_lines_are_read_without_the_scan(monkeypatch):
    # lines of one token count, as the writer makes them also when only
    # some weights are 1, go to np.loadtxt, comments, blank lines, a
    # node-count line and CRLF ends included; the scan reads nothing
    def scan(text):
        raise AssertionError("per-line scan called")

    monkeypatch.setattr(graphs, "_scan_edge_list", scan)
    e = graphs.EdgeList.from_tuples(9, [(0, 1), (4, 2), (3, 5)])
    w = graphs.EdgeList.from_tuples(7, [(0, 1, 0.5), (1, 2, 1e-300), (5, 2, -0.0),
                                        (3, 4, 1.0)])
    for edges in (e, w):
        text = "# plant\n\n" + graphs.format_edge_list(edges).replace("\n", " # c\n", 2)
        for t in (text, text.replace("\n", "\r\n")):
            _assert_identical(graphs.parse_edge_list(t), edges)
    with pytest.raises(AssertionError, match="per-line scan"):
        graphs.parse_edge_list("0 1\n1 2 0.5\n")


_io_weight = (st.sampled_from([1.0, 1.0, 5e-324, 1e308, -0.0, 1 / 3, 2.0])
              | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _edge_lists(draw):
    """Edge lists over 0 to 40 nodes, unit or non-unit weights, often with
    trailing isolated nodes."""
    n = draw(st.integers(0, 40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)
                  if pairs else st.just([]))
    weight = draw(st.sampled_from([st.just(1.0), _io_weight]))
    weights = draw(st.lists(weight, min_size=len(chosen), max_size=len(chosen)))
    return graphs.EdgeList.from_tuples(n, [(i, j, w) for (i, j), w in zip(chosen, weights)])


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
def test_format_edge_list_matches_per_edge_formula(e):
    text = graphs.format_edge_list(e)
    assert text == format_edge_list_per_edge(e)
    _assert_identical(graphs.parse_edge_list(text), e)


_node_token = (st.integers(-1, 30).map(str)
               | st.sampled_from(["1.0", "x", "+3", "007", "-0", "1_0", "1e1", "",
                                  "99999999999999999999", "\u0663"]))
_weight_token = (st.floats().map(repr)
                 | st.sampled_from(["-0.0", "5e-324", "1e308", "1e500", "nan", "-inf",
                                    "Infinity", "1_0.5", "0x1p3", "abc", "1.5.2", ".5",
                                    "5.", "+1e-3", "1e", "2", "1.0"]))


@st.composite
def _edge_text(draw):
    """Edge-list texts: mostly lines of one token count, with comments,
    blank lines, node-count lines (also malformed or after an edge), lines
    of 1 to 4 tokens, bad node and weight tokens, LF or CRLF ends, and now
    and then a space or line end that only Python splits at."""
    width = draw(st.sampled_from([2, 3]))
    good = st.integers(0, 30).map(str)
    odd = ["\v", "\f", "\x1c", "\x1f", "\r", "\xa0", "\u2028", "\x00"]
    sep = st.sampled_from([" "] * 40 + ["\t", "  ", " \t "] + odd)
    lines = draw(st.lists(st.sampled_from(["n 31", "n 40", "n 3", "n x", "# c", ""]),
                          max_size=3))  # before the first edge
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 29))
        if kind < 22:  # an edge of the text's width
            tok = [draw(good), draw(good)] + [draw(_weight_token)] * (width == 3)
        elif kind == 22:  # an edge of the other width, or 1 or 4 tokens
            size = draw(st.sampled_from([1, 4, 5 - width]))
            tok = [draw(good) for _ in range(size)]
        elif kind == 23:  # a bad node token
            tok = [draw(_node_token), draw(_node_token)] + [draw(good)] * (width == 3)
        elif kind == 24:
            tok = ["n", draw(st.integers(0, 40).map(str))]
        elif kind == 25:
            tok = ["n"] + draw(st.sampled_from([[], ["x"], ["3", "4"], ["2.5"], ["-3"]]))
        else:
            tok = []
        line = draw(sep).join(t for t in tok if t)
        if draw(st.integers(0, 4)) == 0:
            line += draw(st.sampled_from(["#", " # note", "\t#x 1 2"]))
        lines.append(draw(st.sampled_from(["", " "])) + line)
    end = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    ends = [draw(st.sampled_from(["\n", "\r\n"] * 20 + odd)) if end == "mixed" else end
            for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + e for line, e in zip(lines, ends))


def _parsed_or_error(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=500, deadline=None)
@given(_edge_text())
def test_parse_edge_list_matches_per_line_scan(text):
    # the same edge list, or the same first error with its line number
    got = _parsed_or_error(graphs.parse_edge_list, text)
    ref = _parsed_or_error(scan_edge_list, text)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        _assert_identical(got, ref)


def test_edge_list_rejects_negative_node_count():
    with pytest.raises(InvalidInputError):
        graphs.EdgeList(-1, np.zeros((0, 2), dtype=int), np.zeros(0))
    with pytest.raises(InvalidInputError):
        graphs.EdgeList.from_tuples(-3, [])


def test_path_gen_file_has_nine_lines(tmp_path):
    # a path on 10 nodes serializes as exactly its 9 edges, no header needed
    path = tmp_path / "p.edges"
    graphs.write_edge_list(graphs.generate("path", 10), path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 9


def test_random_geometric_deterministic():
    a = graphs.random_geometric(20, 3.0, seed=5)
    b = graphs.random_geometric(20, 3.0, seed=5)
    assert np.array_equal(a.pairs, b.pairs)


def test_prng_identifier():
    assert graphs.PRNG_ID == "numpy-pcg64"


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10))
def test_er_laplacian_psd_and_zero_row_sum(n, seed):
    e = graphs.generate("erdos_renyi", n, p=0.5, seed=seed)
    L = e.laplacian()
    assert np.allclose(L @ np.ones(n), 0.0)
    lam = np.linalg.eigvalsh(L)
    assert lam.min() >= -1e-10
