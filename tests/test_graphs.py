"""Graph containers, generators and the edge-list file format."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsp import graphs
from gsp.errors import InvalidInputError
from gsp.pipeline import ZERO_TOL, gamma_max, polish
from gsp.proxgrad import solve_projected
from gsp.proxnewton import solve_newton


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


def test_laplacian_path3():
    e = graphs.generate("path", 3)
    L = e.laplacian()
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.allclose(L, expected)
    assert np.allclose(L @ np.ones(3), 0.0)


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


def test_incidence_dense_matches_pairs():
    e = graphs.generate("ring", 4)
    inc = graphs.incidence_from_edges(e)
    E = inc.dense()
    x = np.array([1.0, 2.0, 3.0, 4.0])
    L = E @ np.diag(x) @ E.T
    assert np.allclose(L, graphs.controller_laplacian(inc, x))
    assert np.allclose(L @ np.ones(4), 0.0)


def test_closed_loop_solve_matches_inverse():
    plant = graphs.PlantGraph.from_edges(graphs.generate("path", 5))
    inc = graphs.incidence_from_edges(graphs.complement_candidates(plant.edges))
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
    assert (0, 9) in r.edge_set()


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
    assert not (plant.edge_set() & comp.edge_set())


def test_default_problem_weights():
    prob = graphs.default_problem(graphs.generate("path", 4), q_scale=2.0,
                                  r_scale=3.0)
    n = 4
    assert np.allclose(prob.Q, 2.0 * (np.eye(n) - np.full((n, n), 1.0 / n)))
    assert np.allclose(prob.R, 3.0 * np.eye(n))
    assert prob.scalar_r == 3.0


def test_problem_validation():
    plant = graphs.generate("path", 3)
    with pytest.raises(InvalidInputError):
        # Q must annihilate the all-ones vector
        graphs.Problem(
            graphs.PlantGraph.from_edges(plant),
            graphs.incidence_from_edges(graphs.complement_candidates(plant)),
            np.eye(3), np.eye(3),
        )
    for gamma in (-1.0, float("nan")):
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


def test_restrict_problem():
    plant = graphs.generate("path", 5)
    prob = graphs.default_problem(plant)
    sub = prob.restrict([0, 2])
    assert sub.m == 2
    assert np.array_equal(sub.candidates.pairs, prob.candidates.pairs[[0, 2]])


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
])
def test_incidence_rejects_bad_columns(pairs):
    with pytest.raises(InvalidInputError):
        graphs.IncidenceMatrix(3, np.array(pairs))


@pytest.mark.parametrize("x", [[1.0, np.nan, 1.0, 1.0], [1.0, 2.0, 3.0]])
def test_controller_laplacian_rejects_bad_weights(x):
    inc = graphs.incidence_from_edges(graphs.generate("ring", 4))
    with pytest.raises(InvalidInputError):
        graphs.controller_laplacian(inc, x)


def test_problem_data_is_read_only():
    prob = graphs.default_problem(graphs.generate("path", 4))
    for a in (prob.Q, prob.R, prob.candidates.pairs, prob.plant.edges.pairs):
        with pytest.raises(ValueError):
            a[0, 0] = 5


def test_derived_problems_are_not_rechecked(monkeypatch):
    # checked once at construction; solvers and polish trust the problem, and
    # only the restricted incidence structure built by polish is checked
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
    assert calls == {"IncidenceMatrix": 1}


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
    present = plant.edge_set()
    pairs = [(i, j) for i in range(plant.n) for j in range(i + 1, plant.n)
             if (i, j) not in present]
    return graphs.EdgeList.from_tuples(plant.n, pairs)


def _assert_identical(a, b):
    assert a.n == b.n
    for u, v in ((a.pairs, b.pairs), (a.weights, b.weights)):
        assert u.dtype == v.dtype and u.shape == v.shape
        assert u.tobytes() == v.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(0, 3), st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_pair_builders_match_pair_loops(n, seed, p):
    er = graphs.generate("erdos_renyi", n, p=p, seed=seed)
    _assert_identical(er, _loop_erdos_renyi(n, p, seed))
    _assert_identical(graphs.complement_candidates(er), _loop_complement(er))
    radius = 1.0 + 9.0 * p
    _assert_identical(graphs.random_geometric(n, radius, 10.0, seed),
                      _loop_random_geometric(n, radius, 10.0, seed))


def test_edge_list_round_trip(tmp_path):
    e = graphs.generate("erdos_renyi", 15, p=0.3, seed=1)
    path = tmp_path / "g.edges"
    graphs.write_edge_list(e, path)
    back = graphs.read_edge_list(path)
    assert back.n == e.n
    assert np.array_equal(back.pairs, e.pairs)
    assert np.allclose(back.weights, e.weights)


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
    with pytest.raises(InvalidInputError):
        graphs.parse_edge_list("0 1 2 3\n")
    with pytest.raises(InvalidInputError):
        graphs.parse_edge_list("0\n")


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
