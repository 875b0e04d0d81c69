"""Objective value, derivatives and the independent Lyapunov evaluation."""

import collections

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsp import duality, graphs, objective, pipeline, proxgrad, proxnewton
from gsp.errors import InfeasiblePointError, InvalidInputError
from gsp.objective import HESSIAN_SCALE, Objective
from reference import (
    dense_hessian,
    effective_weight,
    incidence_dense,
    lyapunov_h2_oracle,
    spd_weight,
)


def p3_problem(gamma=0.0):
    plant = graphs.generate("path", 3)
    cand = graphs.EdgeList.from_tuples(3, [(0, 2)])
    return graphs.default_problem(plant, candidates=cand, gamma=gamma,
                                  resistive=True)


def two_node_problem(gamma=0.0):
    return graphs.default_problem(graphs.EdgeList.from_tuples(2, []),
                                  gamma=gamma)


def seeded_problem(n=20, seed=0, p=0.3):
    plant = graphs.generate("erdos_renyi", n, p=p, seed=seed)
    return graphs.default_problem(plant)


def feasible_point(problem, seed=0, lo=0.2, hi=0.8):
    rng = np.random.Generator(np.random.PCG64(seed))
    return lo + (hi - lo) * rng.random(problem.m)


def test_qp_matrix_p3_spectrum():
    # path-3 plant with identity weights: eigenvalues of the effective
    # state weight Q_p = C C^T are {1, 2, 10}, here of C C^T built from the
    # problem's factor C^T, which also matches the reference Q_p
    prob = p3_problem()
    Qp = prob.qp.T @ prob.qp
    lam = np.sort(np.linalg.eigvalsh(Qp))
    assert np.allclose(lam, [1.0, 2.0, 10.0], atol=1e-10)
    assert np.allclose(Qp, effective_weight(prob), atol=1e-10)


def test_qp_is_factored_once_per_problem(monkeypatch):
    # Q_p depends on the plant, Q and R only: the constructor forms and
    # factors it, every problem that restrict and with_gamma derive, in
    # either order, shares the factor, and no objective, sweep or
    # reweighted path forms it again
    plant = graphs.generate("erdos_renyi", 12, p=0.4, seed=9)
    base = graphs.default_problem(plant, resistive=True)
    assert base.qp.flags.f_contiguous and not base.qp.flags.writeable
    low = base.with_gamma(0.1)
    derived = [base.restrict([0, 2, 5]).with_gamma(0.0), low,
               low.restrict([1, 3]), low.restrict([4]).restrict([0])]
    assert all(prob.qp is base.qp for prob in derived)

    calls = []

    def counted(L, _strengthen=graphs.strengthened):
        calls.append(L.shape)
        return _strengthen(L)

    # closed loops never call strengthened; forming Q_p does
    monkeypatch.setattr(graphs, "strengthened", counted)
    for prob in (base, *derived):
        Objective(prob).state(np.ones(prob.m))
    gmax = pipeline.gamma_max(base)
    pipeline.sweep(base, [0.2 * gmax, 0.6 * gmax], proxgrad.ProxGradOptions())
    pipeline.reweighted_path(base, [0.2 * gmax, 0.6 * gmax])
    assert calls == []

    # a problem built again gets a factor of its own, with the same bits
    again = graphs.Problem(base.plant, base.candidates, base.Q, base.R,
                           resistive=True)
    assert calls == [(12, 12)]
    assert again.qp is not base.qp
    assert again.qp.tobytes() == base.qp.tobytes()


def test_non_finite_effective_weight_is_invalid_input():
    # at r_scale = 1e307 L_p R L_p overflows: dpotrf factors the infinite
    # Q_p with info = 0 into a non-finite factor, which the constructor
    # rejects as it rejects a failed factorization
    plant = graphs.generate("erdos_renyi", 12, p=0.4, seed=9)
    with pytest.raises(InvalidInputError, match="effective state weight"):
        graphs.default_problem(plant, resistive=True, r_scale=1e307)
    with pytest.raises(InvalidInputError, match="effective state weight"):
        graphs.default_problem(plant, resistive=True, r_scale=1e200)


def test_value_two_node_analytic():
    # single edge with weight x on an otherwise empty 2-node plant:
    # J(x) = 1/(2x) + 2x, hence J(1/2) = 2
    prob = two_node_problem()
    obj = Objective(prob)
    for x in (0.25, 0.5, 1.0, 2.0):
        assert obj.value(np.array([x])) == pytest.approx(1 / (2 * x) + 2 * x,
                                                         abs=1e-12)
    assert obj.value(np.array([0.5])) == pytest.approx(2.0, abs=1e-12)


def test_value_p3_analytic():
    # closing the triangle with weight x: J(x) = 2/(1 + 2x) + 2x - 2/3
    prob = p3_problem()
    obj = Objective(prob)
    for x in (0.0, 0.3, 1.0):
        expected = 2.0 / (1.0 + 2.0 * x) + 2.0 * x - 2.0 / 3.0
        assert obj.value(np.array([x])) == pytest.approx(expected, abs=1e-12)


def test_value_raises_on_infeasible_point():
    prob = two_node_problem()
    with pytest.raises(InfeasiblePointError):
        Objective(prob).value(np.array([-1.0]))


def test_closed_loop_that_is_not_positive_definite_is_infeasible():
    # x = -10 on every candidate of the signed 4-node path: the closed loop
    # has no factor, and the trial value and both of its solves say so as
    # the state does, with InfeasiblePointError
    prob = graphs.default_problem(graphs.generate("path", 4))
    obj = Objective(prob)
    x = np.full(prob.m, -10.0)
    cl = obj.closed_loop(x)
    assert not cl.positive_definite
    for call in (lambda: obj.state(x, cl), lambda: obj.value_at(cl, x),
                 lambda: cl.solve(np.eye(4)), lambda: cl.tri_solve(np.eye(4))):
        with pytest.raises(InfeasiblePointError, match="not positive definite"):
            call()


def test_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(10):
        prob = seeded_problem(seed=seed)
        obj = Objective(prob)
        x = feasible_point(prob, seed=100 + seed)
        g = obj.state(x).grad
        rng = np.random.Generator(np.random.PCG64(200 + seed))
        h = 1e-5
        for i in rng.choice(prob.m, size=6, replace=False):
            e = np.zeros(prob.m)
            e[i] = h
            fd = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
            worst = max(worst, abs(fd - g[i]) / max(1.0, abs(fd)))
    assert worst < 1e-6


def test_hessian_columns_match_finite_differences():
    worst = 0.0
    for seed in range(5):
        prob = seeded_problem(seed=seed)
        obj = Objective(prob)
        x = feasible_point(prob, seed=300 + seed)
        H = dense_hessian(obj, x)
        rng = np.random.Generator(np.random.PCG64(400 + seed))
        h = 1e-5
        for i in rng.choice(prob.m, size=4, replace=False):
            e = np.zeros(prob.m)
            e[i] = h
            fd = (obj.state(x + e).grad - obj.state(x - e).grad) / (2 * h)
            col = H[:, i]
            worst = max(worst, np.max(np.abs(col - fd)) / max(1.0, np.max(np.abs(fd))))
    assert worst < 1e-4


def test_hessian_scale_pinned_by_two_node_instance():
    # d2J/dx2 = 1/x^3 on the single-edge instance; the elementwise product
    # of edge quadratic forms gives 1/(2 x^3), fixing the scale at 2
    prob = two_node_problem()
    obj = Objective(prob)
    for x in (0.3, 0.5, 1.2):
        xv = np.array([x])
        H = dense_hessian(obj, xv)
        assert np.diag(H)[0] == pytest.approx(1.0 / x**3, rel=1e-10)
        st = obj.state(xv)
        Ginv = st.cl.solve(np.eye(2))
        raw = objective.edge_quad_diag(st.Y, obj.positions) * objective.edge_quad_diag(
            Ginv, obj.positions
        )
        assert HESSIAN_SCALE * raw[0] == pytest.approx(1.0 / x**3, rel=1e-10)
    assert HESSIAN_SCALE == 2.0


def test_hessian_product_matches_dense_block():
    # the matrix-free product over any row and column subsets is the dense
    # Hessian block times the vector
    prob = seeded_problem(n=12, seed=2)
    obj = Objective(prob)
    x = feasible_point(prob, seed=11)
    H = dense_hessian(obj, x)
    model = obj.newton_model(obj.state(x))
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(5):
        rows = rng.choice(prob.m, size=int(rng.integers(1, prob.m)), replace=False)
        cols = rng.choice(prob.m, size=int(rng.integers(0, prob.m)), replace=False)
        v = rng.standard_normal(cols.size)
        hv = model.product(cols, v, rows)
        ref = H[np.ix_(rows, cols)] @ v
        assert np.max(np.abs(hv - ref)) <= 1e-12 * max(1.0, np.max(np.abs(H)))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 20), st.integers(0, 50), st.sampled_from([0.1, 0.3, 0.6]),
       st.booleans(), st.booleans())
def test_edge_quad_diag_equals_pair_indexing(n, seed, p, fortran, subset):
    # the flat gather keeps (A_ii - 2 A_ij) + A_jj, so it is byte-equal to
    # indexing A by the end-node pairs, for any memory order of A, on all
    # candidates or a column subset of the positions; A is not symmetric,
    # so a transposed read would show
    plant = graphs.generate("erdos_renyi", n, p=p, seed=seed)
    inc = graphs.complement_candidates(plant).incidence
    rng = np.random.Generator(np.random.PCG64(seed))
    A = rng.standard_normal((n, n))
    A[rng.random((n, n)) < 0.2] = 0.0
    A[rng.random((n, n)) < 0.1] = -0.0
    if fortran:
        A = np.asfortranarray(A)
    cols = (rng.permutation(inc.m)[:inc.m // 2] if subset
            else np.arange(inc.m))
    i, j = inc.pairs[cols, 0], inc.pairs[cols, 1]
    ref = A[i, i] - 2.0 * A[i, j] + A[j, j]
    got = objective.edge_quad_diag(A, inc.positions[:, cols])
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_edge_quad_forms_match_dense():
    prob = seeded_problem(n=10, seed=4)
    E = incidence_dense(prob.candidates)
    rng = np.random.Generator(np.random.PCG64(9))
    A = rng.random((10, 10))
    A = A + A.T
    assert np.allclose(objective.edge_quad_diag(A, prob.candidates.positions),
                       np.diag(E.T @ A @ E), atol=1e-12)
    # one Hessian row: 2 (E^T A E)[:, l] * (E^T B E)[:, l]
    B = rng.random((10, 10))
    B = B + B.T
    l = 3
    ref = 2.0 * (E.T @ A @ E[:, l]) * (E.T @ B @ E[:, l])
    model = objective.NewtonModel(A, B, prob.candidates)
    assert np.allclose(model.rows(l, np.arange(prob.m)), ref, atol=1e-12)


def test_lyapunov_oracle_equals_half_objective():
    rng = np.random.Generator(np.random.PCG64(42))
    count = 0
    for n in (5, 10, 30):
        plant = graphs.generate("erdos_renyi", n, p=0.4, seed=n)
        prob = graphs.default_problem(plant)
        obj = Objective(prob)
        for _ in range(7):
            x = 0.1 + rng.random(prob.m)
            J = obj.value(x)
            h2 = lyapunov_h2_oracle(prob, x)
            assert abs(h2 - J / 2.0) <= 1e-8 * max(1.0, abs(J))
            count += 1
    assert count >= 20


def test_convexity_along_segments():
    prob = seeded_problem(n=8, seed=6)
    obj = Objective(prob)
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(10):
        a = 0.2 + rng.random(prob.m)
        b = 0.2 + rng.random(prob.m)
        mid = obj.value(0.5 * (a + b))
        assert mid <= 0.5 * obj.value(a) + 0.5 * obj.value(b) + 1e-10


# -- evaluation from the two Cholesky factors ---------------------------------


def er_problem(n, seed, resistive, scalar_r):
    """Seeded ER plant with complement candidates, or None if the plant is
    disconnected or complete; ``R`` is ``I`` or a seeded non-scalar positive
    definite matrix."""
    plant = graphs.generate("erdos_renyi", n, p=0.5, seed=seed)
    if graphs.component_count(plant) != 1 or 2 * plant.m == n * (n - 1):
        return None
    prob = graphs.default_problem(plant, resistive=resistive)
    if scalar_r:
        return prob
    R = spd_weight(np.random.Generator(np.random.PCG64(seed)), n)
    return graphs.Problem(prob.plant, prob.candidates, prob.Q, R, 0.0, resistive)


def er_point(problem, seed):
    """Seeded point with exact zeros; signed points have negative entries."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(0.0 if problem.resistive else -0.1, 1.0, problem.m)
    x[rng.random(problem.m) < 0.3] = 0.0
    return x


def rel_err(a, ref):
    return float(np.max(np.abs(np.asarray(a) - ref)) / np.max(np.abs(ref)))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 18), st.integers(0, 40), st.booleans(), st.booleans())
def test_state_matches_two_cho_solve_formulas(n, seed, resistive, scalar_r):
    # the factor formulas against Z = G^-1 Q_p, h2 = trace(Z) and
    # Y = sym(G^-1 Z^T), each solved with the full Cholesky factor of G
    prob = er_problem(n, seed, resistive, scalar_r)
    assume(prob is not None)
    obj = Objective(prob)
    x = er_point(prob, seed + 1)
    cl = obj.closed_loop(x)
    assume(cl.positive_definite)
    Z = scipy.linalg.cho_solve((cl.chol, True), effective_weight(prob))
    h2 = float(np.trace(Z))
    Y = scipy.linalg.cho_solve((cl.chol, True), Z.T)
    Y = 0.5 * (Y + Y.T)
    J = h2 + float(obj.lin @ x) + obj.const
    grad = obj.lin - objective.edge_quad_diag(Y, obj.positions)

    value = obj.value_at(cl, x)
    state = obj.state(x, cl)
    assert rel_err(state.h2, h2) <= 1e-12
    assert rel_err(state.J, J) <= 1e-12
    assert value == state.J
    assert rel_err(state.grad, grad) <= 1e-12
    assert rel_err(state.Y, Y) <= 1e-12
    assert np.array_equal(state.Y, state.Y.T)


#: Largest difference between a read of the Newton model and the dense
#: Hessian, relative to the size of the terms it is rounded from.
MODEL_BOUND = 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 20), st.integers(0, 40), st.booleans(), st.booleans())
def test_newton_model_matches_dense_hessian(n, seed, resistive, scalar_r):
    # every read of the model at a random feasible point, on random candidate
    # subsets, against H = 2 (E^T Y E) o (E^T G^-1 E) from the dense
    # incidence matrix.  Each entry is rounded from terms of the size of
    # 2 (|E|^T |Y| |E|) o (|E|^T |G^-1| |E|), which scales the bound.  The
    # block over distinct edges is positive definite (H is the Gram matrix
    # of Y^1/2 xi xi^T G^-1/2, and distinct edge Laplacians xi xi^T are
    # linearly independent), and its solve is checked by its residual, which
    # a Cholesky solve keeps within rounding of sqrt(H_kk H_ll) |d_l| too
    prob = er_problem(n, seed, resistive, scalar_r)
    assume(prob is not None)
    obj = Objective(prob)
    cl = obj.closed_loop(er_point(prob, seed + 1))
    assume(cl.positive_definite)
    model = obj.newton_model(obj.state(er_point(prob, seed + 1), cl))
    E = incidence_dense(prob.candidates)
    H = 2.0 * (E.T @ model.Y @ E) * (E.T @ model.Ginv @ E)
    A = np.abs(E)
    size = 2.0 * (A.T @ np.abs(model.Y) @ A) * (A.T @ np.abs(model.Ginv) @ A)
    rng = np.random.Generator(np.random.PCG64(seed))
    rows, cols = (rng.permutation(prob.m)[:rng.integers(1, prob.m + 1)]
                  for _ in range(2))
    block, block_size = H[np.ix_(rows, cols)], size[np.ix_(rows, cols)]

    def close(got, ref, scale):
        return np.all(np.abs(got - ref) <= MODEL_BOUND * scale)

    assert close(model.diag(cols), np.diag(H)[cols], np.diag(size)[cols])
    assert close(model.rows(rows, cols), block, block_size)
    upper = np.triu_indices(cols.size)
    cc, cc_size = H[np.ix_(cols, cols)], size[np.ix_(cols, cols)]
    assert close(model.upper(cols)[upper], cc[upper], cc_size[upper])
    v = rng.standard_normal(cols.size)
    assert close(model.product(cols, v, rows), block @ v, block_size @ np.abs(v))
    rhs = rng.standard_normal(cols.size)
    d = model.solve(cols, rhs)
    s = np.sqrt(np.diag(cc))
    assert close(cc @ d, rhs, (cc_size + np.outer(s, s)) @ np.abs(d) + np.abs(rhs))


def counting_solves(monkeypatch):
    """Count the full and the triangular closed-loop solves."""
    calls = collections.Counter()
    for name in ("solve", "tri_solve"):
        def counting(cl, *args, _method=getattr(graphs.ClosedLoop, name),
                     _name=name, **kwargs):
            calls[_name] += 1
            return _method(cl, *args, **kwargs)

        monkeypatch.setattr(graphs.ClosedLoop, name, counting)
    return calls


@pytest.mark.parametrize("resistive", [False, True])
def test_state_after_value_at_reuses_the_half_solve(monkeypatch, resistive):
    # state(x, cl) after value_at(cl, x) makes only the second triangular
    # solve and equals a fresh state byte for byte
    prob = er_problem(15, 3, resistive, scalar_r=True)
    x = feasible_point(prob, seed=5)
    fresh = Objective(prob).state(x)
    calls = counting_solves(monkeypatch)
    obj = Objective(prob)
    cl = obj.closed_loop(x)
    obj.value_at(cl, x)
    assert calls == {"tri_solve": 1}
    calls.clear()
    reused = obj.state(x, cl)
    assert calls == {"tri_solve": 1}
    # another closed loop replaces the remembered one
    obj.value_at(obj.closed_loop(feasible_point(prob, seed=6)), x)
    calls.clear()
    recomputed = obj.state(x, cl)
    assert calls == {"tri_solve": 2}
    for got in (reused, recomputed):
        assert got.Y.tobytes() == fresh.Y.tobytes()
        assert got.grad.tobytes() == fresh.grad.tobytes()
        assert (got.h2, got.J) == (fresh.h2, fresh.J)


@pytest.mark.parametrize("resistive", [False, True])
@pytest.mark.parametrize("scalar_r", [False, True])
def test_objective_needs_no_eigendecomposition(monkeypatch, resistive, scalar_r):
    # neither the objective nor a certificate nor a full solve with either
    # solver family takes an eigendecomposition, and both solves end on a
    # certificate, for R = I and for a non-scalar R
    prob = er_problem(12, 3, resistive, scalar_r)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigendecomposition called")

    for module in (scipy.linalg, np.linalg):
        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(module, name, forbidden)
    obj = Objective(prob)
    assert np.allclose(prob.qp.T @ prob.qp, effective_weight(prob), atol=1e-12)
    st = obj.state(feasible_point(prob, seed=2))
    duality.certify_or_none(obj, st)
    prob = prob.with_gamma(0.5 * pipeline.gamma_max(prob))
    first_order = proxgrad.solve_projected if resistive else proxgrad.solve_ista
    for solve in (proxnewton.solve_newton, first_order):
        _, rep = solve(prob)
        assert rep.status == "converged"
        assert rep.certificate is not None
