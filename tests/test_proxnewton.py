"""Second-order solver: active sets, coordinate descent and line search."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import daxpy

from gsp import graphs, proxnewton
from gsp.errors import InfeasiblePointError, InvalidInputError
from gsp.objective import HESSIAN_SCALE, Objective, edge_quad_diag
from gsp.proxgrad import soft_threshold
from gsp.proxnewton import NewtonOptions, active_set, cd_direction, line_search


def p3_problem(gamma=0.0):
    plant = graphs.generate("path", 3)
    cand = graphs.EdgeList.from_tuples(3, [(0, 2)])
    return graphs.default_problem(plant, candidates=cand, gamma=gamma,
                                  resistive=True)


def two_node_problem(gamma=0.0):
    return graphs.default_problem(graphs.EdgeList.from_tuples(2, []),
                                  gamma=gamma)


TIGHT = NewtonOptions(tol_gap=1e-12, tol_rd=1e-6)
# the certificate bias floor on larger instances sits near 1e-10
TIGHT_ER = NewtonOptions(tol_gap=1e-9, tol_rd=1e-6)


def test_options_validation():
    with pytest.raises(InvalidInputError):
        NewtonOptions(sigma=0.7)
    with pytest.raises(InvalidInputError):
        NewtonOptions(backtrack_shrink=1.5)


def test_active_set_signed_rule():
    gamma = np.full(4, 1.0)
    eps = 1e-4 * gamma
    x = np.array([0.5, 0.0, 0.0, 0.0])
    grad = np.array([0.2, 0.5, 0.99999, -1.2])
    act = active_set(x, grad, gamma, eps, resistive=False)
    # nonzero coordinates always active; zeros active when |grad| >= gamma-eps
    assert list(act) == [0, 2, 3]


def test_active_set_resistive_rule():
    gamma = np.full(3, 1.0)
    eps = 1e-4 * gamma
    x = np.array([0.0, 0.0, 0.4])
    grad = np.array([0.3, -0.3, 5.0])
    act = active_set(x, grad, gamma, eps, resistive=True)
    # zeros stay inactive when the penalized gradient pushes outward
    assert list(act) == [1, 2]


def test_cd_direction_two_node_hand_value():
    # at x = 1, gamma = 0: grad = 3/2, hessian = 1, direction = -3/2
    prob = two_node_problem()
    obj = Objective(prob)
    st = obj.state(np.array([1.0]))
    Ginv = st.cl.solve(np.eye(2))
    gam = np.zeros(1)
    xt = cd_direction(obj.pairs, st.Y, Ginv, st.grad, st.x, gam,
                      np.array([0]), NewtonOptions(), resistive=False)
    assert xt[0] == pytest.approx(-1.5, abs=1e-10)


def test_cd_direction_matches_dense_reference():
    # cyclic coordinate descent with the running Hessian-product accumulator
    # must match an independent implementation using the dense Hessian
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 12, p=0.4, seed=4), gamma=0.3
    )
    obj = Objective(prob)
    rng = np.random.Generator(np.random.PCG64(1))
    x = 0.2 + 0.5 * rng.random(prob.m)
    st = obj.state(x)
    Ginv = st.cl.solve(np.eye(prob.n))
    Ginv = 0.5 * (Ginv + Ginv.T)
    gam = np.full(prob.m, prob.gamma)
    opts = NewtonOptions(cd_sweeps_max=30, cd_tol=1e-14)
    act = active_set(x, st.grad, gam, 1e-4 * gam, resistive=False)
    xt = cd_direction(obj.pairs, st.Y, Ginv, st.grad, x, gam, act,
                      opts, resistive=False)

    H = obj.hessian(x)
    # independent dense coordinate descent
    ref = np.zeros(prob.m)
    for _ in range(30):
        for i in act:
            a = H[i, i]
            b = float(H[i] @ ref) + st.grad[i]
            c = x[i] + ref[i]
            ref[i] += -c + soft_threshold(c - b / a, gam[i] / a)
    assert np.allclose(xt, ref, atol=1e-8)


def default_cd_tol(grad):
    """The stopping tolerance ``cd_direction`` uses when ``cd_tol`` is None."""
    return 1e-8 * max(1.0, float(np.max(np.abs(grad), initial=0.0)))


def axpy_update(hv, delta, colY, colG):
    """The kernel's arithmetic: Hessian row first, then one BLAS axpy."""
    return daxpy((HESSIAN_SCALE * colY) * colG, hv, a=delta)


def ufunc_update(hv, delta, colY, colG):
    """Three numpy ufuncs on the factor rows: an independent rounding order."""
    hv += ((delta * HESSIAN_SCALE) * colY) * colG
    return hv


def per_update_cd(pairs, Y, Ginv, grad, x_bar, gamma_vec, active, opts,
                  resistive, update):
    """Coordinate descent that rebuilds both incidence columns from ``Y`` and
    ``Ginv`` on every nonzero update, soft-thresholds numpy scalars and adds
    the Hessian row to the running product through ``update``: the kernel
    without its row cache, kept as the reference."""
    xt = np.zeros(x_bar.shape[0])
    act = np.asarray(active, dtype=np.intp)
    ai, aj = pairs[act, 0], pairs[act, 1]
    sub = pairs[act]
    a = HESSIAN_SCALE * edge_quad_diag(Y, sub) * edge_quad_diag(Ginv, sub)
    usable = a > 0.0
    cd_tol = opts.cd_tol
    if cd_tol is None:
        cd_tol = default_cd_tol(grad)
    hv = np.zeros(act.size)
    for _ in range(opts.cd_sweeps_max):
        max_step = 0.0
        for t in range(act.size):
            if not usable[t]:
                continue
            i = act[t]
            at = a[t]
            b = hv[t] + grad[i]
            c = x_bar[i] + xt[i]
            if resistive:
                z = c - b / at
                delta = -b / at if z >= 0.0 else -c
            else:
                delta = -c + soft_threshold(c - b / at, gamma_vec[i] / at)
            if delta != 0.0:
                xt[i] += delta
                uY = Y[:, pairs[i, 0]] - Y[:, pairs[i, 1]]
                uG = Ginv[:, pairs[i, 0]] - Ginv[:, pairs[i, 1]]
                hv = update(hv, float(delta), uY[ai] - uY[aj], uG[ai] - uG[aj])
                max_step = max(max_step, abs(delta))
        if max_step <= cd_tol:
            break
    return xt


def random_cd_case(n, seed, frac, resistive):
    """Weighted penalties at a random point with some zero weights, both as
    solve_newton builds them; returns the ``cd_direction`` arguments, or
    None for a disconnected resistive plant, an infeasible point or an
    active set of at most three coordinates."""
    plant = graphs.generate("erdos_renyi", n, p=0.4, seed=seed)
    if resistive and not graphs.PlantGraph.from_edges(plant).connected:
        return None
    prob = graphs.default_problem(plant, resistive=resistive)
    obj = Objective(prob)
    rng = np.random.Generator(np.random.PCG64(seed))
    x = (0.05 + rng.random(prob.m)) * (rng.random(prob.m) < 0.6)
    try:
        state = obj.state(x)
    except InfeasiblePointError:
        return None
    Ginv = obj.closed_loop_inverse(state)
    gam = frac * float(np.max(np.abs(state.grad))) * (0.5 + rng.random(prob.m))
    grad = state.grad + gam if resistive else state.grad
    act = active_set(x, grad, gam, 1e-4 * gam, resistive)
    if act.size <= 3:
        return None
    return (obj.pairs, state.Y, Ginv, grad, x, gam, act, NewtonOptions(),
            resistive)


def capped_cd(args, cache):
    """``cd_direction(*args)``; "partial" caps the row cache at three rows so
    most coordinates take the uncached path."""
    with pytest.MonkeyPatch.context() as mp:
        if cache == "partial":
            mp.setattr(proxnewton, "CD_CACHE_ELEMS", 3 * args[6].size)
        return cd_direction(*args)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(5, 14), seed=st.integers(0, 50),
       frac=st.sampled_from([0.0, 0.02, 0.1, 0.4, 0.9]),
       resistive=st.booleans())
@pytest.mark.parametrize("cache", ["full", "partial"])
def test_cd_direction_matches_per_update_loop(cache, n, seed, frac, resistive):
    # byte-equal to the uncached loop with the same arithmetic, so the cache
    # slots are pinned bit for bit; within rounding of the three-ufunc update
    args = random_cd_case(n, seed, frac, resistive)
    assume(args is not None)
    xt = capped_cd(args, cache)
    ref = per_update_cd(*args, update=axpy_update)
    assert xt.tobytes() == ref.tobytes()
    ufunc_ref = per_update_cd(*args, update=ufunc_update)
    assert np.max(np.abs(xt - ufunc_ref)) <= 1e-3 * default_cd_tol(args[3])


@pytest.mark.parametrize("cache", ["full", "partial"])
@pytest.mark.parametrize("resistive", [False, True])
def test_cd_direction_leaves_inputs_unchanged(cache, resistive):
    # the running product is updated in place; no input may share its memory
    args = random_cd_case(12, 3, 0.1, resistive)
    assert args is not None
    before = [np.copy(v) for v in args[:7]]
    xt = capped_cd(args, cache)
    assert np.any(xt)
    for v, b in zip(args[:7], before):
        assert v.tobytes() == b.tobytes()


def test_cd_direction_resistive_respects_cone():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 10, p=0.4, seed=8),
        gamma=0.2, resistive=True,
    )
    obj = Objective(prob)
    x = np.zeros(prob.m)
    x[::3] = 0.3
    st = obj.state(x)
    Ginv = st.cl.solve(np.eye(prob.n))
    gam = np.full(prob.m, prob.gamma)
    grad_f = st.grad + gam
    act = active_set(x, grad_f, gam, 1e-4 * gam, resistive=True)
    xt = cd_direction(obj.pairs, st.Y, Ginv, grad_f, x, gam, act,
                      NewtonOptions(), resistive=True)
    assert np.min(x + xt) >= -1e-12


def test_line_search_hand_trace():
    # from x = 1 along direction -3/2 (gamma = 0): alpha = 1 is infeasible,
    # alpha = 1/2 fails the Armijo test, alpha = 1/4 lands at x = 5/8 with
    # J = 2.05 and is accepted
    prob = two_node_problem()
    obj = Objective(prob)
    st = obj.state(np.array([1.0]))
    xt = np.array([-1.5])
    opts = NewtonOptions(sigma=0.01, backtrack_shrink=0.5)
    alpha, x_new, cl = line_search(obj, np.zeros(1), st, xt, opts,
                                   resistive=False)
    assert alpha == pytest.approx(0.25)
    assert x_new[0] == pytest.approx(0.625)
    assert obj.value(x_new) == pytest.approx(2.05, abs=1e-12)


def test_newton_two_node_analytic():
    for g in (0.0, 1.0, 4.0):
        x, rep = proxnewton.solve_newton(two_node_problem(g), opts=TIGHT)
        assert rep.status == "converged"
        assert x[0] == pytest.approx(1 / np.sqrt(2 * (2 + g)), abs=1e-6)


def test_newton_p3_analytic():
    for g in (0.0, 0.5, 1.0, 1.9, 2.0, 3.0):
        x, rep = proxnewton.solve_newton(p3_problem(g), opts=TIGHT)
        assert rep.status == "converged"
        assert x[0] == pytest.approx(max(0.0, (2 / np.sqrt(2 + g) - 1) / 2),
                                     abs=1e-6)


def test_newton_never_builds_dense_hessian(monkeypatch):
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 15, p=0.3, seed=2), gamma=0.4
    )

    def forbidden(self, x):
        raise AssertionError("dense Hessian must not be materialized")

    monkeypatch.setattr(Objective, "hessian", forbidden)
    x, rep = proxnewton.solve_newton(prob, opts=TIGHT_ER)
    assert rep.status == "converged"


def test_newton_trace_monotone():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 15, p=0.3, seed=6), gamma=0.5
    )
    x, rep = proxnewton.solve_newton(prob, opts=TIGHT_ER)
    trace = np.array(rep.objective_trace)
    assert np.all(np.diff(trace) <= 1e-10)
    assert rep.status == "converged"


def test_newton_zero_at_gamma_max():
    prob = p3_problem(2.0)  # gamma_max of the P3 family
    x, rep = proxnewton.solve_newton(prob, opts=TIGHT)
    assert rep.status == "converged"
    assert np.allclose(x, 0.0, atol=1e-10)


def test_newton_warm_start_and_weights():
    g = 0.8
    prob = two_node_problem(g)
    x, rep = proxnewton.solve_newton(prob, x0=np.array([0.35]), opts=TIGHT)
    assert x[0] == pytest.approx(1 / np.sqrt(2 * (2 + g)), abs=1e-6)
    x, rep = proxnewton.solve_newton(prob, opts=TIGHT,
                                     weights=np.array([3.0]))
    assert x[0] == pytest.approx(1 / np.sqrt(2 * (2 + 3 * g)), abs=1e-6)


def test_newton_determinism():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 12, p=0.4, seed=9), gamma=0.5
    )
    x1, r1 = proxnewton.solve_newton(prob, opts=TIGHT_ER)
    x2, r2 = proxnewton.solve_newton(prob, opts=TIGHT_ER)
    assert np.array_equal(x1, x2)
    assert r1.iterations == r2.iterations
