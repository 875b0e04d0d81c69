"""First-order solvers: soft-thresholding, BB steps and the two iterations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gsp import graphs, pipeline, proxgrad, proxnewton
from gsp.errors import InfeasibleStartError, InvalidInputError, LineSearchError
from gsp.objective import Objective
from gsp.proxgrad import ProxGradOptions, bb_step, soft_threshold


def p3_problem(gamma=0.0):
    plant = graphs.generate("path", 3)
    cand = graphs.EdgeList.from_tuples(3, [(0, 2)])
    return graphs.default_problem(plant, candidates=cand, gamma=gamma,
                                  resistive=True)


def two_node_problem(gamma=0.0):
    return graphs.default_problem(graphs.EdgeList.from_tuples(2, []),
                                  gamma=gamma)


TIGHT = ProxGradOptions(tol_gap=1e-12, tol_rd=1e-6)


def test_soft_threshold_cases():
    assert soft_threshold(3.0, 1.0) == pytest.approx(2.0)
    assert soft_threshold(-3.0, 1.0) == pytest.approx(-2.0)
    assert soft_threshold(0.5, 1.0) == 0.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert np.allclose(soft_threshold(np.array([2.0, -0.1, 0.0]), 0.5),
                       [1.5, 0.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(float, 6, elements=st.floats(-50, 50)),
    hnp.arrays(float, 6, elements=st.floats(-50, 50)),
    st.floats(0, 10),
)
def test_soft_threshold_nonexpansive(u, v, kappa):
    su, sv = soft_threshold(u, kappa), soft_threshold(v, kappa)
    assert np.linalg.norm(su - sv) <= np.linalg.norm(u - v) + 1e-9


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(float, 4, elements=st.floats(-50, 50)), st.floats(0.01, 10))
def test_soft_threshold_is_l1_prox(v, kappa):
    # the prox point must beat nearby candidates on kappa*|z| + (1/2)|z-v|^2
    s = soft_threshold(v, kappa)
    obj = lambda z: kappa * np.abs(z).sum() + 0.5 * ((z - v) ** 2).sum()
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(10):
        z = s + 0.1 * rng.standard_normal(4)
        assert obj(s) <= obj(z) + 1e-9


def test_bb_step_hand_value():
    # dx = (1, 0), dg = (3, 1): alpha = |dx|^2 / (dx . dg) = 1/3
    a = bb_step(np.array([1.0, 0.0]), np.array([0.0, 0.0]),
                np.array([3.0, 1.0]), np.array([0.0, 0.0]))
    assert a == pytest.approx(1.0 / 3.0)


def test_bb_step_fallback_and_clamp():
    # non-positive curvature falls back
    a = bb_step(np.array([1.0]), np.array([0.0]), np.array([-1.0]),
                np.array([0.0]))
    assert a == proxgrad.ALPHA_FALLBACK
    # zero displacement (denominator 0) falls back
    a = bb_step(np.array([1.0]), np.array([1.0]), np.array([2.0]),
                np.array([1.0]))
    assert a == proxgrad.ALPHA_FALLBACK
    # large secant estimates are clamped: dx . dx / dx . dg = 1e16
    a = bb_step(np.array([1.0]), np.array([0.0]), np.array([1e-16]),
                np.array([0.0]))
    assert a == proxgrad.ALPHA_MAX
    # and so are small ones: 1e-16
    a = bb_step(np.array([1.0]), np.array([0.0]), np.array([1e16]),
                np.array([0.0]))
    assert a == proxgrad.ALPHA_MIN


@pytest.mark.parametrize("kwargs", [
    {"max_iters": 0},
    # a NaN tolerance never certifies, an infinite one always does
    {"tol_gap": float("nan")},
    {"tol_gap": float("inf")},
    {"tol_rd": float("nan")},
    {"tol_rd": float("inf")},
])
def test_options_reject_values_that_break_the_loop(kwargs):
    with pytest.raises(InvalidInputError):
        ProxGradOptions(**kwargs)


def test_ista_rejects_resistive():
    with pytest.raises(InvalidInputError):
        proxgrad.solve_ista(p3_problem())


def test_projected_rejects_signed():
    with pytest.raises(InvalidInputError):
        proxgrad.solve_projected(two_node_problem())


def test_ista_two_node_analytic():
    for g in (0.0, 1.0, 4.0):
        x, rep = proxgrad.solve_ista(two_node_problem(g), opts=TIGHT)
        assert rep.status == "converged"
        assert x[0] == pytest.approx(1 / np.sqrt(2 * (2 + g)), abs=1e-6)


def test_projected_p3_analytic():
    for g in (0.0, 0.5, 1.0, 2.0, 3.0):
        x, rep = proxgrad.solve_projected(p3_problem(g), opts=TIGHT)
        assert rep.status == "converged"
        assert x[0] == pytest.approx(max(0.0, (2 / np.sqrt(2 + g) - 1) / 2),
                                     abs=1e-6)


def test_ista_trace_monotone():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 15, p=0.3, seed=3), gamma=0.4
    )
    x, rep = proxgrad.solve_ista(prob, opts=TIGHT)
    trace = np.array(rep.objective_trace)
    assert np.all(np.diff(trace) <= 1e-10)
    assert rep.status == "converged"


def test_projected_nonmonotone_bound():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 15, p=0.3, seed=5),
        candidates=None, gamma=0.3, resistive=True,
    )
    opts = ProxGradOptions(tol_gap=1e-10, tol_rd=1e-5)
    x, rep = proxgrad.solve_projected(prob, opts=opts)
    assert rep.status == "converged"
    trace = rep.objective_trace
    memory = proxgrad.NONMONOTONE_MEMORY
    for k in range(1, len(trace)):
        ref = max(trace[max(0, k - memory):k])
        assert trace[k] <= ref + 1e-9
    assert np.min(x) >= 0.0


def test_fixed_point_returns_immediately():
    g = 0.5
    prob = p3_problem(g)
    xstar = np.array([(2 / np.sqrt(2 + g) - 1) / 2])
    x, rep = proxgrad.solve_projected(prob, x0=xstar, opts=TIGHT)
    assert rep.status == "converged"
    assert abs(x[0] - xstar[0]) <= 1e-9


def test_zero_edge_problem():
    plant = graphs.generate("path", 3)
    prob = graphs.default_problem(
        plant, candidates=graphs.EdgeList.from_tuples(3, []), resistive=True
    )
    x, rep = proxgrad.solve_projected(prob)
    assert x.size == 0
    assert rep.status == "converged"


def test_determinism():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 12, p=0.4, seed=9), gamma=0.5
    )
    x1, r1 = proxgrad.solve_ista(prob, opts=TIGHT)
    x2, r2 = proxgrad.solve_ista(prob, opts=TIGHT)
    assert np.array_equal(x1, x2)
    assert r1.iterations == r2.iterations
    assert r1.objective_trace == r2.objective_trace


def test_report_contents():
    prob = two_node_problem(1.0)
    x, rep = proxgrad.solve_ista(prob, opts=TIGHT)
    assert rep.status == "converged"
    assert len(rep.objective_trace) == rep.iterations + 1
    assert rep.wall_time > 0
    assert np.isfinite(rep.final_gap)
    assert rep.certificate is not None


def test_weighted_penalty_changes_solution():
    g = 0.8
    prob = two_node_problem(g)
    x_plain, _ = proxgrad.solve_ista(prob, opts=TIGHT)
    x_wt, _ = proxgrad.solve_ista(prob.with_gamma(g, np.array([3.0])), opts=TIGHT)
    # effective penalty 3*gamma shrinks the weight further
    assert x_wt[0] < x_plain[0]
    assert x_wt[0] == pytest.approx(1 / np.sqrt(2 * (2 + 3 * g)), abs=1e-6)


@pytest.mark.parametrize("resistive, gamma, alpha", [
    (False, 0.5, 50.0),  # the trial closed loop is not positive definite
    (True, 0.05, 1e3),  # the trial raises the objective
])
def test_rejected_step_at_alpha_min_raises(monkeypatch, resistive, gamma, alpha):
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 12, p=0.4, seed=9), gamma=gamma,
        resistive=resistive,
    )
    monkeypatch.setattr(proxgrad, "ALPHA_FALLBACK", alpha)
    monkeypatch.setattr(proxgrad, "ALPHA_MIN", alpha)
    solve = proxgrad.solve_projected if resistive else proxgrad.solve_ista
    with pytest.raises(LineSearchError):
        solve(prob)


# -- the frame shared with proximal Newton -----------------------------------


def er_problem(resistive, frac, n=20, p=0.2, seed=2):
    prob = graphs.default_problem(graphs.generate("erdos_renyi", n, p=p, seed=seed),
                                  resistive=resistive)
    return prob.with_gamma(frac * pipeline.gamma_max(prob))


@pytest.mark.parametrize("frac, max_iters, status", [
    (0.3, 19, "converged"), (0.2, 24, "converged"), (0.5, 14, "converged"),
    (0.3, 3, "max_iters"),
])
def test_status_when_iterations_run_out(frac, max_iters, status):
    # the last iterate is certified once more, and the run is converged only
    # if that certificate is within the tolerances: Newton's rule too
    opts = ProxGradOptions(max_iters=max_iters)
    x, rep = proxgrad.solve_projected(er_problem(True, frac), opts=opts)
    assert rep.iterations == max_iters
    certified = rep.final_gap <= opts.tol_gap and rep.final_rd_norm <= opts.tol_rd
    assert certified == (status == "converged")
    assert rep.status == status


SOLVERS = {
    "ista": proxgrad.solve_ista,
    "projected": proxgrad.solve_projected,
    "newton": proxnewton.solve_newton,
}


@pytest.mark.parametrize("solver, resistive", [
    ("ista", False), ("projected", True), ("newton", False), ("newton", True),
])
def test_default_start_is_ones_signed_zeros_resistive(solver, resistive):
    prob = er_problem(resistive, 0.3, n=12, p=0.3, seed=1)
    x0 = np.zeros(prob.m) if resistive else np.ones(prob.m)
    x_def, r_def = SOLVERS[solver](prob)
    x_exp, r_exp = SOLVERS[solver](prob, x0)
    assert x_def.tobytes() == x_exp.tobytes()
    assert r_def.objective_trace == r_exp.objective_trace
    assert (r_def.iterations, r_def.status) == (r_exp.iterations, r_exp.status)
    assert r_def.final_gap == r_exp.final_gap


@pytest.mark.parametrize("solver", ["projected", "newton"])
def test_negative_resistive_start_is_invalid(solver):
    with pytest.raises(InvalidInputError):
        SOLVERS[solver](p3_problem(), np.array([-0.5]))


# a non-negative start on a resistive problem, whose plant is connected, is
# always feasible, so only the signed solvers can start infeasible
@pytest.mark.parametrize("solver", ["ista", "newton"])
def test_infeasible_start_raises(solver):
    with pytest.raises(InfeasibleStartError):
        SOLVERS[solver](two_node_problem(), np.array([-1.0]))
