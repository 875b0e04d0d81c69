"""Design flows: gamma_max, polishing, reweighting and tradeoff sweeps."""

import time

import numpy as np
import pytest

from gsp import graphs, pipeline
from gsp.errors import InfeasibleSupportError, InvalidInputError, UnsupportedError
from gsp.objective import Objective
from gsp.proxnewton import NewtonOptions, solve_newton


def p3_problem(gamma=0.0):
    plant = graphs.generate("path", 3)
    cand = graphs.EdgeList.from_tuples(3, [(0, 2)])
    return graphs.default_problem(plant, candidates=cand, gamma=gamma,
                                  resistive=True)


TIGHT = NewtonOptions(tol_gap=1e-12, tol_rd=1e-6)


def test_gamma_max_p3():
    assert pipeline.gamma_max(p3_problem()) == pytest.approx(2.0, abs=1e-10)


def test_gamma_max_brute_force():
    # above gamma_max the solution is exactly zero; below it is not
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 10, p=0.5, seed=3), resistive=True
    )
    gmax = pipeline.gamma_max(prob)
    from gsp.proxgrad import ProxGradOptions, solve_projected

    opts = ProxGradOptions(tol_gap=1e-12, tol_rd=1e-8, report_every=1)
    x_above, _ = solve_projected(prob.with_gamma(1.001 * gmax), opts=opts)
    assert np.allclose(x_above, 0.0, atol=1e-9)
    x_below, _ = solve_projected(prob.with_gamma(0.95 * gmax), opts=opts)
    assert np.max(x_below) > 1e-7


def test_gamma_max_matches_gradient_bound():
    # with identity weights the plant-only terms of the gradient at x = 0
    # cancel, so gamma_max is the largest descent component there: above it
    # zero satisfies the stationarity condition of the penalized problem
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 12, p=0.4, seed=5), resistive=True
    )
    obj = Objective(prob)
    g0 = obj.gradient(np.zeros(prob.m))
    assert pipeline.gamma_max(prob) == pytest.approx(np.max(-g0), abs=1e-10)


def test_gamma_max_disconnected_unsupported():
    prob = graphs.default_problem(graphs.EdgeList.from_tuples(4, [(0, 1)]))
    with pytest.raises(UnsupportedError):
        pipeline.gamma_max(prob)


def test_default_gamma_grid():
    grid = pipeline.default_gamma_grid(p3_problem(), count=10, lo_frac=1e-2)
    assert len(grid) == 10
    assert grid[0] == pytest.approx(0.02)
    assert grid[-1] == pytest.approx(2.0)
    assert np.all(np.diff(grid) > 0)


def test_polish_p3_value():
    # polishing the single-edge support at any gamma gives the gamma = 0
    # optimum on that support: J = 2 sqrt(2) - 5/3
    prob = p3_problem(1.5)
    x, J = pipeline.polish(prob, [0])
    assert J == pytest.approx(2 * np.sqrt(2) - 5.0 / 3.0, abs=1e-7)
    assert x[0] == pytest.approx((2 / np.sqrt(2) - 1) / 2, abs=1e-5)


def test_polish_empty_support():
    prob = p3_problem(1.0)
    x, J = pipeline.polish(prob, [])
    assert np.allclose(x, 0.0)
    assert J == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_polish_empty_support_disconnected_raises():
    prob = graphs.default_problem(graphs.EdgeList.from_tuples(3, [(0, 1)]))
    with pytest.raises(InfeasibleSupportError):
        pipeline.polish(prob, [])


def test_polish_embeds_support():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 10, p=0.5, seed=7), gamma=0.5
    )
    support = [1, 4, 7]
    x, J = pipeline.polish(prob, support)
    nz = np.flatnonzero(np.abs(x) > 1e-12)
    assert set(nz).issubset(set(support))
    assert J == pytest.approx(Objective(prob).value(x), abs=1e-10)


def test_reweight_update_arithmetic():
    w = pipeline.reweight_update(np.array([0.0, 1.0, -0.5]), epsilon=1e-3)
    assert np.allclose(w, [1000.0, 1.0 / 1.001, 1.0 / 0.501])


def test_reweighted_path_requires_ascending():
    with pytest.raises(InvalidInputError):
        pipeline.reweighted_path(p3_problem(), [1.0, 0.5])
    with pytest.raises(InvalidInputError):
        pipeline.reweighted_path(p3_problem(), [0.5], epsilon=0.0)


def test_reweighted_path_sparsifies():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 12, p=0.4, seed=11)
    )
    gammas = np.geomspace(1e-2, 2.0, 6)
    path = pipeline.reweighted_path(prob, gammas, opts=TIGHT)
    cards = [int(np.count_nonzero(np.abs(x) > 1e-6)) for _, x in path]
    assert len(path) == 6
    assert cards[-1] <= cards[0]
    assert [g for g, _ in path] == [pytest.approx(v) for v in gammas]


def test_sweep_p3_cardinalities():
    # the candidate edge survives below gamma_max = 2 and vanishes above
    prob = p3_problem()
    points = pipeline.sweep(prob, [0.5, 1.0, 2.0, 3.0], opts=TIGHT)
    assert [p.cardinality for p in points] == [1, 1, 0, 0]
    for p in points[:2]:
        assert p.J_polished == pytest.approx(2 * np.sqrt(2) - 5.0 / 3.0,
                                             abs=1e-6)
        assert p.rel_performance_loss == pytest.approx(0.0, abs=1e-6)
        assert p.rel_cardinality == pytest.approx(1.0)
    assert points[-1].J_polished == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert points[-1].rel_cardinality == 0.0


def test_sweep_iterations_recorded():
    points = pipeline.sweep(p3_problem(), [0.5, 1.5], opts=TIGHT)
    assert any(p.iterations > 0 for p in points)
    assert all(p.wall_time >= 0 for p in points)


def test_sweep_cold_start_solves_each_gamma():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 10, p=0.5, seed=13), resistive=True
    )
    gammas = [0.2, 0.6, 1.0]
    points = pipeline.sweep(prob, gammas, opts=TIGHT, warm_start=False)
    for g, p in zip(gammas, points):
        x, rep = solve_newton(prob.with_gamma(g), None, TIGHT)
        assert p.gamma == g
        assert p.iterations == rep.iterations
        assert p.cardinality == np.count_nonzero(np.abs(x) > pipeline.ZERO_TOL)


def test_sweep_reweighting_mode():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 10, p=0.5, seed=17)
    )
    points = pipeline.sweep(prob, np.geomspace(0.05, 1.5, 4), opts=TIGHT,
                            use_reweighting=True)
    assert len(points) == 4
    cards = [p.cardinality for p in points]
    assert cards[-1] <= cards[0]


@pytest.mark.parametrize("mode", [{}, {"warm_start": False},
                                  {"use_reweighting": True}],
                         ids=["warm", "cold", "reweighted"])
def test_sweep_wall_time_covers_the_solve(monkeypatch, mode):
    # a pause inside every solve, which threshold and polish never see, must
    # show in the wall time of each point
    pause = 0.05
    real_solve = pipeline._solve

    def slow_solve(*args, **kwargs):
        time.sleep(pause)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_solve", slow_solve)
    points = pipeline.sweep(p3_problem(), [0.5, 1.0], opts=TIGHT, **mode)
    assert len(points) == 2
    assert all(p.wall_time >= pause for p in points)


def test_sweep_reweighting_records_iterations(monkeypatch):
    reports = []
    real_solve = pipeline._solve

    def recording_solve(*args, **kwargs):
        x, rep = real_solve(*args, **kwargs)
        reports.append(rep)
        return x, rep

    monkeypatch.setattr(pipeline, "_solve", recording_solve)
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 10, p=0.5, seed=17)
    )
    points = pipeline.sweep(prob, np.geomspace(0.05, 1.5, 4), opts=TIGHT,
                            use_reweighting=True)
    # one centralized solve, shared by the path, then one solve per gamma
    assert len(reports) == 1 + len(points)
    assert [p.iterations for p in points] == [r.iterations for r in reports[1:]]
    assert any(p.iterations > 0 for p in points)


def test_solve_centralized_dispatch():
    prob = p3_problem(1.0)
    x_n, _ = pipeline.solve_centralized(prob, "proxn", TIGHT)
    x_b, _ = pipeline.solve_centralized(prob, "projgrad")
    assert x_n[0] == pytest.approx((2 / np.sqrt(2) - 1) / 2, abs=1e-5)
    assert x_b[0] == pytest.approx(x_n[0], abs=1e-4)
    with pytest.raises(InvalidInputError):
        pipeline.solve_centralized(
            graphs.default_problem(graphs.generate("path", 3)), "projgrad"
        )
    with pytest.raises(InvalidInputError):
        pipeline.solve_centralized(prob, "nosuch")
