"""Design flows: gamma_max, polishing, reweighting and tradeoff sweeps."""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsp import graphs, pipeline
from gsp.errors import InfeasibleSupportError, InvalidInputError, UnsupportedError
from gsp.objective import Objective
from gsp.proxgrad import ProxGradOptions, solve_ista, solve_projected
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

    opts = ProxGradOptions(tol_gap=1e-12, tol_rd=1e-8)
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
    g0 = obj.state(np.zeros(prob.m)).grad
    assert pipeline.gamma_max(prob) == np.max(-g0)


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 30), st.integers(0, 9), st.sampled_from([0.2, 0.4, 0.7]),
       st.booleans())
def test_zero_is_a_fixed_point_at_gamma_max(n, seed, p, resistive):
    # gamma_max and the solvers read the same gradient at x = 0, so there
    # the first prox step from zero is exactly zero and the solve stops
    plant = graphs.generate("erdos_renyi", n, p=p, seed=seed)
    assume(graphs.component_count(plant) == 1)
    prob = graphs.default_problem(plant, resistive=resistive)
    solve = solve_projected if resistive else solve_ista
    x, rep = solve(prob.with_gamma(pipeline.gamma_max(prob)), np.zeros(prob.m))
    assert rep.status == "converged"
    assert rep.iterations == 1
    assert not np.any(x)


def test_gamma_max_disconnected_unsupported():
    prob = graphs.default_problem(graphs.EdgeList.from_tuples(4, [(0, 1)]))
    with pytest.raises(UnsupportedError):
        pipeline.gamma_max(prob)


def test_polish_p3_value():
    # polishing the single-edge support at any gamma gives the gamma = 0
    # optimum on that support: J = 2 sqrt(2) - 5/3
    prob = p3_problem(1.5)
    x, J, gap = pipeline.polish(prob, [0])
    assert J == pytest.approx(2 * np.sqrt(2) - 5.0 / 3.0, abs=1e-7)
    assert x[0] == pytest.approx((2 / np.sqrt(2) - 1) / 2, abs=1e-5)
    assert gap <= pipeline.POLISH_TOL_GAP


def test_polish_empty_support():
    prob = p3_problem(1.0)
    x, J, gap = pipeline.polish(prob, [])
    assert np.allclose(x, 0.0)
    assert J == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert np.isnan(gap)


def test_polish_empty_support_disconnected_raises():
    prob = graphs.default_problem(graphs.EdgeList.from_tuples(3, [(0, 1)]))
    with pytest.raises(InfeasibleSupportError):
        pipeline.polish(prob, [])


def test_polish_embeds_support():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 10, p=0.5, seed=7), gamma=0.5
    )
    support = [1, 4, 7]
    x, J, _ = pipeline.polish(prob, support)
    nz = np.flatnonzero(np.abs(x) > 1e-12)
    assert set(nz).issubset(set(support))
    assert J == pytest.approx(Objective(prob).value(x), abs=1e-10)


def test_reweight_update_arithmetic():
    assert pipeline.REWEIGHT_EPS == 1e-3
    w = pipeline.reweight_update(np.array([0.0, 1.0, -0.5]))
    assert np.allclose(w, [1000.0, 1.0 / 1.001, 1.0 / 0.501])


def test_reweighted_path_requires_ascending():
    with pytest.raises(InvalidInputError):
        pipeline.reweighted_path(p3_problem(), [1.0, 0.5])


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


@settings(max_examples=40, deadline=None)
@given(st.integers(6, 12), st.integers(0, 10_000),
       st.sampled_from([2.0, 3.0, 4.0]))
def test_reweighted_path_points_are_connected(n, seed, radius):
    # on a plant of two or more components every point of the path joins
    # them: plant and support form one component
    plant = graphs.random_geometric(n, radius, seed=seed)
    assume(graphs.component_count(plant) >= 2)
    prob = graphs.default_problem(plant)
    for _, x in pipeline.reweighted_path(prob, np.geomspace(1e-3, 2.5, 5)):
        support = np.flatnonzero(np.abs(x) > pipeline.ZERO_TOL)
        pairs = np.vstack([plant.pairs, prob.candidates.pairs[support]])
        joined = graphs.EdgeList(n, pairs, np.ones(len(pairs)))
        assert graphs.component_count(joined) == 1


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


def test_sweep_warm_starts_each_gamma_from_the_previous_solution():
    # the same chain of direct solves: the first from the centralized
    # solution, each later one from the solution before it
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 10, p=0.5, seed=13), resistive=True
    )
    gammas = [0.2, 0.6, 1.0]
    points = pipeline.sweep(prob, gammas, opts=TIGHT)
    x_prev, _ = solve_newton(prob.with_gamma(0.0), None, TIGHT)
    for g, p in zip(gammas, points):
        x_prev, rep = solve_newton(prob.with_gamma(g), x_prev, TIGHT)
        assert p.gamma == g
        assert p.iterations == rep.iterations
        assert p.cardinality == np.count_nonzero(np.abs(x_prev) > pipeline.ZERO_TOL)


def test_sweep_reweighting_mode():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 10, p=0.5, seed=17)
    )
    points = pipeline.sweep(prob, np.geomspace(0.05, 1.5, 4), opts=TIGHT,
                            use_reweighting=True)
    assert len(points) == 4
    cards = [p.cardinality for p in points]
    assert cards[-1] <= cards[0]


@pytest.mark.parametrize("mode", [{}, {"use_reweighting": True}],
                         ids=["warm", "reweighted"])
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


def record_starts(monkeypatch):
    """Run a reweighted sweep on the P3 problem; returns the ``(x0, x)`` of
    every ``_solve``, the centralized one first."""
    solves = []
    real_solve = pipeline._solve

    def recording_solve(problem, method, x0, *args, **kwargs):
        x, rep = real_solve(problem, method, x0, *args, **kwargs)
        solves.append((x0, x))
        return x, rep

    monkeypatch.setattr(pipeline, "_solve", recording_solve)
    pipeline.sweep(p3_problem(), [0.5, 1.0], opts=TIGHT, use_reweighting=True)
    return solves


def test_warm_reweighted_sweep_starts_each_solve_at_the_previous_point(monkeypatch):
    # one solve per gamma after the centralized one, each from the previous
    # solution itself: a warm start is never retried from the default
    solves = record_starts(monkeypatch)
    assert len(solves) == 3 and solves[0][0] is None
    for (_, x_prev), (x0, _) in zip(solves, solves[1:]):
        assert x0 is x_prev


def er_problem(n, seed):
    return graphs.default_problem(
        graphs.generate("erdos_renyi", n, p=0.3, seed=seed), resistive=True)


def record_polishes(monkeypatch, problem, gammas):
    """Run a resistive proxBB sweep; returns its points, the ``x`` of every
    ``_solve`` (the centralized one first) and the start and options of
    every Newton solve, which in a proxBB sweep are the polishes."""
    xs, newtons = [], []
    real_solve, real_newton = pipeline._solve, pipeline.solve_newton

    def recording_solve(*args, **kwargs):
        x, rep = real_solve(*args, **kwargs)
        xs.append(x)
        return x, rep

    def recording_newton(prob, x0=None, opts=None, *args, **kwargs):
        newtons.append((x0, opts))
        return real_newton(prob, x0, opts, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_solve", recording_solve)
    monkeypatch.setattr(pipeline, "solve_newton", recording_newton)
    points = pipeline.sweep(problem, gammas, solver="proxbb")
    return points, xs, newtons


def test_sweep_polishes_each_support_from_its_points_solve(monkeypatch):
    # the polish starts at the thresholded design of the point's own solve,
    # restricted to its support, once per distinct support, and certifies
    # to POLISH_TOL_GAP
    prob = er_problem(10, 1)
    gammas = np.geomspace(0.05, 0.8, 4) * pipeline.gamma_max(prob)
    points, xs, newtons = record_polishes(monkeypatch, prob, gammas)
    supports = [np.flatnonzero(np.abs(x) > pipeline.ZERO_TOL) for x in xs[1:]]
    assert [p.cardinality for p in points] == [s.size for s in supports]
    assert len({s.tobytes() for s in supports}) == len(newtons) == 4
    for x, support, (x0, opts) in zip(xs[1:], supports, newtons):
        assert x0.tobytes() == x[support].tobytes()
        assert opts.tol_gap == pipeline.POLISH_TOL_GAP


def test_sweep_polishes_a_repeated_support_once(monkeypatch):
    # neighbouring gammas that keep the same support share one call of
    # polish, one Newton solve, so their J_polished are bit-equal although
    # their solves differ
    prob = er_problem(10, 1)
    gammas = np.array([0.3, 0.31]) * pipeline.gamma_max(prob)
    calls = []
    real_polish = pipeline.polish

    def recording_polish(*args, **kwargs):
        calls.append(args[1])
        return real_polish(*args, **kwargs)

    monkeypatch.setattr(pipeline, "polish", recording_polish)
    points, xs, newtons = record_polishes(monkeypatch, prob, gammas)
    supports = [np.flatnonzero(np.abs(x) > pipeline.ZERO_TOL) for x in xs[1:]]
    assert np.array_equal(*supports) and supports[0].size > 0
    assert not np.array_equal(xs[1], xs[2])
    assert len(newtons) == len(calls) == 1
    assert points[0].J_polished == points[1].J_polished
    assert points[0].polish_gap == points[1].polish_gap <= pipeline.POLISH_TOL_GAP


def test_sweep_polish_matches_a_tight_polish(monkeypatch):
    # from each point's own solve the polish reaches a Newton solve run to
    # 1e-10 from the default start, and never ends above the design it
    # started from; POLISH_TOL_GAP is read at call time
    prob = er_problem(15, 2)
    gammas = np.geomspace(0.01, 1.0, 8) * pipeline.gamma_max(prob)
    points, xs, _ = record_polishes(monkeypatch, prob, gammas)
    monkeypatch.setattr(pipeline, "POLISH_TOL_GAP", 1e-10)
    obj, cards = Objective(prob), []
    for p, x in zip(points, xs[1:]):
        support = np.flatnonzero(np.abs(x) > pipeline.ZERO_TOL)
        cards.append(support.size)
        x_ref = np.zeros(prob.m)
        if support.size:
            x_ref[support], rep = solve_newton(
                prob.restrict(support).with_gamma(0.0), None,
                NewtonOptions(tol_gap=1e-10))
            _, _, gap = pipeline.polish(prob, support, x)
            assert p.polish_gap <= 1e-6 and rep.final_gap <= 1e-10
            assert gap <= 1e-10
        else:
            assert np.isnan(p.polish_gap)
        J_ref = obj.value(x_ref)
        assert abs(p.J_polished - J_ref) <= 1e-9 * J_ref
        assert p.J_polished <= p.J_sparse * (1 + 1e-9)
    assert cards[0] > 20 and cards[-1] == 0


def test_polish_certifies_from_a_given_start():
    # a start off the support's optimum is polished to the same objective
    # as the default start, within the certified gap
    prob = er_problem(10, 1)
    support = [0, 3, 5, 8]
    x0 = np.zeros(prob.m)
    x0[support] = 0.7
    x_cold, J_cold, _ = pipeline.polish(prob, support)
    x_warm, J_warm, _ = pipeline.polish(prob, support, x0)
    assert set(np.flatnonzero(x_warm)) <= set(support)
    assert J_warm == pytest.approx(J_cold, rel=1e-6)
    assert J_warm == pytest.approx(Objective(prob).value(x_warm), abs=1e-12)


def test_cold_polish_certifies_to_the_polish_gap():
    # the support resistive proxBB finds at 0.5 gamma_max on an ER n=12
    # plant: polished from Newton's default start, as `gsp solve` and
    # `gsp polish` do, it certifies to POLISH_TOL_GAP like a warm polish
    # (Newton's default tol_gap would stop it at 3.3e-5)
    prob = er_problem(12, 1)
    x, _ = solve_projected(prob.with_gamma(0.5 * pipeline.gamma_max(prob)))
    support = np.flatnonzero(np.abs(x) > pipeline.ZERO_TOL)
    assert support.size == 5
    x_pol, J, gap = pipeline.polish(prob, support)
    assert gap <= pipeline.POLISH_TOL_GAP
    assert set(np.flatnonzero(x_pol)) <= set(support)
    assert J == Objective(prob).value(x_pol)


def test_solve_centralized_dispatch():
    prob = p3_problem(1.0)
    x_n, _ = pipeline.solve_centralized(prob, "proxn", TIGHT)
    x_b, _ = pipeline.solve_centralized(prob, "proxbb")
    assert x_n[0] == pytest.approx((2 / np.sqrt(2) - 1) / 2, abs=1e-5)
    assert x_b[0] == pytest.approx(x_n[0], abs=1e-4)
    for method in ("nosuch", "projgrad"):
        with pytest.raises(InvalidInputError):
            pipeline.solve_centralized(prob, method)


@pytest.mark.parametrize("method,opts", [
    ("proxbb", NewtonOptions(tol_gap=1e-12)),
    ("proxbb", NewtonOptions()),
    ("proxn", ProxGradOptions(tol_gap=1e-12)),
])
def test_solver_options_must_match_the_method(method, opts):
    # options of the other solver's class are an error, not replaced by
    # the method's defaults
    prob = p3_problem(1.0)
    with pytest.raises(InvalidInputError):
        pipeline.solve_centralized(prob, method, opts)
    with pytest.raises(InvalidInputError):
        pipeline.sweep(prob, [0.5], solver=method, opts=opts)
