"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
The analytic reference values were derived by hand and cross-checked with an
independent 1-D bisection oracle before the solvers were written.
"""

import time

import numpy as np
import pytest

from gsp import graphs, pipeline, proxgrad, proxnewton
from gsp.objective import Objective
from gsp.proxgrad import ProxGradOptions
from gsp.proxnewton import NewtonOptions
from reference import dense_hessian, duality_gap, lyapunov_h2_oracle

TIGHT_N = NewtonOptions(tol_gap=1e-12, tol_rd=1e-6)
TIGHT_G = ProxGradOptions(tol_gap=1e-12, tol_rd=1e-6)


def report(num, name, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"criterion {num}: {name}"


def p3_problem(gamma=0.0):
    plant = graphs.generate("path", 3)
    cand = graphs.EdgeList.from_tuples(3, [(0, 2)])
    return graphs.default_problem(plant, candidates=cand, gamma=gamma,
                                  resistive=True)


def two_node_problem(gamma=0.0):
    return graphs.default_problem(graphs.EdgeList.from_tuples(2, []),
                                  gamma=gamma)


def bisection_oracle(prob, lo=0.0, hi=5.0, iters=200):
    """Independent 1-D minimizer of J(x) + gamma*x over x >= 0."""
    obj = Objective(prob)
    f = lambda x: obj.value(np.array([x])) + prob.gamma * x
    # golden-section search on the convex scalar function
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(iters):
        if f(c) < f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return max(0.0, 0.5 * (a + b))


def test_criterion_1_analytic_resistive_family():
    ok = abs(pipeline.gamma_max(p3_problem()) - 2.0) <= 1e-10
    for g in (0.0, 0.5, 1.0, 1.9, 2.0, 3.0):
        xstar = max(0.0, (2.0 / np.sqrt(2.0 + g) - 1.0) / 2.0)
        oracle = bisection_oracle(p3_problem(g))
        ok = ok and abs(oracle - xstar) <= 1e-6
        xn, _ = proxnewton.solve_newton(p3_problem(g), opts=TIGHT_N)
        xp, _ = proxgrad.solve_projected(p3_problem(g), opts=TIGHT_G)
        ok = ok and abs(xn[0] - xstar) <= 1e-5 and abs(xp[0] - xstar) <= 1e-5
    report(1, "analytic resistive family and gamma_max", ok)


def test_criterion_2_analytic_signed_instance():
    ok = True
    for g in (0.0, 1.0, 4.0):
        xstar = 1.0 / np.sqrt(2.0 * (2.0 + g))
        xn, _ = proxnewton.solve_newton(two_node_problem(g), opts=TIGHT_N)
        xi, _ = proxgrad.solve_ista(two_node_problem(g), opts=TIGHT_G)
        ok = ok and abs(xn[0] - xstar) <= 1e-5 and abs(xi[0] - xstar) <= 1e-5
    J0 = Objective(two_node_problem()).value(
        np.array([1.0 / np.sqrt(4.0)])
    )
    ok = ok and abs(J0 - 2.0) <= 1e-8
    report(2, "analytic signed instance", ok)


def test_criterion_3_derivative_oracles():
    t0 = time.perf_counter()
    worst_g = worst_h = 0.0
    for seed in range(10):
        plant = graphs.generate("erdos_renyi", 20, p=0.3, seed=seed)
        prob = graphs.default_problem(plant)
        obj = Objective(prob)
        rng = np.random.Generator(np.random.PCG64(1000 + seed))
        x = 0.3 + 0.4 * rng.random(prob.m)
        g = obj.state(x).grad
        H = dense_hessian(obj, x)
        h = 1e-5
        for i in rng.choice(prob.m, size=6, replace=False):
            e = np.zeros(prob.m)
            e[i] = h
            fd = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
            worst_g = max(worst_g, abs(fd - g[i]) / max(1.0, abs(fd)))
            fdh = (obj.state(x + e).grad - obj.state(x - e).grad) / (2.0 * h)
            col = H[:, i]
            worst_h = max(worst_h,
                          np.max(np.abs(col - fdh)) / max(1.0, np.max(np.abs(fdh))))
    # kappa confirmation: d2J/dx2 = 1/x^3 on the single-edge instance
    obj2 = Objective(two_node_problem())
    kappa_ok = all(
        abs(np.diag(dense_hessian(obj2, np.array([x])))[0] - 1.0 / x**3) <= 1e-9
        for x in (0.4, 0.8, 1.5)
    )
    elapsed = time.perf_counter() - t0
    ok = worst_g < 1e-6 and worst_h < 1e-4 and kappa_ok and elapsed < 60.0
    report(3, f"derivative oracles (grad {worst_g:.1e}, hess {worst_h:.1e}, "
              f"{elapsed:.1f}s)", ok)


def test_criterion_4_h2_identity():
    rng = np.random.Generator(np.random.PCG64(4242))
    ok = True
    count = 0
    for n in (5, 10, 30):
        plant = graphs.generate("erdos_renyi", n, p=0.4, seed=n)
        prob = graphs.default_problem(plant)
        obj = Objective(prob)
        for _ in range(7):
            x = 0.1 + rng.random(prob.m)
            J = obj.value(x)
            h2 = lyapunov_h2_oracle(prob, x)
            ok = ok and abs(h2 - J / 2.0) <= 1e-8 * max(1.0, abs(J))
            count += 1
    report(4, f"H2 identity on {count} feasible points", ok and count >= 20)


def test_criterion_5_certified_optimality():
    runs = []
    for g in (0.3, 0.8, 1.5):
        x, rep = proxgrad.solve_projected(p3_problem(g), opts=TIGHT_G)
        runs.append((x, rep))
        x, rep = proxnewton.solve_newton(p3_problem(g), opts=TIGHT_N)
        runs.append((x, rep))
    for g in (0.5, 2.0):
        x, rep = proxgrad.solve_ista(two_node_problem(g), opts=TIGHT_G)
        runs.append((x, rep))
        x, rep = proxnewton.solve_newton(two_node_problem(g), opts=TIGHT_N)
        runs.append((x, rep))
    er = graphs.default_problem(
        graphs.generate("erdos_renyi", 20, p=0.3, seed=1), gamma=0.5,
        resistive=True,
    )
    x, rep = proxgrad.solve_projected(er, opts=TIGHT_G)
    runs.append((x, rep))

    ok = True
    for x, rep in runs:
        cert = rep.certificate
        ok = ok and rep.status == "converged" and cert is not None
        if cert is None:
            continue
        ok = ok and cert.gap <= 1e-4 and cert.rd_norm <= 1e-3
        eta = duality_gap(x, cert.y_plus, cert.y_minus)
        ok = ok and abs((cert.primal - cert.dual) - eta) <= 1e-8
    report(5, f"certified optimality on {len(runs)} converged runs", ok)


def test_criterion_6_solver_cross_agreement():
    plant = graphs.generate("erdos_renyi", 50, p=0.15, seed=6)
    assert graphs.component_count(plant) == 1
    prob = graphs.default_problem(plant, resistive=True)
    gmax = pipeline.gamma_max(prob)
    ok = True
    for frac in (0.2, 0.5, 0.8):
        pg = prob.with_gamma(frac * gmax)
        xb, _ = proxgrad.solve_projected(pg, opts=TIGHT_G)
        xn, _ = proxnewton.solve_newton(pg, opts=TIGHT_N)
        obj = Objective(pg)
        fb = obj.value(xb) + pg.gamma * np.sum(xb)
        fn = obj.value(xn) + pg.gamma * np.sum(xn)
        ok = ok and abs(fb - fn) <= 1e-6 * max(1.0, abs(fb))
        ok = ok and np.array_equal(np.abs(xb) > 1e-6, np.abs(xn) > 1e-6)
    report(6, "proxBB/proxN cross-agreement at three penalty levels", ok)


def test_criterion_7_qualitative_topologies():
    # path: the sparsest nonempty sweep point closes the longest cycle
    prob = graphs.default_problem(graphs.generate("path", 10))
    gmax = pipeline.gamma_max(prob)
    points = pipeline.sweep(prob, np.geomspace(0.05 * gmax, 0.999 * gmax, 12),
                            opts=TIGHT_N)
    nonempty = [p for p in points if p.cardinality > 0]
    sparsest = min(nonempty, key=lambda p: p.cardinality)
    x, _ = proxnewton.solve_newton(prob.with_gamma(sparsest.gamma),
                                   opts=TIGHT_N)
    support = {tuple(map(int, prob.candidates.pairs[l]))
               for l in np.flatnonzero(np.abs(x) > 1e-6)}
    path_ok = support == {(0, 9)}

    # ring: survivors at large penalties connect diametrically opposite nodes
    prob = graphs.default_problem(graphs.generate("ring", 10))
    gmax = pipeline.gamma_max(prob)
    diametral = {(i, i + 5) for i in range(5)}
    ring_ok = True
    for frac in (0.7, 0.9):
        x, _ = proxnewton.solve_newton(prob.with_gamma(frac * gmax),
                                       opts=TIGHT_N)
        support = {tuple(map(int, prob.candidates.pairs[l]))
                   for l in np.flatnonzero(np.abs(x) > 1e-6)}
        ring_ok = ring_ok and bool(support) and support <= diametral
    report(7, "path closes (0,9); ring keeps diametral pairs", path_ok and ring_ok)


def test_criterion_8_desk_scale_proxy():
    n = 300
    p = 1.05 * np.log(n) / n
    plant = graphs.generate("erdos_renyi", n, p=p, seed=1)
    npairs = n * (n - 1) // 2
    mean = p * npairs
    sigma = np.sqrt(npairs * p * (1.0 - p))
    count_ok = abs(plant.m - mean) <= 3.0 * sigma
    prob = graphs.default_problem(plant, resistive=True)
    gmax = pipeline.gamma_max(prob)
    pg = prob.with_gamma(0.8 * gmax)

    t0 = time.perf_counter()
    xn, repn = proxnewton.solve_newton(pg)
    tn = time.perf_counter() - t0
    t0 = time.perf_counter()
    xb, repb = proxgrad.solve_projected(pg)
    tb = time.perf_counter() - t0

    newton_ok = (repn.status == "converged" and tn <= 60.0
                 and repn.iterations <= 15
                 and repn.final_gap <= 1e-4 and repn.final_rd_norm <= 1e-3)
    bb_ok = (repb.status == "converged" and tb <= 60.0
             and repb.final_gap <= 1e-4 and repb.final_rd_norm <= 1e-3)
    ok = count_ok and newton_ok and bb_ok
    report(8, f"desk-scale proxy (m={prob.m}, proxN {tn:.1f}s/"
              f"{repn.iterations} it, proxBB {tb:.1f}s)", ok)


def test_criterion_9_disconnected_path_following():
    t0 = time.perf_counter()
    plant = graphs.random_geometric(50, 2.0, 10.0, seed=37)
    assert graphs.component_count(plant) == 3
    prob = graphs.default_problem(plant)
    gammas = np.geomspace(1e-3, 2.5, 200)
    path = pipeline.reweighted_path(prob, gammas)
    connected_ok = True
    cards = []
    for g, x in path:
        support = np.flatnonzero(np.abs(x) > 1e-6)
        cards.append(len(support))
        total = graphs.EdgeList.from_tuples(
            50,
            [tuple(map(int, q)) for q in plant.pairs]
            + [tuple(map(int, prob.candidates.pairs[l])) for l in support],
        )
        connected_ok = connected_ok and graphs.component_count(total) == 1
    elapsed = time.perf_counter() - t0
    ok = connected_ok and min(cards) >= 2 and elapsed <= 1800.0
    report(9, f"disconnected path-following (sparsest {min(cards)} edges, "
              f"{elapsed:.0f}s)", ok)


def test_criterion_10_monotone_traces():
    ok = True
    for g in (0.3, 1.0):
        _, rep = proxgrad.solve_ista(two_node_problem(g), opts=TIGHT_G)
        ok = ok and np.all(np.diff(rep.objective_trace) <= 1e-10)
        _, rep = proxnewton.solve_newton(two_node_problem(g), opts=TIGHT_N)
        ok = ok and np.all(np.diff(rep.objective_trace) <= 1e-10)
        _, rep = proxnewton.solve_newton(p3_problem(g), opts=TIGHT_N)
        ok = ok and np.all(np.diff(rep.objective_trace) <= 1e-10)
    er = graphs.default_problem(
        graphs.generate("erdos_renyi", 20, p=0.3, seed=3), gamma=0.5
    )
    _, rep = proxgrad.solve_ista(er, opts=TIGHT_G)
    ok = ok and np.all(np.diff(rep.objective_trace) <= 1e-10)
    _, rep = proxnewton.solve_newton(er, opts=TIGHT_N)
    ok = ok and np.all(np.diff(rep.objective_trace) <= 1e-10)
    report(10, "monotone objective traces", ok)
