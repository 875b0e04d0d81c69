"""End-to-end design flows: gamma sweeps, reweighting, polishing, gamma_max."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InfeasibleSupportError, InfeasibleStartError, InvalidInputError, UnsupportedError
from .graphs import Problem
from .objective import Objective, edge_quad_diag
from .proxgrad import ProxGradOptions, solve_ista, solve_projected
from .proxnewton import NewtonOptions, solve_newton

#: absolute threshold for support detection before polishing
ZERO_TOL = 1e-6

#: default epsilon in the reweighting update 1 / (|x| + eps)
REWEIGHT_EPS = 1e-3


@dataclass(frozen=True)
class TradeoffPoint:
    """One point on the sparsity/performance tradeoff curve."""

    gamma: float
    cardinality: int
    J_sparse: float  # objective of the thresholded solve
    J_polished: float
    rel_performance_loss: float  # (J_polished - J_c) / J_c
    rel_cardinality: float
    iterations: int
    wall_time: float  # seconds to solve, threshold and polish this gamma


def gamma_max(problem: Problem) -> float:
    """Smallest penalty for which the optimal design adds no edges.

    Defined for connected plants as the infinity norm of
    ``diag(E^T G_p^-1 Q G_p^-1 E)``, evaluated per edge from four entries of
    the dense middle matrix.
    """
    if not problem.plant.connected:
        raise UnsupportedError("gamma_max is defined for connected plants only")
    if problem.m == 0:
        return 0.0
    c = scipy.linalg.cho_factor(problem.plant.G, lower=True, check_finite=False)
    M = scipy.linalg.cho_solve(c, scipy.linalg.cho_solve(c, problem.Q).T,
                               check_finite=False)
    M = 0.5 * (M + M.T)
    return float(np.max(edge_quad_diag(M, problem.candidates.pairs)))


def default_gamma_grid(problem: Problem, count: int = 50,
                       lo_frac: float = 1e-3) -> np.ndarray:
    """Logarithmic grid spanning ``[lo_frac * gamma_max, gamma_max]``."""
    gmax = gamma_max(problem)
    return np.geomspace(lo_frac * gmax, gmax, count)


#: options class of each solver method
_OPTIONS = {"proxn": NewtonOptions, "proxbb": ProxGradOptions,
            "projgrad": ProxGradOptions}


def _solve(problem: Problem, method: str, x0, opts, weights=None):
    """Dispatch one solve by method name: proxbb, proxn or projgrad.

    ``opts`` is None (the solver's defaults) or an instance of the method's
    options class.
    """
    if method not in _OPTIONS:
        raise InvalidInputError(f"unknown method {method!r}")
    if opts is not None and not isinstance(opts, _OPTIONS[method]):
        raise InvalidInputError(f"{method} takes {_OPTIONS[method].__name__}, "
                                f"not {type(opts).__name__}")
    if method == "proxn":
        return solve_newton(problem, x0, opts, weights)
    if problem.resistive:
        return solve_projected(problem, x0, opts, weights)
    if method == "projgrad":
        raise InvalidInputError("projgrad requires a resistive problem")
    return solve_ista(problem, x0, opts, weights)


def solve_centralized(problem: Problem, method: str = "proxn", opts=None):
    """Solve the unpenalized problem (the dense baseline design)."""
    return _solve(problem.with_gamma(0.0), method, None, opts)


def polish(problem: Problem, support) -> tuple[np.ndarray, float]:
    """Re-optimize weights on a fixed support with the penalty removed.

    Returns the weights embedded back into the full candidate space together
    with the polished objective value.
    """
    support = np.asarray(support, dtype=np.intp).reshape(-1)
    obj = Objective(problem)
    if support.size == 0:
        if not problem.plant.connected:
            raise InfeasibleSupportError("empty support on a disconnected plant")
        x0 = np.zeros(problem.m)
        return x0, obj.value(x0)
    reduced = problem.restrict(support).with_gamma(0.0)
    try:
        x0 = np.zeros(support.size) if reduced.resistive else None
        x_red, _ = solve_newton(reduced, x0)
    except InfeasibleStartError as exc:
        raise InfeasibleSupportError(
            "support cannot make the closed loop positive definite"
        ) from exc
    x = np.zeros(problem.m)
    x[support] = x_red
    return x, obj.value(x)


def reweight_update(x, epsilon: float = REWEIGHT_EPS) -> np.ndarray:
    """Penalty weights inversely proportional to the current magnitudes."""
    return 1.0 / (np.abs(np.asarray(x, dtype=float)) + epsilon)


def reweighted_path(problem: Problem, gammas, epsilon: float = REWEIGHT_EPS,
                    solver: str = "proxn", opts=None):
    """Path-following solves with iteratively reweighted penalties.

    The unpenalized solution initializes the weights; each subsequent gamma is
    warm-started from the previous solution and followed by a weight update.
    Returns a list of ``(gamma, x)``.
    """
    return [(g, x) for g, x, _, _ in
            _reweighted_solves(problem, gammas, epsilon, solver, opts)]


def _reweighted_solves(problem: Problem, gammas, epsilon, solver, opts, x_c=None):
    """The reweighted path as ``(gamma, x, iterations, seconds)`` per gamma.

    ``x_c`` is the unpenalized solution when the caller already has it.
    """
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    if gammas.size and np.any(np.diff(gammas) < 0):
        raise InvalidInputError("gammas must be ascending")
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    if x_c is None:
        x_c, _ = solve_centralized(problem, solver, opts)
    w = reweight_update(x_c, epsilon)
    x_prev = x_c
    out = []
    for g in gammas:
        t0 = time.perf_counter()
        prob_g = problem.with_gamma(float(g))
        try:
            x, rep = _solve(prob_g, solver, x_prev, opts, weights=w)
        except InfeasibleStartError:
            x, rep = _solve(prob_g, solver, np.ones(problem.m), opts, weights=w)
        w = reweight_update(x, epsilon)
        out.append((float(g), x, rep.iterations, time.perf_counter() - t0))
        x_prev = x
    return out


def sweep(problem: Problem, gammas, solver: str = "proxn", opts=None,
          use_reweighting: bool = False,
          warm_start: bool = True) -> list[TradeoffPoint]:
    """Tradeoff curve: solve, threshold, polish and normalize for each gamma."""
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    obj = Objective(problem)
    x_c, _ = solve_centralized(problem, solver, opts)
    J_c = obj.value(x_c)
    card_c = int(np.count_nonzero(np.abs(x_c) > ZERO_TOL))

    points = []
    if use_reweighting:
        solutions = _reweighted_solves(problem, gammas, REWEIGHT_EPS, solver,
                                       opts, x_c)
    else:
        solutions = []
        x_prev = x_c
        for g in gammas:
            t0 = time.perf_counter()
            prob_g = problem.with_gamma(float(g))
            if not warm_start:
                x, rep = _solve(prob_g, solver, None, opts)
            else:
                try:
                    x, rep = _solve(prob_g, solver, x_prev, opts)
                except InfeasibleStartError:
                    x, rep = _solve(prob_g, solver, None, opts)
            solutions.append((float(g), x, rep.iterations,
                              time.perf_counter() - t0))
            x_prev = x

    for (g, x, iters, solve_s) in solutions:
        t0 = time.perf_counter()
        prob_g = problem.with_gamma(g)
        support = np.flatnonzero(np.abs(x) > ZERO_TOL)
        J_sparse = obj.value(np.where(np.abs(x) > ZERO_TOL, x, 0.0))
        x_pol, J_pol = polish(prob_g, support)
        card = int(support.size)
        points.append(TradeoffPoint(
            gamma=g,
            cardinality=card,
            J_sparse=J_sparse,
            J_polished=J_pol,
            rel_performance_loss=(J_pol - J_c) / J_c,
            rel_cardinality=card / card_c if card_c else float("nan"),
            iterations=iters,
            wall_time=solve_s + time.perf_counter() - t0,
        ))
    return points
