"""End-to-end design flows: gamma sweeps, reweighting, polishing, gamma_max."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSupportError, InfeasibleStartError, InvalidInputError, UnsupportedError
from .graphs import Problem
from .objective import Objective
from .proxgrad import ProxGradOptions, solve_ista, solve_projected
from .proxnewton import NewtonOptions, solve_newton

#: absolute threshold for support detection before polishing
ZERO_TOL = 1e-6

#: epsilon in the reweighting update 1 / (|x| + eps)
REWEIGHT_EPS = 1e-3

#: duality gap every polish certifies its gamma = 0 Newton solve to, read at
#: call time, so that its J_polished does not depend on the start; the exact
#: resistive Newton directions reach it, and 1e-10, on supports of thousands
#: of edges
POLISH_TOL_GAP = 1e-6


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
    polish_gap: float  # final gap of the polish; NaN without a certificate


def gamma_max(problem: Problem) -> float:
    """Smallest penalty for which the optimal design adds no edges.

    Defined for connected plants as the largest descent component
    ``max(-grad J(0))``, which equals the infinity norm of
    ``diag(E^T G_p^-1 Q G_p^-1 E)`` because the plant-only terms of the
    gradient cancel at ``x = 0``.  It is read from the same
    :meth:`Objective.state` as the solvers' gradient, so at this penalty
    ``x = 0`` is an exact fixed point of their prox step.
    """
    if not problem.plant.connected:
        raise UnsupportedError("gamma_max is defined for connected plants only")
    if problem.m == 0:
        return 0.0
    return float(np.max(-Objective(problem).state(np.zeros(problem.m)).grad))


def _solve(problem: Problem, x0, opts):
    """One solve by the solver that ``opts`` pick (see :func:`sweep`)."""
    if opts is None or isinstance(opts, NewtonOptions):
        return solve_newton(problem, x0, opts)
    if not isinstance(opts, ProxGradOptions):
        raise InvalidInputError("solver options must be NewtonOptions or "
                                f"ProxGradOptions, not {type(opts).__name__}")
    if problem.resistive:
        return solve_projected(problem, x0, opts)
    return solve_ista(problem, x0, opts)


def solve_centralized(problem: Problem, opts=None):
    """Solve the unpenalized problem (the dense baseline design) with the
    solver that ``opts`` pick (see :func:`sweep`)."""
    return _solve(problem.with_gamma(0.0), None, opts)


def support(x) -> np.ndarray:
    """Indices of the designed edges: ``|x|`` above :data:`ZERO_TOL`."""
    return np.flatnonzero(np.abs(x) > ZERO_TOL)


def polish(problem: Problem, support, x0=None):
    """Re-optimize weights on a fixed support with the penalty removed.

    Newton certifies the ``gamma = 0`` solve on the support to
    :data:`POLISH_TOL_GAP`, tight enough that its start does not show in the
    polished objective.  The start is ``x0[support]`` of the full-length
    ``x0`` when given, and Newton's default start otherwise.  Signed
    problems have no ``gamma = 0`` certificate short of the exact optimum,
    so their polish stops on a flat objective instead.  Returns the weights
    embedded back into the full candidate space, the polished objective
    value and the final gap of the Newton solve (NaN without a certificate,
    as for the empty support).
    """
    support = np.asarray(support).reshape(-1)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.shape[0] != problem.m:
            raise InvalidInputError("weight vector length does not match edge count")
    if support.size == 0 and not problem.plant.connected:
        raise InfeasibleSupportError("empty support on a disconnected plant")
    x, gap = np.zeros(problem.m), float("nan")
    if support.size:
        reduced = problem.restrict(support).with_gamma(0.0)  # checks support
        start = None if x0 is None else x0[support]
        try:
            x_red, rep = solve_newton(reduced, start,
                                      NewtonOptions(tol_gap=POLISH_TOL_GAP))
        except InfeasibleStartError as exc:
            raise InfeasibleSupportError(
                "support cannot make the closed loop positive definite"
            ) from exc
        x[support] = x_red
        gap = rep.final_gap
    return x, Objective(problem).value(x), gap


def reweight_update(x) -> np.ndarray:
    """Penalty weights inversely proportional to the current magnitudes."""
    return 1.0 / (np.abs(np.asarray(x, dtype=float)) + REWEIGHT_EPS)


def reweighted_path(problem: Problem, gammas, opts=None):
    """Path-following solves with iteratively reweighted penalties.

    The unpenalized solution initializes the weights; each subsequent gamma is
    warm-started from the previous solution and followed by a weight update.
    The solver is the one ``opts`` pick (see :func:`sweep`): proximal Newton
    by default.  Returns a list of ``(gamma, x)``.
    """
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    if np.any(np.diff(gammas) < 0):
        raise InvalidInputError("gammas must be ascending")
    x_c, _ = solve_centralized(problem, opts)
    return [(g, x) for g, x, _, _ in
            _gamma_path(problem, gammas, opts, x_c, True)]


def _gamma_path(problem: Problem, gammas, opts, x_c, reweight: bool):
    """Solve each gamma in turn; yields ``(gamma, x, iterations, seconds)``.

    Each solve starts at the previous solution, the first at the
    unpenalized solution ``x_c``: the pathwise order of Friedman, Hastie
    and Tibshirani (J. Stat. Softw. 2010).  With ``reweight`` each problem
    carries the per-edge penalty weights :func:`reweight_update` of the same
    previous solution.
    """
    x_prev = x_c
    for g in gammas:
        t0 = time.perf_counter()
        w = reweight_update(x_prev) if reweight else None
        x, rep = _solve(problem.with_gamma(float(g), w), x_prev, opts)
        yield float(g), x, rep.iterations, time.perf_counter() - t0
        x_prev = x


def sweep(problem: Problem, gammas, opts=None,
          use_reweighting: bool = False) -> list[TradeoffPoint]:
    """Tradeoff curve: solve, threshold, polish and normalize for each gamma.

    The type of ``opts`` picks the solver: ``ProxGradOptions`` run proximal
    gradient (projected if resistive, ISTA if signed), ``NewtonOptions`` or
    None proximal Newton; anything else is invalid input.

    The gammas are solved in the given order, each warm-started from the
    previous point's solution and the first from the centralized one (see
    :func:`_gamma_path`).  Each support is polished from its own point's
    solve, the thresholded design whose ``J_sparse`` is recorded, so
    ``J_polished <= J_sparse`` holds by descent.  A support met again in
    the same sweep reuses its first polish, so equal supports get bit-equal
    ``J_polished``.
    """
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    if use_reweighting and np.any(np.diff(gammas) < 0):
        raise InvalidInputError("gammas must be ascending")
    obj = Objective(problem)
    x_c, _ = solve_centralized(problem, opts)
    J_c = obj.value(x_c)
    card_c = support(x_c).size

    polished = {}  # support bytes -> (J_polished, polish_gap)
    points = []
    for g, x, iters, solve_s in _gamma_path(problem, gammas, opts, x_c,
                                            use_reweighting):
        t0 = time.perf_counter()
        edges = support(x)
        x_sparse = np.zeros(problem.m)
        x_sparse[edges] = x[edges]
        J_sparse = obj.value(x_sparse)
        key = edges.tobytes()
        if key not in polished:
            polished[key] = polish(problem, edges, x)[1:]
        J_pol, gap = polished[key]
        card = int(edges.size)
        points.append(TradeoffPoint(
            gamma=g,
            cardinality=card,
            J_sparse=J_sparse,
            J_polished=J_pol,
            rel_performance_loss=(J_pol - J_c) / J_c,
            rel_cardinality=card / card_c if card_c else float("nan"),
            iterations=iters,
            wall_time=solve_s + time.perf_counter() - t0,
            polish_gap=gap,
        ))
    return points
