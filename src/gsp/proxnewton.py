"""Second-order solver: quadratic model minimized by cyclic coordinate descent.

Each outer iteration materializes the dense inverse of the closed-loop matrix
(coordinate updates need random entry access), builds the active set, runs
cyclic coordinate descent with closed-form scalar updates to approximate the
Newton direction, and backtracks with a generalized Armijo rule.  The running
Hessian-direction product is maintained by rank-one corrections so the dense
m-by-m Hessian is never formed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .duality import _gamma_vector, certify_or_none
from .errors import (
    DegenerateCurvatureError,
    InfeasiblePointError,
    InfeasibleStartError,
    InvalidInputError,
    LineSearchError,
)
from .graphs import Problem
from .objective import HESSIAN_SCALE, Objective, edge_quad_diag
from .proxgrad import SolveReport, _finish, soft_threshold


@dataclass
class NewtonOptions:
    """Tuning knobs for the proximal Newton solver."""

    max_outer: int = 50
    cd_sweeps_max: int = 100
    cd_tol: float | None = None  # None: 1e-8 * max(1, |grad|_inf)
    sigma: float = 0.01  # Armijo constant
    backtrack_shrink: float = 0.5
    active_eps_factor: float = 1e-4
    tol_gap: float = 1e-4
    tol_rd: float = 1e-3
    max_backtracks: int = 60

    def __post_init__(self):
        if not 0 < self.sigma < 0.5:
            raise InvalidInputError("sigma must lie in (0, 0.5)")
        if not 0 < self.backtrack_shrink < 1:
            raise InvalidInputError("backtrack_shrink must lie in (0, 1)")
        if min(self.max_outer, self.cd_sweeps_max, self.active_eps_factor,
               self.tol_gap, self.tol_rd) <= 0:
            raise InvalidInputError("options must be positive")


def active_set(x_bar, grad, gamma_vec, eps_vec, resistive: bool) -> np.ndarray:
    """Indices allowed to move in the coordinate-descent subproblem.

    ``grad`` is the gradient of the smooth part: the plain objective gradient
    for signed problems, the penalized one for resistive problems.
    """
    x_bar = np.asarray(x_bar)
    grad = np.asarray(grad)
    at_zero = x_bar == 0.0
    if resistive:
        inactive = at_zero & (grad >= 0.0)
    else:
        inactive = at_zero & (np.abs(grad) < gamma_vec - eps_vec)
    return np.flatnonzero(~inactive)


def cd_direction(pairs, Y, Ginv, grad, x_bar, gamma_vec, active,
                 opts: NewtonOptions, resistive: bool):
    """Approximate Newton direction by cyclic sweeps over active coordinates.

    ``grad`` follows the same convention as in :func:`active_set`.  After each
    scalar update the running product of the Hessian with the direction is
    corrected in place from two incidence-sparse columns.
    """
    m = x_bar.shape[0]
    xt = np.zeros(m)
    act = np.asarray(active, dtype=np.intp)
    if act.size == 0:
        return xt

    ai, aj = pairs[act, 0], pairs[act, 1]
    sub = pairs[act]
    a = HESSIAN_SCALE * edge_quad_diag(Y, sub) * edge_quad_diag(Ginv, sub)
    usable = a > 0.0
    if not usable.any():
        raise DegenerateCurvatureError("no positive-curvature coordinate")

    cd_tol = opts.cd_tol
    if cd_tol is None:
        cd_tol = 1e-8 * max(1.0, float(np.max(np.abs(grad), initial=0.0)))

    hv = np.zeros(act.size)  # (hessian @ xt) restricted to active coordinates
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
                colY = uY[ai] - uY[aj]
                colG = uG[ai] - uG[aj]
                hv += (delta * HESSIAN_SCALE) * colY * colG
                max_step = max(max_step, abs(delta))
        if max_step <= cd_tol:
            break
    return xt


def line_search(objective: Objective, gamma_vec, state, xt,
                opts: NewtonOptions, resistive: bool):
    """Backtracking with a generalized Armijo rule.

    Returns ``(alpha, x_new, cl_new)``; raises LineSearchError when no step
    is accepted within the backtrack budget.
    """
    x_bar = state.x
    l1_bar = float(gamma_vec @ np.abs(x_bar))  # resistive iterates are non-negative
    f_bar = state.J + l1_bar
    if resistive:
        slope = float((state.grad + gamma_vec) @ xt)
    else:
        slope = float(state.grad @ xt) + float(gamma_vec @ np.abs(x_bar + xt)) - l1_bar

    alpha = 1.0
    for _ in range(opts.max_backtracks + 1):
        x_new = x_bar + alpha * xt
        if resistive and x_new.size and x_new.min() < 0.0:
            alpha *= opts.backtrack_shrink
            continue
        cl = objective.closed_loop(x_new)
        if cl.positive_definite:
            f_new = objective.value_at(cl, x_new) + float(gamma_vec @ np.abs(x_new))
            if f_new <= f_bar + alpha * opts.sigma * slope + 1e-12:
                return alpha, x_new, cl
        alpha *= opts.backtrack_shrink
    raise LineSearchError("no acceptable step within the backtrack budget")


def solve_newton(problem: Problem, x0=None, opts: NewtonOptions | None = None,
                 weights=None):
    """Proximal Newton solve; returns ``(x, SolveReport)``."""
    opts = opts or NewtonOptions()
    obj = Objective(problem)
    gam = _gamma_vector(problem, weights)
    eps = opts.active_eps_factor * gam
    t0 = time.perf_counter()

    if x0 is None:
        x0 = np.zeros(problem.m) if problem.resistive else np.ones(problem.m)
    x = np.asarray(x0, dtype=float).reshape(-1)
    if problem.resistive and x.size and x.min() < 0:
        raise InvalidInputError("resistive starting point must be non-negative")
    try:
        st = obj.state(x)
    except InfeasiblePointError as exc:
        raise InfeasibleStartError(str(exc)) from exc

    report = SolveReport()
    resistive = problem.resistive
    pairs = obj.pairs

    def composite(state):
        return state.J + float(gam @ np.abs(state.x))

    report.objective_trace.append(composite(st))
    prev_F = report.objective_trace[0]
    flat_count = 0

    for k in range(1, opts.max_outer + 1):
        cert = certify_or_none(problem, obj, st, weights)
        if cert is not None:
            report.gap_trace.append(cert.gap)
            if cert.gap <= opts.tol_gap and cert.rd_norm <= opts.tol_rd:
                report.status = "converged"
                return x, _finish(report, t0, cert)

        if problem.m == 0:
            report.status = "converged"
            return x, _finish(report, t0, cert)

        Ginv = obj.closed_loop_inverse(st)
        smooth_grad = st.grad + gam if resistive else st.grad
        act = active_set(x, smooth_grad, gam, eps, resistive)
        xt = cd_direction(pairs, st.Y, Ginv, smooth_grad, x, gam, act,
                          opts, resistive)
        if not np.any(xt):
            # a zero Newton direction means the iterate solves its own model
            report.status = "converged"
            report.iterations = k - 1
            return x, _finish(report, t0, cert)

        alpha, x, cl = line_search(obj, gam, st, xt, opts, resistive)
        st = obj.state(x, cl)
        F = composite(st)
        report.iterations = k
        report.step_trace.append(alpha)
        report.objective_trace.append(F)

        if abs(F - prev_F) <= 1e-12 * max(1.0, abs(F)):
            flat_count += 1
            # no usable certificate (non-scalar R, or gamma = 0 where the
            # blended point fails its sign checks): stop on a flat objective
            if flat_count >= 3 and cert is None:
                report.status = "converged"
                cert = certify_or_none(problem, obj, st, weights)
                return x, _finish(report, t0, cert)
        else:
            flat_count = 0
        prev_F = F

    cert = certify_or_none(problem, obj, st, weights)
    if cert is not None and cert.gap <= opts.tol_gap and cert.rd_norm <= opts.tol_rd:
        report.status = "converged"
    else:
        report.status = "max_iters"
    return x, _finish(report, t0, cert)
