"""Second-order solver: quadratic model minimized by cyclic coordinate descent.

Each outer iteration materializes the dense inverse of the closed-loop matrix
(coordinate updates need random entry access), builds the active set, runs
cyclic coordinate descent with closed-form scalar updates to approximate the
Newton direction, and backtracks with a generalized Armijo rule.  The running
Hessian-direction product is kept current by one BLAS ``axpy`` with the
moving coordinate's Hessian row, restricted to the active set.  A row is built
from ``Y`` and ``G^-1`` the first time its coordinate moves and cached for
later sweeps in one array of at most ``CD_CACHE_ELEMS`` entries, so neither
the dense m-by-m Hessian nor its full active block is ever formed.

The rest of the recipe is fixed by module constants, read at call time: the
signed active-set margin ``ACTIVE_EPS_FACTOR`` (a fraction of each edge's
penalty) and the line search's Armijo constant ``ARMIJO_SIGMA``, step factor
``BACKTRACK_SHRINK`` and budget ``MAX_BACKTRACKS``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy

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
from .proxgrad import SolveReport, _finish

#: Entries of the Hessian-row cache in :func:`cd_direction` (2 MB of
#: float64).  Kept small on purpose: a cache of the whole active block costs
#: resident memory on the rare calls with thousands of active coordinates,
#: where few coordinates move.
CD_CACHE_ELEMS = 1 << 18

#: The rest of the recipe; see the module docstring.
ACTIVE_EPS_FACTOR = 1e-4
ARMIJO_SIGMA = 0.01
BACKTRACK_SHRINK = 0.5
MAX_BACKTRACKS = 60


@dataclass
class NewtonOptions:
    """Tuning knobs for the proximal Newton solver."""

    max_outer: int = 50
    cd_sweeps_max: int = 100
    cd_tol: float | None = None  # None: 1e-8 * max(1, |grad|_inf)
    tol_gap: float = 1e-4
    tol_rd: float = 1e-3

    def __post_init__(self):
        if min(self.max_outer, self.cd_sweeps_max, self.tol_gap, self.tol_rd) <= 0:
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

    ``grad`` follows the same convention as in :func:`active_set`; ``active``
    holds distinct candidate indices.  After each nonzero scalar update the
    running product of the Hessian with the direction, restricted to the
    active set, gains ``delta`` times that coordinate's Hessian row, in place
    through one BLAS ``daxpy``.  The row is ``HESSIAN_SCALE`` times the
    elementwise product of two incidence-sparse factor rows, one from ``Y``
    and one from ``Ginv``; it is built the first time its coordinate moves
    and kept for later sweeps in one cache of at most ``CD_CACHE_ELEMS``
    entries.  Rows past that budget are rebuilt on every move.  The inputs
    are not modified.
    """
    m = x_bar.shape[0]
    xt = np.zeros(m)
    act = np.asarray(active, dtype=np.intp)
    if act.size == 0:
        return xt

    sub = pairs[act]
    ai, aj = sub[:, 0], sub[:, 1]
    a = HESSIAN_SCALE * edge_quad_diag(Y, sub) * edge_quad_diag(Ginv, sub)
    usable = a > 0.0
    if not usable.any():
        raise DegenerateCurvatureError("no positive-curvature coordinate")

    cd_tol = opts.cd_tol
    if cd_tol is None:
        cd_tol = 1e-8 * max(1.0, float(np.max(np.abs(grad), initial=0.0)))

    size = act.size
    cap = min(size, CD_CACHE_ELEMS // size)
    rows = np.empty((cap, size))
    slot = [-1] * size  # cache row of each coordinate, -1 while not cached
    cached = 0

    # the scalar loop runs on Python floats, much cheaper than numpy scalars
    # and the same IEEE double arithmetic
    coords = np.flatnonzero(usable).tolist()
    a, g = a.tolist(), grad[act].tolist()
    xb, gam = x_bar[act].tolist(), gamma_vec[act].tolist()
    ends = sub.tolist()
    d = [0.0] * size  # the direction on the active coordinates
    hv = np.zeros(size)  # (hessian @ xt) restricted to active coordinates
    for _ in range(opts.cd_sweeps_max):
        max_step = 0.0
        for t in coords:
            at = a[t]
            b = hv.item(t) + g[t]
            c = xb[t] + d[t]
            if resistive:
                z = c - b / at
                delta = -b / at if z >= 0.0 else -c
            else:
                v = c - b / at
                k = gam[t] / at
                delta = -c + (v - k if v > k else v + k if v < -k else 0.0)
            if delta != 0.0:
                d[t] += delta
                s = slot[t]
                if s >= 0:
                    row = rows[s]
                else:
                    p, q = ends[t]
                    uY = Y[:, p] - Y[:, q]
                    uG = Ginv[:, p] - Ginv[:, q]
                    row = (HESSIAN_SCALE * (uY[ai] - uY[aj])) * (uG[ai] - uG[aj])
                    if cached < cap:
                        rows[cached] = row
                        slot[t] = cached
                        cached += 1
                hv = daxpy(row, hv, a=delta)
                max_step = max(max_step, abs(delta))
        if max_step <= cd_tol:
            break
    xt[act] = d
    return xt


def line_search(objective: Objective, gamma_vec, state, xt, resistive: bool):
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
    for _ in range(MAX_BACKTRACKS + 1):
        x_new = x_bar + alpha * xt
        if resistive and x_new.size and x_new.min() < 0.0:
            alpha *= BACKTRACK_SHRINK
            continue
        cl = objective.closed_loop(x_new)
        if cl.positive_definite:
            f_new = objective.value_at(cl, x_new) + float(gamma_vec @ np.abs(x_new))
            if f_new <= f_bar + alpha * ARMIJO_SIGMA * slope + 1e-12:
                return alpha, x_new, cl
        alpha *= BACKTRACK_SHRINK
    raise LineSearchError("no acceptable step within the backtrack budget")


def solve_newton(problem: Problem, x0=None, opts: NewtonOptions | None = None,
                 weights=None):
    """Proximal Newton solve; returns ``(x, SolveReport)``."""
    opts = opts or NewtonOptions()
    obj = Objective(problem)
    gam = _gamma_vector(problem, weights)
    eps = ACTIVE_EPS_FACTOR * gam
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

        alpha, x, cl = line_search(obj, gam, st, xt, resistive)
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
