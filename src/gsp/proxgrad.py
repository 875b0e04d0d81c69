"""First-order solvers: soft-thresholding iteration and projected gradient.

Both are one proximal-gradient loop with Barzilai-Borwein initial steps and
backtracking; only the prox and the acceptance rule depend on the sign of the
edge weights.  Signed problems take soft-thresholding and the monotone
majorization test (the closed loop must stay positive definite and the
quadratic upper model must hold), so the objective trace is monotone.
Resistive problems take the projection onto ``x >= 0`` and the non-monotone
sufficient-decrease test against the largest of the last few objective values
(SpaRSA, Wright, Nowak and Figueiredo 2009).  A trial rejected at the
smallest allowed step raises LineSearchError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .duality import DualCertificate, _gamma_vector, certify
from .errors import (
    CertificateInvalidError,
    CertificateUnavailableError,
    InfeasiblePointError,
    InfeasibleStartError,
    InvalidInputError,
    LineSearchError,
)
from .graphs import Problem
from .objective import Objective


@dataclass
class ProxGradOptions:
    """Tuning knobs for the first-order solvers."""

    max_iters: int = 10000
    alpha_fallback: float = 1.0  # initial step when the BB estimate is undefined
    backtrack_shrink: float = 0.5
    alpha_min: float = 1e-12
    alpha_max: float = 1e12
    tol_gap: float = 1e-4
    tol_rd: float = 1e-3
    nonmonotone_memory: int = 10  # resistive only
    report_every: int = 10  # certification interval

    def __post_init__(self):
        if not 0 < self.alpha_min <= self.alpha_max:
            raise InvalidInputError("need 0 < alpha_min <= alpha_max")
        if not 0 < self.backtrack_shrink < 1:
            raise InvalidInputError("backtrack_shrink must lie in (0, 1)")
        if self.tol_gap <= 0 or self.tol_rd <= 0:
            raise InvalidInputError("tolerances must be positive")
        if self.max_iters < 1 or self.report_every < 1:
            raise InvalidInputError("max_iters and report_every must be at least 1")
        if not self.alpha_min <= self.alpha_fallback <= self.alpha_max:
            raise InvalidInputError("alpha_fallback must lie in [alpha_min, alpha_max]")


@dataclass
class SolveReport:
    """Iterate history and termination summary of one solver run."""

    iterations: int = 0
    objective_trace: list = field(default_factory=list)
    step_trace: list = field(default_factory=list)
    gap_trace: list = field(default_factory=list)
    status: str = "max_iters"
    wall_time: float = 0.0
    final_gap: float = float("nan")
    final_rd_norm: float = float("nan")
    certificate: DualCertificate | None = None


def soft_threshold(v, kappa):
    """Elementwise shrinkage ``sign(v) max(|v| - kappa, 0)``."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.clip(np.abs(v) - kappa, 0.0, None)


def bb_step(x_k, x_prev, g_k, g_prev, opts: ProxGradOptions) -> float:
    """Secant step estimate, clamped; falls back on degenerate curvature."""
    dx = np.asarray(x_k) - np.asarray(x_prev)
    dg = np.asarray(g_k) - np.asarray(g_prev)
    denom = float(dx @ dg)
    if not np.isfinite(denom) or denom <= 0.0:
        return opts.alpha_fallback
    alpha = float(dx @ dx) / denom
    if not np.isfinite(alpha):
        return opts.alpha_fallback
    return float(np.clip(alpha, opts.alpha_min, opts.alpha_max))


class _Certifier:
    """Runs certification with graceful degradation to objective-change stops."""

    def __init__(self, problem, objective, weights):
        self.problem = problem
        self.objective = objective
        self.weights = weights
        self.available = problem.scalar_r is not None

    def __call__(self, state):
        if not self.available:
            return None
        try:
            return certify(self.problem, self.objective, state, self.weights)
        except (CertificateUnavailableError, CertificateInvalidError):
            return None


def _finish(report, t0, cert):
    report.wall_time = time.perf_counter() - t0
    if cert is not None:
        report.final_gap = cert.gap
        report.final_rd_norm = cert.rd_norm
        report.certificate = cert
    return report


def _prox_gradient(problem: Problem, x, opts: ProxGradOptions | None,
                   weights, resistive: bool):
    """The proximal-gradient loop behind :func:`solve_ista` and
    :func:`solve_projected`; the per-mode rules are fixed before it starts.

    ``grad`` is the gradient of the smooth part, as in proximal Newton: the
    objective gradient for signed problems, the penalized one for resistive
    problems.  Raises LineSearchError when a trial is rejected at
    ``opts.alpha_min``.
    """
    opts = opts or ProxGradOptions()
    obj = Objective(problem)
    gam = _gamma_vector(problem, weights)
    t0 = time.perf_counter()
    try:
        st = obj.state(x)
    except InfeasiblePointError as exc:
        raise InfeasibleStartError(str(exc)) from exc

    if resistive:
        def penalty(z):
            return float(gam @ z)

        def smooth_grad(state):
            return state.grad + gam

        def prox(v, alpha):
            return np.clip(v, 0.0, None)

        def accepts(st, f_ref, trial, J_trial, delta, step_sq, alpha):
            # non-monotone sufficient decrease against the recent maximum
            return J_trial + penalty(trial) <= f_ref - 1e-4 * step_sq / alpha
    else:
        def penalty(z):
            return float(gam @ np.abs(z))

        def smooth_grad(state):
            return state.grad

        def prox(v, alpha):
            return soft_threshold(v, alpha * gam)

        def accepts(st, f_ref, trial, J_trial, delta, step_sq, alpha):
            # the quadratic upper model at x majorizes the trial point
            return J_trial <= (st.J + float(st.grad @ delta)
                               + step_sq / (2.0 * alpha) + 1e-12)

    certifier = _Certifier(problem, obj, weights)
    report = SolveReport()
    F = st.J + penalty(x)
    grad = smooth_grad(st)
    report.objective_trace.append(F)
    recent = [F]
    x_prev = g_prev = None
    flat_count = 0

    if problem.m == 0:
        report.status = "converged"
        return x, _finish(report, t0, certifier(st))

    for k in range(1, opts.max_iters + 1):
        if x_prev is None:
            alpha = opts.alpha_fallback
        else:
            alpha = bb_step(x, x_prev, grad, g_prev, opts)

        f_ref = max(recent)
        while True:
            trial = prox(x - alpha * grad, alpha)
            delta = trial - x
            step_sq = float(delta @ delta)
            if step_sq == 0.0:
                trial_cl = st.cl
                break
            trial_cl = obj.closed_loop(trial)
            if trial_cl.positive_definite and accepts(
                    st, f_ref, trial, obj.value_at(trial_cl, trial), delta,
                    step_sq, alpha):
                break
            if alpha <= opts.alpha_min:
                raise LineSearchError(
                    f"trial step rejected at alpha_min={opts.alpha_min:g}")
            alpha = max(alpha * opts.backtrack_shrink, opts.alpha_min)

        x_prev, g_prev = x, grad
        x = trial
        st = obj.state(x, trial_cl)
        F_new = st.J + penalty(x)
        grad = smooth_grad(st)
        recent.append(F_new)
        if len(recent) > opts.nonmonotone_memory:
            recent.pop(0)
        report.iterations = k
        report.step_trace.append(alpha)
        report.objective_trace.append(F_new)

        # signed only: resistive runs stop on a certificate or a fixed point
        if not resistive and abs(F_new - F) <= 1e-10 * max(1.0, abs(F_new)):
            flat_count += 1
        else:
            flat_count = 0
        F = F_new

        # an exact fixed point of the prox map is optimal for the convex problem
        stationary = step_sq == 0.0
        if k % opts.report_every == 0 or stationary or flat_count >= 5:
            cert = certifier(st)
            if cert is not None:
                report.gap_trace.append(cert.gap)
                if stationary or (cert.gap <= opts.tol_gap
                                  and cert.rd_norm <= opts.tol_rd):
                    report.status = "converged"
                    return x, _finish(report, t0, cert)
            elif flat_count >= 5 or stationary:
                report.status = "converged"
                return x, _finish(report, t0, None)

    report.status = "max_iters"
    return x, _finish(report, t0, certifier(st))


def solve_ista(problem: Problem, x0=None, opts: ProxGradOptions | None = None,
               weights=None):
    """Soft-thresholding iteration for the signed problem.

    Returns ``(x, SolveReport)``.  ``weights`` optionally replaces the uniform
    penalty with a per-edge weighted one.
    """
    if problem.resistive:
        raise InvalidInputError("solve_ista handles the signed problem; "
                                "use solve_projected for resistive problems")
    if x0 is None:
        x0 = np.ones(problem.m)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    return _prox_gradient(problem, x0, opts, weights, resistive=False)


def solve_projected(problem: Problem, x0=None,
                    opts: ProxGradOptions | None = None, weights=None):
    """Projected gradient with non-monotone BB steps for resistive problems."""
    if not problem.resistive:
        raise InvalidInputError("solve_projected requires a resistive problem")
    if x0 is None:
        x0 = np.zeros(problem.m)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size and x0.min() < 0:
        raise InvalidInputError("resistive starting point must be non-negative")
    return _prox_gradient(problem, x0, opts, weights, resistive=True)
