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

The step recipe is fixed by module constants, read at call time:
``ALPHA_FALLBACK`` (the first step, and any step whose BB estimate is
undefined), the BB clamp ``[ALPHA_MIN, ALPHA_MAX]``, the backtracking factor
``BACKTRACK_SHRINK``, the number of recent objective values the resistive
test compares against, ``NONMONOTONE_MEMORY``, and the certification
interval ``CERTIFY_EVERY``.  The problem carries its penalty: the loop
steps along :meth:`~gsp.graphs.Problem.smooth_grad`, adds
:meth:`~gsp.graphs.Problem.l1` to the objective and thresholds by
``problem.penalty``.

The frame around the loop is shared with proximal Newton: :func:`_start`
(default start ``x = 1`` signed and ``x = 0`` resistive, the non-negative
start check, the objective and first state ``(obj, st)`` or
InfeasibleStartError), the certificate test
:func:`_certified` and :func:`_finish`, which sets the status.  A run that
stops by its own rule is ``converged``; one that uses up its iterations is
certified once more and is ``converged`` only if that certificate passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .duality import DualCertificate, certify_or_none
from .errors import (
    InfeasiblePointError,
    InfeasibleStartError,
    InvalidInputError,
    LineSearchError,
)
from .graphs import Problem
from .objective import Objective

#: The step recipe; see the module docstring.
ALPHA_FALLBACK = 1.0
ALPHA_MIN = 1e-12
ALPHA_MAX = 1e12
BACKTRACK_SHRINK = 0.5
NONMONOTONE_MEMORY = 10
#: Certification interval of the loop, in iterations.
CERTIFY_EVERY = 10


def _check_options(opts) -> None:
    """Reject solver options that would break a loop: certificate
    tolerances that are not positive and finite (a NaN one would never
    certify) and fewer than one iteration."""
    if not (0.0 < opts.tol_gap < np.inf and 0.0 < opts.tol_rd < np.inf):
        raise InvalidInputError("tolerances must be positive and finite")
    if opts.max_iters < 1:
        raise InvalidInputError("max_iters must be at least 1")


@dataclass
class ProxGradOptions:
    """Tuning knobs for the first-order solvers."""

    max_iters: int = 10000
    tol_gap: float = 1e-4
    tol_rd: float = 1e-3

    def __post_init__(self):
        _check_options(self)


@dataclass
class SolveReport:
    """Iterate history and termination summary of one solver run."""

    iterations: int = 0
    objective_trace: list = field(default_factory=list)
    status: str = "max_iters"
    wall_time: float = 0.0
    certificate: DualCertificate | None = None

    @property
    def final_gap(self) -> float:
        """Gap of the final certificate; NaN without one."""
        return float("nan") if self.certificate is None else self.certificate.gap

    @property
    def final_rd_norm(self) -> float:
        """Dual residual of the final certificate; NaN without one."""
        return float("nan") if self.certificate is None else self.certificate.rd_norm


def soft_threshold(v, kappa):
    """Elementwise shrinkage ``sign(v) max(|v| - kappa, 0)``."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.clip(np.abs(v) - kappa, 0.0, None)


def bb_step(x_k, x_prev, g_k, g_prev) -> float:
    """Secant step estimate, clamped; falls back on degenerate curvature."""
    dx = np.asarray(x_k) - np.asarray(x_prev)
    dg = np.asarray(g_k) - np.asarray(g_prev)
    denom = float(dx @ dg)
    if not np.isfinite(denom) or denom <= 0.0:
        return ALPHA_FALLBACK
    alpha = float(dx @ dx) / denom
    if not np.isfinite(alpha):
        return ALPHA_FALLBACK
    return float(np.clip(alpha, ALPHA_MIN, ALPHA_MAX))


def _start(problem: Problem, x0):
    """``(obj, st)`` of a solve from ``x0`` (None: the default start):
    objective and first state, whose ``st.x`` is the iterate.  Raises
    InvalidInputError for a negative resistive start."""
    if x0 is None:
        x0 = np.zeros(problem.m) if problem.resistive else np.ones(problem.m)
    x = np.asarray(x0, dtype=float).reshape(-1)
    if problem.resistive and x.size and x.min() < 0:
        raise InvalidInputError("resistive starting point must be non-negative")
    obj = Objective(problem)
    try:
        return obj, obj.state(x)
    except InfeasiblePointError as exc:
        raise InfeasibleStartError(str(exc)) from exc


def _certified(cert: DualCertificate | None, opts) -> bool:
    """The certificate test both solvers stop on, at ``opts``' tolerances."""
    return (cert is not None and cert.gap <= opts.tol_gap
            and cert.rd_norm <= opts.tol_rd)


def _finish(report, t0, cert, opts=None):
    """Stamp certificate, wall time and status on ``report``.  A run that
    used up its iterations passes its ``opts``: it is ``converged`` only if
    ``cert`` passes :func:`_certified`, otherwise ``max_iters``."""
    converged = opts is None or _certified(cert, opts)
    report.status = "converged" if converged else "max_iters"
    report.wall_time = time.perf_counter() - t0
    report.certificate = cert
    return report


def _prox_gradient(problem: Problem, x0, opts: ProxGradOptions | None):
    """The proximal-gradient loop behind :func:`solve_ista` and
    :func:`solve_projected`; the per-mode rules are fixed before it starts.

    ``grad`` is the gradient of the smooth part,
    :meth:`~gsp.graphs.Problem.smooth_grad`, as in proximal Newton.  Raises
    LineSearchError when a trial is rejected at ``ALPHA_MIN``.
    """
    opts = opts or ProxGradOptions()
    t0 = time.perf_counter()
    obj, st = _start(problem, x0)
    x = st.x
    resistive = problem.resistive

    if resistive:
        def prox(v, alpha):
            return np.clip(v, 0.0, None)

        def accepts(st, f_ref, trial, J_trial, delta, step_sq, alpha):
            # non-monotone sufficient decrease against the recent maximum
            return J_trial + problem.l1(trial) <= f_ref - 1e-4 * step_sq / alpha
    else:
        def prox(v, alpha):
            return soft_threshold(v, alpha * problem.penalty)

        def accepts(st, f_ref, trial, J_trial, delta, step_sq, alpha):
            # the quadratic upper model at x majorizes the trial point
            return J_trial <= (st.J + float(st.grad @ delta)
                               + step_sq / (2.0 * alpha) + 1e-12)

    report = SolveReport()
    F = st.J + problem.l1(x)
    grad = problem.smooth_grad(st.grad)
    report.objective_trace.append(F)
    recent = [F]
    x_prev = g_prev = None
    flat_count = 0

    if problem.m == 0:
        return x, _finish(report, t0, certify_or_none(obj, st))

    for k in range(1, opts.max_iters + 1):
        if x_prev is None:
            alpha = ALPHA_FALLBACK
        else:
            alpha = bb_step(x, x_prev, grad, g_prev)

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
            if alpha <= ALPHA_MIN:
                raise LineSearchError(
                    f"trial step rejected at ALPHA_MIN={ALPHA_MIN:g}")
            alpha = max(alpha * BACKTRACK_SHRINK, ALPHA_MIN)

        x_prev, g_prev = x, grad
        x = trial
        st = obj.state(x, trial_cl)
        F_new = st.J + problem.l1(x)
        grad = problem.smooth_grad(st.grad)
        recent.append(F_new)
        if len(recent) > NONMONOTONE_MEMORY:
            recent.pop(0)
        report.iterations = k
        report.objective_trace.append(F_new)

        # signed only: resistive runs stop on a certificate or a fixed point
        if not resistive and abs(F_new - F) <= 1e-10 * max(1.0, abs(F_new)):
            flat_count += 1
        else:
            flat_count = 0
        F = F_new

        # an exact fixed point of the prox map is optimal for the convex problem
        stationary = step_sq == 0.0
        if k % CERTIFY_EVERY == 0 or stationary or flat_count >= 5:
            cert = certify_or_none(obj, st)
            if cert is not None:
                if stationary or _certified(cert, opts):
                    return x, _finish(report, t0, cert)
            elif flat_count >= 5 or stationary:
                return x, _finish(report, t0, None)

    return x, _finish(report, t0, certify_or_none(obj, st), opts)


def solve_ista(problem: Problem, x0=None, opts: ProxGradOptions | None = None):
    """Soft-thresholding iteration for the signed problem, with its per-edge
    ``problem.penalty``.

    Returns ``(x, SolveReport)``.
    """
    if problem.resistive:
        raise InvalidInputError("solve_ista handles the signed problem; "
                                "use solve_projected for resistive problems")
    return _prox_gradient(problem, x0, opts)


def solve_projected(problem: Problem, x0=None,
                    opts: ProxGradOptions | None = None):
    """Projected gradient with non-monotone BB steps for resistive problems."""
    if not problem.resistive:
        raise InvalidInputError("solve_projected requires a resistive problem")
    return _prox_gradient(problem, x0, opts)
