"""Dual certificates: dual objective, feasible dual points, gap and residuals.

The dual of the design problem maximizes
``2 trace((Q_p^{1/2} Y Q_p^{1/2})^{1/2}) - <Y, G_p>`` over symmetric ``Y``
with ``Y 1 = 1`` subject to a bound on ``diag(E^T (Y - R) E)``.  A primal
iterate yields ``Y = G^-1 Q_p G^-1``; when it violates the dual bound it is
blended with ``(1/n) 11^T`` by the largest admissible factor ``beta``, which
keeps ``Y 1 = 1`` and restores feasibility for scalar control weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import CertificateInvalidError, CertificateUnavailableError
from .graphs import Problem
from .objective import Objective, ObjectiveState, QpMatrix, edge_quad_diag

#: sign tolerance on multiplier components
_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class DualCertificate:
    """Dual-feasible point with gap and residuals for one primal iterate.

    For resistive problems ``y_minus``, ``r_d_minus`` are None and ``y_plus``
    holds the single multiplier vector.
    """

    Y: np.ndarray = field(repr=False)
    beta: float
    Y_hat: np.ndarray = field(repr=False)
    y_plus: np.ndarray
    y_minus: np.ndarray | None
    gap: float
    r_p: np.ndarray
    r_d_plus: np.ndarray
    r_d_minus: np.ndarray | None
    primal: float
    dual: float

    @property
    def rd_norm(self) -> float:
        r = float(np.max(np.abs(self.r_d_plus), initial=0.0))
        if self.r_d_minus is not None:
            r = max(r, float(np.max(np.abs(self.r_d_minus), initial=0.0)))
        return r


def dual_objective(Y: np.ndarray, qp: QpMatrix, G_p: np.ndarray) -> float:
    """Dual value ``2 trace((Q_p^{1/2} Y Q_p^{1/2})^{1/2}) - <Y, G_p>``.

    The trace needs only the spectrum of ``Q_p^{1/2} Y Q_p^{1/2}``, which it
    takes from ``C^T Y C`` with ``C`` the Cholesky factor of ``Q_p``:
    ``C = Q_p^{1/2} U`` with ``U`` orthogonal, so the two are similar.
    """
    S = qp.chol.T @ Y @ qp.chol
    lam = scipy.linalg.eigh(0.5 * (S + S.T), eigvals_only=True)
    return float(2.0 * np.sum(np.sqrt(np.clip(lam, 0.0, None))) - np.sum(Y * G_p))


def _gamma_vector(problem: Problem, weights) -> np.ndarray:
    g = np.full(problem.m, problem.gamma)
    if weights is not None:
        g = g * np.asarray(weights, dtype=float).reshape(-1)
    return g


def make_dual_feasible(Y: np.ndarray, problem: Problem, weights=None):
    """Blend ``Y`` toward ``(1/n) 11^T`` until the dual bound holds.

    Returns ``(Y_hat, beta)`` with ``beta`` the exact bound value capped at 1.
    Requires a scalar control weight; the blending preserves ``Y 1 = 1``.
    """
    r = problem.scalar_r
    if r is None:
        raise CertificateUnavailableError("dual certificates require R = r I")
    d = edge_quad_diag(Y, problem.candidates.pairs) - 2.0 * r
    gam = _gamma_vector(problem, weights)
    if problem.m == 0:
        beta = 1.0
    else:
        mag = d if problem.resistive else np.abs(d)
        denom = mag + 2.0 * r
        with np.errstate(divide="ignore"):
            bounds = np.where(denom > 0, (gam + 2.0 * r) / denom, np.inf)
        beta = float(min(1.0, bounds.min()))
    n = problem.n
    Y_hat = beta * Y + ((1.0 - beta) / n) * np.ones((n, n))
    return Y_hat, beta


def multipliers(Y_hat: np.ndarray, problem: Problem, weights=None):
    """Multipliers of the elementwise constraints, from a dual-feasible point."""
    r = problem.scalar_r
    if r is None:
        raise CertificateUnavailableError("dual certificates require R = r I")
    d_hat = edge_quad_diag(Y_hat, problem.candidates.pairs) - 2.0 * r
    gam = _gamma_vector(problem, weights)
    if problem.resistive:
        y = gam - d_hat
        if y.size and y.min() < -_SIGN_TOL:
            raise CertificateInvalidError(f"negative multiplier {y.min():.3e}")
        return np.clip(y, 0.0, None)
    y_plus = gam - d_hat
    y_minus = gam + d_hat
    worst = min(y_plus.min(initial=0.0), y_minus.min(initial=0.0))
    if worst < -_SIGN_TOL:
        raise CertificateInvalidError(f"negative multiplier {worst:.3e}")
    return np.clip(y_plus, 0.0, None), np.clip(y_minus, 0.0, None)


def duality_gap(x, y_plus, y_minus=None) -> float:
    """Gap ``y_+^T x_+ + y_-^T x_-`` (signed) or ``y^T x`` (resistive)."""
    x = np.asarray(x, dtype=float)
    if y_minus is None:
        return float(y_plus @ x)
    x_plus = np.clip(x, 0.0, None)
    x_minus = np.clip(-x, 0.0, None)
    return float(y_plus @ x_plus + y_minus @ x_minus)


def residuals(x, Y_in, Y_hat, y, problem: Problem, weights=None):
    """Primal and dual residuals used as stopping criteria.

    Signed problems: ``y`` is ``(y_plus, y_minus)`` and the dual residuals are
    the defects of the multiplier identities at ``Y_hat`` (identically zero
    when the multipliers come from the same ``Y_hat``).  Resistive problems:
    ``y`` is a single vector and the residual measures the certificate against
    the uncorrected ``Y(x)``.
    """
    r = problem.scalar_r
    if r is None:
        raise CertificateUnavailableError("dual certificates require R = r I")
    gam = _gamma_vector(problem, weights)
    x = np.asarray(x, dtype=float)
    if problem.resistive:
        d = edge_quad_diag(Y_in, problem.candidates.pairs) - 2.0 * r
        r_d = gam - d - y
        r_p = np.zeros_like(x)
        return r_p, r_d
    y_plus, y_minus = y
    d_hat = edge_quad_diag(Y_hat, problem.candidates.pairs) - 2.0 * r
    x_plus = np.clip(x, 0.0, None)
    x_minus = np.clip(-x, 0.0, None)
    r_p = x - x_plus + x_minus
    r_d_plus = gam - d_hat - y_plus
    r_d_minus = gam + d_hat - y_minus
    return r_p, r_d_plus, r_d_minus


def certify(problem: Problem, objective: Objective, state: ObjectiveState,
            weights=None) -> DualCertificate:
    """Full certificate at a feasible iterate.

    Raises CertificateUnavailableError for non-scalar control weights and
    CertificateInvalidError when the blended point fails its sign checks
    (callers then fall back to objective-change stopping).
    """
    Y = state.Y
    Y_hat, beta = make_dual_feasible(Y, problem, weights)
    gam = _gamma_vector(problem, weights)
    x = state.x
    primal = float(state.h2 + objective.lin @ x + gam @ np.abs(x))
    dual = dual_objective(Y_hat, objective.qp, problem.plant.G)
    # The multiplier products of duality_gap only equal the primal/dual
    # difference once the blending factor reaches 1; before that they can
    # vanish at non-optimal points, so the certificate gap is taken directly.
    gap = primal - dual
    if problem.resistive:
        y = multipliers(Y_hat, problem, weights)
        r_p, r_d = residuals(x, Y, Y_hat, y, problem, weights)
        return DualCertificate(Y, beta, Y_hat, y, None, gap, r_p, r_d, None,
                               primal, dual)
    y_plus, y_minus = multipliers(Y_hat, problem, weights)
    r_p, r_d_plus, r_d_minus = residuals(
        x, Y, Y_hat, (y_plus, y_minus), problem, weights
    )
    return DualCertificate(Y, beta, Y_hat, y_plus, y_minus, gap, r_p,
                           r_d_plus, r_d_minus, primal, dual)


def certify_or_none(problem: Problem, objective: Objective,
                    state: ObjectiveState, weights=None) -> DualCertificate | None:
    """:func:`certify`, or None when no certificate is available or valid."""
    try:
        return certify(problem, objective, state, weights)
    except (CertificateUnavailableError, CertificateInvalidError):
        return None
