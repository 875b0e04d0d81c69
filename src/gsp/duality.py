"""Dual certificates: the dual objective and one certificate per iterate.

The dual of the design problem maximizes
``2 trace((Q_p^{1/2} Y Q_p^{1/2})^{1/2}) - <Y, G_p>`` over symmetric ``Y``
with ``Y 1 = 1`` subject to a bound on ``diag(E^T (Y - R) E)``, for any
control weight ``R``.  A primal iterate yields ``Y = G^-1 Q_p G^-1``; when
it violates the dual bound it is blended with ``(1/n) 11^T`` by the largest
admissible factor ``beta``, which keeps ``Y 1 = 1``.
As ``Q 1 = 0`` and ``G_p 1 = 1``, the all-ones vector is an eigenvector of
``Q_p``, ``G`` and ``Y`` with eigenvalue 1 and blending scales only the rest:
``xi^T Y_hat xi = beta xi^T Y xi`` and the dual value has the closed form of
:func:`dual_objective`.  :func:`certify` builds the multipliers with their
sign check, the gap and the dual residuals in one pass, without ``Y_hat``,
forming each edge vector in place once ``beta`` is known.
The per-edge penalty is the problem's own ``Problem.penalty``, built and
checked when the problem was built or derived, and the primal value's
penalty term is ``Problem.l1``, so a certificate builds and checks nothing
but the iterate's edge forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateInvalidError
from .graphs import Problem
from .objective import Objective, ObjectiveState, edge_quad_diag

#: sign tolerance on multiplier components
_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class DualCertificate:
    """Certificate of one primal iterate at the blended dual point
    ``Y_hat = beta Y + ((1 - beta)/n) 11^T``: the blending factor ``beta``,
    the multipliers (clipped at zero), dual residuals and gap.

    For resistive problems ``y_minus``, ``r_d_minus`` are None and ``y_plus``
    holds the single multiplier vector.
    """

    beta: float
    y_plus: np.ndarray
    y_minus: np.ndarray | None
    gap: float
    r_d_plus: np.ndarray
    r_d_minus: np.ndarray | None
    primal: float
    dual: float

    @property
    def rd_norm(self) -> float:
        """Largest absolute dual residual.  A signed residual is a
        multiplier's part below zero and :func:`certify` raises on any
        multiplier below -1e-12, so a signed ``rd_norm`` is at most 1e-12 by
        construction and ``tol_rd`` binds only resistive solves."""
        r = float(np.max(np.abs(self.r_d_plus), initial=0.0))
        if self.r_d_minus is not None:
            r = max(r, float(np.max(np.abs(self.r_d_minus), initial=0.0)))
        return r


def dual_objective(state: ObjectiveState, beta: float, G_p: np.ndarray) -> float:
    """Dual value ``2 trace((Q_p^{1/2} Y_hat Q_p^{1/2})^{1/2}) - <Y_hat, G_p>``
    at ``Y_hat = beta Y + ((1 - beta)/n) 11^T``, ``Y = state.Y``, ``beta > 0``.

    ``M = Q_p^{1/2} G^-1 Q_p^{1/2}`` is the PSD square root of
    ``Q_p^{1/2} Y Q_p^{1/2}``, with ``M 1 = 1`` and ``trace M = state.h2``.
    Blending keeps that unit eigenvalue and scales the others by ``beta``, and
    ``1^T G_p 1 = n``, so the value is
    ``2 (sqrt(beta) (h2 - 1) + 1) - beta <Y, G_p> - (1 - beta)``, exact up to
    the ``Q 1 = 0`` defect that :class:`~gsp.graphs.Problem` tolerates.
    """
    return float(2.0 * (np.sqrt(beta) * (state.h2 - 1.0) + 1.0)
                 - beta * np.vdot(state.Y, G_p) - (1.0 - beta))


def certify(problem: Problem, objective: Objective, state: ObjectiveState,
            weights=None) -> DualCertificate:
    """Certificate at a feasible iterate, built in one pass from ``state.Y``.

    The per-edge penalty is ``problem.penalty``; given ``weights``, the
    certificate is that of ``problem.with_gamma(problem.gamma, weights)``.
    The bound's edge forms ``xi^T R xi`` are ``objective.lin``.  Raises
    CertificateInvalidError when the blended point gives a negative
    multiplier (callers then fall back to objective-change stopping).
    """
    if weights is not None:
        problem = problem.with_gamma(problem.gamma, weights)
    gam = problem.penalty
    c = objective.lin
    q = edge_quad_diag(state.Y, problem.candidates.positions)
    d = q - c
    if problem.resistive:
        denom = d + c  # d is kept for the residual
    else:
        denom = np.abs(d, out=d)
        denom += c
    # each edge's largest admissible blend; one with denom <= 0 admits any
    bounds = np.divide(gam + c, denom, out=np.full(q.shape, np.inf),
                       where=denom > 0)
    beta = float(min(1.0, bounds.min(initial=np.inf)))
    del bounds, denom
    # the rest is formed in place: d_hat = beta q - c, as the blend center
    # has zero edge forms, then the multipliers before clipping (resistive
    # problems have y_plus only) and the residuals
    d_hat = q
    d_hat *= beta
    d_hat -= c
    y_minus = None if problem.resistive else gam + d_hat
    y_plus = np.subtract(gam, d_hat, out=d_hat)
    worst = min(y.min(initial=0.0) for y in (y_plus, y_minus) if y is not None)
    if worst < -_SIGN_TOL:
        raise CertificateInvalidError(f"negative multiplier {worst:.3e}")
    x = state.x
    primal = float(state.h2 + objective.lin @ x + problem.l1(x))
    dual = dual_objective(state, beta, problem.plant.G)
    # The multiplier products y_+^T x_+ + y_-^T x_- only equal the
    # primal/dual difference once the blending factor reaches 1; before that
    # they can vanish at non-optimal points, so the gap is taken directly.
    gap = primal - dual
    y_plus_c = np.clip(y_plus, 0.0, None)
    if y_minus is None:
        # the resistive residual is taken against the unblended Y
        r_d_plus = np.subtract(gam, d, out=d)
        r_d_plus -= y_plus_c
        return DualCertificate(beta, y_plus_c, None, gap, r_d_plus, None,
                               primal, dual)
    # signed residuals are the multiplier defects at Y_hat
    y_minus_c = np.clip(y_minus, 0.0, None)
    r_d_plus, r_d_minus = y_plus, y_minus
    r_d_plus -= y_plus_c
    r_d_minus -= y_minus_c
    return DualCertificate(beta, y_plus_c, y_minus_c, gap, r_d_plus, r_d_minus,
                           primal, dual)


def certify_or_none(objective: Objective,
                    state: ObjectiveState) -> DualCertificate | None:
    """:func:`certify` of ``objective.problem``, or None when the certificate
    is not valid."""
    try:
        return certify(objective.problem, objective, state)
    except CertificateInvalidError:
        return None
