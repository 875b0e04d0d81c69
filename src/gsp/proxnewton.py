"""Second-order solver: a quadratic model minimized over the active block.

Each outer iteration materializes the dense inverse of the closed-loop matrix
(the model's Hessian entries need random entry access), builds the active
set, minimizes the quadratic model over the active coordinates to get the
Newton direction, and backtracks with a generalized Armijo rule.  The m-by-m
Hessian is never formed.  The model is minimized in rounds on the block of
the Hessian over a working set of the ``k`` active coordinates with positive
curvature, by one kernel per problem class:

- **Resistive** (``x >= 0``): each round solves its block exactly, by a
  primal-dual active-set method (Hintermueller, Ito, Kunisch, SIAM J.
  Optim. 2002; :func:`_pdas_block`).  It guesses which coordinates sit at
  the cone's edge, solves for the rest with one Cholesky factorization of
  their block, guesses again from the solution's prox values and stops when
  the guess repeats.  Guesses that cycle end in a safeguard step
  (:func:`_descent_safeguard`) that is not exact but still lowers the model.
- **Signed**: each round runs cyclic coordinate descent with closed-form
  scalar prox steps, as projected Gauss-Seidel sweeps on the block
  (:func:`_block_sweeps`): one product with its strict upper triangle, one
  BLAS forward substitution (``trsv``) with its lower triangle, and a
  vectorized check of the prox branches it assumed, re-solved from the
  first coordinate whose branch was guessed wrong.  A coordinate with a
  zero penalty is unpenalized: its two free branches solve the same
  equation, so it is never checked, and the sweeps of the ``gamma = 0``
  centralized solve make one substitution each.

After each round, one matrix-free Hessian-direction product gives every
coordinate outside the working set its prox step from the current direction
(a KKT check of the zero those coordinates hold); those that would move
join (signed: by more than ``cd_tol``), and the next round resumes from the
current direction.  The first working set is all ``k`` coordinates when
``k**2 <= CD_CACHE_ELEMS`` (``k <= 512``), so the first round solves the
whole block and is the last; otherwise it is the coordinates away from
zero, and it grows, and with it the block that is built, with the
coordinates that move, with no cap on its size.

The rest of the recipe is fixed by module constants, read at call time: the
signed active-set margin ``ACTIVE_EPS_FACTOR`` (a fraction of each edge's
penalty); for signed problems only, ``cd_tol = CD_TOL * max(1, max|grad|)``,
the sweeps' stop (no coordinate moved by more than it in a sweep) and their
growth test, with ``CD_SWEEPS_MAX`` sweeps at most; and the line search's
Armijo constant ``ARMIJO_SIGMA``, step factor ``BACKTRACK_SHRINK`` and
budget ``MAX_BACKTRACKS``.  The resistive kernel has no tolerance: each
block solve is exact on its working set, unless the active-set guesses
cycle, and a coordinate outside it joins on any positive step, so the
direction meets the model's KKT conditions on the whole active block.

The kernels take the problem and read from it what it carries: its
candidates, per-edge penalty and class in :func:`active_set` and
:func:`cd_direction`, and its penalty term :meth:`~gsp.graphs.Problem.l1`
in :func:`line_search`.  The gradient they are given is that of the smooth
part, :meth:`~gsp.graphs.Problem.smooth_grad`.

The start, the certificate test and the status rule are those of
:mod:`gsp.proxgrad`.  Newton certifies each iterate before its step; without
a usable certificate it stops after three flat steps in a row.  A run that
uses up ``max_iters`` outer iterations is ``converged`` only if its last
iterate is certified within ``tol_gap``/``tol_rd``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import copysign

import numpy as np
from scipy.linalg.blas import dtrmv, dtrsv
from scipy.linalg.lapack import dpotrf, dpotrs

from .duality import certify_or_none
from .errors import DegenerateCurvatureError, LineSearchError
from .graphs import Problem
from .objective import (
    HESSIAN_SCALE,
    Objective,
    edge_quad_diag,
    hessian_product,
    hessian_rows,
)
from .proxgrad import SolveReport, _certified, _check_options, _finish, _start

#: Largest active block, in float64 entries (2 MB), that :func:`cd_direction`
#: takes whole as its first working set; an active block of ``k`` usable
#: coordinates with ``k**2`` above it starts from the coordinates away from
#: zero.  Kept small on purpose: on the calls with thousands of active
#: coordinates few of them move, and the whole block would cost time and
#: resident memory for rows that stay at zero.
CD_CACHE_ELEMS = 1 << 18

#: Entries of the Hessian block built at a time by :func:`_scaled_block` and
#: :func:`_free_solve` (32 kB of float64 per temporary).
_BUILD_ELEMS = 1 << 12

#: Fewest coordinates allowed to join the working set in one growth round;
#: otherwise as many as it already holds.
_GROW_MIN = 32

#: The rest of the recipe; see the module docstring.
ACTIVE_EPS_FACTOR = 1e-4
CD_TOL = 1e-8
CD_SWEEPS_MAX = 100
ARMIJO_SIGMA = 0.01
BACKTRACK_SHRINK = 0.5
MAX_BACKTRACKS = 60


@dataclass
class NewtonOptions:
    """Tuning knobs for the proximal Newton solver."""

    max_iters: int = 50  # outer iterations
    tol_gap: float = 1e-4
    tol_rd: float = 1e-3

    def __post_init__(self):
        _check_options(self)


def active_set(problem: Problem, x_bar, grad) -> np.ndarray:
    """Indices allowed to move in the Newton subproblem of ``problem`` at
    ``x_bar``.

    ``grad`` is the gradient of the smooth part,
    :meth:`~gsp.graphs.Problem.smooth_grad`.  A signed coordinate at zero
    stays out while ``|grad|`` is below its ``problem.penalty`` by more than
    ``ACTIVE_EPS_FACTOR`` of it.
    """
    x_bar = np.asarray(x_bar)
    grad = np.asarray(grad)
    at_zero = x_bar == 0.0
    if problem.resistive:
        inactive = at_zero & (grad >= 0.0)
    else:
        penalty = problem.penalty
        margin = penalty - ACTIVE_EPS_FACTOR * penalty
        inactive = at_zero & (np.abs(grad) < margin)
    return np.flatnonzero(~inactive)


def cd_direction(problem: Problem, Y, Ginv, grad, x_bar, active):
    """Newton direction: the quadratic model minimized over the active
    coordinates, exactly for resistive problems and by cyclic sweeps for
    signed ones.

    The candidates, per-edge penalty and problem class are ``problem``'s;
    ``grad`` is the gradient of the smooth part,
    :meth:`~gsp.graphs.Problem.smooth_grad`; ``active`` holds distinct
    candidate indices, and ``Y`` and ``Ginv`` are symmetric.  The
    coordinates with positive curvature are solved for in rounds, each on
    the Hessian block over a working set ``W`` of those ``k`` coordinates,
    kept in their order in ``active``:

    - resistive, :func:`_pdas_block` solves the model over ``W`` exactly,
      with every coordinate outside ``W`` held at its current direction (or,
      if its guesses cycle, returns a feasible direction with a lower model
      value than the round's start).  Its first guess of the coordinates at
      ``x_bar + direction = 0`` is each coordinate's own step from a zero
      direction; a later round starts from the previous round's final
      guess, which is the same rule at the current direction;
    - signed, :func:`_block_sweeps` visits the coordinates of ``W`` in
      order, each visit the closed-form scalar prox step, from the current
      direction, and stops once no coordinate moved by more than ``cd_tol =
      CD_TOL * max(1, max|grad|)`` in a sweep or after ``CD_SWEEPS_MAX``
      sweeps, both module constants read at call time.

    ``W`` starts as all ``k`` coordinates when ``k**2 <= CD_CACHE_ELEMS``,
    and otherwise as those with ``x_bar != 0``, so every coordinate outside
    it sits at ``x_bar + direction = 0``.  After a round, one
    :func:`hessian_product` with the coordinates of ``W`` that moved gives
    each outside coordinate its prox step from the current direction.  Those
    whose step exceeds ``cd_tol`` (0 for resistive problems, whose block
    solves are exact) join ``W``, at most ``max(_GROW_MIN, |W|)`` of them
    per round with the largest steps first.  The loop ends once no
    coordinate is outside ``W`` or none of them would move by more than
    ``cd_tol``.

    Coordinates outside the final working set keep a zero direction.  The
    inputs are not modified.
    """
    m = x_bar.shape[0]
    xt = np.zeros(m)
    act = np.asarray(active, dtype=np.intp)
    if act.size == 0:
        return xt

    inc, resistive = problem.candidates, problem.resistive
    pos = inc.positions[:, act]
    a = HESSIAN_SCALE * edge_quad_diag(Y, pos) * edge_quad_diag(Ginv, pos)
    usable = a > 0.0
    k = int(np.count_nonzero(usable))
    if k == 0:
        raise DegenerateCurvatureError("no positive-curvature coordinate")

    cd_tol = 0.0 if resistive else CD_TOL * max(
        1.0, float(np.max(np.abs(grad), initial=0.0)))
    cols = act[usable]
    sub, a = inc.pairs[cols], a[usable]
    g, xb, gam = grad[cols], x_bar[cols], problem.penalty[cols]
    ends = sub.T
    inside = np.full(k, True) if k * k <= CD_CACHE_ELEMS else xb != 0.0
    d = np.zeros(k)
    if resistive:
        zero = _zero_guess(xb - g / a)
    while True:
        W = np.flatnonzero(inside)
        if W.size and resistive:
            d[W], zero[W] = _pdas_block(Y, Ginv, sub[W], a[W], g[W], xb[W],
                                        zero[W], d[W])
        elif W.size:
            d[W] = _block_sweeps(Y, Ginv, sub[W], a[W], g[W], xb[W], gam[W],
                                 cd_tol, d[W])
        out = np.flatnonzero(~inside)
        if out.size == 0:
            break
        moved = W[d[W] != 0.0]
        v = hessian_product(Y, Ginv, ends[:, moved], d[moved], ends[:, out])
        v += g[out]
        v /= -a[out]  # the unthresholded step of each outside coordinate
        step = np.maximum(v, 0.0) if resistive else np.abs(v) - gam[out] / a[out]
        grow = np.flatnonzero(step > cd_tol)
        if grow.size == 0:
            break
        cap = max(_GROW_MIN, W.size)
        if grow.size > cap:
            grow = grow[np.argsort(-step[grow], kind="stable")[:cap]]
        inside[out[grow]] = True
    xt[cols] = d
    return xt


def _zero_guess(z):
    """The primal-dual active-set guess at the prox values ``z = x_bar + d
    - (H d + g) / a``: the coordinates whose ``z`` lies below the cone, which
    the next solve holds at ``x_bar + d = 0``."""
    return z < 0.0


def _pdas_block(Y, Ginv, sub, a, g, xb, zero, d0):
    """Exact minimizer of the resistive model ``q(d) = g^T d + d^T H d / 2``
    subject to ``xb + d >= 0`` over the edges ``sub``, by the primal-dual
    active-set method (a semismooth Newton method on the prox fixed point),
    from the guess ``zero`` of the coordinates at the cone's edge.

    Each guess is solved exactly: ``d_Z = -xb_Z`` on the guess ``Z`` and, on
    the rest ``F``, ``H_FF d_F = -g_F - H_FZ d_Z`` by :func:`_free_solve`,
    with ``H_FZ d_Z`` one :func:`hessian_product`.  The next guess is
    :func:`_zero_guess` of the prox values ``z = xb + d - (H d + g) / a``:
    ``xb + d`` on ``F``, where the solve makes ``H d + g`` zero, and on
    ``Z`` one more :func:`hessian_product` for its rows.  When the next
    guess is the one just solved, ``d`` meets the box-QP KKT conditions and
    is returned with it.

    The method is not monotone and may cycle: when a guess repeats an
    earlier one, or ``k + 1`` guesses have been solved, the loop ends
    without the exact answer and :func:`_descent_safeguard` picks the
    direction instead, from the last solve clamped to the cone and the
    feasible start ``d0`` (the previous round's direction), so that the
    result still lowers the model below ``q(d0)``; its guess for the next
    round is then the coordinates it holds at the cone's edge.
    """
    k = a.size
    ends = sub.T
    neg_xb = 0.0 - xb  # no negative zeros
    tried = set()
    for _ in range(k + 1):
        tried.add(zero.tobytes())
        free = np.flatnonzero(~zero)
        held = np.flatnonzero(zero)
        d = np.where(zero, neg_xb, 0.0)
        if free.size:
            rhs = -g[free]
            moved = held[neg_xb[held] != 0.0]
            if moved.size:
                rhs -= hessian_product(Y, Ginv, ends[:, moved], neg_xb[moved],
                                       ends[:, free])
            d[free] = _free_solve(Y, Ginv, ends[:, free], rhs)
        z = xb + d
        if held.size:
            moved = np.flatnonzero(d)
            hd = (hessian_product(Y, Ginv, ends[:, moved], d[moved], ends[:, held])
                  if moved.size else 0.0)
            z[held] = -(hd + g[held]) / a[held]
        guess = _zero_guess(z)
        if np.array_equal(guess, zero):
            return d, guess
        zero = guess
        if zero.tobytes() in tried:
            break
    np.maximum(d, neg_xb, out=d)
    d = _descent_safeguard(Y, Ginv, ends, g, neg_xb, (d, d0))
    return d, d <= neg_xb


def _descent_safeguard(Y, Ginv, ends, g, lo, candidates):
    """A feasible direction with a model value ``q(d) = g^T d + d^T H d / 2``
    below that of every one of the feasible ``candidates`` (``d >= lo``),
    unless the best of them already minimizes ``q`` on ``d >= lo``.

    From the candidate with the lowest ``q`` it takes one projected-gradient
    step: along ``p = -(H d + g)``, with the components that would leave the
    cone from a coordinate at ``lo`` set to zero, to the minimum of ``q`` on
    the segment that stays feasible.  ``p = 0`` is the KKT condition, and
    otherwise the step lowers ``q`` strictly.  It costs one
    :func:`hessian_product` per candidate and one for ``p``.
    """
    def model(d):
        nz = np.flatnonzero(d)
        r = g.copy()
        if nz.size:
            r += hessian_product(Y, Ginv, ends[:, nz], d[nz], ends)
        return 0.5 * float(d @ (r + g)), r

    best = None
    for c in candidates:
        q, r = model(c)
        if best is None or q < best[0]:
            best = q, c, r
    _, d, r = best
    p = -r
    room = d - lo
    p[(room <= 0.0) & (p < 0.0)] = 0.0
    nz = np.flatnonzero(p)
    if nz.size == 0:
        return d
    slope = float(p @ p)
    curv = float(p[nz] @ hessian_product(Y, Ginv, ends[:, nz], p[nz], ends[:, nz]))
    down = p < 0.0
    alpha = slope / curv if curv > 0.0 else np.inf
    alpha = min(alpha, float(np.min(room[down] / -p[down], initial=np.inf)))
    if alpha == np.inf:
        raise DegenerateCurvatureError("Newton model is unbounded below on the cone")
    return np.maximum(d + alpha * p, lo)


def _free_solve(Y, Ginv, ends, rhs):
    """Solution of ``H d = rhs`` for the Hessian block ``H`` over the edges
    whose end nodes are ``ends``.

    ``H``'s upper triangle is built into one buffer a chunk of rows at a
    time, as in :func:`_scaled_block`, so no temporary has more than
    ``_BUILD_ELEMS`` entries; the buffer is freed on return, before the
    Hessian products of the next guess.  Its transpose, Fortran-ordered
    with that triangle as its lower one, is factored in place by LAPACK
    ``dpotrf``, called directly: :func:`gsp.graphs.try_cholesky` stays the
    closed-loop factorization.  A block that is not positive definite
    raises DegenerateCurvatureError.
    """
    f = rhs.size
    H = np.empty((f, f))
    step = max(1, _BUILD_ELEMS // f)
    for r0 in range(0, f, step):
        r1 = min(f, r0 + step)
        hessian_rows(Y, Ginv, ends[:, r0:r1], ends[:, r0:], out=H[r0:r1, r0:])
    chol, info = dpotrf(H.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise DegenerateCurvatureError(
            "free block of the Newton model is not positive definite")
    d, info = dpotrs(chol, rhs, lower=1)
    return d


def _scaled_block(Y, Ginv, sub, a):
    """Hessian block over the edges ``sub`` as :func:`_block_sweeps` reads
    it: the strict upper triangle as :func:`hessian_rows` builds it, the
    strict lower triangle its mirror with row ``t`` divided by ``a[t]``, and
    a zero diagonal.  Built a chunk of rows at a time, so no temporary has
    more than ``_BUILD_ELEMS`` entries."""
    k = a.size
    ends = sub.T
    H = np.empty((k, k))
    col = np.arange(k)
    step = max(1, _BUILD_ELEMS // k)
    for r0 in range(0, k, step):
        r1 = min(k, r0 + step)
        hessian_rows(Y, Ginv, ends[:, r0:r1], ends[:, r0:], out=H[r0:r1, r0:])
        np.divide(H[:r1, r0:r1].T, a[r0:r1, None], out=H[r0:r1, :r1],
                  where=col[:r1] < col[r0:r1, None])
    np.fill_diagonal(H, 0.0)
    return H


def _branch(v, thresh):
    """Signed prox branch at the unthresholded value ``v`` of ``x_bar +
    direction``, for arrays or scalars: 1.0 free above the threshold, -1.0
    free below minus it, 0.0 at zero."""
    return 1.0 * (v > thresh) - 1.0 * (v < -thresh)


def _block_sweeps(Y, Ginv, sub, a, g, xb, gam, cd_tol, d0):
    """Cyclic coordinate descent on the signed block over the edges ``sub``,
    one sweep at a time from the direction ``d0``.

    With ``H = D + L + U`` (diagonal ``a``, strict lower and upper parts), a
    sweep from ``d`` to ``d_new`` solves, for every coordinate on a free prox
    branch with sign ``s``, ``a_t d_new_t = -g_t - (L d_new)_t - (U d)_t -
    s gam_t``, and sets ``d_new_t = -xb_t`` for every coordinate at zero.
    With the branches guessed (the previous sweep's, or for the first sweep
    each coordinate's step from the starting direction alone) that is one
    product with ``U`` and one unit forward substitution with ``D^-1 L``, in
    which the row of a coordinate at zero keeps only its unit diagonal.  The
    guesses are then checked in visit order: a free value must lie on its
    sign's side of zero, and a coordinate at zero must still be thresholded
    away.  At the first that fails, the branch its value shows replaces the
    guess and the substitution is solved again; the coordinates before it
    are accepted and not checked again.  A correction that leaves the
    coordinate's right-hand side bitwise equal, and its zero status as it
    was, changes nothing in the substitution, so it is not solved again and
    the check goes on from the next coordinate.

    A free value is off its side exactly when ``s d_new_t <= s (-xb_t)``:
    a rounded sum ``xb_t + d_new_t`` is at most zero exactly when
    ``d_new_t <= -xb_t``.  That bound is kept per coordinate, so the check
    forms no ``xb + d_new``.  A free coordinate with a zero threshold
    (``gam_t = 0``, as in the centralized solve) is *unpenalized*: both of
    its free branches solve the same equation, so it is never checked or
    corrected, and a sweep in which every coordinate is unpenalized checks
    nothing.  A coordinate with ``gam_t = 0`` guessed at zero is checked
    until its first correction frees it.
    """
    k = a.size
    H = _scaled_block(Y, Ginv, sub, a)
    B = H.T  # Fortran order for BLAS: lower triangle U^T, upper (D^-1 L)^T
    negg = -g
    neg_xb = 0.0 - xb  # no negative zeros
    thresh = gam / a
    d = d0.copy()
    own = negg - dtrmv(B, d, lower=1, trans=1) - dtrmv(B, d, lower=1)
    own /= a
    own += xb
    sign = _branch(own, thresh)
    zero = sign == 0.0
    for t in np.flatnonzero(zero):
        H[t, :t] = 0.0
    shift = sign * thresh
    zero_pen = thresh == 0.0
    # a free value is off its side when d_new * sign is past lim; an
    # unpenalized coordinate never is
    lim = sign * neg_xb
    lim[zero_pen & ~zero] = -np.inf
    n_zero = int(np.count_nonzero(zero))
    n_unpenalized = int(np.count_nonzero(zero_pen & ~zero))
    zero_pen, thresh_l = zero_pen.tolist(), thresh.tolist()
    xb_l, neg_xb_l = xb.tolist(), neg_xb.tolist()
    mul = np.empty(k)
    bad = np.empty(k, dtype=bool)
    for _ in range(CD_SWEEPS_MAX):
        w = dtrmv(B, d, lower=1, trans=1)  # U d
        np.subtract(negg, w, out=w)
        w /= a
        r = w - shift
        if n_zero:
            np.copyto(r, neg_xb, where=zero)
        d_new = dtrsv(B, r, lower=0, trans=1, diag=1)
        start = 0
        fresh = n_unpenalized < k  # the guesses are checked on each new d_new
        while fresh:
            fresh = False
            np.less_equal(np.multiply(d_new, sign, out=mul), lim, out=bad)
            if n_zero and zero[start:].any():
                v = dtrmv(B, d_new, lower=1)  # L d_new, from the upper triangle
                v /= a
                np.subtract(w, v, out=v)
                v += xb
                np.copyto(bad, np.abs(v) > thresh, where=zero)
            while start < k:
                t = start + int(bad[start:].argmax())
                if not bad[t]:
                    break
                was_zero = bool(zero[t])
                s_t = _branch(v.item(t) if was_zero
                              else (xb_l[t] + d_new.item(t)) + shift.item(t),
                              thresh_l[t])
                if was_zero:
                    np.divide(H[:t, t], a[t], out=H[t, :t])
                now_zero = s_t == 0.0
                if now_zero:
                    H[t, :t] = 0.0
                zero[t] = now_zero
                n_zero += now_zero - was_zero
                sign[t] = s_t
                shift_t = s_t * thresh_l[t]
                shift[t] = shift_t
                if zero_pen[t] and not now_zero:
                    lim[t] = -np.inf
                    n_unpenalized += 1
                else:
                    lim[t] = s_t * neg_xb_l[t]
                r_t = neg_xb_l[t] if now_zero else w.item(t) - shift_t
                r_old = r.item(t)
                start = t + 1
                if (now_zero == was_zero and r_t == r_old
                        and copysign(1.0, r_t) == copysign(1.0, r_old)):
                    continue  # same substitution: d_new and the checks past t hold
                r[t] = r_t
                d_new = dtrsv(B, r, lower=0, trans=1, diag=1)
                fresh = True
                break
        step = float(np.abs(d_new - d).max())
        d = d_new
        if step <= cd_tol:
            break
    return d


def line_search(objective: Objective, state, xt):
    """Backtracking with a generalized Armijo rule on the objective plus
    the problem's penalty term :meth:`~gsp.graphs.Problem.l1`.

    The slope is that of the smooth part,
    :meth:`~gsp.graphs.Problem.smooth_grad`, along ``xt``, plus for a signed
    problem the change of its penalty term.  Returns ``(alpha, x_new,
    cl_new)``; raises LineSearchError when no step is accepted within the
    backtrack budget.
    """
    problem = objective.problem
    resistive = problem.resistive
    x_bar = state.x
    l1_bar = problem.l1(x_bar)
    f_bar = state.J + l1_bar
    slope = float(problem.smooth_grad(state.grad) @ xt)
    if not resistive:
        # not +=: the penalty change is added after the smooth slope, not
        # formed apart, so the slope keeps its bits
        slope = slope + problem.l1(x_bar + xt) - l1_bar

    alpha = 1.0
    for _ in range(MAX_BACKTRACKS + 1):
        x_new = x_bar + alpha * xt
        if resistive and x_new.size and x_new.min() < 0.0:
            alpha *= BACKTRACK_SHRINK
            continue
        cl = objective.closed_loop(x_new)
        if cl.positive_definite:
            f_new = objective.value_at(cl, x_new) + problem.l1(x_new)
            if f_new <= f_bar + alpha * ARMIJO_SIGMA * slope + 1e-12:
                return alpha, x_new, cl
        alpha *= BACKTRACK_SHRINK
    raise LineSearchError("no acceptable step within the backtrack budget")


def solve_newton(problem: Problem, x0=None, opts: NewtonOptions | None = None):
    """Proximal Newton solve with the per-edge ``problem.penalty``; returns
    ``(x, SolveReport)``."""
    opts = opts or NewtonOptions()
    t0 = time.perf_counter()
    obj, st = _start(problem, x0)
    x = st.x

    report = SolveReport()
    report.objective_trace.append(st.J + problem.l1(x))
    if problem.m == 0:
        return x, _finish(report, t0, certify_or_none(obj, st))

    prev_F = report.objective_trace[0]
    flat_count = 0

    for k in range(1, opts.max_iters + 1):
        cert = certify_or_none(obj, st)
        if cert is not None and _certified(cert, opts):
            return x, _finish(report, t0, cert)

        Ginv = obj.closed_loop_inverse(st)
        grad = problem.smooth_grad(st.grad)
        act = active_set(problem, x, grad)
        xt = cd_direction(problem, st.Y, Ginv, grad, x, act)
        if not np.any(xt):
            # a zero Newton direction means the iterate solves its own model
            report.iterations = k - 1
            return x, _finish(report, t0, cert)

        alpha, x, cl = line_search(obj, st, xt)
        st = obj.state(x, cl)
        F = st.J + problem.l1(x)
        report.iterations = k
        report.step_trace.append(alpha)
        report.objective_trace.append(F)

        if abs(F - prev_F) <= 1e-12 * max(1.0, abs(F)):
            flat_count += 1
            # no usable certificate (the blended point fails its sign
            # checks, as at gamma = 0): stop on a flat objective
            if flat_count >= 3 and cert is None:
                cert = certify_or_none(obj, st)
                return x, _finish(report, t0, cert)
        else:
            flat_count = 0
        prev_F = F

    return x, _finish(report, t0, certify_or_none(obj, st), opts)
