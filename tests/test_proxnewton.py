"""Second-order solver: active sets, coordinate descent and line search."""

import contextlib
import dataclasses
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import daxpy

from gsp import graphs, objective, pipeline, proxgrad, proxnewton
from gsp.errors import (
    DegenerateCurvatureError,
    InfeasiblePointError,
    InvalidInputError,
    LineSearchError,
)
from gsp.objective import HESSIAN_SCALE, NewtonModel, Objective, edge_quad_diag
from gsp.proxgrad import soft_threshold
from gsp.proxnewton import NewtonOptions, active_set, cd_direction, line_search
from reference import dense_hessian


def p3_problem(gamma=0.0):
    plant = graphs.generate("path", 3)
    cand = graphs.EdgeList.from_tuples(3, [(0, 2)])
    return graphs.default_problem(plant, candidates=cand, gamma=gamma,
                                  resistive=True)


def two_node_problem(gamma=0.0):
    return graphs.default_problem(graphs.EdgeList.from_tuples(2, []),
                                  gamma=gamma)


def kernel_problem(penalty, resistive):
    """The two attributes of a problem that the Newton kernels read, for
    synthetic cases with no real problem behind them; the candidates are the
    model's."""
    return SimpleNamespace(penalty=penalty, resistive=resistive)


TIGHT = NewtonOptions(tol_gap=1e-12, tol_rd=1e-6)
# the certificate bias floor on larger instances sits near 1e-10
TIGHT_ER = NewtonOptions(tol_gap=1e-9, tol_rd=1e-6)


def test_options_validation():
    # the inner coordinate-descent stop is a module constant, not an option
    fields = [f.name for f in dataclasses.fields(NewtonOptions)]
    assert fields == ["max_iters", "tol_gap", "tol_rd"]
    for field in fields:
        with pytest.raises(InvalidInputError):
            NewtonOptions(**{field: 0})
    # a NaN tolerance would never certify, an infinite one always would
    for field in ("tol_gap", "tol_rd"):
        for value in (np.nan, np.inf, -np.inf, -1.0):
            with pytest.raises(InvalidInputError):
                NewtonOptions(**{field: value})


def test_active_set_signed_rule():
    gamma = np.full(4, 1.0)
    x = np.array([0.5, 0.0, 0.0, 0.0])
    grad = np.array([0.2, 0.5, 0.99999, -1.2])
    act = active_set(kernel_problem(gamma, False), x, grad)
    # nonzero coordinates always active; zeros active when
    # |grad| >= gamma - ACTIVE_EPS_FACTOR gamma (1e-4 of the penalty)
    assert list(act) == [0, 2, 3]


def test_active_set_resistive_rule():
    gamma = np.full(3, 1.0)
    x = np.array([0.0, 0.0, 0.4])
    grad = np.array([0.3, -0.3, 5.0])
    act = active_set(kernel_problem(gamma, True), x, grad)
    # zeros stay inactive when the penalized gradient pushes outward
    assert list(act) == [1, 2]


def test_cd_direction_two_node_hand_value():
    # at x = 1, gamma = 0: grad = 3/2, hessian = 1, direction = -3/2
    prob = two_node_problem()
    obj = Objective(prob)
    st = obj.state(np.array([1.0]))
    model = NewtonModel(st.Y, st.cl.solve(np.eye(2)), prob.candidates)
    xt = cd_direction(prob, model, st.grad, st.x, np.array([0]))
    assert xt[0] == pytest.approx(-1.5, abs=1e-10)


def test_cd_direction_matches_dense_reference(monkeypatch):
    # cyclic coordinate descent with the running Hessian-product accumulator
    # must match an independent implementation using the dense Hessian
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 12, p=0.4, seed=4), gamma=0.3
    )
    obj = Objective(prob)
    rng = np.random.Generator(np.random.PCG64(1))
    x = 0.2 + 0.5 * rng.random(prob.m)
    st = obj.state(x)
    Ginv = st.cl.solve(np.eye(prob.n))
    model = NewtonModel(st.Y, 0.5 * (Ginv + Ginv.T), prob.candidates)
    gam = prob.penalty
    set_inner_stop(monkeypatch, st.grad, 1e-14, 30)
    act = active_set(prob, x, st.grad)
    xt = cd_direction(prob, model, st.grad, x, act)

    H = dense_hessian(obj, x)
    # independent dense coordinate descent
    ref = np.zeros(prob.m)
    for _ in range(30):
        for i in act:
            a = H[i, i]
            b = float(H[i] @ ref) + st.grad[i]
            c = x[i] + ref[i]
            ref[i] += -c + soft_threshold(c - b / a, gam[i] / a)
    assert np.allclose(xt, ref, atol=1e-8)


def grad_scale(grad):
    """``max(1, max|grad|)``, the scale of ``cd_direction``'s inner stop."""
    return max(1.0, float(np.max(np.abs(grad), initial=0.0)))


def cd_tol(grad):
    """The stopping tolerance ``cd_direction`` uses at the current
    ``CD_TOL``."""
    return proxnewton.CD_TOL * grad_scale(grad)


def set_inner_stop(mp, grad, tol, sweeps):
    """Patch ``cd_direction``'s inner stop at ``grad`` to no step above the
    absolute ``tol`` (``CD_TOL`` divided by ``grad_scale(grad)``, which
    ``cd_direction`` multiplies back, within rounding) or ``sweeps``
    sweeps."""
    mp.setattr(proxnewton, "CD_TOL", tol / grad_scale(grad))
    mp.setattr(proxnewton, "CD_SWEEPS_MAX", sweeps)


def axpy_update(hv, delta, colY, colG):
    """Hessian row first, then one BLAS axpy."""
    return daxpy((HESSIAN_SCALE * colY) * colG, hv, a=delta)


def ufunc_update(hv, delta, colY, colG):
    """Three numpy ufuncs on the factor rows: an independent rounding order."""
    hv += ((delta * HESSIAN_SCALE) * colY) * colG
    return hv


def per_update_cd(problem, model, grad, x_bar, active, update):
    """Coordinate descent that rebuilds both incidence columns from the
    model's ``Y`` and ``Ginv`` on every nonzero update, soft-thresholds numpy
    scalars and adds the Hessian row to the running product through
    ``update``: the scalar coordinate-descent loop, kept as the reference.
    It stops as ``cd_direction`` does, at the current ``CD_TOL`` and
    ``CD_SWEEPS_MAX``."""
    Y, Ginv, inc = model.Y, model.Ginv, model.candidates
    gamma_vec = problem.penalty
    xt = np.zeros(x_bar.shape[0])
    act = np.asarray(active, dtype=np.intp)
    pairs = inc.pairs
    ai, aj = pairs[act, 0], pairs[act, 1]
    pos = inc.positions[:, act]
    a = HESSIAN_SCALE * edge_quad_diag(Y, pos) * edge_quad_diag(Ginv, pos)
    usable = a > 0.0
    tol = cd_tol(grad)
    hv = np.zeros(act.size)
    for _ in range(proxnewton.CD_SWEEPS_MAX):
        max_step = 0.0
        for t in range(act.size):
            if not usable[t]:
                continue
            i = act[t]
            at = a[t]
            b = hv[t] + grad[i]
            c = x_bar[i] + xt[i]
            if problem.resistive:
                z = c - b / at
                delta = -b / at if z >= 0.0 else -c
            else:
                delta = -c + soft_threshold(c - b / at, gamma_vec[i] / at)
            if delta != 0.0:
                xt[i] += delta
                uY = Y[:, pairs[i, 0]] - Y[:, pairs[i, 1]]
                uG = Ginv[:, pairs[i, 0]] - Ginv[:, pairs[i, 1]]
                hv = update(hv, float(delta), uY[ai] - uY[aj], uG[ai] - uG[aj])
                max_step = max(max_step, abs(delta))
        if max_step <= tol:
            break
    return xt


#: Largest ``max|grad|`` of a ``random_cd_case`` point.  Above it the closed
#: loop is numerically singular (ER n=5 seed 34 gives 2.5e33), the default
#: ``cd_tol`` follows ``|grad|`` up and every ``cd_tol``-scaled comparison is
#: vacuous; every other point of the strategy space stays below 37.
GRAD_BOUND = 1e3


#: Inner stop that runs the coordinate descent to convergence: no step
#: above an absolute 1e-13, or 10,000 sweeps.
CONVERGED = (1e-13, 10_000)


@contextlib.contextmanager
def converged(grad):
    """Run the coordinate descent at ``grad`` with the ``CONVERGED`` stop."""
    with pytest.MonkeyPatch.context() as mp:
        set_inner_stop(mp, grad, *CONVERGED)
        yield


#: Largest ``max|xt - ref| / max(1, max|ref|)`` between two directions run to
#: convergence with ``CONVERGED`` that visit the coordinates in different
#: orders; over the whole strategy space of
#: ``test_cd_direction_matches_per_update_loop`` the worst is 1.1e-12.
CONVERGED_BOUND = 1e-10


def converged_bound(ref):
    """``CONVERGED_BOUND`` scaled by ``max(1, max|ref|)``."""
    return CONVERGED_BOUND * max(1.0, float(np.max(np.abs(ref))))


#: Largest KKT violation of a resistive direction, each row's residual
#: relative to the size of its terms (see ``model_kkt_violation``): a few
#: dozen units of rounding.  Over the strategy spaces of
#: ``test_cd_direction_matches_per_update_loop`` and
#: ``test_cd_direction_with_some_zero_penalties`` the worst is 2.7e-16.
KKT_BOUND = 1e-14


def model_kkt_violation(args, xt):
    """Largest violation at ``xt`` of the KKT conditions of the resistive
    model ``min g^T d + d^T H d / 2`` subject to ``x_bar + d >= 0`` over the
    usable coordinates of ``args``, with ``H`` built densely by the model's
    ``rows``: a free coordinate's ``(H d + g)_t`` must vanish, and
    one at ``x_bar_t + d_t = 0`` must have it non-negative.  Each residual is
    taken relative to ``(|H| |d| + |g|)_t``, the size of its terms.  The
    direction must also be zero off those coordinates and feasible."""
    _, model, grad, x_bar, act = args
    cols = act[usable(args)]
    rest = np.ones(x_bar.size, dtype=bool)
    rest[cols] = False
    assert not np.any(xt[rest])
    assert np.min(x_bar + xt) >= 0.0
    H = model.rows(cols, cols)
    d, g = xt[cols], grad[cols]
    r = H @ d + g
    viol = np.where(x_bar[cols] + d == 0.0, np.maximum(-r, 0.0), np.abs(r))
    return float(np.max(viol / (np.abs(H) @ np.abs(d) + np.abs(g))))


def random_cd_case(n, seed, frac, resistive, zero_frac=0.0):
    """Weighted penalties at a random point with some zero weights, both as
    solve_newton builds them, and about a share ``zero_frac`` of the
    penalties set to exactly 0; returns the ``cd_direction`` arguments, whose
    problem carries those penalties, or None for a disconnected resistive
    plant, an infeasible or numerically singular point (``max|grad| >
    GRAD_BOUND``) or an active set of at most three coordinates."""
    plant = graphs.generate("erdos_renyi", n, p=0.4, seed=seed)
    if resistive and not graphs.PlantGraph.from_edges(plant).connected:
        return None
    prob = graphs.default_problem(plant, resistive=resistive)
    obj = Objective(prob)
    rng = np.random.Generator(np.random.PCG64(seed))
    x = (0.05 + rng.random(prob.m)) * (rng.random(prob.m) < 0.6)
    try:
        state = obj.state(x)
    except InfeasiblePointError:
        return None
    if np.max(np.abs(state.grad)) > GRAD_BOUND:
        return None
    model = obj.newton_model(state)
    gam = frac * float(np.max(np.abs(state.grad))) * (0.5 + rng.random(prob.m))
    if zero_frac:
        gam[rng.random(prob.m) < zero_frac] = 0.0
    prob = prob.with_gamma(1.0, gam)  # the penalty is gam itself
    grad = prob.smooth_grad(state.grad)
    act = active_set(prob, x, grad)
    if act.size <= 3:
        return None
    return prob, model, grad, x, act


def usable(args):
    """Mask of the coordinates of ``args`` with positive curvature."""
    model, act = args[1], args[4]
    pos = model.candidates.positions[:, act]
    return edge_quad_diag(model.Y, pos) * edge_quad_diag(model.Ginv, pos) > 0.0


def usable_count(args):
    """Coordinates of ``args`` with positive curvature: the block size ``k``."""
    return int(np.count_nonzero(usable(args)))


def starts_outside(args):
    """Candidate indices of the usable coordinates of ``args`` at ``x_bar =
    0``: below the whole-block budget, those outside the first working
    set."""
    x_bar, act = args[3], args[4]
    cols = act[usable(args)]
    return cols[x_bar[cols] == 0.0]


WHOLE, ROUNDS = "one whole-block round", "working-set rounds"


def expected_path(args, cache):
    """The path ``capped_cd(args, cache)`` takes: ``WHOLE`` under the "full"
    and "block" budgets, and under a smaller one when every usable
    coordinate has ``x_bar != 0``, so the first working set is the whole
    block; ``ROUNDS`` otherwise."""
    if cache in ("full", "block") or starts_outside(args).size == 0:
        return WHOLE
    return ROUNDS


def assume_growth(args, ref, bound):
    """Keep only cases whose working set must grow below the whole-block
    budget: ``ref``, the direction run to convergence, moves a coordinate
    outside the first working set by more than ``bound``.  A coordinate at
    ``x_bar = 0`` that the direction leaves there passes its KKT check and
    never joins.  Returns those coordinates."""
    outside = starts_outside(args)
    assume(np.any(np.abs(ref[outside]) > bound))
    return outside


#: The block kernel of each problem class, one call a working-set round:
#: ``resistive`` indexes it.
KERNELS = ("_block_sweeps", "_pdas_block")


def capped_cd(args, cache):
    """``cd_direction(*args)`` with the whole-block budget set by ``cache``:
    "full" keeps the default, which holds the whole block at these sizes;
    "block" and "below" put it at ``k**2`` and one entry below; "none" at 0.
    Returns the direction and the path taken, read from the sizes of the
    block-kernel calls (``_block_sweeps`` signed, ``_pdas_block``
    resistive), one a round: ``WHOLE`` for one call on all ``k``
    coordinates, ``ROUNDS`` otherwise.  The working set only grows, and the
    other class's kernel is never called."""
    sizes = []
    with pytest.MonkeyPatch.context() as mp:
        for name in KERNELS:
            def spy(*a, _real=getattr(proxnewton, name), _name=name, **kw):
                assert _name == KERNELS[args[0].resistive]
                sizes.append(a[1].size)
                return _real(*a, **kw)
            mp.setattr(proxnewton, name, spy)
        k = usable_count(args)
        budget = {"full": proxnewton.CD_CACHE_ELEMS, "block": k * k,
                  "below": k * k - 1, "none": 0}[cache]
        mp.setattr(proxnewton, "CD_CACHE_ELEMS", budget)
        xt = cd_direction(*args)
    assert sizes == sorted(set(sizes)) and set(sizes) <= set(range(1, k + 1))
    return xt, WHOLE if sizes == [k] else ROUNDS


@settings(max_examples=50, deadline=None)
@given(n=st.integers(5, 14), seed=st.integers(0, 50),
       frac=st.sampled_from([0.0, 0.02, 0.1, 0.4, 0.9]),
       resistive=st.booleans())
@pytest.mark.parametrize("cache", ["full", "working_set", "boundary"])
def test_cd_direction_matches_per_update_loop(cache, n, seed, frac, resistive):
    # signed, the block sweeps visit the coordinates in the reference loops'
    # order and, at the default inner stop, stay within rounding of both.
    # Every other case is compared with the reference run to convergence,
    # within CONVERGED_BOUND: a signed working set visits the coordinates in
    # another order, and a resistive direction is the exact minimizer of the
    # model, which a whole-block round ("full") also shows by meeting the
    # KKT conditions within KKT_BOUND.  "boundary" runs both sides of the
    # whole-block budget, at k**2 and one entry below.  "working_set" takes
    # only cases whose working set grows, and checks that it did: a
    # coordinate outside the first one moved.
    args = random_cd_case(n, seed, frac, resistive)
    assume(args is not None)
    x_bar = args[3]
    if cache == "full" and not resistive:
        ref = per_update_cd(*args, update=axpy_update)
        ufunc_ref = per_update_cd(*args, update=ufunc_update)
        bound = 1e-3 * cd_tol(args[2])
        xt, path = capped_cd(args, "full")
        assert path == WHOLE
        assert np.max(np.abs(xt - ref)) <= bound
        assert np.max(np.abs(xt - ufunc_ref)) <= bound
        # where the reference's prox step lands at zero (up to the rounding
        # of its d + (-(x_bar + d))), the block sweeps land on it
        at_zero = np.abs(x_bar + ref) <= 4 * np.finfo(float).eps * np.abs(x_bar)
        assert np.array_equal(xt[at_zero], -x_bar[at_zero])
        return
    budgets = {"full": ["full"], "working_set": ["none"],
               "boundary": ["block", "below"]}[cache]
    with converged(args[2]):
        ref = per_update_cd(*args, update=axpy_update)
        bound = converged_bound(ref)
        if cache == "working_set":
            outside = assume_growth(args, ref, bound)
        if cache != "full":
            results = [capped_cd(args, budget) for budget in budgets]
    if cache == "full":  # the whole block, at the default constants
        results = [capped_cd(args, "full")]
    for budget, (xt, path) in zip(budgets, results):
        assert path == expected_path(args, budget)
        assert np.max(np.abs(xt - ref)) <= bound
        if resistive and path == WHOLE:
            assert model_kkt_violation(args, xt) <= KKT_BOUND
        if resistive:
            assert np.min(x_bar + xt) >= 0.0
    if cache == "working_set":
        assert np.any(results[0][0][outside] != 0.0)


def spy_guesses(monkeypatch):
    """Record every active-set guess of the resistive kernel: its first
    guess in ``cd_direction``, then one after each block solve."""
    guesses = []

    def spy(z, _real=proxnewton._zero_guess):
        guesses.append(_real(z))
        return guesses[-1].copy()

    monkeypatch.setattr(proxnewton, "_zero_guess", spy)
    return guesses


@pytest.mark.parametrize("sweeps", [1, 100])
def test_cd_direction_corrects_branches_guessed_wrong_mid_sweep(monkeypatch,
                                                              sweeps):
    # resistive from x_bar = 0: every active coordinate's own step from
    # d = 0 is positive, so the first active-set guess frees every
    # coordinate, but the solve with all of them free puts coordinates 1, 3
    # and 5 below zero; with those held at zero, coordinate 6 goes below
    # too, and the third guess repeats the second.  The direction is the
    # exact minimizer: it meets the KKT conditions, matches the reference
    # run to convergence, and lands on the same zeros.  CD_SWEEPS_MAX binds
    # only the signed sweeps: at 1 and at 100 the direction is the default's
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 6, p=0.4, seed=7), resistive=True
    )
    obj = Objective(prob)
    x = np.zeros(prob.m)
    state = obj.state(x)
    prob = prob.with_gamma(0.3 * float(np.max(np.abs(state.grad))))
    grad = prob.smooth_grad(state.grad)
    act = active_set(prob, x, grad)
    assert np.all(grad[act] < 0.0)
    args = (prob, obj.newton_model(state), grad, x, act)
    default = cd_direction(*args)
    monkeypatch.setattr(proxnewton, "CD_SWEEPS_MAX", sweeps)
    guesses = spy_guesses(monkeypatch)
    xt, path = capped_cd(args, "full")
    assert path == WHOLE
    assert np.array_equal(xt, default)
    assert [list(np.flatnonzero(z)) for z in guesses] == [[], [1, 3, 5], [1, 3, 5, 6],
                                                        [1, 3, 5, 6]]
    assert model_kkt_violation(args, xt) <= KKT_BOUND
    with converged(grad):
        ref = per_update_cd(*args, update=axpy_update)
    assert list(np.flatnonzero(ref[act] == 0.0)) == [1, 3, 5, 6]
    assert np.max(np.abs(xt - ref)) <= converged_bound(ref)
    assert list(np.flatnonzero(xt[act] == 0.0)) == [1, 3, 5, 6]


def count_block_calls(monkeypatch):
    """Spy on the kernels of ``_block_sweeps``: ``dtrsv`` substitutions,
    sweeps (one ``dtrmv`` with the strict upper triangle each, past the one
    of each call's start) and scalar branch corrections (``_branch`` on one
    coordinate)."""
    calls = {"dtrsv": 0, "sweeps": 0, "corrections": 0}

    def dtrsv(*a, _real=proxnewton.dtrsv, **kw):
        calls["dtrsv"] += 1
        return _real(*a, **kw)

    def dtrmv(*a, _real=proxnewton.dtrmv, **kw):
        calls["sweeps"] += kw.get("trans") == 1  # U d, once per sweep
        return _real(*a, **kw)

    def block_sweeps(*a, _real=proxnewton._block_sweeps, **kw):
        calls["sweeps"] -= 1  # U d0 of the start, which is not a sweep
        return _real(*a, **kw)

    def branch(v, *a, _real=proxnewton._branch):
        calls["corrections"] += np.ndim(v) == 0  # one coordinate at a time
        return _real(v, *a)

    monkeypatch.setattr(proxnewton, "dtrsv", dtrsv)
    monkeypatch.setattr(proxnewton, "dtrmv", dtrmv)
    monkeypatch.setattr(proxnewton, "_branch", branch)
    monkeypatch.setattr(proxnewton, "_block_sweeps", block_sweeps)
    return calls


def test_signed_zero_penalty_sweeps_solve_once(monkeypatch):
    # signed with gamma = 0: every threshold is 0, so both free branches of
    # a coordinate solve the same equation and no coordinate is checked or
    # corrected.  No scalar correction is made, the forward substitution
    # runs once per sweep (one product with the strict upper triangle
    # each), and the direction matches the per-update reference loop
    args = random_cd_case(12, 1, 0.0, False)
    assert args is not None and not np.any(args[0].penalty)
    calls = count_block_calls(monkeypatch)
    xt, path = capped_cd(args, "full")
    assert path == WHOLE
    assert calls["corrections"] == 0
    assert 1 < calls["sweeps"] < proxnewton.CD_SWEEPS_MAX
    assert calls["dtrsv"] == calls["sweeps"]
    ref = per_update_cd(*args, update=axpy_update)
    assert np.max(np.abs(xt - ref)) <= 1e-3 * cd_tol(args[2])


def test_sweep_cap_is_read_at_call_time(monkeypatch):
    # CD_SWEEPS_MAX is read on every call: on a case whose sweeps run past
    # three before they meet the tolerance, a cap of 1 and then of 3 runs
    # exactly that many
    args = random_cd_case(12, 1, 0.0, False)
    calls = count_block_calls(monkeypatch)
    xt, path = capped_cd(args, "full")
    assert path == WHOLE
    assert 3 < calls["sweeps"] < proxnewton.CD_SWEEPS_MAX
    for cap in (1, 3):
        calls["sweeps"] = 0
        monkeypatch.setattr(proxnewton, "CD_SWEEPS_MAX", cap)
        cd_direction(*args)
        assert calls["sweeps"] == cap


def test_resistive_zero_penalty_coordinates_are_checked(monkeypatch):
    # the unpenalized rule is signed only: a resistive coordinate with
    # gamma = 0 (the polish) still keeps x >= 0.  At this point 8 of the 12
    # active coordinates of the reference run to convergence end at x_bar +
    # d = 0; the first active-set guess holds 9 coordinates at zero, the
    # next one frees one of them, and the direction lands on the reference's
    # zeros, exactly at -x_bar, and meets the KKT conditions
    plant = graphs.generate("erdos_renyi", 8, p=0.4, seed=1)
    prob = graphs.default_problem(plant, resistive=True)
    obj = Objective(prob)
    rng = np.random.Generator(np.random.PCG64(1))
    x = 10.0 ** rng.uniform(-2, 0, prob.m) * (rng.random(prob.m) < 0.6)
    state = obj.state(x)
    assert not np.any(prob.penalty)
    act = active_set(prob, x, state.grad)
    args = (prob, obj.newton_model(state), state.grad, x, act)
    guesses = spy_guesses(monkeypatch)
    xt, path = capped_cd(args, "full")
    assert path == WHOLE
    assert [np.count_nonzero(z) for z in guesses] == [9, 8, 8]
    assert model_kkt_violation(args, xt) <= KKT_BOUND
    with converged(state.grad):
        ref = per_update_cd(*args, update=axpy_update)
    ref_zero = x[act] + ref[act] == 0.0
    assert act.size == 12 and np.count_nonzero(ref_zero) == 8
    assert np.max(np.abs(xt - ref)) <= converged_bound(ref)
    assert np.array_equal(x[act] + xt[act] == 0.0, ref_zero)
    assert np.array_equal(xt[act][ref_zero], -x[act][ref_zero])


@settings(max_examples=50, deadline=None)
@given(n=st.integers(5, 14), seed=st.integers(0, 50),
       frac=st.sampled_from([0.02, 0.1, 0.4, 0.9]),
       zero_frac=st.sampled_from([0.2, 0.5, 0.8]),
       resistive=st.booleans())
@pytest.mark.parametrize("cache", ["full", "working_set"])
def test_cd_direction_with_some_zero_penalties(cache, n, seed, frac, zero_frac,
                                               resistive):
    # a random subset of the per-edge penalties is exactly 0 (at gamma = 0
    # all of them are): signed, those coordinates are unpenalized and never
    # checked; resistive, they keep the cone like the rest.  Both match the
    # per-update reference within the bounds of
    # test_cd_direction_matches_per_update_loop, a resistive whole block
    # meets the KKT conditions, and "working_set" takes and checks only
    # cases whose working set grows, as there
    args = random_cd_case(n, seed, frac, resistive, zero_frac)
    assume(args is not None)
    gam, act = args[0].penalty, args[4]
    assume(np.any(gam[act] == 0.0) and np.any(gam[act] > 0.0))
    x_bar = args[3]
    if cache == "full" and not resistive:
        budget, stop = "full", contextlib.nullcontext()
    else:
        budget = {"full": "full", "working_set": "none"}[cache]
        stop = converged(args[2])
    with stop:
        ref = per_update_cd(*args, update=axpy_update)
        bound = (1e-3 * cd_tol(args[2]) if cache == "full" and not resistive
                 else converged_bound(ref))
        if cache == "working_set":
            outside = assume_growth(args, ref, bound)
            xt, path = capped_cd(args, budget)
    if cache == "full":  # the whole block, at the default constants
        xt, path = capped_cd(args, budget)
    assert path == expected_path(args, budget)
    assert np.max(np.abs(xt - ref)) <= bound
    if cache == "working_set":
        assert np.any(xt[outside] != 0.0)
    if resistive and path == WHOLE:
        assert model_kkt_violation(args, xt) <= KKT_BOUND
    if resistive:
        assert np.min(x_bar + xt) >= 0.0


@pytest.mark.parametrize("cache", ["full", "working_set"])
@pytest.mark.parametrize("resistive", [False, True])
def test_cd_direction_leaves_inputs_unchanged(cache, resistive):
    # the sweeps and the block solves work in place on their own buffers;
    # no input may share their memory, and the problem's incidence
    # structure and penalty are read-only
    args = random_cd_case(12, 3, 0.1, resistive)
    assert args is not None
    model, gam = args[1], args[0].penalty
    inc = model.candidates
    assert not (inc.pairs.flags.writeable or inc.positions.flags.writeable
                or gam.flags.writeable)
    inputs = [model.Y, model.Ginv, *args[2:]]
    before = [np.copy(v) for v in inputs]
    budget = {"full": "full", "working_set": "none"}[cache]
    xt, path = capped_cd(args, budget)
    assert path == expected_path(args, budget)
    assert np.any(xt)
    for v, b in zip(inputs, before):
        assert v.tobytes() == b.tobytes()


def test_working_set_stays_small_on_a_sparse_direction(monkeypatch):
    # the first direction of a resistive solve from x_bar = 0 on an ER n=120
    # plant at 0.3 gamma_max: 1,123 active coordinates, of which 139 move.
    # The working set grows from empty to well below k, the Hessian entries
    # built (the free block of every active-set solve in every round) stay
    # under |W| k + |W|^2, far below the k^2 of the whole block, and the
    # direction is the whole block's; both meet the KKT conditions
    args = first_resistive_direction(120, 1.05 * np.log(120) / 120, 3, 0.3)
    k = usable_count(args)
    assert k * k > proxnewton.CD_CACHE_ELEMS

    built, sizes = [], []

    def count_rows(self, *a, _real=NewtonModel._entries, **kw):
        out = _real(self, *a, **kw)
        built.append(out.size)
        return out

    def count_block(*a, _real=proxnewton._pdas_block, **kw):
        sizes.append(a[1].size)
        return _real(*a, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(NewtonModel, "_entries", count_rows)
        mp.setattr(proxnewton, "_pdas_block", count_block)
        xt = cd_direction(*args)
    W = sizes[-1]
    assert sizes[0] == 32 and sizes == sorted(sizes)
    assert np.count_nonzero(xt) <= W <= k // 4
    assert sum(built) <= W * k + W * W

    monkeypatch.setattr(proxnewton, "CD_CACHE_ELEMS", k * k)
    whole = cd_direction(*args)
    assert np.max(np.abs(xt - whole)) <= converged_bound(whole)
    for direction in (xt, whole):
        assert model_kkt_violation(args, direction) <= KKT_BOUND


def test_no_kkt_product_once_the_working_set_holds_every_coordinate(monkeypatch):
    # the first direction of a signed solve from its default start x = 1 on
    # an ER n=36 plant at 0.3 gamma_max: every one of the k > 512 active
    # coordinates is away from zero, so with no whole-block budget the
    # first working set is all of them.  Nothing is left outside it to
    # check, so no Hessian-direction product is made, and the one round is
    # the whole block's
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 36, p=0.1, seed=5))
    obj = Objective(prob)
    x = np.ones(prob.m)
    state = obj.state(x)
    prob = prob.with_gamma(0.3 * float(np.max(np.abs(state.grad))))
    act = active_set(prob, x, state.grad)
    args = (prob, obj.newton_model(state), state.grad, x, act)
    k = usable_count(args)
    assert k * k > proxnewton.CD_CACHE_ELEMS

    products = []

    def spy(self, *a, _real=NewtonModel.product, **kw):
        products.append(a)
        return _real(self, *a, **kw)

    monkeypatch.setattr(NewtonModel, "product", spy)
    xt, path = capped_cd(args, "none")
    assert path == WHOLE
    assert products == []
    whole, _ = capped_cd(args, "block")
    assert np.array_equal(xt, whole)


def test_cd_direction_resistive_respects_cone():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 10, p=0.4, seed=8),
        gamma=0.2, resistive=True,
    )
    obj = Objective(prob)
    x = np.zeros(prob.m)
    x[::3] = 0.3
    st = obj.state(x)
    model = NewtonModel(st.Y, st.cl.solve(np.eye(prob.n)), prob.candidates)
    grad_f = prob.smooth_grad(st.grad)
    act = active_set(prob, x, grad_f)
    xt = cd_direction(prob, model, grad_f, x, act)
    assert np.min(x + xt) >= -1e-12


def first_resistive_direction(n, p, seed, frac):
    """``cd_direction`` arguments of the first direction of a resistive
    solve from ``x = 0`` on an ER plant, at ``frac`` of the largest
    ``-grad``."""
    prob = graphs.default_problem(graphs.generate("erdos_renyi", n, p=p, seed=seed),
                                  resistive=True)
    obj = Objective(prob)
    x = np.zeros(prob.m)
    state = obj.state(x)
    prob = prob.with_gamma(frac * float(np.max(-state.grad)))
    grad = prob.smooth_grad(state.grad)
    act = active_set(prob, x, grad)
    return prob, obj.newton_model(state), grad, x, act


def test_resistive_direction_holds_one_block_in_memory():
    # k = 210 active coordinates, 56 of them free in the exact direction:
    # every active-set solve builds its free block in one k-by-k buffer, a
    # chunk of rows at a time, so the traced peak stays below two blocks:
    # one block plus the fixed chunk temporaries and the n-by-k gathers of
    # the Hessian products.  A build through k-by-k temporaries, or a second
    # k-by-k buffer, would pass it
    args = first_resistive_direction(30, 0.2, 1, 0.2)
    k = usable_count(args)
    assert k == 210 and k * k <= proxnewton.CD_CACHE_ELEMS
    cd_direction(*args)  # lazy set-up out of the traced call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        xt = cd_direction(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(xt) == 56
    assert model_kkt_violation(args, xt) <= KKT_BOUND
    block = k * k * np.dtype(float).itemsize
    assert block <= peak < 2 * block


@pytest.mark.parametrize("cache", ["full", "working_set"])
@pytest.mark.parametrize("resistive", [False, True])
def test_directions_do_not_depend_on_how_blocks_are_cut(monkeypatch, cache,
                                                        resistive):
    # Hessian entry bits do not depend on the chunks a block is built in:
    # with one row per chunk, in the build and in the signed kernel's
    # mirror, both kernels give the default's direction bit for bit, from
    # one whole-block round and from working-set rounds.  The signed block
    # (k = 55) is one chunk by default, the resistive one (k = 210, from x =
    # 0, so its working sets grow) 19 rows a chunk
    args = (first_resistive_direction(30, 0.2, 1, 0.2) if resistive
            else random_cd_case(14, 3, 0.1, False))
    budget = {"full": "full", "working_set": "none"}[cache]
    default, path = capped_cd(args, budget)
    assert np.any(default) and path == {"full": WHOLE, "working_set": ROUNDS}[cache]
    monkeypatch.setattr(objective, "_BUILD_ELEMS", 1)
    monkeypatch.setattr(proxnewton, "_BUILD_ELEMS", 1)
    xt, _ = capped_cd(args, budget)
    assert xt.tobytes() == default.tobytes()


def test_resistive_working_set_growth_does_not_read_cd_tol(monkeypatch):
    # the ER n=120 direction of the working-set test above, 1,123 active
    # coordinates in working-set rounds: an outside coordinate joins on any
    # positive step, so the direction is the same for every CD_TOL and
    # meets the KKT conditions on the whole usable block, not only on its
    # final working set.  A growth test on cd_tol kept 80 of the 139
    # coordinates that move at CD_TOL = 1e-2
    args = first_resistive_direction(120, 1.05 * np.log(120) / 120, 3, 0.3)
    assert usable_count(args) ** 2 > proxnewton.CD_CACHE_ELEMS
    directions = []
    for tol in (1e-2, proxnewton.CD_TOL, 1e-14):
        monkeypatch.setattr(proxnewton, "CD_TOL", tol)
        directions.append(cd_direction(*args))
    xt = directions[0]
    assert all(d.tobytes() == xt.tobytes() for d in directions[1:])
    assert np.count_nonzero(xt) == 139
    assert model_kkt_violation(args, xt) <= KKT_BOUND


def model_value(args, xt):
    """Value of the model ``g^T d + d^T H d / 2`` at ``xt`` over the usable
    coordinates of ``args``, with ``H`` built densely by the model's
    ``rows``."""
    _, model, grad, _, act = args
    cols = act[usable(args)]
    d = xt[cols]
    return float(grad[cols] @ d + 0.5 * d @ model.rows(cols, cols) @ d)


def spy_safeguard(monkeypatch):
    """Record the candidates of each ``_descent_safeguard`` call."""
    calls = []

    def spy(*a, _real=proxnewton._descent_safeguard):
        calls.append([c.copy() for c in a[-1]])
        return _real(*a)

    monkeypatch.setattr(proxnewton, "_descent_safeguard", spy)
    return calls


def test_active_set_guesses_stop_at_k_plus_one_solves(monkeypatch):
    # a guess rule that never repeats (guess t holds at zero the coordinates
    # of the binary digits of t) runs the bound of k + 1 solves, one
    # factorization each, and ends without the exact answer.  The safeguard
    # step gives a feasible direction whose model value lies below that of
    # the last solve clamped to the cone and of zero, the round's start, and
    # the line search accepts a step along it that lowers the objective
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 6, p=0.4, seed=7), resistive=True
    )
    obj = Objective(prob)
    x = np.zeros(prob.m)
    x[::2] = 0.1
    state = obj.state(x)
    penalized = prob.with_gamma(0.1 * float(np.max(np.abs(state.grad))))
    gam = penalized.penalty
    grad = penalized.smooth_grad(state.grad)
    act = active_set(penalized, x, grad)
    args = (penalized, obj.newton_model(state), grad, x, act)
    k = usable_count(args)
    count = itertools.count(1)

    def never_repeats(z):
        t = next(count)
        return (t >> np.arange(z.size)) & 1 == 1

    factorizations = []

    def dpotrf(*a, _real=objective.dpotrf, **kw):
        factorizations.append(a[0].shape[0])
        return _real(*a, **kw)

    monkeypatch.setattr(proxnewton, "_zero_guess", never_repeats)
    monkeypatch.setattr(objective, "dpotrf", dpotrf)
    calls = spy_safeguard(monkeypatch)
    xt = cd_direction(*args)
    assert k > 3 and len(factorizations) == k + 1 and len(calls) == 1
    assert np.all(np.isfinite(xt)) and np.min(x + xt) >= 0.0
    last = np.zeros_like(xt)
    last[args[4][usable(args)]] = calls[0][0]
    assert model_value(args, xt) < min(model_value(args, last), 0.0)
    _, x_new, cl = line_search(Objective(penalized), state, xt)
    assert obj.value_at(cl, x_new) + gam @ x_new < state.J + gam @ x


def test_cycling_active_set_guesses_end_in_a_descent_direction(monkeypatch):
    # the path 0-1-2 with Y = G^-1 = [[1, 0, .9], [0, 1, 0], [.9, 0, 1]]
    # gives the Hessian [[8, 7.22], [7.22, 8]].  From x_bar = (1, 1) with
    # grad = (-1, -1), two guesses that alternate, both coordinates held at
    # zero and then only the second, cycle after two solves.  The last one,
    # d = (8.22 / 8, -1), is feasible but raises the model to about 0.78,
    # and one projected-gradient step from it stays above zero; the
    # safeguard steps from zero, the round's start, instead, and its
    # direction is feasible and lowers the model
    inc = graphs.IncidenceMatrix(3, np.array([[0, 1], [1, 2]]))
    G = np.array([[1.0, 0.0, 0.9], [0.0, 1.0, 0.0], [0.9, 0.0, 1.0]])
    model = NewtonModel(G, G, inc)
    assert np.allclose(model.rows([0, 1], [0, 1]), [[8.0, 7.22], [7.22, 8.0]])
    args = (kernel_problem(np.zeros(2), True), model, np.array([-1.0, -1.0]),
            np.ones(2), np.array([0, 1]))
    count = itertools.count()

    def alternate(z):
        return np.array([next(count) % 2 == 0, True])

    monkeypatch.setattr(proxnewton, "_zero_guess", alternate)
    calls = spy_safeguard(monkeypatch)
    xt = cd_direction(*args)
    assert next(count) == 3 and len(calls) == 1  # the first guess and one per solve
    assert np.allclose(calls[0][0], [8.22 / 8, -1.0])
    assert model_value(args, calls[0][0]) > 0.7
    assert np.min(args[3] + xt) >= 0.0
    assert model_value(args, xt) < 0.0 and float(args[2] @ xt) < 0.0


def test_indefinite_free_block_is_a_typed_error():
    # Y = I and an indefinite symmetric G^-1 on the path 0-1-2: both edges
    # have curvature 8 and share node 1, where their Hessian entry is 12, so
    # the free block is indefinite.  Both are guessed free (x_bar = 0, grad
    # < 0), and the factorization's failure is DegenerateCurvatureError, not
    # a LinAlgError or a NaN direction
    inc = graphs.IncidenceMatrix(3, np.array([[0, 1], [1, 2]]))
    Ginv = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0], [5.0, 0.0, 1.0]])
    model = NewtonModel(np.eye(3), Ginv, inc)
    H = model.rows([0, 1], [0, 1])
    assert np.array_equal(H, [[8.0, 12.0], [12.0, 8.0]])
    with pytest.raises(DegenerateCurvatureError, match="not positive definite"):
        cd_direction(kernel_problem(np.zeros(2), True), model,
                     np.array([-1.0, -1.0]), np.zeros(2), np.array([0, 1]))


def test_tight_polish_of_a_large_resistive_support_converges():
    # the 719-edge support that proxBB finds at 0.05 gamma_max on the ER
    # n=60, p=0.1, seed 3 resistive plant: its gamma = 0 polish certifies a
    # 1e-10 gap within 6 Newton iterations.  Coordinate-descent directions
    # ran it to max_iters, the gap stalled between 4e-8 and 3e-7
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 60, p=0.1, seed=3), resistive=True)
    x, rep = proxgrad.solve_projected(prob.with_gamma(0.05 * pipeline.gamma_max(prob)))
    support = np.flatnonzero(np.abs(x) > pipeline.ZERO_TOL)
    assert rep.status == "converged" and support.size == 719
    reduced = prob.restrict(support).with_gamma(0.0)
    _, pol = proxnewton.solve_newton(reduced, opts=NewtonOptions(tol_gap=1e-10))
    assert pol.status == "converged" and pol.iterations <= 6
    assert pol.final_gap <= 1e-10


def test_line_search_hand_trace():
    # from x = 1 along direction -3/2 (gamma = 0): alpha = 1 is infeasible,
    # alpha = 1/2 fails the Armijo test, alpha = 1/4 lands at x = 5/8 with
    # J = 2.05 and is accepted
    prob = two_node_problem()
    obj = Objective(prob)
    st = obj.state(np.array([1.0]))
    xt = np.array([-1.5])
    alpha, x_new, cl = line_search(obj, st, xt)
    assert alpha == pytest.approx(0.25)
    assert x_new[0] == pytest.approx(0.625)
    assert obj.value(x_new) == pytest.approx(2.05, abs=1e-12)


@pytest.mark.parametrize("resistive", [False, True])
def test_line_search_gives_up_after_its_backtrack_budget(monkeypatch, resistive):
    # an ascent direction from x_bar = 0.1 that keeps every trial point at
    # or above 0.05, so each trial is feasible and positive definite but
    # raises the objective by at least alpha times the slope: with
    # MAX_BACKTRACKS = 2, read at call time, the line search tries alpha =
    # 1, 1/2 and 1/4, one closed loop each, and ends in LineSearchError
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 12, p=0.4, seed=2), resistive=resistive)
    prob = prob.with_gamma(0.1 * pipeline.gamma_max(prob))
    obj = Objective(prob)
    x = np.full(prob.m, 0.1)
    state = obj.state(x)
    # the penalty is linear on the trial points, so this is the slope's sign
    xt = 0.05 * np.sign(state.grad + prob.penalty)
    assert float(prob.smooth_grad(state.grad) @ xt) + (
        0.0 if resistive else prob.l1(x + xt) - prob.l1(x)) > 0.0
    assert np.min(x + xt) >= 0.0
    trials = []

    def closed_loop(self, z, _real=Objective.closed_loop):
        trials.append(z.copy())
        return _real(self, z)

    monkeypatch.setattr(Objective, "closed_loop", closed_loop)
    monkeypatch.setattr(proxnewton, "MAX_BACKTRACKS", 2)
    with pytest.raises(LineSearchError, match="backtrack budget"):
        line_search(obj, state, xt)
    assert len(trials) == 3
    for z, alpha in zip(trials, (1.0, 0.5, 0.25)):
        assert z.tobytes() == (x + alpha * xt).tobytes()


def test_newton_two_node_analytic():
    for g in (0.0, 1.0, 4.0):
        x, rep = proxnewton.solve_newton(two_node_problem(g), opts=TIGHT)
        assert rep.status == "converged"
        assert x[0] == pytest.approx(1 / np.sqrt(2 * (2 + g)), abs=1e-6)


def test_newton_p3_analytic():
    for g in (0.0, 0.5, 1.0, 1.9, 2.0, 3.0):
        x, rep = proxnewton.solve_newton(p3_problem(g), opts=TIGHT)
        assert rep.status == "converged"
        assert x[0] == pytest.approx(max(0.0, (2 / np.sqrt(2 + g) - 1) / 2),
                                     abs=1e-6)


def test_newton_never_builds_dense_hessian(monkeypatch):
    # every Hessian block Newton builds lies within its iteration's active
    # set; a resistive run from x = 0 keeps every active set below m, so a
    # dense m-by-m build would show
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 15, p=0.3, seed=2), gamma=0.4,
        resistive=True,
    )
    sizes, built = [], []

    def spy_active_set(*args, **kwargs):
        act = active_set(*args, **kwargs)
        sizes.append(act.size)
        return act

    def spy_entries(self, *args, _real=NewtonModel._entries, **kwargs):
        block = _real(self, *args, **kwargs)
        built.append((sizes[-1] if sizes else 0, block.size))
        return block

    monkeypatch.setattr(proxnewton, "active_set", spy_active_set)
    monkeypatch.setattr(NewtonModel, "_entries", spy_entries)
    x, rep = proxnewton.solve_newton(prob, opts=TIGHT_ER)
    assert rep.status == "converged"
    assert built and max(sizes) < prob.m
    assert all(entries <= k * k for k, entries in built)


def test_newton_trace_monotone():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 15, p=0.3, seed=6), gamma=0.5
    )
    x, rep = proxnewton.solve_newton(prob, opts=TIGHT_ER)
    trace = np.array(rep.objective_trace)
    assert np.all(np.diff(trace) <= 1e-10)
    assert rep.status == "converged"


def test_newton_zero_at_gamma_max():
    prob = p3_problem(2.0)  # gamma_max of the P3 family
    x, rep = proxnewton.solve_newton(prob, opts=TIGHT)
    assert rep.status == "converged"
    assert np.allclose(x, 0.0, atol=1e-10)


def test_newton_warm_start_and_weights():
    g = 0.8
    prob = two_node_problem(g)
    x, rep = proxnewton.solve_newton(prob, x0=np.array([0.35]), opts=TIGHT)
    assert x[0] == pytest.approx(1 / np.sqrt(2 * (2 + g)), abs=1e-6)
    x, rep = proxnewton.solve_newton(prob.with_gamma(g, np.array([3.0])),
                                     opts=TIGHT)
    assert x[0] == pytest.approx(1 / np.sqrt(2 * (2 + 3 * g)), abs=1e-6)


def test_newton_determinism():
    prob = graphs.default_problem(
        graphs.generate("erdos_renyi", 12, p=0.4, seed=9), gamma=0.5
    )
    x1, r1 = proxnewton.solve_newton(prob, opts=TIGHT_ER)
    x2, r2 = proxnewton.solve_newton(prob, opts=TIGHT_ER)
    assert np.array_equal(x1, x2)
    assert r1.iterations == r2.iterations
