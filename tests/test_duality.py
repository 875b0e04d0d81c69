"""Dual certificates: feasibility, weak duality, gap and residuals."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsp import duality, graphs, pipeline, proxgrad, proxnewton
from gsp.errors import CertificateInvalidError, InvalidInputError
from gsp.objective import Objective, edge_quad_diag
from reference import duality_gap, edge_forms, effective_weight, spd_weight


def p3_problem(gamma=0.0):
    plant = graphs.generate("path", 3)
    cand = graphs.EdgeList.from_tuples(3, [(0, 2)])
    return graphs.default_problem(plant, candidates=cand, gamma=gamma,
                                  resistive=True)


def two_node_problem(gamma=0.0):
    return graphs.default_problem(graphs.EdgeList.from_tuples(2, []),
                                  gamma=gamma)


TIGHT = proxgrad.ProxGradOptions(tol_gap=1e-12, tol_rd=1e-6)


def eigh_dual_objective(Y, qp, G_p):
    """Dual value ``2 trace((Q_p^{1/2} Y Q_p^{1/2})^{1/2}) - <Y, G_p>`` from
    the spectrum of ``C^T Y C``, ``C`` the Cholesky factor of ``Q_p`` and
    ``qp`` its transpose ``C^T``: ``C = Q_p^{1/2} U`` with ``U``
    orthogonal, so the two are similar.  The reference for the closed form
    of ``duality.dual_objective``.
    """
    S = qp @ Y @ qp.T
    lam = scipy.linalg.eigh(0.5 * (S + S.T), eigvals_only=True)
    return float(2.0 * np.sum(np.sqrt(np.clip(lam, 0.0, None))) - np.sum(Y * G_p))


def blend(Y, beta):
    """The blended dual point ``beta Y + ((1 - beta)/n) 11^T``."""
    n = Y.shape[0]
    return beta * Y + ((1.0 - beta) / n) * np.ones((n, n))


# The certificate as a chain of three steps (blend, multipliers, residuals),
# each re-reading the edge forms xi^T R xi (from the dense incidence matrix,
# not Objective.lin) and the penalty vector (from gamma and the weights, not
# Problem.penalty), with the blended point formed and its dual value taken
# by eigh_dual_objective: an independent reference for the one-pass
# duality.certify.

def ref_penalty(problem, weights=None):
    """Per-edge penalty ``gamma * weights``, uniform without ``weights``."""
    w = np.ones(problem.m) if weights is None else np.asarray(weights)
    return problem.gamma * w


def ref_make_dual_feasible(Y, problem, weights=None):
    """Blend ``Y`` toward ``(1/n) 11^T`` until the dual bound holds."""
    c = edge_forms(problem.candidates, problem.R)
    d = edge_quad_diag(Y, problem.candidates.positions) - c
    gam = ref_penalty(problem, weights)
    if problem.m == 0:
        beta = 1.0
    else:
        mag = d if problem.resistive else np.abs(d)
        denom = mag + c
        with np.errstate(divide="ignore"):
            bounds = np.where(denom > 0, (gam + c) / denom, np.inf)
        beta = float(min(1.0, bounds.min()))
    return blend(Y, beta), beta


def ref_multipliers(Y_hat, problem, weights=None):
    """Clipped multipliers after the sign check."""
    c = edge_forms(problem.candidates, problem.R)
    d_hat = edge_quad_diag(Y_hat, problem.candidates.positions) - c
    gam = ref_penalty(problem, weights)
    if problem.resistive:
        y = gam - d_hat
        if y.size and y.min() < -duality._SIGN_TOL:
            raise CertificateInvalidError(f"negative multiplier {y.min():.3e}")
        return np.clip(y, 0.0, None)
    y_plus = gam - d_hat
    y_minus = gam + d_hat
    worst = min(y_plus.min(initial=0.0), y_minus.min(initial=0.0))
    if worst < -duality._SIGN_TOL:
        raise CertificateInvalidError(f"negative multiplier {worst:.3e}")
    return np.clip(y_plus, 0.0, None), np.clip(y_minus, 0.0, None)


def ref_residuals(Y, Y_hat, y, problem, weights=None):
    """Dual residuals: against ``Y`` (resistive) or ``Y_hat`` (signed)."""
    c = edge_forms(problem.candidates, problem.R)
    gam = ref_penalty(problem, weights)
    if problem.resistive:
        d = edge_quad_diag(Y, problem.candidates.positions) - c
        return gam - d - y, None
    y_plus, y_minus = y
    d_hat = edge_quad_diag(Y_hat, problem.candidates.positions) - c
    return gam - d_hat - y_plus, gam + d_hat - y_minus


def ref_certify(problem, objective, state, weights=None):
    """The certificate fields, in DualCertificate order, from the chain."""
    Y_hat, beta = ref_make_dual_feasible(state.Y, problem, weights)
    gam = ref_penalty(problem, weights)
    x = state.x
    c = edge_forms(problem.candidates, problem.R)
    primal = float(state.h2 + c @ x + gam @ np.abs(x))
    dual = eigh_dual_objective(Y_hat, problem.qp, problem.plant.G)
    y = ref_multipliers(Y_hat, problem, weights)
    y_plus, y_minus = (y, None) if problem.resistive else y
    r_d_plus, r_d_minus = ref_residuals(state.Y, Y_hat, y, problem, weights)
    return (beta, y_plus, y_minus, primal - dual, r_d_plus, r_d_minus,
            primal, dual)


def test_dual_objective_two_node_hand_value():
    # at the gamma = 0 optimum x = 1/2: G = I, Y = G^-1 Q_p G^-1 = Q_p = I,
    # dual = 2 tr((Q_p^1/2 Y Q_p^1/2)^1/2) - <Y, G_p> = 2*2 - 1 = 3,
    # equal to the primal objective <G^-1, Q_p> + c^T x = 2 + 1 = 3
    prob = two_node_problem()
    obj = Objective(prob)
    st = obj.state(np.array([0.5]))
    assert np.allclose(st.Y, np.eye(2), atol=1e-12)
    dual = duality.dual_objective(st, 1.0, prob.plant.G)
    assert dual == pytest.approx(3.0, abs=1e-10)
    assert eigh_dual_objective(st.Y, prob.qp, prob.plant.G) == pytest.approx(
        3.0, abs=1e-10)
    primal = float(np.trace(st.cl.solve(effective_weight(prob))) + obj.lin @ st.x)
    assert primal == pytest.approx(3.0, abs=1e-10)


def test_primal_to_Y():
    # the state's dual-building matrix and closed-loop inverse against dense
    # inverses
    prob = p3_problem()
    obj = Objective(prob)
    x = np.array([0.4])
    st = obj.state(x)
    G = prob.plant.G + graphs.controller_laplacian(prob.candidates, x)
    Ginv = np.linalg.inv(G)
    assert np.allclose(st.Y, Ginv @ effective_weight(prob) @ Ginv, atol=1e-10)
    assert np.allclose(obj.newton_model(st).Ginv, Ginv, atol=1e-10)


def test_certify_reads_the_state(monkeypatch):
    # the primal value comes from the state's trace term, with no solve of
    # its own, full (cho_solve) or triangular
    calls = []
    for name in ("solve", "tri_solve"):
        def counting(cl, *args, _method=getattr(graphs.ClosedLoop, name),
                     **kwargs):
            calls.append(1)
            return _method(cl, *args, **kwargs)

        monkeypatch.setattr(graphs.ClosedLoop, name, counting)
    cases = [(p3_problem(gamma=0.9), np.array([0.25]), None),
             (two_node_problem(gamma=2.0), np.array([0.3]), np.array([1.5]))]
    for prob, x, w in cases:
        obj = Objective(prob)
        st = obj.state(x)
        assert calls
        calls.clear()
        cert = duality.certify(prob, obj, st, w)
        assert calls == []
        gam = ref_penalty(prob, w)
        assert cert.primal == float(st.h2 + obj.lin @ x + gam @ np.abs(x))


def test_certify_builds_in_one_pass(monkeypatch):
    # one edge gather (at Y; the blended point's edge forms are beta times
    # those) per certificate, signed and resistive, and no penalty build:
    # the problem carries its weighted penalty
    calls = []
    for module, name in ((graphs, "_penalty"), (duality, "edge_quad_diag")):
        def counting(*args, _name=name, _f=getattr(module, name)):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(module, name, counting)
    for prob, x in ((p3_problem(gamma=0.9), np.array([0.25])),
                    (two_node_problem(gamma=2.0), np.array([0.3]))):
        prob = prob.with_gamma(prob.gamma, np.full(prob.m, 1.5))
        obj = Objective(prob)
        st = obj.state(x)
        calls.clear()
        duality.certify(prob, obj, st)
        assert calls == ["edge_quad_diag"]


def test_certify_holds_few_edge_vectors_at_once():
    # a resistive ER n=320 plant (seed 3, p = 1.05 ln n / n, m = 50,020
    # candidates) at 0.3 gamma_max, with x = 0.1 on the first 50 candidates:
    # once beta is known its bounds are freed and the rest is formed in
    # place, so a certificate's traced peak above its entry stays at 6
    # m-vectors at most
    n = 320
    plant = graphs.generate("erdos_renyi", n, p=1.05 * np.log(n) / n, seed=3)
    prob = graphs.default_problem(plant, resistive=True)
    assert prob.m == 50_020
    prob = prob.with_gamma(0.3 * pipeline.gamma_max(prob))
    obj = Objective(prob)
    x = np.zeros(prob.m)
    x[:50] = 0.1
    st_x = obj.state(x)
    duality.certify(prob, obj, st_x)  # lazy set-up out of the traced call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cert = duality.certify(prob, obj, st_x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert cert.gap >= 0.0
    assert peak <= 6 * prob.m * np.dtype(float).itemsize


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 12), st.integers(0, 10_000), st.booleans(),
       st.sampled_from([0.05, 0.3, 1.0]))
def test_certify_weights_equal_the_weighted_problem(n, seed, resistive, scale):
    # certify(p.with_gamma(g), obj, st, w) is the certificate of
    # p.with_gamma(g, w), bit for bit in gap, beta and multipliers, or
    # both raise
    plant = graphs.generate("erdos_renyi", n, p=0.5, seed=seed)
    assume(graphs.component_count(plant) == 1 and 2 * plant.m < n * (n - 1))
    base = graphs.default_problem(plant, resistive=resistive)
    rng = np.random.Generator(np.random.PCG64(seed))
    g = 0.3 * pipeline.gamma_max(base)
    w = rng.uniform(0.5, 2.0, base.m)
    x = scale * rng.uniform(0.0 if resistive else -0.1, 1.0, base.m)
    uniform, weighted = base.with_gamma(g), base.with_gamma(g, w)
    obj, obj_w = Objective(uniform), Objective(weighted)
    cl = obj.closed_loop(x)
    assume(cl.positive_definite)
    st_u, st_w = obj.state(x, cl), obj_w.state(x)
    certs = []
    for call in (lambda: duality.certify(uniform, obj, st_u, w),
                 lambda: duality.certify(weighted, obj_w, st_w)):
        try:
            certs.append(call())
        except CertificateInvalidError:
            certs.append(None)
    a, b = certs
    assert (a is None) == (b is None)
    if a is None:
        return
    for field in ("gap", "beta", "y_plus", "y_minus", "primal", "dual"):
        u, v = getattr(a, field), getattr(b, field)
        assert (u is None) == (v is None)
        if u is not None:
            assert np.asarray(u).tobytes() == np.asarray(v).tobytes(), field


def sqrt_dual_objective(Y, Qp, G_p):
    """The dual value through the symmetric square root of ``Q_p``."""
    lam, V = scipy.linalg.eigh(Qp)
    sqrt = (V * np.sqrt(lam)) @ V.T
    sqrt = 0.5 * (sqrt + sqrt.T)
    S = sqrt @ Y @ sqrt
    mu = scipy.linalg.eigh(0.5 * (S + S.T), eigvals_only=True)
    return float(2.0 * np.sum(np.sqrt(np.clip(mu, 0.0, None))) - np.sum(Y * G_p))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 18), st.integers(0, 40), st.booleans(), st.booleans())
def test_dual_objective_matches_square_root_formula(n, seed, resistive, scalar_r):
    # the closed form against the spectrum of Q_p^1/2 Y_hat Q_p^1/2, taken
    # through the symmetric square root and through the Cholesky factor of
    # Q_p; at Y(x) (beta = 1) and at the blended point
    plant = graphs.generate("erdos_renyi", n, p=0.5, seed=seed)
    assume(graphs.component_count(plant) == 1 and 2 * plant.m < n * (n - 1))
    prob = graphs.default_problem(plant, resistive=resistive, gamma=0.1)
    rng = np.random.Generator(np.random.PCG64(seed))
    if not scalar_r:
        prob = graphs.Problem(prob.plant, prob.candidates, prob.Q,
                              spd_weight(rng, n), 0.1, resistive)
    x = rng.uniform(0.0 if resistive else -0.1, 1.0, prob.m)
    obj = Objective(prob)
    cl = obj.closed_loop(x)
    assume(cl.positive_definite)
    state = obj.state(x, cl)
    Qp = effective_weight(prob)
    for beta in (1.0, ref_make_dual_feasible(state.Y, prob)[1]):
        Y_hat = blend(state.Y, beta)
        got = duality.dual_objective(state, beta, prob.plant.G)
        for ref in (sqrt_dual_objective(Y_hat, Qp, prob.plant.G),
                    eigh_dual_objective(Y_hat, prob.qp, prob.plant.G)):
            assert abs(got - ref) <= 1e-12 * abs(ref)


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 18), st.integers(0, 40), st.booleans(), st.booleans(),
       st.sampled_from([0.1, 1.0]), st.sampled_from([0.0, 0.05, 0.3, 1.0]),
       st.booleans())
def test_one_pass_certificate_matches_three_step_chain(n, seed, resistive,
                                                       weighted, gamma, scale,
                                                       scalar_r):
    # certify agrees with the reference chain, or raises where it raises:
    # beta and the primal value byte for byte for R = I, whose edge forms
    # are 2 in both, and to 1e-12 relative for a non-scalar R, whose edge
    # forms the two sum in different orders; the dual value to 1e-12
    # relative, the multipliers and residuals to 1e-12 of the largest
    # penalty or edge form; every certificate it returns keeps
    # Y_hat 1 = 1, non-negative multipliers and weak duality, against its
    # own dual value and against the eigh reference's
    plant = graphs.generate("erdos_renyi", n, p=0.5, seed=seed)
    assume(graphs.component_count(plant) == 1 and 2 * plant.m < n * (n - 1))
    prob = graphs.default_problem(plant, resistive=resistive, gamma=gamma)
    rng = np.random.Generator(np.random.PCG64(seed))
    x = scale * rng.uniform(0.0 if resistive else -0.1, 1.0, prob.m)
    w = None
    if weighted:
        w = rng.uniform(0.0, 3.0, prob.m)
        w[rng.random(prob.m) < 0.2] = 0.0
    if not scalar_r:
        prob = graphs.Problem(prob.plant, prob.candidates, prob.Q,
                              spd_weight(rng, n), gamma, resistive)
    obj = Objective(prob)
    cl = obj.closed_loop(x)
    assume(cl.positive_definite)
    state = obj.state(x, cl)
    try:
        ref = ref_certify(prob, obj, state, w)
    except CertificateInvalidError:
        with pytest.raises(CertificateInvalidError):
            duality.certify(prob, obj, state, w)
        return
    cert = duality.certify(prob, obj, state, w)
    beta, y_plus, y_minus, gap, r_d_plus, r_d_minus, primal, dual = ref
    if scalar_r:
        assert np.float64(cert.beta).tobytes() == np.float64(beta).tobytes()
        assert np.float64(cert.primal).tobytes() == np.float64(primal).tobytes()
    else:
        assert abs(cert.beta - beta) <= 1e-12 * beta
        assert abs(cert.primal - primal) <= 1e-12 * abs(primal)
    assert abs(cert.dual - dual) <= 1e-12 * abs(dual)
    assert abs(cert.gap - gap) <= 1e-12 * abs(dual)
    q = edge_quad_diag(state.Y, prob.candidates.positions)
    scale = max(1.0, np.max(ref_penalty(prob, w), initial=0.0),
                np.max(np.abs(q), initial=0.0))
    for a, b in ((cert.y_plus, y_plus), (cert.y_minus, y_minus),
                 (cert.r_d_plus, r_d_plus), (cert.r_d_minus, r_d_minus)):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * scale
    assert np.allclose(blend(state.Y, cert.beta) @ np.ones(n), 1.0, rtol=0.0,
                       atol=1e-12)
    for y in (cert.y_plus, cert.y_minus):
        assert y is None or y.min(initial=0.0) >= 0.0
    # rounding tolerance of weak duality: 1e-12 relative; over this whole
    # strategy space dual - primal is at most 1.1e-15 relative
    assert cert.primal >= cert.dual - 1e-12 * max(1.0, abs(cert.primal))
    assert cert.primal >= dual - 1e-12 * max(1.0, abs(cert.primal))


def recorded_certificates(run):
    """What ``run()`` returns, and the ``(objective, state, certificate)``
    of every certificate that :func:`duality.certify` issues meanwhile."""
    seen = []

    def recording(problem, objective, state, weights=None,
                  _certify=duality.certify):
        cert = _certify(problem, objective, state, weights)
        seen.append((objective, state, cert))
        return cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(duality, "certify", recording)
        return run(), seen


def check_certificates(seen, prob):
    """Weak duality against the certificate's own dual value and against
    the eigh reference's, ``Y_hat 1 = 1`` (``Y_hat`` rebuilt from beta),
    non-negative multipliers, and the closed-form dual equal to the eigh
    reference's."""
    for obj, state, cert in seen:
        assert cert.primal >= cert.dual - 1e-12 * max(1.0, abs(cert.primal))
        Y_hat = blend(state.Y, cert.beta)
        assert np.allclose(Y_hat @ np.ones(prob.n), 1.0, rtol=0.0, atol=1e-12)
        for y in (cert.y_plus, cert.y_minus):
            assert y is None or y.min(initial=0.0) >= 0.0
        ref = eigh_dual_objective(Y_hat, obj.problem.qp, prob.plant.G)
        assert cert.primal >= ref - 1e-12 * max(1.0, abs(cert.primal))
        assert abs(cert.dual - ref) <= 1e-12 * abs(ref)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 14), st.integers(0, 10_000),
       st.sampled_from([2.5, 4.0, 6.0]), st.booleans(),
       st.sampled_from([0.02, 0.2, 1.0]), st.booleans())
def test_certificates_on_geometric_plants(n, seed, radius, weighted, gamma,
                                          scalar_r):
    # every certificate of a Newton solve and of the first 30 soft-
    # thresholding iterations on a seeded random geometric plant, connected
    # or not (the complement candidates connect it at the all-ones start),
    # with R = I or a non-scalar R, passes check_certificates
    plant = graphs.random_geometric(n, radius, seed=seed)
    assume(2 * plant.m < n * (n - 1))
    prob = graphs.default_problem(plant, gamma=gamma)
    rng = np.random.Generator(np.random.PCG64(seed))
    w = rng.uniform(0.0, 3.0, prob.m) if weighted else None
    if not scalar_r:
        prob = graphs.Problem(prob.plant, prob.candidates, prob.Q,
                              spd_weight(rng, n), gamma)
    prob = prob.with_gamma(gamma, w)

    def solves():
        proxnewton.solve_newton(prob)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(proxgrad, "CERTIFY_EVERY", 1)
            proxgrad.solve_ista(prob, opts=proxgrad.ProxGradOptions(max_iters=30))

    check_certificates(recorded_certificates(solves)[1], prob)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 14), st.integers(0, 10_000), st.booleans(),
       st.booleans(), st.booleans(), st.sampled_from([0.3, 0.7]),
       st.booleans())
def test_certified_solves_agree(n, seed, geometric, resistive, scalar_r, frac,
                                weighted):
    # proximal Newton and the first-order solver at 0.3 or 0.7 gamma_max on
    # a connected ER or geometric plant, with R = I or a non-scalar R, and
    # unit penalty weights or the same per-edge weights from [0.5, 2] for
    # both: every certificate passes check_certificates, and where both
    # solves end converged on a certificate their objectives agree within
    # the larger gap (each gap bounds its own distance to the optimum), so
    # within tol_gap
    plant = (graphs.random_geometric(n, 5.0, seed=seed) if geometric
             else graphs.generate("erdos_renyi", n, p=0.5, seed=seed))
    assume(graphs.component_count(plant) == 1 and 2 * plant.m < n * (n - 1))
    prob = graphs.default_problem(plant, resistive=resistive)
    rng = np.random.Generator(np.random.PCG64(seed))
    if not scalar_r:
        prob = graphs.Problem(prob.plant, prob.candidates, prob.Q,
                              spd_weight(rng, n), 0.0, resistive)
    w = rng.uniform(0.5, 2.0, prob.m) if weighted else None
    prob = prob.with_gamma(frac * pipeline.gamma_max(prob), w)
    first_order = proxgrad.solve_projected if resistive else proxgrad.solve_ista
    certs = []
    for solve in (proxnewton.solve_newton, first_order):
        (_, rep), seen = recorded_certificates(lambda: solve(prob))
        check_certificates(seen, prob)
        certs.append(rep.certificate if rep.status == "converged" else None)
    if None not in certs:
        newton, first = certs
        tol_gap = max(proxnewton.NewtonOptions().tol_gap,
                      proxgrad.ProxGradOptions().tol_gap)
        agree = max(newton.gap, first.gap) + 1e-12 * max(1.0, abs(newton.primal))
        assert abs(newton.primal - first.primal) <= min(agree, tol_gap)


@pytest.mark.parametrize("resistive", [False, True])
def test_closed_form_dual_tolerates_Q_row_sums(resistive):
    # Problem accepts Q whose rows sum to up to 1e-10 instead of 0, while the
    # closed form assumes Q 1 = 0.  Its error is first order in that defect
    # and largest at strongly blended points; with row sums of 5e-11 the
    # worst case below is 1.2e-12 relative (path n=8 at x = 0, beta = 0.046),
    # against BOUND = 5e-12, a tenth of the defect.
    BOUND = 5e-12
    rng = np.random.Generator(np.random.PCG64(5))
    plants = [graphs.generate(kind, n) for kind in ("path", "ring")
              for n in (8, 14, 30)]
    plants += [graphs.generate("erdos_renyi", 14, p=0.3, seed=s)
               for s in (1, 3)]
    checked, betas = 0, []
    for plant in plants:
        assert graphs.component_count(plant) == 1
        n = plant.n
        for gamma in (0.01, 1.0):
            base = graphs.default_problem(plant, gamma=gamma,
                                          resistive=resistive)
            B = rng.standard_normal((n, n))
            P = B + B.T
            P *= 5e-11 / np.max(np.abs(P @ np.ones(n)))
            prob = graphs.Problem(base.plant, base.candidates, base.Q + P,
                                  base.R, gamma, resistive)
            obj = Objective(prob)
            for scale in (0.0, 0.003, 0.03, 0.3):
                x = scale * rng.uniform(0.0, 1.0, prob.m)
                state = obj.state(x)
                cert = duality.certify_or_none(obj, state)
                if cert is None:
                    continue
                ref = eigh_dual_objective(blend(state.Y, cert.beta), prob.qp,
                                          prob.plant.G)
                assert abs(cert.dual - ref) <= BOUND * abs(ref)
                checked += 1
                betas.append(cert.beta)
    # strongly blended certificates are among those checked
    assert checked >= 10 and min(betas) < 0.25


@pytest.mark.parametrize("weights", [
    -np.ones(3), np.ones(2), np.ones((3, 1)), np.full(3, np.nan),
    np.array([1.0, np.inf, 1.0]),
], ids=["negative", "short", "column", "nan", "inf"])
def test_penalty_weights_are_validated(weights):
    # with_gamma, and certify through it, turn weights into the penalty
    # vector, and reject weights that are not one finite non-negative entry
    # per edge
    message = ("weights must have shape" if weights.shape != (3,)
               else "weights must be finite and non-negative")
    plant = graphs.generate("path", 4)
    signed = graphs.default_problem(plant, gamma=0.5)
    resistive = graphs.default_problem(plant, gamma=0.5, resistive=True)
    obj = Objective(signed)
    calls = [
        lambda: duality.certify(signed, obj, obj.state(np.full(3, 0.2)), weights),
        lambda: signed.with_gamma(0.5, weights),
        lambda: resistive.with_gamma(0.5, weights),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match=message):
            call()


def test_blended_point_properties():
    # below the optimum the edge form is too large and blending repairs it
    prob = two_node_problem(gamma=0.5)
    obj = Objective(prob)
    for xv in (0.1, 0.2, 0.3):
        st = obj.state(np.array([xv]))
        cert = duality.certify(prob, obj, st)
        beta = cert.beta
        Y_hat = blend(st.Y, beta)
        assert 0 < beta <= 1
        assert np.allclose(Y_hat @ np.ones(2), np.ones(2), atol=1e-12)
        # dual inequality |diag(E^T (Y_hat - R) E)| <= gamma holds exactly
        xi = np.array([1.0, -1.0])
        d_hat = xi @ (Y_hat - prob.R) @ xi
        assert abs(d_hat) <= prob.gamma + 1e-12
        lam = np.linalg.eigvalsh(Y_hat)
        assert lam.min() > 0


def test_blending_cannot_fix_small_edge_forms():
    # past the optimum the edge form drops below 2r - gamma; no blending
    # factor can lift it (the blend center is even smaller), so the sign
    # check on the minus multiplier rejects the certificate
    prob = two_node_problem(gamma=0.5)
    obj = Objective(prob)
    st = obj.state(np.array([0.7]))
    with pytest.raises(duality.CertificateInvalidError):
        duality.certify(prob, obj, st)
    assert duality.certify_or_none(obj, st) is None


def test_blended_point_at_optimum_keeps_Y():
    # the gamma = 0 optimum is already dual feasible, so no blending happens
    prob = two_node_problem()
    obj = Objective(prob)
    st = obj.state(np.array([0.5]))
    cert = duality.certify(prob, obj, st)
    assert cert.beta == pytest.approx(1.0)
    assert np.allclose(blend(st.Y, cert.beta), st.Y, atol=1e-12)


def test_certificate_for_diagonal_R():
    # R = diag(1, 2, 3) on the path-3 plant with candidate (0, 2): its edge
    # form is 1 + 3; at x = 0.1 the blended point certifies, at x = 0.4 it
    # fails the sign check, and at 0.3 gamma_max both solvers end converged
    # on a certificate that is a valid bound
    plant = graphs.generate("path", 3)
    cand = graphs.EdgeList.from_tuples(3, [(0, 2)]).incidence
    R = np.diag([1.0, 2.0, 3.0])
    Q = np.eye(3) - np.full((3, 3), 1.0 / 3.0)
    prob = graphs.Problem(graphs.PlantGraph.from_edges(plant), cand, Q, R)
    obj = Objective(prob)
    assert obj.lin.tolist() == [4.0]
    st = obj.state(np.array([0.1]))
    check_certificates([(obj, st, duality.certify(prob, obj, st))], prob)
    st = obj.state(np.array([0.4]))
    with pytest.raises(CertificateInvalidError):
        duality.certify(prob, obj, st)
    assert duality.certify_or_none(obj, st) is None
    prob = prob.with_gamma(0.3 * pipeline.gamma_max(prob))
    for solve, opts in ((proxnewton.solve_newton, proxnewton.NewtonOptions()),
                        (proxgrad.solve_ista, proxgrad.ProxGradOptions())):
        (_, rep), seen = recorded_certificates(lambda: solve(prob))
        check_certificates(seen, prob)
        assert rep.status == "converged"
        assert 0.0 <= rep.certificate.gap <= opts.tol_gap


def test_nearly_scalar_R_certificate_is_a_valid_bound():
    # R = 50 diag(1 + 9e-6, 1, ..., 1) is within np.allclose's default
    # relative tolerance of 50 I; a certificate built on r = R[0, 0] put
    # the dual above the primal (gap -2.5e-7 at 0.3 gamma_max).  With the
    # edge forms of R itself, both solvers certify with a gap >= 0.
    plant = graphs.generate("erdos_renyi", 12, p=0.3, seed=1)
    base = graphs.default_problem(plant, resistive=True)
    scale = np.ones(12)
    scale[0] += 9e-6
    prob = graphs.Problem(base.plant, base.candidates, base.Q,
                          50.0 * np.diag(scale), 0.0, True)
    prob = prob.with_gamma(0.3 * pipeline.gamma_max(prob))
    for solve, opts in ((proxnewton.solve_newton, proxnewton.NewtonOptions()),
                        (proxgrad.solve_projected, proxgrad.ProxGradOptions())):
        (_, rep), seen = recorded_certificates(lambda: solve(prob))
        check_certificates(seen, prob)
        assert rep.status == "converged"
        assert 0.0 <= rep.certificate.gap <= opts.tol_gap


@pytest.mark.parametrize("resistive", [False, True])
def test_non_scalar_R_solves_end_on_certificates(resistive):
    # ER n = 12 plants (seeds 0-11) with R = B B^T / n + 0.5 I: every
    # Newton and first-order solve at 0.3 and 0.7 gamma_max, and every
    # resistive one at 0.05 gamma_max, ends converged on a certificate
    # within tol_gap that is a valid bound up to rounding
    first_order = proxgrad.solve_projected if resistive else proxgrad.solve_ista
    fracs = (0.05, 0.3, 0.7) if resistive else (0.3, 0.7)
    for seed in range(12):
        plant = graphs.generate("erdos_renyi", 12, p=0.5, seed=seed)
        base = graphs.default_problem(plant, resistive=resistive)
        R = spd_weight(np.random.Generator(np.random.PCG64(seed)), 12)
        base = graphs.Problem(base.plant, base.candidates, base.Q, R, 0.0,
                              resistive)
        gmax = pipeline.gamma_max(base)
        for frac in fracs:
            prob = base.with_gamma(frac * gmax)
            for solve, opts in ((proxnewton.solve_newton, proxnewton.NewtonOptions()),
                                (first_order, proxgrad.ProxGradOptions())):
                _, rep = solve(prob)
                cert = rep.certificate
                assert rep.status == "converged" and cert is not None
                assert -1e-9 * abs(cert.primal) <= cert.gap <= opts.tol_gap


def test_weak_duality_random_points():
    prob = p3_problem(gamma=0.7)
    obj = Objective(prob)
    for xv in (0.0, 0.05, 0.2, 0.5, 1.0):
        st = obj.state(np.array([xv]))
        cert = duality.certify(prob, obj, st)
        assert cert.gap >= -1e-10
        assert cert.primal >= cert.dual - 1e-10
        assert cert.y_plus.min() >= 0


def test_gap_vanishes_at_analytic_optima():
    # resistive optimum
    g = 0.5
    prob = p3_problem(gamma=g)
    xstar = np.array([(2 / np.sqrt(2 + g) - 1) / 2])
    obj = Objective(prob)
    cert = duality.certify(prob, obj, obj.state(xstar))
    assert cert.gap <= 1e-10
    assert duality_gap(xstar, cert.y_plus) <= 1e-10
    # signed optimum
    g = 1.0
    prob = two_node_problem(gamma=g)
    xstar = np.array([1 / np.sqrt(2 * (2 + g))])
    obj = Objective(prob)
    cert = duality.certify(prob, obj, obj.state(xstar))
    assert cert.gap <= 1e-10
    assert duality_gap(xstar, cert.y_plus, cert.y_minus) <= 1e-10


def test_signed_residuals_identically_zero():
    prob = two_node_problem(gamma=2.0)
    obj = Objective(prob)
    cert = duality.certify(prob, obj, obj.state(np.array([0.3])))
    assert np.allclose(cert.r_d_plus, 0.0, atol=1e-12)
    assert np.allclose(cert.r_d_minus, 0.0, atol=1e-12)


def test_resistive_residual_measures_scaling_defect():
    g = 0.5
    prob = p3_problem(gamma=g)
    obj = Objective(prob)
    # below the optimum the edge form exceeds gamma, the blend scales it
    # down and the residual against the unscaled matrix becomes visible
    cert_far = duality.certify(prob, obj, obj.state(np.array([0.0])))
    xstar = np.array([(2 / np.sqrt(2 + g) - 1) / 2])
    cert_opt = duality.certify(prob, obj, obj.state(xstar))
    assert cert_opt.rd_norm <= 1e-8
    assert cert_far.rd_norm > cert_opt.rd_norm


def test_certificate_gap_is_primal_minus_dual():
    prob = p3_problem(gamma=0.9)
    obj = Objective(prob)
    cert = duality.certify(prob, obj, obj.state(np.array([0.25])))
    assert cert.gap == pytest.approx(cert.primal - cert.dual, abs=1e-14)


def test_weighted_penalty_certificate():
    # per-edge weights enter both the feasibility bound and the multipliers
    plant = graphs.generate("path", 4)
    prob = graphs.default_problem(plant, gamma=0.8, resistive=False)
    obj = Objective(prob)
    w = np.linspace(0.5, 2.0, prob.m)
    x, rep = proxgrad.solve_ista(prob.with_gamma(prob.gamma, w), opts=TIGHT)
    cert = rep.certificate
    assert cert is not None
    assert cert.gap <= 1e-10
    d_hat = prob.gamma * w - cert.y_plus
    assert np.all(np.abs(d_hat) <= prob.gamma * w + 1e-10)


def test_converged_certificates_pass_paper_tolerances():
    g = 1.0
    prob = p3_problem(gamma=g)
    x, rep = proxgrad.solve_projected(prob, opts=TIGHT)
    cert = rep.certificate
    assert cert is not None
    assert cert.gap <= 1e-4
    assert cert.rd_norm <= 1e-3
    x, rep = proxnewton.solve_newton(two_node_problem(gamma=1.0))
    cert = rep.certificate
    assert cert is not None and cert.gap <= 1e-4 and cert.rd_norm <= 1e-3
