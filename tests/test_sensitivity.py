import dataclasses
import tracemalloc

import numpy as np
import pytest

import ipal.kkt
import ipal.linsolve
import ipal.sensitivity
from helpers import evaluate_at, random_cone, random_iterate, random_nlp, trajectory_tracking
from ipal.bench.problems import REGISTRY
from ipal.cone import ConeSpec, Orthant, SecondOrder
from ipal.kkt import MAX_REFINE, Layout, OuterState, assemble_symmetric, full_jacobian
from ipal.model import ProblemModel, StageMatrix, evaluate
from ipal.sensitivity import SensitivityResult, differentiate, residual_parameter_jacobian
from ipal.solver import SolverOptions, solve

# tight enough that the smoothed central path does not pollute the
# finite-difference comparisons
TIGHT = SolverOptions(tol=1e-10, kappa_min=1e-11, max_outer=40)


def tracking_model(targets, cone=None, p=0):
    """min 0.5||x - targets(theta)||^2 with optional bound h(x) = x in cone."""
    n = len(targets(np.zeros(1)))

    def target_jac(theta):
        d = theta.size
        J = np.zeros((n, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1e-6
            J[:, j] = (targets(theta + e) - targets(theta - e)) / 2e-6
        return J

    return ProblemModel(
        n=n,
        m=0,
        p=p,
        cone=cone or ConeSpec(()),
        objective=lambda x, th: 0.5 * np.sum((x - targets(th)) ** 2),
        objective_gradient=lambda x, th: x - targets(th),
        cone_constraint=(lambda x, th: x.copy()) if p else None,
        cone_jacobian=(lambda x, th: np.eye(n)) if p else None,
        lagrangian_hessian=lambda x, th, y, z: np.eye(n),
        parameter_jacobians=lambda x, th, y, z: (
            -target_jac(th),
            np.zeros((0, th.size)),
            np.zeros((p, th.size)),
        ),
        d=1,
    )


def test_parameter_jacobian_block_placement():
    model = ProblemModel(
        n=2,
        m=1,
        p=1,
        cone=ConeSpec((Orthant(1),)),
        objective=lambda x, th: 0.0,
        objective_gradient=lambda x, th: np.zeros(2),
        equality=lambda x, th: np.array([x[0] - th[0]]),
        equality_jacobian=lambda x, th: np.array([[1.0, 0.0]]),
        cone_constraint=lambda x, th: np.array([x[1]]),
        cone_jacobian=lambda x, th: np.array([[0.0, 1.0]]),
        lagrangian_hessian=lambda x, th, y, z: np.eye(2),
        parameter_jacobians=lambda x, th, y, z: (
            np.array([[1.0], [2.0]]),
            np.array([[3.0]]),
            np.array([[4.0]]),
        ),
        d=1,
    )
    from ipal.kkt import SolverPoint

    point = SolverPoint(
        x=np.zeros(2), r=np.zeros(1), s=np.ones(1), y=np.zeros(1), z=np.zeros(1), t=np.ones(1)
    )
    Rt = residual_parameter_jacobian(model, point, np.zeros(1))
    # rows: x(2), r(1), s(1), y(1), z(1), t(1)
    assert Rt.shape == (7, 1)
    np.testing.assert_array_equal(Rt[:, 0], [1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0])


def test_free_minimum_tracks_target():
    model = tracking_model(lambda th: np.array([2.0 * th[0], -1.0]))
    theta = np.array([0.3])
    sol = solve(model, np.array([5.0, 5.0]), theta, TIGHT)
    assert sol.solved
    out = differentiate(model, sol, theta)
    assert isinstance(out, SensitivityResult)
    assert not out.used_least_squares
    np.testing.assert_allclose(out.dx[:, 0], [2.0, 0.0], atol=1e-8)


def test_equality_shift_has_closed_form():
    # min 0.5 x'Qx  s.t. a.x = theta  =>  dx/dtheta = Qinv a / (a' Qinv a)
    Q = np.diag([2.0, 3.0, 4.0])
    a = np.array([1.0, -1.0, 2.0])
    expected = np.linalg.solve(Q, a) / (a @ np.linalg.solve(Q, a))

    model = ProblemModel(
        n=3,
        m=1,
        p=0,
        cone=ConeSpec(()),
        objective=lambda x, th: 0.5 * x @ Q @ x,
        objective_gradient=lambda x, th: Q @ x,
        equality=lambda x, th: np.array([a @ x - th[0]]),
        equality_jacobian=lambda x, th: a[None, :].copy(),
        lagrangian_hessian=lambda x, th, y, z: Q.copy(),
        parameter_jacobians=lambda x, th, y, z: (
            np.zeros((3, 1)),
            np.array([[-1.0]]),
            np.zeros((0, 1)),
        ),
        d=1,
    )
    theta = np.array([1.7])
    sol = solve(model, np.zeros(3), theta, TIGHT)
    assert sol.solved
    out = differentiate(model, sol, theta)
    assert not out.used_least_squares
    # fixed-point multiplier tracking keeps equality rows exact regardless of
    # the penalty the solve happened to converge at
    np.testing.assert_allclose(out.dx[:, 0], expected, atol=1e-9)

    moderate = solve(model, np.zeros(3), theta, SolverOptions(tol=1e-8, rho_init=1.0))
    assert moderate.solved and moderate.rho < 1e6
    out_moderate = differentiate(model, moderate, theta)
    np.testing.assert_allclose(out_moderate.dx[:, 0], expected, atol=1e-8)


def test_active_bound_pins_the_coordinate():
    # target crosses below zero in coordinate 0, bound stays active, so that
    # coordinate has zero sensitivity while the free one tracks the target
    model = tracking_model(
        lambda th: np.array([-1.0 + 0.1 * th[0], 1.0 + 0.2 * th[0]]),
        cone=ConeSpec((Orthant(2),)),
        p=2,
    )
    theta = np.array([1.0])
    sol = solve(model, np.array([1.0, 1.0]), theta, TIGHT)
    assert sol.solved
    out = differentiate(model, sol, theta)
    assert not out.used_least_squares
    np.testing.assert_allclose(out.dx[:, 0], [0.0, 0.2], atol=1e-6)


def test_inactive_bound_is_transparent():
    model = tracking_model(
        lambda th: np.array([2.0 + 0.5 * th[0], 1.0]),
        cone=ConeSpec((Orthant(2),)),
        p=2,
    )
    theta = np.array([0.5])
    sol = solve(model, np.array([1.0, 1.0]), theta, TIGHT)
    assert sol.solved
    out = differentiate(model, sol, theta)
    np.testing.assert_allclose(out.dx[:, 0], [0.5, 0.0], atol=1e-6)


def soc_projection_model():
    """Project a theta-dependent target onto the 2d second-order cone."""

    def target(th):
        return np.array([0.0, 2.0]) + th[0] * np.array([0.1, 0.3])

    return ProblemModel(
        n=2,
        m=0,
        p=2,
        cone=ConeSpec((SecondOrder(2),)),
        objective=lambda x, th: 0.5 * np.sum((x - target(th)) ** 2),
        objective_gradient=lambda x, th: x - target(th),
        cone_constraint=lambda x, th: x.copy(),
        cone_jacobian=lambda x, th: np.eye(2),
        lagrangian_hessian=lambda x, th, y, z: np.eye(2),
        parameter_jacobians=lambda x, th, y, z: (
            -np.array([[0.1], [0.3]]),
            np.zeros((0, 1)),
            np.zeros((2, 1)),
        ),
        d=1,
    )


def test_matches_finite_difference_resolves_on_active_cone():
    model = soc_projection_model()
    theta = np.array([0.0])
    sol = solve(model, np.array([3.0, 0.0]), theta, TIGHT)
    assert sol.solved
    np.testing.assert_allclose(sol.point.x, [1.0, 1.0], atol=1e-8)

    out = differentiate(model, sol, theta)
    delta = 1e-5
    xp = solve(model, sol.point.x, theta + delta, TIGHT)
    xm = solve(model, sol.point.x, theta - delta, TIGHT)
    assert xp.solved and xm.solved
    fd = (xp.point.x - xm.point.x) / (2.0 * delta)
    np.testing.assert_allclose(out.dx[:, 0], fd, atol=1e-4)


def test_matches_finite_difference_on_mixed_problem():
    # equality + orthant bound, theta enters objective and equality rhs
    Q = np.diag([1.0, 2.0, 1.5])
    a = np.array([1.0, 1.0, 1.0])

    model = ProblemModel(
        n=3,
        m=1,
        p=3,
        cone=ConeSpec((Orthant(3),)),
        objective=lambda x, th: 0.5 * x @ Q @ x + th[0] * x[0],
        objective_gradient=lambda x, th: Q @ x + np.array([th[0], 0.0, 0.0]),
        equality=lambda x, th: np.array([a @ x - 1.0 - th[1]]),
        equality_jacobian=lambda x, th: a[None, :].copy(),
        cone_constraint=lambda x, th: x.copy(),
        cone_jacobian=lambda x, th: np.eye(3),
        lagrangian_hessian=lambda x, th, y, z: Q.copy(),
        parameter_jacobians=lambda x, th, y, z: (
            np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, -1.0]]),
            np.zeros((3, 2)),
        ),
        d=2,
    )
    theta = np.array([2.0, 0.0])  # strong push on x0 keeps its bound active
    sol = solve(model, np.ones(3), theta, TIGHT)
    assert sol.solved
    assert sol.point.x[0] < 1e-8

    out = differentiate(model, sol, theta)
    delta = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = delta
        xp = solve(model, sol.point.x + 0.1, theta + e, TIGHT)
        xm = solve(model, sol.point.x + 0.1, theta - e, TIGHT)
        assert xp.solved and xm.solved
        fd = (xp.point.x - xm.point.x) / (2.0 * delta)
        np.testing.assert_allclose(out.dx[:, j], fd, atol=1e-4)


def test_flat_direction_falls_back_to_least_squares():
    # objective ignores x1 entirely, so the converged Jacobian is singular
    model = ProblemModel(
        n=2,
        m=0,
        p=0,
        cone=ConeSpec(()),
        objective=lambda x, th: 0.5 * (x[0] - th[0]) ** 2,
        objective_gradient=lambda x, th: np.array([x[0] - th[0], 0.0]),
        lagrangian_hessian=lambda x, th, y, z: np.diag([1.0, 0.0]),
        parameter_jacobians=lambda x, th, y, z: (
            np.array([[-1.0], [0.0]]),
            np.zeros((0, 1)),
            np.zeros((0, 1)),
        ),
        d=1,
    )
    theta = np.array([1.0])
    sol = solve(model, np.array([4.0, 0.7]), theta, TIGHT)
    assert sol.solved
    out = differentiate(model, sol, theta)
    assert out.used_least_squares
    np.testing.assert_allclose(out.dx[:, 0], [1.0, 0.0], atol=1e-6)


def test_repeated_equality_row_matches_least_squares():
    # one equality row repeated makes the tracked Jacobian singular but
    # consistent: factored at the dual shift and refined against the exact
    # Jacobian, dx is that of the row-equilibrated least-squares solution
    # of the dense Jacobian (the reference here), and J dw = -dR/dtheta
    # holds to round-off
    model, x0, theta = trajectory_tracking(30, duplicated_stage=15)
    sol = solve(model, x0, theta)
    assert sol.solved
    out = differentiate(model, sol, theta)
    assert out.used_least_squares
    lay = Layout(model.n, model.m, model.p)
    outer = OuterState(lam=np.zeros(model.m), rho=sol.rho, kappa=sol.kappa)
    J = full_jacobian(model, sol.point, outer, evaluate_at(model, sol.point, theta))
    J[lay.r, lay.y] = 0.0
    Rt = residual_parameter_jacobian(model, sol.point, theta)
    row = np.abs(J).max(axis=1)[:, None]
    expected = np.linalg.lstsq(J / row, -Rt / row, rcond=None)[0][lay.x]
    assert np.abs(out.dx - expected).max() <= 1e-9 * np.abs(expected).max()
    assert np.abs(J @ out.dw + Rt).max() <= 1e-10 * (1.0 + np.abs(Rt).max())


def test_repeated_equality_row_builds_no_dense_matrix(monkeypatch):
    # at T = 400, N = n + m + p = 3602: solving and differentiating with a
    # repeated equality row build no dense Jacobian, least-squares solve or
    # dense view of the stage matrices, and their traced peak memory
    # stays below an eighth of one N x N float64 array (104 MB)
    T = 400
    model, x0, theta = trajectory_tracking(T, duplicated_stage=T // 2)
    N = model.n + model.m + model.p
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(ipal.sensitivity, "full_jacobian")
    counted(ipal.kkt, "full_jacobian")
    counted(np.linalg, "lstsq")
    counted(StageMatrix, "__array__")
    tracemalloc.start()
    try:
        sol = solve(model, x0, theta)
        out = differentiate(model, sol, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.solved and out.used_least_squares
    assert calls == []
    assert peak < N * N


def test_does_not_mutate_the_solution():
    model = soc_projection_model()
    theta = np.array([0.4])
    sol = solve(model, np.array([3.0, 0.0]), theta, TIGHT)
    before = {name: getattr(sol.point, name).copy() for name in "xrsyzt"}
    differentiate(model, sol, theta)
    for bad in (np.zeros(0), np.zeros(2), np.array([np.inf])):
        with pytest.raises(ValueError, match="theta"):
            differentiate(model, sol, bad)
    for name in ("x", "r", "s", "y", "z", "t"):
        np.testing.assert_array_equal(getattr(sol.point, name), before[name])


def test_refuses_an_unconverged_solution():
    # the point of a run stopped by its iteration cap has no sensitivities
    model, x0, theta = trajectory_tracking(10)
    sol = solve(model, x0, theta, SolverOptions(max_total=2))
    assert not sol.solved
    with pytest.raises(ValueError, match="solved"):
        differentiate(model, sol, theta)


def test_tracking_family_matches_resolves():
    # the sensitivities of a transcribed problem against central differences
    # of re-solves, at the options and in the error measure of acceptance
    # criterion 6, on seeded initial states (theta) of the tracking family
    h = 1e-5
    rng = np.random.default_rng(7)
    errors = []
    for _ in range(6):
        model, x0, theta = trajectory_tracking(40, initial_state=rng.uniform(-0.5, 0.5, size=2))
        sol = solve(model, x0, theta, TIGHT)
        assert sol.solved
        out = differentiate(model, sol, theta)
        assert not out.used_least_squares
        fd = np.zeros_like(out.dx)
        for j in range(model.d):
            step = np.zeros(model.d)
            step[j] = h
            up = solve(model, x0, theta + step, TIGHT)
            dn = solve(model, x0, theta - step, TIGHT)
            assert up.solved and dn.solved
            fd[:, j] = (up.point.x - dn.point.x) / (2.0 * h)
        errors.append(np.abs(out.dx - fd).max() / (1.0 + np.abs(fd).max()))
    assert max(errors) <= 1e-4, errors


def test_result_reports_converged_residual():
    model = soc_projection_model()
    theta = np.array([0.0])
    sol = solve(model, np.array([3.0, 0.0]), theta, TIGHT)
    out = differentiate(model, sol, theta)
    assert out.residual_norm <= 1e-10
    assert out.dw.shape == (2 + 3 * 2, 1)
    np.testing.assert_array_equal(out.dx, out.dw[:2])


def mixed_model():
    """Equality plus orthant bound; theta enters the objective and the
    equality right-hand side (the model of the mixed finite-difference test)."""
    Q = np.diag([1.0, 2.0, 1.5])
    a = np.array([1.0, 1.0, 1.0])
    return ProblemModel(
        n=3,
        m=1,
        p=3,
        cone=ConeSpec((Orthant(3),)),
        objective=lambda x, th: 0.5 * x @ Q @ x + th[0] * x[0],
        objective_gradient=lambda x, th: Q @ x + np.array([th[0], 0.0, 0.0]),
        equality=lambda x, th: np.array([a @ x - 1.0 - th[1]]),
        equality_jacobian=lambda x, th: a[None, :].copy(),
        cone_constraint=lambda x, th: x.copy(),
        cone_jacobian=lambda x, th: np.eye(3),
        lagrangian_hessian=lambda x, th, y, z: Q.copy(),
        parameter_jacobians=lambda x, th, y, z: (
            np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, -1.0]]),
            np.zeros((3, 2)),
        ),
        d=2,
    )


def _registry_case(name):
    prob = REGISTRY[name]
    return prob.model, prob.x0, prob.theta


# (model, x0, theta) of full-rank problems: both registry parametric
# problems, the orthant, second-order-cone and mixed models above, and a
# T = 30 tracking problem, whose reduced system is factored stage-blocked.
FULL_RANK = {
    "tracking-30": lambda: trajectory_tracking(30),
    "double-integrator-trajopt": lambda: _registry_case("double-integrator-trajopt"),
    "mpc-autotune": lambda: _registry_case("mpc-autotune"),
    "orthant": lambda: (
        tracking_model(
            lambda th: np.array([-1.0 + 0.1 * th[0], 1.0 + 0.2 * th[0]]),
            cone=ConeSpec((Orthant(2),)),
            p=2,
        ),
        np.array([1.0, 1.0]),
        np.array([1.0]),
    ),
    "second-order": lambda: (soc_projection_model(), np.array([3.0, 0.0]), np.array([0.0])),
    "mixed": lambda: (mixed_model(), np.ones(3), np.array([2.0, 0.0])),
}


def _solved(name):
    model, x0, theta = FULL_RANK[name]()
    sol = solve(model, x0, theta, TIGHT)
    assert sol.solved
    return model, sol, theta


@pytest.mark.parametrize("name", sorted(FULL_RANK))
def test_reduced_solve_matches_dense_jacobian(name):
    # the dense reference: J at zero shift with J[r, y] = 0 (dlam = dy)
    model, sol, theta = _solved(name)
    lay = Layout(model.n, model.m, model.p)
    outer = OuterState(lam=np.zeros(model.m), rho=sol.rho, kappa=sol.kappa)
    J = full_jacobian(model, sol.point, outer, evaluate_at(model, sol.point, theta))
    J[lay.r, lay.y] = 0.0
    expected = np.linalg.solve(J, -residual_parameter_jacobian(model, sol.point, theta))
    out = differentiate(model, sol, theta)
    assert not out.used_least_squares
    assert np.abs(out.dw - expected).max() <= 1e-9 * np.abs(expected).max()


def test_differentiate_refines_in_one_loop(monkeypatch):
    # at tight tolerance the reduced solves of all parameter columns are one
    # refinement loop: at most max_refine passes after the first solve
    model, x0, theta = trajectory_tracking(75)
    sol = solve(model, x0, theta, SolverOptions(tol=1e-8, kappa_min=5e-9, max_outer=40))
    assert sol.solved
    solves = []
    original = ipal.kkt.ReducedSystem.solve

    def counting(self, fact, cache, f):
        solves.append(None)
        return original(self, fact, cache, f)

    monkeypatch.setattr(ipal.kkt.ReducedSystem, "solve", counting)
    out = differentiate(model, sol, theta)
    assert not out.used_least_squares
    assert 1 <= len(solves) <= MAX_REFINE + 1


@pytest.mark.parametrize("name", sorted(FULL_RANK))
def test_full_rank_builds_no_dense_jacobian(monkeypatch, name):
    model, sol, theta = _solved(name)
    calls = []

    def record(label, fn):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ipal.sensitivity, "full_jacobian", record("full_jacobian", full_jacobian))
    monkeypatch.setattr(np.linalg, "matrix_rank", record("matrix_rank", np.linalg.matrix_rank))
    out = differentiate(model, sol, theta)
    assert not out.used_least_squares
    assert calls == []


def test_differentiate_reuses_the_final_evaluation_of_solve(monkeypatch):
    model, sol, theta = _solved("mpc-autotune")
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(ipal.sensitivity, "evaluate", counted)
    reused = differentiate(model, sol, theta)
    assert calls == []
    # a copy made by replace does not carry the evaluation
    fresh = differentiate(model, dataclasses.replace(sol), theta)
    assert len(calls) == 1
    for a, b in ((reused.dx, fresh.dx), (reused.dw, fresh.dw)):
        assert a.tobytes() == b.tobytes()
    assert reused.residual_norm == fresh.residual_norm
    # another theta, another model object or a changed point is evaluated
    differentiate(model, sol, np.nextafter(theta, np.inf))
    differentiate(dataclasses.replace(model), sol, theta)
    sol.point.y[0] = np.nextafter(sol.point.y[0], np.inf)
    differentiate(model, sol, theta)
    assert len(calls) == 4


def test_row_scale_matches_dense_jacobian():
    # the acceptance check's row scales, read off the blocks, equal the row
    # max-norms of the dense Jacobian with J[r, y] = 0
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 5))
        model = random_nlp(rng, n, m, random_cone(rng))
        point, outer = random_iterate(rng, model)
        cache = evaluate(model, point.x, np.zeros(0), point.y, point.z)
        lay = Layout(n, m, model.p)
        J = full_jacobian(model, point, outer, cache)
        J[lay.r, lay.y] = 0.0
        expected = np.abs(J).max(axis=1)
        expected[expected == 0.0] = 1.0
        rsys = assemble_symmetric(model, point, outer, cache, tracks_multiplier=True)
        np.testing.assert_array_equal(ipal.sensitivity._row_scale(rsys, cache, outer.rho), expected)
