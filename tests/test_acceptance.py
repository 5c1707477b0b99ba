"""Acceptance gate: one test per shipping criterion, each printing a single
PASS/FAIL line with the pinned tolerances. Everything here is end-to-end:
randomized property sweeps for the algebra and linear-algebra layers, then
oracle, sensitivity, tuning, and transcription checks on the benchmark set.
"""

import time

import numpy as np

from helpers import (
    dense_inertia,
    dense_reduced_matrix,
    direction_at,
    finite_difference_residual_jacobian,
    random_cone,
    random_interior,
    random_iterate,
    random_nlp,
    residual_at,
    segment_slices,
    zero_shift_direction,
)
from ipal.bench import autotune
from ipal.bench.problems import get, names
from ipal.bench.report import run_benchmark, run_suite
from ipal.cone import (
    ConeSpec,
    Orthant,
    SecondOrder,
    cone_product,
    cone_product_jacobians,
    cone_target,
    in_cone,
    max_step_to_boundary,
)
from ipal.kkt import (
    Layout,
    assemble_symmetric,
    full_jacobian,
)
from ipal.linsolve import RegularizationState, correct_inertia, factorize
from ipal.model import ProblemModel, evaluate, validate_derivatives
from ipal.sensitivity import differentiate
from ipal.solver import SolverOptions, solve
from ipal.trajopt import Stage, TrajectoryProblem, extract_trajectory, transcribe

TIGHT = SolverOptions(tol=1e-10, kappa_min=1e-11, max_outer=40)


def _line(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _rel(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    if analytic.size == 0:
        return 0.0
    return float(np.abs(analytic - numeric).max() / (1.0 + np.abs(numeric).max()))


def _fd_product_jacobians(s, t, spec, step=1e-7):
    p = spec.dim
    Ps = np.zeros((p, p))
    Pt = np.zeros((p, p))
    for j in range(p):
        e = np.zeros(p)
        e[j] = step
        Ps[:, j] = (cone_product(s + e, t, spec) - cone_product(s - e, t, spec)) / (2 * step)
        Pt[:, j] = (cone_product(s, t + e, spec) - cone_product(s, t - e, spec)) / (2 * step)
    return Ps, Pt


def _min_slack(v, spec):
    worst = np.inf
    for seg, sl in segment_slices(spec):
        u = v[sl]
        if isinstance(seg, SecondOrder) and seg.dim >= 2:
            worst = min(worst, u[0] - np.linalg.norm(u[1:]))
        elif u.size:
            worst = min(worst, u.min())
    return worst


def test_criterion_1_cone_algebra():
    rng = np.random.default_rng(11)
    tau = 0.95
    worst_jac = 0.0
    start = time.perf_counter()
    for kind in ("orthant", "second-order"):
        for _ in range(1000):
            if kind == "orthant":
                spec = ConeSpec((Orthant(int(rng.integers(1, 6))),))
            else:
                spec = ConeSpec((SecondOrder(int(rng.integers(2, 6))),))
            a = random_interior(rng, spec)
            b = random_interior(rng, spec)
            e = cone_target(spec)
            # identity and commutativity of the segment-wise product
            assert _rel(cone_product(a, e, spec), a) < 1e-12
            assert _rel(cone_product(a, b, spec), cone_product(b, a, spec)) < 1e-12
            # product Jacobians against central differences
            Ps, Pt = cone_product_jacobians(a, b, spec)
            fPs, fPt = _fd_product_jacobians(a, b, spec)
            worst_jac = max(worst_jac, _rel(Ps, fPs), _rel(Pt, fPt))
            assert _rel(Ps, fPs) <= 1e-6 and _rel(Pt, fPt) <= 1e-6
            # boundary step: stays strictly interior, touches at the crossing
            da = rng.standard_normal(spec.dim)
            alpha = max_step_to_boundary(a, da, tau, spec)
            assert 0.0 < alpha <= 1.0
            assert in_cone(a + alpha * da, spec, strict=True)
            if alpha < 1.0:
                crossing = alpha / tau
                touch = _min_slack(a + crossing * da, spec)
                assert abs(touch) <= 1e-8 * (1.0 + np.abs(a).max() + np.abs(da).max())
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    assert _line(
        1,
        "cone-algebra",
        ok,
        f"1000 instances/type, jacobian err {worst_jac:.2e} (tol 1e-6), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_kkt_consistency():
    rng = np.random.default_rng(23)
    worst_fd = worst_red = worst_cons = worst_tight = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 5))
        cone = random_cone(rng, 5)
        model = random_nlp(rng, n, m, cone)
        point, outer = random_iterate(rng, model)
        theta = np.zeros(0)
        cache = evaluate(model, point.x, theta, point.y, point.z)
        lay = Layout(n, m, cone.dim)
        reg0 = RegularizationState()

        J = full_jacobian(model, point, outer, cache, reg0)
        Jfd = finite_difference_residual_jacobian(model, point, theta, outer)
        worst_fd = max(worst_fd, _rel(J, Jfd))
        assert _rel(J, Jfd) <= 1e-5

        # direction from the symmetric-reduction path vs the full system,
        # both at zero regularization; the reduction path refined to
        # consistency 1e-10 in at most 25 steps
        R = residual_at(model, point, theta, outer, cache)
        dw_red, err, _ = zero_shift_direction(model, point, theta, outer, R, 25, cache)
        tight = 1e-10 * (1.0 + np.abs(R).max())
        worst_tight = max(worst_tight, err / tight)
        assert err <= tight
        dw_full = np.linalg.solve(J, -R)
        worst_red = max(worst_red, _rel(dw_red, dw_full))
        assert _rel(dw_red, dw_full) <= 1e-8

        # production direction satisfies the consistency contract
        direction, reg_new, _ = direction_at(model, point, theta, outer)
        Jreg = full_jacobian(model, point, outer, cache, reg_new)
        err = np.abs(Jreg @ lay.pack(direction) + R).max()
        bound = 1e-8 * (1.0 + np.abs(R).max())
        worst_cons = max(worst_cons, err / bound)
        assert err <= bound
    assert _line(
        2,
        "kkt-consistency",
        True,
        f"200 instances: fd err {worst_fd:.2e} (tol 1e-5), reduction-vs-full err "
        f"{worst_red:.2e} (tol 1e-8, refined to {worst_tight:.2f}x the 1e-10 bound), consistency "
        f"{worst_cons:.2f}x bound",
    )


def _quadratic_model(n, m, cone, Q, A, b, C, e):
    return ProblemModel(
        n=n,
        m=m,
        p=cone.dim,
        cone=cone,
        objective=lambda x, th: 0.5 * x @ Q @ x,
        objective_gradient=lambda x, th: Q @ x,
        equality=lambda x, th: A @ x - b,
        equality_jacobian=lambda x, th: A.copy(),
        cone_constraint=lambda x, th: C @ x - e,
        cone_jacobian=lambda x, th: C.copy(),
        lagrangian_hessian=lambda x, th, y, z: Q.copy(),
    )


def test_criterion_3_inertia_correction():
    rng = np.random.default_rng(37)
    shifted = 0
    for k in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 5))
        cone = random_cone(rng, 4)
        p = cone.dim
        Q = rng.standard_normal((n, n))
        Q = 0.5 * (Q + Q.T)
        if k % 3 == 1:
            # force an indefinite Hessian with split spectrum
            vals, vecs = np.linalg.eigh(Q)
            signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            Q = (vecs * (signs * (1.0 + np.abs(vals)))) @ vecs.T
        A = rng.standard_normal((m, n))
        if k % 3 == 2:
            A[1] = A[0]  # rank-deficient equality Jacobian
        b = A @ rng.standard_normal(n)
        C = rng.standard_normal((p, n))
        e = rng.standard_normal(p)
        model = _quadratic_model(n, m, cone, Q, A, b, C, e)
        point, outer = random_iterate(rng, model)
        theta = np.zeros(0)
        cache = evaluate(model, point.x, theta, point.y, point.z)

        def build(ep, ed):
            return assemble_symmetric(model, point, outer, cache, RegularizationState(ep, ed, 0.0))

        # a certified factorization of the Schur complement means inertia
        # (n, m + p, 0), which the dense reduced matrix must have
        target = (n, m + p, 0)
        rsys, reg, _ = correct_inertia(build, RegularizationState())
        assert rsys.fact.certified, k
        assert factorize(rsys.C).certified
        assert dense_inertia(dense_reduced_matrix(model, point, outer, reg, cache)) == target, k
        shifted += reg.eps_p > 0.0
    assert _line(
        3,
        "inertia-correction",
        True,
        f"100 instances (duplicated rows, indefinite Hessians) hit (n, m+p, 0); "
        f"{shifted} needed a primal shift",
    )


def test_criterion_4_benchmarks_match_oracles():
    start = time.perf_counter()
    report = run_suite(names(), tol=1e-6)
    elapsed = time.perf_counter() - start
    worst_gap = 0.0
    for row in report.rows:
        assert row.status == "solved", row.name
        assert row.residual_norm <= 1e-6, row.name
        budget = 1e-5 * (1.0 + abs(row.oracle_objective))
        assert row.objective_gap <= budget, (row.name, row.objective_gap)
        worst_gap = max(worst_gap, row.objective_gap / budget)
        assert row.complementarity <= 1e-6, row.name
    ok = elapsed < 60.0
    assert _line(
        4,
        "solver-vs-oracle",
        ok,
        f"{len(report.rows)} benchmarks solved, residual<=1e-6, worst gap "
        f"{worst_gap:.2f}x budget, complementarity<=1e-6, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_degenerate_impact_branches():
    rows = [run_benchmark(name) for name in ("particle-impact-free", "particle-impact-contact")]
    for row in rows:
        assert row.status == "solved", row.name
        assert row.passed, row.name
    shifts = {row.name: row.used_dual_shift for row in rows}
    assert _line(
        5,
        "degenerate-branches",
        True,
        "both impact branches solved and match oracles; dual shift used: "
        + ", ".join(f"{k}={'yes' if v else 'no'}" for k, v in shifts.items()),
    )


def _equilibrated_condition(model, solution, theta):
    from ipal.kkt import OuterState

    cache = evaluate(model, solution.point.x, theta, solution.point.y, solution.point.z)
    outer = OuterState(np.zeros(model.m), solution.rho, solution.kappa)
    J = full_jacobian(model, solution.point, outer, cache, RegularizationState())
    scale = np.abs(J).max(axis=1)
    scale[scale == 0.0] = 1.0
    return float(np.linalg.cond(J / scale[:, None]))


def test_criterion_6_sensitivities_match_resolves():
    h = 1e-5
    details = []
    for name in names():
        problem = get(name)
        if problem.model.d == 0:
            continue  # nothing to differentiate
        sol = solve(problem.model, problem.x0, problem.theta, TIGHT)
        assert sol.solved, name
        cond = _equilibrated_condition(problem.model, sol, problem.theta)
        if cond > 1e10:
            details.append(f"{name} skipped (cond {cond:.1e})")
            continue
        sens = differentiate(problem.model, sol, problem.theta)
        fd = np.zeros_like(sens.dx)
        for j in range(problem.model.d):
            step = np.zeros(problem.model.d)
            step[j] = h
            up = solve(problem.model, problem.x0, problem.theta + step, TIGHT)
            dn = solve(problem.model, problem.x0, problem.theta - step, TIGHT)
            assert up.solved and dn.solved, name
            fd[:, j] = (up.point.x - dn.point.x) / (2.0 * h)
        err = _rel(sens.dx, fd)
        assert err <= 1e-4, (name, err)
        details.append(f"{name} err {err:.2e}")
    assert details, "no parametric benchmarks exercised"
    assert _line(6, "sensitivity-vs-fd", True, "; ".join(details) + " (tol 1e-4)")


def test_criterion_7_autotune_ordering_and_gradient():
    cost0, grad = autotune.closed_loop_cost(autotune.INITIAL_WEIGHTS, want_gradient=True)
    h = 1e-4
    fd = np.zeros_like(grad)
    for j in range(fd.size):
        step = np.zeros(fd.size)
        step[j] = h
        up, _ = autotune.closed_loop_cost(autotune.INITIAL_WEIGHTS + step)
        dn, _ = autotune.closed_loop_cost(autotune.INITIAL_WEIGHTS - step)
        fd[j] = (up - dn) / (2.0 * h)
    gerr = _rel(grad, fd)
    assert gerr <= 1e-3

    report = autotune.autotune(steps=10)
    assert report.tuned_cost < report.untuned_cost < report.open_loop_cost
    assert report.improved
    assert _line(
        7,
        "autotune-ordering",
        True,
        f"tuned {report.tuned_cost:.4f} < untuned {report.untuned_cost:.4f} < "
        f"open-loop {report.open_loop_cost:.4f} after 10 steps; gradient err "
        f"{gerr:.2e} (tol 1e-3)",
    )


def test_criterion_8_transcription_derivatives_and_defects():
    T = 10

    def stage():
        return Stage(
            state_dim=2,
            control_dim=1,
            cost=lambda z, th: 0.5 * z[2] ** 2,
            cost_gradient=lambda z, th: np.array([0.0, 0.0, z[2]]),
            cost_hessian=lambda z, th: np.diag([0.0, 0.0, 1.0]),
            dynamics=lambda z, th: autotune.PLANT_A @ z[:2] + autotune.PLANT_B * z[2],
            dynamics_jacobian=lambda z, th: np.column_stack(
                [autotune.PLANT_A, autotune.PLANT_B]
            ),
        )

    terminal = Stage(
        state_dim=2,
        equality=lambda z, th: z - th,
        equality_jacobian=lambda z, th: np.eye(2),
        equality_param_jacobian=lambda z, th: -np.eye(2),
        equality_dim=2,
    )
    problem = TrajectoryProblem(
        stages=[stage() for _ in range(T - 1)] + [terminal],
        initial_state=np.zeros(2),
        num_parameters=2,
    )
    model = transcribe(problem)
    rng = np.random.default_rng(5)
    check = validate_derivatives(
        model,
        rng.standard_normal(model.n),
        np.array([1.0, 0.0]),
        rng.standard_normal(model.m),
        np.zeros(model.p),
        tol=1e-5,
    )
    assert check.passed, str(check)

    sol = solve(model, np.zeros(model.n), np.array([1.0, 0.0]), SolverOptions())
    assert sol.solved
    states, controls = extract_trajectory(problem, sol.point.x)
    defect = 0.0
    for t in range(T - 1):
        z = np.concatenate([states[t], controls[t]])
        defect = max(defect, np.abs(problem.stages[t].dynamics(z, None) - states[t + 1]).max())
    assert defect <= 1e-6
    assert _line(
        8,
        "transcription",
        True,
        f"derivative validation passed (tol 1e-5); worst rollout defect {defect:.2e} (tol 1e-6)",
    )
