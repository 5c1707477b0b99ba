import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve as scipy_solve

from helpers import (
    dense_inertia,
    dense_reduced_matrix,
    dense_schur_complement,
    direction_at,
    eigen_apply,
    eigen_block,
    eigen_pair,
    evaluate_at,
    finite_difference_residual_jacobian,
    lower_band,
    random_cone,
    random_interior,
    random_iterate,
    random_nlp,
    reduced_cone_inverse_loop,
    reduced_matrix_solve,
    residual_at,
    residual_reference,
    segment_slices,
    trajectory_tracking,
    unrelaxed_residual_norm_reference,
    zero_shift_direction,
)
import ipal.kkt
import ipal.solver
from ipal.bench.problems import REGISTRY
from ipal.cone import ConeSpec, Orthant, SecondOrder
from ipal.kkt import (
    CONSISTENCY_TOL,
    MAX_REFINE,
    REFINE_TOL,
    Layout,
    OuterState,
    SolverPoint,
    assemble_symmetric,
    corrector,
    full_jacobian,
    reduced_solve,
)
from ipal.cone import ConeBlocks, cone_product, cone_product_jacobians
from ipal.linsolve import (
    DUAL_SHIFT,
    InertiaCorrectionFailure,
    NumericalFailure,
    RegularizationState,
    band_lu,
    correct_inertia,
    factorize,
    solve_refined,
)
from ipal.model import ProblemModel, StageMatrix, entries, evaluate, evaluate_values
from ipal.solver import SolverOptions, initialize_point, solve


def scalar_model(curvature=2.0):
    """min 0.5*curvature*x^2, unconstrained."""
    return ProblemModel(
        n=1,
        m=0,
        p=0,
        cone=ConeSpec(),
        objective=lambda x, th: 0.5 * curvature * float(x[0] ** 2),
        objective_gradient=lambda x, th: curvature * x,
        lagrangian_hessian=lambda x, th, y, z: curvature * np.eye(1),
    )


def equality_model():
    """min 0.5*x^2 s.t. x - 1 = 0."""
    return ProblemModel(
        n=1,
        m=1,
        p=0,
        cone=ConeSpec(),
        objective=lambda x, th: 0.5 * float(x[0] ** 2),
        objective_gradient=lambda x, th: x,
        equality=lambda x, th: x - 1.0,
        equality_jacobian=lambda x, th: np.eye(1),
        lagrangian_hessian=lambda x, th, y, z: np.eye(1),
    )


def empty_point(model):
    return SolverPoint(
        x=np.zeros(model.n), r=np.zeros(model.m), s=np.ones(model.p),
        y=np.zeros(model.m), z=np.zeros(model.p), t=np.ones(model.p),
    )


class TestResidualJacobian:
    def test_scalar_jacobian_example(self):
        model = scalar_model(curvature=2.0)
        point = empty_point(model)
        outer = OuterState(lam=np.zeros(0), rho=1.0, kappa=1.0)
        cache = evaluate_at(model, point, np.zeros(0))
        J = full_jacobian(model, point, outer, cache, RegularizationState(eps_p=0.5))
        assert J.shape == (1, 1)
        assert J[0, 0] == pytest.approx(2.5)

    def test_residual_rows(self):
        model = equality_model()
        point = SolverPoint(
            x=np.array([2.0]), r=np.array([0.5]), s=np.zeros(0),
            y=np.array([0.25]), z=np.zeros(0), t=np.zeros(0),
        )
        outer = OuterState(lam=np.array([0.1]), rho=2.0, kappa=1.0)
        R = residual_at(model, point, np.zeros(0), outer)
        # rows: x + y, lam + rho*r - y, (g - r)
        assert np.allclose(R, [2.25, 0.85, 0.5])

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, 5))
            model = random_nlp(rng, n, m, random_cone(rng))
            point, outer = random_iterate(rng, model)
            J = full_jacobian(model, point, outer, evaluate_at(model, point, np.zeros(0)))
            J_fd = finite_difference_residual_jacobian(model, point, np.zeros(0), outer)
            err = np.abs(J - J_fd).max() / (1.0 + np.abs(J).max())
            assert err <= 1e-5


class TestSymmetricReduction:
    def test_orthant_cone_block_value(self):
        # p=1 orthant, s=2, t=0.5, no shifts: cone block is -s/t = -4
        model = ProblemModel(
            n=1,
            m=0,
            p=1,
            cone=ConeSpec((Orthant(1),)),
            objective=lambda x, th: 0.0,
            objective_gradient=lambda x, th: np.zeros(1),
            cone_constraint=lambda x, th: x.copy(),
            cone_jacobian=lambda x, th: np.eye(1),
            lagrangian_hessian=lambda x, th, y, z: np.zeros((1, 1)),
        )
        point = SolverPoint(
            x=np.zeros(1), r=np.zeros(0), s=np.array([2.0]),
            y=np.zeros(0), z=np.zeros(1), t=np.array([0.5]),
        )
        outer = OuterState(lam=np.zeros(0), rho=1.0, kappa=1.0)
        rsys = assemble_symmetric(model, point, outer, evaluate_at(model, point, np.zeros(0)))
        assert rsys.N.diag[0] == pytest.approx(4.0)  # N = -(cone block of K)
        # C = 0 + 1 * (1/4) * 1
        assert rsys.C[0, 0] == pytest.approx(0.25)

    def test_K_bitwise_symmetric(self):
        # K is never formed: its symmetric pieces are, the cone blocks of N
        # bitwise symmetric and C stored once, in lower band storage, equal
        # to the dense Schur complement of the dense K, N's SecondOrder(2)
        # blocks inverted in their eigenbasis; a K whose N is not positive
        # definite has no C
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = random_nlp(rng, int(rng.integers(2, 6)), int(rng.integers(0, 4)), random_cone(rng))
            point, outer = random_iterate(rng, model)
            reg = RegularizationState(eps_p=float(rng.uniform(0, 1e-3)), eps_d=float(rng.uniform(0, 1e-6)))
            cache = evaluate(model, point.x, np.zeros(0), point.y, point.z)
            rsys = assemble_symmetric(model, point, outer, cache, reg)
            K = dense_reduced_matrix(model, point, outer, reg, cache)
            n = model.n
            definite = np.linalg.eigvalsh(-K[n:, n:]).min(initial=np.inf) > 0.0
            assert (rsys.C is not None) == definite
            if definite:
                assert all(np.array_equal(B, B.transpose(0, 2, 1)) for B in rsys.N.full_blocks())
                C = dense_schur_complement(K, n, reduced_cone_inverse_loop(model.cone, point.s, point.t, reg))
                kd = rsys.C.shape[0] - 1
                assert np.abs(rsys.C - lower_band(C, kd)).max() <= 1e-12 * (1.0 + np.abs(C).max())

    def test_recovered_rows_exact(self):
        # scalar equality problem: row 4 of the full system holds exactly,
        # including a nonzero dual shift
        model = equality_model()
        point = SolverPoint(
            x=np.array([2.0]), r=np.array([0.5]), s=np.zeros(0),
            y=np.array([0.25]), z=np.zeros(0), t=np.zeros(0),
        )
        outer = OuterState(lam=np.array([0.1]), rho=2.0, kappa=1.0)
        reg = RegularizationState(eps_p=1e-4, eps_d=1e-6)
        cache = evaluate(model, point.x, np.zeros(0), point.y, point.z)
        R = residual_at(model, point, np.zeros(0), outer, cache)
        rsys = assemble_symmetric(model, point, outer, cache, reg)
        rsys.fact = factorize(rsys.schur())
        dw = rsys.inverse(-R)
        lay = Layout(1, 1, 0)
        row4 = cache.g_x @ dw[lay.x] - dw[lay.r] - reg.eps_d * dw[lay.y]
        assert row4[0] == pytest.approx(-R[lay.y][0], abs=1e-14)

    def test_reduction_matches_full_solve(self):
        # the one-shot symmetrized solve is inexact on second-order segments
        # away from the central path; refinement against the full system
        # restores the exact direction on every draw of the corpus, with no
        # dense solve
        rng = np.random.default_rng(2024)
        refined = 0
        for _ in range(2000):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, 5))
            model = random_nlp(rng, n, m, random_cone(rng))
            point, outer = random_iterate(rng, model)
            cache = evaluate_at(model, point, np.zeros(0))
            R = residual_at(model, point, np.zeros(0), outer, cache)
            J = full_jacobian(model, point, outer, cache)
            dw_full = np.linalg.solve(J, -R)
            dw, err, passes = zero_shift_direction(model, point, np.zeros(0), outer, R)
            assert err <= CONSISTENCY_TOL * (1.0 + np.abs(R).max())
            rel = np.abs(dw - dw_full).max() / (1.0 + np.abs(dw_full).max())
            assert rel <= 1e-8
            assert np.abs(J @ dw + R).max() <= 1e-8 * (1.0 + np.abs(R).max())
            refined += passes > 0
        # the Krylov steps must actually fire on these draws
        assert refined > 0

    @pytest.mark.parametrize("kind", ["orthant", "second-order"])
    def test_columns_match_one_at_a_time(self, kind):
        # the reduced solve and the blockwise Jacobian on a 3-column matrix
        # equal their application to each column, with and without
        # multiplier tracking: the Jacobian to round-off, the solve to its
        # round-off times the conditioning of C, whose band solve of a
        # matrix rounds apart from that of a vector
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, 5))
            dim = int(rng.integers(1, 5)) if kind == "orthant" else int(rng.integers(2, 5))
            cone = ConeSpec((Orthant(dim) if kind == "orthant" else SecondOrder(dim),))
            model = random_nlp(rng, n, m, cone)
            point, outer = random_iterate(rng, model)
            reg = RegularizationState(eps_p=float(rng.uniform(0, 1e-2)), eps_d=float(rng.uniform(0, 1e-4)))
            rows = rng.standard_normal((model.n + 2 * model.m + 3 * model.p, 3))
            for track in (False, True):
                rsys = assemble_symmetric(
                    model, point, outer, evaluate_at(model, point, np.zeros(0)), reg, tracks_multiplier=track
                )
                rsys.fact = factorize(rsys.schur())
                for operator, tol in ((rsys.inverse, 1e-9), (rsys.apply, 1e-14)):
                    out = operator(rows)
                    assert out.shape == rows.shape
                    for j in range(3):
                        one = operator(rows[:, j])
                        assert np.abs(out[:, j] - one).max() <= tol * np.abs(one).max()


class TestSearchDirection:
    def test_consistency_with_returned_shifts(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, 5))
            model = random_nlp(rng, n, m, random_cone(rng))
            point, outer = random_iterate(rng, model)
            delta, reg, info = direction_at(model, point, np.zeros(0), outer)
            cache = evaluate_at(model, point, np.zeros(0))
            R = residual_at(model, point, np.zeros(0), outer, cache)
            J = full_jacobian(model, point, outer, cache, reg)
            lay = Layout(n, m, model.p)
            err = np.abs(J @ lay.pack(delta) + R).max()
            assert err <= 1e-8 * (1.0 + np.abs(R).max())
            assert info.consistency_error <= 1e-8 * (1.0 + np.abs(R).max())

    def test_indefinite_hessian_gets_shifted(self):
        model = scalar_model(curvature=-1.0)
        point = empty_point(model)
        point.x = np.array([1.0])
        outer = OuterState(lam=np.zeros(0), rho=1.0, kappa=1.0)
        delta, reg, info = direction_at(model, point, np.zeros(0), outer)
        assert info.eps_p > 0.0
        assert reg.last_eps_p == info.eps_p

    def test_convex_qp_newton_solves_subproblem_fast(self):
        # strictly convex equality QP from an interior start: the stationarity
        # system is affine, so a couple of Newton steps drive the residual to
        # round-off
        model = equality_model()
        point = SolverPoint(
            x=np.array([3.0]), r=np.array([2.0]), s=np.zeros(0),
            y=np.array([0.0]), z=np.zeros(0), t=np.zeros(0),
        )
        outer = OuterState(lam=np.zeros(1), rho=1.0, kappa=1.0)
        lay = Layout(1, 1, 0)
        for _ in range(3):
            delta, _, _ = direction_at(model, point, np.zeros(0), outer)
            point = lay.unpack(lay.pack(point) + lay.pack(delta))
        R = residual_at(model, point, np.zeros(0), outer)
        assert np.abs(R).max() <= 1e-12

    def test_zero_regularization_kept_when_inertia_correct(self):
        model = equality_model()
        point = SolverPoint(
            x=np.array([3.0]), r=np.array([2.0]), s=np.zeros(0),
            y=np.array([0.0]), z=np.zeros(0), t=np.zeros(0),
        )
        outer = OuterState(lam=np.zeros(1), rho=1.0, kappa=1.0)
        _, reg, info = direction_at(model, point, np.zeros(0), outer)
        assert info.eps_p == 0.0 and info.eps_d == 0.0


class TestJacobianApply:
    def test_matches_dense_jacobian(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, 5))
            model = random_nlp(rng, n, m, random_cone(rng))
            point, outer = random_iterate(rng, model)
            reg = RegularizationState(eps_p=float(rng.uniform(0, 1e-2)), eps_d=float(rng.uniform(0, 1e-4)))
            cache = evaluate(model, point.x, np.zeros(0), point.y, point.z)
            rsys = assemble_symmetric(model, point, outer, cache, reg)
            J = full_jacobian(model, point, outer, cache, reg)
            for dw in (rng.standard_normal(J.shape[0]), rng.standard_normal((J.shape[0], 3))):
                err = np.abs(rsys.apply(dw) - J @ dw).max()
                assert err <= 1e-13 * np.abs(J).max() * np.abs(dw).max()

    def test_tracked_multiplier_drops_the_r_y_coupling(self):
        # with dlam = dy the operator and the reduced solve both follow the
        # dense Jacobian with J[r, y] = 0; orthant cones keep the reduction
        # exact, and m <= n keeps that Jacobian nonsingular
        rng = np.random.default_rng(16)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            model = random_nlp(rng, n, m, ConeSpec((Orthant(int(rng.integers(1, 5))),)))
            point, outer = random_iterate(rng, model)
            cache = evaluate(model, point.x, np.zeros(0), point.y, point.z)
            lay = Layout(n, m, model.p)
            J = full_jacobian(model, point, outer, cache, RegularizationState())
            J[lay.r, lay.y] = 0.0
            rows = rng.standard_normal((lay.total, 3))
            rsys = assemble_symmetric(model, point, outer, cache, tracks_multiplier=True)
            dw = rng.standard_normal((lay.total, 3))
            err = np.abs(rsys.apply(dw) - J @ dw).max()
            assert err <= 1e-13 * np.abs(J).max() * np.abs(dw).max()
            # the tracked C has the dual shift on the equality duals alone;
            # refined against the tracked system, the solve is exact
            expected = np.linalg.solve(J, -rows)
            rsys.fact = factorize(rsys.schur())
            got, _, _, _ = reduced_solve(rsys, rows, MAX_REFINE)
            assert np.abs(got - expected).max() <= 1e-8 * (1.0 + np.abs(expected).max())


def _counting(monkeypatch, module, name, seen):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_solve_builds_no_dense_jacobian_without_fallback(monkeypatch, name):
    prob = REGISTRY[name]
    jacobians, directions = [], []
    _counting(monkeypatch, ipal.kkt, "full_jacobian", jacobians)
    _counting(monkeypatch, ipal.solver, "search_direction", directions)
    sol = solve(prob.model, prob.x0, prob.theta)
    assert len(directions) == sol.total_iterations > 0
    assert not any(info.used_full_solve for _, _, info in directions)
    assert len(jacobians) == 0


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_each_direction_is_solved_through_the_system_at_its_shifts(monkeypatch, name):
    # the system correct_inertia certified, which the direction and the
    # corrector solve through, is the one assembled at the returned shifts
    prob = REGISTRY[name]
    directions = []
    _counting(monkeypatch, ipal.solver, "search_direction", directions)
    sol = solve(prob.model, prob.x0, prob.theta)
    assert sol.solved and directions
    for _, reg, info in directions:
        rsys = info.system
        assert (rsys.eps_p, rsys.eps_d) == (info.eps_p, info.eps_d) == (reg.eps_p, reg.eps_d)
        assert rsys.fact.certified and info.inertia_trials >= 1


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_solve_computes_each_residual_once(monkeypatch, name):
    # one pass over the rows the residual and its unrelaxed norm share, and
    # one unrelaxed residual norm, per evaluated iterate, the final one
    # included; one stacked residual per Newton iteration: an outer update
    # refreshes only the rows that read lam, rho and kappa
    prob = REGISTRY[name]
    passes, residuals, norms, evaluations = [], [], [], []
    _counting(monkeypatch, ipal.solver, "unrelaxed_rows", passes)
    _counting(monkeypatch, ipal.solver, "residual", residuals)
    _counting(monkeypatch, ipal.kkt, "residual", residuals)
    _counting(monkeypatch, ipal.solver, "unrelaxed_residual_norm", norms)
    _counting(monkeypatch, ipal.solver, "evaluate", evaluations)
    sol = solve(prob.model, prob.x0, prob.theta)
    assert sol.solved and sol.outer_iterations > 0
    assert len(residuals) == sol.total_iterations
    assert len(passes) == len(norms) == len(evaluations) == sol.total_iterations + 1


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_outer_update_forms_the_products_once(monkeypatch, name):
    # s o t is formed once per evaluated iterate for the residual's rows,
    # and once per outer update, where LOQO's centrality and the refreshed
    # complementarity rows share it; the corrector of a step the boundary
    # cuts forms one product more, ds o dt, counted apart
    prob = REGISTRY[name]
    in_kkt, in_updates, in_corrector = [], [], []
    _counting(monkeypatch, ipal.kkt, "cone_product", in_kkt)
    _counting(monkeypatch, ipal.solver, "cone_product", in_updates)
    original = ipal.solver.corrector

    def corrector(*args):
        before = len(in_kkt)
        out = original(*args)
        in_corrector.append(len(in_kkt) - before)
        return out

    monkeypatch.setattr(ipal.solver, "corrector", corrector)
    sol = solve(prob.model, prob.x0, prob.theta, SolverOptions(record_trace=True))
    assert sol.solved and sol.outer_iterations > 0
    assert in_corrector == [1] * sum(rec.cut for rec in sol.trace)
    assert len(in_kkt) - len(in_corrector) == sol.total_iterations + 1
    assert len(in_updates) == sol.outer_iterations


CORRECTOR_CASES = {name: lambda prob=prob: (prob.model, prob.x0, prob.theta)
                   for name, prob in REGISTRY.items() if prob.model.p > 0}
CORRECTOR_CASES["tracking-12"] = lambda: trajectory_tracking(12)


@pytest.mark.parametrize("name", sorted(CORRECTOR_CASES))
def test_corrected_direction_matches_the_dense_solve(monkeypatch, name):
    # at every iterate of a solve, the corrected direction delta + dc solves
    # the dense Jacobian at the direction's shifts against R + (0, ..., ds o
    # dt) to the consistency bound of search_direction, in its residual and
    # against np.linalg.solve
    model, x0, theta = CORRECTOR_CASES[name]()
    captured = []
    original = ipal.solver.search_direction

    def capturing(model, point, outer, reg, cache, R, norm_R):
        out = original(model, point, outer, reg, cache, R, norm_R)
        captured.append((point, outer, cache, R.copy(), out))
        return out

    monkeypatch.setattr(ipal.solver, "search_direction", capturing)
    sol = solve(model, x0, theta)
    assert sol.solved and captured
    lay = Layout(model.n, model.m, model.p)
    for point, outer, cache, R, (delta, reg, info) in captured:
        corrected = corrector(model, R, delta, info)
        assert corrected is not None
        rhs = -R
        rhs[lay.t] -= cone_product(delta.s, delta.t, model.cone)
        J = full_jacobian(model, point, outer, cache, reg)
        got, expected = lay.pack(corrected), np.linalg.solve(J, rhs)
        bound = CONSISTENCY_TOL * (1.0 + np.abs(rhs).max())
        assert np.abs(J @ got - rhs).max() <= bound
        assert np.abs(got - expected).max() <= CONSISTENCY_TOL * (1.0 + np.abs(expected).max())


SHARED_PASS_CASES = {name: lambda prob=prob: (prob.model, prob.x0, prob.theta) for name, prob in REGISTRY.items()}
SHARED_PASS_CASES["tracking-10"] = lambda: trajectory_tracking(10)


@pytest.mark.parametrize("name", sorted(SHARED_PASS_CASES))
def test_shared_residual_pass_is_bitwise_the_separate_passes(monkeypatch, name):
    # every unrelaxed norm a solve takes, and every R it hands to a Newton
    # direction, outer updates included, are bitwise those of the two
    # separate passes in helpers.py
    model, x0, theta = SHARED_PASS_CASES[name]()
    norm, direction = ipal.solver.unrelaxed_residual_norm, ipal.solver.search_direction
    checked = {"norms": 0, "residuals": 0}

    def checked_norm(model, point, theta, cache=None, rows=None):
        value = norm(model, point, theta, cache, rows)
        reference = unrelaxed_residual_norm_reference(model, point, cache)
        assert np.float64(value).tobytes() == np.float64(reference).tobytes()
        checked["norms"] += 1
        return value

    def checked_direction(model, point, outer, reg, cache, R, norm_R):
        assert R.tobytes() == residual_reference(model, point, outer, cache).tobytes()
        # the one max-norm of R taken per Newton iteration
        assert np.float64(norm_R).tobytes() == np.abs(R).max().tobytes()
        checked["residuals"] += 1
        return direction(model, point, outer, reg, cache, R, norm_R)

    monkeypatch.setattr(ipal.solver, "unrelaxed_residual_norm", checked_norm)
    monkeypatch.setattr(ipal.solver, "search_direction", checked_direction)
    sol = solve(model, x0, theta)
    assert sol.solved
    assert checked == {"norms": sol.total_iterations + 1, "residuals": sol.total_iterations}



SOLVE_CASES = {name: lambda prob=prob: (prob.model, prob.x0, prob.theta) for name, prob in REGISTRY.items()}
SOLVE_CASES["tracking-30"] = lambda: trajectory_tracking(30, initial_state=(0.1, 0.1))


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_cone_jacobians_stay_blocked_outside_the_fallback(monkeypatch, name):
    # the dense product Jacobians are never built, and no reduced system
    # holds a p x p matrix
    model, x0, theta = SOLVE_CASES[name]()
    dense, directions, systems = [], [], []
    _counting(monkeypatch, ipal.kkt, "cone_product_jacobians", dense)
    _counting(monkeypatch, ipal.solver, "search_direction", directions)
    _counting(monkeypatch, ipal.kkt, "assemble_symmetric", systems)
    sol = solve(model, x0, theta)
    assert sol.solved and systems
    assert len(dense) == 0
    assert not any(info.used_full_solve for _, _, info in directions)
    for rsys in systems:
        for field in dataclasses.fields(rsys):
            if field.name != "C":  # C, of order n, is in band storage
                assert np.shape(getattr(rsys, field.name)) != (model.p, model.p)


def _cone_blocks_loop(model, point, reg):
    """N's cone block, M + eps_d I with M = sym(W^-1 P_tb), and W = P_s +
    eps_p P_tb, one segment at a time: a SecondOrder(2) segment in the
    eigenbasis (1, +-1)/sqrt(2) of its arrow matrices, W as its eigenvalue
    pair, any other by one np.linalg.solve per segment; the batched
    assembly must reproduce both exactly."""
    p = model.p
    Ps, Pt = cone_product_jacobians(point.s, point.t, model.cone)
    Ptb = Pt - reg.eps_d * np.eye(p)
    N = reg.eps_d * np.eye(p)
    W = []
    for seg, sl in segment_slices(model.cone):
        if isinstance(seg, SecondOrder) and seg.dim == 2:
            Ptb_pair = eigen_pair(point.s[sl]) + (-reg.eps_d)
            Wb = eigen_pair(point.t[sl]) + reg.eps_p * Ptb_pair
            N[sl, sl] = eigen_block(Ptb_pair / Wb + reg.eps_d)
            W.append((seg, sl, Wb))
            continue
        Wb = Ps[sl, sl] + reg.eps_p * Ptb[sl, sl]
        if isinstance(seg, SecondOrder) and seg.dim >= 2:
            M = np.linalg.solve(Wb, Ptb[sl, sl])
            N[sl, sl] += 0.5 * (M + M.T)
        else:
            N[sl, sl] += np.diag(np.diag(Ptb[sl, sl]) / np.diag(Wb))
        W.append((seg, sl, Wb))
    return N, W


def _apply_W_inverse_loop(W, v):
    out = np.empty_like(v)
    for seg, sl, Wb in W:
        if isinstance(seg, SecondOrder) and seg.dim == 2:
            out[sl] = eigen_apply(np.divide, Wb, v[sl])
        elif isinstance(seg, SecondOrder) and seg.dim >= 2:
            out[sl] = np.linalg.solve(Wb, v[sl])
        else:
            d = np.diag(Wb)
            out[sl] = v[sl] / d if v.ndim == 1 else v[sl] / d[:, None]
    return out


def test_batched_cone_solves_match_segment_loop():
    # one stacked solve per second-order dimension, bitwise equal to one
    # solve per segment (dimension 2 in the eigenbasis of its arrow
    # matrices), for vectors, matrices and column matrices
    rng = np.random.default_rng(41)
    for _ in range(60):
        segs = []
        for _ in range(int(rng.integers(1, 7))):
            kind = rng.integers(3)
            segs.append(Orthant(int(rng.integers(1, 4))) if kind == 0 else SecondOrder(int(rng.integers(1, 5))))
        cone = ConeSpec(tuple(segs))
        model = random_nlp(rng, int(rng.integers(1, 5)), int(rng.integers(0, 3)), cone)
        point, outer = random_iterate(rng, model)
        point.s = random_interior(rng, cone, scale=float(rng.uniform(0.1, 10.0)))
        reg = RegularizationState(eps_p=float(rng.uniform(0, 1e-2)), eps_d=float(rng.uniform(0, 1e-4)))
        rsys = assemble_symmetric(model, point, outer, evaluate_at(model, point, np.zeros(0)), reg)
        N, W = _cone_blocks_loop(model, point, reg)
        if rsys.N is None:  # N is not positive definite: no C
            assert np.linalg.eigvalsh(N).min() <= 0.0
        else:
            np.testing.assert_array_equal(rsys.N.dense(), N)
        for v in (rng.standard_normal(model.p), rng.standard_normal((model.p, 3)),
                  rng.standard_normal((model.p, 1))):
            np.testing.assert_array_equal(rsys.W.solve(v), _apply_W_inverse_loop(W, v))


def _tracking_iterate(model, x0, theta):
    """A transcribed model's initial iterate with spread equality duals, an
    outer state and the evaluation there."""
    point = initialize_point(model, x0, evaluate_values(model, x0, theta))
    point.y = np.linspace(-1.0, 1.0, model.m)
    outer = OuterState(lam=np.zeros(model.m), rho=10.0, kappa=0.1)
    return point, outer, evaluate(model, point.x, theta, point.y, point.z)


def _tracking_assembler(model, x0, theta, tracks_multiplier=False):
    """Reduced system of a transcribed model at ``_tracking_iterate``, and
    its dense reduced matrix, as functions of the shifts (eps_p, eps_d)."""
    point, outer, cache = _tracking_iterate(model, x0, theta)

    def assemble(ep, ed):
        return assemble_symmetric(
            model, point, outer, cache, RegularizationState(ep, ed), tracks_multiplier=tracks_multiplier
        )

    def dense(ep, ed):
        return dense_reduced_matrix(model, point, outer, RegularizationState(ep, ed), cache, tracks_multiplier)

    return assemble, dense


def test_negative_curvature_stages_reach_target_with_dense_shifts():
    # concave position cost on every third stage: C = P + A'N^{-1}A is
    # indefinite at zero shift, so K is not certified, and indeed its dense
    # inertia is wrong. correct_inertia walks the primal shift until C
    # factors, and on every trial the certificate's verdict is the dense one
    T = 20
    weights = np.where(np.arange(T) % 3 == 1, -4.0, 1.0)
    model, x0, theta = trajectory_tracking(T, position_weights=weights)
    build, dense = _tracking_assembler(model, x0, theta)
    target = (model.n, model.m + model.p, 0)
    rsys = build(0.0, 0.0)
    assert rsys.C is not None and not factorize(rsys.schur()).certified
    trials = []

    def assemble(ep, ed):
        rsys = build(ep, ed)
        trials.append((factorize(rsys.schur()).certified, dense_inertia(dense(ep, ed)) == target))
        return rsys

    rsys, fact, reg, count = correct_inertia(assemble, RegularizationState())
    assert fact.certified and reg.eps_p > 0.0 and reg.eps_d == 0.0
    assert (rsys.eps_p, rsys.eps_d) == (reg.eps_p, reg.eps_d)
    assert count == len(trials) > 1 and trials[-1] == (True, True)
    assert all(certified == dense for certified, dense in trials)


@pytest.mark.parametrize("shifts", [(0.0, 0.0), (1e-4, 1e-8)])
def test_schur_complement_matches_dense(shifts):
    # C = P + A'N^{-1}A summed from products of stored entries against the
    # dense formula, to 1e-12 of its largest entry; nothing lies outside its
    # band
    model, x0, theta = trajectory_tracking(12)
    build, dense = _tracking_assembler(model, x0, theta)
    rsys = build(*shifts)
    n = model.n
    expected = dense_schur_complement(dense(*shifts), n)
    C = rsys.C
    kd = C.shape[0] - 1
    got = np.zeros((n, n))
    for k in range(kd + 1):
        got[np.arange(k, n), np.arange(n - k)] = C[k, : n - k]
    assert np.abs(np.tril(expected, -kd - 1)).max() == 0.0
    assert np.abs(got - np.tril(expected)).max() <= 1e-12 * np.abs(expected).max()


def test_indefinite_schur_complement_falls_back_to_the_sweep():
    # concave position cost on every third stage: C = P + A'N^{-1}A is
    # indefinite at zero shift, its Cholesky fails, so its band LU is taken
    # and K has no certified inertia. correct_inertia walks the primal
    # shift until C factors, and without C no shift is accepted
    T = 20
    weights = np.where(np.arange(T) % 3 == 1, -4.0, 1.0)
    model, x0, theta = trajectory_tracking(T, position_weights=weights)
    build, dense = _tracking_assembler(model, x0, theta)
    target = (model.n, model.m + model.p, 0)
    rsys = build(0.0, 0.0)
    assert rsys.C is not None
    fact = factorize(rsys.schur())
    assert not fact.certified and fact.pivots is not None and dense_inertia(dense(0.0, 0.0)) != target
    _, fact, reg, _ = correct_inertia(build, RegularizationState())
    assert fact.certified and reg.eps_p > 0.0
    assert dense_inertia(dense(reg.eps_p, reg.eps_d)) == target

    def without_c(ep, ed):
        build(ep, ed)
        raise NumericalFailure("no Schur complement")

    with pytest.raises(InertiaCorrectionFailure):
        correct_inertia(without_c, RegularizationState())


def _identity_cone_model(spec):
    """min 0.5 |x|^2 s.t. x in the cone ``spec``, n = p = spec.dim."""
    p = spec.dim
    return ProblemModel(
        n=p, m=0, p=p, cone=spec,
        objective=lambda x, th: 0.5 * x @ x,
        objective_gradient=lambda x, th: x,
        cone_constraint=lambda x, th: x,
        cone_jacobian=lambda x, th: np.eye(p),
        lagrangian_hessian=lambda x, th, y, z: np.eye(p),
    )


def test_indefinite_cone_block_leaves_the_schur_complement_out():
    # away from the central path the symmetrized second-order block M of a
    # three-dimensional segment is indefinite. K = [[I, I], [I, -M]] has the
    # target inertia, yet C = I + M^{-1} is indefinite: Haynsworth's theorem
    # needs N definite, so assembly leaves C out and the system cannot be
    # factored. correct_inertia takes the dual shift, then walks the primal
    # shift until M + eps_d I is definite and C certifies K
    model = _identity_cone_model(ConeSpec((SecondOrder(3),)))
    point = SolverPoint(
        x=np.array([1.0, 0.5, 0.0]), r=np.zeros(0), s=np.array([1.0, 0.9, 0.0]),
        y=np.zeros(0), z=-np.ones(3), t=np.array([1.0, 0.0, 0.9]),
    )
    outer = OuterState(np.zeros(0), 1.0, 0.1)
    cache = evaluate(model, point.x, np.zeros(0), point.y, point.z)
    rsys = assemble_symmetric(model, point, outer, cache)
    K = dense_reduced_matrix(model, point, outer, RegularizationState(), cache)
    M = -K[3:, 3:]
    assert np.linalg.eigvalsh(M).min() < 0.0
    assert np.linalg.eigvalsh(K[:3, :3] + np.linalg.inv(M)).min() < 0.0
    assert rsys.C is None and dense_inertia(K) == (3, 3, 0)
    with pytest.raises(NumericalFailure):
        rsys.schur()
    build = lambda ep, ed: assemble_symmetric(model, point, outer, cache, RegularizationState(ep, ed))
    _, fact, reg, _ = correct_inertia(build, RegularizationState())
    assert fact.certified and reg.eps_p > 0.0 and reg.eps_d == DUAL_SHIFT
    assert dense_inertia(dense_reduced_matrix(model, point, outer, reg, cache)) == (3, 3, 0)


def test_boundary_cone_block_is_raised_for_the_certificate():
    # a second-order block of N of dimension 3 at the cone boundary, rank
    # deficient as measured: it passes its Cholesky factorization only by
    # round-off and has no inverse. complement raises its stack by
    # CONE_RAISE and counts it, and the C it returns certifies K = [[I, I],
    # [I, -B]], whose dense inertia is the target; the N it returns, for
    # the solves, is the raised block
    a = 3.2e8
    B = np.array([[a, a, 0.0], [a, a, 0.0], [0.0, 0.0, a]])
    np.linalg.cholesky(B)
    assert np.linalg.matrix_rank(B) == 2
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(B)
    spec = ConeSpec((SecondOrder(3),))
    model = _identity_cone_model(spec)
    point = SolverPoint(
        x=np.ones(3), r=np.zeros(0), s=np.array([1.0, 0.5, 0.0]),
        y=np.zeros(0), z=-np.ones(3), t=np.array([1.0, 0.5, 0.0]),
    )
    cache = evaluate_at(model, point, np.zeros(0))
    plan = assemble_symmetric(model, point, OuterState(np.zeros(0), 1.0, 0.1), cache).plan
    identity = np.eye(3).reshape(-1)  # the stored entries of L_xx and h_x
    C, N, raised = plan.complement(identity, identity, 0.0, 1.0, ConeBlocks(spec, np.zeros(0), (B[None],)))
    assert raised == 1
    assert factorize(C).certified
    assert dense_inertia(np.block([[np.eye(3), np.eye(3)], [np.eye(3), -B]])) == (3, 3, 0)
    raised_block = N.blocks[0][0]
    assert raised_block[0, 1] == raised_block[1, 0] == a and np.all(np.diag(raised_block) > a)
    assert np.linalg.eigvalsh(raised_block).min() > 0.0


def test_boundary_eigenvalue_pair_is_inverted_exactly():
    # a SecondOrder(2) block of N at the cone boundary, held as its
    # eigenvalue pair: the small eigenvalue that the block's entries lose
    # is kept, so complement raises nothing and C = I + N^{-1} holds N's
    # exact inverse. A zero eigenvalue is not positive definite: no C
    a = 3.2e8
    spec = ConeSpec((SecondOrder(2),))
    model = _identity_cone_model(spec)
    point = SolverPoint(
        x=np.ones(2), r=np.zeros(0), s=np.array([1.0, 0.5]),
        y=np.zeros(0), z=-np.ones(2), t=np.array([1.0, 0.5]),
    )
    cache = evaluate_at(model, point, np.zeros(0))
    plan = assemble_symmetric(model, point, OuterState(np.zeros(0), 1.0, 0.1), cache).plan
    identity = np.eye(2).reshape(-1)
    pairs = np.array([[2.0 * a, 6e-8]])
    C, N, raised = plan.complement(identity, identity, 0.0, 1.0, ConeBlocks(spec, np.zeros(0), (pairs,)))
    assert raised == 0 and N.blocks[0] is pairs
    np.testing.assert_array_equal(C, lower_band(np.eye(2) + eigen_block(1.0 / pairs[0]), C.shape[0] - 1))
    assert factorize(C).certified
    assert plan.complement(identity, identity, 0.0, 1.0,
                           ConeBlocks(spec, np.zeros(0), (np.array([[2.0 * a, 0.0]]),))) is None


def test_tracked_system_drops_the_schur_complement():
    # tracking the multiplier takes the penalty term off the equality-dual
    # diagonal of K, so at zero shift that diagonal is zero, and with a
    # repeated equality row the tracked K is singular. Its Schur complement
    # is that of K with the dual shift on the equality duals alone, so it
    # factors and does not show the singularity: G G' does (next test)
    model, x0, theta = trajectory_tracking(12, duplicated_stage=4)
    tracked, dense = _tracking_assembler(model, x0, theta, tracks_multiplier=True)
    rsys = tracked(0.0, 0.0)
    K = dense(0.0, 0.0)
    eigs = np.abs(np.linalg.eigvalsh(K))
    assert eigs.min() <= 1e-12 * eigs.max()
    n, y = model.n, np.arange(model.n, model.n + model.m)
    assert not K[y, y].any()
    K[y, y] = -DUAL_SHIFT
    C = dense_schur_complement(K, n)
    assert np.abs(rsys.C - lower_band(C, rsys.C.shape[0] - 1)).max() <= 1e-12 * np.abs(C).max()
    assert factorize(rsys.schur()).certified


def test_duplicated_equality_rows_stay_blocked(monkeypatch):
    # stage 4 pins u = 0 twice; with the multiplier tracking the dual (as
    # when differentiating) nothing regularizes the repeated rows. The band
    # LU of G G', the equality duals in their stage order, reports the
    # exactly zero pivot, and the tracked system factors through its C at
    # zero shift and at the primal shift, as differentiate takes them;
    # every LAPACK factorization reads a band of order at most n
    model, x0, theta = trajectory_tracking(12, duplicated_stage=4)
    build, dense = _tracking_assembler(model, x0, theta, tracks_multiplier=True)
    rsys = build(0.0, 0.0)
    orders = []
    for name in ("dpbtrf", "dgbtrf"):
        original = getattr(ipal.linsolve, name)

        def recorded(ab, *args, original=original, **kwargs):
            orders.append(ab.shape)
            return original(ab, *args, **kwargs)

        monkeypatch.setattr(ipal.linsolve, name, recorded)
    gram = rsys.plan.gram(entries(_tracking_iterate(model, x0, theta)[2].g_x)[1])
    assert gram.shape[0] < model.m
    with pytest.raises(NumericalFailure):
        band_lu(gram)
    for shifts in ((0.0, 0.0), (DUAL_SHIFT, 0.0)):
        assert factorize(build(*shifts).schur()).certified
    assert all(shape[1] <= model.n and shape[0] < 3 * model.m for shape in orders)
    monkeypatch.undo()
    eigs = np.abs(np.linalg.eigvalsh(dense(0.0, 0.0)))
    assert eigs.min() <= 1e-12 * eigs.max()


def test_fixed_shift_failure_raises_numerical_failure():
    # t = 0 makes the second-order product Jacobian d(s o t)/ds singular, so
    # the reduced system cannot be built at zero shift: assemble_symmetric
    # reports it as a NumericalFailure
    rng = np.random.default_rng(5)
    model = random_nlp(rng, 2, 0, ConeSpec((SecondOrder(2),)))
    point, outer = random_iterate(rng, model)
    point.s, point.t = np.array([1.0, 0.0]), np.zeros(2)
    with pytest.raises(NumericalFailure):
        assemble_symmetric(model, point, outer, evaluate_at(model, point, np.zeros(0)))


def test_directions_refine_against_the_full_system_only(monkeypatch):
    # refinement applies the full Jacobian blockwise and the reduced matrix
    # never exists: a tracking solve makes no dense view of a stage matrix
    # and builds no dense Jacobian
    dense = []
    _counting(monkeypatch, StageMatrix, "__array__", dense)
    _counting(monkeypatch, ipal.kkt, "full_jacobian", dense)
    model, x0, theta = trajectory_tracking(100)
    assert solve(model, x0, theta).solved
    assert dense == []


def _acceptance_2_instances():
    """The 200 random iterates of ACCEPTANCE 2 (criterion 2 of
    test_acceptance.py), drawn in the same order."""
    rng = np.random.default_rng(23)
    for _ in range(200):
        n, m = int(rng.integers(1, 7)), int(rng.integers(0, 5))
        model = random_nlp(rng, n, m, random_cone(rng, 5))
        point, outer = random_iterate(rng, model)
        yield model, point, outer


def _solves_through_c(rsys, cache):
    """The solves of K u = f through C and N that a system offers: by the
    factorization ``factorize`` takes (Cholesky, or the band LU where C is
    indefinite) and by the band LU of C."""
    return (factorize(rsys.schur()), band_lu(rsys.C))


def test_schur_solves_match_the_dense_reduced_matrix_on_indefinite_c():
    # ACCEPTANCE 2's iterates, solved there at zero shift (zero_shift_direction):
    # N is positive definite on all 200, and C is indefinite on 89, where
    # factorize takes its band LU. Each solve through C and N, one shot,
    # matches the dense solve of K
    indefinite = 0
    for model, point, outer in _acceptance_2_instances():
        cache = evaluate(model, point.x, np.zeros(0), point.y, point.z)
        rsys = assemble_symmetric(model, point, outer, cache)
        K = dense_reduced_matrix(model, point, outer, RegularizationState(), cache)
        f = np.random.default_rng(model.n).standard_normal((K.shape[0], 3))
        expected = np.linalg.solve(K, f)
        factors = _solves_through_c(rsys, cache)
        indefinite += not factors[0].certified
        for fact in factors:
            err = np.abs(reduced_matrix_solve(rsys, fact, f) - expected).max()
            assert err <= 1e-12 * np.abs(expected).max()
    assert indefinite == 89


SCHUR_CASES = {name: lambda prob=prob: (prob.model, prob.x0, prob.theta) for name, prob in REGISTRY.items()}
SCHUR_CASES["tracking-12"] = lambda: trajectory_tracking(12)


@pytest.mark.parametrize("name", sorted(SCHUR_CASES))
def test_schur_solves_match_the_dense_reduced_matrix(monkeypatch, name):
    # every reduced system a solve assembles: the solves of K through C and
    # N, by the Cholesky factorization of C and by its band LU, refined
    # against the dense K, match its dense solve. Late in a solve K has a
    # condition number near 1e9 and two dense solvers differ by more than
    # 1e-10 relative; there the solves must stay within ten times that
    model, x0, theta = SCHUR_CASES[name]()
    captured = []
    original = ipal.kkt.assemble_symmetric

    def capture(*args, **kwargs):
        captured.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ipal.kkt, "assemble_symmetric", capture)
    assert solve(model, x0, theta).solved
    monkeypatch.undo()
    rng = np.random.default_rng(len(name))
    for _, point, outer, cache, reg in captured:
        rsys = assemble_symmetric(model, point, outer, cache, reg)
        K = dense_reduced_matrix(model, point, outer, reg, cache)
        f = rng.standard_normal((K.shape[0], 3))
        expected = np.linalg.solve(K, f)
        scale = np.abs(expected).max()
        spread = np.abs(scipy_solve(K, f) - expected).max() / scale
        factors = _solves_through_c(rsys, cache)
        assert factors[0].certified and not factors[1].certified
        for fact in factors:
            got = solve_refined(
                lambda u: K @ u, lambda b: reduced_matrix_solve(rsys, fact, b), f, MAX_REFINE, REFINE_TOL
            )[0]
            assert np.abs(got - expected).max() / scale <= max(1e-10, 10.0 * spread)
