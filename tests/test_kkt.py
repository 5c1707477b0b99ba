import dataclasses

import numpy as np
import pytest

from helpers import (
    finite_difference_residual_jacobian,
    random_cone,
    random_interior,
    random_iterate,
    random_nlp,
    trajectory_tracking,
)
import ipal.kkt
import ipal.solver
from ipal.bench.problems import REGISTRY
from ipal.cone import ConeSpec, Orthant, SecondOrder
from ipal.kkt import (
    DirectionOptions,
    Layout,
    OuterState,
    SolverPoint,
    assemble_symmetric,
    full_jacobian,
    jacobian_apply,
    reduced_direction,
    reduced_solve,
    residual,
    search_direction,
)
from ipal.cone import cone_product_jacobians
from ipal.linsolve import (
    InertiaOptions,
    RegularizationState,
    correct_inertia,
    factorize,
)
from ipal.model import ProblemModel, evaluate
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
        J = full_jacobian(model, point, np.zeros(0), outer, RegularizationState(eps_p=0.5))
        assert J.shape == (1, 1)
        assert J[0, 0] == pytest.approx(2.5)

    def test_residual_rows(self):
        model = equality_model()
        point = SolverPoint(
            x=np.array([2.0]), r=np.array([0.5]), s=np.zeros(0),
            y=np.array([0.25]), z=np.zeros(0), t=np.zeros(0),
        )
        outer = OuterState(lam=np.array([0.1]), rho=2.0, kappa=1.0)
        R = residual(model, point, np.zeros(0), outer)
        # rows: x + y, lam + rho*r - y, (g - r)
        assert np.allclose(R, [2.25, 0.85, 0.5])

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, 5))
            model = random_nlp(rng, n, m, random_cone(rng))
            point, outer = random_iterate(rng, model)
            J = full_jacobian(model, point, np.zeros(0), outer)
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
        rsys = assemble_symmetric(model, point, np.zeros(0), outer)
        assert np.asarray(rsys.K)[1, 1] == pytest.approx(-4.0)

    def test_K_bitwise_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = random_nlp(rng, int(rng.integers(2, 6)), int(rng.integers(0, 4)), random_cone(rng))
            point, outer = random_iterate(rng, model)
            reg = RegularizationState(eps_p=float(rng.uniform(0, 1e-3)), eps_d=float(rng.uniform(0, 1e-6)))
            rsys = assemble_symmetric(model, point, np.zeros(0), outer, reg)
            K = np.asarray(rsys.K)
            assert np.array_equal(K, K.T)

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
        R = residual(model, point, np.zeros(0), outer)
        rsys = assemble_symmetric(model, point, np.zeros(0), outer, reg)
        sol = np.linalg.solve(rsys.K, rsys.reduce_rows(R))
        dw = rsys.recover(sol, R)
        lay = Layout(1, 1, 0)
        cache = evaluate(model, point.x, np.zeros(0), point.y, point.z)
        row4 = cache.g_x @ dw[lay.x] - dw[lay.r] - reg.eps_d * dw[lay.y]
        assert row4[0] == pytest.approx(-R[lay.y][0], abs=1e-14)

    def test_reduction_matches_full_solve(self):
        # the one-shot symmetrized solve is inexact on second-order segments
        # away from the central path; the reduction path restores the exact
        # direction through refinement or the dense fallback
        rng = np.random.default_rng(12)
        refined = fallbacks = 0
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, 5))
            model = random_nlp(rng, n, m, random_cone(rng))
            point, outer = random_iterate(rng, model)
            R = residual(model, point, np.zeros(0), outer)
            J = full_jacobian(model, point, np.zeros(0), outer)
            dw_full = np.linalg.solve(J, -R)
            delta, info = reduced_direction(model, point, np.zeros(0), outer)
            lay = Layout(n, m, model.p)
            dw = lay.pack(delta)
            rel = np.abs(dw - dw_full).max() / (1.0 + np.abs(dw_full).max())
            assert rel <= 1e-8
            assert np.abs(J @ dw + R).max() <= 1e-8 * (1.0 + np.abs(R).max())
            refined += info.refine_passes > 0
            fallbacks += info.used_full_solve
        # the polishing machinery must actually fire on these draws
        assert refined + fallbacks > 0

    @pytest.mark.parametrize("kind", ["orthant", "second-order"])
    def test_columns_match_one_at_a_time(self, kind):
        # reduce_rows and recover on a 3-column matrix equal their
        # application to each column, with and without multiplier tracking
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, 5))
            dim = int(rng.integers(1, 5)) if kind == "orthant" else int(rng.integers(2, 5))
            cone = ConeSpec((Orthant(dim) if kind == "orthant" else SecondOrder(dim),))
            model = random_nlp(rng, n, m, cone)
            point, outer = random_iterate(rng, model)
            reg = RegularizationState(eps_p=float(rng.uniform(0, 1e-2)), eps_d=float(rng.uniform(0, 1e-4)))
            rsys = assemble_symmetric(model, point, np.zeros(0), outer, reg)
            rows = rng.standard_normal((rsys.layout.total, 3))
            sol = rng.standard_normal((rsys.K.shape[0], 3))
            for track in (False, True):
                if track:
                    rsys.track_multiplier()
                reduced = rsys.reduce_rows(rows)
                dw = rsys.recover(sol, rows)
                assert reduced.shape == sol.shape and dw.shape == rows.shape
                for j in range(3):
                    one = rsys.reduce_rows(rows[:, j])
                    assert np.abs(reduced[:, j] - one).max() <= 1e-14 * np.abs(one).max()
                    one = rsys.recover(sol[:, j], rows[:, j])
                    assert np.abs(dw[:, j] - one).max() <= 1e-14 * np.abs(one).max()


class TestSearchDirection:
    def test_consistency_with_returned_shifts(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, 5))
            model = random_nlp(rng, n, m, random_cone(rng))
            point, outer = random_iterate(rng, model)
            delta, reg, info = search_direction(model, point, np.zeros(0), outer)
            R = residual(model, point, np.zeros(0), outer)
            J = full_jacobian(model, point, np.zeros(0), outer, reg)
            lay = Layout(n, m, model.p)
            err = np.abs(J @ lay.pack(delta) + R).max()
            assert err <= 1e-8 * (1.0 + np.abs(R).max())
            assert info.consistency_error <= 1e-8 * (1.0 + np.abs(R).max())

    def test_indefinite_hessian_gets_shifted(self):
        model = scalar_model(curvature=-1.0)
        point = empty_point(model)
        point.x = np.array([1.0])
        outer = OuterState(lam=np.zeros(0), rho=1.0, kappa=1.0)
        delta, reg, info = search_direction(model, point, np.zeros(0), outer)
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
            delta, _, _ = search_direction(model, point, np.zeros(0), outer)
            point = lay.unpack(lay.pack(point) + lay.pack(delta))
        R = residual(model, point, np.zeros(0), outer)
        assert np.abs(R).max() <= 1e-12

    def test_zero_regularization_kept_when_inertia_correct(self):
        model = equality_model()
        point = SolverPoint(
            x=np.array([3.0]), r=np.array([2.0]), s=np.zeros(0),
            y=np.array([0.0]), z=np.zeros(0), t=np.zeros(0),
        )
        outer = OuterState(lam=np.zeros(1), rho=1.0, kappa=1.0)
        _, reg, info = search_direction(model, point, np.zeros(0), outer)
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
            rsys = assemble_symmetric(model, point, np.zeros(0), outer, reg, cache)
            J = full_jacobian(model, point, np.zeros(0), outer, reg, cache)
            for dw in (rng.standard_normal(J.shape[0]), rng.standard_normal((J.shape[0], 3))):
                err = np.abs(jacobian_apply(rsys, cache, outer.rho, dw) - J @ dw).max()
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
            J = full_jacobian(model, point, np.zeros(0), outer, RegularizationState(), cache)
            J[lay.r, lay.y] = 0.0
            rows = rng.standard_normal((lay.total, 3))
            rsys = assemble_symmetric(model, point, np.zeros(0), outer, cache=cache)
            rsys.track_multiplier()
            dw = rng.standard_normal((lay.total, 3))
            err = np.abs(jacobian_apply(rsys, cache, outer.rho, dw) - J @ dw).max()
            assert err <= 1e-13 * np.abs(J).max() * np.abs(dw).max()
            expected = np.linalg.solve(J, -rows)
            got, _, _, _ = reduced_solve(rsys, factorize(rsys.K), cache, outer.rho, rows, DirectionOptions())
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
    if not any(info.used_full_solve for _, _, info in directions):
        assert len(jacobians) == 0


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_solve_computes_each_residual_once(monkeypatch, name):
    # one stacked residual per Newton iteration and one per outer update
    prob = REGISTRY[name]
    residuals = []
    _counting(monkeypatch, ipal.solver, "residual", residuals)
    _counting(monkeypatch, ipal.kkt, "residual", residuals)
    sol = solve(prob.model, prob.x0, prob.theta)
    assert sol.solved
    assert len(residuals) == sol.total_iterations + sol.outer_iterations



SOLVE_CASES = {name: lambda prob=prob: (prob.model, prob.x0, prob.theta) for name, prob in REGISTRY.items()}
SOLVE_CASES["tracking-30"] = lambda: trajectory_tracking(30, initial_state=(0.1, 0.1))


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_cone_jacobians_stay_blocked_outside_the_fallback(monkeypatch, name):
    # the dense product Jacobians are built once per dense fallback solve and
    # nowhere else, and no reduced system holds a p x p matrix
    model, x0, theta = SOLVE_CASES[name]()
    dense, directions, systems = [], [], []
    _counting(monkeypatch, ipal.kkt, "cone_product_jacobians", dense)
    _counting(monkeypatch, ipal.solver, "search_direction", directions)
    _counting(monkeypatch, ipal.kkt, "assemble_symmetric", systems)
    sol = solve(model, x0, theta)
    assert sol.solved and systems
    assert len(dense) == sum(info.used_full_solve for _, _, info in directions)
    for rsys in systems:
        for field in dataclasses.fields(rsys):
            assert np.shape(getattr(rsys, field.name)) != (model.p, model.p)


def _cone_blocks_loop(model, point, reg):
    """The reduced cone block -Msym and W = P_s + eps_p P_tb by one
    np.linalg.solve per second-order segment; the batched assembly must
    reproduce both exactly."""
    p = model.p
    Ps, Pt = cone_product_jacobians(point.s, point.t, model.cone)
    Ptb = Pt - reg.eps_d * np.eye(p)
    Msym = np.zeros((p, p))
    W = []
    for seg, sl in model.cone.slices():
        Wb = Ps[sl, sl] + reg.eps_p * Ptb[sl, sl]
        if isinstance(seg, SecondOrder) and seg.dim >= 2:
            M = np.linalg.solve(Wb, Ptb[sl, sl])
            Msym[sl, sl] = 0.5 * (M + M.T)
        else:
            Msym[sl, sl] = np.diag(np.diag(Ptb[sl, sl]) / np.diag(Wb))
        W.append((seg, sl, Wb))
    return Msym, W


def _apply_W_inverse_loop(W, v):
    out = np.empty_like(v)
    for seg, sl, Wb in W:
        if isinstance(seg, SecondOrder) and seg.dim >= 2:
            out[sl] = np.linalg.solve(Wb, v[sl])
        else:
            d = np.diag(Wb)
            out[sl] = v[sl] / d if v.ndim == 1 else v[sl] / d[:, None]
    return out


def test_batched_cone_solves_match_segment_loop():
    # one stacked solve per second-order dimension, bitwise equal to one
    # solve per segment, for vectors, matrices and column matrices
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
        rsys = assemble_symmetric(model, point, np.zeros(0), outer, reg)
        Msym, W = _cone_blocks_loop(model, point, reg)
        cone_rows = slice(model.n + model.m, None)
        K = np.asarray(rsys.K)
        np.testing.assert_array_equal(K[cone_rows, cone_rows], -(reg.eps_d * np.eye(model.p) + Msym))
        for v in (rng.standard_normal(model.p), rng.standard_normal((model.p, 3)),
                  rng.standard_normal((model.p, 1))):
            np.testing.assert_array_equal(rsys.W.solve(v), _apply_W_inverse_loop(W, v))


def _tracking_assembler(model, x0, theta):
    """Reduced system of a transcribed model at its initial iterate, as a
    function of the shifts (eps_p, eps_d)."""
    point = initialize_point(model, x0, theta, SolverOptions())
    point.y = np.linspace(-1.0, 1.0, model.m)
    outer = OuterState(lam=np.zeros(model.m), rho=10.0, kappa=0.1)
    cache = evaluate(model, point.x, theta, point.y, point.z)
    return lambda ep, ed: assemble_symmetric(
        model, point, theta, outer, RegularizationState(ep, ed), cache
    )


def test_negative_curvature_stages_reach_target_with_dense_shifts():
    # concave position cost on every third stage: the unshifted reduced
    # system has the wrong inertia, and the blocked and dense factorizations
    # walk the same shift sequence to the target
    T = 20
    weights = np.where(np.arange(T) % 3 == 1, -4.0, 1.0)
    model, x0, theta = trajectory_tracking(T, position_weights=weights)
    build = _tracking_assembler(model, x0, theta)
    target = (model.n, model.m + model.p, 0)
    assert factorize(build(0.0, 0.0).K).inertia != target
    results = {}
    for label, view in (("blocked", lambda K: K), ("dense", np.asarray)):
        trials = []

        def assemble(ep, ed):
            trials.append((ep, ed))
            return view(build(ep, ed).K)

        fact, reg = correct_inertia(assemble, target, RegularizationState(), InertiaOptions())
        assert fact.inertia == target
        results[label] = (fact.blocked, reg, trials)
    assert results["blocked"][0] and not results["dense"][0]
    assert results["blocked"][1] == results["dense"][1]
    assert results["blocked"][1].eps_p > 0.0
    assert results["blocked"][2] == results["dense"][2]


def test_duplicated_equality_rows_fall_back_to_dense():
    # stage 4 pins u = 0 twice; with the multiplier tracking the dual (as
    # when differentiating) nothing regularizes the repeated rows, so a pivot
    # block is singular, the dense factorization takes over and its zero
    # count switches on the dual shift
    model, x0, theta = trajectory_tracking(12, duplicated_stage=4)
    build = _tracking_assembler(model, x0, theta)

    def assemble(ep, ed):
        rsys = build(ep, ed)
        rsys.track_multiplier()
        return rsys.K

    K = assemble(0.0, 0.0)
    assert len(K.index) == len(model.stage_blocks) > 1  # the blocked path is tried first
    fact = factorize(K)
    assert not fact.blocked
    assert fact.inertia == factorize(np.asarray(K)).inertia
    assert fact.inertia[2] >= 1

    target = (model.n, model.m + model.p, 0)
    blocked, reg = correct_inertia(assemble, target, RegularizationState(), InertiaOptions())
    dense, reg_dense = correct_inertia(lambda ep, ed: np.asarray(assemble(ep, ed)), target, RegularizationState())
    assert blocked.inertia == dense.inertia == target
    assert reg == reg_dense and reg.eps_d > 0.0


def test_directions_refine_against_the_full_system_only(monkeypatch):
    # refinement applies the full Jacobian blockwise and never the reduced
    # K: a tracking solve makes no product with a BlockTridiagonal
    products = []
    original = ipal.linsolve.BlockTridiagonal.__matmul__

    def counting(self, x):
        products.append(None)
        return original(self, x)

    monkeypatch.setattr(ipal.linsolve.BlockTridiagonal, "__matmul__", counting)
    model, x0, theta = trajectory_tracking(100)
    assert solve(model, x0, theta).solved
    assert products == []
