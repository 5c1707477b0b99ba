import ast
import collections
import dataclasses
import hashlib
import inspect
import os

import numpy as np
import pytest

import ipal
import ipal.cone
import ipal.kkt
import ipal.linsolve
import ipal.solver
import ipal.trajopt
from helpers import dense_inertia, dense_reduced_matrix, trajectory_tracking
from ipal.bench.problems import REGISTRY
from ipal.cone import ConeSpec, Orthant, SecondOrder, barrier_value, cone_product
from ipal.kkt import CONSISTENCY_TOL, DirectionInfo, OuterState, SolverPoint
from ipal.model import ProblemModel, StageMatrix, evaluate_values
from ipal.solver import (
    KAPPA_END,
    KAPPA_LINEAR,
    KAPPA_POWER,
    RHO_MAX,
    Filter,
    SolveStatus,
    SolverOptions,
    TraceRecord,
    cone_infeasibility,
    cone_line_search,
    merit,
    outer_update,
    solve,
    subproblem_converged,
    unrelaxed_residual_norm,
    violation,
)


def equality_qp():
    """min 0.5 x'Qx + q'x  s.t.  Ax = b, with Q spd: unique solution from the
    KKT system."""
    Q = np.array([[3.0, 0.5], [0.5, 2.0]])
    q = np.array([-1.0, 1.0])
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    model = ProblemModel(
        n=2,
        m=1,
        p=0,
        cone=ConeSpec(),
        objective=lambda x, th: 0.5 * x @ Q @ x + q @ x,
        objective_gradient=lambda x, th: Q @ x + q,
        equality=lambda x, th: A @ x - b,
        equality_jacobian=lambda x, th: A.copy(),
        lagrangian_hessian=lambda x, th, y, z: Q.copy(),
    )
    KKT = np.block([[Q, A.T], [A, np.zeros((1, 1))]])
    sol = np.linalg.solve(KKT, np.concatenate([-q, b]))
    return model, sol[:2], sol[2:]


def bound_qp():
    """min (x0+1)^2 + (x1-2)^2  s.t.  x >= 0: solution (0, 2), active dual 2."""
    model = ProblemModel(
        n=2,
        m=0,
        p=2,
        cone=ConeSpec((Orthant(2),)),
        objective=lambda x, th: float((x[0] + 1.0) ** 2 + (x[1] - 2.0) ** 2),
        objective_gradient=lambda x, th: 2.0 * (x - np.array([-1.0, 2.0])),
        cone_constraint=lambda x, th: x.copy(),
        cone_jacobian=lambda x, th: np.eye(2),
        lagrangian_hessian=lambda x, th, y, z: 2.0 * np.eye(2),
    )
    return model


def soc_projection_qp():
    """min ||x - (0,2)||^2  s.t.  x in Q_2: projection is (1,1)."""
    target = np.array([0.0, 2.0])
    model = ProblemModel(
        n=2,
        m=0,
        p=2,
        cone=ConeSpec((SecondOrder(2),)),
        objective=lambda x, th: float((x - target) @ (x - target)),
        objective_gradient=lambda x, th: 2.0 * (x - target),
        cone_constraint=lambda x, th: x.copy(),
        cone_jacobian=lambda x, th: np.eye(2),
        lagrangian_hessian=lambda x, th, y, z: 2.0 * np.eye(2),
    )
    return model


class TestMeasures:
    def test_merit_terms(self):
        model = bound_qp()
        point = SolverPoint(
            x=np.array([1.0, 1.0]), r=np.zeros(0), s=np.array([1.0, np.e]),
            y=np.zeros(0), z=np.zeros(2), t=np.ones(2),
        )
        outer = OuterState(lam=np.zeros(0), rho=2.0, kappa=0.5)
        # c = 4 + 1 = 5; barrier = log(1) + log(e) = 1; merit = 5 - 0.5
        values = evaluate_values(model, point.x, np.zeros(0))
        assert merit(point, outer, values, barrier_value(point.s, model.cone)) == pytest.approx(4.5)

    def test_violation_is_average_l1_mismatch(self):
        model, _, _ = equality_qp()
        point = SolverPoint(
            x=np.array([2.0, 0.0]), r=np.array([0.25]), s=np.zeros(0),
            y=np.zeros(1), z=np.zeros(0), t=np.zeros(0),
        )
        # g = 1, r = 0.25 -> |0.75| / 1
        assert violation(model, point, evaluate_values(model, point.x, np.zeros(0))) == pytest.approx(0.75)

    def test_violation_zero_when_unconstrained(self):
        model = ProblemModel(
            n=1,
            m=0,
            p=0,
            cone=ConeSpec(),
            objective=lambda x, th: float(x[0] ** 2),
            objective_gradient=lambda x, th: 2.0 * x,
            lagrangian_hessian=lambda x, th, y, z: 2.0 * np.eye(1),
        )
        point = SolverPoint(
            x=np.ones(1), r=np.zeros(0), s=np.zeros(0),
            y=np.zeros(0), z=np.zeros(0), t=np.zeros(0),
        )
        assert violation(model, point, evaluate_values(model, point.x, np.zeros(0))) == 0.0

    def test_convergence_boundary_inclusive(self):
        # complementarity product exactly at tol converges; just above does not
        s = np.array([1e-3, 1e-3])
        point = SolverPoint(
            x=s.copy(), r=np.zeros(0), s=s.copy(),
            y=np.zeros(0), z=-1e-3 * np.ones(2), t=1e-3 * np.ones(2),
        )
        # gradient equal to t makes stationarity c_x + h_x'z vanish, leaving
        # only the pair s*t = 1e-6 sitting exactly at tol; solve stops at
        # unrelaxed_residual_norm <= tol
        model2 = bound_qp()
        model2.objective_gradient = lambda x, th: 1e-3 * np.ones(2)
        assert unrelaxed_residual_norm(model2, point, np.zeros(0)) == 1e-6
        point.t = (1e-3 + 1e-9) * np.ones(2)
        point.z = -point.t
        assert unrelaxed_residual_norm(model2, point, np.zeros(0)) > 1e-6

    def test_subproblem_rule(self):
        assert subproblem_converged(1.0, 1.0)
        assert not subproblem_converged(0.2, 0.1)


def _update(outer, point, cone, opts):
    """outer_update with the products s o t of point."""
    return outer_update(outer, point, cone, opts, cone_product(point.s, point.t, cone))


class TestOuterUpdate:
    def test_first_update_example(self):
        outer = OuterState(lam=np.zeros(1), rho=1.0, kappa=1.0)
        point = SolverPoint(
            x=np.zeros(1), r=np.zeros(1), s=np.zeros(0),
            y=np.array([3.0]), z=np.zeros(0), t=np.zeros(0),
        )
        new = _update(outer, point, ConeSpec(), SolverOptions())
        assert new.kappa == pytest.approx(0.2)
        assert new.rho == pytest.approx(10.0)  # max(10*1, 1/0.2)
        assert new.lam[0] == 3.0

    def test_floors_and_caps(self):
        opts = SolverOptions(kappa_min=1e-8)
        outer = OuterState(lam=np.zeros(0), rho=1e8, kappa=1e-8)
        point = SolverPoint(
            x=np.zeros(1), r=np.zeros(0), s=np.zeros(0),
            y=np.zeros(0), z=np.zeros(0), t=np.zeros(0),
        )
        new = _update(outer, point, ConeSpec(), opts)
        assert new.kappa == opts.kappa_min
        assert new.rho == RHO_MAX

    def test_superlinear_phase(self):
        outer = OuterState(lam=np.zeros(0), rho=1.0, kappa=1e-4)
        point = SolverPoint(
            x=np.zeros(1), r=np.zeros(0), s=np.zeros(0),
            y=np.zeros(0), z=np.zeros(0), t=np.zeros(0),
        )
        new = _update(outer, point, ConeSpec(), SolverOptions())
        assert new.kappa == pytest.approx((1e-4) ** 1.5)

    CONE = ConeSpec((Orthant(3), SecondOrder(3), SecondOrder(2)))

    @staticmethod
    def _point(s, t):
        return SolverPoint(
            x=np.zeros(1), r=np.zeros(0), s=np.asarray(s, dtype=float),
            y=np.zeros(0), z=-np.asarray(t, dtype=float), t=np.asarray(t, dtype=float),
        )

    @classmethod
    def _interior(cls, rng):
        # the SecondOrder(3) head at 3, the SecondOrder(2) head at 6
        a = rng.uniform(0.1, 2.0, cls.CONE.dim)
        a[3] = np.linalg.norm(a[4:6]) + rng.uniform(1e-3, 1.0)
        a[6] = np.linalg.norm(a[7:]) + rng.uniform(1e-3, 1.0)
        return a

    @staticmethod
    def _schedule(kappa, opts):
        step = min(KAPPA_LINEAR * kappa, kappa ** KAPPA_POWER)
        return max(opts.kappa_min, min(kappa, max(KAPPA_END * opts.tol, step)))

    def test_centrality_rule_never_falls_more_slowly_than_the_schedule(self):
        rng = np.random.default_rng(22)
        opts = SolverOptions()
        faster = 0
        for _ in range(200):
            s, t = (self._interior(rng) for _ in range(2))
            kappa = 10.0 ** rng.uniform(-9, 0)
            outer = OuterState(lam=np.zeros(0), rho=10.0 ** rng.uniform(0, 9), kappa=kappa)
            new = _update(outer, self._point(s, t), self.CONE, opts)
            sched = self._schedule(kappa, opts)
            assert new.kappa <= sched
            assert new.kappa >= max(opts.kappa_min, min(sched, 10.0 * opts.tol))
            faster += new.kappa < sched
            # rho is floored by the new kappa, not by the schedule's
            assert new.rho == RHO_MAX or new.rho >= 1.0 / new.kappa
            assert new.rho <= RHO_MAX and new.rho >= min(RHO_MAX, 10.0 * outer.rho)
        assert 0 < faster < 200

    @pytest.mark.parametrize("kappa", [1.0, 1e-2, 1e-4, 1e-6])
    def test_centred_point_jumps_to_the_tol_floor(self, kappa):
        # s o t = mu e: xi = 1, so sigma = 0 and only the floor 10 tol and
        # the schedule bound kappa
        opts = SolverOptions()
        e = ipal.solver.cone_target(self.CONE)
        outer = OuterState(lam=np.zeros(0), rho=1.0, kappa=kappa)
        new = _update(outer, self._point(0.3 * e, 2.0 * kappa * e), self.CONE, opts)
        assert new.kappa == max(opts.kappa_min, min(self._schedule(kappa, opts), 10.0 * opts.tol))
        assert new.rho == max(10.0, 1.0 / new.kappa)

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_schedule_ends_in_one_update(self, tol):
        # a subproblem ends at ||R|| <= kappa, where |s o t| <= 2 kappa, so
        # tol / 2 is the largest kappa whose subproblem meets the
        # complementarity part of the stop test: from the 10 tol floor one
        # update reaches it, and the schedule goes no lower, nor raises a
        # kappa already below it
        opts = SolverOptions(tol=tol, kappa_min=min(1e-8, tol))
        e = ipal.solver.cone_target(self.CONE)

        def update(kappa):  # from a centred point on kappa's path
            point = self._point(0.3 * e, 2.0 * kappa * e)
            return _update(OuterState(np.zeros(0), 1.0, kappa), point, self.CONE, opts).kappa

        end = max(opts.kappa_min, tol / 2)
        assert update(10.0 * tol) == end
        below = max(opts.kappa_min, tol / 4)
        assert update(end) == end and update(below) == below

    @pytest.mark.parametrize("smallest", [0.0, 1e-300, 1e-12])
    def test_badly_centred_point_follows_the_schedule(self, smallest):
        # one product near zero and the rest at kappa: xi -> 0, so sigma = 0.8
        # and sigma mu is above the schedule's 0.2 kappa
        opts = SolverOptions()
        kappa = 0.1
        e = ipal.solver.cone_target(self.CONE)
        t = kappa * e
        t[0] = smallest
        new = _update(OuterState(np.zeros(0), 1.0, kappa), self._point(e, t), self.CONE, opts)
        assert new.kappa == self._schedule(kappa, opts)

    def test_rho_is_capped_below_one_over_kappa(self):
        # a centred point at tol 1e-12 drops kappa to kappa_min, whose
        # inverse is above the cap
        e = ipal.solver.cone_target(self.CONE)
        opts = SolverOptions(tol=1e-12, kappa_min=1e-11)
        outer = OuterState(lam=np.zeros(0), rho=1.0, kappa=1e-3)
        new = _update(outer, self._point(e, 1e-3 * e), self.CONE, opts)
        assert new.kappa == opts.kappa_min and 1.0 / new.kappa > RHO_MAX
        assert new.rho == RHO_MAX


class TestFilter:
    def test_domination(self):
        f = Filter()
        f.add(1.0, 1.0)
        assert f.dominated(1.0, 1.0)
        assert f.dominated(2.0, 2.0)
        assert not f.dominated(0.5, 2.0)
        assert not f.dominated(2.0, 0.5)

    def test_add_prunes_dominated_entries(self):
        f = Filter()
        f.add(2.0, 2.0)
        f.add(1.0, 1.0)
        assert f.entries == [(1.0, 1.0)]

    def test_reset(self):
        f = Filter()
        f.add(1.0, 1.0)
        f.reset()
        assert f.entries == []


class TestConeLineSearch:
    def test_unconstrained_is_unit(self):
        model = ProblemModel(
            n=1,
            m=0,
            p=0,
            cone=ConeSpec(),
            objective=lambda x, th: 0.0,
            objective_gradient=lambda x, th: np.zeros(1),
            lagrangian_hessian=lambda x, th, y, z: np.zeros((1, 1)),
        )
        point = SolverPoint(
            x=np.zeros(1), r=np.zeros(0), s=np.zeros(0),
            y=np.zeros(0), z=np.zeros(0), t=np.zeros(0),
        )
        delta = SolverPoint(*dataclasses.astuple(point))  # astuple copies the arrays
        assert cone_line_search(point, delta, 0.99, model) == (1.0, 1.0)

    def test_caps_from_both_blocks(self):
        model = bound_qp()
        point = SolverPoint(
            x=np.zeros(2), r=np.zeros(0), s=np.array([1.0, 1.0]),
            y=np.zeros(0), z=np.zeros(2), t=np.array([1.0, 1.0]),
        )
        delta = SolverPoint(
            x=np.zeros(2), r=np.zeros(0), s=np.array([-2.0, 0.0]),
            y=np.zeros(0), z=np.zeros(2), t=np.array([0.0, -4.0]),
        )
        alpha, alpha_t = cone_line_search(point, delta, 1.0, model)
        assert alpha == pytest.approx(0.5)
        assert alpha_t == pytest.approx(0.25)


class TestSolve:
    def test_equality_qp(self):
        model, x_star, y_star = equality_qp()
        sol = solve(model, np.array([5.0, -3.0]))
        assert sol.status is SolveStatus.SOLVED
        assert np.abs(sol.point.x - x_star).max() <= 1e-5
        assert np.abs(sol.point.y - y_star).max() <= 1e-4
        assert np.abs(sol.point.r).max() <= 1e-6
        assert sol.residual_norm <= 1e-6
        assert sol.violation <= 1e-6

    def test_bound_qp(self):
        model = bound_qp()
        sol = solve(model, np.array([1.0, 1.0]))
        assert sol.status is SolveStatus.SOLVED
        assert np.abs(sol.point.x - np.array([0.0, 2.0])).max() <= 1e-4
        # complementarity: active bound carries dual ~ -2 in z (so -z = t > 0)
        assert sol.point.z[0] == pytest.approx(-2.0, abs=1e-3)

    def test_soc_projection(self):
        model = soc_projection_qp()
        sol = solve(model, np.array([2.0, 0.0]))
        assert sol.status is SolveStatus.SOLVED
        assert np.abs(sol.point.x - np.array([1.0, 1.0])).max() <= 1e-4
        assert sol.objective == pytest.approx(2.0, abs=1e-5)

    def test_converged_at_start(self):
        model, x_star, y_star = equality_qp()
        # start exactly at the primal-dual solution: nothing to do
        sol = solve(model, x_star)
        start = SolverOptions()
        assert sol.total_iterations <= 6  # a few steps to rebuild duals
        assert sol.status is SolveStatus.SOLVED
        assert start.tol == 1e-6

    def test_max_iterations_status(self):
        model, _, _ = equality_qp()
        sol = solve(model, np.array([5.0, -3.0]), opts=SolverOptions(max_total=1))
        assert sol.status is SolveStatus.MAX_ITERATIONS
        assert sol.total_iterations == 1

    def test_numerical_failure_status(self):
        # the objective, value and gradient, turns NaN partway through the
        # solve: at the third iterate. The line search that accepts an
        # iterate has already evaluated its value, so the failure surfaces
        # in that iterate's derivatives
        gradients = {"calls": 0}

        def broken():
            return gradients["calls"] > 2

        def objective(x, th):
            return np.nan if broken() else float(x[0] ** 4)

        def objective_gradient(x, th):
            gradients["calls"] += 1
            return np.full(1, np.nan) if broken() else 4.0 * x ** 3

        model = ProblemModel(
            n=1,
            m=0,
            p=0,
            cone=ConeSpec(),
            objective=objective,
            objective_gradient=objective_gradient,
            lagrangian_hessian=lambda x, th, y, z: np.diag(12.0 * x ** 2),
        )
        sol = solve(model, np.array([10.0]))
        assert sol.status is SolveStatus.NUMERICAL_FAILURE
        assert sol.total_iterations == 2
        assert np.isnan(sol.objective)

    def test_nan_objective_everywhere_is_numerical_failure(self):
        model = ProblemModel(
            n=1,
            m=0,
            p=0,
            cone=ConeSpec(),
            objective=lambda x, th: np.nan,
            objective_gradient=lambda x, th: 2.0 * x,
            lagrangian_hessian=lambda x, th, y, z: 2.0 * np.eye(1),
        )
        sol = solve(model, np.array([10.0]))
        assert sol.status is SolveStatus.NUMERICAL_FAILURE
        assert np.isnan(sol.objective)

    @staticmethod
    def _nan_from(fn, k):
        """fn, returning NaN in its output's shape from its k-th call on."""
        calls = {"n": 0}

        def broken(*args):
            out = fn(*args)
            calls["n"] += 1
            if calls["n"] < k:
                return out
            if isinstance(out, StageMatrix):
                return StageMatrix(out.pattern, np.full(out.values.shape, np.nan))
            return np.full(np.shape(out), np.nan)

        return broken

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_callbacks_turning_nan_end_in_a_status(self, name):
        # each model callback goes NaN from its k-th call on: every solve
        # returns a status and raises nothing, and a run that reports SOLVED
        # (the callback was reached fewer than k times) meets its tolerance
        prob = REGISTRY[name]
        callbacks = ("objective", "objective_gradient", "equality", "equality_jacobian",
                     "cone_constraint", "cone_jacobian", "lagrangian_hessian")
        for callback in callbacks:
            for k in (1, 3, 6, 10):
                broken = self._nan_from(getattr(prob.model, callback), k)
                sol = solve(dataclasses.replace(prob.model, **{callback: broken}), prob.x0, prob.theta)
                assert isinstance(sol.status, SolveStatus)
                assert not sol.solved or sol.residual_norm <= SolverOptions().tol

    def test_solved_summary_matches_returned_point(self):
        # the summary of a solved run reuses the final evaluation; it must
        # agree with a fresh evaluation at the returned point
        for model in (equality_qp()[0], soc_projection_qp()):
            sol = solve(model, np.array([2.0, 1.0]))
            assert sol.solved
            theta = np.zeros(0)
            c, g, h = evaluate_values(model, sol.point.x, theta)
            assert sol.objective == c
            assert sol.residual_norm == unrelaxed_residual_norm(model, sol.point, theta)
            assert sol.violation == max(np.abs(g).max(initial=0.0), cone_infeasibility(model, h))

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_every_exit_reuses_the_last_evaluation(self, name):
        # a run cut at max_total ends right after evaluating its last point,
        # which is not evaluated again: one Hessian per evaluated iterate,
        # and a summary that agrees with a fresh evaluation at the point
        prob = REGISTRY[name]
        hessians = []

        def lagrangian_hessian(*args):
            hessians.append(None)
            return prob.model.lagrangian_hessian(*args)

        counted = dataclasses.replace(prob.model, lagrangian_hessian=lagrangian_hessian)
        sol = solve(counted, prob.x0, prob.theta, SolverOptions(max_total=3))
        assert sol.status is SolveStatus.MAX_ITERATIONS and sol.total_iterations == 3
        assert len(hessians) == sol.total_iterations + 1
        c, g, h = evaluate_values(prob.model, sol.point.x, prob.theta)
        assert sol.objective == c
        assert sol.residual_norm == unrelaxed_residual_norm(prob.model, sol.point, prob.theta)
        assert sol.violation == max(np.abs(g).max(initial=0.0), cone_infeasibility(prob.model, h))

    def test_infeasible_problem_not_solved(self):
        # g(x) = x^2 + 1 has no root; the relaxation converges to a
        # least-violation point, never to tolerance
        model = ProblemModel(
            n=1,
            m=1,
            p=0,
            cone=ConeSpec(),
            objective=lambda x, th: 0.0,
            objective_gradient=lambda x, th: np.zeros(1),
            equality=lambda x, th: np.array([x[0] ** 2 + 1.0]),
            equality_jacobian=lambda x, th: np.array([[2.0 * x[0]]]),
            lagrangian_hessian=lambda x, th, y, z: np.array([[2.0 * y[0]]]),
        )
        sol = solve(model, np.array([1.0]), opts=SolverOptions(max_total=200))
        assert sol.status is not SolveStatus.SOLVED

    def test_bad_x0_raises(self):
        model, _, _ = equality_qp()
        with pytest.raises(ValueError):
            solve(model, np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            solve(model, np.zeros(3))
        # so does a bad theta, which would otherwise solve another problem
        # or fail with a broadcast error inside a hook
        model, x0, theta = trajectory_tracking(10)
        for bad in (theta[:1], np.append(theta, 0.0), np.array([np.nan, 0.0]), theta[:, None]):
            with pytest.raises(ValueError, match="theta"):
                solve(model, x0, bad)
        prob = REGISTRY["mpc-autotune"]
        for bad in (np.zeros(3), np.append(prob.theta, 0.0)):
            with pytest.raises(ValueError, match="theta"):
                solve(prob.model, prob.x0, bad)

    def test_bad_options_raise(self):
        # a non-positive rho_init would divide by zero in the KKT assembly,
        # and a negative or NaN tol would run to the iteration cap
        model, x0, theta = trajectory_tracking(10)
        for name, bad in (
            ("tol", 0.0), ("tol", -1.0), ("tol", np.nan), ("tol", np.inf),
            ("rho_init", 0.0), ("rho_init", -1.0), ("rho_init", np.nan), ("rho_init", np.inf),
            ("kappa_min", -1e-9), ("kappa_min", np.nan), ("kappa_min", np.inf),
            ("max_outer", -1), ("max_total", -1),
        ):
            with pytest.raises(ValueError, match=name):
                solve(model, x0, theta, SolverOptions(**{name: bad}))
        # the boundary values are accepted
        sol = solve(model, x0, theta, SolverOptions(kappa_min=0.0, max_outer=0, max_total=0))
        assert sol.status is SolveStatus.MAX_ITERATIONS

    def test_trace_records(self):
        model = bound_qp()
        sol = solve(model, np.array([1.0, 1.0]), opts=SolverOptions(record_trace=True))
        assert sol.trace is not None and len(sol.trace) == sol.total_iterations
        for k, rec in enumerate(sol.trace):
            assert rec.iteration == k + 1
            assert 0.0 < rec.alpha <= 1.0
            assert 0.0 < rec.alpha_t <= 1.0
            assert rec.kappa > 0.0 and rec.rho >= 1.0

    def test_unrelaxed_residual_at_solution(self):
        model = bound_qp()
        sol = solve(model, np.array([1.0, 1.0]))
        assert unrelaxed_residual_norm(model, sol.point, np.zeros(0)) <= 1e-6


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_trace_records_direction_diagnostics(name):
    # every registry direction is within the consistency bound of
    # search_direction for that iterate's residual
    prob = REGISTRY[name]
    sol = solve(prob.model, prob.x0, prob.theta, SolverOptions(record_trace=True))
    assert sol.trace
    bound = CONSISTENCY_TOL
    for rec in sol.trace:
        assert rec.refine_passes >= 0
        assert 0.0 <= rec.consistency_error <= bound * (1.0 + rec.residual_norm)


GENERAL = sorted(name for name, prob in REGISTRY.items() if prob.model.stage_blocks is None)


def _traced_solve(monkeypatch, model, x0, theta, must_solve=True):
    """Solve with tracing on, counting the factorizations the inertia
    correction tries; each certified one must certify the inertia (n, m +
    p, 0) of the dense reduced matrix it was assembled from. Returns the
    solution and the Schur complements factored."""
    factored, latest = [], {}
    factorize, assemble = ipal.linsolve.factorize, ipal.kkt.assemble_symmetric

    def assembled(model, point, outer, cache, reg, **kwargs):
        latest["K"] = lambda: dense_reduced_matrix(model, point, outer, reg, cache)
        return assemble(model, point, outer, cache, reg, **kwargs)

    def checked(C):
        factored.append(C)
        fact = factorize(C)
        if fact.certified:
            assert dense_inertia(latest["K"]()) == (model.n, model.m + model.p, 0)
        return fact

    monkeypatch.setattr(ipal.kkt, "assemble_symmetric", assembled)
    monkeypatch.setattr(ipal.linsolve, "factorize", checked)
    sol = solve(model, x0, theta, SolverOptions(record_trace=True))
    monkeypatch.undo()
    assert sol.trace and all(rec.inertia_trials >= 1 for rec in sol.trace)
    if must_solve:  # a failed solve leaves its last direction out of the trace
        assert sol.solved
        assert sum(rec.inertia_trials for rec in sol.trace) == len(factored)
    return sol, factored


def test_transcribed_directions_are_blocked(monkeypatch):
    # one row group per stage: the Schur complement is factored as one band
    # in the stage order, of half-bandwidth 4 (two stages of 3 variables)
    model, x0, theta = trajectory_tracking(30)
    _, factored = _traced_solve(monkeypatch, model, x0, theta)
    assert all(C.shape == (5, model.n) for C in factored)
    assert len(model.stage_blocks) == 30


def test_general_registry_problems_are_dense(monkeypatch):
    # one group in the order (x, y, z): the band is the whole matrix
    assert len(GENERAL) == 6
    for name in GENERAL:
        prob = REGISTRY[name]
        _, factored = _traced_solve(monkeypatch, prob.model, prob.x0, prob.theta)
        for C in factored:
            assert C.shape == (prob.model.n, prob.model.n)
        np.testing.assert_array_equal(prob.model.schur_plan.order, np.arange(prob.model.n))


def test_transcribed_directions_are_certified(monkeypatch):
    model, x0, theta = trajectory_tracking(30)
    sol, _ = _traced_solve(monkeypatch, model, x0, theta)
    assert all(rec.certified for rec in sol.trace)


def test_general_registry_directions_are_certified(monkeypatch):
    for name in GENERAL:
        prob = REGISTRY[name]
        sol, _ = _traced_solve(monkeypatch, prob.model, prob.x0, prob.theta)
        assert all(rec.certified for rec in sol.trace)


CERTIFIED_CASES = {name: lambda prob=prob: (prob.model, prob.x0, prob.theta) for name, prob in REGISTRY.items()}
CERTIFIED_CASES["tracking-20"] = lambda: trajectory_tracking(20)
for _T in (12, 20, 40):  # concave position cost on every third stage; these fail to solve
    CERTIFIED_CASES[f"negative-curvature-{_T}"] = lambda T=_T: trajectory_tracking(
        T, position_weights=np.where(np.arange(T) % 3 == 1, -4.0, 1.0)
    )


@pytest.mark.parametrize("name", sorted(CERTIFIED_CASES))
def test_certified_inertia_matches_the_dense_inertia(monkeypatch, name):
    # every K factored during the solve whose inertia is certified has the
    # inertia of its dense eigenvalues (checked in _traced_solve), and every
    # direction is certified
    model, x0, theta = CERTIFIED_CASES[name]()
    sol, factored = _traced_solve(monkeypatch, model, x0, theta, must_solve=False)
    assert factored and all(rec.certified for rec in sol.trace)
    assert sol.solved != name.startswith("negative-curvature")


def test_unconstrained_banded_model_solves():
    # two row groups and no constraints: C is P alone, summed from no
    # entries of A
    model = ProblemModel(
        n=4, m=0, p=0, cone=ConeSpec(),
        objective=lambda x, th: 0.5 * x @ x - x.sum(),
        objective_gradient=lambda x, th: x - 1.0,
        lagrangian_hessian=lambda x, th, y, z: np.eye(4),
        stage_blocks=(np.arange(2), np.arange(2, 4)),
    )
    sol = solve(model, np.zeros(4))
    assert sol.status is SolveStatus.SOLVED
    np.testing.assert_allclose(sol.point.x, np.ones(4), atol=1e-8)


@pytest.mark.parametrize("name", sorted(REGISTRY) + ["tracking-20"])
def test_each_iterate_is_evaluated_once(monkeypatch, name):
    # the objective runs once at x0 and once per line-search trial point;
    # the accepted trial's values serve the next iteration. The merit is
    # taken at x0, after every outer update and at every trial point
    if name == "tracking-20":
        model, x0, theta = trajectory_tracking(20)
    else:
        model, x0, theta = REGISTRY[name].model, REGISTRY[name].x0, REGISTRY[name].theta
    # and the derivatives once per iterate, the final one included: an
    # outer update keeps the point, so its derivatives stand
    objective_calls, merits, hessian_calls = [], [], []

    def objective(x, th):
        objective_calls.append(None)
        return model.objective(x, th)

    def lagrangian_hessian(*args):
        hessian_calls.append(None)
        return model.lagrangian_hessian(*args)

    original_merit = ipal.solver.merit
    monkeypatch.setattr(ipal.solver, "merit", lambda *args: merits.append(None) or original_merit(*args))
    counted = dataclasses.replace(model, objective=objective, lagrangian_hessian=lagrangian_hessian)
    sol = solve(counted, x0, theta)
    assert sol.solved
    trial_points = len(merits) - 1 - sol.outer_iterations
    assert trial_points >= sol.total_iterations
    assert len(objective_calls) == 1 + trial_points
    assert sol.outer_iterations > 0
    assert len(hessian_calls) == sol.total_iterations + 1


def _constant_merit_model(values):
    """n = 1, no constraints: the objective is values[0] at x = 0 and
    values[1] elsewhere, so the merit of a unit step is values[1]."""
    return ProblemModel(
        n=1, m=0, p=0, cone=ConeSpec(),
        objective=lambda x, th: values[0] if x[0] == 0.0 else values[1],
        objective_gradient=lambda x, th: np.zeros(1),
        lagrangian_hessian=lambda x, th, y, z: np.eye(1),
    )


@pytest.mark.parametrize("phi0", [17.673282849776538, -3.25, 1e-3])
def test_filter_step_accepts_a_merit_at_rounding_level(phi0):
    # near kappa_min a step changes the merit by less than its rounding; a
    # candidate one ulp above phi0 (no violation to reduce) is accepted
    # against the current point and a filter entry at the current pair,
    # while one 1e-12 relative above is still rejected
    point = SolverPoint(*(np.zeros(k) for k in (1, 0, 0, 0, 0, 0)))
    delta = SolverPoint(np.ones(1), *(np.zeros(0) for _ in range(5)))
    outer = OuterState(lam=np.zeros(0), rho=1.0, kappa=1.0)
    above = np.nextafter(phi0, np.inf)
    model = _constant_merit_model((phi0, above))
    filt = Filter()
    filt.add(phi0, 0.0)
    cand, alpha, accepted, _, _, _ = ipal.solver.filter_step(
        model, point, delta, np.zeros(0), outer, filt, 1.0, 1.0, (phi0, 0.0)
    )
    assert alpha == 1.0 and accepted == (above, 0.0) and cand.x[0] == 1.0
    model = _constant_merit_model((phi0, phi0 + 1e-12 * abs(phi0)))
    with pytest.raises(ipal.solver.LineSearchFailure):
        ipal.solver.filter_step(model, point, delta, np.zeros(0), outer, Filter(), 1.0, 1.0, (phi0, 0.0))


@pytest.mark.parametrize("halvings", [0, 1, 2, 5])
def test_filter_step_counts_its_backtracks(halvings):
    # the objective falls below the current merit only for x <= 2^-halvings,
    # so a unit step is accepted after that many halvings
    edge = 0.5 ** halvings
    model = ProblemModel(
        n=1, m=0, p=0, cone=ConeSpec(),
        objective=lambda x, th: 0.0 if x[0] <= edge else 2.0,
        objective_gradient=lambda x, th: np.zeros(1),
        lagrangian_hessian=lambda x, th, y, z: np.eye(1),
    )
    point = SolverPoint(*(np.zeros(k) for k in (1, 0, 0, 0, 0, 0)))
    delta = SolverPoint(np.ones(1), *(np.zeros(0) for _ in range(5)))
    outer = OuterState(lam=np.zeros(0), rho=1.0, kappa=1.0)
    _, alpha, _, _, backtracks, _ = ipal.solver.filter_step(
        model, point, delta, np.zeros(0), outer, Filter(), 1.0, 1.0, (1.0, 0.0)
    )
    assert alpha == edge and backtracks == halvings


@pytest.mark.parametrize("name", ["particle-friction", "mpc-autotune"])
def test_trace_records_the_backtracks_of_each_step(monkeypatch, name):
    steps = []
    original = ipal.solver.filter_step

    def recording(*args):
        out = original(*args)
        steps.append(out[4])
        return out

    monkeypatch.setattr(ipal.solver, "filter_step", recording)
    prob = REGISTRY[name]
    sol = solve(prob.model, prob.x0, prob.theta, SolverOptions(record_trace=True))
    assert sol.solved
    assert [rec.backtracks for rec in sol.trace] == steps


def _tracking_corpus(opts, seed=2024):
    """Statuses and total Newton iterations of 20 seeded T = 40 tracking
    solves at opts."""
    rng = np.random.default_rng(seed)
    statuses, total = [], 0
    for _ in range(20):
        model, x0, theta = trajectory_tracking(40, initial_state=rng.uniform(-0.5, 0.5, size=2))
        sol = solve(model, x0, theta, opts)
        statuses.append(sol.status)
        total += sol.total_iterations
    return statuses, total


def test_criterion_6_options_solve_the_tracking_family():
    # at the options of acceptance criterion 6 the barrier path ends where
    # the merit changes by its rounding; without the round-off relaxation of
    # the filter about a quarter of these instances ended in a line-search
    # failure once kappa fell to about 2e-9. Ending the schedule at tol / 2
    # took the total from 480 to 457; the exponent 1.5 without that floor
    # jumps to kappa_min and takes 498. The second-order corrector on steps
    # the boundary cuts took it from 457 to 400
    statuses, total = _tracking_corpus(SolverOptions(tol=1e-10, kappa_min=1e-11, max_outer=40))
    assert statuses == [SolveStatus.SOLVED] * 20
    assert total == 400


def test_tight_tracking_corpus_iterations_are_pinned():
    # a kappa_min far below tol: the exponent 1.5 without the tol / 2 floor
    # jumps from 10 tol to 1e-10, where the last subproblem halves s o t per
    # step, and takes 444 here; with the floor 350 (351 on the exponent 1.2),
    # and 295 with the second-order corrector on steps the boundary cuts
    statuses, total = _tracking_corpus(SolverOptions(tol=1e-8, kappa_min=1e-10))
    assert statuses == [SolveStatus.SOLVED] * 20
    assert total == 295


def test_tracking_corpus_iterations_are_pinned():
    # the centrality rule of outer_update took this corpus from 315 Newton
    # iterations on the fixed kappa schedule to 263, and ending the schedule
    # at tol / 2 in one update from the 10 tol floor to 248, and the
    # second-order corrector on steps the boundary cuts to 199; a change that
    # loses the gain, or means to change the count, re-pins it and says why
    statuses, total = _tracking_corpus(SolverOptions(tol=1e-6), seed=40)
    assert statuses == [SolveStatus.SOLVED] * 20
    assert total == 199


def test_registry_solves_at_tol_1e_10_with_default_options():
    # the default kappa_min is 0, so the schedule's own end tol / 2 ends the
    # path: at tol 1e-10 every registry problem is solved. A floor of 1e-8
    # held s o t near 1e-8 > tol, and 6 of the 8 ran out of outer updates
    for name, prob in REGISTRY.items():
        sol = solve(prob.model, prob.x0, prob.theta, SolverOptions(tol=1e-10))
        assert sol.status is SolveStatus.SOLVED, name


def test_settable_values_are_the_callers_options():
    # a value that no caller outside the tests sets is a constant next to
    # the routine that reads it, not an option
    assert [f.name for f in dataclasses.fields(SolverOptions)] == [
        "tol", "rho_init", "kappa_min", "max_outer", "max_total", "record_trace",
    ]
    # the refinement of a direction is the constants MAX_REFINE and
    # CONSISTENCY_TOL of ipal.kkt, and search_direction the one routine
    for name in ("DirectionOptions", "reduced_direction", "SOLVER_DIRECTIONS", "CORRECTOR_SOLVE"):
        assert not hasattr(ipal.kkt, name), name
    assert "margin" not in inspect.signature(ipal.cone.interior_initialization).parameters
    assert not hasattr(ipal.linsolve, "InertiaOptions")
    assert list(inspect.signature(ipal.linsolve.factorize).parameters) == ["C"]
    assert "gauss_newton" not in {f.name for f in dataclasses.fields(ProblemModel)}
    # the block LDL' sweep is gone: the band LU is the only factorization
    for owner, name in ((ipal.linsolve, "ZERO_TOL"), (ipal.linsolve, "_factorize_blocked"),
                        (ipal.linsolve, "dsytrf"), (ipal.trajopt, "STAGE_BLOCK_ROWS")):
        assert not hasattr(owner, name), name
    for record in (DirectionInfo, TraceRecord):
        assert "blocked" not in {f.name for f in dataclasses.fields(record)}
    # K has one storage, LAPACK band storage: no gather plan, no block views
    assert not hasattr(ipal.linsolve, "BandPlan")
    # and then none: the Cholesky of its Schur complement C is the
    # factorization, and K is never formed
    for owner, name in ((ipal.linsolve, "BandLayout"), (ipal.linsolve, "BlockTridiagonal"),
                        (ipal.kkt, "KKTScatter"), (ipal.kkt, "_scatter")):
        assert not hasattr(owner, name), name
    assert {f.name for f in dataclasses.fields(ipal.linsolve.Factorization)} == {"factors", "pivots", "kd"}
    assert "K" not in {f.name for f in dataclasses.fields(ipal.kkt.ReducedSystem)}
    assert "kkt_scatter" not in {f.name for f in dataclasses.fields(ProblemModel)}


def _names(tree):
    """Every identifier a syntax tree names: variables, attributes and
    imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_module_level_definition_has_a_caller_in_the_package():
    # a function or class that only tests reach is surface to keep for
    # nothing: every one defined at module level in ipal is named somewhere
    # in ipal's code besides its own definition (an import counts)
    defined, named, own = [], collections.Counter(), collections.Counter()
    for folder, _, files in os.walk(os.path.dirname(ipal.__file__)):
        for file in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, file)
            with open(path) as source:
                tree = ast.parse(source.read(), path)
            named.update(_names(tree))
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((file, node.name))
                    own.update(name for name in _names(node) if name == node.name)
    assert defined
    assert [(file, name) for file, name in defined if named[name] == own[name]] == []


# the routines where an iterate is first met, which alone call the model
# (ipal's module, top-level definition)
EVALUATORS = {
    ("solver", "solve"), ("solver", "filter_step"), ("solver", "unrelaxed_residual_norm"),
    ("sensitivity", "differentiate"), ("model", "validate_derivatives"), ("report", "run_benchmark"),
}


def test_only_the_entry_points_evaluate_the_model():
    # each iterate is evaluated once: every routine on the Newton path reads
    # the evaluation it is handed, and ipal.kkt does not import the
    # evaluators at all (evaluate's own call of evaluate_values aside)
    evaluators = {"evaluate", "evaluate_values"}
    callers = set()
    for folder, _, files in os.walk(os.path.dirname(ipal.__file__)):
        for file in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, file)
            with open(path) as source:
                tree = ast.parse(source.read(), path)
            module = file[:-3]
            for top in tree.body:
                for node in ast.walk(top):
                    if isinstance(node, ast.alias) and module == "kkt":
                        assert node.name not in evaluators, node.name
                    if isinstance(node, ast.Call) and evaluators & set(_names(node.func)):
                        callers.add((module, getattr(top, "name", None)))
    assert callers - {("model", "evaluate")} == EVALUATORS


def test_every_factorization_is_of_order_at_most_n_or_m(monkeypatch):
    # a T = 100 tracking solve and its differentiate: every LAPACK
    # factorization ipal.linsolve takes (the Cholesky of C, of order n, a
    # band LU of C, or the band LU of G G', of order m) is of order at most
    # max(n, m), never that of the reduced matrix, n + m + p
    model, x0, theta = trajectory_tracking(100)
    orders = []
    for name in ("dpbtrf", "dgbtrf"):
        original = getattr(ipal.linsolve, name)

        def recorded(ab, *args, original=original, **kwargs):
            orders.append(ab.shape[1])
            return original(ab, *args, **kwargs)

        monkeypatch.setattr(ipal.linsolve, name, recorded)
    sol = solve(model, x0, theta)
    assert sol.solved
    solved = len(orders)
    out = ipal.differentiate(model, sol, theta)
    assert not out.used_least_squares
    assert solved >= sol.total_iterations and len(orders) > solved
    assert max(orders) <= max(model.n, model.m) < model.n + model.m + model.p


def test_no_dense_cone_factorization_on_the_tracking_family(monkeypatch):
    # a T = 100 tracking solve and its differentiate: the cone is Orthant(2)
    # and SecondOrder(2) segments, whose blocks are eigenvalue pairs, so no
    # cone block is solved, inverted or factored by numpy.linalg
    model, x0, theta = trajectory_tracking(100)
    calls = []
    for name in ("solve", "inv", "cholesky"):
        original = getattr(np.linalg, name)

        def recorded(*args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    sol = solve(model, x0, theta)
    assert sol.solved
    assert not ipal.differentiate(model, sol, theta).used_least_squares
    assert calls == []


def _digest(a):
    a = np.ascontiguousarray(a, dtype=float)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()[:16]


# sha256 prefixes of the shape and bytes of x, y, z and differentiate's dw,
# as the solver computed them before the second-order corrector
UNCUT_PINS = {
    "double-integrator-trajopt": {
        "x": "494852a1ff09e508", "y": "10062e8dedf45d6a", "z": "91d6039a01f57163", "dw": "2f0c61535658ced9",
    },
    "mpc-autotune": {
        "x": "f70b62eba0a0777c", "y": "2f379e3e3bdff407", "z": "91d6039a01f57163", "dw": "a1ebcc9a358cf41b",
    },
}


@pytest.mark.parametrize("name", sorted(UNCUT_PINS))
def test_models_without_cones_are_bitwise_unchanged_by_the_corrector(name):
    # with p = 0 no boundary cuts a step, so the corrector never runs and
    # the solution and its derivative are bitwise what they were before it
    prob = REGISTRY[name]
    assert prob.model.p == 0
    sol = solve(prob.model, prob.x0, prob.theta, SolverOptions(record_trace=True))
    assert sol.solved and not any(rec.cut or rec.corrected for rec in sol.trace)
    dw = ipal.differentiate(prob.model, sol, prob.theta).dw
    got = {key: _digest(value) for key, value in
           (("x", sol.point.x), ("y", sol.point.y), ("z", sol.point.z), ("dw", dw))}
    assert got == UNCUT_PINS[name]


@pytest.mark.parametrize("name", sorted(REGISTRY) + ["tracking-20"])
def test_outer_update_reuses_the_accepted_barrier_value(monkeypatch, name):
    # the barrier value is taken once at x0 and once per line-search trial
    # point; an outer update keeps s, so its merit reads the value of the
    # trial that accepted the point, which is bitwise barrier_value(s)
    if name == "tracking-20":
        model, x0, theta = trajectory_tracking(20)
    else:
        model, x0, theta = REGISTRY[name].model, REGISTRY[name].x0, REGISTRY[name].theta
    barriers, trials, merits = [], [], []
    original_barrier, original_merit = ipal.solver.barrier_value, ipal.solver.merit
    original_values = ipal.solver.evaluate_values

    def barrier_value(s, cone):
        barriers.append(None)
        return original_barrier(s, cone)

    def evaluate_values(*args):
        trials.append(None)
        return original_values(*args)

    def merit(point, outer, values, barrier):
        assert barrier is not None
        assert np.float64(barrier).tobytes() == np.float64(original_barrier(point.s, model.cone)).tobytes()
        merits.append(None)
        return original_merit(point, outer, values, barrier)

    monkeypatch.setattr(ipal.solver, "barrier_value", barrier_value)
    monkeypatch.setattr(ipal.solver, "evaluate_values", evaluate_values)
    monkeypatch.setattr(ipal.solver, "merit", merit)
    sol = solve(model, x0, theta)
    assert sol.solved and sol.outer_iterations > 0
    # x0 and every trial point: evaluated once, barrier taken once
    assert len(barriers) == len(trials) == len(merits) - sol.outer_iterations


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_trace_records_the_corrector(name):
    # a corrected step is a cut one; the registry cuts 6 steps and corrects
    # 5 (particle-impact-contact's corrected direction has the smaller cap)
    prob = REGISTRY[name]
    sol = solve(prob.model, prob.x0, prob.theta, SolverOptions(record_trace=True))
    assert sol.solved
    cut = [rec.iteration for rec in sol.trace if rec.cut]
    corrected = [rec.iteration for rec in sol.trace if rec.corrected]
    assert set(corrected) <= set(cut)
    expected = {"particle-impact-contact": (1, 0), "particle-friction": (1, 1), "soc-projection": (2, 2),
                "nonneg-qp": (1, 1), "state-triggered-toy": (1, 1)}
    assert (len(cut), len(corrected)) == expected.get(name, (0, 0))


PREDICTOR_ITERATIONS = {  # the registry's counts before the corrector
    "particle-impact-free": 7, "particle-impact-contact": 8, "particle-friction": 12,
    "soc-projection": 6, "nonneg-qp": 8, "state-triggered-toy": 10,
    "double-integrator-trajopt": 6, "mpc-autotune": 5,
}


@pytest.mark.parametrize("reject", ["consistency", "line-search"])
def test_a_rejected_correction_takes_the_newton_direction(monkeypatch, reject):
    # a corrected direction that misses the consistency bound, or whose line
    # search fails, leaves the iteration to the Newton direction as it was
    # before the corrector, filter included: the registry then takes its
    # counts from before the corrector
    original_corrector, original_filter_step = ipal.solver.corrector, ipal.solver.filter_step
    offered = []

    def corrector(*args):
        if reject == "consistency":
            return None
        out = original_corrector(*args)
        offered.append(out)
        return out

    def filter_step(model, point, delta, *args):
        if offered and delta is offered[-1]:
            raise ipal.solver.LineSearchFailure("rejected")
        return original_filter_step(model, point, delta, *args)

    monkeypatch.setattr(ipal.solver, "corrector", corrector)
    monkeypatch.setattr(ipal.solver, "filter_step", filter_step)
    for name, prob in REGISTRY.items():
        sol = solve(prob.model, prob.x0, prob.theta, SolverOptions(record_trace=True))
        assert sol.solved and not any(rec.corrected for rec in sol.trace), name
        assert sol.total_iterations == PREDICTOR_ITERATIONS[name], name
    assert (len(offered) > 0) == (reject == "line-search")
