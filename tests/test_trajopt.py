import dataclasses

import numpy as np
import pytest

from helpers import dense_reduced_matrix, dense_schur_complement, random_iterate, transcribed
from ipal.bench.problems import REGISTRY
from ipal.cone import ConeSpec, Orthant
from ipal.kkt import assemble_symmetric
from ipal.linsolve import RegularizationState
from ipal.model import InvalidDimension, evaluate, evaluate_parameter_jacobians, validate_derivatives
from ipal.solver import SolverOptions, solve
from ipal.trajopt import (
    Stage,
    TrajectoryProblem,
    dynamics_rollout,
    extract_trajectory,
    index_map,
    stack_trajectory,
    transcribe,
)

H = 0.1
A = np.array([[1.0, H], [0.0, 1.0]])
B = np.array([0.5 * H * H, H])


def integrator_stage(terminal=False):
    if terminal:
        return Stage(state_dim=2)
    return Stage(
        state_dim=2,
        control_dim=1,
        cost=lambda z, th: 0.5 * z[2] ** 2,
        cost_gradient=lambda z, th: np.array([0.0, 0.0, z[2]]),
        cost_hessian=lambda z, th: np.diag([0.0, 0.0, 1.0]),
        dynamics=lambda z, th: A @ z[:2] + B * z[2],
        dynamics_jacobian=lambda z, th: np.column_stack([A, B]),
    )


def integrator_problem(T, x0=(0.0, 0.0)):
    stages = [integrator_stage() for _ in range(T - 1)] + [integrator_stage(terminal=True)]
    return TrajectoryProblem(stages=stages, initial_state=np.asarray(x0, dtype=float))


def test_double_integrator_dimensions():
    problem = integrator_problem(T=3)
    imap = index_map(problem)
    assert imap.n == 8
    assert imap.m == 2 + 2 + 2  # init pin + two defects
    assert imap.p == 0
    assert imap.state == (slice(0, 2), slice(3, 5), slice(6, 8))
    assert imap.control == (slice(2, 3), slice(5, 6), slice(8, 8))
    assert imap.init == slice(0, 2)
    assert imap.defect == (slice(2, 4), slice(4, 6))


def test_stack_extract_round_trip():
    problem = integrator_problem(T=4)
    rng = np.random.default_rng(7)
    states = [rng.standard_normal(2) for _ in range(4)]
    controls = [rng.standard_normal(1) for _ in range(3)]
    x = stack_trajectory(problem, states, controls)
    assert x.shape == (11,)
    back_states, back_controls = extract_trajectory(problem, x)
    for a, b in zip(states, back_states):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(controls, back_controls):
        np.testing.assert_array_equal(a, b)
    # with a control at the terminal stage, extract drops it and stack pads
    # it with zeros; a decision vector of the wrong length is rejected
    stages = [integrator_stage() for _ in range(3)] + [Stage(state_dim=2, control_dim=1)]
    problem = TrajectoryProblem(stages=stages, initial_state=np.zeros(2))
    x = rng.standard_normal(index_map(problem).n)
    back = stack_trajectory(problem, *extract_trajectory(problem, x))
    np.testing.assert_array_equal(back, np.append(x[:-1], 0.0))
    for bad in (x[:-1], np.append(x, 0.0)):
        with pytest.raises(InvalidDimension):
            extract_trajectory(problem, bad)


def test_equality_matches_hand_stack():
    problem = integrator_problem(T=3, x0=(0.3, -0.2))
    model = transcribe(problem)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(model.n)
    g = model.equality(x, np.zeros(0))

    X1, U1, X2, U2, X3 = x[0:2], x[2:3], x[3:5], x[5:6], x[6:8]
    hand = np.concatenate(
        [
            X1 - np.array([0.3, -0.2]),
            A @ X1 + B * U1 - X2,
            A @ X2 + B * U2 - X3,
        ]
    )
    np.testing.assert_allclose(g, hand, atol=1e-14)


def nonlinear_stage():
    """Nonlinear dynamics, cost, equality, and cone with every curvature and
    parameter hook populated; theta = (dynamics gain, control weight)."""

    def dyn(z, th):
        return np.array(
            [
                z[0] + H * z[1] + 0.05 * np.sin(z[2]),
                z[1] + H * z[2] + (0.05 + 0.02 * th[0]) * z[0] ** 2,
            ]
        )

    def dyn_jac(z, th):
        return np.array(
            [
                [1.0, H, 0.05 * np.cos(z[2])],
                [2.0 * (0.05 + 0.02 * th[0]) * z[0], 1.0, H],
            ]
        )

    def dyn_param(z, th):
        return np.array([[0.0, 0.0], [0.02 * z[0] ** 2, 0.0]])

    def dyn_hvp(z, th, w):
        out = np.zeros((3, 3))
        out[2, 2] = -0.05 * np.sin(z[2]) * w[0]
        out[0, 0] = 2.0 * (0.05 + 0.02 * th[0]) * w[1]
        return out

    def dyn_cross(z, th, w):
        out = np.zeros((3, 2))
        out[0, 0] = 0.04 * z[0] * w[1]
        return out

    return Stage(
        state_dim=2,
        control_dim=1,
        cost=lambda z, th: 0.5 * (z[0] ** 2 + z[1] ** 2) + 0.5 * th[1] * z[2] ** 2,
        cost_gradient=lambda z, th: np.array([z[0], z[1], th[1] * z[2]]),
        cost_hessian=lambda z, th: np.diag([1.0, 1.0, th[1]]),
        cost_param_jacobian=lambda z, th: np.array([[0.0, 0.0], [0.0, 0.0], [0.0, z[2]]]),
        dynamics=dyn,
        dynamics_jacobian=dyn_jac,
        dynamics_param_jacobian=dyn_param,
        dynamics_hessian_vp=dyn_hvp,
        dynamics_cross_param_vp=dyn_cross,
        equality=lambda z, th: np.array([z[0] + z[2] - th[0]]),
        equality_jacobian=lambda z, th: np.array([[1.0, 0.0, 1.0]]),
        equality_param_jacobian=lambda z, th: np.array([[-1.0, 0.0]]),
        equality_dim=1,
        cone_constraint=lambda z, th: np.array([z[1] + 1.0 + 0.1 * z[0] ** 2]),
        cone_jacobian=lambda z, th: np.array([[0.2 * z[0], 1.0, 0.0]]),
        cone_hessian_vp=lambda z, th, w: np.diag([0.2 * w[0], 0.0, 0.0]),
        cone=ConeSpec((Orthant(1),)),
    )


def nonlinear_problem():
    terminal = Stage(
        state_dim=2,
        cost=lambda z, th: 0.5 * np.sum((z - np.array([1.0, 0.0])) ** 2),
        cost_gradient=lambda z, th: z - np.array([1.0, 0.0]),
        cost_hessian=lambda z, th: np.eye(2),
    )
    return TrajectoryProblem(
        stages=[nonlinear_stage(), nonlinear_stage(), terminal],
        initial_state=np.array([0.2, -0.1]),
        num_parameters=2,
    )


def test_transcribed_derivatives_validate():
    problem = nonlinear_problem()
    model = transcribe(problem)
    assert (model.n, model.m, model.p) == (8, 8, 2)
    rng = np.random.default_rng(11)
    x = 0.5 * rng.standard_normal(model.n)
    theta = np.array([0.7, 1.3])
    y = rng.standard_normal(model.m)
    z = rng.standard_normal(model.p)
    report = validate_derivatives(model, x, theta, y, z)
    assert report.passed, str(report)


def test_rollout_is_defect_feasible():
    problem = integrator_problem(T=6, x0=(0.4, 0.1))
    model = transcribe(problem)
    imap = index_map(problem)
    rng = np.random.default_rng(5)
    controls = [rng.standard_normal(1) for _ in range(5)]
    states = dynamics_rollout(problem, controls)
    x = stack_trajectory(problem, states, controls)
    g = model.equality(x, np.zeros(0))
    np.testing.assert_allclose(g, np.zeros(imap.m), atol=1e-13)


def test_dimension_errors_name_the_stage():
    bad = Stage(
        state_dim=2,
        control_dim=1,
        dynamics=lambda z, th: np.zeros(3),
        dynamics_jacobian=lambda z, th: np.zeros((3, 3)),
    )
    problem = TrajectoryProblem(
        stages=[bad, Stage(state_dim=2)], initial_state=np.zeros(2)
    )
    model = transcribe(problem)
    with pytest.raises(InvalidDimension, match="stage 0 dynamics"):
        model.equality(np.zeros(model.n), np.zeros(0))

    with pytest.raises(InvalidDimension, match="stage 0"):
        TrajectoryProblem(
            stages=[Stage(state_dim=2), Stage(state_dim=2)], initial_state=np.zeros(2)
        )
    with pytest.raises(InvalidDimension, match="stage 1"):
        TrajectoryProblem(
            stages=[integrator_stage(), integrator_stage()], initial_state=np.zeros(2)
        )
    with pytest.raises(InvalidDimension, match="initial_state"):
        TrajectoryProblem(
            stages=[integrator_stage(), Stage(state_dim=2)], initial_state=np.zeros(3)
        )


def test_stage_callback_requirements():
    with pytest.raises(InvalidDimension, match="cost_gradient"):
        Stage(state_dim=1, cost=lambda z, th: 0.0)
    with pytest.raises(InvalidDimension, match="dynamics_jacobian"):
        Stage(state_dim=1, dynamics=lambda z, th: z[:1])
    with pytest.raises(InvalidDimension, match="equality"):
        Stage(state_dim=1, equality_dim=1)


def test_parametric_initial_state():
    stages = [integrator_stage(), Stage(state_dim=2)]
    problem = TrajectoryProblem(
        stages=stages,
        initial_state=np.zeros(2),
        num_parameters=5,
        initial_state_param=slice(3, 5),
    )
    model = transcribe(problem)
    theta = np.array([9.0, 9.0, 9.0, 0.25, -0.5])
    x = np.zeros(model.n)
    g = model.equality(x, theta)
    np.testing.assert_allclose(g[:2], [-0.25, 0.5], atol=1e-15)

    _, g_t, _ = evaluate_parameter_jacobians(model, x, theta, np.zeros(model.m), np.zeros(0))
    expected = np.zeros((model.m, 5))
    expected[0, 3] = -1.0
    expected[1, 4] = -1.0
    np.testing.assert_array_equal(g_t, expected)

    with pytest.raises(InvalidDimension, match="initial_state_param"):
        TrajectoryProblem(
            stages=[integrator_stage(), Stage(state_dim=2)],
            initial_state=np.zeros(2),
            num_parameters=5,
            initial_state_param=slice(0, 1),
        )


def test_solve_reaches_target():
    # minimum-effort transfer to (1, 0): singular cost Hessian end to end
    T = 5
    terminal = Stage(
        state_dim=2,
        equality=lambda z, th: z - np.array([1.0, 0.0]),
        equality_jacobian=lambda z, th: np.eye(2),
        equality_dim=2,
    )
    stages = [integrator_stage() for _ in range(T - 1)] + [terminal]
    problem = TrajectoryProblem(stages=stages, initial_state=np.zeros(2))
    model = transcribe(problem)

    sol = solve(model, np.zeros(model.n), opts=SolverOptions(tol=1e-8))
    assert sol.solved
    states, controls = extract_trajectory(problem, sol.point.x)
    np.testing.assert_allclose(states[-1], [1.0, 0.0], atol=1e-6)

    rolled = dynamics_rollout(problem, controls)
    for got, ref in zip(states, rolled):
        np.testing.assert_allclose(got, ref, atol=1e-6)


def test_the_schur_complement_is_banded_by_the_stage_widths():
    # x is laid out stage by stage, and only the defect rows couple
    # neighbouring stages: C couples each stage's 3 variables with each
    # other and, through its defects, with the next stage's 2 states, so its
    # half-bandwidth is 3 + 2 - 1 and the dense Schur complement has no
    # entry outside it
    problem = nonlinear_problem()
    problem = TrajectoryProblem(
        stages=[nonlinear_stage() for _ in range(10)] + [problem.stages[-1]],
        initial_state=problem.initial_state,
        num_parameters=2,
    )
    model = transcribe(problem)
    rng = np.random.default_rng(12)
    point, outer = random_iterate(rng, model)
    theta = np.array([0.3, 1.0])
    cache = evaluate(model, point.x, theta, point.y, point.z)
    rsys = assemble_symmetric(model, point, outer, cache)
    assert rsys.plan.kd == 4 and rsys.C.shape == (5, model.n)
    K = dense_reduced_matrix(model, point, outer, RegularizationState(), cache)
    C = dense_schur_complement(K, model.n)
    assert np.abs(np.tril(C, -1)).max() > 0.0 and not np.tril(C, -5).any()


def test_registry_transcriptions_are_banded():
    # stages of 2 states and 1 control: C's half-bandwidth is 3 + 2 - 1,
    # and G G' couples the 2 rows of each defect with the 2 of the next,
    # which share its next state: 2 + 2 - 1
    bands = {}
    for name, prob in REGISTRY.items():
        if transcribed(prob):
            model = dataclasses.replace(prob.model)
            point, outer = random_iterate(np.random.default_rng(0), model)
            cache = evaluate(model, point.x, prob.theta, point.y, point.z)
            plan = assemble_symmetric(model, point, outer, cache).plan
            bands[name] = (plan.kd, plan.gram_kd)
    assert bands == {"double-integrator-trajopt": (4, 3), "mpc-autotune": (4, 3)}
