"""Benchmark registry: small contact, cone, and trajectory problems with
independently computed reference solutions.

Every oracle is worked out without running the solver: closed forms, branch
comparison, active-set enumeration, or a dense KKT solve of an equality QP
assembled here with explicit loops (not through the trajectory transcription
under test). Decision vectors follow the package layout conventions so the
reference iterates are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from ..cone import ConeSpec, Orthant, SecondOrder
from ..model import ProblemModel
from ..trajopt import Stage, TrajectoryProblem, transcribe
from . import autotune

MASS = 1.0
STEP = 0.1
GRAVITY = 9.81
FRICTION = 0.5


class NotFound(KeyError):
    """Unknown benchmark name."""


@dataclass(frozen=True)
class OracleResult:
    objective: float
    x: np.ndarray
    unique: bool = True
    note: str = ""


@dataclass(frozen=True)
class BenchmarkProblem:
    name: str
    description: str
    model: ProblemModel
    x0: np.ndarray
    theta: np.ndarray
    oracle: Callable[[np.ndarray], OracleResult]


def _impact_model(goal, prev_p, prev_v):
    """One vertical step of a particle over the ground: x = (p, gamma, u)
    with impulses u (actuation) and gamma (contact), velocity-level dynamics,
    and the no-force-at-a-distance product p * gamma pinned to zero. The
    product row makes the active constraint gradients parallel at either
    solution branch."""

    def dynamics_row(x):
        p, gamma, u = x
        return MASS * ((p - prev_p) / STEP - prev_v) + MASS * GRAVITY * STEP - u - gamma

    cross = np.zeros((3, 3))
    cross[0, 1] = cross[1, 0] = 1.0

    return ProblemModel(
        n=3,
        m=2,
        p=2,
        cone=ConeSpec((Orthant(2),)),
        objective=lambda x, th: (x[0] - goal) ** 2 + x[2] ** 2,
        objective_gradient=lambda x, th: np.array(
            [2.0 * (x[0] - goal), 0.0, 2.0 * x[2]]
        ),
        equality=lambda x, th: np.array([dynamics_row(x), x[0] * x[1]]),
        equality_jacobian=lambda x, th: np.array(
            [[MASS / STEP, -1.0, -1.0], [x[1], x[0], 0.0]]
        ),
        cone_constraint=lambda x, th: x[:2].copy(),
        cone_jacobian=lambda x, th: np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        lagrangian_hessian=lambda x, th, y, z: np.diag([2.0, 0.0, 2.0]) + y[1] * cross,
        d=0,
    )


def _impact_oracle(goal, prev_p, prev_v):
    """Compare the two complementarity branches in closed form."""
    c = MASS / STEP * prev_p + MASS * prev_v - MASS * GRAVITY * STEP  # u at p = 0, gamma = 0

    # flight branch (gamma = 0): u = (m/h) p - c, minimize (p-goal)^2 + u^2
    k = MASS / STEP
    p_free = (goal + k * c) / (1.0 + k * k)
    branches = []
    if p_free > 0.0:
        u_free = k * p_free - c
        branches.append(
            ((p_free - goal) ** 2 + u_free ** 2, np.array([p_free, 0.0, u_free]))
        )
    # contact branch (p = 0): u + gamma = -c with gamma >= 0
    u_contact = min(0.0, -c)  # unconstrained best u = 0 unless gamma would go negative
    gamma = -c - u_contact
    branches.append((goal ** 2 + u_contact ** 2, np.array([0.0, gamma, u_contact])))

    obj, x = min(branches, key=lambda entry: entry[0])
    return OracleResult(objective=obj, x=x, note="closed-form branch comparison")


def _friction_model():
    """Planar push on the ground: x = (px, pz, gamma, b1, b2, u). The
    tangential impulse (b1, b2) lives in the friction cone scaled by the
    normal impulse; b2 is pinned to zero to keep the push planar while still
    exercising a genuine second-order cone block."""

    cross = np.zeros((6, 6))
    cross[1, 2] = cross[2, 1] = 1.0

    def equality(x, th):
        px, pz, gamma, b1, b2, u = x
        return np.array(
            [
                MASS * (pz / STEP) + MASS * GRAVITY * STEP - gamma,
                MASS * (px / STEP) - b1 - u,
                pz * gamma,
                b2,
            ]
        )

    def equality_jacobian(x, th):
        px, pz, gamma, b1, b2, u = x
        return np.array(
            [
                [0.0, MASS / STEP, -1.0, 0.0, 0.0, 0.0],
                [MASS / STEP, 0.0, 0.0, -1.0, 0.0, -1.0],
                [0.0, gamma, pz, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            ]
        )

    H = np.zeros((5, 6))
    H[0, 1] = 1.0  # pz
    H[1, 2] = 1.0  # gamma
    H[2, 2] = FRICTION  # cone head mu * gamma
    H[3, 3] = 1.0  # b1
    H[4, 4] = 1.0  # b2

    return ProblemModel(
        n=6,
        m=4,
        p=5,
        cone=ConeSpec((Orthant(2), SecondOrder(3))),
        objective=lambda x, th: (x[0] - 1.0) ** 2 + x[5] ** 2,
        objective_gradient=lambda x, th: np.array(
            [2.0 * (x[0] - 1.0), 0.0, 0.0, 0.0, 0.0, 2.0 * x[5]]
        ),
        equality=equality,
        equality_jacobian=equality_jacobian,
        cone_constraint=lambda x, th: H @ x,
        cone_jacobian=lambda x, th: H.copy(),
        lagrangian_hessian=lambda x, th, y, z: np.diag([2.0, 0, 0, 0, 0, 2.0])
        + y[2] * cross,
        d=0,
    )


def _friction_oracle(theta):
    # the ground reaction is pinned by the vertical rows: gamma = m g h > 0
    # forces pz = 0; the friction bound then saturates toward the goal
    gamma = MASS * GRAVITY * STEP
    bound = FRICTION * gamma
    B = STEP / MASS  # px = B * (b1 + u)
    goal = 1.0
    b1 = np.clip(goal / B, -bound, bound)
    u = B * (goal - B * b1) / (1.0 + B * B)
    px = B * (b1 + u)
    obj = (px - goal) ** 2 + u ** 2
    x = np.array([px, 0.0, gamma, b1, 0.0, u])
    return OracleResult(objective=obj, x=x, note="saturated friction bound, closed form")


def _soc_projection_model():
    target = np.array([0.0, 2.0])
    return ProblemModel(
        n=2,
        m=0,
        p=2,
        cone=ConeSpec((SecondOrder(2),)),
        objective=lambda x, th: float(np.sum((x - target) ** 2)),
        objective_gradient=lambda x, th: 2.0 * (x - target),
        cone_constraint=lambda x, th: x.copy(),
        cone_jacobian=lambda x, th: np.eye(2),
        lagrangian_hessian=lambda x, th, y, z: 2.0 * np.eye(2),
        d=0,
    )


def _soc_projection_oracle(theta):
    head, tail = 0.0, np.array([2.0])
    w = float(np.linalg.norm(tail))
    # target is outside the cone and its polar: scaled boundary point
    scale = 0.5 * (head + w)
    x = np.concatenate([[scale], scale * tail / w])
    obj = float(np.sum((x - np.array([0.0, 2.0])) ** 2))
    return OracleResult(objective=obj, x=x, note="closed-form cone projection")


NONNEG_Q = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
NONNEG_Q_LIN = np.array([-1.0, 2.0, -3.0])


def _nonneg_qp_model():
    return ProblemModel(
        n=3,
        m=0,
        p=3,
        cone=ConeSpec((Orthant(3),)),
        objective=lambda x, th: 0.5 * x @ NONNEG_Q @ x + NONNEG_Q_LIN @ x,
        objective_gradient=lambda x, th: NONNEG_Q @ x + NONNEG_Q_LIN,
        cone_constraint=lambda x, th: x.copy(),
        cone_jacobian=lambda x, th: np.eye(3),
        lagrangian_hessian=lambda x, th, y, z: NONNEG_Q.copy(),
        d=0,
    )


def _nonneg_qp_oracle(theta):
    best = None
    for mask in range(8):
        free = [i for i in range(3) if mask & (1 << i)]
        x = np.zeros(3)
        if free:
            x[free] = np.linalg.solve(
                NONNEG_Q[np.ix_(free, free)], -NONNEG_Q_LIN[free]
            )
        if np.any(x < -1e-12):
            continue
        grad = NONNEG_Q @ x + NONNEG_Q_LIN
        fixed = [i for i in range(3) if i not in free]
        if np.any(grad[fixed] < -1e-12):
            continue
        obj = 0.5 * x @ NONNEG_Q @ x + NONNEG_Q_LIN @ x
        if best is None or obj < best[0]:
            best = (obj, x)
    obj, x = best
    return OracleResult(objective=obj, x=x, note="active-set enumeration")


TRIGGER_AUX = 1e-3


def _state_trigger_model():
    """Trigger toy: when x1 > 0 the constraint x2 >= 1 must hold. Encoded
    with split slacks Gp - Gm = x1, hp - hm = x2 - 1, the product Gp * hm = 0,
    and a small quadratic penalty on the splits to pin them."""

    cross = np.zeros((6, 6))
    cross[2, 5] = cross[5, 2] = 1.0
    d = TRIGGER_AUX

    return ProblemModel(
        n=6,
        m=3,
        p=4,
        cone=ConeSpec((Orthant(4),)),
        objective=lambda x, th: (x[0] - 1.0) ** 2
        + (x[1] - 0.5) ** 2
        + d * float(np.sum(x[2:] ** 2)),
        objective_gradient=lambda x, th: np.array(
            [
                2.0 * (x[0] - 1.0),
                2.0 * (x[1] - 0.5),
                2.0 * d * x[2],
                2.0 * d * x[3],
                2.0 * d * x[4],
                2.0 * d * x[5],
            ]
        ),
        equality=lambda x, th: np.array(
            [x[2] - x[3] - x[0], x[4] - x[5] - (x[1] - 1.0), x[2] * x[5]]
        ),
        equality_jacobian=lambda x, th: np.array(
            [
                [-1.0, 0.0, 1.0, -1.0, 0.0, 0.0],
                [0.0, -1.0, 0.0, 0.0, 1.0, -1.0],
                [0.0, 0.0, x[5], 0.0, 0.0, x[2]],
            ]
        ),
        cone_constraint=lambda x, th: x[2:].copy(),
        cone_jacobian=lambda x, th: np.hstack([np.zeros((4, 2)), np.eye(4)]),
        lagrangian_hessian=lambda x, th, y, z: np.diag(
            [2.0, 2.0, 2.0 * d, 2.0 * d, 2.0 * d, 2.0 * d]
        )
        + y[2] * cross,
        d=0,
    )


def _state_trigger_oracle(theta):
    d = TRIGGER_AUX
    # trigger on (hm = 0): x2 = 1 forced, x1 = 1/(1+d) from the split penalty
    x1 = 1.0 / (1.0 + d)
    obj_on = d / (1.0 + d) + 0.25
    x_on = np.array([x1, 1.0, x1, 0.0, 0.0, 0.0])
    # trigger off (Gp = 0): x1 <= 0, best at the boundary x1 = 0, x2 free
    obj_off = 1.0 + d * 0.25
    x_off = np.array([0.0, 0.5, 0.0, 0.0, 0.0, 0.5])
    if obj_on <= obj_off:
        return OracleResult(objective=obj_on, x=x_on, note="trigger-on branch")
    return OracleResult(objective=obj_off, x=x_off, note="trigger-off branch")


TRAJ_T = 10


def _integrator_stage():
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


def _integrator_trajopt_problem():
    terminal = Stage(
        state_dim=2,
        equality=lambda z, th: z - th,
        equality_jacobian=lambda z, th: np.eye(2),
        equality_param_jacobian=lambda z, th: -np.eye(2),
        equality_dim=2,
    )
    stages = [_integrator_stage() for _ in range(TRAJ_T - 1)] + [terminal]
    return TrajectoryProblem(stages=stages, initial_state=np.zeros(2), num_parameters=2)


def _integrator_trajopt_oracle(theta):
    """Dense KKT solve of the minimum-effort transfer, assembled with
    explicit loops in the interleaved layout."""
    T = TRAJ_T
    n = 3 * (T - 1) + 2
    rows = 2 + 2 * (T - 1) + 2
    Hmat = np.zeros((n, n))
    for t in range(T - 1):
        Hmat[3 * t + 2, 3 * t + 2] = 1.0
    Amat = np.zeros((rows, n))
    b = np.zeros(rows)
    Amat[0, 0] = Amat[1, 1] = 1.0
    r = 2
    for t in range(T - 1):
        Amat[r : r + 2, 3 * t : 3 * t + 2] = autotune.PLANT_A
        Amat[r : r + 2, 3 * t + 2] = autotune.PLANT_B
        Amat[r : r + 2, 3 * (t + 1) : 3 * (t + 1) + 2] = -np.eye(2)
        r += 2
    Amat[r, n - 2] = 1.0
    Amat[r + 1, n - 1] = 1.0
    b[r : r + 2] = theta
    K = np.block([[Hmat, Amat.T], [Amat, np.zeros((rows, rows))]])
    sol = np.linalg.solve(K, np.concatenate([np.zeros(n), b]))
    x = sol[:n]
    obj = 0.5 * float(sum(x[3 * t + 2] ** 2 for t in range(T - 1)))
    return OracleResult(objective=obj, x=x, note="dense KKT of the stacked QP")


def _policy_qp_model():
    refs = autotune.reference_states()
    problem = autotune.policy_problem(refs[1 : 1 + autotune.HORIZON])
    return transcribe(problem)


def _policy_qp_oracle(theta):
    """First controller subproblem of the tuning loop, solved as a dense KKT
    system assembled with explicit loops."""
    refs = autotune.reference_states()[1 : 1 + autotune.HORIZON]
    wp, wv, wu = theta[0], theta[1], theta[2]
    xi = theta[3:5]
    N = autotune.HORIZON
    n = 3 * N + 2
    rows = 2 + 2 * N
    Hmat = np.zeros((n, n))
    q = np.zeros(n)
    for t in range(N):
        Hmat[3 * t + 2, 3 * t + 2] = 2.0 * wu
    for t in range(1, N + 1):
        off = 3 * t
        ref = refs[t - 1]
        Hmat[off, off] += 2.0 * wp
        Hmat[off + 1, off + 1] += 2.0 * wv
        q[off] -= 2.0 * wp * ref[0]
        q[off + 1] -= 2.0 * wv * ref[1]
    Amat = np.zeros((rows, n))
    b = np.zeros(rows)
    Amat[0, 0] = Amat[1, 1] = 1.0
    b[0:2] = xi
    r = 2
    for t in range(N):
        Amat[r : r + 2, 3 * t : 3 * t + 2] = autotune.PLANT_A
        Amat[r : r + 2, 3 * t + 2] = autotune.PLANT_B
        Amat[r : r + 2, 3 * (t + 1) : 3 * (t + 1) + 2] = -np.eye(2)
        r += 2
    K = np.block([[Hmat, Amat.T], [Amat, np.zeros((rows, rows))]])
    sol = np.linalg.solve(K, np.concatenate([-q, b]))
    x = sol[:n]
    obj = 0.0
    for t in range(N):
        obj += wu * x[3 * t + 2] ** 2
    for t in range(1, N + 1):
        e = x[3 * t : 3 * t + 2] - refs[t - 1]
        obj += wp * e[0] ** 2 + wv * e[1] ** 2
    return OracleResult(objective=obj, x=x, note="dense KKT of the tracking QP")


def _build_registry() -> Dict[str, BenchmarkProblem]:
    reg: Dict[str, BenchmarkProblem] = {}

    def add(name, description, model, x0, theta, oracle):
        reg[name] = BenchmarkProblem(
            name=name,
            description=description,
            model=model,
            x0=np.asarray(x0, dtype=float),
            theta=np.asarray(theta, dtype=float),
            oracle=oracle,
        )

    add(
        "particle-impact-free",
        "one-step vertical impact, flight branch optimal",
        _impact_model(goal=2.0, prev_p=1.0, prev_v=0.0),
        [1.0, 0.0, 0.0],
        [],
        lambda th: _impact_oracle(goal=2.0, prev_p=1.0, prev_v=0.0),
    )
    add(
        "particle-impact-contact",
        "one-step vertical impact, contact branch optimal",
        _impact_model(goal=0.3, prev_p=0.05, prev_v=-1.0),
        [0.05, 0.0, 0.0],
        [],
        lambda th: _impact_oracle(goal=0.3, prev_p=0.05, prev_v=-1.0),
    )
    add(
        "particle-friction",
        "planar push with a Coulomb friction cone, bound saturated",
        _friction_model(),
        [0.5, 0.1, 1.0, 0.0, 0.0, 0.0],
        [],
        _friction_oracle,
    )
    add(
        "soc-projection",
        "projection of a point onto the 2d second-order cone",
        _soc_projection_model(),
        [2.0, 0.0],
        [],
        _soc_projection_oracle,
    )
    add(
        "nonneg-qp",
        "strictly convex QP over the nonnegative orthant",
        _nonneg_qp_model(),
        [1.0, 1.0, 1.0],
        [],
        _nonneg_qp_oracle,
    )
    add(
        "state-triggered-toy",
        "trigger constraint via split slacks and a bilinear product",
        _state_trigger_model(),
        [0.8, 0.9, 0.8, 0.1, 0.1, 0.1],
        [],
        _state_trigger_oracle,
    )
    add(
        "double-integrator-trajopt",
        "minimum-effort transfer to a parametric target state",
        transcribe(_integrator_trajopt_problem()),
        np.zeros(3 * (TRAJ_T - 1) + 2),
        [1.0, 0.0],
        _integrator_trajopt_oracle,
    )
    add(
        "mpc-autotune",
        "first tracking-controller subproblem of the tuning loop",
        _policy_qp_model(),
        np.zeros(3 * autotune.HORIZON + 2),
        np.concatenate([autotune.INITIAL_WEIGHTS, autotune.SIM_START]),
        _policy_qp_oracle,
    )
    return reg


REGISTRY = _build_registry()


def names() -> Tuple[str, ...]:
    return tuple(REGISTRY)


def get(name: str) -> BenchmarkProblem:
    try:
        return REGISTRY[name]
    except KeyError:
        raise NotFound(f"unknown benchmark {name!r}; known: {', '.join(REGISTRY)}") from None
