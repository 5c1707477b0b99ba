"""Seeded inputs and independent correctness checks for the benchmark.

Three workloads, each a closed loop with one caller:

- ``registry``: the 8 problems of ``ipal.bench.REGISTRY`` solved round-robin
  with the options ``run_benchmark`` uses; the parametric ones are also
  differentiated. Small problems, limited by Python overhead.
- ``horizon``: a constrained double-integrator tracking problem at T = 100,
  solved at ``tol=1e-6``. Limited by dense factorization and the dense KKT
  and transcription matrices; never differentiated.
- ``mpc-sens``: the same family at T = 75, solved at the tight options of
  acceptance criterion 6 and differentiated with respect to all 5 parameters.

Every check here is computed from the problem data with explicit loops, never
through the transcription or the solver's own residual helpers, except the
registry gate, which is by definition the gate of ``ipal.bench.report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ipal import (
    ConeSpec,
    Orthant,
    SecondOrder,
    SolverOptions,
    Stage,
    TrajectoryProblem,
    solve,
    transcribe,
)
from ipal.bench import REGISTRY
from ipal.bench.autotune import PLANT_A, PLANT_B
from ipal.bench.report import GAP_TOL
from ipal.cone import cone_product
from ipal.solver import unrelaxed_residual_norm

# registry: the options of ipal.bench.report.run_benchmark, tracing off
REGISTRY_TOL = 1e-6
REGISTRY_OPTS = SolverOptions(tol=REGISTRY_TOL, kappa_min=min(1e-8, 1e-2 * REGISTRY_TOL))
COMPLEMENTARITY_TOL = 1e-6

# tracking family shared by horizon and mpc-sens
HORIZON_T = 100
MPC_T = 75
HORIZON_OPTS = SolverOptions(tol=1e-6)
# Sensitivities need a tight solve: at tol=1e-6 they agree with re-solves of
# this family only to about 4e-4. Acceptance criterion 6's own options
# (tol=1e-10, kappa_min=1e-11) end in a line-search failure on about a
# quarter of these instances, and tol=1e-8 with kappa_min=1e-10 on 1 in 20,
# each time once kappa falls to 2e-9. A kappa floor of 5e-9, still below tol,
# stops the path before that: about 1 instance in 300 still ends in a
# line-search failure, which the benchmark records as a failed operation, and
# the sensitivities agree with re-solves to about 1e-6.
SENS_OPTS = SolverOptions(tol=1e-8, kappa_min=5e-9, max_outer=40)
# acceptance criterion 6 itself, used for the registry's reference re-solves
TIGHT_OPTS = SolverOptions(tol=1e-10, kappa_min=1e-11, max_outer=40)
WEIGHTS = np.array([1.0, 0.1, 0.01])  # (w_p, w_v, w_u)
U_MAX = 2.0
V_MAX = 1.5
DT = PLANT_A[0, 1]
REF_AMPLITUDE = 1.0
REF_OMEGA = 2.0  # rad/s: peak reference speed 2 > V_MAX, peak accel 4 > U_MAX
X0_RANGE = 0.5

# the unrelaxed residual bounds each row the certificate checks by tol, and
# each certificate quantity sums at most a few such rows
CERT_FACTOR = 10.0

# acceptance criterion 6: central differences of tight re-solves
FD_STEP = 1e-5
FD_TOL = 1e-4


@dataclass
class TrackingInstance:
    """One seeded tracking problem; ``refs`` holds (r_p, r_v) per knot."""

    refs: np.ndarray
    initial_state: np.ndarray
    model: object
    x0: np.ndarray
    theta: np.ndarray

    @property
    def horizon(self) -> int:
        return self.refs.shape[0]


def reference(T: int, phase: float) -> np.ndarray:
    """Sinusoidal position reference and its exact velocity, one row per knot."""
    tk = np.arange(T) * DT
    arg = REF_OMEGA * tk + phase
    return np.column_stack(
        [REF_AMPLITUDE * np.sin(arg), REF_AMPLITUDE * REF_OMEGA * np.cos(arg)]
    )


def _cone_rows(z):
    return np.array([U_MAX - z[2], U_MAX + z[2], V_MAX, z[1]])


CONE_JACOBIAN = np.array(
    [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
)
DYNAMICS_JACOBIAN = np.column_stack([PLANT_A, PLANT_B])
STAGE_CONE = ConeSpec((Orthant(2), SecondOrder(2)))


def tracking_stage(ref: np.ndarray, terminal: bool) -> Stage:
    """Knot with z = (p, v, u), cost w_p(p - r_p)^2 + w_v(v - r_v)^2 + w_u u^2,
    the bound |u| <= U_MAX as two orthant rows and |v| <= V_MAX as a
    second-order segment (V_MAX, v). theta = (w_p, w_v, w_u, x0_p, x0_v)."""

    def cost(z, th):
        return th[0] * (z[0] - ref[0]) ** 2 + th[1] * (z[1] - ref[1]) ** 2 + th[2] * z[2] ** 2

    def cost_gradient(z, th):
        return np.array(
            [2.0 * th[0] * (z[0] - ref[0]), 2.0 * th[1] * (z[1] - ref[1]), 2.0 * th[2] * z[2]]
        )

    def cost_hessian(z, th):
        return np.diag([2.0 * th[0], 2.0 * th[1], 2.0 * th[2]])

    def cost_param_jacobian(z, th):
        out = np.zeros((3, 5))
        out[0, 0] = 2.0 * (z[0] - ref[0])
        out[1, 1] = 2.0 * (z[1] - ref[1])
        out[2, 2] = 2.0 * z[2]
        return out

    dynamics = {}
    if not terminal:
        dynamics = dict(
            dynamics=lambda z, th: PLANT_A @ z[:2] + PLANT_B * z[2],
            dynamics_jacobian=lambda z, th: DYNAMICS_JACOBIAN.copy(),
        )
    return Stage(
        state_dim=2,
        control_dim=1,
        cost=cost,
        cost_gradient=cost_gradient,
        cost_hessian=cost_hessian,
        cost_param_jacobian=cost_param_jacobian,
        cone_constraint=lambda z, th: _cone_rows(z),
        cone_jacobian=lambda z, th: CONE_JACOBIAN.copy(),
        cone=STAGE_CONE,
        **dynamics,
    )


def tracking_instance(
    rng: np.random.Generator, T: int, stratum: int = 0, strata: int = 1
) -> TrackingInstance:
    """Draw the reference phase from the given stratum of [0, 2 pi) and the
    initial state from the box, then transcribe."""
    phase = 2.0 * np.pi * (stratum + rng.uniform()) / strata
    initial_state = rng.uniform(-X0_RANGE, X0_RANGE, size=2)
    refs = reference(T, phase)
    stages = [tracking_stage(refs[t], terminal=(t == T - 1)) for t in range(T)]
    model = transcribe(TrajectoryProblem(
        stages=stages,
        initial_state=np.zeros(2),
        num_parameters=5,
        initial_state_param=slice(3, 5),
    ))
    return TrackingInstance(
        refs=refs,
        initial_state=initial_state,
        model=model,
        x0=np.zeros(model.n),
        theta=np.concatenate([WEIGHTS, initial_state]),
    )


# ---------------------------------------------------------------- checks


@dataclass
class Check:
    ok: bool
    detail: str

    def __post_init__(self):
        self.ok = bool(self.ok)


def _fail(detail: str) -> Check:
    return Check(False, detail)


def check_tracking(inst: TrackingInstance, x, y, z, tol: float) -> Check:
    """KKT certificate of a tracking solution, from the stage data alone.

    Layout conventions of the transcription: x interleaves (p, v, u) per
    knot; y is the initial-state pin followed by one dynamics defect
    A x_t + B u_t - x_{t+1} per step; z holds the multipliers of the rows
    (U_MAX - u, U_MAX + u, V_MAX, v) of each knot. With L = c + y'g + z'h, a KKT point has grad L = 0, -z in the
    cone, and h o (-z) = 0.
    """
    T = inst.horizon
    w = inst.theta[:3]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != (3 * T,) or y.shape != (2 * T,) or z.shape != (4 * T,):
        return _fail(f"shapes x{x.shape} y{y.shape} z{z.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(z))):
        return _fail("non-finite solution")
    bound = CERT_FACTOR * tol

    worst_defect = float(np.abs(x[0:2] - inst.initial_state).max())
    worst_bound = 0.0
    worst_dual = 0.0
    worst_comp = 0.0
    worst_stat = 0.0
    comp_scale = 1.0 + max(float(np.abs(z).max()), U_MAX + V_MAX)
    for t in range(T):
        p, v, u = x[3 * t : 3 * t + 3]
        if t < T - 1:
            nxt = x[3 * t + 3 : 3 * t + 5]
            defect = [
                PLANT_A[0, 0] * p + PLANT_A[0, 1] * v + PLANT_B[0] * u - nxt[0],
                PLANT_A[1, 0] * p + PLANT_A[1, 1] * v + PLANT_B[1] * u - nxt[1],
            ]
            worst_defect = max(worst_defect, abs(defect[0]), abs(defect[1]))
        worst_bound = max(worst_bound, abs(u) - U_MAX, abs(v) - V_MAX)

        zt = z[4 * t : 4 * t + 4]
        h = [U_MAX - u, U_MAX + u, V_MAX, v]
        # -z in the cone: orthant rows nonpositive, -z_head >= |z_tail|
        worst_dual = max(worst_dual, zt[0], zt[1], abs(zt[3]) + zt[2])
        worst_comp = max(
            worst_comp,
            abs(h[0] * zt[0]),
            abs(h[1] * zt[1]),
            abs(h[2] * zt[2] + h[3] * zt[3]),
            abs(h[2] * zt[3] + h[3] * zt[2]),
        )

        rp, rv = inst.refs[t]
        grad = [2.0 * w[0] * (p - rp), 2.0 * w[1] * (v - rv), 2.0 * w[2] * u]
        if t == 0:
            grad[0] += y[0]
            grad[1] += y[1]
        else:
            grad[0] -= y[2 * t]
            grad[1] -= y[2 * t + 1]
        if t < T - 1:
            yd = y[2 * t + 2 : 2 * t + 4]
            grad[0] += PLANT_A[0, 0] * yd[0] + PLANT_A[1, 0] * yd[1]
            grad[1] += PLANT_A[0, 1] * yd[0] + PLANT_A[1, 1] * yd[1]
            grad[2] += PLANT_B[0] * yd[0] + PLANT_B[1] * yd[1]
        grad[1] += zt[3]
        grad[2] += -zt[0] + zt[1]
        worst_stat = max(worst_stat, abs(grad[0]), abs(grad[1]), abs(grad[2]))

    detail = (
        f"defect {worst_defect:.1e} bound {max(worst_bound, 0.0):.1e} "
        f"dual {max(worst_dual, 0.0):.1e} comp {worst_comp:.1e} stat {worst_stat:.1e}"
    )
    ok = (
        worst_defect <= bound
        and worst_bound <= bound
        and worst_dual <= bound
        and worst_comp <= bound * comp_scale
        and worst_stat <= bound
    )
    return Check(ok, detail)


def check_solution(inst: TrackingInstance, sol, tol: float) -> Check:
    if not sol.solved:
        return _fail(f"status {sol.status.value}")
    return check_tracking(inst, sol.point.x, sol.point.y, sol.point.z, tol)


def finite_difference_dx(
    model, x0, theta, opts: SolverOptions, step: float = FD_STEP, columns=None
) -> Optional[np.ndarray]:
    """Central differences of x* over re-solves at theta +- step e_j, one
    column per parameter in ``columns`` (all by default); None if a re-solve
    fails."""
    columns = range(theta.size) if columns is None else columns
    fd = np.zeros((model.n, len(columns)))
    for k, j in enumerate(columns):
        e = np.zeros(theta.size)
        e[j] = step
        up = solve(model, x0, theta + e, opts)
        dn = solve(model, x0, theta - e, opts)
        if not (up.solved and dn.solved):
            return None
        fd[:, k] = (up.point.x - dn.point.x) / (2.0 * step)
    return fd


def compare_with_differences(dx: np.ndarray, differences, tol: float = FD_TOL,
                             step: float = FD_STEP) -> Check:
    """Agreement of dx with central differences, in the error measure of
    acceptance criterion 6.

    ``differences(step, columns)`` returns the difference columns. A column
    off by more than tol is differenced again at step / 10: it passes if dx
    matches the finer quotient. If the two quotients disagree with each other
    as well, the solution map is not resolved at these steps (a change of
    active set lies within the step, so x* has a kink there) and the column
    is skipped, as criterion 6 skips problems too ill-conditioned to
    difference. At least one column must be resolved.
    """
    fd = differences(step, None)
    if fd is None:
        return _fail("finite-difference re-solve failed")
    if dx.shape != fd.shape:
        return _fail(f"dx shape {dx.shape} != {fd.shape}")
    scale = 1.0 + (np.abs(fd).max() if fd.size else 0.0)
    col_err = np.abs(dx - fd).max(axis=0) / scale if fd.size else np.zeros(0)
    refined, unresolved = [], []
    for j in np.flatnonzero(col_err > tol):
        fine = differences(step / 10.0, [j])
        if fine is None:
            return _fail("finite-difference re-solve failed")
        if np.abs(dx[:, j] - fine[:, 0]).max() / scale <= tol:
            refined.append(int(j))
        elif np.abs(fine[:, 0] - fd[:, j]).max() / scale > tol:
            unresolved.append(int(j))
        else:
            return _fail(f"fd err {col_err[j]:.2e} in parameter {j} (tol {tol:g})")
    if len(unresolved) == dx.shape[1]:
        return _fail("no parameter resolved by the finite differences")
    passed = np.setdiff1d(np.arange(dx.shape[1]), refined + unresolved)
    err = float(col_err[passed].max()) if passed.size else 0.0
    detail = f"fd err {err:.2e} (tol {tol:g})"
    if refined:
        detail += f"; parameters {refined} matched at step {step / 10:g}"
    if unresolved:
        detail += f"; parameters {unresolved} unresolved (kink within the step)"
    return Check(True, detail)


def check_sensitivity(sens) -> Check:
    if sens.used_least_squares:
        return _fail("used least squares")
    if not np.all(np.isfinite(sens.dx)):
        return _fail("non-finite dx")
    return Check(True, "ok")


def check_against_re_solves(sens, model, x0, theta, opts: SolverOptions) -> Check:
    """check_sensitivity plus agreement with re-solves at ``opts``."""
    check = check_sensitivity(sens)
    if not check.ok:
        return check
    return compare_with_differences(
        sens.dx, lambda step, cols: finite_difference_dx(model, x0, theta, opts, step, cols)
    )


@dataclass
class RegistryCase:
    """One registry problem with its oracle computed once at set-up."""

    name: str
    problem: object
    oracle_objective: float


def registry_cases() -> List[RegistryCase]:
    return [
        RegistryCase(name, prob, float(prob.oracle(prob.theta).objective))
        for name, prob in REGISTRY.items()
    ]


def check_registry(case: RegistryCase, sol) -> Check:
    """The ipal.bench.report gate, recomputed from the returned point:
    objective gap within GAP_TOL(1 + |oracle|), unrelaxed residual <= tol,
    complementarity <= 1e-6."""
    if not sol.solved:
        return _fail(f"status {sol.status.value}")
    prob = case.problem
    point = sol.point
    if not np.all(np.isfinite(point.x)):
        return _fail("non-finite x")
    gap = abs(float(prob.model.objective(point.x, prob.theta)) - case.oracle_objective)
    res = unrelaxed_residual_norm(prob.model, point, prob.theta)
    comp = (
        float(np.abs(cone_product(point.s, point.t, prob.model.cone)).max())
        if prob.model.p
        else 0.0
    )
    ok = (
        gap <= GAP_TOL * (1.0 + abs(case.oracle_objective))
        and res <= REGISTRY_TOL
        and comp <= COMPLEMENTARITY_TOL
    )
    return Check(ok, f"gap {gap:.1e} res {res:.1e} comp {comp:.1e}")


# ---------------------------------------------------------------- tasks

# instances per trajectory workload, one per phase stratum, cycled in order;
# stratifying the phase keeps each run's mix of easy and hard references alike
POOL = 8
WARMUP_T = 10


@dataclass
class Task:
    """One closed-loop step: solve, then differentiate if asked. ``check``
    judges the solution; with ``fd_opts`` set, the sensitivities are compared
    once per run against finite-difference re-solves at those options."""

    label: str
    model: object
    x0: np.ndarray
    theta: np.ndarray
    opts: SolverOptions
    differentiate: bool
    check: Callable[[object], Check]
    fd_opts: Optional[SolverOptions] = None


def _tracking_task(label, inst, opts, differentiate, fd_opts=None):
    return Task(
        label=label,
        model=inst.model,
        x0=inst.x0,
        theta=inst.theta,
        opts=opts,
        differentiate=differentiate,
        check=lambda sol: check_solution(inst, sol, opts.tol),
        fd_opts=fd_opts,
    )


def build_tasks(workload: str, seed: int) -> List[Task]:
    """The operations of one run, in the order the closed loop cycles them.

    The registry is fixed, so its seed only picks the problem the rotation
    starts from; the trajectory workloads draw every input from the seed.
    """
    if workload == "registry":
        cases = registry_cases()
        start = seed % len(cases)
        return [
            Task(
                label=case.name,
                model=case.problem.model,
                x0=case.problem.x0,
                theta=case.problem.theta,
                opts=REGISTRY_OPTS,
                differentiate=case.problem.model.d > 0,
                check=lambda sol, case=case: check_registry(case, sol),
                fd_opts=TIGHT_OPTS if case.problem.model.d > 0 else None,
            )
            for case in cases[start:] + cases[:start]
        ]
    rng = np.random.default_rng(seed)
    if workload == "horizon":
        return [
            _tracking_task(f"horizon-{k}", tracking_instance(rng, HORIZON_T, k, POOL),
                           HORIZON_OPTS, False)
            for k in range(POOL)
        ]
    if workload == "mpc-sens":
        return [
            _tracking_task(f"mpc-sens-{k}", tracking_instance(rng, MPC_T, k, POOL),
                           SENS_OPTS, True, SENS_OPTS if k == 0 else None)
            for k in range(POOL)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_tasks(workload: str, tasks: List[Task]) -> List[Task]:
    """Operations run once during set-up: a registry pass, or one short
    instance of the trajectory family with the workload's options."""
    if workload == "registry":
        return tasks
    inst = tracking_instance(np.random.default_rng(0), WARMUP_T)
    return [_tracking_task("warmup", inst, tasks[0].opts, tasks[0].differentiate)]
