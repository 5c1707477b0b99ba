"""Parameter sensitivities of converged solutions by the implicit function
theorem: J(w*) dw/dtheta = -dR/dtheta, with the Jacobian taken at zero
regularization and the final penalty.

The multiplier estimate is differentiated at its fixed point (dlam = dy), so
the relaxation rows give dr = 0 and equality constraints stay exactly
satisfied to first order. Differentiating with the estimate frozen instead
would leave an O(1/rho) mismatch against re-solving, which the boundary-value
structure of trajectory problems amplifies well past usable accuracy.

All parameter columns are solved through the solver's own symmetric
reduction in (dx, dy, dz) at zero shift, factored once and refined against
the full Jacobian applied blockwise, as Newton directions are
(``kkt.reduced_solve``: one reduced solve of all columns per pass). dlam = dy
zeroes J[r, y], which removes the penalty term from the reduced system's
equality-dual diagonal (``ReducedSystem.track_multiplier``). Rank deficiency
is read off the factorization's zero-pivot count; only then, or when the
reduced solve misses its accuracy check, is the dense Jacobian formed, for a
least-squares solve."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kkt import (
    DirectionOptions,
    Layout,
    OuterState,
    ReducedSystem,
    SolverPoint,
    assemble_symmetric,
    full_jacobian,
    reduced_solve,
)
from .linsolve import NumericalFailure, RegularizationState, factorize
from .model import EvalCache, ProblemModel, evaluate, evaluate_parameter_jacobians
from .solver import Solution, unrelaxed_residual_norm


@dataclass
class SensitivityResult:
    """Columns are parameter directions; rows follow the iterate stacking."""

    dw: np.ndarray  # (n + 2m + 3p, d)
    dx: np.ndarray  # (n, d) slice of dw
    used_least_squares: bool
    residual_norm: float  # stationarity residual norm at the point differentiated


def residual_parameter_jacobian(
    model: ProblemModel,
    point: SolverPoint,
    theta: np.ndarray,
) -> np.ndarray:
    """dR/dtheta: stationarity rows get the Lagrangian cross derivative,
    constraint rows get g_theta / h_theta, relaxation and cone rows are
    parameter-free."""
    lay = Layout(model.n, model.m, model.p)
    L_xt, g_t, h_t = evaluate_parameter_jacobians(model, point.x, theta, point.y, point.z)
    Rt = np.zeros((lay.total, model.d))
    Rt[lay.x] = L_xt
    Rt[lay.y] = g_t
    Rt[lay.z] = h_t
    return Rt


def differentiate(
    model: ProblemModel,
    solution: Solution,
    theta: np.ndarray,
) -> SensitivityResult:
    """Differentiate a converged solution with respect to theta.

    All parameter columns are solved together through the solver's reduced
    (dx, dy, dz) system at zero shift, with dlam = dy, and refined against
    the full Jacobian applied blockwise, so the result is deterministic and
    column order matches theta order. A zero pivot in the factorization marks
    the Jacobian rank deficient; that case, or a solve whose row-equilibrated
    residual exceeds 1e-6 * (1 + ||dR/dtheta||), falls back to the
    least-squares solution of the dense Jacobian (the only place it is
    formed) and flags it. The solution point is not modified. A solved
    ``solution`` of this model at this theta supplies the evaluation at its
    point that ``solve`` ended with, instead of evaluating it again.
    """
    point = solution.point
    theta = np.asarray(theta, dtype=float)
    lay = Layout(model.n, model.m, model.p)
    cache = solution.final_evaluation(model, theta)
    if cache is None:
        cache = evaluate(model, point.x, theta, point.y, point.z)
    outer = OuterState(lam=np.zeros(model.m), rho=solution.rho, kappa=solution.kappa)
    Rt = residual_parameter_jacobian(model, point, theta)

    dw = None
    try:
        rsys = assemble_symmetric(model, point, theta, outer, cache=cache)
        rsys.track_multiplier()
        fact = factorize(rsys.K)
        if fact.inertia[2] == 0:
            dw, _, err, _ = reduced_solve(rsys, fact, cache, outer.rho, Rt, DirectionOptions())
    except NumericalFailure:
        pass
    if dw is not None and dw.size:
        # accept on the row-equilibrated residual J dw + Rt: the penalty
        # rows scale with rho, the cone rows with the barrier
        row_scale = _row_scale(rsys, cache, outer.rho)[:, None]
        scale = 1.0 + np.abs(Rt / row_scale).max()
        res = np.abs(err / row_scale).max()
        if not np.isfinite(res) or res > 1e-6 * scale:
            dw = None

    used_lstsq = dw is None
    if used_lstsq:
        J = full_jacobian(model, point, theta, outer, RegularizationState(), cache)
        J[lay.r, lay.y] = 0.0  # dlam = dy, as in the reduced system
        row_scale = np.abs(J).max(axis=1)
        row_scale[row_scale == 0.0] = 1.0
        dw = np.linalg.lstsq(J / row_scale[:, None], -Rt / row_scale[:, None], rcond=None)[0]

    return SensitivityResult(
        dw=dw,
        dx=dw[: model.n].copy(),
        used_least_squares=used_lstsq,
        residual_norm=unrelaxed_residual_norm(model, point, theta, cache),
    )


def _row_scale(rsys: ReducedSystem, cache: EvalCache, rho: float) -> np.ndarray:
    """Row max-norms of the Jacobian differentiated at zero shift with
    J[r, y] = 0, read off its blocks; all-zero rows get 1."""
    lay = rsys.layout
    ag, ah = abs(cache.g_x), abs(cache.h_x)
    x_rows = np.maximum.reduce([
        abs(cache.L_xx).max(axis=1, initial=0.0),
        ag.max(axis=0, initial=0.0),  # g_x'
        ah.max(axis=0, initial=0.0),  # h_x'
    ])
    scale = np.concatenate([
        x_rows,
        np.full(lay.m, abs(rho)),
        np.ones(lay.p),  # -I at z and t
        ag.max(axis=1, initial=1.0),  # g_x and -I at r
        ah.max(axis=1, initial=1.0),  # h_x and -I at s
        np.maximum(rsys.Ps.row_max_abs(), rsys.Ptb.row_max_abs()),  # Ps and P_t
    ])
    scale[scale == 0.0] = 1.0
    return scale
