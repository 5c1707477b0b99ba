"""Parameter sensitivities of converged solutions by the implicit function
theorem: J(w*) dw/dtheta = -dR/dtheta, with the Jacobian taken at zero
regularization and the final penalty.

The multiplier estimate is differentiated at its fixed point (dlam = dy), so
the relaxation rows give dr = 0 and equality constraints stay exactly
satisfied to first order. Differentiating with the estimate frozen instead
would leave an O(1/rho) mismatch against re-solving, which the boundary-value
structure of trajectory problems amplifies well past usable accuracy.

dlam = dy zeroes J[r, y] and nothing else. So ``differentiate`` factors the
solver's own Newton system at zero shift and the final penalty, and refines
all parameter columns in one ``solve_refined`` loop against its blockwise
``apply`` plus dy in the relaxation rows, preconditioned by its ``inverse``
with those rows set to b_r / (rho + eps_p). dR/dtheta has zero relaxation
rows, so dr is exactly zero in every iterate, and rho enters only through
the preconditioner's equality-dual block, 1 / rho where the tracked matrix
has zero: iterated regularization, which on a consistent system loses the
bias. When the assembly fails (a singular C, with an exactly zero pivot, or
an N that is not positive definite), the system is assembled again at
``PRIMAL_SHIFT`` and refined against the same unshifted Jacobian, and the
result is flagged. No inertia is needed, so the factorization need not be
certified.

A rank-deficient equality Jacobian G is detected on its own: by an exactly
zero pivot in the band LU of G G', the equality duals in their stage order
(``SchurPlan.gram``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kkt
from .kkt import (  # noqa: F401 (full_jacobian stays bound here for tools that wrap it)
    MAX_REFINE,
    Layout,
    OuterState,
    ReducedSystem,
    SolverPoint,
    assemble_symmetric,
    full_jacobian,
)
from .linsolve import DUAL_SHIFT, NumericalFailure, RegularizationState, band_lu
from .model import ProblemModel, entries, evaluate, evaluate_parameter_jacobians
from .solver import Solution, checked_vector, unrelaxed_residual_norm


# the shift of a Schur complement that is singular at zero shift: primal
# only, since a dual shift also shifts the complementarity rows, P_t - eps_d
# I, which at the cone boundary makes N indefinite
PRIMAL_SHIFT = RegularizationState(DUAL_SHIFT, 0.0)


@dataclass
class SensitivityResult:
    """Columns are parameter directions; rows follow the iterate stacking."""

    dw: np.ndarray  # (n + 2m + 3p, d)
    dx: np.ndarray  # (n, d) slice of dw
    used_least_squares: bool  # singular Jacobian, or dw missed the accuracy check
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

    All parameter columns are solved together, as described above, so the
    result is deterministic and column order matches theta order.
    ``used_least_squares`` flags a rank-deficient Jacobian (a repeated
    equality row, or a Newton system that fails to assemble at zero shift)
    or a solve whose row-equilibrated residual exceeds 1e-6 *
    (1 + ||dR/dtheta||);
    NumericalFailure is raised when the solve fails, and ValueError unless
    the solution is solved (the point of an unconverged run has no
    sensitivities) and theta is finite and of shape (d,). The solution point
    is not modified. A ``solution`` of this model at this theta supplies the
    evaluation at its point that ``solve`` ended with, and its residual
    norm, instead of evaluating them again.
    """
    if not solution.solved:
        raise ValueError(f"differentiate needs a solved solution, not {solution.status.value}")
    point = solution.point
    theta = checked_vector(theta, model.d, "theta")
    cache = solution.final_evaluation(model, theta)
    residual_norm = solution.residual_norm  # of that evaluation
    if cache is None:
        cache = evaluate(model, point.x, theta, point.y, point.z)
        residual_norm = unrelaxed_residual_norm(model, point, theta, cache)
    outer = OuterState(lam=np.zeros(model.m), rho=solution.rho, kappa=solution.kappa)
    Rt = residual_parameter_jacobian(model, point, theta)

    try:
        rsys = factored = assemble_symmetric(model, point, outer, cache)
        singular = False
    except NumericalFailure:
        singular = True
        factored = assemble_symmetric(model, point, outer, cache, PRIMAL_SHIFT)
        # the unshifted Jacobian: apply and _row_scale read no block that
        # the primal shift changes but eps_p itself
        rsys = replace(factored, eps_p=0.0)
    if model.m and not singular:
        try:
            band_lu(rsys.plan.gram(entries(cache.g_x)[1]))
        except NumericalFailure:
            singular = True
    lay = rsys.layout

    def tracked_apply(dw: np.ndarray) -> np.ndarray:
        out = rsys.apply(dw)
        out[lay.r] += dw[lay.y]  # J[r, y] = 0
        return out

    def tracked_inverse(b: np.ndarray) -> np.ndarray:
        dw = factored.inverse(b)
        dw[lay.r] = b[lay.r] * factored.dual_scale
        return dw

    # through the module, so that a wrapper on kkt.solve_refined sees the
    # refinement of differentiate as it sees that of the solver
    dw, _, err, _ = kkt.solve_refined(tracked_apply, tracked_inverse, -Rt, MAX_REFINE)
    flagged = singular
    if dw.size:
        # accept on the row-equilibrated residual J dw + Rt: the penalty
        # rows scale with rho, the cone rows with the barrier
        row_scale = _row_scale(rsys)[:, None]
        scale = 1.0 + np.abs(Rt / row_scale).max()
        res = np.abs(err / row_scale).max()
        flagged |= not (np.isfinite(res) and res <= 1e-6 * scale)

    return SensitivityResult(
        dw=dw,
        dx=dw[: model.n].copy(),
        used_least_squares=flagged,
        residual_norm=residual_norm,
    )


def _row_scale(rsys: ReducedSystem) -> np.ndarray:
    """Row max-norms of the Jacobian of rsys, differentiated at zero shift
    with J[r, y] = 0, read off its blocks; all-zero rows get 1."""
    lay, cache = rsys.layout, rsys.cache
    ag, ah = abs(cache.g_x), abs(cache.h_x)
    x_rows = np.maximum.reduce([
        abs(cache.L_xx).max(axis=1, initial=0.0),
        ag.max(axis=0, initial=0.0),  # g_x'
        ah.max(axis=0, initial=0.0),  # h_x'
    ])
    scale = np.concatenate([
        x_rows,
        np.full(lay.m, abs(rsys.rho)),
        np.ones(lay.p),  # -I at z and t
        ag.max(axis=1, initial=1.0),  # g_x and -I at r
        ah.max(axis=1, initial=1.0),  # h_x and -I at s
        np.maximum(rsys.Ps.row_max_abs(), rsys.Ptb.row_max_abs()),  # Ps and P_t
    ])
    scale[scale == 0.0] = 1.0
    return scale
