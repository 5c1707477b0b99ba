"""Augmented Lagrangian interior-point solver loop.

Equalities are relaxed with slacks r penalized by an augmented Lagrangian
(multiplier estimate lam, penalty rho); cone constraints carry slacks s with
a logarithmic barrier weighted by the central-path parameter kappa. Each
subproblem is solved by Newton steps on the stationarity system with a
fraction-to-boundary rule and a filter line search, until the max-norm of
its residual is at most kappa (IPOPT's rule E_mu <= kappa_eps * mu with
kappa_eps = 1; Waechter & Biegler, Math. Prog. 2006); between subproblems
the multiplier estimate, kappa, and rho are updated and the filter is
reset. kappa follows the centrality of the slacks and complements (LOQO's
rule; ``outer_update``), bounded above by a fixed schedule and, while the
schedule is above it, below by 10 tol. The schedule ends at tol/2 (or
kappa_min if higher): a subproblem solved to kappa = tol/2 leaves products
s o t of at most tol, so a lower kappa would buy nothing. The solve stops
once the unrelaxed residual is at most tol.

Each iteration is one ``newton_step``: the direction of
``kkt.search_direction``, its fraction-to-boundary caps on s and t, and the
filter line search. A step that the caps cut (one below 1) is corrected by
Mehrotra's second-order term (SIAM J. Optim. 1992): a full step leaves ds o
dt in the complementarity rows, and ``kkt.corrector`` removes it by one more
reduced solve through the step's own factors. The line search takes the
corrected direction when it meets the consistency bound, its caps are no
smaller than the Newton step's and its capped t is inside the cone, and the
Newton direction otherwise or when that line search fails. The cut is the
test, a property of the iterate: correcting every step as well saves more
iterations on trajectory problems but makes small problems slower.

Each iterate is evaluated once, where the solve first meets it: its values
(c, g, h) at x0 or in the line search that accepts it, its derivatives at
the top of the loop. Every routine on the Newton path (``merit``,
``violation``, ``initialize_point``, ``outer_update`` and those of ``kkt``)
reads that evaluation, and the exit reuses the last one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .cone import (
    ConeSpec,
    NotInterior,
    barrier_value,
    cone_product,
    cone_slack,
    cone_target,
    in_cone,
    interior_initialization,
    max_step_to_boundary,
)
from .kkt import (
    DirectionInfo,
    OuterState,
    SolverPoint,
    corrector,
    outer_rows,
    residual,
    search_direction,
    unrelaxed_rows,
)
from .linsolve import (
    InertiaCorrectionFailure,
    NumericalFailure,
    RegularizationState,
)
from .model import EvalCache, EvaluationFailure, ProblemModel, evaluate, evaluate_values


Values = Tuple[float, np.ndarray, np.ndarray]  # (c, g, h) of evaluate_values


class LineSearchFailure(RuntimeError):
    """Backtracking reached the minimum step without an acceptable point."""


class SolveStatus(enum.Enum):
    SOLVED = "solved"
    MAX_ITERATIONS = "max_iterations"
    LINE_SEARCH_FAILURE = "line_search_failure"
    INERTIA_CORRECTION_FAILURE = "inertia_correction_failure"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class SolverOptions:
    """What a caller sets; the method's constants sit by their routines."""

    tol: float = 1e-6                 # unrelaxed residual tolerance (gamma_R)
    rho_init: float = 1.0
    kappa_min: float = 0.0            # floor of kappa; below tol/2 it has no effect
    max_outer: int = 30
    max_total: int = 1000
    record_trace: bool = False


@dataclass
class TraceRecord:
    iteration: int
    outer: int
    residual_norm: float
    merit: float
    violation: float
    alpha: float
    alpha_t: float
    eps_p: float
    eps_d: float
    kappa: float
    rho: float
    backtracks: int = 0  # step halvings of the line search (filter_step)
    # diagnostics of this iteration's Newton direction (DirectionInfo)
    refine_passes: int = 0
    consistency_error: float = 0.0
    inertia_trials: int = 0
    raised: int = 0  # cone stacks raised by kkt.CONE_RAISE
    # the boundary cut the Newton step (cap below 1), so the corrector was
    # tried; corrected: the step taken was along its corrected direction
    cut: bool = False
    corrected: bool = False


@dataclass
class Solution:
    point: SolverPoint
    status: SolveStatus
    objective: float
    violation: float              # primal infeasibility of x: max(||g||, cone dist of h)
    residual_norm: float          # unrelaxed stationarity residual at the point
    total_iterations: int
    outer_iterations: int
    kappa: float
    rho: float
    trace: Optional[List[TraceRecord]] = None
    # a solved run's last evaluation, at point: (model, the key of theta and
    # point it was made at, EvalCache)
    _final: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def solved(self) -> bool:
        return self.status is SolveStatus.SOLVED

    def final_evaluation(self, model: ProblemModel, theta: np.ndarray) -> Optional[EvalCache]:
        """The evaluation a solved run ended with, if it is of this model
        object at a bitwise-equal theta and the point is unchanged since;
        otherwise None."""
        if self._final is None:
            return None
        solved, key, cache = self._final
        return cache if solved is model and key == _evaluation_key(theta, self.point) else None


def _evaluation_key(theta: np.ndarray, point: SolverPoint) -> tuple:
    """Bitwise identity of the inputs of an evaluation besides the model."""
    arrays = [np.asarray(a, dtype=float) for a in (theta, point.x, point.y, point.z)]
    return tuple((a.shape, a.tobytes()) for a in arrays)


def checked_vector(value, size: int, name: str) -> np.ndarray:
    """``value`` as a float array; ValueError unless finite and of shape
    (size,)."""
    out = np.asarray(value, dtype=float)
    if out.shape != (size,):
        raise ValueError(f"{name} has shape {out.shape}, expected ({size},)")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


def merit(point: SolverPoint, outer: OuterState, values: Values, barrier: float) -> float:
    """Augmented Lagrangian merit with the barrier on the cone slacks:
    c + lam'r + (rho/2) r'r - kappa * barrier(s), from the ``values`` (c, g,
    h) at point.x and ``barrier``, barrier_value(s)."""
    phi = float(values[0]) + outer.lam @ point.r + 0.5 * outer.rho * (point.r @ point.r)
    return float(phi - outer.kappa * barrier)


def violation(model: ProblemModel, point: SolverPoint, values: Values) -> float:
    """Relaxation mismatch ||(g - r, h - s)||_1 / (m + p), from the
    ``values`` (c, g, h) at point.x; zero when unconstrained."""
    mp = model.m + model.p
    if mp == 0:
        return 0.0
    _, g, h = values
    return float((np.abs(g - point.r).sum() + np.abs(h - point.s).sum()) / mp)


def cone_infeasibility(model: ProblemModel, h: np.ndarray) -> float:
    """Max violation of h with respect to the cone (0 when inside)."""
    return max(0.0, float(-cone_slack(h, model.cone).min(initial=np.inf)))


def unrelaxed_residual_norm(
    model: ProblemModel,
    point: SolverPoint,
    theta: np.ndarray,
    cache: Optional[EvalCache] = None,
    rows: Optional[np.ndarray] = None,
) -> float:
    """Max norm over the stationarity rows with the relaxation removed:
    stationarity, -z-t, g-r, h-s, s o t, and r itself (``unrelaxed_rows``,
    formed unless given)."""
    if rows is None:
        if cache is None:
            cache = evaluate(model, point.x, theta, point.y, point.z)
        rows = unrelaxed_rows(model, point, cache)
    return np.abs(rows).max()


def subproblem_converged(residual_norm: float, kappa: float) -> bool:
    """Inclusive comparison: ||R|| may sit exactly at kappa."""
    return residual_norm <= kappa


KAPPA_LINEAR = 0.2  # schedule: k <- min(this*k, k^KAPPA_POWER), down to
KAPPA_POWER = 1.5   # KAPPA_END * tol and never up (kappa_min floors it)
KAPPA_END = 0.5
# LOQO centrality rule: sigma = CENTERING * min(SPREAD * (1 - xi) / xi, 2)^3
CENTERING = 0.1
SPREAD = 0.05
KAPPA_TOL_FLOOR = 10.0  # the rule sets no kappa below this * tol
RHO_GROW = 10.0  # rho <- min(RHO_MAX, max(this*rho, 1/kappa_new))
RHO_MAX = 1e8


def outer_update(outer: OuterState, point: SolverPoint, cone: ConeSpec,
                 opts: SolverOptions, products: np.ndarray) -> OuterState:
    """Multiplier estimate takes the current duals; kappa follows the
    centrality of (s, t), never falling more slowly than the fixed schedule;
    rho grows against the new kappa.

    The schedule is IPOPT's (Waechter & Biegler, Math. Prog. 2006, eq. 7),
    kappa_sched = max(kappa_min, min(kappa, max(tol/2, min(0.2 kappa,
    kappa^1.5)))); it never raises kappa. Its end tol/2 is the largest kappa
    whose subproblem meets the complementarity part of the stop test: a
    subproblem ends at ||R|| <= kappa, so its products end at |s o t| <=
    2 kappa (IPOPT ends at tol/10 under its kappa_eps = 10; here
    kappa_eps = 1), and a lower kappa only costs steps limited by the
    boundary. With w the entries of s o t on which ``cone_target`` is 1
    (s_i t_i per orthant entry, s_k't_k per second-order segment),
    mu = mean(w) and
    xi = min(w) / mu, LOQO's rule (Vanderbei & Shanno, Comput. Optim. Appl.
    1999) takes sigma = 0.1 min(0.05 (1 - xi) / xi, 2)^3: a well centred
    iterate (xi near 1) may jump far down the path, a badly centred one
    follows the schedule. The new kappa is max(kappa_min, min(kappa_sched,
    max(sigma mu, 10 tol))): below 10 tol the schedule alone finishes the
    path, so kappa near the end does not vary with where the iterate
    happens to sit (that variation shows in the differences of re-solves
    that check ``differentiate``). A model without cone constraints follows
    the schedule. ``products`` is s o t."""
    step = min(KAPPA_LINEAR * outer.kappa, outer.kappa ** KAPPA_POWER)
    kappa = max(opts.kappa_min, min(outer.kappa, max(KAPPA_END * opts.tol, step)))
    if cone.dim:
        w = products[cone_target(cone) == 1.0]
        mu = w.mean()
        xi = w.min() / mu
        # min(SPREAD (1 - xi) / xi, 2), without dividing by a tiny xi
        spread = SPREAD * (1.0 - xi)
        sigma = CENTERING * (spread / xi if spread < 2.0 * xi else 2.0) ** 3
        kappa = max(opts.kappa_min, min(kappa, max(sigma * mu, KAPPA_TOL_FLOOR * opts.tol)))
    rho = min(RHO_MAX, max(RHO_GROW * outer.rho, 1.0 / kappa))
    return OuterState(lam=point.y.copy(), rho=rho, kappa=kappa)


class Filter:
    """Set of (merit, violation) pairs; a candidate dominated by any entry
    (both components no better) is rejected."""

    def __init__(self):
        self.entries: List[Tuple[float, float]] = []

    def dominated(self, phi: float, eta: float) -> bool:
        return any(phi_f <= phi and eta_f <= eta for phi_f, eta_f in self.entries)

    def add(self, phi: float, eta: float) -> None:
        self.entries = [
            (phi_f, eta_f)
            for phi_f, eta_f in self.entries
            if not (phi <= phi_f and eta <= eta_f)
        ]
        self.entries.append((phi, eta))

    def reset(self) -> None:
        self.entries.clear()


ARMIJO = 1e-8  # sufficient-decrease margins in the filter rule
MIN_STEP = 1e-12
# trials in a row whose values cannot be evaluated before the line search
# stops: a step only too long for the callbacks' domain is accepted after a
# few halvings, while callbacks that stay non-finite end it early
MAX_UNEVALUABLE = 10
ROUNDOFF = 10.0 * np.finfo(float).eps  # relative rounding of the merit


def filter_step(
    model: ProblemModel,
    point: SolverPoint,
    delta: SolverPoint,
    theta: np.ndarray,
    outer: OuterState,
    filt: Filter,
    alpha_init: float,
    alpha_t: float,
    current: Tuple[float, float],
) -> Tuple[SolverPoint, float, float, Tuple[float, float], Values, int, float]:
    """Backtrack on the primal step until the filter accepts the candidate.

    Acceptance requires sufficient decrease in merit or violation relative to
    the current point and non-domination by the filter. Duals move by the
    accepted alpha; the complement block moves by its own boundary cap
    alpha_t. Returns the new point, the accepted alpha, alpha_t, the accepted
    pair, the values (c, g, h) at the new point, the number of step halvings
    taken, and the barrier value of the new point's s. Raises
    LineSearchFailure below MIN_STEP or after MAX_UNEVALUABLE trials in a
    row whose values could not be evaluated, or the EvaluationFailure of the
    last trial when no trial's values could be evaluated.
    """
    phi0, eta0 = current
    # round-off relaxation (Waechter & Biegler, Math. Prog. 2006): near the
    # end of the barrier path the merit changes by less than its own
    # rounding, so a step need not decrease it below that level
    slack = ROUNDOFF * abs(phi0)
    alpha = alpha_init
    backtracks = 0
    evaluated, failure, unevaluable = False, None, 0
    while alpha >= MIN_STEP and unevaluable < MAX_UNEVALUABLE:
        cand = SolverPoint(
            x=point.x + alpha * delta.x,
            r=point.r + alpha * delta.r,
            s=point.s + alpha * delta.s,
            y=point.y,
            z=point.z,
            t=point.t,
        )
        try:
            values = evaluate_values(model, cand.x, theta)
            evaluated, unevaluable = True, 0
            barrier = barrier_value(cand.s, model.cone)
            phi = merit(cand, outer, values, barrier)
            eta = violation(model, cand, values)
        except NotInterior:
            pass
        except EvaluationFailure as exc:
            failure, unevaluable = exc, unevaluable + 1
        else:
            sufficient = (phi < phi0 - ARMIJO * eta0 + slack) or (eta < (1.0 - ARMIJO) * eta0)
            if sufficient and not filt.dominated(phi - slack, eta):
                cand.y = point.y + alpha * delta.y
                cand.z = point.z + alpha * delta.z
                cand.t = point.t + alpha_t * delta.t
                filt.add(phi, eta)
                return cand, alpha, alpha_t, (phi, eta), values, backtracks, barrier
        alpha *= 0.5
        backtracks += 1
    if failure is not None and not evaluated:
        raise failure
    if unevaluable == MAX_UNEVALUABLE:
        raise LineSearchFailure(f"{MAX_UNEVALUABLE} trials in a row could not be evaluated") from failure
    raise LineSearchFailure(f"no acceptable step above {MIN_STEP:g}")


TAU_MIN = 0.99  # fraction-to-boundary floor


def newton_step(model: ProblemModel, point: SolverPoint, theta: np.ndarray, outer: OuterState,
                filt: Filter, current: Tuple[float, float], reg: RegularizationState,
                cache: EvalCache, R: np.ndarray, norm_R: float) -> tuple:
    """One Newton iteration from the iterate evaluated in ``cache``, whose
    residual is R and its max-norm norm_R: the direction delta of
    ``search_direction``, its boundary caps (alpha, alpha_t) on s and t, and
    the filter step along it, or along the corrected direction of
    ``kkt.corrector`` when the caps cut delta and the correction passes the
    tests of the module docstring (its line search failing or evaluating no
    trial is one of them). Returns the result of ``filter_step``, the
    shifts and DirectionInfo of delta, whether the caps cut delta and
    whether the step was corrected."""
    tau = max(TAU_MIN, 1.0 - outer.kappa)

    def caps(d: SolverPoint) -> Tuple[float, float]:
        return (max_step_to_boundary(point.s, d.s, tau, model.cone),
                max_step_to_boundary(point.t, d.t, tau, model.cone))

    delta, reg, info = search_direction(model, point, outer, reg, cache, R, norm_R)
    alpha, alpha_t = caps(delta)
    cut = min(alpha, alpha_t) < 1.0
    corrected = corrector(model, R, delta, info) if cut else None
    if corrected is not None:
        c_alpha, c_alpha_t = caps(corrected)
        # t moves by its cap unchecked (s by the line search, which evaluates
        # its barrier), and the cap of a second-order segment whose crossing
        # max_step_to_boundary takes as linear can overshoot the boundary
        if not min(c_alpha, c_alpha_t) < min(alpha, alpha_t) and in_cone(
            point.t + c_alpha_t * corrected.t, model.cone, strict=True
        ):
            try:
                step = filter_step(model, point, corrected, theta, outer, filt, c_alpha, c_alpha_t, current)
                return step, reg, info, cut, True
            except (LineSearchFailure, EvaluationFailure):
                pass
    step = filter_step(model, point, delta, theta, outer, filt, alpha, alpha_t, current)
    return step, reg, info, cut, False


def initialize_point(model: ProblemModel, x0: np.ndarray, values: Values) -> SolverPoint:
    """Starting iterate from the ``values`` (c, g, h) at x0."""
    _, g0, h0 = values
    return SolverPoint(
        x=np.asarray(x0, dtype=float).copy(),
        r=g0.copy(),
        s=interior_initialization(h0, model.cone),
        y=np.zeros(model.m),
        z=np.zeros(model.p),
        t=cone_target(model.cone).copy(),
    )


def _check_options(opts: SolverOptions) -> None:
    """ValueError naming the first field of opts that is out of range; a
    NaN fails every comparison."""
    for name, ok in (
        ("tol", 0.0 < opts.tol < np.inf),
        ("rho_init", 0.0 < opts.rho_init < np.inf),
        ("kappa_min", 0.0 <= opts.kappa_min < np.inf),
        ("max_outer", opts.max_outer >= 0),
        ("max_total", opts.max_total >= 0),
    ):
        if not ok:
            raise ValueError(f"SolverOptions.{name} is out of range: {getattr(opts, name)!r}")


KAPPA_INIT = 1.0
MAX_INNER = 150  # Newton iterations per subproblem


def solve(
    model: ProblemModel,
    x0: np.ndarray,
    theta: Optional[np.ndarray] = None,
    opts: SolverOptions = SolverOptions(),
) -> Solution:
    """Run the solver from x0; never raises on numerical trouble, reporting
    it through the returned status instead. ValueError unless x0 and theta
    (zeros when None) are finite and of shapes (n,) and (d,), tol and
    rho_init are finite and positive, kappa_min is finite and nonnegative,
    and max_outer and max_total are nonnegative."""
    theta = checked_vector(np.zeros(model.d) if theta is None else theta, model.d, "theta")
    x0 = checked_vector(x0, model.n, "x0")
    _check_options(opts)

    trace: List[TraceRecord] = []
    status = SolveStatus.MAX_ITERATIONS
    total = 0
    outer_count = 0
    point = cache = None
    outer = OuterState(lam=np.zeros(model.m), rho=opts.rho_init, kappa=KAPPA_INIT)
    try:
        # each iterate is evaluated once: its values at x0 here or in the
        # line search that accepts it, its derivatives at the top of the loop
        # (an outer update moves only lam, rho and kappa, so they stand)
        values = evaluate_values(model, x0, theta)
        point = initialize_point(model, x0, values)
        reg = RegularizationState()
        filt = Filter()
        barrier = barrier_value(point.s, model.cone)
        current = (merit(point, outer, values, barrier), violation(model, point, values))
        inner = 0
        while True:
            if cache is None:
                cache = evaluate(model, point.x, theta, point.y, point.z, values)
                # one pass over the rows: the unrelaxed norm, then R over them
                R = unrelaxed_rows(model, point, cache)
                res_norm = unrelaxed_residual_norm(model, point, theta, cache, R)
                if res_norm <= opts.tol:  # inclusive: the norm may sit exactly at tol
                    status = SolveStatus.SOLVED
                    break
                if total >= opts.max_total:
                    break
                R = residual(model, point, outer, R)
            norm_R = np.abs(R).max()
            if subproblem_converged(norm_R, outer.kappa):
                if outer_count >= opts.max_outer:
                    break
                products = cone_product(point.s, point.t, model.cone)
                outer = outer_update(outer, point, model.cone, opts, products)
                outer_count += 1
                filt.reset()
                inner = 0
                # same (x, r, s, y, z, t): the evaluation, the convergence
                # test, the violation, the barrier value and all rows of R
                # but those that read lam, rho and kappa stand
                current = (merit(point, outer, values, barrier), current[1])
                outer_rows(model, point, outer, R, products)
                continue
            if inner >= MAX_INNER:
                break
            step, reg, info, cut, corrected = newton_step(
                model, point, theta, outer, filt, current, reg, cache, R, norm_R
            )
            point, alpha, alpha_t, current, values, backtracks, barrier = step
            cache = None
            total += 1
            inner += 1
            if opts.record_trace:
                trace.append(
                    TraceRecord(
                        iteration=total, outer=outer_count, residual_norm=norm_R,
                        merit=current[0], violation=current[1], alpha=alpha,
                        alpha_t=alpha_t, kappa=outer.kappa, rho=outer.rho,
                        backtracks=backtracks, eps_p=info.eps_p, eps_d=info.eps_d,
                        refine_passes=info.refine_passes, consistency_error=info.consistency_error,
                        inertia_trials=info.inertia_trials, raised=info.raised,
                        cut=cut, corrected=corrected,
                    )
                )
    except LineSearchFailure:
        status = SolveStatus.LINE_SEARCH_FAILURE
    except InertiaCorrectionFailure:
        status = SolveStatus.INERTIA_CORRECTION_FAILURE
    except (NumericalFailure, EvaluationFailure, NotInterior):
        status = SolveStatus.NUMERICAL_FAILURE

    # cache holds the evaluation of point and res_norm its residual norm
    # unless evaluating its derivatives failed; values holds its (c, g, h)
    # all the same, since only an accepted step moves point and values
    if point is None:  # initialization itself failed
        point = SolverPoint(
            x=x0.copy(), r=np.zeros(model.m), s=np.ones(model.p),
            y=np.zeros(model.m), z=np.zeros(model.p), t=np.ones(model.p),
        )
        c, primal_violation, res_norm = np.nan, np.nan, np.nan
    else:
        c, g, h = values if cache is None else (cache.c, cache.g, cache.h)
        primal_violation = max(float(np.abs(g).max()) if g.size else 0.0, cone_infeasibility(model, h))
        if cache is None:
            res_norm = np.nan
    solution = Solution(
        point=point,
        status=status,
        objective=float(c),
        violation=primal_violation,
        residual_norm=float(res_norm),
        total_iterations=total,
        outer_iterations=outer_count,
        kappa=outer.kappa,
        rho=outer.rho,
        trace=trace if opts.record_trace else None,
    )
    if status is SolveStatus.SOLVED:
        solution._final = (model, _evaluation_key(theta, point), cache)
    return solution
