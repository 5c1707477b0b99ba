"""Stationarity residual, Jacobian, symmetric reduction, and directions.

The iterate is w = (x, r, s, y, z, t): primal variables, equality
relaxation, cone slacks, equality duals, cone duals, and cone complements.
The residual stacks, in that order,

    c_x + g_x'y + h_x'z
    lam + rho*r - y
    -z - t
    g - r
    h - s
    s o t - kappa*e

where lam/rho are the multiplier estimate and penalty of the outer loop and
kappa is the central-path parameter. Search directions solve the Newton
system J dw = -R through a symmetric 3x3-block reduction in (dx, dy, dz)
whose factorization also drives inertia-based regularization. The reduced
matrix is a ``BlockTridiagonal`` in the model's stage order (one block for a
general model): the entries of the stage matrices are scattered to
positions computed once per model (``KKTScatter``), so a transcribed
problem forms no (n+m+p)-square matrix outside the dense fallback, and the
dense derivative matrices of a general model are written as blocks. Cone
slack and complement blocks are recovered in closed form from stacked cone
blocks (``ConeBlocks``). On second-order segments the reduced cone block is
symmetrized, so directions are refined against the full system, applied
blockwise, in one loop with the reduced solve as approximate inverse
(``reduced_solve``); nothing refines against K. The dense Jacobian, the
only p x p cone matrix, is built only for a fallback solve when refinement
cannot reach the consistency bound, and in tests. ``differentiate`` solves
its parameter columns through the same reduction and refinement, with the
multiplier estimate tracking the equality dual (``track_multiplier``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .cone import (
    ConeBlocks,
    InvalidDimension,
    cone_product,
    cone_product_jacobians,
    cone_target,
    product_jacobian_blocks,
)
from .linsolve import (
    BandLayout,
    BlockTridiagonal,
    Factorization,
    InertiaOptions,
    NumericalFailure,
    RegularizationState,
    correct_inertia,
    factorize,
    solve_refined,
)
from .model import EvalCache, Pattern, ProblemModel, entries, evaluate


@dataclass
class SolverPoint:
    """One full iterate; also used for direction increments."""

    x: np.ndarray
    r: np.ndarray
    s: np.ndarray
    y: np.ndarray
    z: np.ndarray
    t: np.ndarray

    def copy(self) -> "SolverPoint":
        return SolverPoint(
            self.x.copy(), self.r.copy(), self.s.copy(),
            self.y.copy(), self.z.copy(), self.t.copy(),
        )


@dataclass
class OuterState:
    """Multiplier estimate, penalty, and central-path parameter."""

    lam: np.ndarray
    rho: float
    kappa: float


@dataclass(frozen=True)
class Layout:
    """Index bookkeeping for the stacked iterate/residual."""

    n: int
    m: int
    p: int

    @property
    def total(self) -> int:
        return self.n + 2 * self.m + 3 * self.p

    @property
    def x(self) -> slice:
        return slice(0, self.n)

    @property
    def r(self) -> slice:
        return slice(self.n, self.n + self.m)

    @property
    def s(self) -> slice:
        return slice(self.n + self.m, self.n + self.m + self.p)

    @property
    def y(self) -> slice:
        return slice(self.n + self.m + self.p, self.n + 2 * self.m + self.p)

    @property
    def z(self) -> slice:
        return slice(self.n + 2 * self.m + self.p, self.n + 2 * self.m + 2 * self.p)

    @property
    def t(self) -> slice:
        return slice(self.n + 2 * self.m + 2 * self.p, self.total)

    def pack(self, point: SolverPoint) -> np.ndarray:
        return np.concatenate([point.x, point.r, point.s, point.y, point.z, point.t])

    def unpack(self, w: np.ndarray) -> SolverPoint:
        return SolverPoint(
            w[self.x].copy(), w[self.r].copy(), w[self.s].copy(),
            w[self.y].copy(), w[self.z].copy(), w[self.t].copy(),
        )


def residual(
    model: ProblemModel,
    point: SolverPoint,
    theta: np.ndarray,
    outer: OuterState,
    cache: Optional[EvalCache] = None,
) -> np.ndarray:
    """Stacked stationarity residual at the given iterate."""
    if cache is None:
        cache = evaluate(model, point.x, theta, point.y, point.z)
    lay = Layout(model.n, model.m, model.p)
    R = np.empty(lay.total)
    R[lay.x] = cache.c_x + cache.g_x.T @ point.y + cache.h_x.T @ point.z
    R[lay.r] = outer.lam + outer.rho * point.r - point.y
    R[lay.s] = -point.z - point.t
    R[lay.y] = cache.g - point.r
    R[lay.z] = cache.h - point.s
    R[lay.t] = cone_product(point.s, point.t, model.cone) - outer.kappa * cone_target(model.cone)
    return R


def full_jacobian(
    model: ProblemModel,
    point: SolverPoint,
    theta: np.ndarray,
    outer: OuterState,
    reg: RegularizationState = RegularizationState(),
    cache: Optional[EvalCache] = None,
) -> np.ndarray:
    """Jacobian of the residual with respect to w, with the primal shift
    eps_p on the (x, r, s) diagonals and the dual shift eps_d on (y, z, t)."""
    if cache is None:
        cache = evaluate(model, point.x, theta, point.y, point.z)
    lay = Layout(model.n, model.m, model.p)
    n, m, p = lay.n, lay.m, lay.p
    ep, ed = reg.eps_p, reg.eps_d
    G, H = np.asarray(cache.g_x), np.asarray(cache.h_x)
    J = np.zeros((lay.total, lay.total))
    J[lay.x, lay.x] = np.asarray(cache.L_xx) + ep * np.eye(n)
    J[lay.x, lay.y] = G.T
    J[lay.x, lay.z] = H.T
    J[lay.r, lay.r] = (outer.rho + ep) * np.eye(m)
    J[lay.r, lay.y] = -np.eye(m)
    J[lay.s, lay.s] = ep * np.eye(p)
    J[lay.s, lay.z] = -np.eye(p)
    J[lay.s, lay.t] = -np.eye(p)
    J[lay.y, lay.x] = G
    J[lay.y, lay.r] = -np.eye(m)
    J[lay.y, lay.y] = -ed * np.eye(m)
    J[lay.z, lay.x] = H
    J[lay.z, lay.s] = -np.eye(p)
    J[lay.z, lay.z] = -ed * np.eye(p)
    Ps, Pt = cone_product_jacobians(point.s, point.t, model.cone)
    J[lay.t, lay.s] = Ps
    J[lay.t, lay.t] = Pt - ed * np.eye(p)
    return J


class KKTScatter:
    """Where the entries of the reduced matrix K go in its band storage, for
    one model: the row groups of K (``ProblemModel.stage_blocks``, or one
    group of all n + m + p rows in their order for a general model), the
    places of L_xx, g_x and h_x (for their patterns, None for a dense
    matrix; see ``_place``) and the storage positions of the x and y
    diagonals and of the cone blocks. Built once per model, at its first
    assembly, and kept on the model. InvalidDimension when a derivative
    matrix has an entry outside the band of the stage order."""

    def __init__(self, model: ProblemModel, patterns: Tuple[Optional[Pattern], ...]):
        n, m, p = model.n, model.m, model.p
        self.patterns = patterns
        self.layout = BandLayout(model.stage_blocks or (np.arange(n + m + p),))
        x, y, z = slice(0, n), slice(n, n + m), slice(n + m, n + m + p)
        L, G, H = patterns
        self.L = self._place(L, x, x, mirror=False)
        self.G = self._place(G, y, x, mirror=True)
        self.H = self._place(H, z, x, mirror=True)
        at = self.layout.positions
        self.x_diag = at(np.arange(n), np.arange(n))
        self.y_diag = at(np.arange(n, n + m), np.arange(n, n + m))
        diag, soc = model.cone.index_groups
        self.cone_diag = at(n + m + diag, n + m + diag)
        self.cone_blocks = [at(n + m + rows[:, :, None], n + m + rows[:, None, :]) for rows in soc]

    def _place(self, pattern: Optional[Pattern], rows: slice, cols: slice, mirror: bool) -> list:
        """Where a derivative matrix goes in K[rows, cols] and, with
        ``mirror``, its transpose in K[cols, rows]: for a dense matrix when K
        is one group in its own order (a general model) those blocks of K,
        so no index arrays of its entries are built; otherwise the storage
        positions of its entries."""
        if pattern is None and self.layout.identity:
            return [(rows, cols), (cols, rows)][: 1 + mirror]
        if pattern is None:
            pattern = Pattern.full((rows.stop - rows.start, cols.stop - cols.start))
        r, c = rows.start + pattern.rows, cols.start + pattern.cols
        try:
            return [self.layout.positions(r, c), self.layout.positions(c, r)][: 1 + mirror]
        except ValueError:
            raise InvalidDimension(
                "a derivative matrix has entries outside the band of stage_blocks; "
                "return StageMatrix derivatives on the stage blocks"
            ) from None

    @staticmethod
    def write(K: BlockTridiagonal, places: list, A) -> None:
        """Write the derivative matrix A to K at the places from ``_place``;
        a second place takes its transpose."""
        for k, where in enumerate(places):
            if isinstance(where, tuple):
                K.D[0][where] = A.T if k else A
            else:
                K.data[where] = entries(A)[1]


def _scatter(model: ProblemModel, patterns: Tuple[Optional[Pattern], ...]) -> KKTScatter:
    scatter = model.kkt_scatter
    if scatter is None or scatter.patterns != patterns:
        scatter = model.kkt_scatter = KKTScatter(model, patterns)
    return scatter


@dataclass
class ReducedSystem:
    """Symmetric reduction of the Newton system to (dx, dy, dz).

    K is a ``BlockTridiagonal`` in the stage order of the model (one block
    for a general model); only its diagonal and sub-diagonal blocks are
    stored, and each entry is written to both triangles, so it is bitwise
    symmetric. The cone block uses the symmetrized W^{-1} Ptb; on
    second-order segments that operator is nonsymmetric away from the
    central path, which is why directions are refined against the full
    system (``reduced_solve``); that system is applied blockwise
    (``jacobian_apply``), never formed. Ps, Ptb and W stay stacked blocks
    (``ConeBlocks``), never p x p matrices. Residual rows and solutions
    may be vectors or matrices of columns.
    """

    layout: Layout
    K: BlockTridiagonal
    eps_p: float
    eps_d: float
    dual_scale: float  # 1 / (rho + eps_p)
    Ps: ConeBlocks  # d(s o t)/ds
    Ptb: ConeBlocks  # P_t - eps_d I
    W: ConeBlocks  # Ps + eps_p Ptb
    dual_diagonal: np.ndarray  # storage positions of K's equality-dual diagonal
    tracks_multiplier: bool = False  # dlam = dy; see track_multiplier

    def track_multiplier(self) -> None:
        """Switch, in place, to the system in which the multiplier estimate
        moves with the equality dual (dlam = dy), as when differentiating a
        converged solution: the relaxation rows lose their -dy coupling, so
        the penalty term leaves the equality-dual diagonal of K and
        dr = -L_r / (rho + eps_p). The reduced right-hand side is unchanged."""
        self.K.data[self.dual_diagonal] = -self.eps_d
        self.tracks_multiplier = True

    def reduce_rows(self, rows: np.ndarray) -> np.ndarray:
        """Right-hand side of the reduced system for residual rows L,
        so that K u = reduce_rows(L) solves the eliminated J dw = -L."""
        lay = self.layout
        Ly = rows[lay.y] + self.dual_scale * rows[lay.r]
        Lz = rows[lay.z] + self.W.solve(self.Ptb.matvec(rows[lay.s]) + rows[lay.t])
        return -np.concatenate([rows[lay.x], Ly, Lz])

    def recover(self, sol: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Expand a reduced solution to the full direction for rows L.

        The relaxation, slack, and complement blocks are eliminated exactly,
        so rows r, s, t (and y, given the reduced solve) of J dw = -L hold to
        round-off regardless of the cone symmetrization."""
        lay = self.layout
        n, m = lay.n, lay.m
        dx, dy, dz = sol[:n], sol[n : n + m], sol[n + m :]
        dw = np.empty((lay.total,) + sol.shape[1:])
        dw[lay.x] = dx
        dw[lay.y] = dy
        dw[lay.z] = dz
        coupled = -rows[lay.r] if self.tracks_multiplier else dy - rows[lay.r]
        dw[lay.r] = coupled * self.dual_scale
        ds = self.W.solve(self.Ptb.matvec(dz - rows[lay.s]) - rows[lay.t])
        dw[lay.s] = ds
        dw[lay.t] = self.eps_p * ds - dz + rows[lay.s]
        return dw


def assemble_symmetric(
    model: ProblemModel,
    point: SolverPoint,
    theta: np.ndarray,
    outer: OuterState,
    reg: RegularizationState = RegularizationState(),
    cache: Optional[EvalCache] = None,
) -> ReducedSystem:
    """Assemble the reduced saddle system (right-hand sides: ``reduce_rows``)."""
    if cache is None:
        cache = evaluate(model, point.x, theta, point.y, point.z)
    lay = Layout(model.n, model.m, model.p)
    ep, ed = reg.eps_p, reg.eps_d
    dual_scale = 1.0 / (outer.rho + ep)

    Ps, Pt = product_jacobian_blocks(point.s, point.t, model.cone)
    Ptb = Pt.shift(-ed)
    W = Ps + ep * Ptb
    try:
        M = W.solve(Ptb).symmetric_part()
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular cone block: {exc}") from exc

    at = _scatter(model, tuple(entries(A)[0] for A in (cache.L_xx, cache.g_x, cache.h_x)))
    K = BlockTridiagonal(at.layout)
    data = K.data
    at.write(K, at.L, cache.L_xx)
    data[at.x_diag] += ep
    at.write(K, at.G, cache.g_x)
    at.write(K, at.H, cache.h_x)
    # exact elimination of the relaxation block: the dual shift joins the
    # penalty term on the equality-dual diagonal
    data[at.y_diag] = -(dual_scale + ed)
    cone = -1.0 * M.shift(ed)
    data[at.cone_diag] = cone.diag
    for where, B in zip(at.cone_blocks, cone.blocks):
        data[where] = B

    return ReducedSystem(
        layout=lay, K=K, eps_p=ep, eps_d=ed, dual_scale=dual_scale,
        Ps=Ps, Ptb=Ptb, W=W, dual_diagonal=at.y_diag,
    )


def jacobian_apply(rsys: ReducedSystem, cache: EvalCache, rho: float, dw: np.ndarray) -> np.ndarray:
    """full_jacobian at the shifts of rsys times dw, computed block by block
    without forming the matrix; dw may also hold directions as columns. When
    rsys tracks the multiplier, J[r, y] = 0."""
    lay = rsys.layout
    ep, ed = rsys.eps_p, rsys.eps_d
    dx, dr, ds = dw[lay.x], dw[lay.r], dw[lay.s]
    dy, dz, dt = dw[lay.y], dw[lay.z], dw[lay.t]
    out = np.empty(dw.shape)
    out[lay.x] = cache.L_xx @ dx + ep * dx + cache.g_x.T @ dy + cache.h_x.T @ dz
    out[lay.r] = (rho + ep) * dr
    if not rsys.tracks_multiplier:
        out[lay.r] -= dy
    out[lay.s] = ep * ds - dz - dt
    out[lay.y] = cache.g_x @ dx - dr - ed * dy
    out[lay.z] = cache.h_x @ dx - ds - ed * dz
    out[lay.t] = rsys.Ps.matvec(ds) + rsys.Ptb.matvec(dt)
    return out


@dataclass(frozen=True)
class DirectionOptions:
    inertia: InertiaOptions = InertiaOptions()
    max_refine: int = 10
    refine_tol: float = 1e-12
    consistency_tol: float = 1e-8


@dataclass
class DirectionInfo:
    eps_p: float
    eps_d: float
    refine_passes: int  # passes of refinement after the first reduced solve
    used_full_solve: bool
    consistency_error: float
    inertia_trials: int = 0  # factorizations tried for the direction
    blocked: bool = False  # served by the stage-blocked factorization


def reduced_solve(
    rsys: ReducedSystem,
    fact: Factorization,
    cache: EvalCache,
    rho: float,
    R: np.ndarray,
    opts: DirectionOptions,
) -> Tuple[Optional[np.ndarray], float, Optional[np.ndarray], int]:
    """Solve J dw = -R by ``solve_refined`` against the full system
    (``jacobian_apply``), with the reduced solve through ``fact``, the
    factors of rsys.K, as its approximate inverse; R may hold right-hand
    sides as columns. Returns the best dw, ||J dw + R||_inf, J dw + R and
    the passes taken; dw is None (error inf) when the solve fails."""

    def reduced_inverse(b):
        rows = -b  # reduce_rows and recover take the residual rows of J dw = -rows
        return rsys.recover(fact.solve(rsys.reduce_rows(rows)), rows)

    try:
        return solve_refined(
            lambda dw: jacobian_apply(rsys, cache, rho, dw), reduced_inverse, -R,
            opts.max_refine, opts.refine_tol,
        )
    except NumericalFailure:
        return None, np.inf, None, 0


def _newton_direction(
    model: ProblemModel,
    point: SolverPoint,
    theta: np.ndarray,
    outer: OuterState,
    reg: RegularizationState,
    opts: DirectionOptions,
    cache: Optional[EvalCache],
    R: Optional[np.ndarray],
    correct: bool,
) -> Tuple[SolverPoint, RegularizationState, DirectionInfo]:
    """Body of search_direction and reduced_direction, which differ only in
    how the reduced system is factored: by inertia correction from ``reg``
    (correct=True) or at the shifts of ``reg`` as given.

    The symmetrized cone block makes the one-shot reduced direction inexact
    on second-order segments away from the central path; refinement against
    the full system (``reduced_solve``) corrects it, and a dense full solve,
    the only place the dense Jacobian is formed, takes over when refinement
    stalls or the fixed-shift factorization fails.
    """
    if cache is None:
        cache = evaluate(model, point.x, theta, point.y, point.z)
    if R is None:
        R = residual(model, point, theta, outer, cache)
    lay = Layout(model.n, model.m, model.p)
    holder: dict = {"trials": 0}

    def build(ep, ed):
        holder["trials"] += 1
        holder["rsys"] = assemble_symmetric(
            model, point, theta, outer, RegularizationState(ep, ed), cache
        )
        return holder["rsys"].K

    fact: Optional[Factorization] = None
    if correct:
        fact, reg = correct_inertia(build, (lay.n, lay.m + lay.p, 0), reg, opts.inertia)
    else:
        try:
            fact = factorize(build(reg.eps_p, reg.eps_d))
        except NumericalFailure:
            pass  # the dense fallback below takes over
    rsys: ReducedSystem = holder["rsys"]
    assert (rsys.eps_p, rsys.eps_d) == (reg.eps_p, reg.eps_d)

    norm_R = np.abs(R).max() if R.size else 0.0
    consistency = opts.consistency_tol * (1.0 + norm_R)
    best, best_err, passes = None, np.inf, 0
    if fact is not None:
        best, best_err, _, passes = reduced_solve(rsys, fact, cache, outer.rho, R, opts)
    used_full = False
    if best_err > consistency and lay.total:
        try:
            dw_full = np.linalg.solve(full_jacobian(model, point, theta, outer, reg, cache), -R)
            full_err = np.abs(jacobian_apply(rsys, cache, outer.rho, dw_full) + R).max()
            if np.isfinite(full_err) and full_err <= best_err:
                best, best_err = dw_full, full_err
                used_full = True
        except np.linalg.LinAlgError:
            pass
    if best_err > consistency:
        raise NumericalFailure(
            f"direction consistency {best_err:.3e} exceeds bound {consistency:.3e}"
        )
    info = DirectionInfo(
        eps_p=reg.eps_p, eps_d=reg.eps_d, refine_passes=passes,
        used_full_solve=used_full, consistency_error=best_err,
        inertia_trials=holder["trials"], blocked=fact is not None and fact.blocked,
    )
    return lay.unpack(best), reg, info


def reduced_direction(
    model: ProblemModel,
    point: SolverPoint,
    theta: np.ndarray,
    outer: OuterState,
    reg: RegularizationState = RegularizationState(),
    opts: DirectionOptions = DirectionOptions(),
    cache: Optional[EvalCache] = None,
) -> Tuple[SolverPoint, DirectionInfo]:
    """Newton direction through the symmetric reduction at fixed shifts.

    Unlike search_direction this performs no inertia correction: the shifts
    in ``reg`` are used as given (zero by default), so the result is the
    plain Newton direction delivered by the reduction-and-refinement path.
    """
    delta, _, info = _newton_direction(model, point, theta, outer, reg, opts, cache, None, False)
    return delta, info


def search_direction(
    model: ProblemModel,
    point: SolverPoint,
    theta: np.ndarray,
    outer: OuterState,
    reg: RegularizationState = RegularizationState(),
    opts: DirectionOptions = DirectionOptions(),
    cache: Optional[EvalCache] = None,
    R: Optional[np.ndarray] = None,
) -> Tuple[SolverPoint, RegularizationState, DirectionInfo]:
    """Newton direction for the stationarity system at the current iterate.

    Regularization is chosen by inertia correction of the reduced system
    (target inertia (n, m+p, 0)); the returned direction satisfies
    ||J dw + R||_inf <= consistency_tol * (1 + ||R||_inf) for the Jacobian at
    the returned shifts, or NumericalFailure is raised. ``R`` is the residual
    at this iterate when the caller has already computed it.
    """
    return _newton_direction(model, point, theta, outer, reg, opts, cache, R, True)
