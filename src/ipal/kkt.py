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
matrix is a ``BlockTridiagonal`` in the model's stage order (one group for a
general model), held in the LAPACK band storage that its LU reads: the
entries of the stage matrices, or of a general model's dense derivative
matrices, are scattered to positions computed once per model
(``KKTScatter``), so a transcribed problem forms no (n+m+p)-square matrix.
The matrix also carries its Schur
complement onto the x rows, C = P + A'N^{-1}A, in band storage
(``SchurPlan``) when every cone block of its dual block N is positive
definite, a second-order block that is singular to round-off at the cone
boundary raised first (``CONE_RAISE``): its Cholesky factorization
certifies the inertia (``linsolve.factorize``). Cone slack and complement
blocks are recovered in closed form from stacked cone blocks
(``ConeBlocks``). The reduced cone block W^{-1}P_t is symmetrized, which
changes it only on second-order segments of dimension 3 or more (on
dimension 2 the arrow matrices commute, so it is symmetric already).
Directions are refined against the full system, applied blockwise, by the
GMRES loop of ``solve_refined`` with the reduced solve as its
preconditioner (``reduced_solve``); nothing refines against K, and no
solve forms the dense Jacobian (``full_jacobian``, the only p x p cone
matrix), which serves as a reference in tests. ``differentiate`` solves
its parameter columns through the same reduction and refinement, with the
multiplier estimate tracking the equality dual (``assemble_symmetric``'s
``tracks_multiplier``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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
    """Index bookkeeping for the stacked iterate/residual: the slices of
    x, r, s, y, z and t, computed at construction."""

    n: int
    m: int
    p: int
    total: int = field(init=False, repr=False, compare=False)
    x: slice = field(init=False, repr=False, compare=False)
    r: slice = field(init=False, repr=False, compare=False)
    s: slice = field(init=False, repr=False, compare=False)
    y: slice = field(init=False, repr=False, compare=False)
    z: slice = field(init=False, repr=False, compare=False)
    t: slice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = 0
        for name, size in zip("xrsyzt", (self.n, self.m, self.p, self.m, self.p, self.p)):
            object.__setattr__(self, name, slice(lo, lo + size))
            lo += size
        object.__setattr__(self, "total", lo)

    def pack(self, point: SolverPoint) -> np.ndarray:
        return np.concatenate([point.x, point.r, point.s, point.y, point.z, point.t])

    def unpack(self, w: np.ndarray) -> SolverPoint:
        """The blocks of w, as views."""
        return SolverPoint(w[self.x], w[self.r], w[self.s], w[self.y], w[self.z], w[self.t])


# one Layout per (n, m, p), for the routines called every iteration
layout_of = lru_cache(maxsize=None)(Layout)


def unrelaxed_rows(model: ProblemModel, point: SolverPoint, cache: EvalCache) -> np.ndarray:
    """The rows of the residual with the relaxation removed, stacked as the
    residual is: c_x + g_x'y + h_x'z, r, -z - t, g - r, h - s and s o t.
    Their max-norm is ``solver.unrelaxed_residual_norm``; ``residual``
    turns them into R in place."""
    lay = layout_of(model.n, model.m, model.p)
    U = np.empty(lay.total)
    U[lay.x] = cache.c_x + cache.g_x.T @ point.y + cache.h_x.T @ point.z
    U[lay.r] = point.r
    U[lay.s] = -point.z - point.t
    U[lay.y] = cache.g - point.r
    U[lay.z] = cache.h - point.s
    U[lay.t] = cone_product(point.s, point.t, model.cone)
    return U


def residual(
    model: ProblemModel,
    point: SolverPoint,
    theta: np.ndarray,
    outer: OuterState,
    cache: Optional[EvalCache] = None,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stacked stationarity residual at the given iterate. ``rows`` are its
    ``unrelaxed_rows`` when already formed; R is written over them."""
    if rows is None:
        if cache is None:
            cache = evaluate(model, point.x, theta, point.y, point.z)
        rows = unrelaxed_rows(model, point, cache)
    return outer_rows(model, point, outer, rows, rows[layout_of(model.n, model.m, model.p).t])


def outer_rows(model: ProblemModel, point: SolverPoint, outer: OuterState, R: np.ndarray,
               products: Optional[np.ndarray] = None) -> np.ndarray:
    """Write, in place, the rows of the residual R that read the outer state
    (lam, rho and kappa): the relaxation rows r and the complementarity
    rows t, from s o t (``products``, formed when None). Returns R."""
    lay = layout_of(model.n, model.m, model.p)
    if products is None:
        products = cone_product(point.s, point.t, model.cone)
    R[lay.r] = outer.lam + outer.rho * point.r - point.y
    R[lay.t] = products - outer.kappa * cone_target(model.cone)
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
    lay = layout_of(model.n, model.m, model.p)
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
    stored entries of K (both triangles, without repeats: those of L_xx, g_x
    and h_x for their patterns, every entry for a dense matrix, the x and y
    diagonals and the cone blocks), whose half-bandwidth in the group order
    sets ``layout``, the storage positions of the stored entries of L_xx,
    g_x and h_x (``derivatives``, see ``_place``), of the x and y diagonals
    and of the cone blocks, and where the Schur complement of K goes
    (``schur``, a ``SchurPlan``). Built once per model, at its first
    assembly, and kept on the model. InvalidDimension when a derivative
    matrix has an entry outside the band of the stage order."""

    def __init__(self, model: ProblemModel, patterns: Tuple[Optional[Pattern], ...]):
        n, m, p = model.n, model.m, model.p
        N = n + m + p
        self.patterns = patterns
        L, G, H = (
            Pattern.full(shape) if P is None else P
            for P, shape in zip(patterns, ((n, n), (m, n), (p, n)))
        )
        diag, soc = model.cone.index_groups
        block = [np.broadcast_arrays(rows[:, :, None], rows[:, None, :]) for rows in soc]
        a_rows = np.concatenate([n + G.rows, n + m + H.rows])
        a_cols = np.concatenate([G.cols, H.cols])
        rows = np.concatenate([L.rows, np.arange(n + m), a_rows, a_cols, n + m + diag]
                              + [n + m + r.ravel() for r, _ in block])
        cols = np.concatenate([L.cols, np.arange(n + m), a_cols, a_rows, n + m + diag]
                              + [n + m + c.ravel() for _, c in block])
        key = np.unique(rows * N + cols)
        rows, cols = key // N, key % N
        self.layout = BandLayout(model.stage_blocks or (np.arange(N),), rows, cols)
        x, y, z = slice(0, n), slice(n, n + m), slice(n + m, N)
        self.derivatives = (
            self._place(L, x, x, mirror=False),
            self._place(G, y, x, mirror=True),
            self._place(H, z, x, mirror=True),
        )
        at = self.layout.positions
        self.x_diag = at(np.arange(n), np.arange(n))
        self.y_diag = at(np.arange(n, n + m), np.arange(n, n + m))
        self.cone_diag = at(n + m + diag, n + m + diag)
        self.cone_blocks = [at(n + m + r, n + m + c) for r, c in block]
        self.schur = SchurPlan(model, self.layout, rows, cols)

    def _place(self, pattern: Pattern, rows: slice, cols: slice, mirror: bool) -> list:
        """The storage positions of the entries of a derivative matrix in
        K[rows, cols] and, with ``mirror``, of its transpose in K[cols,
        rows]."""
        r, c = rows.start + pattern.rows, cols.start + pattern.cols
        try:
            return [self.layout.positions(r, c), self.layout.positions(c, r)][: 1 + mirror]
        except ValueError:
            raise InvalidDimension(
                "a derivative matrix has entries outside the band of stage_blocks; "
                "return StageMatrix derivatives on the stage blocks"
            ) from None


def compact_index(values: np.ndarray) -> np.ndarray:
    """Nonnegative indices in the smallest unsigned integer type that holds
    them, for index plans kept per model."""
    return values.astype(np.min_scalar_type(values.max(initial=0)))


class SchurPlan:
    """Where the Schur complement C = P + A'N^{-1}A of a banded reduced
    matrix K = [[P, A'], [A, -N]] onto its x rows goes in LAPACK lower band
    storage, x in the stage order: P = L_xx + eps_p I, A = (g_x; h_x), and N
    is (1/(rho + eps_p) + eps_d) I on the equality duals and M + eps_d I on
    the cone rows, block diagonal on the cone segments. Each term A[i, a]
    N^{-1}[i, j] A[j, c], for rows i and j of one block of N and a not
    before c, is a triple (``left``, ``right``, ``inner``): the storage
    positions of A[i, a] and A[j, c] in K, and the place of N^{-1}[i, j]
    in the blocks of N^{-1} laid out flat (see ``complement``); the terms,
    then the entries of P at ``p_src``, are summed into C[a, c] at
    ``target``. Built once per model from the stored entries (rows, cols) of
    K and its ``layout``."""

    def __init__(self, model: ProblemModel, layout: BandLayout, rows: np.ndarray, cols: np.ndarray):
        n, m, p = model.n, model.m, model.p
        diag, soc = model.cone.index_groups
        self.n, self.m = n, m
        rank = np.empty(n, dtype=np.intp)  # place of each x in the stage order
        rank[layout.order[layout.order < n]] = np.arange(n)

        # the blocks of N: for each dual row, the first entry of its block
        # in the flat inverse, which also names the block, its place in the
        # block and the block's size
        first = np.arange(m + p)
        first[m + diag] = m + np.arange(diag.size)
        place, size = np.zeros(m + p, dtype=np.intp), np.ones(m + p, dtype=np.intp)
        start = m + diag.size
        for rows_k in soc:
            segments, k = rows_k.shape
            d = m + rows_k
            first[d] = start + k * k * np.arange(segments)[:, None]
            place[d] = np.arange(k)
            size[d] = k
            start += segments * k * k

        # pairs of entries of A in rows of one block of N
        in_a = (rows >= n) & (cols < n)
        d, a = rows[in_a] - n, cols[in_a]
        at = layout.positions(rows[in_a], a)
        sort = np.argsort(first[d], kind="stable")
        d, a, at = d[sort], a[sort], at[sort]
        b = first[d]
        lo = np.searchsorted(b, b, "left")
        count = np.searchsorted(b, b, "right") - lo
        e1 = np.repeat(np.arange(b.size), count)
        e2 = lo[e1] + np.arange(e1.size) - np.repeat(np.cumsum(count) - count, count)
        lower = rank[a[e1]] >= rank[a[e2]]
        e1, e2 = e1[lower], e2[lower]
        in_p = (rows < n) & (cols < n)
        pr, pc = rows[in_p], cols[in_p]
        lower = rank[pr] >= rank[pc]
        pr, pc = pr[lower], pc[lower]
        ra, rc = np.concatenate([rank[a[e1]], rank[pr]]), np.concatenate([rank[a[e2]], rank[pc]])
        self.kd = int((ra - rc).max(initial=0))
        slot = rc * (self.kd + 1) + ra - rc  # C[a, c] in the (n, kd + 1) row-major array
        self.left, self.right = compact_index(at[e1]), compact_index(at[e2])
        self.inner = compact_index(first[d[e1]] + place[d[e1]] * size[d[e1]] + place[d[e2]])
        self.target = compact_index(slot)
        self.p_src = compact_index(layout.positions(pr, pc))

    def complement(self, data: np.ndarray, dual: float, cone: ConeBlocks) -> Optional[np.ndarray]:
        """C of the K with storage ``data``, N = ``dual`` I on the equality
        duals and ``cone`` on the cone rows, or None unless every block of
        ``cone`` is positive definite (see ``_raised_inverse``). The flat
        inverse of N holds 1 / ``dual`` per equality dual, the inverse of
        ``cone.diag``, then each inverse block of ``cone.blocks``,
        row-major."""
        if not (cone.diag > 0.0).all():
            return None
        try:
            blocks = [_raised_inverse(B).reshape(-1) for B in cone.blocks]
        except np.linalg.LinAlgError:
            return None
        inverse = np.concatenate([np.full(self.m, 1.0 / dual), 1.0 / cone.diag] + blocks)
        terms = data.take(self.left) * data.take(self.right) * inverse.take(self.inner)
        # bincount sums in input order, so each C[a, c] adds its entry of P
        # (P stores its diagonal, so there is always one weight) last
        C = np.bincount(self.target, np.concatenate([terms, data.take(self.p_src)]),
                        minlength=self.n * (self.kd + 1))
        return C.reshape(self.n, self.kd + 1).T


# A second-order block of N at the cone boundary is rank one to round-off
# (eigenvalues 0 or +-6e-8 next to 6e8 were measured), so it may fail its
# Cholesky factorization or its inverse; its stack is then raised by this
# times each block's largest entry. N^{-1}, and with it C, only shrinks as
# the raise grows, so a C that factors with the raise certifies the inertia
# of K, or K is singular, which its LU reports as an exactly zero pivot.
CONE_RAISE = 1e-12


def _raised_inverse(B: np.ndarray) -> np.ndarray:
    """Inverse of the stack B of positive definite blocks, raised by
    ``CONE_RAISE`` when a block fails its Cholesky factorization or its
    inverse; LinAlgError when the raised stack still does."""
    try:
        np.linalg.cholesky(B)
        return np.linalg.inv(B)
    except np.linalg.LinAlgError:
        B = B + CONE_RAISE * np.abs(B).max(axis=(1, 2))[:, None, None] * np.eye(B.shape[1])
        np.linalg.cholesky(B)
        return np.linalg.inv(B)


def _scatter(model: ProblemModel, patterns: Tuple[Optional[Pattern], ...]) -> KKTScatter:
    scatter = model.kkt_scatter
    if scatter is None or scatter.patterns != patterns:
        scatter = model.kkt_scatter = KKTScatter(model, patterns)
    return scatter


@dataclass
class ReducedSystem:
    """Symmetric reduction of the Newton system to (dx, dy, dz).

    K is a ``BlockTridiagonal`` in the stage order of the model (one group
    for a general model), stored in LAPACK band storage; each entry is
    written to both triangles, so it is bitwise symmetric. The cone block
    uses the symmetrized W^{-1} Ptb. On second-order segments of dimension
    3 or more that operator is nonsymmetric away from the central path,
    which is why directions are refined against the full system
    (``reduced_solve``); on dimension 2 the arrow matrices commute, so it
    is symmetric to round-off and refinement corrects round-off only. The
    full system is applied blockwise (``jacobian_apply``), never formed. Ps, Ptb and W stay stacked blocks
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
    tracks_multiplier: bool = False  # dlam = dy; see assemble_symmetric

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
    *,
    tracks_multiplier: bool = False,
) -> ReducedSystem:
    """Assemble the reduced saddle system (right-hand sides: ``reduce_rows``).

    With ``tracks_multiplier`` the multiplier estimate moves with the
    equality dual (dlam = dy), as when differentiating a converged
    solution: the relaxation rows lose their -dy coupling, so the penalty
    term leaves the equality-dual diagonal of K and dr = -L_r / (rho +
    eps_p); the reduced right-hand side is the same. That K carries no
    Schur complement: nothing reads its inertia."""
    if cache is None:
        cache = evaluate(model, point.x, theta, point.y, point.z)
    lay = layout_of(model.n, model.m, model.p)
    ep, ed = reg.eps_p, reg.eps_d
    dual_scale = 1.0 / (outer.rho + ep)

    Ps, Pt = product_jacobian_blocks(point.s, point.t, model.cone)
    Ptb = Pt.shift(-ed)
    W = Ps + ep * Ptb
    try:
        M = W.solve(Ptb).symmetric_part()
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular cone block: {exc}") from exc

    stored = [entries(A) for A in (cache.L_xx, cache.g_x, cache.h_x)]
    at = _scatter(model, tuple(pattern for pattern, _ in stored))
    K = BlockTridiagonal(at.layout)
    data = K.data
    for places, (_, values) in zip(at.derivatives, stored):
        for where in places:
            data[where] = values
    data[at.x_diag] += ep
    # exact elimination of the relaxation block: the dual shift joins the
    # penalty term on the equality-dual diagonal, unless dlam = dy
    data[at.y_diag] = -ed if tracks_multiplier else -(dual_scale + ed)
    N_cone = M.shift(ed)
    data[at.cone_diag] = -N_cone.diag
    for where, B in zip(at.cone_blocks, N_cone.blocks):
        data[where] = -B
    if not tracks_multiplier:
        K.schur = at.schur.complement(data, dual_scale + ed, N_cone)

    return ReducedSystem(
        layout=lay, K=K, eps_p=ep, eps_d=ed, dual_scale=dual_scale,
        Ps=Ps, Ptb=Ptb, W=W, tracks_multiplier=tracks_multiplier,
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
    """Refinement limits of a direction; the defaults are the solver's."""

    max_refine: int = 10
    consistency_tol: float = 1e-8


SOLVER_DIRECTIONS = DirectionOptions()


@dataclass
class DirectionInfo:
    eps_p: float
    eps_d: float
    refine_passes: int  # refinement steps after the first reduced solve
    used_full_solve: bool  # always False: no direction solves the dense Jacobian
    consistency_error: float
    inertia_trials: int = 0  # factorizations tried for the direction
    certified: bool = False  # inertia certified by the Schur complement's Cholesky


REFINE_TOL = 1e-12  # relative residual at which refinement stops


def reduced_solve(
    rsys: ReducedSystem,
    fact: Factorization,
    cache: EvalCache,
    rho: float,
    R: np.ndarray,
    opts: DirectionOptions,
    exact: Optional[ReducedSystem] = None,
) -> Tuple[Optional[np.ndarray], float, Optional[np.ndarray], int]:
    """Solve J dw = -R by ``solve_refined`` against the full system of
    ``exact`` (rsys when None), applied blockwise (``jacobian_apply``), with
    the reduced solve of rsys through ``fact``, the factors of rsys.K, as its
    preconditioner; R may hold right-hand sides as columns. Returns the best
    dw, ||J dw + R||_inf, J dw + R and the steps taken; dw is None (error
    inf) when the solve fails."""
    exact = rsys if exact is None else exact

    def reduced_inverse(b):
        rows = -b  # reduce_rows and recover take the residual rows of J dw = -rows
        return rsys.recover(fact.solve(rsys.reduce_rows(rows)), rows)

    try:
        return solve_refined(
            lambda dw: jacobian_apply(exact, cache, rho, dw), reduced_inverse, -R,
            opts.max_refine, REFINE_TOL,
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
    on second-order segments of dimension 3 or more away from the central
    path; refinement against the full system (``reduced_solve``) corrects
    it, and round-off elsewhere. A direction that misses
    the consistency bound, or a fixed-shift build or factorization that
    fails, raises NumericalFailure.
    """
    if cache is None:
        cache = evaluate(model, point.x, theta, point.y, point.z)
    if R is None:
        R = residual(model, point, theta, outer, cache)
    lay = layout_of(model.n, model.m, model.p)
    holder: dict = {"trials": 0}

    def build(ep, ed):
        holder["trials"] += 1
        holder["rsys"] = assemble_symmetric(
            model, point, theta, outer, RegularizationState(ep, ed), cache
        )
        return holder["rsys"].K

    if correct:
        fact, reg = correct_inertia(build, (lay.n, lay.m + lay.p, 0), reg)
    else:
        fact = factorize(build(reg.eps_p, reg.eps_d))
    rsys: ReducedSystem = holder["rsys"]
    assert (rsys.eps_p, rsys.eps_d) == (reg.eps_p, reg.eps_d)

    norm_R = np.abs(R).max() if R.size else 0.0
    consistency = opts.consistency_tol * (1.0 + norm_R)
    best, best_err, _, passes = reduced_solve(rsys, fact, cache, outer.rho, R, opts)
    if best_err > consistency:
        raise NumericalFailure(
            f"direction consistency {best_err:.3e} exceeds bound {consistency:.3e}"
        )
    info = DirectionInfo(
        eps_p=reg.eps_p, eps_d=reg.eps_d, refine_passes=passes,
        used_full_solve=False, consistency_error=best_err,
        inertia_trials=holder["trials"], certified=fact.certified,
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
    return _newton_direction(model, point, theta, outer, reg, SOLVER_DIRECTIONS, cache, R, True)
