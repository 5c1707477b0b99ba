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
kappa is the central-path parameter. No routine here calls the model:
each reads the evaluation of its iterate (``EvalCache``) that its caller
made where it first met the iterate. Search directions (``search_direction``,
the one routine that computes them) solve the Newton system J dw = -R
through a symmetric 3x3-block reduction in (dx, dy, dz), K = [[P, A'], [A,
-N]] with P = L_xx + eps_p I and A = (g_x; h_x), whose factorization also
drives inertia-based regularization. K is never formed:
it is solved through its Schur complement onto the x rows, C = P +
A'N^{-1}A, when its dual block N is positive definite (``ReducedSystem``).
C is summed straight from the stored entries of the stage matrices, or of a
general model's dense derivative matrices, into LAPACK lower band storage,
x in the model's stage order, by index plans computed once per model
(``SchurPlan``); its Cholesky factorization certifies the inertia of K
(``linsolve.factorize``), and a K whose N is not positive definite has no C
and takes the dual shift. Cone slack and complement blocks are recovered in
closed form from stacked cone blocks (``ConeBlocks``). On second-order
segments of dimension 2 the arrow matrices share the eigenvectors (1,
+-1)/sqrt(2), so W, W^{-1}P_t, N and their inverses are eigenvalue pairs
there, summed, scaled, inverted and applied elementwise, and a small
eigenvalue at the cone boundary is kept. Only segments of dimension 3 or
more hold dense blocks: their W^{-1}P_t is symmetrized, which is inexact
away from the central path, and a block of N that is singular to round-off
at the cone boundary is raised (``CONE_RAISE``). Directions are refined
against the full system, applied blockwise, by the GMRES loop of
``solve_refined`` with the reduced solve as its preconditioner
(``reduced_solve``); no solve forms an (n+m+p)-square matrix or the dense
Jacobian (``full_jacobian``, the only p x p cone matrix), which serves as a
reference in tests. A direction takes at most
``MAX_REFINE`` refinement steps and must meet ||J dw + R||_inf <=
``CONSISTENCY_TOL`` (1 + ||R||_inf). ``differentiate`` solves its
parameter columns through the same reduction and refinement, with the
multiplier estimate tracking the equality dual (``assemble_symmetric``'s
``tracks_multiplier``). A Newton direction keeps its reduced system and
factors (``DirectionInfo.system``), so that the solver can correct a step
the cone boundary cuts by Mehrotra's second-order term (``corrector``):
one more reduced solve through them, without refinement, of J dc = -(0, 0,
0, 0, 0, ds o dt), taken only when the corrected direction still meets
the consistency bound.
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
    eigen_blocks,
    product_jacobian_blocks,
)
from .linsolve import (
    DUAL_SHIFT,
    Factorization,
    NumericalFailure,
    RegularizationState,
    correct_inertia,
    solve_refined,
)
from .model import EvalCache, Pattern, ProblemModel, entries


@dataclass
class SolverPoint:
    """One full iterate; also used for direction increments."""

    x: np.ndarray
    r: np.ndarray
    s: np.ndarray
    y: np.ndarray
    z: np.ndarray
    t: np.ndarray


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


def residual(model: ProblemModel, point: SolverPoint, outer: OuterState,
             rows: np.ndarray) -> np.ndarray:
    """Stacked stationarity residual at the iterate whose ``unrelaxed_rows``
    are ``rows``; R is written over them."""
    return outer_rows(model, point, outer, rows, rows[layout_of(model.n, model.m, model.p).t])


def outer_rows(model: ProblemModel, point: SolverPoint, outer: OuterState, R: np.ndarray,
               products: np.ndarray) -> np.ndarray:
    """Write, in place, the rows of the residual R that read the outer state
    (lam, rho and kappa): the relaxation rows r and the complementarity
    rows t, from ``products``, s o t. Returns R."""
    lay = layout_of(model.n, model.m, model.p)
    R[lay.r] = outer.lam + outer.rho * point.r - point.y
    R[lay.t] = products - outer.kappa * cone_target(model.cone)
    return R


def full_jacobian(
    model: ProblemModel,
    point: SolverPoint,
    outer: OuterState,
    cache: EvalCache,
    reg: RegularizationState = RegularizationState(),
) -> np.ndarray:
    """Jacobian of the residual with respect to w at the iterate evaluated in
    ``cache``, with the primal shift eps_p on the (x, r, s) diagonals and the
    dual shift eps_d on (y, z, t)."""
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


def compact_index(values: np.ndarray) -> np.ndarray:
    """Nonnegative indices in the smallest unsigned integer type that holds
    them, for index plans kept per model."""
    return values.astype(np.min_scalar_type(values.max(initial=0)))


def _pairs(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (e1, e2) of places with equal ``keys``, which are
    sorted, by e1 and then e2."""
    lo = np.searchsorted(keys, keys, "left")
    count = np.searchsorted(keys, keys, "right") - lo
    e1 = np.repeat(np.arange(keys.size), count)
    e2 = lo[e1] + np.arange(e1.size) - np.repeat(np.cumsum(count) - count, count)
    return e1, e2


class SchurPlan:
    """How the Schur complement C = P + A'N^{-1}A of the reduced matrix K =
    [[P, A'], [A, -N]] of one model is summed from the stored entries of its
    derivative matrices, in LAPACK lower band storage, x in the stage order
    ``order`` (see ``ProblemModel.stage_blocks``; x's own order for a
    general model): P = L_xx + eps_p I, A = (g_x; h_x), and N is block
    diagonal, ``dual`` I on the equality duals and M + eps_d I on the cone
    rows, one block per cone segment. Each term A[i, a] N^{-1}[i, j] A[j,
    c], for rows i and j of one block of N and a not before c, is a triple
    (``left``, ``right``, ``inner``): the places of A[i, a] and A[j, c]
    among the stored entries of g_x and then h_x, and the place of
    N^{-1}[i, j] in the blocks of N^{-1} laid out flat (see
    ``complement``); the terms, then the stored entries of L_xx below the
    diagonal (``p_src``) and the diagonal of P, are summed into C at
    ``target``. ``gram`` sums G G' by the same pairing. Built once per
    model, at its first assembly, from the patterns of its derivative
    matrices, and kept on the model. InvalidDimension when a derivative
    matrix has an entry outside the band of stage_blocks."""

    def __init__(self, model: ProblemModel, patterns: Tuple[Optional[Pattern], ...]):
        n, m, p = model.n, model.m, model.p
        self.patterns = patterns
        L, G, H = (
            Pattern.full(shape) if P is None else P
            for P, shape in zip(patterns, ((n, n), (m, n), (p, n)))
        )
        blocks = model.stage_blocks or (np.arange(n + m + p),)
        order = np.concatenate(blocks)
        group = np.empty(n + m + p, dtype=np.intp)
        group[order] = np.repeat(np.arange(len(blocks)), [b.size for b in blocks])
        for rows, cols in ((L.rows, L.cols), (n + G.rows, G.cols), (n + m + H.rows, H.cols)):
            if np.any(np.abs(group[rows] - group[cols]) > 1):
                raise InvalidDimension(
                    "a derivative matrix has entries outside the band of stage_blocks; "
                    "return StageMatrix derivatives on the stage blocks"
                )
        self.n, self.m = n, m
        self.order = order[order < n]
        rank = np.empty(n, dtype=np.intp)  # place of each x in the stage order
        rank[self.order] = np.arange(n)
        dual_rank = np.empty(m, dtype=np.intp)  # the same for the equality duals
        dual_rank[order[(order >= n) & (order < n + m)] - n] = np.arange(m)

        # the blocks of N: for each dual row, the first entry of its block
        # in the flat inverse, which also names the block, its place in the
        # block and the block's size
        diag, soc = model.cone.index_groups
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

        # pairs of entries of A in rows of one block of N, the entries by
        # block, dual row and column
        d, a = np.concatenate([G.rows, m + H.rows]), np.concatenate([G.cols, H.cols])
        src = np.lexsort((a, d, first[d]))
        d, a = d[src], a[src]
        e1, e2 = _pairs(first[d])
        lower = rank[a[e1]] >= rank[a[e2]]
        e1, e2 = e1[lower], e2[lower]
        off = np.flatnonzero(rank[L.rows] > rank[L.cols])  # P below the diagonal
        on = np.flatnonzero(L.rows == L.cols)
        ra = np.concatenate([rank[a[e1]], rank[L.rows[off]], np.arange(n)])
        rc = np.concatenate([rank[a[e2]], rank[L.cols[off]], np.arange(n)])
        self.kd = int((ra - rc).max(initial=0))
        slot = rc * (self.kd + 1) + ra - rc  # C[a, c] in the (n, kd + 1) row-major array
        self.left, self.right = compact_index(src[e1]), compact_index(src[e2])
        self.inner = compact_index(first[d[e1]] + place[d[e1]] * size[d[e1]] + place[d[e2]])
        self.target = compact_index(slot)
        self.p_src = compact_index(off)
        self.diag_src, self.diag_rank = compact_index(on), compact_index(rank[L.rows[on]])

        # G G': pairs of entries of G in one column, the entries by column
        # and by the stage order of their rows
        src = np.lexsort((dual_rank[G.rows], G.cols))
        e1, e2 = _pairs(G.cols[src])
        e1, e2 = src[e1], src[e2]
        ra, rc = dual_rank[G.rows[e1]], dual_rank[G.rows[e2]]
        lower = ra >= rc
        e1, e2, ra, rc = e1[lower], e2[lower], ra[lower], rc[lower]
        self.gram_kd = int((ra - rc).max(initial=0))
        self.gram_left, self.gram_right = compact_index(e1), compact_index(e2)
        self.gram_target = compact_index(rc * (self.gram_kd + 1) + ra - rc)

    def complement(self, L: np.ndarray, A: np.ndarray, eps_p: float, dual: float,
                   cone: ConeBlocks) -> Optional[Tuple[np.ndarray, ConeBlocks, int]]:
        """C, with the stored entries ``L`` of L_xx and ``A`` of g_x and then
        h_x, P = L_xx + ``eps_p`` I and N = ``dual`` I on the equality duals
        and ``cone`` on the cone rows, the cone block of N it was built from
        (``cone`` with its boundary stacks raised, see ``_raised_inverse``)
        and the number of stacks raised; None unless N is positive definite.
        The flat inverse of N holds 1 / ``dual`` per equality dual, the
        inverse of ``cone.diag``, then each inverse block of ``cone.blocks``,
        row-major."""
        if (self.m and not dual > 0.0) or not (cone.diag > 0.0).all():
            return None
        try:
            raised = [_raised_inverse(B) for B in cone.blocks]
        except np.linalg.LinAlgError:
            return None
        inverse = np.concatenate([np.ones(self.m) / dual, 1.0 / cone.diag]
                                 + [inv.reshape(-1) for _, inv in raised])
        terms = A.take(self.left) * A.take(self.right) * inverse.take(self.inner)
        diagonal = np.full(self.n, eps_p)
        diagonal[self.diag_rank] += L.take(self.diag_src)
        # bincount sums in input order, so each C[a, c] adds its entry of P
        # (P has every diagonal entry, so there is always one weight) last
        C = np.bincount(self.target, np.concatenate([terms, L.take(self.p_src), diagonal]),
                        minlength=self.n * (self.kd + 1))
        N = ConeBlocks(cone.spec, cone.diag, tuple(B for B, _ in raised))
        return C.reshape(self.n, self.kd + 1).T, N, sum(B is not old for (B, _), old in zip(raised, cone.blocks))

    def gram(self, g: np.ndarray) -> np.ndarray:
        """G G' from the stored entries ``g`` of g_x, in LAPACK lower band
        storage, the equality duals in their stage order: the products of
        the pairs of entries in one column, summed by bincount in the order
        of the columns, so that equal rows of G give bitwise equal rows of G
        G', and the band LU of a repeated row meets an exactly zero pivot."""
        terms = g.take(self.gram_left) * g.take(self.gram_right)
        out = np.bincount(self.gram_target, terms, minlength=self.m * (self.gram_kd + 1))
        return out.reshape(self.m, self.gram_kd + 1).T


# A second-order block of N of dimension 3 or more at the cone boundary is
# rank one to round-off (eigenvalues 0 or +-6e-8 next to 6e8 were measured),
# so it may fail its Cholesky factorization or its inverse; its stack is
# then raised by this times each block's largest entry, both in C and in the
# solves with N. N^{-1}, and with it C, only shrinks as the raise grows, so a
# C that factors with the raise certifies the inertia of K. The raise is the
# error of those solves in the lost direction, which refinement must remove:
# this is about fifty times the round-off of the blocks' eigenvalues. Blocks
# of dimension 2 are held as their eigenvalue pairs, which keep the small
# eigenvalue, so they are never raised.
CONE_RAISE = 1e-14


def _raised_inverse(B: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The stack B of positive definite blocks and its inverse blocks, B
    raised by ``CONE_RAISE`` when a block fails its Cholesky factorization
    or its inverse; LinAlgError when the raised stack still does. A stack of
    eigenvalue pairs (``ConeBlocks``) is positive definite when every
    eigenvalue is positive, and its inverse pairs are the reciprocals."""
    if B.ndim == 2:
        if not (B > 0.0).all():
            raise np.linalg.LinAlgError("a nonpositive eigenvalue")
        return B, eigen_blocks(1.0 / B)
    try:
        np.linalg.cholesky(B)
        return B, np.linalg.inv(B)
    except np.linalg.LinAlgError:
        B = B + CONE_RAISE * np.abs(B).max(axis=(1, 2))[:, None, None] * np.eye(B.shape[1])
        np.linalg.cholesky(B)
        return B, np.linalg.inv(B)


def schur_plan(model: ProblemModel, patterns: Tuple[Optional[Pattern], ...]) -> SchurPlan:
    """The model's ``SchurPlan`` for these derivative patterns."""
    plan = model.schur_plan
    if plan is None or plan.patterns != patterns:
        plan = model.schur_plan = SchurPlan(model, patterns)
    return plan


@dataclass
class ReducedSystem:
    """Symmetric reduction of the Newton system to (dx, dy, dz).

    The reduced matrix K = [[P, A'], [A, -N]] is never formed: it is solved
    through its Schur complement C (``solve``), which is None unless N is
    positive definite. The cone block uses the symmetrized W^{-1} Ptb. On
    second-order segments of dimension 3 or more that operator is
    nonsymmetric away from the central path, which is why directions are
    refined against the full system (``reduced_solve``); on dimension 2 it
    is an eigenvalue pair, exact to round-off, and refinement corrects
    round-off only. The full system is applied blockwise
    (``jacobian_apply``), never formed. Ps, Ptb, W and N stay stacked
    blocks (``ConeBlocks``), never p x p matrices, so that W and N are
    applied and inverted elementwise on the eigenvalue pairs, and solved
    with ``np.linalg.solve`` only on dense blocks of dimension 3 or more.
    Residual rows and solutions may be vectors or matrices of columns.
    """

    layout: Layout
    eps_p: float
    eps_d: float
    dual_scale: float  # 1 / (rho + eps_p)
    Ps: ConeBlocks  # d(s o t)/ds
    Ptb: ConeBlocks  # P_t - eps_d I
    W: ConeBlocks  # Ps + eps_p Ptb
    plan: SchurPlan
    C: Optional[np.ndarray]  # in LAPACK lower band storage, x in plan.order
    dual: float  # N on the equality duals, as C was built from it
    N: Optional[ConeBlocks]  # N on the cone rows, as C was built from it
    tracks_multiplier: bool = False  # dlam = dy; see assemble_symmetric
    raised: int = 0  # stacks of N raised by CONE_RAISE

    def schur(self) -> np.ndarray:
        """C, for ``factorize``; NumericalFailure when N is not positive
        definite, so that K has no Schur complement."""
        if self.C is None:
            raise NumericalFailure("the dual block N is not positive definite")
        return self.C

    def reduce_rows(self, rows: np.ndarray) -> np.ndarray:
        """Right-hand side of the reduced system for residual rows L,
        so that K u = reduce_rows(L) solves the eliminated J dw = -L."""
        lay = self.layout
        Ly = rows[lay.y] + self.dual_scale * rows[lay.r]
        Lz = rows[lay.z] + self.W.solve(self.Ptb.matvec(rows[lay.s]) + rows[lay.t])
        return -np.concatenate([rows[lay.x], Ly, Lz])

    def solve(self, fact: Factorization, cache: EvalCache, f: np.ndarray) -> np.ndarray:
        """u = K^{-1} f through C, whose factors are ``fact``, and N: u_x =
        C^{-1}(f_x + A'N^{-1}f_v) and u_v = N^{-1}(A u_x - f_v), with A
        applied block by block through the derivative matrices of ``cache``
        and N^{-1} by a scalar and block solves."""
        n, m = self.layout.n, self.layout.m
        fy, fz = f[n : n + m], f[n + m :]
        g_x, h_x, order = cache.g_x, cache.h_x, self.plan.order
        b = f[:n] + g_x.T @ (fy / self.dual) + h_x.T @ self.N.solve(fz)
        u = np.empty(f.shape)
        u[order] = fact.solve(b[order])
        u[n : n + m] = (g_x @ u[:n] - fy) / self.dual
        u[n + m :] = self.N.solve(h_x @ u[:n] - fz)
        return u

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
    outer: OuterState,
    cache: EvalCache,
    reg: RegularizationState = RegularizationState(),
    *,
    tracks_multiplier: bool = False,
) -> ReducedSystem:
    """Assemble the reduced saddle system (right-hand sides: ``reduce_rows``)
    and its Schur complement C when N is positive definite, at the iterate
    evaluated in ``cache``.

    N is 1/(rho + eps_p) + eps_d on the equality duals, from the exact
    elimination of the relaxation block. With ``tracks_multiplier`` the
    multiplier estimate moves with the equality dual (dlam = dy), as when
    differentiating a converged solution: the relaxation rows lose their -dy
    coupling, so dr = -L_r / (rho + eps_p), and the penalty term leaves the
    equality-dual diagonal of the reduced matrix, which is then -eps_d (zero
    at zero shift, where the tracked matrix has no Schur complement); the
    reduced right-hand side is the same. C is then built with N =
    DUAL_SHIFT + eps_d on the equality duals: its solves are those of the
    tracked matrix with the dual shift on the equality duals alone, which
    refinement against the exact Jacobian removes. (The dual shift of
    ``reg`` also shifts the complementarity rows, P_t - eps_d I, which at
    the cone boundary makes N indefinite.)"""
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

    (L_pattern, L), (G_pattern, g), (H_pattern, h) = (
        entries(A) for A in (cache.L_xx, cache.g_x, cache.h_x)
    )
    plan = schur_plan(model, (L_pattern, G_pattern, H_pattern))
    dual = (DUAL_SHIFT if tracks_multiplier else dual_scale) + ed
    C, N, raised = plan.complement(L, np.concatenate([g, h]), ep, dual, M.shift(ed)) or (None, None, 0)
    return ReducedSystem(
        layout=lay, eps_p=ep, eps_d=ed, dual_scale=dual_scale, Ps=Ps, Ptb=Ptb, W=W,
        plan=plan, C=C, dual=dual, N=N, tracks_multiplier=tracks_multiplier, raised=raised,
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


@dataclass
class DirectionInfo:
    eps_p: float
    eps_d: float
    refine_passes: int  # refinement steps after the first reduced solve
    # always False: no direction solves the dense Jacobian; kept because
    # perfbench/layers.py reads it
    used_full_solve: bool
    consistency_error: float
    inertia_trials: int = 0  # factorizations tried for the direction
    certified: bool = False  # inertia certified by the Schur complement's Cholesky
    raised: int = 0  # cone stacks of the system's N raised by CONE_RAISE
    # the reduced system the direction was solved through and its factors,
    # for further solves at the same iterate (``corrector``)
    system: Optional[Tuple[ReducedSystem, Factorization]] = field(
        default=None, repr=False, compare=False
    )


REFINE_TOL = 1e-12  # relative residual at which refinement stops
MAX_REFINE = 10  # refinement steps of a direction or of the sensitivity columns
CONSISTENCY_TOL = 1e-8  # bound on ||J dw + R||_inf of a direction, times 1 + ||R||_inf


def reduced_solve(
    rsys: ReducedSystem,
    fact: Factorization,
    cache: EvalCache,
    rho: float,
    R: np.ndarray,
    max_refine: int,
    exact: Optional[ReducedSystem] = None,
    norm_R: Optional[float] = None,
) -> Tuple[Optional[np.ndarray], float, Optional[np.ndarray], int]:
    """Solve J dw = -R by ``solve_refined`` against the full system of
    ``exact`` (rsys when None), applied blockwise (``jacobian_apply``), with
    the reduced solve of rsys through ``fact``, the factors of rsys.C, as its
    preconditioner, in at most ``max_refine`` refinement steps; R may hold
    right-hand sides as columns, and ``norm_R`` is ||R||_inf when already
    taken. Returns the best dw, ||J dw + R||_inf, J dw + R and the steps
    taken; dw is None (error inf) when the solve fails."""
    exact = rsys if exact is None else exact

    def reduced_inverse(b):
        rows = -b  # reduce_rows and recover take the residual rows of J dw = -rows
        return rsys.recover(rsys.solve(fact, cache, rsys.reduce_rows(rows)), rows)

    try:
        return solve_refined(
            lambda dw: jacobian_apply(exact, cache, rho, dw), reduced_inverse, -R,
            max_refine, REFINE_TOL, norm_R,
        )
    except NumericalFailure:
        return None, np.inf, None, 0


def search_direction(
    model: ProblemModel,
    point: SolverPoint,
    outer: OuterState,
    reg: RegularizationState,
    cache: EvalCache,
    R: np.ndarray,
    norm_R: float,
) -> Tuple[SolverPoint, RegularizationState, DirectionInfo]:
    """Newton direction for the stationarity system at the iterate evaluated
    in ``cache``, whose residual is ``R`` and its max-norm ``norm_R``.

    Regularization is chosen by inertia correction of the reduced system
    (certified inertia (n, m+p, 0)), starting from ``reg``. The symmetrized
    cone block makes the one-shot reduced direction inexact on second-order
    segments of dimension 3 or more away from the central path, as does a
    block raised at the cone boundary (``CONE_RAISE``, counted in
    ``DirectionInfo.raised``); refinement against the full system
    (``reduced_solve``) corrects both, and round-off elsewhere. The returned direction satisfies ||J dw + R||_inf <=
    CONSISTENCY_TOL * (1 + ||R||_inf) for the Jacobian at the returned
    shifts, or NumericalFailure is raised.
    """
    lay = layout_of(model.n, model.m, model.p)
    holder: dict = {"trials": 0}

    def build(ep, ed):
        holder["trials"] += 1
        holder["rsys"] = assemble_symmetric(model, point, outer, cache, RegularizationState(ep, ed))
        return holder["rsys"].schur()

    fact, reg = correct_inertia(build, reg)
    rsys: ReducedSystem = holder["rsys"]
    assert (rsys.eps_p, rsys.eps_d) == (reg.eps_p, reg.eps_d)

    consistency = CONSISTENCY_TOL * (1.0 + norm_R)
    best, best_err, _, passes = reduced_solve(rsys, fact, cache, outer.rho, R, MAX_REFINE, norm_R=norm_R)
    if best_err > consistency:
        raise NumericalFailure(
            f"direction consistency {best_err:.3e} exceeds bound {consistency:.3e}"
        )
    info = DirectionInfo(
        eps_p=reg.eps_p, eps_d=reg.eps_d, refine_passes=passes,
        used_full_solve=False, consistency_error=best_err,
        inertia_trials=holder["trials"], certified=fact.certified, raised=rsys.raised,
        system=(rsys, fact),
    )
    return lay.unpack(best), reg, info


def corrector(
    model: ProblemModel,
    cache: EvalCache,
    rho: float,
    R: np.ndarray,
    delta: SolverPoint,
    info: DirectionInfo,
) -> Optional[SolverPoint]:
    """Mehrotra's second-order correction of the Newton direction delta
    (SIAM J. Optim. 1992; through the Jordan product on second-order
    segments, as in ECOS, Domahidi, Chu & Boyd, ECC 2013).

    J delta = -R linearizes the complementarity rows, so a full step leaves
    (s + ds) o (t + dt) - kappa e = ds o dt there. The corrector dc solves J
    dc = -(0, 0, 0, 0, 0, ds o dt) by one reduced solve through delta's own
    system and factors (``info.system``), without refinement, so that delta
    + dc solves J dw = -(R + (0, ..., ds o dt)). Returns delta + dc when its
    residual there, bounded by the sum of the residuals of the two solves,
    meets the consistency bound of ``search_direction``; otherwise None."""
    rsys, fact = info.system
    lay = rsys.layout
    c = np.zeros(lay.total)
    c[lay.t] = cone_product(delta.s, delta.t, model.cone)
    dc, err, _, _ = reduced_solve(rsys, fact, cache, rho, c, max_refine=0)
    if not info.consistency_error + err <= CONSISTENCY_TOL * (1.0 + np.abs(R + c).max()):
        return None  # a failed solve has err inf
    return lay.unpack(lay.pack(delta) + dc)
