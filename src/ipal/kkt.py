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
drives inertia-based regularization. K is never formed: it is solved
through its Schur complement onto the x rows, C = P + A'N^{-1}A, and its
dual block N, which is positive definite (``ReducedSystem``). C is summed
straight from the stored entries of the stage matrices, or of a general
model's dense derivative matrices, into LAPACK lower band storage in x's own
order, its half-bandwidth read off those entries, by index plans computed
once per model (``SchurPlan``); its Cholesky factorization certifies the
inertia of K (``linsolve.factorize``). ``assemble_symmetric`` builds and
factors C, or raises NumericalFailure when W = Ps + eps_p P_t is singular, N
is not positive definite or C has an exactly zero pivot, and inertia
correction then takes the dual shift: it is the one check of the blocks that
reduced solves invert. Cone slack and complement blocks are recovered in
closed form from stacked cone blocks (``ConeBlocks``). On second-order
segments of dimension 2 the arrow matrices share the eigenvectors (1,
+-1)/sqrt(2), so W, W^{-1}P_t, N and their inverses are eigenvalue pairs
there, summed, scaled, inverted and applied elementwise, and a small
eigenvalue at the cone boundary is kept. Only segments of dimension 3 or
more hold dense blocks: their W^{-1}P_t is symmetrized, which is inexact
away from the central path, and a block of N that is singular to round-off
at the cone boundary is raised (``CONE_RAISE``). A ``ReducedSystem`` keeps
the evaluation and penalty it was assembled at and the factors of C, and
offers the full system applied blockwise (``apply``), the reduced solve
(``inverse``) and its solve of J dw = -R (``solve``): the GMRES loop of
``solve_refined`` against the first with the second as its preconditioner,
the one judge of a solve's result. No solve forms an (n+m+p)-square matrix
or the dense Jacobian (``full_jacobian``, the only p x p cone matrix), which
serves as a reference in tests. A direction takes at most ``MAX_REFINE``
refinement steps and must meet ||J dw + R||_inf <= ``CONSISTENCY_TOL`` (1 +
||R||_inf). ``differentiate`` factors the same system at the solution and
refines its parameter columns against the Jacobian with the multiplier
estimate tracking the equality dual, which ``ipal.sensitivity`` states over
the system's two operators. A Newton direction keeps its factored system
(``DirectionInfo.system``), so that the solver can correct a step the cone
boundary cuts by Mehrotra's second-order term (``corrector``): one more
reduced solve through it, without refinement, of J dc = -(0, 0, 0, 0, 0, ds
o dt), taken only when the corrected direction still meets the consistency
bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .cone import (
    ConeBlocks,
    cone_product,
    cone_product_jacobians,
    cone_target,
    eigen_blocks,
    product_jacobian_blocks,
)
from . import linsolve
from .linsolve import (
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
    derivative matrices, in LAPACK lower band storage in x's own order,
    whose half-bandwidth ``kd`` is the widest reach of those entries (n - 1
    for a general model, the stage band for a transcription): P = L_xx +
    eps_p I, A = (g_x; h_x), and N is block diagonal, ``dual`` I on the
    equality duals and M + eps_d I on the cone rows, one block per cone
    segment. Each term A[i, a] N^{-1}[i, j] A[j, c], for rows i and j of
    one block of N and a not before c, is a triple (``left``, ``right``,
    ``inner``): the places of A[i, a] and A[j, c] among the stored entries
    of g_x and then h_x, and the place of N^{-1}[i, j] in the blocks of
    N^{-1} laid out flat (see ``complement``); the terms, then the stored
    entries of L_xx below the diagonal (``p_src``) and the diagonal of P,
    are summed into C at ``target``. ``gram`` sums G G' by the same pairing. Built once per
    model, at its first assembly, from the patterns of its derivative
    matrices, and kept on the model."""

    def __init__(self, model: ProblemModel, patterns: Tuple[Optional[Pattern], ...]):
        n, m, p = model.n, model.m, model.p
        self.patterns = patterns
        L, G, H = (
            Pattern.full(shape) if P is None else P
            for P, shape in zip(patterns, ((n, n), (m, n), (p, n)))
        )
        self.n, self.m = n, m

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
        lower = a[e1] >= a[e2]
        e1, e2 = e1[lower], e2[lower]
        off = np.flatnonzero(L.rows > L.cols)  # P below the diagonal
        on = np.flatnonzero(L.rows == L.cols)
        ra = np.concatenate([a[e1], L.rows[off], np.arange(n)])
        rc = np.concatenate([a[e2], L.cols[off], np.arange(n)])
        self.kd = int((ra - rc).max(initial=0))
        slot = rc * (self.kd + 1) + ra - rc  # C[a, c] in the (n, kd + 1) row-major array
        self.left, self.right = compact_index(src[e1]), compact_index(src[e2])
        self.inner = compact_index(first[d[e1]] + place[d[e1]] * size[d[e1]] + place[d[e2]])
        self.target = compact_index(slot)
        self.p_src = compact_index(off)
        self.diag_src, self.diag_rows = compact_index(on), compact_index(L.rows[on])

        # G G': pairs of entries of G in one column, the entries by column
        # and by the order of their rows by last column (stable), which is
        # the stage order of a transcription's equality rows
        last = np.full(m, -1)
        np.maximum.at(last, G.rows, G.cols)
        dual_rank = np.empty(m, dtype=np.intp)
        dual_rank[np.argsort(last, kind="stable")] = np.arange(m)
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
                   cone: ConeBlocks) -> Tuple[np.ndarray, ConeBlocks, int]:
        """C, with the stored entries ``L`` of L_xx and ``A`` of g_x and then
        h_x, P = L_xx + ``eps_p`` I and N = ``dual`` I on the equality duals
        and ``cone`` on the cone rows, the cone block of N it was built from
        (``cone`` with its boundary stacks raised, see ``_raised_inverse``)
        and the number of stacks raised; NumericalFailure unless N is
        positive definite. The flat inverse of N holds 1 / ``dual`` per
        equality dual, the inverse of ``cone.diag``, then each inverse block
        of ``cone.blocks``, row-major."""
        if (self.m and not dual > 0.0) or not (cone.diag > 0.0).all():
            raise NumericalFailure("the dual block N is not positive definite")
        try:
            raised = [_raised_inverse(B) for B in cone.blocks]
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"the dual block N is not positive definite: {exc}") from exc
        inverse = np.concatenate([np.ones(self.m) / dual, 1.0 / cone.diag]
                                 + [inv.reshape(-1) for _, inv in raised])
        terms = A.take(self.left) * A.take(self.right) * inverse.take(self.inner)
        diagonal = np.full(self.n, eps_p)
        diagonal[self.diag_rows] += L.take(self.diag_src)
        # bincount sums in input order, so each C[a, c] adds its entry of P
        # (P has every diagonal entry, so there is always one weight) last
        C = np.bincount(self.target, np.concatenate([terms, L.take(self.p_src), diagonal]),
                        minlength=self.n * (self.kd + 1))
        N = ConeBlocks(cone.spec, cone.diag, tuple(B for B, _ in raised))
        return C.reshape(self.n, self.kd + 1).T, N, sum(B is not old for (B, _), old in zip(raised, cone.blocks))

    def gram(self, g: np.ndarray) -> np.ndarray:
        """G G' from the stored entries ``g`` of g_x, in LAPACK lower band
        storage, the equality duals ordered by the last column of their rows
        (stably, so a transcription's in its stage order): the products of
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
    """Symmetric reduction of the Newton system at one iterate to (dx, dy,
    dz), with the evaluation ``cache`` and penalty ``rho`` it was assembled
    at and the factors ``fact`` of its Schur complement C.

    The reduced matrix K = [[P, A'], [A, -N]] is never formed: it is solved
    through C and N, which is positive definite. The cone block uses the
    symmetrized W^{-1} Ptb. On second-order segments of dimension 3 or more
    that operator is nonsymmetric away from the central path, which is why
    directions are refined against the full system (``apply``, computed
    block by block, never formed) with the reduced solve (``inverse``) as
    the preconditioner (``solve``); on dimension 2 it is an eigenvalue
    pair, exact to round-off, and refinement corrects round-off only. Ps,
    Ptb, W and N stay stacked blocks (``ConeBlocks``), never p x p
    matrices, so that W and N are applied and inverted elementwise on the
    eigenvalue pairs, and solved with ``np.linalg.solve`` only on dense
    blocks of dimension 3 or more. ``differentiate`` refines against the
    Jacobian with the multiplier tracking the equality dual, which it
    states over ``apply`` and ``inverse`` (``ipal.sensitivity``).
    Residual rows and solutions may be vectors or matrices of columns.
    """

    layout: Layout
    cache: EvalCache
    rho: float
    eps_p: float
    eps_d: float
    dual_scale: float  # 1 / (rho + eps_p)
    Ps: ConeBlocks  # d(s o t)/ds
    Ptb: ConeBlocks  # P_t - eps_d I
    W: ConeBlocks  # Ps + eps_p Ptb
    plan: SchurPlan
    C: np.ndarray  # in LAPACK lower band storage, (plan.kd + 1, n)
    dual: float  # N on the equality duals, as C was built from it
    N: ConeBlocks  # N on the cone rows, as C was built from it
    fact: Factorization = field(repr=False)  # of C
    raised: int = 0  # stacks of N raised by CONE_RAISE

    def inverse(self, b: np.ndarray) -> np.ndarray:
        """The reduced solve of J dw = b, through the factors ``fact`` of C.

        The relaxation, slack and complement rows are eliminated exactly, K
        u = f is solved for u = (dx, dy, dz) through C and N, u_x = C^{-1}(f_x
        + A'N^{-1}f_v) and u_v = N^{-1}(A u_x - f_v), with A applied block by
        block through the derivative matrices of ``cache`` and N^{-1} by a
        scalar and block solves, and dr, ds and dt are recovered from u; so
        rows r, s, t and y of J dw = b hold to round-off regardless of the
        cone symmetrization."""
        lay = self.layout
        br, bs, bt = b[lay.r], b[lay.s], b[lay.t]
        fy = b[lay.y] + self.dual_scale * br
        fz = b[lay.z] + self.W.solve(self.Ptb.matvec(bs) + bt)
        g_x, h_x = self.cache.g_x, self.cache.h_x
        dw = np.empty(b.shape)
        dw[lay.x] = self.fact.solve(b[lay.x] + g_x.T @ (fy / self.dual) + h_x.T @ self.N.solve(fz))
        dx = dw[lay.x]
        dw[lay.y] = (g_x @ dx - fy) / self.dual
        dw[lay.z] = self.N.solve(h_x @ dx - fz)
        dy, dz = dw[lay.y], dw[lay.z]
        dw[lay.r] = (dy + br) * self.dual_scale
        ds = dw[lay.s] = self.W.solve(self.Ptb.matvec(dz + bs) + bt)
        dw[lay.t] = self.eps_p * ds - dz - bs
        return dw

    def apply(self, dw: np.ndarray) -> np.ndarray:
        """``full_jacobian`` at the shifts of the system times dw, computed
        block by block without forming the matrix; dw may also hold
        directions as columns."""
        lay, cache = self.layout, self.cache
        ep, ed = self.eps_p, self.eps_d
        dx, dr, ds = dw[lay.x], dw[lay.r], dw[lay.s]
        dy, dz, dt = dw[lay.y], dw[lay.z], dw[lay.t]
        out = np.empty(dw.shape)
        out[lay.x] = cache.L_xx @ dx + ep * dx + cache.g_x.T @ dy + cache.h_x.T @ dz
        out[lay.r] = (self.rho + ep) * dr - dy
        out[lay.s] = ep * ds - dz - dt
        out[lay.y] = cache.g_x @ dx - dr - ed * dy
        out[lay.z] = cache.h_x @ dx - ds - ed * dz
        out[lay.t] = self.Ps.matvec(ds) + self.Ptb.matvec(dt)
        return out

    def solve(self, R: np.ndarray, max_refine: int) -> Tuple[np.ndarray, float, np.ndarray, int]:
        """Solve J dw = -R by ``solve_refined`` against ``apply``, with
        ``inverse`` as its preconditioner, in at most ``max_refine``
        refinement steps; R may hold right-hand sides as columns. Returns
        the best dw, ||J dw + R||_inf, J dw + R and the steps taken;
        NumericalFailure when the first solve is not finite."""
        return solve_refined(self.apply, self.inverse, -R, max_refine)


def assemble_symmetric(
    model: ProblemModel,
    point: SolverPoint,
    outer: OuterState,
    cache: EvalCache,
    reg: RegularizationState = RegularizationState(),
) -> ReducedSystem:
    """Assemble the reduced saddle system at the iterate evaluated in
    ``cache`` and factor its Schur complement C (``linsolve.factorize``);
    the system keeps ``cache`` and the penalty rho of ``outer``.
    NumericalFailure when W is singular (``ConeBlocks.solve``), when N is
    not positive definite, so that K has no C, or when C has an exactly zero
    pivot. N is 1/(rho + eps_p) + eps_d on the equality duals, from the
    exact elimination of the relaxation block.
    (The dual shift of ``reg`` also shifts the complementarity rows, P_t -
    eps_d I, which at the cone boundary makes N indefinite.)"""
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
    dual = dual_scale + ed
    C, N, raised = plan.complement(L, np.concatenate([g, h]), ep, dual, M.shift(ed))
    # through the module, so that a wrapper on linsolve.factorize sees
    # every factorization
    fact = linsolve.factorize(C)
    return ReducedSystem(
        layout=lay, cache=cache, rho=outer.rho, eps_p=ep, eps_d=ed, dual_scale=dual_scale,
        Ps=Ps, Ptb=Ptb, W=W, plan=plan, C=C, dual=dual, N=N, fact=fact, raised=raised,
    )


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
    raised: int = 0  # cone stacks of the system's N raised by CONE_RAISE
    # the factored reduced system the direction was solved through, for
    # further solves at the same iterate (``corrector``)
    system: Optional[ReducedSystem] = field(default=None, repr=False, compare=False)


MAX_REFINE = 10  # refinement steps of a direction or of the sensitivity columns
CONSISTENCY_TOL = 1e-8  # bound on ||J dw + R||_inf of a direction, times 1 + ||R||_inf


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
    (``ReducedSystem.solve``) corrects both, and round-off elsewhere. The
    returned direction satisfies ||J dw + R||_inf <= CONSISTENCY_TOL * (1 +
    ||R||_inf) for the Jacobian at the returned shifts, or NumericalFailure
    is raised, also when the solve fails.
    """
    lay = layout_of(model.n, model.m, model.p)
    rsys, reg, trials = correct_inertia(
        lambda ep, ed: assemble_symmetric(model, point, outer, cache, RegularizationState(ep, ed)), reg
    )
    consistency = CONSISTENCY_TOL * (1.0 + norm_R)
    best, best_err, _, passes = rsys.solve(R, MAX_REFINE)
    if best_err > consistency:
        raise NumericalFailure(
            f"direction consistency {best_err:.3e} exceeds bound {consistency:.3e}"
        )
    info = DirectionInfo(
        eps_p=reg.eps_p, eps_d=reg.eps_d, refine_passes=passes,
        used_full_solve=False, consistency_error=best_err,
        inertia_trials=trials, raised=rsys.raised, system=rsys,
    )
    return lay.unpack(best), reg, info


def corrector(
    model: ProblemModel,
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
    factored system (``info.system``), without refinement, so that delta
    + dc solves J dw = -(R + (0, ..., ds o dt)). Returns delta + dc when its
    residual there, bounded by the sum of the residuals of the two solves,
    meets the consistency bound of ``search_direction``; otherwise, or when
    the solve fails, None."""
    lay = info.system.layout
    c = np.zeros(lay.total)
    c[lay.t] = cone_product(delta.s, delta.t, model.cone)
    try:
        dc, err, _, _ = info.system.solve(c, max_refine=0)
    except NumericalFailure:
        return None
    if not info.consistency_error + err <= CONSISTENCY_TOL * (1.0 + np.abs(R + c).max()):
        return None
    return lay.unpack(lay.pack(delta) + dc)
