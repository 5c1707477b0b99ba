"""Symmetric indefinite factorization, refined solves, and inertia correction.

Matrices are ``BlockTridiagonal``: symmetric, block tridiagonal in the order
of their row groups (``BandLayout``), and stored as those diagonal and
sub-diagonal blocks only, as the reduced KKT system of a transcribed
trajectory problem is in stage order (Rao, Wright & Rawlings, JOTA 1998); a
general matrix is the case of one group. Products with it are taken block by
block.

Every matrix is factored by one banded LU with partial pivoting (LAPACK
dgbtrf) in the order of its groups (``BandPlan``); a solve is one dgbtrs.
An exactly zero pivot raises NumericalFailure, which switches on the dual
shift in ``correct_inertia``. The inertia is certified, never counted: a
matrix K = [[P, A'], [A, -N]] whose dual block N is positive definite may
carry the Schur complement C = P + A'N^{-1}A onto its first rows in LAPACK
lower band storage (``BlockTridiagonal.schur``; ``kkt.assemble_symmetric``
writes it). By Haynsworth's inertia additivity (Lin. Alg. Appl. 1968) K then
has inertia (n, N - n, 0), n the order of C, exactly when C is positive
definite: K is quasi-definite (Vanderbei, SIAM J. Optim. 1995). One banded
Cholesky of C (LAPACK dpbtrf) certifies it; a matrix without C, or whose C
fails to factor, has no inertia.

``solve_refined`` is the one refinement loop: an operator, an approximate
inverse (for the full Newton system, the reduced solve of
``kkt.reduced_solve``) used as a right preconditioner, and GMRES steps on
the correction until its tolerance, ``max_refine`` steps, or the first step
that does not reduce the residual.

The correction loop shifts the primal diagonal by eps_p and the dual diagonal
by eps_d until the factorization certifies the requested inertia, by IPOPT's
rule with the constants next to ``correct_inertia`` (Waechter & Biegler,
Math. Prog. 2006): first trial 1e-4, grow by 100 until the first successful
correction and by 8 after it, shrink the start by 1/3 on reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf


class NumericalFailure(RuntimeError):
    """A factorization or solve produced non-finite or unusable results."""


class InertiaCorrectionFailure(RuntimeError):
    """Regularization exceeded its cap without reaching the target inertia."""


class BandLayout:
    """Row groups of a symmetric matrix that is block tridiagonal in their
    order, and where its blocks are stored: D_k = K[index[k], index[k]] and
    C_k = K[index[k + 1], index[k]], row-major, in the order D_0, C_0, D_1,
    C_1, ..., in one flat array. Built once per matrix structure."""

    def __init__(self, index: Sequence[np.ndarray]):
        self.index = tuple(np.asarray(rows, dtype=np.intp) for rows in index)
        sizes = [rows.size for rows in self.index]
        self.n = n = sum(sizes)
        order = np.concatenate(self.index) if self.index else np.zeros(0, dtype=np.intp)
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"blocks do not partition the {n} rows of the matrix")
        self.group = np.empty(n, dtype=np.intp)
        self.local = np.empty(n, dtype=np.intp)
        self.sizes = np.array(sizes, dtype=np.intp)
        self.diag_start = np.empty(len(sizes), dtype=np.intp)
        self.sub_start = np.empty(len(sizes), dtype=np.intp)
        self.diag_slices, self.sub_slices = [], []
        off = 0
        for k, rows in enumerate(self.index):
            self.group[rows] = k
            self.local[rows] = np.arange(rows.size)
            self.diag_start[k] = off
            self.diag_slices.append((off, off + sizes[k] ** 2, (sizes[k], sizes[k])))
            off += sizes[k] ** 2
            self.sub_start[k] = off
            if k + 1 < len(sizes):
                self.sub_slices.append((off, off + sizes[k + 1] * sizes[k], (sizes[k + 1], sizes[k])))
                off += sizes[k + 1] * sizes[k]
        self.size = off
        # one group in the original order: the band is the whole matrix
        self.identity = len(sizes) == 1 and np.array_equal(self.index[0], np.arange(n))

    @cached_property
    def band(self) -> "BandPlan":
        """The ``BandPlan`` of every entry of the band, for a matrix whose
        entries are not known."""
        rows, cols = [], []
        for k, group in enumerate(self.index):
            for other in self.index[max(k - 1, 0) : k + 2]:
                rows.append(np.repeat(group, other.size))
                cols.append(np.tile(other, group.size))
        return BandPlan(self, np.concatenate(rows), np.concatenate(cols))

    def positions(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Flat storage positions of the entries (rows, cols): in D_k for
        rows and columns of one group, in C_k for groups k + 1 and k, and
        for groups k and k + 1 in C_k at the mirrored entry. ValueError for
        an entry outside the band."""
        if self.identity:  # the band is the whole matrix, stored row-major
            return rows * self.n + cols
        gr, gc = self.group[rows], self.group[cols]
        if np.any(np.abs(gr - gc) > 1):
            raise ValueError("entry outside the block tridiagonal band")
        lr, lc = self.local[rows], self.local[cols]
        upper = gr < gc
        lo = np.minimum(gr, gc)
        sub = self.sub_start[lo] + np.where(upper, lc, lr) * self.sizes[lo] + np.where(upper, lr, lc)
        return np.where(gr == gc, self.diag_start[gr] + lr * self.sizes[gr] + lc, sub)


def compact_index(values: np.ndarray) -> np.ndarray:
    """Nonnegative indices in the smallest unsigned integer type that holds
    them, for index plans kept per model."""
    return values.astype(np.min_scalar_type(values.max(initial=0)))


class BandPlan:
    """Where the entries (rows, cols) of a matrix stored by ``layout`` go in
    LAPACK general band storage, with rows and columns in the order of its
    groups (``order``): entry (i, j) in that order at ab[2 kl + i - j, j] of
    the (3 kl + 1, n) array that dgbtrf reads, kl the half-bandwidth of the
    entries. The entries must include both triangles; all others must be
    zero. Built once per matrix structure."""

    def __init__(self, layout: BandLayout, rows: np.ndarray, cols: np.ndarray):
        self.order = np.concatenate(layout.index)
        rank = np.empty(layout.n, dtype=np.intp)
        rank[self.order] = np.arange(layout.n)
        ri, ci = rank[rows], rank[cols]
        self.kl = int(np.abs(ri - ci).max(initial=0))
        self.width = 3 * self.kl + 1
        self.src = compact_index(layout.positions(rows, cols))
        self.dst = compact_index(ci * self.width + 2 * self.kl + ri - ci)

    def factor(self, data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Band LU factors (lu, ipiv) of the matrix with storage ``data``
        (left intact); NumericalFailure at an exactly zero pivot."""
        ab = np.zeros((self.order.size, self.width))
        ab.reshape(-1)[self.dst] = data.take(self.src)
        lu, ipiv, info = dgbtrf(ab.T, self.kl, self.kl, overwrite_ab=1)
        if info != 0:
            raise NumericalFailure("zero pivot in the band LU")
        return lu, ipiv


class BlockTridiagonal:
    """Symmetric matrix held as the blocks of its ``BandLayout``: ``D[k]``
    and ``C[k]`` are views of the flat ``data``; entries outside the band
    are zero. ``@`` multiplies vectors or columns block by block; the dense
    matrix (``np.asarray``) is built only on request. ``band`` is the
    ``BandPlan`` of its stored entries (None: every entry of the band).
    ``schur``, when set, is the Schur complement C = P + A'N^{-1}A of K =
    [[P, A'], [A, -N]], N positive definite, onto its first n rows (in
    their group order), in LAPACK lower band storage, (kd + 1, n), which
    certifies the inertia of the matrix (see ``factorize``); whoever
    changes ``data`` after setting it must drop it. The block views are
    made on first use: a factorization reads ``data`` only."""

    def __init__(self, layout: BandLayout, data: Optional[np.ndarray] = None, band: Optional[BandPlan] = None):
        self.layout = layout
        self.data = np.zeros(layout.size) if data is None else data
        self.band = band
        self.schur: Optional[np.ndarray] = None

    @cached_property
    def D(self) -> List[np.ndarray]:
        return [self.data[a:b].reshape(shape) for a, b, shape in self.layout.diag_slices]

    @cached_property
    def C(self) -> List[np.ndarray]:
        return [self.data[a:b].reshape(shape) for a, b, shape in self.layout.sub_slices]

    @classmethod
    def from_dense(cls, K: np.ndarray, index: Sequence[np.ndarray]) -> "BlockTridiagonal":
        """The band of the square array K in the order of ``index``; one
        group holds K itself, without a copy."""
        layout = BandLayout(index)
        if layout.n != K.shape[0]:
            raise ValueError(f"blocks do not partition the {K.shape[0]} rows of the matrix")
        if layout.identity:
            return cls(layout, np.ascontiguousarray(K).reshape(-1))
        out = cls(layout)
        for k, rows in enumerate(layout.index):
            out.D[k][...] = K[np.ix_(rows, rows)]
            if k + 1 < len(layout.index):
                out.C[k][...] = K[np.ix_(layout.index[k + 1], rows)]
        return out

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.layout.n, self.layout.n)

    @property
    def index(self) -> Tuple[np.ndarray, ...]:
        return self.layout.index

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        index, D, C = self.layout.index, self.D, self.C
        parts = [x[rows] for rows in index]
        out = np.empty(x.shape)
        for k, rows in enumerate(index):
            y = D[k] @ parts[k]
            if k:
                y += C[k - 1] @ parts[k - 1]
            if k < len(C):
                y += C[k].T @ parts[k + 1]
            out[rows] = y
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        index = self.layout.index
        out = np.zeros(self.shape)
        for k, rows in enumerate(index):
            out[np.ix_(rows, rows)] = self.D[k]
            if k < len(self.C):
                out[np.ix_(index[k + 1], rows)] = self.C[k]
                out[np.ix_(rows, index[k + 1])] = self.C[k].T
        return out if dtype is None else out.astype(dtype)


@dataclass
class Factorization:
    """Band LU factors (dgbtrf) of a symmetric matrix in the order of its
    row groups, ``band`` its ``BandPlan``, and its inertia (pos, neg, zero)
    when the Cholesky factorization of its Schur complement certifies it,
    None otherwise."""

    inertia: Optional[Tuple[int, int, int]]
    band: BandPlan
    lu: np.ndarray
    ipiv: np.ndarray

    @property
    def certified(self) -> bool:
        return self.inertia is not None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """One band LU solve; rhs may be a vector or matrix."""
        b = np.asarray(rhs, dtype=float)
        out = np.empty(b.shape)
        if b.size:  # the LAPACK wrapper rejects empty arrays
            x, _ = dgbtrs(self.lu, self.band.kl, self.band.kl, b[self.band.order], self.ipiv)
            out[self.band.order] = x
        if not np.all(np.isfinite(out)):
            raise NumericalFailure("non-finite solve result")
        return out


def factorize(K) -> Factorization:
    """Band LU factors of a symmetric matrix, with its inertia (n, N - n,
    0) when its Schur complement of order n factors by Cholesky.

    K is a ``BlockTridiagonal`` or a square array, which is one group and
    has no Schur complement, so no inertia. A non-finite entry or an exactly
    zero pivot raises NumericalFailure.
    """
    if not isinstance(K, BlockTridiagonal):
        A = np.asarray(K, dtype=float)
        n = A.shape[0] if A.ndim else 0
        if A.shape != (n, n):
            raise NumericalFailure(f"matrix is not square: {A.shape}")
        K = BlockTridiagonal.from_dense(A, (np.arange(n),))
    if not np.isfinite(K.data).all():
        raise NumericalFailure("non-finite matrix entry")
    band = K.layout.band if K.band is None else K.band
    inertia = None
    C = K.schur
    if C is not None and np.isfinite(C).all() and dpbtrf(C, lower=1)[1] == 0:
        inertia = (C.shape[1], K.layout.n - C.shape[1], 0)
    return Factorization(inertia, band, *band.factor(K.data))


def solve_refined(
    apply: Callable[[np.ndarray], np.ndarray],
    solve: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    max_refine: int = 10,
    tol: float = 1e-12,
) -> Tuple[np.ndarray, float, np.ndarray, int]:
    """Solve the linear system apply(x) = rhs by GMRES (Saad & Schultz,
    1986) right-preconditioned by the approximate inverse ``solve``. x =
    solve(rhs) is returned as it is when its residual max-norm is at most
    tol * (1 + ||rhs||_inf); otherwise each step adds solve(apply(x) - rhs)
    to the search space and takes the iterate of least residual 2-norm over
    it, in the GCR form (Eisenstat, Elman & Schultz, 1983): the images of
    the search directions are kept orthonormal. It stops at the tolerance,
    after ``max_refine`` steps, or at the first step that does not reduce
    the residual max-norm; after a step, one more ``apply`` gives the
    returned residual. The columns of a matrix rhs run their own Krylov
    spaces in lockstep, one ``solve`` and one ``apply`` of all per step.

    Returns x, its residual max-norm, its residual apply(x) - rhs and the
    steps taken; raises NumericalFailure if the first residual is not
    finite.
    """
    rhs = np.asarray(rhs, dtype=float)
    target = tol * (1.0 + (np.abs(rhs).max() if rhs.size else 0.0))
    x = solve(rhs)
    res = apply(x) - rhs
    err = np.abs(res).max() if res.size else 0.0
    if not np.isfinite(err):
        raise NumericalFailure("refinement produced non-finite residual")
    directions: List[Tuple[np.ndarray, np.ndarray]] = []  # (p, apply(p)), images orthonormal
    passes = 0
    while err > target and passes < max_refine:
        p = solve(res)
        q = apply(p)
        for p_old, q_old in directions:  # modified Gram-Schmidt, column by column
            h = np.sum(q_old * q, axis=0)
            p, q = p - p_old * h, q - q_old * h
        norm = np.linalg.norm(q, axis=0)
        norm = np.where(norm > 0.0, norm, np.inf)  # a direction with no new image adds nothing
        p, q = p / norm, q / norm
        directions.append((p, q))
        step = np.sum(q * res, axis=0)
        trial, trial_res = x - p * step, res - q * step
        trial_err = np.abs(trial_res).max()
        passes += 1
        if not trial_err < err:
            break  # stalled
        x, res, err = trial, trial_res, trial_err
    if passes:  # the updated residual follows apply(x) - rhs only to round-off
        res = apply(x) - rhs
        err = np.abs(res).max()
    return x, err, res, passes


@dataclass(frozen=True)
class RegularizationState:
    """Current primal/dual shifts plus the last successful primal shift."""

    eps_p: float = 0.0
    eps_d: float = 0.0
    last_eps_p: float = 0.0


EPS_P_INIT = 1e-4  # first primal shift of a run
EPS_P_MIN = 1e-20  # floor of a reused start
EPS_P_MAX = 1e40
GROW_FIRST = 100.0  # primal growth until the first successful correction
GROW = 8.0  # primal growth after it
SHRINK = 1.0 / 3.0  # a reused start is this times the last success
DUAL_SHIFT = 1e-8


def correct_inertia(
    assemble: Callable[[float, float], BlockTridiagonal | np.ndarray],
    target: Tuple[int, int, int],
    reg: RegularizationState,
) -> Tuple[Factorization, RegularizationState]:
    """Find shifts (eps_p, eps_d) whose assembled matrix has ``target`` inertia.

    ``assemble(eps_p, eps_d)`` must return the shifted symmetric matrix, a
    ``BlockTridiagonal`` or an array (see ``factorize``); only a certified
    inertia is accepted. The unshifted matrix is tried first; a failed
    assembly or LU (an exactly zero pivot) switches on the dual shift
    DUAL_SHIFT. The primal shift starts at
    EPS_P_INIT on a first correction, or at SHRINK times ``reg.last_eps_p``
    (at least EPS_P_MIN), and grows by GROW_FIRST on a first correction and
    by GROW after one, until the target inertia is reached or it exceeds
    EPS_P_MAX (InertiaCorrectionFailure).
    """

    def try_factor(ep, ed):
        try:
            return factorize(assemble(ep, ed))
        except NumericalFailure:
            return None

    fact = try_factor(0.0, 0.0)
    if fact is not None and fact.inertia == target:
        return fact, RegularizationState(0.0, 0.0, reg.last_eps_p)

    eps_d = DUAL_SHIFT if fact is None else 0.0
    first_ever = reg.last_eps_p == 0.0
    if first_ever:
        eps_p = EPS_P_INIT
    else:
        eps_p = max(EPS_P_MIN, SHRINK * reg.last_eps_p)
    while eps_p <= EPS_P_MAX:
        fact = try_factor(eps_p, eps_d)
        if fact is not None and fact.inertia == target:
            return fact, RegularizationState(eps_p, eps_d, eps_p)
        if eps_d == 0.0 and fact is None:
            eps_d = DUAL_SHIFT
            continue  # retry the same eps_p with the dual shift on
        eps_p *= GROW_FIRST if first_ever else GROW
    raise InertiaCorrectionFailure(
        f"no inertia {target} for eps_p up to {EPS_P_MAX:g} (eps_d={eps_d:g})"
    )
