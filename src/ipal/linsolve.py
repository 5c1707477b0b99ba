"""Symmetric indefinite factorization, refined solves, and inertia correction.

Matrices are ``BlockTridiagonal``: symmetric, block tridiagonal in the order
of their row groups (``BandLayout``), and stored as those diagonal and
sub-diagonal blocks only, as the reduced KKT system of a transcribed
trajectory problem is in stage order (Rao, Wright & Rawlings, JOTA 1998); a
general matrix is the case of one group. Products with it are taken block by
block. It is factored by one block LDL' sweep: each pivot block is the Schur
complement of the blocks before it, factored by Bunch-Kaufman (LAPACK
dsytrf), and the inertia is the sum of the pivot-block inertias (Sylvester's
law of inertia), read for all blocks in one pass off the signs of the 1x1
pivots and the eigenvalues of the 2x2 pivot blocks. Its cost grows linearly
with the number of blocks, where a dense factorization's grows with the cube
of the order; a dense matrix is the case of one block. A matrix of two or
more blocks whose sweep meets a non-finite or failed pivot block, or whose
inertia has a zero count, is made dense and swept again as one block, which
counts zero pivots instead of rejecting them; only there is a banded matrix
made dense.

``solve_refined`` is the one iterative-refinement loop: an operator, an
approximate inverse (for the full Newton system, the reduced solve of
``kkt.reduced_solve``), and a stop at its tolerance, after ``max_refine``
passes, or at the first pass that does not reduce the residual.

The correction loop shifts the primal diagonal by eps_p and the dual diagonal
by eps_d until the factorization reports the requested inertia, following
the standard interior-point heuristic (first trial 1e-4, grow by 8, grow by
100 until the first successful correction, shrink start by 1/3 on reuse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytrs


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
        self.pivot_block = np.repeat(np.arange(len(sizes)), sizes)  # block of each pivot row
        # one group in the original order: the band is the whole matrix
        self.identity = len(sizes) == 1 and np.array_equal(self.index[0], np.arange(n))

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


class BlockTridiagonal:
    """Symmetric matrix held as the blocks of its ``BandLayout``: ``D[k]``
    and ``C[k]`` are views of the flat ``data``; entries outside the band
    are zero. ``@`` multiplies vectors or columns block by block; the dense
    matrix (``np.asarray``) is built only on request."""

    def __init__(self, layout: BandLayout, data: Optional[np.ndarray] = None):
        self.layout = layout
        self.data = np.zeros(layout.size) if data is None else data
        self.D = [self.data[a:b].reshape(shape) for a, b, shape in layout.diag_slices]
        self.C = [self.data[a:b].reshape(shape) for a, b, shape in layout.sub_slices]

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
    """Block LDL' factors of a symmetric matrix that is block tridiagonal in
    the order of its row blocks, plus its inertia (pos, neg, zero); a dense
    matrix is one block.

    With D_k the diagonal blocks and C_k = K[block k+1, block k], the pivot
    blocks are S_1 = D_1 and S_{k+1} = D_{k+1} - C_k S_k^{-1} C_k', each
    held as its LAPACK Bunch-Kaufman factors in ``_pivots``; ``_gain`` holds
    each S_k^{-1} C_k', so the unit lower factor has C_k S_k^{-1} =
    _gain[k]' below its diagonal. ``_zero_pivot`` is set when the last pivot
    block has an exactly zero pivot, so that the factors cannot solve."""

    inertia: Tuple[int, int, int]
    _index: Tuple[np.ndarray, ...]
    _pivots: List[Tuple[np.ndarray, np.ndarray]]
    _gain: List[np.ndarray]
    _zero_pivot: bool

    @property
    def blocked(self) -> bool:
        """Factored in two or more pivot blocks."""
        return len(self._pivots) >= 2

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Forward sweep, block-diagonal solve and backward sweep; rhs may be
        a vector or matrix."""
        if self._zero_pivot:
            raise NumericalFailure("zero pivot in factorization")
        b = np.asarray(rhs, dtype=float)
        index, pivots, gain = self._index, self._pivots, self._gain
        y = b[index[0]]
        forward = [y]
        for k in range(1, len(index)):
            y = b[index[k]] - gain[k - 1].T @ y
            forward.append(y)
        out = np.empty(b.shape)
        x = _pivot_solve(pivots[-1], forward[-1])
        out[index[-1]] = x
        for k in range(len(index) - 2, -1, -1):
            x = _pivot_solve(pivots[k], forward[k]) - gain[k] @ x
            out[index[k]] = x
        if not np.all(np.isfinite(out)):
            raise NumericalFailure("non-finite solve result")
        return out


def _pivot_solve(pivot: Tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    if not rhs.size:  # the LAPACK wrapper rejects empty arrays
        return rhs
    x, _ = dsytrs(pivot[0], pivot[1], rhs, lower=1)
    return x


def _pivot_eigenvalues(diag: np.ndarray, two: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Eigenvalues of a block diagonal D with diagonal ``diag`` and symmetric
    2x2 blocks at rows (two, two + 1) whose off-diagonal entries are ``off``:
    the 1x1 pivots, then the smaller and the larger eigenvalue of each 2x2
    block."""
    if not two.size:
        return diag
    single = np.ones(diag.size, dtype=bool)
    single[two] = single[two + 1] = False
    mean = 0.5 * (diag[two] + diag[two + 1])
    rad = np.hypot(0.5 * (diag[two] - diag[two + 1]), off)
    return np.concatenate([diag[single], mean - rad, mean + rad])


def _factorize_blocked(K: BlockTridiagonal, zero_tol: float) -> Optional[Factorization]:
    """Block tridiagonal factorization of K, or None when a pivot block is
    non-finite or fails to factor, or a pivot block before the last has an
    exactly zero pivot. The inertia of every pivot block is read in one pass
    after the sweep; pivot eigenvalues of magnitude at most ``zero_tol`` are
    counted as zeros."""
    pivots: List[Tuple[np.ndarray, np.ndarray]] = []
    gain: List[np.ndarray] = []
    S = K.D[0]
    for k in range(len(K.D)):
        if not np.isfinite(S).all():
            return None
        # with less than the workspace LAPACK asks for, dsytrf runs the
        # unblocked dsytf2 on blocks larger than LAPACK's block size
        lwork = int(dsytrf_lwork(S.shape[0], lower=1)[0])
        lu, ipiv, info = dsytrf(S, lower=1, lwork=lwork)
        if info < 0 or not np.isfinite(lu).all():
            return None
        pivots.append((lu, ipiv))
        if k < len(K.C):
            if info > 0:
                return None  # an exactly zero pivot cannot eliminate the next block
            C = K.C[k]
            gain.append(_pivot_solve(pivots[-1], C.T))
            S = K.D[k + 1] - C @ gain[-1]
    # LAPACK marks both rows of a 2x2 pivot block with a negative ipiv, and
    # its off-diagonal entry sits below the first row's diagonal entry; the
    # k-th block's sub-diagonal is k entries shorter than its diagonal offset
    diag = np.concatenate([lu.diagonal() for lu, _ in pivots])
    below = np.concatenate([lu.diagonal(-1) for lu, _ in pivots])
    two = np.flatnonzero(np.concatenate([ipiv for _, ipiv in pivots]) < 0)[::2]
    eigs = _pivot_eigenvalues(diag, two, below[two - K.layout.pivot_block[two]])
    zero = int(np.count_nonzero(np.abs(eigs) <= zero_tol))
    pos = int(np.count_nonzero(eigs > max(zero_tol, 0.0)))
    return Factorization((pos, eigs.size - pos - zero, zero), K.index, pivots, gain, info > 0)


def factorize(K, zero_tol: Optional[float] = None) -> Factorization:
    """Factor a symmetric matrix and report its inertia.

    ``zero_tol`` is the pivot-eigenvalue magnitude below which a direction is
    counted as zero. The default (1e-11) is absolute, not norm-relative:
    structural singularities factor to pivots near round-off of the dependent
    entries, while badly column-scaled saddle systems carry legitimate pivots
    down to the dual regularization scale (1e-8) next to huge barrier entries,
    which a norm-proportional threshold would misread as zero. Pass an
    explicit tolerance for matrices scaled outside that regime.

    K is a ``BlockTridiagonal``, factored block by block in the order of
    its row groups, or a square array, which is one group. A matrix of two
    or more groups whose sweep meets a non-finite or failed pivot block, or
    whose inertia has a zero count, is made dense and swept again as one
    group; only then is a dense copy of a ``BlockTridiagonal`` built. An
    exactly zero pivot is counted; ``solve`` then raises NumericalFailure.
    """
    if isinstance(K, BlockTridiagonal):
        band = K
        if not np.isfinite(band.data).all():
            raise NumericalFailure("non-finite matrix entry")
    else:
        A = np.asarray(K, dtype=float)
        n = A.shape[0] if A.ndim else 0
        if A.shape != (n, n):
            raise NumericalFailure(f"matrix is not square: {A.shape}")
        if not np.all(np.isfinite(A)):
            raise NumericalFailure("non-finite matrix entry")
        band = BlockTridiagonal.from_dense(A, (np.arange(n),))
    if zero_tol is None:
        zero_tol = 1e-11
    fact = _factorize_blocked(band, zero_tol)
    if len(band.D) >= 2 and (fact is None or fact.inertia[2]):
        dense = BlockTridiagonal.from_dense(np.asarray(K, dtype=float), (np.arange(band.layout.n),))
        fact = _factorize_blocked(dense, zero_tol)
    if fact is None:
        raise NumericalFailure("non-finite or failed factorization")
    return fact


def solve_refined(
    apply: Callable[[np.ndarray], np.ndarray],
    solve: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    max_refine: int = 10,
    tol: float = 1e-12,
) -> Tuple[np.ndarray, float, np.ndarray, int]:
    """Solve apply(x) = rhs by iterative refinement with the approximate
    inverse ``solve``: x = solve(rhs), then x <- x - solve(apply(x) - rhs)
    while the residual max-norm exceeds tol * (1 + ||rhs||_inf), for at most
    ``max_refine`` passes, stopping at the first pass that does not reduce
    it. rhs may be a vector or a matrix of columns.

    Returns the best x, its residual max-norm, its residual apply(x) - rhs
    and the passes taken; raises NumericalFailure if the first residual is
    not finite.
    """
    rhs = np.asarray(rhs, dtype=float)
    target = tol * (1.0 + (np.abs(rhs).max() if rhs.size else 0.0))
    x = solve(rhs)
    res = apply(x) - rhs
    err = np.abs(res).max() if res.size else 0.0
    if not np.isfinite(err):
        raise NumericalFailure("refinement produced non-finite residual")
    passes = 0
    while err > target and passes < max_refine:
        trial = x - solve(res)
        trial_res = apply(trial) - rhs
        trial_err = np.abs(trial_res).max() if trial_res.size else 0.0
        passes += 1
        if not trial_err < err:
            break  # stalled
        x, res, err = trial, trial_res, trial_err
    return x, err, res, passes


@dataclass(frozen=True)
class RegularizationState:
    """Current primal/dual shifts plus the last successful primal shift."""

    eps_p: float = 0.0
    eps_d: float = 0.0
    last_eps_p: float = 0.0


@dataclass(frozen=True)
class InertiaOptions:
    eps_p_init: float = 1e-4
    eps_p_min: float = 1e-20
    eps_p_max: float = 1e40
    grow_first: float = 100.0
    grow: float = 8.0
    shrink: float = 1.0 / 3.0
    dual_shift: float = 1e-8


def correct_inertia(
    assemble: Callable[[float, float], BlockTridiagonal | np.ndarray],
    target: Tuple[int, int, int],
    reg: RegularizationState,
    opts: InertiaOptions = InertiaOptions(),
) -> Tuple[Factorization, RegularizationState]:
    """Find shifts (eps_p, eps_d) whose assembled matrix has ``target`` inertia.

    ``assemble(eps_p, eps_d)`` must return the shifted symmetric matrix, a
    ``BlockTridiagonal`` or an array (see ``factorize``). The unshifted
    matrix is tried first; a zero eigenvalue count switches on the dual
    shift; the primal shift then escalates until the target inertia is
    reached or the cap is exceeded.
    """

    def try_factor(ep, ed):
        try:
            return factorize(assemble(ep, ed))
        except NumericalFailure:
            return None

    fact = try_factor(0.0, 0.0)
    if fact is not None and fact.inertia == target:
        return fact, RegularizationState(0.0, 0.0, reg.last_eps_p)

    eps_d = opts.dual_shift if (fact is None or fact.inertia[2] > 0) else 0.0
    first_ever = reg.last_eps_p == 0.0
    if first_ever:
        eps_p = opts.eps_p_init
    else:
        eps_p = max(opts.eps_p_min, opts.shrink * reg.last_eps_p)
    while eps_p <= opts.eps_p_max:
        fact = try_factor(eps_p, eps_d)
        if fact is not None and fact.inertia == target:
            return fact, RegularizationState(eps_p, eps_d, eps_p)
        if eps_d == 0.0 and (fact is None or fact.inertia[2] > 0):
            eps_d = opts.dual_shift
            continue  # retry the same eps_p with the dual shift on
        eps_p *= opts.grow_first if first_ever else opts.grow
    raise InertiaCorrectionFailure(
        f"no inertia {target} for eps_p up to {opts.eps_p_max:g} (eps_d={eps_d:g})"
    )
