"""Symmetric indefinite factorization, refined solves, and inertia correction.

Matrices are ``BlockTridiagonal``: symmetric, block tridiagonal in the order
of their row groups, as the reduced KKT system of a transcribed trajectory
problem is in stage order (Rao, Wright & Rawlings, JOTA 1998); a general
matrix is the case of one group. They are stored in one array, LAPACK's
general band storage in the order of the groups (``BandLayout``; Anderson et
al., LAPACK Users' Guide), which is what the factorization reads.

Every matrix is factored by one banded LU with partial pivoting (LAPACK
dgbtrf) of a copy of that array; a solve is one dgbtrs.
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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf


class NumericalFailure(RuntimeError):
    """A factorization or solve produced non-finite or unusable results."""


class InertiaCorrectionFailure(RuntimeError):
    """Regularization exceeded its cap without reaching the target inertia."""


class BandLayout:
    """Where a symmetric matrix that is block tridiagonal in the order of
    its row groups (``index``) is stored: LAPACK general band storage in
    that order (``order``; ``rank`` is the place of each row in it), the
    array that dgbtrf reads. Entry (i, j), i and j of ranks ri and rj, is at
    ab[rj, 2 kl + ri - rj] of the row-major (n, width) array ab, width = 3 kl
    + 1, kl the half-bandwidth of the ``rows`` and ``cols`` given (both
    triangles), or of the groups' full block band when none are given; the
    first kl entries of each row of ab are the fill of the LU. Built once
    per matrix structure."""

    def __init__(self, index: Sequence[np.ndarray], rows: Optional[np.ndarray] = None,
                 cols: Optional[np.ndarray] = None):
        self.index = tuple(np.asarray(group, dtype=np.intp) for group in index)
        self.order = np.concatenate(self.index) if self.index else np.zeros(0, dtype=np.intp)
        self.n = n = self.order.size
        if not np.array_equal(np.sort(self.order), np.arange(n)):
            raise ValueError(f"blocks do not partition the {n} rows of the matrix")
        self.rank = np.empty(n, dtype=np.intp)
        self.rank[self.order] = np.arange(n)
        self.group = np.repeat(np.arange(len(self.index)), [g.size for g in self.index])[self.rank]
        if rows is None:  # adjacent groups k and k + 1 span s_k + s_{k+1} ranks
            sizes = np.array([g.size for g in self.index])
            self.kl = int(max((sizes[1:] + sizes[:-1]).max(initial=0), sizes.max(initial=1)) - 1)
        else:
            self.kl = int(np.abs(self.rank[rows] - self.rank[cols]).max(initial=0))
        self.width = 3 * self.kl + 1

    def positions(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Flat storage positions of the entries (rows, cols), which must lie
        within the half-bandwidth kl; ValueError for an entry outside the
        block tridiagonal band of the groups."""
        if np.any(np.abs(self.group[rows] - self.group[cols]) > 1):
            raise ValueError("entry outside the block tridiagonal band")
        ri, ci = self.rank[rows], self.rank[cols]
        return ci * self.width + 2 * self.kl + ri - ci


class BlockTridiagonal:
    """Symmetric matrix held in the band storage of its ``BandLayout``:
    ``data`` is the flat (n, width) array, as dgbtrf reads it; entries
    outside the band are zero. The dense matrix (``np.asarray``) is built
    only on request. ``schur``, when set, is the Schur complement C = P +
    A'N^{-1}A of K = [[P, A'], [A, -N]], N positive definite, onto its first
    n rows (in their group order), in LAPACK lower band storage, (kd + 1,
    n), which certifies the inertia of the matrix (see ``factorize``);
    whoever changes ``data`` after setting it must drop it."""

    def __init__(self, layout: BandLayout):
        self.layout = layout
        self.data = np.zeros(layout.n * layout.width)
        self.schur: Optional[np.ndarray] = None

    @classmethod
    def from_dense(cls, K: np.ndarray, index: Sequence[np.ndarray]) -> "BlockTridiagonal":
        """The block tridiagonal band of the square array K in the order of
        ``index``; entries of K outside it are dropped."""
        layout = BandLayout(index)
        if layout.n != K.shape[0]:
            raise ValueError(f"blocks do not partition the {K.shape[0]} rows of the matrix")
        rows, cols = np.nonzero(np.abs(layout.group[:, None] - layout.group[None, :]) <= 1)
        out = cls(layout)
        out.data[layout.positions(rows, cols)] = K[rows, cols]
        return out

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.layout.n, self.layout.n)

    @property
    def index(self) -> Tuple[np.ndarray, ...]:
        return self.layout.index

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        lay = self.layout
        cols, shift = np.divmod(np.arange(self.data.size), lay.width)
        ranks = cols + shift - 2 * lay.kl
        band = (shift >= lay.kl) & (ranks >= 0) & (ranks < lay.n)
        out = np.zeros(self.shape)
        out[lay.order[ranks[band]], lay.order[cols[band]]] = self.data[band]
        return out if dtype is None else out.astype(dtype)


@dataclass
class Factorization:
    """Band LU factors (dgbtrf) of a symmetric matrix in the order of its
    row groups, ``layout`` its ``BandLayout``, and its inertia (pos, neg,
    zero) when the Cholesky factorization of its Schur complement certifies
    it, None otherwise."""

    inertia: Optional[Tuple[int, int, int]]
    layout: BandLayout
    lu: np.ndarray
    ipiv: np.ndarray

    @property
    def certified(self) -> bool:
        return self.inertia is not None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """One band LU solve; rhs may be a vector or matrix."""
        b = np.asarray(rhs, dtype=float)
        out = np.empty(b.shape)
        lay = self.layout
        if b.size:  # the LAPACK wrapper rejects empty arrays
            x, _ = dgbtrs(self.lu, lay.kl, lay.kl, b[lay.order], self.ipiv)
            out[lay.order] = x
        if not np.all(np.isfinite(out)):
            raise NumericalFailure("non-finite solve result")
        return out


def factorize(K) -> Factorization:
    """Band LU factors of a symmetric matrix, with its inertia (n, N - n,
    0) when its Schur complement of order n factors by Cholesky.

    K is a ``BlockTridiagonal``, whose storage is factored in a copy and
    left intact, or a square array, which is one group and has no Schur
    complement, so no inertia. A non-finite entry or an exactly zero pivot
    raises NumericalFailure.
    """
    if not isinstance(K, BlockTridiagonal):
        A = np.asarray(K, dtype=float)
        n = A.shape[0] if A.ndim else 0
        if A.shape != (n, n):
            raise NumericalFailure(f"matrix is not square: {A.shape}")
        K = BlockTridiagonal.from_dense(A, (np.arange(n),))
    if not np.isfinite(K.data).all():
        raise NumericalFailure("non-finite matrix entry")
    lay = K.layout
    inertia = None
    C = K.schur
    if C is not None and np.isfinite(C).all() and dpbtrf(C, lower=1)[1] == 0:
        inertia = (C.shape[1], lay.n - C.shape[1], 0)
    ab = K.data.reshape(lay.n, lay.width).copy()
    lu, ipiv, info = dgbtrf(ab.T, lay.kl, lay.kl, overwrite_ab=1)
    if info != 0:
        raise NumericalFailure("zero pivot in the band LU")
    return Factorization(inertia, lay, lu, ipiv)


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
