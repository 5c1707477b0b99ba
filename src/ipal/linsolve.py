"""Symmetric indefinite factorization, refined solves, and inertia correction.

The general factorization is dense LAPACK Bunch-Kaufman (scipy.linalg.ldl);
inertia is read off the signs of the 1x1 pivots and the eigenvalues of the
2x2 pivot blocks. A matrix that is block tridiagonal in a known order of its
rows, as the reduced KKT system of a transcribed trajectory problem is in
stage order (Rao, Wright & Rawlings, JOTA 1998), is factored block by block
instead: each pivot block is the Schur complement of the blocks before it,
factored by Bunch-Kaufman (LAPACK dsytrf), and the inertia is the sum of the
pivot-block inertias (Sylvester's law of inertia). Its cost grows linearly
with the number of blocks, where the dense factorization's grows with the
cube of the order. A pivot block that is non-finite, fails to factor or has
a pivot eigenvalue within the zero tolerance sends the matrix to the dense
factorization, so zero counts always come from the dense path.

The correction loop shifts the primal diagonal by eps_p and the dual diagonal
by eps_d until the factorization reports the requested inertia, following
the standard interior-point heuristic (first trial 1e-4, grow by 8, grow by
100 until the first successful correction, shrink start by 1/3 on reuse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg import ldl, solve_triangular
from scipy.linalg.lapack import dsytrf, dsytrs


class NumericalFailure(RuntimeError):
    """A factorization or solve produced non-finite or unusable results."""


class InertiaCorrectionFailure(RuntimeError):
    """Regularization exceeded its cap without reaching the target inertia."""


@dataclass
class SymmetricFactorization:
    """LDL' factors of a symmetric matrix plus its inertia (pos, neg, zero).

    The block diagonal D is kept as index arrays: ``_one`` holds the 1x1
    pivot positions with values ``_d``, ``_two`` the first positions of the
    2x2 pivot blocks with rows (d00, d01, -d10, d11, det) in ``_blk``."""

    matrix: np.ndarray
    inertia: Tuple[int, int, int]
    _lower: np.ndarray
    _perm: np.ndarray
    _one: np.ndarray
    _d: np.ndarray
    _two: np.ndarray
    _blk: np.ndarray  # (5, number of 2x2 blocks)
    _singular: str  # why D cannot be inverted, if it cannot

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Single triangular sweep; rhs may be a vector or matrix."""
        if self._singular:
            raise NumericalFailure(self._singular)
        b = np.asarray(rhs, dtype=float)
        y = solve_triangular(
            self._lower, b[self._perm], lower=True, unit_diagonal=True, check_finite=False
        )
        d, blk = (self._d, self._blk) if y.ndim == 1 else (self._d[:, None], self._blk[..., None])
        y[self._one] = y[self._one] / d
        if self._two.size:
            d00, d01, nd10, d11, det = blk
            b0, b1 = y[self._two], y[self._two + 1]
            y[self._two] = (d11 * b0 - d01 * b1) / det
            y[self._two + 1] = (nd10 * b0 + d00 * b1) / det
        y = solve_triangular(self._lower.T, y, lower=False, unit_diagonal=True, check_finite=False)
        out = np.empty_like(y)
        out[self._perm] = y
        if not np.all(np.isfinite(out)):
            raise NumericalFailure("non-finite solve result")
        return out


@dataclass
class BlockedFactorization:
    """Block LDL' factors of a symmetric matrix that is block tridiagonal in
    the order of its row blocks, plus its inertia (pos, neg, zero).

    With D_k the diagonal blocks and C_k = K[block k+1, block k], the pivot
    blocks are S_1 = D_1 and S_{k+1} = D_{k+1} - C_k S_k^{-1} C_k', each
    held as its LAPACK Bunch-Kaufman factors in ``_pivots``; ``_gain`` holds
    each S_k^{-1} C_k', so the unit lower factor has C_k S_k^{-1} =
    _gain[k]' below its diagonal."""

    matrix: np.ndarray
    inertia: Tuple[int, int, int]
    _index: Tuple[np.ndarray, ...]
    _pivots: List[Tuple[np.ndarray, np.ndarray]]
    _gain: List[np.ndarray]

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Forward sweep, block-diagonal solve and backward sweep; rhs may be
        a vector or matrix."""
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


Factorization = Union[SymmetricFactorization, BlockedFactorization]


def _pivot_solve(pivot: Tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    x, _ = dsytrs(pivot[0], pivot[1], rhs, lower=1)
    return x


def _pivot_eigenvalues(diag: np.ndarray, two: np.ndarray, off: np.ndarray):
    """1x1 pivot positions and the eigenvalues of a block diagonal D with
    diagonal ``diag`` and symmetric 2x2 blocks at rows (two, two + 1) whose
    off-diagonal entries are ``off``: the 1x1 pivots, then the smaller and
    the larger eigenvalue of each 2x2 block."""
    if not two.size:
        return np.arange(diag.size), diag
    single = np.ones(diag.size, dtype=bool)
    single[two] = single[two + 1] = False
    one = np.flatnonzero(single)
    mean = 0.5 * (diag[two] + diag[two + 1])
    rad = np.hypot(0.5 * (diag[two] - diag[two + 1]), off)
    return one, np.concatenate([diag[one], mean - rad, mean + rad])


def _factorize_blocked(
    K: np.ndarray, zero_tol: float, blocks: Sequence[np.ndarray]
) -> Optional[BlockedFactorization]:
    """Block tridiagonal factorization of K in the order of ``blocks``, or
    None when a pivot block is non-finite, fails to factor, or has a pivot
    eigenvalue of magnitude at most ``zero_tol``. Entries of K outside the
    block tridiagonal band are not read."""
    pivots: List[Tuple[np.ndarray, np.ndarray]] = []
    gain: List[np.ndarray] = []
    pos = neg = 0
    S = K[np.ix_(blocks[0], blocks[0])]
    for k, rows in enumerate(blocks):
        if not np.all(np.isfinite(S)):
            return None
        lu, ipiv, info = dsytrf(S, lower=1)
        if info != 0 or not np.all(np.isfinite(lu)):
            return None
        # LAPACK marks both rows of a 2x2 pivot block with a negative ipiv
        two = np.flatnonzero(ipiv < 0)[::2]
        _, eigs = _pivot_eigenvalues(np.diagonal(lu), two, lu[two + 1, two])
        if np.any(np.abs(eigs) <= zero_tol):
            return None
        pos += int(np.count_nonzero(eigs > 0.0))
        neg += int(np.count_nonzero(eigs < 0.0))
        pivots.append((lu, ipiv))
        if k + 1 < len(blocks):
            nxt = blocks[k + 1]
            C = K[np.ix_(nxt, rows)]
            gain.append(_pivot_solve(pivots[-1], C.T))
            S = K[np.ix_(nxt, nxt)] - C @ gain[-1]
    return BlockedFactorization(K, (pos, neg, 0), tuple(blocks), pivots, gain)


def factorize(
    K: np.ndarray,
    zero_tol: Optional[float] = None,
    blocks: Optional[Sequence[np.ndarray]] = None,
) -> Factorization:
    """Factor a symmetric matrix and report its inertia.

    ``zero_tol`` is the pivot-eigenvalue magnitude below which a direction is
    counted as zero. The default (1e-11) is absolute, not norm-relative:
    structural singularities factor to pivots near round-off of the dependent
    entries, while badly column-scaled saddle systems carry legitimate pivots
    down to the dual regularization scale (1e-8) next to huge barrier entries,
    which a norm-proportional threshold would misread as zero. Pass an
    explicit tolerance for matrices scaled outside that regime.

    ``blocks``, index arrays that partition the rows of K, selects the block
    tridiagonal factorization when there are at least two of them; K must be
    block tridiagonal in that order (``ProblemModel.stage_blocks`` orders
    the reduced KKT system so). The dense factorization serves every other
    matrix, and any whose blocked factorization meets a zero, non-finite or
    failed pivot block.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if K.shape != (n, n):
        raise NumericalFailure(f"matrix is not square: {K.shape}")
    if not np.all(np.isfinite(K)):
        raise NumericalFailure("non-finite matrix entry")
    if zero_tol is None:
        zero_tol = 1e-11
    if blocks is not None and len(blocks) >= 2:
        if sum(len(rows) for rows in blocks) != n:
            raise ValueError(f"blocks do not partition the {n} rows of the matrix")
        fact = _factorize_blocked(K, zero_tol, blocks)
        if fact is not None:
            return fact
    if n == 0:
        lu, d, perm = K.copy(), K, np.arange(0)
    else:
        try:
            lu, d, perm = ldl(K, lower=True, check_finite=False)
        except Exception as exc:  # LAPACK failures surface as LinAlgError/ValueError
            raise NumericalFailure(f"factorization failed: {exc}") from exc
    if not (np.all(np.isfinite(lu)) and np.all(np.isfinite(d))):
        raise NumericalFailure("non-finite factorization")
    # a 2x2 pivot block starts wherever D has a subdiagonal entry; the
    # blocks are disjoint, so the remaining positions are 1x1 pivots
    two = np.flatnonzero(np.diagonal(d, -1))
    diag = np.diagonal(d)
    one, eigs = _pivot_eigenvalues(diag, two, d[two, two + 1])
    if two.size:
        d00, d01, d10, d11 = diag[two], d[two, two + 1], d[two + 1, two], diag[two + 1]
        blk = np.array([d00, d01, -d10, d11, d00 * d11 - d01 * d10])
    else:
        blk = np.zeros((5, 0))
    zero = int(np.count_nonzero(np.abs(eigs) <= zero_tol))
    pos = int(np.count_nonzero(eigs > max(zero_tol, 0.0)))
    piv = diag[one]
    singular = ""
    if not piv.all():
        singular = "zero pivot in factorization"
    elif not blk[4].all():
        singular = "singular 2x2 pivot in factorization"
    return SymmetricFactorization(
        K, (pos, n - pos - zero, zero), lu[perm], perm, one, piv, two, blk, singular
    )


def solve_refined(
    fact: Factorization,
    K: np.ndarray,
    rhs: np.ndarray,
    max_refine: int = 10,
    tol: float = 1e-12,
) -> np.ndarray:
    """Solve K x = rhs with iterative refinement.

    The residual is measured against the ``K`` passed in, which may differ
    from the factored matrix (the factors then act as a preconditioner).
    Returns the iterate with the smallest residual seen; raises
    NumericalFailure if that residual is not finite.
    """
    rhs = np.asarray(rhs, dtype=float)
    scale = 1.0 + (np.abs(rhs).max() if rhs.size else 0.0)
    x = fact.solve(rhs)
    best = x
    best_err = np.inf
    for _ in range(max_refine + 1):
        res = K @ x - rhs
        err = np.abs(res).max() if res.size else 0.0
        if err < best_err:
            best, best_err = x, err
        if err <= tol * scale:
            break
        x = x - fact.solve(res)
    if not np.isfinite(best_err):
        raise NumericalFailure("refinement produced non-finite residual")
    return best


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
    assemble: Callable[[float, float], np.ndarray],
    target: Tuple[int, int, int],
    reg: RegularizationState,
    opts: InertiaOptions = InertiaOptions(),
    blocks: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[Factorization, RegularizationState]:
    """Find shifts (eps_p, eps_d) whose assembled matrix has ``target`` inertia.

    ``assemble(eps_p, eps_d)`` must return the shifted symmetric matrix,
    factored in the order of ``blocks`` when given (see ``factorize``). The
    unshifted matrix is tried first; a zero eigenvalue count switches on the
    dual shift; the primal shift then escalates until the target inertia is
    reached or the cap is exceeded.
    """

    def try_factor(ep, ed):
        try:
            return factorize(assemble(ep, ed), blocks=blocks)
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
