"""Factorization of the reduced Newton system, refined solves, and inertia
correction.

The reduced Newton system K = [[P, A'], [A, -N]] of ``kkt`` is never formed.
Its dual block N is positive definite wherever it is factored (block
diagonal: a scalar on the equality duals, the cone blocks on the cone rows),
so K is solved through its Schur complement C = P + A'N^{-1}A, of order n,
and N: u_x = C^{-1}(f_x + A'N^{-1}f_v), u_v = N^{-1}(A u_x - f_v)
(``kkt.ReducedSystem.solve``). C is held in LAPACK lower band storage, x in
the stage order of the model, in which it is banded (Rao, Wright &
Rawlings, JOTA 1998; Wang & Boyd, IEEE TCST 2010); a general model is one
band of half-bandwidth n - 1.

``factorize`` takes the banded Cholesky factorization of C (LAPACK dpbtrf),
and when it succeeds it certifies the inertia (n, m + p, 0) of K: K is
quasi-definite (Vanderbei, SIAM J. Optim. 1995), and by Haynsworth's inertia
additivity (Lin. Alg. Appl. 1968) its inertia is that of C plus that of -N.
When C is not positive definite, C is factored by a band LU with partial
pivoting (dgbtrf, ``band_lu``) and the factorization is not certified; an
exactly zero pivot or a non-finite entry raises NumericalFailure.

``solve_refined`` is the one refinement loop: an operator, an approximate
inverse (for the full Newton system, the reduced solve of
``kkt.reduced_solve``) used as a right preconditioner, and GMRES steps on
the correction until its tolerance, ``max_refine`` steps, or the first step
that does not reduce the residual.

The correction loop shifts the primal diagonal by eps_p and the dual diagonal
by eps_d until the factorization is certified, by IPOPT's rule with the
constants next to ``correct_inertia`` (Waechter & Biegler, Math. Prog. 2006):
first trial 1e-4, grow by 100 until the first successful correction and by 8
after it, shrink the start by 1/3 on reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs


class NumericalFailure(RuntimeError):
    """A factorization or solve produced non-finite or unusable results."""


class InertiaCorrectionFailure(RuntimeError):
    """Regularization exceeded its cap without a certified factorization."""


@dataclass
class Factorization:
    """Factors of a symmetric band matrix C given in LAPACK lower band
    storage, (kd + 1, n): its Cholesky factor (dpbtrf) when C is positive
    definite, which ``certified`` records, or otherwise its band LU
    (dgbtrf, general band storage with kl = ku = kd) and ``pivots``."""

    factors: np.ndarray
    pivots: Optional[np.ndarray]  # None for a Cholesky factor
    kd: int

    @property
    def certified(self) -> bool:
        return self.pivots is None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """C^{-1} rhs; rhs may be a vector or matrix."""
        b = np.asarray(rhs, dtype=float)
        if not b.size:  # the LAPACK wrappers reject empty arrays
            return np.empty(b.shape)
        if self.pivots is None:
            out, _ = dpbtrs(self.factors, b, lower=1)
        else:
            out, _ = dgbtrs(self.factors, self.kd, self.kd, b, self.pivots)
        if not np.all(np.isfinite(out)):
            raise NumericalFailure("non-finite solve result")
        return out


def band_lu(C: np.ndarray) -> Factorization:
    """Band LU with partial pivoting (dgbtrf) of the symmetric matrix C in
    LAPACK lower band storage, (kd + 1, n), mirrored into general band
    storage; NumericalFailure at an exactly zero pivot."""
    kd, n = C.shape[0] - 1, C.shape[1]
    ab = np.zeros((3 * kd + 1, n), order="F")
    ab[2 * kd :] = C  # C[i, j], i >= j, at ab[2 kd + i - j, j]
    for k in range(1, kd + 1):  # C[j - k, j] = C[j, j - k]
        ab[2 * kd - k, k:] = C[k, : n - k]
    if not n:
        return Factorization(ab, np.zeros(0, dtype=np.int32), kd)
    lu, pivots, info = dgbtrf(ab, kd, kd, overwrite_ab=1)
    if info != 0:
        raise NumericalFailure("zero pivot in the band LU")
    return Factorization(lu, pivots, kd)


def factorize(C: np.ndarray) -> Factorization:
    """Factors of the Schur complement C of a reduced matrix K, in LAPACK
    lower band storage (kd + 1, n): certified, so K has inertia (n, m + p,
    0), when C factors by Cholesky; otherwise its uncertified ``band_lu``.
    A non-finite entry or an exactly zero pivot raises NumericalFailure."""
    C = np.asarray(C, dtype=float)
    if not np.isfinite(C).all():
        raise NumericalFailure("non-finite matrix entry")
    factors, info = dpbtrf(C, lower=1)
    if info == 0:
        return Factorization(factors, None, C.shape[0] - 1)
    return band_lu(C)


def solve_refined(
    apply: Callable[[np.ndarray], np.ndarray],
    solve: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    max_refine: int,
    tol: float,
    rhs_norm: Optional[float] = None,
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

    ``rhs_norm`` is ||rhs||_inf when the caller has already taken it.

    Returns x, its residual max-norm, its residual apply(x) - rhs and the
    steps taken; raises NumericalFailure if the first residual is not
    finite.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs_norm is None:
        rhs_norm = np.abs(rhs).max() if rhs.size else 0.0
    target = tol * (1.0 + rhs_norm)
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
    assemble: Callable[[float, float], np.ndarray],
    reg: RegularizationState,
) -> Tuple[Factorization, RegularizationState]:
    """Find shifts (eps_p, eps_d) at which the reduced matrix is certified.

    ``assemble(eps_p, eps_d)`` must return the Schur complement C of the
    shifted reduced matrix (see ``factorize``), or raise NumericalFailure
    when it has none; only a certified factorization is accepted. The
    unshifted matrix is tried first; a failed assembly or factorization (an
    exactly zero pivot) switches on the dual shift DUAL_SHIFT. The primal
    shift starts at EPS_P_INIT on a first correction, or at SHRINK times
    ``reg.last_eps_p`` (at least EPS_P_MIN), and grows by GROW_FIRST on a
    first correction and by GROW after one, until the factorization is
    certified or it exceeds EPS_P_MAX (InertiaCorrectionFailure).
    """

    def try_factor(ep, ed):
        try:
            return factorize(assemble(ep, ed))
        except NumericalFailure:
            return None

    fact = try_factor(0.0, 0.0)
    if fact is not None and fact.certified:
        return fact, RegularizationState(0.0, 0.0, reg.last_eps_p)

    eps_d = DUAL_SHIFT if fact is None else 0.0
    first_ever = reg.last_eps_p == 0.0
    if first_ever:
        eps_p = EPS_P_INIT
    else:
        eps_p = max(EPS_P_MIN, SHRINK * reg.last_eps_p)
    while eps_p <= EPS_P_MAX:
        fact = try_factor(eps_p, eps_d)
        if fact is not None and fact.certified:
            return fact, RegularizationState(eps_p, eps_d, eps_p)
        if eps_d == 0.0 and fact is None:
            eps_d = DUAL_SHIFT
            continue  # retry the same eps_p with the dual shift on
        eps_p *= GROW_FIRST if first_ever else GROW
    raise InertiaCorrectionFailure(
        f"no certified factorization for eps_p up to {EPS_P_MAX:g} (eps_d={eps_d:g})"
    )
