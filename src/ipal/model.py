"""Problem container: user callbacks, evaluation, and derivative checking.

A problem is

    minimize    c(x; theta)
    subject to  g(x; theta) = 0
                h(x; theta) in K

with K a product of orthant and second-order segments. All derivative
callbacks are analytic; ``validate_derivatives`` checks them against
central differences of the value callbacks. The matrix callbacks
(``equality_jacobian``, ``cone_jacobian``, ``lagrangian_hessian``) return
dense arrays or ``StageMatrix`` objects, which hold only the entries on a
fixed ``Pattern`` (the stage blocks of a transcribed trajectory problem)
and are kept so through evaluation; ``np.asarray`` gives their dense
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .cone import ConeSpec, InvalidDimension


class EvaluationFailure(RuntimeError):
    """A user callback returned a non-finite or malformed value."""


class Pattern:
    """Fixed sparsity pattern of a matrix: the (rows, cols) of its stored
    entries, in storage order and without repeats."""

    def __init__(self, shape: Tuple[int, int], rows: np.ndarray, cols: np.ndarray):
        self.shape = shape
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)

    @staticmethod
    def full(shape: Tuple[int, int]) -> "Pattern":
        """Every entry, row-major."""
        rows, cols = np.indices(shape)
        return Pattern(shape, rows.reshape(-1), cols.reshape(-1))

    @cached_property
    def T(self) -> "Pattern":
        return Pattern(self.shape[::-1], self.cols, self.rows)

    @cached_property
    def transpose_order(self) -> np.ndarray:
        """Storage positions of the mirrored entries of a symmetric pattern:
        entry k of the pattern is entry order[k] of its transpose."""
        width = self.shape[1]
        key = self.rows * width + self.cols
        sort = np.argsort(key)
        # a mirrored entry above every key searches to key.size: clip it
        # to a real entry, which the check below then finds different
        at = np.searchsorted(key, self.cols * width + self.rows, sorter=sort)
        found = sort[np.minimum(at, key.size - 1)]
        if not np.array_equal(key[found], self.cols * width + self.rows):
            raise InvalidDimension("pattern is not symmetric")
        return found


class StageMatrix:
    """Matrix stored as its entries on a fixed ``Pattern``, as transcribed
    trajectory problems return their derivative matrices: the stage blocks,
    without the zeros around them. ``@`` multiplies vectors or columns,
    ``.T`` is the transpose (same entries, mirrored pattern), ``abs`` and
    ``max(axis, initial)`` act on the stored entries, and ``np.asarray``
    gives the dense matrix."""

    def __init__(self, pattern: Pattern, values: np.ndarray):
        self.pattern = pattern
        self.values = values

    @property
    def shape(self) -> Tuple[int, int]:
        return self.pattern.shape

    @property
    def T(self) -> "StageMatrix":
        return StageMatrix(self.pattern.T, self.values)

    def __abs__(self) -> "StageMatrix":
        return StageMatrix(self.pattern, np.abs(self.values))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """A v, for a vector or column by column: bincount adds each row's
        terms in the order of the stored entries either way."""
        rows, cols = self.pattern.rows, self.pattern.cols
        m = self.shape[0]
        if v.ndim == 1:
            return np.bincount(rows, self.values * v[cols], minlength=m).astype(float, copy=False)
        out = np.empty((m, v.shape[1]))
        for j in range(v.shape[1]):
            out[:, j] = np.bincount(rows, self.values * v[:, j][cols], minlength=m)
        return out

    def max(self, axis: int, initial: float) -> np.ndarray:
        """Row (axis=1) or column (axis=0) maxima of the stored entries and
        ``initial``."""
        at = self.pattern.rows if axis == 1 else self.pattern.cols
        out = np.full(self.shape[1 - axis], float(initial))
        np.maximum.at(out, at, self.values)
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.pattern.rows, self.pattern.cols] = self.values
        return out if dtype is None else out.astype(dtype)


def entries(A) -> Tuple[Optional[Pattern], np.ndarray]:
    """Pattern and stored values of a ``StageMatrix``; for a dense array,
    None (every entry) and its entries row-major."""
    if isinstance(A, StageMatrix):
        return A.pattern, A.values
    return None, A.reshape(-1)


def _zeros_fn(shape):
    def fn(*args):
        return np.zeros(shape)

    return fn


@dataclass
class ProblemModel:
    """Callbacks and dimensions for one parametric problem.

    n, m, p, d are the variable, equality, cone, and parameter dimensions.
    ``lagrangian_hessian(x, theta, y, z)`` returns the Hessian of
    c + y'g + z'h with respect to x.
    ``parameter_jacobians(x, theta, y, z)`` returns (L_xt, g_t, h_t): the
    theta-Jacobians of the Lagrangian x-gradient, g, and h.

    The solver factors the Schur complement of the reduced KKT system onto
    the x rows, in x's own order, held as a band whose half-bandwidth is
    read off the stored entries of the derivative matrices: by one banded
    Cholesky factorization, which also certifies the inertia, or by a band
    LU (``linsolve.factorize``). ``transcribe`` lays x out stage by stage
    and returns ``StageMatrix`` derivatives on the stage blocks, so that
    band is narrow; dense derivative matrices give one full band.
    """

    n: int
    m: int
    p: int
    cone: ConeSpec
    objective: Callable
    objective_gradient: Callable
    equality: Optional[Callable] = None
    equality_jacobian: Optional[Callable] = None
    cone_constraint: Optional[Callable] = None
    cone_jacobian: Optional[Callable] = None
    lagrangian_hessian: Optional[Callable] = None
    parameter_jacobians: Optional[Callable] = None
    d: int = 0
    # how the Schur complement of the reduced KKT matrix is summed from the
    # derivative entries (kkt.SchurPlan), built at the model's first assembly
    schur_plan: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 0 or self.p < 0 or self.d < 0:
            raise InvalidDimension(f"bad dimensions n={self.n} m={self.m} p={self.p} d={self.d}")
        if self.cone.dim != self.p:
            raise InvalidDimension(f"cone dim {self.cone.dim} != p={self.p}")
        if self.m == 0:
            self.equality = self.equality or _zeros_fn(0)
            self.equality_jacobian = self.equality_jacobian or _zeros_fn((0, self.n))
        elif self.equality is None or self.equality_jacobian is None:
            raise InvalidDimension("m > 0 requires equality callbacks")
        if self.p == 0:
            self.cone_constraint = self.cone_constraint or _zeros_fn(0)
            self.cone_jacobian = self.cone_jacobian or _zeros_fn((0, self.n))
        elif self.cone_constraint is None or self.cone_jacobian is None:
            raise InvalidDimension("p > 0 requires cone callbacks")
        if self.lagrangian_hessian is None:
            raise InvalidDimension("lagrangian_hessian callback is required")
        if self.parameter_jacobians is None:
            n, m, p, d = self.n, self.m, self.p, self.d
            self.parameter_jacobians = lambda x, theta, y, z: (
                np.zeros((n, d)),
                np.zeros((m, d)),
                np.zeros((p, d)),
            )


Matrix = Union[np.ndarray, StageMatrix]


@dataclass
class EvalCache:
    """Values and derivatives of one model at one (x, theta, y, z). The
    derivative matrices are dense arrays or, as the callbacks returned
    them, ``StageMatrix`` objects."""

    c: float
    c_x: np.ndarray
    g: np.ndarray
    g_x: Matrix
    h: np.ndarray
    h_x: Matrix
    L_xx: Matrix


def _checked(value, shape, name):
    out = value if isinstance(value, StageMatrix) else np.asarray(value, dtype=float)
    if out.shape != shape:
        raise InvalidDimension(f"{name} returned shape {out.shape}, expected {shape}")
    if not np.isfinite(out.values if isinstance(out, StageMatrix) else out).all():
        raise EvaluationFailure(f"{name} returned a non-finite value")
    return out


def _symmetric_part(H: Matrix) -> Matrix:
    if isinstance(H, StageMatrix):
        v = H.values
        return StageMatrix(H.pattern, 0.5 * (v + v[H.pattern.transpose_order]))
    return 0.5 * (H + H.T)


def evaluate_values(
    model: ProblemModel, x: np.ndarray, theta: np.ndarray
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Objective and constraint values only (used inside line searches),
    with the shape and finiteness checks of ``evaluate``."""
    c = _checked(model.objective(x, theta), (), "objective")
    g = _checked(model.equality(x, theta), (model.m,), "equality")
    h = _checked(model.cone_constraint(x, theta), (model.p,), "cone_constraint")
    return float(c), g, h


def evaluate(
    model: ProblemModel,
    x: np.ndarray,
    theta: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    values: Optional[Tuple[float, np.ndarray, np.ndarray]] = None,
) -> EvalCache:
    """Evaluate values (unless given) and first/second derivatives, with
    shape and finiteness checks (of the stored entries of a
    ``StageMatrix``). The returned Hessian is symmetrized."""
    n, m, p = model.n, model.m, model.p
    c, g, h = evaluate_values(model, x, theta) if values is None else values
    c_x = _checked(model.objective_gradient(x, theta), (n,), "objective_gradient")
    g_x = _checked(model.equality_jacobian(x, theta), (m, n), "equality_jacobian")
    h_x = _checked(model.cone_jacobian(x, theta), (p, n), "cone_jacobian")
    H = _checked(model.lagrangian_hessian(x, theta, y, z), (n, n), "lagrangian_hessian")
    return EvalCache(c=c, c_x=c_x, g=g, g_x=g_x, h=h, h_x=h_x, L_xx=_symmetric_part(H))


def evaluate_parameter_jacobians(
    model: ProblemModel,
    x: np.ndarray,
    theta: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    L_xt, g_t, h_t = model.parameter_jacobians(x, theta, y, z)
    return (
        _checked(L_xt, (model.n, model.d), "parameter_jacobians[0]"),
        _checked(g_t, (model.m, model.d), "parameter_jacobians[1]"),
        _checked(h_t, (model.p, model.d), "parameter_jacobians[2]"),
    )


def _central_jacobian(fn, x, step):
    f0 = np.atleast_1d(np.asarray(fn(x), dtype=float))
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        hj = step * (1.0 + abs(x[j]))
        xp = x.copy(); xp[j] += hj
        xm = x.copy(); xm[j] -= hj
        J[:, j] = (np.atleast_1d(fn(xp)) - np.atleast_1d(fn(xm))) / (2.0 * hj)
    return J


@dataclass
class DerivativeCheck:
    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol


@dataclass
class DerivativeReport:
    checks: List[DerivativeCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = [
            f"{'PASS' if c.passed else 'FAIL'}  {c.name:24s} error {c.error:10.3e}  tol {c.tol:.1e}"
            for c in self.checks
        ]
        return "\n".join(lines)


def _rel_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float)
    scale = 1.0 + (np.abs(analytic).max() if analytic.size else 0.0)
    diff = np.abs(analytic - numeric).max() if analytic.size else 0.0
    return float(diff / scale)


def validate_derivatives(
    model: ProblemModel,
    x: np.ndarray,
    theta: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    step: float = 1e-6,
    tol: float = 1e-5,
) -> DerivativeReport:
    """Compare every derivative callback against central differences.

    First derivatives are differenced from the value callbacks; the
    Lagrangian Hessian and parameter Jacobians are differenced from the
    analytic first derivatives.
    """
    checks = []
    cache = evaluate(model, x, theta, y, z)

    num = _central_jacobian(lambda v: model.objective(v, theta), x, step)[0]
    checks.append(DerivativeCheck("objective_gradient", _rel_error(cache.c_x, num), tol))
    if model.m:
        num = _central_jacobian(lambda v: model.equality(v, theta), x, step)
        checks.append(DerivativeCheck("equality_jacobian", _rel_error(cache.g_x, num), tol))
    if model.p:
        num = _central_jacobian(lambda v: model.cone_constraint(v, theta), x, step)
        checks.append(DerivativeCheck("cone_jacobian", _rel_error(cache.h_x, num), tol))

    def lagrangian_gradient(v, th):
        return (
            np.asarray(model.objective_gradient(v, th), dtype=float)
            + np.asarray(model.equality_jacobian(v, th), dtype=float).T @ y
            + np.asarray(model.cone_jacobian(v, th), dtype=float).T @ z
        )

    H = np.asarray(model.lagrangian_hessian(x, theta, y, z), dtype=float)
    num = _central_jacobian(lambda v: lagrangian_gradient(v, theta), x, step)
    checks.append(DerivativeCheck("lagrangian_hessian", _rel_error(H, 0.5 * (num + num.T)), tol))

    if model.d:
        L_xt, g_t, h_t = evaluate_parameter_jacobians(model, x, theta, y, z)
        num = _central_jacobian(lambda th: lagrangian_gradient(x, th), theta, step)
        checks.append(DerivativeCheck("parameter_jacobians[L_xt]", _rel_error(L_xt, num), tol))
        if model.m:
            num = _central_jacobian(lambda th: model.equality(x, th), theta, step)
            checks.append(DerivativeCheck("parameter_jacobians[g_t]", _rel_error(g_t, num), tol))
        if model.p:
            num = _central_jacobian(lambda th: model.cone_constraint(x, th), theta, step)
            checks.append(DerivativeCheck("parameter_jacobians[h_t]", _rel_error(h_t, num), tol))
    return DerivativeReport(checks)
