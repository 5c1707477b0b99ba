"""Algebra for products of nonnegative orthants and second-order cones.

A cone is described by an ordered tuple of segments. All operations act
segment-wise on stacked vectors; the stacking order of the segments is the
stacking order of the vector entries. Each operation is one elementwise step
on the orthant entries and one stacked step per second-order dimension
(``ConeSpec.index_groups``), so this is the only module that knows the
segment layout. Block-diagonal matrices in that layout, such as the
Jacobians of the product, are ``ConeBlocks``; on second-order segments of
dimension 2 they are held in the blocks' shared eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence, Tuple, Union

import numpy as np


class InvalidDimension(ValueError):
    """A cone specification or operand has an inconsistent shape."""


class NotInterior(ValueError):
    """A point required to be strictly interior to the cone is not."""


@dataclass(frozen=True)
class Orthant:
    """Nonnegative orthant segment of dimension ``dim``."""

    dim: int


@dataclass(frozen=True)
class SecondOrder:
    """Second-order cone segment {a : a[0] >= ||a[1:]||} of dimension ``dim``.

    A segment of dimension 1 degenerates to a single orthant entry.
    """

    dim: int


Segment = Union[Orthant, SecondOrder]


@dataclass(frozen=True)
class ConeSpec:
    """Ordered product of cone segments; ``dim`` is their total dimension."""

    segments: Tuple[Segment, ...] = ()
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        for k, seg in enumerate(segs):
            if isinstance(seg, Orthant):
                if seg.dim < 0:
                    raise InvalidDimension(f"segment {k}: orthant dim {seg.dim} < 0")
            elif isinstance(seg, SecondOrder):
                if seg.dim < 1:
                    raise InvalidDimension(f"segment {k}: second-order dim {seg.dim} < 1")
            else:
                raise InvalidDimension(f"segment {k}: unknown segment type {type(seg)!r}")
        object.__setattr__(self, "dim", sum(seg.dim for seg in segs))

    @cached_property
    def segment_groups(self) -> Tuple[Tuple[bool, np.ndarray, np.ndarray], ...]:
        """Non-empty segments grouped by kind and dimension, as (second order,
        positions in ``segments``, (segments, dim) rows): elementwise groups
        first, dimensions increasing, segments in stacking order."""
        groups: dict = {}
        starts = np.cumsum([0] + [seg.dim for seg in self.segments])
        for k, (seg, lo) in enumerate(zip(self.segments, starts)):
            if seg.dim:  # a dim-1 second-order segment is a single orthant entry
                soc = isinstance(seg, SecondOrder) and seg.dim >= 2
                groups.setdefault((soc, seg.dim), []).append((k, np.arange(lo, lo + seg.dim)))
        return tuple((soc, np.array([k for k, _ in members]), np.array([rows for _, rows in members]))
                     for (soc, _), members in sorted(groups.items()))

    @cached_property
    def index_groups(self) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """Entries with elementwise algebra, in stacking order, and the
        (segments, dim) rows of the other second-order segments, one array
        per dimension in increasing dimension."""
        diagonal = [rows.ravel() for soc, _, rows in self.segment_groups if not soc]
        flat = np.sort(np.concatenate(diagonal)) if diagonal else np.zeros(0, dtype=int)
        return flat, tuple(rows for soc, _, rows in self.segment_groups if soc)

    @cached_property
    def target(self) -> np.ndarray:
        """``cone_target``"""
        diag, soc = self.index_groups
        e = np.zeros(self.dim)
        e[np.concatenate([diag] + [rows[:, 0] for rows in soc])] = 1.0
        e.flags.writeable = False
        return e


def concatenate(specs: Sequence[ConeSpec]) -> ConeSpec:
    """Product cone formed by stacking the given specs in order."""
    segs: Tuple[Segment, ...] = ()
    for spec in specs:
        segs = segs + spec.segments
    return ConeSpec(segs)


def _check_operand(a: np.ndarray, spec: ConeSpec, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (spec.dim,):
        raise InvalidDimension(f"{name} has shape {a.shape}, cone dim is {spec.dim}")
    return a


def _dots(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    # row-wise u @ v as one stacked matmul, bitwise equal to the 1-D dot and
    # its square root to np.linalg.norm (unlike (U * V).sum(1))
    return np.matmul(U[:, None, :], V[:, :, None])[:, 0, 0]


def cone_slack(a: np.ndarray, spec: ConeSpec) -> np.ndarray:
    """The elementwise entries of ``a`` (``index_groups[0]``), then
    a[0] - ||a[1:]|| per second-order segment: ``a`` is in the cone iff all
    are >= 0, in its interior iff all are > 0."""
    return _slack(_check_operand(a, spec, "a"), spec)


def _slack(a: np.ndarray, spec: ConeSpec) -> np.ndarray:
    diag, soc = spec.index_groups
    return np.concatenate(
        [a[diag]] + [a[rows[:, 0]] - np.sqrt(_dots(a[rows[:, 1:]], a[rows[:, 1:]])) for rows in soc]
    )


def in_cone(a: np.ndarray, spec: ConeSpec, strict: bool = False) -> bool:
    """Membership test; ``strict`` tests the interior. NaN is outside."""
    slack = cone_slack(a, spec)
    return bool((slack > 0.0).all() if strict else (slack >= 0.0).all())


def cone_target(spec: ConeSpec) -> np.ndarray:
    """Identity element of the segment-wise product: ones on orthant entries,
    (1, 0, ..., 0) on second-order segments. Built once per spec and
    read-only; a caller that keeps or changes it copies it."""
    return spec.target


def cone_product(a: np.ndarray, b: np.ndarray, spec: ConeSpec) -> np.ndarray:
    """Segment-wise product: elementwise on orthants, the Jordan product
    (a'b, a[0]b[1:] + b[0]a[1:]) on second-order segments."""
    a = _check_operand(a, spec, "a")
    b = _check_operand(b, spec, "b")
    diag, soc = spec.index_groups
    out = np.empty(spec.dim)
    out[diag] = a[diag] * b[diag]
    for rows in soc:
        U, V = a[rows], b[rows]
        out[rows[:, 0]] = _dots(U, V)
        out[rows[:, 1:]] = U[:, :1] * V[:, 1:] + V[:, :1] * U[:, 1:]
    return out


@lru_cache(maxsize=None)
def _eye(k: int) -> np.ndarray:
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


_SUMS = np.array([[1.0, 1.0], [1.0, -1.0]])  # (v0 + v1, v0 - v1), each sum rounded once
_HALF_SUMS = 0.5 * _SUMS


def eigen_blocks(L: np.ndarray) -> np.ndarray:
    """The (segments, 2, 2) blocks whose eigenvalue pairs (lambda+,
    lambda-) on the eigenvectors (1, +-1)/sqrt(2) are the rows of L: 0.5
    (lambda+ + lambda-) on the diagonal, 0.5 (lambda+ - lambda-) off it."""
    return (L @ _HALF_SUMS)[:, [0, 1, 1, 0]].reshape(-1, 2, 2)


def _eigen_apply(op, L: np.ndarray, V: np.ndarray) -> np.ndarray:
    # the blocks with eigenvalue pairs L, op = multiply, or their inverses,
    # op = divide, on the (segments, 2) entries V, or (segments, 2, k)
    # columns: 0.5 (lambda+ (v + vbar) + lambda- (v - vbar)), vbar the other
    # entry of v's segment. The sum and difference of the entries meet each
    # eigenvalue on its own, so a small one is not lost to round-off in the
    # other, as it is from the blocks' entries. The products with +-1 and
    # +-0.5 are exact, so each output is its sum rounded once.
    if V.ndim == 2:
        return op(V @ _SUMS, L) @ _HALF_SUMS
    return _HALF_SUMS @ op(_SUMS @ V, L[:, :, None])


@dataclass(frozen=True)
class ConeBlocks:
    """Block-diagonal p x p matrix in a cone's layout: ``diag`` on the
    elementwise entries (``index_groups[0]``), then one stack per
    second-order dimension, in ``index_groups[1]``'s order. A stack of
    dimension 3 or more holds its (segments, dim, dim) blocks. A stack of
    dimension 2 may instead hold (segments, 2) eigenvalue pairs (lambda+,
    lambda-) on the eigenvectors (1, +-1)/sqrt(2), which every arrow matrix
    u0 I + u1 [[0, 1], [1, 0]] shares (the fixed Jordan frame of Alizadeh &
    Goldfarb, Math. Prog. 2003): ``product_jacobian_blocks`` builds that
    form, and sums, scalings, shifts, inverses and products of such blocks
    are elementwise in it (``eigen_blocks`` gives the blocks); an
    operation on two ConeBlocks takes their stacks in the same form. It
    multiplies and solves vectors or columns."""

    spec: ConeSpec
    diag: np.ndarray
    blocks: Tuple[np.ndarray, ...]

    def __add__(self, other: ConeBlocks) -> ConeBlocks:
        return ConeBlocks(self.spec, self.diag + other.diag, tuple(map(np.add, self.blocks, other.blocks)))

    def __rmul__(self, c: float) -> ConeBlocks:
        return ConeBlocks(self.spec, c * self.diag, tuple(c * B for B in self.blocks))

    def shift(self, c: float) -> ConeBlocks:
        """self + c I"""
        return ConeBlocks(self.spec, self.diag + c,
                          tuple(B + c if B.ndim == 2 else B + c * _eye(B.shape[1]) for B in self.blocks))

    def symmetric_part(self) -> ConeBlocks:
        """(self + self') / 2; eigenvalue pairs are symmetric blocks."""
        return ConeBlocks(self.spec, self.diag,
                          tuple(B if B.ndim == 2 else 0.5 * (B + B.transpose(0, 2, 1)) for B in self.blocks))

    def _apply(self, v: np.ndarray, elementwise, stacked) -> np.ndarray:
        diag, soc = self.spec.index_groups
        d = self.diag if v.ndim == 1 else self.diag[:, None]
        if not soc:  # every entry elementwise, diag in order
            return elementwise(v, d)
        out = np.empty(v.shape)
        out[diag] = elementwise(v[diag], d)
        for rows, B in zip(soc, self.blocks):
            if B.ndim == 2:
                out[rows] = _eigen_apply(elementwise, B, v[rows])
            else:
                out[rows] = stacked(B, v[rows]) if v.ndim > 1 else stacked(B, v[rows][..., None])[..., 0]
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, np.multiply, np.matmul)

    def solve(self, v):
        """self^{-1} v, as ConeBlocks when v is, and then LinAlgError if self
        is singular; vectors and columns are solved unchecked, with blocks
        that ``kkt.assemble_symmetric`` has certified."""
        if isinstance(v, ConeBlocks):
            if not self.diag.all() or not all(B.all() for B in self.blocks if B.ndim == 2):
                raise np.linalg.LinAlgError("zero diagonal entry or eigenvalue")
            return ConeBlocks(self.spec, v.diag / self.diag, tuple(
                V / B if B.ndim == 2 else np.linalg.solve(B, V) for B, V in zip(self.blocks, v.blocks)
            ))
        return self._apply(v, np.divide, np.linalg.solve)

    def full_blocks(self) -> Tuple[np.ndarray, ...]:
        """The stacks as (segments, dim, dim) blocks."""
        return tuple(eigen_blocks(B) if B.ndim == 2 else B for B in self.blocks)

    def row_max_abs(self) -> np.ndarray:
        diag, soc = self.spec.index_groups
        out = np.empty(self.spec.dim)
        out[diag] = np.abs(self.diag)
        for rows, B in zip(soc, self.full_blocks()):
            out[rows] = np.abs(B).max(axis=2)
        return out

    def write_to(self, out: np.ndarray) -> np.ndarray:
        """Write the blocks into the p x p array ``out``; other entries stay."""
        diag, soc = self.spec.index_groups
        out[diag, diag] = self.diag
        for rows, B in zip(soc, self.full_blocks()):
            out[rows[:, :, None], rows[:, None, :]] = B
        return out

    def dense(self) -> np.ndarray:
        return self.write_to(np.zeros((self.spec.dim, self.spec.dim)))


def _arrows(u: np.ndarray, spec: ConeSpec, eigen: bool) -> ConeBlocks:
    # the arrow matrices of u: first row and column u, u[0] on the rest of
    # the diagonal; with ``eigen``, those of dimension 2 as their eigenvalue
    # pairs u0 +- u1
    diag, soc = spec.index_groups
    blocks = []
    for rows in soc:
        U = u[rows]
        if eigen and U.shape[1] == 2:
            blocks.append(U @ _SUMS)
            continue
        B = np.zeros(U.shape + U.shape[1:])
        B[:, 0, :] = U
        B[:, 1:, 0] = U[:, 1:]
        tail = np.arange(1, U.shape[1])
        B[:, tail, tail] = U[:, :1]
        blocks.append(B)
    return ConeBlocks(spec, u[diag], tuple(blocks))


def product_jacobian_blocks(s: np.ndarray, t: np.ndarray, spec: ConeSpec) -> Tuple[ConeBlocks, ConeBlocks]:
    """Jacobians (P_s, P_t) of the product s o t with respect to s and t:
    diag(t) / diag(s) on orthant entries and the arrow matrices of t / s on
    second-order segments, those of dimension 2 as eigenvalue pairs. P_s s
    == P_t t == s o t."""
    return _arrows(_check_operand(t, spec, "t"), spec, True), _arrows(_check_operand(s, spec, "s"), spec, True)


def cone_product_jacobians(s: np.ndarray, t: np.ndarray, spec: ConeSpec) -> Tuple[np.ndarray, np.ndarray]:
    """``product_jacobian_blocks`` as dense p x p matrices, every arrow
    matrix from its entries."""
    t, s = _check_operand(t, spec, "t"), _check_operand(s, spec, "s")
    return _arrows(t, spec, False).dense(), _arrows(s, spec, False).dense()


def barrier_value(s: np.ndarray, spec: ConeSpec) -> float:
    """Logarithmic barrier: sum(log s_i) on orthants, 0.5*log(s1^2 - ||s2||^2)
    on second-order segments, summed within each segment and then over the
    segments in stacking order. Raises NotInterior off the interior."""
    s = _check_operand(s, spec, "s")
    terms = np.zeros(len(spec.segments))
    for soc, positions, rows in spec.segment_groups:
        v = s[rows]
        if soc:
            det = np.float_power(v[:, 0], 2) - _dots(v[:, 1:], v[:, 1:])
            if not ((v[:, 0] > 0.0) & (det > 0.0)).all():
                raise NotInterior("second-order segment not strictly interior")
            terms[positions] = 0.5 * np.log(det)
        else:
            if not (v > 0.0).all():
                raise NotInterior("orthant segment not strictly positive")
            terms[positions] = np.log(v).sum(axis=1)
    return float(np.add.accumulate(terms)[-1]) if terms.size else 0.0


def _soc_crossings(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    # Per row, the first positive root of q(alpha) = (a0 + alpha d0)^2 -
    # ||a1 + alpha d1||^2, with q(0) > 0 on the interior, by the stable
    # quadratic formula; inf where the ray never crosses. float_power is C
    # pow, like a scalar x ** 2; x * x can differ in the last bit.
    q2 = np.float_power(D[:, 0], 2) - _dots(D[:, 1:], D[:, 1:])
    q1 = 2.0 * (A[:, 0] * D[:, 0] - _dots(A[:, 1:], D[:, 1:]))
    q0 = np.float_power(A[:, 0], 2) - _dots(A[:, 1:], A[:, 1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        # a negative discriminant gives NaN roots, a zero qq infinite or NaN
        # ones: none counts as a positive root. q1 + 0.0 turns -0.0 into
        # +0.0, so that q1 == 0 takes the root -sqrt(disc) / 2.
        qq = -0.5 * (q1 + np.copysign(np.sqrt(q1 * q1 - 4.0 * q2 * q0), q1 + 0.0))
        roots = np.array([qq / q2, q0 / qq])
        crossing = np.where(roots > 0.0, roots, np.inf).min(axis=0)
        # (nearly) linear q: its root, if q decreases
        q_abs = np.abs(np.array([q2, q1, q0]))
        linear = q_abs[0] <= 1e-14 * np.maximum(q_abs.max(axis=0), 1.0)
        if linear.any():
            crossing[linear] = np.where(q1 < 0.0, -q0 / q1, np.inf)[linear]
    return crossing


def max_step_to_boundary(a: np.ndarray, da: np.ndarray, tau: float, spec: ConeSpec) -> float:
    """Largest step length alpha <= 1 keeping a + alpha*da in the cone, pulled
    back from the boundary by the fraction ``tau``.

    ``a`` must be strictly interior. Returns 1 when the ray never crosses the
    boundary within reach.
    """
    a = _check_operand(a, spec, "a")
    da = _check_operand(da, spec, "da")
    if not (_slack(a, spec) > 0.0).all():
        raise NotInterior("base point is not strictly interior")
    diag, soc = spec.index_groups
    ad, dd = a[diag], da[diag]
    falling = dd < 0.0
    crossing = (-ad[falling] / dd[falling]).min(initial=np.inf)
    for rows in soc:
        crossing = min(crossing, _soc_crossings(a[rows], da[rows]).min())
    # a ray that never crosses (crossing inf) takes the full step
    return float(min(1.0, tau * crossing))


INTERIOR_MARGIN = 1.0  # least slack of the initial cone slacks


def interior_initialization(h0: np.ndarray, spec: ConeSpec) -> np.ndarray:
    """Project ``h0`` onto the cone interior with at least
    ``INTERIOR_MARGIN`` slack; points already interior with that slack are
    returned unchanged."""
    h0 = _check_operand(h0, spec, "h0")
    diag, soc = spec.index_groups
    s = h0.copy()
    s[diag] = np.maximum(s[diag], INTERIOR_MARGIN)
    for rows in soc:
        tails = s[rows[:, 1:]]
        s[rows[:, 0]] = np.maximum(s[rows[:, 0]], np.sqrt(_dots(tails, tails)) + INTERIOR_MARGIN)
    return s
