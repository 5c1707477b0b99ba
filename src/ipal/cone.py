"""Algebra for products of nonnegative orthants and second-order cones.

A cone is described by an ordered tuple of segments. All operations act
segment-wise on stacked vectors; the stacking order of the segments is the
stacking order of the vector entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence, Tuple, Union

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
    def index_groups(self) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """Entries with elementwise algebra (orthant segments and dim-1
        second-order segments), and the rows of the other second-order
        segments grouped by dimension: one (segments, dim) index array per
        dimension, in increasing dimension, segments in stacking order."""
        diagonal, soc = [], {}
        for seg, sl in self.slices():
            if _is_soc(seg):
                soc.setdefault(seg.dim, []).append(np.arange(sl.start, sl.stop))
            else:
                diagonal.append(np.arange(sl.start, sl.stop))
        flat = np.concatenate(diagonal) if diagonal else np.zeros(0, dtype=int)
        return flat, tuple(np.array(soc[d]) for d in sorted(soc))

    def slices(self) -> Iterator[Tuple[Segment, slice]]:
        """Yield (segment, slice into the stacked vector) pairs in order."""
        lo = 0
        for seg in self.segments:
            yield seg, slice(lo, lo + seg.dim)
            lo += seg.dim


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


def _is_soc(seg: Segment) -> bool:
    # dim-1 second-order segments are a single orthant entry
    return isinstance(seg, SecondOrder) and seg.dim >= 2


def in_cone(a: np.ndarray, spec: ConeSpec, strict: bool = False) -> bool:
    """Membership test; ``strict`` tests the interior."""
    a = _check_operand(a, spec, "a")
    for seg, sl in spec.slices():
        v = a[sl]
        if _is_soc(seg):
            slack = v[0] - np.linalg.norm(v[1:])
        elif v.size:
            slack = v.min()
        else:
            continue
        if strict:
            if not slack > 0.0:
                return False
        elif not slack >= 0.0:
            return False
    return True


def cone_target(spec: ConeSpec) -> np.ndarray:
    """Identity element of the segment-wise product: ones on orthant entries,
    (1, 0, ..., 0) on second-order segments."""
    e = np.zeros(spec.dim)
    for seg, sl in spec.slices():
        if _is_soc(seg):
            e[sl.start] = 1.0
        else:
            e[sl] = 1.0
    return e


def cone_product(a: np.ndarray, b: np.ndarray, spec: ConeSpec) -> np.ndarray:
    """Segment-wise product: elementwise on orthants, the Jordan product
    (a'b, a[0]b[1:] + b[0]a[1:]) on second-order segments."""
    a = _check_operand(a, spec, "a")
    b = _check_operand(b, spec, "b")
    out = np.empty(spec.dim)
    for seg, sl in spec.slices():
        u, v = a[sl], b[sl]
        if _is_soc(seg):
            out[sl.start] = u @ v
            out[sl.start + 1 : sl.stop] = u[0] * v[1:] + v[0] * u[1:]
        else:
            out[sl] = u * v
    return out


def _arrow(u: np.ndarray) -> np.ndarray:
    l = u.size
    M = np.zeros((l, l))
    M[0, :] = u
    M[1:, 0] = u[1:]
    M[1:, 1:] += u[0] * np.eye(l - 1)
    return M


def cone_product_jacobians(
    s: np.ndarray, t: np.ndarray, spec: ConeSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """Jacobians (P_s, P_t) of the product s o t with respect to s and t.

    Both are block diagonal: diag(t) / diag(s) on orthant segments and arrow
    matrices on second-order segments. P_s @ s == P_t @ t == s o t.
    """
    s = _check_operand(s, spec, "s")
    t = _check_operand(t, spec, "t")
    p = spec.dim
    Ps = np.zeros((p, p))
    Pt = np.zeros((p, p))
    for seg, sl in spec.slices():
        if _is_soc(seg):
            Ps[sl, sl] = _arrow(t[sl])
            Pt[sl, sl] = _arrow(s[sl])
        else:
            idx = np.arange(sl.start, sl.stop)
            Ps[idx, idx] = t[sl]
            Pt[idx, idx] = s[sl]
    return Ps, Pt


def barrier_value(s: np.ndarray, spec: ConeSpec) -> float:
    """Logarithmic barrier: sum(log s_i) on orthants, 0.5*log(s1^2 - ||s2||^2)
    on second-order segments. Raises NotInterior off the interior."""
    s = _check_operand(s, spec, "s")
    total = 0.0
    for seg, sl in spec.slices():
        v = s[sl]
        if _is_soc(seg):
            det = v[0] ** 2 - v[1:] @ v[1:]
            if not (v[0] > 0.0 and det > 0.0):
                raise NotInterior("second-order segment not strictly interior")
            total += 0.5 * np.log(det)
        else:
            if v.size and not v.min() > 0.0:
                raise NotInterior("orthant segment not strictly positive")
            total += np.log(v).sum() if v.size else 0.0
    return float(total)


def _orthant_crossing(a: np.ndarray, da: np.ndarray) -> float:
    neg = da < 0.0
    if not neg.any():
        return np.inf
    return float((-a[neg] / da[neg]).min())


def _soc_crossing(a: np.ndarray, da: np.ndarray) -> float:
    # First positive root of q(alpha) = (a1+al*d1)^2 - ||a2+al*d2||^2,
    # with q(0) > 0 on the interior. Solved with the stable quadratic formula.
    q2 = da[0] ** 2 - da[1:] @ da[1:]
    q1 = 2.0 * (a[0] * da[0] - a[1:] @ da[1:])
    q0 = a[0] ** 2 - a[1:] @ a[1:]
    scale = max(abs(q2), abs(q1), abs(q0), 1.0)
    if abs(q2) <= 1e-14 * scale:
        return -q0 / q1 if q1 < 0.0 else np.inf
    disc = q1 * q1 - 4.0 * q2 * q0
    if disc < 0.0:
        return np.inf
    sq = np.sqrt(disc)
    qq = -0.5 * (q1 + np.copysign(sq, q1)) if q1 != 0.0 else -0.5 * sq
    roots = []
    if q2 != 0.0:
        roots.append(qq / q2)
    if qq != 0.0:
        roots.append(q0 / qq)
    pos = [r for r in roots if r > 0.0]
    return min(pos) if pos else np.inf


def max_step_to_boundary(
    a: np.ndarray, da: np.ndarray, tau: float, spec: ConeSpec
) -> float:
    """Largest step length alpha <= 1 keeping a + alpha*da in the cone, pulled
    back from the boundary by the fraction ``tau``.

    ``a`` must be strictly interior. Returns 1 when the ray never crosses the
    boundary within reach.
    """
    a = _check_operand(a, spec, "a")
    da = _check_operand(da, spec, "da")
    if not in_cone(a, spec, strict=True):
        raise NotInterior("base point is not strictly interior")
    crossing = np.inf
    for seg, sl in spec.slices():
        if _is_soc(seg):
            c = _soc_crossing(a[sl], da[sl])
        else:
            c = _orthant_crossing(a[sl], da[sl])
        crossing = min(crossing, c)
    if not np.isfinite(crossing):
        return 1.0
    return float(min(1.0, tau * crossing))


def interior_initialization(
    h0: np.ndarray, spec: ConeSpec, margin: float = 1.0
) -> np.ndarray:
    """Project ``h0`` onto the cone interior with at least ``margin`` slack.

    Points already interior with enough slack are returned unchanged. For
    wildly infeasible inputs the margin is floored at 1 to keep the initial
    barrier magnitude bounded.
    """
    h0 = _check_operand(h0, spec, "h0")
    if h0.size and np.abs(h0).max() > 1e8:
        margin = max(margin, 1.0)
    s = h0.copy()
    for seg, sl in spec.slices():
        if _is_soc(seg):
            tail = np.linalg.norm(s[sl.start + 1 : sl.stop])
            s[sl.start] = max(s[sl.start], tail + margin)
        else:
            np.maximum(s[sl], margin, out=s[sl])
    return s
