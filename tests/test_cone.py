import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    barrier_value_loop,
    cone_infeasibility_loop,
    cone_product_loop,
    cone_target_loop,
    eigen_apply,
    eigen_block,
    eigen_pair,
    in_cone_loop,
    interior_initialization_loop,
    max_step_loop,
    product_jacobians_loop,
    segment_slices,
    soc_crossing,
)
from ipal.cone import (
    INTERIOR_MARGIN,
    ConeSpec,
    InvalidDimension,
    NotInterior,
    Orthant,
    SecondOrder,
    barrier_value,
    concatenate,
    cone_product,
    cone_product_jacobians,
    cone_target,
    in_cone,
    interior_initialization,
    max_step_to_boundary,
    product_jacobian_blocks,
)
from ipal.solver import cone_infeasibility
import ipal.cone


def random_cone(rng, max_segments=3, max_dim=4):
    segs = []
    for _ in range(rng.integers(1, max_segments + 1)):
        if rng.random() < 0.5:
            segs.append(Orthant(int(rng.integers(1, max_dim + 1))))
        else:
            segs.append(SecondOrder(int(rng.integers(1, max_dim + 1))))
    return ConeSpec(tuple(segs))


def random_interior(rng, spec, scale=1.0):
    v = np.empty(spec.dim)
    for seg, sl in segment_slices(spec):
        if isinstance(seg, SecondOrder) and seg.dim >= 2:
            tail = scale * rng.standard_normal(seg.dim - 1)
            v[sl.start] = np.linalg.norm(tail) + rng.uniform(0.1, 1.5) * scale
            v[sl.start + 1 : sl.stop] = tail
        else:
            v[sl] = rng.uniform(0.1, 1.5, seg.dim) * scale
    return v


class TestSpecValidation:
    def test_dims(self):
        spec = ConeSpec((Orthant(2), SecondOrder(3)))
        assert spec.dim == 5

    def test_bad_second_order_dim(self):
        with pytest.raises(InvalidDimension):
            ConeSpec((SecondOrder(0),))

    def test_bad_orthant_dim(self):
        with pytest.raises(InvalidDimension):
            ConeSpec((Orthant(-1),))

    def test_operand_shape(self):
        spec = ConeSpec((Orthant(2),))
        with pytest.raises(InvalidDimension):
            cone_product(np.ones(3), np.ones(2), spec)

    def test_concatenate(self):
        spec = concatenate([ConeSpec((Orthant(1),)), ConeSpec((SecondOrder(2),))])
        assert spec.segments == (Orthant(1), SecondOrder(2))

    def test_dim_is_computed_once(self):
        spec = concatenate([ConeSpec((Orthant(2), SecondOrder(3))), ConeSpec((SecondOrder(1),))])
        assert vars(spec)["dim"] == spec.dim == 6
        assert spec == ConeSpec((Orthant(2), SecondOrder(3), SecondOrder(1)))

    def test_index_groups(self):
        spec = ConeSpec((Orthant(2), SecondOrder(2), SecondOrder(1), SecondOrder(3), SecondOrder(2)))
        diagonal, second_order = spec.index_groups
        np.testing.assert_array_equal(diagonal, [0, 1, 4])
        assert len(second_order) == 2
        np.testing.assert_array_equal(second_order[0], [[2, 3], [8, 9]])
        np.testing.assert_array_equal(second_order[1], [[5, 6, 7]])


class TestProduct:
    def test_orthant_product(self):
        spec = ConeSpec((Orthant(2),))
        out = cone_product(np.array([1.0, 2.0]), np.array([3.0, 4.0]), spec)
        assert np.array_equal(out, [3.0, 8.0])

    def test_second_order_product(self):
        # (a'b, a0*b[1:] + b0*a[1:]) by hand:
        # a = (2,1,0), b = (1,.5,.25): head 2+.5+0, tail 2*(.5,.25)+1*(1,0)
        spec = ConeSpec((SecondOrder(3),))
        out = cone_product(np.array([2.0, 1.0, 0.0]), np.array([1.0, 0.5, 0.25]), spec)
        assert np.allclose(out, [2.5, 2.0, 0.5], atol=0, rtol=0)

    def test_target_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            spec = random_cone(rng)
            a = rng.standard_normal(spec.dim)
            assert np.allclose(cone_product(a, cone_target(spec), spec), a)
            assert np.allclose(cone_product(cone_target(spec), a, spec), a)

    def test_commutative_bilinear(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            spec = random_cone(rng)
            a = rng.standard_normal(spec.dim)
            b = rng.standard_normal(spec.dim)
            c = rng.standard_normal(spec.dim)
            w = rng.standard_normal()
            ab = cone_product(a, b, spec)
            assert np.allclose(ab, cone_product(b, a, spec))
            assert np.allclose(
                cone_product(a, b + w * c, spec),
                ab + w * cone_product(a, c, spec),
            )

    def test_jacobian_example(self):
        spec = ConeSpec((Orthant(2),))
        Ps, Pt = cone_product_jacobians(np.array([1.0, 2.0]), np.array([3.0, 4.0]), spec)
        assert np.array_equal(Ps, np.diag([3.0, 4.0]))
        assert np.array_equal(Pt, np.diag([1.0, 2.0]))

    def test_jacobians_factor_the_product(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            spec = random_cone(rng)
            s = rng.standard_normal(spec.dim)
            t = rng.standard_normal(spec.dim)
            Ps, Pt = cone_product_jacobians(s, t, spec)
            st = cone_product(s, t, spec)
            assert np.allclose(Ps @ s, st)
            assert np.allclose(Pt @ t, st)
            # block-diagonal symmetric arrow form
            assert np.array_equal(Ps, Ps.T)
            assert np.array_equal(Pt, Pt.T)


class TestMembershipBarrier:
    def test_membership(self):
        spec = ConeSpec((SecondOrder(2),))
        assert in_cone(np.array([1.0, 1.0]), spec)
        assert not in_cone(np.array([1.0, 1.0]), spec, strict=True)
        assert in_cone(np.array([1.0, 0.5]), spec, strict=True)
        assert not in_cone(np.array([1.0, -1.5]), spec)

    def test_barrier_values(self):
        spec = ConeSpec((Orthant(2),))
        assert barrier_value(np.array([1.0, np.e]), spec) == pytest.approx(1.0)
        soc = ConeSpec((SecondOrder(2),))
        assert barrier_value(np.array([2.0, 1.0]), soc) == pytest.approx(0.5 * np.log(3.0))

    def test_barrier_finite_iff_strict_interior(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            spec = random_cone(rng)
            s = random_interior(rng, spec)
            assert np.isfinite(barrier_value(s, spec))
            boundary = s.copy()
            seg, sl = next(iter(segment_slices(spec)))
            if isinstance(seg, SecondOrder) and seg.dim >= 2:
                boundary[sl.start] = np.linalg.norm(boundary[sl.start + 1 : sl.stop]) - 1e-9
            else:
                boundary[sl.start] = 0.0
            with pytest.raises(NotInterior):
                barrier_value(boundary, spec)


class TestBoundaryStep:
    def test_orthant_example(self):
        spec = ConeSpec((Orthant(2),))
        a = np.array([1.0, 1.0])
        da = np.array([-2.0, 1.0])
        assert max_step_to_boundary(a, da, 1.0, spec) == pytest.approx(0.5)
        assert max_step_to_boundary(a, da, 0.995, spec) == pytest.approx(0.4975)

    def test_no_crossing_is_one(self):
        spec = ConeSpec((Orthant(2), SecondOrder(2)))
        a = interior_initialization(np.zeros(4), spec)
        assert max_step_to_boundary(a, np.ones(4), 0.99, spec) == 1.0

    def test_requires_interior(self):
        spec = ConeSpec((Orthant(1),))
        with pytest.raises(NotInterior):
            max_step_to_boundary(np.array([0.0]), np.array([1.0]), 0.99, spec)

    def test_step_stays_inside(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            spec = random_cone(rng)
            a = random_interior(rng, spec)
            da = rng.standard_normal(spec.dim)
            tau = rng.uniform(0.5, 0.999)
            alpha = max_step_to_boundary(a, da, tau, spec)
            assert 0.0 < alpha <= 1.0
            assert in_cone(a + alpha * da, spec, strict=True)
            if alpha < 1.0:
                # uncapped step: alpha/tau sits on the boundary, beyond is outside
                assert not in_cone(a + (alpha / tau + 1e-6) * da, spec, strict=True)

    def test_degenerate_second_order_matches_orthant(self):
        # dim-1 second-order segments must behave like an orthant entry,
        # including exit through the apex where the quadratic stays nonnegative
        soc = ConeSpec((SecondOrder(1),))
        ort = ConeSpec((Orthant(1),))
        a = np.array([1.0])
        da = np.array([-4.0])
        assert max_step_to_boundary(a, da, 1.0, soc) == pytest.approx(
            max_step_to_boundary(a, da, 1.0, ort)
        )
        assert barrier_value(a, soc) == barrier_value(a, ort)
        assert cone_target(soc) == cone_target(ort)
        assert not in_cone(np.array([-1.0]), soc)


class TestInteriorInitialization:
    def test_second_order_example(self):
        spec = ConeSpec((SecondOrder(2),))
        s = interior_initialization(np.array([0.0, 1.0]), spec)
        assert np.array_equal(s, [1.0 + INTERIOR_MARGIN, 1.0])

    def test_unchanged_when_comfortable(self):
        spec = ConeSpec((Orthant(2), SecondOrder(2)))
        h0 = np.array([1.5, 2.0, 3.0, 1.0])
        assert np.array_equal(interior_initialization(h0, spec), h0)

    def test_always_interior_with_margin(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            spec = random_cone(rng)
            h0 = rng.standard_normal(spec.dim) * 10.0 ** rng.integers(-2, 3)
            s = interior_initialization(h0, spec)
            assert in_cone(s, spec, strict=True)
            for seg, sl in segment_slices(spec):
                v = s[sl]
                if isinstance(seg, SecondOrder) and seg.dim >= 2:
                    slack = v[0] - np.linalg.norm(v[1:])
                else:
                    slack = v.min()
                assert slack >= INTERIOR_MARGIN * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# Batched operations against the per-segment reference (tests/helpers.py),
# bitwise, on mixed specs: empty orthants, dim-1 second-order segments,
# second-order dimensions 2-6 and the empty spec.

SEGMENTS = st.one_of(
    st.builds(Orthant, st.integers(0, 4)),
    st.builds(SecondOrder, st.integers(1, 6)),
)
SPECS = st.lists(SEGMENTS, max_size=8).map(lambda segs: ConeSpec(tuple(segs)))
SEEDS = st.integers(0, 2**32 - 1)
BATCHED = settings(derandomize=True, deadline=None, max_examples=150)


def _interior(rng, spec):
    """Strictly interior point with entries spread over several decades."""
    return random_interior(rng, spec, scale=float(10.0 ** rng.uniform(-3, 3)))


def _assert_same(value, reference):
    np.testing.assert_array_equal(value, reference)
    assert np.shape(value) == np.shape(reference)


@BATCHED
@given(SPECS, SEEDS)
def test_batched_product_algebra_matches_segment_loop(spec, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, spec.dim)) * 10.0 ** rng.uniform(-3, 3, (2, 1))
    _assert_same(cone_product(a, b, spec), cone_product_loop(a, b, spec))
    _assert_same(cone_target(spec), cone_target_loop(spec))
    Ps, Pt = cone_product_jacobians(a, b, spec)
    ref_Ps, ref_Pt = product_jacobians_loop(a, b, spec)
    _assert_same(Ps, ref_Ps)
    _assert_same(Pt, ref_Pt)


@BATCHED
@given(SPECS, SEEDS)
def test_batched_membership_matches_segment_loop(spec, seed):
    rng = np.random.default_rng(seed)
    inside = _interior(rng, spec)
    boundary = inside.copy()
    for seg, sl in segment_slices(spec):
        if isinstance(seg, SecondOrder) and seg.dim >= 2 and rng.random() < 0.5:
            boundary[sl.start] = np.linalg.norm(boundary[sl.start + 1 : sl.stop])
        elif seg.dim and rng.random() < 0.5:
            boundary[sl.start] = 0.0
    mixed = inside * rng.choice([-1.0, 1.0], spec.dim, p=[0.1, 0.9])
    with_nan = inside.copy()
    if spec.dim:
        with_nan[rng.integers(spec.dim)] = np.nan
    model = types.SimpleNamespace(cone=spec)
    for a in (inside, boundary, mixed, with_nan, rng.standard_normal(spec.dim)):
        for strict in (False, True):
            assert in_cone(a, spec, strict) == in_cone_loop(a, spec, strict)
        if np.all(np.isfinite(a)):
            _assert_same(cone_infeasibility(model, a), cone_infeasibility_loop(spec, a))


@BATCHED
@given(SPECS, SEEDS)
def test_batched_barrier_and_initialization_match_segment_loop(spec, seed):
    rng = np.random.default_rng(seed)
    s = _interior(rng, spec)
    _assert_same(barrier_value(s, spec), barrier_value_loop(s, spec))
    off = s * rng.choice([-1.0, 1.0], spec.dim, p=[0.2, 0.8])
    reference = barrier_value_loop(off, spec)
    if reference is None:
        with pytest.raises(NotInterior):
            barrier_value(off, spec)
    else:
        _assert_same(barrier_value(off, spec), reference)
    for h0 in (rng.standard_normal(spec.dim) * 10.0 ** rng.uniform(-2, 2), 1e9 * off, s):
        _assert_same(interior_initialization(h0, spec), interior_initialization_loop(h0, spec))


@BATCHED
@given(SPECS, SEEDS)
def test_batched_boundary_step_matches_segment_loop(spec, seed):
    rng = np.random.default_rng(seed)
    a = _interior(rng, spec)
    tau = float(rng.uniform(0.5, 1.0))
    directions = (
        rng.standard_normal(spec.dim) * 10.0 ** rng.uniform(-3, 3),
        float(rng.uniform(0.1, 5.0)) * a,  # never crosses
        -float(rng.uniform(0.1, 5.0)) * a,  # crosses every segment at once
        np.abs(rng.standard_normal(spec.dim)),
    )
    for da in directions:
        _assert_same(max_step_to_boundary(a, da, tau, spec), max_step_loop(a, da, tau, spec))


@BATCHED
@given(SPECS, SEEDS)
def test_cone_blocks_match_segment_loop(spec, seed):
    # matvec and solve, of vectors and of columns, one step per segment; a
    # SecondOrder(2) segment in the eigenbasis (1, +-1)/sqrt(2) of its
    # arrow matrices, from its eigenvalue pair
    rng = np.random.default_rng(seed)
    s, t = _interior(rng, spec), _interior(rng, spec)
    eps = float(rng.uniform(0.0, 1e-2))
    Ps, Pt = product_jacobian_blocks(s, t, spec)
    W = Ps + eps * Pt.shift(-eps)
    dense_W = W.dense()
    ref_Ps, ref_Pt = product_jacobians_loop(s, t, spec)
    ref_W = ref_Ps + eps * (ref_Pt - eps * np.eye(spec.dim))
    pairs = {}
    for seg, sl in segment_slices(spec):
        if isinstance(seg, SecondOrder) and seg.dim == 2:
            pairs[sl.start] = eigen_pair(t[sl]) + eps * (eigen_pair(s[sl]) + (-eps))
            ref_W[sl, sl] = eigen_block(pairs[sl.start])
    _assert_same(dense_W, ref_W)
    _assert_same(W.row_max_abs(), np.abs(dense_W).max(axis=1, initial=0.0))
    for v in (rng.standard_normal(spec.dim), rng.standard_normal((spec.dim, 3)),
              rng.standard_normal((spec.dim, 1))):
        product, solved = np.empty(v.shape), np.empty(v.shape)
        for seg, sl in segment_slices(spec):
            block = dense_W[sl, sl]
            if isinstance(seg, SecondOrder) and seg.dim == 2:
                product[sl] = eigen_apply(np.multiply, pairs[sl.start], v[sl])
                solved[sl] = eigen_apply(np.divide, pairs[sl.start], v[sl])
            elif isinstance(seg, SecondOrder) and seg.dim >= 2:
                product[sl], solved[sl] = block @ v[sl], np.linalg.solve(block, v[sl])
            else:
                d = np.diag(block).reshape((-1,) + (1,) * (v.ndim - 1))
                product[sl], solved[sl] = d * v[sl], v[sl] / d
        _assert_same(W.matvec(v), product)
        _assert_same(W.solve(v), solved)


def _block_pattern(spec):
    """Ones on the blocks of the cone's layout: the diagonal of orthant
    entries, the square of each second-order segment."""
    pattern = np.zeros((spec.dim, spec.dim))
    for seg, sl in segment_slices(spec):
        if isinstance(seg, SecondOrder):
            pattern[sl, sl] = 1.0
        else:
            pattern[np.arange(sl.start, sl.stop), np.arange(sl.start, sl.stop)] = 1.0
    return pattern


# ConeBlocks against the same operation on their dense matrices: every
# entry within DENSE_TOL times the largest entry of its row's block times
# the 1-norm of the operand on that block (a few roundings of the block's
# eigenvalues, of order 1e-16, each)
DENSE_TOL = 1e-14


@BATCHED
@given(SPECS, SEEDS)
def test_cone_blocks_match_their_dense_matrices(spec, seed):
    rng = np.random.default_rng(seed)
    s, t = _interior(rng, spec), _interior(rng, spec)
    eps, c = float(rng.uniform(0.0, 1e-2)), float(rng.uniform(-3.0, 3.0))
    Ps, Pt = product_jacobian_blocks(s, t, spec)
    A = Ps + eps * Pt.shift(-eps)
    pattern = _block_pattern(spec)

    def row_scale(*blocks):
        return np.max([np.abs(B.dense()).max(axis=1, initial=0.0) for B in blocks], axis=0)[:, None]

    D = A.dense()
    assert np.array_equal(D, D.T) == all(B.ndim == 2 or np.array_equal(B, B.transpose(0, 2, 1))
                                         for B in A.blocks)
    for B, op in ((A + Pt, D + Pt.dense()), (c * A, c * D), (A.shift(c), D + c * np.eye(spec.dim)),
                  (A.symmetric_part(), 0.5 * (D + D.T))):
        assert np.all(np.abs(B.dense() - op) <= DENSE_TOL * row_scale(A, Pt, B) * pattern)
    _assert_same(A.row_max_abs(), np.abs(D).max(axis=1, initial=0.0))
    for v in (rng.standard_normal(spec.dim), rng.standard_normal((spec.dim, 3))):
        V = v if v.ndim == 2 else v[:, None]
        Av, x = A.matvec(v).reshape(V.shape), A.solve(v).reshape(V.shape)
        assert np.all(np.abs(Av - D @ V) <= DENSE_TOL * row_scale(A) * (pattern @ np.abs(V)))
        # the solve by its residual on the dense matrix
        bound = DENSE_TOL * (row_scale(A) * (pattern @ np.abs(x)) + pattern @ np.abs(V))
        assert np.all(np.abs(D @ x - V) <= bound)
    X = A.solve(Pt).dense()
    bound = DENSE_TOL * (row_scale(A) * (pattern @ np.abs(X)) + pattern @ np.abs(Pt.dense()))
    assert np.all(np.abs(D @ X - Pt.dense()) <= bound)
    # a dimension-2 block's eigenvectors are (1, +-1)
    for seg, sl in segment_slices(spec):
        if isinstance(seg, SecondOrder) and seg.dim == 2:
            pair = eigen_pair(t[sl]) + eps * (eigen_pair(s[sl]) - eps)
            for k, e in enumerate((np.array([1.0, 1.0]), np.array([1.0, -1.0]))):
                assert np.all(np.abs(D[sl, sl] @ e - pair[k] * e) <= DENSE_TOL * np.abs(pair).max())


@BATCHED
@given(SPECS, SEEDS)
def test_a_zero_eigenvalue_makes_the_blocks_singular(spec, seed):
    # a SecondOrder(2) segment of t on the boundary, t0 = |t1|, makes an
    # eigenvalue of its arrow matrix exactly zero, as a zero orthant entry
    # makes a zero diagonal entry: solves with the blocks raise LinAlgError
    rng = np.random.default_rng(seed)
    s, t = _interior(rng, spec), _interior(rng, spec)
    singular = [(seg, sl) for seg, sl in segment_slices(spec)
                if seg.dim and (isinstance(seg, Orthant) or seg.dim <= 2)]
    if not singular:
        return
    seg, sl = singular[rng.integers(len(singular))]
    t[sl.start] = abs(t[sl.start + 1]) if isinstance(seg, SecondOrder) and seg.dim == 2 else 0.0
    Ps, Pt = product_jacobian_blocks(s, t, spec)
    for operand in (rng.standard_normal(spec.dim), rng.standard_normal((spec.dim, 2)), Pt):
        with pytest.raises(np.linalg.LinAlgError):
            Ps.solve(operand)


@BATCHED
@given(SPECS, SEEDS)
def test_boundary_pairs_keep_the_small_eigenvalue_of_N(spec, seed):
    # s and t near opposite sides of the boundary of each SecondOrder(2)
    # segment: the reduced cone block N = sym(W^-1 P_t) at zero shift, as
    # kkt.assemble_symmetric forms it, has eigenvalues lambda(s) / lambda(t)
    # on (1, +-1)/sqrt(2), one of them small. Both match exact rational
    # arithmetic on the floats s and t to 1e-12 relative; the block's
    # entries alone would read the small one as 0
    rng = np.random.default_rng(seed)
    s, t = _interior(rng, spec), _interior(rng, spec)
    twos = [sl for seg, sl in segment_slices(spec) if isinstance(seg, SecondOrder) and seg.dim == 2]
    for sl in twos:
        sign = rng.choice([-1.0, 1.0])
        s[sl] = s[sl.start] * np.array([1.0, sign * (1.0 - 10.0 ** rng.uniform(-12, -6))])
        t[sl] = t[sl.start] * np.array([1.0, -sign * (1.0 - 10.0 ** rng.uniform(-12, -6))])
    Ps, Pt = product_jacobian_blocks(s, t, spec)
    N = (Ps + 0.0 * Pt.shift(-0.0)).solve(Pt.shift(-0.0)).symmetric_part().shift(0.0)
    for sl in twos:
        s0, s1, t0, t1 = (Fraction(float(u)) for u in (s[sl.start], s[sl.start + 1], t[sl.start], t[sl.start + 1]))
        exact = ((s0 + s1) / (t0 + t1), (s0 - s1) / (t0 - t1))
        assert min(exact) < Fraction(1, 10**5) * max(exact)
        for e, value in zip((np.array([1.0, 1.0]), np.array([1.0, -1.0])), exact):
            v = np.zeros(spec.dim)
            v[sl] = e
            got = N.matvec(v)[sl.start]
            assert abs(Fraction(float(got)) - value) <= Fraction(1, 10**12) * value


def test_degenerate_boundary_crossings_match_segment_loop():
    # every branch of the stable quadratic: q2 = 0 exactly and |q2| tiny
    # (linear), q1 = 0, a discriminant that rounds negative, and rays that
    # never cross
    cases = {d: [] for d in range(2, 7)}

    def add(a, da):
        cases[len(a)].append((np.asarray(a, float), np.asarray(da, float)))

    for sign in (1.0, -1.0):
        add([2.0, 0.5], [sign, 1.0])  # q2 = 0
        add([2.0, 0.5, -0.25], [5.0 * sign, 3.0, 4.0])  # q2 = 0
        add([2.0, 0.5], [sign, 1.0 + 2.0 ** -50])  # |q2| tiny, nonzero
        add([2.0, 0.0, 0.0], [0.0, sign, 0.5])  # q1 = 0
        add([2.0, 0.0, 0.0], [-0.0, sign, 0.5])  # q1 = -0.0
    rng = np.random.default_rng(0)
    negative = 0
    for d in range(2, 7):
        for _ in range(400):
            a = np.zeros(d)
            a[1:] = rng.standard_normal(d - 1)
            a[0] = np.linalg.norm(a[1:]) * (1.0 + 10.0 ** rng.uniform(-12, -1))
            lam = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
            da = lam * a  # q(alpha) = (1 + alpha lam)^2 q0: the discriminant is 0
            q2 = da[0] ** 2 - da[1:] @ da[1:]
            q1 = 2.0 * (a[0] * da[0] - a[1:] @ da[1:])
            q0 = a[0] ** 2 - a[1:] @ a[1:]
            negative += q1 * q1 - 4.0 * q2 * q0 < 0.0
            add(a, da)
    assert negative > 0
    for d in range(2, 7):  # general rays, for the last bit of every root
        for _ in range(1000):
            a = random_interior(rng, ConeSpec((SecondOrder(d),)), scale=float(10.0 ** rng.uniform(-3, 3)))
            add(a, rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3))
    for d, pairs in cases.items():
        A = np.array([a for a, _ in pairs])
        D = np.array([da for _, da in pairs])
        _assert_same(ipal.cone._soc_crossings(A, D), [soc_crossing(a, da) for a, da in pairs])
        spec = ConeSpec((SecondOrder(d),) * len(pairs))
        for tau in (1.0, 0.9):
            _assert_same(max_step_to_boundary(A.ravel(), D.ravel(), tau, spec),
                         max_step_loop(A.ravel(), D.ravel(), tau, spec))


def test_second_order_heads_square_as_the_segment_loop():
    # heads whose scalar square x ** 2 (C pow) and x * x differ in the last
    # bit: the batched barrier and boundary step must round as the loop does
    rng = np.random.default_rng(1)
    xs = rng.uniform(1.0, 4.0, 20000)
    heads = xs[np.array([x ** 2 for x in xs]) != xs * xs]
    assert heads.size >= 5
    # tails near the boundary, so that s1^2 - ||s2||^2 cancels and keeps
    # the last bit of the square
    angles = rng.uniform(0.0, 2.0 * np.pi, heads.size)
    tails = 0.999 * heads[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    a = np.column_stack([heads, tails]).ravel()
    da = np.column_stack([-heads[::-1], tails[::-1]]).ravel()
    A, D = a.reshape(-1, 3), da.reshape(-1, 3)
    one = ConeSpec((SecondOrder(3),))
    _assert_same([barrier_value(u, one) for u in A], [barrier_value_loop(u, one) for u in A])
    _assert_same(ipal.cone._soc_crossings(A, D), [soc_crossing(u, v) for u, v in zip(A, D)])


def _relative_asymmetry(blocks):
    """Per block of a (segments, k, k) stack, max |B - B'| / max |B|."""
    return np.abs(blocks - blocks.transpose(0, 2, 1)).max(axis=(1, 2)) / np.abs(blocks).max(axis=(1, 2))


def _reduced_cone_block(spec, s, t, ep, ed):
    Ps, Pt = product_jacobian_blocks(s, t, spec)
    Ptb = Pt.shift(-ed)
    return (Ps + ep * Ptb).solve(Ptb)


@pytest.mark.parametrize("shifts", [(0.0, 0.0), (1e-4, 1e-8), (1.0, 1e-8), (1e3, 1e-4)])
def test_reduced_cone_block_is_symmetric_on_two_dimensional_segments(shifts):
    # The reduced cone block is W^-1 P_tb, W = P_s + eps_p P_tb and P_tb =
    # P_t - eps_d I. The arrow matrix of a SecondOrder(2) segment is
    # u0 I + u1 [[0, 1], [1, 0]], and all such matrices commute, so W^-1
    # P_tb formed from the dense blocks is symmetric to round-off at any
    # shifts. They share the eigenvectors (1, +-1)/sqrt(2), in which
    # ConeBlocks holds them as eigenvalue pairs: symmetric blocks, which
    # symmetric_part leaves as they are, and which match the dense ones
    ep, ed = shifts
    rng = np.random.default_rng(26)
    spec = ConeSpec((SecondOrder(2),) * 200)
    rows = np.arange(spec.dim).reshape(-1, 2)
    for scale in (1e-3, 1.0, 1e3):
        s, t = random_interior(rng, spec, scale), random_interior(rng, spec, 1.0 / scale)
        Ps, Pt = cone_product_jacobians(s, t, spec)
        Ptb = Pt - ed * np.eye(spec.dim)
        W = Ps + ep * Ptb
        dense = np.linalg.solve(W[rows[:, :, None], rows[:, None, :]], Ptb[rows[:, :, None], rows[:, None, :]])
        assert _relative_asymmetry(dense).max() <= 1e-14
        M = _reduced_cone_block(spec, s, t, ep, ed)
        assert M.symmetric_part().blocks[0] is M.blocks[0]
        assert np.all(np.abs(M.full_blocks()[0] - dense) <= 1e-14 * np.abs(dense).max(axis=(1, 2))[:, None, None])


def test_reduced_cone_block_is_not_symmetric_from_dimension_three():
    # the arrows of two vectors of a SecondOrder(3) segment commute only
    # when their tails are parallel, so W^-1 P_t of a random interior pair
    # is far from symmetric: the symmetrization matters for these segments
    rng = np.random.default_rng(26)
    spec = ConeSpec((SecondOrder(3),) * 200)
    asymmetry = _relative_asymmetry(
        _reduced_cone_block(spec, random_interior(rng, spec), random_interior(rng, spec), 0.0, 0.0).blocks[0]
    )
    assert asymmetry.max() > 0.5 and np.median(asymmetry) > 0.1
