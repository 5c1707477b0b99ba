import numpy as np
import pytest

from ipal.cone import (
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
)


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
    for seg, sl in spec.slices():
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
            seg, sl = next(iter(spec.slices()))
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
        a = interior_initialization(np.zeros(4), spec, margin=1.0)
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
        s = interior_initialization(np.array([0.0, 1.0]), spec, margin=0.1)
        assert np.allclose(s, [1.1, 1.0])

    def test_unchanged_when_comfortable(self):
        spec = ConeSpec((Orthant(2), SecondOrder(2)))
        h0 = np.array([0.5, 2.0, 3.0, 1.0])
        assert np.array_equal(interior_initialization(h0, spec, margin=0.1), h0)

    def test_margin_floor_for_wild_infeasibility(self):
        spec = ConeSpec((Orthant(1),))
        s = interior_initialization(np.array([-1e12]), spec, margin=1e-3)
        assert s[0] == 1.0

    def test_always_interior_with_margin(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            spec = random_cone(rng)
            h0 = rng.standard_normal(spec.dim) * 10.0 ** rng.integers(-2, 3)
            margin = rng.uniform(1e-3, 2.0)
            s = interior_initialization(h0, spec, margin=margin)
            assert in_cone(s, spec, strict=True)
            for seg, sl in spec.slices():
                v = s[sl]
                if isinstance(seg, SecondOrder) and seg.dim >= 2:
                    slack = v[0] - np.linalg.norm(v[1:])
                else:
                    slack = v.min()
                assert slack >= margin * (1.0 - 1e-12)
