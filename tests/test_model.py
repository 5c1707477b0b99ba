import numpy as np
import pytest

from ipal.cone import ConeSpec, InvalidDimension, Orthant, SecondOrder
from ipal.model import (
    EvaluationFailure,
    Pattern,
    ProblemModel,
    evaluate,
    evaluate_values,
    validate_derivatives,
)


def quadratic_model(rng, n=4, m=2, cone=None, d=0):
    """Random model with quadratic objective and mildly nonlinear constraints."""
    cone = cone if cone is not None else ConeSpec((Orthant(2), SecondOrder(2)))
    p = cone.dim
    Q = rng.standard_normal((n, n))
    Q = 0.5 * (Q + Q.T)
    q = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    Gq = [0.5 * (M + M.T) for M in rng.standard_normal((m, n, n))]
    C = rng.standard_normal((p, n))
    e = rng.standard_normal(p)
    Hq = [0.5 * (M + M.T) for M in rng.standard_normal((p, n, n))]

    def objective(x, theta):
        return 0.5 * x @ Q @ x + q @ x

    def gradient(x, theta):
        return Q @ x + q

    def equality(x, theta):
        return A @ x - b + 0.5 * np.array([x @ G @ x for G in Gq])

    def equality_jacobian(x, theta):
        return A + np.array([G @ x for G in Gq])

    def cone_constraint(x, theta):
        return C @ x - e + 0.5 * np.array([x @ H @ x for H in Hq])

    def cone_jacobian(x, theta):
        return C + np.array([H @ x for H in Hq])

    def hessian(x, theta, y, z):
        H = Q.copy()
        for yi, G in zip(y, Gq):
            H += yi * G
        for zi, Hc in zip(z, Hq):
            H += zi * Hc
        return H

    return ProblemModel(
        n=n,
        m=m,
        p=p,
        d=d,
        cone=cone,
        objective=objective,
        objective_gradient=gradient,
        equality=equality,
        equality_jacobian=equality_jacobian,
        cone_constraint=cone_constraint,
        cone_jacobian=cone_jacobian,
        lagrangian_hessian=hessian,
    )


class TestEvaluate:
    def test_values_and_shapes(self):
        rng = np.random.default_rng(0)
        model = quadratic_model(rng)
        x = rng.standard_normal(model.n)
        cache = evaluate(model, x, np.zeros(0), np.zeros(model.m), np.zeros(model.p))
        assert cache.c_x.shape == (model.n,)
        assert cache.g_x.shape == (model.m, model.n)
        assert cache.h_x.shape == (model.p, model.n)
        assert np.array_equal(cache.L_xx, cache.L_xx.T)

    def test_values_only(self):
        rng = np.random.default_rng(1)
        model = quadratic_model(rng)
        x = rng.standard_normal(model.n)
        c, g, h = evaluate_values(model, x, np.zeros(0))
        cache = evaluate(model, x, np.zeros(0), np.zeros(model.m), np.zeros(model.p))
        assert c == cache.c
        assert np.array_equal(g, cache.g)
        assert np.array_equal(h, cache.h)

    def test_non_finite_raises(self):
        model = ProblemModel(
            n=1,
            m=0,
            p=0,
            cone=ConeSpec(),
            objective=lambda x, th: np.nan,
            objective_gradient=lambda x, th: np.zeros(1),
            lagrangian_hessian=lambda x, th, y, z: np.zeros((1, 1)),
        )
        with pytest.raises(EvaluationFailure):
            evaluate(model, np.zeros(1), np.zeros(0), np.zeros(0), np.zeros(0))

    def test_bad_shape_raises(self):
        model = ProblemModel(
            n=2,
            m=0,
            p=0,
            cone=ConeSpec(),
            objective=lambda x, th: 0.0,
            objective_gradient=lambda x, th: np.zeros(3),
            lagrangian_hessian=lambda x, th, y, z: np.zeros((2, 2)),
        )
        with pytest.raises(InvalidDimension):
            evaluate(model, np.zeros(2), np.zeros(0), np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize("value", [np.zeros(1), [1.0], np.zeros(2)])
    def test_objective_shape_checked(self, value):
        # a non-scalar objective is a dimension error naming the objective,
        # in evaluate_values
        model = ProblemModel(
            n=1, m=0, p=0, cone=ConeSpec(),
            objective=lambda x, th: value,
            objective_gradient=lambda x, th: np.zeros(1),
            lagrangian_hessian=lambda x, th, y, z: np.zeros((1, 1)),
        )
        with pytest.raises(InvalidDimension, match="objective"):
            evaluate_values(model, np.zeros(1), np.zeros(0))

    def test_cone_dim_mismatch(self):
        with pytest.raises(InvalidDimension):
            ProblemModel(
                n=1,
                m=0,
                p=2,
                cone=ConeSpec((Orthant(1),)),
                objective=lambda x, th: 0.0,
                objective_gradient=lambda x, th: np.zeros(1),
                cone_constraint=lambda x, th: np.zeros(2),
                cone_jacobian=lambda x, th: np.zeros((2, 1)),
                lagrangian_hessian=lambda x, th, y, z: np.zeros((1, 1)),
            )


class TestValidateDerivatives:
    def test_analytic_model_passes(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model = quadratic_model(rng)
            x = rng.standard_normal(model.n)
            y = rng.standard_normal(model.m)
            z = rng.standard_normal(model.p)
            report = validate_derivatives(model, x, np.zeros(0), y, z)
            assert report.passed, str(report)

    def test_wrong_gradient_fails(self):
        model = ProblemModel(
            n=1,
            m=0,
            p=0,
            cone=ConeSpec(),
            objective=lambda x, th: float(x[0] ** 2),
            objective_gradient=lambda x, th: 3.0 * x,
            lagrangian_hessian=lambda x, th, y, z: 2.0 * np.eye(1),
        )
        report = validate_derivatives(model, np.ones(1), np.zeros(0), np.zeros(0), np.zeros(0))
        assert not report.passed
        assert "FAIL" in str(report)

    def test_parameter_jacobians_checked(self):
        def objective(x, th):
            return float(th[0] * x[0] ** 2)

        model = ProblemModel(
            n=1,
            m=1,
            p=0,
            d=1,
            cone=ConeSpec(),
            objective=objective,
            objective_gradient=lambda x, th: np.array([2.0 * th[0] * x[0]]),
            equality=lambda x, th: np.array([x[0] - th[0]]),
            equality_jacobian=lambda x, th: np.ones((1, 1)),
            lagrangian_hessian=lambda x, th, y, z: np.array([[2.0 * th[0]]]),
            parameter_jacobians=lambda x, th, y, z: (
                np.array([[2.0 * x[0]]]),
                np.array([[-1.0]]),
                np.zeros((0, 1)),
            ),
        )
        report = validate_derivatives(
            model, np.array([0.7]), np.array([1.3]), np.array([0.4]), np.zeros(0)
        )
        assert report.passed, str(report)


def test_transpose_order_of_symmetric_and_non_symmetric_patterns():
    np.testing.assert_array_equal(Pattern((2, 2), [0, 1, 0], [1, 0, 0]).transpose_order, [1, 0, 2])
    # the mirror of (0, 1) sorts above every stored key, (1, 0) below
    for rows, cols in (([0], [1]), ([1], [0]), ([0, 1], [1, 1])):
        with pytest.raises(InvalidDimension, match="pattern is not symmetric"):
            Pattern((2, 2), rows, cols).transpose_order
