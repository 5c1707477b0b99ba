"""The stage-banded KKT path of transcribed problems against its dense
references in ``helpers``: evaluation, the Schur complement C of the
reduced matrix K, block products and the blockwise Newton operator; and a
transcribed solve that builds no matrix of the KKT system's order."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import ipal.kkt
from helpers import (
    dense_reduced_matrix,
    dense_schur_complement,
    dense_transcription,
    lower_band,
    random_iterate,
    tracking_problem,
    trajectory_tracking,
)
from ipal.bench import autotune
from ipal.bench.problems import REGISTRY, _integrator_trajopt_problem
from ipal.kkt import assemble_symmetric, full_jacobian, jacobian_apply
from ipal.linsolve import DUAL_SHIFT, RegularizationState, factorize
from ipal.model import InvalidDimension, StageMatrix, evaluate
from ipal.solver import SolverOptions, solve
from ipal.trajopt import transcribe

CASES = ["tracking-10", "tracking-50", "tracking-100", "double-integrator-trajopt", "mpc-autotune"]
GENERAL = sorted(name for name, prob in REGISTRY.items() if prob.model.stage_blocks is None)
SHIFTS = [RegularizationState(), RegularizationState(eps_p=1e-3, eps_d=1e-6)]


def _case(name):
    """(problem, model, theta) with a random iterate of the model."""
    if name.startswith("tracking-"):
        problem = tracking_problem(int(name.split("-")[1]))
        theta = np.array([0.3, -0.2])
    elif name == "double-integrator-trajopt":
        problem, theta = _integrator_trajopt_problem(), REGISTRY[name].theta
    else:
        problem = autotune.policy_problem(autotune.reference_states()[1 : 1 + autotune.HORIZON])
        theta = REGISTRY[name].theta
    model = transcribe(problem)
    point, outer = random_iterate(np.random.default_rng(len(name) + model.n), model)
    return problem, model, theta, point, outer


def _close(got, want, tol=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= tol * (1.0 + np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("name", CASES)
def test_evaluation_matches_dense_transcription(name):
    problem, model, theta, point, _ = _case(name)
    cache = evaluate(model, point.x, theta, point.y, point.z)
    ref = dense_transcription(problem, point.x, theta, point.y, point.z)
    G, H, L = ref.G, ref.H, ref.L
    assert isinstance(cache.g_x, StageMatrix) and isinstance(cache.L_xx, StageMatrix)
    assert isinstance(cache.h_x, StageMatrix) or model.p == 0
    np.testing.assert_array_equal(np.asarray(cache.g_x), G)
    np.testing.assert_array_equal(np.asarray(cache.h_x), H)
    np.testing.assert_array_equal(np.asarray(cache.L_xx), 0.5 * (L + L.T))
    hessian = model.lagrangian_hessian(point.x, theta, point.y, point.z)
    np.testing.assert_array_equal(np.asarray(hessian), L)
    assert hessian.shape == L.shape


def _check_schur(rsys, K, n):
    """rsys.C is the Schur complement of the dense K onto its first n rows,
    in lower band storage in the order of rsys.plan, when -K's dual block
    is positive definite, and None otherwise."""
    definite = np.linalg.eigvalsh(-K[n:, n:]).min(initial=np.inf) > 0.0
    assert (rsys.C is not None) == definite
    if definite:
        order = rsys.plan.order
        C = dense_schur_complement(K, n)[np.ix_(order, order)]
        kd = rsys.C.shape[0] - 1
        assert np.abs(np.tril(C, -kd - 1)).max(initial=0.0) == 0.0
        assert np.abs(rsys.C - lower_band(C, kd)).max() <= 1e-12 * (1.0 + np.abs(C).max())


@pytest.mark.parametrize("name", CASES)
def test_reduced_matrix_matches_dense_assembly(name):
    # C follows the stage order; with the multiplier tracking the dual,
    # K loses the penalty term on its equality-dual diagonal, and C is
    # built with the dual shift added there
    _, model, theta, point, outer = _case(name)
    cache = evaluate(model, point.x, theta, point.y, point.z)
    n = model.n
    for reg in SHIFTS:
        rsys = assemble_symmetric(model, point, outer, cache, reg)
        order = np.concatenate(model.stage_blocks)
        np.testing.assert_array_equal(rsys.plan.order, order[order < n])
        _check_schur(rsys, dense_reduced_matrix(model, point, outer, reg, cache), n)
        tracked = assemble_symmetric(model, point, outer, cache, reg, tracks_multiplier=True)
        K = dense_reduced_matrix(model, point, outer, reg, cache, tracks_multiplier=True)
        K[np.arange(n, n + model.m), np.arange(n, n + model.m)] -= DUAL_SHIFT
        _check_schur(tracked, K, n)


@pytest.mark.parametrize("name", GENERAL)
def test_general_models_write_dense_derivatives_as_blocks(name):
    # a general model's C is one band in x's own order, summed from every
    # entry of its dense derivative matrices
    model = dataclasses.replace(REGISTRY[name].model)
    theta = REGISTRY[name].theta
    point, outer = random_iterate(np.random.default_rng(len(name)), model)
    cache = evaluate(model, point.x, theta, point.y, point.z)
    for reg in SHIFTS:
        rsys = assemble_symmetric(model, point, outer, cache, reg)
        _check_schur(rsys, dense_reduced_matrix(model, point, outer, reg, cache), model.n)
    np.testing.assert_array_equal(model.schur_plan.order, np.arange(model.n))


@pytest.mark.parametrize("name", ["tracking-12"] + GENERAL)
def test_band_storage_is_the_lu_input(name):
    # C is stored as dpbtrf reads it: with i >= j the places of two x in
    # the stage order, entry (i, j) of C at row i - j, column j of the (kd +
    # 1, n) array, every entry of the dense reference within kd of the
    # diagonal, and zeros past the end of each diagonal. Factoring leaves
    # the storage bitwise intact
    if name in REGISTRY:
        model, theta = dataclasses.replace(REGISTRY[name].model), REGISTRY[name].theta
        point, outer = random_iterate(np.random.default_rng(len(name)), model)
    else:
        _, model, theta, point, outer = _case(name)
    cache = evaluate(model, point.x, theta, point.y, point.z)
    rsys = assemble_symmetric(model, point, outer, cache, SHIFTS[1])
    C = rsys.schur()
    n, kd = model.n, C.shape[0] - 1
    order = rsys.plan.order
    grouped = dense_schur_complement(dense_reduced_matrix(model, point, outer, SHIFTS[1], cache), n)
    grouped = grouped[np.ix_(order, order)]
    expected = np.zeros((kd + 1, n))
    for j in range(n):
        for i in range(j, n):
            if i - j <= kd:
                expected[i - j, j] = grouped[i, j]
            else:
                assert grouped[i, j] == 0.0
    assert np.abs(C - expected).max() <= 1e-12 * (1.0 + np.abs(grouped).max())
    for k in range(1, kd + 1):
        assert not C[k, n - k :].any()
    stored = C.copy()
    factorize(C)
    assert C.tobytes() == stored.tobytes()


@pytest.mark.parametrize("name", CASES)
def test_block_products_match_dense(name):
    _, model, theta, point, outer = _case(name)
    rng = np.random.default_rng(7)
    cache = evaluate(model, point.x, theta, point.y, point.z)
    for A in (cache.g_x, cache.h_x, cache.L_xx):
        D = np.asarray(A)
        for B, Bd in ((A, D), (A.T, D.T)):
            for u in (rng.standard_normal(Bd.shape[1]), rng.standard_normal((Bd.shape[1], 5))):
                _close(B @ u, Bd @ u)
        for axis in (0, 1):
            for initial in (0.0, 1.0):
                np.testing.assert_array_equal(
                    abs(A).max(axis=axis, initial=initial), np.abs(D).max(axis=axis, initial=initial)
                )


@pytest.mark.parametrize("name", CASES)
def test_jacobian_apply_matches_dense_jacobian(name):
    _, model, theta, point, outer = _case(name)
    rng = np.random.default_rng(8)
    cache = evaluate(model, point.x, theta, point.y, point.z)
    for reg in SHIFTS:
        rsys = assemble_symmetric(model, point, outer, cache, reg)
        J = full_jacobian(model, point, outer, cache, reg)
        for dw in (rng.standard_normal(J.shape[0]), rng.standard_normal((J.shape[0], 4))):
            _close(jacobian_apply(rsys, cache, outer.rho, dw), J @ dw)


def test_transcribed_solve_builds_no_kkt_sized_matrix(monkeypatch):
    # every dense view of the banded objects, and the dense Jacobian, is
    # counted; none may be built. The traced peak memory stays linear in
    # N = n + m + p: an N x N array alone would be 8 N^2 bytes, 14,400 N at
    # this size
    model, theta = transcribe(tracking_problem(200)), np.array([0.3, -0.2])
    x0 = np.zeros(model.n)
    N = model.n + model.m + model.p
    dense_views = []

    def counted(cls_or_module, name):
        original = getattr(cls_or_module, name)

        def wrapper(*args, **kwargs):
            dense_views.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cls_or_module, name, wrapper)

    counted(StageMatrix, "__array__")
    counted(ipal.kkt, "full_jacobian")
    solve(model, x0, theta)  # the first assembly builds the model's Schur plan
    tracemalloc.start()
    try:
        sol = solve(model, x0, theta, SolverOptions(record_trace=True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.solved
    assert dense_views == []
    assert peak < 2000 * N


def test_dense_matrices_outside_the_stage_band_are_rejected():
    # a model that declares a stage order but whose callbacks return dense
    # matrices: their entries leave the band of that order, which the first
    # assembly reports instead of factoring the system densely
    model, x0, theta = trajectory_tracking(10)

    def dense(fn):
        return lambda *args: np.asarray(fn(*args))

    matrices = ("equality_jacobian", "cone_jacobian", "lagrangian_hessian")
    dense_model = dataclasses.replace(model, **{f: dense(getattr(model, f)) for f in matrices})
    assert solve(model, x0, theta).solved
    assert model.schur_plan is not None and len(model.stage_blocks) > 1
    with pytest.raises(InvalidDimension, match="outside the band of stage_blocks"):
        solve(dense_model, x0, theta)
