import numpy as np
import pytest
from scipy.linalg import ldl

import ipal.linsolve
from helpers import trajectory_tracking
from ipal.linsolve import (
    BlockTridiagonal,
    InertiaCorrectionFailure,
    NumericalFailure,
    RegularizationState,
    correct_inertia,
    factorize,
    solve_refined,
)
from ipal.solver import solve


def refined(fact, K, rhs, max_refine=10):
    """Solution of K x = rhs by solve_refined with the factors of ``fact``."""
    return solve_refined(lambda x: K @ x, fact.solve, rhs, max_refine)[0]


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def known_inertia_matrix(rng, n, n_pos, n_neg):
    """Congruence transform of a signed diagonal: inertia is exact (Sylvester)."""
    signs = np.concatenate(
        [np.ones(n_pos), -np.ones(n_neg), np.zeros(n - n_pos - n_neg)]
    )
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mags = rng.uniform(0.5, 2.0, n) * signs
    return (Q * mags) @ Q.T


def loop_reference(K, zero_tol=1e-11):
    """Inertia of K by a pivot-by-pivot loop over the block diagonal of
    scipy's LDL' factors; the vectorized inertia must reproduce it exactly."""
    d = ldl(K, lower=True)[1]
    counts = [0, 0, 0]
    i = 0
    while i < len(K):
        if i + 1 < len(K) and d[i + 1, i] != 0.0:
            blk = d[i : i + 2, i : i + 2]
            mean = 0.5 * (blk[0, 0] + blk[1, 1])
            rad = np.hypot(0.5 * (blk[0, 0] - blk[1, 1]), blk[0, 1])
            eigs = (mean - rad, mean + rad)
            i += 2
        else:
            eigs = (d[i, i],)
            i += 1
        for ev in eigs:
            counts[2 if abs(ev) <= zero_tol else 0 if ev > 0.0 else 1] += 1
    return tuple(counts)


class TestFactorize:
    def test_matches_pivot_loop_exactly(self):
        rng = np.random.default_rng(5)
        two_by_two = 0
        for _ in range(60):
            n = int(rng.integers(1, 15))
            n_pos = int(rng.integers(0, n + 1))
            if rng.random() < 0.5:
                K = known_inertia_matrix(rng, n, n_pos, n - n_pos)
            else:
                K = random_symmetric(rng, n)
            fact = factorize(K)
            assert fact.inertia == loop_reference(K)
            for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                x = refined(fact, K, rhs)
                assert np.abs(K @ x - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())
            two_by_two += np.count_nonzero(np.diagonal(ldl(K, lower=True)[1], -1))
        assert two_by_two > 0  # both pivot kinds were exercised

    def test_solve_matches_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            K = random_symmetric(rng, n)
            b = rng.standard_normal(n)
            fact = factorize(K)
            x = refined(fact, K, b)
            assert np.abs(K @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())

    def test_matrix_rhs(self):
        rng = np.random.default_rng(1)
        K = random_symmetric(rng, 6)
        B = rng.standard_normal((6, 3))
        X = refined(factorize(K), K, B)
        assert np.abs(K @ X - B).max() <= 1e-9

    def test_inertia_exact_on_constructed_matrices(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            n_pos = int(rng.integers(0, n + 1))
            n_neg = int(rng.integers(0, n - n_pos + 1))
            K = known_inertia_matrix(rng, n, n_pos, n_neg)
            fact = factorize(K)
            assert fact.inertia == (n_pos, n_neg, n - n_pos - n_neg)

    def test_singular_kkt_reports_zero(self):
        rng = np.random.default_rng(3)
        H = random_symmetric(rng, 4) + 4.0 * np.eye(4)
        A = rng.standard_normal((1, 4))
        A2 = np.vstack([A, A])  # duplicated row, no dual shift: singular
        K = np.block([[H, A2.T], [A2, np.zeros((2, 2))]])
        fact = factorize(K)
        assert fact.inertia[2] >= 1

    @pytest.mark.parametrize("n", [10, 65, 200])
    def test_pivots_match_scipy_ldl_bitwise(self, n):
        # with the workspace LAPACK asks for, dsytrf runs the same blocked
        # code as scipy.linalg.ldl, also past one LAPACK block of columns
        K = random_symmetric(np.random.default_rng(n), n)
        lu, _ = factorize(K)._pivots[0]
        assert np.array_equal(lu.diagonal(), np.diagonal(ldl(K, lower=True)[1]))

    @pytest.mark.parametrize(
        "K, inertia",
        [
            (np.diag([1.0, 0.0]), (1, 0, 1)),
            (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), (1, 1, 1)),
        ],
    )
    def test_exact_zero_pivot_counted_and_solve_refused(self, K, inertia):
        fact = factorize(K)
        assert fact.inertia == inertia
        with pytest.raises(NumericalFailure):
            fact.solve(np.ones(K.shape[0]))

    def test_empty_matrix(self):
        fact = factorize(np.zeros((0, 0)))
        assert fact.inertia == (0, 0, 0)
        assert fact.solve(np.zeros(0)).shape == (0,)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalFailure):
            factorize(np.array([[np.nan]]))

    def test_refinement_against_other_matrix(self):
        # factors of a nearby matrix act as a preconditioner
        rng = np.random.default_rng(4)
        K = random_symmetric(rng, 8) + 8.0 * np.eye(8)
        K2 = K + 1e-3 * np.eye(8)
        b = rng.standard_normal(8)
        x = refined(factorize(K), K2, b, max_refine=30)
        assert np.abs(K2 @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


class TestSolveRefined:
    def test_stops_at_the_first_pass_that_does_not_reduce_the_residual(self):
        # an approximate inverse that returns zero cannot improve x = 0: one
        # pass is tried and the first iterate is kept
        calls = []

        def solve(b):
            calls.append(b)
            return np.zeros_like(b)

        rhs = np.array([1.0, -2.0])
        x, err, res, passes = solve_refined(lambda v: 3.0 * v, solve, rhs)
        assert len(calls) == 2 and passes == 1
        assert np.array_equal(x, np.zeros(2)) and err == 2.0 and np.array_equal(res, -rhs)

    def test_reducing_passes_continue_up_to_max_refine(self):
        # the inverse of 2.5 x for 3 x contracts the residual by 0.2 a pass,
        # which reaches 1e-12 only after 17 passes
        calls = []

        def solve(b):
            calls.append(b)
            return b / 2.5

        rhs = np.array([1.0, -2.0])
        x, err, res, passes = solve_refined(lambda v: 3.0 * v, solve, rhs, max_refine=10)
        assert passes == 10 and len(calls) == 11
        assert np.array_equal(res, 3.0 * x - rhs) and err == np.abs(res).max()
        assert err == pytest.approx(2.0 * 0.2 ** 11)

    def test_exact_inverse_takes_no_pass(self):
        K = np.array([[4.0, 1.0], [1.0, -3.0]])
        rhs = np.array([[1.0, 0.0], [2.0, 1.0]])
        x, err, _, passes = solve_refined(lambda v: K @ v, factorize(K).solve, rhs)
        assert passes == 0 and err <= 1e-12 * 3.0
        assert x.shape == rhs.shape

    def test_non_finite_residual_raises(self):
        with pytest.raises(NumericalFailure):
            solve_refined(lambda v: v * np.inf, lambda b: b, np.ones(2))


class TestCorrectInertia:
    @staticmethod
    def kkt_assemble(H, A):
        def assemble(ep, ed):
            n, m = H.shape[0], A.shape[0]
            return np.block(
                [[H + ep * np.eye(n), A.T], [A, -ed * np.eye(m)]]
            )

        return assemble

    def test_no_shift_when_inertia_correct(self):
        rng = np.random.default_rng(5)
        H = random_symmetric(rng, 4) + 4.0 * np.eye(4)
        A = rng.standard_normal((2, 4))
        fact, reg = correct_inertia(self.kkt_assemble(H, A), (4, 2, 0), RegularizationState())
        assert reg.eps_p == 0.0 and reg.eps_d == 0.0
        assert fact.inertia == (4, 2, 0)

    def test_indefinite_hessian_corrected(self):
        rng = np.random.default_rng(6)
        H = random_symmetric(rng, 4) - 3.0 * np.eye(4)
        A = rng.standard_normal((2, 4))
        fact, reg = correct_inertia(self.kkt_assemble(H, A), (4, 2, 0), RegularizationState())
        assert fact.inertia == (4, 2, 0)
        assert reg.eps_p > 0.0
        assert reg.last_eps_p == reg.eps_p

    def test_duplicated_rows_switch_on_dual_shift(self):
        rng = np.random.default_rng(7)
        H = random_symmetric(rng, 4) + 4.0 * np.eye(4)
        a = rng.standard_normal((1, 4))
        A = np.vstack([a, a])
        fact, reg = correct_inertia(self.kkt_assemble(H, A), (4, 2, 0), RegularizationState())
        assert fact.inertia == (4, 2, 0)
        assert reg.eps_d > 0.0

    def test_reuse_shrinks_first_trial(self):
        H = np.diag([-1e-6, 1.0, 1.0])
        A = np.zeros((0, 3))
        assemble = self.kkt_assemble(H, A)
        fact, reg = correct_inertia(assemble, (3, 0, 0), RegularizationState())
        assert reg.eps_p == pytest.approx(1e-4)
        fact, reg2 = correct_inertia(assemble, (3, 0, 0), reg)
        assert reg2.eps_p == pytest.approx(1e-4 / 3.0)

    def test_unreachable_target_raises(self):
        # adding eps_p only pushes eigenvalues up; an all-negative target fails
        assemble = lambda ep, ed: np.eye(3) + ep * np.eye(3)
        with pytest.raises(InertiaCorrectionFailure):
            correct_inertia(assemble, (0, 3, 0), RegularizationState())


def block_tridiagonal(rng, sizes, signs):
    """K = L D L' with L unit block lower bidiagonal and D block diagonal
    with eigenvalue signs ``signs`` (Sylvester: K has D's inertia), rows
    shuffled; returns K and its row blocks in block tridiagonal order."""
    n = sum(sizes)
    starts = np.cumsum([0] + list(sizes))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    D = np.zeros((n, n))
    L = np.eye(n)
    for k, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        q, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
        D[lo:hi, lo:hi] = (q * (rng.uniform(0.5, 2.0, hi - lo) * signs[lo:hi])) @ q.T
        if k + 1 < len(sizes):
            L[hi : starts[k + 2], lo:hi] = rng.standard_normal((starts[k + 2] - hi, hi - lo))
    K = L @ D @ L.T
    K = 0.5 * (K + K.T)
    order = rng.permutation(n)  # row i of K becomes row position[i]
    position = np.argsort(order)
    blocks = tuple(position[lo:hi] for lo, hi in zip(starts[:-1], starts[1:]))
    return K[np.ix_(order, order)], blocks


class TestBlockedFactorize:
    def test_inertia_and_solve_on_constructed_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            sizes = list(rng.integers(1, 7, size=int(rng.integers(2, 6))))
            n = sum(sizes)
            signs = rng.choice([-1.0, 1.0], size=n)
            K, blocks = block_tridiagonal(rng, sizes, signs)
            band = BlockTridiagonal.from_dense(K, blocks)
            fact = factorize(band)
            assert fact.blocked
            assert fact.inertia == (int((signs > 0).sum()), int((signs < 0).sum()), 0)
            for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                expected = np.linalg.solve(K, rhs)
                got = refined(fact, K, rhs)
                assert np.abs(got - expected).max() <= 1e-8 * (1.0 + np.abs(expected).max())

    def test_zero_pivot_block_falls_back_to_dense(self):
        rng = np.random.default_rng(32)
        signs = np.array([1.0, -1.0, 1.0, 0.0, 1.0, -1.0, 1.0, 1.0])
        K, blocks = block_tridiagonal(rng, [3, 3, 2], signs)
        fact = factorize(BlockTridiagonal.from_dense(K, blocks))
        assert not fact.blocked
        assert fact.inertia == factorize(K).inertia
        assert fact.inertia[2] == 1

    def test_one_block_is_dense(self):
        # one group, in the original or a permuted order, is swept as one
        # pivot block in that order
        rng = np.random.default_rng(33)
        K = random_symmetric(rng, 5)
        b = rng.standard_normal(5)
        for index in (np.arange(5), rng.permutation(5)):
            fact = factorize(BlockTridiagonal.from_dense(K, (index,)))
            assert not fact.blocked
            assert fact.inertia == factorize(K).inertia
            x = refined(fact, K, b)
            assert np.abs(K @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            BlockTridiagonal.from_dense(np.eye(4), (np.arange(2), np.arange(2, 3)))
        K = np.eye(4)
        K[0, 3] = K[3, 0] = np.nan  # in the sub-diagonal block of the groups below
        with pytest.raises(NumericalFailure):
            factorize(BlockTridiagonal.from_dense(K, (np.arange(2), np.arange(2, 4))))

    @pytest.mark.parametrize("T", [10, 50, 100, 200])
    def test_matches_dense_along_tracking_solves(self, monkeypatch, T):
        # every 8th reduced KKT matrix factored during the solve, and the last
        model, x0, theta = trajectory_tracking(T)
        captured, seen = [], {"count": 0, "last": None}
        original = ipal.linsolve.factorize

        def capture(K, zero_tol=None):
            if seen["count"] % 8 == 0:
                captured.append(K)
            seen["count"] += 1
            seen["last"] = K
            return original(K, zero_tol)

        monkeypatch.setattr(ipal.linsolve, "factorize", capture)
        assert solve(model, x0, theta).solved
        monkeypatch.undo()
        rng = np.random.default_rng(T)
        for K in captured + [seen["last"]]:
            K = np.asarray(K)
            blocked = factorize(BlockTridiagonal.from_dense(K, model.stage_blocks))
            dense = factorize(K)
            assert blocked.blocked
            assert blocked.inertia == dense.inertia
            for rhs in (rng.standard_normal(K.shape[0]), rng.standard_normal((K.shape[0], 5))):
                expected = refined(dense, K, rhs)
                scale = np.abs(expected).max()
                # late in the solve K has a condition number near 1e9, and
                # two dense solvers (Bunch-Kaufman and LU) already differ by
                # more than 1e-10 relative; there the blocked solve must stay
                # within ten times that difference
                spread = np.abs(np.linalg.solve(K, rhs) - expected).max() / scale
                err = np.abs(refined(blocked, K, rhs) - expected).max() / scale
                assert err <= max(1e-10, 10.0 * spread)
