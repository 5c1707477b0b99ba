import numpy as np
import pytest
from scipy.linalg import ldl

import ipal.linsolve
from helpers import dense_inertia, lower_band, trajectory_tracking
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


def with_schur(K, n):
    """K = [[P, A'], [A, -N]], N positive definite, as one group that
    carries its Schur complement C = P + A'N^{-1}A onto the first n rows."""
    band = BlockTridiagonal.from_dense(K, (np.arange(K.shape[0]),))
    C = K[:n, :n] - K[:n, n:] @ np.linalg.solve(K[n:, n:], K[n:, :n]) if K.shape[0] > n else K
    band.schur = lower_band(C, n - 1)
    return band


def random_kkt(rng, n, m, C_signs=None):
    """K = [[P, A'], [A, -N]] with N positive definite; with ``C_signs``,
    P is chosen so that C = P + A'N^{-1}A has eigenvalues of those signs,
    and by Haynsworth K has inertia (pos(C), m + neg(C), 0)."""
    A = rng.standard_normal((m, n))
    N = known_inertia_matrix(rng, m, m, 0)
    if C_signs is None:
        P = random_symmetric(rng, n) + rng.uniform(-1.0, 4.0) * np.eye(n)
    else:
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        P = (Q * (rng.uniform(0.5, 2.0, n) * C_signs)) @ Q.T - A.T @ np.linalg.solve(N, A)
        P = 0.5 * (P + P.T)
    return np.block([[P, A.T], [A, -N]])


class TestFactorize:
    def test_matches_pivot_loop_exactly(self):
        # a quasi-definite K carrying its Schur complement is certified
        # exactly when the pivot loop over scipy's LDL' factors counts the
        # target inertia; both verdicts occur, and the band LU solves K
        rng = np.random.default_rng(5)
        verdicts = set()
        for _ in range(60):
            n, m = int(rng.integers(1, 9)), int(rng.integers(0, 7))
            K = random_kkt(rng, n, m)
            fact = factorize(with_schur(K, n))
            reference = loop_reference(K)
            assert fact.certified == (reference == (n, m, 0))
            if fact.certified:
                assert fact.inertia == reference == dense_inertia(K)
            verdicts.add(fact.certified)
            for rhs in (rng.standard_normal(n + m), rng.standard_normal((n + m, 3))):
                x = refined(fact, K, rhs)
                assert np.abs(K @ x - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())
        assert verdicts == {True, False}

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
        # C with known signs: K is certified, with the inertia of its dense
        # eigenvalues, exactly when C is positive definite
        rng = np.random.default_rng(2)
        for _ in range(100):
            n, m = int(rng.integers(1, 8)), int(rng.integers(0, 5))
            signs = rng.choice([-1.0, 1.0], size=n) if rng.random() < 0.5 else np.ones(n)
            K = random_kkt(rng, n, m, signs)
            n_pos = int((signs > 0).sum())
            assert dense_inertia(K) == (n_pos, m + n - n_pos, 0)
            fact = factorize(with_schur(K, n))
            assert fact.certified == (n_pos == n)
            if fact.certified:
                assert fact.inertia == (n, m, 0)

    def test_singular_kkt_reports_zero(self):
        # a duplicated row with no dual shift: the dense reference counts a
        # zero eigenvalue and the band LU meets an exactly zero pivot
        rng = np.random.default_rng(3)
        H = random_symmetric(rng, 4) + 4.0 * np.eye(4)
        A = rng.standard_normal((1, 4))
        A2 = np.vstack([A, A])  # duplicated row, no dual shift: singular
        K = np.block([[H, A2.T], [A2, np.zeros((2, 2))]])
        assert loop_reference(K)[2] >= 1
        with pytest.raises(NumericalFailure):
            factorize(K)

    @pytest.mark.parametrize(
        "K, inertia",
        [
            (np.diag([1.0, 0.0]), (1, 0, 1)),
            (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), (1, 1, 1)),
        ],
    )
    def test_exact_zero_pivot_counted_and_solve_refused(self, K, inertia):
        # the dense reference counts the zero; the band LU refuses to factor
        assert loop_reference(K) == dense_inertia(K) == inertia
        with pytest.raises(NumericalFailure):
            factorize(K)

    def test_empty_matrix(self):
        # an array carries no Schur complement, so no inertia
        fact = factorize(np.zeros((0, 0)))
        assert fact.inertia is None
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
        # a Krylov method needs one step per distinct eigenvalue of the
        # preconditioned operator, here 6: capped at 3, it takes 3 steps,
        # each one solve and one product, and one more product gives the
        # residual of the x it returns
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        A = (Q * np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])) @ Q.T
        solves, products = [], []

        def solve(b):
            solves.append(b)
            return b.copy()

        def apply(v):
            products.append(v)
            return A @ v

        rhs = rng.standard_normal(6)
        x, err, res, passes = solve_refined(apply, solve, rhs, max_refine=3)
        assert passes == 3 and len(solves) == 4 and len(products) == 5
        assert np.array_equal(res, A @ x - rhs)
        assert err == np.abs(res).max() > 1e-12 * (1.0 + np.abs(rhs).max())

    def test_krylov_steps_converge_where_the_inverse_alone_diverges(self):
        # with the inverse of 2.5 I for a nonsymmetric operator whose
        # eigenvalues run from 0.5 to 6, the plain iteration x <- x -
        # solve(A x - b) has a contraction factor above 1 and diverges;
        # GMRES reaches the tolerance in at most the dimension in steps
        rng = np.random.default_rng(9)
        n = 8
        V = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        A = V @ np.diag(np.linspace(0.5, 6.0, n)) @ np.linalg.inv(V)
        solve = lambda b: b / 2.5
        assert np.abs(np.linalg.eigvals(np.eye(n) - A / 2.5)).max() > 1.0
        rhs = rng.standard_normal(n)
        x, err, _, passes = solve_refined(lambda v: A @ v, solve, rhs, max_refine=50)
        assert passes <= n
        assert err <= 1e-12 * (1.0 + np.abs(rhs).max())
        assert np.abs(A @ x - rhs).max() <= 1e-11 * (1.0 + np.abs(rhs).max())

    def test_lockstep_columns_match_one_at_a_time(self):
        # each column runs its own Krylov space; a matrix right-hand side
        # takes one solve and one product of all columns per step and gives
        # each column's one-at-a-time result
        rng = np.random.default_rng(10)
        n = 7
        A = random_symmetric(rng, n) + 4.0 * np.eye(n)
        approx = np.linalg.inv(A + 0.5 * random_symmetric(rng, n))
        rhs = rng.standard_normal((n, 3)) * np.array([1.0, 1e-3, 1e3])
        calls = []

        def solve(b):
            calls.append(b.shape)
            return approx @ b

        x, err, res, passes = solve_refined(lambda v: A @ v, solve, rhs, max_refine=4, tol=0.0)
        assert passes == 4 and calls == [(n, 3)] * 5
        for j in range(3):
            xj, _, resj, passes_j = solve_refined(lambda v: A @ v, solve, rhs[:, j], max_refine=4, tol=0.0)
            assert passes_j == passes
            assert np.abs(x[:, j] - xj).max() <= 1e-13 * np.abs(xj).max()
            assert np.abs(res[:, j] - resj).max() <= 1e-13 * np.abs(rhs[:, j]).max()

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
    def kkt_assemble(H, A, dual=0.0):
        """K = [[H + eps_p I, A'], [A, -(dual + eps_d) I]], carrying its
        Schur complement while its dual block is positive definite."""

        def assemble(ep, ed):
            n, m = H.shape[0], A.shape[0]
            K = np.block([[H + ep * np.eye(n), A.T], [A, -(dual + ed) * np.eye(m)]])
            return with_schur(K, n) if m == 0 or dual + ed > 0.0 else K

        return assemble

    def test_no_shift_when_inertia_correct(self):
        rng = np.random.default_rng(5)
        H = random_symmetric(rng, 4) + 4.0 * np.eye(4)
        A = rng.standard_normal((2, 4))
        fact, reg = correct_inertia(self.kkt_assemble(H, A, 0.1), (4, 2, 0), RegularizationState())
        assert reg.eps_p == 0.0 and reg.eps_d == 0.0
        assert fact.inertia == (4, 2, 0)

    def test_indefinite_hessian_corrected(self):
        rng = np.random.default_rng(6)
        H = random_symmetric(rng, 4) - 3.0 * np.eye(4)
        A = rng.standard_normal((2, 4))
        fact, reg = correct_inertia(self.kkt_assemble(H, A, 0.1), (4, 2, 0), RegularizationState())
        assert fact.inertia == (4, 2, 0)
        assert reg.eps_p > 0.0
        assert reg.last_eps_p == reg.eps_p

    def test_duplicated_rows_switch_on_dual_shift(self):
        # unshifted, the repeated row is an exactly zero pivot of the LU
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
        # adding eps_p only pushes eigenvalues up, and an array is never
        # certified: an all-negative target fails
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
        # with itself as its Schur complement (no dual rows), in the group
        # order, a banded K is certified exactly when it is positive definite
        rng = np.random.default_rng(31)
        verdicts = set()
        for _ in range(40):
            sizes = list(rng.integers(1, 7, size=int(rng.integers(2, 6))))
            n = sum(sizes)
            signs = rng.choice([-1.0, 1.0], size=n) if rng.random() < 0.5 else np.ones(n)
            K, blocks = block_tridiagonal(rng, sizes, signs)
            band = BlockTridiagonal.from_dense(K, blocks)
            order = band.layout.order
            band.schur = lower_band(K[np.ix_(order, order)], band.layout.kl)
            fact = factorize(band)
            assert fact.certified == (signs > 0).all()
            if fact.certified:
                assert fact.inertia == (n, 0, 0) == dense_inertia(K)
            verdicts.add(fact.certified)
            for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                expected = np.linalg.solve(K, rhs)
                got = refined(fact, K, rhs)
                assert np.abs(got - expected).max() <= 1e-8 * (1.0 + np.abs(expected).max())
        assert verdicts == {True, False}

    def test_zero_pivot_block_stays_blocked(self, monkeypatch):
        # a group with a zero row and column is an exactly zero pivot of the
        # band LU, which raises, and K is never made dense
        rng = np.random.default_rng(32)
        signs = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
        K, blocks = block_tridiagonal(rng, [3, 3, 2], signs)
        K[blocks[1][0], :] = K[:, blocks[1][0]] = 0.0
        band = BlockTridiagonal.from_dense(K, blocks)
        assert dense_inertia(K)[2] == 1
        dense = []

        def counted(*args, **kwargs):
            dense.append(args)
            raise AssertionError("a banded matrix was made dense")

        monkeypatch.setattr(BlockTridiagonal, "from_dense", counted)
        monkeypatch.setattr(BlockTridiagonal, "__array__", counted)
        with pytest.raises(NumericalFailure):
            factorize(band)
        assert dense == []

    def test_one_block_is_dense(self):
        # one group, in the original or a permuted order, is one band of
        # half-bandwidth n - 1 in that order; without a Schur complement it
        # has no inertia
        rng = np.random.default_rng(33)
        K = random_symmetric(rng, 5)
        b = rng.standard_normal(5)
        for index in (np.arange(5), rng.permutation(5)):
            fact = factorize(BlockTridiagonal.from_dense(K, (index,)))
            assert fact.layout.kl == 4 and np.array_equal(fact.layout.order, index)
            assert not fact.certified
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

        def capture(K):
            if seen["count"] % 8 == 0:
                captured.append(K)
            seen["count"] += 1
            seen["last"] = K
            return original(K)

        monkeypatch.setattr(ipal.linsolve, "factorize", capture)
        assert solve(model, x0, theta).solved
        monkeypatch.undo()
        rng = np.random.default_rng(T)
        for band in captured + [seen["last"]]:
            K = np.asarray(band)
            # as captured, with its Schur complement: certified band LU
            certified = factorize(band)
            plain = factorize(BlockTridiagonal.from_dense(K, model.stage_blocks))
            assert certified.certified and not plain.certified
            assert certified.inertia == dense_inertia(K)
            for rhs in (rng.standard_normal(K.shape[0]), rng.standard_normal((K.shape[0], 5))):
                expected = refined(factorize(K), K, rhs)
                scale = np.abs(expected).max()
                # late in the solve K has a condition number near 1e9, and
                # two dense solvers already differ by more than 1e-10
                # relative; there the banded solves must stay within ten
                # times that difference
                spread = np.abs(np.linalg.solve(K, rhs) - expected).max() / scale
                for fact in (plain, certified):
                    err = np.abs(refined(fact, K, rhs) - expected).max() / scale
                    assert err <= max(1e-10, 10.0 * spread)
