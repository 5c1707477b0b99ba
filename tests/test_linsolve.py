import numpy as np
import pytest
from scipy.linalg import ldl
from scipy.linalg import solve as scipy_solve

import ipal.kkt
import ipal.linsolve
from helpers import (
    dense_inertia,
    dense_reduced_matrix,
    dense_schur_complement,
    lower_band,
    reduced_cone_inverse_loop,
    reduced_matrix_solve,
    trajectory_tracking,
)
from ipal.linsolve import (
    InertiaCorrectionFailure,
    NumericalFailure,
    RegularizationState,
    band_lu,
    correct_inertia,
    factorize,
    solve_refined,
)
from ipal.kkt import MAX_REFINE
from ipal.solver import solve


def refined(fact, K, rhs, max_refine=10):
    """Solution of K x = rhs by solve_refined with the factors of ``fact``."""
    return solve_refined(lambda x: K @ x, fact.solve, rhs, max_refine)[0]


def full_band(C):
    """The symmetric C as one band of half-bandwidth n - 1."""
    return lower_band(C, max(C.shape[0] - 1, 0))


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
        # the Schur complement C of a quasi-definite K is certified exactly
        # when the pivot loop over scipy's LDL' factors counts the inertia
        # (n, m, 0) of K; both verdicts occur, and either factorization
        # solves C, and K through C and N
        rng = np.random.default_rng(5)
        verdicts = set()
        for _ in range(60):
            n, m = int(rng.integers(1, 9)), int(rng.integers(0, 7))
            K = random_kkt(rng, n, m)
            C = dense_schur_complement(K, n)
            fact = factorize(full_band(C))
            reference = loop_reference(K)
            assert fact.certified == (reference == (n, m, 0))
            if fact.certified:
                assert dense_inertia(K) == reference
            verdicts.add(fact.certified)
            A, N = K[n:, :n], -K[n:, n:]
            for f in (rng.standard_normal(n + m), rng.standard_normal((n + m, 3))):
                ux = refined(fact, C, f[:n] + A.T @ np.linalg.solve(N, f[n:]))
                u = np.concatenate([ux, np.linalg.solve(N, A @ ux - f[n:])])
                assert np.abs(K @ u - f).max() <= 1e-10 * (1.0 + np.abs(f).max())
        assert verdicts == {True, False}

    def test_solve_matches_numpy(self):
        # an indefinite C takes the band LU
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            K = random_symmetric(rng, n)
            b = rng.standard_normal(n)
            fact = factorize(full_band(K))
            x = refined(fact, K, b)
            assert np.abs(K @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())

    def test_matrix_rhs(self):
        rng = np.random.default_rng(1)
        K = random_symmetric(rng, 6)
        B = rng.standard_normal((6, 3))
        X = refined(factorize(full_band(K)), K, B)
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
            fact = factorize(full_band(dense_schur_complement(K, n)))
            assert fact.certified == (n_pos == n)

    def test_singular_kkt_reports_zero(self):
        # a duplicated row with no dual shift: the dense reference counts a
        # zero eigenvalue of K, which has no Schur complement, and the band
        # LU of G G' meets an exactly zero pivot
        rng = np.random.default_rng(3)
        H = random_symmetric(rng, 4) + 4.0 * np.eye(4)
        A = rng.standard_normal((1, 4))
        A2 = np.vstack([A, A])  # duplicated row, no dual shift: singular
        K = np.block([[H, A2.T], [A2, np.zeros((2, 2))]])
        assert loop_reference(K)[2] >= 1
        gram = np.full((2, 2), A[0] @ A[0])  # G G', its rows bitwise equal
        with pytest.raises(NumericalFailure):
            band_lu(lower_band(gram, 1))

    @pytest.mark.parametrize(
        "K, inertia",
        [
            (np.diag([1.0, 0.0]), (1, 0, 1)),
            (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), (1, 1, 1)),
        ],
    )
    def test_exact_zero_pivot_counted_and_solve_refused(self, K, inertia):
        # the dense reference counts the zero; the Cholesky factorization
        # fails, and the band LU refuses to factor
        assert loop_reference(K) == dense_inertia(K) == inertia
        with pytest.raises(NumericalFailure):
            factorize(full_band(K))

    def test_empty_matrix(self):
        # an empty C is positive definite: certified, and its solves empty
        fact = factorize(np.zeros((1, 0)))
        assert fact.certified
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
        x = refined(factorize(full_band(K)), K2, b, max_refine=30)
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
        x, err, res, passes = solve_refined(lambda v: 3.0 * v, solve, rhs, MAX_REFINE)
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
        x, err, res, passes = solve_refined(apply, solve, rhs, 3)
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
        x, err, _, passes = solve_refined(lambda v: A @ v, solve, rhs, 50)
        assert passes <= n
        assert err <= 1e-12 * (1.0 + np.abs(rhs).max())
        assert np.abs(A @ x - rhs).max() <= 1e-11 * (1.0 + np.abs(rhs).max())

    def test_lockstep_columns_match_one_at_a_time(self, monkeypatch):
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

        monkeypatch.setattr(ipal.linsolve, "REFINE_TOL", 0.0)  # every column takes all 4 steps
        x, err, res, passes = solve_refined(lambda v: A @ v, solve, rhs, 4)
        assert passes == 4 and calls == [(n, 3)] * 5
        for j in range(3):
            xj, _, resj, passes_j = solve_refined(lambda v: A @ v, solve, rhs[:, j], 4)
            assert passes_j == passes
            assert np.abs(x[:, j] - xj).max() <= 1e-13 * np.abs(xj).max()
            assert np.abs(res[:, j] - resj).max() <= 1e-13 * np.abs(rhs[:, j]).max()

    def test_exact_inverse_takes_no_pass(self):
        K = np.array([[4.0, 1.0], [1.0, -3.0]])
        rhs = np.array([[1.0, 0.0], [2.0, 1.0]])
        solve = factorize(full_band(K)).solve
        x, err, _, passes = solve_refined(lambda v: K @ v, solve, rhs, MAX_REFINE)
        assert passes == 0 and err <= 1e-12 * 3.0
        assert x.shape == rhs.shape

    def test_non_finite_residual_raises(self):
        with pytest.raises(NumericalFailure):
            solve_refined(lambda v: v * np.inf, lambda b: b, np.ones(2), MAX_REFINE)

    def test_a_solve_turning_non_finite_stops_at_the_last_finite_iterate(self):
        # the first solve is finite but not exact; the second returns NaN:
        # the step it gives does not reduce the residual, so refinement
        # stops after that one pass with the first iterate and its residual
        A = np.diag([1.0, 2.0, 4.0])
        calls = []

        def solve(b):
            calls.append(b)
            return b / 2.5 if len(calls) == 1 else np.full_like(b, np.nan)

        rhs = np.array([1.0, -1.0, 2.0])
        x, err, res, passes = solve_refined(lambda v: A @ v, solve, rhs, MAX_REFINE)
        assert len(calls) == 2 and passes == 1
        assert np.array_equal(x, rhs / 2.5)
        assert np.array_equal(res, A @ x - rhs) and err == np.abs(res).max() > 0.0


class System:
    """A shifted reduced system as ``correct_inertia`` takes it: its shifts,
    its Schur complement C and the factors of C, taken through the module
    as ``kkt.assemble_symmetric`` takes them."""

    def __init__(self, eps_p, eps_d, C):
        self.eps_p, self.eps_d, self.C = eps_p, eps_d, C
        self.fact = ipal.linsolve.factorize(C)


class TestCorrectInertia:
    @staticmethod
    def kkt_assemble(H, A, dual=0.0):
        """The system whose Schur complement is that of K = [[H + eps_p I,
        A'], [A, -(dual + eps_d) I]], or NumericalFailure while that dual
        block is not positive definite; K itself; and the systems
        assembled."""
        assembled = []

        def matrix(ep, ed):
            n, m = H.shape[0], A.shape[0]
            return np.block([[H + ep * np.eye(n), A.T], [A, -(dual + ed) * np.eye(m)]])

        def assemble(ep, ed):
            n, m = H.shape[0], A.shape[0]
            assembled.append((ep, ed))
            if m and not dual + ed > 0.0:
                raise NumericalFailure("the dual block is not positive definite")
            return System(ep, ed, full_band(dense_schur_complement(matrix(ep, ed), n)))

        return assemble, matrix, assembled

    def test_no_shift_when_inertia_correct(self):
        rng = np.random.default_rng(5)
        H = random_symmetric(rng, 4) + 4.0 * np.eye(4)
        A = rng.standard_normal((2, 4))
        assemble, matrix, _ = self.kkt_assemble(H, A, 0.1)
        system, reg, _ = correct_inertia(assemble, RegularizationState())
        assert reg.eps_p == 0.0 and reg.eps_d == 0.0
        assert system.fact.certified and dense_inertia(matrix(0.0, 0.0)) == (4, 2, 0)

    def test_indefinite_hessian_corrected(self):
        rng = np.random.default_rng(6)
        H = random_symmetric(rng, 4) - 3.0 * np.eye(4)
        A = rng.standard_normal((2, 4))
        assemble, matrix, _ = self.kkt_assemble(H, A, 0.1)
        system, reg, _ = correct_inertia(assemble, RegularizationState())
        assert system.fact.certified and dense_inertia(matrix(reg.eps_p, reg.eps_d)) == (4, 2, 0)
        assert reg.eps_p > 0.0
        assert reg.last_eps_p == reg.eps_p

    def test_duplicated_rows_switch_on_dual_shift(self):
        # unshifted, the dual block is zero and K has no Schur complement
        rng = np.random.default_rng(7)
        H = random_symmetric(rng, 4) + 4.0 * np.eye(4)
        a = rng.standard_normal((1, 4))
        A = np.vstack([a, a])
        assemble, matrix, _ = self.kkt_assemble(H, A)
        system, reg, _ = correct_inertia(assemble, RegularizationState())
        assert system.fact.certified and dense_inertia(matrix(reg.eps_p, reg.eps_d)) == (4, 2, 0)
        assert reg.eps_d > 0.0

    def test_reuse_shrinks_first_trial(self):
        H = np.diag([-1e-6, 1.0, 1.0])
        A = np.zeros((0, 3))
        assemble, _, _ = self.kkt_assemble(H, A)
        _, reg, _ = correct_inertia(assemble, RegularizationState())
        assert reg.eps_p == pytest.approx(1e-4)
        _, reg2, _ = correct_inertia(assemble, reg)
        assert reg2.eps_p == pytest.approx(1e-4 / 3.0)

    @pytest.mark.parametrize("case", ["certified", "indefinite", "duplicated"])
    def test_returns_the_system_it_certified(self, monkeypatch, case):
        # the system returned is the last one assembled, at the returned
        # shifts; the trials count every system assembled, and each that
        # has a Schur complement is factored once
        rng = np.random.default_rng(8)
        H = random_symmetric(rng, 4) + (-3.0 if case == "indefinite" else 4.0) * np.eye(4)
        A = rng.standard_normal((2, 4))
        if case == "duplicated":
            A[1] = A[0]
        assemble, _, assembled = self.kkt_assemble(H, A, 0.0 if case == "duplicated" else 0.1)
        factored = []
        original = ipal.linsolve.factorize
        monkeypatch.setattr(ipal.linsolve, "factorize", lambda C: factored.append(C) or original(C))
        system, reg, trials = correct_inertia(assemble, RegularizationState())
        assert system.fact.certified and system.C is factored[-1]
        assert (system.eps_p, system.eps_d) == (reg.eps_p, reg.eps_d) == assembled[-1]
        assert trials == len(assembled)
        assert len(factored) == trials - (case == "duplicated")
        assert (trials > 1) == (case != "certified")

    def test_unreachable_target_raises(self):
        # a C that no primal shift reaches is never certified, though its
        # band LU factors it
        assemble = lambda ep, ed: System(ep, ed, -np.ones((1, 3)))
        assert not assemble(0.0, 0.0).fact.certified
        with pytest.raises(InertiaCorrectionFailure):
            correct_inertia(assemble, RegularizationState())


def block_tridiagonal(rng, sizes, signs):
    """K = L D L' with L unit block lower bidiagonal and D block diagonal
    with eigenvalue signs ``signs`` (Sylvester: K has D's inertia): block
    tridiagonal, with diagonal blocks of the given sizes."""
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
    return 0.5 * (K + K.T)


def grouped_band(K, sizes):
    """The block tridiagonal K with diagonal blocks of the given sizes in
    lower band storage of the blocks' half-bandwidth."""
    sizes = np.array(sizes)
    kd = int(max((sizes[1:] + sizes[:-1]).max(initial=0), sizes.max()) - 1)
    return lower_band(K, kd)


class TestBlockedFactorize:
    def test_inertia_and_solve_on_constructed_matrices(self):
        # with itself as its Schur complement (no dual rows), a banded K is
        # certified exactly when it is positive definite
        rng = np.random.default_rng(31)
        verdicts = set()
        for _ in range(40):
            sizes = list(rng.integers(1, 7, size=int(rng.integers(2, 6))))
            n = sum(sizes)
            signs = rng.choice([-1.0, 1.0], size=n) if rng.random() < 0.5 else np.ones(n)
            K = block_tridiagonal(rng, sizes, signs)
            fact = factorize(grouped_band(K, sizes))
            assert fact.certified == (signs > 0).all()
            if fact.certified:
                assert dense_inertia(K) == (n, 0, 0)
            verdicts.add(fact.certified)
            for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                expected = np.linalg.solve(K, rhs)
                got = refined(fact, K, rhs)
                assert np.abs(got - expected).max() <= 1e-8 * (1.0 + np.abs(expected).max())
        assert verdicts == {True, False}

    def test_zero_pivot_block_stays_blocked(self, monkeypatch):
        # a group with a zero row and column fails the Cholesky factorization
        # and is an exactly zero pivot of the band LU, which raises; both
        # read the band, never a dense matrix
        rng = np.random.default_rng(32)
        signs = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
        K = block_tridiagonal(rng, [3, 3, 2], signs)
        K[3, :] = K[:, 3] = 0.0  # the first row of the second group
        band = grouped_band(K, [3, 3, 2])
        # in this order eigvalsh reads the zero eigenvalue as 4e-17, so the
        # singularity is checked by the numerical rank
        assert np.linalg.matrix_rank(K) == 7
        shapes = []
        for name in ("dpbtrf", "dgbtrf"):
            original = getattr(ipal.linsolve, name)

            def recorded(ab, *args, original=original, **kwargs):
                shapes.append(ab.shape)
                return original(ab, *args, **kwargs)

            monkeypatch.setattr(ipal.linsolve, name, recorded)
        with pytest.raises(NumericalFailure):
            factorize(band)
        kd = band.shape[0] - 1
        assert kd < 7 and shapes == [(kd + 1, 8), (3 * kd + 1, 8)]

    def test_one_block_is_dense(self):
        # one group is one band of half-bandwidth n - 1; an indefinite one
        # takes the uncertified band LU
        rng = np.random.default_rng(33)
        K = random_symmetric(rng, 5)
        assert dense_inertia(K)[1] > 0
        b = rng.standard_normal(5)
        fact = factorize(lower_band(K, 4))
        assert fact.kd == 4 and not fact.certified
        x = refined(fact, K, b)
        assert np.abs(K @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())

    def test_rejects_bad_input(self):
        # a non-finite entry in the band is refused by the factorization
        K = np.eye(4)
        K[0, 3] = K[3, 0] = np.nan  # in the sub-diagonal block of the groups below
        band = grouped_band(K, [2, 2])
        assert np.isnan(band).any()
        with pytest.raises(NumericalFailure):
            factorize(band)

    @pytest.mark.parametrize("T", [10, 50, 100, 200])
    def test_matches_dense_along_tracking_solves(self, monkeypatch, T):
        # every 8th reduced system assembled during the solve, and the last:
        # C equals the dense Schur complement, with N's SecondOrder(2) blocks
        # inverted in their eigenbasis (the dense inverse of their entries
        # loses the small eigenvalue), its Cholesky factorization certifies
        # the dense inertia of K, and the solves of K through C and N, by
        # that factorization and by the band LU of C, match the dense solve
        # of K
        model, x0, theta = trajectory_tracking(T)
        captured, seen = [], {"count": 0, "last": None}
        original = ipal.kkt.assemble_symmetric

        def capture(*args, **kwargs):
            if seen["count"] % 8 == 0:
                captured.append((args, kwargs))
            seen["count"] += 1
            seen["last"] = (args, kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(ipal.kkt, "assemble_symmetric", capture)
        assert solve(model, x0, theta).solved
        monkeypatch.undo()
        rng = np.random.default_rng(T)
        n, N = model.n, model.n + model.m + model.p
        for args, kwargs in captured + [seen["last"]]:
            rsys = original(*args, **kwargs)
            _, point, outer, cache, reg = args
            K = dense_reduced_matrix(model, point, outer, reg, cache)
            cone_inverse = reduced_cone_inverse_loop(model.cone, point.s, point.t, reg)
            C = dense_schur_complement(K, n, cone_inverse)
            assert np.abs(rsys.C - lower_band(C, rsys.C.shape[0] - 1)).max() <= 1e-12 * np.abs(C).max()
            certified = rsys.fact
            assert certified.certified and dense_inertia(K) == (n, N - n, 0)
            for f in (rng.standard_normal(N), rng.standard_normal((N, 5))):
                expected = np.linalg.solve(K, f)
                scale = np.abs(expected).max()
                # late in the solve K has a condition number near 1e9, and
                # two dense solvers already differ by more than 1e-10
                # relative; there the solves through C must stay within ten
                # times that difference
                spread = np.abs(scipy_solve(K, f) - expected).max() / scale
                for fact in (certified, band_lu(rsys.C)):
                    got = solve_refined(
                        lambda u: K @ u, lambda b: reduced_matrix_solve(rsys, fact, b), f, MAX_REFINE
                    )[0]
                    err = np.abs(got - expected).max() / scale
                    assert err <= max(1e-10, 10.0 * spread)
