import numpy as np
import numpy.testing as npt
import pytest

from kronproj import kronlinalg as kl
from kronproj.errors import (
    DimensionError,
    IllConditionedError,
    NotPSDError,
    NotSymmetricError,
)


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestKronApply:
    def test_identity_case(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        npt.assert_array_equal(kl.kron_apply(np.eye(2), np.eye(2), x), x)

    def test_diagonal_case(self):
        A = np.diag([1.0, 2.0])
        B = np.diag([3.0, 4.0])
        x = np.ones(4)
        npt.assert_allclose(kl.kron_apply(A, B, x), [3.0, 4.0, 6.0, 8.0])

    def test_matches_materialized_3x3(self):
        rng = rng_for(1)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        x = rng.standard_normal(9)
        npt.assert_allclose(kl.kron_apply(A, B, x), np.kron(A, B) @ x, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_materialized_all_small_n(self, n):
        rng = rng_for(n)
        for _ in range(10):
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, n))
            x = rng.standard_normal(n * n)
            npt.assert_allclose(
                kl.kron_apply(A, B, x), np.kron(A, B) @ x, atol=1e-11
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kl.kron_apply(np.eye(2), np.eye(2), np.ones(5))


class TestKronApplyBlock:
    def test_matches_materialized(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        X = rng.standard_normal((9, 4))
        npt.assert_allclose(kl.kron_apply_block(A, B, X), np.kron(A, B) @ X, atol=1e-12)


class TestKronIdentities:
    def test_mixed_product(self):
        rng = rng_for(2)
        for _ in range(100):
            A, B, C, D = (rng.standard_normal((3, 3)) for _ in range(4))
            lhs = np.kron(A, B) @ np.kron(C, D)
            rhs = np.kron(A @ C, B @ D)
            npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_inversion(self):
        rng = rng_for(3)
        for _ in range(100):
            A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            B = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            lhs = np.linalg.inv(np.kron(A, B))
            rhs = np.kron(np.linalg.inv(A), np.linalg.inv(B))
            npt.assert_allclose(lhs, rhs, atol=1e-12 * 100)

    def test_vec_of_triple_product(self):
        rng = rng_for(4)
        for _ in range(100):
            A, X, C = (rng.standard_normal((3, 3)) for _ in range(3))
            npt.assert_allclose(
                kl.vec(A @ X @ C), np.kron(C.T, A) @ kl.vec(X), atol=1e-12
            )

    def test_vec_trace(self):
        rng = rng_for(5)
        for _ in range(100):
            A = rng.standard_normal((4, 4))
            B = rng.standard_normal((4, 4))
            npt.assert_allclose(
                kl.vec(A) @ kl.vec(B), np.trace(A.T @ B), atol=1e-12
            )

    def test_vec_reshape_roundtrip(self):
        # vec stacks columns, so a column-major reshape undoes it
        X = rng_for(6).standard_normal((4, 3))
        npt.assert_array_equal(kl.vec(X).reshape((4, 3), order="F"), X)


class TestKronDiag:
    def test_all_ones(self):
        npt.assert_array_equal(kl.kron_diag([1, 1], [1, 1]), np.ones(4))

    def test_ordering_matches_kron(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        npt.assert_array_equal(kl.kron_diag(a, b), np.diag(np.kron(np.diag(a), np.diag(b))))
        npt.assert_array_equal(kl.kron_diag(a, b), [3.0, 4.0, 6.0, 8.0])

    def test_zero_propagation(self):
        d = kl.kron_diag([0.0, 1.0], [1.0, 1.0])
        assert np.sum(d == 0.0) == 2


class TestSymEigen:
    def test_identity(self):
        ew = kl.sym_eigen(np.eye(3))
        npt.assert_allclose(ew.eigvals, np.ones(3))
        npt.assert_allclose(ew.basis.T @ ew.basis, np.eye(3), atol=1e-12)
        # ties keep eigh's column order, so W = I gives the identity basis
        npt.assert_array_equal(ew.basis, np.eye(3))

    def test_ties_keep_eigh_order(self):
        ew = kl.sym_eigen(np.diag([1.0, 1.0, 2.0]))
        npt.assert_allclose(ew.eigvals, [2.0, 1.0, 1.0])
        e1, e2, e3 = np.eye(3)
        npt.assert_array_equal(ew.basis, np.column_stack([e3, e1, e2]))

    def test_diagonal_sorted(self):
        ew = kl.sym_eigen(np.diag([4.0, 1.0]))
        npt.assert_allclose(ew.eigvals, [4.0, 1.0])

    def test_reconstruction_random_psd(self):
        rng = rng_for(7)
        for _ in range(10):
            X = rng.standard_normal((6, 6))
            W = X @ X.T
            ew = kl.sym_eigen(W)
            err = np.linalg.norm(ew.matrix() - W, "fro")
            assert err <= 1e-9 * np.linalg.norm(W, "fro")
            assert np.all(np.diff(ew.eigvals) <= 1e-12)

    def test_small_negative_clamped(self):
        W = np.diag([1.0, -5e-11])
        ew = kl.sym_eigen(W)
        assert ew.eigvals[-1] == 0.0

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSDError):
            kl.sym_eigen(np.diag([1.0, -1e-3]))

    def test_not_symmetric_rejected(self):
        W = np.array([[1.0, 1e-3], [0.0, 1.0]])
        with pytest.raises(NotSymmetricError):
            kl.sym_eigen(W)


class TestSolveSPD:
    def test_identity(self):
        rng = rng_for(8)
        B = rng.standard_normal((4, 3))
        npt.assert_allclose(kl.solve_spd(np.eye(4), B), B)

    def test_scaling(self):
        npt.assert_allclose(kl.solve_spd(2 * np.eye(3), np.eye(3)), np.eye(3) / 2)

    def test_residual_random_spd(self):
        rng = rng_for(9)
        for _ in range(10):
            X = rng.standard_normal((8, 8))
            A = X @ X.T + 0.1 * np.eye(8)
            B = rng.standard_normal((8, 2))
            sol = kl.solve_spd(A, B)
            assert np.linalg.norm(A @ sol - B, "fro") <= 1e-9 * np.linalg.norm(B, "fro")

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            kl.solve_spd(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_ill_conditioned(self):
        # unit lower-triangular L with -1 below the diagonal: every Cholesky
        # pivot is 1, yet kappa(L L^T) is about 7e17 at n = 30
        L = np.eye(30) - np.tril(np.ones((30, 30)), -1)
        for A in (np.diag([1.0, 1e-14]), L @ L.T):
            with pytest.raises(IllConditionedError):
                kl.solve_spd(A, np.ones(A.shape[0]))


class TestWoodbury:
    def test_rank_one_on_identity(self):
        got = kl.woodbury_update(
            np.eye(2), np.array([[1.0], [0.0]]), np.array([[1.0]]), np.array([[1.0, 0.0]])
        )
        npt.assert_allclose(got, np.diag([0.5, 1.0]), atol=1e-14)

    def test_zero_c_returns_inverse(self):
        # C is never inverted: (A + U 0 V)^{-1} is A^{-1} itself
        A_inv = np.linalg.inv(np.array([[2.0, 1.0], [0.0, 4.0]]))
        got = kl.woodbury_update(
            A_inv, np.array([[1.0], [0.0]]), np.array([[0.0]]), np.array([[1.0, 0.0]])
        )
        npt.assert_array_equal(got, A_inv)

    def test_random_low_rank_matches_direct(self):
        rng = rng_for(10)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            k = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n)) + n * np.eye(n)
            U = rng.standard_normal((n, k))
            C = rng.standard_normal((k, k)) + 2 * np.eye(k)
            V = rng.standard_normal((k, n))
            got = kl.woodbury_update(np.linalg.inv(A), U, C, V)
            want = np.linalg.inv(A + U @ C @ V)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_update_then_negation_restores(self):
        rng = rng_for(11)
        for _ in range(20):
            n, k = 5, 2
            A = rng.standard_normal((n, n)) + n * np.eye(n)
            U = rng.standard_normal((n, k))
            C = rng.standard_normal((k, k)) + 2 * np.eye(k)
            V = rng.standard_normal((k, n))
            A_inv = np.linalg.inv(A)
            step = kl.woodbury_update(A_inv, U, C, V)
            back = kl.woodbury_update(step, U, -C, V)
            assert np.linalg.norm(back - A_inv) <= 1e-8 * np.linalg.norm(A_inv)

    def test_kernel_diagonal_c_matches_dense(self):
        # C holds entries that C^{-1} + V A^{-1} U could not take: ~1e-20 and 0
        rng = rng_for(12)
        n, k = 7, 4
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        A_inv = np.linalg.inv(A)
        U = rng.standard_normal((n, k))
        V = rng.standard_normal((k, n))
        d = np.array([2.0, 1e-20, 0.0, -3e-20])
        AiU = A_inv @ U
        x = rng.standard_normal(n)
        direct = np.linalg.inv(A + U @ np.diag(d) @ V)
        got = A_inv - kl.woodbury_correction(AiU, d, V @ AiU, V @ A_inv)
        npt.assert_allclose(got, direct, rtol=1e-10, atol=1e-13)
        got_x = A_inv @ x - kl.woodbury_correction(AiU, d, V @ AiU, V @ A_inv @ x)
        npt.assert_allclose(got_x, direct @ x, rtol=1e-10)

    def test_kernel_rejects_singular_inner(self):
        # I + V A^{-1} U C for c = 1: exactly singular, then nearly singular,
        # neither symmetric
        for VAiU in ([[-1.0, 2.0], [0.0, 0.0]], [[0.0, 2.0], [1.0, 1.0 + 1e-14]]):
            with pytest.raises(IllConditionedError):
                kl.woodbury_correction(np.ones((3, 2)), np.ones(2), np.array(VAiU), np.ones((2, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kl.woodbury_update(np.eye(3), np.ones((2, 1)), np.eye(1), np.ones((1, 3)))


class TestEigenWeight:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotSymmetricError):
            kl.EigenWeight(basis=np.ones((2, 2)), eigvals=np.ones(2))

    def test_rejects_negative_eigs(self):
        with pytest.raises(NotPSDError):
            kl.EigenWeight(basis=np.eye(2), eigvals=np.array([1.0, -1.0]))

    def test_matrix_roundtrip(self):
        rng = rng_for(12)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        lam = np.array([4.0, 3.0, 2.0, 1.0])
        ew = kl.EigenWeight(Q, lam)
        back = kl.sym_eigen(ew.matrix())
        npt.assert_allclose(back.eigvals, lam, atol=1e-10)
