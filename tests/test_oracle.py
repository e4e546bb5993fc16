import numpy as np
import numpy.testing as npt
import pytest

from kronproj import oracle
from kronproj.errors import DimensionError, IllConditionedError, ParameterError
from kronproj.projmaint import ConstraintBatch


def make_psd(n, rng, jitter=0.3):
    X = rng.standard_normal((n, n))
    return X @ X.T + jitter * np.eye(n)


class TestExactProjection:
    def test_full_rank_gives_identity(self):
        rng = np.random.default_rng(0)
        n = 2
        A = rng.standard_normal((n * n, n * n))
        cons = ConstraintBatch(matrix=A, n=n)
        W = make_psd(n, rng)
        P = oracle.exact_projection(cons, W)
        npt.assert_allclose(P, np.eye(n * n), atol=1e-8)

    @pytest.mark.parametrize("variant", [oracle.SYMMETRIC, oracle.LEFT])
    def test_projector_axioms(self, variant):
        rng = np.random.default_rng(1)
        n, m = 4, 6
        cons = ConstraintBatch(matrix=rng.standard_normal((m, n * n)), n=n)
        W = make_psd(n, rng)
        P = oracle.exact_projection(cons, W, variant)
        npt.assert_allclose(P @ P, P, atol=1e-9)
        npt.assert_allclose(P, P.T, atol=1e-9)

    def test_identity_weight_variants_agree(self):
        rng = np.random.default_rng(2)
        n, m = 3, 4
        A = rng.standard_normal((m, n * n))
        cons = ConstraintBatch(matrix=A, n=n)
        P_sym = oracle.exact_projection(cons, np.eye(n), oracle.SYMMETRIC)
        P_left = oracle.exact_projection(cons, np.eye(n), oracle.LEFT)
        P_plain = A.T @ np.linalg.solve(A @ A.T, A)
        npt.assert_allclose(P_sym, P_plain, atol=1e-10)
        npt.assert_allclose(P_left, P_plain, atol=1e-10)

    def test_spectrum_and_trace(self):
        rng = np.random.default_rng(3)
        n, m = 4, 7
        cons = ConstraintBatch(matrix=rng.standard_normal((m, n * n)), n=n)
        P = oracle.exact_projection(cons, make_psd(n, rng))
        eigs = np.linalg.eigvalsh(P)
        assert np.all((np.abs(eigs) <= 1e-8) | (np.abs(eigs - 1) <= 1e-8))
        npt.assert_allclose(np.trace(P), m, atol=1e-8)

    def test_matches_high_precision_reference_past_the_gram_guard(self, spread_weight_case):
        # B B^T has condition ~e^20 here; the QR of B^T needs only B's ~e^10
        cons, U, lam, ref = spread_weight_case
        P = oracle.exact_projection(cons, (U * lam) @ U.T)
        assert np.max(np.abs(P - ref)) <= 1e-12

    def test_ill_conditioned_weight_refused(self):
        # W^{1/2} from eigh is only as accurate as W's condition allows
        rng = np.random.default_rng(5)
        cons = ConstraintBatch(matrix=rng.standard_normal((2, 9)), n=3)
        with pytest.raises(IllConditionedError):
            oracle.exact_projection(cons, np.diag([1.0, 1.0, 1e-9]))
        P = oracle.exact_projection(cons, np.diag([1.0, 1.0, 1e-9]), oracle.LEFT)
        npt.assert_allclose(P @ P, P, atol=1e-9)

    def test_unknown_variant(self):
        rng = np.random.default_rng(4)
        cons = ConstraintBatch(matrix=rng.standard_normal((2, 9)), n=3)
        with pytest.raises(ParameterError):
            oracle.exact_projection(cons, np.eye(3), "diagonal")


class TestExactNorm:
    def test_identity(self):
        h = np.array([1.0, 2.0, 2.0])
        assert oracle.exact_norm(np.eye(3), h) == 9.0

    def test_zero_matrix(self):
        assert oracle.exact_norm(np.zeros((3, 3)), np.ones(3)) == 0.0

    def test_matches_rowwise_sum(self):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((5, 5))
        h = rng.standard_normal(5)
        want = sum((G[i] @ h) ** 2 for i in range(5))
        npt.assert_allclose(oracle.exact_norm(G, h), want)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            oracle.exact_norm(np.eye(3), np.ones(4))


class TestExactSetQuery:
    def test_empty(self):
        assert oracle.exact_set_query(np.eye(3), np.ones(3), []).size == 0

    def test_identity_single(self):
        h = np.array([1.0, -2.0, 3.0])
        npt.assert_allclose(oracle.exact_set_query(np.eye(3), h, [1]), [4.0])

    def test_matches_direct(self):
        rng = np.random.default_rng(6)
        G = rng.standard_normal((6, 6))
        h = rng.standard_normal(6)
        Q = [0, 2, 5]
        want = [(G[j] @ h) ** 2 for j in Q]
        npt.assert_allclose(oracle.exact_set_query(G, h, Q), want)

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            oracle.exact_set_query(np.eye(3), np.ones(3), [3])
