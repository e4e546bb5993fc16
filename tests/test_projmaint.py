import json
import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import kronproj
from kronproj import oracle
from kronproj.errors import (
    DimensionError,
    IllConditionedError,
    InvariantError,
    KronprojError,
    ParameterError,
    RankDeficiencyError,
)
from kronproj.harness import random_constraints, random_orthogonal
from kronproj.kronlinalg import EigenWeight, kron_apply_block, vec
from kronproj.projmaint import ConstraintBatch, MaintainedProjection, soft_threshold
from kronproj.sketch import SketchFamily


def make_state(n, m, seed, eps_mp=0.05, a_exp=0.5, s=4, b=16, **kw):
    rng = np.random.default_rng(seed)
    cons = ConstraintBatch(matrix=rng.standard_normal((m, n * n)), n=n)
    U = random_orthogonal(n, rng)
    lam = np.exp(rng.uniform(-0.5, 0.5, n))
    mp = MaintainedProjection(
        cons, EigenWeight(U, lam), eps_mp=eps_mp, a_exp=a_exp,
        family=SketchFamily.gaussian(), s=s, b=b, seed=seed, **kw
    )
    return mp, cons, U, rng


def oracle_projection_at_lam(mp):
    """The exact projection at the maintained lam, W = U diag(lam) U^T."""
    return oracle.exact_projection(mp.constraints, (mp.basis * mp.lam) @ mp.basis.T)


def assert_blocks_match_oracle(mp):
    """(U (x) U) Q_l is the exact projection at lam applied to R_l^T, for every l."""
    proj = oracle_projection_at_lam(mp)
    for l in range(mp.s):
        npt.assert_allclose(
            kron_apply_block(mp.basis, mp.basis, mp.q_block(l)),
            proj @ mp.pool[l].to_dense().T,
            atol=1e-8,
        )


def held_blocks(mp):
    return [l for l, q in enumerate(mp.Q) if q is not None]


def materialize_maintained_projection(mp):
    """The projection at lam that the core defines, (U (x) U) Y Y^T (U (x) U)^T."""
    KY = kron_apply_block(mp.basis, mp.basis, mp.Y)
    return KY @ KY.T


def rel_err_to_oracle(mp):
    """Relative Frobenius distance of the maintained projection at lam from the oracle's."""
    P = oracle_projection_at_lam(mp)
    return np.linalg.norm(materialize_maintained_projection(mp) - P) / np.linalg.norm(P)


class TestConstraintBatch:
    def test_rank_deficiency_detected(self):
        A = np.ones((2, 4))
        with pytest.raises(RankDeficiencyError):
            ConstraintBatch(matrix=A, n=2)

    def test_too_many_rows(self):
        with pytest.raises(RankDeficiencyError):
            ConstraintBatch(matrix=np.eye(5)[:, :4], n=2)

    def test_rows_are_vectorized_matrices(self):
        mats = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
        cons = ConstraintBatch(matrix=[vec(A) for A in mats], n=2)
        assert cons.m == 2 and cons.n == 2
        npt.assert_array_equal(cons.matrix[0], vec(np.eye(2)))


class TestSoftThreshold:
    def test_no_change(self):
        lam = np.ones(4)
        lam_hat, r = soft_threshold(lam, lam, 1)
        npt.assert_array_equal(lam_hat, lam)
        assert r == 1

    def test_single_moved_coordinate(self):
        lam = np.ones(4)
        lam_new = lam.copy()
        lam_new[0] = math.e
        lam_hat, r = soft_threshold(lam, lam_new, 1)
        # |y_(2)| = 0, so the growth loop exits immediately
        npt.assert_array_equal(lam_hat, lam_new)
        assert r == 1

    def test_growth_trace_near_uniform(self):
        # y = (1, .99, .98, ...): every comparison passes, r walks 1->2->3->5->8
        n = 8
        lam = np.ones(n)
        y = 1.0 - 0.01 * np.arange(n)
        lam_new = np.exp(y)
        seen = []
        r = 1
        while 1.5 * r < n and abs(y[math.ceil(1.5 * r) - 1]) >= (1 - 1 / math.log(n)) * abs(y[r - 1]):
            r = min(math.ceil(1.5 * r), n)
            seen.append(r)
        assert seen == [2, 3, 5, 8]
        lam_hat, r_out = soft_threshold(lam, lam_new, 1)
        assert r_out == 8
        npt.assert_allclose(lam_hat, lam_new)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            soft_threshold(np.array([1.0, 0.0]), np.ones(2), 1)

    def test_stable_tiebreak(self):
        lam = np.ones(4)
        lam_new = np.exp(np.array([0.5, 0.5, 0.1, 0.5]))
        lam_hat, r = soft_threshold(lam, lam_new, 3)
        # ties on |y| keep index order, so coordinates 0, 1, 3 are taken
        npt.assert_array_equal(np.flatnonzero(lam_hat != lam), [0, 1, 3])


class TestInit:
    def test_single_identity_constraint(self):
        cons = ConstraintBatch(matrix=[vec(np.eye(2))], n=2)
        mp = MaintainedProjection(cons, EigenWeight(np.eye(2), np.ones(2)), s=2, b=4, seed=0)
        want = np.outer(vec(np.eye(2)), vec(np.eye(2))) / 2.0
        npt.assert_allclose(oracle_projection_at_lam(mp), want, atol=1e-12)
        npt.assert_allclose(materialize_maintained_projection(mp), want, atol=1e-12)

    def test_identity_weight_reduces_to_plain_projection(self):
        rng = np.random.default_rng(1)
        n, m = 3, 4
        A = rng.standard_normal((m, n * n))
        cons = ConstraintBatch(matrix=A, n=n)
        mp = MaintainedProjection(cons, EigenWeight(np.eye(n), np.ones(n)), s=2, b=4, seed=1)
        want = A.T @ np.linalg.solve(A @ A.T, A)
        # with W = I the weight cancels: the projection is the plain
        # row-space projection of the constraint matrix
        npt.assert_allclose(oracle_projection_at_lam(mp), want, atol=1e-9)
        npt.assert_allclose(materialize_maintained_projection(mp), want, atol=1e-9)

    def test_projection_matches_oracle(self):
        mp, cons, U, rng = make_state(4, 5, seed=2)
        W = (U * mp.lam) @ U.T
        P_exact = oracle.exact_projection(cons, W)
        npt.assert_allclose(
            materialize_maintained_projection(mp), P_exact, atol=1e-8
        )

    def test_init_state_fields(self):
        mp, _, _, _ = make_state(4, 5, seed=3, s=3, b=8)
        npt.assert_array_equal(mp.lam_tilde, mp.lam)
        assert mp.cursor == 0
        assert held_blocks(mp) == []  # each block waits for its first read
        assert [mp.q_block(l).shape for l in range(3)] == [(16, 8)] * 3
        assert_blocks_match_oracle(mp)

    def test_invalid_eps(self):
        cons = ConstraintBatch(matrix=[vec(np.eye(2))], n=2)
        with pytest.raises(ParameterError):
            MaintainedProjection(cons, EigenWeight(np.eye(2), np.ones(2)), eps_mp=0.5)

    def test_dense_weight_rejected(self):
        cons = ConstraintBatch(matrix=[vec(np.eye(2))], n=2)
        with pytest.raises(ParameterError, match="EigenWeight"):
            MaintainedProjection(cons, np.eye(2))

    @pytest.mark.parametrize(
        "setting", [{"s": 2.5}, {"b": 4.7}, {"seed": 1.5}, {"s": "3"}],
        ids=["fractional_s", "fractional_b", "fractional_seed", "string_s"],
    )
    def test_non_integer_setting_rejected(self, setting):
        cons = ConstraintBatch(matrix=[vec(np.eye(2))], n=2)
        with pytest.raises(ParameterError, match=rf"^{next(iter(setting))} = "):
            MaintainedProjection(cons, EigenWeight(np.eye(2), np.ones(2)), **setting)

    def test_numpy_integer_settings_accepted(self):
        cons = ConstraintBatch(matrix=[vec(np.eye(2))], n=2)
        mp = MaintainedProjection(
            cons, EigenWeight(np.eye(2), np.ones(2)), s=np.int64(2), b=np.int32(4), seed=-3
        )
        assert (type(mp.s), mp.s, type(mp.b), mp.b, mp._root_seed) == (int, 2, int, 4, -3)

    def test_qp_consistency_at_init(self):
        mp, _, _, _ = make_state(3, 4, seed=4)
        assert_blocks_match_oracle(mp)
        assert held_blocks(mp) == [0, 1, 2, 3]


class TestUpdate:
    def test_same_weight_is_noop(self):
        mp, _, U, _ = make_state(4, 5, seed=6)
        Y0 = mp.Y.copy()
        lt = mp.update(EigenWeight(U, mp.lam.copy()))
        npt.assert_array_equal(lt, mp.lam)
        npt.assert_array_equal(mp.Y, Y0)
        assert mp.counters["woodbury_ranks"][-1] == 0

    def test_lazy_branch_single_big_eigenvalue(self):
        # n = 4, a = 0.5: one drifted coordinate stays below n^a = 2
        mp, _, U, _ = make_state(4, 5, seed=7, eps_mp=0.05, a_exp=0.5)
        lam_new = mp.lam.copy()
        lam_new[1] *= 2.0
        Y0 = mp.Y.copy()
        lt = mp.update(EigenWeight(U, lam_new))
        npt.assert_array_equal(mp.Y, Y0)  # state Y untouched
        assert lt[1] == lam_new[1]  # lam_tilde absorbs the move
        assert np.all(lt[[0, 2, 3]] == mp.lam[[0, 2, 3]])
        assert mp.counters["woodbury_ranks"][-1] == 0

    def test_nonlazy_applies_woodbury(self):
        mp, _, U, _ = make_state(4, 5, seed=8)
        lam_new = mp.lam * np.exp(np.array([0.3, -0.4, 0.2, 0.0]))
        lt = mp.update(EigenWeight(U, lam_new))
        assert mp.counters["woodbury_ranks"][-1] > 0
        assert rel_err_to_oracle(mp) <= 1e-9
        # after a non-lazy update lam_tilde coincides with the stored lam
        npt.assert_array_equal(lt, mp.lam)

    def test_spectral_bound_strong_form(self):
        mp, _, U, rng = make_state(6, 8, seed=9)
        lam = mp.lam.copy()
        for _ in range(30):
            k = int(rng.integers(1, 7))
            idx = rng.choice(6, size=k, replace=False)
            lam = lam.copy()
            lam[idx] *= np.exp(rng.uniform(-0.2, 0.2, k))
            lt = mp.update(EigenWeight(U, lam))
            assert np.max(np.abs(np.log(lam) - np.log(lt))) <= mp.eps_mp / 2 + 1e-12

    def test_fifty_random_updates_match_oracle(self):
        mp, _, U, rng = make_state(6, 8, seed=10)
        lam = mp.lam.copy()
        worst = 0.0
        for _ in range(50):
            k = int(rng.integers(1, 7))
            idx = rng.choice(6, size=k, replace=False)
            lam = lam.copy()
            lam[idx] *= np.exp(rng.uniform(-0.25, 0.25, k))
            mp.update(EigenWeight(U, lam))
            worst = max(worst, rel_err_to_oracle(mp))
        assert worst <= 1e-7

    def test_mismatched_basis_rejected(self):
        mp, _, U, rng = make_state(4, 5, seed=11)
        V = random_orthogonal(4, np.random.default_rng(999))
        with pytest.raises(ParameterError):
            mp.update(EigenWeight(V, mp.lam.copy()))

    def test_pool_regenerated_on_nonlazy_update(self):
        mp, _, U, _ = make_state(4, 5, seed=12)
        r0 = mp.pool[0].to_dense()
        lam_new = mp.lam * np.exp(0.3 * np.ones(4))
        mp.update(EigenWeight(U, lam_new))
        assert not np.array_equal(mp.pool[0].to_dense(), r0)
        assert mp.cursor == 0
        assert held_blocks(mp) == [0]  # lam_tilde == lam: the next query reads it

    def test_rank_is_kronecker_support_of_changed_eigenvalues(self):
        # changing |S| eigenvalues moves the Kronecker diagonal at the pairs
        # (i, j) with i or j in S: 2n|S| - |S|^2 of them
        n = 7
        for size in range(2, n + 1):
            mp, _, U, _ = make_state(n, 9, seed=13, a_exp=0.1)  # n^0.1 < 2
            lam_new = mp.lam.copy()
            lam_new[:size] *= np.exp(0.1 + 0.05 * np.arange(size))
            mp.update(EigenWeight(U, lam_new))
            assert mp.counters["woodbury_ranks"][-1] == 2 * n * size - size * size
            npt.assert_array_equal(mp.lam, lam_new)

    def test_cancelling_woodbury_step_rebuilds(self):
        # n = m = 1 and lam moved to the floor: a Woodbury step from the old
        # core cancelled to roundoff here; the core is now recomputed at the
        # new lam, and the projection stays the 1 x 1 identity
        cons = ConstraintBatch(matrix=np.array([[0.3]]), n=1)
        mp = MaintainedProjection(cons, EigenWeight(np.eye(1), np.array([0.4])), s=1, b=1)
        mp.update(EigenWeight(np.eye(1), np.array([0.0])))
        npt.assert_array_equal(mp.lam, [mp.eig_floor])
        npt.assert_allclose(mp.query_exactish(np.array([2.0])), [2.0], rtol=1e-15)
        npt.assert_allclose(
            materialize_maintained_projection(mp), oracle_projection_at_lam(mp), rtol=1e-12
        )
        mp.check_invariants()

    def test_core_beyond_accuracy_is_refused(self):
        # the constraint e_8 reads only the (2, 2) coordinate, so with lam[2]
        # at the floor its row of (L (x) L)^{1/2} G^T shrinks to 1e-12 and R
        # has condition ~1e12, past the bound: the update raises and the
        # instance keeps its last accepted state
        rng = np.random.default_rng(1)
        rows = np.vstack([rng.standard_normal(9), np.eye(9)[8]])
        U = np.eye(3)
        mp = MaintainedProjection(
            ConstraintBatch(matrix=rows, n=3), EigenWeight(U, np.ones(3)),
            eps_mp=0.01, a_exp=0.1, s=2, b=4,
        )
        lam = np.ones(3)
        lam[2] = 0.0  # one drifted eigenvalue: lazy
        mp.update(EigenWeight(U, lam))
        lam_before = mp.lam.copy()
        lam[0] = 2.0  # two drifted eigenvalues: Y is recomputed at the floor
        with pytest.raises(IllConditionedError, match="core QR"):
            mp.update(EigenWeight(U, lam))
        npt.assert_array_equal(mp.lam, lam_before)
        assert mp.counters["updates"] == len(mp.counters["woodbury_ranks"]) == 1
        mp.check_invariants()

    def test_lam_spread_past_the_gram_guard(self, spread_weight_case):
        # lam spans e^10: the Gram matrix of the normal equations has
        # condition ~e^20, past the bound, while R of the QR core has ~e^10
        cons, U, lam, ref = spread_weight_case
        mp = MaintainedProjection(cons, EigenWeight(U, lam), s=2, b=4)
        h = np.random.default_rng(5).standard_normal(36)
        err = np.linalg.norm(mp.query_exactish(h) - ref @ h) / np.linalg.norm(ref @ h)
        assert err <= 1e-12
        mp.check_invariants()

    def test_core_projection_at_spread_e14_matches_oracle(self):
        # lam spans e^14: the normal-equations core G^T (G (L (x) L) G^T)^{-1} G
        # solved from the Gram matrix is 3.8e-7 off its 50-digit value here,
        # past the 1e-7 tolerance, while the projection the core defines
        # matches the QR oracle to ~5e-12
        rng = np.random.default_rng(3)
        cons = random_constraints(30, 6, rng)
        U = random_orthogonal(6, rng)
        lam = np.exp(np.linspace(0.0, 14.0, 6))
        mp = MaintainedProjection(cons, EigenWeight(U, lam), s=2, b=4)
        assert rel_err_to_oracle(mp) <= 1e-7

    def test_invariants_after_updates(self):
        mp, _, U, rng = make_state(5, 6, seed=15)
        lam = mp.lam.copy()
        for _ in range(10):
            lam = lam * np.exp(rng.uniform(-0.2, 0.2, 5))
            mp.update(EigenWeight(U, lam))
            mp.check_invariants()

    def test_broken_symmetry_raises_even_under_O(self):
        mp, _, _, _ = make_state(4, 6, seed=16)
        mp.Y[0, 1] += 1.0
        with pytest.raises(InvariantError, match="orthonormal"):
            mp.check_invariants()
        script = (
            "import numpy as np\n"
            "from kronproj.errors import InvariantError\n"
            "from kronproj.kronlinalg import EigenWeight\n"
            "from kronproj.projmaint import ConstraintBatch, MaintainedProjection\n"
            "rng = np.random.default_rng(0)\n"
            "cons = ConstraintBatch(matrix=rng.standard_normal((6, 16)), n=4)\n"
            "mp = MaintainedProjection(cons, EigenWeight(np.eye(4), np.ones(4)))\n"
            "mp.Y[0, 1] += 1.0\n"
            "try:\n"
            "    mp.check_invariants()\n"
            "except InvariantError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(kronproj.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_lazy_branch_soundness(self):
        # while updates stay lazy, the deferred support |{i: lt_i != lam_i}|
        # stays below n^a_exp plus previously deferred coordinates
        n = 9  # n^0.5 = 3
        mp, _, U, rng = make_state(n, 6, seed=99, a_exp=0.5, eps_mp=0.08)
        lam = mp.lam.copy()
        deferred = set()
        for step in range(6):
            idx = int(rng.integers(0, n))
            lam = lam.copy()
            lam[idx] *= 1.5  # single coordinate beyond eps/2
            lt = mp.update(EigenWeight(U, lam))
            support = set(np.flatnonzero(lt != mp.lam))
            if mp.counters["woodbury_ranks"][-1] == 0:  # lazy step
                new = support - deferred
                assert len(new) <= n**0.5
                deferred = support
            else:
                deferred = set(np.flatnonzero(lt != mp.lam))

    def test_eigenvalues_floored_on_update(self):
        mp, _, U, _ = make_state(4, 5, seed=100)
        lam_new = mp.lam.copy()
        lam_new[0] = 0.0  # clamped up to the floor rather than rejected
        mp.update(EigenWeight(U, lam_new))
        assert np.all(mp._last_external >= mp.eig_floor)


class TestQuery:
    def test_zero_vector(self):
        mp, _, _, _ = make_state(3, 4, seed=16)
        npt.assert_array_equal(mp.query(np.zeros(9)), np.zeros(9))

    def test_full_rank_projection_is_identity(self):
        rng = np.random.default_rng(17)
        n = 2
        cons = ConstraintBatch(matrix=rng.standard_normal((4, 4)), n=n)
        U = random_orthogonal(n, rng)
        lam = np.exp(rng.uniform(-0.3, 0.3, n))
        mp = MaintainedProjection(cons, EigenWeight(U, lam), s=2, b=4, seed=17)
        h = rng.standard_normal(4)
        R = mp.pool[0].to_dense()
        want = R.T @ (R @ h)  # projection is the identity here
        npt.assert_allclose(mp.query(h), want, atol=1e-8)

    def test_after_init_matches_oracle(self):
        mp, cons, U, rng = make_state(4, 6, seed=18)
        h = rng.standard_normal(16)
        R = mp.pool[0].to_dense()
        out = mp.query(h)
        W = (U * mp.lam) @ U.T
        proj = oracle.exact_projection(cons, W)
        want = proj @ (R.T @ (R @ h))
        assert np.linalg.norm(out - want) <= 1e-8 * np.linalg.norm(want)

    def test_lazy_state_query_uses_correction(self):
        mp, cons, U, rng = make_state(4, 6, seed=19, eps_mp=0.05, a_exp=0.5)
        lam_new = mp.lam.copy()
        lam_new[2] *= 1.8  # single coordinate: lazy branch
        lt = mp.update(EigenWeight(U, lam_new))
        assert np.any(lt != mp.lam)
        h = rng.standard_normal(16)
        R = mp.pool[mp.cursor].to_dense()
        out = mp.query(h)
        W_tilde = (U * lt) @ U.T
        proj = oracle.exact_projection(cons, W_tilde)
        want = proj @ (R.T @ (R @ h))
        assert np.linalg.norm(out - want) <= 1e-8 * np.linalg.norm(want)

    def test_block_query_past_cursor_zero_matches_oracle(self):
        # a no-drift update keeps lam_tilde == lam, so the query at cursor 1
        # reads block 1, computed on demand
        mp, cons, U, rng = make_state(4, 6, seed=56)
        mp.query(rng.standard_normal(16))
        lt = mp.update(EigenWeight(U, mp.lam.copy()))
        npt.assert_array_equal(lt, mp.lam)
        assert mp.cursor == 1 and held_blocks(mp) == [0]
        h = rng.standard_normal(16)
        R = mp.pool[1].to_dense()
        out = mp.query(h)
        assert held_blocks(mp) == [0, 1]
        want = oracle.exact_projection(cons, (U * lt) @ U.T) @ (R.T @ (R @ h))
        assert np.linalg.norm(out - want) <= 1e-7 * np.linalg.norm(want)

    def test_cursor_advances_and_pool_rolls(self):
        mp, _, _, rng = make_state(3, 4, seed=20, s=2, b=8)
        r0 = mp.pool[0].to_dense()
        h = rng.standard_normal(9)
        mp.query(h)
        assert mp.cursor == 1
        mp.query(h)
        # pool exhausted: regenerated eagerly, cursor reset, no block computed
        assert mp.cursor == 0 and held_blocks(mp) == []
        assert not np.array_equal(mp.pool[0].to_dense(), r0)

    def test_sketch_freshness_within_pool(self):
        mp, _, _, rng = make_state(3, 4, seed=21, s=4, b=8)
        seen = []
        for _ in range(4):
            seen.append(mp.cursor)
            mp.query(rng.standard_normal(9))
        assert seen == [0, 1, 2, 3]

    def test_length_mismatch(self):
        mp, _, _, _ = make_state(3, 4, seed=22)
        with pytest.raises(DimensionError):
            mp.query(np.ones(8))

    def test_non_finite_h_rejected(self):
        mp, _, _, _ = make_state(3, 4, seed=22)
        for bad in (np.nan, np.inf):
            h = np.ones(9)
            h[4] = bad
            for call in (mp.query, mp.query_exactish):
                with pytest.raises(ParameterError):
                    call(h)
        assert mp.cursor == 0 and mp.counters["queries"] == 0

    def test_condition_fallback_still_exact(self, monkeypatch):
        # force the lazy-path guard to trip: the query falls back to a fresh
        # basis at lam_tilde, counts the event, and stays oracle-exact
        import kronproj.projmaint as pm

        def tripped(*args, **kwargs):
            raise IllConditionedError("woodbury inner matrix: forced")

        mp, cons, U, rng = make_state(4, 6, seed=55)
        lam_new = mp.lam.copy()
        lam_new[1] *= 1.9  # lazy drift so the correction path is active
        lt = mp.update(EigenWeight(U, lam_new))
        monkeypatch.setattr(pm.kronlinalg, "woodbury_correction", tripped)
        h = rng.standard_normal(16)
        R = mp.pool[mp.cursor].to_dense()
        out = mp.query(h)
        assert mp.counters["query_fallbacks"] == 1
        proj = oracle.exact_projection(cons, (U * lt) @ U.T)
        want = proj @ (R.T @ (R @ h))
        assert np.linalg.norm(out - want) <= 1e-8 * np.linalg.norm(want)
        npt.assert_allclose(mp.query_exactish(h), proj @ h, atol=1e-8)
        assert mp.counters["query_fallbacks"] == 2


class TestQueryExactish:
    def test_zero(self):
        mp, _, _, _ = make_state(3, 4, seed=23)
        npt.assert_array_equal(mp.query_exactish(np.zeros(9)), np.zeros(9))

    def test_matches_oracle_after_init(self):
        mp, cons, U, rng = make_state(4, 6, seed=24)
        h = rng.standard_normal(16)
        W = (U * mp.lam) @ U.T
        want = oracle.exact_projection(cons, W) @ h
        npt.assert_allclose(mp.query_exactish(h), want, atol=1e-8)

    def test_matches_oracle_in_lazy_state(self):
        mp, cons, U, rng = make_state(4, 6, seed=25)
        lam_new = mp.lam.copy()
        lam_new[0] *= 1.7
        lt = mp.update(EigenWeight(U, lam_new))
        h = rng.standard_normal(16)
        want = oracle.exact_projection(cons, (U * lt) @ U.T) @ h
        npt.assert_allclose(mp.query_exactish(h), want, atol=1e-8)


SNAPSHOT_KEYS = (
    "version", "n", "m", "constraints", "basis", "lam", "lam_tilde", "last_external",
    "eps_mp", "a_exp", "family", "s", "b", "root_seed", "regen_count", "cursor",
    "eig_floor", "counters",
)


class TestSnapshot:
    def test_roundtrip_resumes_deterministically(self):
        mp, _, U, rng = make_state(4, 5, seed=27)
        lam = mp.lam * np.exp(rng.uniform(-0.2, 0.2, 4))
        mp.update(EigenWeight(U, lam))
        snap = mp.snapshot()
        clone_a = MaintainedProjection.from_snapshot(snap)
        clone_b = MaintainedProjection.from_snapshot(snap)
        npt.assert_array_equal(clone_a.lam_tilde, mp.lam_tilde)
        npt.assert_array_equal(clone_a.lam, mp.lam)
        assert clone_a.cursor == mp.cursor
        # Y is recomputed from the stored lam exactly as the donor computed it
        npt.assert_array_equal(clone_a.Y, mp.Y)
        npt.assert_array_equal(clone_a.pool.transpose_dense(), mp.pool.transpose_dense())
        # two restores replay the donor bit for bit across queries, pool
        # rollovers, and further updates
        for i in range(6):
            h = rng.standard_normal(16)
            out = mp.query(h)
            npt.assert_array_equal(clone_a.query(h), out)
            npt.assert_array_equal(clone_b.query(h), out)
        lam2 = mp.lam * np.exp(rng.uniform(-0.2, 0.2, 4))
        npt.assert_array_equal(
            clone_a.update(EigenWeight(U, lam2)), clone_b.update(EigenWeight(U, lam2))
        )
        npt.assert_array_equal(clone_a.pool.transpose_dense(), clone_b.pool.transpose_dense())

    def test_resumed_instances_keep_their_own_counters(self):
        mp, _, U, rng = make_state(4, 5, seed=29)
        snap = mp.snapshot()
        ranks_before = list(snap["counters"]["woodbury_ranks"])
        clone_a = MaintainedProjection.from_snapshot(snap)
        clone_b = MaintainedProjection.from_snapshot(snap)
        lam = mp.lam
        for _ in range(3):
            lam = lam * np.exp(rng.uniform(-0.2, 0.2, 4))
            clone_a.update(EigenWeight(U, lam))
        assert snap["counters"]["woodbury_ranks"] == ranks_before
        assert len(clone_a.counters["woodbury_ranks"]) == len(ranks_before) + 3
        assert clone_b.counters["woodbury_ranks"] == ranks_before

    def test_resume_after_floor_update_is_bit_identical(self):
        # an update to the floor once left the donor's core ~2e-9 from the
        # one a resume rebuilds; both now compute Y from the same lam
        seed = 2489550845
        rng = np.random.default_rng(seed)
        cons = ConstraintBatch(matrix=rng.standard_normal((1, 4)), n=2)
        U = random_orthogonal(2, rng)
        lam = np.exp(rng.uniform(-1.0, 1.0, 2))
        mp = MaintainedProjection(
            cons, EigenWeight(U, lam), eps_mp=0.01, a_exp=0.1, s=1, b=1, seed=seed
        )
        lam = lam * np.exp([0.0, 0.5])
        lam[0] = 0.0
        mp.update(EigenWeight(U, lam))
        clone = MaintainedProjection.from_snapshot(json.loads(json.dumps(mp.snapshot())))
        for _ in range(50):
            h = rng.standard_normal(4)
            npt.assert_array_equal(clone.query(h), mp.query(h))

    def test_resume_past_cursor_zero_is_bit_identical(self):
        # block 1 is computed after the snapshot by both the donor and the
        # resumed instance; no-drift updates keep every query on the block path
        mp, _, U, rng = make_state(4, 5, seed=32, s=3)
        mp.query(rng.standard_normal(16))
        clone = MaintainedProjection.from_snapshot(json.loads(json.dumps(mp.snapshot())))
        assert clone.cursor == mp.cursor == 1 and held_blocks(clone) == []
        for _ in range(5):
            w = EigenWeight(U, mp.lam.copy())
            npt.assert_array_equal(clone.update(w), mp.update(w))
            h = rng.standard_normal(16)
            npt.assert_array_equal(clone.query(h), mp.query(h))

    def test_negative_root_seed_resumes(self):
        # a seed of either sign is valid; the pool seed takes it modulo 2^64
        rng = np.random.default_rng(0)
        cons = ConstraintBatch(matrix=rng.standard_normal((4, 9)), n=3)
        mp = MaintainedProjection(cons, EigenWeight(np.eye(3), np.ones(3)), s=2, b=4, seed=-7)
        clone = MaintainedProjection.from_snapshot(json.loads(json.dumps(mp.snapshot())))
        h = rng.standard_normal(9)
        npt.assert_array_equal(clone.query(h), mp.query(h))

    def test_snapshot_is_json_serializable(self):
        mp, _, _, _ = make_state(3, 4, seed=28)
        blob = json.dumps(mp.snapshot())
        assert "constraints" in blob

    @pytest.mark.parametrize(
        "key, corrupt",
        [
            pytest.param("cursor", lambda snap: snap["s"], id="cursor_past_pool"),
            pytest.param("cursor", lambda snap: -1, id="negative_cursor"),
            pytest.param(
                "basis", lambda snap: (2.0 * np.asarray(snap["basis"])).tolist(), id="scaled_basis"
            ),
            pytest.param("lam", lambda snap: [-1.0] * snap["n"], id="negative_lam"),
            pytest.param("lam", lambda snap: [0.5 * snap["eig_floor"]] * snap["n"],
                         id="lam_below_floor"),
            pytest.param("eig_floor", lambda snap: 0.0, id="zero_floor"),
            pytest.param("lam_tilde", lambda snap: [float("nan")] * snap["n"], id="nan_lam_tilde"),
            pytest.param("lam_tilde", lambda snap: [0.0] * snap["n"], id="zero_lam_tilde"),
            pytest.param("last_external", lambda snap: snap["last_external"][:-1],
                         id="short_last_external"),
            pytest.param("eps_mp", lambda snap: 0.5, id="eps_mp_above_range"),
            pytest.param("eps_mp", lambda snap: -1.0, id="negative_eps_mp"),
            pytest.param("a_exp", lambda snap: 3.0, id="a_exp_above_one"),
            pytest.param("m", lambda snap: snap["m"] - 1, id="m_short_of_rows"),
            pytest.param("n", lambda snap: float(snap["n"]), id="float_n"),
            pytest.param("s", lambda snap: 1.5, id="fractional_s"),
            pytest.param("b", lambda snap: 2.5, id="fractional_b"),
            pytest.param("regen_count", lambda snap: -5, id="negative_regen_count"),
            pytest.param("cursor", lambda snap: 1.0, id="float_cursor"),
            pytest.param("root_seed", lambda snap: 1.5, id="fractional_root_seed"),
            pytest.param("root_seed", lambda snap: "7", id="string_root_seed"),
            pytest.param("root_seed", lambda snap: None, id="null_root_seed"),
            pytest.param("eig_floor", lambda snap: None, id="null_eig_floor"),
            pytest.param("eig_floor", lambda snap: "x", id="string_eig_floor"),
            pytest.param("eps_mp", lambda snap: None, id="null_eps_mp"),
            pytest.param("eps_mp", lambda snap: "x", id="string_eps_mp"),
            pytest.param("a_exp", lambda snap: None, id="null_a_exp"),
            pytest.param("lam_tilde", lambda snap: "x", id="string_lam_tilde"),
            pytest.param("counters", lambda snap: {}, id="empty_counters"),
            pytest.param("basis", lambda snap: None, id="null_basis"),
            pytest.param("constraints", lambda snap: None, id="null_constraints"),
            pytest.param("family", lambda snap: dict(snap["family"], sparsity=None),
                         id="null_family_sparsity"),
        ]
        + [pytest.param(key, None, id=f"missing_{key}") for key in SNAPSHOT_KEYS],
    )
    def test_corrupt_state_rejected(self, key, corrupt):
        # corrupt None deletes the key; every refusal names the field, and
        # all but a non-orthonormal basis (NotSymmetricError) are ParameterErrors
        mp, _, _, _ = make_state(3, 4, seed=30)
        snap = mp.snapshot()
        assert set(snap) == set(SNAPSHOT_KEYS)
        if corrupt is None:
            del snap[key]
        else:
            snap[key] = corrupt(snap)
        with pytest.raises(KronprojError, match=rf"\b{key}\b") as info:
            MaintainedProjection.from_snapshot(snap)
        assert isinstance(info.value, ParameterError) or key == "basis"

    def test_snapshot_with_age_trigger_fields_loads(self):
        # snapshots written while the rebuild_every age trigger and the rank
        # budget existed carry three more keys; they are ignored on restore
        mp, _, U, rng = make_state(4, 5, seed=31)
        mp.update(EigenWeight(U, mp.lam * np.exp(rng.uniform(-0.2, 0.2, 4))))
        snap = dict(mp.snapshot(), rebuild_every=256, updates_since_build=1, cum_rank=40)
        clone = MaintainedProjection.from_snapshot(snap)
        h = rng.standard_normal(16)
        npt.assert_allclose(clone.query(h), mp.query(h), atol=1e-10)


class MaintainedProjectionMachine(RuleBasedStateMachine):
    """Random update / query / snapshot-resume sequences checked against the oracle.

    Any call may raise a KronprojError (for example a guard trip on a core
    driven to the eigenvalue floor), but an answer it does return must be
    finite and match the oracle.  A comparison is skipped only when the
    oracle itself raises.
    """

    @initialize(data=st.data())
    def build(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        m = data.draw(st.integers(1, n * n), label="m")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        self.cons = ConstraintBatch(matrix=rng.standard_normal((m, n * n)), n=n)
        self.U = random_orthogonal(n, rng)
        self.lam = np.exp(rng.uniform(-1.0, 1.0, n))
        self.mp = MaintainedProjection(
            self.cons, EigenWeight(self.U, self.lam),
            eps_mp=data.draw(st.sampled_from([0.01, 0.05, 0.09]), label="eps_mp"),
            a_exp=data.draw(st.sampled_from([0.1, 0.5, 0.9]), label="a_exp"),
            family=data.draw(
                st.sampled_from([SketchFamily.gaussian(), SketchFamily.countsketch()]),
                label="family",
            ),
            s=data.draw(st.integers(1, 3), label="s"),
            b=data.draw(st.integers(1, 6), label="b"),
            seed=seed,
        )

    def _vector(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="h_seed")
        return np.random.default_rng(seed).standard_normal(self.mp.n ** 2)

    @rule(data=st.data())
    def update(self, data):
        n = self.mp.n
        idx = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n), label="idx")
        drift = data.draw(
            st.lists(st.floats(-0.6, 0.6), min_size=len(idx), max_size=len(idx)), label="drift"
        )
        lam = self.lam.copy()
        lam[idx] *= np.exp(drift)
        if idx and data.draw(st.booleans(), label="to_floor"):
            lam[idx[0]] = 0.0  # floored to eig_floor by update
        try:
            lam_tilde = self.mp.update(EigenWeight(self.U, lam))
        except KronprojError:
            return
        self.lam = np.maximum(lam, self.mp.eig_floor)
        assert np.all(np.isfinite(lam_tilde))
        ratio = np.abs(np.log(self.lam) - np.log(lam_tilde))
        assert np.max(ratio) <= self.mp.eps_mp / 2.0 + 1e-12

    def _query(self, mp, h):
        """mp.query(h) and R_l^T R_l h, or None when the query raises."""
        R = mp.pool[mp.cursor].to_dense()
        try:
            out = mp.query(h)
        except KronprojError:
            return None
        assert np.all(np.isfinite(out))
        return out, R.T @ (R @ h)

    @rule(data=st.data())
    def query(self, data):
        lam_tilde = self.mp.lam_tilde.copy()
        got = self._query(self.mp, self._vector(data))
        if got is None:
            return
        out, v = got
        try:
            proj = oracle.exact_projection(self.cons, (self.U * lam_tilde) @ self.U.T)
        except KronprojError:
            return
        want = proj @ v
        assert np.linalg.norm(out - want) <= 1e-7 * np.linalg.norm(want)

    @rule(data=st.data())
    def snapshot_resume(self, data):
        try:
            clone = MaintainedProjection.from_snapshot(json.loads(json.dumps(self.mp.snapshot())))
        except KronprojError:
            return
        h = self._vector(data)
        got, mine = self._query(clone, h), self._query(self.mp, h)
        if got is not None and mine is not None:
            npt.assert_array_equal(got[1], mine[1])  # same sketch
            npt.assert_array_equal(got[0], mine[0])
        self.mp = clone

    @invariant()
    def invariants_hold(self):
        self.mp.check_invariants()


TestMaintainedProjectionMachine = MaintainedProjectionMachine.TestCase
TestMaintainedProjectionMachine.settings = settings(
    max_examples=200, stateful_step_count=20, deadline=None, derandomize=True
)
