import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.stats

from kronproj import sketch as sk
from kronproj.errors import DimensionError, ParameterError

ALL_FAMILIES = [
    sk.SketchFamily.gaussian(),
    sk.SketchFamily.srht(),
    sk.SketchFamily.ams(),
    sk.SketchFamily.countsketch(),
    sk.SketchFamily.sparse_embedding(4),
]


def fam_id(f):
    return f.tag


class TestGenerate:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=fam_id)
    def test_deterministic_given_seed(self, family):
        a = sk.generate(family, 16, 50, seed=1234)
        b = sk.generate(family, 16, 50, seed=1234)
        x = np.random.default_rng(0).standard_normal(50)
        npt.assert_array_equal(a.apply(x), b.apply(x))
        npt.assert_array_equal(a.to_dense(), b.to_dense())

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=fam_id)
    def test_distinct_seeds_differ(self, family):
        a = sk.generate(family, 16, 50, seed=1)
        b = sk.generate(family, 16, 50, seed=2)
        assert not np.array_equal(a.to_dense(), b.to_dense())

    def test_countsketch_columns_single_pm_one(self):
        s = sk.generate(sk.SketchFamily.countsketch(), 8, 100, seed=5)
        R = s.to_dense()
        assert R.shape == (8, 100)
        nz_per_col = np.sum(R != 0, axis=0)
        npt.assert_array_equal(nz_per_col, np.ones(100))
        assert set(np.unique(R[R != 0])) <= {-1.0, 1.0}

    def test_sparse_embedding_columns(self):
        fam = sk.SketchFamily.sparse_embedding(4)
        s = sk.generate(fam, 16, 60, seed=6)
        R = s.to_dense()
        nz_per_col = np.sum(R != 0, axis=0)
        npt.assert_array_equal(nz_per_col, 4 * np.ones(60))
        mags = np.unique(np.abs(R[R != 0]))
        npt.assert_allclose(mags, [0.5])  # 1/sqrt(4)
        # one nonzero per b/s block in every column
        blocks = R.reshape(4, 4, 60)
        npt.assert_array_equal(np.sum(blocks != 0, axis=1), np.ones((4, 60)))

    def test_countsketch_is_sparse_embedding_of_sparsity_one(self):
        # same seed, same sketch: CountSketch runs the sparse-embedding code
        for b, n in [(1, 1), (4, 7), (8, 100), (32, 128), (256, 1024)]:
            rng = np.random.default_rng(b * 7 + n)
            X, Y = rng.standard_normal((n, 2)), rng.standard_normal((b, 2))
            for seed in range(20):
                cs = sk.generate(sk.SketchFamily.countsketch(), b, n, seed)
                se = sk.generate(sk.SketchFamily.sparse_embedding(1), b, n, seed)
                npt.assert_array_equal(cs.to_dense(), se.to_dense())
                npt.assert_array_equal(cs.apply(X), se.apply(X))
                npt.assert_array_equal(cs.apply_adjoint(Y), se.apply_adjoint(Y))
        cs = sk.ce_estimate(sk.SketchFamily.countsketch(), 32, 128, 100, seed=3).to_dict()
        se = sk.ce_estimate(sk.SketchFamily.sparse_embedding(1), 32, 128, 100, seed=3).to_dict()
        assert cs.pop("family") == "countsketch" and se.pop("family") == "sparse_embedding"
        assert cs == se

    def test_countsketch_sparsity_is_one(self):
        with pytest.raises(ParameterError):
            sk.SketchFamily("countsketch", sparsity=2)

    def test_sparse_embedding_sparsity_must_divide(self):
        with pytest.raises(ParameterError):
            sk.generate(sk.SketchFamily.sparse_embedding(3), 16, 10, seed=0)

    def test_gaussian_entry_variance(self):
        s = sk.generate(sk.SketchFamily.gaussian(), 64, 256, seed=7)
        R = s.to_dense()
        var = R.var()
        assert abs(var - 1.0 / 64) <= 0.2 / 64

    def test_ams_entries(self):
        s = sk.generate(sk.SketchFamily.ams(), 32, 100, seed=8)
        R = s.to_dense()
        npt.assert_allclose(np.abs(R), np.full((32, 100), 1 / np.sqrt(32)))

    @pytest.mark.parametrize("degree", [2, 4])
    def test_poly_hash_matches_python_ints(self, degree):
        p = (1 << 31) - 1
        rng = np.random.default_rng(10)
        xs = np.concatenate([np.arange(8), p - 1 - np.arange(8), rng.integers(0, p, 48)])
        coeffs = rng.integers(0, p, size=(6, degree), dtype=np.int64)
        coeffs[0] = p - 1  # every term and the accumulator at their largest
        coeffs[1, :2] = [p - 1, p - 2]
        coeffs[2] = 0
        got = sk._poly_hash(coeffs.astype(np.uint64), sk._domain_powers(xs, degree))
        want = [
            [sum(int(c) * int(x) ** j for j, c in enumerate(row)) % p for x in xs]
            for row in coeffs
        ]
        assert got.dtype == np.uint64
        assert got.tolist() == want

    def test_srht_pads_and_scales(self):
        s = sk.generate(sk.SketchFamily.srht(), 4, 5, seed=9)
        assert s.R.n_pad == 8
        R = s.to_dense()
        assert R.shape == (4, 5)
        # row norms use the padded dimension: sqrt(n_pad / b) over the full
        # padded row; restricted columns only shrink them
        full = sk.Sketch(s.family, 4, 8, 9, s.R).to_dense()
        npt.assert_array_equal(full[:, :5], R)
        npt.assert_allclose(np.linalg.norm(full, axis=1), np.sqrt(8 / 4) * np.ones(4))

    def test_invalid_dims(self):
        with pytest.raises(ParameterError):
            sk.generate(sk.SketchFamily.gaussian(), 0, 5, seed=0)

    @pytest.mark.parametrize("b, n", [(8, 1), (5, 3), (9, 8)])
    def test_srht_more_rows_than_padded_n_rejected(self, b, n):
        with pytest.raises(ParameterError):
            sk.generate(sk.SketchFamily.srht(), b, n, seed=0)

    @pytest.mark.parametrize("b, n", [(1, 1), (4, 3), (8, 5)])
    def test_srht_all_padded_rows_allowed(self, b, n):
        s = sk.generate(sk.SketchFamily.srht(), b, n, seed=0)
        assert s.R.n_pad == b
        assert sorted(s.R.rows.tolist()) == list(range(b))


class TestApply:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=fam_id)
    def test_zero_maps_to_zero(self, family):
        s = sk.generate(family, 8, 33, seed=11)
        npt.assert_array_equal(s.apply(np.zeros(33)), np.zeros(8))

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=fam_id)
    def test_linearity(self, family):
        rng = np.random.default_rng(12)
        s = sk.generate(family, 8, 33, seed=13)
        x = rng.standard_normal(33)
        y = rng.standard_normal(33)
        npt.assert_allclose(s.apply(x + y), s.apply(x) + s.apply(y), atol=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=fam_id)
    def test_apply_matches_dense(self, family):
        rng = np.random.default_rng(14)
        s = sk.generate(family, 8, 33, seed=15)
        x = rng.standard_normal(33)
        npt.assert_allclose(s.apply(x), s.to_dense() @ x, atol=1e-10)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=fam_id)
    def test_adjoint_matches_dense(self, family):
        rng = np.random.default_rng(16)
        s = sk.generate(family, 8, 33, seed=17)
        y = rng.standard_normal(8)
        npt.assert_allclose(s.apply_adjoint(y), s.to_dense().T @ y, atol=1e-10)

    def test_countsketch_on_basis_vector(self):
        s = sk.generate(sk.SketchFamily.countsketch(), 8, 20, seed=18)
        out = s.apply(np.eye(20)[3])
        assert np.sum(out != 0) == 1
        assert abs(out[np.nonzero(out)][0]) == 1.0

    def test_length_mismatch(self):
        s = sk.generate(sk.SketchFamily.gaussian(), 8, 20, seed=19)
        with pytest.raises(DimensionError):
            s.apply(np.ones(21))

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=fam_id)
    def test_scalar_input_refused(self, family):
        s = sk.generate(family, 4, 3, seed=19)
        with pytest.raises(DimensionError):
            s.apply(np.float64(1.0))
        with pytest.raises(DimensionError):
            s.apply_adjoint(1.0)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=fam_id)
    def test_three_dimensional_input_refused(self, family):
        # the leading dims conform, so only the rank check stops these
        s = sk.generate(family, 4, 3, seed=19)
        with pytest.raises(DimensionError):
            s.apply(np.ones((3, 3, 2)))
        with pytest.raises(DimensionError):
            s.apply_adjoint(np.ones((4, 3, 2)))

    def test_matrix_apply(self):
        rng = np.random.default_rng(20)
        s = sk.generate(sk.SketchFamily.srht(), 8, 20, seed=21)
        X = rng.standard_normal((20, 3))
        npt.assert_allclose(s.apply(X), s.to_dense() @ X, atol=1e-10)


# Reference: the per-family representation and kernels that sketches used
# before each held one operator (an np.add.at scatter for the sparse
# families' apply, a gather-and-sum for their adjoint, and explicit
# Hadamard rows for SRHT's to_dense).  The operator path must reproduce
# them bit for bit.
def _reference_rep(family, b, n, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if family.tag == "gaussian":
        return {"dense": rng.standard_normal((b, n)) / np.sqrt(b)}
    if family.tag == "srht":
        n_pad = sk._next_pow2(n)
        signs = rng.integers(0, 2, size=n_pad).astype(np.float64) * 2.0 - 1.0
        rows = rng.choice(n_pad, size=b, replace=False)
        return {"n_pad": n_pad, "signs": signs, "rows": rows, "scale": np.sqrt(n_pad / b)}
    if family.tag == "ams":
        powers = sk._domain_powers(np.arange(n, dtype=np.uint64), 4)
        return {"dense": sk._hash_signs(rng, powers, m=b) / np.sqrt(b)}
    s = family.sparsity
    block = b // s
    powers4 = sk._domain_powers(np.arange(n * s, dtype=np.uint64), 4)
    bins = sk._hash_bins(rng, powers4[:1], block, m=1)[0].reshape(n, s)
    signs = sk._hash_signs(rng, powers4, m=1)[0].reshape(n, s) / np.sqrt(s)
    return {"rows": (bins + block * np.arange(s)[None, :]).reshape(-1), "signs": signs}


def _hadamard_rows(rows, n):
    """Selected rows of the unnormalized Sylvester-Hadamard matrix."""
    r = np.asarray(rows, dtype=np.uint64)[:, None]
    c = np.arange(n, dtype=np.uint64)[None, :]
    v = r & c
    for s in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(s)
    return 1.0 - 2.0 * (v & np.uint64(1)).astype(np.float64)


def _reference_apply(rep, family, b, n, x):
    X = x[:, None] if x.ndim == 1 else x
    if "dense" in rep:
        out = rep["dense"] @ X
    elif family.tag == "srht":
        n_pad = rep["n_pad"]
        Xp = np.zeros((n_pad, X.shape[1]))
        Xp[:n] = rep["signs"][:n, None] * X
        out = rep["scale"] * (sk.fwht(Xp) / np.sqrt(n_pad))[rep["rows"]]
    else:
        s = family.sparsity
        out = np.zeros((b, X.shape[1]))
        weighted = rep["signs"].reshape(n, s, 1) * X[:, None, :]
        np.add.at(out, rep["rows"], weighted.reshape(n * s, -1))
    return out[:, 0] if x.ndim == 1 else out


def _reference_adjoint(rep, family, b, n, y):
    Y = y[:, None] if y.ndim == 1 else y
    if "dense" in rep:
        out = rep["dense"].T @ Y
    elif family.tag == "srht":
        n_pad = rep["n_pad"]
        Yp = np.zeros((n_pad, Y.shape[1]))
        Yp[rep["rows"]] = Y
        out = rep["scale"] * (rep["signs"][:n, None] * (sk.fwht(Yp) / np.sqrt(n_pad))[:n])
    else:
        s = family.sparsity
        gathered = rep["signs"].reshape(n, s, 1) * Y[rep["rows"].reshape(n, s)]
        out = gathered.sum(axis=1)
    return out[:, 0] if y.ndim == 1 else out


def _reference_dense(rep, family, b, n):
    if "dense" in rep:
        return rep["dense"].copy()
    if family.tag == "srht":
        H = _hadamard_rows(rep["rows"], rep["n_pad"]) / np.sqrt(rep["n_pad"])
        return rep["scale"] * (H * rep["signs"][None, :])[:, :n]
    R = np.zeros((b, n))
    R[rep["rows"], np.repeat(np.arange(n), family.sparsity)] = rep["signs"].ravel()
    return R


def _assert_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


REFERENCE_FAMILIES = ALL_FAMILIES + [sk.SketchFamily.sparse_embedding(8)]


class TestOperatorMatchesReference:
    @pytest.mark.parametrize("family", REFERENCE_FAMILIES, ids=lambda f: f"{f.tag}{f.sparsity}")
    @pytest.mark.parametrize("b,n", [(8, 5), (8, 33), (64, 1000), (256, 1024)])
    def test_bit_identical(self, family, b, n):
        for seed in range(3):
            s = sk.generate(family, b, n, seed)
            rep = _reference_rep(family, b, n, seed)
            rng = np.random.default_rng(seed)
            for x in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                _assert_bits(s.apply(x), _reference_apply(rep, family, b, n, x))
            Y = rng.standard_normal((b, 3))
            _assert_bits(s.apply_adjoint(Y), _reference_adjoint(rep, family, b, n, Y))
            y = rng.standard_normal(b)
            got, want = s.apply_adjoint(y), _reference_adjoint(rep, family, b, n, y)
            if family.tag in ("countsketch", "sparse_embedding"):
                # the reference sums a column's s slots pairwise, CSR in sequence
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
            else:
                _assert_bits(got, want)
            _assert_bits(s.to_dense(), _reference_dense(rep, family, b, n))

    @pytest.mark.parametrize("b,n", [(4, 5), (8, 33), (16, 64), (64, 1000)])
    def test_srht_dense_matches_scipy_hadamard(self, b, n):
        s = sk.generate(sk.SketchFamily.srht(), b, n, seed=n)
        n_pad = s.R.n_pad
        assert n_pad == sk._next_pow2(n) and (n_pad == n) == (n & (n - 1) == 0)
        H = scipy.linalg.hadamard(n_pad).astype(float)[s.R.rows] / np.sqrt(n_pad)
        npt.assert_array_equal(s.to_dense(), s.R.scale * (H * s.R.signs)[:, :n])


class TestFWHT:
    def test_matches_sylvester_matrix(self):
        H2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        H8 = np.kron(np.kron(H2, H2), H2)
        rng = np.random.default_rng(22)
        x = rng.standard_normal(8)
        npt.assert_allclose(sk.fwht(x), H8 @ x, atol=1e-12)

    def test_hd_preserves_norm(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            x = rng.standard_normal(64)
            d = rng.integers(0, 2, 64) * 2.0 - 1.0
            y = sk.fwht(d * x) / np.sqrt(64)
            assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionError):
            sk.fwht(np.ones(6))


class TestGaussianGram:
    DRAWS = 20_000
    KS_P_MIN = 1e-4  # fixed before any draw was made

    @pytest.mark.parametrize("b, n", [(7, 4), (3, 8)])
    def test_deterministic_symmetric_rank_min_n_b(self, b, n):
        K = sk.gaussian_gram(b, n, seed=3)
        npt.assert_array_equal(K, sk.gaussian_gram(b, n, seed=3))
        npt.assert_array_equal(K, K.T)  # exactly, as a Gram formed from R is
        assert np.linalg.matrix_rank(K) == min(n, b)
        with pytest.raises(ParameterError):
            sk.gaussian_gram(0, n, seed=3)

    @pytest.mark.parametrize("b, n", [(8, 4), (4, 8)])
    def test_law_is_that_of_the_sketch_gram(self, b, n):
        N = self.DRAWS
        Ks = np.stack([sk.gaussian_gram(b, n, s) for s in range(N)])
        # b K ~ Wishart_n(b, I): first and second moments, each within 5 SE
        d = Ks[:, np.arange(n), np.arange(n)]
        i, j = np.triu_indices(n, 1)
        for name, x, want in [
            ("K", Ks.reshape(N, -1), np.eye(n).ravel()),
            ("K_ij^2", Ks[:, i, j] ** 2, 1.0 / b),
            ("K_ii^2", d**2, 1.0 + 2.0 / b),
            ("K_ii K_jj", d[:, i] * d[:, j], 1.0),
        ]:
            z = (x.mean(axis=0) - want) / (x.std(axis=0, ddof=1) / np.sqrt(N))
            assert np.abs(z).max() <= 5.0, (name, z)
        # h^T K g against (R h).(R g) from explicit sketches on disjoint seeds
        rng = np.random.default_rng(0)
        h, g = rng.standard_normal(n), rng.standard_normal(n)
        R = np.stack([
            sk.generate(sk.SketchFamily.gaussian(), b, n, s).to_dense()
            for s in range(N, N + N // 2)
        ])
        p = scipy.stats.ks_2samp(Ks @ g @ h, (R @ h * (R @ g)).sum(axis=1)).pvalue
        assert p >= self.KS_P_MIN, p


class TestSketchBatch:
    def test_batch_determinism_and_shape(self):
        fam = sk.SketchFamily.gaussian()
        p1 = sk.SketchBatch.generate(fam, 4, 8, 36, seed=100)
        p2 = sk.SketchBatch.generate(fam, 4, 8, 36, seed=100)
        npt.assert_array_equal(p1.transpose_dense(), p2.transpose_dense())
        assert p1.transpose_dense().shape == (36, 32)

    def test_batch_sketches_independent(self):
        fam = sk.SketchFamily.gaussian()
        p = sk.SketchBatch.generate(fam, 3, 8, 36, seed=101)
        assert not np.array_equal(p[0].to_dense(), p[1].to_dense())


class TestCEEstimate:
    def test_unit_basis_pair_gaussian(self):
        n, b = 64, 64
        e1 = np.eye(n)[0]
        rep = sk.ce_estimate(
            sk.SketchFamily.gaussian(), b, n, trials=3000, seed=31, g=e1, h=e1
        )
        # chi-square mean 1; must sit within 3 standard errors
        assert rep.mean_bias <= 3.0 * rep.se_mean

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=fam_id)
    def test_orthogonal_pair_mean_zero(self, family):
        n, b = 64, 32
        g = np.eye(n)[0]
        h = np.eye(n)[1]
        rep = sk.ce_estimate(family, b, n, trials=2000, seed=32, g=g, h=h)
        assert rep.true_ip == 0.0
        assert rep.mean_bias <= 4.0 * rep.se_mean

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=fam_id)
    def test_unbiased_many_pairs(self, family):
        # trial-mean within 4 standard errors for 20 random unit pairs
        rng = np.random.default_rng(33)
        fails = 0
        for i in range(20):
            g = rng.standard_normal(48)
            g /= np.linalg.norm(g)
            h = rng.standard_normal(48)
            h /= np.linalg.norm(h)
            rep = sk.ce_estimate(family, 24, 48, trials=400, seed=1000 + i, g=g, h=h)
            if rep.mean_bias > 4.0 * rep.se_mean:
                fails += 1
        assert fails <= 1  # 4-sigma misses should be rare, allow one

    @pytest.mark.parametrize(
        "family",
        [sk.SketchFamily.countsketch(), sk.SketchFamily.sparse_embedding(4)],
        ids=fam_id,
    )
    def test_norm_preserved_in_expectation(self, family):
        rng = np.random.default_rng(34)
        x = rng.standard_normal(60)
        vals = []
        for i in range(2000):
            s = sk.generate(family, 16, 60, seed=5000 + i)
            vals.append(np.sum(s.apply(x) ** 2))
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - x @ x) <= 4.0 * se

    def test_gaussian_tail_under_table_bound(self):
        n, b = 256, 64
        rep = sk.ce_estimate(sk.SketchFamily.gaussian(), b, n, trials=2000, seed=35)
        bound = 20.0 * np.log(n / rep.delta) ** 1.5
        assert rep.beta_hat <= bound

    def test_requires_min_trials(self):
        with pytest.raises(ParameterError):
            sk.ce_estimate(sk.SketchFamily.gaussian(), 8, 16, trials=10, seed=0)

    def test_report_serializable(self):
        import json

        rep = sk.ce_estimate(sk.SketchFamily.ams(), 16, 32, trials=200, seed=36)
        blob = json.dumps(rep.to_dict())
        assert '"family": "ams"' in blob
