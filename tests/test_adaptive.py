import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.stats

from kronproj import adaptive as ad
from kronproj import oracle
from kronproj.dpcore import SignedGeometricGrid
from kronproj.errors import DimensionError, ParameterError
from kronproj.sketch import SketchFamily


class StubEstimator:
    """Constant estimator; tracks call counts."""

    def __init__(self, seed, value=1.0):
        self.value = value
        self.updates = 0
        self.queries = 0

    def update(self, G, h):
        self.updates += 1

    def query(self):
        self.queries += 1
        return self.value

    def query_set(self, Q):
        self.queries += 1
        return np.full(len(Q), self.value)


class TestParams:
    def test_norm_params_closed_form(self):
        T, delta, alpha, u = 100, 0.1, 0.5, 2.0**20
        q, L, delta0 = ad.norm_wrapper_params(T, u, alpha, delta)
        log_grid = math.log(u) / math.log1p(alpha)
        q_want = math.ceil(8.0 * math.log(log_grid * T / (alpha * delta)))
        assert q == q_want
        assert delta0 == delta / (2 * T)
        L_want = math.ceil(600.0 * q_want * math.sqrt(4 * T * math.log(400.0 * 2 * T / delta)))
        assert L == L_want

    def test_norm_params_lower_bounds(self):
        # the smallest T, U and 1/(alpha delta) the checks admit still give
        # q >= 8 and thousands of copies per sampled one
        q, L, _ = ad.norm_wrapper_params(1, 1.001, 0.999, 0.999)
        assert q >= 8 and L >= 3000 * q
        q, L, _ = ad.setquery_wrapper_params(1, 1, 1.001, 0.999, 0.999)
        assert q >= 8 and L >= 3000 * q

    def test_setquery_params_formula(self):
        T, k, delta = 50, 8, 0.1
        q, L, beta = ad.setquery_wrapper_params(T, k, 2.0**10, 0.25, delta)
        assert beta == delta / (4 * T)
        L_want = math.ceil(
            ad.C_L_SET * q * math.sqrt(k * T * math.log(800.0 * T / delta))
        )
        assert L == L_want

    def test_setquery_k1_matches_norm_up_to_constant(self):
        T, delta, alpha, u = 64, 0.05, 0.25, 2.0**12
        q_n, L_n, _ = ad.norm_wrapper_params(T, u, alpha, delta)
        q_s, L_s, _ = ad.setquery_wrapper_params(T, 1, u, alpha, delta)
        assert q_s == q_n
        ratio = L_s / L_n
        # both scale as q sqrt(T log(800 T / delta)); only constants differ
        want = ad.C_L_SET / (2.0 * ad.C_L_NORM)
        assert abs(ratio - want) / want < 0.01

    def test_invalid_rejected(self):
        with pytest.raises(ParameterError):
            ad.norm_wrapper_params(0, 2.0, 0.5, 0.1)
        with pytest.raises(ParameterError):
            ad.setquery_wrapper_params(10, 0, 2.0, 0.5, 0.1)


class TestBudgets:
    def test_norm_budget_paper_instance(self):
        # L = 600 q sqrt(4 T ln(400/delta0)) drives total epsilon <= 1/200
        for T in (10, 100, 10**4, 10**6):
            for delta0 in (1e-8, 1e-4, 0.05):
                q = 50
                L = 600.0 * q * math.sqrt(4.0 * T * math.log(400.0 / delta0))
                step_eps = 3.0 * q / (2.0 * L)
                assert abs(ad.amplification(0.25, q, L) - step_eps) <= 1e-15
                bgt = ad.norm_transcript_budget(L, q, T, delta0)
                assert bgt.epsilon <= 1.0 / 200.0
                assert bgt.delta == delta0 / 400.0

    def test_setquery_budget_closes_at_scale_one(self):
        for T in (5, 50, 500, 10**5):
            for k in (1, 8, 256):
                for delta in (1e-5, 0.01, 0.3):
                    q, L, beta = ad.setquery_wrapper_params(T, k, 2.0**16, 0.25, delta)
                    bgt = ad.setquery_transcript_budget(L, q, T, k, beta)
                    assert bgt.epsilon <= 1.0 / 200.0
                    assert bgt.delta <= beta / 400.0 + 1e-18

    def test_budget_requires_amplification_hypothesis(self):
        with pytest.raises(ParameterError):
            ad.norm_transcript_budget(10, 6, 5, 0.01)


class TestWrapperMechanics:
    def _norm_wrapper(self, L=20, q=5, T=50, seed=0, u=16.0):
        return ad.make_norm_wrapper(
            lambda s: StubEstimator(s), T, u, 0.25, 0.1,
            seed=seed, q_override=q, L_override=L,
        )

    def test_holds_exactly_L_copies(self):
        w = self._norm_wrapper(L=20, q=5)
        assert w.L == 20 and len(w.copies) == 20

    def test_cost_counters_exact(self):
        T, L, q = 12, 10, 4
        w = self._norm_wrapper(L=L, q=q, T=T)
        rng = np.random.default_rng(0)
        for _ in range(T):
            ad.norm_step(w, np.eye(3), rng.standard_normal(3))
        assert w.counters["copy_updates"] == L * T
        assert w.counters["inner_queries"] == q * T

    def test_step_budget_enforced(self):
        w = self._norm_wrapper(T=2)
        for _ in range(2):
            ad.norm_step(w, np.eye(3), np.ones(3))
        with pytest.raises(ParameterError):
            ad.norm_step(w, np.eye(3), np.ones(3))

    def test_rounded_values_are_grid_points(self):
        w = self._norm_wrapper()
        ad.norm_step(w, np.eye(3), np.ones(3))
        for v in w.last_step_info["rounded"]:
            assert w.grid.contains(v)

    def test_transcript_determinism(self):
        outs = []
        for _ in range(2):
            w = self._norm_wrapper(seed=123)
            rng = np.random.default_rng(9)
            seq = [
                ad.norm_step(w, np.eye(3), rng.standard_normal(3)) for _ in range(10)
            ]
            outs.append((seq, w.last_step_info))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_overflow_clamped_and_counted(self):
        w = ad.make_norm_wrapper(
            lambda s: StubEstimator(s, value=1e6), 5, 16.0, 0.25, 0.1,
            seed=1, q_override=3, L_override=6,
        )
        ad.norm_step(w, np.eye(3), np.ones(3))
        assert w.counters["overflow_clamps"] == 3
        # clamped to U before rounding, so rounded values stay on the grid
        assert all(abs(v) <= 16.0 * 1.25 for v in w.last_step_info["rounded"])
        assert all(w.grid.contains(v) for v in w.last_step_info["rounded"])

    def test_subsample_uniformity_chi2(self):
        L, q, steps = 10, 1, 100_000
        w = ad.make_norm_wrapper(
            lambda s: StubEstimator(s), steps, 16.0, 0.25, 0.1,
            seed=5, q_override=q, L_override=L,
        )
        counts = np.zeros(L)
        for _ in range(steps):
            sampled = ad._fanout_update(w, np.eye(2), np.ones(2))
            np.add.at(counts, sampled, 1)
            w.step += 1
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.001

    def test_mode_mismatch_rejected(self):
        w = self._norm_wrapper()
        with pytest.raises(ParameterError):
            ad.setquery_step(w, np.eye(3), np.ones(3), [0])


class NoisyStub:
    """Seeded estimator whose outputs mix zeros, tiny values, values inside
    the domain and values beyond U = 4."""

    POOL = np.array([0.0, 1e-9, -1e-9, 0.25, 4.0, 5.0, -1e3])

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def update(self, G, h):
        pass

    def _draw(self, size):
        v = self.rng.standard_normal(size) * 2.0
        mask = self.rng.random(size) < 0.4
        v[mask] = self.rng.choice(self.POOL, size=int(mask.sum()))
        return v

    def query(self):
        return float(self._draw(1)[0])

    def query_set(self, Q):
        return self._draw(len(Q))


def _loop_step(w, query, **info):
    """The per-coordinate scalar loop the wrapper's array pass replaces."""
    sampled = ad._fanout_update(w, np.eye(3), np.ones(3))
    raw = [query(w.copies[l]) for l in sampled]
    w.counters["inner_queries"] += w.q
    outputs = np.array(raw, dtype=float).reshape(w.q, -1)
    u, rounded_cols, errs = [], [], []
    for j in range(outputs.shape[1]):
        col = []
        for f in outputs[:, j]:
            if abs(f) > w.grid.u_bound:
                w.counters["overflow_clamps"] += 1
                f = math.copysign(w.grid.u_bound, f)
            col.append(ad.round_to_grid(f, w.grid))
        u.append(ad.private_median(col, w.grid, ad.EPS_PM, w.rng))
        errs.append(float(ad.median_rank_error(col, u[-1])))
        rounded_cols.append(col)
    rounded = [list(row) for row in zip(*rounded_cols)]
    raw = outputs.tolist()
    if w.mode == ad.NORM_MODE:
        raw, rounded, u, errs = [r[0] for r in raw], [r[0] for r in rounded], u[0], errs[0]
    w.last_step_info = {"t": w.step, **info, "sampled": [int(l) for l in sampled],
                        "raw": raw, "rounded": rounded, "u": u, "rank_error": errs}
    w.step += 1
    return u


class TestArrayPassMatchesScalarLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_norm_wrapper(self, seed):
        a, b = (
            ad.make_norm_wrapper(NoisyStub, 40, 4.0, 0.25, 0.1,
                                 seed=seed, q_override=7, L_override=16)
            for _ in range(2)
        )
        for _ in range(40):
            u = ad.norm_step(a, np.eye(3), np.ones(3))
            assert u == _loop_step(b, lambda c: c.query())
            assert a.last_step_info == b.last_step_info
        assert a.counters == b.counters
        assert a.counters["overflow_clamps"] > 0
        assert a.rng.random() == b.rng.random()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_setquery_wrapper(self, seed):
        a, b = (
            ad.make_setquery_wrapper(NoisyStub, 40, 8, 4.0, 0.25, 0.1,
                                     seed=seed, q_override=7, L_override=16)
            for _ in range(2)
        )
        coords = list(range(8))
        for _ in range(40):
            u = ad.setquery_step(a, np.eye(8), np.ones(8), coords)
            assert u.tolist() == _loop_step(b, lambda c: c.query_set(coords), coords=coords)
            assert a.last_step_info == b.last_step_info
        assert a.counters == b.counters
        assert a.counters["overflow_clamps"] > 0
        assert a.rng.random() == b.rng.random()


class TestNormAccuracy:
    def test_exact_estimator_within_envelope(self):
        # instance scales put the entire grid inside the tolerance
        # envelope (see harness defaults); all steps must pass
        rng = np.random.default_rng(11)
        n = 16
        failures = 0
        for run in range(20):
            w = ad.make_norm_wrapper(
                lambda s: ad.ExactNormEstimator(s, u_bound=8.0),
                10, 8.0, 0.25, 0.1, seed=run, q_override=7, L_override=20,
            )
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            for _ in range(10):
                h = rng.standard_normal(n)
                h /= np.linalg.norm(h)
                G = 2.0 * Q
                u_t = ad.norm_step(w, G, h)
                truth = oracle.exact_norm(G, h)
                bound = 0.25 * np.linalg.norm(G, "fro") ** 2
                if abs(u_t - truth) > bound:
                    failures += 1
        assert failures == 0

    def test_private_median_tracks_values_when_sharp(self, monkeypatch):
        # with a large subsample and the budget concentrated, the output
        # lands within one grid step of the common estimate
        monkeypatch.setattr(ad, "EPS_PM", 1.0)
        w = ad.make_norm_wrapper(
            lambda s: ad.ExactNormEstimator(s, u_bound=16.0),
            5, 16.0, 0.25, 0.1, seed=3, q_override=400, L_override=900,
        )
        G = np.eye(4) * 1.3
        h = np.ones(4) / 2.0
        truth = oracle.exact_norm(G, h)
        u_t = ad.norm_step(w, G, h)
        assert truth <= u_t * (1.0 + 1e-9)
        assert u_t <= truth * 1.25 * 1.25


class TestSetQuery:
    def test_counters_and_shapes(self):
        T, L, q, k = 6, 8, 3, 4
        w = ad.make_setquery_wrapper(
            lambda s: StubEstimator(s), T, k, 4.0, 0.25, 0.1,
            seed=2, q_override=q, L_override=L,
        )
        rng = np.random.default_rng(1)
        for t in range(T):
            u = ad.setquery_step(w, np.eye(6), rng.standard_normal(6), list(range(k)))
            assert u.shape == (k,)
        assert w.counters["copy_updates"] == L * T
        assert w.counters["inner_queries"] == q * T  # one shared subsample per step

    def test_cardinality_mismatch(self):
        w = ad.make_setquery_wrapper(
            lambda s: StubEstimator(s), 4, 3, 4.0, 0.25, 0.1,
            seed=2, q_override=2, L_override=4,
        )
        with pytest.raises(DimensionError):
            ad.setquery_step(w, np.eye(6), np.ones(6), [0, 1])

    @pytest.mark.parametrize("coords", [[-1, 0], [6, 0], [0, 99]])
    def test_out_of_range_coordinate_refused_before_any_update(self, coords):
        fam = SketchFamily.gaussian()
        w = ad.make_setquery_wrapper(
            lambda s: ad.sketched_norm_estimator(fam, 16, s, u_bound=2.0), 4, 2, 2.0,
            0.25, 0.1, seed=3, q_override=3, L_override=6,
        )
        rng = np.random.default_rng(4)
        G, h = rng.standard_normal((6, 6)), rng.standard_normal(6)
        ad.setquery_step(w, G, h, [1, 2])

        def snapshot():
            return w.step, dict(w.counters), w.rng.bit_generator.state, dict(w.last_step_info)

        before, inputs = snapshot(), [c._h for c in w.copies]
        with pytest.raises(DimensionError):
            ad.setquery_step(w, 2.0 * G, -h, coords)
        assert snapshot() == before
        assert all(c._h is h_l for c, h_l in zip(w.copies, inputs))

    def test_exact_estimator_per_coordinate_envelope(self):
        # row norms 64 make the per-coordinate envelope (16) cover the
        # grid range [-2.5, 2.5] plus the largest truth (< 10)
        rng = np.random.default_rng(12)
        n, k = 16, 4
        failures = 0
        for run in range(10):
            w = ad.make_setquery_wrapper(
                lambda s: ad.ExactNormEstimator(s, u_bound=2.0),
                8, k, 2.0, 0.25, 0.1, seed=run, q_override=7, L_override=20,
            )
            perm = rng.permutation(n)
            G = np.zeros((n, n))
            G[np.arange(n), perm] = 8.0
            for _ in range(8):
                h = np.clip(1.0 + 0.3 * rng.standard_normal(n), 0.4, 1.6)
                h /= np.linalg.norm(h)
                coords = rng.choice(n, size=k, replace=False)
                u = ad.setquery_step(w, G, h, coords)
                truths = oracle.exact_set_query(G, h, coords)
                bounds = 0.25 * np.sum(G[coords] ** 2, axis=1)
                failures += int(np.any(np.abs(u - truths) > bounds))
        assert failures == 0


def _scalar_clamp(v, u_bound):
    """The per-value clamp the estimators ran before the array clamp."""
    if u_bound is None or v == 0.0:
        return float(v)
    return float(np.clip(abs(v), 1.0 / u_bound, u_bound)) * (1.0 if v >= 0 else -1.0)


class TestEstimators:
    @pytest.mark.parametrize("u_bound", [None, 1.5, 4.0])
    def test_array_clamp_matches_scalar_clamp(self, u_bound):
        rng = np.random.default_rng(5)
        U = u_bound or 4.0
        vals = np.concatenate([
            [0.0, -0.0, 1e-300, -1e-12, 1.0 / U, -1.0 / U, U, -U,
             np.nextafter(U, np.inf), -np.nextafter(U, np.inf), 2 * U, -5 * U, np.inf],
            rng.standard_normal(40) * U,
        ])
        got, overflows = ad._clamp_to_domain(vals, u_bound)
        want = np.array([_scalar_clamp(v, u_bound) for v in vals])
        assert got.tobytes() == want.tobytes()
        assert overflows == (0 if u_bound is None else int(np.sum(np.abs(vals) > U)))

    def test_sketched_overflows_counted_per_value(self):
        est = ad.sketched_norm_estimator(SketchFamily.gaussian(), 16, seed=8, u_bound=1.5)
        rng = np.random.default_rng(6)
        G, h = 2.0 * rng.standard_normal((8, 8)), rng.standard_normal(8)
        est.update(G, h)
        z = est._sketch.apply(h)
        raw = (z @ est._sketch.apply(G.T)) ** 2
        got = est.query_set(range(8))
        assert got.tobytes() == np.array([_scalar_clamp(v, 1.5) for v in raw]).tobytes()
        assert est.overflow_clamps == int(np.sum(raw > 1.5)) > 0

    def test_exact_estimator_clamps_into_domain(self):
        est = ad.ExactNormEstimator(0, u_bound=4.0)
        est.update(np.eye(2) * 10.0, np.ones(2))
        assert est.query() == 4.0
        est.update(np.eye(2) * 1e-9, np.ones(2))
        assert est.query() == 0.25

    def test_sketched_norm_estimator_accuracy(self):
        # b sized so the squared-inner-product tail stays within gamma;
        # calibrate on one batch, verify on a fresh one
        fam = SketchFamily.gaussian()
        b = 8192
        gamma = 0.1
        n = 16
        e1 = np.eye(n)[0]
        G = np.outer(e1, e1)
        hits = 0
        trials = 400
        for i in range(trials):
            est = ad.sketched_norm_estimator(fam, b, seed=10_000 + i)
            est.update(G, e1)
            if abs(est.query() - 1.0) <= gamma:
                hits += 1
        assert hits / trials >= 0.98

    def test_sketched_estimator_determinism(self):
        fam = SketchFamily.gaussian()
        a = ad.sketched_norm_estimator(fam, 64, seed=5)
        b = ad.sketched_norm_estimator(fam, 64, seed=5)
        G = np.eye(8)
        h = np.arange(8.0)
        a.update(G, h)
        b.update(G, h)
        assert a.query() == b.query()
        npt.assert_array_equal(a.query_set([0, 3]), b.query_set([0, 3]))

    def test_sketched_query_set_matches_per_row_form(self):
        fam = SketchFamily.gaussian()
        est = ad.sketched_norm_estimator(fam, 64, seed=6)
        rng = np.random.default_rng(2)
        G = rng.standard_normal((8, 8))
        h = rng.standard_normal(8)
        est.update(G, h)
        sk = est._sketch
        z = sk.apply(h)
        want = [(sk.apply(G[j]) @ z) ** 2 for j in (1, 4)]
        npt.assert_allclose(est.query_set([1, 4]), want, atol=1e-10)
