import math

import numpy as np
import numpy.testing as npt
import pytest

from kronproj import dpcore as dp
from kronproj.errors import GridDomainError, ParameterError


class TestGrid:
    def test_structure(self):
        g = dp.SignedGeometricGrid(16.0, 0.5)
        pts = g.points
        assert np.all(np.diff(pts) > 0)
        assert 0.0 in pts
        npt.assert_allclose(pts, -pts[::-1])
        assert pts.min() <= -16.0 <= 16.0 <= pts.max()

    def test_magnitude_count_tracks_log(self):
        for u, alpha in [(16.0, 0.5), (2.0**20, 0.25), (10.0, 0.1)]:
            g = dp.SignedGeometricGrid(u, alpha)
            t = math.log(u) / math.log1p(alpha)
            assert abs(g.magnitudes.size - 2 * math.ceil(t)) <= 2

    def test_covers_inverse_range(self):
        g = dp.SignedGeometricGrid(16.0, 0.5)
        assert g.magnitudes.min() <= 1 / 16.0 * (1 + 0.5)
        assert g.magnitudes.min() >= 1 / 16.0
        assert g.magnitudes.max() <= 16.0 * 1.5 * (1 + 1e-12)

    def test_exact_power_bound_included(self):
        # U = 2^4 with alpha = 1: powers of 2 from 1/16 up to 32
        g = dp.SignedGeometricGrid(16.0, 1.0)
        assert g.contains(16.0)
        assert g.contains(-16.0)
        assert g.contains(1.0 / 16.0)

    def test_from_exponent_range_count(self):
        g = dp.SignedGeometricGrid.from_exponent_range(0.25, -25, 24)
        assert len(g) == 101

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            dp.SignedGeometricGrid(0.5, 0.5)
        with pytest.raises(ParameterError):
            dp.SignedGeometricGrid(2.0, 1.5)

    def test_serialization(self):
        g = dp.SignedGeometricGrid(16.0, 0.5)
        d = g.to_dict()
        assert d["u_bound"] == 16.0 and d["alpha"] == 0.5
        assert d["points"] == len(g)


class TestRoundToGrid:
    def test_zero(self):
        g = dp.SignedGeometricGrid(16.0, 0.5)
        assert dp.round_to_grid(0.0, g) == 0.0

    def test_rounds_up_to_next_power(self):
        g = dp.SignedGeometricGrid(4.0, 0.1)
        # ceil(log_1.1 1.05) = 1
        npt.assert_allclose(dp.round_to_grid(1.05, g), 1.1)

    def test_exact_power_unchanged(self):
        g = dp.SignedGeometricGrid(16.0, 1.0)
        assert dp.round_to_grid(-2.0, g) == -2.0

    def test_multiplicative_and_sign(self):
        g = dp.SignedGeometricGrid(64.0, 0.3)
        rng = np.random.default_rng(0)
        for _ in range(500):
            v = float(rng.uniform(-64, 64))
            if abs(v) < 1 / 64.0:
                continue
            r = dp.round_to_grid(v, g)
            assert np.sign(r) == np.sign(v)
            ratio = abs(r) / abs(v)
            assert 1.0 - 1e-9 <= ratio <= 1.3 + 1e-9

    def test_monotone(self):
        g = dp.SignedGeometricGrid(64.0, 0.3)
        rng = np.random.default_rng(1)
        vs = np.sort(rng.uniform(-64, 64, size=300))
        rs = [dp.round_to_grid(v, g) for v in vs]
        assert np.all(np.diff(rs) >= 0)

    def test_tiny_values_clamped_to_smallest_magnitude(self):
        g = dp.SignedGeometricGrid(16.0, 0.5)
        smallest = g.magnitudes.min()
        assert dp.round_to_grid(1e-9, g) == smallest
        assert dp.round_to_grid(-1e-9, g) == -smallest

    def test_out_of_range_rejected(self):
        g = dp.SignedGeometricGrid(16.0, 0.5)
        with pytest.raises(GridDomainError):
            dp.round_to_grid(16.0 * 1.5 * 1.01, g)

    def test_grid_points_fixed(self):
        g = dp.SignedGeometricGrid(16.0, 0.5)
        for p in g.points:
            assert dp.round_to_grid(p, g) == p


class TestPrivateMedian:
    def test_point_mass_recovered(self):
        g = dp.SignedGeometricGrid(16.0, 1.0)
        values = np.full(2000, 1.0)
        hits = 0
        rng = np.random.default_rng(42)
        for _ in range(1000):
            if dp.private_median(values, g, 0.25, rng) == 1.0:
                hits += 1
        assert hits >= 950

    def test_balanced_pair_always_valid(self):
        g = dp.SignedGeometricGrid.from_exponent_range(1.0, 0, 0)  # {-1, 0, 1}
        assert len(g) == 3
        values = np.concatenate([np.full(1000, -1.0), np.full(1000, 1.0)])
        rng = np.random.default_rng(43)
        for _ in range(50):
            x = dp.private_median(values, g, 0.25, rng)
            assert dp.median_rank_error(values, x) == 0.0

    def test_staircase_rank_slack(self):
        g = dp.SignedGeometricGrid.from_exponent_range(0.25, -25, 24)
        values = g.points[np.arange(2000) % len(g)]
        gamma = 4.0 / 0.25 * math.log(len(g) / 0.05)
        rng = np.random.default_rng(44)
        errs = [
            dp.median_rank_error(
                values, dp.private_median(values, g, 0.25, rng)
            )
            for _ in range(300)
        ]
        assert np.mean(np.asarray(errs) <= gamma) >= 0.95

    def test_seed_determinism(self):
        g = dp.SignedGeometricGrid(16.0, 0.5)
        values = np.full(50, g.points[5])
        a = dp.private_median(values, g, 0.5, np.random.default_rng(7))
        b = dp.private_median(values, g, 0.5, np.random.default_rng(7))
        assert a == b

    def test_off_grid_rejected(self):
        g = dp.SignedGeometricGrid(16.0, 0.5)
        with pytest.raises(GridDomainError):
            dp.private_median(np.array([0.123]), g, 0.5, np.random.default_rng(0))

    def test_empty_rejected(self):
        g = dp.SignedGeometricGrid(16.0, 0.5)
        with pytest.raises(ParameterError):
            dp.private_median(np.array([]), g, 0.5, np.random.default_rng(0))

    def test_dp_ratio_smoke_small(self):
        # neighboring multisets: frequency ratios bounded by e^eps plus
        # sampling slack on every point with decent mass
        eps = 0.25
        g = dp.SignedGeometricGrid.from_exponent_range(0.5, -5, 4)
        vals1 = g.points[np.arange(50) % len(g)]
        vals2 = vals1.copy()
        vals2[0] = g.points[-1]  # one swapped row
        N = 20000
        rng = np.random.default_rng(45)
        counts = []
        for vals in (vals1, vals2):
            # N columns give N medians from the same draws as N one-column calls
            out = dp.private_median(np.broadcast_to(vals[:, None], (50, N)), g, eps, rng)
            counts.append(np.bincount(np.searchsorted(g.points, out), minlength=len(g)) / N)
        p1, p2 = counts
        for i in range(len(g)):
            if min(p1[i], p2[i]) < 1e-3:
                continue
            slack = 4.0 * math.sqrt(
                (1 - p1[i]) / (N * p1[i]) + (1 - p2[i]) / (N * p2[i])
            )
            ratio = max(p1[i] / p2[i], p2[i] / p1[i])
            assert ratio <= math.exp(eps) * (1.0 + slack)


class TestMedianRankError:
    def test_exact_median_zero_error(self):
        vals = np.array([1.0, 2.0, 3.0])
        assert dp.median_rank_error(vals, 2.0) == 0.0

    def test_extreme_point_error(self):
        vals = np.array([1.0, 1.0, 1.0, 1.0])
        assert dp.median_rank_error(vals, 5.0) == 2.0


def _scalar_round_to_grid(v, grid):
    """Scalar reference: one value at a time, as the wrapper once looped."""
    v = float(v)
    if v == 0.0:
        return 0.0
    mags = grid.magnitudes
    av = abs(v)
    if av > grid.u_bound * (1.0 + grid.alpha) * (1.0 + 1e-12):
        raise GridDomainError(f"|{v!r}| exceeds the grid range")
    sign = 1.0 if v > 0 else -1.0
    idx = int(np.searchsorted(mags, av * (1.0 - 1e-12), side="left"))
    return sign * mags[min(idx, mags.size - 1)]


def _sorted_median_rank_error(values, x):
    """Scalar reference on one 1-D multiset, via a sort."""
    values = np.sort(np.asarray(values, dtype=float))
    half = values.size / 2.0
    ge = values.size - np.searchsorted(values, x, side="left")
    le = np.searchsorted(values, x, side="right")
    return max(0.0, half - ge, half - le)


def _sorted_private_median(values, grid, epsilon, rng):
    """Scalar reference on one 1-D multiset: sort, rank by searchsorted,
    one scalar draw."""
    pts = grid.points
    sv = np.sort(np.asarray(values, dtype=float))
    below = np.searchsorted(sv, pts, side="left")
    above = sv.size - np.searchsorted(sv, pts, side="right")
    utility = np.maximum(np.maximum(below, above) - math.ceil(sv.size / 2), 0)
    logw = -0.5 * epsilon * (utility - utility.min())
    cum = np.cumsum(np.exp(logw.astype(np.longdouble)))
    r = np.longdouble(rng.random()) * cum[-1]
    return float(pts[int(np.searchsorted(cum, r, side="right"))])


class TestArrayPrimitivesMatchScalarLoop:
    """The array forms equal a per-value / per-column loop bit for bit."""

    def _block(self, rng, grid, q, k):
        u = grid.u_bound
        pool = np.array([0.0, 1e-9, -1e-9, 1.0 / u, u, u * 1.1, -u])
        v = rng.standard_normal((q, k)) * rng.choice([0.01, 1.0, u / 2], size=(q, k))
        mask = rng.random((q, k)) < 0.3
        v[mask] = rng.choice(pool, size=int(mask.sum()))
        return v

    def test_round_to_grid_block(self):
        rng = np.random.default_rng(50)
        for alpha, u in [(0.25, 2.0), (0.5, 16.0), (1.0, 8.0)]:
            g = dp.SignedGeometricGrid(u, alpha)
            for _ in range(200):
                top = u * (1.0 + alpha)  # the saturating sliver stays in range
                v = np.clip(self._block(rng, g, 7, 8), -top, top)
                got = dp.round_to_grid(v, g)
                want = np.array([[_scalar_round_to_grid(x, g) for x in row] for row in v])
                assert got.tobytes() == want.tobytes()
                for x in v[0]:
                    assert dp.round_to_grid(x, g) == _scalar_round_to_grid(x, g)

    def test_round_to_grid_rejects_any_out_of_range(self):
        g = dp.SignedGeometricGrid(16.0, 0.5)
        v = np.ones((3, 4))
        v[2, 1] = -16.0 * 1.5 * 1.01
        with pytest.raises(GridDomainError):
            dp.round_to_grid(v, g)

    @pytest.mark.parametrize("q,k", [(7, 8), (1, 1), (20, 3), (6, 1)])
    def test_private_median_and_rank_error_block(self, q, k):
        rng = np.random.default_rng(51 + q * k)
        g = dp.SignedGeometricGrid(2.0, 0.25)
        for eps in (0.25, 1.0):
            for _ in range(100):
                block = dp.round_to_grid(np.clip(self._block(rng, g, q, k), -2.0, 2.0), g)
                seed = int(rng.integers(2**32))
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                got = dp.private_median(block, g, eps, a)
                want = np.array(
                    [_sorted_private_median(block[:, j], g, eps, b) for j in range(k)]
                )
                assert got.tobytes() == want.tobytes()
                assert a.random() == b.random()  # same number of draws
                errs = dp.median_rank_error(block, got)
                want_errs = np.array(
                    [_sorted_median_rank_error(block[:, j], got[j]) for j in range(k)]
                )
                assert errs.tobytes() == want_errs.tobytes()
                col = block[:, 0]
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                x = dp.private_median(col, g, eps, a)
                assert x == _sorted_private_median(col, g, eps, b)
                assert a.random() == b.random()
                assert dp.median_rank_error(col, x) == _sorted_median_rank_error(col, x)

    def test_private_median_rejects_off_grid_in_any_column(self):
        g = dp.SignedGeometricGrid(16.0, 0.5)
        block = np.full((4, 3), g.points[5])
        block[3, 2] = 0.123
        with pytest.raises(GridDomainError):
            dp.private_median(block, g, 0.5, np.random.default_rng(0))


class TestComposition:
    def test_simple_example(self):
        got = dp.simple_composition(
            [dp.PrivacyBudget(0.1, 0.0), dp.PrivacyBudget(0.2, 0.0)]
        )
        assert got == dp.PrivacyBudget(epsilon=0.30000000000000004, delta=0.0)
        assert abs(got.epsilon - 0.3) < 1e-15

    def test_simple_empty(self):
        assert dp.simple_composition([]) == dp.PrivacyBudget(0.0, 0.0)

    def test_simple_k_copies(self):
        k = 7
        got = dp.simple_composition([dp.PrivacyBudget(0.05, 0.0)] * k)
        assert abs(got.epsilon - k * 0.05) < 1e-15

    def test_simple_rejects_nonzero_delta(self):
        with pytest.raises(ParameterError):
            dp.simple_composition([dp.PrivacyBudget(0.1, 0.01)])

    def test_advanced_example(self):
        got = dp.advanced_composition(0.1, 0.0, 1, 1.0 / math.e)
        assert abs(got.epsilon - (math.sqrt(2.0) * 0.1 + 0.02)) <= 1e-15
        assert got.delta == 1.0 / math.e

    def test_advanced_zero_epsilon(self):
        got = dp.advanced_composition(0.0, 0.001, 5, 0.01)
        assert got.epsilon == 0.0
        assert abs(got.delta - (0.01 + 5 * 0.001)) <= 1e-15

    def test_advanced_rejects_bad_delta0(self):
        with pytest.raises(ParameterError):
            dp.advanced_composition(0.1, 0.0, 1, 0.0)

    def test_amplification_boundary(self):
        assert abs(dp.amplification(0.5, 10, 20) - 3.0 * 0.5) <= 1e-15

    def test_amplification_example(self):
        assert abs(dp.amplification(0.8, 1, 600) - 0.8 / 100.0) <= 1e-15

    def test_amplification_zero(self):
        assert dp.amplification(0.0, 1, 10) == 0.0

    def test_amplification_rejects_large_k(self):
        with pytest.raises(ParameterError):
            dp.amplification(0.5, 11, 20)
