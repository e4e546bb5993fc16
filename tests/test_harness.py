import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from kronproj import cli, harness
from kronproj.errors import ParameterError
from kronproj.projmaint import MaintainedProjection


class TestDriftSequence:
    def test_zero_budgets_constant(self):
        cfg = harness.DriftConfig(n=5, m=4, T=10, C1=0.0, C2=0.0, seed=1)
        seq = harness.gen_drift_sequence(cfg)
        assert len(seq) == 11
        for lam in seq[1:]:
            npt.assert_array_equal(lam, seq[0])

    def test_sparse_one_moves_single_coordinate(self):
        cfg = harness.DriftConfig(
            n=6, m=4, T=50, C1=0.3, C2=0.0, rank_pattern="sparse-k", sparse_k=1, seed=2
        )
        seq = harness.gen_drift_sequence(cfg)
        for prev, cur in zip(seq, seq[1:]):
            moved = np.flatnonzero(cur != prev)
            assert moved.size <= 1
            if moved.size:
                assert abs(math.log(cur[moved[0]]) - math.log(prev[moved[0]])) <= 0.3 + 1e-12

    def test_uniform_budget_audit(self):
        # per-step expected squared log drift is C1^2 + sqrt(n) C2
        n, C1, C2 = 25, 0.2, 0.05
        cfg = harness.DriftConfig(n=n, m=4, T=1000, C1=C1, C2=C2, seed=3)
        seq = harness.gen_drift_sequence(cfg)
        sq = []
        for prev, cur in zip(seq, seq[1:]):
            d = np.log(cur) - np.log(prev)
            sq.append(float(d @ d))
        sq = np.asarray(sq)
        expected = C1**2 + math.sqrt(n) * C2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert sq.mean() <= expected + 4 * se

    def test_eigenvalues_stay_positive(self):
        cfg = harness.DriftConfig(
            n=4, m=4, T=200, C1=2.0, C2=0.5, rank_pattern="bursty", seed=4
        )
        for lam in harness.gen_drift_sequence(cfg):
            assert np.all(lam > 0)

    def test_invalid_pattern(self):
        with pytest.raises(ParameterError):
            harness.DriftConfig(n=4, m=4, T=10, rank_pattern="spiky")


class TestMaintenanceExperiment:
    def test_zero_steps_empty_report(self):
        rep = harness.run_maintenance_experiment(dict(n=4, m=5, T=0, seed=5, check_oracle=False))
        assert rep.records == []
        assert rep.kind == "maintenance"

    def test_oracle_checked_run(self):
        rep = harness.run_maintenance_experiment(dict(n=6, m=8, T=40, C1=0.3, C2=0.02, seed=6))
        assert rep.summary["max_core_rel_err"] <= 1e-7
        assert rep.summary["max_query_rel_err"] <= 1e-7
        assert rep.summary["max_lam_tilde_log_ratio"] <= 0.025 + 1e-12
        assert len(rep.records) == 40

    def test_tiny_drift_stays_lazy(self):
        params = dict(n=6, m=8, T=30, C1=0.01, C2=0.0, rank_pattern="sparse-k", sparse_k=1,
                      seed=7, eps_mp=0.09, check_oracle=False)
        rep = harness.run_maintenance_experiment(params)
        assert rep.summary["total_woodbury_rank"] == 0

    def test_bursty_recompute_counter_bounded(self):
        params = dict(n=8, m=8, T=100, C1=0.5, C2=0.0, rank_pattern="bursty", seed=8,
                      check_oracle=False)
        rep = harness.run_maintenance_experiment(params)
        non_lazy = sum(r > 0 for r in rep.counters["woodbury_ranks"])
        assert non_lazy < 100 / 10

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_core_check_fails_a_perturbed_core(self, monkeypatch, n):
        # a core built at lam with one coordinate off by a relative 1e-6
        # must fail the oracle check it is held to
        core_basis = MaintainedProjection._core_basis

        def perturbed(mp, lam):
            lam = np.array(lam, dtype=float)
            lam[0] *= 1.0 + 1e-6
            return core_basis(mp, lam)

        monkeypatch.setattr(MaintainedProjection, "_core_basis", perturbed)
        rep = harness.run_maintenance_experiment(dict(n=n, T=10, seed=6))
        assert rep.summary["max_core_rel_err"] > cli.ORACLE_TOL

    def test_report_bytes_deterministic(self):
        params = dict(n=4, m=5, T=10, C1=0.2, seed=9)
        a = harness.run_maintenance_experiment(params).to_json()
        b = harness.run_maintenance_experiment(params).to_json()
        assert a == b

    def test_timings_excluded_from_deterministic_report(self):
        rep = harness.run_maintenance_experiment(dict(n=4, m=5, T=5, seed=10, check_oracle=False))
        assert "timings" not in json.loads(rep.to_json())["summary"]
        assert rep.timings["total_s"] > 0.0


class TestAdaptiveExperiment:
    def test_norm_exact_estimator_all_ok(self):
        params = dict(T=15, n=16, L=20, q=7, seed=11)
        rep = harness.run_adaptive_experiment("norm", "oblivious", params)
        assert rep.summary["all_ok"] is True
        assert len(rep.records) == 15

    def test_feedback_transcripts_deterministic(self):
        params = dict(T=10, n=16, L=10, q=5, seed=12, estimator="sketch", b=512)
        a = harness.run_adaptive_experiment("norm", "feedback", params).to_json()
        b = harness.run_adaptive_experiment("norm", "feedback", params).to_json()
        assert a == b

    def test_feedback_adversary_depends_on_outputs(self):
        # identical adversary state fed different observations must
        # produce different next queries
        adv1 = harness.NormAdversary(8, seed=77, feedback=True)
        adv2 = harness.NormAdversary(8, seed=77, feedback=True)
        adv1.next_instance(None)
        adv2.next_instance(None)
        _, h1, coords1 = adv1.next_instance(0.5)
        _, h2, coords2 = adv2.next_instance(2.0)
        assert not np.allclose(h1, h2)
        assert coords1 is None and coords2 is None

    def test_feedback_setquery_adversary_targets_large_outputs(self):
        adv = harness.SetQueryAdversary(16, 4, seed=78, feedback=True)
        _, _, coords0 = adv.next_instance(None, None)
        big = np.array([9.0, 8.0, 7.0, 6.0])
        _, _, coords1 = adv.next_instance(big, coords0)
        assert set(coords1) == set(coords0)

    def test_setquery_run(self):
        params = dict(T=10, n=16, k=4, L=12, q=5, seed=14)
        rep = harness.run_adaptive_experiment("setquery", "feedback", params)
        assert rep.summary["all_ok"] is True
        assert all(len(r["u"]) == 4 for r in rep.records)

    def test_records_read_the_wrapper_step(self):
        norm = harness.run_adaptive_experiment("norm", "feedback", dict(T=3, L=10, q=5, seed=17))
        for rec in norm.records:
            assert set(rec) == {"t", "u", "sampled", "rank_error", "true", "bound", "ok"}
            assert isinstance(rec["rank_error"], float) and len(rec["sampled"]) == 5
        sq = harness.run_adaptive_experiment(
            "setquery", "feedback", dict(T=3, n=16, k=4, L=10, q=5, seed=17))
        for rec in sq.records:
            assert set(rec) == {"t", "coords", "u", "sampled", "rank_error", "true", "bound", "ok"}
            assert len(rec["rank_error"]) == len(rec["coords"]) == len(rec["true"]) == 4

    @pytest.mark.parametrize("mode, n, u_bound", [("norm", 16, 8.0), ("setquery", 32, 2.0)])
    def test_defaults_are_desk_scale(self, mode, n, u_bound):
        # without L and q the wrapper has the CLI's 20 copies and q = 7,
        # not the formula's ~1e5 copies
        rep = harness.run_adaptive_experiment(mode, "oblivious", dict(T=2))
        wrapper = rep.config["wrapper"]
        assert (wrapper["L"], wrapper["q"]) == (20, 7)
        assert wrapper["L_formula"] > 10**4
        assert (rep.config["n"], rep.config["u_bound"]) == (n, u_bound)
        assert (rep.config["T"], rep.config["alpha"], rep.config["delta"]) == (2, 0.25, 0.1)
        assert rep.config["estimator"] == "exact"
        if mode == "setquery":
            assert rep.config["k"] == 8

    def test_battery_fraction(self):
        params = dict(T=6, n=16, L=10, q=5, seed=15)
        frac, reps = harness.adaptive_battery("norm", "oblivious", 5, params)
        assert frac == 1.0
        assert len(reps) == 5

    @pytest.mark.parametrize("adversary", ["oblivious", "feedback"])
    def test_exact_estimator_battery_both_adversaries(self, adversary):
        # gamma = 0 stand-in at desk parameters: >= 95% of runs all-ok
        params = dict(T=20, n=16, L=20, q=7, alpha=0.25, delta=0.1,
                      estimator="exact", seed=16)
        frac, _ = harness.adaptive_battery("norm", adversary, 20, params)
        assert frac >= 0.95

    def test_unknown_adversary(self):
        with pytest.raises(ParameterError):
            harness.run_adaptive_experiment("norm", "sneaky", {})


class TestComplexityModel:
    def test_omega_two_gives_four(self):
        for a in np.linspace(0.05, 0.95, 10):
            for c in np.linspace(0.0, 0.9, 10):
                res = harness.complexity_model(float(a), float(c), omega=2.0, theta=4.0)
                assert abs(res["f_ac"] - 4.0) <= 1e-12

    def test_theta_defaults_to_omega_plus_two(self):
        res = harness.complexity_model(0.31, 0.0, omega=2.38)
        assert res["theta"] == 4.38
        assert math.isfinite(res["f_ac"])

    def test_independent_rederivation(self):
        # T_mat(n^2, n^{1+c}, n^2) = n^{c(2w-t)+t} factors as
        # (c-a)(w-2)/(1-a) + f(a,c); solve that identity for f instead
        rng = np.random.default_rng(16)
        for _ in range(50):
            a = float(rng.uniform(0.05, 0.95))
            c = float(rng.uniform(0.0, 0.95))
            omega = float(rng.uniform(2.0, 2.5))
            theta = float(rng.uniform(4.0, 5.0))
            res = harness.complexity_model(a, c, omega=omega, theta=theta)
            alt = c * (2 * omega - theta) + theta - (c - a) * (omega - 2.0) / (1.0 - a)
            assert abs(res["f_ac"] - alt) <= 1e-10

    def test_weight_function_branches(self):
        res = harness.complexity_model(0.5, 0.0, omega=2.38, n=1024)
        cutoff = 1024**0.5
        for row in res["weights"]:
            if row["i"] < cutoff:
                assert row["g_i"] == 1024 ** (-0.5)
            else:
                want = row["i"] ** ((2.38 - 2) / 0.5 - 1) * 1024 ** (-0.5 * (2.38 - 2) / 0.5)
                npt.assert_allclose(row["g_i"], want)

    def test_rejects_a_out_of_range(self):
        with pytest.raises(ParameterError):
            harness.complexity_model(1.0, 0.0)


class TestReportSchema:
    def test_schema_validates(self):
        rep = harness.RunReport(
            kind="x", config={}, records=[{"t": 0}], summary={"ok": True}
        )
        payload = json.loads(rep.to_json())
        assert payload["kind"] == "x"
