"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned, not configurable: criteria
1-6 run the checks of ``kronproj.cli`` and read their tolerances from there,
and every criterion leaves each setting it does not fix to the default of
the library function that reads it, so the CLI and this suite cannot drift
apart.
"""

import math
import sys

import numpy as np
import pytest

from kronproj import adaptive, cli, dpcore, harness


def record(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def tol(x):
    """Spell a tolerance as the titles do: 1e-7, not 1e-07."""
    mantissa, exponent = f"{x:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


@pytest.fixture(scope="module")
def maintenance_trajectories():
    """50 seeded oracle-checked trajectories shared by criteria 1 and 2."""
    dims = [(4, 5), (4, 8), (4, 12), (6, 5), (6, 8), (6, 12), (8, 5), (8, 8), (8, 12)]
    patterns = [
        ("uniform", dict(C1=0.3, C2=0.02)),
        ("sparse-k", dict(C1=0.5, C2=0.0, sparse_k=2)),
        ("bursty", dict(C1=0.5, C2=0.05)),
    ]
    reports = []
    for run in range(50):
        n, m = dims[run % len(dims)]
        pname, pkw = patterns[run % len(patterns)]
        params = dict(n=n, m=m, T=100, rank_pattern=pname, seed=10_000 + run, **pkw)
        reports.append(harness.run_maintenance_experiment(params))
    return reports


def test_criterion_01_oracle_equivalence(maintenance_trajectories):
    max_m = max(r.summary["max_m_rel_err"] for r in maintenance_trajectories)
    max_q = max(r.summary["max_query_rel_err"] for r in maintenance_trajectories)
    record(
        f"criterion 1: maintenance oracle equivalence (50 trajectories, tol {tol(cli.ORACLE_TOL)})",
        max_m <= cli.ORACLE_TOL and max_q <= cli.ORACLE_TOL,
        f"max core err {max_m:.2e}, max query err {max_q:.2e}",
    )


def test_criterion_02_spectral_approximation(maintenance_trajectories):
    worst = max(r.summary["max_lam_tilde_log_ratio"] for r in maintenance_trajectories)
    half = maintenance_trajectories[0].summary["eps_mp_half"]
    record(
        "criterion 2: spectral approximation |log ratio| <= eps_mp/2",
        worst <= half + cli.ROUNDOFF_TOL,
        f"max |log ratio| {worst:.6f} vs {half}",
    )


def test_criterion_03_kronecker_identity_suite():
    worst = max(cli.kron_identity_errors(np.random.default_rng(77), cli.ORACLE_REPS).values())
    record(
        f"criterion 3: Kronecker identity suite ({cli.ORACLE_REPS} instances each, "
        f"tol {tol(cli.ROUNDOFF_TOL)})",
        worst <= cli.ROUNDOFF_TOL,
        f"max abs deviation {worst:.2e}",
    )


def test_criterion_04_woodbury_correctness():
    worst = cli.woodbury_error(np.random.default_rng(78), cli.ORACLE_REPS)
    record(
        f"criterion 4: Woodbury vs direct inversion ({cli.ORACLE_REPS} instances, "
        f"tol {tol(cli.WOODBURY_TOL)})",
        worst <= cli.WOODBURY_TOL,
        f"max rel err {worst:.2e}",
    )


def test_criterion_05_coordinate_wise_embedding():
    settings, checks = cli.ce_checks({}, seed=4242)
    tail_bound = cli.ce_tail_bound(settings["n"], settings["delta"])
    ok = True
    details = []
    for rep, unbiased, tail_ok in checks:
        ok &= unbiased
        if tail_ok is None:
            details.append(f"{rep.family}: bias ok={unbiased}, beta {rep.beta_hat:.1f} (report only)")
        else:
            ok &= tail_ok
            details.append(f"{rep.family}: bias ok={unbiased}, beta {rep.beta_hat:.1f}<={tail_bound:.0f}")
    record(
        f"criterion 5: coordinate-wise embedding, {len(checks)} families "
        f"at b={settings['b']} n={settings['n']}",
        ok,
        "; ".join(details),
    )


def test_criterion_06_private_median_rank_slack():
    settings, results = cli.private_median_results({}, np.random.default_rng(4821))
    assert settings["grid"]["points"] == 101
    record(
        "criterion 6: private median rank slack (Gamma = %.1f) on 5 distributions"
        % results[0]["gamma_bound"],
        all(r["pass_fraction"] >= cli.DP_PASS_FRACTION for r in results),
        "; ".join(f"{r['distribution']}: {r['pass_fraction']:.3f}" for r in results),
    )


def test_criterion_07_dp_smoke():
    epsilon = 0.25
    grid = dpcore.SignedGeometricGrid.from_exponent_range(0.5, -5, 4)
    vals1 = grid.points[np.arange(50) % len(grid)]
    vals2 = vals1.copy()
    vals2[0] = grid.points[-1]
    N = 100_000
    rng = np.random.default_rng(911)
    freqs = []
    for vals in (vals1, vals2):
        # N columns give N medians from the same draws as N one-column calls
        out = dpcore.private_median(np.broadcast_to(vals[:, None], (50, N)), grid, epsilon, rng)
        idx = np.searchsorted(grid.points, out)
        freqs.append(np.bincount(idx, minlength=len(grid)) / N)
    p1, p2 = freqs
    worst_margin = np.inf
    ok = True
    for i in range(len(grid)):
        if min(p1[i], p2[i]) < 1e-3:
            continue
        slack = 4.0 * math.sqrt((1 - p1[i]) / (N * p1[i]) + (1 - p2[i]) / (N * p2[i]))
        ratio = max(p1[i] / p2[i], p2[i] / p1[i])
        ok &= ratio <= math.exp(epsilon) * (1.0 + slack)
        worst_margin = min(worst_margin, math.exp(epsilon) * (1.0 + slack) - ratio)
    record(
        "criterion 7: DP smoke test on neighboring databases (1e5 samples each)",
        ok,
        f"worst margin {worst_margin:.4f}",
    )


def test_criterion_08_adaptive_norm_reduction():
    # b = 4096 puts the Gaussian tail gamma = 5/sqrt(b) ~ 0.078 <= 0.1
    params = dict(estimator="sketch", b=4096, seed=60_000)
    frac, reports = harness.adaptive_battery("norm", "feedback", 200, params)
    gamma = reports[0].summary["gamma"]
    record(
        "criterion 8: adaptive norm reduction (200 runs, feedback adversary)",
        gamma <= 0.1 and frac >= 0.9,
        f"gamma {gamma:.3f}, all-T-ok fraction {frac:.3f}",
    )


def test_criterion_09_setquery_reduction():
    params = dict(n=16, estimator="sketch", b=4096, seed=70_000)
    frac, reports = harness.adaptive_battery("setquery", "feedback", 200, params)
    gamma = reports[0].summary["gamma"]
    record(
        f"criterion 9: adaptive set-query reduction (k={reports[0].config['k']}, 200 runs)",
        gamma <= 0.1 and frac >= 0.9,
        f"gamma {gamma:.3f}, all-(t,j)-ok fraction {frac:.3f}",
    )


def test_criterion_10_composition_formulas():
    ok = True
    got = dpcore.simple_composition(
        [dpcore.PrivacyBudget(0.1, 0.0), dpcore.PrivacyBudget(0.2, 0.0)]
    )
    ok &= abs(got.epsilon - 0.3) <= 1e-15 and got.delta == 0.0
    adv = dpcore.advanced_composition(0.1, 0.0, 1, 1.0 / math.e)
    ok &= abs(adv.epsilon - (math.sqrt(2.0) * 0.1 + 0.02)) <= 1e-15
    ok &= abs(dpcore.amplification(0.5, 10, 20) - 1.5) <= 1e-15
    ok &= abs(dpcore.amplification(1.0, 1, 600) - 0.01) <= 1e-15
    worst_eps = 0.0
    for T in (10, 100, 10_000, 10**6):
        for delta0 in (1e-8, 1e-4, 0.05):
            q = 40
            L = 600.0 * q * math.sqrt(4.0 * T * math.log(400.0 / delta0))
            bgt = adaptive.norm_transcript_budget(L, q, T, delta0)
            worst_eps = max(worst_eps, bgt.epsilon)
    ok &= worst_eps <= 1.0 / 200.0
    record(
        "criterion 10: composition formulas exact; copy-count instance drives eps <= 1/200",
        ok,
        f"worst transcript eps {worst_eps:.5f}",
    )


def test_criterion_11_complexity_model():
    worst = 0.0
    for a in np.linspace(0.05, 0.95, 10):
        for c in np.linspace(0.0, 0.88, 10):
            res = harness.complexity_model(float(a), float(c), omega=2.0, theta=4.0)
            worst = max(worst, abs(res["f_ac"] - 4.0))
    record(
        "criterion 11: cost exponent equals 4 at omega=2, theta=4 (100 grid points)",
        worst <= 1e-12,
        f"max |f(a,c) - 4| = {worst:.2e}",
    )


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 4, "m": 5, "T": 10, "C1": 0.3}')
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli.main(["run-maint", "--config", str(cfg), "--seed", "5", "--out", str(out1)])
    code2 = cli.main(["run-maint", "--config", str(cfg), "--seed", "5", "--out", str(out2)])
    same_maint = out1.read_bytes() == out2.read_bytes()
    params = dict(T=10, L=10, q=5, seed=33, estimator="sketch", b=256)
    a, b = (harness.run_adaptive_experiment("norm", "feedback", params).to_json() for _ in range(2))
    record(
        "criterion 12: identical config+seed reruns are byte-identical",
        code1 == 0 and code2 == 0 and same_maint and a == b,
        f"maintenance identical={same_maint}, adaptive identical={a == b}",
    )
