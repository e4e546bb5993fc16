"""Command-line harness.

Subcommands: verify-oracle, run-maint, ce-bench, dp-bench, adaptive-sim,
setquery-sim, complexity.  Every experiment is specified by an optional
JSON config file plus a seed; written reports are byte-identical across
reruns with the same inputs.  Exit codes: 0 success, 2 when an acceptance
threshold is violated, 1 on any error, usage errors included.  Each
subcommand reads from its config only the keys that shape its own output
and passes the rest to the library function that owns their defaults.
"""

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import adaptive, dpcore, harness, kronlinalg, oracle, sketch
from .errors import KronprojError, ParameterError
from .projmaint import ConstraintBatch

PASS = "PASS"
FAIL = "FAIL"

# Tolerances of the acceptance checks, shared with tests/test_acceptance.py.
ROUNDOFF_TOL = 1e-12  # Kronecker identities; slack on the eps_mp/2 spectral bound
WOODBURY_TOL = 1e-9  # Woodbury vs direct inverse, relative Frobenius error
PROJECTOR_TOL = 1e-8  # projector axioms of the oracle projection
ORACLE_TOL = 1e-7  # maintained core and queries vs the oracle, relative error
CE_BIAS_SE = 4.0  # CE mean bias within this many standard errors
CE_TAIL_FAMILIES = ("gaussian", "srht", "ams")  # families whose CE tail is gated
DP_PASS_FRACTION = 0.95  # share of private medians within the rank slack
ORACLE_REPS = 100  # verify-oracle's random instances per identity and of Woodbury


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args, payload, records=None):
    if args.format == "csv":
        if records is None:
            raise ParameterError(
                f"{args.command}: --format csv needs per-step records, "
                "and this report has none; use --format json"
            )
        buf = io.StringIO()
        keys = sorted({k for r in records for k in r})
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for r in records:
            writer.writerow({k: r.get(k, "") for k in keys})
        text = buf.getvalue()
    else:
        text = harness.json_dumps_det(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _status(name, ok, detail=""):
    line = f"[{PASS if ok else FAIL}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    return ok


def kron_identity_errors(rng, reps):
    """Worst absolute error of each Kronecker identity over ``reps`` draws."""
    worst = dict.fromkeys(("mixed", "inv", "vec3", "trace", "apply"), 0.0)
    for _ in range(int(reps)):
        A, B, C, D = (rng.standard_normal((3, 3)) for _ in range(4))
        Ai, Bi = A + 3 * np.eye(3), B + 3 * np.eye(3)
        X = rng.standard_normal((3, 3))
        P4, Q4 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        n = int(rng.integers(2, 7))
        A2, B2 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        x = rng.standard_normal(n * n)
        errs = {
            "mixed": np.kron(A, B) @ np.kron(C, D) - np.kron(A @ C, B @ D),
            "inv": np.linalg.inv(np.kron(Ai, Bi)) - np.kron(np.linalg.inv(Ai), np.linalg.inv(Bi)),
            "vec3": kronlinalg.vec(A @ X @ C) - np.kron(C.T, A) @ kronlinalg.vec(X),
            "trace": kronlinalg.vec(P4) @ kronlinalg.vec(Q4) - np.trace(P4.T @ Q4),
            "apply": kronlinalg.kron_apply(A2, B2, x) - np.kron(A2, B2) @ x,
        }
        for name, err in errs.items():
            worst[name] = max(worst[name], np.max(np.abs(err)))
    return worst


def woodbury_error(rng, reps):
    """Worst relative error of ``woodbury_correction`` in the query's form.

    Each instance drifts k of n eigenvalues lam and, for an orthonormal Y
    (n^2 x m), the drift's Kronecker support S and C = ratio[S] - 1, applies
    (I + Y_S^T C Y_S)^{-1} by one Woodbury step and by a direct solve."""
    worst = 0.0
    for _ in range(int(reps)):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n * n))
        Y = np.linalg.qr(rng.standard_normal((n * n, m)))[0]
        lam = np.exp(rng.uniform(-1.0, 1.0, n))
        k = int(rng.integers(1, n + 1))
        lam_t = lam.copy()
        lam_t[rng.choice(n, k, replace=False)] *= np.exp(rng.uniform(-1.0, 1.0, k))
        ratio = kronlinalg.kron_diag(lam_t, lam_t) / kronlinalg.kron_diag(lam, lam)
        S = np.flatnonzero(ratio != 1.0)
        c, YS, r = ratio[S] - 1.0, Y[S], rng.standard_normal(m)
        got = r - kronlinalg.woodbury_correction(YS.T, c, YS @ YS.T, YS @ r)
        want = np.linalg.solve(np.eye(m) + YS.T @ (c[:, None] * YS), r)
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    return worst


def cmd_verify_oracle(args, cfg):
    """Kronecker identity suite, Woodbury instances, and projector axioms."""
    rng = np.random.default_rng(args.seed)
    reps = cfg.get("reps", ORACLE_REPS)
    ok = True

    worst = kron_identity_errors(rng, reps)
    for name, err in worst.items():
        ok &= _status(f"kron identity {name}", err <= ROUNDOFF_TOL, f"max abs err {err:.2e}")

    worst_wb = woodbury_error(rng, reps)
    ok &= _status("woodbury vs direct inverse", worst_wb <= WOODBURY_TOL,
                  f"max rel err {worst_wb:.2e}")

    worst_proj = 0.0
    for _ in range(5):
        n, m = 4, 6
        A = rng.standard_normal((m, n * n))
        W = rng.standard_normal((n, n))
        W = W @ W.T + 0.5 * np.eye(n)
        P = oracle.exact_projection(ConstraintBatch(matrix=A, n=n), W)
        worst_proj = max(
            worst_proj,
            np.max(np.abs(P @ P - P)),
            np.max(np.abs(P - P.T)),
            abs(np.trace(P) - m),
        )
    ok &= _status("projector axioms", worst_proj <= PROJECTOR_TOL, f"max err {worst_proj:.2e}")

    _emit(args, {"ok": bool(ok), "worst": {k: float(v) for k, v in worst.items()},
                 "woodbury_rel_err": float(worst_wb), "projector_err": float(worst_proj)})
    return 0 if ok else 2


def cmd_run_maint(args, cfg):
    check = args.check_oracle == "on"
    report = harness.run_maintenance_experiment(dict(cfg, seed=args.seed, check_oracle=check))
    _emit(args, report.to_dict(), records=report.records)
    ok = report.summary["max_lam_tilde_log_ratio"] <= report.summary["eps_mp_half"] + ROUNDOFF_TOL
    _status("spectral approximation", ok,
            f"max |log ratio| {report.summary['max_lam_tilde_log_ratio']:.3e}")
    if check:
        ok_c = report.summary["max_core_rel_err"] <= ORACLE_TOL
        ok_q = report.summary["max_query_rel_err"] <= ORACLE_TOL
        _status("core projection vs oracle", ok_c,
                f"max rel err {report.summary['max_core_rel_err']:.2e}")
        _status("query vs oracle", ok_q, f"max rel err {report.summary['max_query_rel_err']:.2e}")
        ok = ok and ok_c and ok_q
    print(f"timings: {report.timings}", file=sys.stderr)
    return 0 if ok else 2


def ce_tail_bound(n, delta):
    """Bound on the CE tail statistic ``beta_hat``: 20 ln(n/delta)^1.5."""
    return 20.0 * math.log(n / delta) ** 1.5


def ce_checks(params, seed):
    """``ce_estimate`` of each family with its verdicts.

    ``params`` keys and defaults: ``b`` (256), ``n`` (1024), ``trials``
    (10000), ``delta`` (0.01), ``families`` (all five tags) and
    ``sparsity`` (8, the sparse embedding's); other keys are ignored.
    Returns the settings ``{b, n, trials, delta}`` and ``(report, unbiased,
    tail_ok)`` per family; ``tail_ok`` is None for families outside
    ``CE_TAIL_FAMILIES``, whose tail is reported only.
    """
    settings = {"b": int(params.get("b", 256)), "n": int(params.get("n", 1024)),
                "trials": int(params.get("trials", 10_000)),
                "delta": float(params.get("delta", 0.01))}
    sparsity = int(params.get("sparsity", 8))
    tags = params.get("families", ["gaussian", "srht", "ams", "countsketch", "sparse_embedding"])
    bound = ce_tail_bound(settings["n"], settings["delta"])
    checks = []
    for tag in tags:
        fam = sketch.SketchFamily(tag, sparsity if tag == "sparse_embedding" else 1)
        rep = sketch.ce_estimate(fam, seed=seed, **settings)
        tail_ok = rep.beta_hat <= bound if fam.tag in CE_TAIL_FAMILIES else None
        checks.append((rep, rep.mean_bias <= CE_BIAS_SE * rep.se_mean, tail_ok))
    return settings, checks


def cmd_ce_bench(args, cfg):
    settings, checks = ce_checks(cfg, args.seed)
    tail_bound = ce_tail_bound(settings["n"], settings["delta"])
    ok = True
    for rep, unbiased, tail_ok in checks:
        ok &= _status(f"{rep.family} unbiasedness", unbiased,
                      f"bias {rep.mean_bias:.2e} vs {CE_BIAS_SE:g}se {CE_BIAS_SE * rep.se_mean:.2e}")
        if tail_ok is None:
            _status(f"{rep.family} tail (report only)", True, f"beta_hat {rep.beta_hat:.2f}")
        else:
            ok &= _status(f"{rep.family} tail", tail_ok,
                          f"beta_hat {rep.beta_hat:.2f} vs bound {tail_bound:.1f}")
    reports = [rep.to_dict() for rep, _, _ in checks]
    _emit(args, dict(settings, reports=reports), records=reports)
    return 0 if ok else 2


def _dp_value_sets(grid, size, rng):
    pts = grid.points
    mid = pts.size // 2
    return {
        "point_mass": np.full(size, pts[mid + 5]),
        "balanced_pair": np.concatenate(
            [np.full(size // 2, pts[mid - 10]), np.full(size - size // 2, pts[mid + 10])]
        ),
        "staircase": pts[np.arange(size) % pts.size],
        "clustered_tail": np.concatenate(
            [
                np.full(int(size * 0.8), pts[mid + 1]),
                pts[rng.integers(0, pts.size, size=size - int(size * 0.8))],
            ]
        ),
        "bimodal_extremes": np.concatenate(
            [np.full(size // 2, pts[2]), np.full(size - size // 2, pts[-3])]
        ),
    }


def private_median_results(params, rng):
    """Rank error of ``trials`` private medians on each of five value sets.

    ``params`` keys and defaults: ``size`` (2000 values per set),
    ``trials`` (1000), ``epsilon`` (0.25), ``beta`` (0.05) and ``alpha``
    (0.25, the ratio of the grid of powers (1+alpha)^j, j in [-25, 24]);
    other keys are ignored.  Returns the settings ``{grid, epsilon, beta,
    trials}`` and per value set the fraction of trials within the rank
    slack Gamma = 4/epsilon * ln(|grid|/beta) and the worst rank error seen.
    """
    size, trials = int(params.get("size", 2000)), int(params.get("trials", 1000))
    epsilon, beta = float(params.get("epsilon", 0.25)), float(params.get("beta", 0.05))
    grid = dpcore.SignedGeometricGrid.from_exponent_range(float(params.get("alpha", 0.25)), -25, 24)
    gamma_bound = 4.0 / epsilon * math.log(len(grid) / beta)
    results = []
    for name, values in _dp_value_sets(grid, size, rng).items():
        errs = np.empty(trials)
        for i in range(trials):
            errs[i] = dpcore.median_rank_error(values, dpcore.private_median(values, grid, epsilon, rng))
        results.append({"distribution": name,
                        "pass_fraction": float(np.mean(errs <= gamma_bound)),
                        "max_rank_error": float(errs.max()),
                        "gamma_bound": gamma_bound})
    settings = {"grid": grid.to_dict(), "epsilon": epsilon, "beta": beta, "trials": trials}
    return settings, results


def cmd_dp_bench(args, cfg):
    settings, results = private_median_results(cfg, np.random.default_rng(args.seed))
    ok = True
    for r in results:
        ok &= _status(f"private median [{r['distribution']}]",
                      r["pass_fraction"] >= DP_PASS_FRACTION,
                      f"{r['pass_fraction']:.3f} of trials within rank slack {r['gamma_bound']:.1f}")
    _emit(args, dict(settings, results=results), records=results)
    return 0 if ok else 2


def _adaptive_common(args, cfg, mode):
    """Battery (or one unchecked run); the run's keys pass straight through to
    ``harness.run_adaptive_experiment``, which owns their defaults."""
    runs = int(cfg.get("runs", 20))
    threshold = float(cfg.get("threshold", 0.9))
    adversary = cfg.get("adversary", "feedback")
    params = dict(cfg, seed=args.seed, check_oracle=args.check_oracle == "on")
    if not params["check_oracle"]:
        rep = harness.run_adaptive_experiment(mode, adversary, params)
        _emit(args, rep.to_dict(), records=rep.records)
        return 0
    frac, reports = harness.adaptive_battery(mode, adversary, runs, params)
    payload = {
        "mode": mode, "adversary": adversary, "runs": runs,
        "ok_fraction": frac, "threshold": threshold,
        "params": reports[0].config,
        "budget": reports[0].summary["transcript_budget"],
    }
    _emit(args, payload)
    ok = frac >= threshold
    _status(f"adaptive {mode} battery", ok, f"ok fraction {frac:.3f} >= {threshold}")
    return 0 if ok else 2


def cmd_adaptive_sim(args, cfg):
    return _adaptive_common(args, cfg, adaptive.NORM_MODE)


def cmd_setquery_sim(args, cfg):
    return _adaptive_common(args, cfg, adaptive.SET_MODE)


def cmd_complexity(args, cfg):
    keys = ("a", "c", "omega", "theta", "n")
    result = harness.complexity_model(**{key: cfg[key] for key in keys if key in cfg})
    _emit(args, result, records=result["weights"])
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any other error; 2 is a violated threshold."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


COMMANDS = {
    "verify-oracle": cmd_verify_oracle,
    "run-maint": cmd_run_maint,
    "ce-bench": cmd_ce_bench,
    "dp-bench": cmd_dp_bench,
    "adaptive-sim": cmd_adaptive_sim,
    "setquery-sim": cmd_setquery_sim,
    "complexity": cmd_complexity,
}
ORACLE_CHECKED = ("run-maint", "adaptive-sim", "setquery-sim")  # take --check-oracle


def build_parser():
    parser = _Parser(prog="kronproj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        if name in ORACLE_CHECKED:
            p.add_argument("--check-oracle", choices=["on", "off"], default="on",
                           dest="check_oracle")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return COMMANDS[args.command](args, cfg)
    except (KronprojError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
