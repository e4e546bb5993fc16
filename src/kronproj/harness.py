"""Experiment orchestration: drift generators, end-to-end runs, reports.

Every experiment is fully specified by a config dict plus a seed, and the
serialized report is deterministic: rerunning with the same inputs yields
byte-identical JSON.  Wall-clock timings are therefore kept out of the
serialized report (they live on the in-memory report object and go to
the log).
"""

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import adaptive, oracle
from .errors import ParameterError
from .kronlinalg import EigenWeight, kron_apply_block
from .projmaint import ConstraintBatch, MaintainedProjection
from .sketch import SketchFamily

SPARSE_K = "sparse-k"
UNIFORM = "uniform"
BURSTY = "bursty"
BURST_PROB = 0.06  # chance of a full-budget step under the bursty pattern
REPORT_SCHEMA_VERSION = 1

def json_dumps_det(obj):
    """Deterministic JSON encoding (sorted keys, fixed layout)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@dataclass
class RunReport:
    """Structured result of one experiment."""

    kind: str
    config: dict
    records: list
    summary: dict
    counters: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_dict(self):
        """The deterministic report: everything but ``timings``."""
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": self.kind,
            "config": self.config,
            "records": self.records,
            "counters": self.counters,
            "summary": self.summary,
        }

    def to_json(self):
        return json_dumps_det(self.to_dict())


@dataclass
class DriftConfig:
    """Log-eigenvalue drift process: per-step mean and variance budgets.

    Per step the squared per-coordinate log-drift means sum to at most
    C1^2 and the squared variances to at most C2^2; the rank pattern
    decides how that budget is spread over coordinates.  Fields are
    coerced to their types, so values read from JSON may be passed as is.
    """

    n: int = 6
    m: int = 8
    T: int = 50
    C1: float = 0.2
    C2: float = 0.0
    rank_pattern: str = UNIFORM
    sparse_k: int = 1
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, f.type(getattr(self, f.name)))
        if self.C1 < 0 or self.C2 < 0:
            raise ParameterError("drift budgets must be nonnegative")
        if self.rank_pattern not in (SPARSE_K, UNIFORM, BURSTY):
            raise ParameterError(f"unknown rank pattern {self.rank_pattern!r}")

    def to_dict(self):
        return asdict(self)


def _drift_step(rng, n, C1, C2, coords):
    """Increment vector on the chosen coordinates within the budgets."""
    k = coords.size
    inc = np.zeros(n)
    if k == 0 or (C1 == 0.0 and C2 == 0.0):
        return inc
    signs = rng.integers(0, 2, size=k) * 2.0 - 1.0
    mean = signs * (C1 / math.sqrt(k))
    sigma = (C2**2 / k) ** 0.25 if C2 > 0 else 0.0
    inc[coords] = mean + sigma * rng.standard_normal(k)
    return inc


def gen_drift_sequence(cfg):
    """Eigenvalue trajectories lam^(0..T) under the configured drift."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed & (2**64 - 1)))
    n = cfg.n
    lam = np.exp(rng.uniform(-0.5, 0.5, size=n))
    floor = 1e-12 * max(float(lam.max()), 1.0)
    seq = [lam.copy()]
    for _ in range(cfg.T):
        if cfg.rank_pattern == SPARSE_K:
            coords = rng.choice(n, size=min(cfg.sparse_k, n), replace=False)
            inc = _drift_step(rng, n, cfg.C1, cfg.C2, coords)
        elif cfg.rank_pattern == UNIFORM:
            inc = _drift_step(rng, n, cfg.C1, cfg.C2, np.arange(n))
        else:  # bursty: occasional full-budget bursts, quiet single moves
            if rng.random() < BURST_PROB:
                inc = _drift_step(rng, n, cfg.C1, cfg.C2, np.arange(n))
            else:
                coords = rng.choice(n, size=1)
                inc = _drift_step(rng, n, cfg.C1 / 40.0, 0.0, coords)
        lam = np.maximum(lam * np.exp(inc), floor)
        seq.append(lam.copy())
    return seq


def random_orthogonal(n, rng):
    return random_orthogonal_from(rng.standard_normal((n, n)))


def random_constraints(m, n, rng):
    return ConstraintBatch(matrix=rng.standard_normal((m, n * n)), n=n)


def run_maintenance_experiment(params):
    """Drive the maintained projection over a drift sequence.

    ``params`` is flat: the fields of ``DriftConfig``, the
    ``MaintainedProjection`` arguments ``eps_mp``, ``a_exp``, ``s`` and
    ``b``, and ``check_oracle`` (True).  An absent key takes the default of
    the class that reads it; other keys are ignored.  With ``check_oracle``
    enabled, every update checks the core through the projection it
    defines at the stored eigenvalues lam, (U (x) U) Y Y^T (U (x) U)^T,
    and every query against the materialized exact projection at
    lam_tilde; both references come from ``oracle.exact_projection``.
    """
    cfg = DriftConfig(**{f.name: params[f.name] for f in fields(DriftConfig) if f.name in params})
    mp_args = {key: params[key] for key in ("eps_mp", "a_exp", "s", "b") if key in params}
    check_oracle = bool(params.get("check_oracle", True))
    t_start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed ^ 0x9E3779B9) & (2**64 - 1)))
    n = cfg.n
    constraints = random_constraints(cfg.m, n, rng)
    basis = random_orthogonal(n, rng)
    seq = gen_drift_sequence(cfg)
    W0 = EigenWeight(basis, seq[0])
    t_init0 = time.perf_counter()
    mp = MaintainedProjection(constraints, W0, seed=cfg.seed, **mp_args)
    t_init1 = time.perf_counter()

    records = []
    max_core_err = 0.0
    max_q_err = 0.0
    max_log_ratio = 0.0
    for t in range(1, cfg.T + 1):
        lam_ext = seq[t]
        lam_tilde = mp.update(EigenWeight(basis, lam_ext))
        log_ratio = float(np.max(np.abs(np.log(lam_ext) - np.log(lam_tilde))))
        h = rng.standard_normal(n * n)
        R = mp.pool[mp.cursor].to_dense()
        out = mp.query(h)
        rec = {
            "t": t,
            "woodbury_rank": mp.counters["woodbury_ranks"][-1],
            "lam_tilde_log_ratio": log_ratio,
        }
        if check_oracle:
            proj = oracle.exact_projection(constraints, (basis * lam_tilde) @ basis.T)
            if not np.array_equal(lam_tilde, mp.lam):
                proj_lam = oracle.exact_projection(constraints, (basis * mp.lam) @ basis.T)
            else:
                proj_lam = proj
            KY = kron_apply_block(basis, basis, mp.Y)
            core_err = float(
                np.linalg.norm(KY @ KY.T - proj_lam, "fro") / np.linalg.norm(proj_lam, "fro")
            )
            expected = proj @ (R.T @ (R @ h))
            q_err = float(
                np.linalg.norm(out - expected)
                / max(np.linalg.norm(expected), 1e-30)
            )
            rec["core_rel_err"] = core_err
            rec["query_rel_err"] = q_err
            max_core_err = max(max_core_err, core_err)
            max_q_err = max(max_q_err, q_err)
        max_log_ratio = max(max_log_ratio, log_ratio)
        records.append(rec)
    t_end = time.perf_counter()

    summary = {
        "max_lam_tilde_log_ratio": max_log_ratio,
        "eps_mp_half": mp.eps_mp / 2.0,
        "total_woodbury_rank": int(sum(mp.counters["woodbury_ranks"])),
    }
    if check_oracle:
        summary["max_core_rel_err"] = max_core_err
        summary["max_query_rel_err"] = max_q_err
    config = dict(cfg.to_dict(), eps_mp=mp.eps_mp, a_exp=mp.a_exp, s=mp.s, b=mp.b,
                  family=mp.family.tag, check_oracle=check_oracle)
    return RunReport(
        kind="maintenance",
        config=config,
        records=records,
        summary=summary,
        counters=mp.counters_dict(),
        timings={
            "init_s": t_init1 - t_init0,
            "loop_s": t_end - t_init1,
            "total_s": t_end - t_start,
        },
    )


# -- adaptive experiments ---------------------------------------------------


def _feedback_rng(seed, t, value):
    """Seed a generator from the adversary's observation (adaptive feedback)."""
    bits = int(np.float64(value).view(np.uint64))
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(t, bits & 0xFFFFFFFF))
    )


class NormAdversary:
    """Instance stream for norm mode: scaled near-orthogonal matrices.

    Scales are chosen so that outputs stay inside the grid window [1/U, U]
    and the tolerance envelope (alpha + gamma + alpha*gamma) * ||G||_F^2
    covers the whole grid; this is the regime in which the reduction's
    guarantee is meaningful at desk-scale copy counts.  The feedback
    variant reseeds its perturbations from the previous output, so the
    query sequence genuinely depends on the data structure's answers.
    """

    def __init__(self, n, seed, feedback):
        self.n = n
        self.seed = seed
        self.feedback = feedback
        self.rng = np.random.default_rng(np.random.SeedSequence(seed & (2**64 - 1)))
        self.Q = random_orthogonal(n, self.rng)
        self.h = self._unit(self.rng.standard_normal(n))
        self.t = 0

    @staticmethod
    def _unit(v):
        return v / np.linalg.norm(v)

    def next_instance(self, last_u, last_coords=None):
        """Next ``(G, h, None)``; the third slot mirrors set-query's coordinates."""
        rng = self.rng
        if self.feedback and self.t > 0:
            rng = _feedback_rng(self.seed, self.t, last_u)
            mix = last_u / (1.0 + abs(last_u))
            self.h = self._unit(rng.standard_normal(self.n) + 2.0 * mix * self.h)
        else:
            self.h = self._unit(self.rng.standard_normal(self.n))
        # small rotation keeps G near the scaled-orthogonal manifold
        P = self.Q + 0.02 * rng.standard_normal((self.n, self.n))
        self.Q = random_orthogonal_from(P)
        c = 2.0 * (1.0 + 0.1 * (rng.random() - 0.5))  # c^2 near 4, within +-10%
        self.t += 1
        return c * self.Q, self.h.copy(), None


def random_orthogonal_from(Mat):
    Q, R = np.linalg.qr(Mat)
    return Q * np.sign(np.diag(R))


class SetQueryAdversary:
    """Instance stream for set-query mode: scaled permutations, flat h.

    Row norms are uniform (c^2 each) and h is kept entrywise flat (clipped
    before normalizing) so every per-coordinate truth plus the grid range
    stays inside the envelope (alpha + gamma + alpha*gamma) * ||g_j||^2.
    The feedback variant requests the coordinates with the largest
    previous outputs.
    """

    def __init__(self, n, k, seed, feedback, c_sq=16.0):
        self.n = n
        self.k = k
        self.seed = seed
        self.feedback = feedback
        self.c = math.sqrt(c_sq)
        self.rng = np.random.default_rng(np.random.SeedSequence(seed & (2**64 - 1)))
        self.perm = self.rng.permutation(n)
        self.scores = np.zeros(n)
        self.t = 0

    def next_instance(self, last_outputs, last_coords):
        rng = self.rng
        if self.feedback and self.t > 0 and last_coords is not None:
            bits = float(np.sum(last_outputs))
            rng = _feedback_rng(self.seed, self.t, bits)
            self.scores *= 0.5
            for j, u in zip(last_coords, last_outputs):
                self.scores[j] += u
            noisy = self.scores + 0.01 * rng.standard_normal(self.n)
            coords = np.argsort(-noisy)[: self.k]
        else:
            coords = self.rng.choice(self.n, size=self.k, replace=False)
        if self.t % 10 == 0:
            self.perm = rng.permutation(self.n)
        G = np.zeros((self.n, self.n))
        G[np.arange(self.n), self.perm] = self.c
        h = np.clip(1.0 + 0.3 * rng.standard_normal(self.n), 0.4, 1.6)
        h = h / np.linalg.norm(h)
        self.t += 1
        return G, h, np.sort(coords)


# Defaults of run_adaptive_experiment's parameters, shared by both modes,
# then the per-mode ones; the CLI passes its config keys straight through.
ADAPTIVE_DEFAULTS = {"T": 50, "L": 20, "q": 7, "k": 8, "alpha": 0.25, "delta": 0.1,
                     "estimator": "exact", "b": None, "seed": 0, "check_oracle": True}
MODE_DEFAULTS = {adaptive.NORM_MODE: {"n": 16, "u_bound": 8.0},
                 adaptive.SET_MODE: {"n": 32, "u_bound": 2.0}}


def _make_estimator_factory(kind, b, u_bound):
    """Copy factory and its tail gamma (0 for the exact estimator)."""
    if kind == "exact":
        return lambda seed: adaptive.ExactNormEstimator(seed, u_bound=u_bound), 0.0
    if kind == "sketch":
        if b is None:
            raise ParameterError("estimator 'sketch' needs a sketch dimension b")
        family = SketchFamily.gaussian()
        return (
            lambda seed: adaptive.sketched_norm_estimator(family, b, seed, u_bound=u_bound),
            5.0 / math.sqrt(b),
        )
    raise ParameterError(f"unknown estimator kind {kind!r}")


def _truth_and_mass(G, h, coords):
    """Exact answer and the squared norm its envelope scales with.

    ``coords`` is None in norm mode and the requested rows in set-query mode.
    """
    if coords is None:
        return oracle.exact_norm(G, h), np.linalg.norm(G, "fro") ** 2
    return oracle.exact_set_query(G, h, coords), np.sum(G[coords] ** 2, axis=1)


def run_adaptive_experiment(mode, adversary, params):
    """One seeded adaptive run; per-step oracle comparison when enabled.

    ``params`` keys and their defaults are ``ADAPTIVE_DEFAULTS`` and the
    mode's ``MODE_DEFAULTS``; ``k`` is read in set-query mode only, and
    ``b`` is required when ``estimator`` is 'sketch'.  Other keys are
    ignored.
    """
    if adversary not in ("oblivious", "feedback"):
        raise ParameterError(f"unknown adversary {adversary!r}")
    if mode not in (adaptive.NORM_MODE, adaptive.SET_MODE):
        raise ParameterError(f"unknown mode {mode!r}")
    p = {**ADAPTIVE_DEFAULTS, **MODE_DEFAULTS[mode], **params}
    T, n, seed = int(p["T"]), int(p["n"]), int(p["seed"])
    alpha, delta, u_bound = float(p["alpha"]), float(p["delta"]), float(p["u_bound"])
    b = None if p["b"] is None else int(p["b"])
    check = bool(p["check_oracle"])

    t0 = time.perf_counter()
    factory, gamma = _make_estimator_factory(p["estimator"], b, u_bound)
    sizing = dict(seed=seed, q_override=int(p["q"]), L_override=int(p["L"]))
    config = {"mode": mode, "adversary": adversary, "n": n, "T": T,
              "alpha": alpha, "delta": delta, "seed": seed,
              "u_bound": u_bound, "estimator": p["estimator"], "b": b}
    adv_seed, feedback = seed ^ 0x5BF03635, adversary == "feedback"
    if mode == adaptive.NORM_MODE:
        wrapper = adaptive.make_norm_wrapper(factory, T, u_bound, alpha, delta, **sizing)
        adv = NormAdversary(n, adv_seed, feedback)
    else:
        k = config["k"] = int(p["k"])
        wrapper = adaptive.make_setquery_wrapper(factory, T, k, u_bound, alpha, delta, **sizing)
        adv = SetQueryAdversary(n, k, adv_seed, feedback)
    tol_factor = alpha + gamma + alpha * gamma
    records = []
    last_u, last_coords = None, None
    for _ in range(T):
        G_t, h_t, coords = adv.next_instance(last_u, last_coords)
        if coords is None:
            u_t = adaptive.norm_step(wrapper, G_t, h_t)
        else:
            u_t = adaptive.setquery_step(wrapper, G_t, h_t, coords)
        info = wrapper.last_step_info
        rec = {key: info[key] for key in ("t", "coords", "u", "sampled", "rank_error")
               if key in info}
        if check:
            truth, mass = _truth_and_mass(G_t, h_t, coords)
            bound = tol_factor * mass * float(h_t @ h_t)
            ok = bool(np.all(np.abs(u_t - truth) <= bound))
            rec.update({"true": np.asarray(truth, dtype=float).tolist(),
                        "bound": np.asarray(bound, dtype=float).tolist(), "ok": ok})
        records.append(rec)
        last_u, last_coords = u_t, coords
    t1 = time.perf_counter()
    summary = {"all_ok": all(rec["ok"] for rec in records) if check else None,
               "gamma": gamma, "tol_factor": tol_factor,
               "transcript_budget": _budget_dict(wrapper), **wrapper.counters}
    config["wrapper"] = wrapper.params
    return RunReport(
        kind=f"adaptive-{mode}",
        config=config,
        records=records,
        summary=summary,
        counters=dict(wrapper.counters),
        timings={"total_s": t1 - t0},
    )


def _budget_dict(wrapper):
    try:
        bgt = wrapper.transcript_budget()
        return {"epsilon": bgt.epsilon, "delta": bgt.delta}
    except ParameterError:
        # q > L/2 leaves the amplification lemma inapplicable
        return None


def adaptive_battery(mode, adversary, runs, params):
    """Repeat run_adaptive_experiment over seeds; fraction of all-ok runs."""
    if runs < 1:
        raise ParameterError(f"an adaptive battery needs runs >= 1, got {runs}")
    base_seed = int(params.get("seed", ADAPTIVE_DEFAULTS["seed"]))
    ok = 0
    reports = []
    for r in range(runs):
        p = dict(params, seed=base_seed + 1000 * r)
        rep = run_adaptive_experiment(mode, adversary, p)
        reports.append(rep)
        if rep.summary["all_ok"]:
            ok += 1
    return ok / runs, reports


# -- complexity-model reporting --------------------------------------------


def complexity_model(a=0.31, c=0.0, omega=2.0, theta=None, n=1024):
    """Rectangular-multiplication cost exponent and amortization weights.

    theta defaults to omega + 2 (the dense-fallback bound for the
    n^2 x n x n^2 product).  Arguments are coerced to float (n to int).
    Raises for a = 1, where the exponent formula degenerates.
    """
    a, c, omega, n = float(a), float(c), float(omega), int(n)
    theta = omega + 2.0 if theta is None else float(theta)
    if not 0.0 < a < 1.0:
        raise ParameterError("a must lie in (0, 1)")
    if not 0.0 <= c < 1.0:
        raise ParameterError("c must lie in [0, 1)")
    f_ac = (c * (theta - omega - 2.0) + a * (2.0 + theta - c * theta - omega + 2.0 * c * omega) - theta) / (a - 1.0)
    cutoff = n**a
    weights = []
    for i in sorted(set(int(x) for x in np.geomspace(1, n, 17).round())):
        if i < cutoff:
            g = n ** (-a)
        else:
            g = i ** ((omega - 2.0) / (1.0 - a) - 1.0) * n ** (-a * (omega - 2.0) / (1.0 - a))
        weights.append({"i": int(i), "g_i": float(g)})
    return {"f_ac": float(f_ac), "omega": omega, "theta": theta, "a": a, "c": c,
            "n": n, "weights": weights}
