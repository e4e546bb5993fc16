"""The four benchmark workloads: inputs from a seed, a closed step loop, checks.

Each workload builds its inputs with the generators in ``kronproj.harness``
from the run seed, then issues one step at a time, each only after the
previous one returned.  Only the program's public calls are timed; input
generation and every correctness check run between or after the timed calls.
The loop runs in rounds (about 1.5 s of maintenance steps, one 50-step
wrapper, or one cycle over the five sketch families) so that every run holds
whole rounds, the shares of the step kinds stay fixed from run to run, and a
throughput can be taken per round.
"""

import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from kronproj import adaptive, harness, oracle, projmaint, sketch
from kronproj.kronlinalg import EigenWeight
from kronproj.sketch import SketchFamily

# maint-*: the interior-point sizes named in the workload table.
MAINT_N, MAINT_M = 32, 256
POOL_S, POOL_B = 4, 32
EPS_MP, A_EXP = 0.05, 0.5
QUERY_RTOL = 1e-7
# Drift steps generated per run; a run that exhausts them ends early.
MAINT_MAX_STEPS = {"uniform": 400, "sparse-k": 1200}
# Query oracle check stride: every step's lam_tilde is checked, every
# stride-th query against the materialized projection (~50 ms each).
MAINT_CHECK_EVERY = {"uniform": 4, "sparse-k": 10}
# A round is ~1.5 s of steps; maint-uniform's alternate Woodbury and rebuild.
MAINT_ROUND = {"uniform": 4, "sparse-k": 40}

# adaptive-setquery: the acceptance criterion 9 configuration.
AQ_N, AQ_K, AQ_T = 16, 8, 50
AQ_L, AQ_Q = 20, 7
AQ_ALPHA, AQ_DELTA, AQ_U, AQ_B = 0.25, 0.1, 2.0, 4096
AQ_C_SQ = 16.0
AQ_GAMMA = 5.0 / math.sqrt(AQ_B)  # Gaussian tail parameter over sqrt(b)

# sketch-ce: the acceptance criterion 5 size, 100 trials per call.
CE_B, CE_N, CE_TRIALS, CE_DELTA = 256, 1024, 100, 0.01
CE_FAMILIES = (
    SketchFamily.gaussian(),
    SketchFamily.srht(),
    SketchFamily.ams(),
    SketchFamily.countsketch(),
    SketchFamily.sparse_embedding(8),
)
CE_TAIL_BOUND = 20.0 * math.log(CE_N / CE_DELTA) ** 1.5
# Criterion 5 allows 4 standard errors of bias in 5 tests of 10k trials.  A
# run makes about 60 calls of 100 trials, and at that size the statistic is
# heavier-tailed than normal: over 1260 CountSketch calls it passed 3 SE in
# 0.58 % (0.27 % if normal) and 4 SE once; a run has ~12 such calls, so a
# 4 SE limit would fail correct code in about one run in a hundred.
CE_BIAS_SE = 6.0

SETUP_REPS = 7


def _seed_int(seed, *key):
    """A 64-bit integer seed derived from the run seed and a spawn key."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _finite(x, shape):
    x = np.asarray(x)
    return x.shape == shape and bool(np.all(np.isfinite(x)))


class Budget:
    """Loop condition: a wall-clock budget or a fixed number of rounds.

    The clock starts at ``more(0)``, after set-up.  A fixed count
    makes a run's work, and so every count it reports, a function of the
    seed alone; the traced run uses it for that reason.
    """

    def __init__(self, seconds=None, rounds=None):
        self.seconds = seconds
        self.rounds = rounds
        self.started = None

    def more(self, done):
        if done == 0:
            self.started = time.perf_counter()
        if self.rounds is not None:
            return done < self.rounds
        return done == 0 or time.perf_counter() < self.started + self.seconds


@dataclass
class Run:
    """What one run measured; latencies are in seconds."""

    setup_s: list = field(default_factory=list)
    step_s: list = field(default_factory=list)
    update_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)
    attempted: int = 0
    failed_steps: set = field(default_factory=set)
    peak_rss_mb: float = 0.0
    # per-layer counts read from the program's public state
    counts: dict = field(default_factory=dict)
    # maint-*: update latencies by branch; adaptive: first-step latencies
    branch_s: dict = field(default_factory=lambda: {"lazy": [], "woodbury": [], "rebuild": []})
    first_step_s: list = field(default_factory=list)
    # (steps, busy seconds) of each round, for the median round rate
    rounds: list = field(default_factory=list)
    errors: int = 0

    @property
    def failed(self):
        return len(self.failed_steps)

    def fail(self, step, why):
        if not self.failed_steps:
            print(f"check failed at step {step}: {why}", file=sys.stderr)
        self.failed_steps.add(step)

    def error(self, step):
        """A step raised: count it as failed and show the first traceback."""
        if not self.errors:
            traceback.print_exc(file=sys.stderr)
        self.errors += 1
        self.failed_steps.add(step)

    def end_round(self, first_step):
        """Close the round whose steps start at index ``first_step`` of step_s."""
        steps = self.step_s[first_step:]
        self.rounds.append((len(steps), sum(steps)))

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def mark_peak_rss(self):
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _maint_inputs(seed, pattern, drift):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    A = harness.random_constraints(MAINT_M, MAINT_N, rng).matrix
    basis = harness.random_orthogonal(MAINT_N, rng)
    cfg = harness.DriftConfig(
        n=MAINT_N, m=MAINT_M, T=MAINT_MAX_STEPS[pattern], rank_pattern=pattern,
        seed=_seed_int(seed, 2), **drift,
    )
    return A, basis, harness.gen_drift_sequence(cfg)


def run_maintenance(seed, budget, pattern, drift):
    """One ``update`` then one ``query`` per step on a MaintainedProjection."""
    run = Run()
    A, basis, seq = _maint_inputs(seed, pattern, drift)
    pool_seed = _seed_int(seed, 3)
    for _ in range(SETUP_REPS):
        mp = None  # free the previous instance before building the next
        t0 = time.perf_counter()
        mp = projmaint.MaintainedProjection(
            projmaint.ConstraintBatch(matrix=A, n=MAINT_N),
            EigenWeight(basis, seq[0]),
            eps_mp=EPS_MP, a_exp=A_EXP, family=SketchFamily.gaussian(),
            s=POOL_S, b=POOL_B, seed=pool_seed,
        )
        run.setup_s.append(time.perf_counter() - t0)

    h_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(4,)))
    check_every = MAINT_CHECK_EVERY[pattern]
    deferred = []  # (step, lam_tilde, R_l^T R_l h, answer) for the oracle
    nn = MAINT_N * MAINT_N
    counters = mp.counters
    fallbacks0, queries0 = counters["query_fallbacks"], counters["queries"]
    pool, regens, rank_sum = mp.pool, 0, 0
    t, rounds, per_round = 0, 0, MAINT_ROUND[pattern]
    while budget.more(rounds) and t + per_round < len(seq):
        first = len(run.step_s)
        for _ in range(per_round):
            t += 1
            w = EigenWeight(basis, seq[t])
            h = h_rng.standard_normal(nn)
            run.attempted += 1
            recomputes = counters["full_recomputes"]
            try:
                t0 = time.perf_counter()
                lam_tilde = mp.update(w)
                t1 = time.perf_counter()
                if mp.pool is not pool:
                    pool, regens = mp.pool, regens + 1
                v = None
                if t % check_every == 0:
                    R = mp.pool[mp.cursor].to_dense()
                    v = R.T @ (R @ h)
                t2 = time.perf_counter()
                out = mp.query(h)
                t3 = time.perf_counter()
            except Exception:
                run.error(t)
                continue
            if mp.pool is not pool:
                pool, regens = mp.pool, regens + 1
            run.update_s.append(t1 - t0)
            run.query_s.append(t3 - t2)
            run.step_s.append((t1 - t0) + (t3 - t2))
            rank = counters["woodbury_ranks"][-1]
            if counters["full_recomputes"] > recomputes:
                branch = "rebuild"
            elif rank == 0:
                branch = "lazy"
            else:
                branch = "woodbury"
                rank_sum += rank
            run.branch_s[branch].append(t1 - t0)

            if not _finite(lam_tilde, (MAINT_N,)) or not _finite(out, (nn,)):
                run.fail(t, "non-finite or misshapen answer")
                continue
            ratio = float(np.max(np.abs(np.log(seq[t]) - np.log(lam_tilde))))
            if ratio > EPS_MP / 2.0 + 1e-12:
                run.fail(t, f"|log(lam/lam_tilde)| = {ratio:.4g} > eps_mp/2")
            if v is not None:
                deferred.append((t, lam_tilde, v, out))
        run.end_round(first)
        rounds += 1
    run.mark_peak_rss()

    for step, lam_tilde, v, out in deferred:
        W_tilde = (basis * lam_tilde) @ basis.T
        expected = oracle.exact_projection(A, W_tilde) @ v
        err = float(np.linalg.norm(out - expected) / max(np.linalg.norm(expected), 1e-30))
        if err > QUERY_RTOL:
            run.fail(step, f"query differs from the oracle by {err:.2e} relative")

    lazy, updates = len(run.branch_s["lazy"]), len(run.update_s)
    queries = counters["queries"] - queries0
    run.counts.update({
        "projmaint.update.lazy": lazy,
        "projmaint.update.woodbury": len(run.branch_s["woodbury"]),
        "projmaint.update.rebuild": len(run.branch_s["rebuild"]),
        "projmaint.lazy_frac": lazy / updates if updates else 0.0,
        "projmaint.woodbury_rank.sum": rank_sum,
        "projmaint.query_fallbacks": counters["query_fallbacks"] - fallbacks0,
        "projmaint.pool.regens": regens,
        "projmaint.pool.used_frac": queries / (regens * POOL_S) if regens else 0.0,
        "projmaint.state_bytes": sum(
            a.nbytes for a in vars(mp).values() if isinstance(a, np.ndarray)
        ),
    })
    return run


def _setquery_factory(seed):
    return adaptive.sketched_norm_estimator(
        SketchFamily.gaussian(), AQ_B, seed, u_bound=AQ_U
    )


def run_adaptive_setquery(seed, budget):
    """Consecutive seeded set-query wrappers driven by the feedback adversary.

    The reduction promises that with probability at least 1 - delta every
    answer of a T-step wrapper lies inside the envelope, so envelope misses
    fail their steps only when more than a delta share of the run's wrappers
    has one.  Off-grid, non-finite or misshapen answers always fail.
    """
    run = Run()
    tol = AQ_ALPHA + AQ_GAMMA + AQ_ALPHA * AQ_GAMMA
    step, wrappers = 0, 0
    misses = []  # steps whose answer left the envelope
    miss_wrappers = 0
    while budget.more(wrappers):
        wseed = _seed_int(seed, wrappers)
        wrapper = None  # free the previous wrapper's sketches outside the timing
        t0 = time.perf_counter()
        wrapper = adaptive.make_setquery_wrapper(
            _setquery_factory, AQ_T, AQ_K, AQ_U, AQ_ALPHA, AQ_DELTA,
            seed=wseed, q_override=AQ_Q, L_override=AQ_L,
        )
        run.setup_s.append(time.perf_counter() - t0)
        adv = harness.SetQueryAdversary(AQ_N, AQ_K, wseed ^ 0x5BF03635, True, c_sq=AQ_C_SQ)
        last_u, last_coords = None, None
        wrapper_misses = len(misses)
        first = len(run.step_s)
        for t in range(AQ_T):
            G, h, coords = adv.next_instance(last_u, last_coords)
            step += 1
            run.attempted += 1
            try:
                t0 = time.perf_counter()
                u = adaptive.setquery_step(wrapper, G, h, coords)
                dt = time.perf_counter() - t0
            except Exception:
                run.error(step)
                continue
            run.step_s.append(dt)
            if t == 0:
                run.first_step_s.append(dt)
            if not _finite(u, (AQ_K,)) or not all(wrapper.grid.contains(x) for x in u):
                run.fail(step, "non-finite, misshapen or off-grid answer")
                continue
            truth = oracle.exact_set_query(G, h, coords)
            bound = tol * np.sum(G[coords] ** 2, axis=1) * float(h @ h)
            if np.any(np.abs(u - truth) > bound):
                misses.append(step)
            last_u, last_coords = u, coords
        miss_wrappers += len(misses) > wrapper_misses
        run.end_round(first)
        run.count("adaptive.copy_updates", wrapper.counters["copy_updates"])
        run.count("adaptive.inner_queries", wrapper.counters["inner_queries"])
        run.count("adaptive.overflow_clamps.wrapper", wrapper.counters["overflow_clamps"])
        run.count("adaptive.overflow_clamps.copies", sum(c.overflow_clamps for c in wrapper.copies))
        wrappers += 1
    run.count("adaptive.envelope_miss_wrappers", miss_wrappers)
    if miss_wrappers > AQ_DELTA * wrappers:
        for miss in misses:
            run.fail(miss, "a coordinate lies outside (alpha+gamma+alpha*gamma)|g_j|^2|h|^2"
                     f" in {miss_wrappers} of {wrappers} wrappers")
    # one public call both updates the copies and answers the query
    run.update_s = run.query_s = run.step_s
    run.mark_peak_rss()
    return run


def run_sketch_ce(seed, budget):
    """Criterion 5's ce_estimate, cycling the five families in a fixed order."""
    run = Run()
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        for fam in CE_FAMILIES:
            sketch.generate(fam, CE_B, CE_N, _seed_int(seed, 0, rep))
        run.setup_s.append(time.perf_counter() - t0)
    step, cycles = 0, 0
    while budget.more(cycles):
        first = len(run.step_s)
        for i, fam in enumerate(CE_FAMILIES):
            step += 1
            run.attempted += 1
            try:
                t0 = time.perf_counter()
                rep = sketch.ce_estimate(
                    fam, CE_B, CE_N, CE_TRIALS, seed=_seed_int(seed, 1, cycles, i), delta=CE_DELTA
                )
                dt = time.perf_counter() - t0
            except Exception:
                run.error(step)
                continue
            run.step_s.append(dt)
            stats = (rep.true_ip, rep.mean_bias, rep.se_mean, rep.alpha_hat, rep.beta_hat)
            if not _finite(stats, (5,)) or (rep.b, rep.n, rep.trials) != (CE_B, CE_N, CE_TRIALS):
                run.fail(step, f"{fam.tag}: malformed report")
            elif rep.mean_bias > CE_BIAS_SE * rep.se_mean:
                run.fail(step, f"{fam.tag}: bias {rep.mean_bias:.3g} > {CE_BIAS_SE} SE")
            elif fam.tag in ("gaussian", "srht", "ams") and rep.beta_hat > CE_TAIL_BOUND:
                run.fail(step, f"{fam.tag}: tail {rep.beta_hat:.3g} > {CE_TAIL_BOUND:.0f}")
        run.end_round(first)
        cycles += 1
    # one public call per step, which draws the sketches and applies them
    run.update_s = run.query_s = run.step_s
    run.mark_peak_rss()
    return run


WORKLOADS = {
    "maint-uniform": lambda seed, budget: run_maintenance(
        seed, budget, "uniform", dict(C1=0.3, C2=0.02)
    ),
    "maint-sparse": lambda seed, budget: run_maintenance(
        seed, budget, "sparse-k", dict(C1=0.5, C2=0.0, sparse_k=2)
    ),
    "adaptive-setquery": run_adaptive_setquery,
    "sketch-ce": run_sketch_ce,
}

# Rounds of a traced run, sized for roughly ten seconds each on a 2-core box.
TRACE_ROUNDS = {
    "maint-uniform": 6,
    "maint-sparse": 5,
    "adaptive-setquery": 10,
    "sketch-ce": 2,
}
