"""Oblivious-to-adaptive reductions for norm and set-query estimation.

The wrapper runs L independent copies of an oblivious estimator, feeds
every update to all of them, and answers each query by subsampling q
copies with replacement, rounding their outputs onto a signed geometric
grid, and aggregating with a private median.  Aggregation through the
(1/4)-DP median keeps the transcript differentially private with respect
to the copies' internal randomness, which is what defeats an adaptive
adversary; the accountants below certify the budget of a full run.

Cost contract: every step performs exactly L copy-updates and q inner
queries (the set-query mode shares one subsample across coordinates);
counters track this.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .dpcore import (
    SignedGeometricGrid,
    advanced_composition,
    amplification,
    median_rank_error,
    private_median,
    round_to_grid,
)
from .errors import DimensionError, ParameterError
from .projmaint import _checked_int
from .sketch import GAUSSIAN, gaussian_gram, generate as generate_sketch

EPS_PM = 0.25
C_Q = 8.0
C_L_NORM = 600.0
# Calibrated so the set-query accounting chain (amplification, advanced
# composition over k coordinates, then over T steps) certifies a total
# epsilon of at most 1/200 for T <= 10^6, delta >= 10^-6; verified by test.
C_L_SET = 5000.0

NORM_MODE = "norm"
SET_MODE = "setquery"


def norm_wrapper_params(T, u_bound, alpha, delta):
    """Copy and subsample counts for the norm-mode wrapper.

    Returns (q, L, delta0) with q = ceil(8 ln(log_{1+alpha}(U) T / (alpha
    delta))), delta0 = delta / (2T) and
    L = ceil(600 q sqrt(4 T ln(400/delta0))).  The logarithm in q is
    floored at 1, so q >= 8 and L >= 3000 q.
    """
    if T < 1 or not 0.0 < alpha < 1.0 or not 0.0 < delta < 1.0:
        raise ParameterError("invalid (T, alpha, delta)")
    if u_bound <= 1.0:
        raise ParameterError("u_bound must exceed 1")
    log_grid = math.log(u_bound) / math.log1p(alpha)
    q = math.ceil(C_Q * math.log(max(log_grid * T / (alpha * delta), math.e)))
    delta0 = delta / (2.0 * T)
    L = math.ceil(C_L_NORM * q * math.sqrt(4.0 * T * math.log(400.0 / delta0)))
    return q, L, delta0


def setquery_wrapper_params(T, k, u_bound, alpha, delta):
    """Copy and subsample counts for the set-query wrapper.

    L scales with sqrt(k T); beta = delta / (4T) is the per-step median
    failure budget.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    q, _, _ = norm_wrapper_params(T, u_bound, alpha, delta)
    beta = delta / (4.0 * T)
    L = math.ceil(C_L_SET * q * math.sqrt(k * T * math.log(800.0 * T / delta)))
    return q, L, beta


def norm_transcript_budget(L, q, T, delta0):
    """(epsilon, delta) of a T-step norm-mode transcript.

    Chain: the private median is (EPS_PM, 0)-DP, subsampling q of L copies
    amplifies it to 6q/L * EPS_PM per step, and advanced composition over
    the T steps (with budget delta0/400) gives the total.
    """
    per_step = amplification(EPS_PM, q, L)
    return advanced_composition(per_step, 0.0, T, delta0 / 400.0)


def setquery_transcript_budget(L, q, T, k, beta):
    """(epsilon, delta) of a T-step set-query transcript over k coordinates."""
    per_coord = amplification(EPS_PM, q, L)
    per_step = advanced_composition(per_coord, 0.0, k, beta / (800.0 * T))
    return advanced_composition(per_step.epsilon, per_step.delta, T, beta / 800.0)


@dataclass
class AdaptiveWrapper:
    """L oblivious copies behind subsampling, rounding, and private median."""

    mode: str
    copies: list
    grid: SignedGeometricGrid
    T: int
    q: int
    median_beta: float
    k: int = 1
    params: dict = field(default_factory=dict)
    step: int = 0
    rng: np.random.Generator = None
    counters: dict = field(
        default_factory=lambda: {
            "copy_updates": 0,
            "inner_queries": 0,
            "overflow_clamps": 0,
        }
    )
    last_step_info: dict = field(default_factory=dict)

    @property
    def L(self):
        return len(self.copies)

    def transcript_budget(self):
        if self.mode == NORM_MODE:
            return norm_transcript_budget(self.L, self.q, self.T, self.median_beta)
        return setquery_transcript_budget(
            self.L, self.q, self.T, self.k, self.median_beta
        )


def _spawn_copies(factory, L, seed):
    seeds = np.random.SeedSequence(int(seed) & (2**64 - 1)).generate_state(
        L + 1, dtype=np.uint64
    )
    rng = np.random.default_rng(int(seeds[0]))
    copies = [factory(int(s)) for s in seeds[1:]]
    return copies, rng


def _build_wrapper(mode, factory, seed, formula, overrides, beta_key, beta, **head):
    """Resolve the (q, L) overrides against the ``formula`` values, spawn the
    copies, and build the wrapper; ``params`` lists ``head`` (the
    constructor's own arguments) first and ``beta`` under ``beta_key``."""
    (q_raw, L_raw), (q_override, L_override) = formula, overrides
    q = int(q_override) if q_override else q_raw
    L = int(L_override) if L_override else L_raw
    if not 1 <= q <= L:
        raise ParameterError(f"need 1 <= q <= L, got q={q}, L={L}")
    copies, rng = _spawn_copies(factory, L, seed)
    params = {
        "mode": mode,
        **head,
        "q": q,
        "L": L,
        "q_formula": q_raw,
        "L_formula": L_raw,
        beta_key: beta,
        "eps_pm": EPS_PM,
        "seed": int(seed),
    }
    return AdaptiveWrapper(
        mode=mode,
        copies=copies,
        grid=SignedGeometricGrid(head["u_bound"], head["alpha"]),
        T=head["T"],
        q=q,
        median_beta=beta,
        k=head.get("k", 1),
        params=params,
        rng=rng,
    )


def make_norm_wrapper(
    factory,
    T,
    u_bound,
    alpha,
    delta,
    seed=0,
    q_override=None,
    L_override=None,
):
    """Wrap an oblivious norm estimator for adaptive queries.

    The overrides shrink the copy counts for desk runs; the formula values
    are kept in ``params`` so reports always show both.
    """
    q_raw, L_raw, delta0 = norm_wrapper_params(T, u_bound, alpha, delta)
    return _build_wrapper(
        NORM_MODE, factory, seed, (q_raw, L_raw), (q_override, L_override), "delta0", delta0,
        T=T, u_bound=u_bound, alpha=alpha, delta=delta,
    )


def make_setquery_wrapper(
    factory,
    T,
    k,
    u_bound,
    alpha,
    delta,
    seed=0,
    q_override=None,
    L_override=None,
):
    """Wrap an oblivious set-query estimator for adaptive queries."""
    q_raw, L_raw, beta = setquery_wrapper_params(T, k, u_bound, alpha, delta)
    return _build_wrapper(
        SET_MODE, factory, seed, (q_raw, L_raw), (q_override, L_override), "beta", beta,
        T=T, k=k, u_bound=u_bound, alpha=alpha, delta=delta,
    )


def _fanout_update(wrapper, G_t, h_t):
    if wrapper.step >= wrapper.T:
        raise ParameterError("step budget exhausted")
    for copy in wrapper.copies:
        copy.update(G_t, h_t)
    wrapper.counters["copy_updates"] += wrapper.L
    sampled = wrapper.rng.integers(0, wrapper.L, size=wrapper.q)
    return sampled


def _private_step(wrapper, G_t, h_t, query, **info):
    """Update every copy, then privately aggregate a subsample of q of them.

    ``query(copy)`` gives a copy's k outputs (one in norm mode).  The q x k
    block is clamped to [-U, U], rounded onto the grid, and reduced to k
    private medians, one per column, in one array pass.  ``last_step_info``
    has the same keys in both modes (plus ``info``); norm mode reports its
    single column as scalars and length-q lists.
    """
    sampled = _fanout_update(wrapper, G_t, h_t)
    raw = np.array([query(wrapper.copies[l]) for l in sampled], dtype=float)
    raw = raw.reshape(wrapper.q, wrapper.k)
    wrapper.counters["inner_queries"] += wrapper.q
    u_bound = wrapper.grid.u_bound
    wrapper.counters["overflow_clamps"] += int(np.count_nonzero(np.abs(raw) > u_bound))
    rounded = round_to_grid(np.clip(raw, -u_bound, u_bound), wrapper.grid)
    u = private_median(rounded, wrapper.grid, EPS_PM, wrapper.rng)
    rank_error = median_rank_error(rounded, u)
    if wrapper.mode == NORM_MODE:
        raw, rounded, u, rank_error = raw[:, 0], rounded[:, 0], u[0], rank_error[0]
    wrapper.last_step_info = {
        "t": wrapper.step,
        **info,
        "sampled": sampled.tolist(),
        "raw": raw.tolist(),
        "rounded": rounded.tolist(),
        "u": u.tolist(),
        "rank_error": rank_error.tolist(),
    }
    wrapper.step += 1
    return u


def norm_step(wrapper, G_t, h_t):
    """One adaptive step: update all copies, aggregate q of them privately.

    If every copy is a gamma-approximation of ||G_t h_t||^2 with
    probability at least 9/10, then over the whole run, with probability
    at least 1 - delta every output lands within
    (alpha + gamma + alpha*gamma) ||G_t||_F^2 ||h_t||^2 of the truth.
    """
    if wrapper.mode != NORM_MODE:
        raise ParameterError("norm_step called on a set-query wrapper")
    return float(_private_step(wrapper, G_t, h_t, lambda copy: copy.query()))


def setquery_step(wrapper, G_t, h_t, Q_t):
    """One adaptive set-query step; one shared subsample, k private medians."""
    if wrapper.mode != SET_MODE:
        raise ParameterError("setquery_step called on a norm wrapper")
    Q_t = [int(j) for j in Q_t]
    if len(Q_t) != wrapper.k:
        raise DimensionError(f"expected |Q_t| = {wrapper.k}, got {len(Q_t)}")
    oracle.set_query_rows(Q_t, np.shape(G_t)[0])
    return _private_step(
        wrapper, G_t, h_t, lambda copy: copy.query_set(Q_t), coords=Q_t
    )


def _clamp_to_domain(vals, u_bound):
    """Push nonzero magnitudes into [1/U, U], keeping signs and zeros.

    Returns the clamped array and how many values lay past U; without a
    ``u_bound`` the values pass through.
    """
    vals = np.asarray(vals, dtype=float)
    if u_bound is None:
        return vals, 0
    mag = np.clip(np.abs(vals), 1.0 / u_bound, u_bound)
    out = np.where(vals == 0.0, vals, np.copysign(mag, vals))
    return out, int(np.count_nonzero(np.abs(vals) > u_bound))


def _updated(est):
    """The estimator's (G, h), or a ParameterError before its first update."""
    if est._h is None:
        raise ParameterError(f"{type(est).__name__} queried before any update")
    return est._G, est._h


class ExactNormEstimator:
    """Oracle-backed oblivious estimator (gamma = 0), for tests and baselines."""

    def __init__(self, seed=0, u_bound=None):
        self.u_bound = u_bound
        self._G = None
        self._h = None

    def update(self, G, h):
        self._G, self._h = oracle.norm_operands(G, h)

    def query(self):
        return float(_clamp_to_domain(oracle.exact_norm(*_updated(self)), self.u_bound)[0])

    def query_set(self, Q):
        return _clamp_to_domain(oracle.exact_set_query(*_updated(self), Q), self.u_bound)[0]


class SketchedNormEstimator:
    """Sketch-backed oblivious estimator.

    query() returns ||G R^T R h||^2, a gamma-approximation of ||G h||^2
    with gamma = beta / sqrt(b) for the family's tail parameter beta;
    query_set() returns the per-row sketched inner products squared,
    ((R g_j) . (R h))^2 = (g_j^T K h)^2 with the Gram K = R^T R.  Both read
    R only through K, which the first update draws from the seed and keeps:
    n^2 doubles, 2 KB at n=16; a new n redraws it.  A Gaussian copy draws K
    from R^T R's law in O(n min(n, b)) (``sketch.gaussian_gram``), so its bits
    differ from ``generate``'s sketch; other families form R^T R from their R.
    Outputs are clamped into [-U, U], tiny nonzero magnitudes pushed to 1/U.
    """

    def __init__(self, family, b, seed, u_bound=None):
        self.family = family
        self.b = _checked_int(b, "b", 1)
        self.seed = int(seed)
        self.u_bound = u_bound
        self._K = None
        self._G = None
        self._h = None
        self.overflow_clamps = 0

    def update(self, G, h):
        self._G, self._h = oracle.norm_operands(G, h)
        n = self._h.shape[0]
        if self._K is None or self._K.shape[0] != n:
            if self.family.tag == GAUSSIAN:
                self._K = gaussian_gram(self.b, n, self.seed)
            else:
                R = generate_sketch(self.family, self.b, n, self.seed).to_dense()
                self._K = R.T @ R

    def _clamp(self, vals):
        vals, overflows = _clamp_to_domain(vals, self.u_bound)
        self.overflow_clamps += overflows
        return vals

    def query(self):
        G, h = _updated(self)
        return float(self._clamp(oracle.exact_norm(G, self._K @ h)))

    def query_set(self, Q):
        G, h = _updated(self)
        return self._clamp((G[oracle.set_query_rows(Q, G.shape[0])] @ (self._K @ h)) ** 2)


def sketched_norm_estimator(family, b, seed, u_bound=None):
    """Factory adapter: sketch module -> oblivious estimator interface."""
    return SketchedNormEstimator(family, b, seed, u_bound=u_bound)
