"""Differential-privacy primitives.

A signed geometric grid provides the finite ordered output domain shared
by multiplicative rounding and the private median; accountants for simple
composition, advanced composition, and amplification by subsampling are
pure arithmetic on (epsilon, delta) pairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridDomainError, ParameterError

_REL_FUZZ = 1e-12


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0 or not 0.0 <= self.delta <= 1.0:
            raise ParameterError(f"invalid privacy budget ({self.epsilon}, {self.delta})")


class SignedGeometricGrid:
    """Ordered domain 0 plus +-(1+alpha)^j covering [1/U, U(1+alpha)].

    Points are strictly increasing and symmetric about zero.  The exponent
    j runs over the integers with 1/U <= (1+alpha)^j <= U*(1+alpha); near
    ties are snapped so exact powers of (1+alpha) are kept on the grid.
    """

    def __init__(self, u_bound, alpha):
        if u_bound <= 1.0:
            raise ParameterError("u_bound must exceed 1")
        # canonical range is (0, 1); alpha = 1 (powers of two) is also valid
        if not 0.0 < alpha <= 1.0:
            raise ParameterError("alpha must lie in (0, 1]")
        t = math.log(u_bound) / math.log1p(alpha)
        if abs(t - round(t)) < 1e-9:
            t = round(t)
        j_lo = -math.floor(t)
        j_hi = math.floor(t) + 1
        self._init_from_exponents(u_bound, alpha, j_lo, j_hi)

    @classmethod
    def from_exponent_range(cls, alpha, j_lo, j_hi):
        """Grid with magnitudes (1+alpha)^j for j in [j_lo, j_hi]."""
        obj = cls.__new__(cls)
        u = (1.0 + alpha) ** max(abs(j_lo), j_hi - 1)
        obj._init_from_exponents(max(u, 1.0 + alpha), alpha, j_lo, j_hi)
        return obj

    def _init_from_exponents(self, u_bound, alpha, j_lo, j_hi):
        if j_hi < j_lo:
            raise ParameterError("empty exponent range")
        self.u_bound = float(u_bound)
        self.alpha = float(alpha)
        self.exponents = np.arange(j_lo, j_hi + 1)
        self.magnitudes = (1.0 + alpha) ** self.exponents.astype(float)
        self.points = np.concatenate([-self.magnitudes[::-1], [0.0], self.magnitudes])

    def __len__(self):
        return self.points.size

    def contains(self, v):
        i = int(np.searchsorted(self.points, v))
        return i < self.points.size and self.points[i] == v

    def to_dict(self):
        return {
            "u_bound": self.u_bound,
            "alpha": self.alpha,
            "points": int(self.points.size),
        }


def round_to_grid(v, grid):
    """Round up in magnitude to the nearest grid power of (1+alpha).

    Works elementwise on an array of any shape; a scalar gives a float.
    Zero maps to zero; magnitudes below the smallest grid magnitude are
    clamped up to it (the oblivious estimators may emit tiny nonzero
    values).  Magnitudes beyond u_bound*(1+alpha) are rejected; the sliver
    between the largest grid magnitude and that limit saturates.  The
    result r satisfies |v| <= |r| <= (1+alpha)|v| up to 1e-12 relative.
    """
    v = np.asarray(v, dtype=float)
    mags = grid.magnitudes
    av = np.abs(v)
    over = av > grid.u_bound * (1.0 + grid.alpha) * (1.0 + _REL_FUZZ)
    if np.any(over):
        raise GridDomainError(f"|{float(v[over].flat[0])!r}| exceeds the grid range")
    idx = np.minimum(np.searchsorted(mags, av * (1.0 - _REL_FUZZ), side="left"), mags.size - 1)
    r = np.where(v == 0.0, 0.0, np.where(v > 0, 1.0, -1.0) * mags[idx])
    return float(r) if r.ndim == 0 else r


def median_rank_error(values, x):
    """How far x falls short of being a median of the multiset.

    For a (q, k) block of values and k candidates x, returns the k rank
    errors, one per column; 1-D values and a scalar x give a float.
    """
    values = np.asarray(values, dtype=float)
    cols = values.reshape(values.shape[0], -1)
    half = cols.shape[0] / 2.0
    ge = np.count_nonzero(cols >= x, axis=0)
    le = np.count_nonzero(cols <= x, axis=0)
    err = np.maximum(0.0, np.maximum(half - ge, half - le))
    return float(err[0]) if values.ndim == 1 else err


def private_median(values, grid, epsilon, rng):
    """Exponential-mechanism median over a signed geometric grid.

    Samples a grid point with probability proportional to
    exp(-epsilon * u(x) / 2) where u(x) is the rank utility
    max(#{v < x}, #{v > x}) - ceil(|values|/2) clamped at zero; its
    sensitivity to swapping one value is 1, so the output is
    (epsilon, 0)-differentially private.  For every beta in (0, 1), with
    probability 1 - beta the output misses a true median by at most
    O(log(|grid|/beta)/epsilon) ranks.  Cumulative weights are accumulated
    in extended precision and inverted directly (no Gumbel trick) for
    reproducibility under seeding.

    A (q, k) block gives k independent medians, one per column, from the
    k draws ``rng.random(k)``: the same doubles as k scalar draws, so the
    answers equal k separate 1-D calls.  1-D values give a float.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ParameterError("private_median requires nonempty values")
    if not 0.0 < epsilon <= 1.0:
        raise ParameterError("epsilon must lie in (0, 1]")
    pts = grid.points
    cols = values.reshape(values.shape[0], -1)
    n, k = cols.shape
    # every value must be an exact grid point
    vidx = np.searchsorted(pts, cols)
    if np.any(vidx >= pts.size) or np.any(pts[np.minimum(vidx, pts.size - 1)] != cols):
        raise GridDomainError("private_median input contains off-grid values")
    # counts[i, j]: how many values of column j equal pts[i]
    offsets = np.arange(k) * pts.size
    counts = np.bincount((vidx + offsets).ravel(), minlength=k * pts.size)
    counts = counts.reshape(k, pts.size).T
    at_or_below = np.cumsum(counts, axis=0)
    below = at_or_below - counts
    above = n - at_or_below
    utility = np.maximum(np.maximum(below, above) - math.ceil(n / 2), 0)
    logw = -0.5 * epsilon * (utility - utility.min(axis=0))
    cum = np.cumsum(np.exp(logw.astype(np.longdouble)), axis=0)
    r = rng.random(k).astype(np.longdouble) * cum[-1]
    out = pts[np.count_nonzero(cum <= r, axis=0)]
    return float(out[0]) if values.ndim == 1 else out


def simple_composition(budgets):
    """Sequential composition of pure-DP budgets: epsilons add."""
    total = 0.0
    for bgt in budgets:
        if bgt.delta != 0.0:
            raise ParameterError("simple_composition requires delta = 0 budgets")
        total += bgt.epsilon
    return PrivacyBudget(epsilon=total, delta=0.0)


def advanced_composition(epsilon, delta, k, delta0):
    """k-fold adaptive composition of (epsilon, delta)-DP mechanisms.

    Returns (sqrt(2 k ln(1/delta0)) * epsilon + 2 k epsilon^2,
    delta0 + k delta).
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ParameterError("epsilon must lie in [0, 1]")
    if not 0.0 < delta0 <= 1.0:
        raise ParameterError("delta0 must lie in (0, 1]")
    if not 0.0 <= delta <= 1.0 or k < 0:
        raise ParameterError("invalid (delta, k)")
    eps_total = math.sqrt(2.0 * k * math.log(1.0 / delta0)) * epsilon + 2.0 * k * epsilon**2
    return PrivacyBudget(epsilon=eps_total, delta=delta0 + k * delta)


def amplification(epsilon, k, n):
    """Privacy amplification from subsampling k of n rows with repetition."""
    if not 0.0 <= epsilon <= 1.0:
        raise ParameterError("epsilon must lie in [0, 1]")
    if k > n / 2:
        raise ParameterError("amplification requires k <= n/2")
    return (6.0 * k / n) * epsilon
