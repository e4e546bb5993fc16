"""Sketching families with seeded generation and fast application.

Five families are supported: dense Gaussian, subsampled randomized
Hadamard (SRHT), AMS, CountSketch, and sparse embedding.  CountSketch is
the sparse embedding with sparsity 1 and shares its code.  Hash-based
families use k-wise independent polynomial hashing over the Mersenne
prime 2^31 - 1 (degree 4 for 4-wise, degree 2 for 2-wise) rather than
full randomness.  Every sketch is a deterministic function of
(family, b, n, seed).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError

GAUSSIAN = "gaussian"
SRHT = "srht"
AMS = "ams"
COUNTSKETCH = "countsketch"
SPARSE_EMBEDDING = "sparse_embedding"

FAMILY_TAGS = (GAUSSIAN, SRHT, AMS, COUNTSKETCH, SPARSE_EMBEDDING)

_P = np.uint64((1 << 31) - 1)  # Mersenne prime for polynomial hashing
_ONE = np.uint64(1)


@dataclass(frozen=True)
class SketchFamily:
    """Tag plus the sparsity parameter for the sparse-embedding family."""

    tag: str
    sparsity: int = 1

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ParameterError(f"unknown sketch family {self.tag!r}")
        if self.sparsity < 1:
            raise ParameterError("sparsity must be >= 1")
        if self.tag == COUNTSKETCH and self.sparsity != 1:
            raise ParameterError("CountSketch has sparsity 1")

    @classmethod
    def gaussian(cls):
        return cls(GAUSSIAN)

    @classmethod
    def srht(cls):
        return cls(SRHT)

    @classmethod
    def ams(cls):
        return cls(AMS)

    @classmethod
    def countsketch(cls):
        return cls(COUNTSKETCH)

    @classmethod
    def sparse_embedding(cls, sparsity):
        return cls(SPARSE_EMBEDDING, sparsity=sparsity)


def _domain_powers(xs, degree):
    """Stack [x^1, ..., x^(degree-1)] mod p for a fixed hash domain."""
    xs = np.asarray(xs, dtype=np.uint64)
    if xs.size and int(xs.max()) >= int(_P):
        raise ParameterError("hash domain exceeds the Mersenne prime")
    powers = [xs]
    for _ in range(degree - 2):
        powers.append(powers[-1] * xs % _P)
    return powers


def _poly_hash(coeffs, powers):
    """Evaluate m polynomial hashes over a shared domain.

    ``coeffs`` is (m, k) with entries in [0, p); ``powers`` holds the
    precomputed domain powers.  Since every term is below 2^62 and k <= 4,
    the sum fits in uint64 and one final reduction suffices.
    """
    acc = np.broadcast_to(coeffs[:, :1], (coeffs.shape[0], powers[0].size)).copy()
    for j, pw in enumerate(powers, start=1):
        acc += coeffs[:, j : j + 1] * pw[None, :]
    return acc % _P


def _hash_coeffs(rng, m, degree):
    return rng.integers(0, int(_P), size=(m, degree), dtype=np.int64).astype(np.uint64)


def _hash_signs(rng, xs_powers, m=1):
    """m independent 4-wise sign functions evaluated on the domain."""
    vals = _poly_hash(_hash_coeffs(rng, m, 4), xs_powers)
    return (vals & _ONE).astype(np.float64) * 2.0 - 1.0


def _hash_bins(rng, xs_powers, width, m=1):
    """m independent 2-wise bin functions onto [0, width)."""
    vals = _poly_hash(_hash_coeffs(rng, m, 2), xs_powers)
    return (vals % np.uint64(width)).astype(np.int64)


def fwht(x):
    """Unnormalized fast Walsh-Hadamard transform along the first axis.

    The length of the first axis must be a power of two.  Uses the
    Sylvester ordering H[i, j] = (-1)^popcount(i & j).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n & (n - 1):
        raise DimensionError("fwht length must be a power of two")
    tail = x.shape[1:]
    y = x.reshape(n, -1).copy()
    h = 1
    while h < n:
        y = y.reshape(n // (2 * h), 2, h, -1)
        s = y[:, 0, :, :] + y[:, 1, :, :]
        d = y[:, 0, :, :] - y[:, 1, :, :]
        y = np.stack((s, d), axis=1).reshape(n, -1)
        h *= 2
    return y.reshape((n,) + tail)


def _next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


def _hadamard_rows(rows, n):
    """Selected rows of the unnormalized Sylvester-Hadamard matrix."""
    r = np.asarray(rows, dtype=np.uint64)[:, None]
    c = np.arange(n, dtype=np.uint64)[None, :]
    v = r & c
    for s in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(s)
    return 1.0 - 2.0 * (v & _ONE).astype(np.float64)


@dataclass
class Sketch:
    """One sketching matrix R of shape b x n, applied via :meth:`apply`.

    The representation is family specific: dense values for Gaussian/AMS,
    hash tables for CountSketch/sparse embedding, diagonal signs plus
    sampled rows for SRHT.  Instances are immutable after generation and
    safe for concurrent reads.
    """

    family: SketchFamily
    b: int
    n: int
    seed: int
    _rep: dict = field(repr=False)

    def apply(self, x):
        """Compute R x for a length-n vector (or n x k column stack)."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise DimensionError(f"apply: expected leading dim {self.n}, got {x.shape}")
        squeeze = x.ndim == 1
        X = x[:, None] if squeeze else x
        tag = self.family.tag
        rep = self._rep
        if tag in (GAUSSIAN, AMS):
            out = rep["dense"] @ X
        elif tag == SRHT:
            n_pad = rep["n_pad"]
            Xp = np.zeros((n_pad, X.shape[1]))
            Xp[: self.n] = rep["signs"][: self.n, None] * X
            HX = fwht(Xp) / np.sqrt(n_pad)
            out = rep["scale"] * HX[rep["rows"]]
        elif tag in (COUNTSKETCH, SPARSE_EMBEDDING):
            s = self.family.sparsity
            out = np.zeros((self.b, X.shape[1]))
            weighted = rep["signs"].reshape(self.n, s, 1) * X[:, None, :]
            np.add.at(out, rep["rows"], weighted.reshape(self.n * s, -1))
        else:  # pragma: no cover
            raise ParameterError(tag)
        return out[:, 0] if squeeze else out

    def apply_adjoint(self, y):
        """Compute R^T y for a length-b vector (or b x k column stack)."""
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.b:
            raise DimensionError(
                f"apply_adjoint: expected leading dim {self.b}, got {y.shape}"
            )
        squeeze = y.ndim == 1
        Y = y[:, None] if squeeze else y
        tag = self.family.tag
        rep = self._rep
        if tag in (GAUSSIAN, AMS):
            out = rep["dense"].T @ Y
        elif tag == SRHT:
            n_pad = rep["n_pad"]
            Yp = np.zeros((n_pad, Y.shape[1]))
            Yp[rep["rows"]] = Y
            # Sylvester-Hadamard is symmetric, so H^T = H
            HY = fwht(Yp) / np.sqrt(n_pad)
            out = rep["scale"] * (rep["signs"][: self.n, None] * HY[: self.n])
        elif tag in (COUNTSKETCH, SPARSE_EMBEDDING):
            s = self.family.sparsity
            gathered = rep["signs"].reshape(self.n, s, 1) * Y[
                rep["rows"].reshape(self.n, s)
            ]
            out = gathered.sum(axis=1)
        else:  # pragma: no cover
            raise ParameterError(tag)
        return out[:, 0] if squeeze else out

    def to_dense(self):
        """Materialize R as a (b, n) array; rows restricted to the true n."""
        tag = self.family.tag
        rep = self._rep
        if tag in (GAUSSIAN, AMS):
            return rep["dense"].copy()
        if tag == SRHT:
            n_pad = rep["n_pad"]
            H = _hadamard_rows(rep["rows"], n_pad) / np.sqrt(n_pad)
            return rep["scale"] * (H * rep["signs"][None, :])[:, : self.n]
        if tag in (COUNTSKETCH, SPARSE_EMBEDDING):
            s = self.family.sparsity
            R = np.zeros((self.b, self.n))
            cols = np.repeat(np.arange(self.n), s)
            R[rep["rows"], cols] = rep["signs"].ravel()
            return R
        raise ParameterError(tag)  # pragma: no cover


def generate(family, b, n, seed):
    """Draw a sketch of shape b x n as a deterministic function of the seed."""
    if b < 1 or n < 1:
        raise ParameterError("sketch dimensions must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1)))
    tag = family.tag
    if tag == GAUSSIAN:
        rep = {"dense": rng.standard_normal((b, n)) / np.sqrt(b)}
    elif tag == SRHT:
        n_pad = _next_pow2(n)
        signs = rng.integers(0, 2, size=n_pad).astype(np.float64) * 2.0 - 1.0
        rows = rng.choice(n_pad, size=b, replace=False)
        # scale uses the padded dimension: each row of R has norm sqrt(n_pad/b)
        rep = {
            "n_pad": n_pad,
            "signs": signs,
            "rows": rows,
            "scale": np.sqrt(n_pad / b),
        }
    elif tag == AMS:
        powers = _domain_powers(np.arange(n, dtype=np.uint64), 4)
        rep = {"dense": _hash_signs(rng, powers, m=b) / np.sqrt(b)}
    elif tag in (COUNTSKETCH, SPARSE_EMBEDDING):
        s = family.sparsity
        if b % s != 0:
            raise ParameterError(f"sparsity {s} must divide sketch dimension {b}")
        block = b // s
        # domain is the pair (column i, slot j) encoded as i*s + j
        pairs = np.arange(n * s, dtype=np.uint64)
        powers4 = _domain_powers(pairs, 4)
        bins = _hash_bins(rng, powers4[:1], block, m=1)[0].reshape(n, s)
        signs = _hash_signs(rng, powers4, m=1)[0].reshape(n, s) / np.sqrt(s)
        rows = bins + block * np.arange(s)[None, :]
        rep = {"rows": rows.reshape(-1), "signs": signs}
    else:  # pragma: no cover
        raise ParameterError(tag)
    return Sketch(family=family, b=b, n=n, seed=int(seed), _rep=rep)


@dataclass
class SketchBatch:
    """A pool of s independent sketches sharing (family, b, n).

    Per-sketch seeds are derived from the pool seed, so the whole pool
    regenerates deterministically from a single integer.
    """

    family: SketchFamily
    s: int
    b: int
    n: int
    seed: int
    sketches: list = field(default_factory=list, repr=False)

    @classmethod
    def generate(cls, family, s, b, n, seed):
        if s < 1:
            raise ParameterError("pool size must be >= 1")
        child = np.random.SeedSequence(int(seed) & (2**64 - 1)).generate_state(
            s, dtype=np.uint64
        )
        sketches = [generate(family, b, n, int(cs)) for cs in child]
        return cls(family=family, s=s, b=b, n=n, seed=int(seed), sketches=sketches)

    def __getitem__(self, l):
        return self.sketches[l]

    def transpose_dense(self):
        """Materialize R^T = [R_1^T ... R_s^T] of shape (n, s*b)."""
        return np.hstack([sk.to_dense().T for sk in self.sketches])


@dataclass
class CEReport:
    """Empirical coordinate-wise-embedding statistics for one family."""

    family: str
    sparsity: int
    b: int
    n: int
    trials: int
    delta: float
    true_ip: float
    mean_bias: float
    se_mean: float
    alpha_hat: float
    beta_hat: float

    def to_dict(self):
        return {
            "family": self.family,
            "sparsity": self.sparsity,
            "b": self.b,
            "n": self.n,
            "trials": self.trials,
            "delta": self.delta,
            "true_ip": self.true_ip,
            "mean_bias": self.mean_bias,
            "se_mean": self.se_mean,
            "alpha_hat": self.alpha_hat,
            "beta_hat": self.beta_hat,
        }


def ce_estimate(family, b, n, trials, seed, delta=0.01, g=None, h=None):
    """Estimate the coordinate-wise-embedding parameters of a family.

    Draws a fixed random unit pair (g, h) from the seed unless supplied,
    then over independent sketches R measures g^T R^T R h.  Reports
    |trial mean - <g, h>|, the second-moment excess scaled by b (an
    estimate of the variance parameter), and sqrt(b) times the
    (1 - delta) quantile of the absolute deviation (the tail parameter).
    """
    if trials < 100:
        raise ParameterError("ce_estimate needs at least 100 trials")
    root = np.random.SeedSequence(int(seed) & (2**64 - 1))
    rng = np.random.default_rng(root)
    if g is None:
        g = rng.standard_normal(n)
        g /= np.linalg.norm(g)
    if h is None:
        h = rng.standard_normal(n)
        h /= np.linalg.norm(h)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    gh = np.stack([g, h], axis=1)
    true_ip = float(g @ h)
    scale = float(np.linalg.norm(g) * np.linalg.norm(h))
    trial_seeds = root.generate_state(trials + 1, dtype=np.uint64)[1:]
    vals = np.empty(trials)
    for t in range(trials):
        sk = generate(family, b, n, int(trial_seeds[t]))
        Z = sk.apply(gh)
        vals[t] = Z[:, 0] @ Z[:, 1]
    dev = np.abs(vals - true_ip)
    mean_bias = abs(float(vals.mean()) - true_ip)
    se_mean = float(vals.std(ddof=1)) / np.sqrt(trials)
    second_moment_excess = float(np.mean(vals**2)) - true_ip**2
    alpha_hat = b * second_moment_excess / (scale**2)
    beta_hat = np.sqrt(b) * float(np.quantile(dev, 1.0 - delta)) / scale
    return CEReport(
        family=family.tag,
        sparsity=family.sparsity,
        b=b,
        n=n,
        trials=trials,
        delta=delta,
        true_ip=true_ip,
        mean_bias=mean_bias,
        se_mean=se_mean,
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
    )
