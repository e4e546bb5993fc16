"""Sketching families with seeded generation and fast application.

Five families are supported: dense Gaussian, subsampled randomized
Hadamard (SRHT), AMS, CountSketch, and sparse embedding.  Each sketch holds
one operator: a dense array (Gaussian, AMS), a ``scipy.sparse`` CSC array
with s signed entries per column (sparse embedding; CountSketch is the
sparse embedding with sparsity 1 and shares its code), or the signs and
sampled rows of a Hadamard transform (SRHT).  Hash-based
families use k-wise independent polynomial hashing over the Mersenne
prime 2^31 - 1 (degree 4 for 4-wise, degree 2 for 2-wise) rather than
full randomness.  Every sketch is a deterministic function of
(family, b, n, seed).
"""

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import sparse

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


@dataclass(frozen=True)
class _SRHT:
    """R = scale * P H D / sqrt(n_pad) on the first n columns: D the signs,
    H the padded Sylvester-Hadamard transform, P the b sampled rows."""

    signs: np.ndarray
    rows: np.ndarray
    scale: float
    n_pad: int


@dataclass
class Sketch:
    """One sketching matrix R of shape b x n, applied via :meth:`apply`.

    ``R`` is the operator itself: a dense array for Gaussian and AMS, a
    ``scipy.sparse`` CSC array with s signed entries per column for
    CountSketch and the sparse embedding, and for SRHT the signs, sampled
    rows and scale of a transform applied through :func:`fwht`.
    Instances are immutable after generation and safe for concurrent reads.
    """

    family: SketchFamily
    b: int
    n: int
    seed: int
    R: object = field(repr=False)

    @staticmethod
    def _operand(x, dim, name):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != dim:
            raise DimensionError(
                f"{name}: expected a vector or column stack of leading dim {dim}, "
                f"got shape {x.shape}"
            )
        return x

    def apply(self, x):
        """Compute R x for a length-n vector (or n x k column stack)."""
        x = self._operand(x, self.n, "apply")
        R = self.R
        if not isinstance(R, _SRHT):
            return R @ x
        xp = np.zeros((R.n_pad,) + x.shape[1:])
        xp[: self.n] = (R.signs[: self.n] * x.T).T
        return R.scale * (fwht(xp) / np.sqrt(R.n_pad))[R.rows]

    def apply_adjoint(self, y):
        """Compute R^T y for a length-b vector (or b x k column stack)."""
        y = self._operand(y, self.b, "apply_adjoint")
        R = self.R
        if not isinstance(R, _SRHT):
            return R.T @ y
        yp = np.zeros((R.n_pad,) + y.shape[1:])
        yp[R.rows] = y
        # Sylvester-Hadamard is symmetric, so H^T = H
        hy = fwht(yp) / np.sqrt(R.n_pad)
        return R.scale * (R.signs[: self.n] * hy[: self.n].T).T

    def to_dense(self):
        """Materialize R as a (b, n) array; rows restricted to the true n."""
        if isinstance(self.R, _SRHT):
            # every factor is +-1 before the scale, so each entry is exact
            return self.apply_adjoint(np.eye(self.b)).T.copy()
        return self.R.toarray() if sparse.issparse(self.R) else self.R.copy()


def generate(family, b, n, seed):
    """Draw a sketch of shape b x n as a deterministic function of the seed."""
    if b < 1 or n < 1:
        raise ParameterError("sketch dimensions must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1)))
    tag = family.tag
    if tag == GAUSSIAN:
        R = rng.standard_normal((b, n)) / np.sqrt(b)
    elif tag == SRHT:
        n_pad = _next_pow2(n)
        if b > n_pad:
            raise ParameterError(f"SRHT samples b={b} distinct rows of {n_pad}, the padded n")
        signs = rng.integers(0, 2, size=n_pad).astype(np.float64) * 2.0 - 1.0
        rows = rng.choice(n_pad, size=b, replace=False)
        # scale uses the padded dimension: each row of R has norm sqrt(n_pad/b)
        R = _SRHT(signs=signs, rows=rows, scale=np.sqrt(n_pad / b), n_pad=n_pad)
    elif tag == AMS:
        powers = _domain_powers(np.arange(n, dtype=np.uint64), 4)
        R = _hash_signs(rng, powers, m=b) / np.sqrt(b)
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
        # slot j of a column lands in block j, so each column's rows ascend
        rows = bins + block * np.arange(s)[None, :]
        indptr = np.arange(0, n * s + 1, s)
        R = sparse.csc_array((signs.ravel(), rows.ravel(), indptr), shape=(b, n))
    else:  # pragma: no cover
        raise ParameterError(tag)
    return Sketch(family=family, b=b, n=n, seed=int(seed), R=R)


def gaussian_gram(b, n, seed):
    """Draw K with R^T R's law for a Gaussian b x n sketch R, without R: b K is
    Wishart_n(b, I), whose Bartlett decomposition (Odell & Feiveson 1966) is
    T T^T, T n x min(n, b) lower trapezoidal, T[i, i]^2 ~ chi^2(b - i) and N(0, 1)
    below the diagonal.  K is seeded as in ``generate`` but is not its sketch's Gram."""
    if b < 1 or n < 1:
        raise ParameterError("sketch dimensions must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1)))
    r = min(n, b)
    T = np.zeros((n, r))
    T[np.tri(n, r, -1, dtype=bool)] = rng.standard_normal(n * r - r * (r + 1) // 2)
    np.fill_diagonal(T, np.sqrt(rng.chisquare(b - np.arange(r))))
    return T @ T.T / b


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
        return asdict(self)


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
