"""Dynamic maintenance of a Kronecker-structured projection.

Maintains Y, an orthonormal basis of the range of (L (x) L)^{1/2} G^T for
G = A (U (x) U), from a Householder QR at the maintained eigenvalues lam, so
that the projection at lam is (U (x) U) Y Y^T (U (x) U)^T.  For each sketch
R_l of the pool, the block Q_l = Y Y^T (U (x) U)^T R_l^T answers projected
matrix-vector queries; it is computed when a query first reads it and
dropped with the pool.  Small eigenvalue drifts are absorbed lazily; larger
ones, batched by a geometric soft-threshold rule, recompute Y at the new
eigenvalues.  Queries return the projection at the query-time approximation
lam_tilde, reached from Y by a Woodbury correction on the Kronecker support
of the lazy drift, applied to a sketched copy of the input vector.

A single instance is single-writer: update and query mutate the cursor and
counters and must be externally serialized.  Distinct instances are
independent.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kronlinalg
from .errors import (
    DimensionError,
    IllConditionedError,
    InvariantError,
    ParameterError,
    RankDeficiencyError,
)
from .kronlinalg import (
    CONDITION_BOUND,
    EigenWeight,
    kron_apply,
    kron_diag,
)
from .sketch import SketchBatch, SketchFamily

SNAPSHOT_VERSION = 1


@dataclass
class ConstraintBatch:
    """m vectorized n x n constraint matrices stored as an m x n^2 matrix.

    Rows must be linearly independent; this is verified with a pivoted QR
    factorization on construction.
    """

    matrix: np.ndarray
    n: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        m, nn = self.matrix.shape
        if nn != self.n * self.n:
            raise DimensionError(f"constraint rows have length {nn}, expected n^2")
        if not np.all(np.isfinite(self.matrix)):
            raise ParameterError("constraint entries must be finite")
        if m > nn:
            raise RankDeficiencyError(f"m = {m} exceeds n^2 = {nn}")
        R = scipy.linalg.qr(self.matrix.T, mode="r", pivoting=True)[0]
        diag = np.abs(np.diag(R))
        tol = max(m, nn) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
        rank = int(np.sum(diag > tol))
        if rank < m:
            raise RankDeficiencyError(f"constraint rows have rank {rank} < m = {m}")

    @property
    def m(self):
        return self.matrix.shape[0]


def soft_threshold(lam, lam_new, r):
    """Grow the update batch geometrically while log-drifts stay comparable.

    Sorts y_i = ln(lam_new_i) - ln(lam_i) by magnitude (stable, descending)
    and, while the magnitude at position ceil(1.5 r) is at least a
    (1 - 1/ln n) fraction of the one at position r, grows r to ceil(1.5 r)
    capped at n.  Returns the blended eigenvalue vector (taking lam_new on
    the first r sorted positions) and the final r.
    """
    lam = np.asarray(lam, dtype=float)
    lam_new = np.asarray(lam_new, dtype=float)
    if np.any(lam <= 0) or np.any(lam_new <= 0):
        raise ParameterError("soft_threshold requires positive eigenvalues")
    if r < 1:
        raise ParameterError("soft_threshold requires r >= 1")
    n = lam.shape[0]
    y = np.log(lam_new) - np.log(lam)
    order = np.argsort(-np.abs(y), kind="stable")
    ay = np.abs(y[order])
    # zero drift at the candidate position means nothing left to fold in
    while (
        1.5 * r < n
        and ay[math.ceil(1.5 * r) - 1] > 0.0
        and ay[math.ceil(1.5 * r) - 1] >= (1.0 - 1.0 / math.log(n)) * ay[r - 1]
    ):
        r = min(math.ceil(1.5 * r), n)
    lam_hat = lam.copy()
    take = order[:r]
    lam_hat[take] = lam_new[take]
    return lam_hat, r


def _checked_settings(eps_mp, a_exp):
    """``eps_mp`` and ``a_exp`` as floats, held to the initialization contract."""
    eps_mp, a_exp = float(eps_mp), float(a_exp)
    if not 0.0 < eps_mp < 0.1:
        raise ParameterError("eps_mp must lie in (0, 0.1)")
    if not 0.0 < a_exp < 1.0:
        raise ParameterError("a_exp must lie in (0, 1)")
    return eps_mp, a_exp


def _snapshot_int(snap, key, lo, hi=math.inf):
    """``snap[key]`` as an int in [lo, hi), or a ParameterError naming it."""
    v = snap[key]
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not lo <= v < hi:
        raise ParameterError(f"snapshot: {key} = {v!r} is not an integer in [{lo}, {hi})")
    return int(v)


def kron_apply_block(A, B, X):
    """Apply (A (x) B) to every column of X without materializing it."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    X = np.asarray(X, dtype=float)
    na, nb = A.shape[1], B.shape[1]
    if X.shape[0] != na * nb:
        raise DimensionError(f"kron_apply_block: X has {X.shape[0]} rows, need {na * nb}")
    k = X.shape[1]
    X3 = X.reshape(nb, na, k, order="F")
    T = np.tensordot(B, X3, axes=([1], [0]))
    Y = np.tensordot(A, T, axes=([1], [1]))
    return Y.transpose(1, 0, 2).reshape(B.shape[0] * A.shape[0], k, order="F")


class MaintainedProjection:
    """Projection maintenance with lazy eigenvalue updates and sketched queries.

    Parameters follow the initialization contract: ``eps_mp`` in (0, 0.1)
    controls the spectral approximation, ``a_exp`` in (0, 1) sets the lazy
    threshold n^a_exp on the number of drifted eigenvalues, and the pool
    holds ``s`` sketches of dimension ``b`` that are regenerated with fresh
    seeds on every non-lazy update, which also recomputes Y, and on exhaustion.
    """

    def __init__(
        self,
        constraints,
        W,
        eps_mp=0.05,
        a_exp=0.5,
        family=None,
        s=4,
        b=32,
        seed=0,
    ):
        self.eps_mp, self.a_exp = _checked_settings(eps_mp, a_exp)
        if family is None:
            family = SketchFamily.gaussian()
        self.constraints = constraints
        self.n = constraints.n
        self.m = constraints.m
        self.family = family
        self.s = int(s)
        self.b = int(b)
        self._root_seed = int(seed)
        self._regen_count = 0

        if isinstance(W, EigenWeight):
            ew = W  # caller controls the shared eigenbasis exactly
        else:
            ew = kronlinalg.sym_eigen(np.asarray(W, dtype=float))
        self.basis = ew.basis
        self.eig_floor = 1e-12 * max(float(np.max(ew.eigvals, initial=0.0)), 1.0)
        self.lam = np.maximum(ew.eigvals, self.eig_floor)
        self.lam_tilde = self.lam.copy()
        self._last_external = self.lam.copy()

        self.counters = {
            "updates": 0,
            "queries": 0,
            # per update: the Kronecker support size of the change to lam, 0 if lazy
            "woodbury_ranks": [],
            "full_recomputes": 0,  # never incremented; callers compare it across updates
            "query_fallbacks": 0,
        }
        self._build()

    # -- internal construction helpers ------------------------------------

    def _build(self):
        """G = A (U (x) U) from the constraints, Y at lam and a fresh pool."""
        # row i of G is vec(U^T A_i U) = (U^T (x) U^T) vec(A_i)
        UT = self.basis.T
        self.G = np.ascontiguousarray(kron_apply_block(UT, UT, self.constraints.matrix.T).T)
        self.Y = self._core_basis(self.lam)
        self._install_pool()

    def _core_basis(self, lam):
        """Orthonormal basis of the range of (L (x) L)^{1/2} G^T at lam.

        Householder QR, guarded on the condition estimate of R: that is the
        square root of the condition of the Gram matrix G (L (x) L) G^T.
        """
        khalf = kron_diag(np.sqrt(lam), np.sqrt(lam))
        Y, R = scipy.linalg.qr(
            khalf[:, None] * self.G.T, overwrite_a=True, mode="economic", check_finite=False
        )
        kronlinalg._guard(scipy.linalg.lapack.dtrcon(R)[0], CONDITION_BOUND, "core QR")
        return Y

    @property
    def M(self):
        """The core G^T (G (L (x) L) G^T)^{-1} G at lam, derived from Y (n^2 x n^2)."""
        khalf = kron_diag(np.sqrt(self.lam), np.sqrt(self.lam))
        return (self.Y @ self.Y.T) / np.outer(khalf, khalf)

    def _pool_seed(self):
        ss = np.random.SeedSequence(
            entropy=self._root_seed & (2**64 - 1), spawn_key=(self._regen_count,)
        )
        return int(ss.generate_state(1, dtype=np.uint64)[0])

    def _install_pool(self):
        """Draw a fresh pool; its Q blocks wait for the queries that read them."""
        self.pool = SketchBatch.generate(
            self.family, self.s, self.b, self.n * self.n, self._pool_seed()
        )
        self._regen_count += 1
        self.Q = [None] * self.s
        self.cursor = 0

    def q_block(self, l):
        """Q_l = Y Y^T (U (x) U)^T R_l^T for pool sketch l, computed on first read."""
        if self.Q[l] is None:
            W1 = kron_apply_block(self.basis.T, self.basis.T, self.pool[l].to_dense().T)
            self.Q[l] = self.Y @ (self.Y.T @ W1)
        return self.Q[l]

    # -- operations --------------------------------------------------------

    def update(self, w_new):
        """Absorb a shared-eigenbasis weight update; returns lam_tilde.

        The returned vector defines the approximating weight
        U diag(lam_tilde) U^T; after every update it satisfies
        |ln(lam_ext_i) - ln(lam_tilde_i)| <= eps_mp / 2 for all i.
        """
        if not isinstance(w_new, EigenWeight):
            raise ParameterError("update expects an EigenWeight")
        if w_new.basis.shape != self.basis.shape or np.max(
            np.abs(w_new.basis - self.basis)
        ) > 1e-10:
            raise ParameterError("update: eigenbasis does not match the maintained one")
        lam_ext = np.asarray(w_new.eigvals, dtype=float)
        if not np.all(np.isfinite(lam_ext)):
            raise ParameterError("update: eigenvalues must be finite")
        lam_ext = np.maximum(lam_ext, self.eig_floor)

        n = self.n
        y = np.log(lam_ext) - np.log(self.lam)
        r0 = int(np.sum(np.abs(y) >= self.eps_mp / 2.0))

        if r0 < n**self.a_exp:
            # lazy branch: keep Y, Q and the maintained lam untouched
            self.counters["woodbury_ranks"].append(0)
        else:
            lam_hat, _ = soft_threshold(self.lam, lam_ext, r0)
            self.Y = self._core_basis(lam_hat)  # raises before any state changes
            change = kron_diag(lam_hat, lam_hat) - kron_diag(self.lam, self.lam)
            self.counters["woodbury_ranks"].append(int(np.count_nonzero(change)))
            self.lam = lam_hat
            self._install_pool()
            self.q_block(0)  # lam_tilde == lam below, so the next query reads it
        self.counters["updates"] += 1  # only once the step has taken

        close = np.abs(np.log(lam_ext) - np.log(self.lam)) <= self.eps_mp / 2.0
        self.lam_tilde = np.where(close, self.lam, lam_ext)
        self._last_external = lam_ext
        return self.lam_tilde.copy()

    def query(self, h):
        """Sketched projection query; returns p_l for the next pool sketch.

        The output equals the exact projection at lam_tilde applied to
        R_l^T R_l h, where R_l is the sketch at the cursor.  Consumes one
        sketch; the pool is regenerated on exhaustion.
        """
        h = self._query_vector(h, "query")
        l = self.cursor
        sketch = self.pool[l]
        rh = sketch.apply(h)
        if np.array_equal(self.lam_tilde, self.lam):
            # no lazy drift pending: the projection at lam is Y Y^T
            p = self.q_block(l) @ rh
        else:
            p = self._project(kron_apply(self.basis.T, self.basis.T, sketch.apply_adjoint(rh)))
        p_l = kron_apply(self.basis, self.basis, p)
        self.cursor += 1
        self.counters["queries"] += 1
        if self.cursor >= self.s:
            self._install_pool()
        return p_l

    def _project(self, w):
        """The projection at lam_tilde applied to w, both in the basis U (x) U.

        With E = (K~ / K)^{1/2} for the Kronecker diagonals K~ at lam_tilde
        and K at lam, that projection is E Y (Y^T E^2 Y)^{-1} Y^T E, and
        Y^T E^2 Y = I + Y_S^T D Y_S for D = E^2 - I on its support S.  The
        k x k Woodbury inner matrix inverts it, and its guard catches the
        cancellation of a drift toward the floor.
        """
        ratio = kron_diag(self.lam_tilde, self.lam_tilde) / kron_diag(self.lam, self.lam)
        e = np.sqrt(ratio)
        r = self.Y.T @ (e * w)
        S = np.flatnonzero(ratio != 1.0)
        if S.size:  # LAPACK rejects the 0 x 0 inner matrix of an empty S
            YS = self.Y[S]
            try:
                r = r - kronlinalg.woodbury_correction(
                    YS.T, ratio[S] - 1.0, YS @ YS.T, YS @ r, CONDITION_BOUND
                )
            except IllConditionedError:
                # recoverable: answer from a fresh basis at lam_tilde instead
                self.counters["query_fallbacks"] += 1
                Y = self._core_basis(self.lam_tilde)
                return Y @ (Y.T @ w)
        return e * (self.Y @ r)

    def query_exactish(self, h):
        """Unsketched reference path: the projection at lam_tilde times h."""
        w = kron_apply(self.basis.T, self.basis.T, self._query_vector(h, "query_exactish"))
        return kron_apply(self.basis, self.basis, self._project(w))

    def _query_vector(self, h, what):
        h = np.asarray(h, dtype=float)
        if h.shape != (self.n * self.n,):
            raise DimensionError(f"{what}: expected vector of length {self.n * self.n}")
        if not np.all(np.isfinite(h)):
            raise ParameterError(f"{what}: entries must be finite")
        return h

    # -- introspection ------------------------------------------------------

    def check_invariants(self):
        """Check the structural invariants; intended for tests and debugging.

        Raises :class:`InvariantError` naming the first one that fails; the
        checks also run under ``python -O``.
        """

        def require(ok, what):
            if not ok:
                raise InvariantError(f"check_invariants: {what}")

        require(np.all(self.lam >= self.eig_floor), "lam below eig_floor")
        require(self.cursor < self.s, "pool cursor past the last sketch")
        require(self.Y.shape == (self.n * self.n, self.m), "Y is not n^2 x m")
        gram_err = np.linalg.norm(self.Y.T @ self.Y - np.eye(self.m), "fro")
        require(gram_err <= 1e-8, "Y not orthonormal")
        # Y's m columns span the range of (L (x) L)^{1/2} G^T at lam
        B = kron_diag(np.sqrt(self.lam), np.sqrt(self.lam))[:, None] * self.G.T
        resid = np.linalg.norm(B - self.Y @ (self.Y.T @ B), "fro")
        require(resid <= 1e-8 * np.linalg.norm(B, "fro"), "Y misses the range at lam")
        ratio = np.abs(np.log(self._last_external) - np.log(self.lam_tilde))
        require(np.max(ratio) <= self.eps_mp / 2.0 + 1e-12, "lam_tilde beyond eps_mp / 2")

    def counters_dict(self):
        out = dict(self.counters)
        out["woodbury_ranks"] = list(out["woodbury_ranks"])
        return out

    # -- serialization ------------------------------------------------------

    def snapshot(self):
        """Versioned state bundle sufficient for a deterministic resume."""
        return {
            "version": SNAPSHOT_VERSION,
            "n": self.n,
            "m": self.m,
            "constraints": self.constraints.matrix.tolist(),
            "basis": self.basis.tolist(),
            "lam": self.lam.tolist(),
            "lam_tilde": self.lam_tilde.tolist(),
            "last_external": self._last_external.tolist(),
            "eps_mp": self.eps_mp,
            "a_exp": self.a_exp,
            "family": {"tag": self.family.tag, "sparsity": self.family.sparsity},
            "s": self.s,
            "b": self.b,
            "root_seed": self._root_seed,
            "regen_count": self._regen_count - 1,
            "cursor": self.cursor,
            "eig_floor": self.eig_floor,
            "counters": self.counters_dict(),
        }

    @classmethod
    def from_snapshot(cls, snap):
        """Resume from :meth:`snapshot` bit for bit; corrupt state raises a KronprojError."""
        if snap.get("version") != SNAPSHOT_VERSION:
            raise ParameterError(f"unsupported snapshot version {snap.get('version')}")
        obj = cls.__new__(cls)
        obj.n = _snapshot_int(snap, "n", 1)
        obj.constraints = ConstraintBatch(
            matrix=np.asarray(snap["constraints"], dtype=float), n=obj.n
        )
        obj.m = obj.constraints.m
        if snap["m"] != obj.m:
            raise ParameterError(f"snapshot: m = {snap['m']} for {obj.m} constraint rows")
        obj.eps_mp, obj.a_exp = _checked_settings(snap["eps_mp"], snap["a_exp"])
        obj.family = SketchFamily(snap["family"]["tag"], snap["family"]["sparsity"])
        obj.s = _snapshot_int(snap, "s", 1)
        obj.b = _snapshot_int(snap, "b", 1)
        obj._root_seed = snap["root_seed"]
        obj._regen_count = _snapshot_int(snap, "regen_count", 0)
        cursor = _snapshot_int(snap, "cursor", 0, obj.s)
        ew = EigenWeight(snap["basis"], snap["lam"])  # orthonormal, nonnegative
        obj.basis, obj.lam, obj.eig_floor = ew.basis, ew.eigvals, float(snap["eig_floor"])
        if not (0.0 < obj.eig_floor < np.inf and np.all(obj.lam >= obj.eig_floor)):
            raise ParameterError("snapshot: lam must be at least eig_floor > 0")
        obj.lam_tilde = np.asarray(snap["lam_tilde"], dtype=float)
        obj._last_external = np.asarray(snap["last_external"], dtype=float)
        for name, x in (("lam_tilde", obj.lam_tilde), ("last_external", obj._last_external)):
            if x.shape != (obj.n,) or not np.all(np.isfinite(x) & (x > 0)):
                raise ParameterError(f"snapshot: {name} must be {obj.n} finite positive values")
        obj.counters = dict(snap["counters"])
        obj.counters["woodbury_ranks"] = list(obj.counters["woodbury_ranks"])
        obj._build()
        obj.cursor = cursor
        return obj
