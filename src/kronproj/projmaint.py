"""Dynamic maintenance of a Kronecker-structured projection.

Maintains M = G^T (G (L (x) L) G^T)^{-1} G for G = A (U (x) U) under
shared-eigenbasis updates of the weight eigenvalues, together with the
sketched product Q = M (L (x) L)^{1/2} (U (x) U)^T R^T of the sketch pool R
used to answer projected matrix-vector queries.  Small eigenvalue drifts are
absorbed lazily; larger ones trigger a batched low-rank inverse correction
chosen by a geometric soft-threshold rule, or a from-scratch rebuild of M
when the cumulative Woodbury rank would pass n^2 or the condition guard
trips.  Queries return the projection at the query-time approximation
lam_tilde applied to a sketched copy of the input vector.

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
    vec,
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

    @classmethod
    def from_matrices(cls, mats):
        mats = [np.asarray(A, dtype=float) for A in mats]
        n = mats[0].shape[0]
        rows = np.stack([vec(A) for A in mats])
        return cls(matrix=rows, n=n)

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
    seeds on every non-lazy update and on exhaustion.  M is rebuilt from
    scratch only past the n^2 rank budget or when the condition guard trips.
    """

    def __init__(
        self,
        constraints,
        W,
        eps_mp=0.05,
        a_exp=0.5,
        family=None,
        s=8,
        b=64,
        seed=0,
    ):
        if not 0.0 < eps_mp < 0.1:
            raise ParameterError("eps_mp must lie in (0, 0.1)")
        if not 0.0 < a_exp < 1.0:
            raise ParameterError("a_exp must lie in (0, 1)")
        if family is None:
            family = SketchFamily.gaussian()
        self.constraints = constraints
        self.n = constraints.n
        self.m = constraints.m
        self.eps_mp = float(eps_mp)
        self.a_exp = float(a_exp)
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
            "woodbury_ranks": [],
            "full_recomputes": 0,
            "query_fallbacks": 0,
        }
        self._cum_rank = 0
        self._build()

    # -- internal construction helpers ------------------------------------

    def _build(self):
        """G = A (U (x) U) from the constraints, M at lam and a fresh pool."""
        # row i of G is vec(U^T A_i U) = (U^T (x) U^T) vec(A_i)
        UT = self.basis.T
        self.G = np.ascontiguousarray(kron_apply_block(UT, UT, self.constraints.matrix.T).T)
        self.M = self._compute_core(self.lam)
        self._install_pool()

    def _compute_core(self, lam):
        """From-scratch M = G^T (G (L (x) L) G^T)^{-1} G at the given lam."""
        kk = kron_diag(lam, lam)
        gram = (self.G * kk[None, :]) @ self.G.T
        X = kronlinalg.solve_spd(gram, self.G)
        M = self.G.T @ X
        return 0.5 * (M + M.T)

    def _pool_seed(self):
        ss = np.random.SeedSequence(
            entropy=self._root_seed & (2**64 - 1), spawn_key=(self._regen_count,)
        )
        return int(ss.generate_state(1, dtype=np.uint64)[0])

    def _install_pool(self):
        """Draw a fresh pool and rebuild Q from the current M and lam."""
        self.pool = SketchBatch.generate(
            self.family, self.s, self.b, self.n * self.n, self._pool_seed()
        )
        self._regen_count += 1
        self._RT = self.pool.transpose_dense()
        khalf = kron_diag(np.sqrt(self.lam), np.sqrt(self.lam))
        W1 = kron_apply_block(self.basis.T, self.basis.T, self._RT)
        self.Q = self.M @ (khalf[:, None] * W1)
        self.cursor = 0

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
            # lazy branch: keep M, Q and the maintained lam untouched
            self.counters["woodbury_ranks"].append(0)
        else:
            lam_hat, _ = soft_threshold(self.lam, lam_ext, r0)
            applied = self._apply_eig_change(lam_hat)
            self.counters["woodbury_ranks"].append(applied)
            self._install_pool()
        self.counters["updates"] += 1  # only once the step has taken

        close = np.abs(np.log(lam_ext) - np.log(self.lam)) <= self.eps_mp / 2.0
        self.lam_tilde = np.where(close, self.lam, lam_ext)
        self._last_external = lam_ext
        return self.lam_tilde.copy()

    def _kron_change(self, lam_new):
        """Flat indices S and values of kron_diag(lam_new) - kron_diag(lam) on S.

        S is the support of the Kronecker-diagonal change.  For eigenvalues
        changed on a set C it has at most 2n|C| - |C|^2 entries.
        """
        delta = kron_diag(lam_new, lam_new) - kron_diag(self.lam, self.lam)
        S = np.flatnonzero(delta)
        return S, delta[S]

    def _apply_eig_change(self, lam_hat):
        """Move the maintained core to lam_hat; returns the applied rank."""
        S_tilde, dsub = self._kron_change(lam_hat)
        k = int(S_tilde.size)
        M = None
        if self._cum_rank + k <= self.n * self.n:
            # M <- M - M_{*,S} D (I + M_{S,S} D)^{-1} M_{*,S}^T with D = diag(dsub)
            Msub = self.M[:, S_tilde]
            try:
                M = self.M - kronlinalg.woodbury_correction(
                    Msub, dsub, Msub[S_tilde], Msub.T, CONDITION_BOUND
                )
            except IllConditionedError:
                pass  # rebuilt from scratch below
        if M is None:
            self.M = self._compute_core(lam_hat)
            self.counters["full_recomputes"] += 1
            self._cum_rank = 0
        else:
            self.M = 0.5 * (M + M.T)
            self._cum_rank += k
        self.lam = lam_hat
        return k

    def query(self, h):
        """Sketched projection query; returns p_l for the next pool sketch.

        The output equals the exact projection at lam_tilde applied to
        R_l^T R_l h, where R_l is the sketch at the cursor.  Consumes one
        sketch; the pool is regenerated (and Q rebuilt) on exhaustion.
        """
        h = self._query_vector(h, "query")
        l = self.cursor
        RT_block = self._RT[:, l * self.b : (l + 1) * self.b]
        rh = RT_block.T @ h
        v = RT_block @ rh  # R_l^T R_l h
        p_l = self._project_sketched(v, l, rh)
        self.cursor += 1
        self.counters["queries"] += 1
        if self.cursor >= self.s:
            self._install_pool()
        return p_l

    def _project_sketched(self, v, l, rh):
        khalf_t = kron_diag(np.sqrt(self.lam_tilde), np.sqrt(self.lam_tilde))
        if np.array_equal(self.lam_tilde, self.lam):
            # no lazy drift pending: the pool's Q block is M (L (x) L)^{1/2} w
            t1 = self.Q[:, l * self.b : (l + 1) * self.b] @ rh
        else:
            w = kron_apply(self.basis.T, self.basis.T, v)
            t1 = self.M @ (khalf_t * w)
            # correct M at lam to the core at lam_tilde, applied to t1
            S_tilde, dsub = self._kron_change(self.lam_tilde)
            Msub = self.M[:, S_tilde]
            try:
                t1 = t1 - kronlinalg.woodbury_correction(
                    Msub, dsub, Msub[S_tilde], t1[S_tilde], CONDITION_BOUND
                )
            except IllConditionedError:
                # recoverable: answer from scratch at lam_tilde instead
                self.counters["query_fallbacks"] += 1
                return self._project_exact(v)
        return kron_apply(self.basis, self.basis, khalf_t * t1)

    def _project_exact(self, x):
        """Exact projection at lam_tilde applied to x, from scratch."""
        kk = kron_diag(self.lam_tilde, self.lam_tilde)
        khalf_t = np.sqrt(kk)
        z = khalf_t * kron_apply(self.basis.T, self.basis.T, x)
        gram = (self.G * kk[None, :]) @ self.G.T
        sol = kronlinalg.solve_spd(gram, self.G @ z)
        return kron_apply(self.basis, self.basis, khalf_t * (self.G.T @ sol))

    def query_exactish(self, h):
        """Unsketched reference path: the projection at lam_tilde times h."""
        return self._project_exact(self._query_vector(h, "query_exactish"))

    def _query_vector(self, h, what):
        h = np.asarray(h, dtype=float)
        if h.shape != (self.n * self.n,):
            raise DimensionError(f"{what}: expected vector of length {self.n * self.n}")
        if not np.all(np.isfinite(h)):
            raise ParameterError(f"{what}: entries must be finite")
        return h

    # -- introspection ------------------------------------------------------

    def check_invariants(self, atol_scale=1.0):
        """Check the structural invariants; intended for tests and debugging.

        Raises :class:`InvariantError` naming the first one that fails; the
        checks also run under ``python -O``.
        """

        def require(ok, what):
            if not ok:
                raise InvariantError(f"check_invariants: {what}")

        n = self.n
        require(np.all(self.lam >= self.eig_floor), "lam below eig_floor")
        require(self.cursor < self.s, "pool cursor past the last sketch")
        tol = np.linalg.norm(self.M, "fro") * atol_scale
        require(np.linalg.norm(self.M - self.M.T, "fro") <= 1e-8 * tol, "M not symmetric")
        if n <= 8:
            kk = kron_diag(self.lam, self.lam)
            resid = self.M @ (kk[:, None] * self.M) - self.M
            require(np.linalg.norm(resid, "fro") <= 1e-7 * tol, "M (L (x) L) M != M")
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
            "cum_rank": self._cum_rank,
            "counters": self.counters_dict(),
        }

    @classmethod
    def from_snapshot(cls, snap):
        """Resume from :meth:`snapshot`; corrupt state raises a KronprojError."""
        if snap.get("version") != SNAPSHOT_VERSION:
            raise ParameterError(f"unsupported snapshot version {snap.get('version')}")
        obj = cls.__new__(cls)
        obj.constraints = ConstraintBatch(
            matrix=np.asarray(snap["constraints"], dtype=float), n=snap["n"]
        )
        obj.n = snap["n"]
        obj.m = snap["m"]
        obj.eps_mp = snap["eps_mp"]
        obj.a_exp = snap["a_exp"]
        obj.family = SketchFamily(snap["family"]["tag"], snap["family"]["sparsity"])
        obj.s = snap["s"]
        obj.b = snap["b"]
        obj._root_seed = snap["root_seed"]
        obj._regen_count = snap["regen_count"]
        ew = EigenWeight(snap["basis"], snap["lam"])  # orthonormal, nonnegative
        obj.basis, obj.lam, obj.eig_floor = ew.basis, ew.eigvals, float(snap["eig_floor"])
        if not (0.0 < obj.eig_floor < np.inf and np.all(obj.lam >= obj.eig_floor)):
            raise ParameterError("snapshot: lam must be at least eig_floor > 0")
        obj.lam_tilde = np.asarray(snap["lam_tilde"], dtype=float)
        obj._last_external = np.asarray(snap["last_external"], dtype=float)
        for name, x in (("lam_tilde", obj.lam_tilde), ("last_external", obj._last_external)):
            if x.shape != (obj.n,) or not np.all(np.isfinite(x) & (x > 0)):
                raise ParameterError(f"snapshot: {name} must be {obj.n} finite positive values")
        if not 0 <= snap["cursor"] < obj.s:
            raise ParameterError(f"snapshot: cursor {snap['cursor']} outside the pool of {obj.s}")
        obj.counters = dict(snap["counters"])
        obj.counters["woodbury_ranks"] = list(obj.counters["woodbury_ranks"])
        obj._cum_rank = snap["cum_rank"]
        obj._build()
        obj.cursor = snap["cursor"]
        return obj
