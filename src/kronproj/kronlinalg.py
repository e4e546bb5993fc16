"""Dense linear-algebra kernels for Kronecker-structured operations.

Everything in this package shares one vectorization convention, fixed here:
``vec`` stacks columns (Fortran order), and the Kronecker product follows
numpy's ``np.kron``.  Under that pairing the central identity is

    (A (x) B) vec(X) = vec(B X A^T),

which lets a Kronecker matrix-vector product run in O(n^3) without ever
materializing the n^2 x n^2 operator.  Diagonal Kronecker factors are kept
as length-n^2 vectors with entry ``a[i] * b[j]`` at flat index ``i*n + j``.

All functions are pure; there is no shared mutable state.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionError,
    IllConditionedError,
    NotPSDError,
    NotSymmetricError,
)

# Guard applied to every solve; exceeding it is recoverable (callers fall
# back to a full recompute rather than trusting the result).  At kappa = 1e8
# roundoff stays near 1e-8 relative, inside the 1e-7 the oracle checks ask.
CONDITION_BOUND = 1e8

SYMMETRY_TOL = 1e-10
EIG_CLAMP_TOL = 1e-10


def vec(X):
    """Column-stacking vectorization of a matrix."""
    return np.asarray(X, dtype=float).ravel(order="F")


def kron_apply(A, B, x):
    """Compute (A (x) B) x without materializing the Kronecker product.

    ``x`` is read as vec(X) in the package's column-stacking convention and
    the result is vec(B X A^T), an O(n^3) computation.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[1]
    m = B.shape[1]
    x = np.asarray(x, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or x.size != n * m:
        raise DimensionError(
            f"kron_apply: A {A.shape}, B {B.shape} need x of length "
            f"{n * m}, got {x.size}"
        )
    X = x.reshape((m, n), order="F")
    return (B @ X @ A.T).ravel(order="F")


def kron_apply_block(A, B, X):
    """Apply (A (x) B) to every column of X, as :func:`kron_apply` does to one."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    X = np.asarray(X, dtype=float)
    na, nb = A.shape[1], B.shape[1]
    if X.shape[0] != na * nb:
        raise DimensionError(f"kron_apply_block: X has {X.shape[0]} rows, need {na * nb}")
    k = X.shape[1]
    T = np.tensordot(B, X.reshape(nb, na, k, order="F"), axes=([1], [0]))
    Y = np.tensordot(A, T, axes=([1], [1]))
    return Y.transpose(1, 0, 2).reshape(B.shape[0] * A.shape[0], k, order="F")


def kron_diag(a, b):
    """Diagonal of diag(a) (x) diag(b) as a flat vector.

    Entry at flat index ``i*len(b) + j`` equals ``a[i] * b[j]``, matching
    the ordering of :func:`kron_apply`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.outer(a, b).ravel()


@dataclass
class EigenWeight:
    """Weight matrix W = U diag(eigvals) U^T held in factored form.

    ``basis`` is orthonormal within 1e-10 and every eigenvalue is
    nonnegative; this is the concrete form of the shared-eigenbasis
    assumption used throughout the maintenance code.
    """

    basis: np.ndarray
    eigvals: np.ndarray

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        self.eigvals = np.asarray(self.eigvals, dtype=float)
        n = self.basis.shape[0]
        if self.basis.shape != (n, n) or self.eigvals.shape != (n,):
            raise DimensionError("EigenWeight: basis must be n x n, eigvals length n")
        gram_err = np.max(np.abs(self.basis.T @ self.basis - np.eye(n)))
        if gram_err > 1e-10:
            raise NotSymmetricError(
                f"EigenWeight basis not orthonormal (|U^T U - I| = {gram_err:.2e})"
            )
        if np.min(self.eigvals) < 0:
            raise NotPSDError("EigenWeight eigenvalues must be nonnegative")

    def matrix(self):
        """Materialize W = U diag(eigvals) U^T."""
        return (self.basis * self.eigvals) @ self.basis.T


def sym_eigen(W):
    """Spectral decomposition of a symmetric PSD matrix.

    Returns an :class:`EigenWeight` with eigenvalues sorted nonincreasing;
    tied eigenvalues keep the column order ``numpy.linalg.eigh`` returns, so
    ``W = c * I`` gives the identity basis.
    Eigenvalues in [-1e-10, 0) are clamped to zero (floating-point noise on
    PSD inputs is expected); anything below that raises.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DimensionError("sym_eigen expects a square matrix")
    scale = max(1.0, float(np.max(np.abs(W))) if W.size else 1.0)
    asym = float(np.max(np.abs(W - W.T))) if W.size else 0.0
    if asym > SYMMETRY_TOL * scale:
        raise NotSymmetricError(f"matrix not symmetric (max asymmetry {asym:.2e})")
    lam, U = np.linalg.eigh(0.5 * (W + W.T))
    clamp = EIG_CLAMP_TOL * scale
    if lam[0] < -clamp:
        raise NotPSDError(f"eigenvalue {lam[0]:.3e} below PSD tolerance")
    lam = np.clip(lam, 0.0, None)
    order = np.argsort(-lam, kind="stable")
    return EigenWeight(basis=U[:, order], eigvals=lam[order])


def _guard(rcond, what):
    """The condition guard shared by every solve in the package.

    ``rcond`` is LAPACK's reciprocal condition estimate (1-norm) read from
    the factorization the solve already made; a NaN, zero or estimate below
    1 / :data:`CONDITION_BOUND` raises :class:`IllConditionedError`.
    """
    if not rcond * CONDITION_BOUND >= 1.0:
        raise IllConditionedError(
            f"{what}: reciprocal condition estimate {rcond:.2e} is below "
            f"1/{CONDITION_BOUND:.0e}"
        )


def solve_spd(A, B):
    """Solve A X = B for symmetric positive definite A via Cholesky.

    Raises :class:`NotPSDError` if the factorization fails and
    :class:`IllConditionedError` if the ``pocon`` condition estimate exceeds
    :data:`CONDITION_BOUND`; both are signals to recompute upstream state.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or B.shape[0] != A.shape[0]:
        raise DimensionError(f"solve_spd: A {A.shape} incompatible with B {B.shape}")
    scale = max(1.0, float(np.max(np.abs(A))))
    if float(np.max(np.abs(A - A.T))) > SYMMETRY_TOL * scale:
        raise NotSymmetricError("solve_spd: matrix not symmetric")
    try:
        c, low = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPSDError(f"solve_spd: Cholesky failed ({exc})") from exc
    rcond, _ = scipy.linalg.lapack.dpocon(c, np.linalg.norm(A, 1), uplo="L")
    _guard(rcond, "solve_spd")
    return scipy.linalg.cho_solve((c, low), B, check_finite=False)


def woodbury_correction(AiU, c, VAiU, R):
    """The Woodbury correction term A^{-1}U C (I + V A^{-1}U C)^{-1} R, C = diag(c).

    With R = V A^{-1} this is what (A + U C V)^{-1} subtracts from A^{-1};
    with R = V A^{-1} x it is the correction applied to A^{-1} x.  C is never
    inverted, so tiny or zero entries of ``c`` are fine; the inner matrix
    I + V A^{-1}U C goes through the condition guard and raises
    :class:`IllConditionedError`.
    """
    c = np.asarray(c, dtype=float)
    VAiUC = VAiU * c[None, :]
    lu, piv, info = scipy.linalg.lapack.dgetrf(np.eye(c.shape[0]) + VAiUC)
    # guard against 1 + ||V A^{-1}U C||, not ||I + V A^{-1}U C||: when the sum
    # cancels, roundoff in it dominates and only this scale shows it;
    # info > 0 is an exactly zero pivot, so the inner matrix is singular
    anorm = 1.0 + np.linalg.norm(VAiUC, 1)
    _guard(scipy.linalg.lapack.dgecon(lu, anorm)[0] if info == 0 else 0.0,
           "woodbury inner matrix")
    Y = scipy.linalg.lapack.dgetrs(lu, piv, np.asarray(R, dtype=float))[0]
    return AiU @ (c * Y.T).T


def woodbury_update(A_inv, Umat, C, V):
    """Low-rank inverse update (A + U C V)^{-1} from A^{-1}.

    Evaluates A^{-1} - :func:`woodbury_correction` with U C in place of U and
    a unit diagonal, so C need not be invertible; a singular inner matrix
    raises :class:`IllConditionedError` so callers can fall back to a full
    recompute.
    """
    A_inv = np.asarray(A_inv, dtype=float)
    Umat = np.atleast_2d(np.asarray(Umat, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n, k = A_inv.shape[0], C.shape[0]
    if Umat.shape != (n, k) or C.shape != (k, k) or V.shape != (k, n):
        raise DimensionError(
            f"woodbury_update: A_inv {A_inv.shape}, U {Umat.shape}, "
            f"C {C.shape}, V {V.shape} do not conform"
        )
    AiUC = A_inv @ (Umat @ C)
    return A_inv - woodbury_correction(AiUC, np.ones(k), V @ AiUC, V @ A_inv)
