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


def _guard(rcond, cond_bound, what):
    """The condition guard shared by every solve in the package.

    ``rcond`` is LAPACK's reciprocal condition estimate (1-norm) read from
    the factorization the solve already made; a NaN, zero or too small
    estimate raises :class:`IllConditionedError`.
    """
    if not rcond * cond_bound >= 1.0:
        raise IllConditionedError(
            f"{what}: reciprocal condition estimate {rcond:.2e} is below "
            f"1/{cond_bound:.0e}"
        )


def solve_spd(A, B, cond_bound=CONDITION_BOUND):
    """Solve A X = B for symmetric positive definite A via Cholesky.

    Raises :class:`NotPSDError` if the factorization fails and
    :class:`IllConditionedError` if the ``pocon`` condition estimate exceeds
    ``cond_bound``; both are signals to recompute upstream state.
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
    _guard(rcond, cond_bound, "solve_spd")
    return scipy.linalg.cho_solve((c, low), B, check_finite=False)


def _lu_guarded(A, cond_bound, what, anorm=None):
    """LU factors (getrf) of a square A that passed the ``gecon`` guard.

    ``anorm`` defaults to the 1-norm of A; a larger value measures
    ||A^{-1}|| against the size of the terms A was summed from.
    """
    lu, piv, info = scipy.linalg.lapack.dgetrf(A)
    anorm = np.linalg.norm(A, 1) if anorm is None else anorm
    # info > 0: an exactly zero pivot, so A is singular
    rcond = scipy.linalg.lapack.dgecon(lu, anorm)[0] if info == 0 else 0.0
    _guard(rcond, cond_bound, what)
    return lu, piv


def woodbury_correction(AiU, C, VAiU, R, cond_bound=CONDITION_BOUND):
    """The Woodbury correction term A^{-1}U C (I + V A^{-1}U C)^{-1} R.

    With R = V A^{-1} this is what (A + U C V)^{-1} subtracts from A^{-1};
    with R = V A^{-1} x it is the correction applied to A^{-1} x.  ``C`` is
    k x k, or its diagonal as a length-k vector.  C is never inverted, so
    tiny or zero entries are fine; the inner matrix I + V A^{-1}U C goes
    through the condition guard and raises :class:`IllConditionedError`.
    """
    C = np.asarray(C, dtype=float)
    VAiUC = VAiU * C[None, :] if C.ndim == 1 else VAiU @ C
    # guard against 1 + ||V A^{-1}U C||, not ||I + V A^{-1}U C||: when the sum
    # cancels, roundoff in it dominates and only this scale shows it
    lu, piv = _lu_guarded(
        np.eye(VAiUC.shape[0]) + VAiUC, cond_bound, "woodbury inner matrix",
        1.0 + np.linalg.norm(VAiUC, 1),
    )
    Y = scipy.linalg.lapack.dgetrs(lu, piv, np.asarray(R, dtype=float))[0]
    CY = (C * Y.T).T if C.ndim == 1 else C @ Y
    return AiU @ CY


def woodbury_update(A_inv, Umat, C, V, cond_bound=CONDITION_BOUND):
    """Low-rank inverse update (A + U C V)^{-1} from A^{-1}.

    Evaluates A^{-1} - :func:`woodbury_correction`.  Both C and the inner
    matrix must be invertible within the condition guard; violations raise
    :class:`IllConditionedError` so callers can fall back to a full
    recompute.
    """
    A_inv = np.asarray(A_inv, dtype=float)
    Umat = np.atleast_2d(np.asarray(Umat, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n = A_inv.shape[0]
    k = C.shape[0]
    if Umat.shape != (n, k) or C.shape != (k, k) or V.shape != (k, n):
        raise DimensionError(
            f"woodbury_update: A_inv {A_inv.shape}, U {Umat.shape}, "
            f"C {C.shape}, V {V.shape} do not conform"
        )
    _lu_guarded(C, cond_bound, "woodbury_update: C")
    AiU = A_inv @ Umat
    return A_inv - woodbury_correction(AiU, C, V @ AiU, V @ A_inv, cond_bound)
