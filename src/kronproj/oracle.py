"""Brute-force reference computations for the maintained quantities.

These routines materialize the full n^2 x n^2 operators and serve as the
ground truth in equivalence tests.  They are O(n^6)-class by design; use
them at desk scale only.
"""

import numpy as np
import scipy.linalg

from . import kronlinalg
from .errors import DimensionError, ParameterError

SYMMETRIC = "symmetric"
LEFT = "left"


def exact_projection(constraints, W, variant=SYMMETRIC):
    """Materialize the projection B^T (B B^T)^{-1} B as Q Q^T, with B^T = Q R.

    ``constraints`` is the m x n^2 matrix of vectorized constraint rows
    (or an object exposing ``.matrix``).  For the symmetric variant
    B = constraints (W^{1/2} (x) W^{1/2}); for the left variant
    B = constraints (W (x) I).  Both the QR factor R and, for the symmetric
    variant, W itself must pass the condition guard: ``eigh`` fixes W's
    small eigenvalues only to roundoff in ||W||, so W^{1/2} is no more
    accurate than W's condition allows.
    """
    A = np.asarray(getattr(constraints, "matrix", constraints), dtype=float)
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    if A.ndim != 2 or A.shape[1] != n * n:
        raise DimensionError(f"constraints {A.shape} incompatible with W {W.shape}")
    if variant == SYMMETRIC:
        ew = kronlinalg.sym_eigen(W)
        kronlinalg._guard(ew.eigvals[-1] / ew.eigvals[0], "exact_projection: W")
        Whalf = (ew.basis * np.sqrt(ew.eigvals)) @ ew.basis.T
        K = np.kron(Whalf, Whalf)
    elif variant == LEFT:
        K = np.kron(W, np.eye(n))
    else:
        raise ParameterError(f"unknown variant {variant!r}")
    Q, R = scipy.linalg.qr((A @ K).T, mode="economic")
    kronlinalg._guard(scipy.linalg.lapack.dtrcon(R)[0], "exact_projection: R")
    return Q @ Q.T


def exact_norm(G, h):
    """Exact squared norm ||G h||_2^2."""
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    if G.ndim != 2 or G.shape[1] != h.shape[0]:
        raise DimensionError(f"G {G.shape} incompatible with h {h.shape}")
    v = G @ h
    return float(v @ v)


def exact_set_query(G, h, Q):
    """Exact squared row inner products ((g_j^T h)^2 for j in Q)."""
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    idx = np.asarray(list(Q), dtype=int)
    if G.ndim != 2 or G.shape[1] != h.shape[0]:
        raise DimensionError(f"G {G.shape} incompatible with h {h.shape}")
    if idx.size == 0:
        return np.zeros(0)
    if idx.min() < 0 or idx.max() >= G.shape[0]:
        raise DimensionError("set-query index out of range")
    return (G[idx] @ h) ** 2
