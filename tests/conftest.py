"""Shared fixtures."""

import mpmath
import numpy as np
import pytest

from kronproj import harness


@pytest.fixture(scope="session")
def spread_weight_case():
    """Constraints, U, lam and a 50-digit projection at W = U diag(lam) U^T.

    lam spans e^10, so B = A (W^{1/2} (x) W^{1/2}) has condition near e^10
    while its Gram matrix B B^T passes the 1e8 condition guard.  The
    reference takes U and lam as exact and evaluates B^T (B B^T)^{-1} B.
    """
    rng = np.random.default_rng(0)
    n, m = 6, 30
    cons = harness.random_constraints(m, n, rng)
    U = harness.random_orthogonal(n, rng)
    lam = np.exp(np.linspace(0.0, 10.0, n))
    with mpmath.workdps(50):
        Uq = mpmath.matrix(U.tolist())
        Wh = Uq * mpmath.diag([mpmath.sqrt(mpmath.mpf(x)) for x in lam]) * Uq.T
        K = mpmath.matrix(n * n, n * n)  # np.kron(Wh, Wh)
        for i in range(n * n):
            for j in range(n * n):
                K[i, j] = Wh[i // n, j // n] * Wh[i % n, j % n]
        B = mpmath.matrix(cons.matrix.tolist()) * K
        P = B.T * mpmath.inverse(B * B.T) * B
        ref = np.array(P.tolist(), dtype=float)
    return cons, U, lam, ref
