"""Dense linear algebra helpers used by the kernel machinery.

Matrices are plain ``numpy`` 2-D ``float64`` arrays in row-major order.
The only nontrivial piece here is the jittered Cholesky factorization
(Gram matrices of gradient features are positive semidefinite in exact
arithmetic but can lose definiteness in finite precision).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack as _lapack
from scipy.linalg import solve_triangular

from .errors import ContractError, NotPositiveDefiniteError, ShapeError

__all__ = [
    "JITTER_LADDER",
    "CholeskyFactor",
    "as_matrix",
    "cholesky",
    "chol_solve",
]

# Relative tolerance used when checking that an input is symmetric.
SYMMETRY_RTOL = 1e-10

# Diagonal jitter levels, as fractions of the mean diagonal, that
# ``cholesky`` tries in order until the factorization succeeds.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor of ``A + jitter_applied * I``."""

    lower: np.ndarray
    jitter_applied: float

    @property
    def n(self):
        return self.lower.shape[0]


def as_matrix(a):
    """Coerce ``a`` to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ContractError("matrix contains non-finite entries")
    return m


def _check_square_symmetric(a, op):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{op} needs a square matrix, got {a.shape}")
    scale = max(np.max(np.abs(a)), 1.0)
    if np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * scale:
        raise ContractError(f"{op} needs a symmetric matrix")


def cholesky(a):
    """Lower Cholesky factor of ``a``, escalating jitter until it succeeds.

    The levels of ``JITTER_LADDER``, read at call time, are scaled by the
    mean diagonal of ``a``. If even the largest leaves a non-positive
    pivot, NotPositiveDefiniteError is raised carrying the pivot index.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape == (0, 0):
        return CholeskyFactor(lower=np.zeros((0, 0)), jitter_applied=0.0)
    _check_square_symmetric(a, "cholesky")
    n = a.shape[0]
    diag_scale = float(np.mean(np.diag(a)))
    last_info = 0
    for level in JITTER_LADDER:
        jitter = level * diag_scale
        work = np.array(a, order="F")
        if jitter != 0.0:
            work[np.diag_indices(n)] += jitter
        c, info = _lapack.dpotrf(work, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return CholeskyFactor(lower=np.ascontiguousarray(c), jitter_applied=jitter)
        if info < 0:
            raise ContractError(f"cholesky: illegal value in argument {-info}")
        last_info = info
    raise NotPositiveDefiniteError(
        f"matrix is not positive definite after JITTER_LADDER "
        f"{JITTER_LADDER} (scaled by mean diag {diag_scale:.3e}); "
        f"first non-positive pivot at index {last_info}",
        pivot=last_info,
    )


def chol_solve(factor, b):
    """Solve ``(A + jitter I) X = b`` given the factor of A.

    ``b`` may be a vector or a matrix of right-hand-side columns.
    """
    b = np.asarray(b, dtype=np.float64)
    squeeze = b.ndim == 1
    if squeeze:
        b = b.reshape(-1, 1)
    if b.shape[0] != factor.n:
        raise ShapeError(
            f"chol_solve dimension mismatch: factor is {factor.n}x{factor.n}, "
            f"rhs has {b.shape[0]} rows"
        )
    y = solve_triangular(factor.lower, b, lower=True, check_finite=False)
    x = solve_triangular(factor.lower, y, lower=True, trans="T", check_finite=False)
    return x[:, 0] if squeeze else x
