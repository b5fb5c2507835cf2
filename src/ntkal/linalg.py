"""Dense linear algebra helpers used by the kernel machinery.

Matrices are plain ``numpy`` 2-D ``float64`` arrays in row-major order.
The only nontrivial piece here is the jittered Cholesky factorization
(Gram matrices of gradient features are positive semidefinite in exact
arithmetic but can lose definiteness in finite precision). The module
also holds the one rounding model of the package's float32 passes,
``_kappa_u32``.
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

# float32's unit roundoff.
_U32 = 2.0**-24


def _kappa_u32(d):
    """kappa u32 with kappa = 1.5 sqrt(d), but at least 10: the modeled
    error of a float32 inner product of length d, as a multiple of the
    product of its operands' 2-norms, or of a single float32 rounding as a
    multiple of what it rounds.

    The worst-case analysis (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3) bounds an inner product's error by about
    d u32 |x|^T |y|. Modeled as independent and mean-zero, rounding errors
    grow as sqrt(d) u instead of d u: the sqrt(d) rule of Higham & Mary
    ("Mixed precision algorithms in numerical linear algebra", Acta
    Numerica 31, 2022). The rule is a model, not a proof; the factor 1.5
    leaves about a 10x margin over the errors measured on this package's
    float32 passes (``lookahead._sink_halfwidths`` and ``net.Evaluator``),
    and their tests hold it to 5x. A single rounding can reach u32 times
    what it rounds, so kappa never falls below that 10x margin.
    """
    return max(1.5 * np.sqrt(d), 10.0) * _U32


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
    _check_finite(m, "matrix")
    return m


def _check_finite(a, what):
    if not np.all(np.isfinite(a)):
        raise ContractError(f"{what} contains non-finite entries")


def _check_square_symmetric(a, op):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{op} needs a square matrix, got {a.shape}")
    _check_finite(a, f"{op} input")
    scale = max(np.max(np.abs(a)), 1.0)
    if np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * scale:
        raise ContractError(f"{op} needs a symmetric matrix")


def cholesky(a):
    """Lower Cholesky factor of ``a``, escalating jitter until it succeeds.

    The levels of ``JITTER_LADDER``, read at call time, are scaled by the
    mean diagonal of ``a``. If even the largest leaves a non-positive
    pivot, NotPositiveDefiniteError is raised carrying the pivot index.
    ShapeError unless ``a`` is square, ContractError if an entry is not
    finite or ``a`` is not symmetric.
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

    ``b`` may be a vector or a matrix of right-hand-side columns; a
    non-finite entry raises ContractError.
    """
    b = np.asarray(b, dtype=np.float64)
    _check_finite(b, "chol_solve right-hand side")
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
