"""Linearized-network prediction and the batched block look-ahead.

A trained network plus the Gram matrix of its labeled set defines a
kernel-regression predictor (its converged linearization):

    predict(q) = f(q) + k(q, X) K^{-1} (Y - f(X))

with K the (jittered) labeled Gram. Hypothetically labeling one more
point (c, y) augments K by one row and column. Rather than refactorizing
the augmented matrix for every candidate, the block structure gives the
augmented prediction as the current one plus a rank-one correction:

    predict+(r) = predict(r) + gain(r, c) * (predict(c) - y)
    gain(r, c)  = (W_r^T W_c - k(r, c)) / u_c,   W = L^{-1} k(X, .)

where L is the labeled Cholesky factor and u_c = k(c,c) + jitter - |W_c|^2
is the Schur complement of the augmented jittered Gram, which is exactly
the pivot ``augment_state`` adds. ``lookahead_batch`` evaluates this for a
whole candidate batch, the candidates also being the reference points r,
with one triangular solve and one symmetric rank-L product. The numerator
is minus the posterior covariance Sigma(r, c) = k(r, c) - W_r^T W_c, formed
in place in the (n, n) kernel block by BLAS dsyrk, so that block is the
only (n, n) array of a scoring pass: the scorers in ``acquire`` reduce it
in row or column chunks. ``augment_state`` uses the same block quantities
to extend the Cholesky factor, so feeding true labels sequentially into
the state costs one solve per point and is order independent.

Once a candidate x* is really labeled, ``condition`` updates the batch
in O(n^2) instead of a fresh ``lookahead_batch`` on the augmented state.
With the unjittered cross term S(r, c) = k(r, c) - W_r^T W_c (so
gain(r, c) = -S(r, c) / u_c) and s = S(., x*), the augmented system is a
rank-one covariance downdate:

    S'(r, c)       = S(r, c) - s_r s_c / u*
    schur'_c       = schur_c - s_c^2 / u*          (u'_c = schur'_c + jitter)
    predict'(c)    = predict(c) + gain(c, x*) * (predict(x*) - y)

This is exact, not an approximation: ``augment_state`` appends the factor
row [W*^T, sqrt(u*)], which gives every candidate the one new W entry
S(x*, c) / sqrt(u*), and S is symmetric, so s is both S(., x*) and
S(x*, .). A fresh rescoring differs only by rounding. Schur complements
only shrink, so a degenerate candidate stays degenerate.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import blas, solve_triangular

from . import kernel as kernel_mod
from . import linalg, net
from .errors import ContractError, DegenerateCandidateError

__all__ = [
    "LookaheadBatch",
    "predict_lin",
    "lookahead_batch",
    "condition",
    "augment_state",
]

# A candidate whose (unjittered) Schur complement falls below this
# fraction of its self-kernel is numerically inside the labeled span:
# adding it cannot change a fixed-kernel regression.
DEGENERATE_U_SCALE = 1e-10


def predict_lin(state, q):
    """Converged linearized prediction at query rows q, shape (len(q), C)."""
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    outputs = np.atleast_2d(net.forward(state.params, q))
    return outputs + state.kernel_rows(q) @ state.solved_residual


def _forward_solve(state, k_rows):
    """W = L^{-1} k(X, rows) for kernel rows k(rows, X), shape (L, len(rows))."""
    return solve_triangular(state.factor.lower, k_rows.T, lower=True, check_finite=False)


def _degenerate(schur, self_k):
    """Flags of candidates inside the labeled span: schur <= scale * max(k(c,c), 0)."""
    return schur <= DEGENERATE_U_SCALE * np.maximum(self_k, 0.0)


def _schur_rows(state, rows):
    """Block quantities of candidate rows against the labeled set.

    Returns k(c, X) (n, L), k(c, c) (n,), W_c (L, n), the unjittered Schur
    complement k(c,c) - |W_c|^2 (n,) and the degeneracy flags (n,). The
    pivot of the augmented jittered Gram is the Schur complement plus the
    state's jitter.
    """
    k_cl = state.kernel_rows(rows)
    self_k = state.kernel_diag(rows)
    w = _forward_solve(state, k_cl)
    schur = self_k - np.einsum("ln,ln->n", w, w)
    return k_cl, self_k, w, schur, _degenerate(schur, self_k)


def _covariance(block, w):
    """Posterior covariance block - W^T W, formed in the (n, n) kernel block.

    BLAS updates the block through its transpose, a Fortran-ordered view,
    so the returned array is the block itself. The symmetric rank-L update
    dsyrk fills one triangle only, including the diagonal blocks' own
    triangles; the other triangle is mirrored in row chunks, so the result
    is exactly symmetric.
    """
    # op(a) = w^T from a Fortran-ordered view of w, so BLAS copies no W.
    a, trans = (w, 1) if w.flags.f_contiguous else (w.T, 0)
    # The upper triangle of the Fortran view is the lower one of the block.
    sigma = blas.dsyrk(-1.0, a, beta=1.0, c=block.T, trans=trans, overwrite_c=1).T
    n = len(sigma)
    for start in range(0, n, linalg.CHUNK_ROWS):
        stop = start + linalg.CHUNK_ROWS
        rows = slice(start, stop)
        sigma[rows, stop:] = sigma[stop:, rows].T
        diag = sigma[rows, rows]
        diag[...] = np.tril(diag) + np.tril(diag, -1).T
    return sigma


@dataclass(frozen=True)
class LookaheadBatch:
    """Block look-ahead of a candidate batch against itself.

    Labeling candidate i with y changes the linearized predictions at the
    candidates by ``outer(gains[:, i], shift_base[i] - y)``. Degenerate
    candidates have all-zero gain columns.
    """

    outputs: np.ndarray  # (n, C) raw network outputs at the candidates
    degenerate: np.ndarray  # (n,) bool
    gains: np.ndarray  # (n, n) gains (W_r^T W_c - k(r,c)) / u_c, row r, column c
    shift_base: np.ndarray  # (n, C) current linearized predictions at the candidates
    schur: np.ndarray  # (n,) unjittered Schur complements k(c,c) - |W_c|^2
    self_k: np.ndarray  # (n,) self-kernel values k(c, c)
    jitter: float  # the state's jitter; u = schur + jitter


def lookahead_batch(state, candidates):
    """Closed-form look-ahead for every candidate row; see LookaheadBatch.

    Empty or non-finite candidate sets raise ContractError.
    """
    cands = linalg.as_matrix(candidates)
    if len(cands) == 0:
        raise ContractError("candidate set is empty")
    # The kernel block becomes the gains, -(k(r,c) - W_r^T W_c) / u, in
    # place: the only (n, n) array of the pass. It is evaluated first, so
    # its factor passes and row chunks never coexist with the kernel rows.
    gains = state.kernel_block(cands, cands)
    k_cl, self_k, w, schur, degenerate = _schur_rows(state, cands)
    jitter = state.factor.jitter_applied
    u = schur + jitter
    outputs = np.atleast_2d(net.forward(state.params, cands))
    shift_base = outputs + k_cl @ state.solved_residual
    del k_cl
    gains = _covariance(gains, w)
    gains /= -np.where(degenerate, 1.0, u)
    gains[:, degenerate] = 0.0
    return LookaheadBatch(
        outputs=outputs,
        degenerate=degenerate,
        gains=gains,
        shift_base=shift_base,
        schur=schur,
        self_k=self_k,
        jitter=jitter,
    )


def condition(batch, i, y):
    """The batch over the other candidates once candidate i is labeled y.

    Equals, up to rounding, ``lookahead_batch`` on the state returned by
    ``augment_state(state, candidates[i], y)`` over the remaining candidates
    (see the module docstring), at O(n^2) cost and without evaluating the
    kernel. A degenerate pick leaves the state unchanged, so only its row
    and column are dropped. Needs at least two candidates; raises
    ContractError otherwise.
    """
    n = len(batch.outputs)
    if not 0 <= i < n:
        raise ContractError(f"candidate index {i} out of range for {n} candidates")
    if n < 2:
        raise ContractError("conditioning the last candidate leaves an empty batch")
    keep = np.arange(n) != i
    gains = batch.gains[np.ix_(keep, keep)]  # the only (n, n) allocation
    schur, shift_base = batch.schur[keep], batch.shift_base[keep]
    degenerate = batch.degenerate[keep]
    if not batch.degenerate[i]:
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        u = batch.schur + batch.jitter
        column = batch.gains[keep, i]
        s = -column * u[i]  # S(., x*), also S(x*, .) by symmetry
        schur = schur - s * s / u[i]
        degenerate = degenerate | _degenerate(schur, batch.self_k[keep])
        u_new = np.where(degenerate, 1.0, schur + batch.jitter)
        # Column c of gains is -S(., c) / u_c, so the conditioned gains
        # -S'(., c) / u'_c are gains * u_c / u'_c + s * s_c / (u* u'_c):
        # scale the columns, then add the rank-one term in place.
        gains *= u[keep] / u_new
        gains = blas.dger(1.0 / u[i], s / u_new, s, a=gains.T, overwrite_a=True).T
        gains[:, degenerate] = 0.0
        shift_base = shift_base + np.outer(column, batch.shift_base[i] - y)
    return replace(
        batch,
        outputs=batch.outputs[keep],
        degenerate=degenerate,
        gains=gains,
        shift_base=shift_base,
        schur=schur,
        self_k=batch.self_k[keep],
    )


def augment_state(state, x, y, f_val=None):
    """New KernelState over the labeled set plus (x, y).

    Extends the existing Cholesky factor with one triangular solve and a
    scalar square root instead of refactorizing; predictions from the
    returned state match a cold rebuild on the enlarged set and the
    look-ahead of ``lookahead_batch``. Raises DegenerateCandidateError for
    the candidates ``lookahead_batch`` flags degenerate. ``f_val`` lets
    callers pass a previously computed network output at x (the network
    itself does not change here, so caching is exact).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    k_cl, self_k, w, schur, degenerate = _schur_rows(state, x[None, :])
    if degenerate[0]:
        raise DegenerateCandidateError(
            "cannot augment with a point inside the labeled span"
        )
    col = k_cl[0]
    n = state.labeled_count
    lower = np.zeros((n + 1, n + 1))
    lower[:n, :n] = state.factor.lower
    lower[n, :n] = w[:, 0]
    lower[n, n] = np.sqrt(schur[0] + state.factor.jitter_applied)
    factor = linalg.CholeskyFactor(
        lower=lower, jitter_applied=state.factor.jitter_applied
    )

    gram = np.zeros((n + 1, n + 1))
    gram[:n, :n] = state.gram
    gram[n, :n] = col
    gram[:n, n] = col
    gram[n, n] = self_k[0]

    if f_val is None:
        f_val = net.forward(state.params, x)
    f_val = np.asarray(f_val, dtype=np.float64).reshape(-1)

    inputs = np.vstack([state.inputs, x[None, :]])
    targets = np.vstack([state.targets, y[None, :]])
    # Extended like the Gram and the factor, not recomputed from targets.
    residual = np.vstack([state.residual, (y - f_val)[None, :]])
    solved = linalg.chol_solve(factor, residual)

    cache = state.factor_cache
    if state.kernel_fn is None:
        new_factors = net.grad_factors(state.params, x[None, :])
        cache = tuple(
            (np.vstack([a, na]), np.vstack([d, nd]))
            for (a, d), (na, nd) in zip(cache, new_factors)
        )

    return kernel_mod.KernelState(
        params=state.params,
        inputs=inputs,
        targets=targets,
        residual=residual,
        gram=gram,
        factor=factor,
        solved_residual=solved,
        kernel_fn=state.kernel_fn,
        factor_cache=cache,
    )
