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
whole candidate batch against a reference set with one triangular solve
and one matrix product; ``augment_state`` uses the same block quantities
to extend the Cholesky factor, so feeding true labels sequentially into
the state costs one solve per point and is order independent.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import kernel as kernel_mod
from . import linalg, net
from .errors import ContractError, DegenerateCandidateError

__all__ = [
    "LookaheadBatch",
    "predict_lin",
    "lookahead_batch",
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


def _schur_rows(state, rows):
    """Block quantities of candidate rows against the labeled set.

    Returns k(c, X) (n, L), k(c, c) (n,), W_c (L, n), the jittered Schur
    complement u (n,), and the degeneracy flags (n,): a candidate is
    degenerate when k(c,c) - |W_c|^2 <= DEGENERATE_U_SCALE * max(k(c,c), 0).
    """
    k_cl = state.kernel_rows(rows)
    self_k = state.kernel_diag(rows)
    w = _forward_solve(state, k_cl)
    schur = self_k - np.einsum("ln,ln->n", w, w)
    degenerate = schur <= DEGENERATE_U_SCALE * np.maximum(self_k, 0.0)
    return k_cl, self_k, w, schur + state.factor.jitter_applied, degenerate


@dataclass(frozen=True)
class LookaheadBatch:
    """Block look-ahead of a candidate batch against a reference set.

    Labeling candidate i with y changes the linearized predictions on the
    reference set by ``outer(gains[:, i], shift_base[i] - y)``. Degenerate
    candidates have all-zero gain columns.
    """

    outputs: np.ndarray  # (n, C) raw network outputs at the candidates
    degenerate: np.ndarray  # (n,) bool
    gains: np.ndarray  # (m, n) per-reference gains (W_r^T W_c - k(r,c)) / u_c
    shift_base: np.ndarray  # (n, C) current linearized predictions at the candidates
    ref_lin: np.ndarray  # (m, C) current linearized predictions on the reference
    ref_raw: np.ndarray  # (m, C) raw network outputs on the reference


def lookahead_batch(state, candidates, reference=None):
    """Closed-form look-ahead for every candidate row; see LookaheadBatch.

    ``reference`` defaults to the candidates themselves. Empty or
    non-finite candidate and reference sets raise ContractError.
    """
    cands = linalg.as_matrix(candidates)
    if len(cands) == 0:
        raise ContractError("candidate set is empty")
    same_set = reference is None
    ref = cands if same_set else linalg.as_matrix(reference)
    if len(ref) == 0:
        raise ContractError("reference set is empty")

    k_cl, _, w_c, u, degenerate = _schur_rows(state, cands)
    if same_set:
        k_rl, w_r = k_cl, w_c
    else:
        k_rl = state.kernel_rows(ref)
        w_r = _forward_solve(state, k_rl)
    # gains = -(k(r,c) - W_r^T W_c) / u, built in place in the kernel block:
    # the block is the largest temporary, so it is computed before any
    # other (m, n) array exists.
    gains = state.kernel_block(ref, cands)
    gains -= w_r.T @ w_c
    gains /= -np.where(degenerate, 1.0, u)
    gains[:, degenerate] = 0.0

    outputs = np.atleast_2d(net.forward(state.params, cands))
    shift_base = outputs + k_cl @ state.solved_residual
    if same_set:
        ref_raw, ref_lin = outputs, shift_base
    else:
        ref_raw = np.atleast_2d(net.forward(state.params, ref))
        ref_lin = ref_raw + k_rl @ state.solved_residual
    return LookaheadBatch(
        outputs=outputs,
        degenerate=degenerate,
        gains=gains,
        shift_base=shift_base,
        ref_lin=ref_lin,
        ref_raw=ref_raw,
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
    k_cl, self_k, w, u, degenerate = _schur_rows(state, x[None, :])
    if degenerate[0]:
        raise DegenerateCandidateError(
            "cannot augment with a point inside the labeled span"
        )
    col = k_cl[0]
    n = state.labeled_count
    lower = np.zeros((n + 1, n + 1))
    lower[:n, :n] = state.factor.lower
    lower[n, :n] = w[:, 0]
    lower[n, n] = np.sqrt(u[0])
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
    outputs = np.vstack([state.net_outputs, f_val[None, :]])
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
        net_outputs=outputs,
        residual=residual,
        gram=gram,
        factor=factor,
        solved_residual=solved,
        kernel_fn=state.kernel_fn,
        factor_cache=cache,
        jitter_policy=state.jitter_policy,
    )
