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
from one gradient-factor pass over them and one triangular solve. The
numerator is minus the posterior covariance Sigma(r, c) = k(r, c) -
W_r^T W_c. ``kernel.FeatureBatch.gram_chunks``, the one loop that
contracts and symmetrizes a Gram block, yields Sigma in row chunks of its
upper triangle, and this module only consumes them: the reduce sink sums
|Sigma| per column, which is all that linearized mlmoc and emoc read, so
their pass holds no (n, n) array. Given a pick count k, the sink runs in
float32 at about sgemm's flop rate, each sum held by a stated error bound,
and only the columns that could cross the k-th boundary are summed again
in float64, as m rows of Sigma at O(m n (L + sum of widths));
``LookaheadBatch.dense`` takes Sigma
whole (``FeatureBatch.gram``) for ``condition``, eer_lin and the raw
baseline, which derive gain columns from it where they read them. Gains
are never stored. ``augment_state`` extends the Cholesky factor by a
block of k labeled rows (Seeger's low-rank Cholesky update), all read
from one ``lookahead_batch`` over them: their W and the factor of their
own block S = K - W^T W (its dense Sigma), taken in row order by the
rank-one downdates of ``condition``. In a sequential cycle that keeps
its state, the picks cost one factor pass, one solve and one copy of it.

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
only shrink, so a degenerate candidate stays degenerate. ``condition``
applies the downdate by one ``dger`` to the dense S; a pick's row and
column are zeroed and stay zero.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import blas, solve_triangular

from . import kernel, linalg, net
from .errors import ContractError, DegenerateCandidateError, ShapeError

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
    features = state.features(q)
    return features.outputs() + features.cross(state) @ state.solved_residual


def _degenerate(schur, self_k):
    """Flags of candidates inside the labeled span: schur <= scale * max(k(c,c), 0)."""
    return schur <= DEGENERATE_U_SCALE * np.maximum(self_k, 0.0)


def _label(y, *shape):
    """y as a float array of ``shape``: one label (C,), given in any shape with C
    entries, or a block (k, C); ShapeError otherwise, ContractError if not finite."""
    y = np.asarray(y, dtype=np.float64)
    y = y.reshape(-1) if len(shape) == 1 else y
    if y.shape != shape:
        raise ShapeError(f"labels have shape {y.shape}, expected {shape}")
    if not np.all(np.isfinite(y)):
        raise ContractError("label contains non-finite entries")
    return y


def _reduce_sink(features, w):
    """sum(|Sigma|, axis=0) in float64, from chunks in the dtype of the factors
    and W; a chunk's columns right of its diagonal block also stand for their
    mirror, whose column sums are their row sums."""
    sums = np.zeros(len(features.rows))
    for start, stop, chunk in features.gram_chunks(w):
        np.abs(chunk, out=chunk)
        sums[start:] += np.sum(chunk, axis=0, dtype=np.float64)
        sums[start:stop] += np.sum(chunk[:, stop - start :], axis=1, dtype=np.float64)
    return sums


def _sink_halfwidths(batch, w, widths):
    """Half-widths h bounding how far the float32 reduce sink's column sums
    of |Sigma| lie from the float64 ones.

    A float32 entry of Sigma is contracted from the factors and W rounded to
    float32, by inner products of length at most d = max(L, widths) and a
    few operations per layer; its error e(r, c) is modeled as
    ``linalg._kappa_u32(d)`` times (|k|(r, c) + |W_r|^T |W_c|), with |k| the
    kernel of the factors' absolute values. Cauchy-Schwarz, within each
    layer and then over the layers, gives |k|(r, c) <= sqrt(k(r,r) k(c,c)),
    and |W_r|^T |W_c| <= |W_r| |W_c|. So

        h_c = kappa u32 (sqrt(k(c,c)) sum_r sqrt(k(r,r)) + |W_c| sum_r |W_r|),

    with |W_c|^2 = k(c,c) - schur_c, bounds sum_r |e(r, c)|, which bounds the
    error of column c's sum of |Sigma|. The realized sum_r |e(r, c)| stayed
    below 0.15 sqrt(d) u32 times the bracket on every state measured (L from
    15 to 1000, MLPs from 4-24-2 to 784-256-10, and a jittered rank-deficient
    state), so kappa leaves a 10x margin; a test holds it to 5x.
    """
    kappa_u = linalg._kappa_u32(max(len(w), *widths))
    k_norms = np.sqrt(np.maximum(batch.self_k, 0.0))
    w_norms = np.sqrt(np.maximum(batch.self_k - batch.schur, 0.0))
    return kappa_u * (k_norms * np.sum(k_norms) + w_norms * np.sum(w_norms))


def _undecided(lo, hi, picks, live):
    """The live candidates whose interval [lo, hi] reaches t, the picks-th
    largest lower bound among them (the smallest when fewer are live): every
    candidate that the top picks could hold. A NaN bound counts as reaching."""
    if picks == 0 or not live.any():
        return np.zeros_like(live)
    ranked = np.sort(np.nan_to_num(lo[live], nan=-np.inf))[::-1]
    return live & ~(hi < ranked[min(picks, len(ranked)) - 1])


def _row_sums(features, w, idx):
    """sum(|Sigma[idx]|, axis=1) in float64, CHUNK_ROWS rows of Sigma at a time;
    by symmetry, the column sums of ``idx``."""
    sums = np.empty(len(idx))
    for start in range(0, len(idx), kernel.CHUNK_ROWS):
        rows = idx[start : start + kernel.CHUNK_ROWS]
        block = features.add_block(rows, slice(None), -(w[:, rows].T @ w))
        sums[start : start + len(rows)] = np.sum(np.abs(block, out=block), axis=1)
    return sums


def _pivots(batch, cols=slice(None)):
    """u = schur + jitter at ``cols``, and +inf at degenerate candidates, whose gains are zero."""
    return np.where(batch.degenerate[cols], np.inf, batch.schur[cols] + batch.jitter)


@dataclass(frozen=True)
class LookaheadBatch:
    """Block look-ahead of a candidate batch against itself.

    Labeling candidate i with y changes the linearized predictions at the
    candidates by ``outer(gains[:, i], shift_base[i] - y)``, with
    gains[r, c] = -Sigma(r, c) / u_c and all-zero columns at degenerate
    candidates. A batch holds Sigma either unformed, as the factors and W
    it is contracted from, or dense; scoring reads it and never writes.
    """

    outputs: np.ndarray  # (n, C) raw network outputs at the candidates
    degenerate: np.ndarray  # (n,) bool
    shift_base: np.ndarray  # (n, C) current linearized predictions at the candidates
    schur: np.ndarray  # (n,) unjittered Schur complements k(c,c) - |W_c|^2
    self_k: np.ndarray  # (n,) self-kernel values k(c, c)
    jitter: float  # the state's jitter; u = schur + jitter
    live: np.ndarray  # (n,) the candidates' positions in the batch first built
    covariance: tuple = None  # (FeatureBatch, W) of Sigma while unformed
    sigma: np.ndarray = None  # dense: (N, N) Sigma over positions, Fortran order

    def dense(self):
        """This batch holding Sigma, without its factors and W; itself if it already does."""
        if self.sigma is not None:
            return self
        features, w = self.covariance
        sigma = features.gram(w).T  # symmetric; Fortran order for dger
        return replace(self, covariance=None, sigma=sigma)

    def gain_rows(self, cols):
        """gains[:, cols].T of a dense batch, C-ordered: Sigma's columns (rows of
        Sigma^T) at the live positions of ``cols``, then their live entries."""
        rows = np.take(self.sigma.T[self.live[cols]], self.live, axis=1)
        rows /= -_pivots(self, cols)[:, None]
        return rows

    def abs_gain_sums(self, picks=None, scale=1.0):
        """sum(|gains|, axis=0): unformed, through the reduce sink; dense, |Sigma|
        through one (N, 64) buffer, whose whole columns sum the live rows as
        dead rows are zero.

        Given ``picks``, an unformed batch sums only as exactly as the top
        ``picks`` of ``scale`` * sums need, for a nonnegative per-candidate
        ``scale``. Its sink runs in float32, and each sum lies within +-h of
        ``_sink_halfwidths``. Among non-degenerate candidates, with t the
        picks-th largest lower bound of the scaled interval, each one whose
        upper bound reaches t is summed again in float64 (``_row_sums``).
        Each other one keeps its float32 sum, whose scaled value lies below t
        and so below those of the top picks. The top ``picks`` of scale * sums
        are then the float64 ones, in the same order, up to ties within
        float64 rounding. A dense batch ignores ``picks``.
        """
        if self.sigma is None:
            features, w = self.covariance
            pivots = _pivots(self)
            if picks is None:
                return _reduce_sink(features, w) / pivots
            sums = _reduce_sink(features.astype(np.float32), w.astype(np.float32)) / pivots
            half = _sink_halfwidths(self, w, features.params.config.widths) / pivots
            lo, hi = scale * (sums - half), scale * (sums + half)
            idx = np.flatnonzero(_undecided(lo, hi, picks, ~self.degenerate))
            sums[idx] = _row_sums(features, w, idx) / pivots[idx]
            return sums
        n, step = len(self.sigma), 64  # a (1000, 64) buffer stays in cache
        buf, sums = np.empty((n, min(n, step)), order="F"), np.empty(n)
        for start in range(0, n, step):
            block = np.abs(self.sigma[:, start : start + step], out=buf[:, : n - start])
            np.sum(block, axis=0, out=sums[start : start + step])
        return sums[self.live] / _pivots(self)


def lookahead_batch(state, candidates):
    """Closed-form look-ahead for every candidate row; see LookaheadBatch.

    Rows follow ``net._check_input``; an empty candidate set raises
    ContractError. W is solved in the memory of the cross kernel k(c, X),
    whose transpose is Fortran-ordered, so the two are never held at once.
    """
    features = state.features(candidates)
    if len(features.rows) == 0:
        raise ContractError("candidate set is empty")
    k_cl, self_k, outputs = features.cross(state), features.diag(), features.outputs()
    shift_base = outputs + k_cl @ state.solved_residual
    w = solve_triangular(
        state.factor.lower, k_cl.T, lower=True, overwrite_b=True, check_finite=False
    )
    schur = self_k - np.einsum("ln,ln->n", w, w)
    return LookaheadBatch(
        outputs=outputs,
        degenerate=_degenerate(schur, self_k),
        shift_base=shift_base,
        schur=schur,
        self_k=self_k,
        jitter=state.factor.jitter_applied,
        live=np.arange(len(features.rows)),
        covariance=(features, w),
    )


def condition(batch, i, y):
    """The batch over the other candidates once candidate i is labeled y.

    Equals, up to rounding, ``lookahead_batch`` on the state returned by
    ``augment_state(state, candidates[i], y)`` over the remaining candidates
    (see the module docstring), at O(N^2) cost and without evaluating the
    kernel. The dense Sigma (``batch.dense()``) is updated in place and
    shared with the returned batch, so a dense ``batch`` is spent. A degenerate
    pick leaves the state unchanged, so it is only dropped. Needs at least
    two candidates and an integer i among them, and raises ContractError
    otherwise; raises ShapeError for a label without C entries and
    ContractError for a non-finite one.
    """
    n, classes = batch.outputs.shape
    if not 0 <= net._integer(i, "candidate index") < n:
        raise ContractError(f"candidate index {i} out of range for {n} candidates")
    if n < 2:
        raise ContractError("conditioning the last candidate leaves an empty batch")
    y, batch = _label(y, classes), batch.dense()
    sigma, pos, keep = batch.sigma, batch.live[i], np.arange(n) != i
    live, schur, degenerate = batch.live[keep], batch.schur[keep], batch.degenerate[keep]
    shift_base = batch.shift_base[keep]
    if not batch.degenerate[i]:
        u = batch.schur[i] + batch.jitter
        s = sigma[:, pos].copy()  # S(., x*), also S(x*, .) by symmetry
        blas.dger(-1.0 / u, s, s, a=sigma, overwrite_a=True)
        s = s[live]
        schur = schur - s * s / u
        degenerate = degenerate | _degenerate(schur, batch.self_k[keep])
        shift_base = shift_base + np.outer(s / -u, batch.shift_base[i] - y)
    sigma[pos], sigma[:, pos] = 0.0, 0.0  # and zero under every later downdate
    fields = (batch.outputs[keep], degenerate, shift_base, schur, batch.self_k[keep])
    return LookaheadBatch(*fields, batch.jitter, live, sigma=sigma)


def augment_state(state, x, y):
    """New KernelState over the labeled set plus rows x (k, d) labeled y (k, C); a 1-D x is one row.

    Rows enter in order, extending the factor (module docstring); a row
    ``_degenerate`` flags against the labeled set and the rows entered
    before it is skipped. All it reads of the rows is one ``lookahead_batch``
    over them. Predictions match a cold rebuild on the enlarged set. Raises
    DegenerateCandidateError when no row enters, ShapeError for labels of
    another shape and ContractError for no rows or non-finite x or y.
    """
    if np.shape(x) == (0, state.inputs.shape[1]):  # a wrong width stays a ShapeError
        raise ContractError("no rows to augment with")
    batch = lookahead_batch(state, x)
    (k, classes), (features, w) = batch.outputs.shape, batch.covariance
    y = _label(y, k, classes) if np.ndim(x) == 2 else _label(y, classes)[None, :]
    s = batch.dense().sigma
    s[np.diag_indices(k)] = batch.schur
    jitter, lower, enter = batch.jitter, np.zeros((k, k)), np.zeros(k, bool)
    for j in range(k):
        if _degenerate(s[j, j], batch.self_k[j]):
            continue
        u, col = s[j, j] + jitter, s[j + 1 :, j]
        lower[j, j], lower[j + 1 :, j], enter[j] = np.sqrt(u), col / np.sqrt(u), True
        s[j + 1 :, j + 1 :] -= np.outer(col, col) / u
    if not enter.any():
        raise DegenerateCandidateError("cannot augment with points inside the labeled span")
    w = w[:, enter]
    lower = np.block([[state.factor.lower, np.zeros_like(w)], [w.T, lower[np.ix_(enter, enter)]]])
    factor = linalg.CholeskyFactor(lower=lower, jitter_applied=jitter)
    # Extended like the factor, not recomputed from targets.
    residual = np.vstack([state.residual, y[enter] - batch.outputs[enter]])
    cache = tuple(
        (np.vstack([a, na[enter]]), np.vstack([d, nd[enter]]))
        for (a, d), (na, nd) in zip(state.factor_cache, features.factors)
    )
    return replace(
        state,
        targets=np.vstack([state.targets, y[enter]]),
        residual=residual,
        factor=factor,
        solved_residual=linalg.chol_solve(factor, residual),
        factor_cache=cache,
    )
