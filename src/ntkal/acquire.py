"""Acquisition functions for pool-based querying.

The look-ahead family (mlmoc, emoc, eer_lin) scores each unlabeled
candidate by the effect that hypothetically labeling it would have on
predictions over a reference set, using the block-structured linearized
look-ahead of ``lookahead.lookahead_batch`` instead of retraining.
Because the per-candidate prediction change is rank one (per-query gain
times a per-label shift), whole candidate batches are scored with a
handful of matrix products. Each takes a kernel state and candidate rows
and scores the batch it builds with ``score_mlmoc``, ``score_emoc`` or
``score_eer_lin``; sequential querying calls those directly on a batch
kept up to date with ``lookahead.condition``.

emoc and eer_lin sum over all C hypothetical labels. Labeling candidate
i with l moves reference r to a - gains[r, i] * e_l, where
a = ref_lin[r] + gains[r, i] * shift_base[i] is shared by every label,
so each label differs from a in one entry. The raw-baseline change
norms and the softmax entropies of all C labels therefore come from
O(C) sums over a plus one corrected entry per label: an (n, C) table
at O(m n C) cost, built over chunks of candidate columns small enough
to stay in cache. mlmoc reads only its pseudo-label. With the
linearized baseline the change norm factorizes into the column sums of
|gains| times the norm of the label shift.

Myopic baselines (entropy, margin, random) and a naive oracle that
really retrains with SGD round out the comparison suite.
"""

from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import linalg, lookahead, net
from .errors import ContractError

__all__ = [
    "AcquisitionResult",
    "mlmoc",
    "emoc",
    "eer_lin",
    "score_mlmoc",
    "score_emoc",
    "score_eer_lin",
    "entropy_score",
    "margin_score",
    "random_score",
    "naive_sgd_oracle",
    "naive_change_scores",
]


@dataclass(frozen=True)
class AcquisitionResult:
    """Scores aligned with the candidate batch; argmax ties break low."""

    scores: np.ndarray
    pseudo_labels: np.ndarray  # (n, C) one-hot, or None for seed-based scores
    argmax_index: int
    degenerate_flags: np.ndarray

    @classmethod
    def from_scores(cls, scores, pseudo_labels=None, degenerate_flags=None):
        scores = np.asarray(scores, dtype=np.float64)
        if degenerate_flags is None:
            degenerate_flags = np.zeros(len(scores), dtype=bool)
        # np.argmax returns the first maximum, which is the tie-break rule.
        return cls(
            scores=scores,
            pseudo_labels=pseudo_labels,
            argmax_index=int(np.argmax(scores)),
            degenerate_flags=np.asarray(degenerate_flags, dtype=bool),
        )


def softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def entropy(probs):
    p = np.clip(probs, 1e-300, 1.0)
    return -np.sum(probs * np.log(p), axis=-1)


# Bytes of one (C, k, m) temporary of the per-label tables: candidates
# are scored k columns at a time, sized so that each chunk's arithmetic
# runs in cache.
_TABLE_CHUNK_BYTES = 128 << 10


def _abs_column_sums(gains):
    """sum(|gains|, axis=0), one row chunk of |gains| at a time.

    Each chunk is reduced together with the running sum as its first row,
    so the rows are added in the same order as by one reduction over the
    whole array and the result is bitwise the same.
    """
    m, n = gains.shape
    buf = np.zeros((min(m, linalg.CHUNK_ROWS) + 1, n))
    for start in range(0, m, linalg.CHUNK_ROWS):
        chunk = gains[start : start + linalg.CHUNK_ROWS]
        np.abs(chunk, out=buf[1 : len(chunk) + 1])
        buf[0] = np.sum(buf[: len(chunk) + 1], axis=0)
    return buf[0].copy()


def _leave_one_out(v):
    """sum(v, axis=0) - v for nonnegative v, without cancellation.

    The sum leaving out the largest entry is taken directly; every other
    label's sum includes that entry, which bounds the rounding of the
    subtraction by a few ulps of the result.
    """
    vmax = np.max(v, axis=0)
    top = v == vmax
    count = np.sum(top, axis=0)
    rest = np.sum(np.where(top, 0.0, v), axis=0)
    return np.where(top, (count - 1) * vmax + rest, count * vmax + (rest - v))


def _entropies(a, corr):
    """Softmax entropy along axis 0 of a with entry l replaced by corr[l], per l.

    With A = sum exp(x_j - M) and B = sum exp(x_j - M) (x_j - M) over the
    entries x of one label's logits, for any shift M, the entropy is
    log A - B / A. For label l the sums over the other entries are taken
    relative to their own maximum (the runner-up when l holds the maximum,
    the maximum otherwise), so they never underflow to zero, and are then
    combined with the corrected entry under M = max(that maximum, corr[l]).
    """
    top1 = np.max(a, axis=0)
    top = a == top1
    count = np.sum(top, axis=0)
    rest = np.where(top, -np.inf, a)
    top2 = np.max(rest, axis=0)  # largest entry below the maximum
    np.copyto(top2, top1, where=count > 1)  # a tied maximum is its own runner-up
    rest -= top2
    x = np.exp(rest)  # exp(a_j - top2), zero at the maxima
    np.copyto(rest, 0.0, where=top)
    xd = x * rest
    sx = np.sum(x, axis=0)
    sxd = np.sum(xd, axis=0)
    delta = top1 - top2
    ratio = np.exp(-delta)
    # Sums over the entries other than l, relative to their maximum.
    below = sx - x  # over the entries below the maximum, other than l
    others = np.where(top, (count - 1) + sx, count + ratio * below)
    others_d = np.where(top, sxd, ratio * ((sxd - xd) - delta * below))
    gap = corr - np.where(top, top2, top1)
    above = gap > 0  # the corrected entry is the new maximum
    w = np.exp(-np.abs(gap))
    scale = np.where(above, w, 1.0)  # exp(old maximum - new maximum)
    own = np.where(above, 1.0, w)  # exp(corrected entry - new maximum)
    total = scale * others + own
    total_d = scale * (others_d - np.where(above, gap, 0.0) * others)
    total_d += own * np.minimum(gap, 0.0)
    return np.log(total) - total_d / total


def _label_table(ctx, kind, labels=None):
    """Reference sums of a look-ahead quantity per candidate and label, (n, C).

    Labeling candidate i with l moves reference r to
    base[r] + gains[r, i] * (shift_base[i] - e_l): the vector
    a = base[r] + gains[r, i] * shift_base[i], shared by every label, with
    entry l replaced by base[r, l] + gains[r, i] * (shift_base[i, l] - 1).
    ``kind`` "l2" or "l1" sums the norm of the raw-baseline change (base =
    ref_lin - ref_raw), "entropy" the softmax entropy of the look-ahead
    logits (base = ref_lin). Each chunk of k candidate columns is held as
    (C, k, m) arrays of at most _TABLE_CHUNK_BYTES, and all its labels come
    from shared sums over a. With ``labels`` (one class per candidate, norms
    only) each candidate is scored at its label alone, as the norm of a
    with that entry replaced, shape (n,).
    """
    n, c = ctx.outputs.shape
    sums = np.zeros(n if labels is not None else (n, c))
    if kind == "entropy" and c == 1:
        return sums  # the softmax of a single logit is one-hot
    base = ctx.ref_lin if kind == "entropy" else ctx.ref_lin - ctx.ref_raw
    base = np.ascontiguousarray(base.T)[:, None, :]
    step = max(1, _TABLE_CHUNK_BYTES // (8 * len(ctx.gains) * c))
    power = np.square if kind == "l2" else np.abs
    for start in range(0, n, step):
        cols = slice(start, start + step)
        g = np.ascontiguousarray(ctx.gains[:, cols].T)
        s = ctx.shift_base[cols].T[:, :, None]
        a, corr = base + g * s, base + g * (s - 1.0)
        if kind == "entropy":
            values = _entropies(a, corr)
        else:
            v, own = power(a, out=a), power(corr, out=corr)
            if labels is None:
                total = _leave_one_out(v) + own
            else:
                idx = np.broadcast_to(labels[None, cols, None], (1,) + v.shape[1:])
                np.put_along_axis(v, idx, np.take_along_axis(own, idx, axis=0), axis=0)
                total = np.sum(v, axis=0)
            values = np.sqrt(total) if kind == "l2" else total
        sums[cols] = np.sum(values, axis=-1).T
    return sums


def _change_table(ctx, baseline, distance, labels=None):
    """Reference-summed change norms, (n, C) over all labels or (n,) at ``labels``.

    With the linearized baseline the change at reference point r is exactly
    gains[r] * shift, so the sum factorizes into the column sums of |gains|
    times the shift norm; the raw baseline adds the constant offset between
    linearized and raw current predictions.
    """
    if baseline == "raw":
        return _label_table(ctx, distance, labels)
    if baseline != "linearized":
        raise ContractError(f"unknown baseline {baseline!r}")
    eye = np.eye(ctx.shift_base.shape[1])
    if labels is None:
        shift = ctx.shift_base[:, None, :] - eye  # (n, C, C)
    else:
        shift = ctx.shift_base - eye[labels]
    if distance == "l2":
        shift_norms = np.linalg.norm(shift, axis=-1)
    else:
        shift_norms = np.sum(np.abs(shift), axis=-1)
    abs_sums = _abs_column_sums(ctx.gains)
    return (abs_sums if labels is not None else abs_sums[:, None]) * shift_norms


def _expectation(probs, table):
    """sum_l probs[:, l] * table[:, l], added label by label."""
    return np.sum(np.ascontiguousarray((probs * table).T), axis=0)


def _pseudo_labels(ctx):
    n, c = ctx.outputs.shape
    labels = np.zeros((n, c))
    labels[np.arange(n), np.argmax(ctx.outputs, axis=1)] = 1.0
    return labels


def mlmoc(state, candidates, reference_set=None, baseline="linearized"):
    """Most-likely model output change.

    Each candidate is scored with its most likely pseudo-label (argmax of
    the current network output): the summed l2 prediction change over the
    reference set if that label were added. The reference set defaults to
    the candidate batch itself. ``baseline`` picks what the change is
    measured against: the current linearized predictions (default, so a
    no-op augmentation scores exactly zero) or the raw network outputs.
    """
    return score_mlmoc(lookahead.lookahead_batch(state, candidates, reference_set), baseline)


def score_mlmoc(ctx, baseline="linearized"):
    """mlmoc scores of a LookaheadBatch."""
    labels = _pseudo_labels(ctx)
    scores = _change_table(ctx, baseline, "l2", np.argmax(ctx.outputs, axis=1))
    scores = np.where(ctx.degenerate, 0.0, scores)
    return AcquisitionResult.from_scores(scores, labels, ctx.degenerate)


def emoc(state, candidates, reference_set=None, distance="l2", baseline="linearized"):
    """Expected model output change over all hypothetical labels.

    The expectation weights each class label by the softmax of the current
    network output at the candidate; per-label changes are evaluated with
    the same block correction as mlmoc, all labels at once.
    """
    return score_emoc(
        lookahead.lookahead_batch(state, candidates, reference_set), distance, baseline
    )


def score_emoc(ctx, distance="l2", baseline="linearized"):
    """emoc scores of a LookaheadBatch."""
    if distance not in ("l2", "l1"):
        raise ContractError(f"unknown distance {distance!r}")
    table = _change_table(ctx, baseline, distance)
    scores = np.where(ctx.degenerate, 0.0, _expectation(softmax(ctx.outputs), table))
    return AcquisitionResult.from_scores(scores, _pseudo_labels(ctx), ctx.degenerate)


def eer_lin(state, candidates, reference_set=None):
    """Negative expected post-acquisition entropy over the reference set.

    Look-ahead predictions are mapped to probabilities with a softmax at
    temperature 1; the score is minus the expected (over the candidate's
    softmax label distribution) sum of predictive entropies. Degenerate
    candidates leave the model unchanged, so they score the current
    entropy sum, negated.
    """
    return score_eer_lin(lookahead.lookahead_batch(state, candidates, reference_set))


def score_eer_lin(ctx):
    """eer_lin scores of a LookaheadBatch."""
    current_entropy = float(np.sum(entropy(softmax(ctx.ref_lin))))
    expected = _expectation(softmax(ctx.outputs), _label_table(ctx, "entropy"))
    scores = np.where(ctx.degenerate, -current_entropy, -expected)
    return AcquisitionResult.from_scores(scores, _pseudo_labels(ctx), ctx.degenerate)


def entropy_score(outputs):
    """Predictive entropy of softmax(outputs) per candidate row."""
    outputs = np.atleast_2d(np.asarray(outputs, dtype=np.float64))
    if len(outputs) == 0:
        raise ContractError("candidate set is empty")
    labels = np.zeros_like(outputs)
    labels[np.arange(len(outputs)), np.argmax(outputs, axis=1)] = 1.0
    return AcquisitionResult.from_scores(entropy(softmax(outputs)), labels)


def margin_score(outputs):
    """Negative top-2 softmax gap (small gap = high score)."""
    outputs = np.atleast_2d(np.asarray(outputs, dtype=np.float64))
    if len(outputs) == 0:
        raise ContractError("candidate set is empty")
    probs = np.sort(softmax(outputs), axis=1)
    gap = probs[:, -1] - probs[:, -2] if probs.shape[1] > 1 else probs[:, -1]
    labels = np.zeros_like(outputs)
    labels[np.arange(len(outputs)), np.argmax(outputs, axis=1)] = 1.0
    return AcquisitionResult.from_scores(-gap, labels)


def random_score(seed, count):
    """Seeded uniform scores; identical seeds give identical vectors."""
    if count < 1:
        raise ContractError("candidate set is empty")
    return AcquisitionResult.from_scores(
        np.random.default_rng(seed).uniform(size=count)
    )


def naive_sgd_oracle(params, labeled, candidate, retrain_cfg, reference_set):
    """Outputs on the reference set after really retraining with SGD.

    Copies the parameters, warm-starts on the labeled set plus the
    hypothetically labeled candidate for the configured epochs, and
    evaluates the reference set. Zero epochs short-circuits to the
    current outputs.
    """
    reference_set = np.atleast_2d(np.asarray(reference_set, dtype=np.float64))
    if retrain_cfg.epochs == 0:
        return np.atleast_2d(net.forward(params, reference_set))
    x_cand, y_cand = candidate
    x_cand = np.asarray(x_cand, dtype=np.float64).reshape(1, -1)
    y_cand = np.asarray(y_cand, dtype=np.float64).reshape(1, -1)
    inputs = np.vstack([labeled.inputs, x_cand])
    one_hot = np.vstack([labeled.one_hot, y_cand])
    aug = data_mod.Dataset(
        inputs=inputs,
        labels=np.argmax(one_hot, axis=1),
        one_hot=one_hot,
        class_count=labeled.class_count,
        name=labeled.name,
    )
    retrained = net.train_sgd(params, aug, retrain_cfg)
    return np.atleast_2d(net.forward(retrained, reference_set))


def naive_change_scores(params, labeled, candidates, retrain_cfg, reference_set):
    """Most-likely-label change scores computed by actual SGD retraining.

    The retraining analogue of mlmoc: for each candidate, pseudo-label it
    with the network argmax, retrain a copy, and sum the l2 output change
    over the reference set. With one epoch and a full-size minibatch this
    is the single-gradient-step look-ahead baseline.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    if len(candidates) == 0:
        raise ContractError("candidate set is empty")
    reference_set = np.atleast_2d(np.asarray(reference_set, dtype=np.float64))
    base = np.atleast_2d(net.forward(params, reference_set))
    outputs = np.atleast_2d(net.forward(params, candidates))
    c = outputs.shape[1]
    labels = np.zeros((len(candidates), c))
    labels[np.arange(len(candidates)), np.argmax(outputs, axis=1)] = 1.0
    scores = np.zeros(len(candidates))
    for i, x_cand in enumerate(candidates):
        after = naive_sgd_oracle(
            params, labeled, (x_cand, labels[i]), retrain_cfg, reference_set
        )
        scores[i] = float(np.sum(np.linalg.norm(after - base, axis=1)))
    return AcquisitionResult.from_scores(scores, labels)
