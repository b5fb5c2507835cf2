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

Myopic baselines (entropy, margin, random) and a naive oracle that
really retrains with SGD round out the comparison suite.
"""

from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import lookahead, net
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


def _change_norms(ctx, labels_onehot, baseline, ord_):
    """Sum over the reference set of per-point change norms, per candidate.

    With the linearized baseline the change at reference point r is exactly
    gains[r] * shift, so the sum factorizes; the raw baseline adds the
    constant offset between linearized and raw current predictions.
    """
    shift = ctx.shift_base - labels_onehot  # (n, C)
    if baseline == "linearized":
        if ord_ == 2:
            shift_norm = np.linalg.norm(shift, axis=1)
        else:
            shift_norm = np.sum(np.abs(shift), axis=1)
        return np.sum(np.abs(ctx.gains), axis=0) * shift_norm
    if baseline != "raw":
        raise ContractError(f"unknown baseline {baseline!r}")
    offset = ctx.ref_lin - ctx.ref_raw  # (m, C)
    # changes[m, n, c] = offset[m, c] + gains[m, n] * shift[n, c]
    changes = offset[:, None, :] + ctx.gains[:, :, None] * shift[None, :, :]
    if ord_ == 2:
        norms = np.sqrt(np.sum(changes * changes, axis=2))
    else:
        norms = np.sum(np.abs(changes), axis=2)
    return np.sum(norms, axis=0)


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
    scores = _change_norms(ctx, labels, baseline, ord_=2)
    scores = np.where(ctx.degenerate, 0.0, scores)
    return AcquisitionResult.from_scores(scores, labels, ctx.degenerate)


def emoc(state, candidates, reference_set=None, distance="l2", baseline="linearized"):
    """Expected model output change over all hypothetical labels.

    The expectation weights each class label by the softmax of the current
    network output at the candidate; per-label changes are evaluated with
    the same block correction as mlmoc. Costs one mlmoc per class.
    """
    return score_emoc(
        lookahead.lookahead_batch(state, candidates, reference_set), distance, baseline
    )


def score_emoc(ctx, distance="l2", baseline="linearized"):
    """emoc scores of a LookaheadBatch."""
    if distance not in ("l2", "l1"):
        raise ContractError(f"unknown distance {distance!r}")
    ord_ = 2 if distance == "l2" else 1
    n, c = ctx.outputs.shape
    probs = softmax(ctx.outputs)
    scores = np.zeros(n)
    for cls in range(c):
        label = np.zeros((n, c))
        label[:, cls] = 1.0
        scores += probs[:, cls] * _change_norms(ctx, label, baseline, ord_)
    scores = np.where(ctx.degenerate, 0.0, scores)
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
    n, c = ctx.outputs.shape
    probs = softmax(ctx.outputs)
    current_entropy = float(np.sum(entropy(softmax(ctx.ref_lin))))
    scores = np.zeros(n)
    for i in range(n):
        if ctx.degenerate[i]:
            scores[i] = -current_entropy
            continue
        shift = ctx.shift_base[i][None, :] - np.eye(c)  # (C, C), rows per label
        # predictions[label, ref, class]
        preds = ctx.ref_lin[None, :, :] + ctx.gains[:, i][None, :, None] * shift[:, None, :]
        ent = np.sum(entropy(softmax(preds)), axis=1)  # (C,)
        scores[i] = -float(probs[i] @ ent)
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
