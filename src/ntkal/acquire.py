"""Acquisition functions for pool-based querying.

The look-ahead family (mlmoc, emoc, eer_lin) scores each unlabeled
candidate by the effect that hypothetically labeling it would have on
the predictions at every candidate of the batch (the reference set),
using the block-structured linearized look-ahead of
``lookahead.lookahead_batch`` instead of retraining. One rule scores all
three: an (n, C) table of that effect per candidate and label, averaged
as score_i = sum_l weights[i, l] * table[i, l], with a fixed score at
degenerate candidates. mlmoc and emoc tabulate summed l2 prediction
changes and score 0 where degenerate; emoc weights the labels by the
softmax of the network output, mlmoc puts all weight on its argmax.
eer_lin weights minus the summed softmax entropies of the look-ahead
predictions by the softmax, and scores minus the current entropy sum
where degenerate. ``score_*`` score a LookaheadBatch; sequential
querying calls them on a batch conditioned in place.

With the linearized baseline the change norm factorizes into the column
sums of |gains|, streamed without an n x n array, times the label
shift's norm. Given the pick count k of a batch-mode query, the sums
come from a float32 sink with a stated error bound, and only candidates
that could cross the k-th boundary are summed again in float64, so the
top k scores, the ones that leave the scorer, are the float64 ones.
Otherwise, labeling candidate i with l moves reference r
to a - gains[r, i] * e_l, where a = shift_base[r] + gains[r, i] *
shift_base[i] is shared by every label, so each label differs from a in
one entry. The raw-baseline change norms and the softmax entropies of
all C labels therefore come from O(C) sums over a plus one corrected
entry per label, built over chunks of gain columns of the dense
posterior covariance Sigma small enough to stay in cache. The entropies
take one of two paths per chunk. Inside a band of small gains and
unsaturated softmaxes, each label's entropy follows directly from
exp-sums of a relative to its maximum, at one exp and one log per entry,
within a first-order error bound of 2.5e-13 relative at C = 10
(``_direct_entropies``). Outside it a careful path (``_entropies``) stays
accurate on saturated softmaxes and large gains.

Myopic baselines (entropy, margin, random) and two look-ahead baselines
measured on the network itself round out the comparison suite: a naive
oracle that really retrains a copy with SGD per candidate, and one
full-batch gradient step: ``net.train_sgd``'s step on the labeled set,
shared by all candidates, plus a rank-one step per candidate in closed
form.
"""

from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import linalg, lookahead, net
from .errors import ContractError, DivergenceError, ShapeError

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
    "one_step_change_scores",
]


@dataclass(frozen=True)
class AcquisitionResult:
    """Scores aligned with the candidate batch; ``pool.query_batch_topk`` picks from them."""

    scores: np.ndarray
    pseudo_labels: np.ndarray  # (n, C) one-hot, or None for seed-based scores
    degenerate_flags: np.ndarray

    @classmethod
    def from_scores(cls, scores, pseudo_labels=None, degenerate_flags=None):
        """Raises ShapeError unless the scores are 1-D and the flags and
        pseudo-labels have one entry or row per score."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1:
            raise ShapeError(f"scores have shape {scores.shape}, expected 1-D")
        n = len(scores)
        flags = np.zeros(n, bool) if degenerate_flags is None else degenerate_flags
        flags = np.asarray(flags, dtype=bool)
        if flags.shape != (n,):
            raise ShapeError(f"degenerate flags have shape {flags.shape} for {n} scores")
        if pseudo_labels is not None and len(pseudo_labels) != n:
            raise ShapeError(f"{len(pseudo_labels)} pseudo-labels for {n} scores")
        return cls(scores=scores, pseudo_labels=pseudo_labels, degenerate_flags=flags)


def softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def entropy(probs):
    p = np.clip(probs, 1e-300, 1.0)
    return -np.sum(probs * np.log(p), axis=-1)


# What the look-ahead change norms are measured against.
BASELINES = ("linearized", "raw")

# Bytes of one (C, k, n) temporary of the per-label tables: candidates
# are scored k columns at a time, sized so that each chunk's arithmetic
# runs in cache.
_TABLE_CHUNK_BYTES = 128 << 10

# The band of ``_direct_entropies``: the largest |gain| and the smallest
# non-maximum softmax mass of a chunk whose entropies it computes.
_DIRECT_MAX_GAIN = 1.0 + 2.0**-20
_DIRECT_MIN_MASS = 0.5


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


def _direct_entropies(a, g):
    """Softmax entropy along axis 0 of a with entry l lowered by g, per l; None
    outside the band.

    With M = max a, y = exp(a - M), A = sum y, B = sum y (a - M) and
    tau = expm1(-g), label l's exp-sums relative to M are
    Z_l = A + tau y_l and B_l = B + y_l (tau (a_l - M) - (1 + tau) g), and its
    entropy is log Z_l - B_l / Z_l: one exp and one log per entry, one
    expm1 per gain, no selects. The chunk is in the band when every gain
    has |g| <= G = _DIRECT_MAX_GAIN and every a has its non-maximum mass
    R = A - 1 >= rho = _DIRECT_MIN_MASS; the gains are tested before any
    exp, so no exp of a large gain overflows. A chunk in the band
    overwrites a; one outside it leaves a as it was.

    Error bound. Take each arithmetic operation to round with relative
    error at most u = 2^-53 and exp, expm1 and log with at most 2u, and
    the logits a - M and a_l - g as given. In the band (rho <= 1,
    G >= log 2) Z_l >= A e^-G, |log Z_l| <= log C + G, -B / A <= log C
    and |tau| y_l <= e^G Z_l, and to first order in u
        |H_l' - H_l| <= u (C + 8) e^G (2 + H_l + 2 log C + G)
    for the computed H_l' of the exact entropy H_l over C labels. Label l's
    look-ahead keeps a non-maximum mass of at least rho e^-G, so
    H_l >= h = log(1 + rho e^-G), and the relative error is at most
        u (C + 8) e^G (1 + (2 + 2 log C + G) / h).
    G admits the self-gains -Sigma_ii / u_i in [-1, 0] with room for their
    rounding; rho = 1/2 then holds the bound at C = 10 to 2.3e3 u, 2.5e-13.
    The careful ``_entropies`` takes every chunk outside the band: its
    saturated softmaxes have entropies far below one ulp of log Z_l, and
    its large gains grow the bound as e^G.
    """
    if max(np.max(g), -np.min(g)) > _DIRECT_MAX_GAIN:
        return None
    x = a - np.max(a, axis=0)
    y = np.exp(x)
    total = np.sum(y, axis=0)
    if np.min(total) - 1.0 < _DIRECT_MIN_MASS:
        return None
    b = np.sum(np.multiply(y, x, out=a), axis=0)
    tau = np.expm1(-g)
    bl = np.multiply(x, tau, out=x)
    bl -= (1.0 + tau) * g
    bl *= y
    bl += b
    z = np.multiply(y, tau, out=y)
    z += total
    bl /= z
    h = np.log(z, out=z)
    h -= bl
    return h


def _entropies(a, corr):
    """Softmax entropy along axis 0 of a with entry l replaced by corr[l], per l.

    The careful path of the entropy table, for the chunks outside
    ``_direct_entropies``' band: saturated softmaxes and large gains.
    With A = sum exp(x_j - M) and B = sum exp(x_j - M) (x_j - M) over the
    entries x of one label's logits and M their maximum, the entropy is
    log A - B / A. A = 1 + R with R the terms other than the maximum's, so
    log1p(R) - B / A adds two nonnegative terms and stays accurate when a
    saturated softmax puts R far below one ulp of 1. For label l the sums
    over the other entries are taken relative to their own maximum (the
    runner-up when l holds the maximum, the maximum otherwise), so they
    never underflow to zero, and are then combined with the corrected
    entry under M = max(that maximum, corr[l]).
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
    ones = x == 1.0  # the runners-up
    n_ones = np.sum(ones, axis=0)
    small = np.sum(np.where(ones, 0.0, x), axis=0)  # the other terms below the maximum
    sxd = np.sum(xd, axis=0)
    delta = top1 - top2
    ratio = np.exp(-delta)
    # The sum over the entries other than l, relative to their maximum,
    # less that maximum's term 1; runners-up enter as counts, exactly.
    below = np.where(ones, (n_ones - 1) + small, n_ones + (small - x))
    excess = np.where(top, (count - 2 + n_ones) + small, (count - 1) + ratio * below)
    others_d = np.where(top, sxd, ratio * ((sxd - xd) - delta * below))
    gap = corr - np.where(top, top2, top1)
    above = gap > 0  # the corrected entry is the new maximum
    w = np.exp(-np.abs(gap))
    # R: with the corrected entry the new maximum, exp(old maximum - new
    # maximum) times all the others' terms; else excess plus its own term.
    r = np.where(above, w * (excess + 1.0), excess + w)
    total_d = np.where(above, w * (others_d - gap * (excess + 1.0)), others_d + w * gap)
    return np.log1p(r) - total_d / (1.0 + r)


def _label_table(ctx, kind):
    """Reference sums of a look-ahead quantity per candidate and label, (n, C).

    Labeling candidate i with l moves reference r to
    base[r] + gains[r, i] * (shift_base[i] - e_l): the vector
    a = base[r] + gains[r, i] * shift_base[i], shared by every label, with
    entry l replaced by base[r, l] + gains[r, i] * (shift_base[i, l] - 1).
    ``kind`` "l2" sums the l2 norm of the raw-baseline change (base =
    shift_base - outputs), "entropy" the softmax entropy of the look-ahead
    logits (base = shift_base). The gains are read from the batch's dense
    Sigma, formed here if ``ctx`` is unformed. Each chunk of k candidate
    columns is held as (C, k, n) arrays of at most _TABLE_CHUNK_BYTES, and
    all its labels come from shared sums over a. An entropy chunk inside
    the band of ``_direct_entropies`` is computed there from a and the
    gains alone; the corrected entries are formed only for a chunk outside
    it, which takes the careful ``_entropies``.
    """
    n, c = ctx.outputs.shape
    sums = np.zeros((n, c))
    if kind == "entropy" and c == 1:
        return sums  # the softmax of a single logit is one-hot
    ctx = ctx.dense()
    base = ctx.shift_base if kind == "entropy" else ctx.shift_base - ctx.outputs
    base = np.ascontiguousarray(base.T)[:, None, :]
    step = max(1, _TABLE_CHUNK_BYTES // (8 * n * c))
    for start in range(0, n, step):
        cols = slice(start, start + step)
        g = ctx.gain_rows(cols)
        s = ctx.shift_base[cols].T[:, :, None]
        a = base + g * s
        values = _direct_entropies(a, g) if kind == "entropy" else None
        if values is None:
            corr = base + g * (s - 1.0)
            if kind == "entropy":
                values = _entropies(a, corr)
            else:
                v, own = np.square(a, out=a), np.square(corr, out=corr)
                values = np.sqrt(_leave_one_out(v) + own)
        sums[cols] = np.sum(values, axis=-1).T
    return sums


def _change_table(ctx, baseline, weights, picks=None):
    """Reference-summed l2 change norms per candidate and label, (n, C).

    The linearized change at reference r is gains[r] * shift, so the sum
    factorizes into the column sums of |gains| times the shift norm. Each
    norm reduces C entries, so those where ``weights`` is zero, which the
    expectation never reads, are left 0: mlmoc's one-hot weights take n
    norms, not n C. A score is then a column sum times sum_l weights_l *
    norm_l, so given ``picks`` the column sums are exact only where they
    can decide the top ``picks`` scores (``LookaheadBatch.abs_gain_sums``).
    The raw baseline adds the constant offset between linearized and raw
    predictions, and gives every label at once.
    """
    if picks is not None:
        net._integer(picks, "picks", 0)
    if baseline == "raw":
        return _label_table(ctx, "l2")
    if baseline != "linearized":
        raise ContractError(f"unknown baseline {baseline!r}")
    norms = np.zeros(weights.shape)
    for l, e in enumerate(np.eye(weights.shape[1])):
        rows = np.flatnonzero(weights[:, l])
        norms[rows, l] = np.linalg.norm(ctx.shift_base[rows] - e, axis=-1)
    abs_sums = ctx.abs_gain_sums(picks, np.sum(weights * norms, axis=1))
    return abs_sums[:, None] * norms


def _argmax_labels(outputs):
    """One-hot rows of each output row's argmax."""
    labels = np.zeros_like(outputs)
    labels[np.arange(len(outputs)), np.argmax(outputs, axis=1)] = 1.0
    return labels


def _expected_scores(ctx, table, weights, degenerate_score):
    """The look-ahead rule: sum_l weights[:, l] * table[:, l], added label by label
    so that one-hot weights read one entry exactly, and ``degenerate_score`` at
    degenerate candidates; the pseudo-labels are the argmax one-hots."""
    scores = np.sum(np.ascontiguousarray((weights * table).T), axis=0)
    scores = np.where(ctx.degenerate, degenerate_score, scores)
    return AcquisitionResult.from_scores(scores, _argmax_labels(ctx.outputs), ctx.degenerate)


def mlmoc(state, candidates, baseline="linearized", picks=None):
    """Most-likely model output change: the summed l2 prediction change over
    the candidate batch if a candidate were labeled with its argmax. It is
    measured against the current linearized predictions (``baseline``
    "linearized", so a no-op augmentation scores exactly zero) or "raw"
    network outputs.

    With ``picks`` k, only the top k scores are float64 exact: the others
    may carry float32 rounding but stay below them, so
    ``pool.query_batch_topk(result, k)`` picks as without it. It takes
    effect on the linearized baseline.
    """
    return score_mlmoc(lookahead.lookahead_batch(state, candidates), baseline, picks)


def score_mlmoc(ctx, baseline="linearized", picks=None):
    """mlmoc scores of a LookaheadBatch: the change table at the argmax label."""
    labels = _argmax_labels(ctx.outputs)
    return _expected_scores(ctx, _change_table(ctx, baseline, labels, picks), labels, 0.0)


def emoc(state, candidates, baseline="linearized", picks=None):
    """Expected model output change over all hypothetical labels.

    The expectation weights each class label by the softmax of the current
    network output at the candidate; each label's change is mlmoc's for it.
    ``picks`` as in ``mlmoc``.
    """
    return score_emoc(lookahead.lookahead_batch(state, candidates), baseline, picks)


def score_emoc(ctx, baseline="linearized", picks=None):
    """emoc scores of a LookaheadBatch: the change table's softmax expectation."""
    probs = softmax(ctx.outputs)
    return _expected_scores(ctx, _change_table(ctx, baseline, probs, picks), probs, 0.0)


def eer_lin(state, candidates):
    """Negative expected post-acquisition entropy over the candidate batch.

    Look-ahead predictions are mapped to probabilities with a softmax at
    temperature 1; the score is minus the expected (over the candidate's
    softmax label distribution) sum of predictive entropies. Degenerate
    candidates leave the model unchanged and score minus the current sum."""
    return score_eer_lin(lookahead.lookahead_batch(state, candidates))


def score_eer_lin(ctx):
    """eer_lin scores of a LookaheadBatch: the negated entropy table's softmax expectation."""
    current = -float(np.sum(entropy(softmax(ctx.shift_base))))
    return _expected_scores(ctx, -_label_table(ctx, "entropy"), softmax(ctx.outputs), current)


def _nonempty(rows):
    """Checked candidate rows, or network outputs at them; ContractError if they hold no entry."""
    if rows.size == 0:
        raise ContractError("candidate set is empty")
    return rows


def entropy_score(outputs):
    """Predictive entropy of softmax(outputs) per candidate row."""
    outputs = _nonempty(linalg.as_matrix(outputs))
    return AcquisitionResult.from_scores(entropy(softmax(outputs)), _argmax_labels(outputs))


def margin_score(outputs):
    """Negative top-2 softmax gap (small gap = high score)."""
    outputs = _nonempty(linalg.as_matrix(outputs))
    probs = np.sort(softmax(outputs), axis=1)
    gap = probs[:, -1] - probs[:, -2] if probs.shape[1] > 1 else probs[:, -1]
    return AcquisitionResult.from_scores(-gap, _argmax_labels(outputs))


def random_score(seed, count):
    """Seeded uniform scores; identical seeds give identical vectors."""
    if count < 1:
        raise ContractError("candidate set is empty")
    return AcquisitionResult.from_scores(
        np.random.default_rng(seed).uniform(size=count)
    )


def naive_sgd_oracle(params, labeled, candidate, retrain_cfg):
    """Parameters after really retraining with SGD on one more labeled point.

    ``candidate`` is (x, one-hot label). Copies the parameters and
    warm-starts on the labeled set plus that point for the configured
    epochs. Zero epochs return the copy unstepped.
    """
    x_cand, y_cand = candidate
    aug = data_mod.make_dataset(
        np.vstack([labeled.inputs, np.reshape(x_cand, (1, -1))]),
        np.append(labeled.labels, np.argmax(y_cand)),
        labeled.class_count,
        labeled.name,
    )
    return net.train_sgd(params, aug, retrain_cfg)


def naive_change_scores(params, labeled, candidates, retrain_cfg):
    """Most-likely-label change scores computed by actual SGD retraining.

    The retraining analogue of mlmoc: for each candidate, pseudo-label it
    with the network argmax, retrain a copy, and sum the l2 output change
    over the candidate batch. The ``mlmoc-naive`` strategy; with one epoch
    and a full-size minibatch it is the reference that
    ``one_step_change_scores`` computes in closed form.
    """
    candidates = _nonempty(net._check_input(params, candidates)[0])
    outputs = net.forward(params, candidates)
    labels = _argmax_labels(outputs)
    scores = np.zeros(len(candidates))
    for i, x_cand in enumerate(candidates):
        retrained = naive_sgd_oracle(params, labeled, (x_cand, labels[i]), retrain_cfg)
        after = net.forward(retrained, candidates)
        scores[i] = float(np.sum(np.linalg.norm(after - outputs, axis=1)))
    return AcquisitionResult.from_scores(scores, labels)


def one_step_change_scores(params, labeled, candidates, learning_rate):
    """Most-likely-label change scores after one full-batch gradient step.

    For each candidate, pseudo-labeled with the network argmax, the
    summed l2 output change over the candidate batch after one SGD step
    on the labeled set plus that candidate: ``naive_change_scores`` with
    one epoch and a minibatch holding every row, up to rounding, without
    retraining a copy per candidate.

    The step is theta - lr * grad L_labeled - lr * grad l_c, every delta
    taken at theta. The labeled part is ``net.train_sgd``'s one full-batch
    step on the labeled set, taken once as the base parameters. The
    candidate's own part is rank one per layer, lr / sqrt(n_l) *
    outer(a_l(c), g_l(c)) for the weights and lr * beta * g_l(c) for the
    biases, so at the reference rows the stepped layer's pre-activations
    are the base layer's less lr * (a . a_l(c) / n_l + beta^2) g_l(c).
    Layer 0's input is shared, so its base pre-activations are formed
    once. A learning rate that ``net.TrainConfig`` rejects, and empty or
    non-finite candidate sets, raise ContractError; a non-finite loss of
    the labeled set (from ``net.train_sgd``) or of a candidate raises
    DivergenceError (epoch 1), as ``net.train_sgd`` would on their union.
    """
    step = net.TrainConfig(learning_rate, epochs=1, minibatch_size=max(len(labeled), 1))
    x = _nonempty(net._check_input(params, candidates)[0])
    base = net.train_sgd(params, labeled, step)
    cfg = params.config
    acts, preacts = net._forward_trace(params, x)
    outputs = acts[-1]
    labels = _argmax_labels(outputs)
    own = outputs - labels
    with np.errstate(over="ignore"):  # a blown-up loss reads inf
        losses = 0.5 * np.sum(own * own, axis=1)
    diverged = np.flatnonzero(~np.isfinite(losses))
    if diverged.size:
        i = diverged[0]
        raise DivergenceError(
            f"training diverged at epoch 1: loss {losses[i]:.3e} at candidate {i}", epoch=1
        )

    deltas = net._backprop(params, preacts, own)
    first = net._layer(base, 0, x)
    beta2 = cfg.beta**2
    scores = np.zeros(len(x))
    for i in range(len(x)):
        h = first - np.outer(learning_rate * (x @ x[i] / cfg.widths[0] + beta2), deltas[0][i])
        for l in range(1, cfg.n_layers):
            a = net._act(cfg.nonlinearity, h)
            shift = learning_rate * (a @ acts[l][i] / cfg.widths[l] + beta2)
            h = net._layer(base, l, a) - np.outer(shift, deltas[l][i])
        scores[i] = float(np.sum(np.linalg.norm(h - outputs, axis=1)))
    return AcquisitionResult.from_scores(scores, labels)
