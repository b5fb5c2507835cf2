"""Slow, obviously-correct reference implementations used by the tests.

None of these is on a path the package runs: each one spells out a
quantity the package computes another way, so tests can cross-check it.

- ``flat`` / ``params_from_flat``: parameters as one vector in the fixed
  order W0, b0, W1, b1, ... (finite differences, zero networks).
- ``grad_first_logit``: the flat per-example gradient of logit 1, built
  from ``net.grad_factors``.
- ``empirical_ntk_features``: the kernel as literal dots of those flat
  gradients, which ``kernel.empirical_ntk``'s layerwise contraction must
  reproduce.
- ``change_norms``: reference-summed change norms of a look-ahead batch
  from the whole (n, n, C) change tensor, for one label per candidate.
- ``emoc_scores`` / ``eer_lin_scores``: the look-ahead expectations over
  every hypothetical label, one label (emoc) or one candidate (eer_lin)
  at a time, with a full C-vector of look-ahead logits per label. The
  package derives all labels from shared sums instead.
  ``eer_lin_scores_longdouble`` evaluates the same float64 look-ahead
  logits in long double, for softmaxes saturated below one ulp of 1.
- ``write_idx_images`` / ``write_idx_labels``: IDX writers, so the MNIST
  loader can be tested on round-tripped files.
"""

import struct

import numpy as np

from ntkal import acquire, data, net
from ntkal.errors import ShapeError


def flat(params):
    """Parameters flattened in the fixed order W0, b0, W1, b1, ..."""
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def params_from_flat(config, flat):
    """Inverse of ``flat``."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (config.param_count,):
        raise ShapeError(
            f"expected {config.param_count} parameters, got {flat.shape}"
        )
    weights, biases, pos = [], [], 0
    for l in range(config.n_layers):
        n_in, n_out = config.widths[l], config.widths[l + 1]
        weights.append(flat[pos : pos + n_in * n_out].reshape(n_in, n_out))
        pos += n_in * n_out
        biases.append(flat[pos : pos + n_out])
        pos += n_out
    return net.MlpParams(config=config, weights=tuple(weights), biases=tuple(biases))


def grad_first_logit(params, x):
    """Exact gradient of output neuron 1 w.r.t. all parameters, flattened.

    Flat order matches ``flat``: W0, b0, W1, b1, ...
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        x = x.reshape(-1)
    factors = net.grad_factors(params, x.reshape(1, -1))
    cfg = params.config
    parts = []
    for l, (a, d) in enumerate(factors):
        parts.append(np.outer(a[0], d[0]).ravel() / np.sqrt(cfg.widths[l]))
        parts.append(cfg.beta * d[0])
    return np.concatenate(parts)


def empirical_ntk_features(params, a, b=None):
    """Gram matrix of first-logit gradients from materialized flat vectors."""
    symmetric = b is None or b is a
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b_arr = a if symmetric else np.atleast_2d(np.asarray(b, dtype=np.float64))
    fa = np.stack([grad_first_logit(params, row) for row in a])
    fb = fa if symmetric else np.stack([grad_first_logit(params, row) for row in b_arr])
    return np.array(
        [[float(np.dot(fa[i], fb[j])) for j in range(len(fb))] for i in range(len(fa))]
    )


def change_norms(batch, labels_onehot, baseline):
    """Per-candidate l2 change norms summed over the candidates, (n,)."""
    shift = batch.shift_base - labels_onehot
    if baseline == "linearized":
        return np.sum(np.abs(batch.gains), axis=0) * np.linalg.norm(shift, axis=1)
    offset = batch.shift_base - batch.outputs
    changes = offset[:, None, :] + batch.gains[:, :, None] * shift[None, :, :]
    return np.sum(np.sqrt(np.sum(changes * changes, axis=2)), axis=0)


def emoc_scores(batch, baseline):
    """Softmax-weighted change norms, one hypothetical label at a time."""
    n, c = batch.outputs.shape
    probs = acquire.softmax(batch.outputs)
    scores = np.zeros(n)
    for cls in range(c):
        label = np.zeros((n, c))
        label[:, cls] = 1.0
        scores += probs[:, cls] * change_norms(batch, label, baseline)
    return np.where(batch.degenerate, 0.0, scores)


def eer_lin_scores(batch):
    """Minus the expected look-ahead entropy sum, one candidate at a time."""
    n, c = batch.outputs.shape
    probs = acquire.softmax(batch.outputs)
    current = float(np.sum(acquire.entropy(acquire.softmax(batch.shift_base))))
    scores = np.zeros(n)
    for i in range(n):
        if batch.degenerate[i]:
            scores[i] = -current
            continue
        shift = batch.shift_base[i][None, :] - np.eye(c)  # (C, C), rows per label
        # predictions[label, ref, class]
        preds = batch.shift_base[None, :, :] + batch.gains[:, i][None, :, None] * shift[:, None, :]
        ent = np.sum(acquire.entropy(acquire.softmax(preds)), axis=1)  # (C,)
        scores[i] = -float(probs[i] @ ent)
    return scores


def _entropy_longdouble(logits):
    """Softmax entropy along the last axis in long double.

    The maximum's term of the exp-sum is exactly 1; the others are summed
    on their own, so a saturated softmax keeps its entropy.
    """
    z = logits.astype(np.longdouble)
    z -= np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    others = e.copy()
    np.put_along_axis(others, np.argmax(z, axis=-1)[..., None], 0.0, axis=-1)
    r = np.sum(others, axis=-1)
    return np.log1p(r) - np.sum(e * z, axis=-1) / (1.0 + r)


def eer_lin_scores_longdouble(batch):
    """``eer_lin_scores`` with each entropy of the float64 look-ahead logits in long double."""
    n, c = batch.outputs.shape
    probs = acquire.softmax(batch.outputs).astype(np.longdouble)
    scores = np.zeros(n, dtype=np.longdouble)
    for i in range(n):
        shift = batch.shift_base[i][None, :] - np.eye(c)
        preds = batch.shift_base[None, :, :] + batch.gains[:, i][None, :, None] * shift[:, None, :]
        scores[i] = -np.sum(probs[i] * np.sum(_entropy_longdouble(preds), axis=1))
    return scores.astype(np.float64)


def write_idx_images(path, images_u8):
    """Write a (N, rows, cols) uint8 array as an IDX image file."""
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    n, rows, cols = images_u8.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(images_u8.tobytes())


def write_idx_labels(path, labels_u8):
    """Write a (N,) uint8 array as an IDX label file."""
    labels_u8 = np.asarray(labels_u8, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", data.IDX_LABEL_MAGIC, len(labels_u8)))
        f.write(labels_u8.tobytes())
