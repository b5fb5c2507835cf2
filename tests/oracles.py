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
- ``empirical_ntk_blocks``: the kernel as each layer's products over the
  whole block, summed, with no row chunks and no mirror, against which
  ``kernel.FeatureBatch.gram_chunks`` is checked.
- ``infinite_ntk_fc``: the analytic wide-limit kernel of relu and erf
  networks, which ``kernel.empirical_ntk`` approaches as the widths grow.
  ``relu_dual`` / ``erf_dual`` are its closed-form Gaussian expectations.
- ``table_state``: a KernelState whose kernel is a given PSD table over
  row ids, for hand-worked look-ahead examples.
- ``gains``: the (n, n) look-ahead gains of a batch, divided out of its
  dense posterior covariance whole; the package reads them in chunks.
- ``change_norms``: reference-summed change norms of a look-ahead batch
  from the whole (n, n, C) change tensor, for one label per candidate.
- ``emoc_scores`` / ``eer_lin_scores``: the look-ahead expectations over
  every hypothetical label, one label (emoc) or one candidate (eer_lin)
  at a time, with a full C-vector of look-ahead logits per label. The
  package derives all labels from shared sums instead.
  ``eer_lin_scores_longdouble`` evaluates the same float64 look-ahead
  logits in long double, for softmaxes saturated below one ulp of 1.
- ``squared_loss``: the full-data loss 0.5 * sum ||f - y||^2 by a fresh
  forward pass.
- ``train_sgd_reference``: minibatch SGD as separate forward, backward
  and update passes, checking divergence on the full-data loss after each
  epoch. Each weight step is a product a^T (delta * lr / sqrt(n_l)) from
  a beta = 0 dgemm, then a separate subtraction. ``net.train_sgd`` fuses
  the product and the subtraction into one beta = 1 dgemm, tracks the loss
  on its minibatches, and must return the same bits.
- ``write_idx_images`` / ``write_idx_labels``: IDX writers, so the MNIST
  loader can be tested on round-tripped files.
- ``jitter_ladder``: a context that swaps ``linalg.JITTER_LADDER``, so a
  test can force a jittered or an unjittered factorization.
"""

import contextlib
import struct

import numpy as np
from scipy.linalg import blas

from ntkal import acquire, data, kernel, linalg, net
from ntkal.errors import DivergenceError, ShapeError


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


def empirical_ntk_blocks(params, a, b=None):
    """k(a, b) as sum_l (A_l B_l^T / n_l + beta^2) * (D_l E_l^T) over whole
    blocks of ``net.grad_factors``; ``b=None`` means ``a``."""
    cfg = params.config
    fa = net.grad_factors(params, np.atleast_2d(a))
    fb = fa if b is None else net.grad_factors(params, np.atleast_2d(b))
    return sum(
        (aa @ ab.T / cfg.widths[l] + cfg.beta**2) * (da @ db.T)
        for l, ((aa, da), (ab, db)) in enumerate(zip(fa, fb))
    )


def relu_dual(kaa, kbb, kab):
    """E[relu(u) relu(v)] and E[relu'(u) relu'(v)], entry (i, j) for a centered
    Gaussian (u, v) with variances kaa[i], kbb[j] and covariance kab[i, j]."""
    norm = np.sqrt(np.maximum(np.outer(kaa, kbb), 1e-300))
    cos = np.clip(kab / norm, -1.0, 1.0)
    theta = np.arccos(cos)
    ew = norm / (2.0 * np.pi) * (np.sin(theta) + (np.pi - theta) * cos)
    ed = (np.pi - theta) / (2.0 * np.pi)
    return ew, ed


def erf_dual(kaa, kbb, kab):
    """``relu_dual`` for erf."""
    denom = np.outer(1.0 + 2.0 * kaa, 1.0 + 2.0 * kbb)
    ew = (2.0 / np.pi) * np.arcsin(np.clip(2.0 * kab / np.sqrt(denom), -1.0, 1.0))
    ed = (4.0 / np.pi) / np.sqrt(np.maximum(denom - 4.0 * kab * kab, 1e-300))
    return ew, ed


def infinite_ntk_fc(config, a, b):
    """Closed-form wide-limit tangent kernel of a relu or erf MLP, (len(a), len(b)).

    The standard layerwise recursion for fully-connected networks (Jacot
    et al. 2018), run over the rows of a and b together: from
    S_1(x, y) = <x, y>/n_0 + beta^2, each layer maps S through the
    nonlinearity's Gaussian expectation E[s(u) s(v)] (plus beta^2), while
    the tangent kernel accumulates T_{l+1} = S_{l+1} + T_l * E[s'(u) s'(v)].
    """
    dual = {"relu": relu_dual, "erf": erf_dual}[config.nonlinearity]
    a = np.atleast_2d(a)
    x = np.vstack([a, np.atleast_2d(b)])
    s = x @ x.T / config.widths[0] + config.beta**2
    theta = s
    for _ in range(config.n_layers - 1):
        ew, ed = dual(np.diag(s), np.diag(s), s)
        s = ew + config.beta**2
        theta = s + theta * ed
    return theta[: len(a), len(a) :]


def table_state(table, targets):
    """(state, rows): a KernelState whose kernel k(i, j) is ``table[i, j]``, a
    PSD table over row ids, and the input rows that stand for the ids.

    Row i is sqrt(n) chol(table)[i], an input of a zero one-layer identity
    network with beta = 0, whose kernel is <x, y>/n and whose outputs are
    zero. The labeled set is the first len(targets) rows.
    """
    table = np.asarray(table, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    rows = np.sqrt(len(table)) * np.linalg.cholesky(table)
    config = net.MlpConfig((len(table), targets.shape[1]), nonlinearity="identity", beta=0.0)
    params = params_from_flat(config, np.zeros(config.param_count))
    return kernel.build_state_xy(params, rows[: len(targets)], targets), rows


def squared_loss(params, inputs, targets):
    """0.5 * sum of squared output errors."""
    diff = net.forward(params, inputs) - targets
    return 0.5 * float(np.sum(diff * diff))


def _backprop(params, preacts, g_out):
    """Deltas of sum(g_out * f) at every layer's pre-activations, top layer first."""
    cfg = params.config
    deltas = [None] * cfg.n_layers
    g = g_out
    for l in range(cfg.n_layers - 1, -1, -1):
        deltas[l] = g
        if l > 0:
            g = (g @ params.weights[l].T) / np.sqrt(cfg.widths[l])
            g *= net._act_deriv(cfg.nonlinearity, preacts[l - 1])
    return deltas


def train_sgd_reference(params, data, cfg):
    """Minibatch SGD with gradients and updates as separate passes.

    The minibatch order is the one ``net.train_sgd`` draws. Divergence is
    checked on the full-data loss after each epoch against its value at
    the starting parameters. The weight product comes from the same BLAS
    dgemm that ``net.train_sgd`` calls, so the check compares fused against
    separate passes inside one library. The bits agree while a minibatch
    fits one depth block of that dgemm (up to 384 rows with OpenBLAS
    0.3.30 on an AVX-512 Xeon); a longer one is summed into W block by
    block.
    """
    x = np.asarray(data.inputs, dtype=np.float64)
    y = np.asarray(data.one_hot, dtype=np.float64)
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    work = net.MlpParams(params.config, tuple(weights), tuple(biases))

    n = len(x)
    rng = np.random.default_rng(cfg.shuffle_seed)
    initial_loss = squared_loss(work, x, y)
    divergence_bar = 1e6 * max(initial_loss, 1e-12)
    lr = cfg.learning_rate
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            batch = order[start : start + cfg.minibatch_size]
            acts, preacts = net._forward_trace(work, x[batch])
            g = acts[-1] - y[batch]
            for l, delta in enumerate(_backprop(work, preacts, g)):
                scaled = delta * (lr / np.sqrt(work.config.widths[l]))
                weights[l] -= blas.dgemm(1.0, scaled.T, acts[l].T, trans_b=1).T
                biases[l] -= lr * (work.config.beta * delta.sum(axis=0))
        loss = squared_loss(work, x, y)
        if not np.isfinite(loss) or loss > divergence_bar:
            raise DivergenceError(f"diverged at epoch {epoch + 1}", epoch=epoch + 1)
    return work


def gains(batch):
    """(n, n) gains -Sigma(r, c) / u_c of a batch, row r and column c, from its
    dense Sigma at the live positions; zero at degenerate columns. Fortran
    order, like Sigma, so whole-array sums run down contiguous columns."""
    batch = batch.dense()
    sigma = np.asfortranarray(batch.sigma[np.ix_(batch.live, batch.live)])
    return -sigma / np.where(batch.degenerate, np.inf, batch.schur + batch.jitter)


def change_norms(batch, labels_onehot, baseline):
    """Per-candidate l2 change norms summed over the candidates, (n,)."""
    shift = batch.shift_base - labels_onehot
    g = gains(batch)
    if baseline == "linearized":
        return np.sum(np.abs(g), axis=0) * np.linalg.norm(shift, axis=1)
    offset = batch.shift_base - batch.outputs
    changes = offset[:, None, :] + g[:, :, None] * shift[None, :, :]
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
    g = gains(batch)
    scores = np.zeros(n)
    for i in range(n):
        if batch.degenerate[i]:
            scores[i] = -current
            continue
        shift = batch.shift_base[i][None, :] - np.eye(c)  # (C, C), rows per label
        # predictions[label, ref, class]
        preds = batch.shift_base[None, :, :] + g[:, i][None, :, None] * shift[:, None, :]
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
    g = gains(batch)
    scores = np.zeros(n, dtype=np.longdouble)
    for i in range(n):
        shift = batch.shift_base[i][None, :] - np.eye(c)
        preds = batch.shift_base[None, :, :] + g[:, i][None, :, None] * shift[:, None, :]
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


@contextlib.contextmanager
def jitter_ladder(ladder):
    """Run the block with ``linalg.JITTER_LADDER`` set to ``ladder``."""
    saved = linalg.JITTER_LADDER
    linalg.JITTER_LADDER = tuple(ladder)
    try:
        yield
    finally:
        linalg.JITTER_LADDER = saved
