"""Tangent-kernel Gram matrices and the cached labeled-set state.

The empirical kernel of a network at its current parameters is the Gram
matrix of per-example gradients of the first output logit:

    k(x, y) = <d f1(x)/d theta, d f1(y)/d theta>

shared across logits (the full multi-logit kernel is this scalar kernel
Kronecker the identity, and is never materialized). Because each
per-layer gradient block is a rank-one outer product of a forward
activation and a backward delta, the Gram contracts layer by layer
without ever forming the length-P feature vectors:

    k(x, y) = sum_l ( <a_l(x), a_l(y)>/n_l + beta^2 ) * <d_l(x), d_l(y)>

Every symmetric block, k(q, q) - W^T W, is contracted by one loop,
``FeatureBatch.gram_chunks``: row chunks of its upper triangle, each
diagonal block mirrored from its own upper triangle. The labeled Gram
that a state factorizes, the candidates' posterior covariance that
``lookahead`` reads and the block ``augment_state`` adds all come from it.

The module also carries the analytic wide-limit kernel for relu/erf
networks, used as a drop-in replacement to study how look-ahead behaves
when the kernel ignores the trained parameters.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from . import linalg, net
from .errors import ContractError, ShapeError, UnsupportedActivationError

__all__ = [
    "KernelState",
    "FeatureBatch",
    "empirical_ntk",
    "build_state",
    "build_state_xy",
    "infinite_ntk_fc",
]


# Rows of an (m, n) kernel block contracted at a time, so that a pass
# over one needs only (CHUNK_ROWS, n) temporaries besides it.
CHUNK_ROWS = 256


def _contract(factors_a, factors_b, rows, cols, config, out):
    """Add the Gram block of factor rows a[rows] and b[cols] to out.

    The output layer's deltas are the first-logit unit rows e_1, so their
    Gram is exactly 1.0 and is not formed.
    """
    b2 = config.beta * config.beta
    output_layer = len(factors_a) - 1
    for l, ((aa, da), (ab, db)) in enumerate(zip(factors_a, factors_b)):
        term = aa[rows] @ ab[cols].T
        term /= config.widths[l]
        term += b2
        if l < output_layer:
            term *= da[rows] @ db[cols].T
        out += term
    return out


def _contract_factors(factors_a, factors_b, config):
    """Cross Gram block of two factorized gradient stacks, contracted in row chunks."""
    gram = np.zeros((len(factors_a[0][0]), len(factors_b[0][0])))
    for start in range(0, len(gram), CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        _contract(factors_a, factors_b, rows, slice(None), config, gram[rows])
    return gram


def empirical_ntk(params, a, b=None):
    """Gram matrix of first-logit gradients, shape (len(a), len(b)).

    ``b=None`` or ``b is a`` reuses ``a``: one factor pass, and the exactly
    symmetric ``FeatureBatch.gram``. Non-finite rows raise ContractError.
    """
    features = FeatureBatch(params, a)
    if b is None or b is a:
        return features.gram()
    other = FeatureBatch(params, b)
    return _contract_factors(features.factors, other.factors, params.config)


@dataclass(frozen=True)
class KernelState:
    """Everything the look-ahead machinery needs about the labeled set.

    Immutable; augmentation produces a new state. ``solved_residual`` is
    K^{-1} (Y - f(X)) with K the (jittered) labeled-set Gram matrix, so a
    converged linearized prediction at q is f(q) + k(q, X) @ solved_residual.
    """

    params: net.MlpParams
    inputs: np.ndarray  # (L, n_0)
    targets: np.ndarray  # (L, C) one-hot
    residual: np.ndarray  # (L, C) targets minus the network outputs at build
    factor: linalg.CholeskyFactor
    solved_residual: np.ndarray  # (L, C)
    kernel_fn: object = None  # None means the empirical kernel of params
    factor_cache: tuple = None  # factorized labeled-set gradients (empirical kernel only)

    @property
    def labeled_count(self):
        return self.inputs.shape[0]

    def features(self, q):
        """One gradient-factor pass over query rows q under this state's kernel; see FeatureBatch."""
        return FeatureBatch(self.params, q, self.kernel_fn)

    def kernel_rows(self, q):
        """Cross-kernel k(q, X), shape (len(q), L)."""
        return self.features(q).cross(self)


@dataclass(frozen=True)
class FeatureBatch:
    """Query rows q under a network's kernel and what one gradient-factor
    pass over them gives: k(q, X) against a state, k(q, q), its symmetric
    blocks and the network outputs. Constructing one makes the pass, after
    ``linalg.as_matrix`` checks the rows. A ``kernel_fn`` batch has no
    factors; it calls kernel_fn and ``forward``.
    """

    params: net.MlpParams
    rows: np.ndarray  # (n, n_0)
    kernel_fn: object = None  # None means the empirical kernel of params
    factors: tuple = field(init=False)  # per-layer (activation, delta) of the rows, or None

    def __post_init__(self):
        rows = linalg.as_matrix(self.rows)
        object.__setattr__(self, "rows", rows)
        factors = None if self.kernel_fn is not None else tuple(net.grad_factors(self.params, rows))
        object.__setattr__(self, "factors", factors)

    def outputs(self):
        """Network outputs at the rows, bitwise equal to ``net.forward``."""
        if self.factors is None:
            return np.atleast_2d(net.forward(self.params, self.rows))
        return net.factor_outputs(self.params, self.factors)

    def cross(self, state):
        """k(q, X) against a state's labeled rows X, shape (n, L)."""
        if self.factors is None:
            return self.kernel_fn(self.params, self.rows, state.inputs)
        return _contract_factors(self.factors, state.factor_cache, self.params.config)

    def diag(self):
        """k(q_i, q_i), shape (n,)."""
        cfg, q = self.params.config, self.rows
        if self.factors is None:
            # One call per diagonal block of CHUNK_ROWS rows. infinite_ntk_fc
            # gives coincident rows the diagonal recursion's value, so this
            # equals one-row calls bitwise.
            chunks = np.split(q, range(CHUNK_ROWS, len(q), CHUNK_ROWS))
            return np.concatenate([np.diagonal(self.kernel_fn(self.params, c, c)) for c in chunks])
        diag, b2 = 0.0, cfg.beta * cfg.beta
        for l, (a, d) in enumerate(self.factors):
            diag = diag + (np.sum(a * a, axis=1) / cfg.widths[l] + b2) * np.sum(d * d, axis=1)
        return diag

    def astype(self, dtype):
        """This empirical-kernel batch with its factors cast to ``dtype``,
        without a new factor pass."""
        batch = copy.copy(self)
        factors = tuple((a.astype(dtype), d.astype(dtype)) for a, d in self.factors)
        object.__setattr__(batch, "factors", factors)
        return batch

    def add_block(self, rows, cols, out):
        """Add k(q[rows], q[cols]), for slices or index arrays of the rows, to out,
        in the dtype of out."""
        if self.factors is None:
            out += self.kernel_fn(self.params, self.rows[rows], self.rows[cols])
            return out
        return _contract(self.factors, self.factors, rows, cols, self.params.config, out)

    def gram_chunks(self, w=None, out=None):
        """Upper-triangle row chunks (start, stop, G[start:stop, start:]) of
        G = k(q, q) - W^T W, with no W term when ``w`` is None.

        A chunk is formed in place in a given zeroed (n, n) ``out``, or else
        in a new array that the caller may overwrite, of the factors' dtype
        (float64 for a ``kernel_fn`` batch); ``w`` should share it. Diagonal
        blocks are taken from their upper triangle, so a mirror below the
        diagonal is exact.
        """
        n = len(self.rows)
        dtype = np.float64 if self.factors is None else self.factors[0][0].dtype
        for start in range(0, n, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n)
            rows, cols = slice(start, stop), slice(start, n)
            chunk = np.zeros((stop - start, n - start), dtype) if out is None else out[rows, cols]
            self.add_block(rows, cols, chunk)
            if w is not None:
                chunk -= w[:, rows].T @ w[:, cols]
            diag = chunk[:, : stop - start]
            diag[...] = np.triu(diag) + np.triu(diag, 1).T
            yield start, stop, chunk

    def gram(self, w=None):
        """G of ``gram_chunks`` as one exactly symmetric (n, n) array: each
        chunk formed in place, then mirrored."""
        gram = np.zeros((len(self.rows),) * 2)
        for start, stop, chunk in self.gram_chunks(w, gram):
            gram[stop:, start:stop] = chunk[:, stop - start :].T
        return gram


def build_state_xy(params, inputs, targets, kernel_fn=None):
    """Assemble a KernelState from raw input/target arrays.

    The labeled Gram is ``FeatureBatch.gram`` of the labeled rows. An
    empirical-kernel state keeps their gradient factors, so later kernel
    rows cost one factor pass over the query rows only. Raises
    ContractError for non-finite rows, ShapeError unless y is (L, outputs).
    """
    x, y = linalg.as_matrix(inputs), linalg.as_matrix(targets)
    if len(x) < 1:
        raise ContractError("labeled set is empty")
    if y.shape != (len(x), params.config.output_dim):
        raise ShapeError(f"targets {y.shape}, expected ({len(x)}, {params.config.output_dim})")
    features = FeatureBatch(params, x, kernel_fn)
    factor = linalg.cholesky(features.gram())
    residual = y - features.outputs()
    return KernelState(
        params=params,
        inputs=features.rows,
        targets=y,
        residual=residual,
        factor=factor,
        solved_residual=linalg.chol_solve(factor, residual),
        kernel_fn=kernel_fn,
        factor_cache=features.factors,
    )


def build_state(params, labeled, kernel_fn=None):
    """KernelState for a labeled Dataset (inputs + one-hot targets)."""
    return build_state_xy(params, labeled.inputs, labeled.one_hot, kernel_fn)


# --- analytic wide-limit kernel ------------------------------------------


def _relu_dual(kaa, kbb, kab):
    norm = np.sqrt(np.maximum(np.outer(kaa, kbb), 1e-300))
    cos = np.clip(kab / norm, -1.0, 1.0)
    theta = np.arccos(cos)
    ew = norm / (2.0 * np.pi) * (np.sin(theta) + (np.pi - theta) * cos)
    ed = (np.pi - theta) / (2.0 * np.pi)
    return ew, ed


def _relu_dual_diag(k):
    return 0.5 * k, np.full_like(k, 0.5)


def _erf_dual(kaa, kbb, kab):
    denom = np.outer(1.0 + 2.0 * kaa, 1.0 + 2.0 * kbb)
    ew = (2.0 / np.pi) * np.arcsin(np.clip(2.0 * kab / np.sqrt(denom), -1.0, 1.0))
    ed = (4.0 / np.pi) / np.sqrt(np.maximum(denom - 4.0 * kab * kab, 1e-300))
    return ew, ed


def _erf_dual_diag(k):
    ew = (2.0 / np.pi) * np.arcsin(2.0 * k / (1.0 + 2.0 * k))
    return ew, (4.0 / np.pi) / np.sqrt(1.0 + 4.0 * k)


# Nonlinearities with closed-form Gaussian expectations: (dual, diagonal dual).
_DUALS = {"relu": (_relu_dual, _relu_dual_diag), "erf": (_erf_dual, _erf_dual_diag)}
INFINITE_NTK_NONLINEARITIES = tuple(_DUALS)


def _coincident(a, b):
    """Index arrays (rows, cols) of the pairs where a[i] and b[j] are bitwise equal."""
    index = {}
    for i, row in enumerate(a):
        index.setdefault(row.tobytes(), []).append(i)
    pairs = [(i, j) for j, row in enumerate(b) for i in index.get(row.tobytes(), ())]
    return tuple(np.array(pairs, dtype=np.intp).reshape(-1, 2).T)


def infinite_ntk_fc(config, a, b):
    """Closed-form wide-limit tangent kernel for the configured architecture.

    Runs the standard layerwise recursion for fully-connected networks:
    starting from S1(x,y) = <x,y>/n_0 + beta^2, each layer maps S through
    the nonlinearity's Gaussian expectation E[s(u)s(v)] (plus beta^2) while
    the tangent kernel accumulates T_{l+1} = S_{l+1} + T_l * E[s'(u)s'(v)].
    Only INFINITE_NTK_NONLINEARITIES have the closed-form expectations
    used here.

    Identical rows of a and b take the values of the diagonal recursion,
    so k(x, x) does not depend on the batch it is evaluated in (the general
    recursion would recover it from a rounded angle).
    """
    if config.nonlinearity not in INFINITE_NTK_NONLINEARITIES:
        raise UnsupportedActivationError(
            f"no closed-form wide-limit kernel for {config.nonlinearity!r}"
        )
    dual, dual_diag = _DUALS[config.nonlinearity]
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != config.input_dim or b.shape[1] != config.input_dim:
        raise ShapeError(
            f"kernel inputs have dims {a.shape[1]}/{b.shape[1]}, expected "
            f"{config.input_dim}"
        )
    n0 = config.widths[0]
    b2 = config.beta**2
    s_ab = a @ b.T / n0 + b2
    s_aa = np.sum(a * a, axis=1) / n0 + b2
    s_bb = np.sum(b * b, axis=1) / n0 + b2
    theta = s_ab.copy()
    theta_aa = s_aa.copy()
    for _ in range(config.n_layers - 1):
        ew, ed = dual(s_aa, s_bb, s_ab)
        s_ab = ew + b2
        theta = s_ab + theta * ed
        ew_aa, ed_aa = dual_diag(s_aa)
        s_aa = ew_aa + b2
        theta_aa = s_aa + theta_aa * ed_aa
        s_bb = dual_diag(s_bb)[0] + b2
    rows, cols = _coincident(a, b)
    theta[rows, cols] = theta_aa[rows]
    return theta
