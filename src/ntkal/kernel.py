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
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from . import linalg, net
from .errors import ContractError, ShapeError

__all__ = ["KernelState", "FeatureBatch", "empirical_ntk", "build_state", "build_state_xy"]


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
    targets: np.ndarray  # (L, C) one-hot
    residual: np.ndarray  # (L, C) targets minus the network outputs at build
    factor: linalg.CholeskyFactor
    solved_residual: np.ndarray  # (L, C)
    factor_cache: tuple  # per-layer (activation, delta) of the labeled rows

    @property
    def inputs(self):
        """The labeled rows (L, n_0): the first layer's activations in ``factor_cache``."""
        return self.factor_cache[0][0]

    @property
    def labeled_count(self):
        return self.inputs.shape[0]

    def features(self, q):
        """One gradient-factor pass over query rows q; see FeatureBatch."""
        return FeatureBatch(self.params, q)

    def kernel_rows(self, q):
        """Cross-kernel k(q, X), shape (len(q), L)."""
        return self.features(q).cross(self)


@dataclass(frozen=True)
class FeatureBatch:
    """Query rows q under a network's kernel and what one gradient-factor
    pass over them gives: k(q, X) against a state, k(q, q), its symmetric
    blocks and the network outputs. Constructing one makes the pass, whose
    first activations are the rows as ``net.grad_factors`` checked them.
    """

    params: net.MlpParams
    rows: np.ndarray  # (n, n_0)
    factors: tuple = field(init=False)  # per-layer (activation, delta) of the rows

    def __post_init__(self):
        factors = tuple(net.grad_factors(self.params, self.rows))
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "rows", factors[0][0])

    def outputs(self):
        """Network outputs at the rows, bitwise equal to ``net.forward``."""
        return net.factor_outputs(self.params, self.factors)

    def cross(self, state):
        """k(q, X) against a state's labeled rows X, shape (n, L)."""
        return _contract_factors(self.factors, state.factor_cache, self.params.config)

    def diag(self):
        """k(q_i, q_i), shape (n,)."""
        cfg = self.params.config
        diag, b2 = 0.0, cfg.beta * cfg.beta
        for l, (a, d) in enumerate(self.factors):
            diag = diag + (np.sum(a * a, axis=1) / cfg.widths[l] + b2) * np.sum(d * d, axis=1)
        return diag

    def astype(self, dtype):
        """This batch with its factors cast to ``dtype``, without a new factor pass."""
        batch = copy.copy(self)
        factors = tuple((a.astype(dtype), d.astype(dtype)) for a, d in self.factors)
        object.__setattr__(batch, "factors", factors)
        return batch

    def add_block(self, rows, cols, out):
        """Add k(q[rows], q[cols]), for slices or index arrays of the rows, to out,
        in the dtype of out."""
        return _contract(self.factors, self.factors, rows, cols, self.params.config, out)

    def gram_chunks(self, w=None, out=None):
        """Upper-triangle row chunks (start, stop, G[start:stop, start:]) of
        G = k(q, q) - W^T W, with no W term when ``w`` is None.

        A chunk is formed in place in a given zeroed (n, n) ``out``, or else
        in a new array that the caller may overwrite, of the factors' dtype;
        ``w`` should share it. Diagonal blocks are taken from their upper
        triangle, so a mirror below the diagonal is exact.
        """
        n, dtype = len(self.rows), self.factors[0][0].dtype
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


def build_state_xy(params, inputs, targets):
    """Assemble a KernelState from raw input/target arrays.

    The labeled Gram is ``FeatureBatch.gram`` of the labeled rows. The
    state keeps their gradient factors, so later kernel rows cost one
    factor pass over the query rows only. Rows follow ``net._check_input``;
    raises ContractError for no rows or non-finite targets, ShapeError
    unless the targets are (L, outputs).
    """
    features, y = FeatureBatch(params, inputs), linalg.as_matrix(targets)
    n = len(features.rows)
    if n < 1:
        raise ContractError("labeled set is empty")
    if y.shape != (n, params.config.output_dim):
        raise ShapeError(f"targets {y.shape}, expected ({n}, {params.config.output_dim})")
    factor = linalg.cholesky(features.gram())
    residual = y - features.outputs()
    return KernelState(
        params=params,
        targets=y,
        residual=residual,
        factor=factor,
        solved_residual=linalg.chol_solve(factor, residual),
        factor_cache=features.factors,
    )


def build_state(params, labeled):
    """KernelState for a labeled Dataset (inputs + one-hot targets)."""
    return build_state_xy(params, labeled.inputs, labeled.one_hot)
