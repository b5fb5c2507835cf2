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

The module also carries the analytic wide-limit kernel for relu/erf
networks, used as a drop-in replacement to study how look-ahead behaves
when the kernel ignores the trained parameters.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, net
from .errors import ContractError, ShapeError, UnsupportedActivationError

__all__ = [
    "KernelState",
    "empirical_ntk",
    "build_state",
    "build_state_xy",
    "infinite_ntk_fc",
]


# Rows of the output contracted at a time. The temporaries are two
# (rows, n) products, so a block costs little more than its own memory.
_CONTRACT_CHUNK_ROWS = 256


def _contract_factors(factors_a, factors_b, widths, beta):
    """Gram block from two factorized gradient stacks.

    Row chunks are accumulated in place into the preallocated output.
    When both stacks are the same object the block is symmetric: each
    chunk is contracted from its diagonal onwards and mirrored.
    """
    symmetric = factors_a is factors_b
    m, n = len(factors_a[0][0]), len(factors_b[0][0])
    gram = np.zeros((m, n))
    b2 = beta * beta
    for start in range(0, m, _CONTRACT_CHUNK_ROWS):
        stop = start + _CONTRACT_CHUNK_ROWS
        rows = slice(start, stop)
        cols = slice(start, n) if symmetric else slice(0, n)
        out = gram[rows, cols]
        for l, ((aa, da), (ab, db)) in enumerate(zip(factors_a, factors_b)):
            term = aa[rows] @ ab[cols].T
            term /= widths[l]
            term += b2
            term *= da[rows] @ db[cols].T
            out += term
        if symmetric:
            gram[stop:, rows] = gram[rows, stop:].T
    return gram


def empirical_ntk(params, a, b=None, method="factors"):
    """Gram matrix of first-logit gradients, shape (len(a), len(b)).

    ``b=None`` or ``b is a`` reuses ``a`` (symmetric case).
    ``method="factors"`` is the fast layerwise contraction, with one factor
    pass in the symmetric case; ``method="features"`` materializes the
    flat per-example gradient vectors and dots them, which is what the
    factorized path must reproduce (used as a cross-check in tests).
    """
    symmetric = b is None or b is a
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if a.shape[1] != params.config.input_dim:
        raise ShapeError(
            f"kernel inputs have dim {a.shape[1]}, network expects "
            f"{params.config.input_dim}"
        )
    b_arr = a if symmetric else np.atleast_2d(np.asarray(b, dtype=np.float64))
    if b_arr.shape[1] != params.config.input_dim:
        raise ShapeError(
            f"kernel inputs have dim {b_arr.shape[1]}, network expects "
            f"{params.config.input_dim}"
        )
    if method == "features":
        fa = np.stack([net.grad_first_logit(params, row) for row in a])
        fb = fa if symmetric else np.stack(
            [net.grad_first_logit(params, row) for row in b_arr]
        )
        return np.array(
            [[float(np.dot(fa[i], fb[j])) for j in range(len(fb))] for i in range(len(fa))]
        )
    if method != "factors":
        raise ContractError(f"unknown kernel method {method!r}")
    factors_a = net.grad_factors(params, a)
    factors_b = factors_a if symmetric else net.grad_factors(params, b_arr)
    return _contract_factors(
        factors_a, factors_b, params.config.widths, params.config.beta
    )


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
    net_outputs: np.ndarray  # (L, C) raw network outputs, frozen at build
    residual: np.ndarray  # (L, C) targets - net_outputs
    gram: np.ndarray  # (L, L)
    factor: linalg.CholeskyFactor
    solved_residual: np.ndarray  # (L, C)
    kernel_fn: object = None  # None means the empirical kernel of params
    factor_cache: tuple = None  # factorized labeled-set gradients (empirical kernel only)
    jitter_policy: linalg.JitterPolicy = linalg.DEFAULT_JITTER

    @property
    def labeled_count(self):
        return self.inputs.shape[0]

    @property
    def class_count(self):
        return self.targets.shape[1]

    def kernel_rows(self, q):
        """Cross-kernel k(q, X), shape (len(q), L)."""
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        if self.kernel_fn is not None:
            return self.kernel_fn(self.params, q, self.inputs)
        cfg = self.params.config
        return _contract_factors(
            net.grad_factors(self.params, q), self.factor_cache, cfg.widths, cfg.beta
        )

    def kernel_diag(self, q):
        """Self-kernel values k(q_i, q_i), shape (len(q),)."""
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        if self.kernel_fn is not None:
            return np.array(
                [self.kernel_fn(self.params, row[None, :], row[None, :])[0, 0] for row in q]
            )
        cfg = self.params.config
        factors = net.grad_factors(self.params, q)
        diag = 0.0
        b2 = cfg.beta * cfg.beta
        for l, (a, d) in enumerate(factors):
            diag = diag + (np.sum(a * a, axis=1) / cfg.widths[l] + b2) * np.sum(
                d * d, axis=1
            )
        return diag

    def kernel_block(self, a, b):
        """Kernel values between two arbitrary row sets, shape (len(a), len(b))."""
        if self.kernel_fn is not None:
            return self.kernel_fn(self.params, a, b)
        return empirical_ntk(self.params, a, b)


def build_state_xy(
    params, inputs, targets, kernel_fn=None, jitter_policy=linalg.DEFAULT_JITTER
):
    """Assemble a KernelState from raw input/target arrays.

    An empirical-kernel state keeps the labeled set's gradient factors, so
    later kernel rows cost one factor pass over the query rows only.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if len(x) < 1:
        raise ContractError("labeled set is empty")
    if len(x) != len(y):
        raise ShapeError(f"{len(x)} inputs vs {len(y)} target rows")

    cache = None
    if kernel_fn is None:
        cache = tuple(net.grad_factors(params, x))
        cfg = params.config
        gram = _contract_factors(cache, cache, cfg.widths, cfg.beta)
    else:
        gram = kernel_fn(params, x, x)
    # Contracting G G^T can leave the Gram asymmetric at machine precision.
    gram = 0.5 * (gram + gram.T)
    factor = linalg.cholesky(gram, jitter_policy)
    outputs = np.atleast_2d(net.forward(params, x))
    residual = y - outputs
    solved = linalg.chol_solve(factor, residual)
    return KernelState(
        params=params,
        inputs=x,
        targets=y,
        net_outputs=outputs,
        residual=residual,
        gram=gram,
        factor=factor,
        solved_residual=solved,
        kernel_fn=kernel_fn,
        factor_cache=cache,
        jitter_policy=jitter_policy,
    )


def build_state(params, labeled, **kwargs):
    """KernelState for a labeled Dataset (inputs + one-hot targets)."""
    one_hot = labeled.one_hot
    rows_ok = np.all(np.sum(one_hot, axis=1) == 1.0) and np.all(
        np.isin(one_hot, (0.0, 1.0))
    )
    if not rows_ok:
        raise ContractError("labeled targets must be one-hot rows in {0,1}")
    return build_state_xy(params, labeled.inputs, one_hot, **kwargs)


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
    Only relu and erf have the closed-form expectations used here.

    Identical rows of a and b take the values of the diagonal recursion,
    so k(x, x) does not depend on the batch it is evaluated in (the general
    recursion would recover it from a rounded angle).
    """
    if config.nonlinearity == "relu":
        dual, dual_diag = _relu_dual, _relu_dual_diag
    elif config.nonlinearity == "erf":
        dual, dual_diag = _erf_dual, _erf_dual_diag
    else:
        raise UnsupportedActivationError(
            f"no closed-form wide-limit kernel for {config.nonlinearity!r}"
        )
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
