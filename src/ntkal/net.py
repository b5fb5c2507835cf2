"""Feed-forward network with tangent-kernel parameterization.

Weights and biases are drawn from the standard normal distribution; the
layer scaling 1/sqrt(n_l) and the bias scale beta live in the forward
pass, so pre-activations stay O(1) at any width:

    h[l+1] = a[l] @ W[l] / sqrt(n_l) + beta * b[l]

with the nonlinearity applied between layers and never at the output.
Forward, backward, and SGD are written directly in numpy so that
per-example gradients of the first output logit (the features behind the
empirical tangent kernel) are available in the factorized
activation/delta form used for fast Gram computation; the flat vectors
are never formed. SGD steps each layer's weights with one in-place BLAS
dgemm on the scaled deltas, so no weight-sized temporary is made.
``Evaluator`` labels fixed input rows from a float32 forward pass and
evaluates again in float64 the rows that its error bound leaves undecided.
"""

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm as _dgemm
from scipy.special import erf as _erf

from . import linalg
from .errors import ContractError, DivergenceError, ShapeError

__all__ = [
    "MlpConfig",
    "MlpParams",
    "TrainConfig",
    "init",
    "forward",
    "Evaluator",
    "grad_factors",
    "factor_outputs",
    "train_sgd",
]

_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)

# Each nonlinearity's Lipschitz constant: the most it stretches a distance.
_LIPSCHITZ = {"relu": 1.0, "erf": _TWO_OVER_SQRT_PI, "identity": 1.0}

NONLINEARITIES = ("relu", "erf", "identity")


def _integer(value, name, minimum=None):
    """``value`` as an int; ContractError unless it is an integer other than a
    bool, and at least ``minimum`` when one is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ContractError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _is_finite(value):
    """Whether ``value`` is a finite real number other than a bool."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and np.isfinite(value)


def _act(name, h):
    if name == "relu":
        return np.maximum(h, 0.0)
    if name == "erf":
        return _erf(h)
    return h


def _act_deriv(name, h):
    if name == "relu":
        return (h > 0.0).astype(np.float64)
    if name == "erf":
        return _TWO_OVER_SQRT_PI * np.exp(-h * h)
    return np.ones_like(h)


@dataclass(frozen=True)
class MlpConfig:
    """Architecture: layer widths n_0..n_L, nonlinearity, bias scale, seed."""

    widths: tuple
    nonlinearity: str = "relu"
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(_integer(w, "widths", 1) for w in self.widths))
        if len(self.widths) < 2:
            raise ContractError("need at least input and output widths")
        if self.nonlinearity not in NONLINEARITIES:
            raise ContractError(
                f"unknown nonlinearity {self.nonlinearity!r}; "
                f"choose from {NONLINEARITIES}"
            )
        if not _is_finite(self.beta) or self.beta < 0:
            raise ContractError(f"beta must be finite and >= 0, got {self.beta!r}")
        _integer(self.seed, "seed", 0)

    @property
    def input_dim(self):
        return self.widths[0]

    @property
    def output_dim(self):
        return self.widths[-1]

    @property
    def n_layers(self):
        return len(self.widths) - 1

    @property
    def param_count(self):
        return sum(
            (self.widths[l] + 1) * self.widths[l + 1] for l in range(self.n_layers)
        )


@dataclass(frozen=True)
class MlpParams:
    """Per-layer weight matrices (n_l x n_{l+1}) and bias vectors (n_{l+1},)."""

    config: MlpConfig
    weights: tuple
    biases: tuple


def init(config):
    """Fresh parameters, every entry i.i.d. standard normal from the seed."""
    rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    for l in range(config.n_layers):
        weights.append(rng.standard_normal((config.widths[l], config.widths[l + 1])))
        biases.append(rng.standard_normal(config.widths[l + 1]))
    return MlpParams(config=config, weights=tuple(weights), biases=tuple(biases))


def _check_input(params, x):
    """The one input-row rule: x as a 2-D float64 array (a 1-D x is one row)
    and whether it was 1-D; ShapeError unless it has the network's input
    width, ContractError if an entry is not finite (``linalg.as_matrix``)."""
    single = np.ndim(x) == 1
    x = linalg.as_matrix(x)
    if x.shape[1] != params.config.input_dim:
        raise ShapeError(
            f"input has shape {x.shape}, network expects (batch, {params.config.input_dim})"
        )
    return x, single


def _layer(params, l, a):
    """Pre-activations of layer l for its input activations a."""
    cfg = params.config
    return a @ params.weights[l] / np.sqrt(cfg.widths[l]) + cfg.beta * params.biases[l]


def _forward_trace(params, x):
    """Forward pass keeping activations and pre-activations for backprop."""
    cfg = params.config
    acts = [x]
    preacts = []
    a = x
    for l in range(cfg.n_layers):
        h = _layer(params, l, a)
        preacts.append(h)
        a = _act(cfg.nonlinearity, h) if l + 1 < cfg.n_layers else h
        acts.append(a)
    return acts, preacts


def _backprop(params, preacts, g):
    """Deltas at every layer's pre-activations, from g at the output's.

    Entry l, shape (batch, n_{l+1}), is the derivative with respect to
    the pre-activations of layer l; g is entry n_layers - 1, and each
    entry below is (g @ W[l].T) / sqrt(n_l) * act'(h[l-1]) of the one
    above. ``preacts`` is the trace of ``_forward_trace``.
    """
    cfg = params.config
    deltas = [None] * cfg.n_layers
    deltas[-1] = g
    for l in range(cfg.n_layers - 1, 0, -1):
        g = (g @ params.weights[l].T) / np.sqrt(cfg.widths[l])
        g *= _act_deriv(cfg.nonlinearity, preacts[l - 1])
        deltas[l - 1] = g
    return deltas


def forward(params, x):
    """Network outputs, shape (batch, C); a 1-D input returns a 1-D output."""
    x, single = _check_input(params, x)
    acts, _ = _forward_trace(params, x)
    out = acts[-1]
    return out[0] if single else out


def _row_norms(a):
    """2-norms of the rows of a 2-D array, as float64."""
    return np.sqrt(np.einsum("ij,ij->i", a, a), dtype=np.float64)


class Evaluator:
    """The labels ``argmax(forward(params, x))`` of fixed input rows x, from a
    float32 pass with its undecided rows rechecked in float64.

    The rows are checked once by the input-row rule and kept as a float32
    copy with their float64 2-norms. ``labels(params)`` runs the forward pass
    in float32 and carries a bound on each row's distance from the float64
    pass through every layer (``_float32_pass``). A row is decided when its
    top output's lower bound exceeds every other output's upper bound;
    every other row, a non-finite one included, is evaluated again by
    ``forward``. So the labels equal ``np.argmax(forward(params, x), axis=1)``
    row for row, while the float32 products cost about half the float64 ones.
    """

    def __init__(self, params, x):
        x, _ = _check_input(params, x)
        self._x = x
        with np.errstate(over="ignore"):  # an overflow reads inf and is rechecked
            self._x32 = x.astype(np.float32)
            self._norms = _row_norms(x)

    def labels(self, params):
        """Each row's index of its largest output, shape (rows,)."""
        if params.config.input_dim != self._x.shape[1]:
            raise ShapeError(
                f"rows have width {self._x.shape[1]}, network expects {params.config.input_dim}"
            )
        outputs, bounds = self._float32_pass(params)
        top = np.argmax(outputs, axis=1)
        rows = np.arange(len(top))
        # A non-finite output has a NaN or infinite bound, and every
        # comparison with one fails, so its row stays undecided.
        with np.errstate(invalid="ignore"):
            upper = outputs + bounds
            lower = outputs[rows, top] - bounds[rows, top]
        upper[rows, top] = -np.inf
        undecided = np.flatnonzero(~(lower > np.max(upper, axis=1)))
        if undecided.size:
            top[undecided] = np.argmax(forward(params, self._x[undecided]), axis=1)
        return top

    def _float32_pass(self, params):
        """The float32 pass's outputs, as float64, and a bound on each entry's
        distance from ``forward``'s; both (rows, C).

        Every rounding of the pass is modeled as at most kappa u32 times what
        it rounds, with kappa u32 = ``linalg._kappa_u32(max(widths))`` as in
        the float32 reduce sink. The input rows lie within
        e_i = kappa u32 |x_i| of x in 2-norm. Layer l rounds its scaled
        weights W[l] / sqrt(n_l) and beta b[l] once to float32; with c_j the
        2-norm of scaled weight column j, Cauchy-Schwarz bounds what the
        product of rows a with column j rounds, and what the weights'
        rounding moves it by, by |a_i| c_j. So pre-activation entry (i, j)
        lies within

            (e_i + 2 kappa u32 |a_i|) c_j + kappa u32 (|beta b_j| + |h_ij|)

        of its float64 value, the last terms being the bias's rounding and
        the sum's. A hidden layer bounds the row's 2-norm instead,
        (e_i + 2 kappa u32 |a_i|) |c| + kappa u32 (|beta b| + |h_i|), which
        the nonlinearity stretches by at most its Lipschitz constant, and
        float32 erf adds kappa u32 |a_i| of its own rounding. The model is
        first order in u32: float64's own rounding and products of roundings
        fall inside kappa's margin, which a test holds to 5x over the
        realized errors. A non-finite entry gets a non-finite bound.
        """
        cfg = params.config
        kappa_u = linalg._kappa_u32(max(cfg.widths))
        a, norms = self._x32, self._norms
        err = kappa_u * norms
        with np.errstate(over="ignore", invalid="ignore"):
            for l in range(cfg.n_layers):
                scale = 1.0 / np.sqrt(cfg.widths[l])
                w = np.empty(params.weights[l].shape, dtype=np.float32)
                np.multiply(params.weights[l], scale, out=w, casting="same_kind")
                bias = cfg.beta * params.biases[l]
                h = a @ w
                h += bias.astype(np.float32)
                col = scale * np.sqrt(np.einsum("ij,ij->j", params.weights[l], params.weights[l]))
                reach = err + 2 * kappa_u * norms
                if l + 1 == cfg.n_layers:
                    bounds = np.outer(reach, col) + kappa_u * (
                        np.abs(bias) + np.abs(h, dtype=np.float64)
                    )
                    return h.astype(np.float64), bounds
                err = _LIPSCHITZ[cfg.nonlinearity] * (
                    reach * np.linalg.norm(col)
                    + kappa_u * (np.linalg.norm(bias) + _row_norms(h))
                )
                a = _act(cfg.nonlinearity, h)
                norms = _row_norms(a)
                if cfg.nonlinearity == "erf":
                    err += kappa_u * norms


def grad_factors(params, x):
    """Per-example first-logit gradients in factorized form.

    Returns a list with one (activation, delta) pair per layer, where
    activation has shape (batch, n_l) and delta shape (batch, n_{l+1}).
    The gradient of logit 1 w.r.t. W[l] for example i is
    outer(activation[i], delta[i]) / sqrt(n_l), and w.r.t. b[l] it is
    beta * delta[i]; Gram matrices contract these factors directly
    without materializing the flat vectors.
    """
    x, _ = _check_input(params, x)
    cfg = params.config
    acts, preacts = _forward_trace(params, x)
    g = np.zeros((x.shape[0], cfg.output_dim))
    g[:, 0] = 1.0
    deltas = _backprop(params, preacts, g)
    return [(acts[l], deltas[l]) for l in range(cfg.n_layers)]


def factor_outputs(params, factors):
    """Network outputs (batch, C) of a ``grad_factors`` result, bitwise equal to ``forward``."""
    return _layer(params, params.config.n_layers - 1, factors[-1][0])


@dataclass(frozen=True)
class TrainConfig:
    """Minibatch SGD settings for squared-loss training."""

    learning_rate: float
    epochs: int
    minibatch_size: int = 32
    shuffle_seed: int = 0

    def __post_init__(self):
        if not _is_finite(self.learning_rate) or self.learning_rate <= 0:
            raise ContractError(
                f"learning_rate must be finite and > 0, got {self.learning_rate!r}"
            )
        _integer(self.epochs, "epochs", 0)
        _integer(self.minibatch_size, "minibatch_size", 1)
        _integer(self.shuffle_seed, "shuffle_seed", 0)


def train_sgd(params, data, cfg):
    """Minibatch SGD on the squared loss for cfg.epochs epochs.

    Targets are the dataset's one-hot rows. Training starts from a copy of
    the given parameters and steps at the fixed learning rate; the result
    is bitwise reproducible for a given shuffle_seed. With zero epochs the
    inputs are checked all the same and the copy returns unstepped.

    Each step costs only its minibatch; no full-data pass is made. Each
    layer's weight step is one dgemm that writes
    W <- W - a^T (delta * lr / sqrt(n_l)) into W's own memory: the scale
    goes onto the small (batch, n_{l+1}) delta, alpha = -1 is exact, and
    no weight-sized temporary is made. An epoch's loss is the running sum
    of 0.5 * ||f - y||^2 over its minibatches, each taken before that
    minibatch's update. Aborts with DivergenceError if an epoch's running
    loss turns non-finite, at the minibatch that makes it so and before
    that minibatch's backward pass and update, or if at the epoch's end it
    exceeds 1e6 times the reference loss, which is the first minibatch's
    loss at the starting parameters scaled by n / (its rows).
    """
    if len(data) < 1:
        raise ContractError("training data is empty")
    x, _ = _check_input(params, data.inputs)
    y = np.asarray(data.one_hot, dtype=np.float64)
    if y.shape[1] != params.config.output_dim:
        raise ShapeError(
            f"target dim {y.shape[1]} does not match network output "
            f"{params.config.output_dim}"
        )

    # C order: each transpose is the Fortran array dgemm writes in place.
    weights = [np.array(w, dtype=np.float64, order="C") for w in params.weights]
    biases = [b.copy() for b in params.biases]
    work = MlpParams(params.config, tuple(weights), tuple(biases))
    mlp = work.config
    scales = [np.sqrt(w) for w in mlp.widths]

    n = len(x)
    lr, mb = cfg.learning_rate, cfg.minibatch_size
    rng = np.random.default_rng(cfg.shuffle_seed)
    initial_loss = None

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        xs, ys = x[order], y[order]
        loss = 0.0
        for start in range(0, n, mb):
            acts, preacts = _forward_trace(work, xs[start : start + mb])
            g = acts[-1] - ys[start : start + mb]
            with np.errstate(over="ignore"):  # a blown-up loss reads inf
                batch_loss = 0.5 * float(np.sum(g * g))
            if initial_loss is None:
                initial_loss = batch_loss * n / len(g)
                divergence_bar = 1e6 * max(initial_loss, 1e-12)
            loss += batch_loss
            if not np.isfinite(loss):
                break  # an overflowing step is never taken
            # Every delta is taken before any layer is stepped.
            for l, g in enumerate(_backprop(work, preacts, g)):
                biases[l] -= lr * (mlp.beta * g.sum(axis=0))
                _dgemm(-1.0, (g * (lr / scales[l])).T, acts[l].T, trans_b=1,
                       beta=1.0, c=weights[l].T, overwrite_c=1)
        if not np.isfinite(loss) or loss > divergence_bar:
            raise DivergenceError(
                f"training diverged at epoch {epoch + 1}: loss {loss:.3e} vs "
                f"initial {initial_loss:.3e}",
                epoch=epoch + 1,
            )
    return work
