"""Active-learning orchestration: pools, query loops, and measurements.

The batch loop trains on the initial labeled set, then per cycle builds
the kernel state, scores a random subset of the unlabeled pool with the
configured strategy, moves the top-k points (with their true labels)
into the labeled set, and retrains with SGD.

The sequential loop instead feeds each newly labeled point straight
into the kernel state (one factor extension, no SGD) so that later
picks within the same cycle already see the earlier labels; SGD
retraining happens only every ``retrain_every`` cycles.

Sequential cost model, for n subset candidates against L labels: each
cycle pays one ``lookahead_batch`` pass (kernel rows, self-kernels and
the n x n kernel block, one triangular solve, the L n^2 gain product).
Each pick then pays only O(n^2 + L^2): scoring the batch,
``lookahead.condition`` (a rank-one downdate of the gains, no kernel
evaluation) and ``augment_state`` (one kernel row and one triangular
solve).
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from . import acquire, kernel, lookahead, net
from .data import Dataset
from .errors import ContractError, DegenerateCandidateError

__all__ = [
    "Pool",
    "CycleRecord",
    "RunConfig",
    "STRATEGIES",
    "sample_subset",
    "query_batch_topk",
    "run_batch_al",
    "run_sequential_al",
    "run_al",
]

STRATEGIES = (
    "random",
    "entropy",
    "margin",
    "mlmoc",
    "emoc",
    "eer",
    "mlmoc-inf",
    "mlmoc-naive",
    "mlmoc-1step",
)

# Strategies that score through the kernel-state look-ahead.
_KERNEL_STRATEGIES = ("mlmoc", "emoc", "eer", "mlmoc-inf")


def _index_array(indices):
    """A tuple of dataset indices as an integer array."""
    return np.fromiter(indices, dtype=np.intp, count=len(indices))


@dataclass(frozen=True)
class Pool:
    """Disjoint labeled/unlabeled index sets over a backing dataset."""

    dataset: Dataset
    labeled_indices: tuple
    unlabeled_indices: tuple

    def __post_init__(self):
        both = np.concatenate(
            [_index_array(self.labeled_indices), _index_array(self.unlabeled_indices)]
        )
        n = len(self.dataset)
        if both.size and not 0 <= both.min() <= both.max() < n:
            raise ContractError(f"indices must lie in [0, {n})")
        repeated = np.flatnonzero(np.bincount(both, minlength=n) > 1)
        if repeated.size:
            raise ContractError(
                f"indices listed twice or both labeled and unlabeled: {repeated[:5].tolist()}"
            )

    @classmethod
    def initial(cls, dataset, initial_labeled, seed):
        """Random initial labeled set of the given size."""
        n = len(dataset)
        if not 1 <= initial_labeled <= n:
            raise ContractError("initial_labeled must be in [1, pool size]")
        rng = np.random.default_rng(seed)
        labeled = np.sort(rng.choice(n, size=initial_labeled, replace=False))
        unlabeled = np.ones(n, dtype=bool)
        unlabeled[labeled] = False
        return cls(dataset, tuple(labeled.tolist()), tuple(np.flatnonzero(unlabeled).tolist()))

    def acquire(self, indices):
        """Move dataset indices from the unlabeled to the labeled set."""
        moving = np.asarray(indices, dtype=np.intp).reshape(-1)
        unlabeled = _index_array(self.unlabeled_indices)
        missing = moving[~np.isin(moving, unlabeled)]
        if missing.size:
            raise ContractError(f"index {missing[0]} is not unlabeled")
        remaining = unlabeled[~np.isin(unlabeled, moving)]
        return Pool(
            self.dataset,
            self.labeled_indices + tuple(moving.tolist()),
            tuple(remaining.tolist()),
        )

    def labeled_dataset(self):
        return self.dataset.subset(list(self.labeled_indices))


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    labeled_size: int
    test_accuracy: float
    query_seconds: float
    train_seconds: float
    strategy: str
    seed: int
    degenerate_skipped: int

    CSV_HEADER = (
        "cycle,labeled_size,test_accuracy,query_seconds,train_seconds,"
        "strategy,seed,degenerate_skipped"
    )

    def csv_row(self):
        return (
            f"{self.cycle},{self.labeled_size},{self.test_accuracy!r},"
            f"{self.query_seconds!r},{self.train_seconds!r},{self.strategy},"
            f"{self.seed},{self.degenerate_skipped}"
        )


@dataclass(frozen=True)
class RunConfig:
    """One active-learning run: budgets, model, trainer, strategy."""

    strategy: str
    initial_labeled: int
    query_batch_size: int
    subset_size: int
    cycles: int
    mlp: net.MlpConfig
    train: net.TrainConfig
    sequential: bool = False
    retrain_every: int = 1  # sequential mode; <= 0 disables SGD retraining
    seed: int = 0
    naive_epochs: int = 15  # retraining budget of the naive oracle strategy
    score_baseline: str = "linearized"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractError(
                f"unknown strategy {self.strategy!r}; valid: {', '.join(STRATEGIES)}"
            )
        if not 1 <= self.query_batch_size <= self.subset_size:
            raise ContractError("need subset_size >= query_batch_size >= 1")
        if self.cycles < 1:
            raise ContractError("cycles must be >= 1")


def _mix(*parts):
    """Stable 64-bit sub-seed from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def sample_subset(pool, size, seed):
    """Uniform sample (without replacement) of unlabeled dataset indices.

    Returns the whole unlabeled set when it has at most ``size`` points.
    Output is sorted, so candidate order follows dataset order.
    """
    unlabeled = np.array(pool.unlabeled_indices, dtype=np.intp)
    if size >= len(unlabeled):
        return unlabeled
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(unlabeled), size=size, replace=False)
    return np.sort(unlabeled[picked])


def query_batch_topk(result, k):
    """Top-k candidate positions by score; ties break toward low index.

    Degenerate candidates are passed over unless fewer than k others
    remain.
    """
    scores = result.scores
    n = len(scores)
    if k > n:
        raise ContractError(f"k={k} exceeds candidate count {n}")
    order = np.lexsort((np.arange(n), -scores))
    ranked = [int(i) for i in order if not result.degenerate_flags[i]]
    if len(ranked) < k:
        ranked += [int(i) for i in order if result.degenerate_flags[i]]
    return ranked[:k]


def _accuracy(outputs, labels):
    return float(np.mean(np.argmax(outputs, axis=1) == labels))


def _state_kernel_fn(strategy):
    if strategy == "mlmoc-inf":
        return lambda params, a, b: kernel.infinite_ntk_fc(params.config, a, b)
    return None


def _score_candidates(strategy, state, params, labeled_ds, cand_inputs, cfg, cycle):
    """Dispatch one scoring pass; returns an AcquisitionResult."""
    if strategy in ("mlmoc", "mlmoc-inf"):
        return acquire.mlmoc(state, cand_inputs, baseline=cfg.score_baseline)
    if strategy == "emoc":
        return acquire.emoc(state, cand_inputs, baseline=cfg.score_baseline)
    if strategy == "eer":
        return acquire.eer_lin(state, cand_inputs)
    if strategy == "entropy":
        return acquire.entropy_score(net.forward(params, cand_inputs))
    if strategy == "margin":
        return acquire.margin_score(net.forward(params, cand_inputs))
    if strategy == "random":
        return acquire.random_score(_mix(cfg.seed, 2, cycle), len(cand_inputs))
    if strategy == "mlmoc-naive":
        retrain = replace(cfg.train, epochs=cfg.naive_epochs, warm_start=True)
        return acquire.naive_change_scores(
            params, labeled_ds, cand_inputs, retrain, cand_inputs
        )
    if strategy == "mlmoc-1step":
        retrain = replace(
            cfg.train, epochs=1, minibatch_size=len(labeled_ds) + 1, warm_start=True
        )
        return acquire.naive_change_scores(
            params, labeled_ds, cand_inputs, retrain, cand_inputs
        )
    raise ContractError(f"unknown strategy {strategy!r}")


def _score_batch(strategy, batch, cfg):
    """Score a LookaheadBatch with a kernel strategy's scorer."""
    if strategy in ("mlmoc", "mlmoc-inf"):
        return acquire.score_mlmoc(batch, baseline=cfg.score_baseline)
    if strategy == "emoc":
        return acquire.score_emoc(batch, baseline=cfg.score_baseline)
    if strategy == "eer":
        return acquire.score_eer_lin(batch)
    raise ContractError(f"{strategy!r} is not a kernel look-ahead strategy")


def _initial_training(config, pool):
    mlp_cfg = replace(config.mlp, seed=_mix(config.mlp.seed, config.seed))
    train_cfg = replace(
        config.train, shuffle_seed=_mix(config.train.shuffle_seed, config.seed)
    )
    params = net.init(mlp_cfg)
    params = net.train_sgd(params, pool.labeled_dataset(), train_cfg)
    return params, train_cfg


def run_batch_al(config, train_data, test_data, on_cycle_end=None):
    """Batch-mode active learning; one CycleRecord per cycle.

    ``on_cycle_end(cycle, pool, params, state)`` is an optional observer
    used by tests and notebooks; the loop itself never reads it.
    """
    if config.sequential:
        raise ContractError("config.sequential is set; use run_sequential_al")
    pool = Pool.initial(train_data, config.initial_labeled, _mix(config.seed, 0))
    params, train_cfg = _initial_training(config, pool)
    records = []
    for cycle in range(config.cycles):
        t0 = time.perf_counter()
        labeled_ds = pool.labeled_dataset()
        state = None
        if config.strategy in _KERNEL_STRATEGIES:
            state = kernel.build_state(
                params, labeled_ds, kernel_fn=_state_kernel_fn(config.strategy)
            )
        subset = sample_subset(pool, config.subset_size, _mix(config.seed, 1, cycle))
        cand_inputs = train_data.inputs[subset]
        result = _score_candidates(
            config.strategy, state, params, labeled_ds, cand_inputs, config, cycle
        )
        picked = query_batch_topk(result, config.query_batch_size)
        chosen = [int(subset[i]) for i in picked]
        query_seconds = time.perf_counter() - t0

        pool = pool.acquire(chosen)
        t1 = time.perf_counter()
        params = net.train_sgd(params, pool.labeled_dataset(), train_cfg)
        train_seconds = time.perf_counter() - t1

        records.append(
            CycleRecord(
                cycle=cycle,
                labeled_size=len(pool.labeled_indices),
                test_accuracy=_accuracy(
                    net.forward(params, test_data.inputs), test_data.labels
                ),
                query_seconds=query_seconds,
                train_seconds=train_seconds,
                strategy=config.strategy,
                seed=config.seed,
                degenerate_skipped=int(np.sum(result.degenerate_flags)),
            )
        )
        if on_cycle_end is not None:
            on_cycle_end(cycle, pool, params, state)
    return records


def run_sequential_al(config, train_data, test_data, on_cycle_end=None):
    """Streaming-mode active learning: true labels enter the kernel state.

    Within a cycle each of the k picks is scored against a state already
    augmented with the previous picks' true labels; SGD retraining (and a
    state rebuild) happens every ``retrain_every`` cycles. The subset is
    scored once per cycle; after each pick the look-ahead batch is
    conditioned on the true label instead of rebuilt.
    """
    if not config.sequential:
        raise ContractError("config.sequential is not set; use run_batch_al")
    if config.strategy not in _KERNEL_STRATEGIES:
        raise ContractError(
            f"sequential mode needs a kernel look-ahead strategy, "
            f"got {config.strategy!r}"
        )
    pool = Pool.initial(train_data, config.initial_labeled, _mix(config.seed, 0))
    params, train_cfg = _initial_training(config, pool)
    kernel_fn = _state_kernel_fn(config.strategy)
    state = None
    records = []
    for cycle in range(config.cycles):
        t0 = time.perf_counter()
        if state is None:
            state = kernel.build_state(
                params, pool.labeled_dataset(), kernel_fn=kernel_fn
            )
        subset = list(sample_subset(pool, config.subset_size, _mix(config.seed, 1, cycle)))
        batch = lookahead.lookahead_batch(state, train_data.inputs[subset])
        degenerate_skipped = 0
        chosen = []
        for step in range(config.query_batch_size):
            result = _score_batch(config.strategy, batch, config)
            pick = query_batch_topk(result, 1)[0]
            degenerate_skipped = max(
                degenerate_skipped, int(np.sum(result.degenerate_flags))
            )
            idx = subset.pop(pick)
            chosen.append(idx)
            y_new = train_data.one_hot[idx]
            try:
                state = lookahead.augment_state(
                    state, train_data.inputs[idx], y_new, f_val=batch.outputs[pick]
                )
            except DegenerateCandidateError:
                pass  # consumes budget but adds nothing to the regression
            if step + 1 < config.query_batch_size:
                batch = lookahead.condition(batch, pick, y_new)
        query_seconds = time.perf_counter() - t0

        pool = pool.acquire(chosen)
        train_seconds = 0.0
        retrained = config.retrain_every > 0 and (cycle + 1) % config.retrain_every == 0
        if retrained:
            t1 = time.perf_counter()
            params = net.train_sgd(params, pool.labeled_dataset(), train_cfg)
            train_seconds = time.perf_counter() - t1
            state = None  # rebuilt from the retrained network next cycle

        if retrained:
            test_outputs = net.forward(params, test_data.inputs)
        else:
            test_outputs = lookahead.predict_lin(state, test_data.inputs)
        records.append(
            CycleRecord(
                cycle=cycle,
                labeled_size=len(pool.labeled_indices),
                test_accuracy=_accuracy(test_outputs, test_data.labels),
                query_seconds=query_seconds,
                train_seconds=train_seconds,
                strategy=config.strategy,
                seed=config.seed,
                degenerate_skipped=degenerate_skipped,
            )
        )
        if on_cycle_end is not None:
            on_cycle_end(cycle, pool, params, state)
    return records


def run_al(config, train_data, test_data):
    """Dispatch to the batch or sequential loop per the configuration."""
    if config.sequential:
        return run_sequential_al(config, train_data, test_data)
    return run_batch_al(config, train_data, test_data)
