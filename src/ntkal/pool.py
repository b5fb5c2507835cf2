"""Active-learning orchestration: pools, the query loop, and its records.

One loop serves both modes. It trains on the initial labeled set; each
cycle then builds the kernel state when none is live (look-ahead
strategies only), scores a random subset of the unlabeled pool, moves
k picks with their true labels into the labeled set, and evaluates.

- Batch mode picks the top k of one scoring and retrains with SGD every
  cycle.
- Sequential mode (look-ahead strategies only) picks one point at a
  time, conditioning the cycle's look-ahead batch on its true label. SGD
  runs every ``retrain_every`` cycles and drops the state; in a cycle
  that keeps it, the picks enter the kernel state as one block
  (``augment_state``, no SGD).

Cost model, for n subset candidates against L labels: each cycle pays
one ``lookahead_batch`` pass (one gradient-factor pass over the subset,
one triangular solve, the n x n covariance in row chunks at O(L n^2)).
Batch linearized mlmoc/emoc reduce the chunks and hold no n x n array;
given the pick count k, they reduce them in float32 and sum again in
float64 only the candidates whose error bounds reach the k-th boundary.
A sequential batch is dense from the start, the n x n covariance formed
once per cycle; each pick then pays O(n^2) and allocates no n x n array:
scoring and a rank-one downdate in place (``lookahead.condition``). A
cycle that keeps the state enters its k picks in one ``augment_state``
call, which copies the (L + k)^2 factor once.
``mlmoc-1step`` takes ``net.train_sgd``'s one full-batch step on the
labeled set, makes one forward and backward pass over the subset, then a
forward pass over the subset per candidate; ``mlmoc-naive`` retrains a
copy of the network per candidate.
Evaluating the network after a retrain makes one float32 forward pass
over the test rows, which a run casts to float32 once (``net.Evaluator``),
and a float64 pass over only the rows whose top label that pass leaves in
doubt. A sequential cycle that keeps its state evaluates the linearized
predictor in float64 (``lookahead.predict_lin``).
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from . import acquire, kernel, lookahead, net
from .data import Dataset, _index_array
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

# The look-ahead strategies, which score through a kernel state, and the
# name of their scorer in ``acquire``: ``<name>(state, inputs)`` scores
# candidate rows, ``score_<name>(batch)`` a LookaheadBatch.
_LOOKAHEAD_SCORERS = {"mlmoc": "mlmoc", "emoc": "emoc", "eer": "eer_lin"}

STRATEGIES = ("random", "entropy", "margin", *_LOOKAHEAD_SCORERS, "mlmoc-naive", "mlmoc-1step")


@dataclass(frozen=True)
class Pool:
    """Disjoint labeled/unlabeled index sets over a dataset, kept as read-only intp arrays."""

    dataset: Dataset
    labeled_indices: np.ndarray
    unlabeled_indices: np.ndarray

    def __post_init__(self):
        for name in ("labeled_indices", "unlabeled_indices"):
            indices = _index_array(getattr(self, name))
            indices.flags.writeable = False
            object.__setattr__(self, name, indices)
        both = np.concatenate([self.labeled_indices, self.unlabeled_indices])
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
        if not 1 <= net._integer(initial_labeled, "initial_labeled") <= n:
            raise ContractError("initial_labeled must be in [1, pool size]")
        rng = np.random.default_rng(seed)
        labeled = np.sort(rng.choice(n, size=initial_labeled, replace=False))
        unlabeled = np.ones(n, dtype=bool)
        unlabeled[labeled] = False
        return cls(dataset, labeled, np.flatnonzero(unlabeled))

    def acquire(self, indices):
        """Move dataset indices from the unlabeled to the labeled set."""
        moving = _index_array(indices)
        unlabeled = self.unlabeled_indices
        missing = moving[~np.isin(moving, unlabeled)]
        if missing.size:
            raise ContractError(f"index {missing[0]} is not unlabeled")
        remaining = unlabeled[~np.isin(unlabeled, moving)]
        return Pool(self.dataset, np.concatenate([self.labeled_indices, moving]), remaining)

    def labeled_dataset(self):
        return self.dataset.subset(self.labeled_indices)


@dataclass(frozen=True)
class CycleRecord:
    """One query cycle of one run; its fields are the columns of ``cli``'s records CSV.

    ``labeled_size`` counts labels after the cycle's picks. ``test_accuracy``
    is the network's after a retrain, else (sequential cycles without SGD)
    the linearized predictor's of the live kernel state. The network's
    comes from a float32 forward pass whose undecided rows are rechecked in
    float64 (``net.Evaluator``), and equals the float64 network's. ``query_seconds``
    times state building, scoring and picking, ``train_seconds`` the SGD
    (0 without a retrain). ``degenerate_skipped`` is the most candidates
    flagged degenerate by any one scoring of the cycle: batch mode has one.
    """

    cycle: int
    labeled_size: int
    test_accuracy: float
    query_seconds: float
    train_seconds: float
    strategy: str
    seed: int
    degenerate_skipped: int


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

    def check_pool(self, size):
        """Raises ContractError when the labeling budget exceeds a pool of ``size`` points."""
        needed = self.initial_labeled + self.cycles * self.query_batch_size
        if needed > size:
            raise ContractError(
                f"initial_labeled + cycles * query_batch_size = {self.initial_labeled} + "
                f"{self.cycles} * {self.query_batch_size} = {needed} exceeds the pool of "
                f"{size} points"
            )

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractError(
                f"unknown strategy {self.strategy!r}; valid: {', '.join(STRATEGIES)}"
            )
        net._integer(self.initial_labeled, "initial_labeled", 1)
        net._integer(self.subset_size, "subset_size")
        net._integer(self.query_batch_size, "query_batch_size")
        net._integer(self.cycles, "cycles", 1)
        net._integer(self.retrain_every, "retrain_every")
        if not 1 <= self.query_batch_size <= self.subset_size:
            raise ContractError("need subset_size >= query_batch_size >= 1")
        if self.sequential and self.strategy not in _LOOKAHEAD_SCORERS:
            raise ContractError(
                f"sequential mode needs a look-ahead strategy "
                f"({', '.join(_LOOKAHEAD_SCORERS)}), got {self.strategy!r}"
            )
        if self.train.epochs < 1:
            raise ContractError("train epochs must be >= 1")
        net._integer(self.naive_epochs, "naive_epochs", 0)
        net._integer(self.seed, "seed", 0)
        if self.score_baseline not in acquire.BASELINES:
            raise ContractError(
                f"unknown score_baseline {self.score_baseline!r}; "
                f"valid: {', '.join(acquire.BASELINES)}"
            )


def _mix(*parts):
    """Stable 64-bit sub-seed from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def sample_subset(pool, size, seed):
    """Uniform sample (without replacement) of unlabeled dataset indices.

    Returns every unlabeled index when there are at most ``size``. Output
    is sorted, so candidate order follows dataset order. A negative or
    non-integer size raises ContractError.
    """
    if net._integer(size, "subset size") < 0:
        raise ContractError(f"subset size {size} is negative")
    unlabeled = pool.unlabeled_indices
    if size >= len(unlabeled):
        return np.sort(unlabeled)
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(unlabeled), size=size, replace=False)
    return np.sort(unlabeled[picked])


def query_batch_topk(result, k):
    """Top-k candidate positions by score; ties break toward low index.

    Degenerate candidates are passed over unless fewer than k others
    remain. A k that is not an integer in [0, candidate count] raises
    ContractError.
    """
    scores = result.scores
    n = len(scores)
    if not 0 <= net._integer(k, "k") <= n:
        raise ContractError(f"k={k} is outside [0, {n}], the candidate count")
    return np.lexsort((np.arange(n), -scores, result.degenerate_flags))[:k].tolist()


def _score(config, cycle, params, pool, state, candidates):
    """One scoring pass of the configured strategy; an AcquisitionResult.

    ``candidates`` are input rows, or in sequential mode the cycle's
    LookaheadBatch against ``state``. Look-ahead scorers are looked up
    on ``acquire`` by name at call time.
    """
    strategy = config.strategy
    name = _LOOKAHEAD_SCORERS.get(strategy)
    if name is not None:
        kwargs = {} if name == "eer_lin" else {"baseline": config.score_baseline}
        if isinstance(candidates, lookahead.LookaheadBatch):
            return getattr(acquire, "score_" + name)(candidates, **kwargs)
        if name != "eer_lin":
            kwargs["picks"] = config.query_batch_size  # only the top k leave the scorer
        return getattr(acquire, name)(state, candidates, **kwargs)
    if strategy == "entropy":
        return acquire.entropy_score(net.forward(params, candidates))
    if strategy == "margin":
        return acquire.margin_score(net.forward(params, candidates))
    if strategy == "random":
        return acquire.random_score(_mix(config.seed, 2, cycle), len(candidates))
    labeled = pool.labeled_dataset()
    if strategy == "mlmoc-1step":
        return acquire.one_step_change_scores(
            params, labeled, candidates, config.train.learning_rate
        )
    retrain = replace(config.train, epochs=config.naive_epochs)
    return acquire.naive_change_scores(params, labeled, candidates, retrain)


def _run(config, train_data, test_data, on_cycle_end):
    """The active-learning loop of both modes; see the module docstring."""
    k = config.query_batch_size
    config.check_pool(len(train_data))
    pool = Pool.initial(train_data, config.initial_labeled, _mix(config.seed, 0))
    train_cfg = replace(
        config.train, shuffle_seed=_mix(config.train.shuffle_seed, config.seed)
    )
    params = net.init(replace(config.mlp, seed=_mix(config.mlp.seed, config.seed)))
    evaluator = net.Evaluator(params, test_data.inputs)
    params = net.train_sgd(params, pool.labeled_dataset(), train_cfg)
    state = None
    records = []
    for cycle in range(config.cycles):
        t0 = time.perf_counter()
        if state is None and config.strategy in _LOOKAHEAD_SCORERS:
            state = kernel.build_state(params, pool.labeled_dataset())
        subset = sample_subset(pool, config.subset_size, _mix(config.seed, 1, cycle))
        candidates = train_data.inputs[subset]
        if config.sequential:
            # dense from the start: the first score reads Sigma, condition downdates it
            candidates = lookahead.lookahead_batch(state, candidates).dense()
        chosen, degenerate_skipped = [], 0
        while len(chosen) < k:
            result = _score(config, cycle, params, pool, state, candidates)
            degenerate_skipped = max(degenerate_skipped, int(np.sum(result.degenerate_flags)))
            picked = query_batch_topk(result, 1 if config.sequential else k)
            chosen += subset[candidates.live[picked] if config.sequential else picked].tolist()
            if config.sequential and len(chosen) < k:
                candidates = lookahead.condition(
                    candidates, picked[0], train_data.one_hot[chosen[-1]]
                )
        retrained = not config.sequential or (
            config.retrain_every > 0 and (cycle + 1) % config.retrain_every == 0
        )
        if not retrained:  # the picks enter only a state the cycle keeps
            try:
                state = lookahead.augment_state(
                    state, train_data.inputs[chosen], train_data.one_hot[chosen]
                )
            except DegenerateCandidateError:
                pass  # every pick consumed budget but adds nothing to the regression
        query_seconds = time.perf_counter() - t0

        pool = pool.acquire(chosen)
        train_seconds = 0.0
        if retrained:
            t1 = time.perf_counter()
            params = net.train_sgd(params, pool.labeled_dataset(), train_cfg)
            train_seconds = time.perf_counter() - t1
            test_labels = evaluator.labels(params)
        else:
            test_labels = np.argmax(lookahead.predict_lin(state, test_data.inputs), axis=1)
        records.append(
            CycleRecord(
                cycle=cycle,
                labeled_size=len(pool.labeled_indices),
                test_accuracy=float(np.mean(test_labels == test_data.labels)),
                query_seconds=query_seconds,
                train_seconds=train_seconds,
                strategy=config.strategy,
                seed=config.seed,
                degenerate_skipped=degenerate_skipped,
            )
        )
        if on_cycle_end is not None:
            on_cycle_end(cycle, pool, params, None if config.sequential and retrained else state)
        if retrained:
            state = None  # rebuilt from the retrained network next cycle
    return records


def run_batch_al(config, train_data, test_data, on_cycle_end=None):
    """Batch-mode active learning; one CycleRecord per cycle.

    ``on_cycle_end(cycle, pool, params, state)`` is an optional observer
    used by tests and notebooks; the loop itself never reads it. ``state``
    is the kernel state that scored the cycle, None for strategies that
    use none.
    """
    if config.sequential:
        raise ContractError("config.sequential is set; use run_sequential_al")
    return _run(config, train_data, test_data, on_cycle_end)


def run_sequential_al(config, train_data, test_data, on_cycle_end=None):
    """Streaming-mode active learning: true labels enter the kernel state.

    Records and observer as in ``run_batch_al``, except that ``state`` is
    the live state holding the cycle's picks, None after a retrain.
    """
    if not config.sequential:
        raise ContractError("config.sequential is not set; use run_batch_al")
    return _run(config, train_data, test_data, on_cycle_end)


def run_al(config, train_data, test_data, on_cycle_end=None):
    """The batch or sequential loop, as ``config.sequential`` says; records and
    observer as in ``run_batch_al`` and ``run_sequential_al``."""
    return _run(config, train_data, test_data, on_cycle_end)
