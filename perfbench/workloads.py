"""The benchmark's workloads and the measurement of one repetition.

Every workload runs active learning on the synthetic MNIST-shaped
problem of ``synth`` with the MLP (784, 256, 10), relu, calling
``pool.run_batch_al`` / ``pool.run_sequential_al`` directly: their
``on_cycle_end`` observer exposes each cycle's pool and kernel state,
which the correctness gate needs and ``pool.run_al`` does not pass on.

- ``batch-large``: batch mlmoc with ~1000 labels and a 5000-point subset.
  The empirical Gram contraction, the Cholesky solves and the (n x n)
  gain product do nearly all the work, and the (n x n) temporaries set
  peak memory. ``augment_state`` never runs.
- ``seq-stream``: sequential mlmoc. Every pick rescores the subset and
  then extends the kernel state with ``augment_state``. SGD runs once,
  after the second of three cycles: without it train_s would read 0, and
  a retrain after the last cycle would discard the state the gate checks.
- ``suite-small``: the paper's strategy comparison on a 40k-point pool
  with a small labeled set and subset, SGD every cycle. SGD (also inside
  the retraining oracle), the per-candidate EER loop, the raw-baseline
  (m, n, C) tensors and pool bookkeeping dominate; the empirical Gram
  contraction is small. The oracle gets a tenth of the subset because it
  retrains once per candidate.

  ``mlmoc-inf`` is not in the suite: its states fail the gate on some
  seeds. ``kernel.infinite_ntk_fc`` takes the angle between coincident
  points as the arccos of a rounded cosine, so k(x, x) depends on the
  batch it is evaluated in (``kernel_diag`` and the diagonal of
  ``kernel_block`` differ by about 2e-9 relative), and mlmoc scores then
  miss the augment_state rebuild by up to 1.4e-8 relative. It belongs
  back in the suite once the kernel evaluates coincident points
  consistently.
"""

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from ntkal import acquire, lookahead, net, pool
from ntkal.errors import DegenerateCandidateError

import synth

WIDTHS = (synth.INPUT_DIM, 256, synth.CLASS_COUNT)
LEARNING_RATE = 0.05
RUN_SEED = 0
SETUP_REPEATS = 3

# The gate compares each closed-form mlmoc score with an explicit
# rebuild through augment_state, to this relative tolerance.
GATE_RTOL = 1e-8
GATE_STREAM = 7
# The network's test accuracy after the first batch cycle must be well
# above chance (1/10) and below saturation, or the synthetic problem is
# not doing its job. Sequential cycles report the converged linearized
# predictor, which does saturate on this problem, so they are not held
# to the band.
ACCURACY_BAND = (0.15, 0.99)

_BATCH_LARGE = dict(
    strategy="mlmoc", initial_labeled=1000, query_batch_size=50, subset_size=5000, cycles=2
)
_SEQ_STREAM = dict(
    strategy="mlmoc", sequential=True, retrain_every=2,
    initial_labeled=500, query_batch_size=20, subset_size=1000, cycles=3,
)
_SUITE = dict(initial_labeled=200, query_batch_size=10, subset_size=400, cycles=4)
_SUITE_RUNS = [
    dict(_SUITE, strategy="mlmoc"),
    dict(_SUITE, strategy="emoc", score_baseline="raw"),
    dict(_SUITE, strategy="eer"),
    dict(_SUITE, strategy="mlmoc-1step", subset_size=40),
    dict(_SUITE, strategy="entropy"),
]

# name -> scale -> sizes. "tiny" exists for the benchmark's smoke tests.
WORKLOADS = {
    "batch-large": {
        "full": dict(pool=8000, test=2000, epochs=3, gate=16, runs=[_BATCH_LARGE]),
        "tiny": dict(
            pool=700, test=300, epochs=3, gate=4,
            runs=[dict(_BATCH_LARGE, initial_labeled=300, query_batch_size=5, subset_size=200)],
        ),
    },
    "seq-stream": {
        "full": dict(pool=3000, test=1000, epochs=3, gate=16, runs=[_SEQ_STREAM]),
        "tiny": dict(
            pool=600, test=300, epochs=3, gate=4,
            runs=[dict(_SEQ_STREAM, initial_labeled=300, query_batch_size=3, subset_size=60)],
        ),
    },
    "suite-small": {
        "full": dict(pool=40000, test=2000, epochs=5, gate=16, runs=_SUITE_RUNS),
        "tiny": dict(
            pool=1500, test=300, epochs=3, gate=4,
            runs=[
                dict(r, initial_labeled=300, query_batch_size=3, cycles=2,
                     subset_size=8 if r["strategy"] == "mlmoc-1step" else 40)
                for r in _SUITE_RUNS
            ],
        ),
    },
}


def setup(name, scale, seed):
    """Synthesize the pool and test sets and build the run configs.

    The seed draws the data only. Network initialisation, SGD order and
    the program's own sampling use RUN_SEED on every seed: short SGD is far
    from converged, so its accuracy depends much more on those than on
    the data, and would otherwise swing from seed to seed.
    """
    sizes = WORKLOADS[name][scale]
    train, test = synth.pool_and_test(sizes["pool"], sizes["test"], seed)
    mlp = net.MlpConfig(WIDTHS, nonlinearity="relu", seed=RUN_SEED)
    train_cfg = net.TrainConfig(
        learning_rate=LEARNING_RATE, epochs=sizes["epochs"], minibatch_size=32,
        shuffle_seed=RUN_SEED,
    )
    configs = [
        pool.RunConfig(mlp=mlp, train=train_cfg, seed=RUN_SEED, **run)
        for run in sizes["runs"]
    ]
    return train, test, configs


def timed_setup(name, scale, seed):
    """Median setup seconds over SETUP_REPEATS, and the last setup's result."""
    seconds, problem = [], None
    for _ in range(SETUP_REPEATS):
        problem = None  # release the previous arrays before drawing again
        t0 = time.perf_counter()
        problem = setup(name, scale, seed)
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds), problem


def gate(state, final_pool, sample_size, seed):
    """Closed-form mlmoc scores vs explicit augment_state rebuilds.

    Scores a fixed sample of still-unlabeled points with ``acquire.mlmoc``
    on ``state`` (the reference set is the sample itself) and compares each
    score with the summed change of ``predict_lin`` over the sample after
    really augmenting the state with the point and its pseudo-label.
    Degenerate flags must agree with ``augment_state`` raising. Returns
    (checked, mismatches).
    """
    unlabeled = np.asarray(final_pool.unlabeled_indices, dtype=np.intp)
    rng = np.random.default_rng([seed, GATE_STREAM])
    pick = np.sort(rng.choice(len(unlabeled), size=min(sample_size, len(unlabeled)), replace=False))
    sample = final_pool.dataset.inputs[unlabeled[pick]]
    result = acquire.mlmoc(state, sample)
    before = lookahead.predict_lin(state, sample)
    mismatches = 0
    for i, x in enumerate(sample):
        try:
            augmented = lookahead.augment_state(state, x, result.pseudo_labels[i])
        except DegenerateCandidateError:
            mismatches += int(not result.degenerate_flags[i])
            continue
        if result.degenerate_flags[i]:
            mismatches += 1
            continue
        change = lookahead.predict_lin(augmented, sample) - before
        explicit = float(np.sum(np.linalg.norm(change, axis=1)))
        mismatches += int(not np.isclose(result.scores[i], explicit, rtol=GATE_RTOL, atol=0.0))
    return len(sample), mismatches


@dataclass
class Repetition:
    """Totals of one pass over a workload's runs."""

    run_s: float = 0.0
    query_s: float = 0.0
    train_s: float = 0.0
    final_accuracies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    gate_mismatches: int = 0
    accuracy_ok: bool = True
    jitters: list = field(default_factory=list)

    @property
    def final_accuracy(self):
        return float(np.mean(self.final_accuracies)) if self.final_accuracies else 0.0


def run_repetition(problem, seed, gate_size, tracer=None):
    """Run every config of the workload once, then gate each kernel state.

    ``run_s`` is the benchmark's clock around each ``run_*_al`` call; the
    gate, and installing or removing the tracer, happen outside it.
    Attempted operations are the requested labels plus the gated
    candidates. A label fails when its run raised or, in sequential mode,
    when it never entered the kernel state; a gated candidate fails on a
    mismatch.
    """
    train, test, configs = problem
    rep = Repetition()
    for cfg in configs:
        requested = cfg.query_batch_size * cfg.cycles
        # Labels a sequential run moved into the pool but not into its
        # current kernel state; a retrain starts a new state from the pool.
        seen = {"missing": 0, "missing_before_retrain": 0}

        def observe(cycle, pool_now, params, state):
            seen["pool"] = pool_now
            if state is None:
                seen["missing_before_retrain"] += seen["missing"]
                seen["missing"] = 0
            else:
                seen["state"] = state
                seen["missing"] = len(pool_now.labeled_indices) - state.labeled_count

        rep.attempted += requested
        if tracer is not None:
            tracer.install()
        try:
            # Looked up after install, so a traced run calls the wrapper.
            run = pool.run_sequential_al if cfg.sequential else pool.run_batch_al
            t0 = time.perf_counter()
            records = run(cfg, train, test, on_cycle_end=observe)
            rep.run_s += time.perf_counter() - t0
        except Exception:  # the benchmark keeps going and counts the run's labels as failed
            traceback.print_exc(file=sys.stderr)
            rep.failed += requested
            continue
        finally:
            if tracer is not None:
                tracer.uninstall()

        rep.query_s += sum(r.query_seconds for r in records)
        rep.train_s += sum(r.train_seconds for r in records)
        rep.final_accuracies.append(records[-1].test_accuracy)
        if cfg.sequential:
            rep.failed += seen["missing"] + seen["missing_before_retrain"]
        else:
            low, high = ACCURACY_BAND
            rep.accuracy_ok &= low < records[0].test_accuracy < high
        if "state" in seen:
            rep.jitters.append(seen["state"].factor.jitter_applied)
            checked, mismatches = gate(seen["state"], seen["pool"], gate_size, seed)
            rep.attempted += checked
            rep.failed += mismatches
            rep.gate_mismatches += mismatches
    return rep
