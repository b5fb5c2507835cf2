"""The equivalence record: small active-learning runs whose outcomes are pinned.

Each run of ``MATRIX`` is a full ``pool.run_batch_al`` or
``run_sequential_al`` on 2-D data with 60-80 points. Its record holds the dataset indices picked per cycle (in pick
order), each cycle's ``labeled_size``, ``degenerate_skipped`` and
``test_accuracy``, and a SHA-256 of the final network parameters; a run
that raises records its exception instead. ``tests/test_equivalence.py``
reruns every run and compares it with ``equivalence_record.json``, so a
change that moves any pick, count, accuracy or parameter bit fails there.
The record's ``blas_core`` entry names the OpenBLAS core that numpy's and
scipy's bundled libraries ran on when it was written: the bits depend on
it, and a failing comparison names both that core and the one it ran on.

The matrix covers all eight strategies in batch mode, the three look-ahead
strategies in sequential mode with k = 1 and 4 and ``retrain_every`` 0
and 2, both score baselines, 2-8-2 and 2-64-2 relu MLPs, and three data
sets: two Gaussians, two spirals, and two Gaussians with 30 of their
points listed twice. The repeated points put duplicate rows into the
labeled Gram, whose states are ill-conditioned; rounding changes their
picks, and the record shows that rather than hiding it.

Regenerate the record (one BLAS thread, as the tests run) with

    PYTHONPATH=src python tests/equivalence_record.py

and list every changed run, with its reason, in CHANGES.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import ctypes
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import scipy

from ntkal import data, net, pool

RECORD_PATH = Path(__file__).with_name("equivalence_record.json")


def _repeated(seed):
    """Two Gaussians (25 points per class) with their first 30 points appended again."""
    base = data.gen_two_gaussians(25, 2.0, seed)
    idx = np.concatenate([np.arange(len(base)), np.arange(30)])
    return data.make_dataset(base.inputs[idx], base.labels[idx], 2, "repeated")


# name -> (train, test) builders; the test sets are drawn from other seeds.
DATASETS = {
    "gaussians": lambda: (data.gen_two_gaussians(30, 2.0, 11), data.gen_two_gaussians(20, 2.0, 511)),
    "spirals": lambda: (data.gen_spirals(30, 0.1, 12), data.gen_spirals(20, 0.1, 512)),
    "repeated": lambda: (_repeated(5), data.gen_two_gaussians(20, 2.0, 505)),
}

HIDDEN = (8, 64)

# The first seed of each group of runs; a group's runs take consecutive
# seeds. A run's seed also picks its data set (seed % 3) and, unless given,
# its hidden width (seed % 2), so no run's settings depend on the runs
# listed before it.
BATCH = {
    "random": 0, "entropy": 2, "margin": 4, "mlmoc": 6, "emoc": 8, "eer": 10,
    "mlmoc-naive": 14, "mlmoc-1step": 16,
}
BATCH_RAW = {"mlmoc": 18, "emoc": 20}
SEQUENTIAL = {"mlmoc": 24, "emoc": 28, "eer": 32}
SEQUENTIAL_RAW = {"mlmoc": 40, "emoc": 41}


def _matrix():
    """Run id -> settings; every run uses relu, a seed-0 MLP and SGD at lr 0.05."""
    assert list(BATCH) == list(pool.STRATEGIES), "every strategy runs in batch mode"
    runs = {}

    def add(mode, strategy, seed, **settings):
        dataset = settings.pop("dataset", tuple(DATASETS)[seed % len(DATASETS)])
        hidden = settings.pop("hidden", HIDDEN[seed % len(HIDDEN)])
        baseline = settings.get("score_baseline", "linearized")
        run_id = f"{mode}-{strategy}-{baseline}-2-{hidden}-2-{dataset}"
        if mode == "seq":
            run_id += f"-k{settings['query_batch_size']}-r{settings['retrain_every']}"
        assert run_id not in runs, run_id
        base = dict(
            strategy=strategy,
            dataset=dataset,
            hidden=hidden,
            sequential=mode == "seq",
            initial_labeled=8,
            query_batch_size=4,
            subset_size=16,
            cycles=3,
            epochs=30,
            minibatch_size=8,
            naive_epochs=2,
            seed=seed,
        )
        base.update(settings)
        runs[run_id] = base

    for strategy, first in BATCH.items():
        for seed in (first, first + 1):
            add("batch", strategy, seed)
    for strategy, first in BATCH_RAW.items():
        for seed in (first, first + 1):
            add("batch", strategy, seed, score_baseline="raw")
    for strategy, first in SEQUENTIAL.items():
        for seed, (k, retrain_every) in enumerate(itertools.product((1, 4), (0, 2)), first):
            add("seq", strategy, seed, query_batch_size=k, retrain_every=retrain_every)
    for strategy, seed in SEQUENTIAL_RAW.items():
        add("seq", strategy, seed, hidden=64, score_baseline="raw", query_batch_size=4, retrain_every=2)
    # The settings of the duplicate-point state that dpotrf factors on rounding.
    add(
        "seq", "mlmoc", 7, hidden=64, dataset="repeated", query_batch_size=4, retrain_every=2,
        initial_labeled=20, subset_size=12, epochs=100,
    )
    return runs


MATRIX = _matrix()


def blas_cores():
    """{"numpy": core, "scipy": core}: the OpenBLAS core each package's bundled
    library selected at run time (``OPENBLAS_CORETYPE`` overrides it), None
    for a library that does not say."""
    cores = {}
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        cores[package.__name__] = None
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))  # already loaded: dlopen returns the same handle
            for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
                corename = getattr(lib, symbol, None)
                if corename is not None:
                    corename.argtypes, corename.restype = [], ctypes.c_char_p
                    cores[package.__name__] = corename().decode()
    return cores


def _params_sha256(params):
    h = hashlib.sha256()
    for a in (*params.weights, *params.biases):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def run_one(settings):
    """The record of one run of ``MATRIX``."""
    s = dict(settings)
    train, test = DATASETS[s.pop("dataset")]()
    hidden = s.pop("hidden")
    train_cfg = net.TrainConfig(
        learning_rate=0.05, epochs=s.pop("epochs"), minibatch_size=s.pop("minibatch_size")
    )
    mlp = net.MlpConfig((2, hidden, 2), seed=0)
    config = pool.RunConfig(mlp=mlp, train=train_cfg, **s)
    seen = {"labeled": config.initial_labeled, "picks": []}

    def observe(cycle, p, params, state):
        labeled = [int(i) for i in p.labeled_indices]
        seen["picks"].append(labeled[seen["labeled"]:])
        seen["labeled"], seen["params"] = len(labeled), params

    run = pool.run_sequential_al if config.sequential else pool.run_batch_al
    try:
        records = run(config, train, test, observe)
    except Exception as exc:  # the record pins failures too
        return {"error": f"{type(exc).__name__}: {exc}"}
    cycles = [
        {
            "picks": picks,
            "labeled_size": r.labeled_size,
            "degenerate_skipped": r.degenerate_skipped,
            "test_accuracy": r.test_accuracy,
        }
        for picks, r in zip(seen["picks"], records)
    ]
    return {"cycles": cycles, "params_sha256": _params_sha256(seen["params"])}


def main():
    runs = {run_id: run_one(settings) for run_id, settings in MATRIX.items()}
    RECORD_PATH.write_text(json.dumps({"blas_core": blas_cores(), **runs}, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {RECORD_PATH}")


if __name__ == "__main__":
    main()
