"""The equivalence record: small active-learning runs whose outcomes are pinned.

Each run of ``MATRIX`` is a full ``pool.run_batch_al`` or
``run_sequential_al`` on 2-D data with 60-80 points. Its record holds the dataset indices picked per cycle (in pick
order), each cycle's ``labeled_size``, ``degenerate_skipped`` and
``test_accuracy``, and a SHA-256 of the final network parameters; a run
that raises records its exception instead. ``tests/test_equivalence.py``
reruns every run and compares it with ``equivalence_record.json``, so a
change that moves any pick, count, accuracy or parameter bit fails there.

The matrix covers all nine strategies in batch mode, the four look-ahead
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

import hashlib
import json
from pathlib import Path

import numpy as np

from ntkal import data, net, pool

RECORD_PATH = Path(__file__).with_name("equivalence_record.json")

LOOKAHEAD = ("mlmoc", "emoc", "eer", "mlmoc-inf")


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


def _matrix():
    """Run id -> settings; every run uses relu, a seed-0 MLP and SGD at lr 0.05."""
    runs = {}
    names = tuple(DATASETS)

    def add(mode, strategy, hidden, n, **settings):
        baseline = settings.get("score_baseline", "linearized")
        dataset = settings.pop("dataset", names[n % len(names)])
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
            seed=len(runs),
        )
        base.update(settings)
        runs[run_id] = base

    n = 0
    for strategy in pool.STRATEGIES:
        for hidden in HIDDEN:
            add("batch", strategy, hidden, n)
            n += 1
    for strategy in ("mlmoc", "emoc", "mlmoc-inf"):
        for hidden in HIDDEN:
            add("batch", strategy, hidden, n, score_baseline="raw")
            n += 1
    for strategy in LOOKAHEAD:
        for k in (1, 4):
            for retrain_every in (0, 2):
                add("seq", strategy, HIDDEN[n % 2], n, query_batch_size=k, retrain_every=retrain_every)
                n += 1
    for strategy in ("mlmoc", "emoc"):
        add("seq", strategy, 64, n, score_baseline="raw", query_batch_size=4, retrain_every=2)
        n += 1
    # The settings of the duplicate-point state that dpotrf factors on rounding.
    add(
        "seq", "mlmoc", 64, n, dataset="repeated", query_batch_size=4, retrain_every=2,
        initial_labeled=20, subset_size=12, epochs=100, seed=7,
    )
    return runs


MATRIX = _matrix()


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
    record = {run_id: run_one(settings) for run_id, settings in MATRIX.items()}
    RECORD_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(record)} runs to {RECORD_PATH}")


if __name__ == "__main__":
    main()
