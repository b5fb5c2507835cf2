from dataclasses import replace

import numpy as np
import pytest

from ntkal import acquire, data, kernel, lookahead, net, pool
from ntkal.errors import ContractError, DegenerateCandidateError, ShapeError


def _tiny_config(strategy="random", sequential=False, **overrides):
    base = dict(
        strategy=strategy,
        initial_labeled=6,
        query_batch_size=3,
        subset_size=12,
        cycles=2,
        mlp=net.MlpConfig((2, 16, 2), seed=0),
        train=net.TrainConfig(learning_rate=0.05, epochs=15, minibatch_size=8),
        sequential=sequential,
        seed=1,
    )
    base.update(overrides)
    return pool.RunConfig(**base)


def _toy_data(n=40, seed=0):
    train = data.gen_two_gaussians(n, 3.0, seed)
    test = data.gen_two_gaussians(n, 3.0, seed + 500)
    return train, test


def _strip_timing(records):
    return [
        (r.cycle, r.labeled_size, r.test_accuracy, r.strategy, r.seed, r.degenerate_skipped)
        for r in records
    ]


class TestPool:
    def test_initial_and_conservation(self):
        ds, _ = _toy_data()
        p = pool.Pool.initial(ds, 10, seed=0)
        assert len(p.labeled_indices) == 10
        assert len(p.labeled_indices) + len(p.unlabeled_indices) == len(ds)
        assert not set(p.labeled_indices) & set(p.unlabeled_indices)

    def test_acquire_moves(self):
        ds, _ = _toy_data()
        p = pool.Pool.initial(ds, 5, seed=0)
        move = p.unlabeled_indices[:3]
        q = p.acquire(move)
        assert len(q.labeled_indices) == 8
        assert not set(move) & set(q.unlabeled_indices)
        assert set(q.labeled_indices) | set(q.unlabeled_indices) == set(range(len(ds)))
        np.testing.assert_array_equal(q.unlabeled_indices, p.unlabeled_indices[3:])
        scattered = q.unlabeled_indices[::7]
        r = q.acquire(scattered)
        np.testing.assert_array_equal(r.labeled_indices[-len(scattered):], scattered)
        np.testing.assert_array_equal(
            r.unlabeled_indices, [i for i in q.unlabeled_indices if i not in scattered]
        )

    def test_acquire_rejects_labeled(self):
        ds, _ = _toy_data()
        p = pool.Pool.initial(ds, 5, seed=0)
        with pytest.raises(ContractError):
            p.acquire([p.labeled_indices[0]])

    def test_acquire_rejects_repeated_index(self):
        ds, _ = _toy_data()
        p = pool.Pool.initial(ds, 5, seed=0)
        i = p.unlabeled_indices[2]
        with pytest.raises(ContractError, match="twice"):
            p.acquire([i, p.unlabeled_indices[0], i])

    def test_overlap_rejected_with_sorted_indices(self):
        ds, _ = _toy_data()
        with pytest.raises(ContractError, match=r"unlabeled: \[2, 7\]"):
            pool.Pool(ds, (7, 1, 2), (0, 2, 3, 7))

    @pytest.mark.parametrize(
        "labeled, unlabeled",
        [
            ((0, 0), (1, 2)), ((0, 1), (2, 2)), ((0, -1), (2,)), ((0,), (10**6,)),
            # Non-integer dtypes are refused, not cast.
            ((1.7,), (2.2,)), ((True,), (2,)), ((0,), np.array([2.0, 3.0])), ((0,), (1, 2.5)),
        ],
    )
    def test_repeated_or_outside_indices_rejected(self, labeled, unlabeled):
        ds, _ = _toy_data()
        with pytest.raises(ContractError):
            pool.Pool(ds, labeled, unlabeled)

    @pytest.mark.parametrize("moving", [[3.9], [True], np.array([3.0])])
    def test_acquire_rejects_non_integer_indices(self, moving):
        ds, _ = _toy_data()
        p = pool.Pool(ds, (0,), (1, 2, 3))
        with pytest.raises(ContractError, match="integers"):
            p.acquire(moving)

    def test_empty_index_sequences_accepted(self):
        ds, _ = _toy_data()
        for empty in ((), [], np.array(())):
            p = pool.Pool(ds, (0, 1), empty)
            assert p.unlabeled_indices.dtype == np.intp and p.unlabeled_indices.size == 0
            q = pool.Pool(ds, (0,), (1, 2)).acquire(empty)
            assert q.labeled_indices.tolist() == [0] and q.unlabeled_indices.tolist() == [1, 2]

    def test_tuple_of_numpy_integers_accepted(self):
        # The form the benchmark builds pools in: a tuple of an index array.
        ds, _ = _toy_data()
        labeled = np.array([4, 0, 9], dtype=np.int64)
        p = pool.Pool(ds, tuple(labeled), np.array([1, 2], dtype=np.int32))
        assert p.labeled_indices.tolist() == [4, 0, 9] and p.unlabeled_indices.tolist() == [1, 2]

    def test_fields_are_read_only_intp_arrays(self):
        ds, _ = _toy_data()
        given = np.array([3, 1])
        p = pool.Pool(ds, given, (0, 2, 4))
        given[0] = 5  # the pool holds its own copy
        q = p.acquire([p.unlabeled_indices[1]])
        r = pool.Pool.initial(ds, 5, seed=0)
        for indices in (p.labeled_indices, q.labeled_indices, q.unlabeled_indices,
                        r.labeled_indices, r.unlabeled_indices):
            assert type(indices) is np.ndarray and indices.dtype == np.intp
            assert indices.ndim == 1 and not indices.flags.writeable
            with pytest.raises(ValueError):
                indices[0] = 7
        assert p.labeled_indices.tolist() == [3, 1]
        assert q.labeled_indices.tolist() == [3, 1, 2] and q.unlabeled_indices.tolist() == [0, 4]


class TestSampleSubset:
    def test_saturation_returns_all(self):
        ds, _ = _toy_data()
        p = pool.Pool.initial(ds, 10, seed=0)
        subset = pool.sample_subset(p, 10_000, seed=1)
        assert set(subset) == set(p.unlabeled_indices)

    def test_covering_size_returns_sorted_indices(self):
        ds, _ = _toy_data()
        p = pool.Pool(ds, (0,), (5, 3, 1))
        assert pool.sample_subset(p, 10, seed=0).tolist() == [1, 3, 5]
        assert pool.sample_subset(p, 3, seed=0).tolist() == [1, 3, 5]

    def test_negative_size_rejected(self):
        ds, _ = _toy_data()
        p = pool.Pool.initial(ds, 10, seed=0)
        with pytest.raises(ContractError, match="negative"):
            pool.sample_subset(p, -1, seed=0)
        # Non-integer sizes used to reach rng.choice as bare TypeErrors.
        with pytest.raises(ContractError, match="integer"):
            pool.sample_subset(p, 2.5, seed=0)
        with pytest.raises(ContractError, match="integer"):
            pool.Pool.initial(ds, 2.5, seed=0)

    def test_deterministic(self):
        ds, _ = _toy_data()
        p = pool.Pool.initial(ds, 10, seed=0)
        a = pool.sample_subset(p, 20, seed=7)
        b = pool.sample_subset(p, 20, seed=7)
        assert np.array_equal(a, b)

    def test_disjoint_from_labeled(self):
        ds, _ = _toy_data()
        p = pool.Pool.initial(ds, 10, seed=0)
        subset = pool.sample_subset(p, 25, seed=3)
        assert not set(int(i) for i in subset) & set(p.labeled_indices)
        assert len(set(subset.tolist())) == 25


class TestTopK:
    def test_k1_is_argmax(self):
        result = acquire.AcquisitionResult.from_scores(np.array([0.1, 0.9, 0.5]))
        assert pool.query_batch_topk(result, 1) == [np.argmax(result.scores)] == [1]

    def test_all_equal_takes_first_k(self):
        result = acquire.AcquisitionResult.from_scores(np.ones(6))
        assert pool.query_batch_topk(result, 3) == [0, 1, 2]

    def test_order_by_score(self):
        result = acquire.AcquisitionResult.from_scores(np.array([3.0, 1.0, 2.0]))
        assert pool.query_batch_topk(result, 2) == [0, 2]

    def test_k_exceeds_candidates(self):
        result = acquire.AcquisitionResult.from_scores(np.ones(3))
        with pytest.raises(ContractError):
            pool.query_batch_topk(result, 4)

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_k_rejected(self, k):
        # A slice [:k] would silently return n - |k| positions.
        result = acquire.AcquisitionResult.from_scores(np.ones(3))
        with pytest.raises(ContractError, match="outside"):
            pool.query_batch_topk(result, k)

    @pytest.mark.parametrize("k", [2.0, True, "1"])
    def test_non_integer_k_rejected(self, k):
        # 2.0 used to reach the slice [:k] as a bare TypeError.
        result = acquire.AcquisitionResult.from_scores(np.ones(3))
        with pytest.raises(ContractError, match="integer"):
            pool.query_batch_topk(result, k)

    def test_zero_k_picks_nothing(self):
        assert pool.query_batch_topk(acquire.AcquisitionResult.from_scores(np.ones(3)), 0) == []

    @pytest.mark.parametrize(
        "extra",
        [
            dict(degenerate_flags=np.zeros(2, bool)),
            dict(degenerate_flags=np.zeros((3, 1), bool)),
            dict(pseudo_labels=np.eye(2)),
        ],
    )
    def test_misaligned_result_rejected(self, extra):
        # Flags or pseudo-labels of another length than the scores would
        # otherwise reach query_batch_topk's lexsort as a bare ValueError.
        with pytest.raises(ShapeError):
            acquire.AcquisitionResult.from_scores(np.ones(3), **extra)
        with pytest.raises(ShapeError, match="1-D"):
            acquire.AcquisitionResult.from_scores(np.ones((3, 1)))

    def test_degenerate_excluded_until_needed(self):
        result = acquire.AcquisitionResult.from_scores(
            np.array([5.0, 0.0, 1.0]),
            degenerate_flags=np.array([True, False, False]),
        )
        assert pool.query_batch_topk(result, 2) == [2, 1]
        assert pool.query_batch_topk(result, 3) == [2, 1, 0]

    def test_matches_ranked_comprehension(self):
        # Against the two comprehensions over the lexsort order that the
        # selection replaces: few distinct scores make ties common, and k
        # often exceeds the healthy candidates, so the degenerate fallback
        # runs.
        def ranked_topk(result, k):
            order = np.lexsort((np.arange(len(result.scores)), -result.scores))
            ranked = [int(i) for i in order if not result.degenerate_flags[i]]
            ranked += [int(i) for i in order if result.degenerate_flags[i]]
            return ranked[:k]

        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            result = acquire.AcquisitionResult.from_scores(
                rng.integers(0, 4, n) * rng.choice([0.5, 1.0]),
                degenerate_flags=rng.random(n) < rng.random(),
            )
            k = int(rng.integers(1, n + 1))
            picked = pool.query_batch_topk(result, k)
            assert picked == ranked_topk(result, k)
            assert all(type(i) is int for i in picked)


class TestRunBatch:
    def test_random_moves_exactly_k(self):
        train, test = _toy_data()
        cfg = _tiny_config(cycles=1)
        records = pool.run_al(cfg, train, test)
        assert len(records) == 1
        assert records[0].labeled_size == cfg.initial_labeled + cfg.query_batch_size

    def test_deterministic_records(self):
        train, test = _toy_data()
        cfg = _tiny_config(strategy="mlmoc")
        a = pool.run_al(cfg, train, test)
        b = pool.run_al(cfg, train, test)
        assert _strip_timing(a) == _strip_timing(b)

    def test_monotone_budget(self):
        train, test = _toy_data()
        cfg = _tiny_config(strategy="entropy", cycles=3)
        records = pool.run_al(cfg, train, test)
        sizes = [r.labeled_size for r in records]
        assert all(b - a == cfg.query_batch_size for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] == cfg.initial_labeled + cfg.query_batch_size

    def test_pool_conserved_through_run(self):
        train, test = _toy_data()
        seen = []
        cfg = _tiny_config(strategy="mlmoc", cycles=2)
        pool.run_batch_al(
            cfg, train, test, on_cycle_end=lambda c, p, prm, st: seen.append(p)
        )
        for p in seen:
            assert len(p.labeled_indices) + len(p.unlabeled_indices) == len(train)
            assert not set(p.labeled_indices) & set(p.unlabeled_indices)

    def test_degenerate_heavy_subset(self):
        # Every distinct location appears once labeled and many times in
        # the pool, so all candidates collapse into the labeled span.
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        inputs = np.vstack([base, np.tile(base, (6, 1))])
        labels = np.tile([0, 1, 0, 1], 7)
        ds = data.make_dataset(inputs, labels, 2)
        test = data.gen_two_gaussians(10, 3.0, 0)
        cfg = pool.RunConfig(
            strategy="mlmoc",
            initial_labeled=4,
            query_batch_size=2,
            subset_size=24,
            cycles=1,
            mlp=net.MlpConfig((2, 8, 2), seed=0),
            train=net.TrainConfig(learning_rate=0.01, epochs=5, minibatch_size=4),
            seed=3,
        )
        records = pool.run_al(cfg, ds, test)
        assert records[0].degenerate_skipped > 0
        assert records[0].labeled_size == 6

    @pytest.mark.parametrize("strategy", pool.STRATEGIES)
    def test_all_strategies_run(self, strategy):
        train, test = _toy_data(n=20)
        cfg = _tiny_config(strategy=strategy, cycles=1, subset_size=8, query_batch_size=2)
        records = pool.run_al(cfg, train, test)
        assert len(records) == 1

    def test_one_step_matches_sgd_reference(self, monkeypatch):
        # mlmoc-1step as is, and with its scorer replaced by really taking one
        # full-batch SGD step at the configured learning rate.
        train, test = _toy_data(n=20)
        cfg = _tiny_config(strategy="mlmoc-1step", cycles=3, subset_size=8, query_batch_size=2)

        def run():
            labeled = []
            records = pool.run_batch_al(
                cfg, train, test, lambda cycle, p, *_: labeled.append(p.labeled_indices.tolist())
            )
            return _strip_timing(records), labeled

        closed_form = run()
        calls = []

        def sgd_step(params, labeled, candidates, learning_rate):
            calls.append((labeled, learning_rate))
            retrain = net.TrainConfig(
                cfg.train.learning_rate, epochs=1, minibatch_size=len(labeled) + 1
            )
            return acquire.naive_change_scores(params, labeled, candidates, retrain)

        monkeypatch.setattr(acquire, "one_step_change_scores", sgd_step)
        assert run() == closed_form
        assert [rate for _, rate in calls] == [cfg.train.learning_rate] * cfg.cycles
        assert len(calls[0][0]) == cfg.initial_labeled
        # Each later cycle scores against the labels held at the end of the last.
        for (labeled, _), indices in zip(calls[1:], closed_form[1]):
            assert np.array_equal(labeled.inputs, train.inputs[list(indices)])

    def test_naive_strategy_runs(self):
        train, test = _toy_data(n=15)
        cfg = _tiny_config(
            strategy="mlmoc-naive",
            cycles=1,
            subset_size=5,
            query_batch_size=2,
            naive_epochs=2,
        )
        records = pool.run_al(cfg, train, test)
        assert len(records) == 1

    def test_strategy_isolation(self):
        # Random selections do not depend on other strategies having run.
        train, test = _toy_data()
        cfg_rand = _tiny_config(strategy="random")
        first = pool.run_al(cfg_rand, train, test)
        pool.run_al(_tiny_config(strategy="mlmoc"), train, test)
        second = pool.run_al(cfg_rand, train, test)
        assert _strip_timing(first) == _strip_timing(second)


class TestRunLoop:
    @pytest.mark.parametrize("sequential", [False, True])
    def test_budget_beyond_pool_fails_before_training(self, monkeypatch, sequential):
        trained = []
        original = net.train_sgd
        monkeypatch.setattr(
            net, "train_sgd", lambda *a, **kw: trained.append(1) or original(*a, **kw)
        )
        train, test = _toy_data(n=10)
        cfg = _tiny_config(strategy="mlmoc", sequential=sequential, cycles=6)
        with pytest.raises(ContractError, match=r"6 \+ 6 \* 3 = 24 exceeds the pool of 20"):
            pool.run_al(cfg, train, test)
        assert trained == []
        exact = _tiny_config(
            strategy="mlmoc", sequential=sequential, initial_labeled=8, cycles=4
        )
        records = pool.run_al(exact, train, test)
        assert records[-1].labeled_size == len(train)
        assert trained

    @pytest.mark.parametrize("sequential", [False, True])
    def test_observer_state(self, sequential):
        # The benchmark gates the state a batch cycle scored with, and counts
        # sequential labels missing from the live state; a retrain drops it.
        train, test = _toy_data()
        cfg = _tiny_config(
            strategy="mlmoc", sequential=sequential, cycles=4, retrain_every=2
        )
        seen = []
        records = (pool.run_sequential_al if sequential else pool.run_batch_al)(
            cfg, train, test, on_cycle_end=lambda c, p, prm, st: seen.append(st)
        )
        for record, state in zip(records, seen):
            if not sequential:
                assert state.labeled_count == record.labeled_size - cfg.query_batch_size
            elif record.cycle % 2 == 1:
                assert state is None
            else:
                assert state.labeled_count == record.labeled_size
        assert len(seen) == cfg.cycles

    @pytest.mark.parametrize("sequential", [False, True])
    def test_run_al_observes_as_the_mode_entry(self, sequential):
        # run_al runs the mode's own loop and passes the observer on.
        train, test = _toy_data()
        cfg = _tiny_config(strategy="mlmoc", sequential=sequential, cycles=3, retrain_every=2)
        runs = []
        for entry in (pool.run_al, pool.run_sequential_al if sequential else pool.run_batch_al):
            seen = []

            def observe(cycle, p, params, state):
                count = None if state is None else state.labeled_count
                seen.append((cycle, p.labeled_indices.tolist(), params.weights[0].tobytes(), count))

            records = entry(cfg, train, test, on_cycle_end=observe)
            runs.append(([replace(r, query_seconds=0.0, train_seconds=0.0) for r in records], seen))
        assert runs[0] == runs[1] and len(runs[0][1]) == cfg.cycles

    @pytest.mark.parametrize("sequential", [False, True])
    @pytest.mark.parametrize(
        "strategy, scorer", [("mlmoc", "mlmoc"), ("emoc", "emoc"), ("eer", "eer_lin")]
    )
    def test_scorers_are_looked_up_on_acquire(self, monkeypatch, strategy, scorer, sequential):
        # The benchmark's tracer replaces these attributes; a table of the
        # functions captured at import time would bypass it. Batch mode
        # scores fresh rows once per cycle, sequential mode the cycle's
        # batch once per pick.
        calls = []
        for name in ("mlmoc", "emoc", "eer_lin"):
            for attr in (name, "score_" + name):
                original = getattr(acquire, attr)
                monkeypatch.setattr(
                    acquire, attr,
                    lambda *a, _f=original, _n=attr, **kw: calls.append(_n) or _f(*a, **kw),
                )
        train, test = _toy_data()
        cfg = _tiny_config(strategy=strategy, sequential=sequential)
        (pool.run_sequential_al if sequential else pool.run_batch_al)(cfg, train, test)
        if sequential:
            assert calls == ["score_" + scorer] * (cfg.cycles * cfg.query_batch_size)
        else:
            assert calls == [scorer, "score_" + scorer] * cfg.cycles


class TestTestAccuracy:
    """Records' ``test_accuracy`` after a retrain comes from ``net.Evaluator``;
    it must equal the float64 network's."""

    @staticmethod
    def _float64_accuracy(params, test):
        return float(np.mean(np.argmax(net.forward(params, test.inputs), axis=1) == test.labels))

    @pytest.mark.parametrize("strategy", ["random", "mlmoc"])
    def test_batch_records_match_float64_network(self, strategy):
        train = data.gen_spirals(60, 0.2, 0)
        test = data.gen_spirals(150, 0.2, 1)
        cfg = _tiny_config(strategy, cycles=4, mlp=net.MlpConfig((2, 32, 2), seed=0))
        expected = []
        records = pool.run_batch_al(
            cfg, train, test,
            on_cycle_end=lambda c, p, params, s: expected.append(self._float64_accuracy(params, test)),
        )
        assert [r.test_accuracy for r in records] == expected
        assert 0.0 < min(expected) and max(expected) < 1.0  # the labels are not all one way

    def test_retraining_sequential_cycles_match_float64_network(self):
        train = data.gen_spirals(60, 0.2, 0)
        test = data.gen_spirals(150, 0.2, 1)
        cfg = _tiny_config(
            "mlmoc", sequential=True, cycles=4, retrain_every=2,
            mlp=net.MlpConfig((2, 32, 2), seed=0),
        )
        retrained = {}

        def observe(cycle, p, params, state):
            if state is None:  # a retrain drops the state
                retrained[cycle] = self._float64_accuracy(params, test)

        records = pool.run_sequential_al(cfg, train, test, on_cycle_end=observe)
        assert sorted(retrained) == [1, 3]
        assert {c: records[c].test_accuracy for c in retrained} == retrained


class TestRunSequential:
    def test_k1_matches_batch_selections(self):
        train, test = _toy_data()
        batch_cfg = _tiny_config(strategy="mlmoc", query_batch_size=1, cycles=2)
        seq_cfg = _tiny_config(
            strategy="mlmoc", query_batch_size=1, cycles=2, sequential=True
        )
        batch_pools, seq_pools = [], []
        pool.run_batch_al(
            batch_cfg, train, test, on_cycle_end=lambda c, p, prm, st: batch_pools.append(p)
        )
        pool.run_sequential_al(
            seq_cfg, train, test, on_cycle_end=lambda c, p, prm, st: seq_pools.append(p)
        )
        for bp, sp in zip(batch_pools, seq_pools):
            np.testing.assert_array_equal(bp.labeled_indices, sp.labeled_indices)

    def test_growth_is_k_per_cycle(self):
        train, test = _toy_data()
        cfg = _tiny_config(strategy="mlmoc", sequential=True, cycles=3)
        records = pool.run_al(cfg, train, test)
        sizes = [r.labeled_size for r in records]
        assert all(b - a == cfg.query_batch_size for a, b in zip(sizes, sizes[1:]))

    def test_no_retrain_state_matches_cold_rebuild(self):
        train, test = _toy_data()
        cfg = _tiny_config(
            strategy="mlmoc", sequential=True, cycles=3, retrain_every=0
        )
        captured = {}

        def grab(cycle, p, params, state):
            captured["pool"] = p
            captured["params"] = params
            captured["state"] = state

        pool.run_sequential_al(cfg, train, test, on_cycle_end=grab)
        state = captured["state"]
        cold = kernel.build_state(
            captured["params"], captured["pool"].labeled_dataset()
        )
        # The streaming state keeps rows in acquisition order; compare
        # predictions on a fixed grid instead of raw matrices.
        q = test.inputs[:50]
        streaming = lookahead.predict_lin(state, q)
        rebuilt = lookahead.predict_lin(cold, q)
        err = np.max(np.abs(streaming - rebuilt)) / max(np.max(np.abs(rebuilt)), 1e-12)
        assert err < 1e-6

    @pytest.mark.parametrize("strategy", ["mlmoc", "emoc", "eer"])
    def test_matches_per_pick_rescoring(self, strategy):
        # The subset is the whole unlabeled set, so a rescoring loop over
        # public API reproduces every candidate set. Cycle 1 retrains, so
        # cycle 2 starts from a rebuilt state.
        train, test = _toy_data(n=15)
        cfg = _tiny_config(
            strategy=strategy, sequential=True, cycles=3, retrain_every=2,
            subset_size=len(train),
        )
        seen = []
        pool.run_sequential_al(
            cfg, train, test, on_cycle_end=lambda c, p, prm, st: seen.append((p, prm))
        )
        scorer = {"mlmoc": acquire.mlmoc, "emoc": acquire.emoc, "eer": acquire.eer_lin}[strategy]
        labeled = list(seen[-1][0].labeled_indices[: cfg.initial_labeled])
        state = None
        for cycle, (cycle_pool, params_after) in enumerate(seen):
            params = seen[0][1] if cycle < 2 else seen[1][1]
            if state is None:
                state = kernel.build_state(params, train.subset(labeled))
            subset = sorted(set(range(len(train))) - set(labeled))
            for _ in range(cfg.query_batch_size):
                result = scorer(state, train.inputs[subset])
                idx = subset.pop(pool.query_batch_topk(result, 1)[0])
                labeled.append(idx)
                try:
                    state = lookahead.augment_state(
                        state, train.inputs[idx], train.one_hot[idx]
                    )
                except DegenerateCandidateError:
                    pass
            assert labeled == cycle_pool.labeled_indices.tolist()
            if cycle == 1:
                state = None

    def test_subset_of_batch_size_conditions_to_the_last_candidate(self):
        train, test = _toy_data()
        cfg = _tiny_config(
            strategy="mlmoc", sequential=True, cycles=2, subset_size=3, query_batch_size=3
        )
        records = pool.run_sequential_al(cfg, train, test)
        assert [r.labeled_size for r in records] == [9, 12]

    def test_kernel_block_once_per_cycle(self, monkeypatch):
        # The subset's kernel block is contracted once per cycle, not once
        # per pick and not once for scoring plus once for conditioning:
        # later picks condition the cycle's batch. The subset's gradient
        # factors come from one pass per cycle too. In a cycle that keeps
        # the state, the k picks enter it as one block, so their own k x k
        # block is contracted once; a cycle that retrains contracts none.
        # A cycle after a retrain first rebuilds the state from the
        # retrained network, which contracts the labeled Gram as one block.
        blocks, factor_rows = [], []
        original_block, original_factors = kernel.FeatureBatch.add_block, net.grad_factors

        def counting_block(self, rows, cols, out):
            blocks.append((len(self.rows), rows, cols))
            return original_block(self, rows, cols, out)

        def counting_factors(params, x):
            factor_rows.append(len(x))
            return original_factors(params, x)

        monkeypatch.setattr(kernel.FeatureBatch, "add_block", counting_block)
        monkeypatch.setattr(net, "grad_factors", counting_factors)
        train, test = _toy_data()
        cfg = _tiny_config(
            strategy="mlmoc", sequential=True, cycles=3, query_batch_size=4, retrain_every=2
        )
        pool.run_sequential_al(cfg, train, test)
        n, k = cfg.subset_size, cfg.query_batch_size
        kept = [(cycle + 1) % cfg.retrain_every != 0 for cycle in range(cfg.cycles)]
        sizes = []
        for cycle, keeps in enumerate(kept):
            rebuilt = cycle == 0 or not kept[cycle - 1]
            sizes += [cfg.initial_labeled + cycle * k] * rebuilt + [n] + [k] * keeps
        assert kept == [True, False, True] and max(sizes) <= kernel.CHUNK_ROWS
        assert blocks == [(size, slice(0, size), slice(0, size)) for size in sizes]
        assert factor_rows.count(n) == cfg.cycles

    def test_picks_enter_the_state_once_per_cycle(self, monkeypatch):
        # One augment_state call per cycle takes the cycle's picks in pick
        # order; no pick gets a one-row gradient-factor pass of its own.
        calls, factor_rows = [], []
        original_augment, original_factors = lookahead.augment_state, net.grad_factors

        def counting_augment(state, x, y):
            calls.append((x, y))
            return original_augment(state, x, y)

        def counting_factors(params, x):
            factor_rows.append(len(x))
            return original_factors(params, x)

        monkeypatch.setattr(lookahead, "augment_state", counting_augment)
        monkeypatch.setattr(net, "grad_factors", counting_factors)
        train, test = _toy_data()
        k = 4
        cfg = _tiny_config(
            strategy="mlmoc", sequential=True, cycles=3, query_batch_size=k, retrain_every=0
        )
        seen = []
        pool.run_sequential_al(
            cfg, train, test, on_cycle_end=lambda c, p, prm, st: seen.append((p, st))
        )
        assert len(calls) == cfg.cycles
        labeled = seen[-1][0].labeled_indices[cfg.initial_labeled :]
        for cycle, (x, y) in enumerate(calls):
            picks = list(labeled[cycle * k : (cycle + 1) * k])
            np.testing.assert_array_equal(x, train.inputs[picks])
            np.testing.assert_array_equal(y, train.one_hot[picks])
        assert 1 not in factor_rows
        assert seen[-1][1].labeled_count == cfg.initial_labeled + cfg.cycles * k

    @pytest.mark.parametrize("retrain_every, calls", [(0, 3), (1, 0), (2, 2)])
    def test_picks_enter_only_a_kept_state(self, monkeypatch, retrain_every, calls):
        # A cycle that retrains drops its state, so its picks never enter it.
        seen = []
        original = lookahead.augment_state
        monkeypatch.setattr(
            lookahead, "augment_state", lambda *a: seen.append(len(a[1])) or original(*a)
        )
        train, test = _toy_data()
        cfg = _tiny_config(
            strategy="mlmoc", sequential=True, cycles=3, retrain_every=retrain_every
        )
        pool.run_sequential_al(cfg, train, test)
        assert seen == [cfg.query_batch_size] * calls

    def test_dispatch_checks_mode(self):
        train, test = _toy_data()
        with pytest.raises(ContractError):
            pool.run_sequential_al(_tiny_config(strategy="mlmoc"), train, test)
        with pytest.raises(ContractError):
            pool.run_batch_al(
                _tiny_config(strategy="mlmoc", sequential=True), train, test
            )


class TestEntropyTablePaths:
    """eer runs are the same whichever path each chunk of the entropy table takes."""

    @staticmethod
    def _blobs(n, seed, c=4):
        # c unit-variance blobs on a circle of radius 1.5: weakly separated
        # classes keep many look-ahead softmaxes inside the direct band.
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, c, n)
        angles = 2.0 * np.pi * np.arange(c) / c
        centers = 1.5 * np.column_stack([np.cos(angles), np.sin(angles)])
        return data.make_dataset(centers[labels] + rng.standard_normal((n, 2)), labels, c)

    @pytest.mark.parametrize("sequential", [False, True])
    def test_band_closed_gives_identical_runs(self, monkeypatch, sequential):
        train, test = self._blobs(60, 0), self._blobs(40, 1)
        extra = dict(retrain_every=2) if sequential else {}
        cfg = _tiny_config(
            strategy="eer", sequential=sequential, cycles=3,
            mlp=net.MlpConfig((2, 16, 4), seed=0), **extra,
        )
        # One candidate column per chunk, so each column picks its own path.
        monkeypatch.setattr(acquire, "_TABLE_CHUNK_BYTES", 1)
        paths, direct = [], acquire._direct_entropies

        def spy(a, g):
            values = direct(a, g)
            paths.append(values is not None)
            return values

        monkeypatch.setattr(acquire, "_direct_entropies", spy)

        def run():
            picks = []
            records = (pool.run_sequential_al if sequential else pool.run_batch_al)(
                cfg, train, test, lambda cycle, p, *_: picks.append(p.labeled_indices.tolist())
            )
            return _strip_timing(records), picks

        open_band = run()
        assert any(paths) and not all(paths)
        monkeypatch.setattr(acquire, "_DIRECT_MAX_GAIN", -1.0)
        paths.clear()
        assert run() == open_band
        assert paths and not any(paths)


class TestRunConfigValidation:
    def test_unknown_strategy_lists_valid_names(self):
        with pytest.raises(ContractError, match="mlmoc"):
            _tiny_config(strategy="banzai")

    def test_budget_constraints(self):
        with pytest.raises(ContractError):
            _tiny_config(query_batch_size=20, subset_size=10)
        with pytest.raises(ContractError):
            _tiny_config(cycles=0)
        # Non-integer counts used to pass and fail later as bare TypeErrors.
        for bad in (dict(cycles=2.5), dict(initial_labeled=8.0), dict(subset_size=16.5),
                    dict(query_batch_size=True), dict(retrain_every=1.0)):
            with pytest.raises(ContractError, match="must be an integer"):
                _tiny_config(**bad)

    def test_requires_kernel_strategy(self):
        for strategy in ("random", "entropy", "margin", "mlmoc-naive", "mlmoc-1step"):
            with pytest.raises(ContractError, match="sequential mode"):
                _tiny_config(strategy=strategy, sequential=True)

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractError, match="seed"):
            _tiny_config(seed=-1)
