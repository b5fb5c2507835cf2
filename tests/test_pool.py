import numpy as np
import pytest

from ntkal import acquire, data, kernel, lookahead, net, pool
from ntkal.errors import ContractError, DegenerateCandidateError


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
        assert q.unlabeled_indices == p.unlabeled_indices[3:]
        scattered = q.unlabeled_indices[::7]
        r = q.acquire(scattered)
        assert r.labeled_indices[-len(scattered):] == scattered
        assert r.unlabeled_indices == tuple(
            i for i in q.unlabeled_indices if i not in scattered
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
        [((0, 0), (1, 2)), ((0, 1), (2, 2)), ((0, -1), (2,)), ((0,), (10**6,))],
    )
    def test_repeated_or_outside_indices_rejected(self, labeled, unlabeled):
        ds, _ = _toy_data()
        with pytest.raises(ContractError):
            pool.Pool(ds, labeled, unlabeled)

    def test_fields_are_python_int_tuples(self):
        ds, _ = _toy_data()
        p = pool.Pool.initial(ds, 5, seed=0)
        q = p.acquire(np.array(p.unlabeled_indices[4:6]))
        for indices in (p.labeled_indices, q.labeled_indices, q.unlabeled_indices):
            assert type(indices) is tuple
            assert all(type(i) is int for i in indices)


class TestSampleSubset:
    def test_saturation_returns_all(self):
        ds, _ = _toy_data()
        p = pool.Pool.initial(ds, 10, seed=0)
        subset = pool.sample_subset(p, 10_000, seed=1)
        assert set(subset) == set(p.unlabeled_indices)

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
        assert pool.query_batch_topk(result, 1) == [result.argmax_index] == [1]

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

    def test_degenerate_excluded_until_needed(self):
        result = acquire.AcquisitionResult.from_scores(
            np.array([5.0, 0.0, 1.0]),
            degenerate_flags=np.array([True, False, False]),
        )
        assert pool.query_batch_topk(result, 2) == [2, 1]
        assert pool.query_batch_topk(result, 3) == [2, 1, 0]


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

    @pytest.mark.parametrize(
        "strategy", ["entropy", "margin", "emoc", "eer", "mlmoc-inf", "mlmoc-1step"]
    )
    def test_all_strategies_run(self, strategy):
        train, test = _toy_data(n=20)
        cfg = _tiny_config(strategy=strategy, cycles=1, subset_size=8, query_batch_size=2)
        records = pool.run_al(cfg, train, test)
        assert len(records) == 1

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
            assert bp.labeled_indices == sp.labeled_indices

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

    @pytest.mark.parametrize("strategy", ["mlmoc", "emoc", "eer", "mlmoc-inf"])
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
        scorer = {
            "mlmoc": acquire.mlmoc, "mlmoc-inf": acquire.mlmoc,
            "emoc": acquire.emoc, "eer": acquire.eer_lin,
        }[strategy]
        kernel_fn = None
        if strategy == "mlmoc-inf":
            kernel_fn = lambda params, a, b: kernel.infinite_ntk_fc(params.config, a, b)
        labeled = list(seen[-1][0].labeled_indices[: cfg.initial_labeled])
        state = None
        for cycle, (cycle_pool, params_after) in enumerate(seen):
            params = seen[0][1] if cycle < 2 else seen[1][1]
            if state is None:
                state = kernel.build_state(
                    params, train.subset(labeled), kernel_fn=kernel_fn
                )
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
            assert tuple(labeled) == cycle_pool.labeled_indices
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
        # The subset's n x n kernel block is evaluated once per cycle, not
        # once per pick: later picks condition the cycle's batch.
        calls = []
        original = kernel.KernelState.kernel_block

        def counting(self, a, b):
            calls.append(len(a))
            return original(self, a, b)

        monkeypatch.setattr(kernel.KernelState, "kernel_block", counting)
        train, test = _toy_data()
        cfg = _tiny_config(strategy="mlmoc", sequential=True, cycles=3, query_batch_size=4)
        pool.run_sequential_al(cfg, train, test)
        assert calls == [cfg.subset_size] * cfg.cycles

    def test_requires_kernel_strategy(self):
        train, test = _toy_data()
        cfg = _tiny_config(strategy="random", sequential=True)
        with pytest.raises(ContractError):
            pool.run_sequential_al(cfg, train, test)

    def test_dispatch_checks_mode(self):
        train, test = _toy_data()
        with pytest.raises(ContractError):
            pool.run_sequential_al(_tiny_config(strategy="mlmoc"), train, test)
        with pytest.raises(ContractError):
            pool.run_batch_al(
                _tiny_config(strategy="mlmoc", sequential=True), train, test
            )


class TestRunConfigValidation:
    def test_unknown_strategy_lists_valid_names(self):
        with pytest.raises(ContractError, match="mlmoc"):
            _tiny_config(strategy="banzai")

    def test_budget_constraints(self):
        with pytest.raises(ContractError):
            _tiny_config(query_batch_size=20, subset_size=10)
        with pytest.raises(ContractError):
            _tiny_config(cycles=0)
