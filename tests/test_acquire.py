import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy import stats

from ntkal import acquire, data, kernel, linalg, lookahead, net, pool
from ntkal.errors import ContractError, DegenerateCandidateError, DivergenceError, ShapeError

import oracles

LN2 = float(np.log(2.0))


def _problem(l_size=8, c=2, dim=2, seed=0, width=24):
    rng = np.random.default_rng(seed)
    params = net.init(net.MlpConfig((dim, width, c), seed=seed))
    x = rng.standard_normal((l_size, dim))
    y = data.one_hot_encode(rng.integers(0, c, l_size), c)
    return params, x, y, kernel.build_state_xy(params, x, y)


def _lookahead_after(state, xc, yc, q):
    """Predictions at q after hypothetically labeling xc with yc.

    The engine scores xc and the rows of q as one candidate batch, and
    the rows of q are read from xc's gain column.
    """
    batch = lookahead.lookahead_batch(state, np.vstack([xc, q]))
    gains = oracles.gains(batch)
    return batch.shift_base[1:] + np.outer(gains[1:, 0], batch.shift_base[0] - yc)


def _brute_change_score(params, x, y, cand, label, reference):
    """Direct augmented dense solve of the look-ahead change, per candidate."""
    gram = kernel.empirical_ntk(params, x, x)
    cross = kernel.empirical_ntk(params, reference, x)
    residual = y - net.forward(params, x)
    base = net.forward(params, reference) + cross @ np.linalg.inv(gram) @ residual
    x_aug = np.vstack([x, cand])
    y_aug = np.vstack([y, label])
    gram_aug = kernel.empirical_ntk(params, x_aug, x_aug)
    cross_aug = kernel.empirical_ntk(params, reference, x_aug)
    res_aug = y_aug - net.forward(params, x_aug)
    after = net.forward(params, reference) + cross_aug @ np.linalg.inv(gram_aug) @ res_aug
    return float(np.sum(np.linalg.norm(after - base, axis=1)))


class TestMlmoc:
    def test_no_op_candidate_scores_zero(self):
        # Identity network so one input maps to an exactly one-hot output;
        # with zero residuals everywhere, adding it changes nothing.
        cfg = net.MlpConfig((2, 2), nonlinearity="identity", beta=0.0)
        w = np.sqrt(2.0) * np.eye(2)
        params = net.MlpParams(cfg, (w,), (np.zeros(2),))
        x = np.array([[0.3, 0.8], [-0.5, 0.2]])
        state = kernel.build_state_xy(params, x, net.forward(params, x))
        cand = np.array([[1.0, 0.0]])  # f(cand) == (1, 0) == its pseudo-label
        result = acquire.mlmoc(state, cand)
        assert result.scores[0] == 0.0

    def test_matches_brute_force_toy(self):
        rng = np.random.default_rng(42)
        centers = np.array([[-1.0, 0.0], [1.0, 0.0]])
        x = np.vstack([centers + 0.3 * rng.standard_normal((2, 2)) for _ in range(2)])
        y = data.one_hot_encode([0, 1, 0, 1], 2)
        params = net.init(net.MlpConfig((2, 32, 2), seed=7))
        state = kernel.build_state_xy(params, x, y)
        cands = rng.standard_normal((3, 2))
        result = acquire.mlmoc(state, cands)
        outs = net.forward(params, cands)
        brute = []
        for i in range(3):
            label = np.zeros(2)
            label[np.argmax(outs[i])] = 1.0
            brute.append(_brute_change_score(params, x, y, cands[i], label, cands))
        brute = np.array(brute)
        np.testing.assert_allclose(result.scores, brute, rtol=1e-8)
        assert np.argmax(result.scores) == np.argmax(brute)

    def test_duplicate_of_labeled_is_degenerate(self):
        params, x, y, state = _problem(seed=3)
        cands = np.vstack([x[0], np.random.default_rng(4).standard_normal(2)])
        result = acquire.mlmoc(state, cands)
        assert result.degenerate_flags[0]
        assert not result.degenerate_flags[1]
        assert result.scores[0] == 0.0

    def test_raw_baseline_measures_against_network_outputs(self):
        params, x, y, state = _problem(seed=5)
        rng = np.random.default_rng(6)
        cands = rng.standard_normal((4, 2))
        result = acquire.mlmoc(state, cands, baseline="raw")
        outs = net.forward(params, cands)
        for i in range(4):
            label = np.zeros(2)
            label[np.argmax(outs[i])] = 1.0
            after = _lookahead_after(state, cands[i], label, cands)
            expected = float(np.sum(np.linalg.norm(after - outs, axis=1)))
            assert abs(result.scores[i] - expected) < 1e-9 * max(expected, 1.0)

    def test_empty_candidates_rejected(self):
        _, _, _, state = _problem()
        with pytest.raises(ContractError):
            acquire.mlmoc(state, np.zeros((0, 2)))


class TestScoresMatchAugmentedState:
    """mlmoc against explicitly augmented states on jittered and rank-deficient Grams.

    Width 3 on 2-d inputs has 17 parameters, so 30 labels give a Gram of
    rank at most 17 that only factorizes with jitter.
    """

    @staticmethod
    def _state(seed, ladder):
        rng = np.random.default_rng(seed)
        params = net.init(net.MlpConfig((2, 3, 2), seed=seed))
        x = rng.standard_normal((30, 2))
        y = data.one_hot_encode(rng.integers(0, 2, 30), 2)
        with oracles.jitter_ladder(ladder):
            state = kernel.build_state_xy(params, x, y)
        assert state.labeled_count > params.config.param_count
        return state, rng.standard_normal((40, 2))

    def test_jittered_scores_equal_augmented_change(self):
        for seed in range(10):
            state, cands = self._state(seed, (1e-3,))
            assert state.factor.jitter_applied > 0.0
            result = acquire.mlmoc(state, cands)
            before = lookahead.predict_lin(state, cands)
            for i in np.flatnonzero(~result.degenerate_flags):
                aug = lookahead.augment_state(state, cands[i], result.pseudo_labels[i])
                change = lookahead.predict_lin(aug, cands) - before
                explicit = float(np.sum(np.linalg.norm(change, axis=1)))
                assert abs(result.scores[i] - explicit) <= 1e-8 * explicit

    def test_rank_deficient_flags_agree_with_augment(self):
        for seed in range(20):
            state, cands = self._state(seed, linalg.JITTER_LADDER)
            result = acquire.mlmoc(state, cands)
            for i, x in enumerate(cands):
                try:
                    lookahead.augment_state(state, x, result.pseudo_labels[i])
                    raised = False
                except DegenerateCandidateError:
                    raised = True
                assert raised == result.degenerate_flags[i]


class TestEmoc:
    def test_single_class_equals_mlmoc(self):
        params, x, _, _ = _problem(c=1, seed=8)
        y = np.ones((8, 1))
        state = kernel.build_state_xy(params, x, y)
        cands = np.random.default_rng(9).standard_normal((4, 2))
        m = acquire.mlmoc(state, cands)
        e = acquire.emoc(state, cands)
        np.testing.assert_allclose(e.scores, m.scores, rtol=1e-12)

    def test_uniform_weights_average_label_scores(self):
        # Tie the two output heads together so every candidate's logits are
        # equal and the softmax weights are exactly one half each.
        cfg = net.MlpConfig((2, 16, 2), seed=10)
        params = net.init(cfg)
        w_last = params.weights[-1].copy()
        w_last[:, 1] = w_last[:, 0]
        b_last = params.biases[-1].copy()
        b_last[1] = b_last[0]
        params = net.MlpParams(cfg, (params.weights[0], w_last), (params.biases[0], b_last))
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 2))
        y = data.one_hot_encode(rng.integers(0, 2, 6), 2)
        state = kernel.build_state_xy(params, x, y)
        cands = rng.standard_normal((5, 2))
        result = acquire.emoc(state, cands)
        for i in range(5):
            per_label = []
            for cls in range(2):
                label = np.eye(2)[cls]
                after = _lookahead_after(state, cands[i], label, cands)
                base = lookahead.predict_lin(state, cands)
                per_label.append(float(np.sum(np.linalg.norm(after - base, axis=1))))
            assert abs(result.scores[i] - np.mean(per_label)) < 1e-9

    def test_matches_brute_force_expectation(self):
        params, x, y, state = _problem(l_size=6, c=3, seed=12, width=20)
        rng = np.random.default_rng(13)
        cands = rng.standard_normal((4, 2))
        result = acquire.emoc(state, cands)
        outs = net.forward(params, cands)
        probs = acquire.softmax(outs)
        for i in range(4):
            expected = 0.0
            for cls in range(3):
                expected += probs[i, cls] * _brute_change_score(
                    params, x, y, cands[i], np.eye(3)[cls], cands
                )
            assert abs(result.scores[i] - expected) < 1e-8 * max(expected, 1.0)

    def test_agrees_with_mlmoc_when_softmax_saturated(self):
        # Scaled output layer pushes the argmax label's weight to 1 - eps
        # with eps far below 1e-12.
        cfg = net.MlpConfig((2, 16, 2), seed=16)
        base_params = net.init(cfg)
        scale = 200.0
        params = net.MlpParams(
            cfg,
            (base_params.weights[0], base_params.weights[1] * scale),
            (base_params.biases[0], base_params.biases[1] * scale),
        )
        rng = np.random.default_rng(17)
        x = rng.standard_normal((6, 2))
        y = data.one_hot_encode(rng.integers(0, 2, 6), 2)
        state = kernel.build_state_xy(params, x, y)
        raw = rng.standard_normal((20, 2))
        pre_gap = np.abs(np.diff(net.forward(base_params, raw), axis=1))[:, 0]
        cands = raw[pre_gap > 0.2][:4]
        outs = net.forward(params, cands)
        gaps = np.abs(outs[:, 0] - outs[:, 1])
        assert np.all(gaps > 30.0)  # softmax eps below 1e-13
        m = acquire.mlmoc(state, cands)
        e = acquire.emoc(state, cands)
        np.testing.assert_allclose(e.scores, m.scores, rtol=1e-9)


class TestChunkedScoring:
    """Scores from column-chunked |gains| sums and per-label tables.

    The batches hold Sigma dense, without the factors they come from. The
    linearized branch sums whole columns of |Sigma| before dividing by the
    pivots (streamed sums of unformed batches: ``test_lookahead``
    TestStreamedColumnSums); the raw branch derives every label from shared
    sums. Both match the whole-tensor formulas up to rounding.
    """

    @staticmethod
    def _batch(dense=True):
        rng = np.random.default_rng(60)
        params = net.init(net.MlpConfig((4, 24, 3), seed=60))
        x = rng.standard_normal((20, 4))
        y = data.one_hot_encode(rng.integers(0, 3, 20), 3)
        state = kernel.build_state_xy(params, x, y)
        cands = np.vstack([rng.standard_normal((600, 4)), x[:2]])
        batch = lookahead.lookahead_batch(state, cands)
        return batch.dense() if dense else batch

    def test_dense_scores_match_live_compacted_copy(self, monkeypatch):
        # Sigma after picks in three of its 64-column blocks, against a
        # copy of its live rows and columns only: sums and tables read the
        # live candidates only.
        monkeypatch.setattr(acquire, "_TABLE_CHUNK_BYTES", 8 * 602 * 3 * 70)
        batch = self._batch(dense=False)
        for i, label in [(5, 0), (300, 1), (100, 2)]:
            batch = lookahead.condition(batch, i, np.eye(3)[label])
        dead = np.setdiff1d(np.arange(602), batch.live)
        assert len(batch.live) == 599 and not np.any(batch.sigma[:, dead])
        assert batch.degenerate[-2:].all()
        live = np.ix_(batch.live, batch.live)
        compact = replace(batch, sigma=np.asfortranarray(batch.sigma[live]), live=np.arange(599))
        for baseline in acquire.BASELINES:
            for score in (acquire.score_mlmoc, acquire.score_emoc):
                np.testing.assert_allclose(
                    score(batch, baseline).scores, score(compact, baseline).scores,
                    rtol=1e-12, atol=0.0,
                )
        np.testing.assert_allclose(
            acquire.score_eer_lin(batch).scores, acquire.score_eer_lin(compact).scores,
            rtol=1e-12, atol=0.0,
        )

    def test_emoc_matches_whole_array_formula(self, monkeypatch):
        # A small byte budget splits the raw table into several chunks,
        # the last one partial.
        monkeypatch.setattr(acquire, "_TABLE_CHUNK_BYTES", 8 * 602 * 3 * 70)
        batch = self._batch()
        assert batch.degenerate[-2:].all()
        for baseline in ("linearized", "raw"):
            want = oracles.emoc_scores(batch, baseline)
            got = acquire.score_emoc(batch, baseline).scores
            if baseline == "raw":
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("baseline", ["linearized", "raw"])
    def test_mlmoc_matches_whole_array_formula(self, monkeypatch, baseline):
        monkeypatch.setattr(acquire, "_TABLE_CHUNK_BYTES", 8 * 602 * 3 * 100)
        batch = self._batch()
        result = acquire.score_mlmoc(batch, baseline)
        want = oracles.change_norms(batch, result.pseudo_labels, baseline)
        want[batch.degenerate] = 0.0
        if baseline == "raw":
            np.testing.assert_allclose(result.scores, want, rtol=1e-14, atol=0.0)
        else:
            np.testing.assert_allclose(result.scores, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("form", ["unformed", "dense", "conditioned"])
    @pytest.mark.parametrize("baseline", acquire.BASELINES)
    def test_mlmoc_is_the_emoc_table_at_the_argmax_label(self, form, baseline):
        # One rule scores both: emoc adds the table's softmax-weighted
        # entries label by label, mlmoc reads the argmax label's entry,
        # bit for bit; both score 0 where degenerate.
        batch = self._batch(dense=form != "unformed")
        if form == "conditioned":
            batch = lookahead.condition(batch, 5, np.eye(3)[1])
        probs = acquire.softmax(batch.outputs)
        assert batch.degenerate.any() and np.all(probs > 0.0)
        table = acquire._change_table(batch, baseline, probs)
        expected = probs[:, 0] * table[:, 0]
        for l in range(1, 3):
            expected = expected + probs[:, l] * table[:, l]
        top = np.argmax(batch.outputs, axis=1)
        at_top = table[np.arange(len(top)), top]
        m, e = acquire.score_mlmoc(batch, baseline), acquire.score_emoc(batch, baseline)
        np.testing.assert_array_equal(m.scores, np.where(batch.degenerate, 0.0, at_top))
        np.testing.assert_array_equal(e.scores, np.where(batch.degenerate, 0.0, expected))
        for result in (m, e):
            np.testing.assert_array_equal(result.pseudo_labels, np.eye(3)[top])
            np.testing.assert_array_equal(result.degenerate_flags, batch.degenerate)

    @staticmethod
    def _memory_problem(seed, candidates_only):
        # 1,500 candidates, or 1,800 with 300 more stacked onto them.
        rng = np.random.default_rng(seed)
        params = net.init(net.MlpConfig((32, 64, 3), seed=seed))
        x = rng.standard_normal((200, 32))
        y = data.one_hot_encode(rng.integers(0, 3, 200), 3)
        state = kernel.build_state_xy(params, x, y)
        cands = rng.standard_normal((1500, 32))
        if not candidates_only:
            cands = np.vstack([cands, rng.standard_normal((300, 32))])
        return state, cands, 8 * len(cands) ** 2

    @pytest.mark.parametrize("candidates_only", [True, False])
    def test_mlmoc_peak_memory_within_budget(self, candidates_only):
        # Traced peak of one scoring pass, as a multiple of its gains matrix:
        # the kernel block is the only (n, n) array.
        state, cands, gains_bytes = self._memory_problem(61, candidates_only)
        tracemalloc.start()
        try:
            acquire.mlmoc(state, cands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * gains_bytes

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_linearized_mlmoc_peak_memory_linear_in_n(self, n):
        # One pass holds per-candidate arrays (k(c, X), W and the gradient
        # factors) and a few (CHUNK_ROWS, n) chunks of Sigma, but no (n, n)
        # array: at n = 4000 the gains alone would be 2.5 times the bound.
        # The pick path adds float32 copies of W and the factors, and a
        # float64 block of at most CHUNK_ROWS rescored rows of Sigma.
        rng = np.random.default_rng(63)
        params = net.init(net.MlpConfig((32, 64, 3), seed=63))
        x = rng.standard_normal((200, 32))
        y = data.one_hot_encode(rng.integers(0, 3, 200), 3)
        state = kernel.build_state_xy(params, x, y)
        cands = rng.standard_normal((n, 32))
        row_bytes = 8 * (
            2 * state.labeled_count + 2 * sum(params.config.widths) + 4 * kernel.CHUNK_ROWS
        )
        for picks in (None, 10):
            tracemalloc.start()
            try:
                acquire.mlmoc(state, cands, picks=picks)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * row_bytes, picks

    @pytest.mark.parametrize("candidates_only", [True, False])
    @pytest.mark.parametrize("scorer", ["eer_lin", "emoc-raw"])
    def test_table_scorers_peak_memory_within_budget(self, scorer, candidates_only):
        # The whole call stays within the mlmoc budget; scoring the built
        # batch holds only a bounded number of chunk-sized temporaries,
        # never a (C, n, n) tensor of the whole batch.
        state, cands, gains_bytes = self._memory_problem(62, candidates_only)
        if scorer == "eer_lin":
            call, score = acquire.eer_lin, acquire.score_eer_lin
        else:
            call = partial(acquire.emoc, baseline="raw")
            score = partial(acquire.score_emoc, baseline="raw")
        tracemalloc.start()
        try:
            call(state, cands)
            peak = tracemalloc.get_traced_memory()[1]
            batch = lookahead.lookahead_batch(state, cands).dense()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            score(batch)
            scoring_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * gains_bytes
        assert scoring_peak < 32 * acquire._TABLE_CHUNK_BYTES


class TestPickPath:
    """Linearized mlmoc and emoc given a pick count k: the float32 sink, its
    bound and the float64 rescoring at the k-th boundary pick exactly what
    the float64 scores pick, element for element."""

    @staticmethod
    def _state(seed, l_size=100, widths=(8, 64, 3)):
        rng = np.random.default_rng(seed)
        params = net.init(net.MlpConfig(widths, seed=seed))
        x = rng.standard_normal((l_size, widths[0]))
        y = data.one_hot_encode(rng.integers(0, widths[-1], l_size), widths[-1])
        return kernel.build_state_xy(params, x, y), rng

    def test_near_tie_at_the_boundary(self):
        # The candidate just outside the top k becomes a copy of one inside,
        # moved by 1e-9: the float64 scores of the two differ by 1e-10 to
        # 1e-9 relative, far below the float32 sink's error. Whether float32
        # sums alone swap the two depends on the BLAS kernel's rounding, so
        # the move is redrawn, at least 8 times, until this kernel's float32
        # sums swap them.
        state, rng = self._state(0)
        cands = rng.standard_normal((200, 8))
        order = pool.query_batch_topk(acquire.mlmoc(state, cands), 200)
        i, j = order[19], order[20]
        flipped, trials = 0, 0
        while not flipped or trials < 8:
            trials += 1
            assert trials <= 200, "no near tie whose order float32 sums swap"
            cands[j] = cands[i] + 1e-9 * rng.standard_normal(8)
            want = acquire.mlmoc(state, cands)
            order = pool.query_batch_topk(want, 200)
            first, k = sorted([order.index(i), order.index(j)])
            assert k == first + 1
            inside, outside = order[first], order[k]
            got = acquire.mlmoc(state, cands, picks=k)
            assert pool.query_batch_topk(got, k) == pool.query_batch_topk(want, k)
            gap = (want.scores[inside] - want.scores[outside]) / want.scores[inside]
            assert 0.0 < gap < 1e-8
            # Rescored at full precision, both sides of the boundary.
            np.testing.assert_allclose(
                got.scores[[inside, outside]], want.scores[[inside, outside]], rtol=1e-13
            )
            # The float32 scores: the float64 ones with float32 sums in place
            # of the float64 sums they scale.
            features, w = lookahead.lookahead_batch(state, cands).covariance
            sums = lookahead._reduce_sink(features, w)
            sums32 = lookahead._reduce_sink(features.astype(np.float32), w.astype(np.float32))
            scores32 = want.scores * sums32 / sums
            flipped += scores32[inside] < scores32[outside]
        assert flipped > 0  # float32 sums alone would swap a boundary pick

    @pytest.mark.parametrize("scorer", [acquire.mlmoc, acquire.emoc])
    @pytest.mark.parametrize("k", ["1", "n", "above-live"])
    def test_picks_match_float64_over_random_states(self, scorer, k):
        for seed in range(4):
            state, rng = self._state(10 + seed, l_size=40 + 60 * seed)
            cands = rng.standard_normal((300, 8))
            cands[-5:] = state.inputs[:5]  # degenerate: inside the labeled span
            want = scorer(state, cands)
            live = int(np.sum(~want.degenerate_flags))
            assert live == 295
            picks = {"1": 1, "n": len(cands), "above-live": live + 2}[k]
            got = scorer(state, cands, picks=picks)
            assert pool.query_batch_topk(got, picks) == pool.query_batch_topk(want, picks)
            np.testing.assert_array_equal(got.degenerate_flags, want.degenerate_flags)
            np.testing.assert_array_equal(got.pseudo_labels, want.pseudo_labels)
            if k != "1":  # every live candidate is picked, so every one is rescored
                np.testing.assert_allclose(got.scores, want.scores, rtol=1e-13, atol=0.0)

    def test_only_the_top_scores_are_float64(self):
        state, rng = self._state(20)
        cands = rng.standard_normal((300, 8))
        want, got = acquire.mlmoc(state, cands), acquire.mlmoc(state, cands, picks=5)
        rel = np.abs(got.scores - want.scores) / want.scores
        top = pool.query_batch_topk(want, 5)
        assert np.all(rel[top] < 1e-13)
        assert 5 <= np.sum(rel < 1e-13) < 100
        # The others carry float32 rounding and sit below the fifth score.
        assert 1e-9 < np.max(rel) < 1e-4
        others = np.setdiff1d(np.arange(300), top)
        assert np.max(got.scores[others]) < np.min(got.scores[top])

    @pytest.mark.parametrize("beta", [1.0, np.float64(0.5)])
    def test_pick_path_chunks_are_float32(self, monkeypatch, beta):
        # NumPy 2 would promote a float32 chunk to float64 silently, for
        # instance through an np.float64 scalar; the float64 path stays float64.
        rng = np.random.default_rng(21)
        params = net.init(net.MlpConfig((8, 32, 32, 3), beta=beta, seed=21))
        x = rng.standard_normal((50, 8))
        state = kernel.build_state_xy(params, x, data.one_hot_encode(rng.integers(0, 3, 50), 3))
        cands = rng.standard_normal((600, 8))
        dtypes, chunks = [], kernel.FeatureBatch.gram_chunks

        def recording(self, w=None, out=None):
            for start, stop, chunk in chunks(self, w, out):
                dtypes.append(chunk.dtype)
                yield start, stop, chunk

        monkeypatch.setattr(kernel.FeatureBatch, "gram_chunks", recording)
        acquire.mlmoc(state, cands, picks=3)
        assert dtypes == [np.float32] * 3
        dtypes.clear()
        acquire.mlmoc(state, cands)
        assert dtypes == [np.float64] * 3

    def test_other_batches_ignore_picks(self):
        state, rng = self._state(23)
        cands = rng.standard_normal((100, 8))
        dense = lookahead.lookahead_batch(state, cands).dense()
        for baseline in acquire.BASELINES:
            for score in (acquire.score_mlmoc, acquire.score_emoc):
                np.testing.assert_array_equal(
                    score(dense, baseline, picks=4).scores, score(dense, baseline).scores
                )
        raw = acquire.mlmoc(state, cands, baseline="raw", picks=4)
        np.testing.assert_array_equal(raw.scores, acquire.mlmoc(state, cands, "raw").scores)

    @pytest.mark.parametrize("picks", [-1, 2.0, "3", True])
    def test_bad_picks_rejected(self, picks):
        state, rng = self._state(24)
        with pytest.raises(ContractError, match="picks"):
            acquire.mlmoc(state, rng.standard_normal((10, 8)), picks=picks)

    def test_zero_picks_keeps_every_float32_sum(self, monkeypatch):
        state, rng = self._state(25)
        rescored, row_sums = [], lookahead._row_sums

        def counting(features, w, idx):
            rescored.append(len(idx))
            return row_sums(features, w, idx)

        monkeypatch.setattr(lookahead, "_row_sums", counting)
        result = acquire.mlmoc(state, rng.standard_normal((50, 8)), picks=0)
        assert rescored == [0] and pool.query_batch_topk(result, 0) == []


class TestPerLabelTables:
    """eer_lin and raw emoc/mlmoc against the per-candidate formulas of ``oracles``.

    Every hypothetical label's look-ahead differs from one shared vector in
    a single entry, and the scorers derive all labels from shared sums;
    the oracles build the full look-ahead vector of each label.
    """

    @staticmethod
    def _batch(c=3, candidates_only=True):
        # 92 candidates, or 169 with 77 more stacked onto them.
        rng = np.random.default_rng(70)
        params = net.init(net.MlpConfig((4, 24, c), seed=70))
        x = rng.standard_normal((20, 4))
        y = data.one_hot_encode(rng.integers(0, c, 20), c)
        state = kernel.build_state_xy(params, x, y)
        cands = np.vstack([x[:2], rng.standard_normal((90, 4))])
        if not candidates_only:
            cands = np.vstack([cands, rng.standard_normal((77, 4))])
        return lookahead.lookahead_batch(state, cands)

    @staticmethod
    def _scaled(batch, scale):
        """The batch with Sigma, and so its gains, multiplied by ``scale``."""
        batch = batch.dense()
        return replace(batch, sigma=batch.sigma * scale)

    @staticmethod
    def _logits_scaled(batch, scale):
        return replace(batch, outputs=scale * batch.outputs, shift_base=scale * batch.shift_base)

    @classmethod
    def _confident(cls, batch):
        """Outputs near the one-hot of each candidate's argmax, gains scaled by 1e4."""
        rng = np.random.default_rng(71)
        confident = np.eye(3)[np.argmax(batch.shift_base, axis=1)]
        confident += 1e-3 * rng.standard_normal(confident.shape)
        batch = cls._scaled(batch, 1e4)
        return replace(batch, shift_base=confident, outputs=40.0 * confident)

    @staticmethod
    def _tied(batch):
        """Classes 1 and 2 carry equal logits everywhere."""
        return replace(
            batch,
            outputs=batch.outputs[:, [0, 1, 1]].copy(),
            shift_base=batch.shift_base[:, [0, 1, 1]].copy(),
        )

    @classmethod
    def _saturated(cls):
        """Logits scaled by 30 and gains by 1e3 to 1e4, over 10 classes."""
        rng = np.random.default_rng(0)
        params = net.init(net.MlpConfig((4, 24, 10), seed=0))
        x = rng.standard_normal((20, 4))
        y = data.one_hot_encode(rng.integers(0, 10, 20), 10)
        state = kernel.build_state_xy(params, x, y)
        batch = lookahead.lookahead_batch(state, rng.standard_normal((60, 4)))
        batch = cls._scaled(batch, rng.uniform(1e3, 1e4, (60, 60)))
        return cls._logits_scaled(batch, 30.0)

    @staticmethod
    def _band(batch):
        """Largest |gain| and smallest non-maximum softmax mass of the shared logits."""
        g = oracles.gains(batch)
        a = batch.shift_base[:, None, :] + g[:, :, None] * batch.shift_base[None]
        mass = np.sum(np.exp(a - np.max(a, axis=2, keepdims=True)), axis=2) - 1.0
        return np.max(np.abs(g)), np.min(mass)

    @classmethod
    def _in_band(cls, batch, max_gain=1.0, min_mass=1.0):
        """The batch with its gains scaled to a largest |gain| of ``max_gain``, then
        its logits by the largest factor in [0, 1] (bisected) that keeps every
        non-maximum mass at or above ``min_mass``."""
        batch = cls._scaled(batch, max_gain / cls._band(batch)[0])
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if cls._band(cls._logits_scaled(batch, mid))[1] >= min_mass:
                lo = mid
            else:
                hi = mid
        return cls._logits_scaled(batch, lo)

    @staticmethod
    def _paths(monkeypatch, batch):
        """The path each chunk of the batch's entropy table takes."""
        paths, direct = [], acquire._direct_entropies

        def spy(a, g):
            values = direct(a, g)
            paths.append("careful" if values is None else "direct")
            return values

        monkeypatch.setattr(acquire, "_direct_entropies", spy)
        acquire.score_eer_lin(batch)
        return paths

    @staticmethod
    def _assert_agree(batch):
        got = acquire.score_eer_lin(batch).scores
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, oracles.eer_lin_scores(batch), rtol=1e-12, atol=0.0)
        got = acquire.score_emoc(batch, "raw").scores
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, oracles.emoc_scores(batch, "raw"), rtol=1e-12, atol=0.0)
        result = acquire.score_mlmoc(batch, "raw")
        want = oracles.change_norms(batch, result.pseudo_labels, "raw")
        np.testing.assert_allclose(
            result.scores, np.where(batch.degenerate, 0.0, want), rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize("candidates_only", [True, False])
    def test_matches_per_label_formulas(self, candidates_only):
        self._assert_agree(self._batch(candidates_only=candidates_only))

    @pytest.mark.parametrize("scale", [1e2, -1e2, 1e3, -1e3, 1e4, -1e4])
    def test_large_gains(self, scale):
        # Corrected entries thousands of logits below (or above) the rest:
        # per-label shifts keep every exp-sum finite and nonzero.
        batch = self._batch()
        self._assert_agree(self._scaled(batch, scale))

    def test_confident_candidates_with_large_gains(self):
        # Predictions near the one-hot of each candidate's own class, which
        # also carries nearly all the label weight: under that label the
        # shared entry is ~1e4 while the corrected entry and every other
        # entry stay small, so the other entries' sum must not be taken by
        # subtracting the dominant entry from the total.
        self._assert_agree(self._confident(self._batch()))

    def test_near_one_hot_logits(self):
        batch = self._logits_scaled(self._batch(), 40.0)
        assert np.median(1.0 - acquire.softmax(batch.shift_base).max(axis=1)) < 1e-8
        self._assert_agree(batch)

    def test_tied_maxima(self):
        # Wherever class 1 or 2 holds the maximum the other ties with it.
        batch = self._tied(self._batch())
        a = batch.shift_base[:, None, :] + oracles.gains(batch)[:, :, None] * batch.shift_base[None]
        assert np.any(np.argmax(a, axis=2) == 1)
        self._assert_agree(batch)

    def test_saturated_softmaxes_match_longdouble(self):
        # Most candidates have every look-ahead softmax saturated, and their
        # entropy sums (down to 1e-305 here) are sums of terms far below one
        # ulp of 1.
        batch = self._saturated()
        got = acquire.score_eer_lin(batch).scores
        want = oracles.eer_lin_scores_longdouble(batch)
        assert np.sum(np.abs(want) < 1e-6) > 30 and np.min(np.abs(want[want != 0.0])) < 1e-300
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("c", [1, 2])
    def test_few_classes(self, c):
        batch = self._batch(c=c)
        self._assert_agree(batch)
        if c == 1:
            assert np.all(acquire.score_eer_lin(batch).scores == 0.0)

    def test_degenerate_columns(self):
        batch = self._batch()
        assert batch.degenerate[:2].all() and not batch.degenerate[2:].any()
        current = float(np.sum(acquire.entropy(acquire.softmax(batch.shift_base))))
        assert np.all(acquire.score_eer_lin(batch).scores[:2] == -current)
        assert np.all(acquire.score_emoc(batch, baseline="raw").scores[:2] == 0.0)
        self._assert_agree(batch)

    @pytest.mark.parametrize("candidates_only", [True, False])
    def test_several_chunks(self, monkeypatch, candidates_only):
        # Seven candidate columns per chunk: 92 or 169 candidates leave a
        # partial last chunk of one column.
        batch = self._batch(candidates_only=candidates_only)
        n = len(batch.outputs)
        monkeypatch.setattr(acquire, "_TABLE_CHUNK_BYTES", 8 * n * 3 * 7)
        assert n % 7 == 1
        self._assert_agree(batch)

    # Band edges, each batch scored as one chunk: its largest |gain| a hair
    # inside or outside the bound, its smallest mass a hair above or below
    # the floor.
    _EDGES = {
        "gain-inside": dict(max_gain=acquire._DIRECT_MAX_GAIN - 2.0**-40),
        "gain-outside": dict(max_gain=acquire._DIRECT_MAX_GAIN + 2.0**-40),
        "mass-inside": dict(min_mass=acquire._DIRECT_MIN_MASS * (1.0 + 2.0**-30)),
        "mass-outside": dict(min_mass=acquire._DIRECT_MIN_MASS * (1.0 - 2.0**-30)),
    }

    def _edge(self, monkeypatch, case):
        monkeypatch.setattr(acquire, "_TABLE_CHUNK_BYTES", 1 << 30)
        return self._in_band(self._batch(), **self._EDGES[case])

    @pytest.mark.parametrize(
        "case",
        ["default", "all-rows", "two-classes", "tied-maxima", "large-gains", "near-one-hot",
         "confident", "saturated", "gain-outside", "mass-outside"],
    )
    def test_careful_path_cases(self, monkeypatch, case):
        # The test batches above: a tiny network on 20 labels gives gains up
        # to 2.6-3.8 and softmax masses down to 1e-4, outside the band in
        # every chunk.
        if case == "saturated":
            batch = self._saturated()
        elif case in self._EDGES:
            batch = self._edge(monkeypatch, case)
        else:
            batch = self._batch(c=2 if case == "two-classes" else 3,
                                candidates_only=case != "all-rows")
            batch = {
                "tied-maxima": self._tied,
                "large-gains": partial(self._scaled, scale=-1e2),
                "near-one-hot": partial(self._logits_scaled, scale=40.0),
                "confident": self._confident,
            }.get(case, lambda b: b)(batch)
        paths = self._paths(monkeypatch, batch)
        assert paths and set(paths) == {"careful"}

    @pytest.mark.parametrize(
        "case",
        ["default", "all-rows", "two-classes", "ten-classes", "tied-maxima", "several-chunks",
         "gain-inside", "mass-inside"],
    )
    def test_direct_path_matches_per_label_formulas(self, monkeypatch, case):
        # The test batches with their gains scaled to the self-gains' -1 and
        # their logits flattened into the band; the default batch keeps its
        # two degenerate columns.
        if case in self._EDGES:
            batch = self._edge(monkeypatch, case)
        else:
            c = {"two-classes": 2, "ten-classes": 10}.get(case, 3)
            batch = self._batch(c=c, candidates_only=case not in ("all-rows", "several-chunks"))
            batch = self._in_band(self._tied(batch) if case == "tied-maxima" else batch)
        if case == "several-chunks":
            monkeypatch.setattr(acquire, "_TABLE_CHUNK_BYTES", 8 * len(batch.outputs) * 3 * 7)
        paths = self._paths(monkeypatch, batch)
        assert paths and set(paths) == {"direct"}
        assert case != "several-chunks" or len(paths) == 25  # 169 columns, 7 a chunk
        self._assert_agree(batch)


class TestScoringReadsOnly:
    """Scorers read a batch in either form and leave every field as it was."""

    @staticmethod
    def _forms():
        # An unformed batch, a dense one and a dense one with dead positions.
        unformed = TestPerLabelTables._batch()
        conditioned = lookahead.condition(TestPerLabelTables._batch(), 10, np.eye(3)[0])
        return {"unformed": unformed, "dense": unformed.dense(), "conditioned": conditioned}

    @pytest.mark.parametrize("form", ["unformed", "dense", "conditioned"])
    def test_scoring_leaves_the_batch_as_it_was(self, form):
        batch = self._forms()[form]
        before = dict(vars(batch))
        arrays = {k: v.copy() for k, v in before.items() if isinstance(v, np.ndarray)}
        scorers = [acquire.score_eer_lin]
        for baseline in acquire.BASELINES:
            scorers += [partial(acquire.score_mlmoc, baseline=baseline)]
            scorers += [partial(acquire.score_emoc, baseline=baseline)]
        for score in scorers:
            score(batch)
            assert vars(batch).keys() == before.keys()
            assert all(vars(batch)[k] is v for k, v in before.items())
            for k, v in arrays.items():
                np.testing.assert_array_equal(getattr(batch, k), v)

    @pytest.mark.parametrize("form", ["dense", "conditioned"])
    def test_gain_rows_are_c_ordered(self, form):
        batch = self._forms()[form]
        gains = oracles.gains(batch)
        n = len(batch.live)
        for cols in (slice(0, 7), slice(85, None), slice(None)):
            rows = batch.gain_rows(cols)
            assert rows.flags.c_contiguous and rows.shape == (len(range(n)[cols]), n)
            np.testing.assert_array_equal(rows, gains[:, cols].T)


class TestEer:
    def _three_point_kernel_state(self):
        # Hand kernel over rows 0 (labeled) and 1, 2 (candidates) chosen so
        # neither candidate moves the other: k(2,1) = k(2,0) k(0,0)^-1 k(0,1).
        table = [[2.0, 1.0, 1.0], [1.0, 3.0, 0.5], [1.0, 0.5, 2.0]]
        return oracles.table_state(table, [[0.0, 0.0]])

    def test_unmoved_uniform_probabilities_give_ln2(self):
        # Labeling either candidate moves only its own prediction, from
        # (0, 0) onto the label; the other one stays at (0, 0) and adds
        # ln 2 to the entropy sum under every hypothetical label.
        state, rows = self._three_point_kernel_state()
        result = acquire.eer_lin(state, rows[1:])
        own = float(acquire.entropy(acquire.softmax(np.array([1.0, 0.0]))))
        np.testing.assert_allclose(result.scores, -(LN2 + own), rtol=0.0, atol=1e-12)

    def test_degenerate_scores_current_entropy(self):
        params, x, y, state = _problem(seed=18)
        cands = np.vstack([x[:1], np.random.default_rng(19).standard_normal((5, 2))])
        result = acquire.eer_lin(state, cands)
        assert result.degenerate_flags[0]
        current = lookahead.predict_lin(state, cands)
        expected = -float(np.sum(acquire.entropy(acquire.softmax(current))))
        assert abs(result.scores[0] - expected) < 1e-12

    def test_matches_brute_force(self):
        params, x, y, state = _problem(l_size=6, c=2, seed=20)
        rng = np.random.default_rng(21)
        cands = rng.standard_normal((4, 2))
        result = acquire.eer_lin(state, cands)
        outs = net.forward(params, cands)
        probs = acquire.softmax(outs)
        for i in range(4):
            expected = 0.0
            for cls in range(2):
                x_aug = np.vstack([x, cands[i]])
                y_aug = np.vstack([y, np.eye(2)[cls]])
                gram_aug = kernel.empirical_ntk(params, x_aug, x_aug)
                cross_aug = kernel.empirical_ntk(params, cands, x_aug)
                res_aug = y_aug - net.forward(params, x_aug)
                after = outs + cross_aug @ np.linalg.solve(
                    gram_aug, res_aug
                )
                ent = float(np.sum(acquire.entropy(acquire.softmax(after))))
                expected += probs[i, cls] * ent
            assert abs(result.scores[i] - (-expected)) < 1e-8


class TestMyopicBaselines:
    def test_entropy_uniform_is_ln_c(self):
        outputs = np.zeros((3, 5))
        result = acquire.entropy_score(outputs)
        np.testing.assert_allclose(result.scores, np.log(5.0))

    def test_margin_definition(self):
        outputs = np.array([[2.0, 1.0, -1.0]])
        probs = acquire.softmax(outputs)[0]
        expected = -(np.sort(probs)[-1] - np.sort(probs)[-2])
        result = acquire.margin_score(outputs)
        assert abs(result.scores[0] - expected) < 1e-12

    @pytest.mark.parametrize("outputs", [[], np.zeros((0, 3)), np.zeros((3, 0))])
    @pytest.mark.parametrize("scorer", [acquire.entropy_score, acquire.margin_score])
    def test_empty_outputs_rejected(self, scorer, outputs):
        with pytest.raises(ContractError, match="empty"):
            scorer(outputs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scorer", [acquire.entropy_score, acquire.margin_score])
    def test_non_finite_outputs_rejected(self, scorer, bad):
        outputs = np.zeros((3, 4))
        outputs[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ContractError, match="non-finite"):
                scorer(outputs)

    def test_random_deterministic(self):
        a = acquire.random_score(123, 10)
        b = acquire.random_score(123, 10)
        assert np.array_equal(a.scores, b.scores)
        c = acquire.random_score(124, 10)
        assert not np.array_equal(a.scores, c.scores)


class TestResultInvariants:
    def test_argmax_scale_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            scores = rng.uniform(0.1, 1.0, size=12)
            base = acquire.AcquisitionResult.from_scores(scores)
            for c in (0.5, 3.0, 1e6):
                scaled = acquire.AcquisitionResult.from_scores(c * scores)
                assert np.argmax(scaled.scores) == np.argmax(base.scores)


class TestNaiveOracle:
    def test_zero_epochs_returns_current_outputs(self):
        params, x, y, _ = _problem(seed=23)
        labeled = data.make_dataset(x, np.argmax(y, axis=1), 2)
        ref = np.random.default_rng(24).standard_normal((4, 2))
        zero_cfg = net.TrainConfig(learning_rate=0.1, epochs=0)
        out = acquire.naive_sgd_oracle(params, labeled, (x[0], y[0]), zero_cfg)
        assert np.array_equal(net.forward(out, ref), net.forward(params, ref))

    def test_deterministic_with_fixed_shuffle(self):
        params, x, y, _ = _problem(seed=25)
        labeled = data.make_dataset(x, np.argmax(y, axis=1), 2)
        ref = np.random.default_rng(26).standard_normal((3, 2))
        cfg = net.TrainConfig(learning_rate=0.01, epochs=5, minibatch_size=4, shuffle_seed=9)
        a = acquire.naive_sgd_oracle(params, labeled, (ref[0], y[0]), cfg)
        b = acquire.naive_sgd_oracle(params, labeled, (ref[0], y[0]), cfg)
        assert np.array_equal(net.forward(a, ref), net.forward(b, ref))

    def test_kernel_lookahead_correlates_with_real_retraining(self):
        # Per-reference output changes from the block look-ahead track the
        # changes from actually retraining, pooled over candidates. From the
        # same retrainings, mlmoc ranks the candidates as their summed output
        # changes over the candidates do (Spearman's rho per seed, averaged),
        # on either baseline.
        correlations, rank_rho = [], {baseline: [] for baseline in acquire.BASELINES}
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ds = data.gen_spirals(60, 0.1, seed)
            labeled = ds.subset(np.arange(20))
            cands = ds.inputs[20:40]
            ref = ds.inputs[40:60]
            params = net.init(net.MlpConfig((2, 512, 2), seed=seed))
            tc = net.TrainConfig(
                learning_rate=0.02, epochs=400, minibatch_size=64, shuffle_seed=seed
            )
            params = net.train_sgd(params, labeled, tc)
            state = kernel.build_state(params, labeled)
            base = np.atleast_2d(net.forward(params, ref))
            outs = net.forward(params, cands)
            k_changes, n_changes, retrained_scores = [], [], []
            for i, xc in enumerate(cands):
                yc = np.zeros(2)
                yc[np.argmax(outs[i])] = 1.0
                k_changes.append((_lookahead_after(state, xc, yc, ref) - base).ravel())
                retrained = acquire.naive_sgd_oracle(params, labeled, (xc, yc), tc)
                after = np.atleast_2d(net.forward(retrained, ref))
                n_changes.append((after - base).ravel())
                change = net.forward(retrained, cands) - outs
                retrained_scores.append(np.sum(np.linalg.norm(change, axis=1)))
            r = np.corrcoef(np.concatenate(k_changes), np.concatenate(n_changes))[0, 1]
            correlations.append(r)
            for baseline, rhos in rank_rho.items():
                scores = acquire.mlmoc(state, cands, baseline).scores
                rhos.append(stats.spearmanr(scores, retrained_scores)[0])
        assert np.mean(correlations) > 0.5
        # Measured means: 0.81 raw (0.52 to 0.93 per seed), 0.60 linearized
        # (0.01 to 0.92).
        assert np.mean(rank_rho["raw"]) > 0.7
        assert np.mean(rank_rho["linearized"]) > 0.45

    def test_naive_change_scores_shape_and_determinism(self):
        params, x, y, _ = _problem(seed=27)
        labeled = data.make_dataset(x, np.argmax(y, axis=1), 2)
        cands = np.random.default_rng(28).standard_normal((3, 2))
        cfg = net.TrainConfig(learning_rate=0.01, epochs=2, minibatch_size=4, shuffle_seed=1)
        a = acquire.naive_change_scores(params, labeled, cands, cfg)
        b = acquire.naive_change_scores(params, labeled, cands, cfg)
        assert a.scores.shape == (3,)
        assert np.array_equal(a.scores, b.scores)
        assert np.all(a.scores >= 0.0)


class TestOneStepChangeScores:
    """The closed-form single step against really retraining one full-batch step."""

    @staticmethod
    def _sgd_step_scores(params, labeled, cands, lr):
        cfg = net.TrainConfig(lr, epochs=1, minibatch_size=len(labeled) + 1)
        return acquire.naive_change_scores(params, labeled, cands, cfg)

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("nonlinearity", net.NONLINEARITIES)
    def test_matches_sgd_step(self, nonlinearity, depth, beta, c):
        rng = np.random.default_rng(10 * depth + c)
        widths = (5, *(12,) * (depth - 1), c)
        cfg = net.MlpConfig(widths, nonlinearity=nonlinearity, beta=beta, seed=depth)
        params = net.init(cfg)
        labeled = data.make_dataset(rng.standard_normal((9, 5)), rng.integers(0, c, 9), c)
        # The last candidate repeats a labeled row.
        cands = np.vstack([rng.standard_normal((6, 5)), labeled.inputs[2]])
        got = acquire.one_step_change_scores(params, labeled, cands, 0.05)
        want = self._sgd_step_scores(params, labeled, cands, 0.05)
        assert np.array_equal(got.pseudo_labels, want.pseudo_labels)
        assert not np.any(got.degenerate_flags)
        np.testing.assert_allclose(got.scores, want.scores, rtol=1e-12, atol=0.0)

    def test_non_finite_loss_raises_divergence(self):
        params, x, y, _ = _problem(seed=31)
        labeled = data.make_dataset(x, np.argmax(y, axis=1), 2)
        # Finite outputs near 1e300, whose squared residuals overflow.
        weights = (params.weights[0], params.weights[1] * 1e300)
        blown = net.MlpParams(params.config, weights, params.biases)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="loss inf") as exc_info:
                acquire.one_step_change_scores(blown, labeled, x[:3], 0.05)
        assert exc_info.value.epoch == 1

    def test_empty_candidates_rejected(self):
        params, x, y, _ = _problem(seed=32)
        labeled = data.make_dataset(x, np.argmax(y, axis=1), 2)
        with pytest.raises(ContractError):
            acquire.one_step_change_scores(params, labeled, np.zeros((0, 2)), 0.05)

    @pytest.mark.parametrize("learning_rate", [np.nan, -0.5, 0.0, np.inf])
    def test_learning_rate_rejected_as_train_config_does(self, learning_rate):
        # NaN used to give all-NaN scores, -0.5 an ascent step, 0 all-zero
        # scores and inf a RuntimeWarning.
        params, x, y, _ = _problem(seed=32)
        labeled = data.make_dataset(x, np.argmax(y, axis=1), 2)
        message = "learning_rate must be finite and > 0"
        with pytest.raises(ContractError, match=message):
            net.TrainConfig(learning_rate, epochs=1)
        with pytest.raises(ContractError, match=message):
            acquire.one_step_change_scores(params, labeled, x[:3], learning_rate)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "scorer",
        [
            partial(acquire.one_step_change_scores, learning_rate=0.05),
            partial(acquire.naive_change_scores, retrain_cfg=net.TrainConfig(0.05, epochs=1)),
        ],
        ids=["one_step", "naive"],
    )
    def test_non_finite_candidates_rejected(self, scorer, bad):
        params, x, y, _ = _problem(seed=33)
        labeled = data.make_dataset(x, np.argmax(y, axis=1), 2)
        cands = x[:3].copy()
        cands[1, 0] = bad
        with pytest.raises(ContractError, match="non-finite"):
            scorer(params, labeled, cands)


class TestConditionedBatch:
    """lookahead.condition against a fresh lookahead_batch on the augmented state.

    Each step labels the top mlmoc candidate with its (random) true label,
    augments the state, conditions the batch, and compares every
    look-ahead scorer with a fresh batch over the remaining candidates.
    """

    PICKS = 12

    @staticmethod
    def _well_conditioned(seed):
        # Eight input dimensions keep the Gram of 18 points far from singular.
        rng = np.random.default_rng(seed)
        params = net.init(net.MlpConfig((8, 16, 2), seed=seed))
        x = rng.standard_normal((6, 8))
        y = data.one_hot_encode(rng.integers(0, 2, 6), 2)
        cands = rng.standard_normal((30, 8))
        labels = data.one_hot_encode(rng.integers(0, 2, 30), 2)
        return kernel.build_state_xy(params, x, y), cands, labels

    @staticmethod
    def _rank_deficient(seed, ladder):
        state, cands = TestScoresMatchAugmentedState._state(seed, ladder)
        labels = data.one_hot_encode(np.random.default_rng(seed + 100).integers(0, 2, 40), 2)
        return state, cands, labels

    @staticmethod
    def _all_scores(batch):
        results = [acquire.score_mlmoc(batch), acquire.score_mlmoc(batch, baseline="raw")]
        results += [acquire.score_emoc(batch, baseline) for baseline in acquire.BASELINES]
        results.append(acquire.score_eer_lin(batch))
        return results

    def _walk(self, state, cands, labels):
        """Yield (conditioned, fresh) batches after each of PICKS picks."""
        batch = lookahead.lookahead_batch(state, cands)
        for _ in range(self.PICKS):
            i = int(np.argmax(acquire.score_mlmoc(batch).scores))
            try:
                state = lookahead.augment_state(state, cands[i], labels[i])
            except DegenerateCandidateError:
                pass
            batch = lookahead.condition(batch, i, labels[i])
            cands = np.delete(cands, i, axis=0)
            labels = np.delete(labels, i, axis=0)
            yield batch, lookahead.lookahead_batch(state, cands)

    def _assert_scores_match(self, state, cands, labels):
        for conditioned, fresh in self._walk(state, cands, labels):
            np.testing.assert_array_equal(conditioned.degenerate, fresh.degenerate)
            for got, want in zip(self._all_scores(conditioned), self._all_scores(fresh)):
                np.testing.assert_allclose(got.scores, want.scores, rtol=1e-9, atol=0.0)

    def test_well_conditioned_scores_match_fresh_batch(self):
        for seed in range(5):
            self._assert_scores_match(*self._well_conditioned(seed))

    def test_jittered_scores_match_fresh_batch(self):
        for seed in range(6):
            state, cands, labels = self._rank_deficient(seed, (1e-3,))
            assert state.factor.jitter_applied > 0.0
            self._assert_scores_match(state, cands, labels)

    def test_rank_deficient_flags_match_fresh_batch(self):
        for seed in range(10):
            problem = self._rank_deficient(seed, linalg.JITTER_LADDER)
            for conditioned, fresh in self._walk(*problem):
                np.testing.assert_array_equal(conditioned.degenerate, fresh.degenerate)
