import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from ntkal import acquire, data, kernel, linalg, lookahead, net
from ntkal.errors import ContractError, DegenerateCandidateError

import oracles

LN2 = float(np.log(2.0))


def _problem(l_size=8, c=2, dim=2, seed=0, width=24):
    rng = np.random.default_rng(seed)
    params = net.init(net.MlpConfig((dim, width, c), seed=seed))
    x = rng.standard_normal((l_size, dim))
    y = data.one_hot_encode(rng.integers(0, c, l_size), c)
    return params, x, y, kernel.build_state_xy(params, x, y)


def _lookahead_after(state, xc, yc, q):
    """Predictions at q after hypothetically labeling xc with yc (engine at n=1)."""
    batch = lookahead.lookahead_batch(state, np.atleast_2d(xc), q)
    return batch.ref_lin + np.outer(batch.gains[:, 0], batch.shift_base[0] - yc)


def _brute_change_score(params, x, y, cand, label, reference, ord_=2):
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
    if ord_ == 2:
        return float(np.sum(np.linalg.norm(after - base, axis=1)))
    return float(np.sum(np.abs(after - base)))


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
        result = acquire.mlmoc(state, cand, reference_set=x)
        assert result.scores[0] == 0.0

    def test_matches_brute_force_toy(self):
        rng = np.random.default_rng(42)
        centers = np.array([[-1.0, 0.0], [1.0, 0.0]])
        x = np.vstack([centers + 0.3 * rng.standard_normal((2, 2)) for _ in range(2)])
        y = data.one_hot_encode([0, 1, 0, 1], 2)
        params = net.init(net.MlpConfig((2, 32, 2), seed=7))
        state = kernel.build_state_xy(params, x, y)
        cands = rng.standard_normal((3, 2))
        ref = rng.standard_normal((6, 2))
        result = acquire.mlmoc(state, cands, reference_set=ref)
        outs = net.forward(params, cands)
        brute = []
        for i in range(3):
            label = np.zeros(2)
            label[np.argmax(outs[i])] = 1.0
            brute.append(_brute_change_score(params, x, y, cands[i], label, ref))
        brute = np.array(brute)
        np.testing.assert_allclose(result.scores, brute, rtol=1e-8)
        assert result.argmax_index == int(np.argmax(brute))

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
        cands = rng.standard_normal((2, 2))
        ref = rng.standard_normal((4, 2))
        result = acquire.mlmoc(state, cands, reference_set=ref, baseline="raw")
        outs = net.forward(params, cands)
        raw_ref = net.forward(params, ref)
        for i in range(2):
            label = np.zeros(2)
            label[np.argmax(outs[i])] = 1.0
            after = _lookahead_after(state, cands[i], label, ref)
            expected = float(np.sum(np.linalg.norm(after - raw_ref, axis=1)))
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
        state = kernel.build_state_xy(
            params, x, y, jitter_policy=linalg.JitterPolicy(ladder)
        )
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
            state, cands = self._state(seed, linalg.DEFAULT_JITTER.ladder)
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
        cands = rng.standard_normal((3, 2))
        ref = rng.standard_normal((5, 2))
        result = acquire.emoc(state, cands, reference_set=ref)
        for i in range(3):
            per_label = []
            for cls in range(2):
                label = np.eye(2)[cls]
                after = _lookahead_after(state, cands[i], label, ref)
                base = lookahead.predict_lin(state, ref)
                per_label.append(float(np.sum(np.linalg.norm(after - base, axis=1))))
            assert abs(result.scores[i] - np.mean(per_label)) < 1e-9

    def test_matches_brute_force_expectation(self):
        params, x, y, state = _problem(l_size=6, c=3, seed=12, width=20)
        rng = np.random.default_rng(13)
        cands = rng.standard_normal((2, 2))
        ref = rng.standard_normal((4, 2))
        result = acquire.emoc(state, cands, reference_set=ref)
        outs = net.forward(params, cands)
        probs = acquire.softmax(outs)
        for i in range(2):
            expected = 0.0
            for cls in range(3):
                expected += probs[i, cls] * _brute_change_score(
                    params, x, y, cands[i], np.eye(3)[cls], ref
                )
            assert abs(result.scores[i] - expected) < 1e-8 * max(expected, 1.0)

    def test_l1_distance(self):
        params, x, y, state = _problem(seed=14)
        rng = np.random.default_rng(15)
        cands = rng.standard_normal((2, 2))
        ref = rng.standard_normal((3, 2))
        result = acquire.emoc(state, cands, reference_set=ref, distance="l1")
        outs = net.forward(params, cands)
        probs = acquire.softmax(outs)
        for i in range(2):
            expected = 0.0
            for cls in range(2):
                expected += probs[i, cls] * _brute_change_score(
                    params, x, y, cands[i], np.eye(2)[cls], ref, ord_=1
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
    """Scores from row-chunked |gains| sums and column-chunked per-label tables.

    The linearized branch reduces |gains| in the order of one whole-array
    reduction, so it matches bitwise up to the product with the shift norm;
    the raw branch derives every label from shared sums, so it matches the
    whole-tensor formula up to rounding.
    """

    @staticmethod
    def _batch(same_set=True):
        rng = np.random.default_rng(60)
        params = net.init(net.MlpConfig((4, 24, 3), seed=60))
        x = rng.standard_normal((20, 4))
        y = data.one_hot_encode(rng.integers(0, 3, 20), 3)
        state = kernel.build_state_xy(params, x, y)
        cands = np.vstack([rng.standard_normal((600, 4)), x[:2]])
        ref = None if same_set else rng.standard_normal((530, 4))
        return lookahead.lookahead_batch(state, cands, ref)

    @pytest.mark.parametrize("same_set", [True, False])
    @pytest.mark.parametrize("distance", ["l2", "l1"])
    def test_emoc_matches_whole_array_formula(self, monkeypatch, distance, same_set):
        # A small byte budget splits the raw table into several chunks,
        # the last one partial.
        monkeypatch.setattr(acquire, "_TABLE_CHUNK_BYTES", 8 * 530 * 3 * 70)
        batch = self._batch(same_set)
        assert batch.degenerate[-2:].all()
        for baseline in ("linearized", "raw"):
            want = oracles.emoc_scores(batch, distance, baseline)
            got = acquire.score_emoc(batch, distance, baseline).scores
            if baseline == "raw":
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("baseline", ["linearized", "raw"])
    def test_mlmoc_matches_whole_array_formula(self, monkeypatch, baseline):
        monkeypatch.setattr(acquire, "_TABLE_CHUNK_BYTES", 8 * 602 * 3 * 100)
        batch = self._batch()
        result = acquire.score_mlmoc(batch, baseline)
        want = oracles.change_norms(batch, result.pseudo_labels, baseline, 2)
        want[batch.degenerate] = 0.0
        if baseline == "raw":
            np.testing.assert_allclose(result.scores, want, rtol=1e-14, atol=0.0)
        else:
            np.testing.assert_allclose(result.scores, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("same_set", [True, False])
    def test_mlmoc_peak_memory_within_budget(self, same_set):
        # Traced peak of one scoring pass, as a multiple of its gains matrix:
        # the kernel block is the only (m, n) array.
        rng = np.random.default_rng(61)
        params = net.init(net.MlpConfig((32, 64, 3), seed=61))
        x = rng.standard_normal((200, 32))
        y = data.one_hot_encode(rng.integers(0, 3, 200), 3)
        state = kernel.build_state_xy(params, x, y)
        cands = rng.standard_normal((1500, 32))
        ref = None if same_set else rng.standard_normal((1200, 32))
        gains_bytes = 8 * len(cands) * (len(cands) if same_set else len(ref))
        tracemalloc.start()
        try:
            acquire.mlmoc(state, cands, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * gains_bytes

    @pytest.mark.parametrize("same_set", [True, False])
    @pytest.mark.parametrize("scorer", ["eer_lin", "emoc-raw"])
    def test_table_scorers_peak_memory_within_budget(self, scorer, same_set):
        # The whole call stays within the mlmoc budget; scoring the built
        # batch holds only a bounded number of chunk-sized temporaries,
        # never a (C, m, n) tensor of the whole batch.
        rng = np.random.default_rng(62)
        params = net.init(net.MlpConfig((32, 64, 3), seed=62))
        x = rng.standard_normal((200, 32))
        y = data.one_hot_encode(rng.integers(0, 3, 200), 3)
        state = kernel.build_state_xy(params, x, y)
        cands = rng.standard_normal((1500, 32))
        ref = None if same_set else rng.standard_normal((1200, 32))
        gains_bytes = 8 * len(cands) * (len(cands) if same_set else len(ref))
        if scorer == "eer_lin":
            call, score = acquire.eer_lin, acquire.score_eer_lin
        else:
            call = partial(acquire.emoc, baseline="raw")
            score = partial(acquire.score_emoc, baseline="raw")
        tracemalloc.start()
        try:
            call(state, cands, ref)
            peak = tracemalloc.get_traced_memory()[1]
            batch = lookahead.lookahead_batch(state, cands, ref)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            score(batch)
            scoring_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * gains_bytes
        assert scoring_peak < 32 * acquire._TABLE_CHUNK_BYTES


class TestPerLabelTables:
    """eer_lin and raw emoc/mlmoc against the per-candidate formulas of ``oracles``.

    Every hypothetical label's look-ahead differs from one shared vector in
    a single entry, and the scorers derive all labels from shared sums;
    the oracles build the full look-ahead vector of each label.
    """

    @staticmethod
    def _batch(c=3, same_set=True):
        rng = np.random.default_rng(70)
        params = net.init(net.MlpConfig((4, 24, c), seed=70))
        x = rng.standard_normal((20, 4))
        y = data.one_hot_encode(rng.integers(0, c, 20), c)
        state = kernel.build_state_xy(params, x, y)
        cands = np.vstack([x[:2], rng.standard_normal((90, 4))])
        ref = None if same_set else rng.standard_normal((75, 4))
        return lookahead.lookahead_batch(state, cands, ref)

    @staticmethod
    def _assert_agree(batch):
        got = acquire.score_eer_lin(batch).scores
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, oracles.eer_lin_scores(batch), rtol=1e-12, atol=0.0)
        for distance in ("l2", "l1"):
            got = acquire.score_emoc(batch, distance, "raw").scores
            want = oracles.emoc_scores(batch, distance, "raw")
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        result = acquire.score_mlmoc(batch, "raw")
        want = oracles.change_norms(batch, result.pseudo_labels, "raw", 2)
        np.testing.assert_allclose(
            result.scores, np.where(batch.degenerate, 0.0, want), rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize("same_set", [True, False])
    def test_matches_per_label_formulas(self, same_set):
        self._assert_agree(self._batch(same_set=same_set))

    @pytest.mark.parametrize("scale", [1e2, -1e2, 1e3, -1e3, 1e4, -1e4])
    def test_large_gains(self, scale):
        # Corrected entries thousands of logits below (or above) the rest:
        # per-label shifts keep every exp-sum finite and nonzero.
        batch = self._batch()
        self._assert_agree(replace(batch, gains=batch.gains * scale))

    def test_confident_candidates_with_large_gains(self):
        # Predictions near the one-hot of each candidate's own class, which
        # also carries nearly all the label weight: under that label the
        # shared entry is ~1e4 while the corrected entry and every other
        # entry stay small, so the other entries' sum must not be taken by
        # subtracting the dominant entry from the total.
        batch = self._batch()
        rng = np.random.default_rng(71)
        confident = np.eye(3)[np.argmax(batch.shift_base, axis=1)]
        confident += 1e-3 * rng.standard_normal(confident.shape)
        self._assert_agree(
            replace(batch, shift_base=confident, outputs=40.0 * confident, gains=1e4 * batch.gains)
        )

    def test_near_one_hot_logits(self):
        batch = self._batch()
        fields = ("outputs", "shift_base", "ref_lin", "ref_raw")
        batch = replace(batch, **{f: 40.0 * getattr(batch, f) for f in fields})
        assert np.median(1.0 - acquire.softmax(batch.ref_lin).max(axis=1)) < 1e-8
        self._assert_agree(batch)

    def test_tied_maxima(self):
        # Classes 1 and 2 carry equal logits everywhere, so wherever one
        # holds the maximum the other ties with it.
        batch = self._batch()
        fields = ("outputs", "shift_base", "ref_lin", "ref_raw")
        batch = replace(
            batch, **{f: getattr(batch, f)[:, [0, 1, 1]].copy() for f in fields}
        )
        a = batch.ref_lin[:, None, :] + batch.gains[:, :, None] * batch.shift_base[None]
        assert np.any(np.argmax(a, axis=2) == 1)
        self._assert_agree(batch)

    @pytest.mark.parametrize("c", [1, 2])
    def test_few_classes(self, c):
        batch = self._batch(c=c)
        self._assert_agree(batch)
        if c == 1:
            assert np.all(acquire.score_eer_lin(batch).scores == 0.0)

    def test_degenerate_columns(self):
        batch = self._batch()
        assert batch.degenerate[:2].all() and not batch.degenerate[2:].any()
        current = float(np.sum(acquire.entropy(acquire.softmax(batch.ref_lin))))
        assert np.all(acquire.score_eer_lin(batch).scores[:2] == -current)
        assert np.all(acquire.score_emoc(batch, baseline="raw").scores[:2] == 0.0)
        self._assert_agree(batch)

    @pytest.mark.parametrize("same_set", [True, False])
    def test_several_chunks(self, monkeypatch, same_set):
        # Seven candidate columns per chunk: 92 candidates leave a partial
        # last chunk of one column.
        batch = self._batch(same_set=same_set)
        m, n = batch.gains.shape
        monkeypatch.setattr(acquire, "_TABLE_CHUNK_BYTES", 8 * m * 3 * 7)
        assert n % 7 == 1
        self._assert_agree(batch)


class TestEer:
    def _three_point_kernel_state(self):
        # Hand kernel over ids 0 (labeled), 1 (candidate), 2 (reference)
        # chosen so the reference gain is exactly zero: k(r,x') = k(r,X) v.
        table = {
            (0, 0): 2.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 3.0,
            (0, 2): 1.0, (2, 0): 1.0, (1, 2): 0.5, (2, 1): 0.5, (2, 2): 2.0,
        }

        def kernel_fn(params, rows_a, rows_b):
            return np.array(
                [
                    [table[(int(ra[0]), int(rb[0]))] for rb in np.atleast_2d(rows_b)]
                    for ra in np.atleast_2d(rows_a)
                ]
            )

        cfg = net.MlpConfig((1, 2), nonlinearity="identity", beta=0.0)
        params = oracles.params_from_flat(cfg, np.zeros(cfg.param_count))
        state = kernel.build_state_xy(
            params, np.array([[0.0]]), np.array([[0.0, 0.0]]), kernel_fn=kernel_fn
        )
        return state

    def test_unmoved_uniform_probabilities_give_ln2(self):
        # Outputs stay (0, 0) on the reference under every hypothetical
        # label, so the entropy sum is ln 2 and the score is its negative.
        state = self._three_point_kernel_state()
        result = acquire.eer_lin(
            state, np.array([[1.0]]), reference_set=np.array([[2.0]])
        )
        assert abs(result.scores[0] - (-LN2)) < 1e-12

    def test_degenerate_scores_current_entropy(self):
        params, x, y, state = _problem(seed=18)
        ref = np.random.default_rng(19).standard_normal((5, 2))
        result = acquire.eer_lin(state, x[:1], reference_set=ref)
        assert result.degenerate_flags[0]
        current = lookahead.predict_lin(state, ref)
        expected = -float(np.sum(acquire.entropy(acquire.softmax(current))))
        assert abs(result.scores[0] - expected) < 1e-12

    def test_matches_brute_force(self):
        params, x, y, state = _problem(l_size=6, c=2, seed=20)
        rng = np.random.default_rng(21)
        cands = rng.standard_normal((3, 2))
        ref = rng.standard_normal((4, 2))
        result = acquire.eer_lin(state, cands, reference_set=ref)
        outs = net.forward(params, cands)
        probs = acquire.softmax(outs)
        gram = kernel.empirical_ntk(params, x, x)
        residual = y - net.forward(params, x)
        for i in range(3):
            expected = 0.0
            for cls in range(2):
                x_aug = np.vstack([x, cands[i]])
                y_aug = np.vstack([y, np.eye(2)[cls]])
                gram_aug = kernel.empirical_ntk(params, x_aug, x_aug)
                cross_aug = kernel.empirical_ntk(params, ref, x_aug)
                res_aug = y_aug - net.forward(params, x_aug)
                after = net.forward(params, ref) + cross_aug @ np.linalg.solve(
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
                assert scaled.argmax_index == base.argmax_index

    def test_tie_breaks_to_lowest_index(self):
        scores = np.array([1.0, 3.0, 3.0, 2.0])
        assert acquire.AcquisitionResult.from_scores(scores).argmax_index == 1
        assert acquire.AcquisitionResult.from_scores(np.ones(5)).argmax_index == 0


class TestNaiveOracle:
    def test_zero_epochs_returns_current_outputs(self):
        params, x, y, _ = _problem(seed=23)
        labeled = data.make_dataset(x, np.argmax(y, axis=1), 2)
        ref = np.random.default_rng(24).standard_normal((4, 2))
        zero_cfg = net.TrainConfig(learning_rate=0.1, epochs=0)
        out = acquire.naive_sgd_oracle(
            params, labeled, (x[0], y[0]), zero_cfg, ref
        )
        assert np.array_equal(out, np.atleast_2d(net.forward(params, ref)))

    def test_deterministic_with_fixed_shuffle(self):
        params, x, y, _ = _problem(seed=25)
        labeled = data.make_dataset(x, np.argmax(y, axis=1), 2)
        ref = np.random.default_rng(26).standard_normal((3, 2))
        cfg = net.TrainConfig(learning_rate=0.01, epochs=5, minibatch_size=4, shuffle_seed=9)
        a = acquire.naive_sgd_oracle(params, labeled, (ref[0], y[0]), cfg, ref)
        b = acquire.naive_sgd_oracle(params, labeled, (ref[0], y[0]), cfg, ref)
        assert np.array_equal(a, b)

    def test_kernel_lookahead_correlates_with_real_retraining(self):
        # Per-reference output changes from the block look-ahead track the
        # changes from actually retraining, pooled over candidates.
        correlations = []
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
            k_changes, n_changes = [], []
            for i, xc in enumerate(cands):
                yc = np.zeros(2)
                yc[np.argmax(outs[i])] = 1.0
                k_changes.append((_lookahead_after(state, xc, yc, ref) - base).ravel())
                after = acquire.naive_sgd_oracle(params, labeled, (xc, yc), tc, ref)
                n_changes.append((after - base).ravel())
            r = np.corrcoef(np.concatenate(k_changes), np.concatenate(n_changes))[0, 1]
            correlations.append(r)
        assert np.mean(correlations) > 0.5

    def test_naive_change_scores_shape_and_determinism(self):
        params, x, y, _ = _problem(seed=27)
        labeled = data.make_dataset(x, np.argmax(y, axis=1), 2)
        cands = np.random.default_rng(28).standard_normal((3, 2))
        cfg = net.TrainConfig(learning_rate=0.01, epochs=2, minibatch_size=4, shuffle_seed=1)
        a = acquire.naive_change_scores(params, labeled, cands, cfg, cands)
        b = acquire.naive_change_scores(params, labeled, cands, cfg, cands)
        assert a.scores.shape == (3,)
        assert np.array_equal(a.scores, b.scores)
        assert np.all(a.scores >= 0.0)


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
        results += [
            acquire.score_emoc(batch, distance, baseline)
            for distance in ("l2", "l1")
            for baseline in ("linearized", "raw")
        ]
        results.append(acquire.score_eer_lin(batch))
        return results

    def _walk(self, state, cands, labels):
        """Yield (conditioned, fresh) batches after each of PICKS picks."""
        batch = lookahead.lookahead_batch(state, cands)
        for _ in range(self.PICKS):
            i = acquire.score_mlmoc(batch).argmax_index
            try:
                state = lookahead.augment_state(
                    state, cands[i], labels[i], f_val=batch.outputs[i]
                )
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
            problem = self._rank_deficient(seed, linalg.DEFAULT_JITTER.ladder)
            for conditioned, fresh in self._walk(*problem):
                np.testing.assert_array_equal(conditioned.degenerate, fresh.degenerate)
