import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from ntkal import acquire, data, kernel, linalg, lookahead, net, pool
from ntkal.errors import ContractError, DegenerateCandidateError, ShapeError

import oracles


def _problem(l_size=15, c=2, dim=3, seed=0, width=32):
    rng = np.random.default_rng(seed)
    params = net.init(net.MlpConfig((dim, width, c), seed=seed))
    x = rng.standard_normal((l_size, dim))
    y = data.one_hot_encode(rng.integers(0, c, l_size), c)
    return params, x, y, kernel.build_state_xy(params, x, y)


def _dense_predict(params, x, y, q):
    """Brute-force converged linearized prediction via a dense inverse."""
    gram = kernel.empirical_ntk(params, x, x)
    cross = kernel.empirical_ntk(params, q, x)
    residual = y - net.forward(params, x)
    return net.forward(params, q) + cross @ np.linalg.inv(gram) @ residual


class TestPredictLin:
    def test_interpolates_labeled_points(self):
        params, x, y, state = _problem()
        assert state.factor.jitter_applied <= 1e-8 * np.mean(state.features(x).diag())
        pred = lookahead.predict_lin(state, x)
        assert np.max(np.abs(pred - y)) < 1e-6

    def test_non_finite_query_rejected(self):
        _, _, _, state = _problem()
        q = np.random.default_rng(1).standard_normal((4, 3))
        q[1, 2] = np.nan
        with pytest.raises(ContractError):
            lookahead.predict_lin(state, q)

    def test_zero_residual_returns_raw_outputs(self):
        params, x, _, _ = _problem()
        y = np.atleast_2d(net.forward(params, x))  # residual becomes zero
        state = kernel.build_state_xy(params, x, y)
        q = np.random.default_rng(1).standard_normal((4, 3))
        assert np.array_equal(
            lookahead.predict_lin(state, q), np.atleast_2d(net.forward(params, q))
        )

    def test_matches_dense_inverse(self):
        params, x, y, state = _problem(l_size=15, seed=3)
        q = np.random.default_rng(4).standard_normal((6, 3))
        fast = lookahead.predict_lin(state, q)
        slow = _dense_predict(params, x, y, q)
        err = np.max(np.abs(fast - slow)) / np.max(np.abs(slow))
        assert err < 1e-8


def _hand_kernel_state():
    """(state, rows): a state over one labeled point with a hand-set kernel.

    Labeled point a (row 0) with k(a,a)=2; candidate b (row 1) with
    k(a,b)=1, k(b,b)=3; reference point r (row 2) with k(r,a)=1,
    k(r,b)=2, k(r,r)=4.
    """
    return oracles.table_state([[2.0, 1.0, 1.0], [1.0, 3.0, 2.0], [1.0, 2.0, 4.0]], [[1.0]])


def _lookahead_after(state, xc, yc, q):
    """Predictions at q after hypothetically labeling xc with yc.

    The engine scores xc and the rows of q as one candidate batch, and
    the rows of q are read from xc's gain column.
    """
    batch = lookahead.lookahead_batch(state, np.vstack([xc, q]))
    gains = oracles.gains(batch)
    return batch.shift_base[1:] + np.outer(gains[1:, 0], batch.shift_base[0] - yc)


class TestPrepareCandidate:
    """Block quantities of one candidate, through the batched engine."""

    def test_hand_block_inverse(self):
        # 2x2 block inverse by hand: v = 1/2, u = 3 - 1*(1/2)*1 = 2.5, so the
        # gains (k(q,a) v - k(q,b)) / u at q = a, b, r are 0, -1 and -0.6,
        # and the shift base is the current prediction k(b,a) K^{-1} y_a = 1/2.
        # Candidate a is the labeled point itself, so it is degenerate.
        state, rows = _hand_kernel_state()
        batch = lookahead.lookahead_batch(state, rows)
        gains = oracles.gains(batch)
        np.testing.assert_allclose(gains[:, 1], [0.0, -1.0, -0.6], atol=1e-12)
        np.testing.assert_allclose(batch.shift_base[1], [0.5], atol=1e-12)
        assert batch.degenerate.tolist() == [True, False, False]
        # Cross-checked against a direct inversion oracle of the augmented Gram.
        aug = np.array([[2.0, 1.0], [1.0, 3.0]])
        k_ref = np.array([[2.0, 1.0], [1.0, 3.0], [1.0, 2.0]])
        oracle = k_ref @ np.linalg.solve(aug, np.array([[1.0], [1.0]]))
        after = batch.shift_base + np.outer(gains[:, 1], batch.shift_base[1] - 1.0)
        np.testing.assert_allclose(after, oracle, atol=1e-12)

    def test_duplicate_labeled_point_degenerate(self):
        params, x, y, state = _problem(seed=9)
        batch = lookahead.lookahead_batch(state, x[:1])
        assert batch.degenerate[0]

    def test_orthogonal_candidate(self):
        # Zero cross kernel leaves u equal to the self kernel and v zero:
        # the candidate moves only itself, by its whole residual.
        state, rows = oracles.table_state([[2.0, 0.0], [0.0, 3.0]], [[1.0]])
        batch = lookahead.lookahead_batch(state, rows)
        np.testing.assert_allclose(oracles.gains(batch)[:, 1], [0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(batch.shift_base[1], [0.0], atol=1e-12)

    def test_schur_identity(self):
        # Gains equal (k(q,X) K^{-1} k(X,c) - k(q,c)) / (k(c,c) - k(c,X) K^{-1} k(X,c)).
        params, x, y, state = _problem(seed=10)
        assert state.factor.jitter_applied == 0.0
        rng = np.random.default_rng(11)
        xc = rng.standard_normal((1, 3))
        q = np.vstack([xc, rng.standard_normal((5, 3))])
        batch = lookahead.lookahead_batch(state, q)
        gram = kernel.empirical_ntk(params, x)
        col = kernel.empirical_ntk(params, x, xc)[:, 0]
        v = np.linalg.solve(gram, col)
        u = kernel.empirical_ntk(params, xc)[0, 0] - col @ v
        direct = (kernel.empirical_ntk(params, q, x) @ v
                  - kernel.empirical_ntk(params, q, xc)[:, 0]) / u
        np.testing.assert_allclose(oracles.gains(batch)[:, 0], direct, rtol=1e-8)


class TestLookaheadPredict:
    def test_zero_residuals_no_change(self):
        params, x, _, _ = _problem(seed=12)
        y = np.atleast_2d(net.forward(params, x))
        state = kernel.build_state_xy(params, x, y)
        xc = np.random.default_rng(13).standard_normal(3)
        q = np.random.default_rng(14).standard_normal((5, 3))
        batch = lookahead.lookahead_batch(state, np.vstack([xc, q]))
        yc = batch.outputs[0]  # zero residual too
        pred = batch.shift_base + np.outer(oracles.gains(batch)[:, 0], batch.shift_base[0] - yc)
        assert np.array_equal(pred, batch.outputs)

    def test_matches_direct_augmented_solve(self):
        params, x, y, state = _problem(l_size=30, c=3, seed=15)
        rng = np.random.default_rng(16)
        q = rng.standard_normal((5, 3))
        for trial in range(5):
            xc = rng.standard_normal(3)
            yc = data.one_hot_encode([trial % 3], 3)[0]
            fast = _lookahead_after(state, xc, yc, q)
            slow = _dense_predict(
                params, np.vstack([x, xc]), np.vstack([y, yc]), q
            )
            err = np.max(np.abs(fast - slow)) / np.max(np.abs(slow))
            assert err < 1e-8

    def test_query_at_candidate_returns_its_label(self):
        params, x, y, state = _problem(seed=17)
        xc = np.random.default_rng(18).standard_normal(3)
        yc = np.array([0.0, 1.0])
        pred = _lookahead_after(state, xc, yc, xc[None, :])
        assert np.max(np.abs(pred[0] - yc)) < 1e-6

    def test_degenerate_raises(self):
        # A degenerate candidate is flagged, its look-ahead change is exactly
        # zero, and augment_state refuses it.
        params, x, y, state = _problem(seed=19)
        batch = lookahead.lookahead_batch(state, x)
        assert batch.degenerate[0]
        assert not np.any(oracles.gains(batch))
        with pytest.raises(DegenerateCandidateError):
            lookahead.augment_state(state, x[0], y[0])


class TestLookaheadBatch:
    def test_columns_match_single_candidate_runs(self):
        # Column i of a batch, on the rows it shares with a batch of
        # candidate i and the same six other points.
        params, x, y, state = _problem(l_size=20, c=3, seed=36)
        rng = np.random.default_rng(37)
        cands = np.vstack([rng.standard_normal((4, 3)), x[:1]])
        others = rng.standard_normal((6, 3))
        batch = lookahead.lookahead_batch(state, np.vstack([cands, others]))
        gains = oracles.gains(batch)
        for i in range(len(cands)):
            one = lookahead.lookahead_batch(state, np.vstack([cands[i], others]))
            shared = [i, *range(len(cands), len(gains))]
            np.testing.assert_allclose(
                oracles.gains(one)[:, 0], gains[shared, i], rtol=1e-12, atol=1e-14
            )
            np.testing.assert_allclose(
                one.shift_base[0], batch.shift_base[i], rtol=1e-12, atol=1e-12
            )
            assert one.degenerate[0] == batch.degenerate[i]

    def test_non_finite_rows_rejected(self):
        _, _, _, state = _problem(seed=40)
        bad = np.random.default_rng(41).standard_normal((3, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ContractError):
            lookahead.lookahead_batch(state, bad)

    def test_empty_sets_rejected(self):
        _, _, _, state = _problem()
        with pytest.raises(ContractError):
            lookahead.lookahead_batch(state, np.zeros((0, 3)))

    def test_solve_overwrites_the_cross_kernel(self):
        # W is solved in the memory of k(c, X), so one (n, L) array and the
        # cross kernel's row-chunk temporaries bound the traced peak; holding
        # both took 2.1 (n, L) arrays.
        rng = np.random.default_rng(60)
        params = net.init(net.MlpConfig((4, 16, 2), seed=60))
        l_size, n = 400, 1000
        state = kernel.build_state_xy(
            params, rng.standard_normal((l_size, 4)), np.eye(2)[rng.integers(0, 2, l_size)]
        )
        cands = rng.standard_normal((n, 4))
        tracemalloc.start()
        try:
            batch = lookahead.lookahead_batch(state, cands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * l_size * (n + 3 * kernel.CHUNK_ROWS)
        _, w = batch.covariance
        np.testing.assert_array_equal(
            w, solve_triangular(state.factor.lower, state.kernel_rows(cands).T, lower=True)
        )


class TestCovarianceInPlace:
    """The gains are -(K_rc - W_r^T W_c) / u, formed in the kernel block itself."""

    @staticmethod
    def _state(jittered):
        rng = np.random.default_rng(50)
        params = net.init(net.MlpConfig((4, 24, 2), seed=50))
        x = rng.standard_normal((15, 4))
        y = data.one_hot_encode(rng.integers(0, 2, 15), 2)
        ladder = (1e-3,) if jittered else (0.0,)
        with oracles.jitter_ladder(ladder):
            state = kernel.build_state_xy(params, x, y)
        assert (state.factor.jitter_applied > 0.0) == jittered
        return params, x, state, rng

    @staticmethod
    def _dense_gains(params, x, state, cands):
        w = np.linalg.solve(state.factor.lower, oracles.empirical_ntk_blocks(params, x, cands))
        sigma = oracles.empirical_ntk_blocks(params, cands) - w.T @ w
        u = state.features(cands).diag() - np.sum(w * w, axis=0) + state.factor.jitter_applied
        return -sigma / u

    @staticmethod
    def _candidates(rng, n, candidates_only, extra=300):
        """n candidate rows, or n + extra with more rows stacked onto them."""
        cands = rng.standard_normal((n, 4))
        return cands if candidates_only else np.vstack([cands, rng.standard_normal((extra, 4))])

    @pytest.mark.parametrize("jittered", [False, True])
    @pytest.mark.parametrize("candidates_only", [True, False])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_gains_match_dense_formula(self, n, candidates_only, jittered):
        params, x, state, rng = self._state(jittered)
        cands = self._candidates(rng, n, candidates_only)
        batch = lookahead.lookahead_batch(state, cands)
        assert not np.any(batch.degenerate)
        want = self._dense_gains(params, x, state, cands)
        np.testing.assert_allclose(
            oracles.gains(batch), want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want))
        )

    @pytest.mark.parametrize("candidates_only", [True, False])
    def test_degenerate_columns_are_zero(self, candidates_only):
        params, x, y, state = _problem(l_size=15, seed=51)
        rng = np.random.default_rng(52)
        rows = [rng.standard_normal((300, 3))]
        if not candidates_only:
            rows.append(rng.standard_normal((280, 3)))
        cands = np.vstack(rows + [x[:3]])
        batch = lookahead.lookahead_batch(state, cands)
        n = len(cands) - 3
        assert np.flatnonzero(batch.degenerate).tolist() == [n, n + 1, n + 2]
        gains = oracles.gains(batch)
        assert not np.any(gains[:, n:])
        assert np.all(np.any(gains[:, :n], axis=0))

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("candidates_only", [True, False])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_covariance_is_formed_in_the_block(self, n, candidates_only, order):
        # The chunk loop yields the upper triangle in row chunks, diagonal
        # blocks included; the dense form's mirror must complete every
        # block, exactly. W may come in either memory order.
        params, x, state, rng = self._state(False)
        cands = self._candidates(rng, n, candidates_only)
        features, w = lookahead.lookahead_batch(state, cands).covariance
        w = np.asarray(w, order=order)
        want = oracles.empirical_ntk_blocks(params, cands) - w.T @ w
        sigma = features.gram(w)
        np.testing.assert_array_equal(sigma, sigma.T)
        np.testing.assert_allclose(sigma, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("candidates_only", [True, False])
    def test_sigma_is_formed_once_in_chunks(self, monkeypatch, candidates_only):
        # A batch contracts no kernel block until it is made dense; that
        # forms Sigma in one pass of upper-triangle chunks, and a dense
        # batch is its own dense form.
        blocks = []
        original = kernel.FeatureBatch.add_block

        def recording(self, rows, cols, out):
            blocks.append((rows, cols))
            return original(self, rows, cols, out)

        monkeypatch.setattr(kernel.FeatureBatch, "add_block", recording)
        _, _, state, rng = self._state(False)
        blocks.clear()  # the labeled Gram's block
        cands = self._candidates(rng, 300, candidates_only, 270)
        batch = lookahead.lookahead_batch(state, cands)
        assert blocks == []
        dense = batch.dense()
        n, chunk = len(cands), kernel.CHUNK_ROWS
        assert blocks == [
            (slice(start, min(start + chunk, n)), slice(start, n)) for start in range(0, n, chunk)
        ]
        assert dense.covariance is None and dense.sigma.shape == (n, n)
        assert batch.sigma is None and dense.dense() is dense

    def test_same_set_evaluates_each_kernel_quantity_once(self, monkeypatch):
        # One gradient-factor pass over the candidates: k(c, X), k(c, c),
        # the outputs and every kernel block are contracted from it.
        _, _, state, rng = self._state(False)
        cands = rng.standard_normal((300, 4))
        calls = []
        original = net.grad_factors

        def counting(params, x):
            calls.append(len(x))
            return original(params, x)

        monkeypatch.setattr(net, "grad_factors", counting)
        batch = lookahead.lookahead_batch(state, cands)
        batch.abs_gain_sums()
        assert batch.dense().sigma.shape == (300, 300)
        assert calls == [300]
        np.testing.assert_array_equal(batch.outputs, net.forward(state.params, cands))


def _labeled_state(rng, n, jittered):
    params = net.init(net.MlpConfig((4, 24, 2), seed=53))
    x = rng.standard_normal((15, 4))
    y = data.one_hot_encode(rng.integers(0, 2, 15), 2)
    ladder = (1e-3,) if jittered else (0.0,)
    with oracles.jitter_ladder(ladder):
        state = kernel.build_state_xy(params, x, y)
    assert (state.factor.jitter_applied > 0.0) == jittered
    return state, rng.standard_normal((n, 4)), 0


def _partly_degenerate_state(rng, n):
    # The last rows repeat labeled points, up to three of them, and at
    # least one candidate stays healthy.
    params, x, y, state = _problem(l_size=15, seed=54)
    cands = rng.standard_normal((n, 3))
    repeated = min(3, n - 1)
    cands[n - repeated :] = x[:repeated]
    return state, cands, repeated


def _erf_state(rng, n):
    params = net.init(net.MlpConfig((4, 24, 24, 3), nonlinearity="erf", seed=55))
    x = rng.standard_normal((15, 4))
    y = data.one_hot_encode(rng.integers(0, 3, 15), 3)
    return kernel.build_state_xy(params, x, y), rng.standard_normal((n, 4)), 0


class TestStreamedColumnSums:
    """abs_gain_sums streams Sigma through the reduce sink; it must match the gains formed whole."""

    @pytest.mark.parametrize(
        "make_problem",
        [
            pytest.param(partial(_labeled_state, jittered=False), id="unjittered"),
            pytest.param(partial(_labeled_state, jittered=True), id="jittered"),
            pytest.param(_partly_degenerate_state, id="partly-degenerate"),
            pytest.param(_erf_state, id="erf"),
        ],
    )
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_matches_dense_gains(self, n, make_problem):
        state, cands, degenerate = make_problem(np.random.default_rng(56), n)
        streamed = lookahead.lookahead_batch(state, cands).abs_gain_sums()
        batch = lookahead.lookahead_batch(state, cands)
        assert np.count_nonzero(batch.degenerate) == degenerate
        dense = np.sum(np.abs(oracles.gains(batch)), axis=0)
        assert np.all(dense[~batch.degenerate] > 0.0)
        np.testing.assert_allclose(streamed, dense, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(batch.dense().abs_gain_sums(), dense, rtol=1e-12, atol=0.0)


class TestCondition:
    def test_index_out_of_range_rejected(self):
        _, _, _, state = _problem(seed=44)
        batch = lookahead.lookahead_batch(state, np.random.default_rng(45).standard_normal((3, 3)))
        for i in (3, -1, 1.0, True):  # 1.0 and True used to raise bare IndexError, ValueError
            with pytest.raises(ContractError):
                lookahead.condition(batch, i, np.array([1.0, 0.0]))

    def test_bad_labels_rejected(self):
        # A label must have one finite entry per class, whether or not the
        # pick is degenerate; a rejected label leaves the batch unformed.
        params, x, y, state = _problem(seed=44)
        cands = np.vstack([x[:1], np.random.default_rng(45).standard_normal((2, 3))])
        batch = lookahead.lookahead_batch(state, cands)
        assert batch.degenerate.tolist() == [True, False, False]
        for i in (0, 1):
            for label in ([1.0], [1.0, 0.0, 0.0]):
                with pytest.raises(ShapeError):
                    lookahead.condition(batch, i, np.array(label))
            for label in ([np.nan, 1.0], [0.0, np.inf]):
                with pytest.raises(ContractError):
                    lookahead.condition(batch, i, np.array(label))
        assert batch.sigma is None

    def test_degenerate_pick_only_drops_its_row_and_column(self):
        # Sigma is updated in place: the pick's row and column are zeroed
        # and nothing else moves; the other arrays list the live candidates.
        params, x, y, state = _problem(seed=46)
        rng = np.random.default_rng(47)
        cands = np.vstack([rng.standard_normal((2, 3)), x[:1], rng.standard_normal((2, 3))])
        batch = lookahead.lookahead_batch(state, cands).dense()
        assert batch.degenerate.tolist() == [False, False, True, False, False]
        assert batch.sigma.flags.f_contiguous and batch.covariance is None
        keep = [0, 1, 3, 4]
        gains, sigma = oracles.gains(batch)[np.ix_(keep, keep)], batch.sigma.copy()
        sigma[2], sigma[:, 2] = 0.0, 0.0
        after = lookahead.condition(batch, 2, np.array([0.0, 1.0]))
        assert after.sigma is batch.sigma
        np.testing.assert_array_equal(after.sigma, sigma)
        np.testing.assert_array_equal(oracles.gains(after), gains)
        np.testing.assert_array_equal(after.live, keep)
        for name in ("outputs", "degenerate", "shift_base", "schur", "self_k"):
            np.testing.assert_array_equal(getattr(after, name), getattr(batch, name)[keep])

    def test_conditions_down_to_the_last_candidate(self):
        # One Sigma serves every pick; dead rows and columns stay exactly
        # zero under later downdates.
        params, x, y, state = _problem(seed=48)
        rng = np.random.default_rng(49)
        cands = rng.standard_normal((4, 3))
        labels = np.eye(2)[rng.integers(0, 2, 4)]
        batch = lookahead.lookahead_batch(state, cands)
        sigma = None
        while len(cands) > 1:
            state = lookahead.augment_state(state, cands[0], labels[0])
            batch = lookahead.condition(batch, 0, labels[0])
            sigma = batch.sigma if sigma is None else sigma
            assert batch.sigma is sigma
            cands, labels = cands[1:], labels[1:]
            fresh = lookahead.lookahead_batch(state, cands)
            np.testing.assert_allclose(
                oracles.gains(batch), oracles.gains(fresh), rtol=1e-9, atol=1e-12
            )
            np.testing.assert_allclose(batch.shift_base, fresh.shift_base, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(batch.schur, fresh.schur, rtol=1e-9, atol=1e-12)
            dead = np.setdiff1d(np.arange(4), batch.live)
            assert not np.any(sigma[dead]) and not np.any(sigma[:, dead])
        assert oracles.gains(batch).shape == (1, 1)
        np.testing.assert_array_equal(batch.live, [3])
        with pytest.raises(ContractError):
            lookahead.condition(batch, 0, labels[0])

    def test_picks_allocate_no_covariance_sized_array(self):
        # A 10-pick cycle as pool runs it: after the cycle's first score,
        # scoring, conditioning and the cycle's one augment_state never
        # raise traced memory by one (n, n) array.
        params, x, y, state = _problem(l_size=20, seed=57)
        rng = np.random.default_rng(58)
        cands = rng.standard_normal((300, 3))
        labels = np.eye(2)[rng.integers(0, 2, 300)]
        tracemalloc.start()
        try:
            batch = lookahead.lookahead_batch(state, cands).dense()
            result = acquire.score_mlmoc(batch)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            picked_x, picked_y = [], []
            for _ in range(10):
                i = int(np.argmax(result.scores))
                picked_x.append(cands[i])
                picked_y.append(labels[i])
                batch = lookahead.condition(batch, i, labels[i])
                cands, labels = np.delete(cands, i, axis=0), np.delete(labels, i, axis=0)
                result = acquire.score_mlmoc(batch)
            state = lookahead.augment_state(state, np.array(picked_x), np.array(picked_y))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 8 * 300 * 300


class TestAugmentState:
    def test_preserves_interpolation(self):
        params, x, y, state = _problem(seed=20)
        xc = np.random.default_rng(21).standard_normal(3)
        new = lookahead.augment_state(state, xc, np.array([1.0, 0.0]))
        pred = lookahead.predict_lin(new, x)
        assert np.max(np.abs(pred - y)) < 1e-6

    def test_order_invariant(self):
        params, x, y, state = _problem(seed=22)
        rng = np.random.default_rng(23)
        p1, p2 = rng.standard_normal(3), rng.standard_normal(3)
        y1, y2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        q = rng.standard_normal((50, 3))
        ab = lookahead.augment_state(lookahead.augment_state(state, p1, y1), p2, y2)
        ba = lookahead.augment_state(lookahead.augment_state(state, p2, y2), p1, y1)
        pa, pb = lookahead.predict_lin(ab, q), lookahead.predict_lin(ba, q)
        assert np.max(np.abs(pa - pb)) / np.max(np.abs(pa)) < 1e-6

    def test_matches_cold_rebuild(self):
        params, x, y, state = _problem(seed=24)
        rng = np.random.default_rng(25)
        xc = rng.standard_normal(3)
        yc = np.array([0.0, 1.0])
        q = rng.standard_normal((8, 3))
        warm = lookahead.augment_state(state, xc, yc)
        cold = kernel.build_state_xy(params, np.vstack([x, xc]), np.vstack([y, yc]))
        pw = lookahead.predict_lin(warm, q)
        pc = lookahead.predict_lin(cold, q)
        assert np.max(np.abs(pw - pc)) / np.max(np.abs(pc)) < 1e-8

    def test_consistent_label_changes_nothing(self):
        params, x, _, _ = _problem(seed=26)
        y = np.atleast_2d(net.forward(params, x))
        state = kernel.build_state_xy(params, x, y)
        xc = np.random.default_rng(27).standard_normal(3)
        yc = net.forward(params, xc)
        new = lookahead.augment_state(state, xc, yc)
        q = np.random.default_rng(28).standard_normal((6, 3))
        assert np.allclose(
            lookahead.predict_lin(new, q), lookahead.predict_lin(state, q), atol=1e-12
        )

    def test_bad_inputs_rejected(self):
        params, x, y, state = _problem(seed=20)
        xc = np.random.default_rng(21).standard_normal(3)
        with pytest.raises(ShapeError):
            lookahead.augment_state(state, xc, np.array([1.0]))
        with pytest.raises(ContractError):
            lookahead.augment_state(state, xc, np.array([np.nan, 0.0]))
        xc[1] = np.nan
        with pytest.raises(ContractError):
            lookahead.augment_state(state, xc, np.array([1.0, 0.0]))

    def test_empty_block_rejected(self):
        # As lookahead_batch rejects an empty candidate set: no rows is a
        # contract error, not rows inside the labeled span.
        _, _, _, state = _problem(seed=20)
        with pytest.raises(ContractError, match="no rows"):
            lookahead.augment_state(state, np.zeros((0, 3)), np.zeros((0, 2)))

    def test_rejects_duplicate(self):
        params, x, y, state = _problem(seed=29)
        with pytest.raises(DegenerateCandidateError):
            lookahead.augment_state(state, x[0], y[0])

    def test_labeled_rows_are_stored_once(self):
        # The labeled rows are the first layer's cached activations, not a
        # copy stacked beside them.
        params, x, y, state = _problem(seed=33)
        xc = np.random.default_rng(34).standard_normal((2, 3))
        new = lookahead.augment_state(state, xc, np.eye(2))
        assert new.inputs is new.factor_cache[0][0]
        np.testing.assert_array_equal(new.inputs, np.vstack([x, xc]))
        with pytest.raises(TypeError):
            replace(new, inputs=x)  # not a field of its own

    def test_extends_cache_and_agrees(self):
        params, x, y, state = _problem(seed=30)
        assert state.factor_cache is not None
        xc = np.random.default_rng(31).standard_normal(3)
        new = lookahead.augment_state(state, xc, np.array([1.0, 0.0]))
        assert new.factor_cache is not None
        q = np.random.default_rng(32).standard_normal((3, 3))
        direct = kernel.empirical_ntk(params, q, new.inputs)
        np.testing.assert_allclose(new.kernel_rows(q), direct, rtol=1e-12)

    def test_one_factor_pass_gives_every_new_entry(self, monkeypatch):
        # The new factor row, pivot, residual row and factor-cache row all
        # come from one gradient-factor pass over x, bitwise equal to
        # separate evaluations of each.
        params, x, y, state = _problem(seed=38)
        xc = np.random.default_rng(39).standard_normal(3)
        yc = np.array([0.0, 1.0])
        calls = []
        original = net.grad_factors

        def counting(params, rows):
            calls.append(len(np.atleast_2d(rows)))
            return original(params, rows)

        monkeypatch.setattr(net, "grad_factors", counting)
        new = lookahead.augment_state(state, xc, yc)
        assert calls == [1]
        monkeypatch.undo()
        w = solve_triangular(
            state.factor.lower, state.kernel_rows(xc).T, lower=True, check_finite=False
        )
        np.testing.assert_array_equal(new.factor.lower[-1, :-1], w[:, 0])
        batch = lookahead.lookahead_batch(state, xc[None, :])
        assert new.factor.lower[-1, -1] == np.sqrt(batch.schur[0] + batch.jitter)
        np.testing.assert_array_equal(new.residual[-1], yc - net.forward(params, xc))
        for (a, d), (na, nd) in zip(new.factor_cache, net.grad_factors(params, xc[None, :])):
            np.testing.assert_array_equal(a[-1], na[0])
            np.testing.assert_array_equal(d[-1], nd[0])

    def test_one_factor_pass_per_block(self, monkeypatch):
        # A block of k rows costs one look-ahead batch over them, on one
        # k-row gradient-factor pass, and its factor-cache rows are bitwise
        # those of that pass.
        params, x, y, state = _problem(seed=40)
        xc = np.random.default_rng(41).standard_normal((5, 3))
        yc = np.eye(2)[[0, 1, 1, 0, 1]]
        calls, batches = [], []
        original, original_batch = net.grad_factors, lookahead.lookahead_batch

        def counting(params, rows):
            calls.append(len(rows))
            return original(params, rows)

        monkeypatch.setattr(net, "grad_factors", counting)
        monkeypatch.setattr(
            lookahead, "lookahead_batch", lambda *a: batches.append(a) or original_batch(*a)
        )
        new = lookahead.augment_state(state, xc, yc)
        assert calls == [5]
        assert len(batches) == 1 and batches[0][0] is state and batches[0][1] is xc
        monkeypatch.undo()
        assert new.labeled_count == state.labeled_count + 5
        for (a, d), (na, nd) in zip(new.factor_cache, net.grad_factors(params, xc)):
            np.testing.assert_array_equal(a[-5:], na)
            np.testing.assert_array_equal(d[-5:], nd)

    def test_all_degenerate_block_raises(self):
        params, x, y, state = _problem(seed=42)
        block = np.vstack([x[3], x[0], x[3]])
        with pytest.raises(DegenerateCandidateError):
            lookahead.augment_state(state, block, y[[3, 0, 3]])

    def test_block_labels_checked(self):
        params, x, y, state = _problem(seed=43)
        xc = np.random.default_rng(44).standard_normal((2, 3))
        for bad in (np.array([1.0, 0.0]), np.ones((3, 2)), np.ones((2, 1))):
            with pytest.raises(ShapeError):
                lookahead.augment_state(state, xc, bad)
        with pytest.raises(ContractError):
            lookahead.augment_state(state, xc, np.array([[1.0, 0.0], [np.inf, 0.0]]))

    def test_block_equals_rows_one_at_a_time(self):
        # Random blocks, some rows repeating a labeled point or an earlier
        # row of the block: the same rows enter, in order, as with one
        # single-row call per row, and the states agree.
        checked = 0
        for seed in range(24):
            rng = np.random.default_rng(seed + 100)
            params, x, y, state = _problem(l_size=int(rng.integers(5, 16)), seed=seed, width=48)
            k = int(rng.integers(1, 7))
            xc = rng.standard_normal((k, 3))
            for j in range(k):
                if rng.random() < 0.25:
                    xc[j] = x[rng.integers(len(x))]
                elif j and rng.random() < 0.25:
                    xc[j] = xc[rng.integers(j)]
            yc = np.eye(2)[rng.integers(0, 2, k)]
            rows = state
            for j in range(k):
                try:
                    rows = lookahead.augment_state(rows, xc[j], yc[j])
                except DegenerateCandidateError:
                    pass
            if rows is state:
                with pytest.raises(DegenerateCandidateError):
                    lookahead.augment_state(state, xc, yc)
                continue
            block = lookahead.augment_state(state, xc, yc)
            np.testing.assert_array_equal(block.inputs, rows.inputs)
            np.testing.assert_array_equal(block.targets, rows.targets)
            assert rows.factor.jitter_applied == 0.0
            q = rng.standard_normal((20, 3))
            pairs = [
                (block.factor.lower, rows.factor.lower),
                (block.solved_residual, rows.solved_residual),
                (lookahead.predict_lin(block, q), lookahead.predict_lin(rows, q)),
            ]
            for got, want in pairs:
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
            checked += 1
        assert checked >= 20

    def test_lookahead_matches_actual_augment(self):
        params, x, y, state = _problem(seed=33)
        xc = np.random.default_rng(34).standard_normal(3)
        yc = np.array([0.0, 1.0])
        q = np.random.default_rng(35).standard_normal((4, 3))
        hypothetical = _lookahead_after(state, xc, yc, q)
        committed = lookahead.predict_lin(lookahead.augment_state(state, xc, yc), q)
        np.testing.assert_allclose(hypothetical, committed, rtol=1e-9, atol=1e-11)


def _trained_problem(l_size, u_size, width, seed=0, dim=8):
    """A briefly trained network and kernel state over synthetic data.

    Inputs are standard normal in ``dim`` dimensions with a linear label
    rule. The first ``l_size`` points are labeled, the other ``u_size``
    are the candidates. Returns (params, labeled, candidates, state).
    """
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((l_size + u_size, dim))
    labels = (inputs @ rng.standard_normal(dim) > 0).astype(int)
    full = data.make_dataset(inputs, labels, 2, name="linear-rule")
    labeled = full.subset(np.arange(l_size))
    cand = full.inputs[l_size:]
    mlp_cfg = net.MlpConfig((dim, width, 2), nonlinearity="relu", seed=seed)
    params = net.init(mlp_cfg)
    params = net.train_sgd(
        params,
        labeled,
        net.TrainConfig(learning_rate=0.02, epochs=5, minibatch_size=32, shuffle_seed=seed),
    )
    return params, labeled, cand, kernel.build_state(params, labeled)


@pytest.fixture(scope="module")
def near_degenerate_problem():
    """Reproducer for the fixed degeneracy threshold on a jittered state.

    Width 16 on 8-d inputs has 178 parameters against 200 labels, so the
    Gram is rank-deficient and factorizes with jitter 2.5e-10. Some of the
    100 candidates are flagged; some that are not sit at schur/k(c,c) just
    above ``lookahead.DEGENERATE_U_SCALE``, where rounding decides their
    scores.
    """
    return _trained_problem(200, 100, width=16)


def _direct_mlmoc_scores(params, state, cand):
    """mlmoc by refactorizing each candidate's augmented Gram from scratch.

    A reference path that shares no algebra with the look-ahead engine
    (only the state's kernel evaluations): a cold Cholesky of the
    augmented system, with the state's jitter on
    every diagonal entry, the new one included (the system
    ``augment_state`` builds). Pseudo-labels are the network's argmax and
    the reference set is the candidate set.
    """
    u_size = len(cand)
    jitter = state.factor.jitter_applied
    k_ul = state.kernel_rows(cand)  # (U, L)
    k_uu_diag = state.features(cand).diag()
    k_ll = kernel.empirical_ntk(params, state.inputs)  # the Gram the state factorized
    k_ru = state.features(cand).add_block(  # reference = candidate subset
        slice(None), slice(None), np.zeros((u_size, u_size))
    )
    outputs = net.forward(params, cand)
    base = outputs + k_ul @ state.solved_residual
    labels = np.zeros_like(outputs)
    labels[np.arange(u_size), np.argmax(outputs, axis=1)] = 1.0
    direct_scores = np.zeros(u_size)
    for i in range(u_size):
        gram_aug = np.zeros((state.labeled_count + 1, state.labeled_count + 1))
        gram_aug[:-1, :-1] = k_ll
        gram_aug[-1, :-1] = k_ul[i]
        gram_aug[:-1, -1] = k_ul[i]
        gram_aug[-1, -1] = k_uu_diag[i]
        gram_aug[np.diag_indices_from(gram_aug)] += jitter
        factor = linalg.cholesky(gram_aug)
        residual_aug = np.vstack([state.residual, labels[i] - outputs[i]])
        solved = linalg.chol_solve(factor, residual_aug)
        preds = outputs + np.column_stack([k_ul, k_ru[:, i]]) @ solved
        direct_scores[i] = np.sum(np.linalg.norm(preds - base, axis=1))
    return direct_scores


def _relative_gaps(scores, reference, mask):
    return np.abs(scores[mask] - reference[mask]) / np.abs(reference[mask])


class TestDirectRefactorization:
    """mlmoc through the engine against explicit re-solves of the augmented system."""

    @pytest.mark.parametrize(
        "ladder",
        [pytest.param(None, id="unjittered"), pytest.param((1e-6,), id="jittered")],
    )
    def test_agrees_with_direct_path(self, ladder):
        # The default ladder factorizes this Gram without jitter; the
        # forced one adds 2.6e-6 to its diagonal.
        params, labeled, cand, state = _trained_problem(100, 50, width=16)
        if ladder is not None:
            with oracles.jitter_ladder(ladder):
                state = kernel.build_state(params, labeled)
            assert state.factor.jitter_applied > 0.0
        result = acquire.mlmoc(state, cand)
        healthy = ~result.degenerate_flags
        assert np.any(healthy)
        direct = _direct_mlmoc_scores(params, state, cand)
        assert np.max(_relative_gaps(result.scores, direct, healthy)) < 1e-8

    def test_without_healthy_candidates(self):
        # 200 labels: width 4 (46 parameters) puts every candidate inside
        # the labeled span; width 12 (134 parameters) leaves some outside.
        params, _, cand, state = _trained_problem(200, 50, width=4)
        assert np.all(lookahead.lookahead_batch(state, cand).degenerate)
        for picks in (None, 5):
            result = acquire.mlmoc(state, cand, picks=picks)
            assert np.all(result.degenerate_flags)
            assert np.all(result.scores == 0.0)

        params, _, cand, state = _trained_problem(200, 100, width=12)
        flags = lookahead.lookahead_batch(state, cand).degenerate
        assert 0 < np.count_nonzero(flags) < len(cand)
        result = acquire.mlmoc(state, cand)
        direct = _direct_mlmoc_scores(params, state, cand)
        assert np.all(np.isfinite(_relative_gaps(result.scores, direct, ~flags)))

    def test_near_degenerate_problem_shape(self, near_degenerate_problem):
        params, labeled, cand, state = near_degenerate_problem
        assert params.config.param_count < len(labeled)
        assert state.factor.jitter_applied > 0.0
        flags = acquire.mlmoc(state, cand).degenerate_flags
        assert 0 < np.count_nonzero(flags) < len(cand)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the fixed DEGENERATE_U_SCALE leaves noise-dominated candidates "
        "unflagged; their scores miss augment_state by up to 1.6e-3",
    )
    def test_unflagged_scores_match_augmented_state(self, near_degenerate_problem):
        _, _, cand, state = near_degenerate_problem
        result = acquire.mlmoc(state, cand)
        before = lookahead.predict_lin(state, cand)
        explicit = np.zeros(len(cand))
        healthy = ~result.degenerate_flags
        for i in np.flatnonzero(healthy):
            aug = lookahead.augment_state(state, cand[i], result.pseudo_labels[i])
            change = lookahead.predict_lin(aug, cand) - before
            explicit[i] = np.sum(np.linalg.norm(change, axis=1))
        assert np.max(_relative_gaps(result.scores, explicit, healthy)) <= 1e-8


def _float32_sink_errors(batch):
    """sum_r |Sigma32(r, c) - Sigma(r, c)| per column c, over the reduce sink's
    chunks and mirrors, with Sigma32 the float32 chunks of the pick path."""
    features, w = batch.covariance
    rounded = features.astype(np.float32).gram_chunks(w.astype(np.float32))
    errors = np.zeros(len(features.rows))
    for (start, stop, exact), (_, _, chunk) in zip(features.gram_chunks(w), rounded):
        e = np.abs(chunk - exact)
        errors[start:] += np.sum(e, axis=0)
        errors[start:stop] += np.sum(e[:, stop - start :], axis=1)
    return errors


class TestFloat32SinkBound:
    """The half-widths of ``_sink_halfwidths`` against the float32 sink's realized error."""

    @pytest.mark.parametrize(
        "l_size, u_size, width, dim",
        [(20, 400, 32, 8), (200, 600, 64, 16), (1000, 300, 64, 32), (300, 300, 512, 4)],
    )
    def test_bound_holds_with_margin(self, l_size, u_size, width, dim):
        for seed in range(2):
            params, _, cand, state = _trained_problem(l_size, u_size, width, seed, dim)
            self._check(state, cand)

    def test_bound_holds_on_the_near_degenerate_problem(self, near_degenerate_problem):
        _, _, cand, state = near_degenerate_problem
        self._check(state, cand)

    @staticmethod
    def _check(state, cand):
        batch = lookahead.lookahead_batch(state, cand)
        w = batch.covariance[1]
        half = lookahead._sink_halfwidths(batch, w, state.params.config.widths)
        realized = _float32_sink_errors(batch)
        assert np.all(realized > 0.0)
        assert np.min(half / realized) >= 5.0

    def test_near_degenerate_picks_are_exact(self, near_degenerate_problem, monkeypatch):
        # Jitter and rank deficiency leave Sigma far below the kernel terms
        # that bound its rounding (schur / k(c, c) near 1e-10), so even the
        # top pick leaves 88 of the 89 live candidates to rescoring: correct,
        # not fast.
        _, _, cand, state = near_degenerate_problem
        rescored, row_sums = [], lookahead._row_sums

        def counting(features, w, idx):
            rescored.append(len(idx))
            return row_sums(features, w, idx)

        monkeypatch.setattr(lookahead, "_row_sums", counting)
        want = acquire.mlmoc(state, cand)
        live = int(np.sum(~want.degenerate_flags))
        for k in (1, 10, live, len(cand)):
            got = acquire.mlmoc(state, cand, picks=k)
            assert pool.query_batch_topk(got, k) == pool.query_batch_topk(want, k)
            assert rescored[-1] >= min(k, live)
        assert rescored[0] > live // 2

