import numpy as np
import pytest

from ntkal import data, kernel, lookahead, net
from ntkal.errors import ContractError, DegenerateCandidateError


def _problem(l_size=15, c=2, dim=3, seed=0, width=32):
    rng = np.random.default_rng(seed)
    params = net.init(net.MlpConfig((dim, width, c), seed=seed))
    x = rng.standard_normal((l_size, dim))
    y = data.one_hot_encode(rng.integers(0, c, l_size), c)
    return params, x, y, kernel.build_state_xy(params, x, y)


def _dense_predict(params, x, y, q, kernel_fn=None):
    """Brute-force converged linearized prediction via a dense inverse."""
    if kernel_fn is None:
        gram = kernel.empirical_ntk(params, x, x)
        cross = kernel.empirical_ntk(params, q, x)
    else:
        gram = kernel_fn(params, x, x)
        cross = kernel_fn(params, q, x)
    residual = y - net.forward(params, x)
    return net.forward(params, q) + cross @ np.linalg.inv(gram) @ residual


class TestPredictLin:
    def test_interpolates_labeled_points(self):
        params, x, y, state = _problem()
        assert state.factor.jitter_applied <= 1e-8 * np.mean(np.diag(state.gram))
        pred = lookahead.predict_lin(state, x)
        assert np.max(np.abs(pred - y)) < 1e-6

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
    """State over one labeled point with a hand-set kernel.

    Kernel values are looked up by the first input coordinate:
    labeled point a=0 with k(a,a)=2; candidate b=1 with k(a,b)=1,
    k(b,b)=3; reference point r=2 with k(r,a)=1, k(r,b)=2.
    """
    table = {
        (0, 0): 2.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 3.0,
        (0, 2): 1.0, (2, 0): 1.0, (1, 2): 2.0, (2, 1): 2.0, (2, 2): 4.0,
    }

    def kernel_fn(params, rows_a, rows_b):
        out = np.zeros((len(rows_a), len(rows_b)))
        for i, ra in enumerate(np.atleast_2d(rows_a)):
            for j, rb in enumerate(np.atleast_2d(rows_b)):
                out[i, j] = table[(int(ra[0]), int(rb[0]))]
        return out

    cfg = net.MlpConfig((1, 1), nonlinearity="identity", beta=0.0)
    params = net.params_from_flat(cfg, np.zeros(cfg.param_count))
    state = kernel.build_state_xy(
        params, np.array([[0.0]]), np.array([[1.0]]), kernel_fn=kernel_fn
    )
    return state


def _lookahead_after(state, xc, yc, q):
    """Predictions at q after hypothetically labeling xc with yc (engine at n=1)."""
    batch = lookahead.lookahead_batch(state, xc[None, :], q)
    return batch.ref_lin + np.outer(batch.gains[:, 0], batch.shift_base[0] - yc)


class TestPrepareCandidate:
    """Block quantities of one candidate, through the batched engine."""

    def test_hand_block_inverse(self):
        # 2x2 block inverse by hand: v = 1/2, u = 3 - 1*(1/2)*1 = 2.5, so the
        # gains (k(q,a) v - k(q,b)) / u at q = a, b, r are 0, -1 and -0.6,
        # and the shift base is the current prediction k(b,a) K^{-1} y_a = 1/2.
        state = _hand_kernel_state()
        ref = np.array([[0.0], [1.0], [2.0]])
        batch = lookahead.lookahead_batch(state, np.array([[1.0]]), ref)
        np.testing.assert_allclose(batch.gains[:, 0], [0.0, -1.0, -0.6], atol=1e-12)
        np.testing.assert_allclose(batch.shift_base, [[0.5]], atol=1e-12)
        assert not batch.degenerate[0]
        # Cross-checked against a direct inversion oracle of the augmented Gram.
        aug = np.array([[2.0, 1.0], [1.0, 3.0]])
        k_ref = np.array([[2.0, 1.0], [1.0, 3.0], [1.0, 2.0]])
        oracle = k_ref @ np.linalg.solve(aug, np.array([[1.0], [1.0]]))
        after = batch.ref_lin + np.outer(batch.gains[:, 0], batch.shift_base[0] - 1.0)
        np.testing.assert_allclose(after, oracle, atol=1e-12)

    def test_duplicate_labeled_point_degenerate(self):
        params, x, y, state = _problem(seed=9)
        batch = lookahead.lookahead_batch(state, x[:1])
        assert batch.degenerate[0]

    def test_orthogonal_candidate(self):
        # Zero cross kernel leaves u equal to the self kernel and v zero:
        # the candidate moves only itself, by its whole residual.
        table = {(0, 0): 2.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 3.0}

        def kernel_fn(params, rows_a, rows_b):
            return np.array(
                [
                    [table[(int(ra[0]), int(rb[0]))] for rb in np.atleast_2d(rows_b)]
                    for ra in np.atleast_2d(rows_a)
                ]
            )

        cfg = net.MlpConfig((1, 1), nonlinearity="identity", beta=0.0)
        params = net.params_from_flat(cfg, np.zeros(cfg.param_count))
        state = kernel.build_state_xy(
            params, np.array([[0.0]]), np.array([[1.0]]), kernel_fn=kernel_fn
        )
        batch = lookahead.lookahead_batch(
            state, np.array([[1.0]]), np.array([[0.0], [1.0]])
        )
        np.testing.assert_allclose(batch.gains[:, 0], [0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(batch.shift_base, [[0.0]], atol=1e-12)

    def test_schur_identity(self):
        # Gains equal (k(q,X) K^{-1} k(X,c) - k(q,c)) / (k(c,c) - k(c,X) K^{-1} k(X,c)).
        params, x, y, state = _problem(seed=10)
        assert state.factor.jitter_applied == 0.0
        rng = np.random.default_rng(11)
        xc = rng.standard_normal((1, 3))
        q = rng.standard_normal((5, 3))
        batch = lookahead.lookahead_batch(state, xc, q)
        gram = kernel.empirical_ntk(params, x)
        col = kernel.empirical_ntk(params, x, xc)[:, 0]
        v = np.linalg.solve(gram, col)
        u = kernel.empirical_ntk(params, xc)[0, 0] - col @ v
        direct = (kernel.empirical_ntk(params, q, x) @ v
                  - kernel.empirical_ntk(params, q, xc)[:, 0]) / u
        np.testing.assert_allclose(batch.gains[:, 0], direct, rtol=1e-8)


class TestLookaheadPredict:
    def test_zero_residuals_no_change(self):
        params, x, _, _ = _problem(seed=12)
        y = np.atleast_2d(net.forward(params, x))
        state = kernel.build_state_xy(params, x, y)
        xc = np.random.default_rng(13).standard_normal(3)
        yc = np.atleast_2d(net.forward(params, xc[None, :]))[0]  # zero residual too
        q = np.random.default_rng(14).standard_normal((5, 3))
        pred = _lookahead_after(state, xc, yc, q)
        assert np.array_equal(pred, lookahead.predict_lin(state, q))

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
        batch = lookahead.lookahead_batch(state, x[:1], x)
        assert batch.degenerate[0]
        assert not np.any(batch.gains)
        with pytest.raises(DegenerateCandidateError):
            lookahead.augment_state(state, x[0], y[0])


class TestLookaheadBatch:
    def test_columns_match_single_candidate_runs(self):
        params, x, y, state = _problem(l_size=20, c=3, seed=36)
        rng = np.random.default_rng(37)
        cands = np.vstack([rng.standard_normal((4, 3)), x[:1]])
        ref = rng.standard_normal((6, 3))
        batch = lookahead.lookahead_batch(state, cands, ref)
        for i in range(len(cands)):
            one = lookahead.lookahead_batch(state, cands[i : i + 1], ref)
            np.testing.assert_allclose(
                one.gains[:, 0], batch.gains[:, i], rtol=1e-12, atol=1e-14
            )
            np.testing.assert_allclose(
                one.shift_base[0], batch.shift_base[i], rtol=1e-12, atol=1e-12
            )
            assert one.degenerate[0] == batch.degenerate[i]

    def test_reference_defaults_to_candidates(self):
        params, x, y, state = _problem(seed=38)
        cands = np.random.default_rng(39).standard_normal((4, 3))
        own = lookahead.lookahead_batch(state, cands)
        explicit = lookahead.lookahead_batch(state, cands, cands.copy())
        np.testing.assert_allclose(own.gains, explicit.gains, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(own.ref_lin, explicit.ref_lin, rtol=1e-12)

    @pytest.mark.parametrize("where", ["candidates", "reference"])
    def test_non_finite_rows_rejected(self, where):
        _, _, _, state = _problem(seed=40)
        good = np.random.default_rng(41).standard_normal((3, 3))
        bad = good.copy()
        bad[1, 2] = np.nan
        with pytest.raises(ContractError):
            if where == "candidates":
                lookahead.lookahead_batch(state, bad, good)
            else:
                lookahead.lookahead_batch(state, good, bad)

    def test_empty_sets_rejected(self):
        _, _, _, state = _problem()
        with pytest.raises(ContractError):
            lookahead.lookahead_batch(state, np.zeros((0, 3)))
        with pytest.raises(ContractError):
            lookahead.lookahead_batch(state, np.ones((1, 3)), np.zeros((0, 3)))


class TestCondition:
    def test_separate_reference_rejected(self):
        _, _, _, state = _problem(seed=42)
        rng = np.random.default_rng(43)
        batch = lookahead.lookahead_batch(
            state, rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        )
        with pytest.raises(ContractError):
            lookahead.condition(batch, 0, np.array([1.0, 0.0]))

    def test_index_out_of_range_rejected(self):
        _, _, _, state = _problem(seed=44)
        batch = lookahead.lookahead_batch(state, np.random.default_rng(45).standard_normal((3, 3)))
        with pytest.raises(ContractError):
            lookahead.condition(batch, 3, np.array([1.0, 0.0]))

    def test_degenerate_pick_only_drops_its_row_and_column(self):
        params, x, y, state = _problem(seed=46)
        rng = np.random.default_rng(47)
        cands = np.vstack([rng.standard_normal((2, 3)), x[:1], rng.standard_normal((2, 3))])
        batch = lookahead.lookahead_batch(state, cands)
        assert batch.degenerate.tolist() == [False, False, True, False, False]
        keep = [0, 1, 3, 4]
        after = lookahead.condition(batch, 2, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(after.gains, batch.gains[np.ix_(keep, keep)])
        for name in ("outputs", "degenerate", "shift_base", "schur", "self_k"):
            np.testing.assert_array_equal(getattr(after, name), getattr(batch, name)[keep])
        np.testing.assert_array_equal(after.ref_lin, after.shift_base)
        np.testing.assert_array_equal(after.ref_raw, after.outputs)

    def test_conditions_down_to_the_last_candidate(self):
        params, x, y, state = _problem(seed=48)
        rng = np.random.default_rng(49)
        cands = rng.standard_normal((4, 3))
        labels = np.eye(2)[rng.integers(0, 2, 4)]
        batch = lookahead.lookahead_batch(state, cands)
        while len(cands) > 1:
            state = lookahead.augment_state(state, cands[0], labels[0])
            batch = lookahead.condition(batch, 0, labels[0])
            cands, labels = cands[1:], labels[1:]
            fresh = lookahead.lookahead_batch(state, cands)
            np.testing.assert_allclose(batch.gains, fresh.gains, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(batch.shift_base, fresh.shift_base, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(batch.schur, fresh.schur, rtol=1e-9, atol=1e-12)
        assert batch.gains.shape == (1, 1)
        with pytest.raises(ContractError):
            lookahead.condition(batch, 0, labels[0])


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

    def test_rejects_duplicate(self):
        params, x, y, state = _problem(seed=29)
        with pytest.raises(DegenerateCandidateError):
            lookahead.augment_state(state, x[0], y[0])

    def test_extends_cache_and_agrees(self):
        params, x, y, state = _problem(seed=30)
        assert state.factor_cache is not None
        xc = np.random.default_rng(31).standard_normal(3)
        new = lookahead.augment_state(state, xc, np.array([1.0, 0.0]))
        assert new.factor_cache is not None
        q = np.random.default_rng(32).standard_normal((3, 3))
        direct = kernel.empirical_ntk(params, q, new.inputs)
        np.testing.assert_allclose(new.kernel_rows(q), direct, rtol=1e-12)

    def test_lookahead_matches_actual_augment(self):
        params, x, y, state = _problem(seed=33)
        xc = np.random.default_rng(34).standard_normal(3)
        yc = np.array([0.0, 1.0])
        q = np.random.default_rng(35).standard_normal((4, 3))
        hypothetical = _lookahead_after(state, xc, yc, q)
        committed = lookahead.predict_lin(lookahead.augment_state(state, xc, yc), q)
        np.testing.assert_allclose(hypothetical, committed, rtol=1e-9, atol=1e-11)
