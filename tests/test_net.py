import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from ntkal import acquire, data, kernel, net
from ntkal.errors import ContractError, DivergenceError, ShapeError

import oracles


def _finite_difference_grad(params, x, step=1e-5):
    flat = oracles.flat(params)
    grad = np.zeros_like(flat)
    for i in range(len(flat)):
        up, dn = flat.copy(), flat.copy()
        up[i] += step
        dn[i] -= step
        f_up = net.forward(oracles.params_from_flat(params.config, up), x)[0]
        f_dn = net.forward(oracles.params_from_flat(params.config, dn), x)[0]
        grad[i] = (f_up - f_dn) / (2.0 * step)
    return grad


class TestInit:
    def test_deterministic(self):
        cfg = net.MlpConfig((4, 8, 3), seed=42)
        a, b = net.init(cfg), net.init(cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_param_count_formula(self):
        cfg = net.MlpConfig((2, 3, 2))
        assert cfg.param_count == (2 + 1) * 3 + (3 + 1) * 2 == 17
        assert oracles.flat(net.init(cfg)).shape == (17,)

    def test_param_count_many_shapes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            widths = tuple(int(w) for w in rng.integers(1, 20, size=rng.integers(2, 5)))
            cfg = net.MlpConfig(widths)
            expected = sum(
                (widths[l] + 1) * widths[l + 1] for l in range(len(widths) - 1)
            )
            assert cfg.param_count == expected
            assert oracles.flat(net.init(cfg)).shape == (expected,)

    def test_sampler_moments(self):
        # Law of large numbers on the standard-normal entries.
        cfg = net.MlpConfig((320, 300, 30), seed=5)
        flat = oracles.flat(net.init(cfg))
        assert flat.size >= 100_000
        assert abs(flat.mean()) < 0.02
        assert abs(flat.var() - 1.0) < 0.05

    def test_config_validation(self):
        with pytest.raises(ContractError):
            net.MlpConfig((3,))
        with pytest.raises(ContractError):
            net.MlpConfig((3, 0, 2))
        for widths in ((2, 2.7, 2), (2, True, 2), (2.0, 2)):  # once truncated by int()
            with pytest.raises(ContractError, match="widths must be an integer"):
                net.MlpConfig(widths)
        with pytest.raises(ContractError):
            net.MlpConfig((3, 2), beta=-1.0)
        with pytest.raises(ContractError):
            net.MlpConfig((3, 2), nonlinearity="tanh")

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ContractError, match="beta"):
            net.MlpConfig((3, 2), beta=beta)

    def test_bool_float_settings_rejected(self):
        # A bool is no float setting, as it is no count (``net._integer``).
        with pytest.raises(ContractError, match="beta must be finite and >= 0, got True"):
            net.MlpConfig((3, 2), beta=True)
        with pytest.raises(ContractError, match="learning_rate must be finite and > 0, got True"):
            net.TrainConfig(learning_rate=True, epochs=1)

    def test_negative_seeds_rejected(self):
        with pytest.raises(ContractError, match="seed"):
            net.MlpConfig((3, 2), seed=-1)
        with pytest.raises(ContractError, match="shuffle_seed"):
            net.TrainConfig(learning_rate=0.1, epochs=1, shuffle_seed=-1)


class TestForward:
    def test_zero_params_zero_output(self):
        cfg = net.MlpConfig((3, 5, 2))
        params = oracles.params_from_flat(cfg, np.zeros(cfg.param_count))
        x = np.random.default_rng(0).standard_normal((4, 3))
        assert np.array_equal(net.forward(params, x), np.zeros((4, 2)))

    def test_single_linear_layer(self):
        # Identity activation, beta 0: f(x) = x @ W / sqrt(n0).
        cfg = net.MlpConfig((2, 1), nonlinearity="identity", beta=0.0)
        params = net.MlpParams(
            cfg, (np.array([[1.0], [2.0]]),), (np.zeros(1),)
        )
        out = net.forward(params, np.array([3.0, 4.0]))
        assert np.allclose(out, 11.0 / np.sqrt(2.0))
        assert abs(out[0] - 7.7782) < 1e-4

    def test_batch_matches_rows(self):
        # BLAS blocking differs between batched and single-row products,
        # so equality is at numerical precision rather than bitwise.
        cfg = net.MlpConfig((6, 32, 4), seed=1)
        params = net.init(cfg)
        x = np.random.default_rng(2).standard_normal((20, 6))
        batched = net.forward(params, x)
        for i in range(20):
            single = net.forward(params, x[i])
            np.testing.assert_allclose(batched[i], single, rtol=1e-12, atol=1e-14)

    def test_deterministic(self):
        cfg = net.MlpConfig((6, 16, 4), seed=1)
        params = net.init(cfg)
        x = np.random.default_rng(3).standard_normal((5, 6))
        assert np.array_equal(net.forward(params, x), net.forward(params, x))

    def test_shape_error(self):
        params = net.init(net.MlpConfig((3, 2)))
        with pytest.raises(ShapeError):
            net.forward(params, np.zeros((4, 5)))


# Every entry that takes input rows, called on rows x of a 3-2 network:
# each checks them by ``net._check_input``.
_ROW_ENTRIES = {
    "forward": lambda params, labeled, x: net.forward(params, x),
    "grad_factors": lambda params, labeled, x: net.grad_factors(params, x),
    "Evaluator": lambda params, labeled, x: net.Evaluator(params, x),
    "FeatureBatch": lambda params, labeled, x: kernel.FeatureBatch(params, x),
    "build_state_xy": lambda params, labeled, x: kernel.build_state_xy(
        params, x, np.eye(2)[np.arange(len(x)) % 2]
    ),
    "one_step_change_scores": lambda params, labeled, x: acquire.one_step_change_scores(
        params, labeled, x, 0.05
    ),
    "naive_change_scores": lambda params, labeled, x: acquire.naive_change_scores(
        params, labeled, x, net.TrainConfig(0.05, epochs=1)
    ),
}


class TestInputRowRule:
    @staticmethod
    def _setup():
        rng = np.random.default_rng(5)
        params = net.init(net.MlpConfig((3, 8, 2), seed=5))
        labeled = data.make_dataset(rng.standard_normal((4, 3)), [0, 1, 0, 1], 2)
        return params, labeled, rng.standard_normal((3, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", list(_ROW_ENTRIES))
    def test_non_finite_row_is_a_contract_error(self, entry, bad):
        # net.forward and net.grad_factors used to return NaN.
        params, labeled, x = self._setup()
        x[1, 2] = bad
        with pytest.raises(ContractError, match="non-finite"):
            _ROW_ENTRIES[entry](params, labeled, x)

    @pytest.mark.parametrize("width", [2, 4])
    @pytest.mark.parametrize("entry", list(_ROW_ENTRIES))
    def test_wrong_width_is_a_shape_error(self, entry, width):
        params, labeled, _ = self._setup()
        with pytest.raises(ShapeError, match=r"expects \(batch, 3\)"):
            _ROW_ENTRIES[entry](params, labeled, np.ones((3, width)))


def _spy_forward(monkeypatch):
    """Replace net.forward with a wrapper; returns the list of row blocks it saw."""
    seen = []
    original = net.forward
    monkeypatch.setattr(net, "forward", lambda params, x: seen.append(x) or original(params, x))
    return seen


class TestEvaluator:
    """``Evaluator.labels`` against the float64 ``argmax(forward)``."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize(
        "widths", [(8, 2), (784, 10), (2, 8, 2), (784, 256, 10), (3, 8, 8, 2), (20, 64, 32, 16, 5)]
    )
    @pytest.mark.parametrize("nonlinearity", net.NONLINEARITIES)
    def test_labels_match_float64_and_bound_keeps_5x_margin(self, nonlinearity, widths, scale):
        # 0 to 3 hidden layers. The bound's rounding model is meant to leave
        # a 10x margin over the realized float32 error; this holds it to 5x.
        params = net.init(net.MlpConfig(widths, nonlinearity=nonlinearity, seed=3))
        x = scale * np.random.default_rng(4).standard_normal((300, widths[0]))
        evaluator = net.Evaluator(params, x)
        reference = net.forward(params, x)
        assert np.array_equal(evaluator.labels(params), np.argmax(reference, axis=1))
        outputs, bounds = evaluator._float32_pass(params)
        assert np.all(np.abs(outputs - reference) <= bounds / 5)

    def test_labels_follow_the_parameters(self):
        # One evaluator serves every parameter set of its network.
        cfg = net.MlpConfig((5, 16, 4), seed=0)
        x = np.random.default_rng(1).standard_normal((100, 5))
        evaluator = net.Evaluator(net.init(cfg), x)
        for seed in range(4):
            params = net.init(dataclasses.replace(cfg, seed=seed))
            assert np.array_equal(evaluator.labels(params), np.argmax(net.forward(params, x), 1))

    @staticmethod
    def _tied(rows):
        """An identity 4-3 network whose outputs 0 and 1 differ by about 1e-9
        relative, far inside float32's resolution, and rows whose first
        ``rows`` tie those two outputs while the rest are won by output 2."""
        rng = np.random.default_rng(7)
        w = rng.standard_normal(4)
        w[3] = 0.0
        nudge = np.zeros(4)
        nudge[:3] = 1e-9 * rng.standard_normal(3)
        weights = np.stack([w, w + nudge, 50.0 * np.eye(4)[3]], axis=1)
        cfg = net.MlpConfig((4, 3), nonlinearity="identity", beta=0.0)
        params = net.MlpParams(cfg, (weights,), (np.zeros(3),))
        x = rng.standard_normal((2 * rows, 4))
        x[:rows, 3] = 0.0
        x[:rows] *= np.sign(x[:rows] @ w)[:, None]  # outputs 0 and 1 beat output 2's zero
        x[rows:, 3] = 10.0
        return params, x

    def test_tied_rows_are_rechecked(self, monkeypatch):
        params, x = self._tied(200)
        evaluator = net.Evaluator(params, x)
        reference = np.argmax(net.forward(params, x), axis=1)
        outputs, _ = evaluator._float32_pass(params)
        # float32 cannot tell outputs 0 and 1 apart, float64 can: without the
        # recheck about half the tied rows would get the wrong label.
        assert np.sum(np.argmax(outputs, axis=1) != reference) > 50
        seen = _spy_forward(monkeypatch)
        assert np.array_equal(evaluator.labels(params), reference)
        assert len(seen) == 1 and np.array_equal(seen[0], x[:200])

    @pytest.mark.parametrize(
        "big", [1e39, 3e38], ids=["input-overflows", "product-overflows"]
    )
    def test_float32_overflow_is_rechecked(self, monkeypatch, big):
        # 1e39 is inf in float32; 3e38 is finite, but a row of it sums past
        # float32's largest value. float64 holds both.
        cfg = net.MlpConfig((2, 3), nonlinearity="identity", beta=0.0)
        params = net.MlpParams(cfg, (np.array([[1.0, 1.0, -1.0], [1.0, 0.5, -1.0]]),), (np.zeros(3),))
        x = np.array([[1.0, 2.0], [big, big], [-2.0, 1.0], [-big, -big]])
        evaluator = net.Evaluator(params, x)
        reference = net.forward(params, x)
        assert np.all(np.isfinite(reference))
        seen = _spy_forward(monkeypatch)
        assert np.array_equal(evaluator.labels(params), np.argmax(reference, axis=1))
        assert len(seen) == 1 and np.array_equal(seen[0], x[[1, 3]])

    def test_non_finite_parameters_recheck_every_row(self, monkeypatch):
        params = net.init(net.MlpConfig((3, 8, 2), seed=0))
        params.weights[1][2, 1] = np.nan
        x = np.random.default_rng(0).standard_normal((6, 3))
        reference = np.argmax(net.forward(params, x), axis=1)
        seen = _spy_forward(monkeypatch)
        assert np.array_equal(net.Evaluator(params, x).labels(params), reference)
        assert len(seen) == 1 and np.array_equal(seen[0], x)

    def test_other_input_width_is_a_shape_error(self):
        evaluator = net.Evaluator(net.init(net.MlpConfig((3, 2))), np.ones((4, 3)))
        with pytest.raises(ShapeError, match="width 3"):
            evaluator.labels(net.init(net.MlpConfig((5, 2))))


class TestGradFirstLogit:
    def test_last_layer_bias(self):
        # d f1 / d b_last[0] = beta exactly, independent of the input.
        for beta in (0.0, 1.0):
            cfg = net.MlpConfig((2, 3, 2), beta=beta, seed=0)
            params = net.init(cfg)
            g = oracles.grad_first_logit(params, np.zeros(2))
            # Flat layout: W0 (2*3), b0 (3), W1 (3*2), b1 (2).
            b1_first = 6 + 3 + 6
            assert g[b1_first] == beta

    def test_identity_single_layer_closed_form(self):
        cfg = net.MlpConfig((4, 3), nonlinearity="identity", beta=1.0, seed=2)
        params = net.init(cfg)
        x = np.array([0.5, -1.0, 2.0, 0.25])
        g = oracles.grad_first_logit(params, x)
        w_grad = g[: 4 * 3].reshape(4, 3)
        # Only column 1 of W gets gradient x / sqrt(n0).
        assert np.allclose(w_grad[:, 0], x / 2.0)
        assert np.array_equal(w_grad[:, 1:], np.zeros((4, 2)))

    @pytest.mark.parametrize("nonlinearity", ["relu", "erf", "identity"])
    def test_matches_finite_differences(self, nonlinearity):
        rng = np.random.default_rng(10)
        for trial in range(4):
            widths = (3, int(rng.integers(4, 12)), int(rng.integers(2, 5)))
            cfg = net.MlpConfig(
                widths, nonlinearity=nonlinearity, beta=0.5, seed=trial
            )
            params = net.init(cfg)
            x = rng.standard_normal(3)
            g = oracles.grad_first_logit(params, x)
            fd = _finite_difference_grad(params, x)
            err = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            assert err < 1e-4

    def test_factors_agree_with_flat(self):
        cfg = net.MlpConfig((3, 7, 4), seed=8, beta=0.3)
        params = net.init(cfg)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3))
        factors = net.grad_factors(params, x)
        for i in range(5):
            parts = []
            for l, (a, d) in enumerate(factors):
                parts.append(np.outer(a[i], d[i]).ravel() / np.sqrt(cfg.widths[l]))
                parts.append(cfg.beta * d[i])
            np.testing.assert_allclose(
                np.concatenate(parts),
                oracles.grad_first_logit(params, x[i]),
                rtol=1e-12,
            )


class TestTrainSgd:
    def _one_point(self):
        return data.make_dataset(np.array([[0.5, -0.3]]), np.array([1]), 2)

    def test_interpolates_single_point(self):
        cfg = net.MlpConfig((2, 64, 2), seed=0)
        params = net.init(cfg)
        ds = self._one_point()
        trained = net.train_sgd(
            params, ds, net.TrainConfig(learning_rate=0.05, epochs=200, minibatch_size=1)
        )
        assert oracles.squared_loss(trained, ds.inputs, ds.one_hot) < 1e-3

    def test_loss_trend_is_monotone_overall(self):
        # Oracle for the interpolation example: the loss trace trends down.
        cfg = net.MlpConfig((2, 64, 2), seed=0)
        params = net.init(cfg)
        ds = self._one_point()
        losses = [oracles.squared_loss(params, ds.inputs, ds.one_hot)]
        work = params
        for _ in range(5):
            work = net.train_sgd(
                work, ds, net.TrainConfig(learning_rate=0.05, epochs=10, minibatch_size=1)
            )
            losses.append(oracles.squared_loss(work, ds.inputs, ds.one_hot))
        assert losses[-1] < losses[0]
        assert all(b <= a * 1.001 for a, b in zip(losses, losses[1:]))

    def test_divergence_detected(self):
        cfg = net.MlpConfig((2, 32, 2), seed=0)
        params = net.init(cfg)
        ds = data.make_dataset(
            np.random.default_rng(0).standard_normal((16, 2)),
            np.zeros(16, dtype=int),
            2,
        )
        with pytest.raises(DivergenceError) as exc_info:
            net.train_sgd(
                params, ds, net.TrainConfig(learning_rate=50.0, epochs=50, minibatch_size=16)
            )
        assert exc_info.value.epoch >= 1

    def test_zero_epochs_return_unstepped_copy(self):
        params = net.init(net.MlpConfig((2, 4, 2)))
        zero = net.TrainConfig(learning_rate=0.1, epochs=0)
        out = net.train_sgd(params, self._one_point(), zero)
        assert np.array_equal(oracles.flat(out), oracles.flat(params))
        assert not any(np.shares_memory(w, o) for w, o in zip(params.weights, out.weights))
        # The input-row rule holds although no step is taken.
        with pytest.raises(ShapeError, match=r"expects \(batch, 2\)"):
            net.train_sgd(params, data.make_dataset(np.ones((1, 3)), [1], 2), zero)
        with pytest.raises(ContractError, match="non-finite"):
            net.train_sgd(params, data.make_dataset([[np.nan, 0.0]], [1], 2), zero)

    def test_overflowing_loss_raises_before_the_step(self):
        # Finite outputs near 1e300: the loss overflows, and so would the
        # backward pass's matmul, which must not run.
        params = net.init(net.MlpConfig((2, 8, 2), seed=4))
        blown = net.MlpParams(
            params.config, (params.weights[0], params.weights[1] * 1e300), params.biases
        )
        ds = data.gen_two_gaussians(6, 2.0, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="loss inf") as exc_info:
                net.train_sgd(blown, ds, net.TrainConfig(learning_rate=0.05, epochs=3))
        assert exc_info.value.epoch == 1

    def test_warm_start_reproducible_bits(self):
        cfg = net.MlpConfig((2, 16, 2), seed=3)
        params = net.init(cfg)
        ds = data.gen_two_gaussians(20, 2.0, 7)
        tc = net.TrainConfig(learning_rate=0.02, epochs=5, minibatch_size=8, shuffle_seed=5)
        a = net.train_sgd(params, ds, tc)
        b = net.train_sgd(params, ds, tc)
        assert np.array_equal(oracles.flat(a), oracles.flat(b))

    @pytest.mark.parametrize(
        "field, value", [("epochs", 5.5), ("minibatch_size", 8.5), ("shuffle_seed", True)]
    )
    def test_non_integer_counts_rejected(self, field, value):
        settings = dict(learning_rate=0.1, epochs=1)
        with pytest.raises(ContractError, match=f"{field} must be an integer"):
            net.TrainConfig(**{**settings, field: value})

    def test_negative_epochs_rejected_at_construction(self):
        # 0 stays legal: it is the naive oracle's budget, and train_sgd takes no step.
        assert net.TrainConfig(learning_rate=0.1, epochs=0).epochs == 0
        with pytest.raises(ContractError, match="epochs must be >= 0"):
            net.TrainConfig(learning_rate=0.1, epochs=-3)

    def test_non_finite_settings_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ContractError, match="learning_rate"):
                net.TrainConfig(learning_rate=bad, epochs=1)

    @pytest.mark.parametrize(
        "n_points, growth, expected_epoch", [(1, 8.0, 5), (4, 11.2, 2)]
    )
    def test_finite_loss_past_the_bar_names_its_epoch(self, n_points, growth, expected_epoch):
        # One linear layer, identical points, minibatch 1: every step scales
        # the residual by -growth, because the tangent kernel of x = (1, 1)
        # is |x|^2 / 2 + beta^2 = 2 and lr = (1 + growth) / 2. Step t thus
        # sees loss L0 * growth^(2t), and the reference is n * L0.
        # (1, 8): epoch e sees 64^(e-1) * L0, first past 1e6 * L0 at e = 5.
        # (4, 11.2): epoch 1 sums to 1.99e6 * L0, under the bar 4e6 * L0
        # that the n / (minibatch rows) scaling sets; epoch 2 is far past it.
        params = net.init(net.MlpConfig((2, 3), nonlinearity="identity", seed=1))
        ds = data.make_dataset(np.ones((n_points, 2)), np.zeros(n_points, dtype=int), 3)
        tc = net.TrainConfig(
            learning_rate=(1.0 + growth) / 2.0, epochs=expected_epoch, minibatch_size=1
        )
        net.train_sgd(params, ds, dataclasses.replace(tc, epochs=expected_epoch - 1))
        with pytest.raises(DivergenceError, match="loss [0-9]") as exc_info:
            net.train_sgd(params, ds, tc)
        assert exc_info.value.epoch == expected_epoch


def _random_dataset(n, dim, classes, seed):
    rng = np.random.default_rng(seed)
    return data.make_dataset(rng.standard_normal((n, dim)), rng.integers(0, classes, n), classes)


def _assert_matches_reference(params, ds, tc):
    assert np.array_equal(
        oracles.flat(net.train_sgd(params, ds, tc)),
        oracles.flat(oracles.train_sgd_reference(params, ds, tc)),
    )


class TestTrainSgdWorkingCopies:
    """The in-place weight step writes the working copies, and only them."""

    def _problem(self):
        params = net.init(net.MlpConfig((12, 24, 16, 3), seed=2))
        ds = _random_dataset(23, 12, 3, seed=4)
        return params, ds, net.TrainConfig(learning_rate=0.02, epochs=3, minibatch_size=5)

    def test_caller_parameters_unchanged(self):
        params, ds, tc = self._problem()
        before = oracles.flat(params).copy()
        trained = net.train_sgd(params, ds, tc)
        assert np.array_equal(oracles.flat(params), before)
        assert not np.array_equal(oracles.flat(trained), before)
        for w, t in zip(params.weights, trained.weights):
            assert not np.shares_memory(w, t)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_start_weight_layout_gives_same_bits(self, layout):
        params, ds, tc = self._problem()
        if layout == "fortran":
            weights = tuple(np.asfortranarray(w) for w in params.weights)
        else:  # every other column of a wider array: a non-contiguous view
            weights = tuple(np.repeat(w, 2, axis=1)[:, ::2] for w in params.weights)
        assert not any(w.flags.c_contiguous for w in weights)
        start = net.MlpParams(params.config, weights, params.biases)
        assert np.array_equal(
            oracles.flat(net.train_sgd(start, ds, tc)),
            oracles.flat(net.train_sgd(params, ds, tc)),
        )

    def test_no_weight_sized_temporary_per_step(self):
        # 64 rows, minibatch 32: 20 steps at the benchmark's 784-256-10 shape.
        params = net.init(net.MlpConfig((784, 256, 10), seed=0))
        ds = _random_dataset(64, 784, 10, seed=8)
        tc = net.TrainConfig(learning_rate=0.05, epochs=10, minibatch_size=32)
        budget = 8 * (params.config.param_count + 784 * 256)
        tracemalloc.start()
        try:
            net.train_sgd(params, ds, tc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, f"peak {peak} B >= working copies + one W0 ({budget} B)"


class TestTrainSgdMatchesReferenceLoop:
    """``net.train_sgd`` returns the bits of separate forward/backward/update passes."""

    @pytest.mark.parametrize("minibatch_size", [1, 5, 23, 24], ids=["1", "ragged", "n", "n+1"])
    @pytest.mark.parametrize("nonlinearity", net.NONLINEARITIES)
    def test_bitwise_equal(self, nonlinearity, minibatch_size):
        params = net.init(net.MlpConfig((12, 24, 16, 3), nonlinearity=nonlinearity, seed=2))
        ds = _random_dataset(23, 12, 3, seed=4)
        tc = net.TrainConfig(
            learning_rate=0.02, epochs=3, minibatch_size=minibatch_size, shuffle_seed=9
        )
        _assert_matches_reference(params, ds, tc)

    def test_bitwise_equal_from_shifted_start(self):
        cfg = net.MlpConfig((12, 24, 3), nonlinearity="erf", seed=5)
        start = oracles.params_from_flat(cfg, oracles.flat(net.init(cfg)) + 0.5)
        ds = _random_dataset(17, 12, 3, seed=6)
        tc = net.TrainConfig(learning_rate=0.05, epochs=2, minibatch_size=4)
        _assert_matches_reference(start, ds, tc)

    def test_bitwise_equal_at_benchmark_shape(self):
        # The 784-256-10 MLP the benchmark trains, with a ragged last minibatch.
        params = net.init(net.MlpConfig((784, 256, 10), seed=0))
        ds = _random_dataset(75, 784, 10, seed=8)
        tc = net.TrainConfig(learning_rate=0.05, epochs=2, minibatch_size=32)
        _assert_matches_reference(params, ds, tc)
