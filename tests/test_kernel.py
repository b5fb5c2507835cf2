import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from ntkal import data, kernel, linalg, net
from ntkal.errors import ContractError, ShapeError, UnsupportedActivationError


def _random_params(widths, seed, nonlinearity="relu", beta=1.0):
    return net.init(net.MlpConfig(widths, nonlinearity=nonlinearity, beta=beta, seed=seed))


class TestEmpiricalNtk:
    def test_symmetric_with_nonnegative_diagonal(self):
        params = _random_params((3, 10, 2), 0)
        a = np.random.default_rng(1).standard_normal((6, 3))
        k = kernel.empirical_ntk(params, a)
        assert np.allclose(k, k.T, atol=1e-12)
        assert np.all(np.diag(k) >= 0.0)

    def test_one_parameter_linear_model(self):
        # f(x) = w x with no bias term: the kernel is exactly x * y.
        cfg = net.MlpConfig((1, 1), nonlinearity="identity", beta=0.0)
        params = net.init(cfg)
        a = np.array([[2.0], [-1.0], [0.5]])
        b = np.array([[3.0], [4.0]])
        k = kernel.empirical_ntk(params, a, b)
        assert np.allclose(k, a @ b.T, atol=1e-14)

    def test_cached_equals_recomputed_bits(self):
        params = _random_params((4, 12, 3), 2)
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((5, 4)), rng.standard_normal((7, 4))
        k1 = kernel.empirical_ntk(params, a, b)
        k2 = kernel.empirical_ntk(params, a, b)
        assert np.array_equal(k1, k2)

    def test_feature_route_exact_dot(self):
        # The features route is literally a dot of recomputed flat gradients.
        params = _random_params((3, 6, 2), 4, beta=0.5)
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((4, 3))
        k = kernel.empirical_ntk(params, a, b, method="features")
        for i in range(3):
            for j in range(4):
                ga = net.grad_first_logit(params, a[i])
                gb = net.grad_first_logit(params, b[j])
                assert k[i, j] == float(np.dot(ga, gb))

    def test_factor_route_matches_feature_route(self):
        params = _random_params((3, 9, 4), 6, nonlinearity="erf", beta=0.7)
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        k_fast = kernel.empirical_ntk(params, a, b)
        k_exact = kernel.empirical_ntk(params, a, b, method="features")
        np.testing.assert_allclose(k_fast, k_exact, rtol=1e-10, atol=1e-12)

    def test_shape_error(self):
        params = _random_params((3, 4, 2), 0)
        with pytest.raises(ShapeError):
            kernel.empirical_ntk(params, np.zeros((2, 5)))


    @pytest.mark.parametrize("symmetric", [False, True])
    def test_chunked_contraction_matches_whole_block_products(self, symmetric):
        # More rows than one chunk, with a partial last chunk. Reference:
        # each layer's products over the whole block, summed.
        params = net.init(net.MlpConfig((6, 32, 24, 3), seed=9))
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2 * kernel._CONTRACT_CHUNK_ROWS + 37, 6))
        b = a if symmetric else rng.standard_normal((50, 6))
        cfg = params.config
        fa, fb = net.grad_factors(params, a), net.grad_factors(params, b)
        want = sum(
            (aa @ ab.T / cfg.widths[l] + cfg.beta**2) * (da @ db.T)
            for l, ((aa, da), (ab, db)) in enumerate(zip(fa, fb))
        )
        got = kernel.empirical_ntk(params, a, b)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        if symmetric:
            np.testing.assert_array_equal(got, got.T)


class TestBuildState:
    def test_single_point_gram(self):
        params = _random_params((2, 5, 2), 1)
        x = np.array([[0.4, -0.2]])
        state = kernel.build_state_xy(params, x, np.array([[1.0, 0.0]]))
        g = net.grad_first_logit(params, x[0])
        assert np.allclose(state.gram, [[g @ g]], rtol=1e-12)

    def test_solve_invariant(self):
        # Theta @ solved_residual reproduces the residual.
        params = _random_params((3, 16, 3), 2)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((20, 3))
        y = data.one_hot_encode(rng.integers(0, 3, 20), 3)
        state = kernel.build_state_xy(params, x, y)
        lhs = state.gram @ state.solved_residual
        if state.factor.jitter_applied:
            lhs = lhs + state.factor.jitter_applied * state.solved_residual
        err = np.linalg.norm(lhs - state.residual) / np.linalg.norm(state.residual)
        assert err < 1e-8

    def test_duplicate_row_engages_jitter(self):
        params = _random_params((2, 8, 2), 3)
        x = np.array([[0.1, 0.2], [0.1, 0.2], [1.0, -1.0]])
        y = data.one_hot_encode([0, 0, 1], 2)
        state = kernel.build_state_xy(params, x, y)
        assert state.factor.jitter_applied > 0.0

    def test_dataset_must_be_one_hot(self):
        params = _random_params((2, 4, 2), 0)
        ds = data.gen_two_gaussians(5, 1.0, 0)
        soft = data.Dataset(
            inputs=ds.inputs,
            labels=ds.labels,
            one_hot=np.full((10, 2), 0.5),
            class_count=2,
        )
        with pytest.raises(ContractError):
            kernel.build_state(params, soft)

    def test_empty_rejected(self):
        params = _random_params((2, 4, 2), 0)
        with pytest.raises(ContractError):
            kernel.build_state_xy(params, np.zeros((0, 2)), np.zeros((0, 2)))

    def test_gram_psd_after_jitter_many_configs(self):
        # The jitter ladder always produces a factorizable Gram matrix for
        # distinct inputs, across many random architectures.
        rng = np.random.default_rng(123)
        for trial in range(200):
            widths = (2, int(rng.integers(2, 12)), int(rng.integers(2, 4)))
            params = _random_params(widths, trial, beta=float(rng.uniform(0, 1.5)))
            n = int(rng.integers(2, 12))
            x = rng.standard_normal((n, 2))
            y = data.one_hot_encode(rng.integers(0, widths[-1], n), widths[-1])
            kernel.build_state_xy(params, x, y)  # must not raise

    def test_kronecker_consistency(self):
        # Solving each logit column against the scalar kernel matches the
        # action of (Theta kron I_C) on the stacked residual. Width keeps
        # the Gram well conditioned so the two solvers agree tightly.
        for c in (2, 4):
            params = _random_params((3, 64, c), c)
            rng = np.random.default_rng(c)
            x = rng.standard_normal((8, 3))
            y = data.one_hot_encode(rng.integers(0, c, 8), c)
            state = kernel.build_state_xy(params, x, y)
            big = np.kron(
                state.gram + state.factor.jitter_applied * np.eye(8), np.eye(c)
            )
            stacked = np.linalg.solve(big, state.residual.reshape(-1))
            np.testing.assert_allclose(
                stacked.reshape(8, c), state.solved_residual, rtol=1e-8, atol=1e-10
            )


def _monte_carlo_dual(fn, cov, seed, n=2_000_000):
    """Monte-Carlo oracle for E[fn(u) fn(v)] under a 2-D centered Gaussian.

    Returns (estimate, standard error). Sampling handles the relu kink and
    derivative discontinuities that defeat polynomial quadrature.
    """
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(cov)
    z = rng.standard_normal((n, 2)) @ chol.T
    vals = fn(z[:, 0]) * fn(z[:, 1])
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


class TestInfiniteNtk:
    def test_positive_diagonal_and_symmetry(self):
        cfg = net.MlpConfig((3, 64, 2), nonlinearity="relu")
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 3))
        k = kernel.infinite_ntk_fc(cfg, a, a)
        assert np.all(np.diag(k) > 0.0)
        assert np.allclose(k, k.T, atol=1e-12)

    @pytest.mark.parametrize("nonlinearity", ["relu", "erf"])
    def test_coincident_rows_independent_of_batch(self, nonlinearity):
        # k(x, x) is the same whether x is evaluated alone, inside a block
        # with other rows, or against a labeled set that contains it.
        cfg = net.MlpConfig((784, 16, 16, 10), nonlinearity=nonlinearity)
        params = net.init(cfg)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, (24, 784)) * (rng.uniform(size=(24, 784)) < 0.2)

        def kernel_fn(p, a, b):
            return kernel.infinite_ntk_fc(p.config, a, b)

        y = data.one_hot_encode(rng.integers(0, 10, 16), 10)
        state = kernel.build_state_xy(params, x[:16], y, kernel_fn=kernel_fn)
        diag = state.kernel_diag(x)
        np.testing.assert_allclose(np.diag(state.kernel_block(x, x)), diag, rtol=1e-12, atol=0)
        rows = state.kernel_rows(x[:16])
        np.testing.assert_allclose(np.diag(rows), diag[:16], rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.diag(state.gram), diag[:16], rtol=1e-12, atol=0)

    def test_unsupported_activation(self):
        cfg = net.MlpConfig((3, 4, 2), nonlinearity="identity")
        with pytest.raises(UnsupportedActivationError):
            kernel.infinite_ntk_fc(cfg, np.zeros((1, 3)), np.zeros((1, 3)))

    @pytest.mark.parametrize("name,fn", [("relu", lambda u: np.maximum(u, 0.0)),
                                         ("erf", scipy_erf)])
    def test_dual_expectations_against_sampling(self, name, fn):
        # The closed-form Gaussian expectations driving the recursion are
        # checked against seeded Monte-Carlo estimates.
        from ntkal.kernel import _erf_dual, _relu_dual

        dual = _relu_dual if name == "relu" else _erf_dual
        rng = np.random.default_rng(42)
        for trial in range(5):
            m = rng.standard_normal((2, 2))
            cov = m @ m.T + 0.1 * np.eye(2)
            k11, k22, k12 = cov[0, 0], cov[1, 1], cov[0, 1]
            closed, _ = dual(np.array([k11]), np.array([k22]), np.array([[k12]]))
            est, sem = _monte_carlo_dual(fn, cov, seed=trial)
            assert abs(closed[0, 0] - est) < 6.0 * sem + 1e-9

    @pytest.mark.parametrize("name,deriv", [
        ("relu", lambda u: (u > 0).astype(float)),
        ("erf", lambda u: 2.0 / np.sqrt(np.pi) * np.exp(-u * u)),
    ])
    def test_derivative_duals_against_sampling(self, name, deriv):
        from ntkal.kernel import _erf_dual, _relu_dual

        dual = _relu_dual if name == "relu" else _erf_dual
        rng = np.random.default_rng(13)
        for trial in range(5):
            m = rng.standard_normal((2, 2))
            cov = m @ m.T + 0.1 * np.eye(2)
            k11, k22, k12 = cov[0, 0], cov[1, 1], cov[0, 1]
            _, closed = dual(np.array([k11]), np.array([k22]), np.array([[k12]]))
            est, sem = _monte_carlo_dual(deriv, cov, seed=trial + 50)
            assert abs(closed[0, 0] - est) < 6.0 * sem + 1e-9

    def test_wide_networks_converge_to_limit(self):
        # Monte-Carlo oracle: the empirical kernel of wider networks sits
        # closer to the closed-form limit, averaged over seeds and pairs.
        cfg_base = dict(nonlinearity="relu", beta=1.0)
        rng = np.random.default_rng(99)
        pairs_a = rng.standard_normal((10, 3))
        pairs_b = rng.standard_normal((5, 3))
        deviations = {}
        for width in (256, 4096):
            cfg = net.MlpConfig((3, width, 2), **cfg_base)
            limit = kernel.infinite_ntk_fc(cfg, pairs_a, pairs_b)
            devs = []
            for seed in range(20):
                params = net.init(net.MlpConfig((3, width, 2), seed=seed, **cfg_base))
                emp = kernel.empirical_ntk(params, pairs_a, pairs_b)
                devs.append(np.mean(np.abs(emp - limit) / np.abs(limit)))
            deviations[width] = float(np.mean(devs))
        assert deviations[4096] < deviations[256]
