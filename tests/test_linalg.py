import numpy as np
import pytest

from ntkal import linalg
from ntkal.errors import ContractError, NotPositiveDefiniteError, ShapeError


class TestCholesky:
    def test_identity(self):
        f = linalg.cholesky(np.eye(2))
        assert np.array_equal(f.lower, np.eye(2))
        assert f.jitter_applied == 0.0

    def test_two_by_two(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        f = linalg.cholesky(a)
        assert np.allclose(f.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        # Reconstruction oracle.
        assert np.allclose(f.lower @ f.lower.T, a, rtol=1e-12)

    def test_strict_upper_is_zero(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((6, 6))
        f = linalg.cholesky(m @ m.T + 6 * np.eye(6))
        assert np.array_equal(np.triu(f.lower, k=1), np.zeros((6, 6)))

    def test_indefinite_fails_with_pivot(self):
        with pytest.raises(NotPositiveDefiniteError, match="JITTER_LADDER") as exc_info:
            linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc_info.value.pivot == 2

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            linalg.cholesky(np.array([[1.0, 0.5], [0.3, 1.0]]))

    def test_singular_gets_jitter(self):
        a = np.ones((3, 3))  # rank one
        f = linalg.cholesky(a)
        assert f.jitter_applied > 0.0
        assert np.allclose(
            f.lower @ f.lower.T, a + f.jitter_applied * np.eye(3), rtol=1e-8
        )

    def test_deterministic_bits(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((40, 40))
        a = m @ m.T + 40 * np.eye(40)
        f1 = linalg.cholesky(a)
        f2 = linalg.cholesky(a)
        assert np.array_equal(f1.lower, f2.lower)


class TestCholSolve:
    def test_empty_factor_solves_empty_rhs(self):
        f = linalg.cholesky(np.zeros((0, 0)))
        assert f.lower.shape == (0, 0) and f.jitter_applied == 0.0
        assert linalg.chol_solve(f, np.zeros((0, 3))).shape == (0, 3)

    def test_identity_factor(self):
        f = linalg.cholesky(np.eye(3))
        b = np.arange(6.0).reshape(3, 2)
        assert np.allclose(linalg.chol_solve(f, b), b)

    def test_known_solution(self):
        f = linalg.cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        x = linalg.chol_solve(f, np.array([[1.0], [1.0]]))
        assert np.allclose(x, [[0.125], [0.25]], atol=1e-12)

    def test_shape_mismatch(self):
        f = linalg.cholesky(np.eye(2))
        with pytest.raises(ShapeError):
            linalg.chol_solve(f, np.zeros((3, 1)))

    def test_matches_dense_inverse_up_to_200(self):
        rng = np.random.default_rng(11)
        for n in (3, 17, 64, 200):
            m = rng.standard_normal((n, n))
            a = m @ m.T + n * np.eye(n)
            b = rng.standard_normal((n, 4))
            x = linalg.chol_solve(linalg.cholesky(a), b)
            expected = np.linalg.inv(a) @ b  # brute-force oracle
            err = np.linalg.norm(x - expected) / np.linalg.norm(expected)
            assert err < 1e-7

    def test_residual_small(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((30, 30))
        a = m @ m.T + 30 * np.eye(30)
        b = rng.standard_normal((30, 2))
        x = linalg.chol_solve(linalg.cholesky(a), b)
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)


class TestNonFiniteInput:
    # Each of these used to return NaN (cholesky([[inf]]) also warned from
    # the symmetry check's a - a.T).
    @pytest.mark.parametrize(
        "a",
        [[[np.nan]], [[np.inf]], [[-np.inf]], [[1.0, np.nan], [np.nan, 1.0]],
         [[1.0, np.inf], [np.inf, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]],
        ids=["nan", "inf", "-inf", "nan-offdiag", "inf-offdiag", "inf-diag"],
    )
    def test_cholesky_rejects(self, a):
        with pytest.raises(ContractError, match="non-finite"):
            linalg.cholesky(np.array(a))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(2,), (2, 3)], ids=["vector", "matrix"])
    def test_chol_solve_rejects(self, bad, shape):
        b = np.ones(shape)
        b.flat[0] = bad
        with pytest.raises(ContractError, match="non-finite"):
            linalg.chol_solve(linalg.cholesky(np.eye(2)), b)

    @pytest.mark.parametrize("a", [np.ones(3), np.ones((2, 3)), np.array([np.nan, 1.0])],
                             ids=["1-d", "non-square", "1-d-non-finite"])
    def test_shape_errors_stay_shape_errors(self, a):
        with pytest.raises(ShapeError, match="square"):
            linalg.cholesky(a)


def test_kappa_u32_is_the_sqrt_d_rule_floored_at_ten():
    assert linalg._kappa_u32(784) == 1.5 * np.sqrt(784) * 2.0**-24
    assert linalg._kappa_u32(8) == 10 * 2.0**-24
