import numpy as np
import pytest
import scipy.linalg

from boxdet.errors import DimensionMismatchError, RankDeficientError
from boxdet.linalg import (
    back_substitute,
    permuted_factor,
    qr_positive,
    validate_upper_triangular,
)

EX1 = np.array([[2.0, -1.0], [0.0, 1.0]])


class TestQrPositive:
    def test_identity(self):
        q1, r = qr_positive(np.eye(3))
        np.testing.assert_array_equal(q1, np.eye(3))
        np.testing.assert_array_equal(r, np.eye(3))

    def test_already_upper_triangular_positive_diagonal(self):
        q1, r = qr_positive(EX1)
        np.testing.assert_array_equal(q1, np.eye(2))
        np.testing.assert_array_equal(r, EX1)

    def test_rectangular_factorization_residuals(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 2))
        q1, r = qr_positive(a)
        assert np.max(np.abs(q1.T @ q1 - np.eye(2))) <= 1e-12
        assert np.linalg.norm(a - q1 @ r) <= 1e-12 * np.linalg.norm(a)

    def test_round_trip_and_positive_diagonal_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, m + 1))
            a = rng.standard_normal((m, n))
            q1, r = qr_positive(a)
            assert np.min(np.diag(r)) > 0
            assert np.max(np.abs(q1.T @ q1 - np.eye(n))) <= 1e-12
            assert np.linalg.norm(a - q1 @ r) <= 1e-12 * np.linalg.norm(a)
            assert np.all(np.tril(r, -1) == 0.0)

    def test_column_permutation_flips_signs(self):
        # Householder QR of a column swap gives a negative diagonal; the
        # sign flip makes R = I and moves the swap into Q1.
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        q1, r = qr_positive(a)
        np.testing.assert_allclose(r, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(q1.T @ [5.0, 7.0], [7.0, 5.0], atol=1e-15)

    def test_noiseless_reduction_is_r_times_x(self):
        a = np.random.default_rng(11).standard_normal((4, 2))
        q1, r = qr_positive(a)
        xhat = np.array([1, 2])
        assert np.max(np.abs(q1.T @ (a @ xhat) - r @ xhat)) <= 1e-12

    def test_rank_deficient_rejected(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(RankDeficientError):
            qr_positive(a)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            qr_positive(np.ones((2, 3)))
        with pytest.raises(DimensionMismatchError):
            qr_positive(np.ones(3))
        with pytest.raises(ValueError):
            qr_positive(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPermutedFactor:
    def test_is_qr_positive_of_the_permuted_columns(self):
        # One sign rule: on a full-rank factor both functions give the same bits.
        rng = np.random.default_rng(3)
        for n in range(1, 7):
            _, r = qr_positive(rng.standard_normal((n, n)))
            perm = rng.permutation(n)
            rp = permuted_factor(r, perm)
            np.testing.assert_array_equal(rp, qr_positive(r[:, perm])[1])
            validate_upper_triangular(rp)

    def test_keeps_no_rank_tolerance(self):
        r = np.diag([1.0, 1e-14])
        with pytest.raises(RankDeficientError):
            qr_positive(r)
        rp = permuted_factor(r, [1, 0])
        validate_upper_triangular(rp)
        np.testing.assert_allclose(rp.T @ rp, np.diag([1e-28, 1.0]), rtol=1e-12)


class TestBackSubstitute:
    def test_identity(self):
        np.testing.assert_array_equal(back_substitute(np.eye(2), [3.0, 4.0]), [3.0, 4.0])

    def test_hand_cases(self):
        np.testing.assert_allclose(back_substitute(EX1, [1.0, 1.0]), [1.0, 1.0])
        np.testing.assert_allclose(back_substitute(EX1, [0.0, 2.0]), [1.0, 2.0])

    def test_multiply_back(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            r = np.triu(rng.standard_normal((n, n)))
            r[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n)
            b = rng.standard_normal(n)
            x = back_substitute(r, b)
            assert np.linalg.norm(r @ x - b) <= 1e-12 * max(np.linalg.norm(b), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            back_substitute(np.eye(2), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("shape", [(2, 3), (3,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(DimensionMismatchError, match="square"):
            back_substitute(np.ones(shape), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_right_hand_side(self, bad):
        with pytest.raises(ValueError):
            back_substitute(np.eye(2), [bad, 1.0])
        b = np.ones((2, 5))
        b[1, 3] = bad
        with pytest.raises(ValueError):
            back_substitute(EX1, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry_above_diagonal(self, bad):
        r = np.triu(np.ones((3, 3)))
        r[0, 2] = bad
        with pytest.raises(ValueError):
            back_substitute(r, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            back_substitute(r, np.ones((3, 4)))

    def test_rejects_zero_diagonal(self):
        with pytest.raises(ValueError, match="singular"):
            back_substitute(np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones((2, 3)))

    def test_vector_in_vector_out(self):
        x = back_substitute(EX1, [0.0, 2.0])
        assert x.shape == (2,)
        assert back_substitute([[4.0]], [2.0]).shape == (1,)

    def test_columns_match_scipy(self):
        rng = np.random.default_rng(11)
        k = 4096
        for n in range(1, 9):
            r = np.triu(rng.standard_normal((n, n)))
            r[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n)
            v = rng.standard_normal((k, n))
            # v.T is the F-ordered view the Monte Carlo kernel passes.
            for b in (v.T, np.ascontiguousarray(v.T)):
                x = back_substitute(r, b)
                ref = scipy.linalg.solve_triangular(r, b, lower=False)
                assert x.shape == (n, k)
                assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestValidateUpperTriangular:
    def test_accepts_valid(self):
        validate_upper_triangular(EX1)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(DimensionMismatchError, match="square"):
            validate_upper_triangular(np.ones(shape))

    def test_rejects_subdiagonal_entries(self):
        with pytest.raises(ValueError):
            validate_upper_triangular(np.array([[1.0, 0.0], [1e-300, 1.0]]))

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            validate_upper_triangular(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            validate_upper_triangular(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rejects_non_finite_entry_above_diagonal(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="entries must be finite") as info:
                validate_upper_triangular(np.array([[1.0, bad], [0.0, 1.0]]))
            assert "diagonal" not in str(info.value)
