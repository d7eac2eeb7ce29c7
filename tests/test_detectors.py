import itertools

import numpy as np
import pytest

from boxdet.detectors import (
    _SEARCH_CHUNK,
    babai_batch,
    babai_success_batch,
    bils_brute_force,
    box_babai,
    box_rounding,
    rounding_batch,
    rounding_success_batch,
)
from boxdet.errors import BoxTooLargeError, DimensionMismatchError
from boxdet.linalg import back_substitute
from boxdet.model import BoxConstraint

EX1 = np.array([[2.0, -1.0], [0.0, 1.0]])
BOX03 = BoxConstraint([0, 0], [3, 3])


def _unclamped(kernel, r, ytilde):
    """The ordinary (unclamped) detector: a batch kernel on one observation
    with bounds of +-inf."""
    r = np.asarray(r, dtype=float)
    free = np.full(r.shape[0], np.inf)
    return kernel(r, np.asarray(ytilde, dtype=float)[None, :], -free, free)[0]


def _random_instance(rng, n, lo=-2, hi=4):
    r = np.triu(rng.standard_normal((n, n)))
    r[np.diag_indices(n)] = rng.uniform(0.4, 2.5, n)
    box = BoxConstraint(np.full(n, lo), np.full(n, hi))
    return r, box


def _round(t):
    """The detectors' tie rule on one value: ordinary rounding at R = [[1]]."""
    return int(_unclamped(rounding_batch, [[1.0]], [t])[0])


def _babai_statistics(r, ytilde, x):
    """c_i = (ytilde_i - sum_{j>i} r_ij x_j) / r_ii, read off a Babai output."""
    r = np.asarray(r, dtype=float)
    return np.array([
        (ytilde[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
        for i in range(r.shape[0])
    ])


class TestRoundScalar:
    """The half-toward-zero tie rule, through ordinary rounding of a scalar."""

    def test_half_ties_toward_zero(self):
        assert _round(0.5) == 0
        assert _round(-0.5) == 0
        assert _round(1.5) == 1
        assert _round(-1.5) == -1

    def test_ordinary_rounding(self):
        assert _round(2.3) == 2
        assert _round(-2.7) == -3
        assert _round(0.0) == 0

    def test_tie_rule_over_grid(self):
        for k in range(0, 50):
            assert _round(k + 0.5) == k
        for k in range(-50, 0):
            assert _round(k + 0.5) == k + 1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            box_rounding([[1.0]], [float("nan")], BoxConstraint([0], [3]))


class TestBoxRounding:
    def test_noiseless_recovery(self):
        xhat = np.array([2, 1])
        out = box_rounding(EX1, EX1 @ xhat, BOX03)
        np.testing.assert_array_equal(out, xhat)

    def test_hand_instance_with_clamp(self):
        ytilde = np.array([-1.2, -0.4])
        np.testing.assert_allclose(back_substitute(EX1, ytilde), [-0.8, -0.4])
        np.testing.assert_array_equal(box_rounding(EX1, ytilde, BOX03), [0, 0])

    def test_upper_clamp(self):
        out = box_rounding(np.eye(2), [10.0, 10.0], BOX03)
        np.testing.assert_array_equal(out, [3, 3])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            box_rounding(np.eye(3), [1.0, 2.0, 3.0], BOX03)


class TestBoxBabai:
    def test_noiseless_recovery_with_trace(self):
        xhat = np.array([2, 1])
        ytilde = EX1 @ xhat
        out = box_babai(EX1, ytilde, BOX03)
        np.testing.assert_array_equal(out, xhat)
        np.testing.assert_allclose(_babai_statistics(EX1, ytilde, out), xhat.astype(float))

    def test_hand_recursion(self):
        ytilde = np.array([-0.2, 0.6])
        out = box_babai(EX1, ytilde, BOX03)
        np.testing.assert_allclose(_babai_statistics(EX1, ytilde, out), [0.4, 0.6])
        np.testing.assert_array_equal(out, [0, 1])

    def test_diagonal_r_coincides_with_rounding(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            r = np.diag(rng.uniform(0.3, 3.0, n))
            box = BoxConstraint(np.full(n, -1), np.full(n, 4))
            ytilde = rng.standard_normal(n) * 3
            np.testing.assert_array_equal(
                box_babai(r, ytilde, box), box_rounding(r, ytilde, box)
            )


class TestOrdinaryDetectors:
    def test_pure_rounding(self):
        np.testing.assert_array_equal(_unclamped(rounding_batch, np.eye(2), [7.6, -9.2]), [8, -9])
        np.testing.assert_array_equal(_unclamped(babai_batch, np.eye(2), [7.6, -9.2]), [8, -9])

    def test_hand_instance_unclamped(self):
        out = _unclamped(rounding_batch, EX1, [-1.2, -0.4])
        np.testing.assert_array_equal(out, [-1, 0])

    def test_equal_to_box_versions_when_clamp_inactive(self):
        rng = np.random.default_rng(21)
        wide = BoxConstraint([-50, -50, -50], [50, 50, 50])
        for _ in range(30):
            r, _ = _random_instance(rng, 3)
            ytilde = rng.standard_normal(3) * 2
            np.testing.assert_array_equal(
                _unclamped(rounding_batch, r, ytilde), box_rounding(r, ytilde, wide)
            )
            np.testing.assert_array_equal(
                _unclamped(babai_batch, r, ytilde), box_babai(r, ytilde, wide)
            )


class TestBruteForce:
    def test_noiseless_optimum(self):
        xhat = np.array([1, 3])
        np.testing.assert_array_equal(bils_brute_force(EX1, EX1 @ xhat, BOX03), xhat)

    def test_scalar_nearest_point(self):
        assert bils_brute_force([[1.0]], [1.4], BoxConstraint([0], [3]))[0] == 1

    def test_tie_breaks_lexicographically_smallest(self):
        # 0 and 1 are equidistant
        assert bils_brute_force([[1.0]], [0.5], BoxConstraint([0], [3]))[0] == 0

    def test_matches_exhaustive_loop(self):
        # Dyadic R and ytilde make every cost exact, so exact ties are common;
        # min() keeps the first minimum of the lexicographic enumeration.
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            r = np.triu(rng.integers(-2, 3, (n, n)) / 2.0)
            r[np.diag_indices(n)] = 2.0 ** rng.integers(-1, 2, n)
            lower = rng.integers(-2, 1, n)
            box = BoxConstraint(lower, lower + rng.integers(0, 4, n))
            ytilde = rng.integers(-8, 9, n) / 4.0
            points = itertools.product(*(range(lo, hi + 1) for lo, hi in zip(box.lower, box.upper)))
            expected = min(points, key=lambda x: np.sum((ytilde - r @ x) ** 2))
            np.testing.assert_array_equal(bils_brute_force(r, ytilde, box), expected)

    def test_tie_across_chunks(self):
        # The two nearest points are the last of one chunk and the first of the next.
        box = BoxConstraint([0], [3 * _SEARCH_CHUNK])
        ytilde = [_SEARCH_CHUNK - 0.5]
        assert bils_brute_force([[1.0]], ytilde, box)[0] == _SEARCH_CHUNK - 1

    def test_optimality_dominates_detectors(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            r, box = _random_instance(rng, n, lo=0, hi=3)
            ytilde = rng.standard_normal(n) * 2
            best = bils_brute_force(r, ytilde, box)
            cost = lambda x: np.sum((ytilde - r @ x) ** 2)
            assert cost(best) <= cost(box_babai(r, ytilde, box)) + 1e-12
            assert cost(best) <= cost(box_rounding(r, ytilde, box)) + 1e-12

    def test_box_guard(self):
        with pytest.raises(BoxTooLargeError):
            bils_brute_force(np.eye(3), np.zeros(3), BoxConstraint([0, 0, 0], [100, 100, 100]))


class TestDetectorProperties:
    def test_noiseless_exact_recovery_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            r, box = _random_instance(rng, n, lo=0, hi=3)
            xhat = rng.integers(0, 4, n)
            np.testing.assert_array_equal(box_rounding(r, r @ xhat, box), xhat)
            np.testing.assert_array_equal(box_babai(r, r @ xhat, box), xhat)

    def test_outputs_always_in_box(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            r, box = _random_instance(rng, n)
            ytilde = rng.standard_normal(n) * 10
            for out in (box_rounding(r, ytilde, box), box_babai(r, ytilde, box)):
                assert box.contains(out)

    def test_round_then_clamp_matches_three_case_split(self):
        # reference: apply the explicit case split (clamp low / keep / clamp
        # high on the rounded statistic) instead of round-then-clamp
        def three_case(value, lo, hi):
            rounded = _round(value)
            if rounded <= lo:
                return lo
            if rounded >= hi:
                return hi
            return rounded

        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            r, box = _random_instance(rng, n)
            ytilde = rng.standard_normal(n) * 4
            d = back_substitute(r, ytilde)
            expected = [
                three_case(di, lo, hi)
                for di, lo, hi in zip(d, box.lower, box.upper)
            ]
            np.testing.assert_array_equal(box_rounding(r, ytilde, box), expected)
            out_b = box_babai(r, ytilde, box)
            expected_b = [
                three_case(c, lo, hi)
                for c, lo, hi in zip(_babai_statistics(r, ytilde, out_b), box.lower, box.upper)
            ]
            np.testing.assert_array_equal(out_b, expected_b)


class TestBatchAgainstSingle:
    """A 4096-row batch equals the stacked single-instance detectors."""

    COUNT = 4096

    def _block(self):
        rng = np.random.default_rng(17)
        n = 5
        # Dyadic entries keep every back-substitution step exact, so the
        # half-integer rows below are exact ties for both detectors.
        r = np.triu(rng.integers(-2, 3, (n, n)) / 2.0)
        r[np.diag_indices(n)] = 2.0 ** rng.integers(-1, 2, n)
        half = self.COUNT // 2
        ties = rng.integers(-3, 6, (half, n)) + 0.5
        ytilde = np.vstack([ties @ r.T, rng.normal(1.5, 2.0, (half, n)) @ r.T])
        box = BoxConstraint(np.zeros(n), np.full(n, 3))
        return r, ytilde, box

    def test_rounding_and_babai(self):
        r, ytilde, box = self._block()
        d = np.array([back_substitute(r, y) for y in ytilde])
        assert np.count_nonzero(d == np.round(d - 0.5) + 0.5) >= self.COUNT
        assert np.any(d == -0.5)  # rounds to -0.0, which must equal 0
        half_toward_zero = np.where(d >= 0.0, np.ceil(d - 0.5), np.floor(d + 0.5))
        np.testing.assert_array_equal(rounding_batch(r, ytilde, box.lower, box.upper),
                                      np.clip(half_toward_zero, box.lower, box.upper))
        wide = np.full(r.shape[0], np.inf)
        for kernel, single, success in (
                (rounding_batch, box_rounding, rounding_success_batch),
                (babai_batch, box_babai, babai_success_batch)):
            boxed = np.array([single(r, y, box) for y in ytilde])
            free = np.array([_unclamped(kernel, r, y) for y in ytilde])
            batch = kernel(r, ytilde, box.lower, box.upper)
            assert batch.shape == ytilde.shape
            np.testing.assert_array_equal(batch.astype(np.int64), boxed)
            np.testing.assert_array_equal(kernel(r, ytilde, -wide, wide).astype(np.int64), free)
            assert np.all(success(r, ytilde, boxed, box.lower, box.upper))
            shifted = boxed.copy()
            shifted[::3, -1] += 1
            flags = success(r, ytilde, shifted, box.lower, box.upper)
            np.testing.assert_array_equal(flags, np.arange(self.COUNT) % 3 != 0)
