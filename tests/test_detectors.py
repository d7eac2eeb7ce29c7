import numpy as np
import pytest

from boxdet.detectors import (
    babai_batch,
    babai_success_batch,
    bils_brute_force,
    box_babai,
    box_rounding,
    ordinary_babai,
    ordinary_rounding,
    rounding_batch,
    rounding_success_batch,
)
from boxdet.errors import BoxTooLargeError, DimensionMismatchError
from boxdet.linalg import back_substitute
from boxdet.model import BoxConstraint, ReducedModel

EX1 = np.array([[2.0, -1.0], [0.0, 1.0]])
BOX03 = BoxConstraint([0, 0], [3, 3])


def _rm(r, ytilde):
    return ReducedModel(np.asarray(r, dtype=float), ytilde)


def _random_instance(rng, n, lo=-2, hi=4):
    r = np.triu(rng.standard_normal((n, n)))
    r[np.diag_indices(n)] = rng.uniform(0.4, 2.5, n)
    box = BoxConstraint(np.full(n, lo), np.full(n, hi))
    return r, box


def _round(t):
    """The detectors' tie rule on one value: ordinary rounding at R = [[1]]."""
    return int(ordinary_rounding(_rm([[1.0]], [t]))[0])


def _babai_statistics(rm, x):
    """c_i = (ytilde_i - sum_{j>i} r_ij x_j) / r_ii, read off a Babai output."""
    return np.array([
        (rm.ytilde[i] - rm.r[i, i + 1:] @ x[i + 1:]) / rm.r[i, i]
        for i in range(rm.dim)
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
            _round(float("nan"))


class TestBoxRounding:
    def test_noiseless_recovery(self):
        xhat = np.array([2, 1])
        out = box_rounding(_rm(EX1, EX1 @ xhat), BOX03)
        np.testing.assert_array_equal(out, xhat)

    def test_hand_instance_with_clamp(self):
        rm = _rm(EX1, [-1.2, -0.4])
        np.testing.assert_allclose(back_substitute(rm.r, rm.ytilde), [-0.8, -0.4])
        np.testing.assert_array_equal(box_rounding(rm, BOX03), [0, 0])

    def test_upper_clamp(self):
        out = box_rounding(_rm(np.eye(2), [10.0, 10.0]), BOX03)
        np.testing.assert_array_equal(out, [3, 3])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            box_rounding(_rm(np.eye(3), [1.0, 2.0, 3.0]), BOX03)


class TestBoxBabai:
    def test_noiseless_recovery_with_trace(self):
        xhat = np.array([2, 1])
        rm = _rm(EX1, EX1 @ xhat)
        out = box_babai(rm, BOX03)
        np.testing.assert_array_equal(out, xhat)
        np.testing.assert_allclose(_babai_statistics(rm, out), xhat.astype(float))

    def test_hand_recursion(self):
        rm = _rm(EX1, [-0.2, 0.6])
        out = box_babai(rm, BOX03)
        np.testing.assert_allclose(_babai_statistics(rm, out), [0.4, 0.6])
        np.testing.assert_array_equal(out, [0, 1])

    def test_diagonal_r_coincides_with_rounding(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            r = np.diag(rng.uniform(0.3, 3.0, n))
            box = BoxConstraint(np.full(n, -1), np.full(n, 4))
            rm = _rm(r, rng.standard_normal(n) * 3)
            np.testing.assert_array_equal(
                box_babai(rm, box), box_rounding(rm, box)
            )


class TestOrdinaryDetectors:
    def test_pure_rounding(self):
        rm = _rm(np.eye(2), [7.6, -9.2])
        np.testing.assert_array_equal(ordinary_rounding(rm), [8, -9])
        np.testing.assert_array_equal(ordinary_babai(rm), [8, -9])

    def test_hand_instance_unclamped(self):
        out = ordinary_rounding(_rm(EX1, [-1.2, -0.4]))
        np.testing.assert_array_equal(out, [-1, 0])

    def test_equal_to_box_versions_when_clamp_inactive(self):
        rng = np.random.default_rng(21)
        wide = BoxConstraint([-50, -50, -50], [50, 50, 50])
        for _ in range(30):
            r, _ = _random_instance(rng, 3)
            rm = _rm(r, rng.standard_normal(3) * 2)
            np.testing.assert_array_equal(
                ordinary_rounding(rm), box_rounding(rm, wide)
            )
            np.testing.assert_array_equal(
                ordinary_babai(rm), box_babai(rm, wide)
            )


class TestBruteForce:
    def test_noiseless_optimum(self):
        xhat = np.array([1, 3])
        rm = _rm(EX1, EX1 @ xhat)
        np.testing.assert_array_equal(bils_brute_force(rm, BOX03), xhat)

    def test_scalar_nearest_point(self):
        rm = _rm([[1.0]], [1.4])
        assert bils_brute_force(rm, BoxConstraint([0], [3]))[0] == 1

    def test_tie_breaks_lexicographically_smallest(self):
        rm = _rm([[1.0]], [0.5])  # 0 and 1 are equidistant
        assert bils_brute_force(rm, BoxConstraint([0], [3]))[0] == 0

    def test_optimality_dominates_detectors(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            r, box = _random_instance(rng, n, lo=0, hi=3)
            rm = _rm(r, rng.standard_normal(n) * 2)
            best = bils_brute_force(rm, box)
            cost = lambda x: np.sum((rm.ytilde - rm.r @ x) ** 2)
            assert cost(best) <= cost(box_babai(rm, box)) + 1e-12
            assert cost(best) <= cost(box_rounding(rm, box)) + 1e-12

    def test_box_guard(self):
        rm = _rm(np.eye(3), [0.0, 0.0, 0.0])
        with pytest.raises(BoxTooLargeError):
            bils_brute_force(rm, BoxConstraint([0, 0, 0], [100, 100, 100]))


class TestDetectorProperties:
    def test_noiseless_exact_recovery_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            r, box = _random_instance(rng, n, lo=0, hi=3)
            xhat = rng.integers(0, 4, n)
            rm = _rm(r, r @ xhat)
            np.testing.assert_array_equal(box_rounding(rm, box), xhat)
            np.testing.assert_array_equal(box_babai(rm, box), xhat)

    def test_outputs_always_in_box(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            r, box = _random_instance(rng, n)
            rm = _rm(r, rng.standard_normal(n) * 10)
            for out in (box_rounding(rm, box), box_babai(rm, box)):
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
            rm = _rm(r, rng.standard_normal(n) * 4)
            d = back_substitute(rm.r, rm.ytilde)
            expected = [
                three_case(di, lo, hi)
                for di, lo, hi in zip(d, box.lower, box.upper)
            ]
            np.testing.assert_array_equal(box_rounding(rm, box), expected)
            out_b = box_babai(rm, box)
            expected_b = [
                three_case(c, lo, hi)
                for c, lo, hi in zip(_babai_statistics(rm, out_b), box.lower, box.upper)
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
        for kernel, single, ordinary, success in (
                (rounding_batch, box_rounding, ordinary_rounding, rounding_success_batch),
                (babai_batch, box_babai, ordinary_babai, babai_success_batch)):
            models = [_rm(r, y) for y in ytilde]
            boxed = np.array([single(rm, box) for rm in models])
            free = np.array([ordinary(rm) for rm in models])
            batch = kernel(r, ytilde, box.lower, box.upper)
            assert batch.shape == ytilde.shape
            np.testing.assert_array_equal(batch.astype(np.int64), boxed)
            np.testing.assert_array_equal(kernel(r, ytilde, -wide, wide).astype(np.int64), free)
            assert np.all(success(r, ytilde, boxed, box.lower, box.upper))
            shifted = boxed.copy()
            shifted[::3, -1] += 1
            flags = success(r, ytilde, shifted, box.lower, box.upper)
            np.testing.assert_array_equal(flags, np.arange(self.COUNT) % 3 != 0)
