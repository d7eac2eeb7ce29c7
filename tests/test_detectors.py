import numpy as np
import pytest

from boxdet.detectors import (
    babai_batch,
    babai_success_batch,
    box_babai,
    box_rounding,
    failure_scales,
    rounding_batch,
    rounding_success_batch,
)
from boxdet.errors import DimensionMismatchError
from boxdet.linalg import back_substitute
from boxdet.model import BoxConstraint, boundary_masks, sample_uniform_x
from boxdet.rng import RngStream, uniform

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


class TestOverflow:
    def test_infinite_coordinate_clamps_exactly(self):
        # 1e10 / 1e-300 overflows to +inf, which clamps to the upper bound.
        box = BoxConstraint([0], [3])
        for detector in (box_rounding, box_babai):
            np.testing.assert_array_equal(detector([[1e-300]], [1e10], box), [3])

    def test_nan_coordinate_is_refused(self):
        # Rounding: d_2 = +inf, then d_1 = (1e10 - 0 * inf) / 1e-300 is NaN.
        # Babai multiplies the clamped x_2 = 3 and stays finite.
        r = np.diag([1e-300, 1e-300])
        with pytest.raises(ValueError, match="overflowed float64 to NaN"):
            box_rounding(r, [1e10, 1e10], BOX03)
        np.testing.assert_array_equal(box_babai(r, [1e10, 1e10], BOX03), [3, 3])
        # Babai: c_1 = 0 - (1e308 * 3 - 1e308 * 3) is inf - inf.
        r = np.array([[1.0, 1e308, -1e308], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="overflowed float64 to NaN"):
            box_babai(r, [0.0, 3.0, 3.0], BoxConstraint.cube(0, 3, 3))


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


def _trials(box, count, seed):
    """count true vectors of ``sample_uniform_x`` and their (n, count)
    masks x < upper, x > lower, as ``boundary_masks`` reads them off the
    same uniforms."""
    stream = RngStream(seed)
    u = uniform(stream, (count, box.dim))
    return sample_uniform_x(box, stream, count), boundary_masks(box, u)


class TestFailureScales:
    """sigma * k <= 1/2 is each detector's success flag, trial by trial."""

    SIGMAS = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_flags_equal_the_detectors(self, n):
        rng = np.random.default_rng([31, n])
        r, _ = _random_instance(rng, n)
        lower = rng.integers(-3, 1, n)
        upper = lower + np.array([1, 0, 2, 1, 4, 0, 3, 2])[:n]
        count = 3000
        x, masks = _trials(BoxConstraint(lower, upper), count, n)
        v = rng.standard_normal((count, n))
        k_br, k_bb = failure_scales(r, v, *masks)
        outcomes = set()
        for sigma in self.SIGMAS:
            ytilde = x @ r.T + sigma * v
            for k, success in ((k_br, rounding_success_batch), (k_bb, babai_success_batch)):
                flags = success(r, ytilde, x, lower, upper)
                np.testing.assert_array_equal(sigma * k <= 0.5, flags)
                outcomes.update(flags.tolist())
        assert outcomes == {True, False}

    def test_diagonal_r_gives_equal_scales(self):
        rng = np.random.default_rng(5)
        n = 6
        r = np.diag(rng.uniform(0.3, 3.0, n))
        lower = np.array([-2, 0, 1, -1, 0, 3])
        upper = lower + np.array([3, 0, 1, 2, 5, 1])
        _, masks = _trials(BoxConstraint(lower, upper), 2000, 6)
        k_br, k_bb = failure_scales(r, rng.standard_normal((2000, n)), *masks)
        np.testing.assert_array_equal(k_br, k_bb)
        assert np.all(k_br >= 0.0)
