import itertools
import math

import numpy as np
import pytest

from boxdet.detectors import bils_brute_force, box_babai, box_rounding
from boxdet.errors import DimensionMismatchError, OutOfBoxError
from boxdet.model import (
    MAX_BOUND,
    BoundaryTag,
    BoxConstraint,
    classify,
    parse_pattern,
    sample_noise,
    sample_uniform_x,
    validate_pattern_for_box,
)
from boxdet.rng import RngStream


class TestBoxConstraint:
    def test_basic(self):
        box = BoxConstraint([0, 0], [3, 3])
        assert box.dim == 2
        assert box.num_points() == 16
        assert box.contains([1, 2])
        assert not box.contains([4, 0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            BoxConstraint([1], [0])
        with pytest.raises(DimensionMismatchError):
            BoxConstraint([0, 0], [1])

    def test_bounds_exact_in_float64_accepted(self):
        box = BoxConstraint([-MAX_BOUND, 0], [MAX_BOUND, 0])
        assert box.widths.tolist() == [2 * MAX_BOUND, 0]

    @pytest.mark.parametrize("lower, upper, name", [
        ([0], [10 ** 20], "upper"),              # no int64 holds it
        ([-2 ** 63], [2 ** 63 - 1], "lower"),    # int64, but the width overflows
        ([0], [2 ** 63 - 1], "upper"),           # int64, but width + 1 wraps
        ([0], [MAX_BOUND + 1], "upper"),
        ([-MAX_BOUND - 1], [0], "lower"),
    ])
    def test_out_of_range_bound_named(self, lower, upper, name):
        with pytest.raises(ValueError, match=f"box {name} bound"):
            BoxConstraint(lower, upper)

    @pytest.mark.parametrize("lower, upper, message", [
        ([0.5], [3.0], "box lower bound 0.5 is not an integer"),
        ([0], [3.7], "box upper bound 3.7 is not an integer"),
        ([0, math.nan], [3, 3], "box lower bound nan is not an integer"),
        ([0], [math.inf], "box upper bound inf is not an integer"),
        ([-math.inf], [0], "box lower bound -inf is not an integer"),
    ])
    def test_non_integral_bound_named(self, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            BoxConstraint(lower, upper)

    def test_value_equality_and_hash(self):
        box = BoxConstraint.cube(0, 3, 2)
        same = BoxConstraint(np.zeros(2), [3.0, np.float64(3.0)])  # integral floats
        assert box == same and hash(box) == hash(same)
        assert len({box, same}) == 1
        assert box != BoxConstraint.cube(0, 4, 2)
        assert box != BoxConstraint.cube(0, 3, 3)
        assert box != (box.lower, box.upper)


class TestClassify:
    def test_all_lower(self):
        box = BoxConstraint([0, 0], [3, 3])
        assert classify([0, 0], box) == (BoundaryTag.LOWER, BoundaryTag.LOWER)

    def test_strict_interior(self):
        box = BoxConstraint([0, 0], [3, 3])
        assert classify([1, 2], box) == (BoundaryTag.INTERIOR, BoundaryTag.INTERIOR)

    def test_mixed_with_singleton(self):
        box = BoxConstraint([0, 0, 2], [3, 3, 2])
        assert classify([3, 0, 2], box) == (
            BoundaryTag.UPPER,
            BoundaryTag.LOWER,
            BoundaryTag.SINGLETON,
        )

    def test_out_of_box(self):
        with pytest.raises(OutOfBoxError):
            classify([4, 0], BoxConstraint([0, 0], [3, 3]))

    def test_total_on_box(self):
        box = BoxConstraint([0, 0], [3, 2])
        for pt in itertools.product(range(4), range(3)):
            tags = classify(pt, box)
            assert len(tags) == 2


class TestPatternParsing:
    def test_parse(self):
        assert parse_pattern("LiuS") == (
            BoundaryTag.LOWER,
            BoundaryTag.INTERIOR,
            BoundaryTag.UPPER,
            BoundaryTag.SINGLETON,
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_pattern("LX")

    def test_validate_against_box(self):
        box = BoxConstraint([0, 1, 2], [3, 1, 4])
        validate_pattern_for_box(parse_pattern("LSI"), box)
        with pytest.raises(ValueError):
            validate_pattern_for_box(parse_pattern("LLI"), box)  # S required at 1
        with pytest.raises(ValueError):
            validate_pattern_for_box(parse_pattern("SSL"), box)  # S only on width 0
        with pytest.raises(DimensionMismatchError):
            validate_pattern_for_box(parse_pattern("LL"), box)

    def test_interior_needs_width_two(self):
        box = BoxConstraint([0], [1])
        with pytest.raises(ValueError):
            validate_pattern_for_box(parse_pattern("I"), box)


class TestModels:
    """The detectors check the reduced model (R, ytilde) they are given."""

    DETECTORS = (box_rounding, box_babai, bils_brute_force)
    BOX = BoxConstraint.cube(0, 3, 2)

    def test_reduced_model_validates(self):
        for detect in self.DETECTORS:
            with pytest.raises(DimensionMismatchError):
                detect(np.eye(2), [1.0], self.BOX)
            assert detect([[2.0, -1.0], [0.0, 1.0]], [0.4, 0.4], self.BOX).shape == (2,)

    def test_reduced_model_validates_r(self):
        for r in ([[1.0, 1.0], [1.0, 1.0]],  # not upper triangular
                  [[0.0, 1.0], [0.0, 1.0]],  # zero on the diagonal
                  [[1.0, np.nan], [0.0, 1.0]]):
            for detect in self.DETECTORS:
                with pytest.raises(ValueError):
                    detect(r, [1.0, 1.0], self.BOX)


class TestSampling:
    def test_single_point_box(self):
        box = BoxConstraint([5, 5], [5, 5])
        x = sample_uniform_x(box, RngStream(1), count=100)
        assert np.all(x == 5)

    def test_uniform_frequencies(self):
        box = BoxConstraint([0], [3])
        draws = sample_uniform_x(box, RngStream(2), count=1_000_000).reshape(-1)
        se = math.sqrt(0.25 * 0.75 / 1_000_000)
        for value in range(4):
            freq = np.mean(draws == value)
            assert abs(freq - 0.25) <= 3 * se

    def test_uniform_determinism(self):
        box = BoxConstraint([0, 0], [3, 3])
        a = sample_uniform_x(box, RngStream(7, (1, 2)), count=100)
        b = sample_uniform_x(box, RngStream(7, (1, 2)), count=100)
        np.testing.assert_array_equal(a, b)
        c = sample_uniform_x(box, RngStream(7, (1, 3)), count=100)
        assert np.any(a != c)

    def test_coupon_collector(self):
        # 1000 draws over a 4-point box miss a point with prob < 1e-30
        box = BoxConstraint([0, 0], [1, 1])
        draws = sample_uniform_x(box, RngStream(3), count=1000)
        seen = {tuple(row) for row in draws}
        assert len(seen) == 4

    def test_sampler_shapes(self):
        box = BoxConstraint([0, 0, 0], [3, 3, 3])
        assert sample_uniform_x(box, RngStream(6), count=1).shape == (1, 3)
        assert sample_uniform_x(box, RngStream(6), count=5).shape == (5, 3)
        assert sample_noise(1.0, 4, RngStream(6), count=1).shape == (1, 4)
        assert sample_noise(1.0, 4, RngStream(6), count=5).shape == (5, 4)

    def test_noise_moments(self):
        v = sample_noise(1.0, 1_000_000, RngStream(4), count=1)
        assert abs(float(np.mean(v))) <= 3e-3
        assert abs(float(np.var(v)) - 1.0) <= 0.01

    def test_noise_determinism_and_scaling(self):
        a = sample_noise(1.0, 1000, RngStream(5), count=1)
        b = sample_noise(1.0, 1000, RngStream(5), count=1)
        np.testing.assert_array_equal(a, b)
        doubled = sample_noise(2.0, 1000, RngStream(5), count=1)
        np.testing.assert_array_equal(doubled, 2.0 * a)

    def test_noise_rejects_bad_sigma(self):
        for sigma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                sample_noise(sigma, 10, RngStream(0), count=1)

    def test_models_reject_nonfinite_sigma(self):
        for sigma in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                sample_noise(sigma, 2, RngStream(0), count=3)
