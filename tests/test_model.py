import itertools
import math

import numpy as np
import pytest

from boxdet.errors import DimensionMismatchError, OutOfBoxError, RankDeficientError
from boxdet.model import (
    BoundaryTag,
    BoxConstraint,
    LinearModel,
    ReducedModel,
    classify,
    observe,
    parse_pattern,
    reduce,
    sample_noise,
    sample_uniform_x,
    validate_pattern_for_box,
)
from boxdet.rng import RngStream

EX1 = np.array([[2.0, -1.0], [0.0, 1.0]])


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
    def test_linear_model_validates(self):
        with pytest.raises(ValueError):
            LinearModel(np.eye(2), 0.0)
        with pytest.raises(RankDeficientError):
            LinearModel(np.array([[1.0, 1.0], [1.0, 1.0]]), 1.0)

    def test_reduced_model_validates(self):
        with pytest.raises(DimensionMismatchError):
            ReducedModel(np.eye(2), [1.0], 1.0)
        with pytest.raises(ValueError):
            ReducedModel(np.eye(2), [1.0, 2.0], -1.0)

    def test_reduced_model_validates_r(self):
        for r in ([[1.0, 1.0], [1.0, 1.0]],  # not upper triangular
                  [[0.0, 1.0], [0.0, 1.0]],  # zero on the diagonal
                  [[1.0, np.nan], [0.0, 1.0]]):
            with pytest.raises(ValueError):
                ReducedModel(r, [1.0, 1.0], 1.0)

    def test_reduce_identity(self):
        rm = reduce(LinearModel(np.eye(2), 1.0), [0.3, -0.7])
        np.testing.assert_array_equal(rm.r, np.eye(2))
        np.testing.assert_array_equal(rm.ytilde, [0.3, -0.7])

    def test_reduce_scaled_identity(self):
        rm = reduce(LinearModel(2.0 * np.eye(2), 0.5), [2.0, 4.0])
        np.testing.assert_array_equal(rm.r, 2.0 * np.eye(2))
        np.testing.assert_array_equal(rm.ytilde, [2.0, 4.0])
        assert rm.sigma == 0.5

    def test_reduce_column_swapped_identity(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        rm = reduce(LinearModel(a, 1.0), [5.0, 7.0])
        np.testing.assert_allclose(rm.r, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(rm.ytilde, [7.0, 5.0], atol=1e-15)

    def test_reduce_noiseless_consistency(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 2))
        model = LinearModel(a, 1.0)
        xhat = np.array([1, 2])
        rm = reduce(model, a @ xhat)
        assert np.max(np.abs(rm.ytilde - rm.r @ xhat)) <= 1e-12

    def test_observe(self):
        model = LinearModel(np.eye(2), 1.0)
        np.testing.assert_array_equal(observe(model, [1, 2], [0.0, 0.0]), [1.0, 2.0])
        np.testing.assert_allclose(observe(model, [1, 2], [0.1, -0.1]), [1.1, 1.9])
        ex1 = LinearModel(EX1, 1.0)
        np.testing.assert_array_equal(observe(ex1, [0, 0], [0.4, 0.4]), [0.4, 0.4])
        with pytest.raises(DimensionMismatchError):
            observe(model, [1, 2, 3], [0.0, 0.0])


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

    def test_noise_moments(self):
        v = sample_noise(1.0, 1_000_000, RngStream(4))
        assert abs(float(np.mean(v))) <= 3e-3
        assert abs(float(np.var(v)) - 1.0) <= 0.01

    def test_noise_determinism_and_scaling(self):
        a = sample_noise(1.0, 1000, RngStream(5))
        b = sample_noise(1.0, 1000, RngStream(5))
        np.testing.assert_array_equal(a, b)
        doubled = sample_noise(2.0, 1000, RngStream(5))
        np.testing.assert_array_equal(doubled, 2.0 * a)

    def test_noise_rejects_bad_sigma(self):
        for sigma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                sample_noise(sigma, 10, RngStream(0))

    def test_models_reject_nonfinite_sigma(self):
        for sigma in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                LinearModel(np.eye(2), sigma)
            with pytest.raises(ValueError, match="finite"):
                ReducedModel(np.eye(2), np.zeros(2), sigma)
