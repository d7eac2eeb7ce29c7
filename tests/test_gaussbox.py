import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad as sciquad
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from boxdet import gaussbox
from boxdet.errors import (
    DimensionMismatchError,
    InvalidConfigError,
    QuadratureDimensionError,
)
from boxdet.gaussbox import (
    FINITE,
    FULL_LINE,
    LEFT_INFINITE,
    RIGHT_INFINITE,
    IntegratorConfig,
    IntegratorMethod,
    Interval,
    McEstimate,
    box_probabilities,
    box_probability,
    check_product_bound,
    intervals_from_pattern,
    symmetric,
)
from boxdet.model import parse_pattern
from boxdet.rng import RngStream
from boxdet.success import phi

EX1 = np.array([[2.0, -1.0], [0.0, 1.0]])
QUAD = IntegratorConfig(method=IntegratorMethod.QUADRATURE)
MC = IntegratorConfig(method=IntegratorMethod.MONTE_CARLO, samples=200_000)
QMC = IntegratorConfig(method=IntegratorMethod.SEQ_QMC, samples=8192)


def _random_triangular(rng, n, diag_lo=0.4, diag_hi=2.0):
    r = np.triu(rng.standard_normal((n, n)))
    r[np.diag_indices(n)] = rng.uniform(diag_lo, diag_hi, n)
    return r


def _mvn_oracle(r, sigma, lo, hi):
    cov = sigma ** 2 * np.linalg.inv(r.T @ r)
    dist = multivariate_normal(mean=np.zeros(r.shape[0]), cov=cov)
    finite_lo = np.where(np.isfinite(lo), lo, -100.0)
    finite_hi = np.where(np.isfinite(hi), hi, 100.0)
    return float(dist.cdf(finite_hi, lower_limit=finite_lo))


class TestIntervals:
    def test_pattern_mapping(self):
        ivs = intervals_from_pattern(parse_pattern("LIUS"))
        assert ivs == (LEFT_INFINITE, FINITE, RIGHT_INFINITE, FULL_LINE)

    def test_symmetric(self):
        assert symmetric(0.5) == Interval(-0.5, 0.5)
        with pytest.raises(ValueError):
            symmetric(0.0)

    def test_interval_count_checked(self):
        with pytest.raises(DimensionMismatchError):
            box_probability(np.eye(2), 1.0, (FINITE,), QUAD)


class TestConfig:
    def test_stochastic_needs_samples(self):
        with pytest.raises(InvalidConfigError):
            IntegratorConfig(method=IntegratorMethod.MONTE_CARLO, samples=10)
        IntegratorConfig(method=IntegratorMethod.QUADRATURE, samples=10)

    def test_stochastic_needs_stream(self):
        with pytest.raises(InvalidConfigError):
            box_probability(np.eye(1), 1.0, (FINITE,), MC, None)

    def test_sigma_must_be_finite(self):
        for sigma in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError, match="sigma"):
                box_probability(EX1, sigma, (FINITE, FINITE), QUAD)
            with pytest.raises(ValueError, match="sigma"):
                check_product_bound(EX1, sigma, 0.5, (FINITE,), QUAD)

    def test_quadrature_dimension_cap(self):
        with pytest.raises(QuadratureDimensionError):
            box_probability(np.eye(5), 1.0, (FINITE,) * 5, QUAD)


class TestBoxProbability:
    def test_scalar_finite_interval(self):
        est = box_probability(np.eye(1), 1.0, (FINITE,), QUAD)
        assert abs(est.value - phi(1.0, 1.0)) < 1e-12
        assert abs(est.value - 0.382925) < 1e-6

    def test_example_all_lower(self):
        est = box_probability(EX1, 1.0, (LEFT_INFINITE, LEFT_INFINITE), QUAD)
        assert abs(est.value - 0.6192) < 1e-3

    def test_diagonal_factorizes(self):
        diag = np.array([0.7, 1.3, 2.1])
        r = np.diag(diag)
        expected = float(np.prod([phi(d, 0.8) for d in diag]))
        stream = RngStream(10)
        for cfg in (QUAD, MC, QMC):
            est = box_probability(r, 0.8, (FINITE,) * 3, cfg, stream)
            assert abs(est.value - expected) <= max(3 * est.stderr, 1e-9)

    def test_full_line_normalization(self):
        ivs = (FULL_LINE, FULL_LINE)
        for cfg in (MC, QMC):
            est = box_probability(EX1, 0.6, ivs, cfg, RngStream(1))
            assert est.value == 1.0
            assert est.stderr == 0.0
        est = box_probability(EX1, 0.6, ivs, QUAD)
        assert abs(est.value - 1.0) < 1e-12

    def test_monotone_in_interval_enlargement(self):
        chains = [
            ((FINITE, FINITE), (LEFT_INFINITE, FINITE), (FULL_LINE, FINITE)),
            ((FINITE, FINITE), (FINITE, RIGHT_INFINITE), (FINITE, FULL_LINE)),
        ]
        for chain in chains:
            values = [
                box_probability(EX1, 0.7, ivs, QUAD).value for ivs in chain
            ]
            assert values[0] <= values[1] <= values[2]

    def test_quadrature_at_extreme_sigma(self):
        # sigma^2 and sigma^n leave the float range here; the quadrature
        # works in units of sigma and still gets the limits 1 and 0.  32
        # nodes resolve a clipped full line to about 4e-8.
        quad = IntegratorConfig(method=IntegratorMethod.QUADRATURE, quad_points=32)
        r = np.diag([0.7, 1.3, 2.1, 1.0])
        assert box_probability(r, 1e-100, (FINITE,) * 4, quad).value == pytest.approx(
            1.0, abs=1e-6)
        assert box_probability(EX1, 1e-300, (LEFT_INFINITE,) * 2, quad).value == pytest.approx(
            1.0, abs=1e-6)
        assert box_probability(r, 1e300, (FINITE,) * 4, quad).value == 0.0

    def test_mc_stderr_is_binomial(self):
        est = box_probability(np.eye(1), 1.0, (FINITE,), MC, RngStream(3))
        expected = math.sqrt(est.value * (1 - est.value) / est.samples)
        assert est.stderr == pytest.approx(expected, rel=1e-12)
        assert est.samples == MC.samples

    def test_mc_deterministic_across_streams(self):
        est1 = box_probability(EX1, 1.0, (FINITE, FINITE), MC, RngStream(6, (2,)))
        est2 = box_probability(EX1, 1.0, (FINITE, FINITE), MC, RngStream(6, (2,)))
        assert est1 == est2

    def test_against_mvn_oracle(self):
        rng = np.random.default_rng(17)
        kinds = [FINITE, LEFT_INFINITE, RIGHT_INFINITE]
        for _ in range(10):
            n = int(rng.integers(1, 4))
            r = _random_triangular(rng, n)
            sigma = float(rng.uniform(0.3, 1.2))
            ivs = tuple(kinds[rng.integers(0, 3)] for _ in range(n))
            lo = np.array([iv.lo for iv in ivs])
            hi = np.array([iv.hi for iv in ivs])
            oracle = _mvn_oracle(r, sigma, lo, hi)
            est = box_probability(r, sigma, ivs, QUAD)
            assert abs(est.value - oracle) < 2e-4

    def test_product_rule_upper_bound(self):
        # with all-finite intervals the probability cannot exceed the
        # product of per-coordinate interval masses
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            r = _random_triangular(rng, n)
            sigma = float(rng.uniform(0.3, 1.5))
            est = box_probability(r, sigma, (FINITE,) * n, QUAD)
            bound = float(np.prod([phi(r[i, i], sigma) for i in range(n)]))
            assert est.value <= bound + 1e-9


class TestBackendAgreement:
    def test_pairwise_small(self):
        rng = np.random.default_rng(31)
        kinds = [FINITE, LEFT_INFINITE, RIGHT_INFINITE]
        for k in range(5):
            n = int(rng.integers(1, 4))
            r = _random_triangular(rng, n)
            sigma = float(rng.uniform(0.4, 1.2))
            ivs = tuple(kinds[rng.integers(0, 3)] for _ in range(n))
            stream = RngStream(100 + k)
            ests = [
                box_probability(r, sigma, ivs, cfg, stream.child(i))
                for i, cfg in enumerate((MC, QMC, QUAD))
            ]
            for i in range(3):
                for j in range(i + 1, 3):
                    gap = abs(ests[i].value - ests[j].value)
                    tol = 3 * math.hypot(ests[i].stderr, ests[j].stderr) + 1e-6
                    assert gap <= tol


class TestQmcBatch:
    PRODUCTS = [intervals_from_pattern(parse_pattern(p))
                for p in ("LLI", "III", "LUI", "ILU", "UIL")]

    def _r(self):
        return _random_triangular(np.random.default_rng(51), 3)

    def test_first_product_is_a_batch_of_one(self):
        batch = box_probabilities(self._r(), 0.7, self.PRODUCTS, QMC, RngStream(5))
        single = box_probability(self._r(), 0.7, self.PRODUCTS[0], QMC, RngStream(5))
        assert batch[0] == single
        assert len(batch) == len(self.PRODUCTS)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        args = (self._r(), 0.7, self.PRODUCTS, QMC, RngStream(5))
        whole = box_probabilities(*args)
        monkeypatch.setattr(gaussbox, "_SWEEP_CHUNK", 1)
        assert box_probabilities(*args) == whole

    def test_matches_scipy(self):
        r = self._r()
        batch = box_probabilities(r, 0.7, self.PRODUCTS, QMC, RngStream(6))
        for ivs, est in zip(self.PRODUCTS, batch):
            lo = np.array([iv.lo for iv in ivs])
            hi = np.array([iv.hi for iv in ivs])
            assert abs(est.value - _mvn_oracle(r, 0.7, lo, hi)) <= 4 * est.stderr + 1e-5


class TestQuadratureBatch:
    PRODUCTS = TestQmcBatch.PRODUCTS

    def test_rows_equal_single_products(self, monkeypatch):
        r = _random_triangular(np.random.default_rng(52), 3)
        batch = box_probabilities(r, 0.7, self.PRODUCTS, QUAD)
        assert batch == [box_probability(r, 0.7, ivs, QUAD) for ivs in self.PRODUCTS]
        monkeypatch.setattr(gaussbox, "_SWEEP_CHUNK", 1)
        assert box_probabilities(r, 0.7, self.PRODUCTS, QUAD) == batch

    def test_ill_conditioned_factor(self):
        # R = [[1, 1], [0, 0.01]] puts the density on a narrow ridge.  With
        # v = R xi standard normal, the LU pattern's probability is the 1-D
        # integral of phi(v2) Phi(0.5 + 100 v2) over v2 >= -0.005.
        r = np.array([[1.0, 1.0], [0.0, 0.01]])
        exact = sum(sciquad(lambda v: math.exp(-0.5 * v * v) / math.sqrt(2 * math.pi)
                            * ndtr(0.5 + 100 * v), a, b, epsabs=1e-13)[0]
                    for a, b in ((-0.005, 0.1), (0.1, math.inf)))
        est = box_probability(r, 1.0, intervals_from_pattern(parse_pattern("LU")), QUAD)
        assert abs(est.value - exact) < 1e-4
        assert est.stderr == 0.0

    def test_block_diagonal_factorizes(self):
        # Every L/I/U pattern of two copies of the example side by side is
        # the product of the two 2-D integrals.
        r = np.kron(np.eye(2), EX1)
        patterns = ["".join(p) for p in itertools.product("LIU", repeat=4)]
        full = box_probabilities(r, 1.0, [intervals_from_pattern(parse_pattern(p))
                                          for p in patterns], QUAD)
        halves = {p: box_probability(EX1, 1.0, intervals_from_pattern(parse_pattern(p)),
                                     QUAD).value
                  for p in ("".join(q) for q in itertools.product("LIU", repeat=2))}
        for p, est in zip(patterns, full):
            assert abs(est.value - halves[p[:2]] * halves[p[2:]]) < 1e-12
        assert full[0].samples == QUAD.quad_points ** 3


class TestMcBatch:
    def test_row_j_integrates_on_child_j(self):
        r = _random_triangular(np.random.default_rng(53), 3)
        cfg = IntegratorConfig(method=IntegratorMethod.MONTE_CARLO, samples=4000)
        stream = RngStream(8, (1,))
        batch = box_probabilities(r, 0.7, TestQmcBatch.PRODUCTS, cfg, stream)
        assert batch == [box_probability(r, 0.7, ivs, cfg, stream.child(j))
                         for j, ivs in enumerate(TestQmcBatch.PRODUCTS)]


class TestProductBoundCheck:
    def test_diagonal_equality(self):
        r = np.diag([1.1, 0.8, 1.7])
        lhs, rhs = check_product_bound(r, 0.9, 0.5, (FINITE, RIGHT_INFINITE), QUAD)
        assert lhs.value == pytest.approx(rhs.value, rel=1e-10)

    def test_example_matrix(self):
        lhs, rhs = check_product_bound(EX1, 1.0, 0.5, (FINITE,), QUAD)
        assert lhs.value <= rhs.value + 1e-9 * rhs.value

    def test_random_instances(self):
        rng = np.random.default_rng(41)
        kinds = [FINITE, LEFT_INFINITE, RIGHT_INFINITE]
        for k in range(10):
            r = _random_triangular(rng, 3)
            sigma = float(rng.uniform(0.4, 1.2))
            a = [0.25, 0.5, 1.0][k % 3]
            tail = tuple(kinds[rng.integers(0, 3)] for _ in range(2))
            lhs, rhs = check_product_bound(r, sigma, a, tail, QUAD)
            assert lhs.value <= rhs.value * (1 + 1e-9)

    def test_needs_two_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            check_product_bound(np.eye(1), 1.0, 0.5, (), QUAD)


class TestMcEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            McEstimate(0.5, -1.0, 10, "s")
        with pytest.raises(ValueError):
            McEstimate(0.5, 0.1, -1, "s")
