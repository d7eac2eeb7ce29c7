import hashlib
import itertools
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad as sciquad
from scipy.special import ndtr, owens_t
from scipy.stats import multivariate_normal

from boxdet import gaussbox
from boxdet.errors import (
    DimensionMismatchError,
    InvalidConfigError,
    QuadratureDimensionError,
    RankDeficientError,
)
from boxdet.gaussbox import (
    FINITE,
    QUADRATURE_MAX_POINTS,
    IntegratorConfig,
    IntegratorMethod,
    Interval,
    McEstimate,
    box_probability,
)
from boxdet.linalg import qr_positive, validate_upper_triangular
from boxdet.model import BoxConstraint, parse_pattern
from boxdet.rng import RngStream, standard_normal
from boxdet.success import p_br_deterministic, p_br_uniform, phi

EX1 = np.array([[2.0, -1.0], [0.0, 1.0]])
LEFT_INFINITE = Interval(-math.inf, 0.5)
RIGHT_INFINITE = Interval(-0.5, math.inf)
FULL_LINE = Interval(-math.inf, math.inf)
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
        # The tags' floor pairs reach every backend as the interval product
        # (-inf, 1/2] x [-1/2, 1/2] x [-1/2, inf) x full line, bit for bit.
        r = _random_triangular(np.random.default_rng(50), 4)
        ivs = (LEFT_INFINITE, FINITE, RIGHT_INFINITE, FULL_LINE)
        for cfg in (MC, QMC, QUAD):
            assert (p_br_deterministic(r, 0.8, parse_pattern("LIUS"), cfg, RngStream(50))
                    == box_probability(r, 0.8, ivs, cfg, RngStream(50)))

    def test_interval_count_checked(self):
        with pytest.raises(DimensionMismatchError):
            box_probability(np.eye(2), 1.0, (FINITE,), QUAD)

    @pytest.mark.parametrize("empty", [Interval(0.5, 0.5), Interval(1.0, -1.0)])
    def test_empty_interval_rejected(self, empty):
        with pytest.raises(ValueError, match="lo < hi"):
            box_probability(np.eye(2), 1.0, (FINITE, empty), QUAD)


class TestConfig:
    def test_stochastic_needs_samples(self):
        with pytest.raises(InvalidConfigError):
            IntegratorConfig(method=IntegratorMethod.MONTE_CARLO, samples=10)
        IntegratorConfig(method=IntegratorMethod.QUADRATURE, samples=10)
        for method in IntegratorMethod:  # quadrature ignores the count, but not a bad one
            with pytest.raises(InvalidConfigError, match="^samples must be at least 1, got -5$"):
                IntegratorConfig(method=method, samples=-5)

    def test_method_may_be_given_by_value(self):
        # The benchmark workloads build their configs this way.
        assert IntegratorConfig(method="qmc") == IntegratorConfig(method=IntegratorMethod.SEQ_QMC)
        with pytest.raises(ValueError):
            IntegratorConfig(method="simpson")

    def test_stochastic_needs_stream(self):
        with pytest.raises(InvalidConfigError):
            box_probability(np.eye(1), 1.0, (FINITE,), MC, None)
        for cfg in (MC, QMC):
            with pytest.raises(InvalidConfigError):
                p_br_uniform(EX1, 1.0, BoxConstraint.cube(0, 3, 2), cfg, None)

    def test_sigma_must_be_finite(self):
        for sigma in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError, match="sigma"):
                box_probability(EX1, sigma, (FINITE, FINITE), QUAD)

    def test_quad_points_bound(self, monkeypatch):
        # leggauss(m) builds an m x m matrix: a refused count never gets there.
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", None)
        for points in (1, 129, 10 ** 5):
            with pytest.raises(InvalidConfigError, match="quad_points"):
                IntegratorConfig(method=IntegratorMethod.QUADRATURE, quad_points=points)
        assert IntegratorConfig(method=IntegratorMethod.QUADRATURE, quad_points=128)

    def test_quadrature_dimension_cap(self):
        with pytest.raises(QuadratureDimensionError):
            box_probability(np.eye(5), 1.0, (FINITE,) * 5, QUAD)

    def test_quadrature_dimension_cap_after_marginalization(self):
        est = box_probability(np.eye(5), 1.0, (FINITE,) * 4 + (FULL_LINE,), QUAD)
        assert est.value == pytest.approx(phi(1.0, 1.0) ** 4, rel=1e-12)


def _no_sobol(*args, **kwargs):
    raise AssertionError("a Sobol sequence was built")


class TestQmcPointRange:
    """A 30-bit Sobol sequence has 2^30 points; scipy refuses more only
    after drawing them, so a larger count per randomization is refused
    before any sequence is built."""

    @pytest.fixture(autouse=True)
    def sobol_is_never_built(self, monkeypatch):
        monkeypatch.setattr(gaussbox.qmc, "Sobol", _no_sobol)

    def test_a_count_past_the_range_is_refused(self):
        with pytest.raises(InvalidConfigError, match=r"17179869200 samples need 2\^31 "):
            cfg = IntegratorConfig(method="qmc", samples=16 * (2 ** 30 + 1))
            box_probability(EX1, 1.0, (FINITE, FINITE), cfg, RngStream(0))

    def test_the_last_count_in_range_reaches_the_sequence(self):
        cfg = IntegratorConfig(method="qmc", samples=16 * 2 ** 30)
        with pytest.raises(AssertionError, match="Sobol"):
            box_probability(EX1, 1.0, (FINITE, FINITE), cfg, RngStream(0))

    def test_the_uniform_multiplier_reaches_the_check(self):
        # 16 n cfg.samples points: n cfg.samples = 2^31 per randomization.
        cfg = IntegratorConfig(method="qmc", samples=2 ** 29)
        start = time.perf_counter()
        with pytest.raises(InvalidConfigError, match="samples"):
            p_br_uniform(np.eye(4), 1.0, BoxConstraint.cube(0, 1, 4), cfg, RngStream(0))
        assert time.perf_counter() - start < 1.0


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

    @pytest.mark.parametrize("method", list(IntegratorMethod), ids=lambda m: m.value)
    def test_extreme_sigma_gives_the_limit(self, method):
        # sigma^2 and sigma^n leave the float range here, and at 1e-320 so
        # do the limits in units of sigma.  Every backend still gets the
        # limit, without a RuntimeWarning.  32 quadrature nodes resolve a
        # clipped full line to about 4e-8.
        cfg = IntegratorConfig(method=method, samples=4096, quad_points=32)
        r = np.diag([0.7, 1.3, 2.1, 1.0])
        for r_, sigma, ivs, floors, limit in [
            (r, 1e-100, (FINITE,) * 4, None, 1.0),
            (EX1, 1e-300, (LEFT_INFINITE,) * 2, None, 1.0),
            (EX1, 1e-320, (FINITE,) * 2, None, 1.0),
            (r, 1e300, (FINITE,) * 4, None, 0.0),
            (EX1, 1e308, (FINITE,) * 2, None, 0.0),
            (EX1, 1e308, (FINITE,) * 2, [(0.25, 0.25)] * 2, 1.0 / 16.0),  # the floors remain
        ]:
            value = box_probability(r_, sigma, ivs, cfg, RngStream(0), floors).value
            if limit == 0.0:
                assert value == 0.0
            else:
                assert value == pytest.approx(limit, abs=1e-6)

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


class TestOverflowingCovariance:
    """[[t, 1], [0, t]] passes ``validate_upper_triangular`` at any t > 0, but
    its covariance (R^T R)^{-1} holds 1/t^4, past float64 below t = 1e-77."""

    CONFIGS = [IntegratorConfig(method=method, samples=1000) for method in IntegratorMethod]

    @staticmethod
    def _factor(t):
        return np.array([[t, 1.0], [0.0, t]])

    @pytest.mark.parametrize("t", [1e-78, 1e-155, 1e-300])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg.method.value)
    def test_refused_on_every_backend(self, cfg, t):
        r, box = self._factor(t), BoxConstraint.cube(0, 3, 2)
        with pytest.raises(RankDeficientError, match="covariance"):
            p_br_uniform(r, 1.0, box, cfg, RngStream(0))
        with pytest.raises(RankDeficientError, match="covariance"):
            p_br_deterministic(r, 1.0, parse_pattern("LI"), cfg, RngStream(0))

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg.method.value)
    def test_finite_covariance_still_integrates(self, cfg):
        # The error's spread is about 1e150, so only the floors 1/4 remain.
        est = p_br_uniform(self._factor(1e-75), 1.0, BoxConstraint.cube(0, 3, 2), cfg,
                           RngStream(0))
        assert est.value == pytest.approx(0.0625, abs=1e-12)


class TestInverseFactor:
    def test_numpy_inverse_equals_triangular_solve(self):
        # QMC and quadrature take R^{-1} from np.linalg.inv; it must equal
        # the triangular solve bit for bit, or the pinned digests move.
        rng = np.random.default_rng(71)
        for n in range(1, 9):
            for spread in (False, True):
                for _ in range(50):
                    r = _random_triangular(rng, n)
                    if spread:
                        r[np.diag_indices(n)] = 10.0 ** rng.uniform(-6.0, 6.0, n)
                    assert np.array_equal(
                        np.linalg.inv(r),
                        scipy.linalg.solve_triangular(r, np.eye(n), lower=False))

    def test_package_never_calls_scipy_linalg(self):
        """scipy bundles its own OpenBLAS, whose worker thread busy-waits
        after each scipy.linalg call and so takes a core from boxdet's
        thread pool.  No module of the package may name it."""
        package = Path(gaussbox.__file__).resolve().parent
        sources = sorted(package.glob("*.py"))
        assert sources
        offenders = [path.name for path in sources
                     if re.search(r"scipy\.linalg|from scipy import .*\blinalg\b",
                                  path.read_text())]
        assert offenders == []


class TestQmcBatch:
    PRODUCTS = [tuple({"L": LEFT_INFINITE, "I": FINITE, "U": RIGHT_INFINITE}[c] for c in p)
                for p in ("LLI", "III", "LUI", "ILU", "UIL")]

    def _r(self):
        return _random_triangular(np.random.default_rng(51), 3)

    def _estimates(self, r, stream):
        return [box_probability(r, 0.7, ivs, QMC, stream.child(j))
                for j, ivs in enumerate(self.PRODUCTS)]

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        # The sweep draws consecutive blocks of _SWEEP_CHUNK Sobol points;
        # the block size changes only the order of summation.
        whole = self._estimates(self._r(), RngStream(5))
        monkeypatch.setattr(gaussbox, "_SWEEP_CHUNK", 64)
        for est, ref in zip(self._estimates(self._r(), RngStream(5)), whole):
            assert est.value == pytest.approx(ref.value, rel=1e-12)
            assert est.stderr == pytest.approx(ref.stderr, rel=1e-9)
            assert est.samples == ref.samples

    def test_matches_scipy(self):
        r = self._r()
        for ivs, est in zip(self.PRODUCTS, self._estimates(r, RngStream(6))):
            lo = np.array([iv.lo for iv in ivs])
            hi = np.array([iv.hi for iv in ivs])
            assert abs(est.value - _mvn_oracle(r, 0.7, lo, hi)) <= 4 * est.stderr + 1e-5


class TestPrioritizedSweep:
    KINDS = (FINITE, LEFT_INFINITE, RIGHT_INFINITE, Interval(-0.3, 0.3), Interval(-0.2, 1.5))

    def test_helper_returns_the_permuted_factor(self):
        rng = np.random.default_rng(57)
        for n in range(1, 9):
            for spread in (False, True):
                for _ in range(20):
                    r = _random_triangular(rng, n)
                    if spread:
                        r[np.diag_indices(n)] = 10.0 ** rng.uniform(-6.0, 6.0, n)
                    ivs = [self.KINDS[k] for k in rng.integers(0, len(self.KINDS), n)]
                    floor = np.where(rng.random((n, 2)) < 0.5, 0.0, rng.random((n, 2)))
                    sigma = float(10.0 ** rng.uniform(-2.0, 1.0))
                    lo = np.array([iv.lo for iv in ivs]) / sigma  # limits in units of sigma
                    hi = np.array([iv.hi for iv in ivs]) / sigma
                    inv = np.linalg.inv(r)
                    order, rp, lo_p, hi_p, floor_p = gaussbox._prioritized(
                        r, inv @ inv.T, lo, hi, floor)
                    assert sorted(order.tolist()) == list(range(n))
                    validate_upper_triangular(rp)
                    # The sweep conditions the last column of R' first.
                    columns = r[:, order[::-1]]
                    gram = columns.T @ columns
                    assert (np.linalg.norm(rp.T @ rp - gram)
                            <= 1e-12 * np.linalg.norm(gram))
                    assert np.array_equal(lo_p, lo[order])
                    assert np.array_equal(hi_p, hi[order])
                    assert np.array_equal(floor_p, floor[order])

    def test_most_constrained_coordinate_is_swept_first(self):
        # The greedy order puts the least mass first; ties keep index order.
        ivs = np.array([0.9, 0.2, 0.5])
        order = gaussbox._prioritized(np.eye(3), np.eye(3), -ivs, ivs, np.zeros((3, 2)))[0]
        assert order.tolist() == [1, 2, 0]
        same = np.full(3, 0.5)
        order = gaussbox._prioritized(np.eye(3), np.eye(3), -same, same, np.zeros((3, 2)))[0]
        assert order.tolist() == [0, 1, 2]

    def test_column_permuted_twin_agrees(self):
        rng = np.random.default_rng(58)
        for case in range(12):
            n = 3 + case % 3
            r = _random_triangular(rng, n)
            sigma = float(rng.uniform(0.3, 1.0))
            perm = rng.permutation(n)
            if case % 2:  # an L/I/U pattern
                ivs = [(LEFT_INFINITE, FINITE, RIGHT_INFINITE)[k]
                       for k in rng.integers(0, 3, n)]
                floors = np.zeros((n, 2))
            else:  # a floor-weighted uniform cell
                ivs = [FINITE] * n
                floors = np.repeat(1.0 / (rng.integers(1, 4, n) + 1.0)[:, None], 2, axis=1)
            est = box_probability(r, sigma, ivs, QMC, RngStream(58, (case, 0)), floors)
            twin = box_probability(qr_positive(r[:, perm])[1], sigma, [ivs[p] for p in perm], QMC,
                                   RngStream(58, (case, 1)), floors[perm])
            assert (abs(est.value - twin.value)
                    <= 3 * math.hypot(est.stderr, twin.stderr) + 1e-12)

    def test_uniform_identical_across_thread_counts(self, monkeypatch):
        # The order is fixed before the randomizations are mapped; the
        # singleton coordinate is integrated out first.
        r = _random_triangular(np.random.default_rng(59), 5)
        box = BoxConstraint([0, 0, 2, 0, 0], [3, 1, 2, 2, 3])
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("BOXDET_THREADS", threads)
            outputs.append(p_br_uniform(r, 0.4, box, QMC, RngStream(59)))
        assert outputs[0] == outputs[1]
        assert outputs[0].stderr > 0.0


class TestQuadratureBatch:
    IVS = (FINITE, LEFT_INFINITE, Interval(-0.8, 0.8))
    FLOORS = ((0.75, 0.75), (0.1, 0.1), (0.0, 0.0))

    def test_rows_equal_single_products(self):
        # The sweep equals the coefficient-weighted sum over the products of
        # interval terms, g = a_l 1(t <= hi) + (1 - (a_l + a_r))
        # 1(lo <= t <= hi) + a_r 1(t >= lo); with 0.75 on both sides the
        # middle coefficient is negative.
        r = _random_triangular(np.random.default_rng(52), 3)
        terms = [[(left, Interval(-math.inf, iv.hi)), (1 - (left + right), iv),
                  (right, Interval(iv.lo, math.inf))]
                 for iv, (left, right) in zip(self.IVS, self.FLOORS)]
        expected = sum(
            math.prod(c for c, _ in row)
            * box_probability(r, 0.7, tuple(iv for _, iv in row), QUAD).value
            for row in itertools.product(*terms) if all(c for c, _ in row))
        est = box_probability(r, 0.7, self.IVS, QUAD, None, self.FLOORS)
        assert est.value == pytest.approx(expected, rel=1e-14)
        # The swept coordinates, the last two, carry one and three terms.
        assert est.samples == 3 * QUAD.quad_points ** 2

    def test_ill_conditioned_factor(self):
        # R = [[1, 1], [0, 0.01]] puts the density on a narrow ridge.  With
        # v = R xi standard normal, the LU pattern's probability is the 1-D
        # integral of phi(v2) Phi(0.5 + 100 v2) over v2 >= -0.005.
        r = np.array([[1.0, 1.0], [0.0, 0.01]])
        exact = sum(sciquad(lambda v: math.exp(-0.5 * v * v) / math.sqrt(2 * math.pi)
                            * ndtr(0.5 + 100 * v), a, b, epsabs=1e-13)[0]
                    for a, b in ((-0.005, 0.1), (0.1, math.inf)))
        est = p_br_deterministic(r, 1.0, parse_pattern("LU"), QUAD)
        assert abs(est.value - exact) < 1e-4
        assert est.stderr == 0.0

    def test_block_diagonal_factorizes(self):
        # Every L/I/U pattern of two copies of the example side by side is
        # the product of the two 2-D integrals.
        r = np.kron(np.eye(2), EX1)
        patterns = ["".join(p) for p in itertools.product("LIU", repeat=4)]
        full = [p_br_deterministic(r, 1.0, parse_pattern(p), QUAD) for p in patterns]
        halves = {p: p_br_deterministic(EX1, 1.0, parse_pattern(p), QUAD).value
                  for p in ("".join(q) for q in itertools.product("LIU", repeat=2))}
        for p, est in zip(patterns, full):
            assert abs(est.value - halves[p[:2]] * halves[p[2:]]) < 1e-12
        assert full[0].samples == QUAD.quad_points ** 3

    def test_zero_and_unit_floor_digest(self):
        # Pins the value bits and node counts of integrals whose floors are
        # all 0 or 1 at n = 1-4 and 2, 8, 33 and 64 nodes: finite,
        # half-infinite and full-line intervals, a 4-D product swept in
        # slices, and a last product that marginalizes two coordinates.
        kinds = (FINITE, LEFT_INFINITE, RIGHT_INFINITE, Interval(-0.3, 1.2), FULL_LINE)
        pairs = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        rng = np.random.default_rng(57)
        ests = []
        for n in range(1, 5):
            for points in (2, 8, 33, 64):
                cfg = IntegratorConfig(method="quad", quad_points=points)
                r = _random_triangular(rng, n)
                sigma = float(rng.uniform(0.3, 1.5))
                ivs = tuple(kinds[k] for k in rng.integers(0, 5, n))
                floors = tuple(pairs[k] for k in rng.integers(0, 4, n))
                ests += [box_probability(r, sigma, ivs, cfg),
                         box_probability(r, sigma, ivs, cfg, None, floors)]
        r = _random_triangular(rng, 4)
        ests.append(box_probability(r, 0.8, kinds[:4], QUAD))
        ests.append(box_probability(r, 0.8, (FULL_LINE, FINITE, LEFT_INFINITE, RIGHT_INFINITE),
                                    QUAD, None, ((0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0))))
        assert [e.samples for e in ests[-2:]] == [QUAD.quad_points ** 3, QUAD.quad_points]
        outputs = repr([(e.value, e.stderr, e.samples) for e in ests])
        assert hashlib.sha256(outputs.encode()).hexdigest() == (
            "438927ae880dc1370c355c2639678623711225913bab3378e40c9d611d22e18b")


def test_every_backend_output_digest():
    # Pins value, stderr, sample count and stream label of 100 seeded
    # problems on all three backends, quadrature's refusal above n = 4 by
    # its message: n = 1-8, finite, half-infinite, shifted and full-line
    # intervals, diagonals from 1e-3 to 1e3, and by turns zero floors,
    # floors of 0, 1 or a fraction per side, and equal fractional pairs.
    kinds = (FINITE, LEFT_INFINITE, RIGHT_INFINITE, Interval(-0.3, 1.2), FULL_LINE)
    mc = IntegratorConfig(method="mc", samples=2000)
    qmc = IntegratorConfig(method="qmc", samples=1024)
    rng = np.random.default_rng(83)
    outputs = []
    for case in range(100):
        n = 1 + case % 8
        r = _random_triangular(rng, n)
        r[np.diag_indices(n)] = 10.0 ** rng.uniform(-3.0, 3.0, n)
        sigma = float(10.0 ** rng.uniform(-1.0, 0.5))
        ivs = tuple(kinds[k] for k in rng.integers(0, len(kinds), n))
        if case % 3 == 0:
            floors = np.zeros((n, 2))
        elif case % 3 == 1:
            floors = np.where(rng.random((n, 2)) < 0.5, rng.integers(0, 2, (n, 2)),
                              rng.random((n, 2)))
        else:
            floors = np.repeat(1.0 / (rng.integers(1, 4, n) + 1.0)[:, None], 2, axis=1)
        quad = IntegratorConfig(method="quad", quad_points=(8, 16, 33)[case % 3])
        for cfg in (mc, qmc, quad):
            try:
                e = box_probability(r, sigma, ivs, cfg, RngStream(83, (case,)), floors)
            except QuadratureDimensionError as exc:
                outputs.append(str(exc))
            else:
                outputs.append((e.value, e.stderr, e.samples, e.seed))
    assert sum(isinstance(out, str) for out in outputs) == 32
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == (
        "374e067b63184607079d9fc2f5d42a06d3a4ff6f010e96a110be22944f49478c")


def _traced_peak(call):
    """call()'s result and the peak bytes tracemalloc saw allocated during it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """MC and quadrature work on at most gaussbox._WORK_COLUMNS samples or
    product nodes per array (quadrature: max(cap, the product nodes of the
    middle coordinates), m^(n-2) on zero floors)."""

    CASES = [
        (3, (FINITE, LEFT_INFINITE, Interval(-0.3, 1.2)), None),
        (4, (RIGHT_INFINITE, FINITE, FULL_LINE, Interval(-2.0, -0.1)),
         ((0.25, 0.25), (0.0, 0.0), (0.0, 0.0), (0.5, 0.5))),
        (6, (FINITE,) * 6, ((0.8, 0.8), (0.0, 0.0), (0.5, 0.1), (0.0, 0.0), (0.0, 0.25), (0.0, 0.0))),
    ]

    @pytest.mark.parametrize("n, ivs, floors", CASES)
    def test_mc_cap_keeps_every_bit(self, monkeypatch, n, ivs, floors):
        # A cap that divides neither the 2^16 block nor the last, partial one.
        r = _random_triangular(np.random.default_rng(60 + n), n)
        cfg = IntegratorConfig(method="mc", samples=70_001)
        whole = box_probability(r, 0.8, ivs, cfg, RngStream(n), floors)
        monkeypatch.setattr(gaussbox, "_WORK_COLUMNS", 1000)
        sliced = box_probability(r, 0.8, ivs, cfg, RngStream(n), floors)
        assert (sliced.value, sliced.stderr, sliced.samples) == (
            whole.value, whole.stderr, whole.samples)

    @pytest.mark.parametrize("n, points", [(3, 16), (3, 33), (4, 16)])
    def test_quadrature_cap_moves_only_rounding(self, monkeypatch, n, points):
        r = _random_triangular(np.random.default_rng(70 + n), n)
        cfg = IntegratorConfig(method="quad", quad_points=points)
        kinds = (FINITE, LEFT_INFINITE, RIGHT_INFINITE)
        products = list(itertools.product(kinds, repeat=n))[::5]
        whole = [box_probability(r, 0.9, ivs, cfg) for ivs in products]
        floored = box_probability(r, 0.9, (FINITE,) * n, cfg, None, ((0.5, 0.5),) * n)
        # Slices of 4, of 2 (the last one of 1) and of 1 first-coordinate node.
        monkeypatch.setattr(gaussbox, "_WORK_COLUMNS", 70)
        for ivs, ref in zip(products, whole):
            est = box_probability(r, 0.9, ivs, cfg)
            assert abs(est.value - ref.value) <= 2e-16
            assert est.samples == ref.samples
        est = box_probability(r, 0.9, (FINITE,) * n, cfg, None, ((0.5, 0.5),) * n)
        assert abs(est.value - floored.value) <= 2e-16

    def test_quadrature_at_128_nodes_in_4d(self):
        # All at once, the 128^3 product nodes took 144 MiB.
        cfg = IntegratorConfig(method="quad", quad_points=QUADRATURE_MAX_POINTS)
        r = np.kron(np.eye(2), EX1)
        est, peak = _traced_peak(lambda: p_br_deterministic(r, 1.0, parse_pattern("LIUL"), cfg))
        assert peak < 8 * 2 ** 20
        halves = [p_br_deterministic(EX1, 1.0, parse_pattern(p), cfg).value
                  for p in ("LI", "UL")]
        assert abs(est.value - halves[0] * halves[1]) < 1e-12

    def test_floored_quadrature_at_64_nodes_in_4d(self):
        # The uniform law on box 0..3 gives every coordinate three terms, so
        # a slice holds the (3 m)^2 product nodes of the two middle
        # coordinates; about 11 doubles each were seen, 3.1 MiB.
        cfg = IntegratorConfig(method="quad", quad_points=64)
        r = _random_triangular(np.random.default_rng(81), 4)
        est, peak = _traced_peak(lambda: p_br_uniform(r, 0.7, BoxConstraint.cube(0, 3, 4), cfg))
        assert peak < 16 * 8 * (3 * 64) ** 2
        assert est.samples == (3 * 64) ** 3

    def test_mc_memory_does_not_grow_with_the_block(self, monkeypatch):
        # One serial 2^16-sample block at n = 8: 8192-sample parts, drawn and
        # solved, and the block's 512 KiB g.  Drawn whole, the block's 4 MiB
        # of normals took the peak to 5.7 MiB; solved whole too, to 9 MiB.
        monkeypatch.setenv("BOXDET_THREADS", "1")
        r = _random_triangular(np.random.default_rng(80), 8)
        cfg = IntegratorConfig(method="mc", samples=1_000_000)
        _, peak = _traced_peak(lambda: box_probability(r, 1.0, (FINITE,) * 8, cfg, RngStream(80)))
        assert peak < 3 * 2 ** 20


class TestFloorWeights:
    IVS = TestQuadratureBatch.IVS
    FLOORS = (((0.25, 0.25), (0.5, 0.5), (0.0, 0.0)), ((0.75, 0.75), (0.1, 0.1), (1.0, 1.0)))

    def _expanded(self, r, sigma, floors):
        """E[prod_i (a_i + (1 - a_i) 1_i)] for equal floors a_i on both sides,
        expanded over the subsets S of coordinates held to their intervals,
        each a scipy probability with the other coordinates on the full
        line."""
        total = 0.0
        for held in itertools.product((False, True), repeat=3):
            coef = math.prod((1 - a) if h else a for (a, _), h in zip(floors, held))
            lo = np.array([iv.lo if h else -math.inf for iv, h in zip(self.IVS, held)])
            hi = np.array([iv.hi if h else math.inf for iv, h in zip(self.IVS, held)])
            total += coef * (_mvn_oracle(r, sigma, lo, hi) if any(held) else 1.0)
        return total

    def test_matches_subset_expansion(self):
        r = _random_triangular(np.random.default_rng(54), 3)
        for floors in self.FLOORS:
            expected = self._expanded(r, 0.7, floors)
            for cfg in (MC, QMC, QUAD):
                est = box_probability(r, 0.7, self.IVS, cfg, RngStream(9), floors)
                assert abs(est.value - expected) <= 4 * est.stderr + 1e-5

    def test_zero_floors_keep_the_box_probability(self):
        r = _random_triangular(np.random.default_rng(55), 3)
        for cfg in (MC, QMC, QUAD):
            assert (box_probability(r, 0.7, self.IVS, cfg, RngStream(9), np.zeros((3, 2)))
                    == box_probability(r, 0.7, self.IVS, cfg, RngStream(9)))

    def test_unit_floors_give_one(self):
        # Quadrature integrates a unit floor as the full line; the default
        # 64-node rule resolves it to 1 after clipping.
        for cfg in (MC, QMC, QUAD):
            est = box_probability(EX1, 0.7, (FINITE, FINITE), cfg, RngStream(9), ((1.0, 1.0),) * 2)
            assert est.value == 1.0 and est.stderr == 0.0

    def test_unit_floors_give_one_on_a_coarse_rule(self):
        # Full-line coordinates are integrated out exactly, so no node rule
        # sees them (8 Gauss-Legendre nodes on +-10 sd once read 0.538).
        coarse = IntegratorConfig(method=IntegratorMethod.QUADRATURE, quad_points=8)
        for cfg in (MC, QMC, coarse):
            est = box_probability(EX1, 0.7, (FINITE, FINITE), cfg, RngStream(9), ((1.0, 1.0),) * 2)
            assert est.value == 1.0 and est.stderr == 0.0

    def test_full_line_coordinates_are_marginalized(self):
        # With every other coordinate on the full line, xi_i keeps its
        # marginal N(0, Sigma_ii), whose interval mass is closed form.
        r = _random_triangular(np.random.default_rng(56), 4)
        sd = 0.7 * np.sqrt(np.diag(np.linalg.inv(r.T @ r)))
        for i in range(4):
            ivs = tuple(FINITE if j == i else LEFT_INFINITE for j in range(4))
            floors = tuple((0.0, 0.0) if j == i else (1.0, 1.0) for j in range(4))
            expected = math.erf(0.5 / (math.sqrt(2.0) * sd[i]))
            coarse = IntegratorConfig(method=IntegratorMethod.QUADRATURE, quad_points=8)
            for cfg in (coarse, QMC):
                est = box_probability(r, 0.7, ivs, cfg, RngStream(9), floors)
                assert est.value == pytest.approx(expected, abs=1e-12)
            est = box_probability(r, 0.7, ivs, MC, RngStream(9), floors)
            assert abs(est.value - expected) <= 3 * est.stderr

    def test_validation(self):
        # One pair per coordinate, each weight in [0, 1]; (0.5, 0.5) is one
        # weight per coordinate, which no longer reads as two pairs.
        for floors in (((0.5, 0.5),), (0.5, 0.5), ((0.5, 0.5), (0.0, 1.5)),
                       ((-0.1, 0.0), (0.0, 0.0)), ((0.0, math.nan), (0.0, 0.0))):
            for cfg in (QMC, QUAD):
                with pytest.raises(ValueError, match="floors"):
                    box_probability(EX1, 0.7, (FINITE, FINITE), cfg, RngStream(9), floors)


def _product_bound_sides(r, sigma, a, tail):
    """Both sides of Pr(|xi_1| <= a, xi_tail in T) <= phi(2 a r_11) Pr(xi'_tail in T),
    where xi' uses the trailing block of R."""
    lhs = box_probability(r, sigma, (Interval(-a, a),) + tail, QUAD).value
    rhs = phi(2.0 * a * r[0, 0], sigma) * box_probability(r[1:, 1:], sigma, tail, QUAD).value
    return lhs, rhs


class TestProductBoundCheck:
    def test_diagonal_equality(self):
        r = np.diag([1.1, 0.8, 1.7])
        lhs, rhs = _product_bound_sides(r, 0.9, 0.5, (FINITE, RIGHT_INFINITE))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_example_matrix(self):
        lhs, rhs = _product_bound_sides(EX1, 1.0, 0.5, (FINITE,))
        assert lhs <= rhs + 1e-9 * rhs

    def test_random_instances(self):
        rng = np.random.default_rng(41)
        kinds = [FINITE, LEFT_INFINITE, RIGHT_INFINITE]
        for k in range(10):
            r = _random_triangular(rng, 3)
            sigma = float(rng.uniform(0.4, 1.2))
            a = [0.25, 0.5, 1.0][k % 3]
            tail = tuple(kinds[rng.integers(0, 3)] for _ in range(2))
            lhs, rhs = _product_bound_sides(r, sigma, a, tail)
            assert lhs <= rhs * (1 + 1e-9)


class TestMcEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            McEstimate(0.5, -1.0, 10, "s")
        with pytest.raises(ValueError):
            McEstimate(0.5, 0.1, -1, "s")


def _bvn_below(h, k, rho):
    """P(X <= h, Y <= k) for standard normals of correlation rho, from
    Owen's T function (Owen, Ann. Math. Stat. 27, 1956); h, k nonzero."""
    if h == -math.inf or k == -math.inf:
        return 0.0
    if h == math.inf or k == math.inf:
        return float(ndtr(min(h, k)))
    root = math.sqrt(1.0 - rho * rho)
    beta = 0.5 if h * k < 0.0 else 0.0
    return float(0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, (k - rho * h) / (h * root))
                 - owens_t(k, (h - rho * k) / (k * root)) - beta)


def _owen_probability(r, sigma, floors):
    """Exact E[g_1(xi_1) g_2(xi_2)] in 2-D for the interval [-1/2, 1/2] on
    both coordinates: the nine products of the regions below, on and above
    it, each a rectangle by inclusion-exclusion, weighted by the floors."""
    cov = sigma ** 2 * np.linalg.inv(r.T @ r)
    sd = np.sqrt(np.diag(cov))
    rho = cov[0, 1] / (sd[0] * sd[1])

    def below(h, k):
        return _bvn_below(h / sd[0], k / sd[1], rho)

    def regions(left, right):
        return ((left, -math.inf, -0.5), (1.0, -0.5, 0.5), (right, 0.5, math.inf))

    return sum(c1 * c2 * (below(b1, b2) - below(a1, b2) - below(b1, a2) + below(a1, a2))
               for (c1, a1, b1), (c2, a2, b2) in itertools.product(*map(regions, *zip(*floors))))


def _floor_pairs(rng, n):
    """n pairs from [0, 1]^2, one-sided (0, a) and (a, 0) among them."""
    pairs = rng.random((n, 2))
    side = rng.integers(0, 3, n)  # 0: both sides, 1: (0, a), 2: (a, 0)
    pairs[side == 1, 0] = 0.0
    pairs[side == 2, 1] = 0.0
    return pairs


class TestAsymmetricFloors:
    """g_i is a_left below [-1/2, 1/2], 1 on it and a_right above it: each
    backend against the exact 2-D value, and against each other in 3-D and
    4-D."""

    QMC = IntegratorConfig(method=IntegratorMethod.SEQ_QMC, samples=4096)

    def _cases(self):
        yield EX1, 1.0, np.array([[1.0, 0.0], [1.0, 0.0]])  # the example's LL pattern
        yield EX1, 1.0, np.array([[0.3, 0.0], [0.0, 0.8]])
        rng = np.random.default_rng(90)
        for _ in range(20):
            r = np.array([[rng.uniform(0.5, 2.0), rng.standard_normal()],
                          [0.0, rng.uniform(0.5, 2.0)]])
            yield r, float(rng.uniform(0.3, 1.5)), _floor_pairs(rng, 2)

    def test_oracle_reads_the_example(self):
        # 0.61918513712882 agrees with an adaptive 1-D quadrature to 9 digits.
        exact = _owen_probability(EX1, 1.0, [(1.0, 0.0), (1.0, 0.0)])
        assert exact == pytest.approx(0.61918513712882, abs=1e-13)

    def test_two_dimensions_match_the_owen_oracle(self, monkeypatch):
        # One thread, so the sweeps run under this thread's errstate: no
        # floating-point flag may be raised, one-sided pairs included.
        monkeypatch.setenv("BOXDET_THREADS", "1")
        for case, (r, sigma, pairs) in enumerate(self._cases()):
            exact = _owen_probability(r, sigma, pairs)
            with np.errstate(all="raise"):
                quad = box_probability(r, sigma, (FINITE, FINITE), QUAD, None, pairs)
                qmc = box_probability(r, sigma, (FINITE, FINITE), self.QMC,
                                      RngStream(90, (case,)), pairs)
            assert abs(quad.value - exact) <= 1e-9, (case, pairs)
            assert abs(qmc.value - exact) <= 3 * qmc.stderr + 1e-12, (case, pairs)

    def test_qmc_is_unbiased_at_many_points(self):
        # A Sobol point read as its cell's corner biases the estimate by about
        # 2^-31 per coordinate, which outruns the stderr at 2^20 samples.  With
        # 15 degrees of freedom |value - exact| > 3 se has probability 0.009,
        # so 3 or more of 30 seeds would have probability 0.002.
        floors = [(1.0, 0.0), (1.0, 0.0)]  # the example's LL pattern
        exact = _owen_probability(EX1, 1.0, floors)
        cfg = IntegratorConfig(method=IntegratorMethod.SEQ_QMC, samples=1 << 20)
        ests = [box_probability(EX1, 1.0, (FINITE, FINITE), cfg, RngStream(seed), floors)
                for seed in range(30)]
        assert sum(abs(e.value - exact) > 3 * e.stderr for e in ests) <= 2

    @pytest.mark.parametrize("n", [3, 4])
    def test_backends_agree(self, monkeypatch, n):
        monkeypatch.setenv("BOXDET_THREADS", "1")
        rng = np.random.default_rng(91 + n)
        mc_cfg = IntegratorConfig(method=IntegratorMethod.MONTE_CARLO, samples=100_000)
        quad = IntegratorConfig(method=IntegratorMethod.QUADRATURE, quad_points=32)
        for case in range(4):
            r = np.triu(rng.uniform(-0.5, 0.5, (n, n)))
            r[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n)
            sigma = float(rng.uniform(0.3, 1.5))
            pairs = _floor_pairs(rng, n)
            with np.errstate(all="raise"):
                ests = [box_probability(r, sigma, (FINITE,) * n, cfg, RngStream(91, (n, case)),
                                        pairs) for cfg in (mc_cfg, self.QMC, quad)]
            for one, other in itertools.combinations(ests, 2):
                assert (abs(one.value - other.value)
                        <= 3 * math.hypot(one.stderr, other.stderr)), (n, case, pairs)


class TestMcReference:
    """Floored MC against a plain per-sample product over coordinates,
    recomputed from the same ``standard_normal(stream.child(k), ...)`` draws
    of the 2^16-sample blocks."""

    FLOORS = np.array([[0.0, 0.0], [0.25, 0.25], [1.0 / 3.0, 1.0 / 3.0], [0.5, 0.1]])
    IVS = (LEFT_INFINITE, FINITE, Interval(-0.3, 1.2), FINITE)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_value_and_stderr(self, monkeypatch, threads):
        monkeypatch.setenv("BOXDET_THREADS", threads)
        n, sigma, samples, block = 4, 0.8, 3 * 2 ** 16 + 1234, 2 ** 16  # a partial last block
        r = _random_triangular(np.random.default_rng(95), n)
        stream = RngStream(95)
        est = box_probability(r, sigma, self.IVS, IntegratorConfig(method="mc", samples=samples),
                              stream, self.FLOORS)
        g = []
        for k, start in enumerate(range(0, samples, block)):
            z = standard_normal(stream.child(k), (min(block, samples - start), n))
            xi = sigma * np.linalg.solve(r, z.T)  # one column per sample
            factors = [np.select([x < iv.lo, x > iv.hi], [left, right], 1.0)
                       for x, iv, (left, right) in zip(xi, self.IVS, self.FLOORS)]
            g.append(np.prod(factors, axis=0))
        g = np.concatenate(g)
        assert est.value == pytest.approx(np.mean(g), rel=1e-13, abs=0.0)
        assert est.stderr == pytest.approx(math.sqrt(np.var(g) / samples), rel=1e-13, abs=0.0)
        assert est.samples == samples
