import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
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
    box_probability,
)
from boxdet.linalg import qr_positive, validate_upper_triangular
from boxdet.model import BoxConstraint, parse_pattern
from boxdet.rng import RngStream
from boxdet.success import intervals_from_pattern, p_br_uniform, phi

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
    PRODUCTS = [intervals_from_pattern(parse_pattern(p))
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
                    lo = np.array([iv.lo for iv in ivs])
                    hi = np.array([iv.hi for iv in ivs])
                    floor = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
                    sigma = float(10.0 ** rng.uniform(-2.0, 1.0))
                    perm, rp, lo_p, hi_p, floor_p = gaussbox._prioritized(
                        r, sigma, lo, hi, floor)
                    assert sorted(perm.tolist()) == list(range(n))
                    validate_upper_triangular(rp)
                    gram = r[:, perm].T @ r[:, perm]
                    assert (np.linalg.norm(rp.T @ rp - gram)
                            <= 1e-12 * np.linalg.norm(gram))
                    assert np.array_equal(lo_p, lo[perm])
                    assert np.array_equal(hi_p, hi[perm])
                    assert np.array_equal(floor_p, floor[perm])

    def test_most_constrained_coordinate_is_swept_first(self):
        # The sweep conditions the last column first, so perm is the
        # greedy order (least mass first) reversed; ties keep index order.
        ivs = np.array([0.9, 0.2, 0.5])
        perm = gaussbox._prioritized(np.eye(3), 1.0, -ivs, ivs, np.zeros(3))[0]
        assert perm.tolist() == [0, 2, 1]
        same = np.full(3, 0.5)
        perm = gaussbox._prioritized(np.eye(3), 1.0, -same, same, np.zeros(3))[0]
        assert perm.tolist() == [2, 1, 0]

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
                floors = np.zeros(n)
            else:  # a floor-weighted uniform cell
                ivs = [FINITE] * n
                floors = 1.0 / (rng.integers(1, 4, n) + 1.0)
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
    FLOORS = (0.75, 0.1, 0.0)

    def test_rows_equal_single_products(self):
        # Floors expand into one batch of interval terms per coordinate,
        # g = a 1(t <= hi) + (1 - 2a) 1(lo <= t <= hi) + a 1(t >= lo); with
        # a = 0.75 the middle coefficient is negative.
        r = _random_triangular(np.random.default_rng(52), 3)
        terms = [[(a, Interval(-math.inf, iv.hi)), (1 - 2 * a, iv), (a, Interval(iv.lo, math.inf))]
                 for iv, a in zip(self.IVS, self.FLOORS)]
        expected = sum(
            math.prod(c for c, _ in row)
            * box_probability(r, 0.7, tuple(iv for _, iv in row), QUAD).value
            for row in itertools.product(*terms) if all(c for c, _ in row))
        est = box_probability(r, 0.7, self.IVS, QUAD, None, self.FLOORS)
        assert est.value == pytest.approx(expected, rel=1e-14)
        assert est.samples == 9 * QUAD.quad_points ** 2

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
        full = [box_probability(r, 1.0, intervals_from_pattern(parse_pattern(p)), QUAD)
                for p in patterns]
        halves = {p: box_probability(EX1, 1.0, intervals_from_pattern(parse_pattern(p)),
                                     QUAD).value
                  for p in ("".join(q) for q in itertools.product("LIU", repeat=2))}
        for p, est in zip(patterns, full):
            assert abs(est.value - halves[p[:2]] * halves[p[2:]]) < 1e-12
        assert full[0].samples == QUAD.quad_points ** 3


class TestFloorWeights:
    IVS = TestQuadratureBatch.IVS
    FLOORS = ((0.25, 0.5, 0.0), (0.75, 0.1, 1.0))

    def _expanded(self, r, sigma, floors):
        """E[prod_i (a_i + (1 - a_i) 1_i)] expanded over the subsets S of
        coordinates held to their intervals, each a scipy probability with
        the other coordinates on the full line."""
        total = 0.0
        for held in itertools.product((False, True), repeat=3):
            coef = math.prod((1 - a) if h else a for a, h in zip(floors, held))
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
            assert (box_probability(r, 0.7, self.IVS, cfg, RngStream(9), np.zeros(3))
                    == box_probability(r, 0.7, self.IVS, cfg, RngStream(9)))

    def test_unit_floors_give_one(self):
        # Quadrature integrates a unit floor as the full line; the default
        # 64-node rule resolves it to 1 after clipping.
        for cfg in (MC, QMC, QUAD):
            est = box_probability(EX1, 0.7, (FINITE, FINITE), cfg, RngStream(9), (1.0, 1.0))
            assert est.value == 1.0 and est.stderr == 0.0

    def test_unit_floors_give_one_on_a_coarse_rule(self):
        # Full-line coordinates are integrated out exactly, so no node rule
        # sees them (8 Gauss-Legendre nodes on +-10 sd once read 0.538).
        coarse = IntegratorConfig(method=IntegratorMethod.QUADRATURE, quad_points=8)
        for cfg in (MC, QMC, coarse):
            est = box_probability(EX1, 0.7, (FINITE, FINITE), cfg, RngStream(9), (1.0, 1.0))
            assert est.value == 1.0 and est.stderr == 0.0

    def test_full_line_coordinates_are_marginalized(self):
        # With every other coordinate on the full line, xi_i keeps its
        # marginal N(0, Sigma_ii), whose interval mass is closed form.
        r = _random_triangular(np.random.default_rng(56), 4)
        sd = 0.7 * np.sqrt(np.diag(np.linalg.inv(r.T @ r)))
        for i in range(4):
            ivs = tuple(FINITE if j == i else LEFT_INFINITE for j in range(4))
            floors = tuple(0.0 if j == i else 1.0 for j in range(4))
            expected = math.erf(0.5 / (math.sqrt(2.0) * sd[i]))
            coarse = IntegratorConfig(method=IntegratorMethod.QUADRATURE, quad_points=8)
            for cfg in (coarse, QMC):
                est = box_probability(r, 0.7, ivs, cfg, RngStream(9), floors)
                assert est.value == pytest.approx(expected, abs=1e-12)
            est = box_probability(r, 0.7, ivs, MC, RngStream(9), floors)
            assert abs(est.value - expected) <= 3 * est.stderr

    def test_validation(self):
        for floors in ((0.5,), (0.5, 1.5), (-0.1, 0.0), (math.nan, 0.0)):
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
