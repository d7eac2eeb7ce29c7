import hashlib
import itertools
import math

import numpy as np
import pytest

from boxdet.errors import DimensionMismatchError
from boxdet.gaussbox import (
    FINITE,
    IntegratorConfig,
    IntegratorMethod,
    box_probability,
)
from boxdet.model import BoundaryTag, BoxConstraint, classify, parse_pattern
from boxdet.rng import RngStream
from boxdet.success import (
    p_bb_bounds,
    p_bb_deterministic,
    p_bb_uniform,
    p_br_deterministic,
    p_br_uniform,
    phi,
)

EX1 = np.array([[2.0, -1.0], [0.0, 1.0]])
QUAD = IntegratorConfig(method=IntegratorMethod.QUADRATURE)
QMC = IntegratorConfig(method=IntegratorMethod.SEQ_QMC, samples=4096)
MC = IntegratorConfig(method=IntegratorMethod.MONTE_CARLO, samples=4096)


def _random_triangular(rng, n, diag_lo=0.4, diag_hi=2.0):
    r = np.triu(rng.standard_normal((n, n)))
    r[np.diag_indices(n)] = rng.uniform(diag_lo, diag_hi, n)
    return r


def _point_average_bb(r, sigma, box):
    """Direct average of the deterministic Babai probability over every
    box point (oracle for the closed-form uniform expression)."""
    ranges = [range(int(lo), int(hi) + 1) for lo, hi in zip(box.lower, box.upper)]
    total = 0.0
    for pt in itertools.product(*ranges):
        total += p_bb_deterministic(r, sigma, classify(np.array(pt), box))
    return total / box.num_points()


class TestPhi:
    def test_zero(self):
        assert phi(0.0, 1.0) == 0.0

    def test_reference_values(self):
        assert phi(1.0, 1.0) == pytest.approx(0.3829249225480261, abs=1e-12)
        assert phi(2.0, 1.0) == pytest.approx(0.6826894921370859, abs=1e-12)

    def test_matches_integral_form(self):
        # second form: (zeta / (sqrt(2 pi) sigma)) * int_{-1/2}^{1/2}
        # exp(-zeta^2 t^2 / (2 sigma^2)) dt, by quadrature
        from scipy.integrate import quad as sciquad

        for zeta, sigma in [(0.5, 1.0), (1.7, 0.6), (3.0, 2.0)]:
            integral, _ = sciquad(
                lambda t: math.exp(-(zeta ** 2) * t ** 2 / (2 * sigma ** 2)),
                -0.5, 0.5,
            )
            expected = zeta / (math.sqrt(2 * math.pi) * sigma) * integral
            assert phi(zeta, sigma) == pytest.approx(expected, abs=1e-12)

    def test_monotone(self):
        values = [phi(z, 1.0) for z in np.linspace(0.0, 5.0, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert phi(1.0, 0.5) > phi(1.0, 1.0) > phi(1.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            phi(-1.0, 1.0)
        with pytest.raises(ValueError):
            phi(1.0, 0.0)
        for sigma in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                phi(1.0, sigma)


class TestBabaiDeterministic:
    def test_example_all_lower(self):
        p = p_bb_deterministic(EX1, 1.0, parse_pattern("LL"))
        assert p == pytest.approx(0.5818, abs=5e-4)
        expected = 0.25 * (1 + phi(2.0, 1.0)) * (1 + phi(1.0, 1.0))
        assert p == pytest.approx(expected, rel=1e-15)

    def test_all_interior_collapses_to_product(self):
        rng = np.random.default_rng(2)
        r = _random_triangular(rng, 4)
        p = p_bb_deterministic(r, 0.7, parse_pattern("IIII"))
        assert p == pytest.approx(
            float(np.prod([phi(r[i, i], 0.7) for i in range(4)])), rel=1e-15
        )

    def test_all_singleton_is_one(self):
        assert p_bb_deterministic(EX1, 0.5, parse_pattern("SS")) == 1.0

    def test_pattern_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            p_bb_deterministic(EX1, 1.0, parse_pattern("L"))


class TestBabaiUniform:
    def test_scalar_reference(self):
        p = p_bb_uniform(np.eye(1), 1.0, BoxConstraint([0], [3]))
        assert p == pytest.approx(0.537194, abs=1e-6)

    def test_small_noise_limit(self):
        p = p_bb_uniform(np.eye(1), 1e-6, BoxConstraint([0], [3]))
        assert abs(p - 1.0) <= 1e-9

    def test_singleton_coordinates_contribute_one(self):
        box = BoxConstraint([1, 1], [1, 4])
        p = p_bb_uniform(EX1, 0.8, box)
        w = 3.0
        assert p == pytest.approx(
            1.0 / (w + 1) + w / (w + 1) * phi(1.0, 0.8), rel=1e-15
        )

    def test_equals_point_average(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            r = _random_triangular(rng, n)
            sigma = float(rng.uniform(0.2, 1.5))
            lower = rng.integers(-2, 1, n)
            upper = lower + rng.integers(0, 4, n)
            box = BoxConstraint(lower, upper)
            direct = _point_average_bb(r, sigma, box)
            assert p_bb_uniform(r, sigma, box) == pytest.approx(direct, rel=1e-12)


class TestBabaiBounds:
    def test_example_values(self):
        lower, upper = p_bb_bounds(EX1, 1.0)
        assert lower == pytest.approx(0.2614188209009449, abs=1e-12)
        assert upper == pytest.approx(0.5818, abs=5e-4)

    def test_equality_cases_are_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            r = _random_triangular(rng, n)
            sigma = float(rng.uniform(0.2, 1.5))
            lower, upper = p_bb_bounds(r, sigma)
            interior = p_bb_deterministic(r, sigma, (BoundaryTag.INTERIOR,) * n)
            boundary = p_bb_deterministic(r, sigma, (BoundaryTag.LOWER,) * n)
            assert abs(interior - lower) <= 1e-15
            assert abs(boundary - upper) <= 1e-15

    def test_sandwich_over_random_patterns(self):
        rng = np.random.default_rng(7)
        tags = [BoundaryTag.LOWER, BoundaryTag.INTERIOR, BoundaryTag.UPPER]
        for _ in range(20):
            n = int(rng.integers(1, 6))
            r = _random_triangular(rng, n)
            sigma = float(rng.uniform(0.2, 1.5))
            lower, upper = p_bb_bounds(r, sigma)
            pattern = tuple(tags[i] for i in rng.integers(0, 3, n))
            p = p_bb_deterministic(r, sigma, pattern)
            assert lower - 1e-15 <= p <= upper + 1e-15

    def test_scalar_gap(self):
        lower, upper = p_bb_bounds(np.eye(1), 1.0)
        assert upper - lower == pytest.approx((1 - phi(1.0, 1.0)) / 2, rel=1e-12)
        assert upper >= lower


class TestRoundingDeterministic:
    def test_example_quadrature(self):
        est = p_br_deterministic(EX1, 1.0, parse_pattern("LL"), QUAD)
        assert est.value == pytest.approx(0.6192, abs=1e-3)

    def test_example_monte_carlo(self):
        cfg = IntegratorConfig(method=IntegratorMethod.MONTE_CARLO, samples=200_000)
        est = p_br_deterministic(EX1, 1.0, parse_pattern("LL"), cfg, RngStream(0))
        assert abs(est.value - 0.6192) <= 3 * est.stderr + 1e-3

    def test_interior_is_all_finite_box_probability(self):
        rng = np.random.default_rng(8)
        r = _random_triangular(rng, 3)
        est = p_br_deterministic(r, 0.6, parse_pattern("III"), QUAD)
        direct = box_probability(r, 0.6, (FINITE,) * 3, QUAD)
        assert est.value == direct.value

    def test_diagonal_r_matches_babai_formula(self):
        rng = np.random.default_rng(9)
        tags = "LIU"
        for _ in range(10):
            n = int(rng.integers(1, 4))
            r = np.diag(rng.uniform(0.4, 2.0, n))
            sigma = float(rng.uniform(0.3, 1.2))
            pattern = parse_pattern("".join(tags[i] for i in rng.integers(0, 3, n)))
            est = p_br_deterministic(r, sigma, pattern, QUAD)
            assert est.value == pytest.approx(
                p_bb_deterministic(r, sigma, pattern), abs=1e-9
            )

    def test_every_tag_matches_babai_in_one_dimension(self):
        # In one dimension the two detectors coincide, so each tag's
        # rounding interval and Babai floor must describe the same event.
        for tag in BoundaryTag:
            for rii, sigma in ((0.5, 0.3), (1.7, 0.8), (2.0, 1.0)):
                r = np.array([[rii]])
                est = p_br_deterministic(r, sigma, (tag,), QUAD)
                assert abs(est.value - p_bb_deterministic(r, sigma, (tag,))) <= 1e-12, tag


class TestRoundingUniform:
    def test_scalar_matches_babai(self):
        box = BoxConstraint([0], [3])
        est = p_br_uniform(np.eye(1), 1.0, box, QUAD)
        assert est.value == pytest.approx(0.537194, abs=1e-6)
        # At n = 1 the weighted QMC sweep is closed form.
        est = p_br_uniform(np.eye(1), 1.0, box, QMC, RngStream(1))
        assert est.value == pytest.approx(p_bb_uniform(np.eye(1), 1.0, box), abs=1e-12)
        assert est.stderr == 0.0

    def test_all_singletons_is_one(self):
        box = BoxConstraint([1, -2, 0], [1, -2, 0])
        r = _random_triangular(np.random.default_rng(12), 3)
        for cfg in (QUAD, QMC, MC):
            est = p_br_uniform(r, 0.7, box, cfg, RngStream(2))
            assert est.value == 1.0
            assert est.stderr == 0.0

    def test_small_noise_limit(self):
        est = p_br_uniform(EX1, 0.01, BoxConstraint([0, 0], [3, 3]), QUAD)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_matches_direct_point_sum(self):
        rng = np.random.default_rng(10)
        box = BoxConstraint([0, 0], [2, 2])
        for _ in range(5):
            r = _random_triangular(rng, 2)
            sigma = float(rng.uniform(0.3, 1.0))
            est = p_br_uniform(r, sigma, box, QUAD)
            total = 0.0
            for pt in itertools.product(range(3), repeat=2):
                pat = classify(np.array(pt), box)
                total += p_br_deterministic(r, sigma, pat, QUAD).value
            assert est.value == pytest.approx(total / 9.0, rel=1e-12)

    def test_honours_quad_points(self):
        # Scaling a uniform cell's point count keeps the caller's rule.
        r = _well_conditioned(np.random.default_rng(15), 2)
        box = BoxConstraint([0, 0], [2, 3])
        coarse = IntegratorConfig(method=IntegratorMethod.QUADRATURE, quad_points=8)

        def pattern_sum(cfg):
            total = 0.0
            for pt in itertools.product(range(3), range(4)):
                total += p_br_deterministic(r, 0.6, classify(np.array(pt), box), cfg).value
            return total / 12.0

        est = p_br_uniform(r, 0.6, box, coarse)
        assert est.value == pytest.approx(pattern_sum(coarse), rel=1e-12)
        assert abs(est.value - pattern_sum(QUAD)) > 1e-6
        assert est.samples == 9 * 8

    def test_pattern_budget(self):
        # No pattern budget: the stochastic backends integrate one weighted
        # sweep whatever the number of boundary patterns (3^11 here).
        r = _random_triangular(np.random.default_rng(13), 11, diag_lo=1.0, diag_hi=3.0)
        box = BoxConstraint.cube(0, 3, 11)
        ests = [p_br_uniform(r, 0.3, box, IntegratorConfig(method=method, samples=1000),
                             RngStream(3))
                for method in (IntegratorMethod.SEQ_QMC, IntegratorMethod.MONTE_CARLO)]
        for est in ests:
            assert 0.0 <= est.value <= 1.0
            assert est.stderr > 0.0
        assert abs(ests[0].value - ests[1].value) <= 4 * math.hypot(ests[0].stderr,
                                                                    ests[1].stderr)

    def test_sweep_matches_pattern_sum(self):
        # The weighted sweep against the quadrature pattern sum at n = 4,
        # with singleton, width-1 and wider coordinates.
        quad = IntegratorConfig(method=IntegratorMethod.QUADRATURE, quad_points=32)
        for k in range(4):
            rng = np.random.default_rng([14, k])
            r = _well_conditioned(rng, 4)
            sigma = float(rng.uniform(0.3, 1.0))
            box = BoxConstraint(np.zeros(4, dtype=int), rng.permutation([0, 1, 2, 3]))
            exact = p_br_uniform(r, sigma, box, quad).value
            for cfg in (QMC, MC):
                est = p_br_uniform(r, sigma, box, cfg, RngStream(14, (k,)))
                assert abs(est.value - exact) <= 4 * est.stderr

    def test_uniform_ordering_vs_babai(self):
        # rounding never beats Babai when the true vector is uniform
        rng = np.random.default_rng(11)
        for k in range(5):
            n = int(rng.integers(2, 4))
            r = _random_triangular(rng, n)
            sigma = float(rng.uniform(0.2, 1.0))
            box = BoxConstraint.cube(0, 3, n)
            est = p_br_uniform(r, sigma, box, QMC, RngStream(50 + k))
            assert est.value <= p_bb_uniform(r, sigma, box) + 3 * est.stderr


def _random_r(seed, n):
    return _random_triangular(np.random.default_rng(seed), n)


class TestPinnedOutputs:
    # Each pins the QMC and MC backends on one entry point: any change to
    # their numbers (value, stderr or sample count) moves the digest.
    QMC = IntegratorConfig(method=IntegratorMethod.SEQ_QMC, samples=2048)
    MC = IntegratorConfig(method=IntegratorMethod.MONTE_CARLO, samples=4000)

    @staticmethod
    def _digest(ests):
        outputs = repr([(e.value, e.stderr, e.samples) for e in ests])
        return hashlib.sha256(outputs.encode()).hexdigest()

    def test_qmc_and_mc_digest(self):
        ests = [
            p_br_deterministic(_random_r(63, 3), 0.8, parse_pattern("LIU"), self.MC,
                               RngStream(63)),
            p_br_deterministic(_random_r(63, 3), 0.8, parse_pattern("LIU"), self.QMC,
                               RngStream(63)),
        ]
        assert self._digest(ests) == (
            "02bf9128f85a4d8b6c2ea11a3f4de3b7c8ec709437e1672d4094b0894992ac12")

    def test_uniform_qmc_and_mc_digest(self):
        ests = [
            p_br_uniform(_random_r(61, 4), 0.6, BoxConstraint.cube(0, 3, 4), self.QMC,
                         RngStream(61)),
            p_br_uniform(_random_r(62, 3), 0.6, BoxConstraint.cube(0, 3, 3), self.MC,
                         RngStream(62)),
        ]
        assert self._digest(ests) == (
            "a6679836124c0ee97df8c8788e8f484c8a3eb9958628280c2470e49c25520896")


def _well_conditioned(rng, n):
    r = np.triu(rng.uniform(-0.3, 0.3, (n, n)))
    r[np.diag_indices(n)] = rng.uniform(0.7, 1.5, n)
    return r


class TestStderrCalibration:
    """|est - quad| <= 2 se should hold about 95 % of the time.  With 16
    randomizations a QMC stderr has 15 degrees of freedom, which puts the
    expected share at 94 %; an MC stderr rests on at least 65 536 samples,
    which puts it at 95 %.  100 cases give a binomial spread of about
    2.4 %.  Quadrature with 32 nodes per axis is the reference: on these
    well-conditioned factors it agrees with 64 nodes far below the
    stochastic stderrs."""

    CASES = 100
    QMC = IntegratorConfig(method=IntegratorMethod.SEQ_QMC, samples=2048)
    MC = IntegratorConfig(method=IntegratorMethod.MONTE_CARLO, samples=2048)
    QUAD = IntegratorConfig(method=IntegratorMethod.QUADRATURE, quad_points=32)
    TAGS = (BoundaryTag.LOWER, BoundaryTag.INTERIOR, BoundaryTag.UPPER)

    def _coverage(self, integrate, cfg=QMC):
        """Share of cases covered; ``integrate(r, sigma, pattern, box, cfg,
        stream)`` returns the estimate under test, on ``cfg``."""
        covered = 0
        for i in range(self.CASES):
            rng = np.random.default_rng([7, i])
            n = 2 + i % 2
            r = _well_conditioned(rng, n)
            sigma = float(rng.uniform(0.3, 1.0))
            pattern = tuple(self.TAGS[k] for k in rng.integers(0, 3, n))
            box = BoxConstraint(np.zeros(n, dtype=int), rng.integers(1, 3, n))
            est = integrate(r, sigma, pattern, box, cfg, RngStream(7, (i,)))
            quad = integrate(r, sigma, pattern, box, self.QUAD, None)
            covered += abs(est.value - quad.value) <= 2.0 * est.stderr
        return covered / self.CASES

    def test_deterministic(self):
        share = self._coverage(lambda r, sigma, pattern, box, cfg, stream:
                               p_br_deterministic(r, sigma, pattern, cfg, stream))
        assert 0.87 <= share <= 0.99

    def test_uniform(self):
        share = self._coverage(lambda r, sigma, pattern, box, cfg, stream:
                               p_br_uniform(r, sigma, box, cfg, stream))
        assert 0.87 <= share <= 0.99

    def test_uniform_mc(self):
        share = self._coverage(lambda r, sigma, pattern, box, cfg, stream:
                               p_br_uniform(r, sigma, box, cfg, stream), self.MC)
        assert 0.87 <= share <= 0.99
