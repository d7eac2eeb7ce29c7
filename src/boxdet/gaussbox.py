"""Gaussian probabilities of axis-aligned interval products.

Evaluates G = Pr(xi in I_1 x ... x I_n) for xi ~ N(0, sigma^2 (R^T R)^{-1})
with R upper triangular and positive-diagonal, i.e. the normalized integral

    det(R) / (2 pi sigma^2)^{n/2} * integral_I exp(-||R xi||^2 / (2 sigma^2)).

Three interchangeable backends:

* ``MONTE_CARLO`` -- draw vtilde ~ N(0, sigma^2 I) and set xi = R^{-1} vtilde,
  which has exactly the target law; count membership.  Unbiased, binomial
  standard error.  Default, for robustness.
* ``SEQ_QMC`` -- sequential conditioning with randomized Sobol points
  (Genz 1992).  The covariance factor sigma * R^{-1} is upper triangular,
  so reversing the coordinate order makes it a lower-triangular Cholesky
  factor and the standard one-dimensional conditional sweep applies.  The
  sweep is vectorized over a batch of interval products of one (R, sigma):
  each of the 16 randomizations builds one scrambled Sobol base (scipy's
  linear matrix scramble plus digital shift), and every (product,
  randomization) pair XORs the base's integer digits with a random
  digital shift of its own.  The shifted base has the law of a freshly
  scrambled one, and whatever the base, an estimate's mean over its shift
  is the exact integral, so the products' errors are uncorrelated: each
  gets the error of an independent integral for the cost of one shared
  base.
  Standard error from the spread over the randomizations.  A single
  integral is a batch of one.
* ``QUADRATURE`` -- the same sweep in units of sigma, dimension <= 4, with
  m Gauss-Legendre nodes in place of Sobol points on each of the first
  n - 1 standardized conditional intervals.  These have unit variance
  whatever R is, so each is clipped to +-``QUADRATURE_TRUNCATION`` = 10;
  the neglected mass is below erfc(10 / sqrt(2)) / 2 < 1e-23 per clipped
  end.  The last coordinate is closed form, so ``samples`` = m^(n-1).
  Reported stderr is 0.

The canonical per-coordinate intervals are [-1/2, 1/2], (-inf, 1/2],
[-1/2, inf) and (-inf, inf); the last one arises only for single-point box
coordinates.  The integrators accept arbitrary (lo, hi) intervals, which
the integral-inequality check below relies on.
"""

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.special import erf, ndtr, ndtri
from scipy.stats import qmc

from ._parallel import ordered_map
from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    QuadratureDimensionError,
)
from .linalg import validate_upper_triangular
from .model import BoundaryTag, validate_sigma
from .rng import RngStream, standard_normal

QUADRATURE_MAX_DIM = 4
QUADRATURE_TRUNCATION = 10.0  # standardized conditional limits kept
_MC_BLOCK = 1 << 16
_QMC_RANDOMIZATIONS = 16
_QMC_BITS = 30  # binary digits per Sobol coordinate
_SWEEP_CHUNK = 1 << 14  # product-points (or -nodes) per array of a batched sweep


class Interval(NamedTuple):
    lo: float
    hi: float


FINITE = Interval(-0.5, 0.5)
LEFT_INFINITE = Interval(-math.inf, 0.5)
RIGHT_INFINITE = Interval(-0.5, math.inf)
FULL_LINE = Interval(-math.inf, math.inf)

_TAG_TO_INTERVAL = {
    BoundaryTag.LOWER: LEFT_INFINITE,
    BoundaryTag.INTERIOR: FINITE,
    BoundaryTag.UPPER: RIGHT_INFINITE,
    BoundaryTag.SINGLETON: FULL_LINE,
}


def symmetric(half_width: float) -> Interval:
    if not half_width > 0.0:
        raise ValueError("half width must be positive")
    return Interval(-half_width, half_width)


def intervals_from_pattern(pattern) -> tuple:
    """Canonical interval product for a boundary pattern: lower-bound
    coordinates get (-inf, 1/2], interior [-1/2, 1/2], upper-bound
    [-1/2, inf), singleton the full line."""
    return tuple(_TAG_TO_INTERVAL[tag] for tag in pattern)


class IntegratorMethod(enum.Enum):
    MONTE_CARLO = "mc"
    SEQ_QMC = "qmc"
    QUADRATURE = "quad"


@dataclass(frozen=True)
class IntegratorConfig:
    method: IntegratorMethod = IntegratorMethod.MONTE_CARLO
    samples: int = 100_000
    quad_points: int = 64

    def __post_init__(self):
        if not isinstance(self.method, IntegratorMethod):
            object.__setattr__(self, "method", IntegratorMethod(self.method))
        if self.method is not IntegratorMethod.QUADRATURE and self.samples < 1000:
            raise InvalidConfigError("stochastic methods need samples >= 1000")
        if self.quad_points < 2:
            raise InvalidConfigError("quadrature needs at least 2 points per axis")


@dataclass(frozen=True)
class McEstimate:
    """An estimated quantity with its standard error and seed provenance.

    ``stderr`` is 0 for deterministic backends; ``samples`` counts the
    stochastic draws (or the product-nodes of quadrature).
    """

    value: float
    stderr: float
    samples: int
    seed: str

    def __post_init__(self):
        if not (self.stderr >= 0.0 and np.isfinite(self.stderr)):
            raise ValueError("stderr must be finite and nonnegative")
        if self.samples < 0:
            raise ValueError("samples must be nonnegative")


def _validate(r, sigma, products, cfg, stream):
    """Checked (R, sigma, lo, hi); lo and hi hold one row per interval
    product.  The stochastic backends also need a stream."""
    r = validate_upper_triangular(r)
    n = r.shape[0]
    for intervals in products:
        if len(intervals) != n:
            raise DimensionMismatchError(f"{len(intervals)} intervals given for dimension {n}")
    bounds = np.array(products, dtype=float).reshape(len(products), n, 2)
    lo, hi = bounds[..., 0], bounds[..., 1]
    if not np.all(lo < hi):
        raise ValueError("each interval needs lo < hi")
    sigma = validate_sigma(sigma)
    if cfg.method is not IntegratorMethod.QUADRATURE and stream is None:
        raise InvalidConfigError("stochastic backends need an RngStream")
    return r, sigma, lo, hi


def _mc_probability(r, sigma, lo, hi, samples, stream):
    n = r.shape[0]
    blocks = [(index, min(_MC_BLOCK, samples - start))
              for index, start in enumerate(range(0, samples, _MC_BLOCK))]

    def count_block(block):
        idx, size = block
        v = sigma * standard_normal(stream.child(idx), (size, n))
        xi = scipy.linalg.solve_triangular(r, v.T, lower=False).T
        inside = np.all((xi >= lo) & (xi <= hi), axis=1)
        return int(np.count_nonzero(inside))

    hits = sum(ordered_map(count_block, blocks))
    p = hits / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return McEstimate(p, stderr, samples, stream.label())


def _qmc_probability(r, sigma, lo, hi, samples, stream):
    """SEQ_QMC estimates for a batch of interval products (one row of lo
    and hi each), returned in row order."""
    boxes, n = lo.shape
    chol = sigma * scipy.linalg.solve_triangular(r, np.eye(n), lower=False)
    # Reversing coordinates turns the upper-triangular factor into a
    # lower-triangular Cholesky factor for the standard conditional sweep.
    chol = chol[::-1, ::-1]
    lo_r, hi_r = lo[:, ::-1], hi[:, ::-1]

    if n == 1:
        p = ndtr(hi_r[:, 0] / chol[0, 0]) - ndtr(lo_r[:, 0] / chol[0, 0])
        return [McEstimate(float(v), 0.0, 0, stream.label()) for v in p]

    log2_pts = max(6, math.ceil(math.log2(max(1, samples // _QMC_RANDOMIZATIONS))))
    npts = 1 << log2_pts
    per_chunk = max(1, _SWEEP_CHUNK // npts)
    u_top = np.nextafter(1.0, 0.0)
    scale = 2.0 ** -_QMC_BITS

    def sweep(k):
        gen = stream.child(k).generator()
        sobol = qmc.Sobol(d=n - 1, scramble=True, bits=_QMC_BITS, seed=gen)
        base = sobol.random_base2(log2_pts)
        base *= 2.0 ** _QMC_BITS  # the points are exact multiples of 2^-bits
        digits = base.astype(np.uint32)
        shifts = gen.integers(0, 1 << _QMC_BITS, size=(boxes, n - 1), dtype=np.uint32)
        means = np.empty(boxes)
        for start in range(0, boxes, per_chunk):
            rows = slice(start, start + per_chunk)
            lo_c, hi_c = lo_r[rows, :, None], hi_r[rows, :, None]
            d = ndtr(lo_c[:, 0] / chol[0, 0])
            e = ndtr(hi_c[:, 0] / chol[0, 0])
            prob = e - d
            y = np.empty((len(prob), npts, n - 1))
            for i in range(1, n):
                w = (digits[:, i - 1] ^ shifts[rows, i - 1, None]) * scale
                u = np.clip(d + w * (e - d), 1e-300, u_top)
                y[:, :, i - 1] = ndtri(u)
                shift = y[:, :, :i] @ chol[i, :i]
                d = ndtr((lo_c[:, i] - shift) / chol[i, i])
                e = ndtr((hi_c[:, i] - shift) / chol[i, i])
                prob = prob * np.maximum(e - d, 0.0)
            means[rows] = prob.mean(axis=1)
        return means

    # One row per product, so each row reduces alike whatever the batch.
    means = np.array(ordered_map(sweep, range(_QMC_RANDOMIZATIONS))).T.copy()
    values = np.clip(means.mean(axis=1), 0.0, 1.0)
    stderrs = means.std(axis=1, ddof=1) / math.sqrt(_QMC_RANDOMIZATIONS)
    return [McEstimate(float(v), float(se), npts * _QMC_RANDOMIZATIONS, stream.label())
            for v, se in zip(values, stderrs)]


def _quadrature_probability(r, sigma, lo, hi, quad_points):
    """QUADRATURE values for a batch of interval products (one row of lo
    and hi each), returned in row order."""
    boxes, n = lo.shape
    if n > QUADRATURE_MAX_DIM:
        raise QuadratureDimensionError(
            f"quadrature supports dimension <= {QUADRATURE_MAX_DIM}, got {n}")
    # The sweep of _qmc_probability in units of sigma: t = xi / sigma has
    # the law N(0, (R^T R)^{-1}), so no power of sigma can underflow.
    chol = scipy.linalg.solve_triangular(r, np.eye(n), lower=False)[::-1, ::-1]
    lo_r, hi_r = lo[:, ::-1] / sigma, hi[:, ::-1] / sigma
    base_nodes, base_weights = np.polynomial.legendre.leggauss(quad_points)
    nodes = quad_points ** (n - 1)
    per_chunk = max(1, _SWEEP_CHUNK // nodes)
    values = np.empty(boxes)
    for start in range(0, boxes, per_chunk):
        rows = slice(start, start + per_chunk)
        lo_c, hi_c = lo_r[rows, :, None], hi_r[rows, :, None]
        count = len(lo_c)
        weight, z = np.ones((count, 1)), np.empty((count, 1, 0))
        for i in range(n):
            shift = z @ chol[i, :i]
            a = (lo_c[:, i] - shift) / chol[i, i]
            b = (hi_c[:, i] - shift) / chol[i, i]
            if i == n - 1:
                break  # the last coordinate is closed form
            a = np.clip(a, -QUADRATURE_TRUNCATION, QUADRATURE_TRUNCATION)
            b = np.clip(b, -QUADRATURE_TRUNCATION, QUADRATURE_TRUNCATION)
            half = 0.5 * np.maximum(b - a, 0.0)
            zi = (0.5 * (a + b))[..., None] + half[..., None] * base_nodes
            weight = (weight * half)[..., None] * base_weights * np.exp(-0.5 * zi * zi)
            weight = weight.reshape(count, -1) / math.sqrt(2.0 * math.pi)
            z = np.concatenate((np.repeat(z, quad_points, axis=1),
                                zi.reshape(count, -1, 1)), axis=2)
        values[rows] = np.sum(weight * (ndtr(b) - ndtr(a)), axis=1)
    return [McEstimate(float(v), 0.0, nodes, "deterministic")
            for v in np.clip(values, 0.0, 1.0)]


def box_probabilities(r, sigma, products, cfg: IntegratorConfig,
                      stream: RngStream | None = None) -> list:
    """Probabilities of many interval products under one (R, sigma), in
    the order of ``products``, with uncorrelated errors.

    QMC and quadrature integrate the whole batch in one sweep; MC
    integrates product j on ``stream.child(j)``.  ``stream`` is required
    for the stochastic backends and ignored by quadrature.
    """
    r, sigma, lo, hi = _validate(r, sigma, tuple(tuple(p) for p in products), cfg, stream)
    if cfg.method is IntegratorMethod.QUADRATURE:
        return _quadrature_probability(r, sigma, lo, hi, cfg.quad_points)
    if cfg.method is IntegratorMethod.SEQ_QMC:
        return _qmc_probability(r, sigma, lo, hi, cfg.samples, stream)
    return ordered_map(lambda j: _mc_probability(r, sigma, lo[j], hi[j], cfg.samples,
                                                 stream.child(j)),
                       range(len(lo)))


def box_probability(r, sigma, intervals, cfg: IntegratorConfig,
                    stream: RngStream | None = None) -> McEstimate:
    """Probability that N(0, sigma^2 (R^T R)^{-1}) lands in the interval
    product: a batch of one, except that MC integrates on ``stream``
    itself."""
    if cfg.method is not IntegratorMethod.MONTE_CARLO:
        return box_probabilities(r, sigma, (intervals,), cfg, stream)[0]
    r, sigma, lo, hi = _validate(r, sigma, (tuple(intervals),), cfg, stream)
    return _mc_probability(r, sigma, lo[0], hi[0], cfg.samples, stream)


def check_product_bound(r, sigma, a, tail_intervals, cfg: IntegratorConfig,
                 stream: RngStream | None = None):
    """Evaluate both sides of the product bound for the leading coordinate.

    lhs is the unnormalized integral of exp(-||R xi||^2 / 2 sigma^2) over
    [-a, a] x tail; rhs is the one-dimensional Gaussian integral over
    [-a, a] at rate r_11 times the tail integral taken with the trailing
    (n-1) x (n-1) block of R.  lhs <= rhs always, with equality when R is
    diagonal.  Both multi-dimensional integrals use the same backend; the
    one-dimensional factor is closed form.
    """
    r = validate_upper_triangular(r)
    n = r.shape[0]
    if n < 2:
        raise DimensionMismatchError("need dimension >= 2")
    a = float(a)
    if not a > 0.0:
        raise ValueError("half width a must be positive")
    tail_intervals = tuple(tail_intervals)
    if len(tail_intervals) != n - 1:
        raise DimensionMismatchError(
            f"need {n - 1} tail intervals, got {len(tail_intervals)}"
        )
    sigma = validate_sigma(sigma)
    sub = stream if stream is not None else RngStream(0)

    full = box_probability(r, sigma, (symmetric(a),) + tail_intervals, cfg, sub.child(0))
    scale_full = (2.0 * math.pi * sigma * sigma) ** (n / 2.0) / float(np.prod(np.diag(r)))
    lhs = McEstimate(full.value * scale_full, full.stderr * scale_full,
                     full.samples, full.seed)

    r_tail = r[1:, 1:]
    tail = box_probability(r_tail, sigma, tail_intervals, cfg, sub.child(1))
    scale_tail = (2.0 * math.pi * sigma * sigma) ** ((n - 1) / 2.0) / float(
        np.prod(np.diag(r_tail))
    )
    one_dim = (math.sqrt(2.0 * math.pi) * sigma / r[0, 0]) * float(
        erf(r[0, 0] * a / (math.sqrt(2.0) * sigma))
    )
    rhs = McEstimate(one_dim * tail.value * scale_tail,
                     one_dim * tail.stderr * scale_tail, tail.samples, tail.seed)
    return lhs, rhs
