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
* ``QUADRATURE`` -- deterministic tensor Gauss-Legendre, dimension <= 4.
  Every axis is clipped to the constant ``QUADRATURE_TRUNCATION`` = 10
  per-axis standard deviations of the target Gaussian, which truncates
  infinite ends and concentrates nodes where the density lives; the
  neglected mass is below erfc(10 / sqrt(2)) / 2 < 1e-23 per clipped end.
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
QUADRATURE_TRUNCATION = 10.0  # per-axis standard deviations kept
_MC_BLOCK = 1 << 16
_QMC_RANDOMIZATIONS = 16
_QMC_BITS = 30  # binary digits per Sobol coordinate
_QMC_CHUNK = 1 << 14  # product-points per array of the batched sweep


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
    stochastic draws (or integrand evaluations for quadrature).
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


def _validate(r, sigma, products):
    """Checked (R, sigma, lo, hi); lo and hi hold one row per interval
    product."""
    r = validate_upper_triangular(r)
    n = r.shape[0]
    for intervals in products:
        if len(intervals) != n:
            raise DimensionMismatchError(
                f"{len(intervals)} intervals given for dimension {n}"
            )
    bounds = np.array(products, dtype=float).reshape(len(products), n, 2)
    lo, hi = bounds[..., 0], bounds[..., 1]
    if not np.all(lo < hi):
        raise ValueError("each interval needs lo < hi")
    return r, validate_sigma(sigma), lo, hi


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
    per_chunk = max(1, _QMC_CHUNK // npts)
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
    n = r.shape[0]
    if n > QUADRATURE_MAX_DIM:
        raise QuadratureDimensionError(
            f"quadrature supports dimension <= {QUADRATURE_MAX_DIM}, got {n}"
        )
    # Integrate over t = xi / sigma, whose law N(0, (R^T R)^{-1}) does not
    # depend on sigma, so no power of sigma can underflow or overflow.
    lo, hi = lo / sigma, hi / sigma
    rinv = scipy.linalg.solve_triangular(r, np.eye(n), lower=False)
    marg_std = np.sqrt(np.sum(rinv ** 2, axis=1))
    # Clip every axis to +-QUADRATURE_TRUNCATION marginal standard
    # deviations.  This both truncates infinite ends and shrinks finite
    # intervals that are much wider than the density, so the fixed node
    # count keeps resolving the integrand; the discarded mass per clipped
    # end is below erfc(QUADRATURE_TRUNCATION / sqrt(2)) / 2.
    cut = QUADRATURE_TRUNCATION * marg_std
    lo_t = np.maximum(lo, -cut)
    hi_t = np.minimum(hi, cut)
    if np.any(lo_t >= hi_t):
        return McEstimate(0.0, 0.0, 0, "deterministic")

    base_nodes, base_weights = np.polynomial.legendre.leggauss(quad_points)
    nodes, weights = [], []
    for i in range(n):
        half = 0.5 * (hi_t[i] - lo_t[i])
        mid = 0.5 * (hi_t[i] + lo_t[i])
        nodes.append(mid + half * base_nodes)
        weights.append(half * base_weights)

    if n == 1:
        z = nodes[0] * r[0, 0]
        total = float(np.exp(-0.5 * z * z) @ weights[0])
    else:
        grids = np.meshgrid(*nodes[1:], indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=1)
        inner = pts @ r[:, 1:].T
        wgrids = np.meshgrid(*weights[1:], indexing="ij")
        w_inner = np.ones(pts.shape[0])
        for g in wgrids:
            w_inner = w_inner * g.reshape(-1)
        total = 0.0
        for x1, w1 in zip(nodes[0], weights[0]):
            z = inner + x1 * r[:, 0]
            q = np.sum(z * z, axis=1)
            total += w1 * float(np.exp(-0.5 * q) @ w_inner)

    norm = float(np.prod(np.diag(r))) / (2.0 * math.pi) ** (n / 2.0)
    value = float(np.clip(norm * total, 0.0, 1.0))
    return McEstimate(value, 0.0, quad_points ** n, "deterministic")


def box_probability(r, sigma, intervals, cfg: IntegratorConfig,
                    stream: RngStream | None = None) -> McEstimate:
    """Probability that N(0, sigma^2 (R^T R)^{-1}) lands in the interval
    product, via the configured backend.

    ``stream`` is required for the stochastic backends and ignored by
    quadrature.
    """
    r, sigma, lo, hi = _validate(r, sigma, (tuple(intervals),))
    if cfg.method is IntegratorMethod.QUADRATURE:
        return _quadrature_probability(r, sigma, lo[0], hi[0], cfg.quad_points)
    if stream is None:
        raise InvalidConfigError("stochastic backends need an RngStream")
    if cfg.method is IntegratorMethod.MONTE_CARLO:
        return _mc_probability(r, sigma, lo[0], hi[0], cfg.samples, stream)
    return _qmc_probability(r, sigma, lo, hi, cfg.samples, stream)[0]


def qmc_box_probabilities(r, sigma, products, samples: int,
                          stream: RngStream) -> list:
    """SEQ_QMC probabilities of many interval products under one
    (R, sigma), each with ``samples`` samples, in one batched sweep per
    randomization; the estimates come back in the order of ``products``
    and their errors are uncorrelated."""
    r, sigma, lo, hi = _validate(r, sigma, tuple(tuple(p) for p in products))
    return _qmc_probability(r, sigma, lo, hi, samples, stream)


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
