"""Gaussian probabilities of axis-aligned interval products.

Evaluates G = Pr(xi in I_1 x ... x I_n) for xi ~ N(0, sigma^2 (R^T R)^{-1})
with R upper triangular and positive-diagonal, i.e. the normalized integral

    det(R) / (2 pi sigma^2)^{n/2} * integral_I exp(-||R xi||^2 / (2 sigma^2)).

sigma enters only as a scale: ``box_probability`` divides the limits by
sigma once, and every backend integrates t = xi / sigma ~
N(0, (R^T R)^{-1}) against them; a limit past the float range becomes
infinite, so an extreme sigma needs no special case.

A coordinate may carry a pair of floors (a_left, a_right) in [0, 1]^2: its
indicator becomes g_i(t) = a_left below I_i, 1 on I_i and a_right above
it, and every backend computes E[prod_i g_i(xi_i)]; a box probability has
floors (0, 0).  A side whose floor is 1 is first rewritten as an infinite
limit with floor 0.  A full-line coordinate then has g_i = 1, and every
backend integrates it out exactly, by taking the marginal of the others,
before the quadrature dimension cap applies.  The rounding success
probabilities of ``success`` are such integrals over [-1/2, 1/2]^n.

Three interchangeable backends:

* ``MONTE_CARLO`` -- draw z ~ N(0, I) and set t = R^{-1} z, which has
  exactly the target law; average prod_i g_i(t_i), with the zero-floor
  coordinates reduced as booleans to an exact 0 or 1 and the floored ones
  multiplied in.  Unbiased; default, for robustness.  Each block of 2^16
  samples is drawn, solved and tested ``_WORK_COLUMNS`` = 2^13 samples
  at a time from one generator into one array per block, so memory does
  not grow with the sample count and the sums are those of the whole block.
* ``SEQ_QMC`` -- sequential conditioning with randomized Sobol points
  (Genz 1992).  A greedy order, read off the covariance (R^T R)^{-1} of
  ``box_probability``'s one inverse of R, puts the coordinate of least
  conditional mass first (Gibson, Glasbey and Elston 1994).  The sweep
  runs on R', the ``linalg.permuted_factor`` of R's columns in that order
  reversed (the same law), whose inverse reversed is a lower-triangular
  Cholesky factor, so the standard one-dimensional sweep applies.  At
  each step the weight is multiplied by the conditional mass
  a_left Phi(alpha) + (Phi(beta) - Phi(alpha)) + a_right (1 - Phi(beta))
  of g_i, and the next point is drawn from the density proportional to
  g_i phi by inverting its three-piece CDF (one ``ndtri`` per step; n - 1
  Sobol dimensions).  Each of the 16 randomizations scrambles its own
  Sobol sequence (scipy's linear matrix scramble plus digital shift), XORs
  its digits with one more random digital shift, takes each point at the
  centre of its 2^-30 cell, and sweeps it in blocks of at most 2^14
  points, on the thread pool.  A sample count that needs more than the
  2^30 points per randomization of a 30-bit sequence is refused before
  any is built.  Standard error from the spread over the randomizations.
* ``QUADRATURE`` -- the same sweep, dimension <= 4, with m <= 128
  Gauss-Legendre nodes in place of Sobol points.  Each of the first n - 1
  coordinates splits g into k <= 3 interval terms, a_left 1(t <= hi) +
  (1 - (a_left + a_right)) 1(lo <= t <= hi) + a_right 1(t >= lo) (those
  of coefficient 0 dropped; a pattern integral has the same intervals),
  and takes m nodes on each term's standardized conditional interval, the
  coefficient in their weights; ``samples`` counts the product nodes.
  These intervals have unit variance whatever R is, so each is clipped to
  +-``QUADRATURE_TRUNCATION`` = 10; the neglected mass is below
  erfc(10 / sqrt(2)) / 2 < 1e-23 per clipped end.  The last coordinate is
  closed form, as in QMC.  The sweep runs in slices of the first
  coordinate's nodes, so no array holds more than max(``_WORK_COLUMNS``,
  the middle coordinates' product nodes): m^(n-2) (16 384 at m = 128 in
  4-D), up to 3^(n-2) times that with floors.  Reported stderr is 0.

``box_probability`` inverts R once per integral, for the overflow check,
QMC's order and quadrature's sweep, and QMC inverts its R'.  Both calls use
numpy's LAPACK (``np.linalg.inv``), as ``linalg.permuted_factor``'s QR does;
at these sizes none starts a BLAS worker.  MC sums its squares pairwise,
with no BLAS call (``g @ g`` would wake a worker).
Nothing here calls scipy's LAPACK: scipy bundles a second OpenBLAS whose
worker thread busy-waits after each call and takes a core from the pool.
"""
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

from ._parallel import ordered_map
from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    QuadratureDimensionError,
    RankDeficientError,
    require_int,
)
from .linalg import back_substitute, permuted_factor, validate_upper_triangular
from .model import validate_sigma
from .rng import RngStream, sample_generator

QUADRATURE_MAX_DIM = 4
QUADRATURE_MAX_POINTS = 128  # leggauss(m) builds an m x m matrix
QUADRATURE_TRUNCATION = 10.0  # standardized conditional limits kept
_MC_BLOCK = 1 << 16
# Samples or product nodes per working array of MC and quadrature.  On 2 cores the
# fixed_patterns bench peaked at 118.6-122.5 MB RSS with 2^13, 122.0-122.1 with
# 2^12 and 123.9-124.1 with 2^14 (8-s runs, seeds 1-2; 145-155 MB unchunked).
_WORK_COLUMNS = 1 << 13
_QMC_RANDOMIZATIONS = 16
_QMC_BITS = 30  # binary digits per Sobol coordinate
_SWEEP_CHUNK = 1 << 14  # QMC points per array


class Interval(NamedTuple):
    lo: float
    hi: float


FINITE = Interval(-0.5, 0.5)


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
        require_int(self.samples, "samples")
        require_int(self.quad_points, "quad_points")
        if self.samples < 1:
            raise InvalidConfigError(f"samples must be at least 1, got {self.samples}")
        if self.method is not IntegratorMethod.QUADRATURE and self.samples < 1000:
            raise InvalidConfigError("stochastic methods need samples >= 1000")
        if not 2 <= self.quad_points <= QUADRATURE_MAX_POINTS:
            raise InvalidConfigError(
                f"quad_points must be between 2 and {QUADRATURE_MAX_POINTS}, "
                f"got {self.quad_points}")
        per_sweep = self.samples // _QMC_RANDOMIZATIONS  # before rounding up to a power of two
        if self.method is IntegratorMethod.SEQ_QMC and per_sweep > 1 << _QMC_BITS:
            raise InvalidConfigError(
                f"{self.samples} samples need 2^{math.ceil(math.log2(per_sweep))} QMC points per "
                f"randomization; a {_QMC_BITS}-bit Sobol sequence has at most 2^{_QMC_BITS}")


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


def _validate(r, sigma, intervals, floors, cfg, stream):
    """Checked (R, sigma, lo, hi, floor) of one interval product, one floor
    pair per row of floor.  The stochastic backends also need a stream."""
    r = validate_upper_triangular(r)
    n = r.shape[0]
    intervals = tuple(intervals)
    if len(intervals) != n:
        raise DimensionMismatchError(f"{len(intervals)} coordinates given for matrix dimension {n}")
    bounds = np.array(intervals, dtype=float).reshape(n, 2)
    lo, hi = bounds[:, 0], bounds[:, 1]
    if not np.all(lo < hi):
        raise ValueError("each interval needs lo < hi")
    floor = np.zeros((n, 2)) if floors is None else np.asarray(floors, dtype=float)
    if floor.shape != (n, 2) or not np.all((floor >= 0.0) & (floor <= 1.0)):
        raise ValueError(f"floors must be {n} pairs of weights in [0, 1]")
    sigma = validate_sigma(sigma)
    if cfg.method is not IntegratorMethod.QUADRATURE and stream is None:
        raise InvalidConfigError("stochastic backends need an RngStream")
    return r, sigma, lo, hi, floor


def _mc_probability(r, lo, hi, floor, samples, stream):
    blocks = [(index, min(_MC_BLOCK, samples - start))
              for index, start in enumerate(range(0, samples, _MC_BLOCK))]
    floored = floor.any(axis=1)  # the coordinates multiplied in as floats
    left, right = floor[floored, :1], floor[floored, 1:]

    def sum_block(block):
        idx, size = block
        gen = sample_generator(stream.child(idx))
        # In parts of _WORK_COLUMNS samples, a column each in t.  The generator
        # fills in sequence, so g and its sums are those of the whole block.
        g = np.empty(size)
        for start in range(0, size, _WORK_COLUMNS):
            part = g[start:start + _WORK_COLUMNS]  # a view of g
            t = back_substitute(r, gen.standard_normal((part.size, r.shape[0])).T)
            inside = (t >= lo[:, None]) & (t <= hi[:, None])
            part[:] = np.all(inside[~floored], axis=0)  # an exact 0 or 1
            outside = np.where(t[floored] < lo[floored, None], left, right)
            part *= np.prod(np.where(inside[floored], 1.0, outside), axis=0)
        return float(g.sum()), float((g * g).sum())  # pairwise sums; g @ g would wake BLAS

    sums = ordered_map(sum_block, blocks)
    p = sum(total for total, _ in sums) / samples
    # The sample variance, written so that an indicator (mean of x^2 = p)
    # gives the binomial p (1 - p) exactly.
    var = p * (1.0 - p) + (sum(square for _, square in sums) / samples - p)
    return McEstimate(p, math.sqrt(max(var, 0.0) / samples), samples, stream.label())


def _standardized(lo, hi, shift, sd):
    """(lo - shift) / sd and (hi - shift) / sd.  An overflow gives an infinite
    quotient, exact for ndtr and the clips.  errstate is per thread, so set
    here it also holds on the pool's workers that run the QMC sweep."""
    with np.errstate(over="ignore"):
        return (lo - shift) / sd, (hi - shift) / sd


def _mass(floor, alpha, beta):
    """d = Phi(alpha), e = Phi(beta) and the mass a_l d + gap + a_r (1 - d - gap)
    of g phi, gap = max(e - d, 0), as a_r + (1 - a_r) gap + (a_l - a_r) d;
    for equal floors the last term adds an exact 0."""
    d, e = ndtr(alpha), ndtr(beta)
    left, right = floor[..., 0], floor[..., 1]
    return d, e, right + (1.0 - right) * np.maximum(e - d, 0.0) + (left - right) * d


def _prioritized(r, cov, lo, hi, floor):
    """The interval product in sweep order: the greedy order, the R factor
    R' of R's columns in that order reversed, and the limits and floors in
    that order, so R'^{-1} reversed in both axes is the sweep's Cholesky factor.

    Greedy variable prioritization (Gibson, Glasbey and Elston 1994; Genz
    and Bretz 2009, sec. 4.1.3): a column-by-column Cholesky factorization
    of cov = (R^T R)^{-1}, formed by ``box_probability`` from its one inverse
    of R, picks next the remaining coordinate of least conditional mass
    a_l Phi(alpha) + (Phi(beta) - Phi(alpha)) + a_r (1 - Phi(beta)), with the
    limits shifted by the conditional means ((1 - a_l) phi(alpha) - (1 - a_r)
    phi(beta)) / mass of the coordinates already picked, standardized by its
    conditional sd, and clipped to +-40, where Phi is 0 or 1 and the density
    0; ties go to the lowest index.
    """
    n = r.shape[0]
    var0 = np.diag(cov)
    factor = np.zeros((n, n))  # row: coordinate, column: step
    means = np.zeros(n)  # mean of each picked standardized coordinate
    rest, order = list(range(n)), []
    for k in range(n):
        idx = np.array(rest)
        # Below eps * Sigma_ii the subtraction is all rounding.
        var = np.maximum(var0[idx] - np.sum(factor[idx, :k] ** 2, axis=1),
                         np.finfo(float).eps * var0[idx])
        sd = np.sqrt(var)
        alpha, beta = np.clip(_standardized(lo[idx], hi[idx], factor[idx, :k] @ means[:k], sd),
                              -40.0, 40.0)
        mass = _mass(floor[idx], alpha, beta)[2]
        j = int(np.argmin(mass))
        pick = rest.pop(j)
        order.append(pick)
        factor[pick, k] = sd[j]
        others = np.array(rest, dtype=int)
        factor[others, k] = (cov[others, pick] - factor[others, :k] @ factor[pick, :k]) / sd[j]
        left, right = floor[pick]
        root, exp_alpha = math.sqrt(2.0 * math.pi), math.exp(-0.5 * alpha[j] ** 2)
        shift = ((1.0 - right) * ((exp_alpha - math.exp(-0.5 * beta[j] ** 2)) / root)
                 - (left - right) * exp_alpha / root)
        # mass is 0 in floating point far out in a tail, beyond Phi's range.
        means[k] = shift / mass[j] if mass[j] > 0.0 else 0.0
    return np.array(order), permuted_factor(r, order[::-1]), lo[order], hi[order], floor[order]


def _qmc_probability(r, cov, lo, hi, floor, samples, stream):
    """SEQ_QMC estimate of E[prod_i g_i(t_i)] for one interval product."""
    n = r.shape[0]
    _, r, lo, hi, floor = _prioritized(r, cov, lo, hi, floor)
    # Reversing coordinates turns the upper-triangular factor into a
    # lower-triangular Cholesky factor for the standard conditional sweep.
    chol = np.linalg.inv(r)[::-1, ::-1]
    d0, e0, mass0 = _mass(floor[0], *_standardized(lo[0], hi[0], 0.0, chol[0, 0]))
    if n == 1:
        return McEstimate(float(mass0), 0.0, 0, stream.label())

    npts = 1 << max(6, math.ceil(math.log2(max(1, samples // _QMC_RANDOMIZATIONS))))
    block = min(npts, _SWEEP_CHUNK)
    u_top = np.nextafter(1.0, 0.0)
    scale = 2.0 ** -_QMC_BITS

    def sweep(k):
        gen = stream.child(k).generator()
        sobol = qmc.Sobol(d=n - 1, scramble=True, bits=_QMC_BITS, seed=gen)
        shifts = gen.integers(0, 1 << _QMC_BITS, size=n - 1, dtype=np.uint32)
        total = 0.0
        for _ in range(npts // block):  # consecutive blocks of the Sobol sequence
            base = sobol.random(block)
            base *= 2.0 ** _QMC_BITS  # the points are exact multiples of 2^-bits
            digits = base.astype(np.uint32)
            d, e, mass = d0, e0, mass0
            prob = mass
            y = np.empty((block, n - 1))
            for i in range(1, n):
                left, right = floor[i - 1]
                # Each point at its 2^-bits cell's centre; the corner biases by -2^-(bits+1).
                t = ((digits[:, i - 1] ^ shifts[i - 1]) + 0.5) * scale * mass
                # t is a value of the CDF of g phi in u = Phi(z), F(u) = a_l min(u, d)
                # + (clip(u, d, e) - d) + a_r max(u - e, 0): invert its middle piece,
                # and where that leaves [d, e], the outer piece of a positive floor.
                u = middle = (1.0 - left) * d + t
                if right > 0.0:
                    past = t - (1.0 - right) * (e - d) - (left - right) * d
                    u = np.where(middle > e, past / right, u)
                if left > 0.0:
                    u = np.where(middle < d, t / left, u)
                y[:, i - 1] = ndtri(np.clip(u, 1e-300, u_top))
                d, e, mass = _mass(floor[i], *_standardized(lo[i], hi[i], y[:, :i] @ chol[i, :i],
                                                            chol[i, i]))
                prob = prob * mass
            total += prob.sum()
        return total / npts

    means = np.array(ordered_map(sweep, range(_QMC_RANDOMIZATIONS)))
    stderr = means.std(ddof=1) / math.sqrt(_QMC_RANDOMIZATIONS)
    return McEstimate(float(np.clip(means.mean(), 0.0, 1.0)), float(stderr),
                      npts * _QMC_RANDOMIZATIONS, stream.label())


def _quadrature_probability(inv, lo, hi, floor, quad_points):
    """QUADRATURE value of E[prod_i g_i(t_i)] for one interval product and
    R^{-1}: each swept coordinate takes nodes on every interval term of g_i,
    with the term's coefficient in the node weights; the last is closed form."""
    n = inv.shape[0]
    if n > QUADRATURE_MAX_DIM:
        raise QuadratureDimensionError(
            f"quadrature supports dimension <= {QUADRATURE_MAX_DIM}, got {n}")
    chol = inv[::-1, ::-1]
    lo, hi, floor = lo[::-1], hi[::-1], floor[::-1]
    terms = []  # per swept coordinate: the coefficients and limits of its terms
    for l, h, (left, right) in zip(lo[:-1], hi[:-1], floor[:-1]):
        coef = np.array([left, 1.0 - (left + right), right])
        keep = coef != 0.0
        terms.append((coef[keep], *np.array([[-math.inf, l, l], [h, h, math.inf]])[:, keep]))
    base_nodes, base_weights = np.polynomial.legendre.leggauss(quad_points)
    sizes = [coef.size * quad_points for coef, _, _ in terms]  # nodes per swept coordinate
    # The sweep runs over slices of the first coordinate's nodes, so an array
    # holds at most max(_WORK_COLUMNS, the middle coordinates' product) nodes.
    step = max(1, _WORK_COLUMNS // math.prod(sizes[1:]))
    total = 0.0
    for first in range(0, sizes[0] if sizes else 1, step):
        weight, z = np.ones(1), np.empty((1, 0))
        for i, (coef, term_lo, term_hi) in enumerate(terms):
            a, b = np.clip(_standardized(term_lo, term_hi, (z @ chol[i, :i])[:, None], chol[i, i]),
                           -QUADRATURE_TRUNCATION, QUADRATURE_TRUNCATION)
            half = 0.5 * np.maximum(b - a, 0.0)
            zi = (0.5 * (a + b))[..., None] + half[..., None] * base_nodes
            weight = (weight[:, None] * half)[..., None] * (coef[:, None] * base_weights)
            weight = (weight * np.exp(-0.5 * zi * zi)).reshape(-1) / math.sqrt(2.0 * math.pi)
            zi = zi.reshape(-1)
            if i == 0:
                weight, zi = weight[first:first + step], zi[first:first + step]
            z = np.concatenate((np.repeat(z, zi.size // len(z), axis=0), zi[:, None]), axis=1)
        last = _standardized(lo[-1], hi[-1], z @ chol[-1, :-1], chol[-1, -1])
        total += np.sum(weight * _mass(floor[-1], *last)[2])
    return McEstimate(min(max(float(total), 0.0), 1.0), 0.0, math.prod(sizes), "deterministic")


def box_probability(r, sigma, intervals, cfg: IntegratorConfig,
                    stream: RngStream | None = None, floors=None) -> McEstimate:
    """Probability that N(0, sigma^2 (R^T R)^{-1}) lands in the interval
    product or, with ``floors`` (an (n, 2) array of pairs (a_left, a_right)
    in [0, 1]), E[prod_i g_i(xi_i)], on every backend.  ``stream`` is
    required for the stochastic backends and ignored by quadrature.

    Once unit floors are infinite limits, the full-line coordinates are
    integrated out exactly: with those coordinates first, the trailing
    block of the R factor of the permuted problem is the factor of the
    others' marginal, and the backend integrates that.  Every backend
    refuses a factor whose (R^T R)^{-1} overflows (``RankDeficientError``).
    """
    r, sigma, lo, hi, floor = _validate(r, sigma, intervals, floors, cfg, stream)
    lo, hi = _standardized(lo, hi, 0.0, sigma)
    unit = floor == 1.0
    lo, hi = np.where(unit[:, 0], -math.inf, lo), np.where(unit[:, 1], math.inf, hi)
    floor = np.where(unit, 0.0, floor)
    full = np.isneginf(lo) & np.isposinf(hi)
    if full.all():
        return McEstimate(1.0, 0.0, 0, "deterministic" if cfg.method is
                          IntegratorMethod.QUADRATURE else stream.label())
    if full.any():
        keep = np.flatnonzero(~full)
        r = permuted_factor(r, np.concatenate((np.flatnonzero(full), keep)))
        r = r[-keep.size:, -keep.size:]
        lo, hi, floor = lo[keep], hi[keep], floor[keep]
    inv = np.linalg.inv(r)  # the only inversion of R per integral
    with np.errstate(over="ignore", invalid="ignore"):
        cov = inv @ inv.T  # QMC orders the coordinates by it: all refuse its overflow
    if not np.isfinite(cov).all():
        raise RankDeficientError("the error covariance (R^T R)^{-1} overflows float64")
    if cfg.method is IntegratorMethod.QUADRATURE:
        return _quadrature_probability(inv, lo, hi, floor, cfg.quad_points)
    if cfg.method is IntegratorMethod.SEQ_QMC:
        return _qmc_probability(r, cov, lo, hi, floor, cfg.samples, stream)
    return _mc_probability(r, lo, hi, floor, cfg.samples, stream)
