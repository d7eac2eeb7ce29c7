"""Gaussian probabilities of axis-aligned interval products.

Evaluates G = Pr(xi in I_1 x ... x I_n) for xi ~ N(0, sigma^2 (R^T R)^{-1})
with R upper triangular and positive-diagonal, i.e. the normalized integral

    det(R) / (2 pi sigma^2)^{n/2} * integral_I exp(-||R xi||^2 / (2 sigma^2)).

sigma enters only as a scale: the probability depends on the limits only
through lo / sigma and hi / sigma.  ``box_probability`` divides the limits
by sigma once, and every backend integrates t = xi / sigma ~
N(0, (R^T R)^{-1}) against them; a limit past the float range becomes
infinite, so an extreme sigma needs no special case.

A coordinate may carry a floor weight a_i in [0, 1]: its indicator becomes
g_i(t) = a_i + (1 - a_i) 1(t in I_i), and every backend computes
E[prod_i g_i(xi_i)].  A plain box probability is the case a = 0.

Three interchangeable backends:

* ``MONTE_CARLO`` -- draw z ~ N(0, I) and set t = R^{-1} z, which has
  exactly the target law; average prod_i g_i(t_i).  Unbiased;
  for a box probability the standard error is the binomial one.  Default,
  for robustness.
* ``SEQ_QMC`` -- sequential conditioning with randomized Sobol points
  (Genz 1992).  The coordinates are first prioritized: a greedy order puts
  the coordinate of least conditional mass first (Gibson, Glasbey and
  Elston 1994), and the sweep runs on the positive-diagonal R factor of
  numpy's QR of the column-permuted R, which gives the permuted problem
  the same law.  The covariance factor R^{-1} is upper triangular,
  so reversing the coordinate order makes it a lower-triangular Cholesky
  factor and the standard one-dimensional conditional sweep applies.  At
  each step the weight is multiplied by the conditional mass
  a_i + (1 - a_i) (Phi(beta) - Phi(alpha)) of g_i, and the next point is
  drawn from the density proportional to g_i phi by inverting its
  three-piece CDF (one ``ndtri`` per step; n - 1 Sobol dimensions).  Each
  of the 16 randomizations scrambles its own Sobol sequence (scipy's linear
  matrix scramble plus digital shift), XORs its digits with one more
  random digital shift, and sweeps it in blocks of at most 2^14 points, so
  memory does not grow with the sample count.  The randomizations run on
  the thread pool.  Standard error from the spread over the
  randomizations.
* ``QUADRATURE`` -- the same sweep, dimension <= 4, with
  m <= 128 Gauss-Legendre nodes in place of Sobol points on each of the
  first n - 1 standardized conditional intervals.  These have unit
  variance whatever R is, so each is clipped to +-``QUADRATURE_TRUNCATION``
  = 10; the neglected mass is below erfc(10 / sqrt(2)) / 2 < 1e-23 per
  clipped end.  The last coordinate is closed form.  A floor weight is
  expanded into interval terms, g = a 1(t <= hi) + (1 - 2a) 1(lo <= t <= hi)
  + a 1(t >= lo) (terms of coefficient 0 dropped), and each product of
  terms (a row) is swept on its own, so ``samples`` = rows * m^(n-1).
  Reported stderr is 0.

The boundary patterns of ``success`` read off the intervals [-1/2, 1/2],
(-inf, 1/2], [-1/2, inf) and (-inf, inf); the last one arises only for
single-point box coordinates.  The integrators accept arbitrary (lo, hi)
intervals.  A full-line coordinate (a full-line interval or a unit floor)
has g_i = 1; every backend integrates it out exactly, by taking the
marginal of the others, before the quadrature dimension cap applies.

QMC and quadrature take the factor R^{-1} from numpy's LAPACK
(``np.linalg.inv``), and the permuted factors from its QR
(``np.linalg.qr``); at these sizes neither starts a BLAS worker.  Nothing
here calls scipy's LAPACK: scipy bundles a second OpenBLAS whose worker
thread busy-waits after each call and takes a core from the pool.
"""

import enum
import itertools
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
)
from .linalg import back_substitute, validate_upper_triangular
from .model import validate_sigma
from .rng import RngStream, standard_normal

QUADRATURE_MAX_DIM = 4
# leggauss(m) builds an m x m matrix and a 4-D sweep holds m^3 nodes per row.
QUADRATURE_MAX_POINTS = 128
QUADRATURE_TRUNCATION = 10.0  # standardized conditional limits kept
_MC_BLOCK = 1 << 16
_QMC_RANDOMIZATIONS = 16
_QMC_BITS = 30  # binary digits per Sobol coordinate
_SWEEP_CHUNK = 1 << 14  # QMC points per array


class Interval(NamedTuple):
    lo: float
    hi: float


FINITE = Interval(-0.5, 0.5)
LEFT_INFINITE = Interval(-math.inf, 0.5)
RIGHT_INFINITE = Interval(-0.5, math.inf)
FULL_LINE = Interval(-math.inf, math.inf)

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
        if not 2 <= self.quad_points <= QUADRATURE_MAX_POINTS:
            raise InvalidConfigError(
                f"quad_points must be between 2 and {QUADRATURE_MAX_POINTS}, "
                f"got {self.quad_points}")


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
    """Checked (R, sigma, lo, hi, floor) of one interval product.  The
    stochastic backends also need a stream."""
    r = validate_upper_triangular(r)
    n = r.shape[0]
    intervals = tuple(intervals)
    if len(intervals) != n:
        raise DimensionMismatchError(f"{len(intervals)} intervals given for dimension {n}")
    bounds = np.array(intervals, dtype=float).reshape(n, 2)
    lo, hi = bounds[:, 0], bounds[:, 1]
    if not np.all(lo < hi):
        raise ValueError("each interval needs lo < hi")
    floor = np.zeros(n) if floors is None else np.asarray(floors, dtype=float)
    if floor.shape != (n,) or not np.all((floor >= 0.0) & (floor <= 1.0)):
        raise ValueError(f"floors must be {n} weights in [0, 1]")
    sigma = validate_sigma(sigma)
    if cfg.method is not IntegratorMethod.QUADRATURE and stream is None:
        raise InvalidConfigError("stochastic backends need an RngStream")
    return r, sigma, lo, hi, floor


def _mc_probability(r, lo, hi, floor, samples, stream):
    n = r.shape[0]
    blocks = [(index, min(_MC_BLOCK, samples - start))
              for index, start in enumerate(range(0, samples, _MC_BLOCK))]

    def sum_block(block):
        idx, size = block
        z = standard_normal(stream.child(idx), (size, n))
        t = back_substitute(r, z.T)  # one column per sample
        inside = (t >= lo[:, None]) & (t <= hi[:, None])
        if floor.any():
            g = np.prod(np.where(inside, 1.0, floor[:, None]), axis=0)
            return float(g.sum()), float(g @ g)
        hits = float(np.count_nonzero(np.all(inside, axis=0)))
        return hits, hits  # an indicator is its own square

    sums = ordered_map(sum_block, blocks)
    p = sum(total for total, _ in sums) / samples
    # The sample variance, written so that an indicator (mean of x^2 = p)
    # gives the binomial p (1 - p) exactly.
    var = p * (1.0 - p) + (sum(square for _, square in sums) / samples - p)
    return McEstimate(p, math.sqrt(max(var, 0.0) / samples), samples, stream.label())


def _permuted_factor(r, perm):
    """Positive-diagonal R' of R[:, perm] = Q R'.  R' t' = Q^T R t with
    t' = t[perm], so t' ~ N(0, (R'^T R')^{-1}): the permuted
    problem has the same law.  numpy's QR, not ``qr_positive``, whose rank
    tolerance would refuse factors that ``validate_upper_triangular``
    accepts."""
    rp = np.triu(np.linalg.qr(r[:, perm], mode="r"))
    return np.where(np.diag(rp) < 0.0, -1.0, 1.0)[:, None] * rp


def _standardized(lo, hi, shift, sd):
    """(lo - shift) / sd and (hi - shift) / sd.  An overflow gives an infinite
    quotient, exact for ndtr and the clips.  errstate is per thread, so set
    here it also holds on the pool's workers that run the QMC sweep."""
    with np.errstate(over="ignore"):
        return (lo - shift) / sd, (hi - shift) / sd


def _prioritized(r, lo, hi, floor):
    """The interval product with its coordinates reordered for the
    conditional sweep: (perm, R', lo, hi, floor) of the permuted problem.

    Greedy variable prioritization (Gibson, Glasbey and Elston 1994; Genz
    and Bretz 2009, sec. 4.1.3): a column-by-column Cholesky factorization
    of (R^T R)^{-1} picks next the remaining coordinate of least conditional
    mass a + (1 - a) (Phi(beta) - Phi(alpha)), with the limits shifted by
    the conditional means (1 - a) (phi(alpha) - phi(beta)) / mass of the
    coordinates already picked, standardized by its conditional sd,
    and clipped to +-40, where Phi is 0 or 1 and the density 0; ties go to
    the lowest index.  The sweep conditions the last column of R' first,
    so perm is that order reversed.
    """
    n = r.shape[0]
    inv = np.linalg.inv(r)
    cov = inv @ inv.T
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
        a = floor[idx]
        mass = a + (1.0 - a) * (ndtr(beta) - ndtr(alpha))
        j = int(np.argmin(mass))
        pick = rest.pop(j)
        order.append(pick)
        factor[pick, k] = sd[j]
        others = np.array(rest, dtype=int)
        factor[others, k] = (cov[others, pick] - factor[others, :k] @ factor[pick, :k]) / sd[j]
        phi_gap = (math.exp(-0.5 * alpha[j] ** 2)
                   - math.exp(-0.5 * beta[j] ** 2)) / math.sqrt(2.0 * math.pi)
        # mass is 0 in floating point far out in a tail, beyond Phi's range.
        means[k] = (1.0 - a[j]) * phi_gap / mass[j] if mass[j] > 0.0 else 0.0
    perm = np.array(order[::-1])
    return perm, _permuted_factor(r, perm), lo[perm], hi[perm], floor[perm]


def _qmc_probability(r, lo, hi, floor, samples, stream):
    """SEQ_QMC estimate of E[prod_i g_i(t_i)] for one interval product."""
    n = r.shape[0]
    _, r, lo, hi, floor = _prioritized(r, lo, hi, floor)
    chol = np.linalg.inv(r)
    # Reversing coordinates turns the upper-triangular factor into a
    # lower-triangular Cholesky factor for the standard conditional sweep.
    chol = chol[::-1, ::-1]
    lo, hi, floor = lo[::-1], hi[::-1], floor[::-1]
    d0, e0 = map(ndtr, _standardized(lo[0], hi[0], 0.0, chol[0, 0]))
    mass0 = floor[0] + (1.0 - floor[0]) * (e0 - d0)
    if n == 1:
        return McEstimate(float(mass0), 0.0, 0, stream.label())

    log2_pts = max(6, math.ceil(math.log2(max(1, samples // _QMC_RANDOMIZATIONS))))
    npts = 1 << log2_pts
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
                a = floor[i - 1]
                t = (digits[:, i - 1] ^ shifts[i - 1]) * scale * mass
                # t is a value of the CDF of g phi in u = Phi(z),
                # F(u) = a u + (1 - a) (clip(u, d, e) - d): invert its middle
                # piece, and where that leaves [d, e], the outer pieces.
                u = (1.0 - a) * d + t
                if a > 0.0:
                    u = np.where(u < d, t / a, np.where(u > e, (t - (1.0 - a) * (e - d)) / a, u))
                y[:, i - 1] = ndtri(np.clip(u, 1e-300, u_top))
                d, e = map(ndtr, _standardized(lo[i], hi[i], y[:, :i] @ chol[i, :i], chol[i, i]))
                mass = floor[i] + (1.0 - floor[i]) * np.maximum(e - d, 0.0)
                prob = prob * mass
            total += prob.sum()
        return total / npts

    means = np.array(ordered_map(sweep, range(_QMC_RANDOMIZATIONS)))
    stderr = means.std(ddof=1) / math.sqrt(_QMC_RANDOMIZATIONS)
    return McEstimate(float(np.clip(means.mean(), 0.0, 1.0)), float(stderr),
                      npts * _QMC_RANDOMIZATIONS, stream.label())


def _quadrature_probability(r, lo, hi, floor, quad_points):
    """QUADRATURE value of E[prod_i g_i(t_i)] for one interval product.

    Each g_i is a sum of interval indicators, a 1(t <= hi) +
    (1 - 2a) 1(lo <= t <= hi) + a 1(t >= lo), without the terms of
    coefficient 0.  Every product of terms is one row of the sweep, and the
    value is the coefficient-weighted sum of the rows.
    """
    n = r.shape[0]
    if n > QUADRATURE_MAX_DIM:
        raise QuadratureDimensionError(
            f"quadrature supports dimension <= {QUADRATURE_MAX_DIM}, got {n}")
    terms = []
    for l, h, a in zip(lo, hi, floor):
        split = [(a, -math.inf, h), (1.0 - 2.0 * a, l, h), (a, l, math.inf)]
        terms.append([term for term in split if term[0] != 0.0])
    rows = list(itertools.product(*terms))
    coef = np.array([math.prod(c for c, _, _ in row) for row in rows])
    chol = np.linalg.inv(r)[::-1, ::-1]
    base_nodes, base_weights = np.polynomial.legendre.leggauss(quad_points)
    values = np.empty(len(rows))
    for k, row in enumerate(rows):
        lo_k, hi_k = np.array([(l, h) for _, l, h in row[::-1]]).T
        weight, z = np.ones(1), np.empty((1, 0))
        for i in range(n):
            a, b = _standardized(lo_k[i], hi_k[i], z @ chol[i, :i], chol[i, i])
            if i == n - 1:
                break  # the last coordinate is closed form
            a = np.clip(a, -QUADRATURE_TRUNCATION, QUADRATURE_TRUNCATION)
            b = np.clip(b, -QUADRATURE_TRUNCATION, QUADRATURE_TRUNCATION)
            half = 0.5 * np.maximum(b - a, 0.0)
            zi = (0.5 * (a + b))[:, None] + half[:, None] * base_nodes
            weight = (weight * half)[:, None] * base_weights * np.exp(-0.5 * zi * zi)
            weight = weight.reshape(-1) / math.sqrt(2.0 * math.pi)
            z = np.concatenate((np.repeat(z, quad_points, axis=0), zi.reshape(-1, 1)), axis=1)
        values[k] = np.sum(weight * (ndtr(b) - ndtr(a)))
    value = float(coef @ np.clip(values, 0.0, 1.0))
    return McEstimate(min(max(value, 0.0), 1.0), 0.0, len(rows) * quad_points ** (n - 1),
                      "deterministic")


def box_probability(r, sigma, intervals, cfg: IntegratorConfig,
                    stream: RngStream | None = None, floors=None) -> McEstimate:
    """Probability that N(0, sigma^2 (R^T R)^{-1}) lands in the interval
    product.  With ``floors`` (a weight a_i in [0, 1] per coordinate) it is
    E[prod_i (a_i + (1 - a_i) 1(xi_i in I_i))] instead, on every backend.
    ``stream`` is required for the stochastic backends and ignored by
    quadrature.

    A full-line coordinate (a full-line interval or a unit floor) has
    g_i = 1 and is integrated out exactly: with those coordinates first,
    the trailing block of the R factor of the permuted problem is the
    factor of the others' marginal, and the backend integrates that.
    """
    r, sigma, lo, hi, floor = _validate(r, sigma, intervals, floors, cfg, stream)
    with np.errstate(over="ignore"):  # a limit past the float range is infinite
        lo, hi = lo / sigma, hi / sigma
    full = (floor == 1.0) | (np.isneginf(lo) & np.isposinf(hi))
    if full.all():
        return McEstimate(1.0, 0.0, 0, "deterministic" if cfg.method is
                          IntegratorMethod.QUADRATURE else stream.label())
    if full.any():
        keep = np.flatnonzero(~full)
        r = _permuted_factor(r, np.concatenate((np.flatnonzero(full), keep)))
        r = r[-keep.size:, -keep.size:]
        lo, hi, floor = lo[keep], hi[keep], floor[keep]
    if cfg.method is IntegratorMethod.QUADRATURE:
        return _quadrature_probability(r, lo, hi, floor, cfg.quad_points)
    kernel = _qmc_probability if cfg.method is IntegratorMethod.SEQ_QMC else _mc_probability
    return kernel(r, lo, hi, floor, cfg.samples, stream)
