"""Computations made apart from boxdet, and the tolerances the checks use.

Nothing here imports boxdet: the checks compare the program's outputs
against these numbers, or against a property the paper proves.

Tolerances are sized so that a correct program fails a check by chance with
probability at most about 1e-9 per check:

* binomial rates (the program's empirical rates and this module's own
  simulation) use Bernstein's inequality, which holds at every true rate,
  0 and 1 included, unlike a normal approximation;
* a stochastic estimate the program reports with its own standard error is
  allowed ``STDERR_MULTIPLE`` of those errors.  The QMC stderr is the
  spread of 16 randomizations, so its ratio to the true error follows a
  Student t law with 15 degrees of freedom, whose tails are far heavier
  than the normal's (P(|t15| > 12) is about 4e-9);
* scipy's reference integrals stop once their own error estimate, three
  batch standard deviations, is below ``abseps``; they are allowed four
  times that (twelve standard deviations).
"""

import math

import numpy as np
import scipy.linalg
from scipy.special import erf
from scipy.stats import multivariate_normal

FAILURE_PROBABILITY = 1e-9
BERNSTEIN_T = math.log(2.0 / FAILURE_PROBABILITY)
STDERR_MULTIPLE = 12.0
REFERENCE_ERROR_MULTIPLE = 4.0
CSV_ROUNDING = 1e-6  # two values printed with six decimals

# Canonical rounding-detector intervals of xi = x_rounded - x_true per
# boundary letter: on the lower bound the clamp forgives any undershoot,
# on the upper bound any overshoot.
_INTERVALS = {
    "L": (-math.inf, 0.5),
    "I": (-0.5, 0.5),
    "U": (-0.5, math.inf),
}


def bernstein_halfwidth(variance, count, span=1.0, t=BERNSTEIN_T):
    """Half-width eps with P(|mean - mu| > eps) <= 2 exp(-t) for the mean of
    ``count`` independent terms of at most ``variance`` each, each within
    ``span`` of its expectation (Bernstein's inequality)."""
    a = span * t / 3.0
    return (a + math.sqrt(a * a + 2.0 * count * variance * t)) / count


def binomial_variance_bound(rate, count):
    """An upper bound on p(1 - p) that holds with the Bernstein confidence
    when ``rate`` is an observed binomial rate over ``count`` trials."""
    slack = bernstein_halfwidth(0.25, count)
    lo, hi = max(0.0, rate - slack), min(1.0, rate + slack)
    if lo <= 0.5 <= hi:
        return 0.25
    p = lo if hi < 0.5 else hi
    return p * (1.0 - p)


def random_r(rng, n):
    """R of the QR factorization of an n x n standard normal matrix, with
    the diagonal made positive."""
    _, r = np.linalg.qr(rng.standard_normal((n, n)))
    return np.sign(np.diag(r))[:, None] * r


def phi(r_diag, sigma):
    return erf(np.asarray(r_diag) / (2.0 * math.sqrt(2.0) * sigma))


def p_bb_uniform(r, sigma, width):
    """Babai success probability for x uniform over a box of the given
    width per coordinate (the paper's product formula)."""
    w = float(width)
    return float(np.prod(1.0 / (w + 1.0) + w / (w + 1.0) * phi(np.diag(r), sigma)))


def p_bb_pattern(r, sigma, pattern):
    """Babai success probability for a fixed x with boundary pattern
    ``pattern`` (letters L/I/U)."""
    f = phi(np.diag(r), sigma)
    factors = [fi if ch == "I" else (1.0 + fi) / 2.0 for fi, ch in zip(f, pattern)]
    return float(np.prod(factors))


def pattern_limits(pattern):
    lo = np.array([_INTERVALS[ch][0] for ch in pattern])
    hi = np.array([_INTERVALS[ch][1] for ch in pattern])
    return lo, hi


def sigma_for(target, prob_of_sigma, lo=1e-4, hi=1e4, steps=60):
    """Noise level at which a probability that decreases in sigma equals
    ``target`` (bisection on a log scale)."""
    for _ in range(steps):
        mid = math.sqrt(lo * hi)
        if prob_of_sigma(mid) > target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def sigma_for_rounding(target, r, pattern, samples, rng):
    """Noise level at which the simulated P_D^BR of ``pattern`` is about
    ``target``.  A sample xi at sigma = 1 stays inside the pattern's
    intervals exactly for sigma up to its own limit, so the answer is a
    quantile of those limits."""
    lo, hi = pattern_limits(pattern)
    xi = unit_noise_errors(r, samples, rng)
    with np.errstate(divide="ignore"):
        reach = np.where(xi > 0, hi / xi, np.where(xi < 0, lo / xi, math.inf))
    return float(np.quantile(reach.min(axis=1), 1.0 - target))


def unit_noise_errors(r, count, rng):
    """Rows xi = R^{-1} z with z standard normal: the rounding detector's
    error law at sigma = 1 (xi scales linearly with sigma)."""
    z = rng.standard_normal((r.shape[0], count))
    return scipy.linalg.solve_triangular(r, z, lower=False).T


def simulate_rounding_uniform(r, sigma, width, trials, rng, chunk=1 << 17):
    """Successes of the clamped rounding detector in ``trials`` direct
    simulations with x uniform over {0..width}^n: form d = x + R^{-1} v,
    round, clamp and compare with x."""
    n = r.shape[0]
    hits = 0
    done = 0
    while done < trials:
        size = min(chunk, trials - done)
        x = rng.integers(0, width + 1, size=(size, n))
        xi = sigma * unit_noise_errors(r, size, rng)
        detected = np.clip(np.rint(x + xi), 0, width)
        hits += int(np.count_nonzero(np.all(detected == x, axis=1)))
        done += size
    return hits


def box_cdf(r, sigma, lo, hi, abseps, rng):
    """P(lo <= xi <= hi) for xi ~ N(0, sigma^2 (R^T R)^{-1}) by scipy's
    multivariate normal CDF (exact for n <= 2, Genz's QMC above)."""
    n = r.shape[0]
    rinv = scipy.linalg.solve_triangular(r, np.eye(n), lower=False)
    cov = sigma * sigma * (rinv @ rinv.T)
    return float(multivariate_normal.cdf(hi, mean=np.zeros(n), cov=cov,
                                         lower_limit=lo, abseps=abseps,
                                         releps=0.0, rng=rng))
