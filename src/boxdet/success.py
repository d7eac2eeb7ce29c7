"""Success probabilities of the box-clamped detectors.

Each is a law of the true vector x-hat plus one shared call.  The law gives
every coordinate a pair of floors (a_left, a_right): given the error xi_i,
the rounding detector succeeds with g_i(xi_i) = a_left below [-1/2, 1/2],
1 on it and a_right above it.  At a fixed x-hat the pair is read off the
coordinate's boundary tag (``_TAGS``); for x-hat uniform over a box,
averaging over the w_i + 1 points of a width-w_i coordinate gives both
floors 1 / (w_i + 1), and the average factorizes because the box is a
product.

P^BR = E[prod_i g_i(xi_i)] is one floored ``gaussbox.box_probability``.
Given the earlier Babai decisions right, coordinate i's error has mass
phi(r_ii) on [-1/2, 1/2] and half the rest on each side, so
P^BB = prod_i (a_i + (1 - a_i) phi(r_ii)) with a_i = (a_left + a_right) / 2.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.special import erf

# Unused here, but perfbench/spans.py wraps success.ordered_map by name.
from ._parallel import ordered_map  # noqa: F401
from .errors import DimensionMismatchError, QuadratureDimensionError
from .gaussbox import (FINITE, QUADRATURE_MAX_DIM, IntegratorConfig, IntegratorMethod,
                       McEstimate, box_probability)
from .linalg import validate_upper_triangular
from .model import BoundaryTag, BoxConstraint, admissible_tags, validate_sigma
from .rng import RngStream

_UNIFORM_POINTS = 16  # points of a uniform cell per coordinate and cfg.samples


def phi(zeta: float, sigma: float) -> float:
    """Centered Gaussian mass of an interval of half-width zeta / 2 at
    noise level sigma: equals erf(zeta / (2 sqrt(2) sigma)).

    Monotone increasing in zeta with range [0, 1).
    """
    if not zeta >= 0.0:  # NaN too
        raise ValueError("zeta must be nonnegative")
    sigma = validate_sigma(sigma)
    # In Python floats: a numpy scalar zeta would warn on overflow at a
    # subnormal sigma, where the quotient is inf and erf gives 1.
    return float(erf(float(zeta) / (2.0 * math.sqrt(2.0) * sigma)))


# Per boundary tag, the floors (a_left, a_right) of g_i: the clamp turns
# the errors beyond a bound (L, U) or all of them (S) into successes.
_TAGS = {
    BoundaryTag.LOWER: (1.0, 0.0),
    BoundaryTag.INTERIOR: (0.0, 0.0),
    BoundaryTag.UPPER: (0.0, 1.0),
    BoundaryTag.SINGLETON: (1.0, 1.0),
}


def _pattern_law(pattern) -> list:
    return [_TAGS[tag] for tag in pattern]


def _uniform_law(box: BoxConstraint) -> np.ndarray:
    return np.repeat(1.0 / (box.widths[:, None] + 1.0), 2, axis=1)


def _checked(r, law) -> np.ndarray:
    """R, checked, with one floor pair of ``law`` per coordinate."""
    r = validate_upper_triangular(r)
    if len(law) != r.shape[0]:
        raise DimensionMismatchError(f"{len(law)} coordinates given for matrix dimension {len(r)}")
    return r


def _babai(r, sigma: float, law) -> float:
    """prod_i (a_i + (1 - a_i) phi(r_ii)) with a_i = (a_left + a_right) / 2
    (Chang, Wen and Xie, IEEE Trans. Inf. Theory 59(8), 2013); factors
    multiply in coordinate order."""
    diag = np.diag(_checked(r, law))
    means = [(left + right) / 2.0 for left, right in law]
    return math.prod(a + (1.0 - a) * phi(rii, sigma) for rii, a in zip(diag, means))


def uniform_integrator(cfg: IntegratorConfig, box: BoxConstraint) -> IntegratorConfig:
    """``cfg`` with the 16 n ``cfg.samples`` points of a uniform cell on the
    n-coordinate box.  Quadrature is refused past ``QUADRATURE_MAX_DIM``
    coordinates of width >= 1: width 0 gives floors (1, 1), which
    ``box_probability`` integrates out before the cap applies."""
    wide = int(np.count_nonzero(box.widths))
    if cfg.method is IntegratorMethod.QUADRATURE and wide > QUADRATURE_MAX_DIM:
        raise QuadratureDimensionError(f"quadrature supports dimension <= {QUADRATURE_MAX_DIM}, "
                                       f"got {wide} coordinates of width >= 1")
    return replace(cfg, samples=_UNIFORM_POINTS * box.dim * cfg.samples)


def _rounding(r, sigma: float, law, cfg: IntegratorConfig, stream) -> McEstimate:
    return box_probability(r, sigma, (FINITE,) * len(law), cfg, stream, law)


def p_bb_deterministic(r, sigma: float, pattern) -> float:
    """Success probability of the clamped Babai detector at a fixed true
    vector with the given boundary pattern.  Per coordinate:
    (1 + phi(r_ii)) / 2 on a bound, phi(r_ii) in the interior, 1 on a
    singleton coordinate."""
    return _babai(r, sigma, _pattern_law(pattern))


def p_bb_uniform(r, sigma: float, box: BoxConstraint) -> float:
    """Success probability of the clamped Babai detector when the true
    vector is uniform over the box: the product of
    1/(w+1) + w/(w+1) * phi(r_ii) with w = upper - lower per coordinate."""
    return _babai(r, sigma, _uniform_law(box))


def p_bb_bounds(r, sigma: float, box: BoxConstraint | None = None):
    """Lower and upper bounds on the deterministic Babai success probability
    over the box's admissible patterns: each coordinate takes its admissible
    tag of lowest, then of highest, mean floor.  Without a box every width
    counts as >= 2: all-interior and all-boundary."""
    n = validate_upper_triangular(r).shape[0]
    laws = [_pattern_law(admissible_tags(w)) for w in ([2] * n if box is None else box.widths)]
    return tuple(_babai(r, sigma, [pick(law, key=sum) for law in laws]) for pick in (min, max))


def p_br_deterministic(r, sigma: float, pattern, cfg: IntegratorConfig,
                       stream: RngStream | None = None) -> McEstimate:
    """Success probability of the clamped rounding detector at a fixed
    true vector: the Gaussian probability of [-1/2, 1/2]^n with each bound
    coordinate's interval extended to infinity on its clamped side."""
    return _rounding(r, sigma, _pattern_law(pattern), cfg, stream)


def p_br_uniform(r, sigma: float, box: BoxConstraint, cfg: IntegratorConfig,
                 stream: RngStream | None = None) -> McEstimate:
    """Success probability of the clamped rounding detector when the true
    vector is uniform over the box: E[prod_i (a_i + (1 - a_i)
    1(|xi_i| <= 1/2))] with a_i = 1 / (w_i + 1), from 16 n ``cfg.samples``
    points (for QMC, n ``cfg.samples`` per randomization, rounded up to a
    power of two and refused past 2^30).  Quadrature (at most 4 coordinates
    of width >= 1) ignores the point count and takes its nodes on each
    coordinate's interval terms.
    """
    law = _uniform_law(box)  # checked before the integrator reads the box
    return _rounding(_checked(r, law), sigma, law, uniform_integrator(cfg, box), stream)
