"""Success probabilities of the box-clamped detectors.

Closed forms exist for the Babai detector: with a deterministic true
vector the probability is a product of per-coordinate factors that depend
only on the diagonal of R, the noise level, and the boundary pattern; with
a uniformly random true vector the pattern averages out into another
product.  Single-point box coordinates contribute a factor of 1 (the clamp
makes detection certain there).

The rounding detector has no product form: its deterministic-vector
success probability is a Gaussian box probability whose intervals are read
off the boundary pattern.  The uniform-vector probability is the average
over all box points, and because the box is a product that average
factorizes per coordinate inside the expectation: it is
E[prod_i (a_i + (1 - a_i) 1(|xi_i| <= 1/2))] with a_i = 1 / (w_i + 1),
the same form as the Babai closed form prod_i (a_i + (1 - a_i) phi(r_ii)).
"""

import math
from dataclasses import replace

import numpy as np
from scipy.special import erf

# Unused here, but perfbench/spans.py wraps success.ordered_map by name.
from ._parallel import ordered_map  # noqa: F401
from .errors import DimensionMismatchError
from .gaussbox import (
    FINITE,
    FULL_LINE,
    LEFT_INFINITE,
    RIGHT_INFINITE,
    IntegratorConfig,
    McEstimate,
    box_probability,
)
from .linalg import validate_upper_triangular
from .model import BoundaryTag, BoxConstraint, admissible_tags, validate_sigma
from .rng import RngStream

_UNIFORM_POINTS = 16  # points of a uniform cell per coordinate and cfg.samples


def phi(zeta: float, sigma: float) -> float:
    """Centered Gaussian mass of an interval of half-width zeta / 2 at
    noise level sigma: equals erf(zeta / (2 sqrt(2) sigma)).

    Monotone increasing in zeta with range [0, 1).
    """
    if zeta < 0.0:
        raise ValueError("zeta must be nonnegative")
    sigma = validate_sigma(sigma)
    # In Python floats: a numpy scalar zeta would warn on overflow at a
    # subnormal sigma, where the quotient is inf and erf gives 1.
    return float(erf(float(zeta) / (2.0 * math.sqrt(2.0) * sigma)))


# Per tag: the interval of xi_i on which rounding succeeds, and the floor a
# of the Babai factor a + (1 - a) phi(r_ii).  The clamp turns half (bound)
# or all (singleton) of the errors into successes.
_TAGS = {
    BoundaryTag.LOWER: (LEFT_INFINITE, 0.5),
    BoundaryTag.INTERIOR: (FINITE, 0.0),
    BoundaryTag.UPPER: (RIGHT_INFINITE, 0.5),
    BoundaryTag.SINGLETON: (FULL_LINE, 1.0),
}


def intervals_from_pattern(pattern) -> tuple:
    """Canonical interval product for a boundary pattern: lower-bound
    coordinates get (-inf, 1/2], interior [-1/2, 1/2], upper-bound
    [-1/2, inf), singleton the full line."""
    return tuple(_TAGS[tag][0] for tag in pattern)


def _babai_product(r, sigma: float, floors) -> float:
    """prod_i (a_i + (1 - a_i) phi(r_ii)) with floors a: the product form
    of every Babai success probability (Chang, Wen and Xie, IEEE Trans.
    Inf. Theory 59(8), 2013).  Factors multiply in coordinate order."""
    diag = np.diag(validate_upper_triangular(r))
    if len(floors) != diag.size:
        raise DimensionMismatchError(
            f"{len(floors)} coordinates given for matrix dimension {diag.size}"
        )
    return math.prod(a + (1.0 - a) * phi(rii, sigma) for rii, a in zip(diag, floors))


def p_bb_deterministic(r, sigma: float, pattern) -> float:
    """Success probability of the clamped Babai detector at a fixed true
    vector with the given boundary pattern.

    Per coordinate: (1 + phi(r_ii)) / 2 on a bound, phi(r_ii) in the
    interior, 1 on a singleton coordinate.
    """
    return _babai_product(r, sigma, [_TAGS[tag][1] for tag in pattern])


def p_bb_uniform(r, sigma: float, box: BoxConstraint) -> float:
    """Success probability of the clamped Babai detector when the true
    vector is uniform over the box: the product of
    1/(w+1) + w/(w+1) * phi(r_ii) with w = upper - lower per coordinate."""
    return _babai_product(r, sigma, 1.0 / (box.widths + 1.0))


def p_bb_bounds(r, sigma: float, box: BoxConstraint | None = None):
    """Lower and upper bounds on the deterministic Babai success probability
    over the box's admissible patterns: the products at each coordinate's
    lowest and highest admissible floor.  Without a box every width counts
    as >= 2, so the bounds are the all-interior and all-boundary products."""
    n = validate_upper_triangular(r).shape[0]
    floors = [[_TAGS[tag][1] for tag in admissible_tags(w)]
              for w in ([2] * n if box is None else box.widths)]
    return tuple(_babai_product(r, sigma, [pick(f) for f in floors]) for pick in (min, max))


def p_br_deterministic(r, sigma: float, pattern, cfg: IntegratorConfig,
                       stream: RngStream | None = None) -> McEstimate:
    """Success probability of the clamped rounding detector at a fixed
    true vector: the Gaussian box probability of the interval product read
    off the boundary pattern."""
    return box_probability(r, sigma, intervals_from_pattern(pattern), cfg, stream)


def p_br_uniform(r, sigma: float, box: BoxConstraint, cfg: IntegratorConfig,
                 stream: RngStream | None = None) -> McEstimate:
    """Success probability of the clamped rounding detector when the true
    vector is uniform over the box.

    Of a width-w coordinate's w + 1 points, the w - 1 interior ones succeed
    on |xi_i| <= 1/2 and the two bound points on (-inf, 1/2] and
    [-1/2, inf), so the coordinate's average indicator is
    g_i = a_i + (1 - a_i) 1(|xi_i| <= 1/2) with a_i = 1 / (w_i + 1); a
    singleton has g_i = 1.  E[prod_i g_i(xi_i)] is one floor-weighted
    ``box_probability`` of 16 n ``cfg.samples`` points (for QMC,
    n ``cfg.samples`` per randomization, rounded up to a power of two);
    quadrature (n <= 4) ignores the point count and sweeps each of the at
    most 3^n products of the floors' interval terms.  ``stream`` is
    required for the stochastic backends, as in ``box_probability``.
    """
    r = validate_upper_triangular(r)
    n = r.shape[0]
    if box.dim != n:
        raise DimensionMismatchError(
            f"box dimension {box.dim} does not match matrix dimension {n}"
        )
    cfg = replace(cfg, samples=_UNIFORM_POINTS * n * cfg.samples)
    return box_probability(r, sigma, (FINITE,) * n, cfg, stream, 1.0 / (box.widths + 1.0))
