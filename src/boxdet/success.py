"""Success probabilities of the box-clamped detectors.

Closed forms exist for the Babai detector: with a deterministic true
vector the probability is a product of per-coordinate factors that depend
only on the diagonal of R, the noise level, and the boundary pattern; with
a uniformly random true vector the pattern averages out into another
product.  Single-point box coordinates contribute a factor of 1 (the clamp
makes detection certain there).

The rounding detector has no product form: its deterministic-vector
success probability is a Gaussian box probability whose intervals are read
off the boundary pattern, and the uniform-vector probability is the
average over all box points.  Because the integral depends on the true
vector only through its pattern, that average collapses from
prod(u_i - l_i + 1) terms to at most 3^n weighted pattern integrals, and
folding each pattern with its L <-> U mirror halves those.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
from scipy.special import erf

# Unused here, but perfbench/spans.py wraps success.ordered_map by name.
from ._parallel import ordered_map  # noqa: F401
from .errors import DimensionMismatchError, PatternBudgetError
from .gaussbox import (
    IntegratorConfig,
    McEstimate,
    box_probabilities,
    box_probability,
    intervals_from_pattern,
)
from .linalg import validate_upper_triangular
from .model import BoundaryTag, BoxConstraint, validate_sigma
from .rng import RngStream

PATTERN_BUDGET = 3 ** 10


def phi(zeta: float, sigma: float) -> float:
    """Centered Gaussian mass of an interval of half-width zeta / 2 at
    noise level sigma: equals erf(zeta / (2 sqrt(2) sigma)).

    Monotone increasing in zeta with range [0, 1).
    """
    if zeta < 0.0:
        raise ValueError("zeta must be nonnegative")
    sigma = validate_sigma(sigma)
    return float(erf(zeta / (2.0 * math.sqrt(2.0) * sigma)))


def _diag(r) -> np.ndarray:
    return np.diag(validate_upper_triangular(r))


def p_bb_deterministic(r, sigma: float, pattern) -> float:
    """Success probability of the clamped Babai detector at a fixed true
    vector with the given boundary pattern.

    Per coordinate: (1 + phi(r_ii)) / 2 on a bound, phi(r_ii) in the
    interior, 1 on a singleton coordinate.
    """
    diag = _diag(r)
    pattern = tuple(pattern)
    if len(pattern) != diag.size:
        raise DimensionMismatchError(
            f"pattern length {len(pattern)} does not match dimension {diag.size}"
        )
    prob = 1.0
    for rii, tag in zip(diag, pattern):
        f = phi(rii, sigma)
        if tag is BoundaryTag.INTERIOR:
            prob *= f
        elif tag in (BoundaryTag.LOWER, BoundaryTag.UPPER):
            prob *= (1.0 + f) / 2.0
        # singleton coordinates are detected with certainty
    return prob


def p_bb_uniform(r, sigma: float, box: BoxConstraint) -> float:
    """Success probability of the clamped Babai detector when the true
    vector is uniform over the box: the product of
    1/(w+1) + w/(w+1) * phi(r_ii) with w = upper - lower per coordinate."""
    diag = _diag(r)
    if box.dim != diag.size:
        raise DimensionMismatchError(
            f"box dimension {box.dim} does not match matrix dimension {diag.size}"
        )
    prob = 1.0
    for rii, w in zip(diag, box.widths):
        w = float(w)
        prob *= 1.0 / (w + 1.0) + (w / (w + 1.0)) * phi(rii, sigma)
    return prob


def p_bb_bounds(r, sigma: float):
    """Pattern-free lower and upper bounds on the deterministic Babai
    success probability; the all-interior pattern attains the lower bound
    and an all-boundary pattern the upper bound."""
    diag = _diag(r)
    phis = np.array([phi(rii, sigma) for rii in diag])
    lower = float(np.prod(phis))
    upper = float(np.prod((1.0 + phis) / 2.0))
    return lower, upper


def p_br_deterministic(r, sigma: float, pattern, cfg: IntegratorConfig,
                       stream: RngStream | None = None) -> McEstimate:
    """Success probability of the clamped rounding detector at a fixed
    true vector: the Gaussian box probability of the interval product read
    off the boundary pattern."""
    r = validate_upper_triangular(r)
    pattern = tuple(pattern)
    if len(pattern) != r.shape[0]:
        raise DimensionMismatchError(
            f"pattern length {len(pattern)} does not match dimension {r.shape[0]}"
        )
    return box_probability(r, sigma, intervals_from_pattern(pattern), cfg, stream)


def _pattern_choices(box: BoxConstraint) -> list:
    """Per-coordinate (tag, point count) options: a width-w coordinate has
    one lower point, one upper point and w - 1 interior points; width 0 is
    a singleton."""
    options = []
    for w in box.widths:
        w = int(w)
        if w == 0:
            options.append(((BoundaryTag.SINGLETON, 1),))
        elif w == 1:
            options.append(((BoundaryTag.LOWER, 1), (BoundaryTag.UPPER, 1)))
        else:
            options.append((
                (BoundaryTag.LOWER, 1),
                (BoundaryTag.INTERIOR, w - 1),
                (BoundaryTag.UPPER, 1),
            ))
    return options


def _folded_patterns(options) -> list:
    """(pattern, weight) pairs in enumeration order, one per L <-> U mirror
    pair.  xi and -xi have the same law, so a pattern and its mirror have
    equal integrals: the pair is integrated once, at double weight, as the
    member whose first bound tag is LOWER.  The weight counts the box points
    with the pattern (and with its mirror, if folded in)."""
    folded = []
    for combo in itertools.product(*options):
        pattern = tuple(tag for tag, _ in combo)
        weight = math.prod(count for _, count in combo)
        bounds = [tag for tag in pattern if tag in (BoundaryTag.LOWER, BoundaryTag.UPPER)]
        if not bounds:
            folded.append((pattern, weight))
        elif bounds[0] is BoundaryTag.LOWER:
            folded.append((pattern, 2 * weight))
    return folded


def p_br_uniform(r, sigma: float, box: BoxConstraint, cfg: IntegratorConfig,
                 stream: RngStream | None = None) -> McEstimate:
    """Success probability of the clamped rounding detector when the true
    vector is uniform over the box.

    The sum over all box points is grouped by boundary pattern: each
    pattern's integral is weighted by the number of box points sharing it
    and the total is divided by the box size.  Mirror patterns are folded
    (see ``_folded_patterns``), which about halves the integrals, and each
    one gets twice ``cfg.samples`` so the samples per cell stay about the
    same.  All patterns go to ``box_probabilities`` in one batch.  The
    pattern errors are uncorrelated, so their stderrs combine in
    quadrature.

    Raises
    ------
    PatternBudgetError
        If the number of non-degenerate patterns exceeds
        ``PATTERN_BUDGET``.
    """
    r = validate_upper_triangular(r)
    if box.dim != r.shape[0]:
        raise DimensionMismatchError(
            f"box dimension {box.dim} does not match matrix dimension {r.shape[0]}"
        )
    options = _pattern_choices(box)
    budget = math.prod(len(opts) for opts in options)
    if budget > PATTERN_BUDGET:
        raise PatternBudgetError(
            f"{budget} boundary patterns exceed the cap of {PATTERN_BUDGET}"
        )
    folded = _folded_patterns(options)
    if len(folded) < budget:
        cfg = replace(cfg, samples=2 * cfg.samples)
    sub = stream if stream is not None else RngStream(0)
    ests = box_probabilities(r, sigma, [intervals_from_pattern(p) for p, _ in folded],
                             cfg, sub)
    weights = [weight for _, weight in folded]
    total_points = box.num_points()
    value = sum(w * est.value for w, est in zip(weights, ests)) / total_points
    var = sum((w * est.stderr) ** 2 for w, est in zip(weights, ests)) / total_points ** 2
    samples = sum(est.samples for est in ests)
    return McEstimate(float(np.clip(value, 0.0, 1.0)), math.sqrt(var), samples,
                      sub.label())
