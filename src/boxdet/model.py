"""Box constraint, reduced observation model, boundary patterns.

The observation model is y = A x + v with v ~ N(0, sigma^2 I) and x an
integer vector confined to a box.  Left-multiplying by the orthonormal QR
factor (``linalg.qr_positive``) reduces it to ytilde = R x + vtilde with
the noise law unchanged, so the detectors need only (R, ytilde): a
``ReducedModel``.  All success probabilities downstream depend on x only
through its boundary pattern: per coordinate, whether x sits at the lower
bound, the upper bound, strictly inside, or on a single-point coordinate
(lower == upper).
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import DimensionMismatchError, OutOfBoxError
from .linalg import as_vector, validate_upper_triangular

# Within +-2^52 every bound and every width (at most 2^53) is exact in
# float64, which the clamp and the uniform sampler compute in.
MAX_BOUND = 2 ** 52


def validate_sigma(sigma) -> float:
    """sigma as a float; it must be positive and finite."""
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return sigma


class BoundaryTag(enum.Enum):
    LOWER = "L"
    INTERIOR = "I"
    UPPER = "U"
    SINGLETON = "S"


def _bounds(values, name: str) -> np.ndarray:
    """Box bounds as int64, each checked against +-MAX_BOUND while it is
    still a Python number, so an oversized one cannot overflow."""
    values = np.asarray(values, dtype=object).reshape(-1)
    for value in values:
        if not -MAX_BOUND <= value <= MAX_BOUND:
            raise ValueError(
                f"box {name} bound {value} is outside [-2^52, 2^52]"
            )
    return values.astype(np.int64)


@dataclass(frozen=True)
class BoxConstraint:
    """Integer box {x : lower <= x <= upper}, bounds elementwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lower, upper = _bounds(lower, "lower"), _bounds(upper, "upper")
        if lower.size != upper.size:
            raise DimensionMismatchError("lower and upper bounds differ in length")
        if lower.size == 0:
            raise ValueError("box must have at least one coordinate")
        if np.any(lower > upper):
            raise ValueError("need lower <= upper in every coordinate")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def cube(cls, lower: int, upper: int, dim: int) -> "BoxConstraint":
        return cls(np.full(dim, lower), np.full(dim, upper))

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def num_points(self) -> int:
        return int(np.prod(self.widths.astype(object) + 1))

    def contains(self, x) -> bool:
        x = np.asarray(x).reshape(-1)
        return x.size == self.dim and bool(
            np.all(x >= self.lower) and np.all(x <= self.upper)
        )


@dataclass(frozen=True)
class ReducedModel:
    """Upper-triangular observation model ytilde = R x + vtilde.

    R must be square, exactly zero below the diagonal, finite and positive
    on the diagonal (``validate_upper_triangular``); ytilde must match it.
    The noise level is not part of it: no detector reads it.
    """

    r: np.ndarray
    ytilde: np.ndarray

    def __init__(self, r, ytilde):
        r = validate_upper_triangular(r)
        ytilde = as_vector(ytilde, r.shape[0])
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "ytilde", ytilde)

    @property
    def dim(self) -> int:
        return self.ytilde.size


def classify(xhat, box: BoxConstraint) -> tuple:
    """Boundary pattern of an in-box integer vector.

    Per coordinate: SINGLETON when lower == upper, else LOWER / UPPER when
    the value sits on the respective bound, INTERIOR otherwise.
    """
    xhat = np.asarray(xhat, dtype=np.int64).reshape(-1)
    if xhat.size != box.dim:
        raise DimensionMismatchError(
            f"vector length {xhat.size} does not match box dimension {box.dim}"
        )
    if not box.contains(xhat):
        raise OutOfBoxError(f"vector {xhat.tolist()} violates the box bounds")
    tags = []
    for xi, lo, hi in zip(xhat, box.lower, box.upper):
        if lo == hi:
            tags.append(BoundaryTag.SINGLETON)
        elif xi == lo:
            tags.append(BoundaryTag.LOWER)
        elif xi == hi:
            tags.append(BoundaryTag.UPPER)
        else:
            tags.append(BoundaryTag.INTERIOR)
    return tuple(tags)


def sample_uniform_x(box: BoxConstraint, stream: _rng.RngStream, count: int):
    """Draw ``count`` integer vectors uniformly over the box, as a
    (count, dim) array.  Coordinates are independent inverse-CDF transforms
    of the uniform stream, so the draw sequence is reproducible bit for bit.
    """
    u = _rng.uniform(stream, (int(count), box.dim))
    widths = box.widths
    return box.lower + np.minimum((u * (widths + 1)).astype(np.int64), widths)


def sample_noise(sigma: float, length: int, stream: _rng.RngStream, count: int):
    """Draw ``count`` i.i.d. N(0, sigma^2 I) noise vectors of ``length``
    entries, as a (count, length) array.

    Deviates scale linearly in sigma for a fixed stream:
    draws(2 * sigma) == 2 * draws(sigma) elementwise.
    """
    sigma = validate_sigma(sigma)
    return sigma * _rng.standard_normal(stream, (int(count), int(length)))


def parse_pattern(text: str) -> tuple:
    """Parse a pattern string of per-coordinate letters L/I/U/S."""
    by_letter = {t.value: t for t in BoundaryTag}
    try:
        return tuple(by_letter[ch] for ch in text.upper())
    except KeyError as exc:
        raise ValueError(f"invalid pattern character {exc.args[0]!r}; use L, I, U, S") from None


def validate_pattern_for_box(pattern, box: BoxConstraint) -> tuple:
    """Check a pattern's structural invariants against a box: SINGLETON
    exactly on width-0 coordinates, INTERIOR only where width >= 2."""
    pattern = tuple(pattern)
    if len(pattern) != box.dim:
        raise DimensionMismatchError(
            f"pattern length {len(pattern)} does not match box dimension {box.dim}"
        )
    for i, (tag, w) in enumerate(zip(pattern, box.widths)):
        if (w == 0) != (tag is BoundaryTag.SINGLETON):
            raise ValueError(
                f"coordinate {i}: SINGLETON is required exactly when lower == upper"
            )
        if tag is BoundaryTag.INTERIOR and w < 2:
            raise ValueError(f"coordinate {i}: INTERIOR needs upper - lower >= 2")
    return pattern
