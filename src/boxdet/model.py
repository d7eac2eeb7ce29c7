"""Box constraint, linear / reduced observation models, boundary patterns.

The observation model is y = A x + v with v ~ N(0, sigma^2 I) and x an
integer vector confined to a box.  Left-multiplying by the orthonormal QR
factor reduces it to ytilde = R x + vtilde with the noise law unchanged.
All success probabilities downstream depend on x only through its boundary
pattern: per coordinate, whether x sits at the lower bound, the upper
bound, strictly inside, or on a single-point coordinate (lower == upper).
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import DimensionMismatchError, OutOfBoxError
from .linalg import as_matrix, as_vector, qr_positive, validate_upper_triangular


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


@dataclass(frozen=True)
class BoxConstraint:
    """Integer box {x : lower <= x <= upper}, bounds elementwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=np.int64).reshape(-1)
        upper = np.asarray(upper, dtype=np.int64).reshape(-1)
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
class LinearModel:
    """Full-column-rank model matrix plus noise level sigma > 0.

    Column rank is validated at construction by running the QR
    factorization once; the factors are cached for reuse by ``reduce``.
    """

    a: np.ndarray
    sigma: float
    _q1: np.ndarray = field(repr=False, compare=False, default=None)
    _r: np.ndarray = field(repr=False, compare=False, default=None)

    def __init__(self, a, sigma: float):
        a = as_matrix(a)
        sigma = validate_sigma(sigma)
        q1, r = qr_positive(a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_q1", q1)
        object.__setattr__(self, "_r", r)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def qr(self):
        return self._q1, self._r


@dataclass(frozen=True)
class ReducedModel:
    """Upper-triangular observation model ytilde = R x + vtilde.

    R must be square, exactly zero below the diagonal, finite and positive
    on the diagonal (``validate_upper_triangular``); ytilde must match it.
    """

    r: np.ndarray
    ytilde: np.ndarray
    sigma: float

    def __init__(self, r, ytilde, sigma: float):
        r = validate_upper_triangular(r)
        ytilde = as_vector(ytilde, r.shape[0])
        sigma = validate_sigma(sigma)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "ytilde", ytilde)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.ytilde.size


def reduce(model: LinearModel, y) -> ReducedModel:
    """Project an observation onto the column space: ytilde = q1.T @ y.

    The noise keeps the law N(0, sigma^2 I) under this orthonormal map, so
    sigma carries through unchanged.
    """
    y = as_vector(y, model.rows)
    q1, r = model.qr()
    return ReducedModel(r, q1.T @ y, model.sigma)


def observe(model: LinearModel, xhat, v) -> np.ndarray:
    """Form the observation y = A xhat + v."""
    xhat = np.asarray(xhat, dtype=float).reshape(-1)
    if xhat.size != model.cols:
        raise DimensionMismatchError(
            f"xhat has length {xhat.size}, model expects {model.cols}"
        )
    v = as_vector(v, model.rows)
    return model.a @ xhat + v


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


def sample_uniform_x(box: BoxConstraint, stream: _rng.RngStream, count: int | None = None):
    """Draw integer vectors uniformly over the box.

    Returns a single vector when ``count`` is None, else a (count, dim)
    array.  Coordinates are independent inverse-CDF transforms of the
    uniform stream, so the draw sequence is reproducible bit for bit.
    """
    n = 1 if count is None else int(count)
    u = _rng.uniform(stream, (n, box.dim))
    widths = box.widths
    x = box.lower + np.minimum((u * (widths + 1)).astype(np.int64), widths)
    return x[0] if count is None else x


def sample_noise(sigma: float, length: int, stream: _rng.RngStream, count: int | None = None):
    """Draw i.i.d. N(0, sigma^2) noise vectors.

    Deviates scale linearly in sigma for a fixed stream:
    draws(2 * sigma) == 2 * draws(sigma) elementwise.
    """
    sigma = validate_sigma(sigma)
    n = 1 if count is None else int(count)
    z = _rng.standard_normal(stream, (n, int(length)))
    v = sigma * z
    return v[0] if count is None else v


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
