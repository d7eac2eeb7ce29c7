"""Suboptimal detectors for the reduced model, plus a brute-force search.

Each detector has one implementation, a batch kernel over many
observations that share one R and one box, returning the detected x:

* ``rounding_batch``: componentwise rounding of d = R^{-1} ytilde, then
  clamping;
* ``babai_batch``: back-substitution from the last coordinate with
  per-coordinate rounding (and clamping) before moving on.

The single-instance functions ``box_rounding``, ``box_babai`` and
``bils_brute_force`` take one reduced observation (R, ytilde) and a box,
validate them, and run a kernel on a batch of one.  The kernels with
bounds of +-inf are the ordinary (unclamped) detectors.

Rounding uses the smaller-magnitude tie rule: exact half-integers round
toward zero.  Round-then-clamp is literally equivalent to the three-way
case split (stay, clamp low, clamp high) under that tie rule; the tests
assert the equivalence explicitly.
"""

import math

import numpy as np

from .errors import BoxTooLargeError, DimensionMismatchError
from .linalg import as_vector, back_substitute, validate_upper_triangular
from .model import BoxConstraint

BRUTE_FORCE_MAX_POINTS = 10 ** 6
# Box points scored per array pass of the brute-force search.
_SEARCH_CHUNK = 2 ** 16


def _round_and_clamp(t: np.ndarray, lower, upper) -> np.ndarray:
    """Round t under the tie rule, then clamp it into [lower, upper]."""
    out = np.abs(t)
    out -= 0.5  # exact at half-integers, so ceil sends ties toward zero
    np.ceil(out, out=out)
    np.copysign(out, t, out=out)
    np.maximum(out, lower, out=out)
    return np.minimum(out, upper, out=out)


def rounding_batch(r, ytilde_batch, lower, upper) -> np.ndarray:
    """Clamped rounding detector on a (count, n) batch of observations
    sharing one R and box; returns the (count, n) detected vectors."""
    d = back_substitute(r, ytilde_batch.T)
    return _round_and_clamp(d, np.reshape(lower, (-1, 1)), np.reshape(upper, (-1, 1))).T


def babai_batch(r, ytilde_batch, lower, upper) -> np.ndarray:
    """Clamped Babai detector on a batch: for i = n..1 round and clamp
    c_i = (ytilde_i - sum_{j>i} r_ij x_j) / r_ii.

    Like :func:`back_substitute` it works on the (n, count) columns, so each
    step reads whole contiguous rows of x, and sums with einsum, not BLAS.
    """
    n = r.shape[0]
    y = ytilde_batch.T
    x = np.empty(y.shape)
    for i in range(n - 1, -1, -1):
        ci = (y[i] - np.einsum("j,jk->k", r[i, i + 1:], x[i + 1:])) / r[i, i]
        x[i] = _round_and_clamp(ci, lower[i], upper[i])
    return x.T


def _search_batch(r, ytilde_batch, lower, upper) -> np.ndarray:
    """Exhaustive minimizer of ||ytilde - R x||^2 over the box, for a
    (1, n) batch.

    Box points are scored in lexicographic order, a chunk at a time, and
    only a strictly smaller cost replaces the best so far, so ties go to the
    lexicographically smallest x.
    """
    shape = tuple(int(w) + 1 for w in upper - lower)
    total = math.prod(shape)
    if total > BRUTE_FORCE_MAX_POINTS:
        raise BoxTooLargeError(
            f"box has {total} points, brute force capped at {BRUTE_FORCE_MAX_POINTS}"
        )
    best_cost, best_x = np.inf, None
    for start in range(0, total, _SEARCH_CHUNK):
        flat = np.arange(start, min(start + _SEARCH_CHUNK, total))
        x = lower[:, None] + np.array(np.unravel_index(flat, shape))  # (n, chunk)
        cost = np.sum((ytilde_batch.T - r @ x) ** 2, axis=0)
        k = np.argmin(cost)
        if cost[k] < best_cost:
            best_cost, best_x = cost[k], x[:, k]
    return best_x[None, :]


# The kernels return transposed views of (n, count) arrays.  Comparing in
# that layout lets np.all combine n long rows instead of reducing count
# rows of length n.
def rounding_success_batch(r, ytilde_batch, xhat_batch, lower, upper) -> np.ndarray:
    """Per-trial success flags of the clamped rounding detector."""
    x = rounding_batch(r, ytilde_batch, lower, upper)
    return np.all(x.T == xhat_batch.T, axis=0)


def babai_success_batch(r, ytilde_batch, xhat_batch, lower, upper) -> np.ndarray:
    """Per-trial success flags of the clamped Babai detector."""
    x = babai_batch(r, ytilde_batch, lower, upper)
    return np.all(x.T == xhat_batch.T, axis=0)


def _detect_one(kernel, r, ytilde, box: BoxConstraint) -> np.ndarray:
    """Run a batch kernel on one reduced observation ytilde = R x + vtilde.

    R must be square, exactly zero below the diagonal, finite and positive
    on the diagonal (``validate_upper_triangular``); ytilde and the box
    must match it.
    """
    r = validate_upper_triangular(r)
    ytilde = as_vector(ytilde, r.shape[0])
    if box.dim != ytilde.size:
        raise DimensionMismatchError(
            f"box dimension {box.dim} does not match model dimension {ytilde.size}"
        )
    return kernel(r, ytilde[None, :], box.lower, box.upper)[0].astype(np.int64)


def box_rounding(r, ytilde, box: BoxConstraint) -> np.ndarray:
    """Round d = R^{-1} ytilde componentwise and clamp into the box."""
    return _detect_one(rounding_batch, r, ytilde, box)


def box_babai(r, ytilde, box: BoxConstraint) -> np.ndarray:
    """Babai detector with each coordinate clamped into the box."""
    return _detect_one(babai_batch, r, ytilde, box)


def bils_brute_force(r, ytilde, box: BoxConstraint) -> np.ndarray:
    """Box-constrained integer least squares by exhaustive search: the
    minimizer of ||ytilde - R x||^2 over the box (``detect --mode bils``).

    Ties are broken toward the lexicographically smallest vector.  Guarded
    by :data:`BRUTE_FORCE_MAX_POINTS`.
    """
    return _detect_one(_search_batch, r, ytilde, box)
