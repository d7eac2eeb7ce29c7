"""Suboptimal detectors for the reduced model, plus a brute-force oracle.

Each detector has one implementation, a batch kernel over many
observations that share one R and one box, returning the detected x:

* ``rounding_batch``: componentwise rounding of d = R^{-1} ytilde, then
  clamping;
* ``babai_batch``: back-substitution from the last coordinate with
  per-coordinate rounding (and clamping) before moving on.

The single-instance detectors are batch-of-one calls; their ordinary
(unclamped) variants pass bounds of +-inf.

Rounding uses the smaller-magnitude tie rule: exact half-integers round
toward zero.  Round-then-clamp is literally equivalent to the three-way
case split (stay, clamp low, clamp high) under that tie rule; the tests
assert the equivalence explicitly.
"""

import itertools

import numpy as np

from .errors import BoxTooLargeError, DimensionMismatchError
from .linalg import back_substitute
from .model import BoxConstraint, ReducedModel

BRUTE_FORCE_MAX_POINTS = 10 ** 6


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


def _check_box(rm: ReducedModel, box: BoxConstraint) -> None:
    if box.dim != rm.dim:
        raise DimensionMismatchError(
            f"box dimension {box.dim} does not match model dimension {rm.dim}"
        )


def _detect_one(kernel, rm: ReducedModel, box: BoxConstraint | None) -> np.ndarray:
    """Run a batch kernel on one observation; no box means bounds of +-inf."""
    if box is None:
        upper = np.full(rm.dim, np.inf)
        lower = -upper
    else:
        _check_box(rm, box)
        lower, upper = box.lower, box.upper
    return kernel(rm.r, rm.ytilde[None, :], lower, upper)[0].astype(np.int64)


def box_rounding(rm: ReducedModel, box: BoxConstraint) -> np.ndarray:
    """Round d = R^{-1} ytilde componentwise and clamp into the box."""
    return _detect_one(rounding_batch, rm, box)


def ordinary_rounding(rm: ReducedModel) -> np.ndarray:
    """Rounding detector with the clamp disabled (box = all of Z^n)."""
    return _detect_one(rounding_batch, rm, None)


def box_babai(rm: ReducedModel, box: BoxConstraint) -> np.ndarray:
    """Babai detector with each coordinate clamped into the box."""
    return _detect_one(babai_batch, rm, box)


def ordinary_babai(rm: ReducedModel) -> np.ndarray:
    """Babai detector with the clamp disabled."""
    return _detect_one(babai_batch, rm, None)


def bils_brute_force(rm: ReducedModel, box: BoxConstraint) -> np.ndarray:
    """Exhaustive minimizer of ||ytilde - R x||^2 over the box (test oracle).

    Ties are broken toward the lexicographically smallest vector.  Guarded
    by :data:`BRUTE_FORCE_MAX_POINTS`.
    """
    _check_box(rm, box)
    if box.num_points() > BRUTE_FORCE_MAX_POINTS:
        raise BoxTooLargeError(
            f"box has {box.num_points()} points, brute force capped at {BRUTE_FORCE_MAX_POINTS}"
        )
    best_x = None
    best_cost = np.inf
    ranges = [range(int(lo), int(hi) + 1) for lo, hi in zip(box.lower, box.upper)]
    for cand in itertools.product(*ranges):
        x = np.asarray(cand, dtype=float)
        cost = float(np.sum((rm.ytilde - rm.r @ x) ** 2))
        if cost < best_cost:
            best_cost = cost
            best_x = cand
    return np.asarray(best_x, dtype=np.int64)
