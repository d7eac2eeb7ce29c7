"""The box-constrained rounding and Babai detectors for the reduced model.

Each detector has a batch kernel over many observations that share one R
and one box, returning the detected x:

* ``rounding_batch``: componentwise rounding of d = R^{-1} ytilde, then
  clamping;
* ``babai_batch``: back-substitution from the last coordinate with
  per-coordinate rounding (and clamping) before moving on.

The sweep does not call them: ``failure_scales`` gives, from one solve of
a trial's unit noise, the k with which each detector is right iff
sigma k <= 1/2.  The kernels serve ``box_rounding`` and ``box_babai`` (the
CLI's ``detect``), which validate one reduced observation (R, ytilde) and a
box and run a kernel on a batch of one, and the tests, as the sweep's
reference.  With bounds of +-inf they are the ordinary (unclamped) detectors.

Rounding uses the smaller-magnitude tie rule: exact half-integers round
toward zero.  Round-then-clamp is literally equivalent to the three-way
case split (stay, clamp low, clamp high) under that tie rule; the tests
assert the equivalence explicitly.
"""

import numpy as np

from .errors import DimensionMismatchError
from .linalg import as_vector, back_substitute, validate_upper_triangular
from .model import BoxConstraint


def _round_and_clamp(t: np.ndarray, lower, upper) -> np.ndarray:
    """Round t under the tie rule, then clamp it into [lower, upper].
    |t| - 1/2 is exact at half-integers, so ceil sends ties toward zero."""
    return np.minimum(np.maximum(np.copysign(np.ceil(np.abs(t) - 0.5), t), lower), upper)


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


def rounding_success_batch(r, ytilde_batch, xhat_batch, lower, upper) -> np.ndarray:
    """Per-trial success flags of the clamped rounding detector."""
    return np.all(rounding_batch(r, ytilde_batch, lower, upper) == xhat_batch, axis=1)


def babai_success_batch(r, ytilde_batch, xhat_batch, lower, upper) -> np.ndarray:
    """Per-trial success flags of the clamped Babai detector."""
    return np.all(babai_batch(r, ytilde_batch, lower, upper) == xhat_batch, axis=1)


def failure_scales(r, v, up, down):
    """Per-trial (k_br, k_bb) of (count, n) unit noises v on true vectors x with
    (n, count) masks up = x < upper, down = x > lower (``model.boundary_masks``):
    on ytilde = x R^T + sigma v a detector is right iff sigma k <= 1/2, ties (of
    measure zero) aside.  Rounding sees R^{-1} ytilde = x + sigma e with
    e = R^{-1} v; Babai's step i, given the later coordinates right, sees
    x_i + sigma e_i with e_i = v_i / r_ii.  So k is the largest over i of 0,
    e_i if up_i, -e_i if down_i.
    """
    v = np.ascontiguousarray(v.T)  # rows, as in back_substitute
    return tuple(np.maximum((e * up).max(axis=0), -(e * down).min(axis=0))  # a masked term is the 0
                 for e in (back_substitute(r, v), v / np.diag(r)[:, None]))


def _detect_one(kernel, r, ytilde, box: BoxConstraint) -> np.ndarray:
    """Run a batch kernel on one reduced observation ytilde = R x + vtilde.

    R must be square, exactly zero below the diagonal, finite and positive
    on the diagonal (``validate_upper_triangular``); ytilde and the box
    must match it.  A coordinate that overflows to +-inf clamps exactly; a
    NaN (0 * inf in rounding, inf - inf in either) raises ``ValueError``.
    """
    r = validate_upper_triangular(r)
    ytilde = as_vector(ytilde, r.shape[0])
    if box.dim != ytilde.size:
        raise DimensionMismatchError(
            f"box dimension {box.dim} does not match model dimension {ytilde.size}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite t clamps exactly
        x = kernel(r, ytilde[None, :], box.lower, box.upper)[0]
    if np.isnan(x).any():
        raise ValueError("the detector overflowed float64 to NaN")
    return x.astype(np.int64)


def box_rounding(r, ytilde, box: BoxConstraint) -> np.ndarray:
    """Round d = R^{-1} ytilde componentwise and clamp into the box."""
    return _detect_one(rounding_batch, r, ytilde, box)


def box_babai(r, ytilde, box: BoxConstraint) -> np.ndarray:
    """Babai detector with each coordinate clamped into the box."""
    return _detect_one(babai_batch, r, ytilde, box)
