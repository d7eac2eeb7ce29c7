"""Dense linear-algebra primitives: QR with positive diagonal, triangular solves.

Matrices are plain float64 numpy arrays.  An "upper triangular" matrix here
always means square, exactly zero below the diagonal, and strictly positive
on the diagonal; :func:`validate_upper_triangular` enforces that contract.
"""

import numpy as np

from .errors import DimensionMismatchError, RankDeficientError

RANK_TOL_PER_DIM = 1e-12


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={a.ndim}")
    m, n = a.shape
    if not (m >= n >= 1):
        raise DimensionMismatchError(f"need rows >= cols >= 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(b, length: int | None = None) -> np.ndarray:
    b = np.asarray(b, dtype=float).reshape(-1)
    if length is not None and b.size != length:
        raise DimensionMismatchError(f"expected vector of length {length}, got {b.size}")
    if not np.all(np.isfinite(b)):
        raise ValueError("vector entries must be finite")
    return b


def validate_upper_triangular(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {r.shape}")
    if np.any(np.tril(r, -1) != 0.0):
        raise ValueError("entries below the diagonal must be exactly zero")
    if not np.all(np.isfinite(r)):
        raise ValueError("matrix entries must be finite")
    if np.any(np.diag(r) <= 0.0):
        raise ValueError("diagonal entries must be strictly positive")
    return r


def qr_positive(a):
    """Thin QR factorization a = q1 @ r with a positive diagonal on r.

    A standard Householder pass (LAPACK) runs first; rows of r and the
    matching columns of q1 are then sign-flipped so every diagonal entry of
    r is positive.

    Parameters
    ----------
    a : (m, n) array_like, m >= n >= 1

    Returns
    -------
    q1 : (m, n) ndarray with orthonormal columns
    r : (n, n) ndarray, upper triangular, r_ii > 0

    Raises
    ------
    RankDeficientError
        If any |r_ii| <= RANK_TOL_PER_DIM * n * max_i |r_ii|.
    """
    a = as_matrix(a)
    n = a.shape[1]
    rank_tol = RANK_TOL_PER_DIM * n
    q1, r = np.linalg.qr(a, mode="reduced")
    diag = np.diag(r)
    scale = np.max(np.abs(diag))
    if scale == 0.0 or np.any(np.abs(diag) <= rank_tol * scale):
        raise RankDeficientError(
            f"matrix is rank deficient at tolerance {rank_tol:g} (|r_ii| min "
            f"{np.min(np.abs(diag)):.3e}, max {scale:.3e})"
        )
    flip, r = _positive_rows(r)
    return q1 * flip[None, :], r


def permuted_factor(r, perm) -> np.ndarray:
    """Positive-diagonal R' of R[:, perm] = Q R'.  R' t' = Q^T R t with
    t' = t[perm], so t' ~ N(0, (R'^T R')^{-1}) when t ~ N(0, (R^T R)^{-1}):
    the permuted problem has the same law.  No rank tolerance, unlike
    :func:`qr_positive`: it would refuse factors that
    :func:`validate_upper_triangular` accepts."""
    return _positive_rows(np.linalg.qr(r[:, perm], mode="r"))[1]


def _positive_rows(r):
    """The row signs that make the QR factor r's diagonal positive, and
    the flipped factor with the zeros below its diagonal made exact."""
    flip = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return flip, np.triu(flip[:, None] * r)


def back_substitute(r, b) -> np.ndarray:
    """Solve r @ x = b for upper-triangular r by backward substitution.

    ``b`` is a vector of shape (n,) or a matrix (n, k) of stacked
    right-hand-side columns; x has the shape of b.  Each step
    x_i = (b_i - r_{i,i+1:} x_{i+1:}) / r_ii updates all k columns at once
    with plain numpy arithmetic, so no LAPACK call (and no BLAS thread) runs.
    Only the diagonal and the entries above it are read.

    Raises
    ------
    DimensionMismatchError
        If r is not square, b is not 1-D or 2-D, or b's leading size differs.
    ValueError
        If an entry of b, or of r on or above the diagonal, is not finite, or
        the diagonal of r holds a zero.
    """
    r = np.asarray(r, dtype=float)
    b = np.asarray(b, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {r.shape}")
    n = r.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise DimensionMismatchError(
            f"dimension mismatch: r is {r.shape}, b has shape {b.shape}"
        )
    if not (np.all(np.isfinite(np.triu(r))) and np.all(np.isfinite(b))):
        raise ValueError("entries of r and b must be finite")
    if np.any(np.diag(r) == 0.0):
        raise ValueError("r is singular: zero on the diagonal")
    x = np.empty(b.shape)
    for i in range(n - 1, -1, -1):
        # einsum, not @: with thousands of columns @ is a BLAS gemv, which
        # OpenBLAS runs threaded.
        x[i] = (b[i] - np.einsum("j,j...->...", r[i, i + 1:], x[i + 1:])) / r[i, i]
    return x
