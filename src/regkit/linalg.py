"""Dense matrix algebra on 64-bit floats.

Matrices are 2-D ``numpy.ndarray`` values in row-major order.  Every
operation is a pure function of its inputs and never mutates them.  The
inverse uses an LU factorization with partial pivoting and reports
singularity by one rule: a pivot smaller than ``SINGULARITY_RTOL`` times
the largest entry of its row is treated as zero.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SingularMatrixError

# Relative pivot threshold below which a matrix is declared singular.
SINGULARITY_RTOL = 1e-12


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting ragged or non-finite input."""
    try:
        a = np.asarray(values, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"not a rectangular numeric matrix: {exc}") from None
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size == 0:
        raise ShapeError("matrix must have at least one row and one column")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def frobenius_norm(a) -> float:
    """Norm induced by the entrywise inner product; always >= 0."""
    a = as_matrix(a)
    return float(np.sqrt(np.sum(a * a)))


def _lu_factor(a: np.ndarray):
    """LU factorization with partial pivoting.

    Returns ``(lu, pivots, singular)`` where ``lu`` stores L (unit
    diagonal, below) and U (on and above) and ``pivots`` is the row
    permutation applied to ``a``.  ``singular`` is set when any pivot falls
    below ``SINGULARITY_RTOL`` relative to the largest absolute entry of its
    (original) row.
    """
    n = a.shape[0]
    lu = np.array(a, dtype=np.float64)
    scale = np.max(np.abs(lu), axis=1)
    pivots = np.arange(n)
    singular = False
    for k in range(n):
        r = k + int(np.argmax(np.abs(lu[k:, k])))
        if r != k:
            lu[[k, r]] = lu[[r, k]]
            scale[[k, r]] = scale[[r, k]]
            pivots[[k, r]] = pivots[[r, k]]
        pivot = lu[k, k]
        if scale[k] == 0.0 or abs(pivot) < SINGULARITY_RTOL * scale[k]:
            singular = True
            if pivot == 0.0:
                continue
        lu[k + 1:, k] /= pivot
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, pivots, singular


def _lu_solve(lu: np.ndarray, pivots: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` from a factorization of A; ``b`` may have many columns."""
    x = b[pivots].astype(np.float64)
    n = lu.shape[0]
    for k in range(n):
        x[k + 1:] -= np.outer(lu[k + 1:, k], x[k])
    for k in range(n - 1, -1, -1):
        x[k] /= lu[k, k]
        x[:k] -= np.outer(lu[:k, k], x[k])
    return x


def inverse(a) -> np.ndarray:
    """Inverse of a square, numerically non-singular matrix."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"inverse requires a square matrix, got {a.shape}")
    lu, pivots, singular = _lu_factor(a)
    if singular:
        raise SingularMatrixError(
            f"matrix of shape {a.shape} is singular "
            f"(pivot below {SINGULARITY_RTOL:g} of its row scale)"
        )
    inv = _lu_solve(lu, pivots, np.eye(a.shape[0]))
    if not np.isfinite(inv).all():
        raise SingularMatrixError(
            f"matrix of shape {a.shape} is too ill-conditioned to invert"
        )
    return inv
