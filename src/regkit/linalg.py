"""Dense matrix algebra on 64-bit floats.

Matrices are 2-D ``numpy.ndarray`` values in row-major order.  Every
operation is a pure function of its inputs and never mutates them.  The
inverse is LAPACK's.  With each row scaled by its largest |entry| to give
R, a matrix is singular when a row is zero, LAPACK fails, R^-1 is not
finite, or ``||R||_1 ||R^-1||_1 * SINGULARITY_RTOL >= 1``.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SingularMatrixError

# Relative tolerance of the singularity rules here and in ols.solve_analytic.
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


def inverse(a) -> np.ndarray:
    """Inverse of a square, numerically non-singular matrix."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"inverse requires a square matrix, got {a.shape}")
    scale = np.max(np.abs(a), axis=1)
    try:
        if scale.all():
            r = a / scale[:, None]
            inv = np.linalg.inv(r)
            # A non-finite inverse fails this test too.
            if np.linalg.norm(r, 1) * np.linalg.norm(inv, 1) * SINGULARITY_RTOL < 1.0:
                return inv / scale
    except np.linalg.LinAlgError:  # LAPACK met an exactly zero pivot
        pass
    raise SingularMatrixError(
        f"matrix of shape {a.shape} is singular (the condition number of its "
        f"row-scaled form is at least {1 / SINGULARITY_RTOL:g})"
    )
