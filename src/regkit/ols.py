"""Ordinary least squares for vector-valued targets.

Two solvers are provided.  ``solve_analytic`` forms the normal equations
``B (X^T X) = Y X`` from the design matrix X (one sample per row, with a
trailing bias column of ones) and the target matrix Y (one sample per
column) and solves them with LAPACK, after a Cholesky factorization of
``Z = X^T X`` has shown Z to be numerically positive definite; Z is never
inverted.  ``solve_gd`` minimizes the same sum of squared residuals
iteratively with Barzilai-Borwein step sizes, which also works when Z is
singular or nearly so.  The iteration is full batch: every step uses all
training samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import DegenerateStepError, DivergenceError, ShapeError, SingularMatrixError


@dataclass(frozen=True)
class OlsProblem:
    """Training data arranged for the normal equations.

    ``x_design`` is p x (n+1) with the last column identically 1;
    ``y_targets`` is m x p with one target vector per column.
    """

    x_design: np.ndarray
    y_targets: np.ndarray

    def __post_init__(self):
        x = linalg.as_matrix(self.x_design)
        y = linalg.as_matrix(self.y_targets)
        if x.shape[1] < 2:
            raise ShapeError("design matrix needs at least one feature column plus bias")
        if not np.all(x[:, -1] == 1.0):
            raise ShapeError("last design column must be exactly 1.0 in every row")
        if y.shape[1] != x.shape[0]:
            raise ShapeError(
                f"target columns ({y.shape[1]}) must match design rows ({x.shape[0]})"
            )
        object.__setattr__(self, "x_design", x)
        object.__setattr__(self, "y_targets", y)

    @property
    def p(self) -> int:
        return self.x_design.shape[0]

    @property
    def n(self) -> int:
        return self.x_design.shape[1] - 1

    @property
    def m(self) -> int:
        return self.y_targets.shape[0]


@dataclass(frozen=True)
class OlsModel:
    """Fitted coefficients, shape m x (n+1); the last column is the intercept."""

    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", linalg.as_matrix(self.b))


@dataclass(frozen=True)
class GdConfig:
    """Settings for the iterative solver.

    ``epsilon`` stops the loop once the step norm is at or below it;
    ``gamma0`` and ``b0`` override the size-derived initial guesses.
    """

    epsilon: float
    max_iterations: int
    gamma0: float | None = None
    b0: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be a finite number > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.gamma0 is not None and not 0.0 < self.gamma0 < np.inf:
            raise ValueError("gamma0 must be a finite number > 0")
        if self.b0 is not None:
            object.__setattr__(self, "b0", linalg.as_matrix(self.b0))


@dataclass(frozen=True)
class GdTrace:
    """What the iteration did: step count, last step norm, whether the
    tolerance (rather than the iteration cap) ended it, and the relative
    gradient ``||B Z - K|| / ||K||`` of the returned B, with ``K = Y X``
    (the plain ``||B Z||`` when K is zero)."""

    iterations: int
    final_step_norm: float
    converged: bool
    relative_gradient: float


def build_problem(features, targets) -> OlsProblem:
    """Assemble an OlsProblem from parallel sample lists.

    ``features`` holds p vectors of length n (a 1-D sequence is read as
    n = 1); ``targets`` holds p vectors of length m.  The design matrix
    gains the bias column of ones.
    """
    feats = _sample_block(features, "features")
    targs = _sample_block(targets, "targets")
    if feats.shape[0] != targs.shape[0]:
        raise ShapeError(
            f"{feats.shape[0]} feature rows but {targs.shape[0]} target rows"
        )
    x = np.hstack([feats, np.ones((feats.shape[0], 1))])
    return OlsProblem(x, targs.T)


def _sample_block(values, what: str) -> np.ndarray:
    try:
        block = np.asarray(values, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"{what} rows have mixed lengths or bad values: {exc}") from None
    if block.size == 0:
        raise ValueError(f"{what} must not be empty")
    if block.ndim == 1:
        block = block.reshape(-1, 1)
    if block.ndim != 2:
        raise ShapeError(f"{what} must be a list of equal-length vectors")
    return block


def solve_analytic(problem: OlsProblem) -> OlsModel:
    """Coefficients from the normal equations ``B Z = Y X`` with ``Z = X^T X``.

    Raises SingularMatrixError when Z is not numerically positive
    definite: its Cholesky factorization fails, or a squared pivot
    ``L_ii^2`` falls below ``linalg.SINGULARITY_RTOL * Z_ii``, i.e. column
    i of X is within that relative distance of the span of the columns
    before it.  The forward error of B is of order ``cond(X)^2`` times the
    unit roundoff (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 20).
    """
    x, y = problem.x_design, problem.y_targets
    z = x.T @ x
    try:
        pivots = np.diagonal(np.linalg.cholesky(z)) ** 2
    except np.linalg.LinAlgError:
        reason = "Cholesky factorization failed"
    else:
        weak = np.flatnonzero(pivots < linalg.SINGULARITY_RTOL * np.diagonal(z))
        if weak.size == 0:
            return OlsModel(np.linalg.solve(z, (y @ x).T).T)
        i = int(weak[0])
        reason = (f"Cholesky pivot L_ii^2 = {pivots[i]:.3g} at column {i} is below "
                  f"{linalg.SINGULARITY_RTOL:g} of Z_ii = {z[i, i]:.3g}")
    raise SingularMatrixError(
        f"normal matrix X^T X is singular ({reason}); use the iterative "
        "solver solve_gd, which does not require invertibility"
    )


def bb_learning_rate(l_step, z, *, lz=None) -> float:
    """Barzilai-Borwein rate ``|L : (L Z)| / (2 ||L Z||^2)``.

    ``l_step`` is the difference of successive coefficient iterates and
    ``z`` the normal matrix.  ``lz``, when given, is the product ``L Z``
    the caller already formed, of the shape of ``l_step``, so the rate
    costs no product.  The pair may be given in any orthonormal basis:
    ``solve_gd`` passes ``M = L V`` and the elementwise ``M Λ`` in the
    eigenbasis of ``Z = V Λ V^T``.  Raises DegenerateStepError when
    ``L Z`` is zero, i.e. the iterate did not move, and ValueError when
    the rate is not finite, e.g. for non-finite input.
    """
    l_step = np.asarray(l_step, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if l_step.ndim != 2 or l_step.size == 0 or z.shape != (l_step.shape[1],) * 2:
        raise ShapeError(f"cannot form the rate of a {l_step.shape} step and a {z.shape} matrix")
    lz = l_step @ z if lz is None else np.asarray(lz, dtype=np.float64)
    if lz.shape != l_step.shape:
        raise ShapeError(f"L Z of shape {lz.shape} does not match the {l_step.shape} step")
    lz_squared = np.vdot(lz, lz)
    if lz_squared == 0.0:
        raise DegenerateStepError("rate undefined: ||L Z|| = 0 (iterate did not move)")
    rate = float(abs(np.vdot(l_step, lz)) / (2.0 * lz_squared))
    if not math.isfinite(rate):
        raise ValueError(f"rate is not finite ({rate}); ||L Z||^2 = {lz_squared:g}")
    return rate


def _frobenius_norm(a: np.ndarray) -> float:
    # linalg.frobenius_norm without its input checks, as one BLAS dot.
    return math.sqrt(np.vdot(a, a))


def default_guesses(problem: OlsProblem) -> tuple[np.ndarray, float]:
    """Initial iterate and rate consistent with the data's scale.

    Every entry of B0 is ``||Y|| / ||X||`` and ``gamma0 = 1 / (2 ||X||^2)``
    (Frobenius norms); the bias column of ones keeps ``||X||`` positive.
    """
    x_norm = linalg.frobenius_norm(problem.x_design)
    y_norm = linalg.frobenius_norm(problem.y_targets)
    b0 = np.full((problem.m, problem.n + 1), y_norm / x_norm)
    return b0, 1.0 / (2.0 * x_norm * x_norm)


def solve_gd(
    problem: OlsProblem,
    config: GdConfig,
    callback: Callable[[np.ndarray], None] | None = None,
) -> tuple[OlsModel, GdTrace]:
    """Iterative least squares with Barzilai-Borwein step sizes.

    The first update uses ``gamma0``; afterwards each step applies
    ``B <- B - (|L : L Z| / ||L Z||^2) (B Z - Y X)`` with
    ``L = B_t - B_{t-1}``, until the step norm is at or below
    ``config.epsilon`` (``converged``) or ``config.max_iterations`` updates
    were made.  Before its first such step the fit takes one ``eigh``,
    ``Z = V Λ V^T``, and runs every step in that eigenbasis, on ``C = B V``
    and ``M = L V``: the rate, the step norm and the update are those of B
    and L, and each step's product with Z is the elementwise ``M Λ`` and
    ``C Λ`` (Fletcher 2005).  The steps run in three (m, n+1) buffers, for
    C, M and scratch, and allocate only the iterates a callback receives.
    A fit that stops after the first update takes no ``eigh``.
    ``callback``, when given, receives every iterate starting with B0, in
    the original basis and none of them in a buffer the loop writes to
    again.
    """
    x, y = problem.x_design, problem.y_targets
    z = x.T @ x
    k = y @ x

    b_prev, gamma0 = default_guesses(problem)
    if config.b0 is not None:
        if config.b0.shape != b_prev.shape:
            raise ShapeError(
                f"b0 shape {config.b0.shape} != required {b_prev.shape}"
            )
        b_prev = config.b0
    if config.gamma0 is not None:
        gamma0 = config.gamma0
    if callback is not None:
        callback(b_prev)

    b = b_prev - 2.0 * gamma0 * (b_prev @ z - k)
    _require_finite(b, 1)
    if callback is not None:
        callback(b)
    step, iterations = b - b_prev, 1

    if _frobenius_norm(step) > config.epsilon and config.max_iterations > 1:
        lam, v = np.linalg.eigh(z)
        c, step, kv = b @ v, step @ v, k @ v
        lam, scratch = np.broadcast_to(lam, c.shape).copy(), np.empty_like(c)
        while True:
            try:
                gamma = bb_learning_rate(step, z, lz=np.multiply(step, lam, out=scratch))
            except DegenerateStepError:
                # A zero step is a fixed point of the update: stop as converged.
                step[:] = 0.0
                break
            iterations += 1
            # C - 2γ (C Λ - K V), then the step over C: no array is allocated.
            np.multiply(c, lam, out=scratch)
            scratch -= kv
            scratch *= 2.0 * gamma
            np.subtract(c, scratch, out=scratch)
            np.subtract(scratch, c, out=c)
            c, step, scratch = scratch, c, step
            norm = _frobenius_norm(step)
            if not math.isfinite(norm):  # true whenever the new C is not finite
                _require_finite(c, iterations)
            if callback is not None:
                callback(c @ v.T)
            if norm <= config.epsilon or iterations >= config.max_iterations:
                break
        if iterations > 1:
            b = c @ v.T
            _require_finite(b, iterations)

    final_norm = _frobenius_norm(step)
    gradient_norm = _frobenius_norm(b @ z - k)
    k_norm = _frobenius_norm(k)
    trace = GdTrace(iterations, final_norm, final_norm <= config.epsilon,
                    gradient_norm / k_norm if k_norm > 0.0 else gradient_norm)
    return OlsModel(b), trace


def _require_finite(b: np.ndarray, iteration: int) -> None:
    if not np.isfinite(b).all():
        raise DivergenceError(
            f"iterate overflowed at iteration {iteration}", iteration=iteration
        )

