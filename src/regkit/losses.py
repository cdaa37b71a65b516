"""Regression loss functions and their gradients with respect to the prediction.

Conventions worth knowing:

* huber is summed over components without a 1/m factor, unlike the other
  five kinds, and is kept that way deliberately.
* poisson is ``(1/m) * sum(x_i - x_i * log(y_i))`` with the logarithm on
  the target; it is not zero at ``x == y``.  The more common variant puts
  the prediction inside the logarithm; this one does not.
* msle requires every entry of both vectors to exceed -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

LOSS_NAMES = ("mse", "mae", "huber", "log_cosh", "msle", "poisson")


@dataclass(frozen=True)
class LossKind:
    """A loss choice; ``delta`` is the huber branch point (default 1.0)."""

    name: str
    delta: float | None = None

    def __post_init__(self):
        if self.name not in LOSS_NAMES:
            raise ValueError(f"unknown loss {self.name!r}; expected one of {LOSS_NAMES}")
        if self.name == "huber":
            delta = 1.0 if self.delta is None else float(self.delta)
            if not 0.0 < delta < np.inf:
                raise ValueError("huber delta must be a finite number > 0")
            object.__setattr__(self, "delta", delta)
        elif self.delta is not None:
            raise ValueError(f"loss {self.name!r} takes no parameter")


def parse_loss(name: str) -> LossKind:
    """Build a LossKind from its lowercase config-file name."""
    return LossKind(name.strip().lower())


def _first_offender(bad: np.ndarray, which: str, values: np.ndarray, why: str) -> str:
    pos = np.argwhere(bad)[0]
    where = f"index {pos[0]}" if values.ndim == 1 else f"row {pos[0]}, column {pos[1]}"
    return f"{why}: {which}[{where}] = {float(values[tuple(pos)])!r}"


def _check_domain(kind: LossKind, prediction: np.ndarray, target: np.ndarray) -> None:
    if kind.name == "msle":
        for which, values in (("prediction", prediction), ("target", target)):
            bad = values <= -1.0
            if bad.any():
                raise DomainError(
                    _first_offender(bad, which, values, "msle needs entries > -1")
                )
    elif kind.name == "poisson":
        bad = target <= 0.0
        if bad.any():
            raise DomainError(
                _first_offender(bad, "target", target, "poisson needs targets > 0")
            )


def _log_cosh(r: np.ndarray) -> np.ndarray:
    # Equals log(cosh(r)) but never overflows: |r| + log1p(e^{-2|r|}) - log 2.
    a = np.abs(r)
    return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)


def _as_pair(prediction, target):
    x = np.asarray(prediction, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: prediction {x.shape} vs target {y.shape}")
    return x, y


def _terms(kind: LossKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-component contributions before any averaging."""
    name = kind.name
    if name == "mse":
        return (x - y) ** 2
    if name == "mae":
        return np.abs(x - y)
    if name == "huber":
        r = x - y
        small = np.abs(r) <= kind.delta
        return np.where(small, 0.5 * r * r, kind.delta * np.abs(r) - 0.5 * kind.delta**2)
    if name == "log_cosh":
        return _log_cosh(x - y)
    if name == "msle":
        return (np.log1p(x) - np.log1p(y)) ** 2
    if name == "poisson":
        return x - x * np.log(y)
    raise AssertionError(name)


def loss(kind: LossKind, prediction, target) -> float:
    """Loss between two vectors of equal length m."""
    x, y = _as_pair(prediction, target)
    if x.ndim != 1:
        raise ValueError(f"expected 1-D vectors, got shape {x.shape}")
    _check_domain(kind, x, y)
    total = float(np.sum(_terms(kind, x, y)))
    return total if kind.name == "huber" else total / x.shape[0]


def column_losses(kind: LossKind, predictions, targets) -> np.ndarray:
    """Per-column losses for (m, p) matrices; column i pairs with column i."""
    x, y = _as_pair(predictions, targets)
    if x.ndim != 2:
        raise ValueError(f"expected 2-D matrices, got shape {x.shape}")
    _check_domain(kind, x, y)
    sums = _terms(kind, x, y).sum(axis=0)
    return sums if kind.name == "huber" else sums / x.shape[0]


def loss_gradient(kind: LossKind, prediction, target) -> np.ndarray:
    """Gradient of the loss with respect to the prediction.

    Accepts vectors or (m, p) matrices; a matrix is treated as p
    independent column vectors.  sign(0) is taken as 0 for mae/huber.
    """
    x, y = _as_pair(prediction, target)
    _check_domain(kind, x, y)
    m = x.shape[0]
    name = kind.name
    if name == "mse":
        return 2.0 * (x - y) / m
    if name == "mae":
        return np.sign(x - y) / m
    if name == "huber":
        r = x - y
        return np.where(np.abs(r) <= kind.delta, r, kind.delta * np.sign(r))
    if name == "log_cosh":
        return np.tanh(x - y) / m
    if name == "msle":
        return 2.0 * (np.log1p(x) - np.log1p(y)) / ((x + 1.0) * m)
    if name == "poisson":
        return (1.0 - np.log(y)) / m
    raise AssertionError(name)
