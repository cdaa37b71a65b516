"""Activation functions and their first derivatives.

Seven kinds are supported: sigmoid, relu, leaky_relu, prelu, elu, swish
and softmax, plus identity so regression output layers can stay linear.
All of them act entrywise on matrices except softmax, which normalizes
each column (a column is one sample).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

ACTIVATION_NAMES = (
    "sigmoid",
    "relu",
    "leaky_relu",
    "prelu",
    "elu",
    "swish",
    "softmax",
    "identity",
)

_BETA_DEFAULTS = {"leaky_relu": 0.01, "prelu": 0.25, "elu": 1.0}


@dataclass(frozen=True)
class ActivationKind:
    """An activation choice; ``beta`` parametrizes leaky_relu/prelu/elu.

    The prelu slope is a fixed hyperparameter here, never trained.
    """

    name: str
    beta: float | None = None

    def __post_init__(self):
        if self.name not in ACTIVATION_NAMES:
            raise ValueError(
                f"unknown activation {self.name!r}; expected one of {ACTIVATION_NAMES}"
            )
        if self.name in _BETA_DEFAULTS:
            beta = _BETA_DEFAULTS[self.name] if self.beta is None else float(self.beta)
            if self.name == "leaky_relu" and beta <= 0.0:
                raise ValueError("leaky_relu slope must be positive")
            object.__setattr__(self, "beta", beta)
        elif self.beta is not None:
            raise ValueError(f"activation {self.name!r} takes no parameter")


def parse_activation(name: str) -> ActivationKind:
    """Build an ActivationKind from its lowercase config-file name."""
    return ActivationKind(name.strip().lower())


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows: 1/(1+e) for x >= 0 and e/(1+e) below,
    # the same operations as evaluating each sign branch on its own part.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=d)
    np.copyto(e, d, where=x >= 0)
    return e


def _apply_elementwise(kind: ActivationKind, x: np.ndarray) -> np.ndarray:
    name, beta = kind.name, kind.beta
    if name == "sigmoid":
        return _sigmoid(x)
    if name == "relu":
        return np.maximum(0.0, x)
    if name in ("leaky_relu", "prelu"):
        return np.where(x > 0, x, beta * x)
    if name == "elu":
        out = np.array(x, dtype=np.float64)
        neg = x <= 0
        out[neg] = beta * np.expm1(x[neg])
        return out
    if name == "swish":
        return x * _sigmoid(x)
    if name == "identity":
        return np.array(x, dtype=np.float64)
    raise ValueError(f"{name} has no elementwise form")


def _derivative_elementwise(kind: ActivationKind, x: np.ndarray) -> np.ndarray:
    # At the relu-family kink (x = 0) the left-hand value is returned.
    name, beta = kind.name, kind.beta
    if name == "sigmoid":
        s = _sigmoid(x)
        return s * (1.0 - s)
    if name == "relu":
        return (x > 0).astype(np.float64)
    if name in ("leaky_relu", "prelu"):
        return np.where(x > 0, 1.0, beta)
    if name == "elu":
        out = np.ones_like(x)
        neg = x <= 0
        out[neg] = beta * np.exp(x[neg])
        return out
    if name == "swish":
        s = _sigmoid(x)
        return s + x * s * (1.0 - s)
    if name == "identity":
        return np.ones_like(x)
    raise ValueError(f"{name} has no elementwise derivative")


def _softmax_columns(a: np.ndarray) -> np.ndarray:
    # Column-max shift keeps every exponent <= 0.
    shifted = a - a.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def apply_scalar(kind: ActivationKind, x: float) -> float:
    """Evaluate an elementwise activation at a single point."""
    if kind.name == "softmax":
        raise ValueError("softmax acts on whole columns, not scalars")
    return float(_apply_elementwise(kind, np.asarray([x], dtype=np.float64))[0])


def derivative_scalar(kind: ActivationKind, x: float) -> float:
    """First derivative of an elementwise activation at a single point."""
    if kind.name == "softmax":
        raise ValueError("softmax has a full Jacobian, not a scalar derivative")
    return float(_derivative_elementwise(kind, np.asarray([x], dtype=np.float64))[0])


def apply_matrix(kind: ActivationKind, a) -> np.ndarray:
    """Apply an activation to a matrix; softmax normalizes per column."""
    a = np.asarray(a, dtype=np.float64)
    if kind.name == "softmax":
        return _softmax_columns(a)
    return _apply_elementwise(kind, a)


def derivative_matrix(kind: ActivationKind, a) -> np.ndarray:
    """Derivative of ``apply_matrix`` at ``a``.

    Elementwise kinds return a matrix of the same shape.  Softmax returns
    a ``(cols, n, n)`` stack of per-column Jacobians with
    ``J[k][i][j] = s_i (delta_ij - s_j)`` for ``s = softmax(column k)``.
    """
    a = np.asarray(a, dtype=np.float64)
    if kind.name != "softmax":
        return _derivative_elementwise(kind, a)
    s = _softmax_columns(a).T  # (cols, n)
    jac = -s[:, :, None] * s[:, None, :]
    idx = np.arange(a.shape[0])
    jac[:, idx, idx] += s
    return jac


def jacobian_product(kind: ActivationKind, preactivations, upstream) -> np.ndarray:
    """Multiply an upstream signal by the activation Jacobian, column by column.

    For elementwise kinds this is the derivative matrix times ``upstream``
    entrywise; for softmax each column ``u`` becomes ``s * (u - s . u)``,
    its full Jacobian ``diag(s) - s s^T`` applied without forming it.
    """
    preactivations = np.asarray(preactivations, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if preactivations.shape != upstream.shape:
        raise ShapeError(
            f"shape mismatch: {preactivations.shape} vs {upstream.shape}"
        )
    if kind.name == "softmax":
        s = _softmax_columns(preactivations)
        return s * (upstream - (s * upstream).sum(axis=0, keepdims=True))
    return _derivative_elementwise(kind, preactivations) * upstream


def apply_keeping_sigmoid(
    kind: ActivationKind, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """``apply_matrix`` plus, for sigmoid and swish, the sigmoid block
    ``sigmoid_jacobian_product`` needs (``None`` for the other kinds)."""
    if kind.name not in ("sigmoid", "swish"):
        return apply_matrix(kind, a), None
    sig = _sigmoid(a)
    return (sig if kind.name == "sigmoid" else a * sig), sig


def sigmoid_jacobian_product(
    kind: ActivationKind, sigmoid: np.ndarray, output: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    """``jacobian_product`` for sigmoid or swish from the blocks the forward
    pass kept: ``sigmoid`` and the layer ``output`` z, taken at the same
    pre-activations as ``upstream``'s columns.

    The derivative is ``z (1 - sigmoid)``, plus ``sigmoid`` for swish: a
    sigmoid layer's z is the sigmoid itself, a swish layer's is
    ``x sigmoid``.  These are the products and sums ``derivative_matrix``
    evaluates, so the result is bit-identical to ``jacobian_product`` at
    the pre-activations.
    """
    if not sigmoid.shape == output.shape == upstream.shape:
        raise ShapeError(
            f"shape mismatch: {sigmoid.shape}, {output.shape} vs {upstream.shape}"
        )
    out = 1.0 - sigmoid
    out *= output
    if kind.name == "swish":
        out += sigmoid
    out *= upstream
    return out
