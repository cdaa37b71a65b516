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
            if not np.isfinite(beta):
                raise ValueError(f"{self.name} beta must be finite, got {beta!r}")
            if self.name == "leaky_relu" and beta <= 0.0:
                raise ValueError("leaky_relu slope must be positive")
            object.__setattr__(self, "beta", beta)
        elif self.beta is not None:
            raise ValueError(f"activation {self.name!r} takes no parameter")


def parse_activation(name: str) -> ActivationKind:
    """Build an ActivationKind from its lowercase config-file name."""
    return ActivationKind(name.strip().lower())


# Entrywise passes run over row blocks of about this many bytes, so that a
# block and its scratch stay in a per-core L2 cache.  Over a whole 10 MB
# layer block each pass would stream from main memory.
_BLOCK_BYTES = 1 << 18


def row_blocks(x: np.ndarray, scratch: int = 0):
    """Row slices of ``x`` of about ``_BLOCK_BYTES`` each and at least one
    row, each yielded with ``scratch`` scratch blocks of its shape.

    All slices share the same scratch.  ``x`` has at least one dimension.
    """
    rows, tail = x.shape[0], x.shape[1:]
    step = max(1, _BLOCK_BYTES // max(8 * int(np.prod(tail)), 1))
    buf = np.empty((scratch, min(step, rows), *tail))
    for i in range(0, rows, step):
        n = min(step, rows - i)
        yield (slice(i, i + n), *buf[:, :n])


def _denominator(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``1 + exp(-x)`` into ``out``, which may be ``x`` itself, and
    return it: the sigmoid is ``1 / out`` and swish ``x / out``.

    For x below -709.78 the exponential overflows to inf, so the sigmoid is
    0 and swish -0, though down to x = -745 the true sigmoid is a subnormal.
    """
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    d = _denominator(x, np.empty(x.shape))
    return np.divide(1.0, d, out=d)


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
        d = _denominator(x, np.empty(x.shape))
        return np.divide(x, d, out=d)
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
        d = _denominator(x, np.empty(x.shape))
        return (x - x / d + 1.0) / d
    if name == "identity":
        return np.ones_like(x)
    raise ValueError(f"{name} has no elementwise derivative")


def softmax_columns(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of each column of ``a``, written into ``out`` (which may be
    ``a`` itself) when given."""
    # Column-max shift keeps every exponent <= 0.
    e = np.subtract(a, a.max(axis=0, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


def apply_matrix(kind: ActivationKind, a) -> np.ndarray:
    """Apply an activation to a matrix; softmax normalizes per column."""
    a = np.asarray(a, dtype=np.float64)
    if kind.name == "softmax":
        return softmax_columns(a)
    return _apply_elementwise(kind, a)


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
        return softmax_jacobian_product(softmax_columns(preactivations), upstream)
    return _derivative_elementwise(kind, preactivations) * upstream


def softmax_jacobian_product(s: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Each column ``u`` of ``upstream`` times the softmax Jacobian at the
    output column ``s``: ``s * (u - s . u)``."""
    return s * (upstream - (s * upstream).sum(axis=0, keepdims=True))


def activate_rows(kind: ActivationKind, s: np.ndarray, z: np.ndarray, e: np.ndarray) -> None:
    """Write ``apply_matrix(kind, s)`` into ``z`` and the derivative
    ``_derivative_elementwise(kind, s)`` over ``s``, bit for bit, for an
    elementwise kind other than identity.

    ``e`` is a scratch block of ``s``'s shape.  Sigmoid and swish evaluate
    one exponential per entry for both: with ``d = 1 + exp(-s)``, a sigmoid
    layer's z is ``1 / d`` and its derivative ``(1 - z) z``; a swish layer's
    z is ``s / d`` and its derivative ``sigmoid (1 + s - z)``, taken as
    ``(s - z + 1) / d``.
    """
    if kind.name == "sigmoid":
        np.divide(1.0, _denominator(s, e), out=z)
        np.subtract(1.0, z, out=s)
        s *= z
    elif kind.name == "swish":
        np.divide(s, _denominator(s, e), out=z)
        s -= z
        s += 1.0
        s /= e
    else:
        z[...] = _apply_elementwise(kind, s)
        s[...] = _derivative_elementwise(kind, s)


def apply_rows(kind: ActivationKind, s: np.ndarray, e: np.ndarray) -> None:
    """Write ``apply_matrix(kind, s)`` over ``s``, bit for bit, for an
    elementwise kind other than identity.

    ``e`` is a scratch block of ``s``'s shape; only sigmoid and swish use it.
    """
    if kind.name == "sigmoid":
        np.divide(1.0, _denominator(s, e), out=s)
    elif kind.name == "swish":
        s /= _denominator(s, e)
    else:
        s[...] = _apply_elementwise(kind, s)
