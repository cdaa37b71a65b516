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
    z = a.copy()
    apply_rows(kind, z, np.empty(z.shape))
    return z


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
    j = preactivations.copy()
    activate_rows(kind, j, np.empty(j.shape), np.empty(j.shape))
    return np.multiply(j, upstream, out=j)


def softmax_jacobian_product(s: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Each column ``u`` of ``upstream`` times the softmax Jacobian at the
    output column ``s``: ``s * (u - s . u)``."""
    return s * (upstream - (s * upstream).sum(axis=0, keepdims=True))


def _value_rows(kind: ActivationKind, s: np.ndarray, z: np.ndarray, e: np.ndarray) -> None:
    """Write f(s) into ``z``, which may be ``s`` itself, for an elementwise
    kind; ``e`` is a scratch block of ``s``'s shape.

    Sigmoid and swish leave their denominator ``d = 1 + exp(-s)`` in ``e``.
    relu(-0) is -0; leaky_relu, prelu and elu scale s only where s <= 0.
    """
    name, beta = kind.name, kind.beta
    if name == "sigmoid":
        np.divide(1.0, _denominator(s, e), out=z)
    elif name == "swish":
        np.divide(s, _denominator(s, e), out=z)
    elif name == "relu":
        np.maximum(0.0, s, out=z)
    elif name == "identity":
        np.copyto(z, s)
    elif name in ("leaky_relu", "prelu", "elu"):
        np.copyto(z, s)
        neg = z <= 0
        if name == "elu":
            np.expm1(z, out=z, where=neg)
        np.multiply(z, beta, out=z, where=neg)
    else:
        raise ValueError(f"{name} has no elementwise form")


def activate_rows(kind: ActivationKind, s: np.ndarray, z: np.ndarray, e: np.ndarray) -> None:
    """Write f(s) into ``z`` and f'(s) over ``s``, for an elementwise kind;
    ``e`` is a scratch block of ``s``'s shape.

    Sigmoid and swish evaluate one exponential per entry for both: with
    ``d = 1 + exp(-s)``, a sigmoid layer's z is ``1 / d`` and its derivative
    ``(1 - z) z``; a swish layer's z is ``s / d`` and its derivative
    ``sigmoid (1 + s - z)``, taken as ``(s - z + 1) / d``.  At the
    relu-family kink (s = 0) the derivative takes its left-hand value.
    """
    _value_rows(kind, s, z, e)
    name, beta = kind.name, kind.beta
    if name == "sigmoid":
        np.subtract(1.0, z, out=s)
        s *= z
    elif name == "swish":
        s -= z
        s += 1.0
        s /= e
    elif name == "relu":
        np.greater(s, 0.0, out=s)
    elif name in ("leaky_relu", "prelu"):
        pos = s > 0
        s[...] = beta
        s[pos] = 1.0
    elif name == "elu":
        neg = s <= 0
        np.exp(s, out=s, where=neg)
        np.multiply(s, beta, out=s, where=neg)
        s[~neg] = 1.0
    else:
        s[...] = 1.0


def apply_rows(kind: ActivationKind, s: np.ndarray, e: np.ndarray) -> None:
    """Write f(s) over ``s`` for an elementwise kind; ``e`` is a scratch
    block of ``s``'s shape."""
    _value_rows(kind, s, s, e)
