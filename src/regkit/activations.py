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


def _sigmoid_into(x: np.ndarray, sig: np.ndarray, e: np.ndarray) -> None:
    """Write ``sigmoid(x)`` into ``sig``, which may be ``x`` itself, with
    ``e`` as scratch."""
    # maximum([x >= 0], e) / (1 + e) with e = exp(-|x|): the numerator is 1
    # for x >= 0 (e <= 1) and e = exp(x) below, so each entry is the division
    # the sign branches make (1/(1+e) and e/(1+e)), with one exponential,
    # no mask and no select.  The exponent is never positive, so none overflows.
    # -|x| as abs then negative: the bits of copysign(x, -1) in about half its time.
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0.0, out=sig)
    np.maximum(sig, e, out=sig)
    e += 1.0
    np.divide(sig, e, out=sig)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # The result is C-ordered whatever x's layout, so the exponentials
    # always run over contiguous blocks.
    out = np.empty(x.shape)
    x1, out1 = np.atleast_1d(x, out)
    for rows, e in row_blocks(x1, 1):
        _sigmoid_into(x1[rows], out1[rows], e)
    return out


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


def activate_rows(kind: ActivationKind, s: np.ndarray, z: np.ndarray,
                  e: np.ndarray, sig: np.ndarray) -> None:
    """Write ``apply_matrix(kind, s)`` into ``z`` and the derivative
    ``_derivative_elementwise(kind, s)`` over ``s``, bit for bit, for an
    elementwise kind other than identity.

    ``e`` and ``sig`` are scratch blocks of ``s``'s shape.  Sigmoid and
    swish evaluate one exponential per entry for both.  Their derivative is
    ``(1 - sigmoid) z``, plus ``sigmoid`` for swish: a sigmoid layer's z is
    the sigmoid itself, a swish layer's is ``s sigmoid``.  These are the
    products and sums ``_derivative_elementwise`` evaluates, in commuted order.
    """
    if kind.name == "sigmoid":
        _sigmoid_into(s, z, e)
        np.subtract(1.0, z, out=s)
        s *= z
    elif kind.name == "swish":
        _sigmoid_into(s, sig, e)
        np.multiply(s, sig, out=z)
        np.subtract(1.0, sig, out=s)
        s *= z
        s += sig
    else:
        z[...] = _apply_elementwise(kind, s)
        s[...] = _derivative_elementwise(kind, s)


def apply_rows(kind: ActivationKind, s: np.ndarray, e: np.ndarray, sig: np.ndarray) -> None:
    """Write ``apply_matrix(kind, s)`` over ``s``, bit for bit, for an
    elementwise kind other than identity.

    ``e`` and ``sig`` are scratch blocks of ``s``'s shape; only sigmoid and
    swish use them.
    """
    if kind.name == "sigmoid":
        _sigmoid_into(s, s, e)
    elif kind.name == "swish":
        _sigmoid_into(s, sig, e)
        s *= sig
    else:
        s[...] = _apply_elementwise(kind, s)
