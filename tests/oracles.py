"""Independent reference computations used as test oracles.

Nothing here calls regkit: linear systems are solved by straightforward
Gaussian elimination, derivatives by central finite differences, and
network gradients by perturbing one parameter at a time and re-running a
forward pass and loss written here.  A network is read only through its
weights, biases and activation names.
"""

from fractions import Fraction

import numpy as np


def gauss_solve(a, b):
    """Solve ``a x = b`` by plain Gaussian elimination with row pivoting."""
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = a.shape[0]
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    aug = np.hstack([a, b])
    for k in range(n):
        r = k + int(np.argmax(np.abs(aug[k:, k])))
        aug[[k, r]] = aug[[r, k]]
        aug[k] = aug[k] / aug[k, k]
        for i in range(n):
            if i != k:
                aug[i] -= aug[i, k] * aug[k]
    return aug[:, n:]


def central_diff(f, x, h=1e-6):
    """Central finite-difference derivative of a scalar function."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _logistic(s):
    return 0.5 * (1.0 + np.tanh(0.5 * s))


def _softmax(s):
    e = np.exp(s - s.max(axis=0))
    return e / e.sum(axis=0)


_ACTIVATIONS = {
    "identity": lambda s: s,
    "sigmoid": _logistic,
    "swish": lambda s: s * _logistic(s),
    "softmax": _softmax,
}

# Mean over the m outputs of each column.
_LOSSES = {
    "mse": lambda r: np.mean(r * r, axis=0),
    "log_cosh": lambda r: np.mean(np.log(np.cosh(r)), axis=0),
}


def network_outputs(state, features):
    """The network's outputs for feature columns, one sample per column."""
    z = np.asarray(features, dtype=np.float64)
    for w, b, kind in zip(state.weights, state.biases, state.activations):
        z = _ACTIVATIONS[kind.name](w @ z + b)
    return z


def batch_loss(state, loss_kind, features, targets):
    """Mean per-sample loss of the network over the given columns."""
    residual = network_outputs(state, features) - np.asarray(targets, dtype=np.float64)
    return float(np.mean(_LOSSES[loss_kind.name](residual)))


def numeric_network_gradients(state, loss_kind, features, targets, h=1e-5):
    """Finite-difference gradients of the batch loss for every block.

    Returns a list of (grad_w, grad_b) pairs in layer order, computed by
    perturbing each weight and bias entry by +-h.
    """
    grads = []
    for layer in range(len(state.weights)):
        pair = []
        for block in (state.weights[layer], state.biases[layer]):
            grad = np.zeros_like(block)
            it = np.nditer(block, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = block[idx]
                block[idx] = saved + h
                up = batch_loss(state, loss_kind, features, targets)
                block[idx] = saved - h
                down = batch_loss(state, loss_kind, features, targets)
                block[idx] = saved
                grad[idx] = (up - down) / (2.0 * h)
            pair.append(grad)
        grads.append(tuple(pair))
    return grads


def _to_fractions(a):
    return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(a)]


def _frac_matmul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def generic_bb_rate(b_now, b_prev, z, k):
    """The difference-quotient learning rate, evaluated exactly.

    Computes ``|L : (G_t - G_{t-1})| / ||G_t - G_{t-1}||^2`` with
    ``G = 2 (B Z - K)`` and ``L = B_t - B_{t-1}`` in exact rational
    arithmetic over the given float64 matrices, so the only rounding in a
    comparison comes from the implementation under test.  Returns None
    when the gradient difference vanishes identically.
    """
    bn, bp, zf, kf = map(_to_fractions, (b_now, b_prev, z, k))
    rows, cols = len(bn), len(bn[0])
    g_now = _frac_matmul(bn, zf)
    g_prev = _frac_matmul(bp, zf)
    num = Fraction(0)
    den = Fraction(0)
    for i in range(rows):
        for j in range(cols):
            # The K terms cancel exactly: G_t - G_{t-1} = 2 (B_t - B_{t-1}) Z,
            # but evaluate the gradients as written to keep the route generic.
            d = 2 * (g_now[i][j] - kf[i][j]) - 2 * (g_prev[i][j] - kf[i][j])
            l = bn[i][j] - bp[i][j]
            num += l * d
            den += d * d
    if den == 0:
        return None
    return float(abs(num) / den)


def gradient_errors(analytic, numeric, floor=1e-3):
    """Entrywise ``|a - b| / max(|b|, floor)``; floor 1e-3 makes the
    1e-4 relative criterion behave as a 1e-7 absolute one for tiny
    gradients."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    return np.abs(analytic - numeric) / np.maximum(np.abs(numeric), floor)
