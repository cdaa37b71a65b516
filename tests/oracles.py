"""Independent reference computations used as test oracles.

Nothing here calls regkit: linear systems are solved by straightforward
Gaussian elimination, derivatives by central finite differences, and
network gradients by perturbing one parameter at a time and re-running a
forward pass and loss written here.  A network is read only through its
weights, biases and activation kinds (name and beta), a loss through its
name and huber's delta.
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


def softmax_jacobians(s):
    """The ``(cols, n, n)`` stack of per-column softmax Jacobians of an
    ``(n, cols)`` matrix: ``J[k][i][j] = p_i (delta_ij - p_j)`` for
    ``p = softmax(column k)``."""
    p = _softmax(np.asarray(s, dtype=np.float64)).T  # (cols, n)
    jac = -p[:, :, None] * p[:, None, :]
    idx = np.arange(p.shape[1])
    jac[:, idx, idx] += p
    return jac


def _negative_slope(s, beta):
    return np.where(s > 0, s, beta * s)


# Each takes the pre-activations and the kind's beta (None for kinds without one).
ACTIVATIONS = {
    "identity": lambda s, beta: s,
    "sigmoid": lambda s, beta: _logistic(s),
    "swish": lambda s, beta: s * _logistic(s),
    "softmax": lambda s, beta: _softmax(s),
    "relu": lambda s, beta: np.where(s > 0, s, 0.0),
    "leaky_relu": _negative_slope,
    "prelu": _negative_slope,
    "elu": lambda s, beta: np.where(s > 0, s, beta * (np.exp(np.minimum(s, 0.0)) - 1.0)),
}


def _huber(r, delta):
    a = np.abs(r)
    return np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))


# The loss of each column of predictions x against targets y: the mean over
# the m outputs, except huber, which sums them.  poisson takes the log of the
# target, not of the prediction.
_LOSSES = {
    "mse": lambda x, y, kind: np.mean((x - y) ** 2, axis=0),
    "mae": lambda x, y, kind: np.mean(np.abs(x - y), axis=0),
    "huber": lambda x, y, kind: np.sum(_huber(x - y, kind.delta), axis=0),
    "log_cosh": lambda x, y, kind: np.mean(np.log(np.cosh(x - y)), axis=0),
    "msle": lambda x, y, kind: np.mean((np.log(1.0 + x) - np.log(1.0 + y)) ** 2, axis=0),
    "poisson": lambda x, y, kind: np.mean(x - x * np.log(y), axis=0),
}


def network_outputs(state, features):
    """The network's outputs for feature columns, one sample per column."""
    z = np.asarray(features, dtype=np.float64)
    for w, b, kind in zip(state.weights, state.biases, state.activations):
        z = ACTIVATIONS[kind.name](w @ z + b, kind.beta)
    return z


def batch_loss(state, loss_kind, features, targets):
    """Mean per-sample loss of the network over the given columns."""
    outputs = network_outputs(state, features)
    targets = np.asarray(targets, dtype=np.float64)
    return float(np.mean(_LOSSES[loss_kind.name](outputs, targets, loss_kind)))


def numeric_network_gradients(state, loss_kind, features, targets, h=1e-5):
    """Finite-difference gradients of the batch loss for every block.

    Returns one ``[grad_w grad_b]`` block per layer, in layer order,
    computed by perturbing each weight and bias entry by +-h.
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
        grads.append(np.hstack(pair))
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
