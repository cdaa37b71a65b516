"""Dense feedforward networks trained by batch backpropagation.

Data layout: one sample per column, and one parameter block ``[W_l b_l]``
per layer over an input with a trailing row of ones, the form of OLS's B
over ``[X 1]``: each layer makes one product forward,
``S = [W_l b_l] [Z_{l-1}; 1]``, and one backward, the gradient
``delta_l [Z_{l-1}; 1]^T / p``.  Training runs its training and
validation columns side by side in one block and caches what the
backward pass reads and nothing else: each layer's Z and, for an
elementwise f other than identity, J = f'(S) written over S.  Prediction
caches nothing and writes each Z over its S.  The backward pass sees only
the p training columns, so validation targets never influence a gradient:
``delta_l = J_l * (W_{l+1}^T delta_{l+1})``, written over the training
columns of layer l's cached Z, which the gradient of the layer above has
read for the last time (a softmax layer, whose Jacobian product reads Z,
has a delta block of its own).  Training allocates the cache's blocks once.

Each epoch ends with the validation loss; training stops once the gap
between successive validation losses falls below the tolerance or the
epoch cap is reached, whichever happens first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import (
    ActivationKind,
    activate_rows,
    apply_rows,
    row_blocks,
    softmax_columns,
    softmax_jacobian_product,
)
from .errors import DivergenceError, ShapeError
from .initializers import InitializerKind, init_biases, init_weights, make_rng
from .losses import LossKind, column_losses, loss_gradient
from .optimizers import OptimizerKind, fresh_state, optimizer_step

MAX_FLOAT = float(np.finfo(np.float64).max)

STOP_TOLERANCE = "tolerance-reached"
STOP_MAX_EPOCHS = "max-epochs"


@dataclass(frozen=True)
class LayerSpec:
    """One layer: its unit count and activation."""

    units: int
    activation: ActivationKind

    def __post_init__(self):
        if self.units < 1:
            raise ValueError(f"layer units must be >= 1, got {self.units}")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture plus training settings.

    The last layer's ``units`` must equal the target dimension; this is
    checked against the targets when training starts.
    """

    layer_specs: tuple[LayerSpec, ...]
    loss: LossKind
    optimizer: OptimizerKind
    initializer: InitializerKind
    max_epochs: int
    tolerance: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "layer_specs", tuple(self.layer_specs))
        if len(self.layer_specs) < 1:
            raise ValueError("network needs at least one layer")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be a finite number > 0")


@dataclass
class NetworkState:
    """All trainable values: one block ``[W_l b_l]`` of shape
    ``(q_l, q_{l-1} + 1)`` per layer, whose columns ``weights`` and
    ``biases`` view, plus the layers' activations and the epoch counter."""

    blocks: list[np.ndarray]
    activations: tuple[ActivationKind, ...]
    epoch: int = 1

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return tuple(block[:, :-1] for block in self.blocks)

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return tuple(block[:, -1:] for block in self.blocks)

    @property
    def input_dim(self) -> int:
        return self.blocks[0].shape[1] - 1

    @property
    def output_dim(self) -> int:
        return self.blocks[-1].shape[0]


@dataclass
class ForwardCache:
    """Everything the backward pass needs: the input block ``[Z_0; 1]``,
    each layer's Z (a hidden one over its ones row) and their derivatives.

    ``derivatives`` holds the entrywise derivative f'(S) at the layer's
    pre-activations S for each elementwise activation f, and ``None`` for
    identity (whose Z is S) and softmax (whose Jacobian product is taken
    from Z).
    """

    z0: np.ndarray
    activations: list[np.ndarray]
    derivatives: list[np.ndarray | None]


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch validation losses plus how and when training stopped."""

    epoch_losses: tuple[float, ...]
    stop_reason: str
    epochs_run: int
    final_gap: float


def init_network(config: NetworkConfig, n: int) -> NetworkState:
    """Fresh state for ``n`` input features.

    Layer l's block ``[W_l b_l]`` draws W_l from its own stream seeded
    with ``config.seed + l`` so layers are independent while the whole
    state stays reproducible.  Biases start at zero.
    """
    if n < 1:
        raise ValueError(f"feature dimension must be >= 1, got {n}")
    sizes = [n] + [spec.units for spec in config.layer_specs]
    blocks = []
    for l in range(1, len(sizes)):
        w = init_weights(config.initializer, sizes[l - 1], sizes[l], make_rng(config.seed + l))
        blocks.append(np.hstack([w, init_biases(sizes[l])]))
    return NetworkState(blocks, tuple(spec.activation for spec in config.layer_specs))


def _features(state: NetworkState, z0) -> np.ndarray:
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.ndim != 2:
        raise ShapeError(f"input block must be 2-D, got shape {z0.shape}")
    if z0.shape[0] != state.input_dim:
        raise ShapeError(
            f"input block has {z0.shape[0]} rows, network expects {state.input_dim}"
        )
    return z0


def _input_block(state: NetworkState, z0) -> np.ndarray:
    """``[Z_0; 1]`` in ``z0``'s memory order: predict_rows' ``X^T`` gives ``[X 1]^T``."""
    z0 = _features(state, z0)
    block = np.empty_like(z0, shape=(z0.shape[0] + 1, z0.shape[1]))
    block[:-1], block[-1] = z0, 1.0
    return block


def forward(state: NetworkState, z0, *, out: ForwardCache | None = None) -> ForwardCache:
    """Run all columns of ``z0`` through the network, caching ``[Z_0; 1]``
    and Z and J = f'(S) per layer.

    ``out`` takes a cache an earlier call returned for this network and a
    block with as many columns; its blocks, the input block's included,
    are overwritten in place and it is returned.
    """
    k = len(state.blocks)
    if out is None:
        out = ForwardCache(_input_block(state, z0), [None] * k, [None] * k)
    else:
        z0 = _features(state, z0)
        shapes = [(block.shape[0] + (l < k - 1), z0.shape[1])
                  for l, block in enumerate(state.blocks)]
        if [a.shape for a in out.activations] != shapes:
            raise ShapeError(f"out holds blocks of shapes {[a.shape for a in out.activations]}, "
                             f"expected {shapes}")
        out.z0[:-1] = z0
    _run_layers(state, out.z0, out)
    return out


def predict(state: NetworkState, features) -> np.ndarray:
    """Forward pass without a cache; columns of ``features`` are samples.
    Each layer's Z is written over its S, so no more than two layer blocks
    are alive at once."""
    return _run_layers(state, _input_block(state, features), None)


def _run_layers(state: NetworkState, z: np.ndarray, cache: ForwardCache | None) -> np.ndarray:
    """The forward pass over ``z = [Z_0; 1]``; returns the output Z.

    Each layer forms ``S = [W b] [Z_prev; 1]`` in one product, then checks
    one row block at a time that S is finite and applies an elementwise
    f; softmax runs over the q unit rows after.  A hidden Z block gets its
    ones row when allocated.  Given a cache, its blocks take S, Z and J;
    without one, Z is written over S.
    """
    last = len(state.blocks) - 1
    for i, (block, act) in enumerate(zip(state.blocks, state.activations)):
        elementwise = act.name not in ("identity", "softmax")
        keep = cache is not None and elementwise  # J is written over S
        q = block.shape[0]
        out = None if cache is None else cache.activations[i]
        if out is None:
            out = np.empty((q + (i < last), z.shape[1]))
            out[q:] = 1.0
        s = cache.derivatives[i] if keep else out[:q]
        s = block @ z if s is None else np.matmul(block, z, out=s)
        z = out
        for rows, *scratch in row_blocks(s, int(elementwise)):
            if not np.isfinite(s[rows]).all():
                raise DivergenceError(f"non-finite pre-activations in layer {i + 1}")
            if keep:
                activate_rows(act, s[rows], z[rows], *scratch)
            elif elementwise:
                apply_rows(act, s[rows], *scratch)
        scratch = None  # else it holds this layer's scratch while the next layer's is made
        if act.name == "softmax":
            softmax_columns(s, out=s)
        if cache is not None:
            cache.activations[i], cache.derivatives[i] = z, s if keep else None
    return z


def batch_validation_loss(cache: ForwardCache, val_targets, loss: LossKind) -> float:
    """Mean loss over the trailing s (validation) columns of the output."""
    out = cache.activations[-1]
    s = val_targets.shape[1]
    if not 1 <= s <= out.shape[1]:
        raise ShapeError(
            f"{s} validation columns but the cache holds only {out.shape[1]}"
        )
    return float(np.mean(column_losses(loss, out[:, out.shape[1] - s:], val_targets)))


def _times_jacobian(act: ActivationKind, derivative, output, upstream) -> np.ndarray:
    """``jacobian_product(act, S, upstream)`` from the cache, bit for bit:
    ``upstream`` times the derivative block, in place, or for softmax
    ``s (u - s . u)`` with the layer output s."""
    if act.name == "softmax":
        return softmax_jacobian_product(output, upstream)
    if derivative is not None:
        upstream *= derivative
    return upstream


def output_delta(
    cache: ForwardCache, train_targets, loss: LossKind, output_activation: ActivationKind
) -> np.ndarray:
    """Error signal of the output layer, one column per training sample:
    the loss gradient at the outputs times the output layer's cached
    derivative.  Validation columns are excluded.
    """
    p = train_targets.shape[1]
    z = cache.activations[-1]
    if p > z.shape[1]:
        raise ShapeError(f"{p} training columns but the cache holds only {z.shape[1]}")
    grad = loss_gradient(loss, z[:, :p], train_targets)
    j = cache.derivatives[-1]
    return _times_jacobian(output_activation, None if j is None else j[:, :p], z[:, :p], grad)


def hidden_delta(
    delta_next,
    w_next,
    derivative_r: np.ndarray | None,
    activation_r: ActivationKind,
    output_r: np.ndarray | None = None,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Error signal of a hidden layer from the layer above it:
    ``J_r * (W_next^T delta_next)``.

    ``derivative_r`` is the layer's cached derivative block (``None`` for
    identity and softmax); a softmax layer's Jacobian is applied from its
    output ``output_r``.  Given ``out``, the product ``W_next^T delta_next``
    is written into it, and so is the result unless the layer is softmax.
    """
    if w_next.shape[0] != delta_next.shape[0]:
        raise ShapeError(
            f"weight shape {w_next.shape} does not consume delta shape {delta_next.shape}"
        )
    upstream = np.matmul(w_next.T, delta_next, out=out)
    return _times_jacobian(activation_r, derivative_r, output_r, upstream)


def layer_gradients(delta_r, z_prev_train) -> np.ndarray:
    """Gradient of the batch loss for one layer's block ``[W b]``: with
    ``z_prev_train`` the training columns of ``[Z_prev; 1]``, the average
    over samples of each delta column's outer product with its input
    column, ``(1/p) Delta [Z_prev; 1]^T``.
    """
    p = delta_r.shape[1]
    if z_prev_train.shape[1] != p:
        raise ShapeError(
            f"delta has {p} columns but previous activations have {z_prev_train.shape[1]}"
        )
    grad = delta_r @ z_prev_train.T
    grad /= p
    return grad


def _backward_pass(
    state: NetworkState,
    cache: ForwardCache,
    train_targets: np.ndarray,
    loss: LossKind,
    *,
    deltas: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Gradients of every block ``[W b]`` in layer order (index l-1 for
    layer l), computed from the output layer down:

        delta_L = loss gradient * J_L
        grad [W_l b_l] = delta_l [Z_{l-1}; 1]^T / p
        delta_l = J_l * (W_{l+1}^T delta_{l+1})

    ``deltas`` takes one ``(q_l, p)`` block per hidden layer, in layer
    order, to hold delta_l; without it each delta is a new block.  An
    entry may be the training columns of the cache's own Z for that layer
    (``activations[l-1][:-1, :p]``), since grad [W b]_{l+1} reads them
    before delta_l is written, unless the layer is softmax: its Jacobian
    product reads Z.
    """
    p = train_targets.shape[1]
    k = len(state.blocks)
    grads = [None] * k
    delta = output_delta(cache, train_targets, loss, state.activations[-1])
    for l in range(k - 1, -1, -1):
        z_prev = cache.z0 if l == 0 else cache.activations[l - 1]
        grads[l] = layer_gradients(delta, z_prev[:, :p])
        if l:
            j = cache.derivatives[l - 1]
            delta = hidden_delta(
                delta,
                state.blocks[l][:, :-1],
                None if j is None else j[:, :p],
                state.activations[l - 1],
                z_prev[:-1, :p],
                out=None if deltas is None else deltas[l - 1],
            )
    return grads


def _delta_blocks(state: NetworkState, cache: ForwardCache, p: int) -> list[np.ndarray]:
    """The hidden layers' delta blocks for ``train``: each layer's own
    cached Z over the p training columns, or a new block for a softmax
    layer, whose Jacobian product reads Z."""
    return [np.empty((z.shape[0] - 1, p)) if act.name == "softmax" else z[:-1, :p]
            for z, act in zip(cache.activations[:-1], state.activations[:-1])]


def train(
    state: NetworkState,
    train_features,
    train_targets,
    val_features,
    val_targets,
    config: NetworkConfig,
) -> tuple[NetworkState, TrainReport]:
    """Batch training with validation-gap stopping.

    ``train_features`` is (n, p), ``train_targets`` (m, p),
    ``val_features`` (n, s), ``val_targets`` (m, s) with p, s >= 1.
    Each epoch: forward over all p+s columns, validation loss, and -
    unless the loss gap already undercuts the tolerance - one optimizer
    update of every layer's block ``[W b]`` from gradients taken at this
    epoch's pre-update parameters.  Each call starts the optimizer from a
    fresh state.  The state is updated in place and returned with the report.
    A validation loss that is not finite raises ``DivergenceError``.
    """
    train_features = _features(state, train_features)
    val_features = _features(state, val_features)
    train_targets = np.asarray(train_targets, dtype=np.float64)
    val_targets = np.asarray(val_targets, dtype=np.float64)
    p, s = train_features.shape[1], val_features.shape[1]
    if p < 1 or s < 1:
        raise ShapeError("need at least one training and one validation column")
    m = state.output_dim
    if config.layer_specs[-1].units != m:
        raise ShapeError("config and state disagree on the output dimension")
    if train_targets.shape != (m, p) or val_targets.shape != (m, s):
        raise ShapeError(
            f"targets must be ({m}, {p}) and ({m}, {s}), got "
            f"{train_targets.shape} and {val_targets.shape}"
        )

    z0 = np.hstack([train_features, val_features])
    theta_prev = gap = MAX_FLOAT  # sentinel: the first gap can never undercut the tolerance
    losses: list[float] = []
    cache = deltas = None
    moments = [fresh_state(config.optimizer, block.shape) for block in state.blocks]

    for epoch in range(1, config.max_epochs + 1):
        try:
            cache = forward(state, z0, out=cache)
            z0 = cache.z0[:-1]  # later epochs pass the cache's own rows; the hstack is freed
            if deltas is None:
                deltas = _delta_blocks(state, cache, p)
            theta = batch_validation_loss(cache, val_targets, config.loss)
            if not np.isfinite(theta):
                raise DivergenceError("validation loss is not finite")
            losses.append(theta)
            gap = abs(theta - theta_prev)
            if gap >= config.tolerance:
                grads = _backward_pass(state, cache, train_targets, config.loss,
                                       deltas=deltas)
                for l in range(len(state.blocks) - 1, -1, -1):
                    try:  # popping frees each gradient once its step is taken
                        state.blocks[l], moments[l] = optimizer_step(
                            config.optimizer, moments[l], state.blocks[l], grads.pop())
                    except DivergenceError as exc:
                        raise DivergenceError(f"layer {l + 1}: {exc}") from None
        except DivergenceError as exc:
            raise DivergenceError(f"epoch {epoch}: {exc}", iteration=epoch) from None
        theta_prev = theta
        state.epoch += 1
        if gap <= config.tolerance:
            break

    reason = STOP_TOLERANCE if gap <= config.tolerance else STOP_MAX_EPOCHS
    return state, TrainReport(tuple(losses), reason, len(losses), gap)


def gradient_check(seed: int, n_configs: int = 50, step: float = 1e-5) -> float:
    """Compare backprop gradients with central finite differences.

    Builds ``n_configs`` small random networks (1-3 layers, widths up to
    5, smooth activations and losses) and returns the worst relative
    error, where each entry's error is ``|bp - fd| / max(|fd|, 1e-3)``
    so that tiny gradients are compared absolutely at a 1e-7 floor.
    """
    rng = np.random.default_rng(seed)
    activation_pool = ("sigmoid", "swish", "identity")
    loss_pool = ("mse", "log_cosh")
    worst = 0.0
    for _ in range(n_configs):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        widths = [int(rng.integers(1, 6)) for _ in range(k)]
        p = int(rng.integers(1, 9))
        specs = tuple(
            LayerSpec(q, ActivationKind(str(rng.choice(activation_pool)))) for q in widths
        )
        config = NetworkConfig(
            layer_specs=specs,
            loss=LossKind(str(rng.choice(loss_pool))),
            optimizer=OptimizerKind("gd"),
            initializer=InitializerKind("xavier"),
            max_epochs=1,
            tolerance=1e-8,
            seed=int(rng.integers(0, 2**31)),
        )
        state = init_network(config, n)
        features = rng.uniform(-1.0, 1.0, (n, p))
        targets = rng.uniform(-1.0, 1.0, (widths[-1], p))

        cache = forward(state, features)
        grads = _backward_pass(state, cache, targets, config.loss)

        def batch_loss() -> float:
            return float(np.mean(column_losses(config.loss, predict(state, features), targets)))

        for block, grad in zip(state.blocks, grads):
            for idx in np.ndindex(block.shape):
                saved = block[idx]
                block[idx] = saved + step
                up = batch_loss()
                block[idx] = saved - step
                down = batch_loss()
                block[idx] = saved
                fd = (up - down) / (2.0 * step)
                worst = max(worst, abs(grad[idx] - fd) / max(abs(fd), 1e-3))
    return worst
