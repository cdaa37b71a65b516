"""Dense feedforward networks trained by batch backpropagation.

Data layout: one sample per column, and one parameter block
``[W_l b_l]`` per layer, the form of OLS's B over ``[X 1]``.  One layer
loop runs the forward algorithm ``Z_l = f(W_l Z_{l-1} + b_l)``.  Training
runs its training and validation columns side by side in a single
``(features, p + s)`` block and caches what the backward pass reads and
nothing else: each layer's Z and, for an elementwise f other than
identity, J = f'(S) at the pre-activations ``S = W Z_prev + b``, written
over S.  Prediction caches nothing and writes each Z over its S.  The
backward pass sees only the first p (training) columns, so validation
targets can never influence a gradient; it is the streamlined
backpropagation ``delta_l = J_l * (W_{l+1}^T delta_{l+1})``.  Training
allocates the cache's blocks once: every later epoch writes into those
of the epoch before.  Each hidden layer's delta is written over the
training columns of that layer's own cached Z, which the weight gradient
of the layer above has read for the last time; only a softmax hidden
layer, whose Jacobian product reads Z, has a delta block of its own.

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
    """Everything the backward pass needs: the input block, the
    activations Z of every layer and their derivatives.

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


def _input_block(state: NetworkState, z0) -> np.ndarray:
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.ndim != 2:
        raise ShapeError(f"input block must be 2-D, got shape {z0.shape}")
    if z0.shape[0] != state.input_dim:
        raise ShapeError(
            f"input block has {z0.shape[0]} rows, network expects {state.input_dim}"
        )
    return z0


def forward(state: NetworkState, z0, *, out: ForwardCache | None = None) -> ForwardCache:
    """Run all columns through the network, caching Z and J = f'(S) per layer.

    ``out`` takes a cache an earlier call returned for this network and a
    block with as many columns; its blocks are overwritten in place and it
    is returned, holding ``z0`` as its input block.
    """
    z = _input_block(state, z0)
    k = len(state.blocks)
    if out is None:
        out = ForwardCache(z, [None] * k, [None] * k)
    else:
        shapes = [(block.shape[0], z.shape[1]) for block in state.blocks]
        if [a.shape for a in out.activations] != shapes:
            raise ShapeError(
                f"out holds blocks of shapes {[a.shape for a in out.activations]}, "
                f"expected {shapes}"
            )
        out.z0 = z
    _run_layers(state, z, out)
    return out


def predict(state: NetworkState, features) -> np.ndarray:
    """Forward pass without a cache; columns of ``features`` are samples.
    Each layer's Z is written over its S, so no more than two layer blocks
    are alive at once."""
    return _run_layers(state, _input_block(state, features), None)


def _run_layers(state: NetworkState, z: np.ndarray, cache: ForwardCache | None) -> np.ndarray:
    """The forward pass over the input block ``z``; returns the output Z.

    Each layer forms ``S = W Z_prev`` in one product, then adds the bias
    one row block at a time, checks that the block is finite and applies
    an elementwise f; softmax runs over the whole block after.  Given a
    cache, its blocks take S, Z and J; without one, Z is written over S.
    """
    for i, (w, b, act) in enumerate(zip(state.weights, state.biases, state.activations)):
        elementwise = act.name not in ("identity", "softmax")
        keep = cache is not None and elementwise  # J is written over S
        s = None if cache is None else (cache.derivatives if keep else cache.activations)[i]
        s = w @ z if s is None else np.matmul(w, z, out=s)
        z = cache.activations[i] if keep else s
        if z is None:
            z = np.empty(s.shape)
        for rows, *scratch in row_blocks(s, int(elementwise)):
            block = s[rows]
            block += b[rows]
            if not np.isfinite(block).all():
                raise DivergenceError(f"non-finite pre-activations in layer {i + 1}")
            if keep:
                activate_rows(act, block, z[rows], *scratch)
            elif elementwise:
                apply_rows(act, block, *scratch)
        scratch = None  # else it holds this layer's scratch while the next layer's is made
        if act.name == "softmax":
            softmax_columns(s, out=s)
        if cache is not None:
            cache.activations[i], cache.derivatives[i] = z, s if keep else None
    return z


def batch_validation_loss(cache: ForwardCache, val_targets, loss: LossKind) -> float:
    """Mean loss over the trailing s (validation) columns of the output."""
    val_targets = np.asarray(val_targets, dtype=np.float64)
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
    train_targets = np.asarray(train_targets, dtype=np.float64)
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
    delta_next = np.asarray(delta_next, dtype=np.float64)
    w_next = np.asarray(w_next, dtype=np.float64)
    if w_next.shape[0] != delta_next.shape[0]:
        raise ShapeError(
            f"weight shape {w_next.shape} does not consume delta shape {delta_next.shape}"
        )
    upstream = np.matmul(w_next.T, delta_next, out=out)
    return _times_jacobian(activation_r, derivative_r, output_r, upstream)


def layer_gradients(delta_r, z_prev_train) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of the batch loss for one layer.

    ``grad_w = (1/p) Delta Z_prev^T`` (the average over samples of the
    outer product of each delta column with its input column) and
    ``grad_b = (1/p)`` times the row sums of Delta.
    """
    delta_r = np.asarray(delta_r, dtype=np.float64)
    z_prev_train = np.asarray(z_prev_train, dtype=np.float64)
    p = delta_r.shape[1]
    if z_prev_train.shape[1] != p:
        raise ShapeError(
            f"delta has {p} columns but previous activations have {z_prev_train.shape[1]}"
        )
    grad_w = (delta_r @ z_prev_train.T) / p
    grad_b = delta_r.sum(axis=1, keepdims=True) / p
    return grad_w, grad_b


def _backward_pass(
    state: NetworkState,
    cache: ForwardCache,
    train_targets: np.ndarray,
    loss: LossKind,
    *,
    deltas: list[np.ndarray] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients for every layer in layer order (index l-1 for layer l),
    computed from the output layer down:

        delta_L = loss gradient * J_L
        grad W_l = delta_l Z_{l-1}^T / p
        delta_l = J_l * (W_{l+1}^T delta_{l+1})

    ``deltas`` takes one ``(q_l, p)`` block per hidden layer, in layer
    order, to hold delta_l; without it each delta is a new block.  An
    entry may be the training columns of the cache's own Z for that layer
    (``activations[l-1][:, :p]``), since grad W_{l+1} reads them before
    delta_l is written, unless the layer is softmax: its Jacobian product
    reads Z.
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
                state.weights[l],
                None if j is None else j[:, :p],
                state.activations[l - 1],
                z_prev[:, :p],
                out=None if deltas is None else deltas[l - 1],
            )
    return grads


def _delta_blocks(state: NetworkState, cache: ForwardCache, p: int) -> list[np.ndarray]:
    """The hidden layers' delta blocks for ``train``: each layer's own
    cached Z over the p training columns, or a new block for a softmax
    layer, whose Jacobian product reads Z."""
    return [np.empty((z.shape[0], p)) if act.name == "softmax" else z[:, :p]
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
    """
    train_features = _input_block(state, train_features)
    val_features = _input_block(state, val_features)
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
    theta_prev = MAX_FLOAT  # sentinel: the first gap can never undercut the tolerance
    gap = MAX_FLOAT
    losses: list[float] = []
    epochs = 0
    cache = deltas = None
    moments = [fresh_state(config.optimizer, block.shape) for block in state.blocks]

    while gap > config.tolerance and epochs < config.max_epochs:
        epoch = epochs + 1
        try:
            cache = forward(state, z0, out=cache)
            if deltas is None:
                deltas = _delta_blocks(state, cache, p)
            theta = batch_validation_loss(cache, val_targets, config.loss)
            losses.append(theta)
            gap = abs(theta - theta_prev)
            if gap >= config.tolerance:
                grads = _backward_pass(state, cache, train_targets, config.loss,
                                       deltas=deltas)
                for l in range(len(state.blocks) - 1, -1, -1):
                    try:  # popping frees layer l's gradients before its step
                        state.blocks[l], moments[l] = optimizer_step(
                            config.optimizer, moments[l], state.blocks[l],
                            np.hstack(grads.pop()))
                    except DivergenceError as exc:
                        raise DivergenceError(f"layer {l + 1}: {exc}") from None
        except DivergenceError as exc:
            raise DivergenceError(f"epoch {epoch}: {exc}", iteration=epoch) from None
        theta_prev = theta
        epochs += 1
        state.epoch += 1

    reason = STOP_TOLERANCE if gap <= config.tolerance else STOP_MAX_EPOCHS
    report = TrainReport(tuple(losses), reason, epochs, gap)
    return state, report


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
            grad = np.hstack(grad)
            it = np.nditer(block, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = block[idx]
                block[idx] = saved + step
                up = batch_loss()
                block[idx] = saved - step
                down = batch_loss()
                block[idx] = saved
                fd = (up - down) / (2.0 * step)
                worst = max(worst, abs(grad[idx] - fd) / max(abs(fd), 1e-3))
    return worst
