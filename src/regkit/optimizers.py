"""Parameter-update rules: plain gradient descent and six adaptive variants.

``optimizer_step`` is pure: it returns fresh parameter and state values
and never mutates its inputs, so repeated calls with the same arguments
are bit-identical.  One state is kept per parameter block: ``train``
keeps one per network layer, over its block ``[W b]``.  Every rule is
elementwise, so one step on ``[W b]`` gives the bits of separate steps
on W and on b.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, ShapeError

OPTIMIZER_NAMES = ("gd", "momentum", "nesterov", "adagrad", "rmsprop", "adam", "nadam")

_GAMMA_DEFAULTS = {
    "gd": 0.01,
    "momentum": 0.01,
    "nesterov": 0.01,
    "adagrad": 0.01,
    "rmsprop": 0.001,
    "adam": 0.001,
    "nadam": 0.001,
}


@dataclass(frozen=True)
class OptimizerKind:
    """An update rule and its hyperparameters.

    ``gamma`` is the learning rate (per-name default when omitted),
    ``mu`` the momentum fraction, ``rho`` the squared-gradient decay,
    ``beta1``/``beta2`` the moment decays, ``eps`` the denominator guard.
    """

    name: str
    gamma: float | None = None
    mu: float = 0.9
    rho: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.name not in OPTIMIZER_NAMES:
            raise ValueError(
                f"unknown optimizer {self.name!r}; expected one of {OPTIMIZER_NAMES}"
            )
        gamma = _GAMMA_DEFAULTS[self.name] if self.gamma is None else float(self.gamma)
        if not 0.0 < gamma < np.inf:
            raise ValueError("learning rate must be a finite number > 0")
        object.__setattr__(self, "gamma", gamma)
        for label, value in (
            ("mu", self.mu),
            ("rho", self.rho),
            ("beta1", self.beta1),
            ("beta2", self.beta2),
        ):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{label} must lie in [0, 1), got {value!r}")
        if not 0.0 < self.eps < np.inf:
            raise ValueError("eps must be a finite number > 0")


def parse_optimizer(name: str) -> OptimizerKind:
    """Build an OptimizerKind (with default hyperparameters) from its name."""
    return OptimizerKind(name.strip().lower())


@dataclass(frozen=True)
class OptimizerState:
    """Accumulators for one parameter block; unused fields stay ``None``.

    ``step`` counts completed updates and grows by exactly 1 per step.
    """

    velocity: np.ndarray | None = None
    sq_accum: np.ndarray | None = None
    m1: np.ndarray | None = None
    m2: np.ndarray | None = None
    step: int = 0


def fresh_state(kind: OptimizerKind, shape) -> OptimizerState:
    """Zero-initialized state for a parameter block of the given shape."""
    if kind.name in ("momentum", "nesterov"):
        return OptimizerState(velocity=np.zeros(shape))
    if kind.name in ("adagrad", "rmsprop"):
        return OptimizerState(sq_accum=np.zeros(shape))
    if kind.name in ("adam", "nadam"):
        return OptimizerState(m1=np.zeros(shape), m2=np.zeros(shape))
    return OptimizerState()


def optimizer_step(
    kind: OptimizerKind, state: OptimizerState, params, grad
) -> tuple[np.ndarray, OptimizerState]:
    """Apply one update; returns the new parameters and the new state."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if params.shape != grad.shape:
        raise ShapeError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
    if not np.isfinite(grad).all():
        raise DivergenceError("gradient contains non-finite values")

    name, gamma = kind.name, kind.gamma
    if name == "gd":
        return params - gamma * grad, replace(state, step=state.step + 1)
    if name == "momentum":
        v = kind.mu * state.velocity + gamma * grad
        return params - v, replace(state, velocity=v, step=state.step + 1)
    if name == "nesterov":
        v = kind.mu * state.velocity + gamma * grad
        return params - (kind.mu * v + gamma * grad), replace(
            state, velocity=v, step=state.step + 1
        )
    if name == "adagrad":
        a = state.sq_accum + grad * grad
        return params - gamma * grad / (np.sqrt(a) + kind.eps), replace(
            state, sq_accum=a, step=state.step + 1
        )
    if name == "rmsprop":
        a = kind.rho * state.sq_accum + (1.0 - kind.rho) * grad * grad
        return params - gamma * grad / (np.sqrt(a) + kind.eps), replace(
            state, sq_accum=a, step=state.step + 1
        )
    if name in ("adam", "nadam"):
        t = state.step + 1
        m1 = kind.beta1 * state.m1 + (1.0 - kind.beta1) * grad
        m2 = kind.beta2 * state.m2 + (1.0 - kind.beta2) * grad * grad
        m_hat = m1 / (1.0 - kind.beta1**t)
        v_hat = m2 / (1.0 - kind.beta2**t)
        if name == "nadam":
            m_hat = kind.beta1 * m_hat + (1.0 - kind.beta1) * grad / (1.0 - kind.beta1**t)
        new = params - gamma * m_hat / (np.sqrt(v_hat) + kind.eps)
        return new, replace(state, m1=m1, m2=m2, step=t)
    raise AssertionError(name)
