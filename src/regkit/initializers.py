"""Weight initialization schemes with explicitly seeded randomness.

A weight matrix for a layer with ``fan_in`` inputs and ``fan_out``
outputs has shape ``(fan_out, fan_in)``.  Biases always start at zero.
Identical seeds produce bit-identical samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INITIALIZER_NAMES = (
    "random_uniform",
    "random_normal",
    "xavier",
    "kaiming_uniform",
    "kaiming_normal",
    "lecun",
)


@dataclass(frozen=True)
class InitializerKind:
    """A sampling scheme; ``beta`` is the uniform half-width, ``sigma`` the
    normal standard deviation (both only for the plain random schemes)."""

    name: str
    beta: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        if self.name not in INITIALIZER_NAMES:
            raise ValueError(
                f"unknown initializer {self.name!r}; expected one of {INITIALIZER_NAMES}"
            )
        if self.name == "random_uniform":
            beta = 0.05 if self.beta is None else float(self.beta)
            if not 0.0 < beta < np.inf:
                raise ValueError("random_uniform half-width must be a finite number > 0")
            object.__setattr__(self, "beta", beta)
        elif self.beta is not None:
            raise ValueError(f"initializer {self.name!r} takes no beta")
        if self.name == "random_normal":
            sigma = 0.05 if self.sigma is None else float(self.sigma)
            if not 0.0 < sigma < np.inf:
                raise ValueError("random_normal sigma must be a finite number > 0")
            object.__setattr__(self, "sigma", sigma)
        elif self.sigma is not None:
            raise ValueError(f"initializer {self.name!r} takes no sigma")


def parse_initializer(name: str) -> InitializerKind:
    """Build an InitializerKind from its lowercase config-file name."""
    return InitializerKind(name.strip().lower())


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; the same seed yields the same stream."""
    return np.random.default_rng(seed)


def init_weights(
    kind: InitializerKind, fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample a ``(fan_out, fan_in)`` weight matrix for the given scheme."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in and fan_out must be >= 1, got {fan_in}, {fan_out}")
    shape = (fan_out, fan_in)
    name = kind.name
    if name == "xavier":
        bound = math.sqrt(6.0) / (math.sqrt(fan_in) + math.sqrt(fan_out))
        return rng.uniform(-bound, bound, shape)
    if name == "kaiming_uniform":
        bound = math.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, shape)
    if name == "kaiming_normal":
        return rng.normal(0.0, math.sqrt(2.0 / fan_in), shape)
    if name == "lecun":
        return rng.normal(0.0, math.sqrt(1.0 / fan_in), shape)
    if name == "random_uniform":
        return rng.uniform(-kind.beta, kind.beta, shape)
    if name == "random_normal":
        return rng.normal(0.0, kind.sigma, shape)
    raise AssertionError(name)


def init_biases(length: int) -> np.ndarray:
    """Zero column vector of the given length."""
    if length < 1:
        raise ValueError(f"bias length must be >= 1, got {length}")
    return np.zeros((length, 1))
