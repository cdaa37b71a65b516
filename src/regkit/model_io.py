"""Versioned JSON model files for both model kinds.

Floats are written with Python's shortest round-trip representation, so
saving and reloading a model reproduces its predictions bit for bit.
Files carry the normalization statistics alongside the parameters;
``predict_rows`` applies the full normalize / evaluate / denormalize
pipeline on raw feature rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .activations import ActivationKind
from .data import NormalizationStats, denormalize, normalize
from .errors import ModelFormatError
from .network import NetworkConfig, NetworkState
from .network import predict as network_predict
from .ols import OlsModel
from .optimizers import OptimizerKind, fresh_state

FORMAT_VERSION = 1


@dataclass(frozen=True)
class LoadedModel:
    """A model read back from disk, ready for ``predict_rows``."""

    kind: str  # "ols" | "ann"
    feature_stats: NormalizationStats
    target_stats: NormalizationStats
    ols: OlsModel | None = None
    network: NetworkState | None = None
    seed: int | None = None


def _stats_to_json(stats: NormalizationStats) -> dict:
    return {
        "columns": list(stats.columns),
        "mean": stats.mean.tolist(),
        "std": stats.std.tolist(),
    }


def _stats_from_json(obj: dict, what: str) -> NormalizationStats:
    try:
        mean, std = _numbers(obj["mean"], "mean"), _numbers(obj["std"], "std")
        return NormalizationStats(obj["columns"], mean, std)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad {what} normalization block: {exc}") from None


def save_model(
    path,
    model,
    feature_stats: NormalizationStats,
    target_stats: NormalizationStats,
    config: NetworkConfig | None = None,
) -> None:
    """Write an OlsModel or a NetworkState (with its config) to ``path``."""
    doc = {
        "format_version": FORMAT_VERSION,
        "normalization": {
            "features": _stats_to_json(feature_stats),
            "targets": _stats_to_json(target_stats),
        },
    }
    if isinstance(model, OlsModel):
        doc["model_kind"] = "ols"
        doc["ols"] = {
            "rows": model.b.shape[0],
            "cols": model.b.shape[1],
            "coefficients": model.b.ravel().tolist(),
        }
    elif isinstance(model, NetworkState):
        if config is None:
            raise ValueError("saving a network requires its NetworkConfig")
        layers = []
        for w, b, act in zip(model.weights, model.biases, model.activations):
            entry = {
                "units": w.shape[0],
                "activation": {"name": act.name},
                "weights": w.ravel().tolist(),
                "biases": b.ravel().tolist(),
            }
            if act.beta is not None:
                entry["activation"]["beta"] = act.beta
            layers.append(entry)
        loss = {"name": config.loss.name}
        if config.loss.delta is not None:
            loss["delta"] = config.loss.delta
        optimizer = {
            "name": config.optimizer.name,
            "gamma": config.optimizer.gamma,
            "mu": config.optimizer.mu,
            "rho": config.optimizer.rho,
            "beta1": config.optimizer.beta1,
            "beta2": config.optimizer.beta2,
            "eps": config.optimizer.eps,
        }
        initializer = {"name": config.initializer.name}
        if config.initializer.beta is not None:
            initializer["beta"] = config.initializer.beta
        if config.initializer.sigma is not None:
            initializer["sigma"] = config.initializer.sigma
        doc["model_kind"] = "ann"
        doc["ann"] = {
            "input_dim": model.input_dim,
            "seed": config.seed,
            "loss": loss,
            "optimizer": optimizer,
            "initializer": initializer,
            "layers": layers,
        }
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    # One dumps call runs the C encoder; json.dump streams through the Python one.
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _numbers(values, what: str) -> np.ndarray:
    """A JSON list of finite numbers as float64; strings, booleans, NaN and inf are errors."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise ModelFormatError(f"{what}: expected a list of numbers")
    try:
        arr = np.array(values, dtype=np.float64)
        if np.isfinite(arr).all():
            return arr
    except OverflowError:  # an integer beyond the float range
        pass
    raise ModelFormatError(f"{what}: values must be finite")


def _reshape(flat, rows: int, cols: int, what: str) -> np.ndarray:
    arr = _numbers(flat, what)
    if arr.shape[0] != rows * cols:
        raise ModelFormatError(
            f"{what}: expected {rows * cols} values for shape ({rows}, {cols}), "
            f"got {arr.shape[0]}"
        )
    return arr.reshape(rows, cols)


def load_model(path) -> LoadedModel:
    """Read a model file back; rejects unknown versions and bad shapes."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at the top level")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format_version {version!r} (expected {FORMAT_VERSION})"
        )
    try:
        norm = doc["normalization"]
        feature_stats = _stats_from_json(norm["features"], "feature")
        target_stats = _stats_from_json(norm["targets"], "target")
        kind = doc["model_kind"]
        if kind == "ols":
            block = doc["ols"]
            b = _reshape(block["coefficients"], block["rows"], block["cols"], "coefficients")
            return LoadedModel("ols", feature_stats, target_stats, ols=OlsModel(b))
        if kind == "ann":
            block = doc["ann"]
            prev = int(block["input_dim"])
            weights, biases, acts = [], [], []
            for i, layer in enumerate(block["layers"], start=1):
                units = int(layer["units"])
                act = layer["activation"]
                acts.append(ActivationKind(act["name"], act.get("beta")))
                weights.append(_reshape(layer["weights"], units, prev, f"layer {i} weights"))
                biases.append(_reshape(layer["biases"], units, 1, f"layer {i} biases"))
                prev = units
            optimizer = OptimizerKind(**block["optimizer"])
            state = NetworkState(
                weights,
                biases,
                tuple(acts),
                [fresh_state(optimizer, w.shape) for w in weights],
                [fresh_state(optimizer, b.shape) for b in biases],
            )
            return LoadedModel(
                "ann", feature_stats, target_stats, network=state, seed=int(block["seed"])
            )
        raise ModelFormatError(f"{path}: unknown model_kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from None


def predict_rows(model: LoadedModel, feature_rows) -> np.ndarray:
    """Predictions in original units for raw feature rows (one per row)."""
    feature_rows = np.asarray(feature_rows, dtype=np.float64)
    if feature_rows.ndim == 1:
        feature_rows = feature_rows.reshape(1, -1)
    normalized, _ = normalize(feature_rows, stats=model.feature_stats)
    if model.kind == "ols":
        design = np.hstack([normalized, np.ones((normalized.shape[0], 1))])
        outputs = (model.ols.b @ design.T).T
    else:
        outputs = network_predict(model.network, normalized.T).T
    return denormalize(outputs, model.target_stats)
