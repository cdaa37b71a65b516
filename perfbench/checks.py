"""Correctness checks on the files the CLI writes.

This module shares no code with regkit: model files are read as plain
JSON and networks are evaluated by a forward pass written here.  Each
check returns ``None`` when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
import re

import numpy as np

# Predictions of a network re-evaluated here may differ from regkit's in
# the last bits (another summation order); in units of the target's std.
ANN_PREDICT_TOL = 1e-9

# A trained network's RMS error on the training rows must be at most this
# share of the error after one epoch of the same fit: an optimizer step or
# a backward pass that does nothing leaves the two equal.
TRAINED_RATIO = 0.99

_ACTIVATIONS = {
    "identity": lambda s: s,
    "swish": lambda s: s * 0.5 * (1.0 + np.tanh(0.5 * s)),  # s * logistic(s)
}


def model_predictions(model_path, features: np.ndarray) -> np.ndarray:
    """Evaluate a saved model on raw feature rows, in original target units."""
    with open(model_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    norm = doc["normalization"]
    out = (features - np.asarray(norm["features"]["mean"])) / np.asarray(norm["features"]["std"])
    if doc["model_kind"] == "ols":
        block = doc["ols"]
        b = np.asarray(block["coefficients"]).reshape(block["rows"], block["cols"])
        out = out @ b[:, :-1].T + b[:, -1]
    else:
        for layer in doc["ann"]["layers"]:
            weights = np.asarray(layer["weights"]).reshape(layer["units"], -1)
            activation = _ACTIVATIONS[layer["activation"]["name"]]
            out = activation(out @ weights.T + np.asarray(layer["biases"]))
    return out * np.asarray(norm["targets"]["std"]) + np.asarray(norm["targets"]["mean"])


def compare(values: np.ndarray, reference: np.ndarray, scale: np.ndarray, tol: float,
            what: str) -> str | None:
    """Largest deviation, in units of ``scale`` per column, must stay within ``tol``."""
    if values.shape != reference.shape:
        return f"{what}: shape {values.shape} != expected {reference.shape}"
    err = float(np.max(np.abs(values - reference) / scale))
    if not err <= tol:
        return f"{what}: max error {err:.3g} target std exceeds {tol:g}"
    return None


def rms_error(values: np.ndarray, targets: np.ndarray, scale: np.ndarray) -> float:
    """The worst column's root-mean-square error, in units of ``scale`` per column."""
    return float(np.max(np.sqrt(np.mean((values - targets) ** 2, axis=0)) / scale))


def read_predictions(path, columns: list[str]) -> tuple[np.ndarray | None, str | None]:
    """The predictions CSV as an array, or a reason it is malformed."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    if header != columns:
        return None, f"predictions header {header} != {columns}"
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2), None


def count_in(stdout: str, pattern: str) -> int | None:
    """The integer captured by ``pattern`` in the command's output, if any."""
    match = re.search(pattern, stdout)
    return int(match.group(1)) if match else None


EPOCHS = r"trained (\d+) epochs"
GD_ITERATIONS = r"gd: (\d+) iterations"
