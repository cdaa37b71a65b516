"""Versioned JSON model files for both model kinds.

Floats are written with Python's shortest round-trip representation, so
saving and reloading a model reproduces its predictions bit for bit.
Files carry the normalization statistics alongside the parameters;
``predict_rows`` applies the full normalize / evaluate / denormalize
pipeline on raw feature rows.  Output files are written whole or not
at all (``replacing_writer``).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .activations import ActivationKind
from .data import ColumnSchema, NormalizationStats, denormalize, normalize
from .errors import DataError, DivergenceError, ModelFormatError
from .network import NetworkConfig, NetworkState
from .network import predict as network_predict
from .ols import OlsModel
from .optimizers import OptimizerKind

FORMAT_VERSION = 1


@dataclass(frozen=True)
class LoadedModel:
    """A model read back from disk, ready for ``predict_rows``.  Given
    ``ols``, ``network`` is its one-layer identity network ``W z + b``,
    whose one block ``[W b]`` is B itself."""

    kind: str  # "ols" | "ann"
    feature_stats: NormalizationStats
    target_stats: NormalizationStats
    ols: OlsModel | None = None
    network: NetworkState | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.ols is not None:
            network = NetworkState([self.ols.b], (ActivationKind("identity"),))
            object.__setattr__(self, "network", network)


def _stats_to_json(stats: NormalizationStats) -> dict:
    return {
        "columns": list(stats.columns),
        "mean": stats.mean.tolist(),
        "std": stats.std.tolist(),
    }


def _stats_from_json(obj: dict, what: str) -> NormalizationStats:
    try:
        mean, std = _numbers(obj["mean"], "mean"), _numbers(obj["std"], "std")
        columns = obj["columns"]
        if not isinstance(columns, list) or not all(isinstance(c, str) for c in columns):
            raise ModelFormatError(f"bad {what} normalization block: "
                                   "columns must be a list of names")
        return NormalizationStats(columns, mean, std)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad {what} normalization block: {exc}") from None


def _kind_to_json(kind) -> dict:
    """The fields of an activation, loss, optimizer or initializer kind,
    leaving out the parameters it does not take (``None``)."""
    return {k: v for k, v in asdict(kind).items() if v is not None}


@contextmanager
def replacing_writer(path, newline: str | None = None):
    """A text handle on a new file beside ``path``, renamed over ``path``
    once the block completes and removed if it raises.

    A run that fails mid-write leaves any earlier file at ``path`` as it
    was, never a partial one.  The rename is atomic, but nothing is
    synced to disk.
    """
    path = os.fspath(path)
    temp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the file the caller asked for
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        try:
            os.replace(temp, path)
        except OSError as exc:  # as above, for example when path is a directory
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(temp)
        raise


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
        layers = [
            {
                "units": w.shape[0],
                "activation": _kind_to_json(act),
                "weights": w.ravel().tolist(),
                "biases": b.ravel().tolist(),
            }
            for w, b, act in zip(model.weights, model.biases, model.activations)
        ]
        doc["model_kind"] = "ann"
        doc["ann"] = {
            "input_dim": model.input_dim,
            "seed": config.seed,
            "loss": _kind_to_json(config.loss),
            "optimizer": _kind_to_json(config.optimizer),
            "initializer": _kind_to_json(config.initializer),
            "layers": layers,
        }
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    # One dumps call runs the C encoder; json.dump streams through the Python one.
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with replacing_writer(path) as handle:
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


def _integer(value, what: str, least: int = 1) -> int:
    """A JSON integer >= ``least``; booleans, floats and strings are errors."""
    if type(value) is not int or value < least:
        raise ModelFormatError(f"{what}: expected an integer >= {least}, got {value!r}")
    return value


def _width(value: int, expected: int, what: str, why: str) -> None:
    """Reject a model width that does not match its normalization block."""
    if value != expected:
        raise ModelFormatError(f"{what} is {value}, expected {expected} for {why}")


def _reshape(flat, rows: int, cols: int, what: str) -> np.ndarray:
    arr = _numbers(flat, what)
    if arr.shape[0] != rows * cols:
        raise ModelFormatError(
            f"{what}: expected {rows * cols} values for shape ({rows}, {cols}), "
            f"got {arr.shape[0]}"
        )
    return arr.reshape(rows, cols)


def load_model(path) -> LoadedModel:
    """Read a model file back; rejects unknown versions, bad shapes and
    widths that do not match the normalization blocks."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except UnicodeDecodeError as exc:
        raise ModelFormatError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
        ) from None
    except (ValueError, RecursionError) as exc:  # bad syntax, huge integers, deep nesting
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
        try:
            ColumnSchema(feature_stats.columns, target_stats.columns)
        except DataError as exc:
            raise ModelFormatError(f"{path}: bad normalization columns: {exc}") from None
        n, m = len(feature_stats.columns), len(target_stats.columns)
        kind = doc["model_kind"]
        if kind == "ols":
            block = doc["ols"]
            rows, cols = _integer(block["rows"], "ols rows"), _integer(block["cols"], "ols cols")
            _width(rows, m, "ols rows", f"{m} target columns")
            _width(cols, n + 1, "ols cols", f"{n} feature columns and the intercept")
            b = _reshape(block["coefficients"], rows, cols, "coefficients")
            return LoadedModel("ols", feature_stats, target_stats, ols=OlsModel(b))
        if kind == "ann":
            block = doc["ann"]
            prev = _integer(block["input_dim"], "input_dim")
            _width(prev, n, "input_dim", f"{n} feature columns")
            layers = block["layers"]
            if not isinstance(layers, list) or not layers:
                raise ModelFormatError(f"{path}: layers must be a non-empty list")
            blocks, acts = [], []
            for i, layer in enumerate(layers, start=1):
                units = _integer(layer["units"], f"layer {i} units")
                act = layer["activation"]
                if not isinstance(act, dict):
                    raise ModelFormatError(f"layer {i} activation: expected a JSON object")
                if type(act.get("beta", 0)) not in (int, float):
                    raise ModelFormatError(f"layer {i} beta: expected a number")
                acts.append(ActivationKind(act["name"], act.get("beta")))
                blocks.append(np.hstack([
                    _reshape(layer["weights"], units, prev, f"layer {i} weights"),
                    _reshape(layer["biases"], units, 1, f"layer {i} biases")]))
                prev = units
            _width(prev, m, f"layer {len(layers)} units", f"{m} target columns")
            fields = block["optimizer"]
            if not isinstance(fields, dict):
                raise ModelFormatError("optimizer: expected a JSON object")
            for key, value in fields.items():
                if key != "name" and type(value) not in (int, float):
                    raise ModelFormatError(f"optimizer {key}: expected a number")
            OptimizerKind(**fields)  # validates the file; train makes its own state
            state = NetworkState(blocks, tuple(acts))
            seed = _integer(block["seed"], "seed", least=0)
            return LoadedModel("ann", feature_stats, target_stats, network=state, seed=seed)
        raise ModelFormatError(f"{path}: unknown model_kind {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from None


def predict_rows(model: LoadedModel, feature_rows) -> np.ndarray:
    """Predictions in original units for raw feature rows (one per row).

    Raises ``DivergenceError`` naming the first row (counted from 1) whose
    prediction overflows the float range or is NaN.  When the forward
    pass meets a non-finite pre-activation, the row named is the first
    one whose forward pass does.
    """
    feature_rows = np.asarray(feature_rows, dtype=np.float64)
    if feature_rows.ndim == 1:
        feature_rows = feature_rows.reshape(1, -1)
    # Rows far outside the training range can overflow; the check below
    # reports that, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        normalized, _ = normalize(feature_rows, stats=model.feature_stats)
        try:
            outputs = network_predict(model.network, normalized.T).T
        except DivergenceError:
            row = _first_failing_row(model.network, normalized)
            raise DivergenceError(f"the prediction for data row {row} is not finite") from None
        predictions = denormalize(outputs, model.target_stats)
    bad = np.flatnonzero(~np.isfinite(predictions).all(axis=1))
    if bad.size:
        raise DivergenceError(f"the prediction for data row {bad[0] + 1} is not finite")
    return predictions


def _first_failing_row(network: NetworkState, normalized: np.ndarray) -> int:
    """The first row (counted from 1) whose forward pass raises DivergenceError.

    Samples pass through the network independently, so a prefix of the
    rows fails exactly when it holds a failing row; bisecting on the
    prefix length costs about two forward passes over all the rows.
    """
    passing, failing = 0, normalized.shape[0]
    while failing - passing > 1:
        mid = (passing + failing) // 2
        try:
            network_predict(network, normalized[:mid].T)
        except DivergenceError:
            failing = mid
        else:
            passing = mid
    return failing
