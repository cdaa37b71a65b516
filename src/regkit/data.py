"""CSV ingestion, z-score normalization, and train/validation splitting.

CSV files must be UTF-8 with a header row and '.' decimal separators.
Loaded blocks keep one sample per row; the network's column-per-sample
layout is a transpose away.

``read_columns`` reads a file in one ``np.loadtxt`` pass.  Whatever that
pass cannot vouch for goes to a line-by-line reader that parses each cell
with ``float()``, so accepted files, values and error messages are that
reader's.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ColumnSchema:
    """Which header names are features and which are targets."""

    feature_columns: tuple[str, ...]
    target_columns: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        object.__setattr__(self, "target_columns", tuple(self.target_columns))
        if not self.feature_columns or not self.target_columns:
            raise DataError("feature and target column lists must be non-empty")
        overlap = set(self.feature_columns) & set(self.target_columns)
        if overlap:
            raise DataError(f"columns cannot be both feature and target: {sorted(overlap)}")
        for names in (self.feature_columns, self.target_columns):
            if len(set(names)) != len(names):
                raise DataError(f"duplicate column names in {names}")


@dataclass(frozen=True)
class NormalizationStats:
    """Per-column mean and (population) standard deviation."""

    columns: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if not (len(self.columns) == self.mean.shape[0] == self.std.shape[0]):
            raise ValueError("columns, mean, and std must have equal lengths")
        if np.any(self.std <= 0.0):
            raise ValueError("standard deviations must be positive")


def read_columns(path, columns: Sequence[str]) -> np.ndarray:
    """Read the named columns of a CSV file into a (rows, len(columns)) array.

    Rows come back in file order.  Errors carry file line numbers (the
    header is line 1) and column names.  One ``np.loadtxt`` pass reads
    the file.  When it fails, warns (as it does on a file with no rows) or
    finds a non-finite value, or when the file holds a quote character
    (which splits fields differently for the csv module), the
    line-by-line reader handles the file instead.
    """
    columns = list(columns)
    # Any error here, the header's included, is reported by the slow reader.
    # A quote lets the csv module keep commas or line breaks inside a field,
    # which loadtxt would split on.
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            positions = _column_positions(path, reader, columns)
            quoted = reader.line_num != 1 or any(
                '"' in chunk for chunk in iter(partial(handle.read, 1 << 20), "")
            )
        if not quoted:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt(
                    path, delimiter=",", skiprows=1, comments=None,
                    usecols=positions, ndmin=2, encoding="utf-8",
                )
            if np.isfinite(values).all():
                return values
    except (ValueError, Warning, csv.Error):
        pass
    return _read_columns_slow(path, columns)


def _column_positions(path, reader, columns: list[str]) -> list[int]:
    """Header positions of ``columns``, read from the first row of ``reader``."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    header = [name.strip() for name in header]
    missing = [name for name in columns if name not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}; header has {header}")
    return [header.index(name) for name in columns]


def _read_columns_slow(path, columns: list[str]) -> np.ndarray:
    """``read_columns`` one cell at a time with ``float()``; reports every error."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            rows = _parse_rows(path, reader, columns)
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
            ) from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def _parse_rows(path, reader, columns: list[str]) -> list[list[float]]:
    """The header's column positions, then each data row's values of ``columns``."""
    positions = _column_positions(path, reader, columns)
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        values = []
        for name, pos in zip(columns, positions):
            if pos >= len(row):
                raise DataError(f"{path}: row {line_no} has no column {name!r}")
            cell = row[pos].strip()
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {line_no}, column {name!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: row {line_no}, column {name!r}: "
                    f"{cell!r} is not a finite number"
                )
            values.append(value)
        rows.append(values)
    return rows


def load_csv(path, schema: ColumnSchema) -> tuple[np.ndarray, np.ndarray]:
    """Feature and target blocks (one sample per row) in file order."""
    try:
        values = read_columns(path, schema.feature_columns + schema.target_columns)
    except DataError:
        # Report the error a features-then-targets read finds first.
        _read_columns_slow(path, list(schema.feature_columns))
        _read_columns_slow(path, list(schema.target_columns))
        raise
    split_at = len(schema.feature_columns)
    return values[:, :split_at], values[:, split_at:]


def normalize(
    values,
    stats: NormalizationStats | None = None,
    columns: Sequence[str] | None = None,
) -> tuple[np.ndarray, NormalizationStats]:
    """Z-score each column; pass ``stats`` to reuse fitted parameters.

    Fitting uses the population standard deviation and rejects constant
    columns.  ``columns`` names the columns in fresh stats (and error
    messages); it defaults to col0, col1, ...
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D block, got shape {values.shape}")
    if stats is None:
        names = tuple(columns) if columns else tuple(f"col{i}" for i in range(values.shape[1]))
        if len(names) != values.shape[1]:
            raise ValueError(f"{len(names)} names for {values.shape[1]} columns")
        with np.errstate(over="ignore", invalid="ignore"):
            mean = values.mean(axis=0)
            std = values.std(axis=0)
        flat = np.nonzero(std == 0.0)[0]
        if flat.size:
            raise DataError(
                f"column {names[flat[0]]!r} is constant and cannot be normalized"
            )
        # A finite std also bounds every |value - mean|, so the z-scores are finite.
        huge = np.nonzero(~(np.isfinite(mean) & np.isfinite(std)))[0]
        if huge.size:
            raise DataError(
                f"column {names[huge[0]]!r} is too large to normalize: "
                "its mean or standard deviation overflows"
            )
        stats = NormalizationStats(names, mean, std)
    elif values.shape[1] != stats.mean.shape[0]:
        raise ValueError(
            f"block has {values.shape[1]} columns, stats describe {stats.mean.shape[0]}"
        )
    return (values - stats.mean) / stats.std, stats


def denormalize(values, stats: NormalizationStats) -> np.ndarray:
    """Invert ``normalize``: map z-scores back to original units."""
    values = np.asarray(values, dtype=np.float64)
    return values * stats.std + stats.mean


def split(
    features, targets, val_fraction: float, seed: int
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Seeded shuffle, then cut off the validation rows.

    The validation size is ``round(val_fraction * total)`` (half away
    from zero), clamped so both parts keep at least one row.  Returns
    ``((train_features, train_targets), (val_features, val_targets))``.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    total = features.shape[0]
    if targets.shape[0] != total:
        raise DataError(f"{total} feature rows but {targets.shape[0]} target rows")
    if not 0.0 < val_fraction < 1.0:
        raise DataError(f"val_fraction must be in (0, 1), got {val_fraction!r}")
    if total < 2:
        raise DataError("need at least 2 rows to split off a validation set")
    s = int(math.floor(val_fraction * total + 0.5))
    s = min(max(s, 1), total - 1)
    order = np.random.default_rng(seed).permutation(total)
    train_idx, val_idx = order[: total - s], order[total - s:]
    return (features[train_idx], targets[train_idx]), (features[val_idx], targets[val_idx])
