"""Benchmark workloads: seeded input generation and reference answers.

Each workload turns a seed into CSV files for the regkit CLI plus the
numbers the correctness checks compare against.  Nothing here imports
regkit; the OLS reference is a ``numpy.linalg.lstsq`` fit on the
benchmark's own z-scored copy of the data, read back from the very CSV
the program reads.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Rows of the small CSV used for the untimed warm-up operation, and the
# largest number of feature columns it selects.
WARM_ROWS = 200
WARM_FEATURES = 8
# Share of rows ann-train holds out for validation (the CLI's default).
VAL_FRACTION = 0.2


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the CLI commands run on them every round.

    A round is: the default fit (``fit``), a prediction with its model
    (``predict``), the gradient-descent fit (``fit_gd``), then a second
    prediction.  Splitting the predictions times them at two moments of
    each round, so that a slow spell of the host moves fewer of them.
    Why each workload was chosen is in BENCHMARK.json.
    """

    name: str
    kind: str  # "ols" | "ann"
    rows: int
    features: int
    targets: int
    draw: Callable[[np.random.Generator, int, int, int], tuple[np.ndarray, np.ndarray]]
    # OLS: max error of the analytic and the gd model against lstsq, in
    # units of the target's std, and the BB iteration cap every gd fit
    # must reach.
    fit_tol: float = 0.0
    gd_tol: float = 0.0
    gd_iterations: int = 0
    # ANN settings; every training run must reach the epoch cap.
    layers: str = ""
    epochs: int = 0
    # ANN: largest RMS error on the training rows, in units of the target's
    # std, after the adam fit and after the gd fit.
    train_rms: float = 0.0
    train_rms_gd: float = 0.0

    @property
    def feature_names(self) -> list[str]:
        return [f"x{i}" for i in range(self.features)]

    @property
    def target_names(self) -> list[str]:
        return [f"y{i}" for i in range(self.targets)]

    def fit_argv(self, data: str, out: str, seed: int, gd: bool, warm: bool = False,
                 epochs: int | None = None) -> list[str]:
        """The fit command; ``warm`` selects the warm-up file's columns, ``epochs`` a lower cap."""
        features = self.feature_names[:WARM_FEATURES] if warm else self.feature_names
        common = ["--data", data, "--features", ",".join(features),
                  "--targets", ",".join(self.target_names), "--out", out]
        if self.kind == "ols":
            argv = ["ols-fit", *common, "--method", "gd" if gd else "analytic"]
            if gd and self.gd_iterations:
                argv += ["--max-iters", str(self.gd_iterations)]
            return argv
        return ["ann-train", *common, "--layers", self.layers,
                "--optimizer", "gd" if gd else "adam", "--init", "xavier",
                "--epochs", str(epochs or (2 if warm else self.epochs)), "--epsilon", "1e-30",
                "--val-fraction", str(VAL_FRACTION), "--seed", str(seed)]

    def matmul_flops_per_epoch(self) -> int:
        """Multiply-add count (x2) of one training epoch, from the layer shapes.

        Forward runs over training and validation columns; the backward
        pass (delta propagation and weight gradients) over training
        columns only.
        """
        val = min(max(int(np.floor(VAL_FRACTION * self.rows + 0.5)), 1), self.rows - 1)
        train = self.rows - val
        sizes = [self.features] + [int(part.split(":")[0]) for part in self.layers.split(",")]
        flops = 0
        for layer, (q_in, q_out) in enumerate(zip(sizes, sizes[1:])):
            flops += 2 * q_in * q_out * (train + val)  # W Z + b
            flops += 2 * q_in * q_out * train  # Delta Z_prev^T
            if layer > 0:
                flops += 2 * q_in * q_out * train  # W^T Delta
        return flops


def _draw_factor(rng, rows, n, m):
    # 60 common factors plus independent noise of std 0.32: after
    # z-scoring, cond(X^T X) is about 3e5 for every seed.
    loadings = rng.normal(size=(60, n))
    x = rng.normal(size=(rows, 60)) @ loadings + 0.32 * rng.normal(size=(rows, n))
    y = x @ (rng.normal(size=(n, m)) / np.sqrt(n)) + 0.1 * rng.normal(size=(rows, m))
    return x, y


def _draw_ridge(rng, rows, n, m):
    x = rng.normal(size=(rows, n))
    a, b = rng.normal(size=(2, n, m)) / np.sqrt(n)
    y = np.sin(x @ a) + 0.5 * np.tanh(x @ b) + 0.05 * rng.normal(size=(rows, m))
    return x, y


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ols-wide", "ols", 900, 600, 4, _draw_factor,
            fit_tol=1e-6, gd_tol=5e-2, gd_iterations=3000,
        ),
        # adam reaches 0.30-0.53 in 10 epochs (40 seeds), against 0.88-0.95
        # after one.  Ten plain gd steps barely move (0.92-0.99, from
        # 0.96-1.02), so the gd fit only has to stay below 1.05 and beat
        # checks.TRAINED_RATIO.
        Workload(
            "ann-wide", "ann", 5000, 32, 1, _draw_ridge,
            layers="256:swish,256:swish,1:identity", epochs=10,
            train_rms=0.65, train_rms_gd=1.05,
        ),
    )
}


def _write_csv(path: Path, values: np.ndarray, names: list[str]) -> None:
    np.savetxt(path, values, fmt="%.9g", delimiter=",", header=",".join(names), comments="")


def _file_record(path: Path, shape) -> dict:
    return {"path": path.name, "shape": list(shape),
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def generate(workload: Workload, seed: int, work: Path) -> dict:
    """Write the workload's CSVs for ``seed`` into ``work`` and compute references.

    Returns the input records (name, shape, SHA-256).  The arrays the
    checks need are saved to ``work / "reference.npz"``.
    """
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    x, y = workload.draw(rng, 2 * workload.rows, workload.features, workload.targets)
    rows = workload.rows
    features, targets = workload.feature_names, workload.target_names
    paths = {"train": work / "train.csv", "predict": work / "predict.csv", "warm": work / "warm.csv"}
    _write_csv(paths["train"], np.hstack([x[:rows], y[:rows]]), features + targets)
    _write_csv(paths["predict"], x[rows:], features)
    warm_cols = min(workload.features, WARM_FEATURES)
    _write_csv(paths["warm"], np.hstack([x[:WARM_ROWS, :warm_cols], y[:WARM_ROWS]]),
               features[:warm_cols] + targets)

    # The references use the values as written, parsed by numpy's reader.
    train = np.loadtxt(paths["train"], delimiter=",", skiprows=1, ndmin=2)
    predict_x = np.loadtxt(paths["predict"], delimiter=",", skiprows=1, ndmin=2)
    train_x, train_y = train[:, : workload.features], train[:, workload.features:]
    target_std = train_y.std(axis=0)
    reference = {"predict_x": predict_x, "target_std": target_std}
    if workload.kind == "ann":
        reference.update(train_x=train_x, train_y=train_y)
    else:
        mean_x, std_x = train_x.mean(axis=0), train_x.std(axis=0)
        mean_y = train_y.mean(axis=0)
        design = np.hstack([(train_x - mean_x) / std_x, np.ones((rows, 1))])
        coef, *_ = np.linalg.lstsq(design, (train_y - mean_y) / target_std, rcond=None)
        z = np.hstack([(predict_x - mean_x) / std_x, np.ones((rows, 1))])
        reference["predictions"] = (z @ coef) * target_std + mean_y
    np.savez(work / "reference.npz", **reference)
    return {
        "train": _file_record(paths["train"], train.shape),
        "predict": _file_record(paths["predict"], predict_x.shape),
        "warm": _file_record(paths["warm"], (WARM_ROWS, warm_cols + workload.targets)),
    }
