"""The golden output corpus: OLS and network CLI runs whose output bytes are pinned.

``tests/data/golden/`` holds three small input CSVs, the files every row of
``ROWS`` wrote when the table was made (``expected/``), and ``table.json``:
each row's argv, exit code and stdout, the SHA-256 of stdout and of every
output file, and the fingerprint of the environment that wrote them.
``tests/test_golden.py`` runs the rows again through ``cli_main``.

Regenerate the table (and the expected files) from the root of a checkout:

    PYTHONPATH=src python tests/golden.py

A change that moves any of these bytes on purpose regenerates the table
and names each changed file in CHANGES.md.  Regenerating prints each
output file whose SHA-256 changed, with the normwise relative change of
its values, and the rows that kept every byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np

from regkit.cli import cli_main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
TABLE = GOLDEN / "table.json"
EXPECTED = GOLDEN / "expected"
INPUTS = ("train.csv", "train_dup.csv", "train_pos.csv")

# Where the fingerprint differs, every output array must lie within this
# normwise relative distance of the stored one.  Perturbing the features of
# train.csv by 4e-16 relative moved the capped gd model by at most 3.6e-12
# and the converged one by at most 7.1e-9 (200 draws), and each network
# model by at most 2.8e-16 (adam; 200 draws), so the network rows share
# the bound.
REL_BOUND = 1e-6

_FIT = ["ols-fit", "--data", "train.csv", "--features", "x0,x1,x2,x3", "--targets", "y0,y1"]
ROWS = (
    ("ols-fit-analytic", _FIT + ["--out", "analytic.json"]),
    ("ols-fit-gd", _FIT + ["--method", "gd", "--out", "gd.json"]),
    ("ols-fit-gd-capped", _FIT + ["--method", "gd", "--max-iters", "50", "--out", "gd50.json"]),
    ("ols-fit-fallback-gd", ["ols-fit", "--data", "train_dup.csv",
                             "--features", "x0,x1,x2,x3,x0_copy", "--targets", "y0,y1",
                             "--fallback-gd", "--out", "fallback.json"]),
    ("predict-analytic", ["predict", "--model", "analytic.json", "--data", "train.csv",
                          "--out", "analytic_pred.csv"]),
    ("predict-gd", ["predict", "--model", "gd.json", "--data", "train.csv",
                    "--out", "gd_pred.csv"]),
    ("predict-gd-capped", ["predict", "--model", "gd50.json", "--data", "train.csv",
                           "--out", "gd50_pred.csv"]),
    ("predict-fallback-gd", ["predict", "--model", "fallback.json", "--data", "train_dup.csv",
                             "--out", "fallback_pred.csv"]),
)

# Seven tiny networks, 20 epochs each, that between them use every
# activation, loss, optimizer and initializer; msle and poisson train on
# train_pos.csv, whose targets are positive.  optimizer: (data, layers,
# loss, initializer)
_NETWORKS = {
    "gd": ("train.csv", "5:sigmoid,2:identity", "mse", "random_uniform"),
    "momentum": ("train.csv", "5:relu,2:identity", "mae", "random_normal"),
    "nesterov": ("train.csv", "5:leaky_relu,2:prelu", "huber", "xavier"),
    "adagrad": ("train.csv", "5:elu,2:identity", "log_cosh", "kaiming_uniform"),
    "rmsprop": ("train.csv", "5:softmax,2:identity", "mse", "kaiming_normal"),
    "adam": ("train_pos.csv", "5:swish,2:sigmoid", "msle", "lecun"),
    "nadam": ("train_pos.csv", "4:swish,3:sigmoid,2:identity", "poisson", "xavier"),
}
ROWS += tuple(
    (f"ann-train-{name}", ["ann-train", "--data", data, "--features", "x0,x1,x2,x3",
                           "--targets", "y0,y1", "--layers", layers, "--loss", loss,
                           "--optimizer", name, "--init", init, "--epochs", "20",
                           "--seed", "3", "--out", f"ann_{name}.json"])
    for name, (data, layers, loss, init) in _NETWORKS.items()
) + tuple(
    (f"predict-ann-{name}", ["predict", "--model", f"ann_{name}.json", "--data", data,
                             "--out", f"ann_{name}_pred.csv"])
    for name, (data, *_) in _NETWORKS.items()
)


def fingerprint() -> dict:
    """What decides the output bits besides regkit: numpy, its BLAS, the CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_rows(workdir: Path) -> list[dict]:
    """Copy the inputs into ``workdir``, run every row there in order (so
    that stdout names only relative paths), and return each row's exit
    code, stdout and output file names."""
    for name in INPUTS:
        shutil.copyfile(GOLDEN / name, workdir / name)
    results, cwd = [], os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in ROWS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(list(argv))
            results.append({"name": name, "argv": list(argv), "exit_code": code,
                            "stdout": out.getvalue(), "outputs": [argv[-1]]})
    finally:
        os.chdir(cwd)
    return results


def decode(name: str, data: bytes) -> tuple[object, np.ndarray]:
    """Split an output file into its layout and its float values: a model
    file's JSON tree with every float replaced by None, or a prediction
    CSV's header and row shape."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        values = []

        def skeleton(node):
            if isinstance(node, float):
                values.append(node)
                return None
            if isinstance(node, dict):
                return {key: skeleton(item) for key, item in node.items()}
            if isinstance(node, list):
                return [skeleton(item) for item in node]
            return node

        return skeleton(json.loads(text)), np.array(values)
    header, *rows = text.splitlines()
    values = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    return (header, values.shape), values.ravel()


def mask_numbers(text: str) -> str:
    """``text`` with every number replaced by ``#``."""
    return re.sub(r"[-+]?\d+(\.\d+)?([eE][-+]?\d+)?", "#", text)


def write_inputs() -> None:
    """Write the input CSVs: 40 rows of 4 correlated features (cond(X)
    about 13, so gd at the CLI defaults takes about 120 steps) and 2 noisy
    linear targets, a copy with the column x0 repeated, whose normal
    matrix is singular, and 40 rows of 4 other features with 2 positive
    targets (log-linear, for msle and poisson)."""
    rng = np.random.default_rng(1)
    mix = np.array([[1.0, 0.9, 0.0, 0.0], [0.0, 0.3, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.8], [0.0, 0.0, 0.0, 0.15]])
    features = rng.normal(size=(40, 4)) @ mix
    targets = features @ rng.normal(size=(4, 2)) + 0.1 * rng.normal(size=(40, 2))
    for name, header, columns in [
            ("train.csv", "x0,x1,x2,x3,y0,y1", np.hstack([features, targets])),
            ("train_dup.csv", "x0,x1,x2,x3,x0_copy,y0,y1",
             np.hstack([features, features[:, :1], targets]))]:
        lines = [header] + [",".join(f"{v:.6f}" for v in row) for row in columns]
        (GOLDEN / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    # The positive targets come from their own stream, so the two files
    # above keep their bytes.
    rng = np.random.default_rng(2)
    features = rng.normal(size=(40, 4))
    targets = np.exp(0.3 * features @ rng.normal(size=(4, 2)) + 0.1 * rng.normal(size=(40, 2)))
    lines = ["x0,x1,x2,x3,y0,y1"] + [",".join(f"{v:.6f}" for v in row)
                                     for row in np.hstack([features, targets])]
    (GOLDEN / "train_pos.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def moved(old_rows: list[dict], results: list[dict], workdir: Path) -> list[str]:
    """What a regeneration moves, as report lines: each output file whose
    SHA-256 differs from the replaced table's, with the normwise relative
    change of its decoded values against the stored file, then the rows
    whose stdout and output files all kept their bytes."""
    old_rows = {row["name"]: row for row in old_rows}
    lines, kept = [], []
    for row in results:
        old = old_rows.get(row["name"])
        if old is None:
            lines.append(f"{row['name']}: new row")
            continue
        same = sha256(row["stdout"].encode("utf-8")) == old["stdout_sha256"]
        if not same:
            lines.append(f"{row['name']}: stdout changed")
        for name in row["outputs"]:
            data = (workdir / name).read_bytes()
            if sha256(data) == old["outputs"].get(name):
                continue
            same = False
            layout, values = decode(name, data)
            old_layout, old_values = decode(name, (EXPECTED / name).read_bytes())
            if layout != old_layout:
                lines.append(f"{name}: layout changed")
            else:
                change = np.linalg.norm(values - old_values) / np.linalg.norm(old_values)
                lines.append(f"{name}: normwise relative change {change:.2g}")
        if same:
            kept.append(row["name"])
    return lines + [f"kept their bytes: {', '.join(kept) or 'none'}"]


def main() -> int:
    """Write the inputs if they are missing, then run every row, print what
    moved against the table it replaces, and write the expected files and
    the table."""
    if not all((GOLDEN / name).exists() for name in INPUTS):
        write_inputs()
    old_rows = json.loads(TABLE.read_text(encoding="utf-8"))["rows"] if TABLE.exists() else []
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        results = run_rows(workdir)
        for line in moved(old_rows, results, workdir):
            print(line)
        shutil.rmtree(EXPECTED, ignore_errors=True)
        EXPECTED.mkdir()
        for row in results:
            row["stdout_sha256"] = sha256(row["stdout"].encode("utf-8"))
            row["outputs"] = {
                name: sha256(shutil.copyfile(workdir / name, EXPECTED / name).read_bytes())
                for name in row["outputs"]}
    table = {"fingerprint": fingerprint(), "rel_bound": REL_BOUND, "rows": results}
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TABLE} ({len(results)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
