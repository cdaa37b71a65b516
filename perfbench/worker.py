"""Run one workload's CLI commands in this process and time them.

Started by ``run.py`` as ``python3 perfbench/worker.py SPEC.json``, a
fresh process per workload so that its peak memory is its own.  It
imports regkit from the checkout's ``src``, runs one untimed warm-up
fit (and, for ANN workloads, the one-epoch fits that the training check
compares with), then whole rounds of commands through ``regkit.cli.cli_main``
until the time is used up, checks every output, and writes a result
JSON next to the spec.  With tracing on, untraced and traced rounds
alternate: the untraced ones give the tracing overhead.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from metrics import OVERHEAD, PER_LAYER, OpView
from tracing import Tracer
from workloads import WORKLOADS


def blas_info() -> dict:
    """OpenBLAS version from numpy's build record and its live thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


class Bench:
    def __init__(self, workload, seed: int, work: Path, cli_main):
        self.w = workload
        self.cli_main = cli_main
        self.files = {name: str(work / f"{name}.csv") for name in ("train", "predict", "warm")}
        self.models = {kind: str(work / f"model-{kind}.json") for kind in ("fit", "fit_gd", "warm")}
        self.predictions = str(work / "predictions.csv")
        ref = np.load(work / "reference.npz")
        self.predict_x = ref["predict_x"]
        self.target_std = ref["target_std"]
        self.ref_predictions = ref["predictions"] if workload.kind == "ols" else None
        self.train_x = ref["train_x"] if workload.kind == "ann" else None
        self.train_y = ref["train_y"] if workload.kind == "ann" else None
        predict = ("predict", ["predict", "--model", self.models["fit"], "--data",
                               self.files["predict"], "--out", self.predictions])
        self.ops = [
            ("fit", workload.fit_argv(self.files["train"], self.models["fit"], seed, gd=False)),
            predict,
            ("fit_gd", workload.fit_argv(self.files["train"], self.models["fit_gd"], seed, gd=True)),
            predict,
        ]
        self.warm_argv = workload.fit_argv(self.files["warm"], self.models["warm"], seed,
                                           gd=False, warm=True)
        # ANN: both fits capped at one epoch; the trained models must beat them.
        self.one_epoch_argv = {
            kind: workload.fit_argv(self.files["train"], self.models["warm"], seed, gd=gd, epochs=1)
            for kind, gd in (("fit", False), ("fit_gd", True))
        } if workload.kind == "ann" else {}
        self.one_epoch_rms: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.samples = defaultdict(list)  # (kind, traced) -> seconds
        self.records: list[dict] = []  # traced operations
        self.digests: dict[str, str] = {}

    def _call(self, argv) -> tuple[float, str, str | None]:
        """Run one command: its wall time, its stdout, and why it failed, if it did."""
        out = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out):
                code = self.cli_main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a failed benchmark
            elapsed = perf_counter() - start
            return elapsed, out.getvalue(), "raised " + traceback.format_exception_only(exc)[-1].strip()
        elapsed = perf_counter() - start
        return elapsed, out.getvalue(), None if code == 0 else f"exit code {code}"

    def warm_up(self) -> None:
        """Untimed: one small fit, and the one-epoch ANN fits the checks compare with."""
        self.attempted += 1
        _, _, error = self._call(self.warm_argv)
        if error:
            self.failures.append(f"warm-up: {error}")
        for kind, argv in self.one_epoch_argv.items():
            self.attempted += 1
            _, _, error = self._call(argv)
            if error:
                self.failures.append(f"one-epoch {kind}: {error}")
            else:
                self.one_epoch_rms[kind] = self.training_rms(self.models["warm"])

    def training_rms(self, model: str) -> float:
        values = checks.model_predictions(model, self.train_x)
        return checks.rms_error(values, self.train_y, self.target_std)

    def round(self, tracer: Tracer | None) -> None:
        for kind, argv in self.ops:
            self.attempted += 1
            span = "cli.predict" if kind == "predict" else "cli.fit"
            with tracer.operation(span) if tracer else nullcontext({}) as record:
                elapsed, stdout, error = self._call(argv)
            if not error:
                try:
                    error = self.check(kind, stdout)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    error = f"output unreadable: {exc!r}"
            if error:
                self.failures.append(f"{kind}: {error}")
                continue
            self.samples[kind, tracer is not None].append(elapsed)
            if tracer:
                record.update(kind=kind, epochs=checks.count_in(stdout, checks.EPOCHS) or 0)
                self.records.append(record)

    def check(self, kind: str, stdout: str) -> str | None:
        w = self.w
        if kind == "predict":
            values, error = checks.read_predictions(self.predictions, w.target_names)
            if error:
                return error
            if w.kind == "ols":
                return checks.compare(values, self.ref_predictions, self.target_std, w.fit_tol,
                                      "predictions vs lstsq")
            expected = checks.model_predictions(self.models["fit"], self.predict_x)
            return checks.compare(values, expected, self.target_std, checks.ANN_PREDICT_TOL,
                                  "predictions vs numpy forward pass")
        path = self.models[kind]
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if self.digests.setdefault(kind, digest) != digest:
            return "model file differs from the first one this run wrote: fit is not deterministic"
        if w.kind == "ann":
            epochs = checks.count_in(stdout, checks.EPOCHS)
            if epochs != w.epochs:
                return f"trained {epochs} epochs, expected the cap of {w.epochs}"
            rms = self.training_rms(path)
            tol = w.train_rms if kind == "fit" else w.train_rms_gd
            if not rms <= tol:
                return f"training-set RMS error {rms:.3g} target std exceeds {tol:g}"
            one_epoch = self.one_epoch_rms.get(kind)
            if one_epoch is not None and not rms <= checks.TRAINED_RATIO * one_epoch:
                return (f"training-set RMS error {rms:.4g} target std is not below "
                        f"{checks.TRAINED_RATIO:g} x the one-epoch fit's {one_epoch:.4g}")
            return None
        if kind == "fit_gd" and w.gd_iterations:
            iterations = checks.count_in(stdout, checks.GD_ITERATIONS)
            if iterations != w.gd_iterations:
                return f"gd ran {iterations} iterations, expected the cap of {w.gd_iterations}"
        tol = w.fit_tol if kind == "fit" else w.gd_tol
        return checks.compare(checks.model_predictions(path, self.predict_x),
                              self.ref_predictions, self.target_std, tol, "model vs lstsq")


def layer_metrics(bench: Bench, tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metric values, and each span's median share of its operation's time."""
    flops = bench.w.matmul_flops_per_epoch() if bench.w.kind == "ann" else 0
    views = defaultdict(list)
    for record in bench.records:
        busy, self_time = tracer.summarize(record)
        views[record["kind"]].append(
            OpView(busy, self_time, record["counts"], record["epochs"], flops))
    values = {}
    for metric in PER_LAYER:
        if tracer.missing.intersection(metric.needs) or not views[metric.source]:
            continue
        values[metric.name] = statistics.median(metric.value(op) for op in views[metric.source])
    traced, untraced = bench.samples["fit", True], bench.samples["fit", False]
    if traced and untraced:
        values[OVERHEAD.name] = statistics.median(traced) / statistics.median(untraced) - 1.0
    shares = {}
    for kind, ops in views.items():
        total = "cli.predict" if kind == "predict" else "cli.fit"
        names = sorted({name for op in ops for name in op.busy} - {total})
        shares[kind] = {name: statistics.median(op.busy.get(name, 0.0) / op.busy[total]
                                                for op in ops) for name in names}
    return values, shares


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import regkit
    from regkit.cli import cli_main

    if Path(regkit.__file__).resolve().parent != (src / "regkit").resolve():
        print(f"worker: imported regkit from {regkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = Path(spec["work"])
    bench = Bench(WORKLOADS[spec["workload"]], spec["seed"], work, cli_main)
    tracer = Tracer() if spec["trace"] else None

    bench.warm_up()
    start = perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            bench.round(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        elapsed = perf_counter() - start
        # Stop before a round that would overrun; a traced run needs both kinds.
        if elapsed + elapsed / rounds > spec["seconds"] and (tracer is None or rounds >= 2):
            break

    result = {
        "rounds": rounds,
        "measured_s": perf_counter() - start,
        "attempted": bench.attempted,
        "failures": bench.failures,
        "samples": {f"{kind}_s": times for (kind, traced), times in bench.samples.items()
                    if not traced},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if tracer is not None:
        result["layers"], result["shares"] = layer_metrics(bench, tracer)
        result["missing"] = sorted(tracer.missing)
        tracer.write(work / "spans.jsonl")
    Path(spec["result"]).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
