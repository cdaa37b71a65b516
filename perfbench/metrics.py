"""Every metric the benchmark reports, how it is computed, and what it should move.

End-to-end metrics come from untraced runs (``--trace 0``); per-layer
metrics from traced runs (``--trace 1``).  A per-layer metric is read
from one operation kind -- the default fit (``fit``), the
gradient-descent fit (``fit_gd``) or ``predict`` -- and reported as the
median over the traced operations of that kind.  ``_s`` is seconds busy
in that layer per operation; ``self_s`` is that time minus the time of
the layer's traced children.  A layer that does not run on a workload
reads 0.  Units and directions are in BENCHMARK.json only; ``run.py``
refuses to run when its metric names differ from the ones here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# End-to-end metrics, in the order they are reported, with what each
# measures.  Units, directions and bounds live in BENCHMARK.json only.
END_TO_END = {
    "setup_s": "cold start: a fresh interpreter imports regkit.cli and runs cli_main(['--help'])",
    "fit_s": "wall time of the default fit command (ols-fit --method analytic, or ann-train "
             "with adam): CSV read, normalize, solve or train, model write",
    "fit_gd_s": "wall time of the gradient-descent fit on the same data: ols-fit --method gd, "
                "or ann-train --optimizer gd",
    "predict_s": "wall time of predict: load the model, read the CSV, compute, write predictions",
    "peak_rss_mb": "peak resident memory of the process that ran the workload's commands",
}


@dataclass(frozen=True)
class OpView:
    """What one traced operation recorded."""

    busy: dict
    self_time: dict
    counts: dict
    epochs: int
    flops_per_epoch: int


@dataclass(frozen=True)
class PerLayer:
    """A per-layer metric; its unit and direction are in BENCHMARK.json."""

    name: str
    source: str  # operation kind the value is read from
    needs: tuple[str, ...]  # traced names; a missing one drops the metric
    value: Callable[[OpView], float] | None
    moves: str  # the end-to-end metric and workload this layer should move


def _busy(name):
    return lambda op: op.busy.get(name, 0.0)


def _self(name):
    return lambda op: op.self_time.get(name, 0.0)


def _count(key):
    return lambda op: float(op.counts.get(key, 0))


def _per(numerator, denominator, scale=1.0):
    def value(op):
        den = denominator(op)
        return scale * numerator(op) / den if den else 0.0
    return value


def _sum(*parts):
    return lambda op: sum(part(op) for part in parts)


def _layer(name, source, value, moves, needs=None):
    return PerLayer(name, source, needs or (name.rsplit(".", 1)[0],), value, moves)


_READ = "fit_s, fit_gd_s and predict_s on ols-wide; small share on ann-wide"
_WIDE_FIT = "fit_s on ols-wide"
_WIDE_GD = "fit_gd_s on ols-wide"
_ANN_WIDE = "fit_s on ann-wide"
_ANN_STEP = "fit_s on ann-wide, a small share (per-call overhead)"
_BACKWARD = ("network.output_delta", "network.hidden_delta", "network.layer_gradients")
_ITERATIONS = _sum(_count("ols.solve_gd.calls"), _count("ols.bb_learning_rate.calls"))
_FLOPS = lambda op: float(op.flops_per_epoch * op.epochs)  # noqa: E731

PER_LAYER = (
    _layer("data.read_columns.s", "fit", _busy("data.read_columns"), _READ),
    _layer("data.read_columns.calls", "fit", _count("data.read_columns.calls"), _READ),
    _layer("data.read_columns.cells", "fit", _count("data.read_columns.cells"), _READ),
    _layer("data.normalize.s", "fit", _busy("data.normalize"), _READ),
    _layer("data.split.s", "fit", _busy("data.split"), "fit_s on ann-wide; not run by OLS"),
    _layer("cli.fit.self_s", "fit", _self("cli.fit"), "fit_s on ols-wide"),
    _layer("cli.predict.self_s", "predict", _self("cli.predict"),
           "predict_s on ols-wide (the predictions CSV writer loop)"),
    _layer("ols.build_problem.s", "fit", _busy("ols.build_problem"), _WIDE_FIT),
    _layer("ols.solve_analytic.s", "fit", _busy("ols.solve_analytic"), _WIDE_FIT),
    _layer("ols.solve_analytic.self_s", "fit", _self("ols.solve_analytic"), _WIDE_FIT,
           needs=("ols.solve_analytic", "linalg.inverse")),
    _layer("linalg.inverse.s", "fit", _busy("linalg.inverse"), _WIDE_FIT),
    _layer("ols.solve_gd.s", "fit_gd", _busy("ols.solve_gd"), _WIDE_GD),
    _layer("ols.solve_gd.iterations", "fit_gd", _ITERATIONS, _WIDE_GD,
           needs=("ols.solve_gd", "ols.bb_learning_rate")),
    _layer("ols.solve_gd.iter_us", "fit_gd", _per(_busy("ols.solve_gd"), _ITERATIONS, 1e6),
           _WIDE_GD, needs=("ols.solve_gd", "ols.bb_learning_rate")),
    _layer("linalg.calls", "fit_gd", _count("linalg.calls"), _WIDE_GD,
           needs=("linalg.calls",)),
    _layer("network.train.s", "fit", _busy("network.train"), _ANN_WIDE),
    _layer("network.train.epoch_us", "fit",
           _per(_busy("network.train"), lambda op: op.epochs, 1e6), _ANN_WIDE),
    _layer("network.forward.s", "fit", _busy("network.forward"),
           "fit_s on ann-wide (the same kernels run in predict_s there)"),
    _layer("network.backward.s", "fit", _sum(*map(_busy, _BACKWARD)),
           _ANN_WIDE + " (output_delta + hidden_delta + layer_gradients)", needs=_BACKWARD),
    _layer("activations.apply_matrix.s", "fit", _busy("activations.apply_matrix"), _ANN_WIDE),
    _layer("activations.jacobian_product.s", "fit", _busy("activations.jacobian_product"),
           _ANN_WIDE),
    _layer("network.train.gflop_per_s_computed", "fit",
           _per(_FLOPS, _busy("network.train"), 1e-9),
           _ANN_WIDE + "; matmul flops computed from the layer shapes, not counted",
           needs=("network.train",)),
    _layer("optimizers.optimizer_step.s", "fit", _busy("optimizers.optimizer_step"),
           _ANN_STEP),
    _layer("optimizers.optimizer_step.calls", "fit",
           _count("optimizers.optimizer_step.calls"), _ANN_STEP),
    _layer("optimizers.optimizer_step.us_per_call", "fit",
           _per(_busy("optimizers.optimizer_step"), _count("optimizers.optimizer_step.calls"),
                1e6), _ANN_STEP),
    _layer("losses.column_losses.s", "fit", _busy("losses.column_losses"), _ANN_STEP),
    _layer("losses.loss_gradient.s", "fit", _busy("losses.loss_gradient"), _ANN_STEP),
    _layer("network.init_network.s", "fit", _busy("network.init_network"), _ANN_STEP),
    _layer("model_io.save_model.s", "fit", _busy("model_io.save_model"),
           "fit_s on every workload, small share"),
    _layer("model_io.save_model.bytes", "fit", _count("model_io.save_model.bytes"),
           "fit_s on every workload, small share"),
    _layer("model_io.load_model.s", "predict", _busy("model_io.load_model"),
           "predict_s on every workload"),
    _layer("model_io.predict_rows.s", "predict", _busy("model_io.predict_rows"),
           "predict_s on every workload"),
)

# Computed from the run's traced and untraced fit samples, not from spans.
OVERHEAD = PerLayer(
    "trace.overhead_ratio", "fit", (), None,
    "none: traced fit_s / untraced fit_s - 1 in the same run, the cost of the tracing itself",
)
