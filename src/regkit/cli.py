"""Command-line front end.

Subcommands:

* ``ols-fit``   fit a linear model from a CSV file (analytic or iterative)
* ``ann-train`` train a dense network on a CSV file
* ``predict``   apply a saved model to new rows
* ``gradcheck`` compare backprop gradients against finite differences

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

from .activations import parse_activation
from .data import ColumnSchema, NormalizationStats, load_csv, normalize, read_columns, split
from .errors import (
    DataError,
    DegenerateStepError,
    DivergenceError,
    DomainError,
    ModelFormatError,
    ShapeError,
    SingularMatrixError,
    UsageError,
)
from .initializers import parse_initializer
from .losses import parse_loss
from .model_io import load_model, predict_rows, replacing_writer, save_model
from .network import LayerSpec, NetworkConfig, gradient_check, init_network, train
from .ols import GdConfig, build_problem, solve_analytic, solve_gd
from .optimizers import parse_optimizer

GRADCHECK_LIMIT = 1e-4


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as an exception instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def non_negative_int(text: str) -> int:
    """The argparse type of ``--seed``; argparse names it in its errors."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {seed}")
    return seed


def positive_int(text: str) -> int:
    """The argparse type of ``--max-iters`` and ``--epochs``: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """The argparse type of ``--epsilon``: a finite number > 0."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text}")
    return value


def open_fraction(text: str) -> float:
    """The argparse type of ``--val-fraction``: a finite number strictly inside (0, 1)."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a number strictly between 0 and 1, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="regkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ols = sub.add_parser("ols-fit", help="fit a linear least-squares model")
    ols.add_argument("--data", required=True, help="training CSV file")
    ols.add_argument("--features", required=True, help="comma-separated feature columns")
    ols.add_argument("--targets", required=True, help="comma-separated target columns")
    ols.add_argument("--method", choices=("analytic", "gd"), default="analytic")
    ols.add_argument("--epsilon", type=positive_float, default=1e-10,
                     help="iterative stopping tolerance (gd method)")
    ols.add_argument("--max-iters", type=positive_int, default=10000,
                     help="iteration cap (gd method)")
    ols.add_argument("--fallback-gd", action="store_true",
                     help="fall back to gd when the normal matrix is singular")
    ols.add_argument("--out", required=True, help="model file to write")
    ols.set_defaults(handler=_run_ols_fit)

    ann = sub.add_parser("ann-train", help="train a dense network")
    ann.add_argument("--data", required=True, help="training CSV file")
    ann.add_argument("--features", required=True, help="comma-separated feature columns")
    ann.add_argument("--targets", required=True, help="comma-separated target columns")
    ann.add_argument("--layers", required=True,
                     help='layer list like "4:swish,1:identity" (output units must '
                          "match the target count)")
    ann.add_argument("--loss", default="mse")
    ann.add_argument("--optimizer", default="adam")
    ann.add_argument("--init", default="xavier")
    ann.add_argument("--epochs", type=positive_int, default=1000, help="maximum epochs")
    ann.add_argument("--epsilon", type=positive_float, default=1e-8,
                     help="validation-loss gap that stops training")
    ann.add_argument("--val-fraction", type=open_fraction, default=0.2)
    ann.add_argument("--seed", type=non_negative_int, default=0)
    ann.add_argument("--out", required=True, help="model file to write")
    ann.set_defaults(handler=_run_ann_train)

    pred = sub.add_parser("predict", help="apply a saved model")
    pred.add_argument("--model", required=True, help="model file")
    pred.add_argument("--data", required=True, help="CSV file with feature columns")
    pred.add_argument("--out", required=True, help="CSV file for predictions")
    pred.set_defaults(handler=_run_predict)

    grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    grad.add_argument("--seed", type=non_negative_int, default=0)
    grad.set_defaults(handler=_run_gradcheck)
    return parser


def _schema(args) -> ColumnSchema:
    features = [name.strip() for name in args.features.split(",") if name.strip()]
    targets = [name.strip() for name in args.targets.split(",") if name.strip()]
    try:
        return ColumnSchema(features, targets)
    except DataError as exc:
        raise UsageError(str(exc)) from None


def _parse_layers(text: str) -> list[LayerSpec]:
    specs = []
    for part in text.split(","):
        part = part.strip()
        pieces = part.split(":")
        if len(pieces) != 2:
            raise UsageError(f"bad layer {part!r}: expected units:activation")
        units_text, act_name = pieces
        try:
            units = int(units_text)
            specs.append(LayerSpec(units, parse_activation(act_name)))
        except ValueError as exc:
            raise UsageError(f"bad layer {part!r}: {exc}") from None
    if not specs:
        raise UsageError("layer list is empty")
    return specs


def _report(*lines: str) -> None:
    """Print progress lines; a closed stdout loses them but fails nothing.

    Follows the "Note on SIGPIPE" in the ``signal`` docs: on a broken pipe,
    stdout is pointed at ``os.devnull`` so the exit-time flush cannot fail.
    """
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _run_ols_fit(args) -> int:
    schema = _schema(args)
    gd_config = GdConfig(args.epsilon, args.max_iters)
    features, targets = load_csv(args.data, schema)
    features, fstats = normalize(features, columns=schema.feature_columns)
    targets, tstats = normalize(targets, columns=schema.target_columns)
    problem = build_problem(features, targets)
    if args.method == "analytic":
        try:
            model = solve_analytic(problem)
            summary = f"fitted analytically on {problem.p} samples"
        except SingularMatrixError as exc:
            if not args.fallback_gd:
                raise
            print(f"analytic solve failed ({exc}); falling back to gd", file=sys.stderr)
            model, trace = solve_gd(problem, gd_config)
            summary = (f"gd fallback: {trace.iterations} iterations, "
                       f"converged={trace.converged}, "
                       f"relative gradient {trace.relative_gradient:.3e}")
    else:
        model, trace = solve_gd(problem, gd_config)
        summary = (f"gd: {trace.iterations} iterations, converged={trace.converged}, "
                   f"last step norm {trace.final_step_norm:.3e}, "
                   f"relative gradient {trace.relative_gradient:.3e}")
    save_model(args.out, model, fstats, tstats)
    _report(summary, f"wrote {args.out}")
    return 0


def _run_ann_train(args) -> int:
    schema = _schema(args)
    features, targets = load_csv(args.data, schema)
    features, fstats = normalize(features, columns=schema.feature_columns)
    layer_specs = _parse_layers(args.layers)
    if layer_specs[-1].units != len(schema.target_columns):
        raise UsageError(
            f"output layer has {layer_specs[-1].units} units but there are "
            f"{len(schema.target_columns)} target columns"
        )
    try:
        config = NetworkConfig(
            layer_specs=tuple(layer_specs),
            loss=parse_loss(args.loss),
            optimizer=parse_optimizer(args.optimizer),
            initializer=parse_initializer(args.init),
            max_epochs=args.epochs,
            tolerance=args.epsilon,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if config.loss.name in ("msle", "poisson"):
        # Z-scores would push the targets out of these losses' domains (> -1
        # and > 0).  With unit stats, predict's denormalization is the identity.
        m = len(schema.target_columns)
        tstats = NormalizationStats(schema.target_columns, [0.0] * m, [1.0] * m)
    else:
        targets, tstats = normalize(targets, columns=schema.target_columns)
    (train_f, train_t), (val_f, val_t) = split(features, targets, args.val_fraction, args.seed)
    state = init_network(config, features.shape[1])
    state, report = train(state, train_f.T, train_t.T, val_f.T, val_t.T, config)
    save_model(args.out, state, fstats, tstats, config=config)
    _report(
        f"trained {report.epochs_run} epochs ({report.stop_reason}); "
        f"final validation loss {report.epoch_losses[-1]:.6g}",
        f"wrote {args.out}",
    )
    return 0


def _run_predict(args) -> int:
    model = load_model(args.model)
    rows = read_columns(args.data, model.feature_stats.columns)
    predictions = predict_rows(model, rows)
    _write_predictions(args.out, model.target_stats.columns, predictions)
    _report(f"wrote {predictions.shape[0]} predictions to {args.out}")
    return 0


def _write_predictions(path, header, predictions) -> None:
    """Write ``header`` and one CSV row per prediction row, each value as
    its shortest repr, in the bytes ``csv.writer`` writes."""
    with replacing_writer(path, newline="") as handle:
        csv.writer(handle).writerow(header)
        # A float's repr never needs quoting, so one join makes the rows.
        handle.write("".join(",".join(map(repr, row)) + "\r\n"
                             for row in predictions.tolist()))


def _run_gradcheck(args) -> int:
    worst = gradient_check(args.seed)
    _report(f"max relative error: {worst:.3e} (limit {GRADCHECK_LIMIT:.0e})")
    return 0 if worst <= GRADCHECK_LIMIT else 3


def cli_main(argv=None) -> int:
    """Run the CLI on ``argv`` and return a process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DomainError, ModelFormatError, ShapeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrixError, DivergenceError, DegenerateStepError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # last resort: the data is too large for this process
        detail = f": {exc}" if str(exc) else ""
        print(f"data error: out of memory{detail}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
