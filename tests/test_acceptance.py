"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from oracles import generic_bb_rate, gradient_errors, numeric_network_gradients
from regkit.activations import ActivationKind, apply_matrix
from regkit.cli import cli_main
from regkit.data import normalize
from regkit.initializers import InitializerKind, init_weights, make_rng
from regkit.losses import LossKind, loss, loss_gradient
from regkit.network import (
    STOP_MAX_EPOCHS,
    STOP_TOLERANCE,
    LayerSpec,
    NetworkConfig,
    _backward_pass,
    batch_validation_loss,
    forward,
    init_network,
    train,
)
from regkit.ols import GdConfig, bb_learning_rate, build_problem, solve_analytic, solve_gd
from regkit.optimizers import OptimizerKind


def _report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"{name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} failed{suffix}"


def _linear_problem(rng, m=2, n=3, p=50, noise=0.0):
    b_true = rng.uniform(-2.0, 2.0, (m, n + 1))
    features = rng.uniform(-1.0, 1.0, (p, n))
    design = np.hstack([features, np.ones((p, 1))])
    targets = (b_true @ design.T).T
    if noise:
        targets = targets + rng.normal(0.0, noise, targets.shape)
    return build_problem(features, targets), b_true


def test_a1_analytic_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    problem, b_true = _linear_problem(rng)
    model = solve_analytic(problem)
    err = float(np.linalg.norm(model.b - b_true))
    elapsed = time.perf_counter() - start
    _report(
        "A1 analytic-ols-exactness",
        err <= 1e-8 and elapsed < 1.0,
        f"recovery error {err:.2e}, {elapsed:.2f}s",
    )


def test_a2_normal_equation_residual():
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(20):
        problem, _ = _linear_problem(rng, noise=0.5)
        model = solve_analytic(problem)
        z = problem.x_design.T @ problem.x_design
        k = problem.y_targets @ problem.x_design
        residual = float(np.linalg.norm(k - model.b @ z))
        worst = max(worst, residual / max(1.0, float(np.linalg.norm(k))))
    elapsed = time.perf_counter() - start
    _report(
        "A2 normal-equation-residual",
        worst <= 1e-8 and elapsed < 1.0,
        f"worst scaled residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_a3_gd_agrees_with_analytic():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    problem, _ = _linear_problem(rng, noise=0.1)
    analytic = solve_analytic(problem)
    model, trace = solve_gd(problem, GdConfig(1e-9, 10000))  # size-derived guesses
    err = float(np.linalg.norm(model.b - analytic.b))
    elapsed = time.perf_counter() - start
    _report(
        "A3 gd-analytic-agreement",
        err <= 1e-5 and trace.iterations <= 10000 and elapsed < 5.0,
        f"gap {err:.2e} after {trace.iterations} iterations, {elapsed:.2f}s",
    )


def test_a4_bb_rate_cross_form_identity():
    # 100-iteration run on a poorly conditioned problem; the generic
    # difference-quotient form is evaluated in exact arithmetic.
    rng = np.random.default_rng(1)
    n, p = 12, 120
    b_true = rng.uniform(-2.0, 2.0, (2, n + 1))
    features = rng.uniform(-1.0, 1.0, (p, n)) * (0.7 ** np.arange(n))
    design = np.hstack([features, np.ones((p, 1))])
    targets = (b_true @ design.T).T + rng.normal(0.0, 0.1, (p, 2))
    problem = build_problem(features, targets)
    z = problem.x_design.T @ problem.x_design
    k = problem.y_targets @ problem.x_design

    iterates = []
    _, trace = solve_gd(problem, GdConfig(1e-300, 100), callback=iterates.append)
    worst = 0.0
    compared = 0
    for t in range(1, len(iterates)):
        generic = generic_bb_rate(iterates[t], iterates[t - 1], z, k)
        if generic is None:
            continue
        compact = bb_learning_rate(iterates[t] - iterates[t - 1], z)
        worst = max(worst, abs(generic - compact) / compact)
        compared += 1
    _report(
        "A4 bb-rate-cross-form",
        trace.iterations == 100 and compared == 100 and worst <= 1e-12,
        f"worst relative gap {worst:.2e} over {compared} iterations",
    )


def test_a5_gradient_check_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        widths = [int(rng.integers(1, 6)) for _ in range(k)]
        p = int(rng.integers(1, 9))
        specs = tuple(
            LayerSpec(q, ActivationKind(str(rng.choice(("sigmoid", "swish", "identity")))))
            for q in widths
        )
        config = NetworkConfig(
            layer_specs=specs,
            loss=LossKind(str(rng.choice(("mse", "log_cosh")))),
            optimizer=OptimizerKind("gd"),
            initializer=InitializerKind("xavier"),
            max_epochs=1,
            tolerance=1e-8,
            seed=int(rng.integers(0, 2**31)),
        )
        state = init_network(config, n)
        features = rng.uniform(-1.0, 1.0, (n, p))
        targets = rng.uniform(-1.0, 1.0, (widths[-1], p))
        cache = forward(state, features)
        analytic = _backward_pass(state, cache, targets, config.loss)
        numeric = numeric_network_gradients(state, config.loss, features, targets)
        for got, want in zip(analytic, numeric):
            worst = max(worst, float(gradient_errors(got, want).max()))
    elapsed = time.perf_counter() - start
    _report(
        "A5 gradient-check-suite",
        worst <= 1e-4 and elapsed < 30.0,
        f"max relative error {worst:.2e} over 50 configurations, {elapsed:.1f}s",
    )


def test_a6_training_efficacy_on_sine():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    x_train = rng.uniform(0.0, 1.0, (200, 1))
    x_val = rng.uniform(0.0, 1.0, (50, 1))
    y_train = np.sin(2 * np.pi * x_train)
    y_val = np.sin(2 * np.pi * x_val)
    # The toolkit's standard pipeline z-scores features and targets.
    xt, fstats = normalize(x_train)
    xv, _ = normalize(x_val, stats=fstats)
    yt, tstats = normalize(y_train)
    yv, _ = normalize(y_val, stats=tstats)

    config = NetworkConfig(
        layer_specs=(
            LayerSpec(4, ActivationKind("swish")),
            LayerSpec(1, ActivationKind("identity")),
        ),
        loss=LossKind("mse"),
        optimizer=OptimizerKind("adam"),  # defaults: 0.001, 0.9, 0.999, 1e-8
        initializer=InitializerKind("xavier"),
        max_epochs=5000,
        tolerance=1e-14,
        seed=0,
    )
    state = init_network(config, 1)
    state, report = train(state, xt.T, yt.T, xv.T, yv.T, config)
    best = min(report.epoch_losses)

    from regkit.network import predict as net_predict

    raw_predictions = net_predict(state, xv.T).T * tstats.std + tstats.mean
    raw_mse = float(np.mean((raw_predictions - y_val) ** 2))
    elapsed = time.perf_counter() - start
    _report(
        "A6 sine-training-efficacy",
        best < 0.01 and raw_mse < 0.01 and report.epochs_run <= 5000 and elapsed < 60.0,
        f"val mse {best:.2e} (raw units {raw_mse:.2e}) in {report.epochs_run} epochs, "
        f"{elapsed:.1f}s",
    )


def test_a7_stopping_semantics():
    rng = np.random.default_rng(77)
    xt = rng.uniform(0, 1, (1, 20))
    yt = np.sin(2 * np.pi * xt)
    xv = rng.uniform(0, 1, (1, 5))
    yv = np.sin(2 * np.pi * xv)
    specs = (LayerSpec(3, ActivationKind("swish")), LayerSpec(1, ActivationKind("identity")))

    def config(tolerance, epochs=30):
        return NetworkConfig(specs, LossKind("mse"), OptimizerKind("adam"),
                             InitializerKind("xavier"), epochs, tolerance, seed=5)

    huge = config(1e9)
    _, report_huge = train(init_network(huge, 1), xt, yt, xv, yv, huge)
    ok_huge = report_huge.epochs_run == 2 and report_huge.stop_reason == STOP_TOLERANCE

    rejected = False
    try:
        config(0.0)
    except ValueError:
        rejected = True

    tiny = config(1e-300)
    _, report_tiny = train(init_network(tiny, 1), xt, yt, xv, yv, tiny)
    ok_tiny = (
        report_tiny.epochs_run == tiny.max_epochs
        and report_tiny.stop_reason == STOP_MAX_EPOCHS
    )
    _report(
        "A7 stopping-semantics",
        ok_huge and rejected and ok_tiny,
        f"huge tolerance stopped at epoch {report_huge.epochs_run} "
        f"({report_huge.stop_reason}); zero tolerance rejected: {rejected}; "
        f"tiny tolerance ran {report_tiny.epochs_run}/{tiny.max_epochs} epochs",
    )


def test_a8_catalog_properties():
    rng = np.random.default_rng(88)
    problems = []

    softmax_out = apply_matrix(ActivationKind("softmax"), rng.normal(size=(6, 40)))
    if not np.allclose(softmax_out.sum(axis=0), 1.0, atol=1e-12):
        problems.append("softmax column sums")

    point = rng.uniform(0.5, 2.0, 5)
    for name in ("mse", "mae", "huber", "log_cosh", "msle"):
        if loss(LossKind(name), point, point.copy()) > 1e-12:
            problems.append(f"{name} at equality")

    delta = 1.0
    for r in (delta * (1 - 1e-6), delta * (1 + 1e-6)):
        if abs(0.5 * r * r - (delta * abs(r) - 0.5 * delta**2)) > 1e-9:
            problems.append("huber branch knit")
    if loss_gradient(LossKind("huber", delta=delta), [delta], [0.0])[0] != delta:
        problems.append("huber derivative at branch point")

    fan_in, fan_out = 20, 5000  # 10^5 draws
    xavier = init_weights(InitializerKind("xavier"), fan_in, fan_out, make_rng(1))
    xavier_bound = math.sqrt(6.0) / (math.sqrt(fan_in) + math.sqrt(fan_out))
    if not np.all(np.abs(xavier) < xavier_bound):
        problems.append("xavier bound")
    kaiming = init_weights(InitializerKind("kaiming_uniform"), fan_in, fan_out, make_rng(2))
    if not np.all(np.abs(kaiming) < math.sqrt(6.0 / fan_in)):
        problems.append("kaiming bound")

    lecun = init_weights(InitializerKind("lecun"), fan_in, fan_out, make_rng(3))
    var = float(np.var(lecun))
    if not 0.8 / fan_in <= var <= 1.2 / fan_in:
        problems.append("lecun variance")

    _report(
        "A8 catalog-properties",
        not problems,
        "softmax sums, loss zeros, huber C1, initializer bounds, lecun variance"
        if not problems
        else "failed: " + ", ".join(problems),
    )


def test_a9_cli_determinism(tmp_path):
    rng = np.random.default_rng(99)
    x = rng.uniform(0.0, 1.0, 60)
    lines = ["x,y"] + [f"{float(v)!r},{float(np.sin(2 * np.pi * v))!r}" for v in x]
    data = tmp_path / "sine.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = [
        "ann-train", "--data", str(data), "--features", "x", "--targets", "y",
        "--layers", "4:swish,1:identity", "--loss", "mse", "--optimizer", "adam",
        "--init", "xavier", "--epochs", "100", "--epsilon", "1e-12",
        "--val-fraction", "0.2", "--seed", "13",
    ]
    first, second = tmp_path / "m1.json", tmp_path / "m2.json"
    code1 = cli_main(args + ["--out", str(first)])
    code2 = cli_main(args + ["--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    _report(
        "A9 cli-determinism",
        code1 == 0 and code2 == 0 and identical,
        f"model files byte-identical: {identical}",
    )


def test_a10_validation_isolation():
    rng = np.random.default_rng(1010)
    config = NetworkConfig(
        (LayerSpec(4, ActivationKind("sigmoid")), LayerSpec(2, ActivationKind("identity"))),
        LossKind("mse"), OptimizerKind("adam"), InitializerKind("xavier"),
        max_epochs=5, tolerance=1e-12, seed=3,
    )
    state = init_network(config, 3)
    train_f = rng.normal(size=(3, 6))
    train_t = rng.normal(size=(2, 6))
    val_f = rng.normal(size=(3, 4))
    val_t = rng.normal(size=(2, 4))
    cache = forward(state, np.hstack([train_f, val_f]))

    theta = batch_validation_loss(cache, val_t, config.loss)
    grads = _backward_pass(state, cache, train_t, config.loss)
    mutated = val_t + 1.0
    theta_mutated = batch_validation_loss(cache, mutated, config.loss)
    grads_mutated = _backward_pass(state, cache, train_t, config.loss)

    bit_identical = all(np.array_equal(g0, g1) for g0, g1 in zip(grads, grads_mutated))
    _report(
        "A10 validation-isolation",
        theta != theta_mutated and bit_identical,
        f"loss moved {theta:.4f} -> {theta_mutated:.4f}, gradients bit-identical: "
        f"{bit_identical}",
    )
