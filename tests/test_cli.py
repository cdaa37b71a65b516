import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import regkit
import regkit.model_io
from regkit.activations import ActivationKind
from regkit.cli import _write_predictions, cli_main
from regkit.data import NormalizationStats
from regkit.initializers import InitializerKind
from regkit.losses import LossKind
from regkit.model_io import load_model, predict_rows, save_model
from regkit.network import LayerSpec, NetworkConfig, init_network
from regkit.ols import OlsModel
from regkit.optimizers import OptimizerKind


def _write_line_csv(tmp_path, name="line.csv"):
    # y = 2x + 1, exactly.
    path = tmp_path / name
    path.write_text("x,y\n0,1\n1,3\n", encoding="utf-8")
    return path


def _write_sine_csv(tmp_path, rows=60, seed=0, name="sine.csv"):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, rows)
    lines = ["x,y"] + [f"{float(xi)!r},{float(np.sin(2 * np.pi * xi))!r}" for xi in x]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _read_predictions(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader]
    return header, np.array(rows)


class TestOlsFit:
    def test_analytic_line_in_original_units(self, tmp_path, capsys):
        data = _write_line_csv(tmp_path)
        out = tmp_path / "model.json"
        code = cli_main([
            "ols-fit", "--data", str(data), "--features", "x", "--targets", "y",
            "--method", "analytic", "--out", str(out),
        ])
        assert code == 0
        model = load_model(out)
        for x in (0.0, 1.0, 2.0, -3.5):
            np.testing.assert_allclose(
                predict_rows(model, [[x]]), [[2.0 * x + 1.0]], atol=1e-9
            )

    def test_gd_method_matches_analytic(self, tmp_path, capsys):
        data = _write_sine_csv(tmp_path)
        out_a = tmp_path / "a.json"
        out_g = tmp_path / "g.json"
        base = ["--data", str(data), "--features", "x", "--targets", "y"]
        assert cli_main(["ols-fit", *base, "--method", "analytic", "--out", str(out_a)]) == 0
        capsys.readouterr()
        assert cli_main(["ols-fit", *base, "--method", "gd", "--epsilon", "1e-12",
                         "--out", str(out_g)]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        match = re.fullmatch(r"gd: (\d+) iterations, converged=True, last step norm (\S+), "
                             r"relative gradient (\S+)", summary)
        assert match, summary
        assert float(match[3]) < 1e-9
        rows = np.linspace(0, 1, 7).reshape(-1, 1)
        np.testing.assert_allclose(
            predict_rows(load_model(out_a), rows),
            predict_rows(load_model(out_g), rows),
            atol=1e-6,
        )

    def test_singular_exits_3_without_fallback(self, tmp_path, capsys):
        # Two identical feature columns make X^T X singular.
        path = tmp_path / "dup.csv"
        path.write_text("a,b,y\n1,1,1\n2,2,2\n3,3,4\n", encoding="utf-8")
        code = cli_main([
            "ols-fit", "--data", str(path), "--features", "a,b", "--targets", "y",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def test_singular_falls_back_when_asked(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,y\n1,1,1\n2,2,2\n3,3,4\n", encoding="utf-8")
        out = tmp_path / "m.json"
        code = cli_main([
            "ols-fit", "--data", str(path), "--features", "a,b", "--targets", "y",
            "--fallback-gd", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        summary = capsys.readouterr().out.splitlines()[0]
        assert re.fullmatch(r"gd fallback: \d+ iterations, converged=(True|False), "
                            r"relative gradient \S+", summary), summary

    @pytest.mark.parametrize("flag, value", [("--max-iters", "0"), ("--epsilon", "-1")])
    @pytest.mark.parametrize("path", [["--method", "gd"], ["--fallback-gd"]],
                             ids=["gd", "fallback"])
    def test_bad_gd_setting_exits_1(self, tmp_path, capsys, flag, value, path):
        # Singular data, so --fallback-gd would reach the gd solver.
        data = tmp_path / "dup.csv"
        data.write_text("a,b,y\n1,1,1\n2,2,2\n3,3,4\n", encoding="utf-8")
        out = tmp_path / "m.json"
        code = cli_main([
            "ols-fit", "--data", str(data), "--features", "a,b", "--targets", "y",
            *path, flag, value, "--out", str(out),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = cli_main([
            "ols-fit", "--data", str(tmp_path / "nope.csv"), "--features", "x",
            "--targets", "y", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_cell_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\noops,1\n", encoding="utf-8")
        code = cli_main([
            "ols-fit", "--data", str(path), "--features", "x", "--targets", "y",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        (b"x,y\n1,\xff\n2,3\n", "not UTF-8 text (byte 0xff"),
        (b'x,y\n1,2\n2,"' + b"7" * 140_000 + b'"\n3,4\n', "line 3: field larger than"),
        (b"x,y\n1e308,1\n1.5e308,2\n-1e308,3\n1.7e308,4\n", "column 'x' is too large"),
    ], ids=["invalid-utf8", "overlong-field", "near-float-max"])
    @pytest.mark.parametrize("command", ["ols-fit", "ann-train"])
    def test_unreadable_data_exits_2_with_one_line(self, tmp_path, capsys, content, message,
                                                   command):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        argv = [command, "--data", str(path), "--features", "x", "--targets", "y",
                "--out", str(tmp_path / "m.json")]
        if command == "ann-train":
            argv += ["--layers", "1:identity"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "m.json").exists()


class TestAnnTrain:
    def test_end_to_end_train_and_predict(self, tmp_path):
        data = _write_sine_csv(tmp_path)
        out = tmp_path / "net.json"
        code = cli_main([
            "ann-train", "--data", str(data), "--features", "x", "--targets", "y",
            "--layers", "4:swish,1:identity", "--loss", "mse", "--optimizer", "adam",
            "--init", "xavier", "--epochs", "300", "--epsilon", "1e-12",
            "--val-fraction", "0.2", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        pred_out = tmp_path / "pred.csv"
        code = cli_main(["predict", "--model", str(out), "--data", str(data),
                         "--out", str(pred_out)])
        assert code == 0
        header, values = _read_predictions(pred_out)
        assert header == ["y"]
        assert values.shape == (60, 1)
        assert np.isfinite(values).all()

    def test_layer_output_mismatch_exits_1(self, tmp_path, capsys):
        data = _write_sine_csv(tmp_path)
        code = cli_main([
            "ann-train", "--data", str(data), "--features", "x", "--targets", "y",
            "--layers", "4:swish,2:identity", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert "target columns" in capsys.readouterr().err

    def test_bad_layer_syntax_exits_1(self, tmp_path, capsys):
        data = _write_sine_csv(tmp_path)
        code = cli_main([
            "ann-train", "--data", str(data), "--features", "x", "--targets", "y",
            "--layers", "4xswish", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1

    def test_deterministic_model_files(self, tmp_path):
        data = _write_sine_csv(tmp_path)
        args = [
            "ann-train", "--data", str(data), "--features", "x", "--targets", "y",
            "--layers", "3:swish,1:identity", "--epochs", "50", "--epsilon", "1e-12",
            "--val-fraction", "0.2", "--seed", "11",
        ]
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestBlasThreads:
    def test_analytic_fit_agrees_across_blas_thread_counts(self, tmp_path):
        # The BLAS thread count changes how X^T X and the LAPACK solve
        # accumulate, so model bytes are reproducible only at a fixed count.
        # Across counts the coefficients must still agree to 1e-9 relative
        # (normwise); this design has cond(X) of about 600, for which the
        # normal equations are accurate to about 1e-11.
        rng = np.random.default_rng(15)
        p, n = 300, 100
        x = rng.normal(size=(p, 20)) @ rng.normal(size=(20, n)) + 0.05 * rng.normal(size=(p, n))
        y = x @ rng.normal(size=(n, 2)) + rng.normal(size=(p, 2))
        names = [f"x{i}" for i in range(n)]
        lines = [",".join(names + ["y0", "y1"])]
        lines += [",".join(repr(float(v)) for v in row) for row in np.hstack([x, y])]
        data = tmp_path / "wide.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        src = str(Path(regkit.__file__).resolve().parents[1])

        def fit(threads, out):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "regkit.cli", "ols-fit", "--data", str(data),
                 "--features", ",".join(names), "--targets", "y0,y1", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return load_model(out).ols.b

        one = fit(1, tmp_path / "t1.json")
        two = fit(2, tmp_path / "t2.json")
        fit(2, tmp_path / "t2b.json")
        assert (tmp_path / "t2.json").read_bytes() == (tmp_path / "t2b.json").read_bytes()
        assert np.linalg.norm(one - two) <= 1e-9 * np.linalg.norm(one)


class TestClosedStdout:
    """A reader that has gone away costs the progress lines, not the run."""

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["ols-fit", "predict"])
    def test_closed_pipe_exits_0_with_output_written(self, tmp_path, command, unbuffered):
        data = _write_line_csv(tmp_path)
        model, predictions = tmp_path / "model.json", tmp_path / "pred.csv"
        fit = ["ols-fit", "--data", str(data), "--features", "x", "--targets", "y",
               "--out", str(model)]
        if command == "predict":
            assert cli_main(fit) == 0
            argv, out = ["predict", "--model", str(model), "--data", str(data),
                         "--out", str(predictions)], predictions
        else:
            argv, out = fit, model
        src = str(Path(regkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "regkit.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert out.exists()


class TestOutOfMemory:
    # The child caps its own address space before it imports numpy, so the
    # 2.98 GiB X^T X of 3 rows x 20,000 features cannot be allocated.
    LIMIT = 3 << 29  # 1.5 GiB
    CHILD = ("import resource, sys\n"
             "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
             "cap = {limit} if hard == resource.RLIM_INFINITY else min({limit}, hard)\n"
             "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
             "from regkit.cli import cli_main\n"
             "sys.exit(cli_main(sys.argv[1:]))\n")

    def test_allocation_failure_exits_2_with_one_line(self, tmp_path):
        n = 20_000
        names = [f"x{i}" for i in range(n)]
        rows = np.random.default_rng(24).normal(size=(3, n + 1))
        data = tmp_path / "wide.csv"
        data.write_text("\n".join([",".join(names + ["y"])]
                                  + [",".join(repr(float(v)) for v in row) for row in rows])
                        + "\n", encoding="utf-8")
        model = tmp_path / "model.json"
        src = str(Path(regkit.__file__).resolve().parents[1])
        # One BLAS thread: other threads' stacks and buffers would count
        # against the cap too, however many cores the host has.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD.format(limit=self.LIMIT), "ols-fit",
             "--data", str(data), "--features", ",".join(names), "--targets", "y",
             "--out", str(model)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("data error: out of memory"), proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert "2.98 GiB" in proc.stderr
        assert list(tmp_path.iterdir()) == [data]


class TestPredictCommand:
    def test_round_trips_normalization(self, tmp_path):
        data = _write_line_csv(tmp_path)
        model_path = tmp_path / "model.json"
        cli_main(["ols-fit", "--data", str(data), "--features", "x", "--targets", "y",
                  "--out", str(model_path)])
        query = tmp_path / "query.csv"
        query.write_text("x,extra\n2,9\n10,9\n", encoding="utf-8")
        pred_out = tmp_path / "pred.csv"
        assert cli_main(["predict", "--model", str(model_path), "--data", str(query),
                         "--out", str(pred_out)]) == 0
        _, values = _read_predictions(pred_out)
        np.testing.assert_allclose(values, [[5.0], [21.0]], atol=1e-9)

    def test_nan_std_in_model_exits_2(self, tmp_path, capsys):
        data = _write_line_csv(tmp_path)
        model_path = tmp_path / "model.json"
        cli_main(["ols-fit", "--data", str(data), "--features", "x", "--targets", "y",
                  "--out", str(model_path)])
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc["normalization"]["features"]["std"] = [float("nan")]
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "pred.csv"
        code = cli_main(["predict", "--model", str(model_path), "--data", str(data),
                         "--out", str(out)])
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_model_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = cli_main(["predict", "--model", str(bad), "--data", str(bad),
                         "--out", str(tmp_path / "p.csv")])
        assert code == 2


_MUTATION_DATA = "a,b,c,y,z\n0.5,-1,2,0,0\n-0.25,3,1,0,0\n1.5,0,-2,0,0\n"


@cache
def _tiny_model_files() -> dict:
    """The text of a saved OLS model and of a saved 2-3-2 network, both over
    features a, b and targets y, z."""
    rng = np.random.default_rng(5)
    features = NormalizationStats(("a", "b"), [0.1, -0.2], [1.0, 2.0])
    targets = NormalizationStats(("y", "z"), [3.0, -1.0], [0.5, 4.0])
    config = NetworkConfig(
        (LayerSpec(3, ActivationKind("swish")), LayerSpec(2, ActivationKind("identity"))),
        LossKind("mse"), OptimizerKind("adam"), InitializerKind("xavier"),
        max_epochs=1, tolerance=1e-8, seed=7,
    )
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind, model in (("ols", OlsModel(rng.normal(size=(2, 3)))),
                            ("ann", init_network(config, 2))):
            path = Path(tmp) / "model.json"
            save_model(path, model, features, targets, config=config)
            texts[kind] = path.read_text(encoding="utf-8")
    return texts


_WIDTH = st.one_of(st.integers(-1, 4), st.just(10**20), st.booleans(),
                   st.floats(-2.0, 4.0), st.sampled_from(["2", "", None]),
                   st.lists(st.integers(0, 3), max_size=2))
_NAME = st.one_of(st.sampled_from(["a", "b", "c", "y", "z", "q", ""]), st.integers(0, 2),
                  st.none())


@st.composite
def _mutated_block(draw, block):
    """A normalization block with its column list changed.  A dropped,
    repeated or added column takes its mean and std along, except in
    ``unequal``, which leaves the lists of unequal length."""
    lists = [list(block[key]) for key in ("columns", "mean", "std")]
    names = lists[0]
    i = draw(st.integers(0, len(names) - 1))
    op = draw(st.sampled_from(["drop", "duplicate", "append", "rename", "reverse",
                               "unequal", "replace"]))
    if op == "rename":
        names[i] = draw(_NAME)
    elif op == "unequal":
        names.append(draw(_NAME))
    elif op == "replace":
        lists[0] = draw(st.one_of(_NAME, st.just({}), st.just([])))
    else:
        added = [draw(_NAME), 0.0, 1.0]
        for values, new in zip(lists, added):
            if op == "drop":
                del values[i]
            elif op == "duplicate":
                values.insert(i, values[i])
            elif op == "append":
                values.append(new)
            else:
                values.reverse()
    return dict(zip(("columns", "mean", "std"), lists))


@st.composite
def _mutated_model(draw):
    """A tiny model file with one of its widths, its feature columns or its
    target columns changed, or more than one of these."""
    kind = draw(st.sampled_from(["ols", "ann"]))
    doc = json.loads(_tiny_model_files()[kind])
    parts = st.sampled_from(["width", "features", "targets"])
    for part in draw(st.lists(parts, min_size=1, max_size=3, unique=True)):
        if part != "width":
            norm = doc["normalization"]
            norm[part] = draw(_mutated_block(norm[part]))
        elif kind == "ols":
            doc["ols"][draw(st.sampled_from(["rows", "cols"]))] = draw(_WIDTH)
        else:
            layer = draw(st.sampled_from([None, 0, 1]))
            block = doc["ann"] if layer is None else doc["ann"]["layers"][layer]
            block["input_dim" if layer is None else "units"] = draw(_WIDTH)
    return doc


class TestModelFileMutations:
    @given(doc=_mutated_model())
    def test_predict_writes_finite_rows_or_exits_2_with_one_line(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            model, data, out = (Path(tmp) / name for name in ("m.json", "d.csv", "p.csv"))
            model.write_text(json.dumps(doc), encoding="utf-8")
            data.write_text(_MUTATION_DATA, encoding="utf-8")
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli_main(["predict", "--model", str(model), "--data", str(data),
                                 "--out", str(out)])
            if code == 0:
                header, values = _read_predictions(out)
                assert header == doc["normalization"]["targets"]["columns"]
                assert values.shape == (3, len(header))
                assert np.isfinite(values).all()
            else:
                assert code == 2, err.getvalue()
                assert err.getvalue().startswith("data error: ")
                assert err.getvalue().count("\n") == 1, err.getvalue()
                assert not out.exists()


class TestPredictionsWriter:
    @staticmethod
    def _csv_writer_bytes(header, predictions):
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(header)
        for row in predictions:
            writer.writerow([repr(float(value)) for value in row])
        return buffer.getvalue().encode("utf-8")

    @pytest.mark.parametrize("header, rows", [
        (["y"], [[-0.0], [5e-324], [1e16], [-1.5e-300], [0.1]]),
        (["a", "b", "c", "d"], [[-0.0, 5e-324, 1e16, -1.5e-300], [1.0, -2.5, 1.7e308, 3.0]]),
        (["a,b"], [[2.0], [-0.0]]),
    ])
    def test_bytes_match_csv_writer(self, tmp_path, header, rows):
        path = tmp_path / "pred.csv"
        _write_predictions(path, header, np.array(rows))
        assert path.read_bytes() == self._csv_writer_bytes(header, np.array(rows))

    def test_header_that_needs_quoting_stays_quoted(self, tmp_path):
        path = tmp_path / "pred.csv"
        _write_predictions(path, ["a,b", "c"], np.array([[1e16, -0.0]]))
        assert path.read_bytes() == b'"a,b",c\r\n1e+16,-0.0\r\n'


def _fill_disk_after(monkeypatch, chars):
    """Make every file regkit writes fail with ENOSPC after ``chars`` characters."""
    real_open = open

    def disk_full_open(file, *args, **kwargs):
        handle = real_open(file, *args, **kwargs)
        write = handle.write

        def write_then_fail(text):
            write(text[:chars])
            handle.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        handle.write = write_then_fail
        return handle

    monkeypatch.setattr(regkit.model_io, "open", disk_full_open, raising=False)


class TestOutputFiles:
    def test_non_finite_prediction_exits_3_and_writes_nothing(self, tmp_path, capsys, recwarn):
        data = tmp_path / "line.csv"
        data.write_text("x,y\n1,2\n2,4.5\n3,5.5\n4,8\n", encoding="utf-8")
        model_path = tmp_path / "model.json"
        assert cli_main(["ols-fit", "--data", str(data), "--features", "x", "--targets", "y",
                         "--out", str(model_path)]) == 0
        query = tmp_path / "query.csv"
        query.write_text("x\n1e308\n-1.7e308\n", encoding="utf-8")
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        code = cli_main(["predict", "--model", str(model_path), "--data", str(query),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "numerical error: the prediction for data row 1 is not finite\n"
        assert not out.exists()
        assert len(recwarn) == 0

    def test_non_finite_network_prediction_names_the_row(self, tmp_path, capsys, recwarn):
        data = _write_sine_csv(tmp_path)
        model_path = tmp_path / "net.json"
        assert cli_main(["ann-train", "--data", str(data), "--features", "x", "--targets", "y",
                         "--layers", "4:swish,1:identity", "--epochs", "20",
                         "--out", str(model_path)]) == 0
        query = tmp_path / "query.csv"
        query.write_text("x\n0.5\n1e308\n0.25\n", encoding="utf-8")
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        code = cli_main(["predict", "--model", str(model_path), "--data", str(query),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "numerical error: the prediction for data row 2 is not finite\n"
        assert not out.exists()
        assert len(recwarn) == 0

    def test_ols_pre_activation_overflow_names_the_row(self, tmp_path, capsys, recwarn):
        # y is the small difference of two nearly equal features, so the
        # normalized coefficients are large and of opposite sign.
        data = tmp_path / "twin.csv"
        data.write_text("a,b,y\n" + "".join(
            f"{t},{t + e},{e}\n" for t, e in enumerate([0.01, -0.01, 0.02, 0.0, -0.02, 0.01])),
            encoding="utf-8")
        model_path = tmp_path / "model.json"
        assert cli_main(["ols-fit", "--data", str(data), "--features", "a,b", "--targets", "y",
                         "--out", str(model_path)]) == 0
        b = np.array(json.loads(model_path.read_text())["ols"]["coefficients"])
        assert abs(b[0]) > 10.0 and abs(b[1]) > 10.0
        query = tmp_path / "query.csv"
        # Row 2's features normalize to finite values, but W z overflows.
        query.write_text("a,b\n1,1\n1e307,0\n1e307,0\n", encoding="utf-8")
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        code = cli_main(["predict", "--model", str(model_path), "--data", str(query),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "numerical error: the prediction for data row 2 is not finite\n"
        assert not out.exists()
        assert len(recwarn) == 0

    @pytest.mark.parametrize("command", ["ols-fit", "predict"])
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, capsys, monkeypatch, command):
        data = _write_line_csv(tmp_path)
        model_path = tmp_path / "model.json"
        fit = ["ols-fit", "--data", str(data), "--features", "x", "--targets", "y",
               "--out", str(model_path)]
        pred_path = tmp_path / "pred.csv"
        predict = ["predict", "--model", str(model_path), "--data", str(data),
                   "--out", str(pred_path)]
        assert cli_main(fit) == 0 and cli_main(predict) == 0
        target = model_path if command == "ols-fit" else pred_path
        before = target.read_bytes()
        _fill_disk_after(monkeypatch, 5)
        capsys.readouterr()
        assert cli_main(fit if command == "ols-fit" else predict) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert target.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["line.csv", "model.json", "pred.csv"]

    def test_missing_directory_error_names_the_output(self, tmp_path, capsys):
        data = _write_line_csv(tmp_path)
        out = tmp_path / "nowhere" / "model.json"
        assert cli_main(["ols-fit", "--data", str(data), "--features", "x", "--targets", "y",
                         "--out", str(out)]) == 2
        assert f"No such file or directory: '{out}'" in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err

    def test_no_arguments_exits_1(self):
        assert cli_main([]) == 1

    def test_missing_required_flag_exits_1(self, capsys):
        assert cli_main(["ols-fit", "--data", "x.csv"]) == 1

    def test_help_exits_0(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "regkit" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["ann-train", "gradcheck"])
    def test_negative_seed_exits_1_with_one_usage_line(self, tmp_path, capsys, command):
        out = tmp_path / "m.json"
        args = [command, "--seed", "-5"]
        if command == "ann-train":
            args += ["--data", str(_write_sine_csv(tmp_path)), "--features", "x",
                     "--targets", "y", "--layers", "2:swish,1:identity", "--out", str(out)]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and err.count("usage") == 1, err
        assert err.endswith("error: argument --seed: expected an integer >= 0, got -5\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize("command", ["ols-fit", "ann-train"])
    def test_epsilon_must_be_a_finite_positive_number(self, tmp_path, capsys, command, value):
        out = tmp_path / "m.json"
        args = [command, "--data", str(_write_sine_csv(tmp_path)), "--features", "x",
                "--targets", "y", f"--epsilon={value}", "--out", str(out)]
        args += ["--method", "gd"] if command == "ols-fit" else ["--layers", "2:swish,1:identity"]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and err.count("usage") == 1, err
        assert err.endswith(
            f"error: argument --epsilon: expected a finite number > 0, got {value}\n")
        assert not out.exists()


class TestGradcheck:
    def test_prints_error_and_exits_0(self, capsys):
        code = cli_main(["gradcheck", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max relative error" in out
