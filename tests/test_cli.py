import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regkit
from regkit.cli import cli_main
from regkit.model_io import load_model, predict_rows


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

    def test_gd_method_matches_analytic(self, tmp_path):
        data = _write_sine_csv(tmp_path)
        out_a = tmp_path / "a.json"
        out_g = tmp_path / "g.json"
        base = ["--data", str(data), "--features", "x", "--targets", "y"]
        assert cli_main(["ols-fit", *base, "--method", "analytic", "--out", str(out_a)]) == 0
        assert cli_main(["ols-fit", *base, "--method", "gd", "--epsilon", "1e-12",
                         "--out", str(out_g)]) == 0
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

    def test_singular_falls_back_when_asked(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,y\n1,1,1\n2,2,2\n3,3,4\n", encoding="utf-8")
        out = tmp_path / "m.json"
        code = cli_main([
            "ols-fit", "--data", str(path), "--features", "a,b", "--targets", "y",
            "--fallback-gd", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()

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


class TestGradcheck:
    def test_prints_error_and_exits_0(self, capsys):
        code = cli_main(["gradcheck", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max relative error" in out
