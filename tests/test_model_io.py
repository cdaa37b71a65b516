import json
import re
from pathlib import Path

import numpy as np
import pytest

from regkit.activations import ActivationKind
from regkit.data import NormalizationStats
from regkit.errors import DivergenceError, ModelFormatError
from regkit.initializers import InitializerKind
from regkit.losses import LossKind
from regkit.model_io import FORMAT_VERSION, LoadedModel, load_model, predict_rows, save_model
from regkit.network import LayerSpec, NetworkConfig, init_network
from regkit.network import predict as net_predict
from regkit.ols import OlsModel
from regkit.optimizers import OptimizerKind


def _stats(names, mean, std):
    return NormalizationStats(tuple(names), np.array(mean), np.array(std))


def _ann_fixture():
    config = NetworkConfig(
        layer_specs=(
            LayerSpec(4, ActivationKind("swish")),
            LayerSpec(2, ActivationKind("leaky_relu", 0.02)),
            LayerSpec(1, ActivationKind("identity")),
        ),
        loss=LossKind("huber", delta=2.0),
        optimizer=OptimizerKind("adam", gamma=0.005),
        initializer=InitializerKind("xavier"),
        max_epochs=10,
        tolerance=1e-8,
        seed=99,
    )
    state = init_network(config, 3)
    fstats = _stats(("a", "b", "c"), [0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
    tstats = _stats(("y",), [5.0], [2.5])
    return config, state, fstats, tstats


def _kinds_fixture():
    """A network whose activations, loss, initializer and optimizer each carry
    a parameter, with fixed parameters and normalization blocks."""
    config = NetworkConfig(
        layer_specs=(
            LayerSpec(3, ActivationKind("leaky_relu", 0.2)),
            LayerSpec(2, ActivationKind("elu", 0.5)),
            LayerSpec(1, ActivationKind("identity")),
        ),
        loss=LossKind("huber", delta=0.75),
        optimizer=OptimizerKind("rmsprop", gamma=0.003, rho=0.95, eps=1e-7),
        initializer=InitializerKind("random_normal", sigma=0.3),
        max_epochs=5,
        tolerance=1e-6,
        seed=4,
    )
    state = init_network(config, 2)
    # Fixed values, so the file does not depend on the generator's stream.
    for i, (w, b) in enumerate(zip(state.weights, state.biases)):
        w[...] = np.arange(w.size).reshape(w.shape) / (7.0 + i) - 0.5
        b[...] = -np.arange(b.size).reshape(b.shape) / 3.0
    fstats = NormalizationStats(("a", "b"), np.array([0.1, -0.2]), np.array([1.5, 2.0]))
    tstats = NormalizationStats(("y",), np.array([5.0]), np.array([0.25]))
    return config, state, fstats, tstats


class TestOlsRoundTrip:
    def test_predictions_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 40
        model = OlsModel(rng.normal(size=(2, n + 1)))
        fstats = _stats([f"x{i}" for i in range(n)], rng.normal(size=n),
                        rng.uniform(0.5, 2.0, size=n))
        # Zero means and power-of-two scales: denormalizing is exact, so the
        # predictions divided by the scales are the network's outputs.
        tstats = _stats(("u", "v"), [0.0, 0.0], [4.0, 0.25])
        path = tmp_path / "model.json"
        save_model(path, model, fstats, tstats)
        loaded = load_model(path)
        assert loaded.kind == "ols"
        np.testing.assert_array_equal(loaded.ols.b, model.b)
        rows = rng.normal(size=(300, n))
        predictions = predict_rows(loaded, rows)
        in_memory = LoadedModel("ols", fstats, tstats, ols=model)
        np.testing.assert_array_equal(predictions, predict_rows(in_memory, rows))
        # W z + b against [W b] [z; 1]: both are dot products of length at
        # most n + 1, so they differ by at most gamma_{n+1} (|W||z| + |b|)
        # (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).
        z = (rows - fstats.mean) / fstats.std
        design = np.hstack([z, np.ones((rows.shape[0], 1))])
        reference = design @ model.b.T
        u = np.finfo(np.float64).eps / 2
        gamma = (n + 1) * u / (1 - (n + 1) * u)
        bound = gamma * (np.abs(z) @ np.abs(model.b[:, :-1]).T + np.abs(model.b[:, -1]))
        assert np.all(np.abs(predictions / tstats.std - reference) <= bound)

    def test_network_is_the_identity_layer_over_views_of_b(self):
        model = OlsModel(np.arange(8.0).reshape(2, 4))
        loaded = LoadedModel("ols", _stats("abc", [0, 0, 0], [1, 1, 1]),
                             _stats("uv", [0, 0], [1, 1]), ols=model)
        (w,), (b,) = loaded.network.weights, loaded.network.biases
        assert loaded.network.activations == (ActivationKind("identity"),)
        np.testing.assert_array_equal(w, model.b[:, :-1])
        np.testing.assert_array_equal(b, model.b[:, -1:])
        assert np.shares_memory(w, model.b) and np.shares_memory(b, model.b)


class TestAnnRoundTrip:
    def test_predictions_bit_exact(self, tmp_path):
        config, state, fstats, tstats = _ann_fixture()
        path = tmp_path / "model.json"
        save_model(path, state, fstats, tstats, config=config)
        loaded = load_model(path)
        assert loaded.kind == "ann"
        assert loaded.seed == 99
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(7, 3))
        normalized = (rows - fstats.mean) / fstats.std
        expected = net_predict(state, normalized.T).T * tstats.std + tstats.mean
        np.testing.assert_array_equal(predict_rows(loaded, rows), expected)

    @pytest.mark.parametrize("bad_rows", [[0], [1, 2], [36, 80], [99]])
    def test_non_finite_forward_pass_names_the_first_bad_row(self, bad_rows):
        _, state, fstats, tstats = _ann_fixture()
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(100, 3))
        rows[bad_rows, 1] = np.inf
        with pytest.raises(DivergenceError,
                           match=f"^the prediction for data row {bad_rows[0] + 1} is not finite$"):
            predict_rows(LoadedModel("ann", fstats, tstats, network=state), rows)

    def test_activation_parameters_survive(self, tmp_path):
        config, state, fstats, tstats = _ann_fixture()
        path = tmp_path / "model.json"
        save_model(path, state, fstats, tstats, config=config)
        loaded = load_model(path)
        assert loaded.network.activations[1].beta == 0.02

    def test_config_required_for_network(self, tmp_path):
        _, state, fstats, tstats = _ann_fixture()
        with pytest.raises(ValueError):
            save_model(tmp_path / "model.json", state, fstats, tstats)

    def test_save_twice_byte_identical(self, tmp_path):
        config, state, fstats, tstats = _ann_fixture()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, state, fstats, tstats, config=config)
        save_model(b, state, fstats, tstats, config=config)
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_match_the_streaming_encoder(self, tmp_path):
        # json.dump streams through the pure-Python encoder; the file must not
        # depend on which encoder wrote it.
        config, state, fstats, tstats = _ann_fixture()
        path = tmp_path / "model.json"
        save_model(path, state, fstats, tstats, config=config)
        streamed = tmp_path / "streamed.json"
        with open(streamed, "w", encoding="utf-8") as handle:
            json.dump(json.loads(path.read_text(encoding="utf-8")), handle,
                      sort_keys=True, separators=(",", ":"))
            handle.write("\n")
        assert path.read_bytes() == streamed.read_bytes()


    def test_bytes_match_the_pinned_file(self, tmp_path):
        # data/kinds_model.json was written by an earlier save_model, so the
        # bytes stay fixed however the kinds are serialized.
        config, state, fstats, tstats = _kinds_fixture()
        path = tmp_path / "model.json"
        save_model(path, state, fstats, tstats, config=config)
        pinned = Path(__file__).parent / "data" / "kinds_model.json"
        assert path.read_bytes() == pinned.read_bytes()


class TestStatsTransport:
    def test_memory_and_file_paths_agree(self, tmp_path):
        # Predictions must not depend on whether the normalization stats
        # travel in memory or through the saved file.
        from regkit.model_io import LoadedModel

        rng = np.random.default_rng(3)
        model = OlsModel(rng.normal(size=(1, 3)))
        fstats = _stats(("a", "b"), [1.0, -2.0], [0.5, 4.0])
        tstats = _stats(("y",), [10.0], [3.0])
        in_memory = LoadedModel("ols", fstats, tstats, ols=model)
        path = tmp_path / "model.json"
        save_model(path, model, fstats, tstats)
        from_file = load_model(path)
        rows = rng.normal(size=(6, 2))
        np.testing.assert_allclose(
            predict_rows(in_memory, rows), predict_rows(from_file, rows), atol=1e-12
        )


class TestRejection:
    def test_truncated_file(self, tmp_path):
        config, state, fstats, tstats = _ann_fixture()
        path = tmp_path / "model.json"
        save_model(path, state, fstats, tstats, config=config)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(ModelFormatError, match="JSON"):
            load_model(path)

    @pytest.mark.parametrize("raw, message", [
        (b"\xff\xfe{}", r"not UTF-8 text \(byte 0xff: "),
        (b"[" * 100_000 + b"]" * 100_000, r"not valid JSON \(maximum recursion depth"),
        (b'{"format_version": ' + b"1" * 5000 + b"}", r"not valid JSON \(Exceeds the limit"),
    ], ids=["not-utf8", "nested-100000-deep", "5000-digit-integer"])
    def test_file_the_json_reader_cannot_read_rejected(self, tmp_path, raw, message):
        path = tmp_path / "model.json"
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_version_bump_rejected(self, tmp_path):
        config, state, fstats, tstats = _ann_fixture()
        path = tmp_path / "model.json"
        save_model(path, state, fstats, tstats, config=config)
        doc = json.loads(path.read_text())
        doc["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        model = OlsModel(rng.normal(size=(1, 3)))
        path = tmp_path / "model.json"
        save_model(path, model, _stats(("a", "b"), [0, 0], [1, 1]), _stats(("y",), [0], [1]))
        doc = json.loads(path.read_text())
        doc["ols"]["coefficients"] = doc["ols"]["coefficients"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="coefficients"):
            load_model(path)

    def test_missing_block_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": FORMAT_VERSION}))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        config, state, fstats, tstats = _ann_fixture()
        path = tmp_path / "model.json"
        save_model(path, state, fstats, tstats, config=config)
        doc = json.loads(path.read_text())
        doc["model_kind"] = "forest"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="model_kind"):
            load_model(path)


class TestDishonestValues:
    """Values json accepts that no saved model holds: NaN, inf, strings."""

    @staticmethod
    def _ols_doc(tmp_path):
        model = OlsModel(np.array([[0.5, -1.0, 2.0]]))
        path = tmp_path / "model.json"
        save_model(path, model, _stats(("a", "b"), [0, 0], [1, 1]), _stats(("y",), [0], [1]))
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("block, field, value", [
        ("features", "mean", float("nan")),
        ("features", "std", float("nan")),
        ("targets", "mean", float("-inf")),
        ("targets", "std", float("inf")),
        ("targets", "std", 10**400),  # an integer past the float range
    ])
    def test_non_finite_normalization_rejected(self, tmp_path, block, field, value):
        path, doc = self._ols_doc(tmp_path)
        doc["normalization"][block][field][0] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"{field}: values must be finite"):
            load_model(path)

    def test_string_coefficient_rejected(self, tmp_path):
        path, doc = self._ols_doc(tmp_path)
        doc["ols"]["coefficients"][0] = "1"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="coefficients: expected a list of numbers"):
            load_model(path)

    @pytest.mark.parametrize("field", ["weights", "biases"])
    def test_non_finite_network_parameter_rejected(self, tmp_path, field):
        config, state, fstats, tstats = _ann_fixture()
        path = tmp_path / "model.json"
        save_model(path, state, fstats, tstats, config=config)
        doc = json.loads(path.read_text())
        doc["ann"]["layers"][1][field][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"layer 2 {field}: values must be finite"):
            load_model(path)


    @pytest.mark.parametrize("value, message", [
        (float("nan"), "leaky_relu beta must be finite"),
        (float("inf"), "leaky_relu beta must be finite"),
        (float("-inf"), "leaky_relu beta must be finite"),
        (10**400, "int too large"),
        (True, "layer 2 beta: expected a number"),
        ("0.3", "layer 2 beta: expected a number"),
        (None, "layer 2 beta: expected a number"),
    ], ids=["nan", "inf", "-inf", "int-1e400", "true", "string", "null"])
    def test_activation_beta_must_be_a_finite_number(self, tmp_path, value, message):
        config, state, fstats, tstats = _ann_fixture()
        path = tmp_path / "model.json"
        save_model(path, state, fstats, tstats, config=config)
        doc = json.loads(path.read_text())
        doc["ann"]["layers"][1]["activation"]["beta"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize("field, value, message", [
        ("gamma", float("nan"), "learning rate must be a finite number > 0"),
        ("gamma", float("inf"), "learning rate must be a finite number > 0"),
        ("gamma", 10**400, "int too large"),
        ("eps", float("inf"), "eps must be a finite number > 0"),
    ], ids=["gamma-nan", "gamma-inf", "gamma-int-1e400", "eps-inf"])
    def test_optimizer_parameter_must_be_finite(self, tmp_path, field, value, message):
        config, state, fstats, tstats = _ann_fixture()
        path = tmp_path / "model.json"
        save_model(path, state, fstats, tstats, config=config)
        doc = json.loads(path.read_text())
        doc["ann"]["optimizer"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"malformed model file \\({message}"):
            load_model(path)

    @pytest.mark.parametrize("field", ["gamma", "mu", "rho", "beta1", "beta2", "eps"])
    @pytest.mark.parametrize("value", ["0.3", True, None, [0.3]],
                             ids=["string", "true", "null", "list"])
    def test_optimizer_parameter_must_be_a_json_number(self, tmp_path, field, value):
        config, state, fstats, tstats = _ann_fixture()
        path = tmp_path / "model.json"
        save_model(path, state, fstats, tstats, config=config)
        doc = json.loads(path.read_text())
        doc["ann"]["optimizer"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"optimizer {field}: expected a number"):
            load_model(path)

    @pytest.mark.parametrize("block", ["activation", "optimizer"])
    def test_block_that_is_not_an_object_rejected(self, tmp_path, block):
        config, state, fstats, tstats = _ann_fixture()
        path = tmp_path / "model.json"
        save_model(path, state, fstats, tstats, config=config)
        doc = json.loads(path.read_text())
        if block == "activation":
            doc["ann"]["layers"][0]["activation"] = 5
        else:
            doc["ann"]["optimizer"] = ["adam"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"{block}: expected a JSON object"):
            load_model(path)


class TestModelWidths:
    """Widths must be JSON integers >= 1 that match the normalization blocks."""

    @staticmethod
    def _saved(tmp_path, kind):
        path = tmp_path / "model.json"
        if kind == "ols":
            model = OlsModel(np.random.default_rng(3).normal(size=(2, 4)))
            save_model(path, model, _stats(("a", "b", "c"), [0, 0, 0], [1, 1, 1]),
                       _stats(("y", "z"), [0, 0], [1, 1]))
        else:
            config, state, fstats, tstats = _ann_fixture()
            save_model(path, state, fstats, tstats, config=config)
        return path, json.loads(path.read_text())

    def _rejects(self, path, doc, match):
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)

    @pytest.mark.parametrize("value", [0, -1, 1.9, 2.0, True, "2", None, [2]])
    @pytest.mark.parametrize("field", ["input_dim", "units", "rows", "cols"])
    def test_non_integer_or_non_positive_width_rejected(self, tmp_path, field, value):
        path, doc = self._saved(tmp_path, "ann" if field in ("input_dim", "units") else "ols")
        block = doc["ann"]["layers"][1] if field == "units" else doc.get("ann", doc.get("ols"))
        block[field] = value
        self._rejects(path, doc, "expected an integer >= 1|malformed")

    @pytest.mark.parametrize("value", [-1, 1.9, 2.0, True, "12", None, [1]])
    def test_seed_must_be_a_non_negative_integer(self, tmp_path, value):
        path, doc = self._saved(tmp_path, "ann")
        doc["ann"]["seed"] = value
        self._rejects(path, doc, f"seed: expected an integer >= 0, got {re.escape(repr(value))}")

    def test_seed_zero_loads(self, tmp_path):
        path, doc = self._saved(tmp_path, "ann")
        doc["ann"]["seed"] = 0
        path.write_text(json.dumps(doc))
        assert load_model(path).seed == 0

    def test_zero_unit_hidden_layer_with_empty_weights_rejected(self, tmp_path):
        path, doc = self._saved(tmp_path, "ann")
        layers = doc["ann"]["layers"]
        layers[1].update(units=0, weights=[], biases=[])
        layers[2]["weights"] = []
        self._rejects(path, doc, r"layer 2 units: expected an integer >= 1, got 0")

    def test_fractional_units_rejected(self, tmp_path):
        path, doc = self._saved(tmp_path, "ann")
        doc["ann"]["layers"][2]["units"] = 1.9
        self._rejects(path, doc, r"layer 3 units: expected an integer >= 1, got 1\.9")

    @pytest.mark.parametrize("units", [1, 3])
    def test_output_units_must_match_the_target_columns(self, tmp_path, units):
        path, doc = self._saved(tmp_path, "ann")
        doc["normalization"]["targets"] = {"columns": ["y", "z"], "mean": [0, 0],
                                           "std": [1, 1]}
        last = doc["ann"]["layers"][-1]
        last.update(units=units, weights=[0.5] * (2 * units), biases=[0.0] * units)
        self._rejects(path, doc, f"layer 3 units is {units}, expected 2 for 2 target")

    def test_input_dim_must_match_the_feature_columns(self, tmp_path):
        path, doc = self._saved(tmp_path, "ann")
        doc["ann"]["input_dim"] = 2
        doc["ann"]["layers"][0]["weights"] = doc["ann"]["layers"][0]["weights"][:8]
        self._rejects(path, doc, "input_dim is 2, expected 3 for 3 feature columns")

    def test_ols_cols_must_be_the_feature_count_plus_one(self, tmp_path):
        path, doc = self._saved(tmp_path, "ols")
        doc["ols"].update(cols=3, coefficients=doc["ols"]["coefficients"][:6])
        self._rejects(path, doc, "ols cols is 3, expected 4 for 3 feature columns")

    def test_ols_rows_must_be_the_target_count(self, tmp_path):
        path, doc = self._saved(tmp_path, "ols")
        doc["ols"].update(rows=1, coefficients=doc["ols"]["coefficients"][:4])
        self._rejects(path, doc, "ols rows is 1, expected 2 for 2 target columns")

    @pytest.mark.parametrize("layers", [[], {}, "layers"])
    def test_layers_must_be_a_non_empty_list(self, tmp_path, layers):
        path, doc = self._saved(tmp_path, "ann")
        doc["ann"]["layers"] = layers
        self._rejects(path, doc, "layers must be a non-empty list")

    @pytest.mark.parametrize("block, columns", [
        ("features", ["a", "a", "c"]),  # duplicate
        ("features", ["a", "y", "c"]),  # also a target
        ("features", ["a", 2, "c"]),  # not a name
        ("features", "abc"),  # not a list
        ("targets", []),  # no target (and no mean) at all
    ])
    def test_bad_normalization_columns_rejected(self, tmp_path, block, columns):
        path, doc = self._saved(tmp_path, "ann")
        doc["normalization"][block]["columns"] = columns
        if not columns:
            doc["normalization"][block].update(mean=[], std=[])
        self._rejects(path, doc, "normalization")
