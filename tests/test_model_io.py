import json

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


class TestOlsRoundTrip:
    def test_predictions_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        model = OlsModel(rng.normal(size=(2, 4)))
        fstats = _stats(("a", "b", "c"), rng.normal(size=3), [1.0, 2.0, 0.5])
        tstats = _stats(("u", "v"), rng.normal(size=2), [3.0, 0.25])
        path = tmp_path / "model.json"
        save_model(path, model, fstats, tstats)
        loaded = load_model(path)
        assert loaded.kind == "ols"
        np.testing.assert_array_equal(loaded.ols.b, model.b)
        rows = rng.normal(size=(5, 3))
        design = np.hstack([(rows - fstats.mean) / fstats.std, np.ones((5, 1))])
        expected = (model.b @ design.T).T * tstats.std + tstats.mean
        np.testing.assert_array_equal(predict_rows(loaded, rows), expected)


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
