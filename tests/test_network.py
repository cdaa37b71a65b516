import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import regkit.network
from oracles import gradient_errors, numeric_network_gradients
from regkit.activations import (
    _BLOCK_BYTES,
    ACTIVATION_NAMES,
    ActivationKind,
    apply_matrix,
    jacobian_product,
)
from regkit.data import NormalizationStats
from regkit.errors import DivergenceError, ShapeError
from regkit.initializers import InitializerKind
from regkit.losses import LOSS_NAMES, LossKind, loss_gradient
from regkit.model_io import LoadedModel
from regkit.network import (
    STOP_MAX_EPOCHS,
    STOP_TOLERANCE,
    LayerSpec,
    NetworkConfig,
    _backward_pass,
    batch_validation_loss,
    forward,
    gradient_check,
    hidden_delta,
    init_network,
    layer_gradients,
    output_delta,
    predict,
    train,
)
from regkit.ols import OlsModel
from regkit.optimizers import OPTIMIZER_NAMES, OptimizerKind, fresh_state, optimizer_step

ELEMENTWISE = [name for name in ACTIVATION_NAMES if name != "softmax"]


def _config(layers, loss="mse", optimizer="gd", init="xavier", epochs=10,
            tolerance=1e-12, seed=0):
    specs = tuple(LayerSpec(q, ActivationKind(a)) for q, a in layers)
    return NetworkConfig(
        layer_specs=specs,
        loss=LossKind(loss),
        optimizer=OptimizerKind(optimizer),
        initializer=InitializerKind(init),
        max_epochs=epochs,
        tolerance=tolerance,
        seed=seed,
    )


def _sine_data(rng, n_train, n_val):
    xt = rng.uniform(0.0, 1.0, (1, n_train))
    xv = rng.uniform(0.0, 1.0, (1, n_val))
    return xt, np.sin(2 * np.pi * xt), xv, np.sin(2 * np.pi * xv)


class TestInit:
    def test_same_seed_bit_identical(self):
        config = _config([(4, "swish"), (2, "identity")], seed=42)
        a = init_network(config, 3)
        b = init_network(config, 3)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_shape_chain(self):
        state = init_network(_config([(4, "relu"), (3, "sigmoid"), (2, "identity")]), 5)
        assert [w.shape for w in state.weights] == [(4, 5), (3, 4), (2, 3)]
        assert [b.shape for b in state.biases] == [(4, 1), (3, 1), (2, 1)]

    def test_biases_start_at_zero(self):
        state = init_network(_config([(4, "relu"), (1, "identity")]), 2)
        for b in state.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_layers_get_distinct_streams(self):
        state = init_network(_config([(3, "relu"), (3, "relu")]), 3)
        assert not np.array_equal(state.weights[0], state.weights[1])

    def test_epoch_counter_starts_at_one(self):
        assert init_network(_config([(1, "identity")]), 1).epoch == 1


class TestForward:
    def test_zero_weights_relu_gives_zero(self):
        state = init_network(_config([(3, "relu"), (2, "relu")]), 2)
        for w in state.weights:
            w[:] = 0.0
        cache = forward(state, np.random.default_rng(0).normal(size=(2, 6)))
        # Each hidden Z block ends with the ones row the next product reads.
        hidden, out = cache.activations
        np.testing.assert_array_equal(hidden, [[0.0] * 6] * 3 + [[1.0] * 6])
        np.testing.assert_array_equal(out, np.zeros((2, 6)))

    def test_single_identity_layer_is_affine(self):
        state = init_network(_config([(1, "identity")]), 2)
        state.weights[0][:] = [[2.0, 0.0]]
        state.biases[0][:] = [[1.0]]
        cache = forward(state, np.array([[0.0, 1.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(cache.activations[-1], [[1.0, 3.0, 7.0]])

    def test_column_count_preserved(self):
        state = init_network(_config([(4, "swish"), (2, "sigmoid")]), 3)
        cache = forward(state, np.ones((3, 11)))
        assert all(z.shape[1] == 11 for z in cache.activations)
        assert all(j.shape[1] == 11 for j in cache.derivatives)

    @pytest.mark.parametrize("name", ACTIVATION_NAMES)
    def test_cache_holds_apply_and_derivative_matrix(self, name):
        state = init_network(_config([(4, name), (3, name)]), 2)
        cache = forward(state, np.random.default_rng(1).normal(scale=3.0, size=(2, 6)))
        kind = ActivationKind(name)
        z_prev = cache.z0
        for block, z, j in zip(state.blocks, cache.activations, cache.derivatives):
            s = block @ z_prev
            _assert_same_bits(z[:block.shape[0]], apply_matrix(kind, s))
            if name in ("identity", "softmax"):
                assert j is None
            else:
                _assert_same_bits(j, jacobian_product(kind, s, np.ones_like(s)))
            z_prev = z

    def test_wrong_row_count_rejected(self):
        state = init_network(_config([(2, "relu")]), 3)
        with pytest.raises(ShapeError):
            forward(state, np.ones((4, 2)))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_names_layer(self):
        state = init_network(_config([(2, "identity"), (1, "identity")]), 1)
        state.weights[1][:] = 1e308
        with pytest.raises(DivergenceError, match="layer 2"):
            forward(state, np.full((1, 2), 1e9))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("name", ["identity", "swish"])
    @pytest.mark.parametrize("row", [1, 5])
    @pytest.mark.parametrize("cols", [3, _BLOCK_BYTES // 8 + 1])
    def test_divergence_in_any_row_is_caught(self, name, row, cols):
        # The finite check runs per row block: 3 columns put all six rows in
        # one block, a row wider than a block puts each row in its own.
        state = init_network(_config([(6, name), (1, "identity")]), 1)
        state.weights[0][row] = 1e308
        with pytest.raises(DivergenceError, match="layer 1"):
            forward(state, np.full((1, cols), 1e9))

    def test_large_finite_entry_does_not_raise(self):
        # A check by the sum of squares would overflow here.
        state = _with_weight_row([(6, "swish"), (1, "identity")], 2, 1e200)
        cache = forward(state, np.ones((1, 3)))
        assert cache.activations[0][2, 0] == 1e200

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 5, 11])  # the first, a middle and the last row block
    def test_non_finite_entry_in_any_row_block_raises(self, value, row):
        state = _with_weight_row([(12, "swish"), (1, "identity")], row, value)
        with pytest.raises(DivergenceError, match="^non-finite pre-activations in layer 1$"):
            forward(state, np.ones((1, TestPredict.COLS)))


def _with_weight_row(layers, row, value):
    """A network whose first layer's S has ``value`` in row ``row`` for an input of ones."""
    state = init_network(_config(layers), 1)
    state.weights[0][row] = value
    return state


class TestPredict:
    def test_matches_forward_bit_exactly(self):
        state = init_network(_config([(4, "swish"), (2, "softmax")]), 3)
        block = np.random.default_rng(2).normal(size=(3, 7))
        cache = forward(state, block)
        np.testing.assert_array_equal(predict(state, block), cache.activations[-1])

    def test_single_layer_affine(self):
        state = init_network(_config([(1, "identity")]), 1)
        state.weights[0][:] = [[2.0]]
        state.biases[0][:] = [[1.0]]
        np.testing.assert_allclose(predict(state, [[0.0, 2.0]]), [[1.0, 5.0]])

    # At this many columns a row block holds 4 rows of a layer block.
    COLS = _BLOCK_BYTES // (8 * 4)

    @pytest.mark.parametrize("name", ACTIVATION_NAMES)
    @pytest.mark.parametrize("units", [3, 4, 5])  # block rows - 1, block rows, + 1
    def test_bit_identical_to_the_unblocked_reference(self, name, units):
        # Every layer of the kind named, so softmax runs as a hidden and as
        # the output layer.  The input is Fortran-ordered, as predict_rows
        # passes its normalized rows transposed.
        rng = np.random.default_rng(30)
        state = init_network(_config([(units, name), (units, name), (2, name)]), 3)
        for b in state.biases:
            b[:] = rng.normal(size=b.shape)
        x = rng.normal(scale=3.0, size=(self.COLS, 3)).T
        assert x.flags.f_contiguous and not x.flags.c_contiguous
        _assert_same_bits(predict(state, x), _reference_predict(state, x))

    def test_mixed_kinds_bit_identical_to_the_unblocked_reference(self):
        rng = np.random.default_rng(31)
        config = _config([(6, "swish"), (5, "softmax"), (5, "elu"), (4, "sigmoid"),
                          (3, "leaky_relu"), (2, "identity")])
        state = init_network(config, 3)
        for b in state.biases:
            b[:] = rng.normal(size=b.shape)
        x = rng.normal(scale=3.0, size=(3, 13))
        _assert_same_bits(predict(state, x), _reference_predict(state, x))

    def test_peak_memory_is_about_two_layer_blocks(self):
        # ann-wide's shape: two 256-unit swish layers over 5,000 columns.  Each
        # layer's Z is written over its S, so the pass holds the layer's block
        # and the one below it, plus a row block's scratch.
        rng = np.random.default_rng(32)
        state = init_network(_config([(256, "swish"), (256, "swish"), (1, "identity")]), 32)
        x = rng.normal(size=(5000, 32)).T
        block = 256 * 5000 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            predict(state, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert 2 * block <= peak <= 2.2 * block, peak / block

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("name", ["identity", "sigmoid", "swish"])
    def test_divergence_names_the_layer(self, name):
        # Row 4 of layer 2 lies in its second row block.
        state = init_network(_config([(5, name), (5, name), (1, "identity")]), 1)
        state.weights[1][4] = 1e308
        with pytest.raises(DivergenceError, match="^non-finite pre-activations in layer 2$"):
            predict(state, np.full((1, self.COLS), 1e9))

    def test_large_finite_entry_does_not_raise(self):
        state = _with_weight_row([(6, "swish"), (1, "identity")], 2, 1e200)
        x = np.ones((1, 3))
        _assert_same_bits(predict(state, x), forward(state, x).activations[-1])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 5, 11])  # the first, a middle and the last row block
    def test_non_finite_entry_in_any_row_block_raises(self, value, row):
        state = _with_weight_row([(12, "swish"), (1, "identity")], row, value)
        with pytest.raises(DivergenceError, match="^non-finite pre-activations in layer 1$"):
            predict(state, np.ones((1, self.COLS)))


def _with_ones(z):
    """``[Z; 1]``."""
    return np.vstack([z, np.ones((1, z.shape[1]))])


def _reference_predict(state, z):
    """Layer by layer ``apply_matrix(f, [W b] [Z_prev; 1])`` over whole blocks."""
    for block, act in zip(state.blocks, state.activations):
        z = apply_matrix(act, block @ _with_ones(z))
    return z


class TestOneLayerLoop:
    @given(layers=st.lists(st.tuples(st.integers(1, 6), st.sampled_from(ACTIVATION_NAMES)),
                           min_size=1, max_size=4),
           cols=st.one_of(st.integers(1, 9),
                          st.builds(lambda rows, side: _BLOCK_BYTES // (8 * rows) + side,
                                    st.integers(1, 6), st.integers(-1, 1))),
           seed=st.integers(0, 2**32 - 1))
    def test_predict_and_reused_forward_match_a_fresh_forward(self, layers, cols, seed):
        # At _BLOCK_BYTES // (8 * rows) columns a row block holds ``rows`` rows
        # of a layer block, and one column more holds fewer.
        rng = np.random.default_rng(seed)
        state = init_network(_config(layers, seed=int(rng.integers(0, 2**31))), 3)
        for b in state.biases:
            b[:] = rng.normal(size=b.shape)
        x = rng.normal(scale=3.0, size=(3, cols))
        fresh, z = forward(state, x), predict(state, x)
        _assert_same_bits(z, fresh.activations[-1])
        _assert_same_bits(z, _reference_predict(state, x))
        again = forward(state, rng.normal(size=(3, cols)))
        assert forward(state, x, out=again) is again
        for got, want in zip(again.activations + again.derivatives,
                             fresh.activations + fresh.derivatives):
            if want is None:
                assert got is None
            else:
                _assert_same_bits(got, want)


def _gamma(k, dtype):
    """Higham's ``gamma_k = k u / (1 - k u)`` for the unit roundoff u of ``dtype``."""
    u = np.finfo(dtype).eps / 2
    return k * u / (1 - k * u)


class TestOneProductError:
    @given(n=st.integers(1, 8),
           widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           cols=st.integers(1, 9),
           cancel=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_each_entry_of_s_is_within_gamma_of_a_longdouble_reference(self, n, widths, cols,
                                                                        cancel, seed):
        # Each entry of S = [W b] [Z; 1] is a dot product of length k = n + 1,
        # so it lies within gamma_k (|W| |Z| + |b|) of the exact value (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1)
        # in any summation order.  The reference adds its own gamma_k in
        # np.longdouble, which is no wider than float64 on some platforms.
        # Identity layers leave each S in the cache.  Entries span six decades
        # and both signs; with ``cancel`` layer 1's bias cancels its product
        # in column 0, so S there is tiny against |W| |Z| + |b|.
        rng = np.random.default_rng(seed)
        state = init_network(_config([(q, "identity") for q in widths]), n)

        def draw(shape):
            return rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-3, 4, shape)

        for block in state.blocks:
            block[...] = draw(block.shape)
        x = draw((n, cols))
        if cancel:
            exact = state.blocks[0][:, :-1].astype(np.longdouble) @ x[:, 0].astype(np.longdouble)
            state.blocks[0][:, -1] = -exact.astype(np.float64)
        cache = forward(state, x)
        z = cache.z0
        for block, out in zip(state.blocks, cache.activations):
            q, k = block.shape
            np.testing.assert_array_equal(z[-1], 1.0)
            exact = block.astype(np.longdouble) @ z.astype(np.longdouble)
            scale = np.abs(block).astype(np.longdouble) @ np.abs(z).astype(np.longdouble)
            bound = (_gamma(k, np.float64) + _gamma(k, np.longdouble)) * scale
            assert (np.abs(out[:q] - exact) <= bound).all()
            z = out


class TestValidationLoss:
    def test_zero_when_predictions_match(self):
        state = init_network(_config([(1, "identity")]), 1)
        state.weights[0][:] = [[1.0]]
        block = np.array([[1.0, 2.0, 3.0]])
        cache = forward(state, block)
        assert batch_validation_loss(cache, block[:, 2:], LossKind("mse")) == 0.0

    def test_single_column_equals_vector_loss(self):
        rng = np.random.default_rng(3)
        state = init_network(_config([(2, "sigmoid"), (2, "identity")]), 2)
        block = rng.normal(size=(2, 4))
        target = rng.normal(size=(2, 1))
        cache = forward(state, block)
        from regkit.losses import loss

        expected = loss(LossKind("mse"), cache.activations[-1][:, 3], target[:, 0])
        assert batch_validation_loss(cache, target, LossKind("mse")) == pytest.approx(expected)

    def test_mean_over_validation_columns(self):
        state = init_network(_config([(1, "identity")]), 1)
        state.weights[0][:] = [[1.0]]
        state.biases[0][:] = [[0.0]]
        block = np.array([[1.0, 2.0, 3.0, 4.0]])
        targets = np.array([[2.0, 6.0]])  # residuals 1 and 2 -> mse 1 and 4
        cache = forward(state, block)
        assert batch_validation_loss(cache, targets, LossKind("mse")) == pytest.approx(2.5)


class TestDeltas:
    def test_mse_identity_output_delta(self):
        rng = np.random.default_rng(4)
        state = init_network(_config([(3, "swish"), (2, "identity")]), 2)
        block = rng.normal(size=(2, 6))
        targets = rng.normal(size=(2, 4))
        cache = forward(state, block)
        delta = output_delta(cache, targets, LossKind("mse"), ActivationKind("identity"))
        expected = (2.0 / 2) * (cache.activations[-1][:, :4] - targets)
        np.testing.assert_allclose(delta, expected, atol=1e-14)
        assert delta.shape == (2, 4)

    def test_zero_residual_gives_zero_delta(self):
        rng = np.random.default_rng(5)
        state = init_network(_config([(2, "identity")]), 2)
        block = rng.normal(size=(2, 3))
        cache = forward(state, block)
        delta = output_delta(
            cache, cache.activations[-1], LossKind("mse"), ActivationKind("identity")
        )
        np.testing.assert_array_equal(delta, np.zeros((2, 3)))

    def test_hidden_delta_annihilated_by_zero_weights(self):
        delta = hidden_delta(
            np.ones((3, 4)), np.zeros((3, 2)), np.ones((2, 4)), ActivationKind("sigmoid")
        )
        np.testing.assert_array_equal(delta, np.zeros((2, 4)))

    def test_hidden_delta_identity_is_plain_transpose_product(self):
        rng = np.random.default_rng(6)
        d_next = rng.normal(size=(3, 5))
        w_next = rng.normal(size=(3, 2))
        delta = hidden_delta(d_next, w_next, None, ActivationKind("identity"))
        np.testing.assert_allclose(delta, w_next.T @ d_next)

    def test_hidden_delta_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hidden_delta(np.ones((3, 4)), np.ones((2, 2)), np.ones((2, 4)),
                         ActivationKind("relu"))


class TestLayerGradients:
    # layer_gradients takes the training columns of [Z_prev; 1] and returns
    # the gradient of [W b], whose last column is the bias gradient.
    def test_zero_delta_zero_gradients(self):
        grad = layer_gradients(np.zeros((3, 5)), np.ones((3, 5)))
        np.testing.assert_array_equal(grad, np.zeros((3, 3)))

    def test_single_sample_is_outer_product(self):
        rng = np.random.default_rng(7)
        delta = rng.normal(size=(3, 1))
        z_prev = rng.normal(size=(2, 1))
        grad = layer_gradients(delta, _with_ones(z_prev))
        np.testing.assert_allclose(grad[:, :-1], delta @ z_prev.T)
        np.testing.assert_allclose(grad[:, -1:], delta)

    def test_average_over_samples(self):
        delta = np.array([[1.0, 3.0]])
        z_prev = np.array([[2.0, 4.0]])
        grad = layer_gradients(delta, _with_ones(z_prev))
        np.testing.assert_allclose(grad, [[(1 * 2 + 3 * 4) / 2, 2.0]])

    def test_column_count_mismatch(self):
        with pytest.raises(ShapeError):
            layer_gradients(np.ones((2, 3)), np.ones((2, 4)))


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_smooth_networks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        widths = [int(rng.integers(1, 6)) for _ in range(k)]
        p = int(rng.integers(1, 9))
        layers = [(q, str(rng.choice(("sigmoid", "swish", "identity")))) for q in widths]
        loss_name = str(rng.choice(("mse", "log_cosh")))
        config = _config(layers, loss=loss_name, seed=seed)
        state = init_network(config, n)
        features = rng.uniform(-1, 1, (n, p))
        targets = rng.uniform(-1, 1, (widths[-1], p))

        cache = forward(state, features)
        analytic = _backward_pass(state, cache, targets, config.loss)
        numeric = numeric_network_gradients(state, config.loss, features, targets)
        for got, want in zip(analytic, numeric):
            assert gradient_errors(got, want).max() <= 1e-4

    def test_softmax_hidden_layer(self):
        rng = np.random.default_rng(100)
        config = _config([(4, "softmax"), (2, "identity")], loss="mse")
        state = init_network(config, 3)
        features = rng.uniform(-1, 1, (3, 5))
        targets = rng.uniform(-1, 1, (2, 5))
        cache = forward(state, features)
        analytic = _backward_pass(state, cache, targets, config.loss)
        numeric = numeric_network_gradients(state, config.loss, features, targets)
        for got, want in zip(analytic, numeric):
            assert gradient_errors(got, want).max() <= 1e-4

    def test_softmax_output_layer(self):
        rng = np.random.default_rng(101)
        config = _config([(3, "swish"), (4, "softmax")], loss="mse")
        state = init_network(config, 2)
        features = rng.uniform(-1, 1, (2, 6))
        targets = rng.uniform(0, 1, (4, 6))
        cache = forward(state, features)
        analytic = _backward_pass(state, cache, targets, config.loss)
        numeric = numeric_network_gradients(state, config.loss, features, targets)
        for got, want in zip(analytic, numeric):
            assert gradient_errors(got, want).max() <= 1e-4

    @given(widths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
           kinds=st.lists(st.sampled_from(ELEMENTWISE), min_size=3, max_size=3),
           softmax_at=st.one_of(st.none(), st.integers(0, 2)),
           loss=st.sampled_from(LOSS_NAMES),
           seed=st.integers(0, 2**32 - 1))
    def test_every_kind_and_loss_against_the_oracle(self, widths, kinds, softmax_at, loss,
                                                    seed):
        names = kinds[: len(widths)]
        if softmax_at is not None and softmax_at < len(widths):
            names[softmax_at] = "softmax"
        if loss in ("msle", "poisson") and names[-1] != "softmax":
            names[-1] = "sigmoid"  # predictions inside msle's domain, > -1
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        config = _config(list(zip(widths, names)), loss=loss, seed=int(rng.integers(0, 2**31)))
        state = init_network(config, n)
        # With zero biases, a sample whose relu units are all off gives the next
        # layer S = 0 exactly: the kink, where the left derivative 0 and central
        # differences' 0.5 disagree.
        for b in state.biases:
            b[:] = rng.uniform(0.05, 0.3, b.shape)
        features = rng.uniform(-1.0, 1.0, (n, p))
        targets = rng.uniform(0.2, 1.5, (widths[-1], p))  # inside every loss's domain
        analytic = _backward_pass(state, forward(state, features), targets, config.loss)
        numeric = numeric_network_gradients(state, config.loss, features, targets)
        for got, want in zip(analytic, numeric):
            assert gradient_errors(got, want).max() <= 1e-4

    def test_gradient_check_entry_point(self):
        assert gradient_check(seed=0, n_configs=5) <= 1e-4


class TestValidationIsolation:
    def test_gradients_ignore_validation_targets(self):
        rng = np.random.default_rng(8)
        config = _config([(3, "sigmoid"), (2, "identity")])
        state = init_network(config, 2)
        train_f = rng.normal(size=(2, 5))
        train_t = rng.normal(size=(2, 5))
        val_f = rng.normal(size=(2, 3))
        val_t = rng.normal(size=(2, 3))
        block = np.hstack([train_f, val_f])
        cache = forward(state, block)
        base_loss = batch_validation_loss(cache, val_t, config.loss)
        base_grads = _backward_pass(state, cache, train_t, config.loss)

        mutated = val_t + rng.normal(size=val_t.shape)
        new_loss = batch_validation_loss(cache, mutated, config.loss)
        new_grads = _backward_pass(state, cache, train_t, config.loss)

        assert new_loss != base_loss
        for g0, g1 in zip(base_grads, new_grads):
            np.testing.assert_array_equal(g0, g1)


def _assert_same_bits(actual, expected):
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def _reference_gradients(state, z0, targets, loss):
    """Backprop through the public ``jacobian_product`` at pre-activations
    recomputed here as ``[W b] [Z_prev; 1]``, with Z from ``apply_matrix``."""
    p = targets.shape[1]
    acts = state.activations
    pre, outs = [], [_with_ones(z0)]
    for block, act in zip(state.blocks, acts):
        pre.append(block @ outs[-1])
        outs.append(_with_ones(apply_matrix(act, pre[-1])))
    grad = loss_gradient(loss, outs[-1][:-1, :p], targets)
    delta = jacobian_product(acts[-1], pre[-1][:, :p], grad)
    grads = [None] * len(acts)
    for l in range(len(acts) - 1, -1, -1):
        grads[l] = (delta @ outs[l][:, :p].T) / p
        if l:
            upstream = state.weights[l].T @ delta
            delta = jacobian_product(acts[l - 1], pre[l - 1][:, :p], upstream)
    return grads


class TestCachedBackwardPass:
    @pytest.mark.parametrize("name", ACTIVATION_NAMES)
    def test_gradients_bit_identical_to_jacobian_product_reference(self, name):
        rng = np.random.default_rng(14)
        config = _config([(5, name), (4, name), (3, name)], seed=2)
        state = init_network(config, 3)
        z0 = rng.normal(scale=2.0, size=(3, 11))
        cache = forward(state, z0)
        targets = rng.normal(size=(3, 8))
        expected = _reference_gradients(state, z0, targets, config.loss)
        deltas = [np.full((w.shape[1], 8), np.nan) for w in state.weights[1:]]
        for grads in (_backward_pass(state, cache, targets, config.loss),
                      _backward_pass(state, cache, targets, config.loss, deltas=deltas),
                      _backward_pass(state, cache, targets, config.loss, deltas=deltas)):
            for got, want in zip(grads, expected):
                _assert_same_bits(got, want)

    @pytest.mark.parametrize("layers", [
        *([(5, name), (4, name), (3, name)] for name in ACTIVATION_NAMES),
        [(5, "swish"), (4, "softmax"), (4, "relu"), (3, "identity"), (2, "sigmoid")],
    ], ids=[*ACTIVATION_NAMES, "mixed"])
    def test_deltas_in_the_caches_own_z_columns_bit_identical(self, layers):
        # train's deltas: each hidden layer's delta overwrites the training
        # columns of its own cached Z (a softmax layer keeps a block of its own).
        rng = np.random.default_rng(16)
        config = _config(layers, seed=3)
        state = init_network(config, 3)
        z0 = rng.normal(scale=2.0, size=(3, 11))
        targets = rng.normal(size=(layers[-1][0], 8))
        expected = _backward_pass(state, forward(state, z0), targets, config.loss)
        cache = forward(state, z0)
        deltas = regkit.network._delta_blocks(state, cache, 8)
        for (_, act), z, d in zip(layers, cache.activations, deltas):
            assert np.shares_memory(z, d) == (act != "softmax")
        for _ in range(2):  # a second epoch reuses the cache and its delta views
            forward(state, z0, out=cache)
            grads = _backward_pass(state, cache, targets, config.loss, deltas=deltas)
            for got, want in zip(grads, expected):
                _assert_same_bits(got, want)

    def test_only_elementwise_kinds_cache_a_derivative(self):
        config = _config([(3, "swish"), (3, "relu"), (2, "softmax"), (2, "sigmoid"),
                          (1, "identity")])
        state = init_network(config, 2)
        cache = forward(state, np.ones((2, 4)))
        assert [j is None for j in cache.derivatives] == [False, False, True, False, True]
        blocks = [b for b in cache.activations + cache.derivatives if b is not None]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(blocks)
                       for b in blocks[i + 1:])

    def test_train_holds_one_epoch_cache_at_a_time(self):
        rng = np.random.default_rng(15)
        config = _config([(256, "swish"), (1, "identity")], epochs=3)
        state = init_network(config, 4)
        train_f, val_f = rng.normal(size=(4, 1600)), rng.normal(size=(4, 400))
        train_t, val_t = rng.normal(size=(1, 1600)), rng.normal(size=(1, 400))
        cache = forward(state, np.hstack([train_f, val_f]))
        blocks = cache.activations + cache.derivatives
        cache_bytes = sum(b.nbytes for b in blocks if b is not None)
        del cache, blocks
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, report = train(state, train_f, train_t, val_f, val_t, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.epochs_run == 3
        assert cache_bytes <= peak < 2 * cache_bytes


class TestReusedForwardBlocks:
    def test_forward_into_out_matches_a_fresh_forward(self):
        rng = np.random.default_rng(20)
        config = _config([(6, "swish"), (5, "relu"), (4, "softmax"), (4, "sigmoid"),
                          (2, "identity")])
        state = init_network(config, 3)
        prev = forward(state, rng.normal(size=(3, 9)))
        blocks = [prev.activations, prev.derivatives]
        ids = [[id(b) for b in group] for group in blocks]
        for w in state.weights:
            w += rng.normal(scale=0.1, size=w.shape)
        z0 = rng.normal(scale=3.0, size=(3, 9))
        fresh = forward(state, z0)
        again = forward(state, z0, out=prev)
        assert again is prev
        _assert_same_bits(again.z0, _with_ones(z0))
        assert [[id(b) for b in group] for group in blocks] == ids
        for got, want in zip(blocks, [fresh.activations, fresh.derivatives]):
            for g, w in zip(got, want):
                if w is None:
                    assert g is None
                else:
                    np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))

    def test_out_for_another_column_count_rejected(self):
        config = _config([(3, "swish"), (1, "identity")])
        state = init_network(config, 2)
        prev = forward(state, np.ones((2, 4)))
        with pytest.raises(ShapeError):
            forward(state, np.ones((2, 5)), out=prev)

    def test_epochs_after_the_first_reuse_the_cache(self, monkeypatch):
        # ann-wide's layer shape: 256 units over 4000 training and 1000 validation
        # columns.  A later epoch allocates only the kernels' scratch blocks and
        # the gradients, about a twentieth of one (256, 5000) block: the deltas
        # are allocated once, before the first epoch.
        rng = np.random.default_rng(21)
        config = _config([(256, "swish"), (1, "identity")], optimizer="adam", epochs=3)
        state = init_network(config, 4)
        train_f, val_f = rng.normal(size=(4, 4000)), rng.normal(size=(4, 1000))
        train_t, val_t = rng.normal(size=(1, 4000)), rng.normal(size=(1, 1000))
        block = 256 * 5000 * 8
        marks = []  # (traced bytes at an epoch's start, peak since the last start)
        real_forward = regkit.network.forward

        def marking_forward(*args, **kwargs):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(regkit.network, "forward", marking_forward)
        tracemalloc.start()
        try:
            _, report = train(state, train_f, train_t, val_f, val_t, config)
            marks.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert report.epochs_run == 3
        growth = [peak - start for (start, _), (_, peak) in zip(marks, marks[1:])]
        assert growth[0] >= 2 * block  # J and Z of the swish layer
        assert all(g < 0.1 * block for g in growth[1:]), [g / block for g in growth]


class TestStageSeams:
    def test_train_calls_each_stage_by_module_name_once_per_layer(self, monkeypatch):
        # perfbench's network.backward.s sums these three stages, patched on
        # regkit.network; a fit must keep calling all of them there.
        calls = {"output_delta": 0, "hidden_delta": 0, "layer_gradients": 0}
        for name in calls:
            real = getattr(regkit.network, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(regkit.network, name, counting)
        rng = np.random.default_rng(24)
        k, epochs = 4, 3
        config = _config([(5, "swish"), (4, "softmax"), (3, "relu"), (1, "identity")],
                         optimizer="adam", epochs=epochs)
        state = init_network(config, 2)
        _, report = train(state, rng.normal(size=(2, 12)), rng.normal(size=(1, 12)),
                          rng.normal(size=(2, 4)), rng.normal(size=(1, 4)), config)
        assert report.epochs_run == epochs
        assert calls == {"output_delta": epochs, "hidden_delta": (k - 1) * epochs,
                         "layer_gradients": k * epochs}


class TestTrainingMemory:
    # Two hidden swish layers of 64 units over 1600 training and 400 validation columns.
    LAYERS = [(64, "swish"), (64, "swish"), (1, "identity")]
    DELTA_BYTES = 64 * 1600 * 8  # one (q, p) block

    def _data(self):
        rng = np.random.default_rng(22)
        return (rng.normal(size=(4, 1600)), rng.normal(size=(1, 1600)),
                rng.normal(size=(4, 400)), rng.normal(size=(1, 400)))

    def test_cache_holds_two_blocks_per_elementwise_layer(self):
        state = init_network(_config(self.LAYERS), 4)
        cache = forward(state, np.random.default_rng(23).normal(size=(4, 2000)))
        held = [[b for b in pair if b is not None]
                for pair in zip(cache.activations, cache.derivatives)]
        assert [len(blocks) for blocks in held] == [2, 2, 1]
        # Both hidden Z blocks carry a ones row.
        assert sum(b.nbytes for blocks in held for b in blocks) == (4 * 64 + 3) * 2000 * 8

    def _train_peak(self, epochs):
        config = _config(self.LAYERS, optimizer="adam", epochs=epochs)
        state = init_network(config, 4)
        data = self._data()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, report = train(state, *data, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.epochs_run == epochs
        return peak

    def test_one_epoch_peaks_less_than_one_delta_block_above_the_cache(self):
        # The hidden deltas live in the cache's own Z columns, so a fit needs
        # the cache plus scratch, not one more (q, p) block per hidden layer.
        state = init_network(_config(self.LAYERS), 4)
        cache = forward(state, np.random.default_rng(23).normal(size=(4, 2000)))
        cache_bytes = sum(b.nbytes for b in cache.activations + cache.derivatives
                          if b is not None)
        del cache
        peak = self._train_peak(1)
        assert cache_bytes <= peak < cache_bytes + self.DELTA_BYTES, (
            (peak - cache_bytes) / self.DELTA_BYTES)

    def test_later_epochs_add_less_than_one_delta_block(self):
        one, two, six = (self._train_peak(epochs) for epochs in (1, 2, 6))
        assert six - two < self.DELTA_BYTES, (one, two, six)
        assert two - one < self.DELTA_BYTES, (one, two, six)


class TestTrain:
    def test_single_epoch_cap(self):
        rng = np.random.default_rng(9)
        config = _config([(2, "swish"), (1, "identity")], epochs=1, optimizer="adam")
        state = init_network(config, 1)
        xt, yt, xv, yv = _sine_data(rng, 10, 3)
        _, report = train(state, xt, yt, xv, yv, config)
        assert report.epochs_run == 1
        assert report.stop_reason == STOP_MAX_EPOCHS
        assert len(report.epoch_losses) == 1

    def test_huge_tolerance_stops_at_second_epoch(self):
        rng = np.random.default_rng(10)
        config = _config([(2, "swish"), (1, "identity")], epochs=100, tolerance=1e9,
                         optimizer="adam")
        state = init_network(config, 1)
        xt, yt, xv, yv = _sine_data(rng, 10, 3)
        _, report = train(state, xt, yt, xv, yv, config)
        assert report.epochs_run == 2
        assert report.stop_reason == STOP_TOLERANCE
        assert report.final_gap < 1e9

    def test_tiny_tolerance_runs_to_epoch_cap(self):
        rng = np.random.default_rng(11)
        config = _config([(2, "swish"), (1, "identity")], epochs=17, tolerance=1e-300,
                         optimizer="adam")
        state = init_network(config, 1)
        xt, yt, xv, yv = _sine_data(rng, 10, 3)
        _, report = train(state, xt, yt, xv, yv, config)
        assert report.epochs_run == 17
        assert report.stop_reason == STOP_MAX_EPOCHS

    def test_zero_tolerance_rejected(self):
        with pytest.raises(ValueError):
            _config([(1, "identity")], tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="finite number > 0"):
            _config([(1, "identity")], tolerance=tolerance)

    def test_stop_reason_invariants(self):
        rng = np.random.default_rng(12)
        config = _config([(3, "sigmoid"), (1, "identity")], epochs=200, tolerance=1e-9,
                         optimizer="adam")
        state = init_network(config, 1)
        xt, yt, xv, yv = _sine_data(rng, 12, 4)
        _, report = train(state, xt, yt, xv, yv, config)
        if report.stop_reason == STOP_TOLERANCE:
            assert report.final_gap < config.tolerance
        else:
            assert report.epochs_run == config.max_epochs

    def test_shapes_preserved_across_epochs(self):
        rng = np.random.default_rng(13)
        config = _config([(4, "swish"), (2, "sigmoid"), (1, "identity")], epochs=30,
                         optimizer="adam")
        state = init_network(config, 2)
        shapes = [w.shape for w in state.weights] + [b.shape for b in state.biases]
        xt = rng.normal(size=(2, 8))
        yt = rng.normal(size=(1, 8))
        xv = rng.normal(size=(2, 3))
        yv = rng.normal(size=(1, 3))
        state, _ = train(state, xt, yt, xv, yv, config)
        assert shapes == [w.shape for w in state.weights] + [b.shape for b in state.biases]
        for w in state.weights:
            assert np.isfinite(w).all()

    def test_training_reduces_validation_loss(self):
        rng = np.random.default_rng(14)
        config = _config([(4, "swish"), (1, "identity")], epochs=500, tolerance=1e-12,
                         optimizer="adam")
        state = init_network(config, 1)
        xt, yt, xv, yv = _sine_data(rng, 40, 10)
        _, report = train(state, xt, yt, xv, yv, config)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_target_shape_validation(self):
        config = _config([(1, "identity")], epochs=1)
        state = init_network(config, 1)
        with pytest.raises(ShapeError):
            train(state, np.ones((1, 4)), np.ones((2, 4)), np.ones((1, 2)),
                  np.ones((2, 2)), config)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reports_epoch(self):
        config = _config([(2, "identity"), (1, "identity")], epochs=5)
        state = init_network(config, 1)
        state.weights[0][:] = 1e200
        state.weights[1][:] = 1e200
        with pytest.raises(DivergenceError, match="epoch 1") as info:
            train(state, np.ones((1, 4)), np.ones((1, 4)), np.ones((1, 2)),
                  np.ones((1, 2)), config)
        assert info.value.iteration == 1

    @pytest.mark.parametrize("target", [np.nan, np.inf])
    def test_non_finite_validation_loss_raises(self, target):
        # A NaN loss made every gap comparison false, and two inf losses a NaN
        # gap: either way training stopped with "max-epochs" and no error.
        rng = np.random.default_rng(16)
        config = _config([(3, "swish"), (1, "identity")], optimizer="adam", epochs=5)
        state = init_network(config, 2)
        with pytest.raises(DivergenceError,
                           match="^epoch 1: validation loss is not finite$") as info:
            train(state, rng.normal(size=(2, 6)), rng.normal(size=(1, 6)),
                  rng.normal(size=(2, 1)), [[target]], config)
        assert info.value.iteration == 1

    def test_one_layer_identity_follows_ols_descent_direction(self):
        # A 1-layer identity network with mse takes gradients proportional
        # to the least-squares gradient 2 (B Z - Y X): factor 1/(p m).
        rng = np.random.default_rng(15)
        n, m, p = 3, 2, 6
        config = _config([(m, "identity")], epochs=1)
        state = init_network(config, n)
        features = rng.normal(size=(n, p))
        targets = rng.normal(size=(m, p))

        cache = forward(state, features)
        network_grad, = _backward_pass(state, cache, targets, config.loss)

        design = np.hstack([features.T, np.ones((p, 1))])  # p x (n+1)
        b_full = np.hstack([state.weights[0], state.biases[0]])  # m x (n+1)
        z = design.T @ design
        k = targets @ design
        ols_grad = 2.0 * (b_full @ z - k)
        np.testing.assert_allclose(network_grad, ols_grad / (p * m), atol=1e-10)


class TestConfigValidation:
    def test_rejects_empty_layer_list(self):
        with pytest.raises(ValueError):
            NetworkConfig((), LossKind("mse"), OptimizerKind("gd"),
                          InitializerKind("xavier"), 10, 1e-8, 0)

    def test_rejects_nonpositive_units(self):
        with pytest.raises(ValueError):
            LayerSpec(0, ActivationKind("relu"))


def _train_by_separate_steps(state, data, config, epochs):
    """``epochs`` updates with one optimizer state and one step each for
    the W and the b of every layer, written through the views."""
    xt, yt, xv, _ = data
    z0 = np.hstack([xt, xv])
    moments = [[fresh_state(config.optimizer, param.shape) for param in pair]
               for pair in zip(state.weights, state.biases)]
    for _ in range(epochs):
        grads = _backward_pass(state, forward(state, z0), yt, config.loss)
        for l, block in enumerate(grads):
            pair = block[:, :-1], block[:, -1:]
            for i, (param, grad) in enumerate(zip((state.weights[l], state.biases[l]), pair)):
                param[...], moments[l][i] = optimizer_step(
                    config.optimizer, moments[l][i], param, grad)


def _same_state(a, b):
    assert len(a.blocks) == len(b.blocks)
    for block_a, block_b in zip(a.blocks, b.blocks):
        _assert_same_bits(block_a, block_b)


class TestOneBlockPerLayer:
    # Layers 1 and 2 have blocks of the same shape, (3, 4).
    LAYERS = [(3, "swish"), (3, "sigmoid"), (2, "identity")]

    def _data(self, n=3, m=2):
        rng = np.random.default_rng(37)
        return (rng.normal(size=(n, 10)), rng.normal(size=(m, 10)),
                rng.normal(size=(n, 4)), rng.normal(size=(m, 4)))

    def test_weights_and_biases_view_the_blocks_before_and_after_train(self):
        config = _config(self.LAYERS, optimizer="adam", epochs=3)
        state = init_network(config, 3)
        for when in ("before", "after"):
            assert [b.shape for b in state.blocks] == [(3, 4), (3, 4), (2, 4)], when
            for block, w, b in zip(state.blocks, state.weights, state.biases):
                assert np.shares_memory(w, block) and np.shares_memory(b, block), when
                _assert_same_bits(np.hstack([w, b]), block)
            train(state, *self._data(), config)

    @pytest.mark.parametrize("optimizer", OPTIMIZER_NAMES)
    def test_one_step_per_block_is_separate_steps_on_w_and_b(self, optimizer):
        config = _config(self.LAYERS, optimizer=optimizer, epochs=4)
        state, expected = init_network(config, 3), init_network(config, 3)
        _, report = train(state, *self._data(), config)
        assert report.epochs_run == 4
        _train_by_separate_steps(expected, self._data(), config, 4)
        _same_state(state, expected)

    def test_state_made_for_another_optimizer_trains(self):
        config = _config(self.LAYERS, optimizer="adam", epochs=3)
        state = init_network(_config(self.LAYERS, optimizer="gd"), 3)
        expected = init_network(config, 3)
        train(state, *self._data(), config)
        train(expected, *self._data(), config)
        _same_state(state, expected)

    def test_network_of_a_loaded_ols_model_trains(self):
        b = np.random.default_rng(38).normal(size=(2, 4))
        stats = NormalizationStats(("a", "b", "c"), np.zeros(3), np.ones(3))
        targets = NormalizationStats(("u", "v"), np.zeros(2), np.ones(2))
        state = LoadedModel("ols", stats, targets, ols=OlsModel(b)).network
        config = _config([(2, "identity")], optimizer="momentum", epochs=3)
        expected = init_network(config, 3)
        expected.weights[0][...], expected.biases[0][...] = b[:, :-1], b[:, -1:]
        train(state, *self._data(), config)
        train(expected, *self._data(), config)
        _same_state(state, expected)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_gradient_names_its_layer(self):
        config = _config([(1, "identity")], epochs=5)
        state = init_network(config, 1)
        # S = 1e153 and the validation loss are finite; grad W = 2e153 * 1e160 is not.
        state.weights[0][:] = 1e-7
        with pytest.raises(DivergenceError) as info:
            train(state, np.full((1, 4), 1e160), np.ones((1, 4)), np.ones((1, 2)),
                  np.ones((1, 2)), config)
        assert str(info.value) == "epoch 1: layer 1: gradient contains non-finite values"
        assert info.value.iteration == 1
