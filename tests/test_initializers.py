import math

import numpy as np
import pytest

from regkit.initializers import (
    INITIALIZER_NAMES,
    InitializerKind,
    init_biases,
    init_weights,
    make_rng,
    parse_initializer,
)


class TestKinds:
    def test_parse_all_names(self):
        for name in INITIALIZER_NAMES:
            assert parse_initializer(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_initializer("orthogonal")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            InitializerKind("random_uniform", beta=-1.0)
        with pytest.raises(ValueError):
            InitializerKind("xavier", beta=0.1)

    @pytest.mark.parametrize("name, field", [("random_uniform", "beta"),
                                             ("random_normal", "sigma")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_parameters_must_be_finite(self, name, field, value):
        with pytest.raises(ValueError, match="finite number > 0"):
            InitializerKind(name, **{field: value})


class TestWeights:
    def test_shape_is_fanout_by_fanin(self):
        w = init_weights(InitializerKind("xavier"), 3, 5, make_rng(0))
        assert w.shape == (5, 3)

    def test_same_seed_bit_identical(self):
        for name in INITIALIZER_NAMES:
            kind = InitializerKind(name)
            a = init_weights(kind, 4, 4, make_rng(123))
            b = init_weights(kind, 4, 4, make_rng(123))
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        kind = InitializerKind("xavier")
        a = init_weights(kind, 4, 4, make_rng(1))
        b = init_weights(kind, 4, 4, make_rng(2))
        assert not np.array_equal(a, b)

    def test_xavier_bound_three_by_three(self):
        bound = math.sqrt(6.0) / (2.0 * math.sqrt(3.0))  # ~0.7071
        w = init_weights(InitializerKind("xavier"), 3, 3, make_rng(5))
        assert np.all(np.abs(w) < bound)

    def test_kaiming_uniform_bound_fan_in_six(self):
        w = init_weights(InitializerKind("kaiming_uniform"), 6, 4, make_rng(6))
        assert np.all(np.abs(w) < 1.0)

    def test_uniform_bounds_hold_over_many_draws(self):
        # 10^5 samples must stay strictly inside the scheme's interval.
        fan_in, fan_out = 20, 5000  # 10^5 entries
        xavier = init_weights(InitializerKind("xavier"), fan_in, fan_out, make_rng(7))
        limit = math.sqrt(6.0) / (math.sqrt(fan_in) + math.sqrt(fan_out))
        assert np.all(np.abs(xavier) < limit)
        kaiming = init_weights(InitializerKind("kaiming_uniform"), fan_in, fan_out, make_rng(8))
        assert np.all(np.abs(kaiming) < math.sqrt(6.0 / fan_in))

    def test_lecun_variance_close_to_reciprocal_fan_in(self):
        fan_in = 25
        w = init_weights(InitializerKind("lecun"), fan_in, 4000, make_rng(9))
        var = float(np.var(w))
        assert 0.8 / fan_in <= var <= 1.2 / fan_in

    def test_kaiming_normal_variance(self):
        fan_in = 10
        w = init_weights(InitializerKind("kaiming_normal"), fan_in, 10000, make_rng(10))
        assert np.var(w) == pytest.approx(2.0 / fan_in, rel=0.2)

    def test_random_uniform_and_normal_scales(self):
        w = init_weights(InitializerKind("random_uniform", beta=0.5), 10, 1000, make_rng(11))
        assert np.all(np.abs(w) < 0.5)
        w = init_weights(InitializerKind("random_normal", sigma=2.0), 10, 1000, make_rng(12))
        assert np.var(w) == pytest.approx(4.0, rel=0.2)

    def test_bad_fans_rejected(self):
        with pytest.raises(ValueError):
            init_weights(InitializerKind("xavier"), 0, 3, make_rng(0))


class TestBiases:
    def test_zero_column(self):
        b = init_biases(4)
        assert b.shape == (4, 1)
        np.testing.assert_array_equal(b, np.zeros((4, 1)))

    def test_length_one(self):
        np.testing.assert_array_equal(init_biases(1), [[0.0]])

    def test_additive_identity_in_affine_map(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(3, 2))
        z = rng.normal(size=(2, 5))
        np.testing.assert_array_equal(w @ z + init_biases(3), w @ z)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            init_biases(0)
