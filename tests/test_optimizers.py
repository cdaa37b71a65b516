import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from regkit.errors import DivergenceError, ShapeError
from regkit.optimizers import (
    OPTIMIZER_NAMES,
    OptimizerKind,
    fresh_state,
    optimizer_step,
    parse_optimizer,
)


def _step_chain(kind, p0, grads):
    state = fresh_state(kind, p0.shape)
    p = p0
    for g in grads:
        p, state = optimizer_step(kind, state, p, g)
    return p, state


class TestKinds:
    def test_parse_all_names(self):
        for name in OPTIMIZER_NAMES:
            assert parse_optimizer(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_optimizer("lbfgs")

    def test_default_rates(self):
        assert OptimizerKind("gd").gamma == 0.01
        assert OptimizerKind("adam").gamma == 0.001

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            OptimizerKind("gd", gamma=-1.0)
        with pytest.raises(ValueError):
            OptimizerKind("momentum", mu=1.0)
        with pytest.raises(ValueError):
            OptimizerKind("adam", eps=0.0)

    @pytest.mark.parametrize("field", ["gamma", "eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_hyperparameters_must_be_finite(self, field, value):
        with pytest.raises(ValueError):
            OptimizerKind("adam", **{field: value})


class TestSteps:
    def test_gd_hand_computed(self):
        kind = OptimizerKind("gd", gamma=0.1)
        p, _ = optimizer_step(kind, fresh_state(kind, (1,)), np.array([1.0]), np.array([1.0]))
        np.testing.assert_allclose(p, [0.9])

    @pytest.mark.parametrize("name", ("gd", "momentum", "nesterov"))
    def test_zero_gradient_is_fixed_point(self, name):
        kind = OptimizerKind(name, gamma=0.1)
        p0 = np.array([[1.0, -2.0]])
        p, _ = optimizer_step(kind, fresh_state(kind, p0.shape), p0, np.zeros_like(p0))
        np.testing.assert_array_equal(p, p0)

    @pytest.mark.parametrize("name", ("adagrad", "rmsprop", "adam", "nadam"))
    def test_zero_gradient_moves_nothing_adaptive(self, name):
        kind = OptimizerKind(name)
        p0 = np.array([[1.0, -2.0]])
        p, _ = optimizer_step(kind, fresh_state(kind, p0.shape), p0, np.zeros_like(p0))
        np.testing.assert_array_equal(p, p0)

    def test_adam_first_step_hand_computed(self):
        # Bias correction makes the first ratio g/|g|, so the step is ~gamma.
        kind = OptimizerKind("adam", gamma=0.001)
        p, _ = optimizer_step(kind, fresh_state(kind, (1,)), np.array([1.0]), np.array([4.0]))
        np.testing.assert_allclose(p, [0.999], atol=1e-8)

    @pytest.mark.parametrize("name", ("adam", "nadam"))
    def test_adaptive_first_step_bounded_by_gamma(self, name):
        rng = np.random.default_rng(0)
        kind = OptimizerKind(name, gamma=0.001)
        for _ in range(20):
            g = rng.normal(size=(3, 2)) * 10.0 ** float(rng.integers(-3, 4))
            p0 = rng.normal(size=(3, 2))
            p, _ = optimizer_step(kind, fresh_state(kind, p0.shape), p0, g)
            assert np.max(np.abs(p - p0)) <= kind.gamma * (1.0 + 1e-6) * 2.0

    def test_momentum_accumulates(self):
        kind = OptimizerKind("momentum", gamma=0.1, mu=0.9)
        p, state = _step_chain(kind, np.array([0.0]), [np.array([1.0])] * 2)
        # v1 = 0.1, p1 = -0.1; v2 = 0.09 + 0.1 = 0.19, p2 = -0.29
        np.testing.assert_allclose(p, [-0.29])
        np.testing.assert_allclose(state.velocity, [0.19])

    def test_nesterov_lookahead_form(self):
        kind = OptimizerKind("nesterov", gamma=0.1, mu=0.9)
        p, _ = optimizer_step(kind, fresh_state(kind, (1,)), np.array([0.0]), np.array([1.0]))
        # v = 0.1; p - (mu v + gamma g) = -(0.09 + 0.1)
        np.testing.assert_allclose(p, [-0.19])

    def test_adagrad_accumulates_squares(self):
        kind = OptimizerKind("adagrad", gamma=1.0, eps=1e-8)
        p, state = _step_chain(kind, np.array([0.0]), [np.array([3.0]), np.array([4.0])])
        np.testing.assert_allclose(state.sq_accum, [25.0])
        expected = -3.0 / (3.0 + 1e-8) - 4.0 / (5.0 + 1e-8)
        np.testing.assert_allclose(p, [expected])

    def test_rmsprop_decays(self):
        kind = OptimizerKind("rmsprop", gamma=0.01, rho=0.9, eps=1e-8)
        _, state = _step_chain(kind, np.array([0.0]), [np.array([2.0])])
        np.testing.assert_allclose(state.sq_accum, [0.4])

    def test_nadam_differs_from_adam(self):
        grads = [np.array([1.0]), np.array([0.5])]
        p_adam, _ = _step_chain(OptimizerKind("adam"), np.array([0.0]), grads)
        p_nadam, _ = _step_chain(OptimizerKind("nadam"), np.array([0.0]), grads)
        assert p_adam[0] != p_nadam[0]

    def test_nadam_two_steps_hand_computed(self):
        # The implemented rule is the simplified Nadam of Ruder, "An overview of
        # gradient descent optimization algorithms" (2016):
        #   p -= gamma (beta1 m_hat + (1 - beta1) g / (1 - beta1^t)) / (sqrt(v_hat) + eps),
        # with m_hat and v_hat bias-corrected at step t.  Dozat (ICLR 2016 workshop)
        # corrects the beta1 m term with 1 - beta1^(t+1) instead.
        # Defaults: beta1 0.9, beta2 0.999, gamma 0.001, eps 1e-8.
        # t = 1, g = 1:   m_hat = v_hat = 1, p1 = -0.001 * (0.9 + 1) / (1 + 1e-8).
        # t = 2, g = 0.5: m = 0.14, v = 0.001249, m_hat = 0.14 / 0.19, v_hat = 0.001249 / 0.001999,
        #   p2 = p1 - 0.001 * (0.9 m_hat + 0.05 / 0.19) / (sqrt(v_hat) + 1e-8).
        kind = OptimizerKind("nadam")
        p, state = _step_chain(kind, np.array([0.0]), [np.array([1.0])])
        np.testing.assert_allclose(p, [-0.0018999999810000003], rtol=1e-13)
        p, state = optimizer_step(kind, state, p, np.array([0.5]))
        np.testing.assert_allclose(state.m1, [0.14], rtol=1e-13)
        np.testing.assert_allclose(state.m2, [0.001249], rtol=1e-13)
        np.testing.assert_allclose(p, [-0.0030718829406802617], rtol=1e-13)

    def test_determinism(self):
        rng = np.random.default_rng(1)
        p0 = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 3))
        for name in OPTIMIZER_NAMES:
            kind = OptimizerKind(name)
            s0 = fresh_state(kind, p0.shape)
            p1, s1 = optimizer_step(kind, s0, p0, g)
            p2, s2 = optimizer_step(kind, s0, p0, g)
            np.testing.assert_array_equal(p1, p2)
            assert s1.step == s2.step

    def test_inputs_not_mutated(self):
        kind = OptimizerKind("adam")
        p0 = np.ones((2, 2))
        g = np.ones((2, 2))
        state = fresh_state(kind, p0.shape)
        optimizer_step(kind, state, p0, g)
        np.testing.assert_array_equal(p0, np.ones((2, 2)))
        np.testing.assert_array_equal(state.m1, np.zeros((2, 2)))
        assert state.step == 0

    def test_descends_a_quadratic(self):
        # psi(b) = (b - c)^2, gradient 2 (b - c), 200 plain steps at 0.1.
        kind = OptimizerKind("gd", gamma=0.1)
        c = 3.0
        b = np.array([c + 1.0])
        state = fresh_state(kind, b.shape)
        for _ in range(200):
            b, state = optimizer_step(kind, state, b, 2.0 * (b - c))
        assert abs(b[0] - c) <= 1e-8

    def test_timestep_counts_steps(self):
        for name in ("adam", "nadam"):
            kind = OptimizerKind(name)
            _, state = _step_chain(kind, np.zeros(2), [np.ones(2)] * 7)
            assert state.step == 7

    def test_shape_mismatch_rejected(self):
        kind = OptimizerKind("gd")
        with pytest.raises(ShapeError):
            optimizer_step(kind, fresh_state(kind, (2,)), np.ones(2), np.ones(3))

    def test_non_finite_gradient_rejected(self):
        kind = OptimizerKind("gd")
        with pytest.raises(DivergenceError):
            optimizer_step(kind, fresh_state(kind, (2,)), np.ones(2), np.array([1.0, np.nan]))


class TestOneStatePerBlock:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.data())
    def test_a_step_on_w_b_is_the_steps_on_w_and_on_b(self, q, n, steps, data):
        # Every rule is elementwise, so a network layer's block [W b] can
        # take one step where W and b took one each, and keep their bits.
        values = arrays(np.float64, (q, n + 1), elements=st.floats(-1e100, 1e100))
        block = data.draw(values)
        grads = [data.draw(values) for _ in range(steps)]
        for name in OPTIMIZER_NAMES:
            kind = OptimizerKind(name)
            joined, _ = _step_chain(kind, block, grads)
            w, _ = _step_chain(kind, block[:, :-1], [g[:, :-1] for g in grads])
            b, _ = _step_chain(kind, block[:, -1:], [g[:, -1:] for g in grads])
            assert joined.tobytes() == np.hstack([w, b]).tobytes(), name
