import numpy as np
import pytest

from oracles import central_diff
from regkit.errors import DomainError
from regkit.losses import LOSS_NAMES, LossKind, column_losses, loss, loss_gradient, parse_loss

ZERO_AT_EQUALITY = ("mse", "mae", "huber", "log_cosh", "msle")
SMOOTH = ("mse", "log_cosh", "msle", "poisson")


def _random_pair(rng, kind_name, size=5):
    # Keep msle/poisson inputs inside their domains.
    if kind_name in ("msle", "poisson"):
        x = rng.uniform(0.1, 3.0, size)
        y = rng.uniform(0.1, 3.0, size)
    else:
        x = rng.uniform(-3.0, 3.0, size)
        y = rng.uniform(-3.0, 3.0, size)
    return x, y


class TestKinds:
    def test_parse_all_names(self):
        for name in LOSS_NAMES:
            assert parse_loss(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_loss("cross_entropy")

    def test_huber_delta_default_and_validation(self):
        assert LossKind("huber").delta == 1.0
        with pytest.raises(ValueError):
            LossKind("huber", delta=0.0)

    def test_other_kinds_take_no_delta(self):
        with pytest.raises(ValueError):
            LossKind("mse", delta=1.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf")])
    def test_huber_delta_must_be_finite(self, delta):
        with pytest.raises(ValueError, match="finite number > 0"):
            LossKind("huber", delta=delta)


class TestValues:
    @pytest.mark.parametrize("name", ZERO_AT_EQUALITY)
    def test_zero_at_equality(self, name):
        x = np.array([0.5, 1.5, 2.5])
        assert loss(LossKind(name), x, x.copy()) <= 1e-12

    def test_mae_hand_computed(self):
        assert loss(LossKind("mae"), [1.0, 2.0], [0.0, 2.0]) == pytest.approx(0.5)

    def test_mse_hand_computed(self):
        assert loss(LossKind("mse"), [1.0, 3.0], [0.0, 1.0]) == pytest.approx(2.5)

    def test_huber_both_branches(self):
        kind = LossKind("huber", delta=1.0)
        assert loss(kind, [0.5], [0.0]) == pytest.approx(0.125)
        assert loss(kind, [2.0], [0.0]) == pytest.approx(1.5)

    def test_huber_sums_without_averaging(self):
        # Two identical small residuals double the loss instead of averaging.
        kind = LossKind("huber", delta=1.0)
        assert loss(kind, [0.5, 0.5], [0.0, 0.0]) == pytest.approx(0.25)

    def test_poisson_hand_computed(self):
        # (1/2) [ (1 - 1*log 2) + (3 - 3*log 1) ] = (4 - log 2) / 2
        value = loss(LossKind("poisson"), [1.0, 3.0], [2.0, 1.0])
        assert value == pytest.approx((4.0 - np.log(2.0)) / 2.0)

    def test_poisson_not_zero_at_equality(self):
        assert loss(LossKind("poisson"), [1.0], [1.0]) != 0.0

    def test_msle_shifted_log_space(self):
        value = loss(LossKind("msle"), [np.e - 1.0], [0.0])
        assert value == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ZERO_AT_EQUALITY)
    def test_non_negative(self, name):
        rng = np.random.default_rng(0)
        kind = LossKind(name)
        for _ in range(50):
            x, y = _random_pair(rng, name)
            assert loss(kind, x, y) >= 0.0

    @pytest.mark.parametrize("name", ("mse", "mae", "log_cosh"))
    def test_symmetric_in_arguments(self, name):
        rng = np.random.default_rng(1)
        kind = LossKind(name)
        for _ in range(20):
            x, y = _random_pair(rng, name)
            assert loss(kind, x, y) == pytest.approx(loss(kind, y, x), abs=1e-12)

    def test_log_cosh_survives_huge_residuals(self):
        value = loss(LossKind("log_cosh"), [1000.0], [-1000.0])
        assert np.isfinite(value)
        assert value == pytest.approx(2000.0 - np.log(2.0))


class TestDomain:
    def test_msle_rejects_entries_at_or_below_minus_one(self):
        with pytest.raises(DomainError, match="index 1"):
            loss(LossKind("msle"), [0.0, -1.0], [0.0, 0.0])
        with pytest.raises(DomainError, match="target"):
            loss(LossKind("msle"), [0.0], [-2.0])

    def test_poisson_rejects_nonpositive_targets(self):
        with pytest.raises(DomainError, match="index 0"):
            loss(LossKind("poisson"), [1.0], [0.0])

    def test_matrix_domain_error_names_coordinates(self):
        with pytest.raises(DomainError, match="row 1, column 2"):
            column_losses(
                LossKind("poisson"),
                np.ones((2, 3)),
                np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]]),
            )


class TestGradients:
    def test_mse_zero_at_minimum(self):
        g = loss_gradient(LossKind("mse"), [1.0, 2.0], [1.0, 2.0])
        np.testing.assert_array_equal(g, [0.0, 0.0])

    def test_mse_hand_computed(self):
        g = loss_gradient(LossKind("mse"), [1.0, 3.0], [0.0, 1.0])
        np.testing.assert_allclose(g, [1.0, 2.0])

    def test_log_cosh_saturates(self):
        g = loss_gradient(LossKind("log_cosh"), [50.0, -50.0], [0.0, 0.0])
        np.testing.assert_allclose(g, [0.5, -0.5], atol=1e-12)

    def test_mae_sign_zero_at_tie(self):
        g = loss_gradient(LossKind("mae"), [1.0, 2.0], [1.0, 0.0])
        np.testing.assert_allclose(g, [0.0, 0.5])

    def test_huber_branches(self):
        kind = LossKind("huber", delta=1.0)
        np.testing.assert_allclose(
            loss_gradient(kind, [0.5, 3.0], [0.0, 0.0]), [0.5, 1.0]
        )

    @pytest.mark.parametrize("name", SMOOTH)
    def test_matches_finite_differences(self, name):
        rng = np.random.default_rng(2)
        kind = LossKind(name)
        worst = 0.0
        for _ in range(1000 // 5):
            x, y = _random_pair(rng, name)
            g = loss_gradient(kind, x, y)
            for i in range(x.shape[0]):
                def f(t, i=i):
                    bumped = x.copy()
                    bumped[i] = t
                    return loss(kind, bumped, y)
                worst = max(worst, abs(g[i] - central_diff(f, x[i])))
        assert worst <= 1e-6

    @pytest.mark.parametrize("name", ("mae", "huber"))
    def test_kinked_kinds_match_away_from_kinks(self, name):
        rng = np.random.default_rng(3)
        kind = LossKind(name)
        worst = 0.0
        checked = 0
        while checked < 200:
            x, y = _random_pair(rng, name)
            r = np.abs(x - y)
            # Skip points within 1e-4 of a kink (0 for mae; 0 and delta for huber).
            kinks = r < 1e-4
            if name == "huber":
                kinks |= np.abs(r - kind.delta) < 1e-4
            if kinks.any():
                continue
            checked += 1
            g = loss_gradient(kind, x, y)
            for i in range(x.shape[0]):
                def f(t, i=i):
                    bumped = x.copy()
                    bumped[i] = t
                    return loss(kind, bumped, y)
                worst = max(worst, abs(g[i] - central_diff(f, x[i])))
        assert worst <= 1e-6

    def test_huber_c1_at_branch_point(self):
        # The two branch formulas must knit together: cross-evaluated at
        # residuals straddling delta they agree to second order, and their
        # derivatives coincide exactly at the branch point itself.
        delta = 1.0
        kind = LossKind("huber", delta=delta)
        for r in (delta * (1 - 1e-6), delta * (1 + 1e-6)):
            quadratic = 0.5 * r * r
            linear = delta * abs(r) - 0.5 * delta**2
            assert abs(quadratic - linear) <= 1e-9
        assert loss_gradient(kind, [delta], [0.0])[0] == delta  # both branches give delta
        # The implemented gradient is continuous across the kink at probe scale.
        hi = loss_gradient(kind, [delta * (1 + 1e-6)], [0.0])[0]
        lo = loss_gradient(kind, [delta * (1 - 1e-6)], [0.0])[0]
        assert abs(hi - lo) <= 2.1e-6 * delta

    def test_matrix_gradient_is_columnwise(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, (3, 4))
        y = rng.uniform(-2, 2, (3, 4))
        kind = LossKind("log_cosh")
        g = loss_gradient(kind, x, y)
        for col in range(4):
            np.testing.assert_allclose(g[:, col], loss_gradient(kind, x[:, col], y[:, col]))


class TestColumnLosses:
    def test_matches_vector_loss_per_column(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (3, 6))
        y = rng.uniform(-2, 2, (3, 6))
        for name in ("mse", "mae", "huber", "log_cosh"):
            kind = LossKind(name)
            per_column = column_losses(kind, x, y)
            expected = [loss(kind, x[:, i], y[:, i]) for i in range(6)]
            np.testing.assert_allclose(per_column, expected, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            column_losses(LossKind("mse"), np.ones((2, 3)), np.ones((2, 4)))
