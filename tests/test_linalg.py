import numpy as np
import pytest

from regkit import linalg
from regkit.errors import ShapeError, SingularMatrixError


class TestFrobenius:
    def test_norm_zero(self):
        assert linalg.frobenius_norm(np.zeros((3, 2))) == 0.0

    def test_norm_three_four_five(self):
        assert linalg.frobenius_norm([[3.0, 4.0]]) == 5.0

    def test_norm_homogeneity(self):
        a = np.random.default_rng(6).normal(size=(2, 5))
        assert linalg.frobenius_norm(-2.5 * a) == pytest.approx(2.5 * linalg.frobenius_norm(a))


class TestInverse:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.inverse(np.eye(3)), np.eye(3))

    def test_two_by_two_adjugate(self):
        np.testing.assert_allclose(
            linalg.inverse([[1, 1], [1, 2]]), [[2, -1], [-1, 1]], atol=1e-14
        )

    def test_zero_matrix_rejected(self):
        with pytest.raises(SingularMatrixError):
            linalg.inverse(np.zeros((2, 2)))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            linalg.inverse(np.ones((3, 2)))

    def test_round_trip_on_well_conditioned(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 20:
            a = rng.normal(size=(5, 5))
            if np.linalg.cond(a) >= 1e6:
                continue
            checked += 1
            residual = a @ linalg.inverse(a) - np.eye(5)
            assert linalg.frobenius_norm(residual) <= 1e-8


class TestAsMatrix:
    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            linalg.as_matrix([[1, 2], [3]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            linalg.as_matrix([[1.0, np.nan]])

    def test_vector_shape(self):
        # A 1-D vector is not silently taken as a row or a column.
        with pytest.raises(ShapeError, match=r"expected a 2-D matrix, got shape \(3,\)"):
            linalg.as_matrix([1.0, 2.0, 3.0])
