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

    # The rule: with each row scaled by its largest |entry| to give R, the
    # matrix is singular when ||R||_1 ||R^-1||_1 >= 1 / SINGULARITY_RTOL.
    # For [[1, 1], [1, 1 + d]] that condition number is about 4 / d.
    @pytest.mark.parametrize("matrix, singular", [
        ([[1.0, 1.0], [1.0, 1.0 + 1e-14]], True),
        ([[1.0, 1.0], [1.0, 1.0 + 3e-12]], True),  # condition number 1.33e12
        ([[1.0, 1.0], [1.0, 1.0 + 5e-12]], False),  # 8.0e11
        ([[1.0, 1.0], [1.0, 1.0 + 1e-11]], False),
        ([[1.0, 2.0], [2.0, 4.0]], True),  # LAPACK meets an exactly zero pivot
        ([[1.0, 2.0], [0.0, 0.0]], True),  # a zero row
        (np.diag([1.0, 1e-13]), False),  # singular only without row scaling
    ], ids=["d=1e-14", "d=3e-12", "d=5e-12", "d=1e-11", "rank-one", "zero-row", "diag"])
    @pytest.mark.filterwarnings("error")  # each verdict comes without a numpy warning
    def test_verdict_on_each_side_of_the_threshold(self, matrix, singular):
        if singular:
            with pytest.raises(SingularMatrixError, match="is singular"):
                linalg.inverse(matrix)
        else:
            a = np.array(matrix)
            np.testing.assert_allclose(a @ linalg.inverse(a), np.eye(2), atol=1e-4)

    @pytest.mark.parametrize("seed", range(4))
    def test_row_scaling_leaves_the_result_and_verdict_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4))
        near = a.copy()
        near[-1] = rng.normal(size=3) @ near[:-1] + 1e-15 * rng.normal(size=4)
        # Power-of-two scales commute with rounding, so the bits match.
        d = 2.0 ** rng.integers(-500, 500, size=4)
        np.testing.assert_array_equal(linalg.inverse(d[:, None] * a), linalg.inverse(a) / d)
        with pytest.raises(SingularMatrixError):
            linalg.inverse(near)
        with pytest.raises(SingularMatrixError):
            linalg.inverse(10.0 ** rng.uniform(-100, 100, size=(4, 1)) * near)


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
