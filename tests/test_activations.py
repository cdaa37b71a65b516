import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import central_diff, softmax_jacobians
from regkit.activations import (
    _BLOCK_BYTES,
    ACTIVATION_NAMES,
    ActivationKind,
    _apply_elementwise,
    _derivative_elementwise,
    _sigmoid,
    activate_rows,
    apply_matrix,
    jacobian_product,
    parse_activation,
    row_blocks,
)

ELEMENTWISE = [name for name in ACTIVATION_NAMES if name != "softmax"]
SMOOTH = ("sigmoid", "swish", "identity")


def _value(kind, x):
    """An elementwise activation at one point, through ``apply_matrix``."""
    return float(apply_matrix(kind, [x])[0])


def _slope(kind, x):
    """An elementwise activation's derivative at one point: its Jacobian
    product with a unit upstream, which is ``_derivative_elementwise`` bit
    for bit."""
    return float(jacobian_product(kind, [x], [1.0])[0])


class TestKinds:
    def test_parse_all_names(self):
        for name in ACTIVATION_NAMES:
            assert parse_activation(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            parse_activation("tanh")

    def test_beta_defaults(self):
        assert ActivationKind("leaky_relu").beta == 0.01
        assert ActivationKind("elu").beta == 1.0

    def test_non_parametric_kinds_reject_beta(self):
        with pytest.raises(ValueError):
            ActivationKind("sigmoid", beta=0.5)

    def test_leaky_slope_must_be_positive(self):
        with pytest.raises(ValueError):
            ActivationKind("leaky_relu", beta=-0.1)


class TestScalarValues:
    def test_sigmoid_at_zero(self):
        assert _value(ActivationKind("sigmoid"), 0.0) == 0.5

    def test_sigmoid_is_increasing(self):
        k = ActivationKind("sigmoid")
        assert _value(k, 1.0) > _value(k, -1.0)

    def test_relu(self):
        k = ActivationKind("relu")
        assert _value(k, -3.0) == 0.0
        assert _value(k, 2.0) == 2.0

    def test_leaky_relu(self):
        assert _value(ActivationKind("leaky_relu", 0.01), -2.0) == pytest.approx(-0.02)

    def test_elu_negative_branch(self):
        assert _value(ActivationKind("elu", 1.0), -1.0) == pytest.approx(np.expm1(-1.0))

    def test_swish_at_zero(self):
        assert _value(ActivationKind("swish"), 0.0) == 0.0

    def test_identity(self):
        assert _value(ActivationKind("identity"), 1.75) == 1.75

    def test_softmax_rejected_as_scalar(self):
        with pytest.raises(ValueError):
            _apply_elementwise(ActivationKind("softmax"), np.ones(1))
        with pytest.raises(ValueError):
            _derivative_elementwise(ActivationKind("softmax"), np.ones(1))


class TestScalarDerivatives:
    def test_sigmoid_at_zero(self):
        assert _slope(ActivationKind("sigmoid"), 0.0) == 0.25

    def test_relu_left_value_at_kink(self):
        k = ActivationKind("relu")
        assert _slope(k, -1.0) == 0.0
        assert _slope(k, 0.0) == 0.0
        assert _slope(k, 1.0) == 1.0

    def test_leaky_left_value_at_kink(self):
        assert _slope(ActivationKind("leaky_relu", 0.05), 0.0) == 0.05

    def test_elu_unit_beta_is_smooth_at_zero(self):
        k = ActivationKind("elu", 1.0)
        assert _slope(k, 0.0) == 1.0
        assert _slope(k, 1e-12) == pytest.approx(1.0, abs=1e-9)
        assert _slope(k, -1e-12) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("name", SMOOTH)
    def test_matches_finite_differences_on_grid(self, name):
        kind = ActivationKind(name)
        grid = np.linspace(-5.0, 5.0, 1000)
        worst = max(
            abs(_slope(kind, x) - central_diff(lambda t: _value(kind, t), x))
            for x in grid
        )
        assert worst <= 1e-6

    @pytest.mark.parametrize("name", ("relu", "leaky_relu", "prelu", "elu"))
    def test_piecewise_kinds_match_away_from_kink(self, name):
        kind = ActivationKind(name)
        grid = np.concatenate([np.linspace(-5, -0.01, 300), np.linspace(0.01, 5, 300)])
        worst = max(
            abs(_slope(kind, x) - central_diff(lambda t: _value(kind, t), x))
            for x in grid
        )
        assert worst <= 1e-6


class TestMatrixApplication:
    def test_relu_on_zero_matrix(self):
        out = apply_matrix(ActivationKind("relu"), np.zeros((3, 4)))
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_elementwise_matches_scalar(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-3, 3, (4, 5))
        for name in ELEMENTWISE:
            kind = ActivationKind(name)
            out = apply_matrix(kind, a)
            for i in range(4):
                for j in range(5):
                    assert out[i, j] == _value(kind, a[i, j])

    def test_softmax_uniform_column(self):
        out = apply_matrix(ActivationKind("softmax"), np.array([[0.0], [0.0]]))
        np.testing.assert_allclose(out, [[0.5], [0.5]])

    def test_softmax_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = apply_matrix(ActivationKind("softmax"), rng.normal(size=(6, 20)))
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(out > 0) and np.all(out < 1)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 7))
        shift = rng.normal(size=(1, 7))
        k = ActivationKind("softmax")
        np.testing.assert_allclose(
            apply_matrix(k, a + shift), apply_matrix(k, a), atol=1e-12
        )

    def test_softmax_survives_magnitude_700(self):
        a = np.array([[700.0, -700.0], [-700.0, 700.0]])
        out = apply_matrix(ActivationKind("softmax"), a)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)

    def test_sigmoid_range_and_stability(self):
        a = np.array([[-700.0, -1.0, 0.0, 1.0, 700.0]])
        out = apply_matrix(ActivationKind("sigmoid"), a)
        assert np.isfinite(out).all()
        assert np.all(out >= 0) and np.all(out <= 1)
        # Strictly inside (0, 1) wherever float64 can represent that.
        inner = apply_matrix(ActivationKind("sigmoid"), np.linspace(-36, 36, 500).reshape(1, -1))
        assert np.all(inner > 0) and np.all(inner < 1)

    def test_relu_nonnegative(self):
        rng = np.random.default_rng(3)
        out = apply_matrix(ActivationKind("relu"), rng.normal(size=(4, 4)))
        assert np.all(out >= 0)


class TestMatrixDerivatives:
    def test_identity_gives_ones(self):
        out = _derivative_elementwise(ActivationKind("identity"), np.zeros((2, 3)))
        np.testing.assert_array_equal(out, np.ones((2, 3)))

    def test_softmax_jacobian_rows_sum_to_zero(self):
        # The Jacobian is symmetric, so zero row sums make every product sum to zero.
        rng = np.random.default_rng(4)
        out = jacobian_product(ActivationKind("softmax"), rng.normal(size=(5, 8)),
                               rng.normal(size=(5, 8)))
        assert out.shape == (5, 8)
        np.testing.assert_allclose(out.sum(axis=0), 0.0, atol=1e-12)

    def test_softmax_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-3, 3, (4, 3))
        kind = ActivationKind("softmax")
        h = 1e-6
        for j in range(4):
            # J e_j: column j of each column's Jacobian.
            unit = np.zeros_like(a)
            unit[j] = 1.0
            jac_j = jacobian_product(kind, a, unit)
            for col in range(3):
                bumped = a.copy()
                bumped[j, col] += h
                dipped = a.copy()
                dipped[j, col] -= h
                fd = (
                    apply_matrix(kind, bumped)[:, col] - apply_matrix(kind, dipped)[:, col]
                ) / (2 * h)
                np.testing.assert_allclose(jac_j[:, col], fd, atol=1e-6)

    @pytest.mark.parametrize("name", SMOOTH + ("elu",))
    def test_elementwise_matches_finite_differences(self, name):
        rng = np.random.default_rng(6)
        a = rng.uniform(-3, 3, (4, 6))
        kind = ActivationKind(name)
        h = 1e-6
        fd = (apply_matrix(kind, a + h) - apply_matrix(kind, a - h)) / (2 * h)
        np.testing.assert_allclose(_derivative_elementwise(kind, a), fd, atol=1e-6)


class TestJacobianProduct:
    def test_elementwise_is_hadamard(self):
        rng = np.random.default_rng(7)
        pre = rng.normal(size=(3, 5))
        up = rng.normal(size=(3, 5))
        kind = ActivationKind("swish")
        expected = _derivative_elementwise(kind, pre) * up
        np.testing.assert_array_equal(jacobian_product(kind, pre, up), expected)

    def test_softmax_matches_explicit_jacobian(self):
        rng = np.random.default_rng(8)
        pre = rng.normal(size=(4, 6))
        up = rng.normal(size=(4, 6))
        kind = ActivationKind("softmax")
        jac = softmax_jacobians(pre)
        expected = np.column_stack([jac[i] @ up[:, i] for i in range(6)])
        np.testing.assert_allclose(jacobian_product(kind, pre, up), expected, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            jacobian_product(ActivationKind("relu"), np.ones((2, 2)), np.ones((2, 3)))

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (2, 3), (4, 6), (7, 2), (9, 9)])
    def test_softmax_matches_jacobian_tensor(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        pre = rng.normal(scale=3.0, size=(rows, cols))
        up = rng.normal(size=(rows, cols))
        kind = ActivationKind("softmax")
        expected = np.einsum("kij,jk->ik", softmax_jacobians(pre), up)
        actual = jacobian_product(kind, pre, up)
        scale = np.abs(expected).max()
        assert np.abs(actual - expected).max() <= 1e-14 * scale

    def test_softmax_needs_no_jacobian_tensor(self):
        # The (cols, n, n) tensor would take 36 MB here; the product needs a few blocks.
        pre = np.random.default_rng(9).normal(size=(300, 50))
        up = np.ones_like(pre)
        tracemalloc.start()
        try:
            out = jacobian_product(ActivationKind("softmax"), pre, up)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * pre.nbytes
        np.testing.assert_allclose(out, 0.0, atol=1e-15)


def _sigmoid_masked(x):
    # The masked form the branch-free _sigmoid replaced, kept verbatim as its reference.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _assert_same_bits(actual, expected):
    # NaN stays NaN (its sign bit may differ); every other value matches bit for bit.
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual[~nan].view(np.uint64), expected[~nan].view(np.uint64))


class TestBranchFreeSigmoid:
    FIXED = np.array([
        0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf,
        5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
        1e-310, -1e-310, 1e-300, -1e-300, 36.7, -36.7, 709.8, -709.8, np.nan,
    ])

    def test_fixed_cases_match_masked_form(self):
        _assert_same_bits(_sigmoid(self.FIXED), _sigmoid_masked(self.FIXED))

    def test_wide_block_and_strided_view_match_masked_form(self):
        block = np.random.default_rng(11).normal(scale=20.0, size=(256, 301))
        _assert_same_bits(_sigmoid(block), _sigmoid_masked(block))
        _assert_same_bits(_sigmoid(block[:, :200]), _sigmoid_masked(block[:, :200]))

    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=40),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    def test_matches_masked_form_bit_for_bit(self, x):
        _assert_same_bits(_sigmoid(x), _sigmoid_masked(x))


def _activate(kind, x):
    """Z and J of ``x`` from ``activate_rows`` over ``row_blocks``, as ``forward`` runs them."""
    j = np.array(x, dtype=np.float64)  # J is written over this copy
    z = np.empty(j.shape)
    for rows, e, sig in row_blocks(j, 2):
        activate_rows(kind, j[rows], z[rows], e, sig)
    return z, j


# Signed zeros, subnormals, the exp underflow edge (+-745) and beyond it (+-800),
# mixed with any finite value.  At +-inf swish's x * sigmoid(x) is an invalid inf * 0.
EDGES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0,
])
FINITE = st.one_of(EDGES, st.floats(allow_nan=False, allow_infinity=False,
                                    allow_subnormal=True))


class TestActivateRows:
    @pytest.mark.parametrize("name", ELEMENTWISE)
    def test_matches_apply_and_derivative_matrix(self, name):
        kind = ActivationKind(name)
        pre = np.random.default_rng(12).normal(scale=4.0, size=(5, 7))
        z, j = _activate(kind, pre)
        _assert_same_bits(z, apply_matrix(kind, pre))
        _assert_same_bits(j, _derivative_elementwise(kind, pre))

    @pytest.mark.parametrize("name", ELEMENTWISE)
    @given(x=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=40),
                    elements=FINITE))
    def test_matches_apply_and_derivative_matrix_bit_for_bit(self, name, x):
        kind = ActivationKind(name)
        z, j = _activate(kind, x)
        _assert_same_bits(z, apply_matrix(kind, x))
        _assert_same_bits(j, _derivative_elementwise(kind, x))

    @pytest.mark.parametrize("name", ["sigmoid", "swish"])
    def test_bit_identical_to_jacobian_product(self, name):
        kind = ActivationKind(name)
        rng = np.random.default_rng(13)
        pre = rng.normal(scale=6.0, size=(6, 9))
        up = rng.normal(size=(6, 5))
        _, j = _activate(kind, pre)
        _assert_same_bits(up * j[:, :5], jacobian_product(kind, pre[:, :5], up))

    def test_softmax_rejected(self):
        with pytest.raises(ValueError):
            activate_rows(ActivationKind("softmax"), *np.ones((4, 2, 3)))


def _boundary_case(name):
    """Inputs around the kernels' row-block size, in several layouts."""
    rng = np.random.default_rng(17)
    width = 300
    rows = _BLOCK_BYTES // (8 * width)  # rows per block at this width
    wide = rng.normal(scale=20.0, size=(rows + 1, width))
    # The finite fixed cases: at +-inf swish's x * sigmoid(x) is an invalid inf * 0.
    fixed = TestBranchFreeSigmoid.FIXED[np.isfinite(TestBranchFreeSigmoid.FIXED)]
    wide.flat[: fixed.size] = fixed
    return {
        "block_rows_minus_1": lambda: wide[: rows - 1],
        "block_rows": lambda: wide[:rows],
        "block_rows_plus_1": lambda: wide,
        "row_wider_than_a_block": lambda: rng.normal(scale=20.0, size=(3, _BLOCK_BYTES // 8 + 5)),
        "zero_rows": lambda: np.empty((0, width)),
        "one_d": lambda: rng.normal(scale=20.0, size=_BLOCK_BYTES // 8 + 1),
        "fortran_order": lambda: np.asfortranarray(wide),
        "column_slice": lambda: wide[:, : width - 37],
    }[name]()


BOUNDARY_CASES = ["block_rows_minus_1", "block_rows", "block_rows_plus_1",
                  "row_wider_than_a_block", "zero_rows", "one_d", "fortran_order",
                  "column_slice"]


class TestBlockedKernels:
    """The row-blocked kernels against the masked form, across block boundaries."""

    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_sigmoid_and_swish_match_masked_form(self, case):
        x = _boundary_case(case)
        s = _sigmoid_masked(x)
        _assert_same_bits(_sigmoid(x), s)
        z, j = _activate(ActivationKind("swish"), x)
        _assert_same_bits(z, x * s)
        _assert_same_bits(j, s + x * s * (1.0 - s))

    @pytest.mark.parametrize("name", ["sigmoid", "swish"])
    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_cached_derivative_matches_references(self, case, name):
        kind = ActivationKind(name)
        x = _boundary_case(case)
        up = np.random.default_rng(18).normal(size=x.shape)
        s = _sigmoid_masked(x)
        derivative = s * (1.0 - s) if name == "sigmoid" else s + x * s * (1.0 - s)
        expected = derivative * up
        _assert_same_bits(jacobian_product(kind, x, up), expected)
        z, j = _activate(kind, x)
        _assert_same_bits(z, s if name == "sigmoid" else x * s)
        _assert_same_bits(up * j, expected)

    @pytest.mark.parametrize("name", ELEMENTWISE)
    def test_reused_blocks_hold_no_stale_values(self, name):
        kind = ActivationKind(name)
        first, later = np.random.default_rng(19).normal(scale=4.0, size=(2, 5, 7))
        z = np.empty((5, 7))
        e, sig = np.full((2, 5, 7), np.nan)
        activate_rows(kind, first.copy(), z, e, sig)
        j = later.copy()
        activate_rows(kind, j, z, e, sig)
        _assert_same_bits(z, apply_matrix(kind, later))
        _assert_same_bits(j, _derivative_elementwise(kind, later))
