import tracemalloc
import warnings

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
    apply_rows,
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

    @pytest.mark.parametrize("name", ["leaky_relu", "prelu", "elu"])
    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), float("-inf")])
    def test_beta_must_be_finite(self, name, beta):
        with pytest.raises(ValueError, match="must be finite"):
            ActivationKind(name, beta=beta)


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
    # The masked form that preceded the four-pass _sigmoid, kept verbatim as a
    # second form that must meet the same accuracy contract.
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


# The accuracy contract of the sigmoid and swish kernels, against a reference
# evaluated in extended precision (Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 1-3).  With EPS = 2^-52:
# * the value (sigmoid, or swish's z = x sigmoid(x)) has relative error at
#   most 3 EPS where the true value is at least TINY in magnitude, and
#   absolute error at most 2.3e-308 below that;
# * the derivative J has absolute error at most 3 EPS (1 + |x|);
# * +-0 gives exact values, the sign of swish's -0 kept, and NaN gives NaN.
# In BAND, where exp(-x) overflows, swish's z is -0 though its true value
# reaches 4e-306: the band is exempt from the value bound and pinned by
# TestOverflowBand.
EPS = 2.0**-52
TINY = np.finfo(np.float64).tiny
BAND = (-745.0, -709.78)


def _reference(name, x):
    """The value and derivative of ``name`` at finite ``x`` in ``np.longdouble``."""
    assert np.finfo(np.longdouble).nmant >= 63, "the reference needs extended precision"
    xl = np.asarray(x, dtype=np.longdouble)
    with np.errstate(over="ignore"):
        s, rest = 1 / (1 + np.exp(-xl)), 1 / (1 + np.exp(xl))  # sigmoid and 1 - sigmoid
    if name == "sigmoid":
        return s, s * rest
    return xl * s, s + xl * s * rest


def _assert_within_contract(name, x, value, derivative=None):
    """``value`` (and ``derivative``) of ``name`` at ``x`` against the contract."""
    x = np.asarray(x, dtype=np.float64)
    nan = np.isnan(x)
    np.testing.assert_array_equal(np.isnan(value), nan)
    if derivative is not None:
        np.testing.assert_array_equal(np.isnan(derivative), nan)
    finite = np.isfinite(x)
    if name == "sigmoid":  # swish is never evaluated at +-inf (-inf / inf is invalid)
        np.testing.assert_array_equal(value[x == np.inf], 1.0)
        np.testing.assert_array_equal(value[x == -np.inf], 0.0)
    else:
        assert finite[~nan].all()
    zero = x == 0.0
    np.testing.assert_array_equal(value[zero], 0.5 if name == "sigmoid" else 0.0)
    if name == "swish":
        np.testing.assert_array_equal(np.signbit(value[zero]), np.signbit(x[zero]))
    x, value = x[finite], value[finite]
    true_value, true_derivative = _reference(name, x)
    error = np.abs(value - true_value)
    normal = np.abs(true_value) >= TINY
    if name == "swish":
        normal &= ~((BAND[0] < x) & (x < BAND[1]))
    assert (error[normal] <= 3 * EPS * np.abs(true_value[normal])).all()
    assert (error[np.abs(true_value) < TINY] <= 2.3e-308).all()
    if derivative is not None:
        derivative = derivative[finite]
        assert (np.abs(derivative - true_derivative) <= 3 * EPS * (1 + np.abs(x))).all()


class TestBranchFreeSigmoid:
    FIXED = np.array([
        0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf,
        5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
        1e-310, -1e-310, 1e-300, -1e-300, 36.7, -36.7, 709.8, -709.8, np.nan,
    ])

    def test_fixed_cases_match_masked_form(self):
        # Both forms meet the contract, so they agree to within twice it.
        _assert_within_contract("sigmoid", self.FIXED, _sigmoid(self.FIXED))
        _assert_within_contract("sigmoid", self.FIXED, _sigmoid_masked(self.FIXED))

    def test_wide_block_and_strided_view_match_masked_form(self):
        block = np.random.default_rng(11).normal(scale=20.0, size=(256, 301))
        for x in (block, block[:, :200]):
            _assert_within_contract("sigmoid", x, _sigmoid(x))
            _assert_within_contract("sigmoid", x, _sigmoid_masked(x))

    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=40),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    def test_meets_the_accuracy_contract(self, x):
        _assert_within_contract("sigmoid", x, _sigmoid(x))


def _activate(kind, x):
    """Z and J of ``x`` from ``activate_rows`` over ``row_blocks``, as ``forward`` runs them."""
    j = np.array(x, dtype=np.float64)  # J is written over this copy
    z = np.empty(j.shape)
    for rows, e in row_blocks(j, 1):
        activate_rows(kind, j[rows], z[rows], e)
    return z, j


def _apply(kind, x):
    """``apply_rows`` of ``x`` over ``row_blocks``, as ``predict`` runs it."""
    z = np.array(x, dtype=np.float64)  # Z is written over this copy
    for rows, e in row_blocks(z, 1):
        apply_rows(kind, z[rows], e)
    return z


# Signed zeros, subnormals, the exp underflow edge (+-745) and beyond it (+-800),
# mixed with any finite value.  At -inf swish's x / (1 + exp(-x)) is an invalid inf / inf.
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
            activate_rows(ActivationKind("softmax"), *np.ones((3, 2, 3)))


def _boundary_case(name):
    """Inputs around the kernels' row-block size, in several layouts."""
    rng = np.random.default_rng(17)
    width = 300
    rows = _BLOCK_BYTES // (8 * width)  # rows per block at this width
    wide = rng.normal(scale=20.0, size=(rows + 1, width))
    # The finite fixed cases: at -inf swish's x / (1 + exp(-x)) is an invalid inf / inf.
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
    """The row-blocked kernels against the accuracy contract and each other,
    across block boundaries."""

    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_sigmoid_and_swish_match_masked_form(self, case):
        # Both forms meet the contract, so they agree to within twice it.
        x = _boundary_case(case)
        _assert_within_contract("sigmoid", x, _sigmoid(x))
        _assert_within_contract("swish", x, *_activate(ActivationKind("swish"), x))
        s = _sigmoid_masked(x)
        _assert_within_contract("sigmoid", x, s)
        _assert_within_contract("swish", x, x * s, s + x * s * (1.0 - s))

    @pytest.mark.parametrize("name", ["sigmoid", "swish"])
    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_cached_derivative_matches_references(self, case, name):
        kind = ActivationKind(name)
        x = _boundary_case(case)
        up = np.random.default_rng(18).normal(size=x.shape)
        z, j = _activate(kind, x)
        _assert_within_contract(name, x, z, j)
        _assert_same_bits(jacobian_product(kind, x, up), up * j)

    @pytest.mark.parametrize("name", ["sigmoid", "swish"])
    @given(x=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=40),
                    elements=FINITE))
    def test_kernels_meet_the_accuracy_contract(self, name, x):
        _assert_within_contract(name, x, *_activate(ActivationKind(name), x))

    @pytest.mark.parametrize("name", ELEMENTWISE)
    def test_reused_blocks_hold_no_stale_values(self, name):
        kind = ActivationKind(name)
        first, later = np.random.default_rng(19).normal(scale=4.0, size=(2, 5, 7))
        z, e = np.full((2, 5, 7), np.nan)
        activate_rows(kind, first.copy(), z, e)
        j = later.copy()
        activate_rows(kind, j, z, e)
        _assert_same_bits(z, apply_matrix(kind, later))
        _assert_same_bits(j, _derivative_elementwise(kind, later))
        s = first.copy()
        apply_rows(kind, s, e)
        _assert_same_bits(s, apply_matrix(kind, first))


class TestApplyRows:
    @pytest.mark.parametrize("name", ELEMENTWISE)
    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_bit_identical_to_apply_matrix(self, case, name):
        kind = ActivationKind(name)
        x = _boundary_case(case)
        _assert_same_bits(_apply(kind, x), apply_matrix(kind, x))

    def test_softmax_rejected(self):
        with pytest.raises(ValueError):
            apply_rows(ActivationKind("softmax"), *np.ones((2, 2, 3)))


class TestOverflowBand:
    """Where exp(-x) overflows, -745 < x < -709.78, the sigmoid is 0 and swish
    -0; the masked form gave subnormals there."""

    X = np.array([-744.9, -730.0, -715.0, -710.0, -709.79])

    def test_sigmoid_and_swish_are_zero(self):
        assert (_sigmoid_masked(self.X) > 0).all()
        for name in ("sigmoid", "swish"):
            kind = ActivationKind(name)
            z, j = _activate(kind, self.X)
            for value in (z, _apply(kind, self.X), apply_matrix(kind, self.X)):
                np.testing.assert_array_equal(value, 0.0)
                np.testing.assert_array_equal(np.signbit(value), name == "swish")
            np.testing.assert_array_equal(j, 0.0)
            np.testing.assert_array_equal(jacobian_product(kind, self.X, np.ones(5)), 0.0)

    def test_just_above_the_band_the_sigmoid_is_subnormal(self):
        x = np.array([-709.78, -709.0])
        s = _sigmoid(x)
        assert (0 < s).all() and (s < TINY).all()
        _assert_within_contract("sigmoid", x, s)
        _assert_within_contract("swish", x, *_activate(ActivationKind("swish"), x))

    @pytest.mark.parametrize("name", ["sigmoid", "swish"])
    def test_edges_emit_no_warning(self, name):
        kind = ActivationKind(name)
        x = np.array([745.0, -745.0, 800.0, -800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _activate(kind, x)
            _apply(kind, x)
            apply_matrix(kind, x)
            jacobian_product(kind, x, np.ones(4))
