import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import regkit.ols
from oracles import gauss_solve, generic_bb_rate
from regkit.activations import ActivationKind
from regkit.data import NormalizationStats
from regkit.errors import DegenerateStepError, DivergenceError, ShapeError, SingularMatrixError
from regkit.losses import LossKind
from regkit.model_io import LoadedModel, predict_rows
from regkit.network import NetworkState, _backward_pass, forward
from regkit.ols import (
    GdConfig,
    GdTrace,
    OlsProblem,
    bb_learning_rate,
    build_problem,
    default_guesses,
    solve_analytic,
    solve_gd,
)


def _random_problem(rng, m=2, n=3, p=50, noise=0.0):
    b_true = rng.uniform(-2.0, 2.0, (m, n + 1))
    features = rng.uniform(-1.0, 1.0, (p, n))
    design = np.hstack([features, np.ones((p, 1))])
    targets = (b_true @ design.T).T
    if noise:
        targets = targets + rng.normal(0.0, noise, targets.shape)
    return build_problem(features, targets), b_true


def _conditioned_features(rng, p, n, kappa):
    """Features ``U S V^T`` whose design ``[features, 1]`` has condition number kappa.

    U is orthogonal to the bias column, and the singular values in S run
    geometrically from sqrt(p), the norm of the bias column, down to
    sqrt(p) / kappa.
    """
    q, _ = np.linalg.qr(np.hstack([np.ones((p, 1)), rng.normal(size=(p, n))]))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    sigma = np.sqrt(p) * np.logspace(0.0, -np.log10(kappa), n)
    return (q[:, 1:] * sigma) @ v.T


SINGULAR_DESIGNS = ["duplicated_column", "linear_combination", "too_few_rows"]


def _singular_problem(design):
    """Two-target data whose normal matrix X^T X is singular."""
    rng = np.random.default_rng(14)
    features = rng.normal(size=(30, 3))
    if design == "duplicated_column":
        features[:, 2] = features[:, 0]
    elif design == "linear_combination":  # of two features and the bias column
        features[:, 2] = features[:, 0] - 3.0 * features[:, 1] + 1.5
    else:  # 3 samples, 4 unknowns per target
        features = features[:3]
    return build_problem(features, rng.normal(size=(features.shape[0], 2)))


def _sum_of_squares(problem, b):
    residual = problem.y_targets - b @ problem.x_design.T
    return float(np.sum(residual * residual))


class TestBuildProblem:
    def test_two_point_line(self):
        problem = build_problem([[0.0], [1.0]], [[1.0], [3.0]])
        np.testing.assert_array_equal(problem.x_design, [[0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(problem.y_targets, [[1.0, 3.0]])

    def test_bias_column_always_ones(self):
        rng = np.random.default_rng(0)
        problem = build_problem(rng.normal(size=(7, 3)), rng.normal(size=(7, 2)))
        np.testing.assert_array_equal(problem.x_design[:, -1], np.ones(7))
        assert (problem.p, problem.n, problem.m) == (7, 3, 2)

    def test_mixed_feature_lengths_rejected(self):
        with pytest.raises(ShapeError):
            build_problem([[1.0, 2.0], [3.0]], [[1.0], [2.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_problem([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            build_problem([[1.0], [2.0]], [[1.0]])

    def test_problem_validates_bias_column(self):
        with pytest.raises(ShapeError):
            OlsProblem(np.array([[1.0, 0.5]]), np.array([[1.0]]))


class TestAnalytic:
    def test_two_point_line_solution(self):
        problem = build_problem([[0.0], [1.0]], [[1.0], [3.0]])
        model = solve_analytic(problem)
        np.testing.assert_allclose(model.b, [[2.0, 1.0]], atol=1e-12)

    def test_against_gaussian_elimination_oracle(self):
        rng = np.random.default_rng(1)
        problem, _ = _random_problem(rng, noise=0.3)
        model = solve_analytic(problem)
        z = problem.x_design.T @ problem.x_design
        k = problem.y_targets @ problem.x_design
        expected = gauss_solve(z, k.T).T  # solve B Z = K via Z B^T = K^T
        np.testing.assert_allclose(model.b, expected, atol=1e-10)

    def test_zero_targets_give_zero_model(self):
        rng = np.random.default_rng(2)
        problem = build_problem(rng.normal(size=(10, 2)), np.zeros((10, 1)))
        np.testing.assert_allclose(solve_analytic(problem).b, 0.0, atol=1e-12)

    def test_rank_deficient_advises_gd(self):
        # One sample, two unknowns: X^T X cannot be invertible.
        problem = build_problem([[1.0]], [[1.0]])
        with pytest.raises(SingularMatrixError, match="solve_gd"):
            solve_analytic(problem)

    @pytest.mark.parametrize("design", SINGULAR_DESIGNS)
    def test_singular_designs_advise_gd(self, design):
        with pytest.raises(SingularMatrixError, match="solve_gd"):
            solve_analytic(_singular_problem(design))

    @pytest.mark.parametrize("kappa", [1e1, 1e3, 1e5])
    def test_forward_error_within_normal_equation_bound(self, kappa):
        # The normal equations give a relative forward error of order
        # cond(X)^2 u (Higham, Accuracy and Stability of Numerical
        # Algorithms, ch. 20), u = machine epsilon.  c = 10; the worst ratio
        # seen over 200 seeds per kappa was 2.1, at kappa = 10.
        c, u = 10.0, np.finfo(np.float64).eps
        rng = np.random.default_rng(int(np.log10(kappa)))
        for _ in range(5):
            features = _conditioned_features(rng, 40, 6, kappa)
            design = np.hstack([features, np.ones((40, 1))])
            cond = np.linalg.cond(design)
            assert cond == pytest.approx(kappa, rel=1e-6)
            targets = design @ rng.normal(size=(7, 2)) + 0.1 * rng.normal(size=(40, 2))
            problem = build_problem(features, targets)
            expected = np.linalg.lstsq(problem.x_design, targets, rcond=None)[0].T
            error = np.linalg.norm(solve_analytic(problem).b - expected)
            assert error <= c * cond**2 * u * np.linalg.norm(expected)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            problem, _ = _random_problem(rng, noise=0.5)
            model = solve_analytic(problem)
            z = problem.x_design.T @ problem.x_design
            k = problem.y_targets @ problem.x_design
            residual = np.linalg.norm(k - model.b @ z)
            assert residual <= 1e-8 * max(1.0, np.linalg.norm(k))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(12, 3))
        targets = rng.normal(size=(12, 2))
        base = solve_analytic(build_problem(features, targets)).b
        order = rng.permutation(12)
        shuffled = solve_analytic(build_problem(features[order], targets[order])).b
        np.testing.assert_allclose(shuffled, base, atol=1e-12)


class TestBbRate:
    def test_scalar_case(self):
        assert bb_learning_rate([[2.0]], [[3.0]]) == pytest.approx(1.0 / 6.0)

    def test_zero_step_is_degenerate(self):
        with pytest.raises(DegenerateStepError):
            bb_learning_rate(np.zeros((2, 3)), np.eye(3))

    def test_bad_input_rejected(self):
        with pytest.raises(ShapeError):
            bb_learning_rate(np.ones((2, 3)), np.eye(4))
        with pytest.raises(ValueError):
            bb_learning_rate([[np.nan, 1.0]], np.eye(2))

    def test_given_lz_replaces_the_product(self):
        rng = np.random.default_rng(13)
        l_step, z = rng.normal(size=(3, 5)), rng.normal(size=(5, 5))
        assert bb_learning_rate(l_step, z, lz=l_step @ z) == bb_learning_rate(l_step, z)

    @pytest.mark.parametrize("shape", [(5, 3), (4, 5), (3, 4), (15,)])
    def test_lz_of_another_shape_rejected(self, shape):
        with pytest.raises(ShapeError):
            bb_learning_rate(np.ones((3, 5)), np.eye(5), lz=np.ones(shape))

    def test_identity_collapses_to_half(self):
        rng = np.random.default_rng(5)
        l_step = rng.normal(size=(2, 4))
        assert bb_learning_rate(l_step, np.eye(4)) == pytest.approx(0.5)

    def test_cross_form_identity_along_trajectory(self):
        # The compact rate must equal the generic difference quotient
        # |L : (G_t - G_{t-1})| / ||G_t - G_{t-1}||^2 with G = 2 (B Z - Y X),
        # evaluated exactly so only the compact route's rounding is measured.
        rng = np.random.default_rng(6)
        problem, _ = _random_problem(rng, m=2, n=6, p=80, noise=0.2)
        z = problem.x_design.T @ problem.x_design
        iterates = []
        solve_gd(problem, GdConfig(1e-13, 60), callback=iterates.append)
        assert len(iterates) >= 10
        k = problem.y_targets @ problem.x_design
        for t in range(1, len(iterates)):
            generic = generic_bb_rate(iterates[t], iterates[t - 1], z, k)
            if generic is None:
                continue
            compact = bb_learning_rate(iterates[t] - iterates[t - 1], z)
            assert abs(generic - compact) <= 1e-12 * compact


def _spd_matrix(rng, n, kappa):
    """A symmetric positive definite matrix with eigenvalues from 1 down to 1/kappa."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * np.logspace(0.0, -np.log10(kappa), n)) @ q.T


_SHAPES = st.tuples(st.integers(1, 4), st.integers(2, 8))
_SEEDS = st.integers(0, 2**32 - 1)


class TestBbInvariants:
    """Properties of the rate that the eigenbasis loop relies on."""

    # The rate of L under Z equals that of L Q under Q^T Z Q for orthogonal
    # Q, up to the rounding of the rotations, which the rate's condition
    # number κ(Z) amplifies.  c = 10; the worst ratio seen over 20,000
    # draws from these strategies was 3.8.
    @given(shape=_SHAPES, seed=_SEEDS, log_kappa=st.floats(0.0, 8.0),
           log_scale=st.floats(-50.0, 50.0))
    def test_rate_invariant_under_an_orthogonal_change_of_basis(
            self, shape, seed, log_kappa, log_scale):
        m, n = shape
        rng = np.random.default_rng(seed)
        z = _spd_matrix(rng, n, 10.0**log_kappa)
        l_step = rng.normal(size=(m, n)) * 10.0**log_scale
        rate = bb_learning_rate(l_step, z)
        bound = 10.0 * np.linalg.cond(z) * np.finfo(np.float64).eps * rate
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        assert abs(bb_learning_rate(l_step @ q, q.T @ z @ q) - rate) <= bound
        lam, v = np.linalg.eigh(z)  # the form solve_gd passes
        rotated = l_step @ v
        assert abs(bb_learning_rate(rotated, z, lz=rotated * lam) - rate) <= bound

    @given(shape=_SHAPES, seed=_SEEDS, log_kappa=st.floats(0.0, 8.0),
           log_scale=st.floats(-50.0, 50.0))
    def test_rate_positive_for_a_nonzero_step(self, shape, seed, log_kappa, log_scale):
        m, n = shape
        rng = np.random.default_rng(seed)
        z = _spd_matrix(rng, n, 10.0**log_kappa)
        assert bb_learning_rate(rng.normal(size=(m, n)) * 10.0**log_scale, z) > 0.0

    # Small integers keep Z = X^T X, K = Y X and B Z exact, so B Z - K is
    # exactly zero at B and the first step is exactly zero.
    @given(shape=_SHAPES, seed=_SEEDS, epsilon=st.floats(1e-300, 1.0))
    def test_zero_step_is_a_fixed_point(self, shape, seed, epsilon):
        m, n = shape
        rng = np.random.default_rng(seed)
        features = rng.integers(-3, 4, size=(n + 2, n)).astype(np.float64)
        b = rng.integers(-3, 4, size=(m, n + 1)).astype(np.float64)
        problem = build_problem(features, (b @ np.hstack([features, np.ones((n + 2, 1))]).T).T)
        with pytest.raises(DegenerateStepError):
            bb_learning_rate(np.zeros((m, n + 1)), problem.x_design.T @ problem.x_design)
        model, trace = solve_gd(problem, GdConfig(epsilon, 100, b0=b))
        assert trace.converged and trace.final_step_norm == 0.0
        assert trace.iterations == 1 and trace.relative_gradient == 0.0
        np.testing.assert_array_equal(model.b, b)


class TestDefaultGuesses:
    def test_hand_computed(self):
        # ||X|| = 2 via a crafted design, ||Y|| = 6.
        x = np.array([[1.0, 1.0], [1.0, 1.0]])  # norm 2
        y = np.array([[np.sqrt(18.0), np.sqrt(18.0)]])  # norm 6
        problem = OlsProblem(x, y)
        b0, gamma0 = default_guesses(problem)
        np.testing.assert_allclose(b0, np.full((1, 2), 3.0))
        assert gamma0 == pytest.approx(0.125)

    def test_zero_targets_zero_guess(self):
        problem = build_problem([[1.0], [2.0]], [[0.0], [0.0]])
        b0, _ = default_guesses(problem)
        np.testing.assert_array_equal(b0, np.zeros((1, 2)))

    def test_rate_invariant_under_row_permutation(self):
        rng = np.random.default_rng(7)
        features = rng.normal(size=(9, 2))
        targets = rng.normal(size=(9, 1))
        _, gamma_a = default_guesses(build_problem(features, targets))
        order = rng.permutation(9)
        _, gamma_b = default_guesses(build_problem(features[order], targets[order]))
        assert gamma_a == pytest.approx(gamma_b, abs=1e-15)


class TestSolveGd:
    def test_recovers_exact_linear_data(self):
        rng = np.random.default_rng(8)
        problem, b_true = _random_problem(rng)
        analytic = solve_analytic(problem)
        model, trace = solve_gd(problem, GdConfig(1e-10, 10000))
        assert trace.converged
        assert np.linalg.norm(model.b - analytic.b) <= 1e-6
        assert np.linalg.norm(model.b - b_true) <= 1e-6

    def test_agreement_with_analytic_on_noisy_problems(self):
        rng = np.random.default_rng(9)
        done = 0
        while done < 5:
            problem, _ = _random_problem(rng, m=2, n=3, p=40, noise=0.3)
            z = problem.x_design.T @ problem.x_design
            if np.linalg.cond(z) >= 1e4:
                continue
            done += 1
            analytic = solve_analytic(problem)
            model, trace = solve_gd(problem, GdConfig(1e-9, 10000))
            assert trace.iterations <= 10000
            assert np.linalg.norm(model.b - analytic.b) <= 1e-5

    def test_optimal_start_converges_immediately(self):
        problem = build_problem([[0.0], [1.0]], [[1.0], [3.0]])
        optimal = solve_analytic(problem).b
        model, trace = solve_gd(problem, GdConfig(1e-8, 100, b0=optimal))
        assert trace.converged
        assert trace.iterations <= 2
        np.testing.assert_allclose(model.b, optimal, atol=1e-8)

    def test_iteration_cap_of_one(self):
        rng = np.random.default_rng(10)
        problem, _ = _random_problem(rng)
        model, trace = solve_gd(problem, GdConfig(1e6, 1))
        assert trace.iterations == 1
        assert trace.converged == (trace.final_step_norm < 1e6)

    def test_trace_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            problem, _ = _random_problem(rng, noise=0.1)
            _, trace = solve_gd(problem, GdConfig(1e-8, 10000))
            if trace.converged:
                assert trace.final_step_norm < 1e-8

    def test_loss_never_ends_above_start(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            problem, _ = _random_problem(rng, noise=0.5)
            b0, _ = default_guesses(problem)
            model, trace = solve_gd(problem, GdConfig(1e-9, 10000))
            assert trace.converged
            assert _sum_of_squares(problem, model.b) <= _sum_of_squares(problem, b0)

    def test_explicit_guesses_override_defaults(self):
        problem = build_problem([[0.0], [1.0]], [[1.0], [3.0]])
        b0 = np.array([[5.0, -5.0]])
        seen = []
        solve_gd(problem, GdConfig(1e-10, 500, gamma0=0.01, b0=b0), callback=seen.append)
        np.testing.assert_array_equal(seen[0], b0)

    def test_wrong_b0_shape_rejected(self):
        problem = build_problem([[0.0], [1.0]], [[1.0], [3.0]])
        with pytest.raises(ShapeError):
            solve_gd(problem, GdConfig(1e-8, 10, b0=np.zeros((2, 2))))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GdConfig(0.0, 10)
        with pytest.raises(ValueError):
            GdConfig(1e-8, 0)

    @pytest.mark.parametrize("design", SINGULAR_DESIGNS)
    def test_converges_on_singular_designs(self, design):
        # The route solve_analytic advises: one eigenvalue of Z is zero up to
        # rounding (1.6e-15 to 1.9e-14 here), and the iterate still settles.
        model, trace = solve_gd(_singular_problem(design), GdConfig(1e-12, 10000))
        assert trace.converged
        assert np.isfinite(model.b).all()
        assert trace.relative_gradient < 1e-10

    def test_degenerate_rate_stops_as_converged(self, monkeypatch):
        # L Z = 0 means the step did not move B: the loop stops there.
        def degenerate(*args, **kwargs):
            raise DegenerateStepError("rate undefined")

        monkeypatch.setattr(regkit.ols, "bb_learning_rate", degenerate)
        seen = []
        model, trace = solve_gd(_three_target_problem(23), GdConfig(1e-300, 50),
                                callback=seen.append)
        assert trace.iterations == 1 and len(seen) == 2
        assert trace.converged and trace.final_step_norm == 0.0
        np.testing.assert_array_equal(model.b, seen[-1])

    @pytest.mark.parametrize("iteration", [2, 5])
    def test_overflowing_iterate_names_its_iteration(self, monkeypatch, iteration):
        # 2 * 1e308 is infinite, and so is the update it scales.
        rates = iter([0.01] * (iteration - 2) + [1e308])
        monkeypatch.setattr(regkit.ols, "bb_learning_rate", lambda *a, **k: next(rates))
        with pytest.raises(DivergenceError) as info:
            solve_gd(_three_target_problem(24), GdConfig(1e-300, 50))
        assert info.value.iteration == iteration

    def test_step_norm_at_epsilon_stops_as_converged(self):
        # The loop stops at a step norm <= epsilon, and so does `converged`.
        rng = np.random.default_rng(3)
        features = rng.normal(size=(40, 3))
        targets = features @ rng.normal(size=(3, 2)) + 0.1 * rng.normal(size=(40, 2))
        problem = build_problem(features, targets)
        _, first = solve_gd(problem, GdConfig(1e-300, 1))
        assert first.final_step_norm == 0.9737188925016953
        _, trace = solve_gd(problem, GdConfig(first.final_step_norm, 100))
        assert trace.iterations == 1 and trace.converged

    # A fit whose step norm falls below u ||B|| agrees with solve_analytic
    # within the normal-equation bound 10 κ(X)^2 u (Higham, Accuracy and
    # Stability of Numerical Algorithms, ch. 20); a fit that reaches the cap
    # first is skipped.  Over 400 seeded draws from these strategies the
    # worst was 0.40 of the bound, and 15% of the fits reached the cap.
    @given(shape=st.tuples(st.integers(1, 3), st.integers(2, 6), st.integers(0, 32)),
           seed=_SEEDS, log_kappa=st.floats(0.0, 4.0))
    def test_converged_fit_agrees_with_analytic(self, shape, seed, log_kappa):
        m, n, extra_rows = shape
        p = n + 2 + extra_rows
        rng = np.random.default_rng(seed)
        features = _conditioned_features(rng, p, n, 10.0**log_kappa)
        design = np.hstack([features, np.ones((p, 1))])
        targets = design @ rng.normal(size=(n + 1, m)) + 0.1 * rng.normal(size=(p, m))
        problem = build_problem(features, targets)
        analytic = solve_analytic(problem).b
        u = np.finfo(np.float64).eps
        model, trace = solve_gd(problem, GdConfig(u * np.linalg.norm(analytic), 500))
        assume(trace.converged)
        bound = 10.0 * np.linalg.cond(design) ** 2 * u
        assert np.linalg.norm(model.b - analytic) <= bound * np.linalg.norm(analytic)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_epsilon_or_gamma0_rejected(self, value):
        with pytest.raises(ValueError, match="epsilon must be a finite number > 0"):
            GdConfig(value, 10)
        with pytest.raises(ValueError, match="gamma0 must be a finite number > 0"):
            GdConfig(1e-8, 10, gamma0=value)


def _two_product_reference(problem, epsilon, max_iterations):
    """The BB loop with L Z and B Z as separate products; returns the
    iterates from B0 on and whether the step norm fell below epsilon."""
    x, y = problem.x_design, problem.y_targets
    z, k = x.T @ x, y @ x
    b_prev, gamma0 = default_guesses(problem)
    b = b_prev - 2.0 * gamma0 * (b_prev @ z - k)
    iterates = [b_prev, b]
    l_step = b - b_prev
    while np.sqrt(np.sum(l_step * l_step)) > epsilon and len(iterates) - 1 < max_iterations:
        lz = l_step @ z
        denom = np.sqrt(np.sum(lz * lz))
        if denom == 0.0:
            l_step = np.zeros_like(l_step)
            break
        gamma = abs(np.sum(l_step * lz)) / (2.0 * denom * denom)
        b_prev, b = b, b - 2.0 * gamma * (b @ z - k)
        iterates.append(b)
        l_step = b - b_prev
    return iterates, bool(np.sqrt(np.sum(l_step * l_step)) < epsilon)


def _three_target_problem(seed, kappa=1e3, n=10, p=80):
    """Noisy 3-target data whose design has condition number kappa; at the
    default 1e3 the BB loop needs well over 100 steps."""
    rng = np.random.default_rng(seed)
    features = _conditioned_features(rng, p, n, kappa)
    targets = features @ rng.normal(size=(n, 3)) + rng.normal(0.0, 0.1, (p, 3))
    return build_problem(features, targets)


class _RecordingRate:
    """Stands in for ``regkit.ols.bb_learning_rate`` and records each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, l_step, z, **kwargs):
        rate = bb_learning_rate(l_step, z, **kwargs)
        self.calls.append((np.array(l_step), rate))
        return rate


class TestOneProductPerIteration:
    """The loop runs in the eigenbasis of Z = V Λ V^T, where its one product
    per step is the elementwise M Λ of the rotated step M = L V."""

    def test_loop_rate_matches_the_rate_without_lz(self, monkeypatch):
        # The γ the loop uses is the BB rate of its rotated step with diag(λ)
        # as the normal matrix, here formed by bb_learning_rate's own product.
        problem = _three_target_problem(14)
        lam = np.linalg.eigh(problem.x_design.T @ problem.x_design)[0]
        recorder = _RecordingRate()
        monkeypatch.setattr(regkit.ols, "bb_learning_rate", recorder)
        _, trace = solve_gd(problem, GdConfig(1e-300, 150))
        assert trace.iterations == 150 and len(recorder.calls) == 149
        for l_step, rate in recorder.calls:
            exact = bb_learning_rate(l_step, np.diag(lam))
            assert abs(rate - exact) <= 1e-12 * exact

    # The loop runs in the eigenbasis from its first BB step.  That is
    # another float sequence than the product form,
    # and BB amplifies rounding by up to about κ(Z) per step.  Where Z is
    # well conditioned (κ(Z) = 4.2) the whole trajectory, with its step
    # count, still matches to 1e-12 (worst seen 7.3e-15).  Where it is not,
    # the first six iterates match within κ(Z) u (worst seen 1.9e-3 of that
    # at κ(Z) = 1e4, 1.1e-5 at 1e6; they drift past 1e-12 from the seventh
    # or the thirteenth), and a converged endpoint is checked against
    # solve_analytic within the normal-equation bound 10 κ(X)^2 u (worst
    # seen 0.12 of it; the product form ends at 2.9 times the bound).
    @pytest.mark.parametrize("problem, cap, converged, whole", [
        (_three_target_problem(15, kappa=100.0, n=6, p=60), 20000, True, False),
        (_random_problem(np.random.default_rng(16), m=2, n=4, p=40, noise=0.2)[0], 20000, True,
         True),
        (_three_target_problem(17), 150, False, False),
    ], ids=["3-targets", "2-targets", "capped"])
    def test_iterates_match_a_two_product_loop(self, problem, cap, converged, whole):
        u = np.finfo(np.float64).eps
        expected, expected_converged = _two_product_reference(problem, 1e-13, cap)
        seen = []
        model, trace = solve_gd(problem, GdConfig(1e-13, cap), callback=seen.append)
        assert trace.iterations == len(seen) - 1
        assert trace.converged == expected_converged == converged
        np.testing.assert_array_equal(model.b, seen[-1])
        if whole:
            assert trace.iterations == len(expected) - 1
            for got, want in zip(seen, expected):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            return
        tolerance = np.linalg.cond(problem.x_design.T @ problem.x_design) * u
        for got, want in zip(seen[:6], expected[:6]):
            assert np.max(np.abs(got - want)) <= tolerance * np.max(np.abs(want))
        if converged:
            analytic = solve_analytic(problem).b
            bound = 10.0 * np.linalg.cond(problem.x_design) ** 2 * u
            assert np.linalg.norm(model.b - analytic) <= bound * np.linalg.norm(analytic)
        else:
            assert trace.iterations == len(expected) - 1 == cap

    @pytest.mark.parametrize("problem", [
        _three_target_problem(15, kappa=100.0, n=6, p=60),
        _random_problem(np.random.default_rng(16), m=2, n=4, p=40, noise=0.2)[0],
        _three_target_problem(17),
    ], ids=["3-targets", "2-targets", "capped"])
    def test_each_iterate_is_one_bb_step_across_the_change_of_basis(self, problem):
        # The first update is made in the original basis and every later one
        # in the eigenbasis.  Each iterate from the third on is one BB step
        # of the product form from the two before it, up to the rounding of
        # those two, which the rate amplifies by up to κ(Z) and the update by
        # the growth of the step, ||B_{t+1} - B_t|| / ||B_t - B_{t-1}||
        # (up to 2,000 here; worst seen 3.3 κ(Z) u times the growth).
        z, k = problem.x_design.T @ problem.x_design, problem.y_targets @ problem.x_design
        tolerance = 10.0 * np.linalg.cond(z) * np.finfo(np.float64).eps
        seen = []
        _, trace = solve_gd(problem, GdConfig(1e-300, 160), callback=seen.append)
        assert trace.iterations > 30
        for before, b, after in zip(seen, seen[1:], seen[2:]):
            l_step = b - before
            lz = l_step @ z
            gamma = abs(np.sum(l_step * lz)) / (2.0 * np.sum(lz * lz))
            want = b - 2.0 * gamma * (b @ z - k)
            growth = max(1.0, np.linalg.norm(after - b) / np.linalg.norm(l_step))
            assert np.max(np.abs(after - want)) <= tolerance * growth * np.max(np.abs(want))

    def test_one_eigh_per_fit_that_takes_a_bb_step(self, monkeypatch):
        problem = _three_target_problem(25)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda z: calls.append(z) or eigh(z))
        for cap, expected in [(1, 0), (2, 1), (30, 1), (300, 1)]:
            calls.clear()
            _, trace = solve_gd(problem, GdConfig(1e-300, cap))
            assert trace.iterations == cap and len(calls) == expected
        # A fit that stops on its step norm takes one; a fit whose first
        # update is already below epsilon takes no BB step and no eigh.
        for epsilon, expected in [(1e-12, 1), (1e6, 0)]:
            calls.clear()
            _, trace = solve_gd(_random_problem(np.random.default_rng(26), noise=0.1)[0],
                                GdConfig(epsilon, 10000))
            assert trace.converged and len(calls) == expected
            assert (trace.iterations > 1) == (expected == 1)

    @pytest.mark.parametrize("epsilon, cap", [(1e-300, 40), (1e-10, 20000)])
    def test_rate_called_once_per_iteration_after_the_first(self, monkeypatch, epsilon, cap):
        recorder = _RecordingRate()
        monkeypatch.setattr(regkit.ols, "bb_learning_rate", recorder)
        _, trace = solve_gd(_three_target_problem(18), GdConfig(epsilon, cap))
        assert trace.iterations > 1
        assert len(recorder.calls) == trace.iterations - 1

    def test_iterates_do_not_change_after_return(self):
        seen, snapshots = [], []

        def keep(b):
            seen.append(b)
            snapshots.append(b.copy())

        model, trace = solve_gd(_three_target_problem(19), GdConfig(1e-300, 30), callback=keep)
        assert len(seen) == trace.iterations + 1 == 31
        for b, snapshot in zip(seen, snapshots):
            np.testing.assert_array_equal(b, snapshot)
        for i in range(len(seen)):
            for j in range(i):
                assert not np.shares_memory(seen[i], seen[j])
        np.testing.assert_array_equal(model.b, snapshots[-1])
        assert not any(np.shares_memory(model.b, b) for b in seen[:-1])
        model_b = model.b.copy()
        solve_gd(_three_target_problem(20), GdConfig(1e-300, 30))
        np.testing.assert_array_equal(model.b, model_b)


def _allocating_reference(problem, config, callback, norms=None):
    """``solve_gd`` as it was before its loop reused three buffers: every
    step allocates its temporaries and checks the new iterate for
    non-finite entries; only ``converged`` takes the ``<=`` of the stop
    rule.  ``norms``, when given, receives each step norm that rule
    compares."""
    norms = [] if norms is None else norms

    def norm(a):
        return math.sqrt(np.vdot(a, a))

    def require_finite(b, iteration):
        if not np.isfinite(b).all():
            raise DivergenceError(f"iterate overflowed at iteration {iteration}",
                                  iteration=iteration)

    x, y = problem.x_design, problem.y_targets
    z = x.T @ x
    k = y @ x
    b_prev, gamma0 = default_guesses(problem)
    callback(b_prev)
    b = b_prev - 2.0 * gamma0 * (b_prev @ z - k)
    require_finite(b, 1)
    callback(b)
    step, iterations = b - b_prev, 1
    norms.append(norm(step))
    if norm(step) > config.epsilon and config.max_iterations > 1:
        lam, v = np.linalg.eigh(z)
        c, step, kv = b @ v, step @ v, k @ v
        while True:
            try:
                gamma = regkit.ols.bb_learning_rate(step, z, lz=step * lam)
            except DegenerateStepError:
                step[:] = 0.0
                break
            iterations += 1
            c_next = c - 2.0 * gamma * (c * lam - kv)
            require_finite(c_next, iterations)
            step, c = c_next - c, c_next
            callback(c @ v.T)
            norms.append(norm(step))
            if norm(step) <= config.epsilon or iterations >= config.max_iterations:
                break
        if iterations > 1:
            b = c @ v.T
            require_finite(b, iterations)
    final_norm = norm(step)
    gradient_norm = norm(b @ z - k)
    k_norm = norm(k)
    trace = GdTrace(iterations, final_norm, final_norm <= config.epsilon,
                    gradient_norm / k_norm if k_norm > 0.0 else gradient_norm)
    return b, trace


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and _bits(a) == _bits(b)


class TestReusedBuffers:
    """The loop that writes into three reused buffers makes the float
    operations of the allocating loop, in its order, so every output keeps
    its bits."""

    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 8), st.integers(0, 24)),
           seed=_SEEDS, log_kappa=st.floats(0.0, 4.0), duplicate=st.booleans(),
           cap=st.integers(1, 400), log_epsilon=st.floats(-14.0, -2.0),
           tie=st.one_of(st.none(), st.integers(0, 400)))
    def test_every_output_matches_the_allocating_loop(
            self, shape, seed, log_kappa, duplicate, cap, log_epsilon, tie):
        m, n, extra_rows = shape
        p = n + 2 + extra_rows
        rng = np.random.default_rng(seed)
        features = _conditioned_features(rng, p, n, 10.0**log_kappa)
        if duplicate and n > 1:
            features[:, -1] = features[:, 0]
        design = np.hstack([features, np.ones((p, 1))])
        targets = design @ rng.normal(size=(n + 1, m)) + 0.1 * rng.normal(size=(p, m))
        problem = build_problem(features, targets)
        epsilon = 10.0**log_epsilon
        if tie is not None:
            # Stop on a step norm exactly equal to epsilon.
            norms = []
            _allocating_reference(problem, GdConfig(1e-300, cap), lambda b: None, norms)
            epsilon = norms[tie % len(norms)]
            assume(epsilon > 0.0)
        config = GdConfig(epsilon, cap)
        want_seen, got_seen = [], []
        want_b, want = _allocating_reference(problem, config, want_seen.append)
        model, got = solve_gd(problem, config, callback=got_seen.append)
        _assert_same_bits(got_seen, want_seen)
        _assert_same_bits([model.b], [want_b])
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert _bits(got.final_step_norm) == _bits(want.final_step_norm)
        assert _bits(got.relative_gradient) == _bits(want.relative_gradient)

    # 1e308 overflows the update at once; 1e160 leaves the iterate finite
    # and the step norm infinite for one step before the next update overflows.
    @pytest.mark.parametrize("lead", [0, 3])
    @pytest.mark.parametrize("huge", [1e308, 1e160])
    def test_divergence_names_the_same_iteration(self, monkeypatch, lead, huge):
        outcomes = []
        for run in (_allocating_reference, solve_gd):
            rates = itertools.chain([0.01] * lead, itertools.repeat(huge))
            monkeypatch.setattr(regkit.ols, "bb_learning_rate", lambda *a, **k: next(rates))
            seen = []
            with pytest.raises(DivergenceError) as info, np.errstate(over="ignore"):
                run(_three_target_problem(24), GdConfig(1e-300, 50), seen.append)
            outcomes.append((info.value.iteration, seen))
        (want_iteration, want_seen), (got_iteration, got_seen) = outcomes
        assert got_iteration == want_iteration
        _assert_same_bits(got_seen, want_seen)


class TestRelativeGradient:
    @pytest.mark.parametrize("cap", [1, 7, 200])
    def test_reports_the_returned_iterate(self, cap):
        problem = _three_target_problem(21)
        x, y = problem.x_design, problem.y_targets
        model, trace = solve_gd(problem, GdConfig(1e-300, cap))
        k = y @ x
        expected = np.linalg.norm(model.b @ (x.T @ x) - k) / np.linalg.norm(k)
        assert trace.relative_gradient == pytest.approx(expected, rel=1e-12)

    def test_small_at_convergence(self):
        problem, _ = _random_problem(np.random.default_rng(22), noise=0.1)
        _, trace = solve_gd(problem, GdConfig(1e-12, 10000))
        assert trace.converged and trace.relative_gradient < 1e-10

    def test_zero_targets_give_zero(self):
        problem = build_problem([[1.0], [2.0], [4.0]], [[0.0], [0.0], [0.0]])
        _, trace = solve_gd(problem, GdConfig(1e-8, 100))
        assert trace.relative_gradient == 0.0


def _identity_stats(width, prefix):
    return NormalizationStats(tuple(f"{prefix}{i}" for i in range(width)),
                              np.zeros(width), np.ones(width))


def _predict(model, feature):
    """``predict_rows`` on one feature vector, with identity normalization in
    the vector's width, so the network's own input check sees a mismatch."""
    feature = np.atleast_1d(np.asarray(feature, dtype=np.float64))
    loaded = LoadedModel("ols", _identity_stats(feature.shape[0], "x"),
                         _identity_stats(model.b.shape[0], "y"), ols=model)
    return predict_rows(loaded, feature)[0]


class TestPredict:
    def test_line_at_zero(self):
        model = solve_analytic(build_problem([[0.0], [1.0]], [[1.0], [3.0]]))
        np.testing.assert_allclose(_predict(model, [0.0]), [1.0])

    def test_zero_model(self):
        problem = build_problem([[1.0], [2.0]], [[0.0], [0.0]])
        model = solve_analytic(problem)
        np.testing.assert_allclose(_predict(model, [123.0]), [0.0], atol=1e-12)

    def test_reproduces_training_targets_on_exact_data(self):
        rng = np.random.default_rng(13)
        problem, _ = _random_problem(rng, m=2, n=3, p=30)
        model = solve_analytic(problem)
        features = problem.x_design[:, :-1]
        for i in range(problem.p):
            np.testing.assert_allclose(
                _predict(model, features[i]), problem.y_targets[:, i], atol=1e-8
            )

    def test_dimension_mismatch_rejected(self):
        model = solve_analytic(build_problem([[0.0], [1.0]], [[1.0], [3.0]]))
        with pytest.raises(ShapeError):
            _predict(model, [1.0, 2.0])


def _backprop_gradient(problem, b):
    """``[grad W | grad b]`` of the mse loss of the one-layer identity
    network ``W z + b`` with ``[W b] = B``, from ``_backward_pass``."""
    state = NetworkState([b], (ActivationKind("identity"),))
    cache = forward(state, problem.x_design[:, :-1].T)
    (grad_w, grad_b), = _backward_pass(state, cache, problem.y_targets, LossKind("mse"))
    return np.hstack([grad_w, grad_b])


class TestOlsAsOneLayerNetwork:
    """OLS is the one-layer identity network under the mse loss
    ``||B X^T - Y||^2 / (m p)``, whose gradient is ``2 (B Z - K) / (m p)``."""

    @pytest.mark.parametrize("seed", range(5))
    def test_backprop_gives_the_normal_equation_gradient(self, seed):
        rng = np.random.default_rng(40 + seed)
        problem, _ = _random_problem(rng, m=3, n=5, p=60, noise=0.5)
        b = rng.normal(size=(problem.m, problem.n + 1))
        x, y = problem.x_design, problem.y_targets
        expected = 2.0 * (b @ (x.T @ x) - y @ x) / (problem.m * problem.p)
        error = np.linalg.norm(_backprop_gradient(problem, b) - expected)
        assert error <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("kappa", [1e1, 1e3, 1e5])
    def test_analytic_solution_is_a_stationary_point(self, kappa):
        # The residual B Z - K of the normal-equation solve is of order
        # cond(X)^2 u ||K||, as is its forward error (Higham, ch. 20).
        c, u = 10.0, np.finfo(np.float64).eps
        rng = np.random.default_rng(30 + int(np.log10(kappa)))
        for _ in range(5):
            features = _conditioned_features(rng, 40, 6, kappa)
            design = np.hstack([features, np.ones((40, 1))])
            targets = design @ rng.normal(size=(7, 2)) + 0.1 * rng.normal(size=(40, 2))
            problem = build_problem(features, targets)
            residual = _backprop_gradient(problem, solve_analytic(problem).b) * (
                problem.m * problem.p / 2.0)
            k_norm = np.linalg.norm(problem.y_targets @ problem.x_design)
            assert np.linalg.norm(residual) <= c * np.linalg.cond(design) ** 2 * u * k_norm

    def test_gd_relative_gradient_is_the_rescaled_backprop_gradient(self):
        problem = _three_target_problem(23)
        model, trace = solve_gd(problem, GdConfig(1e-300, 50))
        k_norm = np.linalg.norm(problem.y_targets @ problem.x_design)
        gradient = _backprop_gradient(problem, model.b) * (problem.m * problem.p / 2.0)
        assert np.linalg.norm(gradient) / k_norm == pytest.approx(
            trace.relative_gradient, rel=1e-10)
