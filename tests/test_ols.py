import numpy as np
import pytest

from oracles import gauss_solve, generic_bb_rate
from regkit.errors import DegenerateStepError, ShapeError, SingularMatrixError
from regkit.ols import (
    GdConfig,
    OlsProblem,
    bb_learning_rate,
    build_problem,
    default_guesses,
    predict,
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

    @pytest.mark.parametrize("design", ["duplicated_column", "linear_combination", "too_few_rows"])
    def test_singular_designs_advise_gd(self, design):
        rng = np.random.default_rng(14)
        features = rng.normal(size=(30, 3))
        if design == "duplicated_column":
            features[:, 2] = features[:, 0]
        elif design == "linear_combination":  # of two features and the bias column
            features[:, 2] = features[:, 0] - 3.0 * features[:, 1] + 1.5
        else:  # 3 samples, 4 unknowns per target
            features = features[:3]
        problem = build_problem(features, rng.normal(size=(features.shape[0], 2)))
        with pytest.raises(SingularMatrixError, match="solve_gd"):
            solve_analytic(problem)

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


class TestPredict:
    def test_line_at_zero(self):
        model = solve_analytic(build_problem([[0.0], [1.0]], [[1.0], [3.0]]))
        np.testing.assert_allclose(predict(model, [0.0]), [1.0])

    def test_zero_model(self):
        problem = build_problem([[1.0], [2.0]], [[0.0], [0.0]])
        model = solve_analytic(problem)
        np.testing.assert_allclose(predict(model, [123.0]), [0.0], atol=1e-12)

    def test_reproduces_training_targets_on_exact_data(self):
        rng = np.random.default_rng(13)
        problem, _ = _random_problem(rng, m=2, n=3, p=30)
        model = solve_analytic(problem)
        features = problem.x_design[:, :-1]
        for i in range(problem.p):
            np.testing.assert_allclose(
                predict(model, features[i]), problem.y_targets[:, i], atol=1e-8
            )

    def test_dimension_mismatch_rejected(self):
        model = solve_analytic(build_problem([[0.0], [1.0]], [[1.0], [3.0]]))
        with pytest.raises(ShapeError):
            predict(model, [1.0, 2.0])
