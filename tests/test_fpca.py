"""Tests for functional principal component analysis."""

import dataclasses
import warnings

import numpy as np
import pytest

from sfdnn.basis import Grid, trapezoid_weights
from sfdnn.errors import DataError, DimensionError, InsufficientDataError, NumericOverflowError
from sfdnn.fpca import fit_fpca, project_scores, reconstruct


def kl_curves(n, grid, rng):
    """Five-term expansion with score variances 4 j^{-3/2}."""
    j = np.arange(1, 6)
    funcs = np.sin(j[:, None] * np.pi * grid.points) - np.cos(j[:, None] * np.pi * grid.points)
    scores = rng.normal(size=(n, 5)) * np.sqrt(4.0 * j**-1.5)
    return scores @ funcs


@pytest.fixture(scope="module")
def grid():
    return Grid.uniform(101)


class TestFitFpca:
    def test_identical_curves_degenerate(self, grid):
        curve = np.sin(2 * np.pi * grid.points)
        model = fit_fpca(np.tile(curve, (6, 1)), grid)
        np.testing.assert_allclose(model.mean_curve, curve, atol=1e-14)
        np.testing.assert_allclose(model.eigenvalues, 0.0, atol=1e-12)
        assert model.k_retained == 1

    def test_rank_one_pair(self, grid):
        f = np.cos(np.pi * grid.points) + 0.3
        model = fit_fpca(np.vstack([f, -f]), grid)
        np.testing.assert_allclose(model.mean_curve, 0.0, atol=1e-14)
        assert model.eigenvalues[0] > 1e-6
        np.testing.assert_allclose(model.eigenvalues[1:], 0.0, atol=1e-10)
        # leading eigenfunction proportional to f / ||f||
        w = trapezoid_weights(grid.points)
        norm = np.sqrt(np.sum(w * f * f))
        phi = model.eigenfunctions[0]
        sign = np.sign(np.sum(w * phi * f))
        np.testing.assert_allclose(phi, sign * f / norm, atol=1e-10)

    def test_eigenvalues_against_large_sample_oracle(self, grid):
        oracle = fit_fpca(kl_curves(10_000, grid, np.random.default_rng(99)), grid)
        ref = oracle.eigenvalues[:5]

        model = fit_fpca(kl_curves(50, grid, np.random.default_rng(11)), grid)
        # a single n=50 draw pins down the dominant eigenvalues
        assert np.all(np.abs(model.eigenvalues[:3] - ref[:3]) / ref[:3] < 0.25)
        assert model.k_retained == oracle.k_retained

        # the small trailing eigenvalues need averaging over replications
        # (relative sampling sd at n=50 is ~20% per eigenvalue)
        reps = np.array([
            fit_fpca(kl_curves(50, grid, np.random.default_rng(100 + r)), grid).eigenvalues[:5]
            for r in range(5)
        ])
        assert np.all(np.abs(reps.mean(axis=0) - ref) / ref < 0.25)

    def test_orthonormality_invariant(self, grid):
        model = fit_fpca(kl_curves(40, grid, np.random.default_rng(3)), grid)
        w = trapezoid_weights(grid.points)
        gram = (model.eigenfunctions * w) @ model.eigenfunctions.T
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-8)

    def test_eigenvalues_descending_nonnegative(self, grid):
        model = fit_fpca(kl_curves(30, grid, np.random.default_rng(5)), grid)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        assert np.all(model.eigenvalues >= 0.0)

    def test_trace_preservation(self, grid):
        curves = kl_curves(35, grid, np.random.default_rng(8))
        model = fit_fpca(curves, grid)
        w = trapezoid_weights(grid.points)
        pointwise_var = curves.var(axis=0, ddof=1)
        np.testing.assert_allclose(model.eigenvalues.sum(), np.sum(w * pointwise_var), atol=1e-8)

    def test_too_few_curves(self, grid):
        with pytest.raises(InsufficientDataError):
            fit_fpca(np.ones((1, grid.num_points)), grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_curve_names_the_first_bad_row(self, grid, bad):
        curves = kl_curves(12, grid, np.random.default_rng(13))
        curves[7, 40] = bad
        curves[4, 90] = bad
        with pytest.raises(DataError, match="^curve 4 contains NaN or infinite values"):
            fit_fpca(curves, grid)

    def test_opposite_infinities_in_one_column_are_refused_without_a_warning(self, grid):
        # their column mean is NaN, not infinite
        curves = kl_curves(12, grid, np.random.default_rng(14))
        curves[9, 3], curves[2, 3] = np.inf, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^curve 2 "):
                fit_fpca(curves, grid)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_finite_curves_whose_covariance_overflows_are_refused_without_a_warning(self, scale):
        grid = Grid.uniform(11)
        curves = np.random.default_rng(15).standard_normal((5, 11)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match="covariance overflows"):
                fit_fpca(curves, grid)


class TestProjectScores:
    def test_mean_curve_projects_to_zero(self, grid):
        model = fit_fpca(kl_curves(25, grid, np.random.default_rng(2)), grid)
        scores = project_scores(model, model.mean_curve[None, :], grid)
        np.testing.assert_allclose(scores, 0.0, atol=1e-10)

    def test_single_component_perturbation(self, grid):
        model = fit_fpca(kl_curves(25, grid, np.random.default_rng(4)), grid)
        c = 1.7
        curve = model.mean_curve + c * model.eigenfunctions[0]
        scores = project_scores(model, curve[None, :], grid)
        expected = np.zeros(model.k_retained)
        expected[0] = c
        np.testing.assert_allclose(scores[0], expected, atol=1e-8)

    def test_score_moments_match_eigenvalues(self, grid):
        # recompute the score variance as a direct quadratic form
        curves = kl_curves(60, grid, np.random.default_rng(6))
        model = fit_fpca(curves, grid)
        scores = project_scores(model, curves, grid)
        assert np.all(np.abs(scores.mean(axis=0)) < 1e-10)
        np.testing.assert_allclose(
            scores.var(axis=0, ddof=1), model.eigenvalues[: model.k_retained], atol=1e-8
        )

    def test_curves_unchanged_and_scores_are_the_weighted_product(self, grid):
        curves = kl_curves(30, grid, np.random.default_rng(8))
        before = curves.copy()
        model = fit_fpca(curves, grid)
        w = trapezoid_weights(grid.points)
        # a float64 array, a strided view of it and one 1-D curve reach the
        # projection without a copy
        for given in (curves, curves[::2], curves[3]):
            scores = project_scores(model, given, grid)
            expected = ((np.atleast_2d(given) - model.mean_curve) * w) @ model.eigenfunctions[
                : model.k_retained
            ].T
            assert np.array_equal(scores, expected)
        assert np.array_equal(curves, before)

    def test_grid_mismatch_raises(self, grid):
        model = fit_fpca(kl_curves(10, grid, np.random.default_rng(1)), grid)
        with pytest.raises(DimensionError):
            project_scores(model, np.ones((2, 51)), Grid.uniform(51))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_curve_names_the_first_bad_row(self, grid, bad):
        model = fit_fpca(kl_curves(20, grid, np.random.default_rng(15)), grid)
        curves = kl_curves(6, grid, np.random.default_rng(16))
        curves[5, 0] = bad
        curves[3, 100] = bad
        with pytest.raises(DataError, match="^curve 3 contains NaN or infinite values"):
            project_scores(model, curves, grid)


class TestReconstruct:
    def test_zero_scores_give_mean(self, grid):
        model = fit_fpca(kl_curves(20, grid, np.random.default_rng(9)), grid)
        rebuilt = reconstruct(model, np.zeros((3, model.k_retained)))
        np.testing.assert_allclose(rebuilt, np.tile(model.mean_curve, (3, 1)), atol=1e-14)

    def test_roundtrip_captures_threshold_variance(self, grid):
        curves = kl_curves(45, grid, np.random.default_rng(12))
        model = fit_fpca(curves, grid, variance_threshold=0.95)
        rebuilt = reconstruct(model, project_scores(model, curves, grid))
        w = trapezoid_weights(grid.points)
        total = np.sum(w * curves.var(axis=0, ddof=1))
        resid = np.sum(w * (curves - rebuilt).var(axis=0, ddof=1))
        assert 1.0 - resid / total >= 0.95 - 1e-10

    def test_roundtrip_error_monotone_in_k(self, grid):
        curves = kl_curves(30, grid, np.random.default_rng(13))
        model = fit_fpca(curves, grid)
        k_max = model.eigenvalues.size
        errors = []
        for k in range(1, k_max + 1):
            forced = dataclasses.replace(model, k_retained=k)
            rebuilt = reconstruct(forced, project_scores(forced, curves, grid))
            errors.append(np.sum((curves - rebuilt) ** 2))
        assert all(errors[i + 1] <= errors[i] + 1e-10 for i in range(len(errors) - 1))

    def test_project_reconstruct_project_identity(self, grid):
        curves = kl_curves(30, grid, np.random.default_rng(14))
        model = fit_fpca(curves, grid)
        scores = project_scores(model, curves, grid)
        again = project_scores(model, reconstruct(model, scores), grid)
        np.testing.assert_allclose(again, scores, atol=1e-8)

    def test_score_width_mismatch(self, grid):
        model = fit_fpca(kl_curves(10, grid, np.random.default_rng(15)), grid)
        with pytest.raises(DimensionError):
            reconstruct(model, np.zeros((2, model.k_retained + 1)))
