"""Tests for B-spline basis construction, evaluation, and inner products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from sfdnn.basis import (
    Grid,
    evaluate_basis,
    functional_inner_products,
    make_bspline_basis,
    trapezoid_weights,
)
from sfdnn.errors import DimensionError, InvalidArchitectureError, InvalidSizeError


def cox_de_boor(t, i, k, u):
    """Direct recursive Cox-de Boor evaluation, closing the last span at 1."""
    t_end = t[-1]
    if k == 0:
        if t[i] <= u < t[i + 1]:
            return 1.0
        if u == t_end and t[i] < t[i + 1] and t[i + 1] == t_end:
            return 1.0
        return 0.0
    val = 0.0
    if t[i + k] > t[i]:
        val += (u - t[i]) / (t[i + k] - t[i]) * cox_de_boor(t, i, k - 1, u)
    if t[i + k + 1] > t[i + 1]:
        val += (t[i + k + 1] - u) / (t[i + k + 1] - t[i + 1]) * cox_de_boor(t, i + 1, k - 1, u)
    return val


def scipy_design(basis, points):
    """Independent basis evaluation through scipy, shaped (M, len(points))."""
    mat = BSpline.design_matrix(points, basis.knots, basis.degree, extrapolate=False)
    return np.asarray(mat.todense()).T


class TestMakeBasis:
    def test_bezier_case_matches_bernstein(self):
        # degree 3, 4 functions, no interior knots: the cubic Bernstein polynomials
        basis = make_bspline_basis(3, 4)
        assert basis.interior_knots.size == 0
        grid = Grid.uniform(21)
        u = grid.points
        bernstein = np.array([
            (1 - u) ** 3,
            3 * u * (1 - u) ** 2,
            3 * u**2 * (1 - u),
            u**3,
        ])
        np.testing.assert_allclose(evaluate_basis(basis, grid), bernstein, atol=1e-14)

    def test_linear_hats(self):
        basis = make_bspline_basis(1, 2)
        grid = Grid(np.array([0.0, 0.5, 1.0]))
        expected = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])
        np.testing.assert_allclose(evaluate_basis(basis, grid), expected, atol=1e-15)

    def test_interior_knot_placement(self):
        basis = make_bspline_basis(3, 8)
        np.testing.assert_allclose(basis.interior_knots, [0.2, 0.4, 0.6, 0.8], atol=1e-15)

    @pytest.mark.parametrize("degree,m", [(1, 2), (2, 5), (3, 4), (3, 8), (4, 9)])
    def test_count_invariant(self, degree, m):
        basis = make_bspline_basis(degree, m)
        assert basis.num_basis == degree + 1 + basis.interior_knots.size

    def test_too_few_basis_functions_rejected(self):
        with pytest.raises(InvalidArchitectureError):
            make_bspline_basis(3, 3)

    def test_degree_zero_rejected(self):
        with pytest.raises(InvalidArchitectureError):
            make_bspline_basis(0, 2)


class TestEvaluateBasis:
    def test_matches_recursive_oracle_at_half(self):
        basis = make_bspline_basis(3, 8)
        grid = Grid(np.array([0.0, 0.5, 1.0]))
        values = evaluate_basis(basis, grid)[:, 1]
        oracle = [cox_de_boor(basis.knots, i, 3, 0.5) for i in range(8)]
        np.testing.assert_allclose(values, oracle, atol=1e-12)

    def test_matches_recursive_oracle_at_0p31(self):
        basis = make_bspline_basis(3, 8)
        grid = Grid(np.array([0.0, 0.31, 1.0]))
        values = evaluate_basis(basis, grid)[:, 1]
        oracle = [cox_de_boor(basis.knots, i, 3, 0.31) for i in range(8)]
        np.testing.assert_allclose(values, oracle, atol=1e-12)

    def test_matches_recursive_oracle_random_points(self):
        rng = np.random.default_rng(7)
        for degree, m in [(1, 3), (2, 6), (3, 7), (4, 10)]:
            basis = make_bspline_basis(degree, m)
            inner = np.sort(rng.uniform(0.001, 0.999, 30))
            pts = np.concatenate([[0.0], inner, [1.0]])
            values = evaluate_basis(basis, Grid(pts))
            oracle = np.array([
                [cox_de_boor(basis.knots, i, degree, u) for u in pts] for i in range(m)
            ])
            np.testing.assert_allclose(values, oracle, atol=1e-12)

    def test_matches_scipy_design_matrix(self):
        grid = Grid.uniform(101)
        for degree, m in [(1, 2), (2, 4), (3, 8), (5, 12)]:
            basis = make_bspline_basis(degree, m)
            np.testing.assert_allclose(
                evaluate_basis(basis, grid), scipy_design(basis, grid.points), atol=1e-13
            )

    def test_partition_of_unity_random_points(self):
        rng = np.random.default_rng(42)
        pts = np.concatenate([[0.0], np.sort(rng.uniform(1e-9, 1 - 1e-9, 1000)), [1.0]])
        grid = Grid(pts)
        for degree, m in [(1, 5), (2, 7), (3, 8), (4, 11)]:
            values = evaluate_basis(make_bspline_basis(degree, m), grid)
            np.testing.assert_allclose(values.sum(axis=0), 1.0, atol=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(
        degree=st.integers(1, 6),
        extra=st.integers(0, 20),
        interior=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=50),
    )
    def test_partition_of_unity_property(self, degree, extra, interior):
        grid = Grid(np.concatenate([[0.0], np.unique(interior), [1.0]]))
        values = evaluate_basis(make_bspline_basis(degree, degree + 1 + extra), grid)
        np.testing.assert_allclose(values.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_values_nonnegative(self):
        grid = Grid.uniform(501)
        values = evaluate_basis(make_bspline_basis(3, 9), grid)
        assert np.all(values >= -1e-14)

    def test_local_support(self):
        # psi_m vanishes outside degree+1 consecutive knot spans
        basis = make_bspline_basis(3, 8)
        grid = Grid.uniform(2001)
        values = evaluate_basis(basis, grid)
        t = basis.knots
        for m_idx in range(basis.num_basis):
            lo, hi = t[m_idx], t[m_idx + basis.degree + 1]
            outside = (grid.points < lo - 1e-12) | (grid.points > hi + 1e-12)
            assert np.all(np.abs(values[m_idx, outside]) < 1e-14)


class TestInnerProducts:
    def test_constant_curve_rows_sum_to_one(self):
        grid = Grid.uniform(101)
        basis = make_bspline_basis(3, 6)
        curves = np.ones((4, grid.num_points))
        products = functional_inner_products(basis, curves, grid)
        np.testing.assert_allclose(products.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_curve_gives_zero_row(self):
        grid = Grid.uniform(51)
        basis = make_bspline_basis(2, 5)
        products = functional_inner_products(basis, np.zeros((3, 51)), grid)
        assert np.all(products == 0.0)

    def test_quadratic_curve_against_fine_grid_oracle(self):
        # Trapezoid on 101 points vs a 10001-point oracle built on an
        # independent (scipy) evaluation of the basis.  The boundary basis
        # functions carry an O(G^-2) quadrature error of order 1e-4; the
        # rate itself is pinned down in test_quadrature_convergence_rate.
        basis = make_bspline_basis(3, 6)
        grid = Grid.uniform(101)
        products = functional_inner_products(basis, (grid.points**2)[None, :], grid)

        fine = np.linspace(0.0, 1.0, 10001)
        psi_fine = scipy_design(basis, fine)
        oracle = np.trapezoid(psi_fine * fine**2, fine, axis=1)
        np.testing.assert_allclose(products[0], oracle, atol=2e-4)
        # interior basis functions are far more accurate
        np.testing.assert_allclose(products[0, 2:4], oracle[2:4], atol=1e-8)

    def test_quadrature_convergence_rate(self):
        # composite trapezoid converges at O(G^-2) for smooth curves
        basis = make_bspline_basis(3, 6)
        fine = np.linspace(0.0, 1.0, 10001)
        psi_fine = scipy_design(basis, fine)
        oracle = np.trapezoid(psi_fine * fine**2, fine, axis=1)

        errs = []
        for g in (26, 51, 101):
            grid = Grid.uniform(g)
            products = functional_inner_products(basis, (grid.points**2)[None, :], grid)
            errs.append(np.max(np.abs(products[0] - oracle)))
        # halving h divides the error by ~4
        assert 2.5 < errs[0] / errs[1] < 6.0
        assert 2.5 < errs[1] / errs[2] < 6.0

    def test_width_mismatch_raises(self):
        grid = Grid.uniform(11)
        basis = make_bspline_basis(2, 4)
        with pytest.raises(DimensionError):
            functional_inner_products(basis, np.ones((2, 12)), grid)


class TestGrid:
    def test_rejects_bad_endpoints(self):
        with pytest.raises(InvalidSizeError):
            Grid(np.array([0.0, 0.5, 0.9]))
        with pytest.raises(InvalidSizeError):
            Grid(np.array([0.1, 0.5, 1.0]))

    def test_rejects_non_ascending(self):
        with pytest.raises(InvalidSizeError):
            Grid(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_trapezoid_weights_sum_to_length(self):
        pts = np.array([0.0, 0.1, 0.4, 0.75, 1.0])
        np.testing.assert_allclose(trapezoid_weights(pts).sum(), 1.0, atol=1e-15)
