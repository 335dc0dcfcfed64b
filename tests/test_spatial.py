"""Tests for spatial weights, filtering, Moran's I, and rho estimation."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfdnn import spatial
from sfdnn.errors import (
    AdmissibilityError,
    DataError,
    DegenerateBandwidthError,
    DegenerateVarianceError,
    DesignRankError,
    InvalidSizeError,
)
from sfdnn.spatial import (
    DENSE_LIMIT,
    EARTH_RADIUS_KM,
    Coordinates,
    SpatialFilterFactor,
    SpatialWeightMatrix,
    apply_spatial_filter,
    build_inverse_distance_weights,
    build_knn_bisquare_weights,
    estimate_rho_ml,
    great_circle_km,
    load_weights,
    local_morans_i,
    log_det_filter,
    save_weights,
)
from sfdnn.spatial import _perm_parity


def cofactor_det(a):
    """Determinant by recursive Laplace expansion along the first row."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        if a[0, j] == 0.0:
            continue
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def haversine_oracle(lat1, lon1, lat2, lon2):
    """Scalar haversine written independently with the math module."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return EARTH_RADIUS_KM * 2 * math.asin(math.sqrt(a))


def random_row_normalized(n, rng, density=1.0):
    raw = rng.uniform(0.0, 1.0, (n, n))
    if density < 1.0:
        raw *= rng.uniform(0.0, 1.0, (n, n)) < density
    np.fill_diagonal(raw, 0.0)
    raw[raw.sum(axis=1) == 0, (np.arange(n) + 1)[raw.sum(axis=1) == 0] % n] = 1.0
    raw /= raw.sum(axis=1, keepdims=True)
    return SpatialWeightMatrix(raw, row_normalized=True)


class TestInverseDistanceWeights:
    def test_two_sites(self):
        W = build_inverse_distance_weights(2)
        np.testing.assert_allclose(W.toarray(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_three_sites_hand_values(self):
        W = build_inverse_distance_weights(3)
        np.testing.assert_allclose(W.toarray()[0], [0.0, 3.0 / 5.0, 2.0 / 5.0], atol=1e-15)
        # brute-force the formula for every row
        raw = np.array([[1.0 / (1 + abs(i - j)) if i != j else 0.0 for j in range(3)] for i in range(3)])
        raw /= raw.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(W.toarray(), raw, atol=1e-15)

    @pytest.mark.parametrize("n", [5, 50, 500])
    def test_rows_sum_to_one(self, n):
        W = build_inverse_distance_weights(n)
        np.testing.assert_allclose(W.row_sums(), 1.0, atol=1e-12)

    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            build_inverse_distance_weights(1)

    def test_same_size_returns_the_same_matrix(self):
        W = build_inverse_distance_weights(9)
        assert build_inverse_distance_weights(9) is W
        assert build_inverse_distance_weights(10) is not W
        assert build_inverse_distance_weights(10).n == 10

    def test_shared_weights_are_read_only(self):
        W = build_inverse_distance_weights(9)
        with pytest.raises(ValueError):
            W.weights[0, 1] = 0.5
        with pytest.raises(ValueError):
            W.toarray()[...] *= 2.0
        np.testing.assert_allclose(W.row_sums(), 1.0, atol=1e-12)
        # derived matrices are copies the caller owns
        assert W.subset(np.arange(5)).weights.flags.writeable

    def test_threads_racing_to_fill_the_spectrum_agree(self):
        reference = build_inverse_distance_weights(150)
        expected = (reference.eigenvalues().copy(), reference.admissible_interval())
        build_inverse_distance_weights.cache_clear()

        def spectrum(_):
            W = build_inverse_distance_weights(150)
            return W.eigenvalues(), W.admissible_interval()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(spectrum, i) for i in range(8)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for eigs, bounds in results:
            assert np.array_equal(eigs, expected[0])
            assert bounds == expected[1]


class TestGreatCircle:
    def test_sao_paulo_to_rio(self):
        d = float(great_circle_km(-23.55, -46.63, -22.91, -43.17))
        oracle = haversine_oracle(-23.55, -46.63, -22.91, -43.17)
        assert abs(d - oracle) < 1e-9
        assert abs(d - 361.0) / 361.0 < 0.02

    def test_matches_oracle_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            lat1, lat2 = rng.uniform(-89, 89, 2)
            lon1, lon2 = rng.uniform(-179, 179, 2)
            d = float(great_circle_km(lat1, lon1, lat2, lon2))
            assert abs(d - haversine_oracle(lat1, lon1, lat2, lon2)) < 1e-9


def knn_bisquare_reference(coords, h):
    """All-pairs KNN bi-square builder: haversine to every site, row by row."""
    pts = np.asarray(coords, dtype=float)
    n = pts.shape[0]
    rows_i, rows_j, rows_w = [], [], []
    dense = None if n > DENSE_LIMIT else np.zeros((n, n))
    block = 512
    for start in range(0, n, block):
        stop = min(start + block, n)
        d = great_circle_km(
            pts[start:stop, 0:1], pts[start:stop, 1:2], pts[None, :, 0], pts[None, :, 1]
        )
        for local, i in enumerate(range(start, stop)):
            di = d[local].copy()
            di[i] = np.inf
            bandwidth = np.partition(di, h - 1)[h - 1]
            if bandwidth <= 0.0:
                raise DegenerateBandwidthError(f"site {i} has a zero bandwidth")
            neighbors = np.flatnonzero(di <= bandwidth * (1.0 + 1e-12))
            ratio = np.minimum(di[neighbors] / bandwidth, 1.0)
            raw = (1.0 - ratio**2) ** 2
            total = raw.sum()
            if total < 1e-20:
                raw = np.full(neighbors.size, 1.0 / neighbors.size)
            else:
                raw = raw / total
            if dense is None:
                rows_i.append(np.full(neighbors.size, i))
                rows_j.append(neighbors)
                rows_w.append(raw)
            else:
                dense[i, neighbors] = raw
    if dense is None:
        return sp.csr_matrix(
            (np.concatenate(rows_w), (np.concatenate(rows_i), np.concatenate(rows_j))),
            shape=(n, n),
        )
    return dense


def lattice(step, rows, cols):
    """Regular lat/lon grid: equal steps give exact and near (1e-12) distance ties."""
    lat = -4.0 + step * np.arange(rows)
    lon = 10.0 + step * np.arange(cols)
    return np.array([(a, b) for a in lat for b in lon])


def knn_clouds():
    rng = np.random.default_rng(71)
    sign = rng.choice([-1.0, 1.0], 400)
    return {
        "sparse-4000": (
            np.column_stack([rng.uniform(25.0, 50.0, 4000), rng.uniform(-125.0, -65.0, 4000)]),
            4,
        ),
        "dense-300": (np.column_stack([rng.uniform(-30, 30, 300), rng.uniform(-60, 40, 300)]), 4),
        "antimeridian": (
            np.column_stack([rng.uniform(-5, 5, 400), sign * rng.uniform(179.0, 180.0, 400)]),
            5,
        ),
        "antimeridian-179.9": (
            np.column_stack([rng.uniform(-1, 1, 60), np.tile([179.9, -179.9], 30)]),
            3,
        ),
        "polar-cap": (
            np.column_stack([rng.uniform(89.0, 90.0, 300), rng.uniform(-180, 180, 300)]),
            6,
        ),
        "lattice-ties": (lattice(1.0, 8, 10), 4),
        # sparse storage keeps the zero weight of a neighbor tied at the bandwidth
        "lattice-ties-sparse": (lattice(0.25, 56, 56), 2),
        "h-is-n-minus-1": (
            np.column_stack([rng.uniform(-80, 80, 150), rng.uniform(-180, 180, 150)]),
            149,
        ),
    }


class TestKnnOracle:
    @pytest.mark.parametrize("name", list(knn_clouds()))
    def test_bit_identical_to_all_pairs_builder(self, name):
        pts, h = knn_clouds()[name]
        W = build_knn_bisquare_weights(pts, h)
        ref = knn_bisquare_reference(pts, h)
        assert W.is_sparse == sp.issparse(ref)
        if W.is_sparse:
            assert np.array_equal(W.weights.indptr, ref.indptr)
            assert np.array_equal(W.weights.indices, ref.indices)
            assert np.array_equal(W.weights.data, ref.data)
        else:
            assert np.array_equal(W.weights, ref)

    def test_duplicates_inside_a_cloud_degenerate(self):
        rng = np.random.default_rng(73)
        pts = np.column_stack([rng.uniform(0, 10, 200), rng.uniform(0, 10, 200)])
        pts[150] = pts[17]
        with pytest.raises(DegenerateBandwidthError, match="site 17 "):
            build_knn_bisquare_weights(pts, h=1)
        # with h=2 a site needs two others at its own position
        build_knn_bisquare_weights(pts, h=2)
        pts[90] = pts[17]
        with pytest.raises(DegenerateBandwidthError, match="site 17 "):
            build_knn_bisquare_weights(pts, h=2)

    def test_non_finite_coordinates_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [np.nan, 2.0], [3.0, 3.0]])
        with pytest.raises(DataError):
            build_knn_bisquare_weights(pts, h=1)


class TestKnnBisquare:
    def test_equilateral_ties_fall_back_to_uniform(self):
        coords = [Coordinates(0.0, 0.0), Coordinates(0.0, 120.0), Coordinates(0.0, -120.0)]
        W = build_knn_bisquare_weights(coords, h=2)
        expected = np.full((3, 3), 0.5)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(W.toarray(), expected, atol=1e-12)

    def test_collinear_boundary_neighbor(self):
        deg_per_km = 360.0 / (2.0 * math.pi * EARTH_RADIUS_KM)
        coords = [
            Coordinates(0.0, 0.0),
            Coordinates(0.0, 1.0 * deg_per_km),
            Coordinates(0.0, 3.0 * deg_per_km),
        ]
        W = build_knn_bisquare_weights(coords, h=1)
        a = W.toarray()
        # middle site links only to the site at 0, with full weight
        np.testing.assert_allclose(a[1], [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(a[0], [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(a[2], [0.0, 1.0, 0.0], atol=1e-12)

    def test_duplicate_coordinates_degenerate(self):
        coords = [Coordinates(10.0, 10.0), Coordinates(10.0, 10.0), Coordinates(11.0, 11.0)]
        with pytest.raises(DegenerateBandwidthError):
            build_knn_bisquare_weights(coords, h=1)

    def test_rows_normalized_random_cloud(self):
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(-30, 30, 40), rng.uniform(-60, -40, 40)])
        W = build_knn_bisquare_weights(pts, h=4)
        np.testing.assert_allclose(W.row_sums(), 1.0, atol=1e-12)
        assert np.all(W.toarray().diagonal() == 0.0)

    def test_coordinate_validation(self):
        with pytest.raises(InvalidSizeError):
            Coordinates(91.0, 0.0)
        with pytest.raises(InvalidSizeError):
            Coordinates(0.0, 181.0)


class TestLocalMoran:
    def test_alternating_two_cycle(self):
        W = SpatialWeightMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), row_normalized=True)
        np.testing.assert_allclose(local_morans_i(W, np.array([1.0, -1.0])), [-1.0, -1.0], atol=1e-14)

    def test_isolated_site_gets_zero(self):
        w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        W = SpatialWeightMatrix(w, row_normalized=True)
        vals = local_morans_i(W, np.array([5.0, 1.0, -3.0]))
        assert vals[2] == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        W = random_row_normalized(6, rng)
        y = rng.normal(size=6)
        ybar = y.mean()
        denom = np.sum((y - ybar) ** 2)
        a = W.toarray()
        oracle = np.array([
            6 * (y[i] - ybar) * sum(a[i, j] * (y[j] - ybar) for j in range(6)) / denom
            for i in range(6)
        ])
        np.testing.assert_allclose(local_morans_i(W, y), oracle, atol=1e-12)

    def test_constant_response_rejected(self):
        W = build_inverse_distance_weights(4)
        with pytest.raises(DegenerateVarianceError):
            local_morans_i(W, np.full(4, 2.5))


class TestLogDet:
    def test_rho_zero_exact(self):
        W = build_inverse_distance_weights(5)
        assert log_det_filter(W, 0.0) == 0.0

    def test_two_by_two_hand_value(self):
        W = SpatialWeightMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), row_normalized=True)
        np.testing.assert_allclose(log_det_filter(W, 0.5), math.log(0.75), atol=1e-14)

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(9)
        W = random_row_normalized(6, rng)
        a = np.eye(6) - 0.3 * W.toarray()
        np.testing.assert_allclose(log_det_filter(W, 0.3), math.log(cofactor_det(a)), atol=1e-10)

    def test_symmetric_eigenvalue_formula(self):
        rng = np.random.default_rng(11)
        raw = rng.uniform(0.0, 1.0, (50, 50))
        sym = (raw + raw.T) / 2.0
        np.fill_diagonal(sym, 0.0)
        sym /= np.abs(np.linalg.eigvalsh(sym)).max() * 1.2
        W = SpatialWeightMatrix(sym, row_normalized=False)
        lam = np.linalg.eigvalsh(sym)
        for rho in (-0.7, -0.2, 0.4, 0.9):
            oracle = np.sum(np.log(np.abs(1.0 - rho * lam)))
            np.testing.assert_allclose(log_det_filter(W, rho), oracle, atol=1e-8)

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(13)
        W_dense = random_row_normalized(40, rng, density=0.2)
        W_sparse = SpatialWeightMatrix(sp.csr_matrix(W_dense.toarray()), row_normalized=True)
        for rho in (-0.5, 0.25, 0.8):
            np.testing.assert_allclose(
                log_det_filter(W_sparse, rho), log_det_filter(W_dense, rho), atol=1e-10
            )

    def test_outside_admissible_region_raises(self):
        W = SpatialWeightMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), row_normalized=True)
        with pytest.raises(AdmissibilityError):
            log_det_filter(W, 1.5)

    def test_sparse_pivoted_route_hand_values(self):
        # |rho| times the largest row sum is at least 1: not diagonally dominant
        W = SpatialWeightMatrix(sp.csr_matrix([[0.0, 2.0], [0.1, 0.0]]), row_normalized=False)
        np.testing.assert_allclose(log_det_filter(W, 0.6), math.log(0.928), atol=1e-14)
        with pytest.raises(AdmissibilityError):
            log_det_filter(W, 3.0)


class TestApplyFilter:
    def test_rho_zero_identity(self):
        W = build_inverse_distance_weights(4)
        b = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(apply_spatial_filter(W, 0.0, b), b)

    def test_residual_bound_random_rhos(self):
        rng = np.random.default_rng(21)
        W = build_inverse_distance_weights(30)
        lo, hi = W.admissible_interval()
        a = W.toarray()
        for _ in range(10):
            rho = rng.uniform(lo + 1e-3, hi - 1e-3)
            b = rng.normal(size=(30, 3))
            x = apply_spatial_filter(W, rho, b)
            resid = (np.eye(30) - rho * a) @ x - b
            assert np.max(np.abs(resid)) < 1e-10

    def test_three_site_hand_inverse(self):
        W = build_inverse_distance_weights(3)
        b = np.ones(3)
        a = np.eye(3) - 0.5 * W.toarray()
        # explicit adjugate inverse of the 3x3 system
        det = cofactor_det(a)
        adj = np.array([
            [
                (-1.0) ** (i + j) * cofactor_det(np.delete(np.delete(a, j, axis=0), i, axis=1))
                for j in range(3)
            ]
            for i in range(3)
        ])
        oracle = (adj / det) @ b
        np.testing.assert_allclose(apply_spatial_filter(W, 0.5, b), oracle, atol=1e-12)

    def test_sparse_solve_matches_dense(self):
        rng = np.random.default_rng(17)
        W_dense = random_row_normalized(25, rng, density=0.3)
        W_sparse = SpatialWeightMatrix(sp.csr_matrix(W_dense.toarray()), row_normalized=True)
        b = rng.normal(size=(25, 2))
        np.testing.assert_allclose(
            apply_spatial_filter(W_sparse, 0.6, b),
            apply_spatial_filter(W_dense, 0.6, b),
            atol=1e-10,
        )


def simulate_lagged(n, rho, rng, k_extra=3):
    """Linear spatially lagged data used by the estimation tests."""
    W = build_inverse_distance_weights(n)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k_extra))])
    theta = np.concatenate([[0.5], rng.uniform(0.5, 2.0, k_extra)])
    signal = X @ theta + rng.normal(size=n)
    y = apply_spatial_filter(W, rho, signal)
    return y, X, W


class TestEstimateRho:
    def test_pure_noise_recovers_zero(self):
        # dependence is weakly identified without signal, so a few
        # replications legitimately pin at the interval boundary; those are
        # flagged and treated as failed replications
        W = build_inverse_distance_weights(200)
        estimates, boundary = [], []
        for r in range(50):
            rng = np.random.default_rng(1000 + r)
            y = rng.normal(size=200)
            X = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
            est = estimate_rho_ml(y, X, W)
            estimates.append(est.rho_hat)
            boundary.append(est.at_boundary)
        estimates, boundary = np.array(estimates), np.array(boundary)
        assert boundary.sum() <= 5
        assert abs(np.mean(estimates[~boundary])) < 0.15

    def test_recovers_moderate_rho(self):
        # covariate signal matching the simulation design's strength
        W = build_inverse_distance_weights(500)
        theta = np.array([0.0, 1.25, -2.0, 2.15, 1.0, -1.0, 0.8])
        estimates = []
        for r in range(50):
            rng = np.random.default_rng(2000 + r)
            X = np.column_stack([np.ones(500), rng.normal(size=(500, 6))])
            y = apply_spatial_filter(W, 0.5, X @ theta + rng.normal(size=500))
            estimates.append(estimate_rho_ml(y, X, W).rho_hat)
        assert 0.45 <= np.mean(estimates) <= 0.55

    def test_grid_oracle_confirms_optimum(self):
        rng = np.random.default_rng(31)
        y, X, W = simulate_lagged(120, 0.6, rng)
        est = estimate_rho_ml(y, X, W)

        lo, hi = est.admissible_interval
        grid = np.linspace(lo + 1e-6, hi - 1e-6, 201)
        q, _ = np.linalg.qr(X, mode="reduced")
        ylag = W.matvec(y)
        e0 = y - q @ (q.T @ y)
        e1 = ylag - q @ (q.T @ ylag)

        def conc(rho):
            resid = e0 - rho * e1
            return log_det_filter(W, rho) - 0.5 * len(y) * np.log(resid @ resid / len(y))

        vals = np.array([conc(r) for r in grid])
        best = grid[np.argmax(vals)]
        assert abs(best - est.rho_hat) <= (grid[1] - grid[0]) + 1e-12

    def test_grid_oracle_confirms_optimum_on_lu_route(self, monkeypatch):
        rng = np.random.default_rng(59)
        pts = rng.uniform(-5.0, 5.0, (150, 2))
        knn = build_knn_bisquare_weights(pts, 4)
        W = SpatialWeightMatrix(sp.csr_matrix(knn.toarray()), row_normalized=True)
        X = np.column_stack([np.ones(150), rng.normal(size=(150, 3))])
        y = apply_spatial_filter(W, 0.6, X @ np.array([0.5, 1.0, -1.5, 2.0]) + rng.normal(size=150))
        monkeypatch.setattr(spatial, "_EIG_LIMIT", 100)
        exact = spatial.log_det_filter
        calls = []

        def counted(W, rho):
            calls.append(rho)
            return exact(W, rho)

        monkeypatch.setattr(spatial, "log_det_filter", counted)
        est = estimate_rho_ml(y, X, W)
        assert W.eigenvalues() is None
        # a 21-point scan and one refinement: the evaluation budget
        assert len(calls) <= 40

        lo, hi = est.admissible_interval
        grid = np.linspace(lo + 1e-6, hi - 1e-6, 201)
        q, _ = np.linalg.qr(X, mode="reduced")
        ylag = W.matvec(y)
        e0 = y - q @ (q.T @ y)
        e1 = ylag - q @ (q.T @ ylag)

        def conc(rho):
            resid = e0 - rho * e1
            return exact(W, rho) - 0.5 * len(y) * np.log(resid @ resid / len(y))

        vals = np.array([conc(r) for r in grid])
        best = grid[np.argmax(vals)]
        assert abs(best - est.rho_hat) <= (grid[1] - grid[0]) + 1e-12
        assert conc(est.rho_hat) >= vals.max() - 1e-9

    def test_column_scaling_invariance(self):
        rng = np.random.default_rng(37)
        y, X, W = simulate_lagged(80, 0.4, rng)
        base = estimate_rho_ml(y, X, W)
        scaled = X.copy()
        scaled[:, 2] *= 37.5
        other = estimate_rho_ml(y, scaled, W)
        assert abs(base.rho_hat - other.rho_hat) < 1e-8
        np.testing.assert_allclose(X @ base.theta_hat, scaled @ other.theta_hat, atol=1e-8)
        np.testing.assert_allclose(other.theta_hat[2], base.theta_hat[2] / 37.5, atol=1e-10)

    def test_rank_deficient_design_rejected(self):
        rng = np.random.default_rng(41)
        y, X, W = simulate_lagged(40, 0.3, rng)
        X_bad = np.column_stack([X, X[:, 1]])
        with pytest.raises(DesignRankError):
            estimate_rho_ml(y, X_bad, W)

    def test_missing_intercept_rejected(self):
        rng = np.random.default_rng(43)
        y, X, W = simulate_lagged(40, 0.3, rng)
        with pytest.raises(DesignRankError):
            estimate_rho_ml(y, X[:, 1:], W)

    def test_boundary_flag_on_extreme_dependence(self):
        rng = np.random.default_rng(47)
        W = build_inverse_distance_weights(100)
        lo, hi = W.admissible_interval()
        X = np.column_stack([np.ones(100), rng.normal(size=(100, 1))])
        y = apply_spatial_filter(
            W, hi - 1e-6, X @ np.array([0.0, 1.0]) + 1e-4 * rng.normal(size=100)
        )
        est = estimate_rho_ml(y, X, W)
        assert est.at_boundary

    def test_sigma_and_loglik_reported(self):
        rng = np.random.default_rng(53)
        y, X, W = simulate_lagged(60, 0.2, rng)
        est = estimate_rho_ml(y, X, W)
        assert est.sigma2_hat > 0
        assert np.isfinite(est.loglik)
        lo, hi = est.admissible_interval
        assert lo < est.rho_hat < hi


class TestSerialization:
    def test_round_trip_dense(self, tmp_path):
        W = build_inverse_distance_weights(7)
        path = tmp_path / "w.txt"
        save_weights(W, path)
        back = load_weights(path)
        assert back.row_normalized
        np.testing.assert_array_equal(back.toarray(), W.toarray())

    def test_round_trip_sparse(self, tmp_path):
        rng = np.random.default_rng(61)
        W = random_row_normalized(12, rng, density=0.25)
        W_sparse = SpatialWeightMatrix(sp.csr_matrix(W.toarray()), row_normalized=True)
        path = tmp_path / "w.txt"
        save_weights(W_sparse, path)
        back = load_weights(path)
        np.testing.assert_array_equal(back.toarray(), W_sparse.toarray())


class TestSubset:
    def test_subset_renormalizes(self):
        W = build_inverse_distance_weights(10)
        sub = W.subset(np.array([0, 3, 5, 9]))
        assert sub.n == 4
        np.testing.assert_allclose(sub.row_sums(), 1.0, atol=1e-12)

    def test_subset_preserves_relative_weights(self):
        W = build_inverse_distance_weights(6)
        rows = np.array([1, 2, 4])
        sub = W.subset(rows)
        full = W.toarray()[np.ix_(rows, rows)]
        full /= full.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(sub.toarray(), full, atol=1e-14)


def spectrum_interval(eigs):
    """Admissible interval of a W whose spectrum is ``eigs``."""
    W = SpatialWeightMatrix(np.zeros((1, 1)), row_normalized=False)
    W._eigenvalues = eigs
    return W.admissible_interval()


def real_route_cases(tmp_path):
    cases = {f"inverse-distance-{n}": build_inverse_distance_weights(n) for n in (2, 3, 50, 500)}
    cases["subset"] = build_inverse_distance_weights(60).subset(np.arange(0, 60, 3))
    path = tmp_path / "w.txt"
    save_weights(build_inverse_distance_weights(40), path)
    cases["round-trip"] = load_weights(path)
    return cases


class TestSpectrumRoute:
    def test_symmetrizable_weights_take_real_route(self, tmp_path, monkeypatch):
        cases = real_route_cases(tmp_path)
        oracle = {name: np.linalg.eigvals(W.toarray()) for name, W in cases.items()}

        def refuse(_):
            raise AssertionError("eigvals called on a symmetrizable W")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for name, W in cases.items():
            eigs = W.eigenvalues()
            assert np.isrealobj(eigs), name
            np.testing.assert_allclose(
                np.sort(eigs), np.sort(oracle[name].real), rtol=0, atol=1e-12, err_msg=name
            )
            np.testing.assert_allclose(
                W.admissible_interval(), spectrum_interval(oracle[name]), rtol=0, atol=1e-12
            )

    @pytest.mark.filterwarnings("error")
    def test_other_weights_fall_back_to_eigvals(self, monkeypatch):
        rng = np.random.default_rng(79)
        nonsymmetric = random_row_normalized(40, rng)
        pts = np.column_stack([rng.uniform(0, 10, 80), rng.uniform(0, 10, 80)])
        knn = build_knn_bisquare_weights(pts, h=4)
        oracle = [np.linalg.eigvals(W.toarray()) for W in (nonsymmetric, knn)]

        def refuse(*_args, **_kwargs):
            raise AssertionError("eigvalsh called on a W that is not symmetrizable")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for W, eigs in zip((nonsymmetric, knn), oracle):
            assert np.array_equal(W.eigenvalues(), eigs)
            assert W.admissible_interval() == spectrum_interval(eigs)


def perm_parity_reference(perm):
    """Parity of a permutation by walking each cycle."""
    seen = np.zeros(perm.size, dtype=bool)
    parity = 0
    for i in range(perm.size):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


class TestProperties:
    @settings(deadline=None)
    @given(st.integers(1, 300).flatmap(lambda n: st.permutations(range(n))))
    @example([0])
    @example(list(range(25)))
    def test_perm_parity_matches_cycle_walk(self, perm):
        perm = np.array(perm, dtype=np.int32)
        assert _perm_parity(perm) == perm_parity_reference(perm)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.1, 1.0),
        frac=st.floats(0.01, 0.99),
    )
    def test_sparse_log_det_matches_dense(self, n, seed, density, frac):
        W_dense = random_row_normalized(n, np.random.default_rng(seed), density)
        W_sparse = SpatialWeightMatrix(sp.csr_matrix(W_dense.toarray()), row_normalized=True)
        lo, hi = W_dense.admissible_interval()
        rho = lo + frac * (hi - lo)
        dense, sparse = log_det_filter(W_dense, rho), log_det_filter(W_sparse, rho)
        assert abs(sparse - dense) <= 1e-10 * max(1.0, abs(dense))

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(2, 150), frac=st.floats(0.001, 0.999))
    @example(n=2, frac=0.5)
    def test_inverse_distance_log_det_matches_spectrum(self, n, frac):
        W = build_inverse_distance_weights(n)
        lo, hi = W.admissible_interval()
        rho = lo + frac * (hi - lo)
        spectral = float(np.sum(np.log(1.0 - rho * W.eigenvalues())))
        assert abs(log_det_filter(W, rho) - spectral) <= 1e-10 * max(1.0, abs(spectral))

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(3, 30),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.1, 1.0),
        frac=st.floats(0.01, 0.99),
        cols=st.integers(1, 3),
    )
    def test_sparse_solves_invert_row_normalized_filter(self, n, seed, density, frac, cols):
        W = random_row_normalized(n, np.random.default_rng(seed), density)
        lo, hi = W.admissible_interval()
        assert_solves_invert_filter(W.toarray(), lo + frac * (hi - lo), cols, seed, pivoted=False)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(3, 30),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1.5, 3.0),
        frac=st.floats(0.01, 0.99),
        cols=st.integers(1, 3),
    )
    def test_sparse_solves_invert_unnormalized_filter(self, n, seed, scale, frac, cols):
        # every row sums to scale > 1; rho below -1 / scale is admissible
        # (a positive W has its smallest eigenvalue above -scale) but
        # leaves I - rho W without diagonal dominance
        a = scale * random_row_normalized(n, np.random.default_rng(seed)).toarray()
        lo, _ = SpatialWeightMatrix(a, row_normalized=False).admissible_interval()
        rho = lo + frac * (-1.0 / scale - lo)
        assert_solves_invert_filter(a, rho, cols, seed, pivoted=True)


def assert_solves_invert_filter(a, rho, cols, seed, pivoted):
    """Sparse solve and solve_transpose against dense solves of I - rho W.

    The route follows from the row sums, not from the row-normalized flag.
    """
    W = SpatialWeightMatrix(sp.csr_matrix(a), row_normalized=False)
    factor = SpatialFilterFactor(W, rho)
    assert (factor._perm is None) == pivoted
    filt = np.eye(W.n) - rho * a
    rng = np.random.default_rng(seed)
    for b in (rng.normal(size=W.n), rng.normal(size=(W.n, cols))):
        for got, ref in (
            (factor.solve(b), np.linalg.solve(filt, b)),
            (factor.solve_transpose(b), np.linalg.solve(filt.T, b)),
        ):
            assert got.shape == b.shape
            assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))
