"""Tests for spatial weights, filtering, Moran's I, and rho estimation."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sparse_linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sfdnn import spatial
from sfdnn.errors import (
    AdmissibilityError,
    DataError,
    DegenerateBandwidthError,
    DegenerateVarianceError,
    DesignRankError,
    DimensionError,
    InvalidSizeError,
)
from sfdnn.spatial import (
    EARTH_RADIUS_KM,
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

    @pytest.mark.parametrize("n", [2.0, 3.5, True], ids=["integral-float", "fraction", "bool"])
    def test_non_integer_size_rejected(self, n):
        for size in (2, np.int64(2)):  # a cached size equal to n does not let it through
            build_inverse_distance_weights(size)
        with pytest.raises(InvalidSizeError, match="^n must be an integer"):
            build_inverse_distance_weights(n)

    def test_numpy_integer_size_accepted(self):
        W = build_inverse_distance_weights(np.int64(7))
        assert np.array_equal(W.toarray(), build_inverse_distance_weights(7).toarray())

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
        b = np.linspace(-1.0, 1.0, 150)
        reference = build_inverse_distance_weights(150)
        expected = (
            reference.eigenvalues().copy(),
            reference.admissible_interval(),
            SpatialFilterFactor(reference, 0.8).solve(b).tobytes(),
        )
        build_inverse_distance_weights.cache_clear()

        def spectrum(_):
            # the filter solve fills the eigenvectors cached on W
            W = build_inverse_distance_weights(150)
            return W.eigenvalues(), W.admissible_interval(), SpatialFilterFactor(W, 0.8).solve(b).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(spectrum, i) for i in range(8)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for eigs, bounds, x in results:
            assert np.array_equal(eigs, expected[0])
            assert bounds == expected[1]
            assert x == expected[2]


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
    """All-pairs KNN bi-square builder: haversine to every site, row by row.

    Returns CSR holding only the positive weights.
    """
    pts = np.asarray(coords, dtype=float)
    n = pts.shape[0]
    rows_i, rows_j, rows_w = [], [], []
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
            positive = raw > 0.0
            rows_i.append(np.full(np.count_nonzero(positive), i))
            rows_j.append(neighbors[positive])
            rows_w.append(raw[positive])
    return sp.csr_matrix(
        (np.concatenate(rows_w), (np.concatenate(rows_i), np.concatenate(rows_j))),
        shape=(n, n),
    )


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
        "lattice-ties-sparse": (lattice(0.25, 56, 56), 2),
        "h-is-n-minus-1": (
            np.column_stack([rng.uniform(-80, 80, 150), rng.uniform(-180, 180, 150)]),
            149,
        ),
        # the h+2 nearest of every site are all the sites
        "h-is-n-minus-2": (
            np.column_stack([rng.uniform(-80, 80, 120), rng.uniform(-180, 180, 120)]),
            118,
        ),
        # interior sites keep 8 neighbors, summed pairwise; border sites keep 7,
        # summed left to right (at h = 5 only the equator row keeps 8, and its
        # two sum orders agree)
        "lattice-8-kept": (lattice(1.0, 9, 12), 7),
        # one block: the lattice's tied sites need a ball query, the rest do not
        "lattice-beside-cloud": (
            np.vstack(
                [lattice(1.0, 5, 6), np.column_stack([rng.uniform(20, 40, 400), rng.uniform(20, 60, 400)])]
            ),
            3,
        ),
    }


class TestKnnOracle:
    @pytest.mark.parametrize("name", list(knn_clouds()))
    def test_bit_identical_to_all_pairs_builder(self, name):
        pts, h = knn_clouds()[name]
        W = build_knn_bisquare_weights(pts, h)
        ref = knn_bisquare_reference(pts, h)
        assert W.is_sparse and W.weights.format == "csr"
        assert np.array_equal(W.weights.indptr, ref.indptr)
        assert np.array_equal(W.weights.indices, ref.indices)
        assert np.array_equal(W.weights.data, ref.data)

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

    @pytest.mark.parametrize("h", [2.5, 3.0, True], ids=["fraction", "integral-float", "bool"])
    def test_non_integer_h_rejected(self, h):
        pts = knn_clouds()["dense-300"][0]
        with pytest.raises(InvalidSizeError, match="^h must be an integer"):
            build_knn_bisquare_weights(pts, h=h)

    def test_numpy_integer_h_accepted(self):
        pts = knn_clouds()["dense-300"][0]
        W = build_knn_bisquare_weights(pts, h=np.int64(3)).weights
        ref = build_knn_bisquare_weights(pts, h=3).weights
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(W, part), getattr(ref, part))


def knn_80():
    """80-site KNN W (h=4) on a random cloud."""
    rng = np.random.default_rng(81)
    return build_knn_bisquare_weights(np.column_stack([rng.uniform(0, 10, 80), rng.uniform(0, 10, 80)]), 4)


def refuse_spectra(monkeypatch):
    """Make any eigenvalue solve fail the test."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("an eigenvalue solver was called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)


class TestKnnBisquare:
    def test_small_w_is_csr_of_positive_weights_and_subsets_stay_csr(self):
        W = knn_80()
        assert W.is_sparse and W.weights.format == "csr"
        assert np.all(W.weights.data > 0.0)
        rows = np.arange(0, 80, 3)
        sub = W.subset(rows)
        assert sub.is_sparse and sub.weights.format == "csr"
        dense = SpatialWeightMatrix(W.toarray(), row_normalized=True).subset(rows)
        np.testing.assert_allclose(sub.toarray(), dense.toarray(), rtol=0.0, atol=1e-15)

    def test_equilateral_ties_fall_back_to_uniform(self):
        coords = np.array([[0.0, 0.0], [0.0, 120.0], [0.0, -120.0]])
        W = build_knn_bisquare_weights(coords, h=2)
        expected = np.full((3, 3), 0.5)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(W.toarray(), expected, atol=1e-12)

    def test_collinear_boundary_neighbor(self):
        deg_per_km = 360.0 / (2.0 * math.pi * EARTH_RADIUS_KM)
        coords = np.array([[0.0, 0.0], [0.0, 1.0 * deg_per_km], [0.0, 3.0 * deg_per_km]])
        W = build_knn_bisquare_weights(coords, h=1)
        a = W.toarray()
        # middle site links only to the site at 0, with full weight
        np.testing.assert_allclose(a[1], [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(a[0], [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(a[2], [0.0, 1.0, 0.0], atol=1e-12)

    def test_duplicate_coordinates_degenerate(self):
        coords = np.array([[10.0, 10.0], [10.0, 10.0], [11.0, 11.0]])
        with pytest.raises(DegenerateBandwidthError):
            build_knn_bisquare_weights(coords, h=1)

    def test_rows_normalized_random_cloud(self):
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(-30, 30, 40), rng.uniform(-60, -40, 40)])
        W = build_knn_bisquare_weights(pts, h=4)
        np.testing.assert_allclose(W.row_sums(), 1.0, atol=1e-12)
        assert np.all(W.toarray().diagonal() == 0.0)

    def test_coordinate_validation(self):
        base = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        for site, col, value, name in ((1, 0, 91.0, "latitude"), (2, 1, -181.0, "longitude")):
            pts = base.copy()
            pts[site, col] = value
            with pytest.raises(DataError, match=f"site {site} has {name} {value}"):
                build_knn_bisquare_weights(pts, h=1)
        # the range ends themselves are valid
        build_knn_bisquare_weights(np.array([[90.0, 0.0], [-90.0, 180.0], [0.0, -180.0]]), h=1)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_response_rejected(self, bad):
        W = build_inverse_distance_weights(5)
        y = np.arange(5.0)
        y[2] = y[4] = bad
        with pytest.raises(DataError, match="response at site 2 is NaN or infinite"):
            local_morans_i(W, y)


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

    def test_non_dominant_hand_values_need_a_spectrum(self):
        # |rho| times the largest row sum is at least 1: not diagonally dominant
        a = np.array([[0.0, 2.0], [0.1, 0.0]])
        W = SpatialWeightMatrix(a, row_normalized=False)
        # the spectrum +-sqrt(0.2) certifies 0.6, inside (-2.236, 2.236) cut to (-1, 1)
        np.testing.assert_allclose(log_det_filter(W, 0.6), math.log(0.928), atol=1e-14)
        with pytest.raises(AdmissibilityError):
            log_det_filter(W, 3.0)
        # sparse storage has no spectrum: its interval is the row-sum bound (-0.5, 0.5)
        sparse = SpatialWeightMatrix(sp.csr_matrix(a), row_normalized=False)
        assert sparse.eigenvalues() is None
        with pytest.raises(AdmissibilityError, match="outside the admissible interval"):
            log_det_filter(sparse, 0.6)
        np.testing.assert_allclose(log_det_filter(sparse, 0.4), math.log(0.968), atol=1e-14)

    def test_doubled_sparse_knn_interval_is_the_row_sum_bound(self):
        W = doubled_sparse_knn(60)
        lo, hi = W.admissible_interval()
        np.testing.assert_allclose((lo, hi), (-0.5, 0.5), rtol=0.0, atol=1e-15)
        # an inadmissible rho is refused, not trusted to a determinant's sign
        for rho in (0.8, 0.55, -0.6):
            with pytest.raises(AdmissibilityError):
                log_det_filter(W, rho)
        np.testing.assert_allclose(
            log_det_filter(W, 0.45), np.linalg.slogdet(np.eye(60) - 0.45 * W.toarray())[1], atol=1e-10
        )


def component_cloud(n=600):
    """Sites in a lat/lon box: a KNN W on them splits into many strongly
    connected components at h <= 4 and into one giant component from h = 6."""
    rng = np.random.default_rng(41)
    return np.column_stack([rng.uniform(25.0, 50.0, n), rng.uniform(-125.0, -65.0, n)])


def assert_log_dets_match_slogdet(W):
    """Every log-det within 1e-10 relative of slogdet on dense I - rho W, rho
    within 1e-6 of both ends of the interval included."""
    lo, hi = W.admissible_interval()
    a = W.toarray()
    for rho in (lo + 1e-6, 0.5 * lo, 0.3, 0.5 * (0.3 + hi), hi - 1e-6):
        oracle = np.linalg.slogdet(np.eye(W.n) - rho * a)[1]
        assert abs(log_det_filter(W, rho) - oracle) <= 1e-10 * max(1.0, abs(oracle)), rho


class TestComponentLogDet:
    @pytest.mark.parametrize("h", [2, 3, 4, 6])
    def test_knn_log_dets_match_slogdet(self, h):
        W = build_knn_bisquare_weights(component_cloud(), h)
        stacks, large = W._components
        sizes = [stack.shape[1] for stack in stacks]
        held = sum(stack.shape[0] * stack.shape[1] for stack in stacks)
        assert held + (0 if large is None else large.shape[0]) <= W.n
        assert all(2 <= size <= spatial._SMALL_COMPONENT for size in sizes)
        routes = {
            2: sizes == [2] and large is None,  # pairs and single sites
            3: large is None,
            4: bool(stacks) and large is not None,
            6: large is not None and large.shape[0] >= 0.9 * W.n,  # one giant component
        }
        assert routes[h]
        assert_log_dets_match_slogdet(W)

    def test_components_of_the_cutoff_size_and_one_more(self):
        cut = spatial._SMALL_COMPONENT
        rng = np.random.default_rng(43)
        n = 1 + cut + (cut + 1)
        a = np.zeros((n, n))
        # a single site, then a block of cut sites and one of cut + 1, each
        # strongly connected by a cycle plus random weights
        blocks = (np.arange(1, 1 + cut), np.arange(1 + cut, n))
        for sites in blocks:
            a[np.ix_(sites, sites)] = rng.uniform(0.0, 1.0, (sites.size,) * 2) * (
                rng.uniform(size=(sites.size,) * 2) < 0.2
            )
            a[sites, np.roll(sites, -1)] = rng.uniform(0.5, 1.0, sites.size)
        np.fill_diagonal(a, 0.0)
        # weights from the single site into the first block and from it into
        # the second, never back: three components, block triangular
        a[0, 1:5] = 1.0
        a[1:4, 1 + cut : 4 + cut] = 0.5
        a /= a.sum(axis=1, keepdims=True)
        W = SpatialWeightMatrix(sp.csr_matrix(a), row_normalized=True)
        stacks, large = W._components
        assert [stack.shape for stack in stacks] == [(1, cut, cut)]
        assert np.array_equal(stacks[0][0], a[np.ix_(blocks[0], blocks[0])])
        # the larger block alone, its weights to nowhere else kept
        assert large.shape == (cut + 1, cut + 1)
        assert large.nnz == np.count_nonzero(a[np.ix_(blocks[1], blocks[1])])
        assert_log_dets_match_slogdet(W)

    def test_renormalized_subset_of_a_knn_w(self):
        W = build_knn_bisquare_weights(component_cloud(), 4)
        rows = np.sort(np.random.default_rng(47).choice(W.n, 300, replace=False))
        sub = W.subset(rows)
        assert sub.is_sparse and len(sub._components[0]) > 1
        assert_log_dets_match_slogdet(sub)

    def test_rho_search_over_small_components_runs_no_sparse_lu(self, monkeypatch):
        W = build_knn_bisquare_weights(component_cloud(), 3)
        rng = np.random.default_rng(53)
        X = np.column_stack([np.ones(W.n), rng.normal(size=(W.n, 2))])
        y = apply_spatial_filter(W, 0.6, X @ np.array([0.5, 1.0, -1.5]) + rng.normal(size=W.n))

        def refuse(*_args, **_kwargs):
            raise AssertionError("the search ran a sparse LU")

        monkeypatch.setattr(sparse_linalg, "splu", refuse)
        est = estimate_rho_ml(y, X, W)
        assert W._components[1] is None
        lo, hi = est.admissible_interval
        assert lo < est.rho_hat < hi


class TestDenseFactor:
    @pytest.mark.parametrize("n", [2, 60, 300])
    def test_lazy_log_det_matches_spectrum(self, n):
        W = build_inverse_distance_weights(n)
        lo, hi = W.admissible_interval()
        for rho in (lo + 0.01 * (hi - lo), 0.0, 0.5, 0.9, hi - 0.01 * (hi - lo)):
            factor = SpatialFilterFactor(W, rho)
            assert "log_det" not in vars(factor)
            spectral = float(np.sum(np.log(1.0 - rho * W.eigenvalues())))
            np.testing.assert_allclose(factor.log_det, spectral, rtol=0.0, atol=1e-10)

    def test_non_dominant_beyond_interval_raises_at_construction(self):
        # rows sum to 2, so the Perron root is 2 and the interval ends at 0.5
        rng = np.random.default_rng(21)
        a = 2.0 * random_row_normalized(30, rng).toarray()
        W = SpatialWeightMatrix(a, row_normalized=False)
        lo, hi = W.admissible_interval()
        np.testing.assert_allclose(hi, 0.5, rtol=1e-12)
        rho = 0.55
        assert abs(rho) * W.row_sums().max() >= 1.0
        assert np.linalg.det(np.eye(30) - rho * a) < 0.0
        with pytest.raises(AdmissibilityError):
            SpatialFilterFactor(W, rho)
        # W cannot be symmetrized, so it has no spectrum and takes the
        # row-sum bound, which admits no non-dominant rho
        assert W.eigenvalues() is None and lo == -hi
        with pytest.raises(AdmissibilityError, match="outside the admissible interval"):
            SpatialFilterFactor(W, -0.8)
        # W = D^{-1} S with S symmetric and the same row sums has a spectrum:
        # a non-dominant rho inside its interval is accepted, and one beyond
        # it is refused by that interval
        s = rng.uniform(0.0, 1.0, (30, 30))
        s += s.T
        np.fill_diagonal(s, 0.0)
        b = 2.0 * s / s.sum(axis=1, keepdims=True)
        V = SpatialWeightMatrix(b, row_normalized=False)
        lo, hi = V.admissible_interval()
        assert V.eigenvalues() is not None and lo < -0.8
        np.testing.assert_allclose(hi, 0.5, rtol=1e-12)
        inside = SpatialFilterFactor(V, -0.8)
        assert inside.log_det == float(np.sum(np.log(1.0 + 0.8 * V.eigenvalues())))
        assert abs(inside.log_det - np.linalg.slogdet(np.eye(30) + 0.8 * b)[1]) <= 1e-10
        with pytest.raises(AdmissibilityError, match="outside the admissible interval"):
            SpatialFilterFactor(V, rho)

    def test_two_blocks_crossing_two_eigenvalues_raise(self):
        # each block's rows sum to 2, so the interval ends at 0.5; at 0.6 two
        # eigenvalues have crossed and the determinant is positive again
        block = 2.0 * random_row_normalized(10, np.random.default_rng(24)).toarray()
        a = np.zeros((20, 20))
        a[:10, :10] = a[10:, 10:] = block
        W = SpatialWeightMatrix(a, row_normalized=False)
        np.testing.assert_allclose(W.admissible_interval()[1], 0.5, rtol=1e-12)
        assert np.linalg.det(np.eye(20) - 0.6 * a) > 0.0
        with pytest.raises(AdmissibilityError, match="outside the admissible interval"):
            SpatialFilterFactor(W, 0.6)

    def test_dense_band_above_two_thousand_sites_has_a_spectrum(self):
        W = build_inverse_distance_weights(2001)
        assert not W.is_sparse
        eigs = W.eigenvalues()
        assert eigs is not None and eigs.size == 2001
        np.testing.assert_allclose(eigs.max(), 1.0, rtol=0.0, atol=1e-10)

    def test_rho_outside_the_unit_interval_raises_before_a_spectrum(self, monkeypatch):
        # neither W has its spectrum cached; every admissible interval lies in (-1, 1)
        fresh = (
            SpatialWeightMatrix(spatial._inverse_distance_array(50), row_normalized=True),
            random_row_normalized(30, np.random.default_rng(25)),
        )
        refuse_spectra(monkeypatch)
        for W in fresh:
            for rho in (1.0, 1.5, -1.0, -3.0):
                with pytest.raises(AdmissibilityError):
                    SpatialFilterFactor(W, rho)
            assert "_eigenvalues" not in vars(W)

    def test_solves_invert_a_nonsymmetric_filter(self):
        W = random_row_normalized(40, np.random.default_rng(22))
        a = W.toarray()
        assert not np.allclose(a, a.T)
        rho = 0.7
        filt = np.eye(40) - rho * a
        factor = SpatialFilterFactor(W, rho)
        rng = np.random.default_rng(23)
        for b in (rng.normal(size=40), rng.normal(size=(40, 3))):
            x, xt = factor.solve(b), factor.solve_transpose(b)
            assert x.shape == xt.shape == b.shape
            np.testing.assert_allclose(filt @ x, b, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(filt.T @ xt, b, rtol=0.0, atol=1e-12)

    def test_rho_zero_factors_nothing(self, monkeypatch):
        rng = np.random.default_rng(26)
        nonsymmetric = random_row_normalized(6, rng)
        weights = (
            build_inverse_distance_weights(7),
            nonsymmetric,
            SpatialWeightMatrix(sp.csr_matrix(nonsymmetric.toarray()), row_normalized=True),
        )

        def refuse(*_args, **_kwargs):
            raise AssertionError("I - 0 W was factored")

        for owner, name in ((np.linalg, "solve"), (np.linalg, "slogdet"), (sparse_linalg, "splu")):
            monkeypatch.setattr(owner, name, refuse)
        for W in weights:
            factor = SpatialFilterFactor(W, 0.0)
            b = rng.normal(size=(W.n, 2))
            for x in (factor.solve(b), factor.solve_transpose(b)):
                assert np.array_equal(x, b) and not np.shares_memory(x, b)
            assert factor.log_det == 0.0

    def test_building_a_factor_factors_nothing(self, monkeypatch):
        # sparse, mirrored with and without a spectrum, and whole
        lopsided = spatial._inverse_distance_array(9)
        lopsided[0, 3] = lopsided[8, 5] = 0.0
        weights = (
            knn_80(),
            build_inverse_distance_weights(9),
            SpatialWeightMatrix(lopsided, row_normalized=False),
            random_row_normalized(6, np.random.default_rng(28)),
        )

        def refuse(*_args, **_kwargs):
            raise AssertionError("building a factor factored I - rho W")

        for owner, name in ((np.linalg, "solve"), (np.linalg, "slogdet"), (sparse_linalg, "splu")):
            monkeypatch.setattr(owner, name, refuse)
        refuse_spectra(monkeypatch)
        for W in weights:
            for rho in (-0.5, 0.5):
                factor = SpatialFilterFactor(W, rho)
                assert not {"_lu", "_dense", "log_det"} & vars(factor).keys()

    def test_right_hand_side_of_the_wrong_length_raises_on_every_route(self):
        nonsymmetric = random_row_normalized(6, np.random.default_rng(27))
        lopsided = spatial._inverse_distance_array(6)
        lopsided[0, 3] = lopsided[5, 2] = 0.0

        def spectral(f):
            # a solve of the right length takes the spectral route and builds no matrix
            f.solve(np.ones(f.W.n))
            return f.W._half_eigh is not None and "_dense" not in vars(f)

        def dense(f):
            # a solve of the right length factors the whole I - rho W
            f.solve(np.ones(f.W.n))
            return f.W._half_eigh is None and "_dense" in vars(f) and f._dense.shape == (f.W.n, f.W.n)

        routes = {
            "sparse": (knn_80(), 0.5, lambda f: f._lu is not None),
            "mirrored even": (build_inverse_distance_weights(4), 0.5, spectral),
            "mirrored odd": (build_inverse_distance_weights(5), 0.5, spectral),
            "mirrored, no spectrum": (SpatialWeightMatrix(lopsided, row_normalized=False), 0.5, dense),
            "whole": (nonsymmetric, 0.5, dense),
            "rho zero": (
                build_inverse_distance_weights(4), 0.0, lambda f: not {"_lu", "_dense"} & vars(f).keys()
            ),
        }
        for name, (W, rho, takes_route) in routes.items():
            factor = SpatialFilterFactor(W, rho)
            assert takes_route(factor), name
            wrong = (np.ones(W.n + 1), np.ones(W.n - 1), np.ones((W.n + 1, 2)), np.ones((W.n, 2, 2)), np.float64(1.0))
            for b in wrong:
                for solve in (factor.solve, factor.solve_transpose):
                    with pytest.raises(DimensionError, match=f"W has {W.n} rows"):
                        solve(b)
                with pytest.raises(DimensionError):
                    apply_spatial_filter(W, rho, b)


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


def doubled_sparse_knn(n):
    """Sparse KNN W (h=4) with every row summing to 2: its Perron root is 2."""
    rng = np.random.default_rng(83)
    knn = build_knn_bisquare_weights(np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 10, n)]), 4)
    return SpatialWeightMatrix(sp.csr_matrix(2.0 * knn.toarray()), row_normalized=False)


def simulate_lagged(n, rho, rng, k_extra=3):
    """Linear spatially lagged data used by the estimation tests."""
    W = build_inverse_distance_weights(n)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k_extra))])
    theta = np.concatenate([[0.5], rng.uniform(0.5, 2.0, k_extra)])
    signal = X @ theta + rng.normal(size=n)
    y = apply_spatial_filter(W, rho, signal)
    return y, X, W


def full_scan_rho(y, X, W):
    """estimate_rho_ml's search, every scan point exact.

    Returns (rho_hat, loglik, at_boundary, index of the best scan point).
    """
    n = y.size
    u, _, _ = np.linalg.svd(X, full_matrices=False)
    ylag = W.matvec(y)
    e0 = y - u @ (u.T @ y)
    e1 = ylag - u @ (u.T @ ylag)
    ss00, ss01, ss11 = float(e0 @ e0), float(e0 @ e1), float(e1 @ e1)
    lo, hi = W.admissible_interval()
    margin = 1e-6 * (hi - lo)
    lo_s, hi_s = lo + margin, hi - margin

    def conc(rho):
        ssr = ss00 - 2.0 * rho * ss01 + rho * rho * ss11
        return -np.inf if ssr <= 0.0 else log_det_filter(W, rho) - 0.5 * n * math.log(ssr / n)

    scan = np.linspace(lo_s, hi_s, 21)
    vals = np.array([conc(r) for r in scan])
    best = int(np.argmax(vals))
    near = slice(max(best - 1, 0), best + 2)
    rho_hat = spatial._brent_max(conc, scan[near].tolist(), vals[near].tolist(), 1e-10)
    resid = e0 - rho_hat * e1
    sigma2 = float(resid @ resid) / n
    loglik = -0.5 * n * (math.log(2.0 * math.pi * sigma2) + 1.0) + log_det_filter(W, rho_hat)
    at_boundary = min(rho_hat - lo_s, hi_s - rho_hat) < 1e-3 * (hi_s - lo_s)
    return rho_hat, float(loglik), at_boundary, best


def assert_pruned_scan_matches_the_full_scan(y, X, W):
    """estimate_rho_ml equals full_scan_rho bit for bit; returns the best scan index."""
    rho_hat, loglik, at_boundary, best = full_scan_rho(y, X, W)
    est = estimate_rho_ml(y, X, W)
    assert est.rho_hat == rho_hat
    assert est.loglik == loglik
    assert est.at_boundary == at_boundary
    return best


def assert_grid_oracle_confirms_sparse_optimum(monkeypatch, h):
    """A 201-point grid of exact profile values confirms the search's optimum
    on a 150-site CSR KNN W; returns the sizes of the sparse LUs it ran."""
    rng = np.random.default_rng(59)
    pts = rng.uniform(-5.0, 5.0, (150, 2))
    knn = build_knn_bisquare_weights(pts, h)
    W = SpatialWeightMatrix(sp.csr_matrix(knn.toarray()), row_normalized=True)
    X = np.column_stack([np.ones(150), rng.normal(size=(150, 3))])
    y = apply_spatial_filter(W, 0.6, X @ np.array([0.5, 1.0, -1.5, 2.0]) + rng.normal(size=150))
    exact = spatial.log_det_filter
    calls = []
    splu = sparse_linalg.splu
    lu_sizes = []

    def counted(W, rho):
        calls.append(rho)
        return exact(W, rho)

    def counted_splu(a, *args, **kwargs):
        lu_sizes.append(a.shape[0])
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(spatial, "log_det_filter", counted)
    monkeypatch.setattr(sparse_linalg, "splu", counted_splu)
    est = estimate_rho_ml(y, X, W)
    monkeypatch.setattr(sparse_linalg, "splu", splu)
    assert W.eigenvalues() is None
    # the scan points whose Hadamard bound can still win, the bracket and
    # Brent's refinement: the evaluation budget
    assert len(calls) <= 20

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
    return lu_sizes


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
        assert conc(est.rho_hat) >= vals.max() - 1e-9

    def test_grid_oracle_confirms_optimum_on_lu_route(self, monkeypatch):
        assert_grid_oracle_confirms_sparse_optimum(monkeypatch, 4)

    def test_grid_oracle_confirms_optimum_on_the_larger_components_lu(self, monkeypatch):
        # at h = 6 one component holds 149 of the 150 sites
        lu_sizes = assert_grid_oracle_confirms_sparse_optimum(monkeypatch, 6)
        assert lu_sizes and set(lu_sizes) == {149}

    @pytest.mark.parametrize(
        "h, rho, end",
        [(h, rho, None) for h in (3, 4, 8) for rho in (-0.5, 0.0, 0.5, 0.9, 0.99)]
        + [(4, 0.999, 20), (4, -0.999, 0)],
    )
    def test_pruned_scan_matches_the_full_scan_bit_for_bit(self, h, rho, end):
        rng = np.random.default_rng(0)
        n = 200 if end is not None else 300
        pts = np.column_stack([rng.uniform(-60, 60, n), rng.uniform(-170, 170, n)])
        W = build_knn_bisquare_weights(pts, h)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = apply_spatial_filter(W, rho, X @ np.array([0.5, 1.0, -1.5]) + rng.normal(size=n))
        best = assert_pruned_scan_matches_the_full_scan(y, X, W)
        if end is not None:
            # the maximum at a scan end: Brent starts from a two-point bracket
            assert best == end

    @pytest.mark.parametrize("n", [300, 301])
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5, 0.9, 0.99])
    def test_pruned_scan_matches_the_full_scan_on_the_generator(self, n, rho):
        y, X, W = simulate_lagged(n, rho, np.random.default_rng(n))
        assert W.eigenvalues() is not None
        assert_pruned_scan_matches_the_full_scan(y, X, W)

    def test_generator_search_takes_every_log_det_from_the_factor(self, monkeypatch):
        y, X, W = simulate_lagged(500, 0.9, np.random.default_rng(67))
        exact = spatial.log_det_filter
        calls = []

        def counted(W, rho):
            calls.append(rho)
            return exact(W, rho)

        def refuse(*_args, **_kwargs):
            raise AssertionError("the search factored I - rho W")

        monkeypatch.setattr(spatial, "log_det_filter", counted)
        for name in ("solve", "slogdet"):
            monkeypatch.setattr(np.linalg, name, refuse)
        est = estimate_rho_ml(y, X, W)
        # the final likelihood's log-det is the chosen point's, through the factor
        assert est.rho_hat in calls
        assert len(calls) <= 20

    def test_small_knn_takes_the_row_sum_bound_and_no_spectrum(self, monkeypatch):
        W = knn_80()
        rng = np.random.default_rng(97)
        X = np.column_stack([np.ones(80), rng.normal(size=(80, 2))])
        y = apply_spatial_filter(W, 0.6, X @ np.array([0.5, 1.0, -1.5]) + rng.normal(size=80))
        dense = estimate_rho_ml(y, X, SpatialWeightMatrix(W.toarray(), row_normalized=True))
        refuse_spectra(monkeypatch)
        est = estimate_rho_ml(y, X, W)
        assert est.admissible_interval == (-1.0, 1.0)
        assert abs(est.rho_hat - dense.rho_hat) <= 1e-8

    def test_doubled_sparse_knn_estimate_stays_inside_the_interval(self):
        W = doubled_sparse_knn(60)
        rng = np.random.default_rng(89)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
        y = apply_spatial_filter(W, 0.3, X @ np.array([0.5, 1.0, -1.5]) + rng.normal(size=60))
        est = estimate_rho_ml(y, X, W)
        # the search runs over the row-sum bound, where every rho is certified
        lo, hi = est.admissible_interval
        np.testing.assert_allclose((lo, hi), (-0.5, 0.5), rtol=0.0, atol=1e-15)
        assert lo < est.rho_hat < hi

    @pytest.mark.parametrize("sparse", [False, True])
    def test_exact_fit_recovers_rho_with_a_tiny_variance(self, sparse):
        rng = np.random.default_rng(5)
        knn = build_knn_bisquare_weights(rng.uniform(-5.0, 5.0, (100, 2)), 4)
        W = knn if sparse else SpatialWeightMatrix(knn.toarray(), row_normalized=True)
        X = np.column_stack([np.ones(100), rng.normal(size=(100, 2))])
        y = apply_spatial_filter(W, 0.4, X @ np.array([0.5, 1.0, -1.5]))
        est = estimate_rho_ml(y, X, W)
        assert abs(est.rho_hat - 0.4) < 1e-7
        assert 0.0 < est.sigma2_hat < 1e-12

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_response_rejected(self, bad):
        # a NaN once returned rho at the boundary with NaN coefficients
        rng = np.random.default_rng(42)
        y, X, W = simulate_lagged(40, 0.3, rng)
        y[7] = y[12] = bad
        with pytest.raises(DataError, match="response at site 7 is NaN or infinite"):
            estimate_rho_ml(y, X, W)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_design_rejected_before_its_rank(self, bad, column):
        # an infinite entry once read as a rank-deficient design
        rng = np.random.default_rng(44)
        y, X, W = simulate_lagged(40, 0.3, rng)
        X[9, column] = bad
        with pytest.raises(DataError, match="design at site 9 is NaN or infinite"):
            estimate_rho_ml(y, X, W)

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

    @pytest.mark.parametrize("n", [300, 1000])
    def test_knn_w_read_back_from_a_file_fits_as_built(self, tmp_path, monkeypatch, n):
        # one KNN W, built from coordinates (CSR) and read back from its file
        # (dense at most DENSE_LIMIT sites): neither has a spectrum, and both
        # fit the same way
        rng = np.random.default_rng(n)
        coords = np.column_stack([rng.uniform(-30, 5, n), rng.uniform(-70, -35, n)])
        built = build_knn_bisquare_weights(coords, 4)
        path = tmp_path / "w.txt"
        save_weights(built, path)
        back = load_weights(path)
        assert back.is_sparse == (n > spatial.DENSE_LIMIT)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = apply_spatial_filter(built, 0.7, X @ np.array([0.5, 1.0, -1.5]) + rng.normal(size=n))
        refuse_spectra(monkeypatch)
        est, est_back = estimate_rho_ml(y, X, built), estimate_rho_ml(y, X, back)
        assert est.admissible_interval == est_back.admissible_interval == (-1.0, 1.0)
        assert est.at_boundary == est_back.at_boundary
        assert abs(est.rho_hat - est_back.rho_hat) <= 1e-8


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


class TestWeightValues:
    def test_intervals_are_plain_floats_on_every_route(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("n 0 row_normalized 0\n")
        empty = load_weights(path)
        # W = 2 J, with the spectrum +-2
        path.write_text("n 2 row_normalized 0\n0 1 2\n1 0 2\n")
        pair = load_weights(path)
        assert pair.eigenvalues() is not None
        cases = {
            "empty file": (empty, (-1.0, 1.0)),
            "empty CSR": (SpatialWeightMatrix(sp.csr_matrix((0, 0)), row_normalized=False), (-1.0, 1.0)),
            "generator": (build_inverse_distance_weights(500), (-1.0, 1.0)),
            "spectrum": (pair, (-0.5, 0.5)),
            "row-sum bound": (doubled_sparse_knn(60), None),
            "csr knn": (knn_80(), (-1.0, 1.0)),
        }
        for name, (W, expected) in cases.items():
            interval = W.admissible_interval()
            assert type(interval) is tuple and [type(v) for v in interval] == [float, float], name
            if expected is not None:
                assert interval == expected, name

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected_naming_the_entry(self, sparse, bad):
        a = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
        a[1, 2] = bad
        with pytest.raises(InvalidSizeError, match="i=1 j=2 is not finite"):
            SpatialWeightMatrix(sp.csr_matrix(a) if sparse else a, row_normalized=False)

    def test_integer_sparse_weights_are_stored_as_float_and_subset(self):
        contiguity = np.array([[0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 1], [0, 1, 1, 0]])
        W = SpatialWeightMatrix(sp.csr_matrix(contiguity), row_normalized=False)
        assert W.weights.dtype == np.float64
        sub = W.subset(np.array([0, 1, 3]))
        assert sub.is_sparse
        np.testing.assert_array_equal(sub.toarray(), [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])


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
    """(1/lambda_min, 1/lambda_max) cut to (-1, 1), for a spectrum of both signs."""
    return (max(1.0 / eigs.min(), -1.0), min(1.0 / eigs.max(), 1.0))


def real_route_cases(tmp_path):
    cases = {f"inverse-distance-{n}": build_inverse_distance_weights(n) for n in (2, 3, 50, 500)}
    cases["subset"] = build_inverse_distance_weights(60).subset(np.arange(0, 60, 3))
    path = tmp_path / "w.txt"
    save_weights(build_inverse_distance_weights(40), path)
    cases["round-trip"] = load_weights(path)
    # not normalized: its interval comes from its spectrum
    cases["doubled"] = SpatialWeightMatrix(2.0 * spatial._inverse_distance_array(50), row_normalized=False)
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
                W.admissible_interval(), spectrum_interval(oracle[name].real), rtol=0, atol=1e-12
            )

    def test_other_weights_have_no_spectrum(self, monkeypatch):
        rng = np.random.default_rng(79)
        nonsymmetric = random_row_normalized(40, rng)
        pts = np.column_stack([rng.uniform(0, 10, 80), rng.uniform(0, 10, 80)])
        knn_csr = build_knn_bisquare_weights(pts, h=4)
        knn = SpatialWeightMatrix(knn_csr.toarray(), row_normalized=True)
        doubled = SpatialWeightMatrix(2.0 * nonsymmetric.toarray(), row_normalized=False)
        generator = SpatialWeightMatrix(spatial._inverse_distance_array(51), row_normalized=True)
        refuse_spectra(monkeypatch)
        for W in (nonsymmetric, knn, knn_csr, doubled):
            assert W.eigenvalues() is None
        # a row-normalized W needs no spectrum for its interval, even one that has it
        for W in (nonsymmetric, knn, knn_csr, generator):
            assert W.admissible_interval() == (-1.0, 1.0)
        r = float(doubled.row_sums().max())
        assert doubled.admissible_interval() == (-1.0 / r, 1.0 / r)


def whole_spectrum(W):
    """eigvalsh of the whole D^{1/2} W D^{-1/2}, d from ``_symmetrizing_scale``."""
    root = np.sqrt(spatial._symmetrizing_scale(W.weights))
    return np.linalg.eigvalsh(root[:, None] * W.weights / root)


def mirrored_d_inverse_s(n):
    """W = D^{-1} S, S the generator's undivided weights, d mirror-symmetric and not constant."""
    idx = np.arange(n)
    d = 1.0 + np.abs(idx - 0.5 * (n - 1))
    return spatial._inverse_distance_raw(n, idx) / d[:, None]


def symmetrizing_scale_reference(a):
    """``_symmetrizing_scale`` as one whole-matrix comparison, before row blocks."""
    n = a.shape[0]
    if n < 2 or np.count_nonzero(a) != n * (n - 1):
        return None
    d = np.ones(n)
    d[1:] = a[0, 1:] / a[1:, 0]
    m = d[:, None] * a
    gap = m - m.T
    np.abs(gap, out=gap)
    m *= 1e-12
    return d if np.all(gap <= m) else None


def filter_dense_reference(a, rho):
    """``SpatialFilterFactor._dense`` built from an identity."""
    return np.eye(a.shape[0]) - rho * a


def numpy_peak(work, n):
    """Peak numpy allocation while ``work()`` runs, in units of an n x n float64 array."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        work()
        return (tracemalloc.get_traced_memory()[1] - start) / (8.0 * n * n)
    finally:
        tracemalloc.stop()


class TestDensePasses:
    @pytest.mark.parametrize("n", list(range(2, 13)) + [50, 51, 300, 301])
    def test_split_spectrum_matches_the_whole_one(self, n, monkeypatch):
        cases = {
            "generator": spatial._inverse_distance_array(n),
            "doubled": 2.0 * spatial._inverse_distance_array(n),
            "d-inverse-s": mirrored_d_inverse_s(n),
        }
        eigh = np.linalg.eigh

        def refuse_whole(*_args, **_kwargs):
            raise AssertionError("eigvalsh was called on a mirrored W")

        for name, a in cases.items():
            W = SpatialWeightMatrix(a, row_normalized=name == "generator")
            whole = whole_spectrum(W)
            shapes = []

            def spy(b, *args, **kwargs):
                shapes.append(b.shape)
                return eigh(b, *args, **kwargs)

            # the spectrum is the eigenvalues of the halves' eigh, which solves reuse
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigh", spy)
                m.setattr(np.linalg, "eigvalsh", refuse_whole)
                eigs = W.eigenvalues()
                SpatialFilterFactor(W, 0.5 * W.admissible_interval()[1]).solve(np.ones(n))
            assert W._mirrored and shapes == [(n - n // 2,) * 2, (n // 2,) * 2], name
            assert np.all(np.diff(eigs) >= 0.0), name
            np.testing.assert_allclose(eigs, whole, rtol=0, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(
                W.admissible_interval(), spectrum_interval(whole), rtol=0, atol=1e-12, err_msg=name
            )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 50, 51, 300, 301])
    def test_spectral_solves_match_dense_solves(self, n):
        cases = {
            "generator": spatial._inverse_distance_array(n),
            "doubled": 2.0 * spatial._inverse_distance_array(n),
            "d-inverse-s": mirrored_d_inverse_s(n),
        }
        rng = np.random.default_rng(n)
        for name, a in cases.items():
            W = SpatialWeightMatrix(a, row_normalized=name == "generator")
            lo, hi = W.admissible_interval()
            for rho in (lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo)):
                factor = SpatialFilterFactor(W, rho)
                filt = np.eye(n) - rho * a
                for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
                    for got, ref in (
                        (factor.solve(b), np.linalg.solve(filt, b)),
                        (factor.solve_transpose(b), np.linalg.solve(filt.T, b)),
                    ):
                        assert got.shape == b.shape, name
                        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (name, rho)
                assert "_dense" not in vars(factor), name

    def test_passes_after_construction_hold_no_whole_temporary(self):
        n = 1200
        a = spatial._inverse_distance_array(n)
        # the whole-matrix forms took 2.13 and 2.13 of an n x n array
        assert numpy_peak(lambda: spatial._symmetrizing_scale(a), n) <= 0.25
        W = SpatialWeightMatrix(a, row_normalized=True)
        # the spectrum comes with the eigenvectors every solve keeps, within
        # the first solve's budget of 0.76 (below), and the solve after it
        # builds no half of n^2 / 4 values
        assert numpy_peak(W.eigenvalues, n) <= 0.76
        factor = SpatialFilterFactor(W, 0.9)
        assert numpy_peak(lambda: factor.solve(np.ones(n)), n) < 0.25

    def test_first_spectral_solve_keeps_two_half_size_eigenvector_blocks(self):
        n = 1200
        W = SpatialWeightMatrix(spatial._inverse_distance_array(n), row_normalized=True)
        factor = SpatialFilterFactor(W, 0.9)
        # the kept eigenvectors of one half, the other half and its
        # eigenvectors: measured 0.752 of an n x n array
        assert numpy_peak(lambda: factor.solve(np.ones(n)), n) <= 0.76
        assert "_dense" not in vars(factor)
        vectors = [q for _, q in W._half_eigh]
        assert [q.shape for q in vectors] == [(n // 2, n // 2)] * 2
        assert sum(q.size for q in vectors) == n * n // 2

    @pytest.mark.parametrize("n", list(range(2, 10)) + [50, 51, 301])
    def test_row_blocks_match_the_whole_matrix_forms_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        generator = spatial._inverse_distance_array(n)
        i, j = rng.integers(n), rng.integers(n - 1)
        j += j >= i
        ulp_off, zeroed, late = generator.copy(), generator.copy(), generator.copy()
        ulp_off[i, j] = np.nextafter(ulp_off[i, j], np.inf)
        zeroed[i, j] = zeroed[n - 1 - i, n - 1 - j] = 0.0
        late[-1, -2] *= 1.0 + 1e-9  # fails the check only in its last row block
        sparse_rows = random_row_normalized(n, rng, density=0.5).toarray()
        for a in (generator, 2.0 * generator, mirrored_d_inverse_s(n), ulp_off, zeroed, late, sparse_rows):
            ref = symmetrizing_scale_reference(a)
            got = spatial._symmetrizing_scale(a)
            assert (got is None) == (ref is None)
            assert ref is None or got.tobytes() == ref.tobytes()
            W = SpatialWeightMatrix(a, row_normalized=False)
            assert W._mirrored == np.array_equal(a, a[::-1, ::-1])
            for rho in (-0.5, 0.3, 0.9):
                # the matrix does not depend on admissibility: build it for every rho
                factor = SpatialFilterFactor.__new__(SpatialFilterFactor)
                factor.W, factor.rho = W, rho
                assert factor._dense.tobytes() == filter_dense_reference(a, rho).tobytes()


class TestProperties:
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

    @settings(deadline=None, max_examples=100)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.1, 1.0),
        normalized=st.booleans(),
        sparse=st.booleans(),
        frac=st.floats(0.001, 0.999),
    )
    def test_hadamard_bound_caps_the_log_det(self, n, seed, density, normalized, sparse, frac):
        # row i of I - rho W has squared norm 1 + rho^2 |w_i|^2, W's diagonal being zero
        rng = np.random.default_rng(seed)
        a = random_row_normalized(n, rng, density).toarray()
        if not normalized:
            a *= rng.uniform(0.2, 3.0, (n, 1))
        W = SpatialWeightMatrix(sp.csr_matrix(a) if sparse else a, row_normalized=normalized)
        norms2 = (a * a).sum(axis=1)
        np.testing.assert_allclose(W._row_norms2, norms2, rtol=1e-15, atol=0.0)
        lo, hi = W.admissible_interval()
        rho = lo + frac * (hi - lo)
        exact = log_det_filter(W, rho)
        assert 0.5 * np.sum(np.log1p(rho * rho * norms2)) >= exact - 1e-12 * max(1.0, abs(exact))

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
        assert_solves_invert_filter(W.toarray(), lo + frac * (hi - lo), cols, seed)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(3, 30),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1.5, 3.0),
        frac=st.floats(0.01, 0.99),
        cols=st.integers(1, 3),
    )
    def test_sparse_refuses_non_dominant_unnormalized_filter(self, n, seed, scale, frac, cols):
        # every row sums to scale > 1; rho in (-1, -1 / scale) leaves
        # I - rho W without diagonal dominance, outside the row-sum bound of
        # a W without a spectrum, dense or sparse
        a = scale * random_row_normalized(n, np.random.default_rng(seed)).toarray()
        rho = -1.0 + frac * (1.0 - 1.0 / scale)
        for weights in (a, sp.csr_matrix(a)):
            with pytest.raises(AdmissibilityError, match="outside the admissible interval"):
                SpatialFilterFactor(SpatialWeightMatrix(weights, row_normalized=False), rho)
        # the dominant half of the row-sum bound solves
        assert_solves_invert_filter(a, frac * (1.0 - 1e-6) / scale, cols, seed)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        spectrum=st.booleans(),
        sparse=st.booleans(),
        scale=st.one_of(st.none(), st.floats(0.3, 3.0)),
        frac=st.floats(0.001, 0.999),
        beyond=st.floats(0.0, 2.0),
    )
    def test_rho_is_admissible_exactly_inside_the_interval(
        self, n, seed, spectrum, sparse, scale, frac, beyond
    ):
        # a dense W = D^{-1} S, S symmetric and positive off its diagonal, has
        # a spectrum; scale None flags W row-normalized
        rng = np.random.default_rng(seed)
        if spectrum:
            s = rng.uniform(0.1, 1.0, (n, n))
            s += s.T
            np.fill_diagonal(s, 0.0)
            a = s / s.sum(axis=1, keepdims=True)
        else:
            a = random_row_normalized(n, rng, density=rng.uniform(0.1, 1.0)).toarray()
        if scale is not None:
            a *= scale
        W = SpatialWeightMatrix(sp.csr_matrix(a) if sparse else a, row_normalized=scale is None)
        with pytest.MonkeyPatch.context() as m:
            refuse_spectra(m)
            if W.row_normalized or W.row_sums().max() <= 1.0:
                assert W.admissible_interval() == (-1.0, 1.0)
        lo, hi = W.admissible_interval()
        assert -1.0 <= lo < 0.0 < hi <= 1.0
        rho = lo + frac * (hi - lo)
        sign, oracle = np.linalg.slogdet(np.eye(n) - rho * a)
        assert sign == 1.0
        assert abs(SpatialFilterFactor(W, rho).log_det - oracle) <= 1e-10 * max(1.0, abs(oracle))
        for rho in (lo - beyond, hi + beyond, -1.0, 1.0, -1.5, 1.5):
            with pytest.raises(AdmissibilityError, match="outside the admissible interval"):
                SpatialFilterFactor(W, rho)

    @settings(deadline=None, max_examples=60)
    @given(
        half=st.integers(1, 150),
        odd=st.booleans(),
        frac=st.floats(0.001, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(half=1, odd=False, frac=0.8, seed=0)
    @example(half=1, odd=True, frac=0.8, seed=0)
    def test_generator_filter_solves_in_mirror_blocks(self, half, odd, frac, seed):
        n = 2 * half + odd
        W = build_inverse_distance_weights(n)
        assert np.array_equal(W.weights, W.weights[::-1, ::-1])
        lo, hi = W.admissible_interval()
        rho = lo + frac * (hi - lo)
        assume(rho != 0.0)  # I - 0 W is not factored at all
        factor = SpatialFilterFactor(W, rho)
        assert [len(vectors) for _, vectors in W._half_eigh] == [n - half, half]
        filt = np.eye(n) - rho * W.weights
        rng = np.random.default_rng(seed)
        for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
            x, xt = factor.solve(b), factor.solve_transpose(b)
            assert x.shape == xt.shape == b.shape
            assert np.max(np.abs(filt @ x - b)) <= 1e-12
            assert np.max(np.abs(filt.T @ xt - b)) <= 1e-12
        assert "_dense" not in vars(factor)
        spectral = float(np.sum(np.log(1.0 - rho * W.eigenvalues())))
        assert abs(factor.log_det - spectral) <= 1e-10

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 301),
        entry=st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)),
        frac=st.floats(0.001, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_entry_off_its_mirror_keeps_the_full_solve(self, n, entry, frac, seed):
        a = spatial._inverse_distance_array(n)
        i, j = entry[0] % n, entry[1] % (n - 1)
        j += j >= i
        a[i, j] = np.nextafter(a[i, j], np.inf)
        W = SpatialWeightMatrix(a, row_normalized=False)
        lo, hi = W.admissible_interval()
        rho = lo + frac * (hi - lo)
        factor = SpatialFilterFactor(W, rho)
        filt = np.eye(n) - rho * a
        rng = np.random.default_rng(seed)
        for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
            assert factor.solve(b).tobytes() == np.linalg.solve(filt, b).tobytes()
            assert factor.solve_transpose(b).tobytes() == np.linalg.solve(filt.T, b).tobytes()
        # an entry one ulp off can stay within _symmetrizing_scale's tolerance
        eigs = W.eigenvalues()
        if eigs is None:
            assert factor.log_det == np.linalg.slogdet(filt)[1]
        else:
            assert factor.log_det == float(np.sum(np.log(1.0 - rho * eigs)))

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(3, 151),
        entry=st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)),
        frac=st.floats(0.001, 0.999),
    )
    @example(n=3, entry=(0, 0), frac=0.9)
    @example(n=4, entry=(1, 1), frac=0.1)
    def test_mirrored_weights_without_a_spectrum_take_the_whole_lu(self, n, entry, frac):
        # the generator's weights with one mirrored pair zeroed: W equals its
        # mirror, but a zero off-diagonal weight leaves it no spectrum
        a = spatial._inverse_distance_array(n)
        i, j = entry[0] % n, entry[1] % (n - 1)
        j += j >= i
        a[i, j] = a[n - 1 - i, n - 1 - j] = 0.0
        W = SpatialWeightMatrix(a, row_normalized=False)
        assert W.eigenvalues() is None and W._mirrored
        lo, hi = W.admissible_interval()
        rho = lo + frac * (hi - lo)
        assume(rho != 0.0)
        factor = SpatialFilterFactor(W, rho)
        filt = np.eye(n) - rho * a
        assert factor.log_det == np.linalg.slogdet(filt)[1]
        assert factor._dense.tobytes() == filt.tobytes()
        rng = np.random.default_rng(n)
        for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
            assert factor.solve(b).tobytes() == np.linalg.solve(filt, b).tobytes()
            assert factor.solve_transpose(b).tobytes() == np.linalg.solve(filt.T, b).tobytes()


def assert_solves_invert_filter(a, rho, cols, seed):
    """Sparse solve and solve_transpose against dense solves of I - rho W.

    Whether rho is certified follows from the row sums, not from the
    row-normalized flag.
    """
    W = SpatialWeightMatrix(sp.csr_matrix(a), row_normalized=False)
    factor = SpatialFilterFactor(W, rho)
    filt = np.eye(W.n) - rho * a
    rng = np.random.default_rng(seed)
    for b in (rng.normal(size=W.n), rng.normal(size=(W.n, cols))):
        for got, ref in (
            (factor.solve(b), np.linalg.solve(filt, b)),
            (factor.solve_transpose(b), np.linalg.solve(filt.T, b)),
        ):
            assert got.shape == b.shape
            assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


class TestWorkflowRoutes:
    def test_generator_filters_solve_spectrally_and_build_no_dense_matrix(self, tmp_path, monkeypatch):
        # every workflow in the package solves its filters on generator W:
        # a Monte Carlo replication of all three kinds, and a CLI round trip
        from sfdnn.cli import main
        from sfdnn.evaluation import monte_carlo_study
        from sfdnn.fdnn import TrainConfig
        from sfdnn.simgen import ScenarioConfig

        events = []
        solve, spectral, dense = (
            SpatialFilterFactor._solve, SpatialFilterFactor._spectral_solve, SpatialFilterFactor._dense
        )

        def spy_solve(factor, b, transpose):
            events.append(("solve", factor.W, factor.rho))
            return solve(factor, b, transpose)

        def spy_spectral(factor, b, transpose):
            events.append(("spectral", factor.W, factor.rho))
            return spectral(factor, b, transpose)

        def spy_dense(factor):
            events.append(("dense", factor.W, factor.rho))
            return dense.func(factor)

        monkeypatch.setattr(SpatialFilterFactor, "_solve", spy_solve)
        monkeypatch.setattr(SpatialFilterFactor, "_spectral_solve", spy_spectral)
        monkeypatch.setattr(SpatialFilterFactor, "_dense", property(spy_dense))

        kinds = ("ml", "fdnn", "sfdnn")
        scenario = ScenarioConfig(n_train=60, n_test=50, rho=0.7, error_dist="gaussian")
        config = TrainConfig(learning_rate=0.02, batch_size=32, max_epochs=5, seed=0)
        table = monte_carlo_study([scenario], kinds, 1, base_seed=5, config=config)
        assert [table.report(scenario, kind).num_ok for kind in kinds] == [1, 1, 1]
        study_events = len(events)

        out = tmp_path / "run"
        settings = (
            f"n_train = 80\nn_test = 60\nrho = 0.4\nreplication_seed = 7\nseed = 3\n"
            f"hidden_sizes = 8\nbasis_size = 6\nmax_epochs = 5\nout_dir = {out}\n"
            f"train_functional = {out / 'train_functional.csv'}\ntrain_scalars = {out / 'train_scalars.csv'}\n"
            f"train_weights = {out / 'train_weights.txt'}\nmodel_file = {out / 'model.txt'}\n"
            f"test_functional = {out / 'test_functional.csv'}\ntest_scalars = {out / 'test_scalars.csv'}\n"
            f"test_weights = {out / 'test_weights.txt'}\n"
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(settings, encoding="utf-8")
        assert main(["simulate", "--config", str(cfg)]) == 0
        for kind in kinds:
            for command in ("fit", "predict"):
                assert main([command, "--config", str(cfg), "--kind", kind]) == 0, (command, kind)

        solves = [(W, rho) for name, W, rho in events if name == "solve"]
        assert study_events > 0 and len(events) > study_events
        assert not [e for e in events if e[0] == "dense"]
        # each solve on a nonzero rho goes straight to the spectral route
        assert all(spatial._is_inverse_distance(W) for W, _ in solves)
        for (name, W, rho), after in zip(events, events[1:] + [None]):
            if name == "solve" and rho != 0.0:
                assert after == ("spectral", W, rho)
