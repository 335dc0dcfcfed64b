"""Spatial weight matrices, filtering, and likelihood estimation of dependence.

Covers construction of row-normalized weight matrices (inverse-distance and
KNN bi-square), the spatial filter solve (I - rho W)^{-1}, log-determinant
evaluation, profile-likelihood estimation of the dependence parameter, and
local Moran's I diagnostics.

An inverse-distance W is dense; a KNN W, and every subset of it, is CSR of
its positive weights.  One rule decides which dependence parameters are
admissible: rho is admissible exactly when it lies inside W's admissible
interval.  W's spectral radius is at most its largest row sum r
(Perron-Frobenius), so the interval is (-1, 1), with no eigensolve, for a W
flagged row-normalized or with r <= 1.  Only a dense W = D^{-1} S, S
symmetric and positive off its diagonal (every inverse-distance W), has a
spectrum, real, from a symmetric eigensolver; any other W takes its
interval from that spectrum within (-1, 1) when it has one, and the row-sum
bound (-1/r, 1/r) otherwise.  So every rho a W without a spectrum admits is
dominant, |rho| r below 1, and a sparse I - rho W, strictly diagonally
dominant, is factored for its solves without pivoting in one reverse
Cuthill-McKee ordering computed once per W.  Every log-determinant comes
from the filter factor: from W's spectrum when it has one, from one LU of
I - rho W for any other dense W, and for a sparse W by strongly
connected component, which splits I - rho W into the diagonal blocks of a
block triangular form: batched dense determinants of the small components
and one sparse LU of the larger ones, both found once per W.  The rho
search, one route for every W, evaluates only the scan points that
Hadamard's bound on ln det(I - rho W), 1/2 sum_i log1p(rho^2 |w_i|^2), does
not rule out: a skipped point cannot hold the maximum, so the estimate is
bit-identical to a full scan's.  KNN neighbors are searched with a KD-tree
on unit-sphere points, one query for each site's h+2 nearest; only a site
whose (h+2)-th nearest may tie its bandwidth runs a ball query, and row
sums follow ndarray.sum's own order without a per-row call below 8 kept
neighbors.  An inverse-distance W depends only on n, so it is
built once per size and shared read-only: every replication of a study cell
reuses one matrix, and with it the spectrum and eigenvectors cached on it.
Its rows are divided by sums taken symmetrically, so it equals its mirror
exactly, and like every dense W that does and has a spectrum, its spectrum
and its filter come from one eigendecomposition of each of two folded
blocks of half its size, made by the rho search or the first filter solve,
whichever comes first: every solve is then two matrix products per block.
Any other dense W solves each filter by one LU of I - rho W.  Every pass
over a dense W after its construction, the symmetrizability check
included, works in row blocks or folded half blocks, so only the LU
route's I - rho W is a second n x n array.

Dense routes run on numpy alone: scipy is imported only on the sparse and
KNN routes (``scipy.sparse``, its LU and graph routines, and the KD-tree),
because importing it takes several times as long as numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._textio import read_rows, write_table
from .errors import (
    INTEGER,
    AdmissibilityError,
    DataError,
    DegenerateBandwidthError,
    DegenerateVarianceError,
    DesignRankError,
    DimensionError,
    InvalidSizeError,
    at_least,
    check_rules,
)

__all__ = [
    "EARTH_RADIUS_KM",
    "DENSE_LIMIT",
    "SpatialWeightMatrix",
    "RhoEstimate",
    "SpatialFilterFactor",
    "build_inverse_distance_weights",
    "build_knn_bisquare_weights",
    "great_circle_km",
    "local_morans_i",
    "log_det_filter",
    "apply_spatial_filter",
    "estimate_rho_ml",
    "save_weights",
    "load_weights",
]

EARTH_RADIUS_KM = 6371.0088

# the rule each weight-matrix argument obeys: n sites, h neighbors
RULES = {"n": [INTEGER, at_least(2)], "h": [INTEGER, at_least(1)]}

# (name, bound): each coordinate lies in [-bound, bound] degrees
_COORD_RANGES = (("latitude", 90.0), ("longitude", 180.0))

# a weight file of more sites that leaves some off-diagonal weight unstored
# loads as CSR; every other file loads dense, without importing scipy
DENSE_LIMIT = 800


class SpatialWeightMatrix:
    """Finite, nonnegative, zero-diagonal spatial weights, optionally row-normalized.

    Treated as immutable after construction; derived quantities (eigenvalues,
    row sums) are cached lazily.  Inverse-distance matrices are
    shared between callers and hold read-only weights.
    """

    def __init__(self, weights, row_normalized: bool):
        # a sparse input cannot exist unless scipy.sparse is loaded
        sparse = sys.modules.get("scipy.sparse")
        if sparse is not None and sparse.issparse(weights):
            weights = weights.tocsr().astype(float, copy=False)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.ndim != 2:
                raise DimensionError("weight matrix must be 2-D")
        n, m = weights.shape
        if n != m:
            raise DimensionError("weight matrix must be square")
        diag = weights.diagonal()
        if np.any(diag != 0.0):
            raise InvalidSizeError("weight matrix must have a zero diagonal")
        self.weights = weights
        values = weights.data if self.is_sparse else weights
        finite = np.isfinite(values)
        if not finite.all():
            if self.is_sparse:
                k = int(np.argmin(finite))
                i, j = np.searchsorted(weights.indptr, k, side="right") - 1, weights.indices[k]
            else:
                i, j = np.argwhere(~finite)[0]
            raise InvalidSizeError(f"weight at i={i} j={j} is not finite")
        if values.size and values.min() < 0:
            raise InvalidSizeError("weights must be nonnegative")
        self.n = n
        self.row_normalized = bool(row_normalized)
        if self.row_normalized:
            sums = self.row_sums()
            active = sums > 0
            if np.any(np.abs(sums[active] - 1.0) > 1e-12):
                raise InvalidSizeError("row-normalized flag set but rows do not sum to 1")

    @property
    def is_sparse(self) -> bool:
        return not isinstance(self.weights, np.ndarray)

    def toarray(self) -> np.ndarray:
        return self.weights.toarray() if self.is_sparse else self.weights

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.weights.sum(axis=1)).ravel()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(self.weights @ v)

    def subset(self, rows) -> "SpatialWeightMatrix":
        """Restrict to a subset of sites, re-normalizing surviving rows; W's storage is kept."""
        rows = np.asarray(rows, dtype=int)
        if self.is_sparse:
            sub = self.weights[rows][:, rows]
            sums = np.asarray(sub.sum(axis=1)).ravel()
            sub.data /= np.repeat(np.where(sums > 0, sums, 1.0), np.diff(sub.indptr))
            return SpatialWeightMatrix(sub, row_normalized=True)
        sub = self.weights[np.ix_(rows, rows)]
        sums = sub.sum(axis=1)
        active = sums > 0
        sub[active] /= sums[active, None]
        return SpatialWeightMatrix(sub, row_normalized=True)

    def eigenvalues(self):
        """Real spectrum of a W that can be symmetrized; None for any other W.

        W = D^{-1} S with S symmetric (Ord 1975; every inverse-distance W) is
        similar to the symmetric D^{1/2} W D^{-1/2}, whose spectrum
        ``eigvalsh`` computes.  Such a W is recognised only when dense with
        every off-diagonal weight positive (``_symmetrizing_scale``).  When W
        also equals its mirror, S' = D^{1/2} W D^{-1/2} is centrosymmetric up
        to rounding, and its spectrum, sorted, is the union of those of the
        folded halves B + CJ and B - CJ, B = S'[lo, lo] and CJ = S'[lo, J lo]
        over the first n // 2 sites lo (Cantoni & Butler 1976).  An odd n
        borders B + CJ with the middle site, its row and column scaled by
        1/sqrt(2) to keep the block symmetric.  The halves' eigenvalues come
        from ``_half_eigh``, whose eigenvectors every filter solve reuses;
        any other such W takes the whole ``eigvalsh``.
        """
        return self._eigenvalues

    @functools.cached_property
    def _eigenvalues(self):
        if self._half_eigh is not None:
            return np.sort(np.concatenate([values for values, _ in self._half_eigh]))
        return None if self._root is None else np.linalg.eigvalsh(self._symmetric_rows(0, self.n))

    @functools.cached_property
    def _half_eigh(self):
        """``np.linalg.eigh`` of the folded halves B + CJ and B - CJ, or None.

        Only a mirrored W with a spectrum has them: they diagonalize
        D^{1/2} W D^{-1/2}, so they give its spectrum (``eigenvalues``) and
        every filter ``SpatialFilterFactor`` solves on it.  Each half is
        built by row blocks and decomposed in turn, at about a quarter of
        the whole eigensolve's flops, so its eigenvectors, n^2 / 4 values,
        are the only half-size block kept from the first.
        """
        if not self._mirrored or self._root is None:
            return None
        return tuple(np.linalg.eigh(self._symmetric_half(sign)) for sign in (1.0, -1.0))

    @functools.cached_property
    def _root(self):
        """D^{1/2}, with D^{1/2} W D^{-1/2} symmetric; None for a W without a spectrum."""
        scale = None if self.is_sparse else _symmetrizing_scale(self.weights)
        return None if scale is None else np.sqrt(scale)

    def _symmetric_rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start:stop of D^{1/2} W D^{-1/2}."""
        rows = self._root[start:stop, None] * self.weights[start:stop]
        rows /= self._root
        return rows

    def _symmetric_half(self, sign: float) -> np.ndarray:
        """The folded half B + sign CJ of D^{1/2} W D^{-1/2}, symmetric.

        An odd n's middle site borders B + CJ, its row and column scaled by
        1/sqrt(2).  The half is folded from row blocks, with no n x n array.
        """
        n = self.n
        size, combine = (n - n // 2, np.add) if sign > 0 else (n // 2, np.subtract)
        half = np.empty((size, size))
        for start, stop in _row_blocks(size, n):
            block = self._symmetric_rows(start, stop)
            combine(block[:, :size], block[:, ::-1][:, :size], out=half[start:stop])
        if size > n // 2:
            half[-1] *= math.sqrt(0.5)
            half[:, -1] *= math.sqrt(0.5)
        return half

    @functools.cached_property
    def _mirrored(self) -> bool:
        """Whether W is dense and equal to its mirror J W J, J reversing site order.

        One row pair is compared first, so most other W are refused in O(n);
        the rest are compared by row blocks.
        """
        a, n = self.weights, self.n
        if self.is_sparse or n < 2 or not np.array_equal(a[0], a[-1, ::-1]):
            return False
        return all(
            np.array_equal(a[start:stop], a[n - stop : n - start][::-1, ::-1])
            for start, stop in _row_blocks((n + 1) // 2, n)
        )

    @functools.cached_property
    def _max_row_sum(self) -> float:
        """The largest row sum of W, 0 for an empty W."""
        return float(np.max(self.row_sums(), initial=0.0))

    @functools.cached_property
    def _row_norms2(self) -> np.ndarray:
        """Squared Euclidean norm of each row of W."""
        a = self.weights
        if self.is_sparse:
            return np.asarray(a.multiply(a).sum(axis=1)).ravel()
        return np.einsum("ij,ij->i", a, a)

    @functools.cached_property
    def _ordered(self):
        """Reverse Cuthill-McKee ordering of W + W' and W permuted by it, as CSC."""
        from scipy.sparse.csgraph import reverse_cuthill_mckee
        perm = reverse_cuthill_mckee((self.weights + self.weights.T).tocsr(), symmetric_mode=True)
        return perm, self.weights[perm][:, perm].tocsc()

    @functools.cached_property
    def _components(self):
        """A sparse W by strongly connected component, for log-determinants.

        Returns (stacks, large).  ``stacks`` holds, for each size s from 2 to
        ``_SMALL_COMPONENT`` that occurs, the (k, s, s) dense W_CC of W's k
        components C of s sites, each component's sites in index order.
        ``large`` is W restricted to its larger components, weights inside
        one component only, in the order of ``_ordered`` restricted to
        them, as CSC; None when there are none.  Weights between two
        components are dropped: ordered by component, I - rho W is block
        triangular (Tarjan 1972), so its determinant is the product of its
        diagonal blocks', and a single site, W's diagonal being zero,
        contributes 1.
        """
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components
        a, n = self.weights, self.n
        count, labels = connected_components(a, directed=True, connection="strong")
        sizes = np.bincount(labels, minlength=count)
        site_size = sizes[labels]
        rows = np.repeat(np.arange(n), np.diff(a.indptr))
        inside = labels[rows] == labels[a.indices]
        rows, cols, values = rows[inside], a.indices[inside], a.data[inside]
        # sites ranked by (component size, component, index): each
        # component's sites are consecutive, and so are each size's components
        rank = np.empty(n, dtype=np.intp)
        rank[np.lexsort((labels, site_size))] = np.arange(n)
        k = np.arange(_SMALL_COMPONENT + 1)
        per_size = np.bincount(sizes, minlength=k.size)[: k.size]
        sites_before = np.cumsum(per_size * k) - per_size * k
        values_before = np.cumsum(per_size * k * k) - per_size * k * k
        # every small component's W_CC is one slice of one buffer; a weight's
        # row and column, counted from the first site of its size, give its
        # component and its place in that component's block
        small = site_size[rows] <= _SMALL_COMPONENT
        r, c, size = rows[small], cols[small], site_size[rows[small]]
        row, col = rank[r] - sites_before[size], rank[c] - sites_before[size]
        flat = values_before[size] + row * size + col % size
        buffer = np.bincount(flat, weights=values[small], minlength=int(np.sum(per_size * k * k)))
        stacks = [
            buffer[values_before[s] : values_before[s] + per_size[s] * s * s].reshape(-1, s, s)
            for s in range(2, _SMALL_COMPONENT + 1)
            if per_size[s]
        ]
        big = site_size > _SMALL_COMPONENT
        if not big.any():
            return stacks, None
        perm = self._ordered[0]
        perm = perm[big[perm]]
        position = np.empty(n, dtype=np.intp)
        position[perm] = np.arange(perm.size)
        r, c = rows[~small], cols[~small]
        large = sp.csc_matrix((values[~small], (position[r], position[c])), shape=(perm.size,) * 2)
        return stacks, large

    def admissible_interval(self) -> tuple[float, float]:
        """Open interval of dependence parameters keeping I - rho W invertible.

        Two plain floats within (-1, 1), by one rule whatever W's storage.  W's
        spectral radius is at most its largest row sum r (Perron-Frobenius),
        so a W flagged row-normalized, or with r <= 1, takes (-1, 1) with no
        eigensolve.  Any other W takes (1/lambda_min, 1/lambda_max) within
        (-1, 1) when it has a spectrum, and the row-sum bound (-1/r, 1/r)
        (LeSage & Pace 2009, ch. 4) when it has none.
        """
        if self.row_normalized or self._max_row_sum <= 1.0:
            return (-1.0, 1.0)
        eigs = self.eigenvalues()
        if eigs is None:
            return (-1.0 / self._max_row_sum, 1.0 / self._max_row_sum)
        # a nonzero W with a real spectrum and zero trace has lo < 0 < hi
        lo, hi = float(eigs.min()), float(eigs.max())
        return (max(1.0 / lo, -1.0), min(1.0 / hi, 1.0))


# a strongly connected component of at most this many sites takes its
# log-determinant from a batched dense slogdet, larger ones from one sparse
# LU; of cutoffs 8 to 256, 32 gave the fastest KNN log-dets at h = 3 to 5
_SMALL_COMPONENT = 32

# elements of each row block in a pass over a dense W, so that a pass holds
# a few hundred kB of temporaries rather than n x n ones
_BLOCK_ELEMENTS = 2**16


def _row_blocks(rows: int, width: int):
    """(start, stop) of consecutive blocks covering ``rows`` rows of ``width`` columns."""
    step = max(1, _BLOCK_ELEMENTS // width)
    return ((start, min(start + step, rows)) for start in range(0, rows, step))


def _symmetrizing_scale(a: np.ndarray):
    """Diagonal d with diag(d) W symmetric, or None.

    Tried only when every off-diagonal weight is positive: then W = D^{-1} S
    with S symmetric forces d_j = W_0j / W_j0 (up to a common factor).
    Each block of rows of diag(d) W is compared with the same rows of its
    transpose, so the check holds no n x n temporary.
    """
    n = a.shape[0]
    if n < 2 or np.count_nonzero(a) != n * (n - 1):
        return None
    d = np.ones(n)
    d[1:] = a[0, 1:] / a[1:, 0]
    for start, stop in _row_blocks(n, n):
        m = d[start:stop, None] * a[start:stop]
        gap = a[:, start:stop].T * d  # the same rows of (diag(d) W)'
        gap -= m
        np.abs(gap, out=gap)
        m *= 1e-12
        if not np.all(gap <= m):
            return None
    return d


def _inverse_distance_raw(n: int, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the generator's weights 1 / (1 + |i - i'|) before division."""
    raw = 1.0 / (1.0 + np.abs(rows[:, None] - np.arange(n)))
    raw[np.arange(rows.size), rows] = 0.0
    return raw


def _divide_by_mirror_mean(raw: np.ndarray, rows: np.ndarray, sums: np.ndarray) -> None:
    """Divide raw generator rows ``rows`` in place, ``sums`` holding every row's raw sum.

    A row and its mirror hold the same weights in reverse order, so their
    sums can differ in the last bit; dividing both by their mean keeps W
    equal to its mirror.
    """
    raw /= (0.5 * (sums[rows] + sums[::-1][rows]))[:, None]


def _inverse_distance_array(n: int) -> np.ndarray:
    """The weights of ``build_inverse_distance_weights(n)``, freshly built and writable."""
    # built whole: freeing its n x n temporaries raises glibc's mmap and trim
    # thresholds, so the fits that follow reuse their arrays' pages
    rows = np.arange(n)
    raw = _inverse_distance_raw(n, rows)
    _divide_by_mirror_mean(raw, rows, raw.sum(axis=1))
    return raw


@functools.lru_cache(maxsize=2, typed=True)
def build_inverse_distance_weights(n: int) -> SpatialWeightMatrix:
    """Row-normalized inverse index-distance weights 1 / (1 + |i - i'|).

    Every pair of sites is connected, so the matrix stays dense at any size.
    Row i and its mirror n - 1 - i are both divided by the mean of their two
    sums, which can differ in the last bit, so W equals its mirror J W J (J
    reversing site order) exactly and ``SpatialFilterFactor`` solves its
    filter through the eigenvectors of two half-size blocks.
    The matrix depends only on n, so it is built once per size and shared:
    the same n returns the same object, its weights are read-only, and the
    spectrum and interval cached on it are computed once per process.  The
    two most recent sizes are kept, the train and test sizes of one
    replication.  The cache keys n by its type too, so a float or a bool
    equal to a cached size still reaches the check and is refused; a numpy
    integer gets an entry, and a matrix, of its own.
    """
    check_rules(InvalidSizeError, RULES, n=n)
    raw = _inverse_distance_array(n)
    raw.flags.writeable = False
    return SpatialWeightMatrix(raw, row_normalized=True)


def great_circle_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Haversine great-circle distance in kilometres (inputs in degrees)."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(a, dtype=float)) for a in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return EARTH_RADIUS_KM * 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def _coords_array(coords) -> np.ndarray:
    """(lat, lon) pairs in degrees as an (n, 2) array, each inside its range."""
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DimensionError("coordinates must be a sequence of (lat, lon) pairs")
    if not np.all(np.isfinite(arr)):
        raise DataError("coordinates must be finite")
    for col, (name, bound) in enumerate(_COORD_RANGES):
        outside = np.flatnonzero(np.abs(arr[:, col]) > bound)
        if outside.size:
            site = int(outside[0])
            raise DataError(f"site {site} has {name} {arr[site, col]} outside [-{bound:g}, {bound:g}]")
    return arr


# the neighbor count h of a KNN weight matrix, unless a caller sets it
KNN_NEIGHBORS = 4


def build_knn_bisquare_weights(coords, h: int = KNN_NEIGHBORS) -> SpatialWeightMatrix:
    """KNN weights under a bi-square kernel with adaptive bandwidth.

    For each site the bandwidth is the great-circle distance to its h-th
    nearest neighbor; neighbors tied at that distance are all included.
    The h-th neighbor itself receives raw kernel weight zero, so rows where
    every retained neighbor is exactly at the bandwidth (equidistant ties)
    fall back to uniform weights.  Rows are normalized to sum to one; only
    positive weights are stored, as CSR at every size.  ``h`` is an integer
    of at least 1 (a bool is refused).

    Candidates come from a KD-tree on unit-sphere points: chord length is
    monotone in great-circle distance, so every site within the bandwidth
    lies within a slightly widened chord of the h-th nearest one.  One
    query for the h+2 nearest sites settles most rows: when the (h+2)-th
    lies outside the widened chord, the h+1 nearest (the site itself
    included) are exactly the sites inside it.  Only a row whose (h+2)-th
    lies inside, so that it may hold a tie at its bandwidth, runs a ball
    query.  Only the candidate pairs get a haversine distance, in ascending
    site order per row.  A row of fewer than 8 kept weights is summed left
    to right, one pass per neighbor slot, which is numpy's own order for
    such a row; a longer row keeps ``ndarray.sum``.
    """
    import scipy.sparse as sp
    from scipy.spatial import cKDTree
    pts = _coords_array(coords)
    n = pts.shape[0]
    check_rules(InvalidSizeError, RULES, h=h)
    if n < h + 1:
        raise InvalidSizeError(f"need at least h+1={h + 1} sites, got {n}")

    lat, lon = np.radians(pts[:, 0]), np.radians(pts[:, 1])
    xyz = np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
    tree = cKDTree(xyz)
    rows_i: list[np.ndarray] = []
    rows_j: list[np.ndarray] = []
    rows_w: list[np.ndarray] = []

    block = 512
    for start in range(0, n, block):
        stop = min(start + block, n)
        # the query site itself is its own 0-th neighbor
        chords, nearest = tree.query(xyz[start:stop], k=min(h + 2, n))
        # 1e-6 relative covers the 1e-12 tie window and rounding in both the
        # chord and the haversine; 1e-12 absolute covers near-coincident sites
        radius = chords[:, h] * (1.0 + 1e-6) + 1e-12
        # a row may tie at its bandwidth only if its (h+2)-th nearest lies
        # inside the radius; with n = h + 1 the last chord is the h-th, and
        # every row counts as tied
        tied = chords[:, -1] <= radius
        found = tree.query_ball_point(xyz[start:stop][tied], radius[tied], return_sorted=True)
        found_per_row = np.full(stop - start, h + 1)
        found_per_row[tied] = np.fromiter(map(len, found), dtype=np.intp, count=len(found))
        i = np.repeat(np.arange(start, stop), found_per_row)
        from_ball = np.repeat(tied, found_per_row)
        j = np.empty(i.size, dtype=np.intp)
        j[~from_ball] = np.sort(nearest[~tied, : h + 1], axis=1).ravel()
        j[from_ball] = np.fromiter(itertools.chain.from_iterable(found), dtype=np.intp)
        d = great_circle_km(pts[i, 0], pts[i, 1], pts[j, 0], pts[j, 1])
        bandwidth = np.empty(stop - start)
        # a row off the ball route holds its h+1 nearest, itself at distance
        # 0 among them, so its h-th distance is the largest of the h+1
        bandwidth[~tied] = d[~from_ball].reshape(-1, h + 1).max(axis=1)
        d[i == j] = np.inf
        if tied.any():
            # a tied row's h-th smallest distance, from a (row, distance) sort
            ti, td, counts = i[from_ball], d[from_ball], found_per_row[tied]
            order = np.lexsort((td, ti))
            bandwidth[tied] = td[order[np.cumsum(counts) - counts + h - 1]]
        if np.any(bandwidth <= 0.0):
            site = start + int(np.flatnonzero(bandwidth <= 0.0)[0])
            raise DegenerateBandwidthError(
                f"site {site} has a zero bandwidth (duplicate coordinates)"
            )
        bw = bandwidth[i - start]
        keep = d <= bw * (1.0 + 1e-12)
        i, j, d, bw = i[keep], j[keep], d[keep], bw[keep]
        ratio = np.minimum(d / bw, 1.0)
        raw = (1.0 - ratio**2) ** 2
        kept_per_row = np.bincount(i - start)
        ends = np.cumsum(kept_per_row)
        starts = ends - kept_per_row
        # ndarray.sum's order: left to right below 8 values, pairwise from 8
        # (np.add.reduceat would round differently)
        short = kept_per_row < 8
        total = np.zeros(stop - start)
        for slot in range(7):
            rows = np.flatnonzero(short & (kept_per_row > slot))
            total[rows] += raw[starts[rows] + slot]
        for row in np.flatnonzero(~short):
            total[row] = raw[starts[row] : ends[row]].sum()
        # rows whose retained neighbors all sit exactly at the bandwidth are uniform
        uniform = total < 1e-20
        raw[np.repeat(uniform, kept_per_row)] = 1.0
        total[uniform] = kept_per_row[uniform]
        rows_i.append(i)
        rows_j.append(j)
        rows_w.append(raw / np.repeat(total, kept_per_row))

    i, j, w = np.concatenate(rows_i), np.concatenate(rows_j), np.concatenate(rows_w)
    positive = w > 0.0
    weights = sp.csr_matrix((w[positive], (i[positive], j[positive])), shape=(n, n))
    return SpatialWeightMatrix(weights, row_normalized=True)


def _refuse_non_finite(name: str, values: np.ndarray) -> None:
    """Raise a DataError naming the first site (row) where ``values`` is NaN or infinite."""
    finite = np.isfinite(values)
    if not finite.all():
        site = int(np.argwhere(~finite)[0, 0])
        raise DataError(f"{name} at site {site} is NaN or infinite")


def local_morans_i(W: SpatialWeightMatrix, y: np.ndarray) -> np.ndarray:
    """Per-site local Moran's I; sites with empty neighborhoods get 0.

    A NaN or infinite response raises a DataError naming its first site.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size != W.n:
        raise DimensionError(f"response has {y.size} entries but W has {W.n} rows")
    _refuse_non_finite("response", y)
    dev = y - y.mean()
    denom = float(dev @ dev)
    if denom <= 0.0:
        raise DegenerateVarianceError("local Moran's I is undefined for a constant response")
    return W.n * dev * W.matvec(dev) / denom


class SpatialFilterFactor:
    """I - rho W, checked admissible, for filter solves and its log-determinant.

    rho is admissible exactly when it lies inside ``W.admissible_interval()``;
    any other rho raises.  At rho = 0 the filter is I for every W: nothing is
    factored, a solve returns a copy of b and the log-determinant is 0.  A
    sparse W has no spectrum, so every rho it admits is dominant, |rho| times
    its largest row sum below 1: I - rho W is strictly diagonally dominant
    with a positive diagonal, and so is every diagonal block of it.  Its
    solves factor the whole of it once, without pivoting; its
    log-determinant factors only its strongly connected components (see
    ``log_det``).

    Which route a solve takes depends on W alone.  A dense W equal to its
    mirror J W J (J reversing site order) with a spectrum, as every
    inverse-distance W is, solves from the eigenpairs of the two folded
    halves of D^{1/2} W D^{-1/2} (Cantoni & Butler 1976), computed once
    per W, by its spectrum or its first solve, and kept on W: each solve
    costs two matrix products per half, whatever rho.  Any other dense W
    solves by one ``np.linalg.solve`` of I - rho W (an LU and its
    triangular solves), so a factor that serves one solve costs one LU.
    Building a factor factors nothing: the sparse LU and the dense
    I - rho W are built by the first solve or LU log-determinant that needs
    them.  The log-determinant is computed when first read, from W's
    spectrum when it has one, and a non-finite one raises there.  A
    right-hand side is a vector or a matrix of n rows on every route.
    """

    def __init__(self, W: SpatialWeightMatrix, rho: float):
        self.W = W
        self.rho = float(rho)
        lo, hi = W.admissible_interval()
        if not lo < self.rho < hi:
            raise AdmissibilityError(f"rho={self.rho} is outside the admissible interval ({lo}, {hi}) of W")

    @functools.cached_property
    def _lu(self):
        """The LU of a sparse I - rho W in W's ordering, for solves."""
        return _dominant_lu(self.W._ordered[1], self.rho)

    @functools.cached_property
    def _dense(self) -> np.ndarray:
        """The dense I - rho W whose LU solves the filter of a W without ``_half_eigh``.

        It is 0 - rho W plus one on its diagonal: -rho w + 1 rounds exactly
        like 1 - rho w, so no identity matrix is built.
        """
        # 0 - rho w, not -(rho w), keeps a zero weight's +0 of I - rho W
        a = self.W.weights * self.rho
        np.subtract(0.0, a, out=a)
        a.flat[:: a.shape[0] + 1] += 1.0
        return a

    @functools.cached_property
    def log_det(self) -> float:
        """ln det(I - rho W); raises if I - rho W is singular to working precision.

        From W's spectrum when it has one, sum ln(1 - rho lambda) (Ord 1975),
        and from one ``slogdet`` of I - rho W for any other dense W.  A
        sparse W sums ln det(I - rho W_CC) over its strongly connected
        components C (``SpatialWeightMatrix._components``): one batched
        ``slogdet`` per component size up to ``_SMALL_COMPONENT`` sites, and
        the pivots of one LU, without pivoting, of the larger components
        together.  A single site adds 0; the whole-W LU serves solves only.
        """
        if self.rho == 0.0:
            return 0.0
        eigs = self.W.eigenvalues()
        if eigs is not None:
            value = float(np.sum(np.log(1.0 - self.rho * eigs)))
        elif self.W.is_sparse:
            stacks, large = self.W._components
            value = 0.0
            for stack in stacks:
                a = stack * -self.rho
                diagonal = np.arange(a.shape[1])
                a[:, diagonal, diagonal] += 1.0
                value += float(np.sum(np.linalg.slogdet(a)[1]))
            if large is not None:
                value += float(np.sum(np.log(_dominant_lu(large, self.rho).U.diagonal())))
        else:
            value = float(np.linalg.slogdet(self._dense)[1])
        if not np.isfinite(value):
            raise AdmissibilityError(f"I - rho W is singular to working precision for rho={self.rho}")
        return value

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._solve(b, False)

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        return self._solve(b, True)

    def _solve(self, b: np.ndarray, transpose: bool) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[:1] != (self.W.n,) or b.ndim > 2:
            raise DimensionError(
                f"right-hand side has shape {b.shape}, not a vector or matrix of n rows: W has {self.W.n} rows"
            )
        if self.rho == 0.0:
            return np.array(b)
        if self.W.is_sparse:
            perm = self.W._ordered[0]
            x = np.empty_like(b)
            x[perm] = self._lu.solve(b[perm], trans="T" if transpose else "N")
            return x
        if self.W._half_eigh is not None:
            return self._spectral_solve(b, transpose)
        a = self._dense
        return np.linalg.solve(a.T if transpose else a, b)

    def _spectral_solve(self, b: np.ndarray, transpose: bool) -> np.ndarray:
        """Solve through the eigenvectors of W's folded halves, two products each.

        I - rho W = D^{-1/2} (I - rho S') D^{1/2} with S' = D^{1/2} W D^{-1/2},
        so x = D^{-1/2} (I - rho S')^{-1} D^{1/2} b, and the transposed solve
        swaps the two scalings.  Folding D^{1/2} b into the halves' sums
        and differences, y[lo] + y[J lo] and y[lo] - y[J lo], turns
        (I - rho S')^{-1} into Q diag(1 / (1 - rho lambda)) Q' for each
        half's eigenpairs; the middle site of an odd n is scaled by sqrt(2)
        into its half and back.
        """
        n, m = self.W.n, self.W.n // 2
        root = self.W._root[:, None]
        y = b.reshape(n, -1)
        y = y / root if transpose else y * root
        mirror = y[::-1]
        folded = (y[: n - m] + mirror[: n - m], y[:m] - mirror[:m])  # b[c] twice
        folded[0][m:] *= math.sqrt(0.5)
        u, v = (
            vectors @ ((vectors.T @ half) / (1.0 - self.rho * values)[:, None])
            for (values, vectors), half in zip(self.W._half_eigh, folded)
        )
        x = np.empty_like(y)
        x[:m] = (u[:m] + v) / 2
        x[::-1][:m] = (u[:m] - v) / 2
        x[m : n - m] = u[m:] * math.sqrt(0.5)
        x = x * root if transpose else x / root
        return x.reshape(b.shape)


def _dominant_lu(ordered, rho: float):
    """``splu`` of I - rho M for a CSC M, in M's own order, without pivoting.

    Only for a rho with I - rho M strictly diagonally dominant: its
    diagonal pivots are then the ratios of positive leading minors, and a
    symmetric permutation of M leaves the determinant alone.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    a = sp.identity(ordered.shape[0], format="csc") - rho * ordered
    return splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(Equil=False))


def log_det_filter(W: SpatialWeightMatrix, rho: float) -> float:
    """ln det(I - rho W) for an admissible rho (see :class:`SpatialFilterFactor`)."""
    return SpatialFilterFactor(W, rho).log_det


def apply_spatial_filter(W: SpatialWeightMatrix, rho: float, b: np.ndarray) -> np.ndarray:
    """Solve (I - rho W) x = b without forming the explicit inverse."""
    return SpatialFilterFactor(W, rho).solve(b)


@dataclass(frozen=True)
class RhoEstimate:
    """Profile-likelihood estimate of the spatial dependence parameter."""

    rho_hat: float
    theta_hat: np.ndarray
    sigma2_hat: float
    loglik: float
    admissible_interval: tuple[float, float]
    at_boundary: bool


def _brent_max(f, xs, fs, xatol: float) -> float:
    """Maximize f on [xs[0], xs[-1]] by Brent's method (Brent 1973, ch. 5).

    ``xs`` holds two or three ascending points and ``fs`` their values; the
    search starts from the best of them, with the others as the first
    parabola's points.  Parabolic steps through the three best points,
    golden-section steps when a parabola is not trusted.  It stops when the
    bracket lies within 2 tol of the best point, tol = sqrt(eps) |x| +
    xatol / 3: closer than sqrt(eps) |x| to a smooth maximum, values of f
    differ by rounding only.
    """
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    rel = math.sqrt(np.finfo(float).eps)
    a, b = xs[0], xs[-1]
    ranked = sorted(zip(fs, xs), reverse=True) * 2
    (fx, x), (fw, w), (fv, v) = ranked[:3]
    d = e = b - a
    while True:
        tol = rel * abs(x) + xatol / 3.0
        mid = 0.5 * (a + b)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return x
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                    d = tol if x < mid else -tol
        if not parabolic:
            e = b - x if x < mid else a - x
            d = golden * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def estimate_rho_ml(y: np.ndarray, Xc: np.ndarray, W: SpatialWeightMatrix) -> RhoEstimate:
    """Maximize the concentrated log-likelihood of the spatially lagged model.

    For fixed rho the coefficient vector is the least-squares fit of
    (y - rho W y) on ``Xc`` and sigma^2 the residual mean square, leaving a
    one-dimensional search of ln|I - rho W| - (n/2) ln sigma^2(rho) over the
    admissible interval.  A 21-point scan brackets the global optimum (the
    profile can be multimodal), and Brent's method on the profile refines
    inside the scan bracket.  Every log-determinant comes from
    ``log_det_filter``, once per rho, whatever W's storage or spectrum.
    One thin SVD Xc = U S V' gives the rank check (``matrix_rank``'s
    tolerance), the projections off Xc and theta = V S^{-1} U'(y - rho W y).

    The scan skips log-determinants that cannot win.  Hadamard's
    inequality, W's diagonal being zero, bounds ln det(I - rho W) by
    1/2 sum_i log1p(rho^2 |w_i|^2), w_i row i of W, in O(n).  Points are
    evaluated exactly in order of decreasing bound until a bound falls
    strictly below the best exact value; every skipped point therefore
    cannot hold the maximum, and the bracket's points are made exact for
    Brent.  The scan's best point, the bracket and every value Brent reads
    are those of a full scan, so the estimate is bit-identical to one.
    ``Xc`` must be finite with full column rank and a leading column of
    ones, and ``y`` finite.
    """
    y = np.asarray(y, dtype=float).ravel()
    Xc = np.asarray(Xc, dtype=float)
    if Xc.ndim != 2 or Xc.shape[0] != y.size or y.size != W.n:
        raise DimensionError("y, Xc, and W dimensions are inconsistent")
    _refuse_non_finite("response", y)
    _refuse_non_finite("design", Xc)
    n, k = Xc.shape
    if not np.all(Xc[:, 0] == 1.0):
        raise DesignRankError("first column of the design must be all ones")
    u, s, vt = np.linalg.svd(Xc, full_matrices=False)
    if s.size < k or s[-1] <= s[0] * max(n, k) * np.finfo(float).eps:
        raise DesignRankError("design matrix is rank deficient")

    ylag = W.matvec(y)
    e0 = y - u @ (u.T @ y)
    e1 = ylag - u @ (u.T @ ylag)
    # SSR(rho) is an exact quadratic
    ss00, ss01, ss11 = float(e0 @ e0), float(e0 @ e1), float(e1 @ e1)

    lo, hi = W.admissible_interval()
    margin = 1e-6 * (hi - lo)
    lo_s, hi_s = lo + margin, hi - margin

    # each log-det once per rho, so the final likelihood reuses the chosen point's
    log_det = functools.cache(lambda rho: log_det_filter(W, rho))

    def concentrated(rho: float, log_det=log_det) -> float:
        ssr = ss00 - 2.0 * rho * ss01 + rho * rho * ss11
        if ssr <= 0.0:
            return -np.inf
        return log_det(rho) - 0.5 * n * math.log(ssr / n)

    # Hadamard's inequality bounds each log-det, W's diagonal being zero:
    # ln det(I - rho W) <= 1/2 sum_i log1p(rho^2 |w_i|^2), w_i row i of W
    norms2 = W._row_norms2

    def hadamard(rho: float) -> float:
        return 0.5 * float(np.sum(np.log1p(rho * rho * norms2)))

    scan = np.linspace(lo_s, hi_s, 21)
    scan_vals = np.array([concentrated(r, hadamard) for r in scan])
    # exact values by decreasing bound, until a bound falls below the best
    # of them: the points left keep their bounds and cannot hold the maximum
    top = -np.inf
    for i in np.argsort(-scan_vals, kind="stable"):
        if scan_vals[i] < top:
            break
        scan_vals[i] = concentrated(scan[i])
        top = max(top, scan_vals[i])
    best = int(np.argmax(scan_vals))
    near = scan[max(best - 1, 0) : best + 2].tolist()
    # Brent starts from exact values: a bracket end may hold only its bound
    rho_hat = _brent_max(concentrated, near, [concentrated(r) for r in near], 1e-10)

    # the residual of theta = V S^{-1} U' (y - rho W y) is e0 - rho e1
    theta_hat = vt.T @ ((u.T @ (y - rho_hat * ylag)) / s)
    resid = e0 - rho_hat * e1
    sigma2_hat = float(resid @ resid) / n
    if sigma2_hat <= 0.0:
        raise DegenerateVarianceError("residual variance collapsed to zero")
    loglik = -0.5 * n * (math.log(2.0 * math.pi * sigma2_hat) + 1.0) + log_det(rho_hat)
    width = hi_s - lo_s
    at_boundary = min(rho_hat - lo_s, hi_s - rho_hat) < 1e-3 * width
    return RhoEstimate(
        rho_hat=rho_hat,
        theta_hat=theta_hat,
        sigma2_hat=sigma2_hat,
        loglik=float(loglik),
        admissible_interval=(lo, hi),
        at_boundary=at_boundary,
    )


# header suffix of a weight file that names its generator instead of listing triples
_INVERSE_DISTANCE = "inverse_distance"


def _is_inverse_distance(W: SpatialWeightMatrix) -> bool:
    """True when W holds exactly the bits of ``build_inverse_distance_weights(W.n)``.

    W is compared with the generator's rows block by block, divided by the
    generator's own rule, so no n x n reference is built and no cached W is
    built or evicted.
    """
    # every off-diagonal generator weight is positive: testing row 0 first
    # spares the comparison for most other W
    if W.is_sparse or not W.row_normalized or W.n < 2 or not W.weights[0, 1:].all():
        return False
    n = W.n
    blocks = list(_row_blocks(n, n))
    sums = np.concatenate([_inverse_distance_raw(n, np.arange(*b)).sum(axis=1) for b in blocks])
    for start, stop in blocks:
        rows = np.arange(start, stop)
        reference = _inverse_distance_raw(n, rows)
        _divide_by_mirror_mean(reference, rows, sums)
        block = W.weights[start:stop]
        # weights are nonnegative, so a set sign bit is a -0.0 that == would miss
        if not np.array_equal(block, reference) or np.signbit(block).any():
            return False
    return True


def save_weights(W: SpatialWeightMatrix, path) -> None:
    """Write a weight matrix as text.

    An inverse-distance W is one header line naming its generator,
    ``n <n> row_normalized 1 inverse_distance``; any other W is that header
    without the last word, then one ``i j w`` line per stored entry.
    """
    header = f"n {W.n} row_normalized {1 if W.row_normalized else 0}"
    if _is_inverse_distance(W):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{header} {_INVERSE_DISTANCE}\n")
        return
    if W.is_sparse:
        coo = W.weights.tocoo()
        rows, cols, values = coo.row, coo.col, coo.data
    else:
        rows, cols = np.nonzero(W.weights)
        values = W.weights[rows, cols]
    write_table(path, header, "%d %d %.17g\n", rows, cols, values)


def load_weights(path) -> SpatialWeightMatrix:
    """Read a weight matrix written by :func:`save_weights`.

    An ``inverse_distance`` header returns the shared
    ``build_inverse_distance_weights(n)``; it must be row-normalized, have
    n >= 2 and no body.  A file leaving some off-diagonal weight unstored
    or zero, as a KNN file does, is read as CSR above ``DENSE_LIMIT`` sites
    and, like the KNN builder's W, stores no zero weight.  Any other file is
    read dense, as only such a W can have a spectrum.  Duplicate entries, a
    malformed header (a ``row_normalized`` flag other than 0 or 1 included)
    and an invalid weight matrix (a non-finite weight included) raise a
    DataError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        try:
            n, normalized = int(header[1]), int(header[3])
        except (IndexError, ValueError):
            n = normalized = -1
        keyed = len(header) in (4, 5) and header[0] == "n" and header[2] == "row_normalized"
        if not keyed or n < 0 or normalized not in (0, 1):
            raise DataError(f"{path}: malformed weight-matrix header")
        if len(header) == 5:
            if header[4] != _INVERSE_DISTANCE:
                raise DataError(f"{path}: unknown weight-matrix form '{header[4]}'")
            if normalized != 1 or n < 2:
                raise DataError(f"{path}: an {_INVERSE_DISTANCE} matrix needs row_normalized 1 and n >= 2")
            if fh.read().strip():
                raise DataError(f"{path}: an {_INVERSE_DISTANCE} header takes no 'i j w' lines")
            return build_inverse_distance_weights(n)
        triple = "expected 'i j w' triple"
        in_range = (lambda i, j, w: (i >= 0) & (i < n) & (j >= 0) & (j < n), f"index outside [0, {n})")
        ii, jj, vv = read_rows(fh, path, "iif", None, triple, triple, in_range)
    flat = np.sort(ii * n + jj)
    repeated = flat[1:] == flat[:-1]
    if repeated.any():
        i, j = divmod(int(flat[np.argmax(repeated)]), n)
        raise DataError(f"{path}: duplicate entry i={i} j={j}")
    if n > DENSE_LIMIT and np.count_nonzero(vv) < n * (n - 1):
        import scipy.sparse as sp
        # older KNN files hold an 'i j 0' line per row; the builder stores no zeros
        nonzero = vv != 0.0
        weights = sp.csr_matrix((vv[nonzero], (ii[nonzero], jj[nonzero])), shape=(n, n))
    else:
        weights = np.zeros((n, n))
        # adding to zeros, as a CSR expansion does, reads an explicit -0 as 0
        weights[ii, jj] += vv
    try:
        return SpatialWeightMatrix(weights, row_normalized=bool(normalized))
    except InvalidSizeError as exc:
        raise DataError(f"{path}: {exc}") from exc
