"""Spatial weight matrices, filtering, and likelihood estimation of dependence.

Covers construction of row-normalized weight matrices (inverse-distance and
KNN bi-square), the spatial filter solve (I - rho W)^{-1}, log-determinant
evaluation, profile-likelihood estimation of the dependence parameter, and
local Moran's I diagnostics.

Matrices with at most ``DENSE_LIMIT`` rows are stored dense; larger ones use
CSR storage with sparse triangular factorizations.  When |rho| times the
largest row sum of W is below 1, I - rho W is strictly diagonally dominant
with a positive diagonal, so it is factored without pivoting in one reverse
Cuthill-McKee ordering computed once per W, and every pivot is positive.
Any other sparse W gets a pivoted factorization whose log-determinant sign
comes from the permutation parities, (n - number of cycles) mod 2.  KNN
neighbors are searched with a KD-tree on unit-sphere points.  Up to
``_EIG_LIMIT`` rows the likelihood uses the full spectrum of W: real, from
a symmetric eigensolver, when W = D^{-1} S with S symmetric (every
inverse-distance W), and from the general nonsymmetric solver otherwise.
An inverse-distance W depends only on n, so it is built once per size and
shared read-only: every replication of a study cell reuses one matrix,
and with it the spectrum cached on it.

scipy modules needed only by some routes are imported where they are used,
because they account for much of the package's import time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ._textio import read_rows, write_table
from .errors import (
    AdmissibilityError,
    DataError,
    DegenerateBandwidthError,
    DegenerateVarianceError,
    DesignRankError,
    DimensionError,
    InvalidSizeError,
)

__all__ = [
    "EARTH_RADIUS_KM",
    "DENSE_LIMIT",
    "Coordinates",
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

# dense storage up to this many rows; sparse beyond
DENSE_LIMIT = 3000

# eigenvalue-based admissible interval only up to this size
_EIG_LIMIT = 2000


@dataclass(frozen=True)
class Coordinates:
    """Geographic position in degrees."""

    latitude: float
    longitude: float

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise InvalidSizeError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise InvalidSizeError(f"longitude {self.longitude} outside [-180, 180]")


class SpatialWeightMatrix:
    """Nonnegative, zero-diagonal spatial weights, optionally row-normalized.

    Treated as immutable after construction; derived quantities (eigenvalues,
    admissible interval) are cached lazily.  Inverse-distance matrices are
    shared between callers and hold read-only weights.
    """

    def __init__(self, weights, row_normalized: bool):
        if sp.issparse(weights):
            weights = weights.tocsr()
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
        if sp.issparse(weights):
            if weights.nnz and weights.data.min() < 0:
                raise InvalidSizeError("weights must be nonnegative")
        elif weights.size and weights.min() < 0:
            raise InvalidSizeError("weights must be nonnegative")
        self.weights = weights
        self.n = n
        self.row_normalized = bool(row_normalized)
        if self.row_normalized:
            sums = self.row_sums()
            active = sums > 0
            if np.any(np.abs(sums[active] - 1.0) > 1e-12):
                raise InvalidSizeError("row-normalized flag set but rows do not sum to 1")
        self._eigenvalues = None
        self._interval = None
        self._ordering = None

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.weights)

    def toarray(self) -> np.ndarray:
        return self.weights.toarray() if self.is_sparse else self.weights

    def row_sums(self) -> np.ndarray:
        if self.is_sparse:
            return np.asarray(self.weights.sum(axis=1)).ravel()
        return self.weights.sum(axis=1)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(self.weights @ v)

    def subset(self, rows, renormalize: bool = True) -> "SpatialWeightMatrix":
        """Restrict to a subset of sites, re-normalizing surviving rows."""
        rows = np.asarray(rows, dtype=int)
        if self.is_sparse and rows.size > DENSE_LIMIT:
            sub = self.weights[rows][:, rows].tocsr()
            if renormalize:
                sums = np.asarray(sub.sum(axis=1)).ravel()
                scale = np.ones_like(sums)
                active = sums > 0
                scale[active] = 1.0 / sums[active]
                sub = (sp.diags(scale) @ sub).tocsr()
                return SpatialWeightMatrix(sub, row_normalized=True)
            return SpatialWeightMatrix(sub, row_normalized=False)
        if self.is_sparse:
            sub = self.weights[rows][:, rows].toarray()
        else:
            sub = self.weights[np.ix_(rows, rows)].copy()
        if renormalize:
            sums = sub.sum(axis=1)
            active = sums > 0
            sub[active] /= sums[active, None]
            return SpatialWeightMatrix(sub, row_normalized=True)
        return SpatialWeightMatrix(sub, row_normalized=False)

    def eigenvalues(self):
        """Full eigenvalue set, or None when too large to compute.

        Real (``eigvalsh``) when W is similar to a symmetric matrix, i.e.
        W = D^{-1} S with S symmetric (Ord 1975): then D^{1/2} W D^{-1/2}
        is symmetric and has the same spectrum.  Otherwise from the general
        ``eigvals``, complex in general.
        """
        if self._eigenvalues is None and self.n <= _EIG_LIMIT:
            a = self.toarray()
            scale = _symmetrizing_scale(a)
            if scale is None:
                self._eigenvalues = np.linalg.eigvals(a)
            else:
                root = np.sqrt(scale)
                sym = root[:, None] * a
                sym /= root
                self._eigenvalues = np.linalg.eigvalsh(sym)
        return self._eigenvalues

    def _ordered(self):
        """Reverse Cuthill-McKee ordering of W + W' and W permuted by it, as CSC."""
        if self._ordering is None:
            from scipy.sparse.csgraph import reverse_cuthill_mckee
            perm = reverse_cuthill_mckee((self.weights + self.weights.T).tocsr(), symmetric_mode=True)
            self._ordering = (perm, self.weights[perm][:, perm].tocsc())
        return self._ordering

    def admissible_interval(self) -> tuple[float, float]:
        """Open interval of dependence parameters keeping I - rho W invertible.

        Computed as (1/lambda_min, 1/lambda_max) over the real eigenvalues,
        intersected with (-1, 1); falls back to (-1, 1) shrunk by 1e-6 when
        the spectrum is too expensive to obtain.
        """
        if self._interval is not None:
            return self._interval
        eigs = self.eigenvalues()
        if eigs is None:
            self._interval = (-1.0 + 1e-6, 1.0 - 1e-6)
            return self._interval
        scale = max(1.0, float(np.abs(eigs).max()))
        real = eigs.real[np.abs(eigs.imag) <= 1e-8 * scale]
        lo = 1.0 / real.min() if np.any(real < 0) else -1.0
        hi = 1.0 / real.max() if np.any(real > 0) else 1.0
        self._interval = (max(lo, -1.0), min(hi, 1.0))
        return self._interval


def _symmetrizing_scale(a: np.ndarray):
    """Diagonal d with diag(d) W symmetric, or None.

    Tried only when every off-diagonal weight is positive: then W = D^{-1} S
    with S symmetric forces d_j = W_0j / W_j0 (up to a common factor).
    """
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


@functools.lru_cache(maxsize=2)
def build_inverse_distance_weights(n: int) -> SpatialWeightMatrix:
    """Row-normalized inverse index-distance weights 1 / (1 + |i - i'|).

    Every pair of sites is connected, so the matrix stays dense at any size.
    The matrix depends only on n, so it is built once per size and shared:
    the same n returns the same object, its weights are read-only, and the
    spectrum and interval cached on it are computed once per process.  The
    two most recent sizes are kept, the train and test sizes of one
    replication.
    """
    if n < 2:
        raise InvalidSizeError("need at least 2 sites")
    idx = np.arange(n)
    raw = 1.0 / (1.0 + np.abs(idx[:, None] - idx[None, :]))
    np.fill_diagonal(raw, 0.0)
    raw /= raw.sum(axis=1, keepdims=True)
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
    if len(coords) and isinstance(coords[0], Coordinates):
        return np.array([[c.latitude, c.longitude] for c in coords], dtype=float)
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DimensionError("coordinates must be a sequence of (lat, lon) pairs")
    if not np.all(np.isfinite(arr)):
        raise DataError("coordinates must be finite")
    return arr


def build_knn_bisquare_weights(coords, h: int = 4) -> SpatialWeightMatrix:
    """KNN weights under a bi-square kernel with adaptive bandwidth.

    For each site the bandwidth is the great-circle distance to its h-th
    nearest neighbor; neighbors tied at that distance are all included.
    The h-th neighbor itself receives raw kernel weight zero, so rows where
    every retained neighbor is exactly at the bandwidth (equidistant ties)
    fall back to uniform weights.  Rows are normalized to sum to one.

    Candidates come from a KD-tree on unit-sphere points: chord length is
    monotone in great-circle distance, so every site within the bandwidth
    lies within a slightly widened chord of the h-th nearest one.  Only
    those candidate pairs get a haversine distance.
    """
    from scipy.spatial import cKDTree
    pts = _coords_array(coords)
    n = pts.shape[0]
    if h < 1:
        raise InvalidSizeError("h must be >= 1")
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
        chord = tree.query(xyz[start:stop], k=h + 1)[0][:, h]
        # 1e-6 relative covers the 1e-12 tie window and rounding in both the
        # chord and the haversine; 1e-12 absolute covers near-coincident sites
        radius = chord * (1.0 + 1e-6) + 1e-12
        found = tree.query_ball_point(xyz[start:stop], radius, return_sorted=True)
        found_per_row = np.fromiter(map(len, found), dtype=np.intp, count=stop - start)
        i = np.repeat(np.arange(start, stop), found_per_row)
        j = np.fromiter(itertools.chain.from_iterable(found), dtype=np.intp, count=i.size)
        d = great_circle_km(pts[i, 0], pts[i, 1], pts[j, 0], pts[j, 1])
        d[i == j] = np.inf
        # h-th smallest distance per row, from a (row, distance) sort
        order = np.lexsort((d, i))
        bandwidth = d[order[np.cumsum(found_per_row) - found_per_row + h - 1]]
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
        # ndarray.sum per row: np.add.reduceat would round differently
        total = np.array([raw[a:b].sum() for a, b in zip(ends - kept_per_row, ends)])
        # rows whose retained neighbors all sit exactly at the bandwidth are uniform
        uniform = total < 1e-20
        raw[np.repeat(uniform, kept_per_row)] = 1.0
        total[uniform] = kept_per_row[uniform]
        rows_i.append(i)
        rows_j.append(j)
        rows_w.append(raw / np.repeat(total, kept_per_row))

    i, j, w = np.concatenate(rows_i), np.concatenate(rows_j), np.concatenate(rows_w)
    if n > DENSE_LIMIT:
        return SpatialWeightMatrix(sp.csr_matrix((w, (i, j)), shape=(n, n)), row_normalized=True)
    dense = np.zeros((n, n))
    dense[i, j] = w
    return SpatialWeightMatrix(dense, row_normalized=True)


def local_morans_i(W: SpatialWeightMatrix, y: np.ndarray) -> np.ndarray:
    """Per-site local Moran's I; sites with empty neighborhoods get 0."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size != W.n:
        raise DimensionError(f"response has {y.size} entries but W has {W.n} rows")
    dev = y - y.mean()
    denom = float(dev @ dev)
    if denom <= 0.0:
        raise DegenerateVarianceError("local Moran's I is undefined for a constant response")
    return W.n * dev * W.matvec(dev) / denom


def _perm_parity(perm: np.ndarray) -> int:
    """Parity of a permutation: (n - number of cycles) mod 2."""
    from scipy.sparse.csgraph import connected_components
    n = perm.size
    graph = sp.csr_matrix((np.ones(n), perm, np.arange(n + 1)), shape=(n, n))
    cycles, _ = connected_components(graph, directed=True, connection="weak")
    return (n - cycles) & 1


def _slogdet_sparse(lu) -> tuple[float, float]:
    diag = lu.U.diagonal()
    sign = -1.0 if (_perm_parity(lu.perm_r) ^ _perm_parity(lu.perm_c)) else 1.0
    sign *= np.prod(np.sign(diag))
    return float(sign), float(np.sum(np.log(np.abs(diag))))


class SpatialFilterFactor:
    """Cached factorization of I - rho W for repeated filter solves."""

    def __init__(self, W: SpatialWeightMatrix, rho: float):
        self.W = W
        self.rho = float(rho)
        self._lu = None
        self._perm = None
        if W.is_sparse:
            from scipy.sparse.linalg import splu
            if abs(self.rho) * np.max(W.row_sums(), initial=0.0) < 1.0:
                # strictly diagonally dominant with a positive diagonal: the
                # diagonal pivots are the ratios of positive leading minors, and
                # a symmetric permutation leaves the determinant's sign alone
                self._perm, wp = W._ordered()
                a = sp.identity(W.n, format="csc") - self.rho * wp
                self._lu = splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(Equil=False))
                diag = self._lu.U.diagonal()
                sign = 1.0 if np.all(diag > 0.0) else -1.0
                logdet = float(np.sum(np.log(np.abs(diag))))
            else:
                a = (sp.identity(W.n, format="csr") - self.rho * W.weights).tocsc()
                self._lu = splu(a, options=dict(Equil=False))
                sign, logdet = _slogdet_sparse(self._lu)
        else:
            a = np.eye(W.n) - self.rho * W.weights
            self._lu = sla.lu_factor(a, check_finite=False)
            diag = np.diag(self._lu[0])
            sign = 1.0 if np.sum(self._lu[1] != np.arange(W.n)) % 2 == 0 else -1.0
            sign *= np.prod(np.sign(diag))
            logdet = float(np.sum(np.log(np.abs(diag))))
        if sign <= 0.0 or not np.isfinite(logdet):
            raise AdmissibilityError(
                f"I - rho W is not positive for rho={self.rho}: outside the admissible region"
            )
        self.log_det = logdet

    def _sparse_solve(self, b: np.ndarray, trans: str) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if self._perm is None:
            return self._lu.solve(b, trans=trans)
        x = np.empty_like(b)
        x[self._perm] = self._lu.solve(b[self._perm], trans=trans)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.W.is_sparse:
            return self._sparse_solve(b, "N")
        return sla.lu_solve(self._lu, b, check_finite=False)

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        if self.W.is_sparse:
            return self._sparse_solve(b, "T")
        return sla.lu_solve(self._lu, b, trans=1, check_finite=False)


def log_det_filter(W: SpatialWeightMatrix, rho: float) -> float:
    """ln det(I - rho W) via triangular factorization with sign check."""
    if rho == 0.0:
        return 0.0
    return SpatialFilterFactor(W, rho).log_det


def apply_spatial_filter(W: SpatialWeightMatrix, rho: float, b: np.ndarray) -> np.ndarray:
    """Solve (I - rho W) x = b without forming the explicit inverse."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != W.n:
        raise DimensionError(f"right-hand side has {b.shape[0]} rows but W has {W.n}")
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


def _newton_max(slope, a: float, x: float, b: float) -> float:
    """Maximizer near x of a function whose slope and curvature ``slope`` gives.

    The slope's sign at x picks the half of [a, b] that must hold the
    stationary point; if the slope at that half's far end has the same sign
    there is none (x is at the end of the interval) and x is returned.
    Newton steps stay inside the sign-change bracket, and a step that would
    leave it, or a non-negative curvature, is replaced by bisection.
    """
    g, h = slope(x)
    if g > 0.0:
        a, far = x, b
    else:
        b, far = x, a
    if g == 0.0 or far == x or (slope(far)[0] > 0.0) == (g > 0.0):
        return x
    for _ in range(200):
        nxt = x - g / h if h < 0.0 else math.nan
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
        if abs(nxt - x) < 1e-14:
            return nxt
        x = nxt
        g, h = slope(x)
        if g == 0.0:
            return x
        if g > 0.0:
            a = x
        else:
            b = x
    return x


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
    admissible interval.  A coarse scan brackets the global optimum (the
    profile can be multimodal); one refinement inside the scan bracket
    follows: safeguarded Newton with exact derivatives when the spectrum of
    W is known, Brent's parabolic search on the profile otherwise.
    ``Xc`` must have full column rank with a leading column of ones.
    """
    y = np.asarray(y, dtype=float).ravel()
    Xc = np.asarray(Xc, dtype=float)
    if Xc.ndim != 2 or Xc.shape[0] != y.size or y.size != W.n:
        raise DimensionError("y, Xc, and W dimensions are inconsistent")
    n, k = Xc.shape
    if not np.all(Xc[:, 0] == 1.0):
        raise DesignRankError("first column of the design must be all ones")
    if np.linalg.matrix_rank(Xc) < k:
        raise DesignRankError("design matrix is rank deficient")

    q, _ = np.linalg.qr(Xc, mode="reduced")
    ylag = W.matvec(y)
    e0 = y - q @ (q.T @ y)
    e1 = ylag - q @ (q.T @ ylag)
    # SSR(rho) is an exact quadratic
    ss00 = float(e0 @ e0)
    ss01 = float(e0 @ e1)
    ss11 = float(e1 @ e1)

    lo, hi = W.admissible_interval()
    margin = 1e-6 * (hi - lo)
    lo_s, hi_s = lo + margin, hi - margin

    eigs = W.eigenvalues()
    # sparse log-dets by rho, so the final likelihood reuses the chosen point's
    log_dets: dict[float, float] = {}

    def log_det(rho: float) -> float:
        if eigs is not None:
            return float(np.sum(np.log(np.abs(1.0 - rho * eigs))))
        if rho not in log_dets:
            log_dets[rho] = log_det_filter(W, rho)
        return log_dets[rho]

    def concentrated(rho: float) -> float:
        ssr = ss00 - 2.0 * rho * ss01 + rho * rho * ss11
        if ssr <= 0.0:
            return -np.inf
        return log_det(rho) - 0.5 * n * math.log(ssr / n)

    n_scan = 101 if eigs is not None else 21
    scan = np.linspace(lo_s, hi_s, n_scan)
    scan_vals = np.array([concentrated(r) for r in scan])
    best = int(np.argmax(scan_vals))
    near = slice(max(best - 1, 0), best + 2)

    if eigs is not None:
        def slope(rho: float) -> tuple[float, float]:
            ssr = ss00 - 2.0 * rho * ss01 + rho * rho * ss11
            if ssr <= 0.0:
                # an exact fit: the profile is unbounded there
                return 0.0, -1.0
            resid_term = 1.0 - rho * eigs
            grad = float(np.sum((-eigs / resid_term).real)) + n * (ss01 - rho * ss11) / ssr
            hess = (
                -float(np.sum((eigs / resid_term) ** 2).real)
                + n * (-ss11 * ssr + 2.0 * (ss01 - rho * ss11) ** 2) / ssr**2
            )
            return grad, hess

        rho_hat = _newton_max(slope, scan[near][0], scan[best], scan[near][-1])
    else:
        rho_hat = _brent_max(concentrated, scan[near].tolist(), scan_vals[near].tolist(), 1e-10)

    target = y - rho_hat * ylag
    theta_hat, *_ = np.linalg.lstsq(Xc, target, rcond=None)
    resid = target - Xc @ theta_hat
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


def save_weights(W: SpatialWeightMatrix, path) -> None:
    """Write a weight matrix as coordinate-list text."""
    coo = sp.coo_matrix(W.weights)
    header = f"n {W.n} row_normalized {1 if W.row_normalized else 0}"
    write_table(path, header, "%d %d %.17g\n", coo.row, coo.col, coo.data)


def load_weights(path) -> SpatialWeightMatrix:
    """Read a weight matrix written by :func:`save_weights`.

    Duplicate entries, non-finite weights, and an invalid weight matrix raise
    a DataError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        try:
            n, normalized = int(header[1]), bool(int(header[3]))
        except (IndexError, ValueError):
            n = -1
        if n < 0 or len(header) != 4 or header[0] != "n" or header[2] != "row_normalized":
            raise DataError(f"{path}: malformed weight-matrix header")
        triple = "expected 'i j w' triple"
        in_range = (lambda i, j, w: (i >= 0) & (i < n) & (j >= 0) & (j < n), f"index outside [0, {n})")
        ii, jj, vv = read_rows(fh, path, "iif", None, triple, triple, in_range)
    if not np.all(np.isfinite(vv)):
        k = np.argmin(np.isfinite(vv))
        raise DataError(f"{path}: weight at i={ii[k]} j={jj[k]} is not finite")
    mat = sp.csr_matrix((vv, (ii, jj)), shape=(n, n))
    if mat.nnz != vv.size:
        order = np.lexsort((jj, ii))
        i, j = ii[order], jj[order]
        k = np.argmax((i[1:] == i[:-1]) & (j[1:] == j[:-1]))
        raise DataError(f"{path}: duplicate entry i={i[k]} j={j[k]}")
    try:
        return SpatialWeightMatrix(mat if n > DENSE_LIMIT else mat.toarray(), row_normalized=normalized)
    except InvalidSizeError as exc:
        raise DataError(f"{path}: {exc}") from exc
