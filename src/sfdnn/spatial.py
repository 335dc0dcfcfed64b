"""Spatial weight matrices, filtering, and likelihood estimation of dependence.

Covers construction of row-normalized weight matrices (inverse-distance and
KNN bi-square), the spatial filter solve (I - rho W)^{-1}, log-determinant
evaluation, profile-likelihood estimation of the dependence parameter, and
local Moran's I diagnostics.

Matrices with at most ``DENSE_LIMIT`` rows are stored dense; larger ones use
CSR storage with sparse triangular factorizations, whose log-determinant
sign comes from the permutation parities, (n - number of cycles) mod 2.
KNN neighbors are searched with a KD-tree on unit-sphere points.  Up to
``_EIG_LIMIT`` rows the likelihood uses the full spectrum of W: real, from
a symmetric eigensolver, when W = D^{-1} S with S symmetric (every
inverse-distance W), and from the general nonsymmetric solver otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import minimize_scalar
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

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
    admissible interval) are cached lazily.
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


def build_inverse_distance_weights(n: int) -> SpatialWeightMatrix:
    """Row-normalized inverse index-distance weights 1 / (1 + |i - i'|).

    Every pair of sites is connected, so the matrix stays dense at any size.
    """
    if n < 2:
        raise InvalidSizeError("need at least 2 sites")
    idx = np.arange(n)
    raw = 1.0 / (1.0 + np.abs(idx[:, None] - idx[None, :]))
    np.fill_diagonal(raw, 0.0)
    raw /= raw.sum(axis=1, keepdims=True)
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
        if self.rho == 0.0:
            self.log_det = 0.0
            return
        if W.is_sparse:
            a = (sp.identity(W.n, format="csr") - self.rho * W.weights).tocsc()
            self._lu = spla.splu(a, options=dict(Equil=False))
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

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.rho == 0.0:
            return b
        if self.W.is_sparse:
            return self._lu.solve(np.asarray(b, dtype=float))
        return sla.lu_solve(self._lu, b, check_finite=False)

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        if self.rho == 0.0:
            return b
        if self.W.is_sparse:
            return self._lu.solve(np.asarray(b, dtype=float), trans="T")
        return sla.lu_solve(self._lu, b, trans=1, check_finite=False)


def log_det_filter(W: SpatialWeightMatrix, rho: float) -> float:
    """ln det(I - rho W) via pivoted triangular factorization with sign check."""
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


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-9):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def estimate_rho_ml(y: np.ndarray, Xc: np.ndarray, W: SpatialWeightMatrix) -> RhoEstimate:
    """Maximize the concentrated log-likelihood of the spatially lagged model.

    For fixed rho the coefficient vector is the least-squares fit of
    (y - rho W y) on ``Xc`` and sigma^2 the residual mean square, leaving a
    one-dimensional search of ln|I - rho W| - (n/2) ln sigma^2(rho) over the
    admissible interval (golden section, then bounded local refinement).
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

    def log_det(rho: float) -> float:
        if eigs is not None:
            return float(np.sum(np.log(np.abs(1.0 - rho * eigs))))
        return log_det_filter(W, rho)

    def concentrated(rho: float) -> float:
        ssr = ss00 - 2.0 * rho * ss01 + rho * rho * ss11
        if ssr <= 0.0:
            return -np.inf
        return log_det(rho) - 0.5 * n * math.log(ssr / n)

    # coarse scan brackets the global optimum (the profile likelihood can be
    # multimodal), golden section narrows it, Newton polishes
    n_scan = 101 if eigs is not None else 21
    scan = np.linspace(lo_s, hi_s, n_scan)
    scan_vals = np.array([concentrated(r) for r in scan])
    best = int(np.argmax(scan_vals))
    b_lo = scan[max(best - 1, 0)]
    b_hi = scan[min(best + 1, n_scan - 1)]
    rho_hat = _golden_section_max(concentrated, b_lo, b_hi, tol=1e-7)

    if eigs is not None:
        for _ in range(60):
            ssr = ss00 - 2.0 * rho_hat * ss01 + rho_hat * rho_hat * ss11
            if ssr <= 0.0:
                break
            resid_term = 1.0 - rho_hat * eigs
            grad = float(np.sum((-eigs / resid_term).real)) + n * (ss01 - rho_hat * ss11) / ssr
            hess = (
                -float(np.sum((eigs / resid_term) ** 2).real)
                + n * (-ss11 * ssr + 2.0 * (ss01 - rho_hat * ss11) ** 2) / ssr**2
            )
            if hess >= 0.0:
                break
            step = grad / hess
            nxt = min(max(rho_hat - step, b_lo), b_hi)
            if abs(nxt - rho_hat) < 1e-14:
                rho_hat = nxt
                break
            rho_hat = nxt
    else:
        res = minimize_scalar(
            lambda r: -concentrated(r),
            bounds=(b_lo, b_hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
        if concentrated(float(res.x)) >= concentrated(rho_hat):
            rho_hat = float(res.x)

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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {W.n} row_normalized {1 if W.row_normalized else 0}\n")
        if W.is_sparse:
            coo = W.weights.tocoo()
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i} {j} {v:.17g}\n")
        else:
            rows, cols = np.nonzero(W.weights)
            for i, j in zip(rows, cols):
                fh.write(f"{i} {j} {W.weights[i, j]:.17g}\n")


def load_weights(path) -> SpatialWeightMatrix:
    """Read a weight matrix written by :func:`save_weights`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "n" or header[2] != "row_normalized":
            raise DataError(f"{path}: malformed weight-matrix header")
        try:
            n = int(header[1])
            normalized = bool(int(header[3]))
        except ValueError as exc:
            raise DataError(f"{path}: malformed weight-matrix header") from exc
        ii, jj, vv = [], [], []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 'i j w' triple")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: expected 'i j w' triple") from exc
            if not (0 <= i < n and 0 <= j < n):
                raise DataError(f"{path}:{lineno}: index outside [0, {n})")
            ii.append(i)
            jj.append(j)
            vv.append(v)
    if n > DENSE_LIMIT:
        mat = sp.csr_matrix((vv, (ii, jj)), shape=(n, n))
        return SpatialWeightMatrix(mat, row_normalized=normalized)
    dense = np.zeros((n, n))
    dense[ii, jj] = vv
    return SpatialWeightMatrix(dense, row_normalized=normalized)
