"""Functional principal component analysis on a fixed observation grid.

The sample covariance operator is discretized with trapezoid quadrature
weights and symmetrized (sqrt-weight on both sides) so that the resulting
eigenfunctions are orthonormal under the same quadrature rule used for
score projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import Grid, trapezoid_weights
from .errors import DataError, DimensionError, InsufficientDataError, InvalidSizeError, NumericOverflowError, check_rules

__all__ = ["FpcaModel", "fit_fpca", "project_scores", "reconstruct"]

# the rule each FPCA setting obeys, by its configuration key
RULES = {"variance_threshold": (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")}
# the share of variance the retained components explain, unless a caller sets it
VARIANCE_THRESHOLD = 0.95


def _refuse_non_finite_curves(curves: np.ndarray, derived: np.ndarray) -> None:
    """Raise a DataError naming the first curve holding a NaN or infinite value.

    ``derived`` is an array already computed from every curve, non-finite
    whenever one of them is, so finite curves are not searched.
    """
    if not np.isfinite(derived).all():
        bad = ~np.isfinite(curves).all(axis=1)
        if bad.any():
            raise DataError(f"curve {int(np.argmax(bad))} contains NaN or infinite values")


@dataclass(frozen=True)
class FpcaModel:
    """Mean curve, eigenpairs, and retained component count for one predictor.

    Eigenvalues are sorted descending with negatives clipped to zero;
    eigenfunctions (rows) are orthonormal under trapezoid quadrature.
    ``k_retained`` is the smallest K whose eigenvalues explain at least
    ``variance_threshold`` of the total variance (at least 1).
    """

    mean_curve: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray = field(repr=False)
    k_retained: int
    variance_threshold: float
    grid: Grid


def fit_fpca(curves: np.ndarray, grid: Grid, variance_threshold: float = VARIANCE_THRESHOLD) -> FpcaModel:
    """Fit FPCA to curves sampled on a shared grid.

    ``curves`` is (n, G) with n >= 2.  The covariance uses divisor n - 1.
    A curve holding a NaN or infinite value raises a DataError naming it,
    and finite curves whose covariance overflows a NumericOverflowError.
    """
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    n, g = curves.shape
    if g != grid.num_points:
        raise DimensionError(f"curves have {g} columns but grid has {grid.num_points} points")
    if n < 2:
        raise InsufficientDataError("FPCA needs at least 2 curves")
    check_rules(InvalidSizeError, RULES, variance_threshold=variance_threshold)

    # opposite infinities in a column, or finite curves too large to square: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        mean_curve = curves.mean(axis=0)
        _refuse_non_finite_curves(curves, mean_curve)
        centered = curves - mean_curve
        cov = (centered.T @ centered) / (n - 1)
    if not np.isfinite(cov).all():
        raise NumericOverflowError("the curves' covariance overflows; rescale the curves")

    w = trapezoid_weights(grid.points)
    sqrt_w = np.sqrt(w)
    sym = sqrt_w[:, None] * cov * sqrt_w[None, :]
    evals, evecs = np.linalg.eigh(sym)

    order = np.argsort(evals)[::-1]
    k_max = min(n - 1, g)
    evals = np.clip(evals[order][:k_max], 0.0, None)
    # back-transform to quadrature-orthonormal eigenfunctions
    funcs = (evecs[:, order][:, :k_max] / sqrt_w[:, None]).T

    # deterministic sign: quadrature integral >= 0; fall back to the largest
    # magnitude entry when the integral vanishes
    integrals = funcs @ w
    signs = np.sign(integrals)
    tiny = np.abs(integrals) < 1e-12
    if np.any(tiny):
        peaks = funcs[tiny, np.argmax(np.abs(funcs[tiny]), axis=1)]
        signs[tiny] = np.where(peaks >= 0, 1.0, -1.0)
    funcs = funcs * signs[:, None]

    total = evals.sum()
    if total <= 0.0:
        k_retained = 1
    else:
        k_retained = int(np.searchsorted(np.cumsum(evals) / total, variance_threshold - 1e-12) + 1)
        k_retained = max(1, min(k_retained, k_max))

    return FpcaModel(
        mean_curve=mean_curve,
        eigenvalues=evals,
        eigenfunctions=funcs,
        k_retained=k_retained,
        variance_threshold=variance_threshold,
        grid=grid,
    )


def project_scores(model: FpcaModel, curves: np.ndarray, grid: Grid) -> np.ndarray:
    """Project curves onto the retained eigenfunctions, returning (n, K) scores.

    A curve holding a NaN or infinite value raises a DataError naming it,
    and finite curves whose covariance overflows a NumericOverflowError.
    """
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    if curves.shape[1] != model.mean_curve.size:
        raise DimensionError("curve width does not match the fitted grid")
    if grid.num_points != model.grid.num_points or not np.allclose(
        grid.points, model.grid.points, atol=1e-12
    ):
        raise DimensionError("projection grid differs from the fitting grid")
    w = trapezoid_weights(grid.points)
    # one (n, G) temporary, weighted in place: curves - mean is a new array
    centered = curves - model.mean_curve
    centered *= w
    scores = centered @ model.eigenfunctions[: model.k_retained].T
    _refuse_non_finite_curves(curves, scores)
    return scores


def reconstruct(model: FpcaModel, scores: np.ndarray) -> np.ndarray:
    """Rebuild curves from scores: mean plus the truncated expansion."""
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    if scores.shape[1] != model.k_retained:
        raise DimensionError(
            f"scores have width {scores.shape[1]} but model retains {model.k_retained}"
        )
    return model.mean_curve + scores @ model.eigenfunctions[: model.k_retained]
