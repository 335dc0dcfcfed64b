"""B-spline bases on [0, 1]: construction, evaluation, and curve inner products.

The basis is clamped (open knot vector) with equally spaced interior knots.
Inner products against observed curves use composite-trapezoid quadrature on
the observation grid, which is exact for the piecewise-linear interpolant of
the discrete curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidArchitectureError, InvalidSizeError, at_least, broken_rules

__all__ = [
    "Grid",
    "BSplineBasis",
    "make_bspline_basis",
    "evaluate_basis",
    "functional_inner_products",
    "trapezoid_weights",
]

# the rule each basis setting obeys, by its configuration key
RULES = {"basis_degree": at_least(1)}


def basis_size_rule(degree: int):
    """The rule a basis size obeys for splines of ``degree``."""
    return (lambda m: m >= degree + 1, "must be at least basis_degree + 1")


@dataclass(frozen=True)
class Grid:
    """Strictly ascending evaluation points spanning exactly [0, 1]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).ravel()
        object.__setattr__(self, "points", pts)
        if pts.size < 2:
            raise InvalidSizeError("grid needs at least 2 points")
        if np.any(np.diff(pts) <= 0):
            raise InvalidSizeError("grid points must be strictly ascending")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise InvalidSizeError("grid endpoints must be exactly 0 and 1")

    @property
    def num_points(self) -> int:
        return self.points.size

    @classmethod
    def uniform(cls, num_points: int) -> "Grid":
        return cls(np.linspace(0.0, 1.0, num_points))


@dataclass(frozen=True)
class BSplineBasis:
    """Clamped B-spline basis of a given degree on [0, 1].

    ``knots`` is the full knot vector, with the boundary knots repeated
    ``degree + 1`` times, so that ``len(knots) == num_basis + degree + 1``.
    """

    degree: int
    knots: np.ndarray = field(repr=False)
    num_basis: int

    def __post_init__(self):
        object.__setattr__(self, "knots", np.asarray(self.knots, dtype=float))
        if self.knots.size != self.num_basis + self.degree + 1:
            raise InvalidArchitectureError("knot vector length inconsistent with basis size")

    @property
    def interior_knots(self) -> np.ndarray:
        return self.knots[self.degree + 1 : self.num_basis]


def make_bspline_basis(degree: int, num_basis: int) -> BSplineBasis:
    """Build a clamped basis with equally spaced interior knots.

    ``num_basis`` must be at least ``degree + 1``; the number of interior
    knots is ``num_basis - degree - 1``.
    """
    rules = {**RULES, "basis_size": basis_size_rule(degree)}
    for name, phrase in broken_rules(rules, {"basis_degree": degree, "basis_size": num_basis}):
        raise InvalidArchitectureError(f"{name} {phrase}")
    n_interior = num_basis - degree - 1
    interior = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    knots = np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
    return BSplineBasis(degree=degree, knots=knots, num_basis=num_basis)


def evaluate_basis(basis: BSplineBasis, grid: Grid) -> np.ndarray:
    """Evaluate all basis functions on a grid, returning an (M, G) matrix.

    Uses the Cox-de Boor recurrence, carried out level by level over the
    whole grid at once.  The final knot span is treated as closed so the
    partition of unity also holds at u = 1.
    """
    u = grid.points
    t = basis.knots
    d = basis.degree
    m = basis.num_basis
    n_spans = t.size - 1

    # Degree 0: indicator of [t_i, t_{i+1}), closing the last nonempty span.
    b = np.zeros((n_spans, u.size))
    for i in range(n_spans):
        if t[i + 1] > t[i]:
            b[i] = (u >= t[i]) & (u < t[i + 1])
    last = np.flatnonzero(np.diff(t) > 0)[-1]
    b[last][u == t[-1]] = 1.0

    for k in range(1, d + 1):
        nxt = np.zeros((n_spans - k, u.size))
        for i in range(n_spans - k):
            denom_l = t[i + k] - t[i]
            denom_r = t[i + k + 1] - t[i + 1]
            if denom_l > 0:
                nxt[i] += (u - t[i]) / denom_l * b[i]
            if denom_r > 0:
                nxt[i] += (t[i + k + 1] - u) / denom_r * b[i + 1]
        b = nxt

    assert b.shape[0] == m
    return b


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Composite-trapezoid quadrature weights for an ascending point set."""
    pts = np.asarray(points, dtype=float)
    w = np.zeros_like(pts)
    d = np.diff(pts)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def functional_inner_products(
    basis: BSplineBasis, curves: np.ndarray, grid: Grid
) -> np.ndarray:
    """Quadrature inner products of each curve with each basis function.

    ``curves`` is (n, G) sampled on ``grid``; the result is (n, M) with
    entry (i, m) approximating the integral of curve i times basis m.
    """
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    if curves.shape[1] != grid.num_points:
        raise DimensionError(
            f"curves have {curves.shape[1]} columns but grid has {grid.num_points} points"
        )
    w = trapezoid_weights(grid.points)
    design = evaluate_basis(basis, grid)  # (M, G)
    return (curves * w) @ design.T
