"""Deterministic generator for the Monte Carlo benchmark's data process.

Three functional covariates are built from a five-term expansion with
score variances 4 j^{-3/2}; three standard-normal scalar covariates carry
coefficients (1.25, -2, 2.15).  The response applies the spatial filter to
the covariate signal plus noise:

    Y = (I - rho W)^{-1} (beta0 + integral(X beta) + Z Gamma + eps)

with W the row-normalized inverse index-distance matrix.  A config switch
reproduces the variant in which the noise itself is filtered a second time
before the outer solve.

Random streams are counter-based (Philox) keyed by (replication_seed, role)
with role 0 = train, 1 = test, so train and test are independent and
replications can run in any order.  Per role the draw order is: per
predictor the expansion scores, then the scalar covariates, then the noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Grid, trapezoid_weights
from .errors import FINITE, INTEGER, InvalidSizeError, at_least, broken_rules, one_of
from .pipeline import RegressionDataset
from .spatial import apply_spatial_filter, build_inverse_distance_weights

__all__ = [
    "ERROR_DISTS",
    "BENCHMARK_RHOS",
    "BENCHMARK_TRAIN_SIZES",
    "ScenarioConfig",
    "TrueModel",
    "kl_score_variances",
    "kl_basis_matrix",
    "true_coefficient_curves",
    "generate_scenario_dataset",
]

ERROR_DISTS = ("gaussian", "t3", "exp1", "none")
BENCHMARK_RHOS = (0.1, 0.5, 0.9)
BENCHMARK_TRAIN_SIZES = (100, 250, 500)
_NUM_KL_TERMS = 5
_GAMMA = (1.25, -2.0, 2.15)

_ROLE_TRAIN = 0
_ROLE_TEST = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """One cell of the simulation grid.

    The benchmark uses n_train in {100, 250, 500}, n_test = 1000,
    rho in {0.1, 0.5, 0.9}, and 101 grid points; other values are allowed
    for exploration and flagged by :meth:`is_benchmark_cell`.
    ``double_filter_errors`` switches to the variant that filters the noise
    twice.  ``error_dist`` 'none' produces a noiseless response.
    """

    n_train: int = 500
    n_test: int = 1000
    rho: float = 0.5
    error_dist: str = "gaussian"
    replication_seed: int = 0
    num_grid_points: int = 101
    beta0: float = 0.0
    double_filter_errors: bool = False

    RULES = {
        "n_train": [INTEGER, at_least(2)],
        "n_test": [INTEGER, at_least(2)],
        "rho": (lambda v: -1.0 < v < 1.0, "{} outside the admissible range (-1, 1)"),
        "error_dist": one_of(ERROR_DISTS),
        "replication_seed": INTEGER,
        "num_grid_points": [INTEGER, at_least(2)],
        "beta0": FINITE,
    }

    def __post_init__(self):
        for name, phrase in broken_rules(self.RULES, vars(self)):
            raise InvalidSizeError(f"{name} {phrase}")

    def is_benchmark_cell(self) -> bool:
        return (
            self.n_train in BENCHMARK_TRAIN_SIZES
            and self.n_test == 1000
            and self.rho in BENCHMARK_RHOS
            and self.error_dist in ("gaussian", "t3", "exp1")
            and self.num_grid_points == 101
            and self.beta0 == 0.0
            and not self.double_filter_errors
        )


@dataclass(frozen=True)
class TrueModel:
    """The generating coefficients: intercept, coefficient curves, scalars."""

    beta0: float
    beta_curves: np.ndarray
    gamma: np.ndarray


def kl_score_variances() -> np.ndarray:
    """Variances 4 j^{-3/2} of the five expansion scores."""
    j = np.arange(1, _NUM_KL_TERMS + 1)
    return 4.0 * j ** (-1.5)


def kl_basis_matrix(grid: Grid) -> np.ndarray:
    """The five expansion functions sin(j pi u) - cos(j pi u), shaped (5, G)."""
    j = np.arange(1, _NUM_KL_TERMS + 1)[:, None]
    return np.sin(j * np.pi * grid.points) - np.cos(j * np.pi * grid.points)


def true_coefficient_curves(grid: Grid) -> np.ndarray:
    """sin(2 pi u), cos(2 pi u), 2 sin(2 pi u) sampled on the grid, (3, G)."""
    u = grid.points
    return np.array([np.sin(2 * np.pi * u), np.cos(2 * np.pi * u), 2 * np.sin(2 * np.pi * u)])


def _draw_errors(rng, dist: str, n: int) -> np.ndarray:
    if dist == "gaussian":
        return rng.standard_normal(n)
    if dist == "t3":
        return rng.standard_t(3, size=n)
    if dist == "exp1":
        return rng.exponential(1.0, size=n)
    return np.zeros(n)


def _stream(replication_seed: int, role: int) -> np.random.Generator:
    """Philox stream keyed by (replication, role); role 0 train, 1 test.

    The seed is reduced modulo 2^64 as a Python int, so a negative or numpy
    integer seed keys the same stream as the int of its value.
    """
    key = np.array(
        [np.uint64(int(replication_seed) & (2**64 - 1)), np.uint64(role)], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_role(cfg: ScenarioConfig, role: int, n: int, grid: Grid) -> RegressionDataset:
    rng = _stream(cfg.replication_seed, role)
    expansion = kl_basis_matrix(grid)
    betas = true_coefficient_curves(grid)
    w_quad = trapezoid_weights(grid.points)
    sd = np.sqrt(kl_score_variances())

    signal = np.full(n, float(cfg.beta0))
    curves = []
    for p in range(3):
        scores = rng.standard_normal((n, _NUM_KL_TERMS)) * sd
        x = scores @ expansion
        curves.append(x)
        signal += (x * w_quad) @ betas[p]
    scalars = rng.standard_normal((n, 3))
    signal += scalars @ np.asarray(_GAMMA)
    errors = _draw_errors(rng, cfg.error_dist, n)

    weights = build_inverse_distance_weights(n)
    if cfg.double_filter_errors:
        noise = apply_spatial_filter(weights, cfg.rho, errors)
    else:
        noise = errors
    response = apply_spatial_filter(weights, cfg.rho, signal + noise)
    return RegressionDataset(
        functional=curves,
        grid=grid,
        scalars=scalars,
        response=response,
        weights=weights,
    )


def generate_scenario_dataset(cfg: ScenarioConfig):
    """Build (train, test, truth) for one scenario, bit-reproducibly."""
    grid = Grid.uniform(cfg.num_grid_points)
    train = _simulate_role(cfg, _ROLE_TRAIN, cfg.n_train, grid)
    test = _simulate_role(cfg, _ROLE_TEST, cfg.n_test, grid)
    truth = TrueModel(
        beta0=cfg.beta0,
        beta_curves=true_coefficient_curves(grid),
        gamma=np.asarray(_GAMMA),
    )
    return train, test, truth
