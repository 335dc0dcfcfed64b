"""End-to-end estimators: ML-linear, plain network, and the two-stage variant.

All three share the same dataset container.  The ML baseline regresses the
response on FPCA scores and scalar covariates inside the spatially lagged
likelihood; the network estimators project curves onto spline bases and
train the functional network, the two-stage variant first estimating the
dependence parameter by maximum likelihood and then holding it fixed while
the network trains on spatially filtered pre-activations.  With the estimate
fixed the filter is a constant linear map ahead of the first bias, so it is
applied once to the network inputs before training.

Network features, scalar covariates, and the response are standardized with
training-set statistics; predictions are mapped back to the original scale.
Test-time filtering uses the test set's own weight matrix with the training
dependence estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import Grid, functional_inner_products, make_bspline_basis
from .errors import DataError, DimensionError, MissingWeightsError, SfdnnError
from .fdnn import (
    NetworkArchitecture,
    NetworkParameters,
    SpatialContext,
    TrainConfig,
    TrainingTrace,
    dump_parameters,
    parameters_from_lines,
    predict,
    train,
)
from .fpca import FpcaModel, fit_fpca, project_scores
from .spatial import SpatialWeightMatrix, apply_spatial_filter, estimate_rho_ml

__all__ = [
    "KINDS",
    "RegressionDataset",
    "Standardization",
    "FittedModel",
    "fit_ml_baseline",
    "fit_fdnn_model",
    "fit_sfdnn",
    "predict_model",
    "save_model",
    "load_model",
]

KINDS = ("ml", "fdnn", "sfdnn")


@dataclass
class RegressionDataset:
    """Curves, scalar covariates, and response for one set of sites."""

    functional: list
    grid: Grid
    scalars: np.ndarray
    response: np.ndarray
    weights: SpatialWeightMatrix | None = None

    def __post_init__(self):
        self.functional = [np.atleast_2d(np.asarray(c, dtype=float)) for c in self.functional]
        self.scalars = np.asarray(self.scalars, dtype=float)
        if self.scalars.ndim == 1:
            self.scalars = self.scalars[:, None]
        self.response = np.asarray(self.response, dtype=float).ravel()
        n = self.response.size
        for i, c in enumerate(self.functional):
            if c.shape != (n, self.grid.num_points):
                raise DimensionError(
                    f"functional predictor {i} has shape {c.shape}, "
                    f"expected ({n}, {self.grid.num_points})"
                )
        if self.scalars.shape[0] != n:
            raise DimensionError("scalar covariate rows do not match the response")
        if self.weights is not None and self.weights.n != n:
            raise DimensionError("weight matrix size does not match the response")
        inputs = [("response", self.response), ("scalar covariates", self.scalars)]
        inputs += [(f"functional predictor {i}", c) for i, c in enumerate(self.functional)]
        for name, values in inputs:
            if not np.all(np.isfinite(values)):
                raise DataError(f"{name} contains NaN or infinite values")

    @property
    def n(self) -> int:
        return self.response.size

    @property
    def num_functional(self) -> int:
        return len(self.functional)

    @property
    def num_scalar(self) -> int:
        return self.scalars.shape[1]

    def subset(self, rows) -> "RegressionDataset":
        rows = np.asarray(rows, dtype=int)
        return RegressionDataset(
            functional=[c[rows] for c in self.functional],
            grid=self.grid,
            scalars=self.scalars[rows],
            response=self.response[rows],
            weights=self.weights.subset(rows) if self.weights is not None else None,
        )


@dataclass
class Standardization:
    """Training-set location/scale for features, scalars, and response."""

    feature_mean: np.ndarray
    feature_sd: np.ndarray
    scalar_mean: np.ndarray
    scalar_sd: np.ndarray
    y_mean: float
    y_sd: float

    @classmethod
    def fit(cls, features, scalars, y) -> "Standardization":
        def guard(sd):
            return np.where(sd < 1e-12, 1.0, sd)

        return cls(
            feature_mean=features.mean(axis=0),
            feature_sd=guard(features.std(axis=0)),
            scalar_mean=scalars.mean(axis=0) if scalars.size else np.zeros(scalars.shape[1]),
            scalar_sd=guard(scalars.std(axis=0)) if scalars.size else np.ones(scalars.shape[1]),
            y_mean=float(y.mean()),
            y_sd=float(max(y.std(), 1e-12)),
        )

    def apply(self, features, scalars, y=None):
        f = (features - self.feature_mean) / self.feature_sd
        s = (scalars - self.scalar_mean) / self.scalar_sd
        if y is None:
            return f, s
        return f, s, (y - self.y_mean) / self.y_sd

    def invert_y(self, y_std):
        return self.y_mean + self.y_sd * np.asarray(y_std)


@dataclass
class FittedModel:
    """A fitted estimator of any kind, ready for prediction or serialization."""

    kind: str
    grid: Grid
    train_metrics: dict
    rho_hat: float | None = None
    at_boundary: bool = False
    variance_threshold: float | None = None
    fpca_models: list | None = None
    theta: np.ndarray | None = None
    bases: list | None = None
    parameters: NetworkParameters | None = None
    standardization: Standardization | None = None
    trace: TrainingTrace | None = None
    metadata: dict = field(default_factory=dict)


def _train_metrics(y, fitted) -> dict:
    resid = y - fitted
    sst = float(np.sum((y - y.mean()) ** 2))
    mse = float(np.mean(resid**2))
    r2 = 1.0 - float(resid @ resid) / sst if sst > 0 else float("nan")
    return {"mse": mse, "r2": r2}


def _fpca_design(data: RegressionDataset, variance_threshold: float):
    models = [fit_fpca(c, data.grid, variance_threshold) for c in data.functional]
    scores = [project_scores(m, c, data.grid) for m, c in zip(models, data.functional)]
    design = np.column_stack([np.ones(data.n)] + scores + [data.scalars])
    return models, design


def fit_ml_baseline(data: RegressionDataset, variance_threshold: float = 0.95) -> FittedModel:
    """Maximum-likelihood linear fit on FPCA scores with a spatial lag."""
    if data.weights is None:
        raise MissingWeightsError("the ML baseline needs a spatial weight matrix")
    models, design = _fpca_design(data, variance_threshold)
    est = estimate_rho_ml(data.response, design, data.weights)
    fitted = apply_spatial_filter(data.weights, est.rho_hat, design @ est.theta_hat)
    return FittedModel(
        kind="ml",
        grid=data.grid,
        train_metrics=_train_metrics(data.response, fitted),
        rho_hat=est.rho_hat,
        at_boundary=est.at_boundary,
        variance_threshold=variance_threshold,
        fpca_models=models,
        theta=est.theta_hat,
    )


def _spline_features(functional, grid, bases) -> np.ndarray:
    blocks = [functional_inner_products(b, c, grid) for b, c in zip(bases, functional)]
    return np.hstack(blocks)


def _fit_network(data, arch, config, basis_degree, ctx, extra) -> FittedModel:
    if arch.num_functional != data.num_functional:
        raise DimensionError(
            f"architecture expects {arch.num_functional} functional predictors, "
            f"data has {data.num_functional}"
        )
    if arch.num_scalar != data.num_scalar:
        raise DimensionError(
            f"architecture expects {arch.num_scalar} scalar predictors, data has {data.num_scalar}"
        )
    bases = [make_bspline_basis(basis_degree, m) for m in arch.basis_sizes]
    features = _spline_features(data.functional, data.grid, bases)
    standardization = Standardization.fit(features, data.scalars, data.response)
    f_std, s_std, y_std = standardization.apply(features, data.scalars, data.response)
    params, trace = train(arch, config, f_std, s_std, y_std, ctx)
    fitted = standardization.invert_y(predict(params, f_std, s_std, ctx))
    return FittedModel(
        grid=data.grid,
        train_metrics=_train_metrics(data.response, fitted),
        bases=bases,
        parameters=params,
        standardization=standardization,
        trace=trace,
        **extra,
    )


def fit_fdnn_model(
    data: RegressionDataset,
    arch: NetworkArchitecture,
    config: TrainConfig,
    basis_degree: int = 3,
) -> FittedModel:
    """Plain functional network: no spatial filtering anywhere."""
    return _fit_network(data, arch, config, basis_degree, ctx=None, extra={"kind": "fdnn"})


def fit_sfdnn(
    data: RegressionDataset,
    arch: NetworkArchitecture,
    config: TrainConfig,
    basis_degree: int = 3,
    variance_threshold: float = 0.95,
    rho_override: float | None = None,
) -> FittedModel:
    """Two-stage fit: dependence by maximum likelihood, then the network.

    The first-stage estimate is held fixed while the network trains;
    ``rho_override`` substitutes a caller-chosen value for stage one.
    """
    if data.weights is None:
        raise MissingWeightsError("the two-stage estimator needs a spatial weight matrix")
    if rho_override is None:
        _, design = _fpca_design(data, variance_threshold)
        est = estimate_rho_ml(data.response, design, data.weights)
        rho_hat, at_boundary = est.rho_hat, est.at_boundary
    else:
        rho_hat, at_boundary = float(rho_override), False
    ctx = SpatialContext(data.weights, rho_hat)
    return _fit_network(
        data,
        arch,
        config,
        basis_degree,
        ctx=ctx,
        extra={
            "kind": "sfdnn",
            "rho_hat": rho_hat,
            "at_boundary": at_boundary,
            "variance_threshold": variance_threshold,
        },
    )


def predict_model(model: FittedModel, newdata: RegressionDataset) -> np.ndarray:
    """Predict new sites with a fitted model.

    Spatial kinds filter with the new data's own weight matrix and the
    stored training dependence estimate; the plain network ignores weights.
    """
    if model.kind not in KINDS:
        raise DataError(f"unknown model kind '{model.kind}'")
    if not np.array_equal(newdata.grid.points, model.grid.points):
        raise DimensionError("prediction grid differs from the training grid")
    if model.kind == "ml":
        num_functional = len(model.fpca_models)
        num_scalar = model.theta.size - 1 - sum(m.k_retained for m in model.fpca_models)
    else:
        num_functional = model.parameters.arch.num_functional
        num_scalar = model.parameters.arch.num_scalar
    for what, expected, actual in (
        ("functional predictors", num_functional, newdata.num_functional),
        ("scalar covariates", num_scalar, newdata.num_scalar),
    ):
        if actual != expected:
            raise DimensionError(f"the model expects {expected} {what}, the data has {actual}")
    if model.kind == "ml":
        if newdata.weights is None:
            raise MissingWeightsError("ML predictions need the test set's weight matrix")
        scores = [
            project_scores(m, c, newdata.grid)
            for m, c in zip(model.fpca_models, newdata.functional)
        ]
        design = np.column_stack([np.ones(newdata.n)] + scores + [newdata.scalars])
        return apply_spatial_filter(newdata.weights, model.rho_hat, design @ model.theta)

    features = _spline_features(newdata.functional, newdata.grid, model.bases)
    f_std, s_std = model.standardization.apply(features, newdata.scalars)
    ctx = None
    if model.kind == "sfdnn":
        if newdata.weights is None:
            raise MissingWeightsError("two-stage predictions need the test set's weight matrix")
        ctx = SpatialContext(newdata.weights, model.rho_hat)
    return model.standardization.invert_y(predict(model.parameters, f_std, s_std, ctx))


_MODEL_TAG = "SFDNN-MODEL 1"


def _fmt(value) -> str:
    return "none" if value is None else f"{value:.17g}"


def _vals(arr) -> str:
    return " ".join(f"{v:.17g}" for v in np.ravel(arr))


def save_model(model: FittedModel, path) -> None:
    """Serialize a fitted model as versioned text (17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MODEL_TAG + "\n")
        fh.write(f"kind {model.kind}\n")
        fh.write(f"rho_hat {_fmt(model.rho_hat)}\n")
        fh.write(f"at_boundary {1 if model.at_boundary else 0}\n")
        fh.write(f"variance_threshold {_fmt(model.variance_threshold)}\n")
        fh.write(f"train_metrics {model.train_metrics['mse']:.17g} {model.train_metrics['r2']:.17g}\n")
        for key in sorted(model.metadata):
            fh.write(f"meta {key} {model.metadata[key]}\n")
        fh.write(f"grid {model.grid.num_points} {_vals(model.grid.points)}\n")
        if model.kind == "ml":
            fh.write(f"theta {model.theta.size} {_vals(model.theta)}\n")
            fh.write(f"fpca_count {len(model.fpca_models)}\n")
            for m in model.fpca_models:
                k = m.k_retained
                fh.write(f"fpca {k} {m.variance_threshold:.17g}\n")
                fh.write(f"mean {_vals(m.mean_curve)}\n")
                fh.write(f"eigenvalues {_vals(m.eigenvalues[:k])}\n")
                for row in m.eigenfunctions[:k]:
                    fh.write(f"eigenfunction {_vals(row)}\n")
        else:
            s = model.standardization
            fh.write(f"feature_mean {_vals(s.feature_mean)}\n")
            fh.write(f"feature_sd {_vals(s.feature_sd)}\n")
            fh.write(f"scalar_mean {_vals(s.scalar_mean)}\n")
            fh.write(f"scalar_sd {_vals(s.scalar_sd)}\n")
            fh.write(f"response_scale {s.y_mean:.17g} {s.y_sd:.17g}\n")
            fh.write(f"basis_count {len(model.bases)}\n")
            for b in model.bases:
                fh.write(f"basis {b.degree} {b.num_basis}\n")
            fh.write("parameters\n")
            dump_parameters(fh, model.parameters)


def load_model(path) -> FittedModel:
    """Read a model written by :func:`save_model`; a garbled file raises DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _MODEL_TAG:
        raise DataError(f"{path}: not a recognized model file")
    try:
        return _model_from_lines(lines, path)
    except DataError:
        raise
    except (SfdnnError, IndexError, KeyError, ValueError) as exc:
        raise DataError(f"{path}: truncated or malformed model file ({exc!r})") from exc


def _model_from_lines(lines, path) -> FittedModel:
    pos = 1

    def take(key, size=None, counted=False):
        """Values on the next line, which must start with ``key``.

        ``size`` pins the value count; a ``counted`` line states it first.
        """
        nonlocal pos
        if pos >= len(lines):
            raise DataError(f"{path}: truncated model file, expected a '{key}' line")
        parts = lines[pos].split()
        pos += 1
        if parts[:1] != [key]:
            raise DataError(f"{path}:{pos}: expected a '{key}' line")
        values = parts[1:]
        if counted:
            size, values = int(values[0]), values[1:]
        if size is not None and len(values) != size:
            raise DataError(f"{path}:{pos}: '{key}' holds {len(values)} values, expected {size}")
        return values

    def floats(values):
        return np.array([float(v) for v in values])

    def parse_opt(token):
        return None if token == "none" else float(token)

    (kind,) = take("kind", 1)
    if kind not in KINDS:
        raise DataError(f"{path}:{pos}: unknown model kind '{kind}'")
    (rho_hat,) = take("rho_hat", 1)
    (at_boundary,) = take("at_boundary", 1)
    (variance_threshold,) = take("variance_threshold", 1)
    mse, r2 = take("train_metrics", 2)
    common = dict(
        kind=kind,
        train_metrics={"mse": float(mse), "r2": float(r2)},
        rho_hat=parse_opt(rho_hat),
        at_boundary=bool(int(at_boundary)),
        variance_threshold=parse_opt(variance_threshold),
        metadata={},
    )
    while pos < len(lines) and lines[pos].startswith("meta "):
        _, key, value = lines[pos].split(" ", 2)
        common["metadata"][key] = value
        pos += 1
    grid = Grid(floats(take("grid", counted=True)))
    g = grid.num_points

    if kind == "ml":
        theta = floats(take("theta", counted=True))
        (count,) = take("fpca_count", 1)
        models = []
        for _ in range(int(count)):
            k, thr = take("fpca", 2)
            k = int(k)
            mean = floats(take("mean", g))
            evals = floats(take("eigenvalues", k))
            funcs = np.array([floats(take("eigenfunction", g)) for _ in range(k)])
            models.append(
                FpcaModel(
                    mean_curve=mean,
                    eigenvalues=evals,
                    eigenfunctions=funcs,
                    k_retained=k,
                    variance_threshold=float(thr),
                    grid=grid,
                )
            )
        return FittedModel(grid=grid, fpca_models=models, theta=theta, **common)

    feature_mean = floats(take("feature_mean"))
    feature_sd = floats(take("feature_sd"))
    scalar_mean = floats(take("scalar_mean"))
    scalar_sd = floats(take("scalar_sd"))
    y_mean, y_sd = take("response_scale", 2)
    (count,) = take("basis_count", 1)
    bases = [make_bspline_basis(*(int(v) for v in take("basis", 2))) for _ in range(int(count))]
    take("parameters", 0)
    params = parameters_from_lines(lines[pos:])
    arch = params.arch
    widths = (feature_mean.size, feature_sd.size, scalar_mean.size, scalar_sd.size)
    bases_match = tuple(b.num_basis for b in bases) == arch.basis_sizes
    if not bases_match or widths != (arch.feature_width,) * 2 + (arch.num_scalar,) * 2:
        raise DataError(f"{path}: standardization or bases do not match the parameter block")
    standardization = Standardization(
        feature_mean=feature_mean,
        feature_sd=feature_sd,
        scalar_mean=scalar_mean,
        scalar_sd=scalar_sd,
        y_mean=float(y_mean),
        y_sd=float(y_sd),
    )
    return FittedModel(
        grid=grid, bases=bases, parameters=params, standardization=standardization, **common
    )
