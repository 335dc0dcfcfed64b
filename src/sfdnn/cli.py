"""Command-line interface: simulation, fitting, prediction, and diagnostics.

Configuration is a flat ``key = value`` text file ('#' starts a comment).
Every subcommand honors ``--out-dir`` and writes nothing outside it.  On
failure a machine-readable JSON object {code, message, context} goes to
stderr and the exit status encodes the failure class: 2 configuration,
3 data (an unreadable or unwritable file included), 4 numerical (a stray
``numpy.linalg.LinAlgError`` included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import evaluation, pipeline, simgen, spatial
from .basis import Grid
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    FoldSizeError,
    InsufficientDataError,
    InvalidArchitectureError,
    InvalidSizeError,
    MissingWeightsError,
    SfdnnError,
)
from .fdnn import ACTIVATIONS, NetworkArchitecture, TrainConfig

__all__ = ["RunConfig", "parse_config", "serialize_config", "run", "main"]

SUBCOMMANDS = (
    "simulate", "fit", "predict", "tune", "weights", "moran", "mc-bench", "plotdata",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with defaults for every field."""

    seed: int = 0
    out_dir: str = "."
    kind: str = "sfdnn"
    jobs: int = 1
    log_transform: str = "none"
    # scenario
    n_train: int = 500
    n_test: int = 1000
    rho: float = 0.5
    error_dist: str = "gaussian"
    grid_points: int = 101
    beta0: float = 0.0
    double_filter_errors: bool = False
    replication_seed: int = 0
    # architecture
    hidden_sizes: tuple = (32, 16)
    activations: tuple = ("relu",)
    basis_size: int = 7
    basis_degree: int = 3
    # training
    learning_rate: float = 0.01
    batch_size: int = 64
    max_epochs: int = 200
    early_stop_threshold: float = 0.0
    weight_decay: float = 0.0
    validation_fraction: float = 0.0
    variance_threshold: float = 0.95
    # spatial
    neighbor_count: int = 4
    n_sites: int = 0
    # tuning grid
    tune_hidden_sizes: tuple = ((32, 16),)
    tune_activations: tuple = ("relu",)
    tune_learning_rates: tuple = (0.01,)
    tune_batch_sizes: tuple = (32,)
    tune_basis_sizes: tuple = (7,)
    tune_weight_decays: tuple = (0.0,)
    tune_max_epochs: tuple = (200,)
    tune_neighbor_counts: tuple = (None,)
    tune_folds: int = 5
    # benchmark
    mc_n_trains: tuple = (500,)
    mc_rhos: tuple = (0.1, 0.5, 0.9)
    mc_error_dists: tuple = ("gaussian",)
    mc_replications: int = 25
    # file paths (unset when empty)
    train_functional: str = ""
    train_scalars: str = ""
    train_weights: str = ""
    test_functional: str = ""
    test_scalars: str = ""
    test_weights: str = ""
    coords_file: str = ""
    model_file: str = ""


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got '{text}'")


def _parse_int_tuple(text):
    return tuple(int(v.strip()) for v in text.split(",") if v.strip())


def _parse_float_tuple(text):
    return tuple(float(v.strip()) for v in text.split(",") if v.strip())


def _parse_str_tuple(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _parse_hidden_groups(text):
    groups = []
    for group in text.split("|"):
        sizes = _parse_int_tuple(group)
        if sizes:
            groups.append(sizes)
    return tuple(groups)


def _parse_opt_int_tuple(text):
    out = []
    for v in text.split(","):
        v = v.strip()
        if not v:
            continue
        out.append(None if v.lower() == "none" else int(v))
    return tuple(out)


_PARSERS = {
    "seed": int,
    "out_dir": str,
    "kind": str,
    "jobs": int,
    "log_transform": str,
    "n_train": int,
    "n_test": int,
    "rho": float,
    "error_dist": str,
    "grid_points": int,
    "beta0": float,
    "double_filter_errors": _parse_bool,
    "replication_seed": int,
    "hidden_sizes": _parse_int_tuple,
    "activations": _parse_str_tuple,
    "basis_size": int,
    "basis_degree": int,
    "learning_rate": float,
    "batch_size": int,
    "max_epochs": int,
    "early_stop_threshold": float,
    "weight_decay": float,
    "validation_fraction": float,
    "variance_threshold": float,
    "neighbor_count": int,
    "n_sites": int,
    "tune_hidden_sizes": _parse_hidden_groups,
    "tune_activations": _parse_str_tuple,
    "tune_learning_rates": _parse_float_tuple,
    "tune_batch_sizes": _parse_int_tuple,
    "tune_basis_sizes": _parse_int_tuple,
    "tune_weight_decays": _parse_float_tuple,
    "tune_max_epochs": _parse_int_tuple,
    "tune_neighbor_counts": _parse_opt_int_tuple,
    "tune_folds": int,
    "mc_n_trains": _parse_int_tuple,
    "mc_rhos": _parse_float_tuple,
    "mc_error_dists": _parse_str_tuple,
    "mc_replications": int,
    "train_functional": str,
    "train_scalars": str,
    "train_weights": str,
    "test_functional": str,
    "test_scalars": str,
    "test_weights": str,
    "coords_file": str,
    "model_file": str,
}


def _validate(config: RunConfig) -> list:
    problems = []
    if config.kind not in pipeline.KINDS:
        problems.append(f"key 'kind': must be one of {'/'.join(pipeline.KINDS)}")
    if config.log_transform not in ("none", "response", "all"):
        problems.append("key 'log_transform': must be none, response, or all")
    if not -1.0 < config.rho < 1.0:
        problems.append(f"key 'rho': {config.rho} outside the admissible range (-1, 1)")
    for name in ("mc_rhos",):
        for v in getattr(config, name):
            if not -1.0 < v < 1.0:
                problems.append(f"key '{name}': {v} outside the admissible range (-1, 1)")
    if config.error_dist not in simgen.ERROR_DISTS:
        problems.append(f"key 'error_dist': must be one of {'/'.join(simgen.ERROR_DISTS)}")
    for v in config.mc_error_dists:
        if v not in simgen.ERROR_DISTS:
            problems.append(f"key 'mc_error_dists': unknown distribution '{v}'")
    for name, minimum in (
        ("jobs", 1), ("n_train", 2), ("n_test", 2), ("grid_points", 2),
        ("basis_size", 1), ("basis_degree", 1), ("batch_size", 1),
        ("max_epochs", 1), ("neighbor_count", 1), ("tune_folds", 2),
        ("mc_replications", 1),
    ):
        if getattr(config, name) < minimum:
            problems.append(f"key '{name}': must be at least {minimum}")
    if config.learning_rate <= 0:
        problems.append("key 'learning_rate': must be positive")
    for name in ("early_stop_threshold", "weight_decay"):
        if getattr(config, name) < 0:
            problems.append(f"key '{name}': must be nonnegative")
    if not 0.0 <= config.validation_fraction <= 0.5:
        problems.append("key 'validation_fraction': must be in [0, 0.5]")
    if not 0.0 < config.variance_threshold <= 1.0:
        problems.append("key 'variance_threshold': must be in (0, 1]")
    for tag in config.activations + config.tune_activations:
        if tag not in ACTIVATIONS:
            problems.append(f"key 'activations': unknown activation '{tag}'")
    if any(h < 1 for group in config.tune_hidden_sizes for h in group):
        problems.append("key 'tune_hidden_sizes': sizes must be >= 1")
    if any(h < 1 for h in config.hidden_sizes):
        problems.append("key 'hidden_sizes': sizes must be >= 1")
    if config.basis_size < config.basis_degree + 1:
        problems.append("key 'basis_size': must be at least basis_degree + 1")
    return problems


def parse_config(path) -> RunConfig:
    """Parse and validate a key = value configuration file.

    Every problem is reported, each with its line number; an empty file
    yields the all-defaults configuration.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError([f"cannot read config file: {exc}"]) from exc

    values = {}
    problems = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            problems.append(f"line {lineno}: unknown key '{key}'")
            continue
        if key in values:
            problems.append(f"line {lineno}: duplicate key '{key}'")
            continue
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            problems.append(f"line {lineno}: key '{key}': {exc}")
    # validate whatever parsed so every problem is reported at once
    config = RunConfig(**values)
    problems.extend(_validate(config))
    if problems:
        raise ConfigError(problems)
    return config


def _format_value(name, value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if name == "tune_hidden_sizes":
        return "|".join(",".join(str(h) for h in group) for group in value)
    if isinstance(value, tuple):
        return ",".join("none" if v is None else f"{v!r}" if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; reparses to an equal configuration."""
    out = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, str) and value == "" :
            continue
        out.append(f"{f.name} = {_format_value(f.name, value)}")
    return "\n".join(out) + "\n"


def _require_inputs(config: RunConfig, names) -> None:
    problems = []
    for name in names:
        path = getattr(config, name)
        if not path:
            problems.append(f"key '{name}': required by this subcommand but not set")
        elif not os.path.exists(path):
            problems.append(f"key '{name}': path '{path}' does not exist")
    if problems:
        raise ConfigError(problems)


def _fmt17(x) -> str:
    return f"{float(x):.17g}"


def write_functional_csv(path, functional, grid: Grid) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("location_id,predictor_id,u,value\n")
        for p, curves in enumerate(functional, start=1):
            for i in range(curves.shape[0]):
                for u, v in zip(grid.points, curves[i]):
                    fh.write(f"{i},{p},{_fmt17(u)},{_fmt17(v)}\n")


def read_functional_csv(path):
    rows = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "location_id,predictor_id,u,value":
            raise DataError(f"{path}: unexpected header '{header}'")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields")
            try:
                loc, p = int(parts[0]), int(parts[1])
                u, v = float(parts[2]), float(parts[3])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row") from exc
            rows.setdefault(p, {}).setdefault(loc, []).append((u, v))
    if not rows:
        raise DataError(f"{path}: no data rows")
    predictors = sorted(rows)
    grid_points = None
    functional = []
    for p in predictors:
        locs = sorted(rows[p])
        curves = []
        for loc in locs:
            pairs = sorted(rows[p][loc])
            us = np.array([u for u, _ in pairs])
            if grid_points is None:
                grid_points = us
            elif us.shape != grid_points.shape or not np.array_equal(us, grid_points):
                raise DataError(
                    f"{path}: location {loc} of predictor {p} is not on the shared grid"
                )
            curves.append([v for _, v in pairs])
        functional.append(np.array(curves))
    n = functional[0].shape[0]
    for p, curves in zip(predictors, functional):
        if curves.shape[0] != n:
            raise DataError(f"{path}: predictor {p} covers a different location set")
    return functional, Grid(grid_points)


def write_scalars_csv(path, scalars, response) -> None:
    j = scalars.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("location_id," + ",".join(f"z{k + 1}" for k in range(j)) + ",y\n")
        for i in range(scalars.shape[0]):
            cells = [str(i)] + [_fmt17(v) for v in scalars[i]] + [_fmt17(response[i])]
            fh.write(",".join(cells) + "\n")


def read_scalars_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "location_id" or header[-1] != "y" or len(header) < 2:
            raise DataError(f"{path}: expected header 'location_id,z1..zJ,y'")
        j = len(header) - 2
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != j + 2:
                raise DataError(f"{path}:{lineno}: expected {j + 2} fields")
            try:
                rows.append((int(parts[0]), [float(v) for v in parts[1:]]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    data = np.array([r[1] for r in rows])
    return data[:, :j], data[:, j]


def read_coords_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "location_id,lat,lon":
            raise DataError(f"{path}: expected header 'location_id,lat,lon'")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields")
            try:
                rows.append((int(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    return np.array([[lat, lon] for _, lat, lon in rows])


def write_metrics_csv(path, metrics: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        for key in sorted(metrics):
            fh.write(f"{key},{_fmt17(metrics[key])}\n")


def _log_transform_dataset(data: pipeline.RegressionDataset, mode: str, label: str):
    """Apply the natural log to the response (and optionally all inputs)."""
    if mode == "none":
        return data
    response = data.response
    bad = np.flatnonzero(response <= 0)
    if bad.size:
        raise DataError(
            f"{label}: log transform needs positive responses; row {bad[0]} has {response[bad[0]]}"
        )
    response = np.log(response)
    functional = data.functional
    scalars = data.scalars
    if mode == "all":
        for p, curves in enumerate(functional):
            if np.any(curves <= 0):
                i, g = np.argwhere(curves <= 0)[0]
                raise DataError(
                    f"{label}: log transform needs positive curves; "
                    f"predictor {p + 1} row {i} grid index {g} is nonpositive"
                )
        if np.any(scalars <= 0):
            i, j = np.argwhere(scalars <= 0)[0]
            raise DataError(
                f"{label}: log transform needs positive scalars; row {i} column {j + 1} is nonpositive"
            )
        functional = [np.log(c) for c in functional]
        scalars = np.log(scalars)
    return pipeline.RegressionDataset(
        functional=functional, grid=data.grid, scalars=scalars,
        response=response, weights=data.weights,
    )


def _scenario_from_config(config: RunConfig) -> simgen.ScenarioConfig:
    return simgen.ScenarioConfig(
        n_train=config.n_train,
        n_test=config.n_test,
        rho=config.rho,
        error_dist=config.error_dist,
        replication_seed=config.replication_seed,
        num_grid_points=config.grid_points,
        beta0=config.beta0,
        double_filter_errors=config.double_filter_errors,
    )


def _architecture_from_config(config: RunConfig, num_functional, num_scalar) -> NetworkArchitecture:
    acts = config.activations
    if len(acts) == 1:
        acts = acts * len(config.hidden_sizes)
    return NetworkArchitecture(
        num_functional=num_functional,
        basis_sizes=(config.basis_size,) * num_functional,
        num_scalar=num_scalar,
        hidden_sizes=config.hidden_sizes,
        activations=acts,
    )


def _train_config_from_config(config: RunConfig) -> TrainConfig:
    return TrainConfig(
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        max_epochs=config.max_epochs,
        early_stop_threshold=config.early_stop_threshold,
        weight_decay=config.weight_decay,
        validation_fraction=config.validation_fraction,
        seed=config.seed,
    )


def _load_train_dataset(config: RunConfig, need_weights: bool):
    needed = ["train_functional", "train_scalars"]
    if need_weights:
        needed.append("train_weights")
    _require_inputs(config, needed)
    functional, grid = read_functional_csv(config.train_functional)
    scalars, response = read_scalars_csv(config.train_scalars)
    weights = spatial.load_weights(config.train_weights) if need_weights else None
    data = pipeline.RegressionDataset(
        functional=functional, grid=grid, scalars=scalars, response=response, weights=weights,
    )
    return _log_transform_dataset(data, config.log_transform, "training data")


def _load_test_dataset(config: RunConfig, need_weights: bool, log_mode: str):
    needed = ["test_functional", "test_scalars"]
    if need_weights:
        needed.append("test_weights")
    _require_inputs(config, needed)
    functional, grid = read_functional_csv(config.test_functional)
    scalars, response = read_scalars_csv(config.test_scalars)
    weights = spatial.load_weights(config.test_weights) if need_weights else None
    data = pipeline.RegressionDataset(
        functional=functional, grid=grid, scalars=scalars, response=response, weights=weights,
    )
    return _log_transform_dataset(data, log_mode, "test data")


def _cmd_simulate(config: RunConfig, out):
    train, test, _ = simgen.generate_scenario_dataset(_scenario_from_config(config))
    write_functional_csv(out("train_functional.csv"), train.functional, train.grid)
    write_scalars_csv(out("train_scalars.csv"), train.scalars, train.response)
    spatial.save_weights(train.weights, out("train_weights.txt"))
    write_functional_csv(out("test_functional.csv"), test.functional, test.grid)
    write_scalars_csv(out("test_scalars.csv"), test.scalars, test.response)
    spatial.save_weights(test.weights, out("test_weights.txt"))


def _cmd_fit(config: RunConfig, out):
    spatial_kind = config.kind in ("ml", "sfdnn")
    data = _load_train_dataset(config, need_weights=spatial_kind)
    if config.kind == "ml":
        model = pipeline.fit_ml_baseline(data, config.variance_threshold)
    else:
        arch = _architecture_from_config(config, data.num_functional, data.num_scalar)
        tc = _train_config_from_config(config)
        if config.kind == "fdnn":
            model = pipeline.fit_fdnn_model(data, arch, tc, config.basis_degree)
        else:
            model = pipeline.fit_sfdnn(
                data, arch, tc, config.basis_degree, config.variance_threshold
            )
    model.metadata["log_transform"] = config.log_transform
    pipeline.save_model(model, out("model.txt"))
    write_metrics_csv(out("train_metrics.csv"), model.train_metrics)


def _cmd_predict(config: RunConfig, out):
    _require_inputs(config, ["model_file"])
    model = pipeline.load_model(config.model_file)
    log_mode = model.metadata.get("log_transform", "none")
    need_weights = model.kind in ("ml", "sfdnn")
    data = _load_test_dataset(config, need_weights, log_mode)
    preds = pipeline.predict_model(model, data)
    with open(out("predictions.csv"), "w", encoding="utf-8") as fh:
        fh.write("location_id,predicted\n")
        for i, v in enumerate(preds):
            fh.write(f"{i},{_fmt17(v)}\n")
    m = evaluation.compute_metrics(data.response, preds, "test")
    write_metrics_csv(out("test_metrics.csv"), {"mspe": m.mse, "r2_test": m.r2})


def _cmd_tune(config: RunConfig, out):
    spatial_kind = config.kind in ("ml", "sfdnn")
    data = _load_train_dataset(config, need_weights=spatial_kind)
    coords = None
    if any(h is not None for h in config.tune_neighbor_counts):
        _require_inputs(config, ["coords_file"])
        coords = read_coords_csv(config.coords_file)
    grid = evaluation.TuneGrid(
        hidden_sizes=list(config.tune_hidden_sizes),
        activations=list(config.tune_activations),
        learning_rates=list(config.tune_learning_rates),
        batch_sizes=list(config.tune_batch_sizes),
        basis_sizes=list(config.tune_basis_sizes),
        weight_decays=list(config.tune_weight_decays),
        max_epochs=list(config.tune_max_epochs),
        neighbor_counts=list(config.tune_neighbor_counts),
    )
    best, table = evaluation.kfold_tune(
        data, config.kind, grid, config.tune_folds, config.seed, coords
    )
    with open(out("cv_table.csv"), "w", encoding="utf-8") as fh:
        fh.write(
            "index,hidden_sizes,activation,learning_rate,batch_size,basis_size,"
            "weight_decay,max_epochs,neighbor_count,num_parameters,cv_mspe\n"
        )
        for row in table:
            c = row["candidate"]
            fh.write(
                f"{row['index']},{'x'.join(str(h) for h in c.hidden_sizes)},{c.activation},"
                f"{_fmt17(c.learning_rate)},{c.batch_size},{c.basis_size},"
                f"{_fmt17(c.weight_decay)},{c.max_epochs},"
                f"{'none' if c.neighbor_count is None else c.neighbor_count},"
                f"{row['size']},{_fmt17(row['cv_mspe'])}\n"
            )
    with open(out("best_config.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"hidden_sizes = {','.join(str(h) for h in best.hidden_sizes)}\n")
        fh.write(f"activations = {best.activation}\n")
        fh.write(f"learning_rate = {best.learning_rate!r}\n")
        fh.write(f"batch_size = {best.batch_size}\n")
        fh.write(f"basis_size = {best.basis_size}\n")
        fh.write(f"weight_decay = {best.weight_decay!r}\n")
        fh.write(f"max_epochs = {best.max_epochs}\n")
        if best.neighbor_count is not None:
            fh.write(f"neighbor_count = {best.neighbor_count}\n")


def _cmd_weights(config: RunConfig, out):
    if config.coords_file:
        _require_inputs(config, ["coords_file"])
        coords = read_coords_csv(config.coords_file)
        W = spatial.build_knn_bisquare_weights(coords, config.neighbor_count)
    elif config.n_sites >= 2:
        W = spatial.build_inverse_distance_weights(config.n_sites)
    else:
        raise ConfigError(["weights subcommand needs either coords_file or n_sites >= 2"])
    spatial.save_weights(W, out("weights.txt"))


def _cmd_moran(config: RunConfig, out):
    _require_inputs(config, ["train_scalars", "train_weights"])
    _, response = read_scalars_csv(config.train_scalars)
    W = spatial.load_weights(config.train_weights)
    if config.log_transform != "none":
        bad = np.flatnonzero(response <= 0)
        if bad.size:
            raise DataError(
                f"log transform needs positive responses; row {bad[0]} has {response[bad[0]]}"
            )
        response = np.log(response)
    values = spatial.local_morans_i(W, response)
    with open(out("moran.csv"), "w", encoding="utf-8") as fh:
        fh.write("location_id,moran_i\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{_fmt17(v)}\n")


def _cmd_mc_bench(config: RunConfig, out):
    scenarios = [
        simgen.ScenarioConfig(
            n_train=n_train,
            n_test=config.n_test,
            rho=rho,
            error_dist=dist,
            num_grid_points=config.grid_points,
            beta0=config.beta0,
            double_filter_errors=config.double_filter_errors,
        )
        for dist in config.mc_error_dists
        for n_train in config.mc_n_trains
        for rho in config.mc_rhos
    ]
    arch = _architecture_from_config(config, 3, 3)
    table = evaluation.monte_carlo_study(
        scenarios,
        pipeline.KINDS,
        config.mc_replications,
        config.seed,
        arch=arch,
        config=_train_config_from_config(config),
        variance_threshold=config.variance_threshold,
        basis_degree=config.basis_degree,
        jobs=config.jobs,
    )
    with open(out("mc_table.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(table.to_csv_lines()) + "\n")
    with open(out("mc_table.txt"), "w", encoding="utf-8") as fh:
        fh.write(table.format_text() + "\n")


def _cmd_plotdata(config: RunConfig, out):
    _require_inputs(config, ["model_file"])
    model = pipeline.load_model(config.model_file)
    log_mode = model.metadata.get("log_transform", "none")
    need_weights = model.kind in ("ml", "sfdnn")
    taylor_rows = []
    for role, loader in (("train", _load_train_dataset), ("test", _load_test_dataset)):
        if role == "train":
            data = loader(config, need_weights)
            if log_mode != "none" and config.log_transform == "none":
                data = _log_transform_dataset(data, log_mode, "training data")
        else:
            data = loader(config, need_weights, log_mode)
        preds = pipeline.predict_model(model, data)
        with open(out(f"plotdata_{role}.csv"), "w", encoding="utf-8") as fh:
            fh.write("location_id,observed,predicted\n")
            for i, (obs, pred) in enumerate(zip(data.response, preds)):
                fh.write(f"{i},{_fmt17(obs)},{_fmt17(pred)}\n")
        t = evaluation.taylor_stats(data.response, preds)
        taylor_rows.append(
            f"{role},{_fmt17(t.correlation)},{_fmt17(t.sd_observed)},"
            f"{_fmt17(t.sd_predicted)},{_fmt17(t.centered_rmsd)}"
        )
    with open(out("taylor.csv"), "w", encoding="utf-8") as fh:
        fh.write("role,correlation,sd_observed,sd_predicted,centered_rmsd\n")
        fh.write("\n".join(taylor_rows) + "\n")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "tune": _cmd_tune,
    "weights": _cmd_weights,
    "moran": _cmd_moran,
    "mc-bench": _cmd_mc_bench,
    "plotdata": _cmd_plotdata,
}


def run(subcommand: str, config: RunConfig) -> None:
    """Execute one subcommand; artifacts land in the configured out_dir."""
    if subcommand not in _COMMANDS:
        raise ConfigError([f"unknown subcommand '{subcommand}'"])
    os.makedirs(config.out_dir, exist_ok=True)

    def out(name: str) -> str:
        return os.path.join(config.out_dir, name)

    _COMMANDS[subcommand](config, out)


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (ConfigError, InvalidArchitectureError, InvalidSizeError)):
        return EXIT_CONFIG
    if isinstance(
        exc,
        (
            OSError,
            DataError,
            DimensionError,
            MissingWeightsError,
            InsufficientDataError,
            FoldSizeError,
        ),
    ):
        return EXIT_DATA
    # admissibility, bandwidth, variance, rank, overflow, divergence, and a
    # stray numpy.linalg.LinAlgError
    return EXIT_NUMERIC


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sfdnn",
        description="Spatially filtered functional regression toolkit",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--kind", choices=pipeline.KINDS, default=None)
    parser.add_argument("--log-transform", choices=("none", "response", "all"), default=None)
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config) if args.config else RunConfig()
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out_dir is not None:
            overrides["out_dir"] = args.out_dir
        if args.jobs is not None:
            overrides["jobs"] = args.jobs
        if args.kind is not None:
            overrides["kind"] = args.kind
        if args.log_transform is not None:
            overrides["log_transform"] = args.log_transform
        if overrides:
            config = replace(config, **overrides)
            problems = _validate(config)
            if problems:
                raise ConfigError(problems)
        run(args.subcommand, config)
    except (SfdnnError, np.linalg.LinAlgError, OSError) as exc:
        code = _exit_code_for(exc)
        payload = {
            "code": code,
            "message": str(exc),
            "context": {
                "subcommand": args.subcommand,
                "error_type": type(exc).__name__,
            },
        }
        if isinstance(exc, ConfigError):
            payload["context"]["problems"] = exc.problems
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
