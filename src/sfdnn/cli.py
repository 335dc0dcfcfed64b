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

from . import _textio, evaluation, pipeline, simgen, spatial
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
    hidden_sizes: tuple[int, ...] = (32, 16)
    activations: tuple[str, ...] = ("relu",)
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
    tune_hidden_sizes: tuple[tuple[int, ...], ...] = ((32, 16),)
    tune_activations: tuple[str, ...] = ("relu",)
    tune_learning_rates: tuple[float, ...] = (0.01,)
    tune_batch_sizes: tuple[int, ...] = (32,)
    tune_basis_sizes: tuple[int, ...] = (7,)
    tune_weight_decays: tuple[float, ...] = (0.0,)
    tune_max_epochs: tuple[int, ...] = (200,)
    tune_neighbor_counts: tuple[int | None, ...] = (None,)
    tune_folds: int = 5
    # benchmark
    mc_n_trains: tuple[int, ...] = (500,)
    mc_rhos: tuple[float, ...] = (0.1, 0.5, 0.9)
    mc_error_dists: tuple[str, ...] = ("gaussian",)
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


# annotation text (``from __future__ import annotations``) -> parser; a
# RunConfig field whose annotation is missing here fails at import
_PARSERS_BY_TYPE = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_tuple,
    "tuple[float, ...]": _parse_float_tuple,
    "tuple[str, ...]": _parse_str_tuple,
    "tuple[tuple[int, ...], ...]": _parse_hidden_groups,
    "tuple[int | None, ...]": _parse_opt_int_tuple,
}
_PARSERS = {f.name: _PARSERS_BY_TYPE[f.type] for f in fields(RunConfig)}


def _validate(config: RunConfig) -> list:
    problems = []

    def violated(name, bad):
        # a grid list is checked value by value by the rule of its scalar key
        value = getattr(config, name)
        return any(v is not None and bad(v) for v in (value if isinstance(value, tuple) else (value,)))

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
        ("jobs", 1), ("n_train", 2), ("mc_n_trains", 2), ("n_test", 2), ("grid_points", 2),
        ("basis_size", 1), ("basis_degree", 1), ("batch_size", 1), ("tune_batch_sizes", 1),
        ("max_epochs", 1), ("tune_max_epochs", 1), ("neighbor_count", 1),
        ("tune_neighbor_counts", 1), ("tune_folds", 2), ("mc_replications", 1),
    ):
        if violated(name, lambda v: v < minimum):
            problems.append(f"key '{name}': must be at least {minimum}")
    for name in ("learning_rate", "tune_learning_rates"):
        if violated(name, lambda v: v <= 0):
            problems.append(f"key '{name}': must be positive")
    for name in ("early_stop_threshold", "weight_decay", "tune_weight_decays"):
        if violated(name, lambda v: v < 0):
            problems.append(f"key '{name}': must be nonnegative")
    if not 0.0 <= config.validation_fraction <= 0.5:
        problems.append("key 'validation_fraction': must be in [0, 0.5]")
    if not 0.0 < config.variance_threshold <= 1.0:
        problems.append("key 'variance_threshold': must be in (0, 1]")
    for name in ("activations", "tune_activations"):
        for tag in getattr(config, name):
            if tag not in ACTIVATIONS:
                problems.append(f"key '{name}': unknown activation '{tag}'")
    if any(h < 1 for group in config.tune_hidden_sizes for h in group):
        problems.append("key 'tune_hidden_sizes': sizes must be >= 1")
    if any(h < 1 for h in config.hidden_sizes):
        problems.append("key 'hidden_sizes': sizes must be >= 1")
    for name in ("basis_size", "tune_basis_sizes"):
        if violated(name, lambda v: v < config.basis_degree + 1):
            problems.append(f"key '{name}': must be at least basis_degree + 1")
    for f in fields(config):
        if getattr(config, f.name) == ():
            problems.append(f"key '{f.name}': must list at least one value")
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


def write_functional_csv(path, functional, grid: Grid) -> None:
    curves = np.stack(functional)
    p, n, g = curves.shape
    _textio.write_table(
        path, "location_id,predictor_id,u,value", "%d,%d,%.17g,%.17g\n",
        np.tile(np.repeat(np.arange(n), g), p), np.repeat(np.arange(1, p + 1), n * g),
        np.tile(grid.points, p * n), curves.ravel(),
    )


def _csv_columns(fh, path, kinds):
    columns = _textio.read_rows(fh, path, kinds, ",", f"expected {len(kinds)} fields", "malformed row")
    if columns[0].size == 0:
        raise DataError(f"{path}: no data rows")
    return columns


def read_functional_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "location_id,predictor_id,u,value":
            raise DataError(f"{path}: unexpected header '{header}'")
        loc, pred, u, value = _csv_columns(fh, path, "iiff")
    # one curve per (predictor, location), each sorted by (u, value)
    order = np.lexsort((value, u, loc, pred))
    loc, pred, u, value = loc[order], pred[order], u[order], value[order]
    starts = np.flatnonzero(np.r_[True, (loc[1:] != loc[:-1]) | (pred[1:] != pred[:-1])])
    sizes = np.diff(np.r_[starts, loc.size])
    g = sizes[0]
    if not (np.all(sizes == g) and np.all(u.reshape(-1, g)[1:] == u[:g])):
        for s, size in zip(starts[1:], sizes[1:]):
            if size != g or not np.array_equal(u[s : s + size], u[:g]):
                raise DataError(
                    f"{path}: location {loc[s]} of predictor {pred[s]} is not on the shared grid"
                )
    predictors, counts = np.unique(pred[starts], return_counts=True)
    ids = loc[starts[: counts[0]]]
    same = counts == counts[0]
    if same.all():
        same = np.all(loc[starts].reshape(predictors.size, -1) == ids, axis=1)
    if not same.all():
        raise DataError(f"{path}: predictor {predictors[np.argmin(same)]} covers a different location set")
    try:
        grid = Grid(u[:g].copy())
    except InvalidSizeError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return list(value.reshape(predictors.size, counts[0], g)), grid, ids


def _write_location_csv(path, header, *columns) -> None:
    """One row per location: its index, then each column to 17 digits."""
    row_format = "%d" + ",%.17g" * len(columns) + "\n"
    _textio.write_table(path, header, row_format, np.arange(len(columns[0])), *columns)


def write_scalars_csv(path, scalars, response) -> None:
    names = "".join(f"z{k + 1}," for k in range(scalars.shape[1]))
    _write_location_csv(path, f"location_id,{names}y", *scalars.T, response)


def read_scalars_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "location_id" or header[-1] != "y" or len(header) < 2:
            raise DataError(f"{path}: expected header 'location_id,z1..zJ,y'")
        ids, *values = _csv_columns(fh, path, "i" + "f" * (len(header) - 1))
    order = np.argsort(ids, kind="stable")
    data = np.column_stack(values)[order]
    return data[:, :-1], data[:, -1], ids[order]


def read_coords_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "location_id,lat,lon":
            raise DataError(f"{path}: expected header 'location_id,lat,lon'")
        ids, lat, lon = _csv_columns(fh, path, "iff")
    order = np.argsort(ids, kind="stable")
    return np.column_stack([lat, lon])[order], ids[order]


def write_metrics_csv(path, metrics: dict) -> None:
    keys = sorted(metrics)
    _textio.write_table(path, "metric,value", "%s,%.17g\n", keys, [float(metrics[k]) for k in keys])


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
    return TrainConfig(**{f.name: getattr(config, f.name) for f in fields(TrainConfig)})


def _load_dataset(config: RunConfig, role: str, need_weights: bool, log_mode: str):
    """Read the ``role`` ("train" or "test") files the configuration names.

    Returns the dataset and its sorted location ids.
    """
    names = [f"{role}_functional", f"{role}_scalars"] + ([f"{role}_weights"] if need_weights else [])
    _require_inputs(config, names)
    functional, grid, ids = read_functional_csv(getattr(config, names[0]))
    scalars, response, scalar_ids = read_scalars_csv(getattr(config, names[1]))
    if not np.array_equal(scalar_ids, ids):
        raise DataError(f"{getattr(config, names[1])}: location ids differ from the functional file's")
    weights = spatial.load_weights(getattr(config, names[2])) if need_weights else None
    data = pipeline.RegressionDataset(
        functional=functional, grid=grid, scalars=scalars, response=response, weights=weights,
    )
    label = "training data" if role == "train" else "test data"
    return _log_transform_dataset(data, log_mode, label), ids


def _cmd_simulate(config: RunConfig, out):
    train, test, _ = simgen.generate_scenario_dataset(_scenario_from_config(config))
    for role, data in (("train", train), ("test", test)):
        write_functional_csv(out(f"{role}_functional.csv"), data.functional, data.grid)
        write_scalars_csv(out(f"{role}_scalars.csv"), data.scalars, data.response)
        spatial.save_weights(data.weights, out(f"{role}_weights.txt"))


def _cmd_fit(config: RunConfig, out):
    spatial_kind = config.kind in ("ml", "sfdnn")
    data, _ = _load_dataset(config, "train", spatial_kind, config.log_transform)
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
    data, _ = _load_dataset(config, "test", need_weights, log_mode)
    preds = pipeline.predict_model(model, data)
    _write_location_csv(out("predictions.csv"), "location_id,predicted", preds)
    m = evaluation.compute_metrics(data.response, preds, "test")
    write_metrics_csv(out("test_metrics.csv"), {"mspe": m.mse, "r2_test": m.r2})


def _cmd_tune(config: RunConfig, out):
    spatial_kind = config.kind in ("ml", "sfdnn")
    data, ids = _load_dataset(config, "train", spatial_kind, config.log_transform)
    coords = None
    if any(h is not None for h in config.tune_neighbor_counts):
        _require_inputs(config, ["coords_file"])
        coords, coord_ids = read_coords_csv(config.coords_file)
        if not np.array_equal(coord_ids, ids):
            raise DataError(f"{config.coords_file}: location ids differ from the training files'")
    grid = evaluation.TuneGrid(
        **{f.name: list(getattr(config, "tune_" + f.name)) for f in fields(evaluation.TuneGrid)}
    )
    best, table = evaluation.kfold_tune(
        data, config.kind, grid, config.tune_folds, config.seed, coords,
        config.variance_threshold, config.basis_degree,
    )
    rows = []
    for row in table:
        c = row["candidate"]
        rows.append((
            row["index"], "x".join(str(h) for h in c.hidden_sizes), c.activation,
            c.learning_rate, c.batch_size, c.basis_size, c.weight_decay, c.max_epochs,
            "none" if c.neighbor_count is None else str(c.neighbor_count),
            row["size"], row["cv_mspe"],
        ))
    _textio.write_table(
        out("cv_table.csv"),
        "index,hidden_sizes,activation,learning_rate,batch_size,basis_size,"
        "weight_decay,max_epochs,neighbor_count,num_parameters,cv_mspe",
        "%d,%s,%s,%.17g,%d,%d,%.17g,%d,%s,%d,%.17g\n",
        *zip(*rows),
    )
    with open(out("best_config.txt"), "w", encoding="utf-8") as fh:
        for f in fields(best):
            value = getattr(best, f.name)
            if value is not None:
                key = "activations" if f.name == "activation" else f.name
                fh.write(f"{key} = {_format_value(key, value)}\n")


def _cmd_weights(config: RunConfig, out):
    if config.coords_file:
        _require_inputs(config, ["coords_file"])
        coords, _ = read_coords_csv(config.coords_file)
        W = spatial.build_knn_bisquare_weights(coords, config.neighbor_count)
    elif config.n_sites >= 2:
        W = spatial.build_inverse_distance_weights(config.n_sites)
    else:
        raise ConfigError(["weights subcommand needs either coords_file or n_sites >= 2"])
    spatial.save_weights(W, out("weights.txt"))


def _cmd_moran(config: RunConfig, out):
    _require_inputs(config, ["train_scalars", "train_weights"])
    _, response, _ = read_scalars_csv(config.train_scalars)
    W = spatial.load_weights(config.train_weights)
    if config.log_transform != "none":
        bad = np.flatnonzero(response <= 0)
        if bad.size:
            raise DataError(
                f"log transform needs positive responses; row {bad[0]} has {response[bad[0]]}"
            )
        response = np.log(response)
    _write_location_csv(out("moran.csv"), "location_id,moran_i", spatial.local_morans_i(W, response))


def _cmd_mc_bench(config: RunConfig, out):
    base = replace(_scenario_from_config(config), replication_seed=0)
    scenarios = [
        replace(base, n_train=n_train, rho=rho, error_dist=dist)
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
    for role in ("train", "test"):
        # a log transform set in the configuration overrides the model's for training data
        mode = config.log_transform if role == "train" and config.log_transform != "none" else log_mode
        data, _ = _load_dataset(config, role, need_weights, mode)
        preds = pipeline.predict_model(model, data)
        _write_location_csv(
            out(f"plotdata_{role}.csv"), "location_id,observed,predicted", data.response, preds
        )
        t = evaluation.taylor_stats(data.response, preds)
        taylor_rows.append((role, t.correlation, t.sd_observed, t.sd_predicted, t.centered_rmsd))
    _textio.write_table(
        out("taylor.csv"), "role,correlation,sd_observed,sd_predicted,centered_rmsd",
        "%s,%.17g,%.17g,%.17g,%.17g\n", *zip(*taylor_rows),
    )


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
        flags = {key: getattr(args, key) for key in ("seed", "out_dir", "jobs", "kind", "log_transform")}
        overrides = {key: value for key, value in flags.items() if value is not None}
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
