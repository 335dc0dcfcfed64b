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

from . import _textio, basis, evaluation, fpca, pipeline, simgen, spatial
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
    at_least,
    broken_rules,
    one_of,
)
from .evaluation import CandidateConfig
from .fdnn import NetworkArchitecture, TrainConfig
from .simgen import BENCHMARK_RHOS, ScenarioConfig

__all__ = ["RunConfig", "parse_config", "serialize_config", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration; a library setting's default is read from the class that owns it."""

    seed: int = 0
    out_dir: str = "."
    kind: str = "sfdnn"
    jobs: int = 1
    log_transform: str = "none"
    # scenario
    n_train: int = ScenarioConfig.n_train
    n_test: int = ScenarioConfig.n_test
    rho: float = ScenarioConfig.rho
    error_dist: str = ScenarioConfig.error_dist
    grid_points: int = ScenarioConfig.num_grid_points
    beta0: float = ScenarioConfig.beta0
    double_filter_errors: bool = ScenarioConfig.double_filter_errors
    replication_seed: int = ScenarioConfig.replication_seed
    # architecture
    hidden_sizes: tuple[int, ...] = CandidateConfig.hidden_sizes
    activations: tuple[str, ...] = (CandidateConfig.activation,)
    basis_size: int = CandidateConfig.basis_size
    basis_degree: int = 3
    # training
    learning_rate: float = CandidateConfig.learning_rate
    batch_size: int = CandidateConfig.batch_size
    max_epochs: int = CandidateConfig.max_epochs
    early_stop_threshold: float = TrainConfig.early_stop_threshold
    weight_decay: float = CandidateConfig.weight_decay
    validation_fraction: float = TrainConfig.validation_fraction
    variance_threshold: float = 0.95
    # spatial
    neighbor_count: int = 4
    n_sites: int = 0
    # tuning grid: the fit network alone
    tune_hidden_sizes: tuple[tuple[int, ...], ...] = (CandidateConfig.hidden_sizes,)
    tune_activations: tuple[str, ...] = (CandidateConfig.activation,)
    tune_learning_rates: tuple[float, ...] = (CandidateConfig.learning_rate,)
    tune_batch_sizes: tuple[int, ...] = (CandidateConfig.batch_size,)
    tune_basis_sizes: tuple[int, ...] = (CandidateConfig.basis_size,)
    tune_weight_decays: tuple[float, ...] = (CandidateConfig.weight_decay,)
    tune_max_epochs: tuple[int, ...] = (CandidateConfig.max_epochs,)
    tune_neighbor_counts: tuple[int | None, ...] = (CandidateConfig.neighbor_count,)
    tune_folds: int = 5
    # benchmark
    mc_n_trains: tuple[int, ...] = (ScenarioConfig.n_train,)
    mc_rhos: tuple[float, ...] = BENCHMARK_RHOS
    mc_error_dists: tuple[str, ...] = (ScenarioConfig.error_dist,)
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


def _tuple_of(parse, sep=","):
    """Parser of a ``sep``-separated list; blank items and empty groups are dropped."""
    def parse_list(text):
        items = (parse(v.strip()) for v in text.split(sep) if v.strip())
        return tuple(item for item in items if item != ())
    return parse_list


def _int_or_none(text):
    return None if text.lower() == "none" else int(text)


# annotation text (``from __future__ import annotations``) -> parser; a
# RunConfig field whose annotation is missing here fails at import
_PARSERS_BY_TYPE = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "tuple[int, ...]": _tuple_of(int),
    "tuple[float, ...]": _tuple_of(float),
    "tuple[str, ...]": _tuple_of(str),
    "tuple[tuple[int, ...], ...]": _tuple_of(_tuple_of(int), "|"),
    "tuple[int | None, ...]": _tuple_of(_int_or_none),
}
_PARSERS = {f.name: _PARSERS_BY_TYPE[f.type] for f in fields(RunConfig)}


# library fields whose key has another name
_KEY_OF = {"num_grid_points": "grid_points", "basis_sizes": "basis_size"}
# each scalar key's rule: the one its library class or module declares, or the CLI's own
_SCALAR_RULES = {
    **{
        _KEY_OF.get(name, name): rule
        for owner in (ScenarioConfig, NetworkArchitecture, TrainConfig, basis, fpca)
        for name, rule in owner.RULES.items()
    },
    "kind": one_of(pipeline.KINDS),
    "jobs": at_least(1),
    "log_transform": (lambda v: v in ("none", "response", "all"), "must be none, response, or all"),
    "neighbor_count": at_least(1),
    "tune_folds": at_least(2),
    "mc_replications": at_least(1),
}


def _rule_of(key):
    # a tune_/mc_ list follows its scalar key's rule value by value: tune_hidden_sizes ->
    # hidden_sizes, tune_learning_rates -> learning_rate, mc_rhos -> rho
    stem = key.partition("_")[2] if key.startswith(("tune_", "mc_")) else key
    return _SCALAR_RULES.get(key) or _SCALAR_RULES.get(stem) or _SCALAR_RULES.get(stem[:-1])


_RULES = {f.name: _rule_of(f.name) for f in fields(RunConfig) if _rule_of(f.name)}


def _validate(config: RunConfig) -> list:
    spline = basis.basis_size_rule(config.basis_degree)
    broken = broken_rules(_RULES, vars(config))
    broken += broken_rules({"basis_size": spline, "tune_basis_sizes": spline}, vars(config))
    if config.activations and len(config.activations) not in (1, len(config.hidden_sizes)):
        broken.append(("activations", "must hold one tag, or one per hidden_sizes entry"))
    broken += [(key, "must list at least one value") for key, value in vars(config).items() if value == ()]
    return [f"key '{name}': {phrase}" for name, phrase in broken]


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


def _format_value(value):
    """Text that the value's parser reads back: groups joined by '|', items by ','."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        sep = "|" if value and isinstance(value[0], tuple) else ","
        return sep.join(_format_value(v) for v in value)
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; reparses to an equal configuration."""
    out = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if value != "":
            out.append(f"{f.name} = {_format_value(value)}")
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
    """One ``location_id,predictor_id,u,value`` row per grid point, in
    (predictor, location, u) order; only ``value`` is formatted per row."""
    # ",<u>,%.17g\n" per grid point: a curve's rows are its "i,p" head
    # before each tail, filled with its values by one %
    tails = [",%.17g,%%.17g\n" % u for u in grid.points.tolist()]
    curves_per_chunk = max(1, _textio.CHUNK_ROWS // len(tails))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("location_id,predictor_id,u,value\n")
        for p, curves in enumerate(functional, start=1):
            for start in range(0, len(curves), curves_per_chunk):
                rows = curves[start : start + curves_per_chunk].tolist()
                fh.write("".join([
                    f"{i},{p}".join(["", *tails]) % tuple(values)
                    for i, values in enumerate(rows, start=start)
                ]))


def _csv_columns(fh, path, kinds, check=None):
    columns = _textio.read_rows(fh, path, kinds, ",", f"expected {len(kinds)} fields", "malformed row", check)
    if columns[0].size == 0:
        raise DataError(f"{path}: no data rows")
    return columns


def _writer_ordered(loc, pred, u) -> bool:
    """True when the rows ascend strictly in (predictor, location, u).

    Then ``np.lexsort`` over those keys is the identity.  Tied or NaN ``u``
    (``-0.0`` ties ``0.0``) fails, so such files go through the sort.
    """
    same_pred = pred[1:] == pred[:-1]
    same_loc = loc[1:] == loc[:-1]
    step = (pred[1:] > pred[:-1]) | (same_pred & ((loc[1:] > loc[:-1]) | (same_loc & (u[1:] > u[:-1]))))
    return bool(step.all())


def read_functional_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "location_id,predictor_id,u,value":
            raise DataError(f"{path}: unexpected header '{header}'")
        loc, pred, u, value = _csv_columns(fh, path, "iiff")
    # one curve per (predictor, location), each sorted by (u, value); a file
    # already in that order with no tied key, as the writer leaves it, is
    # its own sort
    if not _writer_ordered(loc, pred, u):
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
    (_, lat_bound), (_, lon_bound) = spatial._COORD_RANGES
    outside = " or ".join(f"{name} outside [-{bound:g}, {bound:g}]" for name, bound in spatial._COORD_RANGES)
    in_range = (lambda _, lat, lon: (abs(lat) <= lat_bound) & (abs(lon) <= lon_bound), outside)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "location_id,lat,lon":
            raise DataError(f"{path}: expected header 'location_id,lat,lon'")
        ids, lat, lon = _csv_columns(fh, path, "iff", in_range)
    order = np.argsort(ids, kind="stable")
    return np.column_stack([lat, lon])[order], ids[order]


def write_metrics_csv(path, metrics: dict) -> None:
    keys = sorted(metrics)
    _textio.write_table(path, "metric,value", "%s,%.17g\n", keys, [float(metrics[k]) for k in keys])


def _log_response(response, label: str):
    bad = np.flatnonzero(response <= 0)
    if bad.size:
        raise DataError(
            f"{label}: log transform needs positive responses; row {bad[0]} has {response[bad[0]]}"
        )
    return np.log(response)


def _log_transform_dataset(data: pipeline.RegressionDataset, mode: str, label: str):
    """Apply the natural log to the response (and optionally all inputs)."""
    if mode == "none":
        return data
    response = _log_response(data.response, label)
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
    return replace(data, functional=functional, scalars=scalars, response=response)


def _scenario_from_config(config: RunConfig) -> ScenarioConfig:
    return ScenarioConfig(
        **{f.name: getattr(config, _KEY_OF.get(f.name, f.name)) for f in fields(ScenarioConfig)}
    )


def _architecture_from_config(config: RunConfig, num_functional, num_scalar) -> NetworkArchitecture:
    return NetworkArchitecture.uniform(
        num_functional, num_scalar, config.basis_size, config.hidden_sizes, config.activations
    )


def _train_config_from_config(config: RunConfig) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(config, f.name) for f in fields(TrainConfig)})


def _load_dataset(config: RunConfig, role: str, kind: str, log_mode: str):
    """Read the ``role`` ("train" or "test") files that estimator ``kind`` needs.

    Returns the dataset and its sorted location ids.
    """
    need_weights = kind != "fdnn"
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
    data, _ = _load_dataset(config, "train", config.kind, config.log_transform)
    model = evaluation.fit_kind(
        config.kind, data, _architecture_from_config(config, data.num_functional, data.num_scalar),
        _train_config_from_config(config), config.basis_degree, config.variance_threshold,
    )
    model.metadata["log_transform"] = config.log_transform
    pipeline.save_model(model, out("model.txt"))
    write_metrics_csv(out("train_metrics.csv"), model.train_metrics)


def _load_model(config: RunConfig):
    """The configured model and the log transform it was fitted under."""
    _require_inputs(config, ["model_file"])
    model = pipeline.load_model(config.model_file)
    return model, model.metadata.get("log_transform", "none")


def _cmd_predict(config: RunConfig, out):
    model, log_mode = _load_model(config)
    data, _ = _load_dataset(config, "test", model.kind, log_mode)
    preds = pipeline.predict_model(model, data)
    _write_location_csv(out("predictions.csv"), "location_id,predicted", preds)
    m = evaluation.compute_metrics(data.response, preds)
    write_metrics_csv(out("test_metrics.csv"), {"mspe": m.mse, "r2_test": m.r2})


def _cmd_tune(config: RunConfig, out):
    data, ids = _load_dataset(config, "train", config.kind, config.log_transform)
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
        config.variance_threshold, config.basis_degree, _train_config_from_config(config),
    )
    rows = []
    for row in table:
        c = row["candidate"]
        rows.append((
            row["index"], "x".join(str(h) for h in c.hidden_sizes), c.activation,
            c.learning_rate, c.batch_size, c.basis_size, c.weight_decay, c.max_epochs,
            _format_value(c.neighbor_count),
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
                fh.write(f"{key} = {_format_value(value)}\n")


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
        response = _log_response(response, config.train_scalars)
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
    model, log_mode = _load_model(config)
    taylor_rows = []
    for role in ("train", "test"):
        data, _ = _load_dataset(config, role, model.kind, log_mode)
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
    parser.add_argument("subcommand", choices=_COMMANDS)
    parser.add_argument("--config", default=None, help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--kind", default=None)
    parser.add_argument("--log-transform", default=None)
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
