"""Tests for the command-line interface: config, subcommands, exit codes."""

import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfdnn import spatial
from sfdnn.cli import (
    _PARSERS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    RunConfig,
    _format_value,
    main,
    parse_config,
    read_scalars_csv,
    serialize_config,
)
from sfdnn.errors import ConfigError, DimensionError, SfdnnError
from sfdnn.evaluation import compute_metrics
from sfdnn.fdnn import NetworkArchitecture, TrainConfig, load_parameters, parameters_from_lines
from sfdnn.pipeline import fit_sfdnn, predict_model
from sfdnn.simgen import ScenarioConfig, generate_scenario_dataset


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = write(tmp_path / "empty.cfg", "")
        assert parse_config(path) == RunConfig()

    def test_comments_and_values(self, tmp_path):
        path = write(
            tmp_path / "a.cfg",
            "# comment\nn_train = 123\nrho = 0.25   # inline comment\nhidden_sizes = 8,4\n",
        )
        cfg = parse_config(path)
        assert cfg.n_train == 123
        assert cfg.rho == 0.25
        assert cfg.hidden_sizes == (8, 4)

    def test_rho_out_of_range_names_interval(self, tmp_path):
        path = write(tmp_path / "bad.cfg", "rho = 1.5\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "(-1, 1)" in str(err.value)

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = write(tmp_path / "bad.cfg", "n_train = 50\nbogus_key = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any("line 2" in p and "bogus_key" in p for p in err.value.problems)

    def test_all_problems_reported(self, tmp_path):
        path = write(
            tmp_path / "bad.cfg",
            "rho = 1.5\nbogus = 1\nlearning_rate = -2\nbatch_size = zero\n",
        )
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert len(err.value.problems) >= 3

    def test_round_trip(self, tmp_path):
        path = write(
            tmp_path / "full.cfg",
            "n_train = 77\nrho = -0.3\nhidden_sizes = 5,3\nactivations = tanh,sigmoid\n"
            "tune_hidden_sizes = 8,4|16\ntune_activations = tanh,relu\n"
            "tune_learning_rates = 0.05,0.001\ntune_batch_sizes = 8,16\ntune_basis_sizes = 5,9\n"
            "tune_weight_decays = 0.0,1e-4\ntune_max_epochs = 10,20\ntune_neighbor_counts = none,4\n"
            "mc_n_trains = 100,250\nmc_rhos = -0.2,0.7\nmc_error_dists = t3,exp1\n"
            "learning_rate = 0.025\ndouble_filter_errors = true\nkind = fdnn\n",
        )
        cfg = parse_config(path)
        # every tuple key leaves its default, so each annotation's parser runs
        for f in fields(RunConfig):
            if f.type.startswith("tuple"):
                assert getattr(cfg, f.name) != f.default, f.name
        again = write(tmp_path / "again.cfg", serialize_config(cfg))
        assert parse_config(again) == cfg

    @pytest.mark.parametrize(
        "text,problem",
        [
            ("tune_batch_sizes = 16,0", "key 'tune_batch_sizes': must be at least 1"),
            ("tune_max_epochs = 0,5", "key 'tune_max_epochs': must be at least 1"),
            ("tune_learning_rates = 0.01,0", "key 'tune_learning_rates': must be positive"),
            ("tune_weight_decays = 0,-1e-3", "key 'tune_weight_decays': must be nonnegative"),
            ("tune_basis_sizes = 7,3", "key 'tune_basis_sizes': must be at least basis_degree + 1"),
            ("tune_neighbor_counts = none,0", "key 'tune_neighbor_counts': must be at least 1"),
            ("mc_n_trains = 100,1", "key 'mc_n_trains': must be at least 2"),
            ("tune_activations = relu,swish", "key 'tune_activations': unknown activation 'swish'"),
            ("tune_batch_sizes = ,", "key 'tune_batch_sizes': must list at least one value"),
            ("mc_rhos =", "key 'mc_rhos': must list at least one value"),
        ],
    )
    def test_bad_grid_value_names_its_list_key(self, tmp_path, text, problem):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path / "bad.cfg", text + "\n"))
        assert err.value.problems == [problem]

    def test_round_trip_of_defaults(self, tmp_path):
        cfg = RunConfig()
        path = write(tmp_path / "defaults.cfg", serialize_config(cfg))
        assert parse_config(path) == cfg

    @pytest.mark.parametrize(
        "text,problem",
        [
            ("learning_rate = nan", "key 'learning_rate': must be positive"),
            ("weight_decay = nan", "key 'weight_decay': must be nonnegative"),
            ("early_stop_threshold = nan", "key 'early_stop_threshold': must be nonnegative"),
            ("tune_learning_rates = 0.01,nan", "key 'tune_learning_rates': must be positive"),
            ("tune_weight_decays = nan", "key 'tune_weight_decays': must be nonnegative"),
            ("beta0 = nan", "key 'beta0': must be finite"),
            ("beta0 = -inf", "key 'beta0': must be finite"),
        ],
    )
    def test_nan_and_infinite_values_rejected(self, tmp_path, text, problem):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path / "bad.cfg", text + "\n"))
        assert err.value.problems == [problem]

    def test_activation_count_checked_when_parsed(self, tmp_path):
        path = write(tmp_path / "bad.cfg", "hidden_sizes = 8,4,2\nactivations = relu,tanh\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.problems == [
            "key 'activations': must hold one tag, or one per hidden_sizes entry"
        ]


class TestConfigProblemReports:
    """Each problem of a config file reaches the JSON ``problems`` list, and the run exits 2."""

    def problems(self, capsys, path):
        assert main(["fit", "--config", path]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert (err["code"], err["context"]["error_type"]) == (EXIT_CONFIG, "ConfigError")
        return err["context"]["problems"]

    def test_every_line_problem_with_its_line_number(self, tmp_path, capsys):
        text = "n_train = 50\nrho 0.5\nn_train = 60\ndouble_filter_errors = maybe\n"
        assert self.problems(capsys, write(tmp_path / "bad.cfg", text)) == [
            "line 2: expected 'key = value', got 'rho 0.5'",
            "line 3: duplicate key 'n_train'",
            "line 4: key 'double_filter_errors': expected a boolean, got 'maybe'",
        ]

    @pytest.mark.parametrize("directory", [False, True], ids=["missing", "directory"])
    def test_unreadable_config_path(self, tmp_path, capsys, directory):
        path = tmp_path / "run.cfg"
        if directory:
            path.mkdir()
        (problem,) = self.problems(capsys, str(path))
        assert problem.startswith("cannot read config file: ") and problem.endswith(f"'{path}'")


# (owner, field, bad value, its key, its list key): every rule a library class declares
LIBRARY_RULES = [
    (TrainConfig, "learning_rate", 0.0, "learning_rate", "tune_learning_rates"),
    (TrainConfig, "batch_size", 0, "batch_size", "tune_batch_sizes"),
    (TrainConfig, "max_epochs", 0, "max_epochs", "tune_max_epochs"),
    (TrainConfig, "early_stop_threshold", -1.0, "early_stop_threshold", None),
    (TrainConfig, "weight_decay", -1e-3, "weight_decay", "tune_weight_decays"),
    (TrainConfig, "validation_fraction", 0.75, "validation_fraction", None),
    (TrainConfig, "seed", -1, "seed", None),
    (ScenarioConfig, "n_train", 1, "n_train", "mc_n_trains"),
    (ScenarioConfig, "n_test", 1, "n_test", None),
    (ScenarioConfig, "rho", 1.5, "rho", "mc_rhos"),
    (ScenarioConfig, "error_dist", "cauchy", "error_dist", "mc_error_dists"),
    (ScenarioConfig, "num_grid_points", 1, "grid_points", None),
    (ScenarioConfig, "beta0", float("inf"), "beta0", None),
    # the CLI parses the key as an int, so its text cannot break the rule
    (ScenarioConfig, "replication_seed", 1.5, None, None),
    (NetworkArchitecture, "num_functional", -1, None, None),
    (NetworkArchitecture, "basis_sizes", (0,), "basis_size", "tune_basis_sizes"),
    (NetworkArchitecture, "num_scalar", -1, None, None),
    (NetworkArchitecture, "hidden_sizes", (0,), "hidden_sizes", "tune_hidden_sizes"),
    (NetworkArchitecture, "activations", ("swish",), "activations", "tune_activations"),
]


def test_rule_table_covers_every_declared_rule():
    declared = {(owner, name) for owner in (TrainConfig, ScenarioConfig, NetworkArchitecture)
                for name in owner.RULES}
    assert {(owner, name) for owner, name, *_ in LIBRARY_RULES} == declared


@pytest.mark.parametrize("owner,name,bad,key,list_key", LIBRARY_RULES)
def test_library_and_cli_report_a_rule_alike(tmp_path, owner, name, bad, key, list_key):
    valid = {"num_functional": 1, "basis_sizes": (5,), "num_scalar": 1, "hidden_sizes": (3,),
             "activations": ("relu",)} if owner is NetworkArchitecture else {}
    with pytest.raises(SfdnnError) as err:
        owner(**{**valid, name: bad})
    message = str(err.value)
    assert message.startswith(name + " ")
    phrase = message[len(name) + 1:]
    text = ",".join(map(str, bad)) if isinstance(bad, tuple) else str(bad)
    for cli_key in (key, list_key):
        if cli_key is not None:
            with pytest.raises(ConfigError) as err:
                parse_config(write(tmp_path / "bad.cfg", f"{cli_key} = {text}\n"))
            assert f"key '{cli_key}': {phrase}" in err.value.problems


# one strategy per tuple annotation of RunConfig; items the text form can carry
_WORD = st.text("abcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1)
_TUPLE_VALUES = {
    "tuple[int, ...]": st.lists(st.integers()),
    "tuple[float, ...]": st.lists(st.floats(allow_nan=False)),
    "tuple[str, ...]": st.lists(_WORD),
    "tuple[tuple[int, ...], ...]": st.lists(st.lists(st.integers(), min_size=1).map(tuple)),
    "tuple[int | None, ...]": st.lists(st.none() | st.integers()),
}
TUPLE_FIELDS = [f for f in fields(RunConfig) if f.type.startswith("tuple")]


@pytest.mark.parametrize("field", TUPLE_FIELDS, ids=lambda f: f.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tuple_values_round_trip_through_their_text(field, data):
    value = tuple(data.draw(_TUPLE_VALUES[field.type]))
    assert _PARSERS[field.name](_format_value(value)) == value


def base_config_text(out_dir, **extra):
    entries = {
        "n_train": 80,
        "n_test": 60,
        "rho": 0.4,
        "error_dist": "gaussian",
        "replication_seed": 7,
        "seed": 3,
        "hidden_sizes": "16,8",
        "basis_size": 6,
        "learning_rate": 0.01,
        "batch_size": 32,
        "max_epochs": 40,
        "out_dir": out_dir,
    }
    entries.update(extra)
    return "\n".join(f"{k} = {v}" for k, v in entries.items()) + "\n"


class TestSubcommands:
    def test_simulate_fit_predict_matches_in_process(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = write(tmp_path / "sim.cfg", base_config_text(out))
        assert main(["simulate", "--config", cfg_path]) == 0

        fit_cfg = write(
            tmp_path / "fit.cfg",
            base_config_text(
                out,
                kind="sfdnn",
                train_functional=out / "train_functional.csv",
                train_scalars=out / "train_scalars.csv",
                train_weights=out / "train_weights.txt",
            ),
        )
        assert main(["fit", "--config", fit_cfg]) == 0

        pred_cfg = write(
            tmp_path / "pred.cfg",
            base_config_text(
                out,
                kind="sfdnn",
                model_file=out / "model.txt",
                test_functional=out / "test_functional.csv",
                test_scalars=out / "test_scalars.csv",
                test_weights=out / "test_weights.txt",
            ),
        )
        assert main(["predict", "--config", pred_cfg]) == 0

        # in-process reference
        scenario = ScenarioConfig(
            n_train=80, n_test=60, rho=0.4, error_dist="gaussian", replication_seed=7
        )
        train, test, _ = generate_scenario_dataset(scenario)
        arch = NetworkArchitecture(3, (6, 6, 6), 3, (16, 8), ("relu", "relu"))
        tc = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=40, seed=3)
        model = fit_sfdnn(train, arch, tc)
        preds = predict_model(model, test)
        reference = compute_metrics(test.response, preds)

        metrics = {}
        for line in (out / "test_metrics.csv").read_text().splitlines()[1:]:
            key, value = line.split(",")
            metrics[key] = float(value)
        assert abs(metrics["mspe"] - reference.mse) < 1e-10
        assert abs(metrics["r2_test"] - reference.r2) < 1e-10

        train_metrics = {}
        for line in (out / "train_metrics.csv").read_text().splitlines()[1:]:
            key, value = line.split(",")
            train_metrics[key] = float(value)
        assert abs(train_metrics["mse"] - model.train_metrics["mse"]) < 1e-10

    def test_simulate_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg_a = write(tmp_path / "a.cfg", base_config_text(a))
        cfg_b = write(tmp_path / "b.cfg", base_config_text(b))
        assert main(["simulate", "--config", cfg_a]) == 0
        assert main(["simulate", "--config", cfg_b]) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_simulate_writes_only_into_out_dir(self, tmp_path):
        out = tmp_path / "only"
        cfg = write(tmp_path / "c.cfg", base_config_text(out))
        before = set(os.listdir(tmp_path))
        assert main(["simulate", "--config", cfg]) == 0
        after = set(os.listdir(tmp_path))
        assert after - before == {"only"}
        expected = {
            "train_functional.csv", "train_scalars.csv", "train_weights.txt",
            "test_functional.csv", "test_scalars.csv", "test_weights.txt",
        }
        assert set(os.listdir(out)) == expected

    def test_moran_alternating_two_cycle(self, tmp_path):
        out = tmp_path / "m"
        out.mkdir()
        scalars = write(
            tmp_path / "scalars.csv", "location_id,z1,y\n0,0.0,1\n1,0.0,-1\n"
        )
        weights = write(tmp_path / "w.txt", "n 2 row_normalized 1\n0 1 1\n1 0 1\n")
        cfg = write(
            tmp_path / "m.cfg",
            f"train_scalars = {scalars}\ntrain_weights = {weights}\nout_dir = {out}\n",
        )
        assert main(["moran", "--config", cfg]) == 0
        lines = (out / "moran.csv").read_text().splitlines()
        values = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(values, [-1.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_moran_rejects_a_non_finite_response(self, tmp_path, capsys, bad):
        out = tmp_path / "m"
        scalars = write(tmp_path / "scalars.csv", f"location_id,z1,y\n0,0.0,1\n1,0.0,{bad}\n")
        weights = write(tmp_path / "w.txt", "n 2 row_normalized 1\n0 1 1\n1 0 1\n")
        cfg = write(
            tmp_path / "m.cfg",
            f"train_scalars = {scalars}\ntrain_weights = {weights}\nout_dir = {out}\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["moran", "--config", cfg]) == EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["error_type"] == "DataError"
        assert err["message"] == "response at site 1 is NaN or infinite"
        assert not (out / "moran.csv").exists()

    def test_moran_log_transform_rejects_nonpositive_response(self, tmp_path, capsys):
        scalars = write(tmp_path / "scalars.csv", "location_id,z1,y\n0,0.0,1\n1,0.0,-1\n")
        weights = write(tmp_path / "w.txt", "n 2 row_normalized 1\n0 1 1\n1 0 1\n")
        cfg = write(
            tmp_path / "m.cfg",
            f"train_scalars = {scalars}\ntrain_weights = {weights}\nlog_transform = response\n"
            f"out_dir = {tmp_path / 'm'}\n",
        )
        assert main(["moran", "--config", cfg]) == EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["error_type"] == "DataError"
        assert err["message"] == f"{scalars}: log transform needs positive responses; row 1 has -1.0"

    def test_fit_log_transform_rejects_zero_response(self, tmp_path, capsys):
        out = tmp_path / "r"
        cfg_path = write(tmp_path / "sim.cfg", base_config_text(out))
        assert main(["simulate", "--config", cfg_path]) == 0
        scalars_path = out / "train_scalars.csv"
        lines = scalars_path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[-1] = "0"
        lines[1] = ",".join(parts)
        scalars_path.write_text("\n".join(lines) + "\n")

        fit_cfg = write(
            tmp_path / "fit.cfg",
            base_config_text(
                out,
                kind="fdnn",
                log_transform="response",
                train_functional=out / "train_functional.csv",
                train_scalars=out / "train_scalars.csv",
            ),
        )
        code = main(["fit", "--config", fit_cfg])
        assert code == EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == EXIT_DATA
        assert "row 0" in err["message"]

    def test_weights_by_size_and_coords(self, tmp_path):
        out = tmp_path / "w1"
        cfg = write(tmp_path / "w1.cfg", f"n_sites = 4\nout_dir = {out}\n")
        assert main(["weights", "--config", cfg]) == 0
        from sfdnn.spatial import build_inverse_distance_weights, load_weights

        back = load_weights(out / "weights.txt")
        np.testing.assert_array_equal(back.toarray(), build_inverse_distance_weights(4).toarray())

        coords = write(
            tmp_path / "coords.csv",
            "location_id,lat,lon\n0,0.0,0.0\n1,0.0,1.0\n2,1.0,0.0\n3,1.0,1.0\n",
        )
        out2 = tmp_path / "w2"
        cfg2 = write(
            tmp_path / "w2.cfg",
            f"coords_file = {coords}\nneighbor_count = 2\nout_dir = {out2}\n",
        )
        assert main(["weights", "--config", cfg2]) == 0
        knn = load_weights(out2 / "weights.txt")
        np.testing.assert_allclose(knn.row_sums(), 1.0, atol=1e-12)

    def test_weights_with_latitude_out_of_range_exits_3(self, tmp_path, capsys):
        coords = write(
            tmp_path / "coords.csv",
            "location_id,lat,lon\n0,0.0,0.0\n3,200.0,1.0\n2,1.0,0.0\n1,1.0,1.0\n",
        )
        cfg = write(tmp_path / "w.cfg", f"coords_file = {coords}\nneighbor_count = 2\nout_dir = {tmp_path / 'x'}\n")
        assert main(["weights", "--config", cfg]) == EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["error_type"] == "DataError"
        # the file and line, not the site's rank after sorting by location id
        assert err["message"] == f"{coords}:3: latitude outside [-90, 90] or longitude outside [-180, 180]"

    def test_weights_without_inputs_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "w.cfg", f"out_dir = {tmp_path / 'x'}\n")
        code = main(["weights", "--config", cfg])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == EXIT_CONFIG

    def test_config_error_exit_code_and_json(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad.cfg", "rho = 2.0\n")
        code = main(["fit", "--config", cfg])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["error_type"] == "ConfigError"
        assert err["context"]["problems"]

    @pytest.mark.parametrize(
        "flags,problem",
        [
            (["--kind", "spline"], "key 'kind': must be one of ml/fdnn/sfdnn"),
            (["--log-transform", "sqrt"], "key 'log_transform': must be none, response, or all"),
        ],
    )
    def test_bad_flag_is_json_config_error(self, capsys, flags, problem):
        assert main(["fit", *flags]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["error_type"] == "ConfigError"
        assert err["context"]["problems"] == [problem]

    @pytest.mark.parametrize("argv", [["fit", "--kind", "ml"], ["fit"], ["tune"], ["mc-bench"]])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, argv):
        cfg = write(tmp_path / "s.cfg", base_config_text(tmp_path / "s"))
        assert main([*argv, "--config", cfg, "--seed", "-1"]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["problems"] == ["key 'seed': must be nonnegative"]
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_simulate_rejects_nonfinite_beta0_naming_the_key(self, tmp_path, capsys, value):
        cfg = write(tmp_path / "s.cfg", base_config_text(tmp_path / "s", beta0=value))
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["problems"] == ["key 'beta0': must be finite"]

    def test_os_error_is_data_error_with_json(self, tmp_path, capsys):
        out = tmp_path / "r"
        sim_cfg = write(tmp_path / "sim.cfg", base_config_text(out))
        assert main(["simulate", "--config", sim_cfg]) == 0
        fit_cfg = write(
            tmp_path / "fit.cfg",
            base_config_text(
                tmp_path / "fit",
                kind="ml",
                train_functional=out / "train_functional.csv",
                train_scalars=out / "train_scalars.csv",
                train_weights=out,
            ),
        )
        capsys.readouterr()
        assert main(["fit", "--config", fit_cfg]) == EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == EXIT_DATA
        assert err["context"] == {"subcommand": "fit", "error_type": "IsADirectoryError"}
        assert str(out) in err["message"]

    def test_lin_alg_error_is_numeric_error_with_json(self, tmp_path, capsys, monkeypatch):
        def singular(n):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(spatial, "build_inverse_distance_weights", singular)
        cfg = write(tmp_path / "w.cfg", f"n_sites = 4\nout_dir = {tmp_path / 'w'}\n")
        assert main(["weights", "--config", cfg]) == EXIT_NUMERIC
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "code": EXIT_NUMERIC,
            "message": "Singular matrix",
            "context": {"subcommand": "weights", "error_type": "LinAlgError"},
        }

    def test_missing_input_paths_reported(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "fit.cfg",
            base_config_text(tmp_path / "o", train_functional=tmp_path / "nope.csv"),
        )
        code = main(["fit", "--config", cfg])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert any("does not exist" in p or "not set" in p for p in err["context"]["problems"])

    def test_tune_writes_cv_table(self, tmp_path):
        out = tmp_path / "t"
        sim_cfg = write(tmp_path / "sim.cfg", base_config_text(out, n_train=60, n_test=20))
        assert main(["simulate", "--config", sim_cfg]) == 0
        tune_cfg = write(
            tmp_path / "tune.cfg",
            base_config_text(
                out,
                kind="fdnn",
                train_functional=out / "train_functional.csv",
                train_scalars=out / "train_scalars.csv",
                tune_hidden_sizes="4|8",
                tune_max_epochs="15",
                tune_batch_sizes="16",
                tune_basis_sizes="5",
                tune_folds="3",
            ),
        )
        assert main(["tune", "--config", tune_cfg]) == 0
        lines = (out / "cv_table.csv").read_text().splitlines()
        assert len(lines) == 3  # header + two candidates
        rows = [line.split(",") for line in lines[1:]]
        winner = min(rows, key=lambda r: (float(r[10]), int(r[9]), int(r[0])))
        assert winner[1] == "8"
        assert (out / "best_config.txt").read_text() == (
            "hidden_sizes = 8\nactivations = relu\nlearning_rate = 0.01\nbatch_size = 16\n"
            "basis_size = 5\nweight_decay = 0.0\nmax_epochs = 15\n"
        )
        best = parse_config(str(out / "best_config.txt"))
        assert (best.hidden_sizes, best.activations, best.learning_rate, best.batch_size) == (
            (8,), ("relu",), 0.01, 16,
        )
        assert (best.basis_size, best.weight_decay, best.max_epochs) == (5, 0.0, 15)

    def test_tune_reads_coords_by_location_id(self, tmp_path):
        out = tmp_path / "t"
        sim_cfg = write(tmp_path / "sim.cfg", base_config_text(out, n_train=60, n_test=20))
        assert main(["simulate", "--config", sim_cfg]) == 0
        lat_lon = np.random.default_rng(5).uniform(-10.0, 10.0, size=(60, 2))
        tables = []
        for order in (np.arange(60), np.random.default_rng(6).permutation(60)):
            rows = "".join(f"{i},{lat_lon[i, 0]:.17g},{lat_lon[i, 1]:.17g}\n" for i in order)
            coords = write(tmp_path / "coords.csv", "location_id,lat,lon\n" + rows)
            tune_cfg = write(
                tmp_path / "tune.cfg",
                base_config_text(
                    out, kind="ml", train_functional=out / "train_functional.csv",
                    train_scalars=out / "train_scalars.csv", train_weights=out / "train_weights.txt",
                    coords_file=coords, tune_neighbor_counts="4,6", tune_folds="3",
                ),
            )
            assert main(["tune", "--config", tune_cfg]) == 0
            tables.append((out / "cv_table.csv").read_bytes())
        assert tables[0] == tables[1]
        assert len(tables[0].splitlines()) == 3

    def test_tune_honours_basis_degree(self, tmp_path):
        # basis size 3 is below the cubic minimum but fits at basis_degree = 2
        out = tmp_path / "t"
        sim_cfg = write(tmp_path / "sim.cfg", base_config_text(out, n_train=30, n_test=20))
        assert main(["simulate", "--config", sim_cfg]) == 0
        tune_cfg = write(
            tmp_path / "tune.cfg",
            base_config_text(
                out,
                kind="fdnn",
                train_functional=out / "train_functional.csv",
                train_scalars=out / "train_scalars.csv",
                basis_degree=2,
                basis_size=3,
                tune_basis_sizes="3",
                tune_hidden_sizes="4",
                tune_max_epochs="2",
                tune_folds="2",
            ),
        )
        assert main(["tune", "--config", tune_cfg]) == 0
        assert (out / "best_config.txt").read_text().count("basis_size = 3\n") == 1

    def test_plotdata_outputs(self, tmp_path):
        out = tmp_path / "p"
        cfg_path = write(tmp_path / "sim.cfg", base_config_text(out))
        assert main(["simulate", "--config", cfg_path]) == 0
        fit_cfg = write(
            tmp_path / "fit.cfg",
            base_config_text(
                out,
                kind="ml",
                train_functional=out / "train_functional.csv",
                train_scalars=out / "train_scalars.csv",
                train_weights=out / "train_weights.txt",
            ),
        )
        assert main(["fit", "--config", fit_cfg]) == 0
        plot_cfg = write(
            tmp_path / "plot.cfg",
            base_config_text(
                out,
                kind="ml",
                model_file=out / "model.txt",
                train_functional=out / "train_functional.csv",
                train_scalars=out / "train_scalars.csv",
                train_weights=out / "train_weights.txt",
                test_functional=out / "test_functional.csv",
                test_scalars=out / "test_scalars.csv",
                test_weights=out / "test_weights.txt",
            ),
        )
        assert main(["plotdata", "--config", plot_cfg]) == 0
        taylor = (out / "taylor.csv").read_text().splitlines()
        assert taylor[0] == "role,correlation,sd_observed,sd_predicted,centered_rmsd"
        assert len(taylor) == 3
        train_pairs = (out / "plotdata_train.csv").read_text().splitlines()
        assert len(train_pairs) == 81

    def test_plotdata_uses_the_models_log_transform(self, tmp_path):
        # the model was fitted on raw y, so a configured log transform must not
        # put log y next to raw-scale predictions
        out = tmp_path / "p"
        files = {
            f"{role}_{part}": out / f"{role}_{part}.{'txt' if part == 'weights' else 'csv'}"
            for role in ("train", "test")
            for part in ("functional", "scalars", "weights")
        }
        cfg = write(tmp_path / "sim.cfg", base_config_text(out, beta0=50.0))
        assert main(["simulate", "--config", cfg]) == 0
        fit_cfg = write(tmp_path / "fit.cfg", base_config_text(out, kind="ml", **files))
        assert main(["fit", "--config", fit_cfg]) == 0
        plot_cfg = write(
            tmp_path / "plot.cfg",
            base_config_text(out, model_file=out / "model.txt", log_transform="response", **files),
        )
        assert main(["plotdata", "--config", plot_cfg]) == 0
        for role in ("train", "test"):
            _, y, _ = read_scalars_csv(files[f"{role}_scalars"])
            pairs = np.loadtxt(out / f"plotdata_{role}.csv", delimiter=",", skiprows=1)
            assert np.array_equal(pairs[:, 1], y), role

    def test_mc_bench_smoke(self, tmp_path):
        out = tmp_path / "mc"
        cfg = write(
            tmp_path / "mc.cfg",
            "\n".join([
                "mc_n_trains = 60",
                "mc_rhos = 0.2",
                "mc_error_dists = gaussian",
                "mc_replications = 1",
                "n_test = 40",
                "max_epochs = 10",
                "batch_size = 32",
                "basis_size = 5",
                "hidden_sizes = 6",
                f"out_dir = {out}",
            ]) + "\n",
        )
        assert main(["mc-bench", "--config", cfg]) == 0
        lines = (out / "mc_table.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 4  # three kinds, four metrics
        assert (out / "mc_table.txt").read_text().strip()

    @settings(deadline=None, max_examples=4)
    @given(seed=st.integers(0, 2**31 - 1), rho=st.sampled_from(["-0.3", "0.2", "0.7"]))
    def test_mc_bench_tables_independent_of_jobs(self, seed, rho):
        tables = []
        with tempfile.TemporaryDirectory() as root:
            for jobs in ("1", "2"):
                out = os.path.join(root, f"jobs{jobs}")
                cfg = write(
                    Path(root) / "mc.cfg",
                    "\n".join([
                        "mc_n_trains = 40",
                        f"mc_rhos = {rho}",
                        "mc_error_dists = gaussian",
                        "mc_replications = 3",
                        "n_test = 30",
                        "max_epochs = 4",
                        "basis_size = 5",
                        "hidden_sizes = 6",
                        f"out_dir = {out}",
                    ]) + "\n",
                )
                assert main(["mc-bench", "--config", cfg, "--seed", str(seed), "--jobs", jobs]) == 0
                tables.append([Path(out, name).read_bytes() for name in ("mc_table.csv", "mc_table.txt")])
        assert tables[0] == tables[1]


FUNCTIONAL_HEADER = "location_id,predictor_id,u,value\n"
GOOD_FILES = {
    "functional": FUNCTIONAL_HEADER + "0,1,0,1.5\n0,1,1,2.5\n1,1,0,0.5\n1,1,1,-1\n",
    "scalars": "location_id,z1,y\n0,0.5,1\n1,-0.5,2\n",
    "coords": "location_id,lat,lon\n0,0.0,0.0\n1,0.0,1.0\n2,1.0,0.0\n3,1.0,1.0\n",
    "weights": "n 2 row_normalized 1\n0 1 1\n1 0 1\n",
}


def run_on_input(tmp_path, capsys, role, text):
    """Run the subcommand that reads ``role`` first; return (code, message, path).

    The role ``tune_coords`` is the coords file as ``tune`` reads it, after
    the training files.
    """
    file_role = "coords" if role == "tune_coords" else role
    paths = {}
    for name, good in GOOD_FILES.items():
        paths[name] = write(tmp_path / f"{name}.txt", text if name == file_role else good)
    out = tmp_path / "out"
    if role == "tune_coords":
        argv = ["tune", "--kind", "fdnn"]
        keys = {"train_functional": paths["functional"], "train_scalars": paths["scalars"],
                "coords_file": paths["coords"], "tune_neighbor_counts": 2}
    elif role in ("functional", "scalars"):
        argv = ["fit", "--kind", "fdnn"]
        keys = {"train_functional": paths["functional"], "train_scalars": paths["scalars"]}
    elif role == "coords":
        argv = ["weights"]
        keys = {"coords_file": paths["coords"], "neighbor_count": 2}
    else:
        argv = ["moran"]
        keys = {"train_scalars": paths["scalars"], "train_weights": paths["weights"]}
    cfg = write(tmp_path / "run.cfg", base_config_text(out, max_epochs=2, **keys))
    capsys.readouterr()
    code = main([*argv, "--config", cfg])
    err = json.loads(capsys.readouterr().err) if code else None
    return code, err, paths[file_role]


# (role, file text, expected message after the path)
MALFORMED_INPUTS = [
    ("functional", "location_id,predictor,u,value\n0,1,0,1\n",
     ": unexpected header 'location_id,predictor,u,value'"),
    ("functional", GOOD_FILES["functional"] + "2,1,0\n", ":6: expected 4 fields"),
    ("functional", FUNCTIONAL_HEADER + "0,1,0,1.5\n0,x,1,2.5\n", ":3: malformed row"),
    ("functional", FUNCTIONAL_HEADER + "0,1,0,1.5\n\n0,1,1,2.5e\n", ":4: malformed row"),
    ("functional", FUNCTIONAL_HEADER, ": no data rows"),
    ("functional", FUNCTIONAL_HEADER + "0,1,0,1\n0,1,1,2\n1,1,0,3\n1,1,0.5,4\n",
     ": location 1 of predictor 1 is not on the shared grid"),
    ("functional", GOOD_FILES["functional"] + "1,1,1,-1\n",
     ": location 1 of predictor 1 is not on the shared grid"),
    ("functional", GOOD_FILES["functional"] + "0,2,0,1\n0,2,1,2\n",
     ": predictor 2 covers a different location set"),
    ("functional", GOOD_FILES["functional"] + "0,2,0,1\n0,2,1,2\n2,2,0,1\n2,2,1,2\n",
     ": predictor 2 covers a different location set"),
    ("functional", FUNCTIONAL_HEADER + "0,1,0,1\n0,1,0.5,2\n1,1,0,3\n1,1,0.5,4\n",
     ": grid endpoints must be exactly 0 and 1"),
    ("functional", FUNCTIONAL_HEADER + "0,1,0,1\n0,1,0,2\n1,1,0,3\n1,1,0,4\n",
     ": grid points must be strictly ascending"),
    ("functional", FUNCTIONAL_HEADER + "0,1,0,1\n1,1,0,3\n", ": grid needs at least 2 points"),
    ("scalars", "id,z1,y\n0,0.5,1\n", ": expected header 'location_id,z1..zJ,y'"),
    ("scalars", "location_id,z1,y\n0,0.5,1\n1,-0.5\n", ":3: expected 3 fields"),
    ("scalars", "location_id,z1,y\n0,0.5,1\n1,abc,2\n", ":3: malformed row"),
    # rows numpy refuses that int() and float() read: spaces on a CSV line, a digit separator
    ("scalars", "location_id,z1,y\n0,0.5,1\n   \n1,-0.5,2\n", ":3: expected 3 fields"),
    ("scalars", "location_id,z1,y\n0,1_000,1\n", ":2: malformed row"),
    ("scalars", "location_id,z1,y\n", ": no data rows"),
    ("scalars", "location_id,z1,y\n0,0.5,1\n2,-0.5,2\n", ": location ids differ from the functional file's"),
    ("coords", "location_id,lon,lat\n0,0.0,0.0\n", ": expected header 'location_id,lat,lon'"),
    ("coords", "location_id,lat,lon\n0,0.0\n", ":2: expected 3 fields"),
    ("coords", "location_id,lat,lon\n0,0.0,1.0\n1.5,0.0,east\n", ":3: malformed row"),
    ("coords", "location_id,lat,lon\n", ": no data rows"),
    ("tune_coords", "location_id,lat,lon\n100,0.0,0.0\n101,0.0,1.0\n",
     ": location ids differ from the training files'"),
    ("tune_coords", "location_id,lat,lon\n1,0.0,1.0\n", ": location ids differ from the training files'"),
    ("weights", "n 2 normalized 1\n0 1 1\n", ": malformed weight-matrix header"),
    ("weights", "n 2 row_normalized 1\n0 1\n1 0 1\n", ":2: expected 'i j w' triple"),
    ("weights", "n 2 row_normalized 1\n0 1 one\n1 0 1\n", ":2: expected 'i j w' triple"),
    ("weights", "n 2 row_normalized 1\n0 1 1_0\n1 0 1\n", ":2: expected 'i j w' triple"),
    ("weights", "n 2 row_normalized 1\n0 1 1\n\n1 2 1\n", ":4: index outside [0, 2)"),
]


class TestInputFiles:
    @pytest.mark.parametrize("role,text,suffix", MALFORMED_INPUTS)
    def test_malformed_input_exits_3_with_location(self, tmp_path, capsys, role, text, suffix):
        code, err, path = run_on_input(tmp_path, capsys, role, text)
        assert code == EXIT_DATA
        assert err["message"] == path + suffix
        assert err["context"]["error_type"] == "DataError"

    @pytest.mark.parametrize("role", sorted(GOOD_FILES))
    def test_good_inputs_pass(self, tmp_path, capsys, role):
        assert run_on_input(tmp_path, capsys, role, GOOD_FILES[role])[0] == 0

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("n 3 row_normalized 0\n0 1 0.25\n0 1 0.5\n", "duplicate"),
            ("n 3001 row_normalized 0\n0 1 0.25\n2 1 1\n0 1 0.5\n", "duplicate"),
            ("n 2 row_normalized 0\n0 1 nan\n1 0 1\n", "finite"),
            ("n 2 row_normalized 0\n0 1 1\n1 0 -inf\n", "finite"),
            ("n 2 row_normalized 0\n0 0 1\n1 0 1\n", "diagonal"),
            ("n 2 row_normalized 0\n0 1 -0.5\n1 0 1\n", "nonnegative"),
            ("n 2 row_normalized 1\n0 1 0.5\n1 0 1\n", "sum to 1"),
        ],
    )
    def test_bad_weight_values_exit_3_naming_the_file(self, tmp_path, capsys, text, needle):
        code, err, path = run_on_input(tmp_path, capsys, "weights", text)
        assert code == EXIT_DATA
        assert err["context"]["error_type"] == "DataError"
        assert err["message"].startswith(path + ":")
        assert needle in err["message"]

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("n 2 row_normalized 1 inverse_distance\n0 1 1\n", "takes no 'i j w' lines"),
            ("n 2 row_normalized 0 inverse_distance\n", "needs row_normalized 1"),
            ("n 1 row_normalized 1 inverse_distance\n", "n >= 2"),
            ("n 2 row_normalized 1 knn\n", "unknown weight-matrix form 'knn'"),
        ],
    )
    def test_bad_inverse_distance_header_exits_3_naming_the_file(self, tmp_path, capsys, text, needle):
        code, err, path = run_on_input(tmp_path, capsys, "weights", text)
        assert code == EXIT_DATA
        assert err["context"]["error_type"] == "DataError"
        assert err["message"].startswith(path + ":")
        assert needle in err["message"]

    @pytest.mark.parametrize("flag", ["2", "7", "-1"])
    def test_weight_flag_other_than_0_or_1_exits_3(self, tmp_path, capsys, flag):
        text = f"n 2 row_normalized {flag}\n0 1 1\n1 0 1\n"
        code, err, path = run_on_input(tmp_path, capsys, "weights", text)
        assert code == EXIT_DATA
        assert err["message"] == path + ": malformed weight-matrix header"

    def test_inverse_distance_header_is_a_good_weight_file(self, tmp_path, capsys):
        assert run_on_input(tmp_path, capsys, "weights", "n 2 row_normalized 1 inverse_distance\n")[0] == 0

    @pytest.mark.parametrize(
        "text",
        [
            "SFDNN-MODEL 1\nkind ml\n",
            "SFDNN-MODEL 1\nkind ml\nrho_hat x\n",
            "SFDNN-MODEL 1\nkind fdnn\nrho_hat none\nat_boundary 0\nvariance_threshold none\n"
            "train_metrics 1 0\ngrid 2 0 1\nfeature_mean 1\n",
        ],
    )
    def test_truncated_model_file_exits_3_naming_the_file(self, tmp_path, capsys, text):
        model = write(tmp_path / "model.txt", text)
        cfg = write(tmp_path / "p.cfg", f"model_file = {model}\nout_dir = {tmp_path / 'p'}\n")
        assert main(["predict", "--config", cfg]) == EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["error_type"] == "DataError"
        assert err["message"].startswith(model + ":")


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """A predict config's path entries and the model.txt lines of one ml and one fdnn fit."""
    root = tmp_path_factory.mktemp("models")
    sim = root / "sim"
    assert main(["simulate", "--config", write(root / "sim.cfg", base_config_text(sim))]) == 0
    inputs = {f"{role}_{name}": sim / f"{role}_{name}.{ext}"
              for role in ("train", "test") for name, ext in
              (("functional", "csv"), ("scalars", "csv"), ("weights", "txt"))}
    models = {}
    for kind in ("ml", "fdnn"):
        cfg = write(root / f"{kind}.cfg", base_config_text(root / kind, kind=kind, max_epochs=2, **inputs))
        assert main(["fit", "--config", cfg]) == 0
        models[kind] = (root / kind / "model.txt").read_text().splitlines()
    return inputs, models


def line_index(lines, key):
    return [line.split()[:1] for line in lines].index([key])


def edit_line(key, edit):
    def garble(lines):
        i = line_index(lines, key)
        return lines[:i] + [edit(lines[i].split())] + lines[i + 1:]
    return garble


def swap_lines(a, b):
    def garble(lines):
        lines = list(lines)
        i, j = line_index(lines, a), line_index(lines, b)
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    return garble


GARBLED_MODELS = {
    "ml theta one value short": ("ml", edit_line("theta", lambda p: " ".join(p[:-1]))),
    "ml grid count one too low": (
        "ml", edit_line("grid", lambda p: " ".join([p[0], str(int(p[1]) - 1), *p[2:]]))
    ),
    "ml mean one value long": ("ml", edit_line("mean", lambda p: " ".join(p + ["0"]))),
    "ml unknown kind": ("ml", edit_line("kind", lambda p: "kind spline")),
    "ml lines after the last eigenfunction": (
        "ml", lambda lines: lines + ["eigenfunction 1 2 3", "garbage here"]
    ),
    "fdnn feature_mean and feature_sd swapped": ("fdnn", swap_lines("feature_mean", "feature_sd")),
    "fdnn scalar_sd one value short": ("fdnn", edit_line("scalar_sd", lambda p: " ".join(p[:-1]))),
    "fdnn basis below its minimum size": ("fdnn", edit_line("basis", lambda p: "basis 3 2")),
    "fdnn parameter header out of order": ("fdnn", swap_lines("scalars", "hidden")),
}


@pytest.mark.parametrize("case", sorted(GARBLED_MODELS))
def test_garbled_model_file_exits_3_naming_the_file(tmp_path, capsys, saved_models, case):
    inputs, models = saved_models
    kind, garble = GARBLED_MODELS[case]
    lines = garble(models[kind])
    assert lines != models[kind]
    model = write(tmp_path / "model.txt", "\n".join(lines) + "\n")
    cfg = write(tmp_path / "p.cfg", base_config_text(tmp_path / "p", model_file=model, **inputs))
    capsys.readouterr()
    assert main(["predict", "--config", cfg]) == EXIT_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["context"]["error_type"] == "DataError"
    assert err["message"].startswith(model + ":")


def test_saved_models_predict(tmp_path, saved_models):
    inputs, models = saved_models
    for kind, lines in models.items():
        model = write(tmp_path / f"{kind}.txt", "\n".join(lines) + "\n")
        cfg = write(tmp_path / f"{kind}.cfg", base_config_text(tmp_path / kind, model_file=model, **inputs))
        assert main(["predict", "--config", cfg]) == 0


def tensor_index(lines, name):
    return [line.split()[:2] for line in lines].index(["tensor", name])


def edit_tensor(name, edit):
    """Replace the ``name`` tensor line by the lines ``edit(line)`` returns."""
    def garble(lines):
        i = tensor_index(lines, name)
        return lines[:i] + edit(lines[i]) + lines[i + 1:]
    return garble


def swap_tensors(a, b):
    def garble(lines):
        lines = list(lines)
        i, j = tensor_index(lines, a), tensor_index(lines, b)
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    return garble


# parameter blocks that the reader once loaded silently or failed on with a bare error
GARBLED_PARAMETER_BLOCKS = {
    "bias_2 missing": edit_tensor("bias_2", lambda line: []),
    "bias_0 one value short": edit_tensor("bias_0", lambda line: [line.rsplit(" ", 1)[0]]),
    "bias_0 value not a number": edit_tensor("bias_0", lambda line: [line.rsplit(" ", 1)[0] + " 1.5x"]),
    "scalar_weights duplicated": edit_tensor("scalar_weights", lambda line: [line, line]),
    "unknown tensor after the last": lambda lines: lines + ["tensor extra 1 1 0.5"],
    "hidden weights reordered": swap_tensors("hidden_weights_0", "hidden_weights_1"),
    "scalar count not a number": lambda lines: [
        "scalars x" if line.startswith("scalars ") else line for line in lines
    ],
}


@pytest.mark.parametrize("case", sorted(GARBLED_PARAMETER_BLOCKS))
def test_garbled_parameter_block_is_rejected(tmp_path, capsys, saved_models, case):
    inputs, models = saved_models
    lines = GARBLED_PARAMETER_BLOCKS[case](models["fdnn"])
    assert lines != models["fdnn"]
    block = lines[line_index(lines, "parameters") + 1:]
    with pytest.raises(DimensionError):
        parameters_from_lines(block)
    with pytest.raises(DimensionError):
        load_parameters(write(tmp_path / "net.txt", "\n".join(block) + "\n"))
    model = write(tmp_path / "model.txt", "\n".join(lines) + "\n")
    cfg = write(tmp_path / "p.cfg", base_config_text(tmp_path / "p", model_file=model, **inputs))
    capsys.readouterr()
    assert main(["predict", "--config", cfg]) == EXIT_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["context"]["error_type"] == "DataError"
    assert err["message"].startswith(model + ":")


def widen_scalars(text):
    """Repeat the first scalar column as an extra column ``z4`` before ``y``."""
    header, *rows = text.splitlines()
    lines = [header.replace(",y", ",z4,y")]
    for row in rows:
        values = row.split(",")
        lines.append(",".join(values[:-1] + [values[1], values[-1]]))
    return "\n".join(lines) + "\n"


def widen_functional(text):
    """Repeat predictor 1 as an extra predictor 4."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    extra = [",".join([loc, "4", u, value]) for loc, pred, u, value in rows if pred == "1"]
    return "\n".join(lines + extra) + "\n"


@pytest.mark.parametrize("kind", ["ml", "fdnn"])
@pytest.mark.parametrize(
    "role, widen, what, expected",
    [
        ("test_scalars", widen_scalars, "scalar covariates", 3),
        ("test_functional", widen_functional, "functional predictors", 3),
    ],
    ids=["extra-z4", "extra-predictor"],
)
def test_predict_rejects_test_data_of_another_width(
    tmp_path, capsys, saved_models, kind, role, widen, what, expected
):
    inputs, models = saved_models
    model = write(tmp_path / "model.txt", "\n".join(models[kind]) + "\n")
    wide = write(tmp_path / f"{role}.csv", widen(inputs[role].read_text()))
    cfg = write(
        tmp_path / "p.cfg",
        base_config_text(tmp_path / "p", model_file=model, **{**inputs, role: wide}),
    )
    capsys.readouterr()
    assert main(["predict", "--config", cfg]) == EXIT_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["context"]["error_type"] == "DimensionError"
    assert err["message"] == f"the model expects {expected} {what}, the data has {expected + 1}"


def run_python(code):
    """Standard output of ``code`` run in a fresh interpreter on the package source."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return proc.stdout.strip()


def test_python_dash_m_runs_the_cli(tmp_path):
    # a source checkout has no console script; ``python -m sfdnn`` is the CLI there
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    cfg = write(tmp_path / "bad.cfg", "rho = 2.0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "sfdnn", "fit", "--config", str(cfg)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_CONFIG
    err = json.loads(proc.stderr)
    assert (err["code"], err["context"]["error_type"]) == (EXIT_CONFIG, "ConfigError")


def test_cli_import_leaves_slow_scipy_modules_unloaded():
    lazy = ["scipy.optimize", "scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.spatial", "scipy.special"]
    assert run_python(f"import sys, sfdnn.cli; print([m for m in {lazy!r} if m in sys.modules])") == "[]"


def test_dense_cli_route_never_imports_scipy(tmp_path):
    sim = tmp_path / "sim"
    base = {"n_train": 40, "n_test": 30, "grid_points": 21, "max_epochs": 2}
    configs = {"simulate": write(tmp_path / "sim.cfg", base_config_text(sim, **base))}
    inputs = {f"{role}_{name}": sim / f"{role}_{name}.{ext}"
              for role in ("train", "test") for name, ext in
              (("functional", "csv"), ("scalars", "csv"), ("weights", "txt"))}
    argvs = [["simulate", "--config", configs["simulate"]]]
    for kind in ("ml", "sfdnn"):
        cfg = write(tmp_path / f"{kind}.cfg", base_config_text(
            tmp_path / kind, kind=kind, model_file=tmp_path / kind / "model.txt", **base, **inputs))
        argvs += [["fit", "--config", cfg], ["predict", "--config", cfg]]
    code = (
        "import sys\n"
        "from sfdnn import cli\n"
        f"for argv in {argvs!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    assert run_python(code) == "[]"
    assert (sim / "train_weights.txt").read_text() == "n 40 row_normalized 1 inverse_distance\n"


def test_sparse_ml_fit_leaves_scipy_optimize_unloaded():
    # a KNN W is sparse at every size and the likelihood takes the LU route
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from sfdnn import spatial\n"
        "rng = np.random.default_rng(3)\n"
        "W = spatial.build_knn_bisquare_weights(rng.uniform(-20.0, 20.0, (3100, 2)), 4)\n"
        "X = np.column_stack([np.ones(W.n), rng.normal(size=W.n)])\n"
        "y = spatial.apply_spatial_filter(W, 0.5, X @ np.array([1.0, 2.0]) + rng.normal(size=W.n))\n"
        "assert W.is_sparse and W.eigenvalues() is None\n"
        "spatial.estimate_rho_ml(y, X, W)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    assert run_python(code) == "False"
