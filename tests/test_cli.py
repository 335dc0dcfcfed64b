"""Tests for the command-line interface: config, subcommands, exit codes."""

import json
import os

import numpy as np
import pytest

from sfdnn import spatial
from sfdnn.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    RunConfig,
    main,
    parse_config,
    serialize_config,
)
from sfdnn.errors import ConfigError
from sfdnn.evaluation import compute_metrics
from sfdnn.fdnn import NetworkArchitecture, TrainConfig
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
            "n_train = 77\nrho = -0.3\nhidden_sizes = 5,3\nactivations = tanh\n"
            "tune_hidden_sizes = 8,4|16\ntune_neighbor_counts = none,4\n"
            "learning_rate = 0.025\ndouble_filter_errors = true\nkind = fdnn\n",
        )
        cfg = parse_config(path)
        again = write(tmp_path / "again.cfg", serialize_config(cfg))
        assert parse_config(again) == cfg

    def test_round_trip_of_defaults(self, tmp_path):
        cfg = RunConfig()
        path = write(tmp_path / "defaults.cfg", serialize_config(cfg))
        assert parse_config(path) == cfg


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
        reference = compute_metrics(test.response, preds, "test")

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
        best = (out / "best_config.txt").read_text()
        assert "hidden_sizes" in best

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
