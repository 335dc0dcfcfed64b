"""Tests for metrics, Taylor statistics, tuning, and the study driver."""

import numpy as np
import pytest

from sfdnn import evaluation, spatial
from sfdnn.basis import make_bspline_basis
from sfdnn.errors import DegenerateVarianceError, FoldSizeError, InvalidSizeError
from sfdnn.evaluation import (
    CandidateConfig,
    TuneGrid,
    compute_metrics,
    kfold_tune,
    monte_carlo_study,
    taylor_stats,
)
from sfdnn.fdnn import TrainConfig, init_parameters, predict
from sfdnn.pipeline import RegressionDataset, _spline_features, fit_ml_baseline, predict_model
from sfdnn.simgen import ScenarioConfig, generate_scenario_dataset
from sfdnn.spatial import build_inverse_distance_weights, build_knn_bisquare_weights


class TestComputeMetrics:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        m = compute_metrics(y, y, "train")
        assert m.mse == 0.0 and m.r2 == 1.0

    def test_mean_prediction_gives_zero_r2(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        m = compute_metrics(y, np.full(4, y.mean()), "test")
        assert abs(m.r2) < 1e-12

    def test_matches_direct_formulas(self):
        rng = np.random.default_rng(5)
        y, yhat = rng.normal(size=9), rng.normal(size=9)
        m = compute_metrics(y, yhat, "train")
        mse = np.sum((y - yhat) ** 2) / 9
        r2 = 1 - np.sum((y - yhat) ** 2) / np.sum((y - y.mean()) ** 2)
        assert abs(m.mse - mse) < 1e-14
        assert abs(m.r2 - r2) < 1e-14

    def test_constant_response_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            compute_metrics(np.ones(5), np.zeros(5), "train")

    def test_intercept_only_fit_scores_zero(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=50)
        m = compute_metrics(y, np.full(50, y.mean()), "train")
        assert abs(m.r2) < 1e-12


class TestTaylorStats:
    def test_perfect_prediction(self):
        y = np.array([0.5, 1.5, -2.0, 0.25])
        t = taylor_stats(y, y)
        assert t.correlation == pytest.approx(1.0)
        assert t.centered_rmsd == pytest.approx(0.0, abs=1e-14)
        assert t.sd_predicted == pytest.approx(t.sd_observed)

    def test_sign_flip_gives_negative_correlation(self):
        y = np.array([1.0, -1.0, 2.0, -2.0])
        t = taylor_stats(y, -y)
        assert t.correlation == pytest.approx(-1.0)

    def test_taylor_identity(self):
        rng = np.random.default_rng(7)
        y, yhat = rng.normal(size=20), rng.normal(size=20)
        t = taylor_stats(y, yhat)
        rhs = (
            t.sd_observed**2
            + t.sd_predicted**2
            - 2.0 * t.sd_observed * t.sd_predicted * t.correlation
        )
        assert abs(t.centered_rmsd**2 - rhs) < 1e-10

    def test_degenerate_variance_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            taylor_stats(np.ones(4), np.arange(4.0))


def tiny_dataset(seed, n=60):
    cfg = ScenarioConfig(n_train=n, n_test=10, rho=0.0, error_dist="gaussian", replication_seed=seed)
    train, _, _ = generate_scenario_dataset(cfg)
    return train


class TestKfoldTune:
    def test_single_candidate_returned(self):
        data = tiny_dataset(1)
        grid = TuneGrid(hidden_sizes=[(4,)], max_epochs=[20])
        best, table = kfold_tune(data, "fdnn", grid, num_folds=3, seed=0)
        assert best.hidden_sizes == (4,)
        assert len(table) == 1

    def test_duplicate_candidates_tie_break_deterministic(self):
        data = tiny_dataset(2)
        grid = TuneGrid(hidden_sizes=[(4,), (4,)], max_epochs=[15])
        best_a, table_a = kfold_tune(data, "fdnn", grid, num_folds=3, seed=4)
        best_b, table_b = kfold_tune(data, "fdnn", grid, num_folds=3, seed=4)
        assert table_a[0]["cv_mspe"] == table_a[1]["cv_mspe"]
        assert best_a == best_b
        assert [r["cv_mspe"] for r in table_a] == [r["cv_mspe"] for r in table_b]

    def test_planted_candidate_wins_most_seeds(self):
        # response generated by a two-neuron tanh map inside a 5-neuron
        # architecture; a 1-neuron identity candidate underfits, so the
        # winner's capacity should not fall below the planted architecture's
        base = tiny_dataset(3, n=90)
        planted = CandidateConfig(
            hidden_sizes=(5,), activation="tanh", learning_rate=0.02,
            batch_size=16, basis_size=5, weight_decay=0.0, max_epochs=150,
        )
        arch = planted.architecture(3, 3)
        params = init_parameters(arch, 99)
        for _, tensor, _ in params.tensors():
            tensor[...] = 0.0
        params.scalar_weights[0, 0] = 1.5
        params.func_weights[1, 2] = 8.0
        params.hidden_weights[0][...] = [[3.0, 3.0, 0.0, 0.0, 0.0]]
        bases = [make_bspline_basis(3, 5)] * 3
        features = _spline_features(base.functional, base.grid, bases)
        rng = np.random.default_rng(12)
        response = predict(params, features, base.scalars) + 0.05 * rng.normal(size=base.n)
        data = RegressionDataset(
            functional=base.functional, grid=base.grid, scalars=base.scalars,
            response=response, weights=None,
        )
        grid = TuneGrid(
            hidden_sizes=[(1,), (5,)],
            activations=["identity", "tanh"],
            learning_rates=[0.02],
            batch_sizes=[16],
            basis_sizes=[5],
            max_epochs=[150],
        )
        planted_size = planted.num_parameters(3, 3)
        wins = 0
        for seed in range(20):
            best, _ = kfold_tune(data, "fdnn", grid, num_folds=3, seed=seed)
            if best.num_parameters(3, 3) >= planted_size:
                wins += 1
        assert wins >= 16

    def test_fold_size_guard(self):
        data = tiny_dataset(4, n=8)
        grid = TuneGrid(hidden_sizes=[(2,)], max_epochs=[5])
        with pytest.raises(FoldSizeError):
            kfold_tune(data, "fdnn", grid, num_folds=5, seed=0)

    def test_neighbor_count_requires_coords(self):
        data = tiny_dataset(5)
        grid = TuneGrid(hidden_sizes=[(2,)], max_epochs=[5], neighbor_counts=[3])
        with pytest.raises(InvalidSizeError):
            kfold_tune(data, "sfdnn", grid, num_folds=3, seed=0)

    @pytest.mark.parametrize("kind", ["ml", "fdnn"])
    def test_neighbor_count_requires_coords_for_every_kind(self, kind):
        data = tiny_dataset(5)
        grid = TuneGrid(hidden_sizes=[(2,)], max_epochs=[5], neighbor_counts=[None, 3])
        with pytest.raises(InvalidSizeError, match="requires site coordinates"):
            kfold_tune(data, kind, grid, num_folds=3, seed=0)

    @pytest.mark.parametrize(
        "kind, neighbor_counts, distinct",
        [
            # ml reads only the weights: one cross-validation per neighbor count
            ("ml", [4, 6], 2),
            ("ml", [None, 4, None], 2),
            # fdnn ignores the weights: one per network setting
            ("fdnn", [None, 4, 6], 4),
            # sfdnn reads both: every candidate is distinct
            ("sfdnn", [None, 4], 8),
        ],
    )
    def test_distinct_candidates_fit_once(self, monkeypatch, kind, neighbor_counts, distinct):
        data = tiny_dataset(6, n=40)
        coords = np.random.default_rng(6).uniform(-10.0, 10.0, (40, 2))
        grid = TuneGrid(
            hidden_sizes=[(3,), (4,)], learning_rates=[0.01, 0.02], batch_sizes=[16],
            basis_sizes=[5], max_epochs=[4], neighbor_counts=neighbor_counts,
        )
        expected = brute_force_tune(data, kind, grid, 3, 2, coords)
        fits = []
        fit_kind = evaluation._fit_kind

        def counted(*args):
            fits.append(args[2])
            return fit_kind(*args)

        monkeypatch.setattr(evaluation, "_fit_kind", counted)
        best, table = kfold_tune(data, kind, grid, num_folds=3, seed=2, coords=coords)
        assert len(fits) == 3 * distinct
        assert (best, table) == expected


def brute_force_tune(data, kind, grid, num_folds, seed, coords):
    """Every candidate cross-validated on its own weights, in grid order."""
    perm = np.random.default_rng(seed).permutation(data.n)
    folds = np.array_split(perm, num_folds)
    table, best, best_key = [], None, None
    for index, cand in enumerate(grid.candidates()):
        cand_data = data
        if cand.neighbor_count is not None:
            cand_data = RegressionDataset(
                functional=data.functional, grid=data.grid, scalars=data.scalars,
                response=data.response,
                weights=build_knn_bisquare_weights(coords, cand.neighbor_count),
            )
        total_sq = 0.0
        for fold in folds:
            held = np.sort(fold)
            rest = np.sort(np.setdiff1d(perm, fold))
            fit = evaluation._fit_kind(kind, cand_data.subset(rest), cand, seed, 0.95, 3)
            preds = predict_model(fit, cand_data.subset(held))
            total_sq += float(np.sum((preds - cand_data.response[held]) ** 2))
        cv_mspe = total_sq / data.n
        size = cand.num_parameters(data.num_functional, data.num_scalar)
        table.append({"index": index, "candidate": cand, "cv_mspe": cv_mspe, "size": size})
        if best_key is None or (cv_mspe, size, index) < best_key:
            best_key, best = (cv_mspe, size, index), cand
    return best, table


def small_scenarios():
    return [
        ScenarioConfig(n_train=60, n_test=50, rho=0.2, error_dist="gaussian"),
        ScenarioConfig(n_train=60, n_test=50, rho=0.7, error_dist="gaussian"),
    ]


def quick_config():
    return TrainConfig(learning_rate=0.02, batch_size=32, max_epochs=25, seed=0)


class TestMonteCarloStudy:
    def test_single_replication_reports_zero_sd(self):
        table = monte_carlo_study(
            small_scenarios()[:1], ("ml",), num_replications=1, base_seed=3
        )
        report = table.reports[0]
        assert report.num_ok == 1
        assert report.sd("mspe") == 0.0

    def test_kinds_paired_and_order_invariant(self):
        scenarios = small_scenarios()
        both = monte_carlo_study(
            scenarios, ("ml", "fdnn"), num_replications=2, base_seed=7, config=quick_config()
        )
        ml_only = monte_carlo_study(
            scenarios[::-1], ("ml",), num_replications=2, base_seed=7, config=quick_config()
        )
        for scenario in scenarios:
            a = both.report(scenario, "ml")
            b = ml_only.report(scenario, "ml")
            np.testing.assert_array_equal(a.mspe, b.mspe)
            np.testing.assert_array_equal(a.mse, b.mse)

    def test_parallel_schedule_matches_serial(self):
        scenario = small_scenarios()[0]
        serial = monte_carlo_study(
            [scenario], ("ml", "sfdnn"), num_replications=3, base_seed=11, config=quick_config()
        )
        threaded = monte_carlo_study(
            [scenario], ("ml", "sfdnn"), num_replications=3, base_seed=11,
            config=quick_config(), jobs=3,
        )
        for kind in ("ml", "sfdnn"):
            np.testing.assert_array_equal(
                serial.report(scenario, kind).mspe, threaded.report(scenario, kind).mspe
            )

    def test_csv_and_text_outputs(self):
        scenario = small_scenarios()[0]
        table = monte_carlo_study(
            [scenario], ("ml", "fdnn"), num_replications=2, base_seed=5, config=quick_config()
        )
        lines = table.to_csv_lines()
        assert lines[0] == "n_train,rho,error_dist,kind,metric,mean,sd,n_ok,n_failed,n_boundary"
        assert len(lines) == 1 + 2 * 4  # two kinds, four metrics
        assert all(line.split(",")[-1].isdigit() for line in lines[1:])
        text = table.format_text()
        assert "ml:mspe" in text
        assert "(" in text

    def test_linear_algebra_failure_recorded_per_replication(self, monkeypatch):
        def singular_fit(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(evaluation, "fit_fdnn_model", singular_fit)
        scenario = small_scenarios()[0]
        table = monte_carlo_study([scenario], ("ml", "fdnn"), num_replications=1, base_seed=3)
        failed = table.report(scenario, "fdnn")
        assert failed.num_ok == 0
        assert failed.failures == [(0, "LinAlgError: Singular matrix")]
        assert table.report(scenario, "ml").num_ok == 1
        fdnn_rows = [line for line in table.to_csv_lines() if ",fdnn," in line]
        assert all(line.split(",")[-2] == "1" for line in fdnn_rows)  # n_failed

    def test_replication_count_validated(self):
        with pytest.raises(InvalidSizeError):
            monte_carlo_study(small_scenarios(), ("ml",), num_replications=0, base_seed=1)


class TestSharedInverseDistanceWeights:
    def test_one_spectrum_per_size(self, monkeypatch):
        build_inverse_distance_weights.cache_clear()
        eigvalsh = np.linalg.eigvalsh
        shapes = []

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for seed in (1, 2):
            cfg = ScenarioConfig(
                n_train=70, n_test=50, rho=0.5, error_dist="gaussian", replication_seed=seed
            )
            train, test, _ = generate_scenario_dataset(cfg)
            predict_model(fit_ml_baseline(train), test)
        assert shapes == [(70, 70)]

    def test_study_table_independent_of_the_cache(self, monkeypatch):
        scenarios = [
            ScenarioConfig(n_train=60, n_test=50, rho=rho, error_dist="gaussian")
            for rho in (0.3, 0.8)
        ]

        def study(jobs=1):
            table = monte_carlo_study(
                scenarios, ("ml", "sfdnn"), num_replications=3, base_seed=21,
                config=quick_config(), jobs=jobs,
            )
            return table.to_csv_lines(), table.format_text()

        for n in (60, 50):
            build_inverse_distance_weights(n).eigenvalues()
        warm = study()
        generate = evaluation.generate_scenario_dataset

        def cold_generate(cfg):
            spatial.build_inverse_distance_weights.cache_clear()
            return generate(cfg)

        monkeypatch.setattr(evaluation, "generate_scenario_dataset", cold_generate)
        assert study() == warm
        assert study(jobs=2) == warm
