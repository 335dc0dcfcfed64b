"""Tests for metrics, Taylor statistics, tuning, and the study driver."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from sfdnn import evaluation, pipeline, spatial
from sfdnn.basis import make_bspline_basis
from sfdnn.errors import (
    DataError,
    DegenerateVarianceError,
    FoldSizeError,
    InvalidArchitectureError,
    InvalidSizeError,
)
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
from sfdnn.spatial import SpatialFilterFactor, build_inverse_distance_weights, build_knn_bisquare_weights


class TestComputeMetrics:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        m = compute_metrics(y, y)
        assert m.mse == 0.0 and m.r2 == 1.0

    def test_mean_prediction_gives_zero_r2(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        m = compute_metrics(y, np.full(4, y.mean()))
        assert abs(m.r2) < 1e-12

    def test_matches_direct_formulas(self):
        rng = np.random.default_rng(5)
        y, yhat = rng.normal(size=9), rng.normal(size=9)
        m = compute_metrics(y, yhat)
        mse = np.sum((y - yhat) ** 2) / 9
        r2 = 1 - np.sum((y - yhat) ** 2) / np.sum((y - y.mean()) ** 2)
        assert abs(m.mse - mse) < 1e-14
        assert abs(m.r2 - r2) < 1e-14

    def test_constant_response_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            compute_metrics(np.ones(5), np.zeros(5))

    def test_intercept_only_fit_scores_zero(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=50)
        m = compute_metrics(y, np.full(50, y.mean()))
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


@pytest.mark.parametrize("metric", [compute_metrics, taylor_stats])
@pytest.mark.parametrize("side", ["observations", "predictions"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_pairs_are_refused(metric, side, bad):
    y, yhat = np.array([0.5, 1.5, -2.0, 0.25]), np.array([0.4, 1.0, -1.0, 0.5])
    (y if side == "observations" else yhat)[2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"^{side} contain NaN or infinite values"):
            metric(y, yhat)


def count_fits(monkeypatch):
    """The list to which each later ``evaluation.fit_kind`` call appends its architecture."""
    fits = []
    fit_kind = evaluation.fit_kind

    def counted(*args):
        fits.append(args[2])
        return fit_kind(*args)

    monkeypatch.setattr(evaluation, "fit_kind", counted)
    return fits


def tiny_dataset(seed, n=60):
    cfg = ScenarioConfig(n_train=n, n_test=10, rho=0.0, error_dist="gaussian", replication_seed=seed)
    train, _, _ = generate_scenario_dataset(cfg)
    return train


class TestKfoldTune:
    def test_negative_seed_is_a_typed_error(self):
        with pytest.raises(InvalidArchitectureError, match="seed must be nonnegative"):
            kfold_tune(tiny_dataset(1), "fdnn", TuneGrid(max_epochs=[2]), num_folds=3, seed=-1)

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

    @pytest.mark.parametrize(
        "hidden_sizes, learning_rates, winner",
        [([(8,), (4,)], [0.01], 1), ([(4,)], [0.02, 0.01], 0)],
    )
    def test_ties_go_to_the_smaller_model_then_grid_order(
        self, hidden_sizes, learning_rates, winner
    ):
        # ml reads no network setting, so every candidate shares one score
        grid = TuneGrid(hidden_sizes=hidden_sizes, learning_rates=learning_rates, basis_sizes=[5])
        best, table = kfold_tune(tiny_dataset(9), "ml", grid, num_folds=3, seed=0)
        assert len({row["cv_mspe"] for row in table}) == 1
        sizes = [row["size"] for row in table]
        assert (sizes[0] > sizes[1]) == (winner == 1)
        assert best is table[winner]["candidate"]

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

    def test_non_integer_fold_count_rejected(self):
        grid = TuneGrid(hidden_sizes=[(2,)], max_epochs=[5])
        with pytest.raises(FoldSizeError, match="^num_folds must be an integer"):
            kfold_tune(tiny_dataset(4), "fdnn", grid, num_folds=2.5, seed=0)

    def test_neighbor_count_requires_coords(self):
        data = tiny_dataset(5)
        grid = TuneGrid(hidden_sizes=[(2,)], max_epochs=[5], neighbor_counts=[3])
        with pytest.raises(InvalidSizeError):
            kfold_tune(data, "sfdnn", grid, num_folds=3, seed=0)

    @pytest.mark.parametrize("kind", ["ml", "fdnn", "sfdnn"])
    def test_neighbor_count_requires_coords_for_every_kind(self, monkeypatch, kind):
        data = tiny_dataset(5)
        grid = TuneGrid(hidden_sizes=[(2,)], max_epochs=[5], neighbor_counts=[None, 3])
        fits = count_fits(monkeypatch)
        with pytest.raises(InvalidSizeError, match="requires site coordinates"):
            kfold_tune(data, kind, grid, num_folds=3, seed=0)
        assert fits == []

    @pytest.mark.parametrize("kind", ["ml", "fdnn", "sfdnn"])
    @pytest.mark.parametrize(
        "changes",
        [
            {"learning_rates": [0.01, -1.0]},
            {"batch_sizes": [16, 0]},
            {"hidden_sizes": [(4,), (0,)]},
            {"activations": ["relu", "swish"]},
        ],
        ids=["learning_rate", "batch_size", "hidden_width", "activation"],
    )
    def test_a_bad_later_candidate_fails_before_the_first_fit(self, monkeypatch, kind, changes):
        grid = TuneGrid(**{"hidden_sizes": [(4,)], "max_epochs": [3], **changes})
        fits = count_fits(monkeypatch)
        with pytest.raises(InvalidArchitectureError):
            kfold_tune(tiny_dataset(5), kind, grid, num_folds=3, seed=0)
        assert fits == []

    @pytest.mark.parametrize(
        "changes",
        [{"hidden_sizes": (4, 8)}, {"hidden_sizes": [4]}, {"max_epochs": 5}, {"batch_sizes": []}],
        ids=["tuple_field", "width_not_a_sequence", "scalar_field", "empty_field"],
    )
    def test_a_malformed_grid_is_a_typed_error(self, changes):
        with pytest.raises(InvalidSizeError, match="^tuning grid "):
            TuneGrid(**changes)

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
        fits = count_fits(monkeypatch)
        best, table = kfold_tune(data, kind, grid, num_folds=3, seed=2, coords=coords)
        assert len(fits) == 3 * distinct
        assert (best, table) == expected

    def test_fold_spectra_computed_once(self, monkeypatch):
        # the candidates share each fold's training set, so its weight
        # matrix computes its spectrum once, not once per candidate
        data = tiny_dataset(8)
        grid = TuneGrid(
            hidden_sizes=[(3,)], learning_rates=[0.01, 0.02], batch_sizes=[16, 32],
            basis_sizes=[5], max_epochs=[3],
        )
        eigvalsh = np.linalg.eigvalsh
        shapes = []

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        kfold_tune(data, "sfdnn", grid, num_folds=3, seed=1)
        assert shapes == [(40, 40)] * 3

    def test_stage_one_once_per_training_set(self, monkeypatch):
        # ml and sfdnn share a replication's training set, and every sfdnn
        # candidate shares each fold's, so each runs stage one once
        estimate = pipeline.estimate_rho_ml
        sizes = []

        def spy(y, *args):
            sizes.append(y.size)
            return estimate(y, *args)

        monkeypatch.setattr(pipeline, "estimate_rho_ml", spy)
        monte_carlo_study(
            small_scenarios()[:1], ("ml", "fdnn", "sfdnn"), num_replications=2, base_seed=7,
            config=quick_config(),
        )
        assert sizes == [60] * 2
        sizes.clear()
        grid = TuneGrid(
            hidden_sizes=[(3,)], learning_rates=[0.01, 0.02], batch_sizes=[16, 32],
            basis_sizes=[5], max_epochs=[3],
        )
        kfold_tune(tiny_dataset(8), "sfdnn", grid, num_folds=3, seed=1)
        assert sizes == [40] * 3

    def test_neighbor_count_candidates_need_no_spectrum(self, monkeypatch):
        # a KNN W and its fold subsets are CSR, certified by the row-sum bound
        data = tiny_dataset(6, n=40)
        coords = np.random.default_rng(6).uniform(-10.0, 10.0, (40, 2))
        grid = TuneGrid(hidden_sizes=[(3,)], basis_sizes=[5], max_epochs=[4], neighbor_counts=[4, 6])

        def refuse(*_args, **_kwargs):
            raise AssertionError("an eigenvalue solver was called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        _, table = kfold_tune(data, "ml", grid, num_folds=3, seed=2, coords=coords)
        assert len(table) == 2

    @pytest.mark.parametrize("kind", ["fdnn", "sfdnn"])
    def test_candidates_train_with_the_given_config(self, kind):
        # the split and the stopping rule are not grid settings, so they come from config
        data = tiny_dataset(7, n=40)
        grid = TuneGrid(hidden_sizes=[(3,), (4,)], batch_sizes=[8], basis_sizes=[5], max_epochs=[6])
        config = TrainConfig(validation_fraction=0.2, early_stop_threshold=1e-3, seed=99)
        best, table = kfold_tune(data, kind, grid, num_folds=3, seed=2, config=config)
        assert (best, table) == brute_force_tune(data, kind, grid, 3, 2, None, config)
        _, unsplit = kfold_tune(data, kind, grid, num_folds=3, seed=2)
        assert [row["cv_mspe"] for row in table] != [row["cv_mspe"] for row in unsplit]


def brute_force_tune(data, kind, grid, num_folds, seed, coords, config=None):
    """Every candidate cross-validated on its own weights, in grid order.

    A fit trains as ``config`` says (default TrainConfig), with the
    candidate's settings and ``seed``.
    """
    base = replace(config or TrainConfig(), seed=seed)
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
            arch = cand.architecture(data.num_functional, data.num_scalar)
            fit = evaluation.fit_kind(kind, cand_data.subset(rest), arch, cand.train_config(base), 3, 0.95)
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

    @pytest.mark.parametrize(
        "kinds",
        [
            ("ml", "fdnn"), ("ml", "sfdnn"), ("sfdnn", "ml"),
            ("fdnn", "sfdnn"), ("sfdnn", "fdnn"), ("ml", "fdnn", "sfdnn"),
        ],
        ids="-".join,
    )
    def test_kinds_paired_and_order_invariant(self, kinds):
        # kinds that share a replication's stage one report what each reports alone
        scenarios = small_scenarios()
        paired = monte_carlo_study(
            scenarios, kinds, num_replications=2, base_seed=7, config=quick_config()
        )
        for kind in kinds:
            alone = monte_carlo_study(
                scenarios[::-1], (kind,), num_replications=2, base_seed=7, config=quick_config()
            )
            for scenario in scenarios:
                a = paired.report(scenario, kind)
                b = alone.report(scenario, kind)
                for name in ("mse", "r2", "mspe", "r2_test"):
                    np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
                assert (a.failures, a.num_boundary) == (b.failures, b.num_boundary)

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

        # the study fits its network kinds through one call
        monkeypatch.setattr(evaluation, "_fit_network", singular_fit)
        scenario = small_scenarios()[0]
        table = monte_carlo_study([scenario], ("ml", "fdnn"), num_replications=1, base_seed=3)
        failed = table.report(scenario, "fdnn")
        assert failed.num_ok == 0
        assert failed.failures == [(0, "LinAlgError: Singular matrix")]
        assert table.report(scenario, "ml").num_ok == 1
        fdnn_rows = [line for line in table.to_csv_lines() if ",fdnn," in line]
        assert all(line.split(",")[-2] == "1" for line in fdnn_rows)  # n_failed

    def test_diverging_networks_are_recorded_in_every_replication(self):
        # a learning rate of 1e200 overflows the first step of both networks
        scenario = ScenarioConfig(n_train=60, n_test=40, rho=0.5, error_dist="gaussian")
        config = TrainConfig(learning_rate=1e200, batch_size=16, max_epochs=5, seed=3)
        table = monte_carlo_study([scenario], ("ml", "fdnn", "sfdnn"), 2, 3, config=config)
        for kind in ("fdnn", "sfdnn"):
            failed = table.report(scenario, kind)
            assert failed.num_ok == 0
            assert failed.failures == [
                (r, "TrainingDivergedError: network produced non-finite predictions") for r in (0, 1)
            ]
        ml = table.report(scenario, "ml")
        assert (ml.num_ok, ml.failures) == (2, [])

    def test_a_failing_sfdnn_stage_one_leaves_fdnn_to_report(self, monkeypatch):
        scenario = small_scenarios()[0]
        alone = monte_carlo_study([scenario], ("fdnn",), 1, 3, config=quick_config())

        def singular_stage_one(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(pipeline, "_stage_one", singular_stage_one)
        table = monte_carlo_study([scenario], ("fdnn", "sfdnn"), 1, 3, config=quick_config())
        failed = table.report(scenario, "sfdnn")
        assert failed.num_ok == 0
        assert failed.failures == [(0, "LinAlgError: Singular matrix")]
        kept = table.report(scenario, "fdnn")
        assert kept.failures == []
        for name in ("mse", "r2", "mspe", "r2_test"):
            np.testing.assert_array_equal(getattr(kept, name), getattr(alone.report(scenario, "fdnn"), name))

    @pytest.mark.parametrize(
        "kinds, message",
        [
            (["mll"], "^unknown estimator kind 'mll'$"),
            (["ml", "ml"], "^estimator kinds must be distinct, got ml, ml$"),
            ([], "^need at least one estimator kind$"),
        ],
        ids=["unknown", "repeated", "none"],
    )
    def test_kinds_checked_before_any_replication(self, kinds, message, monkeypatch):
        def refuse(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(evaluation, "_run_replication", refuse)
        with pytest.raises(InvalidSizeError, match=message):
            monte_carlo_study(small_scenarios(), kinds, num_replications=1, base_seed=1)

    @pytest.mark.parametrize(
        "kind,validation_fraction", [("ml", 0.0), ("fdnn", 0.0), ("sfdnn", 0.0), ("sfdnn", 0.2)]
    )
    def test_train_metrics_equal_those_of_training_predictions(self, kind, validation_fraction):
        # the study reads training metrics from the fit instead of predicting the training set
        scenario = ScenarioConfig(n_train=80, n_test=10, rho=0.5, error_dist="gaussian", replication_seed=4000)
        train, _, _ = generate_scenario_dataset(scenario)
        config = replace(quick_config(), validation_fraction=validation_fraction)
        model = evaluation.fit_kind(kind, train, evaluation.default_architecture(), config, 3, 0.95)
        m = compute_metrics(train.response, predict_model(model, train))
        assert model.train_metrics == {"mse": m.mse, "r2": m.r2}

    def test_one_replication_solves_each_filter_once(self, monkeypatch):
        build_inverse_distance_weights.cache_clear()
        factor_solve, solve, eigh = SpatialFilterFactor.solve, np.linalg.solve, np.linalg.eigh
        filters, lus, halves = [], [], []

        def counted_filter(factor, b):
            filters.append(factor.W.n)
            return factor_solve(factor, b)

        def counted_solve(a, b):
            lus.append(len(a))
            return solve(a, b)

        def counted_eigh(a, *args, **kwargs):
            halves.append(len(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(SpatialFilterFactor, "solve", counted_filter)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        scenario = ScenarioConfig(n_train=80, n_test=60, rho=0.5, error_dist="gaussian")
        table = monte_carlo_study(
            [scenario], ("ml", "fdnn", "sfdnn"), 1, 17, config=TrainConfig(max_epochs=3)
        )
        assert [r.num_ok for r in table.reports] == [1, 1, 1]
        # simulation filters both sets; ml its fitted and test values; sfdnn
        # solves its training filter once, for training and its fitted values,
        # and filters the test set; fdnn filters nothing
        assert sorted(filters) == [60] * 3 + [80] * 3
        # the generator's W is mirrored and has a spectrum: every filter is
        # solved from one eigendecomposition per half, computed once per size
        assert lus == []
        # stage one's FPCA decomposes each curve's 101-point covariance once
        assert sorted(halves) == [30, 30, 40, 40] + [101] * 3

    def test_replication_count_validated(self):
        with pytest.raises(InvalidSizeError):
            monte_carlo_study(small_scenarios(), ("ml",), num_replications=0, base_seed=1)

    def test_non_integer_replication_count_rejected(self):
        with pytest.raises(InvalidSizeError, match="^num_replications must be an integer"):
            monte_carlo_study(small_scenarios(), ("ml",), num_replications=2.0, base_seed=1)

    @pytest.mark.parametrize("seed", [2.5, 1.0, False])
    def test_non_integer_base_seed_rejected(self, seed):
        with pytest.raises(InvalidSizeError, match="^base_seed must be an integer"):
            monte_carlo_study(small_scenarios(), ("ml",), num_replications=1, base_seed=seed)

    def test_negative_base_seed_rejected(self):
        with pytest.raises(InvalidSizeError, match="^base_seed must be nonnegative"):
            monte_carlo_study(small_scenarios(), ("ml",), num_replications=1, base_seed=-7)

    def test_numpy_integer_base_seed_accepted(self):
        scenario = small_scenarios()[0]
        tables = [
            monte_carlo_study([scenario], ("ml",), num_replications=2, base_seed=seed).to_csv_lines()
            for seed in (np.int64(7), 7)
        ]
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("jobs", [-3, 0, 1.5], ids=["negative", "zero", "fraction"])
    def test_invalid_job_count_rejected(self, jobs):
        with pytest.raises(InvalidSizeError, match="^jobs must be"):
            monte_carlo_study(small_scenarios(), ("ml",), num_replications=1, base_seed=1, jobs=jobs)


class TestSharedInverseDistanceWeights:
    def test_one_spectrum_per_size(self, monkeypatch):
        build_inverse_distance_weights.cache_clear()
        eigh = np.linalg.eigh
        shapes = []  # per replication

        def spy(a, *args, **kwargs):
            shapes[-1].append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        for seed in (1, 2):
            shapes.append([])
            cfg = ScenarioConfig(
                n_train=70, n_test=50, rho=0.5, error_dist="gaussian", replication_seed=seed
            )
            train, test, _ = generate_scenario_dataset(cfg)
            predict_model(fit_ml_baseline(train), test)
        # the generator's W equals its mirror, so its one spectrum is two
        # folded halves, and the second replication reuses it; FPCA's
        # covariances are the grid's size
        grid = (train.grid.num_points,) * 2
        assert [sorted(s for s in rep if s != grid) for rep in shapes] == [
            [(25, 25), (25, 25), (35, 35), (35, 35)], []
        ]

    def test_stage_one_factors_each_matrix_once(self, monkeypatch):
        # one eigh per half of each generator W serves its spectrum and its
        # solves, and one thin SVD of the design serves the rank check, the
        # projections and the coefficients
        build_inverse_distance_weights.cache_clear()
        calls = {name: [] for name in ("eigh", "eigvalsh", "svd", "qr", "lstsq", "matrix_rank")}

        def spied(name):
            original = getattr(np.linalg, name)

            def spy(a, *args, **kwargs):
                calls[name].append(a.shape)
                return original(a, *args, **kwargs)

            return spy

        for name in calls:
            monkeypatch.setattr(np.linalg, name, spied(name))
        cfg = ScenarioConfig(n_train=70, n_test=51, rho=0.5, error_dist="gaussian", replication_seed=3)
        train, test, _ = generate_scenario_dataset(cfg)
        model = fit_ml_baseline(train)
        predict_model(model, test)
        grid = (train.grid.num_points,) * 2
        assert sorted(s for s in calls["eigh"] if s != grid) == [(25, 25), (26, 26), (35, 35), (35, 35)]
        assert calls["eigvalsh"] == []
        assert calls["svd"] == [(70, model.theta.size)]
        assert calls["qr"] == calls["lstsq"] == calls["matrix_rank"] == []

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

    def test_threads_with_a_cold_cache_decompose_alike(self, monkeypatch):
        # each replication builds its own W, so two threads race to decompose
        # the halves of each size; every decomposition must be bit-equal
        scenario = ScenarioConfig(n_train=60, n_test=50, rho=0.8, error_dist="gaussian")

        def study(jobs):
            return monte_carlo_study(
                [scenario], ("ml", "sfdnn"), num_replications=4, base_seed=21,
                config=quick_config(), jobs=jobs,
            ).to_csv_lines()

        generate = evaluation.generate_scenario_dataset

        def cold_generate(cfg):
            spatial.build_inverse_distance_weights.cache_clear()
            return generate(cfg)

        monkeypatch.setattr(evaluation, "generate_scenario_dataset", cold_generate)
        serial = study(1)
        factor_solve = SpatialFilterFactor.solve
        seen = {}

        def recorded(factor, b):
            x = factor_solve(factor, b)
            halves = factor.W._half_eigh
            seen.setdefault(factor.W.n, set()).add(b"".join(a.tobytes() for half in halves for a in half))
            return x

        monkeypatch.setattr(SpatialFilterFactor, "solve", recorded)
        assert study(2) == serial
        assert {n: len(decompositions) for n, decompositions in seen.items()} == {60: 1, 50: 1}
