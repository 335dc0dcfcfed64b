"""Tests for the end-to-end estimators and their serialization."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfdnn import pipeline
from sfdnn.errors import DataError, DimensionError, MissingWeightsError, TrainingDivergedError
from sfdnn.evaluation import default_architecture
from sfdnn.fdnn import NetworkArchitecture, TrainConfig
from sfdnn.fpca import fit_fpca, project_scores
from sfdnn.pipeline import (
    RegressionDataset,
    fit_fdnn_model,
    fit_ml_baseline,
    fit_sfdnn,
    load_model,
    predict_model,
    save_model,
)
from sfdnn.simgen import ScenarioConfig, generate_scenario_dataset
from sfdnn.spatial import (
    SpatialWeightMatrix,
    build_inverse_distance_weights,
    build_knn_bisquare_weights,
    estimate_rho_ml,
)


def small_arch(hidden=(12, 6), act="relu"):
    return NetworkArchitecture(3, (6, 6, 6), 3, hidden, (act,) * len(hidden))


def small_config(**kw):
    defaults = dict(learning_rate=0.01, batch_size=32, max_epochs=80, seed=3)
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def gaussian_data():
    cfg = ScenarioConfig(n_train=150, n_test=120, rho=0.4, error_dist="gaussian", replication_seed=8)
    train, test, _ = generate_scenario_dataset(cfg)
    return train, test


class TestDatasetValidation:
    @pytest.mark.parametrize("field", ["functional", "scalars", "response"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, field, bad, gaussian_data):
        train, _ = gaussian_data
        parts = dict(
            functional=[c.copy() for c in train.functional],
            scalars=train.scalars.copy(),
            response=train.response.copy(),
        )
        target = parts[field][1] if field == "functional" else parts[field]
        target.flat[7] = bad
        with pytest.raises(DataError):
            RegressionDataset(grid=train.grid, weights=train.weights, **parts)


class TestMlBaseline:
    def test_training_quality_matches_reported_band(self):
        cfg = ScenarioConfig(n_train=500, rho=0.5, error_dist="gaussian", replication_seed=42)
        train, _, _ = generate_scenario_dataset(cfg)
        model = fit_ml_baseline(train)
        assert 0.94 <= model.train_metrics["r2"] <= 0.98
        # unit-variance noise: training MSE near 1
        assert 0.8 <= model.train_metrics["mse"] <= 1.2

    def test_noise_free_recovery(self):
        cfg = ScenarioConfig(n_train=250, n_test=100, rho=0.5, error_dist="none", replication_seed=9)
        train, test, _ = generate_scenario_dataset(cfg)
        model = fit_ml_baseline(train, variance_threshold=0.999)
        fitted = predict_model(model, train)
        assert np.max(np.abs(fitted - train.response)) < 1e-6
        preds = predict_model(model, test)
        assert float(np.mean((preds - test.response) ** 2)) < 1e-6

    def test_zero_dependence_degenerates_to_fpc_regression(self):
        cfg = ScenarioConfig(n_train=300, n_test=100, rho=0.0, error_dist="gaussian", replication_seed=14)
        train, _, _ = generate_scenario_dataset(cfg)
        model = fit_ml_baseline(train)
        assert abs(model.rho_hat) < 0.15

        models = [fit_fpca(c, train.grid, 0.95) for c in train.functional]
        scores = [project_scores(m, c, train.grid) for m, c in zip(models, train.functional)]
        design = np.column_stack([np.ones(train.n)] + scores + [train.scalars])
        beta, *_ = np.linalg.lstsq(design, train.response, rcond=None)
        ols_fitted = design @ beta
        ml_fitted = predict_model(model, train)
        rms = np.sqrt(np.mean((ml_fitted - ols_fitted) ** 2))
        assert rms < 0.15 * train.response.std()

    def test_requires_weights(self, gaussian_data):
        train, _ = gaussian_data
        stripped = RegressionDataset(
            functional=train.functional, grid=train.grid,
            scalars=train.scalars, response=train.response, weights=None,
        )
        with pytest.raises(MissingWeightsError):
            fit_ml_baseline(stripped)


class TestNetworkFits:
    def test_fdnn_generalizes_at_low_dependence(self):
        cfg = ScenarioConfig(n_train=250, rho=0.1, error_dist="gaussian", replication_seed=6)
        train, test, _ = generate_scenario_dataset(cfg)
        arch = NetworkArchitecture(3, (7, 7, 7), 3, (32, 16), ("relu", "relu"))
        model = fit_fdnn_model(train, arch, TrainConfig(learning_rate=0.01, batch_size=64, max_epochs=200, seed=1))
        preds = predict_model(model, test)
        sst = np.sum((test.response - test.response.mean()) ** 2)
        r2_test = 1.0 - np.sum((preds - test.response) ** 2) / sst
        assert r2_test > 0.80

    def test_sfdnn_beats_fdnn_under_strong_dependence(self):
        cfg = ScenarioConfig(n_train=200, rho=0.9, error_dist="gaussian", replication_seed=17)
        train, test, _ = generate_scenario_dataset(cfg)
        arch = small_arch((16, 8))
        config = small_config(max_epochs=150, batch_size=32)
        fdnn = fit_fdnn_model(train, arch, config)
        sfdnn = fit_sfdnn(train, arch, config)
        mspe_f = float(np.mean((predict_model(fdnn, test) - test.response) ** 2))
        mspe_s = float(np.mean((predict_model(sfdnn, test) - test.response) ** 2))
        assert mspe_s < mspe_f

    def test_forced_zero_rho_bit_identical_to_fdnn(self, gaussian_data):
        train, test = gaussian_data
        arch, config = small_arch(), small_config(max_epochs=25)
        fdnn = fit_fdnn_model(train, arch, config)
        sfdnn = fit_sfdnn(train, arch, config, rho_override=0.0)
        for (_, a, _), (_, b, _) in zip(fdnn.parameters.tensors(), sfdnn.parameters.tensors()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(predict_model(fdnn, test), predict_model(sfdnn, test))
        assert sfdnn.rho_hat == 0.0

    def test_two_stage_rho_stored_exactly(self, gaussian_data):
        train, _ = gaussian_data
        models = [fit_fpca(c, train.grid, 0.95) for c in train.functional]
        scores = [project_scores(m, c, train.grid) for m, c in zip(models, train.functional)]
        design = np.column_stack([np.ones(train.n)] + scores + [train.scalars])
        stage1 = estimate_rho_ml(train.response, design, train.weights)
        model = fit_sfdnn(train, small_arch(), small_config(max_epochs=20))
        assert model.rho_hat == stage1.rho_hat

    def test_sfdnn_requires_weights(self, gaussian_data):
        train, _ = gaussian_data
        stripped = RegressionDataset(
            functional=train.functional, grid=train.grid,
            scalars=train.scalars, response=train.response, weights=None,
        )
        with pytest.raises(MissingWeightsError):
            fit_sfdnn(stripped, small_arch(), small_config())

    def test_deterministic_per_seed(self, gaussian_data):
        train, _ = gaussian_data
        arch, config = small_arch(), small_config(max_epochs=15)
        a = fit_fdnn_model(train, arch, config)
        b = fit_fdnn_model(train, arch, config)
        assert a.train_metrics == b.train_metrics

    def test_a_kind_without_its_filter_fails_alone(self, gaussian_data):
        stripped = replace(gaussian_data[0], weights=None)
        arch, config = small_arch(), small_config(max_epochs=15)
        fits = pipeline._fit_network(stripped, arch, config, 3, ("fdnn", "sfdnn"), 0.95, None)
        assert isinstance(fits["sfdnn"], MissingWeightsError)
        alone = fit_fdnn_model(stripped, arch, config)
        assert fits["fdnn"].parameters.flat.tobytes() == alone.parameters.flat.tobytes()
        assert (fits["fdnn"].trace, fits["fdnn"].train_metrics) == (alone.trace, alone.train_metrics)

    @pytest.mark.parametrize("fit", [fit_fdnn_model, fit_sfdnn], ids=["fdnn", "sfdnn"])
    def test_a_single_fit_trains_through_train(self, gaussian_data, monkeypatch, fit):
        # the public ``train`` is the call a tracer sees; the stack is for several kinds
        calls = []
        public = pipeline.train

        def counted(*args):
            calls.append(args)
            return public(*args)

        def refused(*args):
            raise AssertionError("a single fit reached the stack directly")

        monkeypatch.setattr(pipeline, "train", counted)
        monkeypatch.setattr(pipeline, "_train_stack", refused)
        model = fit(gaussian_data[0], small_arch(), small_config(max_epochs=5))
        assert len(calls) == 1 and model.trace.epoch_losses


    @pytest.mark.parametrize("fit", [fit_fdnn_model, fit_sfdnn], ids=["fdnn", "sfdnn"])
    def test_a_diverging_fit_raises(self, fit):
        # a learning rate of 1e200 overflows the first step
        cfg = ScenarioConfig(n_train=60, n_test=40, rho=0.5, error_dist="gaussian", replication_seed=3)
        train, _, _ = generate_scenario_dataset(cfg)
        config = TrainConfig(learning_rate=1e200, batch_size=16, max_epochs=5, seed=3)
        with pytest.raises(TrainingDivergedError, match="^network produced non-finite predictions$"):
            fit(train, default_architecture(), config)


def fresh_copy(data):
    return RegressionDataset(
        functional=[c.copy() for c in data.functional], grid=data.grid,
        scalars=data.scalars.copy(), response=data.response.copy(), weights=data.weights,
    )


def assert_same_fit(a, b):
    assert (a.rho_hat, a.at_boundary, a.train_metrics) == (b.rho_hat, b.at_boundary, b.train_metrics)
    if a.kind == "ml":
        np.testing.assert_array_equal(a.theta, b.theta)
        assert [m.k_retained for m in a.fpca_models] == [m.k_retained for m in b.fpca_models]
    else:
        np.testing.assert_array_equal(a.parameters.flat, b.parameters.flat)


class TestStageOne:
    """ml and sfdnn share a dataset's stage one, which must never go stale."""

    def fits(self, data, threshold):
        arch, config = small_arch(), small_config(max_epochs=5)
        return fit_ml_baseline(data, threshold), fit_sfdnn(data, arch, config, variance_threshold=threshold)

    def test_each_threshold_fits_as_a_fresh_dataset(self, gaussian_data):
        data = fresh_copy(gaussian_data[0])
        by_threshold = {}
        for threshold in (0.95, 0.9, 0.95):
            fits = self.fits(data, threshold)
            for got, expected in zip(fits, self.fits(fresh_copy(data), threshold)):
                assert_same_fit(got, expected)
            by_threshold[threshold] = fits[0]
        # the thresholds retain different components, so a stale design would show
        assert by_threshold[0.95].theta.size != by_threshold[0.9].theta.size

    def test_derived_datasets_run_their_own_stage_one(self, gaussian_data, monkeypatch):
        data = fresh_copy(gaussian_data[0])
        fit_ml_baseline(data)
        coords = np.random.default_rng(4).uniform(-10.0, 10.0, (data.n, 2))
        derived = [
            replace(data, weights=build_knn_bisquare_weights(coords, 5)),
            data.subset(np.arange(0, data.n, 2)),
        ]
        estimate = pipeline.estimate_rho_ml
        calls = []

        def spy(*args):
            calls.append(args)
            return estimate(*args)

        monkeypatch.setattr(pipeline, "estimate_rho_ml", spy)
        for other in derived:
            got = fit_ml_baseline(other)
            assert_same_fit(got, fit_ml_baseline(fresh_copy(other)))
            assert got.rho_hat != fit_ml_baseline(data).rho_hat
        assert len(calls) == 2 * len(derived)


class TestPredict:
    def test_training_set_reproduces_train_metrics(self, gaussian_data):
        train, _ = gaussian_data
        arch, config = small_arch(), small_config(max_epochs=30)
        for model in (
            fit_ml_baseline(train),
            fit_fdnn_model(train, arch, config),
            fit_sfdnn(train, arch, config),
        ):
            preds = predict_model(model, train)
            mse = float(np.mean((preds - train.response) ** 2))
            assert abs(mse - model.train_metrics["mse"]) < 1e-10

    def test_fdnn_ignores_weights(self, gaussian_data):
        train, test = gaussian_data
        model = fit_fdnn_model(train, small_arch(), small_config(max_epochs=15))
        base = predict_model(model, test)
        replaced = RegressionDataset(
            functional=test.functional, grid=test.grid, scalars=test.scalars,
            response=test.response, weights=build_inverse_distance_weights(test.n),
        )
        other = predict_model(model, replaced)
        np.testing.assert_array_equal(base, other)

    def test_spatial_kinds_require_test_weights(self, gaussian_data):
        train, test = gaussian_data
        stripped = RegressionDataset(
            functional=test.functional, grid=test.grid,
            scalars=test.scalars, response=test.response, weights=None,
        )
        ml = fit_ml_baseline(train)
        with pytest.raises(MissingWeightsError):
            predict_model(ml, stripped)
        sfdnn = fit_sfdnn(train, small_arch(), small_config(max_epochs=10))
        with pytest.raises(MissingWeightsError):
            predict_model(sfdnn, stripped)

    def test_grid_mismatch_rejected(self, gaussian_data):
        train, _ = gaussian_data
        model = fit_ml_baseline(train)
        cfg = ScenarioConfig(n_train=50, n_test=40, rho=0.4, replication_seed=1, num_grid_points=51)
        other_train, _, _ = generate_scenario_dataset(cfg)
        with pytest.raises(DimensionError):
            predict_model(model, other_train)

    def test_permutation_equivariance(self, gaussian_data):
        train, test = gaussian_data
        model = fit_sfdnn(train, small_arch(), small_config(max_epochs=20))
        base = predict_model(model, test)
        rng = np.random.default_rng(23)
        perm = rng.permutation(test.n)
        permuted = RegressionDataset(
            functional=[c[perm] for c in test.functional],
            grid=test.grid,
            scalars=test.scalars[perm],
            response=test.response[perm],
            weights=SpatialWeightMatrix(
                test.weights.toarray()[np.ix_(perm, perm)], row_normalized=True
            ),
        )
        np.testing.assert_allclose(predict_model(model, permuted), base[perm], atol=1e-8)


class TestModelSerialization:
    @pytest.mark.parametrize("kind", ["ml", "fdnn", "sfdnn"])
    def test_round_trip_preserves_predictions(self, kind, gaussian_data, tmp_path):
        train, test = gaussian_data
        if kind == "ml":
            model = fit_ml_baseline(train)
        elif kind == "fdnn":
            model = fit_fdnn_model(train, small_arch(), small_config(max_epochs=12))
        else:
            model = fit_sfdnn(train, small_arch(), small_config(max_epochs=12))
        model.metadata["log_transform"] = "none"
        path = tmp_path / f"{kind}.model"
        save_model(model, path)
        back = load_model(path)
        assert back.kind == kind
        assert back.metadata == {"log_transform": "none"}
        assert back.train_metrics == model.train_metrics
        np.testing.assert_array_equal(predict_model(back, test), predict_model(model, test))

    def test_ml_fit_holds_what_its_file_holds(self, gaussian_data, tmp_path):
        # stage one keeps each FPCA model's retained eigenpairs only
        train, test = gaussian_data
        model = fit_ml_baseline(train)
        path = tmp_path / "ml.model"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.theta, model.theta)
        for fitted, read in zip(model.fpca_models, back.fpca_models, strict=True):
            k = fitted.k_retained
            assert fitted.eigenvalues.shape == (k,)
            assert fitted.eigenfunctions.shape == (k, train.grid.num_points)
            for name in ("mean_curve", "eigenvalues", "eigenfunctions"):
                np.testing.assert_array_equal(getattr(read, name), getattr(fitted, name))
        assert predict_model(back, test).tobytes() == predict_model(model, test).tobytes()

    def test_ml_file_refuses_lines_after_the_last_eigenfunction(self, gaussian_data, tmp_path):
        path = tmp_path / "ml.model"
        save_model(fit_ml_baseline(gaussian_data[0]), path)
        text = path.read_text()
        path.write_text(text + "\n  \n")
        assert load_model(path).kind == "ml"
        path.write_text(text + "\neigenfunction 1 2 3\ngarbage here\n")
        with pytest.raises(DataError, match="line 'eigenfunction 1 2 3' after the last eigenfunction"):
            load_model(path)


class TestModelFileProperties:
    @pytest.mark.parametrize("kind", ["ml", "fdnn", "sfdnn"])
    @settings(deadline=None, max_examples=15)
    @given(
        replication_seed=st.integers(0, 2**31 - 1),
        rho=st.floats(0.0, 0.9),
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2),
        activation=st.sampled_from(["relu", "tanh", "sigmoid", "identity"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_save_load_save_is_bit_exact(self, kind, replication_seed, rho, hidden, activation, seed):
        cfg = ScenarioConfig(
            n_train=40, n_test=25, rho=rho, error_dist="gaussian", replication_seed=replication_seed
        )
        train, test, _ = generate_scenario_dataset(cfg)
        arch = NetworkArchitecture(3, (5, 5, 5), 3, tuple(hidden), (activation,) * len(hidden))
        config = small_config(max_epochs=3, batch_size=16, seed=seed)
        if kind == "ml":
            model = fit_ml_baseline(train)
        elif kind == "fdnn":
            model = fit_fdnn_model(train, arch, config)
        else:
            model = fit_sfdnn(train, arch, config)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.model"), Path(tmp, "second.model")
            save_model(model, first)
            back = load_model(first)
            save_model(back, second)
            assert second.read_bytes() == first.read_bytes()
        np.testing.assert_array_equal(predict_model(back, test), predict_model(model, test))
        np.testing.assert_array_equal(predict_model(back, train), predict_model(model, train))
