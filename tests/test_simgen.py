"""Tests for the simulation data generator."""

import numpy as np
import pytest

from sfdnn.basis import Grid, trapezoid_weights
from sfdnn.errors import InvalidSizeError
from sfdnn.simgen import (
    ScenarioConfig,
    generate_scenario_dataset,
    kl_basis_matrix,
    kl_score_variances,
    true_coefficient_curves,
)
from sfdnn.spatial import local_morans_i


class TestTrueCoefficients:
    def test_values_at_quarter(self):
        grid = Grid.uniform(101)
        betas = true_coefficient_curves(grid)
        idx = 25  # u = 0.25
        assert abs(betas[0, idx] - 1.0) < 1e-12
        assert abs(betas[1, idx]) < 1e-12
        assert abs(betas[2, idx] - 2.0) < 1e-12

    def test_third_curve_doubles_first(self):
        grid = Grid.uniform(51)
        betas = true_coefficient_curves(grid)
        np.testing.assert_allclose(betas[2], 2.0 * betas[0], atol=1e-14)

    def test_second_curve_integrates_to_zero(self):
        grid = Grid.uniform(101)
        betas = true_coefficient_curves(grid)
        w = trapezoid_weights(grid.points)
        assert abs(np.sum(w * betas[1])) < 1e-10


class TestGeneration:
    def test_noiseless_identity_at_zero_dependence(self):
        cfg = ScenarioConfig(n_train=40, n_test=30, rho=0.0, error_dist="none", replication_seed=3)
        train, _, truth = generate_scenario_dataset(cfg)
        w = trapezoid_weights(train.grid.points)
        signal = np.full(train.n, truth.beta0)
        for p in range(3):
            signal += (train.functional[p] * w) @ truth.beta_curves[p]
        signal += train.scalars @ truth.gamma
        np.testing.assert_array_equal(train.response, signal)

    def test_score_moments(self):
        # recover the expansion scores of ~1e5 generated curves by least
        # squares and compare their variances with 4 j^{-3/2}
        grid = Grid.uniform(101)
        expansion = kl_basis_matrix(grid)
        pinv = np.linalg.pinv(expansion.T)
        recovered = []
        for r in range(67):
            cfg = ScenarioConfig(
                n_train=1500, n_test=2, rho=0.0, error_dist="none", replication_seed=900 + r
            )
            train, _, _ = generate_scenario_dataset(cfg)
            recovered.append(train.functional[0] @ pinv.T)
        scores = np.vstack(recovered)
        assert scores.shape[0] >= 100_000
        target = kl_score_variances()
        sample = scores.var(axis=0, ddof=1)
        assert np.all(np.abs(sample - target) / target < 0.03)
        assert abs(sample[0] - 4.0) / 4.0 < 0.03
        assert abs(sample[4] - 4.0 * 5.0**-1.5) / (4.0 * 5.0**-1.5) < 0.03

    def test_bit_reproducible(self):
        cfg = ScenarioConfig(n_train=60, n_test=50, rho=0.5, replication_seed=11)
        a_train, a_test, _ = generate_scenario_dataset(cfg)
        b_train, b_test, _ = generate_scenario_dataset(cfg)
        np.testing.assert_array_equal(a_train.response, b_train.response)
        np.testing.assert_array_equal(a_test.response, b_test.response)
        for p in range(3):
            np.testing.assert_array_equal(a_train.functional[p], b_train.functional[p])
        np.testing.assert_array_equal(a_train.scalars, b_train.scalars)

    def test_integer_beta0_matches_float(self):
        datasets = [
            generate_scenario_dataset(
                ScenarioConfig(n_train=80, n_test=60, rho=0.4, error_dist="gaussian", beta0=beta0)
            )[:2]
            for beta0 in (50, 50.0)
        ]
        for got, ref in zip(*datasets):
            np.testing.assert_array_equal(got.response, ref.response)
            np.testing.assert_array_equal(got.scalars, ref.scalars)

    def test_train_test_streams_independent(self):
        from sfdnn.simgen import _stream

        a = _stream(123, 0).standard_normal(10_000)
        b = _stream(123, 1).standard_normal(10_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_train_and_test_differ(self):
        cfg = ScenarioConfig(n_train=50, n_test=50, rho=0.3, replication_seed=2)
        train, test, _ = generate_scenario_dataset(cfg)
        assert not np.allclose(train.response, test.response)

    def test_moran_signal_increases_with_dependence(self):
        means = []
        for rho in (0.1, 0.5, 0.9):
            cfg = ScenarioConfig(n_train=300, n_test=2, rho=rho, replication_seed=31)
            train, _, _ = generate_scenario_dataset(cfg)
            means.append(float(np.mean(local_morans_i(train.weights, train.response))))
        assert means[0] < means[1] < means[2]

    def test_double_filter_switch_changes_noise_only(self):
        base = ScenarioConfig(n_train=40, n_test=30, rho=0.6, replication_seed=5)
        double = ScenarioConfig(
            n_train=40, n_test=30, rho=0.6, replication_seed=5, double_filter_errors=True
        )
        a, _, _ = generate_scenario_dataset(base)
        b, _, _ = generate_scenario_dataset(double)
        assert not np.allclose(a.response, b.response)
        for p in range(3):
            np.testing.assert_array_equal(a.functional[p], b.functional[p])
        np.testing.assert_array_equal(a.scalars, b.scalars)

    def test_double_filter_equals_single_when_noiseless(self):
        base = ScenarioConfig(n_train=40, n_test=30, rho=0.6, error_dist="none", replication_seed=5)
        double = ScenarioConfig(
            n_train=40, n_test=30, rho=0.6, error_dist="none",
            replication_seed=5, double_filter_errors=True,
        )
        a, _, _ = generate_scenario_dataset(base)
        b, _, _ = generate_scenario_dataset(double)
        np.testing.assert_array_equal(a.response, b.response)

    def test_error_scenarios_have_expected_scale(self):
        # variance ~1 for gaussian, ~3 for t3, ~1 with mean ~1 for exp1
        stats = {}
        for dist in ("gaussian", "t3", "exp1"):
            draws = []
            for r in range(20):
                cfg = ScenarioConfig(
                    n_train=500, n_test=2, rho=0.0, error_dist=dist, replication_seed=100 + r
                )
                train, _, truth = generate_scenario_dataset(cfg)
                w = trapezoid_weights(train.grid.points)
                signal = np.full(train.n, truth.beta0)
                for p in range(3):
                    signal += (train.functional[p] * w) @ truth.beta_curves[p]
                signal += train.scalars @ truth.gamma
                draws.append(train.response - signal)
            stats[dist] = np.concatenate(draws)
        assert abs(stats["gaussian"].var() - 1.0) < 0.1
        assert abs(stats["gaussian"].mean()) < 0.05
        assert 2.0 < stats["t3"].var() < 4.5
        assert abs(stats["exp1"].mean() - 1.0) < 0.05
        assert abs(stats["exp1"].var() - 1.0) < 0.1

    def test_benchmark_cell_flag(self):
        assert ScenarioConfig(n_train=250, rho=0.9, error_dist="t3").is_benchmark_cell()
        assert not ScenarioConfig(n_train=123, rho=0.9).is_benchmark_cell()
        assert not ScenarioConfig(n_train=250, rho=0.33).is_benchmark_cell()

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidSizeError):
            ScenarioConfig(rho=1.5)
        with pytest.raises(InvalidSizeError):
            ScenarioConfig(error_dist="cauchy")
        with pytest.raises(InvalidSizeError):
            ScenarioConfig(n_train=1)

    def test_non_integer_size_rejected(self):
        with pytest.raises(InvalidSizeError, match="^n_train must be an integer"):
            ScenarioConfig(n_train=100.5)
        with pytest.raises(InvalidSizeError, match="^n_train must be at least 2$"):
            ScenarioConfig(n_train=1)
        assert ScenarioConfig(n_train=np.int64(100)).n_train == 100

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3"])
    def test_non_integer_replication_seed_rejected(self, seed):
        with pytest.raises(InvalidSizeError, match="^replication_seed must be an integer"):
            ScenarioConfig(replication_seed=seed)

    @pytest.mark.parametrize(
        "seed, same_as", [(np.int64(11), 11), (np.uint32(11), 11), (-11, 2**64 - 11)]
    )
    def test_numpy_and_negative_replication_seeds_accepted(self, seed, same_as):
        # a seed keys its streams by its value modulo 2^64, whatever its type
        def response(seed):
            cfg = ScenarioConfig(n_train=20, n_test=10, rho=0.5, replication_seed=seed)
            return generate_scenario_dataset(cfg)[0].response.tobytes()

        assert response(seed) == response(same_as)
