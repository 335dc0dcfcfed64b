"""Tests for the functional network: forward, gradients, training, serialization."""

from dataclasses import replace

import numpy as np
import pytest

from sfdnn.errors import (
    DimensionError,
    InvalidArchitectureError,
    NumericOverflowError,
    TrainingDivergedError,
)
from sfdnn.fdnn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    NetworkArchitecture,
    NetworkParameters,
    SpatialContext,
    TrainConfig,
    TrainingTrace,
    _backprop,
    _prefilter,
    forward,
    gradients,
    init_parameters,
    load_parameters,
    loss,
    predict,
    save_parameters,
    train,
)
from sfdnn.spatial import SpatialWeightMatrix, build_inverse_distance_weights


def finite_difference_gradients(params, features, scalars, y, ctx=None, step=1e-5):
    """Central finite differences of the mean-squared loss, tensor by tensor."""
    out = []
    for name, tensor, _ in params.tensors():
        g = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + step
            lp = loss(predict(params, features, scalars, ctx), y)
            tensor[idx] = orig - step
            lm = loss(predict(params, features, scalars, ctx), y)
            tensor[idx] = orig
            g[idx] = (lp - lm) / (2.0 * step)
        out.append((name, g))
    return out


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (_, a), (_, f) in zip(analytic, numeric):
        denom = np.maximum(1e-6, np.maximum(np.abs(a), np.abs(f)))
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def toy_arch(activation="tanh"):
    return NetworkArchitecture(
        num_functional=2,
        basis_sizes=(4, 4),
        num_scalar=2,
        hidden_sizes=(5, 3),
        activations=(activation, activation),
    )


def toy_inputs(n, arch, seed):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, arch.feature_width))
    scalars = rng.normal(size=(n, arch.num_scalar))
    y = rng.normal(size=n)
    return features, scalars, y


def reference_train(arch, config, features, scalars, y, ctx=None):
    """The per-step-allocating training loop that ``train`` must reproduce bit for bit.

    Each step takes a fresh zeroed gradient container and runs Adam out of
    place on whole-vector temporaries.
    """
    params = init_parameters(arch, config.seed)
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if ctx is not None:
        features, scalars = _prefilter(ctx, features, scalars)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    split_rng = np.random.default_rng([config.seed, 2])
    if config.validation_fraction > 0.0:
        n_val = min(int(round(config.validation_fraction * n)), n - 1)
        perm = split_rng.permutation(n)
        val_rows, train_rows = np.sort(perm[:n_val]), np.sort(perm[n_val:])
    else:
        val_rows, train_rows = np.empty(0, dtype=int), np.arange(n)

    def rows_loss(rows):
        diff = predict(params, features[rows], scalars[rows]) - y[rows]
        return float(diff @ diff) / rows.size

    moment_m = np.zeros_like(params.flat)
    moment_v = np.zeros_like(params.flat)
    step = 0
    trace = TrainingTrace()
    best_params, best_val, prev_loss = None, np.inf, None
    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(train_rows)
        for start in range(0, order.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            _, grads = _backprop(params, features[batch], scalars[batch], y[batch])  # zeros_like inside
            step += 1
            g = grads.flat
            moment_m = ADAM_BETA1 * moment_m + (1.0 - ADAM_BETA1) * g
            moment_v = ADAM_BETA2 * moment_v + (1.0 - ADAM_BETA2) * g * g
            update = (moment_m / (1.0 - ADAM_BETA1**step)) / (
                np.sqrt(moment_v / (1.0 - ADAM_BETA2**step)) + ADAM_EPS
            )
            if config.weight_decay > 0.0:
                update[: params.num_weights] += config.weight_decay * params.flat[: params.num_weights]
            params.flat -= config.learning_rate * update
        epoch_loss = rows_loss(train_rows)
        trace.epoch_losses.append(epoch_loss)
        if val_rows.size:
            val_loss = rows_loss(val_rows)
            trace.validation_losses.append(val_loss)
            if val_loss < best_val:
                best_val, best_params, trace.best_epoch = val_loss, params.copy(), epoch
        delta = epoch_loss if epoch == 0 else abs(prev_loss - epoch_loss)
        prev_loss = epoch_loss
        if delta < config.early_stop_threshold:
            trace.stopped_early = True
            break
    return (best_params if best_params is not None else params), trace


def test_sigmoid_forward_is_bit_identical_to_expit():
    # a numpy 1 / (1 + exp(-x)) differs from expit by 1 ulp on about 2% of inputs
    from scipy.special import expit

    arch = toy_arch("sigmoid")
    params = init_parameters(arch, 5)
    features, scalars, _ = toy_inputs(2000, arch, 6)
    _, cache = forward(params, 3.0 * features, scalars)
    for pre, post in zip(cache.pre_activations, cache.post_activations):
        assert post.tobytes() == expit(pre).tobytes()


class TestInit:
    def test_deterministic_per_seed(self):
        arch = toy_arch()
        a = init_parameters(arch, 123)
        b = init_parameters(arch, 123)
        for (_, ta, _), (_, tb, _) in zip(a.tensors(), b.tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_different_seeds_differ(self):
        arch = toy_arch()
        a = init_parameters(arch, 1)
        b = init_parameters(arch, 2)
        assert any(
            not np.array_equal(ta, tb) for (_, ta, _), (_, tb, _) in zip(a.tensors(), b.tensors())
        )

    def test_shape_contract(self):
        arch = NetworkArchitecture(1, (5,), 2, (4,), ("relu",))
        params = init_parameters(arch, 0)
        blocks = params.functional_coeff_blocks()
        assert np.array(blocks).shape == (1, 4, 5)
        assert params.scalar_weights.shape == (4, 2)
        assert params.hidden_weights[-1].shape == (1, 4)
        assert all(np.all(b == 0.0) for b in params.biases)

    def test_bounds_follow_fan_in_out(self):
        arch = NetworkArchitecture(1, (6,), 2, (4,), ("relu",))
        params = init_parameters(arch, 7)
        bound = np.sqrt(6.0 / (8 + 4))
        assert np.max(np.abs(params.func_weights)) <= bound
        assert np.max(np.abs(params.scalar_weights)) <= bound

    def test_invalid_architectures(self):
        with pytest.raises(InvalidArchitectureError):
            NetworkArchitecture(1, (4, 4), 0, (3,), ("relu",))
        with pytest.raises(InvalidArchitectureError):
            NetworkArchitecture(1, (4,), 0, (), ())
        with pytest.raises(InvalidArchitectureError):
            NetworkArchitecture(1, (4,), 0, (3,), ("softplus",))


class TestForward:
    def test_hand_computed_toy_network(self):
        arch = NetworkArchitecture(1, (2,), 1, (2,), ("relu",))
        params = init_parameters(arch, 0)
        params.func_weights[...] = [[1.0, -1.0], [0.5, 0.5]]
        params.scalar_weights[...] = [[2.0], [-1.0]]
        params.biases[0][...] = [0.1, -0.2]
        params.hidden_weights[0][...] = [[1.0, 3.0]]
        params.biases[1][...] = [0.25]

        features = np.array([[0.2, 0.4], [-0.3, 0.1], [0.0, 0.0], [1.0, -1.0]])
        scalars = np.array([[0.5], [-1.0], [2.0], [0.0]])
        # row by row:  a1 = f1 - f2 + 2 z + 0.1,  a2 = 0.5 f1 + 0.5 f2 - z - 0.2
        # out = relu(a1) + 3 relu(a2) + 0.25
        expected = np.array([1.15, 2.35, 4.35, 2.35])
        preds, _ = forward(params, features, scalars)
        np.testing.assert_allclose(preds, expected, atol=1e-12)

    def test_all_zero_parameters_predict_zero(self):
        arch = NetworkArchitecture(1, (3,), 1, (4,), ("identity",))
        params = init_parameters(arch, 0)
        for _, tensor, _ in params.tensors():
            tensor[...] = 0.0
        preds = predict(params, np.ones((5, 3)), np.ones((5, 1)))
        np.testing.assert_array_equal(preds, np.zeros(5))

    def test_zero_rho_context_matches_plain(self):
        arch = toy_arch()
        params = init_parameters(arch, 3)
        features, scalars, _ = toy_inputs(12, arch, 5)
        W = build_inverse_distance_weights(12)
        plain = predict(params, features, scalars)
        filtered = predict(params, features, scalars, SpatialContext(W, 0.0))
        np.testing.assert_array_equal(plain, filtered)

    def test_batch_invariance_without_context(self):
        arch = toy_arch("relu")
        params = init_parameters(arch, 9)
        features, scalars, _ = toy_inputs(8, arch, 11)
        full = predict(params, features, scalars)
        rowwise = np.array([
            predict(params, features[i : i + 1], scalars[i : i + 1])[0] for i in range(8)
        ])
        np.testing.assert_allclose(rowwise, full, atol=1e-12)

    def test_context_couples_rows(self):
        arch = toy_arch("tanh")
        params = init_parameters(arch, 13)
        features, scalars, _ = toy_inputs(10, arch, 17)
        W = build_inverse_distance_weights(10)
        ctx = SpatialContext(W, 0.6)
        base = predict(params, features, scalars, ctx)
        bumped = features.copy()
        bumped[0] += 1.0
        moved = predict(params, bumped, scalars, ctx)
        assert np.max(np.abs(moved[1:] - base[1:])) > 1e-8

    def test_shape_mismatch(self):
        arch = toy_arch()
        params = init_parameters(arch, 1)
        with pytest.raises(DimensionError):
            predict(params, np.ones((4, 3)), np.ones((4, 2)))

    def test_overflow_detected(self):
        arch = NetworkArchitecture(1, (2,), 0, (2,), ("identity",))
        params = init_parameters(arch, 0)
        params.func_weights[...] = 1e308
        params.hidden_weights[0][...] = 1e308
        with pytest.raises(NumericOverflowError):
            predict(params, np.full((3, 2), 10.0), np.zeros((3, 0)))


class TestLoss:
    def test_perfect_predictions(self):
        y = np.array([1.0, -2.0, 3.0])
        assert loss(y, y) == 0.0

    def test_unit_residuals(self):
        assert loss(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == 1.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(23)
        yhat, y = rng.normal(size=7), rng.normal(size=7)
        direct = float(np.sum((y - yhat) ** 2) / 7)
        assert abs(loss(yhat, y) - direct) < 1e-14

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            loss(np.ones(3), np.ones(4))


class TestGradients:
    def test_matches_finite_differences_smooth(self):
        arch = toy_arch("tanh")
        params = init_parameters(arch, 29)
        features, scalars, y = toy_inputs(9, arch, 31)
        analytic = [(n, g) for n, g, _ in gradients(params, features, scalars, y).tensors()]
        numeric = finite_difference_gradients(params, features, scalars, y)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_matches_finite_differences_with_context(self):
        arch = toy_arch("sigmoid")
        params = init_parameters(arch, 37)
        features, scalars, y = toy_inputs(10, arch, 41)
        W = build_inverse_distance_weights(10)
        ctx = SpatialContext(W, 0.45)
        analytic = [(n, g) for n, g, _ in gradients(params, features, scalars, y, ctx).tensors()]
        numeric = finite_difference_gradients(params, features, scalars, y, ctx)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_matches_finite_differences_relu(self):
        arch = toy_arch("relu")
        params = init_parameters(arch, 43)
        features, scalars, y = toy_inputs(9, arch, 47)
        analytic = [(n, g) for n, g, _ in gradients(params, features, scalars, y).tensors()]
        numeric = finite_difference_gradients(params, features, scalars, y)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_zero_residual_zero_gradient(self):
        arch = toy_arch("tanh")
        params = init_parameters(arch, 53)
        features, scalars, _ = toy_inputs(6, arch, 59)
        y = predict(params, features, scalars)
        grads = gradients(params, features, scalars, y)
        for _, g, _ in grads.tensors():
            assert np.max(np.abs(g)) < 1e-12

    def test_zero_rho_context_gradients_match_plain(self):
        arch = toy_arch("relu")
        params = init_parameters(arch, 61)
        features, scalars, y = toy_inputs(8, arch, 67)
        W = build_inverse_distance_weights(8)
        plain = gradients(params, features, scalars, y)
        filtered = gradients(params, features, scalars, y, SpatialContext(W, 0.0))
        for (_, a, _), (_, b, _) in zip(plain.tensors(), filtered.tensors()):
            np.testing.assert_array_equal(a, b)


class TestTrain:
    def test_linear_target_reaches_ols_loss(self):
        rng = np.random.default_rng(71)
        arch = NetworkArchitecture(1, (4,), 2, (6,), ("identity",))
        features = rng.normal(size=(80, 4))
        scalars = rng.normal(size=(80, 2))
        coef = rng.normal(size=6)
        y = np.column_stack([features, scalars]) @ coef + 0.3 * rng.normal(size=80) + 0.7

        design = np.column_stack([features, scalars, np.ones(80)])
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        ols_loss = float(np.mean((y - design @ beta) ** 2))

        config = TrainConfig(learning_rate=0.02, batch_size=16, max_epochs=500, seed=5)
        params, trace = train(arch, config, features, scalars, y)
        final = loss(predict(params, features, scalars), y)
        assert final <= ols_loss * 1.05

    def test_huge_threshold_stops_after_one_epoch(self):
        arch = toy_arch()
        features, scalars, y = toy_inputs(20, arch, 73)
        config = TrainConfig(max_epochs=50, early_stop_threshold=1e12, seed=0)
        _, trace = train(arch, config, features, scalars, y)
        assert len(trace.epoch_losses) == 1
        assert trace.stopped_early

    def test_deterministic_traces(self):
        arch = toy_arch()
        features, scalars, y = toy_inputs(24, arch, 79)
        config = TrainConfig(max_epochs=12, batch_size=8, seed=21)
        p1, t1 = train(arch, config, features, scalars, y)
        p2, t2 = train(arch, config, features, scalars, y)
        assert t1.epoch_losses == t2.epoch_losses
        for (_, a, _), (_, b, _) in zip(p1.tensors(), p2.tensors()):
            np.testing.assert_array_equal(a, b)

    def test_zero_rho_training_bit_identical_to_plain(self):
        arch = toy_arch("relu")
        features, scalars, y = toy_inputs(16, arch, 83)
        W = build_inverse_distance_weights(16)
        config = TrainConfig(max_epochs=8, batch_size=4, seed=3)
        p_plain, t_plain = train(arch, config, features, scalars, y)
        p_ctx, t_ctx = train(arch, config, features, scalars, y, SpatialContext(W, 0.0))
        assert t_plain.epoch_losses == t_ctx.epoch_losses
        for (_, a, _), (_, b, _) in zip(p_plain.tensors(), p_ctx.tensors()):
            np.testing.assert_array_equal(a, b)

    def test_flat_adam_matches_per_tensor_reference(self):
        arch = toy_arch("tanh")
        features, scalars, y = toy_inputs(20, arch, 179)
        config = TrainConfig(max_epochs=6, batch_size=6, weight_decay=1e-2, seed=17)
        params, _ = train(arch, config, features, scalars, y)

        ref = init_parameters(arch, config.seed)
        moments_m, moments_v = NetworkParameters.zeros_like(ref), NetworkParameters.zeros_like(ref)
        shuffle_rng = np.random.default_rng([config.seed, 1])
        step = 0
        for _ in range(config.max_epochs):
            order = shuffle_rng.permutation(np.arange(y.size))
            for start in range(0, y.size, config.batch_size):
                batch = order[start : start + config.batch_size]
                grads = gradients(ref, features[batch], scalars[batch], y[batch])
                step += 1
                corr1, corr2 = 1.0 - ADAM_BETA1**step, 1.0 - ADAM_BETA2**step
                for (_, p, is_w), (_, g, _), (_, m, _), (_, v, _) in zip(
                    ref.tensors(), grads.tensors(), moments_m.tensors(), moments_v.tensors()
                ):
                    m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
                    v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
                    update = (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
                    if is_w:
                        update = update + config.weight_decay * p
                    p -= config.learning_rate * update
        for (_, a, _), (_, b, _) in zip(params.tensors(), ref.tensors()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "activation, changes, spatial",
        [
            ("relu", {}, False),
            ("tanh", {}, False),
            ("sigmoid", {}, False),
            ("tanh", {"weight_decay": 3e-2}, False),
            ("relu", {"validation_fraction": 0.25}, False),
            ("sigmoid", {"early_stop_threshold": 3e-3}, False),
            ("relu", {"weight_decay": 1e-2, "validation_fraction": 0.2}, True),
        ],
        ids=["relu", "tanh", "sigmoid", "weight-decay", "validation", "early-stop", "spatial"],
    )
    def test_matches_per_step_allocating_reference(self, activation, changes, spatial):
        arch = toy_arch(activation)
        features, scalars, y = toy_inputs(30, arch, 191)
        ctx = SpatialContext(build_inverse_distance_weights(30), 0.7) if spatial else None
        config = replace(TrainConfig(learning_rate=0.03, batch_size=7, max_epochs=15, seed=23), **changes)
        params, trace = train(arch, config, features, scalars, y, ctx)
        ref_params, ref_trace = reference_train(arch, config, features, scalars, y, ctx)
        np.testing.assert_array_equal(params.flat, ref_params.flat)
        assert trace == ref_trace

    def test_small_learning_rate_near_monotone_loss(self):
        arch = toy_arch("tanh")
        features, scalars, y = toy_inputs(30, arch, 89)
        config = TrainConfig(learning_rate=1e-3, batch_size=30, max_epochs=60, seed=11)
        _, trace = train(arch, config, features, scalars, y)
        losses = trace.epoch_losses
        assert all(losses[i + 1] <= losses[i] * 1.01 for i in range(len(losses) - 1))

    def test_validation_restores_best_epoch(self):
        arch = toy_arch("tanh")
        features, scalars, y = toy_inputs(40, arch, 97)
        config = TrainConfig(max_epochs=25, batch_size=8, validation_fraction=0.25, seed=13)
        params, trace = train(arch, config, features, scalars, y)
        assert trace.best_epoch is not None
        assert len(trace.validation_losses) == len(trace.epoch_losses)
        assert min(trace.validation_losses) == trace.validation_losses[trace.best_epoch]

    def test_divergence_raises_with_trace(self):
        arch = NetworkArchitecture(1, (3,), 1, (4,), ("identity",))
        features, scalars, y = toy_inputs(12, NetworkArchitecture(1, (3,), 1, (4,), ("identity",)), 101)
        config = TrainConfig(learning_rate=1e150, max_epochs=20, batch_size=4, seed=1)
        with pytest.raises(TrainingDivergedError):
            train(arch, config, features, scalars, y)

    def test_training_with_spatial_context_improves_loss(self):
        rng = np.random.default_rng(103)
        arch = NetworkArchitecture(1, (4,), 1, (6,), ("tanh",))
        n = 40
        W = build_inverse_distance_weights(n)
        features = rng.normal(size=(n, 4))
        scalars = rng.normal(size=(n, 1))
        y = rng.normal(size=n)
        ctx = SpatialContext(W, 0.5)
        config = TrainConfig(learning_rate=0.01, batch_size=10, max_epochs=40, seed=7)
        _, trace = train(arch, config, features, scalars, y, ctx)
        assert trace.epoch_losses[-1] < trace.epoch_losses[0]


class TestParameterStorage:
    def test_tensor_views_alias_flat(self):
        params = init_parameters(toy_arch(), 193)
        for _, tensor, _ in params.tensors():
            assert np.shares_memory(tensor, params.flat)
        params.func_weights[0, 0] = 123.0
        params.biases[-1][...] = -7.0
        assert params.flat[0] == 123.0
        assert params.flat[-1] == -7.0
        assert params.num_weights == params.flat.size - sum(b.size for b in params.biases)

    def test_copy_and_zeros_like_do_not_alias_source(self):
        params = init_parameters(toy_arch(), 197)
        snapshot = params.flat.copy()
        for other in (params.copy(), NetworkParameters.zeros_like(params)):
            assert not np.shares_memory(other.flat, params.flat)
            other.flat += 1.0
            for _, tensor, _ in other.tensors():
                tensor[...] = 5.0
        np.testing.assert_array_equal(params.flat, snapshot)

    def test_gradients_calls_return_independent_containers(self):
        arch = toy_arch("tanh")
        params = init_parameters(arch, 199)
        features, scalars, y = toy_inputs(9, arch, 211)
        first = gradients(params, features, scalars, y)
        kept = first.flat.copy()
        second = gradients(params, features[:4], scalars[:4], y[:4])
        assert not np.shares_memory(first.flat, second.flat)
        np.testing.assert_array_equal(first.flat, kept)
        assert not np.array_equal(first.flat, second.flat)


class TestPrefilterIdentity:
    """Filtering the inputs once equals filtering the first-layer pre-activations."""

    def test_forward_matches_dense_preactivation_filter(self):
        arch = toy_arch("tanh")
        params = init_parameters(arch, 151)
        features, scalars, _ = toy_inputs(14, arch, 157)
        W = build_inverse_distance_weights(14)
        rho = 0.7
        pre = np.linalg.solve(
            np.eye(14) - rho * W.toarray(),
            features @ params.func_weights.T + scalars @ params.scalar_weights.T,
        )
        h = np.tanh(pre + params.biases[0])
        h = np.tanh(h @ params.hidden_weights[0].T + params.biases[1])
        expected = (h @ params.hidden_weights[1].T + params.biases[2]).ravel()
        got, _ = forward(params, features, scalars, SpatialContext(W, rho))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_minibatch_gradient_matches_masked_loss(self):
        arch = toy_arch("sigmoid")
        params = init_parameters(arch, 163)
        features, scalars, y = toy_inputs(12, arch, 167)
        W = build_inverse_distance_weights(12)
        ctx = SpatialContext(W, 0.6)
        rows = np.array([1, 4, 5, 10])

        filtered_f, filtered_z = _prefilter(ctx, features, scalars)
        _, grads = _backprop(params, filtered_f[rows], filtered_z[rows], y[rows])
        analytic = [(n, g) for n, g, _ in grads.tensors()]

        def masked_loss():
            residual = predict(params, features, scalars, ctx) - y
            return float(np.mean(residual[rows] ** 2))

        numeric = []
        step = 1e-5
        for name, tensor, _ in params.tensors():
            g = np.zeros_like(tensor)
            for idx in np.ndindex(tensor.shape):
                orig = tensor[idx]
                tensor[idx] = orig + step
                lp = masked_loss()
                tensor[idx] = orig - step
                lm = masked_loss()
                tensor[idx] = orig
                g[idx] = (lp - lm) / (2.0 * step)
            numeric.append((name, g))
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_train_rejects_context_of_wrong_size(self):
        arch = toy_arch()
        features, scalars, y = toy_inputs(10, arch, 173)
        ctx = SpatialContext(build_inverse_distance_weights(12), 0.5)
        with pytest.raises(DimensionError):
            train(arch, TrainConfig(max_epochs=2, seed=0), features, scalars, y, ctx)


class TestPermutationEquivariance:
    def test_predictions_permute_with_rows_and_weights(self):
        arch = toy_arch("tanh")
        params = init_parameters(arch, 107)
        features, scalars, _ = toy_inputs(15, arch, 109)
        W = build_inverse_distance_weights(15)
        ctx = SpatialContext(W, 0.55)
        base = predict(params, features, scalars, ctx)

        rng = np.random.default_rng(113)
        perm = rng.permutation(15)
        w_perm = W.toarray()[np.ix_(perm, perm)]
        ctx_perm = SpatialContext(SpatialWeightMatrix(w_perm, row_normalized=True), 0.55)
        permuted = predict(params, features[perm], scalars[perm], ctx_perm)
        np.testing.assert_allclose(permuted, base[perm], atol=1e-10)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        arch = toy_arch("sigmoid")
        params = init_parameters(arch, 127)
        path = tmp_path / "net.txt"
        save_parameters(params, path)
        back = load_parameters(path)
        assert back.arch == arch
        for (_, a, _), (_, b, _) in zip(params.tensors(), back.tensors()):
            np.testing.assert_array_equal(a, b)

    def test_tensor_shapes_must_match_header(self, tmp_path):
        params = init_parameters(toy_arch("tanh"), 181)
        path = tmp_path / "net.txt"
        save_parameters(params, path)
        path.write_text(path.read_text().replace("hidden 5 3\n", "hidden 5 4\n"))
        with pytest.raises(DimensionError):
            load_parameters(path)

    def test_round_trip_preserves_predictions(self, tmp_path):
        arch = NetworkArchitecture(2, (3, 5), 1, (4, 2), ("relu", "tanh"))
        params = init_parameters(arch, 131)
        features = np.random.default_rng(137).normal(size=(6, 8))
        scalars = np.random.default_rng(139).normal(size=(6, 1))
        path = tmp_path / "net.txt"
        save_parameters(params, path)
        back = load_parameters(path)
        np.testing.assert_array_equal(
            predict(params, features, scalars), predict(back, features, scalars)
        )
