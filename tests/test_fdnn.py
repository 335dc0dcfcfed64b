"""Tests for the functional network: forward, gradients, training, serialization."""

from dataclasses import replace

import numpy as np
import pytest

from sfdnn import fdnn
from sfdnn.errors import (
    DataError,
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
    _check_inputs,
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


def _expit(x):
    from scipy.special import expit

    return expit(x)


# tag -> (activation, derivative as a function of the pre-activation)
REFERENCE_ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: x > 0.0),
    "sigmoid": (_expit, lambda x: _expit(x) * (1.0 - _expit(x))),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
    "identity": (lambda x: x, np.ones_like),
}


def column_sums(g, split):
    return np.add.reduce(g, axis=0) if split else np.ones(g.shape[0]) @ g


def reference_backprop(params, features, scalars, y, split=False):
    """(sum of squared residuals, exact gradients of their mean) with every array fresh.

    An oracle written apart from the package's layer kernel: each layer
    keeps its own pre-activation and output, and each derivative is taken
    from the pre-activation.  The first layer is one product of [F | Z]
    with [A | B], and a bias gradient is a row of ones times dL/d pre.
    With ``split`` it keeps the earlier arithmetic instead: F A' + Z B' in
    two products, and each bias gradient a column sum by ``np.add.reduce``.
    """
    arch = params.arch
    if split:
        pre = features @ params.func_weights.T
        pre += scalars @ params.scalar_weights.T
    else:
        inputs = np.hstack([features, scalars])
        pre = inputs @ np.hstack([params.func_weights, params.scalar_weights]).T
    pres, posts = [], []
    for r, tag in enumerate(arch.activations):
        if r > 0:
            pre = h @ params.hidden_weights[r - 1].T
        pre += params.biases[r]
        h = REFERENCE_ACTIVATIONS[tag][0](pre)
        pres.append(pre)
        posts.append(h)
    residual = h @ params.hidden_weights[-1].T
    residual += params.biases[-1]
    residual = residual.ravel() - y
    total = float(residual @ residual)

    grads = NetworkParameters.zeros_like(params)
    g = residual[:, None] * (2.0 / residual.size)  # dL/d out
    grads.hidden_weights[-1][...] = g.T @ posts[-1]
    grads.biases[-1][...] = column_sums(g, split)
    g = g @ params.hidden_weights[-1]  # dL/d h_R
    for r in range(len(arch.hidden_sizes) - 1, -1, -1):
        g = g * REFERENCE_ACTIVATIONS[arch.activations[r]][1](pres[r])  # dL/d pre_r
        grads.biases[r][...] = column_sums(g, split)
        if r > 0:
            grads.hidden_weights[r - 1][...] = g.T @ posts[r - 1]
            g = g @ params.hidden_weights[r - 1]
    if split:
        grads.func_weights[...] = g.T @ features
        grads.scalar_weights[...] = g.T @ scalars
    else:
        first = g.T @ inputs
        grads.func_weights[...] = first[:, : arch.feature_width]
        grads.scalar_weights[...] = first[:, arch.feature_width :]
    return total, grads


def reference_train(arch, config, features, scalars, y, ctx=None, split=False):
    """The per-step-allocating training loop that ``train`` must reproduce bit for bit.

    Each step takes a fresh gradient container and runs Adam out of place
    on whole-vector temporaries, on the moments rescaled by 1 / (1 - beta):
    M = b1 M + g and V = b2 V + g g.  An epoch's loss is the sum of its
    steps' squared residuals over its number of training rows.  With
    ``split`` it keeps the earlier arithmetic, which equals this one up to
    rounding: :func:`reference_backprop`'s split products and Adam's
    textbook moments m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g.  Both
    take the validation losses with the public forward.
    """
    params = init_parameters(arch, config.seed)
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if ctx is not None:
        filtered = ctx.solve(np.hstack([features, scalars]))
        features, scalars = filtered[:, : arch.feature_width], filtered[:, arch.feature_width :]
    shuffle_rng = np.random.default_rng([config.seed, 1])
    split_rng = np.random.default_rng([config.seed, 2])
    if config.validation_fraction > 0.0:
        n_val = min(int(round(config.validation_fraction * n)), n - 1)
        perm = split_rng.permutation(n)
        val_rows, train_rows = np.sort(perm[:n_val]), np.sort(perm[n_val:])
    else:
        val_rows, train_rows = np.empty(0, dtype=int), np.arange(n)

    moment_m = np.zeros_like(params.flat)
    moment_v = np.zeros_like(params.flat)
    weights = slice(0, params.num_weights)
    lr, wd = config.learning_rate, config.weight_decay
    step = 0
    trace = TrainingTrace()
    best_params, best_val, prev_loss = None, np.inf, None
    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(train_rows)
        epoch_sq = 0.0
        for start in range(0, order.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            batch_sq, grads = reference_backprop(
                params, features[batch], scalars[batch], y[batch], split
            )
            epoch_sq += batch_sq
            step += 1
            g = grads.flat
            if split:
                moment_m = ADAM_BETA1 * moment_m + (1.0 - ADAM_BETA1) * g
                moment_v = ADAM_BETA2 * moment_v + (1.0 - ADAM_BETA2) * g * g
                update = (moment_m / (1.0 - ADAM_BETA1**step)) / (
                    np.sqrt(moment_v / (1.0 - ADAM_BETA2**step)) + ADAM_EPS
                )
                if wd > 0.0:
                    update[weights] += wd * params.flat[weights]
                params.flat -= lr * update
            else:
                moment_m = ADAM_BETA1 * moment_m + g
                moment_v = ADAM_BETA2 * moment_v + g * g
                root_k = np.sqrt((1.0 - ADAM_BETA2**step) / (1.0 - ADAM_BETA2))
                scale = lr * (1.0 - ADAM_BETA1) / (1.0 - ADAM_BETA1**step) * root_k
                update = (moment_m / (np.sqrt(moment_v) + ADAM_EPS * root_k)) * scale
                if wd > 0.0:
                    update[weights] += (lr * wd) * params.flat[weights]
                params.flat -= update
        epoch_loss = epoch_sq / train_rows.size
        trace.epoch_losses.append(epoch_loss)
        if val_rows.size:
            diff = predict(params, features[val_rows], scalars[val_rows]) - y[val_rows]
            val_loss = float(diff @ diff) / val_rows.size
            trace.validation_losses.append(val_loss)
            if val_loss < best_val:
                best_val, best_params, trace.best_epoch = val_loss, params.copy(), epoch
        delta = epoch_loss if epoch == 0 else abs(prev_loss - epoch_loss)
        prev_loss = epoch_loss
        if delta < config.early_stop_threshold:
            trace.stopped_early = True
            break
    return (best_params if best_params is not None else params), trace


# (architecture, TrainConfig changes, spatial) for the training oracles
TRAIN_CASES = [
    (toy_arch("relu"), {}, False),
    (toy_arch("tanh"), {}, False),
    (toy_arch("sigmoid"), {}, False),
    (toy_arch("tanh"), {"weight_decay": 3e-2}, False),
    (toy_arch("relu"), {"validation_fraction": 0.25}, False),
    (toy_arch("sigmoid"), {"early_stop_threshold": 3e-3}, False),
    (toy_arch("relu"), {"weight_decay": 1e-2, "validation_fraction": 0.2}, True),
    (toy_arch("identity"), {}, False),
    (NetworkArchitecture(2, (4, 4), 2, (5, 3), ("relu", "tanh")), {}, False),
    (NetworkArchitecture.uniform(2, 2, 4, (6,), "tanh"), {}, False),
    (toy_arch("relu"), {"batch_size": 40}, False),
    (toy_arch("tanh"), {"batch_size": 10}, False),
    (NetworkArchitecture.uniform(2, 0, 4, (5, 3), "relu"), {}, True),
    # the default estimator's shape: one narrow ReLU layer
    (NetworkArchitecture.uniform(2, 2, 4, (4,), "relu"), {"validation_fraction": 0.25}, False),
    (NetworkArchitecture.uniform(2, 2, 4, (4,), "relu"), {"validation_fraction": 0.25}, True),
]
TRAIN_CASE_IDS = [
    "relu", "tanh", "sigmoid", "weight-decay", "validation", "early-stop", "spatial",
    "identity", "mixed-activations", "one-hidden-layer", "one-batch-per-epoch",
    "no-short-batch", "no-scalars", "one-relu-layer-validation", "one-relu-layer-spatial-validation",
]


def train_case(arch, changes, spatial):
    """(config, features, scalars, y, ctx) of one training-oracle case."""
    features, scalars, y = toy_inputs(30, arch, 191)
    ctx = SpatialContext(build_inverse_distance_weights(30), 0.7) if spatial else None
    config = replace(TrainConfig(learning_rate=0.03, batch_size=7, max_epochs=15, seed=23), **changes)
    return config, features, scalars, y, ctx


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
        assert params.func_weights.shape == (4, 5)
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


    @pytest.mark.parametrize("tags", ["tanh", ("tanh",), ("tanh", "tanh", "tanh")])
    def test_uniform_broadcasts_one_activation_tag(self, tags):
        arch = NetworkArchitecture.uniform(2, 3, 5, [8, 4, 2], tags)
        assert arch == NetworkArchitecture(2, (5, 5), 3, (8, 4, 2), ("tanh", "tanh", "tanh"))

    @pytest.mark.parametrize(
        "basis, hidden, field",
        [((3.7,), (2,), "basis_sizes"), ((3,), (2.5,), "hidden_sizes"), ((3,), (True,), "hidden_sizes")],
        ids=["basis-size", "hidden-size", "bool"],
    )
    def test_non_integer_sizes_rejected(self, basis, hidden, field):
        with pytest.raises(InvalidArchitectureError, match=f"^{field} must be an integer"):
            NetworkArchitecture(1, basis, 1, hidden, ("relu",))

    def test_numpy_integer_sizes_accepted(self):
        arch = NetworkArchitecture(1, (np.int64(3),), np.int64(1), (np.int32(2),), ("relu",))
        assert arch == NetworkArchitecture(1, (3,), 1, (2,), ("relu",))

    def test_uniform_keeps_one_tag_per_layer(self):
        arch = NetworkArchitecture.uniform(1, 0, 4, (3, 2), ("relu", "sigmoid"))
        assert arch.activations == ("relu", "sigmoid")
        with pytest.raises(InvalidArchitectureError):
            NetworkArchitecture.uniform(1, 0, 4, (3, 2, 2), ("relu", "sigmoid"))


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

    def test_empty_rejected(self):
        with pytest.raises(DimensionError, match="^the response needs at least one row$"):
            loss([], [])


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

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid", "identity"])
    def test_bit_identical_to_allocating_reference(self, activation):
        arch = NetworkArchitecture(2, (4, 4), 2, (5, 3), (activation, "tanh"))
        params = init_parameters(arch, 59)
        features, scalars, y = toy_inputs(11, arch, 61)
        _, expected = reference_backprop(params, features, scalars, y)
        np.testing.assert_array_equal(gradients(params, features, scalars, y).flat, expected.flat)

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
    @pytest.mark.parametrize(
        "name", ["learning_rate", "early_stop_threshold", "weight_decay", "validation_fraction"]
    )
    def test_nan_setting_rejected(self, name):
        with pytest.raises(InvalidArchitectureError, match=f"^{name} must "):
            TrainConfig(**{name: float("nan")})

    @pytest.mark.parametrize("name, value", [("batch_size", 2.5), ("max_epochs", 1.5), ("seed", 0.5)])
    def test_non_integer_setting_rejected(self, name, value):
        with pytest.raises(InvalidArchitectureError, match=f"^{name} must be an integer"):
            TrainConfig(**{name: value})

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

    def test_zero_rows_rejected(self):
        # an empty training set fails at the boundary, not inside the batching
        arch = toy_arch()
        features, scalars, y = toy_inputs(0, arch, 73)
        with pytest.raises(DimensionError, match="at least one row"):
            train(arch, TrainConfig(max_epochs=2), features, scalars, y)

    @pytest.mark.parametrize("rows, y_size", [(0, 0), (4, 3)], ids=["zero-rows", "short-response"])
    @pytest.mark.parametrize("spatial", [False, True], ids=["plain", "spatial"])
    @pytest.mark.parametrize("call", ["gradients", "train"])
    def test_bad_rows_rejected_before_any_solve(self, call, spatial, rows, y_size, monkeypatch):
        arch = toy_arch()
        features, scalars, y = toy_inputs(rows, arch, 73)
        ctx = SpatialContext(build_inverse_distance_weights(12), 0.5) if spatial else None

        def refuse(*_):
            raise AssertionError("the filter was solved")

        monkeypatch.setattr(SpatialContext, "solve", refuse)
        message = "at least one row" if rows == 0 else "response length does not match inputs"
        with pytest.raises(DimensionError, match=message):
            if call == "train":
                train(arch, TrainConfig(max_epochs=2), features, scalars, y[:y_size], ctx)
            else:
                gradients(init_parameters(arch, 0), features, scalars, y[:y_size], ctx)

    @pytest.mark.parametrize("rows, length", [(3, 7), (3, 3), (0, 0), (0, 2)])
    @pytest.mark.parametrize("call", ["forward", "gradients"])
    def test_one_dimensional_scalars_of_the_wrong_length_raise_a_typed_error(self, call, rows, length):
        # a length other than rows x num_scalar is a shape error, not numpy's reshape error
        arch = toy_arch()
        features, _, y = toy_inputs(rows, arch, 73)
        scalars = np.zeros(length)
        if rows == 0 and length == 0:
            if call == "forward":
                # zero rows of width num_scalar, as a 2-D input of that shape
                assert forward(init_parameters(arch, 0), features, scalars)[0].shape == (0,)
                return
            match = "at least one row"
        else:
            match = f"scalars have shape \\({length},\\), expected \\({rows}, 2\\)"
        with pytest.raises(DimensionError, match=match):
            if call == "forward":
                forward(init_parameters(arch, 0), features, scalars)
            else:
                gradients(init_parameters(arch, 0), features, scalars, y)

    @pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "call, name",
        [
            ("forward", "features"),
            ("forward", "scalars"),
            ("gradients", "features"),
            ("gradients", "scalars"),
            ("gradients", "response"),
            ("train", "features"),
            ("train", "scalars"),
            ("train", "response"),
        ],
    )
    def test_non_finite_inputs_refused_before_any_solve(self, call, name, value, monkeypatch):
        # not a numeric failure of the network: the input is named at the gate
        arch = toy_arch()
        features, scalars, y = toy_inputs(12, arch, 73)
        {"features": features, "scalars": scalars, "response": y}[name][3] = value
        ctx = SpatialContext(build_inverse_distance_weights(12), 0.5)

        def refuse(*_):
            raise AssertionError("the filter was solved")

        monkeypatch.setattr(SpatialContext, "solve", refuse)
        with pytest.raises(DataError, match=f"^{name} contains NaN or infinite values$"):
            if call == "forward":
                forward(init_parameters(arch, 0), features, scalars, ctx)
            elif call == "gradients":
                gradients(init_parameters(arch, 0), features, scalars, y, ctx)
            else:
                train(arch, TrainConfig(max_epochs=2), features, scalars, y, ctx)

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
                root_k = np.sqrt((1.0 - ADAM_BETA2**step) / (1.0 - ADAM_BETA2))
                scale = config.learning_rate * (1.0 - ADAM_BETA1) / (1.0 - ADAM_BETA1**step) * root_k
                for (_, p, is_w), (_, g, _), (_, m, _), (_, v, _) in zip(
                    ref.tensors(), grads.tensors(), moments_m.tensors(), moments_v.tensors()
                ):
                    # the moments rescaled by 1 / (1 - beta)
                    m[...] = ADAM_BETA1 * m + g
                    v[...] = ADAM_BETA2 * v + g * g
                    update = (m / (np.sqrt(v) + ADAM_EPS * root_k)) * scale
                    if is_w:
                        update = update + (config.learning_rate * config.weight_decay) * p
                    p -= update
        for (_, a, _), (_, b, _) in zip(params.tensors(), ref.tensors()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("arch, changes, spatial", TRAIN_CASES, ids=TRAIN_CASE_IDS)
    def test_matches_per_step_allocating_reference(self, arch, changes, spatial):
        config, *data = train_case(arch, changes, spatial)
        params, trace = train(arch, config, *data)
        ref_params, ref_trace = reference_train(arch, config, *data)
        np.testing.assert_array_equal(params.flat, ref_params.flat)
        assert trace == ref_trace

    @pytest.mark.parametrize("arch, changes, spatial", TRAIN_CASES, ids=TRAIN_CASE_IDS)
    def test_agrees_with_the_split_arithmetic_to_rounding(self, arch, changes, spatial):
        # two first-layer products, column-sum bias gradients and textbook
        # Adam moments are the same math in another rounding
        config, *data = train_case(arch, changes, spatial)
        params, trace = train(arch, config, *data)
        ref_params, ref_trace = reference_train(arch, config, *data, split=True)
        np.testing.assert_allclose(params.flat, ref_params.flat, rtol=0, atol=1e-14)
        np.testing.assert_allclose(trace.epoch_losses, ref_trace.epoch_losses, rtol=1e-14)
        np.testing.assert_allclose(trace.validation_losses, ref_trace.validation_losses, rtol=1e-14)
        assert (trace.best_epoch, trace.stopped_early) == (ref_trace.best_epoch, ref_trace.stopped_early)

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
        # the returned parameters are the best epoch's: their validation loss is its loss, bit for bit
        n_val = round(config.validation_fraction * y.size)
        val_rows = np.sort(np.random.default_rng([config.seed, 2]).permutation(y.size)[:n_val])
        diff = predict(params, features[val_rows], scalars[val_rows]) - y[val_rows]
        assert float(diff @ diff) / n_val == trace.validation_losses[trace.best_epoch]
        assert trace.best_epoch < len(trace.epoch_losses) - 1  # a later epoch was discarded

    def test_validation_never_calls_forward(self, monkeypatch):
        arch = toy_arch("tanh")
        features, scalars, y = toy_inputs(30, arch, 199)

        def refuse(*_):
            raise AssertionError("train called forward")

        monkeypatch.setattr(fdnn, "forward", refuse)
        config = TrainConfig(batch_size=7, max_epochs=5, validation_fraction=0.2, seed=29)
        _, trace = train(arch, config, features, scalars, y)
        assert len(trace.validation_losses) == 5

    # 30 rows at a fraction of 0.2 hold 6 validation rows: one batch size
    # shares their kernel with every step, the other with none
    @pytest.mark.parametrize("batch_size", [6, 7], ids=["n-val-is-batch-size", "n-val-is-not"])
    def test_validation_losses_match_a_forward_oracle(self, batch_size):
        arch = toy_arch("tanh")
        features, scalars, y = toy_inputs(30, arch, 199)
        config = TrainConfig(
            learning_rate=0.03, batch_size=batch_size, max_epochs=12, validation_fraction=0.2, seed=29
        )
        params, trace = train(arch, config, features, scalars, y)
        # the oracle takes each epoch's validation loss with the public forward
        ref_params, ref_trace = reference_train(arch, config, features, scalars, y)
        assert len(trace.validation_losses) == 12
        assert trace.validation_losses == ref_trace.validation_losses
        np.testing.assert_array_equal(params.flat, ref_params.flat)

    def test_divergence_raises_with_trace(self):
        arch = NetworkArchitecture(1, (3,), 1, (4,), ("identity",))
        features, scalars, y = toy_inputs(12, NetworkArchitecture(1, (3,), 1, (4,), ("identity",)), 101)
        config = TrainConfig(learning_rate=1e150, max_epochs=20, batch_size=4, seed=1)
        with pytest.raises(TrainingDivergedError):
            train(arch, config, features, scalars, y)

    def test_validation_overflow_raises_with_trace(self):
        arch = NetworkArchitecture.uniform(1, 1, 4, (3,), "identity")
        features, scalars, y = toy_inputs(20, arch, 107)
        config = TrainConfig(max_epochs=2, batch_size=5, validation_fraction=0.2, seed=0)
        # a row of the validation split that ``train`` draws for this seed
        features[np.random.default_rng([config.seed, 2]).permutation(20)[0]] = 1e308
        with pytest.raises(TrainingDivergedError) as caught:
            train(arch, config, features, scalars, y)
        # the first epoch's training rows passed; its validation pass overflowed
        assert len(caught.value.trace.epoch_losses) == 1
        assert caught.value.trace.validation_losses == []

    @pytest.mark.parametrize(
        "value, message",
        [(1e200, "batch loss became non-finite"), (1e308, "network produced non-finite predictions")],
    )
    def test_step_overflow_raises_with_trace(self, value, message):
        arch = NetworkArchitecture.uniform(1, 1, 4, (3,), "identity")
        features, scalars, y = toy_inputs(20, arch, 107)
        features[5] = value  # a training row: the first epoch's steps overflow on it
        config = TrainConfig(max_epochs=2, batch_size=5, seed=0)
        with pytest.raises(TrainingDivergedError, match=f"^{message}$") as caught:
            train(arch, config, features, scalars, y)
        assert caught.value.trace == TrainingTrace()

    def test_train_and_gradients_restore_the_error_state(self):
        arch = NetworkArchitecture.uniform(1, 1, 4, (3,), "identity")
        features, scalars, y = toy_inputs(20, arch, 107)
        config = TrainConfig(max_epochs=2, batch_size=5, seed=0)
        huge = features.copy()
        huge[5] = 1e308
        with np.errstate(divide="raise", over="raise", under="warn", invalid="raise"):
            state = np.geterr()
            train(arch, config, features, scalars, y)
            assert np.geterr() == state
            with pytest.raises(TrainingDivergedError):
                train(arch, config, huge, scalars, y)
            assert np.geterr() == state
            gradients(init_parameters(arch, 0), features, scalars, y)
            assert np.geterr() == state
            with pytest.raises(NumericOverflowError):
                gradients(init_parameters(arch, 0), huge, scalars, y)
            assert np.geterr() == state

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


def alone(arch, config, features, scalars, y):
    """What ``train`` returns for one member, or the error it raises."""
    try:
        return train(arch, config, features, scalars, y)
    except TrainingDivergedError as exc:
        return exc


def assert_same_outcome(stacked, single):
    if isinstance(single, Exception):
        assert type(stacked) is type(single) and str(stacked) == str(single)
        assert stacked.trace == single.trace
        return
    (params, trace), (ref_params, ref_trace) = stacked, single
    assert params.flat.tobytes() == ref_params.flat.tobytes()
    assert trace == ref_trace


def stack(arch, config, members, y):
    """What ``_train_stack`` returns for the checked [F | Z] block of each (features, scalars) member."""
    checked = [_check_inputs(arch, *member, y) for member in members]
    return fdnn._train_stack(arch, config, [block for block, _ in checked], checked[0][1])


class TestMemberStack:
    """Members trained as one stack end bit for bit where ``train`` leaves each alone."""

    @pytest.mark.parametrize("arch, changes, spatial", TRAIN_CASES, ids=TRAIN_CASE_IDS)
    def test_two_members_equal_two_train_calls(self, arch, changes, spatial):
        config, features, scalars, y, ctx = train_case(arch, changes, spatial)
        if ctx is not None:
            # the member of a spatial fit trains on its filtered block, as sfdnn does
            block = _check_inputs(arch, features, scalars, ctx=ctx)[0]
            features, scalars = np.hsplit(block, [arch.feature_width])
        other_features, other_scalars, _ = toy_inputs(30, arch, 7)
        members = [(features, scalars), (other_features, other_scalars)]
        stacked = stack(arch, config, members, y)
        assert len(stacked) == 2
        for member, outcome in zip(members, stacked):
            assert_same_outcome(outcome, alone(arch, config, *member, y))

    def test_three_members_with_a_validation_split(self):
        arch = toy_arch("relu")
        config, *_ = train_case(arch, {"validation_fraction": 0.25, "weight_decay": 1e-2}, False)
        y = toy_inputs(30, arch, 191)[2]
        members = [toy_inputs(30, arch, seed)[:2] for seed in (191, 7, 41)]
        for member, outcome in zip(members, stack(arch, config, members, y)):
            assert_same_outcome(outcome, alone(arch, config, *member, y))
            assert outcome[1].best_epoch is not None

    def test_members_stop_early_at_different_epochs(self):
        arch = toy_arch("sigmoid")
        config, *_ = train_case(arch, {"early_stop_threshold": 1e-3, "max_epochs": 40}, False)
        y = toy_inputs(30, arch, 191)[2]
        members = [toy_inputs(30, arch, seed)[:2] for seed in (191, 7)]
        stacked = stack(arch, config, members, y)
        for member, outcome in zip(members, stacked):
            assert_same_outcome(outcome, alone(arch, config, *member, y))
            assert outcome[1].stopped_early
        assert [len(trace.epoch_losses) for _, trace in stacked] == [3, 5]

    # (poisoned row, value, validation fraction, message): the second member's inputs
    # overflow in a step, in its epoch loss, or in its validation pass
    @pytest.mark.parametrize(
        "row, value, fraction, message",
        [
            (5, 1e200, 0.0, "batch loss became non-finite"),
            (5, 1e308, 0.0, "network produced non-finite predictions"),
            (None, 2e153, 0.0, "epoch loss became non-finite"),
            ("validation", 1e308, 0.2, "network produced non-finite predictions"),
        ],
        ids=["batch-loss", "step-predictions", "epoch-loss", "validation"],
    )
    def test_a_diverging_member_leaves_the_other_to_finish(self, row, value, fraction, message):
        arch = NetworkArchitecture.uniform(1, 1, 4, (3,), "identity")
        features, scalars, y = toy_inputs(20, arch, 107)
        config = TrainConfig(
            learning_rate=0.5, max_epochs=4, batch_size=5, validation_fraction=fraction, seed=0
        )
        poisoned = features.copy()
        if row is None:
            poisoned *= value
        else:
            if row == "validation":
                # a row of the validation split that the stack draws for this seed
                row = np.random.default_rng([config.seed, 2]).permutation(20)[0]
            poisoned[row] = value
        members = [(features, scalars), (poisoned, scalars)]
        kept, diverged = stack(arch, config, members, y)
        assert isinstance(diverged, TrainingDivergedError) and str(diverged) == message
        assert_same_outcome(diverged, alone(arch, config, poisoned, scalars, y))
        assert_same_outcome(kept, alone(arch, config, features, scalars, y))
        assert len(kept[1].epoch_losses) == 4

    def test_stacked_views_alias_one_vector(self):
        arch = NetworkArchitecture(2, (4, 4), 2, (5, 3), ("relu", "tanh"))
        size = arch.num_parameters
        flat = np.arange(3.0 * size)
        views = fdnn._views(arch, flat, 3)
        for k in range(3):
            member = NetworkParameters(arch, flat[k * size : (k + 1) * size])
            blocks = [member._input_weights, *member.hidden_weights]
            for stacked, single in zip(views.weights, blocks):
                assert np.shares_memory(stacked, flat)
                np.testing.assert_array_equal(stacked[k], single)
            for stacked, single in zip(views.biases, member.biases):
                assert stacked.shape == (3, 1, single.size)
                np.testing.assert_array_equal(stacked[k, 0], single)


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

    def test_first_layer_is_one_block_of_flat(self):
        # func_weights and scalar_weights are the column views [A | B] of one
        # row-major block at the head of flat
        arch = toy_arch()
        params = NetworkParameters(arch, np.arange(float(arch.num_parameters)))
        n1, width = arch.hidden_sizes[0], arch.feature_width + arch.num_scalar
        block = params.flat[: n1 * width].reshape(n1, width)
        for view, columns in [
            (params.func_weights, block[:, : arch.feature_width]),
            (params.scalar_weights, block[:, arch.feature_width :]),
        ]:
            assert np.shares_memory(view, params.flat)
            assert view.strides == columns.strides
            np.testing.assert_array_equal(view, columns)
        params.scalar_weights[2, 1] = -5.0
        assert block[2, -1] == -5.0

    def test_copy_and_zeros_like_do_not_alias_source(self):
        params = init_parameters(toy_arch(), 197)
        snapshot = params.flat.copy()
        for other in (params.copy(), NetworkParameters.zeros_like(params)):
            assert not np.shares_memory(other.flat, params.flat)
            other.flat += 1.0
            for _, tensor, _ in other.tensors():
                tensor[...] = 5.0
        np.testing.assert_array_equal(params.flat, snapshot)

    def test_binds_only_a_vector_of_the_architecture_size(self):
        arch = toy_arch()
        flat = np.arange(float(arch.num_parameters))
        params = NetworkParameters(arch, flat)
        assert params.flat is flat and params.biases[-1][0] == flat[-1]
        for bad in (flat[:-1], np.zeros(arch.num_parameters + 1), flat.reshape(1, -1)):
            with pytest.raises(DimensionError, match=f"expects \\({arch.num_parameters},\\)"):
                NetworkParameters(arch, bad)

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

        filtered = _check_inputs(arch, features, scalars, ctx=ctx)[0]
        width = arch.feature_width
        _, grads = reference_backprop(params, filtered[rows, :width], filtered[rows, width:], y[rows])
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

    def test_text_of_hand_set_tensors(self, tmp_path):
        # the text format lists A and B whole, whatever the storage order
        arch = NetworkArchitecture(2, (2, 1), 2, (2, 1), ("relu", "tanh"))
        params = NetworkParameters(arch, np.zeros(arch.num_parameters))
        start = 0
        for _, tensor, _ in params.tensors():
            tensor[...] = np.arange(start, start + tensor.size).reshape(tensor.shape) + 0.25
            start += tensor.size
        params.func_weights[0, 0] = 0.1
        params.scalar_weights[1, 1] = -1e-300
        path = tmp_path / "net.txt"
        save_parameters(params, path)
        assert path.read_bytes() == (
            b"SFDNN-NET 1\n"
            b"functional 2 2 1\n"
            b"scalars 2\n"
            b"hidden 2 1\n"
            b"activations relu tanh\n"
            b"tensor func_weights 2 2 3 0.10000000000000001 1.25 2.25 3.25 4.25 5.25\n"
            b"tensor scalar_weights 2 2 2 6.25 7.25 8.25 -1e-300\n"
            b"tensor hidden_weights_0 2 1 2 10.25 11.25\n"
            b"tensor hidden_weights_1 2 1 1 12.25\n"
            b"tensor bias_0 1 2 13.25 14.25\n"
            b"tensor bias_1 1 1 15.25\n"
            b"tensor bias_2 1 1 16.25\n"
        )
        back = load_parameters(path)
        np.testing.assert_array_equal(back.flat, params.flat)

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
