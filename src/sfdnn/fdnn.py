"""Functional network: spline-projected curves and scalars through dense layers.

The first layer mixes precomputed basis inner products of the functional
predictors with the scalar covariates.  A spatial context filters the
first-layer pre-activations through the fixed linear map S = (I - rho W)^{-1}
before bias and activation; since S (F A' + Z B') = (S F) A' + (S Z) B', the
inputs are filtered once, in one solve, and the plain network runs on them.
Training steps therefore touch only their own mini-batch rows.

Training uses Adam (beta1=0.9, beta2=0.999, eps=1e-8) over shuffled
mini-batches, an epoch-loss improvement stopping rule, and an optional
validation split with best-epoch restoration.  Everything is deterministic
given the seed.  The parameter layout is bound once per architecture, and a
training step allocates no parameter-sized arrays: one gradient buffer and
the Adam moments are reused and updated in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InvalidArchitectureError,
    NumericOverflowError,
    TrainingDivergedError,
)
from .spatial import SpatialFilterFactor

__all__ = [
    "ACTIVATIONS",
    "NetworkArchitecture",
    "NetworkParameters",
    "TrainConfig",
    "TrainingTrace",
    "SpatialContext",
    "init_parameters",
    "forward",
    "loss",
    "gradients",
    "train",
    "predict",
    "save_parameters",
    "load_parameters",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_deriv(x):
    return (x > 0.0).astype(float)


def _sigmoid(x):
    from scipy.special import expit  # slow to import; only sigmoid networks need it
    return expit(x)


def _sigmoid_deriv(x):
    s = _sigmoid(x)
    return s * (1.0 - s)


def _tanh_deriv(x):
    return 1.0 - np.tanh(x) ** 2


ACTIVATIONS = {
    "relu": (_relu, _relu_deriv),
    "sigmoid": (_sigmoid, _sigmoid_deriv),
    "tanh": (np.tanh, _tanh_deriv),
    "identity": (lambda x: x, lambda x: np.ones_like(x)),
}


@dataclass(frozen=True)
class NetworkArchitecture:
    """Shape of the functional network.

    ``basis_sizes`` holds one spline-basis size per functional predictor;
    ``activations`` holds one tag per hidden layer.  The output layer is a
    single linear unit.
    """

    num_functional: int
    basis_sizes: tuple
    num_scalar: int
    hidden_sizes: tuple
    activations: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis_sizes", tuple(int(m) for m in self.basis_sizes))
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        object.__setattr__(self, "activations", tuple(self.activations))
        if self.num_functional < 0 or self.num_scalar < 0:
            raise InvalidArchitectureError("predictor counts must be nonnegative")
        if len(self.basis_sizes) != self.num_functional:
            raise InvalidArchitectureError("need one basis size per functional predictor")
        if any(m < 1 for m in self.basis_sizes):
            raise InvalidArchitectureError("basis sizes must be >= 1")
        if self.num_functional + self.num_scalar == 0:
            raise InvalidArchitectureError("network needs at least one input")
        if len(self.hidden_sizes) < 1:
            raise InvalidArchitectureError("need at least one hidden layer")
        if any(h < 1 for h in self.hidden_sizes):
            raise InvalidArchitectureError("hidden sizes must be >= 1")
        if len(self.activations) != len(self.hidden_sizes):
            raise InvalidArchitectureError("need one activation per hidden layer")
        for tag in self.activations:
            if tag not in ACTIVATIONS:
                raise InvalidArchitectureError(f"unknown activation '{tag}'")

    @property
    def feature_width(self) -> int:
        return sum(self.basis_sizes)

    @property
    def num_parameters(self) -> int:
        n1 = self.hidden_sizes[0]
        count = n1 * (self.feature_width + self.num_scalar) + n1
        prev = n1
        for h in self.hidden_sizes[1:]:
            count += h * prev + h
            prev = h
        count += prev + 1
        return count


@dataclass
class TrainConfig:
    """Optimization hyperparameters; all runs are deterministic per seed."""

    learning_rate: float = 1e-2
    batch_size: int = 32
    max_epochs: int = 300
    early_stop_threshold: float = 0.0
    weight_decay: float = 0.0
    validation_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidArchitectureError("learning_rate must be positive")
        if self.batch_size < 1:
            raise InvalidArchitectureError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise InvalidArchitectureError("max_epochs must be >= 1")
        if self.early_stop_threshold < 0:
            raise InvalidArchitectureError("early_stop_threshold must be >= 0")
        if self.weight_decay < 0:
            raise InvalidArchitectureError("weight_decay must be >= 0")
        if not 0.0 <= self.validation_fraction <= 0.5:
            raise InvalidArchitectureError("validation_fraction must be in [0, 0.5]")


# the fixed spatial filter (I - rho W)^{-1} applied to the network inputs
SpatialContext = SpatialFilterFactor


def _tensor_shapes(arch):
    """Shapes of the learnable tensors in canonical order, weights first."""
    sizes = list(arch.hidden_sizes) + [1]
    shapes = [(sizes[0], arch.feature_width), (sizes[0], arch.num_scalar)]
    shapes += [(nxt, prev) for prev, nxt in zip(sizes[:-1], sizes[1:])]
    return shapes + [(s,) for s in sizes]


@functools.cache
def _layout(arch):
    """((start, stop, shape) per tensor in canonical order, number of weights)."""
    spans, stop = [], 0
    for shape in _tensor_shapes(arch):
        start, stop = stop, stop + math.prod(shape)
        spans.append((start, stop, shape))
    return tuple(spans), spans[1 + len(arch.hidden_sizes)][1]


class NetworkParameters:
    """All learnable tensors; gradient containers reuse this layout.

    ``func_weights`` is (n_1, sum of basis sizes): the per-neuron spline
    coefficient blocks concatenated over predictors.  ``hidden_weights``
    holds the transition matrices between consecutive layers, ending with
    the (1, n_R) output map.  ``biases`` has one vector per hidden layer
    plus the output bias.  Every tensor is a view into the contiguous
    vector ``flat``, in :meth:`tensors` order; its first ``num_weights``
    entries are the weights.
    """

    def __init__(self, arch, func_weights, scalar_weights, hidden_weights, biases):
        tensors = [func_weights, scalar_weights, *hidden_weights, *biases]
        if [np.shape(t) for t in tensors] != _tensor_shapes(arch):
            raise DimensionError("parameter tensor shapes do not match the architecture")
        self._bind(arch, np.concatenate([np.ravel(t) for t in tensors]).astype(float))

    def _bind(self, arch, flat):
        spans, self.num_weights = _layout(arch)
        self.arch, self.flat = arch, flat
        views = [flat[start:stop].reshape(shape) for start, stop, shape in spans]
        k = len(arch.hidden_sizes)
        self.func_weights, self.scalar_weights, *self.hidden_weights = views[: 2 + k]
        self.biases = views[2 + k :]

    @classmethod
    def _from_flat(cls, arch, flat) -> "NetworkParameters":
        params = cls.__new__(cls)
        params._bind(arch, flat)
        return params

    def functional_coeff_blocks(self):
        """Per-predictor views of the first-layer spline coefficients."""
        ends = np.cumsum(self.arch.basis_sizes)
        return [self.func_weights[:, e - m : e] for m, e in zip(self.arch.basis_sizes, ends)]

    def tensors(self):
        """(name, array, is_weight) triples in a fixed canonical order."""
        out = [
            ("func_weights", self.func_weights, True),
            ("scalar_weights", self.scalar_weights, True),
        ]
        for i, w in enumerate(self.hidden_weights):
            out.append((f"hidden_weights_{i}", w, True))
        for i, b in enumerate(self.biases):
            out.append((f"bias_{i}", b, False))
        return out

    def copy(self) -> "NetworkParameters":
        return self._from_flat(self.arch, self.flat.copy())

    @classmethod
    def zeros_like(cls, params: "NetworkParameters") -> "NetworkParameters":
        return cls._from_flat(params.arch, np.zeros_like(params.flat))


def init_parameters(arch: NetworkArchitecture, seed: int) -> NetworkParameters:
    """Uniform Glorot initialization; biases start at zero."""
    rng = np.random.default_rng(seed)
    params = NetworkParameters._from_flat(arch, np.zeros(arch.num_parameters))
    bound = np.sqrt(6.0 / (arch.feature_width + arch.num_scalar + arch.hidden_sizes[0]))
    params.func_weights[...] = rng.uniform(-bound, bound, size=params.func_weights.shape)
    params.scalar_weights[...] = rng.uniform(-bound, bound, size=params.scalar_weights.shape)
    for w in params.hidden_weights:
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _check_inputs(params, features, scalars):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    scalars = np.asarray(scalars, dtype=float)
    if scalars.ndim == 1:
        scalars = scalars.reshape(features.shape[0], -1)
    arch = params.arch
    if features.shape[1] != arch.feature_width:
        raise DimensionError(
            f"features have width {features.shape[1]}, architecture expects {arch.feature_width}"
        )
    if scalars.shape != (features.shape[0], arch.num_scalar):
        raise DimensionError(
            f"scalars have shape {scalars.shape}, expected ({features.shape[0]}, {arch.num_scalar})"
        )
    return features, scalars


def _prefilter(ctx: SpatialContext, features, scalars):
    """Solve [features | scalars] through the filter in one call and split it.

    The filter is linear and acts before the first bias, so filtering the
    inputs equals filtering the first-layer pre-activations.
    """
    if ctx.W.n != features.shape[0]:
        raise DimensionError(
            f"spatial context has {ctx.W.n} sites but inputs have {features.shape[0]} rows"
        )
    filtered = ctx.solve(np.hstack([features, scalars]))
    return [np.ascontiguousarray(part) for part in np.hsplit(filtered, [features.shape[1]])]


@dataclass
class ForwardCache:
    features: np.ndarray
    scalars: np.ndarray
    pre_activations: list = field(default_factory=list)
    post_activations: list = field(default_factory=list)


def forward(params: NetworkParameters, features, scalars, ctx: SpatialContext | None = None):
    """Evaluate the network, returning (predictions, cache for backprop).

    With a spatial context the inputs are pre-filtered and the cache holds
    the filtered inputs.
    """
    features, scalars = _check_inputs(params, features, scalars)
    if ctx is not None:
        features, scalars = _prefilter(ctx, features, scalars)
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward_layers(params, ForwardCache(features=features, scalars=scalars))


def _forward_layers(params, cache):
    arch = params.arch
    pre = cache.features @ params.func_weights.T + cache.scalars @ params.scalar_weights.T
    pre = pre + params.biases[0]
    act, _ = ACTIVATIONS[arch.activations[0]]
    h = act(pre)
    cache.pre_activations.append(pre)
    cache.post_activations.append(h)

    for r in range(1, len(arch.hidden_sizes)):
        pre = h @ params.hidden_weights[r - 1].T + params.biases[r]
        act, _ = ACTIVATIONS[arch.activations[r]]
        h = act(pre)
        cache.pre_activations.append(pre)
        cache.post_activations.append(h)

    out = (h @ params.hidden_weights[-1].T + params.biases[-1]).ravel()
    if not np.all(np.isfinite(out)):
        raise NumericOverflowError("network produced non-finite predictions")
    return out, cache


def predict(params: NetworkParameters, features, scalars, ctx: SpatialContext | None = None):
    """Predictions only."""
    return forward(params, features, scalars, ctx)[0]


def loss(predictions, y) -> float:
    """Mean squared residual."""
    predictions = np.asarray(predictions, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if predictions.size != y.size:
        raise DimensionError("predictions and responses have different lengths")
    return float(np.mean((predictions - y) ** 2))


def _backprop(params, features, scalars, y, grads=None):
    """Mean-squared loss over the given (already filtered) rows and its exact gradients.

    Every tensor of ``grads`` is overwritten, so a caller may pass the same
    container on every step; without one a fresh container is returned.
    """
    predictions, cache = forward(params, features, scalars)
    if grads is None:
        grads = NetworkParameters.zeros_like(params)
    arch = params.arch
    with np.errstate(over="ignore", invalid="ignore"):
        residual = predictions - y
        n_rows = residual.size
        batch_loss = float(residual @ residual) / n_rows
        g = (2.0 / n_rows) * residual[:, None]  # dL/d out
        grads.hidden_weights[-1][...] = g.T @ cache.post_activations[-1]
        grads.biases[-1][...] = g.sum(axis=0)
        g = g @ params.hidden_weights[-1]  # dL/d h_R

        for r in range(len(arch.hidden_sizes) - 1, -1, -1):
            _, deriv = ACTIVATIONS[arch.activations[r]]
            g_pre = g * deriv(cache.pre_activations[r])
            grads.biases[r][...] = g_pre.sum(axis=0)
            if r > 0:
                grads.hidden_weights[r - 1][...] = g_pre.T @ cache.post_activations[r - 1]
                g = g_pre @ params.hidden_weights[r - 1]
        grads.func_weights[...] = g_pre.T @ cache.features
        grads.scalar_weights[...] = g_pre.T @ cache.scalars
    return batch_loss, grads


def gradients(params: NetworkParameters, features, scalars, y, ctx: SpatialContext | None = None):
    """Exact reverse-mode gradients of the mean-squared loss over all rows."""
    features, scalars = _check_inputs(params, features, scalars)
    y = np.asarray(y, dtype=float).ravel()
    if y.size != features.shape[0]:
        raise DimensionError("response length does not match inputs")
    if y.size == 0:
        raise DimensionError("batch must be nonempty")
    if ctx is not None:
        features, scalars = _prefilter(ctx, features, scalars)
    return _backprop(params, features, scalars, y)[1]


@dataclass
class TrainingTrace:
    """Per-epoch loss history plus early-stopping bookkeeping."""

    epoch_losses: list = field(default_factory=list)
    validation_losses: list = field(default_factory=list)
    best_epoch: int | None = None
    stopped_early: bool = False


def _rows_loss(params, features, scalars, y, rows):
    diff = forward(params, features[rows], scalars[rows])[0] - y[rows]
    return float(diff @ diff) / rows.size


def train(
    arch: NetworkArchitecture,
    config: TrainConfig,
    features,
    scalars,
    y,
    ctx: SpatialContext | None = None,
):
    """Fit the network with Adam; returns (parameters, trace).

    A spatial context pre-filters the inputs once; every step then touches
    only its own rows.  Stops when the absolute change in epoch loss drops
    below the early-stop threshold (the first epoch's delta is the loss
    itself), or at ``max_epochs``.  With a validation split, the parameters
    from the best validation epoch are restored at the end.
    """
    params = init_parameters(arch, config.seed)
    features, scalars = _check_inputs(params, features, scalars)
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if features.shape[0] != n:
        raise DimensionError("response length does not match inputs")
    if ctx is not None:
        features, scalars = _prefilter(ctx, features, scalars)

    shuffle_rng = np.random.default_rng([config.seed, 1])
    split_rng = np.random.default_rng([config.seed, 2])

    if config.validation_fraction > 0.0:
        n_val = min(int(round(config.validation_fraction * n)), n - 1)
        perm = split_rng.permutation(n)
        val_rows = np.sort(perm[:n_val])
        train_rows = np.sort(perm[n_val:])
    else:
        val_rows = np.empty(0, dtype=int)
        train_rows = np.arange(n)

    grads = NetworkParameters.zeros_like(params)
    g = grads.flat
    moment_m = np.zeros_like(params.flat)
    moment_v = np.zeros_like(params.flat)
    scratch = np.empty_like(params.flat)
    update = np.empty_like(params.flat)
    decayed = slice(0, params.num_weights)
    step = 0
    trace = TrainingTrace()
    best_params = None
    best_val = np.inf
    prev_loss = None

    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(train_rows)
        for start in range(0, order.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            try:
                batch_loss, _ = _backprop(params, features[batch], scalars[batch], y[batch], grads)
            except NumericOverflowError as exc:
                raise TrainingDivergedError(str(exc), trace=trace) from exc
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError("batch loss became non-finite", trace=trace)
            step += 1
            # in place, in the order of m = b1 m + (1 - b1) g,
            # v = b2 v + (1 - b2) g g and (m / c1) / (sqrt(v / c2) + eps)
            moment_m *= ADAM_BETA1
            moment_m += np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
            moment_v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
            moment_v += np.multiply(scratch, g, out=scratch)
            np.sqrt(np.divide(moment_v, 1.0 - ADAM_BETA2**step, out=scratch), out=scratch)
            scratch += ADAM_EPS
            np.divide(np.divide(moment_m, 1.0 - ADAM_BETA1**step, out=update), scratch, out=update)
            if config.weight_decay > 0.0:
                update[decayed] += np.multiply(
                    params.flat[decayed], config.weight_decay, out=scratch[decayed]
                )
            update *= config.learning_rate
            params.flat -= update

        try:
            epoch_loss = _rows_loss(params, features, scalars, y, train_rows)
        except NumericOverflowError as exc:
            raise TrainingDivergedError(str(exc), trace=trace) from exc
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError("epoch loss became non-finite", trace=trace)
        trace.epoch_losses.append(epoch_loss)

        if val_rows.size:
            val_loss = _rows_loss(params, features, scalars, y, val_rows)
            trace.validation_losses.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_params = params.copy()
                trace.best_epoch = epoch

        delta = epoch_loss if epoch == 0 else abs(prev_loss - epoch_loss)
        prev_loss = epoch_loss
        if delta < config.early_stop_threshold:
            trace.stopped_early = True
            break

    if best_params is not None:
        params = best_params
    return params, trace


_FORMAT_TAG = "SFDNN-NET 1"


def dump_parameters(fh, params: NetworkParameters) -> None:
    """Write the versioned parameter text format to an open handle."""
    arch = params.arch
    fh.write(_FORMAT_TAG + "\n")
    fh.write(
        "functional %d %s\n" % (arch.num_functional, " ".join(str(m) for m in arch.basis_sizes))
    )
    fh.write(f"scalars {arch.num_scalar}\n")
    fh.write("hidden %s\n" % " ".join(str(h) for h in arch.hidden_sizes))
    fh.write("activations %s\n" % " ".join(arch.activations))
    for name, tensor, _ in params.tensors():
        dims = " ".join(str(d) for d in tensor.shape)
        values = " ".join(f"{v:.17g}" for v in np.ravel(tensor))
        fh.write(f"tensor {name} {tensor.ndim} {dims} {values}\n".rstrip() + "\n")


def save_parameters(params: NetworkParameters, path) -> None:
    """Versioned text serialization; values round-trip bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        dump_parameters(fh, params)


def parameters_from_lines(lines) -> NetworkParameters:
    """Rebuild parameters from the text-format lines."""
    if not lines or lines[0] != _FORMAT_TAG:
        raise DimensionError("not a recognized network parameter block")
    header = [line.split() for line in lines[1:5]]
    keys = ["functional", "scalars", "hidden", "activations"]
    if [h[:1] for h in header] != [[key] for key in keys]:
        raise DimensionError(f"network parameter header must be the lines {', '.join(keys)}")
    (_, p, *basis_sizes), (_, num_scalar), (_, *hidden_sizes), (_, *activations) = header
    arch = NetworkArchitecture(
        num_functional=int(p),
        basis_sizes=tuple(int(v) for v in basis_sizes),
        num_scalar=int(num_scalar),
        hidden_sizes=tuple(int(v) for v in hidden_sizes),
        activations=tuple(activations),
    )
    tensors = {}
    for line in lines[5:]:
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] != "tensor":
            raise DimensionError(f"unexpected parameter line '{line[:40]}'")
        name = parts[1]
        ndim = int(parts[2])
        shape = tuple(int(v) for v in parts[3 : 3 + ndim])
        values = np.array([float(v) for v in parts[3 + ndim :]])
        tensors[name] = values.reshape(shape)
    n_transitions = len(arch.hidden_sizes)
    hidden = [tensors[f"hidden_weights_{i}"] for i in range(n_transitions)]
    biases = [tensors[f"bias_{i}"] for i in range(n_transitions + 1)]
    return NetworkParameters(
        arch, tensors["func_weights"], tensors["scalar_weights"], hidden, biases
    )


def load_parameters(path) -> NetworkParameters:
    """Read parameters written by :func:`save_parameters`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return parameters_from_lines(lines)
