"""Functional network: spline-projected curves and scalars through dense layers.

The first layer mixes precomputed basis inner products of the functional
predictors with the scalar covariates.  The inputs enter as one block
X = [F | Z] and the first layer's weights are stored as one block [A | B],
so the first layer is one product, X [A | B]', forward and one backward.
A spatial context filters the first-layer pre-activations through the
fixed linear map S = (I - rho W)^{-1} before bias and activation; since
S (X [A | B]') = (S X) [A | B]', the block is filtered once, in one solve,
and the plain network runs on it.  Training steps therefore touch only
their own mini-batch rows.

Training uses Adam (beta1=0.9, beta2=0.999, eps=1e-8) over shuffled
mini-batches, an epoch-loss improvement stopping rule, and an optional
validation split with best-epoch restoration.  Everything is deterministic
given the seed.  Several networks of one architecture and config, the
members of a stack, train at once on checked input blocks of their own and
one response: they share their initial parameters, the validation split
and one shuffle per epoch, each step runs every member in one set of numpy
calls, and each member ends bit for bit as it would alone.  Each epoch
gathers its shuffled rows of X once, for every member, and every
mini-batch is a contiguous slice of that copy.  An epoch's loss is the mean
of the squared residuals its steps computed, each before its update, so no
extra pass over the training rows computes it.  One layer kernel per row
count, with buffers of its own, runs the forward and backward passes of
:func:`forward`, :func:`gradients`, every training step and the
validation loss, so training never calls :func:`forward`.  A step writes
only into buffers made before the first step: the layer values into its
kernel's, the gradients into one reused container, and the Adam moments
in place.  Adam keeps its moments as m / (1 - beta1) and v / (1 - beta2),
the same algebra as Kingma & Ba (2015) with the rescaling and the learning
rate folded into two scalars a step, so the update is ten whole-vector
calls.  Every entry point checks and filters its inputs in one call, which
refuses non-finite inputs before any solve.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    INTEGER,
    NONNEGATIVE,
    POSITIVE,
    DataError,
    DimensionError,
    InvalidArchitectureError,
    NumericOverflowError,
    TrainingDivergedError,
    at_least,
    broken_rules,
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


def _relu(x, out):
    return np.maximum(x, 0.0, out=out)


def _sigmoid(x, out):
    from scipy.special import expit  # slow to import; only sigmoid networks need it
    return expit(x, out=out)


def _sigmoid_deriv(h, out):
    np.subtract(1.0, h, out=out)
    return np.multiply(h, out, out=out)


def _tanh_deriv(h, out):
    np.multiply(h, h, out=out)
    return np.subtract(1.0, out, out=out)


# tag -> (activation, its derivative written in terms of the activation's
# output), each writing into ``out``: relu sign(h), 1.0 where the unit is on
# and 0.0 where it is off with no cast from bool, sigmoid h (1 - h), tanh
# 1 - h^2.  The identity is (None, None): its output is its input and its
# derivative is 1, so it takes neither a buffer nor a pass.
ACTIVATIONS = {
    "relu": (_relu, np.sign),
    "sigmoid": (_sigmoid, _sigmoid_deriv),
    "tanh": (np.tanh, _tanh_deriv),
    "identity": (None, None),
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

    # (predicate that must hold, phrase), or a list of them checked in order,
    # per field; a tuple is checked item by item
    RULES = {
        "num_functional": [INTEGER, NONNEGATIVE],
        "basis_sizes": [INTEGER, at_least(1)],
        "num_scalar": [INTEGER, NONNEGATIVE],
        "hidden_sizes": [INTEGER, at_least(1)],
        "activations": (lambda tag: tag in ACTIVATIONS, "unknown activation '{}'"),
    }

    def __post_init__(self):
        for name in ("basis_sizes", "hidden_sizes", "activations"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name, phrase in broken_rules(self.RULES, vars(self)):
            raise InvalidArchitectureError(f"{name} {phrase}")
        if len(self.basis_sizes) != self.num_functional:
            raise InvalidArchitectureError("need one basis size per functional predictor")
        if self.num_functional + self.num_scalar == 0:
            raise InvalidArchitectureError("network needs at least one input")
        if len(self.hidden_sizes) < 1:
            raise InvalidArchitectureError("need at least one hidden layer")
        if len(self.activations) != len(self.hidden_sizes):
            raise InvalidArchitectureError("need one activation per hidden layer")

    @classmethod
    def uniform(cls, num_functional, num_scalar, basis_size, hidden_sizes, activations):
        """One ``basis_size`` for every functional predictor; ``activations``
        is one tag per hidden layer, or a single tag (alone or in a tuple)
        used on every layer."""
        acts = (activations,) if isinstance(activations, str) else tuple(activations)
        if len(acts) == 1:
            acts *= len(hidden_sizes)
        return cls(
            num_functional=num_functional,
            basis_sizes=(basis_size,) * num_functional,
            num_scalar=num_scalar,
            hidden_sizes=hidden_sizes,
            activations=acts,
        )

    @property
    def feature_width(self) -> int:
        return sum(self.basis_sizes)

    @property
    def num_parameters(self) -> int:
        return sum(math.prod(shape) for shape in _tensor_shapes(self))


@dataclass
class TrainConfig:
    """Optimization hyperparameters, deterministic per seed; the defaults are the default estimator's."""

    learning_rate: float = 1e-2
    batch_size: int = 64
    max_epochs: int = 200
    early_stop_threshold: float = 0.0
    weight_decay: float = 0.0
    validation_fraction: float = 0.0
    seed: int = 0

    RULES = {
        "learning_rate": POSITIVE,
        "batch_size": [INTEGER, at_least(1)],
        "max_epochs": [INTEGER, at_least(1)],
        "early_stop_threshold": NONNEGATIVE,
        "weight_decay": NONNEGATIVE,
        "validation_fraction": (lambda v: 0.0 <= v <= 0.5, "must be in [0, 0.5]"),
        "seed": [INTEGER, NONNEGATIVE],
    }

    def __post_init__(self):
        for name, phrase in broken_rules(self.RULES, vars(self)):
            raise InvalidArchitectureError(f"{name} {phrase}")


# the fixed spatial filter (I - rho W)^{-1} applied to the network inputs
SpatialContext = SpatialFilterFactor


def _tensor_shapes(arch):
    """Shapes of the stored blocks, weights first: the first layer's [A | B],
    the transitions, the biases."""
    sizes = list(arch.hidden_sizes) + [1]
    shapes = [(sizes[0], arch.feature_width + arch.num_scalar)]
    shapes += [(nxt, prev) for prev, nxt in zip(sizes[:-1], sizes[1:])]
    return shapes + [(s,) for s in sizes]


@functools.cache
def _layout(arch):
    """((start, stop, shape) per stored block, number of weights)."""
    spans, stop = [], 0
    for shape in _tensor_shapes(arch):
        start, stop = stop, stop + math.prod(shape)
        spans.append((start, stop, shape))
    return tuple(spans), spans[len(arch.hidden_sizes)][1]


# the stored blocks of one parameter vector, or of several laid end to end:
# the weights ([A | B] first), their transposes and the biases
_Views = namedtuple("_Views", "weights transposed biases")


def _views(arch, flat, members=1):
    """Views of the stored blocks of ``flat``, which holds ``members`` parameter vectors end to end.

    With more than one member each view carries a leading member axis, and a
    bias is a (members, 1, width) row that broadcasts over a batch's rows.
    """
    spans, _ = _layout(arch)
    if members == 1:
        blocks = [flat[start:stop].reshape(shape) for start, stop, shape in spans]
    else:
        rows = flat.reshape(members, -1)
        blocks = [
            rows[:, start:stop].reshape(members, *shape if len(shape) == 2 else (1, *shape))
            for start, stop, shape in spans
        ]
    k = len(arch.hidden_sizes)
    weights = blocks[: 1 + k]
    return _Views(weights, [np.swapaxes(w, -1, -2) for w in weights], blocks[1 + k :])


class NetworkParameters:
    """All learnable tensors; gradient containers reuse this layout.

    ``func_weights`` is (n_1, sum of basis sizes): the per-neuron spline
    coefficient blocks concatenated over predictors.  ``scalar_weights`` is
    (n_1, number of scalars).  ``hidden_weights`` holds the transition
    matrices between consecutive layers, ending with the (1, n_R) output
    map.  ``biases`` has one vector per hidden layer plus the output bias.

    Every tensor is a view into the contiguous vector ``flat`` the
    parameters are built on.  It holds, in order, the first layer as one
    row-major (n_1, width + scalars) block [A | B], whose column views are
    ``func_weights`` and ``scalar_weights``, then the transitions, then the
    biases; its first ``num_weights`` entries are the weights.
    :meth:`tensors` lists A and B first, as the text format does.
    """

    def __init__(self, arch, flat: np.ndarray):
        if flat.shape != (arch.num_parameters,):
            raise DimensionError(
                f"parameter vector has shape {flat.shape}, architecture expects ({arch.num_parameters},)"
            )
        self.num_weights = _layout(arch)[1]
        self.arch, self.flat = arch, flat
        views = _views(arch, flat)
        # [A | B], multiplied by the inputs [F | Z] in one product
        self._input_weights, *self.hidden_weights = views.weights
        self.biases = views.biases
        self.func_weights = self._input_weights[:, : arch.feature_width]
        self.scalar_weights = self._input_weights[:, arch.feature_width :]

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
        return NetworkParameters(self.arch, self.flat.copy())

    @classmethod
    def zeros_like(cls, params: "NetworkParameters") -> "NetworkParameters":
        return cls(params.arch, np.zeros_like(params.flat))


def init_parameters(arch: NetworkArchitecture, seed: int) -> NetworkParameters:
    """Uniform Glorot initialization; biases start at zero."""
    rng = np.random.default_rng(seed)
    params = NetworkParameters(arch, np.zeros(arch.num_parameters))
    bound = np.sqrt(6.0 / (arch.feature_width + arch.num_scalar + arch.hidden_sizes[0]))
    params.func_weights[...] = rng.uniform(-bound, bound, size=params.func_weights.shape)
    params.scalar_weights[...] = rng.uniform(-bound, bound, size=params.scalar_weights.shape)
    for w in params.hidden_weights:
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _check_inputs(arch, features, scalars, y=None, ctx=None):
    """(inputs, y): [features | scalars] as one float block filtered through ``ctx``.

    Widths, then the response's length and row count, then finiteness fail
    before any solve.  The filter is linear and acts before the first bias,
    so one solve of the block equals filtering the first-layer
    pre-activations.  Without a filter the block holds the inputs as they are.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    scalars = np.asarray(scalars, dtype=float)
    if scalars.ndim == 1 and scalars.size == features.shape[0] * arch.num_scalar:
        # 1-D scalars hold their rows one after another; any other length
        # keeps its shape and fails the shape check below
        scalars = scalars.reshape(features.shape[0], arch.num_scalar)
    if features.shape[1] != arch.feature_width:
        raise DimensionError(
            f"features have width {features.shape[1]}, architecture expects {arch.feature_width}"
        )
    if scalars.shape != (features.shape[0], arch.num_scalar):
        raise DimensionError(
            f"scalars have shape {scalars.shape}, expected ({features.shape[0]}, {arch.num_scalar})"
        )
    named = [("features", features), ("scalars", scalars)]
    if y is not None:
        y = np.asarray(y, dtype=float).ravel()
        if y.size != features.shape[0]:
            raise DimensionError("response length does not match inputs")
        if y.size == 0:
            raise DimensionError("the response needs at least one row")
        named.append(("response", y))
    for name, values in named:
        if not np.isfinite(values).all():
            raise DataError(f"{name} contains NaN or infinite values")
    inputs = np.hstack([features, scalars])
    return (inputs if ctx is None else ctx.solve(inputs)), y


_NON_FINITE = "network produced non-finite predictions"


def _check_finite(predictions):
    if not np.isfinite(predictions).all():
        raise NumericOverflowError(_NON_FINITE)


# one hidden layer of a kernel: its activation pair, pre-activation and
# output buffers, dL/d pre and its transpose, and the derivative's values
_Layer = namedtuple("_Layer", "act deriv pre post grad grad_t slope")


class _LayerKernel:
    """The forward and backward passes over a fixed number of rows, in buffers of its own.

    Each call overwrites the buffers of the call before, so one kernel
    serves every training step of its row count.  The caller checks the
    rows and sets the floating-point error state.  The inputs are the rows
    of one [F | Z] block, so the first layer is one product each way, and a
    bias gradient is the product of a row of ones with dL/d pre.  The
    backward reads each derivative from its layer's output, so no
    activation is evaluated twice.

    A kernel of several members runs that many networks of one
    architecture at once.  Its buffers, its inputs and the parameter views
    carry a leading member axis, and each product is one ``np.matmul``,
    which calls on every member's matrices the BLAS routine that ``np.dot``
    calls on one member's, so a member's values are bit for bit those of a
    kernel of its own.  One member has no member axis, and its products are
    ``np.dot``, which dispatches faster.
    """

    def __init__(self, arch, rows, members=1):
        lead = () if members == 1 else (members,)
        self.product = np.dot if members == 1 else np.matmul
        self.layers = []
        for width, tag in zip(arch.hidden_sizes, arch.activations):
            act, deriv = ACTIVATIONS[tag]
            pre = np.empty(lead + (rows, width))
            post = pre if act is None else np.empty_like(pre)
            grad = np.empty_like(pre)
            slope = None if deriv is None else np.empty_like(pre)
            self.layers.append(_Layer(act, deriv, pre, post, grad, np.swapaxes(grad, -1, -2), slope))
        self.out = np.empty(lead + (rows, 1))
        self.predictions = self.out.reshape(lead + (rows,))
        self.member_predictions = [self.predictions] if members == 1 else list(self.predictions)
        self.residual = np.empty(lead + (rows,))
        self.dout = self.residual[..., None]
        self.dout_t = np.swapaxes(self.dout, -1, -2)
        self.ones = np.ones(rows) if members == 1 else np.ones((1, rows))
        if members > 1:
            # a member's sum of squared residuals is its residual row times its column
            self.sums = np.empty((members, 1, 1))
            self.sum_pair = self.residual[:, None, :], self.residual[:, :, None]

    def forward(self, params, inputs):
        """Predictions for the rows, given ``_views`` of the parameters: a view of the output buffer."""
        product = self.product
        h = inputs
        for (act, _, pre, post, _, _, _), w_t, b in zip(self.layers, params.transposed, params.biases):
            product(h, w_t, out=pre)
            pre += b
            if act is not None:
                act(pre, out=post)
            h = post
        product(h, params.transposed[-1], out=self.out)
        self.out += params.biases[-1]
        return self.predictions

    def squared_errors(self, params, inputs, y):
        """Forward the rows and return each member's sum of squared residuals, in a list."""
        self.forward(params, inputs)
        residual = np.subtract(self.predictions, y, out=self.residual)
        if self.product is np.dot:
            return [float(np.dot(residual, residual))]
        np.matmul(*self.sum_pair, out=self.sums)
        return self.sums.ravel().tolist()

    def backward(self, params, inputs, grads):
        """Write the exact gradients of each member's mean squared residual into the views ``grads``.

        It reads the buffers of the last :meth:`squared_errors` call on the
        same rows and overwrites every block of ``grads``.
        """
        product, ones, layers = self.product, self.ones, self.layers
        g = self.dout
        g *= 2.0 / g.shape[-2]  # dL/d out
        product(self.dout_t, layers[-1].post, out=grads.weights[-1])
        product(ones, g, out=grads.biases[-1])
        # one output unit makes the last layer's dL/d h an outer product, each
        # entry one exact product, so a broadcast multiply gives a product's bits
        g = np.multiply(g, params.weights[-1], out=layers[-1].grad)
        for r in range(len(layers) - 1, -1, -1):
            _, deriv, _, post, _, grad_t, slope = layers[r]
            if deriv is not None:
                g *= deriv(post, out=slope)  # dL/d pre_r
            product(ones, g, out=grads.biases[r])
            if r == 0:
                product(grad_t, inputs, out=grads.weights[0])
            else:
                product(grad_t, layers[r - 1].post, out=grads.weights[r])
                g = product(g, params.weights[r], out=layers[r - 1].grad)  # dL/d h_{r-1}


@dataclass
class ForwardCache:
    pre_activations: list
    post_activations: list


def forward(params: NetworkParameters, features, scalars, ctx: SpatialContext | None = None):
    """Evaluate the network, returning (predictions, cache of every layer's values).

    With a spatial context the inputs are pre-filtered first.
    """
    inputs, _ = _check_inputs(params.arch, features, scalars, ctx=ctx)
    kernel = _LayerKernel(params.arch, inputs.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        predictions = kernel.forward(_views(params.arch, params.flat), inputs)
    _check_finite(predictions)
    layers = kernel.layers
    return predictions, ForwardCache([l.pre for l in layers], [l.post for l in layers])


def predict(params: NetworkParameters, features, scalars, ctx: SpatialContext | None = None):
    """Predictions only."""
    return forward(params, features, scalars, ctx)[0]


def loss(predictions, y) -> float:
    """Mean squared residual."""
    predictions = np.asarray(predictions, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if predictions.size != y.size:
        raise DimensionError("predictions and responses have different lengths")
    if y.size == 0:
        raise DimensionError("the response needs at least one row")
    return float(np.mean((predictions - y) ** 2))


def gradients(params: NetworkParameters, features, scalars, y, ctx: SpatialContext | None = None):
    """Exact reverse-mode gradients of the mean-squared loss over all rows."""
    arch = params.arch
    inputs, y = _check_inputs(arch, features, scalars, y, ctx)
    kernel = _LayerKernel(arch, y.size)
    grads = NetworkParameters.zeros_like(params)
    views = _views(arch, params.flat)
    with np.errstate(over="ignore", invalid="ignore"):
        # non-finite predictions make the sum non-finite, so only then are they checked
        if not math.isfinite(kernel.squared_errors(views, inputs, y)[0]):
            _check_finite(kernel.predictions)
        kernel.backward(views, inputs, _views(arch, grads.flat))
    return grads


@dataclass
class TrainingTrace:
    """Per-epoch loss history plus early-stopping bookkeeping.

    ``epoch_losses[e]`` is the mean, over epoch e's training rows, of the
    squared residuals its steps computed, each taken before the step's
    update; ``validation_losses[e]`` is the validation rows' mean squared
    residual after the epoch.
    """

    epoch_losses: list = field(default_factory=list)
    validation_losses: list = field(default_factory=list)
    best_epoch: int | None = None
    stopped_early: bool = False


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
    only its own rows.  An epoch's loss is the sum of its steps' squared
    residuals over its number of training rows, so no pass of its own
    computes it.  The validation loss runs on a layer kernel of the
    validation rows' count, never through :func:`forward`.  Stops when the
    absolute change in epoch loss drops below the early-stop threshold (the
    first epoch's delta is the loss itself), or at ``max_epochs``.  With a
    validation split, the parameters from the best validation epoch are
    restored at the end.  This is the one-member case of the stack that
    trains several networks of one architecture and config at once, each
    bit for bit as it trains here alone.
    """
    inputs, y = _check_inputs(arch, features, scalars, y, ctx)
    (outcome,) = _train_stack(arch, config, [inputs], y)
    if isinstance(outcome, TrainingDivergedError):
        raise outcome
    return outcome


def _train_stack(arch, config, blocks, y):
    """Train one network per checked [F | Z] block, all on ``y``, a step's members in one set of calls.

    Returns, per member, (parameters, trace) or the TrainingDivergedError
    :func:`train` raises for it alone.  The members share ``config``, so
    they share their initial parameters, the validation split and every
    epoch's shuffle, which gathers every member's rows in one call.  Their
    parameters lie end to end in one vector, so Adam updates all of them in
    its ten calls.  Each member keeps its own losses, best epoch, stopping
    rule and finiteness checks.  A member that stops or diverges is set
    aside as it stands, and what the stack later computes in its slices is
    never read.
    """
    members = len(blocks)
    n = y.size
    flat = np.tile(init_parameters(arch, config.seed).flat, members)
    params = _views(arch, flat, members)
    by_member = flat.reshape(members, -1)
    inputs = blocks[0] if members == 1 else np.stack(blocks)
    lead = () if members == 1 else (slice(None),)  # indexes rows under the member axis

    shuffle_rng = np.random.default_rng([config.seed, 1])
    split_rng = np.random.default_rng([config.seed, 2])

    # a zero fraction leaves val_rows empty and train_rows = arange(n)
    n_val = min(int(round(config.validation_fraction * n)), n - 1)
    perm = split_rng.permutation(n)
    val_rows = np.sort(perm[:n_val])
    train_rows = np.sort(perm[n_val:])
    val_set = inputs[lead + (val_rows,)], y[val_rows]
    # one kernel per row count: the full batches, a shorter last one and the validation
    # rows, which may share a step's kernel, as ``backward`` reads only its own step's buffers
    full = min(config.batch_size, train_rows.size)
    row_counts = {full, train_rows.size % full or full, n_val}
    kernels = {rows: _LayerKernel(arch, rows, members) for rows in row_counts}
    # every epoch's batches are the same slices of its shuffled rows
    batches = []
    for start in range(0, train_rows.size, config.batch_size):
        rows = slice(start, start + config.batch_size)
        batches.append((lead + (rows,), rows, kernels[min(config.batch_size, train_rows.size - start)]))

    g = np.zeros_like(flat)
    grads = _views(arch, g, members)
    # Adam's moments rescaled, m / (1 - b1) and v / (1 - b2), so each update
    # is a scaling and one sum; the rescaling folds into the step's scalars
    moment_m = np.zeros_like(flat)
    moment_v = np.zeros_like(flat)
    scratch = np.empty_like(flat)
    update = np.empty_like(flat)
    # each member's weights, the entries weight decay acts on
    num_weights = _layout(arch)[1]
    flat_w, scratch_w, update_w = (a.reshape(members, -1)[:, :num_weights] for a in (flat, scratch, update))
    decay = config.learning_rate * config.weight_decay
    step = 0
    traces = [TrainingTrace() for _ in range(members)]
    outcomes = [None] * members
    live = list(range(members))
    best = [None] * members
    best_val = [np.inf] * members
    prev_loss = [0.0] * members

    def set_aside(k, outcome):
        outcomes[k] = outcome
        live.remove(k)

    def finish(k):
        kept = best[k] if best[k] is not None else by_member[k].copy()
        set_aside(k, (NetworkParameters(arch, kept), traces[k]))

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs):
            # each epoch gathers its shuffled rows once; a batch is a slice of them
            order = shuffle_rng.permutation(train_rows)
            epoch_x, epoch_y = inputs[lead + (order,)], y[order]
            epoch_sq = [0.0] * members
            for x_rows, rows, kernel in batches:
                batch_x = epoch_x[x_rows]
                batch_sq = kernel.squared_errors(params, batch_x, epoch_y[rows])
                if not math.isfinite(sum(batch_sq)):
                    for k in live[:]:
                        if not math.isfinite(batch_sq[k]):
                            finite = np.isfinite(kernel.member_predictions[k]).all()
                            message = "batch loss became non-finite" if finite else _NON_FINITE
                            set_aside(k, TrainingDivergedError(message, trace=traces[k]))
                    if not live:
                        return outcomes
                epoch_sq = [total + sq for total, sq in zip(epoch_sq, batch_sq)]
                kernel.backward(params, batch_x, grads)
                step += 1
                # with M = m / (1 - b1) and V = v / (1 - b2), Kingma & Ba's
                # lr (m / c1) / (sqrt(v / c2) + eps) is
                # lr (1 - b1) / c1 sqrt(k) M / (sqrt(V) + eps sqrt(k)), k = c2 / (1 - b2)
                moment_m *= ADAM_BETA1
                moment_m += g
                moment_v *= ADAM_BETA2
                moment_v += np.multiply(g, g, out=scratch)
                root_k = math.sqrt((1.0 - ADAM_BETA2**step) / (1.0 - ADAM_BETA2))
                np.sqrt(moment_v, out=scratch)
                scratch += ADAM_EPS * root_k
                np.divide(moment_m, scratch, out=update)
                update *= config.learning_rate * (1.0 - ADAM_BETA1) / (1.0 - ADAM_BETA1**step) * root_k
                if decay > 0.0:
                    update_w += np.multiply(flat_w, decay, out=scratch_w)
                flat -= update

            if n_val:
                val_kernel = kernels[n_val]
                val_sq = val_kernel.squared_errors(params, *val_set)
            for k in live[:]:
                trace = traces[k]
                epoch_loss = epoch_sq[k] / order.size
                if not math.isfinite(epoch_loss):
                    set_aside(k, TrainingDivergedError("epoch loss became non-finite", trace=trace))
                    continue
                trace.epoch_losses.append(epoch_loss)
                if n_val:
                    predictions = val_kernel.member_predictions[k]
                    if not math.isfinite(val_sq[k]) and not np.isfinite(predictions).all():
                        set_aside(k, TrainingDivergedError(_NON_FINITE, trace=trace))
                        continue
                    val_loss = val_sq[k] / n_val
                    trace.validation_losses.append(val_loss)
                    if val_loss < best_val[k]:
                        best_val[k] = val_loss
                        best[k] = by_member[k].copy()
                        trace.best_epoch = epoch
                delta = abs(prev_loss[k] - epoch_loss)
                prev_loss[k] = epoch_loss
                if delta < config.early_stop_threshold:
                    trace.stopped_early = True
                    finish(k)
            if not live:
                return outcomes
    for k in live[:]:
        finish(k)
    return outcomes


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
    """Rebuild parameters from the text-format lines.

    After the header, one ``tensor`` line per tensor in
    :meth:`NetworkParameters.tensors` order, each with its name, dims and
    value count; blank lines are skipped and nothing may follow the last
    tensor.  Any departure raises DimensionError.
    """
    if not lines or lines[0] != _FORMAT_TAG:
        raise DimensionError("not a recognized network parameter block")
    header = [line.split() for line in lines[1:5]]
    keys = ["functional", "scalars", "hidden", "activations"]
    if [h[:1] for h in header] != [[key] for key in keys]:
        raise DimensionError(f"network parameter header must be the lines {', '.join(keys)}")
    (_, p, *basis_sizes), (_, num_scalar), (_, *hidden_sizes), (_, *activations) = header
    try:
        arch = NetworkArchitecture(
            num_functional=int(p),
            basis_sizes=tuple(int(v) for v in basis_sizes),
            num_scalar=int(num_scalar),
            hidden_sizes=tuple(int(v) for v in hidden_sizes),
            activations=tuple(activations),
        )
    except ValueError as exc:
        raise DimensionError(f"network parameter header: {exc}") from exc
    params = NetworkParameters(arch, np.empty(arch.num_parameters))
    body = (line for line in lines[5:] if line.strip())
    for name, tensor, _ in params.tensors():
        line = next(body, None)
        if line is None:
            raise DimensionError(f"network parameter block ends before tensor '{name}'")
        lead = ["tensor", name, str(tensor.ndim), *(str(d) for d in tensor.shape)]
        parts = line.split()
        if parts[: len(lead)] != lead:
            raise DimensionError(f"expected a '{' '.join(lead)}' line, got '{line[:40]}'")
        values = parts[len(lead) :]
        if len(values) != tensor.size:
            raise DimensionError(f"tensor '{name}' holds {len(values)} values, expected {tensor.size}")
        try:
            tensor[...] = np.reshape([float(v) for v in values], tensor.shape)
        except ValueError as exc:
            raise DimensionError(f"tensor '{name}': {exc}") from exc
    extra = next(body, None)
    if extra is not None:
        raise DimensionError(f"unexpected parameter line '{extra[:40]}' after the last tensor")
    return params


def load_parameters(path) -> NetworkParameters:
    """Read parameters written by :func:`save_parameters`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return parameters_from_lines(lines)
