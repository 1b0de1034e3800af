"""Minimal feed-forward classifier with manual backprop and SGD-with-momentum.

The model is a configurable MLP over 64-bit floats. Everything here is a pure
function over immutable inputs: parameter arrays are frozen (non-writeable)
and every update returns fresh vectors, so callers can hold on to any vector
they were given. ``train_epoch`` trains on private writable copies of the
weights and velocity and wraps them in fresh vectors once the epoch ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DataError, ShapeError

Manifest = tuple[tuple[int, int], ...]
Layers = list[tuple[np.ndarray, np.ndarray]]  # (weight matrix, bias vector) per layer

MAX_SEED = 2**64 - 1


class Activation(str, Enum):
    RELU = "relu"
    TANH = "tanh"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of the classifier: layer widths, hidden activation, init seed.

    ``layer_sizes`` runs input dim, hidden dims..., class count. The last
    entry must equal the task's class count.
    """

    layer_sizes: tuple[int, ...]
    activation: Activation = Activation.RELU
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ConfigurationError("layer_sizes needs at least input and output dims")
        if any(s < 1 for s in sizes):
            raise ConfigurationError(f"layer_sizes entries must be >= 1, got {sizes}")
        if not isinstance(self.activation, Activation):
            object.__setattr__(self, "activation", Activation(self.activation))
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigurationError(f"seed must fit in 64 unsigned bits, got {self.seed}")

    @property
    def feature_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def class_count(self) -> int:
        return self.layer_sizes[-1]

    @property
    def manifest(self) -> Manifest:
        return tuple(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))


def manifest_size(manifest: Manifest) -> int:
    """Total element count: one rows*cols weight block plus a cols bias block per layer."""
    return sum(rows * cols + cols for rows, cols in manifest)


@dataclass(frozen=True)
class ParameterVector:
    """Flat 64-bit weight vector plus the per-layer shape manifest.

    Two vectors are aggregation-compatible iff their manifests are identical.
    The values array is frozen on construction.
    """

    values: np.ndarray
    manifest: Manifest

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64, copy=True).ravel()
        manifest = tuple((int(r), int(c)) for r, c in self.manifest)
        if values.size != manifest_size(manifest):
            raise ShapeError(
                f"values has {values.size} elements, manifest expects {manifest_size(manifest)}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "manifest", manifest)

    def __len__(self) -> int:
        return self.values.size

    def layers(self) -> Layers:
        """Read-only (weight matrix, bias vector) views per layer."""
        return _unflatten(self.values, self.manifest)


def _unflatten(values: np.ndarray, manifest: Manifest) -> Layers:
    views = []
    offset = 0
    for rows, cols in manifest:
        w = values[offset : offset + rows * cols].reshape(rows, cols)
        offset += rows * cols
        b = values[offset : offset + cols]
        offset += cols
        views.append((w, b))
    return views


def init_parameters(spec: ModelSpec) -> ParameterVector:
    """Seeded init: weights uniform in +-sqrt(1/fan_in) per layer, biases zero."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    blocks = []
    for rows, cols in spec.manifest:
        scale = np.sqrt(1.0 / rows)
        blocks.append(rng.uniform(-scale, scale, size=rows * cols))
        blocks.append(np.zeros(cols))
    return ParameterVector(np.concatenate(blocks), spec.manifest)


def _check_batch(spec: ModelSpec, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {batch.shape}")
    if batch.shape[1] != spec.feature_dim:
        raise ShapeError(
            f"batch has {batch.shape[1]} features, model expects {spec.feature_dim}"
        )
    return batch


def _activate(z: np.ndarray, kind: Activation) -> np.ndarray:
    if kind is Activation.RELU:
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _model_layers(params: ParameterVector, spec: ModelSpec) -> Layers:
    if params.manifest != spec.manifest:
        raise ShapeError("parameter manifest does not match the model spec")
    return _unflatten(params.values, params.manifest)


def _forward_pass(
    layers: Layers, kind: Activation, batch: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Returns (layer inputs, hidden pre-activations, final logits)."""
    inputs = [batch]
    pre = []
    h = batch
    for w, b in layers[:-1]:
        z = h @ w + b
        pre.append(z)
        h = _activate(z, kind)
        inputs.append(h)
    w, b = layers[-1]
    logits = h @ w + b
    return inputs, pre, logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(
    params: ParameterVector, spec: ModelSpec, batch: np.ndarray, *, log: bool = False
) -> np.ndarray:
    """Class-probability matrix; each row is a softmax distribution. With
    ``log`` the matrix holds log-probabilities, whose ``exp`` is exactly the
    probability matrix, so one pass can yield both a loss and predictions."""
    batch = _check_batch(spec, batch)
    _, _, logits = _forward_pass(_model_layers(params, spec), spec.activation, batch)
    log_probs = _log_softmax(logits)
    return log_probs if log else np.exp(log_probs)


def _check_labels(spec: ModelSpec, batch: np.ndarray, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != batch.shape[0]:
        raise ShapeError(f"labels shape {labels.shape} does not match batch of {batch.shape[0]}")
    if not np.issubdtype(labels.dtype, np.integer):
        rounded = np.rint(labels)
        if not np.array_equal(rounded, labels):
            raise DataError("labels must be integers")
        labels = rounded
    labels = labels.astype(np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= spec.class_count):
        raise DataError(
            f"labels must lie in [0, {spec.class_count}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def cross_entropy_loss(
    params: ParameterVector, spec: ModelSpec, batch: np.ndarray, labels: np.ndarray
) -> float:
    """Mean softmax cross-entropy, forward only."""
    batch = _check_batch(spec, batch)
    if batch.shape[0] == 0:
        raise DataError("batch is empty")
    labels = _check_labels(spec, batch, labels)
    log_probs = forward(params, spec, batch, log=True)
    return float(-log_probs[np.arange(batch.shape[0]), labels].mean())


def _backprop(
    layers: Layers, kind: Activation, batch: np.ndarray, labels: np.ndarray, grads: Layers
) -> np.ndarray:
    """Gradient of the batch's mean cross-entropy, written into ``grads``
    (per-layer weight and bias views shaped like ``layers``). Returns the
    batch's log-probabilities. Inputs must already be checked."""
    n = batch.shape[0]
    inputs, pre, logits = _forward_pass(layers, kind, batch)
    log_probs = _log_softmax(logits)

    # Gradient w.r.t. logits of the mean loss.
    delta = np.exp(log_probs)
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    for i in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grads[i]
        np.matmul(inputs[i].T, delta, out=grad_w)
        np.sum(delta, axis=0, out=grad_b)
        if i > 0:
            upstream = delta @ layers[i][0].T
            if kind is Activation.RELU:
                delta = upstream * (pre[i - 1] > 0.0)
            else:
                delta = upstream * (1.0 - np.tanh(pre[i - 1]) ** 2)
    return log_probs


def loss_and_gradient(
    params: ParameterVector, spec: ModelSpec, batch: np.ndarray, labels: np.ndarray
) -> tuple[float, ParameterVector]:
    """Mean cross-entropy over the batch and its gradient, same manifest as params."""
    batch = _check_batch(spec, batch)
    n = batch.shape[0]
    if n == 0:
        raise DataError("batch is empty")
    labels = _check_labels(spec, batch, labels)

    grad = np.empty(len(params))
    log_probs = _backprop(
        _model_layers(params, spec), spec.activation, batch, labels,
        _unflatten(grad, params.manifest),
    )
    loss = float(-log_probs[np.arange(n), labels].mean())
    return loss, ParameterVector(grad, params.manifest)


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.0001
    momentum: float = 0.9
    batch_size: int = 16

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ConfigurationError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class OptimizerState:
    """Velocity buffer plus hyperparameters; velocity manifest matches the model."""

    velocity: ParameterVector
    learning_rate: float
    momentum: float
    batch_size: int


def init_optimizer(params: ParameterVector, config: OptimizerConfig) -> OptimizerState:
    zero = ParameterVector(np.zeros(len(params)), params.manifest)
    return OptimizerState(
        velocity=zero,
        learning_rate=config.learning_rate,
        momentum=config.momentum,
        batch_size=config.batch_size,
    )


def sgd_momentum_step(
    params: ParameterVector, grad: ParameterVector, state: OptimizerState
) -> tuple[ParameterVector, OptimizerState]:
    """Classical momentum: v' = momentum*v + grad; params' = params - lr*v'."""
    if not (params.manifest == grad.manifest == state.velocity.manifest):
        raise ShapeError("params, grad, and velocity manifests must be identical")
    velocity = state.momentum * state.velocity.values + grad.values
    updated = params.values - state.learning_rate * velocity
    return (
        ParameterVector(updated, params.manifest),
        replace(state, velocity=ParameterVector(velocity, params.manifest)),
    )


def train_epoch(
    params: ParameterVector,
    spec: ModelSpec,
    state: OptimizerState,
    train_x: np.ndarray,
    train_y: np.ndarray,
    rng: np.random.Generator,
) -> tuple[ParameterVector, OptimizerState]:
    """One pass over the data: deterministic shuffle from rng, one momentum step
    per mini-batch. The final partial batch is trained, not dropped.

    Bitwise the same as ``loss_and_gradient`` then ``sgd_momentum_step`` per
    batch, but the inputs are checked once per epoch and the steps update
    private copies of the weights and velocity in place."""
    train_x = _check_batch(spec, train_x)
    n = train_x.shape[0]
    if n == 0:
        raise DataError("training split is empty")
    train_y = _check_labels(spec, train_x, train_y)
    if not (params.manifest == state.velocity.manifest == spec.manifest):
        raise ShapeError("params, velocity, and model manifests must be identical")

    weights = params.values.copy()
    velocity = state.velocity.values.copy()
    grad = np.empty_like(weights)
    layers = _unflatten(weights, params.manifest)
    grads = _unflatten(grad, params.manifest)

    order = rng.permutation(n)
    for start in range(0, n, state.batch_size):
        idx = order[start : start + state.batch_size]
        _backprop(layers, spec.activation, train_x[idx], train_y[idx], grads)
        # same operation order as sgd_momentum_step
        velocity *= state.momentum
        velocity += grad
        weights -= state.learning_rate * velocity
    return (
        ParameterVector(weights, params.manifest),
        replace(state, velocity=ParameterVector(velocity, params.manifest)),
    )


def save_weights(params: ParameterVector, path) -> None:
    """Decimal text format: manifest header then one value per line, 17 significant digits."""
    lines = ["manifest " + " ".join(f"{r}x{c}" for r, c in params.manifest)]
    lines.extend(f"{v:.17g}" for v in params.values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_weights(path) -> ParameterVector:
    with open(path, encoding="utf-8") as fh:
        lines = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]
    if not lines or not lines[0][1].startswith("manifest "):
        raise DataError(f"{path}: missing manifest header")
    manifest, values = [], []
    n, header = lines[0]
    try:
        for token in header.split()[1:]:
            rows, _, cols = token.partition("x")
            manifest.append((int(rows), int(cols)))
        for n, text in lines[1:]:
            values.append(float(text))
    except ValueError as exc:
        raise DataError(f"{path}: line {n}: {exc}") from None
    return ParameterVector(np.array(values, dtype=np.float64), tuple(manifest))
