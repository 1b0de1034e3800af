"""Minimal feed-forward classifier with manual backprop and SGD-with-momentum.

The model is a configurable MLP over 64-bit floats. A ``ParameterVector``
holds one model's weights, frozen on construction. The forward pass and the
epoch kernel work on a stack of R models at once: weights and velocity as
(R, P) arrays, data as (R, n, d) features and (R, n) labels. R = 1 is the
single model. Stacking batches the numpy calls and nothing else, so every
row's bits equal those of a run of that row alone.

``_forward_pass`` is the only forward math: ``forward`` (scoring) and
``train_epoch`` both call it on per-layer weight and bias views of the
stack, and it applies the activations and the log-softmax in place.
``train_epoch`` builds those views, and the backward pass's gradient and
transposed-weight views, once per epoch, so a mini-batch step is the
forward pass, the backward pass inline and the momentum update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DataError, ShapeError

Manifest = tuple[tuple[int, int], ...]
Layers = list[tuple[np.ndarray, np.ndarray]]  # (R, rows, cols) weights, (R, 1, cols) bias per layer

MAX_SEED = 2**64 - 1

# The most values the epoch kernel's gathered window of shuffled training
# data may hold (512 KiB of float64): a stack wider or longer than that is
# gathered a few batches at a time, which costs 2 ``take`` calls per row per
# window but keeps the copy from growing with the stack. Picked from a sweep
# of 2^13 to 2^18 over the 10-seed campaigns, whose stacks reach 80 rows: at
# 2^13 such a stack gathers one batch per window; from 2^15 on the campaign
# ran about a quarter faster, and each doubling past 2^15 added about
# 0.5 MiB to its peak RSS (45.1 MiB at 2^16, 46.5 MiB at 2^18).
GATHER_VALUES = 1 << 16


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


def init_parameters(spec: ModelSpec) -> ParameterVector:
    """Seeded init: weights uniform in +-sqrt(1/fan_in) per layer, biases zero."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    blocks = []
    for rows, cols in spec.manifest:
        scale = np.sqrt(1.0 / rows)
        blocks.append(rng.uniform(-scale, scale, size=rows * cols))
        blocks.append(np.zeros(cols))
    return ParameterVector(np.concatenate(blocks), spec.manifest)


def check_split(spec: ModelSpec, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as an (n, d) float64 batch of the model's feature dim, and ``y``
    as its n int64 labels, each in range."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {x.shape}")
    if x.shape[1] != spec.feature_dim:
        raise ShapeError(f"batch has {x.shape[1]} features, model expects {spec.feature_dim}")
    y = np.asarray(y)
    if y.shape != x.shape[:1]:
        raise ShapeError(f"labels shape {y.shape} does not match batch of {x.shape[0]}")
    return x, check_labels(spec, y)


def check_labels(spec: ModelSpec, y: np.ndarray) -> np.ndarray:
    """``y``, of any shape, as int64 labels in range; integral floats pass."""
    y = np.asarray(y)
    if y.dtype.kind == "f":
        rounded = np.rint(y)
        if not np.array_equal(rounded, y):
            raise DataError("labels must be integers")
        y = rounded
    elif y.dtype.kind not in "biu":
        raise DataError("labels must be integers")
    y = y.astype(np.int64, copy=False)
    if y.size and (y.min() < 0 or y.max() >= spec.class_count):
        raise DataError(
            f"labels must lie in [0, {spec.class_count}), got range [{y.min()}, {y.max()}]"
        )
    return y


def _stack_layers(weights: np.ndarray, manifest: Manifest) -> Layers:
    """(R, rows, cols) weight and (R, 1, cols) bias views per layer of an
    (R, P) stack; writing to a view writes to the stack."""
    views = []
    offset = 0
    for rows, cols in manifest:
        w = weights[:, offset : offset + rows * cols].reshape(-1, rows, cols)
        offset += rows * cols
        views.append((w, weights[:, None, offset : offset + cols]))
        offset += cols
    return views


def _check_stack(spec: ModelSpec, weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights)
    if weights.ndim != 2 or weights.shape[1] != manifest_size(spec.manifest):
        raise ShapeError(
            f"weights must be (R, {manifest_size(spec.manifest)}), got {weights.shape}"
        )
    return weights


def _forward_pass(
    layers: Layers, relu: bool, batch: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Returns (layer inputs, log-probabilities), each (R, n, width), for
    ``_stack_layers`` views. Hidden activations, relu or else tanh, and the
    log-softmax are applied in place, so each layer keeps one array."""
    inputs = [batch]
    h = batch
    for w, b in layers[:-1]:
        h = np.matmul(h, w)
        h += b
        if relu:
            np.maximum(h, 0.0, out=h)
        else:
            np.tanh(h, out=h)
        inputs.append(h)
    w, b = layers[-1]
    z = np.matmul(h, w)
    z += b
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    z -= np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))
    return inputs, z


def forward(
    weights: np.ndarray, spec: ModelSpec, batch: np.ndarray, *, log: bool = False
) -> np.ndarray:
    """Class probabilities of R models, row r of ``weights`` on its own
    batch ``batch[r]``: an (R, n, classes) array whose last axis holds
    softmax distributions. With ``log`` it holds log-probabilities, whose
    ``exp`` is exactly the probabilities, so one pass can yield both a loss
    and predictions."""
    weights = _check_stack(spec, weights)
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[0] != weights.shape[0]:
        raise ShapeError(f"batch must be ({weights.shape[0]}, n, d), got shape {batch.shape}")
    if batch.shape[2] != spec.feature_dim:
        raise ShapeError(f"batch has {batch.shape[2]} features, model expects {spec.feature_dim}")
    relu = spec.activation is Activation.RELU
    _, log_probs = _forward_pass(_stack_layers(weights, spec.manifest), relu, batch)
    return log_probs if log else np.exp(log_probs)


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.0001
    momentum: float = 0.9
    batch_size: int = 16

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigurationError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")


def train_epoch(
    weights: np.ndarray,
    velocity: np.ndarray,
    spec: ModelSpec,
    optimizer: OptimizerConfig,
    train_x: Sequence[np.ndarray],
    train_y: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """One epoch of R models at once, updating the (R, P) ``weights`` and
    ``velocity`` in place. Row r trains on its own n samples (train_x[r],
    train_y[r]), in the order ``rngs[r].permutation(n)`` draws, with one
    classical momentum step per mini-batch (v' = momentum*v + grad;
    w' = w - lr*v'); the final partial batch is trained, not dropped. The
    data may be (R, n, d) and (R, n) arrays or R arrays of one size each.
    Returns the (R,) mask of rows whose weights are all finite.

    Each row's bits equal an epoch of that row alone: the rows' shuffled
    data is gathered into one (R, m, d) stack a window of m samples at a
    time, m a whole number of batches sized so that the stack holds at most
    ``GATHER_VALUES`` values (all n samples when they fit); batches are
    contiguous slices of it, and every numpy call acts on each row as on
    one model."""
    weights = _check_stack(spec, weights)
    for name, arr in (("weights", weights), ("velocity", velocity)):
        if not (arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.writeable):
            raise ShapeError(f"{name} must be a writable C-contiguous float64 array")
    if velocity.shape != weights.shape:
        raise ShapeError(f"velocity shape {velocity.shape} differs from weights {weights.shape}")
    rows = weights.shape[0]
    if not rows or not len(train_x) == len(train_y) == len(rngs) == rows:
        raise ShapeError(
            f"{rows} weight rows, {len(train_x)} and {len(train_y)} data rows, {len(rngs)} rngs"
        )
    n = len(train_x[0])
    if n == 0:
        raise DataError("training split is empty")

    data = []
    for r in range(rows):
        x, y = check_split(spec, train_x[r], train_y[r])
        if len(x) != n:
            raise ShapeError(f"data row {r} has {len(x)} samples, row 0 has {n}")
        data.append((x, y, rngs[r].permutation(n)))
    size = optimizer.batch_size
    window = size * max(1, GATHER_VALUES // (rows * size * spec.feature_dim))
    xs = np.empty((rows, min(window, n), spec.feature_dim))
    ys = np.empty((rows, min(window, n)), dtype=np.int64)
    classes = np.arange(spec.class_count)
    grad = np.empty_like(weights)
    relu = spec.activation is Activation.RELU
    layers = _stack_layers(weights, spec.manifest)
    # the backward pass, output layer first: each layer's gradient views and
    # the transposed weights that carry the delta to the layer below
    grads = _stack_layers(grad, spec.manifest)
    backward = [(i, grads[i], layers[i][0].swapaxes(1, 2)) for i in reversed(range(len(layers)))]
    for lo in range(0, n, window):
        count = min(window, n - lo)
        for r, (x, y, order) in enumerate(data):
            np.take(x, order[lo : lo + count], axis=0, out=xs[r, :count])
            np.take(y, order[lo : lo + count], out=ys[r, :count])
        target = (ys[:, :count, None] == classes).astype(np.float64)
        for start in range(0, count, size):
            end = min(start + size, count)
            inputs, delta = _forward_pass(layers, relu, xs[:, start:end])
            # gradient w.r.t. the logits of each row's mean cross-entropy:
            # subtracting the one-hot changes only the label's entry, by 1
            np.exp(delta, out=delta)
            delta -= target[:, start:end]
            delta /= end - start
            for i, (grad_w, grad_b), w_t in backward:
                np.matmul(inputs[i].swapaxes(1, 2), delta, out=grad_w)
                np.add.reduce(delta, axis=1, keepdims=True, out=grad_b)
                if i:
                    # the activation's derivative from its output: relu(z) > 0
                    # iff z > 0, and tanh'(z) = 1 - tanh(z)**2
                    delta = np.matmul(delta, w_t)
                    if relu:
                        delta *= inputs[i] > 0.0
                    else:
                        delta *= 1.0 - inputs[i] ** 2
            velocity *= optimizer.momentum
            velocity += grad
            # the gradient is spent: its buffer holds the step
            np.multiply(velocity, optimizer.learning_rate, out=grad)
            weights -= grad
    return np.isfinite(weights).all(axis=1)


def weights_text(params: ParameterVector) -> str:
    """Decimal text format: manifest header then one value per line, 17 significant digits."""
    lines = ["manifest " + " ".join(f"{r}x{c}" for r, c in params.manifest)]
    lines.extend(f"{v:.17g}" for v in params.values)
    return "\n".join(lines) + "\n"
