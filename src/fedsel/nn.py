"""Minimal feed-forward classifier with manual backprop and SGD-with-momentum.

The model is an MLP over 64-bit floats whose hidden layers, of configurable
widths, apply ReLU. A ``ParameterVector`` holds one model's weights, frozen
on construction. The forward pass and the epoch kernel work on a stack of R
models at once: weights and velocity as (R, P) arrays, data as (R, n, d)
features and (R, n) labels. R = 1 is the single model. Stacking batches the
numpy calls and nothing else, so every row's bits equal those of a run of
that row alone.

``_forward_calls`` is the only forward math. It writes a forward pass, on
per-layer weight and bias views of the stack, as a list of
``(callable, args)`` pairs: numpy calls with every operand bound, which
write each layer's output into buffers of their own (``_Buffers``) and
apply the ReLUs and the log-softmax in place. ``strategies.score`` runs a
fresh list per pass through ``_forward_pass``; the epoch kernel puts one
into every mini-batch step.

The log-softmax finds each (row, sample)'s max logit at its ``argmax``:
the argmax plus the (row, sample)'s ``class_offsets`` is the max's flat
index in the C-contiguous logits, and one ``take`` reads every max. A max
reduction over the class axis would run numpy's inner loop once per
(row, sample) over a few classes, and costs more; ``np.take_along_axis``
at the argmax, which needs no offsets, costs more still. The two give the
same bits: a max is exact, and they can differ only in the sign of a zero
max that ties -0.0 against +0.0, whose row then sums at least two ones in
its softmax, so either sign gives the same log-probabilities.

``_EpochKernel``, the epoch kernel, is built once per stack of models that
train side by side, and again only when the stack loses rows. Building it
does all that does not depend on an epoch's shuffle: the views, the gather
and one-hot target buffers, and each window's list of calls, every
mini-batch step's in order: the forward pass, the logits' gradient, the
backward pass and the momentum update, each call writing into the
buffers. Calling it gathers each window's shuffled data and runs its list,
so a step walks no layer list and allocates nothing. The lists are built
per workspace, one for each batch size that occurs (a full batch and the
last one), with its own buffers; a step gets a copy of its workspace's
list with its three calls that read the step's batch or target set: the
first layer's product, the one-hot subtraction and the first layer's
weight gradient. Neither kernel checks its arguments: their callers,
``strategies.score`` and ``strategies.train_stacked``, check theirs once
per call.

One model (R = 1) trains on 2-D views of row 0 and multiplies with
``ndarray.dot``: it makes the same BLAS call as ``np.matmul`` on the same
2-D operands, with the same bits, at a lower cost per call, and a step is
mostly per-call cost. Stacks of two or more rows, and all scoring, keep
``np.matmul``, which multiplies every row in one call. So does one model
whose batch of one meets a layer of one input and one output: there
``ndarray.dot`` takes a 1x1 by 1x1 product as the product of two scalars,
a -0.0 where ``np.matmul``'s sum from +0.0 gives +0.0.

The ReLU's derivative multiplies each hidden delta by the float64
``np.sign`` of its layer's output, which a float multiply takes as it is,
where a bool mask from a compare is cast to float on every multiply. Its
bits are those of the bool ``output > 0``: ``sign`` gives 1.0 where the
output is > 0 and +0.0 where it is +0.0 or -0.0, the bool mask cast to
float64; a NaN output makes that sample's whole delta row from above NaN,
so the product is NaN under either mask.

Every call takes ready operands: the momentum, the learning rate and each
step's batch size are float64 0-d arrays, and the ReLU compares against
one 0-d zero, so numpy converts no Python scalar on a call; axis, out and
mode are positional, except ``np.maximum``'s out, which numpy 2.4
deprecates as a positional argument. A float64 0-d array and a Python
float or int of the same value select the same float64 loop, under NEP 50
and under numpy 1.x's value-based casting alike, so the bits are those of
Python scalars.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DataError, ShapeError

Manifest = tuple[tuple[int, int], ...]
# (R, rows, cols) weights and (R, 1, cols) bias per layer, or, of one model's
# vector, (rows, cols) and (1, cols)
Layers = list[tuple[np.ndarray, np.ndarray]]
# numpy calls to run in order, each a callable and its positional arguments
Calls = list[tuple[Callable, tuple]]

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


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of the classifier: layer widths and init seed.

    ``layer_sizes`` runs input dim, hidden dims..., class count. The last
    entry must equal the task's class count.
    """

    layer_sizes: tuple[int, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ConfigurationError("layer_sizes needs at least input and output dims")
        if any(s < 1 for s in sizes):
            raise ConfigurationError(f"layer_sizes entries must be >= 1, got {sizes}")
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


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Flat 64-bit weight vector plus the per-layer shape manifest.

    Two vectors are aggregation-compatible iff their manifests are identical.
    The values array is frozen on construction. As on every dataclass here
    that holds an array, ``==`` and ``hash`` go by identity.
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
    (R, P) stack, or 2-D (rows, cols) and (1, cols) views of one model's
    (P,) vector, on which ``_forward_pass`` multiplies with ``ndarray.dot``;
    writing to a view writes to the stack."""
    views = []
    offset = 0
    for rows, cols in manifest:
        w = weights[..., offset : offset + rows * cols].reshape(*weights.shape[:-1], rows, cols)
        offset += rows * cols
        views.append((w, weights[..., None, offset : offset + cols]))
        offset += cols
    return views


def class_offsets(shape: tuple[int, ...], classes: int) -> np.ndarray:
    """The flat index of the first class of each (row, sample) of a
    C-contiguous ``(*shape, classes)`` array, as a ``shape`` array."""
    return np.arange(0, math.prod(shape) * classes, classes).reshape(shape)


def _operand(value: float) -> np.ndarray:
    """``value`` as a read-only float64 0-d array: a ufunc takes it as it
    is, where it converts a Python scalar on every call."""
    operand = np.array(value, dtype=np.float64)
    operand.flags.writeable = False
    return operand


# the 0-d zero that the ReLU compares against
_ZERO = _operand(0.0)


class _Buffers(namedtuple("_Buffers", "outs top offsets peak peak_col exps")):
    """What the forward pass writes for one batch shape, (R, n) or one
    model's (n,): each layer's output, ``(*shape, width)`` for ``widths``
    (the layer sizes after the input), and the log-softmax's argmax
    indices, ``class_offsets``, per-(row, sample) max and log-sum (``peak``,
    with its ``[..., None]`` view) and ``exp`` values (``exps``)."""

    __slots__ = ()

    def __new__(cls, shape: tuple[int, ...], widths: Sequence[int]):
        outs = [np.empty((*shape, width)) for width in widths]
        peak = np.empty(shape)
        return super().__new__(
            cls, outs, np.empty(shape, dtype=np.intp), class_offsets(shape, widths[-1]),
            peak, peak[..., None], np.empty_like(outs[-1]),
        )


def _forward_calls(layers: Layers, batch: np.ndarray, buffers: _Buffers) -> Calls:
    """The forward pass of ``batch``, the first call multiplying it by the
    first layer's weights: run in order, the calls write the
    log-probabilities, (R, n, classes) for ``_stack_layers`` views or
    (n, classes) for one model's 2-D views, with every layer's output into
    ``buffers``, made for the batch's (R, n) or (n,) shape;
    ``buffers.outs[:-1]`` hold the hidden layers' outputs after their ReLUs.
    A 2-D batch is multiplied with ``ndarray.dot``, the same BLAS call as
    ``np.matmul`` with the same bits but for 1x1 by 1x1 products (see the
    module docstring), at a lower cost per call; a 3-D one with
    ``np.matmul``, one call for every row."""
    product = np.ndarray.dot if batch.ndim == 2 else np.matmul
    calls, h = [], batch
    for (w, b), out in zip(layers[:-1], buffers.outs):
        # numpy 2.4 deprecates a positional out for np.maximum
        calls += [(product, (h, w, out)), (np.add, (out, b, out)),
                  (partial(np.maximum, out=out), (out, _ZERO))]
        h = out
    (w, b), z = layers[-1], buffers.outs[-1]
    return [*calls, (product, (h, w, z)), (np.add, (z, b, z)), *_log_softmax_calls(z, buffers)]


def _log_softmax_calls(z: np.ndarray, buffers: _Buffers) -> Calls:
    """The calls that turn ``z``, C-contiguous logits, in place into
    log-softmax values over its last axis, using ``buffers``, made for its
    other axes. Each (row, sample)'s max is read at its argmax (see the
    module docstring); the indices are in range, so "clip" changes no
    value."""
    _, top, offsets, peak, peak_col, exps = buffers
    return [
        (z.argmax, (-1, top)), (np.add, (top, offsets, top)), (z.take, (top, None, peak, "clip")),
        (np.subtract, (z, peak_col, z)), (np.exp, (z, exps)),
        (np.add.reduce, (exps, -1, None, peak)), (np.log, (peak, peak)),
        (np.subtract, (z, peak_col, z)),
    ]


def _run(calls: Calls) -> None:
    for call, args in calls:
        call(*args)


def _forward_pass(layers: Layers, batch: np.ndarray, buffers: _Buffers) -> np.ndarray:
    """The log-probabilities that ``_forward_calls`` writes, after running them."""
    _run(_forward_calls(layers, batch, buffers))
    return buffers.outs[-1]


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


class _EpochKernel:
    """The epoch kernel of one stack of R models: ``kernel(rngs)`` trains
    one epoch, updating the (R, P) ``weights`` and ``velocity`` it was
    built on in place. Row r trains on its own n samples (train_x[r],
    train_y[r]), in the order ``rngs[r].permutation(n)`` draws, with one
    classical momentum step per mini-batch (v' = momentum*v + grad;
    w' = w - lr*v'); the final partial batch is trained, not dropped. A
    row whose weights overflow trains on, without numpy's warnings.

    Nothing is checked: ``weights`` and ``velocity`` are writable
    C-contiguous float64 arrays, and each row's n >= 1 samples a split as
    ``check_split`` returns it (an (R, n, d) and (R, n) pair will do).

    Each row's bits equal an epoch of that row alone: the rows' shuffled
    data is gathered into one (R, m, d) stack a window of m samples at a
    time, m a whole number of batches sized so that the stack holds at most
    ``GATHER_VALUES`` values (all n samples when they fit); batches are
    contiguous slices of it, and every numpy call acts on each row as on
    one model. One model trains on row 0's 2-D views, through
    ``ndarray.dot`` (see ``_forward_calls``), unless a step would multiply
    a 1x1 by a 1x1 matrix (see the module docstring).

    Building the kernel sets up every view, buffer and call an epoch uses
    (see the module docstring), so a mini-batch step allocates nothing. A
    stack that loses rows gets a new kernel on its new arrays."""

    def __init__(
        self,
        weights: np.ndarray,
        velocity: np.ndarray,
        spec: ModelSpec,
        optimizer: OptimizerConfig,
        train_x: Sequence[np.ndarray],
        train_y: Sequence[np.ndarray],
    ):
        self.weights, self.velocity = weights, velocity
        rows, n, dim = weights.shape[0], len(train_x[0]), spec.feature_dim
        self.n, self.sources = n, list(zip(train_x, train_y))
        size = optimizer.batch_size
        window = min(n, size * max(1, GATHER_VALUES // (rows * size * dim)))
        self.xs = np.empty((rows, window, dim))
        self.ys = np.empty((rows, window), dtype=np.int64)
        self.target = np.empty((rows, window, spec.class_count))
        self.classes = np.arange(spec.class_count)
        grad = np.empty_like(weights)
        # one model trains on 2-D views of row 0 (see _forward_calls), unless
        # a batch of one meets a layer of one input and one output, whose
        # 1x1 by 1x1 products ndarray.dot takes apart from np.matmul's bits
        batch_sizes = {min(size, n), n % size or size}
        one = rows == 1 and not (1 in batch_sizes and (1, 1) in spec.manifest)
        product = np.ndarray.dot if one else np.matmul
        layers = _stack_layers(weights[0] if one else weights, spec.manifest)
        # each layer's weight-gradient view and its bias gradient's 1-D view
        grads = [(w, b[..., 0, :])
                 for w, b in _stack_layers(grad[0] if one else grad, spec.manifest)]
        # a step's last calls, the momentum update: the gradient is spent,
        # and its buffer holds the step
        update = [
            (np.multiply, (velocity, _operand(optimizer.momentum), velocity)),
            (np.add, (velocity, grad, velocity)),
            (np.multiply, (velocity, _operand(optimizer.learning_rate), grad)),
            (np.subtract, (weights, grad, weights)),
        ]
        # a workspace per batch size that occurs, a full batch and the last
        # one: its buffers and a step's calls but for the three that read the
        # step's batch or target (see the module docstring): the forward pass
        # after its first product, with the logits' exp; the logits'
        # gradient's divisor and the backward pass through the layers above
        # the first, output layer first; the first layer's bias gradient
        # and the update
        workspaces = {}
        for b in batch_sizes:
            buffers = _Buffers((b,) if one else (rows, b), spec.layer_sizes[1:])
            forward = _forward_calls(layers, self.xs[0, :b] if one else self.xs[:, :b], buffers)
            delta = logits = buffers.outs[-1]
            backward = [(np.divide, (delta, _operand(b), delta))]
            for i in reversed(range(1, len(grads))):
                inputs = buffers.outs[i - 1]
                below = np.empty_like(inputs)
                mask = np.empty_like(inputs)
                backward += [
                    (product, (inputs.swapaxes(-1, -2), delta, grads[i][0])),
                    (np.add.reduce, (delta, -2, None, grads[i][1])),
                    (product, (delta, layers[i][0].swapaxes(-1, -2), below)),
                    # the ReLU's derivative from its output (see the module docstring)
                    (np.sign, (inputs, mask)),
                    (np.multiply, (below, mask, below)),
                ]
                delta = below
            workspaces[b] = (
                buffers.outs[0], [*forward[1:], (np.exp, (logits, logits))], logits, backward,
                delta, [(np.add.reduce, (delta, -2, None, grads[0][1])), *update],
            )
        # each window's start, size and calls: every step's in order, its
        # workspace's with the three that read its batch view or target view
        self.windows = []
        for lo in range(0, n, window):
            count, calls = min(window, n - lo), []
            for start in range(0, count, size):
                end = min(start + size, count)
                batch = self.xs[0, start:end] if one else self.xs[:, start:end]
                target = self.target[0, start:end] if one else self.target[:, start:end]
                first, forward, logits, backward, delta, rest = workspaces[end - start]
                # gradient w.r.t. the logits of each row's mean cross-entropy:
                # subtracting the one-hot changes only the label's entry, by 1
                calls += [
                    (product, (batch, layers[0][0], first)), *forward,
                    (np.subtract, (logits, target, logits)), *backward,
                    (product, (batch.swapaxes(-1, -2), delta, grads[0][0])), *rest,
                ]
            self.windows.append((lo, count, calls))

    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, rngs: Sequence[np.random.Generator]) -> None:
        """One epoch of every row, row r shuffled by ``rngs[r]``."""
        n, xs, ys, target = self.n, self.xs, self.ys, self.target
        orders = [rng.permutation(n) for rng in rngs]
        for lo, count, calls in self.windows:
            for r, ((x, y), order) in enumerate(zip(self.sources, orders)):
                # the indices are in range, so "clip" changes no value
                np.take(x, order[lo : lo + count], 0, xs[r, :count], "clip")
                np.take(y, order[lo : lo + count], None, ys[r, :count], "clip")
            np.equal(ys[:, :count, None], self.classes, target[:, :count])
            _run(calls)


def weights_text(params: ParameterVector) -> str:
    """Decimal text format: manifest header then one value per line, 17 significant digits."""
    lines = ["manifest " + " ".join(f"{r}x{c}" for r, c in params.manifest)]
    lines.extend(f"{v:.17g}" for v in params.values)
    return "\n".join(lines) + "\n"
