"""Evaluation metrics and client-side weight selection.

A client trains for a fixed number of epochs and must pick one epoch's
weights to send back. FEWS always sends the final epoch; OEWS sends the epoch
that scored best on the client's validation split, preferring the latest
epoch on ties. ``shipped`` reads either pick from the client's run, and is
the one place the two strategies differ. One rule, ``improves``, decides
whether an epoch's score replaces the best so far, and each setting of the
run names its tie direction: a client's local run sends ties to the latest
epoch, the early-stopping baselines to the earliest.

Every training run is an early-stopping run of ``train_stacked``, which
keeps each row's trace, best epoch and weights and patience itself. Its two
settings sit side by side in ``orchestrator``: a client's local run
(``run_federations``) has patience equal to the epochs and ties to the
latest epoch; a baseline (``run_baselines``) runs on val macro-F1 with the
baseline's patience and ties to the earliest epoch.

``train_stacked`` and ``score`` are the checked entries to ``nn``'s
unchecked kernels, ``_EpochKernel`` and ``_forward_pass``: each checks its
inputs once per call. Models that train side by side, such as a round's
client runs or a seed's baselines, train as one stack: ``train_stacked``
builds one epoch kernel per stack, and a new one only when rows leave the
stack; each epoch is one call of it over every live row, and a window of
epochs, as many as every live row is sure to train, is scored in one
``score`` call over each of those epochs' weights. ``score`` is array math
over its rows, the metrics included: one ``bincount`` builds every row's
confusion matrix, and the metrics come from (R, C) arrays, with each row's
bits those of that row scored alone. Models scored on one shared split,
such as a round's global weights or a campaign seed's final ones, go
through ``score_params``, where equal weights share one row of the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .data import Split
from .errors import ConfigurationError, DataError, ShapeError
from .nn import (
    GATHER_VALUES,
    ModelSpec,
    OptimizerConfig,
    ParameterVector,
    _Buffers,
    _EpochKernel,
    _forward_pass,
    _stack_layers,
    check_labels,
    check_split,
    manifest_size,
)


class StrategyKind(str, Enum):
    FEWS = "fews"
    OEWS = "oews"


class SelectionMetric(str, Enum):
    MACRO_F1 = "macro_f1"
    ACCURACY = "accuracy"
    VAL_LOSS = "val_loss"

    @property
    def higher_is_better(self) -> bool:
        return self is not SelectionMetric.VAL_LOSS


# The metrics a model is judged by, in the order every log and table lists them.
METRIC_NAMES = ("accuracy", "macro_precision", "macro_recall", "macro_f1")


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def scalar(self, name: str) -> float:
        if name not in METRIC_NAMES:
            raise ConfigurationError(f"unknown metric name {name!r}")
        return getattr(self, name)


def _confusions(labels: np.ndarray, preds: np.ndarray, class_count: int) -> np.ndarray:
    """(R, C, C) confusion matrices of R rows of labels and predictions,
    from one ``bincount``; rows index the true class, columns the
    prediction."""
    rows, cells = len(labels), class_count * class_count
    flat = labels * class_count
    flat += preds
    flat += np.arange(0, rows * cells, cells)[:, None]
    return np.bincount(flat.ravel(), minlength=rows * cells).reshape(rows, class_count, class_count)


def _reports(confusions: np.ndarray) -> list[MetricsReport]:
    """Accuracy and macro averages of each of R confusion matrices, as
    (R, C) array math; each row's bits equal those of that matrix alone.
    Macro averages divide by the full class count: a class with no support
    or no predictions contributes zero rather than being skipped. Every
    matrix must count at least one sample."""
    rows, c = len(confusions), confusions.shape[-1]
    counts = confusions.astype(np.float64)
    # per class: the diagonal, then precision and recall, then F1
    parts = np.zeros((4, rows, c))
    parts[0] = counts.reshape(rows, c * c)[:, :: c + 1]
    sums = np.empty((2, rows, c))  # column and row sums
    np.add.reduce(counts, axis=1, out=sums[0])
    np.add.reduce(counts, axis=2, out=sums[1])
    total = np.add.reduce(sums[1], axis=1)
    np.divide(parts[0], sums, out=parts[1:3], where=sums > 0)
    precision, recall = parts[1], parts[2]
    pr_sum = precision + recall
    f1 = np.multiply(2 * precision, recall, out=parts[3])
    np.divide(f1, pr_sum, out=f1, where=pr_sum > 0)
    means = np.add.reduce(parts, axis=2)
    means[0] /= total
    means[1:] /= c
    return [MetricsReport(*values) for values in means.T.tolist()]


@dataclass(frozen=True)
class Scores:
    """Everything one forward pass over a labelled split yields."""

    report: MetricsReport
    loss: float  # mean softmax cross-entropy
    # mean predicted-class probability over the correctly classified samples;
    # 0.0 when nothing is classified correctly
    confidence: float


# The most values one activation of a scoring pass may hold (128 KiB of
# float64): a stack whose activations would be larger is scored a few rows
# per pass, so that scoring it at once does not raise the process's peak
# memory.
SCORE_VALUES = 1 << 14


@np.errstate(over="ignore", invalid="ignore")
def score(
    weights: np.ndarray,
    model: ModelSpec,
    x: Sequence[np.ndarray],
    y: Sequence[np.ndarray],
) -> list[Scores]:
    """Metrics, loss and correct-prediction confidence of R models, row r of
    the (R, P) ``weights`` on its own split (x[r], y[r]); the splits may be
    (R, n, d) and (R, n) arrays or R arrays of one size each. The weights'
    and features' shapes and the labels are checked once per call, the
    labels by ``nn.check_split``'s rule (integral floats pass, and a label
    out of range is a DataError); each pass then calls the unchecked
    ``nn._forward_pass``. No rows score as ``[]``. A row whose forward pass
    overflows scores a non-finite loss, without numpy's warnings: the
    callers name it.

    Rows go through batched forward passes of as many rows as keep each
    activation within ``SCORE_VALUES`` values, at least one, into buffers
    allocated once per call for a full pass and for the last one. Each
    pass's losses are reduced as it ends, and its confidences, means over a
    different number of samples in each row, row by row; of its results,
    only the (R, n) predictions outlive it. The metrics of all R rows are
    then computed at once: one ``bincount`` builds every confusion matrix,
    and (R, C) array math does the rest. Each row's bits equal those of
    scoring that row alone."""
    if not len(x) == len(y) == len(weights):
        raise ShapeError(f"{len(weights)} weight rows, {len(x)} feature and {len(y)} label rows")
    if not len(weights):
        return []
    weights = np.asarray(weights)
    size = manifest_size(model.manifest)
    if weights.ndim != 2 or weights.shape[1] != size:
        raise ShapeError(f"weights must be (R, {size}), got {weights.shape}")
    labels = check_labels(model, y)
    rows, n = len(weights), len(x[0])
    if labels.shape != (rows, n):
        raise ShapeError(f"labels shape {labels.shape} does not match {rows} rows of {n} samples")
    if any(np.shape(row) != (n, model.feature_dim) for row in x):
        raise ShapeError(f"every feature row must be ({n}, {model.feature_dim})")
    if not n:
        raise DataError("cannot score zero samples")
    chunk = max(1, SCORE_VALUES // (n * max(model.layer_sizes)))
    # the forward pass's buffers for a full chunk of rows and for the last one
    sizes = {min(chunk, rows), rows % chunk or chunk}
    buffers = {c: _Buffers((c, n), model.layer_sizes[1:]) for c in sizes}
    preds = np.empty((rows, n), dtype=np.intp)
    losses, confidences = [], []
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        batch = x[lo:hi]
        if hi - lo == 1:
            batch = np.asarray(batch[0])[None]  # a view: one row needs no stacked copy
        chunk_buffers = buffers[hi - lo]
        # flat offset of each (row, sample) of the chunk's (rows, n, classes) output
        at = chunk_buffers.offsets
        layers = _stack_layers(weights[lo:hi], model.manifest)
        log_probs = _forward_pass(layers, np.asarray(batch, dtype=np.float64), chunk_buffers)
        probs = np.exp(log_probs, out=chunk_buffers.exps)
        probs.argmax(axis=2, out=preds[lo:hi])
        # the indices are in range, so "clip" changes no value
        at_label = log_probs.take(at + labels[lo:hi], mode="clip")
        top = probs.take(at + preds[lo:hi], mode="clip")
        losses.extend((-(np.add.reduce(at_label, axis=1) / n)).tolist())
        # the mean over each row's correct predictions: rows differ in how many
        # there are, so each row's run of ``hits`` is a reduction of its own
        correct = preds[lo:hi] == labels[lo:hi]
        hits = top[correct]
        end = 0
        for count in np.add.reduce(correct, axis=1).tolist():
            start, end = end, end + count
            confidences.append(float(np.add.reduce(hits[start:end]) / count) if count else 0.0)
    reports = _reports(_confusions(labels, preds, model.class_count))
    return [Scores(*fields) for fields in zip(reports, losses, confidences)]


def score_params(
    params: Sequence[ParameterVector], model: ModelSpec, split: Split
) -> list[Scores]:
    """``score`` of each of ``params`` on one split, as one ``score`` call
    over the bitwise-distinct weight vectors: equal weights share one row
    of the stack, and so their scores. Every row reads one broadcast view
    of the split; no params make the call on an empty stack."""
    distinct = {p.values.tobytes(): p.values for p in params}
    row_of = {key: i for i, key in enumerate(distinct)}
    stack = np.array(list(distinct.values()))
    x = np.broadcast_to(split.x, (len(stack), *split.x.shape))
    scores = score(stack, model, x, np.broadcast_to(split.y, x.shape[:2]))
    return [scores[row_of[p.values.tobytes()]] for p in params]


def improves(
    value: float, best: float | None, higher_is_better: bool, ties_to_latest: bool
) -> bool:
    """Whether an epoch that scored ``value`` replaces the best epoch so
    far, which scored ``best``: the one "best epoch" rule. ``best`` is None
    before the first epoch, which always wins. A better value wins; an
    equal one wins only when ``ties_to_latest``, so a run that keeps every
    winner ends on the latest of equal best scores, and otherwise on the
    earliest. A NaN neither wins against a score nor is beaten by one.

    Its one caller, ``train_stacked``, takes the direction of its setting:
    the latest for a client's local run, the earliest for the
    early-stopping baselines."""
    if value == best:
        return ties_to_latest
    return best is None or (value > best if higher_is_better else value < best)


@dataclass(eq=False)
class EarlyStopRun:
    """One row's early-stopping run as ``train_stacked`` scores it: the
    metric's value at each epoch, the best of them so far by ``improves``
    with that epoch and its weights, the epochs since the best (``stale``),
    and the last epoch's weights, the best's object when the last epoch is
    the best."""

    trace: list[float] = field(default_factory=list)
    best: float | None = None  # before the first epoch
    best_epoch: int = 0
    best_params: ParameterVector | None = None
    last_params: ParameterVector | None = None
    stale: int = 0


def shipped(run: EarlyStopRun, strategy: StrategyKind) -> tuple[ParameterVector, int]:
    """The weights a client uploads from its local run and their 1-based
    epoch: FEWS ships the last epoch, OEWS the run's best. The only place
    the two strategies differ; both read one run, so they share its trace,
    and when the last epoch is the best they ship one object."""
    if StrategyKind(strategy) is StrategyKind.FEWS:
        return run.last_params, len(run.trace)
    return run.best_params, run.best_epoch


def train_stacked(
    rows: Sequence[tuple[ParameterVector, Split, Split, np.random.Generator, str]],
    model: ModelSpec,
    optimizer: OptimizerConfig,
    epochs: int,
    patience: int,
    metric: SelectionMetric,
    ties_to_latest: bool,
) -> list[EarlyStopRun | Exception]:
    """Early-stopping runs of rows (start weights, train split, val split,
    rng, label): each row trains up to ``epochs`` epochs, each epoch's
    weights are scored on its val split, and the row keeps its best epoch
    by ``metric`` (``val_loss`` reads the loss), ties going to the latest
    epoch when ``ties_to_latest`` and to the earliest otherwise. A row stops
    after ``patience`` epochs in a row that do not replace its best. Rows
    whose splits have equal sizes train as one stack through one epoch
    kernel, ``nn._EpochKernel``, built on the train splits ``check_split``
    returned when it checked each row and its start weights' manifest
    once, and built again each time rows leave the stack; no row is
    padded. A row's run depends only on its start weights, splits and rng
    stream, never on the other rows.

    Its two settings are ``orchestrator``'s, its only callers: a client's
    local run (``run_federations``) trains ``local_epochs`` epochs with
    patience equal to them, so no row stops early, and ties going to the
    latest epoch, and ``shipped`` reads each strategy's pick from its run;
    a baseline (``run_baselines``) has the baseline's patience and ties
    going to the earliest epoch.

    A row whose validation loss is not finite, or whose weights turn
    non-finite, fails with a DataError naming its label and the epoch; a
    row's earliest failure is the one it reports, and at one epoch
    non-finite weights come first. Returns, per row, its run or the
    exception that failed it.

    A stack trains a window of epochs, as many as its live rows' least
    patience left, the epochs left and ``nn.GATHER_VALUES`` values of
    snapshots allow (at least one). Every live row trains the whole window;
    then each row's epochs before its first non-finite weights are scored
    in one ``score`` call, in epoch order, and the rows that stopped or
    failed leave the stack, which is compacted once. So a surviving row
    trains exactly the epochs it would if scored after every epoch. A row
    that fails mid-window trains on to the window's end: that work is
    wasted, and changes no other row.
    """
    for name, value in (("epochs", epochs), ("patience", patience)):
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")
    metric = SelectionMetric(metric)
    by_loss = metric is SelectionMetric.VAL_LOSS
    runs: list[EarlyStopRun | Exception] = []
    stacks: dict[tuple[int, int], list[int]] = {}
    checked = {}  # row: its train split as ``check_split`` returns it
    for i, (start, train, val, _, label) in enumerate(rows):
        try:
            if len(train) == 0 or len(val) == 0:
                raise DataError(f"{label} has an empty train or val split")
            if start.manifest != model.manifest:
                raise ShapeError("params and model manifests must be identical")
            checked[i] = check_split(model, train.x, train.y)
            check_split(model, val.x, val.y)
        except Exception as exc:
            runs.append(exc)
            continue
        runs.append(EarlyStopRun())
        stacks.setdefault((len(train), len(val)), []).append(i)

    for members in stacks.values():
        live = np.array(members)
        weights = np.stack([rows[i][0].values for i in live])
        velocity = np.zeros_like(weights)
        kernel = None  # the last stack's goes before this one's is built
        done = 0  # epochs every live row has trained
        while len(live) and done < epochs:
            if kernel is None:
                train_x, train_y = zip(*[checked[i] for i in live.tolist()])
                kernel = _EpochKernel(weights, velocity, model, optimizer, train_x, train_y)
                rngs = [rows[i][3] for i in live.tolist()]
            count, size = weights.shape
            stale = max(runs[i].stale for i in live.tolist())
            window = min(patience - stale, epochs - done, _window_cap(count, size))
            snapshots = np.empty((window, count, size))
            for k in range(window):
                kernel(rngs)
                snapshots[k] = weights

            # each row's epochs before its first non-finite weights, scored
            # epoch-major in one call
            scorable = np.logical_and.accumulate(np.isfinite(snapshots).all(axis=2), axis=0)
            cells = np.argwhere(scorable)  # (epoch, row) pairs in ``flat``'s order
            flat = snapshots.reshape(-1, size) if scorable.all() else snapshots[scorable]
            val = [rows[i][2] for i in live[cells[:, 1]]]
            scored = score(flat, model, [v.x for v in val], [v.y for v in val])
            ended = np.zeros(count, dtype=bool)
            for n, (k, j) in enumerate(cells.tolist()):
                if ended[j]:
                    continue
                i, epoch, scores = int(live[j]), done + k + 1, scored[n]
                if not math.isfinite(scores.loss):
                    runs[i] = DataError(
                        f"{rows[i][4]} epoch {epoch}: validation loss is {scores.loss}"
                    )
                    ended[j] = True
                    continue
                run = runs[i]
                value = scores.loss if by_loss else scores.report.scalar(metric.value)
                run.trace.append(value)
                if improves(value, run.best, metric.higher_is_better, ties_to_latest):
                    run.best, run.best_epoch, run.stale = value, epoch, 0
                    run.best_params = ParameterVector(flat[n], model.manifest)
                else:
                    run.stale += 1
                ended[j] = run.stale == patience
                if ended[j] or epoch == epochs:
                    run.last_params = (run.best_params if run.best_epoch == epoch
                                       else ParameterVector(flat[n], model.manifest))
            for j in np.flatnonzero(~scorable[-1] & ~ended):
                i = int(live[j])
                epoch = done + int(scorable[:, j].sum()) + 1
                runs[i] = DataError(f"{rows[i][4]} epoch {epoch}: weights are not finite")
                ended[j] = True
            done += window
            del snapshots, flat  # free this window's buffer before the next one's
            if ended.any():
                live = live[~ended]
                weights, velocity, kernel = weights[~ended], velocity[~ended], None
    return runs


def _window_cap(rows: int, size: int) -> int:
    """The most epochs of snapshots of ``rows`` weight vectors of ``size``
    values that fit in ``nn.GATHER_VALUES`` values, at least one."""
    return max(1, GATHER_VALUES // (rows * size))

