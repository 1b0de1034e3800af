"""Evaluation metrics and client-side weight selection.

A client trains for a fixed number of epochs and must pick one epoch's
weights to send back. FEWS always sends the final epoch; OEWS sends the epoch
that scored best on the client's validation split, preferring the latest
epoch on ties.

Models that train side by side, such as a round's client runs or a seed's
baselines, train as one stack (``train_stacked``): each epoch is one
``nn.train_epoch`` call and one ``score`` call over every live row.
``score`` is array math over the stack's rows, the metrics included: one
``bincount`` builds every row's confusion matrix, and the metrics and
losses come from (R, C) and (R, n) arrays, with each row's bits those of
that row scored alone. Models scored on one shared split, such as a
round's global weights or a campaign seed's final ones, go through
``score_params``, where equal weights share one row of the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .data import ClientDataset, Split
from .errors import ConfigurationError, DataError, ShapeError
from .nn import (
    ModelSpec,
    OptimizerConfig,
    ParameterVector,
    check_labels,
    check_split,
    forward,
    train_epoch,
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


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, class_count: int) -> np.ndarray:
    """C x C count matrix, rows indexed by true class, columns by prediction."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise DataError("labels and predictions must be 1-D and the same length")
    if y_true.size == 0:
        raise DataError("cannot build a confusion matrix from zero samples")
    for name, arr in (("labels", y_true), ("predictions", y_pred)):
        if arr.min() < 0 or arr.max() >= class_count:
            raise DataError(f"{name} outside 0..{class_count - 1}")
    return _confusions(y_true[None], y_pred[None], class_count)[0]


def _confusions(labels: np.ndarray, preds: np.ndarray, class_count: int) -> np.ndarray:
    """(R, C, C) confusion matrices of R rows of labels and predictions,
    from one ``bincount``."""
    rows, cells = len(labels), class_count * class_count
    flat = labels * class_count + preds
    flat += np.arange(0, rows * cells, cells)[:, None]
    return np.bincount(flat.ravel(), minlength=rows * cells).reshape(rows, class_count, class_count)


def metrics_from_confusion(confusion: np.ndarray) -> MetricsReport:
    """Macro averages divide by the full class count; a class with no support
    or no predictions contributes zero rather than being skipped."""
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise DataError(f"confusion matrix must be square, got {confusion.shape}")
    return _reports(confusion[None])[0]


def _reports(confusions: np.ndarray) -> list[MetricsReport]:
    """``metrics_from_confusion`` of each of R confusion matrices, as
    (R, C) array math; each row's bits equal those of that matrix alone."""
    rows, c = len(confusions), confusions.shape[-1]
    counts = confusions.astype(np.float64)
    # per class: the diagonal, then precision and recall, then F1
    parts = np.zeros((4, rows, c))
    parts[0] = counts.reshape(rows, c * c)[:, :: c + 1]
    sums = np.empty((2, rows, c))  # column and row sums
    np.add.reduce(counts, axis=1, out=sums[0])
    np.add.reduce(counts, axis=2, out=sums[1])
    total = np.add.reduce(sums[1], axis=1)
    if not total.all():
        raise DataError("confusion matrix has zero samples")
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


def score(
    weights: np.ndarray,
    model: ModelSpec,
    x: Sequence[np.ndarray],
    y: Sequence[np.ndarray],
) -> list[Scores]:
    """Metrics, loss and correct-prediction confidence of R models, row r of
    the (R, P) ``weights`` on its own split (x[r], y[r]); the splits may be
    (R, n, d) and (R, n) arrays or R arrays of one size each. The labels
    are checked once, by ``nn.check_split``'s rule: integral floats pass,
    and a label out of range is a DataError. No rows score as ``[]``.

    Rows go through batched forward passes of as many rows as keep each
    activation within ``SCORE_VALUES`` values, at least one. The metrics
    and losses of all R rows are then computed at once: one ``bincount``
    builds every confusion matrix, and (R, C) and (R, n) array math does
    the rest. Only the confidence, a mean over a different number of
    samples in each row, is reduced row by row. Each row's bits equal
    those of scoring that row alone."""
    if not len(x) == len(y) == len(weights):
        raise ShapeError(f"{len(weights)} weight rows, {len(x)} feature and {len(y)} label rows")
    if not len(weights):
        return []
    labels = check_labels(model, y)
    rows, n = len(weights), len(x[0])
    if labels.shape != (rows, n):
        raise ShapeError(f"labels shape {labels.shape} does not match {rows} rows of {n} samples")
    if not n:
        raise DataError("cannot score zero samples")
    chunk = max(1, SCORE_VALUES // (n * max(model.layer_sizes)))
    classes = model.class_count
    # flat offset of each (row, sample) of a chunk's (rows, n, classes) output
    offsets = np.arange(0, min(chunk, rows) * n * classes, classes).reshape(-1, n)
    preds = np.empty((rows, n), dtype=np.intp)
    at_label = np.empty((rows, n))  # log-probability of each label
    top = np.empty((rows, n))  # probability of each prediction
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        batch = x[lo:hi]
        if hi - lo == 1:
            batch = np.asarray(batch[0])[None]  # a view: one row needs no stacked copy
        log_probs = forward(weights[lo:hi], model, batch, log=True)
        probs = np.exp(log_probs)
        probs.argmax(axis=2, out=preds[lo:hi])
        at = offsets[: hi - lo]
        # the indices are in range, so "clip" only spares take a buffer
        log_probs.take(at + labels[lo:hi], out=at_label[lo:hi], mode="clip")
        probs.take(at + preds[lo:hi], out=top[lo:hi], mode="clip")

    reports = _reports(_confusions(labels, preds, classes))
    losses = (-(np.add.reduce(at_label, axis=1) / n)).tolist()
    # the mean over each row's correct predictions: rows differ in how many
    # there are, so each row's run of ``hits`` is a reduction of its own
    correct = preds == labels
    hits = top[correct]
    confidences = []
    end = 0
    for count in np.add.reduce(correct, axis=1).tolist():
        start, end = end, end + count
        confidences.append(float(np.add.reduce(hits[start:end]) / count) if count else 0.0)
    return [Scores(*fields) for fields in zip(reports, losses, confidences)]


def evaluate(
    params: ParameterVector, model: ModelSpec, x: np.ndarray, y: np.ndarray
) -> MetricsReport:
    """``score`` of one model on one split, its metrics only."""
    return score(params.values[None], model, np.asarray(x)[None], np.asarray(y)[None])[0].report


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


def select_epoch(
    trace: Sequence[float], strategy: StrategyKind, higher_is_better: bool = True
) -> int:
    """1-based epoch pick from a per-epoch validation trace.

    FEWS ignores the values and returns the last epoch. OEWS returns the
    best-scoring epoch, resolving ties toward the latest one.
    """
    if len(trace) == 0:
        raise ConfigurationError("selection needs at least one epoch")
    strategy = StrategyKind(strategy)
    if strategy is StrategyKind.FEWS:
        return len(trace)
    best_idx = 0
    for i in range(1, len(trace)):
        if higher_is_better:
            if trace[i] >= trace[best_idx]:
                best_idx = i
        elif trace[i] <= trace[best_idx]:
            best_idx = i
    return best_idx + 1


@dataclass(frozen=True)
class LocalRunResult:
    selected_params: ParameterVector
    selected_epoch: int
    trace: tuple[float, ...]


def train_stacked(
    rows: Sequence[tuple[ParameterVector, Split, Split, np.random.Generator, str]],
    model: ModelSpec,
    optimizer: OptimizerConfig,
    epochs: int,
    visit: Callable[[int, int, np.ndarray, Scores], bool],
) -> list[Exception | None]:
    """Train rows (start weights, train split, val split, rng, label) for up
    to ``epochs`` epochs. Rows whose splits have equal sizes train as one
    stack through ``nn.train_epoch``; no row is padded.

    After each epoch, each live row's weights are scored on its val split
    by one ``score`` call, and ``visit(row, epoch, weights, scores)`` gets
    them: it returns False to stop the row, or raises to fail it. A row
    whose weights turn non-finite fails with a DataError naming its label
    and the epoch. A row that stops or fails leaves its stack, which is
    compacted, so no dead row costs work. Returns, per row, the exception
    that failed it, or None.
    """
    errors: list[Exception | None] = [None] * len(rows)
    stacks: dict[tuple[int, int], list[int]] = {}
    for i, (start, train, val, _, label) in enumerate(rows):
        try:
            if len(train) == 0 or len(val) == 0:
                raise DataError(f"{label} has an empty train or val split")
            if start.manifest != model.manifest:
                raise ShapeError("params and model manifests must be identical")
            check_split(model, train.x, train.y)
            check_split(model, val.x, val.y)
        except Exception as exc:
            errors[i] = exc
            continue
        stacks.setdefault((len(train), len(val)), []).append(i)

    for members in stacks.values():
        weights = np.stack([rows[i][0].values for i in members])
        stack = [np.array(members), weights, np.zeros_like(weights)]
        for epoch in range(1, epochs + 1):
            live, weights, velocity = stack
            finite = train_epoch(
                weights, velocity, model, optimizer,
                [rows[i][1].x for i in live], [rows[i][1].y for i in live],
                [rows[i][3] for i in live],
            )
            for i in live[~finite]:
                errors[i] = DataError(f"{rows[i][4]} epoch {epoch}: weights are not finite")
            stack = _compact(finite, stack)
            live, weights, _ = stack
            if not len(live):
                break
            keep = np.ones(len(live), dtype=bool)
            val = [rows[i][2] for i in live]
            for j, scores in enumerate(
                score(weights, model, [v.x for v in val], [v.y for v in val])
            ):
                try:
                    keep[j] = visit(int(live[j]), epoch, weights[j], scores)
                except Exception as exc:
                    errors[live[j]] = exc
                    keep[j] = False
            stack = _compact(keep, stack)
            if not len(stack[0]):
                break
    return errors


def _compact(keep: np.ndarray, stack: list[np.ndarray]) -> list[np.ndarray]:
    """The per-row arrays without the rows ``keep`` leaves out."""
    return stack if keep.all() else [a[keep] for a in stack]


def train_local(
    rows: Sequence[tuple[ParameterVector, ClientDataset, np.random.Generator]],
    model: ModelSpec,
    optimizer: OptimizerConfig,
    epochs: int,
    metric: SelectionMetric = SelectionMetric.MACRO_F1,
) -> list[dict[StrategyKind, LocalRunResult] | Exception]:
    """Train each row (incoming weights, client, rng) for ``epochs`` epochs,
    score each epoch's weights on the client's validation split, and pick
    the epoch each strategy ships; rows of equal split sizes train as one
    stack (``train_stacked``).

    A row's training depends only on its incoming weights, its client's
    data and its rng stream, never on the other rows; both strategies pick
    from it with ``select_epoch``. Returns, per row, each strategy's pick,
    both sharing one trace, or the exception that failed the row alone: a
    non-finite weight or validation score is a DataError naming the client
    and the epoch.
    """
    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
    metric = SelectionMetric(metric)
    snapshots: list[dict[int, ParameterVector]] = [{} for _ in rows]
    traces: list[list[float]] = [[] for _ in rows]

    def visit(i: int, epoch: int, weights: np.ndarray, scores: Scores) -> bool:
        if metric is SelectionMetric.VAL_LOSS:
            value = scores.loss
        else:
            value = scores.report.scalar(metric.value)
        if not math.isfinite(value):
            raise DataError(
                f"client {rows[i][1].client_id} epoch {epoch}: "
                f"validation {metric.value} is {value}"
            )
        traces[i].append(value)
        # keep only the weights a strategy can pick: OEWS's pick so far,
        # which replaces its earlier pick, and the last epoch's
        if select_epoch(traces[i], StrategyKind.OEWS, metric.higher_is_better) == epoch:
            snapshots[i] = {epoch: ParameterVector(weights, model.manifest)}
        elif epoch == epochs:
            snapshots[i][epoch] = ParameterVector(weights, model.manifest)
        return True

    def picks(i: int) -> dict[StrategyKind, LocalRunResult]:
        trace = tuple(traces[i])
        out = {}
        for strategy in StrategyKind:
            epoch = select_epoch(trace, strategy, metric.higher_is_better)
            out[strategy] = LocalRunResult(snapshots[i][epoch], epoch, trace)
        return out

    errors = train_stacked(
        [(p, c.train, c.val, rng, f"client {c.client_id}") for p, c, rng in rows],
        model, optimizer, epochs, visit,
    )
    return [picks(i) if error is None else error for i, error in enumerate(errors)]


def run_local(
    global_params: ParameterVector,
    model: ModelSpec,
    client: ClientDataset,
    optimizer: OptimizerConfig,
    epochs: int,
    strategy: StrategyKind,
    rng: np.random.Generator,
    metric: SelectionMetric = SelectionMetric.MACRO_F1,
) -> LocalRunResult:
    """One client's contribution to a round: the strategy's pick of
    ``train_local`` of one row. The strategy changes which epoch is
    returned, never how training runs."""
    strategy = StrategyKind(strategy)
    (picks,) = train_local([(global_params, client, rng)], model, optimizer, epochs, metric)
    if isinstance(picks, Exception):
        raise picks
    return picks[strategy]
