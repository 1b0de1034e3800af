"""Evaluation metrics and client-side weight selection.

A client trains for a fixed number of epochs and must pick one epoch's
weights to send back. FEWS always sends the final epoch; OEWS sends the epoch
that scored best on the client's validation split, preferring the latest
epoch on ties.

Models that train side by side, such as a round's client runs or a seed's
baselines, train as one stack (``train_stacked``): each epoch is one
``nn.train_epoch`` call and one batched scoring of every live row.
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
    flat = np.bincount(y_true * class_count + y_pred, minlength=class_count * class_count)
    return flat.reshape(class_count, class_count)


def metrics_from_confusion(confusion: np.ndarray) -> MetricsReport:
    """Macro averages divide by the full class count; a class with no support
    or no predictions contributes zero rather than being skipped."""
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise DataError(f"confusion matrix must be square, got {confusion.shape}")
    c = confusion.shape[0]
    diag = np.diag(confusion).astype(np.float64)
    col = confusion.sum(axis=0).astype(np.float64)
    row = confusion.sum(axis=1).astype(np.float64)
    total = float(confusion.sum())
    if total == 0:
        raise DataError("confusion matrix has zero samples")

    precision = np.divide(diag, col, out=np.zeros(c), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros(c), where=row > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum, out=np.zeros(c), where=pr_sum > 0)

    return MetricsReport(
        accuracy=float(diag.sum() / total),
        macro_precision=float(precision.sum() / c),
        macro_recall=float(recall.sum() / c),
        macro_f1=float(f1.sum() / c),
    )


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
    (R, n, d) and (R, n) arrays or R arrays of one size each. Rows go
    through batched forward passes of as many rows as keep each activation
    within ``SCORE_VALUES`` values, at least one; the metrics are computed
    row by row."""
    width = len(x[0]) * max(model.layer_sizes)
    chunk = max(1, SCORE_VALUES // max(width, 1))
    out = []
    for lo in range(0, len(weights), chunk):
        batch = x[lo : lo + chunk]
        if len(batch) == 1:
            batch = np.asarray(batch[0])[None]  # a view: one row needs no stacked copy
        log_probs = forward(weights[lo : lo + chunk], model, batch, log=True)
        probs = np.exp(log_probs)
        preds = np.argmax(probs, axis=2)
        for lp, p, pred, labels in zip(log_probs, probs, preds, y[lo : lo + chunk]):
            labels = np.asarray(labels)
            report = metrics_from_confusion(confusion_matrix(labels, pred, model.class_count))
            loss = float(-lp[np.arange(labels.size), labels].mean())
            correct = pred == labels
            confidence = float(p[correct, pred[correct]].mean()) if correct.any() else 0.0
            out.append(Scores(report=report, loss=loss, confidence=confidence))
    return out


def score_one(params: ParameterVector, model: ModelSpec, x: np.ndarray, y: np.ndarray) -> Scores:
    """``score`` of one model on one split."""
    return score(params.values[None], model, [x], [y])[0]


def evaluate(
    params: ParameterVector, model: ModelSpec, x: np.ndarray, y: np.ndarray
) -> MetricsReport:
    return score_one(params, model, x, y).report


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
    per_epoch_val: tuple[MetricsReport, ...]
    train_sample_count: int
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
    both sharing one trace and one per-epoch report tuple, or the exception
    that failed the row alone: a non-finite weight or validation score is a
    DataError naming the client and the epoch.
    """
    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
    metric = SelectionMetric(metric)
    snapshots: list[dict[int, ParameterVector]] = [{} for _ in rows]
    reports: list[list[MetricsReport]] = [[] for _ in rows]
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
        reports[i].append(scores.report)
        traces[i].append(value)
        # keep only the weights a strategy can pick: OEWS's pick so far,
        # which replaces its earlier pick, and the last epoch's
        if select_epoch(traces[i], StrategyKind.OEWS, metric.higher_is_better) == epoch:
            snapshots[i] = {epoch: ParameterVector(weights, model.manifest)}
        elif epoch == epochs:
            snapshots[i][epoch] = ParameterVector(weights, model.manifest)
        return True

    def picks(i: int) -> dict[StrategyKind, LocalRunResult]:
        trace, per_epoch_val = tuple(traces[i]), tuple(reports[i])
        out = {}
        for strategy in StrategyKind:
            epoch = select_epoch(trace, strategy, metric.higher_is_better)
            out[strategy] = LocalRunResult(
                selected_params=snapshots[i][epoch],
                selected_epoch=epoch,
                per_epoch_val=per_epoch_val,
                train_sample_count=len(rows[i][1].train),
                trace=trace,
            )
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
