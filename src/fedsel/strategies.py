"""Evaluation metrics and client-side weight selection.

A client trains for a fixed number of epochs and must pick one epoch's
weights to send back. FEWS always sends the final epoch; OEWS sends the epoch
that scored best on the client's validation split, preferring the latest
epoch on ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .data import ClientDataset
from .errors import ConfigurationError, DataError
from .nn import (
    ModelSpec,
    OptimizerConfig,
    ParameterVector,
    forward,
    init_optimizer,
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


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class_precision: tuple[float, ...]
    per_class_recall: tuple[float, ...]
    per_class_f1: tuple[float, ...]
    confusion: np.ndarray
    sample_count: int

    def scalar(self, name: str) -> float:
        if name not in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
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
        per_class_precision=tuple(precision.tolist()),
        per_class_recall=tuple(recall.tolist()),
        per_class_f1=tuple(f1.tolist()),
        confusion=confusion,
        sample_count=int(total),
    )


@dataclass(frozen=True)
class Scores:
    """Everything one forward pass over a labelled split yields."""

    report: MetricsReport
    loss: float  # mean softmax cross-entropy, as nn.cross_entropy_loss
    # mean predicted-class probability over the correctly classified samples;
    # 0.0 when nothing is classified correctly
    confidence: float


def score(params: ParameterVector, model: ModelSpec, x: np.ndarray, y: np.ndarray) -> Scores:
    """Metrics, loss and correct-prediction confidence from a single forward
    pass over (x, y)."""
    log_probs = forward(params, model, x, log=True)
    probs = np.exp(log_probs)
    preds = np.argmax(probs, axis=1)
    y = np.asarray(y)
    report = metrics_from_confusion(confusion_matrix(y, preds, model.class_count))
    loss = float(-log_probs[np.arange(y.size), y].mean())
    correct = preds == y
    confidence = float(probs[correct, preds[correct]].mean()) if correct.any() else 0.0
    return Scores(report=report, loss=loss, confidence=confidence)


def evaluate(
    params: ParameterVector, model: ModelSpec, x: np.ndarray, y: np.ndarray
) -> MetricsReport:
    return score(params, model, x, y).report


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


@dataclass(frozen=True)
class LocalTrajectory:
    """One client's local training from some incoming weights: every epoch's
    weights, its validation report and its selection-metric value."""

    snapshots: tuple[ParameterVector, ...]
    per_epoch_val: tuple[MetricsReport, ...]
    trace: tuple[float, ...]
    train_sample_count: int
    metric: SelectionMetric

    def select(self, strategy: StrategyKind) -> LocalRunResult:
        """Ship the weights of the epoch ``select_epoch`` picks from the trace."""
        picked = select_epoch(
            self.trace, strategy, higher_is_better=self.metric.higher_is_better
        )
        return LocalRunResult(
            selected_params=self.snapshots[picked - 1],
            selected_epoch=picked,
            per_epoch_val=self.per_epoch_val,
            train_sample_count=self.train_sample_count,
            trace=self.trace,
        )


def train_local(
    global_params: ParameterVector,
    model: ModelSpec,
    client: ClientDataset,
    optimizer: OptimizerConfig,
    epochs: int,
    rng: np.random.Generator,
    metric: SelectionMetric = SelectionMetric.MACRO_F1,
) -> LocalTrajectory:
    """Train ``epochs`` epochs from the incoming global weights and score each
    epoch's weights on the client's validation split.

    The trajectory depends only on the incoming weights, the data, and the
    rng stream, never on the strategy that later picks an epoch from it. A
    non-finite validation score raises DataError naming the client and the
    epoch.
    """
    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
    if len(client.train) == 0 or len(client.val) == 0:
        raise DataError(f"client {client.client_id} has an empty train or val split")
    metric = SelectionMetric(metric)

    state = init_optimizer(global_params, optimizer)
    params = global_params
    snapshots: list[ParameterVector] = []
    reports: list[MetricsReport] = []
    trace: list[float] = []
    for epoch in range(1, epochs + 1):
        params, state = train_epoch(params, model, state, client.train.x, client.train.y, rng)
        scores = score(params, model, client.val.x, client.val.y)
        if metric is SelectionMetric.VAL_LOSS:
            value = scores.loss
        else:
            value = scores.report.scalar(metric.value)
        if not math.isfinite(value):
            raise DataError(
                f"client {client.client_id} epoch {epoch}: validation {metric.value} is {value}"
            )
        snapshots.append(params)
        reports.append(scores.report)
        trace.append(value)
    return LocalTrajectory(
        snapshots=tuple(snapshots),
        per_epoch_val=tuple(reports),
        trace=tuple(trace),
        train_sample_count=len(client.train),
        metric=metric,
    )


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
    """One client's contribution to a round: ``train_local``, then the epoch
    the strategy picks from the trace. The strategy changes which epoch is
    returned, never how training runs."""
    strategy = StrategyKind(strategy)
    trajectory = train_local(global_params, model, client, optimizer, epochs, rng, metric)
    return trajectory.select(strategy)
